"""Winding numbers and the boundary-circle index."""

import numpy as np
import pytest

from topoindex.errors import BranchUnsafe, NotUnitary, ResidueTooLarge
from topoindex.model import MomentumGrid, _smoothstep, builtin
from topoindex.windex import (
    UnitaryField,
    boundary_index_2d,
    degree_one_field,
    degree_one_map,
    field_from_map,
    winding1d,
    winding3d,
)
from topoindex.z2 import sewing_field


def _diag(*entries):
    """Stacked diagonal matrices (..., n, n) from n per-momentum entries."""
    d = np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)
    return d[..., None] * np.eye(d.shape[-1])


def _loop(k, w=1):
    """The 1x1 loop exp(i w k_0) over momenta (..., d)."""
    return np.exp(1j * w * k[..., 0])[..., None, None]


def _identity(k):
    return np.broadcast_to(np.eye(2, dtype=complex), k.shape[:-1] + (2, 2))


def test_winding1d_unit_loop():
    grid = MomentumGrid((32,))
    fld = field_from_map(grid, _loop)
    assert winding1d(fld) == 1


def test_winding1d_constant_is_zero():
    grid = MomentumGrid((16,))
    fld = field_from_map(grid, _identity)
    assert winding1d(fld) == 0


def test_winding1d_diagonal_mixed_windings():
    grid = MomentumGrid((48,))
    fld = field_from_map(grid, lambda k: _diag(np.exp(1j * k[..., 0]), np.exp(-2j * k[..., 0])))
    assert winding1d(fld) == -1


def test_winding1d_additive_for_diagonal_products():
    grid = MomentumGrid((48,))
    g = field_from_map(grid, lambda k: _diag(np.exp(1j * k[..., 0]), 1.0))
    h = field_from_map(grid, lambda k: _diag(np.exp(2j * k[..., 0]), np.exp(1j * k[..., 0])))
    prod = UnitaryField(grid, np.einsum("...ij,...jk->...ik", g.values, h.values))
    assert winding1d(prod) == winding1d(g) + winding1d(h) == 4


def test_winding1d_invariant_under_constant_conjugation():
    grid = MomentumGrid((32,))
    rng = np.random.default_rng(8)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    g = field_from_map(grid, lambda k: _diag(np.exp(1j * k[..., 0]), np.exp(1j * k[..., 0])))
    conj = UnitaryField(grid, np.einsum("ij,...jk,kl->...il", q, g.values, q.conj().T))
    assert winding1d(conj) == winding1d(g) == 2


def test_winding1d_branch_safety():
    # winding 2 on a 4-point grid steps by pi per link: unsafe and caught
    grid = MomentumGrid((4,))
    with pytest.raises(BranchUnsafe):
        winding1d(field_from_map(grid, lambda k: _loop(k, 2)))


def _phase_field(distances):
    """A U(1) field on a circle whose link k has |u_k^* u_{k+1} - 1| = distances[k]
    for every link but the wrap."""
    steps = 2.0 * np.arcsin(np.asarray(distances) / 2.0)
    phases = np.concatenate([[0.0], np.cumsum(steps[:-1])])
    return UnitaryField(MomentumGrid((len(steps),)), np.exp(1j * phases)[:, None, None])


@pytest.mark.parametrize("link", [1, 4])
@pytest.mark.parametrize("eps", [-1e-15, 0.0, 1e-15])
def test_branch_report_names_the_first_of_a_tie(link, eps):
    # links 1 and 4 tie at distance 1.95; a 1e-15 change to either, which
    # moves the argmax between them, still names the first in grid order
    distances = [0.1, 1.95, 0.1, 0.1, 1.95, 0.1, 0.1, 0.1]
    distances[link] += eps
    with pytest.raises(BranchUnsafe) as exc:
        _phase_field(distances).check_branch_safety()
    assert str(exc.value) == "unitary field varies too fast at (1,) (axis 0, distance 1.95)"


def test_unitary_field_rejects_non_unitary():
    grid = MomentumGrid((8,))
    with pytest.raises(NotUnitary):
        UnitaryField(grid, np.zeros((8, 2, 2), dtype=complex))


def test_winding3d_identity():
    grid = MomentumGrid((8, 8, 8))
    fld = field_from_map(grid, _identity)
    res = winding3d(fld)
    assert res.rounded == 0 and res.residue < 1e-12


def test_winding3d_degree_one_map():
    res = winding3d(degree_one_field(MomentumGrid((16, 16, 16))))
    assert abs(res.rounded) == 1
    assert res.residue < 0.05


def test_winding3d_residue_shrinks_with_refinement():
    residues = [winding3d(degree_one_field(MomentumGrid((n, n, n))),
                          residue_tol=0.5).residue for n in (8, 16)]
    assert residues[1] < residues[0]


def test_winding3d_inverse_map_flips_sign():
    grid = MomentumGrid((12, 12, 12))
    plus = winding3d(degree_one_field(grid), residue_tol=0.5)
    minus = winding3d(degree_one_field(grid, power=-1), residue_tol=0.5)
    assert plus.rounded == -minus.rounded != 0


def test_winding3d_pair_reorder_flips_sign_not_parity():
    # reversing the Kramers-pair ordering exchanges the sewing matrix with
    # its transpose; the winding flips sign but keeps its parity
    grid = MomentumGrid((12, 12, 12))
    fld = degree_one_field(grid)
    reordered = UnitaryField(grid, np.swapaxes(fld.values, -1, -2))
    a = winding3d(fld, residue_tol=0.5)
    b = winding3d(reordered, residue_tol=0.5)
    assert a.rounded == -b.rounded
    assert a.rounded % 2 == b.rounded % 2 == 1


def test_winding3d_residue_guard():
    grid = MomentumGrid((8, 8, 8))
    with pytest.raises(ResidueTooLarge):
        winding3d(degree_one_field(grid), residue_tol=0.01)


def test_degree_one_map_constant_outside_ball():
    k = np.array([np.pi, np.pi, np.pi])
    assert np.allclose(degree_one_map(k), np.eye(2), atol=1e-12)
    assert np.allclose(degree_one_map(np.array([0.0, 0.0, 0.0])), -np.eye(2),
                       atol=1e-12)


def _degree_one_point(k):
    """Per-point reference of the degree-one map at one momentum (3,)."""
    r = float(np.linalg.norm(k))
    if r < 1e-12:
        return -np.eye(2, dtype=complex)
    chi = np.pi * (1.0 - _smoothstep(r / np.pi))
    khat = k / r
    alpha = np.sin(chi) * (khat[1] + 1j * khat[0])
    beta = np.cos(chi) + 1j * np.sin(chi) * khat[2]
    return np.array([[beta, alpha], [-np.conj(alpha), np.conj(beta)]])


@pytest.mark.parametrize("power", [-3, -2, -1, 0, 1, 2, 3])
def test_degree_one_field_matches_per_point_powers(power):
    grid = MomentumGrid((6, 8, 10))
    want = np.empty(grid.sizes + (2, 2), dtype=complex)
    for idx in grid.indices():
        g = _degree_one_point(grid.point(idx))
        step = g if power > 0 else g.conj().T
        want[idx] = np.eye(2)
        for _ in range(abs(power)):
            want[idx] = want[idx] @ step
    got = degree_one_field(grid, power).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_degree_one_map_broadcasts_over_momenta():
    k = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(4, 5, 3))
    k[0, 0] = 0.0
    stack = degree_one_map(k)
    assert stack.shape == (4, 5, 2, 2)
    for idx in np.ndindex(4, 5):
        assert np.max(np.abs(stack[idx] - _degree_one_point(k[idx]))) < 1e-12


def test_unitary_field_rejects_a_nan_entry():
    values = degree_one_field(MomentumGrid((8, 8, 8))).values.copy()
    values[1, 2, 3, 0, 1] = np.nan
    with pytest.raises(NotUnitary, match="nan"):
        UnitaryField(MomentumGrid((8, 8, 8)), values)


def test_unitary_field_names_a_bad_point_by_plain_grid_indices():
    values = np.tile(np.eye(2, dtype=complex), (8, 1, 1))
    values[2, 0, 0] = np.nan
    with pytest.raises(NotUnitary) as nan_point:
        UnitaryField(MomentumGrid((8,)), values)
    assert str(nan_point.value) == "matrix field not unitary at (2,) (deviation nan)"
    values[2] = 2.0 * np.eye(2)
    with pytest.raises(NotUnitary) as scaled_point:
        UnitaryField(MomentumGrid((8,)), values)
    assert str(scaled_point.value) == "matrix field not unitary at (2,) (deviation 4.243e+00)"


def test_boundary_index_matches_nu_on_builtins():
    grid = MomentumGrid((16, 16))
    cases = [
        ("kane-mele", {"lso": 0.06, "lv": 0.1}, -1),
        ("kane-mele", {"lso": 0.06, "lv": 0.4}, 1),
        ("bhz", {"m": 2.0}, -1),
        ("atomic-limit", {"n": 4, "dim": 2}, 1),
    ]
    for name, params, expected in cases:
        sf = sewing_field(builtin(name, **params), grid)
        assert boundary_index_2d(sf) == expected


def test_boundary_index_flips_across_bhz_mass_sign():
    grid = MomentumGrid((14, 14))
    top = boundary_index_2d(sewing_field(builtin("bhz", m=2.0), grid))
    triv = boundary_index_2d(sewing_field(builtin("bhz", m=-1.0), grid))
    assert top == -1 and triv == 1
