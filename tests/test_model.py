"""Grids, time reversal, builtin models, ribbons and model serialization."""

import re

import numpy as np
import pytest

from topoindex.errors import (
    HoppingRangeTooLong,
    InvalidParams,
    NonHermitianInput,
    SchemaError,
    UnknownModel,
)
from topoindex.model import (
    MomentumGrid,
    TimeReversal,
    builtin,
    check_trs,
    direct_sum,
    load_model,
    ribbonize,
    standard_theta,
    to_json,
    trim_points,
)

TRS_BUILTINS = [
    ("kane-mele", {"t": 1.0, "lso": 0.06, "lv": 0.1}, 2),
    ("bhz", {"m": 2.0}, 2),
    ("fu-kane-mele-3d", {"m": -2.0}, 3),
    ("kitaev-chain", {"mu": 1.0}, 1),
    ("atomic-limit", {"n": 4, "dim": 2}, 2),
]


def test_grid_negation_closure_exact():
    grid = MomentumGrid((8, 6))
    for idx in grid.indices():
        neg = grid.negate_index(idx)
        total = grid.point(idx) + grid.point(neg)
        # sums are exact multiples of 2*pi
        assert np.allclose(np.round(total / (2 * np.pi)), total / (2 * np.pi),
                           atol=1e-14)


def test_grid_rejects_odd_sizes():
    with pytest.raises(InvalidParams):
        MomentumGrid((7, 8))


def test_trim_points_1d():
    assert trim_points(MomentumGrid((8,))).tolist() == [[0.0], [np.pi]]


def test_trim_points_2d_matches_fixed_point_set():
    pts = trim_points(MomentumGrid((8, 8)))
    expected = [[0.0, 0.0], [0.0, np.pi], [np.pi, 0.0], [np.pi, np.pi]]
    assert pts.tolist() == expected
    assert pts[-1].tolist() == [np.pi, np.pi]  # top codimension last


def test_trim_points_3d_count():
    pts = trim_points(MomentumGrid((6, 6, 6)))
    assert pts.shape == (8, 3)
    assert pts[-1].tolist() == [np.pi, np.pi, np.pi]


def test_trim_indices_are_self_negating():
    grid = MomentumGrid((10, 8))
    for idx in grid.trim_indices():
        assert grid.negate_index(idx) == idx


def test_time_reversal_squares_to_minus_one():
    theta = standard_theta(4)
    u = theta.unitary
    assert np.allclose(u @ np.conj(u), -np.eye(4), atol=1e-14)


def test_time_reversal_rejects_bad_unitary():
    with pytest.raises(InvalidParams):
        TimeReversal(np.eye(4))  # squares to +1, not -1


@pytest.mark.parametrize("name,params,dim", TRS_BUILTINS)
def test_builtin_trs_identity(name, params, dim):
    model = builtin(name, **params)
    grid = MomentumGrid(tuple([8] * dim))
    report = check_trs(model, grid)
    assert report.passed, f"{name}: deviation {report.max_deviation}"


@pytest.mark.parametrize("name,params,dim", TRS_BUILTINS)
def test_kramers_degeneracy_at_trims(name, params, dim):
    model = builtin(name, **params)
    grid = MomentumGrid(tuple([8] * dim))
    for idx in grid.trim_indices():
        ev = np.linalg.eigvalsh(model.h(grid.point(idx)))
        pairs = ev.reshape(-1, 2)
        assert np.all(pairs[:, 1] - pairs[:, 0] < 1e-9)


def test_trs_check_fails_with_zeeman_term():
    km = builtin("kane-mele")
    sz = np.kron(np.diag([1.0, -1.0]), np.eye(2))

    def broken(k, _base=km.evaluate):
        return _base(k) + 0.3 * sz

    perturbed = builtin("kane-mele")
    perturbed.evaluate = broken
    assert not check_trs(perturbed, MomentumGrid((6, 6))).passed


def test_constant_identity_model_passes_trs():
    atom = builtin("atomic-limit", n=4, dim=2)
    assert check_trs(atom, MomentumGrid((6, 6))).passed


def test_unknown_model_and_bad_params():
    with pytest.raises(UnknownModel):
        builtin("no-such-model")
    with pytest.raises(InvalidParams):
        builtin("kane-mele", bogus=1.0)
    with pytest.raises(InvalidParams):
        builtin("atomic-limit", n=6)
    for n in (4.5, 0, -4, 1028, 4194304):  # 4194304 bands would need a 32 TiB diagonal
        with pytest.raises(InvalidParams):
            builtin("atomic-limit", n=n)
    assert builtin("atomic-limit", n=1024).bands == 1024  # one 16 MB Bloch matrix


def test_hopf_model_occupied_projector_is_monopole_projector():
    hopf = builtin("hopf-two-band")
    rng = np.random.default_rng(2)
    for _ in range(12):
        k = rng.uniform(-np.pi, np.pi, size=2)
        h = hopf.h(k)
        ev, vec = np.linalg.eigh(h)
        proj = np.outer(vec[:, 0], vec[:, 0].conj())
        n = -np.array([h[0, 1].real, -h[0, 1].imag, h[0, 0].real])
        expected = 0.5 * (np.eye(2) + n[0] * np.array([[0, 1], [1, 0]])
                          + n[1] * np.array([[0, -1j], [1j, 0]])
                          + n[2] * np.diag([1.0, -1.0]))
        assert np.allclose(proj, expected, atol=1e-12)


def test_ribbon_is_hermitian_and_has_expected_size():
    km = builtin("kane-mele")
    ribbon = ribbonize(km, open_axis=0, width=12)
    h = ribbon.evaluate([0.7])
    assert h.shape == (48, 48)
    assert np.linalg.norm(h - h.conj().T) < 1e-12


def test_ribbon_periodic_restore_matches_bulk_spectrum():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    width = 12
    ribbon = ribbonize(km, open_axis=0, width=width)
    k_perp = 0.5
    ring = np.linalg.eigvalsh(ribbon.evaluate_periodic([k_perp]))
    bulk = []
    for m in range(width):
        k_open = -np.pi + 2 * np.pi * m / width
        bulk.extend(np.linalg.eigvalsh(km.h([k_open, k_perp])))
    assert np.allclose(np.sort(ring), np.sort(bulk), atol=1e-9)


def test_atomic_ribbon_is_flat_copies():
    atom = builtin("atomic-limit", n=4, dim=2)
    ribbon = ribbonize(atom, open_axis=0, width=10)
    ev = np.linalg.eigvalsh(ribbon.evaluate([0.3]))
    assert np.allclose(np.unique(np.round(ev, 10)), [-1.0, 1.0])


def test_bhz_ribbon_gapless_in_topological_phase():
    bhz = builtin("bhz", m=2.0)
    ribbon = ribbonize(bhz, open_axis=0, width=20)
    bulk_gap = bhz.min_gap(MomentumGrid((24, 24)))
    edge_gap = min(
        float(np.min(np.abs(np.linalg.eigvalsh(ribbon.evaluate([k])))))
        for k in np.linspace(-np.pi, np.pi, 61))
    assert edge_gap < bulk_gap / 10


def test_ribbonize_rejects_undeclared_long_hopping():
    km = builtin("kane-mele")
    km.hopping_range = 0  # misdeclared on purpose
    with pytest.raises(HoppingRangeTooLong):
        ribbonize(km, open_axis=0, width=10).hoppings(np.array([0.1]))


def test_leak_message_names_the_bound_that_fired():
    # a model in small units: the leak is below 1e-10 yet far above
    # 1e-10 times its largest in-range entry, and the text says so
    km = builtin("kane-mele", t=1e-12, lso=6e-14, lv=1e-13)
    km.hopping_range = 0  # misdeclared on purpose
    with pytest.raises(HoppingRangeTooLong) as info:
        ribbonize(km, open_axis=0, width=10).hoppings(np.array([0.1]))
    leak, bound = (float(x) for x in re.findall(r"reach (\S+) \(> ([^,]+),", str(info.value))[0])
    assert leak < 1e-10 and bound < leak


@pytest.mark.parametrize("mass", [1e6, 1e12, 1e300])
def test_ribbon_leak_is_relative_to_the_largest_coefficient(mass):
    # rounding noise of a large on-site term is not a long-range hopping
    blocks = ribbonize(builtin("bhz", m=mass), open_axis=0, width=8).hoppings(
        np.linspace(-np.pi, np.pi, 9)[:, None])
    assert blocks.shape == (9, 3, 4, 4) and np.all(np.isfinite(blocks))


def test_ribbon_rejects_non_finite_coefficients():
    bhz = builtin("bhz", m=2.0)
    bhz.evaluate = lambda k: np.full(k.shape[:-1] + (4, 4), np.inf, dtype=complex)
    with pytest.raises(InvalidParams, match="not finite"):
        ribbonize(bhz, open_axis=0, width=8).hoppings(np.array([0.1]))


def _rashba_kane_mele_doc():
    """Kane-Mele with a time-reversal-even spin-mixing hopping along a1."""
    doc = to_json(builtin("kane-mele", t=1.0, lso=0.06, lv=0.1))
    mix = 0.05j * np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
    for term in doc["terms"]:
        if term["R"] == [1, 0]:
            mat = np.array([[complex(*z) for z in row] for row in term["matrix"]]) + mix
            term["matrix"] = [[[z.real, z.imag] for z in row] for row in mat]
    return doc


def _ribbon_cases():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    bhz = builtin("bhz", m=1.3)
    return [
        ("kane-mele", ribbonize(km, 0, 9)),
        ("bhz", ribbonize(bhz, 1, 8)),
        ("direct-sum", ribbonize(direct_sum(km, bhz), 0, 8)),
        ("load-model", ribbonize(load_model(_rashba_kane_mele_doc()), 0, 10)),
        ("fkm-3d", ribbonize(builtin("fu-kane-mele-3d", m=-2.0), 2, 8)),
    ]


@pytest.mark.parametrize("ribbon", [pytest.param(r, id=n) for n, r in _ribbon_cases()])
def test_ribbon_evaluate_broadcasts_like_pointwise_calls(ribbon):
    rng = np.random.default_rng(7)
    ks = rng.uniform(-np.pi, np.pi, size=(3, 2, ribbon.dim))
    size = ribbon.transverse_sites * ribbon.bands
    for method in (ribbon.evaluate, ribbon.evaluate_periodic):
        stack = method(ks)
        assert stack.shape == (3, 2, size, size)
        for idx in np.ndindex(3, 2):
            assert np.allclose(stack[idx], method(ks[idx]), atol=1e-14, rtol=0)
    assert ribbon.hoppings(ks).shape == (3, 2, 2 * ribbon.hopping_range + 1,
                                         ribbon.bands, ribbon.bands)


def test_ribbon_blocks_sit_on_their_offsets():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    ribbon = ribbonize(km, open_axis=0, width=9)
    k = np.array([0.4])
    blocks = ribbon.hoppings(k)
    h = ribbon.evaluate(k).reshape(9, 4, 9, 4)
    hp = ribbon.evaluate_periodic(k).reshape(9, 4, 9, 4)
    for i in range(9):
        for j in range(9):
            d = j - i
            open_block = blocks[d + 1] if abs(d) <= 1 else 0.0
            assert np.array_equal(h[i, :, j, :], np.broadcast_to(open_block, (4, 4)))
            dp = (d + 1) % 9 - 1
            ring_block = blocks[dp + 1] if abs(dp) <= 1 else 0.0
            assert np.array_equal(hp[i, :, j, :], np.broadcast_to(ring_block, (4, 4)))


def test_ribbon_stack_rejects_undeclared_long_hopping():
    km = builtin("kane-mele")
    km.hopping_range = 0  # misdeclared on purpose
    ribbon = ribbonize(km, open_axis=0, width=10)
    with pytest.raises(HoppingRangeTooLong):
        ribbon.hoppings(np.linspace(0.0, np.pi, 5)[:, None])
    with pytest.raises(HoppingRangeTooLong):
        ribbon.evaluate([[0.1], [0.2]])


def test_load_constant_gapped_model():
    doc = {
        "dim": 1, "bands": 2, "occupied": 1,
        "terms": [{"R": [0], "matrix": [[[-1.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [1.0, 0.0]]]}],
        "time_reversal": None,
    }
    model = load_model(doc)
    assert np.allclose(model.h([0.3]), np.diag([-1.0, 1.0]))


def test_load_nearest_neighbor_chain_closed_form():
    # sigma_1 hopping at R = 1 gives H(k) = 2 cos(k) sigma_1 exactly
    doc = {
        "dim": 1, "bands": 2, "occupied": 1,
        "terms": [{"R": [1], "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                        [[1.0, 0.0], [0.0, 0.0]]]}],
        "time_reversal": None,
    }
    model = load_model(doc)
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    for k in (0.1, 0.4, 2.2):
        assert np.allclose(model.h([k]), 2.0 * np.cos(k) * sigma1, atol=1e-14)


def test_json_round_trip_reproduces_kane_mele_spectra():
    km = builtin("kane-mele", t=1.0, lso=0.06, lv=0.1)
    loaded = load_model(to_json(km))
    for k in ([0.0, 0.0], [0.3, -1.2], [2.0, 2.9]):
        assert np.allclose(np.linalg.eigvalsh(loaded.h(k)),
                           np.linalg.eigvalsh(km.h(k)), atol=1e-12)
    assert check_trs(loaded, MomentumGrid((6, 6))).passed


def test_load_model_schema_errors():
    with pytest.raises(SchemaError):
        load_model({"dim": 2, "bands": 2, "occupied": 1})
    with pytest.raises(SchemaError):
        load_model({"dim": 2, "bands": 2, "occupied": 1,
                    "terms": [{"R": [1], "matrix": [[[0, 0]]]}]})
    with pytest.raises(NonHermitianInput):
        load_model({
            "dim": 1, "bands": 2, "occupied": 1,
            "terms": [{"R": [0], "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                            [[0.0, 0.0], [0.0, 0.0]]]}],
        })


def test_direct_sum_keeps_trs():
    km = builtin("kane-mele")
    doubled = direct_sum(km, km)
    assert doubled.bands == 8 and doubled.occupied == 4
    assert check_trs(doubled, MomentumGrid((6, 6))).passed


def test_grid_points_match_point():
    grid = MomentumGrid((4, 6, 8))
    pts = grid.points()
    assert pts.shape == (4, 6, 8, 3)
    for idx in grid.indices():
        assert np.array_equal(pts[idx], grid.point(idx))


def _broadcast_families():
    from topoindex.model import _BUILTINS

    fams = [builtin(name) for name in _BUILTINS]
    fams.append(builtin("atomic-limit", n=8, dim=3))
    fams.append(direct_sum(builtin("kane-mele"), builtin("bhz", m=1.0)))
    fams.append(load_model(to_json(builtin("fu-kane-mele-3d", m=-1.5))))
    fams.append(load_model({
        "dim": 2, "bands": 2, "occupied": 1,
        "terms": [{"R": [0, 0], "matrix": [[[0.5, 0.0], [0.0, 0.2]], [[0.0, -0.2], [-0.5, 0.0]]]},
                  {"R": [1, 0], "matrix": [[[0.0, 0.3], [1.0, 0.0]], [[0.2, 0.0], [0.0, 0.0]]]},
                  {"R": [0, 2], "matrix": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.4], [0.3, 0.0]]]}],
    }))
    return fams


@pytest.mark.parametrize("family", _broadcast_families(), ids=lambda f: f"{f.name}-{f.dim}d")
def test_broadcast_evaluation_equals_pointwise(family):
    rng = np.random.default_rng(7)
    ks = rng.uniform(-np.pi, np.pi, size=(3, 5, family.dim))
    ks[0, 0] = 0.0  # the hopf pole
    ks[0, 1] = np.pi
    stacked = family.h(ks)
    assert stacked.shape == (3, 5, family.bands, family.bands)
    for idx in np.ndindex(3, 5):
        assert np.max(np.abs(stacked[idx] - family.h(ks[idx]))) < 1e-14


def _whole_grid_trs_deviation(model, grid):
    """check_trs's deviation computed on the whole grid at once."""
    u = model.time_reversal.unitary
    k = grid.points()
    lhs = u @ np.conj(model.h(k)) @ u.conj().T
    return float(np.max(np.linalg.norm(lhs - model.h(-k), axis=(-2, -1))))


def _whole_grid_min_gap(model, grid):
    return float(np.min(np.abs(np.linalg.eigvalsh(model.h(grid.points())))))


@pytest.mark.parametrize("model,sizes", [
    (lambda: builtin("kane-mele"), (24, 24)),
    (lambda: builtin("bhz", m=1.0), (32, 32)),
    (lambda: builtin("fu-kane-mele-3d", m=-1.5), (12, 12, 12)),
    (lambda: builtin("atomic-limit", n=8), (8, 8)),
    # several chunks of GRID_CHUNK_ENTRIES Hamiltonian entries each
    (lambda: builtin("kane-mele", lv=0.3), (96, 64)),
    (lambda: builtin("atomic-limit", n=8), (40, 40)),
], ids=["kane-mele", "bhz", "fkm3d", "atomic-limit", "kane-mele-chunks", "atomic-limit-chunks"])
def test_chunked_grid_checks_match_the_whole_grid(model, sizes):
    model, grid = model(), MomentumGrid(sizes)
    assert check_trs(model, grid).max_deviation == _whole_grid_trs_deviation(model, grid)
    assert model.min_gap(grid) == _whole_grid_min_gap(model, grid)


def test_chunked_trs_check_keeps_a_non_finite_entry_of_a_later_chunk():
    model = builtin("kane-mele")
    base = model.evaluate

    def poisoned(k):
        h = base(k)
        h[np.all(k == 0.0, axis=-1)] = np.nan
        return h

    model.evaluate = poisoned
    grid = MomentumGrid((128, 128))  # k = 0 sits in the 17th of 32 chunks
    report = check_trs(model, grid)
    assert np.isnan(report.max_deviation) and not report.passed


def test_trs_check_memory_is_bounded_by_its_chunk():
    import tracemalloc

    model, grid = builtin("kane-mele"), MomentumGrid((256, 256))
    tracemalloc.start()
    try:
        assert check_trs(model, grid).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
