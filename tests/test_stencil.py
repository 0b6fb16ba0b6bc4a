"""The shared grid kernels against the inline expressions they replaced.

Each helper must give bit for bit what its copies computed in place: the
link-variable overlap of `berry.link_dets`, `_gauge.smoothness_report`,
`UnitaryField.check_branch_safety` and `winding1d`; the F^dagger dF
one-forms of the Chern-Simons and winding quadratures.  The winding's
signed sum over the 3! axis orderings, which `_cubic_trace_sum` takes as
two triple traces, must agree to rounding.
"""

from itertools import permutations

import numpy as np
import pytest

from topoindex._stencil import central_diff, levi_civita_sum, neighbour_overlaps, one_forms
from topoindex.berry import chern_simons_integral
from topoindex.model import MomentumGrid, builtin
from topoindex.windex import UnitaryField, _cubic_trace_sum, degree_one_field
from topoindex.z2 import sewing_field


# --- reference expressions, as they stood in each module ---

def ref_overlaps_berry(frames, axis):
    ahead = np.roll(frames, -1, axis=axis)
    return np.einsum("...im,...ik->...mk", np.conj(frames), ahead)


def ref_overlaps_branch_guard(values, axis):
    ahead = np.roll(values, -1, axis=axis)
    return np.einsum("...ij,...ik->...jk", np.conj(values), ahead)


def ref_overlaps_winding1d(g):
    return np.einsum("tij,tik->tjk", np.conj(g), np.roll(g, -1, axis=0))


def ref_connection_forms(frames, steps):
    out = []
    for mu, h in enumerate(steps):
        d = central_diff(frames, mu, h)
        out.append(np.einsum("...im,...ik->...mk", np.conj(frames), d))
    return out


def ref_winding_forms(g, steps):
    out = []
    for mu, h in enumerate(steps):
        d = central_diff(g, mu, h)
        out.append(np.einsum("...ij,...ik->...jk", np.conj(g), d))
    return out


def ref_degree_one_form(g, h):
    return np.einsum("tij,tik->tjk", np.conj(g), central_diff(g, 0, h))


def ref_cubic_sum(ls):
    total = 0.0 + 0.0j
    for perm in permutations((0, 1, 2)):
        sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
        a, b, c = (ls[p] for p in perm)
        total += sign * np.sum(np.einsum("...ij,...jk,...ki->...", a, b, c))
    return total


def ref_chern_simons_sum(a, steps):
    total = 0.0 + 0.0j
    for perm in permutations((0, 1, 2)):
        sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
        mu, nu, rho = perm
        da = central_diff(a[rho], nu, steps[nu])
        t1 = np.einsum("...mk,...km->...", a[mu], da)
        t2 = np.einsum("...mk,...kl,...lm->...", a[mu], a[nu], a[rho])
        total += sign * np.sum(t1 + (2.0 / 3.0) * t2)
    return total


def random_field(sizes, n, m, seed):
    rng = np.random.default_rng(seed)
    shape = sizes + (n, m)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


FIELDS = [((16,), 3, 2), ((16,), 2, 2), ((6, 4, 8), 4, 2), ((4, 6, 4), 2, 2)]


@pytest.mark.parametrize("sizes,n,m", FIELDS)
def test_neighbour_overlaps_match_the_inline_copies(sizes, n, m):
    f = random_field(sizes, n, m, seed=len(sizes) + n)
    for axis in range(len(sizes)):
        got = neighbour_overlaps(f, axis)
        assert np.array_equal(got, ref_overlaps_berry(f, axis))
        assert np.array_equal(got, ref_overlaps_branch_guard(f, axis))
    if len(sizes) == 1:
        assert np.array_equal(neighbour_overlaps(f, 0), ref_overlaps_winding1d(f))


@pytest.mark.parametrize("sizes,n,m", FIELDS)
def test_one_forms_match_the_inline_copies(sizes, n, m):
    f = random_field(sizes, n, m, seed=10 + len(sizes) + n)
    steps = tuple(2.0 * np.pi / s for s in sizes)
    got = one_forms(f, steps)
    for ref in (ref_connection_forms(f, steps), ref_winding_forms(f, steps)):
        assert len(got) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    if len(sizes) == 1:
        assert np.array_equal(got[0], ref_degree_one_form(f, steps[0]))


@pytest.mark.parametrize("sizes", [(8, 6, 8), (6, 8, 10)])
def test_quadratures_match_the_inline_sums(sizes):
    grid = MomentumGrid(sizes)
    steps = tuple(2.0 * np.pi / s for s in sizes)
    frames = random_field(sizes, 4, 2, seed=sum(sizes))
    a = [0.5 * (x - np.conj(np.swapaxes(x, -1, -2))) for x in ref_connection_forms(frames, steps)]
    want = float((-(1.0 / (8.0 * np.pi ** 2)) * np.prod(steps)
                  * ref_chern_simons_sum(a, steps)).real)
    assert chern_simons_integral(frames, grid) == want


def _cs_index_field():
    grid = MomentumGrid((12, 12, 12))
    return UnitaryField(grid, sewing_field(builtin("fu-kane-mele-3d", m=-2.0), grid).smooth_w)


@pytest.mark.parametrize("make", [
    *[lambda s=s, p=p: degree_one_field(MomentumGrid(s), p)
      for s, p in [((8, 6, 8), 1), ((6, 8, 10), 1), ((12, 12, 12), -1),
                   ((12, 12, 12), 2), ((12, 12, 12), -2)]],
    _cs_index_field], ids=["power+1", "power+1-skew", "power-1", "power+2", "power-2",
                           "cs-index"])
def test_cubic_trace_sum_matches_the_six_orderings(make):
    # two triple traces in place of six orderings: equal up to rounding, on
    # the scale of the winding number
    field = make()
    steps = tuple(2.0 * np.pi / s for s in field.grid.sizes)
    total, _ = _cubic_trace_sum(field)
    ref = ref_cubic_sum(ref_winding_forms(field.values, steps))
    assert abs(total - ref) * np.prod(steps) / (24.0 * np.pi ** 2) < 1e-12


def test_levi_civita_sum_signs():
    weights = {p: levi_civita_sum(lambda *q, p=p: float(q == p))
               for p in permutations((0, 1, 2))}
    assert weights == {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                       (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
