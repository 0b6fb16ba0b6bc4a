"""The vectorized gauge guards against the loops they replaced.

The contraction-basepoint scan (`_gauge._pick_basepoint`), the branch
guard (`UnitaryField.check_branch_safety`) and the accumulated column-chain
rotation (`_gauge._ColumnChain.rotation`) must give exactly what the
per-candidate loop, the all-points SVD norm and the product rebuilt from
step 1 gave: the same arrays, the same pass/raise decisions and the same
error texts.
"""

import numpy as np
import pytest

from topoindex import _gauge
from topoindex.berry import occupied_frame
from topoindex.cli import run
from topoindex.errors import BranchUnsafe, GaugeConstructionFailed, ResidueTooLarge
from topoindex.model import MomentumGrid, builtin, direct_sum
from topoindex.z2 import kane_mele_nu, sewing_field
from topoindex.windex import (
    BRANCH_SAFE_DISTANCE,
    UnitaryField,
    degree_one_field,
    winding3d,
)


# --- reference implementations: the loops the vectorized guards replaced ---

def loop_pick_point(q):
    rng = np.random.default_rng(20240831)
    flat = q.reshape(-1, 4)
    candidates = [np.array([1.0, 0.0, 0.0, 0.0])]
    candidates += list(rng.normal(size=(256, 4)))
    best, best_margin = None, -1.0
    for c in candidates:
        c = c / np.linalg.norm(c)
        if c[0] < -0.6:
            c = -c
        margin = float(np.min(np.linalg.norm(flat + c, axis=1)))
        if margin > best_margin:
            best, best_margin = c, margin
    if best_margin < 0.2:
        raise GaugeConstructionFailed(
            f"no contraction basepoint with margin > 0.2 (best {best_margin:.3f})")
    return best, best_margin


def loop_pick_complex(c):
    rng = np.random.default_rng(46521)
    flat = c.reshape(-1, c.shape[-1])
    best, best_margin = None, -1.0
    for _ in range(256):
        cand = rng.normal(size=c.shape[-1]) + 1j * rng.normal(size=c.shape[-1])
        cand /= np.linalg.norm(cand)
        margin = float(np.min(np.linalg.norm(flat + cand, axis=1)))
        if margin > best_margin:
            best, best_margin = cand, margin
    if best_margin < 0.2:
        raise GaugeConstructionFailed(
            f"no column-contraction basepoint with margin > 0.2 (best {best_margin:.3f})")
    return best, best_margin


def loop_pick_basepoint(family, kind):
    return loop_pick_point(family) if kind == "quaternion" else loop_pick_complex(family)


def svd_check_branch_safety(self):
    n = self.values.shape[-1]
    for axis in range(self.grid.dim):
        ahead = np.roll(self.values, -1, axis=axis)
        ov = np.einsum("...ij,...ik->...jk", np.conj(self.values), ahead)
        dist = np.linalg.norm(ov - np.eye(n), ord=2, axis=(-2, -1))
        worst = int(np.flatnonzero(dist.ravel() >= dist.max() - 1e-12)[0])
        if dist.flat[worst] > BRANCH_SAFE_DISTANCE:
            where = tuple(int(i) for i in np.unravel_index(worst, dist.shape))
            raise BranchUnsafe(where, f"(axis {axis}, distance {dist.flat[worst]:.2f})")


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except (BranchUnsafe, GaugeConstructionFailed, ResidueTooLarge) as exc:
        return type(exc).__name__, str(exc)


# --- basepoint scan ---

def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def quaternion_family(rng, shape, spread):
    center = rng.normal(size=4)
    return unit_rows(center / np.linalg.norm(center) + spread * rng.normal(size=shape + (4,)))


def column_family(rng, shape, m, spread):
    center = rng.normal(size=m) + 1j * rng.normal(size=m)
    noise = rng.normal(size=shape + (m,)) + 1j * rng.normal(size=shape + (m,))
    return unit_rows(center / np.linalg.norm(center) + spread * noise)


# N = 4096 puts the family above the 16384-element block: 4 candidates a block
SHAPES = [(1,), (8,), (24, 24), (4096,)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"N{int(np.prod(s))}")
@pytest.mark.parametrize("spread", [0.3, 0.8])
def test_quaternion_scan_matches_loop(shape, spread):
    rng = np.random.default_rng(int(np.prod(shape)) + int(10 * spread))
    q = quaternion_family(rng, shape, spread)
    assert outcome(loop_pick_point, q)[0] == "ok"
    point, margin = _gauge._pick_basepoint(q, "quaternion")
    ref_point, ref_margin = loop_pick_point(q)
    assert np.array_equal(point, ref_point) and margin == ref_margin


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"N{int(np.prod(s))}")
@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_column_scan_matches_loop(shape, m):
    rng = np.random.default_rng(int(np.prod(shape)) * 10 + m)
    c = column_family(rng, shape, m, 0.4)
    point, margin = _gauge._pick_basepoint(c, "complex")
    ref_point, ref_margin = loop_pick_complex(c)
    assert np.array_equal(point, ref_point) and margin == ref_margin


@pytest.mark.parametrize("n_points", [1, 16384], ids=["one-block", "block-of-one"])
def test_scan_keeps_the_first_of_tied_candidates(monkeypatch, n_points):
    # |e0 + e_i| = sqrt(2) exactly for every i > 0: a strict > scan keeps e1
    cands = np.eye(4)[[1, 2, 3]]
    monkeypatch.setattr(_gauge, "_basepoint_candidates", lambda kind, m: cands)
    family = np.tile(np.eye(4)[0], (n_points, 1))
    point, margin = _gauge._pick_basepoint(family, "quaternion")
    assert np.array_equal(point, cands[0]) and margin == np.sqrt(2.0)


def test_scan_returns_a_writable_copy():
    q = quaternion_family(np.random.default_rng(3), (8,), 0.3)
    point, _ = _gauge._pick_basepoint(q, "quaternion")
    point[0] = 7.0
    again, _ = _gauge._pick_basepoint(q, "quaternion")
    assert again[0] != 7.0


@pytest.mark.parametrize("kind,family", [
    ("quaternion", unit_rows(np.random.default_rng(5).normal(size=(4096, 4)))),
    ("complex", np.exp(2j * np.pi * np.arange(64) / 64)[:, None]),
    ("complex", unit_rows(np.random.default_rng(6).normal(size=(4096, 2))
                          + 1j * np.random.default_rng(7).normal(size=(4096, 2)))),
], ids=["dense-S3", "circle", "dense-C2"])
def test_scan_failure_text_matches_loop(kind, family):
    ref = outcome(loop_pick_basepoint, family, kind)
    assert ref[0] == "GaugeConstructionFailed"
    assert outcome(_gauge._pick_basepoint, family, kind) == ref


# --- branch guard ---

def rough_unitaries(rng, shape, n, scale):
    """Independent random unitaries exp(i scale H) at every grid point."""
    a = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    h = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    lam, v = np.linalg.eigh(h)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * scale * lam), np.conj(v))


def phase_checkerboard(sizes, n=2):
    """e^{i theta p} I_n with p the parity of the grid index: every
    neighbor overlap is e^{+-i theta} I_n with |e^{i theta} - 1| = 1.5, so
    its Frobenius distance is 1.5 sqrt(n) and its spectral distance 1.5."""
    theta = 2.0 * np.arcsin(0.75)
    parity = np.indices(sizes).sum(axis=0) % 2
    return np.exp(1j * theta * parity)[..., None, None] * np.eye(n)


ROUGH_FIELDS = [
    (sizes, n, scale)
    for sizes in [(16,), (6, 6, 6)]
    for n in (1, 2)
    for scale in (0.2, 0.6, 0.9, 1.3, 2.5)]


def _rough_field(sizes, n, scale):
    rng = np.random.default_rng(len(sizes) * 100 + n * 10 + int(10 * scale))
    return UnitaryField(MomentumGrid(sizes), rough_unitaries(rng, sizes, n, scale))


def test_rough_fields_cover_both_outcomes():
    results = {outcome(svd_check_branch_safety, _rough_field(*f))[0] for f in ROUGH_FIELDS}
    assert results == {"ok", "BranchUnsafe"}


@pytest.mark.parametrize("sizes,n,scale", ROUGH_FIELDS)
def test_branch_guard_matches_svd_guard(sizes, n, scale):
    field = _rough_field(sizes, n, scale)
    assert outcome(UnitaryField.check_branch_safety, field) == outcome(
        svd_check_branch_safety, field)


@pytest.mark.parametrize("sizes", [(8,), (4, 6, 8)])
def test_branch_guard_passes_a_large_frobenius_small_spectral_step(sizes):
    values = phase_checkerboard(sizes)
    dev = np.conj(values[(0,) * len(sizes)]) @ values[(1,) + (0,) * (len(sizes) - 1)] - np.eye(2)
    assert np.linalg.norm(dev) == pytest.approx(1.5 * np.sqrt(2))
    assert np.linalg.norm(dev, ord=2) == pytest.approx(1.5)
    field = UnitaryField(MomentumGrid(sizes), values)
    field.check_branch_safety()
    assert outcome(svd_check_branch_safety, field) == ("ok", None)


def test_branch_guard_sends_nan_overlaps_to_the_svd():
    field = UnitaryField(MomentumGrid((8,)), np.tile(np.eye(2, dtype=complex), (8, 1, 1)))
    field.values[3] = np.nan  # set after construction, which rejects NaN
    for check in (UnitaryField.check_branch_safety, svd_check_branch_safety):
        with pytest.raises(np.linalg.LinAlgError):
            check(field)


def _fields_3d():
    yield UnitaryField(MomentumGrid((4, 6, 8)), phase_checkerboard((4, 6, 8)))
    yield degree_one_field(MomentumGrid((8, 8, 8)))
    for n, scale in [(1, 0.2), (2, 0.2), (2, 0.9), (2, 2.5)]:
        yield _rough_field((6, 6, 6), n, scale)


@pytest.mark.parametrize("fn,fields", [(winding3d, _fields_3d)], ids=["winding3d"])
def test_windings_match_under_svd_guard(monkeypatch, fn, fields):
    fast = [outcome(fn, f) for f in fields()]
    monkeypatch.setattr(UnitaryField, "check_branch_safety", svd_check_branch_safety)
    assert [outcome(fn, f) for f in fields()] == fast
    assert {r[0] for r in fast} >= {"ok", "BranchUnsafe"}


# --- end to end: reports byte-identical to the reference guards ---

E2E_COMMANDS = [
    ["z2-3d", "--model", "fu-kane-mele-3d", "--m", m, "--grid", "8"]
    for m in ("-2.0", "0.3", "3.5")] + [
    ["cs-index", "--model", "fu-kane-mele-3d", "--m", m, "--grid", "12"]
    for m in ("-2.0", "0.3", "3.5")] + [
    ["z2", "--model", "kane-mele", "--grid", "12"]]


@pytest.mark.parametrize("argv", E2E_COMMANDS, ids=" ".join)
def test_reports_identical_with_reference_guards(monkeypatch, argv):
    code, report = run(argv)
    body = report.to_json(include_timing=False)
    monkeypatch.setattr(_gauge, "_pick_basepoint", loop_pick_basepoint)
    monkeypatch.setattr(UnitaryField, "check_branch_safety", svd_check_branch_safety)
    ref_code, ref_report = run(argv)
    assert (code, body) == (ref_code, ref_report.to_json(include_timing=False))


# --- the column chain: accumulated products against the rebuilt ones ---

def rebuilt_rotation(chain, t):
    """The column-chain rotation rebuilt from step 1 for every t."""
    out = np.broadcast_to(np.eye(chain.m), chain.c0.shape[:-1] + (chain.m, chain.m)).copy()
    prev = chain.c0
    k = int(np.floor(t * chain.steps))
    for j in range(1, k + 1):
        nxt = chain._point(j / chain.steps)
        out = np.einsum("...ij,...jk->...ik", _gauge._minimal_rotation(prev, nxt), out)
        prev = nxt
    if t * chain.steps > k:
        nxt = chain._point(t)
        out = np.einsum("...ij,...jk->...ik", _gauge._minimal_rotation(prev, nxt), out)
    return out


RANK4_MODELS = {"atomic-limit-8": builtin("atomic-limit", n=8, dim=2),
                "kane-mele+bhz": direct_sum(builtin("kane-mele"), builtin("bhz", m=-1.0))}


def test_column_chain_rotation_matches_the_rebuilt_product():
    rng = np.random.default_rng(7)
    column = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    chain = _gauge._ColumnChain(column / np.linalg.norm(column, axis=-1, keepdims=True))
    # growing, repeated, falling and whole-step parameters
    for t in (1.0, 0.01, 0.3, 0.3, 0.5, 0.75, 0.2, 47 / 48, 1.0):
        assert np.array_equal(chain.rotation(t), rebuilt_rotation(chain, t)), t


@pytest.mark.parametrize("name", sorted(RANK4_MODELS))
def test_rank4_gauges_identical_with_rebuilt_rotations(monkeypatch, name):
    frames = occupied_frame(RANK4_MODELS[name], MomentumGrid((12, 12))).frames
    fast = _gauge.smooth_frames_2d(frames)
    calls = []

    def counted(chain, t):
        calls.append(t)
        return rebuilt_rotation(chain, t)

    monkeypatch.setattr(_gauge._ColumnChain, "rotation", counted)
    assert np.array_equal(fast, _gauge.smooth_frames_2d(frames))
    assert calls   # the rank-4 contraction ran through the column chain


@pytest.mark.parametrize("n", [12, 16, 24])
def test_rank4_direct_sum_nu(n):
    sf = sewing_field(RANK4_MODELS["kane-mele+bhz"], MomentumGrid((n, n)))
    assert kane_mele_nu(sf) == -1
