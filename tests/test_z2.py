"""Sewing field invariants, the Kane-Mele invariant and its oracles."""

import re

import numpy as np
import pytest

from topoindex import z2
from topoindex._gauge import _dagger, _mul, polar_unitary, unitary_eig
from topoindex.berry import occupied_frame
from topoindex.errors import (
    BranchTrackingFailed,
    GaugeConstructionFailed,
    InvalidParams,
    NotUnitary,
    PfaffianNearZero,
)
from topoindex.model import MomentumGrid, builtin, direct_sum
from topoindex.z2 import (
    _pf_walk,
    kane_mele_nu,
    sewing_field,
    strong_and_weak_indices_3d,
    wannier_center_flow,
)
from topoindex.windex import boundary_index_2d

KM_TOPO = {"t": 1.0, "lso": 0.06, "lv": 0.1}
KM_TRIV = {"t": 1.0, "lso": 0.06, "lv": 0.4}


@pytest.fixture(scope="module")
def grid16():
    return MomentumGrid((16, 16))


def test_sewing_field_invariants_hold(grid16):
    for params in (KM_TOPO, KM_TRIV):
        sf = sewing_field(builtin("kane-mele", **params), grid16)
        assert sf.unitarity_deviation < 1e-8
        assert sf.relation_deviation < 1e-12   # w(-k) = -w(k)^T, exact identity
        assert sf.trim_skew_deviation < 1e-12


def test_sewing_skew_at_pi_pi(grid16):
    sf = sewing_field(builtin("kane-mele", **KM_TOPO), grid16)
    idx = (0, 0)  # grid index of k = (pi, pi)
    w = sf.w[idx]
    assert np.linalg.norm(w + w.T) < 1e-8


def test_atomic_sewing_constant_symplectic_form():
    atom = builtin("atomic-limit", n=4, dim=2)
    grid = MomentumGrid((8, 8))
    sf = sewing_field(atom, grid)
    w0 = sf.w[0, 0]
    assert np.max(np.abs(sf.w - w0)) < 1e-12
    # equals i sigma_2 up to a phase
    target = np.array([[0.0, 1.0], [-1.0, 0.0]])
    phase = w0[0, 1]
    assert np.allclose(w0, phase * target, atol=1e-12)
    assert abs(abs(phase) - 1.0) < 1e-12


def test_sewing_requires_time_reversal():
    hopf = builtin("hopf-two-band")
    with pytest.raises(InvalidParams):
        sewing_field(hopf, MomentumGrid((8, 8)))


@pytest.mark.parametrize("params,expected", [(KM_TOPO, -1), (KM_TRIV, 1)])
def test_kane_mele_nu_phases(params, expected, grid16):
    sf = sewing_field(builtin("kane-mele", **params), grid16)
    assert kane_mele_nu(sf) == expected


@pytest.mark.parametrize("mass,expected", [(2.0, -1), (-1.0, 1)])
def test_bhz_nu_phases(mass, expected, grid16):
    sf = sewing_field(builtin("bhz", m=mass), grid16)
    assert kane_mele_nu(sf) == expected


def test_atomic_limit_nu_trivial():
    atom = builtin("atomic-limit", n=4, dim=2)
    sf = sewing_field(atom, MomentumGrid((8, 8)))
    assert kane_mele_nu(sf) == 1


def test_nu_invariant_under_random_frame_dressing(grid16):
    km = builtin("kane-mele", **KM_TOPO)
    base = occupied_frame(km, grid16).frames
    rng = np.random.default_rng(12)
    for _ in range(10):
        dressed = base.copy()
        for idx in np.ndindex(grid16.sizes):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            dressed[idx] = dressed[idx] @ q
        sf = sewing_field(km, grid16, frames=dressed)
        assert kane_mele_nu(sf) == -1


def test_nu_grid_size_stability():
    km = builtin("kane-mele", **KM_TOPO)
    values = [kane_mele_nu(sewing_field(km, MomentumGrid((n, n))))
              for n in (12, 24)]
    assert values[0] == values[1] == -1


def test_wannier_flow_flat_for_atomic_limit():
    atom = builtin("atomic-limit", n=4, dim=2)
    flow = wannier_center_flow(atom, MomentumGrid((12, 12)))
    assert flow.verdict == 1
    assert np.max(np.abs(flow.centers - flow.centers[0])) < 1e-9


@pytest.mark.parametrize("name,params,expected", [
    ("kane-mele", KM_TOPO, -1),
    ("kane-mele", KM_TRIV, 1),
    ("bhz", {"m": 2.0}, -1),
])
def test_wannier_flow_matches_nu(name, params, expected, grid16):
    model = builtin(name, **params)
    flow = wannier_center_flow(model, grid16)
    assert flow.verdict == expected
    assert flow.verdict == kane_mele_nu(sewing_field(model, grid16))


def _wannier_lines(frames):
    """The lines of the oracle's half-zone slices, one per pumping momentum."""
    n2 = frames.shape[1]
    return [frames[:, (n2 // 2 + t) % n2] for t in range(n2 // 2 + 1)]


def _backward_walk_loop(line):
    """Wilson loop of one line (steps, n, m) as transport walks it: the links
    L_t = polar(F_t^dagger F_{t+1}) multiplied one at a time from L_{N-1}
    down to L_1, then L_0 in front and one last polar factor."""
    n, eye = len(line), np.eye(line.shape[-1], dtype=complex)

    def link(t):
        return polar_unitary(_mul(_dagger(line[t]), line[(t + 1) % n]))[0]

    loop = eye
    for t in range(n - 1, 0, -1):
        loop = _mul(link(t), loop)
    return polar_unitary(_dagger(eye) @ link(0) @ loop)[0]


def _forward_product_loop(line):
    """Wilson loop of one line (steps, n, m) as the product L_0 L_1 ... L_{N-1}
    of the links L_t = polar(F_t^dagger F_{t+1}), left to right."""
    n, loop = len(line), np.eye(line.shape[-1], dtype=complex)
    for t in range(n):
        loop = loop @ polar_unitary(np.conj(line[t]).T @ line[(t + 1) % n])[0]
    return loop


def _reference_wannier_flow(frames):
    """Per-line Wilson loops and largest-gap tracking, one slice at a time:
    the loop form the stacked oracle must reproduce exactly."""
    centers, gap_centers, crossings, prev = [], [], 0, None
    for line in _wannier_lines(frames):
        angles = np.sort(unitary_eig(_backward_walk_loop(line))[0])
        ext = np.concatenate([angles, [angles[0] + 2.0 * np.pi]])
        gaps = np.diff(ext)
        i = int(np.argmax(gaps))
        gap = float((ext[i] + 0.5 * float(gaps[i]) + np.pi) % (2.0 * np.pi) - np.pi)
        if prev is not None:
            arc = (gap - prev) % (2.0 * np.pi)
            rel = (angles - prev) % (2.0 * np.pi)
            crossings += int(np.sum((rel > 1e-12) & (rel < arc - 1e-12)))
        centers.append(angles)
        gap_centers.append(gap)
        prev = gap
    return np.array(centers), np.array(gap_centers), crossings


WANNIER_CASES = [
    ("kane-mele", KM_TOPO), ("kane-mele", KM_TRIV),
    ("bhz", {"m": 2.0}), ("bhz", {"m": -1.0}), ("atomic-limit", {"n": 8, "dim": 2}),
]


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("name,params", WANNIER_CASES)
def test_stacked_wannier_flow_equals_the_per_line_loops(name, params, n):
    model = builtin(name, **params)
    grid = MomentumGrid((n, n))
    frames = occupied_frame(model, grid).frames
    flow = wannier_center_flow(model, grid, frames=frames)
    centers, gap_centers, crossings = _reference_wannier_flow(frames)
    assert np.array_equal(flow.centers, centers)
    assert np.array_equal(flow.gap_centers, gap_centers)
    assert flow.crossings == crossings


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("name,params", WANNIER_CASES)
def test_wannier_centers_equal_the_forward_link_product(name, params, n):
    # the backward walk reassociates the product: the centres agree to
    # rounding on the circle, a centre at +-pi may change branch
    model = builtin(name, **params)
    grid = MomentumGrid((n, n))
    frames = occupied_frame(model, grid).frames
    flow = wannier_center_flow(model, grid, frames=frames)
    forward = np.array([unitary_eig(_forward_product_loop(line))[0]
                        for line in _wannier_lines(frames)])
    dist = np.abs(np.angle(np.exp(1j * (flow.centers[:, :, None] - forward[:, None, :]))))
    assert np.max(np.min(dist, axis=2)) < 1e-12
    assert np.max(np.min(dist, axis=1)) < 1e-12


def test_wannier_flow_makes_one_transport_call(monkeypatch, grid16):
    calls = []
    transport = z2.transport
    monkeypatch.setattr(z2, "transport", lambda f, u0: calls.append(f.shape) or transport(f, u0))
    wannier_center_flow(builtin("kane-mele", **KM_TOPO), grid16)
    assert calls == [(9, 16, 4, 2)]


def test_wannier_flow_guards_a_vanishing_link(grid16):
    km = builtin("kane-mele", **KM_TOPO)
    frames = occupied_frame(km, grid16).frames.copy()
    frames[3, 8] = frames[3, 8] @ np.array([[1.0, 0.0], [0.0, 0.0]])  # a rank-1 frame: s_min 0
    with pytest.raises(GaugeConstructionFailed, match=r"transport overlap .* below 1e-03"):
        wannier_center_flow(km, grid16, frames=frames)


def test_sewing_field_rejects_a_nan_frame(grid16):
    km = builtin("kane-mele", **KM_TOPO)
    frames = occupied_frame(km, grid16).frames.copy()
    frames[5, 7, 0, 1] = np.nan
    with pytest.raises(NotUnitary, match="nan"):
        sewing_field(km, grid16, frames=frames)


@pytest.mark.parametrize("name,params", [("kane-mele", KM_TOPO), ("bhz", {"m": 2.0})])
def test_sewing_unitarity_deviation_is_the_worst_frobenius_defect(name, params, grid16):
    sf = sewing_field(builtin(name, **params), grid16)
    w = sf.w
    dev = np.linalg.norm(
        np.einsum("...ij,...ik->...jk", np.conj(w), w) - np.eye(w.shape[-1]), axis=(-2, -1))
    assert sf.unitarity_deviation == float(dev.flat[int(np.argmax(dev))])


def test_wannier_flow_csv_export(grid16):
    flow = wannier_center_flow(builtin("kane-mele", **KM_TOPO), grid16)
    lines = flow.to_csv().splitlines()
    assert lines[0].startswith("k2,center0")
    assert len(lines) == 1 + len(flow.momenta)


@pytest.mark.parametrize("params,expected", [(KM_TOPO, -1), (KM_TRIV, 1)])
def test_boundary_circle_product_matches_nu(params, expected, grid16):
    sf = sewing_field(builtin("kane-mele", **params), grid16)
    assert boundary_index_2d(sf) == expected


def test_strong_and_weak_3d_phases():
    grid = MomentumGrid((10, 10, 10))
    strong = strong_and_weak_indices_3d(builtin("fu-kane-mele-3d", m=-2.0), grid)
    assert strong.strong == -1
    assert strong.weak == (1, 1, 1)
    trivial = strong_and_weak_indices_3d(builtin("fu-kane-mele-3d", m=-4.0), grid)
    assert trivial.strong == 1
    assert trivial.weak == (1, 1, 1)


def test_stacked_layers_give_weak_index():
    # decoupled kane-mele layers stacked along axis 3: strong trivial, one
    # weak index nontrivial
    km = builtin("kane-mele", **KM_TOPO)

    def ev(k, base=km.evaluate):
        return base(np.asarray(k)[..., :2])

    from topoindex.model import BlochFamily
    stacked = BlochFamily(dim=3, bands=4, occupied=2, evaluate=ev,
                          time_reversal=km.time_reversal, hopping_range=1,
                          name="stacked-km")
    idx = strong_and_weak_indices_3d(stacked, MomentumGrid((10, 10, 10)))
    assert idx.strong == 1
    assert idx.weak == (1, 1, -1)


def test_doubled_model_nu_trivial(grid16):
    km = builtin("kane-mele", **KM_TOPO)
    doubled = direct_sum(km, km)
    assert kane_mele_nu(sewing_field(doubled, grid16)) == 1


def test_smooth_sewing_field_is_smooth():
    from topoindex._gauge import smoothness_report
    from topoindex.linalg import check_unitary

    for name, params, sizes in (("kane-mele", KM_TOPO, (16, 16)),
                                ("fu-kane-mele-3d", {"m": -2.0}, (16, 16, 16))):
        sf = sewing_field(builtin(name, **params), MomentumGrid(sizes))
        assert sf.smooth_w is sf.smooth_w        # built once per field
        assert sf.smooth_w.shape == sf.w.shape
        assert smoothness_report(sf.smooth_w) < 1.6
        assert check_unitary(sf.smooth_w) < 1e-8


# --- guards of the fixed-point Pfaffian walk on synthetic skew fields ---

def _skew_field(z):
    """w = [[0, z], [-z, 0]] pointwise: pf w = z and det w = z^2."""
    z = np.asarray(z, dtype=complex)
    w = np.zeros(z.shape + (2, 2), dtype=complex)
    w[..., 0, 1], w[..., 1, 0] = z, -z
    return w


STAIRCASE = [(0, 2), (1, 2)]   # (2,2) -> (3,2) -> (0,2) -> (0,3) -> (0,0)


def test_pf_walk_constant_field_is_trivial():
    assert _pf_walk(_skew_field(np.ones((4, 4))), (2, 2), STAIRCASE, "test") == 1


@pytest.mark.parametrize("where", [(3, 2), (0, 3)])
def test_pf_walk_branch_jump_raises_at_its_grid_index(where):
    z = np.ones((4, 4), dtype=complex)
    z[where] = np.exp(0.9j)     # det phase step 1.8 > pi/2
    with pytest.raises(BranchTrackingFailed, match=re.escape(str(where))):
        _pf_walk(_skew_field(z), (2, 2), STAIRCASE, "test")


@pytest.mark.parametrize("where", [(2, 2), (0, 2), (0, 0)])
def test_pf_walk_small_pfaffian_raises_at_anchor_and_leg_ends(where):
    z = np.ones((4, 4))
    z[where] = 1e-7
    with pytest.raises(PfaffianNearZero):
        _pf_walk(_skew_field(z), (2, 2), STAIRCASE, "test")


def test_pf_walk_modulus_change_breaks_the_pf_ratio():
    z = np.ones((4, 4))
    z[3, 2], z[0, 2] = 1.5, 2.0    # det phase constant, |pf/sqrt(det)| = 2
    with pytest.raises(BranchTrackingFailed, match="pf ratio"):
        _pf_walk(_skew_field(z), (2, 2), STAIRCASE, "test")


def test_pf_walk_sign_flip_gives_minus_one():
    z = np.ones((4, 4))
    z[0, 2] = -1.0                 # pf flips while det w = 1 stays put
    w = _skew_field(z)
    assert _pf_walk(w, (2, 2), [(0, 2)], "test") == -1
    assert _pf_walk(w, (2, 2), STAIRCASE, "test") == -1


def test_pf_walk_follows_a_smooth_phase_winding():
    # pf winds from 1 to -1 in steps of pi/6; sqrt(det) follows, ratio +1
    z = np.exp(1j * np.pi * ((np.arange(12) - 6) % 12) / 6)
    assert _pf_walk(_skew_field(z), (6,), [(0, 6)], "test") == 1


# --- the stacked fixed-point sheets against the per-sheet loop they replaced ---

def loop_strong_and_weak(model, grid):
    """Eigh and sewing per sheet, then gauge and walks sheet by sheet, then
    the deviations sheet by sheet: the order of the per-sheet loop."""
    from topoindex.berry import gapped_hamiltonians
    from topoindex.linalg import eigh

    def sheets(cube):
        return [cube[:, :, cube.shape[2] // 2], cube[:, :, 0], cube[0], cube[:, 0]]

    frames = [eigh(hs).vectors[..., : model.occupied]
              for hs in sheets(gapped_hamiltonians(model, grid))]
    ws = [z2._sewing_matrices(f, model.time_reversal.unitary, 2) for f in frames]
    nu_0, nu_pi, nu_1, nu_2 = (z2._nu_smooth_sheet(z2._regauge(w, z2.smooth_frames_2d(f), 2))
                               for f, w in zip(frames, ws))
    deviations = [z2._sewing_deviations(w[None], [ks.__getitem__])
                  for w, ks in zip(ws, sheets(grid.points()))]
    return z2.Z2Indices3D(nu_0 * nu_pi, (nu_1, nu_2, nu_pi), *map(max, zip(*deviations)))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (BranchTrackingFailed, GaugeConstructionFailed) as exc:
        return type(exc).__name__, str(exc)


def _force_sheet_failures(monkeypatch, model, grid, gauge_sheet, walk_sheet):
    """Make the smooth gauge of sheet `gauge_sheet` and the Pfaffian walks of
    sheet `walk_sheet` (None: no sheet) fail, recognised by their input
    whether it comes alone or in a stack.  Returns the stack size of every
    gauge call."""
    from topoindex.berry import gapped_hamiltonians
    from topoindex.linalg import eigh

    h = gapped_hamiltonians(model, grid)
    cube_sheets = [h[:, :, h.shape[2] // 2], h[:, :, 0], h[0], h[:, 0]]
    frames = [eigh(hs).vectors[..., : model.occupied] for hs in cube_sheets]
    smooth = [z2._regauge(z2._sewing_matrices(f, model.time_reversal.unitary, 2),
                          z2.smooth_frames_2d(f), 2) for f in frames]
    gauge, walk, sizes = z2.smooth_frames_2d, z2._nu_smooth_sheet, []

    def failing_gauge(stack):
        sheets = stack if stack.ndim == 5 else stack[None]
        sizes.append(len(sheets))
        if gauge_sheet is not None and any(np.array_equal(f, frames[gauge_sheet])
                                           for f in sheets):
            raise GaugeConstructionFailed(f"forced in sheet {gauge_sheet}")
        return gauge(stack)

    def failing_walk(w):
        if walk_sheet is not None and np.array_equal(w, smooth[walk_sheet]):
            raise BranchTrackingFailed(f"forced in sheet {walk_sheet}", 1.0)
        return walk(w)

    monkeypatch.setattr(z2, "smooth_frames_2d", failing_gauge)
    monkeypatch.setattr(z2, "_nu_smooth_sheet", failing_walk)
    return sizes


@pytest.mark.parametrize("sizes", [(8, 8, 8), (8, 10, 12)], ids=["cubic", "three-shapes"])
@pytest.mark.parametrize("gauge_sheet,walk_sheet,expected", [
    (2, 0, "BranchTrackingFailed"),      # a later gauge, an earlier walk: the walk
    (1, 0, "BranchTrackingFailed"),      # the same, inside the first run of shapes
    (1, 3, "GaugeConstructionFailed"),   # an earlier gauge, a later walk: the gauge
    (1, 1, "GaugeConstructionFailed"),   # one sheet: its gauge comes before its walks
    (3, None, "GaugeConstructionFailed"),
    (None, 2, "BranchTrackingFailed"),
    (None, None, "ok")])
def test_stacked_sheets_raise_what_the_per_sheet_loop_raises(
        monkeypatch, sizes, gauge_sheet, walk_sheet, expected):
    model, grid = builtin("fu-kane-mele-3d", m=-2.0), MomentumGrid(sizes)
    calls = _force_sheet_failures(monkeypatch, model, grid, gauge_sheet, walk_sheet)
    got = _outcome(strong_and_weak_indices_3d, model, grid)
    stacked_calls = list(calls)
    assert got == _outcome(loop_strong_and_weak, model, grid)
    assert got[0] == expected
    # the first gauge call holds the first run of equal sheet shapes
    assert stacked_calls[0] == (4 if len(set(sizes)) == 1 else 2)


def test_sewing_deviations_name_the_first_non_unitary_field():
    w = np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
                        (3, 4, 4, 2, 2)).copy()
    w[1, 2, 1] *= 1.0 + 1e-6      # the first non-unitary field, mildly
    w[2, 0, 3] *= 1.5             # a later field, far worse
    locates = [lambda idx, f=f: (f,) + idx for f in range(3)]
    with pytest.raises(NotUnitary) as got:
        z2._sewing_deviations(w, locates)
    with pytest.raises(NotUnitary) as ref:
        for f in range(3):
            z2._sewing_deviations(w[f:f + 1], locates[f:f + 1])
    assert str(got.value) == str(ref.value) and "(1, 2, 1)" in str(got.value)
    w[1, 2, 1] = w[2, 0, 3] = w[0, 0, 0]
    assert z2._sewing_deviations(w, locates) == (0.0, 0.0, 0.0)
