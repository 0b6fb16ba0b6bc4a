"""The polar kernel and link-product transport against their references.

`_gauge.polar_unitary` must agree with the SVD polar factor and smallest
singular value, and stay unitary on singular blocks.  The smooth frames
G u, for the gauge u of `berry.smooth_gauge`, must agree with the per-step
Löwdin transport of projected frames kept below as the reference, and raise
the same overlap guard.  The smooth sewing matrices, re-gauged by u, must
agree with those rebuilt from the frames G u.  A stack of sheets must get,
bit for bit, the gauge each sheet gets alone, and the batched phase unwrap
the values and errors of the row-by-row loop it replaced.  The stacked
holonomy eigenbases and homotopy evaluations must equal, bit for bit, the
per-matrix and per-t calls kept below as references.
"""

import warnings

import numpy as np
import pytest

from topoindex import _gauge
from topoindex.berry import OccupiedFrame, occupied_frame, smooth_gauge
from topoindex.errors import GaugeConstructionFailed
from topoindex.model import MomentumGrid, _smoothstep, builtin, direct_sum
from topoindex.z2 import _fixed_point_sheets, _sewing_matrices, sewing_field


# --- reference: Löwdin transport of projected frames, one step at a time ---

def ref_lowdin(frame):
    u, s, vh = np.linalg.svd(frame, full_matrices=False)
    return u @ vh, float(np.min(s[..., -1]))


def ref_polar(m):
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def ref_transport(frame, projector):
    out, smin = ref_lowdin(projector @ frame)
    if smin < _gauge.OVERLAP_MIN:
        raise GaugeConstructionFailed(
            f"transport overlap {smin:.2e} below {_gauge.OVERLAP_MIN:.0e}")
    return out


def ref_projectors(frames):
    return np.einsum("...im,...jm->...ij", frames, np.conj(frames))


def ref_transport_along_last_axis(out, proj):
    n = out.shape[-3]
    for i in range(1, n):
        out[..., i, :, :] = ref_transport(out[..., i - 1, :, :], proj[..., i, :, :])
    arrived = ref_transport(out[..., n - 1, :, :], proj[..., 0, :, :])
    return ref_polar(np.conj(np.swapaxes(out[..., 0, :, :], -1, -2)) @ arrived)


def ref_circle_transport(projectors, start):
    n_pts = projectors.shape[0]
    out = np.empty((n_pts,) + start.shape, dtype=complex)
    out[0] = start
    angles, q = _gauge.unitary_eig(ref_transport_along_last_axis(out, projectors))
    # the branch rule of _gauge.circle_transport, see test_gauge_is_stable_at_a_pi_holonomy
    angles = np.where(angles <= -np.pi + 1e-8, angles + 2.0 * np.pi, angles)
    for t in range(n_pts):
        out[t] = out[t] @ q @ np.diag(np.exp(-1j * angles * t / n_pts)) @ np.conj(q).T
    return out


def ref_sweep_and_close(out, proj):
    n = out.shape[-3]
    mismatch = ref_transport_along_last_axis(out, proj)
    homotopy = _gauge.LoopContraction(np.conj(np.swapaxes(mismatch, -1, -2)))
    for i in range(n):
        out[..., i, :, :] = out[..., i, :, :] @ homotopy.at(_smoothstep(i / n))
    return out


def ref_smooth_frames_2d(frames):
    proj = ref_projectors(frames)
    out = np.empty_like(frames)
    out[:, 0] = ref_circle_transport(proj[:, 0], frames[0, 0])
    return ref_sweep_and_close(out, proj)


def ref_smooth_frames(frames):
    if frames.ndim == 4:
        return ref_smooth_frames_2d(frames)
    out = np.empty_like(frames)
    out[:, :, 0] = ref_smooth_frames_2d(frames[:, :, 0])
    return ref_sweep_and_close(out, ref_projectors(frames))


# --- the kernel ---

def _unitaries(rng, count, k):
    z = rng.normal(size=(count, k, k)) + 1j * rng.normal(size=(count, k, k))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polar_kernel_matches_the_svd(k):
    rng = np.random.default_rng(100 + k)
    count = 200
    smin = np.logspace(-3, 0, count)
    s = np.sort(np.concatenate([smin[:, None], rng.uniform(smin[:, None], 1.0, (count, k - 1))],
                               axis=1), axis=1)[:, ::-1]
    m = _unitaries(rng, count, k) @ (s[..., None] * _unitaries(rng, count, k))
    u, got_smin = _gauge.polar_unitary(m.reshape(10, 20, k, k))
    su, ss, svh = np.linalg.svd(m)
    assert np.max(np.abs(u.reshape(count, k, k) - su @ svh)) < 1e-12
    assert np.max(np.abs(got_smin.reshape(count) - ss[:, -1])) < 1e-12


def test_polar_kernel_is_unitary_on_singular_blocks():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    blocks = np.array([
        np.zeros((2, 2)),
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1j], [0.0, 0.0]],
        np.outer(x, np.conj(y)),
        [[1e-300, 0.0], [0.0, 0.0]],
    ], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, smin = _gauge.polar_unitary(blocks)
        u1, smin1 = _gauge.polar_unitary(np.zeros((3, 1, 1), dtype=complex))
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(smin))
    assert np.max(np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(2))) < 1e-12
    assert np.array_equal(u[0], np.eye(2)) and np.array_equal(u1, np.ones((3, 1, 1)))
    assert np.max(np.abs(smin)) < 1e-12 and np.array_equal(smin1, np.zeros(3))
    # U^dagger M is the positive factor of the polar decomposition
    p = np.conj(np.swapaxes(u, -1, -2)) @ blocks
    assert np.max(np.abs(p - np.conj(np.swapaxes(p, -1, -2)))) < 1e-12
    assert np.min(np.linalg.eigvalsh(p)) > -1e-12


# --- the transport ---

FKM_PHASES = {"trivial": -3.5, "strong-": -2.0, "weak": 0.0, "strong+": 2.0}
FIELDS = {
    "kane-mele": (builtin("kane-mele", t=1.0, lso=0.06, lv=0.1), (16, 16)),
    "bhz": (builtin("bhz", m=2.0), (16, 16)),
    "kane-mele+bhz": (direct_sum(builtin("kane-mele"), builtin("bhz", m=-1.0)), (12, 12)),
    **{f"fkm3d-{phase}": (builtin("fu-kane-mele-3d", m=m), (10, 10, 10))
       for phase, m in FKM_PHASES.items()},
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_smooth_frames_match_the_lowdin_reference(name):
    model, sizes = FIELDS[name]
    frame = occupied_frame(model, MomentumGrid(sizes))
    got = frame.frames @ smooth_gauge(frame)
    assert np.max(np.abs(got - ref_smooth_frames(frame.frames))) < 1e-10


@pytest.mark.parametrize("name", list(FIELDS))
def test_smooth_sewing_matrices_match_those_of_the_smooth_frames(name):
    model, sizes = FIELDS[name]
    grid = MomentumGrid(sizes)
    sf = sewing_field(model, grid)
    smooth = sf.frames @ smooth_gauge(OccupiedFrame(grid, sf.frames))
    rebuilt = _sewing_matrices(smooth, model.time_reversal.unitary, grid.dim)
    assert np.max(np.abs(sf.smooth_w - rebuilt)) < 1e-12


def _near_orthogonal_field(where):
    """Constant frames e0, e1 of C^4 on an 8 x 8 grid, except at `where`,
    whose frame overlaps them only by about 1e-4."""
    frames = np.zeros((8, 8, 4, 2), dtype=complex)
    frames[..., 0, 0] = frames[..., 1, 1] = 1.0
    bad = np.zeros((4, 2), dtype=complex)
    bad[2, 0] = bad[3, 1] = 1.0
    bad[0, 0] = bad[1, 1] = 1e-4
    frames[where] = bad / np.linalg.norm(bad, axis=0)
    return frames


@pytest.mark.parametrize("where", [(3, 5), (0, 0), (5, 0), (2, 7)])
def test_a_near_orthogonal_step_raises_like_the_reference(where):
    frames = _near_orthogonal_field(where)
    with pytest.raises(GaugeConstructionFailed, match=r"transport overlap .* below 1e-03") as got:
        smooth_gauge(OccupiedFrame(MomentumGrid((8, 8)), frames))
    with pytest.raises(GaugeConstructionFailed) as ref:
        ref_smooth_frames(frames)
    assert str(got.value) == str(ref.value)


def test_gauge_is_stable_at_a_pi_holonomy():
    # Every strong+ Fu-Kane-Mele circle k2 = k3 = 0 has the holonomy -1 on its
    # Kramers pair, whose eigenphases rounding splits into +-pi; a 1e-12
    # rephasing of the frames must not move the gauge or the winding.
    grid = MomentumGrid((10, 10, 10))
    frames = occupied_frame(builtin("fu-kane-mele-3d", m=2.0), grid).frames
    phases = np.random.default_rng(3).normal(size=frames.shape[:-2])
    rephased = frames * np.exp(1e-12j * phases)[..., None, None]
    a = frames @ smooth_gauge(OccupiedFrame(grid, frames))
    b = rephased @ smooth_gauge(OccupiedFrame(grid, rephased))
    assert np.max(np.abs(a - b)) < 1e-10


# --- stacks of sheets ---

@pytest.mark.parametrize("sizes", [(8, 8, 8), (8, 10, 12)], ids=["cubic", "three-shapes"])
@pytest.mark.parametrize("m", [-3.6, -2.0, 0.3, 2.1], ids=list(FKM_PHASES))
def test_stacked_sheet_gauges_equal_the_gauge_of_each_sheet(m, sizes):
    frames = occupied_frame(builtin("fu-kane-mele-3d", m=m), MomentumGrid(sizes)).frames
    stacks = _fixed_point_sheets(frames)
    assert [len(s) for s in stacks] == ([4] if len(set(sizes)) == 1 else [2, 1, 1])
    for stack in stacks:
        got = _gauge.smooth_frames_2d(stack)
        for sheet, u in zip(stack, got):
            assert np.array_equal(u, _gauge.smooth_frames_2d(sheet))


# --- reference: the phase unwrap one circle, then one torus row, at a time ---

def ref_unwrap_1d(z, label):
    steps = np.angle(z / np.roll(z, 1))
    if np.max(np.abs(steps)) > 2.5:
        raise GaugeConstructionFailed(f"{label}: phase steps too large to unwrap")
    total = float(np.sum(steps))
    if abs(total) > np.pi:
        raise GaugeConstructionFailed(
            f"{label}: determinant winding {total / (2 * np.pi):+.2f} is nonzero")
    phi = np.angle(z[0]) + np.concatenate([[0.0], np.cumsum(steps[1:])])
    phi -= total * np.arange(len(z)) / len(z)
    return phi


def ref_unwrap_torus(z, label):
    phi = np.empty(z.shape)
    phi[:, 0] = ref_unwrap_1d(z[:, 0], label + " (edge)")
    for i in range(z.shape[0]):
        col = ref_unwrap_1d(z[i, :] / z[i, 0], label + f" (column {i})")
        phi[i, :] = phi[i, 0] + col - col[0]
    if np.max(np.abs(phi - np.roll(phi, 1, axis=0))) > 2.5:
        raise GaugeConstructionFailed(f"{label}: unwrapped sheet is discontinuous")
    return phi


def unwrap_outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GaugeConstructionFailed as exc:
        return "GaugeConstructionFailed", str(exc)


def _torus_phases(kind):
    """exp(i phi) on a 12 x 10 torus: smooth, or with one defect."""
    k1, k2 = np.meshgrid(np.arange(12) * 2 * np.pi / 12, np.arange(10) * 2 * np.pi / 10,
                         indexing="ij")
    phi = 0.7 * np.sin(k1) + 0.4 * np.cos(k2 + 2 * k1) + 0.1
    if kind == "row-winding":     # rows 5 and 8 wind once along k2
        phi[[5, 8]] += k2[[5, 8]]
    elif kind == "row-jump":      # a step of 2.8 inside rows 3 and 7
        phi[[3, 7], 4:] += 2.8
    elif kind == "edge-winding":  # the k2 = 0 edge winds once along k1
        phi += k1
    elif kind == "discontinuous":  # row 6 leaves its neighbours by up to 2.85
        phi[6] += 3.0 * np.sin(k2[6])
    return np.exp(1j * phi)


@pytest.mark.parametrize("kind", ["smooth", "row-winding", "row-jump", "edge-winding",
                                  "discontinuous"])
def test_torus_unwrap_matches_the_row_loop(kind):
    z = _torus_phases(kind)
    got = unwrap_outcome(_gauge._unwrap, z, "test")
    ref = unwrap_outcome(ref_unwrap_torus, z, "test")
    assert got[0] == ref[0] == ("ok" if kind == "smooth" else "GaugeConstructionFailed")
    if got[0] == "ok":
        assert np.array_equal(got[1], ref[1])
    else:
        assert got[1] == ref[1]
    # a stack of circles names its first failing one, as the loop over them does
    circles = np.concatenate([z, _torus_phases("smooth")])
    got = unwrap_outcome(_gauge._unwrap_1d, circles, "circle {}")
    refs = [unwrap_outcome(ref_unwrap_1d, c, f"circle {i}") for i, c in enumerate(circles)]
    bad = [r for r in refs if r[0] != "ok"]
    if bad:
        assert got == bad[0]
    else:
        assert got[0] == "ok" and np.array_equal(got[1], np.array([r[1] for r in refs]))


# --- reference: unitary_eig one matrix, and the homotopy one t, at a time ---

REF_MUS = (0.7390851332151607, 0.3183098861837907, 1.2020569031595943, 0.0)


def ref_unitary_eig(u):
    a = 0.5 * (u + u.conj().T)
    b = (u - u.conj().T) / 2j
    norm = max(1.0, float(np.linalg.norm(u)))
    for mu in REF_MUS:
        _, q = np.linalg.eigh(a + mu * b)
        d = q.conj().T @ u @ q
        off = d - np.diag(np.diag(d))
        if np.linalg.norm(off) < 1e-9 * norm:
            return np.angle(np.diag(d)), q
    raise GaugeConstructionFailed("could not diagonalize a unitary holonomy")


def eig_outcome(fn, u):
    try:
        return fn(u)
    except GaugeConstructionFailed as exc:
        return str(exc)


def _late_mu_unitary(rng):
    """A 3 x 3 unitary with two eigenphases that a + mu b, at the first trial
    mu, maps to one eigenvalue: its eigenbasis there mixes them."""
    phi = np.arctan(REF_MUS[0])
    phases = np.array([0.3, 2.0 * phi - 0.3, -1.9])
    q = _unitaries(rng, 1, 3)[0]
    return q @ np.diag(np.exp(1j * phases)) @ np.conj(q).T


@pytest.mark.parametrize("case", ["random", "kramers", "late-mu", "one-fails"])
def test_stacked_unitary_eig_matches_the_per_matrix_call(case):
    rng = np.random.default_rng(31)
    m = 2 if case == "kramers" else 3
    stack = _unitaries(rng, 12, m).reshape(3, 4, m, m)
    if case == "kramers":     # exact degeneracies: +-1, a scalar phase, -1 twice
        stack[0, :2] = [np.eye(2), -np.eye(2)]
        stack[1, 3] = np.exp(0.4j) * np.eye(2)
    elif case == "late-mu":
        u = stack[1, 2] = stack[2, 0] = _late_mu_unitary(rng)
        _, q = np.linalg.eigh(0.5 * (u + u.conj().T) + REF_MUS[0] * (u - u.conj().T) / 2j)
        d = q.conj().T @ u @ q
        assert np.linalg.norm(d - np.diag(np.diag(d))) > 1e-3   # the first trial fails
    elif case == "one-fails":  # not normal: no unitary basis diagonalizes it
        stack[2, 1] = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    refs = [eig_outcome(ref_unitary_eig, u) for u in stack.reshape(-1, m, m)]
    got = eig_outcome(_gauge.unitary_eig, stack)
    if case == "one-fails":
        assert isinstance(refs[9], str) and "could not diagonalize" in refs[9]
        assert got == refs[9] and not any(isinstance(r, str) for r in refs[:9] + refs[10:])
        return
    angles, q = got
    assert angles.shape == (3, 4, m) and q.shape == (3, 4, m, m)
    assert angles.reshape(-1, m).tobytes() == np.array([r[0] for r in refs]).tobytes()
    assert q.reshape(-1, m, m).tobytes() == np.array([r[1] for r in refs]).tobytes()
    one = _gauge.unitary_eig(stack[1, 2])    # a single matrix is a stack of one
    assert one[0].tobytes() == refs[6][0].tobytes() and one[1].tobytes() == refs[6][1].tobytes()


def ref_at(homotopy, t):
    """LoopContraction.at for one t, as it was evaluated before the stack."""
    h = homotopy
    if t <= 0.0:
        eye = np.zeros(h.shape, dtype=complex)
        eye[...] = np.eye(h.m)
        return eye
    if t >= 1.0:
        return h.v.copy()
    if h.mode == "phase":
        return np.exp(1j * t * h.phi)[..., None, None] * np.ones_like(h.v)
    if h.mode == "quaternion":
        if t <= 0.5:
            q = np.broadcast_to(_gauge._chord(h.identity_q, h.rho, 2.0 * t), h.q.shape)
        else:
            q = _gauge._chord(np.broadcast_to(h.rho, h.q.shape), h.q, 2.0 * t - 1.0)
        return _gauge._quat_to_su2(q) * np.exp(0.5j * t * h.phi)[..., None, None]
    return np.stack([g.at(t) for g in h.general]).reshape(h.shape)


def _unitary_family(m, sheets, n, seed):
    """A smooth periodic unitary family (sheets, n, m, m) over a circle,
    exp(i H(theta)) with zero determinant winding."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(n) / n
    herm = rng.normal(size=(3, m, m)) + 1j * rng.normal(size=(3, m, m))
    herm = 0.25 * (herm + np.conj(np.swapaxes(herm, -1, -2)))
    out = []
    for s in range(sheets):
        coeff = np.stack([np.ones(n), np.cos(theta + s), np.sin(2 * theta - s)], axis=-1)
        h = np.einsum("nc,cij->nij", coeff, herm)
        w, v = np.linalg.eigh(h)
        out.append(v @ (np.exp(1j * w)[..., None] * np.conj(np.swapaxes(v, -1, -2))))
    return np.array(out)


@pytest.mark.parametrize("m, sheets, mode", [(1, 3, "phase"), (2, 3, "quaternion"),
                                              (3, 2, "general")])
def test_homotopy_at_an_array_of_t_matches_the_scalar_calls(m, sheets, mode):
    homotopy = _gauge.LoopContraction(_unitary_family(m, sheets, 10, 40 + m), batch=1)
    assert homotopy.mode == mode
    ts = np.concatenate([_smoothstep(np.arange(12) / 12), [0.25, 0.5, 0.75, 1.0, 1.3, -0.2, 0.0]])
    got = homotopy.at(ts)
    assert got.shape == (sheets, 10, len(ts), m, m)
    ref = np.stack([ref_at(homotopy, t) for t in ts], axis=-3)
    assert got.tobytes() == ref.tobytes()
    for t in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert homotopy.at(t).tobytes() == ref_at(homotopy, t).tobytes()


def test_one_stacked_eigenbasis_call_per_circle_stack(monkeypatch):
    from topoindex import z2

    calls, original = [], _gauge.unitary_eig

    def counted(u):
        calls.append(u.shape)
        return original(u)

    frames = occupied_frame(builtin("kane-mele"), MomentumGrid((12, 12))).frames
    for module in (_gauge, z2):
        monkeypatch.setattr(module, "unitary_eig", counted)
    _gauge.circle_transport(frames)
    assert calls == [(12, 2, 2)]
    calls.clear()
    z2.wannier_center_flow(builtin("kane-mele"), MomentumGrid((12, 12)), frames)
    assert calls == [(7, 2, 2)]
