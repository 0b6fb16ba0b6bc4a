"""Smooth periodic gauge construction for occupied-band frames.

Parallel transport gives gauges that are smooth along lines; periodicity
and cross-line smoothness are restored by explicit null-homotopies of the
wrap-mismatch unitaries.  All the obstructions vanish for the families
handled here (every 2D slice Chern number is zero for time-reversal
invariant models), so the construction either succeeds or fails loudly
with GaugeConstructionFailed.

Rank-2 blocks (the generic Kramers case) are contracted through the
quaternion 3-sphere; rank-1 through the circle.  Higher ranks are only
supported when the mismatch loop is close to constant, which covers
atomic-limit-like inputs.
"""

from __future__ import annotations

import functools

import numpy as np

from ._stencil import neighbour_overlaps
from .errors import GaugeConstructionFailed
from .model import _smoothstep

OVERLAP_MIN = 1e-3


def lowdin(frame: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormalize the columns of a frame or a stack (..., n, m) of
    frames; returns (frames, smallest singular value over the stack)."""
    u, s, vh = np.linalg.svd(frame, full_matrices=False)
    return u @ vh, float(np.min(s[..., -1]))


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a matrix or of a stack (..., m, m)."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and an orthonormal eigenbasis of a unitary matrix.

    Diagonalizes Hermitian combinations of the real and imaginary parts,
    which is stable under the exact degeneracies that Kramers pairs
    produce (np.linalg.eig is not).
    """
    a = 0.5 * (u + u.conj().T)
    b = (u - u.conj().T) / 2j
    norm = max(1.0, float(np.linalg.norm(u)))
    for mu in (0.7390851332151607, 0.3183098861837907, 1.2020569031595943, 0.0):
        _, q = np.linalg.eigh(a + mu * b)
        d = q.conj().T @ u @ q
        off = d - np.diag(np.diag(d))
        if np.linalg.norm(off) < 1e-9 * norm:
            return np.angle(np.diag(d)), q
    raise GaugeConstructionFailed("could not diagonalize a unitary holonomy")


def transport(frame: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """Parallel transport a frame (or a stack of frames) onto the range of
    the next projector(s); the overlap guard holds for every frame."""
    out, smin = lowdin(projector @ frame)
    if smin < OVERLAP_MIN:
        raise GaugeConstructionFailed(
            f"transport overlap {smin:.2e} below {OVERLAP_MIN:.0e}")
    return out


def frame_projectors(frames: np.ndarray) -> np.ndarray:
    """P(k) = F(k) F(k)^dagger for a frame field (..., n, m)."""
    return np.einsum("...im,...jm->...ij", frames, np.conj(frames))


def _transport_along_last_axis(out: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Transport the first frames out[..., 0, :, :] along the last grid
    axis into `out`, in place; returns the wrap mismatch
    polar(F_0^dagger F_arrived) of the frame transported back to the start."""
    n = out.shape[-3]
    for i in range(1, n):
        out[..., i, :, :] = transport(out[..., i - 1, :, :], proj[..., i, :, :])
    arrived = transport(out[..., n - 1, :, :], proj[..., 0, :, :])
    return polar_unitary(np.conj(np.swapaxes(out[..., 0, :, :], -1, -2)) @ arrived)


def circle_transport(projectors: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Smooth gauge around one circle by transport from ``start``.

    The loop holonomy is spread as Hol^{-t/N} so the gauge closes
    periodically; the eigenphase branch is immaterial for the invariants
    built on top (it drops out of any closed chain of circles).
    """
    n_pts = projectors.shape[0]
    out = np.empty((n_pts,) + start.shape, dtype=complex)
    out[0] = start
    angles, q = unitary_eig(_transport_along_last_axis(out, projectors))
    for t in range(n_pts):
        frac = q @ np.diag(np.exp(-1j * angles * t / n_pts)) @ np.conj(q).T
        out[t] = out[t] @ frac
    return out


# --- null homotopies of wrap mismatches ---

def _unwrap_1d(z: np.ndarray, label: str) -> np.ndarray:
    """Continuous periodic phase of a winding-zero circle of unit complex
    numbers."""
    steps = np.angle(z / np.roll(z, 1))
    if np.max(np.abs(steps)) > 2.5:
        raise GaugeConstructionFailed(f"{label}: phase steps too large to unwrap")
    total = float(np.sum(steps))
    if abs(total) > np.pi:
        raise GaugeConstructionFailed(
            f"{label}: determinant winding {total / (2 * np.pi):+.2f} is nonzero")
    phi = np.angle(z[0]) + np.concatenate([[0.0], np.cumsum(steps[1:])])
    phi -= total * np.arange(len(z)) / len(z)  # remove the float closure defect
    return phi


def _unwrap(z: np.ndarray, label: str) -> np.ndarray:
    """Continuous periodic phase on a circle or torus of parameters."""
    if z.ndim == 1:
        return _unwrap_1d(z, label)
    if z.ndim == 2:
        phi = np.empty(z.shape)
        phi[:, 0] = _unwrap_1d(z[:, 0], label + " (edge)")
        for i in range(z.shape[0]):
            col = _unwrap_1d(z[i, :] / z[i, 0], label + f" (column {i})")
            phi[i, :] = phi[i, 0] + col - col[0]
        jumps = np.abs(phi - np.roll(phi, 1, axis=0))
        if np.max(jumps) > 2.5:
            raise GaugeConstructionFailed(f"{label}: unwrapped sheet is discontinuous")
        return phi
    raise GaugeConstructionFailed("unwrap supports 1D and 2D parameter spaces")


def _su2_to_quat(s: np.ndarray) -> np.ndarray:
    alpha = s[..., 0, 0]
    beta = s[..., 0, 1]
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=-1)


def _quat_to_su2(q: np.ndarray) -> np.ndarray:
    alpha = q[..., 0] + 1j * q[..., 1]
    beta = q[..., 2] + 1j * q[..., 3]
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = alpha
    out[..., 0, 1] = beta
    out[..., 1, 0] = -np.conj(beta)
    out[..., 1, 1] = np.conj(alpha)
    return out


@functools.cache
def _basepoint_candidates(kind: str, m: int) -> np.ndarray:
    """The seeded unit candidates of a basepoint scan in scan order,
    read-only: quaternions for "quaternion", complex m-vectors otherwise."""
    if kind == "quaternion":
        rng = np.random.default_rng(20240831)
        raw = [np.array([1.0, 0.0, 0.0, 0.0])] + list(rng.normal(size=(256, 4)))
    else:
        rng = np.random.default_rng(46521)
        raw = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(256)]
    units = np.array([c / np.linalg.norm(c) for c in raw])
    if kind == "quaternion":
        units[units[:, 0] < -0.6] *= -1.0  # away from the antipode of the identity
    units.setflags(write=False)
    return units


def _pick_basepoint(family: np.ndarray, kind: str) -> tuple[np.ndarray, float]:
    """The first candidate c with the largest margin min_p |family_p + c|
    (distance from the family's antipodes); returns (c, margin).

    `kind` is "quaternion" (rank-2 contraction through S^3) or "complex"
    (a column chain).  Candidates go in blocks of max(1, 16384 // N) for
    N family points, so the (block, N, m) temporary holds about 16384
    vectors (512 KB for quaternions).  A best margin below 0.2 raises
    GaugeConstructionFailed.
    """
    flat = family.reshape(-1, family.shape[-1])
    cands = _basepoint_candidates(kind, flat.shape[-1])
    block = max(1, 16384 // len(flat))
    margins = np.concatenate([
        np.min(np.linalg.norm(flat + cands[i:i + block, None], axis=-1), axis=1)
        for i in range(0, len(cands), block)])
    best = int(np.argmax(margins))  # the first maximum, as a strict > scan keeps
    if margins[best] < 0.2:
        what = "contraction" if kind == "quaternion" else "column-contraction"
        raise GaugeConstructionFailed(
            f"no {what} basepoint with margin > 0.2 (best {margins[best]:.3f})")
    return cands[best].copy(), float(margins[best])


def _chord(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Normalized straight-line path on the sphere from a to b."""
    x = (1.0 - s) * a + s * b
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.min(norms) < 1e-9:
        raise GaugeConstructionFailed("contraction chord passed through zero")
    return x / norms


def _minimal_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary mapping unit vector a to unit vector b, identity on the
    orthogonal complement of their span; vectorized over leading axes."""
    m = a.shape[-1]
    z = np.einsum("...i,...i->...", np.conj(a), b)
    u = b - z[..., None] * a
    nu = np.linalg.norm(u, axis=-1)
    safe = np.maximum(nu, 1e-300)
    uhat = u / safe[..., None]
    eye = np.broadcast_to(np.eye(m), a.shape[:-1] + (m, m))
    aa = np.einsum("...i,...j->...ij", a, np.conj(a))
    uu = np.einsum("...i,...j->...ij", uhat, np.conj(uhat))
    au = np.einsum("...i,...j->...ij", a, np.conj(uhat))
    ua = np.einsum("...i,...j->...ij", uhat, np.conj(a))
    rot = (eye - aa - uu
           + z[..., None, None] * aa
           + np.conj(z)[..., None, None] * uu
           + nu[..., None, None] * ua
           - nu[..., None, None] * au)
    # degenerate case b = z a: pure phase rotation in the span of a
    small = nu < 1e-12
    if np.any(small):
        phase_rot = eye + (z[..., None, None] - 1.0) * aa
        rot = np.where(small[..., None, None], phase_rot, rot)
    return rot


class _ColumnChain:
    """Homotopy of one column along a two-leg chord (start -> rho -> e0),
    realized as an ordered product of minimal rotations."""

    steps = 48

    def __init__(self, column: np.ndarray):
        self.c0 = column
        self.m = column.shape[-1]
        self.rho, self.basepoint_margin = _pick_basepoint(column, "complex")
        self.e0 = np.zeros(self.m)
        self.e0[0] = 1.0
        if np.linalg.norm(self.rho + self.e0) < 0.2:
            self.rho = -self.rho  # keep the second leg away from the antipode
        self._k = self.steps + 1   # no product accumulated yet

    def _point(self, t: float) -> np.ndarray:
        if t <= 0.5:
            return _chord(self.c0, np.broadcast_to(self.rho, self.c0.shape), 2.0 * t)
        rho = np.broadcast_to(self.rho, self.c0.shape)
        e0 = np.broadcast_to(self.e0, self.c0.shape)
        return _chord(rho, e0, 2.0 * t - 1.0)

    def rotation(self, t: float) -> np.ndarray:
        """Unitary U_t with U_t c0 = c_t, smooth in the parameters, for t in
        [0, 1]: the product of the whole steps below t, then one partial
        step.  Growing t only extends the product; a smaller t restarts it."""
        k = int(np.floor(t * self.steps))
        if k < self._k:   # (re)start at c0 with the identity
            self._k, self._node = 0, self.c0
            self._product = np.tile(np.eye(self.m), self.c0.shape[:-1] + (1, 1))
        while self._k < k:
            nxt = self._point((self._k + 1) / self.steps)
            rot = _minimal_rotation(self._node, nxt)
            self._product = np.einsum("...ij,...jk->...ik", rot, self._product)
            self._k, self._node = self._k + 1, nxt
        if t * self.steps > k:
            rot = _minimal_rotation(self._node, self._point(t))
            return np.einsum("...ij,...jk->...ik", rot, self._product)
        return self._product


class _GeneralContraction:
    """Null homotopy of a winding-zero unitary family of rank 2 or more, by
    recursive contraction of the leading column."""

    def __init__(self, v: np.ndarray):
        self.m = v.shape[-1]
        self.phi = _unwrap(np.linalg.det(v), f"rank-{self.m} mismatch determinant")
        s = v * np.exp(-1j * self.phi / self.m)[..., None, None]
        self.chain = _ColumnChain(s[..., :, 0])
        u1 = self.chain.rotation(1.0)
        reduced = np.einsum("...ij,...jk->...ik", u1, s)
        err = max(float(np.max(np.abs(reduced[..., 0, 1:]))),
                  float(np.max(np.abs(reduced[..., 1:, 0]))))
        if err > 1e-8:
            raise GaugeConstructionFailed(
                f"column reduction left residue {err:.2e}")
        self.child = None
        block = reduced[..., 1:, 1:]
        if self.m - 1 == 1:
            self.tail_phase = _unwrap(block[..., 0, 0], "final phase")
        else:
            self.child = _GeneralContraction(block)

    def at(self, t: float) -> np.ndarray:
        out = np.zeros(self.phi.shape + (self.m, self.m), dtype=complex)
        if self.child is not None:
            inner = self.child.at(t)
        else:
            inner = np.exp(1j * t * self.tail_phase)[..., None, None]
        out[..., 0, 0] = 1.0
        out[..., 1:, 1:] = inner
        u_t = self.chain.rotation(t)
        u_dag = np.conj(np.swapaxes(u_t, -1, -2))
        out = np.einsum("...ij,...jk->...ik", u_dag, out)
        return out * np.exp(1j * t * self.phi / self.m)[..., None, None]


class LoopContraction:
    """Explicit homotopy H(t) with H(0) = I and H(1) = V for a periodic
    unitary family V over a circle or torus with zero det windings."""

    def __init__(self, v: np.ndarray):
        v = np.asarray(v, dtype=complex)
        self.shape = v.shape
        self.m = v.shape[-1]
        self.v = v
        if self.m == 1:
            self.phi = _unwrap(v[..., 0, 0], "rank-1 mismatch")
            self.mode = "phase"
        elif self.m == 2:
            det = np.linalg.det(v)
            self.phi = _unwrap(det, "rank-2 mismatch determinant")
            su2 = v * np.exp(-0.5j * self.phi)[..., None, None]
            self.q = _su2_to_quat(su2)
            residual = np.max(np.abs(_quat_to_su2(self.q) - su2))
            if residual > 1e-8:
                raise GaugeConstructionFailed(
                    f"mismatch not special-unitary after det removal ({residual:.2e})")
            self.rho, self.basepoint_margin = _pick_basepoint(self.q, "quaternion")
            self.identity_q = np.array([1.0, 0.0, 0.0, 0.0])
            self.mode = "quaternion"
        else:
            self.general = _GeneralContraction(v)
            self.mode = "general"

    def at(self, t: float) -> np.ndarray:
        """The homotopy evaluated at t in [0, 1], shaped like V."""
        if t <= 0.0:
            eye = np.zeros(self.shape, dtype=complex)
            eye[...] = np.eye(self.m)
            return eye
        if t >= 1.0:
            return self.v.copy()
        if self.mode == "phase":
            return np.exp(1j * t * self.phi)[..., None, None] * np.ones_like(self.v)
        if self.mode == "quaternion":
            if t <= 0.5:
                q = _chord(self.identity_q, self.rho, 2.0 * t)
                q = np.broadcast_to(q, self.q.shape)
            else:
                rho = np.broadcast_to(self.rho, self.q.shape)
                q = _chord(rho, self.q, 2.0 * t - 1.0)
            return _quat_to_su2(q) * np.exp(0.5j * t * self.phi)[..., None, None]
        return self.general.at(t)


def _sweep_and_close(out: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Transport the first sheet out[..., 0, :, :] along the last grid
    axis, then spread the contraction of the wrap mismatch over that axis
    so the gauge closes periodically; fills `out` in place."""
    n = out.shape[-3]
    mismatch = _transport_along_last_axis(out, proj)
    homotopy = LoopContraction(np.conj(np.swapaxes(mismatch, -1, -2)))  # to M^dagger
    for i in range(n):
        h = homotopy.at(_smoothstep(i / n))
        out[..., i, :, :] = np.einsum("...ij,...jk->...ik", out[..., i, :, :], h)
    return out


def smooth_frames_2d(frames_raw: np.ndarray) -> np.ndarray:
    """Smooth periodic gauge for a 2D frame field (N1, N2, n, m).

    Requires the total occupied Chern number of the plane to vanish;
    otherwise the wrap mismatch has a winding determinant and the
    contraction fails loudly.
    """
    proj = frame_projectors(frames_raw)
    out = np.empty_like(frames_raw)
    out[:, 0] = circle_transport(proj[:, 0], frames_raw[0, 0])
    return _sweep_and_close(out, proj)


def smooth_frames_3d(frames_raw: np.ndarray) -> np.ndarray:
    """Smooth periodic gauge for a 3D frame field (N1, N2, N3, n, m)."""
    proj = frame_projectors(frames_raw)
    out = np.empty_like(frames_raw)
    out[:, :, 0] = smooth_frames_2d(frames_raw[:, :, 0])
    return _sweep_and_close(out, proj)


def smoothness_report(frames: np.ndarray) -> float:
    """Worst neighbor-overlap distance from the identity over all axes;
    small values mean the gauge is safe for finite differences."""
    eye = np.eye(frames.shape[-1])
    return max(float(np.max(np.linalg.norm(neighbour_overlaps(frames, axis) - eye, axis=(-2, -1))))
               for axis in range(frames.ndim - 2))
