"""Smooth periodic gauge construction for occupied-band frames.

Parallel transport gives gauges that are smooth along lines; periodicity
and cross-line smoothness are restored by explicit null-homotopies of the
wrap-mismatch unitaries.  A line sweep works on m x m matrices only: it
takes the link overlaps O_i = G_i^dagger G_{i-1} of the raw frames G of
the whole field along one axis in one batch, their polar factors from one
kernel (a closed form for m = 2, the SVD otherwise), and the product scan
u_i = polar(O_i) u_{i-1}.  A smooth gauge is returned as that m x m unitary
field u, not as the smooth frames G u: the sewing matrices of `z2` are
re-gauged by u, and only the Chern-Simons integral of `berry` forms G u.
The transport equals Löwdin transport of projected frames step by step,
and the Wilson links of `z2` use the same kernel.  All the obstructions vanish for the families
handled here (every 2D slice Chern number is zero for time-reversal
invariant models), so the construction either succeeds or fails loudly
with GaugeConstructionFailed.

Rank-2 blocks (the generic Kramers case) are contracted through the
quaternion 3-sphere; rank-1 through the circle.  Higher ranks are only
supported when the mismatch loop is close to constant, which covers
atomic-limit-like inputs.

`smooth_frames_2d` gauges a stack of sheets on leading axes in one pass,
each exactly as it is gauged alone: one stacked `unitary_eig` for all circle
holonomies, one homotopy call for all sweep positions.  A guard fires if any
sheet fails it, so a caller that must name the first failing sheet replays
them one by one.
"""

from __future__ import annotations

import functools

import numpy as np

from ._stencil import neighbour_overlaps
from .errors import GaugeConstructionFailed
from .model import _smoothstep

OVERLAP_MIN = 1e-3


def polar_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary polar factors of a stack (..., k, k) of matrices and their
    smallest singular values (...,).

    k = 2 (every Kramers pair) is the Cayley-Hamilton closed form: with
    A = e^{i arg det M} adj(M)^dagger, M +- A = W diag(s1 +- s2, s2 +- s1) V^dagger
    for the SVD M = W diag(s1, s2) V^dagger, so U = (M + A) / (s1 + s2), unitary
    for any phase of a singular M, and |M -+ A|_F = sqrt(2) (s1 -+ s2) give
    s_max without cancellation and s_min = |det M| / s_max.  Other k use
    the SVD.  An all-zero block maps to the identity, as the SVD does.
    """
    k = m.shape[-1]
    if k != 2:
        u, s, vh = np.linalg.svd(m)
        return u @ vh, s[..., -1]
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * d - b * c
    adet = np.abs(det)
    phase = np.where(adet > 0.0, det / np.where(adet > 0.0, adet, 1.0), 1.0)
    pa, pb, pc, pd = (phase * np.conj(x) for x in (a, b, c, d))

    def norm2(*xs):
        return sum(x.real ** 2 + x.imag ** 2 for x in xs)

    # entry by entry: numpy ufuncs broadcast over a trailing (2, 2) slowly
    ssum = np.sqrt(norm2(a, b, c, d) + 2.0 * adet)
    smax = 0.5 * (ssum + np.sqrt(0.5 * norm2(a - pd, b + pc, c + pb, d - pa)))
    nonzero = ssum > 0.0
    safe = np.where(nonzero, ssum, 1.0)
    u = np.empty(m.shape, dtype=complex)
    for (i, j), x, e in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                            (a + pd, b - pc, c - pb, d + pa), (1.0, 0.0, 0.0, 1.0)):
        u[..., i, j] = np.where(nonzero, x / safe, e)
    return u, np.where(nonzero, adet / np.where(nonzero, smax, 1.0), 0.0)


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (..., m) and orthonormal eigenbases (..., m, m) of a
    stack of unitary matrices (..., m, m).

    Diagonalizes Hermitian combinations of the real and imaginary parts,
    which is stable under the exact degeneracies that Kramers pairs
    produce (np.linalg.eig is not).  Each trial is one eigh over the matrices
    still undiagonalized: every matrix gets the basis it would get alone.
    """
    flat = u.reshape((-1,) + u.shape[-2:])
    a, b = 0.5 * (flat + _dagger(flat)), (flat - _dagger(flat)) / 2j
    tol = 1e-9 * np.maximum(1.0, np.linalg.norm(flat, axis=(-2, -1)))
    angles, q = np.empty(flat.shape[:-1]), np.empty(flat.shape, dtype=complex)
    todo = np.arange(len(flat))
    for mu in (0.7390851332151607, 0.3183098861837907, 1.2020569031595943, 0.0):
        _, qs = np.linalg.eigh(a[todo] + mu * b[todo])
        d = _dagger(qs) @ flat[todo] @ qs
        diag = np.diagonal(d, axis1=-2, axis2=-1)
        done = np.linalg.norm(d - diag[..., None] * np.eye(u.shape[-1]), axis=(-2, -1)) < tol[todo]
        angles[todo[done]], q[todo[done]] = np.angle(diag[done]), qs[done]
        todo = todo[~done]
        if not todo.size:
            return angles.reshape(u.shape[:-1]), q.reshape(u.shape)
    raise GaugeConstructionFailed("could not diagonalize a unitary holonomy")


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, as a sum over the inner index;
    np.matmul's per-matrix overhead dominates on 2 x 2 and 4 x 2 blocks."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def transport(frames: np.ndarray, u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parallel transport from F_0 = G_0 u0 along the last grid axis of a
    frame field G (..., N, n, m): Löwdin transport lowdin(G_i G_i^dagger F_{i-1})
    is G_i u_i with u_i = polar(O_i) u_{i-1} for the links O_i = G_i^dagger G_{i-1}
    (O_0 = G_0^dagger G_{N-1}), whose singular values the overlap guard reads.
    Returns u (..., N, m, m) and the wrap mismatch polar(u_0^dagger polar(O_0) u_{N-1})
    of the frame transported back to the start."""
    n = frames.shape[-3]
    links, smin = polar_unitary(_mul(_dagger(frames), np.roll(frames, 1, axis=-3)))
    step_min = np.roll(np.min(smin.reshape(-1, n), axis=0), -1)  # steps 1, ..., N-1, wrap
    low = np.flatnonzero(~(step_min >= OVERLAP_MIN))
    if low.size:
        raise GaugeConstructionFailed(
            f"transport overlap {step_min[low[0]]:.2e} below {OVERLAP_MIN:.0e}")
    u = np.empty(links.shape, dtype=complex)
    u[..., 0, :, :] = u0
    for i in range(1, n):
        u[..., i, :, :] = _mul(links[..., i, :, :], u[..., i - 1, :, :])
    mismatch, _ = polar_unitary(_dagger(u0) @ links[..., 0, :, :] @ u[..., n - 1, :, :])
    return u, mismatch


def circle_transport(frames: np.ndarray) -> np.ndarray:
    """Smooth gauge u (..., N, m, m) of each circle of frames (..., N, n, m),
    transported from its first frame: the smooth frames are frames @ u.  The
    holonomies of all circles are diagonalized in one `unitary_eig` call.

    The loop holonomy is spread as Hol^{-t/N} so the gauge closes
    periodically; the eigenphase branch is immaterial for the invariants
    built on top (it drops out of any closed chain of circles).  Phases lie
    in (-pi + 1e-8, pi + 1e-8], so a Kramers pair with holonomy -1, whose
    phases rounding splits into +-pi, spreads as a scalar whatever its basis.
    """
    n_pts, m = frames.shape[-3], frames.shape[-1]
    u, mismatch = transport(frames, np.eye(m, dtype=complex))
    angles, q = unitary_eig(mismatch)
    angles = np.where(angles <= -np.pi + 1e-8, angles + 2.0 * np.pi, angles)
    spread = np.exp(-1j * (np.arange(n_pts)[:, None] * angles[..., None, :]) / n_pts)
    return u @ (q[..., None, :, :] * spread[..., None, :]) @ _dagger(q)[..., None, :, :]


# --- null homotopies of wrap mismatches ---

def _unwrap_1d(z: np.ndarray, label: str) -> np.ndarray:
    """Continuous periodic phase of each winding-zero circle (..., N) of
    unit complex numbers.  The first failing circle in C order raises, its
    flat index formatted into ``label``."""
    steps = np.angle(z / np.roll(z, 1, axis=-1))
    large, total = np.max(np.abs(steps), axis=-1) > 2.5, np.sum(steps, axis=-1)
    bad = np.flatnonzero(large | (np.abs(total) > np.pi))
    if bad.size:
        i = bad[0]
        detail = ("phase steps too large to unwrap" if large.flat[i] else
                  f"determinant winding {total.flat[i] / (2 * np.pi):+.2f} is nonzero")
        raise GaugeConstructionFailed(f"{label.format(i)}: {detail}")
    phi = np.angle(z[..., :1]) + np.concatenate(
        [np.zeros(z.shape[:-1] + (1,)), np.cumsum(steps[..., 1:], axis=-1)], axis=-1)
    phi -= total[..., None] * np.arange(z.shape[-1]) / z.shape[-1]  # the float closure defect
    return phi


def _unwrap(z: np.ndarray, label: str, batch: int = 0) -> np.ndarray:
    """Continuous periodic phase on a circle or torus of parameters after
    ``batch`` leading axes of z."""
    if z.ndim - batch == 1:
        return _unwrap_1d(z, label)
    if z.ndim - batch == 2:
        edge = _unwrap_1d(z[..., 0], label + " (edge)")
        col = _unwrap_1d(z / z[..., :1], label + " (column {})")
        phi = edge[..., None] + col - col[..., :1]
        jumps = np.abs(phi - np.roll(phi, 1, axis=-2))
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
    unitary family V over a circle or torus with zero det windings, or for
    a stack of such families on ``batch`` leading axes of V."""

    def __init__(self, v: np.ndarray, batch: int = 0):
        v = np.asarray(v, dtype=complex)
        self.shape = v.shape
        self.m = v.shape[-1]
        self.v = v
        sheets = v.shape[:batch]
        if self.m == 1:
            self.phi = _unwrap(v[..., 0, 0], "rank-1 mismatch", batch)
            self.mode = "phase"
        elif self.m == 2:
            det = np.linalg.det(v)
            self.phi = _unwrap(det, "rank-2 mismatch determinant", batch)
            su2 = v * np.exp(-0.5j * self.phi)[..., None, None]
            self.q = _su2_to_quat(su2)
            residual = np.max(np.abs(_quat_to_su2(self.q) - su2))
            if residual > 1e-8:
                raise GaugeConstructionFailed(
                    f"mismatch not special-unitary after det removal ({residual:.2e})")
            picks = [_pick_basepoint(self.q[i], "quaternion") for i in np.ndindex(sheets)]
            params = (1,) * (v.ndim - 2 - batch)
            self.rho = np.reshape([c for c, _ in picks], sheets + params + (4,))
            self.basepoint_margin = min(margin for _, margin in picks)   # the stack's worst
            self.identity_q = np.array([1.0, 0.0, 0.0, 0.0])
            self.mode = "quaternion"
        else:
            self.general = [_GeneralContraction(v[idx]) for idx in np.ndindex(sheets)]
            self.mode = "general"

    def at(self, t) -> np.ndarray:
        """The homotopy at t in [0, 1], shaped like V, or at each entry of a
        1D array t, stacked on an axis before the matrix axes; each entry is
        exactly what it is alone, I at t <= 0 and V at t >= 1."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if self.mode == "phase":
            h = np.exp(1j * ts * self.phi[..., None])[..., None, None] * np.ones((1, 1))
        elif self.mode == "quaternion":
            # the chord 1 -> rho up to t = 1/2, then rho -> q
            low, rho, t2 = (ts <= 0.5)[:, None], self.rho[..., None, :], 2.0 * ts[:, None]
            q = _chord(np.where(low, self.identity_q, rho),
                       np.where(low, rho, self.q[..., None, :]), np.where(low, t2, t2 - 1.0))
            h = _quat_to_su2(q) * np.exp(0.5j * ts * self.phi[..., None])[..., None, None]
        else:
            h = np.stack([np.stack([g.at(x) for g in self.general]).reshape(self.shape)
                          for x in ts], axis=-3)
        h[..., ts <= 0.0, :, :] = np.eye(self.m)
        h[..., ts >= 1.0, :, :] = self.v[..., None, :, :]
        return h if np.ndim(t) else h[..., 0, :, :]


def _sweep_and_close(frames: np.ndarray, u0: np.ndarray, batch: int = 0) -> np.ndarray:
    """The gauge u of `frames` (``batch`` leading axes of independent fields)
    transported from G_0 u0 along the last grid axis, times the contraction of
    the wrap mismatch at all n sweep positions, so the gauge closes periodically."""
    n = frames.shape[-3]
    u, mismatch = transport(frames, u0)
    return _mul(u, LoopContraction(_dagger(mismatch), batch).at(_smoothstep(np.arange(n) / n)))


def smooth_frames_2d(frames_raw: np.ndarray) -> np.ndarray:
    """Smooth periodic gauge u (*sheets, N1, N2, m, m) of a 2D frame field
    G (*sheets, N1, N2, n, m), each sheet gauged on its own: the frames G u
    are smooth and periodic.

    Requires the total occupied Chern number of each sheet to vanish;
    otherwise the wrap mismatch has a winding determinant and the
    contraction fails loudly.
    """
    return _sweep_and_close(frames_raw, circle_transport(frames_raw[..., 0, :, :]),
                            frames_raw.ndim - 4)


def smooth_frames_3d(frames_raw: np.ndarray) -> np.ndarray:
    """Smooth periodic gauge u (N1, N2, N3, m, m) of a 3D frame field G
    (N1, N2, N3, n, m), swept along axis 2 from the gauge of the k3 = 0
    sheet."""
    return _sweep_and_close(frames_raw, smooth_frames_2d(frames_raw[:, :, 0]))


def smoothness_report(frames: np.ndarray) -> float:
    """Worst neighbor-overlap distance from the identity over all axes;
    small values mean the gauge is safe for finite differences."""
    eye = np.eye(frames.shape[-1])
    return max(float(np.max(np.linalg.norm(neighbour_overlaps(frames, axis) - eye, axis=(-2, -1))))
               for axis in range(frames.ndim - 2))
