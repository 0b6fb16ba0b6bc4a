"""Kane-Mele invariant from the sewing matrix field.

The invariant is the product over fixed points of pf(w)/sqrt(det w).  The
square-root branch is fixed by re-gauging w by the smooth periodic gauge u
of the occupied frames G, w -> u(-k)^dagger w(k) conj(u(k)) (the sewing
matrices of the smooth frames G u, which are never formed), anchoring
sqrt(det w) = pf(w) at the origin fixed point, and continuing the phase of
det w along axis-aligned grid paths to every other fixed point.  Every
branch step is checked; jumps beyond pi/2 abort loudly.

An independent Wannier-center-flow oracle (Wilson-loop eigenphase
tracking over half the zone) cross-checks every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from ._gauge import _dagger, _mul, smooth_frames_2d, transport, unitary_eig
from .berry import OccupiedFrame, gapped_hamiltonians, occupied_frame, smooth_gauge
from .errors import BranchTrackingFailed, GaugeConstructionFailed, InvalidParams, PfaffianNearZero
from .linalg import PF_MIN, check_unitary, eigh, pfaffian, unitary_deviation
from .model import BlochFamily, MomentumGrid


def _negate_field(arr: np.ndarray, ndim: int) -> np.ndarray:
    """Value at -k for a grid field (..., *sizes, a, b) with ``ndim`` grid
    axes before its two matrix axes: index m goes to (-m) mod n on each."""
    axes = tuple(range(arr.ndim - 2 - ndim, arr.ndim - 2))
    return np.roll(np.flip(arr, axes), 1, axes)


def _sewing_matrices(frames: np.ndarray, theta_u: np.ndarray, ndim: int) -> np.ndarray:
    """w_mn(k) = <u_m(-k) | Theta u_n(k)> over the occupied columns."""
    tf = np.einsum("ij,...jm->...im", theta_u, np.conj(frames))
    neg = _negate_field(frames, ndim)
    return np.einsum("...nm,...nk->...mk", np.conj(neg), tf)


def _regauge(w: np.ndarray, u: np.ndarray, ndim: int) -> np.ndarray:
    """u(-k)^dagger w(k) conj(u(k)): the sewing matrices of the frames G u,
    from those of G and the gauge field u (..., *sizes, m, m)."""
    return _mul(_dagger(_negate_field(u, ndim)), _mul(w, np.conj(u)))


@dataclass
class SewingField:
    """Sewing matrices on a grid plus the frames that produced them."""

    grid: MomentumGrid
    w: np.ndarray
    frames: np.ndarray
    unitarity_deviation: float
    relation_deviation: float
    trim_skew_deviation: float

    @cached_property
    def smooth_w(self) -> np.ndarray:
        """``w`` re-gauged by the smooth periodic gauge of the frames
        (``berry.smooth_gauge``), built once and shared by every index and
        winding that reads it."""
        return _regauge(self.w, smooth_gauge(OccupiedFrame(self.grid, self.frames)),
                        self.grid.dim)


def _sewing_deviations(w: np.ndarray, locates) -> tuple[float, float, float]:
    """Unitarity, the relation w(-k) = -w(k)^T and fixed-point skewness of
    a stack of sewing fields w (fields, *sizes, m, m), each the largest over
    the stack.  NotUnitary names the worst matrix of the first non-unitary
    field f by locates[f](index)."""
    ndim = w.ndim - 3
    unit_dev = unitary_deviation(w)
    for f, dev in enumerate(unit_dev):
        if not np.max(dev) <= 1e-8:
            check_unitary(w[f], locate=locates[f])
    w_neg = _negate_field(w, ndim)
    rel_dev = float(np.max(np.linalg.norm(w_neg + np.swapaxes(w, -1, -2), axis=(-2, -1))))
    trim_dev = max(float(np.linalg.norm(x[idx] + x[idx].T))
                   for x in w for idx in MomentumGrid(w.shape[1:ndim + 1]).trim_indices())
    return float(np.max(unit_dev)), rel_dev, trim_dev


def sewing_field(model: BlochFamily, grid: MomentumGrid,
                 frames: np.ndarray | None = None) -> SewingField:
    """Assemble and validate the sewing matrix field of a gapped TRS model."""
    if model.time_reversal is None:
        raise InvalidParams("sewing field needs a time-reversal invariant model")
    if frames is None:
        frames = occupied_frame(model, grid).frames
    w = _sewing_matrices(frames, model.time_reversal.unitary, grid.dim)
    return SewingField(grid, w, frames, *_sewing_deviations(w[None], [grid.point]))


# --- pf / sqrt(det w) along a tracked branch ---

def _pf_walk(w: np.ndarray, anchor: tuple[int, ...], legs: list[tuple[int, int]],
             label: str) -> int:
    """Product of pf(w)/sqrt(det w) over the ends of axis legs walked from
    ``anchor``, where the branch is fixed by sqrt(det w) = pf(w).

    ``legs`` are (axis, steps) pairs walked in turn; each continues the
    phase of det w over its own grid indices and must not jump by more
    than pi/2 in one step."""
    def pf_at(idx: tuple[int, ...]) -> complex:
        pf = pfaffian(w[idx])
        if abs(pf) < PF_MIN:
            raise PfaffianNearZero(abs(pf), where=f"{label} {idx}")
        return pf

    sqrt_det = pf_at(anchor)
    point, product = list(anchor), 1
    for axis, steps in legs:
        line = np.repeat([point], steps + 1, axis=0)
        line[:, axis] = (point[axis] + np.arange(steps + 1)) % w.shape[axis]
        dets = np.linalg.det(w[tuple(line.T)])
        jumps = np.angle(dets[1:] / dets[:-1])
        bad = np.flatnonzero(np.abs(jumps) > 0.5 * np.pi)
        if bad.size:
            where = tuple(line[bad[0] + 1].tolist())
            raise BranchTrackingFailed(f"{label} near {where}", abs(jumps[bad[0]]))
        sqrt_det *= np.exp(0.5j * np.sum(jumps))
        point = line[-1].tolist()
        r = pf_at(tuple(point)) / sqrt_det
        if abs(abs(r) - 1.0) > 1e-6 or abs(r.imag) > 1e-6:
            raise BranchTrackingFailed(f"{label} {tuple(point)} (pf ratio {r:.6f})", abs(r.imag))
        product *= 1 if r.real > 0 else -1
    return product


def _fixed_point_sheets(cube: np.ndarray) -> list[np.ndarray]:
    """The planes k3 = 0, k3 = pi, k1 = pi and k2 = pi of a 3D grid field, each
    run of one shape stacked (one stack on a cubic grid): they hold the eight
    fixed points, and each is closed under k -> -k."""
    sheets = [cube[:, :, cube.shape[2] // 2], cube[:, :, 0], cube[0], cube[:, 0]]
    return [np.stack(list(run)) for _, run in groupby(sheets, np.shape)]


def _nu_smooth_sheet(w: np.ndarray) -> int:
    """Kane-Mele invariant of smooth-gauge 2D sewing matrices: anchors the
    branch at k = (0, 0) and walks the staircase (0,0) -> (pi,0) -> (pi,pi)
    and the leg (0,0) -> (0,pi)."""
    n1, n2 = w.shape[:2]
    origin = (n1 // 2, n2 // 2)     # k = (0, 0)
    return (_pf_walk(w, origin, [(0, n1 // 2), (1, n2 // 2)], "sheet")
            * _pf_walk(w, origin, [(1, n2 // 2)], "sheet"))


def kane_mele_nu(field: SewingField) -> int:
    """Product over all 2^d fixed points of pf(w)/sqrt(det w), exactly
    +1 or -1, walked on ``field.smooth_w``.  In 3D this is the strong
    invariant (the product of the k3 = 0 and k3 = pi sheet invariants)."""
    w = field.smooth_w
    if field.grid.dim == 2:
        return _nu_smooth_sheet(w)
    return int(np.prod([_nu_smooth_sheet(s) for s in _fixed_point_sheets(w)[0][:2]]))


@dataclass
class Z2Indices3D:
    strong: int
    weak: tuple[int, int, int]
    unitarity_deviation: float
    relation_deviation: float
    trim_skew_deviation: float


def _stack_nus(frames: np.ndarray, w: np.ndarray) -> list[int]:
    """Kane-Mele invariant of each sheet of a frame stack (sheets, N1, N2, n, m)
    from its sewing matrices w, re-gauged by one stacked smooth gauge.  A
    failed stacked gauge is replayed sheet by sheet, gauge then walks, so
    the first sheet to fail in that order raises."""
    try:
        smooth = _regauge(w, smooth_frames_2d(frames), 2)
    except GaugeConstructionFailed:
        if len(frames) == 1:
            raise
        return [_stack_nus(f[None], x[None])[0] for f, x in zip(frames, w)]
    return [_nu_smooth_sheet(s) for s in smooth]


def strong_and_weak_indices_3d(model: BlochFamily, grid: MomentumGrid) -> Z2Indices3D:
    """Strong invariant from all eight fixed points; weak index i from the
    four fixed points on the k_i = pi plane.  Frames and sewing deviations
    come from the four fixed-point sheets alone; the gap guard covers the
    whole grid.  Each stack of sheets is solved, sewn and gauged at once."""
    if grid.dim != 3:
        raise InvalidParams("need a 3D grid")
    h = gapped_hamiltonians(model, grid)
    if model.time_reversal is None:
        raise InvalidParams("Z2 indices need a time-reversal invariant model")
    frames = [eigh(hs).vectors[..., : model.occupied] for hs in _fixed_point_sheets(h)]
    ws = [_sewing_matrices(f, model.time_reversal.unitary, 2) for f in frames]
    nu_0, nu_pi, nu_1, nu_2 = (nu for f, w in zip(frames, ws) for nu in _stack_nus(f, w))
    deviations = [_sewing_deviations(w, [p.__getitem__ for p in ks])
                  for w, ks in zip(ws, _fixed_point_sheets(grid.points()))]
    return Z2Indices3D(nu_0 * nu_pi, (nu_1, nu_2, nu_pi), *map(max, zip(*deviations)))


# --- Wannier-center-flow oracle ---

@dataclass
class WannierFlow:
    """Wilson-loop eigenphase trajectories over half the zone."""

    momenta: np.ndarray       # pumping momenta k2 in [0, pi]
    centers: np.ndarray       # (slices, occupied) sorted eigenphases
    gap_centers: np.ndarray   # tracked largest-gap midpoints
    crossings: int
    verdict: int              # +1 trivial, -1 topological

    def to_csv(self) -> str:
        lines = ["k2," + ",".join(f"center{i}" for i in range(self.centers.shape[1]))]
        for k, row in zip(self.momenta, self.centers):
            lines.append(f"{k:.12g}," + ",".join(f"{x:.12g}" for x in row))
        return "\n".join(lines) + "\n"


def _wilson_loop_phases(lines: np.ndarray) -> np.ndarray:
    """Sorted Wilson-loop eigenphases of every line of a stack
    (lines, steps, n, m).  The loop polar(L_0 L_1 ... L_{N-1}) of the links
    L_t = polar(F_t^dagger F_{t+1}) is the wrap mismatch of `transport`
    along the line walked backwards from F_0 (F_0, F_{N-1}, ..., F_1),
    under its overlap guard."""
    backwards = lines[:, -np.arange(lines.shape[1])]
    _, loop = transport(backwards, np.eye(lines.shape[-1], dtype=complex))
    return np.sort(unitary_eig(loop)[0], axis=-1)


def wannier_center_flow(model: BlochFamily, grid: MomentumGrid,
                        frames: np.ndarray | None = None) -> WannierFlow:
    """Wilson-loop eigenphases along axis 0 for pumping momenta k2 from 0
    to pi, with the largest-gap crossing count giving the Z2 verdict."""
    if grid.dim != 2:
        raise InvalidParams("Wannier flow needs a 2D grid")
    if frames is None:
        frames = occupied_frame(model, grid).frames
    n2 = grid.sizes[1]
    steps = np.arange(n2 // 2 + 1)
    slices, momenta = (n2 // 2 + steps) % n2, steps * 2.0 * np.pi / n2

    centers = _wilson_loop_phases(np.swapaxes(frames[:, slices], 0, 1))
    # m sorted phases on the circle leave a largest gap of at least 2 pi/m, so
    # a 1e-6 degeneracy guard could only fire above 6e6 occupied bands: none
    ext = np.concatenate([centers, centers[:, :1] + 2.0 * np.pi], axis=1)
    gaps = np.diff(ext, axis=1)
    rows, widest = np.arange(len(slices)), np.argmax(gaps, axis=1)
    gap_centers = (ext[rows, widest] + 0.5 * gaps[rows, widest] + np.pi) % (2.0 * np.pi) - np.pi
    arc = (gap_centers[1:] - gap_centers[:-1]) % (2.0 * np.pi)
    rel = (centers[1:] - gap_centers[:-1, None]) % (2.0 * np.pi)
    crossings = int(np.sum((rel > 1e-12) & (rel < arc[:, None] - 1e-12)))
    verdict = 1 if crossings % 2 == 0 else -1
    return WannierFlow(momenta=momenta, centers=centers, gap_centers=gap_centers,
                       crossings=crossings, verdict=verdict)
