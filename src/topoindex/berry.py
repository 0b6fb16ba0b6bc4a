"""Berry connection and curvature machinery.

Chern numbers come from gauge-invariant lattice link variables (exact
integers on adequate grids); the magneto-electric polarization is the
Chern-Simons integral of the non-abelian Berry connection evaluated in an
explicitly constructed smooth periodic gauge, a unitary field u that turns
the frames G into the smooth frames G u.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._gauge import circle_transport, smooth_frames_2d, smooth_frames_3d, smoothness_report
from ._stencil import central_diff, levi_civita_sum, neighbour_overlaps, one_forms
from .errors import GapClosed, GridTooCoarse, InvalidParams, NonHermitian
from .linalg import eigh, eigvalsh
from .model import GAP_TOL, BlochFamily, MomentumGrid, _grid_chunks

LINK_DET_MIN = 1e-8
PLAQUETTE_SAFE = 0.95 * np.pi


@dataclass
class OccupiedFrame:
    """Occupied eigenvector columns at every grid point, (*sizes, n, m)."""

    grid: MomentumGrid
    frames: np.ndarray


def _solve_gapped(solve, h: np.ndarray, ks: np.ndarray):
    """solve(h), eigh or eigvalsh, for the Hamiltonians h at momenta ks;
    NonHermitian or GapClosed name the first failing momentum in C order."""
    try:
        solved = solve(h)
    except NonHermitian as exc:
        if exc.index:  # a gap closing earlier in C order is reported first
            _solve_gapped(solve, h.reshape((-1,) + h.shape[-2:])[: exc.index], ks)
        raise
    gaps = np.min(np.abs(getattr(solved, "values", solved)), axis=-1).ravel()
    closed = np.flatnonzero(gaps <= GAP_TOL)
    if closed.size:
        raise GapClosed(ks.reshape(-1, ks.shape[-1])[closed[0]], float(gaps[closed[0]]))
    return solved


def _chunks(model: BlochFamily, grid: MomentumGrid, out: np.ndarray):
    """Each flat C-order chunk of grid momenta with its rows of out (*sizes, ...)."""
    if grid.dim != model.dim:
        raise InvalidParams("grid dimension does not match the model")
    rows, start = out.reshape((-1,) + out.shape[grid.dim:]), 0
    for ks in _grid_chunks(model, grid):
        yield ks, rows[start:start + len(ks)]
        start += len(ks)


def occupied_frame(model: BlochFamily, grid: MomentumGrid) -> OccupiedFrame:
    """Occupied frames from eigh with its deterministic phase convention, one
    eigh per flat C-order grid chunk; errors name the first failing momentum
    in C order."""
    frames = np.empty(grid.sizes + (model.bands, model.occupied), dtype=complex)
    for ks, dest in _chunks(model, grid, frames):
        dest[...] = _solve_gapped(eigh, model.h(ks), ks).vectors[..., : model.occupied]
    return OccupiedFrame(grid=grid, frames=frames)


def gapped_hamiltonians(model: BlochFamily, grid: MomentumGrid) -> np.ndarray:
    """Every grid Hamiltonian (*sizes, n, n), evaluated chunk by chunk under
    the guard of occupied_frame, with its errors, checked by eigenvalues alone."""
    h = np.empty(grid.sizes + (model.bands,) * 2, dtype=complex)
    for ks, dest in _chunks(model, grid, h):
        dest[...] = model.h(ks)
        _solve_gapped(eigvalsh, dest, ks)
    return h


def link_dets(frames: np.ndarray, axis: int) -> np.ndarray:
    """det of the overlap U_axis(k) = F(k)^dagger F(k + e_axis)."""
    det = np.linalg.det(neighbour_overlaps(frames, axis))
    small = float(np.min(np.abs(det)))
    if small < LINK_DET_MIN:
        raise GridTooCoarse(f"link determinant {small:.2e} below {LINK_DET_MIN:.0e}")
    return det


def _frame_sheet(frame: OccupiedFrame, axes: tuple[int, int], slice_index: int) -> np.ndarray:
    """The 2D frame sheet spanned by ``axes``, in their order: a reversed
    pair swaps the sheet and so flips the orientation."""
    if frame.grid.dim == 2:
        if tuple(sorted(axes)) != (0, 1):
            raise InvalidParams("axes must be (0, 1) or (1, 0) on a 2D grid")
        sheet = frame.frames
    elif frame.grid.dim == 3:
        other = ({0, 1, 2} - set(axes)).pop()
        sheet = np.take(frame.frames, slice_index, axis=other)
    else:
        raise InvalidParams("Chern numbers need a 2D grid or a 2D slice of a 3D grid")
    return np.swapaxes(sheet, 0, 1) if axes[0] > axes[1] else sheet


def plaquette_field(frame: OccupiedFrame, axes: tuple[int, int] = (0, 1),
                    slice_index: int = 0) -> np.ndarray:
    """Principal-branch plaquette phases of the occupied link variables.

    Entry (i, j) is the argument of det[U1 U2 U1^{-1} U2^{-1}] around the
    plaquette at (i, j); the total over the sheet is 2*pi times the Chern
    number exactly.
    """
    sheet = _frame_sheet(frame, axes, slice_index)
    z1 = link_dets(sheet, 0)
    z2 = link_dets(sheet, 1)
    prod = z1 * np.roll(z2, -1, axis=0) / (np.roll(z1, -1, axis=1) * z2)
    field = np.angle(prod)
    worst = float(np.max(np.abs(field)))
    if worst > PLAQUETTE_SAFE:
        raise GridTooCoarse(
            f"plaquette phase {worst:.3f} exceeds {PLAQUETTE_SAFE:.3f}")
    return field


def plaquette_chern(field: np.ndarray) -> tuple[int, float]:
    """The Chern number of a plaquette field, the integer nearest its sum
    over 2 pi, and the residue from that integer; a residue above 1e-6
    raises GridTooCoarse."""
    total = float(np.sum(field)) / (2.0 * np.pi)
    n = int(np.rint(total))
    if abs(total - n) > 1e-6:
        raise GridTooCoarse(f"plaquette sum {total:.6f} is not an integer")
    return n, abs(total - n)


def chern_number(frame: OccupiedFrame, axes: tuple[int, int] = (0, 1),
                 slice_index: int = 0) -> int:
    """Lattice first Chern number of the occupied bundle; exact integer."""
    return plaquette_chern(plaquette_field(frame, axes, slice_index))[0]


@dataclass
class BerryCurvatureField:
    """Per-plaquette Berry curvature (trace, principal branch)."""

    k1: np.ndarray
    k2: np.ndarray
    values: np.ndarray  # (N1, N2) phases; sum/(2 pi) = Chern number

    def chern(self) -> int:
        return plaquette_chern(self.values)[0]

    def to_csv(self) -> str:
        lines = ["k1,k2,curvature"]
        for i, a in enumerate(self.k1):
            for j, b in enumerate(self.k2):
                lines.append(f"{a:.12g},{b:.12g},{self.values[i, j]:.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "k1": [float(x) for x in self.k1],
            "k2": [float(x) for x in self.k2],
            "curvature": [[float(x) for x in row] for row in self.values],
        }, sort_keys=True)


def berry_curvature_field(frame: OccupiedFrame, axes: tuple[int, int] = (0, 1),
                          slice_index: int = 0) -> BerryCurvatureField:
    field = plaquette_field(frame, axes, slice_index)
    return BerryCurvatureField(k1=frame.grid.axis(axes[0]),
                               k2=frame.grid.axis(axes[1]), values=field)


# --- Chern-Simons polarization ---

def chern_simons_integral(frames: np.ndarray, grid: MomentumGrid) -> float:
    """(-1/8 pi^2) Int tr(a da + (2/3) a^3) for a smooth periodic frame
    field; defined up to an integer, and the pure-gauge value is the
    winding number of the gauge."""
    steps = tuple(2.0 * np.pi / n for n in grid.sizes)
    # anti-Hermitian part of F^dag d_mu F in a smooth periodic gauge
    a = [0.5 * (am - np.conj(np.swapaxes(am, -1, -2))) for am in one_forms(frames, steps)]

    def term(mu, nu, rho):
        da = central_diff(a[rho], nu, steps[nu])
        t1 = np.einsum("...mk,...km->...", a[mu], da)
        t2 = np.einsum("...mk,...kl,...lm->...", a[mu], a[nu], a[rho])
        return np.sum(t1 + (2.0 / 3.0) * t2)

    total = levi_civita_sum(term)
    cell = np.prod(steps)
    return float((-(1.0 / (8.0 * np.pi ** 2)) * cell * total).real)


def smooth_gauge(frame: OccupiedFrame) -> np.ndarray:
    """The unitary field u (*sizes, m, m) that makes the frames G u smooth
    and periodic.  A circle is transported from k = 0 (grid index n // 2)
    and returned in grid order."""
    if frame.grid.dim == 1:
        n = frame.grid.sizes[0]
        rows = (np.arange(n) + n // 2) % n
        return np.roll(circle_transport(frame.frames[rows]), n // 2, axis=0)
    if frame.grid.dim == 2:
        return smooth_frames_2d(frame.frames)
    if frame.grid.dim == 3:
        return smooth_frames_3d(frame.frames)
    raise InvalidParams("smooth gauges are built on 1D, 2D and 3D grids")


def polarization_p3(frame: OccupiedFrame) -> float:
    """Magneto-electric polarization P3 mod 1, representative in [0, 1).

    Evaluates the Chern-Simons integral of the Berry connection in the
    constructed smooth gauge; the gauge ambiguity is exactly an integer.
    """
    if frame.grid.dim != 3:
        raise InvalidParams("P3 is defined on 3D grids")
    frames_s = frame.frames @ smooth_gauge(frame)
    rough = smoothness_report(frames_s)
    if rough > 1.5:
        raise GridTooCoarse(f"smooth gauge still varies by {rough:.2f} per step")
    return float(chern_simons_integral(frames_s, frame.grid) % 1.0)


def delta_p3(frame: OccupiedFrame, gauge: np.ndarray) -> float:
    """P3(a^g) - P3(a) for a smooth periodic gauge transformation g, given
    as an array (*sizes, m, m) on the frame's grid.

    Returns the raw real difference; for periodic g it is the integer
    winding number of g.
    """
    if frame.grid.dim != 3:
        raise InvalidParams("P3 is defined on 3D grids")
    g = np.asarray(gauge, dtype=complex)
    if g.shape != frame.grid.sizes + (frame.frames.shape[-1],) * 2:
        raise InvalidParams("gauge array shape does not match grid/occupied count")
    step = smoothness_report(g)
    if step > 1.9:
        raise GridTooCoarse(f"gauge map varies by {step:.2f} per grid step")
    frames_s = frame.frames @ smooth_gauge(frame)
    dressed = np.einsum("...nm,...mk->...nk", frames_s, g)
    base = chern_simons_integral(frames_s, frame.grid)
    return chern_simons_integral(dressed, frame.grid) - base
