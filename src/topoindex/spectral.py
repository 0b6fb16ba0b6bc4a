"""Spectral flow and the mod-2 analytical index.

Spectral flow of Hermitian families is the net signed count of eigenvalue
crossings through a reference level.  The mod-2 analytical index of the
effective (skew-adjoint) Hamiltonian is realized as the parity of Kramers
edge crossings in ribbon spectra, the spectral flow it reduces to: edge
bands of an open-boundary family are isolated by their localization
weight and followed between the projections of the fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgeBandIsolationFailed, EndpointGapless, InvalidParams
from .linalg import eigvalsh
from .model import BlochFamily, MomentumGrid, RibbonFamily, ribbonize

_STACK_BYTES = 1 << 19  # the sector matrices of one ribbon solve, about 512 KB
_PIVOT_FLOOR = 1e-6  # times the largest hopping entry: a smaller screen pivot flags its matrix


@dataclass
class SpectralPath:
    """Hermitian samples H(t_i) in order along a parameter in [0, 1]."""

    samples: list
    closed: bool = False


def spectral_flow(path: SpectralPath, level: float = 0.0) -> int:
    """Net signed count of eigenvalue crossings through the level
    (up-crossings positive): the change in the number of states below the
    level between the ends of the path, so 0 on a closed path.  The
    samples are Hermitian matrices of one size (NonHermitian names the
    first that is not), solved by one stacked eigvalsh."""
    ev = eigvalsh(path.samples)
    checks = range(len(ev)) if path.closed else (0, len(ev) - 1)
    for i in checks:
        m = float(np.min(np.abs(ev[i] - level)))
        if m < 1e-9:
            raise EndpointGapless(i, m)
    below = np.sum(ev < level, axis=-1)
    return 0 if path.closed else int(below[0] - below[-1])


# --- edge-crossing parity ---

def _ribbon_bulk_gap(ribbon: RibbonFamily) -> float:
    """Bulk gap estimate from the reperiodized ribbon spectrum at 32
    momenta in [0, pi] plus pi/3 and 2 pi/3.

    The reperiodized ribbon is block circulant, so its spectrum is the
    union over q = 2 pi m / L of the spectra of sum_d B_d e^{iqd}: L
    blocks of size n per momentum instead of one (L*n)-row matrix.
    The ribbon resolves the gap only when it is wider than about half the
    bulk correlation length v/gap; one transverse step 2 pi/L away from
    the gap minimum then raises |E| by less than 4 pi times the gap.
    """
    kv = np.zeros((34, ribbon.dim))
    # pi/3 and 2 pi/3 carry the Dirac points of honeycomb ribbons
    kv[:, 0] = np.append(np.linspace(0.0, np.pi, 32), [np.pi / 3, 2 * np.pi / 3])
    L, R = ribbon.transverse_sites, ribbon.hopping_range
    q = 2.0 * np.pi * np.arange(L) / L
    phase = np.exp(1j * np.outer(q, np.arange(-R, R + 1)))
    bloch = np.einsum("md,sdab->smab", phase, ribbon.hoppings(kv))
    levels = np.min(np.abs(np.linalg.eigvalsh(bloch)), axis=-1)
    s, m = np.unravel_index(np.argmin(levels), levels.shape)
    gap = float(levels[s, m])
    if gap < 1e-8:
        raise EdgeBandIsolationFailed("bulk spectrum is gapless")
    if min(levels[s, m - 1], levels[s, (m + 1) % L]) > 4.0 * np.pi * gap:
        raise EdgeBandIsolationFailed(
            f"width {L} is below half the bulk correlation length (gap {gap:.2e})")
    return gap


def _ribbon_sectors(blocks: np.ndarray) -> list[np.ndarray]:
    """Orbitals of the decoupled sectors of the ribbon hopping blocks
    (..., 2R+1, n, n) of a set of momenta.

    Two orbitals share a sector when a hopping block couples them (an
    exact nonzero entry at any offset and momentum); sectors are the
    connected components, and every ribbon matrix of the set is block
    diagonal over them.  S_z-conserving models split into two sectors.
    """
    coupled = np.any(blocks != 0, axis=tuple(range(blocks.ndim - 2)))
    label = list(range(blocks.shape[-1]))
    for a, b in zip(*np.nonzero(coupled)):
        la, lb = label[a], label[b]
        if la != lb:
            label = [la if x == lb else x for x in label]
    label = np.array(label)
    return [np.flatnonzero(label == lab) for lab in np.unique(label)]


def _window_flags(blocks: np.ndarray, sites: int, window: float) -> np.ndarray:
    """Flags (...) of the matrices H of hopping blocks (..., 2R+1, m, m) on
    `sites` sites that may have a level with |E| < window.  The negative
    LDL^H pivots of H - lam (Haynsworth's Schur complements, a row at a
    time) count its levels below lam (Sylvester's law of inertia).  H has
    b = (R+1) m - 1 upper diagonals: a (b+1)-row window slides down H,
    after b+1 decoupled unit rows, for all matrices and lam = +-window
    (widened by 1e-6) at once.  Where the counts differ, or a pivot is not
    finite or below _PIVOT_FLOOR times the largest entry, eigh decides."""
    m, R = blocks.shape[-1], blocks.shape[-3] // 2
    b, size = (R + 1) * m - 1, sites * m
    # H[t-b..t, t] for a row t of orbital r: row t-k is orbital c, -d sites up
    r = np.arange(m)[:, None]
    d, c = np.divmod(r - np.arange(b, -1, -1), m)
    col = np.where(d >= -R, blocks[..., R - np.maximum(d, -R), c, r], 0.0)
    lam = window * (1 + 1e-6) * np.array([1.0, -1.0]).reshape((2,) + (1,) * (col.ndim - 2))
    col = col - lam[..., None, None] * (np.arange(b + 1) == b)
    win = np.broadcast_to(np.eye(b + 1, dtype=complex), col.shape[:-2] + (b + 1, b + 1)).copy()
    pivots = np.empty((size + b + 1,) + col.shape[:-2])
    with np.errstate(all="ignore"):  # only the upper triangle of win is kept
        for t in range(size + b + 1):
            pivots[t] = win[..., 0, 0].real
            v = win[..., 0, 1:] / pivots[t][..., None]
            win[..., :-1, :-1] = win[..., 1:, 1:] - np.conj(win[..., 0, 1:, None]) * v[..., None, :]
            win[..., :, -1] = col[..., t % m, :] if t < size else np.eye(b + 1)[-1]
            win[..., :max(b - t, 0), -1] = 0.0
    pivots = pivots[b + 1:]
    below = np.count_nonzero(pivots < 0, axis=0)
    trusted = np.isfinite(pivots) & (np.abs(pivots) >= _PIVOT_FLOOR * np.max(np.abs(blocks)))
    return (below[0] != below[1]) | ~np.all(trusted, axis=(0, 1))


def _sector_eigenpairs(ribbon: RibbonFamily, ks: np.ndarray, window: float = np.inf):
    """Yield, for each row k of ks, the eigenpairs (ev, vec) of
    ribbon.evaluate(k) with |E| < window, ascending, in the ribbon basis.
    One hoppings call feeds the sectors, the _window_flags screen of each
    (momentum, sector) pair (sectors of one size stacked; an infinite window
    passes all) and the solve, in runs of about _STACK_BYTES of flagged ones."""
    blocks = ribbon.hoppings(ks)
    sectors = _ribbon_sectors(blocks)
    flags = np.ones((len(sectors), len(ks)), dtype=bool)
    for m in {len(orbs) for orbs in sectors} if np.isfinite(window) else ():
        same = [i for i, orbs in enumerate(sectors) if len(orbs) == m]
        sub = np.stack([blocks[..., sectors[i][:, None], sectors[i]] for i in same])
        flags[same] = _window_flags(sub, ribbon.transverse_sites, window)
    stack = 16 * ribbon.transverse_sites ** 2 * np.array([len(o) ** 2 for o in sectors]) @ flags
    cuts = np.flatnonzero(np.diff((np.cumsum(stack) - stack) // _STACK_BYTES)) + 1
    for part in np.split(np.arange(len(ks)), cuts):
        yield from _chunk_eigenpairs(ribbon, blocks[part], flags[:, part], sectors, window)


def _chunk_eigenpairs(ribbon: RibbonFamily, blocks: np.ndarray, flags: np.ndarray,
                      sectors: list[np.ndarray], window: float) -> list:
    """In-window eigenpairs at a chunk of momenta with hopping blocks
    (chunk, 2R+1, n, n): per sector, one stacked eigh of the flagged
    momenta's sector matrices, each point's levels merged by a stable sort
    (the order of a full stable argsort cut to the window)."""
    L, n = ribbon.transverse_sites, ribbon.bands
    pairs = [(np.empty(0), np.empty((L * n, 0)))] * len(blocks)
    for orbs, hit in zip(sectors, flags):
        hit, rows = np.flatnonzero(hit), (n * np.arange(L)[:, None] + orbs).ravel()
        sector = ribbon.assemble(blocks[hit][..., orbs[:, None], orbs])
        for i, ev, vec in zip(hit, *np.linalg.eigh(sector)):
            keep = np.abs(ev) < window
            full = np.zeros((L * n, np.count_nonzero(keep)), dtype=complex)
            full[rows] = vec[:, keep]
            ev = np.append(pairs[i][0], ev[keep])
            order = np.argsort(ev, kind="stable")
            pairs[i] = (ev[order], np.hstack([pairs[i][1], full])[:, order])
    return pairs


def _edge_states(ribbon: RibbonFamily, pairs: list, cluster_tol: float):
    """The in-window eigenpairs (ev, vec) of all path points as one table:
    energies (M,), vector columns (N, M), left-quarter weights (M,), and
    offsets (points + 1,), point p owning states offsets[p]:offsets[p + 1].

    A chain of one point's levels with steps below cluster_tol is a
    cluster; its states share the mean energy and are rotated to
    diagonalize the left-quarter weight, which disentangles hybridized or
    symmetry-paired edge states living on opposite edges.
    """
    L, n = ribbon.transverse_sites, ribbon.bands
    quarter = max(1, L // 4)
    ev = np.concatenate([e for e, _ in pairs])
    vec = np.hstack([v for _, v in pairs])
    offsets = np.cumsum([0] + [len(e) for e, _ in pairs])
    first = np.ones(len(ev), dtype=bool)
    first[1:] = ~(np.diff(ev) < cluster_tol)
    first[offsets[offsets < len(ev)]] = True  # no cluster spans two points
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(ev)))
    energies = np.repeat(np.add.reduceat(ev, starts) / sizes, sizes)
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[sizes == size, None] + np.arange(size)  # (clusters, size)
        blocks = vec[:, cols].reshape(L, n, *cols.shape)[:quarter]
        ql = np.einsum("snca,sncb->cab", np.conj(blocks), blocks)
        vec[:, cols] = np.einsum("xca,cab->xcb", vec[:, cols], np.linalg.eigh(ql)[1])
    weights = np.sum(np.abs(vec.reshape(L, n, -1)[:quarter]) ** 2, axis=(0, 1))
    return energies, vec, weights, offsets


def _crossing_parity_on_path(ribbon: RibbonFamily, path: np.ndarray) -> int:
    """Parity of left-edge band crossings of an in-gap probe level along a
    path of ribbon momenta.

    Crossings of the Fermi level sit exactly at the fixed points (Kramers
    degenerate), so the count probes the symmetric pair of offset levels
    +/- 0.3 * gap instead: the parity is the same by continuity of the
    edge bands and each Kramers pair is met exactly once.  A state is
    matched to its best overlap among the next point's states (one overlap
    matrix per step) and checked only if that point has states; the first
    offending state in path order raises.
    """
    gap = _ribbon_bulk_gap(ribbon)
    levels = np.array([0.3 * gap, -0.3 * gap])
    e, vec, w, offsets = _edge_states(
        ribbon, list(_sector_eigenpairs(ribbon, path, 0.9 * gap)), 0.02 * gap)
    checked = np.zeros(len(e), dtype=bool)
    best = np.zeros(len(e), dtype=int)
    best_overlap = np.zeros(len(e))
    for a, b, c in zip(offsets, offsets[1:], offsets[2:]):
        if a < b < c:
            overlaps = np.abs(np.conj(vec[:, a:b].T) @ vec[:, b:c])
            checked[a:b] = True
            best[a:b] = b + np.argmax(overlaps, axis=1)
            best_overlap[a:b] = np.max(overlaps, axis=1)
    near_level = np.any(np.abs(e[:, None] - levels) < 0.25 * gap, axis=1)
    ambiguous = checked & near_level & (0.4 < w) & (w <= 0.6)
    tracked = checked & ~((np.abs(e) > 0.6 * gap) | (w <= 0.6))
    bad = np.flatnonzero(ambiguous | (tracked & (best_overlap < 0.5)))
    if bad.size and ambiguous[bad[0]]:
        raise EdgeBandIsolationFailed(
            f"state at E={e[bad[0]]:.4f} has ambiguous weight {w[bad[0]]:.2f}")
    if bad.size:
        i = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise EdgeBandIsolationFailed(
            f"edge band lost between path points {i} and {i + 1} "
            f"(best overlap {best_overlap[bad[0]]:.2f})")
    signs = (e[tracked, None] - levels) * (e[best[tracked], None] - levels)
    counts = np.count_nonzero(signs < 0.0, axis=0)
    if counts[0] % 2 != counts[1] % 2:
        raise EdgeBandIsolationFailed(
            f"probe levels disagree on the crossing parity {counts.tolist()}")
    return int(counts[0] % 2)


def _staircase(target: np.ndarray, samples: int) -> np.ndarray:
    """Ribbon momenta from the origin to target (coordinates 0 or pi): one
    leg of `samples` points, sharing its first with the previous leg's
    last, per pi coordinate in axis order."""
    s = np.linspace(0.0, np.pi, samples)
    legs = np.eye(len(target))[target >= 1e-12]  # (legs, dim) unit rows
    done = np.cumsum(legs, axis=0) - legs        # the axes already at pi
    path = np.pi * done[:, None] + s[1:, None] * legs[:, None]
    return np.concatenate([np.zeros((1, len(target))), *path])


def ribbon_spectrum_csv(ribbon: RibbonFamily, samples: int = 81) -> str:
    """Ribbon band structure as CSV rows (momentum, eigenvalue,
    edge weight on the outer quarter), ready for plotting."""
    L, n = ribbon.transverse_sites, ribbon.bands
    quarter = max(1, L // 4)
    ks = np.linspace(-np.pi, np.pi, samples)
    kv = np.zeros((samples, ribbon.dim))
    kv[:, 0] = ks
    lines = ["k,energy,edge_weight"]
    for k, (ev, vec) in zip(ks, _sector_eigenpairs(ribbon, kv)):
        dens = np.abs(vec.reshape(L, n, -1)) ** 2
        weight = dens[:quarter].sum(axis=(0, 1)) + dens[-quarter:].sum(axis=(0, 1))
        lines.extend(f"{k:.12g},{e:.12g},{w:.12g}" for e, w in zip(ev, weight))
    return "\n".join(lines) + "\n"


def edge_crossing_parity(ribbon: RibbonFamily) -> int:
    """Z2 edge index of a ribbon: parity of Kramers edge-band crossings
    between the projected fixed points 0 and pi, on 161 momenta."""
    if ribbon.dim != 1:
        raise InvalidParams("edge_crossing_parity expects a 1D-momentum ribbon")
    return _crossing_parity_on_path(ribbon, _staircase(np.array([np.pi]), 161))


def mod2_analytical_index(model: BlochFamily, grid: MomentumGrid, trim,
                          open_axis: int = 0, width: int = 24,
                          samples_per_leg: int | None = None) -> int:
    """Parity of Kramers zero crossings of the open-boundary spectrum
    along the staircase path from the surface origin to the projection
    of the given fixed point.

    Kernel dimensions of the skew-adjoint effective Hamiltonian are empty
    away from criticality; their mod-2 count is carried by this spectral
    flow, which is what gets computed.
    """
    trim = np.atleast_1d(np.asarray(trim, dtype=float))
    if trim.shape != (model.dim,):
        raise InvalidParams("trim must be a bulk fixed point (one coordinate per axis)")
    for x in trim:
        if min(abs(x), abs(abs(x) - np.pi)) > 1e-12:
            raise InvalidParams("trim coordinates must be 0 or pi")
    if samples_per_leg is None:
        samples_per_leg = max(161, 8 * max(grid.sizes) + 1)
    ribbon = ribbonize(model, open_axis=open_axis, width=width)
    path = _staircase(np.abs(np.delete(trim, open_axis)), samples_per_leg)
    if len(path) < 2:
        return 0
    return _crossing_parity_on_path(ribbon, path)
