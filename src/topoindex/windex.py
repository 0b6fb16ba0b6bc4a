"""Odd topological indices of unitary fields.

Winding numbers over the circle and 3-torus, the boundary-circle product
index of a 2D sewing field, and the periodized degree-one SU(2) reference
map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stencil import neighbour_overlaps, one_forms
from .errors import BranchUnsafe, InvalidParams, ResidueTooLarge
from .linalg import check_unitary
from .model import MomentumGrid, _smoothstep
from .z2 import SewingField, _pf_walk

BRANCH_SAFE_DISTANCE = 1.9
STEP_ARG_SAFE = 0.95 * np.pi


@dataclass
class UnitaryField:
    """A unitary matrix at every grid point, (*sizes, n, n)."""

    grid: MomentumGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape[: self.grid.dim] != self.grid.sizes:
            raise InvalidParams("field shape does not match the grid")
        check_unitary(v)

    def check_branch_safety(self):
        """Neighboring overlaps must stay within spectral distance 1.9 of
        the identity on every axis.  As |A|_2 <= |A|_F, only overlaps whose
        Frobenius distance is above 1.9 - 1e-9 (a rounding allowance) or
        NaN get the exact ord=2 norm, an SVD per matrix.  The report names
        the first link in C order within 1e-12 of the axis' worst distance:
        time reversal pairs every link with an image of equal distance, so
        the worst is a tie that rounding alone would break."""
        n = self.values.shape[-1]
        for axis in range(self.grid.dim):
            dev = neighbour_overlaps(self.values, axis) - np.eye(n)
            frob = np.linalg.norm(dev, axis=(-2, -1))
            rough = np.flatnonzero(~(frob <= BRANCH_SAFE_DISTANCE - 1e-9))
            dist = np.linalg.norm(dev.reshape(-1, n, n)[rough], ord=2, axis=(-2, -1))
            if rough.size and dist.max() > BRANCH_SAFE_DISTANCE:
                worst = int(np.flatnonzero(dist >= dist.max() - 1e-12)[0])
                where = tuple(int(i) for i in np.unravel_index(rough[worst], frob.shape))
                raise BranchUnsafe(where, f"(axis {axis}, distance {dist[worst]:.2f})")


def field_from_map(grid: MomentumGrid, fn) -> UnitaryField:
    """The field of ``fn``, which maps the momenta (*sizes, d) of
    ``grid.points()`` to unitary matrices (*sizes, n, n) in one call."""
    return UnitaryField(grid, fn(grid.points()))


def winding1d(field: UnitaryField) -> int:
    """Winding number of det g around a circle; exact by telescoping."""
    if field.grid.dim != 1:
        raise InvalidParams("winding1d needs a 1D field")
    field.check_branch_safety()
    args = np.angle(np.linalg.det(neighbour_overlaps(field.values, 0)))
    worst = float(np.max(np.abs(args)))
    if worst > STEP_ARG_SAFE:
        raise BranchUnsafe(int(np.argmax(np.abs(args))), f"(det step {worst:.2f})")
    total = float(np.sum(args)) / (2.0 * np.pi)
    n = int(np.rint(total))
    if abs(total - n) > 1e-6:
        raise BranchUnsafe("global", f"(winding sum {total:.6f} not integral)")
    return n


@dataclass
class WindingResult:
    value: float
    rounded: int
    residue: float


def _cubic_trace_sum(field: UnitaryField) -> tuple[complex, tuple[float, ...]]:
    """Sum over the grid of tr(g^{-1} dg)^3 by central differences,
    antisymmetrized over the 3! axis orderings, with the grid steps.  The
    trace is cyclic, so the even orderings all equal tr(L0 L1 L2) and the
    odd ones tr(L0 L2 L1) pointwise: the sum is 3 [tr(L0 L1 L2) - tr(L0 L2 L1)]."""
    field.check_branch_safety()
    steps = tuple(2.0 * np.pi / n for n in field.grid.sizes)
    l0, l1, l2 = one_forms(field.values, steps)
    total = 3.0 * np.sum(np.einsum("...ij,...jk,...ki->...", l0, l1, l2)
                         - np.einsum("...ij,...jk,...ki->...", l0, l2, l1))
    return total, steps


def winding3d(field: UnitaryField, residue_tol: float = 0.1) -> WindingResult:
    """(1/24 pi^2) Int tr(g^{-1} dg)^3 by central-difference quadrature,
    antisymmetrized over the 3! axis orderings."""
    if field.grid.dim != 3:
        raise InvalidParams("winding3d needs a 3D field")
    total, steps = _cubic_trace_sum(field)
    cell = float(np.prod(steps))
    value = float((total * cell / (24.0 * np.pi ** 2)).real)
    rounded = int(np.rint(value))
    residue = abs(value - rounded)
    if residue > residue_tol:
        raise ResidueTooLarge(value, residue, residue_tol)
    return WindingResult(value=value, rounded=rounded, residue=residue)


def boundary_index_2d(field: SewingField) -> int:
    """Product of the two boundary-circle indices of a 2D sewing field.

    The circles k2 = 0 and k2 = pi bound the effective Brillouin zone;
    each contributes the parity of its own anchored half-circle index.
    Both are walked on one globally smooth gauge (``field.smooth_w``),
    which ties their winding ambiguities together.
    """
    if field.grid.dim != 2:
        raise InvalidParams("the boundary-circle index is a 2D construction")
    w = field.smooth_w
    n1, n2 = w.shape[:2]
    return (_pf_walk(w, (n1 // 2, n2 // 2), [(0, n1 // 2)], "circle k2=0")
            * _pf_walk(w, (n1 // 2, 0), [(0, n1 // 2)], "circle k2=pi"))


# --- reference maps ---

def degree_one_map(k: np.ndarray) -> np.ndarray:
    """Periodized degree-one SU(2) map of momenta (..., 3), giving
    (..., 2, 2): constant (identity) outside the ball |k| < pi, minus the
    identity at the pole k = 0, wrapping the 3-sphere once through the
    suspension coordinates (cos chi, sin chi * k_hat)."""
    k = np.asarray(k, dtype=float)
    r = np.linalg.norm(k, axis=-1)
    chi = np.pi * (1.0 - _smoothstep(r / np.pi))
    pole = r < 1e-12
    s, r = np.where(pole, 0.0, np.sin(chi)), np.where(pole, 1.0, r)
    khat = k / r[..., None]
    alpha = s * (khat[..., 1] + 1j * khat[..., 0])
    beta = np.where(pole, -1.0, np.cos(chi)) + 1j * s * khat[..., 2]
    return np.stack([np.stack([beta, alpha], axis=-1),
                     np.stack([-np.conj(alpha), np.conj(beta)], axis=-1)], axis=-2)


def degree_one_field(grid: MomentumGrid, power: int = 1) -> UnitaryField:
    """The degree-one map (or its pointwise integer power) on a grid."""
    g = degree_one_map(grid.points())
    if power < 0:
        g = np.conj(np.swapaxes(g, -1, -2))
    return UnitaryField(grid, np.linalg.matrix_power(g, abs(power)))
