"""Periodic grid kernels shared by the lattice invariants and quadratures."""

from __future__ import annotations

from itertools import permutations

import numpy as np


def central_diff(arr: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Fourth-order periodic central difference along a grid axis,
    (8 f(+1) - 8 f(-1) - f(+2) + f(-2)) / 12h."""
    return (
        8.0 * (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis))
        - (np.roll(arr, -2, axis=axis) - np.roll(arr, 2, axis=axis))
    ) / (12.0 * step)


def neighbour_overlaps(f: np.ndarray, axis: int) -> np.ndarray:
    """F(k)^dagger F(k + e_axis) for a field of frames (..., n, m), periodic."""
    return np.einsum("...im,...ik->...mk", np.conj(f), np.roll(f, -1, axis=axis))


def one_forms(f: np.ndarray, steps: tuple[float, ...]) -> list[np.ndarray]:
    """F^dagger d_mu F along each grid axis mu with step steps[mu], by
    central differences."""
    return [np.einsum("...im,...ik->...mk", np.conj(f), central_diff(f, mu, h))
            for mu, h in enumerate(steps)]


def levi_civita_sum(term) -> complex:
    """Sum of sign(p) * term(*p) over the 3! orderings p of the axes (0, 1, 2)."""
    total = 0.0 + 0.0j
    for perm in permutations((0, 1, 2)):
        sign = 1.0 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
        total += sign * term(*perm)
    return total
