"""Dense complex matrix services: structure checks, Hermitian
eigendecomposition with a deterministic phase convention, and the Pfaffian
of a skew-symmetric matrix (Parlett-Reid tridiagonalization with pivoting).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ldexp

import numpy as np

from .errors import NonHermitian, NotSkewSymmetric, NotUnitary, OddDimension

STRUCT_TOL = 1e-9
PF_MIN = 1e-6  # |pf| at or below this is an accidental gap closing at a fixed point


def _tol(a: np.ndarray):
    """STRUCT_TOL * max(1, |a|_F), per matrix of a stack (..., n, n); from
    max |a| >= 2^480 on, through the exact scaling a / 2^e: no square overflows."""
    e = max(0, int(np.frexp(np.abs(a).max(initial=0.0))[1]) - 480)
    a = a * ldexp(1.0, -e) if e else a
    return STRUCT_TOL * np.maximum(ldexp(1.0, -e), np.linalg.norm(a, axis=(-2, -1))) * ldexp(1.0, e)


def hermitian_deviation(a: np.ndarray):
    """Frobenius norm of a - a^dagger, per matrix of a stack (..., n, n)."""
    return np.linalg.norm(a - np.conj(np.swapaxes(a, -1, -2)), axis=(-2, -1))


def check_hermitian(h: np.ndarray) -> None:
    """NonHermitian for the first matrix (C order) of a stack (..., n, n)
    above the structure tolerance, at flat position ``index``."""
    dev = hermitian_deviation(h)
    bad = np.flatnonzero(dev > _tol(h))
    if bad.size:
        raise NonHermitian(float(dev.flat[bad[0]]), index=int(bad[0]))


def unitary_deviation(a: np.ndarray):
    """Frobenius norm of a^dagger a - 1, per matrix of a stack (..., n, n)."""
    n = a.shape[-1]
    return np.linalg.norm(
        np.einsum("...ij,...ik->...jk", np.conj(a), a) - np.eye(n), axis=(-2, -1))


def check_unitary(a: np.ndarray, locate=None) -> float:
    """The largest unitary_deviation over a stack (..., n, n).

    NotUnitary names the worst matrix by its stack index, or by
    ``locate(index)``, when its deviation exceeds 1e-8 or is not finite
    (argmax lands on the first NaN).
    """
    dev = unitary_deviation(a)
    worst = int(np.argmax(dev))
    value = float(dev.flat[worst])
    if not value <= 1e-8:
        where = tuple(int(i) for i in np.unravel_index(worst, dev.shape))
        raise NotUnitary(where if locate is None else locate(where), value)
    return value


def skew_deviation(a: np.ndarray) -> float:
    return float(np.linalg.norm(a + a.T))


@dataclass
class EigenSystem:
    """Ascending eigenvalues (..., n) and orthonormal eigenvector columns
    (..., n, n)."""

    values: np.ndarray
    vectors: np.ndarray


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive.

    Works on one matrix (n, m) or a stack (..., n, m).  Makes repeated
    decompositions of identical input comparable; the remaining gauge
    freedom inside degenerate subspaces is handled by the consumers that
    care (sewing-matrix and smooth-gauge construction).
    """
    out = np.array(vectors, dtype=complex, copy=True)
    top = np.argmax(np.abs(out), axis=-2)[..., None, :]
    z = np.take_along_axis(out, top, axis=-2)
    size = np.abs(z)
    out *= np.where(size > 0.0, np.conj(z) / np.where(size > 0.0, size, 1.0), 1.0)
    return out


def eigh(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or of a stack (..., n, n)
    of them, with fixed phases.

    Every matrix is checked on its own; NonHermitian reports the first
    failing one in C order, whose flat position is ``index``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NonHermitian(float("inf"))
    check_hermitian(h)
    values, vectors = np.linalg.eigh(h)
    return EigenSystem(values=values, vectors=fix_phases(vectors))


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian stack (..., n, n), each matrix
    checked as by eigh."""
    h = np.asarray(h, dtype=complex)
    check_hermitian(h)
    return np.linalg.eigvalsh(h)


def pfaffian(a: np.ndarray) -> complex:
    """Pfaffian of an even-dimensional complex skew-symmetric matrix.

    Skew-symmetric tridiagonalization with partial pivoting: Gauss
    transforms G with det(G) = 1 give pf(G A G^T) = pf(A), so the Pfaffian
    is the product of superdiagonal pivots times the swap parity.  O(n^3),
    stable at the dimensions used here.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSkewSymmetric(float("inf"))
    n = a.shape[0]
    if n % 2 != 0:
        raise OddDimension(n)
    dev = skew_deviation(a)
    if dev > _tol(a):
        raise NotSkewSymmetric(dev)
    if n == 0:
        return 1.0 + 0.0j

    A = 0.5 * (a - a.T)  # exact skew part; bounded change by the check above
    pf = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp], :] = A[[kp, k + 1], :]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            pf = -pf
        pivot = A[k, k + 1]
        if pivot == 0.0:
            return 0.0 + 0.0j
        pf *= pivot
        tau = A[k, k + 2:] / pivot
        col = A[k + 2:, k + 1]
        A[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf * A[n - 2, n - 1]
