"""Noncommutative 2-torus with time reversal, and truncated index pairings.

The clock-shift representation realizes the torus algebra at rational
angle p/q; the time reversal automorphism and its fixed point algebra
generators are verified at the level of formal sums and representations.
Index pairings are computed on hard-truncated Fredholm modules: the
Toeplitz compression on the negative Fourier modes of the circle, and
the flat Dirac phase on Z^3 x C^2 for the three-dimensional pairing.

Raw traces are reported next to calibrated values: the calibration
constants (1/2 in 1D, -1/8 in 3D) are fixed once against the
kernel-counting Toeplitz oracle on the generator loop and the classical
winding number, and never readjusted per input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, ldexp

import numpy as np

from .errors import InvalidParams, NumericallySingular, ResidueTooLarge
from .model import SIGMA


@dataclass(frozen=True)
class ClockShiftRep:
    """U = clock, V = cyclic shift on C^q with U V = e^{2 pi i p/q} V U."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1 or gcd(self.p % self.q, self.q) != 1:
            raise InvalidParams(f"p/q = {self.p}/{self.q} must be a reduced fraction")

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi * self.p / self.q)

    @property
    def clock(self) -> np.ndarray:
        return np.diag(self.omega ** np.arange(self.q))

    @property
    def shift(self) -> np.ndarray:
        v = np.zeros((self.q, self.q), dtype=complex)
        for j in range(self.q):
            v[(j + 1) % self.q, j] = 1.0
        return v

    def monomial(self, m: int, n: int) -> np.ndarray:
        return np.linalg.matrix_power(self.clock, m % self.q if m >= 0 else m) @ \
            np.linalg.matrix_power(self.shift, n % self.q if n >= 0 else n)


def clock_shift(p: int, q: int) -> ClockShiftRep:
    return ClockShiftRep(p=p, q=q)


class NCElement:
    """Finite formal sum of monomials c_{mn} U^m V^n at angle theta.

    Products use the normal ordering V^b U^c = omega^{-bc} U^c V^b derived
    from U V = omega V U; the adjoint and the antilinear time reversal
    action follow the same bookkeeping.
    """

    def __init__(self, theta: Fraction | float, terms: dict | None = None):
        self.theta = Fraction(theta) if not isinstance(theta, Fraction) else theta
        self.terms: dict[tuple[int, int], complex] = {}
        for key, c in (terms or {}).items():
            if abs(c) > 0.0:
                self.terms[(int(key[0]), int(key[1]))] = complex(c)

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi * float(self.theta))

    def __add__(self, other: "NCElement") -> "NCElement":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return NCElement(self.theta, out)

    def __sub__(self, other: "NCElement") -> "NCElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "NCElement":
        return NCElement(self.theta, {k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other: "NCElement") -> "NCElement":
        if not isinstance(other, NCElement):
            return NotImplemented
        w = self.omega
        out: dict[tuple[int, int], complex] = {}
        for (a, b), ca in self.terms.items():
            for (c, d), cb in other.terms.items():
                key = (a + c, b + d)
                phase = w ** (-(b * c))
                out[key] = out.get(key, 0.0) + ca * cb * phase
        return NCElement(self.theta, out)

    def adjoint(self) -> "NCElement":
        w = self.omega
        out: dict[tuple[int, int], complex] = {}
        for (m, n), c in self.terms.items():
            # (U^m V^n)^* = V^{-n} U^{-m} = omega^{-nm} U^{-m} V^{-n}
            out[(-m, -n)] = np.conj(c) * w ** (-(n * m))
        return NCElement(self.theta, out)

    def represent(self, rep: ClockShiftRep) -> np.ndarray:
        if Fraction(rep.p, rep.q) % 1 != self.theta % 1:
            raise InvalidParams("representation angle does not match the element")
        out = np.zeros((rep.q, rep.q), dtype=complex)
        for (m, n), c in self.terms.items():
            out += c * rep.monomial(m, n)
        return out

    def distance(self, other: "NCElement") -> float:
        keys = set(self.terms) | set(other.terms)
        return float(np.sqrt(sum(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) ** 2 for k in keys)))


def generator_u(theta) -> NCElement:
    return NCElement(theta, {(1, 0): 1.0})


def generator_v(theta) -> NCElement:
    return NCElement(theta, {(0, 1): 1.0})


def theta_action(a: NCElement) -> NCElement:
    """Antilinear multiplicative extension of Theta(U) = V*, Theta(V) = -U*.

    On a monomial: Theta(c U^m V^n) = conj(c) (V*)^m (-U*)^n
                 = conj(c) (-1)^n omega^{-mn} U^{-n} V^{-m}.
    """
    w = a.omega
    out: dict[tuple[int, int], complex] = {}
    for (m, n), c in a.terms.items():
        coeff = np.conj(c) * (-1.0) ** n * w ** (-(m * n))
        key = (-n, -m)
        out[key] = out.get(key, 0.0) + coeff
    return NCElement(a.theta, out)


def fixed_point_generators(theta) -> tuple[NCElement, NCElement]:
    """x = i e^{i pi theta} u v*, y = i e^{-i pi theta} v u*; both are
    Theta-invariant unitaries with x* = -y."""
    theta = Fraction(theta) if not isinstance(theta, Fraction) else theta
    u, v = generator_u(theta), generator_v(theta)
    phase = np.exp(1j * np.pi * float(theta))
    x = (1j * phase) * (u * v.adjoint())
    y = (1j / phase) * (v * u.adjoint())
    return x, y


# --- index pairings ---

@dataclass
class PairingResult:
    raw: complex
    calibrated: float
    rounded: int
    residue: float
    cutoff: int

    def to_json(self) -> dict:
        return {
            "raw": [float(self.raw.real), float(self.raw.imag)],
            "calibrated": self.calibrated,
            "rounded": self.rounded,
            "residue": self.residue,
            "cutoff": self.cutoff,
        }


def _symbol_1d(coeffs: dict, cutoff: int, caller: str) -> tuple[dict, int]:
    """Normalize 1D symbol data to {offset: block matrix}; returns the blocks
    and the band limit, which the cutoff must exceed fourfold."""
    out = {}
    band = 0
    for key, val in coeffs.items():
        arr = np.atleast_2d(np.asarray(val, dtype=complex))
        k = key if isinstance(key, tuple) else (int(key),)
        out[k] = arr
        band = max(band, max(abs(x) for x in k))
    if any(len(k) != 1 for k in out):
        raise InvalidParams(f"{caller} expects 1D Fourier data")
    if cutoff < 4 * max(1, band):
        raise InvalidParams("cutoff must be at least 4x the Fourier support")
    return out, band


def toeplitz_index(coeffs: dict, cutoff: int) -> int:
    """Fredholm index of the compression P u P on the truncated
    negative-mode subspace, P = (1 - F)/2 with sign(0) = +1.

    Row i (mode -1-i) meets column j only where j - i is a symbol offset,
    so rows and columns split into decoupled classes, the residues mod the
    gcd g of the offset differences (row/column pairs for a monomial),
    solved with one stacked SVD per class shape.  dim ker and dim coker
    count singular values below 1e-8 and unpaired rows or columns whose
    vectors concentrate at the physical edge (modes near -1), as genuine
    kernel and cokernel vectors of the half-infinite operator do;
    truncation artifacts sit at the far end of the mode window.  A
    singular value in [1e-8, 1e-4], or in [1e-8, s/2) where s is the
    smallest singular value of the symbol on the circle, is neither null
    nor bulk and raises.
    """
    blocks, band = _symbol_1d(coeffs, cutoff, "toeplitz_index")
    offsets = np.array([k[0] for k in blocks])
    b = next(iter(blocks.values())).shape[0]
    table = np.zeros((2 * band + 2, b, b), dtype=complex)  # last entry: no offset
    table[offsets + band] = list(blocks.values())
    theta = np.pi * np.arange(4 * cutoff) / (2 * cutoff)
    symbol = np.einsum("te,eab->tab", np.exp(1j * np.outer(theta, offsets)), table[offsets + band])
    floor = 0.5 * float(np.min(np.linalg.svd(symbol, compute_uv=False)))
    g = int(np.gcd.reduce(offsets - offsets[0])) or 2 * cutoff  # 2N keeps monomial pairs apart
    count = np.stack([np.bincount(np.arange(cutoff) % g, minlength=g),
                      np.bincount((np.arange(cutoff) - offsets[0]) % g, minlength=g)], axis=1)

    index = 0
    for nr, nc in np.unique(count[count.sum(axis=1) > 0], axis=0):
        key = np.nonzero(np.all(count == (nr, nc), axis=1))[0]
        rows = key[:, None] + g * np.arange(nr)
        cols = ((key + offsets[0]) % g)[:, None] + g * np.arange(nc)
        e = cols[:, None, :] - rows[:, :, None]
        t = table[np.where(np.abs(e) <= band, e + band, -1)].transpose(0, 1, 3, 2, 4)
        u, s, vh = np.linalg.svd(t.reshape(len(key), nr * b, nc * b))
        ambiguous = s[(s >= 1e-8) & ((s <= 1e-4) | (s < floor))]
        if ambiguous.size:
            raise NumericallySingular(float(ambiguous[0]), max(1e-4, floor))
        null = np.pad(s < 1e-8, ((0, 0), (0, max(nr, nc) * b - s.shape[1])), constant_values=True)
        top_rows, top_cols = (np.repeat(x < cutoff // 2, b, axis=1) for x in (rows, cols))
        kernel = np.sum(np.abs(vh) ** 2 * top_cols[:, None, :], axis=2) > 0.5
        cokernel = np.sum(np.abs(u) ** 2 * top_rows[:, :, None], axis=1) > 0.5
        index += int(np.sum(kernel & null[:, :nc * b]) - np.sum(cokernel & null[:, :nr * b]))
    return index


def nc_index_pairing_1d(coeffs: dict, cutoff: int,
                        residue_tol: float = 0.1) -> PairingResult:
    """Tr(w^{-1} [F, w]) on modes |n| <= cutoff, calibrated by 1/2.

    The unitary loop's inverse is its adjoint symbol, so the trace is
    sum_ij |w_ij|^2 (f_i - f_j) with f = sign(mode).  Offset e couples
    exactly |e| mode pairs across the origin, each adding 2 sign(e)
    ||w_e||_F^2, so the trace is 2 sum_e e ||w_e||_F^2 once the cutoff
    clears the Fourier support.
    """
    blocks, _ = _symbol_1d(coeffs, cutoff, "nc_index_pairing_1d")
    raw = complex(2.0 * sum(k[0] * np.sum(np.abs(bl) ** 2) for k, bl in blocks.items()))
    calibrated = raw.real / 2.0
    rounded = int(np.rint(calibrated))
    residue = abs(calibrated - rounded)
    if residue > residue_tol:
        raise ResidueTooLarge(calibrated, residue, residue_tol)
    return PairingResult(raw=raw, calibrated=calibrated, rounded=rounded,
                         residue=residue, cutoff=cutoff)


# --- 3D pairing on the flat Dirac module ---

def _dirac_phase_field(cutoff: int) -> np.ndarray:
    """F(n) = sigma . n / |n| on the mode cube, with F(0) = +1."""
    ax = np.arange(-cutoff, cutoff + 1)
    n1, n2, n3 = np.meshgrid(ax, ax, ax, indexing="ij")
    norm = np.sqrt(n1 ** 2 + n2 ** 2 + n3 ** 2)
    norm[norm == 0.0] = 1.0
    f = (n1[..., None, None] * SIGMA[1] + n2[..., None, None] * SIGMA[2]
         + n3[..., None, None] * SIGMA[3]) / norm[..., None, None]
    center = (cutoff, cutoff, cutoff)
    f[center] = SIGMA[0]
    return f


def _box_overlap(r, L: int) -> tuple[tuple, tuple]:
    """Slices (dst, src) of the sites m and m - r that both lie in the box."""
    return (tuple(slice(max(0, d), L + min(0, d)) for d in r),
            tuple(slice(max(0, -d), L - max(0, d)) for d in r))


def _hopping_fields(blocks: dict, inv_blocks: dict, cutoff: int):
    """Offset fields of A = w^{-1}[F, w] on the truncated mode cube.

    The commutator has one field per symbol offset e, (F - F(. - e)) x w_e,
    and composing with the constant inverse-symbol fields under hard
    truncation gives a_r(m) = sum_{r1 + e = r} [m - r1 in box]
    (F(m - r1) - F(m - r1 - e)) x (w^{-1}_{r1} w_e).  Returns the offsets
    (n, 3) and the fields (n, L, L, L, 4, 4), spinor slot first.
    """
    L = 2 * cutoff + 1
    f = _dirac_phase_field(cutoff)
    diffs = np.repeat(f[None], len(blocks), axis=0)
    for d, e in zip(diffs, blocks):
        dst, src = _box_overlap(e, L)
        d[dst] -= f[src]
    sums = [np.add(r1, e) for r1 in inv_blocks for e in blocks]
    offsets, slot = np.unique(sums, axis=0, return_inverse=True)
    fields = np.zeros((len(offsets), L, L, L, 2, 2, 2, 2), dtype=complex)
    for (r1, winv), targets in zip(inv_blocks.items(), slot.reshape(len(inv_blocks), -1)):
        aux = np.stack([winv @ bl for bl in blocks.values()])
        dst, src = _box_overlap(r1, L)
        fields[(targets,) + dst] += (diffs[(slice(None),) + src][..., :, None, :, None]
                                     * aux[:, None, None, None, None, :, None, :])
    return offsets, fields.reshape(len(offsets), L, L, L, 4, 4)


def _trace_of_triple(offsets: np.ndarray, fields: np.ndarray,
                     prune: float = 1e-7) -> complex:
    """Tr(A^3) for A_{m, m - r} = a_r(m), fields[i] = a_r for r = offsets[i].

    Each closed triangle (r1, r2, r3 = -r1-r2) adds sum_m tr a_r1(m)
    a_r2(m - r1) a_r3(m + r3) over its own box, where all three hops stay in
    the truncation; triangles whose norm product is negligible at working
    precision are pruned (fields below 1e-14 always are).  Cyclic rotations
    touch the same sites, so one per orbit is summed with weight 3 (1 for
    r1 = r2 = r3): the one whose first hop leaves the fewest sites.  These
    are grouped by r1 and contracted over the sites m, m - r1 in the box,
    one matmul of inner dimension b |r2| per m; the third factor is
    weighted by 0 where m + r3 leaves the box.
    """
    n, L, b = len(offsets), fields.shape[1], fields.shape[-1]
    sites = L ** 3
    flat = fields.reshape(n * sites, b, b)
    norms = np.array([np.max(np.abs(x)) for x in fields])

    # closed triangles, via integer codes that add like the offsets
    radix = 4 * int(np.max(np.abs(offsets))) + 1
    codes = offsets @ np.array([radix * radix, radix, 1])
    lookup = np.full(radix ** 3, -1)
    lookup[codes + radix ** 3 // 2] = np.arange(n)
    k = lookup[radix ** 3 // 2 - codes[:, None] - codes[None, :]]
    i, j = np.nonzero(k >= 0)
    k = k[i, j]
    room = np.prod(L - np.abs(offsets), axis=1)
    order = [((room[x] * n + x) * n + y) * n + z for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
    fixed = (i == j) & (j == k)
    short = np.max(np.abs(offsets), axis=1) < L  # else no box holds the hop
    keep = ((norms[i] * norms[j] * norms[k] >= prune * np.max(norms) ** 3)
            & short[i] & short[j] & short[k]
            & (fixed | ((order[0] < order[1]) & (order[0] < order[2]))))
    i, j, k, weight = i[keep], j[keep], k[keep], np.where(fixed, 1.0, 3.0)[keep]

    strides = np.array([L * L, L, 1])
    total = 0.0 + 0.0j
    starts = np.unique(i, return_index=True)[1]  # nonzero keeps i sorted
    for lo, hi in zip(starts, np.append(starts[1:], len(i))):
        p = i[lo]
        r1, r2s, r3s, w = offsets[p], j[lo:hi], offsets[k[lo:hi]], weight[lo:hi]
        base3 = k[lo:hi] * sites + r3s @ strides
        m = np.indices(L - np.abs(r1)).reshape(3, -1).T + np.maximum(0, r1)
        mflat = m @ strides
        step = max(1, 4096 // len(r2s))  # gathered factors of about 1 MB each
        for c in range(0, len(m), step):
            mc, mf = m[c:c + step], mflat[c:c + step]
            y = mc[:, None, :] + r3s[None]
            inside = np.all((y >= 0) & (y < L), axis=2)
            third = np.take(flat, np.where(inside, mf[:, None] + base3, 0), axis=0)
            third *= (inside * w)[:, :, None, None]
            second = np.take(flat, (mf - r1 @ strides)[:, None] + r2s * sites, axis=0)
            row = np.ascontiguousarray(second.transpose(0, 2, 1, 3))
            pair = np.matmul(row.reshape(len(mf), b, -1), third.reshape(len(mf), -1, b))
            total += np.einsum("sij,sji->", np.take(flat, p * sites + mf, axis=0), pair)
    return complex(total)


def _blocks_3d(coeffs: dict) -> tuple[dict, int]:
    blocks = {}
    band = 0
    for key, val in coeffs.items():
        arr = np.asarray(val, dtype=complex)
        if arr.shape != (2, 2):
            raise InvalidParams("3D pairing expects 2x2 spinor blocks")
        k = tuple(int(x) for x in key)
        if len(k) != 3:
            raise InvalidParams("3D pairing expects 3-component offsets")
        blocks[k] = arr
        band = max(band, max(abs(x) for x in k))
    return blocks, band


def _inverse_symbol_blocks(blocks: dict) -> dict:
    """Fourier coefficients of the pointwise inverse symbol, from its
    values on a 32^3 mesh, truncated at offsets |r_i| <= 3; the symbol
    must be invertible everywhere."""
    samples, band_limit = 32, 3
    ks = 2.0 * np.pi * np.arange(samples) / samples
    k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
    w = np.zeros((samples, samples, samples, 2, 2), dtype=complex)
    for r, bl in blocks.items():
        phase = np.exp(1j * (r[0] * k1 + r[1] * k2 + r[2] * k3))
        w += phase[..., None, None] * bl
    # |det w| < 1e-6, tested on w / 2^e with |w / 2^e| < 1: an exact scaling,
    # the identity at |w| < 1, under which no determinant overflows
    e = max(0, int(np.frexp(np.max(np.abs(w)))[1]))
    smallest = float(np.min(np.abs(np.linalg.det(w * ldexp(1.0, -e)))))
    if smallest < ldexp(1e-6, -2 * e):
        raise InvalidParams(
            f"symbol is numerically singular (|det| = {ldexp(smallest, 2 * e):.2e})")
    winv = np.linalg.inv(w)
    # c_r = (1/M^3) sum_k winv(k) e^{-i k.r}, which is fftn up to 1/M^3
    co = np.fft.fftn(winv, axes=(0, 1, 2)) / samples ** 3
    span = range(-band_limit, band_limit + 1)
    out = {r: co[tuple(np.mod(r, samples))] for r in itertools.product(span, span, span)}
    out = {r: bl for r, bl in out.items() if float(np.max(np.abs(bl))) > 1e-12}
    if not out:
        raise InvalidParams("symbol too large: no inverse coefficient is above 1e-12")
    return out


def nc_index_pairing_3d(coeffs: dict, cutoff: int,
                        residue_tol: float = 0.25) -> PairingResult:
    """Calibrated Tr[(w^{-1}[F, w])^3] on the truncated cube of Fourier
    modes tensor the Dirac spinor slot tensor the symbol's own C^2 slot.

    The spinor slot (where F = sigma.n/|n| acts) and the symbol slot are
    distinct tensor factors, so every factor of the cubed expression is a
    commutator with 1/|n| decay.  Convergence in the cutoff is still slow
    (the trace is only conditionally confined), which is why the residue
    allowance is generous; the calibrated value approaches the winding
    number of the symbol from below as the cutoff grows.
    """
    blocks, band = _blocks_3d(coeffs)
    if band * 4 > max(4, cutoff):
        raise InvalidParams("symbol support must stay within cutoff/4")
    raw = _trace_of_triple(*_hopping_fields(blocks, _inverse_symbol_blocks(blocks), cutoff))
    calibrated = -float(raw.real) / 8.0
    rounded = int(np.rint(calibrated))
    residue = abs(calibrated - rounded)
    if residue > residue_tol:
        raise ResidueTooLarge(calibrated, residue, residue_tol)
    return PairingResult(raw=raw, calibrated=calibrated, rounded=rounded,
                         residue=residue, cutoff=cutoff)


def lattice_degree_one_coeffs(mass: float = -2.0) -> dict:
    """Fourier data of the invertible degree-one lattice symbol
    (mass + sum cos k_i) + i sum sin k_i sigma_i; band limit 1."""
    out = {(0, 0, 0): mass * SIGMA[0]}
    for axis in range(3):
        e = [0, 0, 0]
        e[axis] = 1
        plus = 0.5 * SIGMA[0] + 0.5 * SIGMA[axis + 1]
        minus = 0.5 * SIGMA[0] - 0.5 * SIGMA[axis + 1]
        out[tuple(e)] = plus
        out[tuple(-x for x in e)] = minus
    return out


def winding_loop_coeffs(winding: int) -> dict:
    """Fourier data of the scalar loop e^{i * winding * theta}."""
    return {(int(winding),): np.array([[1.0 + 0.0j]])}
