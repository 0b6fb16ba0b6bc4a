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
from numpy.lib.stride_tricks import sliding_window_view

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
    """Normalize 1D symbol data to {(offset,): block}; returns the blocks
    and the band limit, which the cutoff must exceed fourfold.  Offsets
    are distinct integers and blocks finite square matrices of one size."""
    keys = [key if isinstance(key, tuple) else (key,) for key in coeffs]
    if not keys or len(set(keys)) < len(keys) or any(  # 1 and (1,) name one offset
            len(k) != 1 or not isinstance(k[0], (int, np.integer)) for k in keys):
        raise InvalidParams(f"{caller} expects 1D Fourier data keyed by distinct integer offsets")
    out = {(int(k[0]),): np.atleast_2d(np.asarray(val, dtype=complex))
           for k, val in zip(keys, coeffs.values())}
    shape = next(iter(out.values())).shape
    if len(shape) != 2 or shape[0] != shape[1] or any(
            arr.shape != shape or not np.all(np.isfinite(arr)) for arr in out.values()):
        raise InvalidParams(f"{caller} expects finite square blocks of one size")
    band = max(abs(k[0]) for k in out)
    if cutoff < 4 * max(1, band):
        raise InvalidParams("cutoff must be at least 4x the Fourier support")
    return out, band


def _symbol_floor(samples: np.ndarray) -> float:
    """Half the smallest singular value of the symbol samples (n, b, b);
    a 1x1 sample's singular value is its modulus."""
    sv = np.abs(samples) if samples.shape[-1] == 1 else np.linalg.svd(samples, compute_uv=False)
    return 0.5 * float(np.min(sv))


def _class_solve(t: np.ndarray, top_rows: np.ndarray, top_cols: np.ndarray):
    """Singular values (k, min(r, c)) of a stack of (r, c) classes, and for
    each right and left singular vector whether over half its weight sits
    on top_cols (k, c) and top_rows (k, r).  A class of at most one row
    and one column is its own SVD, s = |t| with unit-modulus vectors."""
    k, r, c = t.shape
    if max(r, c) == 1:
        return np.abs(t.reshape(k, r * c)), top_cols, top_rows
    u, s, vh = np.linalg.svd(t)
    return (s, np.sum(np.abs(vh) ** 2 * top_cols[:, None, :], axis=2) > 0.5,
            np.sum(np.abs(u) ** 2 * top_rows[:, :, None], axis=1) > 0.5)


def toeplitz_index(coeffs: dict, cutoff: int) -> int:
    """Fredholm index of the compression P u P on the truncated
    negative-mode subspace, P = (1 - F)/2 with sign(0) = +1.

    Row i (mode -1-i) meets column j only where j - i is a symbol offset,
    so rows and columns split into decoupled classes, the residues mod the
    gcd g of the offset differences (row/column pairs for a monomial),
    solved with one stacked SVD per class shape.  A 1x1 sample's singular
    value is its modulus, and a class of at most one row and one column
    (every class of a scalar monomial) is its own SVD (`_class_solve`), so
    a scalar monomial takes no LAPACK call.  dim ker and dim coker count
    singular values below 1e-8 and unpaired rows or columns whose vectors
    concentrate at the physical edge (modes near -1), as genuine kernel and
    cokernel vectors of the half-infinite operator do; truncation artifacts
    sit at the far end of the mode window.  A singular value in [1e-8,
    1e-4], or in [1e-8, s/2) where s is the smallest singular value of the
    symbol on the circle, is neither null nor bulk and raises.
    """
    blocks, band = _symbol_1d(coeffs, cutoff, "toeplitz_index")
    offsets = np.array([k[0] for k in blocks])
    b = next(iter(blocks.values())).shape[0]
    table = np.zeros((2 * band + 2, b, b), dtype=complex)  # last entry: no offset
    table[offsets + band] = list(blocks.values())
    theta = np.pi * np.arange(4 * cutoff) / (2 * cutoff)
    symbol = np.einsum("te,eab->tab", np.exp(1j * np.outer(theta, offsets)), table[offsets + band])
    floor = _symbol_floor(symbol)
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
        top_rows, top_cols = (np.repeat(x < cutoff // 2, b, axis=1) for x in (rows, cols))
        s, kernel, cokernel = _class_solve(t.reshape(len(key), nr * b, nc * b), top_rows, top_cols)
        ambiguous = s[(s >= 1e-8) & ((s <= 1e-4) | (s < floor))]
        if ambiguous.size:
            raise NumericallySingular(float(ambiguous[0]), max(1e-4, floor))
        null = np.pad(s < 1e-8, ((0, 0), (0, max(nr, nc) * b - s.shape[1])), constant_values=True)
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


def _hopping_fields(blocks: dict, inv_blocks: dict, cutoff: int):
    """Offset fields of A = w^{-1}[F, w] on the truncated mode cube.

    The commutator has one field per symbol offset e, (F - F(. - e)) x w_e,
    and composing with the constant inverse-symbol fields under hard
    truncation gives a_r(m) = sum_{r1 + e = r} [m - r1 in box]
    (F(m - r1) - F(m - r1 - e)) x (w^{-1}_{r1} w_e).  Returns the offsets
    (n, 3), the max of each |a_r| over the whole box (n,), and the fields on
    their operator domains (m and m - r in the box), spinor slot first: C
    order, offset after offset, in one (rows + 1, 4, 4) array whose last row
    is zero."""
    L = 2 * cutoff + 1
    offsets = np.unique([np.add(r1, e) for r1 in inv_blocks for e in blocks], axis=0)
    # term q of a_r: window pad - r1 of diffs[q] is [m - r1 in box] (F - F(. - e_q))(m - r1)
    r1 = offsets[:, None] - np.array(list(blocks))
    pad = int(max(np.max(np.abs(r1)), np.max(np.abs(list(blocks)))))
    f = np.pad(_dirac_phase_field(cutoff), [(pad, pad)] * 3 + [(0, 0)] * 2)
    inside = np.pad(np.ones((L,) * 3), pad)[..., None, None]
    diffs = np.stack([(f - np.roll(f, e, axis=(0, 1, 2))) * inside for e in blocks])
    windows = np.moveaxis(sliding_window_view(diffs, (L, L, L), axis=(1, 2, 3)), (4, 5), (7, 8))
    winv = np.zeros((2 * pad + 1,) * 3 + (2, 2), dtype=complex)  # zero where no coefficient sits
    winv[tuple(np.add(list(inv_blocks), pad).T)] = list(inv_blocks.values())
    aux = (winv[tuple(np.moveaxis(r1 + pad, -1, 0))]
           @ np.stack(list(blocks.values()))).reshape(len(offsets), len(blocks), 4)
    ok = (np.arange(L) >= offsets[..., None]) & (np.arange(L) < L + offsets[..., None])
    fields = np.zeros((np.prod(ok.sum(axis=2), axis=1).sum() + 1, 4, 4), dtype=complex)
    norms = np.empty(len(offsets))
    row, batch = 0, max(1, 2048 // L ** 3)
    for x in (slice(lo, lo + batch) for lo in range(0, len(offsets), batch)):
        g = windows[(np.arange(len(blocks)),) + tuple(np.moveaxis(pad - r1[x], -1, 0))]
        # full[(m, s, u), (t, v)] = sum_q diffs_q[s, u](m - r1) aux_q[t, v]
        full = np.matmul(g.reshape(*g.shape[:2], -1).transpose(0, 2, 1), aux[x])
        norms[x] = np.max(np.abs(full), axis=(1, 2))
        dom = ok[x, 0, :, None, None] & ok[x, 1, None, :, None] & ok[x, 2, None, None, :]
        block = full.reshape(len(g), -1, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        fields[row:row + dom.sum()] = block[dom.reshape(len(g), -1)].reshape(-1, 4, 4)
        row += dom.sum()
    return offsets, norms, fields


def _trace_of_triple(offsets: np.ndarray, norms: np.ndarray, fields: np.ndarray,
                     L: int, prune: float = 1e-7) -> complex:
    """Tr(A^3) for A_{m, m - r} = a_r(m) on an L^3 box, with the offsets,
    whole-box norms and compact fields of _hopping_fields.

    Each closed triangle (r1, r2, r3 = -r1-r2) adds sum_m tr a_r1(m)
    a_r2(m - r1) a_r3(m + r3) over its own box, where all three hops stay in
    the truncation; triangles whose norm product is negligible at working
    precision are pruned (fields below 1e-14 always are).  Cyclic rotations
    touch the same sites, so one per orbit is summed with weight 3 (1 for
    r1 = r2 = r3 = 0): the one whose first hop leaves the fewest sites.  The
    partners of each r1, found by looking up r3, are contracted over the
    domain of a_r1, one matmul of inner dimension b |r2| per m; a third site
    m + r3 outside the box reads the zero row."""
    b = fields.shape[-1]
    floor = prune * np.max(norms) ** 3
    shape = np.maximum(L - np.abs(offsets), 0)
    # an offset that leaves no site in the box has no rows and closes no triangle
    offsets, norms, shape = (x[np.all(shape > 0, axis=1)] for x in (offsets, norms, shape))
    room = np.prod(shape, axis=1)
    starts = np.cumsum(room) - room
    n = len(offsets)
    strides = np.stack([shape[:, 1] * shape[:, 2], shape[:, 2], np.ones_like(room)], axis=1)

    # closed triangles, via integer codes that add like the offsets
    radix = 4 * int(np.max(np.abs(offsets), initial=0)) + 1
    codes = offsets @ np.array([radix * radix, radix, 1])
    mid = radix ** 3 // 2
    lookup = np.full(radix ** 3, -1)
    lookup[codes + mid] = np.arange(n)
    key = (room * n + np.arange(n)) * n  # rotations compare by (room, index) of the first hop
    z = lookup[mid]  # r1 = r2 = r3 = 0, an orbit of one
    a = fields[starts[z]:][:room[z]] if z >= 0 and norms[z] ** 3 >= floor else fields[:0]
    total = complex(np.einsum("sij,sjk,ski->", a, a, a))
    for i in range(n):
        j, k = np.arange(n), lookup[mid - codes[i] - codes]
        order = (key[i] + j) * n + k
        j = np.flatnonzero((k >= 0) & (norms[i] * norms * norms[k] >= floor)
                           & (order < (key + k) * n + i) & (order < (key[k] + i) * n + j))
        k = k[j]
        # u: coordinates of m - r1 | m + r3 in the domains of a_r2 | a_r3, for m in that of a_r1
        t = np.concatenate([j, k])
        u = np.maximum(0, offsets[i])[:, None, None] + np.arange(L)[:, None] + np.concatenate(
            [-np.maximum(0, offsets[j]) - offsets[i], np.minimum(0, offsets[k])]).T[:, None]
        part = np.where(u.view(np.uint64) < shape.T[:, None, t].astype(np.uint64),
                        u * strides.T[:, None, t], len(fields) - 1)
        pairs = (starts[t] + part[0, :shape[i, 0], None, None] + part[1, None, :shape[i, 1], None]
                 + part[2, None, None, :shape[i, 2]]).reshape(room[i], len(t))
        step = 1024 // max(1, len(j))  # gathered factors of 256 kB each
        for c in range(0, room[i], step):
            both = np.take(fields, pairs[c:c + step], axis=0, mode="clip")
            row = np.ascontiguousarray(both[:, :len(j)].transpose(0, 2, 1, 3))
            pair = row.reshape(len(both), b, -1) @ both[:, len(j):].reshape(len(both), -1, b)
            total += 3.0 * np.einsum("sij,sji->", fields[starts[i] + c:][:len(both)], pair)
    return complex(total)


def _blocks_3d(coeffs: dict) -> tuple[dict, int]:
    """3D symbol data as {offset: 2x2 block} and its band limit; an offset
    is three integers (1.5 is refused, not truncated onto 1)."""
    blocks = {}
    band = 0
    for key, val in coeffs.items():
        arr = np.asarray(val, dtype=complex)
        if arr.shape != (2, 2):
            raise InvalidParams("3D pairing expects 2x2 spinor blocks")
        if not (isinstance(key, tuple) and len(key) == 3
                and all(isinstance(x, (int, np.integer)) for x in key)):
            raise InvalidParams("3D pairing expects offsets of three integers")
        blocks[tuple(int(x) for x in key)] = arr
        band = max(band, max(abs(int(x)) for x in key))
    return blocks, band


def _inverse_symbol_blocks(blocks: dict) -> dict:
    """Fourier coefficients of the pointwise inverse symbol, from its
    values on a 32^3 mesh, truncated at offsets |r_i| <= 3; the symbol
    must be invertible everywhere."""
    samples, band_limit = 32, 3
    w = np.zeros((samples,) * 3 + (2, 2), dtype=complex)
    np.add.at(w, tuple(np.mod(list(blocks), samples).T), list(blocks.values()))
    # w(k) = sum_r w_r e^{i k.r}, an unnormalised inverse FFT; |det w| < 1e-6 is tested on
    # w / 2^e < 1, an exact scaling (none at |w| < 1) under which no determinant overflows
    w = np.fft.ifftn(w, axes=(0, 1, 2), norm="forward")
    e = max(0, int(np.frexp(np.max(np.abs(w)))[1]))
    w *= ldexp(1.0, -e)
    det = w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    smallest = float(np.min(np.abs(det)))
    if smallest < ldexp(1e-6, -2 * e):
        raise InvalidParams(
            f"symbol is numerically singular (|det| = {ldexp(smallest, 2 * e):.2e})")
    # w^{-1} = adj(w) / det, in place, with the scaling undone
    w[..., [0, 1], [0, 1]] = w[..., [1, 0], [1, 0]]
    w[..., [0, 1], [1, 0]] *= -1.0
    w *= (ldexp(1.0, -e) / det)[..., None, None]
    # c_r = (1/M^3) sum_k winv(k) e^{-i k.r}
    co = np.fft.fftn(w, axes=(0, 1, 2), norm="forward")
    span = range(-band_limit, band_limit + 1)
    out = {r: co[tuple(np.mod(r, samples))].copy() for r in itertools.product(span, span, span)}
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
    raw = _trace_of_triple(*_hopping_fields(blocks, _inverse_symbol_blocks(blocks), cutoff),
                          2 * cutoff + 1)
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
