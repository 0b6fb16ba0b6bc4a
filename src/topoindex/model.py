"""Time-reversal-invariant Bloch Hamiltonian families.

Provides negation-symmetric momentum grids with TRIM enumeration, the
antiunitary time reversal operator, built-in reference models, ribbon
(open-boundary) Hamiltonians obtained by partial Fourier transform, and a
JSON ingestion format for user models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    HoppingRangeTooLong,
    InvalidParams,
    NonHermitianInput,
    SchemaError,
    UnknownModel,
)
from .linalg import hermitian_deviation

SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

GAP_TOL = 1e-6
# Rows of the largest Bloch or ribbon matrix a command builds: 16 MB of
# complex entries.  Caps atomic-limit bands and ribbon width * bands.
MAX_MATRIX_ROWS = 1024
# Caps the CLI's --grid: prod(sizes) * bands^2 Hamiltonian entries, 256 MB.
MAX_GRID_ENTRIES = 1 << 24
GRID_CHUNK_ENTRIES = 1 << 13  # Hamiltonian entries per chunk of a grid-wide pass: 128 KB


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform grid k_i = -pi + 2*pi*m_i/N_i on the Brillouin torus.

    Sizes must be even so every grid is closed under k -> -k and contains
    all 2^d points with coordinates in {0, pi} (pi represented by -pi).
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or len(self.sizes) > 3:
            raise InvalidParams("grid dimension must be 1, 2 or 3")
        if any(n < 4 or n % 2 for n in self.sizes):
            raise InvalidParams("grid sizes must be even and at least 4")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    def axis(self, i: int) -> np.ndarray:
        n = self.sizes[i]
        return -np.pi + 2.0 * np.pi * np.arange(n) / n

    def point(self, idx: tuple[int, ...]) -> np.ndarray:
        return np.array([self.axis(i)[m] for i, m in enumerate(idx)])

    def points(self) -> np.ndarray:
        """Every grid momentum at once, shape (*sizes, dim), C order."""
        axes = np.meshgrid(*(self.axis(i) for i in range(self.dim)), indexing="ij")
        return np.stack(axes, axis=-1)

    def trim_indices(self) -> list[tuple[int, ...]]:
        """Indices of the 2^d time-reversal fixed points, lexicographic in
        (0, pi) coordinates; the top-codimension point (pi,..,pi) is last."""
        per_axis = [(n // 2, 0) for n in self.sizes]  # k=0 index, k=pi index
        out = []
        for choice in itertools.product((0, 1), repeat=self.dim):
            out.append(tuple(per_axis[i][c] for i, c in enumerate(choice)))
        return out


@dataclass
class TimeReversal:
    """Antiunitary operator Theta psi = U conj(psi) with Theta^2 = -1."""

    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        object.__setattr__(self, "unitary", u)
        n = u.shape[0]
        if np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-10:
            raise InvalidParams("time reversal unitary part is not unitary")
        if np.linalg.norm(u @ u.conj() + np.eye(n)) > 1e-12:
            raise InvalidParams("time reversal must square to -1")


def standard_theta(bands: int) -> TimeReversal:
    """Theta = i sigma_2 (x) I on a spin-major basis."""
    if bands % 2:
        raise InvalidParams("standard time reversal needs an even band count")
    isy = np.array([[0, 1], [-1, 0]], dtype=complex)
    return TimeReversal(np.kron(isy, np.eye(bands // 2)))


@dataclass
class BlochFamily:
    """A map k -> H(k) with band bookkeeping and optional time reversal.

    ``evaluate`` takes momenta of shape (..., dim) and returns Hamiltonians
    of shape (..., bands, bands); a single momentum (dim,) gives one matrix.
    """

    dim: int
    bands: int
    occupied: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    time_reversal: TimeReversal | None = None
    hopping_range: int | None = 1
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.time_reversal is not None and self.occupied % 2:
            raise InvalidParams("occupied band count must be even (Kramers pairs)")
        if not 0 < self.occupied < self.bands:
            raise InvalidParams("need 0 < occupied < bands")

    def h(self, k) -> np.ndarray:
        return self.evaluate(np.asarray(k, dtype=float))

    def min_gap(self, grid: MomentumGrid) -> float:
        return float(np.min([np.min(np.abs(np.linalg.eigvalsh(self.h(k))))
                             for k in _grid_chunks(self, grid)]))


def _grid_chunks(model: BlochFamily, grid: MomentumGrid):
    """The grid momenta in flat C-order chunks of at most GRID_CHUNK_ENTRIES
    Hamiltonian entries, so a grid-wide pass holds one chunk's matrices at a time."""
    k = grid.points().reshape(-1, grid.dim)
    step = max(1, GRID_CHUNK_ENTRIES // model.bands ** 2)
    return (k[i:i + step] for i in range(0, len(k), step))


@dataclass
class TrsReport:
    max_deviation: float
    passed: bool


def check_trs(model: BlochFamily, grid: MomentumGrid) -> TrsReport:
    """Verify Theta H(k) Theta* = H(-k) over a grid, to 1e-10 (Frobenius)."""
    if model.time_reversal is None:
        raise InvalidParams("model carries no time reversal operator")
    u = model.time_reversal.unitary
    worst = float(np.max([
        np.max(np.linalg.norm(u @ np.conj(model.h(k)) @ u.conj().T - model.h(-k), axis=(-2, -1)))
        for k in _grid_chunks(model, grid)]))
    return TrsReport(max_deviation=worst, passed=worst <= 1e-10)


def direct_sum(a: BlochFamily, b: BlochFamily, name: str | None = None) -> BlochFamily:
    """Decoupled stack of two families (block-diagonal Hamiltonians)."""
    if a.dim != b.dim:
        raise InvalidParams("direct sum needs equal lattice dimensions")

    def ev(k):
        ha, hb = a.h(k), b.h(k)
        n = a.bands + b.bands
        out = np.zeros(ha.shape[:-2] + (n, n), dtype=complex)
        out[..., : a.bands, : a.bands] = ha
        out[..., a.bands:, a.bands:] = hb
        return out

    tr = None
    if a.time_reversal is not None and b.time_reversal is not None:
        u = np.zeros((a.bands + b.bands, a.bands + b.bands), dtype=complex)
        u[: a.bands, : a.bands] = a.time_reversal.unitary
        u[a.bands:, a.bands:] = b.time_reversal.unitary
        tr = TimeReversal(u)
    rng = None
    if a.hopping_range is not None and b.hopping_range is not None:
        rng = max(a.hopping_range, b.hopping_range)
    return BlochFamily(
        dim=a.dim, bands=a.bands + b.bands, occupied=a.occupied + b.occupied,
        evaluate=ev, time_reversal=tr, hopping_range=rng,
        name=name or f"{a.name}+{b.name}",
    )


# --- builtin models ---
# Every evaluate broadcasts: momenta (..., dim) -> Hamiltonians (..., n, n).

def _pauli(c1, c2, c3) -> np.ndarray:
    """c1 sigma_1 + c2 sigma_2 + c3 sigma_3 for coefficient arrays."""
    return sum(np.asarray(c)[..., None, None] * s for c, s in zip((c1, c2, c3), SIGMA[1:]))


def _smoothstep(x: np.ndarray | float) -> np.ndarray | float:
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


def _hopf_two_band() -> BlochFamily:
    # Occupied projector is p(n) = (1 + n.sigma)/2 with n a ball-collapse
    # degree-one map T^2 -> S^2, so the monopole projector is realized
    # verbatim on the lower band.
    def ev(k):
        r = np.hypot(k[..., 0], k[..., 1])
        theta = np.pi * _smoothstep(r / np.pi)
        pole = r < 1e-12
        s, r = np.where(pole, 0.0, np.sin(theta)), np.where(pole, 1.0, r)
        return -_pauli(s * k[..., 0] / r, s * k[..., 1] / r, np.where(pole, 1.0, np.cos(theta)))

    return BlochFamily(dim=2, bands=2, occupied=1, evaluate=ev, hopping_range=None)


def _kane_mele(t, lso, lv) -> BlochFamily:
    if t <= 0:
        raise InvalidParams("kane-mele hopping t must be positive")

    def ev(k):
        k1, k2 = k[..., 0], k[..., 1]
        f = t * (1.0 + np.exp(-1j * k1) + np.exp(-1j * k2))
        g = 2.0 * lso * (np.sin(k1) - np.sin(k2) - np.sin(k1 - k2))
        out = np.zeros(k.shape[:-1] + (4, 4), dtype=complex)
        for s, sgn in ((0, +1.0), (1, -1.0)):  # spin-major blocks
            b = 2 * s
            out[..., b, b] = lv + sgn * g
            out[..., b + 1, b + 1] = -lv - sgn * g
            out[..., b, b + 1] = f
            out[..., b + 1, b] = np.conj(f)
        return out

    return BlochFamily(dim=2, bands=4, occupied=2, evaluate=ev, time_reversal=standard_theta(4))


def _bhz(a, b, m) -> BlochFamily:
    def ev(k):
        k1, k2 = k[..., 0], k[..., 1]
        d = (a * np.sin(k1), a * np.sin(k2),
             m - 2.0 * b * (2.0 - np.cos(k1) - np.cos(k2)))
        out = np.zeros(k.shape[:-1] + (4, 4), dtype=complex)
        out[..., :2, :2] = _pauli(d[0], d[1], d[2])
        out[..., 2:, 2:] = _pauli(-d[0], d[1], d[2])  # conj(h(-k))
        return out

    return BlochFamily(dim=2, bands=4, occupied=2, evaluate=ev, time_reversal=standard_theta(4))


def _fkm3d(t, m) -> BlochFamily:
    # Spin-major Dirac matrices: alpha_i = sigma_i (x) tau_1, beta = I (x) tau_3.
    tau1 = SIGMA[1]
    tau3 = SIGMA[3]
    alphas = [np.kron(SIGMA[i], tau1) for i in (1, 2, 3)]
    beta = np.kron(SIGMA[0], tau3)

    def ev(k):
        out = sum((t * np.sin(k[..., i]))[..., None, None] * alphas[i] for i in range(3))
        mass = m + t * sum(np.cos(k[..., i]) for i in range(3))
        return out + mass[..., None, None] * beta

    return BlochFamily(dim=3, bands=4, occupied=2, evaluate=ev, time_reversal=standard_theta(4))


def _atomic_limit(n, dim) -> BlochFamily:
    if n % 4 or not 4 <= n <= MAX_MATRIX_ROWS:
        raise InvalidParams(
            f"atomic-limit band count must be a multiple of 4 in [4, {MAX_MATRIX_ROWS}]")
    if dim not in (2, 3):
        raise InvalidParams("atomic-limit dim must be 2 or 3")
    n, dim = int(n), int(dim)
    orbitals = n // 2
    energies = np.array([-1.0] * (orbitals // 2) + [1.0] * (orbitals - orbitals // 2))
    h0 = np.kron(SIGMA[0], np.diag(energies)).astype(complex)

    def ev(k):
        return np.broadcast_to(h0, k.shape[:-1] + h0.shape).copy()

    return BlochFamily(dim=dim, bands=n, occupied=n // 2, evaluate=ev,
                       time_reversal=standard_theta(n), hopping_range=0)


# name: (constructor, its parameters with their defaults)
_BUILTINS = {
    "hopf-two-band": (_hopf_two_band, {}),
    "kane-mele": (_kane_mele, {"t": 1.0, "lso": 0.06, "lv": 0.1}),
    "bhz": (_bhz, {"a": 1.0, "b": 1.0, "m": 2.0}),
    "fu-kane-mele-3d": (_fkm3d, {"t": 1.0, "m": -2.0}),
    "atomic-limit": (_atomic_limit, {"n": 4.0, "dim": 2.0}),
}


def builtin_parameters(name: str) -> dict:
    """The parameters of a builtin model with their defaults."""
    if name not in _BUILTINS:
        raise UnknownModel(name, _BUILTINS)
    return _BUILTINS[name][1]


def builtin(name: str, **params) -> BlochFamily:
    """Construct a reference model by name; every parameter is a float,
    defaulted when not given, and the model records its name and params."""
    defaults = builtin_parameters(name)
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidParams(f"unknown {name} parameters {unknown}")
    values = {key: float(params.get(key, value)) for key, value in defaults.items()}
    model = _BUILTINS[name][0](**values)
    model.name, model.params = name, values
    return model


# --- ribbons ---

@dataclass
class RibbonFamily:
    """Open-boundary family: (L*n) x (L*n) Hermitian blocks over the
    momenta of the remaining periodic directions.

    ``hoppings`` maps momenta (..., dim) to the hopping blocks
    (..., 2R+1, n, n) of offsets d = -R..R, offset d at index d + R;
    ``evaluate`` and ``evaluate_periodic`` map momenta (..., dim) to
    matrices (..., L*n, L*n), site-major; ``assemble`` places given
    blocks (..., 2R+1, m, m), of any m (a subset of the orbitals).
    """

    transverse_sites: int
    bands: int
    dim: int  # momentum dimension of the ribbon (bulk dim - 1)
    hoppings: Callable[[np.ndarray], np.ndarray]
    hopping_range: int
    name: str = "ribbon"

    def assemble(self, blocks: np.ndarray, periodic: bool = False) -> np.ndarray:
        L, n, R = self.transverse_sites, blocks.shape[-1], self.hopping_range
        out = np.zeros(blocks.shape[:-3] + (L, n, L, n), dtype=complex)
        sites = np.arange(L)
        for d in range(-R, R + 1):
            if periodic:
                i, j = sites, (sites + d) % L
            else:
                i = sites[max(0, -d):max(0, L - d)]  # no bond for |d| >= L
                j = i + d
            # i -> j is one-to-one for a fixed d, so += never hits a pair twice
            out[..., i, :, j, :] += blocks[..., d + R, :, :]
        return out.reshape(blocks.shape[:-3] + (L * n, L * n))

    def evaluate(self, k) -> np.ndarray:
        return self.assemble(self.hoppings(np.atleast_1d(np.asarray(k, dtype=float))))

    def evaluate_periodic(self, k) -> np.ndarray:
        """Same blocks with the hopping across the cut restored (indices
        mod L); its spectrum is the union of bulk spectra at the L
        commensurate momenta of the reperiodized direction."""
        return self.assemble(self.hoppings(np.atleast_1d(np.asarray(k, dtype=float))), True)


def _fourier_axis(hopping_range: int) -> np.ndarray:
    """The max(8, 4 (R + 1)) momenta of the DFT that recovers range-R hoppings."""
    nf = max(8, 4 * (hopping_range + 1))
    return -np.pi + 2.0 * np.pi * np.arange(nf) / nf


def ribbonize(model: BlochFamily, open_axis: int = 0, width: int = 24) -> RibbonFamily:
    """Open one axis by partial Fourier transform of H(k).

    Hopping matrices along the open axis are the Fourier coefficients of
    evaluate over that axis, truncated at the declared hopping range;
    an entry beyond it above 1e-10 times the largest in-range entry raises
    HoppingRangeTooLong, and non-finite coefficients raise InvalidParams.
    """
    if width < 8:
        raise InvalidParams("ribbon width must be at least 8")
    if not 0 <= open_axis < model.dim:
        raise InvalidParams("open axis out of range")
    if model.hopping_range is None:
        raise HoppingRangeTooLong(open_axis, float("inf"), 0.0)
    R = model.hopping_range
    ks = _fourier_axis(R)
    nf = len(ks)
    # offsets -R..R, then the beyond-range offsets checked for leakage
    offsets = np.concatenate([np.arange(-R, R + 1), np.arange(R + 1, nf // 2)])
    phases = np.exp(-1j * np.outer(offsets, ks)) / nf

    def hoppings(k_perp: np.ndarray) -> np.ndarray:
        k_perp = np.asarray(k_perp, dtype=float)
        stack = np.broadcast_to(k_perp[..., None, :], k_perp.shape[:-1] + (nf, k_perp.shape[-1]))
        hs = model.h(np.insert(stack, open_axis, ks, axis=-1))
        coeffs = np.einsum("dj,...jab->...dab", phases, hs)
        if not np.all(np.isfinite(coeffs)):
            raise InvalidParams("Hamiltonian entries overflow or are not finite")
        size = np.abs(coeffs)
        worst = float(np.max(size[..., 2 * R + 1:, :, :], initial=0.0))
        bound = 1e-10 * float(np.max(size[..., :2 * R + 1, :, :], initial=0.0))
        if worst > bound:
            raise HoppingRangeTooLong(open_axis, worst, bound)
        return coeffs[..., :2 * R + 1, :, :]

    return RibbonFamily(transverse_sites=width, bands=model.bands,
                        dim=model.dim - 1, hoppings=hoppings, hopping_range=R,
                        name=f"{model.name}-ribbon")


# --- JSON ingestion ---

def _matrix_from_json(obj, path: str) -> np.ndarray:
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in obj])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(path, f"matrix must be [[[re, im], ...], ...]: {exc}")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemaError(path, "matrix must be square")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(path, "matrix entries must be finite")
    return arr


def _matrix_to_json(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


def load_model(doc: dict) -> BlochFamily:
    """Build a BlochFamily from the documented JSON schema.

    H(k) = sum_R term(R) e^{i k.R} plus the conjugate transpose of every
    term with R != 0; the R = 0 block must be Hermitian.  A key outside
    the schema raises SchemaError at its path.
    """
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    for key in ("dim", "bands", "occupied", "terms"):
        if key not in doc:
            raise SchemaError(f"$.{key}", "missing required field")
    dim, bands, occupied = doc["dim"], doc["bands"], doc["occupied"]
    if dim not in (2, 3) or type(dim) is not int:
        raise SchemaError("$.dim", "dim must be 2 or 3")
    for key, lo in (("bands", 1), ("occupied", 0)):
        if type(doc[key]) is not int or not lo <= doc[key] <= MAX_MATRIX_ROWS:
            raise SchemaError(f"$.{key}", f"{key} must be an integer in [{lo}, {MAX_MATRIX_ROWS}]")
    if not isinstance(doc["terms"], list):
        raise SchemaError("$.terms", "terms must be a list")
    terms: dict[tuple[int, ...], np.ndarray] = {}
    max_r = 0
    for i, term in enumerate(doc["terms"]):
        path = f"$.terms[{i}]"
        if not isinstance(term, dict) or "R" not in term or "matrix" not in term:
            raise SchemaError(path, "term needs R and matrix")
        R = term["R"]
        # no ribbon has more than MAX_MATRIX_ROWS sites to couple
        if not (isinstance(R, list) and len(R) == dim
                and all(type(x) is int and abs(x) <= MAX_MATRIX_ROWS for x in R)):
            raise SchemaError(f"{path}.R", f"R must have {dim} integer entries in"
                                           f" [-{MAX_MATRIX_ROWS}, {MAX_MATRIX_ROWS}]")
        R = tuple(R)
        mat = _matrix_from_json(term["matrix"], f"{path}.matrix")
        if mat.shape != (bands, bands):
            raise SchemaError(f"{path}.matrix", f"expected {bands}x{bands}")
        if R in terms:
            raise SchemaError(f"{path}.R", f"duplicate hopping vector {R}")
        terms[R] = mat
        max_r = max(max_r, max(abs(x) for x in R) if R else 0)
    zero = tuple([0] * dim)
    if zero in terms and hermitian_deviation(terms[zero]) > 1e-10:
        raise NonHermitianInput()

    tr = None
    if doc.get("time_reversal") is not None:
        u = _matrix_from_json(doc["time_reversal"], "$.time_reversal")
        if u.shape != (bands, bands):
            raise SchemaError("$.time_reversal", f"expected {bands}x{bands}")
        tr = TimeReversal(u)
    # after the other schema checks, so a document failing one keeps its error
    keys = [("$", doc, {"name", "dim", "bands", "occupied", "terms", "time_reversal"})]
    for path, obj, known in keys + [(f"$.terms[{i}]", t, {"R", "matrix"})
                                    for i, t in enumerate(doc["terms"])]:
        unknown = min(set(obj) - known, default=None)
        if unknown is not None:
            raise SchemaError(f"{path}.{unknown}", "unknown key")

    # hopping R carries e^{i k.R} term(R); its conjugate partner e^{-i k.R} term(R)^dagger
    hops = [R for R in terms if R != zero]
    shifts = np.array(hops, dtype=float).reshape(len(hops), dim)
    blocks = np.array([terms[R] for R in hops], dtype=complex).reshape(-1, bands, bands)
    blocks = np.concatenate([blocks, np.conj(np.swapaxes(blocks, -1, -2))])
    onsite = terms.get(zero, np.zeros((bands, bands), dtype=complex))

    def ev(k):
        ph = np.exp(1j * (k @ shifts.T))
        ph = np.concatenate([ph, np.conj(ph)], axis=-1)
        return onsite + np.einsum("...t,tij->...ij", ph, blocks)

    return BlochFamily(dim=dim, bands=bands, occupied=occupied, evaluate=ev,
                       time_reversal=tr, hopping_range=max_r,
                       name=doc.get("name", "custom"))


def to_json(model: BlochFamily) -> dict:
    """Serialize a finite-range family to the model JSON schema.

    Hoppings are extracted by a discrete Fourier transform per axis tuple;
    each R/-R pair is emitted once (canonical representative: first nonzero
    component positive).
    """
    if model.hopping_range is None:
        raise InvalidParams("model does not declare a finite hopping range")
    R = model.hopping_range
    mesh = np.array(list(itertools.product(_fourier_axis(R), repeat=model.dim)))
    hs = model.h(mesh)

    terms = []
    for offs in itertools.product(range(-R, R + 1), repeat=model.dim):
        if any(o != 0 for o in offs):
            first = next(o for o in offs if o != 0)
            if first < 0:
                continue  # the conjugate partner is implied
        phases = np.exp(-1j * (mesh @ np.array(offs, dtype=float)))
        block = np.tensordot(phases, hs, axes=(0, 0)) / len(mesh)
        if all(o == 0 for o in offs):
            block = 0.5 * (block + block.conj().T)
        if np.linalg.norm(block) < 1e-14:
            continue
        terms.append({"R": list(offs), "matrix": _matrix_to_json(block)})

    return {
        "name": model.name,
        "dim": model.dim,
        "bands": model.bands,
        "occupied": model.occupied,
        "terms": terms,
        "time_reversal": None if model.time_reversal is None
        else _matrix_to_json(model.time_reversal.unitary),
    }
