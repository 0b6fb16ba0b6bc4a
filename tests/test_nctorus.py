"""Noncommutative torus algebra and truncated index pairings."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from topoindex.errors import InvalidParams, NumericallySingular
from topoindex.nctorus import (
    ClockShiftRep,
    NCElement,
    _class_solve,
    _symbol_floor,
    _trace_of_triple,
    clock_shift,
    fixed_point_generators,
    generator_u,
    generator_v,
    lattice_degree_one_coeffs,
    nc_index_pairing_1d,
    nc_index_pairing_3d,
    theta_action,
    toeplitz_index,
    winding_loop_coeffs,
)

THETAS = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)]


@pytest.mark.parametrize("theta", THETAS)
def test_clock_shift_commutation_exact(theta):
    rep = clock_shift(theta.numerator, theta.denominator)
    u, v = rep.clock, rep.shift
    assert np.linalg.norm(u @ v - rep.omega * v @ u) < 1e-13


def test_clock_shift_rejects_non_coprime():
    with pytest.raises(InvalidParams):
        clock_shift(2, 4)


@pytest.mark.parametrize("p, q", [(0, 4), (4, 4), (-8, 4), (6, 9)])
def test_clock_shift_rep_rejects_unreduced_fraction(p, q):
    with pytest.raises(InvalidParams):
        ClockShiftRep(p, q)


@pytest.mark.parametrize("p, q", [(0, 1), (3, 1), (1, 4), (-3, 4), (7, 4)])
def test_clock_shift_rep_accepts_reduced_fraction(p, q):
    assert ClockShiftRep(p, q).q == q


@pytest.mark.parametrize("theta", THETAS)
def test_theta_action_on_generators(theta):
    u, v = generator_u(theta), generator_v(theta)
    assert theta_action(u).distance(v.adjoint()) < 1e-14
    assert theta_action(v).distance((-1.0) * u.adjoint()) < 1e-14
    assert theta_action(u.adjoint()).distance(v) < 1e-14
    assert theta_action(v.adjoint()).distance((-1.0) * u) < 1e-14


@pytest.mark.parametrize("theta", THETAS)
def test_theta_action_respects_product_order(theta):
    u, v = generator_u(theta), generator_v(theta)
    lhs = theta_action(u * v)
    rhs = (-1.0) * (v.adjoint() * u.adjoint())
    assert lhs.distance(rhs) < 1e-13


@pytest.mark.parametrize("theta", THETAS)
def test_theta_squares_to_minus_one_with_tracked_phase(theta):
    # Theta is multiplicative, so Theta^2 = -1 on the generators and the
    # tracked phase (-1)^{m+n} appears on higher monomials
    u, v = generator_u(theta), generator_v(theta)
    for degree, mono in ((1, u), (1, v), (2, u * v), (3, u * u * v)):
        twice = theta_action(theta_action(mono))
        assert twice.distance(((-1.0) ** degree) * mono) < 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_fixed_point_generators_identities(theta):
    x, y = fixed_point_generators(theta)
    assert theta_action(x).distance(x) < 1e-12
    assert theta_action(y).distance(y) < 1e-12
    assert x.adjoint().distance((-1.0) * y) < 1e-13
    rep = clock_shift(theta.numerator, theta.denominator)
    xm = x.represent(rep)
    ym = y.represent(rep)
    assert np.linalg.norm(xm @ xm.conj().T - np.eye(rep.q)) < 1e-12
    assert np.linalg.norm(ym @ ym.conj().T - np.eye(rep.q)) < 1e-12


def test_fixed_point_generators_commutative_limit():
    x, y = fixed_point_generators(Fraction(0, 1))
    prod = x * y - y * x
    assert all(abs(c) < 1e-14 for c in prod.terms.values())


@pytest.mark.parametrize("theta", THETAS)
def test_representation_is_star_homomorphism(theta):
    rep = clock_shift(theta.numerator, theta.denominator)
    u, v = generator_u(theta), generator_v(theta)
    a = u * v + 0.5 * v.adjoint()
    b = v * u * u + 2.0 * u.adjoint()
    lhs = (a * b).represent(rep)
    rhs = a.represent(rep) @ b.represent(rep)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert np.linalg.norm(a.adjoint().represent(rep) - a.represent(rep).conj().T) < 1e-12


def test_nc_element_rejects_wrong_representation_angle():
    a = generator_u(Fraction(1, 3))
    with pytest.raises(InvalidParams):
        a.represent(clock_shift(1, 5))


@pytest.mark.parametrize("winding", range(-3, 4))
def test_toeplitz_index_equals_winding(winding):
    co = winding_loop_coeffs(winding)
    assert toeplitz_index(co, 64) == winding


def test_toeplitz_index_constant_loop_zero():
    assert toeplitz_index({(0,): np.array([[1.0 + 0j]])}, 32) == 0


def test_toeplitz_index_band_limited_loops():
    inside = {(0,): np.array([[0.3 + 0j]]), (1,): np.array([[1.0 + 0j]])}
    outside = {(0,): np.array([[2.0 + 0j]]), (1,): np.array([[1.0 + 0j]])}
    assert toeplitz_index(inside, 64) == 1
    assert toeplitz_index(outside, 64) == 0


def test_toeplitz_index_stable_in_cutoff():
    co = winding_loop_coeffs(2)
    assert toeplitz_index(co, 16) == toeplitz_index(co, 96) == 2


def test_toeplitz_index_needs_headroom():
    with pytest.raises(InvalidParams):
        toeplitz_index(winding_loop_coeffs(3), 8)


def _toeplitz_matrix(blocks, modes):
    """Dense reference: the block Toeplitz matrix of ``blocks`` on ``modes``,
    block (i, j) = blocks[(modes[i] - modes[j],)]."""
    b = next(iter(blocks.values())).shape[0]
    n = len(modes)
    t = np.zeros((n, b, n, b), dtype=np.result_type(*blocks.values()))
    for key, block in blocks.items():
        rows, cols = np.nonzero(modes[:, None] == modes[None, :] + key[0])
        t[rows, :, cols, :] = block
    return t.reshape(n * b, n * b)


def _dense_toeplitz_index(coeffs, cutoff):
    """Reference oracle: one SVD of the whole dense compression with the
    same thresholds.  Returns the index (or the error type) and the
    top-half weights of every null vector."""
    blocks = {k: np.atleast_2d(np.asarray(v, dtype=complex)) for k, v in coeffs.items()}
    b = next(iter(blocks.values())).shape[0]
    modes = -np.arange(1, cutoff + 1)
    theta = np.pi * np.arange(4 * cutoff) / (2 * cutoff)
    symbol = sum(np.exp(1j * k[0] * theta)[:, None, None] * bl for k, bl in blocks.items())
    floor = 0.5 * np.min(np.linalg.svd(symbol, compute_uv=False))
    u, s, vh = np.linalg.svd(_toeplitz_matrix(blocks, modes))
    if np.any((s >= 1e-8) & ((s <= 1e-4) | (s < floor))):
        return NumericallySingular, []
    top = np.repeat(np.abs(modes) <= cutoff // 2, b)
    null = np.nonzero(s < 1e-8)[0]
    kernel = [float(np.sum(np.abs(vh[i, top]) ** 2)) for i in null]
    cokernel = [float(np.sum(np.abs(u[top, i]) ** 2)) for i in null]
    return sum(w > 0.5 for w in kernel) - sum(w > 0.5 for w in cokernel), kernel + cokernel


def _toeplitz_outcome(coeffs, cutoff):
    try:
        return toeplitz_index(coeffs, cutoff)
    except NumericallySingular:
        return NumericallySingular


_BLOCK = np.array([[0.3, 1.2j], [0.7, -0.4]])
_MONOMIALS = ([({(w,): [[1.0]]}, c) for w in range(-6, 7) for c in (16, 64, 128, 512)
               if c >= 4 * max(1, abs(w))]
              + [({(w,): _BLOCK}, c) for w in range(-6, 7) for c in (16, 64)
                 if c >= 4 * max(1, abs(w))]
              + [({(w,): _BLOCK}, 512) for w in (-6, 1, 5)])
# offset differences with gcd 2 or 3: two or three decoupled classes
_GCD_SYMBOLS = [
    ({(0,): [[0.2]], (2,): [[1.0]]}, 64, 2),
    ({(0,): [[0.2]], (-2,): [[1.0]]}, 64, -2),
    ({(2,): [[0.25]], (-2,): [[1.0]], (0,): [[0.1]]}, 64, -2),
    ({(0,): 0.2 * np.eye(2), (2,): _BLOCK}, 64, 4),
    ({(-2,): [[0.1]], (0,): [[0.3]], (4,): [[1.0]]}, 64, NumericallySingular),
    ({(0,): [[0.2]], (3,): [[1.0]]}, 48, 3),
    ({(0,): [[0.2]], (-3,): [[1.0]]}, 48, -3),
    ({(-3,): [[0.1]], (0,): [[0.2]], (3,): [[1.0]]}, 48, 3),
    ({(-3,): _BLOCK, (0,): 0.1 * np.eye(2)}, 48, -6),
]
# every input of the toeplitz_index tests above and of criterion 12
_EXISTING = ([({(0,): [[1.0]]}, 32), ({(0,): [[0.3]], (1,): [[1.0]]}, 64),
              ({(0,): [[2.0]], (1,): [[1.0]]}, 64), ({(2,): [[1.0]]}, 16),
              ({(2,): [[1.0]]}, 96), ({(1,): [[1.0]]}, 16)]
             + [({(w,): [[1.0]]}, c) for w in range(-3, 4) for c in (64, 256)])


@pytest.mark.parametrize("coeffs, cutoff", _MONOMIALS + _EXISTING)
def test_toeplitz_index_matches_dense_reference(coeffs, cutoff):
    expected, weights = _dense_toeplitz_index(coeffs, cutoff)
    assert all(w < 0.1 or w > 0.9 for w in weights)  # unambiguous localization
    assert _toeplitz_outcome(coeffs, cutoff) == expected


@pytest.mark.parametrize("coeffs, cutoff, index", _GCD_SYMBOLS)
def test_toeplitz_index_gcd_classes_match_dense_reference(coeffs, cutoff, index):
    expected, weights = _dense_toeplitz_index(coeffs, cutoff)
    assert expected == index
    assert weights or index is NumericallySingular  # real null vectors to localize
    assert all(w < 0.1 or w > 0.9 for w in weights)
    assert _toeplitz_outcome(coeffs, cutoff) == index


@pytest.mark.parametrize("const, cutoff", [(0.9, 64), (0.95, 64), (0.95, 128)])
def test_toeplitz_index_unresolved_split_raises(const, cutoff):
    # index 1; the split singular value (2.2e-4 for 0.9 at 64) sits above
    # 1e-4 but far below half the symbol's smallest singular value
    with pytest.raises(NumericallySingular):
        toeplitz_index({(0,): [[const]], (1,): [[1.0]]}, cutoff)


# scalar symbols for the closed forms: zero samples and classes, extreme
# magnitudes, and a sample of modulus 1e-4 (1.0001 + z at theta = pi)
_SCALAR_SYMBOLS = {
    "zero": {(0,): [[0.0]]},
    "zero monomial": {(3,): [[0.0]]},
    "1e300 monomial": {(2,): [[1e300 * (0.6 - 0.8j)]]},
    "1e-300 monomial": {(-2,): [[1e-300j]]},
    "1e300 band": {(-1,): [[1e300]], (0,): [[-3e299j]], (2,): [[2e299]]},
    "1e-300 band": {(0,): [[3e-301]], (1,): [[1e-300]]},
    "1.0001 + z": {(0,): [[1.0001]], (1,): [[1.0]]},
}
_RTOL = 8 * np.finfo(float).eps  # LAPACK's 1x1 singular value is |t| to a few ulps


def _samples(coeffs, cutoff):
    theta = np.pi * np.arange(4 * cutoff) / (2 * cutoff)
    return sum(np.exp(1j * k[0] * theta)[:, None, None] * np.asarray(c, dtype=complex)
               for k, c in coeffs.items())


@pytest.mark.parametrize("cutoff", [16, 64])
@pytest.mark.parametrize("coeffs", _SCALAR_SYMBOLS.values(), ids=_SCALAR_SYMBOLS)
def test_scalar_floor_is_the_svd_floor(coeffs, cutoff):
    samples = _samples(coeffs, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        floor = _symbol_floor(samples)
        reference = 0.5 * np.min(np.linalg.svd(samples, compute_uv=False))
    assert floor == pytest.approx(reference, rel=_RTOL, abs=0.0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 0), (0, 1)])
def test_scalar_class_solve_is_the_svd(shape):
    rng = np.random.default_rng(7)
    t = np.array([0.0, 1e300, -1e-300j, 1e-4, 3e-9, 0.6 - 0.8j, 1e300 + 1e300j, 5e-324])
    t = (t[:, None, None] * np.ones(shape)).reshape(len(t), *shape)
    top_rows, top_cols = (rng.random((len(t), n)) < 0.5 for n in shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s, kernel, cokernel = _class_solve(t, top_rows, top_cols)
        u, s_ref, vh = np.linalg.svd(t)
    np.testing.assert_allclose(s, s_ref, rtol=_RTOL, atol=0.0)
    assert np.array_equal(kernel, np.sum(np.abs(vh) ** 2 * top_cols[:, None, :], axis=2) > 0.5)
    assert np.array_equal(cokernel, np.sum(np.abs(u) ** 2 * top_rows[:, :, None], axis=1) > 0.5)


@pytest.mark.parametrize("coeffs", _SCALAR_SYMBOLS.values(), ids=_SCALAR_SYMBOLS)
def test_scalar_symbols_match_dense_reference(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _toeplitz_outcome(coeffs, 16) == _dense_toeplitz_index(coeffs, 16)[0]


def test_block_symbol_keeps_the_svd(monkeypatch):
    # the CLI's scalar monomials make no SVD call (test_cli), 2x2 blocks do
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert toeplitz_index({(1,): _BLOCK}, 16) == 2
    assert (64, 2, 2) in calls and (15, 2, 2) in calls  # the floor and the 2x2 classes


# one malformed input per case; the CLI builds none of them
_MALFORMED = {
    "empty": {},
    "empty key": {(): [[1.0]]},
    "float offset": {(1.5,): [[1.0]]},
    "blocks of two sizes": {(0,): [[1.0]], (1,): np.eye(2)},
    "non-square block": {(1,): np.ones((2, 3))},
    "three-axis block": {(1,): np.ones((2, 1, 2))},
    "nan entry": {(1,): [[np.nan]]},
    "inf entry": {(0,): [[0.3]], (1,): [[np.inf]]},
    "offset named twice": {1: [[1.0]], (1,): [[0.0]]},
}


@pytest.mark.parametrize("coeffs", _MALFORMED.values(), ids=_MALFORMED)
@pytest.mark.parametrize("solver", [toeplitz_index, nc_index_pairing_1d])
def test_malformed_1d_symbol_raises_invalid_params(solver, coeffs):
    with pytest.raises(InvalidParams):
        solver(coeffs, 16)


@pytest.mark.parametrize("winding", range(-3, 4))
def test_pairing_1d_calibrated_matches_winding(winding):
    pr = nc_index_pairing_1d(winding_loop_coeffs(winding), 64)
    assert pr.calibrated == pytest.approx(winding, abs=1e-10)
    assert pr.raw.real == pytest.approx(2.0 * winding, abs=1e-10)
    assert pr.residue < 1e-6


@pytest.mark.parametrize("winding", range(-3, 4))
def test_pairing_1d_raw_exact_at_large_cutoff(winding):
    pr = nc_index_pairing_1d(winding_loop_coeffs(winding), 512)
    assert pr.raw == complex(2 * winding)
    assert pr.rounded == winding and pr.residue == 0.0


@pytest.mark.parametrize("modes", [-np.arange(1, 8), np.arange(-5, 6)])
def test_toeplitz_matrix_block_symbol(modes):
    rng = np.random.default_rng(3)
    blocks = {(d,): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
              for d in (-2, 0, 1)}
    ref = np.zeros((2 * len(modes), 2 * len(modes)), dtype=complex)
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if (mi - mj,) in blocks:
                ref[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blocks[(mi - mj,)]
    assert np.array_equal(_toeplitz_matrix(blocks, modes), ref)


def _dense_pairing_raw(blocks, cutoff):
    """Reference: sum_ij |w_ij|^2 (f_i - f_j) over the dense weight matrix."""
    b = next(iter(blocks.values())).shape[0]
    modes = np.arange(-cutoff, cutoff + 1)
    f = np.repeat(np.where(modes >= 0, 1.0, -1.0), b)
    weight = _toeplitz_matrix({k: np.abs(bl) ** 2 for k, bl in blocks.items()}, modes)
    return f @ weight.sum(axis=1) - weight.sum(axis=0) @ f


def test_pairing_1d_raw_matches_dense_sum_on_random_symbols():
    rng = np.random.default_rng(7)
    for _ in range(60):
        b, band = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        blocks = {(e,): rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
                  for e in range(-band, band + 1)}
        for cutoff in (4 * band, 64):
            raw = nc_index_pairing_1d(blocks, cutoff, residue_tol=1.0).raw
            ref = _dense_pairing_raw(blocks, cutoff)
            assert raw.imag == 0.0
            assert abs(raw.real - ref) <= 1e-12 * max(1.0, abs(ref))


def test_pairing_1d_rejects_multidimensional_data():
    with pytest.raises(InvalidParams):
        nc_index_pairing_1d({(1, 0): [[1.0]]}, 16)


def test_pairing_1d_additive_for_products():
    # e^{i t} * e^{i t} = e^{2 i t}
    pr = nc_index_pairing_1d(winding_loop_coeffs(2), 64)
    single = nc_index_pairing_1d(winding_loop_coeffs(1), 64)
    assert pr.calibrated == pytest.approx(2 * single.calibrated, abs=1e-10)


def test_pairing_3d_trivial_symbol_near_zero():
    co = lattice_degree_one_coeffs(-4.0)
    pr = nc_index_pairing_3d(co, 4, residue_tol=0.3)
    assert pr.rounded == 0
    assert abs(pr.calibrated) < 0.1


def test_pairing_3d_degree_one_symbol():
    co = lattice_degree_one_coeffs(-2.0)
    pr = nc_index_pairing_3d(co, 4, residue_tol=0.3)
    assert pr.rounded == 1
    assert 0.7 < pr.calibrated < 1.1


def test_trace_of_triple_matches_dense_operator():
    # A_{m, m - r} = a_r(m) on a 3^3 box, assembled densely; offsets of
    # length 2 leave some triangles with partial or empty boxes, two added
    # triangles of three distinct hops have sites whose third hop leaves the
    # box, and the offsets of length 3 and 4 have no site in the box at all.
    # The random fields fill the whole box, also the sites where m - r leaves
    # it: the dense operator never holds those, the compact layout drops
    # them, and only the norms read them
    rng = np.random.default_rng(11)
    L, b = 3, 3
    offsets = np.unique(rng.integers(-2, 3, size=(14, 3)), axis=0)
    triangles = [[2, -1, 0], [-1, 2, 0], [-1, -1, 0], [1, 1, -2], [-2, 0, 1], [1, -1, 1]]
    offsets = np.unique(np.vstack([offsets, -offsets[:4], triangles,
                                   [[0, 0, 0], [3, 0, 0], [0, -4, 1]]]), axis=0)
    fields = (rng.normal(size=(len(offsets), L, L, L, b, b))
              + 1j * rng.normal(size=(len(offsets), L, L, L, b, b)))
    sites = [tuple(s) for s in np.ndindex(L, L, L)]
    dense = np.zeros((len(sites) * b, len(sites) * b), dtype=complex)
    for row, m in enumerate(sites):
        for col, x in enumerate(sites):
            hits = np.nonzero((offsets == np.subtract(m, x)).all(axis=1))[0]
            if len(hits):
                dense[row * b:(row + 1) * b, col * b:(col + 1) * b] = fields[hits[0]][m]
    expected = np.trace(dense @ dense @ dense)
    domains = [tuple(slice(max(0, d), max(0, L + min(0, d))) for d in r) for r in offsets]
    compact = np.concatenate([x[dom].reshape(-1, b, b) for x, dom in zip(fields, domains)]
                             + [np.zeros((1, b, b))])
    norms = np.max(np.abs(fields), axis=(1, 2, 3, 4, 5))
    got = _trace_of_triple(offsets, norms, compact, L, prune=0.0)
    assert abs(got - expected) < 1e-9 * abs(expected)


def test_pairing_3d_heap_peak():
    # fields kept only on their operator domains, triangles found per first
    # hop: about 7 MB at cutoff 2, where the full-box field stack took 31 MB
    tracemalloc.start()
    try:
        nc_index_pairing_3d(lattice_degree_one_coeffs(-2.0), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


# Raw 3D traces Tr[(w^{-1}[F, w])^3] of the degree-one lattice symbol, recorded
# with the per-triangle reference summation; the summation order may move
# them only at rounding level.
RAW_3D = {
    (2, -2.5): -6.228167332579542,
    (2, -2.0): -7.040363513170287,
    (2, -1.5): -6.132088099016178,
    (2, 0.5): 12.604082738368978,
    (2, 2.0): -7.0403635131702895,
    (3, -2.0): -7.507073690373331,
    (4, -2.0): -7.639181978324269,
}


@pytest.mark.parametrize("cutoff, mass", sorted(RAW_3D))
def test_pairing_3d_raw_trace_pinned(cutoff, mass):
    pr = nc_index_pairing_3d(lattice_degree_one_coeffs(mass), cutoff, residue_tol=10.0)
    assert abs(pr.raw.real - RAW_3D[cutoff, mass]) < 1e-10
    assert abs(pr.raw.imag) < 1e-10


def test_pairing_3d_band_limit_guard():
    wide = {(2, 0, 0): np.eye(2, dtype=complex),
            (0, 0, 0): np.eye(2, dtype=complex)}
    with pytest.raises(InvalidParams):
        nc_index_pairing_3d(wide, 4)


# keys that name no lattice vector of three integers; the CLI builds none of them
_MALFORMED_3D_KEYS = {"float": (1.5, 0, 0), "integral float": (1.0, 0, 0),
                      "string": ("1", 0, 0), "two components": (1, 0),
                      "four components": (1, 0, 0, 0), "integer": 1}


@pytest.mark.parametrize("key", _MALFORMED_3D_KEYS.values(), ids=_MALFORMED_3D_KEYS)
def test_pairing_3d_rejects_offsets_that_are_not_three_integers(key):
    coeffs = dict(lattice_degree_one_coeffs(-2.0))
    coeffs[key] = coeffs.pop((1, 0, 0))
    with pytest.raises(InvalidParams, match="offsets of three integers"):
        nc_index_pairing_3d(coeffs, 4)


def test_pairing_3d_rejects_a_float_offset_beside_an_integer_one():
    # (1.5, 0, 0) was truncated onto (1, 0, 0) and silently overwrote its block
    coeffs = {**lattice_degree_one_coeffs(-2.0), (1.5, 0, 0): np.eye(2)}
    with pytest.raises(InvalidParams, match="offsets of three integers"):
        nc_index_pairing_3d(coeffs, 4)


def test_pairing_3d_reads_numpy_integer_offsets():
    coeffs = lattice_degree_one_coeffs(-2.0)
    numpy_keys = {tuple(np.int64(x) for x in key): block for key, block in coeffs.items()}
    assert nc_index_pairing_3d(numpy_keys, 2).raw == nc_index_pairing_3d(coeffs, 2).raw


def test_pairing_3d_singular_symbol_rejected():
    # mass -3 closes the symbol gap
    co = lattice_degree_one_coeffs(-3.0)
    with pytest.raises(InvalidParams):
        nc_index_pairing_3d(co, 4)


def test_truncated_module_invariants_exact():
    from topoindex.model import SIGMA
    from topoindex.nctorus import _dirac_phase_field

    f = _dirac_phase_field(2)
    eye = np.eye(2)
    p = 0.5 * (eye - f)  # the Fermi projection of the pairing's phase F
    assert np.max(np.abs(f @ f - eye)) < 1e-13
    assert np.max(np.abs(p @ p - p)) < 1e-13
    # on each axis F = sign(n) sigma_i exactly, and the zero mode carries
    # sign +1: the projection annihilates it
    modes = np.arange(-2, 3)
    for axis in range(3):
        line = np.moveaxis(f, axis, 0)[:, 2, 2]
        sign = np.where(modes >= 0, 1.0, -1.0)[:, None, None]
        assert np.array_equal(line[modes != 0], (sign * SIGMA[axis + 1])[modes != 0])
        assert np.array_equal(line @ line, np.broadcast_to(eye, line.shape))
    assert np.array_equal(f[2, 2, 2], eye) and np.array_equal(p[2, 2, 2], np.zeros((2, 2)))
