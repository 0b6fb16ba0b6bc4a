"""Pfaffian and eigendecomposition tests against independent oracles."""

import numpy as np
import pytest

from topoindex.errors import NonHermitian, NotSkewSymmetric, OddDimension
from topoindex.linalg import (
    eigh,
    eigvalsh,
    fix_phases,
    hermitian_deviation,
    pfaffian,
    skew_deviation,
    unitary_deviation,
)


def pfaffian_cofactor(a: np.ndarray) -> complex:
    """Recursive cofactor-expansion oracle, independent of the production
    tridiagonalization route; exact for small even dimensions."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 2:
        return complex(a[0, 1])
    total = 0.0 + 0.0j
    for j in range(1, n):
        keep = [i for i in range(n) if i not in (0, j)]
        minor = a[np.ix_(keep, keep)]
        total += (-1) ** (j - 1) * a[0, j] * pfaffian_cofactor(minor)
    return total


def random_skew(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m - m.T


def test_pfaffian_two_by_two():
    a = np.array([[0.0, 3.5], [-3.5, 0.0]])
    assert pfaffian(a) == pytest.approx(3.5)


def test_pfaffian_four_by_four_cofactor_formula():
    rng = np.random.default_rng(7)
    a = random_skew(rng, 4)
    expected = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert pfaffian(a) == pytest.approx(expected)


def test_pfaffian_zero_matrix():
    assert pfaffian(np.zeros((4, 4))) == 0.0


def test_pfaffian_matches_cofactor_oracle_small_dims():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6, 8):
        for _ in range(8):
            a = random_skew(rng, n)
            got = pfaffian(a)
            want = pfaffian_cofactor(a)
            assert abs(got - want) <= 1e-10 * abs(want)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(23)
    for n in range(2, 13, 2):
        for _ in range(10):
            a = random_skew(rng, n)
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf * pf - det) <= 1e-8 * abs(det)


def test_pfaffian_congruence_transformation():
    rng = np.random.default_rng(31)
    for n in (2, 4, 6, 8):
        a = random_skew(rng, n)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = pfaffian(b @ a @ b.T)
        rhs = np.linalg.det(b) * pfaffian(a)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_pfaffian_rejects_odd_dimension():
    with pytest.raises(OddDimension):
        pfaffian(np.zeros((3, 3)))


def test_pfaffian_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        pfaffian(np.eye(4))


def test_eigh_pauli_z():
    sz = np.diag([1.0, -1.0]).astype(complex)
    es = eigh(sz)
    assert np.allclose(es.values, [-1.0, 1.0])
    assert abs(es.vectors[1, 0]) == pytest.approx(1.0)
    assert abs(es.vectors[0, 1]) == pytest.approx(1.0)


def test_eigh_pauli_x():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    es = eigh(sx)
    assert np.allclose(es.values, [-1.0, 1.0])


def test_eigh_reconstruction_residual():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = m + m.conj().T
    es = eigh(h)
    recon = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
    assert np.linalg.norm(recon - h) <= 1e-12 * np.linalg.norm(h)
    assert np.linalg.norm(es.vectors.conj().T @ es.vectors - np.eye(8)) < 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_eigenvalues_invariant_under_conjugation():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = m + m.conj().T
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    assert np.allclose(eigh(q @ h @ q.conj().T).values, eigh(h).values, atol=1e-10)


def test_fix_phases_makes_largest_entry_real_positive():
    rng = np.random.default_rng(13)
    v = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    v, _ = np.linalg.qr(v)
    fixed = fix_phases(v)
    for j in range(3):
        i = int(np.argmax(np.abs(fixed[:, j])))
        assert fixed[i, j].imag == pytest.approx(0.0, abs=1e-14)
        assert fixed[i, j].real > 0


def test_structure_predicates():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hermitian_deviation(m + m.conj().T) <= 1e-12
    assert skew_deviation(m - m.T) <= 1e-12
    q, _ = np.linalg.qr(m)
    assert unitary_deviation(q) <= 1e-12
    assert hermitian_deviation(m - m.T + np.eye(4) * 1j) > 1.0


def random_hermitian_stack(rng, shape, n):
    m = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return m + np.conj(np.swapaxes(m, -1, -2))


def test_eigh_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(31)
    hs = random_hermitian_stack(rng, (3, 4), 5)
    stacked = eigh(hs)
    assert stacked.values.shape == (3, 4, 5) and stacked.vectors.shape == (3, 4, 5, 5)
    for idx in np.ndindex(3, 4):
        single = eigh(hs[idx])
        assert np.array_equal(stacked.values[idx], single.values)
        assert np.max(np.abs(stacked.vectors[idx] - single.vectors)) < 1e-12
    # phase convention: the largest-modulus entry of every column is real positive
    top = np.argmax(np.abs(stacked.vectors), axis=-2)[..., None, :]
    z = np.take_along_axis(stacked.vectors, top, axis=-2)
    assert np.max(np.abs(z.imag)) < 1e-14 and np.min(z.real) > 0.0


def test_eigh_stack_reports_first_non_hermitian_matrix():
    rng = np.random.default_rng(32)
    hs = random_hermitian_stack(rng, (2, 3), 4)
    hs[1, 0, 0, 1] += 0.5
    hs[1, 2, 2, 3] += 0.25
    with pytest.raises(NonHermitian) as info:
        eigh(hs)
    assert info.value.index == 3
    with pytest.raises(NonHermitian) as values_only:
        eigvalsh(hs)
    assert values_only.value.index == 3
    with pytest.raises(NonHermitian) as single:
        eigh(hs[1, 0])
    assert info.value.deviation == pytest.approx(single.value.deviation, rel=1e-12)


def test_fix_phases_stack_matches_per_matrix():
    rng = np.random.default_rng(33)
    v = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    stacked = fix_phases(v)
    for i in range(4):
        assert np.array_equal(stacked[i], fix_phases(v[i]))
