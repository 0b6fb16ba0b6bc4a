"""KO/KR/KQ group arithmetic against the printed golden values."""

import pytest

from topoindex.errors import InvalidParams
from topoindex.ktable import (
    Z2,
    ZERO,
    AbelianGroupExpr,
    Z,
    ko_point,
    kq,
    kr_sphere,
    kr_torus,
    reduced,
)

KO_ROW = [Z, Z2, Z2, ZERO, Z, ZERO, ZERO, ZERO]


def test_ko_point_full_row():
    for i, expected in enumerate(KO_ROW):
        assert ko_point(i) == expected


def test_ko_point_bott_periodicity():
    for i in range(-8, 17):
        assert ko_point(i) == ko_point(i + 8)


def test_kq_sphere_12():
    assert kq(0, "sphere", 2) == Z + Z2


def test_kq_torus_2():
    assert kq(0, "torus", 2) == Z + Z2


def test_kq_sphere_13():
    assert kq(0, "sphere", 3) == Z + Z2


def test_kq_torus_3():
    assert kq(0, "torus", 3) == Z + 4 * Z2


def test_kq_minus1_sphere_13():
    assert kq(-1, "sphere", 3) == Z2


def test_kq_minus1_torus_3():
    assert kq(-1, "torus", 3) == 3 * Z + Z2


def test_kq_minus1_circle():
    # KQ^{-1}(S^1) = KR^{-5}(S^1) = KO^{-5} + KO^{-4} = Z
    assert kq(-1, "sphere", 1) == Z


def test_kq_point():
    assert kq(0, "pt") == Z  # KQ(pt) = KR^{-4}(pt) = Z


def test_reduced_torus_2():
    assert reduced("torus", 4, 2) == Z2


def test_reduced_torus_3():
    assert reduced("torus", 4, 3) == 4 * Z2


def test_reduced_point_is_zero():
    assert reduced("pt", 0, 0) == ZERO


def test_kr_circle_general_degree():
    # KR^{-i}(S^1) = KO^{-i}(pt) + KO^{-i+1}(pt) for every degree
    for i in range(-4, 12):
        assert kr_sphere(i, 1) == ko_point(i) + ko_point(i - 1)


def test_torus_rule_reduces_to_circle_rule():
    for j in range(-4, 12):
        assert kr_torus(j, 1) == kr_sphere(j, 1)


def test_kr_torus_bott_periodicity():
    for j in range(0, 8):
        for d in range(0, 5):
            assert kr_torus(j, d) == kr_torus(j + 8, d)


def test_nc_torus_kr2_receptacle_constant():
    # KR_2 of the noncommutative 2-torus: KO^{-1} + 2 KO^{-2} = 3 Z2,
    # recorded as a golden constant rather than derived
    receptacle = ko_point(1) + 2 * ko_point(2)
    assert receptacle == 3 * Z2


def test_group_formatting():
    assert str(3 * Z + Z2) == "3Z + Z2"
    assert str(Z) == "Z"
    assert str(ZERO) == "0"
    assert str(4 * Z2) == "4Z2"
    assert (2 * Z).to_json() == {"free": 2, "torsion2": 0}


def test_direct_sum_arithmetic():
    assert AbelianGroupExpr(1, 2) + AbelianGroupExpr(2, 0) == AbelianGroupExpr(3, 2)


def test_invalid_space_rejected():
    with pytest.raises(InvalidParams):
        kq(0, "klein-bottle", 2)
