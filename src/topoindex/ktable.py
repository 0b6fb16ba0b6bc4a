"""Symbolic KO/KR/KQ group calculator for points, involutive spheres
S^{1,d} and Brillouin tori T^d.

Groups are Z^a + Z2^b expressions; the torus decomposes over its 2^d fixed
points with binomial weights, the sphere over its two fixed points, and
KQ is KR shifted by four degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidParams


@dataclass(frozen=True)
class AbelianGroupExpr:
    """A formal Z^free + Z2^torsion2 abelian group."""

    free: int = 0
    torsion2: int = 0

    def __add__(self, other: "AbelianGroupExpr") -> "AbelianGroupExpr":
        return AbelianGroupExpr(self.free + other.free, self.torsion2 + other.torsion2)

    def __mul__(self, count: int) -> "AbelianGroupExpr":
        return AbelianGroupExpr(self.free * count, self.torsion2 * count)

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        if self.free == 1:
            parts.append("Z")
        elif self.free > 1:
            parts.append(f"{self.free}Z")
        if self.torsion2 == 1:
            parts.append("Z2")
        elif self.torsion2 > 1:
            parts.append(f"{self.torsion2}Z2")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free": self.free, "torsion2": self.torsion2}


Z = AbelianGroupExpr(free=1)
Z2 = AbelianGroupExpr(torsion2=1)
ZERO = AbelianGroupExpr()

# KO^{-i}(pt) for i = 0..7; 8-fold Bott periodic.
_KO_POINT = (Z, Z2, Z2, ZERO, Z, ZERO, ZERO, ZERO)


def ko_point(i: int) -> AbelianGroupExpr:
    """KO^{-i}(pt), i reduced mod 8."""
    return _KO_POINT[i % 8]


def kr_torus(j: int, d: int) -> AbelianGroupExpr:
    """KR^{-j}(T^d) as the binomial-weighted sum of KO point groups."""
    if d < 0:
        raise InvalidParams("torus dimension must be nonnegative")
    out = ZERO
    for k in range(d + 1):
        out = out + comb(d, k) * ko_point(j - k)
    return out


def kr_sphere(j: int, d: int) -> AbelianGroupExpr:
    """KR^{-j}(S^{1,d}) from the two-fixed-point decomposition:
    KO^{-j}(pt) + KO^{d-j}(pt)."""
    if d < 1:
        raise InvalidParams("sphere dimension must be at least 1")
    return ko_point(j) + ko_point(j - d)


def kq(n: int, space: str, dim: int = 0) -> AbelianGroupExpr:
    """KQ^n(X) = KR^{n-4}(X) for X a point, torus(d) or sphere(1,d)."""
    j = 4 - n  # KR degree -j with -j = n - 4
    if space == "pt":
        return ko_point(j)
    if space == "torus":
        return kr_torus(j, dim)
    if space == "sphere":
        return kr_sphere(j, dim)
    raise InvalidParams(f"space must be pt, torus or sphere, got {space!r}")


def reduced(space: str, j: int, d: int) -> AbelianGroupExpr:
    """Reduced KR group: the decomposition minus the basepoint summand
    KO^{-j}(pt)."""
    if space == "pt":
        return ZERO
    full = kr_torus(j, d) if space == "torus" else kr_sphere(j, d)
    base = ko_point(j)
    return AbelianGroupExpr(full.free - base.free, full.torsion2 - base.torsion2)

