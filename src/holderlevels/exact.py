"""Exact coordinates of the subdivision geometry.

Every vertex produced by midpoint subdivision of the unit equilateral
triangle has coordinates of the form (a + b*sqrt(3)) / 2**k with integer
a, b and k >= 0.  ``CoordQ3`` holds such a number with one canonical
representative per value, so equality and hashing are exact; the library
only adds and halves them (``midpoint``).  ``QSqrt3`` is a value
p + q*sqrt(3) of the field Q(sqrt(3)), for a coordinate outside the
dyadic ring, such as the centroid's.  Both are value types: points are
located and weighed from their integer lattice coordinates
(``triangles.lattice_coordinates``), and the ring and field arithmetic
that the tests check that path against lives in ``tests/geometry_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_SQRT3_FLOAT = math.sqrt(3.0)


@dataclass(frozen=True)
class CoordQ3:
    """A number (a + b*sqrt(3)) / 2**k, stored with k minimal.

    The canonical form has k >= 0 and, when k > 0, a and b not both
    even.
    """

    a: int
    b: int = 0
    k: int = 0

    def __post_init__(self):
        a, b, k = self.a, self.b, self.k
        if k < 0:
            a <<= -k
            b <<= -k
            k = 0
        while k > 0 and a % 2 == 0 and b % 2 == 0:
            a //= 2
            b //= 2
            k -= 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero sqrt(3) part")
        return Fraction(self.a, 1 << self.k)

    def sqrt3_coefficient(self) -> Fraction:
        """The pure multiple of sqrt(3), defined only when a == 0."""
        if self.a != 0:
            raise ValueError(f"{self!r} has a nonzero rational part")
        return Fraction(self.b, 1 << self.k)

    def __add__(self, other):
        if not isinstance(other, CoordQ3):
            return NotImplemented
        k = max(self.k, other.k)
        sa = self.a << (k - self.k)
        sb = self.b << (k - self.k)
        oa = other.a << (k - other.k)
        ob = other.b << (k - other.k)
        return CoordQ3(sa + oa, sb + ob, k)

    def half(self) -> "CoordQ3":
        return CoordQ3(self.a, self.b, self.k + 1)

    def __repr__(self):
        return f"CoordQ3({self.a}, {self.b}, {self.k})"

    def to_triple(self) -> tuple[int, int, int]:
        """Serialization form (a, b, k)."""
        return (self.a, self.b, self.k)


@dataclass(frozen=True)
class QSqrt3:
    """Element p + q*sqrt(3) of the field Q(sqrt(3))."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))

    def __repr__(self):
        return f"QSqrt3({self.p}, {self.q})"


@dataclass(frozen=True)
class PointQ3:
    """A planar point with CoordQ3 coordinates."""

    x: CoordQ3
    y: CoordQ3

    def to_triples(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        return (self.x.to_triple(), self.y.to_triple())


def midpoint(p: PointQ3, q: PointQ3) -> PointQ3:
    return PointQ3((p.x + q.x).half(), (p.y + q.y).half())
