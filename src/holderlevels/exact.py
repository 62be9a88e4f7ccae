"""Exact coordinate arithmetic for the subdivision geometry.

Every vertex produced by midpoint subdivision of the unit equilateral
triangle has coordinates of the form (a + b*sqrt(3)) / 2**k with integer
a, b and k >= 0.  ``CoordQ3`` implements this ring with one canonical
representative per value, so equality, hashing and ordering are exact.
``QSqrt3`` is the enclosing field Q(sqrt(3)); it holds the vertices of
the rescaled triangle and coordinates given as field pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_SQRT3_FLOAT = math.sqrt(3.0)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CoordQ3:
    """A number (a + b*sqrt(3)) / 2**k, stored with k minimal.

    The canonical form has k >= 0 and, when k > 0, a and b not both
    even.  All arithmetic stays inside the ring: addition, subtraction,
    multiplication (the ring is closed because sqrt(3)**2 = 3) and
    scaling by dyadic rationals.
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

    # -- constructors ------------------------------------------------

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "CoordQ3":
        value = Fraction(value)
        if not _is_power_of_two(value.denominator):
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(value.numerator, 0, value.denominator.bit_length() - 1)

    # -- queries -----------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero sqrt(3) part")
        return Fraction(self.a, 1 << self.k)

    def sqrt3_coefficient(self) -> Fraction:
        """The pure multiple of sqrt(3), defined only when a == 0."""
        if self.a != 0:
            raise ValueError(f"{self!r} has a nonzero rational part")
        return Fraction(self.b, 1 << self.k)

    def sign(self) -> int:
        """Exact sign of (a + b*sqrt(3)); sqrt(3) is irrational, so the
        value is zero only when a == b == 0."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a**2 with 3*b**2
        if a > 0:  # b < 0
            return 1 if a * a > 3 * b * b else -1
        return 1 if a * a < 3 * b * b else -1

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "CoordQ3 | None":
        if isinstance(other, CoordQ3):
            return other
        if isinstance(other, int):
            return CoordQ3(other, 0, 0)
        if isinstance(other, Fraction):
            return CoordQ3.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = max(self.k, other.k)
        sa = self.a << (k - self.k)
        sb = self.b << (k - self.k)
        oa = other.a << (k - other.k)
        ob = other.b << (k - other.k)
        return CoordQ3(sa + oa, sb + ob, k)

    __radd__ = __add__

    def __neg__(self):
        return CoordQ3(-self.a, -self.b, self.k)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = self.a * other.a + 3 * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return CoordQ3(a, b, self.k + other.k)

    __rmul__ = __mul__

    def scale_pow2(self, j: int) -> "CoordQ3":
        """Multiply by 2**j (j may be negative)."""
        return CoordQ3(self.a, self.b, self.k - j)

    def half(self) -> "CoordQ3":
        return CoordQ3(self.a, self.b, self.k + 1)

    # -- ordering ----------------------------------------------------

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        scale = 1 << self.k
        return float(Fraction(self.a, scale)) + float(Fraction(self.b, scale)) * _SQRT3_FLOAT

    def __repr__(self):
        return f"CoordQ3({self.a}, {self.b}, {self.k})"

    def to_triple(self) -> tuple[int, int, int]:
        """Serialization form (a, b, k)."""
        return (self.a, self.b, self.k)


SQRT3 = CoordQ3(0, 1, 0)


@dataclass(frozen=True)
class QSqrt3:
    """Element p + q*sqrt(3) of the field Q(sqrt(3))."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))

    @classmethod
    def from_coord(cls, c: CoordQ3) -> "QSqrt3":
        scale = 1 << c.k
        return cls(Fraction(c.a, scale), Fraction(c.b, scale))

    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self!r} has a nonzero sqrt(3) part")
        return self.p

    def sign(self) -> int:
        p, q = self.p, self.q
        if p == 0 and q == 0:
            return 0
        if p >= 0 and q >= 0:
            return 1
        if p <= 0 and q <= 0:
            return -1
        if p > 0:
            return 1 if p * p > 3 * q * q else -1
        return 1 if p * p < 3 * q * q else -1

    def _coerce(self, other) -> "QSqrt3 | None":
        if isinstance(other, QSqrt3):
            return other
        if isinstance(other, CoordQ3):
            return QSqrt3.from_coord(other)
        if isinstance(other, (int, Fraction)):
            return QSqrt3(Fraction(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt3(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt3(-self.p, -self.q)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt3(self.p * other.p + 3 * self.q * other.q,
                      self.p * other.q + self.q * other.p)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt3":
        norm = self.p * self.p - 3 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(3))")
        return QSqrt3(self.p / norm, -self.q / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.p) + float(self.q) * _SQRT3_FLOAT

    def __repr__(self):
        return f"QSqrt3({self.p}, {self.q})"


@dataclass(frozen=True)
class PointQ3:
    """A planar point with CoordQ3 coordinates."""

    x: CoordQ3
    y: CoordQ3

    def __add__(self, other: "PointQ3") -> "PointQ3":
        return PointQ3(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PointQ3") -> "PointQ3":
        return PointQ3(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PointQ3":
        return PointQ3(-self.x, -self.y)

    def scale_pow2(self, j: int) -> "PointQ3":
        return PointQ3(self.x.scale_pow2(j), self.y.scale_pow2(j))

    def dist_sq(self, other: "PointQ3") -> CoordQ3:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def to_triples(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        return (self.x.to_triple(), self.y.to_triple())


def midpoint(p: PointQ3, q: PointQ3) -> PointQ3:
    return PointQ3((p.x + q.x).half(), (p.y + q.y).half())

