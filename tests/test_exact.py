"""Exact arithmetic: canonical forms, ring closure, ordering.

The library keeps the value types; the ring and field operations are the
test oracle's (``RingQ3``, ``FieldQ3``).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holderlevels.exact import CoordQ3, PointQ3, QSqrt3, midpoint

from geometry_oracle import SQRT3, FieldQ3, RingQ3, cross, dist_sq, field, ring

coords = st.builds(
    RingQ3,
    st.integers(min_value=-2**40, max_value=2**40),
    st.integers(min_value=-2**40, max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


def test_canonical_form():
    assert CoordQ3(2, 4, 3) == CoordQ3(1, 2, 2)
    assert CoordQ3(4, 0, 2) == CoordQ3(1, 0, 0)
    c = CoordQ3(6, 2, 5)
    assert c.a == 3 and c.b == 1 and c.k == 4
    # negative k normalizes away
    assert CoordQ3(1, 0, -2) == CoordQ3(4, 0, 0)


def test_from_fraction_requires_dyadic():
    assert RingQ3.from_fraction(Fraction(3, 8)) == CoordQ3(3, 0, 3)
    with pytest.raises(ValueError):
        RingQ3.from_fraction(Fraction(1, 3))


@given(coords, coords)
def test_add_sub_roundtrip(x, y):
    assert (x + y) - y == x


@given(coords, coords, coords)
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(coords, coords)
def test_ordering_matches_floats(x, y):
    # float comparison can only disagree near ties; skip the knife edge
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-6 * (1 + abs(fx) + abs(fy)):
        assert (x < y) == (fx < fy)


def test_sign_mixed_cases():
    assert RingQ3(-5, 3, 0).sign() == 1    # 3*sqrt(3) = 5.196 > 5
    assert RingQ3(-6, 3, 0).sign() == -1
    assert RingQ3(5, -3, 0).sign() == -1
    assert RingQ3(6, -3, 0).sign() == 1
    assert RingQ3(0, 0, 0).sign() == 0


def test_sqrt3_squares_to_three():
    assert SQRT3 * SQRT3 == CoordQ3(3)
    assert float(SQRT3) == pytest.approx(math.sqrt(3))


def test_to_fraction_guards():
    assert CoordQ3(3, 0, 1).to_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        CoordQ3(1, 1, 0).to_fraction()
    assert CoordQ3(0, 5, 2).sqrt3_coefficient() == Fraction(5, 4)


def test_scale_pow2():
    c = RingQ3(3, 1, 2)
    assert c.scale_pow2(2) == CoordQ3(3, 1, 0)
    assert c.scale_pow2(-1) == CoordQ3(3, 1, 3)
    assert c.half() == c.scale_pow2(-1)


def test_qsqrt3_field_ops():
    a = FieldQ3(Fraction(1, 2), Fraction(1, 3))
    b = FieldQ3(Fraction(2), Fraction(-1, 5))
    assert (a * b) / b == a
    assert (a / b) * b == a
    assert float(a) == pytest.approx(0.5 + math.sqrt(3) / 3)
    with pytest.raises(ZeroDivisionError):
        FieldQ3(Fraction(0)).inverse()


def test_qsqrt3_rationality():
    assert FieldQ3(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        FieldQ3(Fraction(1), Fraction(1)).as_fraction()


def test_point_ops():
    p = PointQ3(CoordQ3(1), CoordQ3(0))
    q = PointQ3(CoordQ3(0), CoordQ3(0, 1, 0))
    m = midpoint(p, q)
    assert m == PointQ3(CoordQ3(1, 0, 1), CoordQ3(0, 1, 1))
    assert dist_sq(p, q) == CoordQ3(4)  # 1 + 3
    assert cross(q, p, m).sign() == 0  # collinear


@given(coords, coords, coords, coords)
def test_point_dist_symmetry(ax, ay, bx, by):
    p, q = PointQ3(ax, ay), PointQ3(bx, by)
    assert dist_sq(p, q) == dist_sq(q, p)
    assert dist_sq(p, q).sign() >= 0


@given(coords)
def test_lifts_equal_the_library_values(x):
    # the oracle's types equal, and hash like, the library value they lift
    c = CoordQ3(x.a, x.b, x.k)
    assert ring(c) == c and c == ring(c) and hash(ring(c)) == hash(c)
    q = QSqrt3(Fraction(x.a, 1 << x.k), Fraction(x.b, 1 << x.k))
    assert field(c) == q and q == field(c) and hash(field(c)) == hash(q)
    assert field(q) == FieldQ3.from_coord(c)
