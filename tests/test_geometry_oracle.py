"""Point location and weights from lattice coordinates, against the exact ring.

``locate`` and ``lattice_weights`` read a point's integer lattice
coordinates; ``geometry_oracle`` locates by cross-product containment
tests in the CoordQ3 ring and weighs in Q(sqrt(3)).  The points are
vertices, midpoints and deeper dyadic points of construction triangles,
non-dyadic field pairs such as barycentric thirds, and lattice-rational
points in a box around the unit triangle: in removed holes, on shared
corners and edges, and outside the root.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import pytest

from holderlevels.bernoulli import BernoulliWitnessFn
from holderlevels.exact import CoordQ3, PointQ3, QSqrt3, midpoint
from holderlevels.graft import graft
from holderlevels.triangles import (
    delta_lattice_index,
    lattice_coordinates,
    lattice_weights,
    locate,
    triangle_vertices,
)

import geometry_oracle as oracle
from geometry_oracle import ROOT_VERTICES, SQRT3, FieldQ3, RingQ3
from helpers import affine_from_corners

F = Fraction


@st.composite
def ring_points(draw):
    """A vertex, an edge midpoint or a deeper dyadic point of a triangle."""
    pts = list(triangle_vertices(draw(st.text(alphabet="012", max_size=10))))
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
        pts.append(midpoint(pts[i], pts[j]))
    return draw(st.sampled_from(pts))


@st.composite
def field_points(draw):
    """A QSqrt3 pair with weights (1 - i/q - j/q, i/q, j/q) in a triangle.

    q up to 12 gives thirds, fifths and other non-dyadic points; weights
    down to -1 reach neighbouring cells, holes and points outside.
    """
    corners = [oracle.as_field_pair(v)
               for v in triangle_vertices(draw(st.text(alphabet="012", max_size=8)))]
    q = draw(st.integers(1, 12))
    wb, wc = F(draw(st.integers(-q, 2 * q)), q), F(draw(st.integers(-q, 2 * q)), q)
    ws = (1 - wb - wc, wb, wc)
    return tuple(sum((w * v[axis] for w, v in zip(ws, corners)), FieldQ3(0))
                 for axis in (0, 1))


def grid_point(r: Fraction, c: Fraction, ring: bool):
    """The point with lattice coordinates (R, C): a PointQ3 or a field pair."""
    if ring:
        return PointQ3(RingQ3.from_fraction(c + r / 2), RingQ3.from_fraction(r / 2) * SQRT3)
    return (QSqrt3(c + r / 2), QSqrt3(0, r / 2))


@st.composite
def grid_points(draw):
    """Lattice coordinates i/m, j/m in a box around the unit triangle."""
    m = draw(st.sampled_from([1 << k for k in range(9)] + [3 << k for k in range(7)]))
    r, c = (F(draw(st.integers(-m // 4 - 1, m + m // 4 + 1)), m) for _ in range(2))
    return grid_point(r, c, ring=m & (m - 1) == 0 and draw(st.booleans()))


def check_against_oracle(point, level: int, other: str) -> None:
    """``locate`` agrees with the containment walk, and the weights in the
    located cell and in the cell ``other`` (where they may be negative)
    with the exact barycentric weights."""
    try:
        expected = oracle.locate(point, level)
    except ValueError:
        with pytest.raises(ValueError):
            locate(point, level)
        expected = None
    else:
        assert locate(point, level) == expected
    for word in {expected, other[:level]} - {None}:
        ws = lattice_weights(point, *delta_lattice_index(word), level)
        assert all(type(w) is Fraction for w in ws)
        assert tuple(map(QSqrt3, ws)) == oracle.barycentric_weights(point, triangle_vertices(word))


@given(st.one_of(ring_points(), field_points(), grid_points()), st.integers(0, 8),
       st.text(alphabet="012", min_size=8, max_size=8))
@settings(max_examples=400, deadline=None)
@example(ROOT_VERTICES[2], 8, "00000000")                                # the apex
@example(midpoint(ROOT_VERTICES[0], ROOT_VERTICES[1]), 5, "11111111")    # corner of 0 and 1
@example(grid_point(F(1, 4), F(1, 4), ring=True), 3, "01201201")         # the hole's centre
@example((QSqrt3(F(1, 2)), QSqrt3(0, F(1, 6))), 4, "22222222")           # the centroid
@example((F(3, 4), F(0)), 6, "10101010")                                 # a rational pair
def test_locate_and_weights_match_the_exact_ring(point, level, other):
    check_against_oracle(point, level, other)


def test_locate_matches_the_exact_ring_on_a_grid():
    # every (R, C) = (i, j)/8 around the triangle: corners, edges, holes, outside
    for i, j in itertools.product(range(-2, 11), repeat=2):
        point = grid_point(F(i, 8), F(j, 8), ring=True)
        for level in range(5):
            check_against_oracle(point, level, "2101")


def test_lattice_coordinates():
    # (R, C) of the apex, an edge midpoint and the centroid; a PointQ3's D is a power of two
    for point, expected in ((ROOT_VERTICES[2], (1, 0)),
                            (midpoint(ROOT_VERTICES[1], ROOT_VERTICES[2]), (F(1, 2), F(1, 2))),
                            ((QSqrt3(F(1, 2)), QSqrt3(0, F(1, 6))), (F(1, 3), F(1, 3)))):
        a, b, d = lattice_coordinates(point)
        assert (F(a, d), F(b, d)) == expected
        assert isinstance(point, tuple) or d & (d - 1) == 0


def test_irrational_lattice_coordinates_raise():
    # both lie in the unit triangle, but R or C is irrational
    points = [PointQ3(CoordQ3(0, 1, 2), CoordQ3(0)),        # x = sqrt(3)/4 on the bottom edge
              (QSqrt3(F(1, 2)), QSqrt3(F(1, 4)))]            # y = 1/4
    f = affine_from_corners(F(0), F(0), F(1)).standardize()
    gf = graft(affine_from_corners(F(1, 2), F(1, 2), F(1, 2)).standardize(), 4,
               BernoulliWitnessFn(F(3, 4)))
    for point in points:
        for call in (lambda: locate(point, 3), lambda: lattice_weights(point, 0, 0, 0),
                     lambda: f.eval(point), lambda: gf.eval(point),
                     lambda: gf.value_in_triangle("0000", point)):
            with pytest.raises(ValueError, match="irrational lattice coordinate"):
                call()
