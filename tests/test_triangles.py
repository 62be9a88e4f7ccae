"""Subdivision geometry: addresses, boundary families, lattice counts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holderlevels.exact import CoordQ3, PointQ3, QSqrt3, midpoint
from holderlevels.triangles import (
    boundary_family,
    delta_lattice_index,
    lattice_child,
    lattice_weights,
    line_crossing_count,
    line_crossing_count_geometric,
    level_index,
    locate,
    triangle_vertices,
)

from geometry_oracle import (
    ROOT_VERTICES,
    LatticeTriangle,
    barycentric_weights,
    contains_point,
    dist_sq,
    downward_tiles_touched,
    has_boundary_edge,
    line_crossing_count_exact,
    rescaling_similarity,
)
from helpers import iter_subdivision_addresses, subdivision_addresses, touching_up_cells

words = st.text(alphabet="012", min_size=0, max_size=12)


def test_root_vertices():
    vs = triangle_vertices("")
    assert vs[0] == PointQ3(CoordQ3(0), CoordQ3(0))
    assert vs[1] == PointQ3(CoordQ3(1), CoordQ3(0))
    assert vs[2] == PointQ3(CoordQ3(1, 0, 1), CoordQ3(0, 1, 1))


def test_child_scaling():
    vs = triangle_vertices("0")
    assert vs[0] == ROOT_VERTICES[0]
    assert all(dist_sq(vs[i], vs[j]) == CoordQ3(1, 0, 2)
               for i, j in ((0, 1), (1, 2), (0, 2)))


def test_apex_word():
    vs = triangle_vertices("22")
    apex = PointQ3(CoordQ3(1, 0, 1), CoordQ3(0, 1, 1))
    assert contains_point(vs, apex)
    assert all(dist_sq(vs[i], vs[j]) == CoordQ3(1, 0, 4)
               for i, j in ((0, 1), (1, 2), (0, 2)))


@given(words)
@settings(max_examples=60)
def test_side_lengths_and_parent_containment(word):
    vs = triangle_vertices(word)
    side_sq = CoordQ3(1, 0, 2 * len(word))
    assert all(dist_sq(vs[i], vs[j]) == side_sq for i, j in ((0, 1), (1, 2), (0, 2)))
    if word:
        parent = triangle_vertices(word[:-1])
        assert all(contains_point(parent, v) for v in vs)


def test_child_keeps_labeled_corner():
    for word in ("", "1", "21"):
        parent = triangle_vertices(word)
        for sym in range(3):
            child = triangle_vertices(word + str(sym))
            assert child[sym] == parent[sym]


def test_vertex_counts():
    for n in range(9):
        assert len(level_index(n).vertices) == (3 ** (n + 1) + 3) // 2


def test_boundary_family_counts():
    for l in range(1, 7):
        fam = boundary_family(l)
        assert len(fam) == 3 * (2**l - 1)
    assert boundary_family(1) == ("0", "1", "2")
    with pytest.raises(ValueError):
        boundary_family(0)


def test_boundary_family_matches_geometry():
    for l in (1, 2, 3, 4):
        combinatorial = set(boundary_family(l))
        geometric = {
            "".join(w)
            for w in itertools.product("012", repeat=l)
            if has_boundary_edge("".join(w))
        }
        assert combinatorial == geometric


def test_level_two_family_is_everything():
    # with two symbols per word no address can use three distinct symbols
    assert set(boundary_family(2)) == {
        "".join(w) for w in itertools.product("012", repeat=2)
    }


def test_subdivision_addresses():
    assert subdivision_addresses(0, 3) == [""]
    assert sorted(subdivision_addresses(1, 1)) == ["0", "1", "2"]
    fam = subdivision_addresses(2, 3)
    assert len(fam) == 441
    assert all(len(w) == 6 for w in fam)
    assert len(set(fam)) == 441
    with pytest.raises(ValueError):
        subdivision_addresses(10, 3, limit=1000)


def test_locate_and_barycentric():
    apex = ROOT_VERTICES[2]
    assert locate(apex, 3) == "222"
    centroid = (QSqrt3(Fraction(1, 2)), QSqrt3(0, Fraction(1, 6)))
    ws = barycentric_weights(centroid, ROOT_VERTICES)
    assert all(w.as_fraction() == Fraction(1, 3) for w in ws)
    outside = PointQ3(CoordQ3(2), CoordQ3(0))
    with pytest.raises(ValueError):
        locate(outside, 1)


def test_rescaling_similarity_images():
    sim = rescaling_similarity("")
    images = [sim.apply(v) for v in ROOT_VERTICES]
    assert images[0] == (QSqrt3(0), QSqrt3(0))
    assert images[1] == (QSqrt3(0, Fraction(2, 3)), QSqrt3(0))
    assert images[2] == (QSqrt3(0, Fraction(1, 3)), QSqrt3(1))


def test_rescaling_scale_factor():
    # scale 2**n * 2/sqrt(3): squared 4**n * 4/3
    for word in ("", "0", "21"):
        sim = rescaling_similarity(word)
        assert sim.scale_sq == Fraction(4, 3) * 4 ** len(word)


def test_rescaling_apex_height():
    for word, labels in (("", (0, 1, 2)), ("102", (2, 0, 1)), ("0211", (1, 2, 0))):
        sim = rescaling_similarity(word, labels)
        vs = triangle_vertices(word)
        assert sim.apply_height(vs[labels[2]]) == QSqrt3(1)
        assert sim.apply_height(vs[labels[0]]) == QSqrt3(0)
        assert sim.apply_height(vs[labels[1]]) == QSqrt3(0)


def test_rescaling_rejects_bad_labels():
    with pytest.raises(ValueError):
        rescaling_similarity("", (0, 0, 2))


def test_line_crossing_law_examples():
    assert line_crossing_count([1, 1, 1]) == 1
    assert line_crossing_count([0, 0, 0]) == 8
    assert line_crossing_count([1, 0, 1]) == 2
    with pytest.raises(ValueError):
        line_crossing_count([2])


def test_line_crossing_matches_geometry_exhaustive():
    for n in (3, 4):
        for digits in itertools.product((0, 1), repeat=n):
            y = Fraction(sum(d << (n - 1 - i) for i, d in enumerate(digits)), 1 << n)
            y += Fraction(1, 1 << (n + 1))
            assert line_crossing_count(digits) == line_crossing_count_geometric(y, n)
            assert line_crossing_count_geometric(y, n) == line_crossing_count_exact(y, n)


def test_line_crossing_matches_geometry_spot_deep():
    rng = random.Random(11)
    for _ in range(5):
        digits = [rng.randrange(2) for _ in range(6)]
        y = Fraction(sum(d << (5 - i) for i, d in enumerate(digits)), 64)
        y += Fraction(1, 128)
        assert line_crossing_count(digits) == line_crossing_count_geometric(y, 6)
        assert line_crossing_count_geometric(y, 6) == line_crossing_count_exact(y, 6)


def test_line_crossing_rejects_dyadic():
    with pytest.raises(ValueError):
        line_crossing_count_geometric(Fraction(1, 4), 3)
    with pytest.raises(ValueError):
        line_crossing_count_geometric(Fraction(0), 2)
    # dyadic below the working depth is fine
    assert line_crossing_count_geometric(Fraction(1, 32), 3) == 8


def test_downward_tiles_bounded_by_twice_upward():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.choice((3, 4))
        digits = [rng.randrange(2) for _ in range(n)]
        y = Fraction(sum(d << (n - 1 - i) for i, d in enumerate(digits)), 1 << n)
        y += Fraction(1, 1 << (n + 1))
        up = line_crossing_count(digits)
        down = len(downward_tiles_touched(y, n))
        assert 0 < down <= 2 * up


def test_lattice_triangle_tiles():
    up = LatticeTriangle(2, 1, 1, "up")
    vs = up.vertices()
    side = Fraction(4, 3)  # squared edge of the scale-0 tile is 4/3; scaled by 4**-n
    for i, j in ((0, 1), (1, 2), (0, 2)):
        dx = vs[i][0] - vs[j][0]
        dy = vs[i][1] - vs[j][1]
        assert (dx * dx + dy * dy).as_fraction() == side / 16
    down = LatticeTriangle(2, 1, 1, "down")
    shared = set(up.vertices()) & set(down.vertices())
    assert len(shared) == 2


def test_delta_lattice_index():
    assert delta_lattice_index("0") == (0, 0)
    assert delta_lattice_index("1") == (0, 1)
    assert delta_lattice_index("2") == (1, 0)
    assert delta_lattice_index("11") == (0, 3)
    assert delta_lattice_index("") == (0, 0)
    assert len(touching_up_cells(0, 0)) == 7


@given(st.text(alphabet="012", max_size=30))
@settings(max_examples=200, deadline=None)
def test_delta_lattice_index_reads_the_lattice_child_fold(word):
    # the index is read from the word's digits; the reference folds lattice_child
    row = col = 0
    for ch in word:
        row, col = lattice_child(row, col, int(ch))
    assert delta_lattice_index(word) == (row, col)


@pytest.mark.parametrize("word", ["3", "01a", "0 1", "1_0", "-1", "٣"])
def test_delta_lattice_index_rejects_bad_symbols(word):
    with pytest.raises(ValueError, match="invalid address"):
        delta_lattice_index(word)


def test_iter_matches_list():
    assert list(iter_subdivision_addresses(2, 2)) == subdivision_addresses(2, 2)


@st.composite
def cell_points(draw):
    """A word of length 1..14 and a point of its triangle: a vertex, an edge
    midpoint, or a deeper dyadic point reached by repeated midpoints."""
    word = draw(st.text(alphabet="012", min_size=1, max_size=14))
    pts = list(triangle_vertices(word))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
        pts.append(midpoint(pts[i], pts[j]))
    return word, draw(st.sampled_from(pts))


@given(cell_points(), st.text(alphabet="012", max_size=3))
@settings(max_examples=300, deadline=None)
def test_lattice_weights_match_field_weights(case, shift):
    word, point = case
    # the point's own cell, and a nearby one (a sibling or cousin) where
    # weights may be negative
    for cell in (word, word[:len(word) - len(shift)] + shift):
        ws = lattice_weights(point, *delta_lattice_index(cell), len(cell))
        assert all(type(w) is Fraction for w in ws)
        assert tuple(QSqrt3(w) for w in ws) == barycentric_weights(point, triangle_vertices(cell))


def test_lattice_weights_need_a_lattice_point():
    centroid = (QSqrt3(Fraction(1, 2)), QSqrt3(0, Fraction(1, 6)))
    assert lattice_weights(centroid, 0, 0, 0) == (Fraction(1, 3),) * 3
    # a sqrt(3) part in x, or a rational part in y: an irrational lattice coordinate
    with pytest.raises(ValueError, match="irrational lattice coordinate"):
        lattice_weights(PointQ3(CoordQ3(0, 1, 2), CoordQ3(0)), 0, 0, 0)
    with pytest.raises(ValueError, match="irrational lattice coordinate"):
        lattice_weights(PointQ3(CoordQ3(1, 0, 1), CoordQ3(1, 0, 2)), 0, 0, 0)
    assert lattice_weights(ROOT_VERTICES[2], 0, 0, 0) == (0, 0, 1)
