"""Piecewise affine functions: evaluation, subdivision, certificates."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from holderlevels import paf
from holderlevels.exact import CoordQ3, PointQ3, QSqrt3, midpoint
from holderlevels.paf import (
    HolderParams,
    PiecewiseAffineFn,
    holder_certificate,
    max_holder_ratio,
    random_standard_paf,
)
from holderlevels.triangles import lattice_point, level_index, triangle_vertices

import geometry_oracle as oracle
from geometry_oracle import ROOT_VERTICES
from helpers import (
    affine_from_corners,
    constant_fn,
    fraction_is_locally_nonconstant,
    fraction_triangles,
    point_values,
)

V1, V2, V3 = ROOT_VERTICES


def test_holder_params_validation():
    HolderParams(0.5, 1.0)
    with pytest.raises(ValueError):
        HolderParams(1.5, 1.0)
    with pytest.raises(ValueError):
        HolderParams(0.5, -1.0)


def test_eval_at_vertices_and_midpoints():
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    assert f.eval(V3) == 1
    assert f.eval(midpoint(V1, V2)) == 0
    assert f.eval(midpoint(V1, V3)) == Fraction(1, 2)


def test_eval_centroid():
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    centroid = (QSqrt3(Fraction(1, 2)), QSqrt3(0, Fraction(1, 6)))
    assert f.eval(centroid) == Fraction(1, 3)


def test_eval_outside_rejected():
    f = constant_fn(Fraction(1))
    with pytest.raises(ValueError):
        f.eval(PointQ3(CoordQ3(3), CoordQ3(0)))


def test_eval_consistent_on_shared_corner():
    # corners shared between adjacent triangles evaluate identically
    f = random_standard_paf(3, 3, 0.5, 0.9, check=False)
    shared = midpoint(V1, V2)  # corner of triangles '0' and '1'
    assert f.eval(shared) == point_values(f)[shared]


def test_refine_preserves_function():
    f = affine_from_corners(Fraction(1), Fraction(2), Fraction(4))
    g = f.refine(3)
    for word in ("00", "12", "221"):
        for p in triangle_vertices(word):
            assert f.eval(p) == point_values(g)[p]


def test_corner_values_below_and_above_level():
    f = random_standard_paf(11, 2, 0.5, 0.9, check=False)
    assert f.corner_values("") == tuple(point_values(f)[p] for p in ROOT_VERTICES)
    v_deep = f.corner_values("0120")
    pts = triangle_vertices("0120")
    assert v_deep == tuple(f.eval(p) for p in pts)


def test_standardize_assignments():
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    s = f.standardize()
    assert s.level == 1 and s.to_json()["standard"] and s.is_standard()
    assert point_values(s)[midpoint(V1, V2)] == 0
    assert point_values(s)[midpoint(V2, V3)] == 0
    assert point_values(s)[midpoint(V1, V3)] == 1


def test_standardize_constant_noop():
    c = constant_fn(Fraction(5))
    s = c.standardize()
    assert s.is_standard()
    assert set(point_values(s).values()) == {Fraction(5)}


def test_standardize_preserves_existing_vertices():
    g = random_standard_paf(5, 3, 0.5, 0.9, check=False)
    h = g.standardize()
    for p, v in point_values(g).items():
        assert point_values(h)[p] == v


def test_standardize_sup_distance_bound():
    f = random_standard_paf(9, 2, 0.5, 0.9, check=False)
    s = f.standardize()
    bound = f.oscillation() / 2
    # the two functions are affine on level-(n+1) triangles, so the sup
    # of their difference is attained on the finer vertex set
    worst = max(abs(point_values(s)[p] - f.eval(p)) for p in point_values(s))
    assert worst <= bound


def test_standardize_lipschitz_growth():
    # child slopes stay within (4/sqrt(3)) M: squared factor 16/3
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    s = f.standardize()
    assert s.lipschitz_sq() <= Fraction(16, 3) * f.lipschitz_sq()
    for seed in (1, 5, 13):
        g = random_standard_paf(seed, 3, 0.5, 0.9, check=False)
        assert g.standardize().lipschitz_sq() <= Fraction(16, 3) * g.lipschitz_sq()


def test_lipschitz_exact_value():
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    assert f.lipschitz_sq() == Fraction(4, 3)
    assert f.lipschitz() == pytest.approx(2 / math.sqrt(3))


def test_lipschitz_invariant_under_corner_relabeling():
    # the gradient norm must not depend on which corner anchors the formula
    f = affine_from_corners(Fraction(2), Fraction(7), Fraction(3))
    g = affine_from_corners(Fraction(7), Fraction(3), Fraction(2))
    assert f.lipschitz_sq() == g.lipschitz_sq()


def test_certificate_constant_function():
    cert = holder_certificate(constant_fn(Fraction(3)), 0.5, 1.0, depth=3)
    assert cert.max_ratio == 0.0 and cert.passed


def test_certificate_afine_base():
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    cert = holder_certificate(f, 1.0, 0.9, depth=6)
    assert cert.max_ratio == pytest.approx(2 / math.sqrt(3), rel=1e-9)
    assert not cert.passed
    # the chaining factor (4/sqrt(3))**alpha at alpha = 1
    assert cert.safety_factor == pytest.approx(4 / math.sqrt(3))
    a, b = cert.witness_pair
    assert a != b


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_max_holder_ratio_coincident_points():
    # 0/0 on two points at one position counts as 0, not as NaN; a
    # positive difference there is inf, without a divide warning
    zeros = np.zeros(3)
    assert max_holder_ratio(np.array([0.0, 0.0, 1.0]), zeros,
                            np.array([0.0, 0.0, 5.0]), 0.5) == (5.0, (0, 2))
    best, pair = max_holder_ratio(zeros[:2], zeros[:2], np.array([0.0, 1.0]), 0.5)
    assert best == math.inf and pair == (0, 1)


def test_certificate_depth_guard():
    f = random_standard_paf(2, 2, 0.5, 0.9, check=False)
    with pytest.raises(ValueError):
        holder_certificate(f, 0.5, 0.9, depth=1)


def test_generator_determinism_and_contract():
    a = random_standard_paf(42, 4, 0.5, 0.9)
    b = random_standard_paf(42, 4, 0.5, 0.9)
    assert point_values(a) == point_values(b)
    assert a.is_standard() and fraction_is_locally_nonconstant(a)
    assert a.holder == HolderParams(0.5, 0.9) and a.lipschitz() > 0
    # every triangle has exactly two equal corner values
    for _, (q1, q2, q3) in fraction_triangles(a):
        assert len({q1, q2, q3}) == 2


def test_holder_is_set_only_by_a_passed_certificate():
    # neither function meets (alpha, c) = (1, 0.9): the certificates read
    # 0.9071 and 1.559, so neither may claim those constants
    unchecked = random_standard_paf(3, 3, 1.0, 0.9, check=False)
    assert unchecked.holder is None
    assert not holder_certificate(unchecked, 1.0, 0.9, depth=4).passed
    checked = random_standard_paf(0, 3, 1.0, 0.9)
    assert checked.holder == HolderParams(1.0, 0.9)
    assert checked.refine(4).holder == checked.holder      # the same function
    # the constructor claims no constants: the same table built anew has none
    assert PiecewiseAffineFn(3, dict(checked.grid)).holder is None
    with pytest.raises(TypeError):
        PiecewiseAffineFn(3, dict(checked.grid), holder=HolderParams(1.0, 0.01))
    std = checked.standardize()
    assert std.holder is None
    assert not holder_certificate(std, 1.0, 0.9, depth=5).passed


def test_generator_certificate_passes():
    fn = random_standard_paf(17, 4, 0.5, 0.9)
    cert = holder_certificate(fn, 0.5, 0.9, depth=6)
    assert cert.max_ratio <= 0.9


def test_generator_rejects_level_zero():
    with pytest.raises(ValueError):
        random_standard_paf(1, 0, 0.5, 0.9)


def test_json_roundtrip():
    fn = random_standard_paf(8, 3, 0.8, 0.9, check=False)
    data = fn.to_json()
    back = PiecewiseAffineFn.from_json(data)
    assert back.level == fn.level
    assert point_values(back) == point_values(fn)
    assert back.is_standard() == fn.is_standard() == data["standard"] is True


def test_json_standard_is_read_from_the_table():
    refined = random_standard_paf(7, 3, 1.0, 0.9).refine(5)
    for fn in (refined, affine_from_corners(Fraction(0), Fraction(0), Fraction(1)),
               constant_fn(Fraction(2), 2)):
        assert fn.to_json()["standard"] is fn.is_standard() is True
    generic = affine_from_corners(Fraction(0), Fraction(1), Fraction(2))
    assert generic.to_json()["standard"] is generic.is_standard() is False
    # a wrong flag in the input is not carried over
    back = PiecewiseAffineFn.from_json(dict(generic.to_json(), standard=True))
    assert back.to_json() == generic.to_json()


def test_generator_checks_alpha_before_generating(monkeypatch):
    # without an RNG module, any generation step would raise AttributeError
    monkeypatch.setattr(paf, "random", None)
    for alpha in (0.0, -0.5, 1.5, math.nan):
        for check in (True, False):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
                random_standard_paf(1, 3, alpha, 0.9, check=check)


def test_from_json_rejects_bad_corner_index():
    data = random_standard_paf(8, 2, 0.8, 0.9, check=False).to_json()
    data["entries"][0] = ("00:5", data["entries"][0][1])
    with pytest.raises(ValueError, match="corner must be 0, 1 or 2"):
        PiecewiseAffineFn.from_json(data)


def test_generator_rejects_non_finite_c(monkeypatch):
    monkeypatch.setattr(paf, "random", None)
    for c in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            random_standard_paf(1, 3, 0.5, c)


def test_from_json_rejects_short_table_before_building_it(monkeypatch):
    # the vertex count alone rejects it: no lattice index of V_40 is built
    def unreachable(level):
        raise AssertionError(f"built the lattice index of level {level}")

    monkeypatch.setattr(paf, "level_index", unreachable)
    with pytest.raises(ValueError, match="0 of the 18236498188585393203 vertices of level 40"):
        PiecewiseAffineFn.from_json({"level": 40, "entries": []})
    with pytest.raises(ValueError, match=r"1 of the \(3\*\*1000001 \+ 3\)/2 vertices"):
        PiecewiseAffineFn.from_json({"level": 10**6, "entries": [("0:0", "1")]})


def test_from_json_rejects_incomplete_or_conflicting_table():
    with pytest.raises(ValueError, match="1 of the 15 vertices of level 2"):
        PiecewiseAffineFn.from_json({"level": 2, "entries": [("00:0", "1/2")]})
    data = affine_from_corners(Fraction(0), Fraction(1), Fraction(2), level=1).to_json()
    assert ("0:1", "1/2") in data["entries"]     # "1:0" names the same vertex
    with pytest.raises(ValueError, match="second value"):
        PiecewiseAffineFn.from_json({**data, "entries": [*data["entries"], ("1:0", "1")]})
    with pytest.raises(ValueError, match="negative"):
        PiecewiseAffineFn.from_json({"level": -1, "entries": []})


def test_grid_keys_checked_at_construction():
    # a table keyed by exact points instead of lattice indices fails here,
    # not later inside the walk
    points = {lattice_point(*p, 1): Fraction(0) for p in level_index(1).vertices}
    with pytest.raises(ValueError, match="is not the lattice index of a vertex of level 1"):
        PiecewiseAffineFn(1, points)
    grid = dict(affine_from_corners(Fraction(0), Fraction(1), Fraction(2), level=1).grid)
    del grid[0, 1]
    with pytest.raises(ValueError, match=r"5 of the 6 vertices of level 1 have values; \(0, 1\)"):
        PiecewiseAffineFn(1, grid)
    with pytest.raises(ValueError, match=r"\(4, 0\) is not the lattice index"):
        PiecewiseAffineFn(1, {**grid, (4, 0): Fraction(1)})
    with pytest.raises(ValueError, match="level -1 is negative"):
        PiecewiseAffineFn(-1, {})


def test_grid_does_not_follow_the_callers_dict():
    # the vertex table is the integers; a later write to the caller's dict changes nothing
    g = {(0, 0): Fraction(0), (0, 1): Fraction(1), (1, 0): Fraction(2)}
    fn = PiecewiseAffineFn(0, g)
    g[0, 0] = Fraction(5)
    assert fn.grid[0, 0] == 0
    assert fn.to_json() == PiecewiseAffineFn(0, {**g, (0, 0): Fraction(0)}).to_json()
    assert fn.corner_values("") == (0, 1, 2)


def test_both_constructors_set_the_same_fields():
    # the public constructor and _from_ints share one initializer, so every
    # derived table starts unbuilt on either path and holds the same values
    made = random_standard_paf(5, 2, 0.5, 0.9, check=False)
    public = PiecewiseAffineFn(made.level, dict(made.grid))
    ints = PiecewiseAffineFn._from_ints(made.level, made._den, dict(made._numerators))
    fresh = PiecewiseAffineFn._from_ints(1, 3, {(0, 0): 0, (0, 1): 3, (1, 0): 6,
                                                (0, 2): 1, (1, 1): 2, (2, 0): 4})
    assert vars(public).keys() == vars(ints).keys() == vars(fresh).keys()
    assert fresh._den == 3 and fresh.holder is None
    assert all(getattr(fresh, f) in (None, {}) for f in vars(fresh) if f.startswith("_")
               and f not in ("_den", "_numerators"))
    for fn in (public, ints):
        assert (fn.level, fn._den, fn._numerators) == (made.level, made._den, made._numerators)
        assert fn.int_word_table() == made.int_word_table()
        assert fn._has_constant_triangle() == made._has_constant_triangle()
        assert fn.grid == made.grid


def test_constructor_rejects_a_wrong_grid_before_building_the_index(monkeypatch):
    # a grid of the wrong size cannot be valid: lattice arithmetic alone rejects it
    def unreachable(level):
        raise AssertionError(f"built the lattice index of level {level}")

    monkeypatch.setattr(paf, "level_index", unreachable)
    with pytest.raises(ValueError, match=r"1 of the 18236498188585393203 vertices of "
                                         r"level 40 have values; \(0, 1\) has none"):
        PiecewiseAffineFn(40, {(0, 0): Fraction(0)})
    with pytest.raises(ValueError, match=r"key \(3, 3\) is not the lattice index"):
        PiecewiseAffineFn(40, {(0, 0): Fraction(0), (3, 3): Fraction(1)})
    with pytest.raises(ValueError, match=r"1 of the \(3\*\*65 \+ 3\)/2 vertices"):
        PiecewiseAffineFn(64, {(0, 0): Fraction(0)})


@pytest.mark.parametrize("level", range(7))
def test_lattice_arithmetic_matches_the_index(level):
    vertices = level_index(level).vertices
    assert list(paf._sorted_vertices(level)) == sorted(vertices)
    side = 1 << level
    assert {(row, col) for row in range(-1, side + 2) for col in range(-1, side + 2)
            if paf._is_vertex(level, (row, col))} == vertices.keys()
    grid = dict.fromkeys(vertices, Fraction(0))
    last = max(vertices)
    del grid[last]
    message = (f"{len(grid)} of the {len(vertices)} vertices of level {level} have "
               f"values; {last} has none")
    with pytest.raises(ValueError, match=re.escape(message)):
        PiecewiseAffineFn(level, grid)


def test_eval_lattice_and_field_weights_agree():
    f = random_standard_paf(5, 3, 0.5, 0.9, check=False)
    a, b, c = triangle_vertices("0121")
    p = midpoint(midpoint(a, b), c)
    field = (oracle.field(p.x), oracle.field(p.y))
    assert f.eval(p) == f.eval(field) == f.corner_values("0121")[2] / 2 + sum(
        f.corner_values("0121")[:2]) / 4
