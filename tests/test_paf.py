"""Piecewise affine functions: evaluation, subdivision, certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from holderlevels.exact import CoordQ3, PointQ3, QSqrt3, midpoint
from holderlevels.paf import (
    HolderParams,
    PiecewiseAffineFn,
    affine_from_corners,
    constant_fn,
    holder_certificate,
    max_holder_ratio,
    random_standard_paf,
)
from holderlevels.triangles import ROOT_VERTICES, triangle_vertices

V1, V2, V3 = ROOT_VERTICES


def test_holder_params_validation():
    HolderParams(0.5, 1.0, 2.0)
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
    assert f.eval(shared) == f.values[shared]


def test_refine_preserves_function():
    f = affine_from_corners(Fraction(1), Fraction(2), Fraction(4))
    g = f.refine(3)
    for word in ("00", "12", "221"):
        for p in triangle_vertices(word):
            assert f.eval(p) == g.values[p]


def test_corner_values_below_and_above_level():
    f = random_standard_paf(11, 2, 0.5, 0.9, check=False)
    assert f.corner_values("") == tuple(f.values[p] for p in ROOT_VERTICES)
    v_deep = f.corner_values("0120")
    pts = triangle_vertices("0120")
    assert v_deep == tuple(f.eval(p) for p in pts)


def test_standardize_assignments():
    f = affine_from_corners(Fraction(0), Fraction(0), Fraction(1))
    s = f.standardize()
    assert s.level == 1 and s.standard and s.is_standard()
    assert s.values[midpoint(V1, V2)] == 0
    assert s.values[midpoint(V2, V3)] == 0
    assert s.values[midpoint(V1, V3)] == 1


def test_standardize_constant_noop():
    c = constant_fn(Fraction(5))
    s = c.standardize()
    assert s.is_standard()
    assert set(s.values.values()) == {Fraction(5)}


def test_standardize_preserves_existing_vertices():
    g = random_standard_paf(5, 3, 0.5, 0.9, check=False)
    h = g.standardize()
    for p, v in g.values.items():
        assert h.values[p] == v


def test_standardize_sup_distance_bound():
    f = random_standard_paf(9, 2, 0.5, 0.9, check=False)
    s = f.standardize()
    bound = f.oscillation() / 2
    # the two functions are affine on level-(n+1) triangles, so the sup
    # of their difference is attained on the finer vertex set
    worst = max(abs(s.values[p] - f.eval(p)) for p in s.values)
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
    assert cert.chained_bound == pytest.approx(cert.max_ratio * 4 / math.sqrt(3))
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
    assert a.values == b.values
    assert a.is_standard() and a.is_locally_nonconstant()
    assert a.holder is not None and a.holder.lipschitz > 0
    # every triangle has exactly two equal corner values
    for _, (q1, q2, q3) in a.iter_triangles():
        assert len({q1, q2, q3}) == 2


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
    assert back.values == fn.values
    assert back.standard == fn.standard
