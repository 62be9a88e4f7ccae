"""Grafting: level thresholds, vertex agreement, certificate constants."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from holderlevels.bernoulli import BernoulliWitnessFn
from holderlevels.exact import midpoint
from holderlevels.graft import (
    GRAFT_BUDGET,
    NotStandardError,
    _repeated_value_labels,
    graft,
    graft_certificate_constant,
    min_graft_level,
)
from holderlevels.levelset import odd_corner
from holderlevels.paf import random_standard_paf
from holderlevels.triangles import triangle_vertices

import geometry_oracle as oracle
from geometry_oracle import ROOT_VERTICES
from helpers import affine_from_corners


def test_min_graft_level_example():
    # M = 2/sqrt(3), alpha = 1/2: smallest n' with M 2**(-n'/2) < 1/100 is 14
    M = 2 / math.sqrt(3)
    n = min_graft_level(M, 0.5)
    assert n == 14
    assert M * 2 ** (-n / 2) < 0.01 <= M * 2 ** (-(n - 1) / 2)


def test_certificate_constant_below_budget():
    # whenever the step threshold holds the closed form stays below 1/8
    for alpha in (0.1, 0.5, 0.9):
        for M in (0.05, 1.0, 40.0):
            n = min_graft_level(M, alpha)
            assert graft_certificate_constant(M, alpha, n) < float(GRAFT_BUDGET)


def test_graft_rejects_small_level():
    g = affine_from_corners(Fraction(0), Fraction(0), Fraction(1)).standardize()
    w = BernoulliWitnessFn.for_alpha(0.5)
    with pytest.raises(ValueError, match="smallest admissible level is"):
        graft(g, 5, w)


def test_graft_rejects_nonstandard():
    g = affine_from_corners(Fraction(0), Fraction(1), Fraction(2)).refine(1)
    w = BernoulliWitnessFn.for_alpha(0.5)
    with pytest.raises(NotStandardError):
        graft(g, 20, w)
    # the labels (base1, base2, apex) for every equality pattern of a triple:
    # the apex is the odd corner, the base the other two in increasing order
    F = Fraction
    for values, labels in [((F(5), F(5), F(5)), (0, 1, 2)),
                           ((F(1), F(1), F(2)), (0, 1, 2)), ((F(2), F(2), F(1)), (0, 1, 2)),
                           ((F(2), F(1), F(1)), (1, 2, 0)), ((F(1), F(2), F(2)), (1, 2, 0)),
                           ((F(1), F(2), F(1)), (0, 2, 1)), ((F(2), F(1), F(2)), (0, 2, 1))]:
        assert _repeated_value_labels(values) == labels
        odd = odd_corner(values)
        assert odd is None if len(set(values)) == 1 else odd[0] == labels[2]
    for values in itertools.permutations((F(0), F(1), F(2))):
        with pytest.raises(NotStandardError):
            _repeated_value_labels(values)


def test_constant_base_grafts_to_constant():
    g = affine_from_corners(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)).standardize()
    gf = graft(g, 4, BernoulliWitnessFn(Fraction(3, 4)))
    pts = [ROOT_VERTICES[0], midpoint(ROOT_VERTICES[0], ROOT_VERTICES[2]),
           triangle_vertices("0123"[:0] + "0" * 4)[1]]
    assert all(gf.eval(p) == Fraction(1, 2) for p in pts)


def test_graft_agrees_with_base_on_vertices():
    g = affine_from_corners(Fraction(0), Fraction(0), Fraction(1)).standardize()
    w = BernoulliWitnessFn.for_alpha(0.5)
    n = min_graft_level(g.lipschitz(), 0.5)
    gf = graft(g, n, w)
    rng = random.Random(5)
    for _ in range(25):
        word = "".join(str(rng.randrange(3)) for _ in range(n))
        base_vals = g.corner_values(word)
        for corner, p in enumerate(triangle_vertices(word)):
            assert gf.value_in_triangle(word, p) == base_vals[corner]


def test_apex_value_is_base_value():
    # phi is exactly 1 at the apex image, so the graft returns g(v3)
    g = random_standard_paf(4, 2, 0.5, 0.1, check=False)
    n = max(min_graft_level(g.lipschitz(), 0.5), g.level)
    gf = graft(g, n, BernoulliWitnessFn.for_alpha(0.5))
    word = "1" * n
    labels = _repeated_value_labels(gf.base.corner_values(word))
    apex = triangle_vertices(word)[labels[2]]
    assert gf.value_in_triangle(word, apex) == g.corner_values(word)[labels[2]]


def test_interior_value_between_base_corners():
    g = random_standard_paf(6, 2, 0.5, 0.1, check=False)
    n = max(min_graft_level(g.lipschitz(), 0.5), g.level)
    gf = graft(g, n, BernoulliWitnessFn.for_alpha(0.5))
    word = "0" * n
    vs = triangle_vertices(word)
    x = midpoint(midpoint(vs[0], vs[1]), vs[2])
    vals = g.corner_values(word)
    val = float(gf.value_in_triangle(word, x))
    assert min(map(float, vals)) - 1e-12 <= val <= max(map(float, vals)) + 1e-12


def test_grafted_holder_ratio_within_constant():
    # empirical per-triangle ratios stay under the closed-form constant
    g = random_standard_paf(12, 2, 0.5, 0.1, check=False)
    n = max(min_graft_level(g.lipschitz(), 0.5), g.level)
    gf = graft(g, n, BernoulliWitnessFn.for_alpha(0.5))
    rng = random.Random(1)
    word = "2" * n
    vs = triangle_vertices(word)
    pts = list(vs)
    for _ in range(8):
        i, j = rng.randrange(3), rng.randrange(3)
        pts.append(midpoint(pts[i], pts[j]))
    vals = [float(gf.value_in_triangle(word, p)) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = math.sqrt(float(oracle.dist_sq(pts[i], pts[j])))
            if dist == 0:
                continue
            ratio = abs(vals[i] - vals[j]) / dist**0.5
            assert ratio <= gf.certificate_constant * (1 + 1e-9)


def test_value_in_triangle_rejects_a_point_outside():
    # a vertex of the sibling cell: apex weight 0 in the addressed cell,
    # so without the check it would return the base value silently
    g = random_standard_paf(4, 2, 0.5, 0.1, check=False)
    n = max(min_graft_level(g.lipschitz(), 0.5), g.level)
    gf = graft(g, n, BernoulliWitnessFn.for_alpha(0.5))
    rng = random.Random(3)
    while True:
        parent = "".join(str(rng.randrange(3)) for _ in range(n - 1))
        word = parent + "0"
        if _repeated_value_labels(gf.base.corner_values(word))[2] == 2:
            break
    outside = triangle_vertices(parent)[1]     # weights (-1, 2, 0) in ``word``
    with pytest.raises(ValueError, match="outside triangle"):
        gf.value_in_triangle(word, outside)
    field = (oracle.field(outside.x), oracle.field(outside.y))
    with pytest.raises(ValueError, match="outside triangle"):
        gf.value_in_triangle(word, field)
    inside = triangle_vertices(word)[1]
    assert gf.value_in_triangle(word, inside) == g.corner_values(word)[1]


def test_graft_level_follows_the_witness_p():
    # a witness with p = 0.9 could once claim alpha = 0.999, which named
    # level 2697 as the smallest admissible one; p alone gives 4
    base = random_standard_paf(100, 2, 0.5, 0.1, check=False)
    with pytest.raises(ValueError, match="alpha"):
        BernoulliWitnessFn(p=0.9, alpha=0.999)
    with pytest.raises(ValueError, match="smallest admissible level is 4$"):
        graft(base, 2, BernoulliWitnessFn(p=0.9))
