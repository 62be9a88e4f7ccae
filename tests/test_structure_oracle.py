"""The integer structure checks of ``PiecewiseAffineFn`` against Fraction oracles.

``is_standard``, ``oscillation``, ``lipschitz_sq`` and ``standardize``
read the integer word table at scale D and build at most one ``Fraction`` at the end.
The oracles in ``helpers`` are their former ``Fraction`` versions, which
read each level-n triangle's corners through ``corner_values``; the
two must agree exactly, on the generator's standard functions and on
affine, constant, refined and standardized ones.
"""

import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels.paf import PiecewiseAffineFn, random_standard_paf
from holderlevels.triangles import level_index

from helpers import (
    affine_from_corners,
    constant_fn,
    fraction_is_locally_nonconstant,
    fraction_is_standard,
    fraction_lipschitz_sq,
    fraction_oscillation,
    fraction_standardize,
)

F = Fraction


@lru_cache(maxsize=None)
def corpus_fn(seed: int, level: int):
    return random_standard_paf(seed, level, (0.3, 0.5, 0.8)[seed % 3], 0.9, check=False)


def generic_fn(seed: int, level: int) -> PiecewiseAffineFn:
    """Seeded values with small denominators: almost surely no triangle is standard."""
    rng = random.Random(seed)
    return PiecewiseAffineFn(level, {p: F(rng.randint(-60, 60), rng.randint(1, 60))
                                     for p in level_index(level).vertices})


def assert_matches_oracles(fn):
    assert fn.is_standard() is fraction_is_standard(fn)
    osc, lip = fn.oscillation(), fn.lipschitz_sq()
    assert type(osc) is type(lip) is Fraction
    assert osc == fraction_oscillation(fn)
    assert lip == fraction_lipschitz_sq(fn)
    std, oracle = fn.standardize(), fraction_standardize(fn)
    # the subdivision is another function, which no certificate checked
    assert (std.level, std.is_standard(), std.holder) == (oracle.level, True, None)
    # same keys, values and insertion order: the grid order names the
    # first colliding vertex of a level value
    assert list(std.grid.items()) == list(oracle.grid.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=99), st.integers(min_value=1, max_value=6))
def test_corpus_functions_match_fraction_oracles(seed, level):
    fn = corpus_fn(seed, level)
    assert fn.is_standard() and fraction_is_locally_nonconstant(fn)
    assert_matches_oracles(fn)


@pytest.mark.parametrize("make", [
    lambda: affine_from_corners(F(0), F(1), F(2), level=3),
    lambda: affine_from_corners(F(-1, 3), F(5, 7), F(5, 7), level=2),
    lambda: constant_fn(F(2, 5), level=3),
    lambda: constant_fn(F(0)),
    lambda: generic_fn(1, 2),
    lambda: generic_fn(2, 2).refine(4),
    lambda: corpus_fn(5, 3).standardize(),
    lambda: corpus_fn(6, 2).standardize().standardize(),
], ids=["affine", "affine-tie", "constant", "constant-0", "generic", "refined",
        "standardized", "standardized-twice"])
def test_special_functions_match_fraction_oracles(make):
    assert_matches_oracles(make())


def test_refined_function_is_not_standard():
    fn = generic_fn(2, 2)
    fine = fn.refine(4)
    assert not fine.is_standard() and not fraction_is_standard(fine)
    # refining keeps each affine piece, hence the Lipschitz constant
    assert fine.lipschitz_sq() == fn.lipschitz_sq()
