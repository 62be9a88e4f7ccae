"""Digit-measure laws: cylinder masses, the CDF witness, digit statistics."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holderlevels.bernoulli import (
    _HEAD_DIGITS,
    BernoulliWitnessFn,
    _head_table,
    _unit_ratio,
    cdf_from_digits,
    p_for_holder_exponent,
    sample_digits,
)

from helpers import _binary_digits, digits_of_dyadic, sample_dyadic


def dyadic_cylinder_mass(digits, p):
    """Mass p**(sum e) (1-p)**(sum (1-e)) of the cylinder with prefix ``digits``.

    The oracle for differences of the CDF; exact when p is a Fraction.
    """
    if not set(digits) <= {0, 1}:
        raise ValueError(f"binary digits expected, got {digits!r}")
    ones = sum(digits)
    return p**ones * (1 - p) ** (len(digits) - ones)


def bernoulli_cdf(x, p, max_depth: int = 4096):
    """Mass of [0, x) from the first ``max_depth`` binary digits of x.

    The witness's own bit loop, with x = 0 and x = 1 giving zero and one
    in the arithmetic type of p; a height outside [0, 1] is a ValueError.
    """
    num, den = _unit_ratio(x)
    if num == 0 or num == den:
        return p - p + num // den
    return BernoulliWitnessFn(p, max_depth=max_depth).value_at_height(x)


class Height(Fraction):
    """A Fraction subclass, which the witness reads as a Fraction."""


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
    # the ints 0 and 1, whatever the height's type; a bool is no height
    for end in (Fraction(0), Fraction(1), Height(1), 0, 1, 0.0, 1.0):
        value = w.value_at_height(end)
        assert type(value) is int and value == end
    assert w.alpha == 0.5
    with pytest.raises(ValueError):
        BernoulliWitnessFn(Fraction(1, 3))
    for bad in (Fraction(3, 2), Height(3, 2), 2, -1, False, True):
        with pytest.raises(ValueError, match=r"expected a value in \[0, 1\]"):
            w.value_at_height(bad)


def test_for_alpha_keeps_its_alpha():
    # its p = 2**-alpha passes the check on a given alpha, though
    # -log2(p) does not give every alpha back
    for k in range(1, 1000):
        assert BernoulliWitnessFn.for_alpha(k / 1000).alpha == k / 1000


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
        <= w.p ** w.max_depth
    assert w.p ** w.max_depth == 0.75**8


def test_float_heights_get_the_fraction_checks():
    w = BernoulliWitnessFn.for_alpha(0.5)
    assert w.value_at_height(1.0) == 1
    assert w.value_at_height(0.0) == 0
    assert w.value_at_height(0.5) == w.value_at_height(Fraction(1, 2))
    for bad in (1.5, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"expected a value in \[0, 1\]"):
            w.value_at_height(bad)
    assert bernoulli_cdf(1.0, 0.7) == 1
    assert bernoulli_cdf(0.0, 0.7) == 0
    for bad in (2.5, -0.25, float("nan")):
        with pytest.raises(ValueError, match=r"expected a value in \[0, 1\]"):
            bernoulli_cdf(bad, 0.7)


def float_digits(x: float, n: int) -> list[int]:
    """First n binary digits of a float in [0, 1) by exact doubling: the
    digit loop the float CDF path used to run."""
    out = []
    for _ in range(n):
        x *= 2.0
        bit = int(x >= 1.0)
        out.append(bit)
        x -= bit
    return out


def same(a, b) -> bool:
    """Equal, and for floats equal in every bit."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a.hex() == b.hex()
    return a == b


# 11, 12 and 13 sit around the head table's 12 digits
depths = st.sampled_from([0, 1, 5, 11, 12, 13, 48, 64, 200])
float_p = st.floats(min_value=0.01, max_value=0.99).map(lambda a: 2.0 ** -a)
any_p = st.one_of(float_p, rational_p)
dyadic_heights = st.integers(min_value=1, max_value=70).flatmap(
    lambda k: st.integers(min_value=0, max_value=(1 << k) - 1).map(lambda m: Fraction(m, 1 << k)))
rational_heights = st.fractions(min_value=0, max_value=1, max_denominator=10**6) \
    .filter(lambda x: x < 1)


@given(st.one_of(st.just(Fraction(0)), dyadic_heights, rational_heights), any_p, depths)
@settings(max_examples=300)
def test_bit_loop_matches_the_digit_stream(x, p, depth):
    # the old path: the doubling generator cut at max_depth, into cdf_from_digits
    expected = cdf_from_digits(itertools.islice(_binary_digits(x), depth), p)
    assert same(bernoulli_cdf(x, p, depth), expected)
    # the base gives the int 0, whatever the type of p
    assert same(BernoulliWitnessFn(p, max_depth=depth).value_at_height(x),
                expected if x else 0)


@given(st.one_of(dyadic_heights, rational_heights), any_p, depths)
@settings(max_examples=200)
def test_every_height_type_reads_as_its_fraction(x, p, depth):
    w = BernoulliWitnessFn(p, max_depth=depth)
    assert same(w.value_at_height(Height(x)), w.value_at_height(x))
    assert same(w.value_at_height(float(x)), w.value_at_height(Fraction(float(x))))


# numerators and denominators past 2**53 too, where float(num) / float(den) rounds twice
wide_heights = st.randoms(use_true_random=True).map(
    lambda r: Fraction(*sorted(r.randrange(1 << 54, 1 << 80) for _ in range(2))))
any_height = st.one_of(dyadic_heights, rational_heights, wide_heights,
                       st.integers(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
                       st.builds(Height, rational_heights))


@given(any_height, any_height, st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=300)
def test_holder_bound_is_the_float_formula(x, y, alpha):
    w = BernoulliWitnessFn.for_alpha(alpha)
    assert same(w.holder_bound(x, y), 3.0 * abs(float(x) - float(y)) ** alpha)


def test_witness_fields_are_frozen():
    # the checks of __post_init__ hold for the witness's whole life
    w = BernoulliWitnessFn.for_alpha(0.5)
    for field, value in (("p", 0.3), ("max_depth", -1), ("alpha", 0.7)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(w, field, value)
    assert (w.p, w.max_depth, w.alpha) == (2 ** -0.5, 64, 0.5)
    assert BernoulliWitnessFn(Fraction(3, 4)).alpha == -math.log2(0.75)


@given(st.floats(min_value=0, max_value=1, exclude_max=True), any_p, depths)
@settings(max_examples=200)
def test_float_heights_match_the_float_digit_loop(x, p, depth):
    assert same(bernoulli_cdf(x, p, depth), cdf_from_digits(float_digits(x, depth), p))


def loop_state(digits, p):
    """(total, mass) of the digit loop of ``cdf_from_digits`` after ``digits``."""
    total, mass = p - p, 1 - p + p
    for e in digits:
        if e:
            total += mass * (1 - p)
            mass *= p
        else:
            mass *= 1 - p
    return total, mass


def test_witnesses_of_one_float_p_share_one_head_table():
    # the table is built on the first value read, once per (p, H)
    p = 2.0 ** -0.37
    _head_table.cache_clear()
    a, b = BernoulliWitnessFn(p, max_depth=48), BernoulliWitnessFn.for_alpha(0.37)
    assert _head_table.cache_info().currsize == 0
    for w in (a, b):
        digits = itertools.islice(_binary_digits(Fraction(1, 3)), w.max_depth)
        assert same(w.value_at_height(Fraction(1, 3)), cdf_from_digits(digits, p))
    totals, masses, h = a._head
    assert h == _HEAD_DIGITS == 12 and len(totals) == len(masses) == 1 << h
    assert b._head[0] is totals and b._head[1] is masses
    assert _head_table.cache_info().currsize == 1
    # a shallower witness reads a table of its own depth
    assert BernoulliWitnessFn(p, max_depth=5)._head[2] == 5
    # each entry is the loop's state after its digits, bit for bit
    for i in (0, 1, 2, 1234, 2048, (1 << h) - 1):
        total, mass = loop_state([i >> (h - 1 - j) & 1 for j in range(h)], p)
        assert (totals[i].hex(), masses[i].hex()) == (total.hex(), mass.hex()), i


def test_a_non_float_p_builds_no_head_table():
    # a Fraction p stays exact, and a float subclass keeps its own type:
    # both run the loop from its first digit
    _head_table.cache_clear()
    for p in (Fraction(3, 4), np.float64(0.75)):
        w = BernoulliWitnessFn(p, max_depth=48)
        assert same(w.value_at_height(Fraction(5, 8)), cdf_from_digits([1, 0, 1], p))
        assert type(w.value_at_height(Fraction(5, 8))) is type(p)
        assert w._head == ((p - p,), (1 - p + p,), 0)
    assert _head_table.cache_info().currsize == 0
