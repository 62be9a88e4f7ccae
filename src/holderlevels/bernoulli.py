"""The Bernoulli measure on binary expansions and its CDF witness.

For 1/2 < p < 1 the measure gives each binary digit the value 1 with
probability p; the mass of a dyadic cylinder with digit prefix e_1..e_n
is p**(sum e) * (1-p)**(n - sum e).  The cumulative distribution
function f(x) = mass of [0, x) is the height profile of the witness
function on the rescaled triangle: the witness takes the value f(y) at
every point of height y, vanishes on the bottom edge and is 1 at the
apex.  With p = 2**(-alpha) it satisfies |f(x)-f(y)| <= 3 |x-y|**alpha.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction


def _binary_digits(x: Fraction):
    """Binary digits of a rational x in [0, 1] until the remainder is zero.

    The walk ends only for dyadic x.  The numerator is doubled against
    the denominator, so no Fraction is built per digit.
    """
    num, den = x.numerator, x.denominator
    while num:
        num <<= 1
        if num >= den:
            num -= den
            yield 1
        else:
            yield 0


def digits_of_dyadic(x: Fraction) -> list[int]:
    """Binary digits of a dyadic rational in [0, 1), through the last 1."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("expected a value in [0, 1)")
    if x.denominator & (x.denominator - 1):
        raise ValueError("not a dyadic rational (denominator is not a power of two)")
    return list(_binary_digits(x))


def digit_prefix(x, n: int) -> list[int]:
    """First n binary digits of any x in [0, 1]."""
    if isinstance(x, Fraction):
        out = list(itertools.islice(_binary_digits(x), n))
        return out + [0] * (n - len(out))
    out = []
    x = float(x)
    for _ in range(n):
        x *= 2.0
        bit = int(x >= 1.0)
        out.append(bit)
        x -= bit
    return out


def dyadic_cylinder_mass(digits, p):
    """Mass p**(sum e) (1-p)**(sum (1-e)) of the cylinder with prefix ``digits``.

    Exact when p is a Fraction, floating point otherwise.
    """
    ones = 0
    zeros = 0
    for e in digits:
        if e == 1:
            ones += 1
        elif e == 0:
            zeros += 1
        else:
            raise ValueError(f"binary digits expected, got {e!r}")
    return p**ones * (1 - p) ** zeros


def bernoulli_cdf(x, p, max_depth: int = 4096):
    """Mass of [0, x): the CDF of the digit measure.

    Walks the binary expansion of x, adding the mass of the lower half
    cylinder whenever a digit 1 is consumed.  Exact for dyadic rational
    x and Fraction p; a non-terminating expansion stops after
    ``max_depth`` digits (truncation error at most p**max_depth).
    """
    if isinstance(x, Fraction) or isinstance(x, int):
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError("expected a value in [0, 1]")
        if x == 1:
            return p - p + 1  # one, in the arithmetic type of p
        # trailing zero digits add no mass, so a dyadic x stops early
        return cdf_from_digits(itertools.islice(_binary_digits(x), max_depth), p)
    return cdf_from_digits(digit_prefix(float(x), max_depth), p)


def cdf_from_digits(digits, p):
    """CDF evaluated from an explicit digit sequence."""
    total = p - p
    prefix_mass = 1 - p + p
    for e in digits:
        if e == 1:
            total += prefix_mass * (1 - p)
            prefix_mass *= p
        elif e == 0:
            prefix_mass *= 1 - p
        else:
            raise ValueError(f"binary digits expected, got {e!r}")
    return total


def p_for_holder_exponent(alpha: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return 2.0 ** (-alpha)


@dataclass
class BernoulliWitnessFn:
    """Witness on the rescaled triangle: value f(height) at each point.

    The boundary values are 0 at the two base vertices and 1 at the
    apex.  ``p`` may be a Fraction (all evaluation exact) or a float,
    typically 2**(-alpha); heights are evaluated to ``max_depth`` binary
    digits, so the truncation error is at most p**max_depth.
    """

    p: Fraction | float
    max_depth: int = 64
    alpha: float | None = None

    def __post_init__(self):
        pf = float(self.p)
        if not 0.5 < pf < 1:
            raise ValueError("p must lie in (1/2, 1)")
        if self.alpha is None:
            self.alpha = -math.log2(pf)

    @classmethod
    def for_alpha(cls, alpha: float, max_depth: int = 64) -> "BernoulliWitnessFn":
        return cls(p=p_for_holder_exponent(alpha), max_depth=max_depth, alpha=alpha)

    @property
    def truncation_error(self) -> float:
        """Worst-case error from cutting heights at max_depth digits."""
        return float(self.p) ** self.max_depth

    def value_at_height(self, y):
        """Witness value at height y (exact for dyadic y and Fraction p)."""
        if isinstance(y, Fraction) or isinstance(y, int):
            y = Fraction(y)
            if y <= 0:
                if y < 0:
                    raise ValueError("height below the tile")
                return 0
            if y >= 1:
                if y > 1:
                    raise ValueError("height above the tile")
                return 1
            return bernoulli_cdf(y, self.p, self.max_depth)
        return bernoulli_cdf(float(y), self.p, self.max_depth)

    def holder_bound(self, x, y) -> float:
        """The guaranteed bound 3 |x-y|**alpha for a pair of heights."""
        return 3.0 * abs(float(x) - float(y)) ** self.alpha


def sample_digits(rng: random.Random, p: float, n: int) -> list[int]:
    """n i.i.d. digits that are 1 with probability p."""
    return [1 if rng.random() < p else 0 for _ in range(n)]


def sample_dyadic(rng: random.Random, depth: int) -> Fraction:
    """Uniform dyadic rational with ``depth`` digits."""
    return Fraction(rng.randrange(1 << depth), 1 << depth)
