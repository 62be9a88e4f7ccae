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

import functools
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .triangles import _check_depth, _check_interval


def _unit_ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a height x in [0, 1], in lowest terms.

    An int or Fraction is taken as it is; anything else is read as a
    float, which is an exact dyadic rational.  NaN, infinities, a bool
    and what ``float`` cannot read fail the range check like any value
    outside [0, 1].
    """
    try:
        num, den = (x if isinstance(x, (Fraction, int)) else float(x)).as_integer_ratio()
    except (TypeError, ValueError, OverflowError):  # None, 1j, a str that is no number; NaN, inf
        num, den = -1, 1
    if isinstance(x, bool) or not 0 <= num <= den:
        raise ValueError(f"expected a value in [0, 1], got {x!r}")
    return num, den


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


# digits read from the head table: at 12 its 64 KiB per p cut certify's
# law heights (1 to 40 digits, max_depth 48) from 1.8 to 1.2 us per call
# (2-CPU Xeon, Python 3.11), and a table takes about 1.1 ms to build
_HEAD_DIGITS = 12


@functools.lru_cache(maxsize=16)
def _head_table(p: float, h: int) -> tuple[array, array]:
    """(total, mass) of the digit loop after each h-digit prefix, indexed by its digits.

    Entry i holds the state after the h digits of i, most significant
    first.  Built by doubling: each prefix's state splits into its 0 and
    1 children with the loop's own float operations, so every entry has
    the loop's bits.
    """
    q = 1 - p
    n = 1 << h
    totals, masses = array("d", bytes(8 * n)), array("d", bytes(8 * n))
    totals[0], masses[0] = p - p, q + p
    for k in range(h - 1, -1, -1):
        half = 1 << k
        for i in range(0, n, 2 * half):
            mass = masses[i]
            totals[i + half] = totals[i] + mass * q
            masses[i + half] = mass * p
            masses[i] = mass * q
    return totals, masses


def p_for_holder_exponent(alpha: float) -> float:
    _check_interval("alpha", alpha, 0, 1)
    return 2.0 ** (-alpha)


@dataclass(frozen=True)
class BernoulliWitnessFn:
    """Witness on the rescaled triangle: value f(height) at each point.

    The boundary values are 0 at the two base vertices and 1 at the
    apex.  ``p`` may be a Fraction (all evaluation exact) or a float,
    typically 2**(-alpha); heights are evaluated to ``max_depth`` binary
    digits, so the truncation error is at most p**max_depth.  ``alpha``
    is -log2(p) when not given; a given one must agree with p, 2**-alpha
    within a relative 1e-12, since ``holder_bound`` and the graft read it.
    """

    p: Fraction | float
    max_depth: int = 64
    alpha: float | None = None

    def __post_init__(self):
        _check_interval("p", self.p, 0.5, 1)
        _check_depth("max_depth", self.max_depth)
        pf = float(self.p)
        if self.alpha is None:
            object.__setattr__(self, "alpha", -math.log2(pf))
            return
        _check_interval("alpha", self.alpha, 0, 1)
        if not math.isclose(2.0 ** -self.alpha, pf, rel_tol=1e-12):
            raise ValueError(f"alpha = {self.alpha} contradicts p = {self.p}: "
                             "p must be 2**-alpha")

    @classmethod
    def for_alpha(cls, alpha: float, max_depth: int = 64) -> "BernoulliWitnessFn":
        return cls(p=p_for_holder_exponent(alpha), max_depth=max_depth, alpha=alpha)

    @functools.cached_property
    def _head(self) -> tuple:
        """(totals, masses, H): the loop's state after each H-digit prefix.

        A float p reads the table it shares with every witness of the same
        p and H = min(max_depth, _HEAD_DIGITS); any other p, a Fraction
        among them, has H = 0 and only the loop's starting state.
        """
        p = self.p
        if type(p) is float:
            h = min(self.max_depth, _HEAD_DIGITS)
            return (*_head_table(p, h), h)
        return (p - p,), (1 - p + p,), 0

    def value_at_height(self, y):
        """Witness value at height y in [0, 1] (exact for dyadic y and Fraction p).

        The base (y = 0) and the apex (y = 1) give exactly 0 and 1, for a
        float height too.  Otherwise the value is the mass of [0, y) from
        the first ``max_depth`` binary digits of y, trailing zeros dropped
        since they add no mass: those of y = a / 2**e, a odd, when e <=
        max_depth, else of floor(y 2**max_depth).  The state after the
        first H digits is read from ``_head``, and the rest run through
        the loop of ``cdf_from_digits`` with its float operations in its
        order, so a float p gives the same bits and a Fraction p the same
        value.
        """
        if isinstance(y, Fraction):
            num, den = y.as_integer_ratio()
            if not 0 <= num <= den:
                raise ValueError(f"expected a value in [0, 1], got {y}")
        else:
            num, den = _unit_ratio(y)
        if num == 0 or num == den:
            return num // den
        depth = self.max_depth
        e = den.bit_length() - 1
        if den & (den - 1) or e > depth:    # not dyadic, or digits past max_depth
            num, e = (num << depth) // den, depth
            if not num:
                return self.p - self.p
            zeros = (num & -num).bit_length() - 1
            num, e = num >> zeros, e - zeros
        totals, masses, h = self._head
        if e <= h:
            return totals[num << (h - e)]
        tail = e - h
        head = num >> tail
        total, mass = totals[head], masses[head]
        p = self.p
        q = 1 - p
        for digit in bin(num & ((1 << tail) - 1) | 1 << tail)[3:-1]:
            if digit == "1":
                total += mass * q
                mass *= p
            else:
                mass *= q
        return total + mass * q             # the last digit, a 1

    def holder_bound(self, x, y) -> float:
        """The guaranteed bound 3 |x-y|**alpha for a pair of heights.

        A Fraction height is read as one int / int division, correctly
        rounded, which is what ``float`` computes of it.
        """
        if isinstance(x, Fraction):
            num, den = x.as_integer_ratio()
            x = num / den
        else:
            x = float(x)
        if isinstance(y, Fraction):
            num, den = y.as_integer_ratio()
            y = num / den
        else:
            y = float(y)
        return 3.0 * abs(x - y) ** self.alpha


def sample_digits(rng: random.Random, p: float, n: int) -> list[int]:
    """n i.i.d. digits that are 1 with probability p."""
    return [1 if rng.random() < p else 0 for _ in range(n)]
