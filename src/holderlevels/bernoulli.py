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

import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction

from .triangles import _check_alpha, _check_depth


def _unit_ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a height x in [0, 1], in lowest terms.

    An int or Fraction is taken as it is; anything else is read as a
    float, which is an exact dyadic rational.  NaN, infinities and what
    ``float`` cannot read fail the range check like any value outside [0, 1].
    """
    try:
        num, den = (x if isinstance(x, (Fraction, int)) else float(x)).as_integer_ratio()
    except (TypeError, ValueError, OverflowError):  # None, 1j, a str that is no number; NaN, inf
        num, den = -1, 1
    if not 0 <= num <= den:
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


def p_for_holder_exponent(alpha: float) -> float:
    _check_alpha(alpha, below_one=True)
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
        pf = float(self.p) if isinstance(self.p, numbers.Real) else math.nan
        if not 0.5 < pf < 1:
            raise ValueError(f"p must lie in (1/2, 1), got p={self.p!r}")
        _check_depth("max_depth", self.max_depth)
        if self.alpha is None:
            object.__setattr__(self, "alpha", -math.log2(pf))
            return
        _check_alpha(self.alpha, below_one=True)
        if not math.isclose(2.0 ** -self.alpha, pf, rel_tol=1e-12):
            raise ValueError(f"alpha = {self.alpha} contradicts p = {self.p}: "
                             "p must be 2**-alpha")

    @classmethod
    def for_alpha(cls, alpha: float, max_depth: int = 64) -> "BernoulliWitnessFn":
        return cls(p=p_for_holder_exponent(alpha), max_depth=max_depth, alpha=alpha)

    def value_at_height(self, y):
        """Witness value at height y in [0, 1] (exact for dyadic y and Fraction p).

        The base (y = 0) and the apex (y = 1) give exactly 0 and 1, for a
        float height too.  Otherwise the value is the mass of [0, y) from
        the first ``max_depth`` binary digits of y: those of v =
        floor(y 2**max_depth), zero-filled to ``max_depth`` places, with
        trailing zeros dropped since they add no mass.  The leading zeros
        are counted from v's bit length and the rest read from ``bin`` of
        v without its trailing zeros.  The float operations are those of
        ``cdf_from_digits`` in the same order, so a float p gives the same
        bits and a Fraction p the same value.
        """
        if isinstance(y, Fraction):
            num, den = y.as_integer_ratio()
            if not 0 <= num <= den:
                raise ValueError(f"expected a value in [0, 1], got {y}")
        else:
            num, den = _unit_ratio(y)
        if num == 0 or num == den:
            return num // den
        p = self.p
        q = 1 - p
        total = p - p
        mass = q + p
        v = (num << self.max_depth) // den
        if v:
            for _ in range(self.max_depth - v.bit_length()):
                mass *= q
            for e in bin(v >> ((v & -v).bit_length() - 1))[2:]:
                if e == "1":
                    total += mass * q
                    mass *= p
                else:
                    mass *= q
        return total

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
