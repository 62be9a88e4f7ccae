"""Closed-form dimension bounds and finite-scale estimators.

The lower bound for level sets on the Sierpinski triangle, its
feasibility search over the decay rate d1 and the boundary parameter l,
the generic upper bound 1 - 2**(-alpha), the trivial box-dimension
bound, slope estimation for box-count traces, and the finite-depth mass
distribution verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .levelset import LevelSetTree, census_constant
from .triangles import delta_lattice_index, touching_up_cells

BIG_DIGITS = 50


def _mp(x):
    return mpmath.mpf(x) if not isinstance(x, Fraction) else mpmath.mpf(x.numerator) / x.denominator


def lower_bound(alpha: float, precision: str = "double"):
    """(alpha/2) / (1 + (1 + log(3/alpha))/log 2 + 2/alpha).

    Positive for every alpha in (0, 1] and tending to zero as alpha
    does; logs are natural.  ``precision='big'`` evaluates with 50
    significant digits via mpmath.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if precision == "big":
        with mpmath.workdps(BIG_DIGITS):
            a = _mp(alpha)
            denom = 1 + (1 + mpmath.log(3 / a)) / mpmath.log(2) + 2 / a
            return (a / 2) / denom
    a = float(alpha)
    return (a / 2) / (1 + (1 + math.log(3 / a)) / math.log(2) + 2 / a)


def upper_bound(alpha: float, precision: str = "double"):
    """1 - 2**(-alpha), increasing, with limit 1/2 at alpha -> 1."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if precision == "big":
        with mpmath.workdps(BIG_DIGITS):
            return 1 - mpmath.power(2, -_mp(alpha))
    return 1.0 - 2.0 ** (-float(alpha))


def trivial_upper_bound_sierpinski(precision: str = "double"):
    """log 3 / log 2 - 1, the box-dimension bound, about 0.584962500721."""
    if precision == "big":
        with mpmath.workdps(BIG_DIGITS):
            return mpmath.log(3) / mpmath.log(2) - 1
    return math.log(3) / math.log(2) - 1.0


def lcondition_lhs(alpha: float, d1) -> float:
    """(d1 (1 + log(3/(2 d1))) + log 2) / ((alpha - d1) log 2)."""
    d1 = float(d1)
    alpha = float(alpha)
    if not 0 < d1 < alpha:
        raise ValueError("need 0 < d1 < alpha")
    return (d1 * (1 + math.log(3 / (2 * d1))) + math.log(2)) / ((alpha - d1) * math.log(2))


def feasible_l(alpha: float, d1) -> int:
    """Smallest integer l satisfying the feasibility inequality.

    Cross-checked: the returned l yields a census constant below one.
    Diverges as d1 approaches alpha.
    """
    lhs = lcondition_lhs(alpha, d1)
    l = math.floor(lhs) + 1
    assert census_constant(alpha, d1, l) < 1
    return l


def lchoice_window(alpha: float) -> tuple[float, float]:
    """The (lo, lo+1] window for l when d1 is essentially alpha/2."""
    lo = (alpha / 2 * (1 + math.log(3 / alpha)) + math.log(2)) / (alpha / 2 * math.log(2))
    return (lo, lo + 1)


_MAX_DENOMINATOR = 64


def default_d1(alpha: float) -> Fraction:
    """Best rational approximation of alpha/2 with denominator <= 64."""
    d1 = Fraction(alpha / 2).limit_denominator(_MAX_DENOMINATOR)
    if d1 <= 0:
        raise ValueError(f"alpha = {alpha} too small for denominator cap "
                         f"{_MAX_DENOMINATOR}")
    if d1 >= alpha:
        d1 = Fraction(alpha / 2).limit_denominator(4 * _MAX_DENOMINATOR)
        if not 0 < d1 < alpha:
            raise ValueError(f"no usable rational rate for alpha = {alpha}")
    return d1


@dataclass(frozen=True)
class BoundSearchParams:
    """A feasible (alpha, d1, l) choice; q clears the denominators of d1."""

    alpha: float
    d1: Fraction
    l: int

    def __post_init__(self):
        if not 0 < self.d1 < self.alpha:
            raise ValueError("need 0 < d1 < alpha")

    @property
    def q(self) -> int:
        return self.d1.denominator

    @property
    def s(self) -> Fraction:
        return self.d1 / self.l

    @property
    def feasible(self) -> bool:
        return lcondition_lhs(self.alpha, self.d1) < self.l

    @classmethod
    def for_alpha(cls, alpha: float) -> "BoundSearchParams":
        d1 = default_d1(alpha)
        return cls(alpha=alpha, d1=d1, l=feasible_l(alpha, d1))


# ---------------------------------------------------------------------------
# box-count slopes
# ---------------------------------------------------------------------------

@dataclass
class DimensionEstimate:
    """Least-squares slope of log2(count) against the level."""

    levels: np.ndarray
    log2_counts: np.ndarray
    slope: float
    residual: float
    empty: bool = False

    def counts(self) -> list[int]:
        return [1 << int(z) for z in self.log2_counts]


def box_count_dimension(digits) -> DimensionEstimate:
    """Slope of the crossing-count law along a digit stream.

    ``digits`` is the binary expansion of the line height; the level-n
    count is 2**(zeros among the first n digits), so log2 of the counts
    is a cumulative sum and the limsup quotient is replaced by a least
    squares fit over the trailing half of the levels.
    """
    digits = list(digits)
    n = len(digits)
    if n == 0:
        return DimensionEstimate(np.array([]), np.array([]), 0.0, 0.0, empty=True)
    zeros = np.cumsum([1 - e for e in digits])
    levels = np.arange(1, n + 1)
    start = max(0, n // 2 - 1)
    xs = levels[start:].astype(float)
    ys = zeros[start:].astype(float)
    if len(xs) < 2:
        slope = float(ys[-1] / xs[-1])
        resid = 0.0
    else:
        coeffs, residuals, *_ = np.polyfit(xs, ys, 1, full=True)
        slope = float(coeffs[0])
        resid = float(math.sqrt(residuals[0] / len(xs))) if len(residuals) else 0.0
    return DimensionEstimate(levels=levels, log2_counts=zeros,
                             slope=slope, residual=resid)


# ---------------------------------------------------------------------------
# finite-depth mass distribution verification
# ---------------------------------------------------------------------------

@dataclass
class MassDistributionReport:
    s: Fraction
    verified: bool
    c_empirical: float
    worst_cell: tuple[int, int] | None
    worst_level: int | None
    levels_checked: list[int]


def mass_distribution_lower(fn, r, params: BoundSearchParams,
                            n_prime_max: int, c_cap: float = 8.0,
                            tree: LevelSetTree | None = None) -> MassDistributionReport:
    """Verify the cell bound mu(U) <= C * 2**(-n d1) at lattice scale.

    For each materialized depth n = n' q the mass of every upward
    lattice cell (the cell's own triangle plus every mass-carrying
    triangle touching it) is compared against 2**(-n d1); the largest
    quotient is the empirical C.  Verification passes while it stays
    under ``c_cap``; the certified exponent for the instance is
    s = d1 / l regardless, as that is what the cell bound implies when C
    is uniform in the depth.

    mu at depth n depends only on the ancestors, so the measure is
    filled once to the deepest depth.  Each member adds its mass to the
    cells it touches; the touching relation is symmetric, so every cell
    ends up with the total of the members touching it.  ``worst_cell``
    is the first maximising cell in scatter order (the level's node
    order, then the neighbour offset order) at the first depth that
    reaches the maximum.
    """
    q, l, d1 = params.q, params.l, params.d1
    t = tree if tree is not None else LevelSetTree(fn, r, l)
    t.fill_measure(q * n_prime_max)
    c_emp = 0.0
    worst_cell = None
    worst_level = None
    levels = []
    for n_prime in range(1, n_prime_max + 1):
        n = n_prime * q
        cell_mass: dict[tuple[int, int], Fraction] = {}
        for node in t.nodes_at(n):
            for cell in touching_up_cells(*delta_lattice_index(node.word)):
                cell_mass[cell] = cell_mass.get(cell, 0) + node.mu
        cell, mass = max(cell_mass.items(), key=lambda item: item[1])
        quot = float(mass * 2 ** int(n * d1))
        if quot > c_emp:
            c_emp = quot
            worst_cell = cell
            worst_level = n
        levels.append(n)
    return MassDistributionReport(
        s=params.s,
        verified=c_emp <= c_cap,
        c_empirical=c_emp,
        worst_cell=worst_cell,
        worst_level=worst_level,
        levels_checked=levels,
    )
