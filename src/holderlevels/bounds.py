"""Closed-form dimension bounds and finite-scale estimators.

The lower bound for level sets on the Sierpinski triangle, its
feasibility search over the decay rate d1 and the boundary parameter l,
the generic upper bound 1 - 2**(-alpha), the trivial box-dimension
bound, slope estimation for box-count traces, and the finite-depth mass
distribution verification.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .levelset import LevelSetTree, _level_fraction, census_constant

if TYPE_CHECKING:
    import numpy as np

# mpmath is imported by the precision="big" paths alone, so importing the
# package does not load it; numpy likewise by the float kernels alone
# (box_count_dimension, paf's Holder certificate, cantor.phase_perturbation)
BIG_DIGITS = 50


def _mp(x):
    import mpmath
    return mpmath.mpf(x) if not isinstance(x, Fraction) else mpmath.mpf(x.numerator) / x.denominator


@contextlib.contextmanager
def _arithmetic(precision: str):
    """(number, log) that the bound formulas are written in, for one precision.

    float and ``math.log`` for "double"; for "big", mpf and ``mpmath.log``
    at 50 significant digits while the block runs.
    """
    if precision == "big":
        import mpmath
        with mpmath.workdps(BIG_DIGITS):
            yield _mp, mpmath.log
    elif precision == "double":
        yield float, math.log
    else:
        raise ValueError(f"precision must be 'double' or 'big', got {precision!r}")


def lower_bound(alpha: float, precision: str = "double"):
    """(alpha/2) / (1 + (1 + log(3/alpha))/log 2 + 2/alpha).

    Positive for every alpha in (0, 1] and tending to zero as alpha
    does; logs are natural.  ``precision='big'`` evaluates with 50
    significant digits via mpmath.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    with _arithmetic(precision) as (num, log):
        a = num(alpha)
        return (a / 2) / (1 + (1 + log(3 / a)) / log(2) + 2 / a)


def upper_bound(alpha: float, precision: str = "double"):
    """1 - 2**(-alpha), increasing, with limit 1/2 at alpha -> 1."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    with _arithmetic(precision) as (num, _):
        return 1 - num(2) ** -num(alpha)


def trivial_upper_bound_sierpinski(precision: str = "double"):
    """log 3 / log 2 - 1, the box-dimension bound, about 0.584962500721."""
    with _arithmetic(precision) as (_, log):
        return log(3) / log(2) - 1


def lcondition_lhs(alpha: float, d1) -> float:
    """(d1 (1 + log(3/(2 d1))) + log 2) / ((alpha - d1) log 2)."""
    d1 = float(d1)
    alpha = float(alpha)
    if not 0 < d1 < alpha:
        raise ValueError("need 0 < d1 < alpha")
    with _arithmetic("double") as (_, log):
        return (d1 * (1 + log(3 / (2 * d1))) + log(2)) / ((alpha - d1) * log(2))


def feasible_l(alpha: float, d1) -> int:
    """Smallest integer l satisfying the feasibility inequality.

    Cross-checked: the returned l yields a census constant below one.
    Diverges as d1 approaches alpha.
    """
    lhs = lcondition_lhs(alpha, d1)
    l = math.floor(lhs) + 1
    assert census_constant(alpha, d1, l) < 1
    return l


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
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.d1 < self.alpha:
            raise ValueError("need 0 < d1 < alpha")
        if self.l < 1:
            raise ValueError(f"boundary family needs l >= 1, got l={self.l}")

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
    squares fit over the trailing half of the levels.  A digit other
    than 0 or 1 is a ValueError, as in ``line_crossing_count``.
    """
    import numpy as np
    digits = list(digits)
    n = len(digits)
    if n == 0:
        return DimensionEstimate(np.array([]), np.array([]), 0.0, 0.0, empty=True)
    flips = np.array([1 - e for e in digits])
    bad = (flips != 0) & (flips != 1)
    if bad.any():
        raise ValueError(f"binary digits expected, got {digits[int(bad.argmax())]!r}")
    zeros = np.cumsum(flips)
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

# (row, col) offsets of the seven upward cells sharing at least one
# lattice vertex with an upward cell, itself first; the scatter order
_CELL_NEIGHBOR_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
# the empirical cell-bound constant C up to which a depth counts as verified
_C_CAP = 8.0


@dataclass
class MassDistributionReport:
    """``verified``: C stayed under its cap; ``feasible``: the triple is
    feasible (``BoundSearchParams.feasible``), so the cell bound certifies s."""

    s: Fraction
    verified: bool
    feasible: bool
    c_empirical: float
    worst_cell: tuple[int, int] | None
    worst_level: int | None
    levels_checked: list[int]


def mass_distribution_lower(fn, r, params: BoundSearchParams, n_prime_max: int,
                            tree: LevelSetTree | None = None) -> MassDistributionReport:
    """Verify the cell bound mu(U) <= C * 2**(-n d1) at lattice scale.

    For each materialized depth n = n' q the mass of every upward
    lattice cell (the cell's own triangle plus every mass-carrying
    triangle touching it) is compared against 2**(-n d1); the largest
    quotient is the empirical C.  Verification passes while it stays
    at most ``_C_CAP`` = 8; the certified exponent for the instance is
    s = d1 / l regardless, as that is what the cell bound implies when C
    is uniform in the depth.

    mu at depth n depends only on the ancestors, so the measure is
    filled once to the deepest depth.  Each member adds its mass to the
    cells it touches; the touching relation is symmetric, so every cell
    ends up with the total of the members touching it.  Masses are the
    integer numerators over the level's common denominator.  A cell
    (row, col) at depth n is keyed by the integer ((row + 1) << s) + col + 1
    with s = n l + 2, so row and col in [-1, 2**(n l)] never carry into
    each other and each neighbour offset is one integer added to the key.
    The members' cells and masses come from the tree, which composes the
    cells below its crossing depth block by block, so no address is
    parsed and no node is built there.  ``worst_cell`` is the first
    maximising cell in scatter order (the ``nodes_at`` order of the
    level's members, then the neighbour offset order) at the first depth
    that reaches the maximum.  A ``tree`` must be one built for ``fn``,
    ``r`` and ``params.l``.
    """
    if n_prime_max < 1:
        raise ValueError(f"n_prime_max must be at least 1, got {n_prime_max}")
    q, l, d1 = params.q, params.l, params.d1
    if tree is None:
        tree = LevelSetTree(fn, r, l)
    elif tree.fn is not fn or tree.r != _level_fraction(r) or tree.l != l:
        raise ValueError(f"the tree was built for another function, level value or l "
                         f"(tree r = {tree.r}, l = {tree.l})")
    tree.fill_measure(q * n_prime_max)
    c_emp = 0.0
    worst_cell = None
    worst_level = None
    levels = []
    for n_prime in range(1, n_prime_max + 1):
        n = n_prime * q
        s = n * l + 2
        base = (1 << s) + 1
        deltas = [(dr << s) + dc for dr, dc in _CELL_NEIGHBOR_OFFSETS]
        cell_mass: dict[int, int] = {}
        get = cell_mass.get
        for row, col, m in tree._members(n):
            key = (row << s) + col + base
            for d in deltas:
                cell = key + d
                cell_mass[cell] = get(cell, 0) + m
        mass = max(cell_mass.values())
        # int / int is correctly rounded, so this is float(mu(U) 2**(n d1))
        quot = (mass << int(n * d1)) / tree.mu_denominators[n]
        if quot > c_emp:
            key = next(k for k, v in cell_mass.items() if v == mass)
            c_emp = quot
            worst_cell = ((key >> s) - 1, (key & ((1 << s) - 1)) - 1)
            worst_level = n
        levels.append(n)
    return MassDistributionReport(
        s=params.s,
        verified=c_emp <= _C_CAP,
        feasible=params.feasible,
        c_empirical=c_emp,
        worst_cell=worst_cell,
        worst_level=worst_level,
        levels_checked=levels,
    )
