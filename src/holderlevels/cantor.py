"""Fat Cantor sets, separated structures and the phase transition.

The fat Cantor set removes the open middle of every interval so that
level-n intervals have length exactly 1/(2**(n+1)-1); the total measure
2**n/(2**(n+1)-1) then tends to 1/2.  Products of the set with itself
carry a (1/2, 1/4) separated structure, which is what makes piecewise
constant approximation feasible below exponent 1/2 and the capacity
estimates meaningful above it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .paf import max_holder_ratio
from .triangles import (_check_alpha, _check_depth, _check_nonnegative, _check_open_unit,
                        _check_positive)

_MATERIALIZATION_LIMIT = 1 << 22    # most intervals FatCantorSet.intervals builds
_TERM_TOL = 1e-18                   # capacity_gap stops below this term size
_MAX_TERMS = 100_000                # ... or after this many terms
_BRUTE_LEVELS = 3                   # product levels checked pair by pair


def interval_length(n: int) -> Fraction:
    """Length 1/(2**(n+1)-1) of a level-n interval."""
    _check_depth("n", n)
    return Fraction(1, (1 << (n + 1)) - 1)


def removal_length(m: int) -> Fraction:
    """Length of the gap removed at generation m (m >= 1).

    Equals 1/((2**m - 1)(2**(m+1) - 1)), below 2**(-2m) once m > 2.
    """
    _check_depth("m", m, 1)             # removals start at generation 1
    return Fraction(1, ((1 << m) - 1) * ((1 << (m + 1)) - 1))


@lru_cache(maxsize=64)
def _lattice(n: int) -> tuple[int, int, tuple[int, ...]]:
    """(den, length, shifts): level n on the integer lattice 1/den.

    den = lcm(2**j - 1, j <= n + 1), so the interval length
    1/(2**(n+1) - 1) and each generation-m shift l_(m-1) - l_m of a right
    child from its parent's left end, m = 1..n, are integers over it
    (2**m - 1 and 2**(m+1) - 1 are coprime, and both divide den).
    """
    den = math.lcm(*((1 << j) - 1 for j in range(1, n + 2)))
    shifts = tuple(den // ((1 << m) - 1) - den // ((1 << (m + 1)) - 1)
                   for m in range(1, n + 1))
    return den, den // ((1 << (n + 1)) - 1), shifts


@dataclass(frozen=True)
class FatCantorSet:
    """Level-n stage: 2**n closed intervals of equal length.

    Bit n - m of an index stands for generation m; when it is set, the
    left end moves right by the generation-m shift of ``_lattice(n)``.
    ``interval`` sums these shifts for one index, ``contains`` walks them
    for one point, and ``intervals`` and ``to_json`` build the level once
    from them, on integers.
    """

    n: int

    def __post_init__(self):
        _check_depth("n", self.n)

    @property
    def length(self) -> Fraction:
        return interval_length(self.n)

    @property
    def count(self) -> int:
        return 1 << self.n

    @property
    def measure(self) -> Fraction:
        return self.count * self.length

    def interval(self, index: int) -> tuple[Fraction, Fraction]:
        if not 0 <= index < self.count:
            raise IndexError(f"interval index {index} out of range")
        den, length, shifts = _lattice(self.n)
        a = sum(shifts[self.n - 1 - b] for b in range(self.n) if index >> b & 1)
        return (Fraction(a, den), Fraction(a + length, den))

    def _lefts(self) -> list[int]:
        """Every left end, in order, as an integer over ``_lattice(n)``'s den."""
        if self.count > _MATERIALIZATION_LIMIT:
            raise ValueError(f"{self.count} intervals exceed the materialization limit")
        lefts = [0]
        for shift in _lattice(self.n)[2]:
            lefts = [x for a in lefts for x in (a, a + shift)]
        return lefts

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        den, length, _ = _lattice(self.n)
        return [(Fraction(a, den), Fraction(a + length, den)) for a in self._lefts()]

    def contains(self, x: Fraction) -> bool:
        x = Fraction(x)
        if not 0 <= x <= 1:
            return False
        den, _, shifts = _lattice(self.n)
        p, q = x.numerator * den, x.denominator     # x = p / (q den)
        left, length = 0, den
        for shift in shifts:    # the left child, else the right one, else a gap
            length -= shift
            if p > (left + length) * q:
                if p < (left + shift) * q:
                    return False
                left += shift
        return True

    def to_json(self) -> list[list[str]]:
        """Each interval as two reduced fractions "num/den"."""
        den, length, _ = _lattice(self.n)

        def reduced(a: int) -> str:
            g = math.gcd(a, den)
            return f"{a // g}/{den // g}"

        return [[reduced(a), reduced(a + length)] for a in self._lefts()]


def cantor_level(n: int) -> FatCantorSet:
    return FatCantorSet(n)


def cantor_tail_measure(interval_level: int) -> Fraction:
    """Limit measure of the set inside one level-m interval: 2**(-m-1).

    The level-j stages hold 2**(j-m) intervals of length 1/(2**(j+1)-1)
    inside it, and the products decrease to the limit.
    """
    m = interval_level
    return Fraction(1, 1 << (m + 1))


# ---------------------------------------------------------------------------
# Hausdorff capacity of the complement
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 12)
def _removal_log2(m: int) -> float:
    """log2 of 1/r_m = (2**m - 1)(2**(m+1) - 1), one float per generation."""
    return math.log2((1 << m) - 1) + math.log2((1 << (m + 1)) - 1)


@dataclass
class CapacityGap:
    k: int
    alpha: float
    direct_sum: float
    closed_form_bound: float | None
    ratio_to_interval: float
    diverges: bool
    terms: int
    truncation_tail: float

    @property
    def ratio_bound(self) -> float:
        """(direct sum + truncation tail) (2**(k+1) - 1), an upper bound on the ratio.

        Each term after the first is less than 2**(1 - 2 alpha) times the
        one before it (r_(m+1) / r_m < 1/4), so the tail bounds the terms
        the direct sum left out; ``ratio_to_interval`` omits them.
        """
        return (self.direct_sum + self.truncation_tail) * float((1 << (self.k + 1)) - 1)


def capacity_gap(k: int, alpha: float) -> CapacityGap:
    """Capacity estimate of (level-k interval) minus the limit set.

    Covers the removed part by its contiguous gaps: 2**(m-k-1) gaps of
    length r_m for each generation m > k, so the direct sum is
    sum 2**(m-k-1) r_m**alpha.  For alpha > 1/2 the geometric closed
    form 2**(-2 alpha (k+1)) / (1 - 2**(1-2 alpha)) dominates it; for
    alpha <= 1/2 the terms do not decay and the divergence flag is
    raised instead.  ValueError once the first term 2**0 r_(k+1)**alpha
    or the factor 2**(k+1) - 1 of the ratio leaves the normal float range.
    """
    _check_depth("k", k, 1)             # generation-1 gaps break the closed form
    _check_alpha(alpha)
    if (k + 1 >= sys.float_info.max_exp
            or -alpha * _removal_log2(k + 1) < sys.float_info.min_exp - 1):
        raise ValueError(f"k = {k} is too deep for alpha = {alpha}: the first term or "
                         f"2**(k+1) - 1 leaves the normal float range")
    total = 0.0
    m = k + 1
    terms = 0
    last_term = math.inf
    diverges = alpha <= 0.5
    while True:
        # term = 2**(m-k-1) * r_m**alpha, evaluated in log2 space so deep
        # generations neither overflow nor underflow
        term_log2 = (m - k - 1) - alpha * _removal_log2(m)
        last_term = 2.0**term_log2 if term_log2 < 512 else math.inf
        total += last_term
        terms += 1
        m += 1
        if diverges:
            if terms >= 200 or total > 1e15:
                break
        elif last_term < _TERM_TOL or terms >= _MAX_TERMS:
            break
    decay = 2.0 ** (1 - 2 * alpha)  # asymptotic term ratio
    tail = last_term * decay / (1 - decay) if decay < 1 else math.inf
    closed = None
    if alpha > 0.5:
        closed = 2.0 ** (-2 * alpha * (k + 1)) / (1 - 2.0 ** (1 - 2 * alpha))
    ratio = total * float((1 << (k + 1)) - 1)
    return CapacityGap(k=k, alpha=alpha, direct_sum=total,
                       closed_form_bound=closed, ratio_to_interval=ratio,
                       diverges=diverges, terms=terms, truncation_tail=tail)


# ---------------------------------------------------------------------------
# separated structures
# ---------------------------------------------------------------------------

@dataclass
class SeparatedStructure:
    """Certified (nu, rho) cover data with per-level families.

    Families are produced on demand; ``certificates`` records the exact
    per-level diameter and distance facts established at build time.
    """

    nu: Fraction | float
    rho: Fraction | float
    K: Fraction | float
    family: Callable[[int], list]
    certificates: dict = field(default_factory=dict)

    @property
    def threshold(self) -> float:
        """log nu / log rho, the exponent below which pieces decouple."""
        return math.log(float(self.nu)) / math.log(float(self.rho))


@dataclass(frozen=True)
class ProductPiece:
    """One product cell: indices of the two intervals at level k."""

    k: int
    ix: int
    iy: int


def product_separated_structure(k_max: int) -> SeparatedStructure:
    """The (1/2, 1/4) structure of the product of the set with itself.

    For every level up to ``k_max`` two exact facts are certified: each
    piece has diameter sqrt(2) * l_k <= sqrt(2) * 2**(-k), and distinct
    pieces are at least r_k apart with r_k >= (1/4) 4**(-k) (pieces are
    products, so they differ in some factor and the distance reduces to
    a one-dimensional gap).  Levels up to ``_BRUTE_LEVELS`` additionally
    verify the reduction by exhaustive pairwise rational distances.
    K = 2 makes both inequalities hold for every level, not just the
    materialized ones.
    """
    _check_depth("k_max", k_max, 2)     # the distance bound needs level >= 2
    nu, rho, K = Fraction(1, 2), Fraction(1, 4), Fraction(2)
    certificates: dict = {"k_max": k_max, "levels": {}}
    for k in range(2, k_max + 1):
        l_k = interval_length(k)
        r_k = removal_length(k)
        diam_sq = 2 * l_k * l_k
        # diameter: sqrt(2) l_k < K nu**k  <=>  2 l_k^2 < K^2 nu^(2k)
        diam_ok = diam_sq < K * K * nu ** (2 * k)
        # distance: r_k > (1/K) rho**k
        dist_ok = r_k > rho**k / K
        lower = Fraction(1, 4) * Fraction(1, 4**k)
        law_ok = r_k >= lower
        if not (diam_ok and dist_ok and law_ok):
            raise AssertionError(f"structure certificate failed at level {k}")
        certificates["levels"][k] = {
            "diameter_sq": diam_sq,
            "min_distance": r_k,
            "distance_lower_law": lower,
        }
        if k <= _BRUTE_LEVELS:
            # every pair of distinct cells, on the lattice 1/den: a pair's
            # squared distance is the sum of its two squared axis gaps
            den, length, _ = _lattice(k)
            lefts = FatCantorSet(k)._lefts()
            gap_sq = [[max(0, b - a - length, a - b - length) ** 2 for b in lefts]
                      for a in lefts]
            cells = itertools.product(range(len(lefts)), repeat=2)
            best = min(gap_sq[ix][jx] + gap_sq[iy][jy]
                       for (ix, iy), (jx, jy) in itertools.combinations(cells, 2))
            if best != (r_k * den) ** 2:
                raise AssertionError(f"brute distance check failed at level {k}")
            certificates["levels"][k]["brute_min_distance_sq"] = Fraction(best, den * den)

    def family(k: int) -> list[ProductPiece]:
        _check_depth("k", k, 2)         # families materialize from level 2 on
        return [ProductPiece(k, i, j) for i in range(1 << k) for j in range(1 << k)]

    return SeparatedStructure(nu=nu, rho=rho, K=K, family=family,
                              certificates=certificates)


# ---------------------------------------------------------------------------
# piecewise-constant feasibility
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityResult:
    k: int
    lhs: float
    rhs: float
    ratio: float
    feasible: bool
    boundary: bool


def piecewise_constant_feasibility(alpha: float, c: float, M: float,
                                   structure: SeparatedStructure,
                                   k: int) -> FeasibilityResult:
    """Check 2 K M nu**k <= (1-c) (rho**k)**alpha / K**alpha at one level.

    While both sides are normal floats they are compared directly and
    ``ratio`` is lhs / rhs.  Deep levels take them below the smallest
    normal float and then to 0.0, so there the closed-form log2 of each
    side is compared instead and ``ratio`` is 2**(log2 lhs - log2 rhs),
    which is inf only where the quotient itself overflows.  M = 0 is
    feasible at every level, with ratio 0.0.
    """
    _check_alpha(alpha)
    _check_open_unit("c", c)
    _check_nonnegative("M", M)
    _check_depth("k", k)
    K = float(structure.K)
    nu = float(structure.nu)
    rho = float(structure.rho)
    lhs = 2 * K * M * nu**k
    rhs = (1 - c) / K**alpha * (rho**k) ** alpha
    if M == 0:
        feasible, ratio = True, 0.0
    elif min(lhs, rhs) >= sys.float_info.min:
        feasible, ratio = lhs <= rhs, lhs / rhs
    else:
        log2_lhs = math.log2(2 * K * M) + k * math.log2(nu)
        log2_rhs = math.log2(1 - c) - alpha * math.log2(K) + alpha * k * math.log2(rho)
        feasible = log2_lhs <= log2_rhs
        try:
            ratio = 2.0 ** (log2_lhs - log2_rhs)
        except OverflowError:
            ratio = math.inf
    boundary = math.isclose(rho**alpha, nu, rel_tol=1e-12)
    return FeasibilityResult(k=k, lhs=lhs, rhs=rhs, ratio=ratio, feasible=feasible,
                             boundary=boundary)


@dataclass
class FeasibilitySearch:
    first_feasible_k: int | None
    boundary: bool
    ratios: list[float]
    monotone_infeasible: bool


def feasibility_search(alpha: float, c: float, M: float,
                       structure: SeparatedStructure,
                       k_cap: int = 60) -> FeasibilitySearch:
    """Scan levels for the first feasible one, recording the trend.

    Below the threshold exponent the lhs/rhs quotient decays
    geometrically and a feasible level exists; above it the quotient
    grows, which the scan certifies up to ``k_cap``.  ``ratios`` holds
    each level's ``piecewise_constant_feasibility`` ratio.
    """
    _check_depth("k_cap", k_cap)
    ratios = []
    first = None
    boundary = False
    for k in range(k_cap + 1):
        res = piecewise_constant_feasibility(alpha, c, M, structure, k)
        boundary = res.boundary
        ratios.append(res.ratio)
        if res.feasible and first is None:
            first = k
    increasing = all(b >= a * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))
    return FeasibilitySearch(first_feasible_k=first, boundary=boundary,
                             ratios=ratios,
                             monotone_infeasible=first is None and increasing)


# ---------------------------------------------------------------------------
# the phase-transition perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseTransitionConfig:
    """Constants for the perturbation on the level-k product cylinder (ix, iy).

    The cylinder is the square I x J of ``FatCantorSet(k)``'s intervals ix
    and iy, with top corners (x1, y1) and (x2, y1); delta bounds the capacity
    of the removed part relative to the edge, delta_prime = width/100 the
    value tolerance, r the height of the band below the top edge and eta the
    measure of the set inside that band.  Invalid inputs are a ValueError.
    """

    alpha: float
    c: Fraction
    k: int
    ix: int
    iy: int
    delta: float
    x1: Fraction = field(init=False)
    x2: Fraction = field(init=False)
    y1: Fraction = field(init=False)

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_open_unit("c", self.c)
        _check_depth("k", self.k, 1)    # capacity_gap's closed form
        for name, index in (("ix", self.ix), ("iy", self.iy)):
            _check_depth(name, index)
            if index >= 1 << self.k:
                raise ValueError(f"{name} must lie in 0..2**k - 1, got {index}")
        _check_positive("delta", self.delta)
        (x1, x2), (_, y1) = (FatCantorSet(self.k).interval(i) for i in (self.ix, self.iy))
        for name, value in (("c", Fraction(self.c)), ("x1", x1), ("x2", x2), ("y1", y1)):
            object.__setattr__(self, name, value)
        if self.guaranteed_interval_length() <= 0:
            raise ValueError("delta and delta_prime leave no guaranteed image interval: "
                             f"delta must be below 0.94 - c, got delta={self.delta!r}")

    @property
    def delta_prime(self) -> float:
        return float((self.x2 - self.x1) / 100)

    @property
    def r(self) -> Fraction:
        return interval_length(self.k + 1)

    @property
    def eta(self) -> Fraction:
        return cantor_tail_measure(self.k + 1)

    def guaranteed_interval_length(self) -> float:
        return (1 - float(self.c) - self.delta) * float(self.x2 - self.x1) \
            - 6 * self.delta_prime


cylinder_config = PhaseTransitionConfig


@dataclass
class PerturbationReport:
    perturbed: dict
    mirrored: bool
    large_change_lhs: Fraction
    large_change_rhs: Fraction
    large_change_exact: bool
    holder_max_ratio: float
    holder_ok: bool
    capacity_ratio: float
    capacity_ok: bool
    guaranteed_interval_length: float


def phase_perturbation(grid: dict, config: PhaseTransitionConfig) -> PerturbationReport:
    """Add the ramp perturbation and certify the large-change inequality.

    ``grid`` maps exact points (x, y) to exact base values; the base
    must satisfy the c-Holder-alpha bound on the grid.  The ramp h is 0
    left of x1, (1-c)(x-x1) across the cylinder and constant right of
    x2; when the base decreases across the top edge the mirrored ramp is
    used.  The perturbed function gains at least (1-c)(x2-x1) across the
    top corners, exactly, and stays 1-Holder-alpha on the grid.  The
    capacity check holds when ``capacity_gap``'s ``ratio_bound`` is below
    delta, and the report carries that bound as ``capacity_ratio``.
    """
    import numpy as np
    c = config.c
    x1, x2, y1 = config.x1, config.x2, config.y1
    v1 = (x1, y1)
    v2 = (x2, y1)
    if v1 not in grid or v2 not in grid:
        raise ValueError("grid must contain the top corners of the cylinder")

    mirrored = grid[v1] > grid[v2]
    rhs = (1 - c) * (x2 - x1)

    def ramp(x: Fraction) -> Fraction:
        rise = (1 - c) * (min(max(x, x1), x2) - x1)
        return rhs - rise if mirrored else rise

    # one float per coordinate and one ramp per abscissa, memoised by object
    # identity: the grid keeps each coordinate alive for the call,
    # cantor_grid shares one object per coordinate value, and hashing a
    # Fraction costs about three float conversions
    floats: dict[int, float] = {}
    ramps: dict[int, Fraction] = {}
    xs, ys, values = [], [], []
    for (x, y), v in grid.items():
        for coord in (x, y):
            if id(coord) not in floats:
                floats[id(coord)] = float(coord)
        if id(x) not in ramps:
            ramps[id(x)] = ramp(x)
        xs.append(floats[id(x)])
        ys.append(floats[id(y)])
        values.append(v + ramps[id(x)])
    xs, ys = np.array(xs), np.array(ys)
    base_ratio, _ = max_holder_ratio(xs, ys, np.array([float(v) for v in grid.values()]),
                                     config.alpha)
    if base_ratio > float(c) * (1 + 1e-9):
        raise ValueError(
            f"base certificate fails: grid ratio {base_ratio:.6g} exceeds c = {float(c):.6g}"
        )

    perturbed = dict(zip(grid, values))
    lhs = abs(perturbed[v1] - perturbed[v2])
    pert_ratio, _ = max_holder_ratio(xs, ys, np.array([float(v) for v in values]),
                                     config.alpha)
    cap = capacity_gap(config.k, config.alpha)
    return PerturbationReport(
        perturbed=perturbed,
        mirrored=mirrored,
        large_change_lhs=lhs,
        large_change_rhs=rhs,
        large_change_exact=lhs >= rhs,
        holder_max_ratio=pert_ratio,
        holder_ok=pert_ratio <= 1 + 1e-9,
        capacity_ratio=cap.ratio_bound,
        capacity_ok=cap.ratio_bound < config.delta,
        guaranteed_interval_length=config.guaranteed_interval_length(),
    )


def cantor_grid(fn: Callable[[Fraction, Fraction], Fraction],
                level: int) -> dict:
    """Sample a function on the endpoint grid of the level-``level`` stage."""
    coords = [x for iv in FatCantorSet(level).intervals() for x in iv]
    return {(x, y): fn(x, y) for x in coords for y in coords}
