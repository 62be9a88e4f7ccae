"""Fat Cantor sets, separated structures and the phase transition.

The fat Cantor set removes the open middle of every interval so that
level-n intervals have length exactly 1/(2**(n+1)-1); the total measure
2**n/(2**(n+1)-1) then tends to 1/2.  Products of the set with itself
carry a (1/2, 1/4) separated structure, which is what makes piecewise
constant approximation feasible below exponent 1/2 and the capacity
estimates meaningful above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .paf import max_holder_ratio

_MATERIALIZATION_LIMIT = 1 << 22    # most intervals FatCantorSet.intervals builds
_TERM_TOL = 1e-18                   # capacity_gap stops below this term size
_MAX_TERMS = 100_000                # ... or after this many terms
_BRUTE_LEVELS = 3                   # product levels checked pair by pair
_IFS_LEVELS = 6                     # IFS levels that fix the constant K


def interval_length(n: int) -> Fraction:
    """Length 1/(2**(n+1)-1) of a level-n interval."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return Fraction(1, (1 << (n + 1)) - 1)


def removal_length(m: int) -> Fraction:
    """Length of the gap removed at generation m (m >= 1).

    Equals 1/((2**m - 1)(2**(m+1) - 1)), below 2**(-2m) once m > 2.
    """
    if m < 1:
        raise ValueError("removals start at generation 1")
    return Fraction(1, ((1 << m) - 1) * ((1 << (m + 1)) - 1))


@dataclass(frozen=True)
class FatCantorSet:
    """Level-n stage: 2**n closed intervals of equal length.

    Endpoints are generated on demand from the binary address of the
    interval, so deep levels stay cheap; materialization is available
    for moderate n.
    """

    n: int

    @property
    def length(self) -> Fraction:
        return interval_length(self.n)

    @property
    def count(self) -> int:
        return 1 << self.n

    @property
    def measure(self) -> Fraction:
        return self.count * self.length

    def left_endpoint(self, index: int) -> Fraction:
        if not 0 <= index < self.count:
            raise IndexError(f"interval index {index} out of range")
        pos = Fraction(0)
        for level in range(1, self.n + 1):
            bit = (index >> (self.n - level)) & 1
            if bit:
                pos += interval_length(level - 1) - interval_length(level)
        return pos

    def interval(self, index: int) -> tuple[Fraction, Fraction]:
        a = self.left_endpoint(index)
        return (a, a + self.length)

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        if self.count > _MATERIALIZATION_LIMIT:
            raise ValueError(f"{self.count} intervals exceed the materialization limit")
        return [self.interval(i) for i in range(self.count)]

    def contains(self, x: Fraction) -> bool:
        x = Fraction(x)
        if not 0 <= x <= 1:
            return False
        lo, hi = Fraction(0), Fraction(1)
        for level in range(1, self.n + 1):
            l_here = interval_length(level)
            if x <= lo + l_here:
                hi = lo + l_here
            elif x >= hi - l_here:
                lo = hi - l_here
            else:
                return False
        return True

    def min_gap(self) -> Fraction:
        """Smallest gap between distinct level-n intervals: the newest removal."""
        if self.n == 0:
            raise ValueError("a single interval has no gaps")
        return removal_length(self.n)

    def to_json(self) -> list[list[str]]:
        return [
            [f"{a.numerator}/{a.denominator}", f"{b.numerator}/{b.denominator}"]
            for a, b in self.intervals()
        ]


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


def capacity_gap(k: int, alpha: float) -> CapacityGap:
    """Capacity estimate of (level-k interval) minus the limit set.

    Covers the removed part by its contiguous gaps: 2**(m-k-1) gaps of
    length r_m for each generation m > k, so the direct sum is
    sum 2**(m-k-1) r_m**alpha.  For alpha > 1/2 the geometric closed
    form 2**(-2 alpha (k+1)) / (1 - 2**(1-2 alpha)) dominates it; for
    alpha <= 1/2 the terms do not decay and the divergence flag is
    raised instead.
    """
    if k < 1:
        raise ValueError("need k >= 1 (generation-1 gaps break the closed form)")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    total = 0.0
    m = k + 1
    terms = 0
    last_term = math.inf
    diverges = alpha <= 0.5
    while True:
        # term = 2**(m-k-1) * r_m**alpha, evaluated in log2 space so deep
        # generations neither overflow nor underflow
        denom_log2 = math.log2((1 << m) - 1) + math.log2((1 << (m + 1)) - 1)
        term_log2 = (m - k - 1) - alpha * denom_log2
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

    def rectangle(self):
        cs = FatCantorSet(self.k)
        return (cs.interval(self.ix), cs.interval(self.iy))


def product_distance_sq(a: ProductPiece, b: ProductPiece) -> Fraction:
    """Exact squared distance between two product cells."""
    cs = FatCantorSet(a.k)

    def axis_gap(i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        (a0, a1), (b0, b1) = cs.interval(min(i, j)), cs.interval(max(i, j))
        return max(Fraction(0), b0 - a1)

    gx = axis_gap(a.ix, b.ix)
    gy = axis_gap(a.iy, b.iy)
    return gx * gx + gy * gy


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
    if k_max < 2:
        raise ValueError("the distance bound needs level >= 2")
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
            pieces = [ProductPiece(k, i, j)
                      for i in range(1 << k) for j in range(1 << k)]
            best = None
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    d2 = product_distance_sq(pieces[i], pieces[j])
                    if best is None or d2 < best:
                        best = d2
            assert best == r_k * r_k, (k, best)
            certificates["levels"][k]["brute_min_distance_sq"] = best

    def family(k: int) -> list[ProductPiece]:
        if k < 2:
            raise ValueError("families materialize from level 2 on")
        return [ProductPiece(k, i, j) for i in range(1 << k) for j in range(1 << k)]

    return SeparatedStructure(nu=nu, rho=rho, K=K, family=family,
                              certificates=certificates)


# -- bi-Lipschitz iterated function systems on the line ---------------------

@dataclass(frozen=True)
class AffineMap1D:
    """x -> scale * x + offset; |scale| in (0, 1) for a contraction."""

    scale: Fraction
    offset: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.scale * x + self.offset

    @property
    def ratio(self) -> Fraction:
        return abs(self.scale)

    def image(self, interval: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        a, b = self(interval[0]), self(interval[1])
        return (min(a, b), max(a, b))


@dataclass(frozen=True)
class Cylinder:
    word: tuple[int, ...]
    hull: tuple[Fraction, Fraction]

    @property
    def diameter(self) -> Fraction:
        return self.hull[1] - self.hull[0]


def ifs_separated_structure(maps: list[AffineMap1D],
                            base: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
                            self_similar: bool | None = None) -> SeparatedStructure:
    """Separated structure of a strongly separated IFS attractor.

    Splits cylinders until all diameters fall inside
    [nu**(k+1) |F|, nu**k |F|] with nu the smallest ratio; the minimal
    image separation must be positive.  For exact similarities the
    distance scale can match the diameter scale (rho = nu); otherwise
    rho = nu**L with L = log nu / log rho_star and rho_star the largest
    ratio.
    """
    if not maps:
        raise ValueError("need at least one map")
    for mp in maps:
        if not 0 < mp.ratio < 1:
            raise ValueError(f"map {mp} is not a contraction")
        img = mp.image(base)
        if not (base[0] <= img[0] and img[1] <= base[1]):
            raise ValueError(f"map {mp} does not keep the base interval invariant")
    images = sorted(mp.image(base) for mp in maps)
    min_dist = None
    for (a0, a1), (b0, b1) in zip(images, images[1:]):
        gap = b0 - a1
        if gap <= 0:
            raise ValueError("images overlap or touch: strong separation fails")
        min_dist = gap if min_dist is None else min(min_dist, gap)
    nu = min(mp.ratio for mp in maps)
    rho_star = max(mp.ratio for mp in maps)
    if self_similar is None:
        # equal-ratio systems take the similarity shortcut by default;
        # callers may force either branch
        self_similar = len({mp.ratio for mp in maps}) == 1
    l_star = math.log(float(nu)) / math.log(float(rho_star))
    if self_similar:
        rho: Fraction | float = nu
    else:
        rho = float(nu) ** l_star if nu != rho_star else nu

    diam_f = base[1] - base[0]

    def family(k: int) -> list[Cylinder]:
        target_hi = nu**k * diam_f
        target_lo = nu ** (k + 1) * diam_f
        done: list[Cylinder] = []
        todo = [Cylinder((), base)]
        while todo:
            cyl = todo.pop()
            if cyl.diameter <= target_hi:
                done.append(cyl)
                continue
            for i, mp in enumerate(maps):
                todo.append(Cylinder(cyl.word + (i,), mp.image(cyl.hull)))
        assert all(target_lo <= c.diameter <= target_hi for c in done)
        return done

    certificates: dict = {"min_image_distance": min_dist, "l_star": l_star,
                          "levels": {}}
    structure = SeparatedStructure(nu=nu, rho=rho, K=Fraction(1), family=family,
                                   certificates=certificates)
    # compute the K making the definition hold on levels 0.._IFS_LEVELS
    k_needed = Fraction(1)
    for k in range(0, _IFS_LEVELS + 1):
        fam = family(k)
        hulls = sorted(c.hull for c in fam)
        min_gap = None
        for (a0, a1), (b0, b1) in zip(hulls, hulls[1:]):
            gap = b0 - a1
            min_gap = gap if min_gap is None else min(min_gap, gap)
        max_diam = max(c.diameter for c in fam)
        certificates["levels"][k] = {"pieces": len(fam), "max_diameter": max_diam,
                                     "min_gap": min_gap}
        # diameter: < K nu^k ; distance: > rho^k / K; an irrational rho
        # (general branch) is rationalized for the bookkeeping only
        if max_diam > 0:
            k_needed = max(k_needed, Fraction(max_diam, nu**k) * 2)
        if min_gap is not None and min_gap > 0:
            if isinstance(rho, Fraction):
                rk = rho**k
            else:
                rk = Fraction(rho).limit_denominator(10**9) ** k
            k_needed = max(k_needed, rk / min_gap * 2)
    structure.K = k_needed
    return structure


# ---------------------------------------------------------------------------
# piecewise-constant feasibility
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityResult:
    k: int
    lhs: float
    rhs: float
    feasible: bool
    boundary: bool


def piecewise_constant_feasibility(alpha: float, c: float, M: float,
                                   structure: SeparatedStructure,
                                   k: int) -> FeasibilityResult:
    """Check 2 K M nu**k <= (1-c) (rho**k)**alpha / K**alpha at one level."""
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1")
    K = float(structure.K)
    nu = float(structure.nu)
    rho = float(structure.rho)
    lhs = 2 * K * M * nu**k
    rhs = (1 - c) / K**alpha * (rho**k) ** alpha
    boundary = math.isclose(rho**alpha, nu, rel_tol=1e-12)
    return FeasibilityResult(k=k, lhs=lhs, rhs=rhs, feasible=lhs <= rhs,
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
    grows, which the scan certifies up to ``k_cap``.
    """
    ratios = []
    first = None
    boundary = False
    for k in range(k_cap + 1):
        res = piecewise_constant_feasibility(alpha, c, M, structure, k)
        boundary = res.boundary
        ratios.append(res.lhs / res.rhs if res.rhs else math.inf)
        if res.feasible and first is None:
            first = k
    increasing = all(b >= a * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))
    return FeasibilitySearch(first_feasible_k=first, boundary=boundary,
                             ratios=ratios,
                             monotone_infeasible=first is None and increasing)


# ---------------------------------------------------------------------------
# the phase-transition perturbation
# ---------------------------------------------------------------------------

@dataclass
class PhaseTransitionConfig:
    """Constants for the perturbation on one product cylinder.

    The cylinder is the square I x J at level k whose top corners are
    (x1, y1) and (x2, y1); delta bounds the capacity of the removed part
    relative to the edge, delta_prime the value tolerance, r the height
    of the band below the top edge and eta the measure of the set inside
    that band.
    """

    alpha: float
    c: Fraction
    M: float
    k: int
    x1: Fraction
    x2: Fraction
    y1: Fraction
    delta: float
    delta_prime: float
    r: Fraction
    eta: Fraction

    def guaranteed_interval_length(self) -> float:
        return (1 - float(self.c) - self.delta) * float(self.x2 - self.x1) \
            - 6 * self.delta_prime

    def validate(self):
        if not 0 < self.c < 1:
            raise ValueError("need 0 < c < 1")
        if self.guaranteed_interval_length() <= 0:
            raise ValueError(
                "delta and delta_prime leave no guaranteed image interval"
            )


def cylinder_config(alpha: float, c: Fraction, k: int, ix: int, iy: int,
                    delta: float) -> PhaseTransitionConfig:
    """Config for the level-k cylinder (ix, iy); M = c, delta_prime = width/100."""
    cs = FatCantorSet(k)
    x1, x2 = cs.interval(ix)
    _, y1 = cs.interval(iy)
    width = x2 - x1
    band = interval_length(k + 1)
    return PhaseTransitionConfig(
        alpha=alpha, c=Fraction(c), M=float(c), k=k,
        x1=x1, x2=x2, y1=y1, delta=delta,
        delta_prime=float(width / 100),
        r=band, eta=cantor_tail_measure(k + 1),
    )


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
    top corners, exactly, and stays 1-Holder-alpha on the grid.
    """
    config.validate()
    c = Fraction(config.c)
    x1, x2, y1 = config.x1, config.x2, config.y1
    v1 = (x1, y1)
    v2 = (x2, y1)
    if v1 not in grid or v2 not in grid:
        raise ValueError("grid must contain the top corners of the cylinder")

    pts = list(grid)
    xs = np.array([float(p[0]) for p in pts])
    ys = np.array([float(p[1]) for p in pts])
    base_ratio, _ = max_holder_ratio(xs, ys, np.array([float(grid[p]) for p in pts]),
                                     config.alpha)
    if base_ratio > float(c) * (1 + 1e-9):
        raise ValueError(
            f"base certificate fails: grid ratio {base_ratio:.6g} exceeds c = {float(c):.6g}"
        )

    mirrored = grid[v1] > grid[v2]

    def ramp(x: Fraction) -> Fraction:
        if mirrored:
            if x < x1:
                return (1 - c) * (x2 - x1)
            if x <= x2:
                return (1 - c) * (x2 - x)
            return Fraction(0)
        if x < x1:
            return Fraction(0)
        if x <= x2:
            return (1 - c) * (x - x1)
        return (1 - c) * (x2 - x1)

    perturbed = {p: grid[p] + ramp(p[0]) for p in pts}
    lhs = abs(perturbed[v1] - perturbed[v2])
    rhs = (1 - c) * (x2 - x1)
    pert_ratio, _ = max_holder_ratio(xs, ys, np.array([float(perturbed[p]) for p in pts]),
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
        capacity_ratio=cap.ratio_to_interval,
        capacity_ok=cap.ratio_to_interval < config.delta,
        guaranteed_interval_length=config.guaranteed_interval_length(),
    )


def cantor_grid(fn: Callable[[Fraction, Fraction], Fraction],
                level: int) -> dict:
    """Sample a function on the endpoint grid of the level-``level`` stage."""
    cs = FatCantorSet(level)
    coords: list[Fraction] = []
    for i in range(cs.count):
        a, b = cs.interval(i)
        coords.extend((a, b))
    return {(x, y): fn(x, y) for x in coords for y in coords}
