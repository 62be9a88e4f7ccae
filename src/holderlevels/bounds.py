"""Closed-form dimension bounds and finite-scale estimators.

The lower bound for level sets on the Sierpinski triangle, its
feasibility search over the decay rate d1 and the boundary parameter l,
the generic upper bound 1 - 2**(-alpha), the trivial box-dimension
bound, slope estimation for box-count traces, and the finite-depth mass
distribution verification.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .levelset import LevelSetTree, _level_fraction, census_constant
from .runs import _block_summary, _blocks, _corner_cells, _heads, _line_members, _straddle
from .triangles import _check_alpha, _check_depth, _rational

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
    _check_alpha(alpha)
    with _arithmetic(precision) as (num, log):
        a = num(alpha)
        return (a / 2) / (1 + (1 + log(3 / a)) / log(2) + 2 / a)


def upper_bound(alpha: float, precision: str = "double"):
    """1 - 2**(-alpha), increasing, with limit 1/2 at alpha -> 1."""
    _check_alpha(alpha)
    with _arithmetic(precision) as (num, _):
        return 1 - num(2) ** -num(alpha)


def trivial_upper_bound_sierpinski(precision: str = "double"):
    """log 3 / log 2 - 1, the box-dimension bound, about 0.584962500721."""
    with _arithmetic(precision) as (_, log):
        return log(3) / log(2) - 1


def lcondition_lhs(alpha: float, d1) -> float:
    """(d1 (1 + log(3/(2 d1))) + log 2) / ((alpha - d1) log 2)."""
    _check_alpha(alpha)
    d1 = float(_rational("d1", d1))
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
        _check_alpha(self.alpha)
        if not isinstance(self.d1, (int, Fraction)) or not 0 < self.d1 < self.alpha:
            raise ValueError(f"d1 must be an int or a Fraction in (0, alpha), got {self.d1!r}")
        _check_depth("l", self.l, 1)

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


def box_count_dimension(digits) -> DimensionEstimate:
    """Slope of the crossing-count law along a digit stream.

    ``digits`` is the binary expansion of the line height; the level-n
    count is 2**(zeros among the first n digits), so log2 of the counts
    is a cumulative sum and the limsup quotient is replaced by a least
    squares fit over the trailing half of the levels.  A digit other
    than 0 or 1 is a ValueError, as in ``line_crossing_count``.
    """
    try:
        digits = iter(digits)
    except TypeError:
        raise ValueError(f"digits must be iterable, got digits={digits!r}") from None
    import numpy as np
    digits = list(digits)
    n = len(digits)
    if n == 0:
        return DimensionEstimate(np.array([]), np.array([]), 0.0, 0.0, empty=True)
    try:
        flips = np.array([1 - e for e in digits])
    except TypeError:                   # a digit with no arithmetic, such as a str's
        digit = next(e for e in digits if e not in (0, 1))
        raise ValueError(f"binary digits expected, got {digit!r}") from None
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


def _run_windows(runs, l: int, lcms, ks) -> list[tuple[list, list]]:
    """(each run's window, each run's seam cells) at chain length k, for each k of ``ks``.

    ``runs`` are ``LevelSetTree._members`` records (row, col, mu, o, K)
    whose chains are ``len(lcms)`` blocks long, ``lcms`` the lcm at each
    depth of the chain and ``ks`` chain lengths: at k a run stands for
    its members at depth t + k, whose blocks are the ones of the first k
    digits of K (``runs._heads``).  Each (run, k) reads at most four
    summaries cached per digit (``_block_summary``, ``_straddle``, and
    ``_corner_cells``, per k too) and a constant number of big-int
    operations; no block is walked and no member is listed
    (``mass_distribution_lower`` gives the closed forms).

    The window is the largest mu sum over three consecutive line
    positions of the run's members.  With u(e) block j's factor at line
    position e (``_block_summary`` times the unit L_j / S_j), T_j its
    largest u(e - 1) + u(e) + u(e + 1), top = 2**l - 1 and M_j = M_(j-1)
    max u the largest mu at depth t + j, the window is mu at k = 0 and
    otherwise the larger of M_(k-1) T_k and, for k >= 2, M_(k-2) times the
    largest a x + b y over the starts (a, b) of block k and the pairs
    (x, y) of block k - 1.  Proof: three consecutive positions lie below
    one member P at depth t + k - 1, weighing at most mu(P) T_k, or
    straddle P, P + 1, weighing a mu(P) + b mu(P + 1); the two terms are
    the heaviest P's best triple and siblings below the heaviest Q at
    depth t + k - 2.  Up to a unit per depth, a block (``_blocks``) is
    the zero block u = (2, 1, ..., 1), the ones block (1, 0, ..., 0) or a
    mixed block k, 1 at e = 0 and e = top ^ k, and only the first has
    u(top) > 0.  So, as a, b <= T_k, a heavier pair is two members Q 2**l
    + top, (Q + 1) 2**l below a zero block k - 1 of unit U, weighing U (a
    mu(Q) + 2 b mu(Q + 1)), with M_(k-1) = 2 U M_(k-2).  If a >= b that
    is at most U (2 a + b) M_(k-2), the term of the pair (2U, U).  If a <
    b and l >= 2, it is at most U 2 (a + b) M_(k-2) = M_(k-1) (a + b),
    and a + b <= T_k (4 in the zero block, else u(0) + u(1) or u(0)).  If
    a < b and l = 1, it is at most 2 b U M_(k-2) = b M_(k-1) by the claim
    mu(p) + c mu(p + 1) <= c M_j for c >= 2, at c = 2 b / a (plain at a =
    0).  The claim holds at j = 0
    and with a non-member; at l = 1 two members are siblings in the zero
    block, (2 + c) U mu(Q) <= 2 c U M_(j-1) = c M_j, or straddle two
    parents there, U (mu(Q) + 2 c mu(Q + 1)) <= 2 c U M_(j-1) by the
    claim at j - 1 with 2 c.

    The seam cells are (row, col, mu numerator) of the members fewer
    than R = 2 cell layers from a corner of the run's region, in the
    run's order: the corner chains of ``mass_distribution_lower``.
    """
    prods = list(itertools.accumulate(lcms, operator.mul, initial=1))    # L_1 ... L_j
    # powers of the zero block's sum
    zero_pows = [_blocks(l)[0][1] ** z for z in range(len(lcms) + 1)]
    # per k: L_k, L_1 ... L_(k-1) and L_1 ... L_k
    steps = [(k, lcms[k - 1], prods[k - 1], prods[k]) for k in ks if k]
    walks = [([], []) for _ in ks]
    heads = _heads([run[4] for run in runs], l, len(lcms), [k for k, *_ in steps])
    for (row, col, mu, o, _), run_heads in zip(runs, heads):
        if 0 in ks[:1]:
            walks[0][0].append(mu)
            walks[0][1].append([(row, col, mu)])
        for (k, lcm, before, through), (prev, digit, zeros, mixed), (windows, seams) in zip(
                steps, run_heads, walks[len(walks) - len(steps):]):
            total, _, triple, _, _ = _block_summary(l, digit)
            peak = (mu * before << zeros) // (zero_pows[zeros] << mixed)     # M_(k-1)
            unit = lcm // total
            best = peak * triple * unit
            if k > 1:
                # M_(k-2) times block k - 1's unit is M_(k-1) over its largest weight
                best = max(best, peak // _block_summary(l, prev)[1] * unit
                           * _straddle(l, prev, digit))
            windows.append(best)
            # the seam has members only while the leading digits are all 0 or all top
            seams.append([] if zeros < k - 1 and zeros + mixed else [
                (row << k * l | i, col << k * l | j, mu * through * w // s)
                for i, j, w, s in _corner_cells(l, o, prev if k > 1 else None, digit, k)])
    return walks


def _window_members(run, l: int, lcms, k: int, seam: list) -> list:
    """``seam`` merged with the members at chain length k of ``run`` at six line positions.

    (row, col, mu numerator) in line order, which is the run's order; the
    positions are 0, 1, 2 and 2**l - 2 to 2**l of depth t + k, those
    that are members (``runs._line_members``).  ``run`` and ``lcms`` are
    as ``_run_windows`` reads them and ``seam`` is the run's seam at k.
    These hold every member touching the first cell of the run's window in
    scatter order (``mass_distribution_lower`` has the argument).

    Position 2**l + 1 serves only the start (u(top), u(0) + u(1)) of the
    straddle of positions 0 and 1, below a zero or ones block k - 1 of
    first pair (x, y) = (2, 1) or (1, 0).  That start weighs u(1) y -
    u(top - 1) x more than (u(top - 1) + u(top), u(0)), and 2**l + 1 is a
    member only if y = u(1) = 1: then block k is the zero block, where
    u(top - 1) >= 1, or the mixed block 2**l - 2, whose straddle, 2, is
    below its triple, 2 T_k = 4, both times M_(k-2) and the units.
    """
    top = _blocks(l).top
    members = set(seam).union(_line_members(run, l, lcms, k, {0, 1, 2, top - 1, top, top + 1}))
    return sorted(members, key=operator.itemgetter(int(run[3] == 2)))


def _scatter(groups, s: int) -> dict[int, int]:
    """Each touched cell's mass numerator, in the order the cells are first touched.

    ``groups`` are lists of (row, col, mu numerator); each member adds its
    mass to the seven cells it touches, in ``_CELL_NEIGHBOR_OFFSETS``
    order, keyed as ``mass_distribution_lower`` keys them at shift ``s``.
    """
    base = (1 << s) + 1
    deltas = [(dr << s) + dc for dr, dc in _CELL_NEIGHBOR_OFFSETS]
    cell_mass: dict[int, int] = {}
    get = cell_mass.get
    for members in groups:
        for row, col, m in members:
            key = (row << s) + col + base
            for d in deltas:
                cell = key + d
                cell_mass[cell] = get(cell, 0) + m
    return cell_mass


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

    mu at depth n depends only on the ancestors, so the measure is filled
    once to the deepest depth.  The largest cell mass comes from the tree's
    runs (``LevelSetTree._members``), whose members are not listed: each
    is read once, at the deepest depth, as its crossing member and K, the
    integer its digit blocks spell, and every checked depth past them
    reads each run's window and seam in closed form from K's leading
    digits (``_run_windows``), with no block walked.  A run's members at
    depth n lie on one lattice line, so a cell on the line touches three
    consecutive positions of it and a cell beside it two: within one run
    the largest cell mass is the largest sum over three consecutive
    positions, its window.  A cell touched by two runs lies near a vertex
    their regions, the runs' depth-t cells, share, and every member
    touching it is fewer than R = 2 cell layers from a corner of its
    region.  Those seam members of every run are scattered in member
    order: each adds its mass to the cells it touches, so a
    cell touched by two runs ends up with the total of the members
    touching it.  C is exact: it is the largest window or seam total, each
    of which is part of one cell's mass, and every cell's mass is a seam
    total or a sum over three or two positions of one run, at most its
    window.  A member with an empty chain (n at most the crossing depth c,
    or a three-valued crossing member) is a run of one member and its own
    seam member, so there every member is scattered, and a checked depth
    above t reads its own members.

    The closed forms read a run at chain length k from K's first k
    digits (``runs`` holds K's layout, the blocks and their summaries).
    Block j is the block of K's j-th digit k_j, and its factors are its
    weights times L_j / S_j, L_j the lcm at its depth and S_j its sum:
    the zero block's largest weight is 2 of S = 2**l + 1, the ones
    block's 1 of 1 and a mixed block's 1 of 2.  So the largest mu at
    depth t + j is M_j = mu L_1 ... L_j 2**Z / ((2**l + 1)**Z 2**X), Z
    and X the zero and mixed digits among the first j, counted from K's
    bits with one carry per digit (at l = 1, Z = j - popcount).  The
    window is M_(k-1) T_k against M_(k-2) times the straddle of blocks k -
    1 and k (``_run_windows`` has the proof), read from the two blocks'
    summaries at unit 1.  A member fewer than R
    layers from corner V lies in V's corner triangle of side 2 cells, the
    word V**(l k - 1); its three upward cells, V**(l k) and V**(l k - 1)
    s for the two other symbols s, are the cells within one layer of V
    (i + j <= 1 at corner 0), and no other upward cell is.  A word is a
    member when its block words spell K's digits.  The leading blocks
    V**l spell 0 for V other than o and 2**l - 1 for V = o, so these
    members exist only while the k - 1 leading digits are all 0 (the two
    corners other than o) or all 2**l - 1 (corner o), and then those of
    them whose last block word spells digit k.  Each one's mu is mu L_1
    ... L_k (w0 / S0)**(k - 1) w / S_k, w0 and w the weights of its
    leading and last block words; they come once each, in word order,
    which is the ``nodes_at`` order, so the scatter order is a full
    listing's.

    R = 2 since cells of one subdivision level that share no vertex are a
    cell side, at least 2 depth-n cells, apart, and two that share a
    vertex V lie near it in 60-degree wedges at least 60 degrees apart.
    A cell touched by members of both has vertices x in one and y in the
    other with |x - y| <= 1 in depth-n cell sides, so with a = |x - V|
    and b = |y - V|, a**2 + b**2 - a b <= 1, which no lattice distance
    a >= sqrt(3) meets: x is V or one of its two lattice neighbours in
    the region, a vertex only of the members 0 or 1 layers from that
    corner.  With R = 1 the scatter misses the second layer.

    Masses are the integer numerators over the level's common
    denominator.  A cell (row, col) at depth n is keyed by the integer
    ((row + 1) << s) + col + 1 with s = n l + 2, so row and col in
    [-1, 2**(n l)] never carry into each other and each neighbour offset
    is one integer added to the key.  ``worst_cell`` is the first
    maximising cell in scatter order (the ``nodes_at`` order of the
    level's members, then the neighbour offset order) at the first depth
    that reaches the maximum.  Each checked depth scatters its seams
    once: when the largest window alone raises C, the seam of the first
    run whose window reaches it first takes in the run's members at line
    positions 0, 1, 2 and 2**l - 2 to 2**l (``_window_members``), the
    mass is the larger of the largest window and cell, and the worst cell
    is the scatter's first cell of that mass.  The full scatter's first
    such cell W is touched by two runs, so that every member touching it
    is a seam member, or by one run, whose window then is the mass; no
    earlier run's window is, since it would lie on a maximising cell
    touched earlier.  In the second case the six
    positions hold every member touching W.  Within a run word order is
    line order, as each block lists its children by increasing line
    position e, and position 0, e = 0 in every block, is a peak at every
    depth, as e = 0 carries each block's largest weight.  By
    ``_run_windows``' proof the window is the heaviest parent's best
    triple or the straddle of two siblings below the heaviest
    grandparent, and the first of each lies below position 0.  The
    triple is the one at positions 0 to 2, as e = 0 and the two positions
    after it hold a largest triple of every block.  A straddle heavier
    than every triple lies below a zero or ones block k - 1, since a
    mixed block's pairs are (1, 0), (0, 1) or (1, 1), each weighing at
    most T_k there; the first pair (u(0), u(1)) of those two blocks is
    their best, so the siblings are positions 0 and 1 and their straddle
    touches positions 2**l - 2 to 2**l (not 2**l + 1, see
    ``_window_members``).  Cousins and later siblings straddle later in
    line order.  Merged members never lift a cell above its mass, W keeps
    its mass, and the scatter lists some of the full listing's members in
    its order, so a cell is touched no earlier than there: no cell of that
    mass comes before W, merged or not.  A
    ``tree`` must be one built for ``fn``, ``r`` and ``params.l``.
    """
    _check_depth("n_prime_max", n_prime_max, 1)
    q, l, d1 = params.q, params.l, params.d1
    if tree is None:
        tree = LevelSetTree(fn, r, l)
    elif tree.fn is not fn or tree.r != _level_fraction(r) or tree.l != l:
        raise ValueError(f"the tree was built for another function, level value or l "
                         f"(tree r = {tree.r}, l = {tree.l})")
    n_max = q * n_prime_max
    deepest = list(tree._members(n_max))     # fills the measure to n_max first
    # the depth of the runs' own members: c, unless every chain is empty
    t = n_max if deepest[0][3] is None else tree._crossing
    dens = tree.mu_denominators
    lcms = [dens[j] // dens[j - 1] for j in range(t + 1, n_max + 1)]
    # (runs, their depth, the lcms of their chains, the checked chain lengths k, depth t + k)
    groups = itertools.chain(((list(tree._members(n)), n, [], [0]) for n in range(q, t, q)),
                             [(deepest, t, lcms, [n - t for n in range(q, n_max + 1, q)
                                                  if n >= t])])
    c_emp = 0.0
    worst_cell = None
    worst_level = None
    levels = []
    for runs, depth, lcms, ks in groups:
        for k, (windows, seams) in zip(ks, _run_windows(runs, l, lcms, ks)):
            n = depth + k
            s, shift = n * l + 2, n * d1.numerator // q
            top = max(windows)
            # int / int is correctly rounded, so this is float(mu(U) 2**(n d1))
            if (top << shift) / dens[n] > c_emp:
                first = windows.index(top)
                seams[first] = _window_members(runs[first], l, lcms, k, seams[first])
            cell_mass = _scatter(seams, s)
            mass = max(top, max(cell_mass.values(), default=0))
            quot = (mass << shift) / dens[n]
            if quot > c_emp:
                key = next(cell for cell, v in cell_mass.items() if v == mass)
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
