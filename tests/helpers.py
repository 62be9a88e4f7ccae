"""Small functions that only the tests call.

Each one used to live in the library beside the code it exercises; no
library path, benchmark or tool calls them.
"""

import functools
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from holderlevels.cantor import FatCantorSet, ProductPiece, SeparatedStructure
from holderlevels.levelset import LevelCollisionError, _level_fraction, kappa_exponent
from holderlevels.paf import PiecewiseAffineFn, _midpoint_copy
from holderlevels.runs import _chain, _split
from holderlevels.triangles import (boundary_family, cell_corners, lattice_index_unchecked,
                                    lattice_point, level_index)

_IFS_LEVELS = 6                     # IFS levels that fix the constant K
_IFS_BASE = (Fraction(0), Fraction(1))  # the interval every IFS map must keep


def touching_up_cells(row: int, col: int) -> list[tuple[int, int]]:
    """Upward cells sharing at least one lattice vertex with (row, col)."""
    return [(row + dr, col + dc)
            for dr, dc in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))]


@functools.cache
def oracle_digit_blocks(l: int) -> tuple:
    """The run block of every odd corner o and digit k, from every boundary word in order.

    ``oracle_digit_blocks(l)[o][k]`` is (children, split): the children
    are (word, kappa increment) of the boundary words whose steps into o,
    joined one symbol at a time, spell the l binary digits of k, in
    ``boundary_family(l)`` order.  The extreme words o**l and m**l, m the
    smallest other symbol, keep kappa, and the split is ``_split`` of the
    increments.  The library reads every block from ``runs._blocks``.
    """
    blocks = [[[] for _ in range(1 << l)] for _ in range(3)]
    for w in boundary_family(l):
        for o in range(3):
            extremes = (str(o) * l, str(int(o == 0)) * l)
            k = int("".join("1" if int(s) == o else "0" for s in w), 2)
            blocks[o][k].append((w, int(w not in extremes)))
    return tuple(
        tuple((tuple(block), _split([inc for _, inc in block])) for block in by_k)
        for by_k in blocks)


def oracle_run_weights(k: int, l: int, size: int) -> tuple[int, int]:
    """(exponent, count) of the chain of k's last ``size`` digits, one block at a time.

    Each block of ``runs._chain`` adds its largest kappa increment top to
    the exponent (its first span's increment plus log2 of that span's
    weight 2**(top - inc)) and multiplies the count by its sum S, so the
    chain's kappa sum is count 2**-exponent.  ``runs._run_weights`` reads
    the same pair from the chain's zero and mixed digit counts.
    """
    exp, count = 0, 1
    for _, total, spans in _chain(k, l, size) if size else ():
        exp += spans[0][0] + spans[0][1].bit_length() - 1
        count *= total
    return exp, count


@functools.cache
def oracle_block_cells(block: tuple, unit: int) -> tuple:
    """(row bits, col bits, mu factor) of each child of an ``oracle_digit_blocks`` block.

    The factor is ``unit`` times the child's weight, where ``unit`` is
    lcm / S at the block's depth.
    """
    children, (weights, _) = block
    return tuple((*lattice_index_unchecked(w), unit * wt)
                 for (w, _), wt in zip(children, weights))


def run_blocks(l: int, o: int, k: int, lcms) -> tuple:
    """The digit blocks a run's K spells, each child's (row bits, col bits, mu factor).

    K has ``len(lcms)`` base-2**l digits, most significant first, and the
    block of digit d at depth j is ``oracle_digit_blocks(l)[o][d]`` with
    unit ``lcms[j - 1]`` over its sum, as ``LevelSetTree.fill_measure``
    splits it.
    """
    family, size = oracle_digit_blocks(l)[o], len(lcms)
    blocks = [family[k >> l * (size - j) & ((1 << l) - 1)] for j in range(1, size + 1)]
    return tuple(oracle_block_cells(block, lcm // block[1][1])
                 for block, lcm in zip(blocks, lcms))


def chain_lcms(tree, n: int) -> list[int]:
    """The lcm at each depth from the crossing depth c + 1 to n, the chains' depths."""
    dens = tree.fill_measure(n).mu_denominators
    return [dens[j] // dens[j - 1] for j in range(tree._crossing + 1, n + 1)]


def member_blocks(tree, n: int) -> list[tuple]:
    """``tree._members(n)`` with each K spelled out as its chain's blocks (``run_blocks``).

    The mass check read these records, (row, col, mu numerator, odd
    corner, blocks), before it read each run's K in closed form; a
    depth-n member is one child per block, in ``nodes_at(n)`` order when
    the blocks are expanded one after the other.
    """
    records = list(tree._members(n))
    lcms = chain_lcms(tree, n)
    return [(row, col, mu, o, () if o is None else run_blocks(tree.l, o, k, lcms))
            for row, col, mu, o, k in records]


def lchoice_window(alpha: float) -> tuple[float, float]:
    """The (lo, lo+1] window for l when d1 is essentially alpha/2."""
    lo = (alpha / 2 * (1 + math.log(3 / alpha)) + math.log(2)) / (alpha / 2 * math.log(2))
    return (lo, lo + 1)


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


def sample_dyadic(rng: random.Random, depth: int) -> Fraction:
    """Uniform dyadic rational with ``depth`` digits."""
    return Fraction(rng.randrange(1 << depth), 1 << depth)


def _distance_sq(r, s) -> Fraction:
    """Exact squared distance between two rectangles, each a pair of intervals."""
    total = Fraction(0)
    for (a0, a1), (b0, b1) in zip(r, s):
        gap = max(0, b0 - a1, a0 - b1)
        total += gap * gap
    return total


def product_rectangle(piece: ProductPiece):
    """The product cell as its two level-k intervals, (x interval, y interval)."""
    cs = FatCantorSet(piece.k)
    return (cs.interval(piece.ix), cs.interval(piece.iy))


def product_distance_sq(a: ProductPiece, b: ProductPiece) -> Fraction:
    """Exact squared distance between two product cells."""
    return _distance_sq(product_rectangle(a), product_rectangle(b))


def constant_fn(value: Fraction, level: int = 0) -> PiecewiseAffineFn:
    """The constant function ``value``, refined to ``level``."""
    return PiecewiseAffineFn(0, dict.fromkeys(cell_corners(0, 0), Fraction(value))).refine(level)


def affine_from_corners(q1: Fraction, q2: Fraction, q3: Fraction,
                        level: int = 0) -> PiecewiseAffineFn:
    """The globally affine function with the given root corner values."""
    grid = {p: Fraction(q) for p, q in zip(cell_corners(0, 0), (q1, q2, q3))}
    return PiecewiseAffineFn(0, grid).refine(level)


_POINT_VALUES = weakref.WeakKeyDictionary()


def point_values(fn):
    """Read-only view of ``fn.grid`` keyed by exact points, in the same order."""
    if fn not in _POINT_VALUES:
        _POINT_VALUES[fn] = MappingProxyType({
            lattice_point(row, col, fn.level): v for (row, col), v in fn.grid.items()})
    return _POINT_VALUES[fn]


def fraction_triangles(fn) -> list[tuple[str, tuple]]:
    """(word, corner values) over fn's level-n triangles in word-table order, by ``corner_values``."""
    return [(word, fn.corner_values(word)) for word in level_index(fn.level).words
            if len(word) == fn.level]


def fraction_is_standard(fn) -> bool:
    return all(q1 == q2 or q2 == q3 or q1 == q3 for _, (q1, q2, q3) in fraction_triangles(fn))


def fraction_is_locally_nonconstant(fn) -> bool:
    return all(not (q1 == q2 == q3) for _, (q1, q2, q3) in fraction_triangles(fn))


def fraction_oscillation(fn) -> Fraction:
    return max(max(v) - min(v) for _, v in fraction_triangles(fn))


def fraction_lipschitz_sq(fn) -> Fraction:
    """(4/3) (d1**2 - d1 d2 + d2**2) / s**2 per triangle in Fractions, maximised."""
    best = Fraction(0)
    scale = Fraction(4, 3) * (4**fn.level)
    for _, (q1, q2, q3) in fraction_triangles(fn):
        d1 = q2 - q1
        d2 = q3 - q1
        g = scale * (d1 * d1 - d1 * d2 + d2 * d2)
        if g > best:
            best = g
    return best


def fraction_standardize(fn) -> PiecewiseAffineFn:
    """The midpoint-copy subdivision with the ``Fraction`` corner values of each leaf."""
    index = level_index(fn.level)
    grid = _midpoint_copy((index.cells[i], fn.corner_values(index.words[i]))
                          for i in index.layers[fn.level])
    return PiecewiseAffineFn(fn.level + 1, grid)


def iter_subdivision_addresses(n: int, l: int = 1):
    """Addresses of the n-th level of the boundary sub-fractal.

    Words of length n*l obtained by concatenating n boundary words;
    there are (3*(2**l - 1))**n of them.  With l = 1 this is the full
    family of 3**n level-n addresses.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    fam = boundary_family(l)
    for combo in itertools.product(fam, repeat=n):
        yield "".join(combo)


def subdivision_addresses(n: int, l: int = 1, limit: int = 2_000_000) -> list[str]:
    count = (3 * (2**l - 1)) ** n
    if count > limit:
        raise ValueError(f"family of size {count} exceeds materialization limit")
    return list(iter_subdivision_addresses(n, l))


def _corner_values_checked(fn, word: str, r: Fraction):
    vals = fn.corner_values(word)
    for v in vals:
        if v == r:
            raise LevelCollisionError(r, word)
    return vals


def full_level_set(fn, r, n: int, l: int = 1) -> dict[str, int]:
    """The n-th approximation by the membership test on the whole family, {word: kappa exponent}.

    Enumerates every triangle of the n-th subdivision, so it also finds
    members whose parents are not members; feasible only while the
    family is small.
    """
    r = _level_fraction(r)
    members: dict[str, int] = {}
    for word in subdivision_addresses(n, l, limit=300_000):
        vals = _corner_values_checked(fn, word, r)
        if min(vals) < r < max(vals):
            members[word] = kappa_exponent(fn, word, l)
    return members


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
                            self_similar: bool | None = None) -> SeparatedStructure:
    """Separated structure of a strongly separated IFS attractor.

    Every map must keep the base interval [0, 1] invariant.  Splits
    cylinders until all diameters fall inside [nu**(k+1) |F|, nu**k |F|]
    with nu the smallest ratio; the minimal image separation must be
    positive.  For exact similarities the distance scale can match the
    diameter scale (rho = nu); otherwise rho = nu**L with
    L = log nu / log rho_star and rho_star the largest ratio.
    """
    if not maps:
        raise ValueError("need at least one map")
    for mp in maps:
        if not 0 < mp.ratio < 1:
            raise ValueError(f"map {mp} is not a contraction")
        img = mp.image(_IFS_BASE)
        if not (_IFS_BASE[0] <= img[0] and img[1] <= _IFS_BASE[1]):
            raise ValueError(f"map {mp} does not keep the base interval invariant")
    images = sorted(mp.image(_IFS_BASE) for mp in maps)
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

    diam_f = _IFS_BASE[1] - _IFS_BASE[0]

    def family(k: int) -> list[Cylinder]:
        target_hi = nu**k * diam_f
        target_lo = nu ** (k + 1) * diam_f
        done: list[Cylinder] = []
        todo = [Cylinder((), _IFS_BASE)]
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
