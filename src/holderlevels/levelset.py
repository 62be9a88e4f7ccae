"""Level-set approximations and the conductivity recursion.

Fix a boundary parameter l and a level value r avoiding the vertex
values.  A triangle of the n-th boundary-family subdivision belongs to
the n-th level-set approximation when r lies strictly between its
minimum and maximum corner values.  Conductivity starts at 1 on the
root and halves at every subdivision step except into the two corner
children sitting at the extreme (min / max) vertices, which inherit.
The descendant tree below the root supports the weak conservation law

    sum of conductivities over depth-(n+k) descendants >= conductivity,

and the measure that splits mass proportionally to conductivity, which
therefore never exceeds it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .paf import PiecewiseAffineFn
from .triangles import boundary_family, lattice_point


def _split(incs) -> tuple[tuple[int, ...], int]:
    """Child weights 2**(top - e) and their sum, from the children's kappa increments.

    A node's measure goes to its children in proportion to their
    conductivities 2**-e; top is the largest exponent among them.
    """
    top = max(incs, default=0)
    weights = tuple(1 << (top - inc) for inc in incs)
    return weights, sum(weights)


def _kappa_sum(exps) -> Fraction:
    """The exact sum of 2**-e over kappa exponents e: ``_split``'s total over 2**top."""
    exps = tuple(exps)
    return Fraction(_split(exps)[1], 1 << max(exps, default=0))


@functools.cache
def _digit_blocks(l: int) -> tuple:
    """Member children of a two-valued triangle below the function level.

    ``_digit_blocks(l)[o][k]`` is (children, split).  The children are
    (boundary word, kappa increment) for the words whose steps into the
    odd corner o spell the l binary digits of k, in ``boundary_family(l)``
    order: all 2**l words over the other two symbols for k = 0, only o**l
    for k = 2**l - 1, and the two words o and one other symbol spell for
    a mixed block.  The extreme words of an odd corner o (o**l and m**l,
    m the smallest other symbol) keep kappa.  The split is the block's
    ``_split``: weight 2 for m**l and 1 for the others in the zero block
    (sum 2**l + 1), (1,) for o**l and (1, 1) for a mixed block.
    """
    blocks = []
    for o in range(3):
        digits = str.maketrans("012", "".join("01"[s == o] for s in range(3)))
        extremes = _extreme_words([int(s == o) for s in range(3)], l)
        by_k: list[list] = [[] for _ in range(1 << l)]
        for w in boundary_family(l):
            by_k[int(w.translate(digits), 2)].append((w, int(w not in extremes)))
        blocks.append(tuple((tuple(block), _split([inc for _, inc in block]))
                            for block in by_k))
    return tuple(blocks)


@functools.cache
def _word_steps(l: int, below: int) -> tuple:
    """Each boundary word with the symbols of its last ``below`` steps, as ints.

    The word loop applies those steps to corner values that lie below the
    function level; the rest of a word is read from the word table.
    """
    return tuple((w, tuple(map(int, w[l - below:]))) for w in boundary_family(l))


def odd_corner(corners) -> tuple | None:
    """(o, b, a) for corners equal to b except corner o, which is a.

    None for a constant triple and for three distinct values.  The tree's
    digit step and the graft's corner labels both read this one rule.
    """
    c0, c1, c2 = corners
    if c0 == c1:
        return (2, c0, c2) if c2 != c0 else None
    if c0 == c2:
        return 1, c0, c1
    if c1 == c2:
        return 0, c1, c0
    return None


class LevelCollisionError(ValueError):
    """The level value hits a vertex value."""

    def __init__(self, r: Fraction, word: str):
        super().__init__(f"level {r} collides with a vertex value on triangle {word!r}")
        self.r = r
        self.word = word


@dataclass(frozen=True)
class LevelValue:
    """An admissible level: a rational avoiding the checked vertex values.

    Avoidance over the infinite vertex set cannot be decided, so the
    value is validated against the function's own table at construction
    and re-checked lazily on every triangle a computation touches.  Every
    vertex value is an integer over D, the lcm of the values' reduced
    denominators: with q, rem = divmod(r.num D, r.den), a level with
    rem != 0 is accepted without a scan, and any other level is the
    integer q over D and is compared with the integer vertex table in
    its key order, and the first equal vertex is named.
    """

    r: Fraction

    @classmethod
    def checked(cls, r, fn: PiecewiseAffineFn) -> "LevelValue":
        r = _level_fraction(r)
        q, rem = divmod(r.numerator * fn._denominator(), r.denominator)
        if rem:
            return cls(r)
        for (row, col), v in fn._numerators.items():
            if v == q:
                point = lattice_point(row, col, fn.level)
                raise LevelCollisionError(r, f"vertex {point.to_triples()}")
        return cls(r)


def _level_fraction(r) -> Fraction:
    """The exact level of a LevelValue or of anything finite that Fraction accepts."""
    if isinstance(r, LevelValue):
        return r.r
    try:
        return Fraction(r)
    except (OverflowError, ValueError):     # inf; NaN or a malformed string
        raise ValueError(f"the level r must be a finite rational, got {r!r}") from None


def extreme_pair(values) -> tuple:
    """(vmin, vmax) corner indices, ties to the smallest; () if constant."""
    a, b, c = values
    if a == b == c:
        return ()
    lo = 0 if a <= b and a <= c else (1 if b <= c else 2)
    hi = 0 if a >= b and a >= c else (1 if b >= c else 2)
    return (lo, hi)


def _extreme_words(values, l: int) -> tuple[str, ...]:
    """Boundary words of the two extreme corner children, () if constant."""
    return tuple(str(s) * l for s in extreme_pair(values))


class LevelSetNode:
    """One member triangle in the descendant tree.

    ``corners`` are the exact corner values as integers at the tree's
    scale for the word's length (``LevelSetTree.scale``); the measure is
    ``mu_num / mu_den``, with ``mu_den`` the common denominator of its
    level once ``fill_measure`` has run.  ``split`` is set when the node
    is expanded: the children's weights and their sum (``_split``).
    """

    __slots__ = ("word", "corners", "kappa_exp", "children", "split", "mu_num", "mu_den")

    def __init__(self, word: str, corners: tuple, kappa_exp: int):
        self.word = word
        self.corners = corners
        self.kappa_exp = kappa_exp
        self.children: list[LevelSetNode] = []
        self.split: tuple[tuple[int, ...], int] | None = None
        self.mu_num: int | None = None
        self.mu_den = 1

    @property
    def kappa(self) -> Fraction:
        return Fraction(1, 1 << self.kappa_exp)

    @property
    def mu(self) -> Fraction | None:
        return None if self.mu_num is None else Fraction(self.mu_num, self.mu_den)

    @mu.setter
    def mu(self, value) -> None:
        value = Fraction(value)
        self.mu_num, self.mu_den = value.numerator, value.denominator

    def __repr__(self):
        return f"LevelSetNode({self.word!r}, kappa=2^-{self.kappa_exp})"


class LevelSetTree:
    """Descendant tree of the root for a fixed function, level and l.

    The walk is exact and integer.  With D the common denominator of the
    function's word table (``int_word_table``), corner values at word
    length k are integers at scale D 2**max(0, k - L): at or above the
    function level L a node holds the table's own tuple, and each step
    below it maps corners v to v + v[s], since midpoint averaging halves
    the values and the scale doubles.  The level enters each depth only
    as q, rem = divmod(r.num D 2**max(0, k - L), r.den): a triple t meets
    it exactly when rem == 0 and q is in t, and lies around it exactly
    when min(t) <= q < max(t) once no corner is q.

    A member of word length at least L whose corners are (b, b, a) in
    some order, with the odd corner o carrying a, takes the digit step.
    A step into o maps the relative height h = (r - b)/(a - b) to 2h - 1
    and any other step to 2h, and o stays the odd corner, so a boundary
    word is a member exactly when its steps into o spell the next l
    binary digits k = floor(2**l h) of h.  Its children are the block
    ``_digit_blocks(l)[o][k]``, all with the corners b' = b 2**l + k(a - b)
    and a' = b' + (a - b), and its split is the block's.  Those children
    all share one corner tuple, so at one depth the members under one
    level-L ancestor carry the same triple; the step (the children's
    corners and the block) is computed once per run of parents holding
    the same tuple, and each parent of the run only builds its children.
    When 2**l h is an integer the level hits a vertex, and each node of
    the run falls back to the word loop, which tests every boundary word
    in order (the word's table triple above L, after any steps below L)
    and names the first colliding one.  Members above L, members whose
    children cross L and members with three distinct corners (possible
    only in functions that are not standard) take the word loop too,
    which computes the split from the children's kappa increments.
    """

    def __init__(self, fn: PiecewiseAffineFn, r, l: int = 1, depth: int = 0):
        if l < 1:
            raise ValueError(f"boundary family needs l >= 1, got l={l}")
        self.fn = fn
        self.r = _level_fraction(r)
        self.l = l
        self.depth = 0
        self._denom, self._table = fn.int_word_table()
        corners = self._table[""]
        q, rem = divmod(self.r.numerator * self._denom, self.r.denominator)
        if not rem and q in corners:
            raise LevelCollisionError(self.r, "")
        if min(corners) <= q < max(corners):
            self.root: LevelSetNode | None = LevelSetNode("", corners, 0)
        else:
            self.root = None
        self._levels: list[list[LevelSetNode]] = [[self.root] if self.root else []]
        self.mu_denominators: list[int] = []
        if depth:
            self.extend(depth)

    def scale(self, length: int) -> int:
        """The factor between corner values and the integer corners at a word length."""
        return self._denom << max(0, length - self.fn.level)

    def extend(self, depth: int) -> "LevelSetTree":
        """Expand the members down to ``depth``, all or nothing.

        On a ``LevelCollisionError`` the level being expanded is reset,
        so the tree is the one it was at its old depth and a retry raises
        on the same word.
        """
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        try:
            return self._extend(depth)
        except LevelCollisionError:
            for node in self._levels[self.depth]:
                node.children, node.split = [], None
            raise

    def _extend(self, depth: int) -> "LevelSetTree":
        fn_level, l, table = self.fn.level, self.l, self._table
        rden = self.r.denominator
        blocks = _digit_blocks(l)
        while self.depth < depth:
            length = (self.depth + 1) * l       # word length of the children
            # the level times r.den, at the children's scale
            level = self.r.numerator * self.scale(length)
            above = length - l < fn_level       # the parents are table entries
            below = min(l, max(0, length - fn_level))
            words = None                        # built when a node first needs the word loop
            nxt: list[LevelSetNode] = []
            parent_level = level >> l           # exact once the parents are at or below L
            q, rem = divmod(level, rden)
            run = step = None                   # the last parent's corners and digit step
            for node in self._levels[self.depth]:
                if node.corners is not run:
                    run, step = node.corners, None
                    split = None if above else odd_corner(run)
                    if split:
                        o, b, a = split
                        k, krem = divmod((parent_level - b * rden) << l, (a - b) * rden)
                        if krem:
                            b, a = (b << l) + k * (a - b), (b << l) + (k + 1) * (a - b)
                            step = ((a, b, b), (b, a, b), (b, b, a))[o], blocks[o][k]
                if step:
                    corners, (children, node.split) = step
                    word, exp = node.word, node.kappa_exp
                    node.children = [LevelSetNode(word + w, corners, exp + inc)
                                     for w, inc in children]
                    nxt.extend(node.children)
                    continue
                if words is None:
                    words = _word_steps(l, below)
                extreme_words = _extreme_words(node.corners, l)
                incs = []
                for w, steps in words:
                    word = node.word + w
                    vals = table[word[:fn_level]] if above else node.corners
                    for s in steps:
                        a = vals[s]
                        vals = (vals[0] + a, vals[1] + a, vals[2] + a)
                    if not rem and q in vals:
                        raise LevelCollisionError(self.r, word)
                    # past the collision test, min(vals) <= q: the lowest corner is below the level
                    if not (min(vals) <= q < max(vals)):
                        continue
                    inc = int(w not in extreme_words)
                    child = LevelSetNode(word, vals, node.kappa_exp + inc)
                    node.children.append(child)
                    nxt.append(child)
                    incs.append(inc)
                node.split = _split(incs)
            self._levels.append(nxt)
            self.depth += 1
        return self

    def nodes_at(self, level: int) -> list[LevelSetNode]:
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        if level > self.depth:
            self.extend(level)
        return self._levels[level]

    def find(self, word: str) -> LevelSetNode | None:
        if len(word) % self.l:
            raise ValueError(f"address length must be a multiple of l={self.l}")
        level = len(word) // self.l
        for node in self.nodes_at(level):
            if node.word == word:
                return node
        return None

    # -- conductivity measure ------------------------------------------

    def fill_measure(self, depth: int) -> "LevelSetTree":
        """Extend to ``depth`` and split unit mass down by conductivity.

        Children of a node take mass in proportion to the weights
        2**(e_max - e) that ``extend`` recorded in the node's split, over
        their sum S.  Numerators are integers over one denominator per
        level: the next level's is this one's times the lcm of the level's
        distinct S, kept in ``mu_denominators``, and a child of a node with
        numerator u gets u (lcm / S) times its weight.  A level's measure
        depends only on the levels above it, so a fill continues from the
        deepest level already filled and never redoes one.
        """
        self.extend(depth)
        if self.root is None:
            raise ValueError("the root is not a member; no measure to build")
        if not self.mu_denominators:
            self.root.mu_num, self.root.mu_den = 1, 1
            self.mu_denominators = [1]
        for level in range(len(self.mu_denominators) - 1, depth):
            nodes = self._levels[level]
            totals = {node.split[1] for node in nodes}
            if 0 in totals:
                word = next(node.word for node in nodes if not node.children)
                raise AssertionError(f"member {word!r} has no member children; "
                                     "the nesting invariant failed")
            lcm = math.lcm(*totals)
            den = self.mu_denominators[-1] * lcm
            for node in nodes:
                weights, total = node.split
                unit = node.mu_num * (lcm // total)
                for c, w in zip(node.children, weights):
                    c.mu_num, c.mu_den = unit * w, den
            self.mu_denominators.append(den)
        return self

    # -- derived checks -------------------------------------------------

    def conservation(self, word: str, k: int) -> "ConservationResult":
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        node = self.find(word)
        if node is None:
            raise ValueError(f"{word!r} is not a member descendant of the root")
        level = len(word) // self.l
        self.extend(level + k)
        frontier = [node]
        for _ in range(k):
            frontier = [c for n in frontier for c in n.children]
        lhs = _kappa_sum(n.kappa_exp for n in frontier)
        return ConservationResult(lhs=lhs, rhs=node.kappa, passed=lhs >= node.kappa)


@dataclass
class ConservationResult:
    lhs: Fraction
    rhs: Fraction
    passed: bool


def kappa_exponent(fn: PiecewiseAffineFn, word: str, l: int = 1) -> int:
    """Halving steps along the ancestor chain; membership-free.

    The exponent only depends on the function through the extreme
    labelings of the ancestors, so it is defined for every triangle of
    the subdivision family, member or not.
    """
    # Below the function level L every triangle is affine, and the
    # midpoint averaging v_i -> (v_i + v_s)/2 that yields a child's
    # corners keeps their order and their ties; so every triangle below
    # L has the extreme pair of its level-L ancestor, table[word[:L]].
    # A boundary word is a step of length l over at most two of the
    # symbols 0, 1 and 2 (``boundary_family``); scaling the table by D
    # keeps the extreme pairs.
    if l < 1:
        raise ValueError(f"boundary family needs l >= 1, got l={l}")
    if len(word) % l:
        raise ValueError(f"address length must be a multiple of l={l}")
    table = fn.int_word_table()[1]
    exp = 0
    for i in range(0, len(word), l):
        step = word[i: i + l]
        symbols = set(step)
        if len(symbols) > 2 or not symbols <= {"0", "1", "2"}:
            raise ValueError(f"{step!r} is not a boundary word at l={l}")
        exp += step not in _extreme_words(table[word[:min(i, fn.level)]], l)
    return exp


# ---------------------------------------------------------------------------
# census of well-conducting triangles
# ---------------------------------------------------------------------------

def census_constant(alpha: float, d1, l: int) -> float:
    """c = (e/d1)**d1 (3(2**l - 1))**d1 2**(1 - d1 - l alpha).

    With 2**l in place of 2**l - 1, c < 1 is exactly the feasibility
    inequality ``lcondition_lhs(alpha, d1) < l``.
    """
    d1 = float(d1)
    alpha = float(alpha)
    if not d1 > 0:
        raise ValueError(f"d1 must be positive, got {d1}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if l < 1:
        raise ValueError(f"boundary family needs l >= 1, got l={l}")
    return (math.e / d1) ** d1 * (3 * (2**l - 1)) ** d1 * 2.0 ** (1 - d1 - l * alpha)


@dataclass
class CensusResult:
    count: int
    binomial_bound: float
    image_measure: float
    threshold_exp: int
    passed: bool


def well_conducting_census(fn: PiecewiseAffineFn, r, n: int, l: int, d1, *,
                           alpha: float) -> CensusResult:
    """Count triangles with conductivity at least 2**(-n*d1).

    The count ranges over the whole subdivision family (conductivity
    does not depend on the level value; ``r`` is only validated).  The
    binomial bound is (e n/(n d1))**(n d1) (3(2**l-1))**(n d1) 2**(n-n d1)
    and the image-measure column is ``census_constant(alpha, d1, l)**n``.

    Below the function level L every triangle has the extreme pair of
    its level-L ancestor (see ``kappa_exponent``), so m further steps
    from a node with exponent e keep the exponent on the two extreme
    corner words and raise it on the other B - 2 = 3(2**l - 1) - 2: the
    node has sum_{j <= t - e} C(m, j) 2**(m-j) (B-2)**j descendants
    within the threshold t = n d1, or B**m (if e + m <= t) when it is
    constant.  When no triangle down to level L has three equal corners,
    every step has two extreme words, and the count does not depend on
    the function: sum_{j <= t} C(n, j) 2**(n-j) (B-2)**j, taken at once
    from the root with B from the formula.  Otherwise the triangles are
    enumerated down to level L first, on the integer word table, whose
    scaling by D keeps every extreme pair.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    d1 = Fraction(d1)
    if d1 <= 0:
        raise ValueError(f"d1 must be positive, got {d1}")
    t = n * d1
    if t.denominator != 1:
        raise ValueError(f"n*d1 = {t} is not an integer; n must be a multiple "
                         f"of {d1.denominator}")
    t = int(t)
    if r is not None:
        LevelValue.checked(r, fn)
    if l < 1:
        raise ValueError("boundary family needs l >= 1")
    table = fn.int_word_table()[1]
    b = 3 * ((1 << l) - 1)              # B = len(boundary_family(l))
    frontier = [("", 0)]                # (word, kappa exponent) within t
    top = 0                             # steps enumerated
    if any(v0 == v1 == v2 for v0, v1, v2 in table.values()):
        words = boundary_family(l)
        top = min(n, -(-fn.level // l))     # steps until the words reach level L
        for _ in range(top):
            nxt = []
            for word, exp in frontier:
                ext = _extreme_words(table[word], l)
                for w in words:
                    new_exp = exp + (w not in ext)
                    if new_exp <= t:
                        nxt.append((word + w, new_exp))
            frontier = nxt
    m = n - top
    # within[k]: the m-step descendants raising the exponent at most k times
    within = list(itertools.accumulate(math.comb(m, j) * 2 ** (m - j) * (b - 2) ** j
                                       for j in range(m + 1)))
    count = 0
    for word, exp in frontier:
        if extreme_pair(table[word[:fn.level]]):
            count += within[min(m, t - exp)]
        elif exp + m <= t:
            count += b**m

    if t == 0:
        binomial_bound = float(2**n)
    else:
        binomial_bound = ((math.e * n / t) ** t
                          * (3 * (2**l - 1)) ** t
                          * 2.0 ** (n - t))
    return CensusResult(
        count=count,
        binomial_bound=binomial_bound,
        image_measure=census_constant(alpha, d1, l)**n,
        threshold_exp=t,
        passed=count <= binomial_bound,
    )
