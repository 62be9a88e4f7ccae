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

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .paf import PiecewiseAffineFn
from .triangles import boundary_family, subdivision_addresses

_BOUNDARY_CACHE: dict[int, tuple[str, ...]] = {}


def _boundary_words(l: int) -> tuple[str, ...]:
    if l not in _BOUNDARY_CACHE:
        _BOUNDARY_CACHE[l] = boundary_family(l).addresses
    return _BOUNDARY_CACHE[l]


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
    and re-checked lazily on every triangle a computation touches.
    """

    r: Fraction

    @classmethod
    def checked(cls, r, fn: PiecewiseAffineFn) -> "LevelValue":
        r = Fraction(r)
        for point, v in fn.values.items():
            if v == r:
                raise LevelCollisionError(r, f"vertex {point.to_triples()}")
        return cls(r)


def _level_fraction(r) -> Fraction:
    """The exact level of a LevelValue or of anything Fraction accepts."""
    return r.r if isinstance(r, LevelValue) else Fraction(r)


@dataclass(frozen=True)
class ExtremeLabeling:
    """Designated extreme corners of a triangle.

    ``vmin``/``vmax`` are corner indices (0..2); ties collapse to the
    smallest index and are flagged; a constant triangle has no extreme
    corners at all.
    """

    vmin: int | None
    vmax: int | None
    low_tie_collapsed: bool
    high_tie_collapsed: bool

    @property
    def is_constant(self) -> bool:
        return self.vmin is None


def extreme_pair(values) -> tuple:
    """(vmin, vmax) corner indices, ties to the smallest; () if constant."""
    a, b, c = values
    if a == b == c:
        return ()
    lo = 0 if a <= b and a <= c else (1 if b <= c else 2)
    hi = 0 if a >= b and a >= c else (1 if b >= c else 2)
    return (lo, hi)


def extreme_labeling(values) -> ExtremeLabeling:
    q = tuple(values)
    pair = extreme_pair(q)
    if not pair:
        return ExtremeLabeling(None, None, False, False)
    lo, hi = pair
    return ExtremeLabeling(
        vmin=lo,
        vmax=hi,
        low_tie_collapsed=q.count(q[lo]) > 1,
        high_tie_collapsed=q.count(q[hi]) > 1,
    )


def _extreme_words(values, l: int) -> tuple[str, ...]:
    """Boundary words of the two extreme corner children, () if constant."""
    return tuple(str(s) * l for s in extreme_pair(values))


class LevelSetNode:
    """One member triangle in the descendant tree."""

    __slots__ = ("word", "values", "kappa_exp", "children", "mu")

    def __init__(self, word: str, values, kappa_exp: int):
        self.word = word
        self.values = values
        self.kappa_exp = kappa_exp
        self.children: list[LevelSetNode] = []
        self.mu: Fraction | None = None

    @property
    def kappa(self) -> Fraction:
        return Fraction(1, 1 << self.kappa_exp)

    def __repr__(self):
        return f"LevelSetNode({self.word!r}, kappa=2^-{self.kappa_exp})"


class LevelSetTree:
    """Descendant tree of the root for a fixed function, level and l."""

    def __init__(self, fn: PiecewiseAffineFn, r, l: int = 1, depth: int = 0):
        self.fn = fn
        self.r = _level_fraction(r)
        self.l = l
        self.depth = 0
        root_vals = fn.corner_values("")
        self._check_collision("", root_vals)
        if min(root_vals) < self.r < max(root_vals):
            self.root: LevelSetNode | None = LevelSetNode("", root_vals, 0)
        else:
            self.root = None
        self._levels: list[list[LevelSetNode]] = [[self.root] if self.root else []]
        if depth:
            self.extend(depth)

    def _check_collision(self, word: str, vals):
        for v in vals:
            if v == self.r:
                raise LevelCollisionError(self.r, word)

    def extend(self, depth: int) -> "LevelSetTree":
        while self.depth < depth:
            frontier = self._levels[self.depth]
            nxt: list[LevelSetNode] = []
            words = _boundary_words(self.l)
            for node in frontier:
                extreme_words = _extreme_words(node.values, self.l)
                for w in words:
                    vals = self.fn.descend(node.word, node.values, w)
                    self._check_collision(node.word + w, vals)
                    if not (min(vals) < self.r < max(vals)):
                        continue
                    exp = node.kappa_exp + (0 if w in extreme_words else 1)
                    child = LevelSetNode(node.word + w, vals, exp)
                    node.children.append(child)
                    nxt.append(child)
            self._levels.append(nxt)
            self.depth += 1
        return self

    def nodes_at(self, level: int) -> list[LevelSetNode]:
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
        """Extend to ``depth`` and split unit mass down by conductivity."""
        if self.root is None:
            raise ValueError("the root is not a member; no measure to build")
        self.extend(depth)
        self.root.mu = Fraction(1)
        for level in range(depth):
            for node in self.nodes_at(level):
                if not node.children:
                    raise AssertionError(
                        f"member {node.word!r} has no member children; "
                        "the nesting invariant failed"
                    )
                total = sum(c.kappa for c in node.children)
                for c in node.children:
                    c.mu = node.mu * c.kappa / total
        return self

    # -- derived checks -------------------------------------------------

    def conservation(self, word: str, k: int) -> "ConservationResult":
        node = self.find(word)
        if node is None:
            raise ValueError(f"{word!r} is not a member descendant of the root")
        level = len(word) // self.l
        self.extend(level + k)
        frontier = [node]
        for _ in range(k):
            frontier = [c for n in frontier for c in n.children]
        lhs = sum((n.kappa for n in frontier), Fraction(0))
        return ConservationResult(lhs=lhs, rhs=node.kappa, passed=lhs >= node.kappa)


@dataclass
class ConservationResult:
    lhs: Fraction
    rhs: Fraction
    passed: bool


@dataclass
class ApproxLevelSet:
    """Members of one level of the approximation, with attached weights."""

    r: Fraction
    n: int
    l: int
    members: dict[str, int]                      # word -> kappa exponent
    mu: dict[str, Fraction] = field(default_factory=dict)

    def kappa(self, word: str) -> Fraction:
        return Fraction(1, 1 << self.members[word])

    def kappa_sum(self) -> Fraction:
        return sum((Fraction(1, 1 << e) for e in self.members.values()), Fraction(0))

    def to_json(self) -> dict:
        members = [
            {
                "address": w,
                "kappa_exp": e,
                **({"mu": f"{self.mu[w].numerator}/{self.mu[w].denominator}"}
                   if w in self.mu else {}),
            }
            for w, e in sorted(self.members.items())
        ]
        return {
            "r": f"{self.r.numerator}/{self.r.denominator}",
            "n": self.n,
            "l": self.l,
            "members": members,
        }

    def csv_summary(self) -> str:
        """Rows (level, count, kappa_sum, max_kappa) for this one level."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["level", "count", "kappa_sum", "max_kappa"])
        max_kappa = (
            max((Fraction(1, 1 << e) for e in self.members.values()), default=Fraction(0))
        )
        writer.writerow([self.n, len(self.members), float(self.kappa_sum()),
                         float(max_kappa)])
        return buf.getvalue()


def approx_level_set(fn: PiecewiseAffineFn, r, n: int, l: int = 1,
                     method: str = "descendants",
                     tree: LevelSetTree | None = None) -> ApproxLevelSet:
    """The n-th approximation of the level set.

    ``descendants`` walks the member tree below the root (the object the
    conductivity measure lives on).  ``full`` enumerates the whole
    subdivision family and applies the membership test to every
    triangle, which also finds members whose parents are not members;
    feasible only while the family is small.
    """
    r = _level_fraction(r)
    if method == "descendants":
        t = tree if tree is not None else LevelSetTree(fn, r, l)
        t.extend(n)
        members = {node.word: node.kappa_exp for node in t.nodes_at(n)}
        mu = {
            node.word: node.mu
            for node in t.nodes_at(n)
            if node.mu is not None
        }
        return ApproxLevelSet(r=r, n=n, l=l, members=members, mu=mu)
    if method == "full":
        members: dict[str, int] = {}
        for word in subdivision_addresses(n, l, limit=300_000):
            vals = _corner_values_checked(fn, word, r)
            if min(vals) < r < max(vals):
                members[word] = kappa_exponent(fn, word, l)
        return ApproxLevelSet(r=r, n=n, l=l, members=members)
    raise ValueError(f"unknown method {method!r}")


def _corner_values_checked(fn: PiecewiseAffineFn, word: str, r: Fraction):
    vals = fn.corner_values(word)
    for v in vals:
        if v == r:
            raise LevelCollisionError(r, word)
    return vals


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
    if len(word) % l:
        raise ValueError(f"address length must be a multiple of l={l}")
    table = fn.word_table()
    exp = 0
    for i in range(0, len(word), l):
        step = word[i: i + l]
        if step not in _boundary_words(l):
            raise ValueError(f"{step!r} is not a boundary word at l={l}")
        exp += step not in _extreme_words(table[word[:min(i, fn.level)]], l)
    return exp


def conductivity(fn: PiecewiseAffineFn, r, word: str, l: int = 1) -> Fraction:
    """Conductivity of a member descendant; rejects non-descendants."""
    r = _level_fraction(r)
    tree = LevelSetTree(fn, r, l, depth=len(word) // l if word else 0)
    if word == "":
        if tree.root is None:
            raise ValueError("the root is not a member for this level value")
        return Fraction(1)
    node = tree.find(word)
    if node is None:
        raise ValueError(f"{word!r} is not a member descendant of the root")
    return node.kappa


def conservation_check(fn: PiecewiseAffineFn, r, word: str, k: int,
                       l: int = 1) -> ConservationResult:
    """Weak conservation below one member triangle, exact arithmetic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = _level_fraction(r)
    tree = LevelSetTree(fn, r, l, depth=len(word) // l)
    return tree.conservation(word, k)


def conductivity_measure(fn: PiecewiseAffineFn, r, n: int, l: int = 1,
                         tree: LevelSetTree | None = None) -> dict[str, Fraction]:
    """Mass assignment at depth n, proportional to conductivity.

    The root carries mass 1 and every split conserves it, so the values
    at each level sum to one; conservation makes each value at most the
    triangle's conductivity.
    """
    t = tree if tree is not None else LevelSetTree(fn, r, l)
    t.fill_measure(n)
    return {node.word: node.mu for node in t.nodes_at(n)}


# ---------------------------------------------------------------------------
# census of well-conducting triangles
# ---------------------------------------------------------------------------

def census_constant(alpha: float, d1, l: int, relaxed: bool = False) -> float:
    """c = (e/d1)**d1 (3(2**l - 1))**d1 2**(1 - d1 - l alpha).

    ``relaxed`` replaces 2**l - 1 by 2**l, the variant whose c < 1 is
    exactly equivalent to the feasibility inequality.
    """
    d1 = float(d1)
    alpha = float(alpha)
    branches = 3 * (2**l if relaxed else 2**l - 1)
    return (math.e / d1) ** d1 * branches**d1 * 2.0 ** (1 - d1 - l * alpha)


@dataclass
class CensusResult:
    count: int
    binomial_bound: float
    image_measure: float
    threshold_exp: int
    passed: bool


def well_conducting_census(fn: PiecewiseAffineFn, r, n: int, l: int, d1,
                           alpha: float | None = None) -> CensusResult:
    """Count triangles with conductivity at least 2**(-n*d1).

    The count ranges over the whole subdivision family (conductivity
    does not depend on the level value; ``r`` is only validated).  The
    binomial bound is (e n/(n d1))**(n d1) (3(2**l-1))**(n d1) 2**(n-n d1)
    and the image-measure column is ``census_constant(alpha, d1, l)**n``.

    Triangles are enumerated down to the function level L.  Below it
    every triangle has the extreme pair of its level-L ancestor (see
    ``kappa_exponent``), so m further steps from a node with exponent e
    keep the exponent on the two extreme corner words and raise it on
    the other B - 2 = 3(2**l - 1) - 2: the node has
    sum_{j <= t - e} C(m, j) 2**(m-j) (B-2)**j descendants within the
    threshold t = n d1, or B**m (if e + m <= t) when it is constant.
    When no triangle down to level L has three equal corners, every
    step has two extreme words, and the count does not depend on the
    function: sum_{j <= t} C(n, j) 2**(n-j) (B-2)**j.
    """
    d1 = Fraction(d1)
    t = n * d1
    if t.denominator != 1:
        raise ValueError(f"n*d1 = {t} is not an integer; n must be a multiple "
                         f"of {d1.denominator}")
    t = int(t)
    if r is not None:
        LevelValue.checked(r, fn)
    if alpha is None:
        if fn.holder is None:
            raise ValueError("alpha is needed for the image-measure column")
        alpha = fn.holder.alpha

    table = fn.word_table()
    words = _boundary_words(l)
    top = min(n, -(-fn.level // l))     # steps until the words reach level L
    frontier = [("", 0)]                # (word, kappa exponent) within t
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
    b = len(words)
    count = 0
    for word, exp in frontier:
        if extreme_pair(table[word[:fn.level]]):
            count += sum(math.comb(m, j) * 2 ** (m - j) * (b - 2) ** j
                         for j in range(min(m, t - exp) + 1))
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


def level_set_to_json(level_set: ApproxLevelSet) -> str:
    return json.dumps(level_set.to_json(), sort_keys=True)
