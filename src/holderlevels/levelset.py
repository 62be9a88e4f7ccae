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

import collections
import functools
import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .paf import PiecewiseAffineFn
from .runs import (_block_children, _block_sums, _block_word, _chain, _cut, _last_digits, _run_ks,
                   _run_weights, _split)
from .triangles import (_check_depth, _check_interval, _rational, boundary_family,
                        check_address, lattice_index_unchecked, lattice_point)


def _kappa_sum(counts: dict[int, int]) -> Fraction:
    """The exact sum of m 2**-e over {kappa exponent e: multiplicity m}.

    That is ``_split``'s weights, each times its multiplicity, over 2**top.
    """
    weights, _ = _split(counts)
    return Fraction(sum(map(operator.mul, counts.values(), weights)),
                    1 << max(counts, default=0))


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
    runs and the graft's corner labels both read this one rule.
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
        q, rem = divmod(r.numerator * fn._den, r.denominator)
        if rem:
            return cls(r)
        for (row, col), v in fn._numerators.items():
            if v == q:
                point = lattice_point(row, col, fn.level)
                raise LevelCollisionError(r, f"vertex {point.to_triples()}")
        return cls(r)


def _level_fraction(r) -> Fraction:
    """The exact level of a LevelValue or of anything finite that Fraction accepts."""
    return r.r if isinstance(r, LevelValue) else _rational("the level r", r)


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
    is expanded: the children's weights and their sum (``_split``).  Past
    the crossing depth c nodes are a view of the runs: the deepest level
    built, if above the tree's depth, holds its runs' next split, and the
    first read of its children builds the next level.
    """

    __slots__ = ("word", "corners", "kappa_exp", "_children", "split", "mu_num", "mu_den")

    def __init__(self, word: str, corners: tuple, kappa_exp: int):
        self.word = word
        self.corners = corners
        self.kappa_exp = kappa_exp
        # a list, or the tree's node builder, which sets the list when called
        self._children: list[LevelSetNode] | Callable[[], None] = []
        self.split: tuple[tuple[int, ...], int] | None = None
        self.mu_num: int | None = None
        self.mu_den = 1

    @property
    def children(self) -> list["LevelSetNode"]:
        if not isinstance(self._children, list):
            self._children()
        return self._children

    @children.setter
    def children(self, nodes: list["LevelSetNode"]) -> None:
        self._children = nodes

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

    Down to the crossing depth c = ceil(L / l), the first whose words
    reach L, the word loop tests every boundary word of every member in
    order (the word's table triple above L, after any steps below L),
    names the first colliding one, and builds the member nodes.  Above L
    a member is a table word, and the children it tests are the
    function's: they are computed once per function and l and read by
    every tree on it, whatever its level.  So is the split of each tuple
    of member increments the word loop finds, at any depth.

    Below c the tree keeps runs, not nodes.  A crossing member whose
    corners are (b, b, a) in some order, with the odd corner o carrying
    a, hands one relative height h = (r - b)/(a - b) to its whole
    subtree: a step into o maps h to 2h - 1 and any other step to 2h,
    and o stays the odd corner, so a boundary word is a member exactly
    when its steps into o spell the next l binary digits k = floor(2**l h)
    of h.  Every member of the run at one depth therefore has the children
    of the block of digit k, all with the corners b' = b 2**l + k(a - b)
    and a' = b' + (a - b), and the block's split.  A run is its crossing
    member, its (o, b, a) and one integer K whose digits are its k past c;
    ``runs`` holds the blocks and K's layout.  When a crossing member
    has three distinct corners (possible only in functions that are not
    standard) the word loop goes on below c too.

    Every reader past c reads K through ``_chains``: the fill, histograms
    and nodes walk its digits' blocks, the kappa sums read its zero and
    mixed digit counts (``runs._run_weights``), the node view arms a
    level from its last digits, and the mass check takes K itself
    (``_members``).  The nodes are a view built on demand,
    by ``nodes_at`` and ``find`` down to the level read and by a
    ``children`` read one level down; ``extend`` builds none.
    """

    def __init__(self, fn: PiecewiseAffineFn, r, l: int = 1, depth: int = 0):
        _check_depth("l", l, 1)
        self.fn = fn
        self.r = _level_fraction(r)
        self.l = l
        self.depth = 0
        self._crossing = -(-fn.level // l)
        self._denom, self._table = fn.int_word_table()
        # the boundary children of the table words, shared by every tree on fn with this l
        self._memo: dict[str, tuple] = fn._word_children.setdefault(l, {})
        corners = self._table[""]
        q, rem = divmod(self.r.numerator * self._denom, self.r.denominator)
        if not rem and q in corners:
            raise LevelCollisionError(self.r, "")
        if min(corners) <= q < max(corners):
            self.root: LevelSetNode | None = LevelSetNode("", corners, 0)
        else:
            self.root = None
        # node levels: every level down to c, and past it those a node read built
        self._levels: list[list[LevelSetNode]] = [[self.root] if self.root else []]
        # each run's (o, b, a) and K once the tree is past c; _ks is None only
        # for a three-valued crossing member, whose tree is nodes throughout
        self._runs: list[tuple[int, int, int] | None] = []
        self._ks: list[int] | None = []
        self.mu_denominators: list[int] = []
        self.extend(depth)

    def scale(self, length: int) -> int:
        """The factor between corner values and the integer corners at a word length."""
        return self._denom << max(0, length - self.fn.level)

    def extend(self, depth: int) -> "LevelSetTree":
        """Expand the members down to ``depth``, all or nothing.

        A level is computed in full before the tree takes it, so after a
        ``LevelCollisionError`` the tree is the one it was before that
        level and a retry raises on the same word.
        """
        _check_depth("depth", depth)
        return self._extend(depth)

    def _extend(self, depth: int) -> "LevelSetTree":
        c = self._crossing
        while self.depth < depth:
            if self.depth == c and self._ks == []:
                self._runs = [odd_corner(x.corners) for x in self._levels[c]]
                if not all(self._runs):
                    self._ks = None
            if self.depth < c or self._ks is None:
                length = (self.depth + 1) * self.l     # word length of the children
                parents = self._levels[self.depth]
                # the level times r.den, at the children's scale
                expanded = self._word_loop(((v.word, v.corners, v.kappa_exp) for v in parents),
                                           self.r.numerator * self.scale(length), length)
                nxt: list[LevelSetNode] = []
                for node, (children, split) in zip(parents, expanded):
                    node.children, node.split = children, split
                    nxt += children
                self._levels.append(nxt)
                self.depth += 1
            else:
                self._step_runs(depth - self.depth)
        return self

    def _word_loop(self, parents, level: int, length: int) -> list:
        """(member children, split) of each parent, from every boundary word in order.

        ``parents`` yields (word, corners, kappa exponent) at word length
        ``length - l``, and ``level`` is the level times r.den at the
        children's scale.  A parent above the function level is a table
        word, so its ``_boundary_children`` depend on the function and l
        alone: they are computed once and kept in the function's memo for
        every later tree.  The split of each tuple of member increments is
        kept with the function too, per l.  A child colliding with the
        level raises ``LevelCollisionError`` before any result is returned.
        """
        q, rem = divmod(level, self.r.denominator)
        memo = self._memo if length - self.l < self.fn.level else None
        splits = self.fn._word_splits.setdefault(self.l, {})
        expanded = []
        for prefix, corners, exp in parents:
            kids = None if memo is None else memo.get(prefix)
            if kids is None:
                kids = self._boundary_children(prefix, corners, length)
                if memo is not None:
                    memo[prefix] = kids
            children, incs = [], []
            for word, vals, lo, hi, inc in kids:
                if not rem and q in vals:
                    raise LevelCollisionError(self.r, word)
                # past the collision test, lo <= q: the lowest corner is below the level
                if lo <= q < hi:
                    children.append(LevelSetNode(word, vals, exp + inc))
                    incs.append(inc)
            key = tuple(incs)
            split = splits.get(key)
            if split is None:
                split = splits[key] = _split(key)
            expanded.append((children, split))
        return expanded

    def _boundary_children(self, prefix: str, corners: tuple, length: int) -> tuple:
        """(word, corners, min, max, kappa increment) of every boundary word below a parent.

        The parent is ``prefix`` with ``corners`` at word length ``length -
        l``.  A child's corners are the table triple of its first L symbols
        when the parent is above the function level L, or the parent's,
        after the steps of its symbols below L.  No level value enters.
        """
        fn_level, table = self.fn.level, self._table
        above = len(prefix) < fn_level
        extreme_words = _extreme_words(corners, self.l)
        kids = []
        for w, steps in _word_steps(self.l, min(self.l, max(0, length - fn_level))):
            word = prefix + w
            vals = table[word[:fn_level]] if above else corners
            for s in steps:
                a = vals[s]
                vals = (vals[0] + a, vals[1] + a, vals[2] + a)
            kids.append((word, vals, min(vals), max(vals), int(w not in extreme_words)))
        return tuple(kids)

    def _step_runs(self, m: int) -> None:
        """Take every run m depths down: its K gains m digits from one division (``_run_ks``).

        The tree takes the depths above the first j past c at which the
        level meets a vertex of a run, and names the first run colliding
        there: the children meeting the level are those whose steps into o
        spell k' - 1 or k', k' its digit at j, so the word is the smaller of
        the two spelled over o and m (``_block_word``) below the run's first
        member, itself spelled over o and m.
        """
        c, l = self._crossing, self.l
        n = self.depth - c + m
        ks, first, hit = _run_ks(self._runs, self.r.numerator * self.scale(c * l),
                                 self.r.denominator, l, n)
        if hit is not None:
            o, k = self._runs[hit][0], _cut(ks, l, n - first)[hit]      # K down to j
            word = self._levels[c][hit].word + min(_block_word(l * first, o, k - 1),
                                                   _block_word(l * first, o, k))
            ks, n = _cut(ks, l, n + 1 - first), first - 1
        if c + n > self.depth:
            deepest = len(self._levels) - 1 == self.depth     # built, and not yet armed
            self._ks, self.depth = ks, c + n
            if deepest:
                self._arm()
        if hit is not None:
            raise LevelCollisionError(self.r, word)

    def _chains(self, n: int):
        """(t, (member, its run's (o, b, a), K) of each depth-t member): the runs down to n.

        t is c while the tree keeps runs and n > c, and K is the member's
        run's n - t digits past c, the blocks of its depth-t + 1 to n
        members.  Otherwise t = n, which gives every member an empty chain,
        no run and K = 0.  The members come in ``nodes_at(t)`` order, and n
        is at most the tree's depth.
        """
        c = self._crossing
        if n > c and self._ks is not None:
            return c, zip(self._levels[c], self._runs, _cut(self._ks, self.l, self.depth - n))
        return n, ((v, None, 0) for v in self._levels[n])

    def _members(self, n: int):
        """(row, col, mu numerator, odd corner o, K) of each member of ``_chains(n)``.

        The measure is filled to n first.  (row, col) is the member's cell
        (``delta_lattice_index``); K's members lie on the line o fixes.  No
        node is built and no address past the member's parsed.
        """
        self.fill_measure(n)
        for x, run, k in self._chains(n)[1]:
            yield (*lattice_index_unchecked(x.word), x.mu_num, None if run is None else run[0], k)

    def _run_nodes(self, level: int):
        """Each run's nodes at ``level``, c or past it, in run order: those below its member."""
        if level == self._crossing:         # one node per run
            return ([x] for x in self._levels[level])
        width = self._crossing * self.l
        return (list(nodes) for _, nodes in
                itertools.groupby(self._levels[level], key=lambda v: v.word[:width]))

    def _arm(self) -> None:
        """Give the deepest node level, if above the tree's depth, its runs' next split.

        Its nodes take ``_expand_runs`` as the builder of their children,
        and each run's next digit is the last of its K one level down.
        """
        t = len(self._levels) - 1
        if t < self.depth:
            chains = list(self._chains(t + 1)[1])
            l, build = self.l, self._expand_runs
            digits = _last_digits([k for _, _, k in chains], l)
            for (_, (o, _, _), _), digit, nodes in zip(chains, digits, self._run_nodes(t)):
                split = _block_children(l, o, digit)[1]
                for v in nodes:
                    v._children, v.split = build, split

    def _expand_runs(self, level: int = 0) -> None:
        """Build the node levels below the deepest one built, down to ``level`` or one level.

        A run's nodes at one depth share the corners b, except b + d at the
        odd corner o, and their children in the block of its chain's digit k
        share b' = b 2**l + k d, except b' + d.  Each node takes the block's
        words and split, and the measure where it is filled.  The runs stay.
        """
        l = self.l
        top = len(self._levels) - 1
        bottom = max(level, top + 1)
        levels: list[list[LevelSetNode]] = [[] for _ in range(top, bottom)]
        for (_, (o, _, _), digits), parents in zip(self._chains(bottom)[1],
                                                   self._run_nodes(top)):
            b = parents[0].corners[o - 1]       # every corner but the odd one
            d = parents[0].corners[o] - b
            for nodes, (k, _, _) in zip(levels, _chain(digits, l, bottom - top)):
                b = (b << l) + k * d
                corners = ((b + d, b, b), (b, b + d, b), (b, b, b + d))[o]
                children, split = _block_children(l, o, k)
                for v in parents:
                    v._children = [LevelSetNode(v.word + w, corners, v.kappa_exp + inc)
                                   for w, inc in children]
                    v.split = split
                parents = [u for v in parents for u in v._children]
                nodes += parents
        self._levels += levels
        for t in range(top, min(len(self._levels), len(self.mu_denominators)) - 1):
            self._fill_level(t, self.mu_denominators[t + 1])
        self._arm()

    def nodes_at(self, level: int) -> list[LevelSetNode]:
        _check_depth("level", level)
        if level > self.depth:
            self.extend(level)
        if level >= len(self._levels):
            self._expand_runs(level)
        return self._levels[level]

    def find(self, word: str) -> LevelSetNode | None:
        check_address(word)
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
        numerator u gets u (lcm / S) times its weight.  Past c in a tree
        with runs the members of a run share their block, so the lcm is
        taken over the runs' block sums, and ``_fill_level`` writes the
        levels whose children have nodes; ``_expand_runs`` fills the
        levels it builds.  A level's measure depends only on the levels
        above it, so a fill continues from the deepest level already
        filled, never redoes one, and reads no run when ``depth`` is filled.
        """
        self.extend(depth)
        if self.root is None:
            raise ValueError(f"the root is not a member at level r = {self.r}: no measure to build")
        if not self.mu_denominators:
            self.root.mu_num, self.root.mu_den = 1, 1
            self.mu_denominators = [1]
        start = len(self.mu_denominators) - 1
        if start >= depth:
            return self
        t, chains = self._chains(depth)
        past = depth - max(start, t)        # the levels to fill from the runs' digits
        sums = iter(_block_sums([k for _, _, k in chains], self.l, past) if past > 0 else ())
        for level in range(start, depth):
            if level >= t:
                totals = next(sums)
            else:
                nodes = self._levels[level]
                totals = {node.split[1] for node in nodes}
                if 0 in totals:
                    word = next(node.word for node in nodes if not node.children)
                    raise AssertionError(f"member {word!r} has no member children; "
                                         "the nesting invariant failed")
            den = self.mu_denominators[-1] * math.lcm(*totals)
            if level + 1 < len(self._levels):       # the children have nodes
                self._fill_level(level, den)
            self.mu_denominators.append(den)
        return self

    def _fill_level(self, level: int, den: int) -> None:
        """Give the children of the depth-``level`` nodes their mu numerators over ``den``."""
        lcm = den // self.mu_denominators[level]
        for node in self._levels[level]:
            weights, total = node.split
            unit = node.mu_num * (lcm // total)
            for child, w in zip(node._children, weights):
                child.mu_num, child.mu_den = unit * w, den

    def histogram(self, n: int) -> dict[int, tuple[int, int]]:
        """{kappa exponent: (members, sum of their mu numerators)} at depth n.

        The measure is filled to n first, so the numerators are over
        ``mu_denominators[n]``; the exponents come in increasing order.
        """
        return self.histograms(n, first=n)[0]

    def histograms(self, n: int, first: int = 0) -> list[dict[int, tuple[int, int]]]:
        """``histogram(m)`` of each depth m from ``first`` to n, from one walk of ``_chains(n)``.

        Each run of ``_chains(n)`` is built into a histogram one block of
        its K's digits at a time: each exponent's members and mu pass to every child of
        the block, at the exponent plus the child's increment and with mu
        times lcm / S times the child's weight, and the run's histogram
        after each block adds to that depth's.  The chains start at their
        members' depth t; a depth from ``first`` to t - 1 is above the
        crossing depth, and its own ``_chains`` gives its members.
        """
        _check_depth("n", n)
        _check_depth("first", first)
        if first > n:
            raise ValueError(f"first must lie in 0..n={n}, got {first}")
        self.extend(n)
        hists: list[dict[int, tuple[int, int]]] = [{} for _ in range(first, n + 1)]
        if self.root is None:
            return hists

        def add(m: int, run: dict) -> None:
            if m >= first:
                hist = hists[m - first]
                for e, (count, mu) in run.items():
                    c0, m0 = hist.get(e, (0, 0))
                    hist[e] = (c0 + count, m0 + mu)

        self.fill_measure(n)
        dens = self.mu_denominators
        t, chains = self._chains(n)
        for x, _, k in chains:
            run = {x.kappa_exp: (1, x.mu_num)}
            add(t, run)
            for j, (_, total, spans) in enumerate(_chain(k, self.l, n - t) if n > t else (), t + 1):
                unit = dens[j] // dens[j - 1] // total
                steps = [(inc, len(lines), unit * w * len(lines)) for inc, w, lines in spans]
                nxt: dict[int, tuple[int, int]] = {}
                for e, (count, mu) in run.items():
                    for inc, size, factor in steps:
                        c0, m0 = nxt.get(e + inc, (0, 0))
                        nxt[e + inc] = (c0 + count * size, m0 + mu * factor)
                run = nxt
                add(j, run)
        for m in range(first, t):
            for x, _, _ in self._chains(m)[1]:
                add(m, {x.kappa_exp: (1, x.mu_num)})
        return [dict(sorted(hist.items())) for hist in hists]

    # -- derived checks -------------------------------------------------

    def conservation(self, word: str, k: int) -> "ConservationResult":
        """Sum of kappa over the depth-k descendants of ``word`` against its own kappa.

        The descendants are the members of ``_chains`` whose words extend
        ``word``.  Members with an empty chain are counted by their kappa
        exponent.  A run adds its crossing member's kappa times its
        chain's kappa sum (``runs._run_weights``, from the counts of its
        zero and mixed digits), or, for a word past c, the word's kappa
        times that sum over the run's last k digits, those below the word.
        """
        _check_depth("k", k)
        node = self.find(word)
        if node is None:
            raise ValueError(f"{word!r} is not a member descendant of the root")
        level = len(word) // self.l
        n = level + k
        self.extend(n)
        t, chains = self._chains(n)
        if t == n:
            members = self._levels[n]
            if word:
                members = [x for x in members if x.word.startswith(word)]
            counts = collections.Counter(map(operator.attrgetter("kappa_exp"), members))
        else:
            below = level > t       # the word lies past c, in one run
            runs = [(node if below else x, digits) for x, _, digits in chains
                    if (word.startswith(x.word) if below else x.word.startswith(word))]
            weights = _run_weights([digits for _, digits in runs], self.l, n - max(level, t))
            counts = collections.Counter()
            for (x, _), (exp, count) in zip(runs, weights):
                counts[x.kappa_exp + exp] += count
        lhs = _kappa_sum(counts)
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
    check_address(word)
    _check_depth("l", l, 1)
    if len(word) % l:
        raise ValueError(f"address length must be a multiple of l={l}")
    table = fn.int_word_table()[1]
    exp = 0
    for i in range(0, len(word), l):
        step = word[i: i + l]
        if len(set(step)) > 2:
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
    _check_interval("alpha", alpha, 0, 1, high_in=True)
    d1 = float(_rational("d1", d1))
    alpha = float(alpha)
    _check_interval("d1", d1, 0, math.inf)
    _check_depth("l", l, 1)
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
    _check_depth("n", n)
    _check_interval("alpha", alpha, 0, 1, high_in=True)
    d1 = _rational("d1", d1)
    _check_interval("d1", d1, 0, math.inf)
    t = n * d1
    if t.denominator != 1:
        raise ValueError(f"n*d1 = {t} is not an integer; n must be a multiple "
                         f"of {d1.denominator}")
    t = int(t)
    if r is not None:
        LevelValue.checked(r, fn)
    _check_depth("l", l, 1)
    table = fn.int_word_table()[1]
    b = 3 * ((1 << l) - 1)              # B = len(boundary_family(l))
    frontier = [("", 0)]                # (word, kappa exponent) within t
    top = 0                             # steps enumerated
    if fn._has_constant_triangle():
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
