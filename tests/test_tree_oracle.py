"""The integer level-set tree and measure against the exact Fraction walk.

The reference is the tree walk as it was written in ``Fraction``s: each
member descends every boundary word with ``descend`` (a table hit at
or above the function level, midpoint averages below it), tests the
word's corners against the level for a collision and then for
membership, and splits its measure among its member children by
conductivity, mu(child) = mu kappa(child) / sum of the children's kappa.

The second reference is the integer tree that built one node per member
at every depth: below the crossing depth each member took the digit
step itself, once per run of parents holding one corner tuple.  The
tree that keeps runs there, and builds nodes only when asked, must give
the same nodes, splits, measure and collision words in any access order.
"""

import itertools
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st
import pytest

from holderlevels import levelset, runs
from holderlevels.bounds import BoundSearchParams, mass_distribution_lower
from holderlevels.levelset import (
    ConservationResult,
    LevelCollisionError,
    LevelSetTree,
    _extreme_words,
    _word_steps,
    extreme_pair,
    odd_corner,
)
from holderlevels.paf import PiecewiseAffineFn, random_standard_paf
from holderlevels.runs import _block_cell, _block_children, _blocks, _split
from holderlevels.triangles import boundary_family, lattice_index_unchecked
from helpers import affine_from_corners, member_blocks, oracle_digit_blocks, point_values
from test_bounds import scatter_oracle
from test_floor import third_up
from test_kernel import corpus_fn, descend

F = Fraction


def oracle_levels(fn, r: Fraction, l: int, depth: int):
    """Levels of (word, kappa exponent, corner values, parent index) in walk order."""
    words = boundary_family(l)
    vals = fn.corner_values("")
    if r in vals:
        raise LevelCollisionError(r, "")
    levels = [[("", 0, vals, None)] if min(vals) < r < max(vals) else []]
    for _ in range(depth):
        nxt = []
        for i, (word, exp, vals, _) in enumerate(levels[-1]):
            extremes = tuple(str(s) * l for s in extreme_pair(vals))
            for w in words:
                cvals = descend(fn, word, vals, w)
                if r in cvals:
                    raise LevelCollisionError(r, word + w)
                if min(cvals) < r < max(cvals):
                    nxt.append((word + w, exp + (w not in extremes), cvals, i))
        levels.append(nxt)
    return levels


def formula_block(l: int, o: int, k: int) -> tuple:
    """(children, split, cells) of the block of digit k below odd corner o, from the closed form.

    The children, (word, kappa increment) in word order, and the split are
    ``_block_children``'s, whose increments and weights must be the spans'
    of ``_blocks``; the cells are each child's (row bits, col bits) from
    (l, o, k, line position).
    """
    digit, total, spans = _blocks(l)[k]
    children, split = _block_children(l, o, k)
    assert digit == k and split == (tuple(w for _, w, span in spans for _ in span), total)
    assert [inc for _, inc in children] == [inc for inc, _, span in spans for _ in span]
    return children, split, tuple(_block_cell(l, o, k, e) for _, _, span in spans for e in span)


def oracle_block(l: int, o: int, k: int) -> tuple:
    """(children, split, cells) of ``oracle_digit_blocks(l)[o][k]``, cells parsed from words."""
    children, split = oracle_digit_blocks(l)[o][k]
    return children, split, tuple(lattice_index_unchecked(w) for w, _ in children)


def test_digit_blocks_match_joined_digits():
    # every block at l <= 8: the closed form's words, increments, weights,
    # sum and cells against the blocks sorted out of every boundary word
    for l in range(1, 9):
        for o in range(3):
            for k in range(1 << l):
                assert formula_block(l, o, k) == oracle_block(l, o, k), (l, o, k)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=100, deadline=None)
def test_drawn_digit_blocks_match_joined_digits(l, o, data):
    k = data.draw(st.sampled_from([0, (1 << l) - 1]) | st.integers(0, (1 << l) - 1))
    assert formula_block(l, o, k) == oracle_block(l, o, k)


def oracle_measure(levels) -> list[list[Fraction]]:
    """mu per level, split by conductivity in Fraction arithmetic."""
    mus = [[F(1)]]
    for level in levels[1:]:
        totals: dict[int, Fraction] = {}
        for _, exp, _, parent in level:
            totals[parent] = totals.get(parent, F(0)) + F(1, 1 << exp)
        mus.append([mus[-1][parent] * F(1, 1 << exp) / totals[parent]
                    for _, exp, _, parent in level])
    return mus


def walk(build):
    """build() or the LevelCollisionError it raises."""
    try:
        return build()
    except LevelCollisionError as err:
        return err


def assert_tree_matches(fn, r, l: int, depth: int) -> None:
    """The tree to ``depth`` and its measure are the Fraction walk's, or both collide alike."""
    expected = walk(lambda: oracle_levels(fn, r, l, depth))
    tree = walk(lambda: LevelSetTree(fn, r, l, depth=depth))
    if isinstance(expected, LevelCollisionError):
        assert isinstance(tree, LevelCollisionError)
        assert (tree.r, tree.word) == (expected.r, expected.word)
        return
    if not expected[0]:
        assert tree.root is None
        return
    tree.fill_measure(depth)
    mus = oracle_measure(expected)
    for n, (want, want_mu) in enumerate(zip(expected, mus)):
        nodes = tree.nodes_at(n)
        assert [(v.word, v.kappa_exp) for v in nodes] == [(w, e) for w, e, _, _ in want]
        if n < depth:
            assert [[c.word for c in v.children] for v in nodes] == [
                [w for w, _, _, parent in expected[n + 1] if parent == i]
                for i in range(len(want))]
        assert [v.mu for v in nodes] == want_mu
        assert all(v.mu_den == tree.mu_denominators[n] for v in nodes)
        scale = tree.scale(n * l)
        for v, (_, _, vals, _) in zip(nodes, want):
            assert tuple(F(c, scale) for c in v.corners) == vals == fn.corner_values(v.word)
    lhs = sum((F(1, 1 << e) for _, e, _, _ in expected[depth]), F(0))
    assert tree.conservation("", depth).lhs == lhs


def draw_level(fn, data, k: int, min_word: int, max_word: int) -> Fraction:
    """A non-dyadic level inside the root's hull, or a corner value (a collision)."""
    if data.draw(st.booleans()):
        root = fn.corner_values("")
        return min(root) + (max(root) - min(root)) * F(k, 3 * 2**24)
    # a corner value: the walk collides if it reaches a triangle carrying it
    word = data.draw(st.text(alphabet="012", min_size=min_word, max_size=max_word))
    return fn.corner_values(word)[k % 3]


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=5),
       st.sampled_from([1, 2]), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=60, deadline=None)
def test_tree_matches_fraction_walk(seed, level, l, k, data):
    fn = corpus_fn(seed, level)
    depth = level + data.draw(st.integers(min_value=-1, max_value=4))
    assert_tree_matches(fn, draw_level(fn, data, k, 1, level + 4), l, depth)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 2, 3, 4]), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=80, deadline=None)
def test_digit_step_matches_fraction_walk(seed, level, l, k, data):
    # at least two digit blocks below the function level; seed 4 is an
    # affine function whose triangles keep three distinct corners, so its
    # members below the level take the word loop
    if seed < 4:
        fn = corpus_fn(seed, level)
    else:
        fn = affine_from_corners(F(0), F(1), F(3), level=level)
    depth = -(-level // l) + data.draw(st.integers(min_value=2, max_value=3 if l < 3 else 2))
    # a collision value is a corner below the level, met inside the tree or not at all
    assert_tree_matches(fn, draw_level(fn, data, k, level + 1, depth * l), l, depth)


def tree_fields(tree, depth: int) -> list:
    """Per level: each node's (word, kappa exponent, corners, split, children's words)."""
    return [[(v.word, v.kappa_exp, v.corners, v.split, [c.word for c in v.children])
             for v in tree.nodes_at(n)] for n in range(depth + 1)]


def extended_stepwise(fn, r, l: int, depth: int) -> LevelSetTree:
    tree = LevelSetTree(fn, r, l)
    for d in range(1, depth + 1):
        tree.extend(d)
    return tree


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=60, deadline=None)
def test_stepwise_extension_matches_one_shot(seed, level, l, k, data):
    # the digit step's per-run cache lives for one level of one call: a tree
    # grown one level per call is the tree grown at once, collisions included
    fn = corpus_fn(seed, level)
    depth = -(-level // l) + data.draw(st.integers(min_value=0, max_value=3 if l < 3 else 2))
    r = draw_level(fn, data, k, 1, depth * l)
    once = walk(lambda: LevelSetTree(fn, r, l, depth=depth))
    stepwise = walk(lambda: extended_stepwise(fn, r, l, depth))
    if isinstance(once, LevelCollisionError):
        assert isinstance(stepwise, LevelCollisionError)
        assert (stepwise.r, stepwise.word) == (once.r, once.word)
        return
    assert tree_fields(stepwise, depth) == tree_fields(once, depth)


def tree_state(tree) -> tuple:
    """The tree's depth, node levels, runs and measure, read without building a node."""
    return (tree.depth, [[(v.word, v.corners, v.kappa_exp, v.split, v.mu_num, v.mu_den)
                          for v in nodes] for nodes in tree._levels],
            tree._ks, tree.mu_denominators)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=4),
       st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_multi_depth_extend_stops_above_a_collision_on_the_runs(seed, level, l, j,
                                                                  smaller, data):
    # the level is a vertex value of a crossing triangle's run j >= 2 depths
    # below c: its height there is K / 2**(l j) with K not a multiple of 2**l.
    # One extend past it raises the word loop's word, keeps every level
    # above the collision and nothing of it, and raises again on a retry
    j = min(j, 3 if l < 3 else 2)
    fn = corpus_fn(seed, level)
    c = -(-level // l)
    runs = []
    for symbols in itertools.product("012", repeat=c * l):
        o, b, a = odd_corner(fn.corner_values("".join(symbols)))
        if (a < b) == smaller:
            runs.append((b, a))
    assume(runs)
    b, a = data.draw(st.sampled_from(runs))
    k = data.draw(st.integers(min_value=1, max_value=(1 << l * j) - 1)
                  .filter(lambda k: k % (1 << l)))
    r = b + (a - b) * F(k, 1 << l * j)
    expected = walk(lambda: oracle_node_levels(fn, r, l, c + j, cap=10**4))
    assume(isinstance(expected, LevelCollisionError) and len(expected.word) == (c + j) * l)
    tree = LevelSetTree(fn, r, l, depth=c)
    for _ in range(2):
        with pytest.raises(LevelCollisionError) as err:
            tree.extend(c + j + 2)
        assert (err.value.r, err.value.word) == (expected.r, expected.word)
        assert tree.depth == c + j - 1
        fresh = LevelSetTree(fn, r, l, depth=c + j - 1)
        assert tree_state(tree) == tree_state(fresh)
    assert tree_fields(tree, c + j - 1) == tree_fields(fresh, c + j - 1)


@pytest.mark.parametrize("l", [5, 6])
@pytest.mark.parametrize("o", range(3))
@pytest.mark.parametrize("top", [False, True])
def test_a_collision_on_digit_one_or_the_top_digit_names_the_oracles_word(l, o, top):
    # the level meets a vertex of the run below the first depth-1 boundary
    # word with odd corner o, two depths past c = 1, where its digit k' is 1
    # or 2**l - 1: the words meeting it spell k' - 1 or k' over o, so the
    # zero block's m**l or the ones block's o**l is a candidate, and the
    # first in word order must be the word the node oracle's word loop names
    fn = corpus_fn(0, 2)
    word = next(w for w in boundary_family(l)
                if (odd_corner(fn.corner_values(w)) or (None,))[0] == o)
    _, b, a = odd_corner(fn.corner_values(word))
    k = (1 << l) - 1 if top else 1
    r = b + (a - b) * F((5 << l) + k, 1 << 2 * l)       # the digits 5 and k'
    with pytest.raises(LevelCollisionError) as want:
        oracle_node_levels(fn, r, l, 3, cap=10**4)
    assert want.value.word.startswith(word) and len(want.value.word) == 3 * l
    tree = LevelSetTree(fn, r, l, depth=1)
    for _ in range(2):
        with pytest.raises(LevelCollisionError) as err:
            tree.extend(5)
        assert (err.value.r, err.value.word) == (want.value.r, want.value.word)
        assert tree_state(tree) == tree_state(LevelSetTree(fn, r, l, depth=2))


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=150, deadline=None)
def test_uneven_growth_matches_one_shot(seed, level, l, k, data):
    # a tree grown in drawn increments, several depths past c at once, is
    # the tree grown in one call in every reader, collisions included
    fn = corpus_fn(seed, level) if seed < 4 else nonstandard_fn(seed, level, k)
    c = -(-level // l)
    n = c + data.draw(st.integers(min_value=2, max_value=6 if l < 3 else 3))
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=3)))
    r = draw_level(fn, data, k, level, n * l)

    def grow():
        tree = LevelSetTree(fn, r, l)
        for depth in (*cuts, n):
            tree.extend(depth)
        return tree

    once = walk(lambda: LevelSetTree(fn, r, l, depth=n))
    uneven = walk(grow)
    if isinstance(once, LevelCollisionError):
        assert isinstance(uneven, LevelCollisionError)
        assert (uneven.r, uneven.word) == (once.r, once.word)
        return
    assert uneven.depth == n
    assert uneven.histograms(n, 0) == once.histograms(n, 0)
    if once.root is None:
        assert uneven.root is None
        return
    assert uneven.conservation("", n) == once.conservation("", n)
    assert list(uneven._members(n)) == list(once._members(n))
    uneven.nodes_at(n)
    fields = [node_fields(uneven.nodes_at(m)) for m in range(n + 1)]
    assert fields == [node_fields(once.nodes_at(m)) for m in range(n + 1)]
    levels = oracle_node_levels(fn, r, l, n)
    if len(levels) == n + 1:
        assert_nodes_match(uneven, levels, True)


def grid_denominator_levels(fn) -> list[Fraction]:
    """Means of neighbouring grid values inside the root's hull whose denominator divides D.

    Such a level lies strictly between two neighbouring vertex values, so
    it is none, yet at or above the function level it falls on the
    tree's integer lattice: the word loop's rem == 0 branch without a
    collision.
    """
    values = sorted(set(point_values(fn).values()))
    root = fn.corner_values("")
    return [m for m in ((a + b) / 2 for a, b in zip(values, values[1:]))
            if fn._den % m.denominator == 0 and min(root) < m < max(root)]


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=5),
       st.sampled_from([1, 2]), st.data())
@settings(max_examples=60, deadline=None)
def test_grid_denominator_level_matches_fraction_walk(seed, level, l, data):
    fn = corpus_fn(seed, level)
    levels = grid_denominator_levels(fn)
    assume(levels)
    r = data.draw(st.sampled_from(levels))
    assert r not in point_values(fn).values()
    assert_tree_matches(fn, r, l, data.draw(st.integers(min_value=1, max_value=level + 2)))


def lattice_level(fn, word: str, corner: int, delta: int) -> Fraction:
    """A corner value of ``word``, below L, moved by ``delta`` lattice steps of its length.

    Its denominator divides D 2**j, j = len(word) - L, so from word length
    L + j on the level is an integer at the tree's scale: rem == 0 at
    every such depth.  With delta = 0 the walk collides once it reaches a
    triangle carrying the value.
    """
    j = len(word) - fn.level
    return fn.corner_values(word)[corner] + F(delta, fn._den << j)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 2]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2), st.sampled_from([-1, 0, 1]), st.data())
@settings(max_examples=80, deadline=None)
def test_lattice_level_matches_fraction_walk(seed, level, l, j, corner, delta, data):
    # the level meets the integer corners' lattice below L: a collision
    # names the Fraction walk's first word, and a miss keeps its members
    fn = corpus_fn(seed, level)
    word = data.draw(st.text(alphabet="012", min_size=level + j, max_size=level + j))
    r = lattice_level(fn, word, corner, delta)
    assert_tree_matches(fn, r, l, -(-(level + j) // l) + 1)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.sampled_from([5, 7, 11]))
@settings(max_examples=60, deadline=None)
def test_corners_are_the_functions_own_integers(seed, level, l, k, p):
    # the level enters only the membership test: two levels of one function
    # give a word the same corners, and at or above L they are the word
    # table's own tuples
    fn = corpus_fn(seed, level)
    root = fn.corner_values("")
    r1 = min(root) + (max(root) - min(root)) * F(k, 3 * 2**24)
    r2 = r1 + (max(root) - min(root)) * F(1, p << 40)
    assume(r1.denominator != r2.denominator)
    depth = -(-level // l) + 1
    table = fn.int_word_table()[1]
    corners: dict = {}
    shared = 0
    for r in (r1, r2):
        tree = walk(lambda: LevelSetTree(fn, r, l, depth=depth))
        assume(not isinstance(tree, LevelCollisionError) and tree.root is not None)
        for n in range(depth + 1):
            for v in tree.nodes_at(n):
                if len(v.word) <= level:
                    assert v.corners is table[v.word]
                shared += v.word in corners
                assert corners.setdefault(v.word, v.corners) == v.corners
    assert shared       # the root at least


def test_grid_denominator_levels_reach_the_function_level():
    # above L the tree meets such a level exactly yet keeps members
    for seed, level in ((0, 3), (1, 4), (3, 5)):
        fn = corpus_fn(seed, level)
        levels = grid_denominator_levels(fn)
        assert levels
        for r in levels:
            tree = LevelSetTree(fn, r, 1, depth=level)
            assert tree.nodes_at(level)
            assert_tree_matches(fn, r, 1, level)


def test_dyadic_level_hits_a_vertex_value_below_the_function_level():
    fn = corpus_fn(1, 2)
    # a corner value two levels below L that is no vertex value at or
    # above it; the walk meets it first one level below L, on '100'
    r = fn.corner_values("1002")[2]
    assert r not in point_values(fn).values()
    assert r.denominator & (r.denominator - 1) == 0
    expected = walk(lambda: oracle_levels(fn, r, 1, 5))
    assert isinstance(expected, LevelCollisionError)
    assert expected.word == "100"
    with pytest.raises(LevelCollisionError) as err:
        LevelSetTree(fn, r, 1, depth=5)
    assert err.value.word == expected.word


def test_tree_argument_must_match_the_call():
    fn = corpus_fn(0, 3)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    r2 = min(root) + (max(root) - min(root)) * F(2, 3)
    one = LevelSetTree(fn, r, 1)
    params = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)
    mass_distribution_lower(fn, r, params, 1, tree=one)
    assert one.nodes_at(2)
    l2 = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=2)
    for args in ((corpus_fn(1, 3), r, params), (fn, r2, params), (fn, r, l2)):
        with pytest.raises(ValueError, match="another function"):
            mass_distribution_lower(*args, 1, tree=one)


def test_refills_keep_every_filled_level():
    # a fill continues from the deepest filled level; a shallower one leaves it be
    fn = corpus_fn(0, 2)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    tree = LevelSetTree(fn, r, 1, depth=12).fill_measure(12)
    once = [[v.mu for v in tree.nodes_at(n)] for n in range(13)]

    def filled(depth):
        assert len(tree.mu_denominators) == depth + 1
        for n in range(depth + 1):
            assert all(v.mu_den == tree.mu_denominators[n] for v in tree.nodes_at(n))

    mass_distribution_lower(fn, r, BoundSearchParams(alpha=1.0, d1=F(1, 4), l=1), 2,
                            tree=tree)
    filled(12)
    tree.fill_measure(5)
    filled(12)
    assert [[v.mu for v in tree.nodes_at(n)] for n in range(13)] == once
    tree.fill_measure(14)
    filled(14)
    fresh = LevelSetTree(fn, r, 1).fill_measure(14)
    assert [[v.mu for v in tree.nodes_at(n)] for n in range(15)] == [
        [v.mu for v in fresh.nodes_at(n)] for n in range(15)]
    assert tree.mu_denominators == fresh.mu_denominators


# -- the node-per-member tree -----------------------------------------

class OracleNode:
    __slots__ = ("word", "corners", "kappa_exp", "children", "split", "mu_num", "mu_den")

    def __init__(self, word: str, corners: tuple, kappa_exp: int):
        self.word, self.corners, self.kappa_exp = word, corners, kappa_exp
        self.children: list = []
        self.split = None
        self.mu_num, self.mu_den = None, 1


def oracle_node_levels(fn, r: Fraction, l: int, depth: int, cap: int = 400) -> list:
    """The node levels of the integer tree with the per-node digit step.

    This is the walk the tree took before it kept runs below the crossing
    depth.  Below L, a member with corners (b, b, a) takes the digit step:
    its children are ``oracle_digit_blocks(l)[o][k]`` with the corners
    b 2**l + k(a - b) and that plus a - b, computed once per run of
    parents holding the same corner tuple; a dyadic 2**l h, members above
    L and members with three distinct corners take the word loop.  The
    walk stops early once a level has more than ``cap`` members.
    """
    denom, table = fn.int_word_table()
    fn_level, rden = fn.level, r.denominator
    corners = table[""]
    q, rem = divmod(r.numerator * denom, rden)
    if not rem and q in corners:
        raise LevelCollisionError(r, "")
    levels = [[OracleNode("", corners, 0)] if min(corners) <= q < max(corners) else []]
    blocks = oracle_digit_blocks(l)
    for d in range(depth):
        if len(levels[-1]) > cap:
            break
        length = (d + 1) * l
        level = r.numerator * (denom << max(0, length - fn_level))
        above = length - l < fn_level
        words = _word_steps(l, min(l, max(0, length - fn_level)))
        parent_level = level >> l
        q, rem = divmod(level, rden)
        nxt = []
        run = step = None
        for node in levels[-1]:
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
                child_corners, (children, node.split) = step
                node.children = [OracleNode(node.word + w, child_corners, node.kappa_exp + inc)
                                 for w, inc in children]
                nxt.extend(node.children)
                continue
            extremes = _extreme_words(node.corners, l)
            incs = []
            for w, steps in words:
                word = node.word + w
                vals = table[word[:fn_level]] if above else node.corners
                for s in steps:
                    a = vals[s]
                    vals = (vals[0] + a, vals[1] + a, vals[2] + a)
                if not rem and q in vals:
                    raise LevelCollisionError(r, word)
                if not (min(vals) <= q < max(vals)):
                    continue
                inc = int(w not in extremes)
                node.children.append(OracleNode(word, vals, node.kappa_exp + inc))
                incs.append(inc)
            nxt.extend(node.children)
            node.split = _split(incs)
        levels.append(nxt)
    if levels[0]:
        levels[0][0].mu_num = 1
        for n, nodes in enumerate(levels[:-1]):
            lcm = math.lcm(*(node.split[1] for node in nodes))
            den = levels[n][0].mu_den * lcm
            for node in nodes:
                weights, total = node.split
                for child, w in zip(node.children, weights):
                    child.mu_num, child.mu_den = node.mu_num * (lcm // total) * w, den
    return levels


def node_fields(nodes) -> list:
    return [(v.word, v.corners, v.kappa_exp, v.split, [c.word for c in v.children],
             v.mu_num, v.mu_den) for v in nodes]


def assert_nodes_match(tree, levels, filled: bool) -> None:
    """Every level's nodes, splits, children and measure are the oracle's."""
    depth = len(levels) - 1
    assert tree.depth == depth
    for n, want in enumerate(levels):
        got = node_fields(tree.nodes_at(n))
        want = node_fields(want)
        if n == depth:          # the oracle's last level is not expanded
            got = [g[:3] + (None, []) + g[5:] for g in got]
        if not filled:
            want = [w[:5] + (None, 1) for w in want]
        assert got == want, n


def assert_readers_match(tree, levels, top: int) -> None:
    """Members, histograms and kappa sums read from the runs are the oracle's.

    Kappa sums are checked below members down to depth ``top``.
    """
    depth = len(levels) - 1
    tree.fill_measure(depth)
    assert tree.mu_denominators == [nodes[0].mu_den for nodes in levels]
    l = tree.l
    hists = []
    for n, nodes in enumerate(levels):
        members = []
        for row, col, mu, _, blocks in member_blocks(tree, n):
            run = [(row, col, mu)]
            for block in blocks:
                run = [(i << l | bi, j << l | bj, m * f) for i, j, m in run for bi, bj, f in block]
            members += run
        assert members == [(*lattice_index_unchecked(v.word), v.mu_num) for v in nodes]
        hist: dict = {}
        for v in nodes:
            count, mu = hist.get(v.kappa_exp, (0, 0))
            hist[v.kappa_exp] = (count + 1, mu + v.mu_num)
        hists.append(dict(sorted(hist.items())))
        assert tree.histogram(n) == hists[-1]
    # every depth's histogram from one walk, from the root or from partway down
    assert tree.histograms(depth) == hists
    assert tree.histograms(depth, depth // 2) == hists[depth // 2:]
    for n, nodes in enumerate(levels[:top + 1]):
        for v in nodes[:3]:
            lhs = sum((F(1, 1 << d.kappa_exp) for d in levels[depth]
                       if d.word.startswith(v.word)), F(0))
            assert tree.conservation(v.word, depth - n).lhs == lhs


def nonstandard_fn(seed: int, level: int, bits: int):
    """A corpus function with the vertices marked by ``bits`` moved off their ties.

    Vertex i moves by (i + 1) / (3 2**60) when bit i is set, so a level-L
    triangle with a moved vertex in its tied pair has three distinct
    corners and the function is not standard; the others keep two values.
    """
    fn = corpus_fn(seed, level)
    grid = dict(fn.grid)
    for i, p in enumerate(sorted(grid)):
        grid[p] += F((bits >> i) & 1 and i + 1, 3 << 60)
    return PiecewiseAffineFn(level, grid)


def oracle_case(data, seed: int, level: int, l: int, k: int):
    """(fn, r, depth, the oracle's levels or its collision) of a drawn case.

    The oracle stops early once a level grows past its cap.
    """
    fn = corpus_fn(seed, level) if seed < 4 else nonstandard_fn(seed, level, k)
    c = -(-level // l)
    depth = c + data.draw(st.integers(min_value=0, max_value=3))
    r = draw_level(fn, data, k, level, depth * l)
    return fn, r, depth, walk(lambda: oracle_node_levels(fn, r, l, depth))


ORDERS = ("deepest first", "children first", "fill then nodes", "nodes then fill",
          "extend after build", "fill partway")


def grown(fn, r, l: int, depth: int, order: str) -> tuple:
    """The tree to ``depth`` reached in one access order, and whether it was filled."""
    c = -(-fn.level // l)
    if order == "extend after build":
        tree = LevelSetTree(fn, r, l, depth=max(0, depth - 1))
        tree.nodes_at(tree.depth)
        tree.extend(depth)
        return tree, False
    tree = LevelSetTree(fn, r, l, depth=depth)
    if order == "deepest first":
        tree.nodes_at(depth)
    elif order == "children first" and depth >= c:
        for x in tree.nodes_at(c):
            assert isinstance(x.children, list)
    elif order == "fill then nodes":
        tree.fill_measure(depth)
    elif order == "nodes then fill":
        tree.nodes_at(depth)
        tree.fill_measure(depth)
    elif order == "fill partway":
        tree.fill_measure(depth // 2)
        tree.nodes_at(depth)
        tree.fill_measure(depth)
    return tree, order != "deepest first" and "fill" in order


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.sampled_from(ORDERS), st.data())
@settings(max_examples=300, deadline=None)
def test_runs_match_the_node_per_member_tree(seed, level, l, k, order, data):
    # seed 4 is a corpus function with one vertex off its tie: a crossing
    # member with three distinct corners keeps the word loop below c
    fn, r, depth, levels = oracle_case(data, seed, level, l, k)
    if isinstance(levels, LevelCollisionError):
        err = walk(lambda: LevelSetTree(fn, r, l, depth=depth))
        assert isinstance(err, LevelCollisionError)
        assert (err.r, err.word) == (levels.r, levels.word)
        # one level short of the collision, grown in the drawn order: extend
        # raises on the same word and leaves the tree as it was
        short = len(err.word) // l - 1
        assume(short >= 0)
        tree = grown(fn, r, l, short, order)[0]
        fresh = grown(fn, r, l, short, order)[0]
        for _ in range(2):
            with pytest.raises(LevelCollisionError) as again:
                tree.extend(short + 1)
            assert again.value.word == err.word
            assert tree.depth == short
            assert [node_fields(tree.nodes_at(n)) for n in range(short + 1)] == [
                node_fields(fresh.nodes_at(n)) for n in range(short + 1)]
        return
    assume(levels[0])
    depth = len(levels) - 1
    tree, filled = grown(fn, r, l, depth, order)
    assert_nodes_match(tree, levels, filled)
    assert_readers_match(tree, levels, depth)
    if not filled:
        assert_nodes_match(tree, levels, True)      # the built nodes took the fill


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=60, deadline=None)
def test_readers_match_before_any_node_is_built(seed, level, l, k, data):
    fn, r, _, levels = oracle_case(data, seed, level, l, k)
    assume(not isinstance(levels, LevelCollisionError) and levels[0])
    c = -(-level // l)
    tree = LevelSetTree(fn, r, l, depth=len(levels) - 1)
    assert_readers_match(tree, levels, c)
    if seed < 4:        # standard: no node below c yet
        assert len(tree._levels) == min(len(levels), c + 1)
    assert_nodes_match(tree, levels, True)


def test_a_three_valued_crossing_member_keeps_the_word_loop():
    fn = nonstandard_fn(0, 2, -1)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    levels = oracle_node_levels(fn, r, 1, 6)
    tree = LevelSetTree(fn, r, 1, depth=6)
    assert any(odd_corner(x.corners) is None for x in tree.nodes_at(2))
    assert tree._ks is None and len(tree._levels) == 7
    assert_nodes_match(tree, levels, False)
    assert_readers_match(tree, levels, 6)


def oracle_conservation(levels, word: str, kappa_exp: int, n: int) -> ConservationResult:
    """The kappa sum over the oracle's depth-n members below ``word``, against its kappa."""
    lhs = sum((F(1, 1 << v.kappa_exp) for v in levels[n] if v.word.startswith(word)), F(0))
    rhs = F(1, 1 << kappa_exp)
    return ConservationResult(lhs=lhs, rhs=rhs, passed=lhs >= rhs)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=150, deadline=None)
def test_conservation_is_the_node_oracles_kappa_sum(seed, level, l, k, data):
    # the word is drawn at the crossing depth c or past it half the time,
    # at any depth otherwise, on a tree grown to a drawn depth first; seed 4
    # may have a three-valued crossing member, whose tree is nodes throughout
    fn, r, _, levels = oracle_case(data, seed, level, l, k)
    assume(not isinstance(levels, LevelCollisionError) and levels[0])
    depth = len(levels) - 1
    c = -(-level // l)
    n = data.draw(st.one_of(st.integers(min_value=min(c, depth), max_value=depth),
                            st.integers(min_value=0, max_value=depth)))
    assume(levels[n])
    v = data.draw(st.sampled_from(levels[n]))
    m = data.draw(st.integers(min_value=0, max_value=depth - n))
    tree = LevelSetTree(fn, r, l, depth=data.draw(st.integers(min_value=0, max_value=depth)))
    assert tree.conservation(v.word, m) == oracle_conservation(levels, v.word, v.kappa_exp, n + m)


@pytest.mark.parametrize("seed, l", [(0, 1), (0, 2), (2, 1), (1, 3)])
def test_conservation_at_and_past_the_crossing_is_the_oracles(seed, l):
    # every member at every depth of a standard tree with runs below c = 2
    # or 1, and of a tree whose crossing member has three distinct corners
    for fn in (corpus_fn(seed, 2), nonstandard_fn(seed, 2, -1)):
        root = fn.corner_values("")
        r = min(root) + (max(root) - min(root)) * F(1, 3)
        levels = oracle_node_levels(fn, r, l, 6 if l == 1 else 4)
        depth = len(levels) - 1
        tree = LevelSetTree(fn, r, l, depth=depth)
        assert (tree._ks is None) == any(odd_corner(x.corners) is None
                                         for x in tree.nodes_at(-(-2 // l)))
        for n, nodes in enumerate(levels):
            for v in nodes:
                for m in range(depth - n + 1):
                    assert tree.conservation(v.word, m) == oracle_conservation(
                        levels, v.word, v.kappa_exp, n + m), (n, v.word, m)


@pytest.mark.parametrize("corners", [(0, 0, 1), (0, 1, 3)])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_a_level_zero_root_is_the_crossing_member(corners, l):
    # with L = 0 the crossing depth is 0: the root starts the one run, or
    # keeps the word loop when its corners are three distinct values
    fn = affine_from_corners(*map(F, corners), level=0)
    levels = oracle_node_levels(fn, F(1, 3), l, 4)
    # before any node past c is read; reading one drops the runs
    tree = LevelSetTree(fn, F(1, 3), l, depth=4).fill_measure(4)
    assert (tree._ks is None) == (len(set(corners)) == 3)
    for order in ORDERS:
        tree, filled = grown(fn, F(1, 3), l, 4, order)
        assert_nodes_match(tree, levels, filled)
        assert_readers_match(tree, levels, 4)


def assert_run_heights(tree) -> None:
    """Past c each run's K is floor(2**(l n) h): its height h's digits at every depth, n of them.

    h = (r - b)/(a - b) is read in Fractions from its crossing member's
    corner values; before the tree passes c it keeps no K.
    """
    c, l = tree._crossing, tree.l
    runs = tree._levels[c] if tree.depth > c else []
    assert tree._ks == [math.floor((tree.r - b) / (a - b) * 2 ** (l * (tree.depth - c)))
                        for _, b, a in (odd_corner(tree.fn.corner_values(x.word)) for x in runs)]


def assert_runs_or_nodes(tree, read: int) -> None:
    """Past c the tree keeps each run's digits at every depth, and nodes down to ``read`` alone.

    ``read`` is the deepest level whose nodes were built, 0 if none past c was.
    """
    assert_run_heights(tree)
    assert len(tree._levels) == max(min(tree.depth, tree._crossing), read) + 1


# the deepest level each access order of ``grown`` builds on a tree to depth 7
READ_IN_ORDER = {"deepest first": 7, "children first": 4, "fill then nodes": 0,
                 "nodes then fill": 7, "extend after build": 6, "fill partway": 7}


@pytest.mark.parametrize("order", ORDERS)
def test_the_tree_holds_runs_or_nodes_below_the_crossing(order):
    # a level-3 standard function, so c = 3 and every crossing member starts
    # a run; a node read past c builds the levels down to the level read
    # (a crossing member's children, the next one) and keeps the runs, and
    # later extends and fills build no node
    fn = random_standard_paf(7001, 3, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    tree, _ = grown(fn, r, 1, 7, order)
    assert_runs_or_nodes(tree, READ_IN_ORDER[order])
    tree.histogram(7)
    tree.conservation("", 7)
    assert_runs_or_nodes(tree, READ_IN_ORDER[order])
    crossing = tree.nodes_at(3)
    tree.nodes_at(5)
    assert_runs_or_nodes(tree, max(5, READ_IN_ORDER[order]))
    tree.nodes_at(7)
    assert_runs_or_nodes(tree, 7)
    tree.fill_measure(8)
    assert_runs_or_nodes(tree, 7)
    tree.nodes_at(8)
    assert_runs_or_nodes(tree, 8)
    # the members of one run at one depth share one corner tuple
    for n in range(4, 9):
        for x in crossing:
            run = [v for v in tree.nodes_at(n) if v.word.startswith(x.word)]
            assert run and all(v.corners is run[0].corners for v in run), (n, x.word)


def test_a_node_read_builds_no_level_below_the_one_read():
    # 12 nodes at depth 2 of a tree to depth 12 at l = 6: building every
    # level down to the tree's depth made 320,125 nodes (0.5 s, 112 MB)
    fn, r = third_up(7, 3)
    tree = LevelSetTree(fn, r, 6, 12)
    assert len(tree.nodes_at(2)) == 12
    assert len(tree._levels) == 3 and sum(map(len, tree._levels)) == 19
    assert_run_heights(tree)


class ArmCountingTree(LevelSetTree):
    """A LevelSetTree that records the deepest built level at every ``_arm``."""

    def __init__(self, *args):
        self.armed: list[int] = []
        super().__init__(*args)

    def _arm(self) -> None:
        self.armed.append(len(self._levels) - 1)
        super()._arm()


def test_a_level_takes_its_runs_next_split_once():
    # the deepest level built is armed when the tree first grows past it
    # or a node read builds it; an extend below it leaves its nodes alone,
    # which once cost a walk of every node there per extend
    fn, r = third_up(7, 3)
    tree = ArmCountingTree(fn, r, 6, 12)
    assert tree.armed == [1]
    tree.nodes_at(7)
    assert tree.armed == [1, 7]
    for depth in range(13, 30):
        tree.extend(depth)
    assert tree.armed == [1, 7]
    fresh = LevelSetTree(fn, r, 6, 29)
    assert [v.word for v in tree.nodes_at(9)] == [v.word for v in fresh.nodes_at(9)]
    assert_run_heights(tree)


class FillCountingTree(LevelSetTree):
    """A LevelSetTree that records every level whose children take the measure."""

    def __init__(self, *args):
        self.filled: list[int] = []
        super().__init__(*args)

    def _fill_level(self, level: int, den: int) -> None:
        self.filled.append(level)
        super()._fill_level(level, den)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=50, deadline=None)
def test_nodes_read_past_the_crossing_stay_a_view_of_the_runs(seed, level, l, k, data):
    # nodes read at a depth d past c, several depths taken in one extend,
    # then read again: each read builds from the deepest level with nodes,
    # whose nodes took their run's split and node builder when the tree
    # grew past them; extends and fills build no node, and no level takes
    # the measure twice.  Every reader matches a fresh tree and the oracle
    fn = corpus_fn(seed, level)
    c = -(-level // l)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(k, 3 * 2**24)
    levels = walk(lambda: oracle_node_levels(fn, r, l, c + (7 if l == 1 else 5)))
    assume(not isinstance(levels, LevelCollisionError) and levels[0] and len(levels) > c + 3)
    depth = len(levels) - 1
    fresh = LevelSetTree(fn, r, l, depth)
    d = data.draw(st.integers(min_value=c + 1, max_value=depth - 2))
    cuts = data.draw(st.sets(st.integers(min_value=d + 2, max_value=depth - 1), max_size=2)
                     if d + 2 < depth else st.just(set()))
    tree = FillCountingTree(fn, r, l)
    tree.nodes_at(d)
    read = d
    for target in (*sorted(cuts), depth):
        tree.extend(target)
        if data.draw(st.booleans()):
            assert tree.histograms(target) == fresh.histograms(target)
        assert len(tree._levels) == read + 1 and tree.depth == target
        assert_run_heights(tree)
        # the nodes at the depth read first: their split, then their children
        for n in range(read, target + 1):
            want = [w[:5] for w in node_fields(levels[n])]
            if n == target:
                want = [w[:3] + (None, []) for w in want]
            assert [g[:5] for g in node_fields(tree.nodes_at(n))] == want, n
        tree.fill_measure(target)
        for n in range(target + 1):
            assert [g[5:] for g in node_fields(tree.nodes_at(n))] == [
                w[5:] for w in node_fields(levels[n])], n
        read = target
    assert len(tree.filled) == len(set(tree.filled))
    assert_nodes_match(tree, levels, True)
    assert_readers_match(tree, levels, depth)
    assert list(tree._members(depth)) == list(fresh._members(depth))
    # every record has a chain from c: an odd corner and K of depth - c digits
    assert all(o is not None and k >> tree.l * (depth - c) == 0
               for *_, o, k in tree._members(depth))
    assert tree.histograms(depth) == fresh.histograms(depth)
    word = data.draw(st.sampled_from([v.word for v in levels[d]]))
    assert tree.conservation(word, depth - d) == fresh.conservation(word, depth - d)
    params = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=l)
    report = mass_distribution_lower(fn, r, params, depth // 2, tree=tree)
    assert report == mass_distribution_lower(fn, r, params, depth // 2, tree=fresh)
    assert report == scatter_oracle(fn, r, params, depth // 2)


@pytest.mark.parametrize("order", ORDERS)
def test_a_standard_tree_takes_no_word_loop_or_extend_node_below_the_crossing(monkeypatch,
                                                                              order):
    # whatever is read first, the word loop stops at c = 3, and every node
    # past c comes from a node read, none from extend
    loops: list[int] = []
    made_in_extend: list[int] = []
    extending: list[int] = []
    word_loop, extend, node = LevelSetTree._word_loop, LevelSetTree.extend, levelset.LevelSetNode

    def counted_loop(self, parents, level: int, length: int) -> list:
        loops.append(length)
        return word_loop(self, parents, level, length)

    def counted_extend(self, depth: int):
        extending.append(depth)
        try:
            return extend(self, depth)
        finally:
            extending.pop()

    def counted_node(word: str, corners: tuple, kappa_exp: int):
        if extending:
            made_in_extend.append(len(word))
        return node(word, corners, kappa_exp)

    monkeypatch.setattr(LevelSetTree, "_word_loop", counted_loop)
    monkeypatch.setattr(LevelSetTree, "extend", counted_extend)
    monkeypatch.setattr(levelset, "LevelSetNode", counted_node)
    fn = random_standard_paf(7001, 3, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    tree, _ = grown(fn, r, 1, 7, order)
    tree.extend(9)
    tree.histograms(9)
    tree.nodes_at(8)
    tree.fill_measure(11)
    tree.conservation(tree.nodes_at(5)[0].word, 6)
    tree.nodes_at(11)
    assert max(loops) == max(made_in_extend) == 3
    assert len(tree._levels) == 12 and tree.depth == 11
    assert_run_heights(tree)


# -- the function's memo of table children -----------------------------

def fresh(fn) -> PiecewiseAffineFn:
    """The same function with nothing derived yet: no word table and an empty memo."""
    return PiecewiseAffineFn(fn.level, dict(fn.grid))


def expanded_table_words(tree) -> set:
    """The words above the function level that the tree expanded: those of depth < min(depth, c)."""
    return {v.word for n in range(min(tree.depth, tree._crossing)) for v in tree.nodes_at(n)}


def grown_fields(fn, r, l: int, depth: int, order: str):
    """Every level's node fields of the tree grown in ``order``, or its collision."""
    def build():
        tree, _ = grown(fn, r, l, depth, order)
        return [node_fields(tree.nodes_at(n)) for n in range(depth + 1)]
    return walk(build)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=1, max_value=3 * 2**24 - 1), min_size=2, max_size=5),
       st.data())
@settings(max_examples=60, deadline=None)
def test_trees_sharing_the_memo_match_the_oracle_and_a_fresh_function(seed, level, l, ks, data):
    # several level values on one function, in a drawn order, to drawn
    # depths and access orders: each tree reads the table children the
    # earlier ones left in the memo, and must be the node-per-member
    # oracle's and the tree of a function whose memo is empty, collisions
    # included.  Seed 4 is not standard: a crossing member with three
    # distinct corners keeps the word loop below c.
    base = corpus_fn(seed, level) if seed < 4 else nonstandard_fn(seed, level, ks[0])
    fn = fresh(base)
    c = -(-level // l)
    for k in ks:
        depth = c + data.draw(st.integers(min_value=-1, max_value=2))
        r = draw_level(fn, data, k, 1, max(1, depth * l))
        order = data.draw(st.sampled_from(ORDERS))
        levels = walk(lambda: oracle_node_levels(fn, r, l, depth))
        if isinstance(levels, LevelCollisionError):
            for f in (fn, fresh(base)):
                err = walk(lambda: LevelSetTree(f, r, l, depth=depth))
                assert isinstance(err, LevelCollisionError)
                assert (err.r, err.word) == (levels.r, levels.word)
            continue
        if not levels[0]:
            continue
        depth = len(levels) - 1
        tree, filled = grown(fn, r, l, depth, order)
        assert_nodes_match(tree, levels, filled)
        assert [node_fields(tree.nodes_at(n)) for n in range(depth + 1)] == grown_fields(
            fresh(base), r, l, depth, order)
    assert set(fn._word_children) <= {l}


@pytest.mark.parametrize("level, l", [(3, 1), (3, 2), (4, 3)])
def test_a_dyadic_level_names_the_same_word_with_a_filled_memo(level, l):
    # r is a vertex value carried by a child of a table word, so the tree
    # meets it in the memo's children; the levels just above and below it
    # expand every parent r's own tree reaches first
    base = corpus_fn(3, level)
    fn = fresh(base)
    root = fn.corner_values("")
    c = -(-level // l)
    r = next(v for word in itertools.product("012", repeat=c * l)
             for v in fn.corner_values("".join(word)) if min(root) < v < max(root))
    eps = (max(root) - min(root)) * F(1, 3 << 60)
    for near in (r - eps, r + eps, min(root) + (max(root) - min(root)) * F(1, 3)):
        LevelSetTree(fn, near, l, depth=c + 1)
    expected = walk(lambda: oracle_levels(base, r, l, c + 1))
    assert isinstance(expected, LevelCollisionError)
    assert expected.word[:-l] in fn._word_children[l]
    for f in (fn, fresh(base), fn):
        with pytest.raises(LevelCollisionError) as err:
            LevelSetTree(f, r, l, depth=c + 1)
        assert err.value.word == expected.word


def test_a_three_valued_crossing_member_shares_the_memo():
    # the crossing members' children are recomputed on every call; the
    # table words' children above them come from the memo
    base = nonstandard_fn(0, 2, -1)
    fn = fresh(base)
    root = fn.corner_values("")
    three_valued, expanded = 0, set()
    for k in (3, 1, 5, 2, 6, 4):
        r = min(root) + (max(root) - min(root)) * F(k, 7)
        levels = oracle_node_levels(fn, r, 1, 5)
        tree = LevelSetTree(fn, r, 1, depth=5)
        three_valued += any(odd_corner(x.corners) is None for x in tree.nodes_at(2))
        expanded |= expanded_table_words(tree)
        assert_nodes_match(tree, levels, False)
        assert_readers_match(tree, levels, 5)
        alone = LevelSetTree(fresh(base), r, 1, depth=5)
        assert tree_fields(tree, 5) == tree_fields(alone, 5)
    assert three_valued
    assert set(fn._word_children[1]) == expanded


def test_the_memo_belongs_to_one_function_and_one_l():
    base = corpus_fn(2, 3)
    fn = fresh(base)
    root = fn.corner_values("")
    rs = [min(root) + (max(root) - min(root)) * F(k, 7) for k in range(1, 7)]
    expanded: dict[int, set] = {}
    for l in (1, 2, 1):
        # l = 2 after l = 1 and l = 1 again: each l reads its own children
        for r in rs:
            levels = oracle_node_levels(fn, r, l, -(-3 // l) + 1)
            tree = LevelSetTree(fn, r, l, depth=len(levels) - 1)
            assert_nodes_match(tree, levels, False)
            expanded.setdefault(l, set()).update(expanded_table_words(tree))
    # one entry per distinct table word expanded, under its l alone
    assert {l: set(memo) for l, memo in fn._word_children.items()} == expanded
    assert all(len(word) < fn.level for words in expanded.values() for word in words)
    # refine and standardize make other functions, each with its own memo
    for other in (fn.refine(fn.level), fn.refine(fn.level + 1), fn.standardize()):
        assert other._word_children == {}
        for r in rs[:3]:
            levels = oracle_node_levels(other, r, 1, other.level + 1)
            tree = LevelSetTree(other, r, 1, depth=len(levels) - 1)
            assert_nodes_match(tree, levels, False)
        assert set(other._word_children) == {1}
    assert {l: set(memo) for l, memo in fn._word_children.items()} == expanded


def test_the_split_memo_belongs_to_one_function_and_one_l():
    # a member's split is read from its function's memo under the tuple of
    # its member children's increments, and is _split's value for it
    base = corpus_fn(2, 3)
    fn = fresh(base)
    assert fn._word_splits == {}
    root = fn.corner_values("")
    trees = [LevelSetTree(fn, min(root) + (max(root) - min(root)) * F(k, 7), l, depth=4)
             for l in (1, 2, 1) for k in (1, 3, 5)]
    assert set(fn._word_splits) == {1, 2}
    for l, memo in fn._word_splits.items():
        assert memo and all(split == _split(key) for key, split in memo.items())
    for tree in trees:
        for n in range(min(tree.depth, tree._crossing)):
            for v in tree.nodes_at(n):
                key = tuple(u.kappa_exp - v.kappa_exp for u in v.children)
                assert v.split is fn._word_splits[tree.l][key]
    # refine, standardize and a fresh copy make functions with their own memo
    for other in (fn.refine(fn.level + 1), fn.standardize(), fresh(base)):
        assert other._word_splits == {}
        LevelSetTree(other, trees[0].r, 1, depth=2)
        assert set(other._word_splits) == {1}
    assert set(fn._word_splits) == {1, 2}


def test_a_filled_tree_cuts_each_k_once_per_member_read(monkeypatch):
    # fill_measure returns at once on a tree filled to the depth asked, so
    # the mass check's _members(n) cuts the runs' K once, in _chains, and a
    # refill cuts none
    fn, r = third_up(7, 3)
    tree = LevelSetTree(fn, r, 1, 12).fill_measure(12)
    dens = list(tree.mu_denominators)
    want = [list(tree._members(n)) for n in range(13)]
    cuts = []

    def counting(ks, l, drop):
        cuts.append(drop)
        return runs._cut(ks, l, drop)

    monkeypatch.setattr(levelset, "_cut", counting)
    c = tree._crossing
    for n in range(13):
        before = len(cuts)
        assert list(tree._members(n)) == want[n]
        assert len(cuts) - before == (n > c), n
        tree.fill_measure(n)
        assert len(cuts) - before == (n > c), n
    assert tree.mu_denominators == dens


class CountingNode(levelset.LevelSetNode):
    """A LevelSetNode that counts the nodes made at each word length."""

    __slots__ = ()
    made: dict[int, int] = {}

    def __init__(self, word: str, corners: tuple, kappa_exp: int):
        super().__init__(word, corners, kappa_exp)
        CountingNode.made[len(word)] = CountingNode.made.get(len(word), 0) + 1


def test_deep_timed_calls_build_no_node_below_the_crossing(monkeypatch):
    # the benchmark's deep item on a level-3 function to depth 13: the tree,
    # its measure, the root's kappa sum and the mass check at depths 4, 8, 12
    monkeypatch.setattr(levelset, "LevelSetNode", CountingNode)
    monkeypatch.setattr(CountingNode, "made", {})
    fn = random_standard_paf(7001, 3, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    tree = LevelSetTree(fn, r, 1, depth=13)
    tree.fill_measure(13)
    cons = tree.conservation("", 13)
    report = mass_distribution_lower(fn, r, BoundSearchParams(0.5, F(1, 4), 1), 3, tree=tree)
    assert report.levels_checked == [4, 8, 12] and cons.passed
    assert max(CountingNode.made) == 3                      # c = 3
    assert sum(CountingNode.made.values()) == sum(len(tree.nodes_at(n)) for n in range(4))
    # the nodes are built once a caller asks, and then match the readers
    assert len(tree.nodes_at(13)) == sum(count for count, _ in tree.histogram(13).values())
    assert CountingNode.made[13] == len(tree.nodes_at(13))


DEEP_RUN = """
import json, resource, sys, time
from fractions import Fraction
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from holderlevels.levelset import LevelSetTree
from holderlevels.paf import random_standard_paf
fn = random_standard_paf(7, 3, 1.0, 0.9, check=False)
root = fn.corner_values("")
r = min(root) + (max(root) - min(root)) * Fraction(1, 3)
start = time.perf_counter()
tree = LevelSetTree(fn, r, 6, 16)
hists = [tree.histogram(n) for n in range(17)]
lhs = tree.conservation("", 16).lhs
seconds = time.perf_counter() - start
json.dump({"hists": [sorted(h.items()) for h in hists], "lhs": str(lhs),
           "dens": tree.mu_denominators, "levels": len(tree._levels), "seconds": seconds,
           "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}, sys.stdout)
"""


def test_alpha_one_at_depth_16_fits_in_one_gib():
    # about 3.2 million members at depth 16 (the node tree needed 6.7 GB);
    # the runs give their counts, kappa histogram, kappa sum and mu
    # denominators with the address space capped at 1 GiB
    src = str(Path(levelset.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", DEEP_RUN], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    hists = [{e: (count, mu) for e, (count, mu) in h} for h in out["hists"]]
    counts = [sum(count for count, _ in h.values()) for h in hists]
    assert counts[16] == 3_227_648
    assert out["levels"] == 2                               # c = 1: no node below it
    assert F(out["lhs"]) == sum((F(count, 1 << e) for e, (count, _) in hists[16].items()), F(0))
    for h, den in zip(hists, out["dens"]):
        assert sum(mu for _, mu in h.values()) == den       # the measure has mass one
    fn, r = third_up(7, 3)
    levels = oracle_node_levels(fn, r, 6, 9, cap=10**5)
    assert len(levels) == 10
    assert [len(nodes) for nodes in levels] == counts[:10]
    assert [nodes[0].mu_den for nodes in levels] == out["dens"][:10]
    for h, nodes in zip(hists, levels):
        assert h == {e: (count, sum(v.mu_num for v in nodes if v.kappa_exp == e))
                     for e, count in sorted(Counter(v.kappa_exp for v in nodes).items())}
