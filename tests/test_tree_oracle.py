"""The integer level-set tree and measure against the exact Fraction walk.

The reference is the tree walk as it was written in ``Fraction``s: each
member descends every boundary word with ``descend`` (a table hit at
or above the function level, midpoint averages below it), tests the
word's corners against the level for a collision and then for
membership, and splits its measure among its member children by
conductivity, mu(child) = mu kappa(child) / sum of the children's kappa.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
import pytest

from holderlevels.bounds import BoundSearchParams, mass_distribution_lower
from holderlevels.levelset import (
    LevelCollisionError,
    LevelSetTree,
    _digit_blocks,
    _split,
    extreme_pair,
)
from holderlevels.paf import affine_from_corners
from holderlevels.triangles import boundary_family
from helpers import point_values
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


def oracle_digit_blocks(l: int) -> tuple:
    """``_digit_blocks(l)``, each word's digits joined one symbol at a time."""
    blocks = [[[] for _ in range(1 << l)] for _ in range(3)]
    for w in boundary_family(l):
        for o in range(3):
            extremes = (str(o) * l, str(int(o == 0)) * l)
            k = int("".join("1" if int(s) == o else "0" for s in w), 2)
            blocks[o][k].append((w, int(w not in extremes)))
    return tuple(
        tuple((tuple(block), _split([inc for _, inc in block])) for block in by_k)
        for by_k in blocks)


def test_digit_blocks_match_joined_digits():
    for l in range(1, 11):
        assert _digit_blocks(l) == oracle_digit_blocks(l), l


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
            if fn._denominator() % m.denominator == 0 and min(root) < m < max(root)]


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
    return fn.corner_values(word)[corner] + F(delta, fn._denominator() << j)


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
