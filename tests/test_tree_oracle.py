"""The integer level-set tree and measure against the exact Fraction walk.

The reference is the tree walk as it was written in ``Fraction``s: each
member descends every boundary word with ``descend`` (a table hit at
or above the function level, midpoint averages below it), tests the
word's corners against the level for a collision and then for
membership, and splits its measure among its member children by
conductivity, mu(child) = mu kappa(child) / sum of the children's kappa.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels.bounds import BoundSearchParams, mass_distribution_lower
from holderlevels.levelset import (
    LevelCollisionError,
    LevelSetTree,
    approx_level_set,
    extreme_pair,
)
from holderlevels.triangles import boundary_family
from test_kernel import corpus_fn, descend

F = Fraction


def oracle_levels(fn, r: Fraction, l: int, depth: int):
    """Levels of (word, kappa exponent, corner values, parent index) in walk order."""
    words = boundary_family(l).addresses
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


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=5),
       st.sampled_from([1, 2]), st.integers(min_value=1, max_value=3 * 2**24 - 1),
       st.data())
@settings(max_examples=60, deadline=None)
def test_tree_matches_fraction_walk(seed, level, l, k, data):
    fn = corpus_fn(seed, level)
    depth = level + data.draw(st.integers(min_value=-1, max_value=4))
    if data.draw(st.booleans()):
        root = fn.corner_values("")
        r = min(root) + (max(root) - min(root)) * F(k, 3 * 2**24)
    else:
        # a corner value: the walk collides if it reaches a triangle carrying it
        word = data.draw(st.text(alphabet="012", min_size=1, max_size=level + 4))
        r = fn.corner_values(word)[k % 3]
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
        assert [v.mu for v in nodes] == want_mu
        assert all(v.mu_den == tree.mu_denominators[n] for v in nodes)
        scale = tree.scale(n * l)
        for v, (_, _, vals, _) in zip(nodes, want):
            assert tuple(F(c, scale) for c in v.corners) == vals == fn.corner_values(v.word)
    lhs = sum((F(1, 1 << e) for _, e, _, _ in expected[depth]), F(0))
    assert tree.conservation("", depth).lhs == lhs


def test_dyadic_level_hits_a_vertex_value_below_the_function_level():
    fn = corpus_fn(1, 2)
    # a corner value two levels below L that is no vertex value at or
    # above it; the walk meets it first one level below L, on '100'
    r = fn.corner_values("1002")[2]
    assert r not in fn.values.values()
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
    assert approx_level_set(fn, r, 2, 1, tree=one).members
    for args in ((fn, r, 2, 2), (fn, r2, 2, 1), (corpus_fn(1, 3), r, 2, 1)):
        with pytest.raises(ValueError, match="another function"):
            approx_level_set(*args, tree=one)
    params = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)
    mass_distribution_lower(fn, r, params, 1, tree=one)
    with pytest.raises(ValueError, match="another function"):
        mass_distribution_lower(fn, r2, params, 1, tree=one)
    with pytest.raises(ValueError, match="another function"):
        mass_distribution_lower(fn, r, BoundSearchParams(alpha=1.0, d1=F(1, 2), l=2), 1,
                                tree=one)
