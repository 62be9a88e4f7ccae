"""Pinned checks that need nothing but the standard library and holderlevels.

The mass-check constants and collision words the Sierpinski estimates
rest on are pinned here once, with the digests of one vertex table read
below its function's level and of three generated level-7 functions;
``test_bounds`` reads its rows' triples from this module.  Every test is
a plain function that imports neither pytest, hypothesis nor
``helpers``, so the same module runs under Tier-1 and under ``python
tools/floor.py``, which runs it on the declared Python floor with no
dependency installed and then checks that numpy and mpmath stayed
unloaded.
"""

import functools
import hashlib
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

from holderlevels import (BoundSearchParams, levelset, mass_distribution_lower,
                          random_standard_paf)
from holderlevels.bernoulli import BernoulliWitnessFn, cdf_from_digits
from holderlevels.levelset import LevelCollisionError, LevelSetTree, odd_corner

F = Fraction

# (C, worst level, worst cell) of each pinned mass check on third_up(7, 3)
# unless noted: the alpha = 1 checks of for_alpha(1.0) (l = 6) to 6 and 48
# depths, deep's l = 1 triple to 100 levels, the level-2 case at n' = 24 on
# third_up(2, 2), the q = 20 and q = 40 triples, and the l = 16 tree's
FEASIBLE = (1 / 6, 2, (314, 0))
DEEP = (0.9364426154549611, 16, (5037, 1))
FOUND = (747.4651382547372, 46, (10988213177132, 35184372088833))
Q20 = (0.0003255208333333333, 20, (269999436643811036683585809119444992,
                                   1053386612978967459784515007196104055))
Q40 = (6.357828776041666e-07, 40, (
    135800066088744497307136236105239546961595924975380193195124288057685137, 0))
L16 = (0.041666666666666664, 4, (1417818844805407013, 0))
# the first member of the l = 16 tree at depth 1, and the word its
# vertex hit two depths past the crossing names
L16_FIRST = "0002002220202202"
L16_COLLISION = "000200222020222222022222220222000002220000220200"
# SHA-256 of repr((D, numerators in key order)) of third_up(7, 3)'s function
# refined four levels down (3,282 vertices), recorded from the per-cell loop
# that wrote every cell's three corners before the midpoint plan
REFINED_7 = "7bbf1f78f8d9a439ebbb2022b5f3960116979c40d1d5fb218fb893282c435c1e"
# the same digest of the unchecked random_standard_paf(seed, 7, 0.5, 0.9)
# (six displacement layers, 3,282 vertices) at seeds 0 to 2, recorded from
# the generator's own lattice walk before it displaced along the midpoint plan
GENERATED_7 = ("8c4b56f67f0b623f2a406b0380e3dfc0ff6b031a19a3ee77853b0c830ad0b8fa",
               "b22314f352167ce935ac32c355a5f39010a517eea31660176bbfb834352843c6",
               "863269950f28b8e6f4313caba067a1bdec8d06959edca9462cd9d38790cf954f")


@functools.cache
def third_up(seed, level):
    """The unchecked ``random_standard_paf(seed, level, 1.0, 0.9)`` and r a third up its root.

    One function per (seed, level), so the word children it memoizes above
    its level serve every tree built on it.
    """
    fn = random_standard_paf(seed, level, 1.0, 0.9, check=False)
    root = fn.corner_values("")
    return fn, min(root) + (max(root) - min(root)) / 3


def triple(rep):
    return rep.c_empirical, rep.worst_level, rep.worst_cell


def refusing_the_word_loop():
    """Patch the boundary-word listing to fail: no reader past the crossing may list a word."""
    def unreachable(*args):
        raise AssertionError(f"boundary words listed past the crossing: {args}")

    return mock.patch.multiple(levelset, boundary_family=unreachable, _word_steps=unreachable)


def timed_and_traced(run):
    """``run()``'s result, its wall seconds and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_alpha_one_checks_to_6_and_48_depths():
    # the runs' line summaries answer both in milliseconds: at 48 checked
    # depths (576 lattice levels) every run is read from K's leading digits
    fn, r = third_up(7, 3)
    params = BoundSearchParams.for_alpha(1.0)
    rep = mass_distribution_lower(fn, r, params, 6)
    assert rep.levels_checked == [2, 4, 6, 8, 10, 12], rep
    assert triple(rep) == FEASIBLE, rep
    rep = mass_distribution_lower(fn, r, params, 48)
    assert len(rep.levels_checked) == 48, rep
    assert triple(rep) == FEASIBLE, rep


def test_deep_triple_to_100_levels():
    # windows that straddle two parents, read from each depth's last two blocks
    fn, r = third_up(7, 3)
    rep = mass_distribution_lower(fn, r, BoundSearchParams(1.0, F(1, 4), 1), 25)
    assert rep.levels_checked == list(range(4, 101, 4)), rep
    assert triple(rep) == DEEP, rep


def test_level_two_worst_run_at_n_prime_24():
    # the worst run doubles at every zero block; its seam and six line
    # positions name the worst cell without listing the run
    fn, r = third_up(2, 2)
    rep = mass_distribution_lower(fn, r, BoundSearchParams(1.0, F(1, 2), 1), 24)
    assert triple(rep) == FOUND, rep


def test_q20_and_q40_triples():
    fn, r = third_up(7, 3)
    rep = mass_distribution_lower(fn, r, BoundSearchParams.for_alpha(0.9), 1)
    assert triple(rep) == Q20, rep
    rep = mass_distribution_lower(fn, r, BoundSearchParams.for_alpha(0.95), 2)
    assert rep.levels_checked == [40, 80], rep
    assert triple(rep) == Q40, rep


def test_past_the_crossing_no_reader_lists_a_block():
    # at l = 16 a zero block has 65,536 children and the boundary words
    # number 196,605: past the crossing the runs, the histograms, the kappa
    # sums and the mass check read each block from (l, o, digit) and list
    # no word.  Sorting every word into blocks cost about a second and 94
    # MB of process peak on this function (2 CPUs, Python 3.11); the
    # closed form takes milliseconds
    fn, r = third_up(7, 3)
    tree = LevelSetTree(fn, r, 16, 1)
    assert tree._crossing == 1
    assert tree._levels[1][0].word == L16_FIRST

    def past_the_crossing():
        tree.extend(10)
        hists = tree.histograms(10, 0)
        assert tree.conservation("", 10).passed
        params = BoundSearchParams(1.0, F(1, 4), 16)
        return hists, mass_distribution_lower(fn, r, params, 2, tree=tree)

    with refusing_the_word_loop():
        (hists, rep), elapsed, peak = timed_and_traced(past_the_crossing)
    assert sum(count for count, _ in hists[10].values()) == 3072, hists[10]
    assert rep.levels_checked == [4, 8], rep
    assert triple(rep) == L16, rep
    assert elapsed < 0.5, elapsed
    assert peak < 10 << 20, peak


def test_a_collision_past_the_crossing_is_named_without_the_word_loop():
    # running the word loop on one member to name this collision took
    # 1.2-1.6 s and 124 MB of process peak (2 CPUs, Python 3.11); the word
    # comes from the run's digit there
    fn, _ = third_up(7, 3)
    _, b, a = odd_corner(fn.corner_values(L16_FIRST))
    tree = LevelSetTree(fn, b + (a - b) * F(12345678901, 2**32), 16, 1)
    assert tree._crossing == 1

    def collide():
        try:
            tree.extend(4)
        except LevelCollisionError as err:
            return err.word
        return None

    with refusing_the_word_loop():
        word, elapsed, peak = timed_and_traced(collide)
    assert word == L16_COLLISION, word
    assert tree.depth == 2, tree.depth
    assert elapsed < 0.5, elapsed
    assert peak < 10 << 20, peak


def test_a_node_read_past_the_crossing_keeps_the_runs():
    # a node read past c builds nodes down to the level read and no
    # further: the mass check and later extends still read the runs
    # (depth 2 of the l = 6 tree to 12 levels is 12 nodes; building
    # every level took 0.5 s and 112 MB)
    fn, r = third_up(7, 3)
    params = BoundSearchParams.for_alpha(1.0)
    for l in (params.l, 1):
        tree = LevelSetTree(fn, r, l)
        c = tree._crossing
        tree.nodes_at(c + 1)
        if l == params.l:
            rep = mass_distribution_lower(fn, r, params, 6, tree=tree)
            assert rep == mass_distribution_lower(fn, r, params, 6), rep
            assert triple(rep) == FEASIBLE, rep
        else:
            tree.extend(200)
            assert tree.histograms(200, 0) == LevelSetTree(fn, r, l, 200).histograms(200, 0)
        assert len(tree._levels) == c + 2, (l, len(tree._levels))
    tree = LevelSetTree(fn, r, 6, 12)
    assert len(tree.nodes_at(2)) == 12 and len(tree._levels) == 3, len(tree._levels)


def test_uneven_steps_grow_the_one_shot_tree():
    # a run reads all the digit blocks of one extend from one division of
    # its height, so a tree grown in uneven increments is the tree grown at once
    fn, r = third_up(7, 3)
    for l, n, steps in ((1, 200, (2, 5, 1, 60, 132)), (6, 100, (1, 7, 2, 90))):
        tree = LevelSetTree(fn, r, l)
        for step in steps:
            tree.extend(tree.depth + step)
        assert tree.depth == n, (l, tree.depth)
        assert tree.histograms(n, 0) == LevelSetTree(fn, r, l, n).histograms(n, 0), l


def test_a_vertex_met_inside_a_multi_depth_step_names_the_one_shot_word():
    # corner values first met at depth 8 (l = 1) and 4 (l = 6), inside the second step
    fn, _ = third_up(7, 3)
    for l, word, corner, first, n in ((1, "11012111", 2, 4, 12),
                                      (6, "112122212102021112002010", 1, 2, 8)):
        v = fn.corner_values(word)[corner]
        words = []
        for grow in ((n,), (first, n)):
            tree = LevelSetTree(fn, v, l)
            try:
                for depth in grow:
                    tree.extend(depth)
            except LevelCollisionError as err:
                words.append(err.word)
        assert len(words) == 2 and words[0] == words[1], (l, words)
        assert len(words[0]) == len(word), (l, words)


def test_the_vertex_table_four_levels_down_is_pinned():
    # below the function level each new vertex is one integer average of
    # the ends of the edge it halves, read from the depth's midpoint plan
    fn, _ = third_up(7, 3)
    refined = fn.refine(fn.level + 4)
    assert len(refined._numerators) == 3282, len(refined._numerators)
    table = repr((refined._den, list(refined._numerators.items())))
    digest = hashlib.sha256(table.encode()).hexdigest()
    assert digest == REFINED_7, digest


def test_the_generated_vertex_tables_at_level_7_are_pinned():
    # every draw of six displacement layers, and the subdivision after them
    for seed, pinned in enumerate(GENERATED_7):
        fn = random_standard_paf(seed, 7, 0.5, 0.9, check=False)
        assert len(fn._numerators) == 3282, (seed, len(fn._numerators))
        table = repr((fn._den, list(fn._numerators.items())))
        digest = hashlib.sha256(table.encode()).hexdigest()
        assert digest == pinned, (seed, digest)


def test_the_witness_bit_loop_matches_cdf_from_digits():
    # the first max_depth binary digits of each height, dyadic or not, into
    # the digit oracle; float results compared by float.hex.  A float p
    # reads its first 12 digits from a table: 11, 12 and 13 digits sit
    # around it, as does the depth 12
    heights = [F(k, 2**j) for j in (1, 7, 11, 12, 13, 40, 48, 60)
               for k in (1, 3, 2**j - 1) if k < 2**j]
    heights += [F(1, 3), F(2, 7), F(999, 1000), F(1, 10**30)]
    checked = 0
    for p in (2 ** -0.5, F(3, 4)):
        for depth in (12, 48, 64):
            w = BernoulliWitnessFn(p, max_depth=depth)
            for y in heights:
                digits = [(y.numerator << i) // y.denominator & 1 for i in range(1, depth + 1)]
                got, expected = w.value_at_height(y), cdf_from_digits(digits, p)
                assert type(got) is type(expected), (p, depth, y, got, expected)
                same = got.hex() == expected.hex() if isinstance(got, float) else got == expected
                assert same, (p, depth, y, got, expected)
                checked += 1
            assert [w.value_at_height(y) for y in (F(0), F(1))] == [0, 1]
    assert checked == 162, checked
