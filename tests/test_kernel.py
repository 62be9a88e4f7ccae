"""The word-table corner-value kernel against the exact slow path.

The slow path rebuilds the exact vertices of a triangle and reads the
stored vertex table at or above the function level, or evaluates the
function by barycentric interpolation at each corner below it.  It
shares no code with the kernel (``word_table``, ``descend``) or with
the census walk built on it.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels.levelset import (
    extreme_labeling,
    extreme_pair,
    kappa_exponent,
    well_conducting_census,
)
from holderlevels.paf import PiecewiseAffineFn, random_standard_paf
from holderlevels.triangles import boundary_family, subdivision_addresses, triangle_vertices

CORPUS_ALPHAS = (0.3, 0.5, 0.8)


@lru_cache(maxsize=None)
def corpus_fn(seed: int, level: int):
    return random_standard_paf(seed, level, CORPUS_ALPHAS[seed % 3], 0.9, check=False)


@lru_cache(maxsize=None)
def census_fn(seed, level: int):
    """A corpus function; for seed "flat", one constant on triangle 0.

    Corpus functions are locally non-constant, so only the flat one
    has constant triangles below the function level.
    """
    if seed != "flat":
        return corpus_fn(seed, level)
    values = {}
    for word, vals in (("0", (0, 0, 0)), ("1", (0, 1, Fraction(3, 4))),
                       ("2", (0, Fraction(3, 4), Fraction(1, 2)))):
        values.update(zip(triangle_vertices(word), map(Fraction, vals)))
    fn = PiecewiseAffineFn(level, values)
    assert [w for w, v in fn.iter_triangles() if len(set(v)) == 1] == ["0"]
    return fn


def slow_corner_values(fn, word: str):
    pts = triangle_vertices(word)
    if len(word) <= fn.level:
        return tuple(fn.values[p] for p in pts)
    return tuple(fn.eval(p) for p in pts)


def slow_kappa_exponent(fn, word: str, l: int, cache: dict) -> int:
    """Halving steps along the ancestors, extremes from the slow path."""
    exp = 0
    for i in range(0, len(word), l):
        prefix = word[:i]
        if prefix not in cache:
            cache[prefix] = slow_corner_values(fn, prefix)
        q = cache[prefix]
        if len(set(q)) == 1:
            extremes = ()
        else:
            extremes = (str(q.index(min(q))) * l, str(q.index(max(q))) * l)
        exp += word[i: i + l] not in extremes
    return exp


fn_args = st.tuples(st.integers(min_value=0, max_value=3),
                    st.integers(min_value=1, max_value=6))


@given(fn_args, st.data())
@settings(max_examples=60, deadline=None)
def test_corner_values_match_slow_path(args, data):
    fn = corpus_fn(*args)
    size = data.draw(st.integers(min_value=0, max_value=fn.level + 4))
    word = data.draw(st.text(alphabet="012", min_size=size, max_size=size))
    expected = slow_corner_values(fn, word)
    assert fn.corner_values(word) == expected
    assert kappa_exponent(fn, word) == slow_kappa_exponent(fn, word, 1, {})
    cut = data.draw(st.integers(min_value=0, max_value=len(word)))
    prefix = word[:cut]
    assert fn.descend(prefix, fn.corner_values(prefix), word[cut:]) == expected


@pytest.mark.parametrize("level", range(1, 7))
def test_word_tables_match_slow_path(level):
    fn = corpus_fn(level % 4, level)
    table = fn.word_table()
    assert len(table) == (3 ** (level + 1) - 1) // 2
    for word, vals in table.items():
        assert vals == slow_corner_values(fn, word)


@pytest.mark.parametrize("seed,level", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), ("flat", 1)])
@pytest.mark.parametrize("l,n,d1", [(1, 4, Fraction(1, 2)), (1, 4, Fraction(1, 4)),
                                    (2, 2, Fraction(1, 2)), (1, 6, Fraction(1, 2)),
                                    (2, 3, Fraction(2, 3))])
def test_census_matches_slow_enumeration(seed, level, l, n, d1):
    fn = census_fn(seed, level)
    t = int(n * d1)
    cache: dict = {}
    direct = sum(1 for w in subdivision_addresses(n, l)
                 if slow_kappa_exponent(fn, w, l, cache) <= t)
    res = well_conducting_census(fn, None, n, l, d1, alpha=0.5)
    assert res.count == direct
    assert 0 < direct <= len(boundary_family(l)) ** n


values = st.integers(min_value=-2, max_value=2).map(Fraction)


@given(st.tuples(values, values, values))
def test_extreme_pair_tie_rules(q):
    pair = extreme_pair(q)
    lab = extreme_labeling(q)
    if len(set(q)) == 1:
        assert pair == () and lab.is_constant
        return
    assert pair == (q.index(min(q)), q.index(max(q)))
    assert (lab.vmin, lab.vmax) == pair
    assert lab.low_tie_collapsed == (q.count(min(q)) > 1)
    assert lab.high_tie_collapsed == (q.count(max(q)) > 1)
