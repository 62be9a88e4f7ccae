"""The address kernels against exact slow paths.

The geometry reference replays an address by exact midpoints (vertex
i of child j is the midpoint of the parent's vertices i and j) and
checks the integer lattice map (``triangle_vertices``,
``delta_lattice_index``, ``locate``, the vertex list of ``level_index``
and the vertices of ``refine``) against it.

The corner-value slow path takes a triangle's vertices from that
replay and reads the stored vertex table at or above the function
level, or evaluates the function by barycentric interpolation at each
corner below it.  It shares no code with the kernel (``int_word_table``
and the integer step of ``corner_values``) or with the census walk
built on it.  ``descend``, the kernel's former Fraction
descent, is kept here as the oracle of that integer step.
"""

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels import levelset, triangles
from holderlevels.exact import CoordQ3, PointQ3, midpoint
from holderlevels.levelset import (
    LevelCollisionError,
    LevelValue,
    extreme_pair,
    kappa_exponent,
    well_conducting_census,
)
from holderlevels.paf import PiecewiseAffineFn, random_standard_paf
from holderlevels.triangles import (
    boundary_family,
    delta_lattice_index,
    locate,
    level_index,
    triangle_vertices,
)

from helpers import fraction_triangles, point_values, subdivision_addresses

REPLAY_ROOT = (
    PointQ3(CoordQ3(0), CoordQ3(0)),
    PointQ3(CoordQ3(1), CoordQ3(0)),
    PointQ3(CoordQ3(1, 0, 1), CoordQ3(0, 1, 1)),
)


def replay_child(vs, s: str):
    return tuple(midpoint(v, vs[int(s)]) for v in vs)


def replay_vertices(word: str):
    vs = REPLAY_ROOT
    for s in word:
        vs = replay_child(vs, s)
    return vs


def lattice_point(row: int, col: int, n: int) -> PointQ3:
    """col*u1 + row*u2 with u1 = 2**-n (1, 0), u2 = 2**-n (1/2, sqrt(3)/2)."""
    return PointQ3(CoordQ3(col, 0, n) + CoordQ3(row, 0, n + 1), CoordQ3(0, row, n + 1))


def lattice_index(point: PointQ3, n: int) -> tuple[int, int]:
    """Inverse of ``lattice_point``: (row, col) of a lattice point at scale 2**-n."""
    row = point.y.sqrt3_coefficient() * 2 ** (n + 1)
    col = (point.x.to_fraction() * 2 ** (n + 1) - row) / 2
    assert row.denominator == col.denominator == 1
    return int(row), int(col)


def check_geometry(word: str, vs) -> None:
    assert triangle_vertices(word) == vs
    index = delta_lattice_index(word)
    assert lattice_point(*index, len(word)) == triangles.lattice_point(*index, len(word)) == vs[0]
    assert lattice_index(vs[0], len(word)) == index
    # an interior point, barycentric (1/4, 1/4, 1/2), lies in this triangle only
    assert locate(midpoint(midpoint(vs[0], vs[1]), vs[2]), len(word)) == word


def test_geometry_matches_replay_exhaustively():
    table = {"": REPLAY_ROOT}
    for n in range(7):
        for word in [w for w in table if len(w) == n]:
            for s in "012":
                table[word + s] = replay_child(table[word], s)
    assert len(table) == (3**8 - 1) // 2
    for word, vs in table.items():
        check_geometry(word, vs)
    for n in range(8):
        corners = {p for w, vs in table.items() if len(w) == n for p in vs}
        assert {lattice_point(*p, n) for p in level_index(n).vertices} == corners


@given(st.text(alphabet="012", max_size=12))
@settings(max_examples=200)
def test_geometry_matches_replay(word):
    check_geometry(word, replay_vertices(word))


CORPUS_ALPHAS = (0.3, 0.5, 0.8)


@lru_cache(maxsize=None)
def corpus_fn(seed: int, level: int):
    return random_standard_paf(seed, level, CORPUS_ALPHAS[seed % 3], 0.9, check=False)


def descend(fn, word: str, vals, suffix: str) -> tuple:
    """Corner values of ``word + suffix`` given those of ``word``, in Fractions.

    Steps at or above the level are one table hit; each step below it
    is a midpoint average.  This was the kernel's own descent; below the
    level ``corner_values`` now takes the integer step instead.
    """
    k = fn.level - len(word)
    if k > 0:
        vals = fn.corner_values(word + suffix[:k])
        suffix = suffix[k:]
    for ch in suffix:
        anchor = vals[int(ch)]
        vals = tuple((v + anchor) / 2 for v in vals)
    return vals


@lru_cache(maxsize=None)
def census_fn(seed, level: int):
    """A corpus function; for seed "flat", one constant on triangle 0.

    Corpus functions are locally non-constant, so only the flat one
    has constant triangles below the function level.
    """
    if seed != "flat":
        return corpus_fn(seed, level)
    grid = {}
    for word, vals in (("0", (0, 0, 0)), ("1", (0, 1, Fraction(3, 4))),
                       ("2", (0, Fraction(3, 4), Fraction(1, 2)))):
        grid.update((lattice_index(p, level), Fraction(v))
                    for p, v in zip(replay_vertices(word), vals))
    fn = PiecewiseAffineFn(level, grid)
    assert [w for w, v in fraction_triangles(fn) if len(set(v)) == 1] == ["0"]
    return fn


def slow_corner_values(fn, word: str):
    pts = replay_vertices(word)
    if len(word) <= fn.level:
        return tuple(point_values(fn)[p] for p in pts)
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
    assert descend(fn, prefix, fn.corner_values(prefix), word[cut:]) == expected


@given(st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=6)),
       st.data())
@settings(max_examples=100, deadline=None)
def test_integer_corner_values_match_fraction_descent(args, data):
    # the integer step below the level against the Fraction descent from the root
    fn = census_fn(*args) if args[0] < 5 else census_fn("flat", 1)
    extra = data.draw(st.integers(min_value=0, max_value=12))
    word = data.draw(st.text(alphabet="012", min_size=fn.level + extra,
                             max_size=fn.level + extra))
    got = fn.corner_values(word)
    assert all(type(v) is Fraction for v in got)
    assert got == descend(fn, "", fn.corner_values(""), word)


@lru_cache(maxsize=None)
def refined(seed: int, level: int, depth: int):
    return corpus_fn(seed, level).refine(depth)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=60, deadline=None)
def test_walk_vertices_match_replay(seed, level, extra, data):
    # refine keys its values by the corners of the level_index cells
    fn = corpus_fn(seed, level)
    g = refined(seed, level, level + extra)
    assert len(point_values(g)) == (3 ** (g.level + 1) + 3) // 2
    word = data.draw(st.text(alphabet="012", min_size=g.level, max_size=g.level))
    assert tuple(point_values(g)[p] for p in replay_vertices(word)) == slow_corner_values(fn, word)


@pytest.mark.parametrize("level", range(1, 7))
def test_word_tables_match_slow_path(level):
    fn = corpus_fn(level % 4, level)
    table = {word: fn.corner_values(word) for word in level_index(level).words}
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
    b = len(boundary_family(l))
    assert 0 < direct <= b**n
    if seed != "flat":
        # no corner triple down to the level is constant: the closed form
        assert all(len(set(fn.corner_values(w))) > 1 for w in level_index(level).words)
        assert direct == sum(math.comb(n, j) * 2 ** (n - j) * (b - 2) ** j
                             for j in range(t + 1))


@st.composite
def flattened_fns(draw):
    """A corpus function of level L <= 3 made constant on the triangle of a
    drawn word of length <= L, so the census walks down to level L."""
    seed = draw(st.integers(min_value=0, max_value=3))
    level = draw(st.integers(min_value=1, max_value=3))
    fn = corpus_fn(seed, level)
    size = draw(st.integers(min_value=0, max_value=level))
    word = draw(st.text(alphabet="012", min_size=size, max_size=size))
    value = draw(st.sampled_from(sorted(set(fn.grid.values()))))
    grid = dict(fn.grid)
    for suffix in itertools.product("012", repeat=level - size):
        for p in replay_vertices(word + "".join(suffix)):
            grid[lattice_index(p, level)] = value
    flat = PiecewiseAffineFn(level, grid)
    assert len(set(flat.corner_values(word))) == 1
    return flat


@given(flattened_fns(), st.sampled_from([1, 2, 3]), st.data())
@settings(max_examples=40, deadline=None)
def test_census_with_a_constant_triangle_matches_slow_enumeration(fn, l, data):
    n = data.draw(st.integers(min_value=1, max_value={1: 5, 2: 3, 3: 2}[l]))
    t = data.draw(st.integers(min_value=1, max_value=n))
    cache: dict = {}
    direct = sum(1 for w in subdivision_addresses(n, l)
                 if slow_kappa_exponent(fn, w, l, cache) <= t)
    assert well_conducting_census(fn, None, n, l, Fraction(t, n), alpha=0.5).count == direct


def test_census_of_a_standard_function_builds_no_boundary_words(monkeypatch):
    # no triangle of a standard function is constant: the closed form, B from l
    built = []
    monkeypatch.setattr(levelset, "boundary_family",
                        lambda l: built.append(l) or triangles.boundary_family(l))
    fn = random_standard_paf(7, 3, 0.2, 0.9, check=False)
    res = well_conducting_census(fn, None, 10, 16, Fraction(1, 10), alpha=0.2)
    b = 3 * (2**16 - 1)
    assert res.count == sum(math.comb(10, j) * 2 ** (10 - j) * (b - 2) ** j
                            for j in range(2))
    assert 16 not in built


@pytest.mark.parametrize("alpha", [None, "abc", 0.0, 1.5, math.nan])
def test_census_refuses_a_bad_alpha_before_enumerating(monkeypatch, alpha):
    # the flat function has a constant triangle, so its census enumerates
    # the boundary words down to the function level; alpha is read with
    # the other arguments, before any of that work
    def unreachable(l):
        raise AssertionError("the census enumerated before it read alpha")

    monkeypatch.setattr(levelset, "boundary_family", unreachable)
    with pytest.raises(ValueError, match="alpha"):
        well_conducting_census(census_fn("flat", 1), None, 2, 1, Fraction(1, 2), alpha=alpha)


def full_scan(fn, r: Fraction):
    """The first grid vertex whose value is r, as triples; None if there is none."""
    for (row, col), v in fn.grid.items():
        if v == r:
            return triangles.lattice_point(row, col, fn.level).to_triples()
    return None


dyadics = st.builds(lambda a, e: Fraction(a, 1 << e),
                    st.integers(min_value=-(1 << 50), max_value=1 << 50),
                    st.integers(min_value=0, max_value=50))


@given(st.one_of(fn_args.map(lambda a: corpus_fn(*a)), flattened_fns()), st.data())
@settings(max_examples=80, deadline=None)
def test_level_check_matches_full_scan(fn, data):
    r = data.draw(st.one_of(st.sampled_from(sorted(set(fn.grid.values()))),
                            dyadics, st.fractions()))
    hit = full_scan(fn, r)
    if hit is None:
        assert LevelValue.checked(r, fn).r == r
        return
    with pytest.raises(LevelCollisionError) as err:
        LevelValue.checked(r, fn)
    assert err.value.word == f"vertex {hit}"


@given(st.one_of(fn_args.map(lambda a: corpus_fn(*a)), flattened_fns()),
       st.sampled_from([2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_kappa_exponent_matches_slow_path_at_larger_l(fn, l, data):
    words = boundary_family(l)
    steps = data.draw(st.lists(st.sampled_from(words), max_size=4))
    word = "".join(steps)
    assert kappa_exponent(fn, word, l) == slow_kappa_exponent(fn, word, l, {})
    foreign = st.text(alphabet="0123x", min_size=l, max_size=l).filter(
        lambda s: s not in words)
    three = st.permutations("012").map("".join)     # three symbols, at l = 3
    bad = data.draw(st.one_of(three, foreign) if l == 3 else foreign)
    cut = data.draw(st.integers(min_value=0, max_value=len(steps)))
    address = "".join(steps[:cut] + [bad] + steps[cut:])
    # a symbol other than 0, 1, 2 fails the address check, which names the whole word
    message = re.escape(f"{bad!r} is not a boundary word at l={l}" if set(bad) <= set("012")
                        else f"invalid address {address!r}")
    with pytest.raises(ValueError, match=message):
        kappa_exponent(fn, address, l)


values = st.integers(min_value=-2, max_value=2).map(Fraction)


@given(st.tuples(values, values, values))
def test_extreme_pair_tie_rules(q):
    pair = extreme_pair(q)
    if len(set(q)) == 1:
        assert pair == ()
        return
    assert pair == (q.index(min(q)), q.index(max(q)))
