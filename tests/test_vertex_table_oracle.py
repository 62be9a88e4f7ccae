"""The integer vertex table against the ``Fraction`` grid it replaced.

A function's one vertex table is D, the lcm of the reduced denominators
of its values, and the numerators {(row, col): value times D}; ``grid``
is a read-only ``Fraction`` view of it.  The oracle here is the
``Fraction``-only code that used to read the grid: D by an lcm over the
denominators and each numerator times D / den, ``eval`` as a barycentric
``Fraction`` sum located by the exact-ring containment walk, ``to_json``
from the reduced values, and the level check as a scan of the values in
key order.  The grids come from the ``Fraction`` generator of
``test_generator_oracle``, refined by the pre-order walk and standardized
by the midpoint copy on ``Fraction``s.

Below the function level, ``_int_values`` reads each depth's midpoint
plan; its oracle is the per-cell loop it replaced, which writes all three
corners of every cell of every layer below L.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels import paf
from holderlevels.exact import midpoint
from holderlevels.levelset import LevelCollisionError, LevelSetTree, LevelValue
from holderlevels.paf import PiecewiseAffineFn, holder_certificate, random_standard_paf
from holderlevels.triangles import lattice_point, lattice_vertices, level_index, midpoint_plan

import geometry_oracle
from test_generator_oracle import oracle_paf
from test_kernel import lattice_index
from walk_oracle import corners, walk

SRC = Path(__file__).resolve().parent.parent / "src" / "holderlevels"


# -- the Fraction-only oracle --------------------------------------------

def oracle_table(grid: dict) -> tuple[int, list]:
    """(D, [(key, value times D)]) in the grid's key order, D the lcm of its denominators."""
    d = math.lcm(*(v.denominator for v in grid.values()))
    return d, [(p, v.numerator * (d // v.denominator)) for p, v in grid.items()]


def oracle_refine(level: int, grid: dict, depth: int) -> dict:
    """The grid at ``depth``: the leaves' corner values in the walk's order.

    At the function's own level the grid is copied as it is.
    """
    if depth == level:
        return dict(grid)
    out = {}
    for word, row, col, vals in walk(SimpleNamespace(level=level, grid=grid), depth):
        if len(word) == depth:
            out.update(zip(corners(row, col), vals))
    return out


def oracle_standardize(level: int, grid: dict) -> dict:
    """The midpoint copy one level down, leaf by leaf in the walk's order."""
    out = {}
    for word, row, col, (q1, q2, q3) in walk(SimpleNamespace(level=level, grid=grid), level):
        if len(word) == level:
            r, c = 2 * row, 2 * col
            out.update({(r, c): q1, (r, c + 2): q2, (r + 2, c): q3,
                        (r, c + 1): q1, (r + 1, c + 1): q2, (r + 1, c): q3})
    return out


def oracle_eval(level: int, grid: dict, point) -> Fraction:
    word = geometry_oracle.locate(point, level)
    row = int(word.translate(str.maketrans("012", "001")) or "0", 2)
    col = int(word.translate(str.maketrans("012", "010")) or "0", 2)
    ws = geometry_oracle.barycentric_weights(point, lattice_vertices(row, col, level))
    return sum(w.as_fraction() * grid[p] for w, p in zip(ws, corners(row, col)))


def oracle_to_json(level: int, grid: dict) -> dict:
    """Each vertex under its smallest id "word:corner" over the level-n cells;
    standard when every level-n cell has a repeated corner value."""
    ids: dict = {}
    standard = True
    for word, row, col, _ in walk(SimpleNamespace(level=level, grid=grid), level):
        if len(word) == level:
            standard = standard and len({grid[p] for p in corners(row, col)}) < 3
            for corner, p in enumerate(corners(row, col)):
                ids[p] = min(ids.get(p, f"{word}:{corner}"), f"{word}:{corner}")
    entries = sorted((ids[p], f"{v.numerator}/{v.denominator}") for p, v in grid.items())
    return {"level": level, "standard": standard, "entries": entries}


def oracle_collision(level: int, grid: dict, r: Fraction):
    """The first vertex in key order whose value is r, as triples; None if there is none."""
    for (row, col), v in grid.items():
        if v == r:
            return lattice_point(row, col, level).to_triples()
    return None


# -- functions and their oracle grids ------------------------------------

@st.composite
def functions(draw):
    """(fn, its oracle grid): a generated function, refined and standardized in drawn steps."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    level = draw(st.integers(min_value=1, max_value=5))
    alpha = draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    values = oracle_paf(seed, level, alpha, 0.9, check=False)[0]
    grid = {lattice_index(p, level): v for p, v in values.items()}
    fn = random_standard_paf(seed, level, alpha, 0.9, check=False)
    steps = draw(st.lists(st.sampled_from(["refine 0", "refine 1", "refine 2", "standardize"]),
                          max_size=2))
    for step in steps:
        if step == "standardize":
            fn, grid = fn.standardize(), oracle_standardize(fn.level, grid)
        elif fn.level + int(step[-1]) <= 7:
            depth = fn.level + int(step[-1])
            fn, grid = fn.refine(depth), oracle_refine(fn.level, grid, depth)
    return fn, grid


def check_against_oracle(fn, grid, data):
    level = fn.level
    d, numerators = oracle_table(grid)
    assert fn._den == d
    assert list(fn._numerators.items()) == numerators
    assert list(fn.grid.items()) == list(grid.items())
    assert fn.to_json() == oracle_to_json(level, grid)

    size = data.draw(st.integers(min_value=level, max_value=level + 2))
    word = data.draw(st.text(alphabet="012", min_size=size, max_size=size))
    row = int(word.translate(str.maketrans("012", "001")) or "0", 2)
    col = int(word.translate(str.maketrans("012", "010")) or "0", 2)
    a, b, c = lattice_vertices(row, col, size)
    for point in (a, b, c, midpoint(a, b), midpoint(midpoint(a, b), c)):
        assert fn.eval(point) == oracle_eval(level, grid, point)

    r = data.draw(st.one_of(st.sampled_from(sorted(set(grid.values()))),
                            st.builds(lambda v, e: v / (1 << e),
                                      st.sampled_from(sorted(set(grid.values()))),
                                      st.integers(min_value=0, max_value=3)),
                            st.fractions()))
    hit = oracle_collision(level, grid, r)
    if hit is None:
        assert LevelValue.checked(r, fn).r == r
    else:
        with pytest.raises(LevelCollisionError) as err:
            LevelValue.checked(r, fn)
        assert err.value.word == f"vertex {hit}"


@given(functions(), st.data())
@settings(max_examples=40, deadline=None)
def test_integer_table_matches_fraction_oracle(case, data):
    fn, grid = case
    check_against_oracle(fn, grid, data)


@given(functions(), st.data())
@settings(max_examples=20, deadline=None)
def test_public_constructor_keeps_the_callers_grid(case, data):
    # built from Fractions, the function converts once and shows the caller's dict
    made, grid = case
    fn = PiecewiseAffineFn(made.level, dict(grid))
    assert (fn._den, fn._numerators) == (made._den, made._numerators)
    check_against_oracle(fn, grid, data)


def test_grid_is_read_only():
    fn = random_standard_paf(3, 2, 0.5, 0.9, check=False)
    with pytest.raises(TypeError):
        fn.grid[0, 0] = Fraction(0)
    assert fn.grid is fn.grid


def _function_source(name: str) -> ast.AST:
    tree = ast.parse((SRC / "paf.py").read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


@pytest.mark.parametrize("name", ["random_standard_paf", "refine", "standardize",
                                  "_int_values", "_from_ints"])
def test_integer_paths_build_no_fraction(name):
    names = {node.id for node in ast.walk(_function_source(name))
             if isinstance(node, ast.Name)}
    assert "Fraction" not in names


def test_no_library_code_reads_the_fraction_grid():
    # the grid property itself builds the view; only the CLI's --grid option is read
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "grid"
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


# -- vertex values below the function level ----------------------------------

def oracle_int_values(fn, depth: int) -> tuple[int, list[int]]:
    """(S, values at V_depth times S) by the per-cell loop the midpoint plan replaced.

    Every cell of every layer below L writes its three corners: the one it
    keeps and its midpoints with the other two, which a sibling may have
    written already.
    """
    top = depth - fn.level
    index = level_index(depth)
    values = [0] * len(index.vertices)
    for (row, col), v in fn._numerators.items():
        values[index.vertices[row << top, col << top]] = v << top
    for layer in index.layers[fn.level + 1:]:
        for i in layer:
            up = index.corners[index.parents[i]]
            a = values[up[int(index.words[i][-1])]]
            for k, j in zip(index.corners[i], up):
                values[k] = (values[j] + a) >> 1
    return fn._den << top, values


# pairwise coprime: two Mersenne primes and a power of 3, so D passes 64 bits
_DENOMINATORS = (2**61 - 1, 2**89 - 1, 3**41)


@st.composite
def leveled_functions(draw):
    """A function of level 0 to 5, generated or built from large-denominator Fractions,
    refined to a drawn level of at most 5."""
    level = draw(st.integers(min_value=0, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if level and draw(st.booleans()):
        fn = random_standard_paf(seed, level, draw(st.sampled_from([0.3, 0.5, 1.0])), 0.9,
                                 check=False)
    else:
        rng = random.Random(seed)
        grid = {}
        for j, p in enumerate(level_index(level).vertices):
            d = _DENOMINATORS[(j + seed) % len(_DENOMINATORS)]
            grid[p] = Fraction(rng.randrange(-d, d), d)
        fn = PiecewiseAffineFn(level, grid)
        assert fn._den.bit_length() > 64, fn._den
    return fn.refine(draw(st.integers(min_value=fn.level, max_value=5)))


@given(leveled_functions(), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_the_midpoint_plan_matches_the_per_cell_loop(fn, below):
    depth = fn.level + below
    scale, values = oracle_int_values(fn, depth)
    assert fn._int_values(depth) == (scale, values)
    # below the level, refine keeps the values in the order the depth's
    # cells first reach them; at the level it copies the function's table
    index = level_index(depth)
    keys = list(index.vertices)
    grid = {keys[k]: Fraction(values[k], scale)
            for i in index.layers[depth] for k in index.corners[i]}
    refined = fn.refine(depth).grid
    if below:
        assert list(refined.items()) == list(grid.items())
    else:
        assert dict(refined) == grid


def test_each_vertex_below_the_root_halves_one_edge_of_earlier_vertices():
    # layer m holds one triple per level-(m - 1) cell, in that layer's
    # order, halving the cell's edges (1,2), (0,1), (0,2): the order the
    # generator's draws are matched to
    for depth in range(6):
        index = level_index(depth)
        keys = list(index.vertices)
        starts, new, ends_a, ends_b = midpoint_plan(depth)
        assert len(starts) == depth + 2 and starts[:2] == (0, 0)
        assert sorted(new) == list(range(3, len(keys)))
        layer_of = dict.fromkeys(range(3), 0)
        for m in range(1, depth + 1):
            cells = (index.corners[i] for i in index.layers[m - 1])
            assert list(zip(ends_a, ends_b))[starts[m]:starts[m + 1]] == [
                edge for c0, c1, c2 in cells for edge in ((c1, c2), (c0, c1), (c0, c2))]
            for k, a, b in zip(*(t[starts[m]:starts[m + 1]] for t in (new, ends_a, ends_b))):
                assert layer_of[a] < m and layer_of[b] < m
                (ra, ca), (rb, cb) = keys[a], keys[b]
                assert keys[k] == ((ra + rb) // 2, (ca + cb) // 2)
                layer_of[k] = m


def test_trees_and_the_word_table_build_no_plan():
    # corpus and deep trees read nothing below the function level; the
    # generator displaces along the plan one level above it, once per call
    with mock.patch.object(paf, "midpoint_plan", wraps=midpoint_plan) as spy:
        fn = random_standard_paf(11, 4, 0.5, 0.9, check=False)
    spy.assert_called_once_with(3)
    with mock.patch.object(paf, "midpoint_plan", wraps=midpoint_plan) as spy:
        fn.int_word_table()
        root = fn.corner_values("")
        r = min(root) + (max(root) - min(root)) / 3
        for l in (1, 2):
            tree = LevelSetTree(fn, r, l, 8)
            tree.histograms(8)
            tree.fill_measure(8)
            assert tree.conservation("", 4).passed
        assert fn.refine(fn.level)._numerators == fn._numerators
        assert spy.call_count == 0
        # the spy sees the plan that a certificate below the level reads
        holder_certificate(fn, 0.5, 0.9, fn.level + 1)
        assert spy.call_count == 1
