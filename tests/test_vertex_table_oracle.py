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
"""

import ast
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels.exact import midpoint
from holderlevels.levelset import LevelCollisionError, LevelValue
from holderlevels.paf import PiecewiseAffineFn, random_standard_paf
from holderlevels.triangles import lattice_point, lattice_vertices

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
