"""Geometry of the Sierpinski subdivision.

A construction triangle is addressed by a word over {0,1,2}: symbol i
selects the child sitting at the parent's vertex i+1 (labels are
inherited through the contraction, so child i and its parent share the
vertex with index i).  The unit triangle has vertices (0,0), (1,0) and
(1/2, sqrt(3)/2); a level-n triangle is the integer cell (row, col) of
the side-2**-n lattice, and its corners lie in the CoordQ3 ring.  A
point is located and weighted in its cell by its lattice coordinates
R = 2y/sqrt(3) and C = x - R/2, read once as integers over one
denominator; every point the midpoint geometry makes has rational ones.

The module also covers the boundary sub-fractal generated by the
level-l triangles touching the outer edges, horizontal lines across
the rescaled triangle with vertices (0,0), (2/sqrt(3),0), (1/sqrt(3),1),
and the triangular-lattice counts used by the box-count law.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .exact import CoordQ3, PointQ3, QSqrt3

_VALID_SYMBOLS = frozenset("012")


def check_address(word: str) -> str:
    if not isinstance(word, str) or not set(word) <= _VALID_SYMBOLS:
        raise ValueError(f"invalid address {word!r}: an address is a str of the symbols 0, 1, 2")
    return word


def _check_depth(name: str, value, low=0) -> None:
    """Refuse a count (a depth, level, l, k...) that is not an int of at least ``low``, naming it.

    A bool is an int to Python but no count, so it is refused too.  At
    ``low`` -inf any int passes, as a seed does.
    """
    if isinstance(value, int) and not isinstance(value, bool) and value >= low:
        return
    if low > 0:
        raise ValueError(f"need an int {name} >= {low}, got {name}={value!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {name}={value!r}")
    raise ValueError(f"{name} must be non-negative, got {value}")


def _check_interval(name: str, value, low, high, *, low_in: bool = False,
                    high_in: bool = False) -> None:
    """Refuse a value that is no real in the interval from ``low`` to ``high``, naming it.

    Each end is open unless ``low_in`` or ``high_in`` closes it.  A real is
    a ``numbers.Real`` that is not a bool: NaN, None, a str, a Decimal and
    a bool (numpy's too) are refused.  An exact float or int skips the
    slower ``numbers.Real`` check.
    """
    if type(value) in (float, int) or (isinstance(value, numbers.Real)
                                       and not isinstance(value, bool)):
        if ((low <= value if low_in else low < value)
                and (value <= high if high_in else value < high)):
            return
    raise ValueError(f"{name} must lie in {'[' if low_in else '('}{low}, {high}"
                     f"{']' if high_in else ')'}, got {value!r}")


def _rational(name: str, value) -> Fraction:
    """``value`` as a Fraction, or a ValueError naming it: a bool, or what Fraction cannot read."""
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, ArithmeticError):    # None; NaN or a bad string; inf or x/0
            pass
    raise ValueError(f"{name} must be a finite rational, got {value!r}")


def lattice_child(row: int, col: int, symbol: int) -> tuple[int, int]:
    """Cell of child ``symbol`` of (row, col): it keeps corner ``symbol``, whose indices double."""
    return (2 * row + (symbol == 2), 2 * col + (symbol == 1))


def cell_corners(row: int, col: int, s: int = 0) -> tuple[tuple[int, int], ...]:
    """Lattice indices of the corners of cell (row, col), each times 2**s.

    At scale 2**-n the cell's corners are (row, col), (row, col+1) and
    (row+1, col); times 2**s they are the same points at scale 2**-(n+s).
    """
    return ((row << s, col << s), (row << s, (col + 1) << s),
            ((row + 1) << s, col << s))


class LevelIndex(NamedTuple):
    """The words of length <= level and V_level, the same for every function.

    Position i holds the i-th word of the pre-order walk (children taken
    in symbol order 2, 1, 0, so each length's words decrease), its cell at
    scale 2**-len(word), its parent's position (-1 for the root) and its
    corners' positions in ``vertices``: the lattice indices at scale
    2**-level of V_level, in first-visit order.  ``layers[n]`` lists the
    positions of the words of length n.
    """

    words: tuple[str, ...]
    cells: tuple[tuple[int, int], ...]
    parents: tuple[int, ...]
    corners: tuple[tuple[int, int, int], ...]
    vertices: MappingProxyType[tuple[int, int], int]
    layers: tuple[tuple[int, ...], ...]


@functools.cache
def level_index(level: int) -> LevelIndex:
    """The one walk over the lattice of V_``level``, built once per level."""
    _check_depth("level", level)
    words, cells, parents, corners = [], [], [], []
    vertices: dict[tuple[int, int], int] = {}
    layers: list[list[int]] = [[] for _ in range(level + 1)]
    stack = [("", 0, 0, -1)]
    while stack:
        word, row, col, parent = stack.pop()
        s = level - len(word)
        if s:
            stack.extend((word + "012"[sym], *lattice_child(row, col, sym), len(words))
                         for sym in range(3))
        layers[len(word)].append(len(words))
        words.append(word)
        cells.append((row, col))
        parents.append(parent)
        corners.append(tuple(vertices.setdefault(p, len(vertices))
                             for p in cell_corners(row, col, s)))
    return LevelIndex(tuple(words), tuple(cells), tuple(parents), tuple(corners),
                      MappingProxyType(vertices), tuple(map(tuple, layers)))


@functools.cache
def midpoint_plan(depth: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...],
                                       tuple[int, ...]]:
    """(starts, new, ends_a, ends_b): how each vertex of V_``depth`` past V_0 is made.

    Entry j says that vertex new[j] is the midpoint of the parent edge
    from ends_a[j] to ends_b[j], all positions in ``level_index(depth)``'s
    vertex order.  The vertices first met at layer m >= 1 are the entries
    from starts[m] up to starts[m + 1]; their ends are met at earlier
    layers.  Sierpinski cells of one layer share no edge, so each new
    vertex halves exactly one edge: child s of a cell keeps its corner
    s, and for t > s its corner t is the midpoint of the parent's corners
    s and t.  So layer m holds one consecutive triple per level-(m - 1)
    cell, in ``layers[m - 1]`` order, halving its edges (1,2), (0,1),
    (0,2).  Built once per depth and shared by every function.
    """
    index = level_index(depth)
    new, ends_a, ends_b, starts = [], [], [], [0, 0]
    for layer in index.layers[1:]:
        for i in layer:
            s, corners = int(index.words[i][-1]), index.corners[i]
            up = index.corners[index.parents[i]]
            for t in range(s + 1, 3):
                new.append(corners[t])
                ends_a.append(up[s])
                ends_b.append(up[t])
        starts.append(len(new))
    return tuple(starts), tuple(new), tuple(ends_a), tuple(ends_b)


def lattice_point(row: int, col: int, n: int) -> PointQ3:
    """The exact lattice point (row, col) at scale 2**-n.

    It is col*u1 + row*u2 with u1 = 2**-n (1, 0) and
    u2 = 2**-n (1/2, sqrt(3)/2), i.e. (2 col + row, row*sqrt(3)) / 2**(n+1).
    """
    k = n + 1
    return PointQ3(CoordQ3(2 * col + row, 0, k), CoordQ3(0, row, k))


def lattice_vertices(row: int, col: int, n: int) -> tuple[PointQ3, PointQ3, PointQ3]:
    """Exact corners (row, col), (row, col+1), (row+1, col) at scale 2**-n."""
    return tuple(lattice_point(r, c, n) for r, c in cell_corners(row, col))


def triangle_vertices(word: str) -> tuple[PointQ3, PointQ3, PointQ3]:
    """Exact vertices of the triangle addressed by ``word``.

    Pairwise distances are exactly 2**(-len(word)).
    """
    return lattice_vertices(*delta_lattice_index(word), len(word))


def _field_parts(v) -> tuple[Fraction, Fraction]:
    """(p, q) with v = p + q sqrt(3), for a QSqrt3 or a rational."""
    return (v.p, v.q) if isinstance(v, QSqrt3) else (Fraction(v), Fraction(0))


def lattice_coordinates(point) -> tuple[int, int, int]:
    """Integers (a, b, D) with lattice coordinates R = a/D and C = b/D.

    The point is C (1, 0) + R (1/2, sqrt(3)/2): R = 2y/sqrt(3) counts
    rows and C = x - R/2 columns at unit scale.  Accepts a PointQ3, whose
    D is a power of two and costs shifts only, or a pair of QSqrt3 /
    Fraction values; anything else is a ValueError naming the point, and
    so is a point whose x has a sqrt(3) part or y a rational part, that
    is whose R or C is irrational.
    """
    if isinstance(point, PointQ3):
        x, y = point.x, point.y
        if x.b or y.a:
            raise ValueError(f"point {point} has an irrational lattice coordinate")
        k = max(x.k, y.k)
        a = y.b << (k - y.k + 1)
        return (a, (x.a << (k - x.k)) - (a >> 1), 1 << k)
    try:
        (xp, xq), (yp, yq) = map(_field_parts, point)
    except (TypeError, ValueError, ArithmeticError):    # no pair; None, NaN or inf in it
        raise ValueError(f"point {point!r} must be a PointQ3 or a pair of QSqrt3 or "
                         "rational coordinates") from None
    if xq or yp:
        raise ValueError(f"point {point} has an irrational lattice coordinate")
    r, c = 2 * yq, xp - yq
    d = math.lcm(r.denominator, c.denominator)
    return (r.numerator * (d // r.denominator), c.numerator * (d // c.denominator), d)


def lattice_weights(point, row: int, col: int,
                    n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Barycentric weights of ``point`` in cell (row, col) at scale 2**-n.

    With the point's lattice coordinates R and C at that scale the
    weights are (1 - (C - col) - (R - row), C - col, R - row); one is
    negative when the point lies outside the cell.  ValueError for a
    point with an irrational lattice coordinate.
    """
    a, b, d = lattice_coordinates(point)
    wc = (a << n) - row * d
    wb = (b << n) - col * d
    return (Fraction(d - wb - wc, d), Fraction(wb, d), Fraction(wc, d))


def locate(point, level: int) -> str:
    """Address of a level-``level`` triangle containing ``point``.

    Each step doubles the lattice coordinates (a, b) over D and keeps
    the child holding them: child 0 when a + b <= D, child 1 when b >= D
    and child 2 when a >= D, the last two shifted back by D.  Ties on
    shared corners resolve to the smallest symbol, so the result is
    deterministic.  Raises ValueError when the point is outside the
    level-``level`` approximation of the fractal or has an irrational
    lattice coordinate.
    """
    a, b, d = lattice_coordinates(point)
    if a < 0 or b < 0 or a + b > d:
        raise ValueError(f"point {point} lies outside the unit triangle")
    word = []
    for _ in range(level):
        a, b = 2 * a, 2 * b
        if a + b <= d:
            word.append("0")
        elif b >= d:
            word.append("1")
            b -= d
        elif a >= d:
            word.append("2")
            a -= d
        else:
            raise ValueError(
                f"point {point} is outside the level-{level} approximation"
            )
    return "".join(word)


# ---------------------------------------------------------------------------
# boundary families
# ---------------------------------------------------------------------------

def boundary_family(l: int) -> tuple[str, ...]:
    """The sorted level-l addresses whose triangle has an edge on the boundary.

    A level-l triangle keeps an edge on the outer edge between root
    vertices i and j exactly when its word uses only the symbols {i, j},
    so the family is enumerated combinatorially; cardinality is
    3*(2**l - 1).  Built once per l; l is checked before the cache, so
    an unhashable l is refused like any other.
    """
    _check_depth("l", l, 1)
    return _boundary_family(l)


@functools.cache
def _boundary_family(l: int) -> tuple[str, ...]:
    words: set[str] = set()
    for pair in ((0, 1), (0, 2), (1, 2)):
        syms = tuple(str(s) for s in pair)
        for combo in itertools.product(syms, repeat=l):
            words.add("".join(combo))
    out = tuple(sorted(words))
    assert len(out) == 3 * (2**l - 1)
    return out


# ---------------------------------------------------------------------------
# lattice counts for horizontal lines
# ---------------------------------------------------------------------------

def line_crossing_count(digits) -> int:
    """Construction triangles of the rescaled fractal crossed by a line.

    ``digits`` is the binary expansion prefix of the height y.  Working
    down one level per digit: a triangle spans a dyadic height interval;
    digit 1 selects the upper half where only the apex child lives,
    digit 0 the lower half holding two children.  The count after n
    digits is exactly 2**(number of zero digits).
    """
    try:
        digits = iter(digits)
    except TypeError:
        raise ValueError(f"digits must be iterable, got digits={digits!r}") from None
    count = 1
    for e in digits:
        if e == 0:
            count *= 2
        elif e != 1:
            raise ValueError(f"binary digits expected, got {e!r}")
    return count


def _check_line_height(y: Fraction, level: int) -> Fraction:
    _check_depth("level", level)
    y = _rational("line height y", y)
    _check_interval("line height y", y, 0, 1)
    if (y * (1 << level)).denominator == 1:
        raise ValueError(
            f"height {y} is dyadic at depth {level}: the line hits lattice vertices"
        )
    return y


def line_crossing_count_geometric(y: Fraction, level: int) -> int:
    """Brute-force count of level-``level`` construction triangles crossed.

    Cross-checks the digit law by geometry: the rescaled construction
    triangle of cell (row, col) spans the heights row/2**level to
    (row + 1)/2**level, so the line crosses the cells of
    ``level_index(level)`` whose rows straddle y 2**level.
    """
    y = _check_line_height(y, level)
    row = math.floor(y * (1 << level))
    index = level_index(level)
    return sum(index.cells[i][0] == row for i in index.layers[level])


# ---------------------------------------------------------------------------
# lattice indexing in unit-triangle coordinates (for measure cells)
# ---------------------------------------------------------------------------

_ROW_DIGITS = str.maketrans("012", "001")
_COL_DIGITS = str.maketrans("012", "010")


def lattice_index_unchecked(word: str) -> tuple[int, int]:
    """``delta_lattice_index`` of a word already known to be over {0,1,2}."""
    return (int(word.translate(_ROW_DIGITS) or "0", 2),
            int(word.translate(_COL_DIGITS) or "0", 2))


def delta_lattice_index(word: str) -> tuple[int, int]:
    """(row, col) of a construction triangle in the side-2**-n lattice.

    Basis u1 = 2**-n (1, 0), u2 = 2**-n (1/2, sqrt(3)/2); the first
    vertex of any construction triangle is col*u1 + row*u2.  Each step
    doubles both (``lattice_child``) and symbol 2 adds one to the row,
    symbol 1 to the column, so the row's binary digits mark the word's
    2s and the column's its 1s.
    """
    return lattice_index_unchecked(check_address(word))

