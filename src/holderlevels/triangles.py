"""Geometry of the Sierpinski subdivision.

A construction triangle is addressed by a word over {0,1,2}: symbol i
selects the child sitting at the parent's vertex i+1 (labels are
inherited through the contraction, so child i and its parent share the
vertex with index i).  The unit triangle has vertices (0,0), (1,0) and
(1/2, sqrt(3)/2); a level-n triangle is the integer cell (row, col) of
the side-2**-n lattice, and its corners lie in the CoordQ3 ring, which
keeps containment and intersection tests exact.

The module also covers the boundary sub-fractal generated by the
level-l triangles touching the outer edges, the similarity onto the
rescaled triangle with vertices (0,0), (2/sqrt(3),0), (1/sqrt(3),1),
and the triangular-lattice counts used by the box-count law.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .exact import SQRT3, CoordQ3, PointQ3, QSqrt3, cross

_VALID_SYMBOLS = frozenset("012")


def check_address(word: str) -> str:
    if not set(word) <= _VALID_SYMBOLS:
        raise ValueError(f"invalid address {word!r}: symbols must be 0, 1 or 2")
    return word


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
    if level < 0:
        raise ValueError(f"level {level} is negative")
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


def lattice_vertices(row: int, col: int, n: int) -> tuple[PointQ3, PointQ3, PointQ3]:
    """Exact corners (row, col), (row, col+1), (row+1, col) at scale 2**-n.

    The lattice point (r, c) is c*u1 + r*u2 with u1 = 2**-n (1, 0) and
    u2 = 2**-n (1/2, sqrt(3)/2), i.e. (2c + r, r*sqrt(3)) / 2**(n+1).
    """
    k, x = n + 1, 2 * col + row
    y = CoordQ3(0, row, k)
    return (PointQ3(CoordQ3(x, 0, k), y), PointQ3(CoordQ3(x + 2, 0, k), y),
            PointQ3(CoordQ3(x + 1, 0, k), CoordQ3(0, row + 1, k)))


def lattice_point(row: int, col: int, n: int) -> PointQ3:
    """The first corner of ``lattice_vertices(row, col, n)``, built alone."""
    k = n + 1
    return PointQ3(CoordQ3(2 * col + row, 0, k), CoordQ3(0, row, k))


# (0,0), (1,0), (1/2, sqrt(3)/2)
ROOT_VERTICES: tuple[PointQ3, PointQ3, PointQ3] = lattice_vertices(0, 0, 0)


def triangle_vertices(word: str) -> tuple[PointQ3, PointQ3, PointQ3]:
    """Exact vertices of the triangle addressed by ``word``.

    Pairwise distances are exactly 2**(-len(word)).
    """
    return lattice_vertices(*delta_lattice_index(word), len(word))


def as_field_pair(point) -> tuple[QSqrt3, QSqrt3]:
    """Lift a point to Q(sqrt(3)) coordinates.

    Accepts a PointQ3 or a pair of QSqrt3 / Fraction values, so points
    outside the dyadic ring (the centroid, for instance) can still be
    tested exactly.
    """
    if isinstance(point, PointQ3):
        return (QSqrt3.from_coord(point.x), QSqrt3.from_coord(point.y))
    x, y = point
    if not isinstance(x, QSqrt3):
        x = QSqrt3(Fraction(x))
    if not isinstance(y, QSqrt3):
        y = QSqrt3(Fraction(y))
    return (x, y)


def _field_cross(ox, oy, px, py, qx, qy) -> QSqrt3:
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


def barycentric_weights(point, vertices) -> tuple[QSqrt3, QSqrt3, QSqrt3]:
    """Exact barycentric coordinates of ``point`` in the triangle."""
    a, b, c = vertices
    if isinstance(point, PointQ3):
        denom = QSqrt3.from_coord(cross(a, b, c))
        wb = QSqrt3.from_coord(cross(a, point, c)) / denom
        wc = QSqrt3.from_coord(cross(a, b, point)) / denom
    else:
        px, py = as_field_pair(point)
        ax, ay = as_field_pair(a)
        bx, by = as_field_pair(b)
        cx, cy = as_field_pair(c)
        denom = _field_cross(ax, ay, bx, by, cx, cy)
        wb = _field_cross(ax, ay, px, py, cx, cy) / denom
        wc = _field_cross(ax, ay, bx, by, px, py) / denom
    wa = QSqrt3(Fraction(1)) - wb - wc
    return (wa, wb, wc)


def lattice_weights(point, row: int, col: int,
                    n: int) -> tuple[Fraction, Fraction, Fraction] | None:
    """Barycentric weights of ``point`` in cell (row, col) at scale 2**-n, or None.

    A PointQ3 whose x has no sqrt(3) part and whose y has no rational
    part has the rational lattice coordinates R = y 2**(n+1) / sqrt(3)
    and C = (x 2**(n+1) - R) / 2, and its weights in the cell are
    (1 - (C - col) - (R - row), C - col, R - row).  Any other point
    gives None; ``barycentric_weights`` covers it.
    """
    if not isinstance(point, PointQ3):
        return None
    x, y = point.x, point.y
    if x.b or y.a:
        return None
    # R and C as integers over 2**k, with k one above both coordinates'
    # exponents so that the halving in C stays integer
    k = max(x.k, y.k) + 1
    r = y.b << (n + 1 + k - y.k)
    c = ((x.a << (n + 1 + k - x.k)) - r) >> 1
    unit = 1 << k
    wc = r - (row << k)
    wb = c - (col << k)
    return (Fraction(unit - wb - wc, unit), Fraction(wb, unit), Fraction(wc, unit))


def contains_point(vertices, point) -> bool:
    """Closed-triangle membership, exact (for a ring point, by cross-product signs)."""
    if not isinstance(point, PointQ3):
        return all(w.sign() >= 0 for w in barycentric_weights(point, vertices))
    a, b, c = vertices
    s = cross(a, b, c).sign()
    return all(s * cross(*t).sign() >= 0
               for t in ((point, b, c), (a, point, c), (a, b, point)))


def locate(point, level: int) -> str:
    """Address of a level-``level`` triangle containing ``point``.

    Ties on shared corners resolve to the smallest symbol, so the result
    is deterministic.  Raises ValueError when the point is outside the
    level-``level`` approximation of the fractal.
    """
    word = []
    row = col = 0
    if not contains_point(ROOT_VERTICES, point):
        raise ValueError(f"point {point} lies outside the unit triangle")
    for n in range(1, level + 1):
        for sym in range(3):
            r, c = lattice_child(row, col, sym)
            if contains_point(lattice_vertices(r, c, n), point):
                word.append(str(sym))
                row, col = r, c
                break
        else:
            raise ValueError(
                f"point {point} is outside the level-{level} approximation"
            )
    return "".join(word)


# ---------------------------------------------------------------------------
# boundary families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFamilyL:
    """The 3*(2**l - 1) level-l triangles with an edge on the outer boundary."""

    l: int
    addresses: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.addresses)


def boundary_family(l: int) -> BoundaryFamilyL:
    """Level-l addresses whose triangle has an edge on the boundary.

    A level-l triangle keeps an edge on the outer edge between root
    vertices i and j exactly when its word uses only the symbols {i, j},
    so the family is enumerated combinatorially; cardinality is
    3*(2**l - 1).
    """
    if l < 1:
        raise ValueError("boundary family needs l >= 1")
    words: set[str] = set()
    for pair in ((0, 1), (0, 2), (1, 2)):
        syms = tuple(str(s) for s in pair)
        for combo in itertools.product(syms, repeat=l):
            words.add("".join(combo))
    out = tuple(sorted(words))
    assert len(out) == 3 * (2**l - 1)
    return BoundaryFamilyL(l=l, addresses=out)


def _edge_on_boundary_lines(p: PointQ3, q: PointQ3) -> bool:
    # bottom: y = 0;  left: sqrt(3)x - y = 0;  right: sqrt(3)x + y = sqrt(3)
    for f in (
        lambda v: v.y,
        lambda v: v.x * SQRT3 - v.y,
        lambda v: v.x * SQRT3 + v.y - SQRT3,
    ):
        if f(p).sign() == 0 and f(q).sign() == 0:
            return True
    return False


def has_boundary_edge(word: str) -> bool:
    """Geometric test: some edge lies on an edge of the unit triangle."""
    vs = triangle_vertices(word)
    return (
        _edge_on_boundary_lines(vs[0], vs[1])
        or _edge_on_boundary_lines(vs[1], vs[2])
        or _edge_on_boundary_lines(vs[0], vs[2])
    )


def iter_subdivision_addresses(n: int, l: int = 1):
    """Addresses of the n-th level of the boundary sub-fractal.

    Words of length n*l obtained by concatenating n boundary words;
    there are (3*(2**l - 1))**n of them.  With l = 1 this is the full
    family of 3**n level-n addresses.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    fam = boundary_family(l).addresses
    for combo in itertools.product(fam, repeat=n):
        yield "".join(combo)


def subdivision_addresses(n: int, l: int = 1, limit: int = 2_000_000) -> list[str]:
    count = (3 * (2**l - 1)) ** n
    if count > limit:
        raise ValueError(f"family of size {count} exceeds materialization limit")
    return list(iter_subdivision_addresses(n, l))


# ---------------------------------------------------------------------------
# the rescaled triangle and its similarity
# ---------------------------------------------------------------------------

RESCALED_VERTICES: tuple[tuple[QSqrt3, QSqrt3], ...] = (
    (QSqrt3(0), QSqrt3(0)),
    (QSqrt3(0, Fraction(2, 3)), QSqrt3(0)),          # (2/sqrt(3), 0)
    (QSqrt3(0, Fraction(1, 3)), QSqrt3(1)),          # (1/sqrt(3), 1)
)


@dataclass(frozen=True)
class Similarity:
    """Affine map x -> M x + t over Q(sqrt(3)), stored exactly."""

    m00: QSqrt3
    m01: QSqrt3
    m10: QSqrt3
    m11: QSqrt3
    t0: QSqrt3
    t1: QSqrt3
    scale_sq: Fraction

    def apply(self, point: PointQ3) -> tuple[QSqrt3, QSqrt3]:
        x = QSqrt3.from_coord(point.x)
        y = QSqrt3.from_coord(point.y)
        return (
            self.m00 * x + self.m01 * y + self.t0,
            self.m10 * x + self.m11 * y + self.t1,
        )

    def apply_height(self, point: PointQ3) -> QSqrt3:
        """Second coordinate of the image only (what the witness needs)."""
        x = QSqrt3.from_coord(point.x)
        y = QSqrt3.from_coord(point.y)
        return self.m10 * x + self.m11 * y + self.t1


def rescaling_similarity(word: str, labels: tuple[int, int, int] = (0, 1, 2)) -> Similarity:
    """Similarity sending the addressed triangle onto the rescaled one.

    ``labels`` picks which corner plays each role: corner ``labels[i]``
    is mapped to rescaled vertex i.  The scale factor is exactly
    2**len(word) * 2/sqrt(3) for any label permutation.
    """
    if sorted(labels) != [0, 1, 2]:
        raise ValueError(f"labels {labels!r} must be a permutation of (0, 1, 2)")
    vs = triangle_vertices(word)
    src = [vs[i] for i in labels]
    s0x, s0y = QSqrt3.from_coord(src[0].x), QSqrt3.from_coord(src[0].y)
    e1 = (QSqrt3.from_coord(src[1].x) - s0x, QSqrt3.from_coord(src[1].y) - s0y)
    e2 = (QSqrt3.from_coord(src[2].x) - s0x, QSqrt3.from_coord(src[2].y) - s0y)
    f1 = (RESCALED_VERTICES[1][0] - RESCALED_VERTICES[0][0],
          RESCALED_VERTICES[1][1] - RESCALED_VERTICES[0][1])
    f2 = (RESCALED_VERTICES[2][0] - RESCALED_VERTICES[0][0],
          RESCALED_VERTICES[2][1] - RESCALED_VERTICES[0][1])
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det.sign() == 0:
        raise ValueError("degenerate label assignment")
    # M [e1 e2] = [f1 f2]  =>  M = [f1 f2] [e1 e2]^{-1}
    inv00 = e2[1] / det
    inv01 = QSqrt3(0) - (e2[0] / det)
    inv10 = QSqrt3(0) - (e1[1] / det)
    inv11 = e1[0] / det
    m00 = f1[0] * inv00 + f2[0] * inv10
    m01 = f1[0] * inv01 + f2[0] * inv11
    m10 = f1[1] * inv00 + f2[1] * inv10
    m11 = f1[1] * inv01 + f2[1] * inv11
    t0 = RESCALED_VERTICES[0][0] - (m00 * s0x + m01 * s0y)
    t1 = RESCALED_VERTICES[0][1] - (m10 * s0x + m11 * s0y)
    n = len(word)
    scale_sq = Fraction(4, 3) * (4**n)
    sim = Similarity(m00, m01, m10, m11, t0, t1, scale_sq)
    # the map must scale every edge by exactly 2**n * 2/sqrt(3)
    for e in (e1, e2):
        img = (m00 * e[0] + m01 * e[1], m10 * e[0] + m11 * e[1])
        lhs = img[0] * img[0] + img[1] * img[1]
        rhs = (e[0] * e[0] + e[1] * e[1]) * QSqrt3(scale_sq)
        assert (lhs - rhs).sign() == 0
    return sim


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
    count = 1
    for e in digits:
        if e == 0:
            count *= 2
        elif e != 1:
            raise ValueError(f"binary digits expected, got {e!r}")
    return count


def rescaled_construction_triangles(level: int):
    """Vertex triples of the rescaled-triangle construction at ``level``.

    The lattice point (row, col) at scale 2**-level maps to col f1 + row f2,
    f1 and f2 the second and third rescaled vertices over 2**level.
    """
    unit, index = 1 << level, level_index(level)
    return [tuple((QSqrt3(0, Fraction(2 * c + r, 3 * unit)), QSqrt3(Fraction(r, unit)))
                  for r, c in cell_corners(*index.cells[i]))
            for i in index.layers[level]]


def _check_line_height(y: Fraction, level: int) -> Fraction:
    y = Fraction(y)
    if not 0 < y < 1:
        raise ValueError("line height must be in (0, 1)")
    if (y * (1 << level)).denominator == 1:
        raise ValueError(
            f"height {y} is dyadic at depth {level}: the line hits lattice vertices"
        )
    return y


def line_crossing_count_geometric(y: Fraction, level: int) -> int:
    """Brute-force count of level-``level`` construction triangles crossed.

    Cross-checks the digit law by exact line/triangle intersection: the
    vertex heights are rational, so the open-interval test is exact.
    """
    y = _check_line_height(y, level)
    count = 0
    for vs in rescaled_construction_triangles(level):
        heights = [v[1].as_fraction() for v in vs]
        if min(heights) < y < max(heights):
            count += 1
    return count


@dataclass(frozen=True)
class LatticeTriangle:
    """One tile of the scaled triangular tiling of the plane.

    Upward tiles at scale n are i*w1 + j*w2 + {0, w1, w2} with
    w1 = 2**-n * (2/sqrt(3), 0) and w2 = 2**-n * (1/sqrt(3), 1); the
    downward tile with the same (row, col) fills the rhombus corner
    {w1, w2, w1+w2}.
    """

    n: int
    row: int
    col: int
    orientation: str  # "up" | "down"

    def vertices(self) -> tuple[tuple[QSqrt3, QSqrt3], ...]:
        s = Fraction(1, 1 << self.n)
        w1 = (QSqrt3(0, Fraction(2, 3) * s), QSqrt3(0))
        w2 = (QSqrt3(0, Fraction(1, 3) * s), QSqrt3(s))
        base = (w1[0] * self.col + w2[0] * self.row,
                w1[1] * self.col + w2[1] * self.row)
        if self.orientation == "up":
            offs = ((QSqrt3(0), QSqrt3(0)), w1, w2)
        elif self.orientation == "down":
            offs = (w1, w2, (w1[0] + w2[0], w1[1] + w2[1]))
        else:
            raise ValueError(f"bad orientation {self.orientation!r}")
        return tuple((base[0] + o[0], base[1] + o[1]) for o in offs)


def _rescaled_tile_index(vx: QSqrt3, vy: QSqrt3, n: int) -> tuple[int, int]:
    """(row, col) of the lattice point at (vx, vy), scale 2**-n."""
    s = Fraction(1, 1 << n)
    row = vy.as_fraction() / s
    # x = col * (2/sqrt(3)) * s + row * (1/sqrt(3)) * s, pure sqrt(3)/3 multiples
    col = (vx - QSqrt3(0, Fraction(1, 3) * s * row)) / QSqrt3(0, Fraction(2, 3) * s)
    row_i, col_i = Fraction(row), col.as_fraction()
    if row_i.denominator != 1 or col_i.denominator != 1:
        raise ValueError("point is not a lattice vertex at this scale")
    return (int(row_i), int(col_i))


def downward_tiles_touched(y: Fraction, level: int) -> set[LatticeTriangle]:
    """Downward lattice tiles meeting the level set of the height function.

    The level set is the line restricted to the fractal; it meets a
    downward tile only at edge-crossing points of crossed construction
    triangles (construction edges stay inside the fractal).  Exposed so
    the at-most-2x discrepancy with the upward count can be observed;
    the exact digit law is asserted for the upward count only.
    """
    y = _check_line_height(y, level)
    touched: set[LatticeTriangle] = set()
    for vs in rescaled_construction_triangles(level):
        heights = [v[1].as_fraction() for v in vs]
        if not (min(heights) < y < max(heights)):
            continue
        for i, j in ((0, 1), (1, 2), (0, 2)):
            hi_, hj_ = heights[i], heights[j]
            if (hi_ - y) * (hj_ - y) >= 0:
                continue
            # neighbor across the crossed edge: reflect the opposite vertex
            k = 3 - i - j
            rx = vs[i][0] + vs[j][0] - vs[k][0]
            ry = vs[i][1] + vs[j][1] - vs[k][1]
            # identify by its bottom vertex: the unique vertex at min height
            pts = [(vs[i][0], vs[i][1]), (vs[j][0], vs[j][1]), (rx, ry)]
            hs = [p[1].as_fraction() for p in pts]
            bottom = pts[hs.index(min(hs))]
            row, col = _rescaled_tile_index(bottom[0], bottom[1], level)
            # bottom vertex of a downward tile is base + w1 => col offset 1
            touched.add(LatticeTriangle(level, row, col - 1, "down"))
    return touched


# ---------------------------------------------------------------------------
# lattice indexing in unit-triangle coordinates (for measure cells)
# ---------------------------------------------------------------------------

_ROW_DIGITS = str.maketrans("012", "001")
_COL_DIGITS = str.maketrans("012", "010")


def delta_lattice_index(word: str) -> tuple[int, int]:
    """(row, col) of a construction triangle in the side-2**-n lattice.

    Basis u1 = 2**-n (1, 0), u2 = 2**-n (1/2, sqrt(3)/2); the first
    vertex of any construction triangle is col*u1 + row*u2.  Each step
    doubles both (``lattice_child``) and symbol 2 adds one to the row,
    symbol 1 to the column, so the row's binary digits mark the word's
    2s and the column's its 1s.
    """
    check_address(word)
    return (int(word.translate(_ROW_DIGITS) or "0", 2),
            int(word.translate(_COL_DIGITS) or "0", 2))


_CELL_NEIGHBOR_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def touching_up_cells(row: int, col: int) -> list[tuple[int, int]]:
    """Upward cells sharing at least one lattice vertex with (row, col)."""
    return [(row + dr, col + dc) for dr, dc in _CELL_NEIGHBOR_OFFSETS]
