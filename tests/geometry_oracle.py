"""Exact-ring geometry, kept as an oracle.

``triangles.locate`` once tested containment level by level with cross
products in the CoordQ3 ring, and ``PiecewiseAffineFn.eval`` and
``GraftedFn.value_in_triangle`` fell back to barycentric weights in
Q(sqrt(3)) for a point off the lattice's rational grid.  Both now read a
point's integer lattice coordinates once (``triangles.lattice_coordinates``);
the tests check them against the exact-ring paths kept here.

The module also holds the geometry only the tests use: the similarity
onto the rescaled triangle, the downward tiles a horizontal line
touches, and the geometric boundary-edge test.
"""

from dataclasses import dataclass
from fractions import Fraction

from holderlevels.exact import SQRT3, CoordQ3, PointQ3, QSqrt3
from holderlevels.triangles import (
    ROOT_VERTICES,
    _check_line_height,
    lattice_child,
    lattice_vertices,
    rescaled_construction_triangles,
    triangle_vertices,
)


def cross(origin: PointQ3, p: PointQ3, q: PointQ3) -> CoordQ3:
    """Signed cross product (p - origin) x (q - origin); exact."""
    ax = p.x - origin.x
    ay = p.y - origin.y
    bx = q.x - origin.x
    by = q.y - origin.y
    return ax * by - ay * bx


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


def contains_point(vertices, point) -> bool:
    """Closed-triangle membership, exact (for a ring point, by cross-product signs)."""
    if not isinstance(point, PointQ3):
        return all(w.sign() >= 0 for w in barycentric_weights(point, vertices))
    a, b, c = vertices
    s = cross(a, b, c).sign()
    return all(s * cross(*t).sign() >= 0
               for t in ((point, b, c), (a, point, c), (a, b, point)))


def locate(point, level: int) -> str:
    """Address of a level-``level`` triangle containing ``point``, by containment tests.

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
