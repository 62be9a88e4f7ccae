"""Exact-ring geometry, kept as an oracle.

``triangles.locate`` once tested containment level by level with cross
products in the CoordQ3 ring, and ``PiecewiseAffineFn.eval`` and
``GraftedFn.value_in_triangle`` fell back to barycentric weights in
Q(sqrt(3)) for a point off the lattice's rational grid.  Both now read a
point's integer lattice coordinates once (``triangles.lattice_coordinates``);
the tests check them against the exact-ring paths kept here.

The library's ``CoordQ3`` and ``QSqrt3`` are value types only.  The
ring and field arithmetic, the exact sign and order live here, in
``RingQ3`` and ``FieldQ3``; ``ring`` and ``field`` lift a library value.

The module also holds the geometry only the tests use: the root
triangle's corners, the similarity onto the rescaled triangle and its
construction triangles, the downward tiles a horizontal line touches,
and the geometric boundary-edge test.
"""

from dataclasses import dataclass
from fractions import Fraction

from holderlevels.exact import _SQRT3_FLOAT, CoordQ3, PointQ3, QSqrt3
from holderlevels.triangles import (
    _check_line_height,
    cell_corners,
    lattice_child,
    lattice_vertices,
    level_index,
    triangle_vertices,
)

# (0,0), (1,0), (1/2, sqrt(3)/2)
ROOT_VERTICES: tuple[PointQ3, PointQ3, PointQ3] = lattice_vertices(0, 0, 0)


def _sign(p, q) -> int:
    """Exact sign of p + q sqrt(3); sqrt(3) is irrational, so the value is
    zero only when p == q == 0."""
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    # opposite signs: compare p**2 with 3 q**2
    if p > 0:  # q < 0
        return 1 if p * p > 3 * q * q else -1
    return 1 if p * p < 3 * q * q else -1


class RingQ3(CoordQ3):
    """A CoordQ3 with the ring operations, the exact sign and the order.

    All arithmetic stays inside the ring: addition, subtraction,
    multiplication (the ring is closed because sqrt(3)**2 = 3) and
    scaling by dyadic rationals.  A RingQ3 equals the CoordQ3 of the
    same value.
    """

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "RingQ3":
        value = Fraction(value)
        d = value.denominator
        if d & (d - 1):
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(value.numerator, 0, d.bit_length() - 1)

    def sign(self) -> int:
        return _sign(self.a, self.b)

    def __eq__(self, other):
        if not isinstance(other, CoordQ3):
            return NotImplemented
        return (self.a, self.b, self.k) == (other.a, other.b, other.k)

    def __hash__(self):
        return hash((self.a, self.b, self.k))

    @staticmethod
    def _coerce(other) -> "RingQ3 | None":
        if isinstance(other, CoordQ3):
            return other
        if isinstance(other, int):
            return RingQ3(other, 0, 0)
        if isinstance(other, Fraction):
            return RingQ3.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ring(CoordQ3.__add__(self, other))

    __radd__ = __add__

    def __neg__(self):
        return RingQ3(-self.a, -self.b, self.k)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + RingQ3(-other.a, -other.b, other.k)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = self.a * other.a + 3 * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return RingQ3(a, b, self.k + other.k)

    __rmul__ = __mul__

    def scale_pow2(self, j: int) -> "RingQ3":
        """Multiply by 2**j (j may be negative)."""
        return RingQ3(self.a, self.b, self.k - j)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        scale = 1 << self.k
        return float(Fraction(self.a, scale)) + float(Fraction(self.b, scale)) * _SQRT3_FLOAT


def ring(c: CoordQ3) -> RingQ3:
    """The library value ``c`` with the ring operations."""
    return RingQ3(c.a, c.b, c.k)


SQRT3 = RingQ3(0, 1, 0)


def dist_sq(p: PointQ3, q: PointQ3) -> RingQ3:
    """Exact squared distance between two ring points."""
    dx = ring(p.x) - q.x
    dy = ring(p.y) - q.y
    return dx * dx + dy * dy


class FieldQ3(QSqrt3):
    """A QSqrt3 with the field operations, the exact sign and the order.

    A FieldQ3 equals the QSqrt3 of the same value.
    """

    @classmethod
    def from_coord(cls, c: CoordQ3) -> "FieldQ3":
        scale = 1 << c.k
        return cls(Fraction(c.a, scale), Fraction(c.b, scale))

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self!r} has a nonzero sqrt(3) part")
        return self.p

    def sign(self) -> int:
        return _sign(self.p, self.q)

    def __eq__(self, other):
        if not isinstance(other, QSqrt3):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    @staticmethod
    def _coerce(other) -> "FieldQ3 | None":
        if isinstance(other, (QSqrt3, CoordQ3, int, Fraction)):
            return field(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldQ3(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __neg__(self):
        return FieldQ3(-self.p, -self.q)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldQ3(self.p * other.p + 3 * self.q * other.q,
                       self.p * other.q + self.q * other.p)

    __rmul__ = __mul__

    def inverse(self) -> "FieldQ3":
        norm = self.p * self.p - 3 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(3))")
        return FieldQ3(self.p / norm, -self.q / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.p) + float(self.q) * _SQRT3_FLOAT


def field(v) -> FieldQ3:
    """A QSqrt3, a CoordQ3 or a rational as a FieldQ3."""
    if isinstance(v, FieldQ3):
        return v
    if isinstance(v, QSqrt3):
        return FieldQ3(v.p, v.q)
    if isinstance(v, CoordQ3):
        return FieldQ3.from_coord(v)
    return FieldQ3(Fraction(v))


def cross(origin: PointQ3, p: PointQ3, q: PointQ3) -> RingQ3:
    """Signed cross product (p - origin) x (q - origin); exact."""
    ax = ring(p.x) - origin.x
    ay = ring(p.y) - origin.y
    bx = ring(q.x) - origin.x
    by = ring(q.y) - origin.y
    return ax * by - ay * bx


def as_field_pair(point) -> tuple[FieldQ3, FieldQ3]:
    """Lift a point to Q(sqrt(3)) coordinates.

    Accepts a PointQ3 or a pair of QSqrt3 / Fraction values, so points
    outside the dyadic ring (the centroid, for instance) can still be
    tested exactly.
    """
    if isinstance(point, PointQ3):
        return (field(point.x), field(point.y))
    x, y = point
    return (field(x), field(y))


def _field_cross(ox, oy, px, py, qx, qy) -> FieldQ3:
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


def barycentric_weights(point, vertices) -> tuple[FieldQ3, FieldQ3, FieldQ3]:
    """Exact barycentric coordinates of ``point`` in the triangle."""
    a, b, c = vertices
    if isinstance(point, PointQ3):
        denom = field(cross(a, b, c))
        wb = field(cross(a, point, c)) / denom
        wc = field(cross(a, b, point)) / denom
    else:
        px, py = as_field_pair(point)
        ax, ay = as_field_pair(a)
        bx, by = as_field_pair(b)
        cx, cy = as_field_pair(c)
        denom = _field_cross(ax, ay, bx, by, cx, cy)
        wb = _field_cross(ax, ay, px, py, cx, cy) / denom
        wc = _field_cross(ax, ay, bx, by, px, py) / denom
    wa = FieldQ3(Fraction(1)) - wb - wc
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
        lambda x, y: y,
        lambda x, y: x * SQRT3 - y,
        lambda x, y: x * SQRT3 + y - SQRT3,
    ):
        if f(ring(p.x), ring(p.y)).sign() == 0 and f(ring(q.x), ring(q.y)).sign() == 0:
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


RESCALED_VERTICES: tuple[tuple[FieldQ3, FieldQ3], ...] = (
    (FieldQ3(0), FieldQ3(0)),
    (FieldQ3(0, Fraction(2, 3)), FieldQ3(0)),          # (2/sqrt(3), 0)
    (FieldQ3(0, Fraction(1, 3)), FieldQ3(1)),          # (1/sqrt(3), 1)
)


@dataclass(frozen=True)
class Similarity:
    """Affine map x -> M x + t over Q(sqrt(3)), stored exactly."""

    m00: FieldQ3
    m01: FieldQ3
    m10: FieldQ3
    m11: FieldQ3
    t0: FieldQ3
    t1: FieldQ3
    scale_sq: Fraction

    def apply(self, point: PointQ3) -> tuple[FieldQ3, FieldQ3]:
        x = field(point.x)
        y = field(point.y)
        return (
            self.m00 * x + self.m01 * y + self.t0,
            self.m10 * x + self.m11 * y + self.t1,
        )

    def apply_height(self, point: PointQ3) -> FieldQ3:
        """Second coordinate of the image only (what the witness needs)."""
        x = field(point.x)
        y = field(point.y)
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
    s0x, s0y = field(src[0].x), field(src[0].y)
    e1 = (field(src[1].x) - s0x, field(src[1].y) - s0y)
    e2 = (field(src[2].x) - s0x, field(src[2].y) - s0y)
    f1 = (RESCALED_VERTICES[1][0] - RESCALED_VERTICES[0][0],
          RESCALED_VERTICES[1][1] - RESCALED_VERTICES[0][1])
    f2 = (RESCALED_VERTICES[2][0] - RESCALED_VERTICES[0][0],
          RESCALED_VERTICES[2][1] - RESCALED_VERTICES[0][1])
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det.sign() == 0:
        raise ValueError("degenerate label assignment")
    # M [e1 e2] = [f1 f2]  =>  M = [f1 f2] [e1 e2]^{-1}
    inv00 = e2[1] / det
    inv01 = FieldQ3(0) - (e2[0] / det)
    inv10 = FieldQ3(0) - (e1[1] / det)
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
        rhs = (e[0] * e[0] + e[1] * e[1]) * FieldQ3(scale_sq)
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

    def vertices(self) -> tuple[tuple[FieldQ3, FieldQ3], ...]:
        s = Fraction(1, 1 << self.n)
        w1 = (FieldQ3(0, Fraction(2, 3) * s), FieldQ3(0))
        w2 = (FieldQ3(0, Fraction(1, 3) * s), FieldQ3(s))
        base = (w1[0] * self.col + w2[0] * self.row,
                w1[1] * self.col + w2[1] * self.row)
        if self.orientation == "up":
            offs = ((FieldQ3(0), FieldQ3(0)), w1, w2)
        elif self.orientation == "down":
            offs = (w1, w2, (w1[0] + w2[0], w1[1] + w2[1]))
        else:
            raise ValueError(f"bad orientation {self.orientation!r}")
        return tuple((base[0] + o[0], base[1] + o[1]) for o in offs)


def rescaled_construction_triangles(level: int):
    """Vertex triples of the rescaled-triangle construction at ``level``.

    The lattice point (row, col) at scale 2**-level maps to col f1 + row f2,
    f1 and f2 the second and third rescaled vertices over 2**level.
    """
    unit, index = 1 << level, level_index(level)
    return [tuple((FieldQ3(0, Fraction(2 * c + r, 3 * unit)), FieldQ3(Fraction(r, unit)))
                  for r, c in cell_corners(*index.cells[i]))
            for i in index.layers[level]]


def line_crossing_count_exact(y: Fraction, level: int) -> int:
    """Construction triangles crossed by the line at height y, by exact geometry.

    The vertex heights of the rescaled construction are rational, so the
    open-interval test is exact.
    """
    y = _check_line_height(y, level)
    count = 0
    for vs in rescaled_construction_triangles(level):
        heights = [v[1].as_fraction() for v in vs]
        if min(heights) < y < max(heights):
            count += 1
    return count


def _rescaled_tile_index(vx: FieldQ3, vy: FieldQ3, n: int) -> tuple[int, int]:
    """(row, col) of the lattice point at (vx, vy), scale 2**-n."""
    s = Fraction(1, 1 << n)
    row = vy.as_fraction() / s
    # x = col * (2/sqrt(3)) * s + row * (1/sqrt(3)) * s, pure sqrt(3)/3 multiples
    col = (vx - FieldQ3(0, Fraction(1, 3) * s * row)) / FieldQ3(0, Fraction(2, 3) * s)
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
