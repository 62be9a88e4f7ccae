"""Piecewise affine functions on the Sierpinski triangle.

A function at level n is stored as exact rational values on the vertex
set V_n and extended affinely on every level-n construction triangle.
The "standard" variant has two equal vertex values on every triangle,
obtained by the midpoint-copy subdivision.  Certificates give the
maximum Holder ratio over all vertex pairs at a chosen depth; a
branch and bound over a quadtree evaluates only the pairs whose node
pair could still hold the maximum.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING

from .exact import _SQRT3_FLOAT, PointQ3
from .triangles import (_check_alpha, _check_depth, _check_positive, cell_corners, check_address,
                        delta_lattice_index, lattice_point, lattice_weights, level_index, locate,
                        midpoint_plan)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class HolderParams:
    """Certified constants: |f(x)-f(y)| <= min(c |x-y|**alpha, M |x-y|), M = fn.lipschitz()."""

    alpha: float
    c: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_positive("c", self.c)


def _vertex_count(level: int) -> int | str:
    """|V_level| = (3**(level+1) + 3)/2; from level 64 on, where no table holds it, the formula."""
    if level < 0:
        raise ValueError(f"level {level} is negative")
    return (3 ** (level + 1) + 3) // 2 if level < 64 else f"(3**{level + 1} + 3)/2"


def _is_cell(level: int, row: int, col: int) -> bool:
    """Whether (row, col) is a level cell: each symbol sets one bit of the row or the column."""
    return row >= 0 and col >= 0 and not row & col and not (row | col) >> level


def _is_vertex(level: int, key) -> bool:
    """Whether ``key`` is a corner (R, C), (R, C+1) or (R+1, C) of a level cell (R, C)."""
    if not (isinstance(key, tuple) and len(key) == 2
            and all(isinstance(v, int) for v in key)):
        return False
    row, col = key
    return (_is_cell(level, row, col) or _is_cell(level, row, col - 1)
            or _is_cell(level, row - 1, col))


def _submasks(mask: int):
    """The submasks of ``mask`` in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = ((sub | ~mask) + 1) & mask


def _sorted_vertices(level: int):
    """V_level's lattice indices in increasing order, by lattice arithmetic alone.

    Row R holds corners 0 and 1 of the cells (R, C), whose columns are the
    submasks of the bits R leaves free, and corner 2 of the cells (R - 1, C).
    """
    top = (1 << level) - 1
    for row in range(top + 2):
        runs = []
        if row <= top:
            runs += [_submasks(top & ~row), (c + 1 for c in _submasks(top & ~row))]
        if row:
            runs.append(_submasks(top & ~(row - 1)))
        last = -1
        for col in heapq.merge(*runs):
            if col != last:
                yield row, col
                last = col


def _check_grid(level: int, grid) -> None:
    """ValueError unless ``grid``'s keys are exactly the vertex indices of V_level.

    Only a grid with |V_level| keys can be valid, and only such a grid is
    compared with the level's lattice index; the stray or missing key of
    any grid is found by lattice arithmetic, without building anything of
    V_level's size.
    """
    _check_depth("level", level, -math.inf)    # a negative level is _vertex_count's to refuse
    if not isinstance(grid, Mapping):
        raise ValueError(f"grid must be a mapping keyed by lattice index, got a "
                         f"{type(grid).__name__}")
    count = _vertex_count(level)
    if len(grid) == count and grid.keys() == level_index(level).vertices.keys():
        return
    stray = next((p for p in grid if not _is_vertex(level, p)), None)
    if stray is not None:
        raise ValueError(f"key {stray!r} is not the lattice index of a vertex of "
                         f"level {level}")
    missing = next(p for p in _sorted_vertices(level) if p not in grid)
    raise ValueError(f"{len(grid)} of the {count} vertices of level {level} "
                     f"have values; {missing!r} has none")


def _midpoint_copy(leaves) -> dict:
    """Vertex table of the midpoint-copy subdivision, one level down.

    ``leaves`` yields ((row, col), corner values) of the level-n cells.  At
    scale 2**-(n+1) a corner's index doubles and the midpoint of two
    corners is the sum of their indices at scale 2**-n; the midpoint of
    corners i and j (edges (0,1), (1,2), (0,2)) copies the value of i.
    """
    grid = {}
    for (row, col), (q1, q2, q3) in leaves:
        r, c = 2 * row, 2 * col
        grid[r, c] = q1
        grid[r, c + 2] = q2
        grid[r + 2, c] = q3
        grid[r, c + 1] = q1
        grid[r + 1, c + 1] = q2
        grid[r + 1, c] = q3
    return grid


class PiecewiseAffineFn:
    """Exact rational vertex table plus affine extension per triangle.

    The one vertex table is integer: D (``_den``), the lcm of the reduced
    values' denominators, and the numerators ``{(row, col): value times D}``
    keyed by the lattice index (row, col) at scale 2**-level of each
    vertex of V_level, the point (2 col + row, row sqrt(3)) / 2**(level+1).
    It is read-only after construction, because the tables derived from
    it are built on first use and never rebuilt: the integer word table of
    ``int_word_table``, whether one of its words has three equal corners
    (``_has_constant_triangle``), and for each boundary parameter l the
    boundary children that the level-set trees compute below each table
    word of length < level (``LevelSetTree._word_loop``), which no level
    value enters.  ``grid`` is a read-only ``Fraction``
    view of the same table in the same key order.  Construction raises
    ValueError unless ``grid``'s keys are exactly the indices of V_level.
    ``holder`` starts as None: only a passed certificate sets it.
    """

    def __init__(self, level: int, grid: dict[tuple[int, int], Fraction]):
        _check_grid(level, grid)
        den = math.lcm(*(v.denominator for v in grid.values()))
        self._init(level, den, {p: v.numerator * (den // v.denominator) for p, v in grid.items()})

    def _init(self, level: int, den: int, numerators: dict, holder: HolderParams | None = None):
        """Set the vertex table and start every table derived from it unbuilt."""
        self.level, self.holder = level, holder
        self._den, self._numerators = den, numerators
        self._grid: MappingProxyType | None = None
        self._int_words: tuple[int, dict[str, tuple]] | None = None
        self._constant: bool | None = None
        self._word_children: dict[int, dict[str, tuple]] = {}
        self._word_splits: dict[int, dict[tuple, tuple]] = {}

    @classmethod
    def _from_ints(cls, level: int, scale: int, values: dict[tuple[int, int], int],
                   holder: HolderParams | None = None) -> "PiecewiseAffineFn":
        """The function with value v / scale at each vertex p of ``values``.

        ``values`` must be keyed by V_level's lattice indices, as every
        table the library builds is.  Dividing scale and values by
        g = gcd(scale, *values) makes the scale the lcm of the reduced
        denominators, the D of the public constructor.
        """
        g = math.gcd(scale, *values.values())
        if g > 1:
            scale //= g
            values = {p: v // g for p, v in values.items()}
        fn = cls.__new__(cls)
        fn._init(level, scale, values, holder)
        return fn

    @property
    def grid(self) -> MappingProxyType:
        """Read-only ``{(row, col): Fraction}`` view of the vertex table, built on first read."""
        if self._grid is None:
            d = self._den
            self._grid = MappingProxyType({p: Fraction(v, d)
                                           for p, v in self._numerators.items()})
        return self._grid

    # -- the corner-value kernel -----------------------------------------

    def int_word_table(self) -> tuple[int, dict[str, tuple]]:
        """(D, {word: its corner values times D}), D the vertex table's scale.

        Built once, over every word of length <= level in
        ``level_index(level)``'s word order, gathered from the vertex
        table by corner position.
        """
        if self._int_words is None:
            d, values = self._int_values(self.level)
            index = level_index(self.level)
            self._int_words = (d, {word: (values[a], values[b], values[c])
                                   for word, (a, b, c) in zip(index.words, index.corners)})
        return self._int_words

    def _has_constant_triangle(self) -> bool:
        """Whether a word of ``int_word_table`` has three equal corners; scanned once."""
        if self._constant is None:
            self._constant = any(v0 == v1 == v2
                                 for v0, v1, v2 in self.int_word_table()[1].values())
        return self._constant

    def _int_values(self, depth: int) -> tuple[int, list[int]]:
        """(S, the values at V_depth times S) in ``level_index(depth)``'s vertex order.

        For depth >= L; S = D 2**(depth - L).  V_L is seeded from the vertex
        table; below L each new vertex is the integer average of the ends
        of the parent edge it halves, one per vertex in the layer order of
        ``midpoint_plan(depth)``.  At depth L no plan is built or read.
        """
        top = depth - self.level
        index = level_index(depth)
        values = [0] * len(index.vertices)
        for (row, col), v in self._numerators.items():
            values[index.vertices[row << top, col << top]] = v << top
        if top:
            starts, new, ends_a, ends_b = midpoint_plan(depth)
            first = starts[self.level + 1]
            for k, a, b in zip(new[first:], ends_a[first:], ends_b[first:]):
                values[k] = (values[a] + values[b]) >> 1
        return self._den << top, values

    def corner_values(self, word: str) -> tuple[Fraction, Fraction, Fraction]:
        """Values at the three corners of the addressed triangle.

        One path at every word length: the integer word table at scale D
        gives the corners of ``word[:level]``, and each further symbol s
        maps them to v + v[s], the midpoint step of ``LevelSetTree.extend``,
        which doubles the scale; one ``Fraction`` per corner is built at
        the end.
        """
        check_address(word)
        denom, table = self.int_word_table()
        vals = table[word[:self.level]]
        for ch in word[self.level:]:
            a = vals[int(ch)]
            vals = (vals[0] + a, vals[1] + a, vals[2] + a)
        denom <<= max(0, len(word) - self.level)
        return tuple(Fraction(v, denom) for v in vals)

    def eval(self, point) -> Fraction:
        """Exact value by barycentric interpolation.

        Accepts a PointQ3 or a pair of QSqrt3 / Fraction coordinates.
        The point's lattice coordinates locate its level-n cell
        (``triangles.locate``) and give its weights there as Fractions
        (``triangles.lattice_weights``).  Raises ValueError when the
        point is outside the level-n approximation or has an irrational
        lattice coordinate (x with a sqrt(3) part or y with a rational
        part).
        """
        row, col = delta_lattice_index(locate(point, self.level))
        ws = lattice_weights(point, row, col, self.level)
        return sum(w * self._numerators[p]
                   for w, p in zip(ws, cell_corners(row, col))) / self._den

    # -- refinement ----------------------------------------------------

    def refine(self, level: int) -> "PiecewiseAffineFn":
        """Same function represented on the finer vertex set.

        At the function's level it is a copy of the vertex table.  Below
        it the values come from ``_int_values``, one integer average per
        new vertex in ``midpoint_plan(level)``'s order, and are keyed in
        the order the level's cells first reach them.  The certificate's
        ``holder`` carries over, since the function is the same.
        """
        _check_depth("level", level, self.level)     # no coarser level
        if level == self.level:
            return PiecewiseAffineFn._from_ints(level, self._den, self._numerators,
                                                self.holder)
        scale, values = self._int_values(level)
        index = level_index(level)
        keys = list(index.vertices)
        # keys in the order the level-``level`` cells first reach them
        grid = {keys[k]: values[k] for i in index.layers[level] for k in index.corners[i]}
        return PiecewiseAffineFn._from_ints(level, scale, grid, holder=self.holder)

    def standardize(self) -> "PiecewiseAffineFn":
        """Midpoint-copy subdivision, one level down.

        Each triangle with corners v1, v2, v3 and edge midpoints
        v4 = mid(v1,v2), v5 = mid(v2,v3), v6 = mid(v1,v3) gets the new
        values f(v4) = f(v1), f(v5) = f(v2), f(v6) = f(v3), which forces
        a repeated value on every child.  The sup distance to the input
        is at most half the largest per-triangle oscillation.  The result
        is another function, which no certificate checked, so its
        ``holder`` is None.
        """
        index = level_index(self.level)
        d, table = self.int_word_table()
        grid = _midpoint_copy((index.cells[i], table[index.words[i]])
                              for i in index.layers[self.level])
        return PiecewiseAffineFn._from_ints(self.level + 1, d, grid)

    # -- structure checks ------------------------------------------------

    def _int_triangles(self):
        """(word, corner values times D) over the level-n triangles, in word-table order."""
        return ((word, vals) for word, vals in self.int_word_table()[1].items()
                if len(word) == self.level)

    def is_standard(self) -> bool:
        return all(q1 == q2 or q2 == q3 or q1 == q3
                   for _, (q1, q2, q3) in self._int_triangles())

    def oscillation(self) -> Fraction:
        return Fraction(max(max(v) - min(v) for _, v in self._int_triangles()), self._den)

    def lipschitz_sq(self) -> Fraction:
        """Exact square of the Lipschitz constant.

        For an affine piece on an equilateral triangle of side s with
        corner differences d1 = q2-q1, d2 = q3-q1 the gradient norm
        squared is (4/3) (d1**2 - d1 d2 + d2**2) / s**2; on the integer
        corners, s = 2**-n and the values carry the scale D.
        """
        top = max((q2 - q1) ** 2 - (q2 - q1) * (q3 - q1) + (q3 - q1) ** 2
                  for _, (q1, q2, q3) in self._int_triangles())
        return Fraction(4 ** (self.level + 1) * top, 3 * self._den ** 2)

    def lipschitz(self) -> float:
        return math.sqrt(float(self.lipschitz_sq()))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Each vertex under its smallest id "word:corner" over the level-n cells."""
        index = level_index(self.level)
        ids: dict[int, str] = {}
        for i in reversed(index.layers[self.level]):    # increasing word order
            for corner, k in enumerate(index.corners[i]):
                ids.setdefault(k, f"{index.words[i]}:{corner}")
        d = self._den
        entries = sorted((ids[index.vertices[p]], f"{v // g}/{d // g}")
                         for p, v in self._numerators.items() for g in (math.gcd(v, d),))
        return {"level": self.level, "standard": self.is_standard(), "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "PiecewiseAffineFn":
        """Inverse of ``to_json``, whose "standard" is read from the table, not the key;
        ValueError unless the entries give V_level exactly once."""
        level = int(data["level"])
        entries = data["entries"]
        # fail before building anything of V_level's size; no list holds 3**64 entries
        count = _vertex_count(level)
        if level >= 64 or len(entries) < count:
            raise ValueError(f"at most {len(entries)} of the {count} vertices of level "
                             f"{level} have values")
        grid: dict[tuple[int, int], Fraction] = {}
        for key, frac in entries:
            word, corner = key.split(":")
            if len(word) != level:
                raise ValueError(f"vertex id {key!r} does not match level {level}")
            if corner not in ("0", "1", "2"):
                raise ValueError(f"vertex id {key!r}: the corner must be 0, 1 or 2")
            p = cell_corners(*delta_lattice_index(word))[int(corner)]
            v = Fraction(frac)
            if grid.setdefault(p, v) != v:
                raise ValueError(f"vertex id {key!r} gives its vertex a second value")
        return cls(level, grid)


# ---------------------------------------------------------------------------
# Holder certificates
# ---------------------------------------------------------------------------

@dataclass
class HolderCertificate:
    alpha: float
    c: float
    depth: int
    max_ratio: float
    witness_pair: tuple[PointQ3, PointQ3] | None
    safety_factor: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.c


@functools.cache
def _vertex_points(depth: int):
    """Lattice indices and floats x, y of V_depth in ``level_index(depth)``'s order.

    Read-only and shared by every function.  Each exact coordinate
    (a + b sqrt(3)) / 2**k is rounded as float(a / 2**k) + float(b / 2**k) * sqrt(3):
    x = (2 col + row) / 2**(depth+1) and y = 0.0 + row / 2**(depth+1) * sqrt(3).
    """
    import numpy as np
    index = np.array(list(level_index(depth).vertices), dtype=np.int64)
    rows, cols = index[:, 0], index[:, 1]
    unit = 2.0 ** (depth + 1)
    xs = (2 * cols + rows) / unit
    ys = rows / unit * _SQRT3_FLOAT
    for arr in (index, xs, ys):
        arr.flags.writeable = False
    return index, xs, ys


def _vertex_arrays(fn: PiecewiseAffineFn, depth: int):
    """Lattice indices, coordinates and values of V_depth, in ``level_index`` order.

    Each value is an int / int true division, rounded like ``float(Fraction)``.
    """
    import numpy as np
    index, xs, ys = _vertex_points(depth)
    scale, values = fn._int_values(depth)
    vs = np.array([v / scale for v in values], dtype=float)
    return index, xs, ys, vs


_MARGIN = 1 + 1e-9          # relative safety margin on a node-pair bound
# the quadtree's leaves are the cells of a grid of at least n cells, the scan
# starts from the node pairs of its level _TOP (the 8-by-8 grid), and a node
# pair of at most _DIRECT_PAIRS index pairs is evaluated, not split.  On the
# scans of one certify benchmark pass (10 calls, 123 to 3282 points; min of
# 25, 2-CPU Xeon, Python 3.11), starts at levels 1-3 and thresholds 4-64 were
# within noise of each other; a start at level 4 took 2.8x as long, and
# leaves of n/4 cells 1.15x
_TOP = 3
_DIRECT_PAIRS = 16
_CHUNK = 1 << 12            # node pairs split per step: bounds memory when ties keep most


def _pair_ratios(xs, ys, vs, i, j, alpha: float) -> np.ndarray:
    """|vs[i] - vs[j]| / |(xs, ys)[i] - (xs, ys)[j]|**alpha per index pair.

    0/0 counts as 0 and a positive difference at zero distance as inf.
    The one place where pair ratios are evaluated.
    """
    import numpy as np
    dist = np.hypot(xs[i] - xs[j], ys[i] - ys[j])
    dv = np.abs(vs[i] - vs[j])
    with np.errstate(divide="ignore"):
        return np.divide(dv, dist**alpha, out=dv, where=dv > 0)


def _fold(ratio, i, j, n: int, best: float, key: int | None):
    """Fold one batch into (best, key), key = i*n + j of the smallest maximising pair."""
    if not len(ratio):
        return best, key
    top = float(ratio.max())
    if top == 0 or top < best:
        return best, key
    hit = ratio == top
    first = int((i[hit] * n + j[hit]).min())
    if top > best:
        return top, first
    return best, min(key, first)


def _quadtree_scan(xs, ys, vs, alpha: float):
    """(best, key) as ``_fold`` leaves it, over node pairs of a quadtree on the points."""
    import numpy as np
    n = len(xs)
    depth = min(16, (n - 1).bit_length() + 1 >> 1)     # 4**depth >= n leaf cells
    side = 1 << depth
    x0, y0 = xs.min(), ys.min()
    scale = side / (max(xs.max() - x0, ys.max() - y0) or 1.0)
    code = 0
    for shift, coords, low in ((0, xs, x0), (1, ys, y0)):
        cell = np.minimum((coords - low) * scale, side - 1).astype(np.int64)
        for step, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
            cell = (cell | cell << step) & mask
        code = code | cell << shift                     # the Morton code of the leaf cell
    order = np.argsort(code, kind="stable")

    # per level, leaves first: each node's first child (a point at the leaves)
    # and child count, first point in Morton order and point count,
    # coordinate and value extents, and the points of least and largest value
    levels = []
    ids, starts, size = code[order], np.arange(n), np.ones(n, np.int64)
    ext = [arr[order] for arr in (xs, xs, ys, ys, vs, vs)]
    extreme = [order, order]
    top = min(depth, _TOP)
    for shift in (0,) + (2,) * (depth - top):
        ids = ids >> shift
        edges = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1], [True])))
        first, children = edges[:-1], np.diff(edges)
        ids, starts, size = ids[first], starts[first], np.add.reduceat(size, first)
        up = [f.reduceat(e, first) for f, e in zip((np.minimum, np.maximum) * 3, ext)]
        for k in (0, 1):            # the first child holding the least, the largest value
            hit = np.flatnonzero(ext[4 + k] == up[4 + k].repeat(children))
            extreme[k] = extreme[k][hit[np.searchsorted(hit, first)]]
        ext = up
        levels.append((first, children, starts, size, ext, *extreme))
    levels.reverse()

    def grid_pairs(na, nb):
        """(row, p, q) over p < na[row], q < nb[row] for every row."""
        count = na * nb
        row = np.arange(len(count)).repeat(count)
        p, q = np.divmod(np.arange(count.sum()) - (np.cumsum(count) - count).repeat(count),
                         nb[row])
        return row, p, q

    best, key = 0.0, None
    todo = [(0, *np.triu_indices(len(levels[0][0])))]   # (level - top, node pairs a <= b)
    while todo:
        level, a, b = todo.pop()
        first, children, starts, size, (lo_x, hi_x, lo_y, hi_y, lo_v, hi_v), low, high = \
            levels[level]
        gap = np.hypot(np.maximum(0.0, np.maximum(lo_x[b] - hi_x[a], lo_x[a] - hi_x[b])),
                       np.maximum(0.0, np.maximum(lo_y[b] - hi_y[a], lo_y[a] - hi_y[b])))
        spread = np.maximum(hi_v[a], hi_v[b]) - np.minimum(lo_v[a], lo_v[b])
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = spread / gap**alpha * _MARGIN
        live = (bound > 0) & (bound >= best)            # a zero bound means equal values only
        direct = (size[a] * size[b] <= _DIRECT_PAIRS) | (level == len(levels) - 1)
        da, db = a[live & direct], b[live & direct]
        live &= ~direct
        a, b, bound = a[live], b[live], bound[live]
        # every index pair of a direct node pair; of the others, the pairs of
        # extreme values, whose ratios raise the best before the split
        row, p, q = grid_pairs(size[da], size[db])
        i, j = starts[da][row] + p, starts[db][row] + q
        keep = i < j
        i = np.concatenate((order[i[keep]], low[a], high[a]))
        j = np.concatenate((order[j[keep]], high[b], low[b]))
        i, j = np.minimum(i, j), np.maximum(i, j)
        best, key = _fold(_pair_ratios(xs, ys, vs, i, j, alpha), i, j, n, best, key)
        split = bound >= best
        if split.any():
            a, b = a[split], b[split]
            row, p, q = grid_pairs(children[a], children[b])
            a, b = first[a][row] + p, first[b][row] + q
            keep = a <= b
            a, b = a[keep], b[keep]
            todo.extend((level + 1, a[k:k + _CHUNK], b[k:k + _CHUNK])
                        for k in reversed(range(0, len(a), _CHUNK)))
    return best, key


def max_holder_ratio(xs: np.ndarray, ys: np.ndarray, vs: np.ndarray, alpha: float):
    """Max of |vs[i] - vs[j]| / |(xs, ys)[i] - (xs, ys)[j]|**alpha over i != j.

    Returns (maximum, (i, j)) with the smallest maximising pair, i < j,
    or (0.0, None) when no ratio is positive; 0/0 counts as 0 and a
    positive difference at zero distance as inf.  The ratio is exactly
    symmetric, so the pair is also the first maximum in row-major order.
    Raises ValueError unless the three arrays have one length and finite
    entries.

    Exact branch and bound over a quadtree: the points are sorted by the
    Morton code of their cell in a grid of at least n cells, and each
    node holds the bounding box and value range of its points.  No pair
    across two nodes has a ratio above (value range of the union) / (gap
    of the bounding boxes)**alpha, taken times 1 + 1e-9 against rounding
    in the pair's own float ops; a zero gap bounds by inf.  From the node
    pairs of the 8-by-8 grid on, a node pair whose bound is below the
    best ratio found is dropped, one of at most ``_DIRECT_PAIRS`` index
    pairs (or of two leaves) is evaluated pair by pair, and any other
    first evaluates its two pairs of extreme values (least in one node,
    largest in the other), then splits into its child pairs.
    """
    n = len(xs)
    if not len(ys) == len(vs) == n:
        raise ValueError(f"xs, ys and vs must have one length, got {n}, {len(ys)} and {len(vs)}")
    for name, arr in (("xs", xs), ("ys", ys), ("vs", vs)):
        if n and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            k, bad = next((k, v) for k, v in enumerate(arr) if not math.isfinite(v))
            raise ValueError(f"{name} must be finite, got {name}[{k}] = {float(bad)}")
    if n < 2:
        return 0.0, None
    best, key = _quadtree_scan(xs, ys, vs, alpha)
    return (0.0, None) if key is None else (best, divmod(key, n))


def holder_certificate(fn: PiecewiseAffineFn, alpha: float, c: float,
                       depth: int) -> HolderCertificate:
    """Max of |f(x)-f(y)| / |x-y|**alpha over vertex pairs at ``depth``.

    The certificate passes when the maximum is at most c.  Ratios are
    evaluated in floating point; exact values enter as floats, so the
    result carries the usual 1e-15 relative noise, negligible against
    the chained safety factor.  The maximum is exact over all pairs:
    ``max_holder_ratio``'s quadtree skips only node pairs whose bound,
    with its 1e-9 relative margin, is below a ratio already found, and
    evaluates 2 to 3 pairs per vertex at depth level + 3.  The witness
    is the maximising pair with the smallest vertex indices, in
    ``level_index(depth)``'s vertex order.  Raises ValueError unless
    alpha lies in (0, 1], c is positive and finite and depth is an int
    no smaller than the function level.
    """
    _check_alpha(alpha)
    _check_positive("c", c)
    _check_depth("depth", depth, fn.level)
    index, xs, ys, vs = _vertex_arrays(fn, depth)
    best, idx = max_holder_ratio(xs, ys, vs, alpha)
    pair = None if idx is None else tuple(
        lattice_point(int(index[t, 0]), int(index[t, 1]), depth) for t in idx)
    return HolderCertificate(
        alpha=alpha, c=c, depth=depth, max_ratio=best, witness_pair=pair,
        safety_factor=(4.0 / math.sqrt(3.0)) ** alpha,
    )


# ---------------------------------------------------------------------------
# seeded generator
# ---------------------------------------------------------------------------

class ResamplingCapExceeded(RuntimeError):
    pass


_DISP_BITS = 20
_DISP_DENOM = 1 << _DISP_BITS
_MAX_ATTEMPTS = 50


def random_standard_paf(seed: int, level: int, alpha: float, c: float,
                        *, check: bool = True) -> PiecewiseAffineFn:
    """Seeded random standard function passing its Holder certificate.

    Midpoint displacement with amplitude shrinking like c * 2**(-k*alpha)
    per level k, followed by the midpoint-copy subdivision of
    ``standardize()``; deterministic in the seed.  Guarantees a repeated
    value and a non-constant triple on every level-``level`` triangle (a
    stand-in for generic inputs).

    Displacements at scale 2**-k add about amp * 2**(k alpha) to the
    Holder ratio and their slopes stack geometrically with factor
    2**(1-alpha) per level, so the headroom carries the normalizer
    1 - 2**(alpha-1) to keep the certificate margin uniform in alpha.

    The displacement is integer: values are numerators over
    2**(40 + level - 1) in ``level_index(level - 1)``'s vertex order
    (root values and displacements are multiples of 2**-40, and each
    level's midpoint averages halve once).  Each new vertex is the
    average of the ends of the edge it halves plus its displacement,
    layer by layer along ``midpoint_plan(level - 1)``.  The cells of each
    level draw in the decreasing word order of ``level_index(level - 1)``,
    edges (0,1), (1,2), (0,2), one draw each.  ``standardize()`` then
    subdivides the integers as they are, with no ``Fraction``.
    ``holder`` is (alpha, c) once the certificate passed; with
    ``check=False`` nothing is certified and ``holder`` is None.
    """
    _check_depth("seed", seed, -math.inf)
    _check_depth("level", level, 1)
    _check_positive("c", c)
    _check_alpha(alpha)
    disp_headroom = 0.45 * (1 - 2.0 ** (-(1 - alpha))) if alpha < 1 else 0.1
    top = level - 1
    index = level_index(top)
    denom = 1 << (2 * _DISP_BITS + top)
    base_span = max(1, int(0.25 * c * _DISP_DENOM))
    amps = [max(1, int(disp_headroom * c * 2.0 ** (-(k + 1) * alpha) * _DISP_DENOM))
            for k in range(top)]
    starts, new, ends_a, ends_b = midpoint_plan(top)
    failing = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        while True:
            triple = [rng.randrange(_DISP_DENOM + 1) for _ in range(3)]
            if len(set(triple)) == 3:
                break
        values = [0] * len(index.vertices)
        values[:3] = [(base_span * u) << top for u in triple]
        for k, amp in enumerate(amps):
            first, last = starts[k + 1], starts[k + 2]
            us = [rng.randrange(_DISP_DENOM + 1) for _ in range(first, last)]
            # each cell's triple halves (1,2), (0,1), (0,2); its draws come (0,1), (1,2), (0,2)
            us[0::3], us[1::3] = us[1::3], us[0::3]
            for m, a, b, u in zip(new[first:last], ends_a[first:last], ends_b[first:last], us):
                values[m] = ((values[a] + values[b]) >> 1) + ((amp * (2 * u - _DISP_DENOM)) << top)
        base = PiecewiseAffineFn._from_ints(top, denom, dict(zip(index.vertices, values)))
        # every pre-standardize triangle must have three distinct values,
        # otherwise the subdivision cannot be locally non-constant
        failing = next((w for w, q in base._int_triangles() if len(set(q)) != 3), None)
        if failing is not None:
            continue
        out = base.standardize()
        if check:
            cert = holder_certificate(out, alpha, c, depth=out.level + 1)
            if not cert.passed:
                failing = cert.witness_pair
                continue
            out.holder = HolderParams(alpha, c)
        return out
    raise ResamplingCapExceeded(
        f"no admissible sample after {_MAX_ATTEMPTS} attempts; last failure: {failing!r}"
    )
