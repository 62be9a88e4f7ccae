"""The pruned Holder certificate against the exhaustive float scan.

The references are the certificate path as it was written before the
pruning: the vertex arrays from the ``PointQ3``/``Fraction`` walk
(``walk_oracle``), and
a scan of the full ratio matrix in row chunks that keeps the first
maximum in row-major order.  A second reference is the branch and bound
the library used before its quadtree: cell pairs of one square grid,
all bounded up front and evaluated in decreasing bound order.  The
pruned kernel must return the same (maximum, pair) and the integer walk
the same arrays, bit for bit.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
import math

import numpy as np
import pytest

from holderlevels import paf
from holderlevels.cantor import cantor_grid
from holderlevels.exact import PointQ3
from holderlevels.paf import (
    holder_certificate,
    max_holder_ratio,
    random_standard_paf,
)
from holderlevels.triangles import lattice_vertices, triangle_vertices

from geometry_oracle import ring
from helpers import affine_from_corners, constant_fn
from walk_oracle import walk

F = Fraction

_CHUNK = 512


def oracle_vertex_arrays(fn, depth: int):
    """Vertices in first-visit order of the exact walk, and their floats."""
    table: dict[PointQ3, Fraction] = {}
    for word, _, _, vals in walk(fn, depth):
        for p, v in zip(triangle_vertices(word), vals):
            table[p] = v
    points = list(table)
    xs = np.array([float(ring(p.x)) for p in points])
    ys = np.array([float(ring(p.y)) for p in points])
    vs = np.array([float(table[p]) for p in points])
    return points, xs, ys, vs


def oracle_max_holder_ratio(xs, ys, vs, alpha: float):
    """Every ratio, ``_CHUNK`` rows at a time; the first maximum in row-major order."""
    n = len(xs)
    best = 0.0
    pair = None
    for i0 in range(0, n, _CHUNK):
        i1 = min(i0 + _CHUNK, n)
        dx = xs[i0:i1, None] - xs[None, :]
        dy = ys[i0:i1, None] - ys[None, :]
        dv = np.abs(vs[i0:i1, None] - vs[None, :])
        dist = np.hypot(dx, dy)
        np.fill_diagonal(dist[:, i0:i1], np.inf)
        with np.errstate(divide="ignore"):
            ratio = np.divide(dv, dist**alpha, out=dv, where=dv > 0)
        idx = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[idx] > best:
            best = float(ratio[idx])
            pair = (i0 + int(idx[0]), int(idx[1]))
    return best, pair


def grid_max_holder_ratio(xs, ys, vs, alpha: float):
    """The branch and bound over cell pairs of a grid of about n / 8 cells."""
    n = len(xs)
    if n < 2:
        return 0.0, None
    k = max(1, math.isqrt(n // 8))
    x0, y0 = xs.min(), ys.min()
    width = max(xs.max() - x0, ys.max() - y0) or 1.0
    cx = np.minimum((xs - x0) * (k / width), k - 1).astype(np.int64)
    cy = np.minimum((ys - y0) * (k / width), k - 1).astype(np.int64)
    cell = cy * k + cx
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    ends = np.r_[starts[1:], n]

    def extent(arr):
        arr = arr[order]
        return np.minimum.reduceat(arr, starts), np.maximum.reduceat(arr, starts)

    (lo_x, hi_x), (lo_y, hi_y), (lo_v, hi_v) = extent(xs), extent(ys), extent(vs)
    a, b = np.triu_indices(len(starts))
    gap = np.hypot(np.maximum(0.0, np.maximum(lo_x[b] - hi_x[a], lo_x[a] - hi_x[b])),
                   np.maximum(0.0, np.maximum(lo_y[b] - hi_y[a], lo_y[a] - hi_y[b])))
    spread = np.maximum(hi_v[a], hi_v[b]) - np.minimum(lo_v[a], lo_v[b])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = spread / gap**alpha * paf._MARGIN
    bound[spread == 0] = 0.0
    visit = np.argsort(-bound, kind="stable")
    a, b, bound = a[visit], b[visit], bound[visit]
    size = ends - starts
    count = size[a] * size[b]               # index pairs generated per cell pair
    done = np.cumsum(count)
    live = np.count_nonzero(bound > 0)      # a zero bound means equal values only
    best, key = 0.0, None
    pos = 0
    while pos < live and bound[pos] >= best:
        budget = done[pos] - count[pos] + (1 << 14)
        stop = min(live, np.count_nonzero(bound >= best),
                   max(pos + 1, np.searchsorted(done, budget)))
        ca, cb, cc = a[pos:stop], b[pos:stop], count[pos:stop]
        owner = np.repeat(np.arange(stop - pos), cc)
        t = np.arange(cc.sum()) - np.repeat(np.cumsum(cc) - cc, cc)
        p, q = np.divmod(t, size[cb][owner])
        i = order[starts[ca][owner] + p]
        j = order[starts[cb][owner] + q]
        keep = (ca != cb)[owner] | (p < q)
        i, j = i[keep], j[keep]
        i, j = np.minimum(i, j), np.maximum(i, j)
        best, key = paf._fold(paf._pair_ratios(xs, ys, vs, i, j, alpha), i, j, n, best, key)
        pos = stop
    return (0.0, None) if key is None else (best, divmod(key, n))


def oracle_certificate(fn, alpha: float, depth: int):
    points, xs, ys, vs = oracle_vertex_arrays(fn, depth)
    best, idx = oracle_max_holder_ratio(xs, ys, vs, alpha)
    return best, None if idx is None else (points[idx[0]], points[idx[1]])


@st.composite
def point_clouds(draw):
    """Up to 600 points: free or on a few spots (coincident points), with
    free values or a few repeated ones (ties, 0/0 pairs, constants)."""
    n = draw(st.one_of(st.integers(0, 31), st.integers(32, 600)))    # one cell, many
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spots = draw(st.sampled_from([None, 3, 40]))
    if spots is None:
        xy = rng.random((2, n))
    else:
        xy = rng.integers(0, spots, (2, n)) / spots
    values = draw(st.sampled_from([None, 1, 2, 5]))
    if values is None:
        vs = rng.normal(size=n)
    else:
        vs = rng.integers(0, values, n) / 4
    return xy[0], xy[1], vs.astype(float)


@st.composite
def cantor_clouds(draw):
    """The endpoint grid of a level-2..5 fat-Cantor stage (64 to 4096 points,
    in clusters), some points repeated (leaves that hold duplicates), with
    values tied along the grid's columns, from a few levels, or free."""
    level = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy = np.array([(float(x), float(y)) for x, y in cantor_grid(lambda x, y: 0, level)])
    xy = np.concatenate([xy, xy[rng.integers(0, len(xy), draw(st.sampled_from([0, 5, 200])))]])
    xy = xy[rng.permutation(len(xy))]
    values = draw(st.sampled_from(["column", 1, 3, None]))
    if values == "column":
        vs = xy[:, 0] / 2
    elif values is None:
        vs = rng.normal(size=len(xy))
    else:
        vs = rng.integers(0, values + 1, len(xy)) / 4
    return xy[:, 0].copy(), xy[:, 1].copy(), vs


alphas = st.one_of(st.sampled_from([0.5, 1.0]),
                   st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))


@settings(max_examples=80, deadline=None)
@given(cloud=point_clouds(), alpha=alphas)
def test_max_holder_ratio_matches_full_scan(cloud, alpha):
    xs, ys, vs = cloud
    want = oracle_max_holder_ratio(xs, ys, vs, alpha)
    assert max_holder_ratio(xs, ys, vs, alpha) == want == grid_max_holder_ratio(xs, ys, vs,
                                                                                 alpha)


@settings(max_examples=25, deadline=None)
@given(cloud=cantor_clouds(), alpha=alphas)
def test_max_holder_ratio_matches_full_scan_on_clustered_grids(cloud, alpha):
    xs, ys, vs = cloud
    want = oracle_max_holder_ratio(xs, ys, vs, alpha)
    assert max_holder_ratio(xs, ys, vs, alpha) == want == grid_max_holder_ratio(xs, ys, vs,
                                                                                 alpha)


@pytest.mark.parametrize("name", ["xs", "ys", "vs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_max_holder_ratio_refuses_non_finite_entries(name, bad):
    arrays = {k: np.linspace(0.0, 1.0, 50) for k in ("xs", "ys", "vs")}
    arrays[name][17] = bad
    with pytest.raises(ValueError, match=rf"{name} must be finite, got {name}\[17\]"):
        max_holder_ratio(arrays["xs"], arrays["ys"], arrays["vs"], 0.5)


def test_max_holder_ratio_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="xs, ys and vs must have one length, got 3, 3 and 2"):
        max_holder_ratio(np.zeros(3), np.zeros(3), np.zeros(2), 0.5)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_generator_certificates_match_oracle(level):
    fn = random_standard_paf(300 + level, level, 0.5, 0.9, check=False)
    # depths L..L+3, but level 5 stops at L+2: at depth 8 (9843 vertices)
    # the exhaustive scan takes about 3 s per alpha
    for depth in range(level, level + (4 if level < 5 else 3)):
        points, xs, ys, vs = oracle_vertex_arrays(fn, depth)
        for alpha in (0.3, 0.5, 0.8, 1.0):
            best, (i, j) = oracle_max_holder_ratio(xs, ys, vs, alpha)
            cert = holder_certificate(fn, alpha, 0.9, depth=depth)
            assert (cert.max_ratio, cert.witness_pair) == (best, (points[i], points[j]))


@pytest.mark.parametrize("depth", [4, 5, 6, 7])
def test_affine_ties_and_constant_match_oracle(depth):
    # at alpha = 1 every pair along the gradient ties for the maximum
    for corners in ((0, 0, 1), (0, 1, 2), (3, -1, 1)):
        f = affine_from_corners(*map(F, corners))
        cert = holder_certificate(f, 1.0, 0.9, depth=depth)
        assert (cert.max_ratio, cert.witness_pair) == oracle_certificate(f, 1.0, depth)
    cert = holder_certificate(constant_fn(F(3), 2), 0.5, 0.9, depth=depth)
    assert (cert.max_ratio, cert.witness_pair) == (0.0, None)


@pytest.mark.parametrize("alpha", [0.4, 0.6])
def test_phase_grid_matches_oracle(alpha):
    grid = cantor_grid(lambda x, y: F(1, 2) * x + F(1, 3) * y * y, 4)
    pts = list(grid)
    xs = np.array([float(p[0]) for p in pts])
    ys = np.array([float(p[1]) for p in pts])
    vs = np.array([float(grid[p]) for p in pts])
    assert max_holder_ratio(xs, ys, vs, alpha) == oracle_max_holder_ratio(xs, ys, vs, alpha)


@pytest.mark.parametrize("level, depth", [(1, 1), (2, 4), (3, 6), (2, 2), (4, 5), (4, 7),
                                          (5, 6)])
def test_vertex_arrays_match_oracle(level, depth):
    fn = random_standard_paf(40 + level, level, 0.8, 0.9, check=False)
    index, xs, ys, vs = paf._vertex_arrays(fn, depth)
    points, oxs, oys, ovs = oracle_vertex_arrays(fn, depth)
    assert [lattice_vertices(int(r), int(c), depth)[0] for r, c in index] == points
    for got, want in ((xs, oxs), (ys, oys), (vs, ovs)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, level", [(500, 3), (501, 4), (502, 4)])
def test_certificate_prunes_most_pairs(monkeypatch, seed, level):
    # the certificates of the benchmark's certify workload
    fn = random_standard_paf(seed, level, 0.5, 0.9)
    seen = []
    evaluate = paf._pair_ratios

    def counted(xs, ys, vs, i, j, alpha):
        seen.append(len(i))
        return evaluate(xs, ys, vs, i, j, alpha)

    monkeypatch.setattr(paf, "_pair_ratios", counted)
    holder_certificate(fn, 0.5, 0.9, depth=level + 3)
    n = (3 ** (level + 4) + 3) // 2
    # the quadtree evaluates 2.4n-3.2n pairs here; cell pairs of one grid took about 30n
    assert 0 < sum(seen) < 8 * n
