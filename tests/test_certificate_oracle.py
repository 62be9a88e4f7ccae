"""The pruned Holder certificate against the exhaustive float scan.

The references are the certificate path as it was written before the
pruning: the vertex arrays from the ``PointQ3``/``Fraction`` walk
(``walk_oracle``), and
a scan of the full ratio matrix in row chunks that keeps the first
maximum in row-major order.  The pruned kernel must return the same
(maximum, pair) and the integer walk the same arrays, bit for bit.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
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


alphas = st.one_of(st.sampled_from([0.5, 1.0]),
                   st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))


@settings(max_examples=80, deadline=None)
@given(cloud=point_clouds(), alpha=alphas)
def test_max_holder_ratio_matches_full_scan(cloud, alpha):
    xs, ys, vs = cloud
    assert max_holder_ratio(xs, ys, vs, alpha) == oracle_max_holder_ratio(xs, ys, vs, alpha)


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
    assert 0 < sum(seen) < n * (n - 1) // 2 / 4
