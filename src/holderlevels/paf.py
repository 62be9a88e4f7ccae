"""Piecewise affine functions on the Sierpinski triangle.

A function at level n is stored as exact rational values on the vertex
set V_n and extended affinely on every level-n construction triangle.
The "standard" variant has two equal vertex values on every triangle,
obtained by the midpoint-copy subdivision.  Certificates bound the
Holder ratio by exhausting vertex pairs at a chosen depth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import PointQ3, QSqrt3, midpoint
from .triangles import (
    ROOT_VERTICES,
    barycentric_weights,
    check_address,
    lattice_child,
    lattice_vertices,
    locate,
    triangle_vertices,
)


@dataclass(frozen=True)
class HolderParams:
    """Certified constants: |f(x)-f(y)| <= min(c |x-y|**alpha, M |x-y|)."""

    alpha: float
    c: float
    lipschitz: float | None = None

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.c <= 0:
            raise ValueError("the Holder constant must be positive")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise ValueError("the Lipschitz constant must be positive")


def _average(vals, sym: int) -> tuple:
    """Corner values of child ``sym`` of an affine piece: midpoint averages."""
    anchor = vals[sym]
    return tuple((v + anchor) / 2 for v in vals)


class PiecewiseAffineFn:
    """Exact rational vertex table plus affine extension per triangle.

    ``values`` maps each vertex of V_level to its value; it is read-only
    after construction, because the word table below is derived from it
    on first use and never rebuilt.
    """

    def __init__(self, level: int, values: dict[PointQ3, Fraction],
                 standard: bool = False, holder: HolderParams | None = None):
        self.level = level
        self.values = values
        self.standard = standard
        self.holder = holder
        self._words: dict[str, tuple] | None = None

    # -- the corner-value kernel -----------------------------------------

    def _walk(self, depth: int):
        """Pre-order walk over the words of length <= ``depth``.

        Yields (word, vertices, corner values); children are pushed in
        symbol order and popped in reverse, so leaves come out in
        decreasing word order.  At or above the level the values are read
        from ``values``, below it they are midpoint averages.  This is
        the only place that walks the exact geometry (by lattice index)
        to read values.
        """
        stack = [("", 0, 0, ROOT_VERTICES,
                  tuple(self.values[p] for p in ROOT_VERTICES))]
        while stack:
            word, row, col, pts, vals = stack.pop()
            yield word, pts, vals
            n = len(word)
            if n == depth:
                continue
            above = n < self.level
            for sym in range(3):
                r, c = lattice_child(row, col, sym)
                cpts = lattice_vertices(r, c, n + 1)
                if above:
                    cvals = tuple(self.values[p] for p in cpts)
                else:
                    cvals = _average(vals, sym)
                stack.append((word + "012"[sym], r, c, cpts, cvals))

    def _leaves(self, depth: int):
        """(word, vertices, corner values) of the depth-``depth`` triangles."""
        for word, pts, vals in self._walk(depth):
            if len(word) == depth:
                yield word, pts, vals

    def word_table(self) -> dict[str, tuple]:
        """Corner values of every word of length <= level, built once.

        (3**(level+1) - 1) / 2 entries, in the walk's pre-order.
        """
        if self._words is None:
            self._words = {word: vals for word, _, vals in self._walk(self.level)}
        return self._words

    def descend(self, word: str, vals, suffix: str) -> tuple:
        """Corner values of ``word + suffix`` given those of ``word``.

        Steps at or above the level are one table hit; each step below it
        is a midpoint average.
        """
        k = self.level - len(word)
        if k > 0:
            vals = self.word_table()[word + suffix[:k]]
            suffix = suffix[k:]
        for ch in suffix:
            vals = _average(vals, int(ch))
        return vals

    def corner_values(self, word: str) -> tuple[Fraction, Fraction, Fraction]:
        """Values at the three corners of the addressed triangle.

        Down to the function's own level this is a word-table lookup;
        deeper corners are affine combinations, produced by midpoint
        averaging along the address.
        """
        check_address(word)
        return self.descend("", self.word_table()[""], word)

    def eval(self, point) -> Fraction:
        """Exact value by barycentric interpolation.

        Accepts a PointQ3 or a pair of Q(sqrt(3)) coordinates.  Raises
        ValueError when the point is outside the level-n approximation
        or when the exact value has an irrational part (possible for
        points that are not rational combinations of the containing
        triangle's corners).
        """
        word = locate(point, self.level)
        vs = triangle_vertices(word)
        ws = barycentric_weights(point, vs)
        vals = [self.values[p] for p in vs]
        acc = QSqrt3(Fraction(0))
        for w, v in zip(ws, vals):
            acc = acc + w * QSqrt3(v)
        return acc.as_fraction()

    # -- refinement ----------------------------------------------------

    def refine(self, level: int) -> "PiecewiseAffineFn":
        """Same function represented on the finer vertex set."""
        if level < self.level:
            raise ValueError("cannot refine to a coarser level")
        if level == self.level:
            return PiecewiseAffineFn(self.level, dict(self.values),
                                     self.standard, self.holder)
        values: dict[PointQ3, Fraction] = {}
        for _, pts, vals in self._leaves(level):
            for p, v in zip(pts, vals):
                values[p] = v
        return PiecewiseAffineFn(level, values, standard=False, holder=self.holder)

    def standardize(self) -> "PiecewiseAffineFn":
        """Midpoint-copy subdivision, one level down.

        Each triangle with corners v1, v2, v3 and edge midpoints
        v4 = mid(v1,v2), v5 = mid(v2,v3), v6 = mid(v1,v3) gets the new
        values f(v4) = f(v1), f(v5) = f(v2), f(v6) = f(v3), which forces
        a repeated value on every child.  The sup distance to the input
        is at most half the largest per-triangle oscillation.
        """
        values: dict[PointQ3, Fraction] = {}
        for _, (v1, v2, v3), (q1, q2, q3) in self._leaves(self.level):
            values[v1] = q1
            values[v2] = q2
            values[v3] = q3
            values[midpoint(v1, v2)] = q1
            values[midpoint(v2, v3)] = q2
            values[midpoint(v1, v3)] = q3
        return PiecewiseAffineFn(self.level + 1, values, standard=True,
                                 holder=self.holder)

    # -- structure checks ------------------------------------------------

    def iter_triangles(self):
        """Yields (word, corner values) over all level-n triangles."""
        for word, vals in self.word_table().items():
            if len(word) == self.level:
                yield word, vals

    def is_standard(self) -> bool:
        return all(
            q1 == q2 or q2 == q3 or q1 == q3
            for _, (q1, q2, q3) in self.iter_triangles()
        )

    def is_locally_nonconstant(self) -> bool:
        return all(
            not (q1 == q2 == q3) for _, (q1, q2, q3) in self.iter_triangles()
        )

    def oscillation(self) -> Fraction:
        return max(max(v) - min(v) for _, v in self.iter_triangles())

    def lipschitz_sq(self) -> Fraction:
        """Exact square of the Lipschitz constant.

        For an affine piece on an equilateral triangle of side s with
        corner differences d1 = q2-q1, d2 = q3-q1 the gradient norm
        squared is (4/3) (d1**2 - d1 d2 + d2**2) / s**2.
        """
        best = Fraction(0)
        scale = Fraction(4, 3) * (4**self.level)
        for _, (q1, q2, q3) in self.iter_triangles():
            d1 = q2 - q1
            d2 = q3 - q1
            g = scale * (d1 * d1 - d1 * d2 + d2 * d2)
            if g > best:
                best = g
        return best

    def lipschitz(self) -> float:
        return math.sqrt(float(self.lipschitz_sq()))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        ids: dict[PointQ3, str] = {}
        for word, pts, _ in self._leaves(self.level):
            for corner, p in enumerate(pts):
                key = f"{word}:{corner}"
                if p not in ids or key < ids[p]:
                    ids[p] = key
        entries = sorted(
            (ids[p], f"{v.numerator}/{v.denominator}") for p, v in self.values.items()
        )
        return {"level": self.level, "standard": self.standard, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "PiecewiseAffineFn":
        level = int(data["level"])
        values: dict[PointQ3, Fraction] = {}
        for key, frac in data["entries"]:
            word, corner = key.split(":")
            if len(word) != level:
                raise ValueError(f"vertex id {key!r} does not match level {level}")
            point = triangle_vertices(word)[int(corner)]
            values[point] = Fraction(frac)
        return cls(level, values, standard=bool(data.get("standard", False)))


def constant_fn(value: Fraction, level: int = 0) -> PiecewiseAffineFn:
    v = Fraction(value)
    base = PiecewiseAffineFn(0, {p: v for p in ROOT_VERTICES})
    return base.refine(level)


def affine_from_corners(q1: Fraction, q2: Fraction, q3: Fraction,
                        level: int = 0) -> PiecewiseAffineFn:
    """The globally affine function with the given root corner values."""
    vals = {p: Fraction(q) for p, q in zip(ROOT_VERTICES, (q1, q2, q3))}
    return PiecewiseAffineFn(0, vals).refine(level)


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

    @property
    def chained_bound(self) -> float:
        """Bound on the true ratio implied by the vertex-pair maximum.

        Finite-depth exhaustion underestimates the supremum; routing an
        arbitrary pair through nearby vertices inflates the vertex
        maximum by at most (4/sqrt(3))**alpha, which is recorded here.
        """
        return self.max_ratio * self.safety_factor


def _vertex_arrays(fn: PiecewiseAffineFn, depth: int):
    table: dict[PointQ3, Fraction] = {}
    for _, pts, vals in fn._walk(depth):
        for p, v in zip(pts, vals):
            table[p] = v
    points = list(table)
    xs = np.array([float(p.x) for p in points])
    ys = np.array([float(p.y) for p in points])
    vs = np.array([float(table[p]) for p in points])
    return points, xs, ys, vs


_HOLDER_CHUNK = 512


def max_holder_ratio(xs: np.ndarray, ys: np.ndarray, vs: np.ndarray, alpha: float):
    """Max of |vs[i] - vs[j]| / |(xs, ys)[i] - (xs, ys)[j]|**alpha over i != j.

    Returns (maximum, (i, j)) with the first maximising pair in row-major
    order, or (0.0, None) when no ratio is positive; 0/0 counts as 0 and
    a positive difference at zero distance as inf.  Rows are taken
    ``_HOLDER_CHUNK`` at a time to bound the temporaries at
    _HOLDER_CHUNK * len(xs).
    """
    n = len(xs)
    best = 0.0
    pair = None
    for i0 in range(0, n, _HOLDER_CHUNK):
        i1 = min(i0 + _HOLDER_CHUNK, n)
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


def holder_certificate(fn: PiecewiseAffineFn, alpha: float, c: float,
                       depth: int | None = None) -> HolderCertificate:
    """Max of |f(x)-f(y)| / |x-y|**alpha over vertex pairs at ``depth``.

    The certificate passes when the maximum is at most c.  Ratios are
    evaluated in floating point; exact values enter as floats, so the
    result carries the usual 1e-15 relative noise, negligible against
    the chained safety factor.
    """
    if depth is None:
        depth = fn.level + 2
    if depth < fn.level:
        raise ValueError("certificate depth must be at least the function level")
    points, xs, ys, vs = _vertex_arrays(fn, depth)
    best, idx = max_holder_ratio(xs, ys, vs, alpha)
    pair = None if idx is None else (points[idx[0]], points[idx[1]])
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


def _dyadic_uniform(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(_DISP_DENOM + 1), _DISP_DENOM)


def random_standard_paf(seed: int, level: int, alpha: float, c: float,
                        *, check: bool = True) -> PiecewiseAffineFn:
    """Seeded random standard function passing its Holder certificate.

    Midpoint displacement with amplitude shrinking like c * 2**(-k*alpha)
    per level k, followed by the midpoint-copy subdivision; deterministic
    in the seed.  Guarantees a repeated value and a non-constant triple
    on every level-``level`` triangle (a stand-in for generic inputs).

    Displacements at scale 2**-k add about amp * 2**(k alpha) to the
    Holder ratio and their slopes stack geometrically with factor
    2**(1-alpha) per level, so the headroom carries the normalizer
    1 - 2**(alpha-1) to keep the certificate margin uniform in alpha.
    """
    if level < 1:
        raise ValueError("a standard function needs level >= 1")
    if not 0 < c:
        raise ValueError("c must be positive")
    disp_headroom = 0.45 * (1 - 2.0 ** (-(1 - alpha))) if alpha < 1 else 0.1
    failing = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        base_span = Fraction(max(1, int(0.25 * c * _DISP_DENOM)), _DISP_DENOM)
        vals = {}
        while True:
            triple = [_dyadic_uniform(rng, Fraction(0), base_span) for _ in range(3)]
            if len(set(triple)) == 3:
                break
        for p, v in zip(ROOT_VERTICES, triple):
            vals[p] = v
        fn = PiecewiseAffineFn(0, vals)
        ok = True
        for k in range(level - 1):
            amp = Fraction(
                max(1, int(disp_headroom * c * 2.0 ** (-(k + 1) * alpha)
                           * _DISP_DENOM)),
                _DISP_DENOM)
            new_vals: dict[PointQ3, Fraction] = {}
            for _, pts, q in fn._leaves(fn.level):
                for (i, j) in ((0, 1), (1, 2), (0, 2)):
                    m = midpoint(pts[i], pts[j])
                    base_val = (q[i] + q[j]) / 2
                    new_vals[m] = base_val + _dyadic_uniform(rng, -amp, amp)
            merged = dict(fn.values)
            merged.update(new_vals)
            fn = PiecewiseAffineFn(k + 1, merged)
        # every pre-standardize triangle must have three distinct values,
        # otherwise the subdivision cannot be locally non-constant
        for word, v in fn.iter_triangles():
            if len(set(v)) != 3:
                ok = False
                failing = word
                break
        if not ok:
            continue
        out = fn.standardize()
        if check:
            cert = holder_certificate(out, alpha, c, depth=out.level + 1)
            if not cert.passed:
                failing = cert.witness_pair
                continue
            out.holder = HolderParams(alpha, c, lipschitz=out.lipschitz())
        else:
            out.holder = HolderParams(alpha, c)
        return out
    raise ResamplingCapExceeded(
        f"no admissible sample after {_MAX_ATTEMPTS} attempts; last failure: {failing!r}"
    )
