"""Cost per operation of single layers, on fixed inputs.

These are the per-operation figures of the traced run, and they re-measure
the baselines ROADMAP item 1 quotes: a ``PointQ3`` midpoint against a
``Fraction`` midpoint, ``triangle_vertices("012012")`` and a level-4
function's tree to depth 6 and to depth 14.  Each figure is the median
over ``REPEATS`` timed batches, each corrected to the reference speed of
``calibrate`` by reference loops run just before and just after it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from calibrate import REFERENCE_S, reference_loop
from holderlevels import bernoulli, exact, levelset, paf, triangles
from holderlevels.graft import graft, min_graft_level

REPEATS = 5


def _reference_time(fn) -> float:
    """Seconds ``fn()`` takes at the reference speed of ``calibrate``."""
    before = reference_loop()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return elapsed * REFERENCE_S / ((before + reference_loop()) / 2)


def _per_call_us(fn, calls: int) -> float:
    def batch():
        for _ in range(calls):
            fn()

    return statistics.median(_reference_time(batch) for _ in range(REPEATS)) / calls * 1e6


def _fraction_midpoint(p, q):
    return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


def run_probes() -> dict[str, float]:
    """Median microseconds per call of each probed operation, plus the trees."""
    out = {}
    a, b, _ = triangles.triangle_vertices("012012")
    out["exact.midpoint_us"] = _per_call_us(lambda: exact.midpoint(a, b), 2000)
    # the same midpoint in rational coordinates (x, y / sqrt(3)): the
    # stdlib reference the exact ring is compared against
    fa = (a.x.to_fraction(), a.y.sqrt3_coefficient())
    fb = (b.x.to_fraction(), b.y.sqrt3_coefficient())
    out["exact.fraction_midpoint_us"] = _per_call_us(lambda: _fraction_midpoint(fa, fb), 2000)
    out["triangles.triangle_vertices_us"] = _per_call_us(
        lambda: triangles.triangle_vertices("012012"), 200)
    out["triangles.delta_lattice_index_us"] = _per_call_us(
        lambda: triangles.delta_lattice_index("012012012012"), 100)

    fn = paf.random_standard_paf(42, 4, 0.5, 0.9, check=False)
    table_word = "0121"[: fn.level]
    affine_word = table_word + "201210"
    out["paf.corner_values_table_us"] = _per_call_us(lambda: fn.corner_values(table_word), 200)
    out["paf.corner_values_affine_us"] = _per_call_us(lambda: fn.corner_values(affine_word), 200)

    witness = bernoulli.BernoulliWitnessFn.for_alpha(0.5, max_depth=48)
    height = Fraction(0b1011011101111011111010101101001101110101, 1 << 40)
    out["bernoulli.value_at_height_us"] = _per_call_us(lambda: witness.value_at_height(height), 200)

    base = paf.random_standard_paf(100, 2, 0.5, 0.1, check=False)
    n_prime = max(min_graft_level(base.lipschitz(), 0.5), base.level)
    gf = graft(base, n_prime, bernoulli.BernoulliWitnessFn.for_alpha(0.5))
    word = ("012" * n_prime)[:n_prime]
    corner = triangles.triangle_vertices(word)[2]
    out["graft.value_in_triangle_us"] = _per_call_us(lambda: gf.value_in_triangle(word, corner), 20)

    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) / 3
    for depth in (6, 14):
        out[f"levelset.probe_tree_d{depth}_ms"] = statistics.median(
            _reference_time(lambda: levelset.LevelSetTree(fn, r, 1, depth=depth))
            for _ in range(3)) * 1e3
    out["levelset.probe_tree_d14_members"] = len(
        levelset.LevelSetTree(fn, r, 1, depth=14).nodes_at(14))
    return out
