"""The integer generator against the Fraction/PointQ3 generator it replaced.

The reference is ``random_standard_paf`` as it was written before the
generator moved to the integer lattice: midpoint displacement on exact
``PointQ3`` vertices with ``Fraction`` values, leaves in decreasing word
order, and the midpoint-copy subdivision by exact ``midpoint``.  The
word table and the Lipschitz constant are read off its vertex table by
exact addresses.  The integer generator must draw the same numbers and
give equal ``values`` in the same key order, the same corner values and
integer word table, and the same Holder parameters, or fail with the
same message.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from holderlevels.exact import midpoint
from holderlevels.paf import (
    HolderParams,
    PiecewiseAffineFn,
    ResamplingCapExceeded,
    holder_certificate,
    random_standard_paf,
)
from holderlevels.triangles import level_index, triangle_vertices

from helpers import point_values
from test_kernel import lattice_index

_DISP_DENOM = 1 << 20
_MAX_ATTEMPTS = 50


def dyadic_uniform(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randrange(_DISP_DENOM + 1), _DISP_DENOM)


def decreasing_words(n: int) -> list[str]:
    return ["".join(w) for w in itertools.product("210", repeat=n)]


def preorder_words(level: int):
    """Words of length <= level, children pushed in symbol order and popped in reverse."""
    stack = [""]
    while stack:
        word = stack.pop()
        yield word
        if len(word) < level:
            stack.extend(word + s for s in "012")


def lipschitz(table: dict, level: int) -> float:
    best = Fraction(0)
    for word, (q1, q2, q3) in table.items():
        if len(word) == level:
            d1, d2 = q2 - q1, q3 - q1
            best = max(best, Fraction(4, 3) * 4**level * (d1 * d1 - d1 * d2 + d2 * d2))
    return math.sqrt(float(best))


def oracle_paf(seed: int, level: int, alpha: float, c: float, check: bool):
    """(values, word table, holder, attempt) of the Fraction/PointQ3 generator."""
    disp_headroom = 0.45 * (1 - 2.0 ** (-(1 - alpha))) if alpha < 1 else 0.1
    failing = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        base_span = Fraction(max(1, int(0.25 * c * _DISP_DENOM)), _DISP_DENOM)
        while True:
            triple = [dyadic_uniform(rng, Fraction(0), base_span) for _ in range(3)]
            if len(set(triple)) == 3:
                break
        values = dict(zip(triangle_vertices(""), triple))
        for k in range(level - 1):
            amp = Fraction(
                max(1, int(disp_headroom * c * 2.0 ** (-(k + 1) * alpha) * _DISP_DENOM)),
                _DISP_DENOM)
            new_vals = {}
            for word in decreasing_words(k):
                pts = triangle_vertices(word)
                q = [values[p] for p in pts]
                for i, j in ((0, 1), (1, 2), (0, 2)):
                    new_vals[midpoint(pts[i], pts[j])] = (
                        (q[i] + q[j]) / 2 + dyadic_uniform(rng, -amp, amp))
            values.update(new_vals)
        leaves = [(w, triangle_vertices(w)) for w in decreasing_words(level - 1)]
        failing = next((w for w, pts in leaves if len({values[p] for p in pts}) != 3), None)
        if failing is not None:
            continue
        std = {}
        for _, (v1, v2, v3) in leaves:
            q1, q2, q3 = values[v1], values[v2], values[v3]
            std[v1], std[v2], std[v3] = q1, q2, q3
            std[midpoint(v1, v2)] = q1
            std[midpoint(v2, v3)] = q2
            std[midpoint(v1, v3)] = q3
        table = {w: tuple(std[p] for p in triangle_vertices(w)) for w in preorder_words(level)}
        if check:
            grid = {lattice_index(p, level): v for p, v in std.items()}
            cert = holder_certificate(PiecewiseAffineFn(level, grid), alpha, c, depth=level + 1)
            if not cert.passed:
                failing = cert.witness_pair
                continue
        return std, table, HolderParams(alpha, c), attempt
    raise ResamplingCapExceeded(
        f"no admissible sample after {_MAX_ATTEMPTS} attempts; last failure: {failing!r}")


def assert_matches_oracle(seed: int, level: int, alpha: float, c: float, check: bool):
    """Compare both generators; return the oracle's attempt, or None if both give up."""
    try:
        values, table, holder, attempt = oracle_paf(seed, level, alpha, c, check)
    except ResamplingCapExceeded as exc:
        with pytest.raises(ResamplingCapExceeded) as info:
            random_standard_paf(seed, level, alpha, c, check=check)
        assert str(info.value) == str(exc)
        return None
    fn = random_standard_paf(seed, level, alpha, c, check=check)
    # only a passed certificate attaches the constants
    assert (fn.level, fn.is_standard(), fn.holder) == (level, True, holder if check else None)
    if check:
        assert fn.lipschitz() == lipschitz(table, level)
    assert list(point_values(fn).items()) == list(values.items())
    assert [(w, fn.corner_values(w)) for w in level_index(level).words] == list(table.items())
    d = math.lcm(*(v.denominator for vals in table.values() for v in vals))
    assert fn.int_word_table() == (d, {w: tuple(v.numerator * (d // v.denominator) for v in vals)
                                       for w, vals in table.items()})
    return attempt


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6),
       st.floats(min_value=0, max_value=1, exclude_min=True),
       st.floats(min_value=0.05, max_value=2.0), st.booleans())
@settings(max_examples=30, deadline=None)
def test_generator_matches_fraction_oracle(seed, level, alpha, c, check):
    assert_matches_oracle(seed, level, alpha, c, check)


def test_certificate_driven_resample_matches_oracle():
    # attempt 0 has three distinct values per triangle but fails its certificate
    assert oracle_paf(3, 3, 1.0, 0.2, check=False)[3] == 0
    assert assert_matches_oracle(3, 3, 1.0, 0.2, True) == 1


def test_resampling_cap_message_matches_oracle():
    assert assert_matches_oracle(0, 3, 0.5, 1e-7, True) is None
