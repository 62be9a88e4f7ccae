"""Shared corpus fixtures for the heavier suites."""

import random
from fractions import Fraction

import pytest

from holderlevels.levelset import LevelCollisionError, LevelSetTree
from holderlevels.paf import random_standard_paf

from helpers import fraction_is_locally_nonconstant

CORPUS_ALPHAS = (0.3, 0.5, 0.8)


def corpus_layout(size: int = 100):
    """Deterministic (seed, level, l, alpha) assignments."""
    out = []
    for seed in range(size):
        level = 2 + seed % 5
        l = 1 + seed % 2
        alpha = CORPUS_ALPHAS[seed % 3]
        out.append((seed, level, l, alpha))
    return out


def admissible_levels(fn, l: int, depth: int, count: int, seed: int):
    """Seeded admissible level values inside the root hull, with trees.

    Collisions with vertex values are resampled; each returned entry is
    (r, tree) with the tree extended to ``depth``.
    """
    root_vals = fn.corner_values("")
    lo, hi = min(root_vals), max(root_vals)
    rng = random.Random(seed ^ 0xC0FFEE)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 50 * count:
            raise AssertionError("level sampling failed to converge")
        r = lo + (hi - lo) * Fraction(rng.randrange(1, 3 * 2**24), 3 * 2**24)
        try:
            tree = LevelSetTree(fn, r, l, depth=depth)
        except LevelCollisionError:
            continue
        if tree.root is None:
            continue
        out.append((r, tree))
    return out


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: 100 seeded standard functions with trees.

    Each entry: (fn, l, alpha, depth, [(r, tree) x 20]) where the tree
    depth is 6 subdivision levels for l = 1 and 3 for l = 2 (both reach
    geometric scale 2**-6).  Build time is recorded so runtime-capped
    criteria can account for it.
    """
    import time

    start = time.monotonic()
    entries = []
    for seed, level, l, alpha in corpus_layout(100):
        fn = random_standard_paf(seed, level, alpha, 0.9, check=False)
        assert fn.is_standard() and fraction_is_locally_nonconstant(fn)
        depth = 6 if l == 1 else 3
        pairs = admissible_levels(fn, l, depth, count=20, seed=seed)
        entries.append((fn, l, alpha, depth, pairs))
    entries = CorpusList(entries)
    entries.build_seconds = time.monotonic() - start
    return entries


class CorpusList(list):
    build_seconds = 0.0


@pytest.fixture(scope="session")
def small_corpus():
    """Ten-function slice for module-level property tests."""
    entries = []
    for seed, level, l, alpha in corpus_layout(10):
        fn = random_standard_paf(seed, level, alpha, 0.9, check=False)
        depth = 6 if l == 1 else 3
        pairs = admissible_levels(fn, l, depth, count=5, seed=seed)
        entries.append((fn, l, alpha, depth, pairs))
    return entries
