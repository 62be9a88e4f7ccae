"""Bound formulas, feasibility search, slopes, mass distribution.

The mass distribution has three references.  The first refills the
measure at every checked depth and gathers, for every cell touching a
member, the masses of the members touching it.  The second is the
per-member scatter the program ran before it read the runs' line
summaries: every depth-n member, in ``nodes_at(n)`` order, adds its
mass to the cells it touches, and the first cell of the largest mass in
that order is the worst cell.  The third is the block walk the program
ran before it read each run's windows and seams in closed form from its
K (``_run_walks``, ``walk_report``).  The worst cell has one more: the
pruned descent of one run that the program ran before it read the
six line positions of ``_window_members`` (``_heavy_members``).
"""

import functools
import itertools
import math
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from holderlevels import bounds
from holderlevels.bounds import (
    BoundSearchParams,
    MassDistributionReport,
    _run_windows,
    _scatter,
    box_count_dimension,
    census_constant,
    default_d1,
    feasible_l,
    lcondition_lhs,
    lower_bound,
    mass_distribution_lower,
    trivial_upper_bound_sierpinski,
    upper_bound,
)
from holderlevels.levelset import LevelCollisionError, LevelSetTree
from holderlevels.paf import random_standard_paf
from holderlevels.runs import _block_cell, _block_summary, _blocks, _digit_counts
from holderlevels.triangles import delta_lattice_index
from helpers import (affine_from_corners, chain_lcms, lchoice_window, member_blocks,
                     oracle_block_cells, oracle_digit_blocks, run_blocks, touching_up_cells)
from test_floor import DEEP, FEASIBLE, FOUND, Q20, Q40, third_up
from test_kernel import corpus_fn
from test_structure_oracle import generic_fn

F = Fraction
# R: a run's members fewer than R cell layers from a corner of its region
# are the ones a cell touched by another run can touch, the members
# runs._corner_cells reads (mass_distribution_lower)
_SEAM_LAYERS = 2


def test_lower_bound_values():
    assert lower_bound(1.0) == pytest.approx(0.08295, abs=5e-5)
    assert lower_bound(0.5) == pytest.approx(0.02769, abs=5e-5)
    big = lower_bound(1.0, "big")
    assert abs(float(big) - lower_bound(1.0)) < 1e-14
    with pytest.raises(ValueError):
        lower_bound(0.0)


# each bound is one formula evaluated in both precisions; from alpha =
# 1e-150 up the double results are normal floats (the lower bound is
# about alpha**2/4), so a relative comparison is meaningful
@given(st.floats(min_value=1e-150, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_bounds_agree_between_precisions(alpha):
    lo, up = float(lower_bound(alpha, "big")), float(upper_bound(alpha, "big"))
    triv = float(trivial_upper_bound_sierpinski("big"))
    assert abs(lower_bound(alpha) - lo) <= 1e-15 * lo
    assert abs(trivial_upper_bound_sierpinski() - triv) <= 1e-15 * triv
    # 1 - 2**-alpha cancels in double precision: its error stays below
    # 1e-15 absolutely but not relatively as alpha -> 0 (3.8e-15 relative
    # at alpha = 0.01); for alpha >= 1/2 the value is at least 0.29
    assert abs(upper_bound(alpha) - up) <= 1e-15
    if alpha >= 0.5:
        assert abs(upper_bound(alpha) - up) <= 1e-15 * up


def test_box_count_rejects_non_binary_digits():
    for digits in ([2, 0, 3, 1], [2, 0], [0, 1, -1], [0, 0.5]):
        with pytest.raises(ValueError, match="binary digits expected"):
            box_count_dimension(digits)
    # booleans are binary digits, as in line_crossing_count
    assert box_count_dimension([True, False]).log2_counts.tolist() == [0, 1]


class Bit(int):
    """An int subclass: its digits take the list path, 1 - e for each."""


def _estimate(digits):
    est = box_count_dimension(digits)
    return (est.slope.hex(), est.residual.hex(), est.empty, est.levels.dtype,
            est.levels.tolist(), est.log2_counts.dtype, est.log2_counts.tolist())


def test_box_count_reads_int_digits_from_one_buffer_as_from_the_list():
    rng = random.Random(5)
    streams = [[rng.randrange(2) for _ in range(n)] for n in (1, 2, 3, 7, 1000)]
    streams += [[0] * n for n in (1, 2, 300)] + [[1] * n for n in (1, 2, 300)]
    for digits in streams:
        listed = _estimate([Bit(e) for e in digits])
        assert listed[5] == np.int64
        assert _estimate(digits) == listed
        assert _estimate([bool(e) for e in digits]) == listed
        assert _estimate([np.int64(e) for e in digits]) == listed
        assert _estimate([e if i % 2 else bool(e) for i, e in enumerate(digits)]) == listed
        # unsigned numpy digits keep the unsigned counts numpy sums them to
        unsigned = box_count_dimension([np.uint8(e) for e in digits]).log2_counts
        assert unsigned.dtype == np.uint64 and unsigned.tolist() == listed[6]
    # float digits count in floats; the rest are refused by name
    assert box_count_dimension([0.0, 1.0]).log2_counts.dtype == np.float64
    assert box_count_dimension([0.0, 1.0]).log2_counts.tolist() == [1.0, 1.0]
    for bad, name in ((2, "2"), (256, "256"), (-1, "-1"), ("a", "'a'"), (None, "None")):
        with pytest.raises(ValueError, match=f"binary digits expected, got {name}$"):
            box_count_dimension([0, 1, bad, 1])


def test_lower_bound_vanishes_at_zero():
    values = [lower_bound(10.0**-k) for k in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-6


def test_upper_bound_values():
    assert upper_bound(1.0) == 0.5
    assert upper_bound(0.5) == pytest.approx(1 - 2**-0.5)
    assert upper_bound(0.01) < 0.01


def test_trivial_bound_digits():
    assert trivial_upper_bound_sierpinski() == pytest.approx(0.584962500721, abs=1e-11)
    big = trivial_upper_bound_sierpinski("big")
    assert abs(float(big) - math.log2(3) + 1) < 1e-15


def test_importing_the_package_leaves_mpmath_unloaded():
    # only the precision="big" paths import mpmath, when they run
    code = ("import sys, holderlevels; from holderlevels.bounds import upper_bound; "
            "print('mpmath' in sys.modules); big = upper_bound(1.0, 'big'); "
            "print('mpmath' in sys.modules, type(big).__name__, float(big))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True mpf 0.5"]


# small variants of the README commands that run no float kernel
NUMPY_FREE_COMMANDS = [
    "bounds --grid 0.1:0.9:3 --out bounds.csv",
    "bounds --grid 1.0 --precision big",
    "levelset --seed 42 --depth 3 --l 1 --r-count 2 --out ls.csv --json-out ls.json",
    "conductivity-hist --seed 7 --depth 3 --d1 1/2 --census-out census.csv",
    "cantor --depth 4 --capacity-alphas 0.55:1.0:2 --capacity-out capacity.csv",
    "phase --alpha 0.4",
]


@pytest.mark.parametrize("code, loads", [
    ("pass", False),
    ("assert [holderlevels.cli.main(a.split()) for a in %r] == [0] * 6"
     % NUMPY_FREE_COMMANDS, False),
    # the positive controls: each float kernel imports numpy when it runs
    ("holder_certificate(random_standard_paf(1, 2, 0.5, 0.9, check=False), 0.5, 0.9, 3)",
     True),
    ("box_count_dimension([0, 1, 1, 0])", True),
], ids=["import", "readme_commands", "holder_certificate", "box_count_dimension"])
def test_only_the_float_kernels_load_numpy(tmp_path, code, loads):
    # run after importing the package and its CLI, in a fresh process
    script = ("import contextlib, io, os, sys, holderlevels, holderlevels.cli\n"
              "from holderlevels import *\n"
              "assert 'numpy' not in sys.modules\n"
              "os.chdir(sys.argv[1])\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    {code}\n"
              "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loads}\n"


def test_bounds_monotone_and_ordered():
    grid = [i / 1000 for i in range(1, 1000)]
    lows = [lower_bound(a) for a in grid]
    ups = [upper_bound(a) for a in grid]
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert all(a < b for a, b in zip(ups, ups[1:]))
    tri = trivial_upper_bound_sierpinski()
    assert all(0 < lo < up < 1 for lo, up in zip(lows, ups))
    assert all(up < tri or a > math.log2(1 / (2 - math.log2(3)))
               for a, up in zip(grid, ups))


def test_upper_vs_trivial_crossover():
    # 1 - 2**-alpha < log2(3) - 1 below the crossover exponent, which sits
    # beyond 1, so the witness bound wins on the whole admissible range
    cross = math.log2(1 / (2 - math.log2(3)))
    assert cross > 1
    tri = trivial_upper_bound_sierpinski()
    assert all(upper_bound(i / 100) < tri for i in range(1, 101))


def test_feasible_l_example():
    assert lcondition_lhs(1.0, F(1, 2)) == pytest.approx(5.0277, abs=2e-4)
    assert feasible_l(1.0, F(1, 2)) == 6
    assert census_constant(1.0, F(1, 2), 6) < 1
    with pytest.raises(ValueError):
        feasible_l(1.0, F(1, 1))


def test_feasible_l_diverges_near_alpha():
    assert feasible_l(1.0, F(99, 100)) > 100


def test_lcondition_iff_relaxed_constant():
    # the feasibility inequality is exactly c < 1 with 2**l in place of 2**l - 1
    rng = random.Random(3)
    cases = 0
    while cases < 50:
        alpha = rng.uniform(0.05, 1.0)
        d1 = F(rng.randrange(1, 64), 64)
        if not 0 < d1 < alpha:
            continue
        cases += 1
        for l in range(1, 12):
            lhs_ok = lcondition_lhs(alpha, d1) < l
            relaxed = (math.e / float(d1)) ** float(d1) * (3 * 2**l) ** float(d1) \
                * 2.0 ** (1 - float(d1) - l * alpha)
            relaxed_ok = relaxed < 1
            assert lhs_ok == relaxed_ok, (alpha, d1, l)
            if lhs_ok:
                assert census_constant(alpha, d1, l) < 1


def test_lchoice_window_contains_feasible_l():
    for alpha in (0.3, 0.5, 1.0):
        lo, hi = lchoice_window(alpha)
        d1 = default_d1(alpha)
        l = feasible_l(alpha, d1)
        assert l <= math.floor(hi) + 1


def test_default_d1():
    assert default_d1(1.0) == F(1, 2)
    assert default_d1(0.5) == F(1, 4)
    d1 = default_d1(0.3)
    assert 0 < d1 < 0.3 and d1.denominator <= 64


def test_bound_search_params():
    p = BoundSearchParams.for_alpha(1.0)
    assert p.d1 == F(1, 2) and p.l == 6 and p.q == 2
    assert p.s == F(1, 12)
    assert p.feasible
    with pytest.raises(ValueError):
        BoundSearchParams(alpha=0.5, d1=F(3, 4), l=3)


def test_s_close_to_closed_form_bound():
    # with d1 = alpha/2 and the window l the certified s tracks the bound
    for alpha in (1.0, 0.5):
        p = BoundSearchParams.for_alpha(alpha)
        assert float(p.s) == pytest.approx(lower_bound(alpha), rel=0.05)


def test_box_count_exact_cases():
    allzero = box_count_dimension([0] * 300)
    assert allzero.slope == pytest.approx(1.0)
    assert allzero.residual == pytest.approx(0.0, abs=1e-9)
    allone = box_count_dimension([1] * 300)
    assert allone.slope == pytest.approx(0.0)
    empty = box_count_dimension([])
    assert empty.empty and empty.slope == 0.0
    assert 0 <= allzero.slope <= 2


def test_box_count_counts_property():
    est = box_count_dimension([1, 0, 1, 0, 0])
    assert [1 << int(z) for z in est.log2_counts] == [1, 2, 2, 4, 8]


def test_box_count_witness_slopes():
    for alpha in (0.3, 0.5, 0.8):
        p = 2.0**-alpha
        slopes = []
        for t in range(20):
            rng = random.Random(1000 + t)
            digs = [1 if rng.random() < p else 0 for _ in range(1000)]
            slopes.append(box_count_dimension(digs).slope)
        mean = sum(slopes) / len(slopes)
        assert mean == pytest.approx(1 - p, abs=0.02)


def test_mass_distribution_unique_chain():
    ramp = affine_from_corners(F(0), F(0), F(1), level=1)
    params = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)
    rep = mass_distribution_lower(ramp, F(9, 10), params, n_prime_max=2)
    # the single extreme chain keeps mass 1 = its conductivity, so the
    # empirical constant is exactly 2**(n d1) at the deepest level
    assert rep.s == F(1, 2)
    assert rep.c_empirical == pytest.approx(2.0 ** (4 * 0.5))
    assert rep.verified  # 4 stays under the cap of 8
    assert rep.worst_cell is not None and rep.worst_level == 4
    # C grows with the depth: 64/9 = 7.11 at n' = 4 stays under the cap,
    # 256/27 = 9.48 at n' = 5 exceeds it
    assert mass_distribution_lower(ramp, F(9, 10), params, n_prime_max=4).verified
    assert not mass_distribution_lower(ramp, F(9, 10), params, n_prime_max=5).verified


def test_mass_distribution_needs_a_checked_level():
    ramp = affine_from_corners(F(0), F(0), F(1), level=1)
    params = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)
    with pytest.raises(ValueError, match="int n_prime_max >= 1, got n_prime_max=0"):
        mass_distribution_lower(ramp, F(9, 10), params, n_prime_max=0)


def test_mass_distribution_spread_function():
    fn = random_standard_paf(21, 4, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    params = BoundSearchParams(alpha=0.5, d1=F(1, 4), l=1)
    rep = mass_distribution_lower(fn, r, params, n_prime_max=1)
    assert rep.s == F(1, 4)
    assert rep.levels_checked == [4]
    assert rep.c_empirical > 0


def gathered_cell_masses(tree, n: int) -> dict:
    """Mass of every cell touching a depth-n member, gathered per cell."""
    tree.fill_measure(n)
    cell_mass: dict = {}
    for node in tree.nodes_at(n):
        idx = delta_lattice_index(node.word)
        cell_mass[idx] = cell_mass.get(idx, F(0)) + node.mu
    candidates = set()
    for idx in cell_mass:
        candidates.update(touching_up_cells(*idx))
    return {cell: sum((cell_mass.get(other, F(0)) for other in touching_up_cells(*cell)),
                      F(0))
            for cell in candidates}


def oracle_mass_distribution(fn, r, params, n_prime_max):
    """(c_empirical, worst_level, levels_checked, verified at cap 8, masses per level)."""
    tree = LevelSetTree(fn, r, params.l)
    c_emp, worst_level, levels, masses = 0.0, None, [], {}
    for n_prime in range(1, n_prime_max + 1):
        n = n_prime * params.q
        masses[n] = gathered_cell_masses(tree, n)
        threshold = F(1, 1 << int(n * params.d1))
        for mass in masses[n].values():
            quot = float(mass / threshold)
            if quot > c_emp:
                c_emp, worst_level = quot, n
        levels.append(n)
    return c_emp, worst_level, levels, c_emp <= 8.0, masses


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=4),
       st.sampled_from([2, 4]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3 * 2**24 - 1), st.sampled_from([1, 2, 3]))
@settings(max_examples=25, deadline=None)
def test_mass_distribution_matches_gather_oracle(seed, level, q, n_prime_max, k, l):
    # the cell keys shift by the word length n l; at most 12 subdivision
    # levels keep the Fraction oracle small
    n_prime_max = min(n_prime_max, max(1, 12 // (q * l)))
    fn = corpus_fn(seed, level)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(k, 3 * 2**24)
    params = BoundSearchParams(alpha=1.0, d1=F(1, q), l=l)
    try:
        rep = mass_distribution_lower(fn, r, params, n_prime_max)
    except LevelCollisionError:
        assume(False)
    c_emp, worst_level, levels, verified, masses = oracle_mass_distribution(
        fn, r, params, n_prime_max)
    assert rep.s == params.s
    assert (rep.c_empirical, rep.worst_level, rep.levels_checked, rep.verified) \
        == (c_emp, worst_level, levels, verified)
    level_masses = masses[rep.worst_level]
    assert level_masses[rep.worst_cell] == max(level_masses.values())


def scatter_oracle(fn, r, params, n_prime_max) -> MassDistributionReport:
    """The report of the per-member scatter over ``nodes_at(n)`` at every checked depth.

    Each member adds its mu numerator to the cells it touches, read off
    its word, in ``touching_up_cells`` order; a cell's first insertion
    fixes its place, and the first cell of the largest mass at the first
    depth reaching the largest quotient is the worst cell.
    """
    q, l, d1 = params.q, params.l, params.d1
    tree = LevelSetTree(fn, r, l).fill_measure(q * n_prime_max)
    c_emp, worst_cell, worst_level, levels = 0.0, None, None, []
    for n in range(q, q * n_prime_max + 1, q):
        cell_mass: dict = {}
        for node in tree.nodes_at(n):
            for cell in touching_up_cells(*delta_lattice_index(node.word)):
                cell_mass[cell] = cell_mass.get(cell, 0) + node.mu_num
        mass = max(cell_mass.values())
        quot = (mass << int(n * d1)) / tree.mu_denominators[n]
        if quot > c_emp:
            c_emp, worst_level = quot, n
            worst_cell = next(c for c, m in cell_mass.items() if m == mass)
        levels.append(n)
    return MassDistributionReport(s=params.s, verified=c_emp <= 8.0, feasible=params.feasible,
                                  c_empirical=c_emp, worst_cell=worst_cell,
                                  worst_level=worst_level, levels_checked=levels)


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3), st.sampled_from([2, 3, 4]),
       st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_mass_distribution_matches_scatter_oracle(seed, level, l, q, n_prime_max, data):
    # seeds 0-3 are corpus functions, whose trees keep runs below the
    # crossing depth; seeds 4-7 are generic functions, whose trees mostly
    # keep nodes there.  A level just off a vertex value puts members of
    # two runs beside the corner their regions share.
    fn = corpus_fn(seed, level) if seed < 4 else generic_fn(seed, level)
    n_prime_max = min(n_prime_max, max(1, 12 // (q * l)))
    root = fn.corner_values("")
    lo, hi = min(root), max(root)
    if data.draw(st.booleans()):
        word = data.draw(st.text(alphabet="012", max_size=level + 2))
        sign = data.draw(st.sampled_from([-1, 1]))
        r = (fn.corner_values(word)[data.draw(st.integers(min_value=0, max_value=2))]
             + (hi - lo) * F(sign, 3 << data.draw(st.integers(min_value=4, max_value=30))))
        assume(lo < r < hi)
    else:
        r = lo + (hi - lo) * F(data.draw(st.integers(min_value=1, max_value=3 * 2**24 - 1)),
                               3 * 2**24)
    params = BoundSearchParams(alpha=1.0, d1=F(1, q), l=l)
    try:
        rep = mass_distribution_lower(fn, r, params, n_prime_max)
    except LevelCollisionError:
        assume(False)
    assert rep == scatter_oracle(fn, r, params, n_prime_max)


def test_mass_distribution_reaches_72_levels_at_alpha_1():
    # the feasible alpha = 1 triple (d1, l, q) = (1/2, 6, 2) to n' = 6,
    # 201,728 members at depth 12, from the runs alone
    fn, r = third_up(7, 3)
    params = BoundSearchParams.for_alpha(1.0)
    shallow = mass_distribution_lower(fn, r, params, 4)
    tree = LevelSetTree(fn, r, params.l)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = mass_distribution_lower(fn, r, params, 6, tree=tree)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.levels_checked == [2, 4, 6, 8, 10, 12]
    assert (rep.c_empirical, rep.worst_level) == (shallow.c_empirical, shallow.worst_level)
    assert tree._ks is not None
    assert peak < 10 * 2**20 and elapsed < 1.0, (peak, elapsed)


def count_member_reads(monkeypatch) -> list[int]:
    """The depth of every ``LevelSetTree._members`` call, in call order."""
    depths: list[int] = []
    members = LevelSetTree._members

    def counted(self, n):
        depths.append(n)
        return members(self, n)

    monkeypatch.setattr(LevelSetTree, "_members", counted)
    return depths


def test_mass_distribution_reads_the_runs_once(monkeypatch):
    # every checked depth 2..12 lies past the crossing depth c = 1, so one
    # read of the runs at the deepest depth serves all six
    fn, r = third_up(7, 3)
    params = BoundSearchParams.for_alpha(1.0)
    tree = LevelSetTree(fn, r, params.l)
    depths = count_member_reads(monkeypatch)
    rep = mass_distribution_lower(fn, r, params, 6, tree=tree)
    assert tree._crossing == 1 and tree._ks is not None
    assert depths == [12]
    assert rep.levels_checked == [2, 4, 6, 8, 10, 12]


def straddling_case(seed: int):
    """A level-3 corpus function at l = 1, q = 2, n' <= 4: depth 2 above c = 3, 4..8 past it."""
    fn = corpus_fn(seed, 3)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1234567, 3 * 2**24)
    return fn, r, BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)


@pytest.mark.parametrize("seed", range(4))
def test_mass_distribution_straddling_the_crossing_depth(monkeypatch, seed):
    # the depth above c reads its own members; the rest share one read
    fn, r, params = straddling_case(seed)
    tree = LevelSetTree(fn, r, params.l)
    depths = count_member_reads(monkeypatch)
    rep = mass_distribution_lower(fn, r, params, 4, tree=tree)
    assert tree._crossing == 3 and tree._ks is not None
    assert depths == [8, 2]
    assert rep == scatter_oracle(fn, r, params, 4)


@pytest.mark.parametrize("seed", range(4))
def test_mass_distribution_on_a_tree_switched_to_nodes(monkeypatch, seed):
    # a node read past c keeps the runs: the mass check still reads one
    # record per run at the deepest depth, its chain n_max - c blocks long,
    # and the report, with the worst cell located past c, does not change
    fn, r, params = straddling_case(seed)
    tree = LevelSetTree(fn, r, params.l)
    c = tree._crossing
    tree.nodes_at(c + 1)
    chains: list[tuple[int, int | None, int]] = []
    members = LevelSetTree._members

    def recorded(self, n):
        for record in members(self, n):
            chains.append((n, record[3], record[4]))
            yield record

    monkeypatch.setattr(LevelSetTree, "_members", recorded)
    rep = mass_distribution_lower(fn, r, params, 4, tree=tree)
    # each depth-8 record has a chain from c: an odd corner and K of 8 - c digits
    assert all(o is not None and k >> params.l * (8 - c) == 0 for n, o, k in chains if n == 8)
    assert len(chains) == len(tree.nodes_at(c)) + len(tree.nodes_at(2))
    assert rep.worst_level > c
    assert rep == mass_distribution_lower(fn, r, params, 4) == scatter_oracle(fn, r, params, 4)


@functools.cache
def _line_block(cells: tuple, line: int, l: int) -> tuple:
    """One block's factors u(e) along its run's line, as ``_run_walks`` reads them.

    ``cells`` is a block of ``run_blocks`` and ``line`` the index of a
    cell's line digit e; u(e) is 0 where the block has no child.  With top
    = 2**l - 1 the summary is (the largest u, the set of pairs (u(e), u(e
    + 1)) over e < top, the largest u(e - 1) + u(e) + u(e + 1), and the
    starts (u(top), u(0) + u(1)) and (u(top - 1) + u(top), u(0))).
    """
    size = 1 << l
    u = [0] * (size + 2)            # u(e) at e + 1, with a 0 on either side
    for cell in cells:
        u[cell[line] + 1] = cell[2]
    return (max(u), frozenset(zip(u[1:size], u[2:size + 1])),
            max(map(sum, zip(u, u[1:], u[2:]))),
            ((u[size], u[1] + u[2]), (u[size - 1] + u[size], u[1])))


def _run_walks(runs, l: int, reach, ks) -> list[tuple[list, list]]:
    """(each run's window, each run's seam cells) at chain length k, from a walk of its blocks.

    The walk oracle of ``_run_windows``: ``runs`` are ``member_blocks``
    records (row, col, mu, o, blocks), and each run's blocks are walked
    once for every k of ``ks``.  The window is M_(k-1) T_k against M_(k-2)
    times the largest a x + b y over block k's starts and block k - 1's
    pairs, with the peaks M_j multiplied up block by block.  The seam cells
    are the members within ``reach`` layers of a corner of the run's
    region, found by a descent that drops a member once it is ``reach``
    layers from every corner; with ``reach`` = inf they are every member.
    """
    walks = [([], []) for _ in ks]
    for row, col, mu, o, blocks in runs:
        line = int(o == 2)
        prev = last = None              # the summaries of blocks k - 1 and k
        peaks = [mu]                    # M_j, from the run's own member down
        members, top, done = [(0, 0, mu)], 0, 0
        for k, (windows, seams) in zip(ks, walks):
            for cells in blocks[done:k]:
                prev, last = last, _line_block(cells, line, l)
                peaks.append(peaks[-1] * last[0])
                top = top << l | ((1 << l) - 1)
                members = [(i, j, m) for i, j, m in
                           ((pi << l | bi, pj << l | bj, pm * f)
                            for pi, pj, pm in members for bi, bj, f in cells)
                           if min(i + j, top - i, top - j) < reach]
            done = k
            best = peaks[k - 1] * last[2] if k else mu
            if k > 1:
                best = max(best, peaks[k - 2] * max(a * x + b * y for a, b in last[3]
                                                    for x, y in prev[1]))
            d = k * l
            windows.append(best)
            seams.append([(row << d | i, col << d | j, m) for i, j, m in members])
    return walks


def walk_report(fn, r, params, n_prime_max, tree=None) -> MassDistributionReport:
    """The report of the mass check that walked each run's blocks (``_run_walks``).

    The worst cell is located by listing, in full, the members of the
    first run whose window reaches the mass.
    """
    q, l, d1 = params.q, params.l, params.d1
    tree = tree or LevelSetTree(fn, r, l)
    n_max = q * n_prime_max
    deepest = member_blocks(tree, n_max)
    t = n_max - len(deepest[0][4])
    groups = itertools.chain(((member_blocks(tree, n), n, [0]) for n in range(q, t, q)),
                             [(deepest, t, [n - t for n in range(q, n_max + 1, q) if n >= t])])
    c_emp, worst_cell, worst_level, levels = 0.0, None, None, []
    for runs, depth, ks in groups:
        for k, (windows, seams) in zip(ks, _run_walks(runs, l, _SEAM_LAYERS, ks)):
            n = depth + k
            s = n * l + 2
            cell_mass = _scatter(seams, s)
            mass = max(max(windows), max(cell_mass.values(), default=0))
            quot = (mass << int(n * d1)) / tree.mu_denominators[n]
            if quot > c_emp:
                first = next((i for i, w in enumerate(windows) if w == mass), None)
                if first is not None:
                    [(_, [seams[first]])] = _run_walks(runs[first:first + 1], l, math.inf, [k])
                    cell_mass = _scatter(seams, s)
                key = next(cell for cell, v in cell_mass.items() if v == mass)
                c_emp, worst_level = quot, n
                worst_cell = ((key >> s) - 1, (key & ((1 << s) - 1)) - 1)
            levels.append(n)
    return MassDistributionReport(s=params.s, verified=c_emp <= 8.0, feasible=params.feasible,
                                  c_empirical=c_emp, worst_cell=worst_cell,
                                  worst_level=worst_level, levels_checked=levels)


def _heavy_members(run, l: int, lcms, k: int, mass: int) -> list:
    """The members at chain length k of ``run`` that can touch a cell of ``mass``, with its seam.

    The oracle of ``bounds._window_members``: (row, col, mu numerator) in
    the run's order, from a descent of the run's first k blocks; ``run``
    and ``lcms`` are as ``_run_windows`` reads them.  A member at depth t
    + j is heavy when three times its mu, times the largest growth M_k /
    M_j its descendants can have, reaches ``mass``; a member is kept when
    it is within two line positions of a heavy one or fewer than
    ``_SEAM_LAYERS`` layers from a corner.  A heavy member's parent is
    heavy, and two positions at most two apart have parents at most one
    apart, so the kept members' children hold every member kept a depth
    down.  A mixed block keeps both of its children at its peak, so at l
    >= 2 the kept members can double at each one.
    """
    row, col, mu, o, digits = run
    size, mask = len(lcms), (1 << l) - 1
    blocks = []
    for j in range(1, k + 1):
        digit, total, spans = _blocks(l)[digits >> l * (size - j) & mask]
        blocks.append([(*_block_cell(l, o, digit, e), lcms[j - 1] // total * w)
                       for _, w, lines in spans for e in lines])
    growth = [1]                        # M_k / M_j, from j = k up
    for cells in reversed(blocks):
        growth.append(growth[-1] * max(f for *_, f in cells))
    line = int(o == 2)
    members, top = [(0, 0, mu)], 0
    for cells, g in zip(blocks, reversed(growth[:-1])):
        top = top << l | mask
        members = [(pi << l | bi, pj << l | bj, pm * f)
                   for pi, pj, pm in members for bi, bj, f in cells]
        near = {m[line] + e for m in members if 3 * m[2] * g >= mass for e in range(-2, 3)}
        members = [(i, j, m) for i, j, m in members
                   if (i, j)[line] in near or min(i + j, top - i, top - j) < _SEAM_LAYERS]
    d = k * l
    return [(row << d | i, col << d | j, m) for i, j, m in members]


def heavy_reader(run, l: int, lcms, k: int, seam: list) -> list:
    """``_heavy_members`` behind ``_window_members``' signature, at the run's own window.

    ``mass_distribution_lower`` reads the worst cell's members only from
    the first run whose window reaches the mass, so that window is the
    mass the descent keeps members for.
    """
    [([window], _)] = _run_windows([run], l, lcms, [k])
    return _heavy_members(run, l, lcms, k, window)


@pytest.mark.parametrize("seed, level, l", [(s, level, l) for s in range(4)
                                            for level in (2, 3) for l in (1, 2)])
def test_run_windows_match_the_listed_members(seed, level, l):
    # every run's window at every chain length k is the largest mu sum over
    # three consecutive line positions of its members at depth t + k, listed
    # in full by a walk with no reach
    fn = corpus_fn(seed, level)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1234567, 3 * 2**24)
    tree = LevelSetTree(fn, r, l)
    n = tree._crossing + 6 // l
    runs = list(tree._members(n))
    ks = list(range(6 // l + 1))
    walks = _run_windows(runs, l, chain_lcms(tree, n), ks)
    listed = _run_walks(member_blocks(tree, n), l, math.inf, ks)
    for (windows, _), (_, members) in zip(walks, listed):
        for (*_, o, _), window, run in zip(runs, windows, members):
            assert window == listed_window(run, o)


def listed_window(members, o: int) -> int:
    """The largest mu sum over three consecutive line positions of a run's listed members."""
    mu_at: dict[int, int] = {}
    for row, col, m in members:
        p = col if o == 2 else row      # the line position
        mu_at[p] = m
    return max(sum(mu_at.get(p + d, 0) for d in (-1, 0, 1))
               for q in mu_at for p in (q - 1, q, q + 1))


@st.composite
def drawn_runs(draw):
    """(l, a run record, the lcm at each depth of its chain) with a drawn chain of digits.

    Each depth's lcm is formed as ``LevelSetTree.fill_measure`` forms it:
    the lcm of the block sums at that depth, here a drawn set of sums
    holding the block's own.  Chains no tree of the corpus reaches come up
    too, so the window's two-block form meets neighbouring blocks whose
    units differ block by block.
    """
    l = draw(st.integers(min_value=1, max_value=3))
    o = draw(st.integers(min_value=0, max_value=2))
    family = oracle_digit_blocks(l)[o]
    sums = sorted({total for _, (_, total) in family})
    digits = draw(st.lists(st.integers(min_value=0, max_value=(1 << l) - 1),
                           min_size=1, max_size=8))
    lcms = [math.lcm(family[k][1][1], *draw(st.sets(st.sampled_from(sums)))) for k in digits]
    assume(math.prod(len(family[k][0]) for k in digits) <= 4096)
    cell = st.integers(min_value=0, max_value=7)
    return l, (draw(cell), draw(cell), draw(st.integers(min_value=1, max_value=10**6)), o,
               sum(k << l * j for j, k in enumerate(reversed(digits)))), lcms


@given(drawn_runs())
@settings(max_examples=400, deadline=None)
def test_run_windows_of_drawn_chains_match_the_listed_members(case):
    # as above, on run records built directly rather than read from a tree
    l, run, lcms = case
    ks = list(range(len(lcms) + 1))
    walks = _run_windows([run], l, lcms, ks)
    listed = _run_walks([(*run[:4], run_blocks(l, run[3], run[4], lcms))], l, math.inf, ks)
    for ([window], _), (_, [members]) in zip(walks, listed):
        assert window == listed_window(members, run[3])


@pytest.mark.parametrize("l", range(1, 9))
def test_every_block_has_one_of_three_line_profiles(l):
    # the premises of _run_windows' proof: read as _block_summary reads
    # them, with one child per line position, a block's factors along its
    # run's line are, up to its unit, the zero block's u = (2, 1, ..., 1),
    # the ones block's (1, 0, ..., 0) or a mixed block k's 1 at e = 0 and
    # e = top ^ k
    top = (1 << l) - 1
    for o, family in enumerate(oracle_digit_blocks(l)):
        line = int(o == 2)
        for k, block in enumerate(family):
            cells = oracle_block_cells(block, 1)
            u = [0] * (top + 1)
            for cell in cells:
                u[cell[line]] = cell[2]
            assert len({cell[line] for cell in cells}) == len(cells)
            if k == 0:
                assert u == [2] + [1] * top
            else:
                assert u == [int(e in (0, top ^ k)) for e in range(top + 1)]


@pytest.mark.parametrize("l", range(1, 9))
def test_block_summaries_match_the_whole_line(l):
    # the summary _block_summary reads on the cut line against the one read
    # on the whole line of the oracle's block, with a 0 on either side
    top = (1 << l) - 1
    for o, family in enumerate(oracle_digit_blocks(l)):
        for k, block in enumerate(family):
            u = [0] * (top + 3)         # u(e) at e + 1
            for cell in oracle_block_cells(block, 1):
                u[cell[int(o == 2)] + 1] = cell[2]
            assert _block_summary(l, k) == (
                block[1][1], max(u), max(map(sum, zip(u, u[1:], u[2:]))),
                ((u[top + 1], u[1] + u[2]), (u[top] + u[top + 1], u[1])),
                frozenset(zip(u[1:top + 1], u[2:top + 2]))), (l, o, k)


def chain_runs(l: int, length: int) -> list:
    """(a run record, its lcms) for each chain of ``length`` blocks of ``oracle_digit_blocks(l)``.

    The lcm at depth j is formed as ``LevelSetTree.fill_measure`` forms
    it, the lcm of the block sums at that depth, here the block's own and
    a second sum that changes from depth to depth.
    """
    runs = []
    for o, family in enumerate(oracle_digit_blocks(l)):
        sums = sorted({total for _, (_, total) in family})
        for digits in itertools.product(range(1 << l), repeat=length):
            lcms = [math.lcm(family[k][1][1], sums[j % len(sums)]) for j, k in enumerate(digits)]
            runs.append(((3, 5, 7, o, sum(k << l * j for j, k in enumerate(reversed(digits)))),
                         lcms))
    return runs


@pytest.mark.parametrize("l, length", [(1, 10), (2, 5), (3, 3), (4, 2)])
def test_run_windows_of_every_chain_match_the_listed_members(l, length):
    # every chain of blocks, each prefix of it too: the window from the last
    # two blocks is the largest sum over three consecutive line positions of
    # the members, listed here block by block
    ks = range(length + 1)
    for run, lcms in chain_runs(l, length):
        _, _, mu, o, k = run
        blocks = run_blocks(l, o, k, lcms)
        members = [(0, 0, mu)]
        for k, ([window], _) in zip(ks, _run_windows([run], l, lcms, ks)):
            if k:
                members = [(pi << l | bi, pj << l | bj, pm * f)
                           for pi, pj, pm in members for bi, bj, f in blocks[k - 1]]
            assert window == listed_window(members, o), (l, o, k, blocks)


@pytest.mark.parametrize("l, length", [(1, 10), (2, 5), (3, 3), (4, 2)])
def test_run_seams_of_every_chain_match_the_walk(l, length):
    # the corner chains against the walk's pruned descent, on every chain:
    # the same seam members, with the same masses, in the same order
    ks = range(length + 1)
    for run, lcms in chain_runs(l, length):
        walked = _run_walks([(*run[:4], run_blocks(l, run[3], run[4], lcms))], l,
                            _SEAM_LAYERS, ks)
        assert [seams for _, seams in _run_windows([run], l, lcms, ks)] == [
            seams for _, seams in walked], (l, run)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12),
       st.data())
@settings(max_examples=200, deadline=None)
def test_digit_counts_match_the_digits(l, j, data):
    k = data.draw(st.integers(min_value=0, max_value=(1 << l * j) - 1))
    digits = [k >> l * i & ((1 << l) - 1) for i in range(j)]
    zeros = digits.count(0)
    assert _digit_counts(k, j, l) == (zeros, j - zeros - digits.count((1 << l) - 1))


@st.composite
def mass_cases(draw):
    """(fn, r, params, n', whether a node is read past c first) across the mass check's trees.

    Corpus functions at l = 1 to 4, the feasible alpha = 1 and 0.8
    triples (l = 6), deep's (1.0, 1/4, 1), and generic functions, whose
    crossing members mostly have three distinct corners, at levels from
    ``drawn_level``.
    """
    kind = draw(st.sampled_from(["corpus", "feasible", "deep", "generic"]))
    seed, level = draw(st.integers(min_value=0, max_value=3)), draw(st.integers(2, 4))
    fn = generic_fn(seed + 4, level) if kind == "generic" else corpus_fn(seed, level)
    if kind == "feasible":
        params = BoundSearchParams.for_alpha(draw(st.sampled_from([1.0, 0.8])))
        n_prime = 1
    elif kind == "deep":
        params, n_prime = BoundSearchParams(1.0, F(1, 4), 1), draw(st.integers(1, 6))
    else:
        l, q = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3, 4]))
        params = BoundSearchParams(1.0, F(1, q), l)
        n_prime = draw(st.integers(1, max(1, 16 // (q * l))))
    return fn, drawn_level(draw, fn), params, n_prime, draw(st.booleans())


def drawn_level(draw, fn):
    """A level inside the root's range: drawn on a grid, or just off a vertex value.

    A level just off a vertex value puts members of two runs beside the
    corner their regions share.
    """
    root = fn.corner_values("")
    lo, hi = min(root), max(root)
    if draw(st.booleans()):
        word = draw(st.text(alphabet="012", max_size=fn.level + 2))
        sign = draw(st.sampled_from([-1, 1]))
        r = (fn.corner_values(word)[draw(st.integers(min_value=0, max_value=2))]
             + (hi - lo) * F(sign, 3 << draw(st.integers(min_value=4, max_value=30))))
        assume(lo < r < hi)
        return r
    return lo + (hi - lo) * F(draw(st.integers(min_value=1, max_value=3 * 2**24 - 1)),
                              3 * 2**24)


def drawn_tree(fn, r, params, n_prime, read_past_c):
    """The case's tree grown to its deepest checked depth, a node read past c first if asked."""
    tree = LevelSetTree(fn, r, params.l)
    n = params.q * n_prime
    try:
        if read_past_c and n > tree._crossing:
            tree.nodes_at(tree._crossing + 1)
        tree.fill_measure(n)
    except LevelCollisionError:
        assume(False)
    assume(tree.root is not None and sum(c for c, _ in tree.histogram(n).values()) <= 20_000)
    return tree


@given(mass_cases())
@settings(max_examples=150, deadline=None)
def test_run_windows_and_seams_match_the_walk_at_every_chain_length(case):
    fn, r, params, n_prime, read_past_c = case
    tree = drawn_tree(*case)
    n, l = params.q * n_prime, params.l
    runs = list(tree._members(n))
    lcms = chain_lcms(tree, n) if runs[0][3] is not None else []
    ks = range(len(lcms) + 1)
    assert _run_windows(runs, l, lcms, ks) == _run_walks(member_blocks(tree, n), l,
                                                         _SEAM_LAYERS, ks)


@given(mass_cases())
@settings(max_examples=150, deadline=None)
def test_mass_distribution_matches_the_walk(case):
    fn, r, params, n_prime, _ = case
    tree = drawn_tree(*case)
    assert mass_distribution_lower(fn, r, params, n_prime, tree=tree) == walk_report(
        fn, r, params, n_prime)


@pytest.mark.parametrize("l, length", [(1, 8), (2, 4), (3, 3)])
def test_heavy_members_keep_every_maximising_window(l, length):
    # every member of every window of three consecutive line positions that
    # reaches the largest window, at every chain length of every chain, is
    # in the worst cell's pruned descent, and so is every seam member
    for run, lcms in chain_runs(l, length):
        row, col, mu, o, k = run
        blocks = run_blocks(l, o, k, lcms)
        seams = [seams for _, [seams] in _run_windows([run], l, lcms, range(length + 1))]
        members = [(0, 0, mu)]
        for k, cells in enumerate(blocks, 1):
            members = [(pi << l | bi, pj << l | bj, pm * f)
                       for pi, pj, pm in members for bi, bj, f in cells]
            window = listed_window(members, o)
            at = {m[1] if o == 2 else m[0]: m for m in members}
            need = {at[q] for p in at for start in (p - 2, p - 1, p)
                    if sum(at[q][2] for q in range(start, start + 3) if q in at) == window
                    for q in range(start, start + 3) if q in at}
            d = k * l
            kept = set(_heavy_members(run, l, lcms, k, window))
            assert {(row << d | i, col << d | j, m) for i, j, m in need} <= kept, (l, run, k)
            assert set(seams[k]) <= kept, (l, run, k)


@pytest.mark.parametrize("l, length", [(1, 8), (2, 4), (3, 3), (4, 2)])
def test_window_members_hold_the_first_maximising_cell(l, length):
    # at every chain length of every chain, the run's listed members are
    # scattered in word order; the reader's members are some of them, in
    # the same order, every member touching the first cell of the largest
    # mass is among them, and that cell is the first of the largest mass
    # in their own scatter
    for run, lcms in chain_runs(l, length):
        row, col, mu, o, k = run
        blocks = run_blocks(l, o, k, lcms)
        seams = [seams for _, [seams] in _run_windows([run], l, lcms, range(length + 1))]
        members = [(0, 0, mu)]
        for k, cells in enumerate(blocks, 1):
            members = [(pi << l | bi, pj << l | bj, pm * f)
                       for pi, pj, pm in members for bi, bj, f in cells]
            d = k * l
            s = d + 5                   # the run's rows and cols lie below 2**(d + 3)
            listed = [(row << d | i, col << d | j, m) for i, j, m in members]
            cell_mass = _scatter([listed], s)
            mass = max(cell_mass.values())
            first = next(cell for cell, v in cell_mass.items() if v == mass)
            kept = bounds._window_members(run, l, lcms, k, seams[k])
            assert kept == [m for m in listed if m in kept], (l, run, k)
            offsets = {(dr << s) + dc + (1 << s) + 1 for dr, dc in bounds._CELL_NEIGHBOR_OFFSETS}
            touching = {m for m in listed if first - (m[0] << s) - m[1] in offsets}
            assert touching <= set(kept), (l, run, k)
            assert next(cell for cell, v in _scatter([kept], s).items() if v == mass) == first


@st.composite
def reader_cases(draw):
    """(fn, r, params, n') at l = 1 to 6 and q up to 20, where the descent oracle finishes.

    Corpus functions of levels 2 to 4, at levels from ``drawn_level``.
    The oracle's kept members can double at each mixed block past the
    crossing, so q is at most 14 at l = 3 and 10 at l >= 4, where the
    slowest corpus case took about 0.05 s; at l = 1, which has no mixed
    block, n' reaches 40 levels.
    """
    fn = corpus_fn(draw(st.integers(min_value=0, max_value=3)), draw(st.integers(2, 4)))
    l = draw(st.integers(1, 6))
    q = draw(st.integers(2, {1: 20, 2: 20, 3: 14}.get(l, 10)))
    n_prime = draw(st.integers(1, max(1, 40 // q))) if l == 1 else 1
    return fn, drawn_level(draw, fn), BoundSearchParams(1.0, F(1, q), l), n_prime


@given(reader_cases())
@settings(max_examples=300, deadline=None)
def test_window_members_give_the_descents_report(case):
    # the report with the pruned descent patched in for the six positions
    fn, r, params, n_prime = case
    try:
        rep = mass_distribution_lower(fn, r, params, n_prime)
    except LevelCollisionError:
        assume(False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_window_members", heavy_reader)
        assert mass_distribution_lower(fn, r, params, n_prime) == rep


def found_case():
    """A level-2 function at deep's l = 1, q = 2 whose worst run doubles at every zero block."""
    return (*third_up(2, 2), BoundSearchParams(1.0, F(1, 2), 1))


def test_worst_cell_is_found_without_listing_the_run():
    # the first run whose window reaches the mass has 2**zeros members at the
    # worst depth; the worst cell reads six of them and the run's seam.
    # The block walk, which listed the run, took 25 s at n' = 24
    fn, r, params = found_case()
    assert mass_distribution_lower(fn, r, params, 8) == walk_report(fn, r, params, 8)
    start = time.perf_counter()
    rep = mass_distribution_lower(fn, r, params, 24)
    elapsed = time.perf_counter() - start
    assert (rep.c_empirical, rep.worst_level, rep.worst_cell) == FOUND
    assert elapsed < 0.5, elapsed
    rep = mass_distribution_lower(fn, r, params, 20)
    assert (rep.c_empirical, rep.worst_level, rep.worst_cell) == (
        315.33685520121725, 40, (171690830892, 549755813889))


@pytest.mark.parametrize("case", ["found", "feasible"])
def test_mass_check_reads_a_constant_number_of_summaries_per_run_and_depth(monkeypatch, case):
    # two block summaries and one straddle per run and checked depth past
    # the runs' own depth, plus each summary's first read of the cache
    if case == "found":
        (fn, r, params), n_prime = found_case(), 24
    else:
        fn, r = third_up(7, 3)
        params, n_prime = BoundSearchParams.for_alpha(1.0), 6
    tree = LevelSetTree(fn, r, params.l)
    calls = []
    for name in ("_block_summary", "_straddle"):
        monkeypatch.setattr(bounds, name, functools.partial(
            lambda real, *args: calls.append(args) or real(*args), getattr(bounds, name)))
    rep = mass_distribution_lower(fn, r, params, n_prime, tree=tree)
    runs = len(tree.nodes_at(tree._crossing))
    assert len(calls) <= 3 * runs * len(rep.levels_checked) + 2 * 4 ** params.l


def scratch_case(alpha):
    """The scratch function at r a third up the root's range, with ``for_alpha``'s triple.

    ``alpha`` may also be a triple (alpha, d1, l) itself.
    """
    params = (BoundSearchParams(*alpha) if isinstance(alpha, tuple)
              else BoundSearchParams.for_alpha(alpha))
    return (*third_up(7, 3), params)


@pytest.mark.parametrize("case, n_prime, pinned", [
    ("found", 24, FOUND),
    # q = 20, l = 6: the pruned descent kept 262,144 members and took about 3 s
    (0.9, 1, Q20),
    # q = 40, l = 6: the pruned descent could keep up to 2**39 members
    (0.95, 2, Q40),
    # the alpha = 1 checks to 6 and 48 depths, and deep's l = 1 triple to 100 levels
    (1.0, 6, FEASIBLE),
    (1.0, 48, FEASIBLE),
    ((1.0, F(1, 4), 1), 25, DEEP),
])
def test_each_c_raising_depth_scatters_the_seam_and_six_members(monkeypatch, case, n_prime,
                                                                pinned):
    # the scatter of a depth whose largest window raises C gets that run's
    # seam and at most six more members, once per checked depth at most,
    # so a q = 20 or q = 40 triple's worst cell takes milliseconds
    fn, r, params = found_case() if case == "found" else scratch_case(case)
    handed = []
    real = bounds._window_members

    def counted(run, l, lcms, k, seam):
        members = real(run, l, lcms, k, seam)
        handed.append((len(seam), len(members)))
        return members

    monkeypatch.setattr(bounds, "_window_members", counted)
    start = time.perf_counter()
    rep = mass_distribution_lower(fn, r, params, n_prime)
    elapsed = time.perf_counter() - start
    assert (rep.c_empirical, rep.worst_level, rep.worst_cell) == pinned
    assert 1 <= len(handed) <= len(rep.levels_checked)
    assert all(seam <= members <= seam + 6 for seam, members in handed), handed
    assert elapsed < 0.5, elapsed


def test_mass_distribution_tie_goes_to_first_scatter_cell():
    # two members at depth 4, '2220' (mu 2/3) at (14, 0) and '2221' (mu 1/3)
    # at (14, 1): the four cells touching both tie at mass 1, and the
    # first of them in scatter order is the first member's own cell
    ramp = affine_from_corners(F(0), F(0), F(1), level=1)
    params = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)
    rep = mass_distribution_lower(ramp, F(9, 10), params, n_prime_max=2)
    *_, masses = oracle_mass_distribution(ramp, F(9, 10), params, 2)
    tied = sorted(c for c, m in masses[4].items() if m == 1)
    assert tied == [(13, 1), (14, 0), (14, 1), (15, 0)]
    assert (rep.worst_level, rep.worst_cell) == (4, (14, 0))


def test_mass_distribution_reports_feasibility():
    ramp = affine_from_corners(F(0), F(0), F(1), level=1)
    feasible = BoundSearchParams.for_alpha(1.0)
    assert (feasible.d1, feasible.l, feasible.q) == (F(1, 2), 6, 2)
    rep = mass_distribution_lower(ramp, F(9, 10), feasible, n_prime_max=1)
    assert rep.feasible and rep.verified
    assert rep.s == F(1, 12)
    infeasible = BoundSearchParams(alpha=1.0, d1=F(1, 2), l=1)
    rep = mass_distribution_lower(ramp, F(9, 10), infeasible, n_prime_max=3)
    assert not rep.feasible and rep.verified  # verified keeps its meaning: C under the cap
