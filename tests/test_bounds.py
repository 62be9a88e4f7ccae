"""Bound formulas, feasibility search, slopes, mass distribution.

The mass-distribution reference refills the measure at every checked
depth and gathers, for every cell touching a member, the masses of the
members touching it; the program fills once and scatters.
"""

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st
import pytest

from holderlevels.bounds import (
    BoundSearchParams,
    box_count_dimension,
    census_constant,
    default_d1,
    feasible_l,
    lchoice_window,
    lcondition_lhs,
    lower_bound,
    mass_distribution_lower,
    trivial_upper_bound_sierpinski,
    upper_bound,
)
from holderlevels.levelset import LevelCollisionError, LevelSetTree
from holderlevels.paf import affine_from_corners, random_standard_paf
from holderlevels.triangles import delta_lattice_index, touching_up_cells
from test_kernel import corpus_fn

F = Fraction


def test_lower_bound_values():
    assert lower_bound(1.0) == pytest.approx(0.08295, abs=5e-5)
    assert lower_bound(0.5) == pytest.approx(0.02769, abs=5e-5)
    big = lower_bound(1.0, "big")
    assert abs(float(big) - lower_bound(1.0)) < 1e-14
    with pytest.raises(ValueError):
        lower_bound(0.0)


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
            relaxed_ok = census_constant(alpha, d1, l, relaxed=True) < 1
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
    assert est.counts() == [1, 2, 2, 4, 8]


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
    assert rep.verified  # 4 stays under the default cap of 8
    assert rep.worst_cell is not None and rep.worst_level == 4
    tight = mass_distribution_lower(ramp, F(9, 10), params, n_prime_max=3,
                                    c_cap=4.0)
    assert not tight.verified  # 2**3 exceeds the tightened cap


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


def oracle_mass_distribution(fn, r, params, n_prime_max, c_cap=8.0):
    """(c_empirical, worst_level, levels_checked, verified, masses per level)."""
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
    return c_emp, worst_level, levels, c_emp <= c_cap, masses


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=4),
       st.sampled_from([2, 4]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3 * 2**24 - 1))
@settings(max_examples=25, deadline=None)
def test_mass_distribution_matches_gather_oracle(seed, level, q, n_prime_max, k):
    fn = corpus_fn(seed, level)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(k, 3 * 2**24)
    params = BoundSearchParams(alpha=1.0, d1=F(1, q), l=1)
    try:
        rep = mass_distribution_lower(fn, r, params, n_prime_max, c_cap=2.0)
    except LevelCollisionError:
        assume(False)
    c_emp, worst_level, levels, verified, masses = oracle_mass_distribution(
        fn, r, params, n_prime_max, c_cap=2.0)
    assert rep.s == params.s
    assert (rep.c_empirical, rep.worst_level, rep.levels_checked, rep.verified) \
        == (c_emp, worst_level, levels, verified)
    level_masses = masses[rep.worst_level]
    assert level_masses[rep.worst_cell] == max(level_masses.values())


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
