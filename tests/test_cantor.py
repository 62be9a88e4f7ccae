"""Fat Cantor construction, capacity, separated structures, perturbation."""

import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holderlevels.cantor import (
    FatCantorSet,
    PhaseTransitionConfig,
    ProductPiece,
    cantor_grid,
    cantor_level,
    cantor_tail_measure,
    capacity_gap,
    cylinder_config,
    feasibility_search,
    interval_length,
    phase_perturbation,
    piecewise_constant_feasibility,
    product_separated_structure,
    removal_length,
)

from holderlevels.cli import _alpha_grid

from helpers import AffineMap1D, ifs_separated_structure, product_distance_sq

F = Fraction


def test_cantor_levels_zero_and_one():
    c0 = cantor_level(0)
    assert c0.intervals() == [(F(0), F(1))] and c0.measure == 1
    c1 = cantor_level(1)
    assert c1.intervals() == [(F(0), F(1, 3)), (F(2, 3), F(1))]
    assert c1.measure == F(2, 3)


def test_negative_cantor_level_is_rejected():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        cantor_level(-1)


def test_measure_formula_exact():
    for n in range(31):
        cs = cantor_level(n)
        assert cs.measure == F(2**n, 2 ** (n + 1) - 1)


def test_materialized_measure_matches_formula():
    for n in (4, 9, 14):
        cs = cantor_level(n)
        total = sum(b - a for a, b in cs.intervals())
        assert total == cs.measure


def test_limit_bracketing():
    assert abs(cantor_level(20).measure - F(1, 2)) < F(1, 10**6)
    measures = [cantor_level(n).measure for n in range(10)]
    assert all(a > b for a, b in zip(measures, measures[1:]))


def test_removal_lengths():
    assert removal_length(1) == F(1, 3)
    assert removal_length(2) == F(1, 21)
    for m in range(1, 31):
        assert removal_length(m) == interval_length(m - 1) - 2 * interval_length(m)
    for m in range(3, 41):
        assert removal_length(m) < F(1, 4) ** m


def test_nesting_and_disjointness():
    child, parent = cantor_level(6), cantor_level(5)
    ivs = child.intervals()
    for i, (a, b) in enumerate(ivs):
        pa, pb = parent.interval(i // 2)
        assert pa <= a < b <= pb
    assert all(ivs[i][1] < ivs[i + 1][0] for i in range(len(ivs) - 1))


def test_min_gap_is_latest_removal():
    for n in (2, 5, 9):
        cs = cantor_level(n)
        ivs = cs.intervals()
        gaps = {ivs[i + 1][0] - ivs[i][1] for i in range(len(ivs) - 1)}
        assert min(gaps) == removal_length(n)


# no deadline: an n = 12 example alone builds 4096 Fraction intervals in
# about 0.2 s, the default per-example deadline, and fails under CPU load
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**12))
@settings(max_examples=50, deadline=None)
def test_contains_matches_intervals(n, num):
    cs = cantor_level(n)
    x = F(num, 1 << 12)
    inside = any(a <= x <= b for a, b in cs.intervals())
    assert cs.contains(x) == inside


@pytest.mark.parametrize("n", range(7))
def test_contains_at_every_endpoint_and_gap_midpoint(n):
    # interior endpoints and gap midpoints: the points k/4096 never reach
    cs = cantor_level(n)
    ivs = cs.intervals()
    assert all(cs.contains(a) and cs.contains(b) for a, b in ivs)
    assert not any(cs.contains((b + c) / 2) for (_, b), (c, _) in zip(ivs, ivs[1:]))


def test_deep_interval_random_access():
    cs = cantor_level(30)
    a, b = cs.interval(2**29)  # first interval of the right half
    assert b - a == interval_length(30)
    pa, pb = cantor_level(29).interval(2**28)
    assert pa <= a < b <= pb


# -- reference endpoints: the per-index replay and the pairwise axis gap
#    that the one-shift level build and the rectangle distance replaced

def _replay_interval(n: int, index: int) -> tuple[Fraction, Fraction]:
    """Left end rebuilt from scratch: one Fraction addition per set bit."""
    pos = F(0)
    for level in range(1, n + 1):
        if (index >> (n - level)) & 1:
            pos += interval_length(level - 1) - interval_length(level)
    return (pos, pos + interval_length(n))


def _oracle_distance_sq(k: int, a: tuple[int, int], b: tuple[int, int]) -> Fraction:
    """Squared distance of product cells a = (ix, iy) and b, axis by axis."""
    def axis_gap(i: int, j: int) -> Fraction:
        if i == j:
            return F(0)
        (_, a1), (b0, _) = _replay_interval(k, min(i, j)), _replay_interval(k, max(i, j))
        return max(F(0), b0 - a1)

    gx, gy = axis_gap(a[0], b[0]), axis_gap(a[1], b[1])
    return gx * gx + gy * gy


def _oracle_grid(fn, level: int) -> dict:
    coords = [x for i in range(1 << level) for x in _replay_interval(level, i)]
    return {(x, y): fn(x, y) for x in coords for y in coords}


def _fraction_intervals(n: int) -> list[tuple[Fraction, Fraction]]:
    """The level by the left/right recursion, one Fraction shift per generation."""
    lefts = [F(0)]
    for m in range(1, n + 1):
        shift = interval_length(m - 1) - interval_length(m)
        lefts = [x for a in lefts for x in (a, a + shift)]
    return [(a, a + interval_length(n)) for a in lefts]


def test_lattice_matches_fraction_recursion():
    for n in range(13):
        cs = cantor_level(n)
        ref = _fraction_intervals(n)
        got = cs.intervals()
        assert got == ref
        assert all(type(x) is Fraction for iv in got for x in iv)
        assert cs.to_json() == [[f"{a.numerator}/{a.denominator}",
                                 f"{b.numerator}/{b.denominator}"] for a, b in ref]
    rng = random.Random(29)
    for n in (20, 29):
        cs = cantor_level(n)
        for index in [0, 1, cs.count - 1] + [rng.randrange(cs.count) for _ in range(40)]:
            assert cs.interval(index) == _replay_interval(n, index), (n, index)


def test_intervals_match_replay():
    for n in range(13):
        assert cantor_level(n).intervals() == [_replay_interval(n, i) for i in range(1 << n)]
    with pytest.raises(IndexError):
        cantor_level(3).interval(8)
    with pytest.raises(IndexError):
        cantor_level(3).interval(-1)


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_interval_matches_replay(n, num):
    index = num % (1 << n)
    assert cantor_level(n).interval(index) == _replay_interval(n, index)


def test_product_distance_matches_oracle():
    for k in (2, 3):
        cells = list(itertools.product(range(1 << k), repeat=2))
        for a, b in itertools.product(cells, repeat=2):
            got = product_distance_sq(ProductPiece(k, *a), ProductPiece(k, *b))
            assert got == _oracle_distance_sq(k, a, b), (k, a, b)


def test_brute_minimum_matches_oracle():
    levels = product_separated_structure(3).certificates["levels"]
    for k in (2, 3):
        cells = itertools.product(range(1 << k), repeat=2)
        oracle = min(_oracle_distance_sq(k, a, b)
                     for a, b in itertools.combinations(cells, 2))
        assert levels[k]["brute_min_distance_sq"] == oracle == removal_length(k) ** 2


def test_cantor_grid_matches_oracle():
    def fn(x, y):
        return F(1, 2) * x + F(1, 3) * y * y

    for level in range(6):
        grid = cantor_grid(fn, level)
        assert list(grid.items()) == list(_oracle_grid(fn, level).items())


def test_tail_measure():
    assert cantor_tail_measure(3) == F(1, 16)
    # bracketed by the decreasing stage measures inside one interval
    vals = [(2 ** (j - 3)) * interval_length(j) for j in range(4, 24)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert abs(vals[-1] - F(1, 16)) < F(1, 10**5)


def _capacity_reference(k: int, alpha: float) -> tuple[float, int, float]:
    """(direct_sum, terms, truncation_tail) with every generation's log2 computed afresh."""
    total, m, terms = 0.0, k + 1, 0
    diverges = alpha <= 0.5
    while True:
        denom_log2 = math.log2((1 << m) - 1) + math.log2((1 << (m + 1)) - 1)
        term_log2 = (m - k - 1) - alpha * denom_log2
        last = 2.0**term_log2 if term_log2 < 512 else math.inf
        total += last
        terms += 1
        m += 1
        if diverges:
            if terms >= 200 or total > 1e15:
                break
        elif last < 1e-18 or terms >= 100_000:
            break
    decay = 2.0 ** (1 - 2 * alpha)
    tail = last * decay / (1 - decay) if decay < 1 else math.inf
    return total, terms, tail


def test_capacity_matches_uncached_formula():
    for alpha in _alpha_grid("0.55:1.0:10") + [0.4, 0.5, 0.51]:
        for k in range(1, 30):
            cg = capacity_gap(k, alpha)
            # == on floats: bit for bit, as no value is a NaN or a signed zero
            assert (cg.direct_sum, cg.terms, cg.truncation_tail) == \
                _capacity_reference(k, alpha), (k, alpha)


def test_capacity_examples():
    cg4 = capacity_gap(4, 0.75)
    cg8 = capacity_gap(8, 0.75)
    assert cg4.direct_sum <= cg4.closed_form_bound
    assert cg8.ratio_to_interval / cg4.ratio_to_interval == pytest.approx(0.25, rel=0.05)
    assert not cg4.diverges and cg4.truncation_tail < 1e-17


def test_capacity_geometric_decay_at_one():
    ratios = [capacity_gap(k, 1.0).ratio_to_interval for k in (6, 8, 10, 12)]
    assert all(r1 / r0 == pytest.approx(0.25, rel=0.05) for r0, r1 in zip(ratios, ratios[1:]))


def test_capacity_ratio_decreasing_from_level_two():
    # the (k+1 -> k+2)-generation shift beats the 2**(k+1)-1 normalizer
    # from k = 2 on for every grid exponent; at alpha = 0.55 the k = 1
    # step still goes up, which is why the grid check starts at 2
    for i in range(10):
        alpha = 0.55 + 0.05 * i
        rs = [capacity_gap(k, alpha).ratio_to_interval for k in range(2, 21)]
        assert all(a > b for a, b in zip(rs, rs[1:])), alpha


def relative_stop_ratio(k: int, alpha: float) -> float:
    """The capacity ratio summed until a term is below 1e-17 of the total."""
    total, m = 0.0, k + 1
    while True:
        term = 2.0 ** ((m - k - 1) - alpha * (math.log2((1 << m) - 1)
                                              + math.log2((1 << (m + 1)) - 1)))
        total += term
        m += 1
        if term < 1e-17 * total:
            return total * ((1 << (k + 1)) - 1)


def test_ratio_bound_covers_the_terms_the_sum_left_out():
    # the sum stops at an absolute term size: at alpha = 0.51 and k = 90 it
    # takes one term and reads 0.199 against a full sum of 14.45
    cg = capacity_gap(90, 0.51)
    assert cg.terms == 1 and cg.ratio_to_interval == pytest.approx(0.199, abs=1e-3)
    assert relative_stop_ratio(90, 0.51) == pytest.approx(14.45, abs=0.01)
    for alpha in (0.51, 0.52, 0.55, 0.6, 0.75, 1.0):
        for k in (1, 2, 5, 10, 23, 56, 90, 174, 200):
            # equal up to rounding where the sum took one term and the tail is the rest
            assert capacity_gap(k, alpha).ratio_bound >= \
                relative_stop_ratio(k, alpha) * (1 - 1e-12), (k, alpha)


def test_capacity_refuses_k_past_the_normal_float_range():
    # the first term 2**0 r_(k+1)**alpha, about 2**-(2k+3) at alpha = 1, is
    # normal up to k = 509; 2**(k+1) - 1 overflows a float from k = 1023
    assert capacity_gap(509, 1.0).direct_sum >= sys.float_info.min
    for k, alpha in ((510, 1.0), (851, 0.6), (1023, 0.3)):
        with pytest.raises(ValueError, match=f"k = {k} is too deep for alpha = {alpha}"):
            capacity_gap(k, alpha)
    assert math.isfinite(capacity_gap(1022, 0.3).ratio_to_interval)


def test_capacity_divergence_flag():
    cg = capacity_gap(4, 0.4)
    assert cg.diverges and cg.closed_form_bound is None
    assert cg.direct_sum > 1e6
    ok = capacity_gap(4, 0.51)
    assert not ok.diverges
    with pytest.raises(ValueError):
        capacity_gap(0, 0.75)


def test_product_structure_certificate():
    ps = product_separated_structure(10)
    assert (ps.nu, ps.rho, ps.K) == (F(1, 2), F(1, 4), F(2))
    assert ps.threshold == pytest.approx(0.5)
    assert len(ps.family(2)) == 16
    lv = ps.certificates["levels"]
    assert lv[2]["min_distance"] == F(1, 21)
    assert lv[2]["min_distance"] >= F(1, 64)
    assert lv[2]["brute_min_distance_sq"] == F(1, 21) ** 2
    # diameters at level 3: sqrt(2)/15 <= sqrt(2)/8
    assert lv[3]["diameter_sq"] == 2 * F(1, 15) ** 2
    with pytest.raises(ValueError):
        product_separated_structure(1)


def test_product_distance_reduction():
    a = ProductPiece(3, 0, 0)
    b = ProductPiece(3, 0, 1)
    c = ProductPiece(3, 1, 1)
    assert product_distance_sq(a, b) == removal_length(3) ** 2
    assert product_distance_sq(a, c) == 2 * removal_length(3) ** 2
    assert product_distance_sq(a, a) == 0


def test_ifs_middle_thirds():
    st_ = ifs_separated_structure([AffineMap1D(F(1, 3), F(0)),
                                   AffineMap1D(F(1, 3), F(2, 3))])
    assert (st_.nu, st_.rho) == (F(1, 3), F(1, 3))
    assert st_.certificates["min_image_distance"] == F(1, 3)
    fam2 = st_.family(2)
    assert len(fam2) == 4 and all(c.diameter == F(1, 9) for c in fam2)


def test_ifs_two_scale_system():
    st_ = ifs_separated_structure(
        [AffineMap1D(F(1, 2), F(0)), AffineMap1D(F(1, 4), F(3, 4))],
        self_similar=False,
    )
    assert st_.nu == F(1, 4)
    assert st_.certificates["l_star"] == pytest.approx(2.0)
    assert float(st_.rho) == pytest.approx(1 / 16)
    fam1 = st_.family(1)
    assert all(F(1, 16) <= c.diameter <= F(1, 4) for c in fam1)


def test_ifs_rejections():
    with pytest.raises(ValueError):
        ifs_separated_structure([AffineMap1D(F(3, 2), F(0))])
    with pytest.raises(ValueError):
        # overlapping images: zero separation
        ifs_separated_structure([AffineMap1D(F(1, 2), F(0)),
                                 AffineMap1D(F(1, 2), F(1, 2))])


def test_feasibility_example_rows():
    ps = product_separated_structure(4)
    res = piecewise_constant_feasibility(0.4, 0.5, 1.0, ps, k=30)
    assert res.feasible
    early = piecewise_constant_feasibility(0.4, 0.5, 1.0, ps, k=0)
    assert not early.feasible
    s = feasibility_search(0.4, 0.5, 1.0, ps)
    assert s.first_feasible_k is not None
    ratio = 0.5 / 4.0**-0.4  # nu / rho**alpha < 1: lhs/rhs shrinks per level
    assert s.ratios[5] / s.ratios[4] == pytest.approx(ratio, rel=1e-9)


def test_feasibility_infeasible_and_boundary():
    ps = product_separated_structure(4)
    bad = feasibility_search(0.6, 0.5, 1.0, ps, k_cap=60)
    assert bad.first_feasible_k is None and bad.monotone_infeasible
    edge = feasibility_search(0.5, 0.5, 1.0, ps)
    assert edge.boundary
    with pytest.raises(ValueError):
        piecewise_constant_feasibility(0.5, 1.0, 1.0, ps, k=1)


def test_no_feasible_level_once_both_sides_underflow():
    # from k = 1075 on nu**k and (rho**k)**alpha are both 0.0 in floats
    ps = product_separated_structure(4)
    for alpha in (0.6, 0.9):
        s = feasibility_search(alpha, 0.5, 1.0, ps, k_cap=2000)
        assert s.first_feasible_k is None and s.monotone_infeasible, alpha


def test_ratios_stay_finite_past_float_underflow():
    # from k = 538 on (rho**k)**alpha is 0.0; while both sides are normal
    # floats the ratio is still their quotient, bit for bit
    ps = product_separated_structure(4)
    for alpha in (0.6, 0.9):
        ratios = feasibility_search(alpha, 0.5, 1.0, ps, k_cap=2000).ratios
        for k, ratio in enumerate(ratios):
            lhs = 2 * 2.0 * 1.0 * 0.5**k
            rhs = (1 - 0.5) / 2.0**alpha * (0.25**k) ** alpha
            if min(lhs, rhs) >= sys.float_info.min:
                assert ratio == lhs / rhs, (alpha, k)
            # log2(lhs / rhs) = 2 + 1 + alpha - k (1 - 2 alpha)
            log2_ratio = 3 + alpha + k * (2 * alpha - 1)
            if abs(log2_ratio - 1024) > 1:
                assert math.isfinite(ratio) == (log2_ratio < 1024), (alpha, k)
        finite = [x for x in ratios if math.isfinite(x)]
        assert all(b > a for a, b in zip(finite, finite[1:])), alpha
    assert len(finite) < len(ratios)        # alpha = 0.9 overflows for real
    assert all(map(math.isfinite, feasibility_search(0.6, 0.5, 1.0, ps, k_cap=2000).ratios))


def test_feasibility_ratio_is_the_float_quotient_while_both_sides_are_normal():
    # at alpha = 0.6 both sides stay normal floats through k = 537
    ps = product_separated_structure(4)
    for k in range(538):
        res = piecewise_constant_feasibility(0.6, 0.5, 1.0, ps, k)
        assert min(res.lhs, res.rhs) >= sys.float_info.min, k
        assert res.ratio == res.lhs / res.rhs, k
    assert piecewise_constant_feasibility(0.6, 0.5, 1.0, ps, 538).rhs < sys.float_info.min


def test_feasibility_with_zero_M_is_feasible_at_every_level():
    ps = product_separated_structure(4)
    for k in (0, 537, 1075, 2000):
        res = piecewise_constant_feasibility(0.6, 0.5, 0.0, ps, k)
        assert (res.lhs, res.ratio, res.feasible) == (0.0, 0.0, True), k
    assert feasibility_search(0.6, 0.5, 0.0, ps).first_feasible_k == 0
    with pytest.raises(ValueError, match="need M >= 0"):
        piecewise_constant_feasibility(0.6, 0.5, -1.0, ps, 3)


def test_feasibility_matches_float_comparison():
    # up to k = 60 both sides are normal floats and the decision is their
    # comparison; exact ties such as alpha = 0.4, c = 3/4, M = 1, k = 22,
    # where the log2 sides round the other way, keep the float answer
    ps = product_separated_structure(4)
    for alpha, c, M in itertools.product(_alpha_grid("0.55:1.0:10") + [0.4, 0.6],
                                         (0.1, 0.5, 0.75), (0.25, 1.0, 4.0)):
        for k in range(61):
            lhs = 2 * 2.0 * M * 0.5**k
            rhs = (1 - c) / 2.0**alpha * (0.25**k) ** alpha
            res = piecewise_constant_feasibility(alpha, c, M, ps, k)
            assert res.feasible == (lhs <= rhs), (alpha, c, M, k)


def test_phase_boundary_matches_threshold():
    # feasible levels exist exactly when rho**alpha > nu; near the
    # threshold the ratio decays slowly, hence the generous cap
    ps = product_separated_structure(4)
    for alpha in (0.2, 0.35, 0.45):
        assert feasibility_search(alpha, 0.5, 1.0, ps,
                                  k_cap=200).first_feasible_k is not None
    for alpha in (0.51, 0.7, 0.95):
        assert feasibility_search(alpha, 0.5, 1.0, ps, k_cap=40).first_feasible_k is None


def _corner_grid(c: Fraction, level: int, k: int, ix: int, iy: int):
    grid = cantor_grid(lambda x, y: c * x, level)
    cs = cantor_level(k)
    x1, x2 = cs.interval(ix)
    _, y1 = cs.interval(iy)
    for x in (x1, x2, F(0), F(1)):
        grid[(x, y1)] = c * x
    return grid


def test_phase_perturbation_certificates():
    c = F(1, 2)
    cfg = cylinder_config(0.6, c, k=29, ix=1, iy=2, delta=0.2)
    grid = _corner_grid(c, 4, 29, 1, 2)
    rep = phase_perturbation(grid, cfg)
    assert rep.large_change_exact
    assert rep.large_change_lhs >= rep.large_change_rhs
    assert rep.holder_ok
    assert rep.capacity_ok
    assert not rep.mirrored
    assert rep.guaranteed_interval_length > 0
    # plateaus: constant 0 left of the cylinder, constant gap right of it
    v_left = rep.perturbed[(F(0), cfg.y1)] - grid[(F(0), cfg.y1)]
    v_right = rep.perturbed[(F(1), cfg.y1)] - grid[(F(1), cfg.y1)]
    assert v_left == 0
    assert v_right == (1 - c) * (cfg.x2 - cfg.x1)


@pytest.mark.parametrize("alpha, k", [(0.51, 200), (0.55, 56)])
def test_phase_perturbation_reports_the_capacity_ratio_it_decides_by(alpha, k):
    # just above alpha = 1/2 the absolute-stop direct sum (0.0433 at 0.51)
    # understates the full ratio (3.14), so only the bound can decide
    c = F(1, 2)
    cfg = cylinder_config(alpha, c, k=k, ix=1, iy=1, delta=0.2)
    rep = phase_perturbation(_corner_grid(c, 4, k, 1, 1), cfg)
    assert rep.capacity_ratio == capacity_gap(k, alpha).ratio_bound
    assert rep.capacity_ok == (rep.capacity_ratio < cfg.delta)
    assert rep.capacity_ok == (alpha == 0.55)


def test_phase_perturbation_constant_base():
    c = F(1, 2)
    cfg = cylinder_config(0.6, c, k=20, ix=0, iy=0, delta=0.3)
    grid = _corner_grid(F(0), 3, 20, 0, 0)
    grid = {p: F(0) for p in grid}
    rep = phase_perturbation(grid, cfg)
    v1 = (cfg.x1, cfg.y1)
    v2 = (cfg.x2, cfg.y1)
    assert rep.perturbed[v2] - rep.perturbed[v1] == (1 - c) * (cfg.x2 - cfg.x1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_phase_perturbation_refuses_a_non_finite_value(bad):
    # a NaN value once dropped out of the grid's maximum ratio, and the
    # report read holder_ok
    cfg = cylinder_config(0.6, F(1, 2), k=20, ix=0, iy=0, delta=0.3)
    grid = {p: F(0) for p in _corner_grid(F(0), 3, 20, 0, 0)}
    grid[(F(1), F(1))] = bad
    with pytest.raises(ValueError, match=r"vs must be finite, got vs\[\d+\] = (nan|inf)"):
        phase_perturbation(grid, cfg)


def test_phase_perturbation_mirrored():
    c = F(1, 2)
    cfg = cylinder_config(0.6, c, k=25, ix=2, iy=1, delta=0.25)
    grid = {p: -v for p, v in _corner_grid(c, 4, 25, 2, 1).items()}
    rep = phase_perturbation(grid, cfg)
    assert rep.mirrored and rep.large_change_exact and rep.holder_ok


def test_perturbed_values_match_pointwise_ramp():
    c = F(1, 2)
    for sign, ix, iy in ((1, 1, 2), (-1, 2, 1)):
        cfg = cylinder_config(0.6, c, k=29, ix=ix, iy=iy, delta=0.2)
        grid = {p: sign * v for p, v in _corner_grid(c, 4, 29, ix, iy).items()}
        rep = phase_perturbation(grid, cfg)
        assert rep.mirrored == (sign < 0)
        x1, x2, gain = cfg.x1, cfg.x2, (1 - c) * (cfg.x2 - cfg.x1)

        def ramp(x):
            if x < x1:
                return gain if rep.mirrored else F(0)
            if x <= x2:
                return (1 - c) * ((x2 - x) if rep.mirrored else (x - x1))
            return F(0) if rep.mirrored else gain

        assert list(rep.perturbed.items()) == [(p, v + ramp(p[0])) for p, v in grid.items()]
        # the two top corners, inserted into the level-4 grid
        assert abs(rep.perturbed[(x2, cfg.y1)] - rep.perturbed[(x1, cfg.y1)]) \
            == rep.large_change_lhs >= gain


def test_phase_perturbation_rejects_bad_base():
    c = F(1, 10)
    cfg = cylinder_config(0.6, c, k=20, ix=0, iy=0, delta=0.2)
    grid = _corner_grid(F(1), 3, 20, 0, 0)  # slope 1 breaks the c bound
    with pytest.raises(ValueError, match="base certificate"):
        phase_perturbation(grid, cfg)


def test_phase_config_validation():
    with pytest.raises(ValueError, match="no guaranteed image interval"):
        cylinder_config(0.6, F(99, 100), k=10, ix=0, iy=0, delta=0.5)
    cfg = cylinder_config(0.6, F(1, 2), k=10, ix=0, iy=0, delta=0.2)
    assert cfg.eta == cantor_tail_measure(11)
    assert cfg.r == interval_length(11)


def test_phase_config_corners_are_its_cylinders():
    for k in range(1, 5):
        cs = FatCantorSet(k)
        for ix in range(cs.count):
            for iy in range(cs.count):
                cfg = PhaseTransitionConfig(0.6, F(1, 2), k, ix, iy, 0.2)
                assert (cfg.x1, cfg.x2) == cs.interval(ix)
                assert cfg.y1 == cs.interval(iy)[1]
                assert cfg.delta_prime == float((cfg.x2 - cfg.x1) / 100)
    for name, value in (("x1", F(0)), ("ix", 0), ("c", F(1, 4))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
