"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).
Criterion 9's ratio threshold is checked in its corrected form.  The
gap capacity inside a level-k interval, relative to its length, is
sum_{m>k} 2**(m-k-1) r_m**alpha * (2**(k+1)-1) with generation-m gaps
r_m = 1/((2**m-1)(2**(m+1)-1)).  At alpha = 0.75 it shrinks by
2**(1-2 alpha) = 2**(-1/2) per level: 2.2e-2 at k = 12, first below
1e-3 at k = 21.  At alpha = 1 it equals 2**-(k+1) exactly (1.2e-4 at
k = 12), since the gaps fill the interval except for the limit set.
The test takes these values from a 50-digit mpmath sum and from that
identity.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from holderlevels.bernoulli import BernoulliWitnessFn
from holderlevels.bounds import (
    box_count_dimension,
    census_constant,
    feasible_l,
    lower_bound,
    trivial_upper_bound_sierpinski,
    upper_bound,
)
from holderlevels.cantor import (
    cantor_grid,
    cantor_level,
    cantor_tail_measure,
    capacity_gap,
    cylinder_config,
    feasibility_search,
    interval_length,
    phase_perturbation,
    product_separated_structure,
)
from holderlevels.graft import _repeated_value_labels, graft, min_graft_level
from holderlevels.levelset import well_conducting_census
from holderlevels.paf import random_standard_paf
from holderlevels.triangles import (
    line_crossing_count,
    line_crossing_count_geometric,
    triangle_vertices,
)
from helpers import point_values, sample_dyadic
from test_kernel import census_fn

F = Fraction


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_bound_curves():
    start = time.monotonic()
    grid = [i / 100 for i in range(1, 100)]
    tri = trivial_upper_bound_sierpinski()
    ordered = all(0 < lower_bound(a) < upper_bound(a) < tri for a in grid)
    at_one = (
        abs(lower_bound(1.0) - 0.08295) <= 5e-5
        and upper_bound(1.0) == 0.5
        and abs(tri - 0.584962500721) <= 1e-11
    )
    elapsed = time.monotonic() - start
    _report(1, ordered and at_one and elapsed < 1.0,
            f"99-point ordering, printed digits, {elapsed:.3f}s")


def _subtree_kappa_sums(tree, depth: int, kmax: int = 3):
    """Exact conservation check at every member node for k <= kmax."""
    checks = failures = 0
    sums: dict[int, list[Fraction]] = {}
    for level in range(depth - 1, -1, -1):
        for node in tree.nodes_at(level):
            acc: list[Fraction] = []
            for k in range(1, min(kmax, depth - level) + 1):
                if k == 1:
                    val = sum((c.kappa for c in node.children), F(0))
                else:
                    val = sum((sums[id(c)][k - 2] for c in node.children), F(0))
                acc.append(val)
                checks += 1
                if val < node.kappa:
                    failures += 1
            sums[id(node)] = acc
    return checks, failures


def test_criterion_02_weak_conservation(corpus):
    start = time.monotonic()
    checks = failures = 0
    for fn, l, alpha, depth, pairs in corpus:
        for r, tree in pairs:
            c, f = _subtree_kappa_sums(tree, depth, kmax=3)
            checks += c
            failures += f
    elapsed = time.monotonic() - start + getattr(corpus, "build_seconds", 0.0)
    _report(2, failures == 0 and elapsed < 120.0,
            f"{checks} conservation inequalities on 100x20 corpus, "
            f"0 failures expected (got {failures}), {elapsed:.1f}s incl. "
            f"corpus build")


def test_criterion_03_mass_distribution(corpus):
    bad = 0
    for fn, l, alpha, depth, pairs in corpus:
        for r, tree in pairs:
            tree.fill_measure(depth)
            for level in range(1, depth + 1):
                nodes = tree.nodes_at(level)
                if sum(n.mu for n in nodes) != 1:
                    bad += 1
                if not all(n.mu <= n.kappa for n in nodes):
                    bad += 1
    _report(3, bad == 0, f"mu sums to 1 and mu <= kappa, exact; {bad} violations")


def test_criterion_04_census(corpus):
    d1 = F(1, 2)
    bad = 0
    runs = 0
    for fn, l, alpha, depth, pairs in corpus:
        for n in (2, 4, 6):
            res = well_conducting_census(fn, None, n, l, d1, alpha=alpha)
            runs += 1
            if not res.passed:
                bad += 1
    # corpus counts do not depend on the function; a constant triangle
    # takes the census off the closed form sum_j C(n, j) 2**(n-j) (B-2)**j
    flat = census_fn("flat", 1)
    off_closed_form = 0
    for l in (1, 2):
        b = 3 * (2**l - 1)
        for n in (2, 4, 6):
            res = well_conducting_census(flat, None, n, l, d1, alpha=0.5)
            runs += 1
            if not res.passed:
                bad += 1
            t = res.threshold_exp
            closed = sum(math.comb(n, j) * 2 ** (n - j) * (b - 2) ** j for j in range(t + 1))
            off_closed_form += res.count != closed
    l_star = feasible_l(1.0, F(1, 2))
    c_star = census_constant(1.0, F(1, 2), l_star)
    _report(4, bad == 0 and off_closed_form > 0 and l_star == 6 and c_star < 1,
            f"{runs} census runs within the binomial bound, {off_closed_form} "
            f"flat-function counts off the closed form; feasible l(1, 1/2)"
            f" = {l_star} with c = {c_star:.4f} < 1")


def test_criterion_05_witness_law():
    start = time.monotonic()
    law_ok = True
    for digits in itertools.product((0, 1), repeat=4):
        y = F(sum(d << (3 - i) for i, d in enumerate(digits)), 16) + F(1, 32)
        if line_crossing_count(digits) != line_crossing_count_geometric(y, 4):
            law_ok = False
    slope_ok = True
    details = []
    for alpha in (0.3, 0.5, 0.8):
        p = 2.0**-alpha
        slopes = []
        for t in range(20):
            rng = random.Random(1000 + t)
            digs = [1 if rng.random() < p else 0 for _ in range(1000)]
            slopes.append(box_count_dimension(digs).slope)
        mean = sum(slopes) / len(slopes)
        details.append(f"alpha={alpha}: {mean:.4f} vs {1 - p:.4f}")
        if abs(mean - (1 - p)) > 0.02:
            slope_ok = False
    elapsed = time.monotonic() - start
    _report(5, law_ok and slope_ok and elapsed < 30.0,
            f"exact 4-digit law; slopes {'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_06_witness_holder():
    violations = 0
    for alpha in (0.3, 0.5, 0.8):
        w = BernoulliWitnessFn.for_alpha(alpha, max_depth=48)
        rng = random.Random(int(alpha * 1000))
        for _ in range(10_000):
            x = sample_dyadic(rng, rng.randrange(1, 41))
            y = sample_dyadic(rng, rng.randrange(1, 41))
            if x == y:
                continue
            diff = abs(w.value_at_height(x) - w.value_at_height(y))
            if diff > w.holder_bound(x, y):
                violations += 1
    _report(6, violations == 0,
            f"3 x 10^4 dyadic pairs at depth <= 40; {violations} violations "
            f"of the 3|x-y|**alpha law")


def _graft_base_agreement(gf, base, n_prime: int) -> bool:
    """Exhaustive check over every level-n' triangle, exact arithmetic."""
    stack = [("", tuple(point_values(base)[p] for p in triangle_vertices("")))]
    while stack:
        word, vals = stack.pop()
        if len(word) == n_prime:
            labels = _repeated_value_labels(gf.base.corner_values(word))
            anchor = vals[labels[0]]
            if vals[labels[1]] != anchor:
                return False
            gap = vals[labels[2]] - anchor
            # the witness contributes exactly 0, 0 and 1 at the corners
            reproduced = (anchor, anchor, anchor + gap)
            for role, corner in enumerate(labels):
                if reproduced[role] != vals[corner]:
                    return False
            continue
        for sym in range(3):
            if len(word) + 1 <= base.level:
                pts = triangle_vertices(word + str(sym))
                cvals = tuple(point_values(base)[p] for p in pts)
            else:
                anchor = vals[sym]
                cvals = tuple((v + anchor) / 2 for v in vals)
            stack.append((word + str(sym), cvals))
    return True


def test_criterion_07_grafting():
    witness = BernoulliWitnessFn.for_alpha(0.5)
    rng = random.Random(99)
    ok = True
    details = []
    for seed in range(20):
        base = random_standard_paf(100 + seed, 2, 0.5, 0.1, check=False)
        lip = base.lipschitz()
        n_prime = max(min_graft_level(lip, 0.5), base.level)
        # the level threshold holds at n' and fails one level up
        if not (lip * 2.0 ** (-n_prime / 2) < 0.01 <=
                lip * 2.0 ** (-(n_prime - 1) / 2)):
            ok = False
        gf = graft(base, n_prime, witness)
        if gf.certificate_constant >= 0.125:
            ok = False
        if not _graft_base_agreement(gf, base, n_prime):
            ok = False
        # spot checks through the full evaluation path
        for _ in range(10):
            word = "".join(str(rng.randrange(3)) for _ in range(n_prime))
            vals = base.corner_values(word)
            for corner, p in enumerate(triangle_vertices(word)):
                if gf.value_in_triangle(word, p) != vals[corner]:
                    ok = False
        details.append(f"seed {100 + seed}: n'={n_prime} "
                       f"const={gf.certificate_constant:.4f}")
    _report(7, ok, f"20 grafts agree with their bases on V_n' exactly and "
                   f"stay under 1/8 ({details[0]}, ...)")


def test_criterion_08_fat_cantor():
    exact = all(
        cantor_level(n).measure == F(2**n, 2 ** (n + 1) - 1) for n in range(31)
    )
    materialized = all(
        sum(b - a for a, b in cantor_level(n).intervals()) == cantor_level(n).measure
        for n in (6, 10, 14)
    )
    bracket = abs(cantor_level(20).measure - F(1, 2)) < F(1, 10**6)
    _report(8, exact and materialized and bracket,
            "exact measures to n = 30, interval sums agree, limit bracketed at n = 20")


def test_criterion_09_capacity_bounds_and_divergence():
    ok = True
    alphas = [0.55 + 0.05 * i for i in range(10)]
    for alpha in alphas:
        for k in range(1, 21):
            cg = capacity_gap(k, alpha)
            if cg.direct_sum > cg.closed_form_bound:
                ok = False
    # strict decrease in k at alpha = 0.75 (the criterion's stated scope;
    # at alpha = 0.55 the k = 1 -> 2 step genuinely increases because the
    # normalizer 2**(k+1)-1 still grows faster than the sum shrinks)
    ratios = [capacity_gap(k, 0.75).ratio_to_interval for k in range(1, 21)]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    diverged = capacity_gap(6, 0.4).diverges
    _report(9, ok and decreasing and diverged,
            "direct sums under the closed form on the (k, alpha) grid, "
            "ratio strictly decreasing at alpha = 0.75, divergence flagged "
            "at alpha = 0.4")


def _capacity_ratio_oracle(k: int, alpha: float) -> mpmath.mpf:
    """sum_{m>k} 2**(m-k-1) r_m**alpha * (2**(k+1)-1) at 50 digits.

    r_m = 1/((2**m-1)(2**(m+1)-1)) is the generation-m gap.  The term
    ratio stays below q = 2**(1-2 alpha), so summing until the geometric
    tail bound term * q/(1-q) drops under 1e-45 of the total leaves the
    result exact to far beyond double precision.
    """
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        q = mpmath.mpf(2) ** (1 - 2 * a)
        total = mpmath.mpf(0)
        m = k + 1
        while True:
            r = mpmath.mpf(1) / (((1 << m) - 1) * ((1 << (m + 1)) - 1))
            term = mpmath.mpf(2) ** (m - k - 1) * r**a
            total += term
            if term * q / (1 - q) < total * mpmath.mpf(10) ** -45:
                return total * ((1 << (k + 1)) - 1)
            m += 1


def _ratio_agrees(cg, expected) -> bool:
    """The program's ratio lies in [expected - tail, expected] (scaled).

    The program truncates the sum from below and reports a bound on what
    it dropped; a relative 1e-12 covers the float rounding of its
    log2-space terms.
    """
    scale = (1 << (cg.k + 1)) - 1
    gap = expected - cg.ratio_to_interval
    slack = 1e-12 * expected
    return -slack <= gap <= cg.truncation_tail * scale + slack


def test_criterion_09_ratio_threshold_as_stated():
    """The relative capacity of the gaps in a level-k interval becomes
    negligible at alpha = 0.75: ratio < 1e-3 from k = 21 on.

    The gaps inside I_k number 2**(m-k-1) of length
    r_m = 1/((2**m-1)(2**(m+1)-1)) per generation m > k, so the ratio is
    sum_{m>k} 2**(m-k-1) r_m**alpha * (2**(k+1)-1) and shrinks by
    2**(1-2 alpha) = 2**(-1/2) per level at alpha = 0.75: 2.24e-2 at
    k = 12, 1.40e-3 at k = 20, 9.91e-4 at k = 21.  At alpha = 1 the
    gaps fill I_k except for the limit set, whose measure there is
    ``cantor_tail_measure(k)`` = 2**-(k+1), so the ratio is exactly
    2**-(k+1), 1/8192 at k = 12.  The earlier statement "ratio < 1e-3
    by k = 12 at alpha = 0.75" matches that alpha = 1 value, not
    alpha = 0.75.  Expected values come from a 50-digit mpmath sum.
    """
    ks = range(12, 22)
    oracle = {k: _capacity_ratio_oracle(k, 0.75) for k in ks}
    gaps = {k: capacity_gap(k, 0.75) for k in ks}
    agree = all(_ratio_agrees(gaps[k], oracle[k]) for k in ks)
    ratios = {k: gaps[k].ratio_to_interval for k in ks}
    below = [k for k in ks if oracle[k] < 1e-3]
    crossing = (below == [21] and ratios[12] > 1e-3
                and ratios[20] >= 1e-3 and ratios[21] < 1e-3)

    # alpha = 1: gap measure = |I_12| minus the limit set inside it
    exact_one = 1 - cantor_tail_measure(12) / interval_length(12)
    two_13 = mpmath.mpf(2) ** -13
    at_one = capacity_gap(12, 1.0)
    one_ok = (exact_one == F(1, 1 << 13)
              and abs(_capacity_ratio_oracle(12, 1.0) - two_13) < 1e-40
              and _ratio_agrees(at_one, two_13)
              and at_one.ratio_to_interval < 1e-3)
    _report(9, agree and crossing and one_ok,
            f"ratio at alpha=0.75 matches the 50-digit sum for k=12..21 "
            f"({agree}); {ratios[12]:.4e} at k=12, {ratios[20]:.4e} at k=20, "
            f"{ratios[21]:.4e} at k=21, below 1e-3 at k in {below}; "
            f"alpha=1, k=12: {at_one.ratio_to_interval:.6e} vs 2**-13 "
            f"({one_ok})")


def test_criterion_10_phase_boundary():
    start = time.monotonic()
    structure = product_separated_structure(10)
    cert_ok = (structure.nu, structure.rho) == (F(1, 2), F(1, 4)) \
        and len(structure.certificates["levels"]) == 9
    feas = feasibility_search(0.4, 0.5, 1.0, structure, k_cap=60)
    infeas = feasibility_search(0.6, 0.5, 1.0, structure, k_cap=60)
    search_ok = feas.first_feasible_k is not None and infeas.monotone_infeasible

    c = F(1, 2)
    cfg = cylinder_config(0.6, c, k=29, ix=1, iy=2, delta=0.2)
    grid = cantor_grid(lambda x, y: c * x, 4)
    for x in (cfg.x1, cfg.x2):
        grid[(x, cfg.y1)] = c * x
    rep = phase_perturbation(grid, cfg)
    pert_ok = rep.large_change_exact and rep.holder_ok and rep.capacity_ok
    elapsed = time.monotonic() - start
    _report(10, cert_ok and search_ok and pert_ok and elapsed < 30.0,
            f"(1/2, 1/4) certified to k=10; feasible k={feas.first_feasible_k} "
            f"at alpha=0.4; monotone infeasibility to k=60 at alpha=0.6; "
            f"exact large-change certificate; {elapsed:.1f}s")
