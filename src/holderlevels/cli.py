"""Command-line front end: reproducible experiments with CSV/JSON output.

Every CSV artifact starts with a '#'-prefixed JSON line holding the
fully resolved run configuration, so outputs are self-describing and a
rerun with the same flags is byte-identical.  Exit status is 0 when
every embedded invariant check passed, 1 when one failed, and 2 on bad
input or an output that cannot be written, reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from decimal import Decimal
from fractions import Fraction

from . import bounds as bd
from . import cantor as ct
from . import levelset as ls
from .bernoulli import sample_digits
from .paf import holder_certificate, random_standard_paf
from .triangles import line_crossing_count, line_crossing_count_geometric


class UsageError(Exception):
    """Bad command-line input; ``main`` reports it and returns 2."""


# the phase grid has (2**(g+1))**2 exact points, whose Fraction values and
# hashes take most of the time: phase --alpha 0.6 at g = 7 takes 0.8-1.1 s
# and 66 MB, and at g = 8 (cap lifted) 4.0 s and 167 MB (2-CPU Xeon,
# Python 3.11); each further level costs about four times the last.  At
# alpha = 1 the affine base's tied pairs make its Holder scan the cost:
# phase --alpha 1.0 at g = 7 takes 6.6-6.9 s and 67 MB on the same host
_MAX_GRID_LEVEL = 7

# the trees still build and test the 3(2**l - 1) boundary words as strings
# (the census of a standard function counts them by a closed form), and the
# function keeps the root's for its later level values: levelset --l 16
# --depth 1 (2-CPU Xeon, Python 3.11) takes 1.4 s and 133 MB at --r-count 1
# and 1.8 s at 20, each l + 1 doubles both, and l = 16 is the feasible l of
# BoundSearchParams.for_alpha(0.2)
_MAX_L = 16

# below the crossing depth a tree keeps runs, and levelset and
# conductivity-hist read them through histograms, whose exponents and mu
# numerators grow with the depth: at --l 1 (in-process, 2-CPU Xeon, Python
# 3.11) levelset --r-count 20 took 0.61 s and 21 MB at depth 100 and 2.1 s
# and 25 MB at 200, and conductivity-hist, every level from one walk, 0.08 s
# and 19 MB at 100 and 0.29 s and 23 MB at 200, about 3.5x per doubling; at
# --l 8 conductivity-hist took 0.03 s at depth 200 (its cost is the crossing)
_MAX_DEPTH = 200

# levelset --json-out lists the tree's nodes at --depth, which follows
# l * depth, its word length (in-process, 2-CPU Xeon, Python 3.11): 1.1 s and
# 104 MB at depth 24, 2.6 s and 214 MB at 26, about 7 s and 506 MB at 28
# (711,502 nodes), and 5.8 s and 413 MB at --l 2 --depth 14; depth 40 would
# list 3.6 * 10**8 nodes
_MAX_WORD_LENGTH = 28

# the function's level index and word table hold (3**(L+1) - 1)/2 words:
# levelset --depth 5 --r-count 1 (2-CPU Xeon, Python 3.11) took 1.4 s and
# 130 MB at L = 10 and 4.0 s and 320 MB at L = 11; with a second, Fraction
# word table it took 15 s and 1.0 GB at L = 12
_MAX_LEVEL = 11

# phase searches the perturbation level k up to this cap, and builds the
# level-k Cantor lattice, which grows about 8x in memory per doubling of k
_MAX_PERTURB_K = 200

# phase --k-cap scans the levels 0..k_cap, about 6 us each: --alpha 0.6
# --k-cap 10000 took 0.25 s and 32 MB and 10**5 0.80 s (in-process with
# start-up, 2-CPU Xeon, Python 3.11); 10**8 was still running at 60 s
_MAX_K_CAP = 10_000

# cantor --depth D writes one row per level with its exact length, over
# lcm(2**j - 1, j <= D + 1): D = 4096 took 0.27 s and 35 MB and wrote 5.1 MB,
# D = 8000 1.25 s and 83 MB and 19 MB (in-process, 2-CPU Xeon, Python 3.11),
# about 5x per doubling; 14,500 took 6.4 s and wrote 63 MB
_MAX_CANTOR_DEPTH = 4096

# cantor --json-out lists the 2**n intervals of level n = min(--depth,
# --json-depth) as reduced fractions: n = 16 took 0.48 s and 61 MB and wrote
# 6.8 MB (in-process, 2-CPU Xeon, Python 3.11), and each n + 2 costs about 4x
# the time and 3.4x the memory (n = 18: 1.9 s, 205 MB and a 30 MB file)
_MAX_JSON_LEVEL = 16

# witness --trace-out prints trial 0's count 2**z per level in full decimal,
# which grows with --digits squared: --alpha 0.5 (in-process, 2-CPU Xeon,
# Python 3.11) took 0.32 s, 47 MB and a 4.3 MB file at 10**4 digits, 5.1 s,
# 273 MB and 70 MB at 4 * 10**4, and 55 s, 1.5 GB and 442 MB at 10**5
_MAX_TRACE_DIGITS = 10_000


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, Fraction):
        return f"{_fmt(x.numerator)}/{_fmt(x.denominator)}"
    if isinstance(x, int) and not isinstance(x, bool):
        # str() refuses ints past sys.get_int_max_str_digits() digits (witness
        # counts 2**zeros, deep cantor interval ends); Decimal prints any size
        return str(Decimal(x))
    return str(x)


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout for None or '-'.

    A failed write is a UsageError.  When stdout is the one that failed
    (a closed pipe), it is pointed at the null device first, so the
    interpreter's last flush at exit cannot fail again.
    """
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if to_stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise UsageError(f"cannot write {'stdout' if to_stdout else path}: {exc}")


def write_csv(path: str | None, config: dict, header: list[str], rows) -> None:
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def write_json(path: str | None, payload: dict) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=2, default=_fmt) + "\n")


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a,b,c' literal values or 'start:stop:count'."""
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if count <= 0:
                return []
            if count == 1:
                return [start]
            step = (stop - start) / (count - 1)
            return [start + i * step for i in range(count)]
        if not text.strip():
            return []
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad grid {text!r}: use 'a,b,c' or 'start:stop:count'")


def _alpha_grid(text: str) -> list[float]:
    grid = _parse_grid(text)
    for alpha in grid:
        _require(0 < alpha <= 1, f"alpha {alpha:g} in the grid must lie in (0, 1]")
    return grid


def _check_function_args(args) -> None:
    """The seeded standard function and tree options shared by two commands."""
    _require(1 <= args.level <= _MAX_LEVEL,
             f"--level must lie in 1..{_MAX_LEVEL}: each level costs about 3x the last")
    _require(1 <= args.l <= _MAX_L,
             f"--l must lie in 1..{_MAX_L}: each l + 1 doubles the boundary words")
    _require(0 <= args.depth <= _MAX_DEPTH,
             f"--depth must lie in 0..{_MAX_DEPTH}: each doubling costs about 3.5x")
    _require(0 < args.alpha <= 1, "--alpha must lie in (0, 1]")
    _require(0 < args.c < float("inf"), "--c must be positive and finite")


def _level_draws(fn, seed: int):
    """Level values lo + (hi - lo) k / (3 2**24), 0 < k < 3 2**24, over the root hull.

    A k divisible by 3 gives a dyadic level, which can meet a vertex
    value; the commands then draw again and count the resamples.
    """
    hull = fn.corner_values("")
    lo, hi = min(hull), max(hull)
    rng = random.Random(seed ^ 0x5EED)
    while True:
        yield lo + (hi - lo) * Fraction(rng.randrange(1, 3 * 2**24), 3 * 2**24)


def _trees(args):
    """(r, tree to --depth, resamples so far) over the seeded function's level draws.

    The draws lie strictly inside the root hull, so every root is a member.
    """
    fn = random_standard_paf(args.seed, args.level, args.alpha, args.c, check=False)
    resampled = 0
    for r in _level_draws(fn, args.seed):
        try:
            tree = ls.LevelSetTree(fn, r, args.l, depth=args.depth)
        except ls.LevelCollisionError:
            resampled += 1
            continue
        yield r, tree, resampled


def _report_resampled(resampled: int) -> None:
    if resampled:
        print(f"resampled {resampled} colliding level values", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    grid = _alpha_grid(args.grid)
    config = {"command": "bounds", "grid": grid, "precision": args.precision}
    rows = []
    for alpha in grid:
        lo = bd.lower_bound(alpha, args.precision)
        up = bd.upper_bound(alpha, args.precision)
        triv = bd.trivial_upper_bound_sierpinski(args.precision)
        rows.append((alpha, float(lo), float(up), float(triv)))
    write_csv(args.out, config, ["alpha", "lower", "upper", "trivial"], rows)
    return 0


def cmd_levelset(args) -> int:
    _check_function_args(args)
    _require(args.r_count >= 0, "--r-count must be non-negative")
    _require(not args.json_out or args.l * args.depth <= _MAX_WORD_LENGTH,
             f"--l times --depth must be at most {_MAX_WORD_LENGTH} with --json-out: "
             "memory doubles about every two steps of word length")
    config = {
        "command": "levelset", "seed": args.seed, "depth": args.depth,
        "l": args.l, "level": args.level, "r_count": args.r_count,
        "alpha": args.alpha, "c": args.c,
    }
    rows = []
    artifacts = []
    resampled = 0
    for r, tree, resampled in itertools.islice(_trees(args), args.r_count):
        members = sum(count for count, _ in tree.histogram(args.depth).values())
        cons = tree.conservation("", args.depth)
        # the root's kappa is 1, so the conservation sum is the level's kappa sum
        rows.append((float(r), members, float(cons.lhs),
                     float(cons.lhs), float(cons.rhs), int(cons.passed)))
        if args.json_out:
            nodes = sorted(tree.nodes_at(args.depth), key=lambda node: node.word)
            artifacts.append({"r": tree.r, "n": args.depth, "l": args.l, "members": [
                {"address": node.word, "kappa_exp": node.kappa_exp, "mu": node.mu}
                for node in nodes]})
    write_csv(args.out, config,
              ["r", "members", "kappa_sum", "conservation_lhs",
               "conservation_rhs", "ok"], rows)
    if args.json_out:
        write_json(args.json_out, {"config": config, "resampled": resampled,
                                   "level_sets": artifacts})
    _report_resampled(resampled)
    return 0 if all(row[-1] for row in rows) else 1


def cmd_conductivity_hist(args) -> int:
    _check_function_args(args)
    d1 = None
    if args.d1:
        try:
            d1 = Fraction(args.d1)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad --d1 {args.d1!r}: use a rational such as 1/2")
        _require(0 < d1 <= 1, "--d1 must lie in (0, 1]")
    config = {
        "command": "conductivity-hist", "seed": args.seed, "depth": args.depth,
        "l": args.l, "level": args.level, "alpha": args.alpha, "c": args.c,
        "d1": args.d1,
    }
    _, tree, resampled = next(_trees(args))
    _report_resampled(resampled)
    rows = []
    for level, hist in enumerate(tree.histograms(args.depth)):
        for exp, (count, mu) in hist.items():
            # int / int is correctly rounded, as float(Fraction) is
            rows.append((level, exp, count, mu / tree.mu_denominators[level]))
    write_csv(args.out, config, ["level", "kappa_exp", "count", "mu_total"], rows)
    if d1 is not None:
        ok = True
        census_rows = []
        q = d1.denominator
        for n in range(q, args.depth + 1, q):
            res = ls.well_conducting_census(tree.fn, None, n, args.l, d1,
                                            alpha=args.alpha)
            ok = ok and res.passed
            census_rows.append((n, res.count, res.binomial_bound,
                                res.image_measure, int(res.passed)))
        write_csv(args.census_out, dict(config, table="census"),
                  ["n", "count", "binomial_bound", "image_measure", "passed"],
                  census_rows)
        if not ok:
            return 1
    return 0


def cmd_witness(args) -> int:
    alpha = args.alpha
    _require(0 < alpha < 1, "witness runs need alpha in (0, 1): p must exceed 1/2")
    _require(args.digits >= 1, "--digits must be at least 1")
    _require(not args.trace_out or args.digits <= _MAX_TRACE_DIGITS,
             f"--digits must be at most {_MAX_TRACE_DIGITS} with --trace-out: "
             "the trace grows with its square")
    _require(args.trials >= 0, "--trials must be non-negative")
    p = 2.0 ** (-alpha)
    config = {"command": "witness", "alpha": alpha, "digits": args.digits,
              "trials": args.trials, "seed": args.seed}
    # each trial keeps its row alone, and trial 0 its estimate for the trace
    rows, trace_est = [], None
    for trial in range(args.trials):
        est = bd.box_count_dimension(
            sample_digits(random.Random(args.seed * 7919 + trial), p, args.digits))
        rows.append((args.digits, 1 << int(est.log2_counts[-1]), est.slope))
        if not trial and args.trace_out:
            trace_est = est
    write_csv(args.out, config, ["n", "count", "slope"], rows)
    if trace_est is not None:
        trace = [(int(n), 1 << int(z), int(z))
                 for n, z in zip(trace_est.levels, trace_est.log2_counts)]
        write_csv(args.trace_out, dict(config, table="trace", trial=0),
                  ["n", "count", "log2count"], trace)
    return 0


def cmd_cantor(args) -> int:
    _require(0 <= args.depth <= _MAX_CANTOR_DEPTH,
             f"--depth must lie in 0..{_MAX_CANTOR_DEPTH}: each doubling costs about 5x")
    _require(args.json_depth >= 0, "--json-depth must be non-negative")
    config = {"command": "cantor", "depth": args.depth,
              "capacity_alphas": args.capacity_alphas}
    level = min(args.depth, args.json_depth)
    _require(not args.json_out or level <= _MAX_JSON_LEVEL,
             f"--json-out lists level min(--depth, --json-depth) = {level}, past "
             f"{_MAX_JSON_LEVEL}: each level doubles the intervals")
    if args.json_out:
        try:
            intervals = ct.cantor_level(level).to_json()
        except ValueError as exc:
            raise UsageError(f"interval list at level {level}: {exc}")
    cap_rows = []
    ok = True
    for alpha in _alpha_grid(args.capacity_alphas):
        for k in range(1, args.depth + 1):
            try:
                cg = ct.capacity_gap(k, alpha)
            except ValueError as exc:
                raise UsageError(f"--depth {args.depth}: {exc}")
            bound = cg.closed_form_bound
            if bound is not None and cg.direct_sum > bound:
                ok = False
            cap_rows.append((k, alpha, cg.direct_sum,
                             float("nan") if bound is None else bound,
                             cg.ratio_to_interval, int(cg.diverges)))
    rows = []
    for n in range(args.depth + 1):
        cs = ct.cantor_level(n)
        gap = ct.removal_length(n) if n >= 1 else Fraction(0)
        rows.append((n, cs.count, cs.length, float(cs.measure), float(gap)))
    write_csv(args.out, config,
              ["n", "intervals", "length", "measure", "removal"], rows)
    if args.json_out:
        write_json(args.json_out, {
            "config": dict(config, intervals_level=level),
            "intervals": intervals,
        })
    if args.capacity_alphas:
        write_csv(args.capacity_out, dict(config, table="capacity"),
                  ["k", "alpha", "direct", "bound", "ratio", "diverges"],
                  cap_rows)
    return 0 if ok else 1


def cmd_phase(args) -> int:
    _require(0 < args.alpha <= 1, "--alpha must lie in (0, 1]")
    _require(0 < args.c < 1, "--c must lie in (0, 1)")
    _require(0 < args.M < float("inf"), "--M must be positive and finite")
    _require(1 <= args.k_cap <= _MAX_K_CAP, f"--k-cap must lie in 1..{_MAX_K_CAP}")
    _require(args.delta > 0, "--delta must be positive")
    _require(1 <= args.perturb_k <= _MAX_PERTURB_K,
             f"--perturb-k must lie in 1..{_MAX_PERTURB_K}")
    _require(0 <= args.grid_level <= _MAX_GRID_LEVEL,
             f"--grid-level must lie in 0..{_MAX_GRID_LEVEL}: each level costs about 4x the last")
    config = {"command": "phase", "alpha": args.alpha, "c": args.c,
              "M": args.M, "k_cap": args.k_cap}
    structure = ct.product_separated_structure(max(2, min(args.k_cap, 10)))
    search = ct.feasibility_search(args.alpha, args.c, args.M, structure,
                                   k_cap=args.k_cap)
    report: dict = {
        "config": config,
        "structure": {"nu": structure.nu, "rho": structure.rho,
                      "K": structure.K, "threshold": structure.threshold,
                      "certificates": structure.certificates},
        "first_feasible_k": search.first_feasible_k,
        "boundary": search.boundary,
        "monotone_infeasible": search.monotone_infeasible,
    }
    ok = True
    if search.first_feasible_k is not None:
        _write(None, f"feasible piecewise-constant approximation at "
                     f"k={search.first_feasible_k}\n")
    elif search.boundary:
        _write(None, "boundary exponent: lhs/rhs ratio is constant up to the "
                     "K-dependent prefactor\n")
    else:
        ok = ok and search.monotone_infeasible
        c = Fraction(args.c).limit_denominator(10**6)
        _require(0 < c < 1, f"--c {args.c!r} rounds to {c} at denominators up to 10**6; "
                            "the perturbation needs 0 < c < 1")
        k = args.perturb_k
        cap = ct.capacity_gap(k, args.alpha)
        while cap.ratio_bound >= args.delta and k < _MAX_PERTURB_K:
            k += 1
            cap = ct.capacity_gap(k, args.alpha)
        try:
            cfg = ct.cylinder_config(args.alpha, c, k=k, ix=1, iy=1, delta=args.delta)
        except ValueError as exc:
            raise UsageError(f"--c {args.c!r} and --delta {args.delta!r}: {exc}")
        grid = ct.cantor_grid(lambda x, y: c * x, args.grid_level)
        for x in (cfg.x1, cfg.x2):
            grid[(x, cfg.y1)] = c * x
        pert = ct.phase_perturbation(grid, cfg)
        ok = ok and pert.large_change_exact and pert.holder_ok and pert.capacity_ok
        report["perturbation"] = {
            "k": k,
            "large_change_exact": pert.large_change_exact,
            "holder_max_ratio": pert.holder_max_ratio,
            "capacity_ratio": pert.capacity_ratio,
            "guaranteed_interval_length": pert.guaranteed_interval_length,
        }
        state = "holds" if ok else "FAILS"
        _write(None, f"infeasible; perturbation certificate {state}\n")
    if args.out:
        write_json(args.out, report)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    lo1 = bd.lower_bound(1.0)
    checks.append(("lower bound at 1", abs(lo1 - 0.08295) < 5e-5))
    checks.append(("upper bound at 1", bd.upper_bound(1.0) == 0.5))
    checks.append(("trivial bound digits",
                   abs(bd.trivial_upper_bound_sierpinski() - 0.584962500721) < 1e-11))
    checks.append(("feasible l at (1, 1/2)", bd.feasible_l(1.0, Fraction(1, 2)) == 6))

    for digits in ((1, 1, 1), (0, 0, 0), (1, 0, 1)):
        law = line_crossing_count(digits)
        y = Fraction(sum(d << (2 - i) for i, d in enumerate(digits)), 8) + Fraction(1, 16)
        geo = line_crossing_count_geometric(y, 3)
        checks.append((f"crossing law {digits}", law == geo))

    fn = random_standard_paf(args.seed, 4, 0.5, 0.9, check=False)
    cert = holder_certificate(fn, 0.5, 0.9, depth=5)
    checks.append(("seeded function certificate", cert.passed))
    hull = fn.corner_values("")
    lo, hi = min(hull), max(hull)
    r = lo + (hi - lo) * Fraction(1, 3)
    tree = ls.LevelSetTree(fn, r, 1, depth=4).fill_measure(4)
    cons_ok = mu_ok = True
    for level in range(1, 5):
        nodes = tree.nodes_at(level)
        mu_ok = mu_ok and sum(n.mu for n in nodes) == 1
        mu_ok = mu_ok and all(n.mu <= n.kappa for n in nodes)
    cons_ok = tree.conservation("", 4).passed
    checks.append(("weak conservation", cons_ok))
    checks.append(("measure normalization", mu_ok))

    checks.append(("fat cantor measure",
                   ct.cantor_level(12).measure == Fraction(2**12, 2**13 - 1)))
    cg = ct.capacity_gap(8, 0.75)
    checks.append(("capacity bounded", cg.direct_sum <= cg.closed_form_bound))

    _write(None, "".join(f"{'PASS' if ok else 'FAIL'}  {name}\n" for name, ok in checks))
    return 0 if all(ok for _, ok in checks) else 1


# ---------------------------------------------------------------------------

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="holderlevels",
        description="Level sets of 1-Holder-alpha functions on fractals: "
                    "bounds, conductivity, witnesses and phase transitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="bound curves over an alpha grid")
    p.add_argument("--grid", default="0.01:0.99:99",
                   help="alpha grid: 'start:stop:count' or comma list")
    p.add_argument("--precision", choices=("double", "big"), default="double")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    tree_options = argparse.ArgumentParser(add_help=False)
    tree_options.add_argument("--seed", type=int, default=42)
    tree_options.add_argument("--depth", type=int, default=5)
    tree_options.add_argument("--l", type=int, default=1)
    tree_options.add_argument("--level", type=int, default=4, help="function level")
    tree_options.add_argument("--alpha", type=float, default=0.5)
    tree_options.add_argument("--c", type=float, default=0.9)

    p = sub.add_parser("levelset", parents=[tree_options],
                       help="level-set trees with conservation checks")
    p.add_argument("--r-count", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("conductivity-hist", parents=[tree_options],
                       help="histogram of conductivities")
    p.add_argument("--d1", default=None,
                   help="rational decay rate, e.g. 1/2; adds a census table")
    p.add_argument("--out", default=None)
    p.add_argument("--census-out", default=None)
    p.set_defaults(func=cmd_conductivity_hist)

    p = sub.add_parser("witness", help="box-count slopes of the witness")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--digits", type=int, default=1000)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-out", default=None,
                   help="per-level (n, count, log2count) trace of trial 0")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("cantor", help="fat Cantor measures and capacity tables")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--capacity-alphas", default="",
                   help="optional alpha grid for the capacity table")
    p.add_argument("--out", default=None)
    p.add_argument("--capacity-out", default=None)
    p.add_argument("--json-out", default=None,
                   help="interval list as exact rational pairs")
    p.add_argument("--json-depth", type=int, default=12,
                   help="materialization cap for the interval list")
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("phase", help="phase transition report at one alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--k-cap", type=int, default=60)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--perturb-k", type=int, default=2)
    p.add_argument("--grid-level", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("selftest", help="quick invariant bundle")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"holderlevels {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
