"""Command-line front end: reproducible experiments with CSV/JSON output.

Every CSV artifact starts with a '#'-prefixed JSON line holding the
fully resolved run configuration, so outputs are self-describing and a
rerun with the same flags is byte-identical.  Exit status is 0 when
every embedded invariant check passed, 1 when one failed, and 2 on bad
input, which is reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import json
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


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int) and not isinstance(x, bool):
        # str() refuses ints past sys.get_int_max_str_digits() digits
        # (witness counts 2**zeros reach that); Decimal prints any size
        return str(Decimal(x))
    return str(x)


def write_csv(path: str | None, config: dict, header: list[str], rows) -> None:
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}")


def write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_fmt) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}")


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
    _require(args.level >= 1, "--level must be at least 1")
    _require(args.l >= 1, "--l must be at least 1")
    _require(args.depth >= 0, "--depth must be non-negative")
    _require(0 < args.alpha <= 1, "--alpha must lie in (0, 1]")
    _require(args.c > 0, "--c must be positive")


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
    config = {
        "command": "levelset", "seed": args.seed, "depth": args.depth,
        "l": args.l, "level": args.level, "r_count": args.r_count,
        "alpha": args.alpha, "c": args.c,
    }
    fn = random_standard_paf(args.seed, args.level, args.alpha, args.c,
                             check=False)
    lo = min(fn.corner_values(""))
    hi = max(fn.corner_values(""))
    rng = random.Random(args.seed ^ 0x5EED)
    failures = 0
    resampled = 0
    rows = []
    artifacts = []
    produced = 0
    while produced < args.r_count:
        r = lo + (hi - lo) * Fraction(rng.randrange(1, 3 * 2**24), 3 * 2**24)
        try:
            tree = ls.LevelSetTree(fn, r, args.l, depth=args.depth)
        except ls.LevelCollisionError:
            resampled += 1
            continue
        produced += 1
        if tree.root is None:
            continue
        tree.fill_measure(args.depth)
        cons = tree.conservation("", args.depth)
        level_set = ls.approx_level_set(fn, r, args.depth, args.l, tree=tree)
        ksum = level_set.kappa_sum()
        ok = cons.passed and ksum >= 1
        if not ok:
            failures += 1
        rows.append((float(r), len(level_set.members), float(ksum),
                     float(cons.lhs), float(cons.rhs), int(ok)))
        artifacts.append(level_set.to_json())
    write_csv(args.out, config,
              ["r", "members", "kappa_sum", "conservation_lhs",
               "conservation_rhs", "ok"], rows)
    if args.json_out:
        write_json(args.json_out, {"config": config, "resampled": resampled,
                                   "level_sets": artifacts})
    if resampled:
        print(f"resampled {resampled} colliding level values", file=sys.stderr)
    return 1 if failures else 0


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
    fn = random_standard_paf(args.seed, args.level, args.alpha, args.c,
                             check=False)
    lo = min(fn.corner_values(""))
    hi = max(fn.corner_values(""))
    rng = random.Random(args.seed ^ 0x5EED)
    r = lo + (hi - lo) * Fraction(rng.randrange(1, 3 * 2**24), 3 * 2**24)
    tree = ls.LevelSetTree(fn, r, args.l, depth=args.depth).fill_measure(args.depth)
    rows = []
    for level in range(args.depth + 1):
        hist: dict[int, int] = {}
        mu_by_exp: dict[int, Fraction] = {}
        for node in tree.nodes_at(level):
            hist[node.kappa_exp] = hist.get(node.kappa_exp, 0) + 1
            mu_by_exp[node.kappa_exp] = mu_by_exp.get(node.kappa_exp, Fraction(0)) + node.mu
        for exp in sorted(hist):
            rows.append((level, exp, hist[exp], float(mu_by_exp[exp])))
    write_csv(args.out, config, ["level", "kappa_exp", "count", "mu_total"], rows)
    if d1 is not None:
        ok = True
        census_rows = []
        q = d1.denominator
        for n in range(q, args.depth + 1, q):
            res = ls.well_conducting_census(fn, None, n, args.l, d1,
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
    p = 2.0 ** (-alpha)
    config = {"command": "witness", "alpha": alpha, "digits": args.digits,
              "trials": args.trials, "seed": args.seed}

    def one(trial: int):
        rng = random.Random(args.seed * 7919 + trial)
        digs = sample_digits(rng, p, args.digits)
        est = bd.box_count_dimension(digs)
        return (args.digits, 1 << int(est.log2_counts[-1]), est.slope)

    rows = [one(trial) for trial in range(args.trials)]
    write_csv(args.out, config, ["n", "count", "slope"], rows)
    if args.trace_out and args.trials:
        rng = random.Random(args.seed * 7919)
        est = bd.box_count_dimension(sample_digits(rng, p, args.digits))
        trace = [(int(n), 1 << int(z), int(z))
                 for n, z in zip(est.levels, est.log2_counts)]
        write_csv(args.trace_out, dict(config, table="trace", trial=0),
                  ["n", "count", "log2count"], trace)
    return 0


def cmd_cantor(args) -> int:
    config = {"command": "cantor", "depth": args.depth,
              "capacity_alphas": args.capacity_alphas}
    rows = []
    for n in range(args.depth + 1):
        cs = ct.cantor_level(n)
        gap = ct.removal_length(n) if n >= 1 else Fraction(0)
        rows.append((n, cs.count, cs.length, float(cs.measure), float(gap)))
    write_csv(args.out, config,
              ["n", "intervals", "length", "measure", "removal"], rows)
    if args.json_out:
        level = min(args.depth, args.json_depth)
        write_json(args.json_out, {
            "config": dict(config, intervals_level=level),
            "intervals": ct.cantor_level(level).to_json(),
        })
    if args.capacity_alphas:
        cap_rows = []
        ok = True
        for alpha in _alpha_grid(args.capacity_alphas):
            for k in range(1, args.depth + 1):
                cg = ct.capacity_gap(k, alpha)
                bound = cg.closed_form_bound
                if bound is not None and cg.direct_sum > bound:
                    ok = False
                cap_rows.append((k, alpha, cg.direct_sum,
                                 float("nan") if bound is None else bound,
                                 cg.ratio_to_interval, int(cg.diverges)))
        write_csv(args.capacity_out, dict(config, table="capacity"),
                  ["k", "alpha", "direct", "bound", "ratio", "diverges"],
                  cap_rows)
        if not ok:
            return 1
    return 0


def cmd_phase(args) -> int:
    _require(0 < args.alpha <= 1, "--alpha must lie in (0, 1]")
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
        print(f"feasible piecewise-constant approximation at "
              f"k={search.first_feasible_k}")
    elif search.boundary:
        print("boundary exponent: lhs/rhs ratio is constant up to the "
              "K-dependent prefactor")
    else:
        ok = ok and search.monotone_infeasible
        c = Fraction(args.c).limit_denominator(10**6)
        k = args.perturb_k
        cap = ct.capacity_gap(k, args.alpha)
        while cap.ratio_to_interval >= args.delta and k < 200:
            k += 1
            cap = ct.capacity_gap(k, args.alpha)
        cfg = ct.cylinder_config(args.alpha, c, k=k, ix=1, iy=1,
                                 delta=args.delta)
        grid = ct.cantor_grid(lambda x, y: c * x, args.grid_level)
        cs = ct.cantor_level(k)
        x1, x2 = cs.interval(1)
        _, y1 = cs.interval(1)
        for p in [(x1, y1), (x2, y1)]:
            grid[p] = c * p[0]
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
        print(f"infeasible; perturbation certificate {state}")
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
    lo = min(fn.corner_values(""))
    hi = max(fn.corner_values(""))
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

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("levelset", help="level-set trees with conservation checks")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--level", type=int, default=4, help="function level")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.9)
    p.add_argument("--r-count", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("conductivity-hist", help="histogram of conductivities")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--c", type=float, default=0.9)
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
