"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

    python tools/bench_pairs.py PARENT_REV --pairs 10 --seconds 13 --out BENCH_N.json

The parent's committed files are exported with ``git archive`` into a
temporary directory, which is removed afterwards; the change is this
checkout.  Each side keeps its bytecode in its own fresh cache in that
directory (``PYTHONPYCACHEPREFIX``, with bytecode writing on), so
neither reads a ``__pycache__`` left by earlier runs, and an untimed
``--seconds 0`` run per side and workload fills the cache before the
pairs.  For every workload of ``BENCHMARK.json`` (or each
``--workload`` given) and pair i = 1..N, seed ``--first-seed`` + i - 1,
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs once
on each side, one process at a time: the parent first in odd pairs, the
change first in even ones.  OUT gets, per workload and end-to-end metric,
each side's runs, median and inclusive quartiles, the parent's IQR, the
change's relative difference, the pairs the change read better in, the
metric's bound, whether the change is within it and whether it shows a
gain (at least 9 pairs in 10 won, a tie won by neither side, and the
medians apart in the better direction by more than the parent's IQR);
and per workload whether every run was correct and each run's
failed-check count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, pycache: Path) -> dict:
    """The result line of one benchmark run in ``checkout``, its bytecode cached in ``pycache``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, inclusive quartiles, pairs won and the bound check of one metric."""
    def quartiles(xs):
        return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    direction = 1 if better == "lower" else -1
    won = sum(direction * (c - p) < 0 for p, c in zip(parent, change))
    rel = cm / pm - 1
    return {"parent": parent, "change": change,
            "parent_median": pm, "parent_quartiles": [p1, p3], "parent_iqr": p3 - p1,
            "change_median": cm, "change_quartiles": [c1, c3],
            "rel": round(rel, 4), "change_better": f"{won}/{len(parent)}",
            "bound": bound, "within_bound": direction * rel <= bound,
            "gain_shown": 10 * won >= 9 * len(parent) and direction * (pm - cm) > p3 - p1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    # perfbench makes round(seconds / 6.5) timed passes and reports their
    # median: 13 s gives two passes per run, 3 s only one
    parser.add_argument("--seconds", type=float, default=13)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default: all of BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    out = {"protocol": f"{args.pairs} pairs per workload, seeds {seeds[0]}-{seeds[-1]}: "
                       f"parent {rev} first in odd pairs, the change first in even ones; "
                       "one process at a time",
           "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                      f"--seconds {args.seconds:g} --trace 0",
           "env": {"python": platform.python_version(), "machine": platform.machine(),
                   # a run with PYTHONDONTWRITEBYTECODE=1 and no cache compiles every
                   # module it imports inside its setup_s
                   "bytecode": "cached: each side its own fresh PYTHONPYCACHEPREFIX, "
                               "written (PYTHONDONTWRITEBYTECODE unset) and filled by an "
                               "untimed run per workload"},
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": ROOT}
        caches = {side: Path(tmp) / f"pycache-{side}" for side in checkouts}
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkouts["parent"], filter="data")
        for workload in workloads:
            for side in checkouts:
                run_bench(checkouts[side], workload, seeds[0], 0, caches[side])
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(checkouts[side], workload, seed, args.seconds,
                                                caches[side]))
                    print(f"{workload} seed {seed} {side}: "
                          f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr)
            entry = {"correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                     "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()}}
            for metric in bench["end_to_end"]:
                name = metric["name"]
                entry[name] = summary(*([r["metrics"][name]["value"] for r in runs[side]]
                                        for side in ("parent", "change")),
                                      metric["better"], metric["bound"])
            out["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
