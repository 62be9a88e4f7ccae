#!/usr/bin/env python3
"""Benchmark of holderlevels: three seeded workloads, checked and timed.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

``--workload`` is corpus, deep, certify or all.  A run times the import
of holderlevels plus a warm-up pass in fresh processes (``setup_s``,
median of three), warms itself up, then makes timed passes over the
workload's items (``--seconds`` over ``NOMINAL_PASS_S``, at least one)
and checks every output.  With ``--trace 1`` it adds one traced pass and
the single-operation probes and reports the per-layer metrics instead of
the end-to-end ones; spans go to ``.perfbench_out/``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 2 before printing a result.
"""

from __future__ import annotations

import os

# one process, one thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "HL_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PINS = os.path.join(HERE, "pins.json")
SETUP_RUNS = 3
# seconds of --seconds that one pass stands for: a run makes
# round(--seconds / NOMINAL_PASS_S) passes, at least one: 3 passes at 20 s
NOMINAL_PASS_S = 6.5

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "peak_rss_mb": "MB"}

CLI_LABELS = ("bounds", "bounds_big", "levelset", "conductivity_hist", "witness",
              "cantor", "phase_alpha04", "phase_alpha06", "selftest")
LAYERS = ("exact", "triangles", "paf", "levelset", "bounds", "bernoulli",
          "graft", "cantor", "cli")

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "exact.midpoint_us": "us",
    "exact.fraction_midpoint_us": "us",
    "triangles.triangle_vertices_us": "us",
    "triangles.delta_lattice_index_us": "us",
    "paf.corner_values_table_us": "us",
    "paf.corner_values_affine_us": "us",
    "paf.generate_s": "s",
    "paf.certificate_s": "s",
    "paf.certificate_pairs": "count",
    "levelset.tree_s": "s",
    "levelset.nodes_expanded": "count",
    "levelset.us_per_node": "us",
    "levelset.member_ratio": "ratio",
    "levelset.fill_measure_s": "s",
    "levelset.conservation_s": "s",
    "levelset.census_s": "s",
    "levelset.census_count": "count",
    "levelset.level_accept_ratio": "ratio",
    "levelset.probe_tree_d6_ms": "ms",
    "levelset.probe_tree_d14_ms": "ms",
    "levelset.probe_tree_d14_members": "count",
    "bounds.mass_distribution_s": "s",
    "bounds.box_count_s": "s",
    "bernoulli.value_at_height_us": "us",
    "bernoulli.evals": "count",
    "graft.graft_s": "s",
    "graft.value_in_triangle_us": "us",
    "cantor.capacity_s": "s",
    "cantor.structure_s": "s",
    "cantor.perturbation_s": "s",
    **{f"cli.{label}_s": "s" for label in CLI_LABELS},
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_ratio": "ratio",
}


def load_library() -> None:
    """Import holderlevels from ``src/`` of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "holderlevels", "__init__.py")):
        print(f"perfbench: no holderlevels package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    lib = importlib.import_module("holderlevels")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        print(f"perfbench: holderlevels imported from {lib.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def environment(args) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": _commit(), "seed": args.seed, "workload": args.workload,
            "size": args.size, "seconds": args.seconds,
            "threads": {v: os.environ[v] for v in ("HL_THREADS", "OPENBLAS_NUM_THREADS")}}


def _commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import and warm up: (corrected, raw).

    Each probe process times the reference loop of ``calibrate`` on its own
    CPU before and after its work; the loop time is taken out of the
    process's wall time, and the rest is scaled to the reference speed.
    """
    from calibrate import REFERENCE_S

    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    corrected, raw = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if proc.returncode:
            sys.exit(f"perfbench: setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        loops = json.loads(proc.stdout.splitlines()[-1])
        raw.append(wall - loops["total_s"])
        corrected.append(raw[-1] * REFERENCE_S / loops["median_s"])
    return statistics.median(corrected), statistics.median(raw)


def setup_probe(args) -> int:
    """Body of one set-up probe process; prints its reference-loop times."""
    sys.path.insert(0, HERE)
    from calibrate import reference_loop

    loops = [reference_loop() for _ in range(3)]
    load_library()
    import workloads as wl
    from tracing import NULL_TRACER

    wl.run_pass(args.workload, wl.make_specs(args.workload, args.seed, "warm"),
                NULL_TRACER, os.path.join(OUT, f"cli-{os.getpid()}"))
    loops += [reference_loop() for _ in range(3)]
    print(json.dumps({"total_s": sum(loops), "median_s": statistics.median(loops)}))
    return 0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic that still has
    ten items beyond it (the largest item when there are fewer than 11)."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def pin_key(args) -> str:
    return f"{args.workload}/{args.seed}"


def canonical(counts: dict) -> dict:
    return json.loads(json.dumps(counts, sort_keys=True, default=str))


def layer_metrics(tracer, traced, untraced_wall: float, probes: dict) -> dict:
    summary = tracer.summary()
    names, layers = summary["names"], summary["layers"]

    def total(*span_names):
        return sum(names.get(n, (0, 0.0, 0.0))[1] for n in span_names)

    counts = traced.counts
    nodes = counts.get("nodes_expanded", 0)
    tree_s = total("levelset.LevelSetTree")
    self_sum = sum(acc[2] for acc in layers.values())
    m = {}
    for layer in LAYERS:
        calls, _, own = layers.get(layer, (0, 0.0, 0.0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = own
    m.update(probes)
    m.update({
        "paf.generate_s": total("paf.random_standard_paf"),
        "paf.certificate_s": total("paf.holder_certificate"),
        "paf.certificate_pairs": counts.get("certificate_pairs", 0),
        "levelset.tree_s": tree_s,
        "levelset.nodes_expanded": nodes,
        "levelset.us_per_node": tree_s / nodes * 1e6 if nodes else 0.0,
        "levelset.member_ratio": (counts["members"] / counts["candidates"]
                                  if counts.get("candidates") else 0.0),
        "levelset.fill_measure_s": total("levelset.fill_measure"),
        "levelset.conservation_s": total("levelset.conservation"),
        "levelset.census_s": total("levelset.well_conducting_census"),
        "levelset.census_count": counts.get("census_count", 0),
        "levelset.level_accept_ratio": (counts["levels_admissible"] / counts["levels_sampled"]
                                        if counts.get("levels_sampled") else 0.0),
        "bounds.mass_distribution_s": total("bounds.mass_distribution_lower"),
        "bounds.box_count_s": total("bounds.box_count_dimension"),
        "bernoulli.evals": counts.get("witness_evals", 0),
        "graft.graft_s": total("graft.graft"),
        "cantor.capacity_s": total("cantor.capacity_gap"),
        "cantor.structure_s": total("cantor.product_separated_structure"),
        "cantor.perturbation_s": total("cantor.cylinder_config", "cantor.cantor_grid",
                                       "cantor.phase_perturbation"),
        "trace.overhead_ratio": traced.ref_wall / untraced_wall - 1,
        "trace.unaccounted_ratio": (traced.wall - self_sum) / traced.wall,
    })
    for label in CLI_LABELS:
        m[f"cli.{label}_s"] = total(f"cli.main[{label}]")
    return m


def run_one(args) -> int:
    load_library()
    import workloads as wl
    from tracing import NULL_TRACER, Tracer

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"cli-{os.getpid()}")
    env = environment(args)
    setup_s, raw_setup_s = measure_setup(args)
    warm = wl.run_pass(args.workload, wl.make_specs(args.workload, args.seed, "warm"),
                       NULL_TRACER, scratch)
    specs = wl.make_specs(args.workload, args.seed, args.size)

    # the pass count depends on --seconds only, never on measured times
    n_passes = max(1, round(args.seconds / NOMINAL_PASS_S))
    passes = [wl.run_pass(args.workload, specs, NULL_TRACER, scratch)
              for _ in range(n_passes)]

    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        traced = wl.run_pass(args.workload, specs, tracer, scratch)
        passes.append(traced)

    first = passes[0]
    attempted = sum(p.attempted for p in passes) + warm.attempted
    failed = sum(p.failed for p in passes) + warm.failed
    failures = warm.failures + [f for p in passes for f in p.failures]
    counts = canonical(first.counts)
    consistent = all(p.digest == first.digest and canonical(p.counts) == counts
                     for p in passes)
    attempted += 1
    if not consistent:
        failed += 1
        failures.append("passes over the same inputs disagree")
    pin = load_pins().get(pin_key(args)) if args.size == "full" else None
    if pin is not None:
        attempted += 2
        if pin["digest"] != first.digest:
            failed += 1
            failures.append(f"digest {first.digest} != pinned {pin['digest']}")
        if pin["counts"] != counts:
            failed += 1
            failures.append(f"work counts differ from the pinned ones: {pin['counts']}")

    untraced = [p for p in passes if p is not traced]
    ref_wall = statistics.median(p.ref_wall for p in untraced)
    e2e, raw = {}, {}
    for table, wall, per_pass in (
            (e2e, ref_wall, [p.ref_latencies for p in untraced]),
            (raw, statistics.median(p.wall for p in untraced), [p.latencies for p in untraced])):
        # an item's latency is its median over the passes
        lat = [statistics.median(xs) for xs in zip(*per_pass)]
        tail_value, tail_pct = tail(lat)
        table.update({"wall_s": wall,
                      "item_p50_ms": statistics.median(lat) * 1e3,
                      "item_tail_ms": tail_value * 1e3})
    n_items = len(lat)
    e2e["setup_s"], raw["setup_s"] = setup_s, raw_setup_s
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(untraced)} untraced pass(es), "
          f"{n_items} items timed, digest {first.digest}")
    print("pass_wall_s " + " ".join(f"{p.ref_wall:.4f}/{p.wall:.4f}" for p in passes)
          + (" (last traced)" if traced else ""))
    print("work_counts " + json.dumps(counts, sort_keys=True))
    for name, unit in END_TO_END.items():
        print(f"{name} {e2e[name]!r} {unit}")
    for name in ("setup_s", "wall_s", "item_p50_ms", "item_tail_ms"):
        print(f"raw.{name} {raw[name]!r} {END_TO_END[name]} (wall clock, uncorrected)")
    print(f"item_tail_ms is p{tail_pct:.2f} of {n_items} items "
          f"({min(10, n_items - 1)} beyond it)")
    print(f"fail_ratio {failed / attempted!r} ({failed} failed of {attempted} checks)")
    for f in failures[:20]:
        print(f"FAILED: {f}")
    if pin is None and args.size == "full":
        print(f"no pinned outputs for {pin_key(args)}")

    if args.trace:
        import probes
        layer = layer_metrics(tracer, traced, ref_wall, probes.run_probes())
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(spans)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
        print(f"trace account: layer self times cover "
              f"{1 - layer['trace.unaccounted_ratio']:.4f} of the traced pass, which took "
              f"{layer['trace.overhead_ratio']:+.4f} relative to the untraced wall_s")
        for name, unit in PER_LAYER.items():
            print(f"{name} {layer[name]!r} {unit}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    if args.pin:
        pins = load_pins()
        pins[pin_key(args)] = {"digest": first.digest, "counts": counts}
        with open(PINS, "w") as fh:
            json.dump(dict(sorted(pins.items())), fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("corpus", "deep", "certify"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("corpus", "deep", "certify", "all"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few items per workload (harness test)")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digest and work counts in pins.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
