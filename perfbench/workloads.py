"""The three benchmark workloads: corpus, deep and certify.

Each workload turns a seed into input specs (plain numbers, built without
the library), then runs one pass over them through holderlevels' public
API.  Library calls sit inside ``Pass.timed`` segments, which make up the
pass's wall time; an item's segment is also its latency.  Every item's
results are checked right after its segment, outside the clock, and fold
into the pass's exact work counts and output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import time
from fractions import Fraction

from calibrate import Calibrator
from holderlevels import bernoulli, bounds, cantor, cli, levelset, paf, triangles
# the package's ``graft`` attribute is the function, not the module
from holderlevels.graft import graft, min_graft_level

ALPHAS = (0.3, 0.5, 0.8)
HALF = Fraction(1, 2)


def call(tr, name, fn, *args, label=None, **kwargs):
    """Call ``fn`` inside a span named after the public function it is."""
    with tr.span(name, label):
        return fn(*args, **kwargs)


class Pass:
    """Timed segments, item latencies, checks and work counts of one pass."""

    def __init__(self, tr):
        self.tr = tr
        self.wall = 0.0
        self.latencies: list[float] = []
        self.calibrator = Calibrator()
        self.ref_segments: list[float] = []
        self.ref_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict = {}
        self._digest = hashlib.sha256()

    @contextlib.contextmanager
    def timed(self, item: str | None = None):
        """A clocked segment; with ``item`` it is also one item's latency."""
        self.tr.item = item
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.tr.item = None
            self.wall += elapsed
            if item is not None:
                self.latencies.append(elapsed)
                self.calibrator.segment(elapsed, self.ref_segments, self.ref_latencies)
            else:
                self.calibrator.segment(elapsed, self.ref_segments)

    @property
    def ref_wall(self) -> float:
        """Wall time of the pass at the calibrator's reference speed."""
        self.calibrator.flush()
        return sum(self.ref_segments)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def tally(self, checks: int, bad: int, what: str) -> None:
        """Record ``checks`` checks at once, ``bad`` of which failed."""
        self.attempted += checks
        self.failed += bad
        if bad and len(self.failures) < 20:
            self.failures.append(what)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def add_to_list(self, key: str, index: int, value) -> None:
        seq = self.counts.setdefault(key, [])
        seq.extend([0] * (index + 1 - len(seq)))
        seq[index] += value

    def digest_update(self, record) -> None:
        self._digest.update(json.dumps(record, sort_keys=True, default=str).encode())
        self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# level-set trees: shared by corpus and deep
# ---------------------------------------------------------------------------

def sample_levels(pas: Pass, fn, count: int, jitter: float,
                  rng: random.Random) -> list[Fraction]:
    """One admissible level value near the centre of each of ``count`` equal
    strata of the root hull, at most ``jitter`` stratum widths from it.

    Candidates are lo + (hi - lo) k / (p 2**24) for an odd prime p that
    does not divide the numerator of hi - lo.  A dyadic candidate could
    equal a vertex value at some depth, so only non-dyadic ones are
    admissible; ``LevelValue.checked`` then validates each against the
    function's table.  Keeping each draw near its stratum's centre keeps
    the tree sizes, and so the work per pass, close from seed to seed.
    """
    tr = pas.tr
    with pas.timed():
        root = call(tr, "paf.corner_values", fn.corner_values, "")
    lo, hi = min(root), max(root)
    odd = next(p for p in (3, 5, 7, 11, 13) if (hi - lo).numerator % p)
    scale = odd << 24
    out = []
    for j in range(count):
        centre = (2 * j + 1) * scale // (2 * count)
        half = max(2, int(scale * jitter / count))
        while True:
            k = rng.randrange(centre - half + 1, centre + half)
            r = lo + (hi - lo) * Fraction(k, scale)
            pas.add("levels_sampled", 1)
            if r.denominator & (r.denominator - 1):
                break
        with pas.timed():
            value = call(tr, "levelset.LevelValue.checked", levelset.LevelValue.checked, r, fn)
        pas.add("levels_admissible", 1)
        out.append(value.r)
    return out


def _kappa_sum_checks(pas: Pass, tree, depth: int, item: str, kmax: int = 3) -> None:
    """Conservation sum_{depth+k} kappa >= kappa at every member, k <= kmax.

    The sums are accumulated bottom-up from ``node.children``, exactly.
    """
    sums: dict[int, list[Fraction]] = {}
    bad = checks = 0
    for level in range(depth - 1, -1, -1):
        for node in tree.nodes_at(level):
            acc = []
            for k in range(1, min(kmax, depth - level) + 1):
                if k == 1:
                    val = sum((c.kappa for c in node.children), Fraction(0))
                else:
                    val = sum((sums[id(c)][k - 2] for c in node.children), Fraction(0))
                acc.append(val)
                checks += 1
                bad += val < node.kappa
            sums[id(node)] = acc
    pas.tally(checks, bad, f"{item}: {bad} kappa-sum conservation failures")


def check_tree(pas: Pass, item: str, tree, depth: int, r: Fraction, conservation) -> None:
    """Exact output checks and work counts of one measured tree."""
    members, kappa_sums = [], []
    for level in range(depth + 1):
        nodes = tree.nodes_at(level)
        members.append(len(nodes))
        kappa_sums.append(sum((n.kappa for n in nodes), Fraction(0)))
        if level:
            pas.expect(sum(n.mu for n in nodes) == 1, f"{item}: mu sum at level {level}")
            pas.expect(all(n.mu <= n.kappa for n in nodes), f"{item}: mu > kappa at level {level}")
            pas.add_to_list("members_by_level", level, len(nodes))
    _kappa_sum_checks(pas, tree, depth, item)
    pas.expect(conservation.passed, f"{item}: root conservation")
    expanded = sum(members[:-1])
    pas.add("nodes_expanded", expanded)
    pas.add("candidates", expanded * len(triangles.boundary_family(tree.l)))
    pas.add("members", sum(members[1:]))
    pas.add("trees", 1)
    pas.add("kappa_sum_total", sum(kappa_sums[1:], Fraction(0)))
    pas.digest_update([item, frac(r), members, [frac(k) for k in kappa_sums],
                       frac(conservation.lhs)])


def run_census(pas: Pass, item: str, fn, ns, l: int, alpha: float) -> None:
    for n in ns:
        with pas.timed():
            res = call(pas.tr, "levelset.well_conducting_census",
                       levelset.well_conducting_census, fn, None, n, l, HALF, alpha=alpha)
        pas.expect(res.passed, f"{item}: census n={n} over the binomial bound")
        pas.add("census_runs", 1)
        pas.add("census_count", res.count)
        pas.digest_update([item, "census", n, res.count])


# ---------------------------------------------------------------------------
# corpus: acceptance-corpus layout at scale 2**-6
# ---------------------------------------------------------------------------

CORPUS_SIZES = {"full": (20, 8, (2, 4, 6)), "tiny": (3, 2, (2,)), "warm": (5, 1, (2, 4))}


def corpus_specs(seed: int, size: str) -> list[dict]:
    """The first 20 functions of the acceptance corpus, at every seed.

    Function s has level 2 + s mod 5, l = 1 + s mod 2 and alpha
    ALPHAS[s mod 3], like ``tests/conftest.py``'s layout; the workload seed
    draws the level values.  Keeping the functions fixed keeps the work
    per pass nearly the same from seed to seed.  The warm-up uses corpus
    functions 20 to 24.
    """
    n_fn, n_levels, ns = CORPUS_SIZES[size]
    base = 20 if size == "warm" else 0
    specs = []
    for s in range(base, base + n_fn):
        specs.append({"id": f"f{s}", "seed": s, "level": 2 + s % 5, "l": 1 + s % 2,
                      "alpha": ALPHAS[s % 3], "c": 0.9, "levels": n_levels,
                      "level_seed": seed * 1_000_003 + s, "jitter": 0.25,
                      "census": ns, "depth": 6 if s % 2 == 0 else 3})
    return specs


def run_trees(pas: Pass, spec: dict) -> None:
    """Generate one function, sample its level values and measure each tree."""
    tr = pas.tr
    with pas.timed():
        fn = call(tr, "paf.random_standard_paf", paf.random_standard_paf,
                  spec["seed"], spec["level"], spec["alpha"], spec["c"], check=False)
    rng = random.Random(spec["level_seed"])
    l, depth = spec["l"], spec["depth"]
    if "mass_q" in spec:
        params = bounds.BoundSearchParams(spec["alpha"], Fraction(1, spec["mass_q"]), l)
    for j, r in enumerate(sample_levels(pas, fn, spec["levels"], spec["jitter"], rng)):
        item = f"{spec['id']}/r{j}"
        with pas.timed(item):
            tree = call(tr, "levelset.LevelSetTree", levelset.LevelSetTree, fn, r, l, depth=depth)
            call(tr, "levelset.fill_measure", tree.fill_measure, depth)
            cons = call(tr, "levelset.conservation", tree.conservation, "", depth)
            if "mass_q" in spec:
                report = call(tr, "bounds.mass_distribution_lower",
                              bounds.mass_distribution_lower, fn, r, params,
                              spec["mass_levels"], tree=tree)
        check_tree(pas, item, tree, depth, r, cons)
        if "mass_q" in spec:
            pas.expect(report.levels_checked == [spec["mass_q"] * (i + 1)
                                                 for i in range(spec["mass_levels"])],
                       f"{item}: mass distribution levels")
            pas.digest_update([item, "mass", report.c_empirical])
    run_census(pas, spec["id"], fn, spec["census"], l, spec["alpha"])


# ---------------------------------------------------------------------------
# deep: trees about ten levels below the function level
# ---------------------------------------------------------------------------

DEEP_SIZES = {"full": (12, 4, 10), "tiny": (1, 2, 4), "warm": (1, 1, 6)}


def deep_specs(seed: int, size: str) -> list[dict]:
    """Fixed level-2 to level-4 functions with l = 1; the seed draws the levels."""
    n_fn, n_levels, census_n = DEEP_SIZES[size]
    base = 7010 if size == "warm" else 7000
    specs = []
    for i in range(n_fn):
        level = 2 + i % 3
        specs.append({"id": f"d{base + i}", "seed": base + i, "level": level, "l": 1,
                      "alpha": ALPHAS[i % 3], "c": 0.9, "levels": n_levels,
                      "level_seed": seed * 1_000_003 + base + i, "jitter": 4e-6,
                      "census": (census_n,),
                      "depth": level + (10 if size == "full" else 4),
                      "mass_q": 4, "mass_levels": 3 if size == "full" else 1})
    return specs


# ---------------------------------------------------------------------------
# certify: everything outside the level-set walk
# ---------------------------------------------------------------------------

# (label, argv) of every command the README lists; "{out}" marks a path
README_COMMANDS = (
    ("bounds", "bounds --grid 0.01:0.99:99 --out {out}/bounds.csv"),
    ("bounds_big", "bounds --grid 1.0 --precision big"),
    ("levelset", "levelset --seed 42 --depth 5 --l 1 --r-count 20 --out {out}/ls.csv "
                 "--json-out {out}/ls.json"),
    ("conductivity_hist", "conductivity-hist --seed 7 --depth 6 --d1 1/2 "
                          "--census-out {out}/census.csv"),
    ("witness", "witness --alpha 0.5 --digits 1000 --trials 20 --out {out}/slopes.csv "
                "--trace-out {out}/trace.csv"),
    ("cantor", "cantor --depth 20 --capacity-alphas 0.55:1.0:10 --capacity-out "
               "{out}/capacity.csv --json-out {out}/intervals.json"),
    ("phase_alpha04", "phase --alpha 0.4"),
    ("phase_alpha06", "phase --alpha 0.6 --out {out}/phase.json"),
    ("selftest", "selftest"),
)

# commands whose artifacts print floats computed by numpy
NUMPY_FLOAT_COMMANDS = ("witness", "phase_alpha06")

CERTIFY_SIZES = {
    # law batches per alpha, pairs per batch, slope trials, digits per trial,
    # grafts, spot-check words per graft, certificate levels, capacity k max,
    # structure k max, CLI commands
    "full": (10, 400, 20, 4000, 20, 10, (3, 4, 4), 20, 10, len(README_COMMANDS)),
    "tiny": (1, 20, 20, 4000, 2, 2, (2,), 4, 4, 2),
    "warm": (1, 30, 20, 4000, 1, 2, (2,), 4, 4, 2),
}


def certify_specs(seed: int, size: str) -> list[dict]:
    (batches, pairs, trials, digits, grafts, words, cert_levels, k_max,
     structure_k, n_cli) = CERTIFY_SIZES[size]
    rng = random.Random(seed * 1_000_003 + (17 if size == "warm" else 0))
    specs = []
    for alpha in ALPHAS:
        for b in range(batches):
            xy = []
            for _ in range(pairs):
                dx, dy = rng.randrange(1, 41), rng.randrange(1, 41)
                x = Fraction(rng.randrange(1 << dx), 1 << dx)
                y = Fraction(rng.randrange(1 << dy), 1 << dy)
                if x != y:
                    xy.append((x, y))
            specs.append({"id": f"law{alpha}/{b}", "kind": "law", "alpha": alpha, "pairs": xy})
    for alpha in ALPHAS:
        p = 2.0 ** -alpha
        streams = [[1 if rng.random() < p else 0 for _ in range(digits)] for _ in range(trials)]
        specs.append({"id": f"slopes{alpha}", "kind": "slopes", "alpha": alpha,
                      "streams": streams})
    for i in range(grafts):
        specs.append({"id": f"graft{i}", "kind": "graft",
                      "seed": (120 if size == "warm" else 100) + i,
                      "words": words, "word_seed": rng.randrange(1 << 30)})
    for i, level in enumerate(cert_levels):
        specs.append({"id": f"cert{i}", "kind": "cert", "seed": (510 if size == "warm" else 500) + i,
                      "level": level, "depth": level + 3})
    specs.append({"id": "capacity", "kind": "capacity", "k_max": k_max,
                  "alphas": [0.55 + 0.05 * i for i in range(10)]})
    specs.append({"id": "structure", "kind": "structure", "k_max": structure_k})
    for alpha in (0.4, 0.6):
        specs.append({"id": f"feasibility{alpha}", "kind": "feasibility", "alpha": alpha})
    specs.append({"id": "perturbation", "kind": "perturbation"})
    chosen = README_COMMANDS if n_cli == len(README_COMMANDS) else (
        README_COMMANDS[1], README_COMMANDS[-1])
    for label, argv in chosen:
        specs.append({"id": f"cli:{label}", "kind": "cli", "label": label, "argv": argv})
    return specs


def _law(pas: Pass, spec: dict, state: dict) -> None:
    tr = pas.tr
    with pas.timed(spec["id"]):
        w = call(tr, "bernoulli.BernoulliWitnessFn.for_alpha",
                 bernoulli.BernoulliWitnessFn.for_alpha, spec["alpha"], max_depth=48)
        rows = []
        for x, y in spec["pairs"]:
            fx = call(tr, "bernoulli.value_at_height", w.value_at_height, x)
            fy = call(tr, "bernoulli.value_at_height", w.value_at_height, y)
            rows.append((abs(fx - fy), call(tr, "bernoulli.holder_bound", w.holder_bound, x, y)))
    bad = sum(diff > bound for diff, bound in rows)
    pas.expect(bad == 0, f"{spec['id']}: {bad} violations of 3|x-y|**alpha")
    pas.add("witness_evals", 2 * len(rows))
    pas.digest_update([spec["id"], len(rows), bad])


def _slopes(pas: Pass, spec: dict, state: dict) -> None:
    with pas.timed(spec["id"]):
        ests = [call(pas.tr, "bounds.box_count_dimension", bounds.box_count_dimension, s)
                for s in spec["streams"]]
    p = 2.0 ** -spec["alpha"]
    mean = sum(e.slope for e in ests) / len(ests)
    pas.expect(abs(mean - (1 - p)) <= 0.02, f"{spec['id']}: mean slope {mean:.4f} vs {1 - p:.4f}")
    zeros = [int(e.log2_counts[-1]) for e in ests]
    pas.add("slope_trials", len(ests))
    pas.digest_update([spec["id"], zeros])


def _graft(pas: Pass, spec: dict, state: dict) -> None:
    tr = pas.tr
    rng = random.Random(spec["word_seed"])
    with pas.timed(spec["id"]):
        base = call(tr, "paf.random_standard_paf", paf.random_standard_paf,
                    spec["seed"], 2, 0.5, 0.1, check=False)
        lip = call(tr, "paf.lipschitz", base.lipschitz)
        n_prime = max(call(tr, "graft.min_graft_level", min_graft_level, lip, 0.5),
                      base.level)
        witness = call(tr, "bernoulli.BernoulliWitnessFn.for_alpha",
                       bernoulli.BernoulliWitnessFn.for_alpha, 0.5)
        gf = call(tr, "graft.graft", graft, base, n_prime, witness)
        spots = []
        for _ in range(spec["words"]):
            word = "".join(str(rng.randrange(3)) for _ in range(n_prime))
            vals = call(tr, "paf.corner_values", base.corner_values, word)
            pts = call(tr, "triangles.triangle_vertices", triangles.triangle_vertices, word)
            got = [call(tr, "graft.value_in_triangle", gf.value_in_triangle, word, pt)
                   for pt in pts]
            spots.append((vals, got))
    pas.expect(gf.certificate_constant < 0.125, f"{spec['id']}: certificate constant")
    pas.expect(all(tuple(got) == tuple(vals) for vals, got in spots),
               f"{spec['id']}: graft disagrees with its base at a vertex")
    pas.add("graft_spot_values", 3 * len(spots))
    pas.digest_update([spec["id"], n_prime, [[frac(v) for v in vals] for vals, _ in spots]])


def certificate_pairs(depth: int) -> int:
    vertices = (3 ** (depth + 1) + 3) // 2
    return vertices * (vertices - 1) // 2


def _cert(pas: Pass, spec: dict, state: dict) -> None:
    tr = pas.tr
    with pas.timed(spec["id"]):
        fn = call(tr, "paf.random_standard_paf", paf.random_standard_paf,
                  spec["seed"], spec["level"], 0.5, 0.9, check=True)
        cert = call(tr, "paf.holder_certificate", paf.holder_certificate,
                    fn, 0.5, 0.9, depth=spec["depth"])
    pas.expect(cert.max_ratio > 0 and cert.witness_pair is not None,
               f"{spec['id']}: empty certificate")
    pas.add("certificate_pairs", certificate_pairs(spec["depth"]))
    pas.digest_update([spec["id"], round(cert.max_ratio, 9), fn.holder.alpha])


def _capacity(pas: Pass, spec: dict, state: dict) -> None:
    with pas.timed(spec["id"]):
        gaps = [call(pas.tr, "cantor.capacity_gap", cantor.capacity_gap, k, alpha)
                for alpha in spec["alphas"] for k in range(1, spec["k_max"] + 1)]
    bad = sum(g.direct_sum > g.closed_form_bound for g in gaps)
    pas.expect(bad == 0, f"capacity: {bad} direct sums above the closed form")
    pas.add("capacity_terms", sum(g.terms for g in gaps))
    pas.digest_update([spec["id"], [g.terms for g in gaps]])


def _structure(pas: Pass, spec: dict, state: dict) -> None:
    with pas.timed(spec["id"]):
        st = call(pas.tr, "cantor.product_separated_structure",
                  cantor.product_separated_structure, spec["k_max"])
    state["structure"] = st
    pas.expect((st.nu, st.rho) == (HALF, Fraction(1, 4))
               and len(st.certificates["levels"]) == spec["k_max"] - 1,
               "structure: (1/2, 1/4) certificate")
    pas.digest_update([spec["id"], len(st.certificates["levels"])])


def _feasibility(pas: Pass, spec: dict, state: dict) -> None:
    alpha = spec["alpha"]
    with pas.timed(spec["id"]):
        search = call(pas.tr, "cantor.feasibility_search", cantor.feasibility_search,
                      alpha, 0.5, 1.0, state["structure"], k_cap=60)
    if alpha < 0.5:
        pas.expect(search.first_feasible_k is not None, f"{spec['id']}: no feasible level")
    else:
        pas.expect(search.monotone_infeasible, f"{spec['id']}: not monotone infeasible")
    pas.digest_update([spec["id"], search.first_feasible_k, search.monotone_infeasible])


def _perturbation(pas: Pass, spec: dict, state: dict) -> None:
    tr = pas.tr
    c = HALF
    with pas.timed(spec["id"]):
        cfg = call(tr, "cantor.cylinder_config", cantor.cylinder_config,
                   0.6, c, k=29, ix=1, iy=2, delta=0.2)
        grid = call(tr, "cantor.cantor_grid", cantor.cantor_grid, lambda x, y: c * x, 4)
        for x in (cfg.x1, cfg.x2):
            grid[(x, cfg.y1)] = c * x
        rep = call(tr, "cantor.phase_perturbation", cantor.phase_perturbation, grid, cfg)
    pas.expect(rep.large_change_exact and rep.holder_ok and rep.capacity_ok,
               "perturbation: certificate")
    pas.digest_update([spec["id"], frac(rep.large_change_lhs), len(grid)])


def run_cli(argv: str, out_dir: str) -> tuple[int, dict[str, bytes]]:
    """Run one CLI command in-process; returns its exit code and artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv.format(out=out_dir).split())
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    artifacts = {"<stdout>": stdout.getvalue().encode()}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            artifacts[name] = fh.read()
    return code, artifacts


def _cli(pas: Pass, spec: dict, state: dict) -> None:
    root = state["scratch"]
    first = os.path.join(root, spec["label"])
    with pas.timed(spec["id"]):
        code, artifacts = call(pas.tr, "cli.main", run_cli, spec["argv"], first,
                               label=spec["label"])
    again_code, again = run_cli(spec["argv"], os.path.join(root, spec["label"] + ".rerun"))
    pas.expect(code == 0, f"{spec['id']}: exit code {code}")
    pas.expect(again_code == 0 and again == artifacts, f"{spec['id']}: rerun differs")
    if spec["label"] in NUMPY_FLOAT_COMMANDS:
        # last-bit float differences between CPUs may change these bytes,
        # so only their line counts are pinned
        pinned = {k: v.count(b"\n") for k, v in artifacts.items()}
    else:
        pinned = {k: hashlib.sha256(v).hexdigest() for k, v in artifacts.items()}
        pas.add("cli_exact_artifact_bytes", sum(len(v) for v in artifacts.values()))
    pas.digest_update([spec["id"], code, pinned])


_CERTIFY_TASKS = {"law": _law, "slopes": _slopes, "graft": _graft, "cert": _cert,
                  "capacity": _capacity, "structure": _structure,
                  "feasibility": _feasibility, "perturbation": _perturbation, "cli": _cli}


def run_certify_pass(pas: Pass, specs: list[dict], scratch: str) -> None:
    os.makedirs(scratch, exist_ok=True)
    state = {"scratch": scratch}
    try:
        for spec in specs:
            _CERTIFY_TASKS[spec["kind"]](pas, spec, state)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------

def make_specs(workload: str, seed: int, size: str) -> list[dict]:
    return {"corpus": corpus_specs, "deep": deep_specs,
            "certify": certify_specs}[workload](seed, size)


def run_pass(workload: str, specs: list[dict], tr, scratch: str) -> Pass:
    """One pass over ``specs``; ``scratch`` holds CLI artifacts while it runs."""
    pas = Pass(tr)
    if workload == "certify":
        run_certify_pass(pas, specs, scratch)
    else:
        for spec in specs:
            run_trees(pas, spec)
    return pas
