"""The summary ``tools/bench_pairs.py`` writes for each metric of a BENCH file."""

import importlib.util
import io
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_takes_inclusive_quartiles_and_counts_pairs_by_direction():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 4.0, 4.5]
    lower = bench_pairs.summary(parent, change, "lower", 0.15)
    assert (lower["parent_median"], lower["parent_quartiles"], lower["parent_iqr"]) == (
        3.0, [2.0, 4.0], 2.0)
    assert lower["change_median"] == 2.5
    # pair by pair: 0.5 < 1, 2.5 > 2, 2 < 3, a tie, 4.5 < 5
    assert lower["change_better"] == "3/5"
    assert lower["rel"] == pytest.approx(-1 / 6, abs=1e-4) and lower["within_bound"]
    higher = bench_pairs.summary(parent, change, "higher", 0.15)
    assert higher["change_better"] == "1/5"
    assert not higher["within_bound"]       # 1/6 worse where higher is better


def test_a_gain_needs_nine_pairs_in_ten_and_a_median_gap_beyond_the_parent_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]   # IQR 4.5

    def shown(change, better="lower"):
        return bench_pairs.summary(parent, change, better, 0.15)["gain_shown"]

    assert shown([p - 6 for p in parent])
    assert not shown([p - 6 for p in parent], "higher")
    assert shown([p + 6 for p in parent], "higher")
    assert not shown([p - 3 for p in parent])                  # 10/10 won, gap 3 <= 4.5
    # ties win for neither side: one tie leaves 9/10, two leave 8/10
    assert shown(parent[:1] + [p - 6 for p in parent[1:]])
    assert not shown(parent[:2] + [p - 6 for p in parent[2:]])


def test_both_sides_run_from_their_own_fresh_bytecode_cache(monkeypatch, tmp_path):
    # the parent is a fresh export with no __pycache__, so neither side may
    # read one left by earlier runs: each gets its own empty cache, written
    # by an untimed run before the pairs, and no run inherits a switch that
    # stops the cache being written
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w"):
        pass
    runs = []

    def fake_run(argv, cwd=None, env=None, **kwargs):
        if argv[0] == "git":
            out = archive.getvalue() if argv[1] == "archive" else "abc1234\n"
            return subprocess.CompletedProcess(argv, 0, stdout=out)
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        runs.append((Path(cwd), prefix, argv[argv.index("--seconds") + 1],
                     not prefix.exists() or not any(prefix.iterdir()),
                     "PYTHONDONTWRITEBYTECODE" in env))
        prefix.mkdir(parents=True, exist_ok=True)
        (prefix / f"{len(runs)}.pyc").touch()
        line = {"correct": True, "failed": 0, "metrics": {n: {"value": 1.0} for n in names}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "--pairs", "3", "--workload", "deep",
                             "--workload", "corpus", "--out", str(out)]) == 0
    assert len(runs) == 2 * (2 + 2 * 3)        # per workload, a warm-up and 3 pairs
    change = {prefix for cwd, prefix, *_ in runs if cwd == ROOT}
    parent = {prefix for cwd, prefix, *_ in runs if cwd != ROOT}
    assert len(change) == len(parent) == 1 and change != parent
    assert not any(inherited for *_, inherited in runs)
    # the first run of each side is untimed and finds its cache empty; no other run does
    for change in (True, False):
        mine = [(seconds, empty) for cwd, _, seconds, empty, _ in runs if (cwd == ROOT) == change]
        assert mine[0] == ("0", True) and not any(empty for _, empty in mine[1:])
        assert [s for s, _ in mine].count("0") == 2         # one warm-up per workload
    written = json.loads(out.read_text())
    assert written["workloads"]["deep"]["wall_s"]["change_better"] == "0/3"
    # OUT says how the runs it times got their bytecode
    assert written["env"]["bytecode"].startswith("cached: each side its own fresh")
