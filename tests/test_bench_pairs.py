"""The summary ``tools/bench_pairs.py`` writes for each metric of a BENCH file."""

import importlib.util
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
