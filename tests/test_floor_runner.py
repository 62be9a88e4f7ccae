"""``tools/floor.py``, which runs ``tests/test_floor.py`` and keeps numpy and mpmath unloaded."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("floor", ROOT / "tools" / "floor.py")
floor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(floor)

TOY = '''
def test_passes():
    assert 1 + 1 == 2


def test_fails():
    assert 1 + 1 == 3, "one and one"


def test_imports_numpy():
    import numpy
'''


def test_a_failure_and_a_loaded_numpy_each_fail_the_run(tmp_path):
    # the runner reads tests/test_floor.py beside its own tools/, so a copy
    # of it runs the toy module in a fresh process that has loaded no numpy
    for part in ("tools", "tests"):
        (tmp_path / part).mkdir()
    shutil.copy(ROOT / "tools" / "floor.py", tmp_path / "tools")
    (tmp_path / "tests" / "test_floor.py").write_text(TOY)
    out = subprocess.run([sys.executable, str(tmp_path / "tools" / "floor.py")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("ok     test_passes (") and "loaded" not in lines[0]
    assert lines[1].startswith("FAILED test_fails (")
    assert "AssertionError: one and one" in out.stdout
    numpy_line = next(line for line in lines if "test_imports_numpy" in line)
    assert numpy_line.startswith("ok ") and numpy_line.endswith(", loaded numpy")
    assert lines[-2:] == ["FAILED numpy loaded by test_floor.py", "2 of 3 passed"]


def test_a_test_past_its_budget_fails_and_the_next_still_runs(monkeypatch, tmp_path, capsys):
    # numpy is loaded in this process already, so the unloaded check is off here
    toy = tmp_path / "test_toy.py"
    toy.write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(10)\n\n\n"
                   "def test_passes():\n    pass\n")
    monkeypatch.setattr(floor, "BUDGET_S", 0.2)
    monkeypatch.setattr(floor, "UNLOADED", ())
    assert floor.run(toy) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED test_sleeps (")
    assert "OverBudget: ran past its 0.2 s budget" in out
    assert out.endswith("ok     test_passes (0.00 s)\n1 of 2 passed\n")


def test_the_floor_module_passes_with_numpy_and_mpmath_unloaded():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "floor.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAILED" not in out.stdout and "loaded" not in out.stdout, out.stdout
