"""Run the stdlib-only checks of ``tests/test_floor.py`` and keep numpy and mpmath unloaded.

    python tools/floor.py

Imports ``tests/test_floor.py`` by path in this process, with this
checkout's ``src/`` first on ``sys.path``, runs each of its ``test_*``
functions in file order under a 60 s budget and prints one line per
test, naming numpy or mpmath where a test loaded it.  The exit status is
1 when a test fails or runs past its budget, or when numpy or mpmath is
in ``sys.modules`` once every test has run.  It needs nothing outside
the standard library, so it runs on the declared Python floor with no
dependency installed.
"""

from __future__ import annotations

import importlib.util
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = ROOT / "tests" / "test_floor.py"
BUDGET_S = 60
UNLOADED = ("numpy", "mpmath")


class OverBudget(Exception):
    """A test ran past ``BUDGET_S``."""


def _over_budget(signum, frame):
    raise OverBudget(f"ran past its {BUDGET_S} s budget")


def _loaded() -> list[str]:
    return [name for name in UNLOADED if name in sys.modules]


def run(path: Path) -> int:
    """Run every ``test_*`` function of the module at ``path``; the exit status."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tests = [(name, test) for name, test in vars(module).items()
             if name.startswith("test_") and callable(test)]
    failed = 0
    previous = signal.signal(signal.SIGALRM, _over_budget)
    try:
        for name, test in tests:
            before = _loaded()
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            try:
                test()
                error = None
            except Exception:
                error = traceback.format_exc()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            loaded = [m for m in _loaded() if m not in before]
            failed += error is not None
            print(f"{'FAILED' if error else 'ok':6} {name} ({elapsed:.2f} s)"
                  + (f", loaded {', '.join(loaded)}" if loaded else ""), flush=True)
            if error:
                print(error, end="", flush=True)
    finally:
        signal.signal(signal.SIGALRM, previous)
    heavy = _loaded()
    if heavy:
        print(f"FAILED {', '.join(heavy)} loaded by {path.name}")
    print(f"{len(tests) - failed} of {len(tests)} passed")
    return 1 if failed or heavy else 0


def main() -> int:
    if not __debug__:
        raise SystemExit("python -O strips the checks' asserts: run tools/floor.py without -O")
    sys.path.insert(0, str(ROOT / "src"))
    return run(MODULE)


if __name__ == "__main__":
    sys.exit(main())
