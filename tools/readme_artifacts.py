"""Run every README CLI command and keep everything it produces.

    python tools/readme_artifacts.py OUT

Each ``holderlevels ...`` line of the README's CLI block runs in the
directory OUT (created if missing, refused if not empty), with this
checkout's ``src/`` first on PYTHONPATH.  Beside the files a command
writes, OUT gets ``NN-<subcommand>.stdout``, ``.stderr`` and ``.exit``
for the NN-th line.  Two such directories made at two commits compare
byte for byte with ``diff -r``.  The exit status is 1 when any command
exits non-zero, so a comparison cannot pass on a failed command.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[str]:
    """The ``holderlevels`` lines of the first sh block under '## CLI'."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S)
    if block is None:
        raise SystemExit("README.md has no sh block under '## CLI'")
    return [line for line in block.group(1).splitlines()
            if line.startswith("holderlevels ")]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/readme_artifacts.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    failed = 0
    for number, line in enumerate(readme_commands(), start=1):
        args = shlex.split(line)[1:]
        res = subprocess.run([sys.executable, "-m", "holderlevels.cli", *args],
                             cwd=out, env=env, capture_output=True)
        stem = out / f"{number:02d}-{args[0]}"
        stem.with_suffix(".stdout").write_bytes(res.stdout)
        stem.with_suffix(".stderr").write_bytes(res.stderr)
        stem.with_suffix(".exit").write_text(f"{res.returncode}\n")
        print(f"{number:02d} exit {res.returncode}  {line}")
        failed += res.returncode != 0
    if failed:
        print(f"{failed} README command(s) exited non-zero", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
