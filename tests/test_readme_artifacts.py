"""The README's CLI commands write the files whose digests are recorded.

``readme_artifacts.sha256`` holds one ``sha256sum`` line per file that
``tools/readme_artifacts.py`` leaves behind: each command's outputs and
its stdout, stderr and exit status.  A change that moves any of them
fails here; a change meant to move them records the new digests, and
says why.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("readme_artifacts.sha256")


def test_readme_artifacts_match_recorded_digests(tmp_path):
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "readme_artifacts.py"),
                          str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    expected = dict(reversed(line.split(maxsplit=1))
                    for line in DIGESTS.read_text().splitlines())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == expected
