"""Regenerate the frozen reference tables from the engine in ./src.

Run from the repository root:

    python3 perfbench/make_reference.py

Each table is the output of `quadrica table` (text rows: type, outcome,
reason, certificate digest) over a whole sampling domain.  The benchmark
compares every row it times against these files, so regenerate them only
at a commit whose verdicts and digests are known to be right.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE

BOUNDS = {"p2": 16, "p1xp1": 5}


def main() -> int:
    src = Path.cwd() / "src"
    for kind, path in REFERENCE.items():
        done = subprocess.run(
            [sys.executable, "-m", "quadrica", "table", "--surface", kind,
             "--bound", str(BOUNDS[kind]), "--jobs", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            check=True)
        path.write_text(done.stdout)
        print(f"{path}: {len(done.stdout.splitlines())} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
