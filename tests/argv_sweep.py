"""The argv sweep: every command line of the benchmark pools, hashed.

The sweep runs each argv that a job list of the ``spectrum``, ``sweep`` and
``lookup`` workloads can contain (``perfbench/pool.py``, both output
formats): 318 command lines, each as ``python -m ballspec.cli`` in a fresh
process with ``PYTHONPATH=src``. Its digest is the SHA-256 of ``repr`` of
the list of ``(" ".join(argv), returncode, sha256(stdout).hexdigest())``,
in pool order.

The sweep takes about 40 s, so pytest does not collect it (its name does
not match ``test_*.py``); ``tests/test_golden.py`` pins a few command lines
in tier-1. A change that must keep every output byte-identical runs it from
the repository root and quotes its line:

    PYTHONPATH=src python3 tests/argv_sweep.py

It prints the counts and the digest, and exits 1 when either differs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectrum", "sweep", "lookup")
COUNTS = (318, 0)  # command lines, non-zero exits
DIGEST = "ffa786d42a67c7354bc5f592e870a6e0b8ff453ee640f9398bb7a4ca1902a087"


def sweep() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import pool
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    rows = []
    for w in WORKLOADS:
        for argv in pool.WORKLOADS[w].entries():
            run = subprocess.run([sys.executable, "-m", "ballspec.cli", *argv],
                                 capture_output=True, env=env, cwd=ROOT)
            rows.append((" ".join(argv), run.returncode,
                         hashlib.sha256(run.stdout).hexdigest()))
    return rows


def main() -> int:
    rows = sweep()
    counts = (len(rows), sum(code != 0 for _, code, _ in rows))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    print(f"argv {counts[0]}, non-zero exits {counts[1]}; sha256 {digest}")
    if (counts, digest) != (COUNTS, DIGEST):
        print(f"MISMATCH: expected {COUNTS}, sha256 {DIGEST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
