"""Check that the traced work counts repeat exactly for one seed.

    python3 perfbench/check_counts.py --workload sweep [--seed N]

Makes two traced runs of ``run.py`` with the same arguments and compares
every count in ``spans.COUNT_METRICS``. Only counts that repeat exactly may
back a count-based claim. Exits 1 if any count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from spans import COUNT_METRICS

from run import HERE, ROOT


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_METRICS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    for name in COUNT_METRICS:
        same = "identical" if first[name] == second[name] else "DIFFERS"
        print(f"{name:<34} {first[name]!r:>12} {second[name]!r:>12} {same}")
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
