"""The box probe: tier-1 on a copy whose order cap is 480.

Growing the kernel box is one constant, bessel.TWICE_NU_MAX; the tests
read every edge of the box from tests/_box.py. This script copies what
tier-1 reads to a temporary directory, sets TWICE_NU_MAX = 480 there (never
in the checkout), runs tier-1 on the copy and fails unless the failing
tests are exactly the four of EXPECTED, each with its known cause: one
kernel underflow (ROADMAP item 17 (b)) and three output pins that a box
change re-records. A test of EXPECTED that passes fails the probe too, so
the set shrinks as causes are mended. A change that grows
the box mends those causes and re-records those pins; any other failure is
a test that still pins the box, or a new cause to name here.

    python3 tests/box_probe.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 480
COPIED = ("src", "tests", "perfbench", "docs", "README.md", "pyproject.toml",
          "BENCHMARK.json")

EXPECTED = {
    "tests/test_zeros.py::test_series_centre_is_the_census_pair":
        "ROADMAP item 17 (b): at x0 = pi/2 every value of the span of "
        "order 170 underflows, and the multiplication series refuses with "
        "LossOfPrecision",
    "tests/test_ledger.py::test_ledger_digest":
        "output pin: the cap moves the ledger's zeros and refusals",
    "tests/test_golden.py::test_stdout_digest_and_exit_code"
    "[zeros --l 120 --d 2 --bc dirichlet --count 1]":
        "output pin: j_{120,1} is served inside the grown box",
    "tests/test_box.py::test_readme_limits_are_the_derived_ones":
        "README pin: its table of realized limits is the cap-240 box",
}

# writes the node id of every failing test, collection errors included
PLUGIN = """\
import os


def _record(report):
    if report.failed:
        with open(os.environ["BOX_PROBE_FAILED"], "a") as out:
            out.write(report.nodeid + "\\n")


pytest_runtest_logreport = pytest_collectreport = _record
"""


def _copy(dest: Path) -> None:
    """The files tier-1 reads, the order cap grown to CAP."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)
    bessel = dest / "src" / "ballspec" / "bessel.py"
    text, n = re.subn(r"^TWICE_NU_MAX = \d+$", f"TWICE_NU_MAX = {CAP}",
                      bessel.read_text(), flags=re.M)
    if n != 1:
        sys.exit("box probe: no TWICE_NU_MAX line in bessel.py")
    bessel.write_text(text)
    (dest / "box_probe_plugin.py").write_text(PLUGIN)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="box_probe_") as tmp:
        dest = Path(tmp)
        _copy(dest)
        failed_log = dest / "failed.txt"
        failed_log.touch()
        env = {**os.environ, "PYTHONPATH": str(dest / "src"),
               "BOX_PROBE_FAILED": str(failed_log),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "box_probe_plugin", "--continue-on-collection-errors"],
            cwd=dest, env=env, capture_output=True, text=True)
        failed = set(failed_log.read_text().split("\n")) - {""}
    lines = proc.stdout.strip().splitlines()
    print(f"box probe at TWICE_NU_MAX = {CAP}: "
          f"{lines[-1] if lines else proc.stderr.strip()}")
    for nodeid in sorted(failed & EXPECTED.keys()):
        print(f"  expected: {nodeid} ({EXPECTED[nodeid]})")
    unexpected = sorted(failed - EXPECTED.keys())
    passed = sorted(EXPECTED.keys() - failed)
    for nodeid in unexpected:
        print(f"  UNEXPECTED FAILURE: {nodeid}")
    for nodeid in passed:
        print(f"  EXPECTED TO FAIL, PASSED: {nodeid} ({EXPECTED[nodeid]})")
    return 1 if unexpected or passed else 0


if __name__ == "__main__":
    sys.exit(main())
