"""The benchmark's tracer still runs the CLI it wraps.

``perfbench/trace_child.py`` replaces library functions by name (the kernel
pair, the zero finders, the serializers); a refactor that deletes or renames
one of them breaks the traced benchmark with an AttributeError. Each case
runs the tracer in a fresh process on a golden argv and checks its header
(the spans of the layers that subcommand runs) and the CLI's stdout behind
it. No CLI path calls the kernel pair ``bessel.eval_J_pair`` any more (the
zero finder reads the census's shared ladders), so its span is wrapped but
never opened. The CLI imports each compute module inside the subcommand
that runs it, so a wrapped function must stay a module or class attribute
that the CLI looks up at call time.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests._cli import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
# one argv per subcommand the benchmark runs, with the spans of the layers
# it wraps for that subcommand (besides a zero finder)
TRACED = {
    "zeros --l 3 --d 3 --bc neumann --count 2 --format csv": {"cli.run"},
    "certify --d 4 --through 5":
        {"pleijel.monotonicity_certificate", "format.dumps"},
    "courant --d 3 --bc neumann --lmax 2 --mmax 2":
        {"courant.courant_sharp_ball", "spectrum.enumerate_spectrum",
         "format.dumps"},
    "spectrum --d 4 --bc neumann --lambda-max 80":
        {"spectrum.enumerate_spectrum", "format.to_json"},
    "pleijel --gamma 7": {"pleijel.gamma_table", "format.dumps"},
}


@pytest.mark.parametrize("argv", TRACED)
def test_tracer_runs_golden_argv(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"),
         *argv.split()],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    header, _, out = proc.stdout.partition(b"\n")
    head = json.loads(header)
    assert head["rc"] == 0
    names = {span[0] for span in head["spans"]}
    assert "bessel.eval_J_pair" not in names
    assert any(name.startswith("zeros.") for name in names), names
    assert TRACED[argv] <= names, names
    want = {a: sha for a, _, sha in GOLDEN}[argv]
    assert hashlib.sha256(out).hexdigest() == want
