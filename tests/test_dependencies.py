"""The package has no dependencies: every import in ``src/ballspec`` names
a standard-library module or ``ballspec`` itself. And the supported box has
one home: one integer check (``bessel._check_int``) and the order cap
compared only in ``bessel`` (the kernel) and ``zeros`` (the census pair).
And every double-double value comes through ``bessel.eval_J_pair``. And a
CLI job imports only the modules its subcommand runs, and never
``dataclasses``."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ballspec"


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [
        (path.name, root)
        for path in sources
        for root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root != "ballspec" and root not in sys.stdlib_module_names
    ]
    assert foreign == []


def _parsed():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sources]


def _named(node: ast.AST, names) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id in names)
        or (isinstance(n, ast.Attribute) and n.attr in names)
        for n in ast.walk(node)
    )


def test_is_int_is_called_only_by_check_int():
    calls, home = [], None
    for name, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _named(node.func, {"_is_int"}):
                calls.append((name, node.lineno))
            if (name == "bessel.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_check_int"):
                home = range(node.lineno, node.end_lineno + 1)
    assert home is not None
    assert [(name, line) for name, line in calls
            if name != "bessel.py" or line not in home] == []
    assert len(calls) == 1


def test_order_cap_is_compared_only_in_bessel_and_zeros():
    caps = {"TWICE_NU_MAX", "D_MAX"}
    found = [
        (name, node.lineno)
        for name, tree in _parsed()
        if name not in ("bessel.py", "zeros.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and _named(node, caps)
    ]
    assert found == []


def test_only_bessel_names_the_double_double_ladder():
    # outside the kernel, double-double values come from eval_J_pair, with
    # its box and underflow checks and the benchmark tracer's
    # bessel.eval_J_pair span (tests/test_benchmark_tracer.py)
    found = [
        (name, node.lineno)
        for name, tree in _parsed()
        if name != "bessel.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and _named(node, {"_eval_miller"})
    ]
    assert found == []


# ---------------------------------------------------------------------------
# start-up cost: a CLI job imports only the modules its subcommand runs

COMPUTE = {"bessel", "zeros", "spectrum", "courant", "pleijel", "selfcheck"}


def test_no_module_imports_dataclasses():
    found = [(name, root) for name, tree in _parsed()
             for root in _imported_roots(tree) if root == "dataclasses"]
    assert found == []


def test_cli_module_level_imports():
    # argparse, sys, the serializers and the errors; compute modules are
    # imported inside the _run_* of their subcommand
    allowed = {
        "__future__": {"annotations"},
        "argparse": None,
        "sys": None,
        "ballspec": {"__version__"},
        "ballspec._format": {"csv_text", "dumps", "format_float"},
        "ballspec.errors": {"BallspecError", "NumericalError"},
    }
    tree = ast.parse((SRC / "cli.py").read_text())
    seen = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            seen += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            seen.append((node.module, {alias.name for alias in node.names}))
    assert seen and all(
        module in allowed
        and (names is None or names <= (allowed[module] or set()))
        for module, names in seen
    ), seen


# In a fresh interpreter without site packages (whatever a .pth file loads
# would hide what the job loads): run one argv, then list the ballspec
# modules and the standard-library modules this change keeps off the path.
_CHILD = """
import os, sys
sys.path.insert(0, sys.argv[1])
from ballspec import cli
if len(sys.argv) > 2:
    sys.stdout = open(os.devnull, "w")
    assert cli.run(sys.argv[2:]) == 0
    sys.stdout = sys.__stdout__
print(" ".join(m.partition(".")[2] if m.startswith("ballspec.") else m
               for m in sys.modules))
"""

IMPORT_SETS = [
    ("", set()),
    ("zeros --l 1 --d 3 --bc dirichlet --count 2",
     {"bessel", "zeros", "spectrum"}),
    ("spectrum --d 3 --bc neumann --lambda-max 30",
     {"bessel", "zeros", "spectrum"}),
    ("courant --d 3 --bc dirichlet --lmax 2 --mmax 1",
     {"bessel", "zeros", "spectrum", "courant", "pleijel"}),
    ("pleijel --gamma 9", {"bessel", "zeros", "pleijel"}),
    ("certify --d 11 --format csv",
     {"bessel", "zeros", "pleijel", "fractions"}),
    ("selfcheck --fast", COMPUTE | {"fractions"}),
]


@pytest.mark.parametrize("argv, want", IMPORT_SETS)
def test_cli_job_imports_only_its_subcommand(argv, want):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, str(SRC.parent), *argv.split()],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded
    assert loaded & (COMPUTE | {"fractions"}) == want
