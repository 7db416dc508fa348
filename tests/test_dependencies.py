"""The package has no dependencies: every import in ``src/ballspec`` names
a standard-library module or ``ballspec`` itself. And the supported box has
one home: one integer check (``bessel._check_int``) and the order cap
compared only in ``bessel`` (the kernel) and ``zeros`` (the census pair).
And every double-double value comes through ``bessel.eval_J_pair``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

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
