"""The package has no dependencies: every import in ``src/ballspec`` names
a standard-library module or ``ballspec`` itself."""

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
