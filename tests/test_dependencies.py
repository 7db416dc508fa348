"""The package has no dependencies: every import in ``src/ballspec`` names
a standard-library module or ``ballspec`` itself. And the supported box has
one home: one integer check (``bessel._check_int``), and no order cap, in
the kernel or the census, nor a compared ``pleijel.D_MAX``.
And a CLI job imports only the modules its subcommand runs, and never
``dataclasses``, an argument parser, ``json`` or ``fractions``. And the
kernel keeps one Miller ladder, the integer ``bessel._ladder``, built by
``_eval_miller`` and the census grid's shared ladders, with no float ladder
and no double-double primitive left; the kernel owns those shared ladders,
and the zero finder takes every value from them, none from
``bessel.eval_J_pair``, and names no part of them, nor a Newton target
of its own: no ``_jet``, and no comparison that reads an order, nor a sign
rule: ``bessel._certified`` decides every certified sign; the only
fixed-point functions are ``bessel._ladder``, its multiplication-series
reader ``bessel._multiply`` and the ascending series below the turning
point. And outside ``tests/_internals.py``, the tests' one table of the
private parts of the ``ballspec`` modules, ``tests/_counts.py``, this file
and the sweep scripts, no test names a private part of a ``ballspec``
module, README names none, and no test module imports another."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests import _internals

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


def test_no_module_compares_d_max():
    # pleijel.D_MAX follows from X_MAX, and a gamma(d) past it is refused by
    # its zero request for X_MAX: no module compares it, so it is no
    # second box
    found = [
        (name, node.lineno)
        for name, tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and _named(node, {"D_MAX"})
    ]
    assert found == []


def test_spectrum_catches_no_range_error_and_grid_ladders_size_from_x():
    # spectrum catches no refusal, so a refused zero reaches its caller, and
    # the census's shared ladders are sized from x alone, not from any order
    spectrum = dict(_parsed())["spectrum.py"]
    assert [node.lineno for node in ast.walk(spectrum)
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None or _named(node.type, {
                "RangeError", "BallspecError", "Exception"}))] == []
    tree = dict(_parsed())["bessel.py"]
    grid_ladder = next(fn for fn in tree.body
                       if isinstance(fn, ast.FunctionDef)
                       and fn.name == "_grid_ladder")
    # no constant but its cache and the series span
    consts = {node.id for node in ast.walk(grid_ladder)
              if isinstance(node, ast.Name) and node.id.lstrip("_").isupper()}
    assert consts == {"_LADDERS", "_SPAN"}


def test_only_bessel_names_the_double_double_ladder():
    # outside the kernel, no value comes from _eval_miller's reading of a
    # ladder: eval_J and eval_J_pair check the box and underflow around it
    found = [
        (name, node.lineno)
        for name, tree in _parsed()
        if name != "bessel.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and _named(node, {"_eval_miller"})
    ]
    assert found == []


def test_zero_finder_takes_no_value_from_eval_j_pair():
    # every zero, its census signs and its certificate read the census's
    # shared ladders (bessel._grid_ladder) or, below the turning point, the
    # ascending series, so a zero rests on their bounds alone
    tree = dict(_parsed())["zeros.py"]
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and _named(node, {"eval_J_pair", "eval_J"})]
    assert found == []


def test_zero_finder_names_no_part_of_the_census_ladder():
    # bessel builds, caches, sizes and reads the census grid's shared
    # ladders and its ascending series; zeros reaches them through
    # bessel._grid_sign and bessel._grid_series only, and names none of
    # their parts, in code, comments or docstrings
    parts = re.compile(r"\b(_ladder|_multiply|_bound|_pair_bound|_SPAN"
                       r"|_LADDERS|_LADDER_TOP|_grid_ladder|_ascending\w*)\b")
    text = (SRC / "zeros.py").read_text()
    assert parts.findall(text) == []
    assert set(re.findall(r"_grid_\w+", text)) == {"_grid_sign",
                                                    "_grid_series"}


def test_zero_finder_leaves_the_newton_target_to_bessel():
    # bessel._grid_series picks the series and the Newton target that
    # suits it by one turning-point test, and hands zeros the jet: zeros
    # defines no jet of its own, and none of its comparisons reads an
    # order, so no route or target rule has a second home there
    tree = dict(_parsed())["zeros.py"]
    assert [fn.name for fn in _functions(tree) if fn.name == "_jet"] == []
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and _named(node, {"twice_nu"})] == []
    bessel = dict(_parsed())["bessel.py"]
    assert "_jet" in {fn.name for fn in _functions(bessel)}


def test_one_rule_decides_every_certified_sign():
    # bessel._certified decides the census signs (bessel._grid_sign) and
    # the certificate's (zeros._refine), so the sign rule keeps one home:
    # zeros defines no _certified, and reads each fixed-point value at(i)
    # only as the argument of bessel._certified, never as a number
    tree = dict(_parsed())["zeros.py"]
    assert [fn.name for fn in _functions(tree)
            if fn.name == "_certified"] == []
    ruled = {id(arg.value) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "_certified"
             for arg in node.args if isinstance(arg, ast.Starred)}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "at"]
    assert len(reads) == 4 and all(id(node) in ruled for node in reads)
    bessel = dict(_parsed())["bessel.py"]
    grid_sign = next(fn for fn in bessel.body
                     if isinstance(fn, ast.FunctionDef)
                     and fn.name == "_grid_sign")
    assert any(isinstance(node, ast.Call) and _named(node.func,
                                                     {"_certified"})
               for node in ast.walk(grid_sign))


def test_census_key_carries_no_target_tag():
    # a census key is (l, twice_nu): l = 0 is the J_nu target and l >= 1
    # is g, so no zeros function takes a tag and no "J" or "G" literal
    # picks a target
    tree = dict(_parsed())["zeros.py"]
    takes_tag = [fn.name for fn in _functions(tree)
                 if "tag" in {a.arg for a in ast.walk(fn.args)
                              if isinstance(a, ast.arg)}]
    literals = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in ("J", "G")]
    assert takes_tag == [] and literals == []


def _functions(tree: ast.AST):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _compensated(name: str) -> bool:
    return name.startswith(("_dd_", "_two_")) or name == "_quick_two_sum"


def test_no_module_defines_or_calls_a_double_double_primitive():
    # the kernel's high-precision ladder runs in exact integers, so no
    # compensated-float primitive (_dd_*, _two_*, _quick_two_sum) remains
    found = []
    for name, tree in _parsed():
        found += [(name, node.name) for node in _functions(tree)
                  if _compensated(node.name)]
        found += [
            (name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(isinstance(n, ast.Name) and _compensated(n.id)
                    or isinstance(n, ast.Attribute) and _compensated(n.attr)
                    for n in ast.walk(node.func))
        ]
    assert found == []


def _counts_down(node: ast.AST) -> bool:
    """A for loop over range(..., -1, -1): a backward recurrence."""
    return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and _named(node.iter.func, {"range"})
            and len(node.iter.args) == 3
            and all(isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub)
                    and getattr(a.operand, "value", None) == 1
                    for a in node.iter.args[1:]))


def test_eval_miller_is_the_only_high_precision_ladder():
    # one Miller ladder runs backward, the integer bessel._ladder
    ladders = {(name, fn.name) for name, tree in _parsed()
               for fn in _functions(tree)
               if any(_counts_down(node) for node in ast.walk(fn))}
    assert ladders == {("bessel.py", "_ladder")}


def test_only_the_ladder_and_its_series_reader_run_in_fixed_point():
    # a shift (<< or >>) marks fixed point: only bessel._ladder,
    # bessel._multiply, the multiplication series that reads it, and the
    # ascending series below the turning point, its exact sums, its census
    # target and its (pair, value), shift
    shifts = {(name, _enclosing(tree, node.lineno))
              for name, tree in _parsed() for node in ast.walk(tree)
              if isinstance(node, ast.BinOp)
              and isinstance(node.op, (ast.LShift, ast.RShift))}
    assert shifts == {("bessel.py", "_ladder"), ("bessel.py", "_multiply"),
                      ("bessel.py", "_ascending_sums"),
                      ("bessel.py", "_ascending_target"),
                      ("bessel.py", "_ascending")}


def _enclosing(tree: ast.AST, line: int) -> str:
    """The name of the innermost top-level function around line."""
    return next((fn.name for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)
                 and fn.lineno <= line <= fn.end_lineno), "")


def test_ladder_has_one_reader_per_use_and_no_float_twin():
    # bessel._ladder is built by _eval_miller (every eval_J / eval_J_pair
    # value) and by _grid_ladder (the census's shared ladders, which the
    # census signs, Newton and the certificate read); the float ladder,
    # its rescale constants and readers, the Taylor phase and the
    # pair-based certificate are gone, as are the scan start rounded down
    # to the grid, zeros' copy of the CLI's --tol default, the float
    # census signs (the census pair, its sign rule and underflow guard),
    # and the census's order cap, its spectrum check and the ladder's
    # below-turning-point error model
    calls = []
    for name, tree in _parsed():
        calls += [(name, _enclosing(tree, node.lineno))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _named(node.func, {"_ladder"})]
    assert sorted(calls) == [("bessel.py", "_eval_miller"),
                             ("bessel.py", "_grid_ladder")]
    gone = {"_miller_float", "_RESCALE_HI", "_RESCALE_MUL", "_float_target",
            "_sign_target", "_pair_float", "_ladder_float", "_taylor",
            "_TERMS", "_HANDOVER", "_RADIUS", "_exact", "_certificate",
            "_target", "_nearest", "_GAP_REL", "_target_err", "_grid_cells",
            "_combine", "_curvature", "_grid_points", "_scan_start",
            "DEFAULT_TOL", "_LADDER_TOP", "_TINY", "_grid_pair", "_sign",
            "_check_pair", "_bound", "_degree_zeros"}
    tests = sorted(SRC.parents[1].joinpath("tests").glob("*.py"))
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) + tests
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in gone
        or isinstance(node, (ast.Name, ast.Attribute))
        and _named(node, gone)
    ]
    assert tests and found == []


# ---------------------------------------------------------------------------
# the tests and README state behaviour: a test reads a private part of a
# ballspec module only through tests/_internals.py, which names each one
# once, and counts work only through tests/_counts.py, so that a renamed or
# reshaped internal edits those files, not the tests

ROOT = SRC.parents[1]
# the test files that may name a private part: the table of them, the work
# counters, this file, and the sweeps, scripts run outside pytest
PRIVATE_HOMES = {"_internals.py", "_counts.py", "test_dependencies.py",
                 "argv_sweep.py", "census_sweep.py", "ledger_sweep.py"}
MODULES = "|".join(sorted(path.stem for path in SRC.glob("*.py")
                          if path.stem != "__init__"))
# an attribute of a ballspec module whose name starts with one "_" (also in
# a comment or a dotted string), or a setattr of one
PRIVATE_NAME = re.compile(rf"\b({MODULES})\._[^\W_]"
                          rf"|setattr\(\s*({MODULES})\s*,\s*[\"']_[^\W_]")


def _private_parts() -> set[str]:
    """The private names that the ballspec modules define at module
    level."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_tests_name_private_parts_only_in_their_homes():
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name in PRIVATE_HOMES:
            continue
        text = path.read_text()
        found += [(path.name, text.count("\n", 0, m.start()) + 1)
                  for m in PRIVATE_NAME.finditer(text)]
        found += [(path.name, node.lineno)
                  for node in ast.walk(ast.parse(text, str(path)))
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("ballspec")
                  and any(a.name.startswith("_") for a in node.names)]
    assert found == []


def test_readme_names_no_private_part():
    parts = _private_parts()
    # not vacuous: every part the tests' table names is one of them
    assert {attr for _, attr in _internals.PARTS.values()} <= parts
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(rf"(?<![\w.])_\w+|\b(?:{MODULES})\._\w+", text))
    assert {n for n in named if n in parts or "." in n} == set()


def test_no_test_module_imports_another():
    # shared helpers live in the tests' _*.py modules
    found = [
        (path.name, node.lineno)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("tests.test_")
            or node.module == "tests"
            and any(a.name.startswith("test_") for a in node.names))
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
    # sys, the serializers and the errors; compute modules are imported
    # inside the _run_* of their subcommand
    allowed = {
        "__future__": {"annotations"},
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
    ("zeros --l 1 --d 3 --bc dirichlet --count 2", {"bessel", "zeros"}),
    ("spectrum --d 3 --bc neumann --lambda-max 30",
     {"bessel", "zeros", "spectrum"}),
    ("courant --d 3 --bc dirichlet --lmax 2 --mmax 1",
     {"bessel", "zeros", "spectrum", "courant", "pleijel"}),
    ("pleijel --gamma 9", {"bessel", "zeros", "pleijel"}),
    ("certify --d 11 --format csv", {"bessel", "zeros", "pleijel"}),
    ("selfcheck --fast", COMPUTE),
]
# standard-library modules no job loads: the flag parser, the string
# escaper and the exact checks are the program's own
NEVER = {"argparse", "json", "gettext", "locale", "fractions"}


@pytest.mark.parametrize("argv, want", IMPORT_SETS)
def test_cli_job_imports_only_its_subcommand(argv, want):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, str(SRC.parent), *argv.split()],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded
    assert loaded & COMPUTE == want
    assert loaded & NEVER == set()
