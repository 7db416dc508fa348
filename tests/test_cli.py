"""CLI tests: output shapes, schema validation, determinism, exit codes,
the fault-injection contract for selfcheck, and the flag parser against
the argparse parser it replaced."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballspec import bessel, cli, pleijel, zeros
from tests import _box, _internals
from tests._cli import GOLDEN, run_cli

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
D_MAX = _box.EDGES["d_max"]
D1 = _box.EDGES["last_d_of_degree_one"]  # past it: the ground state alone

TABLE_6DEC = [
    "0.691660", "0.455945", "0.296901", "0.192940", "0.125581",
    "0.081982", "0.053704", "0.035306", "0.023291", "0.015417",
    "0.010236", "0.006817", "0.004553", "0.003048", "0.002046",
    "0.001376", "0.000928", "0.000627", "0.000424", "0.000288",
]


def validate(payload, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema)


class TestSpectrumCommand:
    def test_neumann_disc_json(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--d", "2", "--bc", "neumann", "--lambda-max", "18"
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        validate(payload, "spectrum.schema.json")
        got = [(r["l"], r["m"], r["label_first"], r["label_last"])
               for r in payload["records"]]
        assert got == [
            (0, 1, 1, 1), (1, 1, 2, 3), (2, 1, 4, 5), (0, 2, 6, 6), (3, 1, 7, 8),
        ]
        assert payload["bc"] == "Neumann"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--d", "3", "--bc", "dirichlet",
            "--lambda-max", "40", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,bc,l,m,zero,lambda,multiplicity,label_first,label_last"
        assert len(lines) > 1

    def test_negative_zero_cutoff_prints_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--d", "2", "--bc", "neumann",
            "--lambda-max", "-0.0",
        )
        assert code == 0 and err == ""
        assert '  "lambda_max": 0,' in out.splitlines()

    def test_deterministic_output(self, capsys):
        args = ("spectrum", "--d", "2", "--bc", "dirichlet", "--lambda-max", "60")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "spectrum_out.json"
        args = ("spectrum", "--d", "2", "--bc", "neumann", "--lambda-max", "18")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        code, silent, _ = run_cli(capsys, *args, "--output", str(target))
        assert code == 0 and silent == ""
        assert target.read_text() == out

    def test_missing_flags_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--d", "2")
        assert code == 1 and out == ""
        assert "usage error" in err


class TestZerosCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--l", "3", "--d", "2", "--bc", "dirichlet",
            "--count", "3",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "zeros.schema.json")
        assert [e["m"] for e in payload["zeros"]] == [1, 2, 3]
        for e in payload["zeros"]:
            want = zeros.dirichlet_zero(3, 2, e["m"])
            assert e["zero"] == want
            assert e["lambda"] == want * want

    def test_single_m(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--l", "0", "--d", "2", "--bc", "neumann", "--m", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["zeros"]) == 1
        assert payload["zeros"][0]["zero"] == zeros.neumann_zero(0, 2, 2)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--l", "1", "--d", "3", "--bc", "dirichlet",
            "--count", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,zero,lambda"
        assert len(lines) == 3

    def test_m_and_count_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "zeros", "--l", "1", "--d", "2", "--bc", "dirichlet",
            "--m", "1", "--count", "2",
        )
        assert code == 1 and "usage error" in err

    def test_bad_m_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "zeros", "--l", "1", "--d", "2", "--bc", "dirichlet", "--m", "0",
        )
        assert code == 1 and "usage error" in err

    def test_tol_out_of_range_is_usage_error(self, capsys):
        # --tol is range-checked and echoed; no zero depends on it
        argv = ["zeros", "--l", "1", "--d", "2", "--bc", "dirichlet"]
        for tol in ("1e-20", "1e-16", "2e-2", "0.0", "nan"):
            code, out, err = run_cli(capsys, *argv, "--tol", tol)
            assert (code, out) == (1, ""), tol
            assert err == (f"usage error: tol={float(tol)!r} outside "
                           "supported range [1e-15, 1e-2]\n"), tol
        for tol in ("1e-15", "1e-2"):
            code, out, _ = run_cli(capsys, *argv, "--tol", tol)
            assert code == 0 and json.loads(out)["tol"] == float(tol)
        # the tol is checked before the other zero parameters
        code, _, err = run_cli(capsys, "zeros", "--l", "-1", "--d", "2",
                               "--bc", "dirichlet", "--tol", "1e-20")
        assert (code, err) == (1, "usage error: tol=1e-20 outside "
                                  "supported range [1e-15, 1e-2]\n")


class TestCourantCommand:
    def test_ball_report_json(self, capsys):
        code, out, _ = run_cli(capsys, "courant", "--d", "3", "--bc", "dirichlet")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "courant.schema.json")
        assert payload["sharp_labels"] == [1, 2]
        statuses = {v["status"] for v in payload["verdicts"]}
        assert "Sharp" in statuses and "ExcludedSphereLabel" in statuses

    def test_disc_neumann_sharp_set(self, capsys):
        code, out, _ = run_cli(capsys, "courant", "--d", "2", "--bc", "neumann")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "courant.schema.json")
        assert payload["sharp_labels"] == [1, 2, 4]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "courant", "--d", "2", "--bc", "dirichlet",
            "--lmax", "3", "--mmax", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,m,bc,status,label_first,mu"
        assert len(lines) == 1 + 4 * 2


class TestPleijelCommand:
    def test_gamma_json(self, capsys):
        code, out, _ = run_cli(capsys, "pleijel", "--gamma", "4")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "pleijel_gamma.schema.json")
        row = pleijel.gamma_table(4, 4)[0]
        assert payload["gamma"] == row.gamma == pleijel.gamma(4)
        assert payload["log_gamma_value"] == row.log_gamma_value

    def test_table_csv_matches_published_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "pleijel", "--table", "2", "21", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,gamma,quotient"
        assert len(lines) == 21
        gammas = [line.split(",")[1] for line in lines[1:]]
        assert gammas == TABLE_6DEC
        assert lines[-1].endswith(",")

    def test_table_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "pleijel", "--table", "2", "6")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "pleijel_table.schema.json")
        assert [r["gamma"] for r in payload["rows"]] == TABLE_6DEC[:5]
        assert payload["rows"][-1]["quotient"] is None

    def test_curve_json(self, capsys):
        code, out, _ = run_cli(capsys, "pleijel", "--curve", "2", "10")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "pleijel_curve.schema.json")
        assert payload["x"] == list(range(2, 11))
        assert payload["y"] == [q for _, q in pleijel.quotient_curve(2, 10)]
        assert payload["hline"] == 2.0 / math.e

    def test_curve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "pleijel", "--curve", "3", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,quotient"
        assert len(lines) == 4

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "pleijel", "--gamma", "4", "--table", "2", "3")
        assert code == 1 and "usage error" in err

    def test_out_of_range_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "pleijel", "--gamma", "999")
        assert code == 1 and "usage error" in err


class TestCertifyCommand:
    def test_single_certificate_json(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--d", "4")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "certify.schema.json")
        names = [c["name"] for c in payload["checks"]]
        assert "poly_spot" in names and "final_lt_1" in names

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--d", "4", "--through", "6")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "certify.schema.json")
        assert [c["d"] for c in payload["certificates"]] == [4, 5, 6]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--d", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,name,lhs,rhs,margin,kind"
        assert all(line.startswith("10,") for line in lines[1:])

    def test_backwards_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--d", "10", "--through", "5")
        assert code == 1 and "usage error" in err

    def test_numerical_failure_exits_2_naming_inequality(self, capsys, monkeypatch):
        def broken(d):
            pleijel.Check("asb", 2.0, 1.0)

        monkeypatch.setattr(pleijel, "monotonicity_certificate", broken)
        code, out, err = run_cli(capsys, "certify", "--d", "10")
        assert code == 2 and out == ""
        assert "pleijel" in err and "asb" in err


class TestSelfcheckCommand:
    def test_fast_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "selfcheck", "--fast")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == f"selfcheck: {len(lines) - 1}/{len(lines) - 1} passed"

    def test_biased_kernel_fails_recurrence_first(self, capsys, monkeypatch):
        real = bessel.eval_J

        def biased(nu, x, *a, **k):
            res = real(nu, x, *a, **k)
            if nu.twice_nu % 4 == 0:
                return type(res)(res.value * (1.0 + 1e-6), res.est_rel_err)
            return res

        monkeypatch.setattr(bessel, "eval_J", biased)
        code, out, err = run_cli(capsys, "selfcheck", "--fast")
        assert code == 2
        assert "selfcheck failed at 'recurrence_residual'" in err
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails and fails[0].startswith("FAIL recurrence_residual:")

    def test_neumann_bound_off_by_one_dimension_fails(self, capsys,
                                                      monkeypatch):
        # the suite reads the published table, not the function's own
        # gamma(d - 1): a bound taken at d itself fails it
        monkeypatch.setattr(pleijel, "neumann_pleijel_bound", pleijel.gamma)
        code, out, err = run_cli(capsys, "selfcheck", "--fast")
        assert code == 2
        assert "selfcheck failed at 'neumann_bound'" in err
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL neumann_bound: neumann bound at d=3 rounds to "
                         "0.455945, expected gamma(2) = 0.691660"]

    def test_verbose_timings_go_to_stderr(self, capsys):
        code, plain, _ = run_cli(capsys, "selfcheck", "--fast")
        assert code == 0
        code, out, err = run_cli(capsys, "selfcheck", "--fast", "--verbose")
        assert code == 0
        assert out == plain
        assert err.startswith("ballspec ")
        assert "# recurrence_residual:" in err


class TestTopLevel:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bogus")
        assert code == 1 and "usage error" in err

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and "usage error" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "spectrum" in out and "selfcheck" in out

    def test_bad_bc_choice_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--d", "2", "--bc", "robin", "--lambda-max", "10"
        )
        assert code == 1 and "usage error" in err

    def test_verbose_does_not_change_stdout(self, capsys):
        args = ("pleijel", "--table", "2", "4")
        _, plain, _ = run_cli(capsys, *args)
        _, verbose, err = run_cli(capsys, *args, "--verbose")
        assert plain == verbose
        assert "ballspec" in err

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / "nope" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(
            capsys, "zeros", "--l", "0", "--d", "2", "--bc", "dirichlet",
            "--count", "1", "--output", str(target),
        )
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: cannot write {target}: ")

    # (argv, what the message must name, internal value it must not name);
    # the box's edges come from tests/_box.py; each refusal is X_MAX's: the
    # Courant windows' top zeros, beta_{2,2} > j_{241,1} at d = 480 and
    # beta_{1,1} past D1, the zero j_{239.5,1} at d = 481, and a cutoff past
    # LAMBDA_MAX all lie past the argument box
    @pytest.mark.parametrize("argv,names,not_named", [
        ("courant --d 480 --bc neumann --lmax 2 --mmax 2",
         ("d=480", "lmax=2"), "twice_nu"),
        (f"courant --d {D1 + 1} --bc neumann --lmax 1 --mmax 1",
         (f"d={D1 + 1}", "lmax=1", "mmax=1", "beyond the supported box"),
         "twice_nu"),
        (f"spectrum --d {D1 + 1} --bc neumann --lambda-max "
         f"{_box.LAMBDA_MAX + 1}", (f"lambda_max={_box.LAMBDA_MAX + 1}.0 ",),
         "twice_nu"),
        (f"pleijel --gamma {D_MAX + 1}", (f"gamma({D_MAX + 1})",), "d_max"),
        # zero-census errors name the caller's (l, d, m), not the census key
        ("courant --d 2 --bc dirichlet --lmax 3 --mmax 70",
         ("l=3, d=2", "m=70"), "twice_nu"),
        ("zeros --l 1 --d 2 --bc neumann --m 90",
         ("l=1, d=2", "m=90"), "twice_nu"),
        ("zeros --l 0 --d 481 --bc dirichlet --count 1",
         ("l=0, d=481", "m=1"), "twice_nu"),
        ("zeros --l 0 --d 2 --bc neumann --m 66",
         ("l=0, d=2", "m=66"), "m=65"),
        (f"pleijel --table 2 {D_MAX + 1}", (f"{D_MAX + 1}",), "twice_nu"),
        (f"pleijel --curve 2 {D_MAX}", (f"{D_MAX}",), "twice_nu"),
        (f"certify --d 4 --through {D_MAX}", (f"d={D_MAX}",), "twice_nu"),
        ("pleijel --gamma 1", ("--gamma must be >= 2, got 1",), "d_min"),
        # a huge --count walks m lazily up to the first zero past the box
        ("zeros --l 0 --d 2 --bc dirichlet --count 1000000000000000000",
         ("l=0, d=2", "m=64", "beyond the supported box"), "MemoryError"),
        ("pleijel --table 1 5", ("--table A must be >= 2, got 1",), "d_min"),
        ("pleijel --curve 6 3", ("--curve B 3 is below A 6",), "d_max"),
    ])
    def test_domain_error_names_the_flag(self, capsys, argv, names, not_named):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith("usage error: ")
        assert all(name in err for name in names), err
        assert not_named is None or not_named not in err, err


# integer flags that set a Bessel order: a value past the float range must
# fail (or, for a spectrum, print the table of the eigenvalues below the
# cutoff: none for Dirichlet, the ground state for Neumann) as 1000 does,
# naming the argument box its zero lies past
ORDER_FLAG_ARGV = [
    "zeros --l {} --d 2 --bc dirichlet --count 1",
    "zeros --l 0 --d {} --bc dirichlet --count 1",
    "spectrum --d {} --bc dirichlet --lambda-max 10",
    "spectrum --d {} --bc neumann --lambda-max 10",
    "pleijel --gamma {}",
    "pleijel --curve 2 {}",
    "certify --d {}",
    "courant --d 2 --bc dirichlet --lmax {}",
]


@pytest.mark.parametrize("value", [1000, 10**400], ids=["1000", "10**400"])
@pytest.mark.parametrize("argv", ORDER_FLAG_ARGV)
def test_order_flags_past_the_float_range(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv.format(value).split())
    if argv.startswith("spectrum"):
        # no degree's first positive zero lies below the cutoff
        assert code == 0 and err == ""
        records = json.loads(out)["records"]
        if "dirichlet" in argv:
            assert records == []
        else:
            assert [(r["l"], r["m"], r["zero"], r["label_first"])
                    for r in records] == [(0, 1, 0.0, 1)]
    else:
        assert code == 1 and out == ""
        assert err.startswith("usage error: "), err
        assert "beyond the supported box" in err, err


CSV_ARGV = [argv for argv, _, _ in GOLDEN
            if argv.endswith("--format csv") and not argv.startswith("selfcheck")]


@pytest.mark.parametrize("argv", CSV_ARGV)
def test_csv_rows_match_header_width(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out.endswith("\n")
    header, *rows = out.splitlines()
    assert rows
    width = len(header.split(","))
    for row in rows:
        assert len(row.split(",")) == width, row


# an index past any census box: refused as the box's last zeros are, not
# by a RecursionError of the census walk (exit 2)
@pytest.mark.parametrize("argv,names", [
    ("zeros --l 0 --d 2 --bc dirichlet --m 500", ("m=500", "l=0, d=2")),
    ("courant --d 2 --bc dirichlet --mmax 1000", ("m=1000",)),
])
def test_index_past_every_cell_is_usage_error(capsys, argv, names):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("usage error: "), err
    assert "beyond the supported box" in err, err
    assert all(name in err for name in names), err


# ---------------------------------------------------------------------------
# the flag parser against the argparse parser it replaced, kept here as the
# oracle of which command lines are accepted and what they set


class _OracleRefusal(Exception):
    pass


class _Oracle(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _OracleRefusal(message)


def _common_flags(parser: _Oracle) -> None:
    parser.add_argument("--output", default=None, metavar="PATH")
    parser.add_argument("--verbose", action="store_true")


def _table_flags(parser: _Oracle) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    _common_flags(parser)


def _build_parser() -> _Oracle:
    top = _Oracle(prog="ballspec")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("spectrum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    _table_flags(p)

    p = sub.add_parser("zeros")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=int, default=None)
    group.add_argument("--count", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-13)
    _table_flags(p)

    p = sub.add_parser("courant")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--mmax", type=int, default=4)
    _table_flags(p)

    p = sub.add_parser("pleijel")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=int, default=None)
    group.add_argument("--table", type=int, nargs=2, default=None)
    group.add_argument("--curve", type=int, nargs=2, default=None)
    _table_flags(p)

    p = sub.add_parser("certify")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--through", type=int, default=None)
    _table_flags(p)

    p = sub.add_parser("selfcheck")
    p.add_argument("--fast", action="store_true")
    _common_flags(p)

    return top


ORACLE = _build_parser()


def _fields(namespace) -> dict:
    # repr tells nan, -0.0, 1 and 1.0, True and 1 apart
    return {k: repr(v) for k, v in vars(namespace).items()}


def oracle_parse(argv: list[str]):
    """("ok", fields), ("help", None) or ("refused", None) from argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            namespace = ORACLE.parse_args(argv)
    except _OracleRefusal:
        return "refused", None
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    return "ok", _fields(namespace)


def new_parse(argv: list[str]):
    """The same from the CLI's own parser."""
    try:
        args = _internals.parse(argv)
    except _internals.Help:
        return "help", None
    except _internals.UsageError:
        return "refused", None
    return "ok", _fields(args)


def assert_parses_as_oracle(argv: list[str]) -> None:
    want = oracle_parse(argv)
    assert new_parse(argv) == want, argv
    if want[0] == "ok":
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if want[0] == "help":
        assert (code, out.getvalue(), err.getvalue()) == (0, cli.__doc__, "")
    else:
        assert code == 1 and out.getvalue() == "", argv
        assert err.getvalue().startswith("usage error: "), (argv, err.getvalue())


# the flags of every subcommand, two that none has, and sample values per
# flag (each list holds a value its flag refuses)
SAMPLES = {
    "--d": ["2", "3", "-1", "1.5"],
    "--bc": ["dirichlet", "neumann", "robin"],
    "--lambda-max": ["18", "-0.0", "-.5", "-1e5", "nan", "-7"],
    "--l": ["0", "1", "-2", "x"],
    "--m": ["1", "2", "-3", ""],
    "--count": ["2", "-3", "1e3"],
    "--tol": ["1e-6", "-.5", "-1.", "inf"],
    "--format": ["json", "csv", "xml"],
    "--output": ["out.json", "-", "-5", "", "-x y"],
    "--verbose": ["1"],
    "--lmax": ["2", "-1", "+3"],
    "--mmax": ["1", " 4 ", "4.0"],
    "--gamma": ["4", "-9", "x"],
    "--table": ["2", "6", "-3", "y"],
    "--curve": ["2", "5", "-\u0663", "z"],
    "--through": ["6", "-7", "6_0"],
    "--fast": ["yes"],
    "--help": ["x"],
    "--bogus": ["1"],
    "-d": ["2"],
}
ARITY = {"--verbose": 0, "--fast": 0, "--help": 0, "--table": 2, "--curve": 2}
# tokens that may stand anywhere: help, separators, unknown flags, values
# a flag may not take, and negative numbers it may
ANYWHERE = ["-h", "--he", "-hh", "-hx", "-h=h", "-h=", "--help=1", "--", "-",
            "-x", "--bogus=1", "--=1", "-1e5", "-5", "-.25", "-5\n", "5 6",
            "--d 2", ""]
COMMANDS = ["spectrum", "zeros", "courant", "pleijel", "certify", "selfcheck"]
TABLE_FLAGS = ["--format", "--output", "--verbose"]
# each subcommand's required flags with accepted values, and its other flags
REQUIRED = {
    "spectrum": [["--d", "2"], ["--bc", "neumann"], ["--lambda-max", "18"]],
    "zeros": [["--l", "1"], ["--d", "3"], ["--bc", "dirichlet"]],
    "courant": [["--d", "2"], ["--bc", "dirichlet"]],
    "pleijel": [["--gamma", "4"]],
    "certify": [["--d", "5"]],
    "selfcheck": [],
}
OPTIONAL = {
    "spectrum": TABLE_FLAGS,
    "zeros": ["--m", "--count", "--tol", *TABLE_FLAGS],
    "courant": ["--lmax", "--mmax", *TABLE_FLAGS],
    "pleijel": ["--table", "--curve", *TABLE_FLAGS],
    "certify": ["--through", *TABLE_FLAGS],
    "selfcheck": ["--fast", "--output", "--verbose"],
}


@st.composite
def flag_groups(draw, command):
    """A flag, mostly one of the command's, as itself or a prefix of it
    (unique or not), with values after it (mostly as many as it takes) or
    after an "=". Each value is mostly one of the flag's samples."""
    own = [g[0] for g in REQUIRED.get(command, [])] + OPTIONAL.get(command, [])
    flag = draw(st.sampled_from(own * 3 + sorted(SAMPLES)))
    spelling = flag[:draw(st.integers(min(3, len(flag)), len(flag)))]

    def value():
        if draw(st.integers(0, 5)):
            return draw(st.sampled_from(SAMPLES[flag]))
        return draw(st.sampled_from(ANYWHERE))

    if draw(st.integers(0, 4)) == 0:
        explicit = value()
        assume(explicit != "--")  # argparse reads --FLAG=-- as [] (below)
        return [f"{spelling}={explicit}"]
    count = draw(st.sampled_from([ARITY.get(flag, 1)] * 6 + [0, 1, 2, 3]))
    return [spelling, *(value() for _ in range(count))]


@st.composite
def command_lines(draw):
    """Tokens before a command, the command (or none, or an unknown one),
    its required flags, each mostly kept, and more groups, in any order."""
    before = [draw(st.sampled_from(ANYWHERE[:12]))] * (
        draw(st.integers(0, 5)) == 0)
    command = draw(st.sampled_from(COMMANDS * 4 + ["bogus", None]))
    groups = [g for g in REQUIRED.get(command, [])
              if draw(st.integers(0, 5))]
    groups += draw(st.lists(flag_groups(command), max_size=4))
    if draw(st.integers(0, 5)) == 0:
        groups.append([draw(st.sampled_from(ANYWHERE))])
    groups = draw(st.permutations(groups))
    return before + [command] * (command is not None) + [
        tok for group in groups for tok in group]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parser_accepts_what_argparse_accepts(argv):
    assert_parses_as_oracle(argv)


def test_flag_equals_separator_is_refused():
    # the one command line family where the parser leaves argparse on
    # purpose: argparse strips "--" from a flag's values, so --FLAG=--
    # sets FLAG to an empty list, unconverted; the CLI refuses it, as it
    # refuses "--" as a value everywhere else
    argv = "zeros --l 1 --d 2 --bc dirichlet --m=--".split()
    assert oracle_parse(argv)[1]["m"] == "[]"
    assert new_parse(argv) == ("refused", None)
    assert new_parse(["selfcheck", "--output=--"]) == ("refused", None)


@pytest.mark.parametrize("argv", [
    "spectrum --d 2 --bc neumann --lambda-max 18",
    "spectrum --d=2 --b neumann --lambda -.5 --lambda-max=-1e5 --f csv --verb",
    "spectrum --d 2 --bc neumann --lambda-max -1e5",
    "spectrum --d 2 --bc neumann --lambda-max 18 --d 3 --d x",
    "zeros --l 1 --d 2 --bc dirichlet --m 1 --m 2 --tol 1e-6",
    "zeros --l 1 --d 2 --bc dirichlet --m 1 --count 2",
    "zeros --l 1 --d 2 --bc dirichlet --c 2 --help",
    "courant --d 2 --bc dirichlet --l 3 --mm=2 --output -5",
    "pleijel --table 2 -3 --format=csv",
    "pleijel --table=2 3",
    "pleijel --curve 2",
    "pleijel --gamma 4 --table 2 3",
    "pleijel --format json",
    "certify --d 4 --through 6 --verbose=1",
    "certify --d 4 --",
    "certify --d 4 -- --help",
    "certify --d --through 5",
    "selfcheck --f --output=",
    "selfcheck --=x",
    "selfcheck -hh",
    "selfcheck -h=",
    "--bogus selfcheck --help",
    "--bogus selfcheck",
    "-- selfcheck",
    "-- --help",
    "--he bogus",
    "bogus --help",
    "",
    # an ambiguous prefix is refused before any flag acts, --help too
    "selfcheck -h --=1",
    # a value may start with "-" if it is a negative number (where "$"
    # also matches before a final newline) or holds a space
    ["zeros", "--l", "-5\n", "--d", "2", "--bc", "neumann"],
    ["zeros", "--l", "-5\n\n", "--d", "2", "--bc", "neumann"],
    ["selfcheck", "--output", "-x y"],
    ["selfcheck", "--output", "-x\ty"],
])
def test_parser_edge_cases_match_argparse(argv):
    assert_parses_as_oracle(argv.split() if isinstance(argv, str) else argv)


def test_subcommand_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--help")
    assert (code, out, err) == (0, cli.__doc__, "")
