"""Command-line front end.

Subcommands (all parameters are explicit flags, no positionals):

  spectrum   --d D --bc BC --lambda-max X        labeled eigenvalue table
  zeros      --l L --d D --bc BC [--m M | --count K] [--tol T]
  courant    --d D --bc BC [--lmax L] [--mmax M]  sharpness verdicts
  pleijel    --gamma D | --table A B | --curve A B
  certify    --d D [--through D2]                 monotonicity certificates
  selfcheck  [--fast]                             built-in invariant suite

Common flags: --output PATH, --verbose (version banner on the error
stream; data output stays byte-identical). Every subcommand but selfcheck
also takes --format json|csv (default json).

Each subcommand builds its payload and its table rows once, and one writer
(`_emit`) prints every table: the payload as JSON through `_format.dumps`,
or the rows as CSV through `_format.csv_text`.  The spectrum table and the
quotient-curve JSON render themselves; selfcheck prints a text report.

Exit codes: 0 success; 1 usage or parameter-domain error, or an --output
path that cannot be written (message on the error stream); 2 numerical
failure — the message carries the failing module and inequality/bracket
as raised by the library.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ballspec import __version__, courant, pleijel, selfcheck, spectrum, zeros
# format_float is not called here; perfbench/trace_child.py wraps cli.format_float
from ballspec._format import csv_text, dumps, format_float  # noqa: F401
from ballspec.errors import BallspecError, NumericalError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _common_flags(parser: _Parser) -> None:
    parser.add_argument("--output", default=None, metavar="PATH")
    parser.add_argument("--verbose", action="store_true")


def _table_flags(parser: _Parser) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    _common_flags(parser)


def _build_parser() -> _Parser:
    top = _Parser(prog="ballspec", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("spectrum", help="labeled eigenvalue table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    _table_flags(p)

    p = sub.add_parser("zeros", help="zeros of the radial target")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=int, default=None)
    group.add_argument("--count", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    _table_flags(p)

    p = sub.add_parser("courant", help="Courant sharpness verdicts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], required=True)
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--mmax", type=int, default=4)
    _table_flags(p)

    p = sub.add_parser("pleijel", help="gamma values, table, quotient curve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=int, default=None, metavar="D")
    group.add_argument(
        "--table", type=int, nargs=2, default=None, metavar=("D_MIN", "D_MAX")
    )
    group.add_argument(
        "--curve", type=int, nargs=2, default=None, metavar=("D_MIN", "D_MAX")
    )
    _table_flags(p)

    p = sub.add_parser("certify", help="monotonicity certificates")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--through", type=int, default=None, metavar="D_MAX")
    _table_flags(p)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.add_argument("--fast", action="store_true")
    _common_flags(p)

    return top


def _write(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from exc


def _emit(args, payload, header, rows) -> None:
    """The one table writer: payload as JSON, or header and rows as CSV."""
    _write(args, dumps(payload) if args.format == "json" else csv_text(header, rows))


def _run_spectrum(args) -> int:
    table = spectrum.enumerate_spectrum(args.d, args.bc, args.lambda_max)
    _write(args, table.to_json() if args.format == "json" else table.to_csv())
    return 0


def _run_zeros(args) -> int:
    if args.count is not None and args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    ms = [args.m] if args.m is not None else range(1, (args.count or 5) + 1)
    bc = spectrum._coerce_bc(args.bc)
    tol = zeros.DEFAULT_TOL if args.tol is None else args.tol
    rows = []
    for m in ms:
        z = zeros.find_zero(spectrum.ROOT_KIND[bc], args.l, args.d, m, tol)
        rows.append((m, z, z * z))
    payload = {
        "d": args.d,
        "bc": bc.value,
        "l": args.l,
        "tol": tol,
        "zeros": [{"m": m, "zero": z, "lambda": lam} for m, z, lam in rows],
    }
    _emit(args, payload, ("m", "zero", "lambda"), rows)
    return 0


def _run_courant(args) -> int:
    verdicts = courant.courant_sharp_ball(args.d, args.bc, args.lmax, args.mmax)
    payload = {
        "d": args.d,
        "bc": verdicts[0].record.bc.value,
        "lmax": args.lmax,
        "mmax": args.mmax,
        "sharp_labels": sorted(courant.sharp_labels(verdicts)),
        "verdicts": [v.as_dict() for v in verdicts],
    }
    rows = [
        (v.record.l, v.record.m, v.record.bc.value, v.status.value,
         v.record.label_first, v.mu)
        for v in verdicts
    ]
    _emit(args, payload, ("l", "m", "bc", "status", "label_first", "mu"), rows)
    return 0


def _run_pleijel(args) -> int:
    if args.gamma is not None:
        pleijel.gamma(args.gamma)  # checks D as d, not as d_min
        row = pleijel.gamma_table(args.gamma, args.gamma)[0]
        payload = {
            "d": row.d,
            "gamma": row.gamma,
            "log_gamma_value": row.log_gamma_value,
        }
        _emit(args, payload, ("d", "gamma"), [(row.d, row.gamma)])
    elif args.table is not None:
        d_min, d_max = args.table
        rows = [
            (r.d, pleijel.six_decimals(r.gamma),
             None if r.quotient_next is None
             else pleijel.six_decimals(r.quotient_next))
            for r in pleijel.gamma_table(d_min, d_max)
        ]
        payload = {
            "d_min": d_min,
            "d_max": d_max,
            "rows": [{"d": d, "gamma": g, "quotient": q} for d, g, q in rows],
        }
        _emit(args, payload, ("d", "gamma", "quotient"), rows)
    else:
        points = pleijel.quotient_curve(*args.curve)
        if args.format == "json":
            _write(args, pleijel.curve_to_plot_json(points))
        else:
            _write(args, csv_text(("d", "quotient"), points))
    return 0


def _run_certify(args) -> int:
    d_last = args.d if args.through is None else args.through
    if d_last < args.d:
        raise _UsageError(f"--through {d_last} is below --d {args.d}")
    certs = [pleijel.monotonicity_certificate(d) for d in range(args.d, d_last + 1)]
    if args.through is None:
        payload = certs[0].as_dict()
    else:
        payload = {
            "d_min": args.d,
            "d_max": d_last,
            "certificates": [c.as_dict() for c in certs],
        }
    rows = [
        (cert.d, c.name, c.lhs, c.rhs, c.margin, c.kind)
        for cert in certs for c in cert.checks
    ]
    _emit(args, payload, ("d", "name", "lhs", "rhs", "margin", "kind"), rows)
    return 0


def _run_selfcheck(args) -> int:
    results = selfcheck.run(fast=args.fast)
    lines = []
    for r in results:
        lines.append(f"ok {r.name}" if r.ok else f"FAIL {r.name}: {r.detail}")
        if args.verbose:
            print(f"# {r.name}: {r.elapsed:.2f}s", file=sys.stderr)
    passed = sum(r.ok for r in results)
    lines.append(f"selfcheck: {passed}/{len(results)} passed")
    _write(args, "\n".join(lines))
    failures = [r for r in results if not r.ok]
    if failures:
        first = failures[0]
        print(
            f"error: selfcheck failed at '{first.name}': {first.detail}",
            file=sys.stderr,
        )
        return 2
    return 0


_DISPATCH = {
    "spectrum": _run_spectrum,
    "zeros": _run_zeros,
    "courant": _run_courant,
    "pleijel": _run_pleijel,
    "certify": _run_certify,
    "selfcheck": _run_selfcheck,
}


def run(argv: list[str]) -> int:
    """Parse argv, execute one subcommand, and map errors to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)

    if args.verbose:
        print(f"ballspec {__version__}", file=sys.stderr)

    try:
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BallspecError as exc:  # parameter-domain problems: RangeError etc.
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI must never traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
