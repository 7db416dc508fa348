"""usage: ballspec COMMAND [FLAGS]

Commands (all parameters are explicit flags, no positionals):

  spectrum   --d D --bc BC --lambda-max X        labeled eigenvalue table
  zeros      --l L --d D --bc BC [--m M | --count K] [--tol T]
  courant    --d D --bc BC [--lmax L] [--mmax M]  sharpness verdicts
  pleijel    --gamma D | --table A B | --curve A B
  certify    --d D [--through D2]                 monotonicity certificates
  selfcheck  [--fast]                             built-in invariant suite

BC is dirichlet or neumann; courant's --lmax and --mmax default to 8 and 4.
Common flags: --output PATH, --verbose (version banner on the error
stream; data output stays byte-identical). Every subcommand but selfcheck
also takes --format json|csv (default json). A flag may be shortened to a
unique prefix and given as --flag=VALUE; -h or --help prints this text.

Exit codes: 0 success; 1 usage or parameter-domain error, or an --output
path or a stdout that cannot be written (message on the error stream); 2
numerical failure - the message carries the failing module and
inequality/bracket as raised by the library.
"""

from __future__ import annotations

import sys

# compute modules are imported in the _run_* of their subcommand, so that
# a job loads only what it runs
from ballspec import __version__
# format_float is not called here; perfbench/trace_child.py wraps cli.format_float
from ballspec._format import csv_text, dumps, format_float  # noqa: F401
from ballspec.errors import BallspecError, NumericalError


class _UsageError(Exception):
    pass


class _Help(Exception):
    """-h or --help was given: print the module docstring and exit 0."""


class _Args:
    """The parsed command line: command, and one attribute per flag."""

    def __init__(self, fields: dict) -> None:
        self.__dict__.update(fields)


# The flag table: each subcommand's flags and the kind of value each takes.
# A kind is int, float or str (one value), a tuple of choices (one of them),
# _PAIR (two ints) or _SWITCH (no value). The parse loop (_parse) accepts
# the command lines, and sets the values and defaults, that argparse does
# for this table, but for --FLAG=--; tests/test_cli.py checks it against
# an argparse parser.
_PAIR, _SWITCH = "pair", "switch"
_BC = ("dirichlet", "neumann")
_COMMON = {"--output": str, "--verbose": _SWITCH}
_TABLE = {"--format": ("json", "csv"), **_COMMON}
_FLAGS = {
    "spectrum": {"--d": int, "--bc": _BC, "--lambda-max": float, **_TABLE},
    "zeros": {"--l": int, "--d": int, "--bc": _BC, "--m": int,
              "--count": int, "--tol": float, **_TABLE},
    "courant": {"--d": int, "--bc": _BC, "--lmax": int, "--mmax": int,
                **_TABLE},
    "pleijel": {"--gamma": int, "--table": _PAIR, "--curve": _PAIR, **_TABLE},
    "certify": {"--d": int, "--through": int, **_TABLE},
    "selfcheck": {"--fast": _SWITCH, **_COMMON},
}
_REQUIRED = {
    "spectrum": ("--d", "--bc", "--lambda-max"),
    "zeros": ("--l", "--d", "--bc"),
    "courant": ("--d", "--bc"),
    "certify": ("--d",),
}
# at most one flag of a group; pleijel needs one of its group
_ONE_OF = {"zeros": ("--m", "--count"),
           "pleijel": ("--gamma", "--table", "--curve")}
_ONE_REQUIRED = {"pleijel"}
_DEFAULTS = {"--format": "json", "--lmax": 8, "--mmax": 4, "--tol": 1e-13}
_HELP = ("-h", "--help")
_VALUES = ("no value", "one value", "two values")


def _negative_number(tok: str) -> bool:
    """argparse's test that a "-..." token is a value, not a flag:
    ^-\\d+$|^-\\d*\\.\\d+$, where $ also matches before a final newline."""
    body = tok[1:-1] if tok.endswith("\n") else tok[1:]
    whole, dot, frac = body.partition(".")
    return body.isdecimal() or bool(
        dot and (not whole or whole.isdecimal()) and frac.isdecimal())


def _classify(tok: str, flags):
    """None for a value, else (flag, its =VALUE or None), in argparse's
    order: the exact flag, the flag before an "=", a unique prefix (a long
    flag may carry "=VALUE"; -h may run on into more characters), then a
    negative number or a token with a space is a value. Any other "-..."
    token is an unknown flag, (None, None), and so is "--"."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok == "--":
        return None, None
    if tok in flags:
        return tok, None
    name, eq, value = tok.partition("=")
    if eq and name in flags:
        return name, value
    if tok[1] == "-":
        hits = [(flag, value if eq else None)
                for flag in flags if flag.startswith(name)]
    else:
        hits = [(tok[:2], tok[2:])] if tok[:2] in flags else []
    if len(hits) > 1:
        raise _UsageError(f"ambiguous flag {tok}: could be "
                          + ", ".join(flag for flag, _ in hits))
    if hits:
        return hits[0]
    return None if _negative_number(tok) or " " in tok else (None, None)


def _help(flag: str, value) -> None:
    """Raise _Help, or _UsageError for a value given to it: -h takes none,
    but may run on as -hh... (-h=h...), as argparse's short flags do."""
    if value is None or flag == "-h" and value and not value.strip("h"):
        raise _Help
    raise _UsageError(f"{flag} takes no value, got {value!r}")


def _convert(flag: str, kind, raw: list[str]):
    """The value of one flag from its raw strings."""
    if kind is _SWITCH:
        return True
    if isinstance(kind, tuple):
        if raw[0] not in kind:
            raise _UsageError(f"{flag}: invalid choice {raw[0]!r} "
                              f"(choose from {', '.join(kind)})")
        return raw[0]
    convert = int if kind is _PAIR else kind
    values = []
    for v in raw:
        try:
            values.append(convert(v))
        except ValueError:
            raise _UsageError(f"{flag}: invalid {convert.__name__} value: "
                              f"{v!r}") from None
    return values if kind is _PAIR else values[0]


def _parse(argv: list[str]) -> _Args:
    """The command and its flags, as argparse would parse argv.

    Tokens before the command may only be -h/--help; any other flag there
    is refused at the end, unless a help flag comes first. Every token
    after the command is classified before any is acted on (an ambiguous
    prefix is refused first); then each flag takes its values, which must
    be value tokens, and the last of a repeated flag wins. Everything after
    a "--" is a stray value. argparse reads --FLAG=-- as an empty list;
    that alone is refused here."""
    stray = []
    for i, tok in enumerate(argv):
        hit = None if tok == "--" else _classify(tok, _HELP)
        if hit is None:
            break
        if hit[0] is None:
            stray.append(tok)
        else:
            _help(*hit)
    else:
        raise _UsageError("no command given; choose from " + ", ".join(_FLAGS))
    command, rest = argv[i], argv[i + 1:]
    flags = _FLAGS.get(command)
    if flags is None:
        raise _UsageError(f"unknown command {command!r}; choose from "
                          + ", ".join(_FLAGS))
    known = _HELP + tuple(flags)
    cut = rest.index("--") if "--" in rest else len(rest)
    kinds = ([_classify(tok, known) for tok in rest[:cut + 1]]
             + [None] * (len(rest) - cut - 1))
    fields = {"command": command}
    for flag, kind in flags.items():
        fields[flag[2:].replace("-", "_")] = (
            False if kind is _SWITCH else _DEFAULTS.get(flag))
    seen: set = set()
    group = _ONE_OF.get(command, ())
    j = 0
    while j < len(rest):
        flag, value = kinds[j] or (None, None)
        j += 1
        if flag is None:
            stray.append(rest[j - 1])
            continue
        if flag in _HELP:
            _help(flag, value)
        kind = flags[flag]
        need = 0 if kind is _SWITCH else 2 if kind is _PAIR else 1
        if value is not None:
            # "--" is never a value (argparse reads --FLAG=-- as [])
            if need != 1 or value == "--":
                raise _UsageError(f"{flag} takes {_VALUES[need]}, got ={value}")
            raw = [value]
        else:
            raw = rest[j:j + need]
            if len(raw) < need or any(kinds[j:j + need]):
                raise _UsageError(f"{flag} takes {_VALUES[need]}")
            j += need
        fields[flag[2:].replace("-", "_")] = _convert(flag, kind, raw)
        if flag in group:
            other = [f for f in group if f != flag and f in seen]
            if other:
                raise _UsageError(f"{flag} is not allowed with {other[0]}")
        seen.add(flag)
    missing = [flag for flag in _REQUIRED.get(command, ()) if flag not in seen]
    if missing:
        raise _UsageError(f"{command} needs {', '.join(missing)}")
    if command in _ONE_REQUIRED and not seen.intersection(group):
        raise _UsageError(f"{command} needs one of {', '.join(group)}")
    if stray:
        raise _UsageError("unrecognized arguments: " + " ".join(stray))
    return _Args(fields)


def _stdout(text: str) -> None:
    """Write text to stdout; a stdout that is gone is a usage error."""
    if sys.stdout is None:  # fd 1 was closed when the process started
        raise _UsageError("cannot write stdout: Bad file descriptor")
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write stdout: {exc.strerror}") from exc


def _write(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not args.output:
        _stdout(text)
        return
    try:
        with open(args.output, "w") as out:
            out.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from exc


def _emit(args, payload, header, rows) -> None:
    """The one table writer: payload as JSON, or header and rows as CSV."""
    _write(args, dumps(payload) if args.format == "json" else csv_text(header, rows))


def _run_spectrum(args) -> int:
    from ballspec import spectrum
    table = spectrum.enumerate_spectrum(args.d, args.bc, args.lambda_max)
    _write(args, table.to_json() if args.format == "json" else table.to_csv())
    return 0


def _run_zeros(args) -> int:
    from ballspec import zeros
    if args.count is not None and args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    if not 1e-15 <= args.tol <= 1e-2:  # echoed only: no zero depends on it
        raise _UsageError(
            f"tol={args.tol!r} outside supported range [1e-15, 1e-2]")
    ms = [args.m] if args.m is not None else range(1, (args.count or 5) + 1)
    bc = zeros._coerce_bc(args.bc)
    rows = []
    for m in ms:
        z = zeros.find_zero(bc, args.l, args.d, m)
        rows.append((m, z, z * z))
    payload = {
        "d": args.d,
        "bc": bc.value,
        "l": args.l,
        "tol": args.tol,
        "zeros": [{"m": m, "zero": z, "lambda": lam} for m, z, lam in rows],
    }
    _emit(args, payload, ("m", "zero", "lambda"), rows)
    return 0


def _run_courant(args) -> int:
    from ballspec import courant
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


def _check_dims(args) -> None:
    """pleijel's dimensions, checked under their flag's name: --gamma D
    needs D >= 2, --table and --curve A B need 2 <= A <= B."""
    if args.gamma is not None:
        if args.gamma < 2:
            raise _UsageError(f"--gamma must be >= 2, got {args.gamma}")
        return
    flag, (a, b) = (("--table", args.table) if args.table is not None
                    else ("--curve", args.curve))
    if a < 2:
        raise _UsageError(f"{flag} A must be >= 2, got {a}")
    if b < a:
        raise _UsageError(f"{flag} B {b} is below A {a}")


def _run_pleijel(args) -> int:
    from ballspec import pleijel
    _check_dims(args)
    if args.gamma is not None:
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
    from ballspec import pleijel
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
    from ballspec import selfcheck
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
        try:
            args = _parse(argv)
        except _Help:
            _stdout(__doc__)
            return 0
        if args.verbose:
            print(f"ballspec {__version__}", file=sys.stderr)
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
    """Run sys.argv's command, then end the process with its exit code.

    stdout and stderr are flushed, then os._exit skips the interpreter's
    teardown: the atexit handlers, module cleanup and the freeing of every
    cached ladder and zero, which compute nothing after the last byte is
    written. An --output file is already closed by then. A stdout that
    fails at this flush is a usage error, unless the job had already failed:
    a failed write leaves its bytes buffered, so the flush fails again."""
    import os  # loaded at interpreter start, so this import costs nothing
    code = run(sys.argv[1:])
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code == 0:
                print(f"usage error: cannot write stdout: {exc.strerror}",
                      file=sys.stderr)
                code = 1
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass  # nowhere is left to report it
    os._exit(code)


if __name__ == "__main__":
    main()
