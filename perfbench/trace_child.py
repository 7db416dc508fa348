"""Run one ballspec CLI job in this process with every layer's public
functions wrapped in timing spans, from outside the program.

Usage: python trace_child.py ARGV...   (with ballspec importable)

Each wrapper replaces the attribute its callers look up, so a call made
through ``courant.enumerate_spectrum`` (imported by name) is timed as well
as one through ``spectrum.enumerate_spectrum``. Spans are kept in memory
as [name, start, end, parent index, info] and written out at exit: stdout
receives one JSON header line (import time, exit code, spans) followed by
the CLI's own stdout, byte for byte.
"""

import sys
import time

# ballspec is imported before anything it imports itself (json, functools),
# so that the import time includes theirs
perf = time.perf_counter
_t0 = perf()
import ballspec.cli  # noqa: E402

IMPORT_S = perf() - _t0

import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from ballspec import bessel  # noqa: E402

_spans: list[list] = []
_stack: list[int] = [-1]


def _kernel_info(args, result):
    # the kernel's own routing predicate: the series only when it is safe
    # for both orders of the pair, else the Miller ladder
    tn, x = args[0].twice_nu, float(args[1])
    series = bessel._use_series(tn, x) and bessel._use_series(tn + 2, x)
    return ["series" if series else "miller",
            max(result[0].est_rel_err, result[1].est_rel_err)]


def _certificate_info(args, cert):
    margins = [(c.rhs - c.lhs) / max(abs(c.lhs), abs(c.rhs))
               for c in cert.checks if c.kind == "strict_less"]
    return [len(cert.checks), min(margins)]


def _wrap(owner, attr: str, name: str, info=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        span = [name, perf(), 0.0, _stack[-1], None]
        _stack.append(len(_spans))
        _spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf()
            _stack.pop()
        if info is not None:
            span[4] = info(args, result)
        return result

    setattr(owner, attr, timed)


def _instrument() -> None:
    from ballspec import _format, cli, courant, pleijel, spectrum, zeros

    _wrap(bessel, "eval_J_pair", "bessel.eval_J_pair", _kernel_info)
    for fn in ("bessel_zero", "dirichlet_zero", "neumann_zero"):
        _wrap(zeros, fn, f"zeros.{fn}")
    for owner in (spectrum, courant):
        _wrap(owner, "enumerate_spectrum", "spectrum.enumerate_spectrum",
              lambda args, table: len(table.records))
    _wrap(courant, "courant_sharp_ball", "courant.courant_sharp_ball",
          lambda args, verdicts: len(verdicts))
    _wrap(pleijel, "gamma_table", "pleijel.gamma_table")
    _wrap(pleijel, "quotient_curve", "pleijel.quotient_curve")
    _wrap(pleijel, "monotonicity_certificate",
          "pleijel.monotonicity_certificate", _certificate_info)
    # serializers, including the per-value float formatting of the CLI's
    # inline CSV writers
    for owner, attr in ((_format, "dumps"), (cli, "dumps"), (pleijel, "dumps"),
                        (spectrum.SpectrumTable, "to_json"),
                        (spectrum.SpectrumTable, "to_csv"),
                        (pleijel, "curve_to_plot_json"), (cli, "format_float")):
        _wrap(owner, attr, f"format.{attr}")
    _wrap(cli, "run", "cli.run")


def main(argv: list[str]) -> int:
    _instrument()
    real_stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        rc = ballspec.cli.run(argv)
    finally:
        captured, sys.stdout = sys.stdout.getvalue(), real_stdout
    header = json.dumps({"import_s": IMPORT_S, "rc": rc, "spans": _spans},
                        separators=(",", ":"))
    out = sys.stdout.buffer
    out.write(header.encode() + b"\n" + captured.encode("utf-8"))
    out.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
