"""Deterministic serialization: the one place that knows the output formats.

Floats are rendered with ``%.17g`` (17 significant digits, round-trip
exact), so identical inputs always produce byte-identical JSON and CSV.
JSON is always indented by two spaces; CSV is a header line plus one line
per row, with no quoting (no cell the program writes holds a comma).
"""

from __future__ import annotations

import json
import math

_INDENT = "  "


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in output: {x!r}")
    return "%.17g" % x


def csv_text(header, rows) -> str:
    """CSV lines: floats via format_float, None as an empty cell, else str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(c) if isinstance(c, float) else "" if c is None else str(c)
            for c in row
        ))
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    """JSON-encode dicts/lists/scalars with %.17g float rendering."""
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out)


def _emit(obj, out: list[str], depth: int) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        _emit_seq(
            [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()],
            "{", "}", out, depth,
        )
    elif isinstance(obj, (list, tuple)):
        _emit_seq([("", v) for v in obj], "[", "]", out, depth)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _emit_seq(items, open_ch: str, close_ch: str, out: list[str],
              depth: int) -> None:
    if not items:
        out.append(open_ch + close_ch)
        return
    pad = _INDENT * (depth + 1)
    out.append(open_ch + "\n")
    first = True
    for prefix, value in items:
        if not first:
            out.append(",\n")
        first = False
        out.append(pad + prefix)
        _emit(value, out, depth + 1)
    out.append("\n" + _INDENT * depth + close_ch)
