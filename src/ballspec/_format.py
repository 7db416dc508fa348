"""Deterministic serialization: the one place that knows the output formats.

Floats are rendered with ``%.17g`` (17 significant digits, round-trip
exact), so identical inputs always produce byte-identical JSON and CSV.
JSON is always indented by two spaces; CSV is a header line plus one line
per row, with no quoting (no cell the program writes holds a comma).
"""

from __future__ import annotations

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
    """JSON-encode dicts/lists/scalars with %.17g float rendering.

    One pass: the exact types the program writes are dispatched by
    ``type(o) is``, before the isinstance chain that serves subclasses
    (bool before int); each string and key is encoded once a call."""
    out: list[str] = []
    put = out.append
    strings: dict = {}  # str -> its JSON
    keys: dict = {}  # str key -> its JSON and ": "

    def emit(o, depth: int) -> None:
        kind = type(o)
        if kind is float:
            # o - o is nan for inf and nan: format_float refuses them
            put("%.17g" % o if o - o == 0.0 else format_float(o))
        elif kind is str:
            text = strings.get(o)
            if text is None:
                text = strings[o] = _encode_str(o)
            put(text)
        elif kind is dict or kind is list or kind is tuple:
            items(o, kind is dict, depth)
        elif kind is int:
            put(str(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, str):
            put(_encode_str(o))
        elif isinstance(o, int):
            put(str(o))
        elif isinstance(o, float):
            put(format_float(o))
        elif isinstance(o, (dict, list, tuple)):
            items(o, isinstance(o, dict), depth)
        else:
            raise TypeError(f"cannot serialize {type(o).__name__} to JSON")

    def items(o, is_dict: bool, depth: int) -> None:
        if not o:
            put("{}" if is_dict else "[]")
            return
        pad = _pad(depth + 1)
        sep, comma = ("{" if is_dict else "[") + pad, "," + pad
        if is_dict:
            for k, v in o.items():
                key = keys.get(k) if type(k) is str else None
                if key is None:
                    key = _encode_str(str(k)) + ": "
                    if type(k) is str:
                        keys[k] = key
                put(sep + key)
                emit(v, depth + 1)
                sep = comma
        else:
            for v in o:
                put(sep)
                emit(v, depth + 1)
                sep = comma
        put(_pad(depth) + ("}" if is_dict else "]"))

    emit(obj, 0)
    return "".join(out)


# JSON string escapes of the ASCII characters, as json.dumps writes them:
# the short forms, else \u00XX for the control characters and DEL
_ASCII_ESCAPES = {i: "\\u%04x" % i for i in (*range(0x20), 0x7F)}
_ASCII_ESCAPES.update(
    {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _escape_wide(c: str) -> str:
    """\\uXXXX of a non-ASCII character; past the BMP, a surrogate pair."""
    n = ord(c)
    if n < 0x10000:
        return "\\u%04x" % n
    hi, lo = divmod(n - 0x10000, 0x400)
    return "\\u%04x\\u%04x" % (0xD800 + hi, 0xDC00 + lo)


def _encode_str(s: str) -> str:
    """A str as json.dumps writes it (ensure_ascii): quoted and escaped."""
    s = s.translate(_ASCII_ESCAPES)
    if not s.isascii():
        s = "".join(c if c.isascii() else _escape_wide(c) for c in s)
    return '"' + s + '"'


_PADS = ["\n" + _INDENT * depth for depth in range(16)]


def _pad(depth: int) -> str:
    """A newline and the indent of the given depth."""
    return _PADS[depth] if depth < len(_PADS) else "\n" + _INDENT * depth
