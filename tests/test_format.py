"""The shared writers: one CSV layout and one JSON layout."""

from __future__ import annotations

import json
import math
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballspec._format import csv_text, dumps, format_float
from tests import _internals


def test_csv_cells():
    text = csv_text(("a", "b", "c", "d"), [(1, 0.1, None, "x"), (2, 1.0, 3, "")])
    assert text == "a,b,c,d\n1,0.10000000000000001,,x\n2,1,3,\n"
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert csv_text(("a", "b"), []) == "a,b\n"


def test_json_is_indented_by_two_spaces():
    payload = {"x": [1, 0.5], "y": {}, "z": None}
    assert dumps(payload) == (
        '{\n  "x": [\n    1,\n    0.5\n  ],\n  "y": {},\n  "z": null\n}'
    )
    assert json.loads(dumps(payload)) == payload


# ---------------------------------------------------------------------------
# dumps against a reference: the plain recursive emitter, an isinstance
# chain with one json.dumps per string, byte for byte and error for error


def reference_dumps(obj) -> str:
    out: list[str] = []
    _reference_emit(obj, out, 0)
    return "".join(out)


def _reference_emit(obj, out: list[str], depth: int) -> None:
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
        _reference_seq(
            [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()],
            "{", "}", out, depth,
        )
    elif isinstance(obj, (list, tuple)):
        _reference_seq([("", v) for v in obj], "[", "]", out, depth)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _reference_seq(items, open_ch: str, close_ch: str, out: list[str],
                   depth: int) -> None:
    if not items:
        out.append(open_ch + close_ch)
        return
    pad = "  " * (depth + 1)
    out.append(open_ch + "\n")
    first = True
    for prefix, value in items:
        if not first:
            out.append(",\n")
        first = False
        out.append(pad + prefix)
        _reference_emit(value, out, depth + 1)
    out.append("\n" + "  " * depth + close_ch)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


_Pair = namedtuple("_Pair", "a b")

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers().map(_Int),
    st.floats(), st.floats(allow_nan=False).map(_Float),
    st.text(), st.text().map(_Str),
    st.sampled_from([set(), b"x", 1j]),  # no JSON form: TypeError
)
KEYS = st.one_of(st.text(max_size=8), st.sampled_from(["d", "zero", "lhs"]),
                 st.integers(), st.booleans(), st.floats(allow_nan=False))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(_Dict),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=40,
)


def _outcome(dump, obj):
    try:
        return dump(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_dumps_matches_the_reference_emitter(payload):
    assert _outcome(dumps, payload) == _outcome(reference_dumps, payload)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dumps_refuses_non_finite_floats(bad):
    for payload in (bad, [1.0, bad], {"x": {"y": bad}}):
        with pytest.raises(ValueError, match="non-finite float in output"):
            dumps(payload)


def test_dumps_nests_past_the_indent_table():
    payload = [1.5]
    for _ in range(40):
        payload = {"k": [payload]}
    assert dumps(payload) == reference_dumps(payload)
    assert json.loads(dumps(payload)) == json.loads(reference_dumps(payload))


def test_encode_str_matches_json_on_every_code_point():
    # in runs of 4096, surrogates and the characters past the BMP included
    for start in range(0, 0x110000, 0x1000):
        run = "".join(map(chr, range(start, start + 0x1000)))
        assert (_internals.encode_str(run)
                == json.encoder.encode_basestring_ascii(run))
