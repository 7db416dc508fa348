"""The shared writers: one CSV layout and one JSON layout."""

from __future__ import annotations

import json

from ballspec._format import csv_text, dumps


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
