"""Checks of tests/_box.py, the one derivation of the box's edges: the
literal edges the tests wrote at cap 240, and README's table of realized
lambda limits."""

from __future__ import annotations

import re
from pathlib import Path

from tests import _box

README = Path(__file__).resolve().parents[1] / "README.md"


def test_pinned_edges_are_the_derivation_at_cap_240():
    # every literal edge the tests carried is the derivation at its cap,
    # whatever the cap is now
    assert _box.derived(_box.PINNED_CAP) == _box.PINNED


def _dims(text: str) -> list[int]:
    """The d of a README row: "2 ≤ d ≤ 266", "d ≥ 2" (checked up to d =
    1000), or a list such as "300 / 380" or "480, 481"."""
    if m := re.fullmatch(r"(\d+) ≤ d ≤ (\d+)", text):
        return list(range(int(m[1]), int(m[2]) + 1))
    if m := re.fullmatch(r"d ≥ (\d+)", text):
        return list(range(int(m[1]), 1001))
    return [int(d) for d in re.split(r", | / ", text)]


def _values(text: str, dims: list[int]) -> list:
    """A README column's lambda for each d: "40,000", "35,398 / 21,878"
    (one per d), "d − 2", or "none"; a parenthesis is a remark."""
    parts = re.sub(r" \(.*\)", "", text).split(" / ")
    if len(parts) == 1:
        parts *= len(dims)
    assert len(parts) == len(dims), text
    values = []
    for part, d in zip(parts, dims):
        if part == "none":
            values.append(None)
        elif m := re.fullmatch(r"d − (\d+)", part):
            values.append(d - int(m[1]))
        else:
            values.append(int(part.replace(",", "")))
    return values


def test_readme_limits_are_the_derived_ones():
    # each row of README's table is the derivation at every d it names
    rows = re.findall(r"^\| (Dirichlet|Neumann) \| (.+?) \| (.+?) \| (.+?) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    assert len(rows) == 5
    for bc, text, inside, limit in rows:
        dims = _dims(text)
        for d, lo, hi in zip(dims, _values(inside, dims),
                             _values(limit, dims), strict=True):
            assert _box.edge(bc.lower(), d)[:2] == (lo, hi), (bc, d)
