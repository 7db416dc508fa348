"""Checks of tests/_box.py, the one derivation of the box's edges, against
README's table of realized lambda limits."""

from __future__ import annotations

import re
from pathlib import Path

from tests import _box

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_limits_are_the_derived_ones():
    # README's table of realized lambda limits: the census reads no order
    # cap, so no cutoff up to LAMBDA_MAX is refused, for either boundary
    # condition, in any d (tests/test_spectrum.py enumerates them)
    rows = re.findall(r"^\| (Dirichlet|Neumann) \| (.+?) \| (.+?) \| (.+?) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    assert rows == [(bc, "d ≥ 2", f"{_box.LAMBDA_MAX:,}", "none")
                    for bc in ("Dirichlet", "Neumann")]
