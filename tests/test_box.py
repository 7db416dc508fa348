"""Checks of tests/_box.py, the one derivation of the box's edges, against
README's table of realized lambda limits and its last order served."""

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


def test_readme_order_edge_is_the_derived_one():
    # README's last order served at x = 200: past it DLMF 10.14.4's bound
    # on |J_nu(200)| lies below the kernel's 2^-931 floor
    [nu] = re.findall(r"no order past ν = (\d+) is served",
                      README.read_text(encoding="utf-8").replace("\n", " "))
    assert int(nu) == _box.last_order(_box.X_MAX) // 2 == 689
