"""The zero sweep: every radial zero of a chosen range of degrees, hashed.

The sweep is both boundary conditions, d = 2..240 and l = 0..(240 - d)//2,
the degrees whose order twice_nu = 2l + d - 2 is at most 238, a range
chosen once and kept, as the digest pins it; each is enumerated by
``radial_zeros(bc, l, d, 200.0)``: 28,800 rows and 859,180 entries, of
which 858,941 are positive zeros (the rest are the Neumann l = 0 zeros at
r = 0). Its digest is the SHA-256 of ``repr`` of the list of
``(LABEL[bc], d, l, zeros)``, in that loop order; LABEL keeps the names
the digest was first taken with.

It also counts the refinements (each census zero refined, not read from
the census cache), 493,427, and those that take more than one fixed-point
certification pass, 36: bessel._grid_series hands each refinement its
value, which is called once a pass. A float phase that hands over worse
floats shows in that count while the digest holds.

The sweep takes about 70 s of CPU (69-73 s on a 2-vCPU x86 box with
Python 3.11), so pytest does not collect it (its name does not match
``test_*.py``); ``tests/test_ledger.py`` pins a smaller check set in
tier-1. A change to the kernel or the census runs it
from the repository root and quotes its line:

    PYTHONPATH=src python3 tests/ledger_sweep.py

It prints the counts and the digest, and exits 1 when any differs.
"""

from __future__ import annotations

import hashlib
import sys

from ballspec import bessel, zeros
from ballspec.zeros import BoundaryCondition

D_TOP = 240  # the chosen range: twice_nu = 2l + d - 2 <= D_TOP - 2
X_MAX = 200.0
COUNTS = (28800, 859180, 858941)  # rows, entries, positive zeros
PASSES = (493427, 36)  # refinements, and those past one pass
DIGEST = "c849ccddff3f8cda20e8d2afdf37195f675517a263d5e08c02bb44b1e7c23700"
# each boundary condition's label in the digests of this sweep and of
# tests/test_ledger.py
LABEL = {BoundaryCondition.DIRICHLET: "DIRICHLET_XI",
         BoundaryCondition.NEUMANN: "NEUMANN_XI_PRIME"}


def sweep() -> list:
    return [(LABEL[bc], d, l, zeros.radial_zeros(bc, l, d, X_MAX))
            for bc in BoundaryCondition
            for d in range(2, D_TOP + 1)
            for l in range((D_TOP - d) // 2 + 1)]


def counting_passes(passes: list):
    """bessel._grid_series, counting in passes[0] the refinements and in
    passes[1] those whose value is called more than once."""
    real = bessel._grid_series

    def grid_series(*args):
        jet, value = real(*args)
        passes[0] += 1
        calls = 0

        def counted(z):
            nonlocal calls
            calls += 1
            passes[1] += calls == 2
            return value(z)

        return jet, counted

    return grid_series


def main() -> int:
    passes = [0, 0]
    bessel._grid_series = counting_passes(passes)
    rows = sweep()
    counts = (len(rows), sum(len(zs) for *_, zs in rows),
              sum(z > 0.0 for *_, zs in rows for z in zs))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    print(f"rows {counts[0]}, entries {counts[1]}, positive zeros "
          f"{counts[2]}; refinements {passes[0]}, past one pass "
          f"{passes[1]}; sha256 {digest}")
    if (counts, tuple(passes), digest) != (COUNTS, PASSES, DIGEST):
        print(f"MISMATCH: expected {COUNTS}, {PASSES}, sha256 {DIGEST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
