"""The zero sweep: every radial zero of the order box, hashed.

The sweep is both boundary conditions, d = 2..240 and l = 0..(240 - d)//2
(every degree whose pair order stays in the kernel box), each enumerated by
``radial_zeros(bc, l, d, 200.0)``: 28,800 rows and 859,180 entries, of
which 858,941 are positive zeros (the rest are the Neumann l = 0 zeros at
r = 0). Its digest is the SHA-256 of ``repr`` of the list of
``(LABEL[bc], d, l, zeros)``, in that loop order; LABEL keeps the names
the digest was first taken with.

The sweep takes about two minutes of CPU, so pytest does not collect it
(its name does not match ``test_*.py``); ``tests/test_ledger.py`` pins a
smaller check set in tier-1. A change to the kernel or the census runs it
from the repository root and quotes its line:

    PYTHONPATH=src python3 tests/ledger_sweep.py

It prints the counts and the digest, and exits 1 when either differs.
"""

from __future__ import annotations

import hashlib
import sys

from ballspec import zeros
from ballspec.zeros import BoundaryCondition

D_TOP = 240  # d = 240 at l = 0 is the highest pair order, twice_nu = 238
X_MAX = 200.0
COUNTS = (28800, 859180, 858941)  # rows, entries, positive zeros
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


def main() -> int:
    rows = sweep()
    counts = (len(rows), sum(len(zs) for *_, zs in rows),
              sum(z > 0.0 for *_, zs in rows for z in zs))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    print(f"rows {counts[0]}, entries {counts[1]}, positive zeros "
          f"{counts[2]}; sha256 {digest}")
    if (counts, digest) != (COUNTS, DIGEST):
        print(f"MISMATCH: expected {COUNTS}, sha256 {DIGEST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
