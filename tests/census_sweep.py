"""The census sign sweep: the grid signs of the keys whose first zero
provably lies in the box, hashed.

A census walks the grid of its key's parity from the key's bound,
``zeros._first_zero_lower``, and reads one sign, ``bessel._grid_sign``, at
each grid point past it. The sweep reads that sign at every such (key,
grid point) pair of the 34,410 keys of ``tests/_box.census_keys`` (the J
orders twice_nu < 370, the Neumann l = 0 ones included, and the Neumann
keys l >= 1 of the same orders), 2,282,673 pairs. The census can read
more: every key whose bound is at most X_MAX, J up to twice_nu 378 and
Neumann l >= 1 up to twice_nu 40,001, 215,510 keys and 8,789,257 signs,
7,037,677 of them below the turning point; the sweep leaves the rest
unread. A sign is +1, -1 or 0, and 0 (a sign its error bound cannot
decide) widens a census cell; the sweep expects none. Its digest is the
SHA-256 of one line a key, in that key order: ``l twice_nu `` and one
character a grid point, ``+``, ``-`` or ``0``.

The sweep takes about ten seconds, so pytest does not collect it (its name
does not match ``test_*.py``). A change to the kernel or the census runs it
from the repository root and quotes its line:

    PYTHONPATH=src python3 tests/census_sweep.py

It prints the counts and the digest, and exits 1 when any differs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ballspec import bessel, zeros  # noqa: E402

from tests import _box  # noqa: E402

COUNTS = (34410, 2282673, 0)  # keys, pairs, undecided pairs
DIGEST = "baf818caa32780a0734ecb404371646f985ceb801bcb442ec2afe9179d9bbc12"
CHAR = {1: "+", -1: "-", 0: "0"}


def sweep():
    """(keys, pairs, undecided, sha256) over the census pairs of
    _box.census_keys."""
    keys = _box.census_keys()
    h = hashlib.sha256()
    pairs = undecided = 0
    for l, tn in keys:
        bound = zeros._first_zero_lower((l, tn))
        signs = [bessel._grid_sign(l, tn, x)
                 for x in zeros._GRID[tn % 2] if x > bound]
        pairs += len(signs)
        undecided += signs.count(0)
        h.update(f"{l} {tn} {''.join(CHAR[s] for s in signs)}\n".encode())
    return len(keys), pairs, undecided, h.hexdigest()


def main() -> int:
    *counts, digest = sweep()
    print(f"keys {counts[0]}, pairs {counts[1]}, undecided {counts[2]}; "
          f"sha256 {digest}")
    if (tuple(counts), digest) != (COUNTS, DIGEST):
        print(f"MISMATCH: expected {COUNTS}, sha256 {DIGEST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
