"""The zero ledger: every radial zero of a fixed check set, pinned.

The check set is both boundary conditions, d in {2, 3, 5, 30, 120, 238}
and l = 0..11, each enumerated by ``radial_zeros(bc, l, d, 199.9)``: 6,847
zeros, and no refusal, as every pair order lies in the kernel box. Its
digest is the SHA-256 of ``repr`` of the list of
``(LABEL[bc], d, l, zeros or the RangeError text)``, with the labels of
``tests/ledger_sweep.py``.

A change that is meant to keep every zero must keep the digest. A change
that means to move a zero updates it and lists each moved zero, with its
distance in ulps, in CHANGES.md.

Beside the digest, a fixed sample of ledger zeros, spread over both conditions,
every d and a range of l and m, is checked against the mpmath oracle: each
is the float nearest its zero.
"""

from __future__ import annotations

import hashlib

import pytest

from ballspec import zeros
from ballspec.errors import RangeError
from ballspec.zeros import BoundaryCondition

from tests import _box
from tests._internals import assert_nearest_float, cold
from tests.ledger_sweep import LABEL

DIMS = (2, 3, 5, 30, 120, 238)
DEGREES = range(12)
X_MAX = 199.9
DIGEST = "9f7e48cc1ffc72ed02e94d4b06cd3fcd60203f69f9007b4982d42eca0440d925"
SAMPLE_STRIDE = 33  # every 33rd positive zero: 208 of the 6,841


@pytest.fixture(scope="module")
def ledger():
    cold()
    rows = []
    for bc in BoundaryCondition:
        for d in DIMS:
            for l in DEGREES:
                try:
                    got = zeros.radial_zeros(bc, l, d, X_MAX)
                except RangeError as err:
                    got = str(err)
                rows.append((LABEL[bc], d, l, got))
    return rows


def test_ledger_digest(ledger):
    zs = [z for *_, got in ledger if isinstance(got, list) for z in got]
    refused = [row for row in ledger if isinstance(row[3], str)]
    assert (len(zs), refused) == (6847, [])
    assert hashlib.sha256(repr(ledger).encode()).hexdigest() == DIGEST


def _sample(ledger):
    """(bc, l, d, m, z) of every SAMPLE_STRIDE-th positive ledger zero,
    in ledger order; m counts as find_zero counts."""
    bc_of = {label: bc for bc, label in LABEL.items()}
    flat = [(bc_of[label], l, d, m, z)
            for label, d, l, got in ledger if isinstance(got, list)
            for m, z in enumerate(got, 1) if z > 0.0]
    return flat[::SAMPLE_STRIDE]


def test_sample_zeros_are_nearest_floats(ledger):
    sample = _sample(ledger)
    assert 190 <= len(sample) <= 210
    assert {bc for bc, *_ in sample} == set(BoundaryCondition)
    assert {d for _, _, d, _, _ in sample} == set(DIMS)
    assert {l for _, l, *_ in sample} == set(DEGREES)
    assert max(m for *_, m, _ in sample) > 50
    for bc, l, d, m, z in sample:
        key = _box.census_key(bc.value.lower(), l, d)
        assert z == zeros.find_zero(bc, l, d, m)
        assert_nearest_float(*key, z)
