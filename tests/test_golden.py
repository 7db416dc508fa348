"""Golden CLI outputs: the SHA-256 of stdout and the exit code of cheap argv.

The argv and their digests are GOLDEN in tests/_cli.py. A change that is
meant to keep the program's behaviour must keep every digest there.

Below them, the kernel's one Miller ladder is pinned bit for bit: the
SHA-256 of ``repr`` of ``(J_nu, J_{nu+1}, abs_err)`` from the ladder's
reader at one pair, which eval_J and eval_J_pair share
(``_internals.eval_miller``), on the fixed grid KERNEL_POINTS of
tests/_internals.py. The grid covers integer and half-integer orders,
small x at high order and x up to 200, plus three points where the last
bit of the error bound rests on how the integer normalizer's cancellation
ratio is rounded. The reader is pinned the same way on a second grid,
SERIES_POINTS, the region where an ascending series could serve: small
orders for x <= 14, and high orders at the edge of that region, x = 1.5 nu
or, past twice_nu = 48, the x where an ascending series would lose about
e^30 to cancellation.
"""

from __future__ import annotations

import hashlib

import pytest

from ballspec import cli

from tests import _internals
from tests._cli import GOLDEN


@pytest.mark.parametrize("argv,want_rc,want_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_stdout_digest_and_exit_code(capsys, argv, want_rc, want_sha):
    rc = cli.run(argv.split())
    out = capsys.readouterr().out
    assert rc == want_rc
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


KERNEL_GOLDEN = [
    ("_eval_miller", _internals.eval_miller,
     "06ab9fd881556da5ca56c44b16f710ee66bda377ff85eb04e92e4b9aa536d84f"),
]


@pytest.mark.parametrize("name,ladder,want_sha", KERNEL_GOLDEN,
                         ids=[g[0] for g in KERNEL_GOLDEN])
def test_miller_ladder_bits(name, ladder, want_sha):
    text = "\n".join(repr(tuple(ladder(tn, x)))
                     for tn, x in _internals.KERNEL_POINTS)
    assert hashlib.sha256(text.encode()).hexdigest() == want_sha


SERIES_GOLDEN = (
    "71de329bc1dec934cc2d169020b0a52657a30338f57948cadc963100d81e4536")


def test_miller_bits_on_series_grid():
    text = "\n".join(repr(_internals.eval_miller(tn, x))
                     for tn, x in _internals.SERIES_POINTS)
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES_GOLDEN
