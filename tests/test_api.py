"""The public surface: the package's names and its record types.

``ballspec`` loads its compute modules on first access, so every name in
``__all__`` must still resolve, and ``from ballspec import *`` must still
work. The records are immutable value types: they keep their repr, refuse
attribute assignment, hash and compare by value, and refuse bad fields
with the same error class and message.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest

import ballspec
from ballspec import courant, pleijel, zeros
from ballspec.bessel import EvalResult, Order, eval_J, eval_J_pair
from ballspec.errors import CertificateFailure, LossOfPrecision, RangeError
from ballspec.pleijel import Check
from ballspec.spectrum import BoundaryCondition, EigenvalueRecord

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_public_name_resolves():
    for name in ballspec.__all__:
        assert getattr(ballspec, name) is not None, name
    assert ballspec.zeros.find_zero is not None
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ballspec.nope  # noqa: B018


def test_star_import_in_a_fresh_interpreter():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from ballspec import *; "
            "print(sorted(n for n in dir() if not n.startswith('_') "
            "and n != 'sys'))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    public = sorted(n for n in ballspec.__all__ if not n.startswith("_"))
    assert proc.stdout.strip() == repr(public)


RECORDS = [
    (Order, (7,), "Order(twice_nu=7)"),
    (EvalResult, (0.5, 1e-16),
     "EvalResult(value=0.5, est_rel_err=1e-16)"),
    (EigenvalueRecord, (2, BoundaryCondition.DIRICHLET, 1, 1, 3.0, 9.0, 2,
                        2, 3),
     "EigenvalueRecord(d=2, bc=<BoundaryCondition.DIRICHLET: 'Dirichlet'>, "
     "l=1, m=1, zero=3.0, lam=9.0, multiplicity=2, label_first=2, "
     "label_last=3)"),
    (Check, ("demo", 1.0, 2.0),
     "Check(name='demo', lhs=1.0, rhs=2.0, kind='strict_less')"),
    (Order, (10**5000,), "Order(twice_nu=<5001 digits>)"),
]


@pytest.mark.parametrize("cls, args, text", RECORDS)
def test_record_repr_and_value_semantics(cls, args, text):
    rec, twin = cls(*args), cls(*args)
    assert repr(rec) == text
    assert twin == rec and hash(twin) == hash(rec) and twin is not rec
    assert len({rec, twin}) == 1
    field = text[len(cls.__name__) + 1:].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_record_keywords_and_defaults():
    assert Order(twice_nu=3).nu == 1.5
    assert EvalResult(value=1.0, est_rel_err=2e-16) == (1.0, 2e-16)
    assert Check("c", 1.0, 1.0, kind="equal").margin == 0.0


# an int past CPython's int-to-str limit (4,300 digits) is named by its
# digit count: 10**5000 has 5,001
BEYOND = "the supported box x <= 200.0"
HUGE = "<5001 digits>"
D_HUGE = f"Dirichlet zero m=1 of l=0, d={HUGE} lies beyond {BEYOND}"


def window(d, lmax, mmax, bc="Dirichlet"):
    """courant_sharp_ball's refusal of a window whose top mode is refused."""
    return (f"d={d} with lmax={lmax} and mmax={mmax} needs the spectrum "
            f"below the ({lmax}, {mmax}) mode: {bc} zero m={mmax} of "
            f"l={lmax}, d={d} lies beyond {BEYOND}")


@pytest.mark.parametrize("make, error, message", [
    (lambda: eval_J(Order(10**9), 200.0), LossOfPrecision,
     "|J(twice_nu=1000000000, x=200.0)| underflows the accuracy floor"),
    (lambda: eval_J(Order(10**5000), 1.0), LossOfPrecision,
     "|J(twice_nu=<5001 digits>, x=1.0)| underflows the accuracy floor"),
    (lambda: eval_J_pair(Order(10**5000), 1.0), LossOfPrecision,
     "|J(twice_nu=<5001 digits>, x=1.0)| underflows the accuracy floor"),
    (lambda: zeros.bessel_zero(Order(10**5000 - 1), 1), RangeError,
     f"zero m=1 of J_nu at twice_nu=<5000 digits> lies beyond {BEYOND}"),
    (lambda: zeros.dirichlet_zero(10**5000, 2, 1), RangeError,
     f"Dirichlet zero m=1 of l=<5001 digits>, d=2 lies beyond {BEYOND}"),
    (lambda: zeros.neumann_zero(0, 2, 10**5000), RangeError,
     f"Neumann zero m=<5001 digits> of l=0, d=2 lies beyond {BEYOND}"),
    (lambda: pleijel.gamma(10**5000), RangeError, f"gamma({HUGE}): {D_HUGE}"),
    (lambda: pleijel.gamma_table(2, 10**5000), RangeError,
     f"gamma({HUGE}): {D_HUGE}"),
    (lambda: pleijel.gamma_table(10**5000 + 1, 10**5000), RangeError,
     f"need d_min <= d_max, got {HUGE} > {HUGE}"),
    (lambda: pleijel.quotient_curve(2, 10**5000), RangeError,
     f"quotient gamma({HUGE})/gamma({HUGE}): {D_HUGE}"),
    (lambda: pleijel.monotonicity_certificate(10**5000), RangeError,
     f"certificate at d={HUGE}: {D_HUGE}"),
    (lambda: pleijel.neumann_pleijel_bound(10**5000), RangeError,
     "gamma(<5000 digits>): Dirichlet zero m=1 of l=0, d=<5000 digits> "
     f"lies beyond {BEYOND}"),
    (lambda: courant.courant_sharp_ball(10**5000, "dirichlet"), RangeError,
     window(HUGE, 8, 4)),
    (lambda: courant.courant_sharp_ball(2, "dirichlet", lmax=10**5000),
     RangeError, window(2, HUGE, 4)),
    (lambda: courant.courant_sharp_ball(2, "neumann", mmax=10**5000),
     RangeError, window(2, 8, HUGE, "Neumann")),
    (lambda: Order(10**400).nu, RangeError, "nu lies past the float range"),
    (lambda: Order(-10**5000), RangeError,
     "twice_nu must be an int >= 0, got -<5001 digits>"),
    (lambda: Order(-1), RangeError, "twice_nu must be an int >= 0, got -1"),
    (lambda: Order(True), RangeError,
     "twice_nu must be an int >= 0, got True"),
    (lambda: Check("demo", 2.0, 2.0), CertificateFailure,
     "pleijel/courant check 'demo' failed: lhs=2.0 < rhs=2.0 does not hold"),
    (lambda: Check("demo", 1.0, 2.0, "maybe"), RangeError,
     "unknown check kind 'maybe'"),
    (lambda: Check("demo", math.nan, 2.0), CertificateFailure,
     "pleijel/courant check 'demo': non-finite side (lhs=nan, rhs=2.0)"),
    (lambda: EigenvalueRecord(2, BoundaryCondition.NEUMANN, 1, 1, 3.0, 9.5,
                              2, 2, 3), RangeError,
     "lam must equal zero**2 exactly as computed"),
    (lambda: EigenvalueRecord(2, BoundaryCondition.NEUMANN, 1, 1, 3.0, 9.0,
                              1, 2, 2), RangeError,
     "multiplicity does not match the degree formula"),
    (lambda: EigenvalueRecord(2, BoundaryCondition.NEUMANN, 1, 1, 3.0, 9.0,
                              2, 2, 4), RangeError,
     "label_last must be label_first+multiplicity-1"),
])
def test_record_validation_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
