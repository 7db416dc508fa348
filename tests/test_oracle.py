"""Validate the extended-precision oracle itself.

The oracle is the reference everything else is tested against, so it gets
its own independent checks: half-integer closed forms, agreement with
mpmath's besselj/besseljzero (a different algorithm), exact sine zeros,
internal precision scaling, and freshness of the frozen constant tables.
"""

from __future__ import annotations

import mpmath as mp
import pytest

from tests import _frozen, _oracle


def mpf_rel_diff(a, b):
    with mp.workdps(60):
        b = mp.mpf(b)
        if b == 0:
            return abs(mp.mpf(a))
        return abs((mp.mpf(a) - b) / b)


def test_half_integer_closed_form_sin():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    for x in ("0.7", "3.0", "14.25", "63.5", "199.5"):
        got = _oracle.oracle_J(1, x)
        with mp.workdps(160):
            xm = mp.mpf(x)
            want = mp.sqrt(2 / (mp.pi * xm)) * mp.sin(xm)
        assert mpf_rel_diff(got, want) < mp.mpf("1e-45")


def test_half_integer_closed_form_j32():
    # J_{3/2}(x) = sqrt(2/(pi x)) (sin x / x - cos x)
    for x in ("1.1", "4.4934", "88.0"):
        got = _oracle.oracle_J(3, x)
        with mp.workdps(160):
            xm = mp.mpf(x)
            want = mp.sqrt(2 / (mp.pi * xm)) * (mp.sin(xm) / xm - mp.cos(xm))
        assert mpf_rel_diff(got, want) < mp.mpf("1e-45")


@pytest.mark.parametrize(
    "twice_nu,x",
    [
        (0, "0.3"),
        (0, "14"),
        (0, "199.5"),
        (1, "2.5"),
        (14, "7.5"),
        (41, "33.3"),
        (120, "80.0"),
        (240, "121.0"),
        (240, "199.0"),
        (240, "0.9"),
    ],
)
def test_oracle_matches_mpmath_besselj(twice_nu, x):
    # pass the string so each side converts at its own working precision;
    # both then see the identical real argument
    got = _oracle.oracle_J(twice_nu, x)
    with mp.workdps(160):
        want = mp.besselj(mp.mpf(twice_nu) / 2, mp.mpf(x))
    assert mpf_rel_diff(got, want) < mp.mpf("1e-45")


def test_sine_zeros_exact():
    # zeros of J_{1/2} are m*pi
    for m in (1, 2, 5):
        z = _oracle.oracle_bessel_zero(1, m)
        with mp.workdps(60):
            assert abs(z - m * mp.pi) < mp.mpf("1e-48") * m


@pytest.mark.parametrize("twice_nu,m", [(0, 1), (0, 2), (2, 1), (3, 1), (8, 1)])
def test_oracle_zero_matches_mpmath(twice_nu, m):
    got = _oracle.oracle_bessel_zero(twice_nu, m)
    with mp.workdps(80):
        want = mp.besseljzero(mp.mpf(twice_nu) / 2, m)
    assert mpf_rel_diff(got, want) < mp.mpf("1e-45")


@pytest.mark.parametrize("l,m", [(1, 1), (1, 2), (3, 1)])
def test_oracle_neumann_zero_disc_matches_mpmath(l, m):
    # for d=2 the positive Neumann zeros are the zeros of J'_l
    got = _oracle.oracle_neumann_zero(l, 2, m)
    with mp.workdps(80):
        want = mp.besseljzero(l, m, derivative=1)
    assert mpf_rel_diff(got, want) < mp.mpf("1e-45")


def test_oracle_neumann_zero_ball_matches_independent_root():
    # d=3, l=1: zero of d/dr [ r^(-1/2) J_{3/2}(r) ], found independently
    got = _oracle.oracle_neumann_zero(1, 3, 1)
    with mp.workdps(80):
        f = lambda r: mp.diff(lambda t: t ** mp.mpf("-0.5") * mp.besselj(mp.mpf("1.5"), t), r)
        want = mp.findroot(f, mp.mpf("2.08"))
    assert mpf_rel_diff(got, want) < mp.mpf("1e-40")


def test_neumann_l0_convention():
    assert _oracle.oracle_neumann_zero(0, 2, 1) == 0
    # positive zeros for l=0 are the zeros of J_{d/2}
    got = _oracle.oracle_neumann_zero(0, 2, 2)
    want = _oracle.oracle_bessel_zero(2, 1)
    assert mpf_rel_diff(got, want) < mp.mpf("1e-48")


def test_frozen_tables_are_fresh():
    # spot-check each frozen table against a fresh oracle run
    samples = [
        (_frozen.BESSEL_ZEROS[(0, 1)], _oracle.oracle_bessel_zero(0, 1)),
        (_frozen.BESSEL_ZEROS[(3, 1)], _oracle.oracle_bessel_zero(3, 1)),
        (_frozen.BESSEL_DERIV_ZEROS[(2, 1)], _oracle.oracle_neumann_zero(1, 2, 1)),
        (_frozen.BESSEL_VALUES[(0, "14")], _oracle.oracle_J(0, mp.mpf("14"))),
        (_frozen.NEUMANN_ZEROS_D3[(1, 1)], _oracle.oracle_neumann_zero(1, 3, 1)),
        (_frozen.GAMMA_VALUES[3], _oracle.oracle_gamma(3)),
    ]
    for frozen_str, fresh in samples:
        assert mpf_rel_diff(fresh, frozen_str) < mp.mpf("1e-45")


def test_gamma_closed_forms():
    g2 = _oracle.oracle_gamma(2)
    g3 = _oracle.oracle_gamma(3)
    with mp.workdps(80):
        j01 = mp.mpf(_frozen.BESSEL_ZEROS[(0, 1)])
        assert mpf_rel_diff(g2, 4 / j01**2) < mp.mpf("1e-45")
        assert mpf_rel_diff(g3, 9 / (2 * mp.pi**2)) < mp.mpf("1e-45")


def test_precision_scaling_at_cancellation_heavy_point():
    # x = 199.5 cancels ~87 digits against the largest series term; the
    # adaptive guard must absorb it at both requested precisions
    lo = _oracle.oracle_J(0, mp.mpf("199.5"), dps=50)
    hi = _oracle.oracle_J(0, mp.mpf("199.5"), dps=80)
    assert mpf_rel_diff(lo, hi) < mp.mpf("1e-48")


def test_xi_radial_proportionality():
    # Xi_0 for d=3 is proportional to sin(r)/r
    vals = []
    for r in ("0.5", "1.0", "2.0"):
        with mp.workdps(80):
            rm = mp.mpf(r)
            vals.append(_oracle.oracle_xi(0, 3, rm) * rm / mp.sin(rm))
    assert mpf_rel_diff(vals[0], vals[1]) < mp.mpf("1e-45")
    assert mpf_rel_diff(vals[1], vals[2]) < mp.mpf("1e-45")


def test_xi_prime_two_recursions_agree():
    # l/r Xi_l - Xi_{l+1}  vs  -(l+d-2)/r Xi_l + Xi_{l-1}  (l >= 1)
    l, d = 2, 3
    with mp.workdps(80):
        for r in ("1.3", "6.7"):
            rm = mp.mpf(r)
            a = _oracle.oracle_xi_prime(l, d, rm)
            xi_l = _oracle.oracle_xi(l, d, rm)
            xi_lm1 = _oracle.oracle_xi(l - 1, d, rm)
            b = -mp.mpf(l + d - 2) / rm * xi_l + xi_lm1
            assert mpf_rel_diff(a, b) < mp.mpf("1e-40")
