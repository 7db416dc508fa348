"""Tests for root isolation: Bessel-J zeros, radial Dirichlet/Neumann zeros.

Frozen 50-digit reference strings live in tests/_frozen.py; fresh
cross-checks call the extended-precision oracle in tests/_oracle.py.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballspec import bessel, cli, courant, pleijel, spectrum, zeros
from ballspec.bessel import Order
from ballspec.errors import BracketFailure, RangeError
from ballspec.zeros import BoundaryCondition

from tests import _box, _counts, _frozen, _internals
from tests import _oracle as oracle
from tests._internals import (assert_nearest_float, census_key, cold,
                              next_point, oracle_target, pair_target,
                              series_scale, twin_points)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# argument validation


class TestValidation:
    # a root request is find_zero's (bc, l, d, m)
    def test_root_request_accepts_good_args(self):
        got = zeros.find_zero(BoundaryCondition.DIRICHLET, l=2, d=3, m=4)
        assert got == zeros.dirichlet_zero(2, 3, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bc="DirichletXi", l=0, d=2, m=1),
            dict(bc=BoundaryCondition.DIRICHLET, l=-1, d=2, m=1),
            dict(bc=BoundaryCondition.DIRICHLET, l=0, d=1, m=1),
            dict(bc=BoundaryCondition.DIRICHLET, l=0, d=2, m=0),
            dict(bc=BoundaryCondition.DIRICHLET, l=0, d=2, m=1.0),
            dict(bc=BoundaryCondition.DIRICHLET, l=0, d=2, m=10_000),  # past X_MAX
            # past X_MAX: Qu and Wong's bound on j_{239.5,1} lies past it
            dict(bc=BoundaryCondition.DIRICHLET, l=0, d=481, m=1),
            # bool is an int subclass, but never a degree or an index
            dict(bc=BoundaryCondition.DIRICHLET, l=True, d=2, m=1),
            dict(bc=BoundaryCondition.NEUMANN, l=False, d=2, m=2),
            dict(bc=BoundaryCondition.DIRICHLET, l=0, d=2, m=True),
            dict(bc=BoundaryCondition.NEUMANN, l=1, d=3, m=True),
            dict(bc=0, l=0, d=2, m=1),
        ],
    )
    def test_root_request_rejects_bad_args(self, kwargs):
        with pytest.raises(RangeError) as err:
            zeros.find_zero(**kwargs)
        if not isinstance(kwargs["bc"], BoundaryCondition):
            assert str(err.value) == (
                f"bc must be Dirichlet or Neumann, got {kwargs['bc']!r}")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: zeros.dirichlet_zero(True, 2, 1),
            lambda: zeros.neumann_zero(0, 3, True),
            lambda: zeros.bessel_zero(Order(0), True),
            lambda: zeros.radial_zeros(BoundaryCondition.DIRICHLET, True, 2, 10.0),
            lambda: zeros.radial_zeros(BoundaryCondition.NEUMANN, False, 3, 10.0),
            lambda: zeros.radial_zeros(BoundaryCondition.DIRICHLET, 0, True, 10.0),
            lambda: spectrum.multiplicity(True, 3),
            lambda: spectrum.multiplicity(2, True),
            lambda: spectrum.label_of(2, "dirichlet", 1, True),
            lambda: courant.courant_sharp_ball(2, "dirichlet", lmax=True),
            lambda: courant.courant_sharp_ball(2, "dirichlet", mmax=True),
            lambda: courant.sphere_labeling(True, 3),
            lambda: courant.nodal_count_disc(True, 1, "dirichlet"),
            lambda: Order.from_l_d(True, 2),
            lambda: Order(True),
            lambda: pleijel.gamma(True),
            lambda: pleijel.gamma_table(True, 3),
            lambda: pleijel.quotient_curve(2, True),
            lambda: pleijel.monotonicity_certificate(True),
            lambda: pleijel.neumann_pleijel_bound(True),
            lambda: spectrum.enumerate_spectrum(True, "dirichlet", 1.0),
            lambda: spectrum.weyl_count(True, 1.0),
            lambda: courant.sphere_courant_sharp(True),
            lambda: Order.from_l_d(0, True),
        ],
    )
    def test_bools_are_not_ints(self, call):
        with pytest.raises(RangeError):
            call()

    def test_bessel_zero_rejects_bad_args(self):
        with pytest.raises(RangeError):
            zeros.bessel_zero(1.0, 1)  # plain float is not an Order
        with pytest.raises(RangeError):
            zeros.bessel_zero(Order(0), 0)

    def test_l_d_validation(self):
        with pytest.raises(RangeError):
            zeros.dirichlet_zero(-1, 2, 1)
        with pytest.raises(RangeError):
            zeros.neumann_zero(0, 1, 1)


# ---------------------------------------------------------------------------
# the edges of the box: the census reads no order cap, so a zero request is
# refused only where its zero lies past X_MAX. Each pair of rows is one
# caller's request whose output it pins (the first ones at d = 240, 239 and
# 238) and a refused request, whose zero lies past X_MAX: past d_max, at
# the orders 479 and 481, and past the last d whose Neumann degree 1 has a
# zero in the box (tests/_box.py), where a spectrum is the ground state
# alone

E = _box.EDGES
D1 = E["last_d_of_degree_one"]


def _courant_rows(d: int) -> list:
    return [(v.record.l, v.record.m, v.status.value, v.record.label_first)
            for v in courant.courant_sharp_ball(d, "neumann", lmax=1, mmax=1)]


@pytest.mark.parametrize("call,want", [
    (lambda: [(r.d, r.gamma, r.quotient_next)
              for r in pleijel.gamma_table(240, 240)],
     [(240, 7.813247375101231e-37, None)]),
    (lambda: pleijel.gamma_table(E["d_max"] + 1, E["d_max"] + 1), RangeError),
    (lambda: pleijel.quotient_curve(239, 239), [(239, 0.7201590924083663)]),
    (lambda: pleijel.quotient_curve(E["d_max"], E["d_max"]), RangeError),
    (lambda: pleijel.monotonicity_certificate(239).check("final_lt_1").lhs,
     0.7201590924083663),
    (lambda: pleijel.monotonicity_certificate(E["d_max"]), RangeError),
    (lambda: _courant_rows(238),
     [(0, 1, "Sharp", 1), (1, 1, "Sharp", 2)]),
    (lambda: _courant_rows(D1 + 1), RangeError),  # needs the (1, 1) zero
    # past D1 every Neumann cutoff holds the ground state alone, and only a
    # cutoff past the argument box is refused
    (lambda: [(r.l, r.m, r.zero) for r in spectrum.enumerate_spectrum(
        D1 + 1, "neumann", _box.LAMBDA_MAX).records], [(0, 1, 0.0)]),
    (lambda: spectrum.enumerate_spectrum(
        D1 + 1, "neumann", _box.LAMBDA_MAX + 1), RangeError),
    (lambda: spectrum.enumerate_spectrum(481, "dirichlet", 10.0).records,
     ()),
    (lambda: zeros.neumann_zero(0, 500, 1), 0.0),  # r = 0 needs no census
    (lambda: zeros.neumann_zero(0, 500, 2), RangeError),
    (lambda: zeros.bessel_zero(Order(238), 1), 128.33786578015122),
    (lambda: zeros.bessel_zero(Order(479), 1), RangeError),
    (lambda: zeros.dirichlet_zero(0, 240, 1), 128.33786578015122),
    (lambda: zeros.dirichlet_zero(0, 481, 1), RangeError),
    (lambda: zeros.neumann_zero(1, 238, 1), 15.45989431346645),
    (lambda: zeros.neumann_zero(1, D1 + 1, 1), RangeError),
    # no census runs below the census bound on the first positive zero,
    # Qu and Wong's on j_{d/2,1}; the first zero of degree 1 at D1 lies
    # just inside the box, below the turning point
    (lambda: zeros.radial_zeros(BoundaryCondition.NEUMANN, 0, 481, 200.0),
     [0.0]),
    (lambda: zeros.radial_zeros(BoundaryCondition.NEUMANN, 1, D1,
                                _box.X_MAX), [199.99750010937638]),
    (lambda: zeros.radial_zeros(BoundaryCondition.NEUMANN, 1, D1,
                                math.nextafter(_box.X_MAX, math.inf)),
     RangeError),
])
def test_order_box_edges(call, want):
    if want is RangeError:
        with pytest.raises(RangeError):
            call()
    else:
        assert call() == want


# (bc, l, d, m) of zeros whose census order lies past 238: Dirichlet
# with twice_nu in 239..378, Neumann at d in 241..266, and the census keys
# around twice_nu = 340, whose series at the grid point pi/2 underflows
GROWN_BOX_ZEROS = [
    ("dirichlet", 0, 241, 1), ("dirichlet", 1, 241, 3),
    ("dirichlet", 0, 300, 1), ("dirichlet", 0, 300, 5),
    ("dirichlet", 20, 300, 2), ("dirichlet", 39, 300, 1),
    ("dirichlet", 0, 380, 1), ("dirichlet", 3, 374, 1),
    ("neumann", 0, 241, 2), ("neumann", 1, 250, 1), ("neumann", 5, 260, 3),
    ("neumann", 60, 266, 1), ("neumann", 106, 266, 1),
    ("dirichlet", 0, 341, 1), ("dirichlet", 0, 342, 1),
    ("neumann", 0, 339, 2), ("neumann", 1, 340, 1),
]


@pytest.mark.parametrize("bc,l,d,m", GROWN_BOX_ZEROS)
def test_zeros_past_order_120_are_nearest_floats(bc, l, d, m):
    key = _box.census_key(bc, l, d)
    assert key[1] > 238
    assert_nearest_float(*key, zeros.find_zero(bc, l, d, m))


# ---------------------------------------------------------------------------
# documented example values


class TestBesselZeroExamples:
    def test_half_integer_order_zeros_are_multiples_of_pi(self):
        # J_{1/2}(x) is proportional to sin(x)/sqrt(x)
        got = zeros.bessel_zero(Order(1), 3)
        assert rel_err(got, 3.0 * math.pi) <= 1e-13
        assert rel_err(got, 9.42477796076938) <= 1e-13

    def test_first_zero_order_zero(self):
        got = zeros.bessel_zero(Order(0), 1)
        assert rel_err(got, 2.404825557695773) <= 1e-13

    def test_first_zero_order_one_with_bounds(self):
        got = zeros.bessel_zero(Order(2), 1)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        # closed-form envelope for the first zero at nu = 1
        assert math.sqrt(1.0 * 3.0) < got < math.sqrt(2.0) * (math.sqrt(3.0) + 1.0)


class TestDirichletZeroExamples:
    def test_ball_radial_mode_is_sine(self):
        # l=0, d=3 radial profile is sin(r)/r, so the m-th zero is m*pi
        got = zeros.dirichlet_zero(0, 3, 2)
        assert rel_err(got, 2.0 * math.pi) <= 1e-13

    def test_ball_l1_zero_solves_tangent_equation(self):
        got = zeros.dirichlet_zero(1, 3, 1)
        assert rel_err(got, 4.493409457909064) <= 1e-13
        # the l=1, d=3 profile vanishes where tan(r) = r
        assert abs(math.tan(got) - got) <= 1e-9

    def test_disc_zero_equals_bessel_zero(self):
        got = zeros.dirichlet_zero(1, 2, 1)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        # identical census path: must agree bit-for-bit
        assert got == zeros.bessel_zero(Order(2), 1)


class TestNeumannZeroExamples:
    def test_ground_state_zero_is_exact(self):
        assert zeros.neumann_zero(0, 2, 1) == 0.0
        assert zeros.neumann_zero(0, 5, 1) == 0.0

    def test_second_radial_zero_matches_first_l1_dirichlet(self):
        got = zeros.neumann_zero(0, 2, 2)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        assert rel_err(got, zeros.dirichlet_zero(1, 2, 1)) <= 1e-11

    def test_disc_first_l1_neumann_zero(self):
        got = zeros.neumann_zero(1, 2, 1)
        assert rel_err(got, 1.8411837813406593) <= 1e-13


class TestFrozenTables:
    def test_bessel_zeros_match_frozen(self):
        for (tn, m), ref in _frozen.BESSEL_ZEROS.items():
            got = zeros.bessel_zero(Order(tn), m)
            assert rel_err(got, float(ref)) <= 1e-12, (tn, m)

    def test_derivative_zeros_match_frozen(self):
        # zeros of J'_l are the positive disc Neumann zeros (d = 2)
        for (tn, m), ref in _frozen.BESSEL_DERIV_ZEROS.items():
            assert tn % 2 == 0 and tn >= 2
            got = zeros.neumann_zero(tn // 2, 2, m)
            assert rel_err(got, float(ref)) <= 1e-12, (tn, m)

    def test_d3_neumann_zeros_match_frozen(self):
        # table already counts the conventional zero at r = 0 for l = 0
        for (l, m), ref in _frozen.NEUMANN_ZEROS_D3.items():
            got = zeros.neumann_zero(l, 3, m)
            assert rel_err(got, float(ref)) <= 1e-12, (l, m)


# ---------------------------------------------------------------------------
# fresh oracle cross-checks (not frozen; recomputed at import time)


class TestOracleSpots:
    @pytest.mark.parametrize("tn,m", [(7, 2), (13, 4), (100, 3)])
    def test_bessel_zero_vs_oracle(self, tn, m):
        want = float(oracle.oracle_bessel_zero(tn, m, dps=30))
        assert rel_err(zeros.bessel_zero(Order(tn), m), want) <= 1e-12

    def test_dirichlet_zero_vs_oracle(self):
        want = float(oracle.oracle_dirichlet_zero(2, 5, 3, dps=30))
        assert rel_err(zeros.dirichlet_zero(2, 5, 3), want) <= 1e-12

    def test_neumann_zero_vs_oracle(self):
        want = float(oracle.oracle_neumann_zero(3, 4, 2, dps=30))
        assert rel_err(zeros.neumann_zero(3, 4, 2), want) <= 1e-12

    # rows (tag, l, twice_nu, m) of the frozen tables and the spots above,
    # each read through its census_key; m counts positive zeros, so
    # NEUMANN_ZEROS_D3's (0, 2) is m = 1
    GRID = sorted(
        [("J", 0, tn, m) for tn, m in _frozen.BESSEL_ZEROS]
        + [("G", tn // 2, tn, m) for tn, m in _frozen.BESSEL_DERIV_ZEROS]
        + [("G", l, 2 * l + 1, m - (l == 0))
           for l, m in _frozen.NEUMANN_ZEROS_D3]
        + [("J", 0, 7, 2), ("J", 0, 13, 4), ("J", 0, 100, 3), ("J", 0, 7, 3),
           ("G", 3, 8, 2)])

    @pytest.mark.parametrize("tag,l,twice_nu,m", GRID)
    def test_zeros_are_the_nearest_floats(self, tag, l, twice_nu, m):
        key = census_key(tag, l, twice_nu)
        assert_nearest_float(*key, _internals.census_zero(*key, m))


# ---------------------------------------------------------------------------
# the grid series, the multiplication series past the turning point and the
# ascending series below it: f and df against the oracle across the box,
# scaled as the series scales them (series_scale)

# (tag, l, twice_nu, points), each read through its census_key: small x at
# the low points, large x above; G at
# l = 1 for d = 120 and d = 238, deep below the turning point, and the first
# Neumann zero at d = 5, l = 26, near sqrt(l (l + d - 2)) where |g'| is small
# (the zeros themselves where a point carries all its digits)
TARGET_POINTS = [
    ("J", 0, 0, (5.0, 47.5)),
    ("G", 3, 7, (0.7, 5.0, 13.5, 47.5, 150.0, 199.5)),
    ("G", 100, 202, (80.0, 110.0, 150.0, 199.5)),
    ("J", 0, 202, (80.0, 105.0, 150.0, 199.5)),
    ("G", 1, 120, (11.000744736195989, 12.0)),
    ("G", 1, 238, (14.5, 15.45989431346645)),
    ("G", 26, 55, (29.624863030562352,)),
]


def cell_series(l: int, twice_nu: int, x: float):
    """The grid series' pair, its value of the census key (l, twice_nu) at
    all four midpoints around a float, and the factor it scales both by at
    a point, from the upper end of the grid cell around x, as a refinement
    reads them."""
    x0 = next_point(twice_nu % 2, x)
    pair, value = _internals.grid_series(twice_nu, x0)
    return (pair, lambda z: [*map(value(z, l), range(4))],
            partial(series_scale, twice_nu, x0))


def midpoints(z: float) -> list:
    """The points x where at(0), ..., at(3) of the series' value(z)
    evaluate, exact in mpmath: the midpoints between consecutive floats
    from two below z to two above."""
    below, above = math.nextafter(z, 0.0), math.nextafter(z, math.inf)
    ends = [math.nextafter(below, 0.0), below, z, above,
            math.nextafter(above, math.inf)]
    return [(mp.mpf(a) + mp.mpf(b)) / 2 for a, b in zip(ends, ends[1:])]


@pytest.mark.parametrize("tag,l,twice_nu,x", [
    (tag, l, tn, x) for tag, l, tn, points in TARGET_POINTS for x in points])
def test_target_matches_oracle(monkeypatch, tag, l, twice_nu, x):
    # J: f = J_nu, df = J_nu'; G: f = g = (l/x) J_nu - J_{nu+1} and
    # df = -(l/x^2) J_nu + (l/x) J_nu' - J_{nu+1}', which the jet forms
    # through the recursion J_nu (l(nu-1)/x^2 - 1) + J_{nu+1} (nu+1-l)/x.
    # The float pair of the series gives (f, df) to about 1e-13 of the
    # largest term; the fixed-point value at the midpoints around x lies
    # within its stated bound of the oracle: a few 1e-24 of the pair, plus
    # the value's own rounding to a float
    _internals.fresh_ladders(monkeypatch)
    l, twice_nu = census_key(tag, l, twice_nu)
    pair, value, scale = cell_series(l, twice_nu, x)
    f, df, _ = _internals.jet(l, 0.5 * twice_nu, x, *pair(x))
    with mp.workdps(40):
        ja, pa, jb, pb = (scale(x) * mp.besselj(mp.mpf(tn) / 2, x,
                                                derivative=k)
                          for tn in (twice_nu, twice_nu + 2) for k in (0, 1))
        if l == 0:
            terms = (ja, pa)
            want_f, want_df = ja, pa
        else:
            terms = ((l / mp.mpf(x)) * ja, jb, (l / mp.mpf(x)**2) * ja,
                     (l / mp.mpf(x)) * pa, pb)
            want_f = terms[0] - terms[1]
            want_df = -terms[2] + terms[3] - terms[4]
        size = max(max(abs(t) for t in terms), abs(jb))
        assert abs(f - want_f) <= 1e-13 * size, (f, want_f)
        assert abs(df - want_df) <= 1e-13 * size, (df, want_df)
        for mid, (v, err) in zip(midpoints(x), value(x), strict=True):
            miss = abs(mp.mpf(v)
                       - scale(mid) * oracle_target(l, twice_nu, mid))
            assert miss <= err, (mid, v, float(miss), err)
            assert err <= 1e-22 * size + 1e-13 * abs(v), (err, v)


@pytest.mark.parametrize("tag,l,twice_nu", [
    ("J", 0, 0), ("G", 3, 7), ("J", 0, 202), ("G", 26, 55)])
def test_series_bound_covers_a_ladder_off_by_its_bound(monkeypatch, tag, l,
                                                       twice_nu):
    # a ladder whose quotients J_{nu+k}(x0) each sit 0.95 of the ladder's
    # own bound from the truth, with the signs of their coefficients in f,
    # moves the multiplication series by most of its ladder part; at the
    # first zero (G at d = 5, l = 26, just past the turning point, where
    # |g'| is small) the fixed-point value from it must still lie within
    # its bound of the truth at the midpoints around it
    _internals.fresh_ladders(monkeypatch)
    l, twice_nu = census_key(tag, l, twice_nu)
    n, parity = divmod(twice_nu, 2)
    z = _internals.census_zero(l, twice_nu, 1)
    x0 = next_point(parity, z)
    assert 2.0 * x0 > twice_nu  # the grid series is the ladder's
    ys, num, den, unit = _internals.grid_ladder(parity, x0)
    w = (z * z - x0 * x0) / (2.0 * x0)
    c = [(-w) ** k / math.factorial(k) for k in range(_internals.SPAN + 2)]
    worst = 0.0
    with mp.workdps(150):
        skewed = list(ys)
        for k in range(_internals.SPAN + 2):  # J_{nu+k}(x0)'s weight in f
            weight = c[k] if l == 0 else l / z * c[k] - z / x0 * (
                c[k - 1] if k else 0.0)
            a, b = (ys[i] * num / den for i in (n + k, n + k + 1))
            step = 0.95 * _internals.bound(a, b, x0, unit)
            truth = mp.besselj(mp.mpf(twice_nu) / 2 + k, x0)
            skewed[n + k] = int(mp.nint(
                (truth + math.copysign(step, weight)) * den / num))
        _, value = _internals.multiply((skewed, num, den, unit), x0,
                                       twice_nu)
        for mid, (v, err) in zip(midpoints(z), map(value(z, l), range(4)),
                                 strict=True):
            miss = abs(mp.mpf(v) - oracle_target(l, twice_nu, mid))
            assert miss <= err, (mid, v, float(miss), err)
            worst = max(worst, float(miss / err))
    assert worst > 0.05  # the skew fills a good part of the bound


def test_series_cut_short_keeps_its_tail_in_its_bound(monkeypatch):
    # with the multiplication series capped at 6 terms the tail past them
    # dominates the error, and the fixed-point value still lies within its
    # bound of the oracle, a bound within 1e3 of the miss (the ascending
    # series below the turning point has no cap)
    _internals.replace(monkeypatch, "SPAN", 6)
    _internals.fresh_ladders(monkeypatch)
    worst = 0.0
    for tag, l, twice_nu, points in TARGET_POINTS:
        l, twice_nu = census_key(tag, l, twice_nu)
        for x in points:
            _, value, scale = cell_series(l, twice_nu, x)
            with mp.workdps(40):
                for mid, (v, err) in zip(midpoints(x), value(x),
                                         strict=True):
                    miss = abs(mp.mpf(v)
                               - scale(mid) * oracle_target(l, twice_nu, mid))
                    assert miss <= err, (l, twice_nu, mid, float(miss), err)
                    worst = max(worst, float(miss / err))
    assert worst > 1e-3


def test_series_centre_is_the_census_pair(monkeypatch):
    # past the turning point the series rounds each ladder quotient of its
    # span once, so its float pair at the grid point itself is the floats
    # nearest the census ladder's pair bit for bit; below it the pair is
    # rounded from the census's exact ascending sums there: at every order
    # from 180 up at the first grid points pi/4 and pi/2, and at a stride
    # over the rest of the census grid
    _internals.fresh_ladders(monkeypatch)
    grid = [(tn, x) for parity in (0, 1)
            for x in _internals.GRID[parity]
            for tn in range(parity, _box.CAP - 1, 2)]
    edge = [(tn, x) for tn, x in grid if tn >= 180 and x < 2.0]
    assert len(grid) > 30000 and len(edge) > 100
    for tn, x0 in edge + grid[::7]:
        pair, _ = _internals.grid_series(tn, x0)
        n = tn // 2
        if 2.0 * x0 > tn:
            ys, num, den, _ = _internals.grid_ladder(tn % 2, x0)
            want = ys[n] * num / den, ys[n + 1] * num / den
        else:
            a, b, _, bits = _internals.ascending_sums(
                tn, *x0.as_integer_ratio())
            want = a / 2**bits, x0 / (tn + 2) * (b / 2**bits)
        assert pair(x0) == want, (tn, x0)


def test_series_reads_a_ladder_sized_past_the_box():
    # every grid ladder is sized for int(x0) + SPAN orders, far past the
    # span of a low order's series: at the grid point above the 60th
    # Neumann zero of l = 1, d = 4, its normalizer outgrows the span of
    # twice_nu = 4 by far, and the series' values at the midpoints around
    # the zero still lie within their bounds of the oracle and certify it
    twice_nu = 4
    z = zeros.neumann_zero(1, 4, 60)
    x0 = next_point(0, z)
    assert 2.0 * x0 > 50 * twice_nu
    _, value = _internals.grid_series(twice_nu, x0)
    for l in (0, 1):
        got = [*map(value(z, l), range(4))]
        with mp.workdps(40):
            for mid, (v, err) in zip(midpoints(z), got, strict=True):
                miss = abs(mp.mpf(v) - oracle_target(l, twice_nu, mid))
                assert miss <= err, (l, mid, v, float(miss), err)
    (v0, e0), (v1, e1) = got[1:3]
    assert abs(v0) > e0 and abs(v1) > e1 and (v0 > 0.0) != (v1 > 0.0)


@pytest.mark.parametrize("l,twice_nu,lo,hi,want", [
    (45, 293, 106.02875205865551, 107.59954838545042, 106.1573809239527),
    (53, 310, 116.23892818282235, 117.80972450961724, 117.2762694667824),
    (57, 323, 123.30751165339937, 124.87830798019428, 123.71812268008004)])
def test_zero_near_a_midpoint_certifies_past_the_order_cap(
        monkeypatch, l, twice_nu, lo, hi, want):
    # Neumann zeros of d = 205, 206 and 211, past order 120, each within a
    # few thousandths of an ulp of a midpoint between floats, below the
    # turning point, where the ascending series reads them: each
    # certifies, and the values around the zero lie within their bounds of
    # the oracle
    _internals.fresh_ladders(monkeypatch)
    z = _internals.refine(l, twice_nu, lo, hi, 1)
    assert z == want
    assert_nearest_float(l, twice_nu, z)
    _, value, scale = cell_series(l, twice_nu, z)
    with mp.workdps(40):
        for mid, (v, err) in zip(midpoints(z), value(z), strict=True):
            miss = abs(mp.mpf(v)
                       - scale(mid) * oracle_target(l, twice_nu, mid))
            assert miss <= err, (mid, v, float(miss), err)


# ---------------------------------------------------------------------------
# the sign rule: the sign of an exact integer where its bound clears it,
# else 0


def test_certified_signs_match_oracle(monkeypatch):
    # the twin grid and its near-zero points; J_nu, J_{nu+1} (the key of
    # Neumann l = 0 at the order) and g at every order: a sign the ladder's
    # or, below the turning point, the ascending series' bound clears is
    # the oracle's, and one it cannot clear is 0 (for g near its zeros)
    certified = uncleared = 0
    for tn, x in twin_points():
        _internals.fresh_ladders(monkeypatch)
        for l, key_tn in ((0, tn), (0, tn + 2), (tn // 2, tn)):
            sign = _internals.grid_sign(l, key_tn, x)
            if sign == 0:
                uncleared += 1
                continue
            certified += 1
            want = oracle_target(l, key_tn, x)
            assert want != 0 and (sign > 0) == (want > 0), (l, key_tn, x)
    assert certified > 300 and uncleared < certified / 100


def test_sign_target_falls_back_on_a_zero(monkeypatch):
    # a grid sign the ladder cannot clear is 0, and the census widens its
    # cell to the next grid point: the widened cell holds the same zero.
    # The ladder at hi gets a unit that no value clears
    _internals.fresh_ladders(monkeypatch)
    cold()
    lo, hi, sign_lo = _internals.census_bracket(0, 0, 2)
    want = _internals.census_zero(0, 0, 2)
    assert _internals.grid_sign(0, 0, hi) == -sign_lo
    ladders = _internals.LADDERS
    ladders[0, hi] = (*ladders[0, hi][:-1], 2.0**100)
    _internals.census_bracket.cache_clear()
    _internals.census_zero.cache_clear()
    assert _internals.grid_sign(0, 0, hi) == 0
    wide = _internals.census_bracket(0, 0, 2)
    assert wide == (lo, next_point(0, hi), sign_lo)
    assert _internals.census_zero(0, 0, 2) == want
    cold()


def test_neumann_degree_zero_shares_the_dirichlet_degree_one_key(
        monkeypatch):
    # d/dr of the degree-0 profile is -r^(1-d/2) J_{d/2} (DLMF 10.6.6), so
    # past the ground state the Neumann l = 0 zeros are the census zeros of
    # J_{d/2}, the key of Dirichlet l = 1, which reads them from the cache
    cold()
    work = _counts.count(monkeypatch)
    for d in _box.ground_dims():
        assert _internals.key(BoundaryCondition.NEUMANN, 0, d) == (
            (0, d), True)
        for m in range(1, 4):
            z = zeros.neumann_zero(0, d, m + 1)
            assert z == _internals.census_zero(0, d, m), (d, m)
            refined = work.cold_zeros
            assert zeros.dirichlet_zero(1, d, m) == z, (d, m)
            assert work.cold_zeros == refined
    cold()


def test_first_zero_lower_past_the_float_range():
    # no census can reach the box, so none runs, and only the Neumann
    # ground state lies in it
    for bc in BoundaryCondition:
        for l, d in ((1, 10**400), (10**400, 2), (0, 10**400)):
            key = _internals.key(bc, l, d)[0]
            assert _internals.first_zero_lower(key) == math.inf
            ground = bc is BoundaryCondition.NEUMANN and l == 0
            assert zeros.radial_zeros(bc, l, d, zeros.X_MAX) == (
                [0.0] if ground else [])


def test_first_zero_bounds_bracket_the_first_zero():
    # the one home of the first-zero bounds brackets the census's first
    # positive zero at every J order of the box, and at every Neumann
    # degree l >= 1 of the ledger's d; the census bound, which
    # radial_zeros reads and the scan starts at, is the scan's bound bit for
    # bit (the Neumann l = 0 census key is J's two orders up, after the
    # ground state). The smallest relative slacks show that no bound is
    # vacuous: a looser one fails here
    slack = {"J": [], "G": []}  # (lower, upper) relative slacks
    keys = [(0, tn) for tn in _box.j_orders()]
    keys += [(l, 2 * l + d - 2) for d in (2, 3, 5, 30, 120, 238)
             for l in _box.neumann_degrees(d)]
    for l, tn in keys:
        lower, upper = _internals.first_zero_bounds(l, tn)
        d = tn - 2 * l + 2
        z = (zeros.bessel_zero(Order(tn), 1) if l == 0
             else zeros.neumann_zero(l, d, 1))
        assert lower < z < upper, (l, tn, lower, z, upper)
        bc = BoundaryCondition.NEUMANN if l else BoundaryCondition.DIRICHLET
        assert _internals.first_zero_lower(_internals.key(bc, l, d)[0]) == (
            _box.scan_bound(l, tn))
        if l == 0 and tn >= 2:  # Neumann l = 0 at d = tn has this key
            assert _internals.key(BoundaryCondition.NEUMANN, 0, tn) == (
                (0, tn), True)
        slack["G" if l else "J"].append((1.0 - lower / z, upper / z - 1.0))
    for group, want in (("J", [0.0499, 0.00390]), ("G", [0.00419, 0.0556])):
        got = [min(s) for s in zip(*slack[group])]
        assert got == pytest.approx(want, rel=1e-2), group


def test_selfcheck_first_zero_keys_read_the_box():
    # the suite ranges over the keys whose first zero provably lies in the
    # argument box (Chambers' bound on j_{nu,1}, above both targets' first
    # zeros, at most X_MAX), whatever the order cap
    for fast in (True, False):
        step, dims = (8, (2, 3)) if fast else (1, (2, 3, 30, 120))
        keys = [(0, tn) for tn in range(0, 1000, step)] + [
            (l, 2 * l + d - 2) for d in dims for l in range(1, 500, step)]
        assert _internals.first_zero_keys(fast) == [
            (l, tn) for l, tn in keys if _box.chambers(tn) <= _box.X_MAX]


def test_selfcheck_reads_the_census_bound(monkeypatch):
    # the first_zero_bounds suite also checks the bound that refuses: with
    # the census warm, so that no scan reads it, a census bound at the
    # upper bound, past the first zero, fails the suite, which names it
    assert _internals.check_first_zero_bounds(True) is None
    _internals.replace(monkeypatch, "first_zero_lower",
                       lambda key: _internals.first_zero_bounds(*key)[1])
    detail = _internals.check_first_zero_bounds(True)
    assert detail.startswith("first-zero bounds fail at l=0, twice_nu=0: "
                             "0.0 (census 2.414"), detail


def test_selfcheck_derivative_alias_reads_a_fresh_ladder(monkeypatch):
    # neumann_zero(0, d, m + 1) and dirichlet_zero(1, d, m) read one cached
    # census zero of the key (0, d), so their equality alone cannot fail:
    # that zero biased by 1e-9 must fail the suite through eval_J's signs
    for fast in (True, False):
        assert _internals.check_derivative_alias(fast) is None
    real = _internals.replace(monkeypatch, "census_zero", lambda l, tn, m: (
        real(l, tn, m) * (1.0 + 1e-9 * (l == 0 and 2 <= tn <= 5))))
    assert zeros.neumann_zero(0, 2, 2) == zeros.dirichlet_zero(1, 2, 1)
    for fast in (True, False):
        detail = _internals.check_derivative_alias(fast)
        assert detail.startswith("derivative alias off at d=2, m=1: "
                                 "3.8317059740"), detail


def test_first_cell_starts_at_the_census_bound(monkeypatch):
    # at every census key of the box, the J orders (the Neumann l = 0 keys
    # among them) and the Neumann keys l >= 1 of every d >= 2, the first
    # cell starts at the scan's bound (_box.scan_bound), or at a grid point
    # past it, and the census evaluates no point at or below the bound: its
    # first point is the parity's first grid point past it. The count at
    # the bound is pinned
    keys = _box.census_keys()
    assert len(keys) == 34410
    work = _counts.count(monkeypatch)
    _internals.census_bracket.cache_clear()
    at_bound = 0
    for l, tn in keys:
        bound, grid = _box.scan_bound(l, tn), _internals.GRID[tn % 2]
        read = len(work.signs)
        lo, hi, sign = _internals.census_bracket(l, tn, 1)
        seen = work.signs[read:]
        assert sign == 1 and hi in grid, (l, tn)
        assert lo == bound or lo in grid and lo > bound, (l, tn, lo, bound)
        at_bound += lo == bound
        assert seen[0] == (l, tn, next_point(tn % 2, bound)), (l, tn)
        assert all(x > bound and t == tn for _, t, x in seen), (l, tn)
    assert at_bound == 14495
    _internals.census_bracket.cache_clear()


def test_qu_wong_bound_lies_below_every_first_zero():
    # the constant is |a_1| 2^(-1/3) rounded down, and the bound lies below
    # j_{nu,1} at every J order of the box but 0 (the J keys, the Neumann
    # l = 0 ones among them): the census's first zero, which lies in the
    # first sign-change cell of a walk from Watson's bound, so a bound past
    # j_{nu,1} cannot hide it. The bound at nu + 1 lies past j_{nu,1}, so
    # a Dirichlet refusal is the bound's, not the first zero's of the degree
    # below. The smallest slack, pinned, shows that the bound is not vacuous
    assert 1.855757 < -mp.airyaizero(1) / mp.cbrt(2) < 1.855758
    slack = []
    for tn in _box.j_orders()[1:]:
        z = _internals.census_zero(0, tn, 1)
        watson = _internals.first_zero_bounds(0, tn)[0] * (1.0 - 1e-9)
        sign_at = partial(_internals.grid_sign, 0, tn)
        lo, hi, _ = _internals.first_cell(sign_at, tn % 2, watson, 1)
        assert lo < z < hi, (tn, lo, z, hi)
        assert _box.qu_wong(tn) < z < _box.qu_wong(tn + 2), (tn, z)
        slack.append((z / _box.qu_wong(tn) - 1.0, tn))
    assert min(slack)[1] == 369
    assert min(slack)[0] == pytest.approx(0.000930, rel=1e-2)


def _rayleigh_bound(l: int, twice_nu: int) -> float:
    """The reference Neumann bound at l >= 1 from the Rayleigh bound
    beta_{l,1}^2 > 2l(nu+1) / (1 + 2l(nu+1)/(nu(nu+2))), a rigorous bound
    from the sum of inverse squared zeros, shrunk as the census shrinks its
    bound."""
    nn, a = twice_nu * (twice_nu + 4), l * (twice_nu + 2)
    return math.sqrt(a / (1.0 + a / (nn / 4.0))) * (1.0 - 1e-9)


def test_sturm_start_is_never_below_the_rayleigh_start():
    # at every Neumann key of the box with l >= 1 the scan starts at the
    # Sturm bound sqrt(l(l+d-2)): past the Rayleigh bound at all but ten
    # keys of twice_nu <= 8, and at those so little below it that no grid
    # point lies between them, so no scan evaluates a point at or below
    # the Rayleigh bound (counts pinned). At fixed d the census bound
    # increases in l, as the first zeros it bounds do, over the degrees of
    # the box and the first degree past them: from l = 0 for Dirichlet,
    # from l = 1 for Neumann
    keys = [key for key in _box.census_keys() if key[0]]
    assert len(keys) == 34040
    later = 0
    for l, tn in keys:
        sturm = _internals.first_zero_lower((l, tn))
        rayleigh = _rayleigh_bound(l, tn)
        assert next_point(tn % 2, sturm) > rayleigh, (l, tn, sturm, rayleigh)
        later += sturm > rayleigh
        assert sturm > rayleigh or tn <= 8, (l, tn, sturm, rayleigh)
    assert later == 34030
    for d in range(2, _box.j_orders()[-1] + 1):
        for bc in BoundaryCondition:
            first = 0 if bc is BoundaryCondition.DIRICHLET else 1
            lows = [_internals.first_zero_lower(_internals.key(bc, l, d)[0])
                    for l in range(first, _box.neumann_degrees(d).stop + 1)]
            assert lows == sorted(lows), (bc, d)


def test_shared_ladders_hold_grid_points_only(monkeypatch):
    # the census and every refinement read shared ladders at grid points
    # only, X_MAX the last of them, and build no other ladder; so the cache
    # never holds more ladders than a parity's grid has points, even where
    # radial_zeros stops inside a cell
    cold()
    work = _counts.count(monkeypatch)
    spectrum.enumerate_spectrum(2, "dirichlet", 2000)
    x_max = 3.0 * zeros.DEFAULT_STEP + 0.5  # inside a cell of either parity
    zeros.radial_zeros(BoundaryCondition.NEUMANN, 3, 4, x_max)
    zeros.radial_zeros(BoundaryCondition.DIRICHLET, 0, 3, zeros.X_MAX)
    for bc, l, d, m in [(BoundaryCondition.DIRICHLET, 0, 3, 7),
                          (BoundaryCondition.NEUMANN, 5, 2, 3),
                          (BoundaryCondition.NEUMANN, 40, 7, 1)]:
        zeros.find_zero(bc, l, d, m)
    grids = {p: set(_internals.GRID[p]) for p in (0, 1)}
    shared = work.shared
    assert all(zeros.X_MAX in grid for grid in grids.values())
    assert (1, zeros.X_MAX) in shared  # d = 3, l = 0: parity 1
    assert all(x in grids[p] for p, x in shared), sorted(
        key for key in shared if key[1] not in grids[key[0]])
    for p in (0, 1):
        assert sum(key[0] == p for key in shared) <= len(grids[p])
    # every build is a shared ladder, built once
    seen = [(parity, x) for parity, x, _ in work.ladders]
    assert set(seen) == set(shared)
    assert max(Counter(seen).values()) == 1
    cold()


# ---------------------------------------------------------------------------
# bracket scans: the census grid walked on eval_J_pair's target


def dd_cells(l: int, twice_nu: int):
    """Sign-change cells (lo, hi) of the census key's target (pair_target)
    on the order's grid, in order, from the census bound (_box.scan_bound),
    below which it is positive: x_k = (k + parity/2) pi/2 with X_MAX the
    last point."""
    start, sign = _box.scan_bound(l, twice_nu), 1
    f = pair_target(l, twice_nu)
    half = 0.5 * (twice_nu % 2)
    lo, k = start, 0
    while lo < zeros.X_MAX:
        x = min((k + half) * math.pi / 2, zeros.X_MAX)
        k += 1
        if x <= start:
            continue
        fx = f(x)
        assert abs(fx) > 1e-290, x  # no grid point sits on a zero here
        if (fx > 0.0) != (sign > 0):
            yield lo, x
            sign = -sign
        lo = x


def scan(bc: BoundaryCondition, l: int, d: int,
         x_max: float) -> list[tuple[float, float]]:
    """The cells of dd_cells whose zero lies in (0, x_max]."""
    key = _box.census_key(bc.value.lower(), l, d)
    f = pair_target(*key)
    out = []
    for lo, hi in dd_cells(*key):
        if lo >= x_max:
            break
        if hi > x_max and f(x_max) * f(hi) < 0.0:
            break  # the cell's zero lies past x_max
        out.append((lo, hi))
    return out


# rows (tag, l, twice_nu), each read through its census_key: J at d=2 l=0,
# G at d=3 l=0 (J_{3/2}) and l=3, J on the Miller route, G at d=4 l=40,
# whose scan starts below the turning point, and J_{1/2}, whose zeros are
# exactly m pi
BRACKET_KEYS = [("J", 0, 0), ("G", 0, 1), ("G", 3, 7), ("J", 0, 202),
                ("G", 40, 82), ("J", 0, 1)]


@pytest.mark.parametrize("tag,l,twice_nu", BRACKET_KEYS)
def test_census_brackets_equal_the_double_double_walk(tag, l, twice_nu):
    # the census reads signs from the shared integer ladders where their
    # bound clears them; its cells must be exactly those of a walk over the
    # same grid on eval_J_pair's target
    key = census_key(tag, l, twice_nu)
    want = list(itertools.islice(dd_cells(*key), 5))
    cold()
    got = [_internals.census_bracket(*key, m)[:2] for m in range(1, 6)]
    assert got == want


class TestScanBrackets:
    def test_sine_zeros_give_three_brackets(self):
        got = scan(BoundaryCondition.DIRICHLET, 0, 3, 10.0)
        assert len(got) == 3
        for (lo, hi), root in zip(got, (math.pi, 2 * math.pi, 3 * math.pi)):
            assert lo < root < hi

    def test_neumann_scan_single_bracket(self):
        got = scan(BoundaryCondition.NEUMANN, 0, 2, 4.0)
        assert len(got) == 1
        assert got[0][0] < 3.831705970207512 < got[0][1]

    def test_dirichlet_scan_two_brackets(self):
        got = scan(BoundaryCondition.DIRICHLET, 0, 2, 6.0)
        assert len(got) == 2
        assert got[0][0] < 2.404825557695773 < got[0][1]
        assert got[1][0] < 5.520078110286311 < got[1][1]

    def test_brackets_are_ordered_and_sign_changing(self):
        brs = scan(BoundaryCondition.DIRICHLET, 2, 3, 20.0)
        assert brs == sorted(brs)
        for lo, hi in brs:
            assert oracle.oracle_xi(2, 3, lo) * oracle.oracle_xi(2, 3, hi) < 0

    def test_neumann_brackets_sign_change_in_derivative(self):
        brs = scan(BoundaryCondition.NEUMANN, 3, 3, 20.0)
        assert len(brs) >= 2
        for lo, hi in brs:
            flo = oracle.oracle_xi_prime(3, 3, lo)
            fhi = oracle.oracle_xi_prime(3, 3, hi)
            assert flo * fhi < 0

    def test_bracket_count_matches_zero_census(self):
        # 5 zeros of J_0 below j_{0,5} + 0.05 and the scan finds all 5
        j05 = zeros.bessel_zero(Order(0), 5)
        brs = scan(BoundaryCondition.DIRICHLET, 0, 2, j05 + 0.05)
        assert len(brs) == 5
        assert brs[-1][0] < j05 < brs[-1][1]
        # consecutive zeros are more than pi/2 apart (zeros module docstring),
        # so the census grid's pi/2 cells isolate each census zero: the
        # tightest J spacing (d=2, l=0), Neumann l=0 and l>=1 for d=2, 3, and
        # a high order on the Miller route
        cases = [
            (BoundaryCondition.DIRICHLET, 0, 2, 8),
            (BoundaryCondition.NEUMANN, 0, 2, 6),
            (BoundaryCondition.NEUMANN, 0, 3, 6),
            (BoundaryCondition.NEUMANN, 1, 2, 6),
            (BoundaryCondition.NEUMANN, 3, 3, 6),
            (BoundaryCondition.DIRICHLET, 100, 4, 4),
        ]
        for bc, l, d, n in cases:
            if bc is BoundaryCondition.NEUMANN:
                # neumann_zero counts the conventional zero at r = 0 for l = 0
                first = 2 if l == 0 else 1
                census = [zeros.neumann_zero(l, d, m)
                          for m in range(first, first + n)]
            else:
                census = [zeros.dirichlet_zero(l, d, m) for m in range(1, n + 1)]
            brs = scan(bc, l, d, census[-1] + 0.05)
            assert len(brs) == n, (bc, l, d)
            for (lo, hi), z in zip(brs, census):
                assert lo < z < hi, (bc, l, d, z)
                assert hi - lo <= math.pi / 2 + 1e-12, (bc, l, d, z)


# ---------------------------------------------------------------------------
# census semantics


class TestCensus:
    def test_zero_index_orders_by_position(self):
        vals = [zeros.bessel_zero(Order(5), m) for m in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_beyond_box_raises_range_error(self):
        with pytest.raises(RangeError):
            zeros.bessel_zero(Order(0), 64)  # ~200.3, just past the box
        # 63rd zero is still inside
        assert zeros.bessel_zero(Order(0), 63) < 200.0

    def test_neumann_beyond_box_raises_range_error(self):
        with pytest.raises(RangeError):
            zeros.neumann_zero(0, 2, 65)

    def test_index_past_every_cell_is_refused_before_the_walk(self):
        # each zero has a cell of its own, so no index past the grid's
        # cell count is in the box; a cold request must not recurse once
        # per index
        assert all(_internals.MAX_CELLS == len(_internals.GRID[parity])
                   for parity in (0, 1))
        cold()
        with pytest.raises(RangeError, match="beyond the supported box"):
            zeros.dirichlet_zero(0, 2, 10_000)
        assert _internals.census_bracket.cache_info().currsize == 1
        # the last cells of the box are still walked
        assert _internals.census_bracket(0, 0, 63) is not None
        assert _internals.census_bracket(0, 0, _internals.MAX_CELLS) is None

    def test_find_zero_routes_by_kind(self):
        got = zeros.find_zero(BoundaryCondition.DIRICHLET, 0, 3, 3)
        assert rel_err(got, 3.0 * math.pi) <= 1e-13
        got = zeros.find_zero(BoundaryCondition.DIRICHLET, 1, 3, 1)
        assert rel_err(got, 4.493409457909064) <= 1e-13
        got = zeros.find_zero(BoundaryCondition.NEUMANN, 0, 2, 2)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        # a BoundaryCondition's name, in any case, names the same target
        assert zeros.find_zero("neumann", 0, 2, 2) == zeros.neumann_zero(0, 2, 2)

    def test_results_are_cached_and_deterministic(self):
        a = zeros.dirichlet_zero(4, 3, 2)
        b = zeros.dirichlet_zero(4, 3, 2)
        assert a == b


# ---------------------------------------------------------------------------
# radial_zeros: every zero of a target up to a cutoff


def counted_zeros(bc: BoundaryCondition, l: int, d: int, x_max: float) -> list[float]:
    """find_zero's zeros, m = 1, 2, ..., up to x_max, one by one."""
    out = []
    for m in range(1, 100):
        z = zeros.find_zero(bc, l, d, m)
        if z > x_max:
            return out
        out.append(z)
    raise AssertionError("no zero past x_max")


# the test ids keep the names these cases were first collected under
_CASE_ID = {BoundaryCondition.DIRICHLET: "RootKind.DIRICHLET_XI",
            BoundaryCondition.NEUMANN: "RootKind.NEUMANN_XI_PRIME"}


class TestRadialZeros:
    @pytest.mark.parametrize("bc,l,d,x_max", [
        (BoundaryCondition.DIRICHLET, 3, 3, 40.0),
        (BoundaryCondition.DIRICHLET, 0, 2, 25.0),
        (BoundaryCondition.NEUMANN, 2, 4, 40.0),
        (BoundaryCondition.NEUMANN, 0, 2, 40.0),
        (BoundaryCondition.NEUMANN, 0, 5, 33.3),
        (BoundaryCondition.DIRICHLET, 100, 4, 130.0),
    ], ids=_CASE_ID.get)
    def test_equals_the_counted_zeros(self, bc, l, d, x_max):
        got = zeros.radial_zeros(bc, l, d, x_max)
        assert got == counted_zeros(bc, l, d, x_max)
        assert len(got) >= 3
        if bc is BoundaryCondition.NEUMANN and l == 0:
            assert got[0] == 0.0

    @pytest.mark.parametrize("bc,l,d", [
        (BoundaryCondition.DIRICHLET, 1, 2),
        (BoundaryCondition.NEUMANN, 3, 3),
        (BoundaryCondition.NEUMANN, 0, 2),
    ], ids=_CASE_ID.get)
    def test_cutoff_on_a_zero_includes_it(self, bc, l, d):
        z = zeros.find_zero(bc, l, d, 4)
        assert zeros.radial_zeros(bc, l, d, z) == counted_zeros(bc, l, d, z)
        assert zeros.radial_zeros(bc, l, d, z)[-1] == z
        below = math.nextafter(z, 0.0)
        assert zeros.radial_zeros(bc, l, d, below)[-1] < z

    def test_cutoff_below_the_first_zero(self):
        assert zeros.radial_zeros(BoundaryCondition.DIRICHLET, 0, 2, 2.4) == []
        assert zeros.radial_zeros(BoundaryCondition.NEUMANN, 1, 2, 1.8) == []
        assert zeros.radial_zeros(BoundaryCondition.NEUMANN, 0, 2, 1e-9) == [0.0]

    def test_stops_at_the_box(self):
        got = zeros.radial_zeros(BoundaryCondition.DIRICHLET, 0, 2, bessel.X_MAX)
        assert len(got) == 63
        assert got[-1] == zeros.bessel_zero(Order(0), 63)

    def test_degree_past_the_order_cap_reads_no_ladder(self, monkeypatch):
        # a Neumann degree whose order 2l + d - 2 lies past the order cap
        # (l = 92 at d = 300, order 241 at cap 480) has no zero below its
        # census bound (Sturm's 189.42), so the list is empty there; past
        # it the degree's zero is served, the float nearest the oracle's,
        # from census signs and a refinement on the ascending series alone,
        # as the whole box lies below the turning point: no ladder is built
        l, d = 92, 300
        tn = 2 * l + d - 2
        assert tn > _box.CAP
        bound = _box.scan_bound(l, tn)
        cold()
        work = _counts.count(monkeypatch)
        for x in (bound / 2, bound):
            assert zeros.radial_zeros(BoundaryCondition.NEUMANN, l, d, x) == []
        got = zeros.radial_zeros(BoundaryCondition.NEUMANN, l, d, zeros.X_MAX)
        assert len(got) == 1 and bound < got[0] < zeros.X_MAX
        assert_nearest_float(l, tn, got[0])
        assert work.ladders == [] and work.series["base"] == 1
        cold()

    @pytest.mark.parametrize("args", [
        ("DirichletXi", 0, 2, 10.0),
        (BoundaryCondition.DIRICHLET, -1, 2, 10.0),
        (BoundaryCondition.DIRICHLET, 0, 1, 10.0),
        (BoundaryCondition.DIRICHLET, 0, 2, 0.0),
        (BoundaryCondition.DIRICHLET, 0, 2, 201.0),
    ])
    def test_rejects_bad_args(self, args):
        with pytest.raises(RangeError):
            zeros.radial_zeros(*args)


# ---------------------------------------------------------------------------
# refinement: verified enclosures and the series budget

# rows (tag, l, twice_nu), each read through its census_key: J at d=2 l=0
# (tightest spacing), Neumann l=0 (J_{3/2}) and l=3 at d=3, Dirichlet
# l=100 at d=4 (Miller route)
ENCLOSURE_TARGETS = [("J", 0, 0), ("G", 0, 1), ("G", 3, 7), ("J", 0, 202)]


def sign_enclosed(f, z: float, tol: float) -> bool:
    h = 0.5 * tol * z
    return f(z - h) * f(z + h) < 0.0


def _skew_derivative(monkeypatch, factor: float) -> None:
    """Make the jet of a target, which forms Newton's df from the float
    series, return df times factor."""
    def skewed(*args):
        f, df, ddf = real(*args)
        return f, factor * df, ddf

    real = _internals.replace(monkeypatch, "jet", skewed)


def _certifies(l: int, twice_nu: int, x0: float, z: float):
    """True if the fixed-point series of the census key from the shared
    ladder at the grid point x0 takes certified opposite signs at the
    midpoints around z."""
    _, value = _internals.grid_series(twice_nu, x0)
    at = value(z, l)
    (v0, e0), (v1, e1) = at(1), at(2)
    return abs(v0) > e0 and abs(v1) > e1 and (v0 > 0.0) != (v1 > 0.0)


def _benchmark_pool():
    """perfbench/pool.py, the benchmark's workload pools."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "pool.py"
    spec = importlib.util.spec_from_file_location("_benchmark_pool", path)
    pool = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return pool


def test_cold_ladders_are_the_census_own(monkeypatch, capsys):
    # cold, one request at a time as the benchmark's processes run them:
    # on the six spectrum strata and the lookup pool's zeros and courant
    # requests every kernel ladder is built at a grid point where the
    # census read a sign, and no zero calls eval_J_pair
    pool = _benchmark_pool()
    argvs = [e for s in pool.SPECTRUM.strata for e in s.entries]
    argvs += [e for s in pool.LOOKUP.strata for e in s.entries
              if e[0] in ("zeros", "courant")]
    work = _counts.count(monkeypatch)
    assert len(argvs) == 12 + 72
    for argv in argvs:
        cold()
        assert cli.run(list(argv)) == 0, argv
        capsys.readouterr()
    evaluated = {(twice_nu % 2, x) for _, twice_nu, x in work.signs}
    built = [(parity, x) for parity, x, _ in work.ladders]
    assert work.pair_calls == 0
    assert len(built) > 800 and set(built) <= evaluated  # 853 builds
    cold()


def test_spectrum_jobs_build_few_ladders(monkeypatch, capsys):
    # cold, one job at a time as the benchmark's processes run them: the
    # six seed-0 spectrum jobs build 180 ladders of 16,936 steps (len(ys):
    # the ladder keeps every y_k) in all, because the Neumann scans start at
    # the Sturm bound and each grid point builds one ladder, for int(x) +
    # SPAN orders, whatever the cap (deterministic counts; with a rebuild at
    # twice a ladder's top they took 188 and 17,714, and rebuilt for the
    # box's top orders 18,352 steps)
    jobs = _benchmark_pool().SPECTRUM.jobs(0)
    assert len(jobs) == 6
    work = _counts.count(monkeypatch)
    for argv in jobs:
        cold()
        assert cli.run(list(argv)) == 0, argv
        capsys.readouterr()
    built = len(work.ladders)
    assert built <= 180 and work.steps <= 16936, (built, work.steps)
    cold()


def test_lookup_jobs_walk_from_the_qu_wong_start(monkeypatch, capsys):
    # cold, one job at a time as the benchmark's processes run them: the
    # seed-0 lookup jobs read at most 659 census signs on ladders of at
    # most 36,154 steps (len(ys)) in all, because the J scans start at Qu
    # and Wong's bound (deterministic counts; the Watson start took 1,139
    # signs and 80,017 steps)
    jobs = _benchmark_pool().LOOKUP.jobs(0)
    assert len(jobs) == 100
    work = _counts.count(monkeypatch)
    for argv in jobs:
        cold()
        _internals.log_gamma_value.cache_clear()
        assert cli.run(list(argv)) == 0, argv
        capsys.readouterr()
    signs = len(work.signs)
    assert signs <= 659 and work.steps <= 36154, (signs, work.steps)
    cold()


@pytest.mark.parametrize("d,lambda_max", [(100, 11998), (30, 14203)])
def test_each_grid_point_builds_one_ladder_in_any_order(monkeypatch, d,
                                                        lambda_max):
    # a shared ladder is sized for int(x) + SPAN orders once, whatever
    # order asks first: every grid point builds one ladder, of the same
    # size whether a Neumann enumeration whose census reads keys below
    # the turning point runs before a Dirichlet one or after it
    # (deterministic counts)
    jobs = [(d, "neumann", lambda_max), (2, "dirichlet", 2000)]
    steps = []
    for order in (jobs, jobs[::-1]):
        cold()
        shared = _counts.count(monkeypatch).shared
        for d, bc, lambda_max in order:
            spectrum.enumerate_spectrum(d, bc, lambda_max)
        assert set(shared.builds.values()) == {1}
        steps.append(dict(shared.steps))
        monkeypatch.undo()
    assert steps[0] == steps[1] and len(steps[0]) > 50
    for (parity, x), n in steps[0].items():
        assert n == len(_internals.ladder(parity, x,
                                          int(x) + _internals.SPAN)[0])
    cold()


@pytest.mark.parametrize("bc,l,d,m", [("dirichlet", 0, 2, 3),
                                       ("neumann", 0, 3, 2),
                                       ("neumann", 3, 5, 4)])
def test_radial_zeros_refine_no_cell_past_x_max(monkeypatch, bc, l, d, m):
    # with x_max one ulp below the start of the m-th census cell, that
    # cell's zero lies past x_max: radial_zeros stops at the cell and
    # refines only the zeros it returns
    cold()
    key = _box.census_key(bc, l, d)
    x_max = math.nextafter(_internals.census_bracket(*key, m)[0], 0.0)
    refined = _counts.count(monkeypatch).refined
    got = zeros.radial_zeros(bc, l, d, x_max)
    monkeypatch.undo()
    positive = [z for z in got if z > 0.0]
    assert len(refined) == len(positive) == m - 1
    assert positive == [_internals.census_zero(*key, k) for k in range(1, m)]
    assert all(z <= x_max for z in got)


class TestRefinement:
    @pytest.mark.parametrize("tol", [1e-6, 1e-13, 1e-15])
    @pytest.mark.parametrize("tag,l,twice_nu", ENCLOSURE_TARGETS)
    def test_census_zeros_are_sign_enclosed(self, tag, l, twice_nu, tol):
        l, twice_nu = census_key(tag, l, twice_nu)
        f = pair_target(l, twice_nu)
        for m in range(1, 4):
            z = _internals.census_zero(l, twice_nu, m)
            assert sign_enclosed(f, z, tol), (m, z)

    @pytest.mark.parametrize("tag,l,twice_nu", ENCLOSURE_TARGETS + [
        ("G", 1, 100)])  # d = 100: the first zero lies below the turning point
    def test_tol_cannot_change_a_zero(self, capsys, monkeypatch, tag, l,
                                      twice_nu):
        # the zeros command only echoes its --tol: each zero is the float
        # nearest it at every accepted tol, one cold refinement a zero
        cold()
        work = _counts.count(monkeypatch)
        argv = ["zeros", "--l", str(l), "--d", str(twice_nu - 2 * l + 2),
                "--bc", "neumann" if tag == "G" else "dirichlet",
                "--count", "3"]
        got = set()
        for tol in ("1e-6", "1e-13", "1e-15"):
            assert cli.run([*argv, "--tol", tol]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["tol"] == float(tol)
            got.add(tuple(z["zero"] for z in payload["zeros"]))
        assert len(got) == 1, got
        shipped = set(got.pop()) - {0.0}
        assert work.cold_zeros == len(shipped)

    @pytest.mark.parametrize("tag,l,twice_nu", ENCLOSURE_TARGETS + [
        ("G", 1, 100)])
    def test_certificate_refuses_the_neighbouring_floats(
            self, tag, l, twice_nu):
        # from the series at the cell's upper end, and at its lower end
        # where the census evaluated it, the certificate holds for the
        # shipped zero and for neither float one ulp away
        l, twice_nu = census_key(tag, l, twice_nu)
        for m in (1, 2):
            z = _internals.census_zero(l, twice_nu, m)
            lo, hi, _ = _internals.census_bracket(l, twice_nu, m)
            for x0 in [hi] + [lo] * (lo in _internals.GRID[twice_nu % 2]):
                assert _certifies(l, twice_nu, x0, z), (z, x0)
                for to in (0.0, math.inf):
                    assert not _certifies(l, twice_nu, x0,
                                          math.nextafter(z, to)), (z, x0, to)

    @pytest.mark.parametrize("tag,l,twice_nu,x", [
        (tag, l, tn, None) for tag, l, tn in ENCLOSURE_TARGETS + [
            ("G", 1, 100)]])  # d = 100: below the turning point
    def test_certificate_slope_lies_within_its_bound(self, tag, l, twice_nu,
                                                     x):
        # the certified phase steps by the secant through the fixed-point
        # values at the two midpoints around x; at the first zero (x None)
        # and 2^-20 of it either side it lies within the values' bounds
        # over the midpoints' distance, plus 2 |f''| times that distance,
        # of mpmath's derivative at x, and that bound is below 1e-3 of the
        # pair. Away from a zero the values' own rounding swamps the secant,
        # and the certified phase does not step there
        l, twice_nu = census_key(tag, l, twice_nu)
        z = _internals.census_zero(l, twice_nu, 1)
        for x in [z * (1.0 + k * 2.0**-20) for k in (-1, 0, 1)]:
            _, value, scale = cell_series(l, twice_nu, x)
            (v0, e0), (v1, e1) = value(x)[1:3]
            with mp.workdps(40):
                m0, m1 = ((mp.mpf(x) + mp.mpf(math.nextafter(x, to))) / 2
                          for to in (0.0, math.inf))
                v0, e0 = mp.mpf(v0) / scale(m0), mp.mpf(e0) / scale(m0)
                v1, e1 = mp.mpf(v1) / scale(m1), mp.mpf(e1) / scale(m1)
                nu, t = mp.mpf(twice_nu) / 2, mp.mpf(x)
                j = [mp.besselj(nu, t, derivative=k) for k in range(3)]
                want, curve = j[1], j[2]
                if l:  # g = (l/x) J_nu - J_{nu+1}
                    want = (l * (j[1] / t - j[0] / t**2)
                            - mp.besselj(nu + 1, t, derivative=1))
                    curve = (l * (2 * j[0] / t**3 - 2 * j[1] / t**2
                                  + j[2] / t)
                             - mp.besselj(nu + 1, t, derivative=2))
                slope = (mp.mpf(v1) - mp.mpf(v0)) / (m1 - m0)
                bound = (e0 + e1) / (m1 - m0) + 2 * abs(curve) * (m1 - m0)
                miss = abs(slope - want)
                pair = max(abs(j[0]), abs(mp.besselj(nu + 1, t)))
            assert miss <= bound, (x, float(slope), float(want), float(miss))
            assert bound <= 1e-3 * pair, (x, float(bound))

    @pytest.mark.parametrize("tol", [1e-6, 1e-13, 1e-15])
    @pytest.mark.parametrize("tag,l,twice_nu", ENCLOSURE_TARGETS)
    def test_bad_derivative_neither_stalls_nor_misleads(
        self, monkeypatch, tag, l, twice_nu, tol
    ):
        # a derivative of the float series 1e6 too large (_jet forms it)
        # makes every float step look converged, so the float phase hands
        # over far from the root; the certified phase steps by the secant
        # through its fixed-point values, not by that derivative, and must
        # still reach the root within the iteration cap
        l, twice_nu = census_key(tag, l, twice_nu)
        f = pair_target(l, twice_nu)
        lo, hi, sign_lo = _internals.census_bracket(l, twice_nu, 2)
        _skew_derivative(monkeypatch, 1e6)
        z = _internals.refine(l, twice_nu, lo, hi, sign_lo)
        monkeypatch.undo()
        assert sign_enclosed(f, z, tol)
        want = _internals.census_zero(l, twice_nu, 2)
        assert abs(z - want) <= tol * want

    @pytest.mark.parametrize("factor", [-1.0, 1e-6, 1.001, 0.0])
    def test_no_derivative_moves_a_zero(self, monkeypatch, factor):
        # the certificate reads the fixed-point series alone: a float df of
        # the wrong sign, far too small, slightly off or zero costs steps
        # but ships the same zeros, also below the turning point (d = 100)
        keys = [(*census_key(*row), m) for row in ENCLOSURE_TARGETS
                + [("G", 1, 100)] for m in (1, 2, 3)]
        want = [_internals.census_zero(*key) for key in keys]
        cells = [_internals.census_bracket(*key) for key in keys]
        _skew_derivative(monkeypatch, factor)
        assert [_internals.refine(*key[:2], *cell)
                for key, cell in zip(keys, cells)] == want

    @pytest.mark.parametrize("ulps", [-32, 32])
    def test_no_float_sign_moves_a_zero(self, monkeypatch, ulps):
        # the float phase narrows a float bracket of its own on the float
        # signs, apart from the certified cell: with the float value f
        # biased by 32 ulps of its scale (the pair, or l/x for g / J_nu),
        # some float sign falls on the wrong side of its zero, so that
        # bracket loses the zero, and the same zeros ship
        keys = [(*census_key(*row), m) for row in ENCLOSURE_TARGETS
                + [("G", 1, 100)] for m in (1, 2, 3)]
        want = [_internals.census_zero(*key) for key in keys]
        cells = [_internals.census_bracket(*key) for key in keys]
        seen = []

        def biased(l, nu, x, a, b, ratio=False):
            f, df, ddf = real(l, nu, x, a, b, ratio)
            f += ulps * math.ulp(l / x if ratio else max(abs(a), abs(b)))
            seen.append((x, f))
            return f, df, ddf

        real = _internals.replace(monkeypatch, "jet", biased)
        wrong = 0  # float signs on the far side of the zero
        for key, (lo, hi, sign_lo), z in zip(keys, cells, want):
            seen.clear()
            assert _internals.refine(*key[:2], lo, hi, sign_lo) == z, key
            wrong += sum((f > 0.0) == (sign_lo > 0) and x > z
                         or (f > 0.0) != (sign_lo > 0) and x < z
                         for x, f in seen)
        assert wrong > 0

    @pytest.mark.parametrize("d,bc,lambda_max", [(3, "dirichlet", 3000),
                                                 (4, "neumann", 1900)])
    def test_kernel_calls_per_cold_zero(self, monkeypatch, d, bc, lambda_max):
        # scan at step pi/2 plus safeguarded Newton: at most 5.5 series
        # evaluations, float or fixed point, per zero (5.30 and 5.32), and
        # no eval_J_pair call (the counts are deterministic)
        cold()
        work = _counts.count(monkeypatch)
        spectrum.enumerate_spectrum(d, bc, lambda_max)
        zs = work.cold_zeros
        assert zs > 100 and work.pair_calls == 0
        calls = work.series["pair"] + work.series["value"]
        assert calls <= 5.5 * zs, calls / zs

    @pytest.mark.parametrize("d,bc,lambda_max", [
        (3, "dirichlet", 3000), (2, "dirichlet", 2000),
        (3, "dirichlet", 1500), (5, "dirichlet", 1600), (6, "neumann", 1900),
        (4, "neumann", 1900), (2, "neumann", 1750), (30, "neumann", 1500)])
    def test_double_double_calls_per_cold_zero(self, monkeypatch, d, bc,
                                               lambda_max):
        # the scan reads the shared integer ladders (the ascending series
        # below the turning point) and Newton the float series, so the
        # fixed-point value pays for the certificate, about one a zero, and
        # one series base a zero: the float phase hands over one ulp from
        # the nearest float at 5-20% of the zeros, Neumann targets the most,
        # and the first value certifies that neighbour too (the benchmark's
        # spectrum strata and d = 30, 79 values for 79 zeros)
        cold()
        work = _counts.count(monkeypatch)
        counts = work.series
        spectrum.enumerate_spectrum(d, bc, lambda_max)
        zs = work.cold_zeros
        assert zs > 70 and counts["base"] == zs
        assert counts["value"] <= 1.02 * zs, counts["value"] / zs

    def test_neumann_zeros_below_the_turning_point_cost_two_calls(
            self, monkeypatch):
        # the first Neumann zeros at d = 100, l = 1..14, lie below the
        # turning point, where J_nu ~ 1e-20 and the census and the
        # refinement read the ascending series: the census clears every
        # sign, Newton on g / J_nu hands over at most one ulp from the
        # zero, and each zero takes 3 or 4 float pairs and one fixed-point
        # value, cold: 49 and 14 for the 14 zeros, 99 exact sums in all
        # (deterministic counts). From one ulp off the first value
        # certifies the neighbour; from two ulps off it cannot. Newton on g
        # itself, with the mode off, hands over the same floats at more
        # cost: 108 float pairs and 154 exact sums
        counts = _counts.count(monkeypatch).series
        got = []
        for l in range(1, 15):
            cold()
            before = counts.copy()
            got.append(zeros.neumann_zero(l, 100, 1))
            assert got[-1] < l + 49
            used = counts - before
            assert used["pair"] <= 4 and used["value"] == 1, (l, used)
        assert counts == {"base": 14, "pair": 49, "value": 14,
                          "ascending": 99}, counts
        real = _internals.replace(monkeypatch, "jet", (
            lambda l, nu, x, a, b, ratio=False: real(l, nu, x, a, b)))
        counts.clear()
        for l in range(1, 15):
            cold()
            assert zeros.neumann_zero(l, 100, 1) == got[l - 1], l
        assert counts == {"base": 14, "pair": 108, "value": 14,
                          "ascending": 154}, counts
        cold()

    @pytest.mark.parametrize("d,bc,lambda_max", [(3, "dirichlet", 3000),
                                                 (4, "neumann", 1900)])
    def test_twin_calls_per_cold_zero(self, monkeypatch, d, bc, lambda_max):
        # Newton iterates from the tangent at the census cell's upper end, the
        # series centre (a one-term sum), on the float series, and ends once
        # its next step falls below an ulp or rounds to nothing: 4.30 and 4.32
        # float evaluations a zero. Bisecting on past a step that rounds to
        # nothing cost 4.51 at d = 3, 45 at its worst zero. The shared ladders
        # cost 10.4 and 13.5 steps (len(ys)) a zero, and each grid point
        # builds one ladder
        cold()
        work = _counts.count(monkeypatch)
        spectrum.enumerate_spectrum(d, bc, lambda_max)
        zs = work.cold_zeros
        assert zs > 100
        assert work.series["pair"] <= 4.4 * zs, work.series["pair"] / zs
        ladder_steps = {3: 12, 4: 15}[d]
        steps = work.shared.steps.total()
        assert steps <= ladder_steps * zs, steps / zs
        assert max(work.shared.builds.values()) == 1

    @pytest.mark.parametrize("tag,l,twice_nu,x", [
        ("J", 0, 0, 2.5), ("J", 0, 7, 11.0), ("J", 0, 160, 95.0),
        ("G", 0, 1, 4.0), ("G", 3, 7, 9.5), ("G", 50, 100, 60.0),
        ("G", 2, 2, 0.9)])
    def test_curvature_is_the_second_derivative(self, monkeypatch, tag, l,
                                                twice_nu, x):
        # f'' from the pair through Bessel's equation, against mpmath's
        # derivatives of J_nu and J_{nu+1}
        _internals.fresh_ladders(monkeypatch)
        l, twice_nu = census_key(tag, l, twice_nu)
        a, b = _internals.grid_series(twice_nu, x)[0](x)
        f2 = _internals.jet(l, 0.5 * twice_nu, x, a, b)[2]
        f2 /= float(series_scale(twice_nu, x, x))
        with mp.workdps(30):
            nu, t = mp.mpf(twice_nu) / 2, mp.mpf(x)
            j = [mp.besselj(nu, t, derivative=k) for k in range(3)]
            want = j[2]
            if l:  # g = (l/x) J_nu - J_{nu+1}
                want = (l * (2 * j[0] / t**3 - 2 * j[1] / t**2 + j[2] / t)
                        - mp.besselj(nu + 1, t, derivative=2))
        assert abs(f2 - float(want)) <= 1e-12, (f2, want)

    def test_grid_phase_keeps_zeros_off_the_grid(self, monkeypatch):
        # half-integer orders have zeros near multiples of pi/2 (j_{1/2,m}
        # = m pi); the phase keeps them mid-cell, and the fixed-point series
        # pays for the certificate only: one evaluation a zero
        cold()
        work = _counts.count(monkeypatch)
        spectrum.enumerate_spectrum(3, "dirichlet", 3000)
        zs, values = work.cold_zeros, work.series["value"]
        assert zs > 100
        assert values <= 1.05 * zs, values / zs

    # Ladder steps of the lookup-sized census below (2,352), each ladder
    # counted as its length, len(ys), against today's count plus 2% and
    # two references counted as Miller start lengths, one step a ladder
    # fewer (the counts are deterministic, the same on any machine): the
    # float steps at commit eee72a1, the last before the shared ladders,
    # where each key scanned its own cells with a fresh ladder per point,
    # and the float plus integer steps at 5d87ab0, the last with a float
    # ladder beside the integer one (21,696 + 10,092)
    PER_KEY_SCAN_STEPS = 75816
    TWO_LADDER_STEPS = 31788
    LOOKUP_STEPS = 2352 + 47  # today's count, plus 2%

    def test_lookup_census_costs_no_more_than_the_per_key_scan(
            self, monkeypatch):
        cold()
        work = _counts.count(monkeypatch)
        for bc in BoundaryCondition:
            for d in (2, 3, 4, 5):
                for l in range(6):
                    for m in range(1, 6):
                        zeros.find_zero(bc, l, d, m)
        total = work.steps
        assert total <= self.PER_KEY_SCAN_STEPS, total
        assert total <= self.TWO_LADDER_STEPS, total
        assert total <= self.LOOKUP_STEPS, total
        cold()

    def test_float_derivative_does_not_set_the_digits(self, monkeypatch):
        # the float phase only picks the point the fixed-point Newton steps
        # start from; with the float series' derivative 25% off, the linear
        # convergence hands over farther from the root, and no zero moves
        keys = [(tn, m) for tn in range(0, 239, 3) for m in (1, 2, 5, 20)]

        def census():
            cold()
            out = {}
            for tn, m in keys:
                try:
                    out[tn, m] = zeros.bessel_zero(Order(tn), m)
                except RangeError:  # past the box at high order
                    pass
            return out

        want = census()
        _skew_derivative(monkeypatch, 1.25)
        got = census()
        monkeypatch.undo()
        cold()
        assert len(want) > 250
        assert got == want

    @pytest.mark.parametrize("l,twice_nu,m", [
        (2, 5, 1), (6, 12, 1), (10, 24, 24), (26, 132, 1),
        # moved by the grid census: the farthest from the oracle at each d
        (14, 28, 1), (6, 13, 1), (10, 22, 1), (7, 17, 1), (21, 46, 1),
        (69, 146, 1), (24, 86, 1), (33, 164, 1)])
    def test_moved_neumann_zeros_within_an_ulp(self, l, twice_nu, m):
        # g zeros where a path-dependent last Newton step landed 0.5-1.3
        # ulps off; each must be the float nearest the oracle's zero
        z = zeros.neumann_zero(l, twice_nu + 2 - 2 * l, m)
        assert_nearest_float(l, twice_nu, z)

    @pytest.mark.parametrize("d,bc,lambda_max", [(2, "dirichlet", 2000),
                                                 (4, "neumann", 1900)])
    def test_cold_spectrum_discards_one_zero_a_degree(self, monkeypatch, d,
                                                      bc, lambda_max):
        # radial_zeros refines the zero of each cell that starts at or
        # below x_max, so at most one refined zero a degree walked is thrown
        # away
        cold()
        work = _counts.count(monkeypatch)
        walked = []
        real = zeros.radial_zeros

        def spied(bc, l, d, x_max):
            walked.append(l)
            return real(bc, l, d, x_max)

        monkeypatch.setattr(zeros, "radial_zeros", spied)
        table = spectrum.enumerate_spectrum(d, bc, lambda_max)
        shipped = sum(rec.zero > 0.0 for rec in table.records)
        misses = work.cold_zeros
        assert len(walked) == len(set(walked)) > 10
        assert shipped <= misses <= shipped + len(walked)


# ---------------------------------------------------------------------------
# mathematical invariants


class TestInvariants:
    def test_interlacing_of_zeros(self):
        # j_{nu,m} < j_{nu+1,m} < j_{nu,m+1}, strict by 1e-6,
        # for nu in {0, 1/2, ..., 10} and m = 1..8
        zs = {
            (tn, m): zeros.bessel_zero(Order(tn), m)
            for tn in range(0, 23)
            for m in range(1, 10)
        }
        for tn in range(0, 21):
            for m in range(1, 9):
                assert zs[(tn, m)] + 1e-6 < zs[(tn + 2, m)], (tn, m)
                assert zs[(tn + 2, m)] + 1e-6 < zs[(tn, m + 1)], (tn, m)

    def test_first_zero_envelope(self):
        # sqrt(nu(nu+2)) < j_{nu,1} < sqrt(nu+1)(sqrt(nu+2)+1), nu = 1/2..60
        for tn in range(1, 121):
            nu = 0.5 * tn
            z = zeros.bessel_zero(Order(tn), 1)
            assert math.sqrt(nu * (nu + 2.0)) < z, tn
            assert z < math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0), tn

    def test_radial_neumann_equals_shifted_l1_dirichlet(self):
        # d/dr of the l=0 profile is -1 times the l=1 profile, so the
        # (m+1)-th l=0 Neumann zero equals the m-th l=1 Dirichlet zero
        for d in (2, 3, 4, 5):
            for m in range(1, 7):
                beta = zeros.neumann_zero(0, d, m + 1)
                alpha = zeros.dirichlet_zero(1, d, m)
                assert rel_err(beta, alpha) <= 1e-11, (d, m)

    def test_neumann_zero_sets_of_distinct_degrees_never_touch(self):
        # evidence that eigenvalue coincidences across degrees are isolated:
        # positive Neumann zeros up to 60 for degrees l and l+p stay at
        # least 1e-3 apart (d = 2, 3; l = 0..8; p = 1..4)
        def upto(l: int, d: int, cap: float = 60.0) -> list[float]:
            out = []
            m = 2 if l == 0 else 1
            while True:
                z = zeros.neumann_zero(l, d, m)
                if z > cap:
                    return out
                out.append(z)
                m += 1

        for d in (2, 3):
            table = {l: upto(l, d) for l in range(0, 13)}
            for l in range(0, 9):
                for p in range(1, 5):
                    gap = min(
                        abs(a - b) for a in table[l] for b in table[l + p]
                    )
                    assert gap > 1e-3, (d, l, p, gap)

    def test_first_neumann_zero_precedes_first_dirichlet_zero(self):
        for d in (2, 3, 4, 5):
            for l in range(1, 11):
                assert zeros.neumann_zero(l, d, 1) < zeros.dirichlet_zero(l, d, 1)


@settings(deadline=None, max_examples=25)
@given(tn=st.integers(0, 40), m=st.integers(1, 5))
def test_zero_grid_monotone(tn, m):
    z = zeros.bessel_zero(Order(tn), m)
    assert zeros.bessel_zero(Order(tn + 1), m) > z
    assert zeros.bessel_zero(Order(tn), m + 1) > z
    assert z > 0.0


# ---------------------------------------------------------------------------
# grid-walker edge handling, driven by synthetic targets on the parity-0
# grid (points near 4.7124, 6.2832 and 7.8540 past the start 4.5)


class TestWalkerSynthetics:
    def test_shallow_dip_is_not_flagged(self):
        # the derivative changes sign inside a cell, the minimum stays above 0
        def f(x):
            return (x - 5.0) ** 2 + 0.5

        assert _internals.first_cell(f, 0, 4.5, 1) is None

    def test_near_zero_endpoint_widens_bracket(self):
        def f(x):
            if x < 6.2:
                return 1.0
            if x <= 6.4:
                return 0.0  # grid point lands almost on the root
            return -1.0

        got = _internals.first_cell(f, 0, 4.5, 1)
        assert got == (3 * math.pi / 2, 5 * math.pi / 2, 1)

    def test_widened_bracket_without_sign_flip_fails(self):
        def f(x):
            if 6.2 <= x <= 6.4:
                return 0.0
            return 1.0  # never becomes negative: tangency, not a root

        with pytest.raises(BracketFailure):
            _internals.first_cell(f, 0, 4.5, 1)

    def test_near_zero_at_the_box_edge_fails(self):
        # the last grid point has no next point to widen to
        def f(x):
            return 0.0 if x == zeros.X_MAX else 1.0

        with pytest.raises(BracketFailure):
            _internals.first_cell(f, 1, 190.0, 1)

    def test_plain_crossing_yields_single_bracket(self):
        # the cell of the crossing, from a start of either sign
        for sign in (1, -1):
            def f(x, sign=sign):
                return sign * (5.0 - x)

            got = _internals.first_cell(f, 0, 4.5, sign)
            assert got == (3 * math.pi / 2, 2 * math.pi, sign)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_grid_phase_and_last_point(self, parity):
        # x_k = (k + parity/2) pi/2 bit for bit from the first positive
        # one below X_MAX, every cell at most pi/2, and X_MAX last
        grid = _internals.GRID[parity]
        k0 = 1 - parity  # the first k with x_k > 0
        assert grid[-1] == zeros.X_MAX
        assert all(0.0 < b - a <= math.pi / 2 + 1e-12
                   for a, b in zip(grid, grid[1:]))
        assert list(grid[:-1]) == [
            (k + parity / 2) * math.pi / 2
            for k in range(k0, k0 + len(grid) - 1)]
        assert (k0 + len(grid) - 1 + parity / 2) * math.pi / 2 >= zeros.X_MAX
