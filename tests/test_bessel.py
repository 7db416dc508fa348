"""Kernel tests: examples, accuracy contract, recurrences, closed forms.

Tolerances follow the stated eval contract (rel 1e-12 / abs 1e-15 near
zeros); cross-checks against the extended-precision oracle in _oracle.py.
"""

import math
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest

from tests import _box, _counts, _frozen, _internals
from tests import _oracle as oracle
from tests._internals import (TWIN_ORDERS, TWIN_XS, ladder_pair, next_point,
                              oracle_target, series_scale, twin_points)
from ballspec import bessel
from ballspec.bessel import EvalResult, Order, eval_J, eval_J_pair, log_gamma
from ballspec.errors import LossOfPrecision, RangeError


def frozen_float(table, key):
    return float(mp.mpf(table[key]))


# ---------------------------------------------------------------------------
# Order type


def test_order_reconstructs_from_l_d():
    for l in range(0, 30):
        for d in range(2, 12):
            o = Order.from_l_d(l, d)
            assert o.twice_nu == 2 * l + d - 2
            assert o.nu == l + d / 2 - 1


def test_order_range_checks():
    with pytest.raises(RangeError):
        Order(-1)
    with pytest.raises(RangeError):
        Order(_box.CAP + 1)
    with pytest.raises(RangeError):
        Order(1.5)  # type: ignore[arg-type]
    with pytest.raises(RangeError):
        Order.from_l_d(-1, 3)
    with pytest.raises(RangeError):
        Order.from_l_d(0, 1)
    for call in (eval_J, eval_J_pair):  # a plain int is not an Order
        with pytest.raises(RangeError, match="nu must be an Order, got 5"):
            call(5, 1.0)


def test_x_range_checks():
    for bad in (0.0, -1.0, 200.0000001, math.inf, math.nan):
        with pytest.raises(RangeError):
            eval_J(Order(0), bad)


# ---------------------------------------------------------------------------
# eval_J examples


def test_eval_J_half_at_pi_is_zero():
    res = eval_J(Order(1), math.pi)
    assert abs(res.value) <= 1e-15


def test_eval_J_zero_at_first_root():
    res = eval_J(Order(0), 2.404825557695773)
    assert abs(res.value) <= 1e-12


def test_eval_J_order_one_at_one():
    want = frozen_float(_frozen.BESSEL_VALUES, (2, "1"))
    assert want == 0.4400505857449335
    res = eval_J(Order(2), 1.0)
    assert res.value == pytest.approx(want, rel=1e-12)


def test_eval_result_contract_fields():
    res = eval_J(Order(7), 13.25)
    assert isinstance(res, EvalResult)
    assert 0.0 <= res.est_rel_err <= 1e-12


# ---------------------------------------------------------------------------
# eval_J_pair examples


def test_pair_second_slot_zero_at_j11():
    x = 3.8317059702075125
    first, second = eval_J_pair(Order(0), x)
    assert abs(second.value) <= 1e-12
    want_first = float(oracle.oracle_J(0, x, dps=30))
    assert first.value == pytest.approx(want_first, rel=1e-12)


def test_pair_half_integer_closed_form():
    x = math.pi / 2
    first, second = eval_J_pair(Order(1), x)
    closed_first = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    closed_second = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
    assert first.value == pytest.approx(closed_first, rel=1e-12)
    assert second.value == pytest.approx(closed_second, rel=1e-12)


def test_pair_tiny_argument_leading_terms():
    first, second = eval_J_pair(Order(0), 1e-8)
    assert first.value == pytest.approx(1.0, abs=1e-15)
    assert second.value == pytest.approx(5e-9, rel=1e-12)


def test_pair_order_cap():
    with pytest.raises(RangeError):
        eval_J_pair(Order(_box.CAP), 10.0)
    with pytest.raises(RangeError, match="above the supported box"):
        eval_J_pair(Order(_box.CAP - 1), 5.0)
    with pytest.raises(RangeError, match=r"x=0\.0 outside"):
        eval_J_pair(Order(0), 0.0)


def test_pair_consistent_with_singles():
    for tn in (0, 1, 5, 40, 121):
        for x in (0.7, 13.0, 29.5, 88.0, 197.0):
            p0, p1 = eval_J_pair(Order(tn), x)
            s0 = eval_J(Order(tn), x)
            s1 = eval_J(Order(tn + 2), x)
            scale0 = max(abs(s0.value), 1e-3)
            scale1 = max(abs(s1.value), 1e-3)
            assert abs(p0.value - s0.value) <= 3e-12 * scale0
            assert abs(p1.value - s1.value) <= 3e-12 * scale1


# ---------------------------------------------------------------------------
# the scaled radial function Xi_l(r) = r^((2-d)/2) J_{l+d/2-1}(r) and its
# derivative Xi'_l(r) = r^((2-d)/2) g(r), where g = (l/r) J_nu - J_{nu+1}
# is the Neumann target the zero census evaluates


def xi(l: int, d: int, r: float) -> float:
    return r ** (0.5 * (2 - d)) * eval_J(Order.from_l_d(l, d), r).value


def xi_prime(l: int, d: int, r: float) -> float:
    a, b = ladder_pair(2 * l + d - 2, r)
    return r ** (0.5 * (2 - d)) * float(l / Fraction(r) * a - b)


def test_xi_l0_d3_zero_at_pi():
    assert abs(xi(0, 3, math.pi)) <= 1e-14


def test_xi_l0_d2_is_J0():
    want = frozen_float(_frozen.BESSEL_VALUES, (0, "1"))
    assert want == 0.7651976865579666
    assert xi(0, 2, 1.0) == pytest.approx(want, rel=1e-12)


def test_xi_l0_d3_proportional_to_sinc():
    ratios = []
    for r in (0.5, 1.0, 2.0):
        ratios.append(xi(0, 3, r) * r / math.sin(r))
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
    assert ratios[0] == pytest.approx(ratios[2], rel=1e-12)


def test_xi_prime_l0_d2_zero_at_j11():
    assert abs(xi_prime(0, 2, 3.8317059702075125)) <= 1e-12


def test_xi_prime_l1_d2_zero_at_first_derivative_root():
    assert abs(xi_prime(1, 2, 1.8411837813406593)) <= 1e-12


def test_xi_prime_l0_d3_equals_minus_xi1():
    a = xi_prime(0, 3, math.pi)
    b = -xi(1, 3, math.pi)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# log_gamma


def test_log_gamma_examples():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)


def test_log_gamma_recursion():
    x = 0.5
    while x <= 100.0:
        lhs = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
        assert abs(lhs) <= 1e-13 * max(1.0, abs(log_gamma(x + 1.0)))
        x += 0.73


def test_log_gamma_against_oracle():
    with mp.workdps(40):
        for x in (0.5, 1.75, 7.0, 33.3, 120.0, 199.5):
            want = mp.log(mp.gamma(mp.mpf(x)))
            got = log_gamma(x)
            assert abs(mp.mpf(got) - want) <= mp.mpf(1e-13) * abs(want) + mp.mpf(1e-15)


def test_log_gamma_range():
    for bad in (0.0, -3.0, math.nan):
        with pytest.raises(RangeError):
            log_gamma(bad)
    with pytest.raises(RangeError, match=r"x=1e\+308"):
        log_gamma(1e308)  # lgamma overflows the float range


# ---------------------------------------------------------------------------
# the kernel's one ladder as the zero finder reads it: its bound against
# the oracle


def ladder_pairs(parity: int, x: float, top: int):
    """(n, q_n, q_{n+1}, err) of every pair the ladder sized for top
    yields: q the exact quotients ys[k] num / den, and err the bound of
    the floats nearest them."""
    ys, num, den, unit = _internals.ladder(parity, x, top)
    with mp.workdps(80):
        qs = [mp.mpf(y * num) / den for y in ys[:max(top, int(x)) + 2]]
    for n in range(len(qs) - 1):
        a, b = ys[n] * num / den, ys[n + 1] * num / den
        yield n, qs[n], qs[n + 1], _internals.bound(a, b, x, unit)


def test_ladder_float_within_its_bound():
    # one ladder per parity and x of the twin grid, sized for the whole box
    # (small x at high order, x = 200 the box edge), and at the near-zero
    # points one ladder sized for the zero's order: every pair the zero
    # finder can read lies within its bound of the oracle
    pts, n_grid = twin_points(), len(TWIN_ORDERS) * len(TWIN_XS)
    checks = {(tn % 2, x, bessel.TWICE_NU_MAX // 2 - 1): None
              for tn, x in pts[:n_grid]}
    checks.update({(tn % 2, x, tn // 2): tn // 2 for tn, x in pts[n_grid:]})
    worst = 0.0
    for (parity, x, top), only in checks.items():
        want = {}
        for n, a, b, err in ladder_pairs(parity, x, top):
            if only is not None and n != only:
                continue
            for k in (n, n + 1):
                if k not in want:
                    want[k] = oracle.oracle_J(2 * k + parity, x, dps=40)
            with mp.workdps(60):
                miss = max(abs(a - want[n]), abs(b - want[n + 1]))
            assert miss <= err, (parity, x, top, n, float(miss), err)
            worst = max(worst, float(miss) / err)
    # not vacuous: the misses (the start index's truncation) show above the
    # oracle's digits, about 1e-6 of a model with room to spare (item 4)
    assert worst > 1e-7


def test_ladder_float_is_the_twin_ladder(monkeypatch):
    # past the turning point (2x > twice_nu) a census sign reads the shared
    # ladder at x, the kernel's ladder sized for int(x) + SPAN, every order
    # below x and the orders its multiplication series reads, step for
    # step; and the census's sign on its integers decides every sign that
    # the float rule decides, with the same sign: the float of the target
    # from the floats nearest the pair's quotients, where it clears their
    # bound, grown for g by g's three roundings. The integers decide every
    # sign here. Below the turning point a sign builds no ladder
    decided = below = 0
    for tn in TWIN_ORDERS:
        n, parity = divmod(tn, 2)
        l = tn // 2 + 1
        for x in TWIN_XS + (0.05, 0.3):
            _internals.fresh_ladders(monkeypatch)
            signs = [_internals.grid_sign(k, tn, x) for k in (0, l)]
            assert 0 not in signs, (tn, x)
            if 2.0 * x <= tn:
                assert not _internals.LADDERS, (tn, x)
                below += 1
                continue
            assert len(_internals.LADDERS) == 1, (tn, x)
            ys, num, den, unit = _internals.ladder(
                parity, x, int(x) + _internals.SPAN)
            assert _internals.LADDERS[parity, x] == (ys, num, den, unit)
            a, b = ys[n] * num / den, ys[n + 1] * num / den
            err = _internals.bound(a, b, x, unit)
            # g = (l/x) a - b, its bound grown by its three roundings
            q = l / x
            g_err = (q + 1.0) * err + (abs(q * a) + abs(b)) * 2.0**-51
            for sign, v, e in zip(signs, (a, q * a - b), (err, g_err)):
                if abs(v) > e:
                    decided += 1
                    assert sign == (1 if v > 0.0 else -1), (tn, x, v)
    assert below > 10 and decided > len(TWIN_ORDERS) * (len(TWIN_XS) + 1)


@pytest.mark.parametrize("x", TWIN_XS)
@pytest.mark.parametrize("parity", [0, 1])
def test_lazy_ladder_agrees_with_its_rebuild(parity, x):
    # a census ladder is sized for int(x) + SPAN, eval_J's for its own
    # order, up to the box's top order: a ladder sized for that top, one
    # rebuilt taller, agrees with the short one on every pair
    top = max(3, int(x)) + _internals.SPAN
    lazy = list(ladder_pairs(parity, x, top))
    box = list(ladder_pairs(parity, x, max(bessel.TWICE_NU_MAX // 2 - 1,
                                           int(x)) + _internals.SPAN))
    assert len(lazy) == top + 1 and len(box) >= len(lazy)
    for (n, a, b, err), (_, a2, b2, err2) in zip(lazy, box):
        assert abs(a - a2) <= err + err2 and abs(b - b2) <= err + err2, n


@pytest.mark.parametrize("top", [119, 239], ids=["cap240", "cap480"])
@pytest.mark.parametrize("x", TWIN_XS + (math.pi / 4, 3 * math.pi / 4))
def test_grid_ladder_serves_every_order_to_the_cap(monkeypatch, x, top):
    # orders 1..top asking in turn at one grid point (top the last order of
    # the cap's box): the orders past the turning point read one ladder,
    # built once for int(x) + SPAN orders whatever the cap, which spans
    # each one's multiplication series; the orders below it read the
    # ascending series and build none
    _internals.fresh_ladders(monkeypatch)
    work = _counts.count(monkeypatch)
    for n in range(1, top + 1):
        _internals.grid_sign(0, 2 * n + 1, x)
        _internals.grid_series(2 * n + 1, x)
    past = [n for n in range(1, top + 1) if 2.0 * x > 2 * n + 1]
    if not past:
        assert work.ladders == []
        return
    [(parity, at, steps)] = work.ladders
    assert (parity, at) == (1, x) and work.shared.builds[1, x] == 1
    assert steps > past[-1] + _internals.SPAN + 1, steps


# ---------------------------------------------------------------------------
# the ascending series below the turning point: a second proof of the census
# signs there, and its enclosure where its terms cancel most


def test_series_sign_is_a_fresh_ladder_sign_below_the_turning_point():
    # at the first two grid points past the census bound of every 23rd
    # census key, where they lie below the turning point (2x <= twice_nu)
    # and the census reads the ascending series, the series' sign is the
    # sign of the exact target of a fresh ladder sized for the order, which
    # shares no code with it
    checked = 0
    for l, tn in _box.census_keys()[::23]:
        x = _box.scan_bound(l, tn)
        for _ in range(2):
            x = next_point(tn % 2, x)
            if 2.0 * x > tn:
                break
            a, b = ladder_pair(tn, x)
            want = a if l == 0 else l / Fraction(x) * a - b
            sign = _internals.grid_sign(l, tn, x)
            assert sign != 0 and (sign > 0) == (want > 0), (l, tn, x)
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("twice_nu", [3, 40, 121, 240, 399, 400, 480])
def test_series_value_brackets_the_oracle_near_the_turning_point(twice_nu):
    # just below x = nu the series' terms cancel most: its exact sums at
    # the grid point below nu lie within their err of the oracle's, which
    # is below 2^-100 of S_nu, its float pair there is the scaled pair to a
    # few ulps, and its values at the four midpoints around a point inside
    # the cell below, of J_nu (l = 0) and of g (l = 1 and twice_nu // 4),
    # each bracket the oracle's 50-digit target, scaled as the series
    # scales it at that point, within err, a bound below 1e-12 of the value
    # for J_nu: the value's own rounding to a float, not the sum's
    parity = twice_nu % 2
    grid = _internals.GRID[parity]
    x0 = max(x for x in grid if 2.0 * x <= twice_nu)
    z = math.nextafter(x0 - 0.5, 0.0)
    pair, value = _internals.grid_series(twice_nu, x0)
    scale = partial(series_scale, twice_nu, x0)
    a, b, err, bits = _internals.ascending_sums(twice_nu,
                                                *x0.as_integer_ratio())
    with mp.workdps(120):
        s0, s1 = (oracle.oracle_J(tn, x0, dps=120) * mp.gamma(tn / 2 + 1)
                  * (2 / mp.mpf(x0)) ** (tn / 2)
                  for tn in (twice_nu, twice_nu + 2))
        assert abs(a - s0 * 2**bits) <= err and abs(b - s1 * 2**bits) <= err
        assert 0 < err <= 2.0**-100 * a
    with mp.workdps(50):
        want = [oracle.oracle_J(tn, x0, dps=50) * scale(x0)
                for tn in (twice_nu, twice_nu + 2)]
        for got, w in zip(pair(x0), want, strict=True):
            assert abs(got - w) <= 2.0**-51 * w, (got, w)
        below, above = math.nextafter(z, 0.0), math.nextafter(z, math.inf)
        ends = [math.nextafter(below, 0.0), below, z, above,
                math.nextafter(above, math.inf)]
        mids = [(mp.mpf(a) + mp.mpf(b)) / 2 for a, b in zip(ends, ends[1:])]
        for l in (0, 1, twice_nu // 4):
            at = value(z, l)
            for i, mid in enumerate(mids):
                v, err = at(i)
                target = oracle_target(l, twice_nu, mid, dps=50) * scale(mid)
                assert abs(mp.mpf(v) - target) <= err, (l, i, v, err)
                if l == 0:
                    assert err <= 1e-12 * v, (v, err)


# ---------------------------------------------------------------------------
# the Miller start index: the first index of its search, on a dense grid


def _start_grid():
    # every n_target a ladder of the box asks for (twice_nu // 2 + 1 up to
    # 121, plus the shared ladder's top + 1), against x from the lower edge
    # of the box through the census grid points to X_MAX
    xs = [bessel.X_MIN, 1e-12, 1e-6, 1e-3, 0.05, 0.3]
    xs += [0.25 * i for i in range(1, 801)]
    xs += [k * math.pi / 4 for k in range(1, 255)]
    xs += [x * (1 + 1e-15) for x in xs[6:]]
    return [(n, x) for n in range(1, 123) for x in xs
            if bessel.X_MIN <= x <= bessel.X_MAX]


def test_miller_start_matches_the_linear_search():
    # the start is the first index of the search n0, n0 + 8, ... from n0 =
    # max(n_target, int(x)) + 6 at which ln_j_inv, a rough -ln J_n(x), has
    # grown by 60 from its value at max(n_target, int(x) + 1): grown by 60
    # there, and not yet at the index before it, unless the start is n0
    ln_j_inv = _internals.ln_j_inv
    for n_target, x in _start_grid():
        n = _internals.miller_start(n_target, x)
        n0 = max(n_target, int(x)) + 6
        base = ln_j_inv(float(max(n_target, int(x) + 1)), x)
        assert n >= n0 and (n - n0) % 8 == 0, (n_target, x, n)
        assert ln_j_inv(float(n), x) - base >= 60.0, (n_target, x)
        assert n == n0 or ln_j_inv(float(n - 8), x) - base < 60.0, (
            n_target, x, n)


# ---------------------------------------------------------------------------
# recurrence-residual grid (three-term identity for J)

_GRID_X = [0.5 + i * (59.5 / 199.0) for i in range(200)]


def _j_three(tn: int, x: float):
    """(J_{nu-1}, J_nu, J_{nu+1}) with the nu-1 slot handled at low orders."""
    j0, j1 = eval_J_pair(Order(tn), x)
    if tn >= 2:
        jm = eval_J(Order(tn - 2), x).value
    elif tn == 0:
        jm = -j1.value  # J_{-1} = -J_1
    else:
        jm = math.sqrt(2.0 / (math.pi * x)) * math.cos(x)  # J_{-1/2}
    return jm, j0.value, j1.value


def test_recurrence_residual_grid():
    for tn in range(0, 41):
        nu = 0.5 * tn
        for x in _GRID_X:
            jm, j0, j1 = _j_three(tn, x)
            resid = j1 - (2.0 * nu / x) * j0 + jm
            bound = 1e-10 * max(abs(jm), abs(j0), abs(j1), 1e-300)
            assert abs(resid) <= bound, (tn, x, resid, bound)


# ---------------------------------------------------------------------------
# derivative consistency: downward recursion vs upward recursion

_R_GRID = _GRID_X[::4]  # 50 points, shares kernel cache with the grid above


def _xi_prime_up(l: int, d: int, r: float) -> float:
    # upward form: -((l + d - 2)/r) Xi_l + Xi_{l-1}, valid for l >= 1
    return -((l + d - 2) / r) * xi(l, d, r) + xi(l - 1, d, r)


def test_xi_prime_two_recursions_agree():
    for d in (2, 3):
        for l in (1, 2, 5, 10):
            for r in _R_GRID:
                a = xi_prime(l, d, r)
                b = _xi_prime_up(l, d, r)
                assert abs(a - b) <= max(1e-11 * max(abs(a), abs(b)), 1e-14), (
                    l, d, r, a, b)


def test_xi_three_term_recursion():
    for d in (2, 3):
        for l in (2, 3, 7, 11):
            for r in _R_GRID:
                lhs = xi(l, d, r)
                t1 = ((2 * l + d - 4) / r) * xi(l - 1, d, r)
                t2 = xi(l - 2, d, r)
                resid = lhs - (t1 - t2)
                bound = 1e-10 * max(abs(lhs), abs(t1), abs(t2), 1e-300)
                assert abs(resid) <= bound, (l, d, r, resid, bound)


def test_xi_half_integer_closed_form_constancy():
    base = None
    for r in _R_GRID:
        if abs(math.sin(r)) < 0.1:
            continue
        ratio = xi(0, 3, r) * r / math.sin(r)
        if base is None:
            base = ratio
        else:
            assert ratio == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# accuracy vs the extended-precision oracle


# Half-integer orders where J_nu < 0, near x = k*pi: the ladder's scale is
# positive because it starts past x, where J > 0, so the sign needs no
# sin/cos anchor (one would pick J_{3/2} here, as sin x ~ 0).
HALF_INTEGER_NEGATIVE_NEAR_K_PI = [
    (1, 15.76), (3, 18.83), (11, 25.11), (41, 37.68), (81, 59.67),
    (161, 91.09), (239, 131.93),
]


def test_kernel_matches_oracle_spot_grid():
    cases = [
        (0, 0.9), (0, 14.0), (0, 60.0), (0, 200.0),
        (1, 2.5), (1, 150.0), (3, 40.0),
        (40, 19.0), (41, 30.5), (81, 55.0),
        (120, 50.0), (121, 88.0), (200, 99.0),
        (240, 121.0), (240, 199.0),
    ] + HALF_INTEGER_NEGATIVE_NEAR_K_PI
    for tn, x in cases:
        got = eval_J(Order(tn), x)
        want = oracle.oracle_J(tn, x, dps=30)
        if (tn, x) in HALF_INTEGER_NEGATIVE_NEAR_K_PI:
            assert want < 0, (tn, x)
        with mp.workdps(40):
            diff = abs(mp.mpf(got.value) - want)
            scale = max(abs(want), mp.mpf(1e-3))
            assert diff / scale <= 1e-12, (tn, x)


def test_kernel_near_zero_absolute_accuracy():
    for (tn, m), s in _frozen.BESSEL_ZEROS.items():
        x = float(mp.mpf(s))
        got = eval_J(Order(tn), x)
        want = oracle.oracle_J(tn, x, dps=30)
        with mp.workdps(40):
            assert abs(mp.mpf(got.value) - want) <= 1e-15


def test_underflow_raises_loss_of_precision():
    with pytest.raises(LossOfPrecision):
        eval_J(Order(240), 0.1)


def test_estimate_over_budget_names_the_call(monkeypatch):
    # a ladder whose error bound fails the contract: the refusal is worded
    # as it was when every call formatted its tag up front
    _internals.replace(monkeypatch, "eval_miller",
                       lambda twice_nu, x: (0.5, -0.25, 1e-6))
    with pytest.raises(LossOfPrecision) as info:
        eval_J_pair(Order(3), 1.5)
    assert str(info.value) == (
        "J pair(twice_nu=3, x=1.5): estimated error 2.000e-06 over budget")
    with pytest.raises(LossOfPrecision) as info:
        eval_J(Order(4), 0.1 + 0.2)
    assert str(info.value) == (
        "J(twice_nu=4, x=0.30000000000000004): estimated error 2.000e-06 "
        "over budget")


# (x, the highest twice_nu kept): |J_60(1e-3)| = 1.04e-280 lies in the
# last binade the floor keeps, [2^-931, 2^-930); |J_31.5(10^-7.5)| =
# 4.0e-281 in the first one it refuses
UNDERFLOW_EDGES = [(1e-3, 120), (10.0**-7.5, 62)]


@pytest.mark.parametrize("x,last_kept", UNDERFLOW_EDGES)
def test_underflow_boundary(x, last_kept):
    for tn in range(bessel.TWICE_NU_MAX + 1):
        if tn <= last_kept:
            assert eval_J(Order(tn), x).value > 0.0, tn
        else:
            with pytest.raises(LossOfPrecision, match="underflows"):
                eval_J(Order(tn), x)


def test_series_serves_a_span_that_underflows(monkeypatch):
    # at the census grid point pi/2 every J_{170+k}, k <= 31, underflows to
    # 0.0, so a multiplication series there would have no term to scale
    # by. The point lies below the turning point, where the grid series is
    # the ascending one, which scales J_nu by Gamma(nu+1) (2/x)^nu: its
    # float pair is the oracle's, scaled, to an ulp, its values are
    # positive and decided by their err, and no ladder is built
    x0 = math.pi / 2
    with pytest.raises(LossOfPrecision, match="underflows"):
        eval_J(Order(340), x0)
    work = _counts.count(monkeypatch)
    pair, value = _internals.grid_series(340, x0)
    with mp.workdps(50):
        for got, tn in zip(pair(x0), (340, 342), strict=True):
            want = oracle.oracle_J(tn, x0, dps=50) * series_scale(340, x0, x0)
            assert abs(got - want) <= 2.0**-51 * want, (tn, got)
    for l in (0, 1):
        at = value(x0, l)
        for i in range(4):
            v, err = at(i)
            assert v > err > 0.0, (l, i, v, err)
    assert work.ladders == []


def test_pair_refuses_when_only_the_upper_order_underflows():
    x = 1e-3
    for tn in (119, 120):
        assert eval_J(Order(tn), x).value > 0.0
        with pytest.raises(LossOfPrecision,
                           match=rf"twice_nu={tn + 2}, .*underflows"):
            eval_J_pair(Order(tn), x)


# below X_MIN the ladder's absolute error term passes the 1e-15 floor, and
# further down the ladder overflows; without the edge the first three gave
# an OverflowError, a ValueError and a 0.0, the fourth a LossOfPrecision
BELOW_X_MIN = [(2, 1e-310), (0, 5e-324), (6, 1e-300), (6, 1e-150),
               (0, 1e-20), (0, math.nextafter(bessel.X_MIN, 0.0))]


@pytest.mark.parametrize("tn,x", BELOW_X_MIN)
def test_below_x_min_raises_range_error(tn, x):
    for call in (eval_J, eval_J_pair):
        with pytest.raises(RangeError, match=str(bessel.X_MIN)):
            call(Order(tn), x)


def test_x_min_matches_oracle_or_refuses():
    x = bessel.X_MIN
    returned = []
    for tn in range(bessel.TWICE_NU_MAX + 1):
        try:
            got = eval_J(Order(tn), x)
        except LossOfPrecision:
            continue
        returned.append(tn)
        want = oracle.oracle_J(tn, x, dps=30)
        with mp.workdps(40):
            diff = abs(mp.mpf(got.value) - want)
            assert diff <= 1e-12 * max(abs(want), mp.mpf(1e-3)), tn
    assert returned[:3] == [0, 1, 2]


# the points of both of the kernel's bit pins (tests/test_golden.py), the
# lower edge X_MIN and the
# last pairs the underflow floor keeps
QUOTIENT_POINTS = (
    _internals.KERNEL_POINTS + _internals.SERIES_POINTS
    + [(tn, x) for x in (bessel.X_MIN, 3e-18, 1e-16, 1e-12) for tn in range(8)]
    + [(tn, x) for x, last in UNDERFLOW_EDGES
       for tn in range(last - 6, last - 1)])


def test_ladder_quotient_within_bound():
    # the integer ladder's exact quotient ys[k] num / den, which
    # pair_target, the zero tests' reference, reads, lies within the pair's
    # bound of the oracle
    checked = 0
    for tn, x in QUOTIENT_POINTS:
        try:
            pair = eval_J_pair(Order(tn), x)
        except (LossOfPrecision, RangeError):
            continue  # refused: past the box or below the underflow floor
        n, parity = divmod(tn, 2)
        ys, num, den, unit = _internals.ladder(parity, x, n)
        bound = _internals.bound(pair[0].value, pair[1].value, x, unit)
        for k, order in ((n, tn), (n + 1, tn + 2)):
            want = oracle.oracle_J(order, x, dps=45)
            with mp.workdps(60):
                miss = abs(mp.mpf(ys[k] * num) / den - want)
            assert miss <= bound, (tn, x, order)
            checked += 1
    assert checked > 400


def test_pi_literal_is_pi_to_its_last_bit():
    # the half-integer normalizer reads pi from this literal, floor(pi 2^k)
    assert _internals.PI_BITS >= 2 * _internals.P
    with mp.workprec(_internals.PI_BITS + 64):
        assert _internals.PI == int(mp.floor(mp.pi * 2**_internals.PI_BITS))


def test_est_rel_err_within_contract_across_box():
    for tn in (0, 1, 2, 9, 40, 81, 120, 179, 240):
        for x in (0.05, 1.0, 13.9, 14.1, 33.0, 75.0, 140.0, 200.0):
            try:
                res = eval_J(Order(tn), x)
            except LossOfPrecision:
                continue  # honest refusal below the accuracy floor
            assert res.est_rel_err <= 1e-12
