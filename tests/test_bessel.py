"""Kernel tests: examples, accuracy contract, recurrences, closed forms.

Tolerances follow the stated eval contract (rel 1e-12 / abs 1e-15 near
zeros); cross-checks against the extended-precision oracle in _oracle.py.
"""

import math

import mpmath as mp
import pytest

from tests import _frozen
from tests import _oracle as oracle
from ballspec import bessel, zeros
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
        Order(241)
    with pytest.raises(RangeError):
        Order(1.5)  # type: ignore[arg-type]
    with pytest.raises(RangeError):
        Order.from_l_d(-1, 3)
    with pytest.raises(RangeError):
        Order.from_l_d(0, 1)


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
        eval_J_pair(Order(240), 10.0)


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
    return r ** (0.5 * (2 - d)) * zeros._target("G", l, 2 * l + d - 2)(r)[0]


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
# float twin of the pair: its a priori bound against the oracle

TWIN_ORDERS = (0, 1, 2, 7, 40, 101, 160, 202, 238)
TWIN_XS = (0.5, 1.7, 6.0, 23.0, 61.0, 118.0, 163.0, 200.0)
# census zeros (tag, l, twice_nu, m) spread over the box, on both routes
TWIN_ZEROS = [("J", 0, 0, 1), ("J", 0, 0, 63), ("J", 0, 1, 3), ("J", 0, 7, 4),
              ("J", 0, 202, 1), ("J", 0, 238, 2), ("G", 0, 1, 2),
              ("G", 3, 7, 1), ("G", 3, 7, 60), ("G", 40, 82, 1),
              ("G", 119, 238, 1)]


def oracle_target(tag: str, l: int, twice_nu: int, x) -> mp.mpf:
    """The census target J_nu (tag "J") or g = (l/x) J_nu - J_{nu+1}."""
    with mp.workdps(40):
        ja = oracle.oracle_J(twice_nu, x, dps=40)
        if tag == "J":
            return ja
        return (l / mp.mpf(x)) * ja - oracle.oracle_J(twice_nu + 2, x, dps=40)


def near_zero_points(tag: str, l: int, twice_nu: int, m: int):
    """The oracle zero as a float and the floats 1e-12 relative either side
    of it; the census zero only seeds mpmath's secant solver."""
    seed = zeros._census_zero(tag, l, twice_nu, m)
    with mp.workdps(40):
        z = float(mp.findroot(lambda t: oracle_target(tag, l, twice_nu, t),
                              mp.mpf(seed)))
    assert abs(z - seed) <= 1e-13 * z
    return [z * (1.0 - 1e-12), z, z * (1.0 + 1e-12)]


def twin_points():
    """(twice_nu, x) of the grid plus the near-zero points."""
    pts = [(tn, x) for tn in TWIN_ORDERS for x in TWIN_XS]
    for tag, l, tn, m in TWIN_ZEROS:
        pts += [(tn, x) for x in near_zero_points(tag, l, tn, m)]
    return pts


def test_pair_float_within_its_bound():
    # both parities, twice_nu 0..238, x in [0.5, 200], and points within
    # 1e-12 relative of zeros of J_nu and of g
    worst = 0.0
    for tn, x in twin_points():
        j0, j1, err = bessel._pair_float(tn, x)
        o0, o1 = oracle.oracle_J_pair(tn, x, dps=30)
        miss = max(abs(mp.mpf(j0) - o0), abs(mp.mpf(j1) - o1))
        assert miss <= err, (tn, x, float(miss), err)
        worst = max(worst, float(miss) / err)
    assert worst > 0.005  # the bound is not vacuous


def ladder_pairs(parity: int, x: float, top: int):
    """(n, J_n, J_{n+1}, err) of every pair one shared ladder yields."""
    js, unit = bessel._ladder_float(parity, x, top)
    env = math.sqrt(2.0 / (math.pi * x))
    for n in range(len(js) - 1):
        a, b = js[n], js[n + 1]
        yield n, a, b, max(abs(a), abs(b), env) * unit


def test_ladder_float_within_its_bound():
    # one ladder per parity and x of the twin grid, sized for the whole box
    # (small x at high order rescales, x = 200 is the box edge), and at the
    # near-zero points one ladder sized for the zero's order
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
                    want[k] = oracle.oracle_J(2 * k + parity, x, dps=30)
            miss = max(abs(mp.mpf(a) - want[n]), abs(mp.mpf(b) - want[n + 1]))
            assert miss <= err, (parity, x, top, n, float(miss), err)
            worst = max(worst, float(miss) / err)
    assert worst > 0.005  # the bound is not vacuous


def test_ladder_float_is_the_twin_ladder():
    # sized for order top, the shared ladder is _pair_float's ladder for
    # that order step for step: the same pair and bound, bit for bit
    for tn in TWIN_ORDERS:
        for x in TWIN_XS + (0.05, 0.3):
            top, parity = divmod(tn, 2)
            _, a, b, err = list(ladder_pairs(parity, x, top))[top]
            assert (a, b, err) == bessel._pair_float(tn, x), (tn, x)


@pytest.mark.parametrize("x", TWIN_XS)
@pytest.mark.parametrize("parity", [0, 1])
def test_lazy_ladder_agrees_with_its_rebuild(parity, x):
    # the first ladder at a grid point is sized for the asking order; a
    # later order above it rebuilds the ladder for the whole box
    lazy = list(ladder_pairs(parity, x, 3))
    box = list(ladder_pairs(parity, x, bessel.TWICE_NU_MAX // 2 - 1))
    assert len(lazy) == max(3, int(x)) + 1 and len(box) >= len(lazy)
    for (n, a, b, err), (_, a2, b2, err2) in zip(lazy, box):
        assert abs(a - a2) <= err + err2 and abs(b - b2) <= err + err2, n


# ---------------------------------------------------------------------------
# the Miller start index: the linear search it replaced, on a dense grid


def _miller_start_linear(n_target: int, x: float) -> int:
    """The start search as a plain walk: n0, n0 + 8, ... until _ln_j_inv
    has grown by 60 from its value at max(n_target, int(x) + 1)."""
    base = bessel._ln_j_inv(float(max(n_target, int(x) + 1)), x)
    n = max(n_target + 6, int(x) + 6)
    while bessel._ln_j_inv(float(n), x) - base < 60.0:
        n += 8
    return n


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


def test_miller_start_matches_the_linear_search(monkeypatch):
    grid = _start_grid()
    want = [_miller_start_linear(n, x) for n, x in grid]
    calls = [0]
    ln_j_inv = bessel._ln_j_inv

    def counted(n, x):
        calls[0] += 1
        return ln_j_inv(n, x)

    monkeypatch.setattr(bessel, "_ln_j_inv", counted)
    got = [bessel._miller_start(n, x) for n, x in grid]
    bad = [(p, w, g) for p, w, g in zip(grid, want, got) if w != g]
    assert bad == []
    # the base value and the two neighbours k - 1 and k, about once more in
    # one call in five; the walk took about 11 on this grid
    assert calls[0] / len(grid) < 3.5


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


def test_est_rel_err_within_contract_across_box():
    for tn in (0, 1, 2, 9, 40, 81, 120, 179, 240):
        for x in (0.05, 1.0, 13.9, 14.1, 33.0, 75.0, 140.0, 200.0):
            try:
                res = eval_J(Order(tn), x)
            except LossOfPrecision:
                continue  # honest refusal below the accuracy floor
            assert res.est_rel_err <= 1e-12
