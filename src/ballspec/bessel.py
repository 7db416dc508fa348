"""Bessel kernel: J_nu, the (J_nu, J_{nu+1}) pair, and log-gamma.

Supported box: X_MIN <= x <= 200 with X_MIN = 1e-18, and orders
nu = twice_nu/2 with twice_nu an integer in [0, 240] (every order used by
the ball problems is l + d/2 - 1, so 2*nu is always an exact integer).
Accuracy contract per evaluation:

    |error| <= 1e-12 * max(|value|, 1e-3)

which is the single-number form of "relative error <= 1e-12, absolute error
<= 1e-15 near zeros" (max(1e-12*v, 1e-15) == 1e-12*max(v, 1e-3)). EvalResult
carries a conservative internal estimate in the same normalization; if the
estimate cannot meet the contract the operation raises LossOfPrecision
instead of returning garbage.

Internals run in double-double ("compensated") arithmetic: about 32
significant digits carried as an unevaluated sum of two floats. One route
covers the box, Miller's backward recurrence (Gautschi, SIAM Review 9,
1967): run the three-term recursion downward from an index high enough
that the unwanted solution is suppressed, then normalize - integer orders
against the identity 1 = J_0 + 2*sum J_2k, half-integer orders against the
cancellation-free identity sum (2n+1) J_{n+1/2}^2 = 2x/pi. Its square root
is the scale, and the scale is positive: the ladder starts at y = 1 past x,
and J_nu > 0 on (0, j_{nu,1}) with j_{nu,1} > nu (DLMF 10.21(i)).

The lower edge X_MIN keeps the route honest: the error model's absolute
term 1e-24 * sqrt(2/(pi x)) alone exceeds the 1e-15 floor below about
6e-19, and below about 3e-73 the ladder overflows. Inside the box a value
|J| < 2^-931 cannot carry 12 digits; eval_J and eval_J_pair refuse it with
LossOfPrecision, for either order of a pair.

Every shipped value comes from double-double. A sign, or a Newton iterate
of the zero finder, may come from the float ladder _miller_float:
_eval_miller's ladder in plain floats, with one shape (start index, loop,
normalizations) and one a priori error model, _pair_bound,
max(|J_nu|, |J_{nu+1}|, sqrt(2/(pi x))) * (n_steps * cancel * u + 1e-24)
with u = 2^-100 in double-double and 8 * 2^-53 in floats. Callers trust a
float sign only where the value clears its bound, and take no digit from it.
An eval_J_pair result also carries its double-double value's low part and
a bound on it, for the zero finder's half-ulp certificate: below the
turning point, x <= nu, that bound leaves the envelope term out and is
relative to the pair alone, a model that ROADMAP item 4 has to prove.

The float ladder is one loop with two readers. It keeps every y_k, and a
ladder sized for order n yields J_k(x) for every order k of one parity up
to max(n, int(x)) + 1 (DLMF 3.6(vi)), because _miller_start sizes it by
max(order, x). _pair_float reads the pair (n, n + 1), at about a sixth of
the cost of an _eval_miller call (52 against 328 us on random box points,
2-vCPU x86, Python 3.11). _ladder_float reads every order it keeps; the
zero census reads one such ladder per grid point for every degree.

The hot loop, the step of _eval_miller, writes the double-double
primitives out inline in their operation order, so it gives the
primitives' bits at a fraction of the call overhead; tests/test_golden.py
pins it bit for bit across the box and on a small-x, low-order grid.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ballspec.errors import LossOfPrecision, RangeError

X_MIN = 1e-18
X_MAX = 200.0
TWICE_NU_MAX = 240

# contract knobs (see module docstring)
_REL_CONTRACT = 1e-12
_NEAR_ZERO_FLOOR = 1e-3  # max(|v|, floor) turns the absolute clause into a ratio
_UNDERFLOW_EXP = -930  # frexp exponent below this: |J| < 2^-931, refused

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker split constant
_RESCALE_HI = 2.0**250
_RESCALE_MUL = 2.0**-256


# ---------------------------------------------------------------------------
# double-double primitives; a DD number is an unevaluated pair (hi, lo)


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float):
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    # the left-to-right association keeps every intermediate exact
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(ah: float, al: float, bh: float, bl: float):
    sh, sl = _two_sum(ah, bh)
    sl += al + bl
    return _quick_two_sum(sh, sl)


def _dd_mul(ah: float, al: float, bh: float, bl: float):
    ph, pl = _two_prod(ah, bh)
    pl += ah * bl + al * bh
    return _quick_two_sum(ph, pl)


def _dd_div_f(ah: float, al: float, f: float):
    q1 = ah / f
    th, tl = _two_prod(q1, f)
    q2 = ((ah - th) + (al - tl)) / f
    return _quick_two_sum(q1, q2)


def _dd_div(ah: float, al: float, bh: float, bl: float):
    q1 = ah / bh
    th, tl = _two_prod(q1, bh)
    tl += q1 * bl
    rh, rl = _dd_add(ah, al, -th, -tl)
    q2 = rh / bh
    th, tl = _two_prod(q2, bh)
    tl += q2 * bl
    rh, rl = _dd_add(rh, rl, -th, -tl)
    q3 = rh / bh
    qh, ql = _quick_two_sum(q1, q2)
    return _dd_add(qh, ql, q3, 0.0)


def _dd_sqrt(ah: float, al: float):
    # one double-double Newton correction on the float sqrt
    s = math.sqrt(ah)
    th, tl = _two_prod(s, s)
    rh, rl = _dd_add(ah, al, -th, -tl)
    return _quick_two_sum(s, (rh + rl) / (2.0 * s))


_PI_DD = (3.141592653589793, 1.2246467991473532e-16)


# ---------------------------------------------------------------------------
# region label of the benchmark's tracer; no evaluation routes on it


_SERIES_SAFE_LN = 30.0  # ln(prefactor * largest term) budget of the label


def _series_cancel_ln(twice_nu: int, x: float) -> float:
    """Estimate ln(prefactor * largest series term) via the saddle point.

    The alternating sum sum_k (-x^2/4)^k / (k! (nu+1)_k) peaks near
    k* = (sqrt(nu^2 + x^2) - nu)/2; an ascending series for J_nu would lose
    roughly this many e-folds to cancellation relative to the peak term
    times the prefactor.
    """
    nu = 0.5 * twice_nu
    ln_pref = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    kstar = 0.5 * (math.hypot(nu, x) - nu)
    if kstar < 1.0:
        return ln_pref
    ln_cmax = (
        kstar * math.log(0.25 * x * x)
        - math.lgamma(kstar + 1.0)
        - (math.lgamma(nu + kstar + 1.0) - math.lgamma(nu + 1.0))
    )
    return ln_pref + max(0.0, ln_cmax)


def _use_series(twice_nu: int, x: float) -> bool:
    """True in the region an ascending series could serve.

    A label only: every evaluation runs _eval_miller. perfbench/trace_child.py
    reads it to split kernel timings into a "series" and a "miller" region;
    once the tracer stops importing it (ROADMAP item 1 step b), this and
    _series_cancel_ln go.
    """
    if x > max(14.0, 0.75 * twice_nu):
        return False
    return _series_cancel_ln(twice_nu, x) <= _SERIES_SAFE_LN


# ---------------------------------------------------------------------------
# Miller backward-recurrence route


def _ln_j_inv(n: float, x: float) -> float:
    """Rough -ln J_n(x) for n past the turning point; 0 in the wave zone."""
    if 2.0 * n <= math.e * x:
        return 0.0
    return n * (math.log(2.0 * n / x) - 1.0) + 0.5 * math.log(2.0 * math.pi * n)


def _miller_start(n_target: int, x: float) -> int:
    """The first n = n0 + 8k, k >= 0, where _ln_j_inv has grown by 60 from
    its value at max(n_target, int(x) + 1). It does not decrease in n, so
    k starts at the root of n ln(2n / (e x)) = base + 57 (the Lambert W
    form, by Winitzki's approximation) and only k - 1 and k are checked."""
    floor_idx = max(n_target, int(x) + 1)
    base = _ln_j_inv(float(floor_idx), x)
    n0 = max(n_target + 6, int(x) + 6)
    r = base + 57.0  # 60 less about 0.5 ln(2 pi n)
    w = math.log1p(r / (0.5 * math.e * x))
    k = max(0, math.ceil((r / (w - w * math.log1p(w) / (2.0 + w)) - n0) / 8))
    while k and _ln_j_inv(float(n0 + 8 * k - 8), x) - base >= 60.0:
        k -= 1
    while _ln_j_inv(float(n0 + 8 * k), x) - base < 60.0:
        k += 1
    return n0 + 8 * k


def _pair_bound(a: float, b: float, x: float, unit: float) -> float:
    """A Miller ladder's a priori bound on its pair (a, b) = (J_n, J_{n+1})."""
    return max(abs(a), abs(b), math.sqrt(2.0 / (math.pi * x))) * unit


def _eval_miller(twice_nu: int, x: float):
    """(J_nu, J_{nu+1}, abs_err, lo_nu, lo_nu1, dd_err) by backward
    recurrence in double-double: J + lo is each order's double-double value,
    within dd_err, which is abs_err but for the turning-point model.

    The ladder of _miller_float, step for step. The integer normalizer adds
    y_0 last, after 2 * sum_{k even >= 2} y_k: forming 2 * sum - y_0 moves
    the last bit of abs_err at some points.

    The step is y_{k} = (2k + 2 + parity) / x * y_{k+1} - y_{k+2} with
    the double-double times float product (_two_prod of the high part, plus
    the low part times the float), _dd_mul, _dd_add and _two_prod written
    out inline, operation for operation: CPython contracts no a*b + c into
    an FMA, so the bits are those of the primitives. The Dekker splits of
    1/x (once per call) and of y_k (once per step) serve every product
    they enter; a small integer factor splits into (factor, 0.0), so its
    zero terms are left out, which changes no bit. The factor 2k + 2 +
    parity is a running float, as in _miller_float.
    """
    splitter, rescale_hi, rescale_mul = _SPLITTER, _RESCALE_HI, _RESCALE_MUL
    n_target, parity = divmod(twice_nu, 2)
    n_top = _miller_start(n_target + 1, x)
    inv_xh, inv_xl = _dd_div_f(1.0, 0.0, x)
    u = splitter * inv_xh
    ia = u - (u - inv_xh)  # Dekker split of inv_xh
    ib = inv_xh - ia
    y_next_h, y_next_l, y_cur_h, y_cur_l = 0.0, 0.0, 1.0, 0.0  # y_{k+1}, y_k
    ya, yb = 1.0, 0.0  # Dekker split of y_cur_h
    t0h = t0l = t1h = t1l = 0.0
    # sum (2k+1) y_k^2 (half-integer) or y_0 + 2 sum_{k even >= 2} y_k
    acc_h = 2.0 * n_top + 1.0 if parity else 2.0 * (n_top % 2 == 0)
    acc_l, acc_abs = 0.0, acc_h
    step = float(2 * n_top + parity)  # 2k + 2 + parity, exact as it counts down
    for k in range(n_top - 1, -1, -1):
        # c = inv_x * step
        ch = inv_xh * step
        cl = (ia * step - ch) + ib * step
        cl += inv_xl * step
        step -= 2.0
        u = ch + cl
        cl -= u - ch
        ch = u
        # p = c * y_cur
        u = splitter * ch
        ca = u - (u - ch)
        cb = ch - ca
        ph = ch * y_cur_h
        pl = ((ca * ya - ph) + ca * yb + cb * ya) + cb * yb
        pl += ch * y_cur_l + cl * y_cur_h
        u = ph + pl
        pl -= u - ph
        ph = u
        # y = p - y_next
        u = ph - y_next_h
        bb = u - ph
        e = (ph - (u - bb)) + (-y_next_h - bb)
        e += pl - y_next_l
        yh = u + e
        y_next_h, y_next_l = y_cur_h, y_cur_l
        y_cur_h, y_cur_l = yh, e - (yh - u)
        u = splitter * y_cur_h
        ya = u - (u - y_cur_h)
        yb = y_cur_h - ya
        if k == n_target:
            t0h, t0l, t1h, t1l = y_cur_h, y_cur_l, y_next_h, y_next_l
        if parity or k % 2 == 0:
            if parity:
                # sq = y_cur^2 * (2k + 1)
                ph = y_cur_h * y_cur_h
                pl = ((ya * ya - ph) + ya * yb + yb * ya) + yb * yb
                pl += y_cur_h * y_cur_l + y_cur_l * y_cur_h
                sq_h = ph + pl
                sq_l = pl - (sq_h - ph)
                f = 2.0 * k + 1.0
                u = splitter * sq_h
                ca = u - (u - sq_h)
                cb = sq_h - ca
                ph = sq_h * f
                pl = (ca * f - ph) + cb * f
                pl += sq_l * f
                sq_h = ph + pl
                sq_l = pl - (sq_h - ph)
            else:
                w = 2.0 if k else 1.0
                sq_h, sq_l = w * y_cur_h, w * y_cur_l
                acc_abs += abs(sq_h)
            # acc = acc + sq
            u = acc_h + sq_h
            bb = u - acc_h
            e = (acc_h - (u - bb)) + (sq_h - bb)
            e += acc_l + sq_l
            acc_h = u + e
            acc_l = e - (acc_h - u)
        if abs(y_cur_h) > rescale_hi:
            s = rescale_mul
            y_cur_h, y_cur_l, y_next_h, y_next_l = (
                y_cur_h * s, y_cur_l * s, y_next_h * s, y_next_l * s)
            t0h, t0l, t1h, t1l = t0h * s, t0l * s, t1h * s, t1l * s
            s2 = s * s if parity else s
            acc_h, acc_l, acc_abs = acc_h * s2, acc_l * s2, acc_abs * s
            u = splitter * y_cur_h
            ya = u - (u - y_cur_h)
            yb = y_cur_h - ya
    if parity:  # y_k = c J_k, c > 0: the ladder starts past x, where J > 0
        fh, fl = _dd_div(*_PI_DD, 2.0 * x, 0.0)
        (nh, nl), cancel = _dd_sqrt(*_dd_mul(acc_h, acc_l, fh, fl)), 1.0
    else:  # S = y_0 + 2 sum_{k even >= 2} y_k
        (nh, nl), cancel = (acc_h, acc_l), acc_abs / abs(acc_h)
    j0h, j0l = _dd_div(t0h, t0l, nh, nl)
    j1h, j1l = _dd_div(t1h, t1l, nh, nl)
    j0, j1 = j0h + j0l, j1h + j1l
    # double-double noise grows with ladder length and any cancellation in
    # the normalizer; truncation of the start index adds ~e^-60 relative
    unit = (n_top + 1) * cancel * 2.0**-100 + 1e-24
    err = _pair_bound(j0, j1, x, unit)
    # below the turning point, the turning-point model: relative to the pair
    dd_err = max(abs(j0), abs(j1)) * unit if 2.0 * x <= twice_nu else err
    return j0, j1, err, j0l - (j0 - j0h), j1l - (j1 - j1h), dd_err


def _miller_float(parity: int, x: float, n: int):
    """(ys, c, unit): the _eval_miller ladder for twice_nu = 2 n + parity
    in plain floats, every y_k kept: J_{k + parity/2}(x) = ys[k] / c for
    k <= max(n, int(x)) + 1. The pair (k, k + 1) is within _pair_bound with
    this unit, _eval_miller's with the float unit roundoff times 8 (the
    worst error on 10,000 random box points was 0.6 of it unscaled)."""
    rescale_hi, rescale_mul = _RESCALE_HI, _RESCALE_MUL
    n_top = _miller_start(n + 1, x)
    ys = [0.0] * n_top
    inv_x = 1.0 / x
    y_next, y_cur = 0.0, 1.0  # y_{k+1}, y_k
    f = float(2 * n_top + parity)  # 2k + 2 + parity, exact as it counts down
    # sum (2k+1) y_k^2 (half-integer) or sum_{k even} y_k (integer orders)
    acc = 2.0 * n_top + 1.0 if parity else float(n_top % 2 == 0)
    acc_abs = acc
    for k in range(n_top - 1, -1, -1):
        y_next, y_cur = y_cur, f * inv_x * y_cur - y_next
        ys[k] = y_cur
        f -= 2.0  # now 2k + parity
        if parity:
            acc += f * y_cur * y_cur
        elif k % 2 == 0:
            acc += y_cur
            acc_abs += abs(y_cur)
        if abs(y_cur) > rescale_hi:
            s = rescale_mul
            y_cur, y_next = y_cur * s, y_next * s
            ys[k:] = [y * s for y in ys[k:]]
            acc *= s * s if parity else s
            acc_abs *= s
    if parity:  # y_k = c J_k, c > 0: the ladder starts past x, where J > 0
        c, cancel = math.sqrt(acc * math.pi / (2.0 * x)), 1.0
    else:  # S = y_0 + 2 sum_{k even >= 2} y_k
        c = 2.0 * acc - y_cur
        cancel = (2.0 * acc_abs - abs(y_cur)) / abs(c)
    return ys, c, (n_top + 1) * cancel * 2.0**-50 + 1e-24


def _pair_float(twice_nu: int, x: float):
    """(J_nu, J_{nu+1}, abs_err) from the float ladder _miller_float. For
    sign decisions only; never raises inside the box."""
    n, parity = divmod(twice_nu, 2)
    ys, c, unit = _miller_float(parity, x, n)
    j0, j1 = ys[n] / c, ys[n + 1] / c
    return j0, j1, _pair_bound(j0, j1, x, unit)


def _ladder_float(parity: int, x: float, top: int):
    """(js, unit): js[k] = J_{k + parity/2}(x) for every k <= max(top,
    int(x)) + 1, from the float ladder sized for order top, which is
    _pair_float's for twice_nu = 2 top + parity. The pair (n, n + 1) is
    within _pair_bound(js[n], js[n + 1], x, unit)."""
    ys, c, unit = _miller_float(parity, x, top)
    return [y / c for y in ys[:max(top, int(x)) + 2]], unit


# ---------------------------------------------------------------------------
# public types and API


def _is_int(n) -> bool:
    """A true int: bool is an int subclass but never a degree or an index."""
    return isinstance(n, int) and not isinstance(n, bool)


def _check_int(name: str, n, minimum: int) -> None:
    """The one integer-parameter check: n must be a true int >= minimum."""
    if not _is_int(n) or n < minimum:
        raise RangeError(f"{name} must be an int >= {minimum}, got {n!r}")


class Order(namedtuple("Order", "twice_nu")):
    """Bessel order nu stored exactly as twice_nu = 2*nu (an integer)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_int("twice_nu", self.twice_nu, 0)
        if self.twice_nu > TWICE_NU_MAX:
            raise RangeError(
                f"twice_nu={self.twice_nu} outside supported [0, {TWICE_NU_MAX}]"
            )
        return self

    @property
    def nu(self) -> float:
        return 0.5 * self.twice_nu

    @classmethod
    def from_l_d(cls, l: int, d: int) -> "Order":
        """Order nu = l + d/2 - 1 attached to degree l in dimension d."""
        _check_int("l", l, 0)
        _check_int("d", d, 2)
        return cls(2 * l + d - 2)


class EvalResult(namedtuple("EvalResult", "value est_rel_err lo dd_err",
                            defaults=(0.0, math.inf))):
    """A function value plus a conservative error estimate.

    est_rel_err bounds |error| / max(|value|, 1e-3); the floor folds the
    near-zero absolute allowance into one ratio (see module docstring).
    value + lo is the double-double value of eval_J_pair, within dd_err of
    J (the turning-point model); eval_J leaves them at 0.0 and inf.
    """

    __slots__ = ()


def _validate_x(x: float) -> float:
    x = float(x)
    if not X_MIN <= x <= X_MAX:  # also refuses nan
        raise RangeError(f"x={x!r} outside supported [{X_MIN}, {X_MAX}]")
    return x


def _check(value: float, abs_err: float, what: str, *dd) -> EvalResult:
    est = abs_err / max(abs(value), _NEAR_ZERO_FLOOR) + 2.0**-52
    if est > _REL_CONTRACT:
        raise LossOfPrecision(f"{what}: estimated error {est:.3e} over budget")
    return EvalResult(value, est, *dd)


def _check_underflow(value: float, twice_nu: int, x: float) -> None:
    """Refuse |J_nu(x)| < 2^-931. J_nu underflows only below its first
    zero, where J_nu > 0, so a computed 0.0 is an underflow too."""
    if value == 0.0 or math.frexp(value)[1] < _UNDERFLOW_EXP:
        raise LossOfPrecision(
            f"|J(twice_nu={twice_nu}, x={x!r})| underflows the accuracy floor"
        )


def eval_J(nu: Order, x: float) -> EvalResult:
    """J_nu(x) for X_MIN <= x <= 200, twice_nu in [0, 240]."""
    x = _validate_x(x)
    value, _, abs_err = _eval_miller(nu.twice_nu, x)[:3]
    _check_underflow(value, nu.twice_nu, x)
    return _check(value, abs_err, f"J(twice_nu={nu.twice_nu}, x={x!r})")


def _validate_pair(nu: Order, x: float) -> float:
    """x as a float, once it and the pair's upper order lie in the box."""
    x = _validate_x(x)
    if nu.twice_nu + 2 > TWICE_NU_MAX:
        raise RangeError(
            f"pair at twice_nu={nu.twice_nu} needs order above the supported box"
        )
    return x


def eval_J_pair(nu: Order, x: float) -> tuple[EvalResult, EvalResult]:
    """(J_nu(x), J_{nu+1}(x)) from one recurrence ladder."""
    x = _validate_pair(nu, x)
    v0, v1, err, lo0, lo1, dd_err = _eval_miller(nu.twice_nu, x)
    _check_underflow(v0, nu.twice_nu, x)
    _check_underflow(v1, nu.twice_nu + 2, x)
    tag = f"J pair(twice_nu={nu.twice_nu}, x={x!r})"
    return _check(v0, err, tag, lo0, dd_err), _check(v1, err, tag, lo1, dd_err)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (thin wrapper over the C library).

    The platform lgamma already meets the < 1e-13 relative error needed by
    every caller here; tests pin its accuracy against an independent
    extended-precision reference so a regression would be caught.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise RangeError(f"log_gamma needs x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise RangeError(f"log_gamma(x={x!r}) exceeds the float range") from None

