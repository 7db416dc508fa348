"""Bessel kernel: J_nu, the (J_nu, J_{nu+1}) pair, and log-gamma.

Supported box: 0 < x <= 200 and orders nu = twice_nu/2 with twice_nu an
integer in [0, 240] (every order used by the ball problems is l + d/2 - 1,
so 2*nu is always an exact integer). Accuracy contract per evaluation:

    |error| <= 1e-12 * max(|value|, 1e-3)

which is the single-number form of "relative error <= 1e-12, absolute error
<= 1e-15 near zeros" (max(1e-12*v, 1e-15) == 1e-12*max(v, 1e-3)). EvalResult
carries a conservative internal estimate in the same normalization; if the
estimate cannot meet the contract the operation raises LossOfPrecision
instead of returning garbage.

Internals run in double-double ("compensated") arithmetic: about 32
significant digits carried as an unevaluated sum of two floats. Two routes:

* ascending power series, used for x <= max(14, 1.5*nu) whenever a
  saddle-point estimate shows the alternating-series cancellation leaves
  enough of the 32 digits (always true for x <= 14; fails for large nu with
  x near nu, where the series cancels ~0.43*x digits);
* Miller's backward recurrence otherwise: run the three-term recursion
  downward from an index high enough that the unwanted solution is
  suppressed, then normalize - integer orders against the identity
  1 = J_0 + 2*sum J_2k, half-integer orders against the cancellation-free
  identity sum (2n+1) J_{n+1/2}^2 = 2x/pi. Its square root is the scale,
  and the scale is positive: the ladder starts at y = 1 past x, and
  J_nu > 0 on (0, j_{nu,1}) with j_{nu,1} > nu (DLMF 10.21(i)).

The prefactor (x/2)^nu / Gamma(nu+1) is built from exact integer/half-integer
products with a separate power-of-two exponent, so nothing overflows or
underflows silently inside the box.

Every shipped value comes from double-double. A sign, or a Newton iterate
of the zero finder, may come from the float twin _pair_float. _eval_miller
and _pair_float are one ladder in two precisions:
one shape (start index, loop, normalizations) and one a priori error model,
max(|J_nu|, |J_{nu+1}|, sqrt(2/(pi x))) * (n_steps * cancel * u + 1e-24)
with u = 2^-100 in double-double and 8 * 2^-53 in floats. The twin covers
the whole box and costs about a quarter of an _eval_miller call (41 against
170 us on random box points, 2-vCPU x86, Python 3.11); callers trust its
sign only where the value clears its bound, and take no digit from it.

The twin also comes in a batched shape, _ladder_float: one downward ladder
at x yields J_k(x) for every order k of one parity (DLMF 3.6(vi)), and
every pair (n, n + 1) it keeps gets the twin's bound with that ladder's
length. The zero census reads one such ladder per grid point for every
degree; a ladder sized for order n keeps every order up to
max(n, int(x)) + 1, because _miller_start sizes it by max(order, x).

The hot loops, the steps of _eval_miller and _series_sum, write the
double-double primitives out inline in their operation order, so they give
the primitives' bits at a fraction of the call overhead;
tests/test_golden.py pins both routes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ballspec.errors import LossOfPrecision, RangeError

X_MAX = 200.0
TWICE_NU_MAX = 240

# contract knobs (see module docstring)
_REL_CONTRACT = 1e-12
_NEAR_ZERO_FLOOR = 1e-3  # max(|v|, floor) turns the absolute clause into a ratio
_UNDERFLOW_EXP = -930  # |J| < 2^-930 ~ 1.1e-280: reject, cannot carry 12 digits
_SERIES_SAFE_LN = 30.0  # ln(prefactor * largest term) budget for the series

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


def _dd_mul_f(ah: float, al: float, f: float):
    ph, pl = _two_prod(ah, f)
    pl += al * f
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
_SQRTPI_DD = _dd_sqrt(*_PI_DD)


# ---------------------------------------------------------------------------
# exponent-tracked double-double helpers: value = (hi + lo) * 2^e


def _norm_exp(h: float, l: float, e: int):
    if h == 0.0:
        return 0.0, 0.0, 0
    ex = math.frexp(h)[1]
    if -64 < ex < 64:
        return h, l, e
    s = math.ldexp(1.0, -ex)
    return h * s, l * s, e + ex


@lru_cache(maxsize=512)
def _gamma_dd(twice_nu: int):
    """Gamma(nu + 1) as (hi, lo, exp2) for 2*nu = twice_nu."""
    n, parity = divmod(twice_nu, 2)
    if parity:
        # Gamma(n + 3/2) = sqrt(pi) * prod_{j=1..n+1} (2j-1)/2
        gh, gl = _SQRTPI_DD
        e = 0
        for j in range(1, n + 2):
            gh, gl = _dd_mul_f(gh, gl, (2 * j - 1) * 0.5)
            gh, gl, e = _norm_exp(gh, gl, e)
    else:
        gh, gl, e = 1.0, 0.0, 0
        for j in range(2, n + 1):
            gh, gl = _dd_mul_f(gh, gl, float(j))
            gh, gl, e = _norm_exp(gh, gl, e)
    return gh, gl, e


def _prefactor(twice_nu: int, x: float):
    """(x/2)^nu / Gamma(nu+1) as (hi, lo, exp2)."""
    n, parity = divmod(twice_nu, 2)
    half_x = 0.5 * x  # exact
    ph, pl, e = 1.0, 0.0, 0
    bh, bl, be = half_x, 0.0, 0
    k = n
    while k:
        if k & 1:
            ph, pl = _dd_mul(ph, pl, bh, bl)
            e += be
            ph, pl, e = _norm_exp(ph, pl, e)
        k >>= 1
        if k:
            bh, bl = _dd_mul(bh, bl, bh, bl)
            be += be
            bh, bl, be = _norm_exp(bh, bl, be)
    if parity:
        sh, sl = _dd_sqrt(half_x, 0.0)
        ph, pl = _dd_mul(ph, pl, sh, sl)
        ph, pl, e = _norm_exp(ph, pl, e)
    gh, gl, ge = _gamma_dd(twice_nu)
    qh, ql = _dd_div(ph, pl, gh, gl)
    qh, ql, e = _norm_exp(qh, ql, e - ge)
    return qh, ql, e


# ---------------------------------------------------------------------------
# route selection


def _series_cancel_ln(twice_nu: int, x: float) -> float:
    """Estimate ln(prefactor * largest series term) via the saddle point.

    The alternating sum sum_k (-x^2/4)^k / (k! (nu+1)_k) peaks near
    k* = (sqrt(nu^2 + x^2) - nu)/2; the result J_nu loses roughly this many
    e-folds to cancellation relative to the peak term times the prefactor.
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
    if x > max(14.0, 0.75 * twice_nu):
        return False
    return _series_cancel_ln(twice_nu, x) <= _SERIES_SAFE_LN


# ---------------------------------------------------------------------------
# ascending series route


def _series_sum(twice_nu: int, x: float):
    """Scaled series S = sum_k (-q)^k / (k! (nu+1)_k), q = x^2/4.

    Returns (sh, sl, cmax, nterms); J_nu = prefactor * S. The step is
    t *= -q / (k (nu + k)); s += t with _dd_mul, _dd_div_f and _dd_add
    written out inline, operation for operation (see _eval_miller).
    """
    splitter = _SPLITTER
    nu = 0.5 * twice_nu  # exact
    qh, ql = _two_prod(x, x)
    qh *= -0.25  # exact scaling by power of two
    ql *= -0.25
    u = splitter * qh
    qa = u - (u - qh)  # Dekker split of qh, loop-invariant
    qb = qh - qa
    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    cmax = 1.0
    for k in range(1, 501):
        denom = k * (nu + k)  # exact: both factors small integers/halves
        # t = t * (-x^2/4)
        u = splitter * th
        ta = u - (u - th)
        tb = th - ta
        p = th * qh
        e = ((ta * qa - p) + ta * qb + tb * qa) + tb * qb
        e += th * ql + tl * qh
        th = p + e
        tl = e - (th - p)
        # t = t / denom
        q1 = th / denom
        u = splitter * q1
        ta = u - (u - q1)
        tb = q1 - ta
        p = q1 * denom
        e = (ta * denom - p) + tb * denom
        q2 = ((th - p) + (tl - e)) / denom
        th = q1 + q2
        tl = q2 - (th - q1)
        # s = s + t
        u = sh + th
        bb = u - sh
        e = (sh - (u - bb)) + (th - bb)
        e += sl + tl
        sh = u + e
        sl = e - (sh - u)
        a = abs(th)
        if a > cmax:
            cmax = a
        elif a < 1e-34 * cmax:
            return sh, sl, cmax, k
    raise LossOfPrecision(
        f"series for J(twice_nu={twice_nu}) at x={x!r} did not converge"
    )


def _eval_series(twice_nu: int, x: float):
    sh, sl, cmax, nterms = _series_sum(twice_nu, x)
    ph, pl, e = _prefactor(twice_nu, x)
    vh, vl = _dd_mul(sh, sl, ph, pl)
    vh, vl, e = _norm_exp(vh, vl, e)
    if vh != 0.0 and math.frexp(vh)[1] + e < _UNDERFLOW_EXP:
        raise LossOfPrecision(
            f"|J(twice_nu={twice_nu}, x={x!r})| underflows the accuracy floor"
        )
    value = math.ldexp(vh, e) + math.ldexp(vl, e)
    # |pref| is representable here (the underflow guard above would have
    # fired otherwise), so the absolute error bound can live in plain floats
    pref = abs(math.ldexp(ph, e))
    abs_err = pref * cmax * (nterms + 4) * 2.0**-103
    return value, abs_err


# ---------------------------------------------------------------------------
# Miller backward-recurrence route


def _ln_j_inv(n: float, x: float) -> float:
    """Rough -ln J_n(x) for n past the turning point; 0 in the wave zone."""
    if 2.0 * n <= math.e * x:
        return 0.0
    return n * (math.log(2.0 * n / x) - 1.0) + 0.5 * math.log(2.0 * math.pi * n)


def _miller_start(n_target: int, x: float) -> int:
    floor_idx = max(n_target, int(x) + 1)
    base = _ln_j_inv(float(floor_idx), x)
    n = max(n_target + 6, int(x) + 6)
    while _ln_j_inv(float(n), x) - base < 60.0:
        n += 8
    return n


def _eval_miller(twice_nu: int, x: float):
    """(J_nu, J_{nu+1}, abs_err) by backward recurrence in double-double.

    The ladder of _pair_float, step for step. The integer normalizer adds
    y_0 last, after 2 * sum_{k even >= 2} y_k: forming 2 * sum - y_0 moves
    the last bit of abs_err at some points.

    The step is y_{k} = (2k + 2 + parity) / x * y_{k+1} - y_{k+2} with
    _dd_mul_f, _dd_mul, _dd_add and _two_prod written out inline, operation
    for operation: CPython contracts no a*b + c into an FMA, so the bits are
    those of the primitives. The Dekker splits of 1/x (once per call) and of
    y_k (once per step) serve every product they enter; a small integer
    factor f splits into (f, 0.0), so its zero terms are left out, which
    changes no bit.
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
    for k in range(n_top - 1, -1, -1):
        # c = inv_x * f
        f = float(2 * k + 2 + parity)
        ch = inv_xh * f
        cl = (ia * f - ch) + ib * f
        cl += inv_xl * f
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
    scale = max(abs(j0), abs(j1), math.sqrt(2.0 / (math.pi * x)))
    return j0, j1, scale * ((n_top + 1) * cancel * 2.0**-100 + 1e-24)


def _pair_float(twice_nu: int, x: float):
    """(J_nu, J_{nu+1}, abs_err): the _eval_miller ladder in plain floats.

    Same start index and normalizations, one route for the whole box, and
    _eval_miller's bound with the float unit roundoff times 8 (the worst
    error on 10,000 random points of the box was 0.6 of it unscaled). For
    sign decisions only; never raises inside the box.
    """
    rescale_hi, rescale_mul = _RESCALE_HI, _RESCALE_MUL
    n_target, parity = divmod(twice_nu, 2)
    n_top = _miller_start(n_target + 1, x)
    inv_x = 1.0 / x
    y_next, y_cur = 0.0, 1.0  # y_{k+1}, y_k
    t0 = t1 = 0.0
    # sum (2k+1) y_k^2 (half-integer) or sum_{k even} y_k (integer orders)
    acc = 2.0 * n_top + 1.0 if parity else float(n_top % 2 == 0)
    acc_abs = acc
    for k in range(n_top - 1, -1, -1):
        y_next, y_cur = y_cur, (2 * k + 2 + parity) * inv_x * y_cur - y_next
        if k == n_target:
            t0, t1 = y_cur, y_next
        if parity:
            acc += (2 * k + 1) * y_cur * y_cur
        elif k % 2 == 0:
            acc += y_cur
            acc_abs += abs(y_cur)
        if abs(y_cur) > rescale_hi:
            s = rescale_mul
            y_cur, y_next, t0, t1 = y_cur * s, y_next * s, t0 * s, t1 * s
            acc *= s * s if parity else s
            acc_abs *= s
    if parity:  # y_k = c J_k, c > 0: the ladder starts past x, where J > 0
        c, cancel = math.sqrt(acc * math.pi / (2.0 * x)), 1.0
    else:  # S = y_0 + 2 sum_{k even >= 2} y_k
        c = 2.0 * acc - y_cur
        cancel = (2.0 * acc_abs - abs(y_cur)) / abs(c)
    j0, j1 = t0 / c, t1 / c
    scale = max(abs(j0), abs(j1), math.sqrt(2.0 / (math.pi * x)))
    return j0, j1, scale * ((n_top + 1) * cancel * 2.0**-50 + 1e-24)


def _ladder_float(parity: int, x: float, top: int):
    """(js, unit): js[k] = J_{k + parity/2}(x) for every k <= max(top,
    int(x)) + 1, from one _pair_float ladder at x.

    The ladder is _pair_float's for twice_nu = 2 top + parity, step for
    step: _miller_start sizes it by max(top + 1, int(x) + 1), so every
    order up to that index costs nothing more. The pair (n, n + 1) is
    within max(|J_n|, |J_{n+1}|, sqrt(2/(pi x))) * unit, _pair_float's
    bound with this ladder's length.
    """
    rescale_hi, rescale_mul = _RESCALE_HI, _RESCALE_MUL
    n_top = _miller_start(top + 1, x)
    keep = max(top, int(x)) + 1
    ys = [0.0] * (keep + 1)
    inv_x = 1.0 / x
    y_next, y_cur = 0.0, 1.0  # y_{k+1}, y_k
    acc = 2.0 * n_top + 1.0 if parity else float(n_top % 2 == 0)
    acc_abs = acc
    for k in range(n_top - 1, -1, -1):
        y_next, y_cur = y_cur, (2 * k + 2 + parity) * inv_x * y_cur - y_next
        if k <= keep:
            ys[k] = y_cur
        if parity:
            acc += (2 * k + 1) * y_cur * y_cur
        elif k % 2 == 0:
            acc += y_cur
            acc_abs += abs(y_cur)
        if abs(y_cur) > rescale_hi:
            s = rescale_mul
            y_cur, y_next = y_cur * s, y_next * s
            for i in range(k, keep + 1):
                ys[i] *= s
            acc *= s * s if parity else s
            acc_abs *= s
    if parity:
        c, cancel = math.sqrt(acc * math.pi / (2.0 * x)), 1.0
    else:
        c = 2.0 * acc - y_cur
        cancel = (2.0 * acc_abs - abs(y_cur)) / abs(c)
    return [y / c for y in ys], (n_top + 1) * cancel * 2.0**-50 + 1e-24


# ---------------------------------------------------------------------------
# public types and API


def _is_int(n) -> bool:
    """A true int: bool is an int subclass but never a degree or an index."""
    return isinstance(n, int) and not isinstance(n, bool)


@dataclass(frozen=True)
class Order:
    """Bessel order nu stored exactly as twice_nu = 2*nu (an integer)."""

    twice_nu: int

    def __post_init__(self) -> None:
        if not _is_int(self.twice_nu):
            raise RangeError(f"twice_nu must be an int, got {self.twice_nu!r}")
        if not 0 <= self.twice_nu <= TWICE_NU_MAX:
            raise RangeError(
                f"twice_nu={self.twice_nu} outside supported [0, {TWICE_NU_MAX}]"
            )

    @property
    def nu(self) -> float:
        return 0.5 * self.twice_nu

    @classmethod
    def from_l_d(cls, l: int, d: int) -> "Order":
        """Order nu = l + d/2 - 1 attached to degree l in dimension d."""
        if not _is_int(l) or not _is_int(d):
            raise RangeError(f"l and d must be ints, got l={l!r}, d={d!r}")
        if l < 0 or d < 2:
            raise RangeError(f"need l >= 0 and d >= 2, got l={l}, d={d}")
        return cls(2 * l + d - 2)


@dataclass(frozen=True)
class EvalResult:
    """A function value plus a conservative error estimate.

    est_rel_err bounds |error| / max(|value|, 1e-3); the floor folds the
    near-zero absolute allowance into one ratio (see module docstring).
    """

    value: float
    est_rel_err: float


def _validate_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or not 0.0 < x <= X_MAX:
        raise RangeError(f"x={x!r} outside supported (0, {X_MAX}]")
    return x


def _check(value: float, abs_err: float, what: str) -> EvalResult:
    est = abs_err / max(abs(value), _NEAR_ZERO_FLOOR) + 2.0**-52
    if est > _REL_CONTRACT:
        raise LossOfPrecision(f"{what}: estimated error {est:.3e} over budget")
    return EvalResult(value, est)


def _eval_pair_raw(twice_nu: int, x: float):
    """(J_nu, J_{nu+1}, abs_err0, abs_err1) with routing, no validation."""
    if _use_series(twice_nu, x) and _use_series(twice_nu + 2, x):
        v0, e0 = _eval_series(twice_nu, x)
        v1, e1 = _eval_series(twice_nu + 2, x)
        return v0, v1, e0, e1
    j0, j1, err = _eval_miller(twice_nu, x)
    return j0, j1, err, err


def _eval_single_raw(twice_nu: int, x: float):
    """(J_nu, abs_err) with routing, no validation."""
    if _use_series(twice_nu, x):
        return _eval_series(twice_nu, x)
    j0, _, err = _eval_miller(twice_nu, x)
    return j0, err


def eval_J(nu: Order, x: float) -> EvalResult:
    """J_nu(x) for 0 < x <= 200, twice_nu in [0, 240]."""
    x = _validate_x(x)
    value, abs_err = _eval_single_raw(nu.twice_nu, x)
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
    """(J_nu(x), J_{nu+1}(x)) sharing one recurrence ladder when possible."""
    x = _validate_pair(nu, x)
    v0, v1, e0, e1 = _eval_pair_raw(nu.twice_nu, x)
    tag = f"J pair(twice_nu={nu.twice_nu}, x={x!r})"
    return _check(v0, e0, tag), _check(v1, e1, tag)


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

