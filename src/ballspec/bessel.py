"""Bessel kernel: J_nu, the (J_nu, J_{nu+1}) pair, and log-gamma.

Supported box: X_MIN <= x <= X_MAX, and orders nu = twice_nu/2 with
twice_nu an int >= 0 (every order used by the ball problems is l + d/2 - 1,
so 2*nu is always an exact integer). Accuracy contract per evaluation:

    |error| <= 1e-12 * max(|value|, 1e-3)

which is the single-number form of "relative error <= 1e-12, absolute error
<= 1e-15 near zeros" (max(1e-12*v, 1e-15) == 1e-12*max(v, 1e-3)). EvalResult
carries a conservative internal estimate in the same normalization; if the
estimate cannot meet the contract the operation raises LossOfPrecision
instead of returning garbage.

Internals run in exact integer arithmetic. One route covers the box,
Miller's backward recurrence (Gautschi, SIAM Review 9, 1967): run the
three-term recursion downward from an index high enough that the unwanted
solution is suppressed, then normalize - integer orders against the
identity 1 = J_0 + 2*sum J_2k, half-integer orders against the
cancellation-free identity J_{1/2}^2 + J_{-1/2}^2 = 2/(pi x) (DLMF 10.16.1),
with J_{-1/2} one ladder step past J_{1/2}. Its square root is the scale,
and the scale is positive: the ladder starts at y = 1 past x, and
J_nu > 0 on (0, j_{nu,1}) with j_{nu,1} > nu (DLMF 10.21(i)).

The lower edge X_MIN keeps the route honest: the error model's absolute
term 1e-24 * sqrt(2/(pi x)) alone exceeds the 1e-15 floor below about
6e-19. Inside the box a value |J| < 2^-931 cannot carry 12 digits; eval_J
and eval_J_pair refuse it with LossOfPrecision, for either order of a pair,
and before any ladder where the bound (x/2)^nu / Gamma(nu+1) >= |J_nu(x)|
(DLMF 10.14.4) does, so no ladder is sized much past order 700.

_ladder is the one ladder, in fixed point on Python ints. It keeps every
y_k, so a ladder sized for order n yields J_k(x) for every order k of one
parity up to max(n, int(x)) + 1 (DLMF 3.6(vi)), each pair within
_pair_bound, its one error model: max(|J_nu|, |J_{nu+1}|, sqrt(2/(pi x)))
* unit, unit about n_steps * cancel * 2^-100 + 1e-24, a model that ROADMAP
item 4 has to prove, and then only unit changes. _eval_miller reads it at
one pair of orders for eval_J and eval_J_pair: the float nearest each
quotient. tests/test_golden.py pins _eval_miller bit for bit across the
box.

The zero finder reads the kernel at the census grid points through
_grid_sign, its census signs, and _grid_series, the (jet, value) of
every refinement in the cells around a point: Newton's target and its
derivatives (_jet), and the certificate. One rule, _certified, decides
every certified sign, of the census and of the certificate.
Past the turning point, 2x > twice_nu, both read one shared ladder per
grid point and parity (_LADDERS), sized once for int(x) + _SPAN orders,
every order of the point's wave zone and the span of its series: a sign
is that of an exact integer of the ladder, and a series is _multiply's,
by the multiplication theorem. Below the turning point the ladder's
values fall far under its absolute error, and both read the exact
ascending series instead (_ascending_sums, DLMF 10.2.2), which has a
proven bound and never underflows, at any order: J_nu(x) = (x/2)^nu /
Gamma(nu+1) S_nu(x), S_nu(x) = sum_k (-x^2/4)^k / (k! (nu+1)_k).
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from ballspec.errors import LossOfPrecision, RangeError

X_MIN = 1e-18
X_MAX = 200.0

# contract knobs (see module docstring)
_REL_CONTRACT = 1e-12
_NEAR_ZERO_FLOOR = 1e-3  # max(|v|, floor) turns the absolute clause into a ratio
_UNDERFLOW_EXP = -930  # frexp exponent below this: |J| < 2^-931, refused
_UNDERFLOW_LOG = (_UNDERFLOW_EXP - 1) * math.log(2.0)  # ln 2^-931

_P = 120  # fraction bits of the integer ladder's fixed point
_SPAN = 30  # most terms of a _multiply series: orders it reads past nu
# pi for the half-integer normalizer: floor(pi * 2^_PI_BITS)
_PI_BITS = 256
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89


# ---------------------------------------------------------------------------
# Miller backward-recurrence route


def _ln_j_inv(n: float, x: float) -> float:
    """Rough -ln J_n(x) for n past the turning point; 0 in the wave zone."""
    if 2.0 * n <= math.e * x:
        return 0.0
    return n * (math.log(2.0 * n / x) - 1.0) + 0.5 * math.log(2.0 * math.pi * n)


def _miller_start(n_target: int, x: float) -> int:
    """The first n = max(n_target, int(x)) + 6 + 8k, k >= 0, at which
    _ln_j_inv has grown by 60 from its value at max(n_target, int(x) + 1)."""
    base = _ln_j_inv(float(max(n_target, int(x) + 1)), x)
    n = max(n_target, int(x)) + 6
    while _ln_j_inv(float(n), x) - base < 60.0:
        n += 8
    return n


def _pair_bound(a: float, b: float, x: float, unit: float) -> float:
    """The ladder's a priori bound on its pair (a, b) = (J_n, J_{n+1})."""
    return max(abs(a), abs(b), math.sqrt(2.0 / (math.pi * x))) * unit


def _ladder(parity: int, x: float, n: int):
    """(ys, num, den, unit): the Miller ladder sized for order
    n + parity/2, every y_k kept. Read it as J_{k + parity/2}(x) =
    ys[k] num / den for k <= max(n, int(x)) + 1, a pair (a, b) of such
    orders within _pair_bound(a, b, x, unit).

    Fixed point with _P fraction bits: x = p / q exactly,
    ix = floor(2^_P q / p), and from y_top = 2^_P the step is
    y_k = floor(c y_{k+1} / 2^_P) - y_{k+2} with c = (2k + 2 + parity) ix.
    Its only roundings are ix's, at most x 2^-_P relative, and one floor a
    step, below one unit of a ladder whose envelope never falls under
    2^_P. The normalizers are exact integers: num / den = 1 / S with
    S = y_0 + 2 sum_{k even >= 2} y_k, or sqrt(2 / (pi x B)) with
    B = y_0^2 + y_{-1}^2 from one step past the ladder's end, as r / 2^w
    through math.isqrt and the _PI literal, to about 2^-(2 _P) relative.
    So the unit, 2^-100 a step, is a model with room to spare, which
    ROADMAP item 4 has to prove."""
    n_top = _miller_start(n + 1, x)
    p, q = x.as_integer_ratio()
    ix = (q << _P) // p
    ys = [0] * (n_top + 1)  # ys[k] = y_k
    ys[n_top] = y = 1 << _P
    y_next = 0
    c = (2 * n_top + parity) * ix  # (2k + 2 + parity) ix at k = n_top - 1
    dc = 2 * ix
    for k in range(n_top - 1, -1, -1):
        y, y_next = ((c * y) >> _P) - y_next, y
        c -= dc
        ys[k] = y
    if parity:  # y_k = s J_k, s > 0: the ladder starts past x, where J > 0
        # one step more: y_{-1} = ((c y_0) >> _P) - y_1, where c is now ix,
        # as the factor 2k + 2 + parity is 1 at k = -1
        t = p * _PI * (y * y + (((c * y) >> _P) - y_next) ** 2)
        # r = 2^w sqrt(2 / (pi x B)) to about 2 _P bits
        w = (4 * _P + t.bit_length() - q.bit_length() - _PI_BITS) // 2
        num, den = math.isqrt((q << (_PI_BITS + 2 * w + 1)) // t), 1 << w
        cancel = 1.0
    else:  # S = y_0 + 2 sum_{k even >= 2} y_k
        even = ys[::2]
        num, den = 1, 2 * sum(even) - ys[0]
        cancel = (2 * sum(map(abs, even)) - abs(ys[0])) / abs(den)
    # a priori model: noise grows with ladder length and any cancellation
    # in the normalizer; truncation of the start index adds ~e^-60 relative
    return ys, num, den, (n_top + 1) * cancel * 2.0**-100 + 1e-24


def _multiply(ladder, x0: float, twice_nu: int):
    """(pair, value): J near x0 past the turning point, 2 x0 > twice_nu,
    from the _ladder at x0 sized for order n + _SPAN or more, nu = n +
    parity/2, by the multiplication theorem (DLMF
    10.23.1; for J it holds at every x/x0 > 0): J_mu(x) = (x/x0)^mu P_mu(w),
    P_mu(w) = sum_k (-w)^k / k! J_{mu+k}(x0), w = (x^2 - x0^2) / (2 x0).
    pair(x) is the float sums (J_nu(x), J_{nu+1}(x)), an estimate, over
    the floats nearest the quotients ys[n+k] num / den (int / int rounds
    once), so pair(x0) is those floats at k = 0, 1 bit for bit. value(z,
    l) returns at: at(i) is (v, err) at the i-th of the four midpoints x
    between consecutive floats from two below z to two above, in ascending
    order, so at(1) and at(2) lie around z and at(0) and at(3) 3/2 ulp
    out. v is the float of f(x), x taken exactly, within err of it;
    f = J_nu at l = 0, else g = (l/x) J_nu - J_{nu+1}, for an int l.

    value sums P_nu, P_{nu+1} (g: P_{nu+2}) at z in fixed point, and reaches a
    midpoint delta = (x^2 - z^2) / (2 x0) away in w by P_mu(w + delta) =
    P_mu(w) - delta P_{mu+1}(w) + R, as P_mu' = -P_{mu+1}. C_0 = 2^_P and
    C_k = floor(C_{k-1} (-w) / k), -w rounded down to a unit, lie within
    2 e^|w| units of 2^_P (-w)^k / k!, and the sums of C_k y are exact. So
    a sum's error has three parts: its terms' _pair_bound, at most lad,
    that of its largest value, times sum |c_k| <= e^|w|; the coefficients'
    rounding; and the tail. B_mu = min(1, (x0/2)^mu / Gamma(mu+1)) bounds
    |J_mu(x0)| (DLMF 10.14.1, 10.14.4) and does not increase in mu (it is 1
    while x0/2 > mu + 1, as Gamma(mu+1) <= (mu+1)^mu), so once 2|w| <= k + 1
    the tail past k terms is at most 2 |c_k| B_{nu+k}. R = int int P_{nu+2},
    and |P_{nu+2}(w)| <= e^|w| M, M the largest |J_mu(x0)|, mu >= nu + 2:
    so |R| <= delta^2 e^(|w| + delta) M, M from the ladder's span, each
    value plus lad, and B_{nu+_SPAN+2} past it. The sum stops once its
    tail is below half the ladder part, a bound relative to the values it
    sums, or at _SPAN terms, the most a census cell needs."""
    ys, num, den, unit = ladder
    n = twice_nu // 2
    nu, half = 0.5 * twice_nu, 0.5 * x0
    # J_{nu+k}(x0) for k <= _SPAN + 1, each the float nearest its quotient
    js = [y * num / den for y in ys[n:n + _SPAN + 2]]
    top = max(map(abs, js))
    small = 2.0**-56 * (abs(js[0]) + abs(js[1])) / top  # pair's last |c_k|
    lad = _pair_bound(top, 0.0, x0, unit)  # at least each term's bound
    lim = 0.25 * lad  # a tail below 2 lim ends the sum
    # (x0/2)^nu / Gamma(nu+1): with |c_k| it bounds the tail terms
    power = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    # M of the remainder: the span's values plus lad, then B_{nu+_SPAN+2}
    rem = max(max(map(abs, js[2:])) + lad, min(1.0, math.exp(
        (nu + _SPAN + 2) * math.log(half) - math.lgamma(nu + _SPAN + 3.0))))
    p0, q0 = x0.as_integer_ratio()

    def pair(x: float):
        w = (x - x0) * (x + x0) / (2.0 * x0)
        s0, s1, c = 0.0, 0.0, 1.0  # the sums and c_k
        for k in range(_SPAN):
            s0, s1 = s0 + c * js[k], s1 + c * js[k + 1]
            c *= -w / (k + 1)
            if -small < c < small:
                break
        return (x / x0) ** nu * s0, (x / x0) ** (nu + 1.0) * s1

    def value(z: float, l: int):
        # points as integers over 2q: z = zz / 2q, x0 = xx / 2q; -w at z
        # is wn / wd, and a midpoint's w lies dn / wd past it
        mids, zq, q = _midpoints(z, q0)
        zz, xx = 2 * zq, 2 * p0 * (q // q0)
        wn, wd = xx * xx - zz * zz, 4 * q * xx
        aw = abs(wn / wd)
        mw = (wn << _P) // wd  # -w 2^_P, within one unit
        cs = [1 << _P]  # C_j, j < max(k, 1)
        c, u, k = 1.0, power, 0  # |c_k|, |c_k| (x0/2)^(nu+k) / Gamma(nu+k+1)
        while (c > lim < u or 2.0 * aw > k + 1) and k < _SPAN:
            if k:
                cs.append(((cs[-1] * mw) >> _P) // k)
            k += 1
            r = aw / k
            c, u = c * r, u * r * half / (nu + k)
        tail = 2.0 * min(c, u) if 2.0 * aw <= k + 1 else math.inf
        grow = math.exp(aw)
        bound = lad * grow + top * 2 * k * grow * 2.0**-_P + tail
        t0, t1 = (sum(map(mul, cs, ys[n + i:n + i + k])) for i in range(2))
        if l:  # only g reads P_{nu+2}
            t2 = sum(map(mul, cs, ys[n + 2:n + 2 + k]))

        def at(i: int):
            mm = mids[i]
            dn = mm * mm - zz * zz
            d = abs(dn / wd)
            err = (bound * (1.0 + d) + d * d * math.exp(aw + d) * rem) * (
                1.0 + 2.0**-20)
            x = mm / (2 * q)
            lam = (x / x0) ** nu  # > 0, within (nu + 3) 2^-52 relative
            if l == 0:
                v = (wd * t0 - dn * t1) * num / ((den * wd) << _P) * lam
                err *= lam
            else:  # g / lam = t num / (den mm xx wd 2^_P)
                t = (2 * q * l * xx * (wd * t0 - dn * t1)
                     - mm * mm * (wd * t1 - dn * t2))
                v = t * num / ((den * mm * xx * wd) << _P) * lam
                err *= lam * (l / x + x / x0)
            return v, err + abs(v) * (nu + 4.0) * 2.0**-51

        return at

    return pair, value


def _midpoints(z: float, q: int):
    """(mids, zq, q'): the four midpoints between consecutive floats from two
    below z to two above, ascending, each mids[i] / (2 q'), and z = zq / q',
    q' the largest of q and the floats' denominators, powers of two."""
    below, above = math.nextafter(z, 0.0), math.nextafter(z, math.inf)
    ends = (math.nextafter(below, 0.0), below, z, above,
            math.nextafter(above, math.inf))
    ratios = [t.as_integer_ratio() for t in ends]
    q = max(q, *(d for _, d in ratios))
    tq = [t * (q // d) for t, d in ratios]  # each end times q
    return [a + b for a, b in zip(tq, tq[1:])], tq[2], q


def _ascending_sums(twice_nu: int, p: int, q: int):
    """(a, b, err, bits): a and b within err of 2^bits S_nu(x) and 2^bits
    S_{nu+1}(x) at x = p / q > 0, q a power of two, nu = twice_nu/2, where
    S_mu(x) = sum_k (-x^2/4)^k / (k! (mu+1)_k), so that J_mu(x) = (x/2)^mu
    / Gamma(mu+1) S_mu(x) (DLMF 10.2.2), and S_nu > 0 below j_{nu,1} > nu.

    Fixed point with bits = _P + floor(x) fraction bits, which cover the
    sum's cancellation below the turning point, log2 of I_nu(x) / J_nu(x),
    about 0.77 x bits at x = nu and less below. From t_0 = 2^bits each term
    is t_k = floor(-t_{k-1} r_k), r_k = x^2 / c_k, c_k = 2k (twice_nu + 2k),
    one floor a term, so its error e_k <= r_k e_{k-1} + 1, which is counted
    in integers, rounded up; S_{nu+1}'s ratios are smaller, and so are its
    errors. The sums end at the first t_K = 0. There |t_{K-1}| r_K < 1, so
    r_K < 1, and as r_k decreases in k, the terms past K decrease and
    alternate: by Leibniz their sum is at most the first, below the K-th,
    which is within e_K of t_K = 0. So err = e_1 + ... + e_K + e_K."""
    s = 2 * (q.bit_length() - 1)  # x^2 = p^2 / 2^s
    mpp = -p * p
    bits = _P + p // q
    t = u = a = b = 1 << bits
    e = err = k = 0
    while t:
        k += 1
        c = 2 * k * (twice_nu + 2 * k)
        t, u = (t * mpp >> s) // c, (u * mpp >> s) // (c + 4 * k)
        e = 1 - (e * mpp >> s) // c
        a, b, err = a + t, b + u, err + e
    return a, b, err + e, bits


def _ascending_target(l: int, twice_nu: int, p: int, q: int):
    """(t, e, d): the census target f at x = p / q over (x/2)^nu /
    Gamma(nu+1) is t / d, within e / d, from _ascending_sums: S_nu at l =
    0, else (l/x) S_nu - x / (twice_nu + 2) S_{nu+1} for g = (l/x) J_nu -
    J_{nu+1}. d > 0, so t has f's sign."""
    a, b, err, bits = _ascending_sums(twice_nu, p, q)
    if l == 0:
        return a, err, 1 << bits
    w = l * q * q * (twice_nu + 2)
    return (w * a - p * p * b, (w + p * p) * err,
            (p * q * (twice_nu + 2)) << bits)


def _ascending(twice_nu: int):
    """(pair, value) of _multiply's contract below the turning point, each
    value of f over (x/2)^nu / Gamma(nu+1) at its own point x, a positive
    factor that may lie past the float range: S_nu(x) at l = 0, else (l/x)
    S_nu(x) - x / (twice_nu + 2) S_{nu+1}(x). A positive factor at each
    point moves no sign and no Newton step f / f'. pair's floats
    are rounded from _ascending_sums at x, as float sums of S_nu cancel
    near x = nu, and each of value's at(i) is _ascending_target at its
    midpoint."""

    def pair(x: float):
        a, b, _, bits = _ascending_sums(twice_nu, *x.as_integer_ratio())
        return a / (1 << bits), x / (twice_nu + 2) * (b / (1 << bits))

    def value(z: float, l: int):
        mids, _, q = _midpoints(z, 1)

        def at(i: int):
            t, e, d = _ascending_target(l, twice_nu, mids[i], 2 * q)
            v = t / d  # int / int rounds once
            return v, e / d * (1.0 + 2.0**-20) + abs(v) * 2.0**-52

        return at

    return pair, value


# the census grid's shared ladders: (parity, x) -> (ys, num, den, unit)
_LADDERS: dict = {}


def _grid_ladder(parity: int, x: float):
    """(ys, num, den, unit): the shared _ladder at the census grid point x,
    sized for int(x) + _SPAN orders, every order n < x and its series."""
    if (parity, x) not in _LADDERS:
        _LADDERS[parity, x] = _ladder(parity, x, int(x) + _SPAN)
    return _LADDERS[parity, x]


def _certified(v, err) -> int:
    """+1 or -1, the sign of a value v within err of the truth, else 0
    where err covers it: the one rule of every certified sign, the census
    signs' (exact integers) and the certificate's (floats)."""
    return 0 if abs(v) <= err else 1 if v > 0 else -1


def _grid_sign(l: int, twice_nu: int, x: float) -> int:
    """+1 or -1, the sign of the census target at the grid point x where
    its error bound cannot flip it, else 0. x = p / q. Below the turning
    point, 2x <= twice_nu, of _ascending_target's t. Past it, of the grid
    ladder's y_n for J_nu = y_n num / den, else of t = l q y_n - p y_{n+1},
    g = t num / (den p), each bound by _pair_bound in ladder units, weighted
    by l q + p for g. No integer rounds or underflows."""
    n, parity = divmod(twice_nu, 2)
    p, q = x.as_integer_ratio()
    if 2.0 * x <= twice_nu:
        v, bound, _ = _ascending_target(l, twice_nu, p, q)
    else:
        ys, num, den, unit = _grid_ladder(parity, x)
        a, b = ys[n], ys[n + 1]
        v, w = (l * q * a - p * b, l * q + p) if l else (a, 1)
        # the bound times ud f: e / f = sqrt(2 / (pi x)) den / num
        e, f = math.sqrt(2.0 / (math.pi * x)).as_integer_ratio()
        e, f = e * den, f * num
        un, ud = unit.as_integer_ratio()
        v, bound = v * ud * f, w * un * max(max(abs(a), abs(b)) * f, e)
    return _certified(v, bound)


def _jet(l: int, nu: float, x: float, a: float, b: float,
         ratio: bool = False):
    """(f, f', f'') of the key's target, J_nu at l = 0 or g at l >= 1, from
    a = J_nu(x) and b = J_{nu+1}(x): f' by the two J recursions,
    f'' by Bessel's equation for J_nu and J_{nu+1}. With ratio, of g / J_nu
    = l/x - R, R = b / a, by the Riccati equation R' = 1 - (2 nu + 1) R / x
    + R^2 of the J recursions: below the turning point, where J_nu > 0 grows
    steeply, it has g's zeros and signs and is smooth."""
    if ratio:
        r, s = b / a, (2.0 * nu + 1.0) / x
        dr = 1.0 - s * r + r * r
        return (l / x - r, -l / (x * x) - dr,
                2.0 * l / x**3 - (s * (r / x - dr) + 2.0 * r * dr))
    if l == 0:  # J' = (nu/x) J - J_{nu+1}, J'' = -J'/x - (1 - nu^2/x^2) J
        return (a, (nu / x) * a - b,
                a * (nu * (nu - 1.0) / (x * x) - 1.0) + b / x)
    # g(r) = (l/r) J_nu - J_{nu+1}, whose derivative is
    # g' = J_nu (l(nu-1)/r^2 - 1) + J_{nu+1} (nu+1-l)/r
    return ((l / x) * a - b,
            (l * (nu - 1.0) / (x * x) - 1.0) * a + (nu + 1.0 - l) / x * b,
            (a * (l * (nu - 1.0) * (nu - 2.0) / (x * x) + 1.0 - l) / x
             + b * (1.0 - ((nu + 1.0) * (nu + 2.0) - 3.0 * l) / (x * x))))


def _grid_series(l: int, twice_nu: int, x: float):
    """(jet, value) of the census key (l, twice_nu) around the grid point
    x. The one turning-point test picks the series and the Newton target
    that suits it: below the turning point, 2x <= twice_nu, _ascending,
    and g / J_nu for l >= 1; past it, _multiply of the grid ladder at x,
    and the key's own target. jet(z) is _jet's (f, f', f'') of the target
    from the series' float pair at z, _jet looked up at each call, and
    value(z) is the series' value(z, l) (_multiply's contract): the key is
    bound in both."""
    below = 2.0 * x <= twice_nu
    pair, value = (_ascending(twice_nu) if below else
                   _multiply(_grid_ladder(twice_nu % 2, x), x, twice_nu))
    nu, ratio = 0.5 * twice_nu, l > 0 and below
    return (lambda z: _jet(l, nu, z, *pair(z), ratio), lambda z: value(z, l))


def _eval_miller(twice_nu: int, x: float):
    """(J_nu, J_{nu+1}, abs_err) from the _ladder sized for the order:
    each value is the float nearest its quotient (int / int rounds once)."""
    n, parity = divmod(twice_nu, 2)
    ys, num, den, unit = _ladder(parity, x, n)
    j0, j1 = ys[n] * num / den, ys[n + 1] * num / den
    return j0, j1, _pair_bound(j0, j1, x, unit)


# ---------------------------------------------------------------------------
# public types and API


def _is_int(n) -> bool:
    """A true int: bool is an int subclass but never a degree or an index."""
    return isinstance(n, int) and not isinstance(n, bool)


def _check_int(name: str, n, minimum: int) -> None:
    """The one integer-parameter check: n must be a true int >= minimum."""
    if not _is_int(n) or n < minimum:
        raise RangeError(f"{name} must be an int >= {minimum}, got {_repr(n)}")


def _repr(n) -> str:
    """repr(n) in a refusal's text, or for an int past CPython's int-to-str
    digit limit, which repr refuses, "<k digits>" with a minus sign if n <
    0: with K the nearest integer to log10|n|, 10^(K-1) < |n| < 10^(K+1),
    so k is K + 1 if |n| >= 10^K, else K."""
    try:
        return repr(n)
    except ValueError:
        k = round(math.log10(abs(n)))
        return f"{'-' * (n < 0)}<{k + (abs(n) >= 10**k)} digits>"


class Order(namedtuple("Order", "twice_nu")):
    """Bessel order nu stored exactly as twice_nu = 2*nu (an integer)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_int("twice_nu", self.twice_nu, 0)
        return self

    def __repr__(self) -> str:
        return f"Order(twice_nu={_repr(self.twice_nu)})"

    @property
    def nu(self) -> float:
        """twice_nu / 2; RangeError past the float range."""
        try:
            return 0.5 * self.twice_nu
        except OverflowError:
            raise RangeError("nu lies past the float range") from None

    @classmethod
    def from_l_d(cls, l: int, d: int) -> "Order":
        """Order nu = l + d/2 - 1 attached to degree l in dimension d."""
        _check_int("l", l, 0)
        _check_int("d", d, 2)
        return cls(2 * l + d - 2)


def _check_order(nu) -> None:
    """The one order check of every entry point: nu must be an Order."""
    if not isinstance(nu, Order):
        raise RangeError(f"nu must be an Order, got {nu!r}")


class EvalResult(namedtuple("EvalResult", "value est_rel_err")):
    """A function value plus a conservative error estimate.

    est_rel_err bounds |error| / max(|value|, 1e-3); the floor folds the
    near-zero absolute allowance into one ratio (see module docstring).
    """

    __slots__ = ()


def _validate_x(x: float) -> float:
    x = float(x)
    if not X_MIN <= x <= X_MAX:  # also refuses nan
        raise RangeError(f"x={x!r} outside supported [{X_MIN}, {X_MAX}]")
    return x


def _check(value: float, abs_err: float, what: str, twice_nu: int,
           x: float) -> EvalResult:
    est = abs_err / max(abs(value), _NEAR_ZERO_FLOOR) + 2.0**-52
    if est > _REL_CONTRACT:  # the message is formatted only here
        raise LossOfPrecision(f"{what}(twice_nu={twice_nu}, x={x!r}): "
                              f"estimated error {est:.3e} over budget")
    return EvalResult(value, est)


def _check_underflow(value: float, twice_nu: int, x: float) -> None:
    """Refuse |J_nu(x)| < 2^-931. J_nu underflows only below its first
    zero, where J_nu > 0, so a computed 0.0 is an underflow too."""
    if value == 0.0 or math.frexp(value)[1] < _UNDERFLOW_EXP:
        raise LossOfPrecision(f"|J(twice_nu={_repr(twice_nu)}, x={x!r})|"
                              " underflows the accuracy floor")


def _check_bound(twice_nu: int, x: float) -> None:
    """Refuse, as _check_underflow does, an order whose DLMF 10.14.4 bound
    lies below 2^-931: its log a - b, with a slack of 2^-30 (|a| + |b| + 1)
    for 2^20 ulps of math.log and math.lgamma; past the float range, nan."""
    try:
        nu = 0.5 * twice_nu
        a, b = nu * math.log(0.5 * x), math.lgamma(nu + 1.0)
    except OverflowError:
        a = b = math.inf
    if not a - b + 2.0**-30 * (abs(a) + abs(b) + 1.0) >= _UNDERFLOW_LOG:
        _check_underflow(0.0, twice_nu, x)


def eval_J(nu: Order, x: float) -> EvalResult:
    """J_nu(x) for X_MIN <= x <= X_MAX."""
    _check_order(nu)
    x = _validate_x(x)
    _check_bound(nu.twice_nu, x)
    value, _, abs_err = _eval_miller(nu.twice_nu, x)
    _check_underflow(value, nu.twice_nu, x)
    return _check(value, abs_err, "J", nu.twice_nu, x)


def eval_J_pair(nu: Order, x: float) -> tuple[EvalResult, EvalResult]:
    """(J_nu(x), J_{nu+1}(x)) from one recurrence ladder."""
    _check_order(nu)
    x = _validate_x(x)
    tn = nu.twice_nu
    _check_bound(tn + 2, x)  # J_nu's too: the bound's log is concave in nu
    v0, v1, err = _eval_miller(tn, x)
    _check_underflow(v0, tn, x)
    _check_underflow(v1, tn + 2, x)
    return _check(v0, err, "J pair", tn, x), _check(v1, err, "J pair", tn, x)


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

