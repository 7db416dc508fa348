"""Certified location of Bessel-derived zeros by exhaustive sign census.

Two target families, each driven by one kernel pair evaluation per point:

* ``DirichletXi``  - zeros of the scaled radial function, which are the
  zeros j_{nu,m} of J_nu because the power prefactor never vanishes for
  r > 0;
* ``NeumannXiPrime`` - zeros of its derivative, located through
  g(r) = (l/r) J_nu(r) - J_{nu+1}(r), which shares the derivative's zeros.

The m-th zero is found by a sign census on a fixed grid, walked from the
last grid point at or below a rigorous zero-free lower bound
(_first_zero_bounds; never from an asymptotic count), so the returned zero
is guaranteed to be the m-th one. The conventional Neumann l = 0 zero at
r = 0 is never scanned.

No scan cell can hide a pair of zeros, so the census is exhaustive. With
w = sqrt(r) J_nu(r), w'' + (1 - (nu^2 - 1/4)/r^2) w = 0:

* for nu >= 1/2, Sturm comparison with sin puts consecutive zeros of J_nu
  at least pi apart; for nu = 0 they are more than 3.0 apart, because the
  coefficient stays below 1.05 past j_{0,1}. This covers the Dirichlet
  targets and the l = 0 Neumann target, which is exactly -J_{nu+1};
* for Neumann l >= 1 (so nu >= 1), the critical points of
  u = r^(1-d/2) J_nu lie past sqrt(l(l+d-2)) and each is a strict extremum,
  so exactly one of them sits between consecutive zeros of u:
  beta_m < j_m < beta_{m+1}. On (beta_m, j_m) w' changes sign, so w has a
  critical point c there, and c + pi/2 <= j_m (Sturm comparison with cos).
  Hence beta_{m+1} - beta_m > pi/2.

Any cell of width <= pi/2 therefore holds at most one zero. The census
grid has one phase per parity of twice_nu: x_k = (k + parity/2) pi/2
(DEFAULT_STEP apart), with X_MAX as the last point, and every cell runs
between grid points. The phase keeps zeros off the grid: by McMahon's
expansion zeros of half-integer orders approach multiples of pi/2
(j_{1/2,m} = m pi exactly), where a common k pi/2 grid would put them on
grid points. A cell widened to the next grid point around a near-zero
endpoint must show a sign flip (else BracketFailure), and then it holds
exactly one zero: three would need two gaps above pi/2. Safeguarded Newton
refines each bracket, and every returned zero is the float nearest it
(within half an ulp): the target changes sign between the midpoints to its
two neighbouring floats, certified from one high-precision pair
(_certificate): eval_J_pair's value + lo (g formed from it in exact
integers), the slope from the same pair by J_nu' = (nu/x) J_nu - J_{nu+1}
(DLMF 10.6.2), each bounded through dd_err and the rounding of every float
operation, and a bound on f'' through Bessel's ODE. So a zero rests on
dd_err and the zero alone, not on the Newton path or on the float phase.

One ladder path serves every float value: _grid_pair reads the pair
(J_nu, J_{nu+1}) and its bound from a bessel._ladder, which yields J_k at
every order k of one parity. It reads one shared ladder per (parity, grid
point), which every degree of either target reads (_LADDERS): sized for
the order that asks first, and rebuilt once for the whole box when an
order above it asks. So the scan costs one ladder per grid point, not one
per degree and cell, and _grid_pair is read at grid points only. One sign
rule (_sign) takes the ladder's sign where its bound, propagated through
the target, cannot flip it, else 0.0, which the widen rule takes. Newton
starts at the root of the quintic that matches (f, f', f'') at both grid
ends of the cell, read from the shared ladders (_start), typically within
1e-4 of the zero; its iterates run on the Taylor series of J_nu about the
nearer grid end (_taylor) while it certifies the sign, and high precision
(_target; _certificate) takes the last step: about one series evaluation
and one eval_J_pair call a zero. radial_zeros refines the zero of every
cell that starts below its edge and drops one past x_max, so it discards
at most one refinement a degree.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from ballspec import bessel
from ballspec.bessel import TWICE_NU_MAX, X_MAX, Order, _check_int
from ballspec.errors import BracketFailure, RangeError

DEFAULT_STEP = math.pi / 2  # grid spacing: the widest cell with one zero
DEFAULT_TOL = 1e-13
# A float step s below _HANDOVER x ends the float phase: Newton's next
# point lies about s^2/(2x) <= 2^-33 x from the zero (f''/f' = -1/x at a
# zero of J_nu). _certificate reaches a step t from there while M t^2/2,
# about 10 K t^2 in the wave zone, stays below |f'| ~ K times a quarter
# ulp, 2^-54 x: t <= 2^-29 sqrt(x). So one high-precision step certifies
# up to x = 256 > X_MAX; a smaller _HANDOVER only adds float steps
_HANDOVER = 2.0**-16
_RADIUS = 2.0**-20  # _certificate's M holds within this times x
_TINY = 1e-290  # endpoint magnitudes below this trigger the widen rule
_TERMS = 60  # a Taylor series that needs more terms hands over


class RootKind(Enum):
    DIRICHLET_XI = "DirichletXi"
    NEUMANN_XI_PRIME = "NeumannXiPrime"


# ---------------------------------------------------------------------------
# targets: value-and-derivative callables built on one kernel pair call


def _slope(tag: str, l: int, nu: float, x: float):
    """(p, r): the target's derivative is p J_nu(x) + r J_{nu+1}(x)."""
    if tag == "J":  # J_nu' = (nu/x) J_nu - J_{nu+1} (DLMF 10.6.2)
        return nu / x, -1.0
    # g(r) = (l/r) J_nu - J_{nu+1};  g'(r) from the two J recursions:
    # g' = J_nu (l(nu-1)/r^2 - 1) + J_{nu+1} (nu+1-l)/r
    return l * (nu - 1.0) / (x * x) - 1.0, (nu + 1.0 - l) / x


def _combine(tag: str, l: int, nu: float, x: float, a: float, b: float):
    """(f, df) of the J target (tag "J") or the derivative target (tag
    "G") from a = J_nu(x) and b = J_{nu+1}(x)."""
    p, r = _slope(tag, l, nu, x)
    return a if tag == "J" else (l / x) * a - b, p * a + r * b


def _curvature(tag: str, l: int, nu: float, x: float, a: float, b: float):
    """f'' of the target from a = J_nu(x) and b = J_{nu+1}(x): Bessel's
    equation for J_nu and J_{nu+1}, with their derivatives as in _slope."""
    if tag == "J":  # J_nu'' = -J_nu'/x - (1 - nu^2/x^2) J_nu
        return a * (nu * (nu - 1.0) / (x * x) - 1.0) + b / x
    return (a * (l * (nu - 1.0) * (nu - 2.0) / (x * x) + 1.0 - l) / x
            + b * (1.0 - ((nu + 1.0) * (nu + 2.0) - 3.0 * l) / (x * x)))


def _target(tag: str, l: int, twice_nu: int):
    """f_df of the target in high precision: _certificate's (f, s, e,
    nearest) at x, from eval_J_pair's pair there."""
    nu = 0.5 * twice_nu
    order = Order(twice_nu)

    def f_df(x: float):
        return _certificate(tag, l, nu, x, *bessel.eval_J_pair(order, x))

    return f_df


def _exact(r) -> tuple[int, int]:
    """r.value + r.lo of a bessel.EvalResult exactly, as (n, d): n / d with
    d a power of two."""
    (n0, d0), (n1, d1) = r.value.as_integer_ratio(), r.lo.as_integer_ratio()
    d = max(d0, d1)
    return n0 * (d // d0) + n1 * (d // d1), d


def _certificate(tag: str, l: int, nu: float, x: float, a, b):
    """(f, s, e, nearest) at a high-precision point x from its pair a, b
    (bessel.EvalResult): f, within err, is the target formed from value +
    lo, for g exactly in integers with one rounding; f'(x) lies within e
    of s; nearest(z) is True if z is certified the float nearest the zero.

    The pair alone certifies. s = p a + r b with _slope's p and r, within
    2^-50 (|p| + 1) and 2^-50 |r| of exact (three roundings at most, one
    of them of l(nu-1)/x^2 - 1); each J lies within dd_err plus its lo
    (2^-53 of the value) of the value, and s rounds twice, so with
    K = max |value| + dd_err, e = (|p| + |r|) dd_err
    + 2^-49 (|p| + |r| + 1) K. f(x + t) = f(x) + t f'(x) + R,
    |R| <= M t^2/2, must take opposite certified signs at t = z - x -+ h,
    h half the smaller gap around z. M bounds |f''| within w = x * _RADIUS
    of x: there, with q = (nu + 2)/(x - w) and (1 + q) w < 1 across the
    box, the pair grows at most e-fold from K (Gronwall on
    Y' = [[nu/s, -1], [1, -(nu+1)/s]] Y, row sums <= 1 + q), and Bessel's
    ODE bounds |f''| of either target by 6 (1 + q)^3 times the pair, so
    M = 20 (1 + q)^3 K > 6e (1 + q)^3 K. _combine's df does not enter, so
    a wrong one can cost steps but cannot move a zero.
    """
    if tag == "J":
        f, err = a.value, a.dd_err
    else:  # g = (l/x) J_nu - J_{nu+1}, exact from the pairs' hi + lo
        (an, ad), (bn, bd) = _exact(a), _exact(b)
        xn, xd = x.as_integer_ratio()
        f = (l * xd * an * bd - xn * bn * ad) / (xn * ad * bd)  # one rounding
        err = (l / x + 1.0) * a.dd_err
    err += 2.0**-52 * abs(f)  # the low part, and float sums with f
    k = max(abs(a.value), abs(b.value)) + a.dd_err
    p, r = _slope(tag, l, nu, x)
    s = p * a.value + r * b.value
    e = (abs(p) + abs(r)) * a.dd_err + 2.0**-49 * (abs(p) + abs(r) + 1.0) * k
    m = 20.0 * (1.0 + (nu + 2.0) / (x * (1.0 - _RADIUS))) ** 3 * k

    def nearest(z: float) -> bool:
        h = 0.5 * math.ulp(math.nextafter(z, 0.0))
        (v0, e0), (v1, e1) = [
            (f + t * s, err + abs(t) * e + 0.5 * m * t * t
             + 2.0**-52 * abs(t * s))
            for t in (z - x - h, z - x + h)]
        return (abs(z - x) + h <= _RADIUS * x and abs(v0) > e0
                and abs(v1) > e1 and (v0 > 0.0) != (v1 > 0.0))

    return f, s, e, nearest


# shared ladders of the census grid: (parity, x) -> (top, ys, num, den,
# unit), bessel._ladder sized for order top; top = _LADDER_TOP covers the box
_LADDERS: dict = {}
_LADDER_TOP = TWICE_NU_MAX // 2 - 1


def _grid_pair(twice_nu: int, x: float):
    """(a, b, err): the floats nearest J_nu(x) and J_{nu+1}(x) of the
    shared bessel._ladder at the census grid point x (_LADDERS), whose
    quotients lie within err (bessel._bound). The ladder is sized for the
    order that asks first, and rebuilt once for the box when an order
    above its reach asks."""
    n, parity = divmod(twice_nu, 2)
    ladder = _LADDERS.get((parity, x))
    if ladder is None or max(ladder[0], int(x)) < n:
        top = n if ladder is None else max(n, _LADDER_TOP)
        ladder = _LADDERS[parity, x] = (top, *bessel._ladder(parity, x, top))
    _, ys, num, den, unit = ladder
    a, b = ys[n] * num / den, ys[n + 1] * num / den  # one rounding each
    return a, b, bessel._bound(a, b, x, twice_nu, unit)


def _target_err(tag: str, l: int, nu: float, x: float, a: float,
                b: float, err: float):
    """(f, df, err) of the target from the pair a, b, each within err; for
    g, err grows by the rounding of its three operations."""
    f, df = _combine(tag, l, nu, x, a, b)
    if tag == "G":
        q = l / x
        err = (q + 1.0) * err + (abs(q * a) + abs(b)) * 2.0**-51
    return f, df, err


def _sign(tag: str, l: int, twice_nu: int):
    """f of the target for sign decisions at census grid points: the
    shared ladder's value where it clears its bound, else 0.0, for
    _grid_cells' widen rule."""
    nu = 0.5 * twice_nu

    def f(x: float) -> float:
        v, _, err = _target_err(tag, l, nu, x, *_grid_pair(twice_nu, x))
        return v if abs(v) > err else 0.0

    return f


def _first_zero_bounds(tag: str, l: int, twice_nu: int) -> tuple[float, float]:
    """(lower, upper) around the target's first positive zero, nu =
    twice_nu/2; OverflowError past the float range. J: nu(nu+2) <
    j_{nu,1}^2 (Watson, Treatise, ch. 15), j_{nu,1} < sqrt(nu+1)(sqrt(nu+2)
    + 1) (Chambers, Math. Comp. 38, 1982). G at l = 0 is exactly -J_{nu+1}:
    the J bounds at nu+1. G at l >= 1: beta_{l,1}^2 > 2l(nu+1) / (1 +
    2l(nu+1)/(nu(nu+2))) by the Rayleigh sum of inverse squared zeros, and
    beta_{l,1} < j_{nu,1} by the interlacing above."""
    if tag == "G" and l == 0:
        return _first_zero_bounds("J", 0, twice_nu + 2)
    nu = 0.5 * twice_nu
    upper = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    nn = twice_nu * (twice_nu + 4)  # = 4 nu(nu+2)
    if tag == "J":
        return math.sqrt(nn) * 0.5, upper
    a = l * (twice_nu + 2)  # = 2l(nu+1)
    return math.sqrt(a / (1.0 + a / (nn / 4.0))), upper


def _scan_start(tag: str, l: int, twice_nu: int) -> tuple[float, int]:
    """(start, sign), the one scan start: the target has sign ``sign`` on
    (0, start], the last grid point of the order's parity at or below the
    first zero's lower bound shrunk a hair for rounding. x_0 = 0 of the
    even grid starts J at nu = 0 and G at l = 1, nu = 1, whose zeros lie
    past pi/2; so every cell that holds a zero has both ends on the grid."""
    sign = -1 if tag == "G" and l == 0 else 1  # -J_{nu+1} near 0+
    lower = _first_zero_bounds(tag, l, twice_nu)[0] * (1.0 - 1e-9)
    half = 0.5 * (twice_nu % 2)
    k = math.floor(lower / DEFAULT_STEP - half)
    return (k + half) * DEFAULT_STEP, sign  # as _grid_points forms it


# ---------------------------------------------------------------------------
# the scan: cells of the parity's grid, yield the sign-change brackets


def _grid_points(parity: int, start: float):
    """The grid points above start, in order: x_k = (k + parity/2) pi/2 up
    to X_MAX, which is the last point."""
    k = max(0, int(start / DEFAULT_STEP - 0.5 * parity) - 1)
    while True:
        x = (k + 0.5 * parity) * DEFAULT_STEP
        if x >= X_MAX:
            if X_MAX > start:
                yield X_MAX
            return
        if x > start:
            yield x
        k += 1


# the grid points in (0, X_MAX] of either parity: no scan has more cells
_MAX_CELLS = int(X_MAX / DEFAULT_STEP) + 1


def _grid_cells(f, parity: int, start: float, start_sign: int):
    """Yield (lo, hi, sign_lo) sign-change cells of f over (start, X_MAX],
    cells of the parity's grid from the grid point start.

    The target must have the sign ``start_sign`` throughout (0, start].
    """
    prev_x = start
    prev_sign = 1 if start_sign > 0 else -1
    points = _grid_points(parity, start)
    for x in points:
        fx = f(x)
        if abs(fx) < _TINY:
            # endpoint sits on (or straddles underflow near) a zero: widen
            # to the next grid point so the zero lands strictly inside
            x2 = next(points, None)
            f2 = 0.0 if x2 is None else f(x2)
            if (f2 > 0.0) == (prev_sign > 0) or abs(f2) < _TINY:
                raise BracketFailure(
                    f"sign did not flip across near-zero endpoint x={x!r}"
                )
            yield prev_x, x2, prev_sign
            prev_x, prev_sign = x2, -prev_sign
            continue
        sign = 1 if fx > 0.0 else -1
        if sign != prev_sign:
            yield prev_x, x, prev_sign
        prev_x, prev_sign = x, sign


# ---------------------------------------------------------------------------
# refinement: bracket-safeguarded Newton to a certified nearest float


def _quintic_root(f0, d0, c0, f1, d1, c1) -> float:
    """A root t in (0, 1) of the quintic p with (p, p', p'') = (f0, d0, c0)
    at t = 0 and (f1, d1, c1) at t = 1, by Newton from the secant root,
    safeguarded by bisection; nan where f0 and f1 share a sign."""
    if (f0 > 0.0) == (f1 > 0.0):
        return math.nan
    e, k2 = f1 - f0, 0.5 * c0  # p = f0 + d0 t + k2 t^2 + ... + k5 t^5
    k3 = 10.0 * e - 6.0 * d0 - 4.0 * d1 - 3.0 * k2 + 0.5 * c1
    k4 = -15.0 * e + 8.0 * d0 + 7.0 * d1 + 3.0 * k2 - c1
    k5 = 6.0 * e - 3.0 * d0 - 3.0 * d1 - k2 + 0.5 * c1
    lo, hi, t = 0.0, 1.0, f0 / (f0 - f1)
    for _ in range(30):
        p = ((((k5 * t + k4) * t + k3) * t + k2) * t + d0) * t + f0
        lo, hi = (t, hi) if (p > 0.0) == (f0 > 0.0) else (lo, t)
        dp = (((5.0 * k5 * t + 4.0 * k4) * t + 3.0 * k3) * t
              + 2.0 * k2) * t + d0
        t_new = t - p / dp if dp != 0.0 else math.nan
        if abs(t_new - t) <= 1e-12:
            return t_new
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    return t


def _start(tag: str, l: int, twice_nu: int, lo: float, hi: float) -> float:
    """Newton's first iterate in the census cell (lo, hi): the root of the
    quintic that matches f, f' and f'' at both grid ends, read from the
    shared ladders there; the midpoint where that root leaves the cell."""
    nu = 0.5 * twice_nu

    def jets(x: float):
        a, b, _ = _grid_pair(twice_nu, x)
        return (*_combine(tag, l, nu, x, a, b),
                _curvature(tag, l, nu, x, a, b))

    (f0, d0, c0), (f1, d1, c1), h = jets(lo), jets(hi), hi - lo
    x = lo + h * _quintic_root(f0, h * d0, h * h * c0, f1, h * d1, h * h * c1)
    return x if lo < x < hi else 0.5 * (lo + hi)


def _taylor(tag: str, l: int, twice_nu: int, lo: float, hi: float):
    """f_df_err of the target in the census cell (lo, hi) from the series
    J_nu(x0 + t) = sum a_k t^k about the grid end x0 nearer x, where
    Bessel's equation gives x0^2 (k+1)(k+2) a_{k+2} = -[x0 (k+1)(2k+1)
    a_{k+1} + (k^2 + x0^2 - nu^2) a_k + 2 x0 a_{k-1} + a_{k-2}] (Glaser,
    Liu and Rokhlin, SIAM J. Sci. Comput. 29, 2007), from a_0 and a_1 of
    the shared ladder at x0. Each end's a_k are built once, as far as a
    call needs them. The sums stop once two derivative terms in a row fall
    below 2^-56 of the running magnitude M; err is 2^-48 M, an estimate
    that only has to keep Newton moving (_certificate decides every zero),
    and inf past _TERMS terms."""
    nu = 0.5 * twice_nu
    series: dict = {}  # x0 -> [0, 0, a_0, a_1, ...]

    def f_df_err(x: float):
        x0 = hi if hi - x <= x - lo else lo
        if x0 not in series:
            a, b, _ = _grid_pair(twice_nu, x0)
            series[x0] = [0.0, 0.0, a, (nu / x0) * a - b]
        cs, t = series[x0], x - x0
        j = dj = m = 0.0  # the sums of J and J', and their magnitude
        tk, small, err = 1.0, 0, math.inf  # t^(k-1); small terms in a row
        for k in range(1, _TERMS + 1):
            if len(cs) == k + 2:  # a_k, from the recurrence at k - 2
                cs.append(-(x0 * (k - 1) * (2 * k - 3) * cs[k + 1]
                            + ((k - 2) ** 2 + x0 * x0 - nu * nu) * cs[k]
                            + 2.0 * x0 * cs[k - 1] + cs[k - 2])
                          / (x0 * x0 * (k - 1) * k))
            tj, td = cs[k + 1] * tk, k * cs[k + 2] * tk  # of J and J'
            j, dj, m = j + tj, dj + td, m + abs(tj) + abs(td)
            small = small + 1 if abs(td) <= 2.0**-56 * m else 0
            if small == 2:
                err = 2.0**-48 * m
                break
            tk *= t
        return _target_err(tag, l, nu, x, j, (nu / x) * j - dj, err)

    return f_df_err


def _refine(tag: str, l: int, twice_nu: int, lo: float, hi: float,
            sign_lo: int) -> float:
    """The float nearest the zero in the census cell (lo, hi).

    Newton from _start; a step that leaves the bracket, or is more than
    half the step before last (so a bad derivative cannot stall the loop),
    becomes a bisection. The iterates run on the cell's Taylor series
    (_taylor) while its estimate certifies the sign of f, so the bracket
    only moves on certified signs; at the first point where it does not,
    or once a step taken, Newton's or a bisection's, falls below
    _HANDOVER * x, high precision (_target) takes over from that point.
    Each high-precision point steps with _certificate's slope, kept inside
    the bracket, and its step z is returned once _certificate certifies it
    the float nearest the zero. So every returned zero is a function of
    the zero alone, not of the Newton path or of _combine's df.
    """
    taylor = _taylor(tag, l, twice_nu, lo, hi)
    f_df = _target(tag, l, twice_nu)
    x = _start(tag, l, twice_nu, lo, hi)
    dx_old = dx_older = hi - lo
    floats = True  # the float phase, on the Taylor series
    for _ in range(100):
        if floats:
            f, df, err = taylor(x)
            if not abs(f) > err:  # sign not certified: high precision from x
                floats = False
                continue
        else:
            f, df, _, nearest = f_df(x)
        x_new = x - f / df if df != 0.0 else math.inf
        if not floats and lo <= x_new <= hi and nearest(x_new):
            return x_new
        lo, hi = (x, hi) if (f > 0.0) == (sign_lo > 0) else (lo, x)
        if not lo <= x_new <= hi or abs(x_new - x) > 0.5 * dx_older:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _HANDOVER * x_new:
            floats = False  # converged in floats: high precision from x_new
        dx_older, dx_old = dx_old, abs(x_new - x)
        x = x_new
    raise BracketFailure(
        f"refinement stalled in [{lo!r}, {hi!r}]; "
        "kernel accuracy may be insufficient"
    )


# ---------------------------------------------------------------------------
# census: m-th zero via cached incremental scanning


@lru_cache(maxsize=8192)
def _census_bracket(tag: str, l: int, twice_nu: int, m: int):
    """Sign-change cell of the m-th positive zero: (lo, hi, sign_lo), None
    past the box. Each zero has a cell of its own, so an m past _MAX_CELLS
    is refused before the walk recurses once per index."""
    if m > _MAX_CELLS:
        return None
    if m > 1:
        prev = _census_bracket(tag, l, twice_nu, m - 1)
        if prev is None:
            return None
        start, sign = prev[1], -prev[2]
    else:
        start, sign = _scan_start(tag, l, twice_nu)
    f = _sign(tag, l, twice_nu)
    return next(_grid_cells(f, twice_nu % 2, start, sign), None)


@lru_cache(maxsize=8192)
def _census_zero(tag: str, l: int, twice_nu: int, m: int):
    """The float nearest the m-th zero; the caller (_zero) has checked that
    its cell lies in the box."""
    return _refine(tag, l, twice_nu, *_census_bracket(tag, l, twice_nu, m))


def _key(kind: RootKind, l: int, d: int) -> tuple[str, int, int]:
    """Checked census key (tag, l, twice_nu); J zeros depend on l only
    through the order, so their key carries l = 0."""
    if not isinstance(kind, RootKind):
        raise RangeError(f"kind must be a RootKind, got {kind!r}")
    _check_int("l", l, 0)
    _check_int("d", d, 2)
    twice_nu = 2 * l + d - 2
    if kind is RootKind.NEUMANN_XI_PRIME:
        return "G", l, twice_nu
    return "J", 0, twice_nu


def _first_zero_lower(kind: RootKind, l: int, d: int) -> float:
    """Lower bound on the first zero find_zero counts, increasing in l: the
    first zero's lower bound shrunk a hair for rounding."""
    tag, l_key, twice_nu = _key(kind, l, d)
    if tag == "G" and l == 0:
        return 0.0  # the conventional zero at r = 0
    try:
        return _first_zero_bounds(tag, l_key, twice_nu)[0] * (1.0 - 1e-9)
    except OverflowError:  # an order past the float range: no zero below inf
        return math.inf


# ---------------------------------------------------------------------------
# public API


def bessel_zero(nu: Order, m: int) -> float:
    """m-th positive zero j_{nu,m} of J_nu, certified by sign census."""
    bessel._check_order(nu)
    return _zero(("J", 0, nu.twice_nu), m,
                 f"zero m={m} of J_nu at twice_nu={nu.twice_nu}")


def dirichlet_zero(l: int, d: int, m: int) -> float:
    """m-th interior-problem zero: equals j_{l+d/2-1, m} because the power
    prefactor of the scaled radial function never vanishes for r > 0."""
    return _zero(_key(RootKind.DIRICHLET_XI, l, d), m,
                 f"Dirichlet zero m={m} of l={l}, d={d}")


def neumann_zero(l: int, d: int, m: int) -> float:
    """m-th zero of the scaled radial derivative.

    For l = 0 the count starts at the conventional zero at r = 0 (the
    ground state), so m = 1 returns exactly 0.0 and the m-th entry for
    m >= 2 is the (m-1)-th positive zero.
    """
    return _zero(_key(RootKind.NEUMANN_XI_PRIME, l, d), m,
                 f"Neumann zero m={m} of l={l}, d={d}")


def find_zero(kind: RootKind, l: int, d: int, m: int) -> float:
    """m-th zero of the (kind, l, d) target, counted as neumann_zero or
    dirichlet_zero counts it."""
    tag = _key(kind, l, d)[0]
    return (neumann_zero if tag == "G" else dirichlet_zero)(l, d, m)


def radial_zeros(kind: RootKind, l: int, d: int, x_max: float) -> list[float]:
    """The zeros find_zero(kind, l, d, m), m = 1, 2, ..., in [0, x_max].

    Neumann l = 0 starts with 0.0. The walk stops at the first census
    cell that starts at or past the edge x_max (1 + DEFAULT_TOL), whose
    zero rounds to a float past x_max, or at the first refined zero past
    x_max: so at most one refined zero is discarded.
    """
    tag, l_key, twice_nu = _key(kind, l, d)
    x_max = _check_x_max(x_max)
    bc = "Neumann" if tag == "G" else "Dirichlet"
    _check_pair(twice_nu, f"{bc} zero census of l={l}, d={d}")
    out = [0.0] if tag == "G" and l == 0 else []
    edge = x_max * (1.0 + DEFAULT_TOL)
    m = 1  # census index of the next positive zero
    while ((cell := _census_bracket(tag, l_key, twice_nu, m)) is not None
           and cell[0] < edge):
        z = find_zero(kind, l, d, len(out) + 1)  # out holds zeros 1..len
        if z > x_max:
            break
        out.append(z)
        m += 1
    return out


def _zero(key: tuple[str, int, int], m: int, what: str) -> float:
    """The m-th zero of the key, counted as neumann_zero counts it: the one
    validation path of every zero request. It checks m and the order cap,
    and a RangeError names the caller's zero (what)."""
    _check_int("m", m, 1)
    tag, l, twice_nu = key
    if tag == "G" and l == 0:
        if m == 1:
            return 0.0  # the conventional zero at r = 0 needs no census
        m -= 1
    _check_pair(twice_nu, what)
    if _census_bracket(tag, l, twice_nu, m) is None:
        raise RangeError(f"{what} lies beyond the supported box x <= {X_MAX}")
    return _census_zero(tag, l, twice_nu, m)


def _check_pair(twice_nu: int, what: str) -> None:
    """The census order cap, checked here for every caller: the census
    evaluates the pair (nu, nu + 1), so nu + 1 must lie in the kernel box.
    what names the request in the caller's own parameters."""
    if twice_nu + 2 > TWICE_NU_MAX:
        # formed exactly: twice_nu may lie past the float range
        nu1 = f"{twice_nu // 2 + 1}.{5 * (twice_nu % 2)}"
        raise RangeError(
            f"{what} needs Bessel order {nu1} beyond the "
            f"kernel box (orders up to {TWICE_NU_MAX // 2})"
        )


def _check_x_max(x_max: float) -> float:
    x_max = float(x_max)
    if not 0.0 < x_max <= X_MAX:
        raise RangeError(f"x_max={x_max!r} outside (0, {X_MAX}]")
    return x_max
