"""Certified location of Bessel-derived zeros by exhaustive sign census.

Two target families, each driven by one kernel pair evaluation per point:

* ``DirichletXi``  - zeros of the scaled radial function, which are the
  zeros j_{nu,m} of J_nu because the power prefactor never vanishes for
  r > 0;
* ``NeumannXiPrime`` - zeros of its derivative, located through
  g(r) = (l/r) J_nu(r) - J_{nu+1}(r), which shares the derivative's zeros.

The m-th zero is found by a sign census on a fixed grid, walked from a
rigorous zero-free lower bound (never from an asymptotic count), so the
returned zero is guaranteed to be the m-th one:

* first J_nu zero satisfies j_{nu,1}^2 > nu(nu+2);
* first Neumann zero (l >= 1) satisfies
  beta^2 > 2l(nu+1) / (1 + 2l(nu+1)/(nu(nu+2))), obtained from the Rayleigh
  sum of inverse squared zeros; below these bounds the targets keep a known
  sign, which seeds the scan.
* l = 0 Neumann targets reduce to -J_{nu+1} (the degree-zero derivative
  recursion), so their positive zeros use the J bound at order nu+1 and the
  scan starts with negative sign; the conventional zero at r = 0 is
  special-cased, never scanned.

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
(DEFAULT_STEP apart), with X_MAX as the last point. The first cell runs
from the scan start to the first grid point above it, the rest are grid
cells. The phase keeps zeros off the grid: by McMahon's expansion zeros of
half-integer orders approach multiples of pi/2 (j_{1/2,m} = m pi exactly),
where a common k pi/2 grid would put them on grid points. A cell widened
to the next grid point around a near-zero endpoint must show a sign flip
(else BracketFailure), and then it holds exactly one zero: three would
need two gaps above pi/2. Safeguarded Newton refines each bracket, and
every returned zero x is sign-enclosed: the target changes sign in
x +- tol*x/2.

The grid signs come from one shared float ladder per (parity, grid point),
bessel._ladder_float, which yields J_k at every order k of one parity; every
degree of either target reads it (_ladder_target). The first ladder at a
point is sized for the order that asks first, which costs what that order's
own twin call would; an order above it rebuilds the ladder once for the
whole box. So the scan costs one ladder per grid point, not one per degree
and cell, and the tail of a scan past a cutoff mostly reads ladders that
other degrees built. The enclosure probes and the edge probe of
radial_zeros read the sign from the float twin bessel._pair_float
(_sign_target). Either float sign is taken where its bound, propagated
through the target, cannot flip it, else double-double decides. So the
brackets are those of a census run wholly in double-double on the same
grid. Newton iterates run on the twin (_float_target) while it certifies
the sign, and double-double takes the last step. A
double-double Newton step that starts within h = tol*x/2 of the root lands
on the float nearest it for J, whose value does not cancel; g is formed in
floats from the rounded pair, so a Neumann zero's last bit can depend on
the Newton path. The kernel's one route, Miller's ladder, keeps the
pair's relative error near 1e-16 across the box, and the first Neumann
zeros at l = 50..53, d = 115..138, where g' is small, land within about
an ulp of the exact zero.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from ballspec import bessel
from ballspec.bessel import TWICE_NU_MAX, X_MAX, Order, _is_int
from ballspec.errors import BracketFailure, RangeError

DEFAULT_STEP = math.pi / 2  # grid spacing: the widest cell with one zero
DEFAULT_TOL = 1e-13
_TOL_FLOOR = 1e-15  # float grid + kernel noise; tighter cannot be honored
_TINY = 1e-290  # endpoint magnitudes below this trigger the widen rule


class RootKind(Enum):
    DIRICHLET_XI = "DirichletXi"
    NEUMANN_XI_PRIME = "NeumannXiPrime"


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not math.isfinite(tol) or not _TOL_FLOOR <= tol <= 1e-2:
        raise RangeError(
            f"tol={tol!r} outside supported range [{_TOL_FLOOR}, 1e-2]"
        )
    return tol


# ---------------------------------------------------------------------------
# targets: value-and-derivative callables built on one kernel pair call


def _combine(tag: str, l: int, nu: float, x: float, a: float, b: float):
    """(f, df) of the J target (tag "J") or the derivative target (tag
    "G") from a = J_nu(x) and b = J_{nu+1}(x)."""
    if tag == "J":  # J_nu' = (nu/x) J_nu - J_{nu+1}
        return a, (nu / x) * a - b
    # g(r) = (l/r) J_nu - J_{nu+1};  g'(r) from the two J recursions:
    # g' = J_nu (l(nu-1)/r^2 - 1) + J_{nu+1} (nu+1-l)/r
    return ((l / x) * a - b,
            a * (l * (nu - 1.0) / (x * x) - 1.0) + b * ((nu + 1.0 - l) / x))


def _target(tag: str, l: int, twice_nu: int):
    """f_df of the target from the double-double pair."""
    nu = 0.5 * twice_nu
    order = Order(twice_nu)

    def f_df(x: float):
        a, b = bessel.eval_J_pair(order, x)
        return _combine(tag, l, nu, x, a.value, b.value)

    return f_df


def _float_f(tag: str, l: int, nu: float, x: float, a: float, b: float,
             err: float):
    """(f, df, err) of the target from a float pair (a, b) within err: for
    g, err grows by the rounding of its three operations."""
    f, df = _combine(tag, l, nu, x, a, b)
    if tag == "G":
        c = l / x
        err = (c + 1.0) * err + (abs(c * a) + abs(b)) * 2.0**-51
    return f, df, err


def _float_target(tag: str, l: int, twice_nu: int):
    """f_df_err of the target from the float twin: (f, df, err), err
    bounding the error of f. Validates x as eval_J_pair does."""
    nu = 0.5 * twice_nu
    order = Order(twice_nu)

    def f_df_err(x: float):
        x = bessel._validate_pair(order, x)
        return _float_f(tag, l, nu, x, *bessel._pair_float(twice_nu, x))

    return f_df_err


# shared float ladders of the census grid: (parity, x) -> (js, unit) of
# bessel._ladder_float; a ladder sized for _LADDER_TOP covers the box
_LADDERS: dict = {}
_LADDER_TOP = TWICE_NU_MAX // 2 - 1


def _ladder_target(tag: str, l: int, twice_nu: int):
    """f_df_err of the target at a grid point x, read from the shared ladder
    of the order's parity at x (bessel._ladder_float). The first ladder at
    x is sized for the asking order; an order above it rebuilds the ladder
    once for the whole box."""
    n, parity = divmod(twice_nu, 2)
    nu = 0.5 * twice_nu

    def f_df_err(x: float):
        ladder = _LADDERS.get((parity, x))
        if ladder is None or len(ladder[0]) < n + 2:
            top = n if ladder is None else max(n, _LADDER_TOP)
            ladder = _LADDERS[parity, x] = bessel._ladder_float(parity, x, top)
        js, unit = ladder
        a, b = js[n], js[n + 1]
        err = max(abs(a), abs(b), math.sqrt(2.0 / (math.pi * x))) * unit
        return _float_f(tag, l, nu, x, a, b, err)

    return f_df_err


def _certified(f_df_err, f_df):
    """f for sign decisions: the float value when |f| exceeds its error,
    else the double-double value (the same sign either way)."""

    def f(x: float) -> float:
        v, _, err = f_df_err(x)
        return v if abs(v) > err else f_df(x)[0]

    return f


def _sign_target(tag: str, l: int, twice_nu: int):
    """f of the target for sign decisions at any x, from the float twin."""
    return _certified(_float_target(tag, l, twice_nu),
                      _target(tag, l, twice_nu))


def _scan_start(tag: str, l: int, twice_nu: int) -> tuple[float, int]:
    """(start, sign): the target has sign ``sign`` throughout (0, start].

    The one place that knows where a scan starts: the first census cell
    ends at the first grid point above it.
    """
    if tag == "J":
        # j_{nu,1}^2 > nu(nu+2); shrink a hair so float rounding stays safe
        return math.sqrt(twice_nu * (twice_nu + 4)) * 0.5 * (1.0 - 1e-9), 1
    if l == 0:
        # derivative target is exactly -J_{nu+1}: negative near 0+
        return _scan_start("J", 0, twice_nu + 2)[0], -1
    # beta_{l,1}^2 > 2l(nu+1) / (1 + 2l(nu+1)/(nu(nu+2))) for l >= 1
    a = l * (twice_nu + 2)  # = 2l(nu+1)
    dsq = twice_nu * (twice_nu + 4) / 4.0  # = nu(nu+2)
    return math.sqrt(a / (1.0 + a / dsq)) * (1.0 - 1e-9), 1


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


def _grid_cells(f, parity: int, start: float, start_sign: int):
    """Yield (lo, hi, sign_lo) sign-change cells of f over (start, X_MAX]:
    the first cell ends at the first grid point above start, the others
    are cells of the parity's grid.

    The target must have the sign ``start_sign`` throughout (0, start]
    (start may be 0 for targets positive near the origin).
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
# refinement: bracket-safeguarded Newton with a verified enclosure


def _refine(tag: str, l: int, twice_nu: int, lo: float, hi: float,
            sign_lo: int, tol: float) -> float:
    """Zero in the sign-change bracket (lo, hi), sign-enclosed within tol.

    Newton from the midpoint; a step that leaves the bracket, or is more
    than half the step before last (so a bad derivative cannot stall the
    loop), becomes a bisection. The iterates run on the float twin
    (_float_target) while it certifies the sign of f, so the bracket only
    moves on certified signs; at the first point where it does not, or
    once a step falls below h = tol*x/2, double-double (_target) takes
    over from that point. A double-double step below h lands on x, which
    is returned only once the target changes sign within [x - h, x + h]
    (probes through _sign_target). So every returned zero is a
    double-double Newton step or a certified probe.
    """
    f_df_err = _float_target(tag, l, twice_nu)
    f_df = _target(tag, l, twice_nu)
    f_sign = _sign_target(tag, l, twice_nu)
    x = 0.5 * (lo + hi)
    dx_old = dx_older = hi - lo
    twin = True
    for _ in range(100):
        if twin:
            f, df, err = f_df_err(x)
            if not abs(f) > err:  # sign not certified: double-double from x
                twin = False
                continue
        else:
            f, df = f_df(x)
            if f == 0.0:
                return x
        lo, hi = (x, hi) if (f > 0.0) == (sign_lo > 0) else (lo, x)
        x_new = x - f / df if df != 0.0 else math.inf
        if not lo <= x_new <= hi or abs(x_new - x) > 0.5 * dx_older:
            x_new = 0.5 * (lo + hi)
        h = 0.5 * tol * x_new
        if abs(x_new - x) <= h:
            if twin:  # converged in floats: double-double from x_new
                twin = False
            else:
                for p in (x_new - h, x_new + h):
                    if lo < p < hi:
                        fp = f_sign(p)
                        if fp == 0.0:
                            return p
                        lo, hi = ((p, hi) if (fp > 0.0) == (sign_lo > 0)
                                  else (lo, p))
                if x_new - h <= lo and hi <= x_new + h:
                    return x_new
                x_new = 0.5 * (lo + hi)  # the root lies beyond a probe
        dx_older, dx_old = dx_old, abs(x_new - x)
        x = x_new
    raise BracketFailure(
        f"refinement stalled in [{lo!r}, {hi!r}] at tol={tol!r}; "
        "kernel accuracy may be insufficient"
    )


# ---------------------------------------------------------------------------
# census: m-th zero via cached incremental scanning


@lru_cache(maxsize=8192)
def _census_bracket(tag: str, l: int, twice_nu: int, m: int):
    """Sign-change cell of the m-th positive zero: (lo, hi, sign_lo), None
    past the box."""
    if m > 1:
        prev = _census_bracket(tag, l, twice_nu, m - 1)
        if prev is None:
            return None
        start, sign = prev[1], -prev[2]
    else:
        start, sign = _scan_start(tag, l, twice_nu)
    f = _certified(_ladder_target(tag, l, twice_nu), _target(tag, l, twice_nu))
    return next(_grid_cells(f, twice_nu % 2, start, sign), None)


@lru_cache(maxsize=8192)
def _census_zero(tag: str, l: int, twice_nu: int, m: int, tol: float):
    cell = _census_bracket(tag, l, twice_nu, m)
    if cell is None:
        raise RangeError(
            f"zero #{m} of {tag}(l={l}, twice_nu={twice_nu}) lies beyond "
            f"the supported box x <= {X_MAX}"
        )
    return _refine(tag, l, twice_nu, *cell, tol)


def _key(kind: RootKind, l: int, d: int) -> tuple[str, int, int]:
    """Checked census key (tag, l, twice_nu); J zeros depend on l only
    through the order, so their key carries l = 0."""
    if not isinstance(kind, RootKind):
        raise RangeError(f"kind must be a RootKind, got {kind!r}")
    _check_l_d(l, d)
    twice_nu = 2 * l + d - 2
    if kind is RootKind.NEUMANN_XI_PRIME:
        return "G", l, twice_nu
    return "J", 0, twice_nu


def _first_zero_lower(kind: RootKind, l: int, d: int) -> float:
    """Lower bound on the first zero find_zero counts, increasing in l."""
    tag, l_key, twice_nu = _key(kind, l, d)
    if tag == "G" and l == 0:
        return 0.0  # the conventional zero at r = 0
    return _scan_start(tag, l_key, twice_nu)[0]


# ---------------------------------------------------------------------------
# public API


def bessel_zero(nu: Order, m: int, tol: float = DEFAULT_TOL) -> float:
    """m-th positive zero j_{nu,m} of J_nu, certified by sign census."""
    if not isinstance(nu, Order):
        raise RangeError(f"nu must be an Order, got {nu!r}")
    _check_m(m)
    tol = _check_tol(tol)
    what = f"zero m={m} of J_nu at twice_nu={nu.twice_nu}"
    _check_pair(nu.twice_nu, what)
    return _zero(("J", 0, nu.twice_nu), m, tol, what)


def dirichlet_zero(l: int, d: int, m: int, tol: float = DEFAULT_TOL) -> float:
    """m-th interior-problem zero: equals j_{l+d/2-1, m} because the power
    prefactor of the scaled radial function never vanishes for r > 0."""
    key = _key(RootKind.DIRICHLET_XI, l, d)
    _check_m(m)
    tol = _check_tol(tol)
    what = f"Dirichlet zero m={m} of l={l}, d={d}"
    _check_pair(key[2], what)
    return _zero(key, m, tol, what)


def neumann_zero(l: int, d: int, m: int, tol: float = DEFAULT_TOL) -> float:
    """m-th zero of the scaled radial derivative.

    For l = 0 the count starts at the conventional zero at r = 0 (the
    ground state), so m = 1 returns exactly 0.0 and the m-th entry for
    m >= 2 is the (m-1)-th positive zero.
    """
    key = _key(RootKind.NEUMANN_XI_PRIME, l, d)
    _check_m(m)
    tol = _check_tol(tol)
    if l == 0 and m == 1:
        return 0.0
    what = f"Neumann zero m={m} of l={l}, d={d}"
    _check_pair(key[2], what)
    return _zero(key, m - 1 if l == 0 else m, tol, what)


def find_zero(kind: RootKind, l: int, d: int, m: int,
              tol: float = DEFAULT_TOL) -> float:
    """m-th zero of the (kind, l, d) target, counted as neumann_zero or
    dirichlet_zero counts it."""
    tag = _key(kind, l, d)[0]
    return (neumann_zero if tag == "G" else dirichlet_zero)(l, d, m, tol)


def radial_zeros(kind: RootKind, l: int, d: int, x_max: float) -> list[float]:
    """The zeros find_zero(kind, l, d, m), m = 1, 2, ..., in [0, x_max].

    Neumann l = 0 starts with 0.0. No zero past x_max is refined: the walk
    stops at the first bracket that starts at or past the edge
    x_max (1 + DEFAULT_TOL), or keeps its start's sign there. Refinement
    moves a zero by at most tol*z/2, so a zero past the edge would refine
    to a value past x_max.
    """
    tag, l_key, twice_nu = _key(kind, l, d)
    x_max = _check_x_max(x_max)
    bc = "Neumann" if tag == "G" else "Dirichlet"
    _check_pair(twice_nu, f"{bc} zero census of l={l}, d={d}")
    out = [0.0] if tag == "G" and l == 0 else []
    edge = x_max * (1.0 + DEFAULT_TOL)
    m = 1  # census index of the next positive zero
    while (cell := _census_bracket(tag, l_key, twice_nu, m)) is not None:
        lo, hi, sign_lo = cell
        if lo >= edge:
            break
        if hi > edge:
            f = _sign_target(tag, l_key, twice_nu)(edge)
            if abs(f) >= _TINY and (f > 0.0) == (sign_lo > 0):
                break
        z = find_zero(kind, l, d, len(out) + 1)  # out holds zeros 1..len
        if z > x_max:
            break
        out.append(z)
        m += 1
    return out


def _zero(key: tuple[str, int, int], m: int, tol: float, what: str) -> float:
    """_census_zero of the key, or a RangeError that names the caller's
    zero (what) if it lies past the box."""
    if _census_bracket(*key, m) is None:
        raise RangeError(f"{what} lies beyond the supported box x <= {X_MAX}")
    return _census_zero(*key, m, tol)


def _check_pair(twice_nu: int, what: str) -> None:
    """The census evaluates the pair (nu, nu + 1): nu + 1 must lie in the
    kernel box."""
    if twice_nu + 2 > TWICE_NU_MAX:
        raise RangeError(
            f"{what} needs Bessel order {0.5 * twice_nu + 1} beyond the "
            f"kernel box (orders up to {TWICE_NU_MAX // 2})"
        )


def _check_l_d(l: int, d: int) -> None:
    if not _is_int(l) or l < 0:
        raise RangeError(f"l must be a nonnegative int, got {l!r}")
    if not _is_int(d) or d < 2:
        raise RangeError(f"d must be an int >= 2, got {d!r}")


def _check_m(m: int) -> None:
    if not _is_int(m) or m < 1:
        raise RangeError(f"m must be a positive int, got {m!r}")


def _check_x_max(x_max: float) -> float:
    x_max = float(x_max)
    if not 0.0 < x_max <= X_MAX:
        raise RangeError(f"x_max={x_max!r} outside (0, {X_MAX}]")
    return x_max
