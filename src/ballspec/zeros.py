"""Certified location of Bessel-derived zeros by exhaustive sign census.

A census key (l, twice_nu) names one of two targets (_key), each driven
by one kernel pair evaluation per point:

* l = 0, J_nu - the Dirichlet zeros j_{nu,m}, as the power prefactor of
  the scaled radial function never vanishes for r > 0, and the Neumann
  l = 0 zeros past the conventional one at r = 0, which is never scanned,
  at nu + 1: that derivative is -r^(1-d/2) J_{nu+1}(r) (DLMF 10.6.6);
* l >= 1, g(r) = (l/r) J_nu(r) - J_{nu+1}(r) - the Neumann zeros, which
  g shares with the radial derivative.

The m-th zero is found by a sign census on a fixed grid, walked from a
rigorous zero-free lower bound itself, never from an asymptotic count
(_first_zero_lower: for J Qu and Wong's, for g the Sturm bound below), so
the returned zero is the m-th one. Where that bound clears a cutoff, no
census runs. A census has no order cap: a request is refused only for a
zero past X_MAX.

No scan cell can hide a pair of zeros, so the census is exhaustive. With
w = sqrt(r) J_nu(r), w'' + (1 - (nu^2 - 1/4)/r^2) w = 0:

* for nu >= 1/2, Sturm comparison with sin puts consecutive zeros of J_nu
  at least pi apart; for nu = 0 they are more than 3.0 apart, because the
  coefficient stays below 1.05 past j_{0,1}. This covers every J_nu key,
  the Neumann l = 0 ones included;
* for g (Neumann l >= 1, so nu >= 1), the critical points of
  u = r^(1-d/2) J_nu lie past sqrt(l(l+d-2)) and each is a strict extremum,
  so exactly one of them sits between consecutive zeros of u:
  beta_m < j_m < beta_{m+1}. On (beta_m, j_m) w' changes sign, so w has a
  critical point c there, and c + pi/2 <= j_m (Sturm comparison with cos).
  Hence beta_{m+1} - beta_m > pi/2.

Any cell of width <= pi/2 therefore holds at most one zero. The census
grid is one table per parity of twice_nu (_GRID), which the walk and the
cell cap read: x_k = (k + parity/2) pi/2 (DEFAULT_STEP apart) below
X_MAX, and X_MAX last; a cell runs between grid points, or from the bound
to the first one past it. The phase keeps zeros off the grid: by McMahon's
expansion zeros of half-integer orders approach multiples of pi/2
(j_{1/2,m} = m pi exactly), where a common k pi/2 grid would put them on
grid points. Each zero's cell is the first sign change past the previous
zero's cell (_first_cell); one widened to the next grid point around a
near-zero endpoint must show a sign flip (else BracketFailure), and then
it holds exactly one zero: three would need two gaps above pi/2.

Safeguarded Newton refines each bracket, and every returned zero is the
float nearest it: the target takes certified opposite signs at the
midpoints to its two neighbouring floats. All values of a refinement come
from one series (bessel._grid_series: Lommel's multiplication theorem,
DLMF 10.23.1, or the ascending series below the turning point) on the
orders nu, nu + 1, ... at the cell's upper grid end, which the census
evaluated. Newton starts from the tangent at that end, the series'
centre, and steps on the jet that bessel hands with the series, (f, f',
f'') from its float sums (of g / J_nu below the turning point), inside a
float bracket of its own, bisecting a step that leaves it; the
certificate reads one fixed-point sum within its stated bound. Where a
float iterate does not certify, the same sum certifies a neighbouring
float whose two midpoints flip, else its certified signs narrow the cell,
which is bisected (_refine). So a zero rests on the kernel's error model
alone, as the census signs do, not on the Newton path.

A census sign (bessel._grid_sign) is the sign of an exact integer, where
its error bound cannot flip it, else 0, by the certificate's own rule
(bessel._certified), and the widen rule takes the 0: of the ascending
series below the turning point (2x <= twice_nu), and of bessel's one
shared ladder per (parity, grid point) past it. No census sign rounds
or underflows, at any order. Only Neumann keys l >= 1 reach below the
turning point, as every J key's census bound lies past nu; for nu >= 200
J_nu > 0 on the whole box, so by the interlacing above each such degree
has at most its first zero in the box, below the turning point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from functools import lru_cache, partial

from ballspec import bessel
from ballspec.bessel import X_MAX, Order, _check_int
from ballspec.errors import BracketFailure, RangeError

DEFAULT_STEP = math.pi / 2  # grid spacing: the widest cell with one zero


class BoundaryCondition(Enum):
    DIRICHLET = "Dirichlet"
    NEUMANN = "Neumann"


def _coerce_bc(bc) -> BoundaryCondition:
    """The library's one boundary-condition check: a BoundaryCondition, or
    its name in any case."""
    if isinstance(bc, BoundaryCondition):
        return bc
    if isinstance(bc, str):
        for member in BoundaryCondition:
            if bc.lower() == member.value.lower():
                return member
    raise RangeError(f"bc must be Dirichlet or Neumann, got {bc!r}")


def _first_zero_bounds(l: int, twice_nu: int) -> tuple[float, float]:
    """(lower, upper) around the key's first positive zero, nu =
    twice_nu/2; OverflowError past the float range. J_nu (l = 0): nu(nu+2)
    < j_{nu,1}^2 (Watson, Treatise, ch. 15), j_{nu,1} < sqrt(nu+1)(sqrt(nu+2)
    + 1) (Chambers, Math. Comp. 38, 1982). g, for l >= 1 only: beta_{l,1}^2
    > l(l+d-2) = l(twice_nu - l), the Sturm bound above, and beta_{l,1} <
    j_{nu,1} by the interlacing above."""
    nu = 0.5 * twice_nu
    upper = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    if l == 0:
        return math.sqrt(twice_nu * (twice_nu + 4)) * 0.5, upper
    return math.sqrt(l * (twice_nu - l)), upper


def _first_zero_lower(key: tuple[int, int]) -> float:
    """The census bound: below the key's first positive zero, shrunk a hair;
    inf past the float range. It starts the scan, and where it lies past a
    cutoff radial_zeros runs no census. J: Qu and Wong's nu + 1.855757
    nu^(1/3) (|a_1| 2^(-1/3) rounded down; Trans. AMS 351, 1999; DLMF
    10.21(vii)); g: Sturm's. At fixed d it increases in l,
    Neumann l = 0's key aside."""
    try:
        if key[0]:
            lower = _first_zero_bounds(*key)[0]
        else:
            nu = 0.5 * key[1]
            lower = nu + 1.855757 * nu ** (1.0 / 3.0)
        return lower * (1.0 - 1e-9)
    except OverflowError:  # an order past the float range: no zero below inf
        return math.inf


# ---------------------------------------------------------------------------
# the scan: the first sign-change cell of the parity's grid


# the census grid of each parity: x_k = (k + parity/2) pi/2 in (0, X_MAX),
# DEFAULT_STEP apart, and X_MAX last; no scan has more cells
_GRID = tuple(
    (*(x for x in ((k + 0.5 * parity) * DEFAULT_STEP
                   for k in range(int(X_MAX / DEFAULT_STEP) + 1))
       if 0.0 < x < X_MAX), X_MAX)
    for parity in (0, 1))
_MAX_CELLS = len(_GRID[0])


def _first_cell(sign_at, parity: int, start: float, sign: int):
    """(lo, hi, sign): the first cell of the parity's grid over (start,
    X_MAX] across which the target leaves the sign ``sign`` (+1 or -1),
    which it has on (0, start], start the census bound or a previous hi;
    else None. sign_at(x) is its sign at a grid point x, and a 0 there
    widens the cell to the next grid point, which must show the flip, else
    BracketFailure."""
    grid = _GRID[parity]
    lo, points = start, iter(grid[bisect_right(grid, start):])
    for x in points:
        s = sign_at(x)
        if s == 0:
            # endpoint sits on or near a zero: widen to the next grid point
            # so the zero lands strictly inside
            x2 = next(points, None)
            s2 = 0 if x2 is None else sign_at(x2)
            if s2 == 0 or (s2 > 0) == (sign > 0):
                raise BracketFailure(
                    f"sign did not flip across near-zero endpoint x={x!r}"
                )
            return lo, x2, sign
        if (s > 0) != (sign > 0):
            return lo, x, sign
        lo = x
    return None


# ---------------------------------------------------------------------------
# refinement: bracket-safeguarded Newton to a certified nearest float


def _refine(l: int, twice_nu: int, lo: float, hi: float,
            sign_lo: int) -> float:
    """The float nearest the zero in the census cell (lo, hi), every value
    from the series at hi, which the census evaluated (lo may be the census
    bound). Newton runs on the series' jet, (f, f', f'') of the target it
    suits (g / J_nu for l >= 1 below the turning point, which bessel
    picks with the series), from the tangent at hi, inside a bracket of its
    own that the float signs narrow; a step that leaves it, or has no f',
    becomes a bisection, and the phase ends once its next step, f'' s^2 /
    (2 f') for a step s, is below an ulp, once a step rounds to nothing, or
    once the bracket holds no float.
    Then an iterate z is returned once the fixed-point values at the
    midpoints to its neighbours take certified opposite signs, and a
    neighbour of z once the same pass certifies the flip between its two
    midpoints; else the certified signs narrow the cell (lo, hi), and the
    next pass reads its midpoint. This phase reads certified signs alone
    (bessel._certified), never a value, so the float phase, its signs and
    the jet's f' cannot move a zero. Bisection needs at most about 55
    passes, as a widened cell is at most pi wide and the smallest zero in
    the box, 1.841, has an ulp of 2^-52. Of the ledger sweep's 493,427
    refinements (tests/ledger_sweep.py), 36 take a second pass.
    The g / J_nu mode saves work, not zeros: over the 461 zeros of the
    Neumann spectra (d, lambda_max) = (100, 11998) and (30, 1500), 96 of
    them in the mode, Newton on g itself takes 1,969 float pairs and 1,664
    exact ascending sums, against 1,719 and 1,418, for the same floats;
    either way each zero takes one fixed-point pass.
    """
    jet, value = bessel._grid_series(l, twice_nu, hi)
    a, b, x = lo, hi, hi  # the float bracket: sign_lo at a, -sign_lo at b
    while True:  # the float phase
        f, df, ddf = jet(x)
        if (f > 0.0) == (sign_lo > 0):
            a = x
        else:
            b = x
        x_new = x - f / df if df != 0.0 else math.nan
        if x_new == x:  # a step below half an ulp, or f = 0
            break
        if not a < x_new < b:  # a step out of the float bracket, or none
            x_new = 0.5 * (a + b)
            if not a < x_new < b:  # no float left inside
                break
        elif abs(ddf) * (x_new - x) ** 2 <= abs(df) * math.ulp(x_new):
            x = x_new
            break
        x = x_new
    for _ in range(100):
        at = value(x)
        s0, s1 = bessel._certified(*at(1)), bessel._certified(*at(2))
        if s0 and s1 == -s0:
            return x
        if s1 == sign_lo:
            if bessel._certified(*at(3)) == -sign_lo:
                return math.nextafter(x, math.inf)
            lo = x  # the zero lies past the upper midpoint
        if s0 == -sign_lo:
            if bessel._certified(*at(0)) == sign_lo:
                return math.nextafter(x, 0.0)
            hi = x  # ... or below the lower one
        x = 0.5 * (lo + hi)
    raise BracketFailure(
        f"refinement stalled in [{lo!r}, {hi!r}]; "
        "kernel accuracy may be insufficient"
    )


# ---------------------------------------------------------------------------
# census: m-th zero via cached incremental scanning


@lru_cache(maxsize=8192)
def _census_bracket(l: int, twice_nu: int, m: int):
    """Sign-change cell of the m-th positive zero: (lo, hi, sign_lo), None
    past the box. Each zero has a cell of its own, so an m past _MAX_CELLS
    is refused before the walk recurses once per index."""
    if m > _MAX_CELLS:
        return None
    if m > 1:
        prev = _census_bracket(l, twice_nu, m - 1)
        if prev is None:
            return None
        start, sign = prev[1], -prev[2]
    else:
        start, sign = _first_zero_lower((l, twice_nu)), 1
    return _first_cell(partial(bessel._grid_sign, l, twice_nu),
                       twice_nu % 2, start, sign)


@lru_cache(maxsize=8192)
def _census_zero(l: int, twice_nu: int, m: int):
    """The float nearest the m-th zero; the caller (_zero) has checked that
    its cell lies in the box."""
    return _refine(l, twice_nu, *_census_bracket(l, twice_nu, m))


def _key(bc: BoundaryCondition, l: int, d: int):
    """(key, ground) of a coerced bc, l and d checked by Order.from_l_d: the
    census key (l, twice_nu), twice_nu = 2l + d - 2, and whether the ground
    state at r = 0 precedes the key's zeros."""
    twice_nu = Order.from_l_d(l, d).twice_nu
    if bc is BoundaryCondition.NEUMANN and l == 0:
        return (0, twice_nu + 2), True
    return (l if bc is BoundaryCondition.NEUMANN else 0, twice_nu), False


# ---------------------------------------------------------------------------
# public API


def bessel_zero(nu: Order, m: int) -> float:
    """m-th positive zero j_{nu,m} of J_nu, certified by sign census."""
    bessel._check_order(nu)
    return _zero((0, nu.twice_nu), False, m,
                 "zero m={} of J_nu at twice_nu={}", nu.twice_nu)


def dirichlet_zero(l: int, d: int, m: int) -> float:
    """m-th interior-problem zero: equals j_{l+d/2-1, m} because the power
    prefactor of the scaled radial function never vanishes for r > 0."""
    return _zero(*_key(BoundaryCondition.DIRICHLET, l, d), m,
                 "Dirichlet zero m={} of l={}, d={}", l, d)


def neumann_zero(l: int, d: int, m: int) -> float:
    """m-th zero of the scaled radial derivative.

    For l = 0 the count starts at the conventional zero at r = 0 (the
    ground state), so m = 1 returns exactly 0.0 and the m-th entry for
    m >= 2 is the (m-1)-th positive zero, j_{d/2, m-1}.
    """
    return _zero(*_key(BoundaryCondition.NEUMANN, l, d), m,
                 "Neumann zero m={} of l={}, d={}", l, d)


def find_zero(bc, l: int, d: int, m: int) -> float:
    """m-th zero of the (bc, l, d) target, bc a BoundaryCondition or its
    name: neumann_zero or dirichlet_zero, called by the names that
    perfbench/trace_child.py times."""
    if _coerce_bc(bc) is BoundaryCondition.NEUMANN:
        return neumann_zero(l, d, m)
    return dirichlet_zero(l, d, m)


def radial_zeros(bc, l: int, d: int, x_max: float) -> list[float]:
    """The zeros find_zero(bc, l, d, m), m = 1, 2, ..., in [0, x_max].

    Neumann l = 0 starts with 0.0; where the census bound lies past x_max,
    no census runs. The walk stops at the first cell past x_max, whose zero
    lies past x_max, so none is refined there, or at the first refined zero
    past x_max: so at most one is discarded.
    """
    bc = _coerce_bc(bc)
    key, ground = _key(bc, l, d)
    x_max = float(x_max)
    if not 0.0 < x_max <= X_MAX:
        raise RangeError(f"x_max={x_max!r} outside (0, {X_MAX}]")
    out = [0.0] if ground else []
    if _first_zero_lower(key) > x_max:
        return out  # no census zero lies in [0, x_max]: no census runs
    # out holds zeros 1..len, the last len - ground of them census zeros
    while ((cell := _census_bracket(*key, len(out) + 1 - ground)) is not None
           and cell[0] <= x_max):
        z = find_zero(bc, l, d, len(out) + 1)
        if z > x_max:
            break
        out.append(z)
    return out


def _zero(key: tuple[int, int], ground: bool, m: int, what: str,
          *fields) -> float:
    """The m-th zero of a request, its ground state at r = 0 first: the one
    validation path of every zero request. It checks m. A refusal raises
    RangeError naming its zero by the template what, which only a refusal
    formats, with m and the fields, each through bessel._repr."""
    _check_int("m", m, 1)
    if ground and m == 1:
        return 0.0  # the conventional zero at r = 0 needs no census
    n = m - 1 if ground else m  # the census index of the zero
    if _census_bracket(*key, n) is None:
        what = what.format(*map(bessel._repr, (m, *fields)))
        raise RangeError(f"{what} lies beyond the supported box x <= {X_MAX}")
    return _census_zero(*key, n)

