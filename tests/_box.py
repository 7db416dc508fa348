"""Where the supported box ends, derived for the tests.

The tests learn every edge of the box here. Each edge follows from
bessel.X_MAX (the argument box) and the bounds below; no order cap bounds
the box. The kernel serves an order at x up to last_order(x), past which
DLMF 10.14.4's bound on |J_nu(x)| lies below its 2^-931 floor. The census
refuses a zero only where it lies past X_MAX, so no spectrum cutoff up to
LAMBDA_MAX is refused, in any d. The bounds are written out again here, not
read from bessel or zeros, so that no expected edge comes from the code
under test:

* Qu and Wong: j_{nu,1} > nu + |a_1| 2^(-1/3) nu^(1/3), the constant
  rounded down to 1.855757 (Trans. AMS 351, 1999; DLMF 10.21(vii));
* Watson: j_{nu,1} > sqrt(nu (nu + 2)) (Treatise, ch. 15);
* Chambers: j_{nu,1} < sqrt(nu + 1) (sqrt(nu + 2) + 1) (Math. Comp. 38,
  1982);
* Sturm: the first zero beta_{l,1} of the Neumann target at l >= 1 exceeds
  sqrt(l (l + d - 2));
* DLMF 10.14.4: |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1).

A degree's census bound is Qu and Wong's for a J key and Sturm's for a
Neumann key l >= 1, shrunk by 1 - 1e-9; where it lies past the cutoff
radius, radial_zeros runs no census.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count

import mpmath as mp

from ballspec import bessel

from tests import _oracle

X_MAX = bessel.X_MAX
LAMBDA_MAX = int(X_MAX * X_MAX)
_SHRINK = 1.0 - 1e-9  # the census shrinks each bound by this factor


def qu_wong(twice_nu: int) -> float:
    nu = 0.5 * twice_nu
    return nu + 1.855757 * nu ** (1.0 / 3.0)


def watson(twice_nu: int) -> float:
    return math.sqrt(twice_nu * (twice_nu + 4)) * 0.5


def chambers(twice_nu: int) -> float:
    nu = 0.5 * twice_nu
    return math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)


def sturm(l: int, twice_nu: int) -> float:
    return math.sqrt(l * (twice_nu - l))


def scan_bound(l: int, twice_nu: int) -> float:
    """The census bound of the key (l, twice_nu), which its scan starts at:
    the first zero's lower bound, for J_nu (l = 0) at least Qu and Wong's,
    shrunk a hair."""
    lower = sturm(l, twice_nu) if l else max(watson(twice_nu),
                                             qu_wong(twice_nu))
    return lower * _SHRINK


def zero_upper(twice_nu: int, m: int) -> float:
    """Above j_{nu,m}, nu >= 1/2: Chambers' bound on j_{nu,1}, then m - 1
    gaps. Past j_{nu,1} the coefficient of w = sqrt(r) J_nu in w'' + (1 -
    (nu^2 - 1/4)/r^2) w = 0 is at least c = 1 - (nu^2 - 1/4)/qu_wong^2, so
    by Sturm comparison consecutive zeros lie at most pi/sqrt(c) apart."""
    nu = 0.5 * twice_nu
    c = 1.0 - (nu * nu - 0.25) / qu_wong(twice_nu) ** 2
    return chambers(twice_nu) + (m - 1) * math.pi / math.sqrt(c)


@lru_cache(maxsize=None)
def last_order(x: float) -> int:
    """The last twice_nu whose DLMF 10.14.4 bound (x/2)^nu / Gamma(nu+1) is
    at least 2^-931, the kernel's underflow floor, at 40 digits: 1378 at
    X_MAX. The log of the bound is concave in nu and 0 at nu = 0, so the
    orders it keeps are 0 up to this edge, found by bisection."""
    with mp.workdps(40):
        half, floor = mp.mpf(x) / 2, -931 * mp.log(2)

        def kept(twice_nu: int) -> bool:
            nu = mp.mpf(twice_nu) / 2
            return nu * mp.log(half) - mp.loggamma(nu + 1) >= floor

        lo, hi = 0, next(2**k for k in count() if not kept(2**k))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if kept(mid) else (lo, mid)
        return lo


def census_key(bc: str, l: int, d: int) -> tuple[int, int]:
    """The census key of a request: J_nu for Dirichlet, J_{nu+1} for
    Neumann l = 0 (past its ground state), the Neumann target at l >= 1."""
    twice_nu = 2 * l + d - 2
    if bc == "dirichlet":
        return 0, twice_nu
    return (0, twice_nu + 2) if l == 0 else (l, twice_nu)


def d_max() -> int:
    """The largest d with a gamma(d), whose census bound on j_{d/2-1,1}
    lies in the argument box; past it a Dirichlet spectrum is the empty
    table."""
    return next(d for d in count(2) if scan_bound(0, d - 1) > X_MAX)


def j_orders() -> range:
    """The twice_nu of J keys whose first zero provably lies in the
    argument box: Chambers' bound on j_{nu,1} at most X_MAX, twice_nu < 370.
    The Neumann l = 0 key of d is the J key (0, d)."""
    return range(next(tn for tn in count() if chambers(tn) > X_MAX))


def census_keys() -> list[tuple[int, int]]:
    """Every census key (l, twice_nu) of the box: the J orders, the Neumann
    l = 0 ones among them, and then the Neumann keys l >= 1 of every d."""
    return [(0, tn) for tn in j_orders()] + [
        (l, tn) for tn in j_orders() for l in range(1, tn // 2 + 1)]


def ground_dims(m: int = 3) -> range:
    """The d of the Neumann l = 0 requests whose first m positive zeros,
    j_{d/2,1..m}, provably lie in the argument box."""
    return range(2, next(d for d in count(2) if zero_upper(d, m) > X_MAX))


def neumann_degrees(d: int) -> range:
    """The Neumann degrees l >= 1 of d whose first zero provably lies in the
    argument box: those whose order 2l + d - 2 is in j_orders, as
    beta_{l,1} < j_{nu,1}."""
    return range(1, next(l for l in count(1)
                         if chambers(2 * l + d - 2) > X_MAX))


def last_d_of_degree_one() -> int:
    """The largest d whose Neumann degree 1 has its first zero in the
    argument box: where the oracle's target g = J_nu / X_MAX - J_{nu+1},
    nu = d/2, is negative at X_MAX, as g > 0 below its first zero; by
    bisection below d = LAMBDA_MAX + 1, past which the Sturm bound sqrt(d -
    1) lies past X_MAX."""
    def inside(d: int) -> bool:
        ja, jb = _oracle.oracle_J_pair(d, X_MAX, dps=20)
        return ja / X_MAX < jb

    lo, hi = 2, LAMBDA_MAX + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


EDGES = {"d_max": d_max(), "last_d_of_degree_one": last_d_of_degree_one()}
