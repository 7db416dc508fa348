"""Extended-precision reference evaluator used as the test oracle.

Everything here is computed with mpmath multiprecision floats from the
ascending power series

    J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_k (-x^2/4)^k / (k! (nu+1)_k),

with working precision raised adaptively: the alternating series cancels
roughly 0.44*x decimal digits against its largest term, so that many guard
digits are added on top of the requested output precision. Zeros are located
by exhaustive sign scan plus plain bisection. None of this shares code with
the fast kernel in ballspec.bessel; the kernel is validated against this
module, and this module is validated against closed forms and against
mpmath's own independent besselj implementation in test_oracle.py.

Orders are passed as twice_nu (an exact integer equal to 2*nu), matching the
kernel's convention, so half-integer orders never touch binary rounding.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DEFAULT_DPS = 50


def _work_dps(dps: int, x_mag: float) -> int:
    # 0.44 ~ 1/ln(10); the series loses about x/ln(10) digits at small order,
    # less at large order, so this is a safe overestimate.
    return dps + int(0.44 * abs(x_mag)) + 15


def oracle_J(twice_nu: int, x, dps: int = DEFAULT_DPS) -> mp.mpf:
    """J_nu(x) with at least `dps` correct significant digits."""
    if twice_nu < 0:
        raise ValueError("order must be nonnegative")
    with mp.workdps(_work_dps(dps, float(x))):
        xm = mp.mpf(x)
        if xm == 0:
            return mp.mpf(1 if twice_nu == 0 else 0)
        nu = mp.mpf(twice_nu) / 2
        q = xm * xm / 4
        term = mp.mpf(1)
        total = mp.mpf(1)
        largest = mp.mpf(1)
        tiny = mp.mpf(10) ** (-(mp.mp.dps + 10))
        k = 0
        while True:
            k += 1
            term *= -q / (k * (nu + k))
            total += term
            if abs(term) > largest:
                largest = abs(term)
            if abs(term) < tiny * largest:
                break
            if k > 100000:  # unreachable for the supported box
                raise RuntimeError("series did not converge")
        pref = mp.power(xm / 2, nu) / mp.gamma(nu + 1)
        result = pref * total
        with mp.workdps(dps):
            result = +result
    return result


def oracle_J_pair(twice_nu: int, x, dps: int = DEFAULT_DPS):
    return oracle_J(twice_nu, x, dps), oracle_J(twice_nu + 2, x, dps)


def oracle_J_prime(twice_nu: int, x, dps: int = DEFAULT_DPS) -> mp.mpf:
    """J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x)."""
    with mp.workdps(_work_dps(dps, float(x))):
        xm = mp.mpf(x)
        nu = mp.mpf(twice_nu) / 2
        ja = oracle_J(twice_nu, xm, dps + 10)
        jb = oracle_J(twice_nu + 2, xm, dps + 10)
        result = (nu / xm) * ja - jb
        with mp.workdps(dps):
            result = +result
    return result


def oracle_xi(l: int, d: int, r, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Xi_l(r) = r^((2-d)/2) J_{l+d/2-1}(r)."""
    twice_nu = 2 * l + d - 2
    with mp.workdps(_work_dps(dps, float(r))):
        rm = mp.mpf(r)
        result = mp.power(rm, mp.mpf(2 - d) / 2) * oracle_J(twice_nu, rm, dps + 10)
        with mp.workdps(dps):
            result = +result
    return result


def oracle_xi_prime(l: int, d: int, r, dps: int = DEFAULT_DPS) -> mp.mpf:
    """d/dr Xi_l(r) = r^((2-d)/2) [ (l/r) J_nu(r) - J_{nu+1}(r) ]."""
    twice_nu = 2 * l + d - 2
    with mp.workdps(_work_dps(dps, float(r))):
        rm = mp.mpf(r)
        ja = oracle_J(twice_nu, rm, dps + 10)
        jb = oracle_J(twice_nu + 2, rm, dps + 10)
        result = mp.power(rm, mp.mpf(2 - d) / 2) * ((mp.mpf(l) / rm) * ja - jb)
        with mp.workdps(dps):
            result = +result
    return result


def _bisect(f, lo: mp.mpf, hi: mp.mpf, dps: int) -> mp.mpf:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("not a bracket")
    target = mp.mpf(10) ** (-(dps + 5)) * hi
    while hi - lo > target:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def _scan_zero(f, start, m: int, step, dps: int, x_cap: float = 250.0) -> mp.mpf:
    """m-th zero of f past `start`, by sign scan at coarse dps then bisection."""
    with mp.workdps(30):
        lo = mp.mpf(start)
        st = mp.mpf(step)
        found = 0
        prev = f(lo)
        while True:
            hi = lo + st
            if float(hi) > x_cap:
                raise ValueError("zero lies beyond the oracle scan cap")
            cur = f(hi)
            if cur == 0 or (prev > 0) != (cur > 0):
                found += 1
                if found == m:
                    blo, bhi = lo, hi
                    break
            lo, prev = hi, cur
    with mp.workdps(_work_dps(dps, float(bhi))):
        root = _bisect(f, mp.mpf(blo), mp.mpf(bhi), dps)
        with mp.workdps(dps):
            root = +root
    return root


def _bessel_scan_start(twice_nu: int) -> mp.mpf:
    """A point below the first positive zero of J_nu."""
    nu = Fraction(twice_nu, 2)
    lb2 = nu * (nu + 2)  # first zero squared exceeds nu(nu+2)
    start = mp.sqrt(mp.mpf(lb2.numerator) / lb2.denominator) if lb2 > 0 else mp.mpf("0.05")
    return start * mp.mpf("0.999")


def oracle_bessel_zero(twice_nu: int, m: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    """m-th positive zero of J_nu, by census from the zero-free lower bound."""
    def f(x):
        return oracle_J(twice_nu, x, max(35, dps))

    return _scan_zero(f, _bessel_scan_start(twice_nu), m, "0.2", dps)


def oracle_dirichlet_zero(l: int, d: int, m: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    return oracle_bessel_zero(2 * l + d - 2, m, dps)


def oracle_neumann_zero(l: int, d: int, m: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    """m-th nonneg zero of d/dr Xi_l; m=1 is 0 for l=0 (constant mode)."""
    twice_nu = 2 * l + d - 2
    if l == 0:
        if m == 1:
            return mp.mpf(0)
        # positive zeros of Xi'_0 are exactly the zeros of J_{nu+1}
        return oracle_bessel_zero(twice_nu + 2, m - 1, dps)

    def g(x):
        xm = mp.mpf(x)
        ja = oracle_J(twice_nu, xm, max(35, dps))
        jb = oracle_J(twice_nu + 2, xm, max(35, dps))
        return (l / xm) * ja - jb

    # rigorous zero-free bound: beta^2 >= 2l(nu+1)/(1 + 2l(nu+1)/(nu(nu+2)))
    nu = Fraction(twice_nu, 2)
    lb2 = Fraction(2 * l) * (nu + 1) / (1 + Fraction(2 * l) * (nu + 1) / (nu * (nu + 2)))
    start = mp.sqrt(mp.mpf(lb2.numerator) / lb2.denominator)
    return _scan_zero(g, start * mp.mpf("0.999"), m, "0.2", dps)


def oracle_gamma(d: int, dps: int = DEFAULT_DPS) -> mp.mpf:
    """gamma(d) = 2^(d-2) d^2 Gamma(d/2)^2 / j_{d/2-1,1}^d."""
    j = oracle_bessel_zero(d - 2, 1, dps + 10)
    with mp.workdps(dps + 15):
        result = (
            mp.power(2, d - 2)
            * d
            * d
            * mp.gamma(mp.mpf(d) / 2) ** 2
            / mp.power(j, d)
        )
        with mp.workdps(dps):
            result = +result
    return result
