"""The tests' one home of the private parts of the ballspec modules, and
the helpers of the kernel and zero tests.

A test that checks a contract of an internal (the ladder's error model
``bound``, the multiplication series' enclosure, the census walk's widen
rule, ...) reads it here, by the name the table PARTS gives it, as an
attribute of this module: ``_internals.grid_series(l, twice_nu, x)``. Each
attribute is looked up at each access, so a part that a test replaced is
the one read. A renamed or moved internal edits one line of PARTS, not the
tests; tests/test_dependencies.py checks that no other test file, and not
README, names a private part of a ballspec module. Work counts are read
through tests/_counts.py.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import mpmath as mp

from ballspec import _format, bessel, cli, courant, pleijel, selfcheck, zeros

from tests import _oracle as oracle

# each private part a test reads or replaces, by the name it goes by here
PARTS = {
    # the kernel: its one Miller ladder and the ladder's readers
    "ladder": (bessel, "_ladder"),  # (ys, num, den, unit) for an order
    "bound": (bessel, "_pair_bound"),  # the error model of a ladder pair
    "miller_start": (bessel, "_miller_start"),
    "ln_j_inv": (bessel, "_ln_j_inv"),
    "eval_miller": (bessel, "_eval_miller"),  # eval_J's pair and bound
    "multiply": (bessel, "_multiply"),  # the multiplication series
    "midpoints": (bessel, "_midpoints"),  # a certificate's four points
    # the ascending series below the turning point: its exact sums, and
    # its (pair, value)
    "ascending_sums": (bessel, "_ascending_sums"),
    "ascending": (bessel, "_ascending"),
    "SPAN": (bessel, "_SPAN"),  # most terms of a series
    "P": (bessel, "_P"),  # fraction bits of the ladder
    "PI": (bessel, "_PI"),
    "PI_BITS": (bessel, "_PI_BITS"),
    # the census grid's shared ladders, owned by the kernel
    "LADDERS": (bessel, "_LADDERS"),  # (parity, x) -> ladder
    "grid_ladder": (bessel, "_grid_ladder"),
    "grid_sign": (bessel, "_grid_sign"),  # a census sign
    "grid_series": (bessel, "_grid_series"),  # a refinement's series
    "jet": (bessel, "_jet"),  # (f, f', f'') of a Newton target
    # the zero census
    "GRID": (zeros, "_GRID"),  # the grid of each parity
    "MAX_CELLS": (zeros, "_MAX_CELLS"),
    "key": (zeros, "_key"),  # (key, ground, twice_nu) of a request
    "first_zero_bounds": (zeros, "_first_zero_bounds"),
    "first_zero_lower": (zeros, "_first_zero_lower"),  # the census bound
    "first_cell": (zeros, "_first_cell"),  # the walk and its widen rule
    "census_bracket": (zeros, "_census_bracket"),  # the m-th zero's cell
    "census_zero": (zeros, "_census_zero"),  # the m-th zero of a key
    "refine": (zeros, "_refine"),
    # the CLI's flag parser and its two refusals
    "parse": (cli, "_parse"),
    "Help": (cli, "_Help"),
    "UsageError": (cli, "_UsageError"),
    # the verdicts, the certificates and the selfcheck suites
    "reduced_binomial": (courant, "_reduced_binomial"),  # a sphere check
    "exact_check": (pleijel, "_exact_check"),  # one exact inequality
    "log_gamma_value": (pleijel, "_log_gamma_value"),  # cached ln gamma(d)
    "first_zero_keys": (selfcheck, "_first_zero_keys"),
    "check_first_zero_bounds": (selfcheck, "_check_first_zero_bounds"),
    "check_derivative_alias": (selfcheck, "_check_derivative_alias"),
    # the JSON string escaper
    "encode_str": (_format, "_encode_str"),
}


def _read(name: str):
    module, attr = PARTS[name]
    return getattr(module, attr)


def __getattr__(name: str):
    """The private part that PARTS calls name, read now."""
    if name not in PARTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _read(name)


def replace(monkeypatch, name: str, new):
    """Put new in place of the private part that PARTS calls name for one
    test; returns the part it replaced."""
    module, attr = PARTS[name]
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, new)
    return real


def fresh_ladders(monkeypatch) -> None:
    """Empty shared ladders for one test, so that each grid ladder is sized
    for the first order the test asks for there."""
    replace(monkeypatch, "LADDERS", {})


def cold() -> None:
    """Empty the census caches and the shared ladders of the grid."""
    _read("census_bracket").cache_clear()
    _read("census_zero").cache_clear()
    _read("LADDERS").clear()


# ---------------------------------------------------------------------------
# census keys, grid points and references for the zero finder


def census_key(tag: str, l: int, twice_nu: int) -> tuple[int, int]:
    """The census key (l, twice_nu) of a test row: ("J", 0, twice_nu) is
    J_nu's; ("G", l, twice_nu) is the Neumann target of degree l at that
    order, whose l = 0 key is J's at twice_nu + 2."""
    if tag == "J":
        return 0, twice_nu
    return (0, twice_nu + 2) if l == 0 else (l, twice_nu)


def next_point(parity: int, x: float) -> float:
    """The first point of the parity's census grid past x."""
    grid = _read("GRID")[parity]
    return grid[bisect_right(grid, x)]


def ladder_pair(twice_nu: int, x: float) -> tuple[Fraction, Fraction]:
    """(J_nu(x), J_{nu+1}(x)), the exact quotients of the kernel's ladder
    at x."""
    n, parity = divmod(twice_nu, 2)
    ys, num, den, _ = _read("ladder")(parity, x, n)
    return Fraction(ys[n] * num, den), Fraction(ys[n + 1] * num, den)


def pair_target(l: int, twice_nu: int):
    """The target of the census key (l, twice_nu) at x, J_nu at l = 0 and
    g = (l/x) J_nu - J_{nu+1} at l >= 1, from ladder_pair, g formed exactly
    and rounded once: a reference for the zero finder that reads its own
    ladder at x."""

    def f(x: float) -> float:
        a, b = ladder_pair(twice_nu, x)
        return float(a if l == 0 else l / Fraction(x) * a - b)

    return f


def oracle_target(l: int, twice_nu: int, x, dps: int = 40) -> mp.mpf:
    """The target of the census key (l, twice_nu): J_nu at l = 0, else
    g = (l/x) J_nu - J_{nu+1}."""
    with mp.workdps(dps):
        ja = oracle.oracle_J(twice_nu, x, dps=dps)
        if l == 0:
            return ja
        return (l / mp.mpf(x)) * ja - oracle.oracle_J(twice_nu + 2, x, dps=dps)


def series_scale(twice_nu: int, x0, x) -> mp.mpf:
    """The factor by which the grid series of the order twice_nu at x0
    scales its values at x: Gamma(nu+1) (2/x)^nu below the turning point
    (2 x0 <= twice_nu), where it reads the ascending series, else 1."""
    if 2.0 * x0 > twice_nu:
        return mp.mpf(1)
    with mp.workdps(60):
        nu = mp.mpf(twice_nu) / 2
        return mp.gamma(nu + 1) * (2 / mp.mpf(x)) ** nu


def assert_nearest_float(l: int, twice_nu: int, z: float) -> None:
    """The oracle's target of the census key (l, twice_nu) changes sign
    between the midpoints from z to its two neighbouring floats, so z is
    the float nearest the zero."""
    def f(x):
        ja, jb = oracle.oracle_J_pair(twice_nu, x, dps=40)
        return ja if l == 0 else (l / x) * ja - jb

    with oracle.mp.workdps(40):
        mids = [(oracle.mp.mpf(z) + oracle.mp.mpf(math.nextafter(z, to))) / 2
                for to in (0.0, math.inf)]
        assert f(mids[0]) * f(mids[1]) < 0, (l, twice_nu, z)


# ---------------------------------------------------------------------------
# the twin grid: the kernel's ladder against the oracle, as the zero finder
# reads it

TWIN_ORDERS = (0, 1, 2, 7, 40, 101, 160, 202, 238)
TWIN_XS = (0.5, 1.7, 6.0, 23.0, 61.0, 118.0, 163.0, 200.0)
# census zeros (l, twice_nu, m) spread over the box, on both routes; (0,
# 3, 1) is also the second Neumann l = 0 zero at d = 3
TWIN_ZEROS = [(0, 0, 1), (0, 0, 63), (0, 1, 3), (0, 7, 4), (0, 202, 1),
              (0, 238, 2), (0, 3, 1), (3, 7, 1), (3, 7, 60), (40, 82, 1),
              (119, 238, 1)]


def near_zero_points(l: int, twice_nu: int, m: int):
    """The oracle zero as a float and the floats 1e-12 relative either side
    of it; the census zero only seeds mpmath's secant solver."""
    seed = _read("census_zero")(l, twice_nu, m)
    with mp.workdps(40):
        z = float(mp.findroot(lambda t: oracle_target(l, twice_nu, t),
                              mp.mpf(seed)))
    assert abs(z - seed) <= 1e-13 * z
    return [z * (1.0 - 1e-12), z, z * (1.0 + 1e-12)]


def twin_points():
    """(twice_nu, x) of the grid plus the near-zero points."""
    pts = [(tn, x) for tn in TWIN_ORDERS for x in TWIN_XS]
    for l, tn, m in TWIN_ZEROS:
        pts += [(tn, x) for x in near_zero_points(l, tn, m)]
    return pts


# the grids of the kernel's bit pins (tests/test_golden.py): integer and
# half-integer orders, small x at high order and x up to 200, plus three
# points where the last bit of the error bound rests on how the integer
# normalizer's cancellation ratio is rounded
KERNEL_TWICE_NU = (0, 1, 2, 3, 17, 40, 81, 120, 161, 200, 237, 238)
KERNEL_XS = (0.05, 0.3, 1.0, 3.7, 9.9, 14.2, 31.4, 62.8, 99.0, 150.0, 200.0)
KERNEL_POINTS = [(tn, x) for tn in KERNEL_TWICE_NU for x in KERNEL_XS] + [
    (2, 124.45930183746405), (12, 81.36552999244111), (94, 199.37993317614615)]
# ... and the region where an ascending series could serve: small orders
# for x <= 14, and high orders at the edge of that region
SERIES_POINTS = [(tn, x) for tn in (0, 1, 2, 3, 7, 16)
                 for x in (0.05, 0.3, 1.0, 3.7, 7.5, 9.9, 12.0, 14.0)] + [
    (20, 15.0), (33, 24.75), (48, 36.0), (60, 44.68), (80, 50.27),
    (101, 56.51), (120, 62.36), (159, 74.7), (200, 87.92), (239, 100.62),
    (240, 100.94), (60, 30.0), (120, 14.0), (200, 50.0), (240, 3.7)]
