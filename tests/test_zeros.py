"""Tests for root isolation: Bessel-J zeros, radial Dirichlet/Neumann zeros.

Frozen 50-digit reference strings live in tests/_frozen.py; fresh
cross-checks call the extended-precision oracle in tests/_oracle.py.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballspec import bessel, courant, spectrum, zeros
from ballspec.bessel import Order
from ballspec.errors import BracketFailure, RangeError
from ballspec.zeros import RootKind

from tests import _frozen
from tests import _oracle as oracle
from tests.test_bessel import oracle_target, twin_points


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _cold() -> None:
    """Empty the census caches and the shared ladders of the grid."""
    zeros._census_bracket.cache_clear()
    zeros._census_zero.cache_clear()
    zeros._LADDERS.clear()


# ---------------------------------------------------------------------------
# argument validation


class TestValidation:
    # a root request is find_zero's (kind, l, d, m, tol)
    def test_root_request_accepts_good_args(self):
        got = zeros.find_zero(RootKind.DIRICHLET_XI, l=2, d=3, m=4, tol=1e-12)
        assert got == zeros.dirichlet_zero(2, 3, 4, tol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="DirichletXi", l=0, d=2, m=1),
            dict(kind=RootKind.DIRICHLET_XI, l=-1, d=2, m=1),
            dict(kind=RootKind.DIRICHLET_XI, l=0, d=1, m=1),
            dict(kind=RootKind.DIRICHLET_XI, l=0, d=2, m=0),
            dict(kind=RootKind.DIRICHLET_XI, l=0, d=2, m=1, tol=1e-16),
            dict(kind=RootKind.DIRICHLET_XI, l=0, d=2, m=1, tol=0.5),
            dict(kind=RootKind.DIRICHLET_XI, l=0, d=2, m=1, tol=float("nan")),
            # bool is an int subclass, but never a degree or an index
            dict(kind=RootKind.DIRICHLET_XI, l=True, d=2, m=1),
            dict(kind=RootKind.NEUMANN_XI_PRIME, l=False, d=2, m=2),
            dict(kind=RootKind.DIRICHLET_XI, l=0, d=2, m=True),
            dict(kind=RootKind.NEUMANN_XI_PRIME, l=1, d=3, m=True),
        ],
    )
    def test_root_request_rejects_bad_args(self, kwargs):
        with pytest.raises(RangeError):
            zeros.find_zero(**kwargs)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: zeros.dirichlet_zero(True, 2, 1),
            lambda: zeros.neumann_zero(0, 3, True),
            lambda: zeros.bessel_zero(Order(0), True),
            lambda: zeros.radial_zeros(RootKind.DIRICHLET_XI, True, 2, 10.0),
            lambda: zeros.radial_zeros(RootKind.NEUMANN_XI_PRIME, False, 3, 10.0),
            lambda: zeros.radial_zeros(RootKind.DIRICHLET_XI, 0, True, 10.0),
            lambda: spectrum.multiplicity(True, 3),
            lambda: spectrum.multiplicity(2, True),
            lambda: spectrum.label_of(2, "dirichlet", 1, True),
            lambda: courant.courant_sharp_ball(2, "dirichlet", lmax=True),
            lambda: courant.courant_sharp_ball(2, "dirichlet", mmax=True),
            lambda: courant.sphere_labeling(True, 3),
            lambda: courant.nodal_count_disc(True, 1, "dirichlet"),
            lambda: Order.from_l_d(True, 2),
            lambda: Order(True),
        ],
    )
    def test_bools_are_not_ints(self, call):
        with pytest.raises(RangeError):
            call()

    def test_bessel_zero_rejects_bad_args(self):
        with pytest.raises(RangeError):
            zeros.bessel_zero(1.0, 1)  # plain float is not an Order
        with pytest.raises(RangeError):
            zeros.bessel_zero(Order(0), 0)
        with pytest.raises(RangeError):
            zeros.bessel_zero(Order(0), 1, tol=1e-16)
        with pytest.raises(RangeError):
            zeros.bessel_zero(Order(0), 1, tol=2e-2)

    def test_l_d_validation(self):
        with pytest.raises(RangeError):
            zeros.dirichlet_zero(-1, 2, 1)
        with pytest.raises(RangeError):
            zeros.neumann_zero(0, 1, 1)
        with pytest.raises(RangeError):
            zeros.dirichlet_zero(0, 2, 1, tol=0.0)


# ---------------------------------------------------------------------------
# documented example values


class TestBesselZeroExamples:
    def test_half_integer_order_zeros_are_multiples_of_pi(self):
        # J_{1/2}(x) is proportional to sin(x)/sqrt(x)
        got = zeros.bessel_zero(Order(1), 3)
        assert rel_err(got, 3.0 * math.pi) <= 1e-13
        assert rel_err(got, 9.42477796076938) <= 1e-13

    def test_first_zero_order_zero(self):
        got = zeros.bessel_zero(Order(0), 1)
        assert rel_err(got, 2.404825557695773) <= 1e-13

    def test_first_zero_order_one_with_bounds(self):
        got = zeros.bessel_zero(Order(2), 1)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        # closed-form envelope for the first zero at nu = 1
        assert math.sqrt(1.0 * 3.0) < got < math.sqrt(2.0) * (math.sqrt(3.0) + 1.0)


class TestDirichletZeroExamples:
    def test_ball_radial_mode_is_sine(self):
        # l=0, d=3 radial profile is sin(r)/r, so the m-th zero is m*pi
        got = zeros.dirichlet_zero(0, 3, 2)
        assert rel_err(got, 2.0 * math.pi) <= 1e-13

    def test_ball_l1_zero_solves_tangent_equation(self):
        got = zeros.dirichlet_zero(1, 3, 1)
        assert rel_err(got, 4.493409457909064) <= 1e-13
        # the l=1, d=3 profile vanishes where tan(r) = r
        assert abs(math.tan(got) - got) <= 1e-9

    def test_disc_zero_equals_bessel_zero(self):
        got = zeros.dirichlet_zero(1, 2, 1)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        # identical census path: must agree bit-for-bit
        assert got == zeros.bessel_zero(Order(2), 1)


class TestNeumannZeroExamples:
    def test_ground_state_zero_is_exact(self):
        assert zeros.neumann_zero(0, 2, 1) == 0.0
        assert zeros.neumann_zero(0, 5, 1) == 0.0

    def test_second_radial_zero_matches_first_l1_dirichlet(self):
        got = zeros.neumann_zero(0, 2, 2)
        assert rel_err(got, 3.831705970207512) <= 1e-13
        assert rel_err(got, zeros.dirichlet_zero(1, 2, 1)) <= 1e-11

    def test_disc_first_l1_neumann_zero(self):
        got = zeros.neumann_zero(1, 2, 1)
        assert rel_err(got, 1.8411837813406593) <= 1e-13


class TestFrozenTables:
    def test_bessel_zeros_match_frozen(self):
        for (tn, m), ref in _frozen.BESSEL_ZEROS.items():
            got = zeros.bessel_zero(Order(tn), m)
            assert rel_err(got, float(ref)) <= 1e-12, (tn, m)

    def test_derivative_zeros_match_frozen(self):
        # zeros of J'_l are the positive disc Neumann zeros (d = 2)
        for (tn, m), ref in _frozen.BESSEL_DERIV_ZEROS.items():
            assert tn % 2 == 0 and tn >= 2
            got = zeros.neumann_zero(tn // 2, 2, m)
            assert rel_err(got, float(ref)) <= 1e-12, (tn, m)

    def test_d3_neumann_zeros_match_frozen(self):
        # table already counts the conventional zero at r = 0 for l = 0
        for (l, m), ref in _frozen.NEUMANN_ZEROS_D3.items():
            got = zeros.neumann_zero(l, 3, m)
            assert rel_err(got, float(ref)) <= 1e-12, (l, m)


# ---------------------------------------------------------------------------
# fresh oracle cross-checks (not frozen; recomputed at import time)


class TestOracleSpots:
    @pytest.mark.parametrize("tn,m", [(7, 2), (13, 4), (100, 3)])
    def test_bessel_zero_vs_oracle(self, tn, m):
        want = float(oracle.oracle_bessel_zero(tn, m, dps=30))
        assert rel_err(zeros.bessel_zero(Order(tn), m), want) <= 1e-12

    def test_dirichlet_zero_vs_oracle(self):
        want = float(oracle.oracle_dirichlet_zero(2, 5, 3, dps=30))
        assert rel_err(zeros.dirichlet_zero(2, 5, 3), want) <= 1e-12

    def test_neumann_zero_vs_oracle(self):
        want = float(oracle.oracle_neumann_zero(3, 4, 2, dps=30))
        assert rel_err(zeros.neumann_zero(3, 4, 2), want) <= 1e-12


# ---------------------------------------------------------------------------
# census targets: f and df against the oracle across the box

# (tag, l, twice_nu, points): small x (where an ascending series would
# serve) at the low points, large x above
TARGET_POINTS = [
    ("J", 0, 0, (5.0, 47.5)),
    ("G", 3, 7, (0.7, 5.0, 13.5, 47.5, 150.0, 199.5)),
    ("G", 100, 202, (80.0, 110.0, 150.0, 199.5)),
    ("J", 0, 202, (80.0, 105.0, 150.0, 199.5)),
]


@pytest.mark.parametrize("tag,l,twice_nu,x", [
    (tag, l, tn, x) for tag, l, tn, points in TARGET_POINTS for x in points])
def test_target_matches_oracle(tag, l, twice_nu, x):
    # J: f = J_nu, df = J_nu'; G: f = g = (l/x) J_nu - J_{nu+1} and
    # df = -(l/x^2) J_nu + (l/x) J_nu' - J_{nu+1}', which the census forms
    # through the recursion J_nu (l(nu-1)/x^2 - 1) + J_{nu+1} (nu+1-l)/x
    f, df = zeros._target(tag, l, twice_nu)(x)
    ja = float(oracle.oracle_J(twice_nu, x, dps=30))
    pa = float(oracle.oracle_J_prime(twice_nu, x, dps=30))
    if tag == "J":
        terms = (ja, pa)
        want_f, want_df = ja, pa
    else:
        jb = float(oracle.oracle_J(twice_nu + 2, x, dps=30))
        pb = float(oracle.oracle_J_prime(twice_nu + 2, x, dps=30))
        terms = ((l / x) * ja, jb, (l / (x * x)) * ja, (l / x) * pa, pb)
        want_f = terms[0] - terms[1]
        want_df = -terms[2] + terms[3] - terms[4]
    bound = 1e-13 * max(max(abs(t) for t in terms), 1e-3)
    assert abs(f - want_f) <= bound, (f, want_f)
    assert abs(df - want_df) <= bound, (df, want_df)


# ---------------------------------------------------------------------------
# the sign evaluator: float twin where it certifies the sign, else _target


def _counting(monkeypatch, name: str = "eval_J_pair"):
    """Count calls of bessel.<name>; returns a one-element list."""
    calls = [0]
    real = getattr(bessel, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(bessel, name, counted)
    return calls


def _ladder_steps(monkeypatch) -> tuple[Counter, Counter]:
    """Count the steps and the builds of the shared ladders, by grid point
    (parity, x)."""
    steps, builds = Counter(), Counter()
    real = bessel._ladder_float

    def counted(parity, x, top):
        steps[parity, x] += bessel._miller_start(top + 1, x)
        builds[parity, x] += 1
        return real(parity, x, top)

    monkeypatch.setattr(bessel, "_ladder_float", counted)
    return steps, builds


def test_certified_signs_match_oracle(monkeypatch):
    # grid and near-zero points of test_bessel; J and g at every order
    calls = _counting(monkeypatch)
    certified = fallbacks = 0
    for tn, x in twin_points():
        for tag, l in (("J", 0), ("G", 0), ("G", tn // 2)):
            before = calls[0]
            v = zeros._sign_target(tag, l, tn)(x)
            if calls[0] == before:
                certified += 1
                want = oracle_target(tag, l, tn, x)
                assert want != 0 and (v > 0.0) == (want > 0), (tag, l, tn, x)
            else:
                fallbacks += 1
                assert v == zeros._target(tag, l, tn)(x)[0]
    # the twin declines deep below the turning point and on the zeros
    assert certified > 200 and fallbacks > 0


def test_sign_target_falls_back_on_a_zero(monkeypatch):
    calls = _counting(monkeypatch)
    for tag, l, tn in (("J", 0, 0), ("G", 3, 7), ("J", 0, 202)):
        z = zeros._census_zero(tag, l, tn, 1, zeros.DEFAULT_TOL)
        before = calls[0]
        v = zeros._sign_target(tag, l, tn)(z)
        assert calls[0] == before + 1
        assert v == zeros._target(tag, l, tn)(z)[0]


def test_sign_target_validates_like_the_pair():
    with pytest.raises(RangeError, match=r"x=0\.0 outside"):
        zeros._sign_target("J", 0, 0)(0.0)
    with pytest.raises(RangeError, match="above the supported box"):
        zeros._sign_target("J", 0, 239)(5.0)


# ---------------------------------------------------------------------------
# bracket scans: the census grid walked on the double-double target


def dd_cells(tag: str, l: int, twice_nu: int):
    """Sign-change cells (lo, hi) of the double-double target on the order's
    grid, in order: x_k = (k + parity/2) pi/2 with X_MAX the last point, and
    a first cell from the scan start to the first grid point above it."""
    start, sign = zeros._scan_start(tag, l, twice_nu)
    f_df = zeros._target(tag, l, twice_nu)
    half = 0.5 * (twice_nu % 2)
    lo, k = start, 0
    while lo < zeros.X_MAX:
        x = min((k + half) * math.pi / 2, zeros.X_MAX)
        k += 1
        if x <= start:
            continue
        fx = f_df(x)[0]
        assert abs(fx) > 1e-290, x  # no grid point sits on a zero here
        if (fx > 0.0) != (sign > 0):
            yield lo, x
            sign = -sign
        lo = x


def scan(kind: RootKind, l: int, d: int,
         x_max: float) -> list[tuple[float, float]]:
    """The cells of dd_cells whose zero lies in (0, x_max]."""
    tag, l_key, twice_nu = zeros._key(kind, l, d)
    f_df = zeros._target(tag, l_key, twice_nu)
    out = []
    for lo, hi in dd_cells(tag, l_key, twice_nu):
        if lo >= x_max:
            break
        if hi > x_max and f_df(x_max)[0] * f_df(hi)[0] < 0.0:
            break  # the cell's zero lies past x_max
        out.append((lo, hi))
    return out


# census keys (tag, l, twice_nu): J at d=2 l=0, G at d=3 l=0 and l=3, J on
# the Miller route, G at d=4 l=40, whose scan starts below the turning
# point, and J_{1/2}, whose zeros are exactly m pi
BRACKET_KEYS = [("J", 0, 0), ("G", 0, 1), ("G", 3, 7), ("J", 0, 202),
                ("G", 40, 82), ("J", 0, 1)]


@pytest.mark.parametrize("tag,l,twice_nu", BRACKET_KEYS)
def test_census_brackets_equal_the_double_double_walk(tag, l, twice_nu):
    # the census reads signs from the shared float ladders where they
    # certify them; its cells must be exactly those of a walk over the same
    # grid on the double-double target
    want = list(itertools.islice(dd_cells(tag, l, twice_nu), 5))
    _cold()
    got = [zeros._census_bracket(tag, l, twice_nu, m)[:2] for m in range(1, 6)]
    assert got == want


class TestScanBrackets:
    def test_sine_zeros_give_three_brackets(self):
        got = scan(RootKind.DIRICHLET_XI, 0, 3, 10.0)
        assert len(got) == 3
        for (lo, hi), root in zip(got, (math.pi, 2 * math.pi, 3 * math.pi)):
            assert lo < root < hi

    def test_neumann_scan_single_bracket(self):
        got = scan(RootKind.NEUMANN_XI_PRIME, 0, 2, 4.0)
        assert len(got) == 1
        assert got[0][0] < 3.831705970207512 < got[0][1]

    def test_dirichlet_scan_two_brackets(self):
        got = scan(RootKind.DIRICHLET_XI, 0, 2, 6.0)
        assert len(got) == 2
        assert got[0][0] < 2.404825557695773 < got[0][1]
        assert got[1][0] < 5.520078110286311 < got[1][1]

    def test_brackets_are_ordered_and_sign_changing(self):
        brs = scan(RootKind.DIRICHLET_XI, 2, 3, 20.0)
        assert brs == sorted(brs)
        for lo, hi in brs:
            assert oracle.oracle_xi(2, 3, lo) * oracle.oracle_xi(2, 3, hi) < 0

    def test_neumann_brackets_sign_change_in_derivative(self):
        brs = scan(RootKind.NEUMANN_XI_PRIME, 3, 3, 20.0)
        assert len(brs) >= 2
        for lo, hi in brs:
            flo = oracle.oracle_xi_prime(3, 3, lo)
            fhi = oracle.oracle_xi_prime(3, 3, hi)
            assert flo * fhi < 0

    def test_bracket_count_matches_zero_census(self):
        # 5 zeros of J_0 below j_{0,5} + 0.05 and the scan finds all 5
        j05 = zeros.bessel_zero(Order(0), 5)
        brs = scan(RootKind.DIRICHLET_XI, 0, 2, j05 + 0.05)
        assert len(brs) == 5
        assert brs[-1][0] < j05 < brs[-1][1]
        # consecutive zeros are more than pi/2 apart (zeros module docstring),
        # so the census grid's pi/2 cells isolate each census zero: the
        # tightest J spacing (d=2, l=0), Neumann l=0 and l>=1 for d=2, 3, and
        # a high order on the Miller route
        cases = [
            (RootKind.DIRICHLET_XI, 0, 2, 8),
            (RootKind.NEUMANN_XI_PRIME, 0, 2, 6),
            (RootKind.NEUMANN_XI_PRIME, 0, 3, 6),
            (RootKind.NEUMANN_XI_PRIME, 1, 2, 6),
            (RootKind.NEUMANN_XI_PRIME, 3, 3, 6),
            (RootKind.DIRICHLET_XI, 100, 4, 4),
        ]
        for kind, l, d, n in cases:
            if kind is RootKind.NEUMANN_XI_PRIME:
                # neumann_zero counts the conventional zero at r = 0 for l = 0
                first = 2 if l == 0 else 1
                census = [zeros.neumann_zero(l, d, m)
                          for m in range(first, first + n)]
            else:
                census = [zeros.dirichlet_zero(l, d, m) for m in range(1, n + 1)]
            brs = scan(kind, l, d, census[-1] + 0.05)
            assert len(brs) == n, (kind, l, d)
            for (lo, hi), z in zip(brs, census):
                assert lo < z < hi, (kind, l, d, z)
                assert hi - lo <= math.pi / 2 + 1e-12, (kind, l, d, z)


# ---------------------------------------------------------------------------
# census semantics


class TestCensus:
    def test_zero_index_orders_by_position(self):
        vals = [zeros.bessel_zero(Order(5), m) for m in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_beyond_box_raises_range_error(self):
        with pytest.raises(RangeError):
            zeros.bessel_zero(Order(0), 64)  # ~200.3, just past the box
        # 63rd zero is still inside
        assert zeros.bessel_zero(Order(0), 63) < 200.0

    def test_neumann_beyond_box_raises_range_error(self):
        with pytest.raises(RangeError):
            zeros.neumann_zero(0, 2, 65)

    def test_find_zero_routes_by_kind(self):
        got = zeros.find_zero(RootKind.DIRICHLET_XI, 0, 3, 3)
        assert rel_err(got, 3.0 * math.pi) <= 1e-13
        got = zeros.find_zero(RootKind.DIRICHLET_XI, 1, 3, 1)
        assert rel_err(got, 4.493409457909064) <= 1e-13
        got = zeros.find_zero(RootKind.NEUMANN_XI_PRIME, 0, 2, 2)
        assert rel_err(got, 3.831705970207512) <= 1e-13

    def test_coarse_tol_stays_within_contract(self):
        tight = zeros.bessel_zero(Order(0), 1)
        coarse = zeros.bessel_zero(Order(0), 1, tol=1e-6)
        assert abs(coarse - tight) <= 1e-6 * tight

    def test_results_are_cached_and_deterministic(self):
        a = zeros.dirichlet_zero(4, 3, 2)
        b = zeros.dirichlet_zero(4, 3, 2)
        assert a == b


# ---------------------------------------------------------------------------
# radial_zeros: every zero of a target up to a cutoff


def counted_zeros(kind: RootKind, l: int, d: int, x_max: float) -> list[float]:
    """find_zero's zeros, m = 1, 2, ..., up to x_max, one by one."""
    out = []
    for m in range(1, 100):
        z = zeros.find_zero(kind, l, d, m)
        if z > x_max:
            return out
        out.append(z)
    raise AssertionError("no zero past x_max")


class TestRadialZeros:
    @pytest.mark.parametrize("kind,l,d,x_max", [
        (RootKind.DIRICHLET_XI, 3, 3, 40.0),
        (RootKind.DIRICHLET_XI, 0, 2, 25.0),
        (RootKind.NEUMANN_XI_PRIME, 2, 4, 40.0),
        (RootKind.NEUMANN_XI_PRIME, 0, 2, 40.0),
        (RootKind.NEUMANN_XI_PRIME, 0, 5, 33.3),
        (RootKind.DIRICHLET_XI, 100, 4, 130.0),
    ])
    def test_equals_the_counted_zeros(self, kind, l, d, x_max):
        got = zeros.radial_zeros(kind, l, d, x_max)
        assert got == counted_zeros(kind, l, d, x_max)
        assert len(got) >= 3
        if kind is RootKind.NEUMANN_XI_PRIME and l == 0:
            assert got[0] == 0.0

    @pytest.mark.parametrize("kind,l,d", [
        (RootKind.DIRICHLET_XI, 1, 2),
        (RootKind.NEUMANN_XI_PRIME, 3, 3),
        (RootKind.NEUMANN_XI_PRIME, 0, 2),
    ])
    def test_cutoff_on_a_zero_includes_it(self, kind, l, d):
        z = zeros.find_zero(kind, l, d, 4)
        assert zeros.radial_zeros(kind, l, d, z) == counted_zeros(kind, l, d, z)
        assert zeros.radial_zeros(kind, l, d, z)[-1] == z
        below = math.nextafter(z, 0.0)
        assert zeros.radial_zeros(kind, l, d, below)[-1] < z

    def test_cutoff_below_the_first_zero(self):
        assert zeros.radial_zeros(RootKind.DIRICHLET_XI, 0, 2, 2.4) == []
        assert zeros.radial_zeros(RootKind.NEUMANN_XI_PRIME, 1, 2, 1.8) == []
        assert zeros.radial_zeros(RootKind.NEUMANN_XI_PRIME, 0, 2, 1e-9) == [0.0]

    def test_stops_at_the_box(self):
        got = zeros.radial_zeros(RootKind.DIRICHLET_XI, 0, 2, bessel.X_MAX)
        assert len(got) == 63
        assert got[-1] == zeros.bessel_zero(Order(0), 63)

    def test_kernel_order_box_error_propagates(self):
        # the (nu, nu+1) pair at nu = 120 leaves the kernel box: an error,
        # never an empty list
        with pytest.raises(RangeError):
            zeros.radial_zeros(RootKind.DIRICHLET_XI, 120, 2, 50.0)

    @pytest.mark.parametrize("args", [
        ("DirichletXi", 0, 2, 10.0),
        (RootKind.DIRICHLET_XI, -1, 2, 10.0),
        (RootKind.DIRICHLET_XI, 0, 1, 10.0),
        (RootKind.DIRICHLET_XI, 0, 2, 0.0),
        (RootKind.DIRICHLET_XI, 0, 2, 201.0),
    ])
    def test_rejects_bad_args(self, args):
        with pytest.raises(RangeError):
            zeros.radial_zeros(*args)


# ---------------------------------------------------------------------------
# refinement: verified enclosures and the kernel-call budget

# (tag, l, twice_nu) of census targets: J at d=2 l=0 (tightest spacing),
# Neumann l=0 and l=3 at d=3, Dirichlet l=100 at d=4 (Miller route)
ENCLOSURE_TARGETS = [("J", 0, 0), ("G", 0, 1), ("G", 3, 7), ("J", 0, 202)]


def sign_enclosed(f_df, z: float, tol: float) -> bool:
    h = 0.5 * tol * z
    return f_df(z - h)[0] * f_df(z + h)[0] < 0.0


def _skew_derivative(monkeypatch, name: str, factor: float) -> None:
    """Make the evaluators zeros.<name> builds return df times factor."""
    real = getattr(zeros, name)

    def skewed(*key):
        good = real(*key)

        def f_df(x):
            f, df, *err = good(x)
            return (f, factor * df, *err)
        return f_df

    monkeypatch.setattr(zeros, name, skewed)


class TestRefinement:
    @pytest.mark.parametrize("tol", [1e-6, 1e-13, 1e-15])
    @pytest.mark.parametrize("tag,l,twice_nu", ENCLOSURE_TARGETS)
    def test_census_zeros_are_sign_enclosed(self, tag, l, twice_nu, tol):
        f_df = zeros._target(tag, l, twice_nu)
        for m in range(1, 4):
            z = zeros._census_zero(tag, l, twice_nu, m, tol)
            assert sign_enclosed(f_df, z, tol), (m, z)

    @pytest.mark.parametrize("tol", [1e-6, 1e-13, 1e-15])
    @pytest.mark.parametrize("tag,l,twice_nu", ENCLOSURE_TARGETS)
    def test_bad_derivative_neither_stalls_nor_misleads(
        self, monkeypatch, tag, l, twice_nu, tol
    ):
        # a derivative 1e6 too large, in both precisions, makes every Newton
        # step look converged; the enclosure check must refuse those points,
        # and the bisection safeguard must still reach the root within the
        # iteration cap
        f_df = zeros._target(tag, l, twice_nu)
        lo, hi, sign_lo = zeros._census_bracket(tag, l, twice_nu, 2)
        _skew_derivative(monkeypatch, "_target", 1e6)
        _skew_derivative(monkeypatch, "_float_target", 1e6)
        z = zeros._refine(tag, l, twice_nu, lo, hi, sign_lo, tol)
        monkeypatch.undo()
        assert sign_enclosed(f_df, z, tol)
        want = zeros._census_zero(tag, l, twice_nu, 2, tol)
        assert abs(z - want) <= tol * want

    @pytest.mark.parametrize("d,bc,lambda_max", [(3, "dirichlet", 3000),
                                                 (4, "neumann", 1900)])
    def test_kernel_calls_per_cold_zero(self, monkeypatch, d, bc, lambda_max):
        # scan at step pi/2 plus safeguarded Newton: at most 10 pair calls
        # per zero (the counts are deterministic)
        _cold()
        calls = 0
        real = bessel.eval_J_pair

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(bessel, "eval_J_pair", counted)
        spectrum.enumerate_spectrum(d, bc, lambda_max)
        cold = zeros._census_zero.cache_info().misses
        assert cold > 100
        assert calls <= 10 * cold, calls / cold

    @pytest.mark.parametrize("d,bc,lambda_max", [(3, "dirichlet", 3000),
                                                 (4, "neumann", 1900)])
    def test_double_double_calls_per_cold_zero(self, monkeypatch, d, bc,
                                               lambda_max):
        # the scan reads the shared float ladders, the enclosure probes and
        # the Newton iterates run on the float twin, so double-double pays
        # for the last Newton step (one a zero) and the few signs the float
        # values cannot certify (1.00 and 1.15)
        _cold()
        calls = _counting(monkeypatch)
        spectrum.enumerate_spectrum(d, bc, lambda_max)
        cold = zeros._census_zero.cache_info().misses
        assert cold > 100
        assert calls[0] <= 2 * cold, calls[0] / cold

    @pytest.mark.parametrize("d,bc,lambda_max", [(3, "dirichlet", 3000),
                                                 (4, "neumann", 1900)])
    def test_twin_calls_per_cold_zero(self, monkeypatch, d, bc, lambda_max):
        # Newton iterates and probes: 5.10 and 5.49 twin calls a zero, now
        # that the scan reads shared ladders; a float phase that stalls or
        # bisects, or a scan back on the twin, would cost far more. The
        # shared ladders cost 9.4 and 31 steps a zero, and no grid point
        # builds its ladder more than twice (sized for the first order that
        # asks, then once for the whole box)
        _cold()
        twin = _counting(monkeypatch, "_pair_float")
        steps, builds = _ladder_steps(monkeypatch)
        spectrum.enumerate_spectrum(d, bc, lambda_max)
        cold = zeros._census_zero.cache_info().misses
        assert cold > 100
        assert twin[0] <= 7 * cold, twin[0] / cold
        ladder_steps = {3: 12, 4: 40}[d]
        assert sum(steps.values()) <= ladder_steps * cold, steps.total() / cold
        assert max(builds.values()) <= 2

    def test_grid_phase_keeps_zeros_off_the_grid(self, monkeypatch):
        # half-integer orders have zeros near multiples of pi/2 (j_{1/2,m}
        # = m pi); on a grid point the ladder cannot certify the sign and
        # double-double pays. With the phase, 1.00 double-double calls a
        # zero; a common k pi/2 grid for both parities costs 1.05
        _cold()
        calls = _counting(monkeypatch)
        spectrum.enumerate_spectrum(3, "dirichlet", 3000)
        cold = zeros._census_zero.cache_info().misses
        assert cold > 100
        assert calls[0] <= 1.02 * cold, calls[0] / cold

    # Float ladder steps (twin calls plus shared ladders, each counted as its
    # _miller_start length) of the lookup-sized census below, measured at
    # commit eee72a1, the last before the shared ladders, where each key
    # scanned its own cells with the twin (the count is deterministic, the
    # same on any machine)
    PER_KEY_SCAN_STEPS = 75816

    def test_lookup_census_costs_no_more_than_the_per_key_scan(
            self, monkeypatch):
        _cold()
        steps = [0]
        real = bessel._pair_float

        def counted(twice_nu, x):
            steps[0] += bessel._miller_start(twice_nu // 2 + 1, x)
            return real(twice_nu, x)

        monkeypatch.setattr(bessel, "_pair_float", counted)
        ladders, _ = _ladder_steps(monkeypatch)
        for kind in RootKind:
            for d in (2, 3, 4, 5):
                for l in range(6):
                    for m in range(1, 6):
                        zeros.find_zero(kind, l, d, m)
        total = steps[0] + sum(ladders.values())
        assert total <= self.PER_KEY_SCAN_STEPS, total

    def test_float_derivative_does_not_set_the_digits(self, monkeypatch):
        # the float phase only picks the point the double-double Newton step
        # starts from; with its derivative 25% off, the linear convergence
        # still hands over within a few h of the root and no J zero moves
        keys = [(tn, m) for tn in range(0, 239, 3) for m in (1, 2, 5, 20)]

        def census():
            _cold()
            out = {}
            for tn, m in keys:
                try:
                    out[tn, m] = zeros._census_zero("J", 0, tn, m,
                                                    zeros.DEFAULT_TOL)
                except RangeError:  # past the box at high order
                    pass
            return out

        want = census()
        _skew_derivative(monkeypatch, "_float_target", 1.25)
        got = census()
        monkeypatch.undo()
        _cold()
        assert len(want) > 250
        assert got == want

    @pytest.mark.parametrize("l,twice_nu,m", [
        (2, 5, 1), (6, 12, 1), (10, 24, 24), (26, 132, 1),
        # moved by the grid census: the farthest from the oracle at each d
        (14, 28, 1), (6, 13, 1), (10, 22, 1), (7, 17, 1), (21, 46, 1),
        (69, 146, 1), (24, 86, 1), (33, 164, 1)])
    def test_moved_neumann_zeros_within_an_ulp(self, l, twice_nu, m):
        # the last bit of these g zeros depends on the Newton path; the
        # oracle's g must still change sign within one ulp of each
        z = zeros.neumann_zero(l, twice_nu + 2 - 2 * l, m)
        u = math.ulp(z)

        def g(x):
            ja, jb = oracle.oracle_J_pair(twice_nu, x, dps=40)
            return (l / oracle.mp.mpf(x)) * ja - jb

        assert g(z - u) * g(z + u) < 0, z

    @pytest.mark.parametrize("d,bc,lambda_max", [(2, "dirichlet", 2000),
                                                 (4, "neumann", 1900)])
    def test_cold_spectrum_refines_only_shipped_zeros(self, d, bc,
                                                       lambda_max):
        # no zero past the cutoff is refined only to be thrown away
        _cold()
        table = spectrum.enumerate_spectrum(d, bc, lambda_max)
        shipped = sum(rec.zero > 0.0 for rec in table.records)
        assert zeros._census_zero.cache_info().misses == shipped


# ---------------------------------------------------------------------------
# mathematical invariants


class TestInvariants:
    def test_interlacing_of_zeros(self):
        # j_{nu,m} < j_{nu+1,m} < j_{nu,m+1}, strict by 1e-6,
        # for nu in {0, 1/2, ..., 10} and m = 1..8
        zs = {
            (tn, m): zeros.bessel_zero(Order(tn), m)
            for tn in range(0, 23)
            for m in range(1, 10)
        }
        for tn in range(0, 21):
            for m in range(1, 9):
                assert zs[(tn, m)] + 1e-6 < zs[(tn + 2, m)], (tn, m)
                assert zs[(tn + 2, m)] + 1e-6 < zs[(tn, m + 1)], (tn, m)

    def test_first_zero_envelope(self):
        # sqrt(nu(nu+2)) < j_{nu,1} < sqrt(nu+1)(sqrt(nu+2)+1), nu = 1/2..60
        for tn in range(1, 121):
            nu = 0.5 * tn
            z = zeros.bessel_zero(Order(tn), 1)
            assert math.sqrt(nu * (nu + 2.0)) < z, tn
            assert z < math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0), tn

    def test_radial_neumann_equals_shifted_l1_dirichlet(self):
        # d/dr of the l=0 profile is -1 times the l=1 profile, so the
        # (m+1)-th l=0 Neumann zero equals the m-th l=1 Dirichlet zero
        for d in (2, 3, 4, 5):
            for m in range(1, 7):
                beta = zeros.neumann_zero(0, d, m + 1)
                alpha = zeros.dirichlet_zero(1, d, m)
                assert rel_err(beta, alpha) <= 1e-11, (d, m)

    def test_neumann_zero_sets_of_distinct_degrees_never_touch(self):
        # evidence that eigenvalue coincidences across degrees are isolated:
        # positive Neumann zeros up to 60 for degrees l and l+p stay at
        # least 1e-3 apart (d = 2, 3; l = 0..8; p = 1..4)
        def upto(l: int, d: int, cap: float = 60.0) -> list[float]:
            out = []
            m = 2 if l == 0 else 1
            while True:
                z = zeros.neumann_zero(l, d, m)
                if z > cap:
                    return out
                out.append(z)
                m += 1

        for d in (2, 3):
            table = {l: upto(l, d) for l in range(0, 13)}
            for l in range(0, 9):
                for p in range(1, 5):
                    gap = min(
                        abs(a - b) for a in table[l] for b in table[l + p]
                    )
                    assert gap > 1e-3, (d, l, p, gap)

    def test_first_neumann_zero_precedes_first_dirichlet_zero(self):
        for d in (2, 3, 4, 5):
            for l in range(1, 11):
                assert zeros.neumann_zero(l, d, 1) < zeros.dirichlet_zero(l, d, 1)


@settings(deadline=None, max_examples=25)
@given(tn=st.integers(0, 40), m=st.integers(1, 5))
def test_zero_grid_monotone(tn, m):
    z = zeros.bessel_zero(Order(tn), m)
    assert zeros.bessel_zero(Order(tn + 1), m) > z
    assert zeros.bessel_zero(Order(tn), m + 1) > z
    assert z > 0.0


# ---------------------------------------------------------------------------
# grid-walker edge handling, driven by synthetic targets on the parity-0
# grid (points near 4.7124, 6.2832 and 7.8540 past the start 4.5)


class TestWalkerSynthetics:
    def test_shallow_dip_is_not_flagged(self):
        # the derivative changes sign inside a cell, the minimum stays above 0
        def f(x):
            return (x - 5.0) ** 2 + 0.5

        got = list(zeros._grid_cells(f, 0, 4.5, 1))
        assert got == []

    def test_near_zero_endpoint_widens_bracket(self):
        def f(x):
            if x < 6.2:
                return 1.0
            if x <= 6.4:
                return 1e-295  # grid point lands almost on the root
            return -1.0

        got = list(zeros._grid_cells(f, 0, 4.5, 1))
        assert len(got) == 1
        lo, hi, sign_lo = got[0]
        assert sign_lo == 1
        assert lo == 3 * math.pi / 2 and hi == 5 * math.pi / 2

    def test_widened_bracket_without_sign_flip_fails(self):
        def f(x):
            if 6.2 <= x <= 6.4:
                return 1e-295
            return 1.0  # never becomes negative: tangency, not a root

        with pytest.raises(BracketFailure):
            list(zeros._grid_cells(f, 0, 4.5, 1))

    def test_near_zero_at_the_box_edge_fails(self):
        # the last grid point has no next point to widen to
        def f(x):
            return 1e-295 if x == zeros.X_MAX else 1.0

        with pytest.raises(BracketFailure):
            list(zeros._grid_cells(f, 1, 190.0, 1))

    def test_plain_crossing_yields_single_bracket(self):
        def f(x):
            return 5.0 - x

        got = list(zeros._grid_cells(f, 0, 4.5, 1))
        assert len(got) == 1
        lo, hi, sign_lo = got[0]
        assert lo < 5.0 <= hi and sign_lo == 1
        assert (lo, hi) == (3 * math.pi / 2, 2 * math.pi)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_grid_phase_and_last_point(self, parity):
        # x_k = (k + parity/2) pi/2, every cell at most pi/2, X_MAX last
        pts = list(zeros._grid_points(parity, 0.0))
        assert pts[0] == (1 - parity / 2) * math.pi / 2
        assert pts[-1] == zeros.X_MAX
        assert all(0.0 < b - a <= math.pi / 2 + 1e-12
                   for a, b in zip(pts, pts[1:]))
        assert all(x == (k + 1 - parity / 2) * math.pi / 2
                   for k, x in enumerate(pts[:-1]))
