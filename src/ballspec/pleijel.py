"""Pleijel constant gamma(d) of the d-dimensional unit ball.

gamma(d) = 2^(d-2) d^2 Gamma(d/2)^2 / j^d, where j is the first positive
zero of the Bessel function of order d/2 - 1.  It bounds the asymptotic
fraction (nodal domain count) / (eigenvalue index) for Dirichlet
eigenfunctions, and gamma(d-1) plays the same role on the Neumann side.

The module computes gamma entirely in log space (the 2^(d-2) / j^d ratio
over- and underflows long before the supported dimension cap), emits the
table and the quotient curve gamma(d+1)/gamma(d), and certifies that gamma
is strictly decreasing by numerically checking every link of an inequality
chain that proves it:

  1. gamma_eq       [Gamma(d/2+1/2)/Gamma(d/2)]^2 < (d-1)^2 / (2(d-2)),
                    from log-convexity of the Gamma function;
  2. asb            the ratio of first zeros at consecutive orders is
                    controlled by the ratio of the first two eigenvalues of
                    a d-cube (first-zero ratio bound, applied here with
                    dimension parameter d-1);
  3. convexity_step the squared first zero is convex in the order, so the
                    half-step ratio interpolates the full-step one;
  4. control        combining 2. and 3.: j(d/2-1)^2/j(d/2-1/2)^2
                     < 1 - 3/(2(d+2));
  5. jest_lower/upper  two-sided classical estimates for the first zero,
                    read from their one home, zeros._first_zero_bounds;
  6. gamma_ratio_bound  the assembled bound on gamma(d+1)/gamma(d);
  7. exp_bound      (1 - 3/(2(d+2)))^((d+2)/2) < e^(-3/4);
  8. interval_bound (d+1/2)^2 < (d-1)(d+3) for d >= 4 (exact integers);
  9. poly_bound     the remaining rational function of d is < 1 + 5/d for
                    d >= 4 (exact rational arithmetic);
 10. combined_bound gamma(d+1)/gamma(d) < (2/e^(3/4)) (1 + 5/d);
 11. e34_lt_95      2/e^(3/4) < 95/100;
 12. the final bound (95/100)(1+5/d) is decreasing, equals exactly 1 at
     d = 95 (final_bound_equality) and is < 1 for d >= 96
     (ninetyfive_bound_lt_1), both in exact rational arithmetic;
 13. final_lt_1     the computed quotient itself is < 1.

Checks whose two sides are rational numbers are decided exactly, on pairs
of Python ints, before being recorded as floats; the float views in the
certificate are for reporting only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ballspec import zeros
from ballspec._format import dumps
from ballspec.bessel import X_MAX, _check_int, _repr, log_gamma
from ballspec.errors import CertificateFailure, RangeError

__all__ = [
    "D_MAX",
    "TWO_OVER_E",
    "Check",
    "MonotonicityCertificate",
    "PleijelRow",
    "curve_to_plot_json",
    "gamma",
    "gamma_table",
    "monotonicity_certificate",
    "neumann_pleijel_bound",
    "quotient_curve",
    "six_decimals",
]

# The largest d with a gamma(d): the census bound of j_{nu,1}, nu = d/2 - 1,
# lies in the argument box (<= X_MAX); scanned downward from d = 2 X_MAX + 2,
# as nu < j_{nu,1}.
D_MAX = next(d for d in range(2 * int(X_MAX) + 2, 1, -1)
             if zeros._first_zero_lower((0, d - 2)) <= X_MAX)

# Limit of the quotient gamma(d+1)/gamma(d) as d grows.
TWO_OVER_E = 2.0 / math.e

_STRICT = "strict_less"
_EQUAL = "equal"

_REQUIRED_CHECKS = frozenset(
    [
        "gamma_ratio_bound",
        "gamma_eq",
        "control",
        "asb",
        "exp_bound",
        "poly_bound",
        "final_lt_1",
    ]
)


# ---------------------------------------------------------------------------
# gamma(d) and rows


@lru_cache(maxsize=None)
def _log_gamma_value(d: int) -> float:
    """ln gamma(d) assembled term by term; the only exp happens at the end."""
    j = zeros.dirichlet_zero(0, d, 1)
    return (
        (d - 2) * math.log(2.0)
        + 2.0 * math.log(d)
        + 2.0 * log_gamma(0.5 * d)
        - d * math.log(j)
    )


def _top_zero(d: int, what: str, *fields) -> float:
    """j_{d/2-1,1}, the request's top first zero, asked first (it is cached),
    so that a census refusal names the request before any refinement: the
    template what, which only a refusal formats, with the fields, each
    through bessel._repr."""
    try:
        return zeros.dirichlet_zero(0, d, 1)
    except RangeError as exc:
        what = what.format(*map(_repr, fields))
        raise RangeError(f"{what}: {exc}") from None


def gamma(d: int) -> float:
    """Pleijel constant of the d-dimensional unit ball, d = 2..D_MAX.

    Not certified: against an mpmath reference (40 digits) its relative
    error is at most 4.2e-13 (3,176 ulp, at d = 266; the most in ulp is
    3,363, at d = 291); ROADMAP item 21 plans a certified gamma.
    """
    _check_int("d", d, 2)
    _top_zero(d, "gamma({})", d)
    return math.exp(_log_gamma_value(d))


def _quotient(d: int) -> float:
    """gamma(d+1)/gamma(d), formed in log space so both entries cancel."""
    return math.exp(_log_gamma_value(d + 1) - _log_gamma_value(d))


class PleijelRow(namedtuple("PleijelRow",
                            "d gamma log_gamma_value quotient_next")):
    """One table row: d, gamma, its log, and the forward quotient or None."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_int("d", self.d, 2)
        if not math.isfinite(self.log_gamma_value):
            raise CertificateFailure(
                f"pleijel row d={self.d}: non-finite log_gamma_value"
            )
        expected = math.exp(self.log_gamma_value)
        if abs(self.gamma - expected) > 4.0 * math.ulp(expected):
            raise CertificateFailure(
                f"pleijel row d={self.d}: gamma={self.gamma!r} does not match "
                f"exp(log_gamma_value)={expected!r}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise CertificateFailure(
                f"pleijel row d={self.d}: gamma={self.gamma!r} outside (0, 1)"
            )
        if self.quotient_next is not None and not (
            math.isfinite(self.quotient_next) and self.quotient_next > 0.0
        ):
            raise CertificateFailure(
                f"pleijel row d={self.d}: bad quotient {self.quotient_next!r}"
            )
        return self


def _check_d_range(d_min: int, d_max: int) -> None:
    """d_min..d_max, two ints >= 2 in order."""
    _check_int("d_min", d_min, 2)
    _check_int("d_max", d_max, 2)
    if d_min > d_max:
        raise RangeError(f"need d_min <= d_max, got {_repr(d_min)} > "
                         f"{_repr(d_max)}")


def gamma_table(d_min: int, d_max: int) -> list[PleijelRow]:
    """Rows for d = d_min..d_max; quotient_next is None on the last row."""
    _check_d_range(d_min, d_max)
    _top_zero(d_max, "gamma({})", d_max)
    rows = []
    for d in range(d_min, d_max + 1):
        lgv = _log_gamma_value(d)
        quotient = _quotient(d) if d < d_max else None
        rows.append(PleijelRow(d, math.exp(lgv), lgv, quotient))
    return rows


def quotient_curve(d_min: int, d_max: int) -> list[tuple[int, float]]:
    """(d, gamma(d+1)/gamma(d)) for d = d_min..d_max; every quotient < 1."""
    _check_d_range(d_min, d_max)
    _top_zero(d_max + 1, "quotient gamma({})/gamma({})", d_max + 1, d_max)
    points = [(d, _quotient(d)) for d in range(d_min, d_max + 1)]
    for d, q in points:
        if not q < 1.0:
            raise CertificateFailure(
                f"pleijel quotient gamma({d + 1})/gamma({d}) = {q!r} "
                f"violates the strict decrease"
            )
    return points


# ---------------------------------------------------------------------------
# monotonicity certificate


def _finite(side) -> bool:
    """An int side is exact, so finite even past the float range."""
    return isinstance(side, int) or math.isfinite(side)


class Check(namedtuple("Check", "name lhs rhs kind", defaults=(_STRICT,))):
    """One certified comparison; construction fails unless it holds.

    kind "strict_less" requires lhs < rhs (courant verdicts use only this);
    kind "equal" requires lhs == rhs (chain links that are exact identities).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (_STRICT, _EQUAL):
            raise RangeError(f"unknown check kind {self.kind!r}")
        if not (_finite(self.lhs) and _finite(self.rhs)):
            raise CertificateFailure(
                f"pleijel/courant check '{self.name}': non-finite side "
                f"(lhs={self.lhs!r}, rhs={self.rhs!r})"
            )
        holds = self.lhs < self.rhs if self.kind == _STRICT else self.lhs == self.rhs
        if not holds:
            wanted = "<" if self.kind == _STRICT else "=="
            raise CertificateFailure(
                f"pleijel/courant check '{self.name}' failed: "
                f"lhs={self.lhs!r} {wanted} rhs={self.rhs!r} does not hold"
            )
        return self

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "kind": self.kind,
        }


# exact rationals as integer pairs (n, d) with d > 0


def _add(a, b):
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _lowest_terms(a) -> str:
    """n/d in lowest terms, or n when d is 1."""
    g = math.gcd(*a)
    return f"{a[0] // g}" if a[1] == g else f"{a[0] // g}/{a[1] // g}"


def _exact_check(name: str, lhs, rhs, kind: str = _STRICT) -> Check:
    """Decide a comparison of two exact rationals (n, d) by
    cross-multiplication, then record each side as the float n / d (int
    true division rounds once, to nearest)."""
    left, right = lhs[0] * rhs[1], rhs[0] * lhs[1]
    if not (left < right if kind == _STRICT else left == right):
        wanted = "<" if kind == _STRICT else "=="
        raise CertificateFailure(
            f"pleijel monotonicity check '{name}' failed in exact "
            f"arithmetic: {_lowest_terms(lhs)} {wanted} "
            f"{_lowest_terms(rhs)} does not hold"
        )
    return Check(name, lhs[0] / lhs[1], rhs[0] / rhs[1], kind)


class MonotonicityCertificate(namedtuple("MonotonicityCertificate",
                                         "d checks")):
    """Every link (a tuple of Check) of the strict-decrease chain at one d."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_int("d", self.d, 4)
        names = [c.name for c in self.checks]
        if len(set(names)) != len(names):
            raise RangeError(f"duplicate check names in certificate: {names}")
        missing = _REQUIRED_CHECKS.difference(names)
        if missing:
            raise RangeError(
                f"certificate at d={self.d} missing checks: {sorted(missing)}"
            )
        return self

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise RangeError(f"certificate at d={self.d} has no check {name!r}")

    def as_dict(self) -> dict:
        return {"d": self.d, "checks": [c.as_dict() for c in self.checks]}


def monotonicity_certificate(d: int) -> MonotonicityCertificate:
    """Certify gamma(d+1) < gamma(d) by checking the whole proof chain at d.

    Valid for d >= 4 (two of the algebraic links genuinely need it) up to
    d = D_MAX - 1 (the chain reads first zeros for dimensions d-1 .. d+1).
    """
    _check_int("d", d, 4)
    # First zeros at the three consecutive half-integer-spaced orders the
    # chain touches: order (dim)/2 - 1 for dim = d-1, d, d+1.
    j_dp1 = _top_zero(d + 1, "certificate at d={}", d)
    j_dm1 = zeros.dirichlet_zero(0, d - 1, 1)
    j_d = zeros.dirichlet_zero(0, d, 1)
    ratio = _quotient(d)

    checks = []

    # Log-convexity of Gamma: the half-step ratio of Gamma values squared.
    gamma_step = math.exp(2.0 * (log_gamma(0.5 * d + 0.5) - log_gamma(0.5 * d)))
    checks.append(Check("gamma_eq", gamma_step, (d - 1) ** 2 / (2.0 * (d - 2))))

    # First-zero ratio at consecutive integer order steps, bounded by the
    # first-two-eigenvalue ratio of a cube; the instance with dimension
    # parameter d-1 is the one the interpolation below consumes.
    checks.append(Check("asb", j_dm1 / j_dp1, math.sqrt(1.0 - 3.0 / (d + 2.0))))

    # Convexity of the squared first zero in the order: the half-step ratio
    # is at most the average of the full-step ratio and 1.
    checks.append(
        Check(
            "convexity_step",
            (j_d / j_dp1) ** 2,
            0.5 * ((j_dm1 / j_dp1) ** 2 + 1.0),
        )
    )

    # The averaging above turns the asb bound 1 - 3/(d+2) into exactly
    # 1 - 3/(2(d+2)).
    checks.append(
        _exact_check(
            "interpolation_algebra",
            _mul((1, 2), _add(_add((1, 1), (-3, d + 2)), (1, 1))),
            _add((1, 1), (-3, 2 * (d + 2))),
            _EQUAL,
        )
    )

    # End-to-end half-step control used in the quotient bound.
    checks.append(
        Check("control", (j_d / j_dp1) ** 2, 1.0 - 3.0 / (2.0 * (d + 2.0)))
    )

    # Two-sided first-zero estimates at the order entering the quotient.
    lower, upper = zeros._first_zero_bounds(0, d - 1)
    checks.append(Check("jest_lower", lower, j_dp1))
    checks.append(Check("jest_upper", j_dp1, upper))

    # Assembled bound on the quotient itself.
    assembled = (
        2.0
        / math.sqrt((d - 1.0) * (d + 3.0))
        * ((d + 1.0) / d) ** 2
        * (d - 1.0) ** 2
        / (d - 2.0)
        * (1.0 - 3.0 / (2.0 * (d + 2.0))) ** (0.5 * d)
    )
    checks.append(Check("gamma_ratio_bound", ratio, assembled))

    # (1 - a/x)^x < e^(-a) with x = (d+2)/2, a = 3/4.
    checks.append(
        Check(
            "exp_bound",
            (1.0 - 3.0 / (2.0 * (d + 2.0))) ** (0.5 * d + 1.0),
            math.exp(-0.75),
        )
    )

    # (d+1/2)^2 < (d-1)(d+3), exact for d >= 4.
    checks.append(
        _exact_check(
            "interval_bound",
            _mul((2 * d + 1, 2), (2 * d + 1, 2)),
            ((d - 1) * (d + 3), 1),
        )
    )

    # The remaining rational factor is below 1 + 5/d, exact for d >= 4.
    poly = _mul(
        _mul(((d + 1) ** 2, d**2), ((d - 1) ** 2, d - 2)),
        (4 * (d + 2), (2 * d + 1) ** 2),
    )
    checks.append(_exact_check("poly_bound", poly, (d + 5, d)))

    if d == 4:
        # Spot value anchoring the decreasing majorant of the difference
        # polynomial: -4 + 39/d^2 + 41/d^3 at d = 4 is exactly -59/64.
        checks.append(
            _exact_check(
                "poly_spot",
                _add(_add((-4, 1), (39, 16)), (41, 64)),
                (-59, 64),
                _EQUAL,
            )
        )

    # Chain conclusion before the numeric constant: quotient < (2/e^0.75)(1+5/d).
    checks.append(
        Check("combined_bound", ratio, 2.0 * math.exp(-0.75) * (1.0 + 5.0 / d))
    )

    # 2/e^(3/4) = 0.9447... < 95/100.
    checks.append(Check("e34_lt_95", 2.0 * math.exp(-0.75), 0.95))

    # The closing bound (95/100)(1+5/d) is decreasing, exactly 1 at d = 95
    # and strictly below 1 from d = 96 on.
    closing = _mul((95, 100), _add((1, 1), (5, d)))
    if d == 95:
        checks.append(
            _exact_check("final_bound_equality", closing, (1, 1), _EQUAL)
        )
    elif d >= 96:
        checks.append(_exact_check("ninetyfive_bound_lt_1", closing, (1, 1)))

    # And the certified conclusion: the computed quotient is below 1.
    checks.append(Check("final_lt_1", ratio, 1.0))

    return MonotonicityCertificate(d, tuple(checks))


# ---------------------------------------------------------------------------
# Neumann-side bound


def neumann_pleijel_bound(d: int) -> float:
    """Asymptotic nodal-count bound gamma(d-1) for the Neumann ball, d >= 3.

    The binding constant is the one for dimension d-1; this relies on the
    strict decrease of gamma, which is asserted here for the pair involved.
    """
    _check_int("d", d, 3)
    value = gamma(d - 1)
    if not gamma(d) < value:
        raise CertificateFailure(
            f"pleijel neumann bound at d={d}: gamma({d}) >= gamma({d - 1}), "
            f"strict decrease violated"
        )
    return value


# ---------------------------------------------------------------------------
# serialization


def six_decimals(x: float) -> str:
    """x rounded to 6 decimal places, halves away from zero."""
    from decimal import ROUND_HALF_UP, Decimal
    x = float(x)
    if not math.isfinite(x):
        raise RangeError(f"cannot round non-finite value {x!r}")
    return str(Decimal(x).quantize(Decimal("0.000001"), rounding=ROUND_HALF_UP))


def curve_to_plot_json(points: list[tuple[int, float]]) -> str:
    """Plot payload for the quotient curve: x, y and the limit line 2/e."""
    payload = {
        "x": [d for d, _ in points],
        "y": [q for _, q in points],
        "hline": TWO_OVER_E,
    }
    return dumps(payload)
