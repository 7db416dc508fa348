"""Built-in invariant suite: recomputes cross-module identities on demand.

Every check recomputes facts that must hold if the kernel, the zero census,
the enumeration, and the certificate chain are all consistent: recurrence
residuals of the Bessel kernel, interlacing of zeros, the derivative/zero
aliasing identity, exact multiplicity telescoping, the 6-decimal gamma
table, two-sided first-zero estimates, sharp-label sets, the Courant bound
over an enumerated spectrum, certificate sweeps, and the quotient curve.

`run(fast=True)` executes a subset sized for interactive use;
`run(fast=False)` is the full suite, a few times longer.  Results come back
as CheckResult records; nothing is printed here (the CLI renders them).

The kernel is reached through the `bessel` module attribute at call time,
so a test harness can inject a deliberate bias into `bessel.eval_J` and
watch the recurrence-residual check fail.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

from ballspec import bessel, courant, pleijel, spectrum, zeros
from ballspec.bessel import Order

__all__ = ["CheckResult", "run"]

# Table of 6-decimal gamma values the pleijel module must reproduce.
_TABLE_6DEC = [
    "0.691660", "0.455945", "0.296901", "0.192940", "0.125581",
    "0.081982", "0.053704", "0.035306", "0.023291", "0.015417",
    "0.010236", "0.006817", "0.004553", "0.003048", "0.002046",
    "0.001376", "0.000928", "0.000627", "0.000424", "0.000288",
]


class CheckResult(namedtuple("CheckResult", "name ok detail elapsed")):
    """Outcome of one named invariant: ok, or a first-failure detail."""

    __slots__ = ()


def _check_recurrence_residual(fast: bool) -> str | None:
    """Three-term recurrence J_nu + J_{nu+2} = (2(nu+1)/x) J_{nu+1}.

    Evaluated through bessel.eval_J so the three orders are computed
    independently; residual is relative to the largest term.
    """
    orders = [0, 1, 2, 3, 5, 8, 13, 25, 60, 120, 200]
    points = [0.5, 1.0, 3.7, 10.0, 30.0, 80.0, 150.0, 200.0]
    if fast:
        orders = orders[::2]
        points = points[::2]
    for tn in orders:
        for x in points:
            a = bessel.eval_J(Order(tn), x).value
            b = bessel.eval_J(Order(tn + 2), x).value
            c = bessel.eval_J(Order(tn + 4), x).value
            mid = (tn + 2.0) / x * b  # 2(nu+1)/x with nu = tn/2
            scale = max(abs(a), abs(mid), abs(c))
            residual = abs(a + c - mid) / scale
            if residual > 1e-10:
                return (
                    f"recurrence residual {residual:.3e} > 1e-10 at "
                    f"twice_nu={tn}, x={x}"
                )
    return None


def _check_interlacing(fast: bool) -> str | None:
    """j(nu, m) < j(nu+1, m) < j(nu, m+1), strictly, across the order grid."""
    tn_max, m_max = (12, 3) if fast else (20, 6)
    for tn in range(tn_max + 1):
        for m in range(1, m_max + 1):
            low = zeros.bessel_zero(Order(tn), m)
            mid = zeros.bessel_zero(Order(tn + 2), m)
            high = zeros.bessel_zero(Order(tn), m + 1)
            if not low + 1e-6 < mid < high - 1e-6:
                return (
                    f"interlacing violated at twice_nu={tn}, m={m}: "
                    f"{low!r}, {mid!r}, {high!r}"
                )
    return None


def _check_derivative_alias(fast: bool) -> str | None:
    """The (m+1)-th radial-derivative zero at degree 0 is the m-th interior
    zero at degree 1, the same float: zeros._key gives both one census key
    (d/dr of the degree-0 profile is the degree-1 profile up to sign). As
    both read one cached zero, a fresh eval_J ladder must also take signs
    clear of its bound, and opposite, at 2^-40 of it either side."""
    dims = (2, 3) if fast else (2, 3, 4, 5)
    m_max = 4 if fast else 6
    for d in dims:
        for m in range(1, m_max + 1):
            beta = zeros.neumann_zero(0, d, m + 1)
            alpha = zeros.dirichlet_zero(1, d, m)
            lo, hi = (bessel.eval_J(Order(d), beta * (1.0 + s * 2.0**-40))
                      for s in (-1.0, 1.0))
            if beta != alpha or lo.value * hi.value >= 0.0 or any(
                    abs(v) <= e * max(abs(v), bessel._NEAR_ZERO_FLOOR)
                    for v, e in (lo, hi)):
                return (
                    f"derivative alias off at d={d}, m={m}: {beta!r} vs "
                    f"{alpha!r}, J_(d/2) {lo.value:.3e}, {hi.value:.3e}"
                )
    return None


def _check_multiplicity_telescoping(fast: bool) -> str | None:
    """Partial sums of multiplicities collapse to two binomials, exactly."""
    l_max = 20 if fast else 60
    for d in range(2, 7):
        total = 0
        for l in range(l_max + 1):
            total += spectrum.multiplicity(l, d)
            want = math.comb(l + d - 1, d - 1) + math.comb(l + d - 2, d - 1)
            if total != want:
                return (
                    f"multiplicity telescoping broken at d={d}, l={l}: "
                    f"{total} != {want}"
                )
    return None


def _check_table_values(fast: bool) -> str | None:
    """gamma(2..21) reproduces the published 6-decimal table."""
    for d, want in zip(range(2, 22), _TABLE_6DEC):
        got = pleijel.six_decimals(pleijel.gamma(d))
        if got != want:
            return f"gamma({d}) rounds to {got}, expected {want}"
    return None


def _first_zero_keys(fast: bool) -> list[tuple[int, int]]:
    """The census keys of the first_zero_bounds suite: every J order and
    every Neumann l >= 1 of a few d (fast: a sample) whose first zero
    provably lies in the box (its upper bound is at most X_MAX, so that
    nu < X_MAX)."""
    step, dims = (8, (2, 3)) if fast else (1, (2, 3, 30, 120))
    top = 2 * int(bessel.X_MAX)
    keys = [(0, tn) for tn in range(0, top, step)] + [
        (l, 2 * l + d - 2) for d in dims
        for l in range(1, (top - d) // 2 + 1, step)]
    return [key for key in keys
            if zeros._first_zero_bounds(*key)[1] <= bessel.X_MAX]


def _check_first_zero_bounds(fast: bool) -> str | None:
    """zeros._first_zero_bounds bracket the first positive zero at every
    key of _first_zero_keys."""
    for l, tn in _first_zero_keys(fast):
        lower, upper = zeros._first_zero_bounds(l, tn)
        census = zeros._first_zero_lower((l, tn))  # the bound that refuses
        z = (zeros.bessel_zero(Order(tn), 1) if l == 0
             else zeros.neumann_zero(l, tn - 2 * l + 2, 1))
        if not (lower < z < upper and census < z):
            return f"first-zero bounds fail at l={l}, twice_nu={tn}: {lower!r} (census {census!r}), {z!r}, {upper!r}"
    return None


def _check_disc_sharp_set(fast: bool) -> str | None:
    """Courant-sharp labels of the disc are exactly {1, 2, 4} (both sides)."""
    for bc in ("dirichlet", "neumann"):
        verdicts = courant.courant_sharp_ball(2, bc)
        got = courant.sharp_labels(verdicts)
        if got != {1, 2, 4}:
            return f"disc sharp set for {bc} is {sorted(got)}, expected [1, 2, 4]"
    return None


def _check_ball_sharp_sets(fast: bool) -> str | None:
    """Courant-sharp labels in dimension >= 3 are exactly {1, 2}."""
    dims = (3,) if fast else (3, 4, 5)
    for d in dims:
        for bc in ("dirichlet", "neumann"):
            got = courant.sharp_labels(courant.courant_sharp_ball(d, bc))
            if got != {1, 2}:
                return (
                    f"sharp set for d={d}, {bc} is {sorted(got)}, "
                    f"expected [1, 2]"
                )
    return None


def _check_min_gap(fast: bool) -> str | None:
    """Positive derivative zeros of distinct degrees stay > 1e-3 apart."""
    l_top, p_top = (4, 2) if fast else (8, 4)

    for d in (2, 3):
        table = {
            l: [z for z in zeros.radial_zeros(
                zeros.BoundaryCondition.NEUMANN, l, d, 60.0) if z > 0.0]
            for l in range(l_top + p_top + 1)
        }
        for l in range(l_top + 1):
            for p in range(1, p_top + 1):
                gap = min(abs(a - b) for a in table[l] for b in table[l + p])
                if gap <= 1e-3:
                    return f"zero-set gap {gap!r} <= 1e-3 at d={d}, l={l}, p={p}"
    return None


def _check_spectrum_labels(fast: bool) -> str | None:
    """Enumerated labels tile 1..N without gaps and eigenvalues increase."""
    lam_max = 120.0 if fast else 900.0
    for d in (2, 3):
        for bc in ("dirichlet", "neumann"):
            table = spectrum.enumerate_spectrum(d, bc, lam_max)
            next_label = 1
            prev_lam = -1.0
            for rec in table.records:
                if rec.label_first != next_label:
                    return (
                        f"label gap at d={d}, {bc}: expected {next_label}, "
                        f"got {rec.label_first}"
                    )
                if not rec.lam > prev_lam:
                    return f"non-increasing eigenvalue at d={d}, {bc}, label {rec.label_first}"
                span = rec.label_last - rec.label_first + 1
                if span != rec.multiplicity:
                    return f"label span != multiplicity at d={d}, {bc}, l={rec.l}, m={rec.m}"
                next_label = rec.label_last + 1
                prev_lam = rec.lam
    return None


def _check_weyl_ratio(fast: bool) -> str | None:
    """Counting function stays within 15% of the leading Weyl term."""
    cases = [(2, 2000.0), (3, 900.0)]
    if fast:
        cases = [(2, 400.0)]
    for d, lam_max in cases:
        expected = spectrum.weyl_count(d, lam_max)
        for bc in ("dirichlet", "neumann"):
            table = spectrum.enumerate_spectrum(d, bc, lam_max)
            counted = table.records[-1].label_last
            ratio = counted / expected
            if abs(ratio - 1.0) > 0.15:
                return (
                    f"Weyl ratio {ratio!r} off by more than 0.15 at "
                    f"d={d}, {bc}, lambda_max={lam_max}"
                )
    return None


def _check_courant_bound(fast: bool) -> str | None:
    """Nodal counts never exceed the first label of their eigenvalue."""
    lam_max = 400.0 if fast else 2000.0
    for bc in ("dirichlet", "neumann"):
        table = spectrum.enumerate_spectrum(2, bc, lam_max)
        for rec in table.records:
            mu = courant.nodal_count_disc(rec.l, rec.m, bc)
            if mu > rec.label_first:
                return (
                    f"Courant bound violated at {bc}, l={rec.l}, m={rec.m}: "
                    f"mu={mu} > label {rec.label_first}"
                )
    return None


def _check_certificates(fast: bool) -> str | None:
    """Monotonicity certificates construct (hence hold) across a sweep."""
    d_max = 30 if fast else 150
    for d in range(4, d_max + 1):
        pleijel.monotonicity_certificate(d)
    return None


def _check_quotient_curve(fast: bool) -> str | None:
    """Quotient curve stays below 1 and lands near 2/e where computable."""
    d_max = 40 if fast else 94
    points = pleijel.quotient_curve(2, d_max)
    if not fast:
        q94 = dict(points)[94]
        if abs(q94 - pleijel.TWO_OVER_E) > 0.05:
            return f"quotient at d=94 is {q94!r}, not within 0.05 of 2/e"
    return None


def _check_neumann_bound(fast: bool) -> str | None:
    """The Neumann-side constant at d rounds to the table's gamma(d - 1)."""
    for d, want in zip(range(3, 13), _TABLE_6DEC):
        got = pleijel.six_decimals(pleijel.neumann_pleijel_bound(d))
        if got != want:
            return (f"neumann bound at d={d} rounds to {got}, expected "
                    f"gamma({d - 1}) = {want}")
    return None


# Ordered registry: the recurrence check runs first so a kernel fault is
# reported at its source before derived invariants fail downstream.
_REGISTRY: list[tuple[str, object]] = [
    ("recurrence_residual", _check_recurrence_residual),
    ("interlacing", _check_interlacing),
    ("derivative_alias", _check_derivative_alias),
    ("multiplicity_telescoping", _check_multiplicity_telescoping),
    ("first_zero_bounds", _check_first_zero_bounds),
    ("spectrum_labels", _check_spectrum_labels),
    ("weyl_ratio", _check_weyl_ratio),
    ("courant_bound", _check_courant_bound),
    ("disc_sharp_set", _check_disc_sharp_set),
    ("ball_sharp_sets", _check_ball_sharp_sets),
    ("min_gap", _check_min_gap),
    ("table_values", _check_table_values),
    ("certificates", _check_certificates),
    ("quotient_curve", _check_quotient_curve),
    ("neumann_bound", _check_neumann_bound),
]


def run(fast: bool = False) -> list[CheckResult]:
    """Execute the suite and collect results.

    A check that raises is recorded as failed with the exception text; the
    remaining checks still run so the report is complete.
    """
    results = []
    for name, fn in _REGISTRY:
        start = time.perf_counter()
        try:
            detail = fn(fast)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, detail is None, detail or "", elapsed))
    return results
