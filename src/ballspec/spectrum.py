"""Laplacian spectra of the d-dimensional unit ball with exact multiplicities.

A mode with angular degree l has radial profile proportional to the scaled
Bessel function whose zeros (Dirichlet) or derivative zeros (Neumann) set
the admissible frequencies; the eigenvalue is the squared zero and its
multiplicity is the dimension of the degree-l spherical-harmonic space.
Enumeration is certified complete: it walks the degrees l = 0, 1, ... up
to the first one with no zero at or below the cutoff. By min-max on the
radial Rayleigh quotient, whose potential l(l+d-2)/r^2 grows with l, each
degree's first zero lies strictly past the one before (Neumann's from l = 1
on, as l = 0 always holds its ground state at r = 0), and rounding to the
nearest float is monotone, so no later degree holds one either. Within a
degree, zeros.radial_zeros walks every sign change from the origin.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import comb

from . import _format, zeros
from .bessel import X_MAX, _check_int
from .errors import DegenerateOrdering, RangeError
from .zeros import BoundaryCondition, _coerce_bc  # BoundaryCondition: public here too

LAMBDA_MAX = X_MAX ** 2
CUTOFF_SLACK = 1e-9  # lambda_max is inclusive, with this absolute slack


def _binom(n: int, k: int) -> int:
    """C(n, k), zero for n < k or n < 0 (exact integers)."""
    return comb(n, k) if n >= 0 else 0


def multiplicity(l: int, d: int) -> int:
    """Dimension of the degree-l spherical-harmonic space in R^d."""
    _check_int("l", l, 0)
    _check_int("d", d, 2)
    return _binom(l + d - 1, d - 1) - _binom(l + d - 3, d - 1)


class EigenvalueRecord(namedtuple("EigenvalueRecord", "d bc l m zero lam "
                                  "multiplicity label_first label_last")):
    """One eigenvalue block: all modes sharing the radial zero. bc is a
    BoundaryCondition; lam, the eigenvalue, is serialized as "lambda"."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lam != self.zero * self.zero:
            raise RangeError("lam must equal zero**2 exactly as computed")
        if self.multiplicity != multiplicity(self.l, self.d):
            raise RangeError("multiplicity does not match the degree formula")
        if self.label_last != self.label_first + self.multiplicity - 1:
            raise RangeError("label_last must be label_first+multiplicity-1")
        return self

    def row(self) -> tuple:
        """The fields in order, bc as its name: one JSON record or CSV row."""
        return (self.d, self.bc.value, *self[2:])

    def as_dict(self) -> dict:
        return dict(zip(_CSV_FIELDS, self.row()))


_CSV_FIELDS = ("d", "bc", "l", "m", "zero", "lambda", "multiplicity",
               "label_first", "label_last")


class SpectrumTable(namedtuple("SpectrumTable", "d bc lambda_max records")):
    """Ordered, labeled spectrum up to the cutoff: a tuple of records."""

    __slots__ = ()

    @property
    def n_labels(self) -> int:
        return self.records[-1].label_last if self.records else 0

    def record_for(self, l: int, m: int) -> EigenvalueRecord:
        for rec in self.records:
            if rec.l == l and rec.m == m:
                return rec
        raise RangeError(
            f"mode (l={l}, m={m}) not in table up to lambda_max="
            f"{self.lambda_max!r}"
        )

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "bc": self.bc.value,
            "lambda_max": self.lambda_max,
            "records": [rec.as_dict() for rec in self.records],
        }

    def to_json(self) -> str:
        return _format.dumps(self.as_dict())

    def to_csv(self) -> str:
        return _format.csv_text(_CSV_FIELDS,
                                (rec.row() for rec in self.records))


def enumerate_spectrum(d: int, bc, lambda_max) -> SpectrumTable:
    """Every eigenvalue <= lambda_max (absolute slack 1e-9), labeled in
    the order of the certified zeros (see DegenerateOrdering)."""
    bc = _coerce_bc(bc)
    _check_int("d", d, 2)
    lambda_max = float(lambda_max)
    if not (math.isfinite(lambda_max) and 0.0 <= lambda_max <= LAMBDA_MAX):
        raise RangeError(
            f"lambda_max={lambda_max!r} outside [0, {LAMBDA_MAX}]"
        )
    lambda_max = abs(lambda_max)  # -0.0 passes the check; the table says 0.0
    lam_cut = lambda_max + CUTOFF_SLACK
    r_cut = min(math.sqrt(lam_cut), X_MAX)
    modes = []
    l = 0
    while found := zeros.radial_zeros(bc, l, d, r_cut):
        mult = multiplicity(l, d)
        modes += [(z, l, m, mult) for m, z in enumerate(found, 1)
                  if z * z <= lam_cut]
        l += 1
    modes.sort()
    records = []
    next_label = 1
    for z, l, m, mult in modes:
        lam = z * z
        if records and lam == records[-1].lam:  # as it must if z ties
            prev = records[-1]
            raise DegenerateOrdering(
                f"modes (l={prev.l}, m={prev.m}) and (l={l}, m={m}) share "
                f"the eigenvalue float lambda={lam!r} (zeros {prev.zero!r} "
                f"and {z!r}), so their order is not certified"
            )
        records.append(EigenvalueRecord(
            d=d, bc=bc, l=l, m=m, zero=z, lam=lam, multiplicity=mult,
            label_first=next_label, label_last=next_label + mult - 1,
        ))
        next_label += mult
    return SpectrumTable(d=d, bc=bc, lambda_max=lambda_max,
                         records=tuple(records))


def label_of(d: int, bc, l: int, m: int) -> int:
    """Minimal label n with lambda_n equal to the (l, m) eigenvalue."""
    bc = _coerce_bc(bc)
    _check_int("l", l, 0)
    _check_int("d", d, 2)
    _check_int("m", m, 1)
    z = zeros.find_zero(bc, l, d, m)
    return enumerate_spectrum(d, bc, z * z).record_for(l, m).label_first


def weyl_count(d: int, lam) -> float:
    """Leading eigenvalue-counting term for the unit ball at height lam.

    (2 pi)^-d |B_d|^2 lam^(d/2) = (lam/4)^(d/2) / Gamma(d/2 + 1)^2, formed
    in log space: 0.0 where it underflows, RangeError past the float range.
    """
    _check_int("d", d, 2)
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise RangeError(f"lambda must be a finite real >= 0, got {lam!r}")
    if lam == 0.0:
        return 0.0
    try:
        half_d = 0.5 * d
        ln_w = (half_d * (math.log(lam) - math.log(4.0))
                - 2.0 * math.lgamma(half_d + 1.0))
    except OverflowError:  # d/2 past ~2.5e305: Gamma^2 swamps any float lam
        return 0.0
    try:
        return math.exp(ln_w)
    except OverflowError:
        raise RangeError(
            f"Weyl term at d={d}, lambda={lam!r} exceeds the float range"
        ) from None
