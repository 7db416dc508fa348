"""Laplacian spectra of the d-dimensional unit ball with exact multiplicities.

A mode with angular degree l has radial profile proportional to the scaled
Bessel function whose zeros (Dirichlet) or derivative zeros (Neumann) set
the admissible frequencies; the eigenvalue is the squared zero and its
multiplicity is the dimension of the degree-l spherical-harmonic space.
Enumeration is certified complete: the degree loop stops only once a
rigorous lower bound on the first zero clears the cutoff, and the index
loop walks every sign change from the origin.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import comb

from . import _format, zeros
from .bessel import X_MAX, _check_int
from .errors import DegenerateOrdering, RangeError

LAMBDA_MAX = X_MAX ** 2
CUTOFF_SLACK = 1e-9  # lambda_max is inclusive, with this absolute slack
_GAP_REL = 1e-8  # consecutive eigenvalues closer than this signal a bug


class BoundaryCondition(Enum):
    DIRICHLET = "Dirichlet"
    NEUMANN = "Neumann"


def _coerce_bc(bc) -> BoundaryCondition:
    if isinstance(bc, BoundaryCondition):
        return bc
    if isinstance(bc, str):
        for member in BoundaryCondition:
            if bc.lower() == member.value.lower():
                return member
    raise RangeError(f"bc must be Dirichlet or Neumann, got {bc!r}")


# the zeros target whose m-th zero is the (l, m) radial frequency
ROOT_KIND = {
    BoundaryCondition.DIRICHLET: zeros.RootKind.DIRICHLET_XI,
    BoundaryCondition.NEUMANN: zeros.RootKind.NEUMANN_XI_PRIME,
}


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


def _candidate_degrees(d: int, bc: BoundaryCondition, r_cut: float,
                       lambda_max: float) -> list[int]:
    """Degrees whose first zero may lie at or below r_cut, the radius of
    the cutoff lambda_max (named in the error)."""
    kind = ROOT_KIND[bc]
    out = []
    l = 0
    while zeros._first_zero_lower(kind, l, d) <= r_cut:
        zeros._check_pair(2 * l + d - 2, f"completeness up to "
                          f"lambda_max={lambda_max!r} (degree l={l})")
        out.append(l)
        l += 1
    return out


def _modes_upto(l: int, d: int, bc: BoundaryCondition, r_cut: float,
                lam_cut: float) -> list[tuple[int, float]]:
    """(m, zero) pairs with zero <= r_cut and zero^2 <= lam_cut, in order."""
    found = zeros.radial_zeros(ROOT_KIND[bc], l, d, r_cut)
    return [(m, z) for m, z in enumerate(found, 1) if z * z <= lam_cut]


def enumerate_spectrum(d: int, bc, lambda_max) -> SpectrumTable:
    """Every eigenvalue <= lambda_max (absolute slack 1e-9), labeled."""
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
    raw = []
    for l in _candidate_degrees(d, bc, r_cut, lambda_max):
        mult = multiplicity(l, d)
        for m, z in _modes_upto(l, d, bc, r_cut, lam_cut):
            raw.append((z * z, l, m, z, mult))
    raw.sort()

    records = []
    next_label = 1
    prev_lam = None
    for lam, l, m, z, mult in raw:
        if prev_lam is not None and lam - prev_lam <= _GAP_REL * max(1.0, lam):
            raise DegenerateOrdering(
                f"eigenvalues at lambda={prev_lam!r} and {lam!r} are too "
                f"close to order reliably (gap {lam - prev_lam!r})"
            )
        records.append(EigenvalueRecord(
            d=d, bc=bc, l=l, m=m, zero=z, lam=lam, multiplicity=mult,
            label_first=next_label, label_last=next_label + mult - 1,
        ))
        next_label += mult
        prev_lam = lam
    return SpectrumTable(d=d, bc=bc, lambda_max=lambda_max,
                         records=tuple(records))


@lru_cache(maxsize=4096)
def _label_of_cached(d: int, bc_value: str, l: int, m: int) -> int:
    bc = BoundaryCondition(bc_value)
    z = zeros.find_zero(ROOT_KIND[bc], l, d, m)
    table = enumerate_spectrum(d, bc, z * z)
    return table.record_for(l, m).label_first


def label_of(d: int, bc, l: int, m: int) -> int:
    """Minimal label n with lambda_n equal to the (l, m) eigenvalue."""
    bc = _coerce_bc(bc)
    _check_int("l", l, 0)
    _check_int("d", d, 2)
    _check_int("m", m, 1)
    return _label_of_cached(d, bc.value, l, m)


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
