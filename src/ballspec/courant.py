"""Courant-sharpness decisions for ball eigenvalues.

An eigenvalue with minimal label n is Courant sharp when some eigenfunction
has exactly n nodal domains. The decision pipeline mirrors the structure of
the underlying proofs: the first two labels are always sharp; repeated
radial indices are excluded by an angular-twist argument (no numerics);
higher radial modes are excluded by the radial ordering inequality; for
d >= 3 the degree series is excluded by comparing a symmetry bound on nodal
counts against the label; on the disc the explicit product count decides
directly. Every numeric exclusion carries strict-inequality certificates
with both sides evaluated.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import zeros
from .bessel import _check_int, _repr
from .errors import CertificateFailure, RangeError
from .pleijel import Check
from .spectrum import (EigenvalueRecord, SpectrumTable, _binom,
                       enumerate_spectrum)


class SharpnessStatus(Enum):
    SHARP = "Sharp"
    EXCLUDED_TWIST = "ExcludedTwist"
    EXCLUDED_RADIAL_ORDERING = "ExcludedRadialOrdering"
    EXCLUDED_SPHERE_LABEL = "ExcludedSphereLabel"
    EXCLUDED_DIRECT_COUNT = "ExcludedDirectCount"


class SphereLabeling(namedtuple("SphereLabeling",
                                "l d min_label symmetry_bound")):
    """Label bookkeeping for the degree-l sphere eigenvalue in R^d."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_int("l", self.l, 0)
        _check_int("d", self.d, 3)
        if self.min_label != _min_label(self.l, self.d):
            raise RangeError("min_label does not match the labeling formula")
        want_sym = 2 * (_binom(self.l + self.d - 3, self.d - 1) + 1)
        if self.symmetry_bound != want_sym:
            raise RangeError("symmetry_bound does not match 2*(C+1)")
        return self


class SharpnessVerdict(namedtuple("SharpnessVerdict",
                                  "record status mu certificate")):
    """Decision for one eigenvalue block, with its numeric evidence: a
    tuple of strict lhs < rhs Check entries (the nodal count mu or None)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.status is SharpnessStatus.SHARP:
            if self.mu != self.record.label_first:
                raise CertificateFailure(
                    "Sharp verdict requires a nodal count equal to the label"
                )
            if self.certificate:
                raise CertificateFailure(
                    "Sharp is an equality; it carries no inequality entries"
                )
        return self

    def as_dict(self) -> dict:
        return {
            "l": self.record.l,
            "m": self.record.m,
            "bc": self.record.bc.value,
            "status": self.status.value,
            "label_first": self.record.label_first,
            "mu": self.mu,
            "certificate": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs}
                            for c in self.certificate],
        }


def nodal_count_disc(l: int, m: int, bc) -> int:
    """Nodal domains of the (l, m) disc eigenfunction: m bands x 2l sectors."""
    zeros._coerce_bc(bc)  # both conditions share the product structure
    _check_int("l", l, 0)
    _check_int("m", m, 1)
    return m if l == 0 else 2 * l * m


def _min_label(l: int, d: int) -> int:
    if l == 0:
        return 1
    if l == 1:
        return 2
    return 1 + _binom(l + d - 2, d - 1) + _binom(l + d - 3, d - 1)


def sphere_labeling(l: int, d: int) -> SphereLabeling:
    """Minimal label and nodal-count symmetry bound on the (d-1)-sphere."""
    _check_int("d", d, 3)
    _check_int("l", l, 0)
    return SphereLabeling(
        l=l, d=d,
        min_label=_min_label(l, d),
        symmetry_bound=2 * (_binom(l + d - 3, d - 1) + 1),
    )


def _reduced_binomial(l: int, d: int) -> Check:
    """1 < C(l+d-3, d-2), the strict certificate that excludes degree l >= 2
    on the (d-1)-sphere."""
    return Check(f"reduced_binomial[l={l}]", 1, _binom(l + d - 3, d - 2))


def sphere_courant_sharp(d: int, lmax: int = 50) -> set[int]:
    """Courant-sharp labels on the (d-1)-sphere: always {1, 2}.

    Degrees l = 0, 1 give labels 1 and 2 (sharp). Every degree l >= 2 is
    excluded: by Pascal's rule min_label - symmetry_bound = C(l+d-3, d-2)
    - 1, and C(l+d-3, d-2) increases in l, so the strict certificates at
    l = 2 decide every degree up to lmax, at a cost independent of lmax.
    """
    _check_int("d", d, 3)
    _check_int("lmax", lmax, 2)
    # each Check raises CertificateFailure unless it holds
    lab = sphere_labeling(2, d)
    _reduced_binomial(2, d)
    Check("symmetry_vs_min_label[l=2]", lab.symmetry_bound, lab.min_label)
    return {1, 2}


def _verdict(rec: EigenvalueRecord, table: SpectrumTable) -> SharpnessVerdict:
    d, l, m = rec.d, rec.l, rec.m
    label = rec.label_first
    mu = nodal_count_disc(l, m, rec.bc) if d == 2 else None

    if label <= 2:
        if d == 2 and mu != label:
            raise CertificateFailure(
                f"disc count mu={mu} disagrees with low label {label}"
            )
        return SharpnessVerdict(rec, SharpnessStatus.SHARP, label, ())
    if l >= 1 and m >= 2:
        # a repeated radial index admits an angular twist that merges
        # domains, so the count always stays below the label: rule only
        return SharpnessVerdict(rec, SharpnessStatus.EXCLUDED_TWIST, mu, ())
    if l == 0 and m >= 2:
        certs = [Check("radial_ordering", table.record_for(1, 1).lam,
                       table.record_for(0, 2).lam)]
        if d == 2:
            certs.append(Check("count_vs_label", mu, label))
        return SharpnessVerdict(
            rec, SharpnessStatus.EXCLUDED_RADIAL_ORDERING, mu, tuple(certs))
    if l >= 2 and m == 1:
        if d == 2:
            if mu == label:
                return SharpnessVerdict(rec, SharpnessStatus.SHARP, mu, ())
            cert = Check("count_vs_label", mu, label)
            return SharpnessVerdict(
                rec, SharpnessStatus.EXCLUDED_DIRECT_COUNT, mu, (cert,))
        lab = sphere_labeling(l, d)
        certs = (
            _reduced_binomial(l, d),
            Check(f"symmetry_vs_label[l={l}]", lab.symmetry_bound, label),
        )
        return SharpnessVerdict(
            rec, SharpnessStatus.EXCLUDED_SPHERE_LABEL, mu, certs)
    raise CertificateFailure(
        f"mode (l={l}, m={m}) has label {label}: the expected low-spectrum "
        f"ordering failed"
    )


def courant_sharp_ball(d: int, bc, lmax: int = 8,
                       mmax: int = 4) -> list[SharpnessVerdict]:
    """Verdicts for every mode with l <= lmax, m <= mmax, in label order."""
    bc = zeros._coerce_bc(bc)
    _check_int("d", d, 2)
    _check_int("lmax", lmax, 1)
    _check_int("mmax", mmax, 1)
    try:
        z_top = zeros.find_zero(bc, lmax, d, mmax)  # zeros increase in l, m
        table = enumerate_spectrum(d, bc, z_top * z_top)
    except RangeError as exc:  # the top mode, or the spectrum below it
        d, lmax, mmax = map(_repr, (d, lmax, mmax))
        raise RangeError(
            f"d={d} with lmax={lmax} and mmax={mmax} needs the spectrum "
            f"below the ({lmax}, {mmax}) mode: {exc}"
        ) from None
    return sorted((_verdict(table.record_for(l, m), table)
                   for l in range(0, lmax + 1) for m in range(1, mmax + 1)),
                  key=lambda v: v.record.label_first)


def sharp_labels(verdicts: list[SharpnessVerdict]) -> set[int]:
    """Labels of the Sharp verdicts in a report."""
    return {v.record.label_first for v in verdicts
            if v.status is SharpnessStatus.SHARP}
