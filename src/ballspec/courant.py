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
from functools import partial

from . import zeros
from .bessel import _check_int
from .errors import CertificateFailure, RangeError
from .pleijel import Check
from .spectrum import (
    ROOT_KIND,
    BoundaryCondition,
    EigenvalueRecord,
    _binom,
    _coerce_bc,
    enumerate_spectrum,
)


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
    _coerce_bc(bc)  # both conditions share the product structure
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


def _sphere_checks(d: int, lmax: int) -> list[Check]:
    """Strict certificates excluding every degree l >= 2 on the sphere."""
    checks = []
    for l in range(2, lmax + 1):
        lab = sphere_labeling(l, d)
        checks.append(Check(
            name=f"reduced_binomial[l={l}]",
            lhs=1, rhs=_binom(l + d - 3, d - 2),
        ))
        checks.append(Check(
            name=f"symmetry_vs_min_label[l={l}]",
            lhs=lab.symmetry_bound, rhs=lab.min_label,
        ))
    return checks


def sphere_courant_sharp(d: int, lmax: int = 50) -> set[int]:
    """Courant-sharp labels on the (d-1)-sphere: always {1, 2}.

    Degrees l = 0, 1 give labels 1 and 2 (sharp); every degree up to lmax
    is excluded by strict certificates, and the excluding binomial is
    increasing in l, so larger degrees are immediate.
    """
    _check_int("d", d, 3)
    _check_int("lmax", lmax, 2)
    _sphere_checks(d, lmax)  # raises CertificateFailure on any violation
    return {1, 2}


def _verdict(rec: EigenvalueRecord, bc: BoundaryCondition,
             lam_11: float, lam_02: float) -> SharpnessVerdict:
    d, l, m = rec.d, rec.l, rec.m
    label = rec.label_first
    mu = nodal_count_disc(l, m, bc) if d == 2 else None

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
        certs = [Check("radial_ordering", lam_11, lam_02)]
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
            Check(f"reduced_binomial[l={l}]", 1, _binom(l + d - 3, d - 2)),
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
    bc = _coerce_bc(bc)
    _check_int("d", d, 2)
    _check_int("lmax", lmax, 1)
    _check_int("mmax", mmax, 1)
    zeros._check_pair(2 * lmax + d - 2, f"d={d} with lmax={lmax}")
    finder = partial(zeros.find_zero, ROOT_KIND[bc])
    z_top = finder(lmax, d, mmax)  # zeros increase in both l and m
    try:
        table = enumerate_spectrum(d, bc, z_top * z_top)
    except RangeError as exc:  # the window's top mode needs more degrees
        raise RangeError(
            f"d={d} with lmax={lmax} and mmax={mmax} needs the spectrum "
            f"below the ({lmax}, {mmax}) mode: {exc}"
        ) from None
    lam_11 = finder(1, d, 1) ** 2
    lam_02 = finder(0, d, 2) ** 2
    verdicts = [
        _verdict(table.record_for(l, m), bc, lam_11, lam_02)
        for l in range(0, lmax + 1)
        for m in range(1, mmax + 1)
    ]
    verdicts.sort(key=lambda v: v.record.label_first)
    return verdicts


def sharp_labels(verdicts: list[SharpnessVerdict]) -> set[int]:
    """Labels of the Sharp verdicts in a report."""
    return {v.record.label_first for v in verdicts
            if v.status is SharpnessStatus.SHARP}
