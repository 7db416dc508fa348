"""Tests for nodal counts, sphere labeling, and the sharpness pipeline."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import ndimage

from ballspec import zeros
from ballspec.bessel import Order, eval_J
from ballspec.courant import (
    SharpnessStatus,
    SharpnessVerdict,
    SphereLabeling,
    courant_sharp_ball,
    nodal_count_disc,
    sharp_labels,
    sphere_courant_sharp,
    sphere_labeling,
)
from ballspec.errors import CertificateFailure, RangeError
from ballspec.pleijel import Check
from ballspec.spectrum import BoundaryCondition, enumerate_spectrum, multiplicity
from tests import _internals

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


# ---------------------------------------------------------------------------
# independent nodal-count oracle: connected components of the sign pattern
# on a polar grid (4-connectivity in index space, periodic in the angle)


def _component_count(mask: np.ndarray) -> int:
    labels, n = ndimage.label(mask)
    if n == 0:
        return 0
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(labels[:, 0], labels[:, -1]):  # angular wraparound
        if a > 0 and b > 0:
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in range(1, n + 1)})


def grid_nodal_count(l: int, m: int, bc, n_grid: int = 2048) -> int:
    """Count sign-pattern components of the (l, m) disc eigenfunction."""
    z = (zeros.dirichlet_zero(l, 2, m) if bc is D
         else zeros.neumann_zero(l, 2, m))
    r = (np.arange(n_grid) + 0.5) / n_grid  # cell centers, no r=0 or r=1
    if z == 0.0:
        radial = np.ones(n_grid)
    else:
        order = Order.from_l_d(l, 2)
        radial = np.array([eval_J(order, float(z * ri)).value for ri in r])
    theta = (np.arange(n_grid) + 0.5) * (2.0 * math.pi / n_grid)
    u = radial[:, None] * np.cos(l * theta)[None, :]
    return _component_count(u > 0.0) + _component_count(u < 0.0)


# ---------------------------------------------------------------------------
# nodal_count_disc


class TestNodalCountDisc:
    @pytest.mark.parametrize(
        "l,m,bc,want",
        [
            (0, 1, N, 1),
            (3, 1, N, 6),
            (2, 3, D, 12),
            (0, 2, N, 2),
            (1, 2, D, 4),
            (0, 5, D, 5),
            (4, 2, N, 16),
        ],
    )
    def test_product_formula(self, l, m, bc, want):
        assert nodal_count_disc(l, m, bc) == want

    @pytest.mark.parametrize(
        "l,m,bc",
        [(0, 1, N), (0, 2, N), (3, 1, N), (2, 3, D), (1, 2, D)],
    )
    def test_formula_matches_grid_components(self, l, m, bc):
        want = nodal_count_disc(l, m, bc)
        assert grid_nodal_count(l, m, bc) == want

    def test_rejects_bad_args(self):
        with pytest.raises(RangeError):
            nodal_count_disc(-1, 1, D)
        with pytest.raises(RangeError):
            nodal_count_disc(0, 0, D)
        with pytest.raises(RangeError):
            nodal_count_disc(0, 1, "robin")


# ---------------------------------------------------------------------------
# sphere labeling


class TestSphereLabeling:
    @pytest.mark.parametrize(
        "l,d,min_label,sym",
        [
            (2, 3, 5, 4),
            (1, 4, 2, 2),
            (2, 4, 6, 4),
            (0, 3, 1, 2),
        ],
    )
    def test_examples(self, l, d, min_label, sym):
        lab = sphere_labeling(l, d)
        assert (lab.min_label, lab.symmetry_bound) == (min_label, sym)

    def test_min_label_counts_lower_degrees(self):
        # label = 1 + total multiplicity of all smaller sphere eigenvalues
        for d in range(3, 7):
            for l in range(0, 21):
                lab = sphere_labeling(l, d)
                want = 1 + sum(multiplicity(k, d) for k in range(l))
                assert lab.min_label == want, (l, d)

    def test_min_label_matches_direct_sort(self):
        for d in range(3, 7):
            eigs = sorted(
                (k * (k + d - 2), multiplicity(k, d)) for k in range(25)
            )
            position = 1
            first_label = {}
            for eig, mult in eigs:
                first_label[eig] = position
                position += mult
            for l in range(0, 21):
                assert (sphere_labeling(l, d).min_label
                        == first_label[l * (l + d - 2)]), (l, d)

    def test_constructor_validates(self):
        SphereLabeling(l=2, d=3, min_label=5, symmetry_bound=4)
        with pytest.raises(RangeError):
            SphereLabeling(l=2, d=3, min_label=6, symmetry_bound=4)
        with pytest.raises(RangeError):
            SphereLabeling(l=2, d=3, min_label=5, symmetry_bound=6)
        with pytest.raises(RangeError):
            sphere_labeling(2, 2)


# ---------------------------------------------------------------------------
# certificates


class TestCertificate:
    def test_strictness_enforced(self):
        cert = Check("demo", 1.0, 2.0)
        assert cert.margin == 1.0 and cert.kind == "strict_less"
        with pytest.raises(CertificateFailure, match="demo"):
            Check("demo", 2.0, 2.0)
        with pytest.raises(CertificateFailure, match="demo"):
            Check("demo", 3.0, 2.0)
        with pytest.raises(CertificateFailure, match="demo"):
            Check("demo", float("nan"), 2.0)

    def test_as_dict_fields(self):
        # verdict JSON keeps only name, lhs and rhs of each check
        rec = enumerate_spectrum(2, N, 18.0).record_for(0, 2)
        verdict = SharpnessVerdict(rec, SharpnessStatus.EXCLUDED_RADIAL_ORDERING,
                                   2, (Check("demo", 1, 3),))
        assert verdict.as_dict()["certificate"] == [
            {"name": "demo", "lhs": 1, "rhs": 3}]


class TestSphereCourantSharp:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_always_first_two(self, d):
        assert sphere_courant_sharp(d) == {1, 2}

    def test_check_values(self):
        # the strict certificate 1 < C(l+d-3, d-2) of each degree l >= 2
        assert _internals.reduced_binomial(2, 3).rhs == 2  # C(2,1) at d=3
        assert _internals.reduced_binomial(2, 4).rhs == 3  # C(3,2) at d=4
        for l in range(2, 51):
            cert = _internals.reduced_binomial(l, 3)
            assert cert.name == f"reduced_binomial[l={l}]"
            assert cert.lhs == 1 and cert.margin >= 1

    def test_binomials_past_the_float_range(self):
        # at d = 500 the excluding binomials of high degree exceed any float
        assert _internals.reduced_binomial(600, 500).rhs > 10**308
        assert sphere_courant_sharp(500, 600) == {1, 2}

    def test_degree_two_decides_every_degree(self):
        # by Pascal's rule min_label - symmetry_bound = C(l+d-3, d-2) - 1,
        # which increases in l: the certificates at l = 2 exclude every
        # degree, so sphere_courant_sharp checks only those
        for d in range(3, 61):
            gap = [sphere_labeling(l, d).min_label
                   - sphere_labeling(l, d).symmetry_bound
                   for l in range(2, 201)]
            assert gap == [_internals.reduced_binomial(l, d).rhs - 1
                           for l in range(2, 201)], d
            assert all(a < b for a, b in zip(gap, gap[1:])), d
            assert gap[0] == d - 2 > 0

    def test_cost_is_independent_of_lmax(self):
        start = time.perf_counter()
        assert sphere_courant_sharp(3, 10**5000) == {1, 2}
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(RangeError):
            sphere_courant_sharp(2)
        with pytest.raises(RangeError):
            sphere_courant_sharp(3, lmax=1)


# ---------------------------------------------------------------------------
# verdict object invariants


class TestSharpnessVerdict:
    def _record(self):
        table = enumerate_spectrum(2, N, 18.0)
        return table.record_for(1, 1)  # labels 2..3

    def test_sharp_requires_matching_count(self):
        rec = self._record()
        SharpnessVerdict(rec, SharpnessStatus.SHARP, 2, ())
        with pytest.raises(CertificateFailure):
            SharpnessVerdict(rec, SharpnessStatus.SHARP, 3, ())

    def test_sharp_carries_no_inequalities(self):
        rec = self._record()
        with pytest.raises(CertificateFailure):
            SharpnessVerdict(rec, SharpnessStatus.SHARP, 2,
                             (Check("demo", 1.0, 2.0),))


# ---------------------------------------------------------------------------
# the decision pipeline


class TestCourantSharpBall:
    def test_disc_neumann_matches_published_list(self):
        verdicts = courant_sharp_ball(2, N, 8, 4)
        assert sharp_labels(verdicts) == {1, 2, 4}
        by_label = {v.record.label_first: v for v in verdicts}
        lam6 = by_label[6]
        assert lam6.status is SharpnessStatus.EXCLUDED_RADIAL_ORDERING
        assert lam6.mu == 2
        names = [c.name for c in lam6.certificate]
        assert names == ["radial_ordering", "count_vs_label"]
        assert lam6.certificate[1].lhs == 2 and lam6.certificate[1].rhs == 6
        lam7 = by_label[7]
        assert lam7.status is SharpnessStatus.EXCLUDED_DIRECT_COUNT
        assert lam7.mu == 6
        assert lam7.certificate[0].lhs == 6 and lam7.certificate[0].rhs == 7

    def test_disc_dirichlet_matches_published_list(self):
        verdicts = courant_sharp_ball(2, D, 8, 4)
        assert sharp_labels(verdicts) == {1, 2, 4}

    def test_ball_dirichlet_certificates(self):
        verdicts = courant_sharp_ball(3, D, 6, 4)
        assert sharp_labels(verdicts) == {1, 2}
        rad = next(v for v in verdicts
                   if v.status is SharpnessStatus.EXCLUDED_RADIAL_ORDERING)
        cert = rad.certificate[0]
        assert cert.name == "radial_ordering"
        assert abs(cert.lhs - 4.493409457909064 ** 2) <= 1e-10
        assert abs(cert.rhs - (2.0 * math.pi) ** 2) <= 1e-10
        sphere = [v for v in verdicts
                  if v.status is SharpnessStatus.EXCLUDED_SPHERE_LABEL]
        assert {v.record.l for v in sphere} == {2, 3, 4, 5, 6}
        for v in sphere:
            assert v.mu is None
            assert [c.name for c in v.certificate] == [
                f"reduced_binomial[l={v.record.l}]",
                f"symmetry_vs_label[l={v.record.l}]",
            ]

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("bc", [D, N])
    def test_higher_dimensions_sharp_set(self, d, bc):
        verdicts = courant_sharp_ball(d, bc, 6, 4)
        assert sharp_labels(verdicts) == {1, 2}
        for v in verdicts:
            for cert in v.certificate:
                assert cert.margin > 0.0

    def test_grid_coverage_and_ordering(self):
        verdicts = courant_sharp_ball(3, N, 5, 3)
        assert len(verdicts) == 6 * 3
        labels = [v.record.label_first for v in verdicts]
        assert labels == sorted(labels)
        assert {(v.record.l, v.record.m) for v in verdicts} == {
            (l, m) for l in range(6) for m in range(1, 4)
        }

    def test_twist_rule_scope(self):
        # the no-numerics exclusion only ever covers l >= 1 with m >= 2
        for d, bc in [(2, N), (2, D), (3, D), (4, N)]:
            for v in courant_sharp_ball(d, bc, 6, 4):
                if v.status is SharpnessStatus.EXCLUDED_TWIST:
                    assert v.record.l >= 1 and v.record.m >= 2
                    assert v.certificate == ()

    # the Dirichlet windows (d, lmax), mmax = 1, whose top order was the
    # last of a census capped at order 240; the top degree of lmax = 2 takes
    # labels from d + 2 on
    @pytest.mark.parametrize("d,lmax,want", [
        (d, lmax, [(0, 1, "Sharp", 1), (1, 1, "Sharp", 2)]
         + [(2, 1, "ExcludedSphereLabel", d + 2)] * (lmax == 2))
        for d, lmax in [(238, 1), (236, 2)]])
    def test_dirichlet_window_on_the_order_cap_edge(self, d, lmax, want):
        # with mmax = 2 the top zero (j_{119,2} at d = 238) lies past the
        # census bound of the first degree out of that cap (Qu and Wong's
        # 129.15338 on j_{120,1}), which refused the spectrum below it; the
        # uncapped census serves it, and the sharp set is {1, 2}
        verdicts = courant_sharp_ball(d, D, lmax, 1)
        assert [(v.record.l, v.record.m, v.status.value, v.record.label_first)
                for v in verdicts] == want
        assert sharp_labels(courant_sharp_ball(d, D, lmax, 2)) == {1, 2}

    def test_neumann_window_past_the_order_cap(self):
        # the spectrum below the window's top mode (1, 7) at d = 300 reaches
        # Neumann degrees whose order lies past the order cap (l = 91 on,
        # 2l + d - 2 >= 480), which a capped census refused; the census has
        # no cap, so the window is served, and the sharp set is {1, 2}
        verdicts = courant_sharp_ball(300, N, 1, 7)
        assert len(verdicts) == 2 * 7
        assert sharp_labels(verdicts) == {1, 2}

    def test_dirichlet_window_past_the_order_cap_edge(self):
        # (230, 2, 4): its top zero lies past that bound too
        d, lmax, mmax = 230, 2, 4
        verdicts = courant_sharp_ball(d, D, lmax, mmax)
        assert len(verdicts) == (lmax + 1) * mmax
        assert sharp_labels(verdicts) == {1, 2}

    def test_rejects_bad_args(self):
        with pytest.raises(RangeError):
            courant_sharp_ball(1, D)
        with pytest.raises(RangeError):
            courant_sharp_ball(2, "robin")
        with pytest.raises(RangeError):
            courant_sharp_ball(2, D, lmax=0)
        with pytest.raises(RangeError):
            courant_sharp_ball(2, D, mmax=0)


# ---------------------------------------------------------------------------
# global consistency with Courant's bound


class TestCourantBound:
    @pytest.mark.parametrize("bc", [D, N])
    def test_count_never_exceeds_label(self, bc):
        table = enumerate_spectrum(2, bc, 2000.0)
        assert len(table.records) > 100
        for rec in table.records:
            assert nodal_count_disc(rec.l, rec.m, bc) <= rec.label_first

    @pytest.mark.parametrize("bc", [D, N])
    def test_exactly_three_sharp_below_2000(self, bc):
        table = enumerate_spectrum(2, bc, 2000.0)
        sharp = [rec.label_first for rec in table.records
                 if nodal_count_disc(rec.l, rec.m, bc) == rec.label_first]
        assert sharp == [1, 2, 4]


# ---------------------------------------------------------------------------
# serialization


class TestVerdictJson:
    def test_report_shape(self):
        verdicts = courant_sharp_ball(3, D, 3, 2)
        report = [v.as_dict() for v in verdicts]
        assert list(report[0]) == [
            "l", "m", "bc", "status", "label_first", "mu", "certificate",
        ]
        assert any(entry["mu"] is None for entry in report)
        for entry in report:
            for cert in entry["certificate"]:
                assert list(cert) == ["name", "lhs", "rhs"]
                assert cert["lhs"] < cert["rhs"]
