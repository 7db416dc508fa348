"""Tests for the Pleijel constant module: values, table, quotient curve,
monotonicity certificates, the Neumann-side bound, and serialization."""

from __future__ import annotations

import json
import math

import pytest

from ballspec import pleijel, zeros
from ballspec.errors import CertificateFailure, RangeError
from tests import _box, _counts, _frozen, _internals

# The 20 published 6-decimal table values for d = 2..21.
TABLE_6DEC = [
    "0.691660", "0.455945", "0.296901", "0.192940", "0.125581",
    "0.081982", "0.053704", "0.035306", "0.023291", "0.015417",
    "0.010236", "0.006817", "0.004553", "0.003048", "0.002046",
    "0.001376", "0.000928", "0.000627", "0.000424", "0.000288",
]

TWO_OVER_E = 2.0 / math.e


class TestGammaValues:
    def test_frozen_high_precision_values(self):
        # contract: relative error <= 1e-10; measured headroom is ~1e-14
        for d, text in _frozen.GAMMA_VALUES.items():
            want = float(text)
            got = pleijel.gamma(d)
            assert abs(got - want) / want <= 1e-10

    def test_table_values_at_six_decimals(self):
        for d, want in zip(range(2, 22), TABLE_6DEC):
            assert pleijel.six_decimals(pleijel.gamma(d)) == want

    def test_closed_form_anchor_d2(self):
        j01 = zeros.dirichlet_zero(0, 2, 1)
        want = 4.0 / j01**2
        assert abs(pleijel.gamma(2) - want) / want <= 1e-12

    def test_closed_form_anchor_d3(self):
        want = 9.0 / (2.0 * math.pi**2)
        assert abs(pleijel.gamma(3) - want) / want <= 1e-12

    def test_log_space_assembly_matches_direct_formula(self):
        # at d = 10 the direct 2^(d-2) d^2 Gamma(d/2)^2 / j^d ratio is still
        # far from overflow, so it cross-checks the log-space path
        j = zeros.dirichlet_zero(0, 10, 1)
        direct = 2.0**8 * 100.0 * math.gamma(5.0) ** 2 / j**10
        assert abs(pleijel.gamma(10) - direct) / direct <= 1e-13

    def test_gamma_strictly_decreasing_sample(self):
        values = [pleijel.gamma(d) for d in range(2, 41)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gamma_between_zero_and_one(self):
        for d in (2, 3, 7, 30, 120):
            assert 0.0 < pleijel.gamma(d) < 1.0

    def test_gamma_at_order_box_edge(self):
        # the census needs the first zero's census bound in the argument
        # box, so D_MAX (380) is the last supported dimension and the next
        # the first rejected one
        d_max = _box.EDGES["d_max"]
        assert pleijel.D_MAX == d_max
        assert 0.0 < pleijel.gamma(d_max) < pleijel.gamma(d_max - 1)
        with pytest.raises(RangeError):
            pleijel.gamma(d_max + 1)

    @pytest.mark.parametrize("bad", [1, 0, -3, True, 2.0, "4", None])
    def test_gamma_rejects_bad_dimension(self, bad):
        with pytest.raises(RangeError):
            pleijel.gamma(bad)

    # past the last d with a census bound in the argument box (380), the
    # census refuses the request's top first zero before any other zero is
    # refined, and the refusal starts with the request
    @pytest.mark.parametrize("name,args,prefix", [
        ("gamma", lambda d: (d + 1,), "gamma({top}): "),
        ("quotient_curve", lambda d: (2, d),
         "quotient gamma({top})/gamma({d}): "),
        ("monotonicity_certificate", lambda d: (d,),
         "certificate at d={d}: "),
    ], ids=["gamma", "quotient_curve", "certificate"])
    def test_refusal_past_the_argument_box_names_the_request(
            self, monkeypatch, name, args, prefix):
        d = _box.EDGES["d_max"]
        work = _counts.count(monkeypatch)
        with pytest.raises(RangeError) as exc:
            getattr(pleijel, name)(*args(d))
        want = prefix.format(top=d + 1, d=d)
        assert str(exc.value).startswith(want), exc.value
        assert work.cold_zeros == 0


class TestPleijelRow:
    def test_row_construction_roundtrip(self):
        lgv = math.log(0.25)
        row = pleijel.PleijelRow(5, 0.25, lgv, 0.9)
        assert (row.d, row.gamma, row.log_gamma_value, row.quotient_next) == (
            5, 0.25, lgv, 0.9,
        )

    def test_row_rejects_gamma_log_mismatch(self):
        with pytest.raises(CertificateFailure):
            pleijel.PleijelRow(5, 0.25, math.log(0.26), None)

    def test_row_rejects_gamma_at_least_one(self):
        with pytest.raises(CertificateFailure):
            pleijel.PleijelRow(5, 1.0, 0.0, None)

    def test_row_rejects_bad_quotient(self):
        with pytest.raises(CertificateFailure):
            pleijel.PleijelRow(5, 0.25, math.log(0.25), -0.5)
        with pytest.raises(CertificateFailure):
            pleijel.PleijelRow(5, 0.25, math.log(0.25), math.nan)

    def test_row_rejects_bad_dimension(self):
        with pytest.raises(RangeError):
            pleijel.PleijelRow(1, 0.25, math.log(0.25), None)


class TestGammaTable:
    def test_first_block(self):
        rows = pleijel.gamma_table(2, 6)
        assert [r.d for r in rows] == [2, 3, 4, 5, 6]
        assert [pleijel.six_decimals(r.gamma) for r in rows] == TABLE_6DEC[:5]

    def test_last_block(self):
        rows = pleijel.gamma_table(17, 21)
        assert [pleijel.six_decimals(r.gamma) for r in rows] == TABLE_6DEC[15:]

    def test_quotient_next_fill(self):
        rows = pleijel.gamma_table(2, 3)
        assert rows[0].quotient_next == pytest.approx(0.65920, abs=5e-6)
        expected = pleijel.gamma(3) / pleijel.gamma(2)
        assert rows[0].quotient_next == pytest.approx(expected, rel=1e-13)
        assert rows[1].quotient_next is None

    def test_single_dimension_table(self):
        rows = pleijel.gamma_table(7, 7)
        assert len(rows) == 1
        assert rows[0].quotient_next is None
        assert pleijel.six_decimals(rows[0].gamma) == "0.081982"

    def test_rows_satisfy_invariants_by_construction(self):
        for row in pleijel.gamma_table(2, 21):
            assert 0.0 < row.gamma < 1.0
            assert row.gamma == math.exp(row.log_gamma_value)

    @pytest.mark.parametrize("lo,hi", [(6, 2), (1, 5),
                                       (2, _box.EDGES["d_max"] + 1),
                                       (2, True)])
    def test_table_rejects_bad_range(self, lo, hi):
        with pytest.raises(RangeError):
            pleijel.gamma_table(lo, hi)


class TestQuotientCurve:
    def test_figure_regime(self):
        points = pleijel.quotient_curve(2, 94)
        assert [d for d, _ in points] == list(range(2, 95))
        values = dict(points)
        # every quotient is strictly below 1 (the strict decrease of gamma)
        assert all(q < 1.0 for q in values.values())
        # the curve dips to its minimum at d = 4, then climbs toward the
        # 2/e limit from below, staying inside (0.64, 2/e) throughout
        assert min(values.values()) == values[4]
        assert all(0.64 < q < TWO_OVER_E for q in values.values())
        qs = [q for _, q in points[2:]]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_endpoint_values(self):
        points = dict(pleijel.quotient_curve(2, 94))
        assert points[2] == pytest.approx(0.65920, abs=5e-6)
        assert 0.70 < points[94] < 0.80
        assert abs(points[94] - TWO_OVER_E) <= 0.05
        assert points[94] < TWO_OVER_E

    def test_limit_at_largest_computable_dimensions(self):
        # the ten largest d whose quotient the order box still reaches
        top = _box.EDGES["d_max"] - 1
        points = pleijel.quotient_curve(top - 9, top)
        assert len(points) == 10
        for _, q in points:
            assert abs(q - TWO_OVER_E) <= 0.05
            assert q < TWO_OVER_E

    def test_matches_gamma_ratio(self):
        for d, q in pleijel.quotient_curve(5, 8):
            assert q == pytest.approx(pleijel.gamma(d + 1) / pleijel.gamma(d), rel=1e-13)

    @pytest.mark.parametrize("lo,hi", [(1, 5), (10, 9),
                                       (2, _box.EDGES["d_max"])])
    def test_curve_rejects_bad_range(self, lo, hi):
        with pytest.raises(RangeError):
            pleijel.quotient_curve(lo, hi)

    def test_non_decreasing_gamma_is_reported(self, monkeypatch):
        _internals.replace(monkeypatch, "log_gamma_value", lambda d: -1.0)
        with pytest.raises(CertificateFailure):
            pleijel.quotient_curve(5, 6)


class TestCheck:
    def test_margin_and_dict(self):
        c = pleijel.Check("demo", 1.0, 1.5)
        assert c.margin == 0.5
        assert c.as_dict() == {
            "name": "demo", "lhs": 1.0, "rhs": 1.5, "margin": 0.5,
            "kind": "strict_less",
        }

    def test_strict_violation_raises_naming_check(self):
        with pytest.raises(CertificateFailure, match="demo"):
            pleijel.Check("demo", 2.0, 1.5)
        with pytest.raises(CertificateFailure):
            pleijel.Check("demo", 1.5, 1.5)

    def test_equal_kind(self):
        c = pleijel.Check("ident", 0.25, 0.25, "equal")
        assert c.margin == 0.0
        with pytest.raises(CertificateFailure):
            pleijel.Check("ident", 0.25, 0.2500001, "equal")

    def test_non_finite_rejected(self):
        with pytest.raises(CertificateFailure):
            pleijel.Check("demo", math.nan, 1.0)
        with pytest.raises(CertificateFailure):
            pleijel.Check("demo", 0.0, math.inf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError):
            pleijel.Check("demo", 0.0, 1.0, "at_most")

    def test_int_side_past_the_float_range_is_finite(self):
        # ints are exact: a side no float can hold still compares
        c = pleijel.Check("c", 1, 10**400)
        assert c.margin == 10**400 - 1
        with pytest.raises(CertificateFailure, match="failed"):
            pleijel.Check("c", 10**400, 1)
        with pytest.raises(CertificateFailure, match="non-finite"):
            pleijel.Check("c", 10**400, math.inf)

    @pytest.mark.parametrize("lhs,rhs,kind,text", [
        ((6, 4), (9, 12), "strict_less", "3/2 < 3/4"),
        ((-118, 128), (-59, 32), "equal", "-59/64 == -59/32"),
        ((20, 20), (0, 7), "strict_less", "1 < 0"),
    ])
    def test_exact_failure_prints_lowest_terms(self, lhs, rhs, kind, text):
        # the integer-pair sides print as their Fraction would
        with pytest.raises(CertificateFailure) as info:
            _internals.exact_check("demo", lhs, rhs, kind)
        assert str(info.value) == (
            f"pleijel monotonicity check 'demo' failed in exact arithmetic: "
            f"{text} does not hold")

    def test_exact_check_records_the_nearest_floats(self):
        # 1/3 and 2/3 are no floats: each side is n / d, rounded once
        c = _internals.exact_check("demo", (10**30, 3 * 10**30), (2, 3))
        assert (c.lhs, c.rhs) == (1 / 3, 2 / 3)


CORE_CHECKS = {
    "gamma_ratio_bound", "gamma_eq", "control", "asb",
    "exp_bound", "poly_bound", "final_lt_1",
}


class TestMonotonicityCertificate:
    @pytest.mark.parametrize("d", [4, 5, 10, 47, 94, 95, 96, 150, 200, 239])
    def test_chain_passes(self, d):
        cert = pleijel.monotonicity_certificate(d)
        assert cert.d == d
        names = set(cert.names())
        assert CORE_CHECKS <= names
        for check in cert.checks:
            if check.kind == "strict_less":
                assert check.margin > 0.0
            else:
                assert check.margin == 0.0

    def test_gamma_eq_example_d10(self):
        check = pleijel.monotonicity_certificate(10).check("gamma_eq")
        want = math.exp(2.0 * (math.lgamma(5.5) - math.lgamma(5.0)))
        assert check.lhs == pytest.approx(want, rel=1e-14)
        assert check.rhs == 81.0 / 16.0
        assert check.margin > 0.0

    def test_control_sides_match_zeros(self):
        d = 10
        check = pleijel.monotonicity_certificate(d).check("control")
        j_d = zeros.dirichlet_zero(0, d, 1)
        j_dp1 = zeros.dirichlet_zero(0, d + 1, 1)
        assert check.lhs == pytest.approx((j_d / j_dp1) ** 2, rel=1e-14)
        assert check.rhs == 1.0 - 3.0 / (2.0 * (d + 2.0))

    def test_final_check_is_the_computed_quotient(self):
        d = 12
        check = pleijel.monotonicity_certificate(d).check("final_lt_1")
        assert check.rhs == 1.0
        want = pleijel.gamma(13) / pleijel.gamma(12)
        assert check.lhs == pytest.approx(want, rel=1e-13)

    def test_poly_spot_only_at_d4(self):
        cert4 = pleijel.monotonicity_certificate(4)
        spot = cert4.check("poly_spot")
        assert spot.kind == "equal"
        assert spot.lhs == spot.rhs == -59.0 / 64.0  # exact dyadic value
        assert "poly_spot" not in pleijel.monotonicity_certificate(5).names()

    def test_final_bound_equality_only_at_d95(self):
        cert = pleijel.monotonicity_certificate(95)
        eq = cert.check("final_bound_equality")
        assert eq.kind == "equal"
        assert eq.lhs == 1.0 and eq.rhs == 1.0
        assert "ninetyfive_bound_lt_1" not in cert.names()

    def test_ninetyfive_bound_from_d96_on(self):
        cert = pleijel.monotonicity_certificate(96)
        check = cert.check("ninetyfive_bound_lt_1")
        assert check.rhs == 1.0
        # exact margin is 1/1920
        assert check.margin == pytest.approx(1.0 / 1920.0, rel=1e-12)
        assert "final_bound_equality" not in cert.names()
        assert "ninetyfive_bound_lt_1" not in pleijel.monotonicity_certificate(94).names()

    def test_e34_constant(self):
        check = pleijel.monotonicity_certificate(7).check("e34_lt_95")
        # 2/e^(3/4) = 0.94473310548202941428... (20-digit reference value)
        assert check.lhs == pytest.approx(0.9447331054820294, rel=1e-15)
        assert check.rhs == 0.95

    def test_jest_bounds_bracket_the_zero(self):
        # the bounds are the census's Watson and Chambers bounds, bit for
        # bit the expressions the chain wrote out before, at both ends of
        # the box and on both sides of the d = 95 switch
        for d in (4, 20, 95, 96, 239):
            cert = pleijel.monotonicity_certificate(d)
            j = zeros.dirichlet_zero(0, d + 1, 1)
            assert cert.check("jest_lower").rhs == j
            assert cert.check("jest_upper").lhs == j
            nu = 0.5 * (d - 1.0)
            assert cert.check("jest_lower").lhs == math.sqrt(nu * (nu + 2.0))
            assert cert.check("jest_upper").rhs == (
                math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0))

    def test_check_lookup_unknown_name(self):
        cert = pleijel.monotonicity_certificate(6)
        with pytest.raises(RangeError):
            cert.check("nonexistent")

    # D_MAX needs gamma(D_MAX + 1); D_MAX + 60 lies well past the box
    @pytest.mark.parametrize("bad", [3, 2, 0, -1, True, 4.0,
                                     _box.EDGES["d_max"],
                                     _box.EDGES["d_max"] + 60])
    def test_certificate_rejects_out_of_range(self, bad):
        with pytest.raises(RangeError):
            pleijel.monotonicity_certificate(bad)

    def test_certificate_requires_core_checks(self):
        good = pleijel.monotonicity_certificate(6)
        trimmed = tuple(c for c in good.checks if c.name != "control")
        with pytest.raises(RangeError):
            pleijel.MonotonicityCertificate(6, trimmed)

    def test_certificate_rejects_duplicate_names(self):
        good = pleijel.monotonicity_certificate(6)
        with pytest.raises(RangeError):
            pleijel.MonotonicityCertificate(6, good.checks + (good.checks[0],))

    def test_as_dict_shape(self):
        cert = pleijel.monotonicity_certificate(8)
        payload = cert.as_dict()
        assert payload["d"] == 8
        assert [c["name"] for c in payload["checks"]] == list(cert.names())
        first = payload["checks"][0]
        assert set(first) == {"name", "lhs", "rhs", "margin", "kind"}


class TestNeumannBound:
    @pytest.mark.parametrize(
        "d,want", [(3, "0.691660"), (4, "0.455945"), (10, "0.035306")]
    )
    def test_examples(self, d, want):
        assert pleijel.six_decimals(pleijel.neumann_pleijel_bound(d)) == want

    def test_equals_previous_dimension_gamma(self):
        for d in (3, 6, 15):
            assert pleijel.neumann_pleijel_bound(d) == pleijel.gamma(d - 1)

    @pytest.mark.parametrize("bad", [2, 1, 0, True, 3.0])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(RangeError):
            pleijel.neumann_pleijel_bound(bad)

    def test_monotonicity_assertion_guards_the_bound(self, monkeypatch):
        monkeypatch.setattr(pleijel, "gamma", lambda d: 0.5)
        with pytest.raises(CertificateFailure):
            pleijel.neumann_pleijel_bound(5)


class TestSerialization:
    def test_plot_json_payload(self):
        points = pleijel.quotient_curve(2, 10)
        payload = json.loads(pleijel.curve_to_plot_json(points))
        assert list(payload) == ["x", "y", "hline"]
        assert payload["x"] == list(range(2, 11))
        assert payload["y"] == [q for _, q in points]
        assert payload["hline"] == TWO_OVER_E

    def test_six_decimals_rounds_half_away_from_zero(self):
        # 13/128 is exactly 0.1015625 in binary: a true tie at 6 decimals
        assert pleijel.six_decimals(13.0 / 128.0) == "0.101563"
        assert pleijel.six_decimals(-13.0 / 128.0) == "-0.101563"
        # printf-style formatting would round the tie to even instead
        assert f"{13.0 / 128.0:.6f}" == "0.101562"

    def test_six_decimals_rejects_non_finite(self):
        with pytest.raises(RangeError):
            pleijel.six_decimals(math.nan)
