"""Tests for spectrum enumeration, multiplicities, labeling, and Weyl counts."""

from __future__ import annotations

import json
import math

import pytest

from ballspec import spectrum, zeros
from ballspec.errors import DegenerateOrdering, RangeError
from ballspec.spectrum import (
    BoundaryCondition,
    EigenvalueRecord,
    SpectrumTable,
    enumerate_spectrum,
    label_of,
    multiplicity,
    weyl_count,
)

from tests import _box, _frozen
from tests._internals import assert_nearest_float

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# multiplicity


class TestMultiplicity:
    @pytest.mark.parametrize(
        "l,d,want",
        [
            (0, 5, 1),
            (3, 3, 7),   # equals 2l+1 on the 2-sphere
            (2, 4, 9),   # C(5,3) - C(3,3)
            (0, 2, 1),
            (1, 2, 2),
            (7, 2, 2),   # every positive degree on the circle doubles
            (1, 3, 3),
        ],
    )
    def test_examples(self, l, d, want):
        got = multiplicity(l, d)
        assert got == want and isinstance(got, int)

    def test_telescoping_sum(self):
        # partial sums collapse to two binomials (exact integers)
        for d in range(2, 9):
            for L in range(0, 31):
                total = sum(multiplicity(l, d) for l in range(L + 1))
                want = math.comb(L + d - 1, d - 1) + math.comb(L + d - 2, d - 1)
                assert total == want, (d, L)

    def test_rejects_bad_args(self):
        with pytest.raises(RangeError):
            multiplicity(-1, 3)
        with pytest.raises(RangeError):
            multiplicity(0, 1)


# ---------------------------------------------------------------------------
# record invariants


class TestEigenvalueRecord:
    def _good(self, **overrides):
        kw = dict(d=2, bc=D, l=1, m=1, zero=3.831705970207512,
                  lam=3.831705970207512 ** 2, multiplicity=2,
                  label_first=2, label_last=3)
        kw.update(overrides)
        return EigenvalueRecord(**kw)

    def test_valid_record_constructs(self):
        rec = self._good()
        assert rec.lam == rec.zero * rec.zero

    def test_lambda_must_be_square_of_zero(self):
        with pytest.raises(RangeError):
            self._good(lam=14.682)

    def test_multiplicity_must_match_formula(self):
        with pytest.raises(RangeError):
            self._good(multiplicity=3, label_last=4)

    def test_labels_must_tile_block(self):
        with pytest.raises(RangeError):
            self._good(label_last=5)

    def test_serialized_field_order(self):
        rec = self._good()
        assert list(rec.as_dict()) == [
            "d", "bc", "l", "m", "zero", "lambda", "multiplicity",
            "label_first", "label_last",
        ]
        assert rec.as_dict()["bc"] == "Dirichlet"


# ---------------------------------------------------------------------------
# enumeration examples


class TestEnumerationExamples:
    def test_disc_neumann_low_spectrum_ordering(self):
        table = enumerate_spectrum(2, N, 18.0)
        got = [(r.l, r.m, r.label_first, r.label_last) for r in table.records]
        assert got == [
            (0, 1, 1, 1),
            (1, 1, 2, 3),
            (2, 1, 4, 5),
            (0, 2, 6, 6),
            (3, 1, 7, 8),
        ]
        want_zeros = [
            0.0,
            float(_frozen.BESSEL_DERIV_ZEROS[(2, 1)]),
            float(_frozen.BESSEL_DERIV_ZEROS[(4, 1)]),
            float(_frozen.BESSEL_ZEROS[(2, 1)]),
            float(_frozen.BESSEL_DERIV_ZEROS[(6, 1)]),
        ]
        for rec, want in zip(table.records, want_zeros):
            if want == 0.0:
                assert rec.zero == 0.0
            else:
                assert rel_err(rec.zero, want) <= 1e-11

    def test_disc_neumann_ninth_label(self):
        # the next eigenvalue after the list above enters at larger cutoffs
        table = enumerate_spectrum(2, N, 30.0)
        rec = table.record_for(4, 1)
        assert rec.label_first == 9
        assert rel_err(rec.zero, float(_frozen.BESSEL_DERIV_ZEROS[(8, 1)])) <= 1e-11

    def test_ball_dirichlet_low_spectrum(self):
        table = enumerate_spectrum(3, D, 40.0)
        first, second = table.records[0], table.records[1]
        assert (first.l, first.m, first.multiplicity) == (0, 1, 1)
        assert rel_err(first.lam, math.pi ** 2) <= 1e-12
        assert (second.l, second.m) == (1, 1)
        assert rel_err(second.zero, 4.493409457909064) <= 1e-12
        assert second.multiplicity == 3
        assert (second.label_first, second.label_last) == (2, 4)

    def test_disc_dirichlet_tiny_cutoff(self):
        table = enumerate_spectrum(2, D, 6.0)
        assert len(table.records) == 1
        rec = table.records[0]
        assert (rec.l, rec.m, rec.multiplicity) == (0, 1, 1)
        assert rel_err(rec.lam, 5.783185962946785) <= 1e-12

    def test_neumann_table_starts_at_zero_mode(self):
        for d in (2, 3, 4, 5, 6):
            table = enumerate_spectrum(d, N, 1.0)
            first = table.records[0]
            assert (first.l, first.m, first.zero, first.lam) == (0, 1, 0.0, 0.0)
            assert first.multiplicity == 1 and first.label_first == 1

    def test_cutoff_is_inclusive(self):
        lam = zeros.dirichlet_zero(0, 2, 1) ** 2
        table = enumerate_spectrum(2, D, lam)
        assert len(table.records) == 1

    def test_empty_table_below_first_eigenvalue(self):
        table = enumerate_spectrum(2, D, 1.0)
        assert table.records == () and table.n_labels == 0


# ---------------------------------------------------------------------------
# ordering and labeling invariants


def _assert_labels_tile(table: SpectrumTable) -> None:
    covered = []
    for rec in table.records:
        covered.extend(range(rec.label_first, rec.label_last + 1))
    assert covered == list(range(1, table.n_labels + 1))


class TestTableInvariants:
    @pytest.mark.parametrize(
        "d,bc,lam_max",
        [(2, D, 300.0), (2, N, 300.0), (3, D, 150.0), (4, N, 100.0)],
    )
    def test_labels_tile_and_lambdas_increase(self, d, bc, lam_max):
        table = enumerate_spectrum(d, bc, lam_max)
        assert len(table.records) > 3
        _assert_labels_tile(table)
        lams = [r.lam for r in table.records]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        for rec in table.records:
            assert rec.lam <= lam_max + spectrum.CUTOFF_SLACK
            assert rec.multiplicity == multiplicity(rec.l, d)

    def test_radial_modes_of_ball_are_pi_multiples(self):
        for m in range(1, 11):
            assert rel_err(zeros.dirichlet_zero(0, 3, m), m * math.pi) <= 1e-12

    def test_first_degree_one_mode_below_second_radial_dirichlet(self):
        for d in range(3, 21):
            assert zeros.dirichlet_zero(1, d, 1) < zeros.dirichlet_zero(0, d, 2)

    def test_first_degree_one_mode_below_second_radial_neumann(self):
        for d in range(2, 21):
            assert zeros.neumann_zero(1, d, 1) < zeros.neumann_zero(0, d, 2)

    @staticmethod
    def _two_degrees(monkeypatch, z0: float, z1: float) -> None:
        """Degrees 0 and 1 with one synthetic first zero each, and none
        past them."""
        synthetic = {0: [z0], 1: [z1]}
        monkeypatch.setattr(zeros, "radial_zeros",
                            lambda bc, l, d, x_max: synthetic.get(l, []))

    def test_tied_zeros_raise_naming_both_modes(self, monkeypatch):
        self._two_degrees(monkeypatch, 3.0, 3.0)
        with pytest.raises(DegenerateOrdering) as info:
            enumerate_spectrum(2, D, 100.0)
        assert str(info.value) == (
            "modes (l=0, m=1) and (l=1, m=1) share the eigenvalue float "
            "lambda=9.0 (zeros 3.0 and 3.0), so their order is not certified")

    @pytest.mark.parametrize("z1", [3.0 + 1e-13, math.nextafter(3.0, 4.0)])
    def test_close_zeros_are_ordered_by_the_zero(self, monkeypatch, z1):
        # certified nearest floats that differ order their zeros, however
        # close: 1e-13 (about 225 ulps) or one ulp apart
        for d in (2, 5):
            for l_low, l_high in ((0, 1), (1, 0)):
                zs = {l_low: 3.0, l_high: z1}
                self._two_degrees(monkeypatch, zs[0], zs[1])
                first, second = enumerate_spectrum(d, D, 100.0).records
                assert (first.l, first.zero, second.l, second.zero) == (
                    l_low, 3.0, l_high, z1)
                assert first.lam < second.lam
                assert first.label_first == 1
                assert second.label_first == 1 + multiplicity(l_low, d)


class TestDegreeLoop:
    @pytest.mark.parametrize("d", [2, 3, 30, 100, 238])
    def test_first_zeros_increase_in_the_degree(self, d):
        # min-max on the radial quotient, whose potential l(l+d-2)/r^2 grows
        # with l: each degree's first zero lies strictly past the one
        # before (Neumann's past its l = 0 ground state, 0.0), and so does
        # its certified float, at every degree of the box whose first zero
        # provably lies in it; the degree loop's stop rests on this
        degrees = (0, *_box.neumann_degrees(d))  # orders in _box.j_orders
        dirichlet = [zeros.dirichlet_zero(l, d, 1) for l in degrees]
        neumann = [zeros.neumann_zero(l, d, 1) for l in degrees]
        for first in (dirichlet, neumann):
            assert all(a < b for a, b in zip(first, first[1:])), d

    @pytest.mark.parametrize("d,bc,lam_max,empty", [
        (2, D, 1.0, 0),  # below j_{0,1}: no zero at all
        (2, N, 1.0, 1),  # the ground state alone
        # j'_{10,1} = 11.706 lies past the cutoff radius 11.40, though the
        # Sturm bounds of l = 10 and 11 do not
        (2, N, 130.0, 10),
        (3, D, 150.0, 8),
        (30, N, 40.0, 2),
    ])
    def test_loop_ends_at_its_first_empty_degree(self, monkeypatch, d, bc,
                                                 lam_max, empty):
        # radial_zeros is called once a degree, l = 0, 1, ..., and for no
        # degree past the first one with no zero inside the cutoff
        calls = []
        real = zeros.radial_zeros

        def spied(bc, l, d, x_max):
            found = real(bc, l, d, x_max)
            calls.append((l, found))
            return found

        monkeypatch.setattr(zeros, "radial_zeros", spied)
        table = enumerate_spectrum(d, bc, lam_max)
        assert [l for l, _ in calls] == list(range(empty + 1))
        assert all(found for _, found in calls[:-1]) and calls[-1][1] == []
        assert {rec.l for rec in table.records} == set(range(empty))


# ---------------------------------------------------------------------------
# label_of


class TestLabelOf:
    @pytest.mark.parametrize(
        "d,bc,l,m,want",
        [
            (2, N, 0, 1, 1),
            (2, N, 1, 1, 2),
            (2, N, 2, 1, 4),
            (2, N, 0, 2, 6),
            (2, N, 3, 1, 7),
            (2, N, 4, 1, 9),
            (3, D, 0, 1, 1),
            (3, D, 1, 1, 2),
        ],
    )
    def test_examples(self, d, bc, l, m, want):
        assert label_of(d, bc, l, m) == want

    def test_accepts_string_bc(self):
        assert label_of(2, "neumann", 2, 1) == 4
        assert label_of(3, "Dirichlet", 0, 1) == 1

    def test_matches_enumeration(self):
        table = enumerate_spectrum(3, N, 60.0)
        for rec in table.records:
            assert label_of(3, N, rec.l, rec.m) == rec.label_first

    def test_rejects_bad_args(self):
        with pytest.raises(RangeError):
            label_of(2, "robin", 0, 1)
        with pytest.raises(RangeError):
            label_of(2, N, 0, 0)


# ---------------------------------------------------------------------------
# Weyl counting


class TestWeyl:
    def test_closed_forms(self):
        assert weyl_count(2, 0.0) == 0.0
        assert rel_err(weyl_count(2, 100.0), 25.0) <= 1e-14
        want3 = (4.0 * math.pi / 3.0) ** 2 / (2.0 * math.pi) ** 3 * 1000.0
        assert rel_err(weyl_count(3, 100.0), want3) <= 1e-14

    def test_rejects_negative(self):
        with pytest.raises(RangeError):
            weyl_count(2, -1.0)

    def test_high_dimension_underflows_to_zero(self):
        assert weyl_count(400, 1.0) == 0.0
        assert weyl_count(10**400, 1.0) == 0.0  # d/2 is past the float range

    def test_overflow_names_d_and_lambda(self):
        with pytest.raises(RangeError, match=r"d=10, lambda=1e\+300"):
            weyl_count(10, 1e300)

    @pytest.mark.parametrize(
        "d,lam_max", [(2, 2000.0), (3, 900.0)]
    )
    def test_enumeration_tracks_weyl_law(self, d, lam_max):
        lead = weyl_count(d, lam_max)
        for bc in (D, N):
            n = enumerate_spectrum(d, bc, lam_max).n_labels
            assert abs(n / lead - 1.0) <= 0.15, (d, bc, n, lead)


# ---------------------------------------------------------------------------
# serialization and determinism


class TestSerialization:
    def test_json_field_order_and_roundtrip(self):
        table = enumerate_spectrum(2, D, 40.0)
        text = table.to_json()
        pairs = json.loads(text, object_pairs_hook=list)
        top_keys = [k for k, _ in pairs]
        assert top_keys == ["d", "bc", "lambda_max", "records"]
        records = dict(pairs)["records"]
        assert [k for k, _ in records[0]] == [
            "d", "bc", "l", "m", "zero", "lambda", "multiplicity",
            "label_first", "label_last",
        ]
        parsed = json.loads(text)
        assert parsed["records"][0]["lambda"] == table.records[0].lam

    def test_csv_header_and_rows(self):
        table = enumerate_spectrum(2, D, 40.0)
        lines = table.to_csv().splitlines()
        assert lines[0] == ("d,bc,l,m,zero,lambda,multiplicity,"
                            "label_first,label_last")
        assert len(lines) == 1 + len(table.records)
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "Dirichlet"
        assert float(first[5]) == table.records[0].lam


# ---------------------------------------------------------------------------
# argument validation


class TestEnumerationValidation:
    def test_lambda_max_range(self):
        with pytest.raises(RangeError):
            enumerate_spectrum(2, D, -1.0)
        with pytest.raises(RangeError):
            enumerate_spectrum(2, D, 40001.0)
        with pytest.raises(RangeError):
            enumerate_spectrum(2, D, float("nan"))

    def test_bad_bc_rejected(self):
        with pytest.raises(RangeError):
            enumerate_spectrum(2, "periodic", 10.0)

    def test_bad_d_rejected(self):
        with pytest.raises(RangeError):
            enumerate_spectrum(1, D, 10.0)

    @pytest.mark.parametrize("d,inside,limit", [
        (d, int(spectrum.LAMBDA_MAX), None) for d in (2, 3)])
    def test_neumann_limit_by_integer_bisection(self, d, inside, limit):
        # bisection on the integer cutoff between 0 and past LAMBDA_MAX
        # finds the largest lambda_max that enumerates and the first one
        # refused: no Neumann cutoff inside the box is refused, so the
        # limit is the first past LAMBDA_MAX
        def enumerates(lam):
            try:
                enumerate_spectrum(d, N, lam)
            except RangeError:
                return False
            return True

        lo, hi = 0, int(spectrum.LAMBDA_MAX) + 1
        assert enumerates(lo) and not enumerates(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if enumerates(mid) else (lo, mid)
        assert (lo, hi) == (inside, limit or int(spectrum.LAMBDA_MAX) + 1)

    @pytest.mark.parametrize("d", [2, 3, 30, 100, 267, 300, 480, 481, 1000,
                                   10000, 40000])
    def test_neumann_enumerates_up_to_lambda_max(self, d):
        # no Neumann cutoff is refused, in any d: at LAMBDA_MAX a spectrum
        # holds the degrees whose first zero lies in the box, at any order,
        # up to the last d whose degree 1 has one; past it the ground state
        # alone (d = 40,000, where beta_{1,1} = 200.0025). The zeros of the
        # top degree, and each zero of an order whose whole box lies below
        # the turning point, 2 X_MAX <= twice_nu, read from the ascending
        # series alone, are the floats nearest the oracle's
        table = enumerate_spectrum(d, N, spectrum.LAMBDA_MAX)
        if d > _box.EDGES["last_d_of_degree_one"]:
            assert [(r.l, r.m, r.zero) for r in table.records] == [
                (0, 1, 0.0)]
            return
        top = max(rec.l for rec in table.records)
        checked = 0
        for rec in table.records:
            twice_nu = 2 * rec.l + d - 2
            if rec.l and (rec.l == top or 2 * _box.X_MAX <= twice_nu):
                assert_nearest_float(rec.l, twice_nu, rec.zero)
                checked += 1
        assert top >= 1 and checked >= 1

    @pytest.mark.parametrize("d", [2, 3, 300, _box.EDGES["d_max"],
                                   _box.EDGES["d_max"] + 1],
                             ids=["even", "odd", "d300", "d_max",
                                  "past_d_max"])
    def test_dirichlet_enumerates_up_to_lambda_max(self, d):
        # no Dirichlet cutoff is refused, in any d: Qu and Wong's census
        # bound lies past X_MAX from twice_nu = 379 on, so no census runs
        # there. At LAMBDA_MAX the zeros of the top two degrees are the
        # floats nearest the oracle's; past d_max, where j_{d/2-1,1} lies
        # past X_MAX, a spectrum is the empty table
        table = enumerate_spectrum(d, D, spectrum.LAMBDA_MAX)
        if d > _box.EDGES["d_max"]:
            assert table.records == ()
            return
        top = max(rec.l for rec in table.records)
        tops = [rec for rec in table.records if rec.l >= top - 1]
        assert tops
        for rec in tops:
            assert_nearest_float(0, 2 * rec.l + d - 2, rec.zero)

    def test_record_for_missing_mode(self):
        table = enumerate_spectrum(2, D, 40.0)
        with pytest.raises(RangeError):
            table.record_for(9, 9)
