"""Unit checks for the verification engine itself: grids, records, ordering."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from plint import evaluators as ev
from plint import exact
from plint import verification as vf
from plint.errors import ParameterError

SCHEMA = {"spec", "symbolic", "value", "oracle", "rel_err", "pass"}


class TestGrids:
    def test_full_oracle_grid_size(self):
        assert len(vf.build_cases("oracle", "full")) == 831

    def test_small_grid_is_a_strict_trim(self):
        small = len(vf.build_cases("oracle", "small"))
        assert 0 < small < 831

    def test_all_concatenates_every_suite(self):
        total = sum(len(vf.build_cases(s, "small")) for s in vf.SUITES[:-1])
        assert len(vf.build_cases("all", "small")) == total

    def test_identities_grid_matches_advertised_count(self):
        assert len(vf.build_cases("identities", "full")) == 42

    def test_divergent_corner_is_excluded(self):
        cases = vf.build_cases("oracle", "full")
        assert ("oracle", "J1", (0, 0), Fraction(1)) not in cases
        assert ("oracle", "J1", (0, 0), Fraction(1, 2)) in cases

    def test_unknown_names_rejected(self):
        with pytest.raises(ParameterError):
            vf.build_cases("everything")
        with pytest.raises(ParameterError):
            vf.build_cases("oracle", grid="medium")


class TestRecords:
    def test_oracle_record_shape(self):
        record = vf.run_case(("oracle", "A", (2, 1), Fraction(1)))
        assert set(record) == SCHEMA
        assert record["spec"] == {"family": "A", "params": [2, 1], "x": "1"}
        assert record["symbolic"] == "2*z3"
        assert record["value"] == "2.4041138063"
        assert record["pass"] is True

    def test_interior_point_renders_as_decimal(self):
        record = vf.run_case(("oracle", "L", (1, 1), Fraction(1, 4)))
        assert record["spec"]["x"] == "0.25"
        assert record["pass"] is True

    def test_exact_agreement_reports_zero_error(self):
        record = vf.run_case(("identities", "SquaredHarmonic", (3,), Fraction(1)))
        assert record["rel_err"] == "0"
        assert record["pass"] is True

    def test_dual_route_oracle_column_is_the_second_route(self):
        record = vf.run_case(("dual-route", "J", (0, 2, 2), Fraction(1)))
        assert record["pass"] is True
        assert record["value"] == record["oracle"]

    @pytest.mark.parametrize("family, params", [("J", (1, 2, 3)), ("K", (1, 2, 2))])
    def test_dual_route_checks_structure(self, monkeypatch, family, params):
        # the recurrence route plus zeta(2)^2 - (5/2) zeta(4), which is 0 as a
        # number but not as a form: the values agree, the record fails
        case = ("dual-route", family, params, Fraction(1))
        assert case in vf.build_cases("dual-route")
        assert vf.run_case(case)["pass"] is True
        recurrence = ev.freitas_recurrence_eval
        zero = (exact.ClosedForm.of(exact.zeta(2), 2)
                - exact.ClosedForm.of(exact.zeta(4), 1, Fraction(5, 2)))
        monkeypatch.setattr(ev, "freitas_recurrence_eval",
                            lambda *args, **kwargs: recurrence(*args, **kwargs) + zero)
        record = vf.run_case(case)
        assert record["rel_err"] == "<1e-20"
        assert record["pass"] is False

    def test_crashing_case_becomes_failing_record(self):
        record = vf._run_case_guarded(("oracle", "A", (1, 2), Fraction(1)),
                                      "1e-9", 20)
        assert record["pass"] is False
        assert record["symbolic"].startswith("error:")
        assert record["value"] == "nan"

    def test_tight_tolerance_flips_pass(self):
        record = vf.run_case(("oracle", "K", (2, 2, 2), Fraction(1)), tol="1e-30")
        assert record["pass"] is False
        assert record["rel_err"] != "0"


class TestFormatting:
    def test_ten_decimal_places(self):
        with mp.workdps(30):
            assert vf.format_value(mpf(2) * mp.zeta(3)) == "2.4041138063"
            assert vf.format_value(mp.zeta(2) - 1) == "0.6449340668"
            assert vf.format_value(-mp.zeta(3)) == "-1.2020569032"

    def test_zero_never_keeps_a_sign(self):
        assert vf.format_value(mpf("-0.0")) == "0.0000000000"
        assert vf.format_value(mpf(0)) == "0.0000000000"

    def test_nonzero_values_below_the_tenth_decimal_keep_ten_digits(self):
        assert vf.format_value(mpf("-1e-25")) == "-1.000000000e-25"
        assert vf.format_value(mpf("1.8904136494e-11")) == "1.890413649e-11"
        assert vf.format_value(mpf("4.99999999999e-11")) == "5.000000000e-11"

    def test_small_values_keep_fixed_point(self):
        # str() of a quantized Decimal switches to exponent form below 1e-6
        assert vf.format_value(mpf("2.4e-9")) == "0.0000000024"
        assert vf.format_value(mpf("-6.996e-7")) == "-0.0000006996"

    def test_values_past_the_decimal_context(self):
        # 24! and beyond need more than the default 28 significant digits
        with mp.workdps(30):
            assert vf.format_value(mp.factorial(24)) == (
                "620448401733239439360000.0000000000")
            assert vf.format_value(-mpf(10) ** 30) == (
                "-1000000000000000000000000000000.0000000000")


class TestRunSuite:
    def test_records_come_back_sorted(self):
        records = vf.run_suite("euler", grid="small")
        keys = [vf._sort_key(r) for r in records]
        assert keys == sorted(keys)

    def test_jobs_do_not_change_the_report(self):
        lone = vf.run_suite("identities", grid="small")
        fanned = vf.run_suite("identities", grid="small", jobs=3)
        assert lone == fanned

    def test_all_passed_helper(self):
        records = vf.run_suite("two-formula", grid="small")
        assert vf.all_passed(records)
        records[0]["pass"] = False
        assert not vf.all_passed(records)
