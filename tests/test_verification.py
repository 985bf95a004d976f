"""Unit checks for the verification engine itself: grids, records, ordering."""

import decimal
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

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

    @pytest.mark.parametrize("family, params", [
        ("J", (1, 2, 3)), ("K", (1, 2, 2)), ("J0", (2, 3))])
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
        # plus 3e-7 the values differ too, by an error printed in exponent form
        # (each value lies in (-1, 1), so the error is absolute)
        offset = exact.ClosedForm.number(Fraction(3, 10**7))
        monkeypatch.setattr(ev, "freitas_recurrence_eval",
                            lambda *args, **kwargs: recurrence(*args, **kwargs) + offset)
        record = vf.run_case(case)
        assert record["rel_err"] == "3e-07"
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

    def test_points_are_spelled_as_an_int_or_a_float(self):
        # records and `plint eval --format json` spell x by this one rule
        got = [vf.format_point(Fraction(x)) for x in ("1", "1/2", "3/4", "1/10", "1/3")]
        assert got == ["1", "0.5", "0.75", "0.1", "0.3333333333333333"]

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


def reference_format_value(v):
    """format_value as it was spelled with a local copy of the caller's
    decimal context: the reference for the default context."""
    with mp.workdps(25):
        text = mp.nstr(v, 20)
    unrounded = Decimal(text)
    with decimal.localcontext() as ctx:
        # room for every integer digit plus the ten decimals
        ctx.prec = max(ctx.prec, unrounded.adjusted() + 11)
        d = unrounded.quantize(Decimal("1e-10"), rounding=ROUND_HALF_EVEN)
    if d == 0:
        return "0.0000000000" if unrounded == 0 else format(unrounded, ".9e")
    # str() would switch to exponent form below 1e-6
    return format(d, "f")


def _decimal_mpf(text):
    with mp.workdps(60):  # every digit of text survives nstr(v, 20)
        return mpf(text)


_SIGNS = st.sampled_from(["", "-"])
# |v| from 1e-59 to 1e40 with up to 20 significant digits, so up to 40
# integer digits, past the default context's 28
_DECIMAL_VALUES = st.builds(lambda sign, m, e: _decimal_mpf(f"{sign}{m}e{e}"),
                            _SIGNS, st.integers(1, 10**20 - 1), st.integers(-59, 20))
# ties at the tenth decimal: round half to even decides them
_TIES = st.builds(lambda sign, i, d: _decimal_mpf(f"{sign}{i}.{d:010d}5"),
                  _SIGNS, st.integers(0, 10**9), st.integers(0, 10**10 - 1))
# ties at the tenth significant digit of the exponent form
_EXPONENT_TIES = st.builds(lambda sign, d, e: _decimal_mpf(f"{sign}{d}5e{e}"),
                           _SIGNS, st.integers(10**9, 10**10 - 1), st.integers(-50, -22))
# around +-5e-11, where the ten decimals round to zero or not
_NEAR_HALF_UNIT = st.builds(lambda sign, k: _decimal_mpf(f"{sign}{5 * 10**19 + k}e-30"),
                            _SIGNS, st.integers(-10**11, 10**11))
# binary values, as the numeric routes return them
_BINARY_VALUES = st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
                           st.integers(-2**100, 2**100).filter(bool), st.integers(-233, 33))
_VALUES = st.one_of(_DECIMAL_VALUES, _TIES, _EXPONENT_TIES, _NEAR_HALF_UNIT, _BINARY_VALUES)

# decimal contexts a caller may have set
_HOSTILE = {
    "trap inexact": lambda ctx: ctx.traps.__setitem__(decimal.Inexact, True),
    "trap rounded": lambda ctx: ctx.traps.__setitem__(decimal.Rounded, True),
    "round down": lambda ctx: setattr(ctx, "rounding", decimal.ROUND_DOWN),
    "round half up": lambda ctx: setattr(ctx, "rounding", decimal.ROUND_HALF_UP),
    "small Emax": lambda ctx: setattr(ctx, "Emax", 5),
    "small Emin": lambda ctx: setattr(ctx, "Emin", -5),
    "five digits": lambda ctx: setattr(ctx, "prec", 5),
}
_HOSTILE_VALUES = ["4.99999999999e-11", "-1e-25", "1.8904136494e-11", "2.4e-9",
                   "1e30", "-620448401733239439360000", "0.12345678905", "0.12345678915",
                   "1.2345678905e-11", "-4.0000000005e-12", "2.4041138063", "0"]


class TestFormatValueSpelling:
    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    def test_equals_the_local_context_spelling(self, v):
        assert vf.format_value(v) == reference_format_value(v)

    @pytest.mark.parametrize("hostile", sorted(_HOSTILE))
    def test_does_not_depend_on_the_callers_context(self, hostile):
        values = [_decimal_mpf(text) for text in _HOSTILE_VALUES]
        want = [reference_format_value(v) for v in values]
        with decimal.localcontext() as ctx:
            _HOSTILE[hostile](ctx)
            assert [vf.format_value(v) for v in values] == want

    def test_infinities_and_nan(self):
        for v in (mp.inf, -mp.inf):
            with pytest.raises(decimal.InvalidOperation):
                vf.format_value(v)
        assert vf.format_value(mp.nan) == "NaN"


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
