"""Tests for the tanh-sinh engine and the family integrands.

Reference values are either elementary (exact antiderivatives), classical
constants, or mp.quad as a second, unrelated quadrature implementation.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from plint import numerics as num
from plint import quadrature as quad
from plint.errors import NoConvergence, NonIntegrable, ParameterError


@pytest.fixture(autouse=True)
def _ambient_precision():
    with mp.workdps(50):
        yield


def close(a, b, tol):
    return abs(a - b) < mpf(tol)


class TestEngine:
    def test_power_log(self):
        # int_0^1 t log t dt = -1/4
        got = quad.oracle_value("L", (1, 1), 1, 30)
        assert close(got, Fraction(-1, 4), mpf(10) ** -28)

    def test_plain_log(self):
        # int_0^1 log t dt = -1
        got = quad.oracle_value("L", (0, 1), 1, 30)
        assert close(got, -1, mpf(10) ** -28)

    def test_log_squared_one_minus(self):
        # int_0^1 log^2(1-t)/t dt = 2 zeta(3)
        got = quad.oracle_value("A", (2, 1), 1, 30)
        assert close(got, 2 * num.zeta_value(3, 35), mpf(10) ** -27)

    def test_log_one_plus_over_t(self):
        # int_0^1 log(1+t)/t dt = zeta(2)/2
        got = quad.oracle_value("B", (1, 1), 1, 30)
        assert close(got, num.zeta_value(2, 35) / 2, mpf(10) ** -27)

    def test_split_additivity(self):
        whole = quad.oracle_value("B", (2, 1), 1, 25)
        left = quad.oracle_value("B", (2, 1), Fraction(1, 2), 25)

        def right_f(t, dm, dp):
            return mp.log(1 + t) ** 2 / t

        right = quad.integrate(
            quad.IntegralSpec(Fraction(1, 2), Fraction(1), right_f), 25)
        assert close(whole, left + right, mpf(10) ** -22)

    def test_precision_ladder(self):
        lo = quad.oracle_value("A", (3, 2), 1, 15)
        hi = quad.oracle_value("A", (3, 2), 1, 25)
        assert close(lo, hi, mpf(10) ** -13)

    def test_empty_interval(self):
        spec = quad.family_spec("M", (2, 1), 1, 20)
        assert quad.integrate(spec, 20) == 0

    def test_no_convergence_reported(self):
        # 1/t is not integrable at 0; capped levels must refuse, not lie
        spec = quad.IntegralSpec(Fraction(0), Fraction(1), lambda t, dm, dp: 1 / dm)
        with pytest.raises(NoConvergence):
            quad.integrate(spec, 20, max_level=5)

    def test_inverted_interval_rejected(self):
        spec = quad.IntegralSpec(Fraction(1), Fraction(0), lambda t, dm, dp: t)
        with pytest.raises(ParameterError):
            quad.integrate(spec, 20)


class TestFamilies:
    def test_product_of_two_li1(self):
        # int_0^1 log^2(1-x) dx = 2
        got = quad.oracle_value("J", (0, 1, 1), 1, 30)
        assert close(got, 2, mpf(10) ** -27)

    def test_j_negative_moment(self):
        # int_0^1 Li_1^2 / x^2 dx = 2 zeta(2)
        got = quad.oracle_value("J", (-2, 1, 1), 1, 30)
        assert close(got, 2 * num.zeta_value(2, 35), mpf(10) ** -27)

    def test_k_with_li0(self):
        # int_0^1 log(x) Li_0(x) Li_1(x) / x dx = -zeta(3)
        got = quad.oracle_value("K", (1, 0, 1), 1, 30)
        assert close(got, -num.zeta_value(3, 35), mpf(10) ** -27)

    def test_k_against_euler_sum(self):
        # int_0^1 log^2(x) Li_1(x)/x ... weight from the harmonic side:
        # K(2,1,1) = 4 (S_{1,4} - zeta(5))
        got = quad.oracle_value("K", (2, 1, 1), 1, 30)
        want = 4 * (num.euler_sum_value(1, 4, 35) - num.zeta_value(5, 35))
        assert close(got, want, mpf(10) ** -26)

    def test_against_mp_quad(self):
        cases = [
            ("C", (2, 1), Fraction(1)),
            ("J0", (3, 2), Fraction(1)),
            ("J1", (1, 2), Fraction(9, 10)),
            ("M", (2, 2), Fraction(1, 3)),
            ("J", (1, 2, 2), Fraction(1)),
        ]
        for family, params, x in cases:
            got = quad.oracle_value(family, params, x, 25)
            with mp.workdps(35):
                ref = _mp_quad_reference(family, params, x)
            assert close(got, ref, mpf(10) ** -20), (family, params)

    def test_partial_upper_limit(self):
        # int_0^{1/2} log(1-t)/t dt = -Li_2(1/2)
        got = quad.oracle_value("A", (1, 1), Fraction(1, 2), 30)
        want = -num.polylog_value(2, Fraction(1, 2), 35)
        assert close(got, want, mpf(10) ** -27)

    @pytest.mark.parametrize("family, params, x", [
        ("A", (2, 1), Fraction(1, 10)), ("B", (2, 1), Fraction(1, 10)),
        ("C", (3, 2), Fraction(1, 10)), ("J0", (2, 3), Fraction(9, 10)),
        ("J1", (2, 2), Fraction(1, 10)), ("L", (1, 2), Fraction(1, 10)),
        ("M", (1, 2), Fraction(1, 10)), ("HeadLog1m", (1, 2), Fraction(1, 10)),
    ])
    def test_ambient_precision_does_not_leak(self, family, params, x):
        # 1 - x is inexact in binary at these points; at the CLI's ambient
        # 15 digits the oracle must give the same number as at ambient 50
        want = quad.oracle_value(family, params, x, 30)
        with mp.workdps(15):
            got = quad.oracle_value(family, params, x, 30)
        assert got == want

    def test_integrand_value_spot(self):
        v = quad.integrand_value("A", (2, 1), 1, Fraction(1, 2), 30)
        with mp.workdps(40):
            want = mp.log(mpf(1) / 2) ** 2 * 2
        assert close(v, want, mpf(10) ** -28)

    def test_non_integrable_families(self):
        with pytest.raises(NonIntegrable):
            quad.family_spec("A", (1, 2), 1)
        with pytest.raises(NonIntegrable):
            quad.family_spec("C", (1, 2), 1)
        with pytest.raises(NonIntegrable):
            quad.family_spec("J1", (0, 0), 1)
        # same C parameters are fine short of 1
        quad.family_spec("C", (1, 2), Fraction(1, 2))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            quad.family_spec("J", (-1, 1, 1), 1)
        with pytest.raises(ParameterError):
            quad.family_spec("J", (0, 1, 1), Fraction(1, 2))
        with pytest.raises(ParameterError):
            quad.family_spec("K", (0, 1, 1), 1)
        with pytest.raises(ParameterError):
            quad.family_spec("K", (1, 0, 0), 1)
        with pytest.raises(ParameterError):
            quad.family_spec("A", (2,), 1)
        with pytest.raises(ParameterError):
            quad.family_spec("Q", (1, 1), 1)
        with pytest.raises(ParameterError):
            quad.oracle_value("A", (1, 1), Fraction(3, 2))


def _mp_quad_reference(family, params, x):
    xf = num.frac_mpf(x)
    if family == "C":
        m, n = params
        return mp.quad(lambda t: mp.log(t) ** m / (1 - t) ** n, [0, xf])
    if family == "J0":
        m, p = params
        return mp.quad(lambda t: t**m * mp.polylog(p, t), [0, xf])
    if family == "J1":
        m, p = params
        return mp.quad(lambda t: mp.log(t) ** m * mp.polylog(p, t), [0, xf])
    if family == "M":
        n, m = params
        return mp.quad(lambda t: t**n * mp.log(1 - t) ** m, [xf, 1])
    if family == "J":
        m, p, q = params
        return mp.quad(
            lambda t: t**m * mp.polylog(p, t) * mp.polylog(q, t), [0, 1])
    raise AssertionError(family)
