"""Tests for the numeric substrate.

Reference values come from an independent source wherever possible:
mpmath's own zeta/polylog implementations, classical identities
(Basel, Landen, dilog reflection), and brute-force partial sums.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from plint import exact as ex
from plint import numerics as num
from plint.errors import DivergentAtOne, DivergentValue, InvalidOrder, ParameterError


@pytest.fixture(autouse=True)
def _ambient_precision():
    # comparisons below multiply high-precision values together; do that
    # arithmetic at 50 digits rather than mpmath's 15-digit default
    with mp.workdps(50):
        yield


def close(a, b, tol):
    return abs(a - b) < mpf(tol)


class TestZeta:
    def test_basel(self):
        with mp.workdps(45):
            want = mp.pi**2 / 6
        assert close(num.zeta_value(2, 40), want, mpf(10) ** -38)

    def test_zeta_ten_closed_form(self):
        with mp.workdps(45):
            want = mp.pi**10 / 93555
        assert close(num.zeta_value(10, 40), want, mpf(10) ** -38)

    def test_against_mpmath(self):
        for s in (2, 3, 4, 5, 7, 11, 19):
            with mp.workdps(40):
                want = mp.zeta(s)
            assert close(num.zeta_value(s, 35), want, mpf(10) ** -33)

    def test_rejects_bad_order(self):
        for s in (1, 0, -3):
            with pytest.raises(InvalidOrder):
                num.zeta_value(s)

    def test_one_value_per_precision(self):
        # zeta_value and the polylog expansion share one computed zeta(s)
        z = num.zeta_value(13, 40)
        with mp.workdps(40 + num.GUARD_DIGITS):
            assert num._zeta_any(13) is z

    def test_negative_zeta_helper(self):
        # zeta(0) = -1/2, zeta(-1) = -1/12, zeta(-2) = 0, zeta(-3) = 1/120
        with mp.workdps(30):
            assert num._zeta_any(0) == mpf(-1) / 2
            assert close(num._zeta_any(-1), Fraction(-1, 12), mpf(10) ** -28)
            assert num._zeta_any(-2) == 0
            assert close(num._zeta_any(-3), Fraction(1, 120), mpf(10) ** -28)


class TestHarmonic:
    def test_exact_values(self):
        assert num.harmonic_value(4) == Fraction(25, 12)
        assert num.harmonic_value(3, 2) == Fraction(49, 36)
        assert num.harmonic_value(0, 5) == 0
        assert num.harmonic_value(1, 7) == 1

    def test_deep_index_from_cold_cache(self, monkeypatch):
        # deeper than the interpreter's recursion limit
        monkeypatch.setattr(num, "_harmonic_tables", {})
        assert num.harmonic_value(5000) == sum(Fraction(1, k) for k in range(1, 5001))

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidOrder):
            num.harmonic_value(-1)
        with pytest.raises(InvalidOrder):
            num.harmonic_value(3, 0)


class TestPolylog:
    def test_against_mpmath_grid(self):
        for k in (2, 3, 5):
            for t in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2),
                      Fraction(7, 10), Fraction(9, 10), Fraction(99, 100)):
                with mp.workdps(40):
                    want = mp.polylog(k, num.frac_mpf(t))
                assert close(num.polylog_value(k, t, 35), want, mpf(10) ** -32), (k, t)

    def test_landen_at_half(self):
        with mp.workdps(40):
            want = mp.pi**2 / 12 - mp.log(2) ** 2 / 2
        assert close(num.polylog_value(2, Fraction(1, 2), 35), want, mpf(10) ** -33)

    def test_dilog_reflection(self):
        # Li2(x) + Li2(1-x) = zeta(2) - log(x) log(1-x)
        for x in (Fraction(1, 7), Fraction(2, 5), Fraction(17, 20)):
            with mp.workdps(40):
                lhs = (num.polylog_value(2, x, 35)
                       + num.polylog_value(2, 1 - x, 35))
                rhs = (num.zeta_value(2, 35)
                       - mp.log(num.frac_mpf(x)) * mp.log(num.frac_mpf(1 - x)))
                assert close(lhs, rhs, mpf(10) ** -33)

    def test_low_orders(self):
        x = Fraction(3, 4)
        with mp.workdps(35):
            assert close(num.polylog_value(0, x), 3, mpf(10) ** -30)
            assert close(num.polylog_value(1, x), mp.log(4), mpf(10) ** -30)

    def test_at_one(self):
        assert close(num.polylog_value(3, 1, 30), num.zeta_value(3, 30), mpf(10) ** -28)
        with pytest.raises(DivergentValue):
            num.polylog_value(1, 1)
        with pytest.raises(DivergentValue):
            num.polylog_value(0, Fraction(1))

    def test_complement_form_near_one(self):
        # 1 - t = 1e-25 cannot survive a plain subtraction at 30 digits of
        # working precision unless passed explicitly
        with mp.workdps(80):
            d = mpf(10) ** -25
            t = 1 - d
            want = mp.polylog(2, t)
        got = num.polylog_value(2, t, 40, one_minus_t=d)
        assert close(got, want, mpf(10) ** -38)

    def test_at_zero(self):
        assert num.polylog_value(4, 0, 30) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            num.polylog_value(2, Fraction(3, 2))
        with pytest.raises(InvalidOrder):
            num.polylog_value(-1, Fraction(1, 2))


class TestEulerMaclaurinTails:
    def test_zeta_tail_telescopes(self):
        with mp.workdps(40):
            brute = sum(mpf(n) ** -3 for n in range(51, 5001))
            tail = num._zeta_tail(3, 50) - num._zeta_tail(3, 5000)
            assert close(brute, tail, mpf(10) ** -35)

    def test_zeta_tail_matches_zeta(self):
        with mp.workdps(40):
            partial = sum(mpf(n) ** -2 for n in range(1, 201))
            assert close(partial + num._zeta_tail(2, 200), mp.zeta(2), mpf(10) ** -35)

    def test_log_deriv_coeffs_against_mp_diff(self):
        # d^k/dx^k [log(x) x^-q] = x^(-q-k) (a_k + b_k log x)
        q = 3
        x0 = mpf("3.7")
        with mp.workdps(30):
            f = lambda x: mp.log(x) * x**-q
            for k in (1, 2, 3, 5):
                a, b = num._log_deriv_coeffs(q, k)
                want = mp.diff(f, x0, k)
                got = x0 ** (-q - k) * (a + b * mp.log(x0))
                assert close(got, want, mpf(10) ** -20), k

    def test_log_zeta_tail_telescopes(self):
        with mp.workdps(40):
            brute = sum(mp.log(n) * mpf(n) ** -4 for n in range(51, 3001))
            tail = num._log_zeta_tail(4, 50) - num._log_zeta_tail(4, 3000)
            assert close(brute, tail, mpf(10) ** -34)


class TestEulerSums:
    def test_weight_three(self):
        # sum H_n / n^2 = 2 zeta(3)
        want = 2 * num.zeta_value(3, 35)
        assert close(num.euler_sum_value(1, 2, 30), want, mpf(10) ** -27)

    def test_weight_four(self):
        z4 = num.zeta_value(4, 35)
        assert close(num.euler_sum_value(1, 3, 30), Fraction(5, 4) * z4, mpf(10) ** -27)
        assert close(num.euler_sum_value(2, 2, 30), Fraction(7, 4) * z4, mpf(10) ** -27)

    def test_weight_five(self):
        z2 = num.zeta_value(2, 35)
        z3 = num.zeta_value(3, 35)
        z5 = num.zeta_value(5, 35)
        assert close(num.euler_sum_value(1, 4, 30), 3 * z5 - z2 * z3, mpf(10) ** -27)
        assert close(num.euler_sum_value(2, 3, 30),
                     3 * z2 * z3 - mpf(9) / 2 * z5, mpf(10) ** -27)

    def test_against_brute_force(self):
        with mp.workdps(30):
            h = mp.zero
            brute = mp.zero
            for n in range(1, 4001):
                h += mpf(n) ** -2
                brute += h * mpf(n) ** -4
        # remainder below 4000^-3 * zeta(2) / 3 ~ 1e-11
        assert close(num.euler_sum_value(2, 4, 30), brute, mpf(10) ** -9)

    def test_precision_ladder(self):
        lo = num.euler_sum_value(3, 2, 15)
        hi = num.euler_sum_value(3, 2, 35)
        assert close(lo, hi, mpf(10) ** -13)

    def test_rejects_divergent(self):
        with pytest.raises(InvalidOrder):
            num.euler_sum_value(1, 1)
        with pytest.raises(InvalidOrder):
            num.euler_sum_value(0, 3)


class TestNumericEval:
    def test_constant_form(self):
        f = ex.ClosedForm.of(ex.zeta(2), coeff=2) - ex.ClosedForm.number(1)
        want = 2 * num.zeta_value(2, 35) - 1
        assert close(num.numeric_eval(f, digits=30), want, mpf(10) ** -27)

    def test_x_dependent(self):
        # log(1-x) * x^-1 at x = 1/3
        f = ex.ClosedForm.of(ex.log_1mx()) * ex.ClosedForm.of(ex.x_pow(-1))
        with mp.workdps(40):
            want = mp.log(mpf(2) / 3) * 3
        assert close(num.numeric_eval(f, Fraction(1, 3), 30), want, mpf(10) ** -27)

    def test_all_x_atoms_evaluate(self):
        x = Fraction(2, 5)
        f = ex.ONE
        for atom in (ex.log_x(), ex.log_1mx(), ex.log_1px(), ex.x_pow(2),
                     ex.one_minus_x_pow(-1), ex.one_plus_x_pow(3),
                     ex.li_x(0), ex.li_x(1), ex.li_x(2), ex.li_1mx(3),
                     ex.li_inv_1px(2), ex.harmonic(4, 2), ex.euler_sum(1, 2),
                     ex.li_at_half(3), ex.log_two()):
            f = f * ex.ClosedForm.of(atom)
        v = num.numeric_eval(f, x, 25)
        assert mp.isfinite(v) and v != 0

    def test_at_one_takes_limit(self):
        f = ex.ClosedForm.of(ex.x_pow(1)) * ex.ClosedForm.of(ex.li_x(2))
        assert close(num.numeric_eval(f, 1, 30), num.zeta_value(2, 30), mpf(10) ** -27)

    def test_at_one_divergence_raises(self):
        with pytest.raises(DivergentAtOne):
            num.numeric_eval(ex.ClosedForm.of(ex.log_1mx()), 1, 30)

    def test_missing_point_rejected(self):
        with pytest.raises(ParameterError):
            num.numeric_eval(ex.ClosedForm.of(ex.log_x()))

    def test_out_of_domain_rejected(self):
        with pytest.raises(ParameterError):
            num.numeric_eval(ex.ONE, Fraction(3, 2))
        with pytest.raises(ParameterError):
            num.numeric_eval(ex.ONE, 0)

    def test_cancelling_terms_keep_the_asked_digits(self):
        # 10^25 zeta(2) - r with r = floor(10^25 zeta(2)) - 1: the two terms
        # cancel 25 digits, far more than the guard digits cover
        r = 16449340668482264364724150
        f = ex.ClosedForm.of(ex.zeta(2), coeff=10**25) - ex.ClosedForm.number(r)
        want = num.numeric_eval(f, digits=80)
        assert close(want, mpf("1.66646025189218949901206798437735558"), mpf(10) ** -34)
        assert close(num.numeric_eval(f, digits=20), want, mpf(10) ** -20)
