"""Tests for the numeric substrate.

Reference values come from an independent source wherever possible:
mpmath's own zeta/polylog implementations, classical identities
(Basel, Landen, dilog reflection), and brute-force partial sums.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from plint import exact as ex
from plint import families
from plint import numerics as num
from plint.errors import (DivergentAtOne, DivergentValue, InvalidOrder, NonConvergent,
                          ParameterError)

from conftest import clear_caches


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

    def test_negative_zeta_helper(self):
        # zeta(0) = -1/2, zeta(-1) = -1/12, zeta(-2) = 0, zeta(-3) = 1/120 are
        # the coefficients of mu^2 .. mu^5 in Li_2(e^mu), scaled by 2^shift
        shift = 120
        coeffs = num._log_branch_coefficients(2, shift)
        for j, zeta in zip(range(2, 6), (Fraction(-1, 2), Fraction(-1, 12), 0,
                                         Fraction(1, 120))):
            assert abs(coeffs[j] - zeta * 2**shift / math.factorial(j)) < 2, j
        assert coeffs[4] == 0


def reference_coefficients(k, shift):
    """The log branch's c_j for order k, each entry on its own: 2^shift
    zeta(k-j) (H_{k-1} at j = k-1) at shift + 8 bits, truncated, // j!."""
    def zeta(s):
        if s >= 2:
            return mp.zeta(s)
        return mpf(-1) / 2 if s == 0 else -mp.bernoulli(1 - s) / (1 - s)

    with mp.workprec(shift + 8):
        return [int(mp.ldexp(num.frac_mpf(num.harmonic_value(k - 1)) if j == k - 1
                             else zeta(k - j), shift)) // math.factorial(j)
                for j in range(k + shift // 3 + 2)]


class TestLogBranchCoefficients:
    GRID = [(k, shift) for k in (2, 3, 7, 30, 201) for shift in (120, 160, 161, 400, 1400)]

    def test_equal_to_the_per_entry_formula_in_any_order(self, monkeypatch):
        want = {key: reference_coefficients(*key) for key in self.GRID}
        for order in (self.GRID, self.GRID[::-1]):
            monkeypatch.setattr(num, "_log_branch_coeffs", {})
            for k, shift in order:
                assert num._log_branch_coefficients(k, shift) == want[k, shift], (k, shift)

    def test_each_zeta_is_scaled_once_per_shift(self, monkeypatch):
        # orders 2..12 at one shift share one row of 2^shift zeta(s): one
        # ldexp per distinct s (s = 1 has none) and one per order, for H_{k-1}
        monkeypatch.setattr(num, "_log_branch_coeffs", {})
        calls = []
        ldexp = mp.ldexp
        monkeypatch.setattr(mp, "ldexp", lambda *args: calls.append(args) or ldexp(*args))
        shift = 160
        for k in range(2, 13):
            num._log_branch_coefficients(k, shift)
        distinct = len(range(-(shift // 3) - 1, 13)) - 1
        assert len(calls) <= distinct + 11


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
        # working precision unless passed explicitly, as quadrature nodes do
        with mp.workdps(80):
            d = mpf(10) ** -25
            t = 1 - d
            want = mp.polylog(2, t)
        with mp.workdps(40 + num.GUARD_DIGITS):
            got = mp.make_mpf(num._polylog_orders(2, (+t)._mpf_, (+d)._mpf_)[2])
        assert close(got, want, mpf(10) ** -38)

    def test_at_zero(self):
        assert num.polylog_value(4, 0, 30) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            num.polylog_value(2, Fraction(3, 2))
        with pytest.raises(InvalidOrder):
            num.polylog_value(-1, Fraction(1, 2))


class TestPolylogOrders:
    """The one-pass kernel behind polylog_value: every order of one argument
    at once, fixed point for t <= 1/2."""

    @staticmethod
    def bound(digits):
        # the docstring's bound: sums short by < 2^-(prec+1), then three
        # roundings of at most 2^-prec each (t, the sum, the product), with
        # room left for the reference's own rounding
        with mp.workdps(digits + num.GUARD_DIGITS):
            return 8 * mpf(2) ** -mp.prec

    @pytest.mark.parametrize("digits", [20, 50, 200])
    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1, 3),
                                   Fraction(1, 10), Fraction(3, 7),
                                   Fraction(3, 5), Fraction(2, 3),
                                   Fraction(3, 4), Fraction(4, 5),
                                   Fraction(9, 10), Fraction(99, 100)])
    def test_every_order_against_mpmath(self, digits, t):
        got = [num.polylog_value(k, t, digits) for k in range(12, 0, -1)]
        with mp.workdps(digits + 30):
            tv = num.frac_mpf(t)
            for k, value in zip(range(12, 0, -1), got):
                want = mp.polylog(k, tv)
                assert abs(value - want) < self.bound(digits) * want, (k, t)

    @pytest.mark.parametrize("digits", [20, 50, 200])
    @pytest.mark.parametrize("e", [10, 30, 60])
    def test_every_order_near_one(self, digits, e):
        # quadrature nodes near t = 1, given with their 1 - t: the fixed-point
        # expansion around 1 must keep the bound however small 1 - t is
        with mp.workdps(digits + num.GUARD_DIGITS):
            comp = 3 * mpf(10) ** -e
            node = 1 - comp
            run = num._polylog_orders(12, node._mpf_, comp._mpf_)
        got = [mp.make_mpf(run[k]) for k in range(12, 0, -1)]
        # 1 - comp needs e more digits to be exact
        with mp.workdps(digits + 30 + e):
            tv = 1 - comp
            for k, value in zip(range(12, 0, -1), got):
                want = mp.polylog(k, tv)
                assert abs(value - want) < self.bound(digits) * want, (k, e)

    @pytest.mark.parametrize("digits", [20, 50])
    def test_relative_accuracy_at_tiny_nodes(self, digits):
        # quadrature nodes near 0: the K integrand divides Li_p Li_q by t,
        # so the values must keep their relative accuracy there
        with mp.workdps(digits + num.GUARD_DIGITS):
            nodes = (mpf("1e-60"), mpf(2) ** -200)
        for node in nodes:
            for k in range(12, 0, -1):
                got = num.polylog_value(k, node, digits)
                with mp.workdps(digits + 100):
                    want = sum(node**n / mpf(n) ** k for n in range(1, 6))
                assert abs(got - want) < self.bound(digits) * want, (node, k)

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        kernel = num._polylog_orders
        monkeypatch.setattr(num, "_polylog_orders",
                            lambda *args: calls.append(args[0]) or kernel(*args))
        return calls

    def test_one_pass_serves_every_lower_order(self, monkeypatch):
        monkeypatch.setattr(num, "_atom_cache", {})
        calls = self.count_passes(monkeypatch)
        x = Fraction(1, 3)
        every = ex.ZERO
        for k in range(8):
            every = every + ex.ClosedForm.of(ex.li_x(k))
        num.numeric_eval(every, x, 30)
        assert calls == [7]
        top = num.numeric_eval(ex.ClosedForm.of(ex.li_x(7)), x, 30)
        num.numeric_eval(ex.ClosedForm.of(ex.li_x(2)) + ex.ClosedForm.of(ex.li_x(5)), x, 30)
        assert calls == [7]
        # higher orders take one more pass, for the orders missing only
        num.numeric_eval(ex.ClosedForm.of(ex.li_x(9)) + ex.ClosedForm.of(ex.li_x(8)), x, 30)
        assert calls == [7, 9]
        assert num.polylog_value(7, x, 30) == top

    @pytest.mark.parametrize("digits", [20, 30, 50])
    @pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(1, 3),   # series branch
                                   Fraction(2, 3), Fraction(99, 100)])  # log branch
    def test_extended_run_equals_a_cold_run(self, monkeypatch, t, digits):
        # at x = t: Li_3..Li_6 of t after Li_2, and of 1 - t after Li_4 and
        # Li_5, each run starting at the lowest order missing
        first = ex.ClosedForm.of(ex.li_x(2)) + ex.ClosedForm.of(ex.li_1mx(4))
        first = first + ex.ClosedForm.of(ex.li_1mx(5))
        second = ex.ZERO
        for k in range(2, 7):
            second = second + ex.ClosedForm.of(ex.li_x(k)) + ex.ClosedForm.of(ex.li_1mx(k))
        monkeypatch.setattr(num, "_atom_cache", {})
        num.numeric_eval(first, t, digits)
        num.numeric_eval(second, t, digits)
        extended = num._atom_cache[(t, digits)]
        monkeypatch.setattr(num, "_atom_cache", {})
        num.numeric_eval(second, t, digits)
        cold = num._atom_cache[(t, digits)]
        assert len(cold) == 20  # 10 atoms and their first powers
        assert extended == cold

    def test_orders_do_not_depend_on_the_highest_order(self):
        for t in (Fraction(1, 3), Fraction(4, 5)):
            with mp.workdps(30 + num.GUARD_DIGITS):
                run = num._polylog_orders(12, t, num.frac_mpf(1 - t)._mpf_)
            assert [num.polylog_value(k, t, 30)._mpf_ for k in range(5)] == list(run[:5])

    def test_numeric_eval_runs_one_pass_per_argument(self, monkeypatch):
        monkeypatch.setattr(num, "_atom_cache", {})
        calls = self.count_passes(monkeypatch)
        # at x = 1/3: Li1, Li2, Li3, Li5 of 1/3, Li2 and Li4 of 2/3, Li3(1/2)
        f = ex.ONE
        for atom in (ex.li_x(1), ex.li_x(3), ex.li_x(5), ex.li_x(2),
                     ex.li_1mx(2), ex.li_1mx(4), ex.li_at_half(3)):
            f = f + ex.ClosedForm.of(atom)
        num.numeric_eval(f, Fraction(1, 3), 30)
        assert sorted(calls) == [3, 4, 5]

    def test_constant_atoms_are_valued_once_for_every_point(self, monkeypatch):
        monkeypatch.setattr(num, "_atom_cache", {})
        calls = self.count_passes(monkeypatch)
        euler = []
        value = num.euler_sum_value
        monkeypatch.setattr(num, "euler_sum_value",
                            lambda *args: euler.append(args) or value(*args))
        # Li2(x) Li3(1/2) + Li4(x) S(2,3) + Li2(1 - x): a constant polylog, a
        # constant Euler sum and two polylog arguments at each point
        f = (ex.ClosedForm.of(ex.li_x(2)) * ex.ClosedForm.of(ex.li_at_half(3))
             + ex.ClosedForm.of(ex.li_x(4)) * ex.ClosedForm.of(ex.euler_sum(2, 3))
             + ex.ClosedForm.of(ex.li_1mx(2)))
        points = (Fraction(1, 3), Fraction(1, 5), Fraction(4, 5))
        for x in points:
            num.numeric_eval(f, x, 30)
        # one pass per argument per point, and Li3(1/2) once
        assert calls == [3] + [4, 2] * len(points)
        assert euler == [(2, 3, 30)]
        assert set(num._atom_cache) == {(None, 30)} | {(x, 30) for x in points}
        # the constants and their powers are kept once, under no point
        assert {(key, len(values)) for key, values in num._atom_cache.items()} == (
            {((None, 30), 4)} | {((x, 30), 6) for x in points})


class TestAtomPowers:
    """_sum_terms keeps each atom power per (x, digits) in _atom_cache."""

    def count_powers(self, monkeypatch):
        calls = []
        pow_int = libmp.mpf_pow_int
        monkeypatch.setattr(libmp, "mpf_pow_int",
                            lambda *args: calls.append(args[1]) or pow_int(*args))
        return calls

    def test_second_evaluation_forms_no_power(self, monkeypatch):
        monkeypatch.setattr(num, "_atom_cache", {})
        calls = self.count_powers(monkeypatch)
        form = families.closed_form("A", (3, 2), Fraction(1, 4))
        first = num.numeric_eval(form, Fraction(1, 4), 30)
        assert len(calls) == len({f for term in form.terms for f in term.factors})
        calls.clear()
        assert num.numeric_eval(form, Fraction(1, 4), 30)._mpf_ == first._mpf_
        assert calls == []

    def test_powers_are_kept_per_point_and_digits(self, monkeypatch):
        monkeypatch.setattr(num, "_atom_cache", {})
        calls = self.count_powers(monkeypatch)
        form = (ex.ClosedForm.of(ex.log_1mx(), 3) + ex.ClosedForm.of(ex.li_x(2), 2)
                + ex.ClosedForm.of(ex.x_pow(-2)))
        num.numeric_eval(form, Fraction(1, 3), 20)
        num.numeric_eval(form, Fraction(1, 3), 20)
        assert sorted(calls) == [1, 2, 3]
        calls.clear()
        warm = {(x, d): num.numeric_eval(form, x, d)._mpf_
                for x, d in ((Fraction(1, 3), 30), (Fraction(2, 3), 20))}
        assert sorted(calls) == [1, 1, 2, 2, 3, 3]
        monkeypatch.setattr(num, "_atom_cache", {})
        assert {(x, d): num.numeric_eval(form, x, d)._mpf_ for x, d in warm} == warm


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 8), digits=st.integers(10, 60),
       t=st.fractions(min_value=0, max_value=1, max_denominator=1000)
       .filter(lambda t: t < 1),
       as_node=st.booleans())
def test_polylog_does_not_depend_on_ambient_precision(k, digits, t, as_node):
    """polylog_value(k, t, digits) is the same under ambient mp.dps 15 and
    100, for exact arguments and for mpf nodes alike."""
    if as_node:
        with mp.workdps(digits + num.GUARD_DIGITS):
            t = num.frac_mpf(t)
    values = []
    for ambient in (15, 100):
        clear_caches()
        with mp.workdps(ambient):
            values.append(num.polylog_value(k, t, digits))
    assert values[0] == values[1]


def _bernoulli_fractions(count):
    """B_0..B_{count-1} exactly (B_1 = -1/2), from sum_j C(n+1, j) B_j = 0."""
    out = []
    for n in range(count):
        out.append(Fraction(1) if n == 0 else -sum(
            math.comb(n + 1, j) * out[j] for j in range(n)) / (n + 1))
    return out


def _tail(p, q, n, digits):
    """sum_{k > n} H_k^(p) k^-q from the tail series of euler_sum_value."""
    with mp.workdps(digits):
        shift = mp.prec + 20
        series = num._euler_tail(p, q, n, shift)
        h_p = sum(mpf(k) ** -p for k in range(1, n + 1))
        h_q = sum(mpf(k) ** -q for k in range(1, n + 1))
        return h_p * (mp.zeta(q) - h_q) + mp.ldexp(series, -shift)


class TestEulerMaclaurinTails:
    @pytest.mark.parametrize("p, q", [(1, 4), (2, 3)])
    def test_tail_telescopes(self, p, q):
        with mp.workdps(40):
            h = brute = mp.zero
            for n in range(1, 5001):
                h += mpf(n) ** -p
                if n > 50:
                    brute += h * mpf(n) ** -q
            assert close(brute, _tail(p, q, 50, 40) - _tail(p, q, 5000, 40), mpf(10) ** -34)

    def test_tail_completes_the_sum(self):
        # sum H_n / n^2 = 2 zeta(3), from 200 direct terms and the tail
        with mp.workdps(40):
            h = partial = mp.zero
            for n in range(1, 201):
                h += mpf(n) ** -1
                partial += h * mpf(n) ** -2
            assert close(partial + _tail(1, 2, 200, 40), 2 * mp.zeta(3), mpf(10) ** -35)

    @pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (4, 2)])
    def test_tail_coefficients_against_fractions(self, p, q):
        # d_k = sum_{l+m=k} b_l(q) b_m(p+q-1+l) + b_{k-1}(p+q), with
        # b_m(s) = B_m/m! (s)_{m-1} and (s)_{-1} = 1/(s-1)
        terms, shift = 14, 100
        bern = _bernoulli_fractions(terms + 1)

        def b(m, s):
            return bern[m] / math.factorial(m) * (
                Fraction(1, s - 1) if m == 0 else math.prod(range(s, s + m - 1)))

        w = p + q
        for drops in ([0] * (terms + 1), list(range(0, 5 * terms + 1, 5))):
            got = num._tail_coefficients(p, q, shift, drops)
            for k in range(terms + 1):
                d = sum(b(l, q) * b(k - l, w - 1 + l) for l in range(k + 1))
                if k:
                    d += b(k - 1, w)
                scaled = d * math.factorial(q - 1) / math.factorial(w + k - 3) * 2**shift
                assert abs(got[k] - scaled / 2 ** drops[k]) <= 13, (k, drops[k])


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

    @pytest.mark.parametrize("digits", [20, 50, 200])
    @pytest.mark.parametrize("p", [2, 5, 30])
    def test_symmetric_sums_at_high_digits(self, digits, p):
        # S(p,p) = (zeta(p)^2 + zeta(2p)) / 2
        with mp.workdps(digits + 30):
            want = (mp.zeta(p) ** 2 + mp.zeta(2 * p)) / 2
            got = num.euler_sum_value(p, p, digits)
            tol = mpf(10) ** -(digits + num.GUARD_DIGITS)
            assert abs(got - want) < tol * want

    @pytest.mark.parametrize("digits", [20, 50, 200])
    @pytest.mark.parametrize("q", [2, 5, 30])
    def test_euler_reduction_at_high_digits(self, digits, q):
        # Euler: S(1,q) = (1 + q/2) zeta(q+1)
        #                 - 1/2 sum_{k=1}^{q-2} zeta(k+1) zeta(q-k)
        with mp.workdps(digits + 30):
            want = (1 + mpf(q) / 2) * mp.zeta(q + 1) - sum(
                (mp.zeta(k + 1) * mp.zeta(q - k) for k in range(1, q - 1)),
                mp.zero) / 2
            got = num.euler_sum_value(1, q, digits)
            tol = mpf(10) ** -(digits + num.GUARD_DIGITS)
            assert abs(got - want) < tol * want

    @pytest.mark.parametrize("digits", [500, 1000])
    @pytest.mark.parametrize("p, q", [(2, 2), (5, 5), (1, 5)])
    def test_classical_forms_at_500_and_1000_digits(self, digits, p, q):
        # S(p,p) = (zeta(p)^2 + zeta(2p)) / 2 and Euler's S(1,q)
        with mp.workdps(digits + 30):
            if p == q:
                want = (mp.zeta(p) ** 2 + mp.zeta(2 * p)) / 2
            else:
                want = (1 + mpf(q) / 2) * mp.zeta(q + 1) - sum(
                    (mp.zeta(k + 1) * mp.zeta(q - k) for k in range(1, q - 1)),
                    mp.zero) / 2
            got = num.euler_sum_value(p, q, digits)
            assert abs(got - want) < mpf(10) ** -(digits + num.GUARD_DIGITS) * want

    def test_does_not_depend_on_ambient_precision(self):
        values = []
        for ambient in (15, 100):
            clear_caches()
            with mp.workdps(ambient):
                values.append(num.euler_sum_value(3, 7, 30))
        assert values[0]._mpf_ == values[1]._mpf_

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

    @pytest.mark.parametrize("family, params, x", [
        ("B", (52, 26), 1), ("B", (56, 28), 1), ("B", (60, 30), 1),
        ("A", (56, 28), Fraction(1, 2)), ("A", (60, 60), Fraction(1, 2)),
    ], ids=["B(52,26,1)", "B(56,28,1)", "B(60,30,1)", "A(56,28,1/2)", "A(60,60,1/2)"])
    def test_deep_cancellation_keeps_the_asked_digits(self, family, params, x):
        # the terms cancel 75 to 93 digits; a noisy first total reads a ratio
        # far short of that, so the passes must go on until one covers its own
        form = families.closed_form(family, params, x)
        want = num.numeric_eval(form, x, 130)
        assert abs(num.numeric_eval(form, x, 30) - want) <= mpf(10) ** -30 * abs(want)

    def test_hidden_zero_raises(self):
        # Li_2(1/2) = zeta(2)/2 - log^2(2)/2: exactly 0, but not structurally,
        # so no pass can tell the value from cancellation noise
        f = (ex.ClosedForm.of(ex.li_at_half(2))
             - ex.ClosedForm.of(ex.zeta(2), coeff=Fraction(1, 2))
             + ex.ClosedForm.of(ex.log_two(), 2, Fraction(1, 2)))
        with pytest.raises(NonConvergent):
            num.numeric_eval(f, digits=20)


def reference_sum_terms(form, x, digits, extra_bits):
    """The reference for numerics._sum_terms: an mpf loop over the same atom
    values, every power, product and sum rounded at the working precision
    of digits + GUARD_DIGITS raised by extra_bits."""
    atoms = dict.fromkeys(atom for term in form.terms for atom, _ in term.factors)
    with mp.workdps(digits + num.GUARD_DIGITS):
        values = {atom: num.polylog_value(atom.args[0], num._LI_ARGUMENTS[atom.kind](x), digits)
                  if atom.kind in num._LI_ARGUMENTS
                  else num._VALUE_RULES[atom.kind](x, digits, *atom.args) for atom in atoms}
        with mp.workprec(mp.prec + extra_bits):
            total = mp.zero
            magnitude = mp.zero
            for term in form.terms:
                val = num.frac_mpf(term.coeff)
                for atom, expn in term.factors:
                    val *= values[atom] ** expn
                total += val
                magnitude += abs(val)
            return total, magnitude


def _deep_ladders():
    """The symbolic-deep benchmark's ladders, at fixed points."""
    for n in range(4, 11):
        yield "A", (n, n), Fraction(1, 3)
        yield "C", (n, n), Fraction(7, 8)
        yield "B", (n, n), Fraction(1)
    for k in range(3, 9):
        yield "J", (1, k, k), None
    for k in range(3, 7):
        yield "K", (1, k, k), None
    for k in range(4, 7):
        yield "J1", (k, k), Fraction(2, 5)


class TestFixedPointSum:
    """_sum_terms against the mpf loop reference, run 64 bits above the
    working precision prec so that the loop's own roundings (under
    2^-(prec+40) of the magnitude for these sizes) stay out of the way.
    The documented bound: each power within 2^(1-prec) relative, so 2 f
    2^-prec per term of f factors; the floors under 2^-(prec+6) of the
    largest term; one rounding of each result to prec bits."""

    def assert_within_bound(self, form, x, digits):
        total, magnitude, unit, prec = num._sum_terms(form, x, digits)
        # each int rounded once to prec bits, as numeric_eval rounds a total
        total, magnitude = (mp.make_mpf(from_man_exp(v, unit, prec, round_nearest))
                            for v in (total, magnitude))
        want_total, want_magnitude = reference_sum_terms(form, x, digits, 64)
        with mp.workdps(digits + num.GUARD_DIGITS):
            assert prec == mp.prec
        factors = max((len(t.factors) for t in form.terms), default=0)
        with mp.workprec(prec + 80):
            spread = mp.ldexp((2 * factors + 1) * want_magnitude, -prec)
            assert abs(total - want_total) <= spread + mp.ldexp(abs(want_total), -prec)
            assert abs(magnitude - want_magnitude) <= spread + mp.ldexp(want_magnitude, -prec)

    def test_oracle_grid_forms(self):
        from plint.verification import build_cases

        cases = build_cases("oracle", "full")
        assert len(cases) == 831
        for _, family, params, x in cases:
            form = families.closed_form(family, params, x)
            self.assert_within_bound(form, None if x == 1 else x, 20)

    def test_symbolic_deep_ladders(self):
        for family, params, x in _deep_ladders():
            form = (families.closed_form(family, params) if x is None
                    else families.closed_form(family, params, x))
            self.assert_within_bound(form, None if x in (None, 1) else x, 30)

    def test_cancelling_form_at_extra_digits(self):
        # B(60,30,1) cancels about 90 digits, so numeric_eval's later passes
        # sum it at 120 digits and more
        form = families.closed_form("B", (60, 30), Fraction(1))
        for digits in (30, 120, 160):
            self.assert_within_bound(form, None, digits)

    def test_empty_form(self):
        assert num._sum_terms(ex.ZERO, None, 20)[:2] == (0, 0)


_EXACT_TERMS = st.lists(
    st.tuples(st.integers(-2**200, 2**200), st.integers(-400, 400),
              st.one_of(st.just(1), st.integers(2, 2**80))),
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(terms=_EXACT_TERMS, prec=st.integers(2, 400))
def test_floor_to_unit_is_within_its_bound(terms, prec):
    """Each int is its term floored to the unit, so the sum of the N ints
    is short of the exact sum by less than N units, N units are under
    2^-(prec + bit_length(N) + 6) of the largest term, and one rounding to
    prec bits adds at most half an ulp; den = 1 and den > 1 alike."""
    floored, unit = num._floor_to_unit(terms, prec)
    step = Fraction(2) ** unit
    exact = [Fraction(man) * Fraction(2) ** exp / den for man, exp, den in terms]
    assert len(floored) == len(terms)
    for got, want in zip(floored, exact):
        assert got * step <= want < (got + 1) * step
    count = len(terms)
    total = sum(exact)
    assert 0 <= total - sum(floored) * step < count * step
    largest = max(map(abs, exact))
    if largest:
        assert count * step <= largest * Fraction(2) ** -(prec + count.bit_length() + 6)
    sign, man, exp, bc = from_man_exp(sum(floored), unit, prec, round_nearest)
    half_ulp = Fraction(2) ** (exp + bc - prec - 1) if man else 0
    rounded = (-1) ** sign * man * Fraction(2) ** exp
    assert abs(rounded - total) <= count * step + half_ulp


def test_value_is_rounded_through_the_pass_precision(monkeypatch):
    """A pass that does not cover its cancellation is repeated with extra
    the least e with |total| 10^e >= magnitude, and the accepted total is
    rounded to that pass's precision and then to digits + GUARD_DIGITS.
    The total below lies just under a tie at the final precision, so it
    rounds up to the tie and then, half to even, up again; rounded once it
    would go down."""
    digits, guard = 20, num.GUARD_DIGITS
    final = libmp.dps_to_prec(digits + guard)
    low = libmp.dps_to_prec(digits + 2 * guard + 5) + 5 - final  # bits below final
    head = 2 ** (final - 1) + 1  # odd, so a tie rounds it up
    passes = []

    def fake_sum_terms(form, x, pass_digits):
        passes.append(pass_digits)
        prec = libmp.dps_to_prec(pass_digits + guard)
        if len(passes) == 1:
            return 1, 10 ** (guard + 5), 0, prec
        total = head << low | (1 << (low - 1)) - 1
        return total, total, -7, prec

    monkeypatch.setattr(num, "_sum_terms", fake_sum_terms)
    value = num.numeric_eval(ex.ONE, digits=digits)
    assert passes == [digits, digits + guard + 5]
    assert value._mpf_ == libmp.from_man_exp(head + 1, low - 7)


def _numeric_eval_battery():
    """(form, x, digits) for the pin below: every oracle-grid form at 20, 30
    and 50 digits; A(n,n,1/2), B(n,n,1) and C(n,n,7/8) for n <= 30 and
    B(120,60,1), whose terms cancel up to 220 digits; J(1,k,k) for k <= 11
    and K(1,k,k) for k <= 8, all at 30 digits."""
    from plint.verification import build_cases

    for _, family, params, x in build_cases("oracle"):
        form = families.closed_form(family, params, x)
        for digits in (20, 30, 50):
            yield form, None if x == 1 else x, digits
    for n in range(1, 31):
        for family, x in (("A", Fraction(1, 2)), ("B", Fraction(1)), ("C", Fraction(7, 8))):
            yield families.closed_form(family, (n, n), x), None if x == 1 else x, 30
    yield families.closed_form("B", (120, 60), 1), None, 30
    for k in range(1, 12):
        yield families.closed_form("J", (1, k, k)), None, 30
    for k in range(1, 9):
        yield families.closed_form("K", (1, k, k)), None, 30


def test_numeric_eval_values_are_pinned():
    """numeric_eval gives the same mpf, bit for bit, over the battery as
    when the pin was taken: the sha256 of repr() of the list of their
    `_mpf_` values.  The verify report prints only ten decimals, so this
    is the check that a change to the sum or the stop test keeps every
    bit of every value."""
    clear_caches()
    values = [num.numeric_eval(form, x, digits)._mpf_
              for form, x, digits in _numeric_eval_battery()]
    assert len(values) == 2603
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "3f9c8fe7fd7b1a8afcb2589948a0906205d36903846144d40e004e8f23873896")
