"""Euler-sum reduction tests: structural goldens, the odd-weight gate
against direct summation, exact identities, and K_base against quadrature."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from plint import eulersums, exact
from plint.errors import NonIntegrable, ParameterError
from plint.eulersums import (
    K_base,
    check_prop2,
    harmonic_binomial_identity,
    reduce_S,
    reduce_S1,
)
from plint.numerics import euler_sum_value, numeric_eval
from plint.quadrature import oracle_value


@pytest.fixture(autouse=True)
def _ambient_precision():
    with mp.workdps(40):
        yield


def close(a, b, tol) -> bool:
    return abs(a - b) < mpf(tol)


def zf(k, coeff=1):
    return exact.ClosedForm.of(exact.zeta(k), coeff=coeff)


class TestReduceS1:
    def test_weight_three_structural(self):
        assert reduce_S1(2) == zf(3, 2)

    def test_weight_four_form(self):
        # (5/2) zeta(4) - (1/2) zeta(2)^2; numerically (5/4) zeta(4)
        expected = zf(4, Fraction(5, 2)) - exact.ClosedForm.of(exact.zeta(2), exp=2).scale(Fraction(1, 2))
        assert reduce_S1(3) == expected
        assert close(numeric_eval(reduce_S1(3), digits=30), euler_sum_value(1, 3, digits=30), "1e-25")

    @pytest.mark.parametrize("i", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_summation(self, i):
        assert close(numeric_eval(reduce_S1(i), digits=25), euler_sum_value(1, i, digits=25), "1e-20")

    def test_rejects_low_order(self):
        with pytest.raises(ParameterError, match="i must be >= 2, got 1"):
            reduce_S1(1)

    def test_cached_form_is_not_served_to_other_types(self):
        # the memo would hand the form of 2 to 2.0 or of 3 to 3.0, as they
        # hash and compare alike
        assert reduce_S1(2) is reduce_S1(2) and reduce_S1(3) is reduce_S1(3)
        for bad in (2.0, 3.0, True, Fraction(3)):
            with pytest.raises(ParameterError, match="i must be an int"):
                reduce_S1(bad)


class TestReduceS:
    def test_delegates_p1(self):
        assert reduce_S(1, 2) == reduce_S1(2)

    @pytest.mark.parametrize(
        "p,q",
        [(p, q) for w in (3, 5, 7, 9) for p in range(1, w - 1) for q in [w - p] if q >= 2],
    )
    def test_odd_weight_gate(self, p, q):
        form = reduce_S(p, q)
        assert not any(a.kind == "EulerSum" for a in form.atoms())
        assert close(numeric_eval(form, digits=25), euler_sum_value(p, q, digits=25), "1e-10")

    def test_known_weight_five_forms(self):
        z2z3 = exact.ClosedForm.of(exact.zeta(2)) * exact.ClosedForm.of(exact.zeta(3))
        assert reduce_S(2, 3) == z2z3.scale(3) - zf(5, Fraction(9, 2))
        assert reduce_S(3, 2) == zf(5, Fraction(11, 2)) - z2z3.scale(2)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(2, 8) for q in range(2, 8) if (p + q) % 2])
    def test_symmetry_relation_structural(self, p, q):
        # S(p,q) + S(q,p) = zeta(p)zeta(q) + zeta(p+q), exactly in atoms
        lhs = reduce_S(p, q) + reduce_S(q, p)
        rhs = exact.ClosedForm.of(exact.zeta(p)) * exact.ClosedForm.of(exact.zeta(q)) + zf(p + q)
        assert lhs == rhs

    def test_even_weight_stays_atom(self):
        form = reduce_S(2, 2)
        assert form == exact.ClosedForm.of(exact.euler_sum(2, 2))
        assert close(numeric_eval(form, digits=25), euler_sum_value(2, 2, digits=25), "1e-20")

    def test_rejections(self):
        with pytest.raises(ParameterError):
            reduce_S(0, 3)
        with pytest.raises(NonIntegrable, match=r"S\(2,1\) diverges: it needs q >= 2"):
            reduce_S(2, 1)
        with pytest.raises(NonIntegrable, match=r"S\(3,0\) diverges: it needs q >= 2"):
            reduce_S(3, 0)
        with pytest.raises(ParameterError):
            reduce_S(2, 2.0)


class TestKBase:
    def test_spot_value_structural(self):
        assert K_base(1, 1) == zf(3, -1)

    def test_even_total_reduces(self):
        # m + q odd <=> Euler sum weight even -> atom may persist;
        # m + q even <=> weight odd -> zeta-only
        for m, q in [(1, 1), (2, 2), (1, 3), (3, 1), (2, 4)]:
            assert not any(a.kind == "EulerSum" for a in K_base(m, q).atoms())
        assert any(a.kind == "EulerSum" for a in K_base(1, 2).atoms())

    @pytest.mark.parametrize(
        "m,q", [(m, q) for m in range(1, 8) for q in range(1, 9 - m)]
    )
    def test_against_quadrature(self, m, q):
        got = numeric_eval(K_base(m, q), digits=20)
        want = oracle_value("K", (m, 0, q), x=1, digits=20)
        assert close(got, want, mpf("1e-9") * max(1, abs(want)))

    def test_rejections(self):
        with pytest.raises(ParameterError):
            K_base(0, 2)
        with pytest.raises(ParameterError):
            K_base(2, 0)


def freitas_K0_recurrence(r: int, q: int) -> exact.ClosedForm:
    """K(r,0,q) through the cross-recurrence, for r >= 1 and q >= 2:

    K(r,0,q) = (-1)^(r+q) r!/(q-1)! K(q-1,0,r+1)
               + (-1)^r r! (zeta(r+1) zeta(q) - zeta(r+q+1)).

    The residual on the second line is forced by the symmetry relation
    S(a,b) + S(b,a) = zeta(a)zeta(b) + zeta(a+b); anything else breaks
    weight homogeneity.  The right-hand K value is taken from K_base.
    """
    swapped = K_base(q - 1, r + 1).scale(
        Fraction((-1) ** (r + q) * math.factorial(r), math.factorial(q - 1))
    )
    residual = (exact.monomial(1, (exact.zeta(r + 1), 1), (exact.zeta(q), 1))
                - exact.ClosedForm.of(exact.zeta(r + q + 1)))
    return swapped + residual.scale((-1) ** r * math.factorial(r))


class TestFreitasK0:
    @pytest.mark.parametrize("r,q", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 4)])
    def test_agrees_with_base(self, r, q):
        via_recurrence = numeric_eval(freitas_K0_recurrence(r, q), digits=25)
        direct = numeric_eval(K_base(r, q), digits=25)
        assert close(via_recurrence, direct, "1e-10")


class TestExactIdentities:
    @pytest.mark.parametrize("m", range(21))
    def test_prop2_exact(self, m):
        lhs, rhs = check_prop2(m)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert lhs == rhs

    @pytest.mark.parametrize("m", range(21))
    def test_harmonic_binomial_exact(self, m):
        lhs, rhs = harmonic_binomial_identity(m)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert lhs == rhs

    def test_spot_values(self):
        assert check_prop2(0) == (Fraction(1), Fraction(1))
        assert harmonic_binomial_identity(1) == (Fraction(3, 2), Fraction(3, 2))
