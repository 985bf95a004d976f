"""Closed-form evaluators: frozen oracle values, structural identities,
route cross-checks, and the x -> 1 continuity guards."""

import hashlib
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from plint import evaluators as ev
from plint import exact
from plint.errors import DivergentAtOne, NonIntegrable, ParameterError
from plint.eulersums import K_base
from plint.evaluators import NestedSumPlan, freitas_recurrence_eval
from plint.exact import ClosedForm
from plint.numerics import numeric_eval
from plint.quadrature import oracle_value

from conftest import MEMOIZED, clear_caches


@pytest.fixture(autouse=True)
def _ambient_precision():
    with mp.workdps(40):
        yield


def close(a, b, tol="1e-18"):
    a, b = mpf(a), mpf(b)
    return abs(a - b) <= mpf(tol) * max(1, abs(b))


def zf(k, coeff=1):
    return ClosedForm.of(exact.zeta(k), coeff=coeff)


def num(value):
    return ClosedForm.number(value)


def constant_only(form):
    return all(a.kind in exact.CONSTANT_KINDS for a in form.atoms())


HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
THREEQ = Fraction(3, 4)

# expected values frozen from the tanh-sinh oracle at 25 digits
FROZEN = {
    ("L", 0, 2, HALF): "1.93337368751904602175",
    ("M", 1, 2, QUARTER): "1.74878173274286662913",
    ("Head", 2, 2, HALF): "0.010568211986493047518",
    ("A", 2, 1, HALF): "0.189506008460255411444",
    ("B", 1, 1, HALF): "0.448414206923646202443",
    ("B", 2, 1, 1): "0.30051422578989857135",
    ("C", 1, 1, HALF): "-1.06269354038321393057",
    ("A", 3, 2, 1): "-7.2123414189575657124",
    ("B", 2, 2, 1): "0.684028039011823587138",
    ("B", 3, 2, HALF): "0.0816409642669141537711",
    ("C", 3, 2, HALF): "-6.97684804556572895779",
    ("J1", 1, 0, HALF): "-0.216119950103241275861",
    ("J1", 2, 0, HALF): "0.281234110339887137605",
    ("J1", 1, 1, HALF): "-0.177532966575886781764",
    ("J1", 2, 2, THREEQ): "0.26667223673701242795",
    ("J", 0, 2, 2): "0.607712337943015464246",
    ("J", -2, 2, 1): "2.08781123053685858755",
    ("J", -2, 2, 2): "1.4698143767958716963",
    ("K", 2, 1, 1): "0.386204639957774937863",
    ("K", 1, 1, 1): "-0.541161616855569095758",
    ("K", 1, 2, 2): "-0.339114353994816379905",
}


class TestNestedSumPlan:
    def test_depth_zero_is_single_empty_chain(self):
        plan = NestedSumPlan(0, lambda lvl, pre: (1, 0), lambda c: num(1))
        assert list(plan.chains()) == [()]
        assert plan.evaluate() == num(1)

    def test_lexicographic_order(self):
        plan = NestedSumPlan(
            2, lambda lvl, pre: (0, 1), lambda c: num(1)
        )
        assert list(plan.chains()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_empty_range_prunes_branch(self):
        # second level collapses when the first index is too large
        def bounds(lvl, pre):
            if lvl == 0:
                return (0, 2)
            return (0, 1 - pre[0])

        plan = NestedSumPlan(2, bounds, lambda c: num(1))
        chains = list(plan.chains())
        assert (2, 0) not in chains
        assert plan.evaluate() == num(len(chains))


# -- brute-force reference: every index chain walked through NestedSumPlan ------
#
# These rebuild the chain families by enumerating each chain and its body, as
# the nested-sum expansions read.  The evaluators count the chains instead;
# on a small grid the two must agree term for term.


def capped_bounds(cap, low=0):
    """Entries >= low whose partial sums, less low per entry, stay <= cap."""
    return lambda level, prefix: (low, cap - sum(prefix) + low * (level + 1))


def descending_bounds(n):
    return lambda level, prefix: (2, (prefix[-1] if prefix else n) - 1)


def chain_count(depth, bounds):
    return sum(1 for _ in NestedSumPlan(depth, bounds, lambda _: exact.ZERO).chains())


def chain_weight(n, chain):
    return Fraction(1, n - 1) * math.prod(Fraction(1, i - 1) for i in chain)


def ref_ac_at_one(m, n):
    out = exact.ZERO
    for y in range(n - 1):
        weight = sum(chain_weight(n, c)
                     for c in NestedSumPlan(y, descending_bounds(n), None).chains())
        out = out + zf(m - y, (-1) ** m * math.factorial(m) * weight)
    return out


def ref_a_symbolic(m, n):
    total = exact.ZERO
    for y in range(n - 1):
        c_y, c_y1 = ev._falling(m, y), ev._falling(m, y + 1)

        def body(chain, y=y, c_y=c_y, c_y1=c_y1):
            w = chain_weight(n, chain)
            tail = chain[-1] if chain else n
            out = exact.monomial(w * c_y * (-1) ** (y + 1), (exact.log_1mx(), m - y),
                                 (exact.x_pow(-(tail - 1)), 1))
            out = out + exact.monomial(w * c_y * (-1) ** y, (exact.log_1mx(), m - y))
            return out + ev._a_base_symbolic(m - y - 1).scale(w * c_y1 * (-1) ** (y + 1))

        total = total + NestedSumPlan(y, descending_bounds(n), body).evaluate()
    return total


def ref_b(m, n, at_one):
    log_atom = exact.log_two() if at_one else exact.log_1px()
    total = exact.ZERO
    for y in range(n - 1):
        c_y, c_y1 = ev._falling(m, y), ev._falling(m, y + 1)

        def body(chain, y=y, c_y=c_y, c_y1=c_y1):
            w = chain_weight(n, chain)
            tail = chain[-1] if chain else n
            power = () if at_one else ((exact.x_pow(-(tail - 1)), 1),)
            out = exact.monomial(w * c_y * (-1) ** (n + tail + y + 1), (log_atom, m - y),
                                 *power)
            out = out + exact.monomial(w * c_y * (-1) ** (n + y + 1), (log_atom, m - y))
            terminal = ev.B_general(m - y - 1, 1, 1) if at_one else ev._b_base_symbolic(m - y - 1)
            return out + terminal.scale(w * c_y1 * (-1) ** (n + y))

        total = total + NestedSumPlan(y, descending_bounds(n), body).evaluate()
    return total


# -- the C and M forms as written out before they were derived from A and L ----


def ref_c_base(m):
    """C(m,1,x) = -log(1-x) log^m(x)
    + m sum_{i=2}^{m+1} (-1)^(i-1) C(m-1,i-2) (i-2)! log^(m+1-i)(x) Li_i(x)."""
    parts = [exact.monomial(-1, (exact.log_1mx(), 1), (exact.log_x(), m))]
    for i in range(2, m + 2):
        coeff = m * (-1) ** (i - 1) * math.comb(m - 1, i - 2) * math.factorial(i - 2)
        parts.append(exact.monomial(coeff, (exact.log_x(), m + 1 - i), (exact.li_x(i), 1)))
    return sum(parts, exact.ZERO)


def ref_m(n, m):
    """M(n,m,x) as the double binomial sum over (1-x)-power and log(1-x) atoms."""
    parts = []
    for j in range(n + 1):
        outer = Fraction((-1) ** j * math.comb(n, j), j + 1)
        for i in range(m + 1):
            coeff = outer * Fraction((-1) ** i * ev._rising(m + 1 - i, i), (j + 1) ** i)
            parts.append(exact.monomial(coeff, (exact.one_minus_x_pow(j + 1), 1),
                                        (exact.log_1mx(), m - i)))
    return sum(parts, exact.ZERO)


def ref_m_at_zero(n, m):
    """M(n,m,0) = (-1)^m m! sum_j C(n,j) (-1)^j / (j+1)^(m+1)."""
    total = sum(Fraction((-1) ** j * math.comb(n, j), (j + 1) ** (m + 1))
                for j in range(n + 1))
    return num((-1) ** m * math.factorial(m) * total)


def ref_j1(m, p, x):
    bounds = capped_bounds(m - 1)
    total = exact.ZERO
    for y in range(1, p + 1):
        if x != 1:
            def body(chain, y=y):
                s = sum(chain)
                return exact.monomial(ev._falling(m, s) * (-1) ** (s + y - 1),
                                      (exact.x_pow(1), 1), (exact.li_x(p - y + 1), 1),
                                      (exact.log_x(), m - s))

            total = total + NestedSumPlan(y, bounds, body).evaluate()
        coeff = chain_count(y - 1, bounds) * math.factorial(m) * (-1) ** (m + y - 1)
        total = total + ev.J0_eval(0, p - y + 1, x).scale(coeff)

    def tail_body(chain):
        s = sum(chain)
        return ev.J1_eval(m - s, 0, x).scale(ev._falling(m, s) * (-1) ** (s + p))

    return total + NestedSumPlan(p, bounds, tail_body).evaluate()


def ref_j(m, p, q):
    bounds = capped_bounds(p - 2)
    total = exact.ZERO
    for stage in range(1, q):
        def zeta_body(chain, stage=stage):
            s = sum(chain)
            coeff = Fraction((-1) ** (s + stage - 1), (m + 1) ** (s + stage))
            return exact.monomial(coeff, (exact.zeta(p - s), 1),
                                  (exact.zeta(q - stage + 1), 1))

        total = total + NestedSumPlan(stage, bounds, zeta_body).evaluate()
        coeff = Fraction((-1) ** (p - 2 + stage), (m + 1) ** (p - 2 + stage))
        total = total + ev._j_base(m, q - stage + 1).scale(coeff * chain_count(stage - 1, bounds))

    def base_body(chain):
        s = sum(chain)
        return ev._j_base(m, p - s).scale(Fraction((-1) ** (s + q - 1), (m + 1) ** (s + q - 1)))

    return total + NestedSumPlan(q - 1, bounds, base_body).evaluate()


def ref_k(m, p, q):
    bounds = capped_bounds(p - 1, low=1)
    total = exact.ZERO
    for stage in range(1, q + 1):
        coeff = Fraction((-1) ** (p + stage - 1), ev._rising(m + 1, p + stage - 1))
        total = total + K_base(m + p + stage - 1, q - stage + 1).scale(
            coeff * chain_count(stage - 1, bounds))

    def base_body(chain):
        s = sum(chain)
        return K_base(m + s, p + q - s).scale(Fraction((-1) ** s, ev._rising(m + 1, s)))

    return total + NestedSumPlan(q, bounds, base_body).evaluate()


# the interior forms do not depend on the point, so one stands for all
THIRD = Fraction(1, 3)


class TestCountedChainsMatchEnumeration:
    def test_capped_bounds_count_compositions(self):
        # chains of depth d, entries >= 0, partial sums <= c: C(c+d, d)
        for cap in range(4):
            for depth in range(4):
                assert chain_count(depth, capped_bounds(cap)) == math.comb(cap + depth, depth)
                assert chain_count(depth, capped_bounds(cap, low=1)) == math.comb(cap + depth, depth)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_a_and_c(self, m):
        for n in range(2, m + 1):
            assert ev.A_general(m, n, 1) == ref_ac_at_one(m, n)
            assert ev.C_general(m, n, 1) == ref_ac_at_one(m, n)
            sym = ref_a_symbolic(m, n)
            assert ev.A_general(m, n, THIRD) == sym, (m, n)
            assert ev.C_general(m, n, THIRD) == (
                ref_ac_at_one(m, n) - exact.subst_one_minus_x(sym)), (m, n)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_b(self, m):
        for n in range(2, m + 1):
            assert ev.B_general(m, n, 1) == ref_b(m, n, True), (m, n)
            assert ev.B_general(m, n, THIRD) == ref_b(m, n, False), (m, n)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_j1(self, m):
        for p in range(1, 5):
            for x in (1, THIRD):
                assert ev.J1_eval(m, p, x) == ref_j1(m, p, x), (m, p, x)

    @pytest.mark.parametrize("m", [-2, 0, 1, 3])
    def test_j(self, m):
        for p in range(2, 7):
            for q in range(2, min(p, 8 - p) + 1):
                assert ev.J_eval(m, p, q) == ref_j(m, p, q), (m, p, q)
                assert ev.J_eval(m, q, p) == ref_j(m, p, q), (m, q, p)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_k(self, m):
        for p in range(1, 6):
            for q in range(1, min(p, 7 - p) + 1):
                assert ev.K_eval(m, p, q) == ref_k(m, p, q), (m, p, q)
                assert ev.K_eval(m, q, p) == ref_k(m, p, q), (m, q, p)


class TestDerivedFormsMatchTheirOwnSums:
    # C from A by t -> 1-t and M from L by y = 1-u give, term for term, the
    # sums these families were once written out as

    @pytest.mark.parametrize("m", range(1, 13))
    def test_c_base(self, m):
        assert ev.C_general(m, 1, THIRD) == ref_c_base(m)
        assert ev.C_general(m, 1) == exact.limit(ref_c_base(m), 1)

    @pytest.mark.parametrize("n", range(9))
    def test_m(self, n):
        for m in range(9):
            assert ev.M_integral(n, m, THIRD) == ref_m(n, m), (n, m)
            assert ev.M_integral(n, m, 0) == ref_m_at_zero(n, m), (n, m)


class TestLogPowerIntegrals:
    def test_l_particular_value(self):
        assert ev.L_integral(1, 1, 1) == num(Fraction(-1, 4))

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 2), (3, 1), (4, 4)])
    def test_l_at_one_closed_form(self, n, m):
        want = Fraction((-1) ** m * math.factorial(m), (n + 1) ** (m + 1))
        assert ev.L_integral(n, m, 1) == num(want)

    @pytest.mark.parametrize("n", range(4))
    def test_l_order_zero_is_plain_power(self, n):
        want = ClosedForm.of(exact.x_pow(n + 1), coeff=Fraction(1, n + 1))
        assert ev.L_integral(n, 0, HALF) == want

    def test_l_at_zero(self):
        assert ev.L_integral(2, 3, 0) == exact.ZERO

    def test_l_frozen_value(self):
        got = numeric_eval(ev.L_integral(0, 2, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[("L", 0, 2, HALF)])

    def test_m_particular_values(self):
        assert ev.M_integral(0, 1, 0) == num(-1)
        for n in range(5):
            assert ev.M_integral(n, 0, 0) == num(Fraction(1, n + 1))

    def test_m_from_one_is_empty_interval(self):
        assert ev.M_integral(2, 2, 1) == exact.ZERO

    def test_m_frozen_value(self):
        got = numeric_eval(ev.M_integral(1, 2, QUARTER), x=QUARTER, digits=25)
        assert close(got, FROZEN[("M", 1, 2, QUARTER)])

    def test_head_endpoints(self):
        assert ev.head_log1m_integral(2, 2, 0) == exact.ZERO
        assert ev.head_log1m_integral(2, 2, 1) == ev.M_integral(2, 2, 0)

    def test_head_frozen_value(self):
        got = numeric_eval(ev.head_log1m_integral(2, 2, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[("Head", 2, 2, HALF)])

    def test_rejections(self):
        with pytest.raises(ParameterError):
            ev.L_integral(-1, 0, 1)
        with pytest.raises(ParameterError):
            ev.L_integral(0, 0, 2)
        with pytest.raises(ParameterError):
            ev.M_integral(0, -1, 0)


# the n = 1 member of each log family, its base, as the test ids name it
_BASE_IDS = {ev.A_general: "A_base", ev.B_general: "B_base", ev.C_general: "C_base"}


class TestBaseFamilies:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_a_base_particular_single_zeta(self, m):
        assert ev.A_general(m, 1) == zf(m + 1, (-1) ** m * math.factorial(m))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_c_base_particular_single_zeta(self, m):
        assert ev.C_general(m, 1) == zf(m + 1, (-1) ** m * math.factorial(m))

    def test_b_base_at_one_structure(self):
        want = (
            ClosedForm.of(exact.log_two(), exp=2, coeff=Fraction(-1, 2))
            + zf(2)
            - ClosedForm.of(exact.li_at_half(2))
        )
        assert ev.B_general(1, 1) == want

    def test_b_base_one_is_half_zeta2(self):
        got = numeric_eval(ev.B_general(1, 1), digits=25)
        with mp.workdps(30):
            assert close(got, mp.zeta(2) / 2)

    def test_b_base_two_is_quarter_zeta3(self):
        got = numeric_eval(ev.B_general(2, 1), digits=25)
        with mp.workdps(30):
            assert close(got, mp.zeta(3) / 4)
        assert close(got, FROZEN[("B", 2, 1, 1)])

    @pytest.mark.parametrize(
        "fn,m,key",
        [
            (ev.A_general, 2, ("A", 2, 1, HALF)),
            (ev.B_general, 1, ("B", 1, 1, HALF)),
            (ev.C_general, 1, ("C", 1, 1, HALF)),
        ],
        ids=_BASE_IDS.get,
    )
    def test_frozen_interior_values(self, fn, m, key):
        got = numeric_eval(fn(m, 1, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[key])

    @pytest.mark.parametrize("fn", _BASE_IDS, ids=_BASE_IDS.get)
    def test_order_zero_rejected(self, fn):
        with pytest.raises(ParameterError):
            fn(0, 1)

    @pytest.mark.parametrize("fn", _BASE_IDS, ids=_BASE_IDS.get)
    def test_point_outside_domain_rejected(self, fn):
        with pytest.raises(ParameterError):
            fn(2, 1, 0)
        with pytest.raises(ParameterError):
            fn(2, 1, Fraction(5, 4))


class TestGeneralFamilies:
    def test_a22_particular(self):
        assert ev.A_general(2, 2) == zf(2, 2)

    def test_a32_frozen(self):
        got = numeric_eval(ev.A_general(3, 2), digits=25)
        assert close(got, FROZEN[("A", 3, 2, 1)])

    def test_b22_frozen(self):
        got = numeric_eval(ev.B_general(2, 2), digits=25)
        assert close(got, FROZEN[("B", 2, 2, 1)])

    def test_b32_frozen_interior(self):
        got = numeric_eval(ev.B_general(3, 2, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[("B", 3, 2, HALF)])

    def test_c32_frozen_interior(self):
        got = numeric_eval(ev.C_general(3, 2, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[("C", 3, 2, HALF)])

    def test_general_dispatches_to_base_at_n1(self):
        assert ev.A_general(3, 1, HALF) == ev._a_base_symbolic(3)
        assert ev.B_general(3, 1) == exact.limit(ev._b_base_symbolic(3), 1)
        assert ev.C_general(3, 1, HALF) == ref_c_base(3)

    def test_a_and_c_share_particular_value(self):
        for m, n in [(2, 2), (3, 2), (4, 3), (5, 5)]:
            assert ev.A_general(m, n) == ev.C_general(m, n)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (4, 3), (5, 4)])
    def test_oracle_agreement_at_quarter(self, m, n):
        for fn, fam in ((ev.A_general, "A"), (ev.B_general, "B"), (ev.C_general, "C")):
            got = numeric_eval(fn(m, n, QUARTER), x=QUARTER, digits=20)
            want = oracle_value(fam, (m, n), QUARTER, digits=20)
            assert close(got, want, "1e-15"), (fam, m, n)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 4), (5, 3)])
    def test_oracle_agreement_at_one(self, m, n):
        for fn, fam in ((ev.A_general, "A"), (ev.B_general, "B"), (ev.C_general, "C")):
            got = numeric_eval(fn(m, n), digits=20)
            want = oracle_value(fam, (m, n), 1, digits=20)
            assert close(got, want, "1e-15"), (fam, m, n)

    def test_c_a_consistency_identity(self):
        # C(m,n,x) + A(m,n,1-x) = A(m,n,1), evaluated numerically
        for m, n, x in [(3, 2, QUARTER), (4, 3, HALF), (5, 2, THREEQ)]:
            c_val = numeric_eval(ev.C_general(m, n, x), x=x, digits=25)
            a_sym = ev.A_general(m, n, HALF)
            a_val = numeric_eval(a_sym, x=1 - x, digits=25)
            a_one = numeric_eval(ev.A_general(m, n), digits=25)
            assert close(c_val + a_val, a_one, "1e-20")

    def test_b_vanishes_with_the_interval(self):
        got = numeric_eval(ev.B_general(2, 2, Fraction(1, 1000)),
                           x=Fraction(1, 1000), digits=25)
        assert abs(got) < mpf("1e-3")

    def test_m_below_n_rejected(self):
        # for n > m, A and B diverge at 0 and C at 1; below 1, C converges
        # but has no closed form
        for fn in (ev.A_general, ev.B_general, ev.C_general):
            with pytest.raises(NonIntegrable):
                fn(2, 3)
        for fn in (ev.A_general, ev.B_general):
            with pytest.raises(NonIntegrable):
                fn(2, 3, HALF)
        with pytest.raises(ParameterError):
            ev.C_general(2, 3, HALF)


class TestJ0:
    def test_spec_values_at_one(self):
        assert ev.J0_eval(0, 1) == num(1)
        assert ev.J0_eval(0, 2) == zf(2) + num(-1)
        assert ev.J0_eval(1, 2) == zf(2, Fraction(1, 2)) + num(Fraction(-3, 8))

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("p", range(1, 5))
    def test_oracle_agreement(self, m, p):
        for x in (HALF, 1):
            form = ev.J0_eval(m, p, x)
            got = numeric_eval(form, x=None if x == 1 else x, digits=20)
            want = oracle_value("J0", (m, p), x, digits=20)
            assert close(got, want, "1e-15"), (m, p, x)

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("q", range(2, 6))
    def test_recurrence_route_structural(self, m, q):
        assert freitas_recurrence_eval("J0", m=m, q=q) == ev.J0_eval(m, q)

    def test_rejections(self):
        with pytest.raises(ParameterError):
            ev.J0_eval(-1, 1)
        with pytest.raises(ParameterError):
            ev.J0_eval(0, 0)


class TestJ1:
    def test_zero_order_elementary_value(self):
        # int_0^(1/2) t/(1-t) dt = log 2 - 1/2
        assert ev.J1_eval(0, 0, HALF) == -(ClosedForm.of(exact.log_1mx())
                                           + ClosedForm.of(exact.x_pow(1)))
        got = numeric_eval(ev.J1_eval(0, 0, HALF), x=HALF, digits=25)
        with mp.workdps(30):
            assert close(got, mp.log(2) - mpf(1) / 2)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_zero_order_at_one(self, m):
        want = zf(m + 1, (-1) ** m * math.factorial(m)) + num(
            (-1) ** (m + 1) * math.factorial(m)
        )
        assert ev.J1_eval(m, 0) == want

    def test_zero_order_divergence_at_one(self):
        with pytest.raises(DivergentAtOne):
            ev.J1_eval(0, 0, 1)

    @pytest.mark.parametrize("m,key", [(1, ("J1", 1, 0, HALF)), (2, ("J1", 2, 0, HALF))])
    def test_zero_order_frozen(self, m, key):
        got = numeric_eval(ev.J1_eval(m, 0, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[key])

    def test_dispatch_to_j0_at_m0(self):
        assert ev.J1_eval(0, 3, HALF) == ev.J0_eval(0, 3, HALF)

    def test_j1_11_at_one(self):
        assert ev.J1_eval(1, 1) == zf(2) + num(-2)

    def test_frozen_interior_values(self):
        got = numeric_eval(ev.J1_eval(1, 1, HALF), x=HALF, digits=25)
        assert close(got, FROZEN[("J1", 1, 1, HALF)])
        got = numeric_eval(ev.J1_eval(2, 2, THREEQ), x=THREEQ, digits=25)
        assert close(got, FROZEN[("J1", 2, 2, THREEQ)])

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("p", range(4))
    def test_oracle_agreement(self, m, p):
        for x in (HALF, 1):
            if (m, p, x) == (0, 0, 1):
                continue  # genuinely divergent
            form = ev.J1_eval(m, p, x)
            got = numeric_eval(form, x=None if x == 1 else x, digits=20)
            want = oracle_value("J1", (m, p), x, digits=20)
            assert close(got, want, "1e-15"), (m, p, x)


def _bernoulli(n):
    """B_0 .. B_n as exact rationals, from sum_{j<=k} C(k+1, j) B_j = 0."""
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def _zeta_ratio(k):
    """r_k with zeta(2k) = r_k zeta(2)^k, from Euler's
    zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!) and zeta(2) = pi^2/6."""
    return (-1) ** (k + 1) * _bernoulli(2 * k)[2 * k] * 2 ** (2 * k) * 6 ** k / (
        2 * math.factorial(2 * k))


def even_zeta_rule(form):
    """form with each zeta(2k) written as r_k zeta(2)^k, summed by +."""
    out = exact.ZERO
    for term in form.terms:
        coeff, pairs = term.coeff, []
        for atom, exp in term.factors:
            if atom.kind == "Zeta" and atom.args[0] % 2 == 0:
                k = atom.args[0] // 2
                coeff *= _zeta_ratio(k) ** exp
                pairs.append((exact.zeta(2), k * exp))
            else:
                pairs.append((atom, exp))
        out = out + exact.monomial(coeff, *pairs)
    return out


class TestJAtOne:
    def test_zeta_ratios(self):
        # zeta(4) = pi^4/90, zeta(6) = pi^6/945, zeta(8) = pi^8/9450
        assert [_zeta_ratio(k) for k in (1, 2, 3, 4)] == [
            1, Fraction(36, 90), Fraction(216, 945), Fraction(1296, 9450)]

    def test_v1_v2_agree_under_the_even_zeta_rule(self):
        # the two routes spell the same value with different even-zeta
        # monomials; with every zeta(2k) rewritten as r_k zeta(2)^k they
        # must be one form
        differ_raw = 0
        for m in range(11):
            for p in range(1, 11):
                v1, v2 = ev.J_at_one_v1(m, p), ev.J_at_one_v2(m, p)
                differ_raw += v1 != v2
                assert even_zeta_rule(v1) == even_zeta_rule(v2), (m, p)
        assert differ_raw > 0

    def test_v1_base_values(self):
        assert ev.J_at_one_v1(0, 1) == num(2)
        assert ev.J_at_one_v1(1, 1) == num(Fraction(7, 4))

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("p", range(1, 3))
    def test_v1_v2_structural_at_low_order(self, m, p):
        assert ev.J_at_one_v1(m, p) == ev.J_at_one_v2(m, p)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("p", range(1, 7))
    def test_v1_v2_numeric(self, m, p):
        # from p = 3 the two spellings differ by even-zeta monomial
        # identities (zeta(2)^2 = (5/2) zeta(4), ...), so the agreement
        # check is numeric by design
        a = numeric_eval(ev.J_at_one_v1(m, p), digits=25)
        b = numeric_eval(ev.J_at_one_v2(m, p), digits=25)
        assert close(a, b, "1e-20")

    @pytest.mark.parametrize("m", range(6))
    def test_devoto_form_exact_at_p1(self, m):
        devoto = ev.J_at_one_devoto(m)
        assert ev.J_at_one_v1(m, 1) == devoto
        assert ev.J_at_one_v2(m, 1) == devoto

    def test_neg2_values(self):
        assert ev.J_eval(-2, 1, 1) == zf(2, 2)
        assert ev.J_eval(-2, 2, 1) == zf(2, 2) - zf(3)
        got = numeric_eval(ev.J_eval(-2, 2, 1), digits=25)
        assert close(got, FROZEN[("J", -2, 2, 1)])


class TestJEval:
    def test_spot_values(self):
        assert ev.J_eval(0, 1, 1) == num(2)
        assert ev.J_eval(1, 1, 1) == num(Fraction(7, 4))
        got = numeric_eval(ev.J_eval(0, 2, 2), digits=25)
        assert close(got, FROZEN[("J", 0, 2, 2)])
        got = numeric_eval(ev.J_eval(-2, 2, 2), digits=25)
        assert close(got, FROZEN[("J", -2, 2, 2)])

    @pytest.mark.parametrize("m", [-2, 0, 1, 2])
    def test_symmetry_structural(self, m):
        for p, q in [(2, 1), (3, 2), (4, 2)]:
            assert ev.J_eval(m, p, q) == ev.J_eval(m, q, p)

    @pytest.mark.parametrize("m", [-2, 0, 2])
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_oracle_agreement(self, m, p, q):
        got = numeric_eval(ev.J_eval(m, p, q), digits=20)
        want = oracle_value("J", (m, p, q), 1, digits=20)
        assert close(got, want, "1e-15"), (m, p, q)

    @pytest.mark.parametrize("m", [-2, 0, 1, 2])
    def test_output_is_zeta_and_rational_only(self, m):
        for p, q in [(1, 1), (2, 2), (3, 2), (4, 2), (5, 1)]:
            form = ev.J_eval(m, p, q)
            assert constant_only(form)
            assert not any(a.kind == "EulerSum" for a in form.atoms())

    def test_recurrence_route_numeric(self):
        for m, p, q in [(0, 2, 2), (1, 3, 2), (-2, 2, 3), (2, 2, 4)]:
            a = numeric_eval(freitas_recurrence_eval("J", m=m, p=p, q=q), digits=25)
            b = numeric_eval(ev.J_eval(m, p, q), digits=25)
            assert close(a, b, "1e-20")

    def test_rejections(self):
        with pytest.raises(ParameterError, match="m must be -2 or a nonnegative int"):
            ev.J_eval(-1, 2, 2)
        with pytest.raises(ParameterError, match="m must be -2 or a nonnegative int"):
            ev.J_eval(-3, 2, 2)
        with pytest.raises(ParameterError):
            ev.J_eval(0, 0, 2)


class TestKEval:
    def test_k101_is_minus_zeta3(self):
        assert ev.K_eval(1, 0, 1) == zf(3, -1)

    def test_frozen_values(self):
        for key, args in [
            (("K", 2, 1, 1), (2, 1, 1)),
            (("K", 1, 1, 1), (1, 1, 1)),
            (("K", 1, 2, 2), (1, 2, 2)),
        ]:
            got = numeric_eval(ev.K_eval(*args), digits=25)
            assert close(got, FROZEN[key])

    @pytest.mark.parametrize(
        "m,p,q", [(2, 1, 1), (1, 2, 1), (2, 2, 2), (4, 1, 1), (3, 2, 1), (1, 4, 1)]
    )
    def test_even_total_is_eulersum_free(self, m, p, q):
        assert (m + p + q) % 2 == 0
        form = ev.K_eval(m, p, q)
        assert not any(a.kind == "EulerSum" for a in form.atoms())

    def test_pure_weight_and_euler_sums_by_parity(self):
        # every member with m <= 7 and p, q <= 8 (560): each term has weight
        # m+p+q+1, counting Zeta(k) as k and EulerSum(p,q) as p+q, and no
        # term holds an Euler sum when m+p+q is even
        members = violations = 0
        for m in range(1, 8):
            for p in range(9):
                for q in range(9):
                    if p + q == 0:
                        continue
                    members += 1
                    for term in ev.K_eval(m, p, q).terms:
                        kinds = {atom.kind for atom, _ in term.factors}
                        weight = sum(sum(atom.args) * e for atom, e in term.factors)
                        if (not kinds <= {"Zeta", "EulerSum"} or weight != m + p + q + 1
                                or (m + p + q) % 2 == 0 and "EulerSum" in kinds):
                            violations += 1
        assert (members, violations) == (560, 0)

    def test_symmetry_structural(self):
        for m, p, q in [(1, 2, 1), (2, 3, 1), (1, 3, 2)]:
            assert ev.K_eval(m, p, q) == ev.K_eval(m, q, p)

    @pytest.mark.parametrize("m,p,q", [(1, 1, 1), (2, 2, 1), (1, 3, 2), (3, 2, 2), (5, 1, 1)])
    def test_oracle_agreement(self, m, p, q):
        got = numeric_eval(ev.K_eval(m, p, q), digits=20)
        want = oracle_value("K", (m, p, q), 1, digits=20)
        assert close(got, want, "1e-15"), (m, p, q)

    def test_recurrence_route_numeric(self):
        for r, p, q in [(2, 1, 1), (1, 2, 2), (1, 3, 1), (3, 1, 2)]:
            a = numeric_eval(freitas_recurrence_eval("K", r=r, p=p, q=q), digits=25)
            b = numeric_eval(ev.K_eval(r, p, q), digits=25)
            assert close(a, b, "1e-20")

    def test_rejections(self):
        with pytest.raises(ParameterError):
            ev.K_eval(0, 1, 1)
        with pytest.raises(ParameterError):
            ev.K_eval(1, 0, 0)
        with pytest.raises(ParameterError):
            ev.K_eval(1, -1, 2)


class TestLargeParameters:
    """Parameters far past the oracle grid, at 30 digits, against mp.quad of
    the integrand at 50 digits: a third route sharing no code with plint."""

    @pytest.mark.parametrize("name,build,x,integrand", [
        ("A(30,30,1/2)", lambda: ev.A_general(30, 30, HALF), HALF,
         lambda t: mp.log(1 - t) ** 30 / t ** 30),
        ("B(20,20,1/3)", lambda: ev.B_general(20, 20, THIRD), THIRD,
         lambda t: mp.log(1 + t) ** 20 / t ** 20),
        ("C(16,12,1/3)", lambda: ev.C_general(16, 12, THIRD), THIRD,
         lambda t: mp.log(t) ** 16 / (1 - t) ** 12),
        ("J1(10,10,1/3)", lambda: ev.J1_eval(10, 10, THIRD), THIRD,
         lambda t: mp.log(t) ** 10 * mp.polylog(10, t)),
        ("J(1,12,12)", lambda: ev.J_eval(1, 12, 12), 1,
         lambda t: t * mp.polylog(12, t) ** 2),
        ("K(1,10,10)", lambda: ev.K_eval(1, 10, 10), 1,
         lambda t: mp.log(t) * mp.polylog(10, t) ** 2 / t),
    ])
    def test_against_mp_quad(self, name, build, x, integrand):
        got = numeric_eval(build(), x=x, digits=30)
        with mp.workdps(50):
            x = Fraction(x)
            want = mp.quad(integrand, [0, mpf(x.numerator) / x.denominator])
        assert abs(got - want) <= mpf("1e-25") * abs(want), name


class TestRecurrenceRoute:
    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            freitas_recurrence_eval("L", n=1, m=1)

    def test_missing_and_extra_parameters_rejected(self):
        with pytest.raises(ParameterError):
            freitas_recurrence_eval("J0", m=1)
        with pytest.raises(ParameterError):
            freitas_recurrence_eval("J0", m=1, q=3, r=1)

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ParameterError):
            freitas_recurrence_eval("J0", m=0, q=1)
        with pytest.raises(ParameterError):
            freitas_recurrence_eval("K", r=0, p=1, q=1)
        with pytest.raises(ParameterError, match="m must be -2 or a nonnegative int"):
            freitas_recurrence_eval("J", m=-1, p=2, q=2)

    def test_long_recurrences_run_without_recursion(self):
        # 500 steps of J0 and of K: deeper than the interpreter's recursion
        # limit, so each table is filled bottom-up
        assert freitas_recurrence_eval("J0", m=0, q=500) == ev.J0_eval(0, 500)
        assert freitas_recurrence_eval("K", r=1, p=1, q=500) == ev.K_eval(1, 1, 500)


class TestContinuityAtOne:
    """The symbolic forms evaluated at 1 - 1e-6 must approach the x = 1
    fast paths.  Gaps scale like eps * log^m(eps) for the A family, so the
    tolerances are per-family, not uniform."""

    EPS = Fraction(1, 10**6)

    def gap(self, sym_form, fast_form):
        a = numeric_eval(sym_form, x=1 - self.EPS, digits=25)
        b = numeric_eval(fast_form, digits=25)
        return abs(a - b)

    def test_a_family(self):
        assert self.gap(ev.A_general(3, 1, HALF), ev.A_general(3, 1)) < mpf("0.05")
        assert self.gap(ev.A_general(4, 2, HALF), ev.A_general(4, 2)) < mpf("0.5")

    def test_b_family(self):
        assert self.gap(ev.B_general(2, 1, HALF), ev.B_general(2, 1)) < mpf("1e-4")
        assert self.gap(ev.B_general(4, 2, HALF), ev.B_general(4, 2)) < mpf("1e-4")

    def test_c_family(self):
        assert self.gap(ev.C_general(2, 1, HALF), ev.C_general(2, 1)) < mpf("1e-9")
        assert self.gap(ev.C_general(4, 2, HALF), ev.C_general(4, 2)) < mpf("1e-9")

    def test_j_family(self):
        assert self.gap(ev.J0_eval(1, 2, HALF), ev.J0_eval(1, 2)) < mpf("1e-4")
        assert self.gap(ev.J1_eval(2, 0, HALF), ev.J1_eval(2, 0)) < mpf("1e-9")
        assert self.gap(ev.J1_eval(2, 2, HALF), ev.J1_eval(2, 2)) < mpf("1e-9")


def _dumps_battery():
    """(label, form) for the fixed battery whose serialized bytes are pinned:
    A, B, C for m <= 8, n <= m and J0, J1 for m, p <= 5 at four points, J for
    m in {-2, 0, 1, 2, 3} and p + q <= 8, K for m <= 4 and 1 <= p + q <= 6."""
    points = (Fraction(1), HALF, THIRD, Fraction(9, 10))
    for x in points:
        for name, build in (("A", ev.A_general), ("B", ev.B_general),
                            ("C", ev.C_general)):
            for m in range(1, 9):
                for n in range(1, m + 1):
                    yield f"{name}({m},{n},{x})", build(m, n, x)
        for m in range(6):
            for p in range(6):
                if p >= 1:
                    yield f"J0({m},{p},{x})", ev.J0_eval(m, p, x)
                if (m, p, x) != (0, 0, 1):  # J1(0, 0, 1) diverges
                    yield f"J1({m},{p},{x})", ev.J1_eval(m, p, x)
    for m in (-2, 0, 1, 2, 3):
        for p in range(1, 8):
            for q in range(1, 9 - p):
                yield f"J({m},{p},{q})", ev.J_eval(m, p, q)
    for m in range(1, 5):
        for p in range(7):
            for q in range(7 - p):
                if p + q >= 1:
                    yield f"K({m},{p},{q})", ev.K_eval(m, p, q)


def _at_one_battery():
    """(label, form) for x = 1 forms past the four-point battery: A, B, C
    bases with m <= 30; B and C with 2 <= n <= m <= 20; J0 with m, p <= 16;
    J1 with m, p <= 10; L with n, m <= 16."""
    for name, build in (("A", ev.A_general), ("B", ev.B_general), ("C", ev.C_general)):
        for m in range(1, 31):
            yield f"{name}({m},1,1)", build(m, 1, 1)
    for name, build in (("B", ev.B_general), ("C", ev.C_general)):
        for m in range(2, 21):
            for n in range(2, m + 1):
                yield f"{name}({m},{n},1)", build(m, n, 1)
    for m in range(17):
        for p in range(1, 17):
            yield f"J0({m},{p},1)", ev.J0_eval(m, p, 1)
    for m in range(11):
        for p in range(11):
            if (m, p) != (0, 0):  # J1(0, 0, 1) diverges
                yield f"J1({m},{p},1)", ev.J1_eval(m, p, 1)
    for n in range(17):
        for m in range(17):
            yield f"L({n},{m},1)", ev.L_integral(n, m, 1)


def _ladder_battery():
    """(label, form) for the deep ladders past the other batteries: A, B, C
    at (n,n,x) for n = 2..20 and J1(k,k,x) for k = 1..10, each at x in
    {1/3, 9/10, 1}; J(1,k,k) for k = 2..16; K(1,k,k) for k = 1..8 with
    K(1,1,50) and K(1,1,100); J_at_one_v1(m,p) for m <= 12, 1 <= p <= 12."""
    for x in (THIRD, Fraction(9, 10), Fraction(1)):
        for name, build in (("A", ev.A_general), ("B", ev.B_general),
                            ("C", ev.C_general)):
            for n in range(2, 21):
                yield f"{name}({n},{n},{x})", build(n, n, x)
        for k in range(1, 11):
            yield f"J1({k},{k},{x})", ev.J1_eval(k, k, x)
    for k in range(2, 17):
        yield f"J(1,{k},{k})", ev.J_eval(1, k, k)
    for k in range(1, 9):
        yield f"K(1,{k},{k})", ev.K_eval(1, k, k)
    for q in (50, 100):
        yield f"K(1,1,{q})", ev.K_eval(1, 1, q)
    for m in range(13):
        for p in range(1, 13):
            yield f"Jv1({m},{p})", ev.J_at_one_v1(m, p)


class TestSerializedFormsArePinned:
    def test_at_one_forms_are_pinned(self):
        # sha256 of exact.dumps over the x = 1 battery: these constant forms
        # are x -> 1- limits of the symbolic forms, so a change to either the
        # forms or exact.limit shows up here
        digest = hashlib.sha256()
        count = 0
        for label, form in _at_one_battery():
            digest.update(f"{label} {exact.dumps(form)}\n".encode())
            count += 1
        assert count == 1151
        assert digest.hexdigest() == (
            "a543675d48f6f25b05e9211c999666a36b295b92bdc7e6da11612dab444ba6d6")

    def test_dumps_bytes_are_pinned(self):
        # sha256 of exact.dumps over the battery: a change that alters any
        # canonical term, coefficient or the term order shows up here
        digest = hashlib.sha256()
        count = 0
        for label, form in _dumps_battery():
            digest.update(f"{label} {exact.dumps(form)}\n".encode())
            count += 1
        assert count == 943
        assert digest.hexdigest() == (
            "8ebbcbebe50c9c0d4bd301d6383b80f852445e6c621fc36ee59a3293fca2bcf6")

    def test_compact_strings_are_pinned(self):
        # sha256 of exact.compact over the same battery: the dumps pin does
        # not see the rendering rule (spellings, powers, signs)
        digest = hashlib.sha256()
        count = 0
        for label, form in _dumps_battery():
            digest.update(f"{label} {exact.compact(form)}\n".encode())
            count += 1
        assert count == 943
        assert digest.hexdigest() == (
            "2246033c3a055cad5d5dc0e00bc2f7e45178f56ada758a3bfe3a437ade220389")

    def test_ladder_forms_are_pinned(self):
        # sha256 of exact.dumps and of exact.compact over the deep ladders,
        # taken before the builders summed into exact.Accumulator
        dumps, compact = hashlib.sha256(), hashlib.sha256()
        count = 0
        for label, form in _ladder_battery():
            dumps.update(f"{label} {exact.dumps(form)}\n".encode())
            compact.update(f"{label} {exact.compact(form)}\n".encode())
            count += 1
        assert count == 382
        assert dumps.hexdigest() == (
            "f9114a8858f0dcc9d19dc02de74090018fb2791c578ab3aa537737a0e5d7e874")
        assert compact.hexdigest() == (
            "621b4ac49996b7283ec80615b7f76a69885a0619841f9b2698e09dff7f03a793")


def _memo_id(builder, args):
    # a builder among the arguments is shown by its name
    return builder.__name__ + str(tuple(getattr(a, "__name__", a) for a in args))


@pytest.mark.parametrize("builder, args", MEMOIZED,
                         ids=[_memo_id(b, a) for b, a in MEMOIZED])
def test_memoized_builder_matches_a_fresh_build(builder, args):
    # cases share these forms, so a cached one must be the form a cold
    # build gives
    cached = builder(*args)
    assert builder(*args) is cached
    clear_caches()
    assert builder.cache_info().currsize == 0
    assert builder(*args) == cached


@pytest.mark.parametrize("build, args", [
    (ev.A_general, (5, 3)), (ev.B_general, (5, 3)), (ev.C_general, (5, 3)),
    (ev.L_integral, (2, 3)), (ev.J0_eval, (3, 4)), (ev.J1_eval, (3, 2)),
    (ev.J1_eval, (3, 0)),
], ids=lambda v: getattr(v, "__name__", None))
def test_repeat_at_one_reuses_its_limit(build, args):
    # the x -> 1- limit is kept per builder and arguments: a repeat returns
    # the same form, and it serializes as a cold build does
    first = build(*args, 1)
    assert build(*args, 1) is first
    clear_caches()
    assert exact.dumps(build(*args, 1)) == exact.dumps(first)
