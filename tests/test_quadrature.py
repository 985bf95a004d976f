"""Tests for the tanh-sinh engine and the family integrands.

Reference values are either elementary (exact antiderivatives), classical
constants, mp.quad as a second, unrelated quadrature implementation, or,
for one stop-rule regression case, the closed form.
"""

import hashlib
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import fhalf, from_man_exp, fzero, mpf_cmp, mpf_pow_int, round_nearest

from plint import families, verification
from plint import numerics as num
from plint import quadrature as quad
from plint.errors import (DivergentAtOne, DivergentValue, NoConvergence, NonIntegrable,
                          ParameterError, PlintError)

from conftest import clear_caches


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

        def right_f(node):
            t = mp.make_mpf(node.t)
            return mp.log(1 + t) ** 2 / t

        right = quad.integrate(
            quad.IntegralSpec(Fraction(1, 2), Fraction(1), quad.pointwise(right_f)), 25)
        assert close(whole, left + right, mpf(10) ** -22)

    def test_precision_ladder(self):
        lo = quad.oracle_value("A", (3, 2), 1, 15)
        hi = quad.oracle_value("A", (3, 2), 1, 25)
        assert close(lo, hi, mpf(10) ** -13)

    def test_empty_interval(self):
        spec = quad.family_spec("M", (2, 1), 1)
        assert quad.integrate(spec, 20) == 0

    def test_no_convergence_reported(self):
        # 1/t is not integrable at 0; capped levels must refuse, not lie
        spec = quad.IntegralSpec(Fraction(0), Fraction(1),
                                 quad.pointwise(lambda node: 1 / mp.make_mpf(node.dm)))
        with pytest.raises(NoConvergence):
            quad.integrate(spec, 20, max_level=5)

    def test_error_estimate_waits_for_its_guards(self):
        # accepted on the error estimate from level 2 on, with no guard on
        # the last difference, this case stops early and is off by 2e-8
        got = quad.oracle_value("A", (5, 3), Fraction(3, 4), 20)
        want = num.numeric_eval(families.closed_form("A", (5, 3), Fraction(3, 4)),
                                Fraction(3, 4), 30)
        assert abs(got - want) < mpf(10) ** -20 * abs(want)

    def test_smooth_case_stops_on_the_error_estimate(self):
        # int_0^1 t log t dt at 20 digits: levels 0-3 hold 9 + 8 + 18 + 36
        # nodes, and level 4 would add 72
        spec = quad.family_spec("L", (1, 1), 1)
        calls = []

        def counted(level):
            calls.extend(node.t for node in level.nodes)
            return spec.integrand(level)

        got = quad.integrate(quad.IntegralSpec(spec.a, spec.b, counted), 20)
        assert len(calls) == 71
        assert close(got, Fraction(-1, 4), mpf(10) ** -20)

    def test_inverted_interval_rejected(self):
        spec = quad.IntegralSpec(Fraction(1), Fraction(0),
                                 quad.pointwise(lambda node: mp.make_mpf(node.t)))
        with pytest.raises(ParameterError):
            quad.integrate(spec, 20)

    def test_integrand_gives_one_value_per_node(self):
        # a level-0 integrand short of its last node is refused, not summed
        spec = quad.IntegralSpec(Fraction(0), Fraction(1),
                                 lambda level: [(1, 0)] * (len(level.nodes) - 1))
        with pytest.raises(ValueError):
            quad.integrate(spec, 20)

    @pytest.mark.parametrize("bad", [mp.inf, mp.nan])
    @pytest.mark.parametrize("index", [0, 3])
    def test_non_finite_level_raises(self, bad, index):
        # one node's value not finite, the centre (index 0) or one of a pair
        seen = []

        def fn(node):
            seen.append(node)
            return bad if len(seen) == index + 1 else mp.make_mpf(node.t)

        spec = quad.IntegralSpec(Fraction(0), Fraction(1), quad.pointwise(fn))
        with pytest.raises(NonIntegrable, match="not finite"):
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

    @pytest.mark.parametrize("family, params, x", [
        ("A", (3, 2), Fraction(2, 7)), ("B", (1, 1), Fraction(9, 10)),
        ("C", (2, 2), Fraction(2, 7)), ("J0", (1, 3), Fraction(1, 3)),
        ("J1", (3, 1), Fraction(2, 7)), ("L", (2, 3), Fraction(9, 10)),
        ("M", (3, 1), Fraction(2, 7)),
    ])
    def test_ambient_precision_does_not_leak_past_cold_caches(self, family, params, x):
        values = []
        for ambient in (15, 100):
            clear_caches()
            with mp.workdps(ambient):
                values.append(quad.oracle_value(family, params, x, 20)._mpf_)
        assert values[0] == values[1]

    @pytest.mark.parametrize("family, params", [("J", (1, 2, 5)), ("K", (1, 3, 0))])
    def test_one_polylog_pass_per_node(self, monkeypatch, family, params):
        # Li_p and Li_q at a node come from one kernel pass (near t = 1
        # distinct nodes share t and differ in 1 - t)
        monkeypatch.setattr(quad, "_table_cache", {})
        passes = []
        kernel = num._polylog_orders
        monkeypatch.setattr(num, "_polylog_orders",
                            lambda *args: passes.append(args[0]) or kernel(*args))
        spec = quad.family_spec(family, params, 1)
        nodes = []

        def counted(level):
            nodes.extend((node.dm, node.dp) for node in level.nodes)
            return spec.integrand(level)

        quad.integrate(quad.IntegralSpec(spec.a, spec.b, counted), 20)
        # 71 nodes: levels 0-3, stopped at level 3 on the error estimate
        assert len(set(nodes)) == len(nodes) == 71
        assert passes == [max(params[1:])] * len(nodes)

    @pytest.mark.parametrize("case, before", [
        # other families on the same interval fill the node values first
        (("HeadLog1m", (1, 2), Fraction(1, 10), 20),
         [("L", (1, 2), Fraction(1, 10), 20), ("C", (3, 2), Fraction(1, 10), 20),
          ("A", (2, 1), Fraction(1, 10), 20)]),
        (("J1", (2, 2), Fraction(9, 10), 20), [("J0", (2, 3), Fraction(9, 10), 20)]),
        (("J0", (2, 3), Fraction(9, 10), 20), [("J1", (2, 2), Fraction(9, 10), 20)]),
        (("K", (1, 3, 0), 1, 20), [("J", (1, 2, 5), 1, 20), ("C", (2, 1), 1, 20)]),
        # the same interval at another precision
        (("L", (1, 2), Fraction(1, 10), 30), [("L", (1, 2), Fraction(1, 10), 20)]),
        (("L", (1, 2), Fraction(1, 10), 20), [("L", (1, 2), Fraction(1, 10), 30)]),
        # another x: [0, x] moves b, [x, 1] moves a
        (("A", (2, 1), Fraction(1, 10), 20), [("A", (2, 1), Fraction(1, 5), 20)]),
        (("M", (1, 2), Fraction(1, 10), 20), [("M", (1, 2), Fraction(1, 5), 20)]),
    ])
    def test_node_table_does_not_depend_on_earlier_cases(self, case, before):
        # the table is keyed on (precision, level, a, b): a case must give the
        # same mpf with every cache cold as after other work filled its table
        clear_caches()
        cold = quad.oracle_value(*case)._mpf_
        clear_caches()
        for other in before:
            quad.oracle_value(*other)
        assert quad.oracle_value(*case)._mpf_ == cold

    def test_cases_on_one_interval_share_node_values(self, monkeypatch):
        clear_caches()
        x = Fraction(1, 3)
        quad.oracle_value("J0", (1, 3), x, 20)
        # J0 left Li_0..Li_3 at every node J1 visits
        passes = []
        kernel = num._polylog_orders
        monkeypatch.setattr(num, "_polylog_orders",
                            lambda *args: passes.append(args[0]) or kernel(*args))
        quad.oracle_value("J1", (2, 2), x, 20)
        assert passes == []
        # J1 left log t at every node L visits: the rules take their logs
        # from quadrature.mpf_log, and near b from mp.log1p
        logs = []
        mpf_log, log1p = quad.mpf_log, type(mp).log1p
        monkeypatch.setattr(quad, "mpf_log", lambda *args: logs.append(args) or mpf_log(*args))
        monkeypatch.setattr(type(mp), "log1p",
                            lambda ctx, *args: logs.append(args) or log1p(ctx, *args))
        quad.oracle_value("J1", (2, 2), Fraction(2, 7), 20)  # the counters see the rules
        assert logs
        logs.clear()
        # log^3 t is a new power list, so L reads log t from every node
        quad.oracle_value("L", (1, 3), x, 20)
        assert logs == []

    @pytest.mark.parametrize("digits", [20, 30, 50])
    @pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(1, 3),   # series branch
                                   Fraction(2, 3), Fraction(99, 100)])  # log branch
    def test_extended_node_run_equals_a_cold_run(self, t, digits):
        def node():
            tv = num.frac_mpf(t)._mpf_
            return quad.Node(tv, tv, num.frac_mpf(1 - t)._mpf_, fzero)

        with mp.workdps(digits + 10):
            extended = node()
            assert len(extended.polylogs(2)) == 3
            cold = node().polylogs(6)
            assert extended.polylogs(6) == cold
            assert len(cold) == 7

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_extended_log_branch_runs_make_no_log_call(self, monkeypatch, digits):
        # every node of a level with t > 1/2, its run extended in steps,
        # against the same node of a fresh level run cold; the kernel's logs
        # are libmp.mpf_log and mp.log1p
        with mp.workdps(digits + num.GUARD_DIGITS):
            steps, cold = quad._make_level(3, Fraction(0), Fraction(1)), []
            for node in quad._make_level(3, Fraction(0), Fraction(1)).nodes:
                if mpf_cmp(node.dm, fhalf) > 0:
                    cold.append(node.polylogs(9))
            nodes = [node for node in steps.nodes if mpf_cmp(node.dm, fhalf) > 0]
            for node in nodes:
                assert len(node.polylogs(2)) == 3
            logs = []
            mpf_log, log1p = num.libmp.mpf_log, type(mp).log1p
            monkeypatch.setattr(num.libmp, "mpf_log",
                                lambda *args: logs.append(args) or mpf_log(*args))
            monkeypatch.setattr(type(mp), "log1p",
                                lambda ctx, *args: logs.append(args) or log1p(ctx, *args))
            for k in (3, 6, 9):
                assert [len(node.polylogs(k)) for node in nodes] == [k + 1] * len(nodes)
            assert logs == []
            assert len(nodes) > 10 and [node.polylogs(9) for node in nodes] == cold

    def test_polylog_values_keep_their_bits(self):
        # Li_0..Li_9 at 20, 30 and 50 digits; the series steps by a shift at
        # the dyadic 3/8 and by a division at 1/3
        pins = {Fraction(3, 8): "3f020dbec4e418c0c4f65a7fe397175d3657f2a6c18b310c85f8d794dcebd34d",
                Fraction(1, 3): "495020138298a341dea269193dc96dda1729f5786724baf298fa10c437e4415a"}
        for t, pin in pins.items():
            values = []
            for digits in (20, 30, 50):
                clear_caches()
                values += [num.polylog_value(k, t, digits)._mpf_ for k in range(10)]
            assert hashlib.sha256(repr(values).encode()).hexdigest() == pin, t

    def test_extended_runs_compute_each_order_once(self, monkeypatch):
        clear_caches()
        calls = []  # (start, kmax) per kernel pass
        kernel = num._polylog_orders
        monkeypatch.setattr(num, "_polylog_orders",
                            lambda *args: calls.append((args[3], args[0])) or kernel(*args))

        def node_count():
            (levels,) = quad._table_cache.values()
            return sum(len(level.nodes) for level in levels)

        x = Fraction(1, 3)
        quad.oracle_value("J1", (2, 2), x, 20)
        assert set(calls) == {(0, 2)} and len(calls) == node_count()
        quad.oracle_value("J0", (1, 4), x, 20)
        # J0 extends J1's runs and starts its deeper nodes, if any, cold
        assert set(calls) <= {(0, 2), (3, 4), (0, 4)}
        assert sum(kmax + 1 - start for start, kmax in calls) == 5 * node_count()

    @pytest.mark.parametrize("digits", [20, 30, 40])
    def test_node_polylogs_follow_the_table_precision(self, digits):
        # a spec carries no precision of its own: integrating it at some
        # digits fills its node table with polylogs at those digits, so a
        # later oracle_value on that table gives the cold value
        x = Fraction(1, 3)
        clear_caches()
        cold = quad.oracle_value("J0", (1, 3), x, digits)._mpf_
        clear_caches()
        spec = quad.family_spec("J0", (1, 3), x)
        assert quad.integrate(spec, digits)._mpf_ == cold
        assert quad.oracle_value("J0", (1, 3), x, digits)._mpf_ == cold

    def test_oracle_cases_leave_atom_cache_empty(self):
        # node values live on the nodes only
        clear_caches()
        quad.oracle_value("J", (1, 2, 5), 1, 20)
        quad.oracle_value("J1", (2, 2), Fraction(1, 3), 20)
        assert num._atom_cache == {}

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


# the oracle's domain, as family_spec gives it: for each integral family and
# each x in (0, 1/2, 1), one outcome per member with every parameter in -2..3
# (J's m in -3..2), in itertools.product order: "s" a spec, "P" ParameterError,
# "N" NonIntegrable; a space closes each run of the last parameter
_DOMAIN_X = (Fraction(0), Fraction(1, 2), Fraction(1))
_NO_MEMBER = " ".join(["PPPPPP"] * 36)
_DOMAIN_PIN = {
    "A": ("PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP",
          "PPPPPP PPPPPP PPPPPP PPPsNN PPPssN PPPsss",
          "PPPPPP PPPPPP PPPPPP PPPsNN PPPssN PPPsss"),
    "B": ("PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP",
          "PPPPPP PPPPPP PPPPPP PPPsNN PPPssN PPPsss",
          "PPPPPP PPPPPP PPPPPP PPPsNN PPPssN PPPsss"),
    "C": ("PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP",
          "PPPPPP PPPPPP PPPPPP PPPsss PPPsss PPPsss",
          "PPPPPP PPPPPP PPPPPP PPPsNN PPPssN PPPsss"),
    "L": ("PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
          "PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
          "PPPPPP PPPPPP PPssss PPssss PPssss PPssss"),
    "M": ("PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
          "PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
          "PPPPPP PPPPPP PPssss PPssss PPssss PPssss"),
    "HeadLog1m": ("PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
                  "PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
                  "PPPPPP PPPPPP PPssss PPssss PPssss PPssss"),
    "J0": ("PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP",
           "PPPPPP PPPPPP PPPsss PPPsss PPPsss PPPsss",
           "PPPPPP PPPPPP PPPsss PPPsss PPPsss PPPsss"),
    "J1": ("PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP",
           "PPPPPP PPPPPP PPssss PPssss PPssss PPssss",
           "PPPPPP PPPPPP PPNsss PPssss PPssss PPssss"),
    "J": (_NO_MEMBER,
          _NO_MEMBER,
          "PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP "
          "PPPPPP PPPPPP PPPPPP PPPsss PPPsss PPPsss "
          "PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP "
          "PPPPPP PPPPPP PPPPPP PPPsss PPPsss PPPsss "
          "PPPPPP PPPPPP PPPPPP PPPsss PPPsss PPPsss "
          "PPPPPP PPPPPP PPPPPP PPPsss PPPsss PPPsss"),
    "K": (_NO_MEMBER,
          _NO_MEMBER,
          "PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP "
          "PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP "
          "PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP PPPPPP "
          "PPPPPP PPPPPP PPPsss PPssss PPssss PPssss "
          "PPPPPP PPPPPP PPPsss PPssss PPssss PPssss "
          "PPPPPP PPPPPP PPPsss PPssss PPssss PPssss"),
}


@pytest.mark.parametrize("family", _DOMAIN_PIN)
def test_oracle_domain_is_pinned(family):
    ranges = [range(-2, 4)] * len(families.TABLE[family].params)
    if family == "J":
        ranges[0] = range(-3, 3)
    for x, pin in zip(_DOMAIN_X, _DOMAIN_PIN[family]):
        got = []
        for params in itertools.product(*ranges):
            try:
                quad.family_spec(family, params, x)
                got.append("s")
            except ParameterError:
                got.append("P")
            except NonIntegrable:
                got.append("N")
        assert "".join(got) == pin.replace(" ", ""), (family, x)


def _exit_class(call):
    """The exit code plint eval gives when call() is its step: 0 for a
    result, 3 for a divergent request, 2 for any other refusal."""
    try:
        call()
    except (DivergentAtOne, DivergentValue, NonIntegrable):
        return 3
    except PlintError:
        return 2
    return 0


# C(m,n,x) with n > m converges for x < 1, but has no closed form
_NO_CLOSED_FORM = {("C", (1, 2)), ("C", (1, 3)), ("C", (2, 3))}


@pytest.mark.parametrize("family", _DOMAIN_PIN)
def test_routes_agree_on_the_domain(family):
    # over the pinned domain, the closed form and the oracle accept, refuse
    # or call divergent the same members
    ranges = [range(-2, 4)] * len(families.TABLE[family].params)
    if family == "J":
        ranges[0] = range(-3, 3)
    for x in _DOMAIN_X:
        for params in itertools.product(*ranges):
            closed = _exit_class(lambda: families.closed_form(family, params, x))
            oracle = _exit_class(lambda: quad.family_spec(family, params, x))
            if (family, params) in _NO_CLOSED_FORM and x == Fraction(1, 2):
                assert (closed, oracle) == (2, 0), (family, params, x)
            else:
                assert closed == oracle, (family, params, x)


# the per-node spelling of each family integrand: fn(node, prec) -> its
# exact value (man, exp) at one node, the exact product of the same factors,
# each rounded once to prec bits
_RND = round_nearest


def _pair(value):
    sign, man, exp, _ = value
    return (-man if sign else man, exp)


def _product(*values):
    man, exp = 1, 0
    for value in values:
        m, e = _pair(value)
        man, exp = man * m, exp + e
    return (man, exp)


def _pow(node, name, i, prec):
    return mpf_pow_int(getattr(node, name), i, prec, _RND)


def _ref_power_product(first, i, second, j):
    return lambda node, prec: _product(_pow(node, first, i, prec), _pow(node, second, j, prec))


def _ref_power_polylog(first, i, p):
    return lambda node, prec: _product(_pow(node, first, i, prec), node.polylogs(p)[p])


def _ref_j(m, p, q):
    def f(node, prec):
        li = node.polylogs(max(p, q))
        return _product(_pow(node, "dm", m, prec), li[p], li[q])
    return f


def _ref_k(r, p, q):
    def f(node, prec):
        li = node.polylogs(max(p, q))
        return _product(_pow(node, "log_t", r, prec), li[p], li[q],
                        _pow(node, "dm", -1, prec))
    return f


REFERENCE_INTEGRANDS = {
    "A": lambda m, n: _ref_power_product("log1m", m, "dm", -n),
    "B": lambda m, n: _ref_power_product("log1p", m, "dm", -n),
    "C": lambda m, n: _ref_power_product("log_t", m, "one_minus", -n),
    "L": lambda n, m: _ref_power_product("dm", n, "log_t", m),
    "M": lambda n, m: _ref_power_product("t", n, "log_dp", m),
    "HeadLog1m": lambda n, m: _ref_power_product("dm", n, "log1m", m),
    "J0": lambda m, p: _ref_power_polylog("dm", m, p),
    "J1": lambda m, p: _ref_power_polylog("log_t", m, p),
    "J": _ref_j,
    "K": _ref_k,
}

_POINTED = [("A", (3, 2)), ("B", (3, 2)), ("C", (2, 2)), ("L", (2, 3)),
            ("HeadLog1m", (1, 2)), ("J0", (2, 3)), ("J1", (2, 2)), ("J1", (1, 0))]


@pytest.mark.parametrize("digits", [20, 30])
@pytest.mark.parametrize("x, members", [
    (Fraction(1, 3), _POINTED),
    (Fraction(1), [("A", (3, 2)), ("B", (2, 1)), ("C", (3, 2)), ("L", (1, 2)),
                   ("HeadLog1m", (2, 1)), ("J0", (1, 3)), ("J1", (2, 2)),
                   ("J", (1, 2, 5)), ("J", (-2, 1, 1)), ("K", (1, 3, 0)),
                   ("K", (2, 1, 1)), ("K", (1, 0, 2))]),
    (Fraction(1, 4), [("M", (2, 3)), ("M", (0, 1)), ("M", (3, 0))]),
], ids=["0-1/3", "0-1", "1/4-1"])
def test_level_integrands_match_the_per_node_spelling(x, members, digits):
    # every member reads one shared level after the members before it; its
    # values must be, bit for bit, the per-node spelling's on a fresh level
    clear_caches()
    with mp.workdps(digits + 10):
        for level in range(5):
            spec = quad.family_spec(*members[0], x)
            shared = quad._make_level(level, spec.a, spec.b)
            for family, params in members:
                spec = quad.family_spec(family, params, x)
                fresh = quad._make_level(level, spec.a, spec.b)
                ref = REFERENCE_INTEGRANDS[family](*params)
                want = [ref(node, fresh.prec) for node in fresh.nodes]
                assert spec.integrand(shared) == want, (family, params, level)


# the mpmath spelling of each value rule, on mpf node values
_MPMATH_RULES = {
    "one_minus": lambda n: n.omb + n.dp if n.dp < n.dm else mp.fsub(1, n.dm, exact=True),
    "log_t": lambda n: mp.log1p(-n.one_minus) if n.dp < n.dm else mp.log(n.dm),
    "log1m": lambda n: mp.log(n.one_minus),
    "log1p": lambda n: mp.log(mp.fadd(1, n.dm, exact=True)),
    "log_dp": lambda n: mp.log(n.dp),
}


def test_node_values_match_the_mpmath_route():
    """Every raw value rule gives the bits of its mpmath spelling at every
    node of levels 0-5 on four intervals at 20, 30 and 50 digits, among
    them nodes within 1e-60 of 1, and at each precision nodes where log1p
    takes its x - x^2/2 branch."""
    assert set(quad._RULES) == {*_MPMATH_RULES, "branch"}
    within = 0
    for digits in (20, 30, 50):
        small = 0
        with mp.workdps(digits + num.GUARD_DIGITS):
            for a, b in ((0, 1), (0, Fraction(1, 10)), (0, Fraction(9, 10)), (Fraction(1, 10), 1)):
                for level in range(6):
                    for node in quad._make_level(level, Fraction(a), Fraction(b)).nodes:
                        ref = SimpleNamespace(**{name: mp.make_mpf(getattr(node, name))
                                                 for name in ("dm", "dp", "omb")})
                        ref.one_minus = _MPMATH_RULES["one_minus"](ref)
                        for name, rule in _MPMATH_RULES.items():
                            assert getattr(node, name) == rule(ref)._mpf_, (a, b, level, name)
                        within += ref.one_minus < mpf("1e-60")
                        small += ref.dp < ref.dm and mp.mag(ref.one_minus) < -(mp.prec + 10)
        assert small > 0, digits
    assert within > 0


def _fraction(pair):
    man, exp = pair
    return man * Fraction(2) ** exp


def reference_level_sum(weights, values):
    """The exact sum over one level of w_k (f_k + f'_k), the centre's term
    w_0 f_0 first when the count of values is odd, and the largest |term|."""
    terms = []
    if len(values) % 2:
        terms.append(_fraction(weights[0]) * _fraction(values[0]))
        weights, values = weights[1:], values[1:]
    terms += [_fraction(w) * (_fraction(u) + _fraction(v))
              for w, u, v in zip(weights, values[0::2], values[1::2])]
    return sum(terms), max(map(abs, terms))


# one member or more of each of the ten families
_LEVEL_SUM_CASES = [
    ("A", (3, 2), Fraction(1, 3)), ("B", (2, 1), Fraction(1)), ("C", (3, 2), Fraction(1, 10)),
    ("L", (1, 2), Fraction(1)), ("M", (2, 3), Fraction(1, 4)),
    ("HeadLog1m", (1, 2), Fraction(1, 3)), ("J0", (2, 3), Fraction(9, 10)),
    ("J1", (2, 2), Fraction(1, 3)), ("J", (1, 2, 5), Fraction(1)), ("J", (-2, 1, 1), Fraction(1)),
    ("K", (1, 0, 2), Fraction(1)), ("K", (2, 1, 1), Fraction(1))]


@pytest.mark.parametrize("digits", [20, 30])
def test_level_sums_are_within_their_bound(digits):
    """On every level integrate visits, the fixed-point level sum is within
    N units of the exact sum of its N terms, plus half an ulp of its one
    rounding: the unit is 2^(top - (prec + 2 bit_length(N) + 8)), 2^(top-1)
    at most the largest |term| < 2^top."""
    clear_caches()
    integrals = {family for family, entry in families.TABLE.items() if entry.integrand}
    assert {family for family, _, _ in _LEVEL_SUM_CASES} == integrals
    # a new integral family needs a per-node spelling too
    assert set(REFERENCE_INTEGRANDS) == integrals
    checked = []

    def check(level, values, case):
        got = quad._level_sum(level.weights, values, level.prec)
        exact, largest = reference_level_sum(level.weights, values)
        top = largest.numerator.bit_length() - largest.denominator.bit_length() + 1
        if largest < Fraction(2) ** (top - 1):
            top -= 1
        count = (len(values) + 1) // 2
        unit = Fraction(2) ** (top - (level.prec + 2 * count.bit_length() + 8))
        sign, man, exp, bc = got
        half_ulp = Fraction(2) ** (exp + bc - level.prec - 1) if man else 0
        error = abs(_fraction((-man if sign else man, exp)) - exact)
        assert error <= count * unit + half_ulp, (case, len(checked))
        checked.append(case)

    for case in _LEVEL_SUM_CASES:
        spec = quad.family_spec(*case)

        def checked_integrand(level, integrand=spec.integrand, case=case):
            values = integrand(level)
            check(level, values, case)
            return values

        quad.integrate(quad.IntegralSpec(spec.a, spec.b, checked_integrand), digits)
    assert len(checked) > 40


def test_cases_on_one_interval_share_power_lists(monkeypatch):
    # B(3,2,x) after A(3,2,x) computes log(1 + t)^3 at every node but reads
    # A's list of t^-2
    clear_caches()
    x = Fraction(1, 3)
    quad.oracle_value("A", (3, 2), x, 20)
    exponents = []
    pow_int = quad.mpf_pow_int
    monkeypatch.setattr(quad, "mpf_pow_int",
                        lambda s, n, *args: exponents.append(n) or pow_int(s, n, *args))
    quad.oracle_value("B", (3, 2), x, 20)
    assert -2 not in exponents
    assert exponents.count(3) == 71


@pytest.mark.parametrize("dps", [30, 2000])
def test_float_log10_matches_mpmath(dps):
    """The stop test's log10, read as a float from a raw libmp value
    (man, exp), is mp.log10 to 1e-12, out to exponents of +-400 and for
    mans of thousands of bits; the sign is ignored."""
    with mp.workdps(dps):
        for text in ("1", "0.5", "7", "-3.25e-17", "1e-400", "9.99e-400",
                     "2.5e399", "1e400", "-6.02e400", "1.7976931348623157e308"):
            value = mpf(text) * (1 + mp.pi * mpf(10) ** -(dps // 2))
            assert abs(quad._log10(value._mpf_) - float(mp.log10(abs(value)))) <= 1e-12, text


def test_zero_back_difference_never_stops_a_level(monkeypatch):
    """Level sums set to give the estimates 1, 1 + 2^-40, 1, 1 + 2^-40, ...:
    on level 3 the last difference, 2^-40, is settled but above tol, and
    the difference from two levels back is exactly 0, which predicts
    nothing.  The level must not stop there, nor fail; level 4 repeats
    level 3 and stops on agreement."""
    ests = [Fraction(1), 1 + Fraction(1, 2**40), Fraction(1), 1 + Fraction(1, 2**40),
            1 + Fraction(1, 2**40)]
    parts = [ests[0]] + [2**k * (ests[k] - ests[k - 1] / 2) for k in range(1, len(ests))]
    levels = []

    def fake_level_sum(weights, values, prec):
        part = parts[len(levels)]
        levels.append(len(levels))
        return from_man_exp(part.numerator, 1 - part.denominator.bit_length())

    monkeypatch.setattr(quad, "_level_sum", fake_level_sum)
    spec = quad.IntegralSpec(Fraction(0), Fraction(1),
                             lambda level: [(0, 0)] * len(level.nodes))
    value = quad.integrate(spec, 20)
    assert levels == [0, 1, 2, 3, 4]
    assert value == mpf(1) + mpf(2) ** -40


# one member of each pointed family at a point that is not dyadic; the
# oracle-grid benchmark runs the same eight at 30 digits
NON_DYADIC_CASES = (
    ("A", (2, 1), Fraction(1, 10)), ("B", (2, 1), Fraction(1, 10)),
    ("C", (3, 2), Fraction(1, 10)), ("J0", (2, 3), Fraction(9, 10)),
    ("J1", (2, 2), Fraction(1, 10)), ("L", (1, 2), Fraction(1, 10)),
    ("M", (1, 2), Fraction(1, 10)), ("HeadLog1m", (1, 2), Fraction(1, 10)))


def test_oracle_values_are_pinned():
    """Every oracle-suite case at 20 digits and NON_DYADIC_CASES at 30 give
    the same mpf, bit for bit, as when the pin was taken: the sha256 of
    repr() of the list of their `_mpf_` values."""
    jobs = [(family, params, x, 20)
            for _, family, params, x in verification.build_cases("oracle")]
    jobs += [(family, params, x, 30) for family, params, x in NON_DYADIC_CASES]
    values = [quad.oracle_value(*job)._mpf_ for job in jobs]
    assert len(values) == 839
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "311a4a10420568b0238549b47f2c533d1ed64b80512ce06056c197ddb663f3f5")


_MEMBERS = st.sampled_from(sorted(families.TABLE)).flatmap(
    lambda family: st.tuples(st.just(family), st.tuples(
        *[st.integers(1, 4)] * len(families.TABLE[family].params))))


@settings(max_examples=80, deadline=None)
@given(member=_MEMBERS,
       x=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)]))
def test_numeric_eval_does_not_depend_on_ambient_precision(member, x):
    """numeric_eval(form, x, 20) of any family member gives the same mpf
    under ambient mp.dps 15 and 100, with every cache cold both times."""
    family, params = member
    try:
        form = families.closed_form(family, params, x)
    except PlintError:
        assume(False)
    point = None if families.TABLE[family].endpoint is None else x
    values = []
    for ambient in (15, 100):
        clear_caches()
        with mp.workdps(ambient):
            values.append(num.numeric_eval(form, point, digits=20)._mpf_)
    assert values[0] == values[1]


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
