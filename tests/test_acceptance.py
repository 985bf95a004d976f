"""Acceptance gate: the eight contract-level checks, one test each.

Each test pins the tolerance and runtime budget it must meet, so a plain
``pytest -v tests/test_acceptance.py`` reads as the final pass/fail sheet
for the package.  Numeric comparisons use relative error against
max(1, |reference|), the same convention as the verification suites.
"""

import math
import time
from fractions import Fraction

import pytest
from mpmath import mp

from plint import evaluators as ev
from plint import exact
from plint.eulersums import check_prop2, harmonic_binomial_identity, reduce_S
from plint.numerics import euler_sum_value, numeric_eval
from plint.quadrature import oracle_value
from plint.verification import run_suite


@pytest.fixture(autouse=True)
def _ambient_precision():
    with mp.workdps(40):
        yield


def rel_err(value, reference):
    return abs(value - reference) / max(1, abs(reference))


def test_criterion_1_base_particular_values():
    """A(m,1,1) = C(m,1,1) = (-1)^m m! zeta(m+1) for m = 1..6, < 10 s."""
    started = time.monotonic()
    for m in range(1, 7):
        expected = exact.ClosedForm.of(
            exact.zeta(m + 1), coeff=Fraction((-1) ** m * math.factorial(m)))
        a = ev.A_general(m, 1, 1)
        c = ev.C_general(m, 1, 1)
        assert a == expected, f"A({m},1,1) is not a single zeta term"
        assert c == expected, f"C({m},1,1) is not a single zeta term"
        value = numeric_eval(a, digits=20)
        for family in ("A", "C"):
            want = oracle_value(family, (m, 1), Fraction(1), digits=20)
            assert rel_err(value, want) <= mp.mpf("1e-9"), (family, m)
    assert time.monotonic() - started < 10


def test_criterion_2_oracle_grid():
    """Every family against tanh-sinh quadrature on the standard grid, < 5 min."""
    started = time.monotonic()
    records = run_suite("oracle", tol="1e-9", grid="full")
    failing = [r for r in records if not r["pass"]]
    assert not failing, f"{len(failing)} grid points disagree: {failing[:5]}"
    assert len(records) == 831
    assert time.monotonic() - started < 300


def test_criterion_3_dual_route():
    """Recurrence route equals direct route: J0 structurally, J/K numerically.

    The recurrences are stated for q >= 2 (J0), p, q >= 2 (J) and
    p, q >= 1 (K), so the comparison runs on the intersection of the
    standard grid with those domains; outside it the recurrence bottoms
    out in the very formulas it would be checking.
    """
    for m in range(0, 5):
        for q in range(2, 6):
            direct = ev.J0_eval(m, q)
            routed = ev.freitas_recurrence_eval("J0", m=m, q=q)
            assert direct == routed, f"J0({m},{q}) differs structurally"
    tol = mp.mpf("1e-10")
    for m in (-2, 0, 1, 2):
        for p in range(2, 5):
            for q in range(2, 7 - p):
                direct = numeric_eval(ev.J_eval(m, p, q), digits=20)
                routed = numeric_eval(
                    ev.freitas_recurrence_eval("J", m=m, p=p, q=q), digits=20)
                assert rel_err(direct, routed) <= tol, ("J", m, p, q)
    for m in range(1, 7):
        for p in range(1, 8 - m):
            for q in range(1, 9 - m - p):
                direct = numeric_eval(ev.K_eval(m, p, q), digits=20)
                routed = numeric_eval(
                    ev.freitas_recurrence_eval("K", r=m, p=p, q=q), digits=20)
                assert rel_err(direct, routed) <= tol, ("K", m, p, q)


def test_criterion_4_two_formula():
    """J_at_one v1 = v2 within 1e-10 for m <= 5, p <= 6; both exactly
    the classical H^(2) form at p = 1."""
    tol = mp.mpf("1e-10")
    for m in range(0, 6):
        devoto = ev.J_at_one_devoto(m)
        assert ev.J_at_one_v1(m, 1) == devoto, f"v1({m},1) != classical form"
        assert ev.J_at_one_v2(m, 1) == devoto, f"v2({m},1) != classical form"
        for p in range(1, 7):
            v1 = numeric_eval(ev.J_at_one_v1(m, p), digits=20)
            v2 = numeric_eval(ev.J_at_one_v2(m, p), digits=20)
            assert rel_err(v1, v2) <= tol, (m, p)


def test_criterion_5_reduction_purity():
    """J_eval yields only Zeta atoms; K_eval is EulerSum-free
    whenever m+p+q is even (total <= 8).  Structural, zero tolerance."""
    for m in (-2, 0, 1, 2):
        for p in range(1, 6):
            for q in range(1, 7 - p):
                kinds = {atom.kind for atom in ev.J_eval(m, p, q).atoms()}
                assert kinds <= {"Zeta"}, (m, p, q, kinds)
    for m in range(1, 8):
        for p in range(0, 8 - m + 1):
            for q in range(0, 8 - m - p + 1):
                if p + q < 1 or (m + p + q) % 2:
                    continue
                kinds = {atom.kind for atom in ev.K_eval(m, p, q).atoms()}
                assert "EulerSum" not in kinds, (m, p, q, kinds)


def test_criterion_6_exact_identities():
    """Squared-harmonic and binomial H_{m+1} identities, exact for m <= 20, < 1 s."""
    started = time.monotonic()
    for m in range(0, 21):
        lhs, rhs = check_prop2(m)
        assert lhs == rhs, f"squared-harmonic identity fails at m={m}"
        lhs, rhs = harmonic_binomial_identity(m)
        assert lhs == rhs, f"binomial identity fails at m={m}"
    assert time.monotonic() - started < 1


def test_criterion_7_euler_gate():
    """reduce_S matches direct series summation for all odd weights <= 9,
    and S(1,2) reduces to exactly 2 zeta(3)."""
    assert reduce_S(1, 2) == exact.ClosedForm.of(exact.zeta(3), coeff=2)
    tol = mp.mpf("1e-10")
    for weight in (3, 5, 7, 9):
        for p in range(1, weight - 1):
            q = weight - p
            reduced = numeric_eval(reduce_S(p, q), digits=20)
            summed = euler_sum_value(p, q, digits=20)
            assert abs(reduced - summed) <= tol, (p, q)


def test_criterion_8_spot_values():
    """Classical spot checks: J(-2,1,1), J(0,1,1), K(1,0,1) structurally and
    numerically; the weight-2 alternating integral numerically."""
    tol = mp.mpf("1e-10")
    spots = [
        (ev.J_eval(-2, 1, 1), exact.ClosedForm.of(exact.zeta(2), coeff=2),
         "J", (-2, 1, 1)),
        (ev.J_eval(0, 1, 1), exact.ClosedForm.number(2), "J", (0, 1, 1)),
        (ev.K_eval(1, 0, 1), exact.ClosedForm.of(exact.zeta(3), coeff=-1),
         "K", (1, 0, 1)),
    ]
    for form, expected, family, params in spots:
        assert form == expected, (family, params)
        value = numeric_eval(form, digits=20)
        want = oracle_value(family, params, Fraction(1), digits=20)
        assert rel_err(value, want) <= tol, (family, params)
    half_z2 = numeric_eval(ev.B_general(1, 1), digits=20)
    want = oracle_value("B", (1, 1), Fraction(1), digits=20)
    assert rel_err(half_z2, want) <= tol
    assert rel_err(half_z2, mp.zeta(2) / 2) <= tol
