"""Verification suites: every closed form checked against an independent route.

Five suites, each producing JSON-ready records with a uniform shape:

* oracle      - closed forms vs tanh-sinh quadrature over the standard grid
* dual-route  - recurrence evaluation vs direct theorem evaluation for J0, J
                and K, compared structurally as well as numerically
* two-formula - the two J(m,p,1) formulas against each other, and both
                against the classical H^(2) form at p = 1 (exact rationals)
* identities  - the squared-harmonic identity and the binomial H_{m+1}
                identity as exact rational equalities
* euler       - reduced odd-weight Euler sums vs direct series summation

Closed forms of the integral families come from the family table
(families.TABLE), the same one the CLI and the oracle read.

A record is {"spec": {"family", "params", "x"}, "symbolic", "value",
"oracle", "rel_err", "pass"}; "oracle" always holds the independent route's
number, whatever that route is.  A record passes when its relative error is
at most the tolerance, 10^-digits unless one is given.  "rel_err" prints
any error below 10^-digits as "<1e-{digits}", zero included: digits past
the asked-for precision are rounding noise of the numeric routes, so they
stay off stdout.  Only the identities suite, whose two sides are exact
rationals, prints an exact agreement as "0".  Records are sorted by spec
key before emission so --jobs never changes the output.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal,
                     InvalidOperation, localcontext)
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional, Union

from mpmath import mp, mpf

from . import evaluators as ev
from . import exact
from .errors import ParameterError
from .eulersums import check_prop2, harmonic_binomial_identity, reduce_S
from .families import closed_form
from .numerics import euler_sum_value, numeric_eval
from .quadrature import oracle_value

SUITES = ("oracle", "dual-route", "two-formula", "identities", "euler", "all")
DEFAULT_DIGITS = 20

# None means the default, 10^-digits
Tol = Optional[Union[str, float]]

_X_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

# A case is plain data so it pickles cheaply into worker processes:
# (suite, family, params, x) with x a Fraction (1 for at-one families).
Case = tuple[str, str, tuple[int, ...], Fraction]


# format_value's decimal context, whatever the caller's: room for every digit
# at any exponent, and only an invalid operation (an infinite value) raises
_DECIMAL = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX,
                   Emin=MIN_EMIN, traps=[InvalidOperation])
_TEN_DECIMALS = Decimal("1e-10")


def format_value(v: mpf) -> str:
    """Render a numeric value with ten decimal places, round half to even;
    a nonzero value that rounds to zero gets ten significant digits in
    exponent form instead (1.890413649e-11).  The text depends on neither
    the ambient mpmath precision nor the caller's decimal context."""
    unrounded = Decimal(mp.nstr(v, 20))  # nstr reads only v, not mp.prec
    d = unrounded.quantize(_TEN_DECIMALS, context=_DECIMAL)
    if d == 0 and unrounded != 0:
        with localcontext(_DECIMAL):  # format rounds in the current context
            return format(unrounded, ".9e")
    # str() would switch to exponent form below 1e-6
    return format(d, "f")


@lru_cache(maxsize=None)
def _ten_to_minus(digits: int, prec: int) -> mpf:
    """10^-digits as mpf parses it at the ambient precision prec (bits)."""
    return mpf(f"1e-{digits}")


def _fmt_err(e: mpf, digits: Optional[int]) -> str:
    if digits is not None and e < _ten_to_minus(digits, mp.prec):
        return f"<1e-{digits}"
    if e == 0:
        return "0"
    return f"{float(e):.0e}"


def format_point(x: Fraction) -> str:
    """x as records and `plint eval --format json` spell it: an int as an
    int, any other rational as a float."""
    return str(x.numerator) if x.denominator == 1 else str(float(x))


def _spec(family: str, params: tuple[int, ...], x: Fraction) -> dict:
    """The spec of a record, normal or error."""
    return {"family": family, "params": list(params), "x": format_point(x)}


def _record(family: str, params: tuple[int, ...], x: Fraction, symbolic: str,
            value: mpf, other: mpf, tol: mpf, digits: Optional[int],
            structural_ok: bool = True) -> dict:
    """One record; `digits` is the precision of the numeric routes, below
    which rel_err prints as "<1e-{digits}", or None when both sides are
    exact rationals."""
    err = abs(value - other) / max(1, abs(other))
    return {
        "spec": _spec(family, params, x),
        "symbolic": symbolic,
        "value": format_value(value),
        "oracle": format_value(other),
        "rel_err": _fmt_err(err, digits),
        "pass": bool(structural_ok and err <= tol),
    }


# -- grids --------------------------------------------------------------------------


def _abc_tuples(m_max: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(1, m_max + 1) for n in range(1, m + 1)]


def _j_tuples(weight_max: int) -> list[tuple[int, int, int]]:
    out = []
    for m in (-2, 0, 1, 2):
        for p in range(1, weight_max):
            for q in range(1, weight_max + 1 - p):
                out.append((m, p, q))
    return out


def _k_tuples(total_max: int) -> list[tuple[int, int, int]]:
    out = []
    for m in range(1, total_max - 1 + 1):
        for p in range(0, total_max - m + 1):
            for q in range(0, total_max - m - p + 1):
                if p + q >= 1:
                    out.append((m, p, q))
    return out


def _oracle_cases(grid: str) -> list[Case]:
    if grid == "full":
        abc_max, j01_max, j_weight, k_total, lm_max = 5, 4, 6, 8, 4
        xs = _X_GRID
    else:
        abc_max, j01_max, j_weight, k_total, lm_max = 3, 2, 4, 5, 2
        xs = (Fraction(1, 2), Fraction(1))
    cases: list[Case] = []
    for fam in ("A", "B", "C"):
        for m, n in _abc_tuples(abc_max):
            for x in xs:
                cases.append(("oracle", fam, (m, n), x))
    for m in range(0, j01_max + 1):
        for p in range(1, j01_max + 1):
            for x in xs:
                cases.append(("oracle", "J0", (m, p), x))
    for m in range(0, j01_max + 1):
        for p in range(0, j01_max + 1):
            for x in xs:
                if (m, p) == (0, 0) and x == 1:
                    continue  # t/(1-t) diverges at 1
                cases.append(("oracle", "J1", (m, p), x))
    for tup in _j_tuples(j_weight):
        cases.append(("oracle", "J", tup, Fraction(1)))
    for tup in _k_tuples(k_total):
        cases.append(("oracle", "K", tup, Fraction(1)))
    for fam in ("L", "M", "HeadLog1m"):
        for n in range(0, lm_max + 1):
            for m in range(0, lm_max + 1):
                for x in xs:
                    cases.append(("oracle", fam, (n, m), x))
    return cases


def _dual_route_cases(grid: str) -> list[Case]:
    cases: list[Case] = []
    j0_m, j0_q = (4, 5) if grid == "full" else (2, 3)
    for m in range(0, j0_m + 1):
        for q in range(2, j0_q + 1):
            cases.append(("dual-route", "J0", (m, q), Fraction(1)))
    # shared domain with the recurrences: p, q >= 2 for J; p, q >= 1 for K
    weight = 6 if grid == "full" else 4
    total = 8 if grid == "full" else 5
    for m, p, q in _j_tuples(weight):
        if p >= 2 and q >= 2:
            cases.append(("dual-route", "J", (m, p, q), Fraction(1)))
    for m, p, q in _k_tuples(total):
        if p >= 1 and q >= 1:
            cases.append(("dual-route", "K", (m, p, q), Fraction(1)))
    return cases


def _two_formula_cases(grid: str) -> list[Case]:
    m_max, p_max = (5, 6) if grid == "full" else (3, 4)
    return [
        ("two-formula", "Jv1v2", (m, p), Fraction(1))
        for m in range(0, m_max + 1)
        for p in range(1, p_max + 1)
    ]


def _identity_cases(grid: str) -> list[Case]:
    m_max = 20 if grid == "full" else 8
    cases: list[Case] = []
    for m in range(0, m_max + 1):
        cases.append(("identities", "SquaredHarmonic", (m,), Fraction(1)))
        cases.append(("identities", "HarmonicBinomial", (m,), Fraction(1)))
    return cases


def _euler_cases(grid: str) -> list[Case]:
    w_max = 9 if grid == "full" else 7
    cases: list[Case] = []
    for w in range(3, w_max + 1, 2):
        for p in range(1, w - 1):
            q = w - p
            if q >= 2:
                cases.append(("euler", "S", (p, q), Fraction(1)))
    return cases


_BUILDERS = {
    "oracle": _oracle_cases,
    "dual-route": _dual_route_cases,
    "two-formula": _two_formula_cases,
    "identities": _identity_cases,
    "euler": _euler_cases,
}


def build_cases(suite: str, grid: str = "full") -> list[Case]:
    if grid not in ("small", "full"):
        raise ParameterError(f"grid must be 'small' or 'full', got {grid!r}")
    if suite == "all":
        out: list[Case] = []
        for name in SUITES[:-1]:
            out.extend(_BUILDERS[name](grid))
        return out
    if suite not in _BUILDERS:
        raise ParameterError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _BUILDERS[suite](grid)


# -- per-case execution --------------------------------------------------------------


def run_case(case: Case, tol: Tol = None, digits: int = DEFAULT_DIGITS) -> dict:
    suite, family, params, x = case
    tol = _ten_to_minus(digits, mp.prec) if tol is None else mpf(str(tol))
    if suite == "oracle":
        form = closed_form(family, params, x)
        value = numeric_eval(form, x, digits)
        want = oracle_value(family, params, x, digits)
        return _record(family, params, x, exact.compact(form), value, want,
                       tol, digits)
    if suite == "dual-route":
        direct = closed_form(family, params)
        if family == "J0":
            other = ev.freitas_recurrence_eval("J0", m=params[0], q=params[1])
        elif family == "J":
            other = ev.freitas_recurrence_eval(
                "J", m=params[0], p=params[1], q=params[2])
        else:
            other = ev.freitas_recurrence_eval(
                "K", r=params[0], p=params[1], q=params[2])
        structural = direct == other
        value = numeric_eval(direct, x, digits)
        want = numeric_eval(other, x, digits)
        return _record(family, params, x, exact.compact(direct), value, want,
                       tol, digits, structural_ok=structural)
    if suite == "two-formula":
        m, p = params
        v1 = ev.J_at_one_v1(m, p)
        v2 = ev.J_at_one_v2(m, p)
        structural = True
        if p == 1:
            devoto = ev.J_at_one_devoto(m)
            structural = v1 == devoto and v2 == devoto
        value = numeric_eval(v1, x, digits)
        want = numeric_eval(v2, x, digits)
        return _record(family, params, x, exact.compact(v1), value, want,
                       tol, digits, structural_ok=structural)
    if suite == "identities":
        m = params[0]
        if family == "SquaredHarmonic":
            lhs, rhs = check_prop2(m)
        else:
            lhs, rhs = harmonic_binomial_identity(m)
        with mp.workdps(digits):
            value = mpf(lhs.numerator) / lhs.denominator
            want = mpf(rhs.numerator) / rhs.denominator
        return _record(family, params, x, str(lhs), value, want, tol,
                       None, structural_ok=lhs == rhs)
    if suite == "euler":
        p, q = params
        form = reduce_S(p, q)
        value = numeric_eval(form, x, digits)
        want = euler_sum_value(p, q, digits)
        structural = True
        if (p, q) == (1, 2):
            structural = form == exact.ClosedForm.of(exact.zeta(3), coeff=2)
        return _record(family, params, x, exact.compact(form), value, want,
                       tol, digits, structural_ok=structural)
    raise ParameterError(f"unknown suite {suite!r}")


def _run_case_guarded(case: Case, tol: Tol, digits: int) -> dict:
    try:
        return run_case(case, tol, digits)
    except Exception as exc:  # a crashed case must fail the report, not kill it
        suite, family, params, x = case
        return {
            "spec": _spec(family, params, x),
            "symbolic": f"error: {exc}",
            "value": "nan",
            "oracle": "nan",
            "rel_err": "inf",
            "pass": False,
        }


def _sort_key(record: dict):
    spec = record["spec"]
    return (spec["family"], spec["params"], spec["x"])


def run_suite(suite: str, tol: Tol = None, grid: str = "full",
              digits: int = DEFAULT_DIGITS, jobs: int = 1) -> list[dict]:
    """Run one suite (or 'all') and return its sorted records."""
    cases = build_cases(suite, grid)
    if jobs > 1:
        # processes, not threads: the numeric substrate keeps global
        # precision state that must not be shared; imported here, as only a
        # pool needs it and it is a sizeable part of `import plint`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_case_guarded, cases, repeat(tol), repeat(digits),
                                    chunksize=8))
    else:
        records = [_run_case_guarded(c, tol, digits) for c in cases]
    return sorted(records, key=_sort_key)


def all_passed(records: Iterable[dict]) -> bool:
    return all(r["pass"] for r in records)
