"""Verification suites: every closed form checked against an independent route.

Five suites, each producing JSON-ready records with a uniform shape:

* oracle      - closed forms vs tanh-sinh quadrature over the standard grid
* dual-route  - recurrence evaluation vs direct theorem evaluation (J0 also
                compared structurally, not just numerically)
* two-formula - the two J(m,p,1) formulas against each other, and both
                against the classical H^(2) form at p = 1 (exact rationals)
* identities  - the squared-harmonic identity and the binomial H_{m+1}
                identity as exact rational equalities
* euler       - reduced odd-weight Euler sums vs direct series summation

Closed forms of the integral families come from the family table
(families.TABLE), the same one the CLI and the oracle read.

A record is {"spec": {"family", "params", "x"}, "symbolic", "value",
"oracle", "rel_err", "pass"}; "oracle" always holds the independent route's
number, whatever that route is.  Records are sorted by spec key before
emission so --jobs never changes the output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Union

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

Tol = Union[str, float]

_X_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

# A case is plain data so it pickles cheaply into worker processes:
# (suite, family, params, x) with x a Fraction (1 for at-one families).
Case = tuple[str, str, tuple[int, ...], Fraction]


def _x_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return str(float(x))


def format_value(v: mpf) -> str:
    """Render a numeric value with ten decimal places, round half to even."""
    with mp.workdps(25):
        text = mp.nstr(v, 20)
    d = Decimal(text)
    with localcontext() as ctx:
        # room for every integer digit plus the ten decimals
        ctx.prec = max(ctx.prec, d.adjusted() + 11)
        d = d.quantize(Decimal("1e-10"), rounding=ROUND_HALF_EVEN)
    if d == 0:
        return "0.0000000000"
    return str(d)


def _fmt_err(e: mpf) -> str:
    if e == 0:
        return "0"
    return f"{float(e):.0e}"


def _record(family: str, params: tuple[int, ...], x: Fraction, symbolic: str,
            value: mpf, other: mpf, tol: mpf, structural_ok: bool = True) -> dict:
    err = abs(value - other) / max(1, abs(other))
    return {
        "spec": {"family": family, "params": list(params), "x": _x_str(x)},
        "symbolic": symbolic,
        "value": format_value(value),
        "oracle": format_value(other),
        "rel_err": _fmt_err(err),
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


def _numeric(form, x: Fraction, digits: int) -> mpf:
    feed = None if x == 1 else x
    return numeric_eval(form, x=feed, digits=digits)


def run_case(case: Case, tol: Tol = "1e-9", digits: int = DEFAULT_DIGITS) -> dict:
    suite, family, params, x = case
    tol = mpf(str(tol))
    if suite == "oracle":
        form = closed_form(family, params, x)
        value = _numeric(form, x, digits)
        want = oracle_value(family, params, x, digits)
        return _record(family, params, x, exact.compact(form), value, want, tol)
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
        structural = direct == other if family == "J0" else True
        value = _numeric(direct, x, digits)
        want = _numeric(other, x, digits)
        return _record(family, params, x, exact.compact(direct), value, want,
                       tol, structural_ok=structural)
    if suite == "two-formula":
        m, p = params
        v1 = ev.J_at_one_v1(m, p)
        v2 = ev.J_at_one_v2(m, p)
        structural = True
        if p == 1:
            devoto = ev.J_at_one_devoto(m)
            structural = v1 == devoto and v2 == devoto
        value = _numeric(v1, x, digits)
        want = _numeric(v2, x, digits)
        return _record(family, params, x, exact.compact(v1), value, want,
                       tol, structural_ok=structural)
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
                       structural_ok=lhs == rhs)
    if suite == "euler":
        p, q = params
        form = reduce_S(p, q)
        value = _numeric(form, x, digits)
        want = euler_sum_value(p, q, digits)
        structural = True
        if (p, q) == (1, 2):
            structural = form == exact.ClosedForm.of(exact.zeta(3), coeff=2)
        return _record(family, params, x, exact.compact(form), value, want,
                       tol, structural_ok=structural)
    raise ParameterError(f"unknown suite {suite!r}")


def _run_case_guarded(case: Case, tol: Tol, digits: int) -> dict:
    try:
        return run_case(case, tol, digits)
    except Exception as exc:  # a crashed case must fail the report, not kill it
        suite, family, params, x = case
        return {
            "spec": {"family": family, "params": list(params), "x": _x_str(x)},
            "symbolic": f"error: {exc}",
            "value": "nan",
            "oracle": "nan",
            "rel_err": "inf",
            "pass": False,
        }


def _sort_key(record: dict):
    spec = record["spec"]
    return (spec["family"], spec["params"], spec["x"])


def run_suite(suite: str, tol: Tol = "1e-9", grid: str = "full",
              digits: int = DEFAULT_DIGITS, jobs: int = 1) -> list[dict]:
    """Run one suite (or 'all') and return its sorted records."""
    cases = build_cases(suite, grid)
    if jobs > 1:
        # processes, not threads: the numeric substrate keeps global
        # precision state that must not be shared
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_case_runner, [(c, str(tol), digits) for c in cases],
                                    chunksize=8))
    else:
        records = [_run_case_guarded(c, tol, digits) for c in cases]
    return sorted(records, key=_sort_key)


def _case_runner(packed: tuple[Case, str, int]) -> dict:
    case, tol, digits = packed
    return _run_case_guarded(case, tol, digits)


def all_passed(records: Iterable[dict]) -> bool:
    return all(r["pass"] for r in records)
