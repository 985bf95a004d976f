"""The benchmark's workloads: seeded inputs, the op each input runs, and the
independent check of its output.

Imported only by worker.py, after plint is importable.  `make(name, seed)`
builds a workload's inputs; this is the set-up a fresh process pays before
its first op.  Each Op runs the library once (timed, under the cap) and is
checked afterwards, outside the timed region, against a route that does not
share the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mpmath import mp, mpf

# library calls go through module attributes, so traced runs see the
# wrappers that tracing.install puts there
from plint import cli, eulersums, exact, numerics, verification
from plint import evaluators as ev


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    terms: Callable[[Any], int] = lambda out: 0


@dataclass
class Workload:
    name: str
    cap_s: float  # per-op time limit, above the slowest op that passes
    ops: list[Op]


NON_DYADIC = tuple(Fraction(n, d) for n, d in
                   ((1, 10), (1, 5), (1, 3), (2, 5), (3, 5), (2, 3), (4, 5), (9, 10)))
# One member of each pointed family of the oracle grid at a non-dyadic point:
# the reproductions of the ambient-precision defect (four families at 1/10,
# J0 at 9/10, where its polylog reads 1 - t) and the rest beside them.  The
# set is fixed because the drawn members' failure paths differ in time and
# memory by more than any bound; the seed orders them among the grid.
NON_DYADIC_CASES = (
    ("A", (2, 1), Fraction(1, 10)), ("B", (2, 1), Fraction(1, 10)),
    ("C", (3, 2), Fraction(1, 10)), ("J0", (2, 3), Fraction(9, 10)),
    ("J1", (2, 2), Fraction(1, 10)), ("L", (1, 2), Fraction(1, 10)),
    ("M", (1, 2), Fraction(1, 10)), ("HeadLog1m", (1, 2), Fraction(1, 10)))
DYADIC = tuple(Fraction(n, 8) for n in range(1, 8))


def _x_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _name(family: str, params, x) -> str:
    return f"{family}({','.join(str(p) for p in params)},{_x_text(Fraction(x))})"


# -- oracle-grid --------------------------------------------------------------


def oracle_grid(seed: int) -> Workload:
    """run_case on every shipped full-grid oracle case at 20 digits and on
    NON_DYADIC_CASES at 30 digits, in seeded order."""
    rng = random.Random(seed)
    jobs = [(case, 20) for case in verification.build_cases("oracle")]
    jobs += [(("oracle", family, params, x), 30)
             for family, params, x in NON_DYADIC_CASES]
    rng.shuffle(jobs)
    # the slowest passing op takes about 0.6 s; 5 s also lets the failing
    # cases that stop on their own (NoConvergence) do so, so the work and the
    # memory of a failure do not depend on how fast the host ran
    return Workload("oracle-grid", 5.0, [
        Op(f"{_name(case[1], case[2], case[3])}@{digits}",
           lambda case=case, digits=digits: verification.run_case(case, digits=digits),
           lambda record: record["pass"] is True)
        for case, digits in jobs])


# -- symbolic-deep --------------------------------------------------------------


def _pointed_integrand(family: str, n: int):
    if family == "A":
        return lambda t: mp.log(1 - t) ** n / t ** n
    if family == "B":
        return lambda t: mp.log(1 + t) ** n / t ** n
    if family == "C":
        return lambda t: mp.log(t) ** n / (1 - t) ** n
    if family == "J1":
        return lambda t: mp.log(t) ** n * mp.polylog(n, t)
    if family == "J":
        return lambda t: t * mp.polylog(n, t) ** 2
    return lambda t: mp.log(t) * mp.polylog(n, t) ** 2 / t  # K


def _deep_check(family: str, n: int, x: Fraction):
    """Value against mp.quad of the integrand (mpmath only); J and K forms
    also structurally against freitas_recurrence_eval."""

    def check(out) -> bool:
        form, value = out
        if family == "J" and form != ev.freitas_recurrence_eval("J", m=1, p=n, q=n):
            return False
        if family == "K" and form != ev.freitas_recurrence_eval("K", r=1, p=n, q=n):
            return False
        with mp.workdps(45):
            want = mp.quad(_pointed_integrand(family, n),
                           [0, mpf(x.numerator) / x.denominator])
            return abs(value - want) <= mpf(10) ** -20 * max(1, abs(want))

    return check


def _deep_run(family: str, n: int, x: Fraction):
    def run():
        if family == "A":
            form = ev.A_general(n, n, x)
        elif family == "C":
            form = ev.C_general(n, n, x)
        elif family == "B":
            form = ev.B_general(n, n, x)
        elif family == "J":
            form = ev.J_eval(1, n, n)
        elif family == "K":
            form = ev.K_eval(1, n, n)
        else:
            form = ev.J1_eval(n, n, x)
        return form, numerics.numeric_eval(form, x=None if x == 1 else x, digits=30)

    return run


def symbolic_deep(seed: int) -> Workload:
    """Build-then-evaluate ladders with no quadrature: A(n,n,x), C(n,n,x),
    B(n,n,1) for n = 4..10, J(1,k,k) for k = 3..8, K(1,k,k) for k = 3..6,
    J1(k,k,x) for k = 4..6; x and the order are seeded."""
    rng = random.Random(seed)
    ladders = ([("A", n) for n in range(4, 11)], [("C", n) for n in range(4, 11)],
               [("B", n) for n in range(4, 11)], [("J", k) for k in range(3, 9)],
               [("K", k) for k in range(3, 7)], [("J1", k) for k in range(4, 7)])
    ops = []
    for ladder in ladders:
        # points drawn without replacement, so each ladder mixes both halves
        # of (0, 1) and both kinds of point
        xs = rng.sample(DYADIC + NON_DYADIC, len(ladder))
        for (family, n), x in zip(ladder, xs):
            if family in ("A", "C", "J1"):
                name = _name(family, (n, n), x)
            else:
                x = Fraction(1)
                name = f"B({n},{n},1)" if family == "B" else f"{family}(1,{n},{n})"
            ops.append(Op(name, _deep_run(family, n, x), _deep_check(family, n, x),
                          lambda out: len(out[0].terms)))
    rng.shuffle(ops)
    return Workload("symbolic-deep", 10.0, ops)


# -- atoms-hiprec ---------------------------------------------------------------

ATOM_DIGITS = (100, 250)
ATOM_REPEATS = 5


def _classical_euler_sum(p: int, q: int) -> mpf:
    """S(p,q) from Euler's reductions (weight 4 and 6, and p = q)."""
    z = mp.zeta
    if p == q:
        return (z(p) ** 2 + z(2 * p)) / 2
    if (p, q) == (2, 4):
        return z(3) ** 2 - z(6) / 3
    if (p, q) == (4, 2):
        return mpf(37) / 12 * z(6) - z(3) ** 2
    raise ValueError(f"no classical reduction for S({p},{q})")


def _reducible(form: exact.ClosedForm) -> bool:
    for atom in form.atoms():
        if atom.kind == "EulerSum":
            p, q = atom.args
            if p != q and (p, q) not in ((2, 4), (4, 2)):
                return False
    return True


def mpmath_value(form: exact.ClosedForm, digits: int) -> mpf:
    """A constant form evaluated with mpmath's own zeta and polylog."""
    with mp.workdps(digits + 20):
        total = mpf(0)
        for term in form.terms:
            val = mpf(term.coeff.numerator) / term.coeff.denominator
            for atom, power in term.factors:
                kind, args = atom.kind, atom.args
                if kind == "Zeta":
                    a = mp.zeta(args[0])
                elif kind == "LogTwo":
                    a = mp.log(2)
                elif kind == "LiAtHalf":
                    a = mp.polylog(args[0], mpf(1) / 2)
                elif kind == "Harmonic":
                    h = sum(Fraction(1, k ** args[1]) for k in range(1, args[0] + 1))
                    a = mpf(h.numerator) / h.denominator
                elif kind == "EulerSum":
                    a = _classical_euler_sum(*args)
                else:
                    raise ValueError(f"not a constant atom: {atom!r}")
                val *= a ** power
            total += val
        return total


def _atom_forms() -> list[tuple[str, exact.ClosedForm]]:
    forms = [(f"S({p},{w - p})", eulersums.reduce_S(p, w - p))
             for w in range(3, 10, 2) for p in range(1, w - 1)]
    forms += [(f"Kbase({m},{q})", eulersums.K_base(m, q))
              for m in range(1, 5) for q in range(1, 6)]
    forms += [(f"B({m},1,1)", ev.B_general(m, 1, 1)) for m in range(1, 7)]
    forms += [(f"J({m},{p},{q})", ev.J_eval(m, p, q))
              for m in (0, 1) for p in range(1, 5) for q in range(1, p + 1)
              if p + q <= 5]
    forms += [(f"K({m},{p},{q})", ev.K_eval(m, p, q))
              for m in range(1, 5) for p in range(1, 5) for q in range(1, p + 1)
              if m + p + q <= 6]
    # only forms whose Euler sums have a classical reduction can be checked
    # against mpmath alone
    return [(name, form) for name, form in forms if _reducible(form)]


def _atom_check(form: exact.ClosedForm, digits: int):
    def check(value) -> bool:
        want = mpmath_value(form, digits)
        with mp.workdps(digits + 20):
            return abs(value - want) <= mpf(10) ** (5 - digits) * max(1, abs(want))

    return check


def atoms_hiprec(seed: int) -> Workload:
    """numeric_eval at 100 and 250 digits of prebuilt constant forms (Euler
    sum table, K base table, B(m,1,1), small J and K at one), each repeated
    ATOM_REPEATS times in seeded order, so most ops hit the atom caches."""
    rng = random.Random(seed)
    jobs = [(name, form, digits) for name, form in _atom_forms()
            for digits in ATOM_DIGITS] * ATOM_REPEATS
    rng.shuffle(jobs)
    return Workload("atoms-hiprec", 10.0, [
        Op(f"{name}@{digits}",
           lambda form=form, digits=digits: numerics.numeric_eval(form, digits=digits),
           _atom_check(form, digits))
        for name, form, digits in jobs])


# -- verify-pool ------------------------------------------------------------------

VERIFY_ARGV = ["verify", "--suite", "all", "--jobs", "2"]


def _verify_run():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(VERIFY_ARGV)
    return code, sink.getvalue()


def _verify_check(out) -> bool:
    code, text = out
    records = json.loads(text)
    return (code == 0 and len(records) == len(verification.build_cases("all"))
            and all(r["pass"] is True for r in records))


def verify_pool(seed: int) -> Workload:
    """`plint verify --suite all --jobs 2`, the only path through the process
    pool; the shipped suite takes no seed."""
    return Workload("verify-pool", 120.0,
                    [Op("verify --suite all --jobs 2", _verify_run, _verify_check)])


WORKLOADS = {
    "oracle-grid": oracle_grid,
    "symbolic-deep": symbolic_deep,
    "atoms-hiprec": atoms_hiprec,
    "verify-pool": verify_pool,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
