"""The integral families and the sums derived from them, in one table.

Each entry gives a family's parameter names, in the order the CLI takes
them and records list them, the kind of endpoint its integral has, its
closed-form evaluator and, for an integral, its integrand.  The CLI, the
verification suites and the quadrature oracle all read this table; the
oracle reads the names, endpoints and integrands, never the evaluators, so
it stays independent of them.

Endpoint kinds: UPPER integrates over [0, x], LOWER over [x, 1], and None
marks a fixed object (an integral over [0, 1] or a sum) with no x.

An integrand maps the parameters and x to the integrand's factors, whose
product the oracle integrates: (name, i) is the node value `name` to the
power i (quadrature.Level.power) and an int p is Li_p(t)
(quadrature.Level.polylog).  It raises ParameterError for a member outside
the family's domain and NonIntegrable for one whose integral diverges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import eulersums as es
from . import evaluators as ev
from .errors import NonIntegrable, ParameterError, _require_point
from .exact import ClosedForm

UPPER = "upper"
LOWER = "lower"

# a factor of an integrand: (node value name, power) or a polylog order
Factor = Union[tuple[str, int], int]


@dataclass(frozen=True)
class Family:
    params: tuple[str, ...]
    endpoint: Optional[str]
    # takes the parameters, then x unless endpoint is None; the lambdas look
    # evaluators up on their modules at call time, so a rebinding there
    # (as bench/tracing.py does) reaches every caller of this table
    evaluator: Callable[..., ClosedForm]
    # x = 0 is a member too (the empty head of the integral), on both routes
    zero_ok: bool = False
    # rows of `plint table`: "box" spans 1..max per parameter, "triangle"
    # keeps n <= m, "odd-weight" spans p + q = 3, 5, ... up to --max-weight
    rows: str = "box"
    cli: bool = True
    # takes the parameters and x and gives the integrand's factors (see
    # above); None for S and Kbase, which the oracle does not integrate
    integrand: Optional[Callable[..., tuple[Factor, ...]]] = None


# -- integrands, each checking its family's domain -----------------------------

def _log_over_power(family: str, log: str, arg: str):
    """A and B: log^m(arg)/t^n, the node value `log` being log(arg)."""

    def factors(m, n, x):
        if m < 1 or n < 1:
            raise ParameterError(f"{family} needs m >= 1, n >= 1, got m={m}, n={n}")
        if n > m:
            raise NonIntegrable(f"{family}({m},{n},x): log^{m}({arg})/t^{n} diverges at 0")
        return ((log, m), ("dm", -n))

    return factors


def _c(m, n, x):
    if m < 1 or n < 1:
        raise ParameterError(f"C needs m >= 1, n >= 1, got m={m}, n={n}")
    if x == 1 and n > m:
        raise NonIntegrable(f"C({m},{n},1): log^{m}(t)/(1-t)^{n} diverges at 1")
    return (("log_t", m), ("one_minus", -n))


def _power_log(family: str, power: str, log: str):
    """L, M and HeadLog1m: power^n log^m, n and m at least 0."""

    def factors(n, m, x):
        if n < 0 or m < 0:
            raise ParameterError(f"{family} needs n >= 0, m >= 0, got n={n}, m={m}")
        return ((power, n), (log, m))

    return factors


def _j0(m, p, x):
    if m < 0 or p < 1:
        raise ParameterError(f"J0 needs m >= 0, p >= 1, got m={m}, p={p}")
    return (("dm", m), p)


def _j1(m, p, x):
    if m < 0 or p < 0:
        raise ParameterError(f"J1 needs m >= 0, p >= 0, got m={m}, p={p}")
    if m == 0 and p == 0 and x == 1:
        raise NonIntegrable("J1(0,0,1): t/(1-t) diverges at 1")
    return (("log_t", m), p)


def _j(m, p, q, x):
    if m < -2 or m == -1:
        raise ParameterError(f"J needs m >= -2 and m != -1, got m={m}")
    if p < 1 or q < 1:
        raise ParameterError(f"J needs p >= 1, q >= 1, got p={p}, q={q}")
    return (("dm", m), p, q)


def _k(r, p, q, x):
    if r < 1:
        raise ParameterError(f"K needs r >= 1, got r={r}")
    if p < 0 or q < 0 or p + q < 1:
        raise ParameterError(f"K needs p, q >= 0 with p + q >= 1, got p={p}, q={q}")
    # Li_0(t) = t/(1-t)
    return (("log_t", r), p, q, ("dm", -1))


TABLE: dict[str, Family] = {
    "A": Family(("m", "n"), UPPER, lambda m, n, x: ev.A_general(m, n, x),
                rows="triangle", integrand=_log_over_power("A", "log1m", "1-t")),
    "B": Family(("m", "n"), UPPER, lambda m, n, x: ev.B_general(m, n, x),
                rows="triangle", integrand=_log_over_power("B", "log1p", "1+t")),
    "C": Family(("m", "n"), UPPER, lambda m, n, x: ev.C_general(m, n, x),
                rows="triangle", integrand=_c),
    "J0": Family(("m", "p"), UPPER, lambda m, p, x: ev.J0_eval(m, p, x), integrand=_j0),
    "J1": Family(("m", "p"), UPPER, lambda m, p, x: ev.J1_eval(m, p, x), integrand=_j1),
    "J": Family(("m", "p", "q"), None, lambda m, p, q: ev.J_eval(m, p, q), integrand=_j),
    "K": Family(("m", "p", "q"), None, lambda m, p, q: ev.K_eval(m, p, q), integrand=_k),
    "L": Family(("n", "m"), UPPER, lambda n, m, x: ev.L_integral(n, m, at=x),
                zero_ok=True, integrand=_power_log("L", "dm", "log_t")),
    # M reads log(1 - t) as log(dp): on [x, 1], dp = 1 - t exactly
    "M": Family(("n", "m"), LOWER, lambda n, m, x: ev.M_integral(n, m, frm=x),
                zero_ok=True, integrand=_power_log("M", "t", "log_dp")),
    "S": Family(("p", "q"), None, lambda p, q: es.reduce_S(p, q),
                rows="odd-weight"),
    "Kbase": Family(("m", "q"), None, lambda m, q: es.K_base(m, q)),
    "HeadLog1m": Family(("n", "m"), UPPER,
                        lambda n, m, x: ev.head_log1m_integral(n, m, x),
                        zero_ok=True, cli=False,
                        integrand=_power_log("HeadLog1m", "dm", "log1m")),
}


def _member(family: str, params: Sequence[int],
            x: Union[int, Fraction] = 1) -> tuple[Family, tuple[int, ...], Fraction]:
    """A family's entry, its parameters as a tuple and x as a Fraction,
    checked: a family of the table, one value per parameter name, each an
    int, x = 1 for a family with no endpoint, and otherwise a rational x in
    (0, 1], or [0, 1] where the family takes x = 0."""
    entry = TABLE.get(family)
    if entry is None:
        raise ParameterError(f"unknown family {family!r}")
    vals = tuple(params)
    if len(vals) != len(entry.params):
        raise ParameterError(f"family {family} takes ({' '.join(entry.params)}), got {vals!r}")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in vals):
        raise ParameterError(f"family {family} parameters must be ints, got {vals!r}")
    if entry.endpoint is None:
        if x != 1:
            raise ParameterError(f"family {family} is defined on [0, 1] only")
        return entry, vals, Fraction(1)
    return entry, vals, _require_point(f"x of family {family}", x, entry.zero_ok)


def closed_form(family: str, params: Sequence[int],
                x: Union[int, Fraction] = 1) -> ClosedForm:
    """The closed form of one family member; x is the endpoint, if any."""
    entry, vals, x = _member(family, params, x)
    if entry.endpoint is None:
        return entry.evaluator(*vals)
    return entry.evaluator(*vals, x)
