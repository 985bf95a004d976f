"""The integral families and the sums derived from them, in one table.

Each entry gives a family's parameter names, in the order the CLI takes
them and records list them, the kind of endpoint its integral has, its
closed-form evaluator and, for an integral, its integrand.  The CLI, the
verification suites and the quadrature oracle all read this table; the
oracle reads the names, endpoints and integrands, never the evaluators, so
it stays independent of them.

Endpoint kinds: UPPER integrates over [0, x], LOWER over [x, 1], and None
marks a fixed object (an integral over [0, 1] or a sum) with no x.

An integral family's row also names its domain rule (errors.py), which
raises ParameterError for a member outside the family's domain and
NonIntegrable for one whose integral diverges; the family's evaluator and
the oracle both call it.  Its integrand maps the parameters to the
integrand's factors, whose product the oracle integrates: (name, i) is the
node value `name` to the power i (quadrature.Level.power) and an int p is
Li_p(t) (quadrature.Level.polylog).  An integrand raises nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import eulersums as es
from . import evaluators as ev
from .errors import (A_domain, B_domain, C_domain, J0_domain, J1_domain, J_domain,
                     K_domain, ParameterError, _require_point, power_log_domain)
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
    # the domain rule and the integrand (see above); None for S and Kbase,
    # which the oracle does not integrate
    domain: Optional[Callable[..., None]] = None
    integrand: Optional[Callable[..., tuple[Factor, ...]]] = None


TABLE: dict[str, Family] = {
    "A": Family(("m", "n"), UPPER, lambda m, n, x: ev.A_general(m, n, x),
                rows="triangle", domain=A_domain,
                integrand=lambda m, n: (("log1m", m), ("dm", -n))),
    "B": Family(("m", "n"), UPPER, lambda m, n, x: ev.B_general(m, n, x),
                rows="triangle", domain=B_domain,
                integrand=lambda m, n: (("log1p", m), ("dm", -n))),
    "C": Family(("m", "n"), UPPER, lambda m, n, x: ev.C_general(m, n, x),
                rows="triangle", domain=C_domain,
                integrand=lambda m, n: (("log_t", m), ("one_minus", -n))),
    "J0": Family(("m", "p"), UPPER, lambda m, p, x: ev.J0_eval(m, p, x),
                 domain=J0_domain, integrand=lambda m, p: (("dm", m), p)),
    "J1": Family(("m", "p"), UPPER, lambda m, p, x: ev.J1_eval(m, p, x),
                 domain=J1_domain, integrand=lambda m, p: (("log_t", m), p)),
    "J": Family(("m", "p", "q"), None, lambda m, p, q: ev.J_eval(m, p, q),
                domain=J_domain, integrand=lambda m, p, q: (("dm", m), p, q)),
    "K": Family(("m", "p", "q"), None, lambda m, p, q: ev.K_eval(m, p, q),
                domain=K_domain,
                integrand=lambda m, p, q: (("log_t", m), p, q, ("dm", -1))),
    "L": Family(("n", "m"), UPPER, lambda n, m, x: ev.L_integral(n, m, at=x),
                zero_ok=True, domain=power_log_domain,
                integrand=lambda n, m: (("dm", n), ("log_t", m))),
    # M reads log(1 - t) as log(dp): on [x, 1], dp = 1 - t exactly
    "M": Family(("n", "m"), LOWER, lambda n, m, x: ev.M_integral(n, m, frm=x),
                zero_ok=True, domain=power_log_domain,
                integrand=lambda n, m: (("t", n), ("log_dp", m))),
    "S": Family(("p", "q"), None, lambda p, q: es.reduce_S(p, q),
                rows="odd-weight"),
    "Kbase": Family(("m", "q"), None, lambda m, q: es.K_base(m, q)),
    "HeadLog1m": Family(("n", "m"), UPPER,
                        lambda n, m, x: ev.head_log1m_integral(n, m, x),
                        zero_ok=True, cli=False, domain=power_log_domain,
                        integrand=lambda n, m: (("dm", n), ("log1m", m))),
}


def _member(family: str, params: Sequence[int],
            x: Union[int, Fraction] = 1) -> tuple[Family, tuple[int, ...], Fraction]:
    """A family's entry, its parameters as a tuple and x as a Fraction,
    checked: a family of the table, one value per parameter name, x = 1 for
    a family with no endpoint, and otherwise a rational x in (0, 1], or
    [0, 1] where the family takes x = 0."""
    entry = TABLE.get(family)
    if entry is None:
        raise ParameterError(f"unknown family {family!r}")
    vals = tuple(params)
    if len(vals) != len(entry.params):
        raise ParameterError(f"family {family} takes ({' '.join(entry.params)}), got {vals!r}")
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
