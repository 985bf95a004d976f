"""The integral families and the sums derived from them, in one table.

Each entry gives a family's parameter names, in the order the CLI takes
them and records list them, the kind of endpoint its integral has and its
closed-form evaluator.  The CLI, the verification suites and the
quadrature oracle all read this table; the oracle reads only the names and
endpoints, so it stays independent of the evaluators.

Endpoint kinds: UPPER integrates over [0, x], LOWER over [x, 1], and None
marks a fixed object (an integral over [0, 1] or a sum) with no x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import eulersums as es
from . import evaluators as ev
from .errors import ParameterError
from .exact import ClosedForm

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class Family:
    params: tuple[str, ...]
    endpoint: Optional[str]
    # takes the parameters, then x unless endpoint is None; the lambdas look
    # evaluators up on their modules at call time, so a rebinding there
    # (as bench/tracing.py does) reaches every caller of this table
    evaluator: Callable[..., ClosedForm]
    # the oracle also takes x = 0 (the empty head of the integral)
    zero_ok: bool = False
    # rows of `plint table`: "box" spans 1..max per parameter, "triangle"
    # keeps n <= m, "odd-weight" spans p + q = 3, 5, ... up to --max-weight
    rows: str = "box"
    cli: bool = True


TABLE: dict[str, Family] = {
    "A": Family(("m", "n"), UPPER, lambda m, n, x: ev.A_general(m, n, x),
                rows="triangle"),
    "B": Family(("m", "n"), UPPER, lambda m, n, x: ev.B_general(m, n, x),
                rows="triangle"),
    "C": Family(("m", "n"), UPPER, lambda m, n, x: ev.C_general(m, n, x),
                rows="triangle"),
    "J0": Family(("m", "p"), UPPER, lambda m, p, x: ev.J0_eval(m, p, x)),
    "J1": Family(("m", "p"), UPPER, lambda m, p, x: ev.J1_eval(m, p, x)),
    "J": Family(("m", "p", "q"), None, lambda m, p, q: ev.J_eval(m, p, q)),
    "K": Family(("m", "p", "q"), None, lambda m, p, q: ev.K_eval(m, p, q)),
    "L": Family(("n", "m"), UPPER, lambda n, m, x: ev.L_integral(n, m, at=x)),
    "M": Family(("n", "m"), LOWER, lambda n, m, x: ev.M_integral(n, m, frm=x),
                zero_ok=True),
    "S": Family(("p", "q"), None, lambda p, q: es.reduce_S(p, q),
                rows="odd-weight"),
    "Kbase": Family(("m", "q"), None, lambda m, q: es.K_base(m, q)),
    "HeadLog1m": Family(("n", "m"), UPPER,
                        lambda n, m, x: ev.head_log1m_integral(n, m, x),
                        zero_ok=True, cli=False),
}


def closed_form(family: str, params: Sequence[int],
                x: Union[int, Fraction] = 1) -> ClosedForm:
    """The closed form of one family member; x is the endpoint, if any."""
    entry = TABLE.get(family)
    if entry is None:
        raise ParameterError(f"no evaluator for family {family!r}")
    if entry.endpoint is None:
        return entry.evaluator(*params)
    return entry.evaluator(*params, x)
