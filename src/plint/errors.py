"""Exception types shared across the package, the integer and point checks
that raise them, and the domain rule of each integral family.

Kept in one module so callers can catch them without importing the
implementation modules that raise them, and so the evaluators and the
quadrature oracle check each family's domain with the same rule.  There is
one class per outcome, as the CLI maps them to exit codes: NonIntegrable
exits 3, ParameterError and NoConvergence exit 2.
"""

from __future__ import annotations

from fractions import Fraction


class PlintError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PlintError, ValueError):
    """Parameters, special-function orders or atom arguments outside the
    supported range (e.g. zeta(1))."""


class NonIntegrable(PlintError, ValueError, ArithmeticError):
    """The requested integral or value diverges: the integrand is not
    integrable on the interval, a closed form has no finite limit at its
    end, or a special-function value diverges (e.g. Li_1(1))."""


class NoConvergence(PlintError, ArithmeticError):
    """A numeric scheme ran out of its budget (levels or extra digits)
    before meeting its tolerance."""


def _require_int(name: str, value: int, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_point(name: str, value, zero_ok: bool = False) -> Fraction:
    """value as a rational x in (0, 1], or in [0, 1] where zero_ok."""
    try:
        x = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParameterError(f"{name} needs a rational value, got {value!r}") from None
    if not ((x >= 0 if zero_ok else x > 0) and x <= 1):
        bound = "[0, 1]" if zero_ok else "(0, 1]"
        raise ParameterError(f"{name} needs a value in {bound}, got {x}")
    return x


# -- the integral families' domains ---------------------------------------------
# Each rule takes the parameters and x, a point _require_point has checked, and
# raises ParameterError outside the domain, NonIntegrable where it diverges.


def _log_over_power_domain(family: str, arg: str):
    """A and B: log^m(arg)/t^n, with m, n >= 1; it diverges at 0 for n > m."""

    def rule(m: int, n: int, x: Fraction) -> None:
        _require_int("m", m, 1)
        _require_int("n", n, 1)
        if n > m:
            raise NonIntegrable(f"{family}({m},{n},x): log^{m}({arg})/t^{n} diverges at 0")

    return rule


A_domain = _log_over_power_domain("A", "1-t")
B_domain = _log_over_power_domain("B", "1+t")


def C_domain(m: int, n: int, x: Fraction) -> None:
    _require_int("m", m, 1)
    _require_int("n", n, 1)
    if x == 1 and n > m:
        raise NonIntegrable(f"C({m},{n},1): log^{m}(t)/(1-t)^{n} diverges at 1")


def J0_domain(m: int, p: int, x: Fraction) -> None:
    _require_int("m", m, 0)
    _require_int("p", p, 1)


def J1_domain(m: int, p: int, x: Fraction) -> None:
    _require_int("m", m, 0)
    _require_int("p", p, 0)
    if m == 0 and p == 0 and x == 1:
        raise NonIntegrable("J1(0,0,1): t/(1-t) diverges at 1")


def J_domain(m: int, p: int, q: int, x: Fraction = Fraction(1)) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < -2 or m == -1:
        raise ParameterError(f"m must be -2 or a nonnegative int, got {m!r}")
    _require_int("p", p, 1)
    _require_int("q", q, 1)


def K_domain(m: int, p: int, q: int, x: Fraction = Fraction(1)) -> None:
    _require_int("m", m, 1)
    _require_int("p", p, 0)
    _require_int("q", q, 0)
    if p + q < 1:
        raise ParameterError(f"K needs p + q >= 1, got p={p}, q={q}")


def power_log_domain(n: int, m: int, x: Fraction) -> None:
    """L, M and HeadLog1m: t^n times a power log^m, with n, m >= 0."""
    _require_int("n", n, 0)
    _require_int("m", m, 0)
