"""Exception types shared across the package, and the integer and point
checks that raise them.

Kept in one module so callers can catch them without importing the
implementation modules that raise them.
"""

from __future__ import annotations

from fractions import Fraction


class PlintError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PlintError, ValueError):
    """Integral or sum parameters outside the supported range."""


class UnsupportedAtom(PlintError, ValueError):
    """An algebraic operation was applied to an atom outside its domain."""


class DivergentAtOne(PlintError, ArithmeticError):
    """The x -> 1- (or x -> 0+) limit of a closed form does not exist finitely."""


class InvalidOrder(PlintError, ValueError):
    """A special-function order outside the supported range (e.g. zeta(1))."""


class DivergentValue(PlintError, ArithmeticError):
    """A pointwise special-function value diverges (e.g. Li_1(1))."""


class NonConvergent(PlintError, ArithmeticError):
    """An iterative numeric scheme failed to meet its tolerance."""


class NoConvergence(PlintError, ArithmeticError):
    """Adaptive quadrature hit its refinement cap before converging."""


class NonIntegrable(PlintError, ValueError):
    """The requested integrand is not integrable on the requested interval."""


def _require_int(name: str, value: int, minimum: int, exc=ParameterError) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise exc(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise exc(f"{name} must be >= {minimum}, got {value}")
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
