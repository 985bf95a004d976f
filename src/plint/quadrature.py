"""Independent numeric route: tanh-sinh quadrature for the integral families.

The engine substitutes t = tanh((pi/2) sinh(u)) and applies the trapezoid
rule in u, halving the step per level and reusing previous nodes.  Node
positions are stored as distances to both interval endpoints, computed
directly from exp(2s) rather than by subtraction, so integrands see the
distance to an endpoint at full relative accuracy even when it is far
below the working epsilon.  That is what lets log(1-t) and Li_k(t) be
evaluated honestly at nodes within 1e-60 of 1.

Integrands receive (t, t - a, b - t) and must use the distance arguments
near the endpoints.  Each family's parameter names and endpoint kind come
from the family table (families.TABLE); this module adds one integrand
builder per family.  Nothing here calls the closed-form evaluators; it
exists to check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from mpmath import mp, mpf

from .errors import NoConvergence, NonIntegrable, ParameterError
from .families import LOWER, TABLE
from .numerics import frac_mpf, polylog_value

Number = Union[int, Fraction]
Integrand = Callable[[mpf, mpf, mpf], mpf]

MAX_LEVEL = 12


@dataclass(frozen=True)
class IntegralSpec:
    """An integral over [a, b] of integrand(t, t - a, b - t)."""

    a: Fraction
    b: Fraction
    integrand: Integrand


# (mp.prec, level) -> [(sigma, 1 - sigma, unit weight), ...] with sigma the
# node position on [0, 1]; level 0 holds k = 0, 1, 2, ..., higher levels the
# new (odd) nodes.  Both sigma and 1 - sigma come straight from exp(2s).
_node_cache: dict[tuple[int, int], list[tuple[mpf, mpf, mpf]]] = {}


def _level_nodes(level: int) -> list[tuple[mpf, mpf, mpf]]:
    key = (mp.prec, level)
    nodes = _node_cache.get(key)
    if nodes is not None:
        return nodes
    # nodes beyond kh_max sit closer than ~10^(-2 dps) to an endpoint and
    # cannot contribute at this precision
    kh_max = math.asinh(2.0 * mp.dps * math.log(10.0) / math.pi)
    kmax = max(4, int(kh_max * 2**level))
    ks = range(0, kmax + 1) if level == 0 else range(1, kmax + 1, 2)
    h = mpf(2) ** (-level)
    half_pi = mp.pi / 2
    nodes = []
    for k in ks:
        u = k * h
        e2s = mp.exp(2 * half_pi * mp.sinh(u))
        d_hi = 1 / (1 + e2s)          # 1 - sigma
        d_lo = 1 / (1 + 1 / e2s)      # sigma
        weight = mp.pi * mp.cosh(u) * d_hi * d_lo
        nodes.append((d_lo, d_hi, weight))
    _node_cache[key] = nodes
    return nodes


def integrate(spec: IntegralSpec, digits: int = 30, max_level: int = MAX_LEVEL) -> mpf:
    """Tanh-sinh value of the integral, aiming at `digits` good digits.

    Levels halve the step until two successive estimates agree to
    10^(2 - digits) relative; raises NoConvergence if max_level is hit.
    """
    a, b = Fraction(spec.a), Fraction(spec.b)
    if b < a:
        raise ParameterError(f"inverted interval [{a}, {b}]")
    if a == b:
        return mp.zero
    f = spec.integrand
    with mp.workdps(digits + 10):
        scale = frac_mpf(b - a)
        a_val = frac_mpf(a)
        tol = mpf(10) ** (2 - digits)
        est = None
        for level in range(0, max_level + 1):
            nodes = _level_nodes(level)
            part = mp.zero
            start = 0
            if level == 0:
                sig, csig, w = nodes[0]  # k = 0, evaluated once
                dm = scale * sig
                dp = scale * csig
                part += w * f(a_val + dm, dm, dp)
                start = 1
            for sig, csig, w in nodes[start:]:
                dm = scale * sig
                dp = scale * csig
                v = f(a_val + dm, dm, dp)
                dm, dp = dp, dm
                v += f(a_val + dm, dm, dp)
                part += w * v
            if not mp.isfinite(part):
                raise NonIntegrable(
                    f"integrand not finite on [{a}, {b}] at level {level}"
                )
            step_part = mpf(2) ** (-level) * scale * part
            new_est = step_part if est is None else est / 2 + step_part
            if est is not None and level >= 2:
                if abs(new_est - est) <= tol * max(1, abs(new_est)):
                    return +new_est
            est = new_est
        raise NoConvergence(
            f"tanh-sinh did not reach {digits} digits within level {max_level}"
        )


# -- family integrands -------------------------------------------------------

def _one_minus(dm: mpf, dp: mpf, one_minus_b: mpf) -> mpf:
    """1 - t at full relative accuracy, given both endpoint distances."""
    if dp < dm:
        return one_minus_b + dp
    return mp.fsub(1, dm, exact=True)


def _log_t(dm: mpf, dp: mpf, one_minus_b: mpf) -> mpf:
    """log t, stable at both ends of [0, b] (t - 0 = dm exactly)."""
    if dp < dm:
        return mp.log1p(-(one_minus_b + dp))
    return mp.log(dm)


def _a(m, n, x, omb, digits):
    if m < 1 or n < 1:
        raise ParameterError(f"A needs m >= 1, n >= 1, got m={m}, n={n}")
    if n > m:
        raise NonIntegrable(f"A({m},{n},x): log^{m}(1-t)/t^{n} diverges at 0")
    return lambda t, dm, dp: mp.log(_one_minus(dm, dp, omb)) ** m * dm ** (-n)


def _b(m, n, x, omb, digits):
    if m < 1 or n < 1:
        raise ParameterError(f"B needs m >= 1, n >= 1, got m={m}, n={n}")
    if n > m:
        raise NonIntegrable(f"B({m},{n},x): log^{m}(1+t)/t^{n} diverges at 0")
    return lambda t, dm, dp: mp.log(mp.fadd(1, dm, exact=True)) ** m * dm ** (-n)


def _c(m, n, x, omb, digits):
    if m < 1 or n < 1:
        raise ParameterError(f"C needs m >= 1, n >= 1, got m={m}, n={n}")
    if x == 1 and n > m:
        raise NonIntegrable(f"C({m},{n},1): log^{m}(t)/(1-t)^{n} diverges at 1")
    return lambda t, dm, dp: _log_t(dm, dp, omb) ** m * _one_minus(dm, dp, omb) ** (-n)


def _l(n, m, x, omb, digits):
    if n < 0 or m < 0:
        raise ParameterError(f"L needs n >= 0, m >= 0, got n={n}, m={m}")
    return lambda t, dm, dp: dm**n * _log_t(dm, dp, omb) ** m


def _m(n, m, x, omb, digits):
    if n < 0 or m < 0:
        raise ParameterError(f"M needs n >= 0, m >= 0, got n={n}, m={m}")
    # t - x = dm exactly; 1 - t = dp exactly (b = 1)
    return lambda t, dm, dp: t**n * mp.log(dp) ** m


def _head_log1m(n, m, x, omb, digits):
    if n < 0 or m < 0:
        raise ParameterError(f"HeadLog1m needs n >= 0, m >= 0, got n={n}, m={m}")
    return lambda t, dm, dp: dm**n * mp.log(_one_minus(dm, dp, omb)) ** m


def _j0(m, p, x, omb, digits):
    if m < 0 or p < 1:
        raise ParameterError(f"J0 needs m >= 0, p >= 1, got m={m}, p={p}")

    def f_j0(t, dm, dp):
        return dm**m * polylog_value(p, dm, digits,
                                     one_minus_t=_one_minus(dm, dp, omb))

    return f_j0


def _j1(m, p, x, omb, digits):
    if m < 0 or p < 0:
        raise ParameterError(f"J1 needs m >= 0, p >= 0, got m={m}, p={p}")
    if m == 0 and p == 0 and x == 1:
        raise NonIntegrable("J1(0,0,1): t/(1-t) diverges at 1")

    def f_j1(t, dm, dp):
        return _log_t(dm, dp, omb) ** m * polylog_value(
            p, dm, digits, one_minus_t=_one_minus(dm, dp, omb))

    return f_j1


def _j(m, p, q, x, omb, digits):
    if m < -2 or m == -1:
        raise ParameterError(f"J needs m >= -2 and m != -1, got m={m}")
    if p < 1 or q < 1:
        raise ParameterError(f"J needs p >= 1, q >= 1, got p={p}, q={q}")

    def f_j(t, dm, dp):
        li = (polylog_value(p, dm, digits, one_minus_t=dp)
              * polylog_value(q, dm, digits, one_minus_t=dp))
        return dm**m * li

    return f_j


def _k(r, p, q, x, omb, digits):
    if r < 1:
        raise ParameterError(f"K needs r >= 1, got r={r}")
    if p < 0 or q < 0 or p + q < 1:
        raise ParameterError(f"K needs p, q >= 0 with p + q >= 1, got p={p}, q={q}")

    def f_k(t, dm, dp):
        li = (polylog_value(p, dm, digits, one_minus_t=dp)
              * polylog_value(q, dm, digits, one_minus_t=dp))
        return mp.log1p(-dp) ** r * li / dm if dp < dm else \
            mp.log(dm) ** r * li / dm

    return f_k


# family name -> builder(*params, x, omb, digits) -> integrand, where omb is
# 1 - b at working precision; each builder checks its family's own domain
_INTEGRANDS: dict[str, Callable[..., Integrand]] = {
    "A": _a, "B": _b, "C": _c, "L": _l, "M": _m, "HeadLog1m": _head_log1m,
    "J0": _j0, "J1": _j1, "J": _j, "K": _k,
}


def family_spec(family: str, params: Sequence[int], x: Number = 1,
                digits: int = 30) -> IntegralSpec:
    """IntegralSpec for one member of the named integral family.

    Families over [0, x]: A (log^m(1-t)/t^n), B (log^m(1+t)/t^n),
    C (log^m(t)/(1-t)^n), L (t^n log^m t), HeadLog1m (t^n log^m(1-t)),
    J0 (t^m Li_p), J1 (log^m t Li_p);
    over [x, 1]: M (t^n log^m(1-t)); over [0, 1] only: J (t^m Li_p Li_q),
    K (log^r(t) Li_p Li_q / t, with Li_0(t) = t/(1-t)).

    Parameter count and endpoint kind come from the family table.  Raises
    ParameterError for out-of-contract parameters and NonIntegrable when
    the requested member genuinely diverges.
    """
    build = _INTEGRANDS.get(family)
    if build is None:
        raise ParameterError(f"unknown integral family {family!r}")
    entry = TABLE[family]
    vals = tuple(params)
    if len(vals) != len(entry.params):
        raise ParameterError(
            f"family {family} takes ({' '.join(entry.params)}), got {vals!r}")
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParameterError(f"family {family} parameters must be ints, got {vals!r}")
    x = Fraction(x)
    if entry.endpoint is None:
        if x != 1:
            raise ParameterError(f"family {family} is defined on [0, 1] only")
    elif not ((x >= 0 if entry.zero_ok else x > 0) and x <= 1):
        raise ParameterError(
            f"family {family} needs x in {'[0, 1]' if entry.zero_ok else '(0, 1]'}, got {x}")
    a, b = (x, Fraction(1)) if entry.endpoint == LOWER else (Fraction(0), x)
    # at integrate's working precision, whatever the caller's ambient one:
    # 1 - b rounded to fewer bits stalls convergence at non-dyadic b
    with mp.workdps(digits + 10):
        omb = frac_mpf(1 - b)
    return IntegralSpec(a, b, build(*vals, x, omb, digits))


def integrand_value(family: str, params: Sequence[int], x: Number, t: Number,
                    digits: int = 30) -> mpf:
    """The family integrand at an exact interior point t (for spot checks)."""
    spec = family_spec(family, params, x, digits)
    t = Fraction(t)
    if not spec.a < t < spec.b:
        raise ParameterError(f"t must lie inside ({spec.a}, {spec.b}), got {t}")
    with mp.workdps(digits + 10):
        return +spec.integrand(frac_mpf(t), frac_mpf(t - spec.a), frac_mpf(spec.b - t))


def oracle_value(family: str, params: Sequence[int], x: Number = 1,
                 digits: int = 30, max_level: int = MAX_LEVEL) -> mpf:
    """Convenience wrapper: build the family spec and integrate it."""
    return integrate(family_spec(family, params, x, digits), digits, max_level)
