"""Independent numeric route: tanh-sinh quadrature for the integral families.

The engine substitutes t = tanh((pi/2) sinh(u)) and applies the trapezoid
rule in u, halving the step per level and reusing previous nodes, until
two levels agree or the Bailey-Jeyabalan-Li error estimate is trusted
(see `integrate`).  Node positions are stored as distances to both
interval endpoints, computed directly from exp(2s) rather than by
subtraction, so log(1-t) and Li_k(t) are honest at nodes within 1e-60 of 1.

The unit of work is one level of one interval.  An integrand takes a
`Level` and returns its value at each of that level's nodes, in node
order, as an exact pair (man, exp) of ints, man signed, for man * 2^exp.
A `Node` is one point t with its distances dm = t - a and dp = b - t, and
the values the families need at t (1 - t, log t, log(1 - t), log(1 + t),
log(dp) and a run of polylog orders), each a raw libmp value computed by
libmp calls on first use and kept; `pointwise` makes an integrand of a
function that reads them and returns an mpf.  A `Level` holds its nodes
and their weights, and builds on first use one list per (node value,
exponent) -- log(1 - t)^m, t^-n and so on -- and one per polylog order,
each entry an exact pair, so every case on that interval and precision
reuses them; a family integrand multiplies its lists' pairs exactly, with
no rounding per node.  The levels of one interval form a table cached per
(mp.prec, a, b), all of it at the precision `integrate` sets from its
`digits`.  Each family's parameter names, endpoint kind and integrand
factors come from its row of the family table (families.TABLE);
`family_spec` makes the product of those factors.  `integrate` sums a
level as numeric_eval sums a closed form, by numerics._floor_to_unit,
rounding once (`_level_sum`), and runs its estimates and stop test in
mpmath.libmp; only the accepted estimate becomes an mpf.  Nothing here
calls the closed-form evaluators; it exists to check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, Union

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_log,
                          mpf_mul, mpf_neg, mpf_pos, mpf_pow_int, mpf_shift, mpf_sub,
                          round_nearest)

from .errors import NoConvergence, NonIntegrable, ParameterError
from .families import LOWER, TABLE, Factor, _member
from . import numerics
from .numerics import frac_mpf

Number = Union[int, Fraction]
# an integrand maps a Level to its exact values (man, exp) at the level's
# nodes, in node order
Integrand = Callable[["Level"], list[tuple[int, int]]]

MAX_LEVEL = 12

# the rounding of mp's arithmetic, for the libmp calls below; `_wrap` makes
# a raw libmp value an mpf
_RND = round_nearest
_wrap = mp.make_mpf
_LOG10_2 = math.log10(2)


def _exact(value: tuple) -> tuple[int, int]:
    """The raw libmp value as the exact pair (man, exp), man signed.
    Raises NonIntegrable if it is inf or nan."""
    sign, man, exp, _ = value
    if not man and value != fzero:
        raise NonIntegrable("integrand value not finite")
    return (-man if sign else man, exp)


@dataclass(frozen=True)
class IntegralSpec:
    """An integral over [a, b]; integrand(level) gives the integrand's exact
    values (man, exp) at the nodes of a `Level` of (a, b)."""

    a: Fraction
    b: Fraction
    integrand: Integrand


# value name -> rule(node, prec): a Node computes each of these on first use,
# as a raw libmp value at prec bits, and keeps it.  All but log_dp read t as
# dm, so they hold on intervals [0, b] only; log_dp is log(1 - t) on [x, 1].
# branch is the polylog kernel's fixed-point state for t > 1/2.
_RULES: dict[str, Callable[["Node", int], tuple]] = {
    # 1 - t at full relative accuracy: (1 - b) + dp near b, else 1 - dm exactly
    "one_minus": lambda n, prec: (mpf_add(n.omb, n.dp, prec, _RND) if mpf_cmp(n.dp, n.dm) < 0
                                  else mpf_sub(fone, n.dm)),
    "log_t": lambda n, prec: (mp.log1p(_wrap(mpf_neg(n.one_minus)))._mpf_
                              if mpf_cmp(n.dp, n.dm) < 0 else mpf_log(n.dm, prec, _RND)),
    "log1m": lambda n, prec: mpf_log(n.one_minus, prec, _RND),
    "log1p": lambda n, prec: mpf_log(mpf_add(fone, n.dm), prec, _RND),
    "log_dp": lambda n, prec: mpf_log(n.dp, prec, _RND),
    "branch": lambda n, prec: numerics._log_branch_state(n.log_t, prec),
}


class Node:
    """One point t of (a, b): t, dm = t - a, dp = b - t and omb = 1 - b,
    raw libmp values, plus the `_RULES` values and the `polylogs` run,
    computed on first use and kept, at the precision of the node's table."""

    __slots__ = ("t", "dm", "dp", "omb", "run", *_RULES)

    def __init__(self, t: tuple, dm: tuple, dp: tuple, omb: tuple) -> None:
        self.t, self.dm, self.dp, self.omb = t, dm, dp, omb
        self.run: tuple[tuple, ...] = ()

    def __getattr__(self, name: str) -> tuple:
        # reached only while the slot of a `_RULES` value is still empty
        rule = _RULES.get(name)
        if rule is None:
            raise AttributeError(name)
        value = rule(self, mp.prec)
        setattr(self, name, value)
        return value

    def polylogs(self, k: int) -> tuple[tuple, ...]:
        """(Li_0(t), ..., Li_K(t)) with K >= k and t = dm, raw at the
        precision of the node's table.  A higher order extends the run from
        its last order with one pass of the kernel `_polylog_orders`, which
        reads the node's logs and branch, so each order is computed once
        per node, to the bits a cold run gives."""
        if len(self.run) <= k:
            # one_minus may be 1 - dm formed exactly, past the working precision
            self.run += numerics._polylog_orders(
                k, self.dm, mpf_pos(self.one_minus, mp.prec, _RND), len(self.run), self)
        return self.run


class Level:
    """The nodes of one tanh-sinh level on one interval at one working
    precision `prec` (bits): on level 0 the centre first, then each node
    followed by its mirror at a + b - t.  `weights` holds one unit weight
    per centre or pair; `power` and `polylog` give a value at every node,
    in node order.  Each is an exact pair (man, exp), man signed, for
    man * 2^exp: the value computed at prec bits.  Each list is built on
    first use and kept for every later case on this level."""

    __slots__ = ("nodes", "weights", "prec", "_powers", "_polylogs")

    def __init__(self, nodes: list[Node], weights: list[tuple[int, int]], prec: int) -> None:
        self.nodes, self.weights, self.prec = nodes, weights, prec
        self._powers: dict[tuple[str, int], list[tuple[int, int]]] = {}
        self._polylogs: dict[int, list[tuple[int, int]]] = {}

    def power(self, name: str, i: int) -> list[tuple[int, int]]:
        """value^i at each node, value being the `Node` attribute `name`."""
        values = self._powers.get((name, i))
        if values is None:
            prec = self.prec
            values = self._powers[name, i] = [
                _exact(mpf_pow_int(getattr(node, name), i, prec, _RND)) for node in self.nodes]
        return values

    def polylog(self, p: int) -> list[tuple[int, int]]:
        """Li_p(t) at each node.  A node computes every order up to p it
        lacks in one kernel pass, so a case that needs several orders asks
        for the highest first."""
        values = self._polylogs.get(p)
        if values is None:
            values = self._polylogs[p] = [_exact(node.polylogs(p)[p]) for node in self.nodes]
        return values


def pointwise(fn: Callable[[Node], mpf]) -> Integrand:
    """The integrand that calls fn(node) -> mpf at each node of a level, fn
    reading the node's raw libmp values, and takes each value as an exact
    pair (man, exp).  Raises NonIntegrable if a value is inf or nan."""
    return lambda level: [_exact(fn(node)._mpf_) for node in level.nodes]


# (mp.prec, level) -> [(sigma, 1 - sigma, unit weight), ...], sigma the node
# position on [0, 1] (raw) and the weight an exact pair; level 0 holds k = 0,
# 1, 2, ..., higher levels the new (odd) nodes.  Both sigma and 1 - sigma
# come straight from exp(2s).
_node_cache: dict[tuple[int, int], list[tuple[tuple, tuple, tuple[int, int]]]] = {}


def _level_nodes(level: int) -> list[tuple[tuple, tuple, tuple[int, int]]]:
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
        nodes.append((d_lo._mpf_, d_hi._mpf_, _exact(weight._mpf_)))
    _node_cache[key] = nodes
    return nodes


# (mp.prec, a, b) -> [Level 0, Level 1, ...], grown as integrate reaches
# deeper levels
_table_cache: dict[tuple[int, Fraction, Fraction], list[Level]] = {}


def _make_level(level: int, a: Fraction, b: Fraction) -> Level:
    prec = mp.prec
    scale, a_val = frac_mpf(b - a)._mpf_, frac_mpf(a)._mpf_
    # 1 - b at this precision, whatever the caller's ambient one: rounded to
    # fewer bits it stalls convergence at non-dyadic b
    omb = frac_mpf(1 - b)._mpf_
    table, nodes = _level_nodes(level), []
    for k, (sig, csig, _) in enumerate(table):
        dm, dp = mpf_mul(scale, sig, prec, _RND), mpf_mul(scale, csig, prec, _RND)
        nodes.append(Node(mpf_add(a_val, dm, prec, _RND), dm, dp, omb))
        if level or k:  # all but the centre have a mirror
            nodes.append(Node(mpf_add(a_val, dp, prec, _RND), dp, dm, omb))
    return Level(nodes, [w for _, _, w in table], prec)


def _level_sum(weights: list[tuple[int, int]], values: list[tuple[int, int]],
               prec: int) -> tuple:
    """sum_k w_k (f_k + f'_k) over one level, f_k and f'_k the values at a
    node and at its mirror, each term formed exactly from the pairs
    (man, exp), summed by numerics._floor_to_unit and rounded once to prec
    bits as a raw libmp value.  An odd count of values means the level has
    a centre: its value comes first and its term is w_0 f_0."""
    terms = []
    if len(values) % 2:  # the centre, which has no mirror
        (wm, we), (fm, fe) = weights[0], values[0]
        terms.append((wm * fm, we + fe, 1))
        weights, values = weights[1:], values[1:]
    for (wm, we), (um, ue), (vm, ve) in zip(weights, values[0::2], values[1::2]):
        if ue <= ve:
            terms.append((wm * (um + (vm << (ve - ue))), we + ue, 1))
        else:
            terms.append((wm * ((um << (ue - ve)) + vm), we + ve, 1))
    floored, unit = numerics._floor_to_unit(terms, prec)
    return from_man_exp(sum(floored), unit, prec, _RND)


def _log10(value: tuple) -> float:
    """log10 |v| of a nonzero raw libmp value v = +-man 2^exp, as a float."""
    return math.log10(value[1]) + value[2] * _LOG10_2


@lru_cache(maxsize=None)
def _stop_bounds(digits: int) -> tuple[tuple, tuple]:
    # integrate's two relative bounds, 10^(2 - digits) and 10^-(digits // 2),
    # as raw libmp values at its working precision
    return (mpf(10) ** (2 - digits))._mpf_, (mpf(10) ** -(digits // 2))._mpf_


def integrate(spec: IntegralSpec, digits: int = 30, max_level: int = MAX_LEVEL) -> mpf:
    """Tanh-sinh value of the integral, aiming at `digits` good digits.

    The integrand is called once per level, with the `Level` of the table
    for (working precision, a, b), which is built on first use and kept, so
    the values and power lists one integrand made a level compute serve the
    next one too.  Everything on the table is computed at the working
    precision of digits + numerics.GUARD_DIGITS, which each level holds as
    `prec` (bits).  Any callable that takes a Level and returns the
    integrand's value at each of its nodes, in node order, as an exact pair
    (man, exp) of ints for man * 2^exp is an integrand (a list of another
    length raises ValueError); `pointwise` makes one of a function of one
    node.  Each level is summed by numerics._floor_to_unit and rounded
    once (`_level_sum`).  The estimates and stop test run in mpmath.libmp
    at the working precision, halving and 2^-level as exact shifts, with
    float log10s (`_log10`); only the accepted estimate becomes an mpf.

    Levels halve the step.  A level's estimate is accepted when it agrees
    with the previous one to 10^(2 - digits) relative, or sooner on the
    error estimate of Bailey, Jeyabalan and Li (2005): with D1 and D2 the
    log10 relative differences of the newest estimate from the two before
    it, the error is about 10^(D1^2 / D2), as each level about doubles the
    good digits.  That estimate is trusted only when
    - the level is at least 3 and the estimate two levels back differs,
    - the last relative difference is at most 10^-(digits // 2), and
    - the predicted error is below 10^-(digits + 3).
    Raises NonIntegrable if an integrand value is inf or nan (see
    `pointwise`), and NoConvergence if max_level is hit.
    """
    a, b = Fraction(spec.a), Fraction(spec.b)
    if b < a:
        raise ParameterError(f"inverted interval [{a}, {b}]")
    if a == b:
        return mp.zero
    f = spec.integrand
    with mp.workdps(digits + numerics.GUARD_DIGITS):
        scale = frac_mpf(b - a)._mpf_
        tol, settled = _stop_bounds(digits)
        ests: list[tuple] = []
        prec = mp.prec
        levels = _table_cache.setdefault((prec, a, b), [])
        for level in range(0, max_level + 1):
            if level == len(levels):
                levels.append(_make_level(level, a, b))
            values = f(levels[level])
            if len(values) != len(levels[level].nodes):
                raise ValueError(f"{len(values)} values for {len(levels[level].nodes)} nodes")
            part = _level_sum(levels[level].weights, values, prec)
            est = mpf_mul(mpf_shift(scale, -level), part, prec, _RND)
            if level:
                est = mpf_add(mpf_shift(ests[-1], -1), est, prec, _RND)
            if level >= 2:
                # max(1, |est|), kept as a branch so that tol * 1 is tol
                size = mpf_abs(est)
                big = mpf_cmp(size, fone) > 0
                diff = mpf_abs(mpf_sub(est, ests[-1], prec, _RND))
                if mpf_cmp(diff, mpf_mul(tol, size, prec, _RND) if big else tol) <= 0:
                    return _wrap(est)
                if level >= 3 and mpf_cmp(
                        diff, mpf_mul(settled, size, prec, _RND) if big else settled) <= 0:
                    back = mpf_sub(est, ests[-2], prec, _RND)
                    log_size = _log10(size) if big else 0.0
                    d1 = _log10(diff) - log_size
                    d2 = _log10(back) - log_size if back[1] else 0.0
                    if d2 < 0 and d1 * d1 / d2 < -(digits + 3):
                        return _wrap(est)
            ests.append(est)
        raise NoConvergence(
            f"tanh-sinh did not reach {digits} digits within level {max_level}"
        )


# -- family integrands -------------------------------------------------------

def _product(factors: Sequence[Factor]) -> Integrand:
    """The integrand that multiplies the factors a families.TABLE integrand
    gives, exactly, at each node: (name, i) reads `Level.power(name, i)`
    and an int p `Level.polylog(p)`."""
    orders = [factor for factor in factors if isinstance(factor, int)]

    def product(level):
        if orders:
            level.polylog(max(orders))  # one kernel pass per node serves every order
        lists = [level.polylog(factor) if isinstance(factor, int) else level.power(*factor)
                 for factor in factors]
        values = lists[0]
        for other in lists[1:]:
            values = [(um * vm, ue + ve) for (um, ue), (vm, ve) in zip(values, other)]
        return values

    return product


def family_spec(family: str, params: Sequence[int], x: Number = 1) -> IntegralSpec:
    """IntegralSpec for one member of an integral family: the product of the
    factors its families.TABLE row gives, over [0, x] or, for a LOWER
    endpoint, [x, 1].

    Raises ParameterError for a family with no integrand, wrong parameters
    or an x out of range, and NonIntegrable when the member diverges.
    """
    entry = TABLE.get(family)
    if entry is None or entry.integrand is None:
        raise ParameterError(f"unknown integral family {family!r}")
    entry, vals, x = _member(family, params, x)
    a, b = (x, Fraction(1)) if entry.endpoint == LOWER else (Fraction(0), x)
    return IntegralSpec(a, b, _product(entry.integrand(*vals, x)))


def oracle_value(family: str, params: Sequence[int], x: Number = 1,
                 digits: int = 30) -> mpf:
    """Convenience wrapper: build the family spec and integrate it."""
    return integrate(family_spec(family, params, x), digits)
