"""Closed-form engines for the integral families.

Each public operation turns one integral family into a ClosedForm over the
fixed atom vocabulary.  Two conventions hold throughout:

* The evaluation point selects the shape of the answer.  x = 1 (or frm = 0
  for the tail integrals) produces the stated constant form directly; no
  limits are taken.  Interior points produce the symbolic x-dependent form,
  meant to be paired with numeric evaluation at the same exact rational.
* Harmonic numbers are expanded to exact rationals on the way out, so the
  same value always has the same spelling and structural comparison between
  independent routes is meaningful.

The deeper families (A/B/C with n >= 2, J1, and the polylog products J and
K) are nested sums over index chains.  Every body depends on a chain only
through its sum, or only through its product weight and last index, so each
sum is taken once per such value, weighted by a count of the chains that share
it: a binomial for the sum-capped chains of J/K/J1, a small dynamic programme
for the descending chains of A/B/C.  The cost is polynomial in the parameters.
NestedSumPlan, which walks every chain one by one, is kept as the literal
reading of the expansions.  freitas_recurrence_eval re-derives J0/J/K by plain
recursion instead and exists solely as an independent second route for the
verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Union

from . import exact
from .errors import InvalidOrder, ParameterError, _require_int
from .eulersums import K_base, reduce_S1
from .exact import ClosedForm
from .numerics import harmonic_value

EvalPoint = Union[Fraction, int]

Bounds = Callable[[int, tuple[int, ...]], tuple[int, int]]
Body = Callable[[tuple[int, ...]], ClosedForm]


def _check_point(name: str, value: EvalPoint, *, allow_zero: bool = False) -> Fraction:
    try:
        x = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a rational number, got {value!r}") from exc
    low_ok = x >= 0 if allow_zero else x > 0
    if not (low_ok and x <= 1):
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ParameterError(f"{name} must lie in {bound}, got {x}")
    return x


def _rising(t: int, n: int) -> int:
    """Pochhammer symbol (t)_n = t (t+1) ... (t+n-1)."""
    return math.prod(range(t, t + n))


def _falling(m: int, s: int) -> int:
    """m (m-1) ... (m-s+1)."""
    return math.prod(range(m - s + 1, m + 1))


def _term(coeff, *factors: tuple[exact.Atom, int]) -> ClosedForm:
    """One product term; factors with exponent 0 are dropped."""
    out = ClosedForm.number(coeff)
    for atom, exp in factors:
        if exp:
            out = out * ClosedForm.of(atom, exp=exp)
    return out


def _sum(parts: list[ClosedForm]) -> ClosedForm:
    """parts[0] + parts[1] + ..., canonicalized once rather than per addition."""
    return ClosedForm(term for part in parts for term in part.terms)


def _zz(a: int, b: int) -> ClosedForm:
    return ClosedForm.of(exact.zeta(a)) * ClosedForm.of(exact.zeta(b))


@dataclass(frozen=True)
class NestedSumPlan:
    """A nested sum as data: per-level inclusive bounds computed from the
    outer indices, and a body mapping each full index chain to its term.

    Enumeration is lexicographic; an empty range at any level prunes that
    branch, so impossible chains contribute nothing.  depth = 0 yields the
    single empty chain (the chain-free layer of the expansions).
    """

    depth: int
    bounds: Bounds
    body: Body

    def chains(self) -> Iterator[tuple[int, ...]]:
        def descend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == self.depth:
                yield prefix
                return
            lo, hi = self.bounds(len(prefix), prefix)
            for i in range(lo, hi + 1):
                yield from descend(prefix + (i,))

        return descend(())

    def evaluate(self) -> ClosedForm:
        total = exact.ZERO
        for chain in self.chains():
            total = total + self.body(chain)
        return total


def _compositions(s: int, parts: int) -> int:
    """Number of ways to write s >= 0 as an ordered sum of parts >= 1
    nonnegative integers, C(s+parts-1, parts-1).

    It counts the chains of `parts` entries >= 0 with sum s, and so, with one
    slack entry, the chains of parts-1 entries >= 0 whose sum is at most s.
    """
    return math.comb(s + parts - 1, parts - 1)


# -- logarithm-power building blocks ----------------------------------------------


def _l_symbolic(n: int, m: int) -> ClosedForm:
    out = exact.ZERO
    for j in range(m + 1):
        coeff = Fraction((-1) ** j * _rising(m + 1 - j, j), (n + 1) ** (j + 1))
        out = out + _term(coeff, (exact.x_pow(n + 1), 1), (exact.log_x(), m - j))
    return out


def L_integral(n: int, m: int, at: EvalPoint = 1) -> ClosedForm:
    """integral_0^at of y^n log^m(y) dy.

    L(n,m,x) = (x^(n+1)/(n+1)) sum_{j=0}^m ((m+1-j)_j / (n+1)^j) (-1)^j log^(m-j)(x),
    collapsing to m! (-1)^m / (n+1)^(m+1) at 1 and to 0 at 0.
    """
    _require_int("n", n, 0)
    _require_int("m", m, 0)
    at = _check_point("at", at, allow_zero=True)
    if at == 0:
        return exact.ZERO
    if at == 1:
        return ClosedForm.number(Fraction((-1) ** m * math.factorial(m), (n + 1) ** (m + 1)))
    return _l_symbolic(n, m)


def _m_symbolic(n: int, m: int) -> ClosedForm:
    out = exact.ZERO
    for j in range(n + 1):
        outer = Fraction((-1) ** j * math.comb(n, j), j + 1)
        for i in range(m + 1):
            coeff = outer * Fraction((-1) ** i * _rising(m + 1 - i, i), (j + 1) ** i)
            out = out + _term(coeff, (exact.one_minus_x_pow(j + 1), 1), (exact.log_1mx(), m - i))
    return out


def _m_at_zero(n: int, m: int) -> Fraction:
    total = sum(
        (Fraction((-1) ** j * math.comb(n, j), (j + 1) ** (m + 1)) for j in range(n + 1)),
        Fraction(0),
    )
    return (-1) ** m * math.factorial(m) * total


def M_integral(n: int, m: int, frm: EvalPoint = 0) -> ClosedForm:
    """integral_frm^1 of y^n log^m(1-y) dy.

    The double binomial sum over (1-x)-power and log(1-x) atoms; frm = 0
    collapses to (-1)^m m! sum_j C(n,j) (-1)^j / (j+1)^(m+1), frm = 1 is the
    empty interval.
    """
    _require_int("n", n, 0)
    _require_int("m", m, 0)
    frm = _check_point("frm", frm, allow_zero=True)
    if frm == 1:
        return exact.ZERO
    if frm == 0:
        return ClosedForm.number(_m_at_zero(n, m))
    return _m_symbolic(n, m)


def head_log1m_integral(n: int, m: int, x: EvalPoint) -> ClosedForm:
    """integral_0^x of y^n log^m(1-y) dy, as M(n,m,0) - M(n,m,x)."""
    _require_int("n", n, 0)
    _require_int("m", m, 0)
    x = _check_point("x", x, allow_zero=True)
    return M_integral(n, m, frm=0) - M_integral(n, m, frm=x)


# -- single-denominator log integrals (n = 1 bases) --------------------------------


def _a_base_symbolic(m: int) -> ClosedForm:
    out = _term(1, (exact.log_x(), 1), (exact.log_1mx(), m))
    for k in range(m - 1):
        coeff = (-1) ** k * _rising(m - k, k + 1)
        out = out + _term(coeff, (exact.log_1mx(), m - k - 1), (exact.li_1mx(k + 2), 1))
    out = out + _term((-1) ** (m - 1) * math.factorial(m), (exact.li_1mx(m + 1), 1))
    return out + _a_particular(m)


def _a_particular(m: int) -> ClosedForm:
    return ClosedForm.of(exact.zeta(m + 1), coeff=(-1) ** m * math.factorial(m))


def A_base(m: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(1-t)/t dt.

    log(x)log^m(1-x) + sum_{k=0}^{m-2} (-1)^k (m-k)_(k+1) log^(m-k-1)(1-x) Li_(k+2)(1-x)
    + (-1)^(m-1) m! Li_(m+1)(1-x) + (-1)^m m! zeta(m+1); only the zeta term
    survives at x = 1.
    """
    _require_int("m", m, 1, exc=InvalidOrder)
    x = _check_point("x", x)
    if x == 1:
        return _a_particular(m)
    return _a_base_symbolic(m)


def _b_base_symbolic(m: int) -> ClosedForm:
    out = _term(1, (exact.log_x(), 1), (exact.log_1px(), m))
    out = out + _term(Fraction(-m, m + 1), (exact.log_1px(), m + 1))
    out = out + ClosedForm.of(exact.zeta(m + 1), coeff=math.factorial(m))
    for i in range(1, m + 1):
        coeff = -math.comb(m, i) * math.factorial(i)
        out = out + _term(coeff, (exact.log_1px(), m - i), (exact.li_inv_1px(i + 1), 1))
    return out


def B_base(m: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(1+t)/t dt.

    At x = 1 the log(1+x) powers become log(2) powers and the half-argument
    polylogarithms appear:
    -(m/(m+1)) log^(m+1)(2) + m! zeta(m+1) - sum_i C(m,i) i! log^(m-i)(2) Li_(i+1)(1/2).
    """
    _require_int("m", m, 1, exc=InvalidOrder)
    x = _check_point("x", x)
    if x != 1:
        return _b_base_symbolic(m)
    out = _term(Fraction(-m, m + 1), (exact.log_two(), m + 1))
    out = out + ClosedForm.of(exact.zeta(m + 1), coeff=math.factorial(m))
    for i in range(1, m + 1):
        coeff = -math.comb(m, i) * math.factorial(i)
        out = out + _term(coeff, (exact.log_two(), m - i), (exact.li_at_half(i + 1), 1))
    return out


def _c_base_symbolic(m: int) -> ClosedForm:
    # valid for m >= 0; degenerates to -log(1-x) when m = 0
    out = _term(-1, (exact.log_1mx(), 1), (exact.log_x(), m))
    for i in range(2, m + 2):
        coeff = m * (-1) ** (i - 1) * math.comb(m - 1, i - 2) * math.factorial(i - 2)
        out = out + _term(coeff, (exact.log_x(), m + 1 - i), (exact.li_x(i), 1))
    return out


def C_base(m: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(t)/(1-t) dt.

    -log(1-x) log^m(x) + m sum_{i=2}^{m+1} (-1)^(i-1) C(m-1,i-2) (i-2)! log^(m+1-i)(x) Li_i(x),
    with value (-1)^m m! zeta(m+1) at x = 1.
    """
    _require_int("m", m, 1, exc=InvalidOrder)
    x = _check_point("x", x)
    if x == 1:
        return ClosedForm.of(exact.zeta(m + 1), coeff=(-1) ** m * math.factorial(m))
    return _c_base_symbolic(m)


# -- descending index chains for the n >= 2 families --------------------------------


def _descending_weights(n: int) -> list[dict[int, Fraction]]:
    """For each length y = 0 .. n-2, the summed weight 1/(n-1) prod_j 1/(i_j - 1)
    of the descending chains n > i_1 > ... > i_y >= 2, keyed by the last index
    (n for the empty chain).

    A chain ending at t extends any chain ending above t, so
    W_y[t] = sum_{u > t} W_(y-1)[u] / (t-1), one suffix sum per length.
    """
    layers = [{n: Fraction(1, n - 1)}]
    for _ in range(n - 2):
        above = Fraction(0)
        layer = {}
        for t in range(n - 1, 1, -1):
            above += layers[-1].get(t + 1, 0)
            if above:
                layer[t] = above / (t - 1)
        layers.append(layer)
    return layers


def _ac_at_one(m: int, n: int) -> ClosedForm:
    out = exact.ZERO
    lead = (-1) ** m * math.factorial(m)
    for y, layer in enumerate(_descending_weights(n)):
        out = out + ClosedForm.of(exact.zeta(m - y), coeff=lead * sum(layer.values()))
    return out


def _a_general_symbolic(m: int, n: int) -> ClosedForm:
    parts = []
    for y, layer in enumerate(_descending_weights(n)):
        c_y = math.comb(m, y) * math.factorial(y)
        c_y1 = math.comb(m, y + 1) * math.factorial(y + 1)
        for tail, w in layer.items():
            parts.append(_term(
                w * c_y * (-1) ** (y + 1),
                (exact.log_1mx(), m - y),
                (exact.x_pow(-(tail - 1)), 1),
            ))
        w = sum(layer.values())
        parts.append(_term(w * c_y * (-1) ** y, (exact.log_1mx(), m - y)))
        parts.append(_a_base_symbolic(m - y - 1).scale(w * c_y1 * (-1) ** (y + 1)))
    return _sum(parts)


def A_general(m: int, n: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(1-t)/t^n dt for m >= n.

    n = 1 dispatches to A_base.  For n >= 2 the expansion runs over strictly
    descending index chains n > i_1 > ... > i_y >= 2 weighted by
    prod 1/(i_j - 1), terminating in A_base(m-y-1, 1, x) pieces.  A chain
    enters only through its weight and its last index i_y, so the weights
    are summed per (y, i_y) once (_descending_weights) instead of per chain.
    At x = 1 only the zeta layer survives:
    A(m,n,1) = ((-1)^m m!/(n-1)) sum_y zeta(m-y) * (chain weights).
    """
    _require_int("m", m, 1)
    _require_int("n", n, 1)
    if m < n:
        raise ParameterError(f"A(m,n,x) requires m >= n, got m={m}, n={n}")
    if n == 1:
        return A_base(m, x)
    x = _check_point("x", x)
    if x == 1:
        return _ac_at_one(m, n)
    return _a_general_symbolic(m, n)


def C_general(m: int, n: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(t)/(1-t)^n dt for m >= n.

    Computed through C(m,n,x) = A(m,n,1) - A(m,n,1-x): the at-one value of
    the A family minus the 1-x substitution of its symbolic form.  n = 1
    dispatches to C_base.
    """
    _require_int("m", m, 1)
    _require_int("n", n, 1)
    if m < n:
        raise ParameterError(f"C(m,n,x) requires m >= n, got m={m}, n={n}")
    if n == 1:
        return C_base(m, x)
    x = _check_point("x", x)
    if x == 1:
        return _ac_at_one(m, n)
    return _ac_at_one(m, n) - exact.subst_one_minus_x(_a_general_symbolic(m, n))


def _b_general(m: int, n: int, at_one: bool) -> ClosedForm:
    log_atom = exact.log_two() if at_one else exact.log_1px()
    parts = []
    for y, layer in enumerate(_descending_weights(n)):
        c_y = math.comb(m, y) * math.factorial(y)
        c_y1 = math.comb(m, y + 1) * math.factorial(y + 1)
        for tail, w in layer.items():
            parts.append(_term(
                w * c_y * (-1) ** (n + tail + y + 1),
                (log_atom, m - y),
                *(() if at_one else ((exact.x_pow(-(tail - 1)), 1),)),
            ))
        w = sum(layer.values())
        parts.append(_term(w * c_y * (-1) ** (n + y + 1), (log_atom, m - y)))
        terminal = B_base(m - y - 1, 1) if at_one else _b_base_symbolic(m - y - 1)
        parts.append(terminal.scale(w * c_y1 * (-1) ** (n + y)))
    return _sum(parts)


def B_general(m: int, n: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(1+t)/t^n dt for m >= n.

    Same chain structure as the log(1-t) family with alternating signs
    (-1)^(n+i_y+y+1) tracking the partial-fraction split of 1/(t^n (1+t));
    n = 1 dispatches to B_base.
    """
    _require_int("m", m, 1)
    _require_int("n", n, 1)
    if m < n:
        raise ParameterError(f"B(m,n,x) requires m >= n, got m={m}, n={n}")
    if n == 1:
        return B_base(m, x)
    x = _check_point("x", x)
    return _b_general(m, n, x == 1)


# -- polylogarithm integrals -------------------------------------------------------


def J0_eval(m: int, p: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of t^m Li_p(t) dt.

    sum_{j=2}^p ((-1)^(p-j)/(m+1)^(p+1-j)) x^(m+1) Li_j(x) plus the
    ((-1)^(p-1)/(m+1)^(p-1))-weighted log(1-t) tail; at x = 1 this is
    sum_j ((-1)^(p-j)/(m+1)^(p+1-j)) zeta(j) + ((-1)^(p-1)/(m+1)^p) H_(m+1).
    """
    _require_int("m", m, 0)
    _require_int("p", p, 1)
    x = _check_point("x", x)
    if x == 1:
        out = exact.ZERO
        for j in range(2, p + 1):
            out = out + ClosedForm.of(
                exact.zeta(j), coeff=Fraction((-1) ** (p - j), (m + 1) ** (p + 1 - j))
            )
        head = Fraction((-1) ** (p - 1), (m + 1) ** p) * harmonic_value(m + 1)
        return out + ClosedForm.number(head)
    out = exact.ZERO
    for j in range(2, p + 1):
        coeff = Fraction((-1) ** (p - j), (m + 1) ** (p + 1 - j))
        out = out + _term(coeff, (exact.x_pow(m + 1), 1), (exact.li_x(j), 1))
    tail = _m_symbolic(m, 1) - ClosedForm.number(_m_at_zero(m, 1))
    return out + tail.scale(Fraction((-1) ** (p - 1), (m + 1) ** (p - 1)))


def J1_zero(m: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(t) Li_0(t) dt, with Li_0(t) = t/(1-t).

    Assembled as -L(0,m,x) + C(m,1,x).  At x = 1 the at-one analysis of the
    symbolic form decides the outcome: finite for m >= 1, DivergentAtOne for
    m = 0 (the -log(1-x) piece is uncancelled there).
    """
    _require_int("m", m, 0)
    x = _check_point("x", x)
    form = _c_base_symbolic(m) - _l_symbolic(0, m)
    if x == 1:
        return exact.eval_at_one(form)
    return form


def J1_eval(m: int, p: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(t) Li_p(t) dt.

    p = 0 dispatches to J1_zero and m = 0 to the plain polylog integral.
    Otherwise three chain families over indices i_j >= 0 with partial sums
    capped at m-1, each body depending on a chain only through its sum s:
    boundary terms x Li_(p-y+1)(x) log^(m-s)(x) (all vanishing at x = 1),
    re-entries J1(m-s, 0, x) into the p' = 0 column, and multiples of
    J1(0, p-y+1, x) weighted by the number of chains of depth y-1.  A sum s
    is shared by C(s+y-1, y-1) chains of depth y.
    """
    _require_int("m", m, 0)
    _require_int("p", p, 0)
    x = _check_point("x", x)
    if p == 0:
        return J1_zero(m, x)
    if m == 0:
        return J0_eval(0, p, x)
    parts = []
    for y in range(1, p + 1):
        if x != 1:
            for s in range(m):
                coeff = _compositions(s, y) * _falling(m, s) * (-1) ** (s + y - 1)
                parts.append(_term(
                    coeff,
                    (exact.x_pow(1), 1),
                    (exact.li_x(p - y + 1), 1),
                    (exact.log_x(), m - s),
                ))
        coeff = _compositions(m - 1, y) * math.factorial(m) * (-1) ** (m + y - 1)
        parts.append(J0_eval(0, p - y + 1, x).scale(coeff))
    for s in range(m):
        coeff = _compositions(s, p) * _falling(m, s) * (-1) ** (s + p)
        parts.append(J1_zero(m - s, x).scale(coeff))
    return _sum(parts)


# -- products of two polylogarithms ------------------------------------------------


def _h_square_block(m: int) -> Fraction:
    h_top = harmonic_value(m + 1)
    total = h_top * h_top
    for b in range(m + 1):
        total += (h_top - harmonic_value(b)) / Fraction(m + 1 - b)
    return total


def J_at_one_v1(m: int, p: int) -> ClosedForm:
    """integral_0^1 of x^m Li_p(x) Li_1(x) dx, with Li_1(x) = -log(1-x).

    The fraction-expansion route: zeta(j)-weighted zeta/harmonic inner sums
    plus the block carrying S(1,i) and the square of H_(m+1).
    """
    _require_int("m", m, 0)
    _require_int("p", p, 1)
    out = exact.ZERO
    for j in range(2, p + 1):
        inner = exact.ZERO
        for i in range(2, p + 2 - j):
            inner = inner - ClosedForm.of(
                exact.zeta(i), coeff=Fraction(1, (m + 1) ** (p + 2 - j - i))
            )
        rational = sum(
            (
                Fraction(1, (m + 1) ** (p + 2 - j - i)) * harmonic_value(m + 1, i)
                for i in range(1, p + 2 - j)
            ),
            Fraction(0),
        )
        inner = inner + ClosedForm.number(rational)
        out = out + (ClosedForm.of(exact.zeta(j)) * inner).scale((-1) ** (p - j))
    block = exact.ZERO
    for i in range(2, p + 1):
        partial = sum(
            (harmonic_value(n) / Fraction(n**i) for n in range(1, m + 2)), Fraction(0)
        )
        piece = reduce_S1(i) - ClosedForm.number(partial)
        block = block - piece.scale(Fraction(1, (m + 1) ** (p - i + 1)))
    block = block + ClosedForm.number(Fraction(1, (m + 1) ** p) * _h_square_block(m))
    return out + block.scale((-1) ** (p - 1))


def J_at_one_v2(m: int, p: int) -> ClosedForm:
    """Second route to integral_0^1 of x^m Li_p(x) Li_1(x) dx.

    Must agree with J_at_one_v1 everywhere; kept as an independent spelling
    for the two-formula consistency suite.
    """
    _require_int("m", m, 0)
    _require_int("p", p, 1)
    out = exact.ZERO
    for i in range(2, p + 1):
        inner = reduce_S1(i)
        rational = Fraction(0)
        for k in range(2, i + 1):
            inner = inner + ClosedForm.of(
                exact.zeta(k), coeff=(-1) ** (i - k) * harmonic_value(m + 1, i - k + 1)
            )
        for j in range(1, m + 2):
            rational += Fraction((-1) ** (i - 1), j**i) * harmonic_value(j)
        inner = inner + ClosedForm.number(rational)
        out = out + inner.scale(Fraction((-1) ** (p - i), (m + 1) ** (p - i + 1)))
    head = Fraction((-1) ** (p - 1), (m + 1) ** p) * _h_square_block(m)
    return out + ClosedForm.number(head)


def J_at_one_devoto(m: int) -> ClosedForm:
    """The classical p = 1 value (2/(m+1)) (H_(m+1)^(2) + sum_{k=1}^m H_k/(k+1))."""
    _require_int("m", m, 0)
    total = harmonic_value(m + 1, 2)
    for k in range(1, m + 1):
        total += harmonic_value(k) / Fraction(k + 1)
    return ClosedForm.number(Fraction(2, m + 1) * total)


def J_neg2_at_one(p: int) -> ClosedForm:
    """integral_0^1 of Li_p(x) Li_1(x) / x^2 dx:

    2 zeta(2) - sum_{i=2}^p (i/2) zeta(i+1)
    + (1/2) sum_{i=3}^p sum_{k=1}^{i-2} zeta(k+1) zeta(i-k).
    """
    _require_int("p", p, 1)
    out = ClosedForm.of(exact.zeta(2), coeff=2)
    for i in range(2, p + 1):
        out = out - ClosedForm.of(exact.zeta(i + 1), coeff=Fraction(i, 2))
    for i in range(3, p + 1):
        for k in range(1, i - 1):
            out = out + _zz(k + 1, i - k).scale(Fraction(1, 2))
    return out


@lru_cache(maxsize=None)
def _j_base(m: int, p: int) -> ClosedForm:
    if m == -2:
        return J_neg2_at_one(p)
    return J_at_one_v1(m, p)


def J_eval(m: int, p: int, q: int) -> ClosedForm:
    """integral_0^1 of x^m Li_p(x) Li_q(x) dx for m >= -2, m != -1.

    Symmetric in p and q (normalized to p >= q).  q = 1 is a base case;
    q >= 2 expands over index chains of entries >= 0 with partial sums capped
    at p-2, with layer factors (-1)^(i+1)/(m+1)^(i+1), terminating in zeta
    products and J(m,s,1) bases.  Each body depends on a chain only through
    its sum s, shared by C(s+d-1, d-1) chains of depth d.  The output is
    always zeta values and rationals.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < -2 or m == -1:
        raise ParameterError(f"m must be -2 or a nonnegative int, got {m!r}")
    _require_int("p", p, 1)
    _require_int("q", q, 1)
    if p < q:
        p, q = q, p
    if q == 1:
        return _j_base(m, p)
    parts = []
    for stage in range(1, q):
        for s in range(p - 1):
            coeff = Fraction((-1) ** (s + stage - 1), (m + 1) ** (s + stage))
            parts.append(_zz(p - s, q - stage + 1).scale(coeff * _compositions(s, stage)))
        coeff = Fraction((-1) ** (p - 2 + stage), (m + 1) ** (p - 2 + stage))
        parts.append(_j_base(m, q - stage + 1).scale(coeff * _compositions(p - 2, stage)))
    for s in range(p - 1):
        coeff = Fraction((-1) ** (s + q - 1), (m + 1) ** (s + q - 1))
        parts.append(_j_base(m, p - s).scale(coeff * _compositions(s, q - 1)))
    return _sum(parts)


def K_eval(m: int, p: int, q: int) -> ClosedForm:
    """integral_0^1 of log^m(x) Li_p(x) Li_q(x) / x dx for m >= 1, p+q >= 1.

    Symmetric in p and q (normalized to p >= q; q = 0 is the K_base case).
    Index chains of entries >= 1 carry Pochhammer factors 1/(m+1)_s; a chain
    of depth q with sum s (q <= s <= p+q-1) is one of C(s-1, q-1).  Every
    terminal is a K_base value, so the result is EulerSum-free whenever
    m+p+q is even.
    """
    _require_int("m", m, 1)
    _require_int("p", p, 0)
    _require_int("q", q, 0)
    if p + q < 1:
        raise ParameterError("K(m,p,q) requires p + q >= 1")
    if p < q:
        p, q = q, p
    if q == 0:
        return K_base(m, p)
    parts = []
    for stage in range(1, q + 1):
        coeff = Fraction((-1) ** (p + stage - 1), _rising(m + 1, p + stage - 1))
        parts.append(K_base(m + p + stage - 1, q - stage + 1).scale(
            coeff * _compositions(p - 1, stage)))
    for s in range(q, p + q):
        coeff = Fraction((-1) ** s, _rising(m + 1, s))
        parts.append(K_base(m + s, p + q - s).scale(coeff * _compositions(s - q, q)))
    return _sum(parts)


# -- recurrence route (verification only) -------------------------------------------


@lru_cache(maxsize=None)
def _recurrence_j0(m: int, q: int) -> ClosedForm:
    if q == 1:
        return J0_eval(m, 1, 1)
    step = ClosedForm.of(exact.zeta(q)) - _recurrence_j0(m, q - 1)
    return step.scale(Fraction(1, m + 1))


@lru_cache(maxsize=None)
def _recurrence_j(m: int, p: int, q: int) -> ClosedForm:
    if q == 1:
        return _j_base(m, p)
    if p == 1:
        return _j_base(m, q)
    step = _zz(p, q) - _recurrence_j(m, p - 1, q) - _recurrence_j(m, p, q - 1)
    return step.scale(Fraction(1, m + 1))


@lru_cache(maxsize=None)
def _recurrence_k(r: int, p: int, q: int) -> ClosedForm:
    if p == 0:
        return K_base(r, q)
    if q == 0:
        return K_base(r, p)
    step = _recurrence_k(r + 1, p - 1, q) + _recurrence_k(r + 1, p, q - 1)
    return step.scale(Fraction(-1, r + 1))


def freitas_recurrence_eval(family: str, **params: int) -> ClosedForm:
    """Evaluate J0/J/K at x = 1 by literal recursion on their recurrences.

    J0(m,q) = zeta(q)/(m+1) - J0(m,q-1)/(m+1)            (m >= 0, q >= 2)
    J(m,p,q) = zeta(p)zeta(q)/(m+1)
               - (J(m,p-1,q) + J(m,p,q-1))/(m+1)         (p,q >= 2)
    K(r,p,q) = -(K(r+1,p-1,q) + K(r+1,p,q-1))/(r+1)      (r,p,q >= 1)

    Bottoms out in J0_eval(m,1,1), the J(m,*,1) bases, and K_base.  Exists
    solely as an independent second route for the verification suites.
    """
    if family == "J0":
        m = _require_int("m", params.pop("m", None), 0)
        q = _require_int("q", params.pop("q", None), 2)
    elif family == "J":
        m = params.pop("m", None)
        if not isinstance(m, int) or isinstance(m, bool) or m < -2 or m == -1:
            raise ParameterError(f"m must be -2 or a nonnegative int, got {m!r}")
        p = _require_int("p", params.pop("p", None), 2)
        q = _require_int("q", params.pop("q", None), 2)
    elif family == "K":
        r = _require_int("r", params.pop("r", None), 1)
        p = _require_int("p", params.pop("p", None), 1)
        q = _require_int("q", params.pop("q", None), 1)
    else:
        raise ParameterError(f"recurrence families are J0, J, K; got {family!r}")
    if params:
        raise ParameterError(f"unexpected parameters {sorted(params)} for family {family}")
    if family == "J0":
        return _recurrence_j0(m, q)
    if family == "J":
        return _recurrence_j(m, p, q)
    return _recurrence_k(r, p, q)
