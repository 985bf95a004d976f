"""Closed-form engines for the integral families.

Each public operation turns one integral family into a ClosedForm over the
fixed atom vocabulary.  Two conventions hold throughout:

* Each family has one symbolic form in x, paired with numeric evaluation at
  the same exact rational; x = 1 gives its x -> 1- limit and an endpoint
  x = 0 its x -> 0+ limit (exact.limit).
* Harmonic numbers are expanded to exact rationals on the way out, so the
  same value always has the same spelling and structural comparison between
  independent routes is meaningful.

Of the logarithm families only L, the n = 1 bases of A and B and A's chains
are written out; the rest are their images by substitution.  t -> 1-t gives
C(m,n,x) = A(m,n,1) - A(m,n,1-x) and M(n,m,x) = sum_j (-1)^j C(n,j) L(j,m,1-x);
t -> -t gives B's chains, B(m,n,x) = (-1)^(n+1) A(m,n,-x), over B's base.

Each family has one public entry, which checks its parameters and point;
entries reach one another's members through the private builders.

The deeper families (A/B/C with n >= 2, J1, and the polylog products J and
K) are nested sums over index chains.  Every body depends on a chain only
through its sum, or only through its product weight and last index, so each
sum is taken once per such value, weighted by a count of the chains that share
it: a binomial for the sum-capped chains of J/K/J1, a small dynamic programme
for the descending chains of A/B/C.  The cost is polynomial in the parameters.
NestedSumPlan, which walks every chain one by one, is kept as the literal
reading of the expansions.  freitas_recurrence_eval re-derives J0/J/K from
their recurrences instead and exists solely as an independent second route
for the verification suites.

Each builder adds its summands, coeff times atom powers or coeff times a
smaller form, into one exact.Accumulator and makes its ClosedForm once.
The coefficients stay ints wherever the sums allow: the A/B chain weights
are counted times (n-1)!, and each K summand's chain factor 1/(m+1)_s is
folded into the (m+s)! its K_base terminal carries, leaving an int times m!,
so the terminals are streamed in rather than built as forms and scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Union

from . import exact
from .errors import NonIntegrable, ParameterError, _require_int, _require_point
from .eulersums import _add_k_base, _k_base, reduce_S1
from .exact import Accumulator, ClosedForm
from .numerics import harmonic_value

EvalPoint = Union[Fraction, int]

Bounds = Callable[[int, tuple[int, ...]], tuple[int, int]]
Body = Callable[[tuple[int, ...]], ClosedForm]


@lru_cache(maxsize=None)
def _limit(builder: Callable[..., ClosedForm], args: tuple[int, ...], at: int = 1) -> ClosedForm:
    """The x -> 1- (at = 1) or x -> 0+ (at = 0) limit of the symbolic form
    builder(*args), kept per builder, arguments and end."""
    return exact.limit(builder(*args), at)


def _at_point(builder: Callable[..., ClosedForm], args: tuple[int, ...],
              x: Fraction) -> ClosedForm:
    """The symbolic form builder(*args) at x: its x -> 1- limit at x = 1,
    itself elsewhere."""
    return _limit(builder, args) if x == 1 else builder(*args)


def _rising(t: int, n: int) -> int:
    """Pochhammer symbol (t)_n = t (t+1) ... (t+n-1)."""
    return math.prod(range(t, t + n))


def _falling(m: int, s: int) -> int:
    """m (m-1) ... (m-s+1)."""
    return math.prod(range(m - s + 1, m + 1))


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
        acc = Accumulator()
        for chain in self.chains():
            acc.add_form(self.body(chain))
        return acc.form()


def _compositions(s: int, parts: int) -> int:
    """Number of ways to write s >= 0 as an ordered sum of parts >= 1
    nonnegative integers, C(s+parts-1, parts-1).

    It counts the chains of `parts` entries >= 0 with sum s, and so, with one
    slack entry, the chains of parts-1 entries >= 0 whose sum is at most s.
    """
    return math.comb(s + parts - 1, parts - 1)


# -- logarithm-power building blocks ----------------------------------------------


@lru_cache(maxsize=None)
def _l_symbolic(n: int, m: int) -> ClosedForm:
    acc = Accumulator()
    for j in range(m + 1):
        acc.add((-1) ** j * _rising(m + 1 - j, j), (exact.x_pow(n + 1), 1),
                (exact.log_x(), m - j), den=(n + 1) ** (j + 1))
    return acc.form()


def L_integral(n: int, m: int, at: EvalPoint = 1) -> ClosedForm:
    """integral_0^at of y^n log^m(y) dy.

    L(n,m,x) = (x^(n+1)/(n+1)) sum_{j=0}^m ((m+1-j)_j / (n+1)^j) (-1)^j log^(m-j)(x),
    collapsing to m! (-1)^m / (n+1)^(m+1) at 1 and to 0 at 0.
    """
    _require_int("n", n, 0)
    _require_int("m", m, 0)
    at = _require_point("at", at, zero_ok=True)
    if at == 0:
        return exact.ZERO
    return _at_point(_l_symbolic, (n, m), at)


@lru_cache(maxsize=None)
def _m_symbolic(n: int, m: int) -> ClosedForm:
    # M(n,m,1-x) = sum_j (-1)^j C(n,j) L(j,m,x): y = 1-u, (1-u)^n expanded
    image = Accumulator()
    for j in range(n + 1):
        image.add_form(_l_symbolic(j, m), (-1) ** j * math.comb(n, j))
    return exact.subst_one_minus_x(image.form())


def M_integral(n: int, m: int, frm: EvalPoint = 0) -> ClosedForm:
    """integral_frm^1 of y^n log^m(1-y) dy.

    Derived from L by y = 1-u: M(n,m,frm) = sum_j (-1)^j C(n,j) L(j,m,1-frm),
    the x -> 1-x image of the L forms.  frm = 0 is the x -> 0+ limit of that
    form, (-1)^m m! sum_j C(n,j) (-1)^j / (j+1)^(m+1); frm = 1 is the empty
    interval.
    """
    _require_int("n", n, 0)
    _require_int("m", m, 0)
    frm = _require_point("frm", frm, zero_ok=True)
    if frm == 1:
        return exact.ZERO
    if frm == 0:
        return _limit(_m_symbolic, (n, m), 0)
    return _m_symbolic(n, m)


def head_log1m_integral(n: int, m: int, x: EvalPoint) -> ClosedForm:
    """integral_0^x of y^n log^m(1-y) dy, as M(n,m,0) - M(n,m,x)."""
    _require_int("n", n, 0)
    _require_int("m", m, 0)
    x = _require_point("x", x, zero_ok=True)
    return M_integral(n, m, frm=0) - M_integral(n, m, frm=x)


# -- the log families A, B and C from the A chains ---------------------------------


def _check_orders(family: str, m: int, n: int, x: EvalPoint) -> Fraction:
    """x as a Fraction, once A, B or C(m,n,x) is known to have a closed form:
    for n > m, A and B diverge at 0 and C at 1, and C below 1 converges but
    has no closed form."""
    _require_int("m", m, 1)
    _require_int("n", n, 1)
    x = _require_point("x", x)
    if n > m and family == "C" and x < 1:
        raise ParameterError(f"C(m,n,x) at x < 1 needs m >= n, got m={m}, n={n}")
    if n > m:
        raise NonIntegrable(f"{family}({m},{n},{x}) diverges: n > m")
    return x


@lru_cache(maxsize=None)
def _a_base_symbolic(m: int) -> ClosedForm:
    """integral_0^x of log^m(1-t)/t dt, A(m,1,x):

    log(x)log^m(1-x) + sum_{k=0}^{m-2} (-1)^k (m-k)_(k+1) log^(m-k-1)(1-x) Li_(k+2)(1-x)
    + (-1)^(m-1) m! Li_(m+1)(1-x) + (-1)^m m! zeta(m+1); only the zeta term
    survives at x = 1.
    """
    acc = Accumulator()
    acc.add(1, (exact.log_x(), 1), (exact.log_1mx(), m))
    for k in range(m - 1):
        acc.add((-1) ** k * _rising(m - k, k + 1),
                (exact.log_1mx(), m - k - 1), (exact.li_1mx(k + 2), 1))
    acc.add((-1) ** (m - 1) * math.factorial(m), (exact.li_1mx(m + 1), 1))
    acc.add((-1) ** m * math.factorial(m), (exact.zeta(m + 1), 1))
    return acc.form()


@lru_cache(maxsize=None)
def _b_base_symbolic(m: int) -> ClosedForm:
    """integral_0^x of log^m(1+t)/t dt, B(m,1,x).

    At x = 1 the log(1+x) powers become log(2) powers and the half-argument
    polylogarithms appear:
    -(m/(m+1)) log^(m+1)(2) + m! zeta(m+1) - sum_i C(m,i) i! log^(m-i)(2) Li_(i+1)(1/2).
    """
    acc = Accumulator()
    acc.add(1, (exact.log_x(), 1), (exact.log_1px(), m))
    acc.add(-m, (exact.log_1px(), m + 1), den=m + 1)
    acc.add(math.factorial(m), (exact.zeta(m + 1), 1))
    for i in range(1, m + 1):
        acc.add(-math.comb(m, i) * math.factorial(i),
                (exact.log_1px(), m - i), (exact.li_inv_1px(i + 1), 1))
    return acc.form()


def _descending_weights(n: int) -> list[dict[int, int]]:
    """For each length y = 0 .. n-2, the summed weight 1/(n-1) prod_j 1/(i_j - 1)
    of the descending chains n > i_1 > ... > i_y >= 2, keyed by the last index
    (n for the empty chain), times (n-1)!.

    A chain ending at t extends any chain ending above t, so
    W_y[t] = sum_{u > t} W_(y-1)[u] / (t-1), one suffix sum per length.  The
    weights times (n-1)! are ints, as each chain's 1/(i_j - 1) over distinct
    i_j in 2..n-1 have a product dividing (n-2)!, so each suffix sum divides
    exactly by t-1.
    """
    layers = [{n: math.factorial(n - 2)}]
    for _ in range(n - 2):
        above = 0
        layer = {}
        for t in range(n - 1, 1, -1):
            above += layers[-1].get(t + 1, 0)
            if above:
                layer[t] = above // (t - 1)
        layers.append(layer)
    return layers


def _descending_chains(m: int, n: int, log_atom: exact.Atom,
                       base: Callable[[int], ClosedForm], sign: int) -> ClosedForm:
    """A(m,n,x) for sign = 1 (log(1-x), _a_base_symbolic); B(m,n,x) for
    sign = -1 (log(1+x), _b_base_symbolic).  n = 1 is base(m).

    Per chain weight W (y, i_y) and F_y = m!/(m-y)!, A's layer y is
    -(-1)^y W F_y log^(m-y)(1-x) (x^-(i_y-1) - 1) - (-1)^y W F_(y+1) A(m-y-1,1,x).
    B(m,n,x) = (-1)^(n+1) A(m,n,-x): -x turns log(1-x) into log(1+x),
    x^-(i_y-1) into (-1)^(i_y-1) x^-(i_y-1) and A(k,1,-x) into B(k,1,x).
    """
    if n == 1:
        return base(m)
    flip = sign ** (n + 1)
    den = math.factorial(n - 1)
    acc = Accumulator()
    for y, layer in enumerate(_descending_weights(n)):
        f_y, f_y1 = _falling(m, y), _falling(m, y + 1)
        for tail, w in layer.items():
            acc.add(w * f_y * (-1) ** (y + 1) * sign ** (n + tail),
                    (log_atom, m - y), (exact.x_pow(1 - tail), 1), den=den)
        w = sum(layer.values())
        acc.add(flip * w * f_y * (-1) ** y, (log_atom, m - y), den=den)
        acc.add_form(base(m - y - 1), flip * w * f_y1 * (-1) ** (y + 1), den)
    return acc.form()


@lru_cache(maxsize=None)
def _a_symbolic(m: int, n: int) -> ClosedForm:
    return _descending_chains(m, n, exact.log_1mx(), _a_base_symbolic, 1)


@lru_cache(maxsize=None)
def _b_symbolic(m: int, n: int) -> ClosedForm:
    return _descending_chains(m, n, exact.log_1px(), _b_base_symbolic, -1)


@lru_cache(maxsize=None)
def _c_symbolic(m: int, n: int) -> ClosedForm:
    """integral_0^x of log^m(t)/(1-t)^n dt, by t -> 1-t as
    C(m,n,x) = A(m,n,1) - A(m,n,1-x).

    Its base n = 1 is the x -> 1-x image of A's base:
    -log(1-x) log^m(x) + m sum_{i=2}^{m+1} (-1)^(i-1) C(m-1,i-2) (i-2)! log^(m+1-i)(x) Li_i(x),
    with value (-1)^m m! zeta(m+1) at x = 1.
    """
    acc = Accumulator()
    acc.add_form(_limit(_a_symbolic, (m, n)))
    acc.add_form(exact.subst_one_minus_x(_a_symbolic(m, n)), -1)
    return acc.form()


def A_general(m: int, n: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(1-t)/t^n dt for m >= n; it diverges for n > m.

    n = 1 is the base form (_a_base_symbolic).  For n >= 2 the expansion runs
    over strictly descending index chains n > i_1 > ... > i_y >= 2 weighted by
    prod 1/(i_j - 1), terminating in A(m-y-1, 1, x) pieces.  A chain
    enters only through its weight and its last index i_y, so the weights
    are summed per (y, i_y) once (_descending_weights) instead of per chain
    (_descending_chains).  At x = 1 the terms x^-(i_y-1) log^(m-y)(1-x) and
    log^(m-y)(1-x) cancel in the limit and only the zeta layer survives:
    A(m,n,1) = ((-1)^m m!/(n-1)) sum_y zeta(m-y) * (chain weights).
    """
    x = _check_orders("A", m, n, x)
    return _at_point(_a_symbolic, (m, n), x)


def B_general(m: int, n: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(1+t)/t^n dt for m >= n; it diverges for n > m.

    Derived from A's chains by t -> -t: B(m,n,x) = (-1)^(n+1) A(m,n,-x) on
    the chain part, with B's base in place of A's, so the x-power terms
    carry the signs (-1)^(n+i_y+y+1) (see _descending_chains).  n = 1 is
    the base form (_b_base_symbolic).
    """
    x = _check_orders("B", m, n, x)
    return _at_point(_b_symbolic, (m, n), x)


def C_general(m: int, n: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(t)/(1-t)^n dt for m >= n; it diverges at
    x = 1 for n > m.

    Derived from A by t -> 1-t for every n >= 1:
    C(m,n,x) = A(m,n,1) - A(m,n,1-x), the x -> 1- limit of A's symbolic
    form minus its x -> 1-x image (_c_symbolic).
    """
    x = _check_orders("C", m, n, x)
    return _at_point(_c_symbolic, (m, n), x)


# -- polylogarithm integrals -------------------------------------------------------


@lru_cache(maxsize=None)
def _j0_symbolic(m: int, p: int) -> ClosedForm:
    acc = Accumulator()
    for j in range(2, p + 1):
        acc.add((-1) ** (p - j), (exact.x_pow(m + 1), 1), (exact.li_x(j), 1),
                den=(m + 1) ** (p + 1 - j))
    tail_sign, tail_den = (-1) ** (p - 1), (m + 1) ** (p - 1)
    acc.add_form(_m_symbolic(m, 1), tail_sign, tail_den)
    acc.add_form(_limit(_m_symbolic, (m, 1), 0), -tail_sign, tail_den)
    return acc.form()


def J0_eval(m: int, p: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of t^m Li_p(t) dt.

    sum_{j=2}^p ((-1)^(p-j)/(m+1)^(p+1-j)) x^(m+1) Li_j(x) plus the
    ((-1)^(p-1)/(m+1)^(p-1))-weighted log(1-t) tail; at x = 1 this is
    sum_j ((-1)^(p-j)/(m+1)^(p+1-j)) zeta(j) + ((-1)^(p-1)/(m+1)^p) H_(m+1).
    """
    _require_int("m", m, 0)
    _require_int("p", p, 1)
    x = _require_point("x", x)
    return _at_point(_j0_symbolic, (m, p), x)


def _j1_zero_symbolic(m: int) -> ClosedForm:
    """integral_0^x of log^m(t) Li_0(t) dt, with Li_0(t) = t/(1-t).

    Assembled as -L(0,m,x) + C(m,1,x).  Its x -> 1- limit is finite for
    m >= 1; for m = 0 the -log(1-x) piece is uncancelled (DivergentAtOne).
    """
    acc = Accumulator()
    if m == 0:  # -L(0,0,x) + C(0,1,x), C(0,1,x) = -log(1-x)
        acc.add(-1, (exact.log_1mx(), 1))
        acc.add(-1, (exact.x_pow(1), 1))
    else:
        acc.add_form(_c_symbolic(m, 1))
        acc.add_form(_l_symbolic(0, m), -1)
    return acc.form()


@lru_cache(maxsize=None)
def _j1_symbolic(m: int, p: int) -> ClosedForm:
    acc = Accumulator()
    for y in range(1, p + 1):
        li = exact.li_x(p - y + 1)
        for s in range(m):
            acc.add(_compositions(s, y) * _falling(m, s) * (-1) ** (s + y - 1),
                    (exact.log_x(), m - s), (exact.x_pow(1), 1), (li, 1))
        acc.add_form(_j0_symbolic(0, p - y + 1),
                     _compositions(m - 1, y) * math.factorial(m) * (-1) ** (m + y - 1))
    for s in range(m):
        acc.add_form(_j1_zero_symbolic(m - s),
                     _compositions(s, p) * _falling(m, s) * (-1) ** (s + p))
    return acc.form()


def J1_eval(m: int, p: int, x: EvalPoint = 1) -> ClosedForm:
    """integral_0^x of log^m(t) Li_p(t) dt.

    p = 0 is the Li_0 integral (_j1_zero_symbolic) and m = 0 the plain
    polylog integral J0(0,p,x).
    Otherwise three chain families over indices i_j >= 0 with partial sums
    capped at m-1, each body depending on a chain only through its sum s:
    boundary terms x Li_(p-y+1)(x) log^(m-s)(x) (all vanishing at x = 1),
    re-entries J1(m-s, 0, x) into the p' = 0 column, and multiples of
    J1(0, p-y+1, x) weighted by the number of chains of depth y-1.  A sum s
    is shared by C(s+y-1, y-1) chains of depth y.
    """
    _require_int("m", m, 0)
    _require_int("p", p, 0)
    x = _require_point("x", x)
    if p == 0:
        return _at_point(_j1_zero_symbolic, (m,), x)
    if m == 0:
        return _at_point(_j0_symbolic, (0, p), x)
    return _at_point(_j1_symbolic, (m, p), x)


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
    acc = Accumulator()
    for j in range(2, p + 1):
        z_j, sign = exact.zeta(j), (-1) ** (p - j)
        for i in range(2, p + 2 - j):
            acc.add(-sign, (z_j, 1), (exact.zeta(i), 1), den=(m + 1) ** (p + 2 - j - i))
        rational = sum(
            (
                Fraction(1, (m + 1) ** (p + 2 - j - i)) * harmonic_value(m + 1, i)
                for i in range(1, p + 2 - j)
            ),
            Fraction(0),
        )
        acc.add(sign * rational, (z_j, 1))
    sign = (-1) ** (p - 1)
    for i in range(2, p + 1):
        partial = sum(
            (harmonic_value(n) / Fraction(n**i) for n in range(1, m + 2)), Fraction(0)
        )
        den = (m + 1) ** (p - i + 1)
        acc.add_form(reduce_S1(i), -sign, den)
        acc.add(sign * partial, den=den)
    acc.add(sign * _h_square_block(m), den=(m + 1) ** p)
    return acc.form()


def J_at_one_v2(m: int, p: int) -> ClosedForm:
    """Second route to integral_0^1 of x^m Li_p(x) Li_1(x) dx.

    Must agree with J_at_one_v1 everywhere; kept as an independent spelling
    for the two-formula consistency suite.
    """
    _require_int("m", m, 0)
    _require_int("p", p, 1)
    acc = Accumulator()
    for i in range(2, p + 1):
        sign, den = (-1) ** (p - i), (m + 1) ** (p - i + 1)
        acc.add_form(reduce_S1(i), sign, den)
        rational = Fraction(0)
        for k in range(2, i + 1):
            acc.add(sign * (-1) ** (i - k) * harmonic_value(m + 1, i - k + 1),
                    (exact.zeta(k), 1), den=den)
        for j in range(1, m + 2):
            rational += Fraction((-1) ** (i - 1), j**i) * harmonic_value(j)
        acc.add(sign * rational, den=den)
    acc.add((-1) ** (p - 1) * _h_square_block(m), den=(m + 1) ** p)
    return acc.form()


def J_at_one_devoto(m: int) -> ClosedForm:
    """The classical p = 1 value (2/(m+1)) (H_(m+1)^(2) + sum_{k=1}^m H_k/(k+1))."""
    _require_int("m", m, 0)
    total = harmonic_value(m + 1, 2)
    for k in range(1, m + 1):
        total += harmonic_value(k) / Fraction(k + 1)
    return ClosedForm.number(Fraction(2, m + 1) * total)


def _j_neg2_at_one(p: int) -> ClosedForm:
    """integral_0^1 of Li_p(x) Li_1(x) / x^2 dx, J(-2,p,1):

    2 zeta(2) - sum_{i=2}^p (i/2) zeta(i+1)
    + (1/2) sum_{i=3}^p sum_{k=1}^{i-2} zeta(k+1) zeta(i-k).
    """
    acc = Accumulator()
    acc.add(2, (exact.zeta(2), 1))
    for i in range(2, p + 1):
        acc.add(-i, (exact.zeta(i + 1), 1), den=2)
    for i in range(3, p + 1):
        for k in range(1, i - 1):
            acc.add(1, (exact.zeta(k + 1), 1), (exact.zeta(i - k), 1), den=2)
    return acc.form()


@lru_cache(maxsize=None)
def _j_base(m: int, p: int) -> ClosedForm:
    if m == -2:
        return _j_neg2_at_one(p)
    return J_at_one_v1(m, p)


def _require_j_order(m) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < -2 or m == -1:
        raise ParameterError(f"m must be -2 or a nonnegative int, got {m!r}")
    return m


def J_eval(m: int, p: int, q: int) -> ClosedForm:
    """integral_0^1 of x^m Li_p(x) Li_q(x) dx for m >= -2, m != -1.

    Symmetric in p and q (normalized to p >= q).  q = 1 is a base case;
    q >= 2 expands over index chains of entries >= 0 with partial sums capped
    at p-2, with layer factors (-1)^(i+1)/(m+1)^(i+1), terminating in zeta
    products and J(m,s,1) bases.  Each body depends on a chain only through
    its sum s, shared by C(s+d-1, d-1) chains of depth d.  The output is
    always zeta values and rationals.
    """
    _require_j_order(m)
    _require_int("p", p, 1)
    _require_int("q", q, 1)
    if p < q:
        p, q = q, p
    if q == 1:
        return _j_base(m, p)
    acc = Accumulator()
    for stage in range(1, q):
        z_q = exact.zeta(q - stage + 1)
        for s in range(p - 1):
            acc.add((-1) ** (s + stage - 1) * _compositions(s, stage),
                    (exact.zeta(p - s), 1), (z_q, 1), den=(m + 1) ** (s + stage))
        acc.add_form(_j_base(m, q - stage + 1),
                     (-1) ** (p - 2 + stage) * _compositions(p - 2, stage),
                     (m + 1) ** (p - 2 + stage))
    for s in range(p - 1):
        acc.add_form(_j_base(m, p - s), (-1) ** (s + q - 1) * _compositions(s, q - 1),
                     (m + 1) ** (s + q - 1))
    return acc.form()


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
        return _k_base(m, p)
    # K_base(m+s, .) carries (m+s)! and (m+1)_s = (m+s)!/m!, so a chain
    # factor (-1)^s / (m+1)_s times K_base(m+s, .) is the int (-1)^s m!
    # times K_base(m+s, .)/(m+s)!, which _add_k_base adds
    acc = Accumulator()
    m_fact = math.factorial(m)
    for stage in range(1, q + 1):
        s = p + stage - 1
        _add_k_base(acc, m + s, q - stage + 1,
                    (-1) ** s * m_fact * _compositions(p - 1, stage))
    for s in range(q, p + q):
        _add_k_base(acc, m + s, p + q - s, (-1) ** s * m_fact * _compositions(s - q, q))
    return acc.form()


# -- recurrence route (verification only) -------------------------------------------


def _recurrence_step(den: int, zetas: tuple[int, ...], *forms: ClosedForm) -> ClosedForm:
    """(prod zeta(s) over zetas, none if empty, minus the forms) / den, as one
    step of the recurrences below, summed in one Accumulator."""
    acc = Accumulator()
    if zetas:
        acc.add(1, *((exact.zeta(s), 1) for s in zetas), den=den)
    for form in forms:
        acc.add_form(form, -1, den)
    return acc.form()


def freitas_recurrence_eval(family: str, **params: int) -> ClosedForm:
    """Evaluate J0/J/K at x = 1 by running their recurrences up from the bases.

    J0(m,q) = zeta(q)/(m+1) - J0(m,q-1)/(m+1)            (m >= 0, q >= 2)
    J(m,p,q) = zeta(p)zeta(q)/(m+1)
               - (J(m,p-1,q) + J(m,p,q-1))/(m+1)         (p,q >= 2)
    K(r,p,q) = -(K(r+1,p-1,q) + K(r+1,p,q-1))/(r+1)      (r,p,q >= 1)

    Fills each table bottom-up, without recursion, from J0(m,1,1), the
    J(m,*,1) bases and K_base.  Exists solely as an independent second route.
    """
    if family == "J0":
        m = _require_int("m", params.pop("m", None), 0)
        q = _require_int("q", params.pop("q", None), 2)
    elif family == "J":
        m = _require_j_order(params.pop("m", None))
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
        form = _limit(_j0_symbolic, (m, 1))
        for k in range(2, q + 1):
            form = _recurrence_step(m + 1, (k,), form)
        return form
    if family == "J":
        # row a holds J(m, a, b) at index b >= 1; row 1 and column 1 are bases
        row = [None] + [_j_base(m, b) for b in range(1, q + 1)]
        for a in range(2, p + 1):
            above, row = row, [None, _j_base(m, a)]
            for b in range(2, q + 1):
                row.append(_recurrence_step(m + 1, (a, b), above[b], row[b - 1]))
        return row[q]
    # row a holds K(total - a - b, a, b) at index b; row 0 and column 0 are bases
    total = r + p + q
    row = [None] + [_k_base(total - b, b) for b in range(1, q + 1)]
    for a in range(1, p + 1):
        above, row = row, [_k_base(total - a, a)]
        for b in range(1, q + 1):
            row.append(_recurrence_step(total - a - b + 1, (), above[b], row[b - 1]))
    return row[q]
