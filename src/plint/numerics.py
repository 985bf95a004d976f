"""High-precision numeric values for the symbolic atoms.

Everything here works at an explicit decimal precision and is independent
of the closed-form evaluators.  Zeta values come from mpmath's zeta, which
keeps its own memo.  Polylogarithms come in runs: one pass of the kernel
`_polylog_orders` yields the orders Li_start(t)..Li_k(t) of one argument as
raw libmp values, each order with the same bits in any run.
`polylog_value` makes one pass for the one order asked for and keeps
nothing; a quadrature node keeps its run, with the logs and fixed-point
state it started from, so extending it takes no logarithm.  For t <= 1/2
the pass sums the defining series for all orders at once in integers
scaled by 2^shift (fixed point), relative to t so that arguments near 0
keep their accuracy; for t > 1/2 it sums the expansion around the
logarithmic singularity at 1, also in fixed point, from one row of
2^shift zeta(s) ints per shift, cut once into each order's coefficients
zeta(k-j)/j!.  Both land within 2^-(prec+1) relative
before one rounding.  A linear Euler sum S_{p,q} is a direct sum to
N = p + q + 2 prec, H_N^(p) (zeta(q) - H_N^(q)) and one series in 1/N from
B_m/m! cached per precision, all in fixed point, within 2^-(prec+6)
relative.  `numeric_eval` values each atom and each atom power once per
(x, digits), a constant one once per digits, and keeps them in
`_atom_cache`, the one store of atom values.  It sums a closed form's
terms in integers, each term the exact product of its coefficient and atom
powers rounded once (`_sum_terms`), all floored to one unit by
`_floor_to_unit`, which states the sum rule and its bound and also sums the
quadrature oracle's levels.  The quadrature oracle and the CLI sit on top
of this module.

All public functions take a decimal `digits` target and compute with
guard digits internally; returned mpf values carry the guard precision.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Union

from mpmath import libmp, mp, mpf

from . import exact
from .errors import DivergentValue, InvalidOrder, NonConvergent, ParameterError

GUARD_DIGITS = 10

_RND = libmp.round_nearest  # the rounding of mp's arithmetic, for libmp calls

# the most digits numeric_eval adds to cover cancellation among a form's
# terms; B(120,60,1), whose terms cancel 220 digits, is within it
MAX_EXTRA_DIGITS = 500

Number = Union[int, Fraction]


def frac_mpf(q: Number) -> mpf:
    """Exact rational -> mpf at the current working precision."""
    q = Fraction(q)
    return mpf(q.numerator) / mpf(q.denominator)


# -- zeta ----------------------------------------------------------------------

def zeta_value(s: int, digits: int = 30) -> mpf:
    """Riemann zeta at an integer s >= 2, from mpmath's zeta."""
    if not isinstance(s, int) or s < 2:
        raise InvalidOrder(f"zeta_value requires integer s >= 2, got {s!r}")
    with mp.workdps(digits + GUARD_DIGITS):
        return mp.zeta(s)


# -- harmonic numbers -----------------------------------------------------------

# m -> [H_0^(m), H_1^(m), ...], extended bottom-up as larger n are asked for
_harmonic_tables: dict[int, list[Fraction]] = {}


def harmonic_value(n: int, m: int = 1) -> Fraction:
    """Generalized harmonic number H_n^(m) as an exact rational."""
    if not isinstance(n, int) or n < 0:
        raise InvalidOrder(f"harmonic_value requires integer n >= 0, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise InvalidOrder(f"harmonic_value requires integer m >= 1, got {m!r}")
    table = _harmonic_tables.setdefault(m, [Fraction(0)])
    for k in range(len(table), n + 1):
        table.append(table[-1] + Fraction(1, k**m))
    return table[n]


# -- polylogarithms --------------------------------------------------------------

def _polylog_orders(kmax: int, t: Union[Fraction, tuple], comp: tuple, start: int = 0,
                    node=None) -> tuple:
    """Li_start(t), ..., Li_kmax(t) for 0 <= t < 1 at the current working
    precision prec, raw libmp values, given t exactly (a Fraction, or raw
    at prec) and comp = 1 - t, raw at prec and at full relative accuracy.
    Each order has the same bits whatever start and kmax are, so a run
    extends by the orders past its end.

    For t > 1/2 the orders from 2 up come from the expansion around 1
    (`_log_branch_orders`), and Li_1 = -log(1-t).  A quadrature `node`
    gives its `log1m` and `branch` (`_log_branch_state` of its `log_t`),
    the bits of log(comp) and log1p(-comp), so extending its run makes no
    log call.  For t <= 1/2 every order from 1 up comes from one integer
    pass over the defining series: Li_j(t) = t S_j with S_j = sum_{n >= 1}
    t^(n-1) / n^j, which lies in [1, 2), so a fixed point scaled by
    2^shift, shift = prec + guard, keeps the full relative accuracy of S_j
    however small t is.  The running power P = t^(n-1) 2^shift is floored
    at each step (P <- P a // b for t = a/b, a shift when b is a power of
    2, as at every raw t), which keeps it within 2 units of its exact value
    because t <= 1/2; each term floor(P / n^j) then loses fewer than 3
    units.  The pass stops once P < 2^(guard-3), after at most prec + 4
    terms, and the geometric tail it drops is below 2^(guard-2) + 4 units.
    With guard = bit_length(prec) + 5 each S_j is short by less than
    2^-(prec+1) relative, and is rounded once.  From start > 1 a term
    begins at floor(P / n^(start-1)), the same integer.
    """
    prec = mp.prec
    rational = isinstance(t, Fraction)
    tv = frac_mpf(t)._mpf_ if rational else t
    orders = [libmp.mpf_div(tv, comp, prec, _RND)] if start == 0 else []
    if kmax == 0:
        return tuple(orders)
    if libmp.mpf_cmp(tv, libmp.fhalf) > 0:
        if start <= 1:
            orders.append(libmp.mpf_neg(node.log1m if node else libmp.mpf_log(comp, prec, _RND)))
        if kmax > 1:
            orders += _log_branch_orders(kmax, node.branch if node else _log_branch_state(
                mp.log1p(mp.make_mpf(libmp.mpf_neg(comp)))._mpf_, prec), start, prec)
        return tuple(orders)
    a, b = (t.numerator, t.denominator) if rational else (t[1], 1 << -t[2])
    s = b.bit_length() - 1 if not b & (b - 1) else 0  # b = 2^s, or 0
    guard = prec.bit_length() + 5
    shift = prec + guard
    stop = 1 << (guard - 3)
    first = max(start, 1)
    width = kmax - first + 1
    sums = [0] * width
    power = 1 << shift
    n = 1
    while power >= stop:
        term = power // n ** (first - 1) if first > 1 else power
        for j in range(width):
            term //= n  # floor(power / n^(first+j)), exactly
            sums[j] += term
        n += 1
        power = power * a >> s if s else power * a // b
    orders += (libmp.mpf_mul(tv, libmp.mpf_shift(libmp.from_int(acc, prec, _RND), -shift),
                             prec, _RND) for acc in sums)
    return tuple(orders)


# shift -> (zetas, orders), the log branch's fixed-point constants at 2^shift.
# zetas[s + shift // 3 + 1] is 2^shift zeta(s) truncated (zeta(s) from
# Bernoulli numbers for s < 0) for s from -(shift // 3) - 1 up to the highest
# order asked for, and 0 at s = 1; orders[k] = [c_0, c_1, ...], c_j that int
# at s = k-j floor-divided by j!, except c_{k-1} = 2^shift H_{k-1}/(k-1)!
# floored.  shift is set by the working precision (_log_branch_orders), and
# each list is long enough for any mu in (-log 2, 0)
_log_branch_coeffs: dict[int, tuple[list[int], dict[int, list[int]]]] = {}


def _log_branch_coefficients(k: int, shift: int) -> list[int]:
    zetas, orders = _log_branch_coeffs.setdefault(shift, ([], {}))
    coeffs = orders.get(k)
    if coeffs is None:
        low = -(shift // 3) - 1
        # 8 bits past the fixed point leave each c_j within 3 units
        with mp.workprec(shift + 8):
            for s in range(low + len(zetas), k + 1):
                zetas.append(0 if s == 1 else int(mp.ldexp(
                    mp.zeta(s) if s >= 0 else -mp.bernoulli(1 - s) / (1 - s), shift)))
            harmonic = int(mp.ldexp(frac_mpf(harmonic_value(k - 1)), shift))
        factorials = itertools.accumulate(range(1, k - low + 1), operator.mul, initial=1)
        coeffs = orders[k] = [(harmonic if j == k - 1 else zetas[k - j - low]) // f
                              for j, f in enumerate(factorials)]
    return coeffs


def _log_branch_state(mu: tuple, prec: int) -> tuple[int, int, list[int]]:
    """(M, Q, [2^shift]) of `_log_branch_orders` for t = e^mu, mu raw at prec."""
    shift = prec + prec.bit_length() + 5
    wide = shift + 8
    q = libmp.mpf_mul(mu, libmp.mpf_log(libmp.mpf_neg(mu), wide, _RND), wide, _RND)
    return (libmp.to_int(libmp.mpf_shift(mu, shift)), libmp.to_int(libmp.mpf_shift(q, shift)),
            [1 << shift])


def _log_branch_orders(kmax: int, branch: tuple[int, int, list[int]], start: int,
                       prec: int) -> list[tuple]:
    """Li_k(e^mu) for max(2, start) <= k <= kmax and mu in (-log 2, 0) at
    working precision prec, as raw libmp values, from the expansion around 1:

        Li_k(e^mu) = sum_{j >= 0, j != k-1} zeta(k-j) mu^j / j!
                     + mu^(k-1)/(k-1)! (H_{k-1} - log(-mu))

    summed in integers scaled by 2^shift (fixed point), shift = prec +
    guard, guard = bit_length(prec) + 5; a unit below is 2^-shift.  The
    coefficients c_j of mu^j (H_{k-1}/(k-1)! for j = k-1) depend only on k
    and shift, and are cut once per (k, shift) from the one row of 2^shift
    zeta(s) ints kept per shift (`_log_branch_coeffs`); each lies below 2
    and within 3 units, and together they sum to less than 6.  The powers
    P_j = P_{j-1} M >> shift, from M = mu truncated, stay within 5 units
    because |mu| < log 2.  The log term, -P_{k-2} Q / (k-1)! with
    Q = mu log(-mu) within 1 unit (|Q| < 1/e), is within 4 units however
    close t is to 1; `branch` holds M, Q and the powers, extended in place
    (`_log_branch_state`).  Past j = 1 the terms shrink by a factor of at
    least 0.65, some being 0 (zeta vanishes at negative even integers), so
    the sum stops on a run of three terms of at most 2 units and leaves
    less than 25 units behind.  With one unit per floored product, an order
    of N terms is within N + 70 units, and N <= kmax + shift/3 + 2: for
    kmax < 4 prec that is below 2^-(prec+2), or 2^-(prec+1) relative, as
    Li_k(e^mu) > 1/2.  Each order, rounded once, depends only on k, mu and
    prec.
    """
    shift = prec + prec.bit_length() + 5
    m, q, powers = branch
    out = []
    for k in range(max(2, start), kmax + 1):
        total = small_run = 0
        for j, c in enumerate(_log_branch_coefficients(k, shift)):
            if j == len(powers):
                powers.append(powers[-1] * m >> shift)
            term = c * powers[j] >> shift
            if j == k - 1:
                term -= (powers[k - 2] * q >> shift) // math.factorial(k - 1)
            total += term
            # zeta vanishes at negative even integers, so require a run of
            # small terms before stopping
            small_run = small_run + 1 if -2 <= term <= 2 else 0
            if small_run == 3:
                break
        out.append(libmp.mpf_shift(libmp.from_int(total, prec, _RND), -shift))
    return out


def polylog_value(k: int, t, digits: int = 30) -> mpf:
    """Li_k(t) for real 0 <= t <= 1 (t < 1 when k < 2).

    One pass of `_polylog_orders` yields order k alone, within
    2^-(prec+1) relative before its one rounding, and with the bits the
    same order has in any run of t.  An mpf argument is rounded to the
    working precision first.  Nothing is kept: `numeric_eval` keeps its
    atom values in `_atom_cache`, and a quadrature node keeps its run.
    """
    if not isinstance(k, int) or k < 0:
        raise InvalidOrder(f"polylog_value requires integer k >= 0, got {k!r}")
    rational = isinstance(t, (int, Fraction))
    with mp.workdps(digits + GUARD_DIGITS):
        if rational:
            t = Fraction(t)
            tv, comp = frac_mpf(t), frac_mpf(1 - t)
        else:
            t = tv = mpf(t)  # rounded to the working precision
            comp = 1 - tv
        if not (0 <= tv <= 1) or comp < 0:
            raise ParameterError(f"polylog_value expects 0 <= t <= 1, got {t!r}")
        if comp == 0:
            if k >= 2:
                return zeta_value(k, digits)
            raise DivergentValue(f"Li_{k}(1) diverges")
        return mp.make_mpf(_polylog_orders(k, t if rational else tv._mpf_, comp._mpf_, k)[0])


# -- linear Euler sums --------------------------------------------------------------

# shift -> [c_0, c_1, ...], c_m = 2^shift B_m/m! truncated (B_1 = -1/2, and
# c_m = 0 for odd m >= 3), extended as longer tail series ask for more
_bernoulli_coeffs: dict[int, list[int]] = {}


def _bernoulli_coefficients(count: int, shift: int) -> list[int]:
    coeffs = _bernoulli_coeffs.setdefault(shift, [])
    if len(coeffs) < count:
        # 8 bits past the fixed point leave each c_m within 1 unit
        with mp.workprec(shift + 8):
            coeffs += [int(mp.ldexp(mp.bernoulli(m) / mp.factorial(m), shift))
                       if m < 2 or m % 2 == 0 else 0
                       for m in range(len(coeffs), count)]
    return coeffs


def _tail_coefficients(p: int, q: int, shift: int, drops: list[int]) -> list[int]:
    """C_k = 2^(shift - drops[k]) d_k Gamma(q) / Gamma(p+q+k-2) for each k
    of `drops`, for the d_k of `_euler_tail`, each within 13 units.  As
    (s)_{-1} = 1/(s-1), the pair b_l(q) b_m(p+q-1+l) is Gamma(p+q+k-2) /
    Gamma(q) B_l/l! B_m/m! / (q+l-1)_p and b_{k-1}(p+q) is Gamma(p+q+k-2) /
    Gamma(q) B_{k-1}/(k-1)! / (q)_p, so C_k is a convolution whose divisors
    are one running rising factorial, its operands cut by drops[k] bits.
    """
    beta = _bernoulli_coefficients(len(drops), shift)
    rising = math.prod(range(q - 1, q + p - 1))  # (q+l-1)_p at l = 0
    weighted = []
    for l in range(len(drops)):
        weighted.append(beta[l] // rising)
        rising = rising * (q + l + p - 1) // (q + l - 1)
    q_p = math.prod(range(q, q + p))
    return [(sum((weighted[l] >> d) * (beta[k - l] >> d) for l in range(k + 1)) >> (shift - d))
            + ((beta[k - 1] >> d) // q_p if k else 0)
            for k, d in enumerate(drops)]


def _euler_tail(p: int, q: int, n: int, shift: int) -> int:
    """2^shift sum_{j > N} j^-p sum_{i >= j} i^-q at N = n as an integer
    (fixed point), from its asymptotic series sum_{k <= K} d_k N^-(p+q-2+k).

    The sum is Z(p+q, N) + sum_l b_l(q) Z(p+q-1+l, N), with Euler-Maclaurin's
    Z(s, N) = sum_{i > N} i^-s = sum_m b_m(s) N^-(s-1+m), b_m(s) =
    B_m/m! (s)_{m-1}; so d_k = sum_{l+m=k} b_l(q) b_m(p+q-1+l) + b_{k-1}(p+q).
    A cut series of x^-s loses at most twice its first omitted term; with
    |B_m/m!| <= 3.3 (2 pi)^-m, the orders past K add up to less than
        E = (14 K + 140) Gamma(p+q+K-1) / (Gamma(q) (2 pi N)^(K+1) N^(p+q-2))
    while N >= p + q + K, and K is the least with E <= 2^-shift.  Term k is
    G_k C_k, where G_k = Gamma(p+q+k-2) / (Gamma(q) N^(p+q+k-2)) <= 1 is
    floored at k = 0 and carried by G_{k+1} = G_k (p+q+k-2) // N, within
    k + 1 units.  As G_k < 2^-d_k, d_k = shift - bit_length(2^shift G_k), C_k
    (`_tail_coefficients`, |C_k| <= 2) is needed only to 2^-(shift-d_k), and
    term k is within 2k + 16 units of 2^-shift, the sum in (K + 1)(K + 16).
    """
    w = p + q
    terms = next(
        k for k in range(n - w + 1)
        if (math.log2(14 * k + 140) + (math.lgamma(w + k - 1) - math.lgamma(q)) / math.log(2)
            - (k + 1) * math.log2(2 * math.pi * n) - (w - 2) * math.log2(n)) <= -shift)
    scales = [(1 << shift) * math.factorial(w - 3) // (math.factorial(q - 1) * n ** (w - 2))]
    for k in range(terms):
        scales.append(scales[-1] * (w + k - 2) // n)
    drops = [shift - g.bit_length() for g in scales]
    return sum(g * c >> (shift - d)
               for g, d, c in zip(scales, drops, _tail_coefficients(p, q, shift, drops)))


def euler_sum_value(p: int, q: int, digits: int = 30) -> mpf:
    """S_{p,q} = sum_{n >= 1} H_n^(p) / n^q, numerically, as

        sum_{n <= N} H_n^(p) n^-q + H_N^(p) (zeta(q) - H_N^(q))
        + sum_{j > N} j^-p sum_{i >= j} i^-q        (`_euler_tail`),

    N = p + q + 2 prec at the working precision prec (digits +
    GUARD_DIGITS + 5 decimal digits).  The terms past M sum to less than
    (2 + ln M) / ((q-1) M^(q-1)); if that is below 2^-shift for some M <= N,
    the direct sum stops at the least such M and skips the rest.  In fixed
    point, shift = prec + 2 bit_length(N) + 8, the direct sums are within
    (N + 1)(3 + ln N) + 2 units of 2^-shift, zeta(q) adds 1 + ln N, the
    series (K + 1)(K + 16) with K < N and its cut 1: less than 4 (N + 1)^2
    units, 2^-(prec+6), in all, and relative as S_{p,q} >= 1.
    """
    if not isinstance(p, int) or p < 1:
        raise InvalidOrder(f"euler_sum_value requires integer p >= 1, got {p!r}")
    if not isinstance(q, int) or q < 2:
        raise InvalidOrder(f"euler_sum_value requires integer q >= 2, got {q!r}")
    with mp.workdps(digits + GUARD_DIGITS + 5):
        n_cut = p + q + 2 * mp.prec
        shift = mp.prec + 2 * n_cut.bit_length() + 8
        one = 1 << shift
        # the least M whose later terms sum below 2^-shift, or n_cut + 1
        stop = bisect.bisect_left(
            range(n_cut + 1), True,
            key=lambda m: (q - 1) * m ** (q - 1) >= (m.bit_length() + 2) << shift)
        h = hq = acc = 0
        for n in range(1, min(stop, n_cut) + 1):
            nq = n**q
            h += one // n**p
            hq += one // nq
            acc += h // nq
        if stop > n_cut:
            with mp.workprec(shift + 8):
                zq = int(mp.ldexp(mp.zeta(q), shift))
            acc += (h * (zq - hq) >> shift) + _euler_tail(p, q, n_cut, shift)
        return mp.ldexp(mpf(acc), -shift)


# -- closed-form evaluation -----------------------------------------------------------

# polylogarithm atom kind -> its argument at the point x
_LI_ARGUMENTS = {
    "LiAtHalf": lambda x: Fraction(1, 2),
    "LiX": lambda x: x,
    "Li1mX": lambda x: 1 - x,
    "LiInv1pX": lambda x: 1 / (1 + x),
}

# atom kind -> its value from (x, digits, *args), x None for a constant;
# called at the working precision of digits + GUARD_DIGITS; the polylog
# kinds come from `_polylog_orders` at their `_LI_ARGUMENTS` instead
_VALUE_RULES = {
    "Zeta": lambda x, digits, s: zeta_value(s, digits),
    "LogTwo": lambda x, digits: mp.log(2),
    "Harmonic": lambda x, digits, n, m: frac_mpf(harmonic_value(n, m)),
    "EulerSum": lambda x, digits, p, q: euler_sum_value(p, q, digits),
    "LogX": lambda x, digits: mp.log(frac_mpf(x)),
    "Log1mX": lambda x, digits: mp.log(frac_mpf(1 - x)),
    "Log1pX": lambda x, digits: mp.log(frac_mpf(1 + x)),
    "XPow": lambda x, digits, j: frac_mpf(x) ** j,
    "OneMinusXPow": lambda x, digits, j: frac_mpf(1 - x) ** j,
    "OnePlusXPow": lambda x, digits, j: frac_mpf(1 + x) ** j,
}

# (x, digits) -> {atom: its value at x, a raw libmp value at the working
# precision of digits + GUARD_DIGITS, and (atom, e): that value^e rounded
# likewise, an exact pair (man, exp); an atom never equals such a pair}.
# A constant atom and its powers are kept under (None, digits) only, for
# every point.  The one store of atom values in this module.
_atom_cache: dict[tuple[Optional[Fraction], int], dict[exact.Atom, tuple]] = {}


def _floor_to_unit(terms: list[tuple[int, int, int]], prec: int) -> tuple[list[int], int]:
    """The exact terms man 2^exp / den (den > 0) as ints floored to one
    unit 2^unit, and that unit: the sum rule of `numeric_eval` and of the
    oracle's level sums.  With top = bit_length(man) + exp - bit_length(den)
    + 1 largest over the nonzero terms, 2^(top-2) is at most the largest
    |term| (2^(top-1) if den = 1), and unit = top - (prec + 2 bit_length(N)
    + 8) for N terms.  Each floor loses under one unit, so a sum of the ints
    (or of their magnitudes) is short of the exact sum by less than N units,
    under 2^-(prec + bit_length(N) + 6) of the largest term, before it is
    rounded once to prec bits."""
    top = max((man.bit_length() + exp - den.bit_length() + 1
               for man, exp, den in terms if man), default=0)
    unit = top - (prec + 2 * len(terms).bit_length() + 8)
    # floor(floor(man / 2^k) / den) = floor(man / (2^k den)): shift, then divide
    return [(man << (exp - unit) if exp >= unit else man >> (unit - exp)) // den
            for man, exp, den in terms], unit


def _sum_terms(form: exact.ClosedForm, x: Optional[Fraction],
               digits: int) -> tuple[int, int, int, int]:
    """(total, magnitude, unit, prec): the form's value and the sum of its
    terms' magnitudes as total 2^unit and magnitude 2^unit, with the atoms
    valued at `digits` and prec the working precision of digits +
    GUARD_DIGITS.  Each distinct atom is valued once per (atom, x, digits),
    a constant atom once per (atom, digits), and kept (`_atom_cache`),
    however many terms, forms and points share it.  The orders of one
    polylog argument that a form lacks come from one `_polylog_orders`
    pass, from the lowest of them to the highest, to the bits of any run.

    Each distinct power atom^e is rounded to prec bits once and kept
    likewise (libmp.mpf_pow_int, within 2^(1-prec) relative), so a term
    with f factors is within 2 f 2^-prec of the exact product of its atom
    values.  A term, coeff p/q times the powers m_i 2^e_i, is then the
    exact fraction p prod m_i 2^(sum e_i) / q, and the terms are summed by
    the rule of `_floor_to_unit`.
    """
    atoms = dict.fromkeys(atom for term in form.terms for atom, _ in term.factors)
    consts = _atom_cache.setdefault((None, digits), {})
    values = consts if x is None else _atom_cache.setdefault((x, digits), {})
    missing = [atom for atom in atoms if atom not in consts and atom not in values]
    if missing:
        # polylog kind -> (the store of its values, its missing atoms)
        runs: dict[str, tuple[dict, list[exact.Atom]]] = {}
        with mp.workdps(digits + GUARD_DIGITS):
            for atom in missing:
                store = consts if atom.is_constant else values
                if atom.kind in _LI_ARGUMENTS:
                    runs.setdefault(atom.kind, (store, []))[1].append(atom)
                else:
                    store[atom] = _VALUE_RULES[atom.kind](x, digits, *atom.args)._mpf_
            for kind, (store, group) in runs.items():
                t = _LI_ARGUMENTS[kind](x)
                orders = [atom.args[0] for atom in group]
                low = min(orders)
                run = _polylog_orders(max(orders), t, frac_mpf(1 - t)._mpf_, low)
                store.update((atom, run[k - low]) for atom, k in zip(group, orders))
    prec = libmp.dps_to_prec(digits + GUARD_DIGITS)  # mp.workdps's precision
    products = []  # (p prod m_i, sum e_i, q) per term
    for term in form.terms:
        man, exp = term.coeff.numerator, 0
        for factor in term.factors:
            power = values.get(factor) or consts.get(factor)
            if power is None:
                store = consts if factor[0].is_constant else values
                sign, m, e, _ = libmp.mpf_pow_int(store[factor[0]], factor[1], prec, _RND)
                power = store[factor] = (-m if sign else m, e)
            man *= power[0]
            exp += power[1]
        products.append((man, exp, term.coeff.denominator))
    floored, unit = _floor_to_unit(products, prec)
    return sum(floored), sum(map(abs, floored)), unit, prec


def numeric_eval(form: exact.ClosedForm, x: Optional[Number] = None,
                 digits: int = 30) -> mpf:
    """Evaluate a closed form numerically.

    `x` is the evaluation point as an exact rational in (0, 1]; it may be
    omitted for constant forms.  At x = 1 the form is first replaced by
    exact.limit(form, 1), so removable factors and divergences that cancel
    drop out exactly and genuinely divergent forms raise DivergentAtOne.

    Each distinct atom and atom power is computed once per (x, digits), a
    constant one once per digits, whatever the number of terms, forms and
    points it occurs in.  A pass values the atoms at digits + extra digits,
    extra = 0 at first, into the ints total and magnitude = sum |term| on
    one unit (`_sum_terms`, by the rule of `_floor_to_unit`), and is
    accepted when magnitude <= |total| 10^(extra + GUARD_DIGITS).
    Otherwise it is repeated with extra the least e with |total| 10^e >=
    magnitude, as often as needed: a noisy total reads too small a ratio.
    A total of exactly 0 counts as every working digit lost, and extra
    becomes digits + extra + GUARD_DIGITS; so a form whose value is exactly
    0 but which is not structurally zero never settles.  Past
    MAX_EXTRA_DIGITS extra digits the loop raises NonConvergent instead of
    returning noise.  The accepted total is rounded to the pass's precision,
    then to that of digits + GUARD_DIGITS.
    """
    if x is None:
        if not form.is_constant:
            raise ParameterError("closed form depends on x but no point was given")
    else:
        x = Fraction(x)
        if x == 1:
            form, x = exact.limit(form, 1), None  # constants only
        elif not 0 < x < 1:
            raise ParameterError(f"evaluation point must be in (0, 1], got {x}")
    extra = 0
    while True:
        total, magnitude, unit, prec = _sum_terms(form, x, digits + extra)
        if magnitude <= abs(total) * 10 ** (extra + GUARD_DIGITS):
            break
        if not total:  # every working digit lost
            extra = digits + extra + GUARD_DIGITS
        else:  # the least e past extra + GUARD_DIGITS with |total| 10^e >= magnitude
            extra += GUARD_DIGITS + 1
            while abs(total) * 10**extra < magnitude:
                extra += 1
        if extra > MAX_EXTRA_DIGITS:
            raise NonConvergent(
                f"the terms of the form cancel past {MAX_EXTRA_DIGITS} extra digits")
    value = libmp.from_man_exp(total, unit, prec, _RND)
    return mp.make_mpf(libmp.mpf_pos(value, libmp.dps_to_prec(digits + GUARD_DIGITS), _RND))
