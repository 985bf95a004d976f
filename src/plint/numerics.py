"""High-precision numeric values for the symbolic atoms.

Everything here works on mpmath floats at an explicit decimal precision
and is independent of the closed-form evaluators: zeta values come from
the Borwein alternating-series acceleration, polylogarithms from the
defining series (small argument) or the expansion around the logarithmic
singularity at 1 (large argument), and linear Euler sums from direct
partial sums with Euler-Maclaurin tail corrections.  The quadrature
oracle and the CLI sit on top of this module.

All public functions take a decimal `digits` target and compute with
guard digits internally; returned mpf values carry the guard precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from mpmath import mp, mpf

from . import exact
from .errors import DivergentValue, InvalidOrder, NonConvergent, ParameterError

GUARD_DIGITS = 10

Number = Union[int, Fraction]


def frac_mpf(q: Number) -> mpf:
    """Exact rational -> mpf at the current working precision."""
    q = Fraction(q)
    return mpf(q.numerator) / mpf(q.denominator)


# -- zeta ----------------------------------------------------------------------

# (s, mp.prec) -> zeta(s); shared by zeta_value, the polylog expansion
# around 1 and the Euler-sum tails
_zeta_cache: dict[tuple[int, int], mpf] = {}


def _borwein_eta_zeta(s: int) -> mpf:
    """zeta(s), s >= 2, via Borwein's acceleration of eta(s), at the
    current working precision.

    With n terms the error shrinks like (3 + sqrt(8))^-n, so n is about
    1.31 times the digit target.  The d_k are exact integers.
    """
    key = (s, mp.prec)
    if key in _zeta_cache:
        return _zeta_cache[key]
    n = int(mp.dps / math.log10(3.0 + math.sqrt(8.0))) + 3
    d = [0] * (n + 1)
    acc = 0
    num = math.factorial(n - 1)  # (n+i-1)! running value, i = 0
    for i in range(n + 1):
        acc += num * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
        d[i] = n * acc
        num *= n + i
    total = mp.zero
    sign = 1
    for k in range(n):
        total += sign * mpf(d[k] - d[n]) / mpf(k + 1) ** s
        sign = -sign
    eta = -total / d[n]
    _zeta_cache[key] = eta / (1 - mpf(2) ** (1 - s))
    return _zeta_cache[key]


def zeta_value(s: int, digits: int = 30) -> mpf:
    """Riemann zeta at an integer s >= 2."""
    if not isinstance(s, int) or s < 2:
        raise InvalidOrder(f"zeta_value requires integer s >= 2, got {s!r}")
    with mp.workdps(digits + GUARD_DIGITS):
        return _borwein_eta_zeta(s)


def _zeta_any(s: int) -> mpf:
    """zeta at any integer except 1, at the current working precision.

    Negative and zero arguments come from Bernoulli numbers; they feed the
    polylogarithm expansion around argument 1.
    """
    if s >= 2:
        return _borwein_eta_zeta(s)
    if s == 1:
        raise DivergentValue("zeta(1) diverges")
    if s == 0:
        return mpf(-1) / 2
    return -mp.bernoulli(1 - s) / (1 - s)


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

_MAX_SERIES_TERMS = 10**7

_polylog_cache: dict[tuple, mpf] = {}


def _polylog_series(k: int, t: mpf) -> mpf:
    """Direct defining series; good for |t| <= 1/2 (geometric tail)."""
    eps = mpf(10) ** (-(mp.dps + 2))
    total = mp.zero
    power = mpf(1)
    one_minus = 1 - t
    for n in range(1, _MAX_SERIES_TERMS):
        power *= t
        total += power / mpf(n) ** k
        # tail bound: sum_{m>n} t^m/m^k < t^{n+1} / ((n+1)^k (1-t)); the
        # stop must be relative to the (tiny, positive) total because
        # integrands divide Li_k(t) by powers of t
        if abs(power * t) / (mpf(n + 1) ** k * one_minus) < eps * abs(total):
            return total
    raise NonConvergent(f"polylog series did not converge for k={k}, t={t}")


def _polylog_log_branch(k: int, mu: mpf) -> mpf:
    """Li_k(e^mu) for small negative mu, from the expansion around 1:

        Li_k(e^mu) = sum_{j >= 0, j != k-1} zeta(k-j) mu^j / j!
                     + mu^(k-1)/(k-1)! (H_{k-1} - log(-mu))

    Valid for |mu| < 2 pi; here mu = log t with t in (1/2, 1).
    """
    eps = mpf(10) ** (-(mp.dps + 2))
    total = mpf(mu) ** (k - 1) / mp.factorial(k - 1) * (
        frac_mpf(harmonic_value(k - 1)) - mp.log(-mu)
    )
    power = mpf(1)  # mu^j / j!
    small_run = 0
    for j in range(0, 400):
        if j > 0:
            power *= mu / j
        if j == k - 1:
            continue
        term = _zeta_any(k - j) * power
        total += term
        # zeta vanishes at negative even integers, so require a run of
        # small terms before stopping
        if j > k and abs(term) < eps * max(1, abs(total)):
            small_run += 1
            if small_run >= 3:
                return total
        else:
            small_run = 0
    raise NonConvergent(f"polylog expansion did not converge for k={k}, mu={mu}")


def polylog_value(k: int, t, digits: int = 30, *, one_minus_t=None) -> mpf:
    """Li_k(t) for real 0 <= t <= 1 (t < 1 when k < 2).

    `one_minus_t`, when given, is a precomputed 1-t carrying full relative
    accuracy; pass it when t is so close to 1 that forming 1-t by
    subtraction would lose the distance to the endpoint (quadrature nodes).
    """
    if not isinstance(k, int) or k < 0:
        raise InvalidOrder(f"polylog_value requires integer k >= 0, got {k!r}")
    # memoize on both sides of the argument: near 0 the complement rounds
    # to exactly 1 for many distinct t, near 1 it is t that degenerates,
    # so neither alone is collision-free (mpf values hash consistently)
    if isinstance(t, (int, Fraction)):
        cache_key = (k, Fraction(t), None, digits)
    else:
        cache_key = (k, t, one_minus_t, digits)
    if cache_key in _polylog_cache:
        return _polylog_cache[cache_key]
    with mp.workdps(digits + GUARD_DIGITS):
        tv = frac_mpf(t) if isinstance(t, (int, Fraction)) else mpf(t)
        if one_minus_t is not None:
            comp = mpf(one_minus_t)
        else:
            comp = frac_mpf(1 - Fraction(t)) if isinstance(t, (int, Fraction)) else 1 - tv
        if not (0 <= tv <= 1) or comp < 0:
            raise ParameterError(f"polylog_value expects 0 <= t <= 1, got {t!r}")
        if comp == 0:
            if k >= 2:
                value = zeta_value(k, digits)
            else:
                raise DivergentValue(f"Li_{k}(1) diverges")
        elif tv == 0:
            value = mp.zero
        elif k == 0:
            value = tv / comp
        elif k == 1:
            value = -mp.log(comp)
        elif tv <= 0.5:
            value = _polylog_series(k, tv)
        else:
            value = _polylog_log_branch(k, mp.log1p(-comp))
    _polylog_cache[cache_key] = value
    return value


# -- Euler-Maclaurin zeta tails ---------------------------------------------------

def _zeta_tail(s: int, n0: int) -> mpf:
    """sum_{n > n0} n^-s at the current working precision (s >= 2)."""
    nf = mpf(n0)
    eps = mpf(10) ** (-(mp.dps + 2))
    total = nf ** (1 - s) / (s - 1) - nf ** (-s) / 2
    rising = mpf(s)  # (s)_{2j-1}, starting at j = 1
    prev = mp.inf
    for j in range(1, 80):
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising * nf ** (-(s + 2 * j - 1))
        if abs(term) >= prev:
            break  # asymptotic series started to grow
        total += term
        if abs(term) < eps * max(1, abs(total)):
            break
        prev = abs(term)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def _log_deriv_coeffs(q: int, k: int) -> tuple[int, int]:
    """(a_k, b_k) with d^k/dx^k [log(x) x^-q] = x^(-q-k) (a_k + b_k log x)."""
    a, b = 0, 1
    for i in range(k):
        a, b = b - (q + i) * a, -(q + i) * b
    return a, b


def _log_zeta_tail(q: int, n0: int) -> mpf:
    """sum_{n > n0} log(n) n^-q at the current working precision (q >= 2)."""
    nf = mpf(n0)
    ln = mp.log(nf)
    eps = mpf(10) ** (-(mp.dps + 2))
    total = nf ** (1 - q) * (ln / (q - 1) + mpf(1) / (q - 1) ** 2)
    total -= ln * nf ** (-q) / 2
    prev = mp.inf
    for j in range(1, 80):
        a, b = _log_deriv_coeffs(q, 2 * j - 1)
        deriv = nf ** (-(q + 2 * j - 1)) * (a + b * ln)
        term = -mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
        if abs(term) >= prev:
            break
        total += term
        if abs(term) < eps * max(1, abs(total)):
            break
        prev = abs(term)
    return total


# -- linear Euler sums --------------------------------------------------------------

_euler_cache: dict[tuple[int, int, int], mpf] = {}


def euler_sum_value(p: int, q: int, digits: int = 30) -> mpf:
    """S_{p,q} = sum_{n >= 1} H_n^(p) / n^q, numerically.

    Partial sum to N, then a tail from the asymptotics of H_n^(p): for
    p = 1 the log/gamma expansion of H_n, for p >= 2 the expansion of
    zeta(p) - H_n^(p) as a zeta tail; both reduce the remainder to
    Euler-Maclaurin zeta tails evaluated at N.
    """
    if not isinstance(p, int) or p < 1:
        raise InvalidOrder(f"euler_sum_value requires integer p >= 1, got {p!r}")
    if not isinstance(q, int) or q < 2:
        raise InvalidOrder(f"euler_sum_value requires integer q >= 2, got {q!r}")
    key = (p, q, digits)
    if key in _euler_cache:
        return _euler_cache[key]
    n_cut = 2000 + 120 * digits
    with mp.workdps(digits + GUARD_DIGITS + 5):
        partial = mp.zero
        h = mp.zero
        for n in range(1, n_cut + 1):
            h += mpf(n) ** (-p)
            partial += h * mpf(n) ** (-q)
        if p == 1:
            # H_n = log n + gamma + 1/(2n) - sum_j B_2j / (2j n^2j)
            tail = _log_zeta_tail(q, n_cut)
            tail += mp.euler * _zeta_tail(q, n_cut)
            tail += _zeta_tail(q + 1, n_cut) / 2
            eps = mpf(10) ** (-(mp.dps + 2))
            for j in range(1, 60):
                term = mp.bernoulli(2 * j) / (2 * j) * _zeta_tail(q + 2 * j, n_cut)
                tail -= term
                if abs(term) < eps:
                    break
        else:
            # H_n^(p) = zeta(p) - r_n,  r_n = sum_{k > n} k^-p expanded by
            # Euler-Maclaurin in powers of 1/n
            tail = _borwein_eta_zeta(p) * _zeta_tail(q, n_cut)
            tail -= _zeta_tail(p + q - 1, n_cut) / (p - 1)
            tail += _zeta_tail(p + q, n_cut) / 2
            eps = mpf(10) ** (-(mp.dps + 2))
            rising = mpf(p)  # (p)_{2j-1}
            for j in range(1, 60):
                term = (mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising
                        * _zeta_tail(p + q + 2 * j - 1, n_cut))
                tail -= term
                if abs(term) < eps:
                    break
                rising *= (p + 2 * j - 1) * (p + 2 * j)
        value = partial + tail
    _euler_cache[key] = value
    return value


# -- closed-form evaluation -----------------------------------------------------------

def _atom_value(atom: exact.Atom, x: Optional[Fraction], digits: int) -> mpf:
    kind, args = atom.kind, atom.args
    if kind == "Zeta":
        return zeta_value(args[0], digits)
    if kind == "LogTwo":
        return mp.log(2)
    if kind == "LiAtHalf":
        return polylog_value(args[0], Fraction(1, 2), digits)
    if kind == "Harmonic":
        return frac_mpf(harmonic_value(args[0], args[1]))
    if kind == "EulerSum":
        return euler_sum_value(args[0], args[1], digits)
    assert x is not None
    if kind == "LogX":
        return mp.log(frac_mpf(x))
    if kind == "Log1mX":
        return mp.log(frac_mpf(1 - x))
    if kind == "Log1pX":
        return mp.log(frac_mpf(1 + x))
    if kind == "XPow":
        return frac_mpf(x) ** args[0]
    if kind == "OneMinusXPow":
        return frac_mpf(1 - x) ** args[0]
    if kind == "OnePlusXPow":
        return frac_mpf(1 + x) ** args[0]
    if kind == "LiX":
        return polylog_value(args[0], x, digits)
    if kind == "Li1mX":
        return polylog_value(args[0], 1 - x, digits)
    if kind == "LiInv1pX":
        return polylog_value(args[0], Fraction(1, 1 + x), digits)
    raise ParameterError(f"no numeric rule for atom {atom!r}")  # pragma: no cover


def _sum_terms(form: exact.ClosedForm, x: Optional[Fraction],
               digits: int) -> tuple[mpf, mpf]:
    """The form's value and the sum of its terms' magnitudes, with the atoms
    at `digits` and the arithmetic at digits + GUARD_DIGITS."""
    with mp.workdps(digits + GUARD_DIGITS):
        total = mp.zero
        magnitude = mp.zero
        for term in form.terms:
            val = frac_mpf(term.coeff)
            for atom, expn in term.factors:
                val *= _atom_value(atom, x, digits) ** expn
            total += val
            magnitude += abs(val)
        return total, magnitude


def numeric_eval(form: exact.ClosedForm, x: Optional[Number] = None,
                 digits: int = 30) -> mpf:
    """Evaluate a closed form numerically.

    `x` is the evaluation point as an exact rational in (0, 1]; it may be
    omitted for constant forms.  At x = 1 the form is first pushed through
    its x -> 1- limit, so removable factors cancel exactly and genuinely
    divergent forms raise DivergentAtOne.

    When the terms cancel so far that sum |term| / |value| exceeds
    10^GUARD_DIGITS, the guard digits cannot cover the loss; the form is then
    evaluated once more with the working digits raised by that many digits.
    """
    if x is not None:
        x = Fraction(x)
        if not 0 < x <= 1:
            raise ParameterError(f"evaluation point must be in (0, 1], got {x}")
        if x == 1:
            form = exact.eval_at_one(form)
            x = None
    if x is None and not form.is_constant:
        raise ParameterError("closed form depends on x but no point was given")
    total, magnitude = _sum_terms(form, x, digits)
    with mp.workdps(digits + GUARD_DIGITS):
        if total and magnitude > abs(total) * mpf(10) ** GUARD_DIGITS:
            lost = math.ceil(mp.log10(magnitude / abs(total)))
            total, _ = _sum_terms(form, x, digits + lost)
        return +total
