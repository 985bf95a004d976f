"""Reduction of linear Euler sums and the base values built from them.

The sums S(p,q) = sum_{n>=1} H_n^(p) / n^q collapse to zeta values in two
regimes: p = 1 (Euler's classical formula) and p+q odd (the symmetry
reduction, with zeta(1) read as 0 wherever it would appear).  Even-weight
sums with p >= 2 have no zeta-only closed form and stay as EulerSum atoms.

On top of the reductions sit the base values

    K(m, 0, q) = m! (-1)^m (S(q, m+1) - zeta(m+q+1))

for the log-weighted polylogarithm integrals, a cross-recurrence tying
K(r,0,q) to K(q-1,0,r+1) that serves purely as a second route for
verification, and two exact harmonic-number identities checked by the
test suites in rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import exact
from .errors import DivergentValue, InvalidOrder, ParameterError, _require_int
from .exact import ClosedForm
from .numerics import harmonic_value


def reduce_S1(i: int) -> ClosedForm:
    """S(1,i) = sum H_n / n^i in zeta values, for i >= 2.

    S(1,i) = (1 + i/2) zeta(i+1) - (1/2) sum_{k=1}^{i-2} zeta(k+1) zeta(i-k).
    Built once per i and shared, as a ClosedForm is immutable.
    """
    _require_int("i", i, 2, exc=InvalidOrder)
    return _reduce_s1(i)


@lru_cache(maxsize=None)
def _reduce_s1(i: int) -> ClosedForm:
    zeta = [None, None, *map(exact.zeta, range(2, i + 2))]  # each atom fetched once
    acc = exact.Accumulator()
    acc.add(i + 2, (zeta[i + 1], 1), den=2)
    for k in range(1, i - 1):
        acc.add(-1, *_zeta_pair(zeta, k + 1, i - k), den=2)
    return acc.form()


def _zeta_pair(zeta: list, a: int, b: int) -> exact.Factors:
    """The canonical factors of zeta(a) zeta(b), zeta[s] being the atom
    zeta(s): one squared factor when a == b."""
    if a == b:
        return ((zeta[a], 2),)
    if a > b:
        a, b = b, a
    return ((zeta[a], 1), (zeta[b], 1))


def _add_odd_weight(acc: exact.Accumulator, p: int, q: int, coeff: int) -> None:
    """Add coeff times the zeta-only form of S(p,q), odd weight w = p+q,
    p >= 2, to acc:

    S(p,q) = zeta(w) (1/2 - (-1)^p C(w-1,p)/2 - (-1)^p C(w-1,q)/2)
             + (1 - (-1)^p)/2 * zeta(p) zeta(q)
             + (-1)^p sum_{k=1}^{floor(p/2)} C(w-2k-1, q-1) zeta(2k) zeta(w-2k)
             + (-1)^p sum_{k=1}^{floor(q/2)} C(w-2k-1, p-1) zeta(2k) zeta(w-2k)

    with zeta(1) := 0, which silently drops any product whose second order
    degenerates to 1 (k <= (w-3)/2).  Each C(n, r) steps exactly from
    C(n+2, r), from C(w-1, q-1) = C(w-1, p) and C(w-1, p-1) = C(w-1, q).
    """
    w = p + q
    sign = (-1) ** p
    zeta = [None, None, *map(exact.zeta, range(2, w + 1))]  # each atom fetched once
    c_p, c_q = math.comb(w - 1, p), math.comb(w - 1, q)
    acc.add(coeff * (1 - sign * (c_p + c_q)), (zeta[w], 1), den=2)
    if p % 2 == 1:
        acc.add(coeff, *_zeta_pair(zeta, p, q))
    for bound, r, binom in ((p, q - 1, c_p), (q, p - 1, c_q)):
        n = w - 1
        for k in range(1, min(bound // 2, (w - 3) // 2) + 1):
            binom = binom * (n - r) * (n - r - 1) // (n * (n - 1))  # C(n - 2, r)
            n -= 2
            acc.add(coeff * sign * binom, *_zeta_pair(zeta, 2 * k, w - 2 * k))


def _add_s(acc: exact.Accumulator, p: int, q: int, coeff: int) -> None:
    """Add coeff times S(p,q), reduced as reduce_S reduces it, to acc;
    p >= 1 and q >= 2."""
    if p == 1:
        acc.add_form(_reduce_s1(q), coeff)
    elif (p + q) % 2 == 1:
        _add_odd_weight(acc, p, q, coeff)
    else:
        acc.add(coeff, (exact.euler_sum(p, q), 1))


def reduce_S(p: int, q: int) -> ClosedForm:
    """Reduce S(p,q) as far as a zeta-only closed form exists.

    p = 1 delegates to reduce_S1; odd p+q uses the symmetry reduction; the
    remaining even-weight sums are returned as a bare EulerSum atom.
    Raises DivergentValue for q < 2, where the sum diverges.
    """
    _require_int("p", p, 1)
    if not isinstance(q, int) or isinstance(q, bool):
        raise ParameterError(f"q must be an int, got {q!r}")
    if q < 2:
        raise DivergentValue(f"S({p},{q}) diverges: it needs q >= 2")
    acc = exact.Accumulator()
    _add_s(acc, p, q, 1)
    return acc.form()


def K_base(m: int, q: int) -> ClosedForm:
    """The integral of log^m(x) Li_q(x) / (x(1-x))-type weight over [0,1]:

    K(m,0,q) = m! (-1)^m (S(q, m+1) - zeta(m+q+1)),

    with the Euler sum reduced whenever reduce_S can.  Since m >= 1 the
    inner order m+1 is always >= 2 and the sum converges.  Built once per
    (m, q) and shared, as a ClosedForm is immutable.
    """
    _require_int("m", m, 1)
    _require_int("q", q, 1)
    return _k_base(m, q)


@lru_cache(maxsize=None)
def _k_base(m: int, q: int) -> ClosedForm:
    acc = exact.Accumulator()
    _add_k_base(acc, m, q, math.factorial(m))
    return acc.form()


def _add_k_base(acc: exact.Accumulator, m: int, q: int, coeff: int) -> None:
    """Add coeff/m! times K(m,0,q), coeff (-1)^m (S(q, m+1) - zeta(m+q+1)),
    to acc, as K_base would build it but without its checks."""
    coeff *= (-1) ** m
    _add_s(acc, q, m + 1, coeff)
    acc.add(-coeff, (exact.zeta(m + q + 1), 1))


def freitas_K0_recurrence(r: int, q: int) -> ClosedForm:
    """K(r,0,q) through the cross-recurrence, as an independent route:

    K(r,0,q) = (-1)^(r+q) r!/(q-1)! K(q-1,0,r+1)
               + (-1)^r r! (zeta(r+1) zeta(q) - zeta(r+q+1)).

    The residual on the second line is forced by the symmetry relation
    S(a,b) + S(b,a) = zeta(a)zeta(b) + zeta(a+b); anything else breaks
    weight homogeneity.  Exists solely for cross-checking K_base, so the
    right-hand K value is taken from K_base directly.
    """
    _require_int("r", r, 1)
    _require_int("q", q, 2)
    swapped = K_base(q - 1, r + 1).scale(
        Fraction((-1) ** (r + q) * math.factorial(r), math.factorial(q - 1))
    )
    residual = (exact.monomial(1, (exact.zeta(r + 1), 1), (exact.zeta(q), 1))
                - ClosedForm.of(exact.zeta(r + q + 1)))
    return swapped + residual.scale((-1) ** r * math.factorial(r))


def _alt_binomial_harmonic(n: int) -> Fraction:
    """sum_{j=0}^{n-1} C(n, j+1) (-1)^j / (j+1): the alternating spelling of H_n."""
    return sum(
        (Fraction((-1) ** j * math.comb(n, j + 1), j + 1) for j in range(n)),
        Fraction(0),
    )


def check_prop2(m: int) -> tuple[Fraction, Fraction]:
    """Both sides of the second-order harmonic identity, as exact rationals.

    With G(n) = sum_{j=0}^{n-1} C(n,j+1)(-1)^j/(j+1):

        H_{m+1}^(2) = G(m+1)^2 / 2
                      + (1/2) sum_{b=0}^{m} (G(m+1) - G(b)) / (m+1-b)
                      - sum_{k=1}^{m} G(k) / (k+1).

    Returns (lhs, rhs); callers assert equality.
    """
    _require_int("m", m, 0)
    g = _alt_binomial_harmonic(m + 1)
    rhs = g * g / 2
    rhs += sum(
        ((g - _alt_binomial_harmonic(b)) / (m + 1 - b) for b in range(m + 1)),
        Fraction(0),
    ) / 2
    rhs -= sum(
        (_alt_binomial_harmonic(k) / (k + 1) for k in range(1, m + 1)),
        Fraction(0),
    )
    return harmonic_value(m + 1, 2), rhs


def harmonic_binomial_identity(m: int) -> tuple[Fraction, Fraction]:
    """H_{m+1} and its binomial spelling (m+1) sum_{j=0}^m C(m,j)(-1)^j/(j+1)^2.

    Returns (lhs, rhs); callers assert equality.
    """
    _require_int("m", m, 0)
    rhs = (m + 1) * sum(
        (Fraction((-1) ** j * math.comb(m, j), (j + 1) ** 2) for j in range(m + 1)),
        Fraction(0),
    )
    return harmonic_value(m + 1), rhs
