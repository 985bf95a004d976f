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

from . import exact
from .errors import InvalidOrder, NonConvergent, _require_int
from .exact import ClosedForm
from .numerics import harmonic_value


def _zeta_product(a: int, b: int) -> ClosedForm:
    """zeta(a)*zeta(b) as a single canonical term (squared atom when a == b)."""
    return ClosedForm.of(exact.zeta(a)) * ClosedForm.of(exact.zeta(b))


def reduce_S1(i: int) -> ClosedForm:
    """S(1,i) = sum H_n / n^i in zeta values, for i >= 2.

    S(1,i) = (1 + i/2) zeta(i+1) - (1/2) sum_{k=1}^{i-2} zeta(k+1) zeta(i-k).
    """
    _require_int("i", i, 2, exc=InvalidOrder)
    out = ClosedForm.of(exact.zeta(i + 1), coeff=Fraction(i + 2, 2))
    for k in range(1, i - 1):
        out = out - _zeta_product(k + 1, i - k).scale(Fraction(1, 2))
    return out


def _odd_weight_reduction(p: int, q: int) -> ClosedForm:
    """Zeta-only form of S(p,q) for odd weight w = p+q, p >= 2.

    S(p,q) = zeta(w) (1/2 - (-1)^p C(w-1,p)/2 - (-1)^p C(w-1,q)/2)
             + (1 - (-1)^p)/2 * zeta(p) zeta(q)
             + (-1)^p sum_{k=1}^{floor(p/2)} C(w-2k-1, q-1) zeta(2k) zeta(w-2k)
             + (-1)^p sum_{k=1}^{floor(q/2)} C(w-2k-1, p-1) zeta(2k) zeta(w-2k)

    with zeta(1) := 0, which silently drops any product whose second order
    degenerates to 1.
    """
    w = p + q
    sign = (-1) ** p
    head = Fraction(1, 2) - Fraction(sign, 2) * (math.comb(w - 1, p) + math.comb(w - 1, q))
    out = ClosedForm.of(exact.zeta(w), coeff=head)
    if p % 2 == 1:
        out = out + _zeta_product(p, q)
    for bound, other in ((p, q), (q, p)):
        for k in range(1, bound // 2 + 1):
            if w - 2 * k < 2:
                continue
            coeff = sign * math.comb(w - 2 * k - 1, other - 1)
            out = out + _zeta_product(2 * k, w - 2 * k).scale(coeff)
    return out


def reduce_S(p: int, q: int) -> ClosedForm:
    """Reduce S(p,q) as far as a zeta-only closed form exists.

    p = 1 delegates to reduce_S1; odd p+q uses the symmetry reduction; the
    remaining even-weight sums are returned as a bare EulerSum atom.
    """
    _require_int("p", p, 1)
    if not isinstance(q, int) or isinstance(q, bool) or q < 2:
        raise NonConvergent(f"S({p},{q!r}) requires q >= 2; the sum diverges below that")
    if p == 1:
        return reduce_S1(q)
    if (p + q) % 2 == 1:
        return _odd_weight_reduction(p, q)
    return ClosedForm.of(exact.euler_sum(p, q))


def K_base(m: int, q: int) -> ClosedForm:
    """The integral of log^m(x) Li_q(x) / (x(1-x))-type weight over [0,1]:

    K(m,0,q) = m! (-1)^m (S(q, m+1) - zeta(m+q+1)),

    with the Euler sum reduced whenever reduce_S can.  Since m >= 1 the
    inner order m+1 is always >= 2 and the sum converges.
    """
    _require_int("m", m, 1)
    _require_int("q", q, 1)
    s_part = reduce_S(q, m + 1) - ClosedForm.of(exact.zeta(m + q + 1))
    return s_part.scale(Fraction((-1) ** m * math.factorial(m)))


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
    residual = _zeta_product(r + 1, q) - ClosedForm.of(exact.zeta(r + q + 1))
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
