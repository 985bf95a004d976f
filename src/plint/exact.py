"""Exact term algebra for closed forms over a fixed symbolic vocabulary.

A closed form here is a finite sum of terms

    coeff * atom_1^e_1 * ... * atom_r^e_r

with exact rational coefficients and atoms drawn from a closed vocabulary:
constants (zeta values, log 2, polylogs at 1/2, harmonic numbers, linear
Euler sums) and functions of a single variable x on (0, 1] (log x,
log(1-x), log(1+x), integer powers of x, 1-x, 1+x, and polylogs at x,
1-x, 1/(1+x)).  The table ``VOCABULARY`` declares it once: each row gives
a kind's place in the canonical factor order, the minimum of each of its
arguments, whether it is constant, its ``compact`` spelling and its
x -> 1-x image.  Adding a kind takes one row there, one factory below it,
one value rule in ``numerics`` and, for an x-dependent kind, one entry in
``_LIMITS``, its leading behavior at both ends for ``limit``.

An atom is a plain tuple (VOCABULARY index, args), so tuple order is the
canonical factor order and a term's factors, pairs (atom, exponent),
compare and hash as native tuples.  The factories below intern atoms:
each (kind, args) is validated once, keyed on the exact argument types so
that zeta(2.0) and x_pow(True) are still refused.

Construction always canonicalizes: factors sorted by atom order, exponents
positive, like terms merged, zero terms dropped, terms sorted by factors.
Equal construction histories therefore yield identical tuples, so ``==``
on ClosedForm is structural identity of the canonical form and the JSON
serialization is byte-deterministic.

A closed form that is a long sum, as ``limit`` and every builder in
``evaluators`` and ``eulersums`` make, is summed in an ``Accumulator``:
each summand, coeff times atom powers or coeff times a form, is added into
one map {canonical factors: int numerator} over a running common
denominator, and ``form`` makes each coefficient a Fraction once and the
ClosedForm once, its terms put in canonical order with nothing left to
merge.  The ring operations (``+``, ``-``, ``*``, ``scale``) stay for short
expressions and for tests, which check the accumulator against them.

The public ``Term(coeff, factors)`` validates its parts (nonzero
coefficient, factors strictly sorted, exponents >= 1), because terms can
come from outside, as in ``from_dict``/``loads``.  The terms this module
builds itself from parts that are already canonical (``monomial`` and
``Accumulator.add`` after merging their factors, merging in ``ClosedForm``,
``*``, unary ``-``, ``scale``, the x -> 1-x substitution and the limits) go
through ``_trusted_term``, which skips those checks; factors written in
canonical order are taken as they are, others are merged: an atom whose
exponents sum to 0 drops out, and a negative sum raises.  A one-term form,
and a scaled or negated one, keeps its terms in canonical order, so
``_trusted_form`` makes it without merging or sorting again, and the
x -> 1-x image of a canonical form is only re-sorted.

Coefficients are `fractions.Fraction`; its invariants (normalized sign,
gcd-reduced, nonzero denominator) are exactly what is needed, so no
wrapper type is introduced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import DivergentAtOne, UnsupportedAtom

RationalLike = Union[int, Fraction]

# The minimum of a power atom's exponent: any integer but 0, since a zeroth
# power is the constant 1.
NONZERO = None


class AtomKind(NamedTuple):
    """One row of VOCABULARY: all that the algebra knows about an atom kind."""

    index: int            # declaration order, the canonical factor order
    spelling: str         # compact rendering, formatted with the arguments
    minimums: tuple[Optional[int], ...]  # least value of each argument
    constant: bool        # does not depend on x
    image: Optional[str]  # kind of the x -> 1-x image; None: no image


# The atom vocabulary: constants first, then x-dependent atoms.  A power
# kind (minimum NONZERO) renders as its base raised to the argument.  An
# image must admit the arguments too: Li_0(1-x) and Li_1(1-x) leave the
# vocabulary, so LiX below order 2 has none.
VOCABULARY = {kind: AtomKind(i, *row) for i, (kind, *row) in enumerate((
    # kind           spelling          minimums     constant  x -> 1-x image
    ("Zeta",         "z{0}",           (2,),        True,     "Zeta"),
    ("LogTwo",       "l2",             (),          True,     "LogTwo"),
    ("LiAtHalf",     "Li{0}(h)",       (2,),        True,     "LiAtHalf"),
    ("Harmonic",     "H({0},{1})",     (1, 1),      True,     "Harmonic"),
    ("EulerSum",     "S({0},{1})",     (1, 2),      True,     "EulerSum"),
    ("LogX",         "lx",             (),          False,    "Log1mX"),
    ("Log1mX",       "l1mx",           (),          False,    "LogX"),
    ("Log1pX",       "l1px",           (),          False,    None),
    ("XPow",         "x",              (NONZERO,),  False,    "OneMinusXPow"),
    ("OneMinusXPow", "(1-x)",          (NONZERO,),  False,    "XPow"),
    ("OnePlusXPow",  "(1+x)",          (NONZERO,),  False,    None),
    ("LiX",          "Li{0}(x)",       (0,),        False,    "Li1mX"),
    ("Li1mX",        "Li{0}(1-x)",     (2,),        False,    "LiX"),
    ("LiInv1pX",     "Li{0}(1/(1+x))", (2,),        False,    None),
))}

CONSTANT_KINDS = frozenset(kind for kind, row in VOCABULARY.items() if row.constant)


def _args_error(kind: str, args: tuple) -> UnsupportedAtom:
    wants = ", ".join("nonzero" if low is NONZERO else f">= {low}"
                      for low in VOCABULARY[kind].minimums)
    return UnsupportedAtom(f"{kind} takes int arguments ({wants}), got {args!r}")


_KINDS = tuple(VOCABULARY)  # VOCABULARY index -> kind


class Atom(tuple):
    """One symbolic factor: the pair (VOCABULARY index of its kind, integer
    arguments), which the kind's row admits: plain ints, one per minimum,
    each at or above it.  Tuple order is the canonical factor order, and the
    hash, of ints only, is the same in every process."""

    __slots__ = ()

    def __new__(cls, kind: str, args: tuple[int, ...] = ()) -> "Atom":
        row = VOCABULARY.get(kind)
        if row is None:
            raise UnsupportedAtom(f"unknown atom kind {kind!r}")
        args = tuple(args)
        if len(args) != len(row.minimums):
            raise _args_error(kind, args)
        for a, low in zip(args, row.minimums):
            if type(a) is not int or (a == 0 if low is NONZERO else a < low):
                raise _args_error(kind, args)
        return tuple.__new__(cls, (row.index, args))

    def __reduce__(self):
        return Atom, (self.kind, self.args)

    @property
    def kind(self) -> str:
        return _KINDS[self[0]]

    @property
    def args(self) -> tuple[int, ...]:
        return self[1]

    @property
    def is_constant(self) -> bool:
        return VOCABULARY[self.kind].constant

    def __repr__(self) -> str:  # keep test failure output readable
        if not self.args:
            return self.kind
        return f"{self.kind}{self.args!r}"


# (kind, args, type of each arg) -> its Atom, validated once; the types are
# part of the key because 2.0 and True equal, and hash as, 2 and 1
_interned: dict[tuple, Atom] = {}


def _atom(kind: str, args: tuple[int, ...] = ()) -> Atom:
    key = (kind, args, *map(type, args))
    try:
        atom = _interned.get(key)
    except TypeError:  # an unhashable argument, which Atom refuses
        return Atom(kind, args)
    if atom is None:
        atom = _interned[key] = Atom(kind, args)
    return atom


# -- atom factories ---------------------------------------------------------

def zeta(k: int) -> Atom:
    return _atom("Zeta", (k,))


def log_two() -> Atom:
    return _atom("LogTwo")


def li_at_half(k: int) -> Atom:
    return _atom("LiAtHalf", (k,))


def harmonic(n: int, m: int) -> Atom:
    return _atom("Harmonic", (n, m))


def euler_sum(p: int, q: int) -> Atom:
    return _atom("EulerSum", (p, q))


def log_x() -> Atom:
    return _atom("LogX")


def log_1mx() -> Atom:
    return _atom("Log1mX")


def log_1px() -> Atom:
    return _atom("Log1pX")


def x_pow(j: int) -> Atom:
    return _atom("XPow", (j,))


def one_minus_x_pow(j: int) -> Atom:
    return _atom("OneMinusXPow", (j,))


def one_plus_x_pow(j: int) -> Atom:
    return _atom("OnePlusXPow", (j,))


def li_x(k: int) -> Atom:
    return _atom("LiX", (k,))


def li_1mx(k: int) -> Atom:
    return _atom("Li1mX", (k,))


def li_inv_1px(k: int) -> Atom:
    return _atom("LiInv1pX", (k,))


Factors = tuple[tuple[Atom, int], ...]


def _merge_factors(*factor_groups: Factors) -> Factors:
    acc: dict[Atom, int] = {}
    for group in factor_groups:
        for atom, exp in group:
            acc[atom] = acc.get(atom, 0) + exp
    return tuple(sorted((a, e) for a, e in acc.items() if e != 0))


def _canonical(pairs: tuple[tuple[Atom, int], ...]) -> Factors:
    """The (atom, exponent) pairs of a product as canonical factors: the
    pairs themselves when their atoms strictly ascend and every exponent is
    >= 1, else merged; an atom whose exponents sum to 0 drops out, and a
    negative exponent raises."""
    last = None
    for atom, exp in pairs:
        if exp < 1 or (last is not None and atom <= last):
            break
        last = atom
    else:
        return pairs
    merged = _merge_factors(pairs)
    if any(exp < 1 for _, exp in merged):
        raise ValueError("Term exponents must be >= 1")
    return merged


@dataclass(frozen=True)
class Term:
    """coeff times a product of atom powers; factors sorted, exponents >= 1."""

    coeff: Fraction
    factors: Factors = ()

    def __post_init__(self) -> None:
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            raise ValueError("Term coefficient must be nonzero")
        atoms = [atom for atom, _ in self.factors]
        if not all(type(atom) is Atom for atom in atoms):
            raise ValueError("Term factors must be (Atom, exponent) pairs")
        if atoms != sorted(atoms) or len(set(atoms)) != len(atoms):
            raise ValueError("Term factors must be strictly sorted and distinct")
        if any(exp < 1 for _, exp in self.factors):
            raise ValueError("Term exponents must be >= 1")

    @property
    def is_constant(self) -> bool:
        return all(atom.is_constant for atom, _ in self.factors)


def _trusted_term(coeff: Fraction, factors: Factors) -> Term:
    """A Term from parts that are already canonical: a nonzero Fraction and
    factors as _merge_factors or an existing Term leaves them.  Skips the
    public constructor's checks."""
    term = object.__new__(Term)
    fields = term.__dict__  # as object.__setattr__ would, without its lookups
    fields["coeff"] = coeff
    fields["factors"] = factors
    return term


class ClosedForm:
    """Canonical sum of terms.  Immutable; the empty sum represents 0."""

    __slots__ = ("terms",)

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        acc: dict[Factors, Fraction] = {}
        for term in terms:
            factors = term.factors
            coeff = acc.get(factors)
            acc[factors] = term.coeff if coeff is None else coeff + term.coeff
        object.__setattr__(self, "terms", _canonical_terms(acc))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ClosedForm is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the refused setattr
        return ClosedForm, (self.terms,)

    # -- constructors --------------------------------------------------------

    @classmethod
    def number(cls, value: RationalLike) -> "ClosedForm":
        return monomial(value)

    @classmethod
    def of(cls, atom: Atom, exp: int = 1, coeff: RationalLike = 1) -> "ClosedForm":
        return monomial(coeff, (atom, exp))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return ClosedForm(self.terms + other.terms)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ClosedForm":
        return _trusted_form(_trusted_term(-t.coeff, t.factors) for t in self.terms)

    def __mul__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(_trusted_term(a.coeff * b.coeff,
                                         _merge_factors(a.factors, b.factors)))
        return ClosedForm(out)

    def __pow__(self, n: int) -> "ClosedForm":
        if not isinstance(n, int) or n < 0:
            raise ValueError("ClosedForm powers must be nonnegative integers")
        out = ClosedForm.number(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: RationalLike) -> "ClosedForm":
        c = Fraction(c)
        if c == 0:
            return ClosedForm(())
        return _trusted_form(_trusted_term(t.coeff * c, t.factors) for t in self.terms)

    # -- queries ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClosedForm) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(t.is_constant for t in self.terms)

    def atoms(self) -> Iterator[Atom]:
        for term in self.terms:
            for atom, _ in term.factors:
                yield atom

    def rational_value(self) -> Fraction:
        """The exact value if the form is a plain rational; error otherwise."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and not self.terms[0].factors:
            return self.terms[0].coeff
        raise ValueError("closed form is not a bare rational")

    def __repr__(self) -> str:
        return f"ClosedForm({compact(self)!r})"


def _canonical_terms(acc: dict[Factors, Fraction]) -> tuple[Term, ...]:
    """The nonzero entries of a {canonical factors: coeff} map as terms in
    canonical order: by factors, the bare rational last so forms read
    "z2 - 1".  Empties the map's rational entry."""
    rational = acc.pop((), 0)
    terms = [_trusted_term(acc[factors], factors) for factors in sorted(acc) if acc[factors]]
    if rational:
        terms.append(_trusted_term(rational, ()))
    return tuple(terms)


def _trusted_form(terms: Iterable[Term]) -> ClosedForm:
    """A ClosedForm from terms that are already canonical and in order."""
    form = object.__new__(ClosedForm)
    object.__setattr__(form, "terms", tuple(terms))
    return form


def monomial(coeff: RationalLike, *factors: tuple[Atom, int]) -> ClosedForm:
    """coeff times a product of atom powers, as a one-term form; ZERO when
    coeff is 0, and an atom whose exponents sum to 0 drops out."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return ZERO
    return _trusted_form((_trusted_term(coeff, _canonical(factors)),))


class Accumulator:
    """A closed form under construction, made a ClosedForm once by `form`.

    `add` and `add_form` add coeff/den times atom powers or times a form, for
    an int or Fraction coeff and a nonzero int den, into one map {canonical
    factors: int numerator} over a running common denominator, which grows
    to a multiple of each denominator it meets.  Each coefficient becomes a
    Fraction once, in `form`.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self) -> None:
        self._den = 1
        self._nums: dict[Factors, int] = {}

    def _over(self, num: int, den: int) -> int:
        """num/den as a numerator over the running denominator, grown first
        to a multiple of den if it is not one; den is nonzero."""
        have = self._den
        if have % den:
            grow = den // math.gcd(have, den)
            nums = self._nums
            for factors in nums:
                nums[factors] *= grow
            self._den = have = have * grow
        return num * (have // den)

    def add(self, coeff: RationalLike, *factors: tuple[Atom, int], den: int = 1) -> None:
        """Add coeff/den times a product of atom powers, merged as by
        `monomial`."""
        num = coeff.numerator
        if num:
            num = self._over(num, coeff.denominator * den)
            factors = _canonical(factors)
            nums = self._nums
            nums[factors] = nums.get(factors, 0) + num

    def add_form(self, form: ClosedForm, coeff: RationalLike = 1, den: int = 1) -> None:
        """Add coeff/den times a closed form."""
        num = coeff.numerator
        if num:
            den *= coeff.denominator
            nums = self._nums
            for term in form.terms:
                c = term.coeff
                part = self._over(num * c.numerator, den * c.denominator)
                nums[term.factors] = nums.get(term.factors, 0) + part

    def form(self) -> ClosedForm:
        """The sum as a canonical ClosedForm."""
        den = self._den
        return _trusted_form(_canonical_terms(
            {factors: Fraction(num, den) for factors, num in self._nums.items()}))


ZERO = ClosedForm(())
ONE = ClosedForm.number(1)


# -- substitution x -> 1-x ----------------------------------------------------

def _subst_atom(atom: Atom) -> Atom:
    image = VOCABULARY[atom.kind].image
    if image == atom.kind:
        return atom
    try:
        return _atom(image, atom.args)
    except UnsupportedAtom:  # no image kind, or one that refuses the arguments
        raise UnsupportedAtom(f"{atom!r} has no x -> 1-x image in the vocabulary") from None


def subst_one_minus_x(form: ClosedForm) -> ClosedForm:
    """Rewrite f(x) as f(1-x).  Involution on its domain (no 1+x atoms).

    The atom map is one to one, so the image of a canonical form has
    distinct factors in each term and no like terms: it is only re-sorted.
    """
    acc = {tuple(sorted((_subst_atom(a), e) for a, e in term.factors)): term.coeff
           for term in form.terms}
    return _trusted_form(_canonical_terms(acc))


# -- limits x -> 0+ and x -> 1- -------------------------------------------------

# x-dependent atom kind -> its leading behavior at x -> 0+ and at x -> 1-, from
# its arguments: (c, lead, p, q) for c * lead * u^p * log(u)^q times 1 + O(u^e),
# e > 0, with u = x at 0 and u = 1-x at 1, c rational, lead constant or None
_LIMITS = {
    # kind                   x -> 0+                  x -> 1-
    "LogX": lambda: ((1, None, 0, 1), (-1, None, 1, 0)),  # log x = -u (1 + u/2 + ...)
    "Log1mX": lambda: ((-1, None, 1, 0), (1, None, 0, 1)),
    "Log1pX": lambda: ((1, None, 1, 0), (1, log_two(), 0, 0)),
    "XPow": lambda j: ((1, None, j, 0), (1, None, 0, 0)),
    "OneMinusXPow": lambda j: ((1, None, 0, 0), (1, None, j, 0)),
    "OnePlusXPow": lambda j: ((1, None, 0, 0), (Fraction(2) ** j, None, 0, 0)),
    "LiX": lambda k: ((1, None, 1, 0),                 # Li_k(u) ~ u
                      (1, None, -1, 0) if k == 0       # x/(1-x) ~ 1/u
                      else (-1, None, 0, 1) if k == 1  # Li_1(x) = -log u
                      else (1, zeta(k), 0, 0)),
    "Li1mX": lambda k: ((1, zeta(k), 0, 0), (1, None, 1, 0)),
    "LiInv1pX": lambda k: ((1, zeta(k), 0, 0), (1, li_at_half(k), 0, 0)),
}


def limit(form: ClosedForm, at: int) -> ClosedForm:
    """The x -> 0+ (at = 0) or x -> 1- (at = 1) limit of a closed form, as a
    constants-only closed form.

    By `_LIMITS`, a term is c * lead * u^p * log(u)^q times 1 + O(u^e), with
    u the distance to the end.  p > 0 kills the term, p < 0 diverges, and
    p = q = 0 leaves the constant factors times the leads.  Terms with p = 0
    and q > 0 are summed per (those factors, q): a sum whose coefficients
    cancel is O(u^e log(u)^q) and vanishes, as Li_1(x) + log(1-x) and
    (x^-k - 1) log^j(1-x) do at 1.  A term with p < 0, or such a sum that
    does not cancel, raises DivergentAtOne naming a term and the end.  A
    form with no x-dependent atom is its own limit, and is returned as is.
    """
    if type(at) is not int or at not in (0, 1):
        raise ValueError(f"limits are taken at the int 0 or 1, got {at!r}")
    if form.is_constant:
        return form
    limits: dict[Atom, tuple] = {}
    out = Accumulator()
    divergent: dict = {}  # (factors, q), or a term alone if p < 0 -> [coeff, a term]
    for term in form.terms:
        coeff = term.coeff
        alg_order = 0      # net power of u
        log_order = 0      # net power of log u
        kept: list[tuple[Atom, int]] = []
        leads: list[tuple[Atom, int]] = []
        for atom, exp in term.factors:
            if atom.is_constant:
                kept.append((atom, exp))
                continue
            if atom not in limits:
                limits[atom] = _LIMITS[atom.kind](*atom.args)[at]
            c, lead, p, q = limits[atom]
            if c != 1:
                coeff *= Fraction(c) ** exp
            alg_order += p * exp
            log_order += q * exp
            if lead is not None:
                leads.append((lead, exp))
        if alg_order > 0:
            continue
        # constant kinds sort first, so the kept factors are already canonical
        factors = _merge_factors(tuple(kept), tuple(leads)) if leads else tuple(kept)
        if alg_order or log_order:
            key = term if alg_order else (factors, log_order)
            divergent.setdefault(key, [0, term])[0] += coeff
        else:
            out.add(coeff, *factors)
    for coeff, term in divergent.values():
        if coeff:
            end = ("x -> 0+", "x -> 1-")[at]
            raise DivergentAtOne(f"term {compact(ClosedForm((term,)))!r} diverges as {end}")
    return out.form()


# -- serialization -------------------------------------------------------------

def to_dict(form: ClosedForm) -> dict:
    return {
        "terms": [
            {
                "coeff": f"{t.coeff.numerator}/{t.coeff.denominator}",
                "factors": [
                    {"kind": a.kind, "args": list(a.args), "exp": e}
                    for a, e in t.factors
                ],
            }
            for t in form.terms
        ]
    }


def from_dict(data: Mapping) -> ClosedForm:
    terms_raw = data["terms"]
    if not isinstance(terms_raw, Sequence) or isinstance(terms_raw, (str, bytes)):
        raise ValueError("'terms' must be a list")
    terms = []
    for entry in terms_raw:
        coeff = Fraction(entry["coeff"])
        factors = tuple(
            (_atom(f["kind"], tuple(int(a) for a in f["args"])), int(f["exp"]))
            for f in entry.get("factors", ())
        )
        terms.append(Term(coeff, _merge_factors(factors)))
    return ClosedForm(terms)


def dumps(form: ClosedForm) -> str:
    return json.dumps(to_dict(form), separators=(",", ":"))


def loads(text: str) -> ClosedForm:
    return from_dict(json.loads(text))


# -- compact rendering ----------------------------------------------------------

# VOCABULARY index -> (spelling, whether the kind is a power)
_SPELLINGS = tuple((row.spelling, row.minimums == (NONZERO,)) for row in VOCABULARY.values())


def compact(form: ClosedForm) -> str:
    """Deterministic short rendering, e.g. '2*z3' or 'z2 - 1', from each
    coefficient's ints and each factor's spelling; a power kind's argument
    joins the exponent (x^-2), and a coefficient 1 before factors is dropped."""
    if not form.terms:
        return "0"
    parts: list[str] = []
    for term in form.terms:
        num, den = term.coeff.numerator, term.coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        pieces = [] if mag == "1" and term.factors else [mag]
        for (index, args), exp in term.factors:
            body, power = _SPELLINGS[index]
            if power:
                exp *= args[0]
            else:
                body = body.format(*args)
            pieces.append(body if exp == 1 else f"{body}^{exp}")
        parts.append((" - " if num < 0 else " + ") + "*".join(pieces))
    text = "".join(parts)  # the first term's " - " becomes "-", its " + " goes
    return text[3:] if text[1] == "+" else "-" + text[3:]
