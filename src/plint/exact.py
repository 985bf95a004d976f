"""Exact term algebra for closed forms over a fixed symbolic vocabulary.

A closed form here is a finite sum of terms

    coeff * atom_1^e_1 * ... * atom_r^e_r

with exact rational coefficients and atoms drawn from a closed list:
constants (zeta values, log 2, polylogs at 1/2, harmonic numbers, linear
Euler sums) and functions of a single variable x on (0, 1] (log x,
log(1-x), log(1+x), integer powers of x, 1-x, 1+x, and polylogs at x,
1-x, 1/(1+x)).

Construction always canonicalizes: factors sorted by a total atom order,
exponents positive, like terms merged, zero terms dropped, terms sorted.
Equal construction histories therefore yield identical tuples, so ``==``
on ClosedForm is structural identity of the canonical form and the JSON
serialization is byte-deterministic.

Coefficients are `fractions.Fraction`; its invariants (normalized sign,
gcd-reduced, nonzero denominator) are exactly what is needed, so no
wrapper type is introduced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DivergentAtOne, UnsupportedAtom

RationalLike = Union[int, Fraction]

# Atom vocabulary.  The declaration order below is the canonical sort order
# for factors within a term: constants first, then x-dependent atoms.
_KIND_ORDER = (
    "Zeta",
    "LogTwo",
    "LiAtHalf",
    "Harmonic",
    "EulerSum",
    "LogX",
    "Log1mX",
    "Log1pX",
    "XPow",
    "OneMinusXPow",
    "OnePlusXPow",
    "LiX",
    "Li1mX",
    "LiInv1pX",
)
_KIND_INDEX = {kind: i for i, kind in enumerate(_KIND_ORDER)}

# kind -> number of integer arguments
_ARITY = {
    "Zeta": 1,
    "LogTwo": 0,
    "LiAtHalf": 1,
    "Harmonic": 2,
    "EulerSum": 2,
    "LogX": 0,
    "Log1mX": 0,
    "Log1pX": 0,
    "XPow": 1,
    "OneMinusXPow": 1,
    "OnePlusXPow": 1,
    "LiX": 1,
    "Li1mX": 1,
    "LiInv1pX": 1,
}

# Atoms that do not depend on x.
CONSTANT_KINDS = frozenset({"Zeta", "LogTwo", "LiAtHalf", "Harmonic", "EulerSum"})


def _check_args(kind: str, args: tuple[int, ...]) -> None:
    if kind not in _ARITY:
        raise UnsupportedAtom(f"unknown atom kind {kind!r}")
    if len(args) != _ARITY[kind]:
        raise UnsupportedAtom(f"{kind} takes {_ARITY[kind]} argument(s), got {args!r}")
    if any(not isinstance(a, int) or isinstance(a, bool) for a in args):
        raise UnsupportedAtom(f"{kind} arguments must be plain ints, got {args!r}")
    if kind == "Zeta" and args[0] < 2:
        raise UnsupportedAtom("Zeta requires order >= 2 (zeta(1) diverges)")
    if kind == "LiAtHalf" and args[0] < 2:
        raise UnsupportedAtom("LiAtHalf requires order >= 2; use LogTwo for order 1")
    if kind == "Harmonic" and (args[0] < 1 or args[1] < 1):
        raise UnsupportedAtom("Harmonic requires index >= 1 and order >= 1")
    if kind == "EulerSum" and (args[0] < 1 or args[1] < 2):
        raise UnsupportedAtom("EulerSum requires p >= 1 and q >= 2 for convergence")
    if kind in ("XPow", "OneMinusXPow", "OnePlusXPow") and args[0] == 0:
        raise UnsupportedAtom(f"{kind} with exponent 0 is the constant 1; omit it")
    if kind == "LiX" and args[0] < 0:
        raise UnsupportedAtom("LiX requires order >= 0")
    if kind in ("Li1mX", "LiInv1pX") and args[0] < 2:
        raise UnsupportedAtom(f"{kind} requires order >= 2")


@dataclass(frozen=True)
class Atom:
    """One symbolic factor, identified by kind plus integer arguments."""

    kind: str
    args: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_args(self.kind, self.args)

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (_KIND_INDEX[self.kind], self.args)

    def __lt__(self, other: "Atom") -> bool:
        return self.sort_key < other.sort_key

    @property
    def is_constant(self) -> bool:
        return self.kind in CONSTANT_KINDS

    def __repr__(self) -> str:  # keep test failure output readable
        if not self.args:
            return self.kind
        return f"{self.kind}{self.args!r}"


# -- atom factories ---------------------------------------------------------

def zeta(k: int) -> Atom:
    return Atom("Zeta", (k,))


def log_two() -> Atom:
    return Atom("LogTwo")


def li_at_half(k: int) -> Atom:
    return Atom("LiAtHalf", (k,))


def harmonic(n: int, m: int) -> Atom:
    return Atom("Harmonic", (n, m))


def euler_sum(p: int, q: int) -> Atom:
    return Atom("EulerSum", (p, q))


def log_x() -> Atom:
    return Atom("LogX")


def log_1mx() -> Atom:
    return Atom("Log1mX")


def log_1px() -> Atom:
    return Atom("Log1pX")


def x_pow(j: int) -> Atom:
    return Atom("XPow", (j,))


def one_minus_x_pow(j: int) -> Atom:
    return Atom("OneMinusXPow", (j,))


def one_plus_x_pow(j: int) -> Atom:
    return Atom("OnePlusXPow", (j,))


def li_x(k: int) -> Atom:
    return Atom("LiX", (k,))


def li_1mx(k: int) -> Atom:
    return Atom("Li1mX", (k,))


def li_inv_1px(k: int) -> Atom:
    return Atom("LiInv1pX", (k,))


Factors = tuple[tuple[Atom, int], ...]


def _merge_factors(*factor_groups: Factors) -> Factors:
    acc: dict[Atom, int] = {}
    for group in factor_groups:
        for atom, exp in group:
            acc[atom] = acc.get(atom, 0) + exp
    return tuple(sorted(((a, e) for a, e in acc.items() if e != 0),
                        key=lambda fe: fe[0].sort_key))


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
        keys = [atom.sort_key for atom, _ in self.factors]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("Term factors must be strictly sorted and distinct")
        if any(exp < 1 for _, exp in self.factors):
            raise ValueError("Term exponents must be >= 1")

    @property
    def sort_key(self) -> tuple:
        return tuple((atom.sort_key, exp) for atom, exp in self.factors)

    @property
    def is_constant(self) -> bool:
        return all(atom.is_constant for atom, _ in self.factors)


class ClosedForm:
    """Canonical sum of terms.  Immutable; the empty sum represents 0."""

    __slots__ = ("terms",)

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        acc: dict[Factors, Fraction] = {}
        for term in terms:
            acc[term.factors] = acc.get(term.factors, Fraction(0)) + term.coeff
        # bare rational term (no factors) sorts last so forms read "z2 - 1"
        canon = tuple(
            Term(coeff, factors)
            for factors, coeff in sorted(
                acc.items(),
                key=lambda kv: (not kv[0], tuple((a.sort_key, e) for a, e in kv[0])),
            )
            if coeff != 0
        )
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ClosedForm is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "ClosedForm":
        return cls(())

    @classmethod
    def number(cls, value: RationalLike) -> "ClosedForm":
        value = Fraction(value)
        if value == 0:
            return cls(())
        return cls((Term(value),))

    @classmethod
    def of(cls, atom: Atom, exp: int = 1, coeff: RationalLike = 1) -> "ClosedForm":
        if exp == 0:
            return cls.number(coeff)
        return cls((Term(Fraction(coeff), ((atom, exp),)),))

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
        return ClosedForm(Term(-t.coeff, t.factors) for t in self.terms)

    def __mul__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(Term(a.coeff * b.coeff, _merge_factors(a.factors, b.factors)))
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
        return ClosedForm(Term(t.coeff * c, t.factors) for t in self.terms)

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


ZERO = ClosedForm(())
ONE = ClosedForm.number(1)


# -- substitution x -> 1-x ----------------------------------------------------

_SUBST_SWAP = {
    "LogX": "Log1mX",
    "Log1mX": "LogX",
    "XPow": "OneMinusXPow",
    "OneMinusXPow": "XPow",
    "LiX": "Li1mX",
    "Li1mX": "LiX",
}


def _subst_atom(atom: Atom) -> Atom:
    if atom.is_constant:
        return atom
    if atom.kind in ("Log1pX", "OnePlusXPow", "LiInv1pX"):
        raise UnsupportedAtom(f"{atom!r} depends on 1+x; x -> 1-x is not closed on it")
    if atom.kind == "LiX" and atom.args[0] < 2:
        # Li_0(1-x) and Li_1(1-x) leave the atom vocabulary (they are
        # (1-x)/x and -log x); callers never need them substituted.
        raise UnsupportedAtom(f"{atom!r} has no x -> 1-x image in the vocabulary")
    return Atom(_SUBST_SWAP[atom.kind], atom.args)


def subst_one_minus_x(form: ClosedForm) -> ClosedForm:
    """Rewrite f(x) as f(1-x).  Involution on its domain (no 1+x atoms)."""
    out = []
    for term in form.terms:
        factors = _merge_factors(tuple((_subst_atom(a), e) for a, e in term.factors))
        out.append(Term(term.coeff, factors))
    return ClosedForm(out)


# -- limit x -> 1- ------------------------------------------------------------

def eval_at_one(form: ClosedForm) -> ClosedForm:
    """The x -> 1- limit of a closed form, as a constants-only closed form.

    Each term is a product of factors with known leading behavior in
    u = 1-x, so the term limit is decided by its net algebraic order and
    log order: order > 0 kills the term, order < 0 diverges, order 0 with
    bare log(1-x) powers diverges, and order 0 otherwise leaves the
    constant factors times a sign from log(x)^e ~ (-u)^e.

    Raises DivergentAtOne if any term (after canonical merging) diverges.
    Cancellation of divergences across distinct atom spellings (for
    example Li_1(x) against -log(1-x)) is out of scope.
    """
    out = []
    for term in form.terms:
        alg_order = 0      # net power of u = 1-x
        log_order = 0      # net power of log u
        sign = 1
        kept: list[tuple[Atom, int]] = []
        extra = Fraction(1)
        for atom, exp in term.factors:
            kind = atom.kind
            if kind in CONSTANT_KINDS:
                kept.append((atom, exp))
            elif kind == "LogX":
                # log x = -u (1 + u/2 + ...) near x = 1
                alg_order += exp
                sign = -sign if exp % 2 else sign
            elif kind == "Log1mX":
                log_order += exp
            elif kind == "XPow":
                pass  # x^j -> 1
            elif kind == "OneMinusXPow":
                alg_order += atom.args[0] * exp
            elif kind == "Log1pX":
                kept.append((log_two(), exp))
            elif kind == "OnePlusXPow":
                extra *= Fraction(2) ** (atom.args[0] * exp)
            elif kind == "LiX":
                k = atom.args[0]
                if k == 0:
                    alg_order -= exp      # x/(1-x) ~ 1/u
                elif k == 1:
                    log_order += exp      # Li_1(x) = -log(1-x)
                else:
                    kept.append((zeta(k), exp))
            elif kind == "Li1mX":
                alg_order += exp          # Li_k(1-x) ~ u
            elif kind == "LiInv1pX":
                kept.append((li_at_half(atom.args[0]), exp))
            else:  # pragma: no cover - vocabulary is closed
                raise UnsupportedAtom(f"unhandled atom {atom!r}")
        if alg_order > 0:
            continue
        if alg_order < 0 or log_order > 0:
            raise DivergentAtOne(
                f"term {compact(ClosedForm((term,)))!r} diverges as x -> 1-"
            )
        out.append(Term(term.coeff * sign * extra, _merge_factors(tuple(kept))))
    return ClosedForm(out)


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
            (Atom(f["kind"], tuple(int(a) for a in f["args"])), int(f["exp"]))
            for f in entry.get("factors", ())
        )
        terms.append(Term(coeff, _merge_factors(factors)))
    return ClosedForm(terms)


def dumps(form: ClosedForm) -> str:
    return json.dumps(to_dict(form), separators=(",", ":"))


def loads(text: str) -> ClosedForm:
    return from_dict(json.loads(text))


# -- compact rendering ----------------------------------------------------------

def _render_factor(atom: Atom, exp: int) -> str:
    kind, args = atom.kind, atom.args
    if kind in ("XPow", "OneMinusXPow", "OnePlusXPow"):
        base = {"XPow": "x", "OneMinusXPow": "(1-x)", "OnePlusXPow": "(1+x)"}[kind]
        power = args[0] * exp
        return base if power == 1 else f"{base}^{power}"
    body = {
        "Zeta": lambda: f"z{args[0]}",
        "LogTwo": lambda: "l2",
        "LiAtHalf": lambda: f"Li{args[0]}(h)",
        "Harmonic": lambda: f"H({args[0]},{args[1]})",
        "EulerSum": lambda: f"S({args[0]},{args[1]})",
        "LogX": lambda: "lx",
        "Log1mX": lambda: "l1mx",
        "Log1pX": lambda: "l1px",
        "LiX": lambda: f"Li{args[0]}(x)",
        "Li1mX": lambda: f"Li{args[0]}(1-x)",
        "LiInv1pX": lambda: f"Li{args[0]}(1/(1+x))",
    }[kind]()
    return body if exp == 1 else f"{body}^{exp}"


def compact(form: ClosedForm) -> str:
    """Deterministic short rendering, e.g. '2*z3' or 'z2 - 1'."""
    if not form.terms:
        return "0"
    parts: list[str] = []
    for i, term in enumerate(form.terms):
        coeff = term.coeff
        mag = abs(coeff)
        mag_str = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        body = "*".join(_render_factor(a, e) for a, e in term.factors)
        if not body:
            piece = mag_str
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag_str}*{body}"
        if i == 0:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
    return "".join(parts)
