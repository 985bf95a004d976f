"""Tests for the exact term algebra: canonicalization, ring ops, the
x -> 1-x substitution, the limits x -> 1- and x -> 0+, pickling and JSON
round-trips."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plint import evaluators as ev
from plint import exact as ex
from plint.errors import DivergentAtOne, PlintError, UnsupportedAtom
from plint.families import TABLE, closed_form


def cf_atom(atom, exp=1, coeff=1):
    return ex.ClosedForm.of(atom, exp, coeff)


class TestAtomValidation:
    def test_zeta_one_rejected(self):
        with pytest.raises(UnsupportedAtom):
            ex.zeta(1)

    def test_li_at_half_one_rejected(self):
        with pytest.raises(UnsupportedAtom):
            ex.li_at_half(1)

    def test_euler_sum_q_one_rejected(self):
        with pytest.raises(UnsupportedAtom):
            ex.euler_sum(2, 1)

    def test_power_zero_rejected(self):
        for factory in (ex.x_pow, ex.one_minus_x_pow, ex.one_plus_x_pow):
            with pytest.raises(UnsupportedAtom):
                factory(0)

    def test_li_x_zero_and_one_allowed(self):
        assert ex.li_x(0).args == (0,)
        assert ex.li_x(1).args == (1,)

    def test_li_1mx_below_two_rejected(self):
        with pytest.raises(UnsupportedAtom):
            ex.li_1mx(1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedAtom):
            ex.Atom("Gamma", (3,))

    def test_interning_keeps_the_argument_types(self):
        # 2.0 == 2 and True == 1 hash alike, so an untyped intern table
        # would hand back the cached atom instead of refusing them
        assert ex.zeta(2) is ex.zeta(2) and ex.x_pow(1) is ex.x_pow(1)
        for factory, bad in ((ex.zeta, 2.0), (ex.x_pow, True), (ex.x_pow, 1.0),
                             (ex.li_x, False), (ex.zeta, [2])):
            with pytest.raises(UnsupportedAtom):
                factory(bad)
        with pytest.raises(UnsupportedAtom):
            ex.harmonic(True, 1)
        ex.harmonic(1, 1)
        with pytest.raises(UnsupportedAtom):
            ex.harmonic(1, True)


class TestAtomTuple:
    """An atom is the plain tuple (VOCABULARY index, args)."""

    ATOMS = [ex.zeta(3), ex.log_two(), ex.harmonic(4, 2), ex.euler_sum(2, 4),
             ex.x_pow(-2), ex.li_inv_1px(5)]

    def test_fields(self):
        for atom in self.ATOMS:
            assert tuple(atom) == (ex.VOCABULARY[atom.kind].index, atom.args)
            assert ex.Atom(atom.kind, atom.args) == atom

    def test_hash_is_the_tuple_hash(self):
        for atom in self.ATOMS:
            assert hash(atom) == hash((ex.VOCABULARY[atom.kind].index, atom.args))

    def test_pickle_and_copy_round_trip(self):
        for atom in self.ATOMS:
            for copied in [pickle.loads(pickle.dumps(atom, protocol))
                           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [
                    copy.copy(atom), copy.deepcopy(atom)]:
                assert type(copied) is ex.Atom
                assert copied == atom and hash(copied) == hash(atom)
                assert (copied.kind, copied.args) == (atom.kind, atom.args)

    def test_term_takes_only_atoms(self):
        # a plain tuple orders and hashes like an atom, but is not one
        with pytest.raises(ValueError):
            ex.Term(Fraction(1), (((0, (2,)), 1),))
        assert ex.Term(Fraction(1), ((ex.zeta(2), 1),)).factors == ((ex.zeta(2), 1),)


class TestCanonicalization:
    def test_like_terms_merge(self):
        a = cf_atom(ex.zeta(3), coeff=2)
        b = cf_atom(ex.zeta(3), coeff=Fraction(1, 2))
        assert (a + b) == cf_atom(ex.zeta(3), coeff=Fraction(5, 2))

    def test_cancellation_gives_zero(self):
        a = cf_atom(ex.zeta(2))
        assert (a - a).is_zero
        assert (a - a) == ex.ZERO

    def test_factor_order_is_immaterial(self):
        t1 = ex.Term(Fraction(1), ((ex.zeta(2), 1), (ex.log_x(), 2)))
        # build the same product the other way round via multiplication
        p = cf_atom(ex.log_x(), 2) * cf_atom(ex.zeta(2))
        assert ex.ClosedForm((t1,)) == p

    def test_zero_coeff_dropped(self):
        assert ex.ClosedForm.number(0).is_zero

    def test_terms_sorted_deterministically(self):
        f = cf_atom(ex.li_x(2)) + ex.ONE + cf_atom(ex.zeta(2))
        g = cf_atom(ex.zeta(2)) + cf_atom(ex.li_x(2)) + ex.ONE
        assert f.terms == g.terms
        assert ex.dumps(f) == ex.dumps(g)

    def test_immutability(self):
        f = cf_atom(ex.zeta(2))
        with pytest.raises(AttributeError):
            f.terms = ()


class TestRingOps:
    def test_mul_distributes_on_example(self):
        # (z2 + lx) * (z2 - lx) == z2^2 - lx^2
        a = cf_atom(ex.zeta(2)) + cf_atom(ex.log_x())
        b = cf_atom(ex.zeta(2)) - cf_atom(ex.log_x())
        want = cf_atom(ex.zeta(2), 2) - cf_atom(ex.log_x(), 2)
        assert a * b == want

    def test_pow(self):
        f = cf_atom(ex.log_1mx()) + ex.ONE
        assert f ** 0 == ex.ONE
        assert f ** 2 == f * f
        assert f ** 3 == f * f * f

    def test_scale(self):
        f = cf_atom(ex.zeta(3), coeff=3)
        assert f.scale(Fraction(1, 3)) == cf_atom(ex.zeta(3))
        assert f.scale(0).is_zero

    def test_rational_value(self):
        assert ex.ClosedForm.number(Fraction(-3, 7)).rational_value() == Fraction(-3, 7)
        assert ex.ZERO.rational_value() == 0
        with pytest.raises(ValueError):
            cf_atom(ex.zeta(2)).rational_value()


# Small strategy over closed forms: a handful of atoms, tiny exponents and
# coefficients, so hypothesis exercises merging rather than blowing up sizes.
_ATOMS = st.sampled_from([
    ex.zeta(2), ex.zeta(3), ex.log_two(), ex.log_x(), ex.log_1mx(),
    ex.x_pow(1), ex.x_pow(-2), ex.one_minus_x_pow(1), ex.li_x(2),
])
_TERMS = st.builds(
    lambda c, picks: ex.Term(c, ex._merge_factors(tuple((a, e) for a, e in picks))) if picks and c else None,
    st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0),
    st.lists(st.tuples(_ATOMS, st.integers(1, 2)), min_size=0, max_size=3),
)
_FORMS = st.lists(_TERMS, max_size=4).map(
    lambda ts: ex.ClosedForm(t for t in ts if t is not None)
)


class TestRingAxioms:
    @given(_FORMS, _FORMS)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(_FORMS, _FORMS, _FORMS)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(_FORMS, _FORMS)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(_FORMS, _FORMS, _FORMS)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(_FORMS)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero
        assert (a + (-a)).is_zero

    @given(_FORMS)
    def test_one_is_identity(self, a):
        assert a * ex.ONE == a


class TestSubstOneMinusX:
    def test_swaps(self):
        f = (cf_atom(ex.log_x()) + cf_atom(ex.x_pow(3), coeff=2)
             + cf_atom(ex.li_x(4)) + cf_atom(ex.zeta(5)))
        g = ex.subst_one_minus_x(f)
        assert g == (cf_atom(ex.log_1mx()) + cf_atom(ex.one_minus_x_pow(3), coeff=2)
                     + cf_atom(ex.li_1mx(4)) + cf_atom(ex.zeta(5)))

    def test_rejects_one_plus_x_atoms(self):
        for atom in (ex.log_1px(), ex.one_plus_x_pow(2), ex.li_inv_1px(3)):
            with pytest.raises(UnsupportedAtom):
                ex.subst_one_minus_x(cf_atom(atom))

    def test_rejects_low_order_li(self):
        for k in (0, 1):
            with pytest.raises(UnsupportedAtom):
                ex.subst_one_minus_x(cf_atom(ex.li_x(k)))

    @given(_FORMS)
    def test_involution(self, f):
        try:
            g = ex.subst_one_minus_x(f)
        except UnsupportedAtom:
            return
        assert ex.subst_one_minus_x(g) == f


class TestEvalAtOne:
    """limit(form, 1): the value of a form at x = 1 as its x -> 1- limit."""

    def test_constants_pass_through(self):
        f = cf_atom(ex.zeta(3), coeff=-2) + ex.ClosedForm.number(Fraction(1, 4))
        assert ex.limit(f, 1) == f

    def test_x_pow_goes_to_one(self):
        assert ex.limit(cf_atom(ex.x_pow(3), coeff=5), 1) == ex.ClosedForm.number(5)

    def test_li_x_becomes_zeta(self):
        assert ex.limit(cf_atom(ex.li_x(4)), 1) == cf_atom(ex.zeta(4))

    def test_one_plus_x_atoms(self):
        f = cf_atom(ex.log_1px()) * cf_atom(ex.one_plus_x_pow(-2)) * cf_atom(ex.li_inv_1px(3))
        want = cf_atom(ex.log_two(), coeff=Fraction(1, 4)) * cf_atom(ex.li_at_half(3))
        assert ex.limit(f, 1) == want

    def test_lead_merges_into_a_constant_factor(self):
        # the limit's lead atom equals a constant factor already present,
        # so the two must merge into one power
        f = cf_atom(ex.zeta(3)) * cf_atom(ex.li_x(3))
        assert ex.limit(f, 1) == cf_atom(ex.zeta(3), 2)
        g = cf_atom(ex.log_two()) * cf_atom(ex.log_1px())
        assert ex.limit(g, 1) == cf_atom(ex.log_two(), 2)

    def test_vanishing_term_dropped(self):
        # z2 - x * Li_2(x) -> z2 - z2 = 0?  No: x*Li2 -> Li2 -> z2, kept.
        f = cf_atom(ex.zeta(2)) - cf_atom(ex.x_pow(1)) * cf_atom(ex.li_x(2))
        assert ex.limit(f, 1).is_zero
        # (1-x) * log x -> order 2, drops
        g = cf_atom(ex.one_minus_x_pow(1)) * cf_atom(ex.log_x())
        assert ex.limit(g, 1).is_zero

    def test_log_x_against_pole_leaves_sign(self):
        # log(x)/(1-x) -> -1 as x -> 1
        f = cf_atom(ex.log_x()) * cf_atom(ex.one_minus_x_pow(-1))
        assert ex.limit(f, 1) == ex.ClosedForm.number(-1)
        # log(x)^2/(1-x)^2 -> +1
        g = cf_atom(ex.log_x(), 2) * cf_atom(ex.one_minus_x_pow(-2))
        assert ex.limit(g, 1) == ex.ONE

    def test_li_1mx_vanishes(self):
        f = cf_atom(ex.li_1mx(3)) * cf_atom(ex.zeta(2))
        assert ex.limit(f, 1).is_zero

    def test_li_zero_is_pole(self):
        with pytest.raises(DivergentAtOne):
            ex.limit(cf_atom(ex.li_x(0)), 1)
        # but x * Li_0(x) * (1-x) is finite: (1-x) cancels the pole
        f = cf_atom(ex.x_pow(1)) * cf_atom(ex.li_x(0)) * cf_atom(ex.one_minus_x_pow(1))
        assert ex.limit(f, 1) == ex.ONE

    def test_bare_log_1mx_diverges(self):
        with pytest.raises(DivergentAtOne):
            ex.limit(cf_atom(ex.log_1mx()), 1)
        with pytest.raises(DivergentAtOne):
            ex.limit(cf_atom(ex.li_x(1)), 1)

    def test_log_1mx_killed_by_zero(self):
        f = cf_atom(ex.log_1mx(), 3) * cf_atom(ex.one_minus_x_pow(1))
        assert ex.limit(f, 1).is_zero

    def test_divergences_cancel_across_spellings(self):
        # Li_1(x) = -log(1-x) exactly, and x^-2 = 1 + O(1-x)
        assert ex.limit(cf_atom(ex.li_x(1)) + cf_atom(ex.log_1mx()), 1).is_zero
        f = cf_atom(ex.x_pow(-2)) * cf_atom(ex.log_1mx()) - cf_atom(ex.log_1mx())
        assert ex.limit(f, 1).is_zero
        # the finite terms beside them are kept
        g = f * cf_atom(ex.log_1mx()) + cf_atom(ex.li_x(3), coeff=2)
        assert ex.limit(g, 1) == cf_atom(ex.zeta(3), coeff=2)

    @pytest.mark.parametrize("at, end", [(1, "x -> 1-"), (0, "x -> 0+")])
    def test_sum_that_does_not_cancel_raises(self, at, end):
        # log u with u the distance to the end, and a power whose lead is 1
        log_u, unit = ((ex.log_1mx(), ex.x_pow(-1)) if at == 1
                       else (ex.log_x(), ex.one_minus_x_pow(-1)))
        cancels = cf_atom(log_u) - cf_atom(unit) * cf_atom(log_u)
        assert ex.limit(cancels, at).is_zero
        # log^2 u spelled two ways, added: the sum 2 log^2 u does not cancel
        square = cf_atom(log_u, 2)
        f = cancels + square + square * cf_atom(unit)
        with pytest.raises(DivergentAtOne) as info:
            ex.limit(f, at)
        named = {ex.compact(square), ex.compact(square * cf_atom(unit))}
        assert str(info.value) in {f"term {t!r} diverges as {end}" for t in named}

    def test_only_the_two_ends(self):
        for at in (Fraction(1, 2), 2, -1, Fraction(1), True):
            with pytest.raises(ValueError):
                ex.limit(ex.ONE, at)

    @pytest.mark.parametrize("at", [0, 1])
    def test_constant_form_is_its_own_limit(self, at):
        constants = [ex.ZERO, ex.ONE, ev.J_eval(1, 2, 3), ev.A_general(3, 2, 1),
                     cf_atom(ex.zeta(3), 2, Fraction(-3, 4)) + cf_atom(ex.euler_sum(1, 2))]
        for form in constants:
            assert ex.limit(form, at) is form
        # an x-dependent form is still a new form, its limit
        f = cf_atom(ex.zeta(2)) + cf_atom(ex.li_x(2)) + cf_atom(ex.li_1mx(2))
        assert ex.limit(f, at) == cf_atom(ex.zeta(2), coeff=2)

    @pytest.mark.parametrize("m", range(2, 21))
    def test_a_and_c_agree_at_one(self, m):
        # A(m,n,1) = C(m,n,1) by t -> 1-t, now both limits of symbolic forms
        for n in range(2, m + 1):
            assert ev.A_general(m, n, 1) == ev.C_general(m, n, 1), (m, n)


class TestLimitAtZero:
    def test_log_x_times_x_vanishes(self):
        assert ex.limit(cf_atom(ex.log_x()) * cf_atom(ex.x_pow(1)), 0).is_zero

    def test_li_1mx_becomes_zeta(self):
        for k in (2, 5):
            assert ex.limit(cf_atom(ex.li_1mx(k)), 0) == cf_atom(ex.zeta(k))

    def test_bare_log_x_diverges(self):
        with pytest.raises(DivergentAtOne, match="'lx' diverges as x -> 0[+]"):
            ex.limit(cf_atom(ex.log_x()), 0)

    def test_every_pointed_form_vanishes(self):
        # each pointed family integrates from 0, so its form tends to 0 there
        third = Fraction(1, 3)
        grids = {family: [(a, b) for a in range(13) for b in range(13)]
                 for family in ("J1", "L", "HeadLog1m")}
        grids["J0"] = [(m, p) for m in range(13) for p in range(1, 13)]
        for family in ("A", "B", "C"):
            grids[family] = [(m, n) for m in range(1, 13) for n in range(1, m + 1)]
        count = 0
        for family, grid in grids.items():
            for params in grid:
                form = closed_form(family, params, third)
                assert ex.limit(form, 0).is_zero, (family, params)
                count += 1
        assert count == 897


class TestSerialization:
    def test_pickle_and_copy_round_trip(self):
        forms = [ex.ZERO, ex.ONE, ev.C_general(4, 2, Fraction(1, 3)),
                 cf_atom(ex.x_pow(-2), 3, Fraction(-5, 7)) + cf_atom(ex.euler_sum(1, 3))]
        for form in forms:
            for copied in [pickle.loads(pickle.dumps(form, protocol))
                           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [
                    copy.copy(form), copy.deepcopy(form)]:
                assert type(copied) is ex.ClosedForm
                assert copied == form and hash(copied) == hash(form)
                assert ex.dumps(copied) == ex.dumps(form)

    def test_schema_shape(self):
        f = cf_atom(ex.zeta(2), coeff=Fraction(-3, 7))
        assert ex.to_dict(f) == {
            "terms": [
                {"coeff": "-3/7", "factors": [{"kind": "Zeta", "args": [2], "exp": 1}]}
            ]
        }

    def test_integer_coeff_still_fraction_string(self):
        f = cf_atom(ex.zeta(3), coeff=2)
        assert ex.to_dict(f)["terms"][0]["coeff"] == "2/1"

    @given(_FORMS)
    def test_round_trip(self, f):
        assert ex.loads(ex.dumps(f)) == f

    def test_from_dict_canonicalizes(self):
        data = {
            "terms": [
                {"coeff": "1/2", "factors": [{"kind": "Zeta", "args": [2], "exp": 1}]},
                {"coeff": "1/2", "factors": [{"kind": "Zeta", "args": [2], "exp": 1}]},
            ]
        }
        assert ex.from_dict(data) == cf_atom(ex.zeta(2))

    def test_bad_payloads_rejected(self):
        with pytest.raises((KeyError, ValueError, TypeError)):
            ex.from_dict({"terms": "nope"})
        with pytest.raises(UnsupportedAtom):
            ex.from_dict({"terms": [{"coeff": "1/1",
                                     "factors": [{"kind": "Zeta", "args": [1], "exp": 1}]}]})


class TestCompact:
    def test_zero(self):
        assert ex.compact(ex.ZERO) == "0"

    def test_examples(self):
        f = cf_atom(ex.zeta(3), coeff=2)
        assert ex.compact(f) == "2*z3"
        g = cf_atom(ex.zeta(2)) - ex.ONE
        assert ex.compact(g) == "z2 - 1"
        h = cf_atom(ex.zeta(2), coeff=Fraction(-3, 7))
        assert ex.compact(h) == "-3/7*z2"

    def test_x_dependent(self):
        f = cf_atom(ex.log_1mx(), 2) * cf_atom(ex.x_pow(-2)) * cf_atom(ex.li_x(3))
        assert ex.compact(f) == "l1mx^2*x^-2*Li3(x)"

    def test_power_atoms_merge_exponent(self):
        f = cf_atom(ex.one_minus_x_pow(2), exp=3)
        assert ex.compact(f) == "(1-x)^6"
        g = cf_atom(ex.x_pow(1))
        assert ex.compact(g) == "x"

    def test_named_atoms(self):
        f = (cf_atom(ex.harmonic(5, 2)) * cf_atom(ex.euler_sum(2, 2))
             * cf_atom(ex.li_at_half(4)) * cf_atom(ex.log_two())
             * cf_atom(ex.li_inv_1px(2)) * cf_atom(ex.log_1px()))
        assert ex.compact(f) == "l2*Li4(h)*H(5,2)*S(2,2)*l1px*Li2(1/(1+x))"


# kind -> its compact spelling from the atom's arguments, written out kind
# by kind; the three power kinds give their base, the argument joins the
# exponent
_REFERENCE_SPELLINGS = {
    "Zeta": lambda s: f"z{s}",
    "LogTwo": lambda: "l2",
    "LiAtHalf": lambda k: f"Li{k}(h)",
    "Harmonic": lambda n, m: f"H({n},{m})",
    "EulerSum": lambda p, q: f"S({p},{q})",
    "LogX": lambda: "lx",
    "Log1mX": lambda: "l1mx",
    "Log1pX": lambda: "l1px",
    "XPow": lambda j: "x",
    "OneMinusXPow": lambda j: "(1-x)",
    "OnePlusXPow": lambda j: "(1+x)",
    "LiX": lambda k: f"Li{k}(x)",
    "Li1mX": lambda k: f"Li{k}(1-x)",
    "LiInv1pX": lambda k: f"Li{k}(1/(1+x))",
}
_POWER_KINDS = {"XPow", "OneMinusXPow", "OnePlusXPow"}


def reference_factor(atom, exp):
    if atom.kind in _POWER_KINDS:
        exp *= atom.args[0]
    body = _REFERENCE_SPELLINGS[atom.kind](*atom.args)
    return body if exp == 1 else f"{body}^{exp}"


def reference_compact(form):
    """compact as one Fraction and one factor at a time."""
    text = ""
    for i, term in enumerate(form.terms):
        mag = abs(term.coeff)
        body = "*".join(reference_factor(a, e) for a, e in term.factors)
        piece = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if i == 0:
            text = piece if term.coeff > 0 else "-" + piece
        else:
            text += (" + " if term.coeff > 0 else " - ") + piece
    return text or "0"


def _any_atom(kind):
    """A valid atom of `kind`: each argument at or above its minimum, and a
    power kind's argument any nonzero int, negative ones included."""
    args = [st.integers(-6, 6).filter(bool) if low is ex.NONZERO else st.integers(low, low + 12)
            for low in ex.VOCABULARY[kind].minimums]
    return st.tuples(*args).map(lambda a: ex.Atom(kind, a))


_EVERY_ATOM = st.sampled_from(sorted(ex.VOCABULARY)).flatmap(_any_atom)
_COEFFS = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6).filter(bool),
                    st.fractions(min_value=-50, max_value=50).filter(bool))
_RENDER_TERMS = st.builds(
    lambda c, picks: ex.Term(c, ex._merge_factors(tuple(picks))), _COEFFS,
    st.lists(st.tuples(_EVERY_ATOM, st.integers(1, 3)), max_size=4))
_RENDER_FORMS = st.lists(_RENDER_TERMS, max_size=5).map(ex.ClosedForm)


class TestCompactAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(_RENDER_FORMS)
    def test_random_forms(self, form):
        assert ex.compact(form) == reference_compact(form)

    @pytest.mark.parametrize("kind", sorted(ex.VOCABULARY))
    def test_every_kind_with_each_coefficient_shape(self, kind):
        atom = ex.Atom(kind, tuple(-2 if low is ex.NONZERO else low + 1
                                   for low in ex.VOCABULARY[kind].minimums))
        for coeff in (1, -1, 7, -7, Fraction(3, 5), Fraction(-3, 5)):
            for exp in (1, 2):
                form = ex.ClosedForm.of(atom, exp, coeff) + ex.ClosedForm.number(Fraction(-2, 3))
                assert ex.compact(form) == reference_compact(form)
            assert ex.compact(ex.ClosedForm.number(coeff)) == reference_compact(
                ex.ClosedForm.number(coeff))


def _assert_canonical(form):
    """Every term would pass the public Term checks unchanged, and building
    the form again from its own terms changes nothing."""
    for t in form.terms:
        assert type(t) is ex.Term and type(t.coeff) is Fraction
        assert all(type(e) is int for _, e in t.factors)
        assert ex.Term(t.coeff, t.factors) == t
    assert ex.ClosedForm(form.terms).terms == form.terms


class TestTrustedTerms:
    """The operations inside `exact` build their terms without the public
    checks; every term they make must still pass them."""

    @given(_FORMS, _FORMS, st.fractions(min_value=-4, max_value=4))
    def test_operations_keep_terms_canonical(self, a, b, c):
        built = [a + b, a - b, -a, a * b, a.scale(c), ex.from_dict(ex.to_dict(a)),
                 ex.monomial(c, (ex.log_x(), 1), (ex.zeta(2), 1))]
        for f in (a, a * b):
            try:
                built.append(ex.subst_one_minus_x(f))
            except UnsupportedAtom:
                pass
            try:
                built.append(ex.limit(f, 1))
            except DivergentAtOne:
                pass
        for form in built:
            _assert_canonical(form)

    def test_evaluator_outputs_are_canonical(self):
        count = 0
        for family, entry in TABLE.items():
            points = (None,) if entry.endpoint is None else (Fraction(1), Fraction(1, 3))
            grid = [()]
            for _ in entry.params:
                grid = [g + (v,) for g in grid for v in range(5)]
            for params in grid:
                for x in points:
                    try:
                        form = (closed_form(family, params) if x is None
                                else closed_form(family, params, x))
                    except PlintError:
                        continue
                    _assert_canonical(form)
                    count += 1
        assert count > 500


# denominators that make the running one grow: rising factorials (t)_n of
# either sign, so later ones share some factors with earlier ones and not
# others
_DENS = st.builds(lambda t, n, sign: sign * math.prod(range(t, t + n)),
                  st.integers(1, 8), st.integers(0, 10), st.sampled_from([1, -1]))
# a summand: a form over every kind, or atom powers as a caller writes them
# (any order, repeats, zero exponents)
_PARTS = st.tuples(
    _COEFFS, _DENS,
    st.one_of(_RENDER_FORMS,
              st.lists(st.tuples(_EVERY_ATOM, st.integers(0, 3)), max_size=4).map(tuple)))


def _accumulated(parts):
    acc = ex.Accumulator()
    for coeff, den, item in parts:
        if isinstance(item, ex.ClosedForm):
            acc.add_form(item, coeff, den)
        else:
            acc.add(coeff, *item, den=den)
    return acc.form()


def _summed(parts):
    """The same sum by the ring operations: each part scaled, then +."""
    out = ex.ZERO
    for coeff, den, item in parts:
        c = Fraction(coeff) / den
        out = out + (item.scale(c) if isinstance(item, ex.ClosedForm)
                     else ex.monomial(c, *item))
    return out


class TestAccumulator:
    """exact.Accumulator sums to the form that scale and + give."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PARTS, max_size=8))
    def test_matches_the_ring_operations(self, parts):
        got = _accumulated(parts)
        want = _summed(parts)
        assert got == want
        assert ex.dumps(got) == ex.dumps(want)
        _assert_canonical(got)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PARTS, min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_a_sum_and_its_negation_cancel(self, parts, rng):
        both = parts + [(-Fraction(coeff), den, item) for coeff, den, item in parts]
        rng.shuffle(both)
        assert _accumulated(both) == ex.ZERO
        assert ex.dumps(_accumulated(both)) == ex.dumps(ex.ZERO)

    def test_empty_sum(self):
        assert ex.Accumulator().form() == ex.ZERO
        assert ex.dumps(ex.Accumulator().form()) == ex.dumps(ex.ZERO)

    def test_growing_denominators(self):
        # zeta(3)/k! - log(2)/(7 k!) for k = 1..12: the running
        # denominator grows at each step and the sum still reduces
        acc = ex.Accumulator()
        want = ex.ZERO
        for k in range(1, 13):
            den = math.factorial(k)
            acc.add(1, (ex.zeta(3), 1), den=den)
            acc.add_form(cf_atom(ex.log_two()), Fraction(-1, 7), den)
            want = (want + cf_atom(ex.zeta(3), coeff=Fraction(1, den))
                    + cf_atom(ex.log_two(), coeff=Fraction(-1, 7 * den)))
        assert acc.form() == want
        assert ex.dumps(acc.form()) == ex.dumps(want)

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError):
            ex.Accumulator().add(1, (ex.zeta(2), -1))
