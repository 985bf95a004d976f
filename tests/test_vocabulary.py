"""The atom vocabulary table: every kind it declares can be built, stored,
rendered, valued and substituted, every x-dependent kind has a leading
behavior at x -> 0+ and at x -> 1- that mpmath confirms, and the README
lists exactly the spellings `compact` gives its kinds."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from plint import exact as ex
from plint.errors import UnsupportedAtom
from plint.numerics import numeric_eval

KINDS = list(ex.VOCABULARY)

X = Fraction(1, 3)

# kind -> (arguments, its value at x = 1/3 from plain mpmath); EulerSum at
# (2, 4), where Euler's evaluation zeta(3)^2 - zeta(6)/3 gives it, every
# other kind at its smallest arguments
REFERENCE = {
    "Zeta": ((2,), lambda x: mp.zeta(2)),
    "LogTwo": ((), lambda x: mp.log(2)),
    "LiAtHalf": ((2,), lambda x: mp.polylog(2, mpf(1) / 2)),
    "Harmonic": ((1, 1), lambda x: mpf(1)),
    "EulerSum": ((2, 4), lambda x: mp.zeta(3) ** 2 - mp.zeta(6) / 3),
    "LogX": ((), lambda x: mp.log(x)),
    "Log1mX": ((), lambda x: mp.log(1 - x)),
    "Log1pX": ((), lambda x: mp.log(1 + x)),
    "XPow": ((1,), lambda x: x),
    "OneMinusXPow": ((1,), lambda x: 1 - x),
    "OnePlusXPow": ((1,), lambda x: 1 + x),
    "LiX": ((0,), lambda x: mp.polylog(0, x)),
    "Li1mX": ((2,), lambda x: mp.polylog(2, 1 - x)),
    "LiInv1pX": ((2,), lambda x: mp.polylog(2, 1 / (1 + x))),
}


def smallest(kind):
    """The kind's smallest arguments; 1 stands for a nonzero exponent."""
    return tuple(1 if low is ex.NONZERO else low
                 for low in ex.VOCABULARY[kind].minimums)


def test_reference_covers_the_table():
    assert list(REFERENCE) == KINDS


def test_order_is_declaration_order():
    atoms = [ex.Atom(kind, smallest(kind)) for kind in KINDS]
    assert sorted(reversed(atoms)) == atoms
    # within a kind, by arguments
    atoms = [ex.zeta(2), ex.zeta(5), ex.harmonic(1, 3), ex.harmonic(2, 1),
             ex.x_pow(-3), ex.x_pow(2)]
    assert sorted(reversed(atoms)) == atoms
    assert ex.CONSTANT_KINDS == {k for k in KINDS if ex.VOCABULARY[k].constant}


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_and_spelling(kind):
    form = ex.ClosedForm.of(ex.Atom(kind, smallest(kind)))
    assert ex.loads(ex.dumps(form)) == form
    assert ex.compact(form) and ex.compact(form) != "1"


@pytest.mark.parametrize("kind", KINDS)
def test_value_matches_mpmath(kind):
    args, reference = REFERENCE[kind]
    atom = ex.Atom(kind, args)
    x = None if atom.is_constant else X
    got = numeric_eval(ex.ClosedForm.of(atom), x, digits=30)
    with mp.workdps(40):
        want = reference(mpf(X.numerator) / X.denominator)
        assert abs(got - want) <= mpf("1e-25") * max(1, abs(want))


@pytest.mark.parametrize("kind", KINDS)
def test_image_is_an_involution(kind):
    image = ex.VOCABULARY[kind].image
    if image is None:
        with pytest.raises(UnsupportedAtom):
            ex.subst_one_minus_x(ex.ClosedForm.of(ex.Atom(kind, smallest(kind))))
        return
    assert ex.VOCABULARY[image].image == kind
    # at arguments both kinds admit
    args = tuple(max(a, b) for a, b in zip(smallest(kind), smallest(image)))
    form = ex.ClosedForm.of(ex.Atom(kind, args))
    swapped = ex.subst_one_minus_x(form)
    assert [a.kind for a in swapped.atoms()] == [image]
    assert ex.subst_one_minus_x(swapped) == form


@pytest.mark.parametrize("kind", KINDS)
def test_one_step_below_each_minimum_is_refused(kind):
    args = smallest(kind)
    ex.Atom(kind, args)
    for i, low in enumerate(ex.VOCABULARY[kind].minimums):
        below = 0 if low is ex.NONZERO else low - 1
        with pytest.raises(UnsupportedAtom):
            ex.Atom(kind, args[:i] + (below,) + args[i + 1:])
    with pytest.raises(UnsupportedAtom):
        ex.Atom(kind, args + (2,))
    for wrong in (True, 2.0):
        if args:
            with pytest.raises(UnsupportedAtom):
                ex.Atom(kind, (wrong,) + args[1:])


# the constant kinds a lead can be, valued with plain mpmath
LEAD_VALUE = {
    "Zeta": lambda k: mp.zeta(k),
    "LogTwo": lambda: mp.log(2),
    "LiAtHalf": lambda k: mp.polylog(k, mpf(1) / 2),
}

# LiX's lead at 1 has three branches; REFERENCE's Li_0 takes the first
MORE_ARGS = {"LiX": [((1,), lambda x: mp.polylog(1, x)),
                     ((3,), lambda x: mp.polylog(3, x))]}


def _assert_lead(kind, at):
    """The kind's `_LIMITS` row at the end `at` is the leading behavior of
    its mpmath value: their ratio at u = 1e-25 from the end is 1 to 20
    digits.  A constant kind has no row."""
    if ex.VOCABULARY[kind].constant:
        assert kind not in ex._LIMITS
        return
    for args, reference in [REFERENCE[kind]] + MORE_ARGS.get(kind, []):
        c, lead, p, q = ex._LIMITS[kind](*args)[at]
        c = Fraction(c)
        with mp.workdps(60):
            u = mpf(10) ** -25
            leading = mpf(c.numerator) / c.denominator * u ** p * mp.log(u) ** q
            if lead is not None:
                leading *= LEAD_VALUE[lead.kind](*lead.args)
            ratio = reference(1 - u if at == 1 else u) / leading
            assert abs(ratio - 1) <= mpf(10) ** -20, (kind, args, at)


@pytest.mark.parametrize("kind", KINDS)
def test_limit_at_one_is_known(kind):
    _assert_lead(kind, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_limit_at_zero_is_known(kind):
    _assert_lead(kind, 0)


def _readme_rows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Compact notation", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)(?:\(([-\d,]*)\))?` \| `([^`]+)` \|", section, re.M)


def test_readme_lists_every_spelling():
    rows = _readme_rows()
    assert [kind for kind, _, _ in rows] == KINDS
    for kind, args, spelling in rows:
        atom = ex.Atom(kind, tuple(int(a) for a in args.split(",") if a))
        assert ex.compact(ex.ClosedForm.of(atom)) == spelling, kind
