"""The family table: every reader agrees with it on names, arity and endpoints."""

import inspect
from fractions import Fraction

import pytest

from plint import cli
from plint import evaluators as ev
from plint import quadrature as quad
from plint.errors import ParameterError
from plint.families import LOWER, TABLE, closed_form
from plint.verification import build_cases, run_case

# one member of each family the oracle integrates, from the shipped grid
ORACLE_MEMBERS = {family: params for _, family, params, _ in
                  build_cases("oracle", "small")}


def test_cli_families_keep_their_order():
    assert cli.FAMILIES == ("A", "B", "C", "J0", "J1", "J", "K", "L", "M",
                            "S", "Kbase")


@pytest.mark.parametrize("family", TABLE)
def test_evaluator_takes_the_parameters_and_the_endpoint(family):
    entry = TABLE[family]
    arity = len(entry.params) + (entry.endpoint is not None)
    assert len(inspect.signature(entry.evaluator).parameters) == arity


def test_every_oracle_family_is_in_the_table():
    assert set(ORACLE_MEMBERS) <= set(TABLE)
    assert set(TABLE) - set(ORACLE_MEMBERS) == {"S", "Kbase"}
    for family in ("S", "Kbase"):
        with pytest.raises(ParameterError, match="unknown integral family"):
            quad.family_spec(family, (1, 2))


@pytest.mark.parametrize("family", sorted(ORACLE_MEMBERS))
def test_family_spec_reads_arity_and_endpoint(family):
    entry = TABLE[family]
    params = ORACLE_MEMBERS[family]
    assert len(params) == len(entry.params)
    x = Fraction(1) if entry.endpoint is None else Fraction(1, 2)
    spec = quad.family_spec(family, params, x)
    want = (x, 1) if entry.endpoint == LOWER else (0, x)
    assert (spec.a, spec.b) == want
    for wrong in (params[:-1], params + (1,)):
        with pytest.raises(ParameterError, match="takes"):
            quad.family_spec(family, wrong, x)
    if entry.endpoint is None:
        with pytest.raises(ParameterError):
            quad.family_spec(family, params, Fraction(1, 2))


@pytest.mark.parametrize("family, zero_ok", [
    ("A", False), ("L", True), ("M", True), ("HeadLog1m", True)])
def test_oracle_lower_limit_of_x(family, zero_ok):
    assert TABLE[family].zero_ok is zero_ok
    if zero_ok:
        quad.family_spec(family, (1, 1), 0)
    else:
        with pytest.raises(ParameterError):
            quad.family_spec(family, (1, 1), 0)


@pytest.mark.parametrize("family", [family for family in sorted(ORACLE_MEMBERS)
                                    if TABLE[family].endpoint is not None])
def test_both_routes_refuse_the_same_points(family):
    # one x check in the family table: a point out of range, or not a
    # rational, is the same ParameterError on both routes
    params = ORACLE_MEMBERS[family]
    for x in (Fraction(-1, 2), 0, Fraction(3, 2), "abc", None):
        if x == 0 and TABLE[family].zero_ok:
            closed_form(family, params, x)
            quad.family_spec(family, params, x)
            continue
        with pytest.raises(ParameterError, match="needs"):
            closed_form(family, params, x)
        with pytest.raises(ParameterError, match="needs"):
            quad.family_spec(family, params, x)


# every pointed public evaluator, called as fn(1, 1, x)
POINTED = {"A": ev.A_general, "B": ev.B_general, "C": ev.C_general,
           "J0": ev.J0_eval, "J1": ev.J1_eval, "L": ev.L_integral,
           "M": ev.M_integral, "HeadLog1m": ev.head_log1m_integral}


def test_every_pointed_family_has_its_evaluator_listed():
    assert set(POINTED) == {f for f, entry in TABLE.items() if entry.endpoint is not None}


@pytest.mark.parametrize("x", ["1/0", float("inf"), float("nan"), None, "abc",
                               Fraction(-1, 2), Fraction(3, 2)], ids=str)
@pytest.mark.parametrize("family", sorted(POINTED))
def test_bad_points_are_parameter_errors_everywhere(family, x):
    # one point check: the evaluator and both routes refuse a point that is
    # no rational in range with a ParameterError, never a bare built-in one
    with pytest.raises(ParameterError):
        POINTED[family](1, 1, x)
    with pytest.raises(ParameterError):
        closed_form(family, (1, 1), x)
    with pytest.raises(ParameterError):
        quad.family_spec(family, (1, 1), x)


def test_closed_form_rejects_unknown_family():
    with pytest.raises(ParameterError):
        closed_form("Q", (1, 1))


@pytest.mark.parametrize("params", [(1,), (1, 2, 3), (2, True), (2.0, 1)])
def test_wrong_parameters_are_parameter_errors_on_both_routes(params):
    # one check in the family table serves the evaluators and the oracle
    with pytest.raises(ParameterError):
        closed_form("A", params, 1)
    with pytest.raises(ParameterError):
        run_case(("oracle", "A", params, 1))
    with pytest.raises(ParameterError):
        quad.family_spec("A", params, 1)


@pytest.mark.parametrize("family, params", [
    ("J", (1, 2, 3)), ("K", (1, 2, 3)), ("S", (1, 2)), ("Kbase", (1, 2))])
def test_fixed_families_take_no_endpoint_on_both_routes(family, params):
    # one check in the family table: a family with no endpoint is over
    # [0, 1] (or a sum), so any x but 1 is an error, not that object
    closed_form(family, params, 1)
    for x in (Fraction(1, 2), 0, 2):
        with pytest.raises(ParameterError, match="defined on"):
            closed_form(family, params, x)
        if TABLE[family].integrand is None:
            with pytest.raises(ParameterError, match="unknown integral family"):
                quad.family_spec(family, params, x)
        else:
            with pytest.raises(ParameterError, match="defined on"):
                quad.family_spec(family, params, x)
