"""The family table: every reader agrees with it on names, arity and endpoints."""

import inspect
from fractions import Fraction

import pytest

from plint import cli
from plint import quadrature as quad
from plint.errors import ParameterError
from plint.families import LOWER, TABLE, closed_form
from plint.verification import build_cases

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
    ("A", False), ("L", False), ("M", True), ("HeadLog1m", True)])
def test_oracle_lower_limit_of_x(family, zero_ok):
    assert TABLE[family].zero_ok is zero_ok
    if zero_ok:
        quad.family_spec(family, (1, 1), 0)
    else:
        with pytest.raises(ParameterError):
            quad.family_spec(family, (1, 1), 0)


def test_closed_form_rejects_unknown_family():
    with pytest.raises(ParameterError):
        closed_form("Q", (1, 1))
