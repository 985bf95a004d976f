"""The package's public names."""

import plint
from plint import errors


def test_every_exported_name_resolves():
    # a rename inside the package must not leave a dangling export
    assert len(set(plint.__all__)) == len(plint.__all__)
    missing = [name for name in plint.__all__ if not hasattr(plint, name)]
    assert missing == []


# every public name, sorted: adding or removing one is a deliberate edit here
PUBLIC = [
    "A_general", "Atom", "B_general", "CONSTANT_KINDS", "C_general",
    "ClosedForm", "J0_eval", "J1_eval", "J_at_one_devoto", "J_at_one_v1",
    "J_at_one_v2", "J_eval", "K_base", "K_eval", "L_integral", "M_integral",
    "NestedSumPlan", "NoConvergence", "NonIntegrable", "ParameterError",
    "PlintError", "all_passed", "build_cases",
    "check_prop2", "compact", "dumps", "euler_sum", "euler_sum_value",
    "frac_mpf", "freitas_recurrence_eval", "from_dict",
    "harmonic_binomial_identity", "harmonic_value",
    "head_log1m_integral", "integrate", "li_at_half", "limit", "loads",
    "log_two", "numeric_eval", "oracle_value", "polylog_value", "reduce_S",
    "reduce_S1", "run_case", "run_suite", "subst_one_minus_x", "to_dict",
    "zeta", "zeta_value",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(plint.__all__) == PUBLIC


def test_one_exception_class_per_outcome():
    # the CLI maps NonIntegrable to exit 3 and the other two to exit 2; a
    # fourth class would be one more name for a code that already has one
    classes = {value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, errors.PlintError)
               and value is not errors.PlintError}
    assert classes == {errors.ParameterError, errors.NonIntegrable, errors.NoConvergence}
