"""The package's public names."""

import plint


def test_every_exported_name_resolves():
    # a rename inside the package must not leave a dangling export
    assert len(set(plint.__all__)) == len(plint.__all__)
    missing = [name for name in plint.__all__ if not hasattr(plint, name)]
    assert missing == []


# every public name, sorted: adding or removing one is a deliberate edit here
PUBLIC = [
    "A_general", "Atom", "B_general", "CONSTANT_KINDS", "C_general",
    "ClosedForm", "DivergentAtOne", "DivergentValue", "InvalidOrder",
    "J0_eval", "J1_eval", "J_at_one_devoto", "J_at_one_v1", "J_at_one_v2",
    "J_eval", "K_base", "K_eval", "L_integral", "M_integral", "NestedSumPlan",
    "NoConvergence", "NonConvergent", "NonIntegrable", "ParameterError",
    "PlintError", "UnsupportedAtom", "all_passed", "build_cases",
    "check_prop2", "compact", "dumps", "euler_sum", "euler_sum_value",
    "frac_mpf", "freitas_K0_recurrence", "freitas_recurrence_eval",
    "from_dict", "harmonic", "harmonic_binomial_identity", "harmonic_value",
    "head_log1m_integral", "integrate", "li_at_half", "limit", "loads",
    "log_two", "numeric_eval", "oracle_value", "polylog_value", "reduce_S",
    "reduce_S1", "run_case", "run_suite", "subst_one_minus_x", "to_dict",
    "zeta", "zeta_value",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(plint.__all__) == PUBLIC
