"""plint: exact closed forms for definite integrals of polylogarithms.

Evaluators reduce integral families (powers of logs against powers of t,
moments and log-moments of polylogarithms, products of two polylogarithms)
to exact terms over zeta values, log 2, polylogs at 1/2 and linear Euler
sums, with harmonic numbers expanded to exact rationals, plus x-dependent
atoms for indefinite upper limits.
A high-precision tanh-sinh quadrature engine provides an independent
numeric route for cross-checking every closed form.
"""

from __future__ import annotations

from .errors import NoConvergence, NonIntegrable, ParameterError, PlintError
from .exact import (CONSTANT_KINDS, Atom, ClosedForm, compact, dumps,
                    euler_sum, from_dict, li_at_half, limit, loads, log_two,
                    subst_one_minus_x, to_dict, zeta)
from .numerics import (euler_sum_value, frac_mpf, harmonic_value, numeric_eval,
                       polylog_value, zeta_value)
from .quadrature import integrate, oracle_value
from .eulersums import (K_base, check_prop2, harmonic_binomial_identity, reduce_S,
                        reduce_S1)
from .evaluators import (A_general, B_general, C_general, J0_eval, J1_eval,
                         J_at_one_devoto, J_at_one_v1, J_at_one_v2, J_eval,
                         K_eval, L_integral, M_integral, NestedSumPlan,
                         freitas_recurrence_eval, head_log1m_integral)
from .verification import all_passed, build_cases, run_case, run_suite

__all__ = [
    "PlintError", "ParameterError", "NonIntegrable", "NoConvergence",
    "Atom", "ClosedForm", "CONSTANT_KINDS", "zeta", "log_two", "li_at_half",
    "euler_sum", "limit", "subst_one_minus_x", "compact",
    "to_dict", "from_dict", "dumps", "loads",
    "zeta_value", "harmonic_value", "polylog_value", "euler_sum_value",
    "numeric_eval", "frac_mpf",
    "integrate", "oracle_value",
    "reduce_S1", "reduce_S", "K_base",
    "check_prop2", "harmonic_binomial_identity",
    "NestedSumPlan", "L_integral", "M_integral", "head_log1m_integral",
    "A_general", "B_general", "C_general",
    "J0_eval", "J1_eval", "J_at_one_v1", "J_at_one_v2",
    "J_at_one_devoto", "J_eval", "K_eval",
    "freitas_recurrence_eval",
    "build_cases", "run_case", "run_suite", "all_passed",
]

__version__ = "0.1.0"
