"""Helpers shared by the test modules."""

from plint import eulersums as es
from plint import evaluators as ev
from plint import numerics as num
from plint import quadrature as quad
from plint import verification as ver

# the lru_cache'd closed-form builders, each with arguments it is built for
# (`_limit` takes a builder, its arguments and, for x -> 0+, the end 0)
MEMOIZED = (
    (ev._l_symbolic, (2, 3)), (ev._m_symbolic, (3, 2)),
    (ev._a_base_symbolic, (4,)), (ev._b_base_symbolic, (4,)),
    (ev._a_symbolic, (5, 3)), (ev._b_symbolic, (5, 3)),
    (ev._c_symbolic, (4, 1)), (ev._c_symbolic, (5, 3)),
    (ev._j0_symbolic, (3, 4)), (ev._j1_symbolic, (3, 2)),
    (ev._j_base, (1, 4)), (ev._j_base, (-2, 3)),
    (es._k_base, (2, 3)), (es._reduce_s1, (5,)),
    (ev._limit, (ev._c_symbolic, (5, 3))), (ev._limit, (ev._m_symbolic, (3, 2), 0)),
)


def clear_caches():
    """Empty every precision-keyed value cache and every memoized builder,
    so that a test starts cold: a value computed under one ambient
    precision cannot be served to a run under another, and a form is built
    afresh."""
    for cache in (num._log_branch_coeffs, num._bernoulli_coeffs, num._atom_cache,
                  quad._node_cache, quad._table_cache):
        cache.clear()
    for memoized in {builder for builder, _ in MEMOIZED} | {quad._stop_bounds,
                                                          ver._ten_to_minus}:
        memoized.cache_clear()
