"""`conftest.clear_caches` reaches every cache of the package."""

import importlib
import pkgutil
from fractions import Fraction

import plint
from plint import numerics as num
from plint import verification as ver

from conftest import MEMOIZED, clear_caches

# module-level dicts that keep exact data, the same at every precision, so a
# test can never be served a value made under another precision
EXEMPT = {
    "plint.numerics._harmonic_tables": "exact harmonic numbers, extended bottom-up",
    "plint.exact._interned": "interned atoms, validated once per (kind, args)",
}


def _modules():
    return [importlib.import_module(f"plint.{info.name}")
            for info in pkgutil.iter_modules(plint.__path__)
            if info.name != "__main__"]  # importing __main__ runs the CLI


def _caches():
    """name -> size of every memoized function and every module-level value
    cache of the package.  A cache is a dict or list bound at module level to
    a lower-case name; upper-case names (_RULES, _VALUE_RULES, ...) are fixed
    tables."""
    sizes = {}
    for module in _modules():
        for attr, value in vars(module).items():
            name = f"{module.__name__}.{attr}"
            if getattr(value, "__module__", None) == module.__name__ and hasattr(
                    value, "cache_info"):
                sizes[name] = value.cache_info().currsize
            elif (isinstance(value, (dict, list)) and attr.startswith("_")
                  and not attr.startswith("__") and not attr.isupper()
                  and name not in EXEMPT):
                sizes[name] = len(value)
    return sizes


def test_clear_caches_empties_every_cache():
    # fill them: every suite's work, a non-dyadic oracle case and the builders
    for case in [("oracle", "J1", (2, 3), Fraction(1, 3)), ("oracle", "K", (1, 2, 1), 1),
                 ("oracle", "A", (3, 2), 1), ("dual-route", "J", (1, 2, 2), 1),
                 ("euler", "S", (1, 4), 1), ("two-formula", "Jv1v2", (2, 3), 1)]:
        ver.run_case(case, digits=20)
    num.numeric_eval(plint.ClosedForm.of(plint.exact.euler_sum(2, 3)), digits=40)
    for builder, args in MEMOIZED:
        builder(*args)
    before = _caches()
    assert len(before) >= len(MEMOIZED) and all(before.values()), before
    clear_caches()
    assert {name: size for name, size in _caches().items() if size} == {}
