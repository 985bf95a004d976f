"""The benchmark's layer tracer (bench/tracing.py) still finds every name it
hooks in plint, and counts one oracle integrand call per tanh-sinh level.

`tracing.install` reaches into the library by name (public functions of
each layer, ClosedForm construction, NestedSumPlan.evaluate, the oracle's
integrands), so a library change that drops or renames one of them would
otherwise surface only in a traced benchmark run.
"""

import os
import subprocess
import sys

import plint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(plint.__file__))

# installs the tracer in a fresh interpreter (it rebinds module attributes
# for good), then runs one traced sum of closed forms and three traced
# oracle values, each on an interval of its own: an integrand takes a whole
# level, so it is called once per level the oracle visits, and those levels
# are the ones on the node tables
SCRIPT = """
import sys
from fractions import Fraction
sys.path[:0] = [{src!r}, {bench!r}]
import plint
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from plint import families, quadrature
x = Fraction(1, 2)
# a sum of two forms goes through ClosedForm.__init__, which the
# accumulated builders skip
families.closed_form("A", (4, 3), x) + families.closed_form("A", (3, 3), x)
for case in [("A", (4, 3), x), ("J0", (2, 3), Fraction(1, 3)), ("K", (1, 3, 2), 1)]:
    quadrature.oracle_value(*case, 15)
    levels = sum(len(table) for table in quadrature._table_cache.values())
    assert tracer.name_stat("quadrature.integrand")[0] == levels, case
for name in ("evaluators.A_general", "exact.ClosedForm",
             "quadrature.oracle_value", "quadrature.integrand"):
    assert tracer.name_stat(name)[0] > 0, name
print("traced")
"""


def test_tracer_installs_and_traces_a_closed_form_and_an_oracle_value():
    script = SCRIPT.format(src=SRC, bench=os.path.join(ROOT, "bench"))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "traced\n"
