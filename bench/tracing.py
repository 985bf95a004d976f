"""Layer tracing of plint from outside the library.

`install` replaces the public functions of the traced layers with timing
wrappers, in every plint module that holds a reference to them (callers
often import names directly, e.g. `quadrature.polylog_value`).  Every
wrapped call is one frame on a stack, so each name and each layer gets:

* calls   - wrapped calls; for a layer, entries into it from outside it
* busy_s  - wall time with at least one call of that name (layer) open
* self_s  - busy time minus the time covered by wrapped child calls
* repeats - calls whose arguments were already seen in this process
            (only for the names in REPEAT_KEYED: the cache opportunity)

Spans (name, start, end, parent, op) are kept in memory and written out
by the caller; names called hundreds of thousands of times per pass are
counted and timed but keep no spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("verification", "evaluators", "eulersums", "exact", "numerics",
          "quadrature")

REPEAT_KEYED = frozenset({"eulersums.K_base", "numerics.polylog_value",
                          "numerics.zeta_value", "numerics.euler_sum_value"})

# too frequent for a span per call; their layer and call counts still see them
NO_SPANS = frozenset({"numerics.frac_mpf", "numerics.harmonic_value",
                      "numerics.polylog_value", "quadrature.integrand"})

MAX_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [child_s, span_id]
        self.names: dict[str, list] = {}  # name -> [calls, busy, self, repeats]
        self.layers: dict[str, list] = {}  # layer -> [calls, busy, self, terms_out]
        self.depth: dict[str, int] = {}  # open calls per name and per layer
        self.seen: dict[str, set] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.terms_in = 0
        self.op_id = -1
        self.t0 = time.perf_counter()

    def wrap(self, name: str, layer: str, fn, *, count_terms: bool = False):
        """A traced stand-in for fn, recorded under name within layer."""
        stat = self.names.setdefault(name, [0, 0.0, 0.0, 0])
        lay = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])
        depth = self.depth
        depth.setdefault(name, 0)
        depth.setdefault(layer, 0)
        seen = self.seen.setdefault(name, set()) if name in REPEAT_KEYED else None
        keep_spans = not (name in NO_SPANS or layer == "exact")
        stack = self.stack
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                try:
                    key = hash((args, tuple(sorted(kwargs.items()))))
                except TypeError:
                    key = None
                if key is not None:
                    if key in seen:
                        stat[3] += 1
                    else:
                        seen.add(key)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else -1
            span_id = parent_span
            if keep_spans:
                if len(spans) < MAX_SPANS:
                    span_id = len(spans)
                    spans.append(None)  # reserve the id; filled on exit
                else:
                    self.spans_dropped += 1
            frame = [0.0, span_id]
            stack.append(frame)
            outer_name = depth[name] == 0
            outer_layer = depth[layer] == 0
            depth[name] += 1
            depth[layer] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
                dur = end - start
                own = dur - frame[0]
                stat[0] += 1
                stat[2] += own
                lay[2] += own
                if outer_name:
                    stat[1] += dur
                if outer_layer:
                    lay[0] += 1
                    lay[1] += dur
                if parent is not None:
                    parent[0] += dur
                if span_id != parent_span:
                    spans[span_id] = (name, start - self.t0, end - self.t0,
                                      parent_span, self.op_id)
            if count_terms and outer_layer:
                lay[3] += len(getattr(result, "terms", ()))
            return result

        return traced

    def name_stat(self, name: str) -> tuple[int, float, float, float]:
        """(calls, busy_s, self_s, repeat_ratio) of one wrapped name."""
        calls, busy, own, repeats = self.names.get(name, (0, 0.0, 0.0, 0))
        return calls, busy, own, (repeats / calls if calls else 0.0)

    def layer_stat(self, layer: str) -> tuple[int, float, float, int]:
        """(entries, busy_s, self_s, terms_out) of one layer."""
        return tuple(self.layers.get(layer, (0, 0.0, 0.0, 0)))

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "op": s[4]}
                for i, s in enumerate(self.spans) if s is not None]


def _rebind(originals: dict[int, tuple[object, object]]) -> None:
    """Point every plint module attribute that is an original at its wrapper."""
    for modname, mod in list(sys.modules.items()):
        if modname != "plint" and not modname.startswith("plint."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in LAYERS, plus ClosedForm
    construction, NestedSumPlan evaluation and each oracle integrand."""
    from plint import evaluators, exact, quadrature

    originals: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"plint.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            fn = obj
            if obj is quadrature.family_spec:
                fn = _tracing_family_spec(tracer, obj, quadrature.IntegralSpec)
            originals[id(obj)] = (obj, tracer.wrap(
                f"{layer}.{attr}", layer, fn, count_terms=layer == "evaluators"))
    _rebind(originals)

    init = exact.ClosedForm.__init__
    timed_init = tracer.wrap("exact.ClosedForm", "exact", init)

    def counting_init(self, terms=()):
        terms = tuple(terms)
        tracer.terms_in += len(terms)
        timed_init(self, terms)

    exact.ClosedForm.__init__ = counting_init
    evaluators.NestedSumPlan.evaluate = tracer.wrap(
        "evaluators.NestedSumPlan.evaluate", "evaluators",
        evaluators.NestedSumPlan.evaluate)


def install_entry_points(tracer: Tracer) -> None:
    """Trace only the CLI entry and the suite runner (the pool's parent side)."""
    from plint import cli, verification

    originals = {
        id(cli.main): (cli.main, tracer.wrap("cli.main", "cli", cli.main)),
        id(verification.run_suite): (verification.run_suite, tracer.wrap(
            "verification.run_suite", "verification", verification.run_suite)),
    }
    _rebind(originals)


def _tracing_family_spec(tracer: Tracer, family_spec, spec_type):
    def traced_family_spec(*args, **kwargs):
        spec = family_spec(*args, **kwargs)
        integrand = tracer.wrap("quadrature.integrand", "quadrature",
                                spec.integrand)
        return spec_type(spec.a, spec.b, integrand)

    return traced_family_spec
