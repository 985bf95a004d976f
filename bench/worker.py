"""One pass of a workload in a fresh process, so every cache starts cold.

Started by run.py, never by hand.  It imports plint from the checkout's
src/, builds the workload's inputs, prints READY (set-up is over) and times
the calibration kernel.  In pass mode it then runs every op once as a
single closed-loop caller, each under the workload's cap, timing the kernel
again between ops.  After the timed loop it checks every output and prints one
JSON line with per-op times and outcomes (and, traced, the layer figures).
Protocol lines go to the original stdout; anything else the library prints
to stdout is sent to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class OpCap(BaseException):
    """Raised by SIGALRM inside an op that ran over its cap."""


def _on_alarm(signum, frame):
    raise OpCap()


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


def _layer_metrics(tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for layer in ("verification", "evaluators", "eulersums", "exact",
                  "numerics", "quadrature"):
        calls, busy, own, terms = tracer.layer_stat(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = own
    out["evaluators.terms_out"] = tracer.layer_stat("evaluators")[3]
    out["exact.forms_built"] = tracer.name_stat("exact.ClosedForm")[0]
    out["exact.terms_in"] = tracer.terms_in
    for name, fields in (
            ("eulersums.K_base", ("calls", "busy_s", "repeat_ratio")),
            ("quadrature.integrate", ("calls", "busy_s", "self_s")),
            ("quadrature.integrand", ("calls", "busy_s")),
            ("numerics.polylog_value", ("calls", "busy_s", "repeat_ratio")),
            ("numerics.zeta_value", ("calls", "busy_s", "repeat_ratio")),
            ("numerics.euler_sum_value", ("calls", "busy_s", "repeat_ratio")),
            ("numerics.numeric_eval", ("calls", "busy_s", "self_s")),
            ("verification.run_case", ("calls", "busy_s")),
            ("cli.main", ("busy_s",)),
            ("verification.run_suite", ("busy_s",))):
        stat = dict(zip(("calls", "busy_s", "self_s", "repeat_ratio"),
                        tracer.name_stat(name)))
        for field in fields:
            out[f"{name}.{field}"] = stat[field]
    out["trace.spans"] = len(tracer.spans)
    out["trace.spans_dropped"] = tracer.spans_dropped
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import plint
    if Path(plint.__file__).resolve().parent != (src / "plint").resolve():
        print(f"bench: plint imported from {plint.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import calibrate
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed)
    proto.write("READY\n")
    proto.flush()
    calibrate.kernel_s()  # the first run pays mpmath's one-time set-up
    setup_host_s = calibrate.kernel_s()  # host speed right after set-up
    if args.mode == "setup":
        proto.write(json.dumps({"setup_host_s": setup_host_s}) + "\n")
        proto.flush()
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        if args.workload == "verify-pool":
            tracing.install_entry_points(tracer)
        else:
            tracing.install(tracer)
    cap = workload.cap_s
    signal.signal(signal.SIGALRM, _on_alarm)

    outputs = []
    calibrations = []  # (index of the next op, kernel seconds)
    calibrating_s = 0.0
    perf = time.perf_counter
    loop_start = perf()
    last_calibration = -math.inf
    for index, op in enumerate(workload.ops):
        if perf() - last_calibration >= calibrate.CALIBRATE_EVERY_S:
            start = perf()
            calibrations.append((index, calibrate.kernel_s()))
            last_calibration = perf()
            calibrating_s += last_calibration - start
        if tracer:
            tracer.op_id = index
        status, out = "ok", None
        start = perf()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpCap:
            status = "cap"
        except Exception as exc:  # a failing op is recorded, not fatal
            status = f"error:{type(exc).__name__}"
        outputs.append([op.name, perf() - start, status, out])
    timed_s = perf() - loop_start - calibrating_s
    calibrations.append((len(outputs), calibrate.kernel_s()))
    peak_kb = _peak_rss_kb()
    layers = _layer_metrics(tracer) if tracer else {}
    spans = tracer.span_records() if tracer else []  # the checks are not traced

    # each op's host speed: the mean of the calibrations either side of it
    before = calibrations[0][1]
    after = iter(calibrations)
    upcoming = next(after)
    for index, record in enumerate(outputs):
        while upcoming[0] <= index:
            before = upcoming[1]
            upcoming = next(after)
        record.append((before + upcoming[1]) / 2)

    for record, op in zip(outputs, workload.ops):
        terms = 0
        if record[2] == "ok":
            try:
                if not op.check(record[3]):
                    record[2] = "wrong"
                terms = op.terms(record[3])
            except Exception as exc:  # a check that cannot run is a mismatch
                print(f"bench: check of {op.name} raised {exc!r}", file=sys.stderr)
                record[2] = "wrong"
        record[3] = terms

    if args.spans:
        with open(args.spans, "w") as sink:
            for span in spans:
                sink.write(json.dumps(span) + "\n")

    proto.write(json.dumps({"setup_host_s": setup_host_s, "cap_s": cap,
                            "timed_s": timed_s, "peak_rss_kb": peak_kb,
                            "ops": outputs, "layers": layers}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
