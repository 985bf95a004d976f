"""plint benchmark: one command per workload, every output checked.

    python3 bench/run.py --workload oracle-grid --seed 1 --seconds 45 --trace 0

plint is imported from the src/ directory of the checkout this file sits
in.  A run is a closed loop with a single caller: it starts fresh worker
processes (bench/worker.py) one after another, so every pass starts with
cold caches, as a CLI invocation does.  Before each pass SETUP_SAMPLES
workers only set up and exit.  A pass runs every op of the workload once,
in the order drawn from --seed, each under the workload's time cap, then
checks every output against a route that does not share the code under
test (workloads.py).  Passes repeat, at least MIN_PASSES, until --seconds
are about used up.

Workloads (BENCHMARK.json lists the two that benchmark runs use):
  oracle-grid    run_case over the 831-case full oracle grid at 20 digits,
                 plus eight pointed-family cases at non-dyadic points at 30
                 digits, six of which fail on the ambient-precision defect
  symbolic-deep  closed-form ladders (A, B, C, J, K, J1) built and then
                 evaluated at 30 digits, no quadrature
  atoms-hiprec   numeric_eval at 100 and 250 digits of prebuilt constant
                 forms, repeated, so the atom caches are hit
  verify-pool    `plint verify --suite all --jobs 2` (takes no seed)

Op times are scaled to a reference host speed, measured by a fixed kernel
timed between ops (calibrate.py), because a shared host can swing in
speed by up to 1.7x for minutes at a time; an op stopped by the cap
keeps the cap.  Every pass replays the same ops cold, so each op's time is
then its best over the run's untraced passes.  End-to-end metrics
(--trace 0):
  setup_s               spawn until the worker is ready (interpreter start,
                        import plint, input generation), scaled by the
                        kernel the worker times right after; median of
                        set-ups
  throughput_ops_per_s  successful ops per second of op time
  latency_p50_ms        median time per op
  latency_tail_ms       time per op at the highest percentile with at least
                        ten ops beyond it (failed ops count as beyond any
                        limit); with fewer than 11 ops, the maximum
  success_ratio         successful op runs over attempted op runs, that is
                        1 - fail_ratio (fail_ratio is printed too, but can
                        be 0, which a bounded metric must not be)
  peak_rss_mb           peak resident memory of the worker plus its largest
                        child; median over passes
An op fails when it raises, runs over the cap, or its output fails the
check.  The result's "correct" is false only when an output was wrong;
failed ops that raised or ran over the cap are counted in "failed".

--trace 1 runs one untraced pass, then traced passes; traced workers wrap
plint's layers from outside (tracing.py) and write their spans to
bench/results/.  The layer metrics are medians over traced passes, and
trace.overhead_s is traced minus untraced total op time (scaled as above).

The last stdout line is the JSON result; earlier lines are a readable
report, and bench/results/<workload>-seed<n>-trace<t>.json holds the full
record, with the machine facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("oracle-grid", "symbolic-deep", "atoms-hiprec", "verify-pool")
SETUP_SAMPLES = 3  # set-up-only workers before each pass
MIN_PASSES = 2  # traced, the first pass is untraced and the rest traced
RUN_BUDGET_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10

PER_LAYER = (
    "evaluators.calls", "evaluators.busy_s", "evaluators.self_s",
    "evaluators.terms_out", "exact.forms_built", "exact.terms_in",
    "exact.busy_s", "exact.self_s", "eulersums.K_base.calls",
    "eulersums.K_base.busy_s", "eulersums.K_base.repeat_ratio",
    "eulersums.self_s", "quadrature.integrate.calls",
    "quadrature.integrate.busy_s", "quadrature.integrate.self_s",
    "quadrature.integrand.calls", "quadrature.integrand.busy_s",
    "quadrature.self_s", "numerics.polylog_value.calls",
    "numerics.polylog_value.busy_s", "numerics.polylog_value.repeat_ratio",
    "numerics.zeta_value.calls", "numerics.zeta_value.busy_s",
    "numerics.zeta_value.repeat_ratio", "numerics.euler_sum_value.calls",
    "numerics.euler_sum_value.busy_s", "numerics.euler_sum_value.repeat_ratio",
    "numerics.numeric_eval.calls", "numerics.numeric_eval.busy_s",
    "numerics.numeric_eval.self_s", "numerics.self_s",
    "verification.run_case.calls", "verification.run_case.busy_s",
    "verification.self_s", "verification.run_suite.busy_s", "cli.main.busy_s",
    "trace.overhead_s",
)


class BenchError(Exception):
    """A worker broke: no result can be reported."""


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _read_worker(proc: subprocess.Popen, deadline: float) -> tuple[float, bytes]:
    """All of a worker's stdout, and when its first line (READY) arrived."""
    fd = proc.stdout.fileno()
    chunks: list[bytes] = []
    ready_at = None
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("worker ran past the run's time budget")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
        if ready_at is None and b"\n" in chunk:
            ready_at = time.perf_counter()
    if ready_at is None:
        raise BenchError("worker exited before it was ready")
    return ready_at, b"".join(chunks)


def spawn(workload: str, seed: int, mode: str, trace: bool, spans: str,
          deadline: float) -> tuple[float, dict]:
    """Run one worker to completion: (set-up seconds at the reference host
    speed, the worker's result)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed",
           str(seed), "--mode", mode, "--trace", str(int(trace)), "--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0,
                            start_new_session=True)
    try:
        ready_at, raw = _read_worker(proc, deadline)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (BenchError, subprocess.TimeoutExpired):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    lines = raw.decode().splitlines()
    if lines[0] != "READY":
        raise BenchError(f"worker sent {lines[0]!r} instead of READY")
    result = json.loads(lines[-1])
    return (ready_at - start) * calibrate.REFERENCE_S / result["setup_host_s"], result


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum for short passes."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def pass_figures(result: dict) -> dict:
    ok = sum(1 for op in result["ops"] if op[2] == "ok")
    return {"ops": len(result["ops"]), "ok": ok, "timed_s": result["timed_s"],
            "ops_per_s": ok / result["timed_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0}


def _scaled(t: float, status: str, host_s: float) -> float:
    """An op's time at the reference host speed; the cap stays the cap."""
    return t if status == "cap" else t * calibrate.REFERENCE_S / host_s


def scaled_total_s(result: dict) -> float:
    return sum(_scaled(t, status, host_s) for _, t, status, _, host_s in result["ops"])


def best_of_passes(results: list[dict]) -> list[tuple[str, float, float, int]]:
    """Per op: (name, fastest successful time or inf, fastest time, terms).

    Times are scaled to the reference host speed (calibrate.py), except an
    op stopped by the cap, which took the cap in any case.  Every pass
    replays the same ops cold, so an op's time is its best over the passes.
    An op that never succeeded counts as beyond any limit (inf).
    """
    rows = [[op[0], math.inf, math.inf, 0] for op in results[0]["ops"]]
    for result in results:
        for row, (name, t, status, terms, host_s) in zip(rows, result["ops"],
                                                          strict=True):
            if name != row[0]:
                raise BenchError("passes of one run ran different ops")
            t = _scaled(t, status, host_s)
            row[2] = min(row[2], t)
            if status == "ok":
                row[1] = min(row[1], t)
                row[3] = terms
    return [tuple(row) for row in rows]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=20,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "loadavg_start": list(os.getloadavg()),
        "not_controlled": ("CPU pinning, CPU frequency and the OS file cache are"
                           " left as the host set them: the benchmark runs"
                           " unprivileged and does not pin, fix or drop them"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "plint" / "__init__.py").is_file():
        print(f"bench: no plint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    deadline = began + RUN_BUDGET_S
    facts = machine_facts()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    trace = bool(args.trace)

    setups: list[float] = []
    passes: list[tuple[bool, dict]] = []
    try:
        measure_start = time.perf_counter()
        while True:
            if not trace:
                # set-ups spread over the run, so one slow spell weighs less
                for _ in range(SETUP_SAMPLES):
                    setups.append(spawn(args.workload, args.seed, "setup", False,
                                        "", deadline)[0])
            traced = trace and bool(passes)
            spans = str(RESULTS / f"{tag}-pass{len(passes)}.spans.jsonl") if traced else ""
            started = time.perf_counter()
            setup, result = spawn(args.workload, args.seed, "pass", traced, spans,
                                  deadline)
            if not traced:
                setups.append(setup)
            passes.append((traced, result))
            now = time.perf_counter()
            if len(passes) < MIN_PASSES:
                continue
            # stop when another pass would overrun --seconds by more than half
            # a pass, or the run's budget
            last = now - started
            if now - measure_start + last / 2 >= args.seconds or now + last > deadline:
                break
        untraced = [r for traced, r in passes if not traced]
        best = best_of_passes(untraced)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    plain = [pass_figures(r) for r in untraced]
    all_ops = [op for _, r in passes for op in r["ops"]]
    attempted = len(all_ops)
    statuses: dict[str, int] = {}
    for _, _, status, *_ in all_ops:
        statuses[status] = statuses.get(status, 0) + 1
    failed = attempted - statuses.get("ok", 0)
    correct = statuses.get("wrong", 0) == 0

    # failed ops sit beyond any limit; if they reach a percentile itself,
    # the cap stands in as the smallest figure it could be
    cap_s = untraced[0]["cap_s"]
    ok_times = [t_ok for _, t_ok, _, _ in best]
    tail, tail_pct, beyond = _tail(ok_times)
    p50 = statistics.median(ok_times)
    extras = {
        "fail_ratio": failed / attempted,
        "failures": {k: v for k, v in statuses.items() if k != "ok"},
        "passes": len(passes),
        "ops_per_pass": len(best),
        "setup_samples": len(setups),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        # raw times are the reported ones times kernel_ms / reference_ms
        "kernel_ms": 1e3 * statistics.median(op[4] for r in untraced for op in r["ops"]),
        "reference_ms": 1e3 * calibrate.REFERENCE_S,
    }
    untraced_s = statistics.median(scaled_total_s(r) for r in untraced)
    if trace:
        traced_runs = [r for traced, r in passes if traced]
        layer = {name: statistics.median(r["layers"].get(name, 0) for r in traced_runs)
                 for name in PER_LAYER if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = (
            statistics.median(scaled_total_s(r) for r in traced_runs) - untraced_s)
        metrics = {name: {"value": layer[name], "unit": _unit(name)}
                   for name in PER_LAYER}
        extras["spans_kept"] = statistics.median(r["layers"]["trace.spans"]
                                                 for r in traced_runs)
        extras["spans_dropped"] = max(r["layers"]["trace.spans_dropped"]
                                      for r in traced_runs)
        extras["untraced_op_s"] = untraced_s
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_ops_per_s": {
                "value": sum(1 for _, t_ok, _, _ in best if math.isfinite(t_ok))
                / sum(t for _, _, t, _ in best),
                "unit": "1/s"},
            "latency_p50_ms": {
                "value": 1e3 * (p50 if math.isfinite(p50) else cap_s), "unit": "ms"},
            "latency_tail_ms": {
                "value": 1e3 * (tail if math.isfinite(tail) else cap_s), "unit": "ms"},
            "success_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in plain),
                "unit": "MB"},
        }

    facts["loadavg_end"] = list(os.getloadavg())
    facts["wall_s"] = time.perf_counter() - began
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "metrics": metrics, "extras": extras,
              "passes": [pass_figures(r) | {"traced": traced}
                         for traced, r in passes]}
    if args.workload == "symbolic-deep":
        # per-op best times by ladder: the scaling curves in n
        record["per_op"] = {
            name: {"ms": 1e3 * t_any, "terms": terms,
                   "status": "ok" if math.isfinite(t_ok) else "failed"}
            for name, t_ok, t_any, terms in sorted(
                best, key=lambda row: (row[0].split("(")[0], row[2]))}
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}: {len(passes)} passes, {attempted} ops")
    print("machine " + json.dumps(facts))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {extras['fail_ratio']:.6g} ratio"
          f"  ({failed} of {attempted}: {extras['failures'] or 'none'})")
    if not trace:
        print(f"  latency_tail_ms is p{extras['tail_percentile']:.2f} of"
              f" {extras['ops_per_pass']} ops per pass,"
              f" {extras['tail_samples_beyond']} samples beyond")
        print(f"  setup_s is the median of {len(setups)} set-ups")
        print(f"  times are scaled to a host where the calibration kernel takes"
              f" {extras['reference_ms']:g} ms; here it took {extras['kernel_ms']:.3f} ms")
    if args.workload == "symbolic-deep":
        for name, row in record["per_op"].items():
            print(f"  op {name:18s} {row['ms']:10.2f} ms {row['terms']:5d} terms"
                  f"  {row['status']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
