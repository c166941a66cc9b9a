"""Benchmark of ``qss``: one workload, one seed, one process.

    python3 bench/run.py --workload figure-grids --seed 1 --seconds 20 --trace 0

Runs the workload as a closed loop of identical passes for ``--seconds``
(after one warm-up pass), checks every pass's outputs, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and gives per-layer
call counts and self times instead, plus the tracing overhead.  Details
go to ``bench/results/``.  Exits 2 when the checkout has no ``src/qss``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure-grids", "oracle-1e6", "config-mix")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 15
MIN_PASSES = 7  # after the warm-up; in a traced run, at least 3 of each kind

END_TO_END_UNITS = {"rows_per_s": "1/s", "invocation_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
# Traced-run metrics besides <function>.calls and <function>.self_ms.
TRACE_UNITS = {"modes.draw_axes.samples": "count", "bench.pass.self_ms": "ms", "trace.pass_ms": "ms",
               "trace.untraced_pass_ms": "ms", "trace.overhead_pct": "%"}


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": END_TO_END_UNITS.get(name) or TRACE_UNITS.get(name)
            or ("count" if name.endswith(".calls") else "ms")}


def per_layer_metrics(tracer_names, snapshots, samples, traced_s, untraced_s, bench_self_ns) -> dict:
    """Per pass: median self time and the median-low call count of every
    traced function, the deviates drawn, and the tracing overhead."""
    values = {}
    for name in tracer_names:
        values[f"{name}.calls"] = statistics.median_low([s[name][0] for s in snapshots])
        values[f"{name}.self_ms"] = statistics.median([s[name][1] for s in snapshots]) / 1e6
    values["modes.draw_axes.samples"] = statistics.median_low(samples)
    traced_ms = statistics.median(traced_s) * 1e3
    untraced_ms = statistics.median(untraced_s) * 1e3
    values["bench.pass.self_ms"] = statistics.median(bench_self_ns) / 1e6
    values["trace.pass_ms"] = traced_ms
    values["trace.untraced_pass_ms"] = untraced_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    return {name: _metric(name, value) for name, value in values.items()}


def timed_pass(ops, cal, every: int):
    """Run one pass; return its outputs and each operation's wall time,
    raw and scaled by the calibration readings around it."""
    outputs, raw, scaled, pending = [], [], [], []
    for i, op in enumerate(ops, 1):
        t0 = time.perf_counter()
        outputs.append(op())
        dt = time.perf_counter() - t0
        raw.append(dt)
        pending.append(dt)
        if i % every == 0 or i == len(ops):
            speed = cal.sample()
            scaled += [t * speed for t in pending]
            pending = []
    return outputs, raw, scaled


def measure(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    import workloads
    from calibrate import Calibration
    from tracer import Tracer, traced_names

    workload = workloads.WORKLOADS[workload_name](seed)
    setup_cal = Calibration("python")
    pass_cal = Calibration(workload.calibration)

    latest = {}

    def set_up(k: int):
        # Only the last import is kept, so earlier ones do not add to peak RSS.
        latest.clear()
        harness, cli = workloads.load_qss()
        latest.update(harness=harness, cli=cli, inputs=workload.build(harness, cli, workdir / f"setup{k}"))

    setup_cal.sample()
    _, _, setup_s = timed_pass([functools.partial(set_up, k) for k in range(SETUP_REPS)], setup_cal, 1)
    harness, cli, inputs = latest["harness"], latest["cli"], latest["inputs"]

    tracer = Tracer() if trace else None
    ops = workload.operations(harness, cli, inputs)
    untraced_s, traced_s, raw_untraced_s, call_s = [], [], [], []
    snapshots, samples, bench_self_ns = [], [], []
    attempted = failed = 0
    errors: list[str] = []
    n = 0
    deadline = None
    pass_cal.sample()
    while True:
        is_traced = trace and n % 2 == 1
        gc.collect()
        if is_traced:
            tracer.reset()
            tracer.install()
            t0 = time.perf_counter()
            outputs = tracer.span("bench.pass", lambda: [op() for op in ops])
            dt = time.perf_counter() - t0
            tracer.uninstall()
            pass_cal.sample()
            total_ns = sum(tracer.self_ns.values())
            if abs(total_ns / 1e9 - dt) > 0.01 * dt:
                errors.append(f"pass {n}: self times sum to {total_ns / 1e9:.6f} s of {dt:.6f} s")
            snapshots.append({name: (tracer.calls[name], tracer.self_ns[name]) for name in traced_names()})
            samples.append(tracer.samples)
            bench_self_ns.append(tracer.self_ns["bench.pass"])
            traced_s.append(dt)
        else:
            outputs, raw, scaled = timed_pass(ops, pass_cal, workload.calibrate_every)
            if n > 0:  # pass 0 warms caches and is not timed
                raw_untraced_s.append(sum(raw))
                untraced_s.append(sum(scaled))
                call_s += scaled
        attempted += len(ops)
        failed += workload.failed(outputs)
        errors += [f"pass {n}: {e}" for e in workload.check(outputs)]
        n += 1
        if deadline is None:
            deadline = time.perf_counter() + seconds
        if errors or (n > MIN_PASSES and time.perf_counter() >= deadline):
            break

    result = {"correct": not errors, "attempted": attempted, "failed": failed}
    details = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": n, "setup_s": setup_s, "setup_speeds": setup_cal.speeds,
        "untraced_pass_s": untraced_s, "raw_untraced_pass_s": raw_untraced_s,
        "traced_pass_s": traced_s, "speeds": pass_cal.speeds,
        "rows_per_pass": workload.rows_per_pass, "ops_per_pass": workload.ops_per_pass,
        "errors": errors[:20],
    }
    if errors:
        result["metrics"] = {}
    elif trace:
        result["metrics"] = per_layer_metrics(traced_names(), snapshots, samples, traced_s,
                                              raw_untraced_s, bench_self_ns)
    else:
        pass_ms = statistics.median(untraced_s) * 1e3
        # A cli.main call is one invocation in config-mix; the library
        # workloads' calls differ in size, so there one pass is one.
        invocation_ms = statistics.median(call_s) * 1e3 if workload_name == "config-mix" else pass_ms
        values = {
            "rows_per_s": workloads.median_rate(workload.rows_per_pass, untraced_s),
            "invocation_ms_p50": invocation_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
        result["metrics"] = {name: _metric(name, value) for name, value in values.items()}
        details["call_s"] = call_s
        if hasattr(workload, "shots_per_pass"):
            details["shots_per_s"] = workloads.median_rate(workload.shots_per_pass, untraced_s)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qss" / "__init__.py").is_file():
        print(f"error: no qss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One thread: numpy reads these when it is first imported, by measure().
    for var in THREAD_VARS:
        os.environ[var] = "1"

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    details["result"] = result
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for e in details["errors"]:
        print(f"error: {e}", file=sys.stderr)
    print(f"{args.workload}: {details['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed; details in {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
