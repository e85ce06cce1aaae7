"""One workload in one process: set up, print READY, run, print the result.

Started by ``run.py`` with the engine on PYTHONPATH, BLAS/OpenMP pinned to
one thread and bytecode cached outside the source tree.  With
``--setup-only`` it exits after READY, so the parent can time set-up more
than once.  Untraced runs time whole passes until ``--seconds`` have passed
and at least ``min_passes`` passes were made.  Traced runs make a fixed number
of passes twice, untraced then traced, so their counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

# at least 100 samples, so that 10 lie beyond the 90th percentile, and at
# least 3 samples of every operation
MIN_OPS = 100
MIN_PASSES = 3


def min_passes(ops) -> int:
    return max(MIN_PASSES, math.ceil(MIN_OPS / len(ops)))


def run_pass(ops, failures, latencies, tracer=None, op_base=0):
    """One pass; returns the number of failed operations."""
    failed = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            latencies.append(time.perf_counter() - start)
            failed += 1
            failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        reason = op.check(result)
        if reason is not None:
            failed += 1
            failures.append(f"{op.name}: {reason}")
    return failed


def timed_loop(workload, seconds):
    ops = workload.ops
    least = min_passes(ops)
    failures, latencies, pass_rates = [], [], []
    failed = 0
    start = time.perf_counter()
    while len(pass_rates) < least or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        pass_failed = run_pass(ops, failures, latencies)
        pass_rates.append((len(ops) - pass_failed) / (time.perf_counter() - pass_start))
        failed += pass_failed
    elapsed = time.perf_counter() - start
    attempted = len(latencies)
    # Each operation is taken at its median time over the run's passes,
    # which damps the bursts of contention a shared machine shows.  The
    # latency percentiles are over those times; with one client the loop's
    # rate is the operations of a pass over the sum of their times, counting
    # only verified operations.  A median of per-pass rates spread more,
    # because a burst anywhere in a pass lowers that pass's rate.
    per_op = [statistics.median(latencies[i :: len(ops)]) for i in range(len(ops))]
    q = statistics.quantiles(per_op, n=10, method="inclusive")
    verified = (attempted - failed) / attempted
    metrics = {
        "throughput_ops_s": {"value": verified * len(ops) / math.fsum(per_op), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": q[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": workload.peak_rss_kib() / 1024, "unit": "MiB"},
    }
    info = {"passes": len(pass_rates), "loop_s": elapsed, "samples": attempted,
            "pass_rates": pass_rates, "latencies_ms": [v * 1e3 for v in latencies],
            "op_names": [op.name for op in ops]}
    return attempted, failed, failures, metrics, info


def traced_loop(workload, spans_path):
    ops = workload.trace_ops
    passes = min_passes(ops)
    failures, latencies = [], []
    failed = 0
    start = time.perf_counter()
    for _ in range(passes):
        failed += run_pass(ops, failures, latencies)
    untraced = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for p in range(passes):
            failed += run_pass(ops, failures, latencies, tracer, p * len(ops))
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    extras = workload.trace_extras()
    # same work both times, so the throughput ratio is the time ratio
    extras["trace.overhead_ratio"] = untraced / traced
    metrics = tracer.layer_metrics(extras)
    info = {"passes": passes, "spans": len(tracer.spans)}
    return len(latencies), failed, failures, metrics, info


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    warm_failures = []
    run_pass(workload.warmup, warm_failures, [])
    # the timed loop counts these again, in failed_ratio
    for line in warm_failures:
        print(f"warm-up: {line}", file=sys.stderr)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        spans = workdir / f"spans-{args.workload}-{args.seed}.csv"
        attempted, failed, failures, metrics, info = traced_loop(workload, spans)
    else:
        attempted, failed, failures, metrics, info = timed_loop(workload, args.seconds)
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "env": environment(),
        "failures": failures[:20],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
