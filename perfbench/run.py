"""Seeded closed-loop benchmark of the volterra engine.

    python3 perfbench/run.py --workload compose --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # all four workloads, one after another
    python3 perfbench/run.py --selftest      # tracing self-tests

Each workload runs in its own worker process (so peak RSS is per workload)
with OpenBLAS/OpenMP pinned to one thread and bytecode cached under
``perfbench/_scratch``, never in the source tree.  Set-up (interpreter start,
imports, seeded inputs, reference values, warm-up) is timed SETUPS times in
fresh processes and reported as the median.  With ``--trace 0`` the last
stdout line is the end-to-end metrics; with ``--trace 1`` it is the
per-layer metrics of a traced run.  The exit status is non-zero when any
operation failed its correctness check or raised.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "_scratch"
WORKLOADS = ("compose", "tfd", "eval", "cli")
SETUPS = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    # bytecode must be written (to the prefix) for warm start-up
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(SCRATCH / "pycache"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class WorkerError(RuntimeError):
    pass


@contextlib.contextmanager
def worker(args: list, deadline: float):
    """Run a worker process; yields (process, seconds until it printed READY).

    The worker gets its own process group, so killing the group at the
    deadline, or on the way out of the block, also ends any CLI process it
    started.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), kill_group, (proc,))
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            proc.wait()
            raise WorkerError(f"worker set-up failed (exit {proc.returncode})")
        yield proc, ready
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group(proc)
        proc.wait()
        proc.stdout.close()


def kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = SCRATCH / f"run-{name}-{seed}-{os.getpid()}"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    setups = []
    try:
        for _ in range(0 if trace else SETUPS - 1):
            with worker([*base, "--setup-only"], deadline) as (proc, ready):
                proc.wait()
            if proc.returncode != 0:
                raise WorkerError(f"set-up-only worker exited {proc.returncode}")
            setups.append(ready)
        with worker(base, deadline) as (proc, ready):
            lines = proc.stdout.read().splitlines()
            proc.wait()
        setups.append(ready)
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker exited {proc.returncode} without a result")
        result = json.loads(lines[-1])
        if trace:
            spans = workdir / f"spans-{name}-{seed}.csv"
            kept = SCRATCH / "spans" / spans.name
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(spans, kept)
            result["info"]["spans_file"] = str(kept.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setup_samples_s"] = setups
    result["workload"] = name
    result["seed"] = seed
    result["trace"] = trace
    return result


def report(result: dict) -> None:
    info, env = result["info"], result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {info['passes']}  operations {result['attempted']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':42s} {ratio:>14.6g} 1  ({result['failed']}/{result['attempted']})")
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, threads {env['blas_threads']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def save(result: dict) -> None:
    out = SCRATCH / "results" / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "volterra" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'volterra'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    # a terminated run still ends its workers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.selftest:
        selftest = [sys.executable, str(HERE / "selftest.py"), str(args.seed)]
        return subprocess.run(selftest, env=child_env(), cwd=ROOT).returncode

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        save(result)
        report(result)
        results.append(result)

    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        r = results[0]
        final = {"correct": failed == 0, "attempted": r["attempted"], "failed": failed,
                 "metrics": r["metrics"]}
    else:
        final = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                 "failed": failed,
                 "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
