"""Self-tests of the benchmark's tracing.  Run through the benchmark entry point:

    python3 perfbench/run.py --selftest [--seed N]

1. An untraced pass leaves every name the tracer patches bound to the
   original function, and install/uninstall restores all of them.
2. Wrapping changes no operation's output, bit for bit.
3. The exact counts (calls, bytes, errors, orbit_fraction, integral_ratio,
   io.bytes_written) repeat bit for bit across two traced passes with the
   same seed, each on freshly built inputs.
4. BENCHMARK.json lists exactly the metrics the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import tracing
import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def bindings() -> dict:
    """(module, name) -> bound object, over every place functions are bound."""
    return {
        (site.__name__, name): obj
        for site in tracing.binding_sites()
        for name, obj in vars(site).items()
        if callable(obj)
    }


def same_output(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same_output(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_output, a, b))
    return type(a) is type(b) and a == b


def with_files(result):
    """CLI results name an output prefix; compare the files it wrote too."""
    if isinstance(result, tuple) and len(result) == 4 and isinstance(result[3], str):
        prefix = Path(result[3])
        files = {p.name: p.read_bytes() for p in sorted(prefix.parent.glob(prefix.name + ".*"))}
        return result[:3] + (files,)
    return result


def traced_pass(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = []
        for i, op in enumerate(ops):
            tracer.op_id = i
            outputs.append(with_files(op.run()))
    finally:
        tracer.uninstall()
    return outputs, tracer.layer_metrics({})


def check_workload(name: str, seed: int, workdir: Path) -> list[str]:
    problems = []
    before = bindings()
    workload = WORKLOADS[name](seed, workdir / "a")
    ops = workload.trace_ops
    failures = []
    worker.run_pass(ops, failures, [])
    problems += [f"untraced pass failed: {f}" for f in failures]
    plain = [with_files(op.run()) for op in ops]
    if bindings() != before:
        problems.append("an untraced pass changed a bound name")

    traced, counts_a = traced_pass(ops)
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        problems.append(f"uninstall left {len(changed)} names patched, e.g. {changed[:3]}")
    for op, p, t in zip(ops, plain, traced):
        if not same_output(p, t):
            problems.append(f"{op.name}: traced output differs from untraced output")

    _, counts_b = traced_pass(WORKLOADS[name](seed, workdir / "b").trace_ops)
    for metric, entry in counts_a.items():
        if tracing.is_exact(metric) and entry["value"] != counts_b[metric]["value"]:
            problems.append(
                f"{metric} not repeatable: {entry['value']!r} vs {counts_b[metric]['value']!r}"
            )
    if not any(e["value"] for m, e in counts_a.items() if m.endswith(".calls")):
        problems.append("the traced pass recorded no calls")
    return problems


def check_patch_coverage() -> list[str]:
    """While installed, no site may still hold an original public function."""
    originals = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        originals.update({id(f): f"{layer}.{n}" for n, f in tracing.public_functions(module).items()})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missed = [k for k, obj in bindings().items() if id(obj) in originals]
    finally:
        tracer.uninstall()
    return [f"install left {len(missed)} original bindings, e.g. {missed[:3]}"] if missed else []


def check_manifest() -> list[str]:
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    listed = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    if listed != list(tracing.LAYER_METRICS):
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    reported = {"throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s"}
    if end_to_end != reported:
        problems.append(f"BENCHMARK.json end_to_end {sorted(end_to_end)} != {sorted(reported)}")
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main(argv=None) -> int:
    seed = int(argv[0]) if argv else 7
    workdir = HERE / "_scratch" / "selftest"
    problems = check_manifest() + check_patch_coverage()
    try:
        for name in WORKLOADS:
            found = check_workload(name, seed, workdir / name)
            print(f"selftest {name}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += [f"{name}: {p}" for p in found]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAILED {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
