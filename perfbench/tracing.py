"""Span tracing of the engine's public functions, from outside the package.

``Tracer.install`` replaces every public function of the ten engine modules
with a wrapper, at every place the function is bound: its own module, the
modules that imported it by name, and the package namespace.  A wrapper
records one span per call (name, start, end, parent span, operation id) in
memory, plus the computed size of the returned arrays and, for the two
functions that have one, a work ratio.  ``Tracer.uninstall`` puts the
original objects back.  Nothing under ``src/`` is touched, and an untraced
run never calls ``install``.

Self time of a span is its duration minus the durations of its direct
child spans; time spent in private helpers and in numpy therefore lands on
the innermost public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "combinatorics",
    "kernels",
    "evaluation",
    "actions",
    "morphisms",
    "algebra",
    "tfd",
    "dsl",
    "io",
    "cli",
)

# Per-layer metrics a traced run reports, in the order BENCHMARK.json lists
# them.  ``calls``, ``bytes``, ``errors``, ``orbit_fraction``,
# ``integral_ratio`` and ``io.bytes_written`` are exact counts: they repeat
# bit for bit for one seed.  The ``*_ms`` values and ``trace.overhead_ratio``
# are timings.
LAYER_METRICS = (
    ("kernels.symmetrize_plain.calls", "count"),
    ("kernels.symmetrize_plain.self_ms", "ms"),
    ("kernels.symmetrize_plain.bytes", "B"),
    ("algebra.compose_series.calls", "count"),
    ("algebra.compose_series.self_ms", "ms"),
    ("algebra.compose_series.bytes", "B"),
    ("algebra.compose_series.orbit_fraction", "ratio"),
    ("morphisms.pullback_gather.calls", "count"),
    ("morphisms.pullback_gather.self_ms", "ms"),
    ("morphisms.pullback_gather.bytes", "B"),
    ("combinatorics.compositions.calls", "count"),
    ("combinatorics.compositions.self_ms", "ms"),
    ("algebra.composition_labels.self_ms", "ms"),
    ("algebra.associativity_harness.self_ms", "ms"),
    ("kernels.vfrf.calls", "count"),
    ("kernels.vfrf.self_ms", "ms"),
    ("kernels.vfrf.bytes", "B"),
    ("evaluation.eval_freq.calls", "count"),
    ("evaluation.eval_freq.self_ms", "ms"),
    ("evaluation.project_diagonal.self_ms", "ms"),
    ("evaluation.project_diagonal.bytes", "B"),
    ("evaluation.outer_power.self_ms", "ms"),
    ("evaluation.outer_power.bytes", "B"),
    ("evaluation.eval_time.calls", "count"),
    ("evaluation.eval_time.self_ms", "ms"),
    ("evaluation.eval_homogeneous.self_ms", "ms"),
    ("evaluation.oracle_eval.self_ms", "ms"),
    ("actions.apply_action.self_ms", "ms"),
    ("actions.act_translation.self_ms", "ms"),
    ("actions.act_modulation.self_ms", "ms"),
    ("actions.act_periodization.self_ms", "ms"),
    ("actions.act_sampling.self_ms", "ms"),
    ("morphisms.apply_component.calls", "count"),
    ("morphisms.apply_component.self_ms", "ms"),
    ("morphisms.check_naturality.self_ms", "ms"),
    ("morphisms.catalog.self_ms", "ms"),
    ("tfd.pwvd.self_ms", "ms"),
    ("tfd.fractional_shift.calls", "count"),
    ("tfd.fractional_shift.self_ms", "ms"),
    ("tfd.fractional_shift.integral_ratio", "ratio"),
    ("tfd.wvd.self_ms", "ms"),
    ("tfd.cohen.self_ms", "ms"),
    ("tfd.stft.self_ms", "ms"),
    ("tfd.howvd.self_ms", "ms"),
    ("tfd.spectrogram_parameter.self_ms", "ms"),
    ("tfd.cohen_volterra_kernel.self_ms", "ms"),
    ("tfd.analytic_signal.self_ms", "ms"),
    ("dsl.parse.self_ms", "ms"),
    ("dsl.build.self_ms", "ms"),
    ("io.load_series.self_ms", "ms"),
    ("io.save_series.self_ms", "ms"),
    ("io.read_signal_csv.self_ms", "ms"),
    ("io.write_signal_csv.self_ms", "ms"),
    ("io.write_grid_csv.self_ms", "ms"),
    ("io.write_pgm.self_ms", "ms"),
    ("io.bytes_written", "B"),
    ("cli.import_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS)

# measured outside the spans by the workload; 0 where a workload has none
EXTERNAL_METRICS = ("cli.import_ms", "cli.process_ms", "trace.overhead_ratio")
PACKAGE = "volterra"
EXACT_STATS = ("calls", "bytes", "errors", "orbit_fraction", "integral_ratio", "bytes_written")


def is_exact(metric: str) -> bool:
    """True for the metrics that are counts, not timings."""
    return metric.rsplit(".", 1)[-1] in EXACT_STATS


def result_nbytes(value) -> int:
    """Computed size of the arrays a call returned (not measured memory)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(result_nbytes(v) for v in value)
    kernels = getattr(value, "kernels", None)
    if isinstance(kernels, dict):
        return sum(result_nbytes(k) for k in kernels.values())
    for attr in ("data", "values"):
        inner = getattr(value, attr, None)
        if isinstance(inner, np.ndarray):
            return int(inner.nbytes)
    return 0


def _orbit_counts(series) -> tuple[int, int]:
    """(orbit representatives, dense entries) over the kernels of a series."""
    reps = dense = 0
    for kernel in series.kernels.values():
        j, M = kernel.order, kernel.memory
        if j >= 1:
            reps += math.comb(M + j - 1, j)
            dense += M**j
    return reps, dense


def _is_integral_shift(args, kwargs) -> bool:
    d = kwargs["d"] if "d" in kwargs else args[1]
    return float(d) == int(round(d))


def _written_path(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def public_functions(module) -> dict:
    """name -> function for the public functions defined in ``module``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def binding_sites() -> list:
    """The package and every loaded submodule: where functions are bound."""
    prefix = PACKAGE + "."
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(prefix)]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, op_id, name, start_ns, end_ns)
        self.op_id = -1
        self._stack = []
        self._next_id = 0
        self._patched = []  # (module, name, original)
        self.bytes = defaultdict(int)
        self.errors = defaultdict(int)
        self.orbit = [0, 0]
        self.shifts = [0, 0]  # (integral, total)
        self.bytes_written = 0

    # -- patching ---------------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))
        for site in binding_sites():
            for name, obj in list(vars(site).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((site, name, obj))
                    setattr(site, name, hit[1])

    def uninstall(self):
        for site, name, original in reversed(self._patched):
            setattr(site, name, original)
        self._patched.clear()

    def _wrap(self, fn, qualname, layer):
        tracer = self
        extra = None
        if qualname == "algebra.compose_series":
            def extra(args, kwargs, result):
                reps, dense = _orbit_counts(result)
                tracer.orbit[0] += reps
                tracer.orbit[1] += dense
        elif qualname == "tfd.fractional_shift":
            def extra(args, kwargs, result):
                tracer.shifts[0] += _is_integral_shift(args, kwargs)
                tracer.shifts[1] += 1
        elif layer == "io" and qualname.split(".")[1].startswith(("write_", "save_")):
            def extra(args, kwargs, result):
                tracer.bytes_written += os.path.getsize(_written_path(args, kwargs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.op_id, qualname, start, end))
            tracer.bytes[qualname] += result_nbytes(result)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        wrapper.__traced_original__ = fn
        return wrapper

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """calls and self time (ns) per traced function name."""
        duration = {}
        child = defaultdict(int)
        for span_id, parent, _op, _name, start, end in self.spans:
            duration[span_id] = end - start
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for span_id, _parent, _op, name, _start, _end in self.spans:
            calls[name] += 1
            self_ns[name] += duration[span_id] - child[span_id]
        return {"calls": calls, "self_ns": self_ns}

    def layer_metrics(self, extras: dict) -> dict:
        """Every LAYER_METRICS value; functions never called report 0."""
        agg = self.aggregate()
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric in EXTERNAL_METRICS:
                value = extras.get(metric, 0.0)
            elif metric == "algebra.compose_series.orbit_fraction":
                value = self.orbit[0] / self.orbit[1] if self.orbit[1] else 0.0
            elif metric == "tfd.fractional_shift.integral_ratio":
                value = self.shifts[0] / self.shifts[1] if self.shifts[1] else 0.0
            elif metric == "io.bytes_written":
                value = self.bytes_written
            elif metric.endswith(".errors"):
                value = self.errors[metric.split(".")[0]]
            else:
                fn, stat = metric.rsplit(".", 1)
                if stat == "calls":
                    value = agg["calls"][fn]
                elif stat == "self_ms":
                    value = agg["self_ns"][fn] / 1e6
                elif stat == "bytes":
                    value = self.bytes[fn]
                else:
                    raise KeyError(metric)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        """Write the spans as CSV, one line per span, when the run ends."""
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span))
                fh.write("\n")
