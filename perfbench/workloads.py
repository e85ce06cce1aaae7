"""The four seeded, closed-loop, single-client workloads.

Each workload turns a seed into a fixed list of operations, one *pass*.  An
operation is a call into the public API of ``volterra`` plus a correctness
check against a tolerance the acceptance suite pins.  Shapes, sizes and the
schedule are part of the workload definition; the seed draws only
coefficients, signals and the few scalar parameters named below.  A run
reuses its seeded inputs on every pass.

Calls go through module attributes (``V.wvd``, ``vtfd.eval_double_bilinear``,
``vcli.main``), looked up at call time, so the traced run sees the same
bindings the engine's own modules see.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import volterra as V
import volterra.cli as vcli
import volterra.tfd as vtfd


@dataclass
class Op:
    """One closed-loop operation: ``run`` returns the output ``check`` judges.

    ``check`` returns None when the output is correct and a one-line reason
    otherwise.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- checks -------------------------------------------------------------------


def max_abs(a) -> float:
    return float(np.max(np.abs(np.asarray(a))))


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    scale = max_abs(want)
    return max_abs(got - want) / scale if scale else max_abs(got)


def within(label: str, value: float, tol: float) -> str | None:
    """None if value <= tol; NaN fails."""
    return None if value <= tol else f"{label} {value:.3e} exceeds {tol:.0e}"


def first_failure(*results) -> str | None:
    return next((r for r in results if r is not None), None)


# -- seeded inputs ------------------------------------------------------------


def random_series(max_order: int, memory: int, rng, constant=None):
    """Standard-normal complex kernels of orders 1..max_order (the tests' law)."""
    kernels = {}
    for j in range(1, max_order + 1):
        shape = (memory,) * j
        kernels[j] = V.VolterraKernel(
            j, memory, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
    if constant is not None:
        kernels[0] = V.constant_kernel(constant)
    return V.VolterraSeries(kernels)


def random_signal(L: int, rng) -> np.ndarray:
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def band_limited_chirp(L: int, rng) -> np.ndarray:
    """Real linear chirp plus noise, band-limited to bins [L/16, L/5].

    The band keeps the analytic signal and its products with the Gaussian
    window away from DC and from L/4, where the half-lag grid aliases; the
    spectrogram identity holds exactly only for such inputs.
    """
    t = np.arange(L)
    f0 = rng.uniform(0.08, 0.10)
    sweep = rng.uniform(0.03, 0.08)
    s = np.cos(2 * np.pi * (f0 * t + 0.5 * sweep * t * t / L)) + 0.1 * rng.standard_normal(L)
    spectrum = np.fft.fft(s)
    f = np.abs(np.fft.fftfreq(L) * L)
    spectrum[(f > L // 5) | (f < L // 16)] = 0.0
    return np.fft.ifft(spectrum).real


def gaussian_window(L: int) -> np.ndarray:
    """Centred-at-zero Gaussian, width 12 samples at L=256 (criterion 9)."""
    t = np.arange(L)
    width = 12.0 * np.sqrt(L / 256)
    return np.roll(np.exp(-0.5 * ((t - L / 2) / width) ** 2), -L // 2)


# -- reference rows for the grids the acceptance suite does not pin ---------


def trig_interp(x: np.ndarray, points) -> np.ndarray:
    """x at real positions by direct trigonometric interpolation.

    Uses the signed-frequency convention of ``fractional_shift``; at integer
    positions it equals the samples.  Independent of the engine's shift code.
    """
    L = x.size
    freqs = np.fft.fftfreq(L) * L
    points = np.asarray(points, dtype=float)
    basis = np.exp(2j * np.pi * np.multiply.outer(points, freqs) / L)
    return basis @ np.fft.fft(x) / L


def pwvd_reference_row(x: np.ndarray, lambdas, n: int) -> np.ndarray:
    """Row n of the polynomial Wigner distribution from its definition.

    R(m) = prod_l x(n + lambda_l 2m) conj(x(n - lambda_l 2m)) for |m| <= L/4,
    then PW(n, k) = sum_m R(m) exp(-2i pi (2m) k / L), k in [0, L/2).
    """
    L = x.size
    ms = np.arange(-(L // 4), L // 4 + 1)
    R = np.ones(ms.size, dtype=np.complex128)
    for lam in lambdas:
        R *= trig_interp(x, n + lam * 2 * ms) * np.conj(trig_interp(x, n - lam * 2 * ms))
    k = np.arange(L // 2)
    return np.exp(-2j * np.pi * np.outer(k, 2 * ms) / L) @ R


def howvd_reference_row(x: np.ndarray, k: int, n: int) -> np.ndarray:
    """Row n of the order-k higher-order Wigner distribution from its definition.

    Over half-lags m_1..m_{k-1} with alpha = (2/k) sum m: the product of
    conj(x(n - alpha)) and, for r >= 1, x(n + 2 m_r - alpha), conjugated for
    even r; axis r is transformed with exp(-2i pi c_r (2 m_r) g / L), where
    c_r = s_r - (sum s)/k and s is the conjugation sign pattern.
    """
    L = x.size
    ms = np.arange(-(L // 4), L // 4 + 1)
    signs = [-1] + [-1 if r % 2 == 0 else 1 for r in range(1, k)]
    sigma = sum(signs)
    grids = np.meshgrid(*([ms] * (k - 1)), indexing="ij")
    alpha = 2.0 * sum(grids) / k
    prod = np.conj(trig_interp(x, (n - alpha).ravel())).reshape(alpha.shape)
    for r in range(1, k):
        vals = trig_interp(x, (n + 2 * grids[r - 1] - alpha).ravel()).reshape(alpha.shape)
        prod = prod * (np.conj(vals) if signs[r] < 0 else vals)
    g = np.arange(L // 2)
    out = prod
    for r in range(1, k):
        E = np.exp(-2j * np.pi * (signs[r] - sigma / k) * np.outer(2 * ms, g) / L)
        out = np.tensordot(out, E, axes=([0], [0]))
    return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """A seeded list of operations; ``ops`` is one pass.

    ``warmup`` runs before the first timed operation.  ``trace_ops`` is the
    pass the traced run wraps; ``trace_extras`` adds the layer metrics that
    spans cannot give.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.ops: list[Op] = []

    @property
    def warmup(self) -> list[Op]:
        return self.ops

    @property
    def trace_ops(self) -> list[Op]:
        return self.ops

    def trace_extras(self) -> dict:
        return {}

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ComposeWorkload(Workload):
    """associativity_harness over 57 (orders, memories) triples.

    Orders {1, 2} and memories {2, 3} for C, B and A, criterion 6's
    distribution enumerated, less the seven triples of three order-2 series
    with any memory 3.  Those seven take 0.3 to 6 s each, 98 % of a pass,
    so a run of seconds holds three samples of them and its timings follow
    the shared host's load.  Composite order 8 is still reached, on the
    all-memory-2 triple, so ``compose_series`` and ``symmetrize_plain``
    dominate; ``tfd`` is never called and evaluation runs only at L=12.
    """

    name = "compose"
    SCHEDULE = tuple(
        (orders, memories)
        for orders in itertools.product((1, 2), repeat=3)
        for memories in itertools.product((2, 3), repeat=3)
        if orders != (2, 2, 2) or memories == (2, 2, 2)
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        for orders, memories in self.SCHEDULE:
            C, B, A = (random_series(o, m, rng) for o, m in zip(orders, memories))
            trial_seed = int(rng.integers(2**31))
            self.ops.append(
                Op(
                    f"harness o{orders} m{memories}",
                    lambda C=C, B=B, A=A, r=trial_seed: V.associativity_harness(
                        C, B, A, trials=2, L=12, rng=r
                    ),
                    self._check,
                )
            )

    @staticmethod
    def _check(report) -> str | None:
        if not report.labels_match:
            return "composition labels differ between associations"
        return first_failure(
            within("kernel deviation", report.max_kernel_deviation, 1e-8),
            within("output deviation", report.max_output_deviation, 1e-8),
        )

    @property
    def warmup(self):
        return self.ops[:1]


class TfdWorkload(Workload):
    """Wigner, Cohen, STFT and polynomial-Wigner grids at L=256 and L=1024.

    Two sizes because batching the polynomial-Wigner lags wins more at 256
    than at 1024, where the L x L ramp matrix dominates.  Also ``howvd`` k=3
    at L=64 and one Cohen row through its Volterra kernel at L=256.  No
    ``algebra`` or ``morphisms`` call is made.
    """

    name = "tfd"
    SIZES = (256, 1024)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        state: dict = {}
        for L in self.SIZES:
            s = band_limited_chirp(L, rng)
            h = gaussian_window(L)
            lam3 = float(rng.uniform(0.55, 0.75))
            rows = [int(n) for n in rng.integers(0, L, size=2)]
            x_ref = V.analytic_signal(s)
            stft_ref = {
                n: np.exp(-2j * np.pi * np.outer(np.arange(L), np.arange(L)) / L)
                @ (x_ref * np.conj(np.roll(h, n)))
                for n in rows
            }
            pwvd_ref = {
                k: {
                    n: pwvd_reference_row(x_ref, V.pwvd_lambdas(k, lam3 if k == 6 else None).lambdas, n)
                    for n in rows
                }
                for k in (4, 6)
            }
            self.ops += self._grid_ops(L, s, h, lam3, state, stft_ref, pwvd_ref)
            if L == 256:
                f_bin = int(rng.integers(16, 52))
                self.ops.append(
                    Op(
                        "cohen_kernel_row@256",
                        lambda L=L, h=h, f_bin=f_bin: vtfd.eval_double_bilinear(
                            V.cohen_volterra_kernel(V.spectrogram_parameter(h), f_bin),
                            np.conj(state[L]["x"]),
                            state[L]["x"],
                        ),
                        lambda got, L=L, f_bin=f_bin: within(
                            "kernel route vs Cohen row",
                            rel_err(got, state[L]["cohen_spec"][:, f_bin]),
                            1e-7,
                        ),
                    )
                )
        x64 = V.analytic_signal(band_limited_chirp(64, rng))
        n64 = int(rng.integers(0, 64))
        howvd_ref = howvd_reference_row(x64, 3, n64)
        self.ops.append(
            Op(
                "howvd3@64",
                lambda: V.howvd(x64, 3).values,
                lambda H: within("howvd row vs definition", rel_err(H[n64], howvd_ref), 1e-9),
            )
        )

    @staticmethod
    def _grid_ops(L, s, h, lam3, state, stft_ref, pwvd_ref) -> list[Op]:
        st = state.setdefault(L, {})
        half = L // 2

        def keep(key, fn):
            def run():
                st[key] = fn()
                return st[key]

            return run

        def check_analytic(x):
            return within("real part vs input", rel_err(x.real, s), 1e-12)

        def check_wvd(W):
            marginal = W.real.sum(axis=1) / half
            return first_failure(
                within("wvd imag ratio", max_abs(W.imag) / max_abs(W.real), 1e-9),
                within("wvd frequency marginal", rel_err(marginal, np.abs(st["x"]) ** 2), 0.02),
            )

        def check_stft(S):
            return within(
                "stft rows vs direct DFT",
                max(rel_err(S[n], ref) for n, ref in stft_ref.items()),
                1e-10,
            )

        def check_pwvd(k):
            def check(P):
                marginal = P.sum(axis=1) / half
                return first_failure(
                    within(f"pwvd{k} lag-0 marginal", rel_err(marginal, np.abs(st["x"]) ** k), 1e-9),
                    within(
                        f"pwvd{k} rows vs definition",
                        max(rel_err(P[n], ref) for n, ref in pwvd_ref[k].items()),
                        1e-9,
                    ),
                )

            return check

        return [
            Op(f"analytic@{L}", keep("x", lambda: V.analytic_signal(s)), check_analytic),
            Op(f"wvd@{L}", keep("wvd", lambda: V.wvd(st["x"]).values), check_wvd),
            Op(
                f"cohen_unit@{L}",
                lambda: V.cohen(st["x"], V.unit_parameter(L)).values,
                lambda C: within("unit Cohen vs wvd", rel_err(C, st["wvd"]), 1e-12),
            ),
            Op(f"stft@{L}", keep("stft", lambda: V.stft(st["x"], h)), check_stft),
            Op(
                f"cohen_spec@{L}",
                keep("cohen_spec", lambda: V.cohen(st["x"], V.spectrogram_parameter(h)).values),
                lambda C: within(
                    "spectrogram Cohen vs 0.5|stft|^2",
                    rel_err(C, 0.5 * np.abs(st["stft"][:, :half]) ** 2),
                    1e-6,
                ),
            ),
            Op(f"pwvd4@{L}", lambda: V.pwvd(st["x"], V.pwvd_lambdas(4)).values, check_pwvd(4)),
            Op(
                f"pwvd6@{L}",
                lambda: V.pwvd(st["x"], V.pwvd_lambdas(6, lam3)).values,
                check_pwvd(6),
            ),
        ]


class EvalWorkload(Workload):
    """Time, frequency and oracle evaluation, the four actions, naturality.

    ``eval_time`` at L=1024 (orders 1..3, M=16), dense ``eval_freq`` at
    L=64 j=3 and L=32 j=4, the actions at L=24, ``check_naturality`` over
    every catalog kind at L=16, an ``oracle_eval`` spot check at L=16.  The
    same ``vfrf``/``fftn`` layer as ``compose``, at large L and low order;
    ``algebra`` and ``tfd`` are never called.
    """

    name = "eval"
    NATURALITY_PARAMS = {"translation": {1: (1,), 2: (2, 0)}, "sampling": 2, "smoothing": 0.7}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self._time_op(rng)
        for L, j in ((64, 3), (32, 4)):
            self._freq_op(rng, L, j)
        self._action_ops(rng)
        self._naturality_ops(rng)
        self._oracle_op(rng)

    def _time_op(self, rng):
        L, M = 1024, 16
        S = random_series(3, M, rng)
        s = random_signal(L, rng)
        # The oracle at L=1024 takes minutes; y(t) depends only on the M
        # samples up to t, so the oracle on a window of 2M samples gives
        # exact reference values at its last M+1 positions.
        ref = {}
        for start in rng.integers(0, L, size=2):
            window = np.take(s, np.arange(start, start + 2 * M), mode="wrap")
            y = V.oracle_eval(S, window)
            for i in range(M - 1, 2 * M):
                ref[int((start + i) % L)] = y[i]
        at = np.array(sorted(ref))
        want = np.array([ref[t] for t in at])
        self.ops.append(
            Op(
                "eval_time@1024",
                lambda: V.eval_time(S, s),
                lambda y: within("time vs oracle", max_abs(y[at] - want), 1e-10),
            )
        )

    def _freq_op(self, rng, L, j):
        S = random_series(j, 4, rng)
        s = random_signal(L, rng)
        s_hat = np.fft.fft(s)
        want = np.fft.fft(V.eval_time(S, s))
        self.ops.append(
            Op(
                f"eval_freq@{L}j{j}",
                lambda: V.eval_freq(S, s_hat),
                lambda y: within("freq vs fft(time)", rel_err(y, want), 1e-8),
            )
        )

    def _action_ops(self, rng):
        L = 24
        S = random_series(3, 3, rng, constant=complex(rng.standard_normal()))
        s = random_signal(L, rng)
        s_hat = np.fft.fft(s)
        d = int(rng.integers(1, L))
        xi = int(rng.integers(1, L))
        T = 3
        comb = V.comb_signal(L, T)
        gamma = random_signal(L, rng)
        modulated = np.exp(2j * np.pi * xi * np.arange(L) / L) * s
        periodized = np.fft.ifft(np.fft.fft(comb) * s_hat)
        want = {
            "translation": np.roll(V.eval_time(S, s), d),
            "modulation": np.fft.fft(V.eval_time(S, modulated)),
            "periodization": np.fft.fft(V.eval_time(S, periodized)),
            "sampling": V.eval_time(S, comb * s),
            "apply": V.eval_freq(S, gamma * s_hat),
        }
        multiplier = V.Multiplier(gamma)
        runs = {
            "translation": lambda: V.act_translation(S, s, d),
            "modulation": lambda: V.act_modulation(S, s_hat, xi),
            "periodization": lambda: V.act_periodization(S, s_hat, T),
            "sampling": lambda: V.act_sampling(S, s, T),
            "apply": lambda: V.apply_action(S, multiplier, s_hat),
        }
        tols = {"translation": 1e-10, "apply": 1e-10}
        for kind, run in runs.items():
            self.ops.append(
                Op(
                    f"act_{kind}@{L}",
                    run,
                    lambda y, kind=kind: within(
                        f"{kind} identity", max_abs(y - want[kind]), tols.get(kind, 1e-9)
                    ),
                )
            )

    def _naturality_ops(self, rng):
        L = 16
        V0 = random_series(2, 3, rng)
        trial_seed = int(rng.integers(2**31))
        for kind in V.morphisms.CATALOG_KINDS:
            params = self.NATURALITY_PARAMS.get(kind)

            def run(kind=kind, params=params):
                W, m = V.catalog(kind, V0, L, params=params)
                return V.check_naturality(m, V0, W, trials=20, rng=trial_seed)

            self.ops.append(
                Op(
                    f"naturality_{kind}@{L}",
                    run,
                    lambda r: within("naturality residual", r, 1e-9),
                )
            )

    def _oracle_op(self, rng):
        L = 16
        S = random_series(3, 4, rng, constant=complex(rng.standard_normal()))
        s = random_signal(L, rng)
        want = V.eval_time(S, s)
        self.ops.append(
            Op(
                f"oracle_eval@{L}",
                lambda: V.oracle_eval(S, s),
                lambda y: within("oracle vs time", max_abs(y - want), 1e-10),
            )
        )


class CliWorkload(Workload):
    """One ``python -m volterra.cli`` process per operation.

    Cycles through compose, eval, eval --freq, tfd --pgm, info, lambdas and
    morph --check-naturality.  The only workload that pays process start-up
    and runs ``dsl``, ``io`` and argument handling.  Each output (payload
    and files) is compared with the same call made in-process during set-up.
    """

    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.src = str(Path(V.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = self.src
        self._cases = self._build_cases(rng)
        self.ops = [
            Op(f"cli {argv[0]}", self._process_runner(argv, name), self._wrap_check(check))
            for argv, name, check in self._cases
        ]

    def path(self, name: str) -> str:
        return str(self.inputs / name)

    def _build_cases(self, rng):
        """(argv, output prefix, check) per subcommand; references are in-process."""
        cases = []
        # compose: order-2, M=3 files; (C <| B) <| A truncates at order 4
        binds = []
        bindings = {}
        for name in ("A", "B", "C"):
            series = random_series(2, 3, rng)
            V.io.save_series(self.path(f"{name}.vk"), series)
            bindings[name] = V.io.load_series(self.path(f"{name}.vk"))
            binds += ["--bind", f"{name}={self.path(name + '.vk')}"]
        expr = "(C <| B) <| A"
        with _quiet_warnings():
            composed = V.build(V.parse(expr), bindings)

        def check_compose(payload, out):
            got = V.io.load_series(out + ".vk")
            if payload.get("orders") != list(composed.orders()):
                return f"compose orders {payload.get('orders')} != {list(composed.orders())}"
            return within(
                "compose kernels vs in-process",
                max(max_abs(got.kernels[j].data - composed.kernels[j].data) for j in composed.orders()),
                1e-12,
            )

        cases.append((["compose", "--expr", expr, *binds, "--out", "{out}.vk"], "compose", check_compose))

        # eval and eval --freq at L=256 on an order-2, M=4 series
        L = 256
        series = random_series(2, 4, rng)
        V.io.save_series(self.path("S.vk"), series)
        V.io.write_signal_csv(self.path("s.csv"), random_signal(L, rng))
        S_file = V.io.load_series(self.path("S.vk"))
        s_file = V.io.read_signal_csv(self.path("s.csv"))
        want_time = V.eval_time(S_file, s_file)
        want_freq = V.eval_freq(S_file, np.fft.fft(s_file))

        def check_eval(want, domain):
            def check(payload, out):
                got = V.io.read_signal_csv(out + ".csv")
                if payload.get("domain") != domain or payload.get("length") != L:
                    return f"eval payload {payload}"
                return within(f"eval {domain} vs in-process", rel_err(got, want), 1e-12)

            return check

        eval_args = ["eval", "--series", self.path("S.vk"), "--signal", self.path("s.csv")]
        cases.append(([*eval_args, "--out", "{out}.csv"], "eval", check_eval(want_time, "time")))
        cases.append(
            ([*eval_args, "--freq", "--out", "{out}.csv"], "evalf", check_eval(want_freq, "freq"))
        )

        # tfd --method wvd --pgm at L=256
        V.io.write_signal_csv(self.path("chirp.csv"), V.analytic_signal(band_limited_chirp(L, rng)))
        x = V.io.read_signal_csv(self.path("chirp.csv"))
        want_grid = V.wvd(x).values
        V.io.write_pgm(self.path("want.pgm"), want_grid)
        want_pgm = Path(self.path("want.pgm")).read_bytes()

        def check_tfd(payload, out):
            grid = V.io.read_grid_csv(out + ".csv")
            if payload.get("shape") != [L, L // 2]:
                return f"tfd shape {payload.get('shape')}"
            if Path(out + ".pgm").read_bytes() != want_pgm:
                return "tfd heatmap differs from in-process write_pgm"
            return within("tfd grid vs in-process wvd", rel_err(grid, want_grid.real), 1e-12)

        cases.append(
            (
                ["tfd", "--in", self.path("chirp.csv"), "--method", "wvd",
                 "--out", "{out}.csv", "--pgm", "{out}.pgm"],
                "tfd",
                check_tfd,
            )
        )

        # info
        def check_info(payload, out):
            if payload.get("orders") != list(S_file.orders()) or payload.get("memory") != S_file.memory:
                return f"info payload {payload}"
            return None

        cases.append((["info", "--series", self.path("S.vk")], "info", check_info))

        # lambdas --k 6
        lam3 = float(rng.uniform(0.55, 0.75))
        want_lambdas = list(V.pwvd_lambdas(6, lam3).lambdas)

        def check_lambdas(payload, out):
            if not payload.get("passed"):
                return "lambda constraints not passed"
            return within("lambdas vs in-process", max_abs(np.subtract(payload["lambdas"], want_lambdas)), 0.0)

        cases.append((["lambdas", "--k", "6", "--lambda3", repr(lam3)], "lambdas", check_lambdas))

        # morph --check-naturality on a smoothing morphism at L=16
        V0 = random_series(2, 3, rng)
        W, m = V.catalog("smoothing", V0, 16, params=0.7)
        V.io.save_series(self.path("V.vk"), V0)
        V.io.save_series(self.path("W.vk"), W)
        V.io.save_morphism(self.path("m.vm"), m)
        trial_seed = int(rng.integers(2**31))
        want_residual = V.check_naturality(
            V.io.load_morphism(self.path("m.vm")),
            V.io.load_series(self.path("V.vk")),
            V.io.load_series(self.path("W.vk")),
            trials=20,
            rng=trial_seed,
        )

        def check_morph(payload, out):
            residual = payload.get("max_residual", float("nan"))
            return first_failure(
                within("naturality residual", residual, 1e-9),
                within("residual vs in-process", abs(residual - want_residual), 1e-12),
            )

        cases.append(
            (
                ["morph", "--check-naturality", "--morphism", self.path("m.vm"),
                 "--source", self.path("V.vk"), "--target", self.path("W.vk"),
                 "--trials", "20", "--seed", str(trial_seed)],
                "morph",
                check_morph,
            )
        )
        return cases

    def _argv(self, argv, out_prefix):
        return [a.replace("{out}", out_prefix) for a in argv]

    def _process_runner(self, argv, name):
        out = str(self.workdir / f"proc_{name}")
        cmd = [sys.executable, "-m", "volterra.cli", *self._argv(argv, out)]

        def run():
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr, out

        return run

    def _inprocess_runner(self, argv, name):
        out = str(self.workdir / f"main_{name}")
        args = self._argv(argv, out)

        def run():
            buf = _stdio.StringIO()
            with contextlib.redirect_stdout(buf), _quiet_warnings():
                code = vcli.main(args)
            return code, buf.getvalue(), "", out

        return run

    @staticmethod
    def _wrap_check(check):
        def judged(result):
            code, stdout, stderr, out = result
            if code != 0:
                return f"exit status {code}: {stderr.strip()[-200:]}"
            try:
                payload = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                return f"no JSON payload on stdout: {stdout[-200:]!r}"
            return check(payload, out)

        return judged

    @property
    def warmup(self):
        # the first invocation compiles the package into the bytecode cache
        return [op for op in self.ops if op.name == "cli info"]

    @property
    def trace_ops(self):
        return [
            Op(f"main {argv[0]}", self._inprocess_runner(argv, name), self._wrap_check(check))
            for argv, name, check in self._cases
        ]

    def trace_extras(self) -> dict:
        """Process-level timings: import alone, and each subcommand as a process."""
        cmd = [sys.executable, "-c", "import volterra.cli"]
        imports = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run(cmd, env=self.env, check=True, timeout=120)
            imports.append(time.perf_counter() - start)
        processes = []
        for op in self.ops:
            start = time.perf_counter()
            failure = op.check(op.run())
            processes.append(time.perf_counter() - start)
            if failure is not None:
                raise RuntimeError(f"{op.name}: {failure}")
        return {
            "cli.import_ms": statistics.median(imports) * 1e3,
            "cli.process_ms": statistics.median(processes) * 1e3,
        }

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


@contextlib.contextmanager
def _quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", V.TruncationWarning)
        yield


WORKLOADS = {w.name: w for w in (ComposeWorkload, TfdWorkload, EvalWorkload, CliWorkload)}
