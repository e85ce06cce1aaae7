"""Command-line driver.

Subcommands: ``eval`` (apply a series file to a signal file), ``compose``
(build a series from an interconnection expression), ``morph`` (apply a
morphism or check its naturality), ``tfd`` (time-frequency grids plus PGM
heatmaps), ``lambdas`` (polynomial-distribution lag scalings), ``info``
(series summary).  Machine-readable JSON goes to stdout, diagnostics to
stderr; exit status is 0 on success, 1 on a contract violation, 2 on bad
usage or a path that cannot be opened.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import io
from .dsl import build, parse
from .errors import ParseError, ResolutionError, TruncationWarning, VolterraError
from .evaluation import eval_freq, eval_time
from .kernels import DEFAULT_MAX_ORDER, symmetric_part_max_deviation
from .morphisms import apply_component, check_naturality, validate_morphism
from .tfd import (
    LambdaSet,
    analytic_signal,
    check_lambda_constraints,
    cohen,
    howvd,
    pwvd,
    pwvd_lambdas,
    rihaczek_parameter,
    spectrogram_parameter,
    unit_parameter,
    wvd,
)

NATURALITY_TOLERANCE = 1e-9


def _emit(payload) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cmd_eval(args) -> int:
    series = io.load_series(args.series)
    signal = io.read_signal_csv(args.signal)
    out = eval_freq(series, np.fft.fft(signal)) if args.freq else eval_time(series, signal)
    io.write_signal_csv(args.out, out)
    _emit({"out": args.out, "length": int(out.size), "domain": "freq" if args.freq else "time"})
    return 0


def _cmd_compose(args) -> int:
    node = parse(args.expr)
    bindings = {}
    for binding in args.bind or []:
        name, _, path = binding.partition("=")
        if not name or not path:
            raise ResolutionError(f"--bind needs NAME=path, got {binding!r}")
        bindings[name] = io.load_series(path)
    records = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        series = build(node, bindings, max_order=args.max_order)
        for w in caught:
            if isinstance(w.message, TruncationWarning):
                records.append(
                    {
                        "operation": w.message.operation,
                        "dropped_orders": list(w.message.dropped_orders),
                        "cap": w.message.cap,
                    }
                )
    io.save_series(args.out, series)
    _emit({"out": args.out, "orders": list(series.orders()), "truncations": records})
    return 0


def _cmd_morph(args) -> int:
    m = io.load_morphism(args.morphism)
    V = io.load_series(args.source)
    W = io.load_series(args.target)
    report = validate_morphism(m, V, W)
    if not report.ok:
        for problem in report.violations:
            print(f"morphism validation: {problem}", file=sys.stderr)
        _emit({"valid": False, "violations": list(report.violations)})
        return 1
    if args.check_naturality:
        residual = check_naturality(m, V, W, trials=args.trials, rng=args.seed)
        _emit(
            {
                "valid": True,
                "max_residual": residual,
                "trials": args.trials,
                "tolerance": NATURALITY_TOLERANCE,
            }
        )
        return 0 if residual <= NATURALITY_TOLERANCE else 1
    if not args.signal or not args.out:
        raise argparse.ArgumentError(None, "morph --apply needs --signal and --out")
    signal = io.read_signal_csv(args.signal)
    out = apply_component(m, V, W, np.fft.fft(signal))
    io.write_signal_csv(args.out, out)
    _emit({"valid": True, "out": args.out, "length": int(out.size)})
    return 0


def _cmd_tfd(args) -> int:
    signal = io.read_signal_csv(args.infile)
    if args.analytic:
        signal = analytic_signal(signal.real)
    if args.method == "wvd":
        grid = wvd(signal).values
    elif args.method == "cohen":
        L = signal.size
        if args.phi == "ones":
            phi = unit_parameter(L)
        elif args.phi == "rihaczek":
            phi = rihaczek_parameter(L)
        elif args.phi == "spectrogram":
            if not args.window:
                raise argparse.ArgumentError(None, "cohen --phi spectrogram needs --window")
            phi = spectrogram_parameter(io.read_signal_csv(args.window))
        else:  # pragma: no cover - argparse restricts choices
            raise VolterraError(f"unknown parameter function {args.phi}")
        grid = cohen(signal, phi).values
    elif args.method == "pwvd":
        if args.k == 6:
            if args.lambda3 is None:
                raise argparse.ArgumentError(None, "pwvd with k = 6 needs --lambda3")
            ls = pwvd_lambdas(6, args.lambda3)
        elif args.k == 4:
            ls = pwvd_lambdas(4)
        elif args.k == 2:
            ls = LambdaSet(2, (0.5,))
        else:
            raise argparse.ArgumentError(None, "pwvd supports k in {2, 4, 6}")
        grid = pwvd(signal, ls).values
    else:  # howvd
        full = howvd(signal, args.k).values
        # flatten the frequency block row-major so the CSV stays 2-d
        grid = full.reshape(full.shape[0], -1)
    io.write_grid_csv(args.out, grid)
    payload = {"out": args.out, "shape": list(grid.shape), "method": args.method}
    if args.pgm:
        io.write_pgm(args.pgm, grid)
        payload["pgm"] = args.pgm
    _emit(payload)
    return 0


def _cmd_lambdas(args) -> int:
    ls = pwvd_lambdas(args.k, args.lambda3)
    report = check_lambda_constraints(ls, args.moments)
    _emit(
        {
            "k": ls.k,
            "lambdas": list(ls.lambdas),
            "half_sum_residual": report.half_sum_residual,
            "paired_odd_residuals": {str(m): v for m, v in report.paired_odd_residuals.items()},
            "one_sided_odd_sums": {str(m): v for m, v in report.one_sided_odd_sums.items()},
            "passed": report.passed(),
        }
    )
    return 0


def _cmd_info(args) -> int:
    series = io.load_series(args.series)
    kernels = []
    for index, kernel in series.kernels.items():
        asym = symmetric_part_max_deviation(kernel)
        kernels.append(
            {
                "index": index,
                "order": kernel.order,
                "memory": kernel.memory,
                "max_asymmetry": asym,
                # relative: re-averaging an exactly symmetric kernel rounds at its own scale
                "symmetric": asym <= 1e-12 * float(np.max(np.abs(kernel.data))),
            }
        )
    _emit(
        {
            "orders": list(series.orders()),
            "memory": series.memory,
            "constant": _complex_pair(series.constant),
            "kernels": kernels,
        }
    )
    return 0


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="volterra", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="apply a series file to a signal file")
    p.add_argument("--series", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--freq", action="store_true", help="evaluate in the frequency domain")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compose", help="build a series from an interconnection expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--bind", action="append", metavar="NAME=PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("morph", help="apply a morphism or check naturality")
    p.add_argument("--morphism", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--check-naturality", action="store_true")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--signal")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_morph)

    p = sub.add_parser("tfd", help="compute a time-frequency grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=("wvd", "cohen", "pwvd", "howvd"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")
    p.add_argument("--phi", choices=("ones", "rihaczek", "spectrogram"), default="ones")
    p.add_argument("--window")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--lambda3", type=float)
    p.add_argument("--analytic", action="store_true", help="analytic extension of the real part first")
    p.set_defaults(fn=_cmd_tfd)

    p = sub.add_parser("lambdas", help="closed-form polynomial-distribution lag scalings")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda3", type=float)
    p.add_argument("--moments", type=int, default=5)
    p.set_defaults(fn=_cmd_lambdas)

    p = sub.add_parser("info", help="orders, memory and symmetry of a series file")
    p.add_argument("--series", required=True)
    p.set_defaults(fn=_cmd_info)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (argparse.ArgumentError, ParseError, ResolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2  # bad usage, or a path that cannot be opened
    except VolterraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
