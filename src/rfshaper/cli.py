"""Command-line interface.

Subcommands: ``block`` (single-block sweeps), ``sweep`` (netlist
sweeps), ``experiment`` (preset experiments), ``optimize`` (heater
tuning).  Exit codes: 0 success, 2 usage, 3 parse/configuration,
4 runtime or I/O.  All randomness flows from ``--seed`` and equal
invocations produce byte-identical outputs.

Netlist paths may be ``preset:deinterleaver`` or ``preset:shaper`` to
use the built-in circuits.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .blocks import BLOCK_KINDS, FrequencyGrid, h_tunable_coupler
from .circuit import BlockInstance, CircuitGraph, Port, evaluate
from .csvout import (format_summary_value, write_optical_csv, write_rf_csv,
                     write_summary, write_table_csv)
from .errors import ConfigurationError, ShaperError, TopologyError
from .experiments import run_experiment
from .netlist import (NetlistDocument, document_to_text,
                      load_experiment_config, parse_netlist)
from .topologies import DeinterleaverSpec, build_deinterleaver, build_shaper
from .tuner import Objective, OptimizerConfig, optimize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4


class _ParseFailure(Exception):
    """Carries positioned parse errors to the exit-code mapping."""

    def __init__(self, errors):
        super().__init__("parse failed")
        self.errors = errors


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"expected numbers in lo:hi:step, got {text!r}")
    if not (step > 0 and hi > lo):
        raise ConfigurationError("need step > 0 and hi > lo")
    return lo, hi, step


def _resolve_netlist(path: str) -> str:
    if path.startswith("preset:"):
        name = path.split(":", 1)[1]
        if name == "deinterleaver":
            graph = build_deinterleaver(DeinterleaverSpec.designed())
        elif name == "shaper":
            graph = build_shaper()
        else:
            raise ConfigurationError(
                f"unknown preset netlist {name!r} (have: deinterleaver, shaper)")
        return document_to_text(NetlistDocument.from_graph(graph))
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read netlist {path}: {exc}") from exc


def _load_graph(path: str) -> CircuitGraph:
    doc, errors = parse_netlist(_resolve_netlist(path))
    if errors:
        raise _ParseFailure(errors)
    return doc.to_graph()


def _single_block_graph(kind: str, kv: dict[str, float]) -> CircuitGraph:
    spec = BLOCK_KINDS[kind]
    try:
        block = BlockInstance("b", kind, spec.make_params(kv))
    except ShaperError as exc:
        raise _ParseFailure([exc])
    outputs = {name: Port("b", p)
               for name, p in zip(spec.cli_ports, spec.outputs)}
    return CircuitGraph((block,), (), {"in": Port("b", spec.inputs[0])},
                        outputs)


def cmd_block(args) -> int:
    if args.phase_sweep and args.kind != "tunable_coupler":
        raise ConfigurationError("--phase-sweep only applies to tunable_coupler")
    spec = BLOCK_KINDS[args.kind]
    kv: dict[str, float] = {}
    errors = []
    for item in args.params:
        key, eq, val = item.partition("=")
        if not eq or key not in spec.keys:
            errors.append(f"bad parameter {item!r} for kind {args.kind}")
            continue
        try:
            kv[key] = float(val)
        except ValueError:
            errors.append(f"invalid number in {item!r}")
    for key in spec.required:
        if key not in kv and not args.phase_sweep:
            errors.append(f"kind {args.kind} requires {key}")
    if errors:
        raise _ParseFailure(errors)

    if args.phase_sweep:
        lo, hi, step = _parse_range(args.phase_sweep)
        phis = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
        rows = []
        for phi in phis:
            m = h_tunable_coupler(float(phi))
            rows.append((float(phi), abs(m.m00) ** 2, abs(m.m10) ** 2,
                         math.atan2(m.m00.imag, m.m00.real),
                         math.atan2(m.m10.imag, m.m10.real)))
        write_table_csv(("phase_rad", "bar_power", "cross_power",
                         "bar_phase_rad", "cross_phase_rad"), rows, args.out)
        return EXIT_OK

    if not args.sweep:
        raise ConfigurationError("--sweep lo:hi:step is required")
    lo, hi, step = _parse_range(args.sweep)
    graph = _single_block_graph(args.kind, kv)
    resp = evaluate(graph, FrequencyGrid.sweep(lo, hi, step))
    write_optical_csv(resp, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    graph = _load_graph(args.netlist)
    lo, hi, step = _parse_range(args.sweep)
    resp = evaluate(graph, FrequencyGrid.sweep(lo, hi, step),
                    input_name=args.input)
    write_optical_csv(resp, args.out, port=args.port or None)
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config {args.config}: {exc}") from exc
    cfg, errors = load_experiment_config(text)
    if errors:
        raise _ParseFailure(errors)
    outdir = Path(args.out_dir or cfg.outdir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seed
    result = run_experiment(cfg.experiment, cfg.overrides(), seed=seed)

    written = []
    for name, trace in sorted(result.traces.items()):
        written.append(write_rf_csv(trace, outdir / f"{result.name}_{name}.csv"))
    for name, resp in sorted(result.optical.items()):
        written.extend(write_optical_csv(
            resp, outdir / f"{result.name}_{name}.csv"))
    for name, (headers, rows) in sorted(result.tables.items()):
        written.append(write_table_csv(
            headers, rows, outdir / f"{result.name}_{name}.csv"))
    summary_path = outdir / f"{result.name}_summary.txt"
    write_summary(result.summary, summary_path)
    for key, value in result.summary.items():
        print(key, format_summary_value(value))
    print("summary_file", summary_path)
    for path in written:
        print("trace_file", path)
    return EXIT_OK


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"expected lo:hi, got {text!r}")
    if not hi > lo:
        raise ConfigurationError("need hi > lo")
    return lo, hi


def _objective_from_args(args) -> Objective:
    kw: dict[str, object] = {"kind": args.objective}
    if args.port:
        kw["port"] = args.port
    if args.passband:
        kw["passband"] = _parse_band(args.passband)
    if args.stopband:
        kw["stopband"] = _parse_band(args.stopband)
    if args.rf_freq is not None:
        kw["rf_freq_ghz"] = args.rf_freq
    if args.offset is not None:
        kw["offset_ghz"] = args.offset
    if args.band:
        kw["band"] = _parse_band(args.band)
    return Objective(**kw)


def cmd_optimize(args) -> int:
    graph = _load_graph(args.netlist)
    objective = _objective_from_args(args)
    config = OptimizerConfig(max_evals=args.max_evals, restarts=args.restarts,
                             seed=args.seed or 0)
    heaters = args.heaters.split(",") if args.heaters else None
    result = optimize(graph, objective, config, heater_names=heaters)
    tuned = graph.with_heaters(result.best)
    text = document_to_text(NetlistDocument.from_graph(tuned))
    try:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write netlist {args.out}: {exc}") from exc

    summary = {
        "objective": args.objective,
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "netlist_file": str(args.out),
    }
    for name in sorted(result.best):
        summary[f"heater.{name}"] = result.best[name]
    if args.summary:
        write_summary(summary, args.summary)
    for key, value in summary.items():
        print(key, format_summary_value(value))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfshaper",
        description="Frequency-domain simulator for an RF-photonic spectral shaper")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("block", help="sweep a single building block")
    p.add_argument("kind", choices=sorted(BLOCK_KINDS))
    p.add_argument("params", nargs="*", metavar="key=value")
    p.add_argument("--sweep", help="offset sweep lo:hi:step (GHz)")
    p.add_argument("--phase-sweep", help="coupler phase sweep lo:hi:step (rad)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("sweep", help="sweep a netlist circuit")
    p.add_argument("netlist", help="netlist path or preset:<name>")
    p.add_argument("--sweep", required=True, help="offset sweep lo:hi:step (GHz)")
    p.add_argument("--port", help="output port (default: all ports)")
    p.add_argument("--input", help="input port name (default: the only one)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("experiment", help="run a preset experiment")
    p.add_argument("config", help="experiment config path")
    p.add_argument("--out-dir", help="output directory (default from config)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("optimize", help="tune heaters against an objective")
    p.add_argument("netlist", help="netlist path or preset:<name>")
    p.add_argument("--objective", required=True,
                   choices=["deinterleaver_extinction", "notch_depth",
                            "conversion_extinction", "critical_coupling"])
    p.add_argument("--port", help="output port (default: detector or bar, by objective)")
    p.add_argument("--passband", help="lo:hi (GHz)")
    p.add_argument("--stopband", help="lo:hi (GHz)")
    p.add_argument("--band", help="lo:hi (GHz) for conversion extinction")
    p.add_argument("--rf-freq", type=float, help="notch frequency (GHz)")
    p.add_argument("--offset", type=float, help="offset for critical coupling")
    p.add_argument("--heaters", help="comma-separated heater names (default all)")
    p.add_argument("--max-evals", type=int, default=10000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="tuned netlist path")
    p.add_argument("--summary", help="also write the summary to this path")
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigurationError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShaperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
