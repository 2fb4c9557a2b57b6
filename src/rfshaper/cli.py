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

from .blocks import BLOCK_KINDS, FrequencyGrid
from .circuit import CircuitGraph, Port, evaluate
from .csvout import (format_summary_value, write_optical_csv, write_rf_csv,
                     write_summary, write_table_csv)
from .errors import ConfigurationError, ShaperError, TopologyError, io_context
from .experiments import run_experiment
from .kernels import h_tunable_coupler
from .netlist import (document_to_text, load_experiment_config, make_block,
                      parse_netlist, parse_numbers)
from .topologies import DeinterleaverSpec, build_deinterleaver, build_shaper
from .tuner import OBJECTIVE_KINDS, Objective, OptimizerConfig, optimize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4


class _ParseFailure(Exception):
    """Carries positioned parse errors to the exit-code mapping."""

    def __init__(self, errors):
        super().__init__("parse failed")
        self.errors = errors


def _parse_range(text: str) -> FrequencyGrid:
    """The uniform grid that ``lo:hi:step`` spells."""
    lo, hi, step = parse_numbers(text, "lo:hi:step")
    if not (step > 0 and hi > lo):
        raise ConfigurationError("need step > 0 and hi > lo")
    return FrequencyGrid.sweep(lo, hi, step)


def _load_graph(path: str) -> CircuitGraph:
    if path.startswith("preset:"):
        name = path.removeprefix("preset:")
        if name == "deinterleaver":
            return build_deinterleaver(DeinterleaverSpec.designed())
        if name == "shaper":
            return build_shaper()
        raise ConfigurationError(
            f"unknown preset netlist {name!r} (have: deinterleaver, shaper)")
    with io_context(f"cannot read netlist {path}"):
        text = Path(path).read_text(encoding="utf-8")
    doc, errors = parse_netlist(text)
    if errors:
        raise _ParseFailure(errors)
    return doc.to_graph()


def cmd_block(args) -> int:
    if args.phase_sweep and args.kind != "tunable_coupler":
        raise ConfigurationError("--phase-sweep only applies to tunable_coupler")
    if args.phase_sweep and args.params:
        raise ConfigurationError("--phase-sweep takes no key=value parameters")
    if args.phase_sweep and args.sweep:
        raise ConfigurationError("--phase-sweep takes no --sweep")
    if args.phase_sweep:
        phases = _parse_range(args.phase_sweep).offsets_ghz
        _require_csv_directory(args.out)
        rows = []
        for phi in phases:
            (bar, _), (cross, _) = h_tunable_coupler(float(phi))
            rows.append((float(phi), abs(bar) ** 2, abs(cross) ** 2,
                         math.atan2(bar.imag, bar.real),
                         math.atan2(cross.imag, cross.real)))
        write_table_csv(("phase_rad", "bar_power", "cross_power",
                         "bar_phase_rad", "cross_phase_rad"), rows, args.out)
        return EXIT_OK

    block, errors = make_block("b", args.kind, args.params)
    if errors:
        raise _ParseFailure(errors)
    if not args.sweep:
        raise ConfigurationError("--sweep lo:hi:step is required")
    spec = BLOCK_KINDS[args.kind]
    graph = CircuitGraph((block,), (), {"in": Port("b", spec.inputs[0])},
                         {name: Port("b", p)
                          for name, p in zip(spec.cli_ports, spec.outputs)})
    grid = _parse_range(args.sweep)
    _require_csv_directory(args.out)
    write_optical_csv(evaluate(graph, grid), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    graph = _load_graph(args.netlist)
    grid = _parse_range(args.sweep)
    graph.input_port(args.input)
    if args.port:
        graph.output_port(args.port)
    _require_csv_directory(args.out)
    resp = evaluate(graph, grid, input_name=args.input)
    write_optical_csv(resp, args.out, port=args.port or None)
    return EXIT_OK


def _require_directory(path: Path, failure: str, nearest: bool = False) -> None:
    """Raise OSError ``<failure>: <path> is not a directory`` unless it
    (with ``nearest``, the first of it and its parents that exists) is
    one, before the work whose output goes there.  An error of the probe
    itself, such as a name too long to look up, gets the same context."""
    with io_context(failure):
        if nearest:
            path = next(p for p in (path, *path.parents) if p.exists())
        if path.is_dir():
            return
    raise OSError(f"{failure}: {path} is not a directory")


def _require_csv_directory(out: str) -> None:
    """Check the directory of ``out``, where every CSV of a sweep goes."""
    _require_directory(Path(out).parent, f"cannot write CSV to {out}")


def cmd_experiment(args) -> int:
    with io_context(f"cannot read config {args.config}"):
        text = Path(args.config).read_text(encoding="utf-8")
    cfg, errors = load_experiment_config(text)
    if errors:
        raise _ParseFailure(errors)
    seed = args.seed if args.seed is not None else cfg.seed
    outdir = Path(args.out_dir or cfg.outdir or ".")
    # fail before the preset runs where a file stands in the way, but make
    # no directory until the preset has succeeded
    _require_directory(outdir, f"cannot create output directory {outdir}",
                       nearest=True)
    result = run_experiment(cfg.experiment, cfg.options, seed=seed)
    with io_context(f"cannot create output directory {outdir}"):
        outdir.mkdir(parents=True, exist_ok=True)

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


def _objective_from_args(args) -> Objective:
    kw: dict[str, object] = {"kind": args.objective}
    if args.port:
        kw["port"] = args.port
    for name in ("passband", "stopband", "band"):
        if getattr(args, name):
            kw[name] = parse_numbers(getattr(args, name), "lo:hi")
    if args.rf_freq is not None:
        kw["rf_freq_ghz"] = args.rf_freq
    if args.offset is not None:
        kw["offset_ghz"] = args.offset
    return Objective(**kw)


def cmd_optimize(args) -> int:
    graph = _load_graph(args.netlist)
    objective = _objective_from_args(args)
    config = OptimizerConfig(**{
        name: value for name in ("max_evals", "restarts", "seed")
        if (value := getattr(args, name)) is not None})
    heaters = None if args.heaters is None else args.heaters.split(",")
    _require_directory(Path(args.out).parent,
                       f"cannot write netlist {args.out}")
    if args.summary:
        _require_directory(Path(args.summary).parent,
                           f"cannot write summary to {args.summary}")
    result = optimize(graph, objective, config, heater_names=heaters)
    tuned = graph.with_heaters(result.best)
    text = document_to_text(tuned)
    with io_context(f"cannot write netlist {args.out}"):
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")

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
        try:
            write_summary(summary, args.summary)
        except OSError:
            Path(args.out).unlink(missing_ok=True)   # a failed run writes nothing
            raise
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
                   choices=list(OBJECTIVE_KINDS))
    p.add_argument("--port", help="output port (default: detector or bar, by objective)")
    p.add_argument("--passband", help="lo:hi (GHz)")
    p.add_argument("--stopband", help="lo:hi (GHz)")
    p.add_argument("--band", help="lo:hi (GHz) for conversion extinction")
    p.add_argument("--rf-freq", type=float, help="notch frequency (GHz)")
    p.add_argument("--offset", type=float, help="offset for critical coupling")
    p.add_argument("--heaters", help="comma-separated heater names (default all)")
    p.add_argument("--max-evals", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
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
    except (ShaperError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parse = isinstance(exc, (ConfigurationError, TopologyError))
        return EXIT_PARSE if parse else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
