"""Spans around rfshaper's public entry points, recorded from outside.

``Tracer.installed()`` replaces each traced function or method with a
wrapper that records a span (name, start, end, parent span) and, where a
layer has a natural unit of work, a counter.  Functions that other
modules import by value (``evaluate`` in ``tuner``, ``rflink``,
``experiments`` and ``cli``, the topology builders, the metrics, the CSV
writers) are replaced in every module namespace that holds them, since
that is where the caller looks them up.  Nothing under ``src/`` changes,
and outside ``installed()`` the program runs unwrapped.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans.  Children run one after another inside
their parent, so that time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: Per-layer metrics the traced run reports; every name appears on every
#: workload and reads 0 where its layer is idle.
SPAN_LAYERS = {
    "kernels": ("kernels.calls", "kernels.self_s"),
    "blocks.params": ("blocks.params.calls", "blocks.params.self_s"),
    "circuit.evaluate": ("circuit.evaluate.calls", "circuit.evaluate.self_s"),
    "circuit.heater_override": ("circuit.heater_override.calls",
                                "circuit.heater_override.self_s"),
    "circuit.build": ("circuit.build.calls", "circuit.build.self_s"),
    "topologies": (None, "topologies.self_s"),
    "rflink.sweep": ("rflink.sweep.calls", "rflink.sweep.self_s"),
    "metrics": ("metrics.calls", "metrics.self_s"),
    "tuner.objective": ("tuner.objective.calls", "tuner.objective.self_s"),
    "tuner.optimize": (None, "tuner.optimize.self_s"),
    "experiments": ("experiments.calls", "experiments.self_s"),
    "netlist.parse": (None, "netlist.parse.self_s"),
    "netlist.write": (None, "netlist.write.self_s"),
    "csvout": (None, "csvout.self_s"),
    "cli": ("cli.calls", "cli.self_s"),
}
COUNTERS = ("kernels.points", "circuit.evaluate.points", "netlist.parse.lines",
            "csvout.rows", "csvout.bytes")


class Tracer:
    """Spans kept in flat arrays: name index, parent index, start, end."""

    def __init__(self):
        self.names = list(SPAN_LAYERS)
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def span(self, layer: str, fn, count=None):
        """Wrap ``fn`` so each call records a span of ``layer`` into the
        arrays of the current trace.

        ``count(args, kwargs, result)`` returns ``(counter, amount)``
        pairs, evaluated after the span closes so counting costs no
        layer time.
        """
        idx = self.names.index(layer)
        name, parent, start, end = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(idx)
            parent.append(self.stack[-1])
            end.append(0.0)
            self.stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                self.stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    self.counts[key] += amount
            return result

        return wrapper

    def layer_table(self) -> dict[str, float]:
        """Calls and self time per layer, and the total root-span time."""
        n = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        calls = np.bincount(name, minlength=n)
        out: dict[str, float] = {"spans": float(dur.size),
                                 "root_s": float(dur[~has_parent].sum())}
        for i, layer in enumerate(self.names):
            calls_key, self_key = SPAN_LAYERS[layer]
            if calls_key:
                out[calls_key] = float(calls[i])
            out[self_key] = float(self_s[i])
        out.update({k: float(v) for k, v in self.counts.items()})
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))

    @contextlib.contextmanager
    def installed(self):
        """Start a fresh trace and wrap every traced entry point for the
        duration of the block."""
        self.reset()
        patches = _patch_list(self)
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)


# -- counters ----------------------------------------------------------------

def _grid_points(args, kwargs, result):
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    yield "circuit.evaluate.points", len(grid)


def _kernel_points(args, kwargs, result):
    first = np.asarray(args[0])
    yield "kernels.points", first.size if first.ndim else np.size(args[1])


def _parse_lines(args, kwargs, result):
    yield "netlist.parse.lines", args[0].count("\n")


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


def _rf_rows(args, kwargs, result):
    yield "csvout.rows", args[0].rf_freqs_ghz.size
    yield "csvout.bytes", _file_bytes([result])


def _optical_rows(args, kwargs, result):
    yield "csvout.rows", len(args[0].grid) * len(result)
    yield "csvout.bytes", _file_bytes(result)


def _table_rows(args, kwargs, result):
    yield "csvout.rows", len(args[1])
    yield "csvout.bytes", _file_bytes([result])


def _summary_bytes(args, kwargs, result):
    yield "csvout.bytes", _file_bytes([result])


def _patch_list(tr: Tracer):
    """(owner, attribute, replacement) for every traced entry point."""
    from rfshaper import (blocks, circuit, cli, csvout, experiments, kernels,
                          metrics, netlist, rflink, topologies, tuner)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rfshaper" or name.startswith("rfshaper.")]
    patches = []

    def by_value(layer, module, fname, count=None):
        """Replace a function in every rfshaper namespace that holds it."""
        fn = getattr(module, fname)
        wrapped = tr.span(layer, fn, count)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    patches.append((m, attr, wrapped))

    def method(layer, cls, attr):
        patches.append((cls, attr, tr.span(layer, cls.__dict__[attr])))

    for k in ("waveguide_grid", "ring_allpass_grid", "ring_adddrop_grid",
              "beat_phasor_grid"):
        by_value("kernels", kernels, k, _kernel_points)
    for cls in (blocks.WaveguideParams, blocks.PhaseShifterState,
                blocks.RingParams, blocks.FrequencyGrid):
        method("blocks.params", cls, "__init__")
    by_value("circuit.evaluate", circuit, "evaluate", _grid_points)
    method("circuit.heater_override", circuit.BlockInstance, "with_heater")
    method("circuit.build", circuit.CircuitGraph, "__init__")
    for k in ("build_deinterleaver", "build_shaper", "ring_kappa_for_rejection",
              "fit_round_trip_amplitude"):
        by_value("topologies", topologies, k)
    by_value("rflink.sweep", rflink, "rf_transmission_sweep")
    for k in ("extinction_db", "notch_depth_db", "peak_frequency_ghz",
              "q_and_finesse", "passband_width_3db"):
        by_value("metrics", metrics, k)
    build = tuner.Objective.__dict__["build"]

    def traced_build(objective, graph):
        return tr.span("tuner.objective", build(objective, graph))
    patches.append((tuner.Objective, "build", traced_build))
    by_value("tuner.optimize", tuner, "optimize")
    by_value("experiments", experiments, "run_experiment")
    by_value("netlist.parse", netlist, "parse_netlist", _parse_lines)
    by_value("netlist.parse", netlist, "load_experiment_config", _parse_lines)
    by_value("netlist.write", netlist, "document_to_text")
    by_value("csvout", csvout, "write_rf_csv", _rf_rows)
    by_value("csvout", csvout, "write_optical_csv", _optical_rows)
    by_value("csvout", csvout, "write_table_csv", _table_rows)
    by_value("csvout", csvout, "write_summary", _summary_bytes)
    by_value("cli", cli, "main")
    return patches
