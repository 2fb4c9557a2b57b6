"""Port-connected circuit graphs and their frequency-domain evaluation.

A circuit is a feed-forward network of block instances.  All resonant
feedback lives inside ring blocks, so evaluation is a single pass in
topological order: each block mixes its input fields through the
transfer-matrix rows that its kind in ``blocks.BLOCK_KINDS`` gives.
Graphs are immutable after construction and evaluation is pure, so
concurrent use needs no locking.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .blocks import BLOCK_KINDS, FrequencyGrid
from .errors import ConfigurationError, TopologyError


@dataclass(frozen=True)
class Port:
    block: str
    name: str

    def __str__(self) -> str:
        return f"{self.block}.{self.name}"


@dataclass(frozen=True)
class BlockInstance:
    """One placed building block with its physical parameters."""

    id: str
    kind: str
    params: object = None

    def __post_init__(self):
        spec = BLOCK_KINDS.get(self.kind)
        if spec is None:
            raise ConfigurationError(f"unknown block kind {self.kind!r}")
        if not isinstance(self.params, spec.params_type):
            raise ConfigurationError(
                f"block {self.id!r} of kind {self.kind} needs "
                f"{spec.params_type.__name__} params, got "
                f"{type(self.params).__name__}")
        for key in spec.required:
            if getattr(self.params, key) is None:
                raise ConfigurationError(
                    f"block {self.id!r}: {self.kind} needs {key}")

    @property
    def heater_refs(self) -> tuple[str, ...]:
        """Names of the tunable phases this block exposes."""
        return tuple(f"{self.id}.{h.name}"
                     for h in BLOCK_KINDS[self.kind].heaters)

    def heater_values(self) -> dict[str, float]:
        """Current heater phases implied by the stored parameters."""
        return {f"{self.id}.{h.name}": h.get(self.params)
                for h in BLOCK_KINDS[self.kind].heaters}

    def with_heater(self, heater: str, phase: float) -> "BlockInstance":
        """Copy of this block with one heater set to the given phase."""
        phase = phase % (2 * math.pi)
        for h in BLOCK_KINDS[self.kind].heaters:
            if h.name == heater:
                return dataclasses.replace(self, params=h.set(self.params, phase))
        raise ConfigurationError(f"block {self.id!r} has no heater {heater!r}")


@dataclass(frozen=True)
class CircuitResponse:
    """Per-port complex amplitudes over a frequency grid."""

    grid: FrequencyGrid
    fields: Mapping[str, np.ndarray]

    def port(self, name: str) -> np.ndarray:
        try:
            return self.fields[name]
        except KeyError:
            avail = ", ".join(sorted(self.fields))
            raise ConfigurationError(
                f"unknown output port {name!r}; available: {avail}") from None

    def power(self, name: str) -> np.ndarray:
        a = self.port(name)
        return (a * a.conj()).real


@dataclass(frozen=True)
class CircuitGraph:
    """Immutable feed-forward network of blocks.

    ``connections`` join one block output port to one block input port;
    ``inputs``/``outputs`` name the external ports.  Unconnected block
    *input* ports receive zero field (open ports); every block *output*
    port must be consumed by a connection or an external output.
    """

    blocks: tuple[BlockInstance, ...]
    connections: tuple[tuple[Port, Port], ...]
    inputs: Mapping[str, Port] = field(default_factory=dict)
    outputs: Mapping[str, Port] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "connections", tuple(self.connections))
        object.__setattr__(self, "inputs", dict(self.inputs))
        object.__setattr__(self, "outputs", dict(self.outputs))
        object.__setattr__(self, "_by_id", {b.id: b for b in self.blocks})
        self._validate()
        object.__setattr__(self, "_order", self._topological_order())

    # -- validation --------------------------------------------------------

    def block(self, block_id: str) -> BlockInstance:
        try:
            return self._by_id[block_id]
        except KeyError:
            raise TopologyError(f"unknown block id {block_id!r}") from None

    def _check_port(self, port: Port, direction: str) -> None:
        blk = self.block(port.block)
        spec = BLOCK_KINDS[blk.kind]
        names = spec.inputs if direction == "in" else spec.outputs
        if port.name not in names:
            raise TopologyError(
                f"{port} is not an {direction}put port of kind {blk.kind}")

    def _validate(self) -> None:
        if len(self._by_id) != len(self.blocks):
            seen, dupes = set(), set()
            for b in self.blocks:
                (dupes if b.id in seen else seen).add(b.id)
            raise TopologyError(f"duplicate block ids: {sorted(dupes)}")
        used_sources: set[Port] = set()
        used_sinks: set[Port] = set()
        for src, dst in self.connections:
            self._check_port(src, "out")
            self._check_port(dst, "in")
            if src in used_sources:
                raise TopologyError(f"output port {src} used in two connections")
            if dst in used_sinks:
                raise TopologyError(f"input port {dst} driven twice")
            used_sources.add(src)
            used_sinks.add(dst)
        for name, port in self.inputs.items():
            self._check_port(port, "in")
            if port in used_sinks:
                raise TopologyError(f"external input {name!r} collides with {port}")
            used_sinks.add(port)
        for name, port in self.outputs.items():
            self._check_port(port, "out")
            if port in used_sources:
                raise TopologyError(f"external output {name!r} collides with {port}")
            used_sources.add(port)
        for b in self.blocks:
            for o in BLOCK_KINDS[b.kind].outputs:
                if Port(b.id, o) not in used_sources:
                    raise TopologyError(f"dangling output port {b.id}.{o}")
        if self.inputs:
            succ: dict[str, set[str]] = {}
            for src, dst in self.connections:
                succ.setdefault(src.block, set()).add(dst.block)
            frontier = [p.block for p in self.inputs.values()]
            reached = set(frontier)
            while frontier:
                for nxt in succ.get(frontier.pop(), ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            for name, port in self.outputs.items():
                if port.block not in reached:
                    raise TopologyError(
                        f"external output {name!r} unreachable from any input")

    def _topological_order(self) -> tuple[str, ...]:
        succ: dict[str, set[str]] = {b.id: set() for b in self.blocks}
        indeg: dict[str, int] = {b.id: 0 for b in self.blocks}
        for src, dst in self.connections:
            if dst.block not in succ[src.block]:
                succ[src.block].add(dst.block)
                indeg[dst.block] += 1
        ready = sorted(b for b, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            b = ready.pop(0)
            order.append(b)
            for nxt in sorted(succ[b]):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        if len(order) != len(self.blocks):
            cyclic = sorted(set(indeg) - set(order))
            raise TopologyError(f"circuit contains a feedback loop through {cyclic}")
        return tuple(order)

    # -- heaters -----------------------------------------------------------

    def heater_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for b in self.blocks:
            names.extend(b.heater_refs)
        return tuple(sorted(names))

    def heater_values(self) -> dict[str, float]:
        vals: dict[str, float] = {}
        for b in self.blocks:
            vals.update(b.heater_values())
        return vals

    def with_heaters(self, settings: Mapping[str, float]) -> "CircuitGraph":
        """New graph with the named heater phases applied to the params."""
        changed = self._blocks_with_heaters(settings)
        return CircuitGraph(tuple(changed.get(b.id, b) for b in self.blocks),
                            self.connections, self.inputs, self.outputs)

    def _blocks_with_heaters(self, settings: Mapping[str, float]
                             ) -> dict[str, BlockInstance]:
        """The blocks that ``{"<block id>.<heater>": phase}`` settings
        change, by id, with those phases applied."""
        changed: dict[str, BlockInstance] = {}
        for name, value in settings.items():
            block_id, _, heater = name.partition(".")
            if not heater or block_id not in self._by_id:
                raise ConfigurationError(f"unknown heater {name!r}")
            blk = changed.get(block_id) or self._by_id[block_id]
            changed[block_id] = blk.with_heater(heater, value)
        return changed


def evaluate(graph: CircuitGraph, grid: FrequencyGrid,
             input_name: str | None = None,
             heaters: Mapping[str, float] | None = None) -> CircuitResponse:
    """Propagate a unit field from one external input.

    Returns the complex amplitude at every external output for every grid
    offset.  ``heaters`` overrides heater phases for this evaluation only.
    """
    if not graph.inputs:
        raise TopologyError("graph declares no external inputs")
    if input_name is None:
        if len(graph.inputs) > 1:
            raise ConfigurationError(
                f"graph has several inputs {sorted(graph.inputs)}; pick one")
        input_name = next(iter(graph.inputs))
    if input_name not in graph.inputs:
        raise ConfigurationError(f"unknown input {input_name!r}")

    changed = graph._blocks_with_heaters(heaters) if heaters else {}

    offsets = grid.offsets_ghz
    n = offsets.size
    zeros = np.zeros(n, dtype=np.complex128)
    # fields and connections keyed by (block id, port name); an open input
    # port, or one whose source has no field, reads zero field
    entry = graph.inputs[input_name]
    fields = {(entry.block, entry.name): np.full(n, 1.0 + 0.0j)}
    source = {(dst.block, dst.name): (src.block, src.name)
              for src, dst in graph.connections}

    for block_id in graph._order:
        blk = changed.get(block_id) or graph.block(block_id)
        spec = BLOCK_KINDS[blk.kind]
        ins = []
        for name in spec.inputs:
            key = (block_id, name)
            f = fields.get(key)        # the external input lands here
            ins.append(f if f is not None
                       else fields.get(source.get(key), zeros))
        for out, row in zip(spec.outputs, spec.response(blk.params, offsets)):
            f = row[0] * ins[0]
            for m, x in zip(row[1:], ins[1:]):
                f = f + m * x
            fields[block_id, out] = f

    out_fields = {name: fields.get((port.block, port.name), zeros)
                  for name, port in graph.outputs.items()}
    return CircuitResponse(grid, out_fields)
