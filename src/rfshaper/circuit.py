"""Port-connected circuit graphs and their frequency-domain evaluation.

A circuit is a feed-forward network of block instances.  All resonant
feedback lives inside ring blocks, so evaluation is a single pass in
topological order: each block mixes its input fields through the
transfer-matrix rows that its kind in ``blocks.BLOCK_KINDS`` gives.
Graphs are immutable after construction and evaluation is pure, so
concurrent use needs no locking.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .blocks import BLOCK_KINDS, FrequencyGrid
from .errors import ConfigurationError, ShaperError, TopologyError


class Port(NamedTuple):
    block: str
    name: str

    def __str__(self) -> str:
        return f"{self.block}.{self.name}"


class WiringRules:
    """A circuit's wiring rules, applied one statement at a time: block
    ids are unique and free of '.', a named port exists on its block's
    kind in that direction, and each port (a kind's input and output
    names differ) is used at most once.  A failing operation raises and changes nothing; a
    duplicate's message quotes the first use's ``where`` (" on line 3")."""

    def __init__(self):
        self.kinds: dict[str, tuple[str, str]] = {}   # id -> (kind, where)
        self.claimed: dict[Port, str] = {}             # used port -> where

    def declare(self, block_id: str, kind: str, where: str = "") -> None:
        """Reserve ``block_id`` for ``kind``."""
        if "." in block_id:
            raise TopologyError(f"block id {block_id!r} contains '.', which "
                                "separates <block>.<port> and <block>.<heater>")
        if block_id in self.kinds:
            raise TopologyError(
                f"duplicate block id {block_id!r}{self.kinds[block_id][1]}")
        if kind not in BLOCK_KINDS:
            raise ConfigurationError(f"unknown block kind {kind!r}")
        self.kinds[block_id] = (kind, where)

    def kind(self, block_id: str) -> str:
        if block_id not in self.kinds:
            raise TopologyError(f"unknown block id {block_id!r}")
        return self.kinds[block_id][0]

    def port(self, port: Port, direction: str) -> Port:
        """``port``, if its block's kind has it as a ``direction`` port."""
        kind = self.kind(port.block)
        spec = BLOCK_KINDS[kind]
        names = spec.inputs if direction == "in" else spec.outputs
        if port.name not in names:
            raise TopologyError(
                f"kind {kind} has no {direction}put port {port.name!r} "
                f"(expected one of {', '.join(names)})")
        return port

    def claim(self, *ports: Port, where: str = "") -> None:
        """Mark ``ports`` used, all or none."""
        for port in ports:
            if port in self.claimed:
                raise TopologyError(
                    f"port {port} already used{self.claimed[port]}")
        self.claimed.update(dict.fromkeys(ports, where))


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

    def with_heater(self, settings: Mapping[str, float]) -> "BlockInstance":
        """Copy of this block with its heaters set to ``{heater: phase}``,
        each a Python float or a 1-D real array of K phases, as
        ``CircuitGraph._blocks_with_heaters`` reads settings.  The heaters'
        fields (floats or ``(K, 1)`` columns) go into one params record,
        checked once whatever their order; no settings return ``self``."""
        if not settings:
            return self
        params = self.params
        fields = {}
        for name, phase in settings.items():
            fields.update(_heater(self, name).update(params, phase))
        # constructors rather than dataclasses.replace, which costs about
        # a microsecond more per record on the tuner's path
        return BlockInstance(self.id, self.kind,
                             type(params)(**{**vars(params), **fields}))


def _heater(blk: BlockInstance, name: str):
    """The heater ``name`` of ``blk``'s kind."""
    h = BLOCK_KINDS[blk.kind].heaters.get(name)
    if h is None:
        raise ConfigurationError(f"block {blk.id!r} has no heater {name!r}")
    return h


def _require_output(name: str, outputs: Mapping) -> None:
    if name not in outputs:
        avail = ", ".join(sorted(outputs))
        raise ConfigurationError(
            f"unknown output port {name!r}; available: {avail}")


@dataclass(frozen=True)
class CircuitResponse:
    """Per-port complex amplitudes over a frequency grid."""

    grid: FrequencyGrid
    fields: Mapping[str, np.ndarray]

    def port(self, name: str) -> np.ndarray:
        _require_output(name, self.fields)
        return self.fields[name]

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
        if block_id not in self._by_id:
            raise TopologyError(f"unknown block id {block_id!r}")
        return self._by_id[block_id]

    def _validate(self) -> None:
        rules = WiringRules()
        for b in self.blocks:
            rules.declare(b.id, b.kind)
        for src, dst in self.connections:
            rules.claim(rules.port(src, "out"), rules.port(dst, "in"))
        for port in self.inputs.values():
            rules.claim(rules.port(port, "in"))
        for port in self.outputs.values():
            rules.claim(rules.port(port, "out"))
        for b in self.blocks:
            for o in BLOCK_KINDS[b.kind].outputs:
                if Port(b.id, o) not in rules.claimed:
                    raise TopologyError(f"dangling output port {b.id}.{o}")

    def _topological_order(self) -> tuple[str, ...]:
        """Block ids in evaluation order.  The same walk marks the blocks
        an external input reaches, and every external output must be one
        of them."""
        succ: dict[str, set[str]] = {b.id: set() for b in self.blocks}
        indeg: dict[str, int] = {b.id: 0 for b in self.blocks}
        for src, dst in self.connections:
            if dst.block not in succ[src.block]:
                succ[src.block].add(dst.block)
                indeg[dst.block] += 1
        reached = {p.block for p in self.inputs.values()}
        ready = sorted(b for b, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            b = ready.pop(0)
            order.append(b)
            for nxt in sorted(succ[b]):
                if b in reached:
                    reached.add(nxt)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
            ready.sort()
        if len(order) != len(self.blocks):
            cyclic = sorted(set(indeg) - set(order))
            raise TopologyError(f"circuit contains a feedback loop through {cyclic}")
        if self.inputs:
            for name, port in self.outputs.items():
                if port.block not in reached:
                    raise TopologyError(
                        f"external output {name!r} unreachable from any input")
        return tuple(order)

    # -- external ports ----------------------------------------------------

    def input_port(self, name: str | None = None) -> Port:
        """The block port of external input ``name``; None names the only
        one."""
        if not self.inputs:
            raise TopologyError("graph declares no external inputs")
        if name is None:
            if len(self.inputs) > 1:
                raise ConfigurationError(
                    f"graph has several inputs {sorted(self.inputs)}; pick one")
            name = next(iter(self.inputs))
        if name not in self.inputs:
            raise ConfigurationError(f"unknown input {name!r}")
        return self.inputs[name]

    def output_port(self, name: str) -> Port:
        """The block port of external output ``name``."""
        _require_output(name, self.outputs)
        return self.outputs[name]

    # -- heaters -----------------------------------------------------------

    def heater_names(self) -> tuple[str, ...]:
        """``"<block id>.<heater>"`` of every tunable phase, sorted."""
        return tuple(sorted(f"{b.id}.{name}" for b in self.blocks
                            for name in BLOCK_KINDS[b.kind].heaters))

    def heater_values(self) -> dict[str, float]:
        """Each heater's phase as the block parameters imply it."""
        return {f"{b.id}.{name}": h.get(b.params) for b in self.blocks
                for name, h in BLOCK_KINDS[b.kind].heaters.items()}

    def with_heaters(self, settings: Mapping[str, float]) -> "CircuitGraph":
        """New graph with the named heater phases applied to the params.
        A graph holds one phase per heater; arrays of settings belong to a
        batched call of :func:`evaluate` or of a :func:`bind` function.
        No settings return ``self``."""
        if not settings:
            return self
        if arrays := sorted(n for n, v in settings.items()
                            if isinstance(v, np.ndarray)):
            raise ConfigurationError("with_heaters takes one phase per "
                                     f"heater, got arrays for {arrays}")
        changed, _ = self._blocks_with_heaters(settings)
        return CircuitGraph(tuple(changed.get(b.id, b) for b in self.blocks),
                            self.connections, self.inputs, self.outputs)

    def _blocks_with_heaters(self, settings: Mapping[str, float]
                             ) -> tuple[dict[str, BlockInstance], int | None]:
        """The blocks that ``{"<block id>.<heater>": phase}`` settings
        change, by id, with those phases applied, and K, the length of
        every array among the settings (None when all are floats).
        Every name, type and array shape is checked first, in settings
        order, and a real scalar is read as the Python float it equals.
        Then each changed block is rebuilt once, in evaluation order, so
        the order of the settings changes neither blocks nor errors."""
        by_block: dict[str, dict[str, float]] = {}
        k = None
        for name, value in settings.items():
            block_id, _, heater = name.partition(".")
            if not heater or block_id not in self._by_id:
                raise ConfigurationError(f"unknown heater {name!r}")
            _heater(self._by_id[block_id], heater)
            if isinstance(value, np.ndarray):    # the one place K is found
                k = _batch_size(name, value, k)
            elif type(value) is not float:    # keeps the hot float route cheap
                value = _real(name, value)
            by_block.setdefault(block_id, {})[heater] = value
        return {block_id: self._by_id[block_id].with_heater(by_block[block_id])
                for block_id in self._order if block_id in by_block}, k


def _real(name: str, value) -> float:
    """Heater ``name``'s real scalar setting as the float it equals."""
    what = type(value).__name__
    if isinstance(value, (numbers.Real, np.bool_)):
        try:
            return float(value)
        except OverflowError:
            what += " too large for a float"
    raise _not_a_setting(name, what)


def _batch_size(name: str, value: np.ndarray, k: int | None) -> int:
    """The length of heater ``name``'s array of settings, which must be
    of a real dtype, 1-D, not empty, and as long as any other (``k``)."""
    if value.dtype.kind not in "biuf":
        raise _not_a_setting(name, f"an array of {value.dtype}")
    if value.ndim != 1 or value.size == 0:
        raise _not_a_setting(name, f"an array of shape {value.shape}")
    if k is not None and value.size != k:
        raise ConfigurationError(
            f"heater {name!r} has {value.size} settings, another has {k}")
    return value.size


def _not_a_setting(name: str, what: str) -> ConfigurationError:
    return ConfigurationError(f"heater {name!r} takes a float or a 1-D "
                              f"array of settings, got {what}")


def _walk(graph: CircuitGraph, start: Port):
    """Each block in evaluation order, with the keys of its input and
    output fields.  Fields are keyed by Port: an input port reads the
    output that drives it, ``start`` its own unit field, an open port the
    zero field kept under None (see :func:`_input_fields`)."""
    source = {dst: src for src, dst in graph.connections}
    source[start] = start
    for block_id in graph._order:
        blk = graph.block(block_id)
        spec = BLOCK_KINDS[blk.kind]
        yield (blk, [source.get(Port(block_id, name)) for name in spec.inputs],
               [Port(block_id, out) for out in spec.outputs])


def _input_fields(start: Port, n: int) -> dict:
    """The fields a pass starts from: zero under None, one at ``start``."""
    return {None: np.zeros(n, dtype=np.complex128),
            start: np.full(n, 1.0 + 0.0j)}


def bind(graph: CircuitGraph, grid: FrequencyGrid,
         input_name: str | None = None
         ) -> Callable[[Mapping[str, float] | None], CircuitResponse]:
    """Evaluate ``graph`` over ``grid`` as a function of heater settings
    ``{"<block id>.<heater>": phase}``.

    ``bind`` walks the graph once from one external input and keeps its
    plan (each block with its input keys, output keys and, for a block
    without heaters, its rows) and every port's field: memory grows with
    blocks times grid points, which pays off over many calls.  A block
    whose rows raise a ``ShaperError`` keeps no field, nor does anything
    it feeds: a call that retunes it may succeed, and a call that does
    not raises that error.  Each call runs :func:`evaluate`'s pass from
    the kept fields, re-mixing only the blocks its heaters change and
    those downstream of them, so its fields equal
    ``evaluate(graph.with_heaters(settings), grid)`` bit for bit.
    Nothing changes after ``bind`` returns, so concurrent calls need no
    locking.

    A heater may also be set to a 1-D array of K settings, as in
    :func:`evaluate`: every output is then ``(K, N)``, and row k equals
    the call with each array's k-th value bit for bit.
    """
    start = graph.input_port(input_name)
    offsets = grid.offsets_ghz
    fields = _input_fields(start, offsets.size)
    plan: list[tuple[BlockInstance, list, list, tuple | None]] = []
    for blk, in_keys, out_keys in _walk(graph, start):
        spec = BLOCK_KINDS[blk.kind]
        try:
            rows = spec.response(blk.params, offsets)
        except ShaperError:
            rows = None             # a call raises it unless it retunes blk
        if rows is not None and all(k in fields for k in in_keys):
            fields.update(zip(out_keys, _mix(rows, [fields[k] for k in in_keys])))
        # a call recomputes the rows of a block with heaters, so only those
        # of a block without any are worth their memory
        plan.append((blk, in_keys, out_keys, None if spec.heaters else rows))
    for f in fields.values():
        f.flags.writeable = False
    return lambda heaters=None: _pass(graph, grid, plan, dict(fields), heaters)


def _mix(rows, ins: list[np.ndarray]):
    """Each output field of a block: its row of weights times the input
    fields."""
    for row in rows:
        f = row[0] * ins[0]
        for m, x in zip(row[1:], ins[1:]):
            f = f + m * x
        yield f


def _pass(graph: CircuitGraph, grid: FrequencyGrid, plan, fields: dict,
          heaters: Mapping[str, float] | None) -> CircuitResponse:
    """The one loop that mixes blocks for a call.  ``plan`` holds each
    block as ``(block, input keys, output keys, rows or None)`` in
    evaluation order.  A block is skipped only if ``heaters`` leave it
    unchanged, its outputs are in ``fields`` and none of its inputs was
    mixed in this pass.  Each input field is popped at its one reader
    (``WiringRules``); the shared zero field under None stays.

    Heaters set to arrays of K settings give their blocks ``(K, 1)``
    parameter columns, so those blocks and every block downstream of
    them give ``(K, N)`` fields, while the ``(N,)`` fields upstream
    broadcast against them."""
    changed, k = graph._blocks_with_heaters(heaters or {})
    offsets = grid.offsets_ghz
    fresh: set = set()
    for blk, in_keys, out_keys, rows in plan:
        if (blk.id not in changed and out_keys[0] in fields
                and fresh.isdisjoint(in_keys)):
            continue
        if rows is None:
            blk = changed.get(blk.id, blk)
            rows = BLOCK_KINDS[blk.kind].response(blk.params, offsets)
        fields.update(zip(out_keys, _mix(rows, [
            fields[k] if k is None else fields.pop(k) for k in in_keys])))
        fresh.update(out_keys)
    out = {name: fields[port] for name, port in graph.outputs.items()}
    for f in out.values():
        f.setflags(write=False)     # a third of the cost of flags.writeable
    if k is not None:               # a port no array reaches: a (K, N) view
        out = {name: f if f.ndim == 2 else np.broadcast_to(f, (k, f.size))
               for name, f in out.items()}
    return CircuitResponse(grid, out)


def evaluate(graph: CircuitGraph, grid: FrequencyGrid,
             input_name: str | None = None,
             heaters: Mapping[str, float] | None = None) -> CircuitResponse:
    """Propagate a unit field from one external input.

    Returns the complex amplitude at every external output for every grid
    offset, as read-only arrays.  ``heaters`` overrides heater phases for
    this evaluation only.  It is :func:`_pass` from the input fields alone,
    so it mixes each block once, in evaluation order, with its heaters
    applied, and drops each field when the one port that reads it is
    mixed: it holds only the fields still to be read, about the graph's
    cut width times the grid.  The first block whose rows raise a
    ``ShaperError`` ends it.  A caller that evaluates one graph and grid
    many times should :func:`bind` it once instead.

    A heater set to a 1-D array of K phases, rather than a float, makes
    the call batched: every output is a read-only ``(K, N)`` array whose
    row k equals the call with each array's k-th value bit for bit (a
    port that no array reaches is a broadcast view of its one row).
    Every array in one call has the same K >= 1; any other length or
    shape is a ``ConfigurationError``, and a non-finite setting in any
    row raises what that row's float call would.
    """
    start = graph.input_port(input_name)
    plan = ((blk, ins, outs, None) for blk, ins, outs in _walk(graph, start))
    return _pass(graph, grid, plan, _input_fields(start, len(grid)), heaters)
