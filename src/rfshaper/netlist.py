"""Line-oriented netlist and experiment-config formats.

Netlist grammar (one statement per line, ``#`` starts a comment)::

    format 1
    block <id> <kind> key=value ...
    connect <id>.<port> <id>.<port>
    input <name> <id>.<port>
    output <name> <id>.<port>

Parsing collects *all* errors with 1-based line/column positions instead
of failing fast.  A block whose parameters are rejected still reserves
its id and kind so later statements refer to it without cascading
errors.  This module is the one reader of user text: netlists and
experiment configs share :func:`_statements`, which checks each line
against the format's usage table; ``key=value`` block parameters,
netlist or ``rfshaper block``, become a block through :func:`make_block`;
and the CLI's colon-separated ranges go through :func:`parse_numbers`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .blocks import BLOCK_KINDS
from .circuit import BlockInstance, CircuitGraph, Port, WiringRules
from .errors import ConfigurationError, ShaperError, TopologyError


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self) -> str:
        tok = f" near {self.token!r}" if self.token else ""
        return f"line {self.line}, col {self.column}: {self.message}{tok}"


@dataclass
class NetlistDocument:
    blocks: list[BlockInstance] = field(default_factory=list)
    connections: list[tuple[Port, Port]] = field(default_factory=list)
    inputs: dict[str, Port] = field(default_factory=dict)
    outputs: dict[str, Port] = field(default_factory=dict)

    def to_graph(self) -> CircuitGraph:
        return CircuitGraph(tuple(self.blocks), tuple(self.connections),
                            dict(self.inputs), dict(self.outputs))


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace tokens with their 1-based column."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_number(tok: str) -> float:
    """The finite decimal ``tok`` spells; ValueError for anything else."""
    v = float(tok)
    if not math.isfinite(v):
        raise ValueError("non-finite number")
    return v


def parse_numbers(text: str, form: str) -> tuple[float, ...]:
    """The numbers of colon-separated ``text`` laid out as ``form``, such
    as ``lo:hi``; ConfigurationError for a wrong count or a bad number."""
    parts = text.split(":")
    if len(parts) != len(form.split(":")):
        raise ConfigurationError(f"expected {form}, got {text!r}")
    try:
        return tuple(map(parse_number, parts))
    except ValueError:
        raise ConfigurationError(
            f"expected numbers in {form}, got {text!r}") from None


def _statements(text: str, usage: dict[str, str],
                errors: list[ParseError]):
    """(line number, tokens) of each statement that fits ``usage``.

    ``usage`` maps each keyword to its arguments as the usage message
    shows them; a trailing ``x ...`` stands for any number of ``x``.
    Lines blank once their ``#`` comment is removed are skipped; any
    other line that does not fit adds a ParseError at its keyword.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw.partition("#")[0])
        if not toks:
            continue
        kw, col = toks[0]
        args = usage.get(kw)
        if args is None:
            errors.append(ParseError(ln, col, f"unknown statement {kw!r}", kw))
            continue
        words, given = args.split(), len(toks) - 1
        if words[-1] == "...":
            fits = given >= len(words) - 2
        else:
            fits = given == len(words)
        if fits:
            yield ln, toks
        else:
            errors.append(ParseError(ln, col, f"expected: {kw} {args}"))


class ParamError(NamedTuple):
    """A rejected block parameter: the index of its ``key=value`` token,
    or None for the block as a whole, the message, and the text to quote."""

    index: int | None
    message: str
    token: str

    def __str__(self) -> str:
        return f"{self.message} near {self.token!r}"


def make_block(block_id: str, kind: str, tokens) -> tuple[BlockInstance | None,
                                                         list[ParamError]]:
    """The block of ``kind`` that ``key=value`` ``tokens`` describe (None
    if any is rejected), and the errors.

    Each token must be ``key=value`` with a key of ``kind``, given once,
    and a value that :func:`parse_number` accepts; each required key must
    be named (a bad value still names its key); the values must make
    valid params.
    """
    spec = BLOCK_KINDS[kind]
    values: dict[str, float] = {}
    errors: list[ParamError] = []
    seen: set[str] = set()
    for i, tok in enumerate(tokens):
        key, eq, val = tok.partition("=")
        if not eq:
            errors.append(ParamError(i, "expected key=value", tok))
        elif key not in spec.keys:
            errors.append(ParamError(i, f"kind {kind} has no key {key!r}", tok))
        elif key in seen:
            errors.append(ParamError(i, f"key {key!r} given twice", tok))
        else:
            seen.add(key)
            try:
                values[key] = parse_number(val)
            except ValueError:
                errors.append(ParamError(i, f"invalid number for {key!r}", val))
    errors += [ParamError(None, f"kind {kind} requires key {key!r}", kind)
               for key in spec.required if key not in seen]
    if errors:
        return None, errors
    try:
        return BlockInstance(block_id, kind, spec.params_type(**values)), []
    except (ShaperError, ValueError) as exc:
        return None, [ParamError(None, str(exc), kind)]


class _Parser:
    def __init__(self):
        self.doc = NetlistDocument()
        self.errors: list[ParseError] = []
        self.wiring = WiringRules()

    def err(self, line: int, col: int, message: str, token: str = "") -> None:
        self.errors.append(ParseError(line, col, message, token))

    # -- statement handlers --------------------------------------------

    def stmt_format(self, ln, toks):
        version, col = toks[1]
        if version != "1":
            self.err(ln, col, "only 'format 1' is supported", version)

    def _wire(self, ln, named) -> list[Port] | None:
        """The ports that ``((token, column), direction)`` pairs name,
        claimed; None after reporting each bad one, or the first reused."""
        ports: dict[Port, int] = {}
        for (tok, col), direction in named:
            bid, dot, pname = tok.partition(".")
            if not dot:
                self.err(ln, col, "expected <block>.<port>", tok)
                continue
            try:
                ports[self.wiring.port(Port(bid, pname), direction)] = col
            except TopologyError as exc:
                self.err(ln, col, str(exc), tok)
        if len(ports) < len(named):
            return None
        try:
            self.wiring.claim(*ports, where=f" on line {ln}")
        except TopologyError as exc:
            self.err(ln, next(c for p, c in ports.items()
                              if p in self.wiring.claimed), str(exc))
            return None
        return list(ports)

    def stmt_block(self, ln, toks):
        (bid, bcol), (kind, kcol) = toks[1], toks[2]
        try:
            self.wiring.declare(bid, kind, f" (first declared on line {ln})")
        except (TopologyError, ConfigurationError) as exc:
            dup = isinstance(exc, TopologyError)
            self.err(ln, bcol if dup else kcol, str(exc), bid if dup else kind)
            return
        block, errors = make_block(bid, kind, [tok for tok, _ in toks[3:]])
        for e in errors:
            col = kcol if e.index is None else toks[3 + e.index][1]
            self.err(ln, col, e.message, e.token)
        if block:
            self.doc.blocks.append(block)

    def stmt_connect(self, ln, toks):
        ports = self._wire(ln, [(toks[1], "out"), (toks[2], "in")])
        if ports:
            self.doc.connections.append(tuple(ports))

    def stmt_io(self, ln, toks):
        kw, (name, col) = toks[0][0], toks[1]
        table = self.doc.inputs if kw == "input" else self.doc.outputs
        if name in table:
            self.err(ln, col, f"duplicate {kw} name {name!r}", name)
        elif ports := self._wire(
                ln, [(toks[2], "in" if kw == "input" else "out")]):
            table[name] = ports[0]


#: netlist statement -> its arguments, as the usage message shows them
_NETLIST_USAGE = {
    "format": "1",
    "block": "<id> <kind> key=value ...",
    "connect": "<id>.<port> <id>.<port>",
    "input": "<name> <id>.<port>",
    "output": "<name> <id>.<port>",
}


def parse_netlist(text: str) -> tuple[NetlistDocument, list[ParseError]]:
    """Parse netlist text; returns the document and all positioned errors."""
    p = _Parser()
    handlers = {"format": p.stmt_format, "block": p.stmt_block,
                "connect": p.stmt_connect, "input": p.stmt_io,
                "output": p.stmt_io}
    for ln, toks in _statements(text, _NETLIST_USAGE, p.errors):
        handlers[toks[0][0]](ln, toks)
    return p.doc, p.errors


def _format_value(v: float) -> str:
    return repr(float(v))


def _block_line(block: BlockInstance) -> str:
    items = [f"{k}={_format_value(v)}" for k in BLOCK_KINDS[block.kind].keys
             if (v := getattr(block.params, k)) is not None]
    return " ".join([f"block {block.id} {block.kind}"] + items)


def document_to_text(doc: NetlistDocument | CircuitGraph) -> str:
    """Deterministic netlist text of a document or graph (LF endings)."""
    lines = ["format 1"]
    for block in doc.blocks:
        lines.append(_block_line(block))
    for src, dst in doc.connections:
        lines.append(f"connect {src} {dst}")
    for name, port in doc.inputs.items():
        lines.append(f"input {name} {port}")
    for name, port in doc.outputs.items():
        lines.append(f"output {name} {port}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Settings resolved from an experiment config file."""

    experiment: str
    heaters: dict[str, float] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)
    seed: int = 0
    outdir: str | None = None

    def overrides(self) -> dict[str, object]:
        out: dict[str, object] = dict(self.options)
        if self.heaters:
            out.setdefault("heaters", dict(self.heaters))
        return out


#: config statement -> its arguments, as the usage message shows them
_CONFIG_USAGE = {
    "experiment": "<name>",
    "sweep": "<lo> <hi> <step>",
    "heater": "<name> <value>",
    "seed": "<integer>",
    "outdir": "<path>",
    "set": "<key> <value>",
}


def load_experiment_config(text: str) -> tuple[ExperimentConfig | None,
                                               list[ParseError]]:
    """Parse an experiment config; same line discipline as netlists.

    Statements: ``experiment <name>``, ``sweep <lo> <hi> <step>``,
    ``heater <name> <value>``, ``seed <int>``, ``outdir <path>``,
    ``set <key> <value>`` for preset options (comma lists allowed).
    Each setting may be given once; ``sweep`` sets the ``sweep`` option.
    """
    errors: list[ParseError] = []
    cfg = ExperimentConfig("")
    seen: set[str] = set()
    for ln, toks in _statements(text, _CONFIG_USAGE, errors):
        kw, col = toks[0]
        # what the statement sets, and the token a repeat is reported at
        if kw == "sweep":
            what, at = "option 'sweep'", toks[0]
        elif kw == "set":
            what, at = f"option {toks[1][0]!r}", toks[1]
        elif kw == "heater":
            what, at = f"heater {toks[1][0]!r}", toks[1]
        else:
            what, at = kw, toks[1]
        if what in seen:
            errors.append(ParseError(ln, at[1], f"{what} given twice", at[0]))
            continue
        seen.add(what)
        if kw == "experiment":
            cfg.experiment = toks[1][0]
        elif kw == "sweep":
            try:
                cfg.options["sweep"] = tuple(parse_number(t) for t, _ in toks[1:])
            except ValueError:
                errors.append(ParseError(ln, col, "invalid sweep numbers"))
        elif kw == "heater":
            try:
                cfg.heaters[toks[1][0]] = parse_number(toks[2][0])
            except ValueError:
                errors.append(ParseError(ln, toks[2][1], "invalid number",
                                         toks[2][0]))
        elif kw == "seed":
            try:
                cfg.seed = int(toks[1][0])
            except ValueError:
                errors.append(ParseError(ln, col,
                                         f"expected: {kw} {_CONFIG_USAGE[kw]}"))
        elif kw == "outdir":
            cfg.outdir = toks[1][0]
        else:   # set
            key, val = toks[1][0], toks[2][0]
            try:
                if "," in val:
                    cfg.options[key] = tuple(map(parse_number, val.split(",")))
                else:
                    cfg.options[key] = parse_number(val)
            except ValueError:
                errors.append(ParseError(ln, toks[2][1], "invalid number", val))
    if "experiment" not in seen:
        errors.append(ParseError(1, 1, "missing required 'experiment' statement"))
        return None, errors
    return (cfg if not errors else None), errors
