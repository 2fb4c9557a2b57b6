import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfshaper.blocks import BLOCK_KINDS, PhaseShifterState, RingParams
from rfshaper.cli import main
from rfshaper.circuit import BlockInstance, Port
from rfshaper.errors import ConfigurationError
from rfshaper.netlist import (NetlistDocument, _tokenize, document_to_text,
                              load_experiment_config, parse_netlist,
                              parse_numbers)
from rfshaper.topologies import DeinterleaverSpec, build_deinterleaver

VALID = """\
format 1
block r1 ring_allpass kappa=0.0376 fsr_ghz=50 round_trip_amplitude=0.981 detune_ghz=0
block ps phase_shifter phase_rad=1.5708
connect r1.out ps.in
input light r1.in
output out ps.out
"""


def test_parse_valid_netlist():
    doc, errors = parse_netlist(VALID)
    assert errors == []
    assert len(doc.blocks) == 2
    ring = doc.blocks[0]
    assert ring.kind == "ring_allpass"
    assert ring.params.kappa == pytest.approx(0.0376)
    graph = doc.to_graph()
    assert graph.heater_names() == ("ps.phase", "r1.coupling", "r1.detune")


def test_parse_empty_file():
    doc, errors = parse_netlist("")
    assert errors == []
    assert doc.blocks == [] and doc.connections == []


def test_numbers_accept_scientific_notation():
    doc, errors = parse_netlist(
        "block w waveguide optical_path_length=4.9965e-3 loss_db_per_cm=1e-3\n"
        "input in w.in\noutput out w.out\n")
    assert errors == []
    assert doc.blocks[0].params.loss_db_per_cm == 1e-3
    assert doc.blocks[0].params.optical_path_length == pytest.approx(4.9965e-3)


def test_parse_comments_and_blanks():
    doc, errors = parse_netlist(
        "# a comment\n\n   \nblock p phase_shifter phase_rad=1 # trailing\n")
    assert errors == []
    assert doc.blocks[0].params.phase_rad == 1.0


@pytest.mark.parametrize("text, column, message", [
    ("param x 1", 1, "unknown statement 'param'"),
    ("block tc tunable_coupler phase_rad=1 heater_power_mw=1", 38,
     "kind tunable_coupler has no key 'heater_power_mw'"),
])
def test_removed_netlist_data_is_a_positioned_error(text, column, message):
    _, errors = parse_netlist(text)
    assert [(e.line, e.column, e.message) for e in errors] == \
        [(1, column, message)]


@pytest.mark.parametrize("text, column, message", [
    ("format", 1, "expected: format 1"),
    ("format 1 2", 1, "expected: format 1"),
    ("format 2", 8, "only 'format 1' is supported"),
    ("block r", 1, "expected: block <id> <kind> key=value ..."),
    ("  output o", 3, "expected: output <name> <id>.<port>"),
])
def test_statement_usage_is_checked_at_the_keyword(text, column, message):
    _, errors = parse_netlist(text)
    assert [(e.line, e.column, e.message) for e in errors] == \
        [(1, column, message)]


def test_tokens_split_on_every_unicode_space():
    spaces = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
    assert _tokenize(f"a{spaces}b\u200bc {spaces}") == \
        [("a", 1), ("b\u200bc", len(spaces) + 2)]


def test_parse_numbers():
    assert parse_numbers("1:2.5e1", "lo:hi") == (1.0, 25.0)
    with pytest.raises(ConfigurationError, match="^expected lo:hi, got '1'$"):
        parse_numbers("1", "lo:hi")
    for text in ("1:nan", "-inf:1", "1:", "1:1e999"):
        with pytest.raises(ConfigurationError,
                           match=f"^expected numbers in lo:hi, got '{text}'$"):
            parse_numbers(text, "lo:hi")


def test_kappa_out_of_range_reports_line():
    _, errors = parse_netlist("block r1 ring_allpass kappa=1.5 fsr_ghz=50")
    assert len(errors) == 1
    assert errors[0].line == 1
    assert "kappa out of range [0,1]" in errors[0].message


def test_unknown_kind_and_key():
    text = "block a resistor r=50\nblock b phase_shifter bogus=1 phase_rad=0\n"
    _, errors = parse_netlist(text)
    assert [e.line for e in errors] == [1, 2]
    assert "unknown block kind" in errors[0].message
    assert "no key" in errors[1].message


def test_duplicate_id_reported_once():
    text = ("block a phase_shifter phase_rad=0\n"
            "block a phase_shifter phase_rad=1\n")
    _, errors = parse_netlist(text)
    assert len(errors) == 1
    assert errors[0].line == 2 and "duplicate" in errors[0].message


def test_bad_block_does_not_cascade_into_connect_errors():
    text = ("block a phase_shifter phase_rad=oops\n"
            "block b phase_shifter phase_rad=0\n"
            "connect a.out b.in\n"
            "input in a.in\n"
            "output out b.out\n")
    _, errors = parse_netlist(text)
    assert len(errors) == 1
    assert errors[0].line == 1


def test_port_arity_checked():
    text = ("block a phase_shifter phase_rad=0\n"
            "block c coupler_3db\n"
            "connect a.out0 c.in0\n")
    _, errors = parse_netlist(text)
    assert len(errors) == 1
    assert errors[0].line == 3
    assert "no output port" in errors[0].message


def test_errors_carry_columns():
    _, errors = parse_netlist("block p phase_shifter phase_rad=notanumber")
    assert errors[0].column == 23


# a tunable coupler and an add-drop ring: every optional ring key written
POWERED = NetlistDocument(
    blocks=[BlockInstance("tc", "tunable_coupler", PhaseShifterState(0.9)),
            BlockInstance("rd", "ring_adddrop",
                          RingParams(fsr_ghz=50.0, kappa=0.1, kappa_drop=0.05,
                                     round_trip_amplitude=0.97,
                                     detune_ghz=-2.0))],
    connections=[(Port("tc", "out0"), Port("rd", "in0"))],
    inputs={"light": Port("tc", "in0")},
    outputs={"other": Port("tc", "out1"), "through": Port("rd", "out0"),
             "drop": Port("rd", "out1")})


def test_parse_print_parse_idempotent():
    parsed, errors = parse_netlist(VALID)
    assert not errors
    for doc1 in (parsed, POWERED):
        text2 = document_to_text(doc1)
        doc2, errors2 = parse_netlist(text2)
        assert not errors2
        assert doc2 == doc1
        assert document_to_text(doc2) == text2


def test_print_parse_round_trip_for_builder_graphs():
    graph = build_deinterleaver(DeinterleaverSpec.designed())
    text = document_to_text(graph)
    doc, errors = parse_netlist(text)
    assert not errors
    rebuilt = doc.to_graph()
    assert rebuilt.heater_names() == graph.heater_names()
    assert rebuilt.heater_values() == pytest.approx(graph.heater_values())


def test_shaper_round_trip_preserves_responses_exactly():
    import numpy as np
    from rfshaper.blocks import FrequencyGrid
    from rfshaper.circuit import evaluate
    from rfshaper.topologies import build_shaper

    graph = build_shaper()
    text = document_to_text(graph)
    doc, errors = parse_netlist(text)
    assert not errors
    rebuilt = doc.to_graph()
    grid = FrequencyGrid.sweep(-25.0, 25.0, 0.5)
    a, b = evaluate(graph, grid), evaluate(rebuilt, grid)
    for port in ("detector", "monitor", "bar_tap", "ring_tap"):
        np.testing.assert_array_equal(a.port(port), b.port(port))


_CORRUPTIONS = [
    lambda line: "blok" + line[5:],                  # keyword typo
    lambda line: line + " extra=nan",                # bad number
    lambda line: line.replace("=", "=abc", 1),       # non-numeric value
    lambda line: line.split()[0] + " onlyonetoken",  # wrong arity
]


@given(st.integers(0, len(_CORRUPTIONS) - 1),
       st.integers(1, len(VALID.splitlines()) - 1))
@settings(max_examples=60, deadline=None)
def test_corrupted_lines_each_yield_one_error(kind, line_no):
    # every invalid line yields exactly one error pointing at itself;
    # corrupting a block declaration also invalidates the lines that
    # reference it, each of which reports once at its own position
    lines = VALID.splitlines()
    target = lines[line_no]
    if "=" not in target and kind == 2:
        kind = 0
    lines[line_no] = _CORRUPTIONS[kind](target)
    _, errors = parse_netlist("\n".join(lines))
    assert errors, "corruption must be detected"
    per_line = {}
    for e in errors:
        per_line[e.line] = per_line.get(e.line, 0) + 1
    assert all(count == 1 for count in per_line.values())
    assert per_line.get(line_no + 1) == 1


def test_experiment_config_happy_path():
    cfg, errors = load_experiment_config(
        "experiment cancel_notch\nsweep 1 30 0.01\n"
        "heater ps_bar.phase 1.5708\nseed 3\nset notch_freq_ghz 12\n")
    assert errors == []
    assert cfg.experiment == "cancel_notch"
    assert cfg.options["sweep"] == (1.0, 30.0, 0.01)
    assert cfg.options["heaters"] == {"ps_bar.phase": 1.5708}
    assert cfg.seed == 3
    assert cfg.options["notch_freq_ghz"] == 12.0


def test_experiment_config_list_option():
    cfg, errors = load_experiment_config(
        "experiment bandpass_tune\nset detunes_ghz 8,12,16,20\n")
    assert not errors
    assert cfg.options["detunes_ghz"] == (8.0, 12.0, 16.0, 20.0)


@pytest.mark.parametrize("before, after, want", [
    ("", "", {"ps_bar.phase": 0.3, "tc_bar.phase": 1.0}),
    ("set heaters 1\n", "", 1.0),
    ("", "set heaters 1\n", 1.0),
], ids=["heater", "set_before", "set_after"])
def test_heater_statements_are_the_heaters_option(before, after, want):
    # a `set heaters` line wins in either order, and the preset then
    # rejects its number; the config keeps no heater table of its own
    cfg, errors = load_experiment_config(
        "experiment ssb_notch\n" + before
        + "heater ps_bar.phase 0.3\nheater tc_bar.phase 1\n" + after)
    assert not errors
    assert cfg.options == {"heaters": want}
    assert [f.name for f in fields(cfg)] == [
        "experiment", "options", "seed", "outdir"]


def test_experiment_config_requires_name():
    cfg, errors = load_experiment_config("sweep 1 30 0.1\n")
    assert cfg is None
    assert any("experiment" in e.message for e in errors)


def test_experiment_config_unknown_statement():
    cfg, errors = load_experiment_config("experiment im2pm\nfrobnicate 1\n")
    assert cfg is None
    assert errors[0].line == 2


_VALUES = ["0.1", "0.5", "50", "2e-3", "-3", "nan", "inf", "-inf", "1e999",
           "abc", ""]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_params_get_one_verdict_from_cli_and_netlist(data):
    # known keys, a key of another kind, an unknown key, repeats, tokens
    # without '=' and values that are not finite numbers
    kind = data.draw(st.sampled_from(sorted(BLOCK_KINDS)))
    spec = BLOCK_KINDS[kind]
    keys = spec.keys + ("kappa_drop", "bogus")
    token = st.one_of(
        st.builds("{}={}".format, st.sampled_from(keys),
                  st.sampled_from(_VALUES)),
        st.sampled_from(keys))
    # most draws name every required key, so that one bad token decides
    required = [f"{k}=0.5" for k in spec.required
                if data.draw(st.integers(0, 4))]
    tokens = data.draw(st.permutations(
        required + data.draw(st.lists(token, max_size=3))))
    _, errors = parse_netlist(f"block b {kind} {' '.join(tokens)}\n")
    with tempfile.TemporaryDirectory() as d:
        rc = main(["block", kind, *tokens, "--sweep=-1:1:1",
                   "--out", os.path.join(d, "b.csv")])
    assert rc == (3 if errors else 0)


CONFIG = """\
experiment ssb_notch
sweep 2 28 0.5
heater ps_bar.phase 1.5
seed 3
outdir out
set notch_freq_ghz 12
"""

_JUNK = ["nan", "1e999", "=", "x=1", "kappa=", "kappa=2", "r1.out", "ps.in",
         "#", "block", "set", "1", "-1", "8,,16", "a.b.c"]


@st.composite
def _mutated(draw, text):
    """``text`` with one to three lines changed: a token dropped,
    repeated, replaced, swapped or a junk token inserted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split() or [""]
        j = draw(st.integers(0, len(toks) - 1))
        k = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "replace", "insert",
                                   "swap"]))
        if op == "drop":
            del toks[j]
        elif op == "repeat":
            toks.insert(j, toks[j])
        elif op == "replace":
            toks[j] = draw(st.sampled_from(_JUNK))
        elif op == "insert":
            toks.insert(j, draw(st.sampled_from(_JUNK)))
        else:
            toks[j], toks[k] = toks[k], toks[j]
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _main_on_file(text: str, name: str, command: str, out_flag: str,
                  *options: str) -> int:
    """``rfshaper <command> <name holding text> <options> <out_flag> <path>``
    in a scratch directory."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return main([command, path, *options, out_flag,
                     os.path.join(d, "out")])


@given(_mutated(VALID))
@settings(max_examples=60, deadline=None)
def test_mutated_netlist_errors_are_positioned_and_exit_3(text):
    _, errors = parse_netlist(text)
    assert all(e.line >= 1 and e.column >= 1 for e in errors)
    rc = _main_on_file(text, "m.nl", "sweep", "--out", "--sweep=-1:1:1")
    assert rc == 3 if errors else rc in (0, 3, 4)


@given(_mutated(CONFIG))
@settings(max_examples=60, deadline=None)
def test_mutated_config_errors_are_positioned_and_exit_3(text):
    cfg, errors = load_experiment_config(text)
    assert all(e.line >= 1 and e.column >= 1 for e in errors)
    assert (cfg is None) == bool(errors)
    if errors:     # a valid config would run the whole preset
        assert _main_on_file(text, "m.cfg", "experiment", "--out-dir") == 3


# -- wiring: where each error points, and what a failed statement leaves --

WIRED = """\
format 1
block a phase_shifter phase_rad=0
block c coupler_3db
connect a.out c.in0
"""


def _errors(text: str) -> list[tuple[int, int, str]]:
    return [(e.line, e.column, e.message) for e in parse_netlist(text)[1]]


@pytest.mark.parametrize("line, column, message", [
    ("block a waveguide optical_path_length=1", 7,
     "duplicate block id 'a' (first declared on line 2)"),
    ("connect q.out c.in1", 9, "unknown block id 'q'"),
    ("connect c.out0 q.in", 16, "unknown block id 'q'"),
    ("input x c.out0", 9,
     "kind coupler_3db has no input port 'out0' (expected one of in0, in1)"),
    ("output y a.in", 10,
     "kind phase_shifter has no output port 'in' (expected one of out)"),
])
def test_wiring_errors_point_at_their_token(line, column, message):
    assert _errors(WIRED + line + "\n") == [(5, column, message)]


@pytest.mark.parametrize("line, column, port", [
    ("connect a.out c.in1", 9, "a.out"),     # reused output: its source
    ("connect c.out0 c.in0", 16, "c.in0"),   # reused input: its destination
    ("connect a.out c.in0", 9, "a.out"),     # both: the source only
    ("input x c.in0", 9, "c.in0"),
    ("output y a.out", 10, "a.out"),
])
def test_reused_port_reported_once_at_its_token(line, column, port):
    [(ln, col, message)] = _errors(WIRED + line + "\n")
    assert (ln, col) == (5, column)
    assert port in message and message.endswith(" on line 4")


@pytest.mark.parametrize("failed", [
    "connect c.out0 c.in0",    # reused input: c.out0 stays free
    "connect c.out0 q.in",     # unknown block: c.out0 stays free
    "connect c.out0 c.out1",   # wrong direction: c.out0 stays free
])
def test_failed_connect_claims_no_port(failed):
    text = WIRED + failed + "\noutput o c.out0\n"
    assert [ln for ln, _, _ in _errors(text)] == [5]


@pytest.mark.parametrize("failed", [
    "input x c.in1\ninput x a.in",      # duplicate name: a.in stays free
    "input x c.in1\ninput y c.in1",     # reused port: name y stays free
])
def test_failed_io_claims_nothing(failed):
    text = WIRED + failed + "\ninput y a.in\n"
    assert [ln for ln, _, _ in _errors(text)] == [6]


def test_rejected_block_reserves_its_id_and_kind():
    text = ("block a phase_shifter phase_rad=oops\n"
            "block a coupler_3db\n"
            "connect a.out0 a.in\n")
    assert _errors(text) == [
        (1, 23, "invalid number for 'phase_rad'"),
        (2, 7, "duplicate block id 'a' (first declared on line 1)"),
        (3, 9, "kind phase_shifter has no output port 'out0' "
               "(expected one of out)"),
    ]


def test_unknown_kind_reserves_no_id():
    text = ("block a resistor r=50\n"
            "input x a.in\n"
            "block a phase_shifter phase_rad=0\n")
    assert _errors(text) == [(1, 9, "unknown block kind 'resistor'"),
                             (2, 9, "unknown block id 'a'")]


def test_duplicate_id_is_reported_before_unknown_kind():
    text = "block a coupler_3db\nblock a resistor\n"
    assert _errors(text) == [
        (2, 7, "duplicate block id 'a' (first declared on line 1)")]


#: each way to use a port twice -> (netlist, line, column, message); the
#: other wiring mistakes are in test_wiring_errors_point_at_their_token
PORT_REUSES = {
    "reused_output": (
        WIRED + "connect a.out c.in1\n", 5, 9,
        "port a.out already used on line 4"),
    "reused_input": (
        WIRED + "connect c.out0 c.in0\n", 5, 16,
        "port c.in0 already used on line 4"),
    "external_input_reused": (
        WIRED + "input x c.in0\n", 5, 9, "port c.in0 already used on line 4"),
    "external_output_reused": (
        WIRED + "output x c.out1\noutput y c.out1\n", 6, 10,
        "port c.out1 already used on line 5"),
}


@pytest.mark.parametrize("reuse", sorted(PORT_REUSES))
def test_port_reuse_message_names_the_first_use(reuse):
    text, line, column, message = PORT_REUSES[reuse]
    assert _errors(text) == [(line, column, message)]
