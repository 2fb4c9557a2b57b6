import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfshaper import circuit
from rfshaper.blocks import (BLOCK_KINDS, FrequencyGrid, PhaseShifterState,
                             RingParams, WaveguideParams)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port, bind, evaluate
from rfshaper.errors import (ConfigurationError, DomainError, ShaperError,
                             SingularityError, TopologyError)
from rfshaper.experiments import _notch_shaper
from rfshaper.kernels import h_phase_shifter
from rfshaper.netlist import NetlistDocument, document_to_text, parse_netlist
from rfshaper.topologies import DeinterleaverSpec, build_deinterleaver
from rfshaper.tuner import (Objective, OptimizerConfig, optimize,
                            synthesize_cancellation_settings)
from tests.reference import h_ring_allpass, h_waveguide

GRID = FrequencyGrid.sweep(-40.0, 40.0, 0.5)


def chain_graph(blocks):
    connections = []
    for a, b in zip(blocks, blocks[1:]):
        connections.append((Port(a.id, "out"), Port(b.id, "in")))
    return CircuitGraph(tuple(blocks), tuple(connections),
                        inputs={"in": Port(blocks[0].id, "in")},
                        outputs={"out": Port(blocks[-1].id, "out")})


def random_scalar_block(rng, i):
    kind = rng.choice(["waveguide", "phase_shifter", "ring_allpass"])
    if kind == "waveguide":
        params = WaveguideParams.from_fsr(
            float(rng.uniform(20.0, 120.0)),
            loss_db_per_cm=float(rng.uniform(0.0, 2.0)),
            physical_length_cm=float(rng.uniform(0.0, 1.0)))
    elif kind == "phase_shifter":
        params = PhaseShifterState(float(rng.uniform(0.0, 2 * math.pi)))
    else:
        params = RingParams(fsr_ghz=float(rng.uniform(30.0, 80.0)),
                            kappa=float(rng.uniform(0.05, 0.95)),
                            round_trip_amplitude=float(rng.uniform(0.7, 1.0)),
                            detune_ghz=float(rng.uniform(-20.0, 20.0)))
    return BlockInstance(f"b{i}", str(kind), params)


def closed_form(block, offsets):
    if block.kind == "waveguide":
        return np.array([h_waveguide(o, block.params) for o in offsets])
    if block.kind == "phase_shifter":
        return np.full(offsets.size, h_phase_shifter(block.params.phase_rad))
    return np.array([h_ring_allpass(o, block.params) for o in offsets])


def test_single_lossless_waveguide_unit_magnitude():
    g = chain_graph([BlockInstance("w", "waveguide", WaveguideParams.from_fsr(50.0))])
    resp = evaluate(g, GRID)
    assert np.max(np.abs(np.abs(resp.port("out")) - 1.0)) < 1e-12


def test_two_phase_shifters_compose():
    g = chain_graph([
        BlockInstance("p1", "phase_shifter", PhaseShifterState(0.4)),
        BlockInstance("p2", "phase_shifter", PhaseShifterState(1.1)),
    ])
    resp = evaluate(g, GRID)
    expected = np.exp(-1j * 1.5)
    assert np.max(np.abs(resp.port("out") - expected)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_series_chain_matches_closed_form_product(seed):
    rng = np.random.default_rng(seed)
    blocks = [random_scalar_block(rng, i)
              for i in range(int(rng.integers(1, 9)))]
    g = chain_graph(blocks)
    resp = evaluate(g, GRID)
    product = np.ones(len(GRID), dtype=complex)
    for b in blocks:
        product = product * closed_form(b, GRID.offsets_ghz)
    assert np.max(np.abs(resp.port("out") - product)) < 1e-12


def test_passive_energy_bound_random_graphs():
    rng = np.random.default_rng(8)
    for seed in range(5):
        blocks = [random_scalar_block(rng, i) for i in range(3)]
        tc = BlockInstance("tc", "tunable_coupler",
                           PhaseShifterState(float(rng.uniform(0, 2 * math.pi))))
        graph = CircuitGraph(
            tuple(blocks) + (tc,),
            ((Port("b0", "out"), Port("tc", "in0")),
             (Port("b1", "out"), Port("tc", "in1")),
             (Port("tc", "out0"), Port("b2", "in"))),
            inputs={"in": Port("b0", "in"), "in1": Port("b1", "in")},
            outputs={"out": Port("b2", "out"), "tap": Port("tc", "out1")})
        resp = evaluate(graph, FrequencyGrid.sweep(-30, 30, 1.0), input_name="in")
        total = sum(resp.power(p) for p in ("out", "tap"))
        assert np.max(total) <= 1.0 + 1e-9


def test_open_input_port_is_zero_field():
    tc = BlockInstance("tc", "tunable_coupler", PhaseShifterState(math.pi / 2))
    g = CircuitGraph((tc,), (),
                     inputs={"in": Port("tc", "in0")},
                     outputs={"bar": Port("tc", "out0"),
                              "cross": Port("tc", "out1")})
    resp = evaluate(g, GRID)
    assert np.allclose(resp.power("bar") + resp.power("cross"), 1.0, atol=1e-12)


def test_adddrop_block_in_graph_conserves_power():
    ad = BlockInstance("ad", "ring_adddrop",
                       RingParams(fsr_ghz=50.0, kappa=0.25, kappa_drop=0.15,
                                  round_trip_amplitude=1.0))
    g = CircuitGraph((ad,), (),
                     inputs={"in": Port("ad", "in0")},
                     outputs={"through": Port("ad", "out0"),
                              "drop": Port("ad", "out1")})
    resp = evaluate(g, GRID)
    total = resp.power("through") + resp.power("drop")
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_cycle_detection():
    a = BlockInstance("a", "phase_shifter", PhaseShifterState(0.0))
    b = BlockInstance("b", "phase_shifter", PhaseShifterState(0.0))
    with pytest.raises(TopologyError, match="feedback"):
        CircuitGraph((a, b),
                     ((Port("a", "out"), Port("b", "in")),
                      (Port("b", "out"), Port("a", "in"))),
                     inputs={}, outputs={})


def test_dangling_output_rejected():
    a = BlockInstance("a", "phase_shifter", PhaseShifterState(0.0))
    with pytest.raises(TopologyError, match="dangling"):
        CircuitGraph((a,), (), inputs={"in": Port("a", "in")}, outputs={})


def test_duplicate_ids_rejected():
    a = BlockInstance("a", "phase_shifter", PhaseShifterState(0.0))
    with pytest.raises(TopologyError, match="duplicate"):
        CircuitGraph((a, a), (), inputs={}, outputs={})


def _shifter(block_id):
    return BlockInstance(block_id, "phase_shifter", PhaseShifterState(0.0))


A, B, C = map(_shifter, "abc")
OUT = {"o": Port("c", "out")}

#: one mistake per wiring rule -> (blocks, connections, inputs, outputs,
#: the graph's message)
WIRING_MISTAKES = {
    "duplicate_id": (
        (A, _shifter("a")), (), {}, {"o": Port("a", "out")},
        "duplicate block id 'a'"),
    "dotted_id": (
        (_shifter("a.b"),), (), {}, {},
        "block id 'a.b' contains '.', which separates <block>.<port> and "
        "<block>.<heater>"),
    "unknown_id": (
        (A,), ((Port("a", "out"), Port("q", "in")),), {}, {},
        "unknown block id 'q'"),
    "wrong_direction": (
        (A,), (), {"i": Port("a", "out")}, {"o": Port("a", "out")},
        "kind phase_shifter has no input port 'out' (expected one of in)"),
    "reused_output": (
        (A, B, C), ((Port("a", "out"), Port("b", "in")),
                    (Port("a", "out"), Port("c", "in"))), {}, OUT,
        "port a.out already used"),
    "reused_input": (
        (A, B, C), ((Port("a", "out"), Port("c", "in")),
                    (Port("b", "out"), Port("c", "in"))), {}, OUT,
        "port c.in already used"),
    "external_port_reused": (
        (A, C), ((Port("a", "out"), Port("c", "in")),),
        {"i": Port("a", "in"), "j": Port("c", "in")}, OUT,
        "port c.in already used"),
}


@pytest.mark.parametrize("mistake", sorted(WIRING_MISTAKES))
def test_graph_wiring_mistake_is_named(mistake):
    *wiring, message = WIRING_MISTAKES[mistake]
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        CircuitGraph(*wiring)


@pytest.mark.parametrize("call, error, message", [
    (lambda: BlockInstance("x", "nope"), ConfigurationError,
     "unknown block kind 'nope'"),
    (lambda: BlockInstance("x", "ring_allpass", PhaseShifterState(1.0)),
     ConfigurationError, "block 'x' of kind ring_allpass needs RingParams "
     "params, got PhaseShifterState"),
    (lambda: chain_graph([A]).block("q"), TopologyError,
     "unknown block id 'q'"),
], ids=["unknown_kind", "wrong_params", "unknown_id"])
def test_a_block_names_its_unknown_kind_or_params_and_a_graph_its_ids(
        call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("mistake", sorted(WIRING_MISTAKES))
def test_wiring_mistake_gets_one_message_from_graph_and_netlist(mistake):
    # the netlist of the same blocks, connections and external ports
    # reports the graph's message, followed by where the id or port was
    # first used
    blocks, connections, inputs, outputs, _ = WIRING_MISTAKES[mistake]
    with pytest.raises(TopologyError) as exc:
        CircuitGraph(blocks, connections, inputs, outputs)
    _, errors = parse_netlist(document_to_text(NetlistDocument(
        list(blocks), list(connections), inputs, outputs)))
    [error] = errors
    assert re.fullmatch(re.escape(str(exc.value))
                        + r"( on line \d+| \(first declared on line \d+\))?",
                        error.message)


def test_unreachable_output_rejected():
    a = BlockInstance("a", "phase_shifter", PhaseShifterState(0.0))
    b = BlockInstance("b", "phase_shifter", PhaseShifterState(0.0))
    with pytest.raises(TopologyError, match="unreachable"):
        CircuitGraph((a, b), (),
                     inputs={"in": Port("a", "in")},
                     outputs={"out": Port("a", "out"),
                              "orphan": Port("b", "out")})


def test_unknown_output_port_lists_alternatives():
    g = chain_graph([BlockInstance("w", "waveguide",
                                   WaveguideParams.from_fsr(50.0))])
    resp = evaluate(g, GRID)
    with pytest.raises(ConfigurationError, match="available: out"):
        resp.port("nope")


def test_heater_override_equals_rebuilt_graph():
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(fsr_ghz=50.0, kappa=0.3,
                                    round_trip_amplitude=0.95))
    g = chain_graph([ring])
    heaters = {"r.coupling": 1.3, "r.detune": 2.0}
    via_override = evaluate(g, GRID, heaters=heaters).port("out")
    via_rebuild = evaluate(g.with_heaters(heaters), GRID).port("out")
    np.testing.assert_array_equal(via_override, via_rebuild)


HEATER_CASES = {
    "phase_shifter": (PhaseShifterState(1.25), {"phase_rad": 1.25},
                      ("x.phase",)),
    "tunable_coupler": (PhaseShifterState(2.5), {"phase_rad": 2.5},
                        ("x.phase",)),
    "ring_allpass": (RingParams(fsr_ghz=50.0, kappa=0.3,
                                round_trip_amplitude=0.95, detune_ghz=12.5),
                     {"kappa": 0.3, "detune_ghz": 12.5},
                     ("x.coupling", "x.detune")),
    "ring_adddrop": (RingParams(fsr_ghz=50.0, kappa=0.3, kappa_drop=0.12,
                                round_trip_amplitude=0.95, detune_ghz=12.5),
                     {"kappa": 0.3, "kappa_drop": 0.12, "detune_ghz": 12.5},
                     ("x.coupling", "x.coupling_drop", "x.detune")),
}


@pytest.mark.parametrize("kind", sorted(HEATER_CASES))
def test_heater_names_and_values_round_trip(kind):
    params, fields, names = HEATER_CASES[kind]
    spec = BLOCK_KINDS[kind]
    g = CircuitGraph((BlockInstance("x", kind, params),), (),
                     inputs={"in": Port("x", spec.inputs[0])},
                     outputs={o: Port("x", o) for o in spec.outputs})
    assert g.heater_names() == names
    values = g.heater_values()
    assert sorted(values) == list(names)
    p = g.with_heaters(values).block("x").params
    for key, expected in fields.items():
        assert getattr(p, key) == pytest.approx(expected, abs=1e-12)
    for name in names:                 # each setter moves only its heater
        moved = g.with_heaters({name: 0.75}).heater_values()
        assert moved[name] == pytest.approx(0.75, abs=1e-12)
        for other in set(names) - {name}:
            assert moved[other] == pytest.approx(values[other], abs=1e-12)


def test_detune_heater_reads_the_detune_modulo_the_fsr():
    def ring_graph(fsr, detune):
        ring = RingParams(fsr_ghz=fsr, kappa=0.1, detune_ghz=detune)
        return chain_graph([BlockInstance("r", "ring_allpass", ring)])

    for detune in (0.0, 12.5, 49.999):  # in [0, fsr): the plain ratio
        phase = ring_graph(50.0, detune).heater_values()["r.detune"]
        assert phase == (2 * math.pi * (detune / 50.0)) % (2 * math.pi)
    g = ring_graph(1e-300, 1e300)  # detune / fsr overflows
    assert 0.0 <= g.heater_values()["r.detune"] < 2 * math.pi
    result = optimize(g, Objective("critical_coupling", port="out"),
                      OptimizerConfig(max_evals=40, restarts=1))
    assert math.isfinite(result.best_value)


def test_lossless_uncoupled_ring_rejects_only_its_pole():
    g = chain_graph([BlockInstance("r", "ring_allpass",
                                   RingParams(fsr_ghz=50.0, kappa=0.0))])
    # one FSR away the delay phasor is not exactly one, so that point is
    # off the pole too; the tuner sees these values, not an error
    off_pole = FrequencyGrid(193.4, np.array([-1.0, -0.1, 0.2, 50.0]))
    np.testing.assert_allclose(evaluate(g, off_pole).port("out"), 1.0,
                               rtol=0, atol=1e-15)
    with pytest.raises(SingularityError, match="resonance at 0 GHz"):
        evaluate(g, FrequencyGrid.sweep(-1.0, 1.0, 0.5))


def test_unknown_heater_rejected():
    g = chain_graph([BlockInstance("w", "waveguide",
                                   WaveguideParams.from_fsr(50.0))])
    with pytest.raises(ConfigurationError):
        evaluate(g, GRID, heaters={"w.phase": 1.0})


def uncoupled_ring_graph():
    """A lossless uncoupled ring: its own rows raise on resonance."""
    ring = BlockInstance("r", "ring_allpass", RingParams(50.0, 0.0))
    return CircuitGraph((ring,), (), {"in": Port("r", "in")},
                        {"out": Port("r", "out")})


def test_evaluate_with_heaters_mixes_only_the_retuned_blocks():
    graph = uncoupled_ring_graph()
    grid = FrequencyGrid(193.4, np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(SingularityError, match="on resonance"):
        evaluate(graph, grid)
    heaters = {"r.coupling": 1.0}
    got = evaluate(graph, grid, heaters=heaters).port("out")
    assert np.array_equal(
        got, evaluate(graph.with_heaters(heaters), grid).port("out"))
    assert not got.flags.writeable


@pytest.mark.parametrize("name", ["ghost.phase", "r.phase", "r"])
def test_evaluate_checks_heaters_before_any_block(name):
    # the unknown heater is named even though the graph's own rows raise
    with pytest.raises(ConfigurationError, match="heater"):
        evaluate(uncoupled_ring_graph(), GRID, heaters={name: 1.0})


def two_rail_chain(bar: str = "bar") -> CircuitGraph:
    """Two rails through 100 coupler/waveguide stages, with outputs
    ``bar`` and "cross": at most a few fields wait to be read at any
    point of a streamed pass."""
    blocks, connections = [], []
    for k in range(100):
        tc, wg = f"tc{k}", f"wg{k}"
        blocks += [BlockInstance(tc, "tunable_coupler", PhaseShifterState(1.0)),
                   BlockInstance(wg, "waveguide",
                                 WaveguideParams.from_fsr(50.0 + k))]
        connections.append((Port(tc, "out0"), Port(wg, "in")))
        if k:
            connections += [(Port(f"wg{k - 1}", "out"), Port(tc, "in0")),
                            (Port(f"tc{k - 1}", "out1"), Port(tc, "in1"))]
    return CircuitGraph(tuple(blocks), tuple(connections),
                        inputs={"in": Port("tc0", "in0")},
                        outputs={bar: Port("wg99", "out"),
                                 "cross": Port("tc99", "out1")})


def test_evaluate_holds_only_the_fields_still_to_be_read():
    n = 20_001
    grid = FrequencyGrid.sweep(-50.0, 50.0, 0.005)
    assert len(grid) == n
    graph = two_rail_chain()
    tracemalloc.start()
    try:
        resp = evaluate(graph, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resp.port("bar").size == n
    assert peak < 16 * n * np.dtype(np.complex128).itemsize


def two_input_graph():
    tc = BlockInstance("tc", "tunable_coupler", PhaseShifterState(1.0))
    return CircuitGraph((tc,), (),
                        inputs={"a": Port("tc", "in0"), "b": Port("tc", "in1")},
                        outputs={"bar": Port("tc", "out0"),
                                 "cross": Port("tc", "out1")})


def test_evaluate_needs_a_named_input_of_a_two_input_graph():
    graph = two_input_graph()
    with pytest.raises(ConfigurationError, match=r"\['a', 'b'\]"):
        evaluate(graph, GRID)
    with pytest.raises(ConfigurationError, match="unknown input 'c'"):
        evaluate(graph, GRID, input_name="c")
    bar_a = evaluate(graph, GRID, input_name="a").port("bar")
    bar_b = evaluate(graph, GRID, input_name="b").port("bar")
    assert not np.allclose(bar_a, bar_b)


def test_evaluate_rejects_a_graph_without_inputs():
    ps = BlockInstance("ps", "phase_shifter", PhaseShifterState(0.0))
    graph = CircuitGraph((ps,), (), outputs={"out": Port("ps", "out")})
    with pytest.raises(TopologyError, match="no external inputs"):
        evaluate(graph, GRID)


def notch_shaper():
    """The cancel_notch preset's circuit at its closed-form settings."""
    s = synthesize_cancellation_settings(7.0)
    return _notch_shaper(10.0, 7.0, s.coupler_phase_rad, s.shifter_phase_rad)


BIND_GRAPHS = {"deinterleaver": build_deinterleaver(DeinterleaverSpec()),
               "notch_shaper": notch_shaper()}


def outcome(fn):
    """``fn()``, or the type and message of the ShaperError it raises."""
    try:
        return fn()
    except ShaperError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(BIND_GRAPHS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bind_equals_evaluate_of_rebuilt_graph(name, data):
    graph = BIND_GRAPHS[name]
    evaluate_at = bind(graph, GRID)
    # each call names its own heaters; a heater that a call leaves out
    # keeps the graph's phase, whatever an earlier call set it to
    calls = data.draw(st.lists(st.dictionaries(
        st.sampled_from(graph.heater_names()), st.floats(-10.0, 10.0)),
        min_size=1, max_size=4), label="calls")
    for heaters in calls:
        got = outcome(lambda: evaluate_at(heaters))
        want = outcome(lambda: evaluate(graph.with_heaters(heaters), GRID))
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.fields.keys() == want.fields.keys()
        for port in want.fields:
            assert np.array_equal(got.fields[port], want.fields[port]), port


def test_bind_rejects_unknown_heaters():
    graph = BIND_GRAPHS["notch_shaper"]
    evaluate_at = bind(graph, GRID)
    with pytest.raises(ConfigurationError, match="no heater 'detune'"):
        evaluate_at({"ps_bar.detune": 1.0})
    with pytest.raises(ConfigurationError, match="unknown heater 'ghost.phase'"):
        evaluate_at({"ghost.phase": 1.0})
    # a rejected call leaves the bound function usable
    got = evaluate_at({"tc_bar.phase": 1.0}).fields
    want = evaluate(graph.with_heaters({"tc_bar.phase": 1.0}), GRID).fields
    for port in want:
        assert np.array_equal(got[port], want[port]), port


def test_bind_concurrent_calls_see_a_consistent_binding():
    graph = BIND_GRAPHS["notch_shaper"]
    evaluate_at = bind(graph, GRID)
    # one heater per call, so each call re-mixes a different part of the
    # shared bound fields while the threads run
    calls = [{name: 1.0} for name in graph.heater_names()]
    want = [evaluate(graph.with_heaters(h), GRID).fields for h in calls]
    wrong = []

    def worker(first):
        for i in range(first, first + 3 * len(calls), 5):
            got = evaluate_at(calls[i % len(calls)]).fields
            if not all(np.array_equal(got[p], f)
                       for p, f in want[i % len(calls)].items()):
                wrong.append(i)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_bind_defers_a_block_error_to_the_calls_that_keep_it():
    # its own rows raise, but a call that couples it in evaluates
    graph = uncoupled_ring_graph()
    grid = FrequencyGrid(193.4, np.array([-1.0, 0.0, 1.0]))
    evaluate_at = bind(graph, grid)
    heaters = {"r.coupling": 1.0}
    got = evaluate_at(heaters).port("out")
    assert np.array_equal(
        got, evaluate(graph.with_heaters(heaters), grid).port("out"))
    with pytest.raises(SingularityError, match="on resonance"):
        evaluate_at({})


def test_bind_constant_outputs_are_read_only():
    # every output of a bound call is read-only, the kept "ring_tap" (no
    # path from ps_bar) and the re-mixed "detector" alike, and so is
    # every output of evaluate
    graph = BIND_GRAPHS["notch_shaper"]
    bound = bind(graph, GRID)({"ps_bar.phase": 1.0})
    for resp in (bound, evaluate(graph, GRID)):
        for port, f in resp.fields.items():
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                f[:] *= 2.0


def test_bind_mixes_only_the_retuned_blocks_and_those_downstream(
        monkeypatch):
    mix, mixed = circuit._mix, []

    def counting_mix(rows, ins):
        mixed.append(sys._getframe(1).f_locals["blk"].id)   # _pass's block
        return mix(rows, ins)
    graph = BIND_GRAPHS["notch_shaper"]
    evaluate_at = bind(graph, GRID)
    monkeypatch.setattr(circuit, "_mix", counting_mix)
    evaluate_at({"ps_bar.phase": 1.0})
    assert mixed == ["ps_bar", "tc_bar", "comb"]
    mixed.clear()
    evaluate_at({})
    assert mixed == []


def test_batched_call_of_one_setting_equals_the_float_call():
    graph = BIND_GRAPHS["notch_shaper"]
    evaluate_at = bind(graph, GRID)
    want = evaluate_at({"ps_bar.phase": 1.0, "tc_bar.phase": 2.0})
    for got in (evaluate_at({"ps_bar.phase": np.array([1.0]),
                             "tc_bar.phase": 2.0}),
                evaluate(graph, GRID, heaters={"ps_bar.phase": np.array([1.0]),
                                               "tc_bar.phase": 2.0})):
        assert got.fields.keys() == want.fields.keys()
        for port, f in got.fields.items():
            assert f.shape == (1, len(GRID))
            assert np.array_equal(f[0], want.fields[port])


def test_batched_outputs_are_read_only_and_unreached_ports_are_views():
    # ring_tap has no path from ps_bar: it is the kept field, broadcast
    graph = BIND_GRAPHS["notch_shaper"]
    phases = np.linspace(0.0, 6.0, 4)
    for resp in (bind(graph, GRID)({"ps_bar.phase": phases}),
                 evaluate(graph, GRID, heaters={"ps_bar.phase": phases})):
        for port, f in resp.fields.items():
            assert f.shape == (4, len(GRID)), port
            with pytest.raises(ValueError, match="read-only"):
                f[0, 0] = 0.0
        assert resp.fields["ring_tap"].strides[0] == 0
        assert resp.fields["detector"].strides[0] != 0
    assert not np.shares_memory(phases, resp.fields["detector"])


@pytest.mark.parametrize("heaters, message", [
    ({"ps_bar.phase": np.zeros((2, 2))},
     "heater 'ps_bar.phase' takes a float or a 1-D array of settings, got "
     "an array of shape (2, 2)"),
    ({"ps_bar.phase": np.zeros(0)},
     "heater 'ps_bar.phase' takes a float or a 1-D array of settings, got "
     "an array of shape (0,)"),
    ({"ps_bar.phase": np.array(1.0)},
     "heater 'ps_bar.phase' takes a float or a 1-D array of settings, got "
     "an array of shape ()"),
    ({"ps_bar.phase": np.zeros(3), "tc_bar.phase": np.zeros(2)},
     "heater 'tc_bar.phase' has 2 settings, another has 3"),
    *(({"ps_bar.phase": 1.0, "ap.detune": value},
       f"heater 'ap.detune' takes a float or a 1-D array of settings, got "
       f"{got}")
      for value, got in [("1", "str"), (1j, "complex"), ([1.0], "list"),
                         (None, "NoneType"),
                         (10**400, "int too large for a float"),
                         (np.array([1j, 2.0]), "an array of complex128"),
                         (np.array(["1"]), "an array of <U1")]),
    # the heater's name is checked before its value
    ({"ps_bar.bogus": "1"}, "block 'ps_bar' has no heater 'bogus'"),
])
def test_batched_heaters_take_1d_arrays_of_one_length(heaters, message):
    graph = BIND_GRAPHS["notch_shaper"]
    for call in (bind(graph, GRID),
                 lambda h: evaluate(graph, GRID, heaters=h)):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            call(heaters)


@pytest.mark.parametrize("heater", ["ps_bar.phase", "ap.detune"])
@pytest.mark.parametrize("value", [np.float64(math.inf), np.float64(math.nan),
                                   np.float32(7.0), np.int64(9), True,
                                   np.bool_(True)])
def test_a_real_scalar_setting_is_read_as_the_float_it_equals(heater, value):
    graph = BIND_GRAPHS["notch_shaper"]
    evaluate_at = bind(graph, GRID)
    for call in (evaluate_at, lambda h: evaluate(graph, GRID, heaters=h)):
        got, want = (outcome(lambda: call({heater: v}))
                     for v in (value, float(value)))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert ({p: f.tobytes() for p, f in got.fields.items()}
                    == {p: f.tobytes() for p, f in want.fields.items()})
    if math.isfinite(value):
        i = [b.id for b in graph.blocks].index(heater.partition(".")[0])
        got, want = (graph.with_heaters({heater: v}).blocks[i]
                     for v in (value, float(value)))
        assert got == want
        assert all(type(v) is float for v in vars(got.params).values()
                   if v is not None)


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
def test_an_array_of_a_real_dtype_gives_the_rows_of_its_float_calls(dtype):
    evaluate_at = bind(BIND_GRAPHS["notch_shaper"], GRID)
    values = np.array([7.1, 0.0, 1.0]).astype(dtype)
    for heater in ("ps_bar.phase", "ad.coupling", "ap.detune"):
        got = evaluate_at({heater: values}).fields
        for i, v in enumerate(values.tolist()):
            want = evaluate_at({heater: float(v)}).fields
            for port in want:
                assert got[port][i].tobytes() == want[port].tobytes(), port


@pytest.mark.parametrize("heater", ["ps_bar.phase", "ad.coupling_drop",
                                    "ap.detune"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_setting_in_a_batch_raises_as_the_float_does(heater,
                                                                 bad):
    graph = BIND_GRAPHS["notch_shaper"]
    evaluate_at = bind(graph, GRID)
    with pytest.raises(ShaperError) as want:
        evaluate_at({heater: bad})
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        evaluate_at({heater: np.array([0.5, bad, 1.0])})


def test_with_heaters_takes_one_phase_per_heater():
    graph = BIND_GRAPHS["notch_shaper"]
    with pytest.raises(ConfigurationError, match=re.escape(
            "with_heaters takes one phase per heater, got arrays for "
            "['ps_bar.phase']")):
        graph.with_heaters({"ps_bar.phase": np.array([1.0, 2.0]),
                            "tc_bar.phase": 1.0})


def test_the_order_of_a_blocks_settings_does_not_change_its_error():
    # kappa NaN and a detune that overflows to inf: both fields fail, and
    # the params record checks them in field order whatever the settings'
    g = chain_graph([BlockInstance("r", "ring_allpass",
                                   RingParams(fsr_ghz=1e308, kappa=0.1))])
    for settings in ({"r.detune": 2.0, "r.coupling": math.nan},
                     {"r.coupling": math.nan, "r.detune": 2.0},
                     {"r.detune": np.array([2.0, 0.5]),
                      "r.coupling": np.array([0.5, math.nan])},
                     {"r.coupling": np.array([0.5, math.nan]),
                      "r.detune": np.array([2.0, 0.5])}):
        for call in (bind(g, GRID), lambda h: evaluate(g, GRID, heaters=h)):
            with pytest.raises(DomainError, match=re.escape(
                    "RingParams: non-finite value nan")):
                call(settings)


def test_an_unknown_heater_is_named_before_a_bad_value():
    graph = BIND_GRAPHS["deinterleaver"]
    with pytest.raises(ConfigurationError, match="no heater 'phase'"):
        bind(graph, GRID)({"r1.coupling": math.nan, "r2.phase": 1.0})


@pytest.mark.parametrize("k", [None, 8])
def test_a_bound_call_rebuilds_each_retuned_block_once(monkeypatch, k):
    graph = BIND_GRAPHS["deinterleaver"]
    evaluate_at = bind(graph, GRID)
    counts = dict.fromkeys((BlockInstance, RingParams, PhaseShifterState), 0)

    def counting(cls):
        check = cls.__post_init__

        def post_init(self):
            counts[cls] += 1
            check(self)
        return post_init

    for cls in counts:
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    phases = [0.5 + 0.25 * i for i in range(len(graph.heater_names()))]
    evaluate_at({name: phase if k is None else np.full(k, phase)
                 for name, phase in zip(graph.heater_names(), phases)})
    # six retuned blocks: three rings, two tunable couplers, one shifter
    assert counts == {BlockInstance: 6, RingParams: 3, PhaseShifterState: 3}


def test_with_heater_checks_names_and_keeps_a_block_without_settings():
    coupler = BlockInstance("c", "coupler_3db")
    assert coupler.with_heater({}) is coupler
    with pytest.raises(ConfigurationError, match="block 'c' has no heater"):
        coupler.with_heater({"phase": 1.0})


HEATED_BLOCKS = [
    BlockInstance("ps", "phase_shifter", PhaseShifterState(0.3)),
    BlockInstance("tc", "tunable_coupler", PhaseShifterState(4.0)),
    BlockInstance("ap", "ring_allpass", RingParams(
        50.0, 0.2, round_trip_amplitude=0.9, detune_ghz=3.0)),
    # an FSR this large makes most detune settings overflow to inf
    BlockInstance("ad", "ring_adddrop", RingParams(1e308, 0.2, kappa_drop=0.1)),
]
COLUMN_SETTINGS = [0.5, -0.0, 7.0, -3.0, 5e-324, 1e308, -1e308, math.nan,
                   math.inf, -math.inf]


@pytest.mark.parametrize("blk, name", [
    (blk, name) for blk in HEATED_BLOCKS
    for name in BLOCK_KINDS[blk.kind].heaters],
    ids=lambda x: getattr(x, "kind", x))
def test_with_heater_gives_a_column_whose_rows_are_the_float_calls(blk, name):
    heater = BLOCK_KINDS[blk.kind].heaters[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the heater's update: each row of the column is the float call's
        (field, column), = heater.update(
            blk.params, np.array(COLUMN_SETTINGS)).items()
        rows = [heater.update(blk.params, v)[field] for v in COLUMN_SETTINGS]
        assert all(type(v) is float for v in rows)
        assert column.shape == (len(COLUMN_SETTINGS), 1)
        assert column.tobytes() == np.array(rows).tobytes()
        # with_heater: params with that column, or the first failing
        # row's error
        for value in COLUMN_SETTINGS:
            settings = [0.5, value]
            want = [outcome(lambda: blk.with_heater({name: v}).params)
                    for v in settings]
            got = outcome(
                lambda: blk.with_heater({name: np.array(settings)}).params)
            errors = [w for w in want if isinstance(w, tuple)]
            if errors:
                assert got == errors[0]
                continue
            assert getattr(got, field).shape == (2, 1)
            assert getattr(got, field).tobytes() == np.array(
                [getattr(w, field) for w in want]).tobytes()
            assert {**vars(got), field: None} == {**vars(blk.params),
                                                  field: None}
