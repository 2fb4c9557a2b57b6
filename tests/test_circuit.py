import math

import numpy as np
import pytest

from rfshaper.blocks import (BLOCK_KINDS, FrequencyGrid, PhaseShifterState,
                             RingParams, WaveguideParams, h_phase_shifter,
                             h_ring_allpass, h_waveguide)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port, evaluate
from rfshaper.errors import ConfigurationError, SingularityError, TopologyError

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
