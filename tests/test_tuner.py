import math

import numpy as np
import pytest

from rfshaper.blocks import (PhaseShifterState, RingParams,
                             critical_coupling_kappa, h_phase_shifter,
                             h_tunable_coupler)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port
from rfshaper.errors import AnalysisError, ConfigurationError, DomainError
from rfshaper.topologies import (DeinterleaverSpec, FITTED_RING_AMPLITUDE,
                                 build_deinterleaver)
from rfshaper.tuner import (Objective, OptimizerConfig,
                            compensate_coupler_phase, optimize,
                            synthesize_cancellation_settings)


def single_heater_graph():
    ps = BlockInstance("ps", "phase_shifter", PhaseShifterState(0.0))
    return CircuitGraph((ps,), (), {"in": Port("ps", "in")},
                        {"out": Port("ps", "out")})


def quadratic_objective(center: float) -> Objective:
    def fn(graph, heaters):
        phi = heaters["ps.phase"]
        d = (phi - center + math.pi) % (2 * math.pi) - math.pi
        return -d * d
    return Objective("custom_scalar", custom_fn=fn)


@pytest.mark.parametrize("kind, port", [
    ("deinterleaver_extinction", "bar"), ("critical_coupling", "bar"),
    ("notch_depth", "detector"), ("conversion_extinction", "detector"),
])
def test_objective_port_default_follows_kind(kind, port):
    assert Objective(kind).port == port
    assert Objective(kind, port="monitor").port == "monitor"


def test_optimize_1d_quadratic_bowl():
    result = optimize(single_heater_graph(), quadratic_objective(1.0),
                      OptimizerConfig(max_evals=2000, restarts=4, seed=0))
    assert result.best["ps.phase"] == pytest.approx(1.0, abs=1e-4)
    assert result.best_value == pytest.approx(0.0, abs=1e-8)


def test_optimize_rejects_unknown_heater_names():
    with pytest.raises(ConfigurationError, match="unknown heaters"):
        optimize(single_heater_graph(), quadratic_objective(1.0),
                 OptimizerConfig(max_evals=50, restarts=1),
                 heater_names=["ps.phase", "ghost.phase"])


def test_optimize_requires_heaters():
    wg = BlockInstance("c", "coupler_3db", None)
    g = CircuitGraph((wg,), (), {"in": Port("c", "in0")},
                     {"a": Port("c", "out0"), "b": Port("c", "out1")})
    with pytest.raises(ConfigurationError):
        optimize(g, quadratic_objective(1.0))


def test_optimize_all_nan_objective_raises_analysis_error():
    nan = Objective("custom_scalar", custom_fn=lambda graph, heaters: math.nan)
    with pytest.raises(AnalysisError, match="NaN"):
        optimize(single_heater_graph(), nan,
                 OptimizerConfig(max_evals=50, restarts=1))


def test_optimize_deterministic_given_seed():
    cfg = OptimizerConfig(max_evals=500, restarts=3, seed=42)
    a = optimize(single_heater_graph(), quadratic_objective(2.0), cfg)
    b = optimize(single_heater_graph(), quadratic_objective(2.0), cfg)
    assert a.best == b.best
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations


def test_optimize_never_below_start_and_monotone_budget():
    obj = quadratic_objective(4.0)
    small = optimize(single_heater_graph(), obj,
                     OptimizerConfig(max_evals=60, restarts=2, seed=1))
    big = optimize(single_heater_graph(), obj,
                   OptimizerConfig(max_evals=120, restarts=2, seed=1))
    assert big.best_value >= small.best_value
    for trace in small.restarts:
        assert small.best_value >= trace.best_value


def test_optimize_invariant_to_heater_name_order():
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, 0.5,
                                    round_trip_amplitude=FITTED_RING_AMPLITUDE))
    g = CircuitGraph((ring,), (), {"in": Port("r", "in")},
                     {"out": Port("r", "out")})
    obj = Objective("critical_coupling", port="out", offset_ghz=0.0)
    cfg = OptimizerConfig(max_evals=800, restarts=2, seed=7)
    a = optimize(g, obj, cfg, heater_names=["r.coupling", "r.detune"])
    b = optimize(g, obj, cfg, heater_names=["r.detune", "r.coupling"])
    assert a.best == b.best


def test_optimize_finds_critical_coupling():
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, 0.5,
                                    round_trip_amplitude=FITTED_RING_AMPLITUDE))
    g = CircuitGraph((ring,), (), {"in": Port("r", "in")},
                     {"out": Port("r", "out")})
    obj = Objective("critical_coupling", port="out", offset_ghz=0.0)
    result = optimize(g, obj, OptimizerConfig(max_evals=3000, restarts=4,
                                              seed=0),
                      heater_names=["r.coupling"])
    kappa = math.sin(result.best["r.coupling"] / 2.0) ** 2
    assert kappa == pytest.approx(
        critical_coupling_kappa(FITTED_RING_AMPLITUDE), abs=1e-3)


def test_optimize_polishes_designed_deinterleaver():
    g = build_deinterleaver(DeinterleaverSpec.designed())
    obj = Objective("deinterleaver_extinction")
    result = optimize(g, obj, OptimizerConfig(max_evals=2000, restarts=2,
                                              seed=0))
    assert result.best_value >= 20.0


def test_optimize_from_naive_start_reaches_target():
    g = build_deinterleaver(DeinterleaverSpec())
    obj = Objective("deinterleaver_extinction")
    result = optimize(g, obj, OptimizerConfig(max_evals=20000, restarts=8,
                                              seed=1))
    assert result.best_value >= 20.0


def test_compensation_round_trip():
    for target in np.linspace(0.0, 1.0, 101):
        phi, comp = compensate_coupler_phase(float(target))
        bar = h_tunable_coupler(phi).m00 * np.exp(1j * comp)
        assert abs(bar) ** 2 == pytest.approx(float(target), abs=1e-12)
        if target > 0:
            assert abs(math.atan2(bar.imag, bar.real)) < 1e-12


def test_compensation_examples():
    assert compensate_coupler_phase(0.0) == (0.0, 0.0)
    phi, comp = compensate_coupler_phase(1.0)
    assert phi == pytest.approx(math.pi)
    assert comp == pytest.approx(0.0, abs=1e-12)
    phi, comp = compensate_coupler_phase(0.5)
    assert phi == pytest.approx(math.pi / 2)
    assert comp == pytest.approx(-math.pi / 4, abs=1e-12)
    with pytest.raises(DomainError):
        compensate_coupler_phase(1.5)


def test_cancellation_settings_seven_db():
    s = synthesize_cancellation_settings(7.0)
    assert s.attenuation_amplitude == pytest.approx(0.4467, abs=1e-4)
    assert s.net_phase_rad == math.pi
    # applying shifter + coupler rotates the bar field by exactly pi
    bar = h_tunable_coupler(s.coupler_phase_rad).m00 * \
        h_phase_shifter(s.shifter_phase_rad)
    assert abs(bar) == pytest.approx(s.attenuation_amplitude, abs=1e-12)
    assert abs(abs(math.atan2(bar.imag, bar.real)) - math.pi) < 1e-12


def test_cancellation_settings_zero_db_is_pure_antiphase():
    s = synthesize_cancellation_settings(0.0)
    assert s.attenuation_amplitude == pytest.approx(1.0)
    bar = h_tunable_coupler(s.coupler_phase_rad).m00 * \
        h_phase_shifter(s.shifter_phase_rad)
    assert bar == pytest.approx(-1.0 + 0.0j, abs=1e-12)
