import math

import numpy as np
import pytest

from rfshaper import kernels, rflink
from rfshaper.blocks import (FrequencyGrid, PhaseShifterState, RingParams,
                             critical_coupling_kappa, h_phase_shifter,
                             h_tunable_coupler)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port
from rfshaper.errors import AnalysisError, ConfigurationError, DomainError
from rfshaper.experiments import _notch_shaper
from rfshaper.topologies import (DeinterleaverSpec, FITTED_RING_AMPLITUDE,
                                 ShaperConfig, build_deinterleaver,
                                 build_shaper)
from rfshaper.tuner import (FLIP_HEATER, OBJECTIVE_KINDS, RF_STEP_GHZ,
                            Objective, OptimizerConfig,
                            compensate_coupler_phase, optimize,
                            synthesize_cancellation_settings)


def single_heater_graph():
    ps = BlockInstance("ps", "phase_shifter", PhaseShifterState(0.0))
    return CircuitGraph((ps,), (), {"in": Port("ps", "in")},
                        {"out": Port("ps", "out")})


class ScalarObjective:
    """A stand-in objective: ``optimize`` only calls ``build(graph)``,
    which here gives ``fn(graph, heaters)`` as a function of heaters."""

    def __init__(self, fn):
        self.fn = fn

    def build(self, graph):
        return lambda heaters: self.fn(graph, heaters)


def quadratic_objective(center: float) -> ScalarObjective:
    def fn(graph, heaters):
        phi = heaters["ps.phase"]
        d = (phi - center + math.pi) % (2 * math.pi) - math.pi
        return -d * d
    return ScalarObjective(fn)


def count_ring_kernels(monkeypatch) -> list[str]:
    """The names of the ring kernels called from now on, in call order."""
    calls = []
    for name in ("ring_allpass_grid", "ring_adddrop_grid"):
        def counted(*args, _kernel=getattr(kernels, name)):
            calls.append(_kernel.__name__)
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    return calls


@pytest.mark.parametrize("kind, port", [
    ("deinterleaver_extinction", "bar"), ("critical_coupling", "bar"),
    ("notch_depth", "detector"), ("conversion_extinction", "detector"),
])
def test_objective_port_default_follows_kind(kind, port):
    assert OBJECTIVE_KINDS[kind] == port
    assert Objective(kind).port == port
    assert Objective(kind, port="monitor").port == "monitor"


@pytest.mark.parametrize("kwargs, field", [
    ({"rf_freq_ghz": 0.0}, "rf_freq_ghz"),
    ({"rf_freq_ghz": math.nan}, "rf_freq_ghz"),
    ({"rf_freq_ghz": math.inf}, "rf_freq_ghz"),
    ({"offset_ghz": math.nan}, "offset_ghz"),
    ({"passband": (3.0, math.inf)}, "passband"),
    ({"stopband": (-3.0, -27.0)}, "stopband"),
    ({"band": (math.nan, 25.0)}, "band"),
    ({"band": (0.0, 25.0)}, "band"),
    ({"passband": (3.0, 5.0), "stopband": (4.0, 6.0)}, "share points"),
    ({"passband": (3.0, 5.0), "stopband": (5.0, 6.0)}, "share points"),
    ({"passband": (-6.0, -3.0), "stopband": (-5.0, -4.0)}, "share points"),
])
def test_objective_rejects_bad_settings(kwargs, field):
    with pytest.raises(ConfigurationError, match=field):
        Objective("notch_depth", **kwargs)


def test_optimize_rejects_budget_below_one_simplex_per_restart():
    graph = build_deinterleaver(DeinterleaverSpec())    # 9 heaters
    objective = Objective("deinterleaver_extinction")
    for max_evals, restarts in ((100, 50), (5, 1)):
        with pytest.raises(ConfigurationError,
                           match=f"at least 20, so max_evals >= {20 * restarts}"):
            optimize(graph, objective, OptimizerConfig(max_evals, restarts))


@pytest.mark.parametrize("kwargs, field", [
    ({"max_evals": 100.5}, "max_evals"),
    ({"max_evals": 100.0}, "max_evals"),
    ({"restarts": 2.5}, "restarts"),
])
def test_optimizer_config_rejects_non_integer_budgets(kwargs, field):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3"])
def test_optimizer_config_rejects_bad_seed(seed):
    with pytest.raises(ConfigurationError,
                       match="seed must be a non-negative integer"):
        OptimizerConfig(seed=seed)


@pytest.mark.parametrize("max_evals, restarts", [(20, 1), (45, 2), (70, 3)])
def test_optimize_stays_within_max_evals(max_evals, restarts):
    result = optimize(build_deinterleaver(DeinterleaverSpec()),
                      Objective("deinterleaver_extinction"),
                      OptimizerConfig(max_evals, restarts))
    assert result.evaluations <= max_evals
    assert all(t.evaluations <= max_evals // restarts
               for t in result.restarts)


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


def test_optimize_rejects_repeated_heater_names():
    with pytest.raises(ConfigurationError, match="more than once"):
        optimize(build_deinterleaver(DeinterleaverSpec()),
                 Objective("deinterleaver_extinction"),
                 OptimizerConfig(max_evals=50, restarts=1),
                 heater_names=["ps_trim.phase", "ps_trim.phase"])


def test_optimize_requires_heaters():
    wg = BlockInstance("c", "coupler_3db", None)
    g = CircuitGraph((wg,), (), {"in": Port("c", "in0")},
                     {"a": Port("c", "out0"), "b": Port("c", "out1")})
    with pytest.raises(ConfigurationError):
        optimize(g, quadratic_objective(1.0))


def test_optimize_all_nan_objective_raises_analysis_error():
    nan = ScalarObjective(lambda graph, heaters: math.nan)
    with pytest.raises(AnalysisError, match="NaN"):
        optimize(single_heater_graph(), nan,
                 OptimizerConfig(max_evals=50, restarts=1))


def test_optimize_nan_vertex_is_never_best():
    # NaN above 0.5 rad: the start scores -0.09 and the +0.7 rad vertex NaN
    def fn(graph, heaters):
        x = heaters["ps_trim.phase"]
        return -(x - 0.3) ** 2 if x <= 0.5 else math.nan
    result = optimize(build_deinterleaver(DeinterleaverSpec()),
                      ScalarObjective(fn),
                      OptimizerConfig(max_evals=200, restarts=1))
    assert -0.09 < result.best_value <= 0.0
    assert result.best["ps_trim.phase"] == pytest.approx(0.3, abs=1e-3)


def test_bound_notch_depth_runs_no_ring_kernel_per_evaluation(monkeypatch):
    calls = count_ring_kernels(monkeypatch)
    s = synthesize_cancellation_settings(7.0)
    graph = _notch_shaper(10.0, 7.0, s.coupler_phase_rad, s.shifter_phase_rad)
    notch = Objective("notch_depth", rf_freq_ghz=10.0).build(graph)
    rng = np.random.default_rng(0)
    values = []
    for ps, tc in rng.uniform(0.0, 2 * math.pi, size=(100, 2)):
        values.append(notch({"ps_bar.phase": ps, "tc_bar.phase": tc}))
        if len(values) == 1:
            at_bind = len(calls)
    assert at_bind == 5                 # three de-interleaver rings, ap, ad
    assert len(calls) == at_bind
    assert np.all(np.isfinite(values))


def test_notch_depth_alternating_heater_sets_binds_once(monkeypatch):
    calls = count_ring_kernels(monkeypatch)
    s = synthesize_cancellation_settings(7.0)
    graph = _notch_shaper(10.0, 7.0, s.coupler_phase_rad, s.shifter_phase_rad)
    notch = Objective("notch_depth", rf_freq_ghz=10.0).build(graph)
    assert len(calls) == 5              # the five rings, once, at bind
    rng = np.random.default_rng(0)
    for i, phase in enumerate(rng.uniform(0.0, 2 * math.pi, size=40)):
        notch({("ps_bar.phase", "tc_bar.phase")[i % 2]: phase})
    assert len(calls) == 5


def test_bound_conversion_extinction_reads_tones_only(monkeypatch):
    calls = count_ring_kernels(monkeypatch)
    responses = []
    post_init = rflink.RfResponse.__post_init__

    def counted(self):
        responses.append(self)
        post_init(self)
    monkeypatch.setattr(rflink.RfResponse, "__post_init__", counted)
    extinction = Objective("conversion_extinction").build(build_shaper())
    rng = np.random.default_rng(0)
    values = []
    for ps, tc in rng.uniform(0.0, 2 * math.pi, size=(50, 2)):
        values.append(extinction({"ps_bar.phase": ps, "tc_bar.phase": tc}))
        if len(values) == 1:
            at_bind = len(calls)
    assert at_bind == 5                 # three de-interleaver rings, ap, ad
    assert len(calls) == at_bind
    assert responses == []
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("tunes_flip_heater", [True, False])
def test_conversion_extinction_equals_its_base_and_flipped_calls(
        tunes_flip_heater):
    # the graph's own shifter phase lies outside [0, 2*pi): a base call
    # that leaves the shifter alone must not wrap it
    graph = build_shaper(ShaperConfig(bar_phase_rad=7.0))
    objective = Objective("conversion_extinction",
                          fmt=rflink.ModulationFormat("PM", 0.2))
    extinction = objective.build(graph)
    tones = rflink.bind_tones(
        rflink.LinkConfig(objective.fmt, graph),
        FrequencyGrid.sweep(*objective.band, RF_STEP_GHZ).offsets_ghz)
    beat = rflink.detector(objective.fmt)
    ref = rflink.back_to_back_reference(objective.fmt)

    def mag_db(heaters):
        return rflink.magnitude_db(beat(*tones(heaters)), ref)
    own = graph.heater_values()[FLIP_HEATER]
    rng = np.random.default_rng(1)
    for ps, tc in rng.uniform(0.0, 2 * math.pi, size=(20, 2)):
        heaters = {"tc_bar.phase": tc}
        if tunes_flip_heater:
            heaters[FLIP_HEATER] = ps
        flipped = {**heaters,
                   FLIP_HEATER: heaters.get(FLIP_HEATER, own) + math.pi}
        want = float(np.min(mag_db(heaters) - mag_db(flipped)))
        assert extinction(heaters) == want


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
        bar = h_tunable_coupler(phi)[0][0] * np.exp(1j * comp)
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
    # applying shifter + coupler rotates the bar field by exactly pi
    bar = h_tunable_coupler(s.coupler_phase_rad)[0][0] * \
        h_phase_shifter(s.shifter_phase_rad)
    assert abs(bar) == pytest.approx(s.attenuation_amplitude, abs=1e-12)
    assert abs(abs(math.atan2(bar.imag, bar.real)) - math.pi) < 1e-12


def test_cancellation_settings_zero_db_is_pure_antiphase():
    s = synthesize_cancellation_settings(0.0)
    assert s.attenuation_amplitude == pytest.approx(1.0)
    bar = h_tunable_coupler(s.coupler_phase_rad)[0][0] * \
        h_phase_shifter(s.shifter_phase_rad)
    assert bar == pytest.approx(-1.0 + 0.0j, abs=1e-12)
