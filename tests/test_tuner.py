import inspect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfshaper import blocks, circuit, kernels, metrics, rflink, tuner
from rfshaper.blocks import (FrequencyGrid, PhaseShifterState, RingParams,
                             critical_coupling_kappa)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port
from rfshaper.errors import AnalysisError, ConfigurationError, DomainError
from rfshaper.experiments import _notch_shaper
from rfshaper.kernels import h_phase_shifter, h_tunable_coupler
from rfshaper.topologies import (DeinterleaverSpec, FITTED_RING_AMPLITUDE,
                                 ShaperConfig, build_deinterleaver,
                                 build_shaper)
from rfshaper.tuner import (CONVERGENCE_WINDOW, FLIP_HEATER, OBJECTIVE_KINDS,
                            RF_STEP_GHZ, Objective, OptimizerConfig,
                            RestartTrace, TuningResult, _nelder_mead_max,
                            compensate_coupler_phase, optimize,
                            synthesize_cancellation_settings)

TWO_PI = 2 * math.pi


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


def test_optimize_rejects_a_bare_string_of_heater_names():
    # a str is a sequence of characters, which would name heaters 'p', 's'...
    with pytest.raises(ConfigurationError, match=r"^heater_names takes a "
                       r"sequence of heater names, got a str: 'ps\.phase'$"):
        optimize(single_heater_graph(), quadratic_objective(1.0),
                 OptimizerConfig(max_evals=50, restarts=1),
                 heater_names="ps.phase")


@pytest.mark.parametrize("call, error, message", [
    (lambda: Objective("nope"), ConfigurationError,
     "unknown objective kind 'nope'"),
    (lambda: synthesize_cancellation_settings(-1.0), DomainError,
     "optical notch depth must be >= 0 dB"),
], ids=["unknown_objective", "negative_notch_depth"])
def test_tuner_inputs_out_of_range_are_named(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


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


def test_bound_deinterleaver_extinction_builds_no_band_mask_per_call(
        monkeypatch):
    calls = []
    real = metrics.band_mask

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (metrics, tuner):
        if vars(module).get("band_mask") is real:
            monkeypatch.setattr(module, "band_mask", counted)
    graph = build_deinterleaver(DeinterleaverSpec())
    extinction = Objective("deinterleaver_extinction").build(graph)
    at_build = len(calls)
    heaters = graph.heater_values()
    rng = np.random.default_rng(0)
    assert isinstance(extinction(heaters), float)
    for k in (1, 8):
        values = extinction({n: rng.uniform(0.0, 2 * math.pi, k)
                             for n in heaters})
        assert values.shape == (k,)
    assert len(calls) == at_build


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


# --- lockstep restarts ------------------------------------------------------

def ring_graph():
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, 0.5,
                                    round_trip_amplitude=FITTED_RING_AMPLITUDE))
    return CircuitGraph((ring,), (), {"in": Port("r", "in")},
                        {"out": Port("r", "out")})


def notch_graph():
    s = synthesize_cancellation_settings(7.0)
    return _notch_shaper(10.0, 7.0, s.coupler_phase_rad, s.shifter_phase_rad)


#: (graph builder, objective, heater names or None for all) by label, for
#: each objective kind; the shaper's own shifter phase lies outside
#: [0, 2*pi)
KIND_CASES = {
    "deinterleaver_extinction": (
        lambda: build_deinterleaver(DeinterleaverSpec()),
        Objective("deinterleaver_extinction"), None),
    "critical_coupling": (ring_graph, Objective("critical_coupling",
                                                port="out"), None),
    "notch_depth": (notch_graph, Objective("notch_depth", rf_freq_ghz=10.0),
                    ["ps_bar.phase", "tc_bar.phase"]),
    "conversion_extinction": (
        lambda: build_shaper(ShaperConfig(bar_phase_rad=7.0)),
        Objective("conversion_extinction"), ["ps_bar.phase", "tc_bar.phase"]),
    "conversion_extinction, shifter untuned": (
        lambda: build_shaper(ShaperConfig(bar_phase_rad=7.0)),
        Objective("conversion_extinction"), ["tc_bar.phase"]),
}


def same_value(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def sequential_optimize(graph, objective, config, heater_names=None):
    """``optimize`` as one loop: each restart runs to its end before the
    next begins, with one float call per candidate."""
    names = sorted(heater_names if heater_names is not None
                   else graph.heater_names())
    budget = config.max_evals // config.restarts
    bound = objective.build(graph)
    current = graph.heater_values()
    rng = np.random.default_rng(config.seed)
    starts = [np.array([current[n] for n in names])] + [
        rng.uniform(0.0, TWO_PI, size=len(names))
        for _ in range(config.restarts - 1)]
    traces, best_x, best_v = [], None, -math.inf
    for x0 in starts:
        run = _nelder_mead_max(np.asarray(x0, dtype=float), 0.7, budget)
        x = next(run)
        while True:
            try:
                x = run.send(bound({n: float(v) % TWO_PI
                                    for n, v in zip(names, x)}))
            except StopIteration as stop:
                bx, bv, ev, conv = stop.value
                break
        traces.append(RestartTrace(
            {n: float(v) % TWO_PI for n, v in zip(names, x0)}, bv, ev, conv))
        if bv > best_v:
            best_x, best_v = bx, bv
    if best_x is None:
        raise AnalysisError("objective gave no comparable value")
    return TuningResult({n: float(v) % TWO_PI for n, v in zip(names, best_x)},
                        best_v, sum(t.evaluations for t in traces),
                        all(t.converged for t in traces), tuple(traces))


def outcome(run, *args, **kwargs):
    """A run's result as its ``repr``, or its error's type and message."""
    try:
        return repr(run(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def _yield_steps() -> dict[int, str]:
    source, first = inspect.getsourcelines(_nelder_mead_max)
    return {first + i: step for i, line in enumerate(source)
            for step in ("p", "reflect", "expand", "contract", "simplex[i]")
            if f"(yield {step})" in line}


def one_restart(bound, names, x0, budget):
    """One restart run alone with float calls: the Nelder-Mead step of
    each candidate it yields (by the source line of the yield it is
    suspended at), and the ``DomainError`` that ends it, if one does."""
    lines = _yield_steps()
    run = _nelder_mead_max(np.asarray(x0, dtype=float), 0.7, budget)
    steps, x = [], next(run)
    while True:
        steps.append(lines[run.gi_frame.f_lineno])
        try:
            value = bound({n: float(v) % TWO_PI for n, v in zip(names, x)})
        except DomainError as exc:
            return steps, exc
        try:
            x = run.send(value)
        except StopIteration:
            return steps, None


@pytest.mark.parametrize("label", sorted(KIND_CASES))
def test_bound_objective_rows_equal_their_float_calls(label):
    make_graph, objective, names = KIND_CASES[label]
    graph = make_graph()
    names = names or sorted(graph.heater_names())
    bound = objective.build(graph)
    rng = np.random.default_rng(len(label))
    for k in range(2, 9):
        # settings outside [0, 2*pi) too: the bound function takes them raw
        xs = rng.uniform(-10.0, 20.0, size=(k, len(names)))
        values = bound({n: xs[:, i] for i, n in enumerate(names)})
        assert values.shape == (k,)
        for x, v in zip(xs, values):
            want = bound({n: float(p) for n, p in zip(names, x)})
            assert isinstance(want, float)
            assert same_value(float(v), want), (label, k, x)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_lockstep_optimize_equals_restarts_run_one_after_another(data):
    label = data.draw(st.sampled_from(sorted(KIND_CASES)), label="kind")
    make_graph, objective, names = KIND_CASES[label]
    graph = make_graph()
    n = len(names or graph.heater_names())
    restarts = data.draw(st.integers(1, 8), label="restarts")
    # any budget from one simplex up: runs end mid-shrink, mid-expand or
    # on convergence
    budget = data.draw(st.integers(2 * n + 2, 2 * n + 62), label="budget")
    max_evals = restarts * budget + data.draw(st.integers(0, restarts - 1))
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    # fewer live restarts than restarts: the rest start as live ones end
    max_live = data.draw(st.integers(1, 9), label="max_live")
    config = OptimizerConfig(max_evals, restarts, seed)
    want = outcome(sequential_optimize, graph, objective, config, names)
    with mock.patch.object(tuner, "MAX_LIVE_RESTARTS", max_live):
        assert outcome(optimize, graph, objective, config, names) == want


@pytest.mark.parametrize("label", ["deinterleaver_extinction", "notch_depth"])
def test_lockstep_optimize_equals_sequential_when_budgets_cut_a_step(label):
    # budgets chosen so that restart 0 stops before an expansion (its
    # reflection was the last candidate) or inside a shrink
    make_graph, objective, names = KIND_CASES[label]
    graph = make_graph()
    names = names or sorted(graph.heater_names())
    start = [graph.heater_values()[n] for n in names]
    steps, _ = one_restart(objective.build(graph), names, start, 600)
    shrink = "simplex[i]"
    cut_expand = [b for b in range(2 * len(names) + 2, len(steps))
                  if steps[b] == "expand"][:2]
    cut_shrink = [b for b in range(2 * len(names) + 2, len(steps))
                  if steps[b - 1] == shrink and steps[b] == shrink][:2]
    assert cut_expand and cut_shrink
    for budget in cut_expand + cut_shrink:
        config = OptimizerConfig(3 * budget, 3, seed=budget)
        want = sequential_optimize(graph, objective, config, names)
        assert want.restarts[0].evaluations == budget
        assert repr(optimize(graph, objective, config, names)) == repr(want)


def guarded_objective(center: float, lo: float, hi: float) -> ScalarObjective:
    """A quadratic bowl that raises for wrapped phases in [lo, hi]; with
    arrays, for the first such row, as a batched bound call would."""
    def fn(graph, heaters):
        phi = np.atleast_1d(heaters["ps.phase"])
        bad = phi[(lo <= phi) & (phi <= hi)]
        if bad.size:
            raise DomainError(f"phase {float(bad[0])!r} is forbidden")
        d = (phi - center + math.pi) % TWO_PI - math.pi
        value = -d * d
        if isinstance(heaters["ps.phase"], np.ndarray):
            return value
        return float(value[0])
    return ScalarObjective(fn)


@pytest.mark.parametrize("seed, lo, hi", [
    # a later restart fails in an earlier round than the first to fail
    (12, 1.0, 1.3), (7, 4.0, 4.3), (17, 1.0, 1.3),
    # a later restart fails in a later round
    (10, 1.0, 1.3), (16, 4.0, 4.3)])
@pytest.mark.parametrize("max_live", [6, 2])
def test_lockstep_raises_the_error_sequential_restarts_raise(
        monkeypatch, seed, lo, hi, max_live):
    # with two live, later restarts start after the first has failed
    # unless none may start once one has
    monkeypatch.setattr(tuner, "MAX_LIVE_RESTARTS", max_live)
    graph = single_heater_graph()
    objective = guarded_objective(3.0, lo, hi)
    config = OptimizerConfig(360, 6, seed)
    rng = np.random.default_rng(seed)
    starts = [np.array([0.0])] + [rng.uniform(0.0, TWO_PI, size=1)
                                  for _ in range(5)]
    bound = objective.build(graph)
    failed_at = {}          # restart -> its evaluations, the failing one too
    for i, x0 in enumerate(starts):
        steps, error = one_restart(bound, ["ps.phase"], x0, 60)
        if error is not None:
            failed_at[i] = len(steps)
    # the sequential loop raises the error of the lowest-numbered restart
    # to fail; lockstep must run the restarts before it to their end and
    # stop every later one, which also fails
    first = min(failed_at)
    assert first > 0 and len(failed_at) > 1
    want = outcome(sequential_optimize, graph, objective, config)
    assert want[0] is DomainError
    assert outcome(optimize, graph, objective, config) == want


@pytest.mark.parametrize("label, points, rows", [
    # 194 offsets: -27..-3 and 3..27 GHz every 0.25 GHz
    ("deinterleaver_extinction", 194, 3),
    # 43 tone offsets (21 RF frequencies), a base and a flipped row each
    ("conversion_extinction", 2 * 43, 2),
    ("notch_depth", 3, 1),
])
def test_lockstep_calls_hold_at_most_max_grid_points(monkeypatch, label,
                                                     points, rows):
    make_graph, objective, names = KIND_CASES[label]
    graph = make_graph()
    config = OptimizerConfig(7 * 40, 7, seed=3)
    want = sequential_optimize(graph, objective, config, names)
    monkeypatch.setattr(blocks, "MAX_GRID_POINTS", rows * points + points - 1)
    sizes = []

    def counting_pass(graph, grid, plan, fields, heaters):
        sizes.append(max((v.size * grid.offsets_ghz.size
                          for v in heaters.values()
                          if isinstance(v, np.ndarray)), default=0))
        return run_pass(graph, grid, plan, fields, heaters)
    run_pass = circuit._pass
    monkeypatch.setattr(circuit, "_pass", counting_pass)
    assert repr(optimize(graph, objective, config, names)) == repr(want)
    assert max(sizes) == rows * points


@pytest.mark.parametrize("seed, evaluations, passes", [(7, 1775, 389),
                                                       (0, 2687, 1250)])
def test_optimize_makes_one_pass_per_round(monkeypatch, seed, evaluations,
                                           passes):
    # one pass per evaluation if the restarts ran one after another
    batches = []

    def counting_pass(graph, grid, plan, fields, heaters):
        sizes = {v.size if isinstance(v, np.ndarray) else None
                 for v in heaters.values()}
        assert len(sizes) == 1          # all floats, or arrays of one size
        batches.append(sizes.pop())
        return run_pass(graph, grid, plan, fields, heaters)
    run_pass = circuit._pass
    monkeypatch.setattr(circuit, "_pass", counting_pass)
    result = optimize(build_deinterleaver(DeinterleaverSpec()),
                      Objective("deinterleaver_extinction"),
                      OptimizerConfig(seed=seed))
    assert result.evaluations == evaluations
    assert len(batches) == passes
    # fewer restarts than MAX_LIVE_RESTARTS: they only leave the live set;
    # a round with one live restart passes floats, never an array of one
    # setting
    live = [1 if k is None else k for k in batches]
    assert 1 not in batches
    assert live == sorted(live, reverse=True)
    assert sum(live) == evaluations


def test_optimize_checks_the_budget_before_it_binds_or_draws():
    class Unbound:
        def build(self, graph):
            raise AssertionError("bound before the budget check")
    graph = build_deinterleaver(DeinterleaverSpec())
    config = OptimizerConfig(max_evals=1000, restarts=10 ** 5)
    with pytest.raises(ConfigurationError, match="leaves 0 evaluations"):
        optimize(graph, Unbound(), config)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="leaves 0 evaluations"):
            optimize(graph, Objective("deinterleaver_extinction"), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def shifter_chain(n: int) -> CircuitGraph:
    shifters = tuple(BlockInstance(f"ps{i}", "phase_shifter",
                                   PhaseShifterState(0.0)) for i in range(n))
    return CircuitGraph(
        shifters,
        tuple((Port(f"ps{i}", "out"), Port(f"ps{i + 1}", "in"))
              for i in range(n - 1)),
        {"in": Port("ps0", "in")}, {"out": Port(f"ps{n - 1}", "out")})


def test_optimize_holds_at_most_max_live_restarts_simplices():
    # 400 restarts of 10 heaters: all live at once, their simplices take
    # about 3 MB at the peak; 64 at a time, about 1.2 MB with the traces
    def fn(graph, heaters):
        return -sum(((v - 1.0 + math.pi) % TWO_PI - math.pi) ** 2
                    for v in heaters.values())
    config = OptimizerConfig(22 * 400, 400, seed=1)
    tracemalloc.start()
    try:
        result = optimize(shifter_chain(10), ScalarObjective(fn), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.evaluations == 22 * 400
    assert peak < 2 * 2 ** 20


def test_restart_keeps_only_the_convergence_window_of_its_history():
    run = _nelder_mead_max(np.array([0.0, 0.0]), 0.7, 5000)
    x, longest, evals = next(run), 0, 0
    while True:
        longest = max(longest, len(run.gi_frame.f_locals["history"]))
        try:
            x = run.send(-float(np.sum((x - 1.0) ** 2)))
        except StopIteration as stop:
            evals = stop.value[2]
            break
    assert evals > CONVERGENCE_WINDOW + 1
    assert longest == CONVERGENCE_WINDOW + 1
