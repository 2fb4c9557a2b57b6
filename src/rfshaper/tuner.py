"""Derivative-free tuning of heater phases against named objectives.

The optimizer is a seeded multi-start Nelder-Mead working in unwrapped
phase coordinates; phases are wrapped to [0, 2*pi) only when a candidate
is evaluated, so the simplex never fights the 0/2*pi seam.  Runs are
bit-reproducible for a fixed seed and never report a value worse than
the best evaluated point.  Restarts are independent (objective
evaluations are pure over a read-only graph template), so they could be
farmed out concurrently without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .blocks import FrequencyGrid, h_tunable_coupler
from .circuit import CircuitGraph, evaluate
from .errors import AnalysisError, ConfigurationError, DomainError
from .metrics import extinction_db
from .rflink import LinkConfig, ModulationFormat, rf_transmission_sweep

_TWO_PI = 2.0 * math.pi

#: A restart has converged once its best value rose by less than
#: CONVERGENCE_TOL over the last CONVERGENCE_WINDOW evaluations.
CONVERGENCE_TOL, CONVERGENCE_WINDOW = 1e-6, 50
GRID_STEP_GHZ = 0.25              # deinterleaver_extinction offset grid
RF_STEP_GHZ = 0.5                 # conversion_extinction RF sweep
FLIP_HEATER = "ps_bar.phase"      # conversion_extinction advances it by pi


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int = 10000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_evals < 1 or self.restarts < 1:
            raise ConfigurationError("optimizer budgets must be positive")


@dataclass(frozen=True)
class RestartTrace:
    start: dict[str, float]
    best_value: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class TuningResult:
    best: dict[str, float]
    best_value: float
    evaluations: int
    converged: bool
    restarts: tuple[RestartTrace, ...]


@dataclass(frozen=True)
class Objective:
    """A scalar to maximize over heater settings.

    Kinds:

    * ``deinterleaver_extinction`` -- worst-case pass/stop ratio of
      ``port`` between ``passband`` and ``stopband`` (dB).
    * ``notch_depth`` -- negated RF magnitude (dB) at ``rf_freq_ghz`` of
      the link detected at ``port``; maximizing it deepens the notch.
    * ``conversion_extinction`` -- smallest over ``band`` of the RF
      magnitude change (dB) when ``FLIP_HEATER`` is advanced by pi.
    * ``critical_coupling`` -- negated optical power (dB) of ``port`` at
      ``offset_ghz``; maximal at critical coupling.
    * ``custom_scalar`` -- ``custom_fn(graph, heaters) -> float``.

    ``port`` defaults to ``detector`` for the two RF kinds, else ``bar``.
    """

    kind: str
    port: str | None = None
    passband: tuple[float, float] = (3.0, 27.0)
    stopband: tuple[float, float] = (-27.0, -3.0)
    rf_freq_ghz: float = 10.0
    band: tuple[float, float] = (15.0, 25.0)
    fmt: ModulationFormat = field(default_factory=ModulationFormat)
    offset_ghz: float = 0.0
    input_name: str | None = None
    custom_fn: Callable[[CircuitGraph, Mapping[str, float]], float] | None = None

    def __post_init__(self):
        kinds = ("deinterleaver_extinction", "notch_depth",
                 "conversion_extinction", "critical_coupling", "custom_scalar")
        if self.kind not in kinds:
            raise ConfigurationError(f"unknown objective kind {self.kind!r}")
        if self.kind == "custom_scalar" and self.custom_fn is None:
            raise ConfigurationError("custom_scalar needs custom_fn")
        if self.port is None:
            rf = self.kind in ("notch_depth", "conversion_extinction")
            object.__setattr__(self, "port", "detector" if rf else "bar")

    def build(self, graph: CircuitGraph) -> Callable[[Mapping[str, float]], float]:
        """Bind this objective to a graph template."""
        if self.kind == "deinterleaver_extinction":
            offs = np.unique(np.concatenate([
                np.arange(self.stopband[0], self.stopband[1] + 1e-12,
                          GRID_STEP_GHZ),
                np.arange(self.passband[0], self.passband[1] + 1e-12,
                          GRID_STEP_GHZ)]))
            grid = FrequencyGrid(193.4, offs)

            def fn(heaters: Mapping[str, float]) -> float:
                resp = evaluate(graph, grid, input_name=self.input_name,
                                heaters=heaters)
                return extinction_db(offs, resp.power(self.port),
                                     self.passband, self.stopband)
            return fn

        if self.kind == "notch_depth":
            link = LinkConfig(self.fmt, graph, self.port, self.input_name)
            f0 = self.rf_freq_ghz

            def fn(heaters: Mapping[str, float]) -> float:
                r = rf_transmission_sweep(link, f0, f0 + 1.0, 1.0,
                                          heaters=heaters)
                return -float(r.mag_db[0])
            return fn

        if self.kind == "conversion_extinction":
            link = LinkConfig(self.fmt, graph, self.port, self.input_name)
            lo, hi = self.band
            flip_base = graph.heater_values().get(FLIP_HEATER, 0.0)

            def fn(heaters: Mapping[str, float]) -> float:
                h = dict(heaters)
                base = rf_transmission_sweep(link, lo, hi, RF_STEP_GHZ,
                                             heaters=h)
                h[FLIP_HEATER] = h.get(FLIP_HEATER, flip_base) + math.pi
                flipped = rf_transmission_sweep(link, lo, hi, RF_STEP_GHZ,
                                                heaters=h)
                return float(np.min(base.mag_db - flipped.mag_db))
            return fn

        if self.kind == "critical_coupling":
            grid = FrequencyGrid(193.4, np.array([self.offset_ghz]))

            def fn(heaters: Mapping[str, float]) -> float:
                resp = evaluate(graph, grid, input_name=self.input_name,
                                heaters=heaters)
                p = float(resp.power(self.port)[0])
                return -10.0 * math.log10(max(p, 1e-300))
            return fn

        custom = self.custom_fn

        def fn(heaters: Mapping[str, float]) -> float:
            return custom(graph, heaters)
        return fn


def _nelder_mead_max(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                     scale: float, max_evals: int
                     ) -> tuple[np.ndarray, float, int, bool]:
    """Maximize fn; returns (best_x, best_f, evals, converged)."""
    n = x0.size
    evals = 0
    history: list[float] = []

    def f(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        v = fn(x)
        best = history[-1] if history else -math.inf
        history.append(max(best, v))
        return v

    simplex = [x0.copy()]
    for i in range(n):
        p = x0.copy()
        p[i] += scale
        simplex.append(p)
    values = [f(p) for p in simplex]

    def converged_now() -> bool:
        if len(history) < CONVERGENCE_WINDOW + 1:
            return False
        return history[-1] - history[-1 - CONVERGENCE_WINDOW] < CONVERGENCE_TOL

    converged = False
    while evals < max_evals:
        order = np.argsort(values)[::-1]          # descending: best first
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if converged_now():
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflect = centroid + (centroid - worst)
        fr = f(reflect)
        if fr > values[0]:
            expand = centroid + 2.0 * (centroid - worst)
            fe = f(expand) if evals < max_evals else -math.inf
            if fe > fr:
                simplex[-1], values[-1] = expand, fe
            else:
                simplex[-1], values[-1] = reflect, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = reflect, fr
        else:
            contract = centroid + 0.5 * (worst - centroid)
            fc = f(contract) if evals < max_evals else -math.inf
            if fc > values[-1]:
                simplex[-1], values[-1] = contract, fc
            else:
                for i in range(1, n + 1):        # shrink toward the best
                    if evals >= max_evals:
                        break
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    i_best = int(np.argmax(values))
    return simplex[i_best], values[i_best], evals, converged


def optimize(graph_template: CircuitGraph, objective: Objective,
             config: OptimizerConfig = OptimizerConfig(),
             heater_names: Sequence[str] | None = None) -> TuningResult:
    """Multi-start maximization of the objective over heater phases.

    Restart 0 begins at the template's current heater values; the others
    are sampled uniformly over wrapped phases from the seeded generator.
    Results are invariant to heater name ordering and bit-reproducible
    for a fixed seed.
    """
    names = sorted(heater_names if heater_names is not None
                   else graph_template.heater_names())
    if not names:
        raise ConfigurationError("no heaters exposed for tuning")
    unknown = set(names) - set(graph_template.heater_names())
    if unknown:
        raise ConfigurationError(f"unknown heaters: {sorted(unknown)}")

    scalar = objective.build(graph_template)

    def fn(x: np.ndarray) -> float:
        settings = {n: float(v) % _TWO_PI for n, v in zip(names, x)}
        return scalar(settings)

    current = graph_template.heater_values()
    start_list: list[np.ndarray] = [np.array([current[n] for n in names])]
    rng = np.random.default_rng(config.seed)
    while len(start_list) < config.restarts:
        start_list.append(rng.uniform(0.0, _TWO_PI, size=len(names)))

    budget = max(config.max_evals // config.restarts, 2 * len(names) + 2)
    traces: list[RestartTrace] = []
    best_x, best_v = None, -math.inf
    total = 0
    all_converged = True
    for x0 in start_list:
        bx, bv, ev, conv = _nelder_mead_max(
            fn, np.asarray(x0, dtype=float), 0.7, budget)
        total += ev
        all_converged = all_converged and conv
        traces.append(RestartTrace(
            {n: float(v) % _TWO_PI for n, v in zip(names, x0)}, bv, ev, conv))
        if bv > best_v:
            best_x, best_v = bx, bv
    if best_x is None:
        raise AnalysisError(
            f"objective gave no comparable value in {total} evaluations "
            "(every value was NaN or -inf)")
    best = {n: float(v) % _TWO_PI for n, v in zip(names, best_x)}
    return TuningResult(best, best_v, total, all_converged, tuple(traces))


def compensate_coupler_phase(target_bar_power: float) -> tuple[float, float]:
    """Coupler phase for a bar-power target plus the phase that undoes the
    coupler's parasitic rotation.

    The bar amplitude of the balanced-MZI coupler is
    ``sin(phi/2) * exp(1j*(pi/2 - phi/2))``, so the coupler phase is
    ``2*asin(sqrt(target))`` and the compensating field rotation is
    ``phi/2 - pi/2``; applying ``exp(1j*compensation)`` after the coupler
    leaves a real, non-rotating amplitude of the requested power.
    """
    if not (0.0 <= target_bar_power <= 1.0):
        raise DomainError("target bar power must be in [0, 1]")
    if target_bar_power == 0.0:
        return 0.0, 0.0
    phi = 2.0 * math.asin(math.sqrt(target_bar_power))
    bar = h_tunable_coupler(phi).m00
    compensation = -math.atan2(bar.imag, bar.real)
    return phi, compensation


@dataclass(frozen=True)
class CancellationSettings:
    """Bar-path settings that anti-phase the isolated sideband."""

    attenuation_amplitude: float
    coupler_phase_rad: float
    shifter_phase_rad: float
    net_phase_rad: float = math.pi


def synthesize_cancellation_settings(optical_notch_depth_db: float
                                     ) -> CancellationSettings:
    """Bar-path attenuation and phase for a cancellation notch.

    The isolated sideband is attenuated to match the other sideband at
    the bottom of an optical notch of the given depth and rotated to sit
    exactly anti-phase with it.  The shifter phase includes the coupler's
    parasitic-rotation compensation.
    """
    if optical_notch_depth_db < 0:
        raise DomainError("optical notch depth must be >= 0 dB")
    amplitude = 10.0 ** (-optical_notch_depth_db / 20.0)
    phi, compensation = compensate_coupler_phase(amplitude ** 2)
    # phase shifter multiplies by exp(-1j*phase): total bar-path rotation
    # of pi needs phase = -(compensation) - pi.
    shifter = (-compensation - math.pi) % _TWO_PI
    return CancellationSettings(amplitude, phi, shifter)
