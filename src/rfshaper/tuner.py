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
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .blocks import FrequencyGrid, h_tunable_coupler
from .circuit import CircuitGraph, bind
from .constants import DEFAULT_CARRIER_THZ
from .errors import AnalysisError, ConfigurationError, DomainError
from .metrics import extinction_db
from .rflink import (LinkConfig, ModulationFormat, back_to_back_reference,
                     bind_tones, detector, magnitude_db)

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
        for name in ("max_evals", "restarts"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {v!r}")
        if self.max_evals < 1 or self.restarts < 1:
            raise ConfigurationError("optimizer budgets must be positive")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}")


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


#: Each objective kind and the output port it reads by default.
OBJECTIVE_KINDS = {
    "deinterleaver_extinction": "bar",
    "notch_depth": "detector",
    "conversion_extinction": "detector",
    "critical_coupling": "bar",
}


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

    ``port`` defaults to the kind's entry in ``OBJECTIVE_KINDS``.
    """

    kind: str
    port: str | None = None
    passband: tuple[float, float] = (3.0, 27.0)
    stopband: tuple[float, float] = (-27.0, -3.0)
    rf_freq_ghz: float = 10.0
    band: tuple[float, float] = (15.0, 25.0)
    fmt: ModulationFormat = field(default_factory=ModulationFormat)
    offset_ghz: float = 0.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigurationError(f"unknown objective kind {self.kind!r}")
        if not (math.isfinite(self.rf_freq_ghz) and self.rf_freq_ghz > 0):
            raise ConfigurationError(
                f"rf_freq_ghz must be finite and > 0, got {self.rf_freq_ghz}")
        if not math.isfinite(self.offset_ghz):
            raise ConfigurationError(
                f"offset_ghz must be finite, got {self.offset_ghz}")
        for name in ("passband", "stopband", "band"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ConfigurationError(
                    f"{name} must be finite with hi > lo, got ({lo}, {hi})")
        (p_lo, p_hi), (s_lo, s_hi) = self.passband, self.stopband
        if p_lo <= s_hi and s_lo <= p_hi:
            raise ConfigurationError(
                f"passband {self.passband} and stopband {self.stopband} "
                "share points; they must not overlap")
        if not self.band[0] > 0:
            raise ConfigurationError(
                f"band must lie above 0 GHz, got {self.band}")
        if self.port is None:
            object.__setattr__(self, "port", OBJECTIVE_KINDS[self.kind])

    def build(self, graph: CircuitGraph) -> Callable[[Mapping[str, float]], float]:
        """Bind this objective to a graph template.

        The optical kinds read the port's power from
        :func:`rfshaper.circuit.bind`, the RF kinds the detected RF
        magnitude from :func:`rfshaper.rflink.bind_tones`; either binds
        the circuit once, and the bound function reduces what it reads
        to the objective's value.
        """
        port = self.port
        if self.kind == "deinterleaver_extinction":
            offs = np.unique(np.concatenate([
                FrequencyGrid.sweep(*band, GRID_STEP_GHZ).offsets_ghz
                for band in (self.stopband, self.passband)]))
            evaluate_at = bind(graph, FrequencyGrid(DEFAULT_CARRIER_THZ, offs))

            def fn(heaters: Mapping[str, float]) -> float:
                return extinction_db(offs, evaluate_at(heaters).power(port),
                                     self.passband, self.stopband)
            return fn

        if self.kind == "critical_coupling":
            evaluate_at = bind(graph, FrequencyGrid(
                DEFAULT_CARRIER_THZ, np.array([self.offset_ghz])))

            def fn(heaters: Mapping[str, float]) -> float:
                p = float(evaluate_at(heaters).power(port)[0])
                return -10.0 * math.log10(max(p, 1e-300))
            return fn

        if self.kind == "notch_depth":
            fs = np.array([float(self.rf_freq_ghz)])
        else:
            flip_base = graph.heater_values().get(FLIP_HEATER)
            if flip_base is None:
                raise ConfigurationError(f"unknown heaters: {[FLIP_HEATER]}")
            fs = FrequencyGrid.sweep(*self.band, RF_STEP_GHZ).offsets_ghz
        tones = bind_tones(LinkConfig(self.fmt, graph, port), fs)
        beat = detector(self.fmt)
        ref = back_to_back_reference(self.fmt)

        def mag_db(heaters: Mapping[str, float]) -> np.ndarray:
            return magnitude_db(beat(*tones(heaters)), ref)

        if self.kind == "notch_depth":
            def fn(heaters: Mapping[str, float]) -> float:
                return -float(mag_db(heaters)[0])
            return fn

        def fn(heaters: Mapping[str, float]) -> float:
            if FLIP_HEATER not in heaters:
                # the base keeps the graph's own phase, which a heater
                # setting would wrap, so it takes a call of its own
                base = mag_db(heaters)
                flipped = mag_db({**heaters, FLIP_HEATER: flip_base + math.pi})
            else:       # one call with K=2: the base and flipped settings
                phase = heaters[FLIP_HEATER]
                base, flipped = mag_db({**heaters, FLIP_HEATER: np.array(
                    [phase, phase + math.pi])})
            return float(np.min(base - flipped))
        return fn


def _nelder_mead_max(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                     scale: float, max_evals: int
                     ) -> tuple[np.ndarray, float, int, bool]:
    """Maximize fn; returns (best_x, best_f, evals, converged).

    A NaN value counts as -inf, so a NaN vertex is always the worst.
    """
    n = x0.size
    evals = 0
    history: list[float] = []

    def f(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        v = fn(x)
        if math.isnan(v):
            v = -math.inf
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
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigurationError(f"heaters named more than once: {repeated}")
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

    budget = config.max_evals // config.restarts
    if budget < 2 * len(names) + 2:
        raise ConfigurationError(
            f"max_evals {config.max_evals} over {config.restarts} restarts "
            f"leaves {budget} evaluations per restart; {len(names)} heaters "
            f"need at least {2 * len(names) + 2}, so max_evals >= "
            f"{(2 * len(names) + 2) * config.restarts}")
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
    (bar, _), _ = h_tunable_coupler(phi)
    compensation = -math.atan2(bar.imag, bar.real)
    return phi, compensation


@dataclass(frozen=True)
class CancellationSettings:
    """Bar-path settings that anti-phase the isolated sideband."""

    attenuation_amplitude: float
    coupler_phase_rad: float
    shifter_phase_rad: float


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
