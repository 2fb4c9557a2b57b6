"""Derivative-free tuning of heater phases against named objectives.

The optimizer is a seeded multi-start Nelder-Mead working in unwrapped
phase coordinates; phases are wrapped to [0, 2*pi) only when a candidate
is evaluated, so the simplex never fights the 0/2*pi seam.  Runs are
bit-reproducible for a fixed seed and never report a value worse than
the best evaluated point.  Restarts are independent (objective
evaluations are pure over a read-only graph template), so they advance
together: each round evaluates the next candidate of every live restart
in one bound call, with the same results as running the restarts one
after another.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from . import blocks
from .blocks import FrequencyGrid
from .circuit import CircuitGraph, bind
from .constants import DEFAULT_CARRIER_THZ
from .errors import AnalysisError, ConfigurationError, DomainError
from .kernels import TWO_PI, h_tunable_coupler
from .metrics import band_extremes, band_mask, extinction_ratio_db
from .rflink import (LinkConfig, ModulationFormat, back_to_back_reference,
                     bind_tones, detector, magnitude_db)

#: A restart has converged once its best value rose by less than
#: CONVERGENCE_TOL over the last CONVERGENCE_WINDOW evaluations.
CONVERGENCE_TOL, CONVERGENCE_WINDOW = 1e-6, 50
GRID_STEP_GHZ = 0.25              # deinterleaver_extinction offset grid
RF_STEP_GHZ = 0.5                 # conversion_extinction RF sweep
FLIP_HEATER = "ps_bar.phase"      # conversion_extinction advances it by pi
#: The most restarts ``optimize`` keeps live, and so evaluates in one
#: round; the next starts when a live one ends.
MAX_LIVE_RESTARTS = 64


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

    def build(self, graph: CircuitGraph) -> Callable[[Mapping], float | np.ndarray]:
        """Bind this objective to a graph template.

        The optical kinds read the port's power from
        :func:`rfshaper.circuit.bind`, the RF kinds the detected RF
        magnitude from :func:`rfshaper.rflink.bind_tones`; either binds
        the circuit once, and the bound function reduces what it reads
        to the objective's value.

        The bound function takes heater settings as floats and returns a
        float.  Given 1-D arrays of K candidates' settings instead (as
        :func:`rfshaper.circuit.bind` takes them), it returns an array of
        K values, each equal to its candidate's float call: it reads the
        candidates in calls of at most ``MAX_GRID_POINTS`` points per
        field, and reduces each row with the float call's code.

        ``deinterleaver_extinction`` builds its band masks here, once.  A
        call reduces all its rows in one pass (one ``min`` and one
        ``max``), then turns each row's pair into dB in Python floats
        with :func:`rfshaper.metrics.extinction_ratio_db`, as
        :func:`rfshaper.metrics.extinction_db` does; so each row still
        gets its float call's value.
        """
        port = self.port
        if self.kind == "deinterleaver_extinction":
            offs = np.unique(np.concatenate([
                FrequencyGrid.sweep(*band, GRID_STEP_GHZ).offsets_ghz
                for band in (self.stopband, self.passband)]))
            evaluate_at = bind(graph, FrequencyGrid(DEFAULT_CARRIER_THZ, offs))
            in_pass = band_mask(offs, self.passband)
            in_stop = band_mask(offs, self.stopband)
            return _by_rows(
                lambda heaters: band_extremes(
                    evaluate_at(heaters).power(port), in_pass, in_stop),
                lambda extremes: extinction_ratio_db(*extremes), offs.size)

        if self.kind == "critical_coupling":
            evaluate_at = bind(graph, FrequencyGrid(
                DEFAULT_CARRIER_THZ, np.array([self.offset_ghz])))
            return _by_rows(
                lambda heaters: evaluate_at(heaters).power(port),
                lambda power: -10.0 * math.log10(max(float(power[0]), 1e-300)),
                1)

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

        def mag_db(heaters: Mapping) -> np.ndarray:
            return magnitude_db(beat(*tones(heaters)), ref)

        if self.kind == "notch_depth":
            return _by_rows(mag_db, lambda mag: -float(mag[0]), 2 * fs.size + 1)

        def change_db(heaters: Mapping) -> np.ndarray:
            """The base minus the flipped magnitude: one row per candidate."""
            if FLIP_HEATER not in heaters:
                # the base keeps the graph's own phase, which a heater
                # setting would wrap, so it takes a call of its own
                return (mag_db(heaters)
                        - mag_db({**heaters, FLIP_HEATER: flip_base + math.pi}))
            # one call for K candidates (1 for floats): K base rows, then
            # K flipped ones
            phase = np.atleast_1d(heaters[FLIP_HEATER])
            # floats stay floats: the float call is the tuner's hot route
            doubled = {n: np.concatenate([v, v]) for n, v in heaters.items()
                       if isinstance(v, np.ndarray)}
            both = mag_db({**heaters, **doubled, FLIP_HEATER: np.concatenate(
                [phase, phase + math.pi])})
            k = phase.size
            return both[:k] - both[k:]
        return _by_rows(change_db, lambda change: float(np.min(change)),
                        2 * (2 * fs.size + 1))


def _by_rows(read: Callable[[Mapping], np.ndarray],
             reduce: Callable[[np.ndarray], float], points: int
             ) -> Callable[[Mapping], float | np.ndarray]:
    """An objective's bound function: ``reduce(read(heaters))`` for float
    settings.  For settings with 1-D arrays of K candidates, ``read``
    gives a row per candidate and ``reduce`` makes each row's value; the
    candidates are read in calls of at most ``max(1, MAX_GRID_POINTS //
    points)``, so that a field holds at most ``MAX_GRID_POINTS`` points
    (``points`` is what one candidate holds per field)."""
    def fn(heaters: Mapping) -> float | np.ndarray:
        # float settings, the tuner's hot route, take one plain call
        k = next((v.size for v in heaters.values()
                  if isinstance(v, np.ndarray)), None)
        if k is None:
            return reduce(read(heaters))
        rows = max(1, blocks.MAX_GRID_POINTS // points)
        values: list[float] = []
        for lo in range(0, k, rows):
            part = heaters if rows >= k else {
                n: v[lo:lo + rows] if isinstance(v, np.ndarray) else v
                for n, v in heaters.items()}
            values.extend(map(reduce, read(part)))
        return np.array(values)
    return fn


def _nelder_mead_max(x0: np.ndarray, scale: float, max_evals: int
                     ) -> Generator[np.ndarray, float,
                                    tuple[np.ndarray, float, int, bool]]:
    """Maximize a function: yields each candidate in turn, receives its
    value, and returns (best_x, best_f, evals, converged).

    A NaN value counts as -inf, so a NaN vertex is always the worst.
    """
    n = x0.size
    evals = 0
    # the best value so far after each evaluation; only the last window
    # is read
    history: deque[float] = deque(maxlen=CONVERGENCE_WINDOW + 1)

    def record(v: float) -> float:
        nonlocal evals
        evals += 1
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
    values = []
    for p in simplex:
        values.append(record((yield p)))

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
        fr = record((yield reflect))
        if fr > values[0]:
            expand = centroid + 2.0 * (centroid - worst)
            fe = record((yield expand)) if evals < max_evals else -math.inf
            if fe > fr:
                simplex[-1], values[-1] = expand, fe
            else:
                simplex[-1], values[-1] = reflect, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = reflect, fr
        else:
            contract = centroid + 0.5 * (worst - centroid)
            fc = record((yield contract)) if evals < max_evals else -math.inf
            if fc > values[-1]:
                simplex[-1], values[-1] = contract, fc
            else:
                for i in range(1, n + 1):        # shrink toward the best
                    if evals >= max_evals:
                        break
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = record((yield simplex[i]))
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

    The restarts advance in rounds.  At most ``MAX_LIVE_RESTARTS`` are
    live at once; the next in order starts when a live one ends.  Each
    round evaluates the next candidate of every live restart in one call
    of the function that ``objective.build`` returns: a round with one
    live restart passes each heater as a float, and one with K > 1 as a
    1-D array of the K candidates' settings, in restart order.  Each
    restart's candidates, and so the result, equal those of running the
    restarts one after another.  So do errors: if a round's call raises,
    its candidates are evaluated again one at a time; the first that
    raises stops its restart and every later one, none starts after it,
    and once the earlier restarts end, ``optimize`` raises the error of
    the lowest-numbered restart that failed.
    """
    if isinstance(heater_names, str):
        raise ConfigurationError("heater_names takes a sequence of heater "
                                 f"names, got a str: {heater_names!r}")
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
    budget = config.max_evals // config.restarts
    if budget < 2 * len(names) + 2:
        raise ConfigurationError(
            f"max_evals {config.max_evals} over {config.restarts} restarts "
            f"leaves {budget} evaluations per restart; {len(names)} heaters "
            f"need at least {2 * len(names) + 2}, so max_evals >= "
            f"{(2 * len(names) + 2) * config.restarts}")

    bound = objective.build(graph_template)

    def settings(xs: list[np.ndarray]) -> dict:
        """Wrapped heater phases: floats for one candidate, a 1-D array
        per heater for several."""
        if len(xs) == 1:
            return {n: float(v) % TWO_PI for n, v in zip(names, xs[0])}
        return {n: np.array([float(x[i]) % TWO_PI for x in xs])
                for i, n in enumerate(names)}

    def evaluate(xs: list[np.ndarray]) -> tuple[list[float], Exception | None]:
        """The values of the leading candidates, up to the first that
        raises, and its error."""
        if len(xs) > 1:
            try:
                return [float(v) for v in bound(settings(xs))], None
            except Exception:   # the float calls below raise it again
                pass
        values = []
        for x in xs:
            try:
                values.append(bound(settings([x])))
            except Exception as exc:    # raised once the earlier restarts end
                return values, exc
        return values, None

    current = graph_template.heater_values()
    start_list: list[np.ndarray] = [np.array([current[n] for n in names])]
    rng = np.random.default_rng(config.seed)
    while len(start_list) < config.restarts:
        start_list.append(rng.uniform(0.0, TWO_PI, size=len(names)))

    # restarts start in order as live ones end, at most MAX_LIVE_RESTARTS
    # at a time, so the simplices held stay bounded however many there are
    queued = iter(enumerate(start_list))
    live: dict[int, tuple[Generator, np.ndarray]] = {}    # in restart order
    outcomes: dict[int, tuple[np.ndarray, float, int, bool]] = {}
    error = None
    while True:
        if error is None:       # no restart starts after a failed one
            for i, x0 in itertools.islice(queued,
                                          MAX_LIVE_RESTARTS - len(live)):
                run = _nelder_mead_max(np.asarray(x0, dtype=float), 0.7,
                                       budget)
                live[i] = run, next(run)
        if not live:
            break
        order = list(live)
        values, failure = evaluate([x for _, x in live.values()])
        for i, v in zip(order, values):
            run = live[i][0]
            try:
                live[i] = run, run.send(v)
            except StopIteration as stop:
                del live[i]
                outcomes[i] = stop.value
        if failure is not None:   # no restart left live follows a failed one
            error = failure
            for i in order[len(values):]:
                del live[i]
    if error is not None:
        raise error

    traces: list[RestartTrace] = []
    best_x, best_v = None, -math.inf
    total = 0
    all_converged = True
    for i, x0 in enumerate(start_list):
        bx, bv, ev, conv = outcomes[i]
        total += ev
        all_converged = all_converged and conv
        traces.append(RestartTrace(
            {n: float(v) % TWO_PI for n, v in zip(names, x0)}, bv, ev, conv))
        if bv > best_v:
            best_x, best_v = bx, bv
    if best_x is None:
        raise AnalysisError(
            f"objective gave no comparable value in {total} evaluations "
            "(every value was NaN or -inf)")
    best = {n: float(v) % TWO_PI for n, v in zip(names, best_x)}
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
    phi = blocks.coupling_phase(target_bar_power)
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
    shifter = (-compensation - math.pi) % TWO_PI
    return CancellationSettings(amplitude, phi, shifter)
