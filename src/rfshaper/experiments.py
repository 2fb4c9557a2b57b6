"""Preset experiments: canned link configurations and measurements.

Each preset builds the shaper (or de-interleaver) in a specific state,
runs the relevant sweeps, and reduces them to a flat summary.  Presets
are deterministic: any randomness (optimizer restarts) flows from the
``seed`` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .blocks import FrequencyGrid, RingParams
from .circuit import CircuitGraph, CircuitResponse, evaluate
from .constants import DEFAULT_CARRIER_THZ, DEFAULT_P_PI_MW, FILTER_RING_FSR_GHZ
from .errors import ConfigurationError, DomainError
from .metrics import notch_depth_db, peak_frequency_ghz
from .rflink import (DetectorParams, LinkConfig, ModulatedSpectrum,
                     ModulationFormat, RfResponse, detect_rf_phasor,
                     make_spectrum, rf_transmission_sweep)
from .topologies import (FITTED_RING_AMPLITUDE, DeinterleaverSpec, ShaperConfig,
                         build_deinterleaver, build_shaper,
                         ring_kappa_for_rejection)
from .tuner import (Objective, OptimizerConfig, optimize,
                    synthesize_cancellation_settings)

_TWO_PI = 2.0 * math.pi

#: Presets park the carrier this far inside a channel (crossover shift),
#: keeping it off the isolated-sideband path; the sign picks the channel.
CARRIER_GUARD_GHZ = 3.0

Rows = list[tuple[float, ...]]


@dataclass(frozen=True)
class ExperimentResult:
    """Everything a preset produces: RF traces, optical traces, tables,
    and a flat key/value summary."""

    name: str
    traces: dict[str, RfResponse] = field(default_factory=dict)
    optical: dict[str, CircuitResponse] = field(default_factory=dict)
    tables: dict[str, tuple[tuple[str, ...], Rows]] = field(default_factory=dict)
    summary: dict[str, object] = field(default_factory=dict)


def _get(overrides: Mapping[str, object], key: str, default):
    """Preset option ``key``, or ``default`` when it is unset.

    A set value must be a number where the default is one, and a sequence
    where the default is one: of the same length for a tuple default, of
    any length for a list default.
    """
    v = overrides.get(key, default)
    if (isinstance(v, (tuple, list)) != isinstance(default, (tuple, list))
            or isinstance(default, tuple) and len(v) != len(default)):
        raise ConfigurationError(
            f"option {key!r} takes values like {default!r}, got {v!r}")
    return v


def _check_keys(name: str, overrides: Mapping[str, object], allowed: set[str]):
    unknown = set(overrides) - allowed - {"heaters"}
    if unknown:
        raise ConfigurationError(
            f"preset {name!r} does not accept option(s) {sorted(unknown)}")


def _band_mask(trace: RfResponse, lo: float, hi: float) -> np.ndarray:
    """Sweep points inside [lo, hi]; a sweep with none is a DomainError."""
    mask = (trace.rf_freqs_ghz >= lo) & (trace.rf_freqs_ghz <= hi)
    if not mask.any():
        raise DomainError(f"the sweep has no point in the band {lo:g}..{hi:g} GHz")
    return mask


def _apply_user_heaters(graph: CircuitGraph,
                        overrides: Mapping[str, object]) -> CircuitGraph:
    """User heater overrides rebase the circuit before the preset runs;
    heaters the preset itself drives are still swept on top."""
    heaters = overrides.get("heaters") or {}
    return graph.with_heaters(heaters) if heaters else graph


def _parked_allpass() -> RingParams:
    return RingParams(FILTER_RING_FSR_GHZ, 1e-3,
                      round_trip_amplitude=FITTED_RING_AMPLITUDE,
                      detune_ghz=25.0)


def _parked_adddrop() -> RingParams:
    return RingParams(FILTER_RING_FSR_GHZ, 1e-3, kappa_drop=1e-3,
                      round_trip_amplitude=FITTED_RING_AMPLITUDE,
                      detune_ghz=25.0)


def _phase_family(graph: CircuitGraph, offsets: np.ndarray, heater: str,
                  base_heaters: Mapping[str, float] | None = None):
    """Decompose H(f; phi) = even(f) + exp(-1j*phi) * odd(f).

    Valid because the swept phase element appears exactly once in any
    path, so the port response is affine in its phasor.
    """
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ, offsets)
    h0 = dict(base_heaters or {})
    h0[heater] = 0.0
    hpi = dict(base_heaters or {})
    hpi[heater] = math.pi
    r0 = evaluate(graph, grid, heaters=h0).port("detector")
    rpi = evaluate(graph, grid, heaters=hpi).port("detector")
    return 0.5 * (r0 + rpi), 0.5 * (r0 - rpi)


def _beat_vs_phase(graph: CircuitGraph, f0: float, fmt: ModulationFormat,
                   heater: str, phis: np.ndarray,
                   base_heaters: Mapping[str, float] | None = None
                   ) -> np.ndarray:
    """Detector |RF phasor| at one frequency versus one heater phase."""
    offs = np.array([-f0, 0.0, f0])
    even, odd = _phase_family(graph, offs, heater, base_heaters)
    u = np.exp(-1j * phis)
    hm, h0, hp = (even[i] + u * odd[i] for i in range(3))
    probe = make_spectrum(fmt, f0)
    b = DetectorParams().responsivity_a_per_w * (
        h0 * probe.e_carrier * np.conj(hm * probe.e_minus)
        + np.conj(h0 * probe.e_carrier) * hp * probe.e_plus)
    return np.abs(b)


def _conversion_preset(name: str, fmt_kind: str,
                       overrides: Mapping[str, object],
                       seed: int) -> ExperimentResult:
    _check_keys(name, overrides, {"sweep", "modulation_index",
                                  "anchor_freq_ghz", "band"})
    lo, hi, step = _get(overrides, "sweep", (1.0, 30.0, 0.05))
    m = _get(overrides, "modulation_index", 0.1)
    f_anchor = _get(overrides, "anchor_freq_ghz", 20.0)
    band = _get(overrides, "band", (15.0, 25.0))

    # carrier mid-transition (crossover at zero): the +/-f dispersion of
    # the two paths stays mirror-symmetric, so one shifter phase cancels
    # the beats across the whole band.
    cfg = ShaperConfig(allpass=_parked_allpass(), adddrop=_parked_adddrop())
    graph = _apply_user_heaters(build_shaper(cfg), overrides)
    fmt = ModulationFormat(fmt_kind, m)
    link = LinkConfig(fmt, graph)

    phis = np.linspace(0.0, _TWO_PI, 4096, endpoint=False)
    mags = _beat_vs_phase(graph, f_anchor, fmt, "ps_bar.phase", phis)
    phi_high = float(phis[np.argmax(mags)])
    phi_low = float(phis[np.argmin(mags)])

    high = rf_transmission_sweep(link, lo, hi, step,
                                 heaters={"ps_bar.phase": phi_high})
    low = rf_transmission_sweep(link, lo, hi, step,
                                heaters={"ps_bar.phase": phi_low})
    mask = _band_mask(high, *band)
    extinction = float(np.min(high.mag_db[mask] - low.mag_db[mask]))
    summary = {
        "extinction_db": extinction,
        "band_lo_ghz": band[0],
        "band_hi_ghz": band[1],
        "phase_high_rad": phi_high,
        "phase_low_rad": phi_low,
        "target_extinction_db": 15.0,
    }
    if name == "pm2im":
        # the alternative published figure for this conversion direction
        summary["target_extinction_alt_db"] = 20.0
    return ExperimentResult(name, traces={"im_like": high, "pm_like": low},
                            summary=summary)


def im2pm(overrides: Mapping[str, object], seed: int = 0) -> ExperimentResult:
    """Intensity-modulated input; the bar-path phase shifter converts the
    output between IM-like (high RF) and PM-like (nulled RF)."""
    return _conversion_preset("im2pm", "IM", overrides, seed)


def pm2im(overrides: Mapping[str, object], seed: int = 0) -> ExperimentResult:
    """Phase-modulated input converted to IM-like output and back."""
    return _conversion_preset("pm2im", "PM", overrides, seed)


def _notch_shaper(notch_freq_ghz: float, rejection_db: float,
                  bar_coupler_rad: float, bar_phase_rad: float) -> CircuitGraph:
    kappa = ring_kappa_for_rejection(FITTED_RING_AMPLITUDE, rejection_db)
    cfg = ShaperConfig(
        deinterleaver=DeinterleaverSpec.designed(
            crossover_offset_ghz=CARRIER_GUARD_GHZ),
        bar_phase_rad=bar_phase_rad,
        bar_coupler_rad=bar_coupler_rad,
        allpass=RingParams(FILTER_RING_FSR_GHZ, kappa,
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=(-notch_freq_ghz) % FILTER_RING_FSR_GHZ),
        adddrop=_parked_adddrop())
    return build_shaper(cfg)


def ssb_notch(overrides: Mapping[str, object], seed: int = 0) -> ExperimentResult:
    """Single-sideband notch: bar path blocked, the all-pass ring notches
    the surviving lower sideband; RF rejection equals the optical one."""
    _check_keys("ssb_notch", overrides,
                {"sweep", "notch_freq_ghz", "optical_rejection_db",
                 "modulation_index"})
    lo, hi, step = _get(overrides, "sweep", (2.0, 28.0, 0.01))
    f0 = _get(overrides, "notch_freq_ghz", 10.0)
    rej = _get(overrides, "optical_rejection_db", 7.0)
    m = _get(overrides, "modulation_index", 0.1)

    graph = _apply_user_heaters(
        _notch_shaper(f0, rej, bar_coupler_rad=0.0, bar_phase_rad=0.0),
        overrides)
    link = LinkConfig(ModulationFormat("IM", m), graph)
    trace = rf_transmission_sweep(link, lo, hi, step)
    depth, f_min = notch_depth_db(trace.rf_freqs_ghz, trace.mag_db, f0)
    return ExperimentResult(
        "ssb_notch", traces={"ssb": trace},
        summary={"notch_depth_db": depth, "notch_freq_ghz": f_min,
                 "optical_rejection_db": rej})


def cancel_notch(overrides: Mapping[str, object], seed: int = 0) -> ExperimentResult:
    """Phase-cancellation notch: the isolated sideband is attenuated to
    the optical notch floor and anti-phased, so the sideband beats cancel
    at the notch and the shallow optical dip becomes a deep RF null.

    Starts from the closed-form settings and polishes the two bar-path
    heaters on the actual circuit (the split carrier also feels the phase
    shifter, which the closed form ignores).
    """
    _check_keys("cancel_notch", overrides,
                {"sweep", "notch_freq_ghz", "optical_rejection_db",
                 "modulation_index", "polish_evals"})
    lo, hi, step = _get(overrides, "sweep", (2.0, 28.0, 0.01))
    f0 = _get(overrides, "notch_freq_ghz", 10.0)
    rej = _get(overrides, "optical_rejection_db", 7.0)
    m = _get(overrides, "modulation_index", 0.1)
    polish_evals = _get(overrides, "polish_evals", 600)

    settings = synthesize_cancellation_settings(rej)
    graph = _apply_user_heaters(
        _notch_shaper(f0, rej, bar_coupler_rad=settings.coupler_phase_rad,
                      bar_phase_rad=settings.shifter_phase_rad), overrides)
    fmt = ModulationFormat("IM", m)
    objective = Objective("notch_depth", rf_freq_ghz=f0, fmt=fmt)
    result = optimize(graph, objective,
                      OptimizerConfig(max_evals=polish_evals, restarts=2,
                                      seed=seed),
                      heater_names=("ps_bar.phase", "tc_bar.phase"))
    link = LinkConfig(fmt, graph)
    trace = rf_transmission_sweep(link, lo, hi, step, heaters=result.best)
    depth, f_min = notch_depth_db(trace.rf_freqs_ghz, trace.mag_db, f0)

    reference = ssb_notch({"sweep": (lo, hi, step), "notch_freq_ghz": f0,
                           "optical_rejection_db": rej,
                           "modulation_index": m})
    ssb_depth = reference.summary["notch_depth_db"]
    return ExperimentResult(
        "cancel_notch",
        traces={"cancel": trace, "ssb_reference": reference.traces["ssb"]},
        summary={"notch_depth_db": depth, "notch_freq_ghz": f_min,
                 "ssb_depth_db": ssb_depth,
                 "enhancement_db": depth - ssb_depth,
                 "optical_rejection_db": rej,
                 "coupler_phase_rad": result.best["tc_bar.phase"],
                 "shifter_phase_rad": result.best["ps_bar.phase"],
                 "polish_evaluations": result.evaluations})


def bandpass_tune(overrides: Mapping[str, object], seed: int = 0) -> ExperimentResult:
    """Tunable bandpass: carrier re-inserted through the bar path while
    the lower sideband is filtered by the add-drop ring's drop port."""
    _check_keys("bandpass_tune", overrides,
                {"sweep", "detunes_ghz", "modulation_index", "drop_kappa"})
    # start above the crossover guard: below it the lower sideband is
    # still inside the bar channel and leaks past the open coupler.
    lo, hi, step = _get(overrides, "sweep", (5.0, 27.0, 0.1))
    detunes = _get(overrides, "detunes_ghz", [8.0, 12.0, 16.0, 20.0])
    m = _get(overrides, "modulation_index", 0.1)
    kappa = _get(overrides, "drop_kappa", 0.1)

    # carrier parked inside the bar channel here: the coupler path
    # re-inserts it while the cross path filters the lower sideband.
    cfg = ShaperConfig(
        deinterleaver=DeinterleaverSpec.designed(
            crossover_offset_ghz=-CARRIER_GUARD_GHZ),
        allpass=_parked_allpass(),
        adddrop=RingParams(FILTER_RING_FSR_GHZ, kappa, kappa_drop=kappa,
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=25.0),
        adddrop_route="drop")
    graph = _apply_user_heaters(build_shaper(cfg), overrides)
    link = LinkConfig(ModulationFormat("SSB_lower", m), graph)

    traces: dict[str, RfResponse] = {}
    summary: dict[str, object] = {"detunes_ghz": ",".join(f"{d:g}" for d in detunes)}
    worst = 0.0
    for d in detunes:
        heater = _TWO_PI * (((-d) % FILTER_RING_FSR_GHZ) / FILTER_RING_FSR_GHZ)
        trace = rf_transmission_sweep(link, lo, hi, step,
                                      heaters={"ad.detune": heater})
        peak = peak_frequency_ghz(trace.rf_freqs_ghz, trace.mag_db)
        traces[f"detune_{d:g}"] = trace
        summary[f"peak_freq_ghz_{d:g}"] = peak
        worst = max(worst, abs(peak - d))
    summary["max_peak_error_ghz"] = worst
    summary["sweep_step_ghz"] = step
    return ExperimentResult("bandpass_tune", traces=traces, summary=summary)


def deint_phase_probe(overrides: Mapping[str, object], seed: int = 0
                      ) -> ExperimentResult:
    """Single-sideband probe of the de-interleaver: dividing the detected
    beat by the back-to-back one extracts the port's complex response
    relative to the carrier."""
    _check_keys("deint_phase_probe", overrides, {"sweep", "modulation_index"})
    lo, hi, step = _get(overrides, "sweep", (0.5, 29.5, 0.05))
    m = _get(overrides, "modulation_index", 0.1)

    # per-port carrier placement: just inside the probed channel's start,
    # so the carrier beat reference stays strong across the whole band.
    fmt = ModulationFormat("SSB_upper", m)
    traces = {}
    for port, crossover in (("bar", -1.0), ("cross", 29.0)):
        graph = _apply_user_heaters(
            build_deinterleaver(DeinterleaverSpec.designed(
                crossover_offset_ghz=crossover)), overrides)
        traces[port] = rf_transmission_sweep(
            LinkConfig(fmt, graph, output_port=port), lo, hi, step)
    bar = traces["bar"]
    mask = _band_mask(bar, 5.0, 25.0)
    return ExperimentResult(
        "deint_phase_probe", traces=traces,
        summary={"bar_passband_phase_span_rad":
                 float(np.ptp(bar.phase_rad[mask])),
                 "ports": "bar,cross"})


def amplitude_tuning(overrides: Mapping[str, object], seed: int = 0
                     ) -> ExperimentResult:
    """Sideband-amplitude tuning at a fixed RF frequency.

    A phase-modulated input is shaped while the tunable coupler sweeps
    the isolated (upper) sideband amplitude; the all-pass ring attenuates
    the lower sideband so the balance point sits mid-sweep.  Without
    compensation the coupler's parasitic phase pulls the RF minimum away
    from the sideband-power balance point; co-tuning the phase shifter
    pins them together.
    """
    _check_keys("amplitude_tuning", overrides,
                {"rf_freq_ghz", "power_max_mw", "power_step_mw",
                 "modulation_index", "sideband_attenuation_db",
                 "anchor_power_mw"})
    f0 = _get(overrides, "rf_freq_ghz", 20.0)
    p_max = _get(overrides, "power_max_mw", DEFAULT_P_PI_MW)
    p_step = _get(overrides, "power_step_mw", 0.25)
    m = _get(overrides, "modulation_index", 0.1)
    att_db = _get(overrides, "sideband_attenuation_db", 6.0)
    p_anchor = _get(overrides, "anchor_power_mw", 22.0)
    if not (p_step > 0 and p_max >= 0):
        raise DomainError("amplitude_tuning needs power_step_mw > 0 and "
                          "power_max_mw >= 0")

    kappa = ring_kappa_for_rejection(FITTED_RING_AMPLITUDE, att_db)
    cfg = ShaperConfig(
        deinterleaver=DeinterleaverSpec.designed(
            crossover_offset_ghz=CARRIER_GUARD_GHZ),
        allpass=RingParams(FILTER_RING_FSR_GHZ, kappa,
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=(-f0) % FILTER_RING_FSR_GHZ),
        adddrop=_parked_adddrop())
    graph = _apply_user_heaters(build_shaper(cfg), overrides)
    fmt = ModulationFormat("PM", m)

    # Anti-phase reference: fix the shifter so the sideband beats cancel
    # at a mid-sweep coupler setting, then leave it (uncompensated) or
    # co-tune it with the coupler's parasitic phase law (compensated).
    phi_anchor = math.pi * p_anchor / DEFAULT_P_PI_MW
    phis = np.linspace(0.0, _TWO_PI, 4096, endpoint=False)
    mags = _beat_vs_phase(graph, f0, fmt, "ps_bar.phase", phis,
                          base_heaters={"tc_bar.phase": phi_anchor})
    phi_base = float(phis[np.argmin(mags)])

    powers = np.arange(0.0, p_max + 1e-9, p_step)
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ, np.array([-f0, 0.0, f0]))
    probe = make_spectrum(fmt, f0)
    headers = ("heater_power_mw", "coupler_phase_rad", "upper_power",
               "lower_power", "carrier_power", "rf_phasor_abs")

    def sweep_table(compensated: bool) -> Rows:
        rows: Rows = []
        for p in powers:
            phi_tc = math.pi * p / DEFAULT_P_PI_MW
            phi_ps = phi_base + ((phi_anchor - phi_tc) / 2.0 if compensated else 0.0)
            resp = evaluate(graph, grid, heaters={
                "tc_bar.phase": phi_tc % _TWO_PI,
                "ps_bar.phase": phi_ps % _TWO_PI})
            h = resp.port("detector")
            shaped = ModulatedSpectrum(f0, h[0] * probe.e_minus,
                                       h[1] * probe.e_carrier,
                                       h[2] * probe.e_plus)
            rf = abs(detect_rf_phasor(shaped))
            rows.append((float(p), phi_tc % _TWO_PI,
                         abs(shaped.e_plus) ** 2, abs(shaped.e_minus) ** 2,
                         abs(shaped.e_carrier) ** 2, rf))
        return rows

    tables = {}
    summary: dict[str, object] = {"rf_freq_ghz": f0, "power_step_mw": p_step,
                                  "shifter_base_rad": phi_base,
                                  "sideband_attenuation_db": att_db}
    for label, comp in (("uncompensated", False), ("compensated", True)):
        rows = sweep_table(comp)
        tables[label] = (headers, rows)
        arr = np.asarray(rows)
        balance = int(np.argmin(np.abs(arr[:, 2] - arr[:, 3])))
        rf_min = int(np.argmin(arr[:, 5]))
        summary[f"{label}_balance_power_mw"] = float(arr[balance, 0])
        summary[f"{label}_rf_min_power_mw"] = float(arr[rf_min, 0])
        summary[f"{label}_offset_steps"] = abs(rf_min - balance)
    return ExperimentResult("amplitude_tuning", tables=tables, summary=summary)


def coupling_sweep(overrides: Mapping[str, object], seed: int = 0
                   ) -> ExperimentResult:
    """All-pass ring through under-, critical and over-coupling."""
    _check_keys("coupling_sweep", overrides, {"kappas", "span_ghz", "step_ghz"})
    gamma = FITTED_RING_AMPLITUDE
    kappa_crit = 1.0 - gamma * gamma
    kappas = _get(overrides, "kappas", [0.05, 0.10, kappa_crit, 0.25, 0.40])
    span = _get(overrides, "span_ghz", 5.0)
    step = _get(overrides, "step_ghz", 0.01)
    if not (step > 0 and all(0.0 <= k <= 1.0 for k in kappas)):
        raise DomainError("coupling_sweep needs step_ghz > 0 and kappas in [0, 1]")

    from .circuit import BlockInstance, Port
    ring = BlockInstance("ring", "ring_allpass",
                         RingParams(FILTER_RING_FSR_GHZ, kappas[0],
                                    round_trip_amplitude=gamma))
    graph = _apply_user_heaters(
        CircuitGraph((ring,), (), inputs={"in": Port("ring", "in")},
                     outputs={"out": Port("ring", "out")}), overrides)
    offsets = np.arange(-span, span + 1e-9, step)
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ, offsets)

    optical: dict[str, CircuitResponse] = {}
    summary: dict[str, object] = {"critical_kappa": kappa_crit,
                                  "round_trip_amplitude": gamma}
    for kappa in kappas:
        heater = 2.0 * math.asin(math.sqrt(kappa))
        resp = evaluate(graph, grid, heaters={"ring.coupling": heater})
        power = resp.power("out")
        key = f"kappa_{kappa:.4f}"
        optical[key] = resp
        depth = -10.0 * math.log10(max(power.min(), 1e-300))
        state = ("critical" if abs(kappa - kappa_crit) < 1e-9 else
                 "under" if kappa < kappa_crit else "over")
        summary[f"{key}_depth_db"] = depth
        summary[f"{key}_state"] = state
    return ExperimentResult("coupling_sweep", optical=optical, summary=summary)


PRESETS = {
    "im2pm": im2pm,
    "pm2im": pm2im,
    "ssb_notch": ssb_notch,
    "cancel_notch": cancel_notch,
    "bandpass_tune": bandpass_tune,
    "deint_phase_probe": deint_phase_probe,
    "amplitude_tuning": amplitude_tuning,
    "coupling_sweep": coupling_sweep,
}


def run_experiment(name: str, overrides: Mapping[str, object] | None = None,
                   seed: int = 0) -> ExperimentResult:
    """Run a named preset experiment."""
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; presets: {', '.join(sorted(PRESETS))}"
        ) from None
    return preset(dict(overrides or {}), seed=seed)
