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

from .blocks import (FrequencyGrid, RingParams, coupling_phase,
                     critical_coupling_kappa, detune_phase,
                     heater_phase_from_power, require_grid_size)
from .circuit import (BlockInstance, CircuitGraph, CircuitResponse, Port,
                      evaluate)
from .constants import DEFAULT_CARRIER_THZ, DEFAULT_P_PI_MW, FILTER_RING_FSR_GHZ
from .errors import ConfigurationError, DomainError
from .kernels import TWO_PI
from .metrics import (band_mask, notch_depth_db, peak_frequency_ghz,
                      require_notch_in_sweep)
from .rflink import (LinkConfig, ModulationFormat, RfResponse, bind_tones,
                     detector, rf_transmission_sweep)
from .topologies import (FITTED_RING_AMPLITUDE, DeinterleaverSpec, ShaperConfig,
                         build_deinterleaver, build_shaper,
                         ring_kappa_for_rejection)
from .tuner import (Objective, OptimizerConfig, optimize,
                    synthesize_cancellation_settings)

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
    one or more values for a list default, where a single number is a
    one-value list.  Where the default is an ``int``, the value must be a
    whole number and is returned as an ``int``.
    """
    v = overrides.get(key, default)
    if isinstance(default, list) and isinstance(v, (int, float)):
        v = [v]
    if (isinstance(v, (tuple, list)) != isinstance(default, (tuple, list))
            or isinstance(default, tuple) and len(v) != len(default)
            or isinstance(default, list) and not v
            or isinstance(default, int) and not float(v).is_integer()):
        raise ConfigurationError(
            f"option {key!r} takes values like {default!r}, got {v!r}")
    return int(v) if isinstance(default, int) else v


def _options(name: str, overrides: Mapping[str, object],
             defaults: Mapping[str, object]) -> list:
    """Preset ``name``'s option values, in the order of ``defaults``, then
    the ``heaters`` settings it builds its circuit with (none when unset).
    Rejects a key that is neither an option of the preset nor ``heaters``,
    then reads each option with :func:`_get`, and ``heaters`` last.
    """
    unknown = set(overrides) - set(defaults) - {"heaters"}
    if unknown:
        raise ConfigurationError(
            f"preset {name!r} does not accept option(s) {sorted(unknown)}")
    values = [_get(overrides, key, default) for key, default in defaults.items()]
    heaters = overrides.get("heaters", {})
    if not isinstance(heaters, Mapping):
        raise ConfigurationError(
            f"option 'heaters' takes heater names and values, got {heaters!r}")
    return [*values, heaters]


def _labels(key: str, values, label) -> list[str]:
    """``label(v)`` of each value of list option ``key``, each one unique
    since it names a trace."""
    labels = [label(v) for v in values]
    for i, lab in enumerate(labels):
        if lab in labels[:i]:
            raise ConfigurationError(
                f"option {key!r} gives two values the label {lab!r}")
    return labels


def _parked_adddrop() -> RingParams:
    return RingParams(FILTER_RING_FSR_GHZ, 1e-3, kappa_drop=1e-3,
                      round_trip_amplitude=FITTED_RING_AMPLITUDE,
                      detune_ghz=25.0)


def _beat_vs_phase(tones, fmt: ModulationFormat, heater: str,
                   base_heaters: Mapping[str, float] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(phis, mags)``: the detector |RF phasor| over 4096 phases of one
    heater, from the bound tones (see :func:`rflink.bind_tones`) of one
    RF frequency.  The swept phase element appears exactly once in any
    path, so each tone's response is affine in its phasor: H(phi) = even
    + exp(-1j*phi) * odd, found from the responses at 0 and pi."""
    phis = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    r0, rpi = (tones({**(base_heaters or {}), heater: phase})
               for phase in (0.0, math.pi))
    u = np.exp(-1j * phis)
    hm, h0, hp = (0.5 * (a + b) + u * (0.5 * (a - b)) for a, b in zip(r0, rpi))
    return phis, np.abs(detector(fmt)(hm, h0, hp))


def _conversion_preset(name: str, fmt_kind: str,
                       overrides: Mapping[str, object],
                       seed: int) -> ExperimentResult:
    (lo, hi, step), m, f_anchor, band, heaters = _options(name, overrides, {
        "sweep": (1.0, 30.0, 0.05), "modulation_index": 0.1,
        "anchor_freq_ghz": 20.0, "band": (15.0, 25.0)})

    # carrier mid-transition (crossover at zero): the +/-f dispersion of
    # the two paths stays mirror-symmetric, so one shifter phase cancels
    # the beats across the whole band.
    cfg = ShaperConfig(adddrop=_parked_adddrop())
    graph = build_shaper(cfg).with_heaters(heaters)
    fmt = ModulationFormat(fmt_kind, m)
    link = LinkConfig(fmt, graph)

    phis, mags = _beat_vs_phase(bind_tones(link, np.array([f_anchor])), fmt,
                                "ps_bar.phase")
    phi_high = float(phis[np.argmax(mags)])
    phi_low = float(phis[np.argmin(mags)])

    high = rf_transmission_sweep(link, lo, hi, step,
                                 heaters={"ps_bar.phase": phi_high})
    low = rf_transmission_sweep(link, lo, hi, step,
                                heaters={"ps_bar.phase": phi_low})
    mask = band_mask(high.rf_freqs_ghz, band)
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
                  bar_coupler_rad: float = 0.0,
                  bar_phase_rad: float = 0.0) -> CircuitGraph:
    """The shaper whose all-pass ring notches ``notch_freq_ghz``; the
    default bar-path settings block the bar path (the SSB notch)."""
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
    (lo, hi, step), f0, rej, m, heaters = _options("ssb_notch", overrides, {
        "sweep": (2.0, 28.0, 0.01), "notch_freq_ghz": 10.0,
        "optical_rejection_db": 7.0, "modulation_index": 0.1})

    graph = _notch_shaper(f0, rej).with_heaters(heaters)
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
    (lo, hi, step), f0, rej, m, polish_evals, heaters = _options(
        "cancel_notch", overrides, {
            "sweep": (2.0, 28.0, 0.01), "notch_freq_ghz": 10.0,
            "optical_rejection_db": 7.0, "modulation_index": 0.1,
            "polish_evals": 600})

    settings = synthesize_cancellation_settings(rej)
    graph = _notch_shaper(f0, rej, bar_coupler_rad=settings.coupler_phase_rad,
                          bar_phase_rad=settings.shifter_phase_rad
                          ).with_heaters(heaters)
    fmt = ModulationFormat("IM", m)
    objective = Objective("notch_depth", rf_freq_ghz=f0, fmt=fmt)
    require_notch_in_sweep(FrequencyGrid.sweep(lo, hi, step).offsets_ghz, f0)
    try:
        result = optimize(graph, objective,
                          OptimizerConfig(max_evals=polish_evals, restarts=2,
                                          seed=seed),
                          heater_names=("ps_bar.phase", "tc_bar.phase"))
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"option 'polish_evals' {polish_evals}: {exc}") from None
    link = LinkConfig(fmt, graph)
    trace = rf_transmission_sweep(link, lo, hi, step, heaters=result.best)
    depth, f_min = notch_depth_db(trace.rf_freqs_ghz, trace.mag_db, f0)

    # the SSB reference is this circuit with its bar path blocked
    reference = rf_transmission_sweep(link, lo, hi, step, heaters={
        "tc_bar.phase": 0.0, "ps_bar.phase": 0.0})
    ssb_depth, _ = notch_depth_db(reference.rf_freqs_ghz, reference.mag_db, f0)
    return ExperimentResult(
        "cancel_notch", traces={"cancel": trace, "ssb_reference": reference},
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
    # start above the crossover guard: below it the lower sideband is
    # still inside the bar channel and leaks past the open coupler.
    (lo, hi, step), detunes, m, kappa, heaters = _options(
        "bandpass_tune", overrides, {
            "sweep": (5.0, 27.0, 0.1), "detunes_ghz": [8.0, 12.0, 16.0, 20.0],
            "modulation_index": 0.1, "drop_kappa": 0.1})
    labels = _labels("detunes_ghz", detunes, lambda d: f"{d:g}")

    # carrier parked inside the bar channel here: the coupler path
    # re-inserts it while the cross path filters the lower sideband.
    cfg = ShaperConfig(
        deinterleaver=DeinterleaverSpec.designed(
            crossover_offset_ghz=-CARRIER_GUARD_GHZ),
        adddrop=RingParams(FILTER_RING_FSR_GHZ, kappa, kappa_drop=kappa,
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=25.0),
        adddrop_route="drop")
    graph = build_shaper(cfg).with_heaters(heaters)
    link = LinkConfig(ModulationFormat("SSB_lower", m), graph)

    traces: dict[str, RfResponse] = {}
    summary: dict[str, object] = {"detunes_ghz": ",".join(labels)}
    worst = 0.0
    for d, label in zip(detunes, labels):
        trace = rf_transmission_sweep(link, lo, hi, step, heaters={
            "ad.detune": detune_phase(-d, FILTER_RING_FSR_GHZ)})
        peak = peak_frequency_ghz(trace.rf_freqs_ghz, trace.mag_db)
        traces[f"detune_{label}"] = trace
        summary[f"peak_freq_ghz_{label}"] = peak
        worst = max(worst, abs(peak - d))
    summary["max_peak_error_ghz"] = worst
    summary["sweep_step_ghz"] = step
    return ExperimentResult("bandpass_tune", traces=traces, summary=summary)


def deint_phase_probe(overrides: Mapping[str, object], seed: int = 0
                      ) -> ExperimentResult:
    """Single-sideband probe of the de-interleaver: dividing the detected
    beat by the back-to-back one extracts the port's complex response
    relative to the carrier."""
    (lo, hi, step), m, heaters = _options("deint_phase_probe", overrides, {
        "sweep": (0.5, 29.5, 0.05), "modulation_index": 0.1})

    # per-port carrier placement: just inside the probed channel's start,
    # so the carrier beat reference stays strong across the whole band.
    fmt = ModulationFormat("SSB_upper", m)
    traces = {}
    for port, crossover in (("bar", -1.0), ("cross", 29.0)):
        graph = build_deinterleaver(DeinterleaverSpec.designed(
            crossover_offset_ghz=crossover)).with_heaters(heaters)
        traces[port] = rf_transmission_sweep(
            LinkConfig(fmt, graph, output_port=port), lo, hi, step)
    bar = traces["bar"]
    mask = band_mask(bar.rf_freqs_ghz, (5.0, 25.0))
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
    f0, p_max, p_step, m, att_db, p_anchor, heaters = _options(
        "amplitude_tuning", overrides, {
            "rf_freq_ghz": 20.0, "power_max_mw": DEFAULT_P_PI_MW,
            "power_step_mw": 0.25, "modulation_index": 0.1,
            "sideband_attenuation_db": 6.0, "anchor_power_mw": 22.0})
    if not (p_step > 0 and p_max >= 0):
        raise DomainError("amplitude_tuning needs power_step_mw > 0 and "
                          "power_max_mw >= 0")
    require_grid_size("amplitude_tuning power_max_mw over power_step_mw",
                      p_max, p_step)

    graph = _notch_shaper(f0, att_db).with_heaters(heaters)
    fmt = ModulationFormat("PM", m)

    # Anti-phase reference: fix the shifter so the sideband beats cancel
    # at a mid-sweep coupler setting, then leave it (uncompensated) or
    # co-tune it with the coupler's parasitic phase law (compensated).
    phi_anchor = heater_phase_from_power(p_anchor, DEFAULT_P_PI_MW)
    tones = bind_tones(LinkConfig(fmt, graph), np.array([f0]))
    phis, mags = _beat_vs_phase(tones, fmt, "ps_bar.phase",
                                base_heaters={"tc_bar.phase": phi_anchor})
    phi_base = float(phis[np.argmin(mags)])

    powers = np.arange(0.0, p_max + 1e-9, p_step)
    e_minus, e_carrier, e_plus = fmt.tones
    beat = detector(fmt)
    headers = ("heater_power_mw", "coupler_phase_rad", "upper_power",
               "lower_power", "carrier_power", "rf_phasor_abs")

    # one batched call per table; each row is reduced from its own NumPy
    # scalars, as a call per power would give them (NumPy's array abs and
    # powers may round differently from its scalar ones)
    phi_tc = heater_phase_from_power(powers, DEFAULT_P_PI_MW)
    tc_wrapped = phi_tc % TWO_PI

    def sweep_table(compensated: bool) -> Rows:
        phi_ps = phi_base + ((phi_anchor - phi_tc) / 2.0 if compensated else 0.0)
        hms, h0s, hps = tones({"tc_bar.phase": tc_wrapped,
                               "ps_bar.phase": phi_ps})
        return [(float(p), phi, abs(hp * e_plus) ** 2, abs(hm * e_minus) ** 2,
                 abs(h0 * e_carrier) ** 2, abs(beat(hm, h0, hp)))
                for p, phi, (hm,), (h0,), (hp,)
                in zip(powers, tc_wrapped, hms, h0s, hps)]

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
    gamma = FITTED_RING_AMPLITUDE
    kappa_crit = critical_coupling_kappa(gamma)
    kappas, span, step, heaters = _options("coupling_sweep", overrides, {
        "kappas": [0.05, 0.10, kappa_crit, 0.25, 0.40], "span_ghz": 5.0,
        "step_ghz": 0.01})
    if not (step > 0 and span >= 0 and all(0.0 <= k <= 1.0 for k in kappas)):
        raise DomainError("coupling_sweep needs step_ghz > 0, span_ghz >= 0 "
                          "and kappas in [0, 1]")
    keys = _labels("kappas", kappas, lambda k: f"kappa_{k:.4f}")
    require_grid_size("coupling_sweep 2*span_ghz over step_ghz", 2 * span, step)

    ring = BlockInstance("ring", "ring_allpass",
                         RingParams(FILTER_RING_FSR_GHZ, kappas[0],
                                    round_trip_amplitude=gamma))
    graph = CircuitGraph((ring,), (), inputs={"in": Port("ring", "in")},
                         outputs={"out": Port("ring", "out")}
                         ).with_heaters(heaters)
    offsets = np.arange(-span, span + 1e-9, step)
    batch = evaluate(graph, FrequencyGrid(DEFAULT_CARRIER_THZ, offsets),
                     heaters={"ring.coupling": np.array(
                         [coupling_phase(kappa) for kappa in kappas])})
    optical: dict[str, CircuitResponse] = {}
    summary: dict[str, object] = {"critical_kappa": kappa_crit,
                                  "round_trip_amplitude": gamma}
    for row, (kappa, key) in enumerate(zip(kappas, keys)):
        resp = CircuitResponse(batch.grid, {
            name: f[row] for name, f in batch.fields.items()})
        power = resp.power("out")
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
    OptimizerConfig(seed=seed)      # rejects a bad seed before the preset runs
    return preset(dict(overrides or {}), seed=seed)
