"""End-to-end RF-photonic link model.

A modulated optical spectrum is three complex tones: lower sideband,
carrier, upper sideband, offset by the RF frequency.  After propagation
through a circuit, square-law detection beats each sideband against the
carrier; the component of the photocurrent at the RF frequency has
complex amplitude

    ``R * (E0 * conj(E-) + conj(E0) * E+)``

with ``R = DEFAULT_RESPONSIVITY_A_PER_W``.  :func:`detector` forms it
from circuit responses and :func:`detect_rf_phasor` from a spectrum,
both with :func:`rfshaper.kernels.beat_phasor_grid`.  The full cosine
swing of the photocurrent is twice this phasor's magnitude (the two beat
terms are reported one-sided).  :func:`time_domain_oracle` checks the
same quantity by brute force: it synthesises the field over many RF
periods, squares it, and projects out the fundamental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import kernels
from .blocks import FrequencyGrid
from .circuit import CircuitGraph, bind
from .constants import DEFAULT_CARRIER_THZ, DEFAULT_RESPONSIVITY_A_PER_W
from .errors import ConfigurationError, DomainError

#: Floor applied to magnitudes before taking logs, in dB.
MAG_FLOOR_DB = -300.0
_MAG_FLOOR = 10.0 ** (MAG_FLOOR_DB / 20.0)

FORMAT_KINDS = ("IM", "PM", "SSB_upper", "SSB_lower")


@dataclass(frozen=True)
class ModulatedSpectrum:
    """Three-tone spectrum: complex field amplitudes at -f_RF, 0, +f_RF."""

    rf_freq_ghz: float
    e_minus: complex
    e_carrier: complex
    e_plus: complex

    def __post_init__(self):
        if not (self.rf_freq_ghz > 0):
            raise DomainError("rf_freq_ghz must be > 0")
        for v in (self.e_minus, self.e_carrier, self.e_plus):
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise DomainError("tone amplitudes must be finite")


@dataclass(frozen=True)
class ModulationFormat:
    """Small-signal modulation format.

    ``modulation_index`` is the sideband-to-carrier field ratio.  For
    intensity modulation both sidebands are in phase; for phase
    modulation they are anti-phased, so the two carrier beats cancel at
    the detector; single-sideband formats zero one sideband.
    """

    kind: str = "IM"
    modulation_index: float = 0.1

    def __post_init__(self):
        if self.kind not in FORMAT_KINDS:
            raise ConfigurationError(f"unknown modulation kind {self.kind!r}")
        if not (self.modulation_index > 0):
            raise DomainError("modulation_index must be > 0")


@dataclass(frozen=True)
class RfResponse:
    """Swept RF transfer curve (the primary simulator output)."""

    rf_freqs_ghz: np.ndarray
    mag_db: np.ndarray
    phase_rad: np.ndarray
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.rf_freqs_ghz, dtype=float)
        m = np.asarray(self.mag_db, dtype=float)
        p = np.asarray(self.phase_rad, dtype=float)
        if not (f.shape == m.shape == p.shape):
            raise DomainError("rf_freqs, mag_db, phase_rad must share a shape")
        object.__setattr__(self, "rf_freqs_ghz", f)
        object.__setattr__(self, "mag_db", m)
        object.__setattr__(self, "phase_rad", p)
        object.__setattr__(self, "metadata", dict(self.metadata))


def make_spectrum(fmt: ModulationFormat, rf_freq_ghz: float,
                  carrier_amplitude: complex = 1.0) -> ModulatedSpectrum:
    """First-order three-tone spectrum for a modulation format."""
    a = complex(carrier_amplitude)
    m = fmt.modulation_index
    if fmt.kind == "IM":
        em, ep = m * a, m * a
    elif fmt.kind == "PM":
        em, ep = -m * a, m * a
    elif fmt.kind == "SSB_upper":
        em, ep = 0.0, m * a
    else:
        em, ep = m * a, 0.0
    return ModulatedSpectrum(rf_freq_ghz, em, a, ep)


def detector(fmt: ModulationFormat) -> Callable[..., np.ndarray]:
    """``beat(h_minus, h_zero, h_plus)``: the detected beat phasor of the
    format's unit-carrier tones after a circuit whose responses at the
    lower sideband, the carrier and the upper sideband are given (scalars
    or arrays that broadcast together)."""
    probe = make_spectrum(fmt, 1.0)

    def beat(h_minus, h_zero, h_plus) -> np.ndarray:
        return kernels.beat_phasor_grid(
            h_zero, h_minus, h_plus, probe.e_minus, probe.e_carrier,
            probe.e_plus, DEFAULT_RESPONSIVITY_A_PER_W)
    return beat


def detect_rf_phasor(spec: ModulatedSpectrum) -> complex:
    """Complex amplitude of the photocurrent component at the RF frequency."""
    return kernels.beat_phasor_grid(
        1.0, 1.0, 1.0, spec.e_minus, spec.e_carrier, spec.e_plus,
        DEFAULT_RESPONSIVITY_A_PER_W)


def time_domain_oracle(spec: ModulatedSpectrum) -> complex:
    """Brute-force check of :func:`detect_rf_phasor`.

    Synthesises the three tones in the rotating carrier frame (the
    carrier phasor drops out of the squared magnitude), forms the
    photocurrent, and projects onto the RF fundamental by a discrete
    inner product over 8 whole periods of 64 samples.
    """
    n = 64 * 8
    w_t = 2.0 * math.pi * np.arange(n) / 64  # omega * t
    field = (spec.e_minus * np.exp(-1j * w_t) + spec.e_carrier
             + spec.e_plus * np.exp(1j * w_t))
    current = DEFAULT_RESPONSIVITY_A_PER_W * (field * field.conj()).real
    return complex(np.sum(current * np.exp(-1j * w_t)) / n)


@dataclass(frozen=True)
class LinkConfig:
    """A complete link: modulation format, circuit, unit-carrier detection."""

    fmt: ModulationFormat
    graph: CircuitGraph
    output_port: str = "detector"


def back_to_back_reference(link: LinkConfig) -> tuple[float, str]:
    """0 dB reference: the same link without the circuit.

    A phase-modulated back-to-back link detects nothing, so PM traces are
    referenced to the equivalent intensity-modulated link instead.
    """
    b2b = abs(detector(link.fmt)(1.0, 1.0, 1.0))
    if b2b > 1e-12:
        return b2b, "back_to_back_same_format"
    im = detector(ModulationFormat("IM", link.fmt.modulation_index))
    return abs(im(1.0, 1.0, 1.0)), "back_to_back_im_equivalent"


def magnitude_db(phasor: np.ndarray, ref: float) -> np.ndarray:
    """RF magnitude in dB relative to ``ref``, floored at ``MAG_FLOOR_DB``."""
    return 20.0 * np.log10(np.maximum(np.abs(phasor) / ref, _MAG_FLOOR))


def bind_beat_phasor(link: LinkConfig, fs: np.ndarray,
                     heater_names: Iterable[str]
                     ) -> Callable[[Mapping[str, float] | None], np.ndarray]:
    """Detected beat phasor of the link at the RF frequencies ``fs`` as a
    function of the named heaters.

    The circuit is bound (see :func:`rfshaper.circuit.bind`) once on the
    mirrored offset grid ``{-fs[::-1], 0, fs}``.
    """
    n = fs.size
    offsets = np.concatenate([-fs[::-1], [0.0], fs])
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ, offsets)
    evaluate_at = bind(link.graph, grid, heater_names)
    beat = detector(link.fmt)

    def phasor(heaters: Mapping[str, float] | None = None) -> np.ndarray:
        h = evaluate_at(heaters).port(link.output_port)
        return beat(h[:n][::-1], complex(h[n]), h[n + 1:])
    return phasor


def bind_sweep(link: LinkConfig, rf_lo_ghz: float, rf_hi_ghz: float,
               step_ghz: float, heater_names: Iterable[str]
               ) -> Callable[[Mapping[str, float] | None], RfResponse]:
    """Swept RF transfer of the link as a function of the named heaters.

    The sweep frequencies, the bound beat phasor (see
    :func:`bind_beat_phasor`) and the back-to-back reference are computed
    once; each call of the returned function gives what
    :func:`rf_transmission_sweep` gives with those heater settings.
    """
    if not (rf_lo_ghz > 0):
        raise DomainError("need 0 < rf_lo < rf_hi")
    fs = FrequencyGrid.sweep(rf_lo_ghz, rf_hi_ghz, step_ghz).offsets_ghz
    fs.flags.writeable = False

    phasor_at = bind_beat_phasor(link, fs, heater_names)
    ref, ref_name = back_to_back_reference(link)
    metadata = {"reference": ref_name, "output_port": link.output_port,
                "format": link.fmt.kind}

    def sweep(heaters: Mapping[str, float] | None = None) -> RfResponse:
        phasor = phasor_at(heaters)
        return RfResponse(fs, magnitude_db(phasor, ref),
                          np.unwrap(np.angle(phasor)), metadata)
    return sweep


def rf_transmission_sweep(link: LinkConfig, rf_lo_ghz: float, rf_hi_ghz: float,
                          step_ghz: float,
                          heaters: Mapping[str, float] | None = None) -> RfResponse:
    """Swept RF transfer of the link, normalised to the back-to-back level.

    The circuit is evaluated once over the mirrored offset grid
    ``{-f_N..-f_1, 0, f_1..f_N}`` and the beat phasor is formed per sweep
    point, which keeps the sweep cost one graph evaluation.  A caller
    that sweeps one link many times should :func:`bind_sweep` it once.
    """
    return bind_sweep(link, rf_lo_ghz, rf_hi_ghz, step_ghz,
                      tuple(heaters or ()))(heaters)
