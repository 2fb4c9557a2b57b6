"""End-to-end RF-photonic link model.

A modulated optical spectrum is three complex tones: lower sideband,
carrier, upper sideband, offset by the RF frequency.  After propagation
through a circuit, square-law detection beats each sideband against the
carrier; the component of the photocurrent at the RF frequency has
complex amplitude

    ``responsivity * (E0 * conj(E-) + conj(E0) * E+)``

which is what :func:`detect_rf_phasor` returns.  The full cosine swing of
the photocurrent is twice this phasor's magnitude (the two beat terms are
reported one-sided).  :func:`time_domain_oracle` checks the same quantity
by brute force: it synthesises the field over many RF periods, squares
it, and projects out the fundamental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import kernels
from .blocks import FrequencyGrid
from .circuit import CircuitGraph, evaluate
from .constants import DEFAULT_CARRIER_THZ, DEFAULT_RESPONSIVITY_A_PER_W
from .errors import ConfigurationError, DomainError

#: Floor applied to magnitudes before taking logs, in dB.
MAG_FLOOR_DB = -300.0

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
class DetectorParams:
    responsivity_a_per_w: float = DEFAULT_RESPONSIVITY_A_PER_W

    def __post_init__(self):
        if not (self.responsivity_a_per_w > 0):
            raise DomainError("responsivity must be > 0")


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


def apply_circuit(spec: ModulatedSpectrum, graph: CircuitGraph,
                  output_port: str) -> ModulatedSpectrum:
    """Propagate each tone through the circuit at its own offset."""
    f = spec.rf_freq_ghz
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ, np.array([-f, 0.0, f]))
    h = evaluate(graph, grid).port(output_port)
    return ModulatedSpectrum(f, h[0] * spec.e_minus, h[1] * spec.e_carrier,
                             h[2] * spec.e_plus)


def detect_rf_phasor(spec: ModulatedSpectrum,
                     det: DetectorParams = DetectorParams()) -> complex:
    """Complex amplitude of the photocurrent component at the RF frequency."""
    ec = spec.e_carrier
    return det.responsivity_a_per_w * (
        ec * np.conj(spec.e_minus) + np.conj(ec) * spec.e_plus)


def time_domain_oracle(spec: ModulatedSpectrum,
                       det: DetectorParams = DetectorParams()) -> complex:
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
    current = det.responsivity_a_per_w * (field * field.conj()).real
    return complex(np.sum(current * np.exp(-1j * w_t)) / n)


@dataclass(frozen=True)
class LinkConfig:
    """A complete link: modulation format, circuit, unit-carrier detection."""

    fmt: ModulationFormat
    graph: CircuitGraph
    output_port: str = "detector"
    input_name: str | None = None


def _back_to_back_reference(link: LinkConfig) -> tuple[float, str]:
    """0 dB reference: the same link without the circuit.

    A phase-modulated back-to-back link detects nothing, so PM traces are
    referenced to the equivalent intensity-modulated link instead.
    """
    b2b = abs(detect_rf_phasor(make_spectrum(link.fmt, 1.0)))
    if b2b > 1e-12:
        return b2b, "back_to_back_same_format"
    im_probe = make_spectrum(ModulationFormat("IM", link.fmt.modulation_index), 1.0)
    return abs(detect_rf_phasor(im_probe)), "back_to_back_im_equivalent"


def rf_transmission_sweep(link: LinkConfig, rf_lo_ghz: float, rf_hi_ghz: float,
                          step_ghz: float,
                          heaters: Mapping[str, float] | None = None) -> RfResponse:
    """Swept RF transfer of the link, normalised to the back-to-back level.

    The circuit is evaluated once over the mirrored offset grid
    ``{-f_N..-f_1, 0, f_1..f_N}`` and the beat phasor is formed per sweep
    point, which keeps the sweep cost one graph evaluation.
    """
    if not (step_ghz > 0):
        raise DomainError("step_ghz must be > 0")
    if not (0 < rf_lo_ghz < rf_hi_ghz):
        raise DomainError("need 0 < rf_lo < rf_hi")
    n = int(round((rf_hi_ghz - rf_lo_ghz) / step_ghz))
    fs = rf_lo_ghz + step_ghz * np.arange(n + 1)

    offsets = np.concatenate([-fs[::-1], [0.0], fs])
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ, offsets)
    resp = evaluate(link.graph, grid, input_name=link.input_name, heaters=heaters)
    h = resp.port(link.output_port)
    h_minus = h[: fs.size][::-1]
    h_zero = complex(h[fs.size])
    h_plus = h[fs.size + 1:]

    probe = make_spectrum(link.fmt, 1.0)
    phasor = kernels.beat_phasor_grid(
        h_zero, h_minus, h_plus, probe.e_minus, probe.e_carrier,
        probe.e_plus, DetectorParams().responsivity_a_per_w)

    ref, ref_name = _back_to_back_reference(link)
    mag = np.abs(phasor) / ref
    floor = 10.0 ** (MAG_FLOOR_DB / 20.0)
    mag_db = 20.0 * np.log10(np.maximum(mag, floor))
    phase = np.unwrap(np.angle(phasor))
    return RfResponse(fs, mag_db, phase, {
        "reference": ref_name,
        "output_port": link.output_port,
        "format": link.fmt.kind,
    })
