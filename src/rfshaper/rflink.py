"""End-to-end RF-photonic link model.

A modulated optical spectrum is three complex tones: lower sideband,
carrier, upper sideband, offset by the RF frequency
(:attr:`ModulationFormat.tones`).  After propagation through a circuit,
square-law detection beats each sideband against the carrier; the
component of the photocurrent at the RF frequency has complex amplitude

    ``R * (E0 * conj(E-) + conj(E0) * E+)``

with ``R = DEFAULT_RESPONSIVITY_A_PER_W``.  :func:`detector` forms it
from a format and the circuit responses at the three tones, with
:func:`rfshaper.kernels.beat_phasor_grid`.  The full cosine swing of the
photocurrent is twice this phasor's magnitude (the two beat terms are
reported one-sided).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import kernels
from .blocks import FrequencyGrid
from .circuit import CircuitGraph, CircuitResponse, bind, evaluate
from .constants import DEFAULT_CARRIER_THZ, DEFAULT_RESPONSIVITY_A_PER_W
from .errors import ConfigurationError, DomainError

#: Floor applied to magnitudes before taking logs, in dB.
MAG_FLOOR_DB = -300.0
_MAG_FLOOR = 10.0 ** (MAG_FLOOR_DB / 20.0)

FORMAT_KINDS = ("IM", "PM", "SSB_upper", "SSB_lower")


@dataclass(frozen=True)
class ModulationFormat:
    """Small-signal modulation format.

    ``modulation_index`` is the sideband-to-carrier field ratio, at most
    1 for this small-signal three-tone model.  For
    intensity modulation both sidebands are in phase; for phase
    modulation they are anti-phased, so the two carrier beats cancel at
    the detector; single-sideband formats zero one sideband.
    """

    kind: str = "IM"
    modulation_index: float = 0.1

    def __post_init__(self):
        if self.kind not in FORMAT_KINDS:
            raise ConfigurationError(f"unknown modulation kind {self.kind!r}")
        if not (0.0 < self.modulation_index <= 1.0):
            raise DomainError("modulation_index must be in (0, 1], got "
                              f"{self.modulation_index}")

    @property
    def tones(self) -> tuple[complex, complex, complex]:
        """``(e_minus, e_carrier, e_plus)`` for a unit carrier.  An absent
        single sideband is the float ``0.0``, whose signed zeros keep the
        beat's phase."""
        a = complex(1.0)
        m = self.modulation_index
        if self.kind == "IM":
            return m * a, a, m * a
        if self.kind == "PM":
            return -m * a, a, m * a
        if self.kind == "SSB_upper":
            return 0.0, a, m * a
        return m * a, a, 0.0


@dataclass(frozen=True)
class RfResponse:
    """Swept RF transfer curve (the primary simulator output)."""

    rf_freqs_ghz: np.ndarray
    mag_db: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.rf_freqs_ghz, dtype=float)
        m = np.asarray(self.mag_db, dtype=float)
        p = np.asarray(self.phase_rad, dtype=float)
        if not (f.shape == m.shape == p.shape):
            raise DomainError("rf_freqs, mag_db, phase_rad must share a shape")
        object.__setattr__(self, "rf_freqs_ghz", f)
        object.__setattr__(self, "mag_db", m)
        object.__setattr__(self, "phase_rad", p)


def detector(fmt: ModulationFormat) -> Callable[..., np.ndarray]:
    """``beat(h_minus, h_zero, h_plus)``: the detected beat phasor of the
    format's unit-carrier tones after a circuit whose responses at the
    lower sideband, the carrier and the upper sideband are given (scalars
    or arrays that broadcast together)."""
    e_minus, e_carrier, e_plus = fmt.tones

    def beat(h_minus, h_zero, h_plus) -> np.ndarray:
        return kernels.beat_phasor_grid(
            h_zero, h_minus, h_plus, e_minus, e_carrier, e_plus,
            DEFAULT_RESPONSIVITY_A_PER_W)
    return beat


@dataclass(frozen=True)
class LinkConfig:
    """A complete link: modulation format, circuit, unit-carrier detection."""

    fmt: ModulationFormat
    graph: CircuitGraph
    output_port: str = "detector"


def back_to_back_reference(fmt: ModulationFormat) -> float:
    """0 dB reference: the detected beat of the format without a circuit.

    A phase-modulated back-to-back link detects nothing, so PM traces are
    referenced to the equivalent intensity-modulated link instead.
    """
    if fmt.kind == "PM":
        fmt = ModulationFormat("IM", fmt.modulation_index)
    return abs(detector(fmt)(1.0, 1.0, 1.0))


def magnitude_db(phasor: np.ndarray, ref: float) -> np.ndarray:
    """RF magnitude in dB relative to ``ref``, floored at ``MAG_FLOOR_DB``."""
    return 20.0 * np.log10(np.maximum(np.abs(phasor) / ref, _MAG_FLOOR))


def _tone_grid(fs: np.ndarray) -> FrequencyGrid:
    """The mirrored offsets ``{-fs[::-1], 0, fs}``: the lower sidebands,
    the carrier and the upper sidebands at the RF frequencies ``fs``,
    which must be > 0 and strictly increasing."""
    bad = np.flatnonzero(~(fs > np.concatenate([[0.0], fs[:-1]])))
    if bad.size:
        i = bad[0]
        raise DomainError(
            "RF frequencies must be > 0 and strictly increasing, got "
            f"{fs[i]:g} GHz" + (f" after {fs[i - 1]:g} GHz" if i else ""))
    return FrequencyGrid(DEFAULT_CARRIER_THZ,
                         np.concatenate([-fs[::-1], [0.0], fs]))


def _split_tones(resp: CircuitResponse, port: str, n: int) -> tuple:
    """``(h_minus, h_zero, h_plus)`` at ``port`` of a response over the
    :func:`_tone_grid` of ``n`` RF frequencies.  For a batched response
    of K rows, the sidebands are ``(K, n)`` and the carrier a ``(K, 1)``
    column, so the three broadcast together."""
    h = resp.port(port)
    h_zero = h[n] if h.ndim == 1 else h[:, n:n + 1]
    return h[..., :n][..., ::-1], h_zero, h[..., n + 1:]


def bind_tones(link: LinkConfig, fs: np.ndarray
               ) -> Callable[[Mapping[str, float] | None], tuple]:
    """``(h_minus, h_zero, h_plus)``, the responses at ``link.output_port``
    to the lower sidebands (in the order of ``fs``), the carrier (a NumPy
    scalar) and the upper sidebands at the RF frequencies ``fs``, as a
    function of heater settings.  The circuit is bound (see
    :func:`rfshaper.circuit.bind`) once on the mirrored offsets
    ``{-fs[::-1], 0, fs}`` and keeps every port's field for the calls.
    Heaters set to arrays of K settings give ``(K, fs.size)`` sidebands
    and a ``(K, 1)`` carrier column, which broadcast together in
    :func:`detector`'s beat."""
    evaluate_at = bind(link.graph, _tone_grid(fs))

    def tones(heaters: Mapping[str, float] | None = None) -> tuple:
        return _split_tones(evaluate_at(heaters), link.output_port, fs.size)
    return tones


def rf_transmission_sweep(link: LinkConfig, rf_lo_ghz: float, rf_hi_ghz: float,
                          step_ghz: float,
                          heaters: Mapping[str, float] | None = None) -> RfResponse:
    """Swept RF transfer of the link with ``heaters`` set, normalised to
    the back-to-back level, from one :func:`rfshaper.circuit.evaluate` on
    the mirrored offsets of :func:`bind_tones`.  Like ``evaluate`` it
    streams, holding about the graph's cut width times the grid."""
    fs = FrequencyGrid.sweep(rf_lo_ghz, rf_hi_ghz, step_ghz).offsets_ghz
    resp = evaluate(link.graph, _tone_grid(fs), heaters=heaters)
    phasor = detector(link.fmt)(*_split_tones(resp, link.output_port, fs.size))
    return RfResponse(fs, magnitude_db(phasor, back_to_back_reference(link.fmt)),
                      np.unwrap(np.angle(phasor)))
