"""Frequency-sweep kernels: one block response over a whole offset grid.

These are the only array implementations of the block responses; the
scalar ``h_*`` functions in :mod:`rfshaper.blocks` are the closed-form
reference they are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError

TWO_PI = 2.0 * np.pi


def waveguide_grid(offsets_ghz: np.ndarray, gamma: float,
                   fsr_equivalent_ghz: float) -> np.ndarray:
    """``gamma * exp(-1j*2*pi*f/fsr)`` over the grid."""
    ang = TWO_PI * np.asarray(offsets_ghz, dtype=np.float64) / fsr_equivalent_ghz
    return gamma * (np.cos(ang) - 1j * np.sin(ang))


def _check_pole(den: np.ndarray, offsets: np.ndarray, loop_gain: float) -> None:
    """Reject grid points exactly on the pole of a lossless uncoupled ring
    (the only ring with unit loop gain, since |1 - den| <= loop_gain);
    its response at every other point is one to rounding."""
    if loop_gain >= 1.0 and not den.all():
        at = np.ravel(offsets)[np.flatnonzero(den == 0)[0]]
        raise SingularityError(f"lossless uncoupled ring on resonance at {at:g} GHz")


def ring_allpass_grid(offsets_ghz: np.ndarray, self_coupling: float,
                      round_trip_amplitude: float, fsr_ghz: float,
                      detune_ghz: float) -> np.ndarray:
    """All-pass ring through response over the grid."""
    f = np.asarray(offsets_ghz, dtype=np.float64)
    ang = TWO_PI * (f - detune_ghz) / fsr_ghz
    p = round_trip_amplitude * (np.cos(ang) - 1j * np.sin(ang))
    c = self_coupling
    den = 1.0 - c * p
    _check_pole(den, f, c * round_trip_amplitude)
    return (c - p) / den


def ring_adddrop_grid(offsets_ghz: np.ndarray, self_coupling_in: float,
                      self_coupling_drop: float, round_trip_amplitude: float,
                      fsr_ghz: float, detune_ghz: float):
    """Add-drop ring (through_in, drop, through_add) over the grid.

    ``through_in`` is input-bus through, ``through_add`` the add-bus
    through, ``drop`` the (reciprocal) bus-to-bus transfer.
    """
    f = np.asarray(offsets_ghz, dtype=np.float64)
    c1 = self_coupling_in
    c2 = self_coupling_drop
    s1s2 = np.sqrt((1.0 - c1 * c1) * (1.0 - c2 * c2))
    g = round_trip_amplitude
    ang = TWO_PI * (f - detune_ghz) / fsr_ghz
    p = g * (np.cos(ang) - 1j * np.sin(ang))
    hang = 0.5 * ang
    p_half = np.sqrt(g) * (np.cos(hang) - 1j * np.sin(hang))
    den = 1.0 - c1 * c2 * p
    _check_pole(den, f, c1 * c2 * g)
    through_in = (c1 - c2 * p) / den
    through_add = (c2 - c1 * p) / den
    drop = (-s1s2 * p_half) / den
    return through_in, drop, through_add


def beat_phasor_grid(h_zero: complex, h_minus: np.ndarray, h_plus: np.ndarray,
                     e_minus: complex, e_carrier: complex, e_plus: complex,
                     responsivity: float) -> np.ndarray:
    """RF beat phasor for a three-tone spectrum after a circuit.

    ``h_minus``/``h_plus`` are the circuit responses at the lower/upper
    sideband offsets over the RF sweep; ``h_zero`` at the carrier.
    """
    ec = h_zero * e_carrier
    return responsivity * (ec * np.conj(h_minus * e_minus)
                           + np.conj(ec) * (h_plus * e_plus))
