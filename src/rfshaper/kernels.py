"""Frequency-sweep kernels: one block response over a whole offset grid.

These are the only implementations of the waveguide, ring and beat
responses; ``blocks.BLOCK_KINDS`` reaches them through each kind's
``response``.  The scalar closed forms in ``tests/reference.py`` are
the reference they are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularityError

TWO_PI = 2.0 * np.pi
_TINY = np.finfo(np.float64).tiny


def _phase(offsets_ghz, detune_ghz: float, fsr_ghz: float) -> np.ndarray:
    """``2*pi*(f - detune)/fsr``, the phase of a delay or a ring round
    trip at each offset ``f``.  Where it overflows, DomainError names the
    first such offset and NumPy warns of nothing: a bound in Python
    floats, which overflow quietly, clears the usual grid at the cost of
    one reduction.  A ``(K, 1)`` column of detunes gives ``(K, N)``
    phases, and the error names the first overflowing row."""
    f = np.asarray(offsets_ghz, dtype=np.float64)
    # a NumPy reduction on a float detune would cost microseconds a call
    d = (float(np.abs(detune_ghz).max()) if isinstance(detune_ghz, np.ndarray)
         else abs(float(detune_ghz)))
    if (float(np.abs(f).max()) + d) * TWO_PI / float(fsr_ghz) < 1e300:
        return TWO_PI * (f - detune_ghz) / fsr_ghz
    with np.errstate(over="ignore", invalid="ignore"):
        ang = TWO_PI * (f - detune_ghz) / fsr_ghz
    bad = ~np.isfinite(ang)
    if bad.any():
        f, d = np.broadcast_arrays(f, detune_ghz)
        raise DomainError(
            f"phase 2*pi*(f - detune)/fsr overflows at offset "
            f"{f[bad][0]:g} GHz (detune {d[bad][0]:g} GHz, "
            f"fsr {fsr_ghz:g} GHz)")
    return ang


def waveguide_grid(offsets_ghz: np.ndarray, gamma: float,
                   fsr_equivalent_ghz: float) -> np.ndarray:
    """``gamma * exp(-1j*2*pi*f/fsr)`` over the grid."""
    ang = _phase(offsets_ghz, 0.0, fsr_equivalent_ghz)
    return gamma * (np.cos(ang) - 1j * np.sin(ang))


def _check_pole(den: np.ndarray, offsets: np.ndarray, loop_gain: float) -> None:
    """Reject grid points on the pole of a lossless uncoupled ring (the
    only ring with unit loop gain, since |1 - den| <= loop_gain), or so
    close to it that ``den`` is subnormal, where NumPy's complex division
    overflows; its response at every other point is one to rounding.
    With ``(K, N)`` ``den`` and a float or ``(K, 1)`` loop gain, the
    error names the first failing row's point."""
    # a loop gain below 1, the usual ring, needs no search of ``den``: a
    # float one costs no NumPy reduction, a column one a reduction of K
    # entries
    if isinstance(loop_gain, np.ndarray):
        hot = loop_gain >= 1.0
        if not hot.any():
            return
        near = (np.abs(den) < _TINY) & hot
    elif loop_gain >= 1.0:
        near = np.abs(den) < _TINY
    else:
        return
    if near.any():
        at = np.ravel(offsets)[np.nonzero(np.atleast_1d(near))[-1][0]]
        raise SingularityError(
            f"lossless uncoupled ring on resonance at {at:g} GHz")


def ring_allpass_grid(offsets_ghz: np.ndarray, self_coupling: float,
                      round_trip_amplitude: float, fsr_ghz: float,
                      detune_ghz: float) -> np.ndarray:
    """All-pass ring through response over the grid."""
    ang = _phase(offsets_ghz, detune_ghz, fsr_ghz)
    p = round_trip_amplitude * (np.cos(ang) - 1j * np.sin(ang))
    c = self_coupling
    den = 1.0 - c * p
    _check_pole(den, offsets_ghz, c * round_trip_amplitude)
    return (c - p) / den


def ring_adddrop_grid(offsets_ghz: np.ndarray, kappa_in: float,
                      kappa_drop: float, round_trip_amplitude: float,
                      fsr_ghz: float, detune_ghz: float):
    """Add-drop ring (through_in, drop, through_add) over the grid.

    ``through_in`` is input-bus through, ``through_add`` the add-bus
    through, ``drop`` the (reciprocal) bus-to-bus transfer.  The couplers
    are given as power couplings, so the drop amplitude
    ``sqrt(kappa_in*kappa_drop)`` keeps full precision for weak couplers.
    """
    c1 = np.sqrt(1.0 - kappa_in)
    c2 = np.sqrt(1.0 - kappa_drop)
    s1s2 = np.sqrt(kappa_in * kappa_drop)
    g = round_trip_amplitude
    ang = _phase(offsets_ghz, detune_ghz, fsr_ghz)
    p = g * (np.cos(ang) - 1j * np.sin(ang))
    hang = 0.5 * ang
    p_half = np.sqrt(g) * (np.cos(hang) - 1j * np.sin(hang))
    den = 1.0 - c1 * c2 * p
    _check_pole(den, offsets_ghz, c1 * c2 * g)
    through_in = (c1 - c2 * p) / den
    through_add = (c2 - c1 * p) / den
    drop = (-s1s2 * p_half) / den
    return through_in, drop, through_add


def beat_phasor_grid(h_zero, h_minus: np.ndarray, h_plus: np.ndarray,
                     e_minus: complex, e_carrier: complex, e_plus: complex,
                     responsivity: float) -> np.ndarray:
    """RF beat phasor for a three-tone spectrum after a circuit.

    ``h_minus``/``h_plus`` are the circuit responses at the lower/upper
    sideband offsets over the RF sweep; ``h_zero`` at the carrier, a
    scalar or an array of the same shape (one carrier response per
    circuit setting).
    """
    ec = h_zero * e_carrier
    return responsivity * (ec * np.conj(h_minus * e_minus)
                           + np.conj(ec) * (h_plus * e_plus))
