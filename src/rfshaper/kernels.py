"""Transfer functions of the building blocks: the only implementations
of the waveguide, phase-shifter, coupler, ring and beat responses.
``blocks.BLOCK_KINDS`` reaches them through each kind's ``response``,
and ``tests/reference.py`` holds the scalar closed forms they are tested
against.  Conventions used throughout the package:

* Phase delays multiply the field by ``exp(-1j*phi)``; a positive phase
  setting therefore retards the wave.
* Frequencies are offsets from the optical carrier in GHz.  A delay of
  equivalent free spectral range ``fsr`` contributes
  ``exp(-1j*2*pi*offset/fsr)``; the absolute carrier phase is common to
  every path and is dropped.
* Loss figures are power dB, so field amplitudes use a ``/20`` exponent.
* A response takes a parameter as a float or as a ``(K, 1)`` column of K
  settings, and gives in each row what the float would bit for bit: the
  grid kernels broadcast a column against the offsets, and the flat
  responses' phasor ``_unit_phasor`` applies :mod:`math` to each entry,
  since NumPy's SIMD ``sin`` and ``cos`` may round differently.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError

TWO_PI = 2.0 * np.pi
_TINY = np.finfo(np.float64).tiny


def _require_finite(name: str, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DomainError(f"{name}: non-finite value "
                              f"{_first_failing(v, np.isfinite(v))!r}")


def _first_failing(value, ok):
    """The first entry of ``value`` (a number or a column) where ``ok``
    fails, as a plain number: an error names the row the float call
    would name, and ``nan`` rather than ``np.float64(nan)``."""
    return np.ravel(value)[~np.ravel(ok)][0].item()


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


def _unit_phasor(phase_rad: float) -> complex:
    """``exp(-1j*phi)`` by :mod:`math`, a column entry by entry."""
    if isinstance(phase_rad, np.ndarray):
        return np.array([_unit_phasor(v) for v in phase_rad.ravel().tolist()]
                        ).reshape(phase_rad.shape)
    return complex(math.cos(phase_rad), -math.sin(phase_rad))


def h_phase_shifter(phase_rad: float) -> complex:
    """Pure phase delay ``exp(-1j*phi)``."""
    _require_finite("h_phase_shifter", phase_rad)
    return _unit_phasor(phase_rad)


def h_coupler_3db() -> tuple:
    """Ideal 3-dB directional coupler, as transfer-matrix rows: entry
    ``[i][j]`` maps input port j to output port i."""
    a = math.sqrt(0.5)
    return ((a, -1j * a), (-1j * a, a))


def h_tunable_coupler(phase_rad: float) -> tuple:
    """Balanced-MZI tunable coupler: two 3-dB couplers around a phase arm,
    as rows ``((bar, cross), (cross, -bar))``.

    Bar amplitude is ``0.5*(1 - exp(-1j*phi))`` (power ``sin^2(phi/2)``)
    and carries a phase ``pi/2 - phi/2`` that rotates with the setting;
    this parasitic rotation is deliberate and must be compensated
    downstream when pure amplitude control is wanted.
    """
    _require_finite("h_tunable_coupler", phase_rad)
    e = _unit_phasor(phase_rad)
    bar = 0.5 * (1.0 - e)
    cross = -0.5j * (1.0 + e)
    return ((bar, cross), (cross, -bar))


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
