"""Scalar closed forms of the waveguide and ring responses, and a
brute-force RF beat.

Test-only reference for :mod:`rfshaper.kernels`, which holds the one
implementation the simulator runs.  The responses are the z-domain forms
of Madsen & Zhao, *Optical Filter Design and Analysis* (1999), written
out per offset so that a kernel bug cannot hide in shared code.
"""

from __future__ import annotations

import math

import numpy as np

from rfshaper.blocks import RingParams, WaveguideParams, _require_finite
from rfshaper.constants import DEFAULT_RESPONSIVITY_A_PER_W
from rfshaper.errors import ConfigurationError, DomainError, SingularityError

_TWO_PI = 2.0 * math.pi


def z_inverse(offset_ghz, fsr_ghz: float):
    """Unit delay phasor ``exp(-1j*2*pi*offset/fsr)`` (built from its angle)."""
    _require_finite("z_inverse", offset_ghz, fsr_ghz)
    if not (fsr_ghz > 0):
        raise DomainError("fsr_ghz must be > 0")
    ang = _TWO_PI * np.asarray(offset_ghz, dtype=float) / fsr_ghz
    out = np.cos(ang) - 1j * np.sin(ang)
    return complex(out) if np.isscalar(offset_ghz) else out


def h_waveguide(offset_ghz, params: WaveguideParams,
                fsr_equivalent_ghz: float | None = None):
    """Bus waveguide response ``gamma * z^-1``.

    The delay's equivalent FSR defaults to the one implied by the
    parameters' group path; passing it explicitly overrides that.
    """
    fsr = params.fsr_equivalent_ghz if fsr_equivalent_ghz is None else fsr_equivalent_ghz
    return params.gamma * z_inverse(offset_ghz, fsr)


def _round_trip_phasor(offset_ghz, params: RingParams):
    ang = _TWO_PI * (np.asarray(offset_ghz, dtype=float) - params.detune_ghz) / params.fsr_ghz
    return params.round_trip_amplitude * (np.cos(ang) - 1j * np.sin(ang))


def h_ring_allpass(offset_ghz, params: RingParams):
    """All-pass ring through-port response ``(c - p)/(1 - c*p)``.

    ``p`` is the full round-trip phasor (loss times delay) and ``c`` the
    bus self-coupling.
    """
    _require_finite("h_ring_allpass", offset_ghz)
    c = params.self_coupling
    if c * params.round_trip_amplitude >= 1.0 - 1e-15:
        raise SingularityError(
            "c * round_trip_amplitude == 1: lossless uncoupled ring is singular")
    p = _round_trip_phasor(offset_ghz, params)
    out = (c - p) / (1.0 - c * p)
    return complex(out) if np.isscalar(offset_ghz) else out


def h_ring_adddrop(offset_ghz, params: RingParams):
    """Add-drop ring (through, drop) responses.

    Symmetric two-coupler form; the drop path crosses half the ring, so it
    carries half the round-trip loss and phase.
    """
    _require_finite("h_ring_adddrop", offset_ghz)
    if params.kappa_drop is None:
        raise ConfigurationError("add-drop ring requires kappa_drop")
    c1 = params.self_coupling
    c2 = math.sqrt(1.0 - params.kappa_drop)
    s1 = math.sqrt(params.kappa)
    s2 = math.sqrt(params.kappa_drop)
    g = params.round_trip_amplitude
    if c1 * c2 * g >= 1.0 - 1e-15:
        raise SingularityError("c1 * c2 * round_trip_amplitude == 1 is singular")
    p = _round_trip_phasor(offset_ghz, params)
    half_ang = math.pi / params.fsr_ghz
    ang = half_ang * (np.asarray(offset_ghz, dtype=float) - params.detune_ghz)
    p_half = math.sqrt(g) * (np.cos(ang) - 1j * np.sin(ang))
    den = 1.0 - c1 * c2 * p
    through = (c1 - c2 * p) / den
    drop = (-s1 * s2 * p_half) / den
    if np.isscalar(offset_ghz):
        return complex(through), complex(drop)
    return through, drop


def unitarity_defect(rows) -> float:
    """Largest entry of ``M @ M^H - I`` for transfer-matrix rows ``M``."""
    m = np.array(rows)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


def time_domain_oracle(e_minus: complex, e_carrier: complex,
                       e_plus: complex) -> complex:
    """Brute-force RF beat phasor of three tones, the check on
    :func:`rfshaper.kernels.beat_phasor_grid`.

    Synthesises the three tones in the rotating carrier frame (the
    carrier phasor drops out of the squared magnitude), forms the
    photocurrent, and projects onto the RF fundamental by a discrete
    inner product over 8 whole periods of 64 samples.
    """
    n = 64 * 8
    w_t = 2.0 * math.pi * np.arange(n) / 64  # omega * t
    field = (e_minus * np.exp(-1j * w_t) + e_carrier
             + e_plus * np.exp(1j * w_t))
    current = DEFAULT_RESPONSIVITY_A_PER_W * (field * field.conj()).real
    return complex(np.sum(current * np.exp(-1j * w_t)) / n)
