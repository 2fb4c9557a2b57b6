"""Scalar figures of merit extracted from swept responses."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .constants import DEFAULT_CARRIER_THZ
from .errors import AnalysisError, DomainError


def band_mask(offsets: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Grid points inside [lo, hi]; a grid with none is a DomainError."""
    lo, hi = band
    if not (hi > lo):
        raise DomainError(f"band limits must satisfy hi > lo, got {band}")
    mask = (offsets >= lo) & (offsets <= hi)
    if not mask.any():
        raise DomainError(f"band {band} contains no grid points")
    return mask


def band_extremes(power: np.ndarray, in_pass: np.ndarray,
                  in_stop: np.ndarray
                  ) -> tuple[float, float] | Iterator[tuple[float, float]]:
    """Smallest passband and largest stopband power, as Python floats.

    ``in_pass`` and ``in_stop`` are band masks over the last axis of
    ``power``.  ``(N,)`` power gives one ``(p_pass, p_stop)`` pair, and
    ``(K, N)`` power an iterator of K pairs, one per row, from one
    reduction per band.
    """
    p_pass = power.compress(in_pass, axis=-1).min(axis=-1).tolist()
    p_stop = power.compress(in_stop, axis=-1).max(axis=-1).tolist()
    return (p_pass, p_stop) if power.ndim == 1 else zip(p_pass, p_stop)


def extinction_ratio_db(p_pass: float, p_stop: float) -> float:
    """``10*log10(p_pass/p_stop)`` of a passband minimum and a stopband
    maximum.

    A passband that goes dark anywhere gives ``-inf``, whatever the
    stopband holds; a lit passband over a dark stopband gives ``inf``.
    """
    if p_pass <= 0.0:
        return -math.inf
    if p_stop <= 0.0:
        return math.inf
    return 10.0 * math.log10(p_pass / p_stop)


def extinction_db(offsets_ghz: np.ndarray, power: np.ndarray,
                  passband: tuple[float, float],
                  stopband: tuple[float, float]) -> float:
    """Worst-case extinction: min passband power over max stopband power,
    in dB by :func:`extinction_ratio_db` and its rules for a dark band."""
    offsets = np.asarray(offsets_ghz, dtype=float)
    power = np.asarray(power, dtype=float)
    return extinction_ratio_db(*band_extremes(
        power, band_mask(offsets, passband), band_mask(offsets, stopband)))


def _half_level_crossings(x: np.ndarray, y: np.ndarray, level: float) -> list[float]:
    """Linear-interpolated x positions where y crosses the level."""
    s = y - level
    idx = np.nonzero(np.diff(np.signbit(s)))[0]
    out = []
    for i in idx:
        x0, x1, y0, y1 = x[i], x[i + 1], s[i], s[i + 1]
        out.append(float(x0 + (x1 - x0) * (-y0) / (y1 - y0)))
    return out


def q_and_finesse(offsets_ghz: np.ndarray, power: np.ndarray,
                  resonance_offset_ghz: float, fsr_ghz: float
                  ) -> tuple[float, float]:
    """Q factor (``DEFAULT_CARRIER_THZ`` over the full width) and finesse
    of a notch or peak near the given offset.

    The full width is measured at half depth (midway between the local
    baseline and the resonance extreme) with linear interpolation, so
    the grid spacing should be at most about a twentieth of the
    linewidth.  Dips and peaks are told apart by which deviates further
    from the window median.
    """
    offsets = np.asarray(offsets_ghz, dtype=float)
    power = np.asarray(power, dtype=float)
    if offsets.size < 5:
        raise AnalysisError("response grid too coarse for linewidth analysis")
    window = band_mask(offsets, (resonance_offset_ghz - fsr_ghz / 2,
                                 resonance_offset_ghz + fsr_ghz / 2))
    x, y = offsets[window], power[window]
    median = float(np.median(y))
    if y.max() - median > median - y.min():
        y = -y                                  # peak: analyse upside down
    i_min = int(np.argmin(y))
    floor, baseline = y[i_min], y.max()
    if baseline - floor < 1e-6 * max(abs(baseline), 1e-300):
        raise AnalysisError("no resolvable resonance near the requested offset")
    half = 0.5 * (baseline + floor)
    left = _half_level_crossings(x[: i_min + 1], y[: i_min + 1], half)
    right = _half_level_crossings(x[i_min:], y[i_min:], half)
    if not left or not right:
        raise AnalysisError("resonance is not resolved on both sides")
    fwhm = right[0] - left[-1]
    if fwhm <= 0:
        raise AnalysisError("degenerate linewidth")
    q = DEFAULT_CARRIER_THZ * 1e3 / fwhm
    finesse = fsr_ghz / fwhm
    return q, finesse


def passband_width_3db(offsets_ghz: np.ndarray, power: np.ndarray,
                       band_center_ghz: float) -> float:
    """Full width of the passband around the center at half its peak power."""
    offsets = np.asarray(offsets_ghz, dtype=float)
    power = np.asarray(power, dtype=float)
    i_c = int(np.argmin(np.abs(offsets - band_center_ghz)))
    level = 0.5 * power.max()
    if power[i_c] < level:
        raise AnalysisError("band center is not inside a passband")
    left = _half_level_crossings(offsets[: i_c + 1], power[: i_c + 1], level)
    right = _half_level_crossings(offsets[i_c:], power[i_c:], level)
    if not left or not right:
        raise AnalysisError("passband edges not bracketed by the grid")
    return right[0] - left[-1]


def require_notch_in_sweep(freqs_ghz: np.ndarray, notch_freq_ghz: float) -> None:
    """DomainError unless the notch lies in ``[freqs[0], freqs[-1]]``: a
    window that the sweep covers only in part would report the depth of
    whatever dip its edge holds."""
    lo, hi = float(freqs_ghz[0]), float(freqs_ghz[-1])
    if not lo <= notch_freq_ghz <= hi:
        raise DomainError(f"notch at {notch_freq_ghz:g} GHz lies outside the "
                          f"RF sweep {lo:g} to {hi:g} GHz")


def notch_depth_db(freqs_ghz: np.ndarray, mag_db: np.ndarray,
                   notch_freq_ghz: float) -> tuple[float, float]:
    """(depth, minimum frequency) of a dip within 3 GHz of the notch.

    Depth is measured against the local baseline (the window maximum), so
    band-edge roll-off elsewhere in the sweep does not contaminate it.  A
    notch outside the sweep is a DomainError (see
    :func:`require_notch_in_sweep`).
    """
    freqs = np.asarray(freqs_ghz, dtype=float)
    mag = np.asarray(mag_db, dtype=float)
    require_notch_in_sweep(freqs, notch_freq_ghz)
    mask = band_mask(freqs, (notch_freq_ghz - 3.0, notch_freq_ghz + 3.0))
    w_f, w_m = freqs[mask], mag[mask]
    i = int(np.argmin(w_m))
    return float(w_m.max() - w_m[i]), float(w_f[i])


def peak_frequency_ghz(freqs_ghz: np.ndarray, mag_db: np.ndarray) -> float:
    """Location of the trace maximum, refined by parabolic interpolation."""
    freqs = np.asarray(freqs_ghz, dtype=float)
    mag = np.asarray(mag_db, dtype=float)
    i = int(np.argmax(mag))
    if 0 < i < mag.size - 1:
        y0, y1, y2 = mag[i - 1], mag[i], mag[i + 1]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            shift = 0.5 * (y0 - y2) / denom
            return float(freqs[i] + shift * (freqs[i + 1] - freqs[i]))
    return float(freqs[i])
