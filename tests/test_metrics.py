import numpy as np
import pytest

from rfshaper.blocks import RingParams, critical_coupling_kappa
from rfshaper.errors import AnalysisError, DomainError
from rfshaper.metrics import (band_extremes, band_mask, extinction_db,
                              extinction_ratio_db, notch_depth_db,
                              passband_width_3db, peak_frequency_ghz,
                              q_and_finesse)
from tests.reference import h_ring_adddrop, h_ring_allpass


def test_extinction_brick_wall():
    offs = np.linspace(-10.0, 10.0, 201)
    power = np.where(offs >= 0.0, 1.0, 0.01)
    assert extinction_db(offs, power, (1.0, 9.0), (-9.0, -1.0)) == \
        pytest.approx(20.0)


def test_extinction_flat_response():
    offs = np.linspace(-10.0, 10.0, 201)
    assert extinction_db(offs, np.ones_like(offs), (1, 9), (-9, -1)) == \
        pytest.approx(0.0)


@pytest.mark.parametrize("stop_power, want", [
    (0.5, -np.inf),    # an exact zero in the passband, no log of 0
    (0.0, -np.inf),    # a dark port: dark passband over dark stopband
])
def test_extinction_of_a_dark_passband_is_minus_inf(stop_power, want):
    offs = np.linspace(-10.0, 10.0, 201)
    power = np.where(offs >= 0.0, 1.0, stop_power)
    power[offs == 5.0] = 0.0
    assert extinction_db(offs, power, (1.0, 9.0), (-9.0, -1.0)) == want


def test_extinction_of_a_dark_stopband_under_a_lit_passband_is_inf():
    offs = np.linspace(-10.0, 10.0, 201)
    power = np.where(offs >= 0.0, 1.0, 0.0)
    assert extinction_db(offs, power, (1.0, 9.0), (-9.0, -1.0)) == np.inf


def test_extinction_of_each_row_of_a_block_equals_its_row_call():
    offs = np.linspace(-10.0, 10.0, 201)
    passband, stopband = (1.0, 9.0), (-9.0, -1.0)
    block = np.vstack([np.where(offs >= 0.0, 1.0, 0.5),
                       np.where(offs >= 0.0, 1.0, 0.0),
                       np.where(offs >= 0.0, 1.0, 0.01),
                       np.random.default_rng(3).uniform(0.0, 1.0, offs.size)])
    block[0, offs == 5.0] = 0.0            # a dark passband point
    block[2, offs == -5.0] = np.nan
    rows = [extinction_ratio_db(*extremes) for extremes in band_extremes(
        block, band_mask(offs, passband), band_mask(offs, stopband))]
    want = [extinction_db(offs, row, passband, stopband) for row in block]
    assert rows[:2] == [-np.inf, np.inf] and np.isnan(rows[2])
    for got, row_call in zip(rows, want):
        assert isinstance(got, float)
        assert got == row_call or (np.isnan(got) and np.isnan(row_call))


def test_extinction_empty_band_rejected():
    offs = np.linspace(0.0, 10.0, 11)
    with pytest.raises(DomainError):
        extinction_db(offs, np.ones_like(offs), (20.0, 30.0), (0.0, 5.0))


def test_q_and_finesse_on_critically_coupled_ring():
    gamma = 0.9148329893507446
    ring = RingParams(50.0, critical_coupling_kappa(gamma),
                      round_trip_amplitude=gamma)
    offs = np.arange(-25.0, 25.0, 0.01)
    power = np.abs(h_ring_allpass(offs, ring)) ** 2
    q, finesse = q_and_finesse(offs, power, 0.0, 50.0)
    assert finesse == pytest.approx(17.6, rel=0.01)
    assert q == pytest.approx(68077.0, rel=0.01)


def test_finesse_fwhm_product_is_fsr():
    gamma = 0.95
    ring = RingParams(50.0, critical_coupling_kappa(gamma),
                      round_trip_amplitude=gamma)
    offs = np.arange(-25.0, 25.0, 0.005)
    power = np.abs(h_ring_allpass(offs, ring)) ** 2
    _, finesse = q_and_finesse(offs, power, 0.0, 50.0)
    fwhm = 50.0 / finesse
    assert finesse * fwhm == pytest.approx(50.0)


def test_fwhm_recovery_on_synthetic_lorentzian():
    width = 2.0
    offs = np.arange(-20.0, 20.0, width / 50.0)
    power = 1.0 - 1.0 / (1.0 + (2.0 * offs / width) ** 2)
    q, finesse = q_and_finesse(offs, power, 0.0, 50.0)
    fwhm = 50.0 / finesse
    assert fwhm == pytest.approx(width, rel=0.01)
    assert q == pytest.approx(193.4e3 / width, rel=0.01)


def test_q_and_finesse_on_drop_port_peak():
    ring = RingParams(50.0, 0.1, kappa_drop=0.1,
                      round_trip_amplitude=0.9148329893507446)
    offs = np.arange(-25.0, 25.0, 0.01)
    _, drop = h_ring_adddrop(offs, ring)
    q, finesse = q_and_finesse(offs, np.abs(drop) ** 2, 0.0, 50.0)
    assert finesse == pytest.approx(50.0 / 2.9, rel=0.15)
    assert q > 0


def test_q_and_finesse_needs_a_notch():
    offs = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(AnalysisError):
        q_and_finesse(offs, np.ones_like(offs), 0.0, 50.0)


def test_passband_width_3db_square():
    offs = np.linspace(-10.0, 40.0, 2001)
    power = np.where((offs >= 0.0) & (offs <= 30.0), 1.0, 0.0) + 1e-9
    width = passband_width_3db(offs, power, 15.0)
    assert width == pytest.approx(30.0, abs=0.1)


def test_notch_depth_uses_local_baseline():
    freqs = np.arange(1.0, 30.0, 0.01)
    mag = np.zeros_like(freqs)
    mag[freqs > 25.0] = -30.0          # unrelated band-edge roll-off
    mag -= 7.0 / (1.0 + ((freqs - 10.0) / 0.3) ** 2)
    depth, f_min = notch_depth_db(freqs, mag, 10.0)
    assert depth == pytest.approx(7.0, abs=0.1)
    assert f_min == pytest.approx(10.0, abs=0.01)


@pytest.mark.parametrize("notch", [0.99, 30.0, np.nan])
def test_notch_outside_the_sweep_has_no_depth(notch):
    freqs = np.arange(1.0, 30.0, 0.01)
    with pytest.raises(DomainError, match=f"^notch at {notch:g} GHz lies "
                                          "outside the RF sweep 1 to 29.99 GHz$"):
        notch_depth_db(freqs, np.zeros_like(freqs), notch)


def test_peak_frequency_parabolic_refinement():
    freqs = np.arange(0.0, 20.0, 0.1)
    mag = -((freqs - 7.03) ** 2)
    assert peak_frequency_ghz(freqs, mag) == pytest.approx(7.03, abs=1e-6)
