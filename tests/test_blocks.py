import math
import re

import numpy as np
import pytest

from rfshaper.blocks import (BLOCK_KINDS, FrequencyGrid, RingParams,
                             WaveguideParams, amplitude_from_db_loss,
                             coupling_phase, critical_coupling_kappa,
                             detune_phase, heater_phase_from_power)
from rfshaper.circuit import BlockInstance
from rfshaper.errors import ConfigurationError, DomainError
from rfshaper.kernels import (h_coupler_3db, h_phase_shifter,
                              h_tunable_coupler)
from tests.reference import unitarity_defect


# one-port responses and the add-drop (through, drop) pair, as the
# simulator computes them from the block-kind table
def h_waveguide(offset_ghz, params):
    return BLOCK_KINDS["waveguide"].response(params, offset_ghz)[0][0]


def h_ring_allpass(offset_ghz, params):
    return BLOCK_KINDS["ring_allpass"].response(params, offset_ghz)[0][0]


def h_ring_adddrop(offset_ghz, params):
    (through, _), (drop, _) = BLOCK_KINDS["ring_adddrop"].response(
        params, offset_ghz)
    return through, drop


def test_waveguide_delay_basic_angles():
    lossless = WaveguideParams.from_fsr(50.0)
    assert h_waveguide(0.0, lossless) == pytest.approx(1.0 + 0.0j)
    assert h_waveguide(50.0, lossless) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert h_waveguide(12.5, lossless) == pytest.approx(-1.0j, abs=1e-12)


def test_waveguide_delay_unit_magnitude():
    rng = np.random.default_rng(0)
    offs = rng.uniform(-500.0, 500.0, 1000)
    vals = h_waveguide(offs, WaveguideParams.from_fsr(50.0))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-15


def test_waveguide_rejects_bad_input():
    with pytest.raises(DomainError):
        FrequencyGrid(193.4, np.array([math.nan]))
    with pytest.raises(DomainError):
        WaveguideParams.from_fsr(0.0)


@pytest.mark.parametrize("loss,length,expected", [
    (0.0, 123.0, 1.0),
    (1.2, 1.0, 0.8710),
    (1.2, 0.5, 0.9333),
])
def test_amplitude_from_db_loss(loss, length, expected):
    assert amplitude_from_db_loss(loss, length) == pytest.approx(expected, abs=1e-4)


def test_amplitude_from_db_loss_rejects_negative():
    with pytest.raises(DomainError):
        amplitude_from_db_loss(-1.0, 1.0)
    with pytest.raises(DomainError):
        amplitude_from_db_loss(1.0, -1.0)


def test_waveguide_response():
    lossless = WaveguideParams.from_fsr(50.0)
    assert h_waveguide(0.0, lossless) == pytest.approx(1.0 + 0.0j)
    assert h_waveguide(12.5, lossless) == pytest.approx(-1.0j, abs=1e-12)

    lossy = WaveguideParams.from_fsr(50.0, loss_db_per_cm=1.2,
                                     physical_length_cm=1.0)
    for off in (0.0, 3.7, 25.0):
        assert abs(h_waveguide(off, lossy)) == pytest.approx(0.8710, abs=1e-4)


def test_phase_shifter():
    assert h_phase_shifter(0.0) == 1.0 + 0.0j
    assert h_phase_shifter(math.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert h_phase_shifter(math.pi / 2) == pytest.approx(-1.0j, abs=1e-12)
    with pytest.raises(DomainError):
        h_phase_shifter(math.inf)


def test_coupler_3db_matrix():
    m = h_coupler_3db()
    (m00, m01), _ = m
    a = math.sqrt(0.5)
    assert m00 == pytest.approx(a)
    assert m01 == pytest.approx(-1j * a)
    assert unitarity_defect(m) < 1e-15
    assert abs(m00) ** 2 == pytest.approx(0.5)
    assert abs(m01) ** 2 == pytest.approx(0.5)


def test_tunable_coupler_extremes():
    (bar, _), (cross, _) = h_tunable_coupler(0.0)
    assert abs(bar) ** 2 == pytest.approx(0.0, abs=1e-15)
    assert abs(cross) ** 2 == pytest.approx(1.0)
    (bar, _), (cross, _) = h_tunable_coupler(math.pi)
    assert abs(bar) ** 2 == pytest.approx(1.0)
    assert abs(cross) ** 2 == pytest.approx(0.0, abs=1e-15)


def test_tunable_coupler_quadrature_point():
    (bar, _), _ = h_tunable_coupler(math.pi / 2)
    assert bar == pytest.approx(0.5 + 0.5j, abs=1e-12)
    assert abs(bar) ** 2 == pytest.approx(0.5)
    assert math.atan2(bar.imag, bar.real) == pytest.approx(math.pi / 4)


def test_tunable_coupler_unitary_and_complementary():
    for phi in np.linspace(0.0, 2 * math.pi, 37):
        m = h_tunable_coupler(float(phi))
        (bar, _), (cross, _) = m
        assert unitarity_defect(m) < 1e-12
        assert abs(bar) ** 2 + abs(cross) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_tunable_coupler_parasitic_phase_varies():
    (bar_a, _), _ = h_tunable_coupler(math.pi / 2)
    (bar_b, _), _ = h_tunable_coupler(3 * math.pi / 2)
    assert abs(np.angle(bar_a) - np.angle(bar_b)) > 0.1


def test_ring_allpass_lossless_is_allpass():
    params = RingParams(fsr_ghz=50.0, kappa=0.3, round_trip_amplitude=1.0)
    rng = np.random.default_rng(1)
    offs = rng.uniform(-100.0, 100.0, 1000)
    vals = h_ring_allpass(offs, params)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_ring_allpass_critical_coupling_null():
    gamma = 0.981
    params = RingParams(fsr_ghz=50.0, kappa=critical_coupling_kappa(gamma),
                        round_trip_amplitude=gamma)
    assert abs(h_ring_allpass(0.0, params)) < 1e-12


def test_ring_allpass_undercoupled_floor():
    # on-resonance value from direct evaluation of the closed form
    gamma, c = 0.981, 0.995
    expected = (c - gamma) / (1.0 - c * gamma)
    params = RingParams(fsr_ghz=50.0, kappa=1.0 - c * c,
                        round_trip_amplitude=gamma)
    assert h_ring_allpass(0.0, params) == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(0.5857, abs=1e-3)


def test_ring_allpass_periodicity():
    params = RingParams(fsr_ghz=50.0, kappa=0.2, round_trip_amplitude=0.93,
                        detune_ghz=7.0)
    rng = np.random.default_rng(2)
    offs = rng.uniform(-200.0, 200.0, 100)
    a = h_ring_allpass(offs, params)
    b = h_ring_allpass(offs + 50.0, params)
    assert np.max(np.abs(a - b)) < 1e-10


def test_ring_allpass_rejects_singular():
    with pytest.raises(DomainError):
        h_ring_allpass(0.0, RingParams(fsr_ghz=50.0, kappa=0.0,
                                       round_trip_amplitude=1.0))


def test_ring_adddrop_symmetric_lossless_transfer():
    params = RingParams(fsr_ghz=50.0, kappa=0.2, kappa_drop=0.2,
                        round_trip_amplitude=1.0)
    through, drop = h_ring_adddrop(0.0, params)
    assert abs(through) < 1e-12
    assert abs(drop) == pytest.approx(1.0, abs=1e-12)


def test_ring_adddrop_far_from_resonance():
    # at half-FSR detuning the drop floor is kappa^2/(2-kappa)^2, i.e.
    # the kappa^2/4 region (approached from above as kappa -> 0)
    kappa = 0.02
    params = RingParams(fsr_ghz=50.0, kappa=kappa, kappa_drop=kappa,
                        round_trip_amplitude=1.0)
    through, drop = h_ring_adddrop(25.0, params)
    assert abs(drop) ** 2 == pytest.approx(kappa ** 2 / (2.0 - kappa) ** 2,
                                           rel=1e-12)
    assert abs(drop) ** 2 == pytest.approx(kappa ** 2 / 4.0, rel=0.05)
    assert abs(through) == pytest.approx(1.0, abs=1e-3)


def test_ring_adddrop_power_conservation_lossless():
    params = RingParams(fsr_ghz=50.0, kappa=0.3, kappa_drop=0.1,
                        round_trip_amplitude=1.0)
    rng = np.random.default_rng(3)
    offs = rng.uniform(-100.0, 100.0, 1000)
    through, drop = h_ring_adddrop(offs, params)
    total = np.abs(through) ** 2 + np.abs(drop) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_ring_adddrop_requires_drop_coupler():
    with pytest.raises(ConfigurationError):
        BlockInstance("r", "ring_adddrop", RingParams(fsr_ghz=50.0, kappa=0.3))


def test_heater_phase_examples():
    assert heater_phase_from_power(35.0, 35.0) == pytest.approx(math.pi)
    assert heater_phase_from_power(0.0, 35.0) == 0.0
    assert heater_phase_from_power(92.8, 35.0) == pytest.approx(
        2.65 * math.pi, abs=0.01 * math.pi)


def test_heater_phase_linearity():
    # doubling is exact in floating point; general additivity to 1 ulp
    for a in (0.25, 3.5, 17.25):
        assert heater_phase_from_power(2 * a, 35.0) == \
            2 * heater_phase_from_power(a, 35.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rng.uniform(0.0, 100.0, 2)
        lhs = heater_phase_from_power(a + b, 35.0)
        rhs = heater_phase_from_power(a, 35.0) + heater_phase_from_power(b, 35.0)
        assert lhs == pytest.approx(rhs, rel=1e-15)


def test_heater_phase_errors():
    with pytest.raises(ConfigurationError):
        heater_phase_from_power(1.0, 0.0)
    with pytest.raises(DomainError):
        heater_phase_from_power(-1.0, 35.0)


def test_heater_phase_rejects_a_non_finite_phase():
    with pytest.raises(DomainError, match=r"power_mw 1e\+308 gives"):
        heater_phase_from_power(1e308, 35.0)
    with pytest.raises(DomainError, match="power_mw 1 gives"):
        heater_phase_from_power(1.0, 1e-320)


@pytest.mark.parametrize("call, message", [
    (lambda: coupling_phase(1.5), r"power out of range \[0,1\]: 1.5"),
    (lambda: coupling_phase(-0.1), r"power out of range \[0,1\]: -0.1"),
    (lambda: coupling_phase(math.nan), r"power out of range \[0,1\]: nan"),
    (lambda: detune_phase(1.0, 0.0), "fsr_ghz must be > 0, got 0.0"),
    (lambda: detune_phase(1.0, -50.0), "fsr_ghz must be > 0, got -50.0"),
    (lambda: detune_phase(math.inf, 50.0), "non-finite value inf"),
    (lambda: detune_phase(1.0, math.nan), "non-finite value nan"),
], ids=["coupling_above_1", "coupling_below_0", "coupling_nan", "zero_fsr",
        "negative_fsr", "infinite_detune", "nan_fsr"])
def test_inverse_heater_laws_reject_values_outside_their_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_heater_phases_of_an_array_equal_the_float_calls():
    powers = np.arange(0.0, 35.0 + 1e-9, 0.25)
    phases = heater_phase_from_power(powers, 35.0)
    assert phases.shape == powers.shape
    assert phases.tobytes() == np.array(
        [heater_phase_from_power(p, 35.0) for p in powers.tolist()]).tobytes()


@pytest.mark.parametrize("powers, message", [
    ([1.0, -2.0, -3.0], "power_mw must be >= 0, got -2"),
    ([1.0, 1e308, 1.5e308], "power_mw 1e+308 gives a non-finite phase"),
    ([1.0, math.nan, math.inf], "heater_phase_from_power: non-finite value nan"),
])
def test_heater_phases_of_an_array_name_the_first_failing_power(powers,
                                                                 message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        heater_phase_from_power(np.array(powers), 35.0)


def test_critical_coupling_kappa():
    assert critical_coupling_kappa(1.0) == pytest.approx(0.0)
    assert critical_coupling_kappa(0.981) == pytest.approx(0.0376, abs=1e-4)
    with pytest.raises(DomainError):
        critical_coupling_kappa(1.5)


def test_critical_coupling_round_trip():
    gamma = 0.917
    params = RingParams(fsr_ghz=50.0, kappa=critical_coupling_kappa(gamma),
                        round_trip_amplitude=gamma, detune_ghz=4.0)
    assert abs(h_ring_allpass(4.0, params)) < 1e-12


def test_param_validation():
    with pytest.raises(DomainError):
        WaveguideParams(optical_path_length=0.0)
    with pytest.raises(DomainError):
        RingParams(fsr_ghz=50.0, kappa=1.5)
    with pytest.raises(DomainError):
        RingParams(fsr_ghz=50.0, kappa=0.1, round_trip_amplitude=0.0)
    with pytest.raises(DomainError):
        FrequencyGrid(193.4, np.array([1.0, 1.0]))


def test_frequency_grid_sweep():
    grid = FrequencyGrid.sweep(-5.0, 5.0, 0.5)
    assert len(grid) == 21
    assert grid.offsets_ghz[0] == -5.0
    assert grid.offsets_ghz[-1] == pytest.approx(5.0)
    steps = np.diff(grid.offsets_ghz)
    assert np.allclose(steps, 0.5, atol=1e-12)


def test_frequency_grid_may_span_more_than_the_largest_float():
    offsets = np.array([-1.7e308, 1.7e308])
    assert len(FrequencyGrid(193.4, offsets)) == 2
    with pytest.raises(DomainError, match="strictly increasing"):
        FrequencyGrid(193.4, offsets[::-1])


@pytest.mark.parametrize("make, message", [
    (lambda: WaveguideParams(1.0, loss_db_per_cm=-0.1),
     "loss and length must be >= 0"),
    (lambda: WaveguideParams(1.0, physical_length_cm=-1.0),
     "loss and length must be >= 0"),
    (lambda: RingParams(fsr_ghz=0.0, kappa=0.1), "fsr_ghz must be > 0"),
    (lambda: FrequencyGrid(193.4, np.array([])),
     "offsets_ghz must be a non-empty 1-D array"),
    (lambda: FrequencyGrid(193.4, np.zeros((2, 2))),
     "offsets_ghz must be a non-empty 1-D array"),
], ids=["negative_loss", "negative_length", "zero_fsr", "empty_grid",
        "2d_grid"])
def test_records_name_the_field_out_of_range(make, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        make()
