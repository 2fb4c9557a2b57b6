import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfshaper.blocks import (PhaseShifterState, RingParams,
                             critical_coupling_kappa)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port
from rfshaper.errors import ConfigurationError, DomainError
from rfshaper.rflink import (DetectorParams, LinkConfig, ModulatedSpectrum,
                             ModulationFormat, apply_circuit, detect_rf_phasor,
                             make_spectrum, rf_transmission_sweep,
                             time_domain_oracle)

DET1 = DetectorParams(1.0)


def identity_graph():
    ps = BlockInstance("w", "phase_shifter", PhaseShifterState(0.0))
    return CircuitGraph((ps,), (), {"in": Port("w", "in")},
                        {"out": Port("w", "out")})


def test_make_spectrum_formats():
    im = make_spectrum(ModulationFormat("IM", 0.1), 10.0)
    assert im.e_minus == im.e_plus == pytest.approx(0.1)
    assert im.e_carrier == 1.0

    pm = make_spectrum(ModulationFormat("PM", 0.1), 10.0)
    assert pm.e_minus == pytest.approx(-0.1)
    assert pm.e_plus == pytest.approx(0.1)

    ssb = make_spectrum(ModulationFormat("SSB_upper", 0.1), 10.0)
    assert ssb.e_minus == 0.0
    assert ssb.e_plus == pytest.approx(0.1)
    assert make_spectrum(ModulationFormat("SSB_lower", 0.1), 10.0).e_plus == 0.0


def test_make_spectrum_rejects_bad_index():
    with pytest.raises(DomainError):
        ModulationFormat("IM", 0.0)
    with pytest.raises(ConfigurationError):
        ModulationFormat("AM", 0.1)


def test_detect_rf_phasor_im_convention():
    spec = ModulatedSpectrum(10.0, 0.1, 1.0, 0.1)
    # one-sided sum of both carrier beats: 2 * 0.1 (the detected cosine
    # swings twice this)
    assert detect_rf_phasor(spec, DET1) == pytest.approx(0.2)


def test_detect_rf_phasor_pm_null():
    spec = make_spectrum(ModulationFormat("PM", 0.1), 10.0)
    assert abs(detect_rf_phasor(spec, DET1)) < 1e-15


def test_detect_rf_phasor_ssb():
    spec = ModulatedSpectrum(10.0, 0.0, 1.0, 0.5)
    assert detect_rf_phasor(spec, DET1) == pytest.approx(0.5)
    assert time_domain_oracle(spec, DET1) == pytest.approx(0.5, abs=1e-12)


def test_oracle_carrier_only():
    spec = ModulatedSpectrum(10.0, 0.0, 1.3, 0.0)
    assert abs(time_domain_oracle(spec, DET1)) < 1e-15


def test_oracle_pm_null():
    spec = make_spectrum(ModulationFormat("PM", 0.2), 17.0)
    assert abs(time_domain_oracle(spec, DET1)) < 1e-14


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_oracle_matches_detector_on_random_spectra(seed):
    rng = np.random.default_rng(seed)
    re = rng.normal(size=3)
    im = rng.normal(size=3)
    spec = ModulatedSpectrum(float(rng.uniform(1.0, 30.0)),
                             complex(re[0], im[0]), complex(re[1], im[1]),
                             complex(re[2], im[2]))
    det = DetectorParams(0.8)
    a = detect_rf_phasor(spec, det)
    b = time_domain_oracle(spec, det)
    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-12)


def test_pm_null_general_complex_sidebands():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ep = complex(*rng.normal(size=2))
        carrier = float(rng.uniform(0.5, 2.0))
        spec = ModulatedSpectrum(12.0, -np.conj(ep), carrier, ep)
        assert abs(detect_rf_phasor(spec, DET1)) <= 1e-15 * carrier ** 2


def test_im_assignment_maximises_rf():
    m, carrier = 0.3, 1.0
    phases = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    best = 0.0
    for pm in phases:
        for pp in phases:
            spec = ModulatedSpectrum(10.0, m * np.exp(1j * pm), carrier,
                                     m * np.exp(1j * pp))
            best = max(best, abs(detect_rf_phasor(spec, DET1)))
    im_value = abs(detect_rf_phasor(ModulatedSpectrum(10.0, m, carrier, m), DET1))
    assert im_value >= best - 1e-12


def test_rf_phasor_scales_with_power():
    spec = ModulatedSpectrum(10.0, 0.1 + 0.05j, 1.0 - 0.2j, -0.07j)
    a = 0.8 - 0.6j
    scaled = ModulatedSpectrum(10.0, a * spec.e_minus, a * spec.e_carrier,
                               a * spec.e_plus)
    assert abs(detect_rf_phasor(scaled, DET1)) == pytest.approx(
        abs(a) ** 2 * abs(detect_rf_phasor(spec, DET1)))


def test_apply_circuit_identity():
    spec = make_spectrum(ModulationFormat("IM", 0.1), 10.0)
    out = apply_circuit(spec, identity_graph(), "out")
    assert out.e_minus == pytest.approx(spec.e_minus, abs=1e-12)
    assert out.e_carrier == pytest.approx(spec.e_carrier, abs=1e-12)
    assert out.e_plus == pytest.approx(spec.e_plus, abs=1e-12)


def test_apply_circuit_ring_notches_lower_sideband():
    gamma = 0.96
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, critical_coupling_kappa(gamma),
                                    round_trip_amplitude=gamma,
                                    detune_ghz=-10.0))
    g = CircuitGraph((ring,), (), {"in": Port("r", "in")},
                     {"out": Port("r", "out")})
    spec = make_spectrum(ModulationFormat("IM", 0.1), 10.0)
    out = apply_circuit(spec, g, "out")
    assert abs(out.e_minus) < 1e-12
    assert abs(out.e_plus) == pytest.approx(0.1, abs=2e-3)


def test_apply_circuit_unknown_port():
    spec = make_spectrum(ModulationFormat("IM", 0.1), 10.0)
    with pytest.raises(ConfigurationError):
        apply_circuit(spec, identity_graph(), "nope")


def test_sweep_identity_is_flat_zero_db():
    link = LinkConfig(ModulationFormat("IM", 0.1), identity_graph(),
                      output_port="out")
    resp = rf_transmission_sweep(link, 1.0, 30.0, 0.5)
    assert np.max(np.abs(resp.mag_db)) < 1e-9
    assert resp.metadata["reference"] == "back_to_back_same_format"


def test_sweep_pm_uses_im_reference():
    link = LinkConfig(ModulationFormat("PM", 0.1), identity_graph(),
                      output_port="out")
    resp = rf_transmission_sweep(link, 1.0, 10.0, 1.0)
    assert resp.metadata["reference"] == "back_to_back_im_equivalent"
    assert np.all(resp.mag_db < -200.0)       # PM detects ~nothing


def test_sweep_deterministic():
    link = LinkConfig(ModulationFormat("IM", 0.1), identity_graph(),
                      output_port="out")
    a = rf_transmission_sweep(link, 1.0, 30.0, 0.1)
    b = rf_transmission_sweep(link, 1.0, 30.0, 0.1)
    assert np.array_equal(a.mag_db, b.mag_db)
    assert np.array_equal(a.phase_rad, b.phase_rad)


def test_sweep_rejects_bad_ranges():
    link = LinkConfig(ModulationFormat("IM", 0.1), identity_graph(),
                      output_port="out")
    with pytest.raises(DomainError):
        rf_transmission_sweep(link, 10.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        rf_transmission_sweep(link, 1.0, 10.0, -0.1)
