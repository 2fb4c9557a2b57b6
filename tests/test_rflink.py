import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfshaper import kernels
from rfshaper.blocks import (PhaseShifterState, RingParams,
                             critical_coupling_kappa)
from rfshaper.blocks import FrequencyGrid
from rfshaper.circuit import BlockInstance, CircuitGraph, Port, evaluate
from rfshaper.constants import (DEFAULT_CARRIER_THZ,
                                DEFAULT_RESPONSIVITY_A_PER_W as R)
from rfshaper.errors import ConfigurationError, DomainError
from rfshaper.rflink import (LinkConfig, ModulationFormat, bind_tones,
                             detector, rf_transmission_sweep)
from rfshaper.topologies import build_shaper

from tests.reference import time_domain_oracle
from tests.test_circuit import two_rail_chain


def beat(e_minus, e_carrier, e_plus):
    """Detected beat phasor of three tones with no circuit."""
    return kernels.beat_phasor_grid(1.0, 1.0, 1.0, e_minus, e_carrier, e_plus, R)


def identity_graph():
    ps = BlockInstance("w", "phase_shifter", PhaseShifterState(0.0))
    return CircuitGraph((ps,), (), {"in": Port("w", "in")},
                        {"out": Port("w", "out")})


def test_format_tones():
    im_minus, im_carrier, im_plus = ModulationFormat("IM", 0.1).tones
    assert im_minus == im_plus == pytest.approx(0.1)
    assert im_carrier == 1.0

    pm_minus, _, pm_plus = ModulationFormat("PM", 0.1).tones
    assert pm_minus == pytest.approx(-0.1)
    assert pm_plus == pytest.approx(0.1)

    ssb_minus, _, ssb_plus = ModulationFormat("SSB_upper", 0.1).tones
    assert ssb_minus == 0.0
    assert ssb_plus == pytest.approx(0.1)
    assert ModulationFormat("SSB_lower", 0.1).tones[2] == 0.0


def test_format_rejects_bad_kind_and_index():
    with pytest.raises(DomainError):
        ModulationFormat("IM", 0.0)
    with pytest.raises(ConfigurationError):
        ModulationFormat("AM", 0.1)


def test_modulation_index_must_be_finite():
    with pytest.raises(DomainError):
        ModulationFormat("IM", math.inf)
    with pytest.raises(DomainError):
        ModulationFormat("PM", 1e999)


def test_modulation_index_is_small_signal():
    with pytest.raises(DomainError, match="modulation_index"):
        ModulationFormat("IM", 1.5)
    assert ModulationFormat("PM", 1.0).tones[2] == 1.0


def test_detect_rf_phasor_im_convention():
    # one-sided sum of both carrier beats: 2 * 0.1 (the detected cosine
    # swings twice this)
    assert beat(0.1, 1.0, 0.1) == pytest.approx(0.2 * R)


def test_detect_rf_phasor_pm_null():
    assert abs(beat(*ModulationFormat("PM", 0.1).tones)) < 1e-15


def test_detect_rf_phasor_ssb():
    assert beat(0.0, 1.0, 0.5) == pytest.approx(0.5 * R)
    assert time_domain_oracle(0.0, 1.0, 0.5) == pytest.approx(0.5 * R, abs=1e-12)


def test_oracle_carrier_only():
    assert abs(time_domain_oracle(0.0, 1.3, 0.0)) < 1e-15


def test_oracle_pm_null():
    assert abs(time_domain_oracle(*ModulationFormat("PM", 0.2).tones)) < 1e-14


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_oracle_matches_detector_on_random_spectra(seed):
    rng = np.random.default_rng(seed)
    re = rng.normal(size=3)
    im = rng.normal(size=3)
    tones = (complex(re[0], im[0]), complex(re[1], im[1]),
             complex(re[2], im[2]))
    a = beat(*tones)
    b = time_domain_oracle(*tones)
    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-12)


def test_pm_null_general_complex_sidebands():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ep = complex(*rng.normal(size=2))
        carrier = float(rng.uniform(0.5, 2.0))
        assert abs(beat(-np.conj(ep), carrier, ep)) <= 1e-15 * carrier ** 2


def test_im_assignment_maximises_rf():
    m, carrier = 0.3, 1.0
    phases = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    best = 0.0
    for pm in phases:
        for pp in phases:
            best = max(best, abs(beat(m * np.exp(1j * pm), carrier,
                                      m * np.exp(1j * pp))))
    im_value = abs(beat(m, carrier, m))
    assert im_value >= best - 1e-12


def test_rf_phasor_scales_with_power():
    tones = (0.1 + 0.05j, 1.0 - 0.2j, -0.07j)
    a = 0.8 - 0.6j
    assert abs(beat(*(a * e for e in tones))) == pytest.approx(
        abs(a) ** 2 * abs(beat(*tones)))


def test_sweep_ring_notching_lower_sideband_keeps_carrier_beat():
    # the ring nulls the lower sideband, so only conj(E0) * E+ is detected
    gamma = 0.96
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, critical_coupling_kappa(gamma),
                                    round_trip_amplitude=gamma,
                                    detune_ghz=-10.0))
    g = CircuitGraph((ring,), (), {"in": Port("r", "in")},
                     {"out": Port("r", "out")})
    h = evaluate(g, FrequencyGrid(193.4, np.array([0.0, 10.0]))).port("out")
    link = LinkConfig(ModulationFormat("IM", 0.1), g, output_port="out")
    resp = rf_transmission_sweep(link, 9.0, 11.0, 1.0)
    assert resp.rf_freqs_ghz[1] == 10.0
    assert resp.mag_db[1] == pytest.approx(
        20.0 * math.log10(abs(h[0] * h[1]) / 2.0), abs=1e-9)


def test_sweep_unknown_output_port():
    link = LinkConfig(ModulationFormat("IM", 0.1), identity_graph(),
                      output_port="nope")
    with pytest.raises(ConfigurationError):
        rf_transmission_sweep(link, 1.0, 10.0, 1.0)


def test_sweep_identity_is_flat_zero_db():
    link = LinkConfig(ModulationFormat("IM", 0.1), identity_graph(),
                      output_port="out")
    resp = rf_transmission_sweep(link, 1.0, 30.0, 0.5)
    assert np.max(np.abs(resp.mag_db)) < 1e-9


@pytest.mark.parametrize("kind", ["IM", "SSB_upper", "SSB_lower"])
def test_sweep_identity_is_zero_db_at_tiny_index(kind):
    link = LinkConfig(ModulationFormat(kind, 1e-12), identity_graph(),
                      output_port="out")
    resp = rf_transmission_sweep(link, 1.0, 10.0, 1.0)
    assert np.max(np.abs(resp.mag_db)) < 1e-9


def test_sweep_pm_uses_im_reference():
    link = LinkConfig(ModulationFormat("PM", 0.1), identity_graph(),
                      output_port="out")
    resp = rf_transmission_sweep(link, 1.0, 10.0, 1.0)
    assert np.all(resp.mag_db < -200.0)       # PM detects ~nothing


def test_sweep_pm_is_referenced_to_im_back_to_back():
    # a lossy all-pass ring is dispersive, so PM is partly detected as IM
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, 0.2, round_trip_amplitude=0.9,
                                    detune_ghz=-10.0))
    g = CircuitGraph((ring,), (), {"in": Port("r", "in")},
                     {"out": Port("r", "out")})
    link = LinkConfig(ModulationFormat("PM", 0.1), g, output_port="out")
    resp = rf_transmission_sweep(link, 1.0, 20.0, 0.5)
    fs = resp.rf_freqs_ghz
    n = fs.size
    offsets = np.concatenate([-fs[::-1], [0.0], fs])
    h = evaluate(g, FrequencyGrid(DEFAULT_CARRIER_THZ, offsets)).port("out")
    pm = detector(ModulationFormat("PM", 0.1))(h[:n][::-1], h[n], h[n + 1:])
    im = detector(ModulationFormat("IM", 0.1))(1.0, 1.0, 1.0)
    expected = 20.0 * np.log10(np.abs(pm) / abs(im))
    assert np.all(resp.mag_db > -60.0)
    assert np.max(np.abs(resp.mag_db - expected)) <= 1e-9


def test_sweep_holds_only_the_fields_still_to_be_read():
    link = LinkConfig(ModulationFormat(), two_rail_chain(bar="detector"))
    tracemalloc.start()
    try:
        resp = rf_transmission_sweep(link, 0.005, 50.0, 0.005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = 2 * resp.rf_freqs_ghz.size + 1      # the mirrored grid
    assert n == 20_001
    assert peak < 16 * n * np.dtype(np.complex128).itemsize


def test_tone_layout_names_bad_rf_frequencies():
    link = LinkConfig(ModulationFormat(), identity_graph(), "out")
    for fs, got in (([-5.0], "-5 GHz"), ([0.0, 1.0], "0 GHz"),
                    ([1.0, 3.0, 3.0], "3 GHz after 3 GHz"),
                    ([2.0, 1.0], "1 GHz after 2 GHz"),
                    ([1.0, np.nan], "nan GHz after 1 GHz")):
        with pytest.raises(DomainError, match=re.escape(
                "RF frequencies must be > 0 and strictly increasing, "
                f"got {got}")):
            bind_tones(link, np.array(fs))
    with pytest.raises(DomainError, match="got 0 GHz$"):
        rf_transmission_sweep(link, 0.0, 10.0, 1.0)


def test_bind_tones_reads_the_mirrored_grid():
    ring = BlockInstance("r", "ring_allpass",
                         RingParams(50.0, 0.2, round_trip_amplitude=0.9,
                                    detune_ghz=-10.0))
    g = CircuitGraph((ring,), (), {"in": Port("r", "in")},
                     {"out": Port("r", "out")})
    tones = bind_tones(LinkConfig(ModulationFormat(), g, "out"),
                       np.array([2.0, 5.0, 11.0]))
    heaters = {"r.detune": 1.0}
    h_minus, h_zero, h_plus = tones(heaters)
    grid = FrequencyGrid(DEFAULT_CARRIER_THZ,
                         np.array([-11.0, -5.0, -2.0, 0.0, 2.0, 5.0, 11.0]))
    h = evaluate(g.with_heaters(heaters), grid).port("out")
    assert np.array_equal(h_minus, h[[2, 1, 0]])     # in the order of fs
    assert isinstance(h_zero, np.complex128) and h_zero == h[3]
    assert np.array_equal(h_plus, h[4:])


def test_bind_tones_of_a_batch_gives_each_setting_row_by_row():
    tones = bind_tones(LinkConfig(ModulationFormat("PM", 0.2), build_shaper()),
                       np.array([2.0, 5.0, 11.0]))
    phases = np.array([0.0, 1.0, 4.0, 6.0])
    h_minus, h_zero, h_plus = tones({"ps_bar.phase": phases,
                                     "tc_bar.phase": 2.0})
    assert h_minus.shape == h_plus.shape == (4, 3) and h_zero.shape == (4, 1)
    for k, phase in enumerate(phases):
        want = tones({"ps_bar.phase": float(phase), "tc_bar.phase": 2.0})
        for got, w in zip((h_minus[k], h_zero[k, 0], h_plus[k]), want):
            assert np.array_equal(got, w)


def test_bind_tones_overflow_names_the_same_block_for_any_heaters():
    graph = build_shaper()
    tones = bind_tones(LinkConfig(ModulationFormat(), graph),
                       np.array([1e308]))
    messages = []
    for heaters in ({}, {"ps_bar.phase": 0.0}, graph.heater_values()):
        with pytest.raises(DomainError) as err:
            tones(heaters)
        messages.append(str(err.value))
    assert len(graph.heater_values()) == 16
    assert "fsr 30 GHz" in messages[0]
    assert messages == [messages[0]] * 3


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
