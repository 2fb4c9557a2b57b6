import math

import numpy as np
import pytest

from rfshaper.blocks import FrequencyGrid, RingParams
from rfshaper.circuit import evaluate
from rfshaper.errors import ConfigurationError
from rfshaper.metrics import extinction_db, passband_width_3db
from rfshaper.topologies import (DeinterleaverSpec, ShaperConfig,
                                 build_deinterleaver, build_shaper,
                                 fit_round_trip_amplitude,
                                 ring_kappa_for_rejection)


def test_deinterleaver_outputs_complementary_untuned():
    g = build_deinterleaver(DeinterleaverSpec())
    grid = FrequencyGrid.sweep(-30.0, 30.0, 0.5)
    resp = evaluate(g, grid)
    total = resp.power("bar") + resp.power("cross")
    assert np.max(total) <= 1.0 + 1e-9
    # lossless rings and couplers: structurally complementary
    assert np.max(np.abs(total - 1.0)) < 1e-9


def test_designed_deinterleaver_hits_targets():
    g = build_deinterleaver(DeinterleaverSpec.designed())
    grid = FrequencyGrid.sweep(-29.75, 29.75, 0.25)
    resp = evaluate(g, grid)
    ext = extinction_db(grid.offsets_ghz, resp.power("bar"),
                        (3.0, 27.0), (-27.0, -3.0))
    assert ext > 20.0

    wide = FrequencyGrid.sweep(-10.0, 40.0, 0.05)
    width = passband_width_3db(wide.offsets_ghz,
                               evaluate(g, wide).power("bar"), 15.0)
    assert width == pytest.approx(30.0, abs=0.5)


def test_channel_shift_swaps_ports():
    # shifting the grid by one channel swaps bar and cross exactly
    g = build_deinterleaver(DeinterleaverSpec.designed())
    base = FrequencyGrid.sweep(-30.0, 0.0, 0.25)
    shifted = FrequencyGrid.sweep(0.0, 30.0, 0.25)
    r_base = evaluate(g, base)
    r_shift = evaluate(g, shifted)
    assert np.max(np.abs(r_shift.power("bar") - r_base.power("cross"))) < 1e-6
    assert np.max(np.abs(r_shift.power("cross") - r_base.power("bar"))) < 1e-6


def test_deinterleaver_graph_matches_hand_assembled_closed_form():
    # independent assembly: 2x2 coupler algebra times explicit arm factors
    spec = DeinterleaverSpec.designed()
    g = build_deinterleaver(spec)
    f = np.linspace(-29.0, 29.0, 233)
    resp = evaluate(g, FrequencyGrid(193.4, f))

    def coupler(phi):
        e = np.exp(-1j * phi)
        return np.array([[0.5 * (1 - e), -0.5j * (1 + e)],
                         [-0.5j * (1 + e), -0.5 * (1 - e)]])

    def ring(c, detune):
        p = np.exp(-2j * np.pi * (f - detune) / spec.ring_fsr_ghz)
        return (c - p) / (1.0 - c * p)

    ci = coupler(spec.coupler_in_rad)
    co = coupler(spec.coupler_out_rad)
    cs = [math.sqrt(1.0 - k) for k in spec.ring_kappas]
    long_arm = (np.exp(-2j * np.pi * f / spec.arm_fsr_ghz)
                * np.exp(-1j * spec.arm_trim_rad)
                * ring(cs[0], spec.ring_detunes_ghz[0]))
    short_arm = (ring(cs[1], spec.ring_detunes_ghz[1])
                 * ring(cs[2], spec.ring_detunes_ghz[2]))
    u = ci[0, 0] * long_arm
    v = ci[1, 0] * short_arm
    bar = co[0, 0] * u + co[0, 1] * v
    cross = co[1, 0] * u + co[1, 1] * v
    assert np.max(np.abs(resp.port("bar") - bar)) < 1e-12
    assert np.max(np.abs(resp.port("cross") - cross)) < 1e-12


def test_bar_and_cross_come_from_one_evaluation():
    g = build_deinterleaver(DeinterleaverSpec.designed())
    grid = FrequencyGrid.sweep(-10.0, 10.0, 1.0)
    resp = evaluate(g, grid)
    assert set(resp.fields) == {"bar", "cross"}


def test_crossover_translation_is_exact():
    g0 = build_deinterleaver(DeinterleaverSpec.designed())
    g3 = build_deinterleaver(
        DeinterleaverSpec.designed(crossover_offset_ghz=3.0))
    f = np.linspace(-20.0, 20.0, 401)
    r0 = evaluate(g0, FrequencyGrid(193.4, f - 3.0))
    r3 = evaluate(g3, FrequencyGrid(193.4, f))
    for port in ("bar", "cross"):
        assert np.max(np.abs(r3.port(port) - r0.port(port))) < 1e-12


def test_deinterleaver_heaters_exposed():
    g = build_deinterleaver(DeinterleaverSpec())
    names = set(g.heater_names())
    assert {"tc_in.phase", "tc_out.phase", "ps_trim.phase",
            "r1.coupling", "r1.detune", "r2.coupling", "r2.detune",
            "r3.coupling", "r3.detune"} == names


def test_shaper_power_conservation_lossless():
    cfg = ShaperConfig(allpass=ShaperConfig().allpass.__class__(
        fsr_ghz=50.0, kappa=0.1, round_trip_amplitude=1.0),
        adddrop=ShaperConfig().adddrop.__class__(
            fsr_ghz=50.0, kappa=0.1, kappa_drop=0.1,
            round_trip_amplitude=1.0))
    g = build_shaper(cfg).with_heaters({n: 0.0 for n in ("ps_bar.phase",
                                                         "tc_bar.phase")})
    grid = FrequencyGrid.sweep(-25.0, 25.0, 0.5)
    resp = evaluate(g, grid)
    total = sum(resp.power(p) for p in ("detector", "monitor",
                                        "bar_tap", "ring_tap"))
    assert np.max(np.abs(total - 1.0)) < 1e-9


def test_shaper_blocked_coupler_strips_isolated_sideband():
    g = build_shaper(ShaperConfig(bar_coupler_rad=0.0))
    grid = FrequencyGrid(193.4, np.array([-20.0, 0.0, 20.0]))
    h = evaluate(g, grid).port("detector")
    # upper sideband only leaks through the cross-port stopband
    assert abs(h[2]) ** 2 < 1e-2
    assert abs(h[1]) ** 2 > 0.1
    assert abs(h[0]) ** 2 > 0.1


def test_shaper_pi_flip_toggles_rf_level():
    from rfshaper.rflink import (LinkConfig, ModulationFormat,
                                 rf_transmission_sweep)
    g = build_shaper(ShaperConfig())
    link = LinkConfig(ModulationFormat("IM", 0.1), g)
    base = rf_transmission_sweep(link, 20.0, 21.0, 1.0,
                                 heaters={"ps_bar.phase": 0.0})
    flipped = rf_transmission_sweep(link, 20.0, 21.0, 1.0,
                                    heaters={"ps_bar.phase": math.pi})
    assert base.mag_db[0] - flipped.mag_db[0] > 15.0


def test_shaper_route_validation():
    with pytest.raises(ConfigurationError):
        ShaperConfig(adddrop_route="sideways")


def test_build_shaper_needs_the_drop_coupling_of_its_adddrop_ring():
    cfg = ShaperConfig(adddrop=RingParams(fsr_ghz=50.0, kappa=0.1))
    with pytest.raises(ConfigurationError, match="needs kappa_drop"):
        build_shaper(cfg)


def test_fit_round_trip_amplitude_matches_target():
    g = fit_round_trip_amplitude(17.6)
    assert g == pytest.approx(0.91483, abs=1e-4)


def test_ring_kappa_for_rejection_closed_form():
    from rfshaper.blocks import BLOCK_KINDS
    gamma = 0.9148329893507446
    for depth in (3.0, 7.0, 12.0):
        kappa = ring_kappa_for_rejection(gamma, depth)
        ring = RingParams(50.0, kappa, round_trip_amplitude=gamma)
        h = BLOCK_KINDS["ring_allpass"].response(ring, np.array([0.0]))[0][0]
        floor_db = -20.0 * math.log10(abs(h[0]))
        assert floor_db == pytest.approx(depth, abs=1e-9)
