"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all) and asserts the criterion at its stated tolerance, including
the wall-clock budget.
"""

import math
import time

import numpy as np

from rfshaper.blocks import (BLOCK_KINDS, FrequencyGrid,
                             critical_coupling_kappa, RingParams)
from rfshaper.circuit import evaluate
from rfshaper.cli import main as cli_main
from rfshaper.constants import DEFAULT_RESPONSIVITY_A_PER_W
from rfshaper.csvout import write_rf_csv
from rfshaper.experiments import run_experiment
from rfshaper.kernels import beat_phasor_grid, h_tunable_coupler
from rfshaper.metrics import (extinction_db, passband_width_3db,
                              q_and_finesse)
from rfshaper.netlist import document_to_text, parse_netlist
from rfshaper.rflink import ModulationFormat
from rfshaper.topologies import (DeinterleaverSpec, build_deinterleaver,
                                 fit_round_trip_amplitude)
from rfshaper.tuner import compensate_coupler_phase

from tests.reference import time_domain_oracle, unitarity_defect


def h_ring_allpass(offsets, ring):
    """All-pass ring response as the simulator computes it."""
    return BLOCK_KINDS["ring_allpass"].response(ring, offsets)[0][0]


def beat(e_minus, e_carrier, e_plus):
    """Detected beat phasor of three tones with no circuit."""
    return beat_phasor_grid(1.0, 1.0, 1.0, e_minus, e_carrier, e_plus,
                            DEFAULT_RESPONSIVITY_A_PER_W)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        re = rng.normal(size=3)
        im = rng.normal(size=3)
        rng.uniform(1.0, 30.0)  # an RF frequency, which the beat ignores
        tones = (complex(re[0], im[0]), complex(re[1], im[1]),
                 complex(re[2], im[2]))
        a = beat(*tones)
        b = time_domain_oracle(*tones)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"oracle worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_pm_null_and_im_max():
    start = time.perf_counter()
    carrier = 1.0
    pm_null = abs(beat(*ModulationFormat("PM", 0.1).tones))

    m = 0.1
    phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    best = 0.0
    for pminus in phases:
        eminus = m * np.exp(1j * pminus)
        for pplus in phases:
            best = max(best, abs(beat(eminus, carrier,
                                      m * np.exp(1j * pplus))))
    im_val = abs(beat(*ModulationFormat("IM", m).tones))
    elapsed = time.perf_counter() - start
    ok = pm_null <= 1e-15 * carrier ** 2 and im_val >= best - 1e-12 \
        and elapsed < 10.0
    report(2, ok, f"PM null {pm_null:.2e}, IM max {im_val:.4f} vs grid "
                  f"{best:.4f}, {elapsed:.2f}s")
    assert pm_null <= 1e-15 * carrier ** 2
    assert im_val >= best - 1e-12
    assert elapsed < 10.0


def test_criterion_3_deinterleaver_targets(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "tuned.nl"
    rc = cli_main(["optimize", "preset:deinterleaver",
                   "--objective", "deinterleaver_extinction",
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc, errors = parse_netlist(out.read_text())
    assert not errors
    graph = doc.to_graph()
    grid = FrequencyGrid.sweep(-29.875, 29.875, 0.25)
    resp = evaluate(graph, grid)
    ext = extinction_db(grid.offsets_ghz, resp.power("bar"),
                        (3.0, 27.0), (-27.0, -3.0))
    wide = FrequencyGrid.sweep(-10.0, 40.0, 0.05)
    width = passband_width_3db(wide.offsets_ghz,
                               evaluate(graph, wide).power("bar"), 15.0)
    elapsed = time.perf_counter() - start
    ok = ext >= 20.0 and abs(width - 30.0) <= 3.0 and elapsed < 60.0
    report(3, ok, f"extinction {ext:.1f} dB, -3 dB width {width:.2f} GHz, "
                  f"{elapsed:.1f}s")
    assert ext >= 20.0
    assert abs(width - 30.0) <= 3.0
    assert elapsed < 60.0


def test_criterion_4_ring_figures_of_merit():
    start = time.perf_counter()
    gamma = fit_round_trip_amplitude(17.6)
    ring = RingParams(fsr_ghz=50.0, kappa=critical_coupling_kappa(gamma),
                      round_trip_amplitude=gamma)
    offs = np.arange(-25.0, 25.0, 0.01)
    power = np.abs(h_ring_allpass(offs, ring)) ** 2
    q, finesse = q_and_finesse(offs, power, 0.0, 50.0)
    elapsed = time.perf_counter() - start
    ok = abs(q - 68000.0) / 68000.0 <= 0.05 \
        and abs(finesse - 17.6) / 17.6 <= 0.05 and elapsed < 5.0
    report(4, ok, f"gamma {gamma:.5f}, Q {q:.0f}, finesse {finesse:.2f}, "
                  f"{elapsed:.2f}s")
    assert abs(q - 68000.0) / 68000.0 <= 0.05
    assert abs(finesse - 17.6) / 17.6 <= 0.05
    assert elapsed < 5.0


def test_criterion_5_modulation_conversion():
    start = time.perf_counter()
    im = run_experiment("im2pm")
    pm = run_experiment("pm2im")
    elapsed = time.perf_counter() - start
    ok = im.summary["extinction_db"] >= 15.0 \
        and pm.summary["extinction_db"] >= 15.0 \
        and pm.summary["target_extinction_alt_db"] == 20.0 \
        and elapsed < 30.0
    report(5, ok, f"im2pm {im.summary['extinction_db']:.1f} dB, "
                  f"pm2im {pm.summary['extinction_db']:.1f} dB "
                  f"(alt target {pm.summary['target_extinction_alt_db']:.0f} dB "
                  f"recorded), {elapsed:.1f}s")
    assert im.summary["extinction_db"] >= 15.0
    assert pm.summary["extinction_db"] >= 15.0
    assert pm.summary["target_extinction_alt_db"] == 20.0
    assert elapsed < 30.0


def test_criterion_6_notch_enhancement():
    start = time.perf_counter()
    result = run_experiment("cancel_notch")
    ssb_depth = result.summary["ssb_depth_db"]
    cancel_depth = result.summary["notch_depth_db"]
    elapsed = time.perf_counter() - start
    ok = abs(ssb_depth - 7.0) <= 1.0 and cancel_depth >= 38.0 \
        and cancel_depth - ssb_depth >= 30.0 and elapsed < 30.0
    report(6, ok, f"ssb {ssb_depth:.2f} dB, cancellation {cancel_depth:.1f} dB, "
                  f"difference {cancel_depth - ssb_depth:.1f} dB, {elapsed:.1f}s")
    assert abs(ssb_depth - 7.0) <= 1.0
    assert cancel_depth >= 38.0
    assert cancel_depth - ssb_depth >= 30.0
    assert elapsed < 30.0


def test_criterion_7_bandpass_tuning():
    start = time.perf_counter()
    result = run_experiment("bandpass_tune")
    step = result.summary["sweep_step_ghz"]
    errors = [abs(result.summary[f"peak_freq_ghz_{d:g}"] - d)
              for d in (8.0, 12.0, 16.0, 20.0)]
    elapsed = time.perf_counter() - start
    ok = max(errors) <= step and elapsed < 60.0
    report(7, ok, f"peak errors {['%.3f' % e for e in errors]} GHz at "
                  f"{step} GHz step, {elapsed:.1f}s")
    assert max(errors) <= step
    assert elapsed < 60.0


def test_criterion_8_parasitic_phase_compensation():
    start = time.perf_counter()
    worst_power, worst_phase = 0.0, 0.0
    for target in np.linspace(0.0, 1.0, 100):
        phi, comp = compensate_coupler_phase(float(target))
        bar = h_tunable_coupler(phi)[0][0] * np.exp(1j * comp)
        worst_power = max(worst_power, abs(abs(bar) ** 2 - target))
        if target > 0.0:
            worst_phase = max(worst_phase, abs(math.atan2(bar.imag, bar.real)))
    result = run_experiment("amplitude_tuning")
    off_unc = result.summary["uncompensated_offset_steps"]
    off_cmp = result.summary["compensated_offset_steps"]
    elapsed = time.perf_counter() - start
    ok = worst_power <= 1e-12 and worst_phase <= 1e-12 \
        and off_unc > 1 and off_cmp <= 1
    report(8, ok, f"round-trip err power {worst_power:.1e} phase "
                  f"{worst_phase:.1e}; RF-min offset {off_unc} steps "
                  f"uncompensated vs {off_cmp} compensated, {elapsed:.1f}s")
    assert worst_power <= 1e-12
    assert worst_phase <= 1e-12
    assert off_unc > 1
    assert off_cmp <= 1


def test_criterion_9_property_suites(tmp_path):
    start = time.perf_counter()
    checks: list[tuple[str, bool]] = []

    # unitarity / energy bound
    defect = max(unitarity_defect(h_tunable_coupler(phi))
                 for phi in np.linspace(0, 2 * math.pi, 64))
    checks.append(("coupler unitarity 1e-12", defect < 1e-12))

    # ring periodicity and all-pass magnitude
    ring = RingParams(fsr_ghz=50.0, kappa=0.2, round_trip_amplitude=0.93,
                      detune_ghz=3.0)
    offs = np.random.default_rng(0).uniform(-100, 100, 100)
    periodic = np.max(np.abs(h_ring_allpass(offs, ring)
                             - h_ring_allpass(offs + 50.0, ring)))
    checks.append(("ring periodicity 1e-10", periodic < 1e-10))
    lossless = RingParams(fsr_ghz=50.0, kappa=0.2, round_trip_amplitude=1.0)
    mag = np.max(np.abs(np.abs(h_ring_allpass(offs, lossless)) - 1.0))
    checks.append(("all-pass unit magnitude 1e-12", mag < 1e-12))

    # graph evaluation vs closed-form cascade
    from tests.test_circuit import chain_graph, closed_form, random_scalar_block
    rng = np.random.default_rng(3)
    blocks = [random_scalar_block(rng, i) for i in range(8)]
    g = chain_graph(blocks)
    grid = FrequencyGrid.sweep(-40, 40, 0.5)
    resp = evaluate(g, grid).port("out")
    prod = np.ones(len(grid), dtype=complex)
    for b in blocks:
        prod = prod * closed_form(b, grid.offsets_ghz)
    checks.append(("cascade equivalence 1e-12",
                   bool(np.max(np.abs(resp - prod)) < 1e-12)))

    # parse-print-parse idempotence on the shipped preset
    text = document_to_text(build_deinterleaver(DeinterleaverSpec.designed()))
    doc, errs = parse_netlist(text)
    checks.append(("parse-print-parse", not errs
                   and document_to_text(doc) == text))

    # CSV byte determinism
    from rfshaper.rflink import RfResponse
    resp_rf = RfResponse(np.arange(1.0, 5.0, 0.1),
                         np.linspace(-40, 0, 40), np.linspace(-3, 3, 40))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rf_csv(resp_rf, p1)
    write_rf_csv(resp_rf, p2)
    checks.append(("csv determinism", p1.read_bytes() == p2.read_bytes()))

    # optimizer seed determinism
    from rfshaper.tuner import Objective, OptimizerConfig, optimize
    g = build_deinterleaver(DeinterleaverSpec.designed())
    cfg = OptimizerConfig(max_evals=300, restarts=2, seed=11)
    obj = Objective("deinterleaver_extinction")
    r1 = optimize(g, obj, cfg)
    r2 = optimize(g, obj, cfg)
    checks.append(("optimizer determinism",
                   r1.best == r2.best and r1.best_value == r2.best_value))

    elapsed = time.perf_counter() - start
    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    report(9, ok, f"{len(checks)} property groups green, {elapsed:.1f}s"
           + (f"; failed: {failed}" if failed else ""))
    assert ok, f"failed property groups: {failed}"
