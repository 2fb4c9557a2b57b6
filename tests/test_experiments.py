import numpy as np
import pytest

from rfshaper.errors import ConfigurationError, DomainError
from rfshaper.experiments import run_experiment


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        run_experiment("warp_drive")


def test_unknown_option_rejected():
    with pytest.raises(ConfigurationError, match="does not accept"):
        run_experiment("im2pm", {"bogus_knob": 1.0})


def test_im2pm_extinction():
    result = run_experiment("im2pm", {"sweep": (1.0, 30.0, 0.25)})
    assert result.summary["extinction_db"] >= 15.0
    high = result.traces["im_like"]
    low = result.traces["pm_like"]
    mask = (high.rf_freqs_ghz >= 15.0) & (high.rf_freqs_ghz <= 25.0)
    assert np.min(high.mag_db[mask] - low.mag_db[mask]) >= 15.0


def test_pm2im_extinction_and_recorded_targets():
    result = run_experiment("pm2im", {"sweep": (1.0, 30.0, 0.25)})
    assert result.summary["extinction_db"] >= 15.0
    assert result.summary["target_extinction_alt_db"] == 20.0


def test_ssb_notch_depth_tracks_optical_rejection():
    result = run_experiment("ssb_notch", {"sweep": (6.0, 14.0, 0.01)})
    assert result.summary["notch_depth_db"] == pytest.approx(7.0, abs=1.0)
    assert result.summary["notch_freq_ghz"] == pytest.approx(10.0, abs=0.05)


def test_cancel_notch_enhancement():
    result = run_experiment("cancel_notch", {"sweep": (6.0, 14.0, 0.01)})
    assert result.summary["notch_depth_db"] >= 38.0
    assert result.summary["enhancement_db"] >= 30.0
    assert "ssb_reference" in result.traces


def test_cancel_notch_seed_deterministic():
    a = run_experiment("cancel_notch", {"sweep": (8.0, 12.0, 0.01)}, seed=5)
    b = run_experiment("cancel_notch", {"sweep": (8.0, 12.0, 0.01)}, seed=5)
    assert a.summary == b.summary
    np.testing.assert_array_equal(a.traces["cancel"].mag_db,
                                  b.traces["cancel"].mag_db)


def test_cancel_notch_outside_the_sweep_fails_before_the_polish(monkeypatch):
    from rfshaper import experiments

    def no_polish(*args, **kwargs):
        raise AssertionError("polished a notch outside the sweep")
    monkeypatch.setattr(experiments, "optimize", no_polish)
    with pytest.raises(DomainError, match="^notch at 29 GHz lies outside "
                                          "the RF sweep 6 to 14 GHz$"):
        run_experiment("cancel_notch", {"sweep": (6.0, 14.0, 0.01),
                                        "notch_freq_ghz": 29.0})


@pytest.mark.parametrize("heaters", [
    {"ap.detune": 0.5}, {"ap.detune": 0.5, "tc_bar.phase": 1.0}])
def test_cancel_notch_reference_is_its_own_circuit_with_the_bar_path_blocked(
        heaters):
    # the reference keeps every heater but the two bar-path ones it blocks
    sweep = (8.0, 12.0, 0.01)
    ssb = run_experiment("ssb_notch",
                         {"sweep": sweep, "heaters": {"ap.detune": 0.5}})
    result = run_experiment("cancel_notch",
                            {"sweep": sweep, "heaters": heaters})
    assert result.summary["ssb_depth_db"] == ssb.summary["notch_depth_db"]
    assert result.summary["ssb_depth_db"] == pytest.approx(0.0772, abs=1e-4)
    reference = result.traces["ssb_reference"]
    np.testing.assert_array_equal(reference.mag_db, ssb.traces["ssb"].mag_db)
    np.testing.assert_array_equal(reference.phase_rad,
                                  ssb.traces["ssb"].phase_rad)


def test_cancel_notch_builds_one_circuit_and_runs_no_other_preset(
        monkeypatch):
    from rfshaper import circuit, experiments
    built = []

    def counting_post_init(graph):
        built.append(graph)
        post_init(graph)
    post_init = circuit.CircuitGraph.__post_init__
    monkeypatch.setattr(circuit.CircuitGraph, "__post_init__",
                        counting_post_init)

    def no_preset(*args, **kwargs):
        raise AssertionError("ran another preset")
    monkeypatch.setattr(experiments, "ssb_notch", no_preset)
    run_experiment("cancel_notch", {"sweep": (8.0, 12.0, 0.01)})
    assert len(built) == 1


def test_bandpass_peaks_match_detunes():
    result = run_experiment("bandpass_tune")
    step = result.summary["sweep_step_ghz"]
    for d in (8.0, 12.0, 16.0, 20.0):
        assert result.summary[f"peak_freq_ghz_{d:g}"] == pytest.approx(d, abs=step)


def test_deint_phase_probe_ports():
    result = run_experiment("deint_phase_probe", {"sweep": (1.0, 29.0, 0.25)})
    assert set(result.traces) == {"bar", "cross"}
    bar = result.traces["bar"]
    mask = (bar.rf_freqs_ghz >= 5.0) & (bar.rf_freqs_ghz <= 25.0)
    # phase response is smooth across the passband interior
    assert np.max(np.abs(np.diff(bar.phase_rad[mask]))) < 0.5


def test_amplitude_tuning_compensation_behaviour():
    result = run_experiment("amplitude_tuning")
    assert result.summary["uncompensated_offset_steps"] > 1
    assert result.summary["compensated_offset_steps"] <= 1
    headers, rows = result.tables["uncompensated"]
    assert headers[0] == "heater_power_mw"
    arr = np.asarray(rows)
    # carrier power stays fixed while the upper sideband swings
    assert np.ptp(arr[:, 4]) / np.mean(arr[:, 4]) < 0.01
    assert np.ptp(arr[:, 2]) / np.max(arr[:, 2]) > 0.9


def test_coupling_sweep_states():
    result = run_experiment("coupling_sweep")
    kc = result.summary["critical_kappa"]
    assert result.summary[f"kappa_{kc:.4f}_state"] == "critical"
    assert result.summary[f"kappa_{kc:.4f}_depth_db"] > 60.0
    assert result.summary["kappa_0.0500_state"] == "under"
    assert result.summary["kappa_0.4000_state"] == "over"
    assert len(result.optical) == 5


@pytest.mark.parametrize("preset, key", [
    ("coupling_sweep", "kappas"), ("bandpass_tune", "detunes_ghz")])
def test_list_option_takes_a_single_number_but_not_an_empty_list(preset, key):
    assert run_experiment(preset, {key: 0.2 if key == "kappas" else 12.0}
                          ).summary
    for empty in ([], ()):
        with pytest.raises(ConfigurationError,
                           match=f"^option {key!r} takes values like "):
            run_experiment(preset, {key: empty})


@pytest.mark.parametrize("preset, key, values, label", [
    ("coupling_sweep", "kappas", (0.10001, 0.10002), "kappa_0.1000"),
    ("bandpass_tune", "detunes_ghz", (8.0000001, 8.0000002), "8"),
    ("bandpass_tune", "detunes_ghz", (12.0, 16.0, 12.0), "12"),
])
def test_list_option_values_sharing_a_label_are_rejected(preset, key, values,
                                                         label):
    with pytest.raises(ConfigurationError,
                       match=f"^option {key!r} gives two values the label "
                             f"{label!r}$"):
        run_experiment(preset, {key: values})


def test_negative_seed_is_named_before_the_preset_runs():
    with pytest.raises(ConfigurationError,
                       match="^seed must be a non-negative integer, got -1$"):
        run_experiment("cancel_notch", seed=-1)


@pytest.mark.parametrize("heaters", [1.0, 0, (0.3,)])
def test_heaters_option_must_be_a_mapping(heaters):
    with pytest.raises(ConfigurationError, match="option 'heaters'"):
        run_experiment("ssb_notch", {"heaters": heaters})


def test_heaters_option_is_read_before_a_presets_range_checks():
    with pytest.raises(ConfigurationError, match="option 'heaters'"):
        run_experiment("amplitude_tuning",
                       {"power_step_mw": 0.0, "heaters": 1.0})


def test_heater_override_accepted():
    result = run_experiment("ssb_notch", {"sweep": (8.0, 12.0, 0.01),
                                          "heaters": {"ps_bar.phase": 0.3}})
    assert result.summary["notch_depth_db"] == pytest.approx(7.0, abs=1.0)


def test_amplitude_tuning_binds_its_circuit_once(monkeypatch):
    from rfshaper import circuit, rflink
    grids = []

    def counting_bind(graph, grid, input_name=None):
        grids.append(grid.offsets_ghz.tolist())
        return circuit.bind(graph, grid, input_name)
    monkeypatch.setattr(rflink, "bind", counting_bind)
    run_experiment("amplitude_tuning", {"power_step_mw": 5.0})
    assert grids == [[-20.0, 0.0, 20.0]]


def test_amplitude_tuning_reads_each_table_from_one_batched_pass(
        monkeypatch):
    # two passes find the shifter's base phase, one per table reads its
    # rows: a pass per table row would make 2 + 2 * 141
    from rfshaper import circuit
    passes = []

    def counting_pass(graph, grid, plan, fields, heaters):
        passes.append(heaters)
        return run_pass(graph, grid, plan, fields, heaters)
    run_pass = circuit._pass
    monkeypatch.setattr(circuit, "_pass", counting_pass)
    result = run_experiment("amplitude_tuning")
    assert len(passes) == 4
    assert [len(result.tables[t][1]) for t in result.tables] == [141, 141]
