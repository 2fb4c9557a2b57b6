import numpy as np
import pytest

from rfshaper.cli import main
from rfshaper.metrics import extinction_db
from rfshaper.netlist import parse_netlist


def run(args):
    return main(list(args))


def test_block_ring_allpass_critical_notch(tmp_path, capsys):
    out = tmp_path / "ring.csv"
    rc = run(["block", "ring_allpass", "kappa=0.16308060159558035",
              "fsr_ghz=50", "round_trip_amplitude=0.9148329893507446",
              "--sweep=-5:5:0.01", "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    power = data[:, 1] ** 2 + data[:, 2] ** 2
    assert power.min() < 1e-12
    assert abs(data[np.argmin(power), 0]) < 0.02


def test_block_adddrop_writes_both_ports(tmp_path):
    out = tmp_path / "ad.csv"
    rc = run(["block", "ring_adddrop", "kappa=0.1", "kappa_drop=0.1",
              "fsr_ghz=50", "round_trip_amplitude=0.9148329893507446",
              "--sweep=-5:5:0.01", "--out", str(out)])
    assert rc == 0
    drop = np.loadtxt(tmp_path / "ad_drop.csv", delimiter=",", skiprows=1)
    power = drop[:, 1] ** 2 + drop[:, 2] ** 2
    assert abs(drop[np.argmax(power), 0]) < 0.02     # Lorentzian peak at 0
    assert (tmp_path / "ad_through.csv").exists()


def test_block_tunable_coupler_phase_table(tmp_path):
    out = tmp_path / "tc.csv"
    rc = run(["block", "tunable_coupler", "--phase-sweep", "0:6.28:0.01",
              "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1] + data[:, 2], 1.0, atol=1e-9)
    assert np.ptp(data[1:, 3]) > 1.0      # bar phase rotates with setting


def test_block_bad_params_exit_3(tmp_path):
    rc = run(["block", "ring_allpass", "kappa=2.0", "fsr_ghz=50",
              "--sweep=-5:5:0.1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_sweep_preset_deinterleaver(tmp_path):
    out = tmp_path / "deint.csv"
    rc = run(["sweep", "preset:deinterleaver", "--sweep=-29.75:29.75:0.25",
              "--port", "bar", "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    power = data[:, 1] ** 2 + data[:, 2] ** 2
    assert extinction_db(data[:, 0], power, (3, 27), (-27, -3)) > 20.0


def test_sweep_identity_netlist_flat(tmp_path):
    nl = tmp_path / "id.nl"
    nl.write_text("block ps phase_shifter phase_rad=0\n"
                  "input in ps.in\noutput out ps.out\n")
    out = tmp_path / "id.csv"
    assert run(["sweep", str(nl), "--sweep=-10:10:0.5",
                "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1] ** 2 + data[:, 2] ** 2, 1.0,
                               atol=1e-9)


def test_sweep_unknown_port_lists_alternatives(tmp_path, capsys):
    rc = run(["sweep", "preset:deinterleaver", "--sweep=-5:5:1",
              "--port", "nope", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "available" in capsys.readouterr().err


def test_sweep_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.nl"
    bad.write_text("block r1 ring_allpass kappa=1.5\n")
    rc = run(["sweep", str(bad), "--sweep=-5:5:1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


def test_sweep_missing_file_exit_4(tmp_path):
    rc = run(["sweep", str(tmp_path / "absent.nl"), "--sweep=-5:5:1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 4


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])          # missing required flags
    assert exc.value.code == 2


def test_experiment_command_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment ssb_notch\nsweep 8 12 0.01\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(["experiment", str(cfg), "--out-dir", str(out1)]) == 0
    first = capsys.readouterr().out
    assert run(["experiment", str(cfg), "--out-dir", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first.replace("run1", "X") == second.replace("run2", "X")
    a = (out1 / "ssb_notch_ssb.csv").read_bytes()
    b = (out2 / "ssb_notch_ssb.csv").read_bytes()
    assert a == b
    summary = (out1 / "ssb_notch_summary.txt").read_text()
    assert "notch_depth_db" in summary


def test_experiment_bandpass_with_option_list(tmp_path, capsys):
    cfg = tmp_path / "bp.cfg"
    cfg.write_text("experiment bandpass_tune\nset detunes_ghz 8,16\n")
    out = tmp_path / "bp"
    assert run(["experiment", str(cfg), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "peak_freq_ghz_8" in printed and "peak_freq_ghz_16" in printed
    assert (out / "bandpass_tune_detune_8.csv").exists()
    assert (out / "bandpass_tune_detune_16.csv").exists()


def test_experiment_unknown_preset_exit_3(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment warp_drive\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == 3


def test_optimize_deinterleaver_roundtrip(tmp_path, capsys):
    out = tmp_path / "tuned.nl"
    rc = run(["optimize", "preset:deinterleaver",
              "--objective", "deinterleaver_extinction",
              "--max-evals", "2000", "--restarts", "2",
              "--seed", "0", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "best_value" in printed and "converged" in printed
    doc, errors = parse_netlist(out.read_text())
    assert not errors
    graph = doc.to_graph()
    from rfshaper.blocks import FrequencyGrid
    from rfshaper.circuit import evaluate
    grid = FrequencyGrid.sweep(-29.75, 29.75, 0.25)
    resp = evaluate(graph, grid)
    ext = extinction_db(grid.offsets_ghz, resp.power("bar"), (3, 27), (-27, -3))
    assert ext >= 20.0


def test_optimize_seed_reproducible(tmp_path, capsys):
    outs = []
    for name in ("a.nl", "b.nl"):
        out = tmp_path / name
        rc = run(["optimize", "preset:deinterleaver",
                  "--objective", "deinterleaver_extinction",
                  "--max-evals", "400", "--restarts", "2",
                  "--seed", "7", "--out", str(out),
                  "--summary", str(tmp_path / (name + ".sum"))])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    a = (tmp_path / "a.nl.sum").read_text().replace("a.nl", "N")
    b = (tmp_path / "b.nl.sum").read_text().replace("b.nl", "N")
    assert a == b


def test_optimize_critical_coupling_objective(tmp_path):
    ring_nl = tmp_path / "ring.nl"
    ring_nl.write_text(
        "block r ring_allpass kappa=0.5 fsr_ghz=50 "
        "round_trip_amplitude=0.9148329893507446\n"
        "input in r.in\noutput out r.out\n")
    out = tmp_path / "tuned.nl"
    rc = run(["optimize", str(ring_nl), "--objective", "critical_coupling",
              "--port", "out", "--offset", "0", "--heaters", "r.coupling",
              "--max-evals", "3000", "--restarts", "4", "--seed", "0",
              "--out", str(out)])
    assert rc == 0
    doc, _ = parse_netlist(out.read_text())
    kappa = doc.blocks[0].params.kappa
    assert kappa == pytest.approx(1.0 - 0.9148329893507446 ** 2, abs=1e-3)


@pytest.mark.parametrize("kind, params", [
    ("ring_allpass", ["kappa=0", "round_trip_amplitude=1"]),
    ("ring_adddrop", ["kappa=0", "kappa_drop=0"]),
])
def test_block_singular_ring_exit_4(tmp_path, capsys, kind, params):
    out = tmp_path / "x.csv"
    rc = run(["block", kind, *params, "fsr_ghz=50", "--sweep=-1:1:0.5",
              "--out", str(out)])
    assert rc == 4
    assert "resonance" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_block_phase_sweep_names_its_kind(tmp_path, capsys):
    rc = run(["block", "ring_allpass", "--phase-sweep", "0:1:0.5",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "--phase-sweep only applies to tunable_coupler" in err
    assert "requires" not in err


@pytest.mark.parametrize("preset, line, code", [
    # wrong kind or length: exit 3
    ("bandpass_tune", "set detunes_ghz 8", 3),
    ("coupling_sweep", "set kappas 0.1", 3),
    ("im2pm", "set modulation_index 0.1,0.2", 3),
    ("ssb_notch", "set notch_freq_ghz 1,2", 3),
    ("ssb_notch", "set sweep 1,2", 3),
    # out of range: exit 4
    ("amplitude_tuning", "set power_step_mw 0", 4),
    ("coupling_sweep", "set step_ghz 0", 4),
    ("coupling_sweep", "set kappas 0.1,1.5", 4),
    ("amplitude_tuning", "set power_step_mw -1", 4),
    ("amplitude_tuning", "set power_max_mw -1", 4),
    # a sweep that misses the band the preset reduces over: exit 4
    ("im2pm", "sweep 35 40 0.5", 4),
    ("deint_phase_probe", "sweep 1 2 0.5", 4),
])
def test_experiment_bad_option_exit_code(tmp_path, capsys, preset, line, code):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment {preset}\n{line}\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith("error: ")
