import re

import numpy as np
import pytest

from rfshaper import cli
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


def never(*args, **kwargs):
    raise AssertionError("the circuit was evaluated")


@pytest.mark.parametrize("option, message", [
    ("--port", "unknown output port 'nosuch'; available: bar, cross"),
    ("--input", "unknown input 'nosuch'"),
], ids=["port", "input"])
def test_sweep_unknown_port_fails_before_evaluating(
        tmp_path, capsys, monkeypatch, option, message):
    # checked before the directory of --out, too: a usage mistake exits 3
    monkeypatch.setattr(cli, "evaluate", never)
    rc = run(["sweep", "preset:deinterleaver", "--sweep=-30:30:0.00002",
              option, "nosuch", "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["sweep", "preset:deinterleaver", "--sweep=-30:30:0.00002"],
    ["sweep", "preset:deinterleaver", "--sweep=-30:30:0.00002",
     "--port", "bar"],
    ["block", "ring_allpass", "kappa=0.163", "fsr_ghz=50",
     "--sweep=-5:5:0.00001"],
    ["block", "tunable_coupler", "--phase-sweep", "0:6.283:0.00001"],
], ids=["sweep", "sweep_port", "block", "block_phase_sweep"])
def test_missing_csv_directory_fails_before_evaluating(
        tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "evaluate", never)
    monkeypatch.setattr(cli, "h_tunable_coupler", never)
    dest = tmp_path / "missing" / "x.csv"
    assert run(argv + ["--out", str(dest)]) == 4
    assert capsys.readouterr().err == (
        f"error: cannot write CSV to {dest}: {dest.parent} is not a directory\n")
    assert not list(tmp_path.iterdir())


def test_sweep_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.nl"
    bad.write_text("block r1 ring_allpass kappa=1.5\n")
    rc = run(["sweep", str(bad), "--sweep=-5:5:1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, position", [
    ("param p_pi_mw 35.0\n", "line 1, col 1"),
    ("block tc tunable_coupler phase_rad=1 heater_power_mw=1\n",
     "line 1, col 38"),
])
def test_sweep_removed_netlist_data_exit_3(tmp_path, capsys, text, position):
    bad = tmp_path / "old.nl"
    bad.write_text(text)
    rc = run(["sweep", str(bad), "--sweep=-5:5:1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert position in capsys.readouterr().err


def test_block_heater_power_key_exit_3(tmp_path, capsys):
    rc = run(["block", "phase_shifter", "phase_rad=1", "heater_power_mw=1",
              "--sweep=-5:5:1", "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: kind phase_shifter has no key 'heater_power_mw' "
        "near 'heater_power_mw=1'\n")


@pytest.mark.parametrize("kind, params", [
    ("ring_allpass", ["kappa=0.1", "bogus=1", "fsr_ghz=50"]),
    ("ring_allpass", ["kappa=abc", "fsr_ghz=50"]),
    ("ring_allpass", ["kappa=nan", "fsr_ghz=50"]),
    ("ring_allpass", ["kappa=0.1", "kappa=0.2", "fsr_ghz=50"]),
    ("phase_shifter", ["phase_rad"]),
    ("ring_allpass", ["fsr_ghz=50"]),
    ("ring_adddrop", ["kappa=0.1", "kappa_drop=2", "fsr_ghz=50"]),
], ids=["unknown_key", "bad_number", "nan", "repeated_key", "no_equals",
        "missing_key", "out_of_range"])
def test_block_and_netlist_give_the_same_parameter_messages(
        tmp_path, capsys, kind, params):
    nl = tmp_path / "one.nl"
    nl.write_text(f"block b {kind} {' '.join(params)}\n")
    assert run(["sweep", str(nl), "--sweep=-1:1:1",
                "--out", str(tmp_path / "x.csv")]) == 3
    from_netlist = re.sub(r"line 1, col \d+: ", "", capsys.readouterr().err)
    assert run(["block", kind, *params, "--sweep=-1:1:1",
                "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == from_netlist
    assert [p.name for p in tmp_path.iterdir()] == ["one.nl"]


def test_optimize_repeated_heater_exit_3(tmp_path, capsys):
    rc = run(["optimize", "preset:deinterleaver",
              "--objective", "deinterleaver_extinction",
              "--heaters", "ps_trim.phase,ps_trim.phase",
              "--max-evals", "50", "--out", str(tmp_path / "t.nl")])
    assert rc == 3
    assert "more than once" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_optimize_unwritable_summary_names_the_summary(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.sum"
    assert run(["optimize", "preset:deinterleaver", "--objective",
                "deinterleaver_extinction", "--max-evals", "40",
                "--restarts", "1", "--out", str(tmp_path / "t.nl"),
                "--summary", str(dest)]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: cannot write summary to {dest}: ")
    assert not (tmp_path / "t.nl").exists()


@pytest.mark.parametrize("option, what", [
    ("--out", "netlist"), ("--summary", "summary to")], ids=["out", "summary"])
def test_optimize_missing_output_directory_fails_before_optimizing(
        tmp_path, capsys, monkeypatch, option, what):
    def never(*args, **kwargs):
        raise AssertionError("the optimizer ran")
    monkeypatch.setattr(cli, "optimize", never)
    dest = tmp_path / "missing" / "x"
    paths = {"--out": tmp_path / "t.nl", "--summary": tmp_path / "t.sum",
             option: dest}
    assert run(["optimize", "preset:deinterleaver", "--objective",
                "deinterleaver_extinction",
                *(str(a) for item in paths.items() for a in item)]) == 4
    assert capsys.readouterr().err == (
        f"error: cannot write {what} {dest}: {dest.parent} is not a directory\n")
    assert not list(tmp_path.iterdir())


def test_optimize_summary_that_cannot_be_written_removes_the_netlist(
        tmp_path, capsys):
    dest = tmp_path / "adir"
    dest.mkdir()
    assert run(["optimize", "preset:deinterleaver", "--objective",
                "deinterleaver_extinction", "--max-evals", "40",
                "--restarts", "1", "--out", str(tmp_path / "t.nl"),
                "--summary", str(dest)]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: cannot write summary to {dest}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


def test_experiment_out_dir_that_is_a_file_exit_4(tmp_path, capsys):
    cfg, afile = tmp_path / "exp.cfg", tmp_path / "afile"
    cfg.write_text("experiment ssb_notch\nsweep 8 12 0.5\n")
    afile.write_text("")
    assert run(["experiment", str(cfg), "--out-dir", str(afile)]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: cannot create output directory {afile}: ")


@pytest.mark.parametrize("under", ["", "sub"])
def test_experiment_out_dir_blocked_by_a_file_fails_before_the_preset(
        tmp_path, capsys, monkeypatch, under):
    def never(*args, **kwargs):
        raise AssertionError("the preset ran")
    monkeypatch.setattr(cli, "run_experiment", never)
    cfg, afile = tmp_path / "exp.cfg", tmp_path / "afile"
    cfg.write_text("experiment ssb_notch\nsweep 8 12 0.5\n")
    afile.write_text("")
    outdir = afile / under if under else afile
    assert run(["experiment", str(cfg), "--out-dir", str(outdir)]) == 4
    assert capsys.readouterr().err == (
        f"error: cannot create output directory {outdir}: "
        f"{afile} is not a directory\n")


def test_experiment_failed_preset_makes_no_out_dir(tmp_path, capsys):
    cfg, outdir = tmp_path / "exp.cfg", tmp_path / "new" / "dir"
    cfg.write_text("experiment ssb_notch\nsweep 8 12 -0.5\n")
    assert run(["experiment", str(cfg), "--out-dir", str(outdir)]) != 0
    assert not (tmp_path / "new").exists()


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


@pytest.mark.parametrize("preset, line, printed", [
    ("bandpass_tune", "set detunes_ghz 12", "detunes_ghz 12"),
    ("coupling_sweep", "set kappas 0.2", "kappa_0.2000_state over"),
])
def test_experiment_one_value_list_option(tmp_path, capsys, preset, line,
                                          printed):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment {preset}\n{line}\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert printed in capsys.readouterr().out.splitlines()
    assert len(list(tmp_path.glob("*.csv"))) == 1


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
    ("im2pm", "set modulation_index 0.1,0.2", 3),
    ("ssb_notch", "set notch_freq_ghz 1,2", 3),
    ("ssb_notch", "set sweep 1,2", 3),
    # out of range: exit 4
    ("amplitude_tuning", "set power_step_mw 0", 4),
    ("coupling_sweep", "set step_ghz 0", 4),
    ("coupling_sweep", "set kappas 0.1,1.5", 4),
    ("amplitude_tuning", "set power_step_mw -1", 4),
    ("amplitude_tuning", "set power_max_mw -1", 4),
    ("amplitude_tuning", "set anchor_power_mw -1", 4),
    # a polish budget below one simplex per restart, or not whole: exit 3
    ("cancel_notch", "set polish_evals 3", 3),
    ("cancel_notch", "set polish_evals 600.5", 3),
    # a sweep that misses the band the preset reduces over: exit 4
    ("im2pm", "sweep 35 40 0.5", 4),
    ("deint_phase_probe", "sweep 1 2 0.5", 4),
    # a sweep or range too large to allocate: exit 4
    ("ssb_notch", "sweep 2 28 1e-300", 4),
    ("coupling_sweep", "set step_ghz 1e-300", 4),
    ("amplitude_tuning", "set power_step_mw 1e-300", 4),
])
def test_experiment_bad_option_exit_code(tmp_path, capsys, preset, line, code):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment {preset}\n{line}\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["3", "600.5", "0"])
def test_experiment_bad_polish_budget_names_the_option(tmp_path, capsys, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment cancel_notch\nset polish_evals {value}\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert "polish_evals" in capsys.readouterr().err


@pytest.mark.parametrize("settings, field", [
    (["--objective", "notch_depth", "--rf-freq", "0"], "rf_freq_ghz"),
    (["--objective", "notch_depth", "--rf-freq", "nan"], "rf_freq_ghz"),
    (["--objective", "critical_coupling", "--offset", "nan"], "offset_ghz"),
])
def test_optimize_bad_objective_setting_exit_3(tmp_path, capsys, settings,
                                               field):
    out = tmp_path / "t.nl"
    assert run(["optimize", "preset:shaper", *settings,
                "--out", str(out)]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_optimize_budget_below_simplex_exit_3(tmp_path, capsys):
    rc = run(["optimize", "preset:deinterleaver", "--objective",
              "deinterleaver_extinction", "--max-evals", "5", "--restarts", "1",
              "--out", str(tmp_path / "t.nl")])
    assert rc == 3
    assert "max_evals >= 20" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["block", "ring_allpass", "kappa=0.1", "fsr_ghz=50",
      "--sweep=-inf:1:0.1"], 3, "lo:hi:step"),
    (["block", "tunable_coupler", "--phase-sweep", "0:inf:1"], 3,
     "lo:hi:step"),
    (["sweep", "preset:deinterleaver", "--sweep=0:1:1e-300"], 4, "sweep"),
    (["block", "tunable_coupler", "--phase-sweep", "0:1:1e-300"], 4,
     "sweep"),
])
def test_range_not_finite_or_too_large(tmp_path, capsys, argv, code, message):
    assert run([*argv, "--out", str(tmp_path / "x.csv")]) == code
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


TWO_INPUT_NETLIST = ("block tc tunable_coupler phase_rad=1\n"
                     "input a tc.in0\ninput b tc.in1\n"
                     "output bar tc.out0\noutput cross tc.out1\n")


def test_sweep_input_picks_the_input_of_a_two_input_netlist(tmp_path, capsys):
    nl = tmp_path / "two.nl"
    nl.write_text(TWO_INPUT_NETLIST)
    doc, errors = parse_netlist(TWO_INPUT_NETLIST)
    assert not errors
    from rfshaper.blocks import FrequencyGrid
    from rfshaper.circuit import evaluate
    grid = FrequencyGrid.sweep(-2.0, 2.0, 1.0)
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert run(["sweep", str(nl), "--sweep=-2:2:1", "--input", name,
                    "--port", "bar", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        want = evaluate(doc.to_graph(), grid, input_name=name).port("bar")
        np.testing.assert_allclose(data[:, 1] + 1j * data[:, 2], want,
                                   atol=1e-8)
    a, b = (np.loadtxt(tmp_path / f"{n}.csv", delimiter=",", skiprows=1)
            for n in "ab")
    assert not np.allclose(a, b)

    out = tmp_path / "none.csv"
    assert run(["sweep", str(nl), "--sweep=-2:2:1", "--port", "bar",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "'a'" in err and "'b'" in err
    assert not out.exists()


def test_experiment_rejects_a_large_modulation_index(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment amplitude_tuning\nset modulation_index 1e200\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == 4
    assert "modulation_index" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# Every size below is rejected before any array is made; a sweep near the
# limit is never run here.
def test_sweep_beyond_the_point_limit_exits_4(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["block", "ring_allpass", "kappa=0.1", "fsr_ghz=50",
                "--sweep=0:1:1e-9", "--out", str(out)]) == 4
    assert "limit of 1e+07" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, line", [
    ("coupling_sweep", "set step_ghz 1e-8"),           # 1e9 points
    ("amplitude_tuning", "set power_step_mw 1e-7"),    # 3.5e8 points
])
def test_preset_range_beyond_the_point_limit_exits_4(tmp_path, capsys,
                                                    preset, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment {preset}\n{line}\n")
    assert run(["experiment", str(cfg), "--out-dir", str(tmp_path)]) == 4
    assert "limit of 1e+07" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, message", [
    (["experiment", "adir"], "cannot read config adir: "),
    (["optimize", "preset:shaper", "--objective", "notch_depth", "--heaters",
      "ps_bar.phase", "--max-evals", "20", "--restarts", "1", "--out", "adir"],
     "cannot write netlist adir: "),
], ids=["config", "netlist"])
def test_a_directory_in_place_of_a_file_exit_4(tmp_path, capsys, monkeypatch,
                                                argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert run(argv) == 4
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


def test_a_file_made_at_the_out_dir_while_the_preset_runs_exit_4(
        tmp_path, capsys, monkeypatch):
    cfg, outdir = tmp_path / "exp.cfg", tmp_path / "out"
    cfg.write_text("experiment ssb_notch\nsweep 8 12 0.5\n")
    preset = cli.run_experiment

    def preset_then_file(*args, **kwargs):
        result = preset(*args, **kwargs)
        outdir.write_text("")
        return result
    monkeypatch.setattr(cli, "run_experiment", preset_then_file)
    assert run(["experiment", str(cfg), "--out-dir", str(outdir)]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: cannot create output directory {outdir}: ")
