"""The benchmark's tracer (``perfbench/tracing.py``) wraps rfshaper's
entry points by name from outside ``src/``.  This runs it as it stands,
so renaming a traced function shows up here rather than in a traced
benchmark run."""

import importlib.util
from pathlib import Path

from rfshaper import cli, csvout, tuner

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_cli_runs(tmp_path, capsys):
    tracing = load_tracing()
    cfg = tmp_path / "ssb.cfg"
    cfg.write_text("experiment ssb_notch\nseed 0\n")
    writer = csvout.write_rf_csv
    tracer = tracing.Tracer()
    # resolving every traced name raises if one is gone
    patched = {(getattr(owner, "__name__", None), attr)
               for owner, attr, _ in tracing._patch_list(tracer)}
    for name in ("write_rf_csv", "write_optical_csv", "write_table_csv",
                 "write_summary"):
        assert ("rfshaper.csvout", name) in patched
        assert ("rfshaper.cli", name) in patched
    assert ("Objective", "build") in patched
    with tracer.installed():
        assert csvout.write_rf_csv is not writer
        assert cli.main(["experiment", str(cfg), "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert cli.main(["optimize", "preset:shaper", "--objective",
                     "notch_depth", "--heaters", "ps_bar.phase,tc_bar.phase",
                     "--max-evals", "20", "--restarts", "2",
                     "--out", str(tmp_path / "t.nl")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert csvout.write_rf_csv is writer
    assert "build" in vars(tuner.Objective)
    table = tracer.layer_table()
    for key in ("csvout.rows", "csvout.bytes", "tuner.objective.calls",
                "cli.calls", "experiments.calls"):
        assert table[key] > 0, key
    # 20 evaluations: the two restarts' candidates share each bound call
    assert "evaluations 20" in printed
    assert table["tuner.objective.calls"] == 10
    assert table["cli.calls"] == 2
