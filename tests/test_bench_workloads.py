"""The benchmark's gated workloads (``perfbench/bench.py``) call rfshaper
from outside ``src/``.  This runs each ``export`` op and two ``tune`` ops
once, untimed, with the checks the benchmark applies to their results,
so that a renamed or re-signatured call of the benchmark's own shows up
here rather than as a failed benchmark run."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench

export = bench.export(1, Path("export"))
results = [op.run() for op in export.ops]
missed = [label for op, result in zip(export.ops, results)
          for label in op.check(result)]
export.after_round(results)
export.final_checks()
assert not missed, missed

# the notch op, and the de-interleaver seed that ends on the 0 dB
# plateau: its check still compares the result with the reference model
tune = bench.tune(1, Path("tune"))
ops = [op for op in tune.ops if op.label.startswith("optimize notch")
       or op.label == "optimize deinterleaver seed=7"]
assert len(ops) == 2, [op.label for op in tune.ops]
for op in ops:
    op.check(op.run())
print("ok")
"""


def test_export_and_tune_ops_pass_their_benchmark_checks(tmp_path):
    # as tier-1's filter does, a NumPy warning fails the run
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", SCRIPT, str(PERFBENCH)], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "ok"
