"""README's Python API sketch runs against the package in ``src``, so a
public name it uses cannot be removed or renamed unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_sketch_runs(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (sketch,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # as tier-1's filter does, a NumPy warning fails the sketch
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", sketch], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
