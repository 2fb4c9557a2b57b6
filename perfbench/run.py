#!/usr/bin/env python3
"""rfshaper benchmark: one workload per call, each in fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune --seed 1 --seconds 30 --trace 0

Workloads: ``tune``, ``wide_sweep``, ``export`` (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  A full record of the run, with its
metadata, goes to ``perfbench/results/``.

``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes (extra
set-up-only ones plus the measuring one) of the time from starting the
interpreter to the end of the workload's set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 7
#: Whole-run limit; a run must finish well inside three minutes.
TIMEOUT_S = 170.0
ADDR_NO_RANDOMIZE = 0x0040000
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}



def fix_address_layout() -> bool:
    """Turn off address-space randomization for this process's children.

    The flag is inherited across exec, and it changes nothing outside
    these processes.  With randomized layouts, the same run's time
    differed by up to 8% from one process to the next.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    query = 0xFFFFFFFF
    current = libc.personality(query)
    if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        return False
    return bool(libc.personality(query) & ADDR_NO_RANDOMIZE)


def git_revision() -> str:
    """HEAD's commit id, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start(args, workdir: Path, setup_only: bool) -> tuple[float, subprocess.Popen]:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps dict and set layouts the same in every process
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    return t0, subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, env=env)


def finish(proc: subprocess.Popen, t0: float, deadline: float) -> tuple[float, list[str]]:
    """Wait for the process; returns its set-up time and its output lines."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("error: workload process timed out")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise SystemExit(f"error: workload process exited {proc.returncode}")
    return ready[0] - t0, lines


def main() -> int:
    p = argparse.ArgumentParser(description="rfshaper benchmark")
    p.add_argument("--workload", required=True,
                   choices=("tune", "wide_sweep", "export"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    os.environ.update(PINNED_THREADS)
    if not (ROOT / "src" / "rfshaper" / "__init__.py").is_file():
        print(f"error: no rfshaper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    fixed_layout = fix_address_layout()
    deadline = time.monotonic() + TIMEOUT_S
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            t0, proc = start(args, workdir, setup_only=True)
            setups.append(finish(proc, t0, deadline)[0])
            shutil.rmtree(workdir)
            workdir.mkdir()
        t0, proc = start(args, workdir, setup_only=False)
        setup, lines = finish(proc, t0, deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    child = json.loads(lines[-1])

    # BENCHMARK.json names the metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        wanted, values = spec["per_layer"], child.get("layers", {})
    else:
        wanted = spec["end_to_end"]
        values = dict(child, setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if child["correct"] and len(metrics) != len(wanted):
        missing = sorted({m["name"] for m in wanted} - set(metrics))
        raise SystemExit(f"error: no value for {', '.join(missing)}")
    import numpy
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "threads": PINNED_THREADS,
        "fixed_address_layout": fixed_layout, "setup_samples_s": setups,
    }
    sys.path.insert(0, str(ROOT / "src"))
    import rfshaper
    if hasattr(rfshaper, "backend_name"):
        meta["kernel_backend"] = rfshaper.backend_name()
    for line in lines[:-1]:
        if not line.startswith("ready "):
            print(line)
    for failure, count in sorted(child.get("failures", {}).items()):
        print(f"failed x{count}: {failure}")
    for error in child.get("errors", []):
        print(f"check failed: {error}")
    result = {"correct": child["correct"],
              "attempted": child.get("attempted", 0),
              "failed": child.get("failed", 0), "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "meta": meta,
                                  "detail": child}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if child["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
