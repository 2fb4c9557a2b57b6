"""One workload in one process: set up, run whole rounds, check, report.

Usage (normally started by ``run.py``)::

    python3 perfbench/bench.py --workload tune --seed 1 --seconds 30 \
        --trace 0 --workdir perfbench/results/work-tune [--setup-only]

The process prints ``ready <monotonic time>`` once set-up is done, then
(unless ``--setup-only``) runs rounds of the workload's fixed operation
list until ``--seconds`` have passed, at least ``MIN_ROUNDS`` of them,
and prints one JSON line with the timings, counts and check results.

While the rounds run, a ``HostSampler`` interrupts the process every
``SAMPLE_PERIOD_S`` and times the workload's calibration snippet, a
short fixed computation that calls nothing in rfshaper and does the same
kind of work as the workload.  An operation's scaled time is its wall
time multiplied by the workload's ``calib_ref_s`` over the trimmed mean
of the snippet times sampled during that operation: its time on a host
where the snippet takes ``calib_ref_s``.  Because the samples are spread
through the operation, this cancels the host-speed changes the machine
shows within a second as well as from one minute to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_ROUNDS = 2

#: Interval between host-speed samples, and the smallest number of
#: samples an operation must span.
SAMPLE_PERIOD_S = 0.005
MIN_SAMPLES = 10

_CAL_HEATERS = dict(zip(ref.DEINT_HEATERS,
                        np.random.default_rng(0).uniform(0.0, ref.TWO_PI, 9)))
_CAL_SMALL = np.linspace(-27.0, 27.0, 48)
_CAL_LARGE = np.linspace(-50.0, 50.0, 2001)


@dataclass(frozen=True)
class _Ring:
    kappa: float
    fsr_ghz: float = 30.0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.kappa)) and 0.0 <= self.kappa <= 1.0):
            raise ValueError(self.kappa)


def snippet_small() -> None:
    """Interpreter-bound, like one tuner evaluation: 12 validated copies
    of a frozen dataclass, then the reference de-interleaver on 48
    offsets (about 0.25 ms)."""
    ring = _Ring(0.5)
    for i in range(12):
        ring = dataclasses.replace(ring, kappa=math.sin(0.1 * i) ** 2)
    ref.deinterleaver_fields(_CAL_SMALL, _CAL_HEATERS)


def snippet_large() -> None:
    """Array-bound: the reference de-interleaver on 2001 offsets (0.3 to
    0.6 ms, depending on how much of it the interrupted work evicted
    from the caches)."""
    ref.deinterleaver_fields(_CAL_LARGE, _CAL_HEATERS)


class HostSampler:
    """Times ``snippet`` every ``period`` seconds from a SIGALRM handler.

    Python runs signal handlers in the main thread between bytecodes, so
    the samples interleave with the operation being timed without a
    second thread.  Interrupted system calls are retried by Python.
    """

    def __init__(self, snippet: Callable[[], None], period: float):
        self.snippet = snippet
        self.period = period
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.snippet()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "HostSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def host_time(samples: list[float]) -> float:
    """Mean snippet time without the slowest tenth, which holds the
    samples that an interrupt or a page fault lengthened."""
    kept = sorted(samples)[:max(1, len(samples) * 9 // 10)]
    return statistics.fmean(kept)


class CheckError(Exception):
    """A program output disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    """One timed unit of a round.

    ``run`` is timed; ``check(result)`` runs untimed after the round,
    raises CheckError on a wrong output and returns the labels of
    operations that ran correctly but missed their target; ``work``
    counts the units of work the result represents.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    work: Callable[[object], int]
    attempts: int = 1


@dataclass
class Workload:
    ops: list[Op]
    work_unit: str
    #: The host-speed snippet and its time on the reference host.
    snippet: Callable[[], None]
    calib_ref_s: float
    #: Runs after every round, untimed, with the round's results; returns
    #: the round's work when the ops cannot count it alone.
    after_round: Callable[[list], int | None] = lambda results: None
    #: One-off checks on the fixed inputs, run once after the rounds.
    final_checks: Callable[[], None] = lambda: None
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tune: thousands of small evaluate calls inside seeded optimize runs
# ---------------------------------------------------------------------------

#: De-interleaver optimizer seeds of every round.  Seeds 5 and 7 end on
#: the 0 dB plateau every time; they stay in the workload as the known
#: failure.  The list is fixed rather than drawn from --seed because the
#: work of an optimize run (1500 to 6000 evaluations) and whether it
#: reaches 20 dB both depend on its seed.
TUNE_SEEDS = (0, 5, 7)
DEINT_TARGET_DB = 20.0
NOTCH_TARGET_DB = 38.0


def tune(seed: int, workdir: Path) -> Workload:
    from rfshaper import circuit, tuner
    from rfshaper.blocks import FrequencyGrid, RingParams
    from rfshaper.topologies import (FITTED_RING_AMPLITUDE, DeinterleaverSpec,
                                     ShaperConfig, build_deinterleaver,
                                     build_shaper, ring_kappa_for_rejection)

    rng = np.random.default_rng(seed)
    naive = build_deinterleaver(DeinterleaverSpec())
    extinction = tuner.Objective("deinterleaver_extinction")

    f0 = float(rng.uniform(8.0, 12.0))
    notch_seed = int(rng.integers(0, 2 ** 16))
    cancel = tuner.synthesize_cancellation_settings(7.0)
    notch_graph = build_shaper(ShaperConfig(
        deinterleaver=DeinterleaverSpec.designed(crossover_offset_ghz=3.0),
        bar_phase_rad=cancel.shifter_phase_rad,
        bar_coupler_rad=cancel.coupler_phase_rad,
        allpass=RingParams(50.0, ring_kappa_for_rejection(FITTED_RING_AMPLITUDE, 7.0),
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=(-f0) % 50.0),
        adddrop=RingParams(50.0, 1e-3, kappa_drop=1e-3,
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=25.0)))
    notch = tuner.Objective("notch_depth", rf_freq_ghz=f0)
    notch_heaters = ("ps_bar.phase", "tc_bar.phase")
    notch_grid = FrequencyGrid(193.4, np.array([-f0, 0.0, f0]))

    def deint_op(s: int) -> Op:
        label = f"optimize deinterleaver seed={s}"

        def check(result) -> list[str]:
            want = ref.deinterleaver_extinction(result.best)
            require(abs(want - result.best_value) <= 1e-9,
                    f"{label}: best_value {result.best_value!r} but the "
                    f"reference model gives {want!r}")
            if result.best_value < DEINT_TARGET_DB:
                return [f"{label}: best {result.best_value:.2f} dB < "
                        f"{DEINT_TARGET_DB} dB"]
            return []
        return Op(label, lambda: tuner.optimize(naive, extinction,
                                                tuner.OptimizerConfig(seed=s)),
                  check, lambda r: r.evaluations)

    def notch_check(result) -> list[str]:
        h = circuit.evaluate(notch_graph, notch_grid,
                             heaters=result.best).port("detector")
        # IM, index 0.1, unit carrier: back-to-back beat is 0.2 * R
        beat = ref.beat_phasor(h[0], h[1], h[2], 0.1, 1.0, 0.1, 0.8)
        depth = -float(ref.rf_mag_db(beat, 0.2 * 0.8))
        require(abs(10 ** (-depth / 20) - 10 ** (-result.best_value / 20)) <= 1e-12,
                f"notch polish: best_value {result.best_value!r} dB but the "
                f"beat of the circuit fields gives {depth!r} dB")
        if result.best_value < NOTCH_TARGET_DB:
            return [f"notch polish f0={f0:.3f}: {result.best_value:.1f} dB < "
                    f"{NOTCH_TARGET_DB} dB"]
        return []

    ops = [deint_op(s) for s in TUNE_SEEDS]
    ops.append(Op(f"optimize notch f0={f0:.3f} seed={notch_seed}",
                  lambda: tuner.optimize(notch_graph, notch,
                                         tuner.OptimizerConfig(seed=notch_seed),
                                         heater_names=notch_heaters),
                  notch_check, lambda r: r.evaluations))
    return Workload(ops, "objective evaluations", snippet_small, 2.5e-4,
                    notes={"deinterleaver_seeds": list(TUNE_SEEDS),
                           "notch_freq_ghz": f0, "notch_seed": notch_seed})


# ---------------------------------------------------------------------------
# wide_sweep: array-bound evaluations at 10^5-point grids
# ---------------------------------------------------------------------------

WIDE_POINTS = 200_001
WIDE_STEP_GHZ = 0.0005
RF_POINTS = 100_001
RF_STEP_GHZ = 0.0002
WIDE_REPEATS = 2
SUBSET = 1000


def wide_sweep(seed: int, workdir: Path) -> Workload:
    from rfshaper import circuit, rflink
    from rfshaper.blocks import FrequencyGrid, RingParams
    from rfshaper.topologies import (FITTED_RING_AMPLITUDE, DeinterleaverSpec,
                                     ShaperConfig, build_deinterleaver,
                                     build_shaper)

    rng = np.random.default_rng(seed)
    spec = DeinterleaverSpec.designed()
    deint = build_deinterleaver(spec)
    shaper = build_shaper(ShaperConfig(
        allpass=RingParams(50.0, float(rng.uniform(0.05, 0.3)),
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=float(rng.uniform(0.0, 50.0))),
        adddrop=RingParams(50.0, 0.1, kappa_drop=0.1,
                           round_trip_amplitude=FITTED_RING_AMPLITUDE,
                           detune_ghz=float(rng.uniform(0.0, 50.0)))))
    lo = -50.0 + float(rng.uniform(0.0, WIDE_STEP_GHZ))
    offsets = lo + WIDE_STEP_GHZ * np.arange(WIDE_POINTS)
    grid = FrequencyGrid(193.4, offsets)
    rf_lo = 0.5 + float(rng.uniform(0.0, 0.001))
    rf_hi = rf_lo + RF_STEP_GHZ * (RF_POINTS - 1)
    link = rflink.LinkConfig(rflink.ModulationFormat("IM", 0.1), shaper,
                             "detector")
    subset = np.sort(rng.choice(WIDE_POINTS, SUBSET, replace=False))
    rf_subset = np.sort(rng.choice(RF_POINTS, SUBSET // 2, replace=False))
    deint_heaters = ref.deinterleaver_heaters(
        spec.ring_kappas, spec.ring_detunes_ghz, spec.arm_trim_rad,
        spec.coupler_in_rad, spec.coupler_out_rad, spec.ring_fsr_ghz)

    def check_deint(resp) -> list[str]:
        bar, cross = resp.port("bar"), resp.port("cross")
        power = (bar * bar.conj()).real + (cross * cross.conj()).real
        require(float(np.max(np.abs(power - 1.0))) <= 1e-12,
                "de-interleaver does not conserve power to 1e-12")
        want_bar, want_cross = ref.deinterleaver_fields(offsets[subset],
                                                        deint_heaters)
        for name, got, want in (("bar", bar, want_bar),
                                ("cross", cross, want_cross)):
            err = ref.relative_error(got[subset], want)
            require(err <= 1e-12, f"de-interleaver {name}: reference model "
                                  f"differs by {err:.2e} relative")
        return []

    def check_shaper(resp) -> list[str]:
        power = sum((a * a.conj()).real for a in resp.fields.values())
        require(bool(np.all(np.isfinite(power))), "shaper field not finite")
        require(float(power.max()) <= 1.0 + 1e-12,
                f"lossy shaper is not passive: power {power.max()!r}")
        return []

    def check_rf(trace) -> list[str]:
        require(trace.rf_freqs_ghz.size == RF_POINTS,
                f"RF sweep has {trace.rf_freqs_ghz.size} points")
        require(bool(np.all(np.isfinite(trace.mag_db))
                     and np.all(np.isfinite(trace.phase_rad))),
                "RF sweep not finite")
        fs = trace.rf_freqs_ghz[rf_subset]
        mirrored = FrequencyGrid(193.4, np.concatenate([-fs[::-1], [0.0], fs]))
        h = circuit.evaluate(shaper, mirrored).port("detector")
        n = fs.size
        beat = ref.beat_phasor(h[:n][::-1], h[n], h[n + 1:], 0.1, 1.0, 0.1, 0.8)
        mag = ref.rf_mag_db(beat, 0.2 * 0.8)
        err_mag = float(np.max(np.abs(mag - trace.mag_db[rf_subset])))
        dphi = np.angle(np.exp(1j * (trace.phase_rad[rf_subset] - np.angle(beat))))
        err_phase = float(np.max(np.abs(dphi)))
        require(err_mag <= 1e-9 and err_phase <= 1e-9,
                f"RF sweep differs from the beat of the circuit fields by "
                f"{err_mag:.2e} dB, {err_phase:.2e} rad")
        return []

    # The three calls form one timed op: each alone is too short for a
    # steady host-time estimate at one sample per 5 ms.
    def three_calls():
        return (circuit.evaluate(deint, grid), circuit.evaluate(shaper, grid),
                rflink.rf_transmission_sweep(link, rf_lo, rf_hi, RF_STEP_GHZ))

    def check(results) -> list[str]:
        return (check_deint(results[0]) + check_shaper(results[1])
                + check_rf(results[2]))

    ops = [Op(f"evaluate deinterleaver and shaper at {WIDE_POINTS} pts, "
              f"rf_transmission_sweep at {RF_POINTS} pts", three_calls, check,
              lambda r: 2 * WIDE_POINTS + 2 * RF_POINTS + 1, attempts=3)
           for _ in range(WIDE_REPEATS)]

    def repeats_agree(results: list) -> None:
        first, *others = results
        for other in others:
            require(all(np.array_equal(a.mag_db, b.mag_db) if hasattr(a, "mag_db")
                        else all(np.array_equal(a.fields[p], b.fields[p])
                                 for p in a.fields)
                        for a, b in zip(first, other)),
                    "repeated evaluation gave a different result")

    return Workload(ops, "optical grid points", snippet_large, 6.0e-4,
                    after_round=repeats_agree,
                    notes={"grid_points": WIDE_POINTS, "grid_lo_ghz": lo,
                           "rf_points": RF_POINTS, "rf_lo_ghz": rf_lo})


# ---------------------------------------------------------------------------
# export: the CLI, in-process, writing CSVs and netlists
# ---------------------------------------------------------------------------

#: Each preset with the sweep written into its config (the preset's own
#: default) so the CSV row count follows from the config.
PRESET_SWEEPS = {
    "im2pm": (1.0, 30.0, 0.05), "pm2im": (1.0, 30.0, 0.05),
    "ssb_notch": (2.0, 28.0, 0.01), "cancel_notch": (2.0, 28.0, 0.01),
    "bandpass_tune": (5.0, 27.0, 0.1), "deint_phase_probe": (0.5, 29.5, 0.05),
    "amplitude_tuning": None, "coupling_sweep": None,
}
OPTICAL_ROWS = len(np.arange(-5.0, 5.0 + 1e-9, 0.01))    # coupling_sweep
TABLE_ROWS = len(np.arange(0.0, 35.0 + 1e-9, 0.25))      # amplitude_tuning
LATTICE_STEP_GHZ = 0.01
LATTICE_POINTS = 5001
RF_HEADER = "freq_ghz,mag_db,phase_rad"
OPTICAL_HEADER = "offset_ghz,re,im"


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    rows = [line.split(",") for line in body.splitlines()]
    data = np.array(rows, dtype=float) if rows else np.empty((0, 0))
    require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite value")
    return header, data


def _read_summary(path: Path) -> dict[str, str]:
    return dict(line.split(" ", 1)
                for line in path.read_text(encoding="utf-8").splitlines())


def _netlist_heaters(text: str) -> dict[str, float]:
    """Heater phases of a de-interleaver netlist, read from its block
    parameters with the README's heater conventions."""
    heaters = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] != "block":
            continue
        bid, kind = parts[1], parts[2]
        kv = dict(p.split("=") for p in parts[3:])
        if kind in ("tunable_coupler", "phase_shifter"):
            heaters[f"{bid}.phase"] = float(kv["phase_rad"]) % ref.TWO_PI
        elif kind == "ring_allpass":
            fsr = float(kv["fsr_ghz"])
            heaters[f"{bid}.coupling"] = 2 * math.asin(math.sqrt(float(kv["kappa"])))
            heaters[f"{bid}.detune"] = ref.TWO_PI * float(kv["detune_ghz"]) / fsr
    return heaters


def _summary_targets(name: str, s: dict[str, str]) -> None:
    """The acceptance-suite targets for each preset summary."""
    def v(key: str) -> float:
        return float(s[key])

    if name in ("im2pm", "pm2im"):
        require(v("extinction_db") >= 15.0, f"{name} extinction {s}")
    if name == "pm2im":
        require(v("target_extinction_alt_db") == 20.0, "pm2im alt target")
    if name == "ssb_notch":
        require(abs(v("notch_depth_db") - 7.0) <= 1.0, f"ssb_notch {s}")
    if name == "cancel_notch":
        require(abs(v("ssb_depth_db") - 7.0) <= 1.0
                and v("notch_depth_db") >= 38.0
                and v("notch_depth_db") - v("ssb_depth_db") >= 30.0,
                f"cancel_notch {s}")
    if name == "bandpass_tune":
        require(v("max_peak_error_ghz") <= v("sweep_step_ghz"),
                f"bandpass_tune {s}")
    if name == "amplitude_tuning":
        require(v("uncompensated_offset_steps") > 1
                and v("compensated_offset_steps") <= 1,
                f"amplitude_tuning {s}")
    if name == "coupling_sweep":
        require(sorted(x for k, x in s.items() if k.endswith("_state"))
                == ["critical", "over", "over", "under", "under"],
                f"coupling_sweep {s}")


def export(seed: int, workdir: Path) -> Workload:
    from rfshaper import circuit, cli
    from rfshaper.blocks import FrequencyGrid
    from rfshaper.netlist import parse_netlist

    rng = np.random.default_rng(seed)
    inputs, out = workdir / "inputs", workdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    lattice = ref.make_lattice(rng)
    lattice_text = ref.lattice_netlist(lattice)
    lattice_path = inputs / "lattice.nl"
    lattice_path.write_text(lattice_text, encoding="utf-8")
    configs = []
    for name, sweep in PRESET_SWEEPS.items():
        lines = [f"experiment {name}", "seed 0"]
        if sweep:
            lines.append("sweep {:g} {:g} {:g}".format(*sweep))
        path = inputs / f"{name}.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        configs.append(path)
    lat_lo = -25.0 + 0.01 * int(rng.integers(0, 100))
    lat_spec = f"{lat_lo:.2f}:{lat_lo + 50.0:.2f}:{LATTICE_STEP_GHZ}"
    tuned, tuned_csv = out / "tuned.nl", out / "tuned_bar.csv"

    def cli_run(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def experiments():
        return [cli_run(["experiment", str(c), "--out-dir", str(out)])
                for c in configs]

    def check_experiments(runs) -> list[str]:
        for cfg, (rc, stdout) in zip(configs, runs):
            name = cfg.stem
            require(rc == 0, f"experiment {name} exited {rc}")
            files = [Path(line.split(" ", 1)[1]) for line in stdout.splitlines()
                     if line.startswith("trace_file ")]
            require(bool(files), f"experiment {name} wrote no trace")
            for path in files:
                header, data = _read_csv(path)
                sweep = PRESET_SWEEPS[name]
                if header == RF_HEADER:
                    want = int(round((sweep[1] - sweep[0]) / sweep[2])) + 1
                elif header == OPTICAL_HEADER:
                    want = OPTICAL_ROWS
                else:
                    want = TABLE_ROWS
                require(data.shape[0] == want,
                        f"{path.name}: {data.shape[0]} rows, expected {want}")
            _summary_targets(name, _read_summary(out / f"{name}_summary.txt"))
        return []

    def check_lattice(result) -> list[str]:
        rc, _ = result
        require(rc == 0, f"lattice sweep exited {rc}")
        rows = np.sort(rng_check.choice(LATTICE_POINTS, 200, replace=False))
        want = ref.lattice_fields(lattice, lat_lo + LATTICE_STEP_GHZ * rows)
        total = 0.0
        for r in range(lattice["rails"]):
            header, data = _read_csv(out / f"lattice_o{r}.csv")
            require(header == OPTICAL_HEADER and data.shape[0] == LATTICE_POINTS,
                    f"lattice_o{r}.csv: {data.shape[0]} rows")
            got = data[rows, 1] + 1j * data[rows, 2]
            require(bool(np.all(np.abs(got - want[r]) <= 1e-8 * np.abs(want[r])
                                + 1e-15)),
                    f"lattice_o{r}.csv differs from the reference model")
            total = total + data[:, 1] ** 2 + data[:, 2] ** 2
        require(float(np.max(np.abs(total - 1.0))) <= 1e-7,
                "lattice CSV does not conserve power")
        return []

    def check_optimize(result) -> list[str]:
        rc, _ = result
        require(rc == 0, f"optimize exited {rc}")
        text = tuned.read_text(encoding="utf-8")
        _, errors = parse_netlist(text)
        require(not errors, f"tuned netlist does not parse: {errors[:3]}")
        summary = _read_summary(out / "tuned_summary.txt")
        best = float(summary["best_value"])
        got = ref.deinterleaver_extinction(_netlist_heaters(text))
        require(abs(got - best) <= 1e-6,
                f"tuned netlist gives {got!r} dB in the reference model, "
                f"summary says {best!r}")
        require(got >= DEINT_TARGET_DB, f"tuned netlist reaches only {got:.2f} dB")
        return []

    def check_tuned_sweep(result) -> list[str]:
        rc, _ = result
        require(rc == 0, f"tuned sweep exited {rc}")
        header, data = _read_csv(tuned_csv)
        require(header == OPTICAL_HEADER and data.shape[0] == 240,
                f"tuned_bar.csv: {data.shape[0]} rows")
        power = data[:, 1] ** 2 + data[:, 2] ** 2
        got = ref.extinction_db(data[:, 0], power)
        require(got >= DEINT_TARGET_DB, f"tuned sweep shows {got:.2f} dB")
        return []

    rng_check = np.random.default_rng(seed + 1)
    no_work = lambda r: 0  # noqa: E731  (rows are counted after the round)
    ops = [
        Op("experiment x8", experiments, check_experiments, no_work,
           attempts=len(configs)),
        Op("sweep lattice.nl", lambda: cli_run(
            ["sweep", str(lattice_path), f"--sweep={lat_spec}",
             "--out", str(out / "lattice.csv")]), check_lattice, no_work),
        Op("optimize preset:deinterleaver, sweep tuned.nl", lambda: (
            cli_run(["optimize", "preset:deinterleaver", "--objective",
                     "deinterleaver_extinction", "--seed", "0",
                     "--restarts", "2", "--max-evals", "1000", "--out",
                     str(tuned), "--summary", str(out / "tuned_summary.txt")]),
            cli_run(["sweep", str(tuned), "--sweep=-29.875:29.875:0.25",
                     "--port", "bar", "--out", str(tuned_csv)])),
           lambda r: check_optimize(r[0]) + check_tuned_sweep(r[1]), no_work,
           attempts=2),
    ]
    first_hashes: dict[str, str] = {}

    def after_round(results) -> int:
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
        if not first_hashes:
            first_hashes.update(hashes)
        require(hashes == first_hashes,
                "a repeated command wrote different bytes: " + ", ".join(
                    sorted(k for k in set(hashes) | set(first_hashes)
                           if hashes.get(k) != first_hashes.get(k))))
        rows = sum(_read_csv(p)[1].shape[0] for p in out.glob("*.csv"))
        shutil.rmtree(out)
        out.mkdir()
        return rows

    def final_checks() -> None:
        doc, errors = parse_netlist(lattice_text)
        require(not errors, f"lattice netlist does not parse: {errors[:3]}")
        graph = doc.to_graph()
        offs = lat_lo + LATTICE_STEP_GHZ * np.arange(LATTICE_POINTS)
        resp = circuit.evaluate(graph, FrequencyGrid(193.4, offs))
        power = sum((a * a.conj()).real for a in resp.fields.values())
        require(float(np.max(np.abs(power - 1.0))) <= 1e-12,
                "lossless lattice does not conserve power to 1e-12")
        rows = np.sort(rng_check.choice(LATTICE_POINTS, 500, replace=False))
        want = ref.lattice_fields(lattice, offs[rows])
        for r in range(lattice["rails"]):
            err = ref.relative_error(resp.port(f"o{r}")[rows], want[r])
            require(err <= 1e-12, f"lattice o{r}: reference model differs by "
                                  f"{err:.2e} relative")

    out.mkdir(parents=True, exist_ok=True)
    blocks = sum(1 for line in lattice_text.splitlines()
                 if line.startswith("block "))
    return Workload(ops, "CSV rows", snippet_small, 2.5e-4,
                    after_round=after_round,
                    final_checks=final_checks,
                    notes={"lattice_blocks": blocks,
                           "lattice_lines": lattice_text.count("\n"),
                           "lattice_sweep": lat_spec})


WORKLOADS = {"tune": tune, "wide_sweep": wide_sweep, "export": export}


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------

def run_round(wl: Workload, sampler: HostSampler) -> dict:
    """Each op's wall time and result, with the host snippet time sampled
    during it and during the whole round."""
    times, hosts, results = [], [], []
    first = len(sampler.samples)
    for op in wl.ops:
        n0 = len(sampler.samples)
        t0 = perf_counter()
        results.append(op.run())
        times.append(perf_counter() - t0)
        samples = sampler.samples[n0:]
        require(len(samples) >= MIN_SAMPLES,
                f"{op.label}: only {len(samples)} host samples")
        hosts.append(host_time(samples))
    return {"times": times, "hosts": hosts,
            "round_host": host_time(sampler.samples[first:]),
            "results": results}


def measure(wl: Workload, seconds: float, spans_path: Path | None) -> dict:
    """Whole rounds until ``seconds`` have passed.  With ``spans_path``
    the rounds alternate untraced and traced, so both wall times come
    from the same stretch of host time, and the last traced round's
    spans are saved there."""
    tracer = Tracer() if spans_path else None
    rounds: list[dict] = []
    failures: dict[str, int] = {}
    deadline = perf_counter() + seconds
    with HostSampler(wl.snippet, SAMPLE_PERIOD_S) as sampler:
        while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                with tracer.installed():
                    r = run_round(wl, sampler)
                r["layers"] = tracer.layer_table()
            else:
                r = run_round(wl, sampler)
            r["traced"] = traced
            results = r.pop("results")
            r["work"] = 0
            for op, res in zip(wl.ops, results):
                for failure in op.check(res):
                    failures[failure] = failures.get(failure, 0) + 1
                r["work"] += op.work(res)
            r["work"] += wl.after_round(results) or 0
            rounds.append(r)
            del results
    wl.final_checks()
    if tracer is not None:
        tracer.save(spans_path)
    return {"rounds": rounds, "failures": failures}


def summarize(wl: Workload, m: dict) -> dict:
    rounds = m["rounds"]
    ref_s = wl.calib_ref_s

    def scaled(r: dict) -> list[float]:
        return [t * ref_s / h for t, h in zip(r["times"], r["hosts"])]

    plain = [r for r in rounds if not r["traced"]]
    per_op = list(zip(*(scaled(r) for r in plain)))
    wall = sum(statistics.median(samples) for samples in per_op)
    works = {r["work"] for r in rounds}
    require(len(works) == 1, f"work differs between rounds: {sorted(works)}")
    work = works.pop()
    attempts = sum(op.attempts for op in wl.ops)
    out = {
        "rounds": len(rounds),
        "attempted": attempts * len(rounds),
        "failed": sum(m["failures"].values()),
        "failures": m["failures"],
        "work_per_round": work,
        "work_unit": wl.work_unit,
        "wall_s": wall,
        "work_per_s": work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_labels": [op.label for op in wl.ops],
        "op_scaled_median_s": [statistics.median(s) for s in per_op],
        "raw_op_s": [r["times"] for r in rounds],
        "host_s": [r["hosts"] for r in rounds],
        "calib_ref_s": ref_s,
        "notes": wl.notes,
    }
    traced = [r for r in rounds if r["traced"]]
    if traced:
        tables = [r["layers"] for r in traced]
        counts = [{k: v for k, v in t.items() if not k.endswith("_s")}
                  for t in tables]
        require(all(c == counts[0] for c in counts),
                "per-layer counts differ between traced rounds")
        layer = dict(counts[0])
        for k in tables[0]:
            if k.endswith("_s"):
                layer[k] = statistics.fmean(t[k] * ref_s / r["round_host"]
                                            for t, r in zip(tables, traced))
        op_time = sum(sum(r["times"]) for r in traced)
        self_total = sum(t[k] for t in tables for k in t if k.endswith("self_s"))
        layer["trace.unaccounted_share"] = (op_time - self_total) / op_time
        layer["trace.overhead_s"] = (
            statistics.median(sum(scaled(r)) for r in traced)
            - statistics.median(sum(scaled(r)) for r in plain))
        layer["host.calib_s"] = statistics.median(r["round_host"] for r in rounds)
        out["layers"] = layer
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    print("ready", time.monotonic(), flush=True)
    if args.setup_only:
        return 0
    spans = workdir.parent / f"spans-{args.workload}-{args.seed}.npz"
    result = {"correct": True, "errors": []}
    try:
        result.update(summarize(wl, measure(wl, args.seconds,
                                            spans if args.trace else None)))
    except CheckError as exc:
        result.update(correct=False, errors=[str(exc)])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
