"""Byte-identity of CLI outputs for fixed seeds.

A change that only makes rfshaper faster must leave every output
byte-identical.  Each case runs one CLI command in an empty directory,
with relative output paths so that no bytes depend on where the checkout
lives, and compares the sha256 of its standard output and of every file
it writes.  The hashes were taken with the plain per-call evaluation
path.  A different NumPy build can change the last printed digit of a
float; a change that alters a hash on purpose says which output changed
and why, and takes the hash again.
"""

import hashlib
from pathlib import Path

import pytest

from rfshaper.cli import main

SHAPER_OPTIMIZE = ["optimize", "preset:shaper", "--seed", "0", "--out",
                   "tuned.nl", "--summary", "tuned.sum", "--objective"]

#: case -> (argv, sha256 of "stdout" and of each file written)
CASES = {
    "optimize_deinterleaver": (
        ["optimize", "preset:deinterleaver", "--objective",
         "deinterleaver_extinction", "--seed", "0", "--out", "tuned.nl",
         "--summary", "tuned.sum"], {
            "stdout":
                "4a5b374ede9647d7183bb33db93d74c627317dd15582f492416d179eff956bee",
            "tuned.nl":
                "ea0af44f007d885772e21844f602c89d8c81f156a65c93c20acda8dc8f666050",
            "tuned.sum":
                "4a5b374ede9647d7183bb33db93d74c627317dd15582f492416d179eff956bee",
        }),
    "optimize_notch_depth": (SHAPER_OPTIMIZE + ["notch_depth"], {
            "stdout":
                "9f19fbbca4dad68b6b1a057e679c1ea59a3e2572b563c8390110b4312bc171cb",
            "tuned.nl":
                "bddde7af56f99f09a6e6e3c1002f0787346385c6df4ff7d82b97d76f90e94b71",
            "tuned.sum":
                "9f19fbbca4dad68b6b1a057e679c1ea59a3e2572b563c8390110b4312bc171cb",
        }),
    "optimize_conversion_extinction": (
        SHAPER_OPTIMIZE + ["conversion_extinction", "--max-evals", "400"], {
            "stdout":
                "bc0aa8c07f7f66718a92eaf863d4ffe65b25ca986971a6fc8bd6bf98f3f6a37d",
            "tuned.nl":
                "716a7d8e3babeafac3f6ca9f46e1fc6378e6e4c1e85b3d16d3cd478c55f33efe",
            "tuned.sum":
                "bc0aa8c07f7f66718a92eaf863d4ffe65b25ca986971a6fc8bd6bf98f3f6a37d",
        }),
    "experiment_cancel_notch": (
        ["experiment", "cancel_notch.cfg", "--out-dir", "out"], {
            "out/cancel_notch_cancel.csv":
                "f3580e75118a90a208ef647411e8d19c1dffff66b5f2916a6ae201c70e072f1c",
            "out/cancel_notch_ssb_reference.csv":
                "5362e9a21a6ca755d12e1ac9f2e78c3b95a04b9c696cdf750f41a911b6ed50ec",
            "out/cancel_notch_summary.txt":
                "e3bfb0085491d24c8f6a94033c6a05947047ca9aabf01d9700dc8f0c4fe025bb",
            "stdout":
                "9843d8717947d17c69f328a829786153b739076d602fff387a2880a0f4276648",
        }),
    "experiment_amplitude_tuning": (
        ["experiment", "amplitude_tuning.cfg", "--out-dir", "out"], {
            "out/amplitude_tuning_compensated.csv":
                "ccef7b92ca977a59e1e7cbd3620706863cedc0118eeb2a289a3bb85b09e0dd72",
            "out/amplitude_tuning_summary.txt":
                "21ff6bfbe711daf40c2aba054ff1c62d104f76d4b2e18188ad02bd8ccc2ae780",
            "out/amplitude_tuning_uncompensated.csv":
                "4a014ab344b90ef6c6eb5b99f14ae13fed0a9d4ab9668df8fa582acc3cb714ec",
            "stdout":
                "594c03e25e64dcfe63900244ce9979b62c95b8c4806aa11ed93d249879655819",
        }),
}


def run_case(argv, directory: Path, capsys) -> dict[str, str]:
    """Run one command in ``directory`` and hash what it printed and wrote."""
    if argv[0] == "experiment":
        name = Path(argv[1]).stem
        (directory / argv[1]).write_text(f"experiment {name}\nseed 0\n")
    before = set(directory.rglob("*"))
    assert main(argv) == 0
    hashes = {"stdout": hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(set(directory.rglob("*")) - before):
        if path.is_file():
            hashes[path.relative_to(directory).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_pinned_hashes(case, tmp_path, monkeypatch, capsys):
    argv, want = CASES[case]
    monkeypatch.chdir(tmp_path)
    assert run_case(argv, tmp_path, capsys) == want
