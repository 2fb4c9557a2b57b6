"""Byte-identity of CLI outputs for fixed seeds.

A change that only makes rfshaper faster must leave every output
byte-identical.  Each case runs one CLI command in an empty directory,
with relative output paths so that no bytes depend on where the checkout
lives, and compares the sha256 of its standard output and of every file
it writes.  The hashes were taken with the plain per-call evaluation
path.  A different NumPy build can change the last printed digit of a
float; a change that alters a hash on purpose says which output changed
and why, and takes the hash again.

``ERROR_CASES`` pins the exit code and the exact standard error of
failing commands, so that a change to the parsers shows every message,
line and column it alters.
"""

import hashlib
from pathlib import Path

import pytest

from rfshaper.cli import main

SHAPER_OPTIMIZE = ["optimize", "preset:shaper", "--seed", "0", "--out",
                   "tuned.nl", "--summary", "tuned.sum", "--objective"]
OFFSET_SWEEP = "--sweep=-30:30:0.05"


def experiment(name: str) -> list[str]:
    """``rfshaper experiment`` of a preset with seed 0 (see ``run_case``)."""
    return ["experiment", f"{name}.cfg", "--out-dir", "out"]


def block(kind: str, *params: str) -> list[str]:
    return ["block", kind, *params, OFFSET_SWEEP, "--out", "b.csv"]


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
        experiment("cancel_notch"), {
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
        experiment("amplitude_tuning"), {
            "out/amplitude_tuning_compensated.csv":
                "ccef7b92ca977a59e1e7cbd3620706863cedc0118eeb2a289a3bb85b09e0dd72",
            "out/amplitude_tuning_summary.txt":
                "21ff6bfbe711daf40c2aba054ff1c62d104f76d4b2e18188ad02bd8ccc2ae780",
            "out/amplitude_tuning_uncompensated.csv":
                "4a014ab344b90ef6c6eb5b99f14ae13fed0a9d4ab9668df8fa582acc3cb714ec",
            "stdout":
                "594c03e25e64dcfe63900244ce9979b62c95b8c4806aa11ed93d249879655819",
        }),
    "experiment_im2pm": (
        experiment("im2pm"), {
            "out/im2pm_im_like.csv":
                "8ce9da23d0c38c151266dac84600c976cebfe53526a3a2883c8047b5e13644dd",
            "out/im2pm_pm_like.csv":
                "8e968aa88876ce562d18c76f3f12ec628f67b0a175cd287aa0a80e6b7ee17624",
            "out/im2pm_summary.txt":
                "8fe478aa65f01d4acb9050c23cbb9f9573f4641e6b1cc58c82ba3539f6e8e76e",
            "stdout":
                "56e87181dd5679b7d73fec2c8e56f99ee31b5fa17302ffc904801c115f7fb10b",
        }),
    "experiment_pm2im": (
        experiment("pm2im"), {
            "out/pm2im_im_like.csv":
                "16e0ecefd7e777f87c7a5dda29779da8eaa351d8c6d8fc6f157e37ca21323d3d",
            "out/pm2im_pm_like.csv":
                "eac6bd4cdba65e06fec04bf357473b14609375ff22658bd8509f5c8212bf1303",
            "out/pm2im_summary.txt":
                "f99c94f79b883dc5d8e8e5613a5e22346e23d544c3367a34704b9bc90ee216ae",
            "stdout":
                "e15b8195c90e6424362fa1fbad1f913c05d26294ca79632fbb948600f41ac2bd",
        }),
    "experiment_ssb_notch": (
        experiment("ssb_notch"), {
            "out/ssb_notch_ssb.csv":
                "5362e9a21a6ca755d12e1ac9f2e78c3b95a04b9c696cdf750f41a911b6ed50ec",
            "out/ssb_notch_summary.txt":
                "90cf40e304f85b399b9aea83eebc31fc0be2f6cabf2b89e59d78700dca593a1c",
            "stdout":
                "8471231915a7d884240637ea34aa9e7ab0204a0fadfaa8023128b1d813092d73",
        }),
    "experiment_bandpass_tune": (
        experiment("bandpass_tune"), {
            "out/bandpass_tune_detune_12.csv":
                "a777adebed57924d3c4e0831a370b0a01ea9fa0e67a88088bd138302a0c229e2",
            "out/bandpass_tune_detune_16.csv":
                "cc055353a67984010764aa9bcde41fc699f0238ff29dbf1cb4a8193914180196",
            "out/bandpass_tune_detune_20.csv":
                "a2dd5c266e321b654a8f17b4657e65f9d3644d6da9a77793dd945910859f80cd",
            "out/bandpass_tune_detune_8.csv":
                "d0441a31ea55955b579eb9629e950617c41ba1961a8d754bbed37e815ab88334",
            "out/bandpass_tune_summary.txt":
                "7cdfa3e03db36c462ad9245dab892ceb1f76a73e60007ade37c960ddb447a994",
            "stdout":
                "bb3f050c8a5038775b5242ed6044b9a434a0a574c352de15674d801b793b93f9",
        }),
    "experiment_deint_phase_probe": (
        experiment("deint_phase_probe"), {
            "out/deint_phase_probe_bar.csv":
                "ab170f158a443777ff5c3ecc75f62a92a6081f04892d55fee3da93c100e1ce60",
            "out/deint_phase_probe_cross.csv":
                "ab170f158a443777ff5c3ecc75f62a92a6081f04892d55fee3da93c100e1ce60",
            "out/deint_phase_probe_summary.txt":
                "219623407571173f583d407108405b3a11cc2f9e6a93e55fe349b2088a9c1589",
            "stdout":
                "eb1fad28f3dcf2bc9bc9828886e5e09e337ee050ff04445971f51e9c35a037d2",
        }),
    "experiment_coupling_sweep": (
        experiment("coupling_sweep"), {
            "out/coupling_sweep_kappa_0.0500.csv":
                "e39ac68ca8e5c4d96d294f64518c04ae3d29ae9b9c3414e917947525b5bf462b",
            "out/coupling_sweep_kappa_0.1000.csv":
                "8142ca21bff5fc76439cf8c8c33f83a4ba1c8c6790bc49e885523c7bfc963d33",
            "out/coupling_sweep_kappa_0.1631.csv":
                "420dbb36dbf9ddba062bcd8d8874950b9b95659d7a72387fd1c2d200c506c168",
            "out/coupling_sweep_kappa_0.2500.csv":
                "29d5eefca9f9c02f02f21a9e543d74b2a814a193041434b605b90bbd8c26433f",
            "out/coupling_sweep_kappa_0.4000.csv":
                "a8800e5af230c1f84a75635a6cf88d80d622880c00bf004161a011986eba03bc",
            "out/coupling_sweep_summary.txt":
                "64b5dfd3d024a37a3d356689543687359fd368c8067fb6ce97bd24114512d8e5",
            "stdout":
                "b7dd62ed9a4bd0b2af1981441fc23a1b5f5b145f02445fdacb5ab779a330d7b8",
        }),
    "sweep_deinterleaver": (
        ["sweep", "preset:deinterleaver", OFFSET_SWEEP, "--out",
         "deint.csv"], {
            "deint_bar.csv":
                "d23a2ec7b5fdf87d4efec7276e9f8c1daabb554aa6949c68e402d62a4b84e8ec",
            "deint_cross.csv":
                "80a089462afdbf260f89052d0dd7a2d365972e72ac779f36592dea67efd0605f",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "sweep_shaper": (
        ["sweep", "preset:shaper", OFFSET_SWEEP, "--out", "shaper.csv"], {
            "shaper_bar_tap.csv":
                "b39f4fea5f7a57cec0089d33fc85c33c701e27c3b0d40cb984d4101c21f951f3",
            "shaper_detector.csv":
                "e9b0019bdf9b64edfb4f373ea02206c84e7c87206f783f5a27b980c61fef6e0f",
            "shaper_monitor.csv":
                "d9fb4a834cd16e318e82f202227ac62e047e31f5e7a9bbd5fdf627273a7c4acb",
            "shaper_ring_tap.csv":
                "a87d9804be38cc3a27682203f5aed8c7533aea93e27e3cc994e046cbb31c6938",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "optimize_critical_coupling": (
        SHAPER_OPTIMIZE + ["critical_coupling", "--port", "monitor",
                           "--max-evals", "400"], {
            "stdout":
                "37a7ba170546f97b52aae7f65b3fc3dea10a55d62f924d6d4b0067e9daf55f46",
            "tuned.nl":
                "9e8b6f79dea0a80fa2dc514c0691106d274b077efaf782d0e79cbd6fca65b74a",
            "tuned.sum":
                "37a7ba170546f97b52aae7f65b3fc3dea10a55d62f924d6d4b0067e9daf55f46",
        }),
    "block_waveguide": (
        block("waveguide", "optical_path_length=0.01", "loss_db_per_cm=1.2",
               "physical_length_cm=0.5"), {
            "b.csv":
                "a63a8e65db3d61488f9749b54c6037db56663b0b7f8651fb86194c68b4c69ea4",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "block_phase_shifter": (
        block("phase_shifter", "phase_rad=1.3"), {
            "b.csv":
                "f46286fe7b1e130f2695d4801c66ab3ac715f58b79ae8111ff1007aa1e7b4ad6",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "block_ring_allpass": (
        block("ring_allpass", "kappa=0.16308060159558035", "fsr_ghz=50",
               "round_trip_amplitude=0.9148329893507446", "detune_ghz=3"), {
            "b.csv":
                "3c97a1caf76438460121e124c15c4bb7884f4e3dd115157b0dbc884576f88856",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "block_coupler_3db": (
        block("coupler_3db"), {
            "b_bar.csv":
                "dc931cd065360797aab925dbfda222840bd7aadbfb39398801d3e29629177fee",
            "b_cross.csv":
                "68d81f62160b18e5454d18a424d211fcf8169c0236bd08df0703de832d13d2c5",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "block_tunable_coupler": (
        block("tunable_coupler", "phase_rad=0.7"), {
            "b_bar.csv":
                "65eb86a9215351430c4b4c3bae39f49d815b3fbb2c09980a00918e439bf986db",
            "b_cross.csv":
                "832b09f74dea1a569278e0d256dedb4c3bfeae44e64304dcd28befecfa49d44d",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "block_ring_adddrop": (
        block("ring_adddrop", "kappa=0.1", "kappa_drop=0.05", "fsr_ghz=50",
               "round_trip_amplitude=0.9148329893507446", "detune_ghz=-4"), {
            "b_drop.csv":
                "d6658b0a6658b97dae5f09ab669c49a3b932e6bc8b441d53b14c04460d5221f1",
            "b_through.csv":
                "846260b606fbd72d9c98244ce400facec82e52b287b2bc327834a0d29fdcbb1d",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
    "block_tunable_coupler_phase_sweep": (
        ["block", "tunable_coupler", "--phase-sweep", "0:6.28:0.01", "--out",
         "b.csv"], {
            "b.csv":
                "6609b07b45b466bc086dd8c0fc15c3b4f04fa76891e4a5dac1a82f0af4331ef7",
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
}


BAD_NETLIST = """\
format 2
block r ring_allpass kappa=0.1 kappa=0.2 bogus=1 nokv detune_ghz=oops fsr_ghz=50
block p phase_shifter
block w waveguide optical_path_length=-1
block r phase_shifter phase_rad=0
frob r.out
connect r.out q.in
input in r.out
output out p.out
"""

BAD_CONFIG = """\
experiment ssb_notch
experiment im2pm
sweep 1 2
sweep 1 x 3
heater ps.phase
heater ps.phase zz
seed 1.5
seed
outdir
set polish_evals
set detunes_ghz 8,,16
frob 1
"""

SHORT_NETLIST = """\
format 1
block r
block p phase_shifter phase_rad=0
connect p.out
input in
output o p.out
"""

# a critically coupled ring (self-coupling 0.5 = round-trip amplitude):
# its bar power is exactly 0 at 10 GHz, inside the default passband
CRITICAL_RING_NETLIST = """\
format 1
block ps phase_shifter phase_rad=0
block r ring_allpass kappa=0.75 round_trip_amplitude=0.5 fsr_ghz=50 detune_ghz=10
connect ps.out r.in
input in ps.in
output bar r.out
"""

# an add-drop ring with no drop coupling: its drop port stays dark
DARK_DROP_NETLIST = """\
format 1
block ps phase_shifter phase_rad=0
block r ring_adddrop kappa=0.5 kappa_drop=0 fsr_ghz=50
connect ps.out r.in0
input in ps.in
output through r.out0
output bar r.out1
"""

OPTIMIZE_ERROR = ["optimize", "preset:deinterleaver", "--objective",
                  "deinterleaver_extinction", "--out", "tuned.nl"]


def sweep_range(option: str) -> list[str]:
    return ["sweep", "preset:deinterleaver", option, "--out", "x.csv"]


#: case -> (files written first, argv, exit code, exact standard error)
ERROR_CASES = {
    "block_unknown_key": (
        {}, block("ring_allpass", "kappa=0.1", "bogus=1", "fsr_ghz=50"), 3,
        "error: kind ring_allpass has no key 'bogus' near 'bogus=1'\n"),
    "block_bad_number": (
        {}, block("ring_allpass", "kappa=abc", "fsr_ghz=50"), 3,
        "error: invalid number for 'kappa' near 'abc'\n"),
    "block_repeated_key": (
        {}, block("ring_allpass", "kappa=0.1", "kappa=0.2", "fsr_ghz=50"), 3,
        "error: key 'kappa' given twice near 'kappa=0.2'\n"),
    "block_nan": (
        {}, block("ring_allpass", "kappa=nan", "fsr_ghz=50"), 3,
        "error: invalid number for 'kappa' near 'nan'\n"),
    "block_missing_key": (
        {}, block("ring_allpass", "fsr_ghz=50"), 3,
        "error: kind ring_allpass requires key 'kappa' "
        "near 'ring_allpass'\n"),
    "block_no_equals": (
        {}, block("phase_shifter", "phase_rad"), 3,
        "error: expected key=value near 'phase_rad'\n"
        "error: kind phase_shifter requires key 'phase_rad' "
        "near 'phase_shifter'\n"),
    "block_phase_sweep_with_params": (
        {}, ["block", "tunable_coupler", "phase_rad=1", "--phase-sweep",
             "0:1:0.5", "--out", "c.csv"], 3,
        "error: --phase-sweep takes no key=value parameters\n"),
    "block_phase_sweep_with_sweep": (
        {}, ["block", "tunable_coupler", "--phase-sweep", "0:1:0.5",
             "--sweep=-1:1:1", "--out", "x.csv"], 3,
        "error: --phase-sweep takes no --sweep\n"),
    "sweep_netlist_errors": (
        {"bad.nl": BAD_NETLIST},
        ["sweep", "bad.nl", OFFSET_SWEEP, "--out", "x.csv"], 3,
        "error: line 1, col 8: only 'format 1' is supported near '2'\n"
        "error: line 2, col 32: key 'kappa' given twice near 'kappa=0.2'\n"
        "error: line 2, col 42: kind ring_allpass has no key 'bogus' "
        "near 'bogus=1'\n"
        "error: line 2, col 50: expected key=value near 'nokv'\n"
        "error: line 2, col 55: invalid number for 'detune_ghz' near 'oops'\n"
        "error: line 3, col 9: kind phase_shifter requires key 'phase_rad' "
        "near 'phase_shifter'\n"
        "error: line 4, col 9: optical_path_length must be > 0 "
        "near 'waveguide'\n"
        "error: line 5, col 7: duplicate block id 'r' (first declared on "
        "line 2) near 'r'\n"
        "error: line 6, col 1: unknown statement 'frob' near 'frob'\n"
        "error: line 7, col 15: unknown block id 'q' near 'q.in'\n"
        "error: line 8, col 10: kind ring_allpass has no input port 'out' "
        "(expected one of in) near 'r.out'\n"),
    "experiment_unknown_statement": (
        {"e.cfg": "experiment ssb_notch\nfrobnicate 1\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: line 2, col 1: unknown statement 'frobnicate' "
        "near 'frobnicate'\n"),
    "experiment_wrong_arity": (
        {"e.cfg": "experiment ssb_notch\nsweep 1 2\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: line 2, col 1: expected: sweep <lo> <hi> <step>\n"),
    "experiment_config_errors": (
        {"e.cfg": BAD_CONFIG},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: line 2, col 12: experiment given twice near 'im2pm'\n"
        "error: line 3, col 1: expected: sweep <lo> <hi> <step>\n"
        "error: line 4, col 1: invalid sweep numbers\n"
        "error: line 5, col 1: expected: heater <name> <value>\n"
        "error: line 6, col 17: invalid number near 'zz'\n"
        "error: line 7, col 1: expected: seed <integer>\n"
        "error: line 8, col 1: expected: seed <integer>\n"
        "error: line 9, col 1: expected: outdir <path>\n"
        "error: line 10, col 1: expected: set <key> <value>\n"
        "error: line 11, col 17: invalid number near '8,,16'\n"
        "error: line 12, col 1: unknown statement 'frob' near 'frob'\n"),
    "experiment_config_sweep_given_twice": (
        {"e.cfg": "experiment ssb_notch\nsweep 8 12 0.5\n"
                  "set sweep 2,28,0.01\nsweep 8 12 0.5\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: line 3, col 5: option 'sweep' given twice near 'sweep'\n"
        "error: line 4, col 1: option 'sweep' given twice near 'sweep'\n"),
    "experiment_config_settings_given_twice": (
        {"e.cfg": "experiment ssb_notch\nseed 1\nseed 2\noutdir a\n"
                  "outdir b\nset notch_freq_ghz 10\nset notch_freq_ghz 11\n"
                  "heater ps.phase 1\nheater ps.phase 2\nheater tc.phase 1\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: line 3, col 6: seed given twice near '2'\n"
        "error: line 5, col 8: outdir given twice near 'b'\n"
        "error: line 7, col 5: option 'notch_freq_ghz' given twice "
        "near 'notch_freq_ghz'\n"
        "error: line 9, col 8: heater 'ps.phase' given twice near 'ps.phase'\n"),
    "experiment_coupling_sweep_kappas_share_a_label": (
        {"e.cfg": "experiment coupling_sweep\nset kappas 0.10001,0.10002\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: option 'kappas' gives two values the label "
        "'kappa_0.1000'\n"),
    "experiment_coupling_sweep_negative_span": (
        {"e.cfg": "experiment coupling_sweep\nset span_ghz -5\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: coupling_sweep needs step_ghz > 0, span_ghz >= 0 and kappas "
        "in [0, 1]\n"),
    "experiment_bandpass_tune_detunes_share_a_label": (
        {"e.cfg": "experiment bandpass_tune\n"
                  "set detunes_ghz 8.0000001,8.0000002\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 3,
        "error: option 'detunes_ghz' gives two values the label '8'\n"),
    "optimize_stopband_three_parts": (
        {}, OPTIMIZE_ERROR + ["--stopband", "1:2:3"], 3,
        "error: expected lo:hi, got '1:2:3'\n"),
    "sweep_range_not_numbers": (
        {}, sweep_range("--sweep=a:1:1"), 3,
        "error: expected numbers in lo:hi:step, got 'a:1:1'\n"),
    "sweep_range_two_parts": (
        {}, sweep_range("--sweep=1:2"), 3,
        "error: expected lo:hi:step, got '1:2'\n"),
    "sweep_range_reversed": (
        {}, sweep_range("--sweep=2:1:1"), 3,
        "error: need step > 0 and hi > lo\n"),
    "sweep_netlist_short_statements": (
        {"short.nl": SHORT_NETLIST},
        ["sweep", "short.nl", OFFSET_SWEEP, "--out", "x.csv"], 3,
        "error: line 2, col 1: expected: block <id> <kind> key=value ...\n"
        "error: line 4, col 1: expected: connect <id>.<port> <id>.<port>\n"
        "error: line 5, col 1: expected: input <name> <id>.<port>\n"),
    "sweep_netlist_dotted_block_id": (
        {"d.nl": "format 1\nblock a.b phase_shifter phase_rad=0\n"
                 "output o a.b.out\n"},
        ["sweep", "d.nl", OFFSET_SWEEP, "--out", "x.csv"], 3,
        "error: line 2, col 7: block id 'a.b' contains '.', which separates "
        "<block>.<port> and <block>.<heater> near 'a.b'\n"
        "error: line 3, col 10: unknown block id 'a' near 'a.b.out'\n"),
    "sweep_netlist_format_arity": (
        {"f.nl": "format\nformat 1 2\n"},
        ["sweep", "f.nl", OFFSET_SWEEP, "--out", "x.csv"], 3,
        "error: line 1, col 1: expected: format 1\n"
        "error: line 2, col 1: expected: format 1\n"),
    "optimize_passband_reversed": (
        {}, OPTIMIZE_ERROR + ["--passband", "5:3"], 3,
        "error: passband must be finite with hi > lo, got (5.0, 3.0)\n"),
    "optimize_passband_inf": (
        {}, OPTIMIZE_ERROR + ["--passband", "3:inf"], 3,
        "error: expected numbers in lo:hi, got '3:inf'\n"),
    "optimize_band_nan": (
        {}, SHAPER_OPTIMIZE + ["conversion_extinction", "--band", "nan:25"], 3,
        "error: expected numbers in lo:hi, got 'nan:25'\n"),
    "optimize_band_not_numbers": (
        {}, SHAPER_OPTIMIZE + ["conversion_extinction", "--band", "a:b"], 3,
        "error: expected numbers in lo:hi, got 'a:b'\n"),
    "optimize_empty_heaters": (
        {}, OPTIMIZE_ERROR + ["--heaters", "", "--max-evals", "50",
                              "--restarts", "1"], 3,
        "error: unknown heaters: ['']\n"),
    "optimize_negative_seed": (
        {}, OPTIMIZE_ERROR + ["--seed", "-1"], 3,
        "error: seed must be a non-negative integer, got -1\n"),
    "experiment_negative_seed_option": (
        {"e.cfg": "experiment cancel_notch\n"},
        ["experiment", "e.cfg", "--out-dir", "out", "--seed", "-3"], 3,
        "error: seed must be a non-negative integer, got -3\n"),
    "experiment_negative_seed_statement": (
        {"e.cfg": "experiment cancel_notch\nseed -1\n"},
        ["experiment", "e.cfg"], 3,
        "error: seed must be a non-negative integer, got -1\n"),
    "optimize_deinterleaver_conversion_extinction": (
        {}, ["optimize", "preset:deinterleaver", "--objective",
             "conversion_extinction", "--out", "tuned.nl"], 3,
        "error: unknown heaters: ['ps_bar.phase']\n"),
    "optimize_deinterleaver_notch_depth": (
        {}, ["optimize", "preset:deinterleaver", "--objective",
             "notch_depth", "--out", "tuned.nl"], 3,
        "error: unknown output port 'detector'; available: bar, cross\n"),
    "experiment_set_heaters_number": (
        {"e.cfg": "experiment ssb_notch\nset heaters 1\n"},
        ["experiment", "e.cfg"], 3,
        "error: option 'heaters' takes heater names and values, got 1.0\n"),
    "experiment_set_heaters_number_with_heater": (
        {"e.cfg": "experiment ssb_notch\nset heaters 1\n"
                  "heater ps_bar.phase 0.3\n"},
        ["experiment", "e.cfg"], 3,
        "error: option 'heaters' takes heater names and values, got 1.0\n"),
    "experiment_im2pm_anchor_overflow": (
        {"e.cfg": "experiment im2pm\nset anchor_freq_ghz 1e308\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: phase 2*pi*(f - detune)/fsr overflows at offset -1e+308 GHz "
        "(detune 0 GHz, fsr 30 GHz)\n"),
    "experiment_amplitude_tuning_rf_overflow": (
        {"e.cfg": "experiment amplitude_tuning\nset rf_freq_ghz 1e308\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: phase 2*pi*(f - detune)/fsr overflows at offset -1e+308 GHz "
        "(detune 3 GHz, fsr 30 GHz)\n"),
    "experiment_im2pm_anchor_zero": (
        {"e.cfg": "experiment im2pm\nset anchor_freq_ghz 0\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: RF frequencies must be > 0 and strictly increasing, "
        "got 0 GHz\n"),
    "experiment_amplitude_tuning_rf_negative": (
        {"e.cfg": "experiment amplitude_tuning\nset rf_freq_ghz -5\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: RF frequencies must be > 0 and strictly increasing, "
        "got -5 GHz\n"),
    "experiment_amplitude_tuning_anchor_power": (
        {"e.cfg": "experiment amplitude_tuning\nset anchor_power_mw 1e308\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: power_mw 1e+308 gives a non-finite phase\n"),
    "experiment_amplitude_tuning_negative_anchor_power": (
        {"e.cfg": "experiment amplitude_tuning\nset anchor_power_mw -2\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: power_mw must be >= 0, got -2\n"),
    "block_tiny_fsr": (
        {}, block("ring_allpass", "kappa=0.1", "fsr_ghz=1e-320"), 4,
        "error: phase 2*pi*(f - detune)/fsr overflows at offset -30 GHz "
        "(detune 0 GHz, fsr 9.99989e-321 GHz)\n"),
    "block_huge_detune": (
        {}, block("ring_allpass", "kappa=0.1", "fsr_ghz=50",
                  "detune_ghz=1e308"), 4,
        "error: phase 2*pi*(f - detune)/fsr overflows at offset -30 GHz "
        "(detune 1e+308 GHz, fsr 50 GHz)\n"),
    "sweep_huge_offsets": (
        {}, sweep_range("--sweep=1e307:1.5e308:1e307"), 4,
        "error: phase 2*pi*(f - detune)/fsr overflows at offset 3e+307 GHz "
        "(detune 0 GHz, fsr 30 GHz)\n"),
    "optimize_out_in_missing_directory": (
        {}, OPTIMIZE_ERROR[:-1] + ["missing/t.nl"], 4,
        "error: cannot write netlist missing/t.nl: missing is not a "
        "directory\n"),
    "optimize_notch_depth_rf_overflow": (
        {}, ["optimize", "preset:shaper", "--objective", "notch_depth",
             "--rf-freq", "1e308", "--max-evals", "40", "--restarts", "1",
             "--out", "t.nl"], 4,
        "error: phase 2*pi*(f - detune)/fsr overflows at offset -1e+308 GHz "
        "(detune 0 GHz, fsr 30 GHz)\n"),
    "optimize_passband_too_many_points": (
        {}, OPTIMIZE_ERROR + ["--passband", "3:1e308"], 4,
        "error: sweep 3:1e+308:0.25 gives inf points, more than the limit "
        "of 1e+07\n"),
    "optimize_extinction_zero_in_passband": (
        {"n.nl": CRITICAL_RING_NETLIST},
        ["optimize", "n.nl", "--objective", "deinterleaver_extinction",
         "--heaters", "ps.phase", "--max-evals", "40", "--restarts", "1",
         "--out", "t.nl"], 4,
        "error: objective gave no comparable value in 40 evaluations "
        "(every value was NaN or -inf)\n"),
    "optimize_extinction_dark_port": (
        {"n.nl": DARK_DROP_NETLIST},
        ["optimize", "n.nl", "--objective", "deinterleaver_extinction",
         "--heaters", "ps.phase", "--max-evals", "40", "--restarts", "1",
         "--out", "t.nl"], 4,
        "error: objective gave no comparable value in 40 evaluations "
        "(every value was NaN or -inf)\n"),
    "experiment_ssb_notch_outside_sweep": (
        {"e.cfg": "experiment ssb_notch\nset notch_freq_ghz 1\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: notch at 1 GHz lies outside the RF sweep 2 to 28 GHz\n"),
    "experiment_cancel_notch_outside_sweep": (
        {"e.cfg": "experiment cancel_notch\nset notch_freq_ghz 1\n"},
        ["experiment", "e.cfg", "--out-dir", "out"], 4,
        "error: notch at 1 GHz lies outside the RF sweep 2 to 28 GHz\n"),
    "optimize_passband_overlaps_stopband": (
        {}, OPTIMIZE_ERROR + ["--passband", "3:5", "--stopband", "4:6"], 3,
        "error: passband (3.0, 5.0) and stopband (4.0, 6.0) share points; "
        "they must not overlap\n"),
    "optimize_stopband_too_many_points": (
        {}, OPTIMIZE_ERROR + ["--stopband=-1e308:-3"], 4,
        "error: sweep -1e+308:-3:0.25 gives inf points, more than the limit "
        "of 1e+07\n"),
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


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_cli_errors_match_pinned_text(case, tmp_path, monkeypatch, capsys):
    files, argv, code, stderr = ERROR_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    assert capsys.readouterr().err == stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
