"""Closed-form NumPy models that check rfshaper's outputs independently.

Nothing here imports ``rfshaper``: the block formulas follow the
conventions stated in the project README (phase elements multiply by
``exp(-1j*phi)``, all-pass rings give ``(c - p)/(1 - c*p)`` with
``c = sqrt(1 - kappa)`` and ``p = a*exp(-1j*2*pi*(f - detune)/fsr)``,
tunable couplers are balanced MZIs with bar ``0.5*(1 - exp(-1j*phi))``,
ring heaters map to ``kappa = sin^2(phase/2)`` and
``detune = fsr*phase/(2*pi)``) and the topologies are written out by
hand, so a fault in the program's graph walk or kernels cannot hide
behind a shared helper.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
#: Magnitude floor of the program's RF traces (dB); values below it clamp.
RF_FLOOR_DB = -300.0


def phasor(phase):
    return np.cos(phase) - 1j * np.sin(phase)


def coupler(phase: float):
    """(bar, cross) of a balanced-MZI tunable coupler; the matrix is
    ``[[bar, cross], [cross, -bar]]``."""
    e = complex(math.cos(phase), -math.sin(phase))
    return 0.5 * (1.0 - e), -0.5j * (1.0 + e)


def allpass(f: np.ndarray, kappa: float, fsr: float, detune: float,
            amplitude: float = 1.0) -> np.ndarray:
    c = math.sqrt(1.0 - kappa)
    p = amplitude * phasor(TWO_PI * (f - detune) / fsr)
    return (c - p) / (1.0 - c * p)


def delay(f: np.ndarray, fsr: float, gamma: float = 1.0) -> np.ndarray:
    return gamma * phasor(TWO_PI * f / fsr)


# ---------------------------------------------------------------------------
# de-interleaver: tc_in -> (delay, trim, r1 | r2, r3) -> tc_out
# ---------------------------------------------------------------------------

DEINT_HEATERS = ("ps_trim.phase", "r1.coupling", "r1.detune", "r2.coupling",
                 "r2.detune", "r3.coupling", "r3.detune", "tc_in.phase",
                 "tc_out.phase")


def deinterleaver_heaters(ring_kappas, ring_detunes_ghz, arm_trim_rad,
                          coupler_in_rad, coupler_out_rad,
                          fsr: float) -> dict[str, float]:
    """Heater phases equivalent to a de-interleaver parameter set."""
    h = {"ps_trim.phase": arm_trim_rad % TWO_PI,
         "tc_in.phase": coupler_in_rad % TWO_PI,
         "tc_out.phase": coupler_out_rad % TWO_PI}
    for i, (k, d) in enumerate(zip(ring_kappas, ring_detunes_ghz), start=1):
        h[f"r{i}.coupling"] = 2.0 * math.asin(math.sqrt(k))
        h[f"r{i}.detune"] = (TWO_PI * ((d % fsr) / fsr)) % TWO_PI
    return h


def deinterleaver_fields(f: np.ndarray, heaters: dict[str, float],
                         fsr: float = 30.0, amplitude: float = 1.0):
    """(bar, cross) fields of the de-interleaver for heater phases.

    The ring FSR equals the channel width ``fsr``; the delay arm's
    equivalent FSR is twice that.
    """
    f = np.asarray(f, dtype=float)

    def ring(i):
        kappa = math.sin(heaters[f"r{i}.coupling"] / 2.0) ** 2
        detune = fsr * heaters[f"r{i}.detune"] / TWO_PI
        return allpass(f, kappa, fsr, detune, amplitude)

    bar_in, cross_in = coupler(heaters["tc_in.phase"])
    long_arm = (bar_in * delay(f, 2.0 * fsr)
                * phasor(heaters["ps_trim.phase"]) * ring(1))
    short_arm = cross_in * ring(2) * ring(3)
    bar_out, cross_out = coupler(heaters["tc_out.phase"])
    return (bar_out * long_arm + cross_out * short_arm,
            cross_out * long_arm - bar_out * short_arm)


def extinction_offsets(passband=(3.0, 27.0), stopband=(-27.0, -3.0),
                       step=0.25) -> np.ndarray:
    """The de-interleaver objective's grid: both bands at ``step``."""
    return np.unique(np.concatenate([
        np.arange(stopband[0], stopband[1] + 1e-12, step),
        np.arange(passband[0], passband[1] + 1e-12, step)]))


def extinction_db(f: np.ndarray, power: np.ndarray, passband=(3.0, 27.0),
                  stopband=(-27.0, -3.0)) -> float:
    """Worst passband power over best stopband power, in dB."""
    p_pass = power[(f >= passband[0]) & (f <= passband[1])].min()
    p_stop = power[(f >= stopband[0]) & (f <= stopband[1])].max()
    if p_stop <= 0.0:
        return math.inf
    return 10.0 * math.log10(p_pass / p_stop)


def deinterleaver_extinction(heaters: dict[str, float]) -> float:
    f = extinction_offsets()
    bar, _ = deinterleaver_fields(f, heaters)
    return extinction_db(f, (bar * bar.conj()).real)


# ---------------------------------------------------------------------------
# RF beat
# ---------------------------------------------------------------------------

def beat_phasor(h_minus, h_zero, h_plus, e_minus, e_carrier, e_plus,
                responsivity: float):
    """One-sided RF beat ``R*(E0*conj(E-) + conj(E0)*E+)`` after a circuit
    whose responses at -f, 0 and +f are given."""
    e0 = h_zero * e_carrier
    return responsivity * (e0 * np.conj(h_minus * e_minus)
                           + np.conj(e0) * h_plus * e_plus)


def rf_mag_db(beat, reference: float):
    """Normalised RF magnitude in dB, clamped at the program's floor."""
    mag = np.abs(beat) / reference
    return 20.0 * np.log10(np.maximum(mag, 10.0 ** (RF_FLOOR_DB / 20.0)))


# ---------------------------------------------------------------------------
# ring-network lattice
# ---------------------------------------------------------------------------

def make_lattice(rng: np.random.Generator, rails: int = 4, stages: int = 28):
    """A seeded coupler-ring-shifter lattice, after the paper's network of
    reconfigurable rings.

    Each stage puts a phase shifter and a lossless all-pass ring on every
    rail, a lossless delay on one rail, then tunable couplers between
    neighbouring rails (pairs (0,1), (2,3), ... on even stages and
    (1,2), ... on odd ones).  Light enters rail 0; every rail ends at an
    output ``o<r>``.
    """
    out = []
    for s in range(stages):
        stage = {
            "shifters": rng.uniform(0.0, TWO_PI, rails).tolist(),
            "kappas": rng.uniform(0.15, 0.85, rails).tolist(),
            "detunes": rng.uniform(0.0, 50.0, rails).tolist(),
            "delay_rail": s % rails,
            "delay_fsr": float(rng.uniform(60.0, 200.0)),
            "pairs": [(r, r + 1) for r in range(s % 2, rails - 1, 2)],
        }
        stage["couplers"] = rng.uniform(0.3, TWO_PI - 0.3,
                                        len(stage["pairs"])).tolist()
        out.append(stage)
    return {"rails": rails, "ring_fsr": 50.0, "stages": out}


def lattice_netlist(lat) -> str:
    """Netlist text for a lattice, in the project's netlist format."""
    rails = lat["rails"]
    blocks, conns = [], []
    head = [None] * rails           # first block input port on each rail
    tail = [None] * rails           # last block output port on each rail

    def chain(rail: int, block_id: str, in_port: str, out_port: str):
        if tail[rail] is not None:
            conns.append(f"connect {tail[rail]} {block_id}.{in_port}")
        else:
            head[rail] = f"{block_id}.{in_port}"
        tail[rail] = f"{block_id}.{out_port}"

    for s, st in enumerate(lat["stages"]):
        for r in range(rails):
            blocks.append(f"block ps{s}_{r} phase_shifter "
                          f"phase_rad={st['shifters'][r]!r}")
            chain(r, f"ps{s}_{r}", "in", "out")
            blocks.append(f"block rg{s}_{r} ring_allpass kappa={st['kappas'][r]!r} "
                          f"fsr_ghz={lat['ring_fsr']!r} round_trip_amplitude=1.0 "
                          f"detune_ghz={st['detunes'][r]!r}")
            chain(r, f"rg{s}_{r}", "in", "out")
            if r == st["delay_rail"]:
                opl = SPEED_OF_LIGHT_M_PER_S / (st["delay_fsr"] * 1e9)
                blocks.append(f"block wg{s} waveguide optical_path_length={opl!r}")
                chain(r, f"wg{s}", "in", "out")
        for (a, b), phase in zip(st["pairs"], st["couplers"]):
            bid = f"tc{s}_{a}"
            blocks.append(f"block {bid} tunable_coupler phase_rad={phase!r}")
            conns.append(f"connect {tail[a]} {bid}.in0")
            conns.append(f"connect {tail[b]} {bid}.in1")
            tail[a], tail[b] = f"{bid}.out0", f"{bid}.out1"
    lines = ["format 1", "# seeded coupler-ring-shifter lattice", *blocks,
             *conns, f"input in {head[0]}"]
    lines += [f"output o{r} {tail[r]}" for r in range(rails)]
    return "\n".join(lines) + "\n"


def lattice_fields(lat, f: np.ndarray) -> list[np.ndarray]:
    """Output field on every rail for unit light into rail 0."""
    f = np.asarray(f, dtype=float)
    rails = lat["rails"]
    e = [np.zeros(f.size, dtype=complex) for _ in range(rails)]
    e[0] = np.ones(f.size, dtype=complex)
    for st in lat["stages"]:
        for r in range(rails):
            h = phasor(st["shifters"][r]) * allpass(
                f, st["kappas"][r], lat["ring_fsr"], st["detunes"][r])
            if r == st["delay_rail"]:
                fsr_eq = SPEED_OF_LIGHT_M_PER_S / (
                    SPEED_OF_LIGHT_M_PER_S / (st["delay_fsr"] * 1e9)) / 1e9
                h = h * delay(f, fsr_eq)
            e[r] = h * e[r]
        for (a, b), phase in zip(st["pairs"], st["couplers"]):
            bar, cross = coupler(phase)
            e[a], e[b] = bar * e[a] + cross * e[b], cross * e[a] - bar * e[b]
    return e


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation relative to the largest reference magnitude."""
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / max(scale, 1e-300)
