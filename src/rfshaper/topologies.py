"""Builders for the two standard circuits: de-interleaver and full shaper.

De-interleaver topology
-----------------------
An unbalanced MZI between two tunable couplers.  The longer arm carries a
delay of half a ring round trip (equivalent FSR = twice the channel
width) plus one all-pass ring; the short arm carries the other two rings.
All three rings have FSR equal to the channel width, so the power
response is periodic in one channel pair and shifting the grid by one
channel swaps the bar and cross ports exactly.

The rings must be split across both arms: every all-pass phase is
monotone with the same sign as the line delay, so with all rings on one
arm the branch phase difference sweeps right through the stop band and
caps the extinction near 3 dB.  With a 1/2 split the branch phase
difference can be made equiripple-flat in both bands, which is what the
curated coefficients below do (about 43 dB extinction).

Shaper topology
---------------
De-interleaver bar port -> phase shifter -> tunable coupler -> recombiner;
cross port -> all-pass ring -> add-drop ring -> recombiner.  The add-drop
ring joins the recombiner through its through port (notch work) or its
drop port (bandpass work).  Every unused coupler port is routed to a
monitor output so lossless configurations conserve power exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .blocks import PhaseShifterState, RingParams, WaveguideParams
from .circuit import BlockInstance, CircuitGraph, Port
from .constants import DEINTERLEAVER_PASSBAND_GHZ, FILTER_RING_FSR_GHZ
from .errors import ConfigurationError, DomainError

# Equiripple half-band coefficients for the three interleaver rings
# (ring self-couplings; derived from a 7th-order elliptic prototype with
# a 10% transition band and 45 dB stopband ripple).
DESIGN_SELF_COUPLING_DELAY_ARM = 0.499327180731619
DESIGN_SELF_COUPLING_SHORT_A = 0.162212295864377
DESIGN_SELF_COUPLING_SHORT_B = 0.830526592174451

#: Round-trip field amplitude that gives the filter rings a finesse of
#: 17.6 at critical coupling (fitted, see ``fit_round_trip_amplitude``).
FITTED_RING_AMPLITUDE = 0.9148329893507446


def _kappa(self_coupling: float) -> float:
    return 1.0 - self_coupling * self_coupling


@dataclass(frozen=True)
class DeinterleaverSpec:
    """Free parameters of the de-interleaver.

    The defaults are a deliberately naive starting point for the tuner:
    three identical rings at kappa = 0.5 with detunes staggered evenly
    across the ring FSR.  :meth:`designed` returns the curated solution.
    """

    ring_kappas: tuple[float, float, float] = (0.5, 0.5, 0.5)
    ring_detunes_ghz: tuple[float, float, float] = (0.0, 10.0, 20.0)
    arm_trim_rad: float = 0.0
    # both tunable couplers sit at 3 dB (class constants, not fields)
    coupler_in_rad = math.pi / 2
    coupler_out_rad = math.pi / 2

    def __post_init__(self):
        if len(self.ring_kappas) != 3 or len(self.ring_detunes_ghz) != 3:
            raise ConfigurationError("exactly three rings are expected")

    @property
    def ring_fsr_ghz(self) -> float:
        """Ring FSR equals the channel width."""
        return DEINTERLEAVER_PASSBAND_GHZ

    @property
    def arm_fsr_ghz(self) -> float:
        """Arm-imbalance FSR: twice the channel width (half a ring period)."""
        return 2.0 * DEINTERLEAVER_PASSBAND_GHZ

    @classmethod
    def designed(cls, crossover_offset_ghz: float = 0.0) -> "DeinterleaverSpec":
        """Curated equiripple design.

        With zero ``crossover_offset_ghz`` the bar/cross crossover sits at
        offset zero and the bar port passes (0, passband).  A nonzero
        offset translates the whole response: shifting the crossover to
        +3 GHz parks a carrier at offset 0 just inside the cross channel,
        which keeps it off the bar path.  The translation is exact: ring
        detunes shift and the arm delay contributes only a constant trim.
        """
        c = crossover_offset_ghz
        passband_ghz = DEINTERLEAVER_PASSBAND_GHZ
        detune = c % passband_ghz
        return cls(
            ring_kappas=(_kappa(DESIGN_SELF_COUPLING_DELAY_ARM),
                         _kappa(DESIGN_SELF_COUPLING_SHORT_A),
                         _kappa(DESIGN_SELF_COUPLING_SHORT_B)),
            ring_detunes_ghz=(detune, detune, detune),
            arm_trim_rad=(1.5 * math.pi - math.pi * c / passband_ghz) % (2 * math.pi),
        )


def build_deinterleaver(spec: DeinterleaverSpec) -> CircuitGraph:
    """Two-output interleaver graph with ports ``bar`` and ``cross``.

    Ring 1 sits on the delay arm, rings 2 and 3 on the short arm.  All
    coupler phases, the arm trim, and the ring coupling/detune heaters
    are exposed for tuning.
    """
    blocks, connections, inputs, outputs = _deinterleaver_parts(spec)
    return CircuitGraph(tuple(blocks), tuple(connections), inputs, outputs)


def _deinterleaver_parts(spec: DeinterleaverSpec, prefix: str = ""):
    p = prefix
    fsr = spec.ring_fsr_ghz

    def ring(i: int) -> RingParams:
        return RingParams(fsr_ghz=fsr, kappa=spec.ring_kappas[i],
                          detune_ghz=spec.ring_detunes_ghz[i] % fsr)

    blocks = [
        BlockInstance(f"{p}tc_in", "tunable_coupler",
                      PhaseShifterState(spec.coupler_in_rad)),
        BlockInstance(f"{p}wg_delay", "waveguide",
                      WaveguideParams.from_fsr(spec.arm_fsr_ghz)),
        BlockInstance(f"{p}ps_trim", "phase_shifter",
                      PhaseShifterState(spec.arm_trim_rad)),
        BlockInstance(f"{p}r1", "ring_allpass", ring(0)),
        BlockInstance(f"{p}r2", "ring_allpass", ring(1)),
        BlockInstance(f"{p}r3", "ring_allpass", ring(2)),
        BlockInstance(f"{p}tc_out", "tunable_coupler",
                      PhaseShifterState(spec.coupler_out_rad)),
    ]
    connections = [
        (Port(f"{p}tc_in", "out0"), Port(f"{p}wg_delay", "in")),
        (Port(f"{p}wg_delay", "out"), Port(f"{p}ps_trim", "in")),
        (Port(f"{p}ps_trim", "out"), Port(f"{p}r1", "in")),
        (Port(f"{p}r1", "out"), Port(f"{p}tc_out", "in0")),
        (Port(f"{p}tc_in", "out1"), Port(f"{p}r2", "in")),
        (Port(f"{p}r2", "out"), Port(f"{p}r3", "in")),
        (Port(f"{p}r3", "out"), Port(f"{p}tc_out", "in1")),
    ]
    inputs = {"in": Port(f"{p}tc_in", "in0")}
    outputs = {"bar": Port(f"{p}tc_out", "out0"),
               "cross": Port(f"{p}tc_out", "out1")}
    return blocks, connections, inputs, outputs


@dataclass(frozen=True)
class ShaperConfig:
    """Configuration of the full spectral-shaper circuit."""

    deinterleaver: DeinterleaverSpec = field(
        default_factory=DeinterleaverSpec.designed)
    bar_phase_rad: float = 0.0
    bar_coupler_rad: float = math.pi
    allpass: RingParams = field(default_factory=lambda: RingParams(
        fsr_ghz=FILTER_RING_FSR_GHZ, kappa=0.001,
        round_trip_amplitude=FITTED_RING_AMPLITUDE, detune_ghz=25.0))
    adddrop: RingParams = field(default_factory=lambda: RingParams(
        fsr_ghz=FILTER_RING_FSR_GHZ, kappa=0.1, kappa_drop=0.1,
        round_trip_amplitude=FITTED_RING_AMPLITUDE, detune_ghz=25.0))
    adddrop_route: str = "through"

    def __post_init__(self):
        if self.adddrop_route not in ("through", "drop"):
            raise ConfigurationError(
                f"adddrop_route must be 'through' or 'drop', got {self.adddrop_route!r}")


def build_shaper(config: ShaperConfig | None = None) -> CircuitGraph:
    """Full shaper graph.

    External outputs: ``detector`` and ``monitor`` (the recombiner's two
    ports), ``bar_tap`` (unused tunable-coupler port) and ``ring_tap``
    (the add-drop port not routed to the recombiner).
    """
    config = config or ShaperConfig()
    blocks, connections, inputs, outputs = _deinterleaver_parts(
        config.deinterleaver, prefix="deint_")

    blocks += [
        BlockInstance("ps_bar", "phase_shifter",
                      PhaseShifterState(config.bar_phase_rad)),
        BlockInstance("tc_bar", "tunable_coupler",
                      PhaseShifterState(config.bar_coupler_rad)),
        BlockInstance("ap", "ring_allpass", config.allpass),
        BlockInstance("ad", "ring_adddrop", config.adddrop),
        BlockInstance("comb", "coupler_3db", None),
    ]
    del outputs["bar"], outputs["cross"]
    connections += [
        (Port("deint_tc_out", "out0"), Port("ps_bar", "in")),
        (Port("ps_bar", "out"), Port("tc_bar", "in0")),
        (Port("tc_bar", "out0"), Port("comb", "in0")),
        (Port("deint_tc_out", "out1"), Port("ap", "in")),
        (Port("ap", "out"), Port("ad", "in0")),
    ]
    if config.adddrop_route == "through":
        connections += [(Port("ad", "out0"), Port("comb", "in1"))]
        outputs["ring_tap"] = Port("ad", "out1")
    else:
        connections += [(Port("ad", "out1"), Port("comb", "in1"))]
        outputs["ring_tap"] = Port("ad", "out0")
    outputs["bar_tap"] = Port("tc_bar", "out1")
    outputs["detector"] = Port("comb", "out0")
    outputs["monitor"] = Port("comb", "out1")
    return CircuitGraph(tuple(blocks), tuple(connections), inputs, outputs)


def ring_kappa_for_rejection(round_trip_amplitude: float,
                             rejection_db: float) -> float:
    """Under-coupled power coupling giving an all-pass ring the requested
    on-resonance rejection (power dB).  Zero rejection means an uncoupled
    ring."""
    if rejection_db < 0:
        raise ConfigurationError("rejection_db must be >= 0")
    g = round_trip_amplitude
    h = 10.0 ** (-rejection_db / 20.0)
    c = (g + h) / (1.0 + g * h)
    if not (0.0 < c <= 1.0):
        raise ConfigurationError(
            f"rejection {rejection_db} dB unreachable at amplitude {g}")
    return 1.0 - c * c


def fit_round_trip_amplitude(target_finesse: float) -> float:
    """Round-trip amplitude whose critically coupled ring has the target
    finesse: the linewidth law ``cos(pi/F) = 2 - (1+g^4)/(2g^2)`` solved
    for g, which is ``sqrt(1 + s*s) - s`` with ``s = sin(pi/(2F))``."""
    if not (math.isfinite(target_finesse) and target_finesse > 1.0):
        raise DomainError("target_finesse must be a finite number > 1, "
                          f"got {target_finesse!r}")
    s = math.sin(math.pi / (2.0 * target_finesse))
    return math.sqrt(1.0 + s * s) - s
