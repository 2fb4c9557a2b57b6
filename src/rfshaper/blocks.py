"""Parameter records, heater laws and the block-kind table.

``BLOCK_KINDS`` at the end of the module is the one place that describes
each block kind: its ports, parameters, netlist keys, heaters and
response.  A new kind is added there and nowhere else.  Each response
calls a transfer function of :mod:`rfshaper.kernels`, whose docstring
states the conventions.  ``Heater.update`` turns a float phase into
params fields, and K phases into ``(K, 1)`` columns by applying each
heater law's float formula to each entry; every check below takes a
column as well as a float and names the row the float call would.
``coupling_phase`` and ``detune_phase`` are the ring heaters' phases,
for callers that set a coupling or detune through its heater.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import kernels
from .constants import DEFAULT_CARRIER_THZ, SPEED_OF_LIGHT_M_PER_S
from .errors import ConfigurationError, DomainError
from .kernels import TWO_PI, _first_failing, _require_finite


def _require_unit_interval(name: str, x) -> None:
    ok = (0.0 <= x) & (x <= 1.0)
    # a float gives a Python bool, and np.all costs microseconds on one
    if ok is not True and not np.all(ok):
        raise DomainError(
            f"{name} out of range [0,1]: {_first_failing(x, ok)}")


#: The most points a sweep or preset range may have; one complex field
#: of this many points takes 160 MB.
MAX_GRID_POINTS = 10**7


def require_grid_size(name: str, span: float, step: float) -> None:
    """DomainError naming ``name`` unless ``span / step`` points fit."""
    if not span / step < MAX_GRID_POINTS:
        raise DomainError(f"{name} gives {span / step:.3g} points, more "
                          f"than the limit of {MAX_GRID_POINTS:.0e}")


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveguideParams:
    """A piece of bus waveguide.

    ``optical_path_length`` is the group path n_g*L in metres and fixes the
    frequency dependence of the phase; the two loss fields fix the
    amplitude factor ``gamma = 10**(-loss_db_per_cm*physical_length_cm/20)``.
    """

    optical_path_length: float
    loss_db_per_cm: float = 0.0
    physical_length_cm: float = 0.0

    def __post_init__(self):
        _require_finite("WaveguideParams", self.optical_path_length,
                        self.loss_db_per_cm, self.physical_length_cm)
        if self.optical_path_length <= 0:
            raise DomainError("optical_path_length must be > 0")
        if self.loss_db_per_cm < 0 or self.physical_length_cm < 0:
            raise DomainError("loss and length must be >= 0")

    @property
    def gamma(self) -> float:
        return amplitude_from_db_loss(self.loss_db_per_cm, self.physical_length_cm)

    @property
    def fsr_equivalent_ghz(self) -> float:
        """FSR of a unit delay with this group path (GHz)."""
        return SPEED_OF_LIGHT_M_PER_S / self.optical_path_length / 1e9

    @classmethod
    def from_fsr(cls, fsr_ghz: float, loss_db_per_cm: float = 0.0,
                 physical_length_cm: float = 0.0) -> "WaveguideParams":
        """Build the waveguide whose delay has the given equivalent FSR."""
        if not (fsr_ghz > 0):
            raise DomainError("fsr_ghz must be > 0")
        return cls(SPEED_OF_LIGHT_M_PER_S / (fsr_ghz * 1e9),
                   loss_db_per_cm, physical_length_cm)


@dataclass(frozen=True)
class PhaseShifterState:
    """A thermo-optic phase shifter setting."""

    phase_rad: float

    def __post_init__(self):
        _require_finite("PhaseShifterState", self.phase_rad)


@dataclass(frozen=True)
class RingParams:
    """A ring resonator, parametrised by FSR rather than physical length.

    ``kappa`` is the power coupling of the bus coupler; ``kappa_drop``
    (add-drop rings only) that of the second coupler.  The round-trip
    field amplitude and the resonance offset from the grid origin complete
    the description.
    """

    fsr_ghz: float
    kappa: float
    kappa_drop: float | None = None
    round_trip_amplitude: float = 1.0
    detune_ghz: float = 0.0

    def __post_init__(self):
        _require_finite("RingParams", self.fsr_ghz, self.kappa,
                        self.round_trip_amplitude, self.detune_ghz)
        if not (self.fsr_ghz > 0):
            raise DomainError("fsr_ghz must be > 0")
        _require_unit_interval("kappa", self.kappa)
        if self.kappa_drop is not None:
            _require_unit_interval("kappa_drop", self.kappa_drop)
        if not (0.0 < self.round_trip_amplitude <= 1.0):
            raise DomainError("round_trip_amplitude must be in (0,1]")

    @property
    def self_coupling(self) -> float:
        return np.sqrt(1.0 - self.kappa)    # correctly rounded, as math's


@dataclass(frozen=True)
class FrequencyGrid:
    """Optical frequency grid: a carrier plus sorted offsets in GHz."""

    center_thz: float
    offsets_ghz: np.ndarray

    def __post_init__(self):
        offs = np.asarray(self.offsets_ghz, dtype=float)
        object.__setattr__(self, "offsets_ghz", offs)
        _require_finite("FrequencyGrid", self.center_thz)
        if offs.ndim != 1 or offs.size == 0:
            raise DomainError("offsets_ghz must be a non-empty 1-D array")
        if not np.all(np.isfinite(offs)):
            raise DomainError("offsets_ghz must be finite")
        # neighbours compared, not differenced: a difference can overflow
        if offs.size > 1 and not np.all(offs[1:] > offs[:-1]):
            raise DomainError("offsets_ghz must be strictly increasing")

    @classmethod
    def sweep(cls, lo_ghz: float, hi_ghz: float,
              step_ghz: float) -> "FrequencyGrid":
        """Uniform grid from lo to hi inclusive (within half a step)."""
        _require_finite("FrequencyGrid.sweep", lo_ghz, hi_ghz, step_ghz)
        if not (step_ghz > 0 and hi_ghz > lo_ghz):
            raise DomainError("need step > 0 and hi > lo")
        require_grid_size(f"sweep {lo_ghz:g}:{hi_ghz:g}:{step_ghz:g}",
                          hi_ghz - lo_ghz, step_ghz)
        n = int(round((hi_ghz - lo_ghz) / step_ghz))
        offs = lo_ghz + step_ghz * np.arange(n + 1)
        return cls(DEFAULT_CARRIER_THZ, offs)

    def __len__(self) -> int:
        return int(self.offsets_ghz.size)


# ---------------------------------------------------------------------------
# design formulas
# ---------------------------------------------------------------------------


def amplitude_from_db_loss(loss_db_per_cm: float, length_cm: float) -> float:
    """Field amplitude factor for a power loss quoted in dB/cm."""
    _require_finite("amplitude_from_db_loss", loss_db_per_cm, length_cm)
    if loss_db_per_cm < 0 or length_cm < 0:
        raise DomainError("loss and length must be >= 0")
    return 10.0 ** (-loss_db_per_cm * length_cm / 20.0)


def heater_phase_from_power(power_mw: float, p_pi_mw: float) -> float:
    """Linear heater model: ``pi`` phase per ``p_pi_mw`` of heater power.

    ``power_mw`` may also be an array of powers, which gives the array of
    their phases, each equal to its float call bit for bit (a product and
    a quotient are correctly rounded in NumPy as in Python); an error
    names the first failing power."""
    _require_finite("heater_phase_from_power", power_mw, p_pi_mw)
    if p_pi_mw <= 0:
        raise ConfigurationError("p_pi_mw must be > 0")
    nonnegative = power_mw >= 0
    if not np.all(nonnegative):
        raise DomainError("power_mw must be >= 0, got "
                          f"{_first_failing(power_mw, nonnegative):g}")
    with np.errstate(over="ignore"):    # an overflow is reported below
        phase = math.pi * power_mw / p_pi_mw
    finite = np.isfinite(phase)
    if not np.all(finite):
        raise DomainError(f"power_mw {_first_failing(power_mw, finite):g} "
                          "gives a non-finite phase")
    return phase


def critical_coupling_kappa(round_trip_amplitude: float) -> float:
    """Power coupling that makes an all-pass ring critically coupled."""
    _require_finite("critical_coupling_kappa", round_trip_amplitude)
    if not (0.0 < round_trip_amplitude <= 1.0):
        raise DomainError("round_trip_amplitude must be in (0,1]")
    return 1.0 - round_trip_amplitude ** 2


# ---------------------------------------------------------------------------
# block kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Heater:
    """A tunable phase of a block kind, which sets the params ``field``.

    ``get(params)`` is the phase the params imply.  ``law(params, phase)``
    is the field's float formula for a phase in [0, 2*pi).  It reads only
    fields that no heater sets, so the updates of one block's heaters can
    be merged and applied in one new params record.
    """

    field: str
    get: Callable[[object], float]
    law: Callable[[object, float], float]

    def update(self, params, phase) -> dict:
        """``{field: value}`` for ``phase`` wrapped to [0, 2*pi).  A 1-D
        array of K phases, wrapped in float64 as quietly as a float is (an
        infinite phase wraps to NaN), gives a ``(K, 1)`` column of the law
        applied to each entry in Python floats: the float calls' values."""
        if isinstance(phase, np.ndarray):    # the one float-or-column fork
            # Python's % per entry, as exact and faster, waits on ROADMAP item 1
            with np.errstate(invalid="ignore"):
                wrapped = np.remainder(phase, TWO_PI, dtype=float).tolist()
            return {self.field: np.array([self.law(params, v)
                                          for v in wrapped])[:, None]}
        return {self.field: self.law(params, phase % TWO_PI)}


@dataclass(frozen=True)
class BlockKind:
    """Everything the package knows about one kind of block.

    ``keys`` are the netlist keys in write order; they are also the
    parameter fields they set.  A netlist must give the ``required``
    keys, and a block's params may not leave them None.  ``heaters``
    maps each heater name (``<block id>.<name>`` in a circuit) to its
    :class:`Heater`.  ``response(params, offsets)`` gives the
    transfer-matrix rows over the grid: row i holds the weights of each
    input port in output port i, as scalars or grid arrays; params whose
    heater fields are ``(K, 1)`` columns give ``(K, 1)`` columns or
    ``(K, N)`` arrays instead.
    ``cli_ports`` name the outputs of a single-block ``rfshaper block``
    sweep.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    params_type: type
    keys: tuple[str, ...]
    required: tuple[str, ...]
    heaters: Mapping[str, Heater]
    response: Callable[[object, np.ndarray], tuple]
    cli_ports: tuple[str, ...]


# Ring couplers are tunable MZI couplers, so a coupling heater is a phase
# with ``kappa = sin^2(phase/2)``; the detune heater shifts the resonance
# by ``fsr * phase / (2*pi)``.
def coupling_phase(power: float) -> float:
    """The coupling heater phase that gives power coupling ``power``."""
    _require_unit_interval("coupling_phase power", power)
    return 2.0 * math.asin(math.sqrt(power))


def detune_phase(detune_ghz: float, fsr_ghz: float) -> float:
    """The detune heater phase, in [0, 2*pi), that shifts a ring of FSR
    ``fsr_ghz`` by ``detune_ghz``.  The detune is read modulo the FSR, so
    that a detune many FSRs away still gives a finite phase."""
    _require_finite("detune_phase", detune_ghz, fsr_ghz)
    if not fsr_ghz > 0:
        raise DomainError(f"detune_phase: fsr_ghz must be > 0, got {fsr_ghz!r}")
    return (TWO_PI * ((detune_ghz % fsr_ghz) / fsr_ghz)) % TWO_PI


_PHASE_HEATER = Heater("phase_rad", lambda p: p.phase_rad % TWO_PI,
                       lambda p, phase: phase)


def _coupling_heater(key: str) -> Heater:
    return Heater(key, lambda p: coupling_phase(getattr(p, key)),
                  lambda p, phase: math.sin(phase / 2) ** 2)


_DETUNE_HEATER = Heater("detune_ghz",
                        lambda p: detune_phase(p.detune_ghz, p.fsr_ghz),
                        lambda p, phase: p.fsr_ghz * phase / TWO_PI)


def _ring_adddrop_rows(p: RingParams, offsets):
    through_in, drop, through_add = kernels.ring_adddrop_grid(
        offsets, p.kappa, p.kappa_drop, p.round_trip_amplitude, p.fsr_ghz,
        p.detune_ghz)
    return ((through_in, drop), (drop, through_add))


_COUPLER_3DB_ROWS = kernels.h_coupler_3db()
_RING_KEYS = ("kappa", "fsr_ghz", "round_trip_amplitude", "detune_ghz")
_ONE_PORT = {"inputs": ("in",), "outputs": ("out",)}
_TWO_PORT = {"inputs": ("in0", "in1"), "outputs": ("out0", "out1")}

BLOCK_KINDS: dict[str, BlockKind] = {
    "waveguide": BlockKind(
        **_ONE_PORT, params_type=WaveguideParams,
        keys=("optical_path_length", "loss_db_per_cm", "physical_length_cm"),
        required=("optical_path_length",), heaters={},
        response=lambda p, offsets: ((kernels.waveguide_grid(
            offsets, p.gamma, p.fsr_equivalent_ghz),),),
        cli_ports=("out",)),
    "phase_shifter": BlockKind(
        **_ONE_PORT, params_type=PhaseShifterState,
        keys=("phase_rad",), required=("phase_rad",),
        heaters={"phase": _PHASE_HEATER},
        response=lambda p, offsets: ((kernels.h_phase_shifter(
            p.phase_rad),),),
        cli_ports=("out",)),
    "ring_allpass": BlockKind(
        **_ONE_PORT, params_type=RingParams,
        keys=_RING_KEYS, required=("kappa", "fsr_ghz"),
        heaters={"coupling": _coupling_heater("kappa"),
                 "detune": _DETUNE_HEATER},
        response=lambda p, offsets: ((kernels.ring_allpass_grid(
            offsets, p.self_coupling, p.round_trip_amplitude, p.fsr_ghz,
            p.detune_ghz),),),
        cli_ports=("out",)),
    "coupler_3db": BlockKind(
        **_TWO_PORT, params_type=type(None), keys=(), required=(), heaters={},
        response=lambda p, offsets: _COUPLER_3DB_ROWS,
        cli_ports=("bar", "cross")),
    "tunable_coupler": BlockKind(
        **_TWO_PORT, params_type=PhaseShifterState,
        keys=("phase_rad",), required=("phase_rad",),
        heaters={"phase": _PHASE_HEATER},
        response=lambda p, offsets: kernels.h_tunable_coupler(p.phase_rad),
        cli_ports=("bar", "cross")),
    # in0 input bus, in1 add bus, out0 through, out1 drop
    "ring_adddrop": BlockKind(
        **_TWO_PORT, params_type=RingParams,
        keys=("kappa", "kappa_drop") + _RING_KEYS[1:],
        required=("kappa", "kappa_drop", "fsr_ghz"),
        heaters={"coupling": _coupling_heater("kappa"),
                 "coupling_drop": _coupling_heater("kappa_drop"),
                 "detune": _DETUNE_HEATER},
        response=_ring_adddrop_rows,
        cli_ports=("through", "drop")),
}
