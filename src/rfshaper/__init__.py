"""rfshaper: frequency-domain simulator and heater tuner for an
integrated RF-photonic spectral shaper.

The package models an RF-modulated optical spectrum as three complex
tones, propagates them through feed-forward circuits of waveguides,
couplers, and ring resonators, detects the RF beat, and numerically
tunes virtual heaters to hit filtering and modulation-transformation
targets.
"""

from .blocks import (BLOCK_KINDS, FrequencyGrid, PhaseShifterState,
                     RingParams, WaveguideParams,
                     amplitude_from_db_loss, critical_coupling_kappa,
                     heater_phase_from_power)
from .circuit import (BlockInstance, CircuitGraph, CircuitResponse, Port,
                      bind, evaluate)
from .csvout import format_number
from .errors import (AnalysisError, ConfigurationError, DomainError,
                     ShaperError, SingularityError, TopologyError)
from .experiments import ExperimentResult, run_experiment
from .kernels import h_coupler_3db, h_phase_shifter, h_tunable_coupler
from .metrics import extinction_db, notch_depth_db, passband_width_3db, \
    peak_frequency_ghz, q_and_finesse
from .rflink import (LinkConfig, ModulationFormat, RfResponse, bind_tones,
                     detector, rf_transmission_sweep)
from .topologies import (DeinterleaverSpec, ShaperConfig, build_deinterleaver,
                         build_shaper, fit_round_trip_amplitude,
                         ring_kappa_for_rejection)
from .tuner import (CancellationSettings, Objective, OptimizerConfig,
                    TuningResult, compensate_coupler_phase, optimize,
                    synthesize_cancellation_settings)

__version__ = "0.1.0"
