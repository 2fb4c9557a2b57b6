"""Physical constants and chip-level default parameters."""

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

#: Optical carrier used when an absolute frequency is needed (about 1550 nm).
DEFAULT_CARRIER_THZ = 193.4

#: Heater power that produces a pi phase shift.
DEFAULT_P_PI_MW = 35.0

#: Photodetector responsivity in A/W.
DEFAULT_RESPONSIVITY_A_PER_W = 0.8

#: Free spectral range of the filter-network rings (GHz).
FILTER_RING_FSR_GHZ = 50.0

#: De-interleaver channel width (GHz): pass and stop bands are this wide.
DEINTERLEAVER_PASSBAND_GHZ = 30.0
