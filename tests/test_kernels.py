import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfshaper import kernels
from rfshaper.blocks import BLOCK_KINDS, RingParams, WaveguideParams
from rfshaper.errors import DomainError, SingularityError
from tests.reference import h_ring_adddrop, h_ring_allpass, h_waveguide


def _offsets():
    rng = np.random.default_rng(11)
    return np.sort(rng.uniform(-80.0, 80.0, 257))


def test_waveguide_grid_matches_scalar_blocks():
    offs = _offsets()
    p = WaveguideParams.from_fsr(60.0, loss_db_per_cm=1.2, physical_length_cm=0.4)
    grid = kernels.waveguide_grid(offs, p.gamma, p.fsr_equivalent_ghz)
    scalar = np.array([h_waveguide(o, p) for o in offs])
    np.testing.assert_allclose(grid, scalar, rtol=0, atol=1e-14)


def test_ring_allpass_grid_matches_scalar_blocks():
    offs = _offsets()
    p = RingParams(fsr_ghz=50.0, kappa=0.17, round_trip_amplitude=0.93,
                   detune_ghz=-4.0)
    grid = kernels.ring_allpass_grid(offs, p.self_coupling,
                                     p.round_trip_amplitude, p.fsr_ghz,
                                     p.detune_ghz)
    scalar = np.array([h_ring_allpass(o, p) for o in offs])
    np.testing.assert_allclose(grid, scalar, rtol=0, atol=1e-14)


def test_ring_adddrop_grid_matches_scalar_blocks():
    offs = _offsets()
    p = RingParams(fsr_ghz=50.0, kappa=0.2, kappa_drop=0.07,
                   round_trip_amplitude=0.96, detune_ghz=3.0)
    through, drop, _ = kernels.ring_adddrop_grid(
        offs, p.kappa, p.kappa_drop, p.round_trip_amplitude, p.fsr_ghz,
        p.detune_ghz)
    scalar = [h_ring_adddrop(o, p) for o in offs]
    np.testing.assert_allclose(through, [s[0] for s in scalar], atol=1e-14)
    np.testing.assert_allclose(drop, [s[1] for s in scalar], atol=1e-14)


@given(kappa=st.floats(0.0, 1.0), kappa_drop=st.floats(0.0, 1.0),
       amplitude=st.floats(0.5, 1.0), fsr=st.floats(10.0, 200.0),
       detune=st.floats(-100.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_ring_adddrop_matrix_unitary_or_passive(kappa, kappa_drop, amplitude,
                                                fsr, detune):
    p = RingParams(fsr_ghz=fsr, kappa=kappa, kappa_drop=kappa_drop,
                   round_trip_amplitude=amplitude, detune_ghz=detune)
    # the reference refuses rings within 1e-15 of the pole
    c1, c2 = math.sqrt(1.0 - kappa), math.sqrt(1.0 - kappa_drop)
    assume(c1 * c2 * amplitude < 1.0 - 1e-15)
    offs = _offsets()
    rows = BLOCK_KINDS["ring_adddrop"].response(p, offs)
    m = np.moveaxis(np.array(rows), -1, 0)             # (point, out, in)
    if amplitude == 1.0:
        defect = m @ np.conj(np.swapaxes(m, 1, 2)) - np.eye(2)
        assert np.max(np.abs(defect)) < 1e-12
    else:
        assert np.max(np.linalg.norm(m, ord=2, axis=(1, 2))) <= 1.0 + 1e-12
    through, drop = h_ring_adddrop(offs, p)
    np.testing.assert_allclose(rows[0][0], through, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rows[1][0], drop, rtol=0, atol=1e-12)


def test_beat_phasor_grid_formula():
    h = np.array([0.5 + 0.1j, -0.2j])
    out = kernels.beat_phasor_grid(0.9 + 0.0j, h, h, 0.1, 1.0, 0.1, 0.8)
    ec = 0.9
    expected = 0.8 * (ec * np.conj(h * 0.1) + np.conj(ec) * h * 0.1)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_lossless_uncoupled_ring_rejects_a_subnormal_distance_to_its_pole():
    # at 0 GHz, 1 - p is subnormal, and NumPy's complex division by it
    # overflows to inf+nanj
    offsets = np.array([-0.5, 0.0, 0.5])
    with pytest.raises(SingularityError, match="resonance at 0 GHz"):
        kernels.ring_allpass_grid(offsets, 1.0, 1.0, 30.0, 1e-312)
    with pytest.raises(SingularityError, match="resonance at 0 GHz"):
        kernels.ring_adddrop_grid(offsets, 0.0, 0.0, 1.0, 30.0, 1e-312)


@pytest.mark.parametrize("ring", ["allpass", "adddrop"])
def test_a_column_batch_names_its_hot_row_or_equals_its_float_calls(ring):
    offsets = np.array([-0.5, 0.0, 0.5])

    def rows(kappa, amplitude, detune):
        """The ring's responses, stacked on a leading axis for add-drop."""
        if ring == "allpass":
            return kernels.ring_allpass_grid(
                offsets, np.sqrt(1.0 - kappa), amplitude, 30.0, detune)
        return np.array(kernels.ring_adddrop_grid(
            offsets, kappa, kappa, amplitude, 30.0, detune))

    def column(*values):
        return np.array(values)[:, None]
    kappas, detunes = (0.2, 0.0, 0.3), (1.0, 1e-312, 2.0)
    # the second row is a lossless uncoupled ring, a subnormal detune away
    # from its pole at 0 GHz
    with pytest.raises(SingularityError, match="resonance at 0 GHz"):
        rows(column(*kappas), column(0.95, 1.0, 1.0), column(*detunes))
    amplitudes = (0.95, 0.9, 1.0)           # no row has unit loop gain
    batch = rows(column(*kappas), column(*amplitudes), column(*detunes))
    for i, setting in enumerate(zip(kappas, amplitudes, detunes)):
        assert batch[..., i, :].tobytes() == rows(*setting).tobytes()


@pytest.mark.parametrize("response", [kernels.h_phase_shifter,
                                      kernels.h_tunable_coupler])
def test_a_flat_column_names_its_nan_row_or_equals_its_float_calls(response):
    two_pi = kernels.TWO_PI
    phases = [0.0, 5e-324, 1e-9, 1.0, math.nextafter(math.pi, 0.0), math.pi,
              math.nextafter(math.pi, 4.0), 4.5, math.nextafter(two_pi, 0.0),
              two_pi]
    batch = np.array(response(np.array(phases)[:, None]))
    for i, phase in enumerate(phases):
        assert batch[..., i, :].tobytes() == np.array(response(phase)).tobytes()
    with pytest.raises(DomainError) as float_error:
        response(math.nan)
    message = f"^{re.escape(str(float_error.value))}$"
    with pytest.raises(DomainError, match=message):
        response(np.array([[0.5], [math.nan], [math.inf]]))


@pytest.mark.parametrize("offsets, detune, fsr, at", [
    ([-1.0, 0.0, 1.0], 0.0, 1e-320, "-1"),            # tiny FSR
    ([-1.0, 0.0, 1.0], 1e308, 50.0, "-1"),            # huge detune
    ([0.0, 1e307, 3e307, 1e308], 0.0, 1.0, "3e+307"),  # huge offset
])
def test_phase_overflow_names_the_offset_and_the_fsr(offsets, detune, fsr,
                                                     at):
    offsets = np.array(offsets)
    calls = [lambda: kernels.ring_allpass_grid(offsets, 0.9, 0.95, fsr,
                                               detune),
             lambda: kernels.ring_adddrop_grid(offsets, 0.1, 0.1, 0.95, fsr,
                                               detune)]
    if detune == 0.0:
        calls.append(lambda: kernels.waveguide_grid(offsets, 1.0, fsr))
    for call in calls:
        # the suite turns RuntimeWarning into an error, so this also
        # checks that no NumPy warning is printed
        with pytest.raises(DomainError, match=rf"offset {re.escape(at)} GHz "
                           rf".*fsr {fsr:g} GHz"):
            call()


@pytest.mark.parametrize("offsets", [[-2.5, -0.0, 0.0, 7.25],
                                     [-1e307, -2.5, 0.0, 1e307]])
def test_phase_is_computed_as_written_where_it_is_finite(offsets):
    # the second grid is past the quick bound, so it takes the checked path
    offsets = np.array(offsets)
    ang = kernels.TWO_PI * offsets / 10.0
    want = 0.5 * (np.cos(ang) - 1j * np.sin(ang))
    got = kernels.waveguide_grid(offsets, 0.5, 10.0)
    assert got.tobytes() == want.tobytes()
