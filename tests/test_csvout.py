import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfshaper.blocks import FrequencyGrid
from rfshaper import csvout
from rfshaper.circuit import CircuitResponse
from rfshaper.csvout import (RF_HEADER, format_number, write_optical_csv,
                             write_rf_csv, write_summary, write_table_csv)
from rfshaper.errors import AnalysisError
from rfshaper.rflink import RfResponse


def test_format_number_examples():
    assert format_number(10.0) == "10.0000000"
    assert format_number(0.0) == "0.00000000"
    assert format_number(-0.0) == "0.00000000"
    assert format_number(1.5708) == "1.57080000"
    assert format_number(-3.25) == "-3.25000000"
    # digits that end early are padded to nine digits in all, not nine
    # significant ones
    assert format_number(0.5) == "0.50000000"
    assert format_number(3e-7) == "0.00000030"
    assert format_number(0.19016352983759946) == "0.19016353"
    assert format_number(0.1) == "0.100000000"


def test_single_point_rf_csv_bytes(tmp_path):
    path = tmp_path / "one.csv"
    write_rf_csv(RfResponse(np.array([10.0]), np.array([0.0]),
                            np.array([0.0])), path)
    assert path.read_bytes() == \
        b"freq_ghz,mag_db,phase_rad\n10.0000000,0.00000000,0.00000000\n"


def test_rf_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    resp = RfResponse(np.arange(1.0, 5.0, 0.5),
                      rng.uniform(-60, 0, 8), rng.uniform(-3, 3, 8))
    path = tmp_path / "trip.csv"
    write_rf_csv(resp, path)
    assert path.read_text().splitlines()[0] == RF_HEADER
    freqs, mag, phase = np.loadtxt(path, delimiter=",", skiprows=1).T
    np.testing.assert_allclose(freqs, resp.rf_freqs_ghz, rtol=1e-8)
    np.testing.assert_allclose(mag, resp.mag_db, rtol=1e-8)
    np.testing.assert_allclose(phase, resp.phase_rad, rtol=1e-8)


def test_csv_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    resp = RfResponse(np.arange(1.0, 30.0, 0.37),
                      rng.uniform(-300, 20, 79), rng.uniform(-9, 9, 79))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rf_csv(resp, a)
    write_rf_csv(resp, b)
    assert a.read_bytes() == b.read_bytes()


def test_optical_csv_one_file_per_port(tmp_path):
    grid = FrequencyGrid(193.4, np.array([-1.0, 0.0, 1.0]))
    resp = CircuitResponse(grid, {"bar": np.array([1j, 0.5, -1.0]),
                                  "cross": np.array([0.0, 0.5j, 1.0])})
    paths = write_optical_csv(resp, tmp_path / "deint.csv")
    assert sorted(p.name for p in paths) == ["deint_bar.csv", "deint_cross.csv"]
    text = (tmp_path / "deint_bar.csv").read_text()
    assert text.splitlines()[0] == "offset_ghz,re,im"
    assert text.splitlines()[1] == "-1.00000000,0.00000000,1.00000000"


def test_optical_csv_single_named_port(tmp_path):
    grid = FrequencyGrid(193.4, np.array([0.0]))
    resp = CircuitResponse(grid, {"bar": np.array([1.0 + 0j]),
                                  "cross": np.array([0.0 + 0j])})
    paths = write_optical_csv(resp, tmp_path / "one.csv", port="bar")
    assert [p.name for p in paths] == ["one.csv"]


def test_table_and_summary_formats(tmp_path):
    t = tmp_path / "t.csv"
    write_table_csv(("a", "b"), [(1.0, 2.0), (3.0, 4.5)], t)
    assert t.read_text() == "a,b\n1.00000000,2.00000000\n3.00000000,4.50000000\n"
    s = tmp_path / "s.txt"
    write_summary({"depth_db": 38.5, "count": 3, "ok": True, "name": "x"}, s)
    assert s.read_text() == "depth_db 38.5000000\ncount 3\nok true\nname x\n"


def test_write_error_carries_destination(tmp_path):
    missing = tmp_path / "no" / "dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_rf_csv(RfResponse(np.array([1.0]), np.array([0.0]),
                                np.array([0.0])), missing)


def per_row_text(header, rows) -> str:
    """The CSV text as defined row by row."""
    lines = [header] + [",".join(format_number(v) for v in row)
                        for row in rows]
    return "".join(line + "\n" for line in lines)


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300,
                     -1e300, 0.5, -0.375, 2.0 ** -30, 1e8, 123456789.0,
                     0.19016352983759946]))
columns = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.lists(finite, min_size=n, max_size=n),
                       min_size=3, max_size=3))


def assert_writers_match(d: Path, a, b, c):
    """Each writer's file for columns ``a``, ``b``, ``c`` equals
    ``per_row_text``."""
    write_rf_csv(RfResponse(a, b, c), d / "rf.csv")
    assert (d / "rf.csv").read_text() == per_row_text(
        "freq_ghz,mag_db,phase_rad", zip(a, b, c))

    write_table_csv(("x", "y", "z"), list(zip(a, b, c)), d / "t.csv")
    assert (d / "t.csv").read_text() == per_row_text(
        "x,y,z", zip(a, b, c))

    if a.size and np.unique(a).size == a.size:
        order = np.argsort(a)      # a grid increases strictly
        offsets, b, c = a[order], b[order], c[order]
        grid = FrequencyGrid(193.4, offsets)
        resp = CircuitResponse(grid, {"p": b + 1j * c, "q": c - 1j * b})
        paths = write_optical_csv(resp, d / "o.csv")
        assert [p.name for p in paths] == ["o_p.csv", "o_q.csv"]
        for path, amps in zip(paths, (b + 1j * c, c - 1j * b)):
            assert path.read_text() == per_row_text(
                "offset_ghz,re,im", zip(offsets, amps.real, amps.imag))


@given(columns)
@settings(max_examples=150, deadline=None)
def test_writers_match_per_row_definition(cols):
    a, b, c = (np.array(col, dtype=float) for col in cols)
    with tempfile.TemporaryDirectory() as tmp:
        assert_writers_match(Path(tmp), a, b, c)


def _ninth_digit_ties():
    """Values just either side of a tie in the ninth significant digit."""
    rng = np.random.default_rng(0)
    mantissas = rng.integers(10 ** 8, 10 ** 9, 400)
    ties = (mantissas + 0.5) * 10.0 ** rng.integers(-22, 1, 400)
    return np.concatenate([np.nextafter(ties, -np.inf), ties,
                           np.nextafter(ties, np.inf)])


def _powers_of_ten():
    powers = 10.0 ** np.arange(-15, 10)
    return np.concatenate([np.nextafter(powers, -np.inf), powers,
                           np.nextafter(powers, np.inf)])


def _offset_grids():
    return np.concatenate([lo + step * np.arange(n) for lo, step, n in [
        (-24.87, 0.01, 5001), (-29.875, 0.25, 240), (-5.0, 1e-5, 3000),
        (2.0, 0.013, 2000), (0.001, 1e-7, 1000), (-1e6, 0.3, 500)]])


FAMILIES = {
    "ninth_digit_ties": _ninth_digit_ties(),
    "decade_carries": np.array([9.9999999996, 0.99999999995, 99999999.95,
                                9.99999999949, 0.0999999999951,
                                1.99999999996, 0.0299999999996]),
    "short_dyadics": np.array([0.5, 0.25, 10.0, 0.0625, 0.75, 2.0 ** -20,
                               96.0, 1.0]),
    "powers_of_ten": _powers_of_ten(),
    "offset_grids": _offset_grids(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_writers_match_per_row_definition_on_hard_values(family, tmp_path):
    values = FAMILIES[family]
    values = np.concatenate([values, -values])
    assert_writers_match(tmp_path, values, values[::-1].copy(),
                         np.roll(values, 1))


def test_column_longer_than_a_chunk(tmp_path):
    n = csvout.CHUNK_ROWS
    a = -3.0 + 1e-4 * np.arange(n + 8)
    a[n - 1], a[n] = 0.5, 0.0       # a fallback on each side of the seam
    b = np.sin(a)
    b[[n - 2, n + 1]] = 0.25, 1e300
    assert_writers_match(tmp_path, a, b, np.cos(a))


def test_few_values_fall_back_to_format_number(tmp_path, monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return format_number(x)

    monkeypatch.setattr(csvout, "format_number", counted)
    offsets = -24.87 + 0.01 * np.arange(5001)
    grid = FrequencyGrid(193.4, offsets)
    write_optical_csv(CircuitResponse(grid, {"p": np.exp(1j * offsets)}),
                      tmp_path / "o.csv")
    assert len(calls) < 0.05 * 3 * offsets.size


def test_optical_csv_rejects_non_finite_before_writing(tmp_path):
    grid = FrequencyGrid(193.4, np.array([0.0, 1.0]))
    resp = CircuitResponse(grid, {"a": np.array([1.0, 0.5j]),
                                  "b": np.array([np.nan, np.inf + 0j])})
    with pytest.raises(AnalysisError, match=r"x_b\.csv.*column re"):
        write_optical_csv(resp, tmp_path / "x.csv")
    assert not list(tmp_path.iterdir())


def test_table_and_rf_csv_reject_non_finite(tmp_path):
    with pytest.raises(AnalysisError, match=r"t\.csv.*column b"):
        write_table_csv(("a", "b"), [(1.0, 2.0), (3.0, np.nan)],
                        tmp_path / "t.csv")
    with pytest.raises(AnalysisError, match=r"rf\.csv.*column phase_rad"):
        write_rf_csv(RfResponse(np.array([1.0]), np.array([0.0]),
                                np.array([-np.inf])), tmp_path / "rf.csv")
    assert not list(tmp_path.iterdir())
