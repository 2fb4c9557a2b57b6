"""Deterministic CSV emission for swept responses.

Numbers are rounded to nine significant digits and written in plain
positional notation, never with an exponent, by
``np.format_float_positional(x, precision=9, unique=False,
fractional=False, trim="k")``.  The digits of a value that is exact in
fewer digits, or whose rounding carries into zeros, end early; zeros are
then appended only until nine digits are written in all, counting the
integer part (a lone leading ``0`` counts).  So ``0.1`` is written
``0.100000000`` but ``0.5`` is ``0.50000000``, ``3e-7`` is
``0.00000030``, ``0.19016352983759946`` is ``0.19016353`` and ``10.0``
is ``10.0000000``; a value that rounds to 1e8 or more ends in a bare
point (``123456789.``).  ``0.0`` and ``-0.0`` are both ``0.00000000``.
Equal inputs always produce byte-identical files (LF line endings).

:func:`format_number` is that definition, and it formats the summaries.
The CSV writers format each column in NumPy instead, ``CHUNK_ROWS``
values at a time, to the same bytes; a value whose digits the NumPy
estimate cannot decide for certain falls back to :func:`format_number`.
Each file is written as bytes with one call; a non-finite value in any
column raises :class:`AnalysisError` before the file is opened.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .circuit import CircuitResponse
from .errors import AnalysisError, io_context
from .rflink import RfResponse

RF_HEADER = "freq_ghz,mag_db,phase_rad"
OPTICAL_HEADER = "offset_ghz,re,im"


def format_number(x: float) -> str:
    """Nine-significant-digit positional decimal; see the module
    docstring for where the trailing zeros stop."""
    x = float(x)
    if x == 0.0:               # normalise -0.0 for byte determinism
        return "0.00000000"
    return np.format_float_positional(x, precision=9, unique=False,
                                      fractional=False, trim="k")


# Columns are formatted in NumPy, CHUNK_ROWS values at a time.  With
# e = floor(log10|x|), q = |x| * 10**(8 - e) holds the nine significant
# digits left of its point; the power of ten is exact for 8 - e <= 22, so
# q carries one rounding, under 1.1e-7 for q < 1e9.  A value whose digits
# that error could change goes to format_number: a zero, an e out of
# range, a q within _DELTA of 1e8 or past 1e9 - 1 (a carry into the next
# decade), a fraction within _DELTA of one half, or, below 1, digits
# ending in 0 with a fraction within _DELTA of 0 (they may be exact).
CHUNK_ROWS = 65_536
_DELTA = 1e-6
_E_MIN, _E_MAX = -14, 8
_POW10 = np.array([float(10 ** k) for k in range(23)])
_PLACES = 10 ** np.arange(8, -1, -1, dtype=np.int64)
# each value's source bytes are b"-0." and then its nine digits;
# _LAYOUT[negative, e - _E_MIN] lists them in the order they are written
_SOURCE = 12


def _layouts() -> np.ndarray:
    digits = list(range(3, _SOURCE))
    longest = len("-0.") + (-_E_MIN - 1) + 9
    layout = np.ones((2, _E_MAX - _E_MIN + 1, longest), dtype=np.int32)
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:      # the nine digits, with the point after digit e + 1
            body = digits[:e + 1] + [2] + digits[e + 1:]
        else:           # 0., then -e - 1 zeros, then the digits
            body = [1, 2] + [1] * (-e - 1) + digits
        layout[0, e - _E_MIN, :len(body)] = body
        layout[1, e - _E_MIN, :len(body) + 1] = [0] + body
    return layout


_LAYOUT = _layouts()


def _format_chunk(col: np.ndarray) -> list[bytes]:
    """``format_number`` of each value of a finite column, as bytes."""
    mag = np.abs(col)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(mag))
    fast = (e >= _E_MIN) & (e <= _E_MAX)
    e = np.where(fast, e, 0).astype(np.intp)
    q = np.where(fast, mag, 0.0) * _POW10[8 - e]
    whole = np.floor(q)
    frac = q - whole
    up = frac > 0.5
    n = whole.astype(np.int64) + up
    below_one = e < 0
    fast &= ((q >= 1e8 + _DELTA) & (q <= 1e9 - 1)
             & (abs(frac - 0.5) > _DELTA)
             & ~(below_one & (n % 10 == 0) & (frac <= _DELTA)))
    # the zeros a carry leaves end the digits early; below 1 the text then
    # has max(8, digits - e - 1) fraction digits, and 9 digits otherwise
    digits = 9 - (up[:, None] & (n[:, None] % _PLACES[:-1] == 0)).sum(axis=1)
    negative = col < 0
    length = (np.where(below_one, 2 + np.maximum(8, digits - e - 1), 10)
              + negative)
    source = np.empty((len(col), _SOURCE), dtype=np.uint8)
    source[:, :3] = np.frombuffer(b"-0.", dtype=np.uint8)
    source[:, 3:] = n[:, None] // _PLACES % 10
    source[:, 3:] += ord("0")
    width = int(length[fast].max(initial=1))
    index = _LAYOUT[negative.view(np.int8), e - _E_MIN, :width]
    index += (_SOURCE * np.arange(len(col), dtype=np.int32))[:, None]
    cells = source.ravel().take(index)
    cells[np.arange(width) >= length[:, None]] = 0   # S drops trailing NULs
    text = cells.view(f"S{width}").ravel().tolist()
    for i in np.flatnonzero(~fast).tolist():
        text[i] = format_number(col[i]).encode()
    return text


def _column(values, dest, name: str) -> np.ndarray:
    """The values as floats; raises on a non-finite value."""
    col = np.asarray(values, dtype=float)
    if not np.isfinite(col).all():
        raise AnalysisError(
            f"cannot write CSV to {Path(dest)}: column {name} holds a "
            "non-finite value")
    return col


def _table_text(header: str, columns: Sequence[np.ndarray]) -> list[bytes]:
    """The file's bytes, formatted ``CHUNK_ROWS`` rows at a time."""
    text = [f"{header}\n".encode()]
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        cells = [_format_chunk(col[start:start + CHUNK_ROWS])
                 for col in columns]
        text.append(b"\n".join(map(b",".join, zip(*cells))) + b"\n")
    return text


def _write_text(dest, text: list[bytes], what: str = "CSV") -> None:
    path = Path(dest)
    with io_context(f"cannot write {what} to {path}"), open(path, "wb") as fh:
        fh.writelines(text)


def write_rf_csv(response: RfResponse, dest) -> Path:
    """RF trace as ``freq_ghz,mag_db,phase_rad`` rows."""
    columns = [_column(values, dest, name) for name, values in zip(
        RF_HEADER.split(","),
        (response.rf_freqs_ghz, response.mag_db, response.phase_rad))]
    _write_text(dest, _table_text(RF_HEADER, columns))
    return Path(dest)


def with_port_suffix(dest, port: str) -> Path:
    path = Path(dest)
    return path.with_name(f"{path.stem}_{port}{path.suffix or '.csv'}")


def write_optical_csv(response: CircuitResponse, dest,
                      port: str | None = None) -> list[Path]:
    """Optical response as ``offset_ghz,re,im``; one file per output port.

    With a single port (or an explicit ``port``), writes exactly ``dest``;
    otherwise the port name is appended to the file stem.  Every port is
    checked before any file is written.
    """
    ports = [port] if port is not None else sorted(response.fields)
    offsets = _column(response.grid.offsets_ghz, dest, "offset_ghz")
    tables = {}
    for name in ports:
        amps = response.port(name)
        target = Path(dest) if len(ports) == 1 else with_port_suffix(dest, name)
        tables[target] = [offsets, _column(amps.real, target, "re"),
                          _column(amps.imag, target, "im")]
    for target, columns in tables.items():
        _write_text(target, _table_text(OPTICAL_HEADER, columns))
    return list(tables)


def write_table_csv(headers: Sequence[str], rows: Sequence[Sequence[float]],
                    dest) -> Path:
    """Generic numeric table with the same formatting rules; every row
    holds one value per header."""
    table = np.array(rows, dtype=float).reshape(len(rows), len(headers))
    columns = [_column(col, dest, name) for name, col in zip(headers, table.T)]
    _write_text(dest, _table_text(",".join(headers), columns))
    return Path(dest)


def format_summary_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_number(float(v))
    return str(v)


def write_summary(summary: dict, dest) -> Path:
    """Flat ``key value`` lines, one per summary entry."""
    _write_text(dest, [f"{k} {format_summary_value(v)}\n".encode()
                       for k, v in summary.items()], "summary")
    return Path(dest)
