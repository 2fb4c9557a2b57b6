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
Each file is formatted a column at a time and written with one call;
a non-finite value in any column raises :class:`AnalysisError` before
the file is opened.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .circuit import CircuitResponse
from .errors import AnalysisError
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


def _format_column(values, dest, name: str) -> list[str]:
    """``format_number`` of each value; raises on a non-finite value."""
    col = np.asarray(values, dtype=float)
    if not np.isfinite(col).all():
        raise AnalysisError(
            f"cannot write CSV to {Path(dest)}: column {name} holds a "
            "non-finite value")
    return [format_number(v) for v in col.tolist()]


def _write_text(dest, text: str, what: str = "CSV") -> None:
    path = Path(dest)
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def _table_text(header: str, columns: Sequence[list[str]]) -> str:
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def write_rf_csv(response: RfResponse, dest) -> Path:
    """RF trace as ``freq_ghz,mag_db,phase_rad`` rows."""
    columns = [_format_column(values, dest, name) for name, values in zip(
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
    otherwise the port name is appended to the file stem.
    """
    ports = [port] if port is not None else sorted(response.fields)
    offsets = _format_column(response.grid.offsets_ghz, dest, "offset_ghz")
    texts = {}
    for name in ports:
        amps = response.port(name)
        target = Path(dest) if len(ports) == 1 else with_port_suffix(dest, name)
        texts[target] = _table_text(OPTICAL_HEADER, [
            offsets, _format_column(amps.real, target, "re"),
            _format_column(amps.imag, target, "im")])
    for target, text in texts.items():
        _write_text(target, text)
    return list(texts)


def write_table_csv(headers: Sequence[str], rows: Sequence[Sequence[float]],
                    dest) -> Path:
    """Generic numeric table with the same formatting rules; every row
    holds one value per header."""
    table = np.array(rows, dtype=float).reshape(len(rows), len(headers))
    columns = [_format_column(col, dest, name)
               for name, col in zip(headers, table.T)]
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
    _write_text(dest, "".join(f"{k} {format_summary_value(v)}\n"
                              for k, v in summary.items()), "summary")
    return Path(dest)
