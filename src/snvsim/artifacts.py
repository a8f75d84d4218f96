"""What a scenario run writes: CSV tables, spectra, strict JSON and summary rows.

A CSV is a header plus equal-length columns.  A column may be a list or
anything with ``tolist`` (a numpy array, say); a float column renders each
value as its ``repr``, the shortest string that round-trips, and every
line, the last included, ends in ``\\n``.  JSON is strict: a NaN or an
infinity is an error, not output: a record writes one as ``null``.

This module imports only the standard library, so the commands that write
no array load no numpy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _fmt_cell(value) -> str:
    """Deterministic CSV cell rendering (floats via repr round-trip)."""
    if hasattr(value, "item"):  # a numpy scalar
        value = value.item()
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_column(column) -> list[str]:
    """A float array through ``repr`` as a whole, any other column cell by cell.

    A float array whose values all equal a nonzero first one (a constant
    error column, say) takes one ``repr``; -0.0 equals 0.0 and NaN equals
    nothing, so those take the per-value path.
    """
    if getattr(getattr(column, "dtype", None), "kind", None) == "f":
        if len(column) and column[0] != 0 and (column == column[0]).all():
            return [repr(column[0].item())] * len(column)
        return list(map(repr, column.tolist()))
    return [_fmt_cell(cell) for cell in column]


def json_number(value: float) -> float | None:
    """``value``, or ``None`` (JSON ``null``) if it is NaN or beyond the float range."""
    return value if math.isfinite(value) else None


def write_csv(path, header, columns) -> None:
    """Write a headered CSV of equal-length columns (unequal ones are a ``ValueError``)."""
    cells = [_fmt_column(column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def write_spectrum_csv(spectrum, path) -> None:
    """Write a spectrum (``.x``, ``.y``, optional ``.y_err``) as CSV ``freq_hz,intensity[,err]``."""
    columns = [c for c in (spectrum.x, spectrum.y, spectrum.y_err) if c is not None]
    write_csv(path, ["freq_hz", "intensity", "err"][: len(columns)], columns)


def write_artifact(path: Path, payload) -> None:
    """Write one file from a ``(header, columns)`` table, a spectrum, a JSON object or text."""
    if path.suffix == ".csv":
        if isinstance(payload, tuple):
            write_csv(path, *payload)
        else:
            write_spectrum_csv(payload, path)
        return
    if path.suffix == ".json":
        try:
            payload = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
    path.write_text(payload)


def summary_row(
    quantity: str,
    simulated: float,
    paper_value: float | None,
    tolerance: float | None,
    passed: bool | None = None,
    note: str = "",
) -> dict:
    """One summary entry; pass defaults to |simulated - paper_value| <= tolerance.

    A ``simulated`` value beyond the float range, or NaN, never passes;
    ``summary.json`` writes it as ``null``.
    """
    if passed is None:
        if paper_value is None or tolerance is None:
            raise ValueError(f"{quantity}: need explicit pass when reference is open-ended")
        passed = abs(simulated - paper_value) <= tolerance
    simulated = float(simulated)
    row = {
        "quantity": quantity,
        "simulated": simulated,
        "paper_value": None if paper_value is None else float(paper_value),
        "tolerance": None if tolerance is None else float(tolerance),
        "pass": bool(passed) and math.isfinite(simulated),
    }
    if note:
        row["note"] = note
    return row
