"""Fixed on-disk formats: numeric tables (CSV and gnuplot .dat) and JSON summaries.

Every table goes through ``write_table``, which writes floats with repr
(shortest round-trip form), so identical runs produce byte-identical files.
``write_columns_dat`` copies columns of such a table as text, which gives
the bytes that parsing and rewriting them would.  Both stream _CHUNK_ROWS
rows at a time and write each chunk with one C-level ``join``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

__all__ = [
    "write_table",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_columns_dat",
    "write_json",
    "read_json",
]


_CHUNK_ROWS = 512  # table rows converted and written per write call


def write_table(path: str | Path, header: str, columns, sep: str = ",") -> None:
    """Header line, then one line per row of the equal-length columns.

    ``tolist()`` turns each column into Python numbers, so floats print as
    their shortest round-trip repr and int columns stay ints.  Each chunk
    of _CHUNK_ROWS rows is one ``map(repr)`` per column and one ``join``.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            fields = [map(repr, c[start : start + _CHUNK_ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(sep.join, zip(*fields))) + "\n")


def write_trajectory_csv(path: str | Path, record) -> None:
    """Columns: t, xi_norm (the decay norm), h_norm, mean_y, mean_z, w_1..w_N if closed loop."""
    amps = record.control_amplitudes.T
    header = "t,xi_norm,h_norm,mean_y,mean_z"
    header += "".join(f",w_{j + 1}" for j in range(len(amps)))
    columns = [
        record.times,
        record.xi_norms,
        record.h_norms,
        record.mean_y,
        record.mean_z,
        *amps,
    ]
    write_table(path, header, columns)


def read_trajectory_csv(path: str | Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, j] for j, name in enumerate(names)}


def write_columns_dat(csv_path: str | Path, dat_path: str | Path, names) -> None:
    """Gnuplot .dat of the named columns of a CSV table, header ``# name ...``.

    The fields are copied as text: ``write_table`` already wrote them as
    shortest round-trip reprs, so parsing them would give them back unchanged.
    Each chunk of _CHUNK_ROWS lines is one flat list of picked fields (no row
    list kept, so no collector work), one ``float`` pass and one ``join``.  A
    bad field raises ValueError and a short row IndexError.  The rows go to a
    temporary file that replaces dat_path only once every row is copied.
    """
    tmp = Path(f"{dat_path}.tmp")
    try:
        with open(csv_path) as src, open(tmp, "w") as dst:
            header = src.readline().rstrip("\n").split(",")
            picks = [header.index(name) for name in names]
            # fields past the last picked column are never split apart
            stop = max(picks, default=-1) + 1
            dst.write("# " + " ".join(names) + "\n")
            pick = itemgetter(*picks) if len(picks) > 1 else lambda fields: (fields[picks[0]],)
            while lines := list(islice(src, _CHUNK_ROWS)):
                rows = (line.rstrip("\n").split(",", stop) for line in lines)
                flat = list(chain.from_iterable(map(pick, rows)))
                deque(map(float, flat), maxlen=0)
                dst.write("\n".join(map(" ".join, zip(*[iter(flat)] * len(picks)))) + "\n")
        os.replace(tmp, dat_path)
    finally:
        tmp.unlink(missing_ok=True)


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        # a numeric array's tolist() already holds Python numbers, nested by axis
        return value.tolist() if value.dtype != object else _jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
