"""Deterministic CSV output: fixed 17-significant-digit formatting.

17 significant digits round-trip IEEE doubles exactly, so a file written
twice from the same arrays is byte-identical and a re-read reproduces the
values bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv", "read_csv"]


def write_csv(path, header, columns) -> None:
    """Write named columns; all columns must share one length.

    Every value is written as "%.17g" of its double; rows are formatted
    one at a time, so no copy of the table is built in memory.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    nrows = {len(c) for c in columns}
    if len(columns) > 0 and len(nrows) != 1:
        raise ValueError("columns must share one length")
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(header) + "\n")
        f.writelines(row_format % row for row in zip(*columns))


def read_csv(path):
    """Read back a CSV written by :func:`write_csv` -> (header, columns)."""
    with open(path, "r", encoding="ascii") as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    if not rows:
        return header, [np.empty(0) for _ in header]
    columns = [np.array(col) for col in zip(*rows)]
    return header, columns
