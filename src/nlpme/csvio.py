"""Deterministic tabular output: CSV for small tables, .npy for matrices.

CSV values use fixed 17-significant-digit formatting: 17 digits
round-trip IEEE doubles exactly, so a file written twice from the same
arrays is byte-identical and a re-read reproduces the values bit for bit.

A large matrix (the snapshot matrix of a density run) is written as a
float64 `.npy` instead, whose bytes are the doubles themselves: no
formatting cost, the same bit-exactness and byte-identity, and a third of
the size of its CSV.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv", "read_csv", "write_npy_columns"]


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


def write_npy_columns(path, columns) -> None:
    """Write k equal-length columns as one (n, k) float64 `.npy` matrix.

    The matrix is stored in Fortran order, so the file body is the
    columns' bytes one after another: the header is written, then each
    column in turn, and the stacked matrix is never built in memory.
    `numpy.load` returns `np.column_stack(columns)` bit for bit.
    """
    columns = [np.ascontiguousarray(c, dtype="<f8") for c in columns]
    if not columns:
        raise ValueError("need at least one column")
    if any(c.ndim != 1 for c in columns) or len({c.size for c in columns}) != 1:
        raise ValueError("columns must be 1-d and share one length")
    header = {"descr": "<f8", "fortran_order": True,
              "shape": (columns[0].size, len(columns))}
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(f, header)
        for c in columns:
            c.tofile(f)
