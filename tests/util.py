"""Minimal independent reference implementations used as test oracles."""

import csv

import numpy as np

from infosel.data import DataError, RawTable


def ref_entropy(*cols) -> float:
    """Plug-in joint entropy in bits, straight from observed tuple counts."""
    stacked = np.column_stack([np.asarray(c) for c in cols])
    _, counts = np.unique(stacked, axis=0, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def ref_mi(a_cols, b_cols) -> float:
    return ref_entropy(*a_cols) + ref_entropy(*b_cols) - ref_entropy(*a_cols, *b_cols)


def ref_cmi(a_cols, b_cols, z_cols) -> float:
    if not z_cols:
        return ref_mi(a_cols, b_cols)
    return ref_mi(list(a_cols) + list(z_cols), b_cols) - ref_mi(z_cols, b_cols)


def columns(ds, idxs):
    """Feature columns by index, with -1 meaning the target column."""
    return [ds.target if j == -1 else ds.codes[:, j] for j in idxs]


def ref_load_csv(path, target_name: str) -> RawTable:
    """The whole-file loader: every row read into a list of cell strings first."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file (no header row)") from None
        rows = list(reader)
    if not rows:
        raise DataError("empty table (header only)")
    header = [h.strip() for h in header]
    dupes = sorted({h for h in header if header.count(h) > 1})
    if dupes:
        raise DataError(f"duplicate header names {dupes}")
    if target_name not in header:
        raise DataError(f"target column {target_name!r} not in header {header}")
    width = len(header)
    cells: list[list[str]] = [[] for _ in header]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 2}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                raise DataError(f"missing value at row {i + 2}, column {header[j]!r}")
            cells[j].append(cell)

    kinds, columns = [], []
    for name, col in zip(header, cells):
        try:
            arr = np.array([float(c) for c in col], dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError
            kinds.append("numeric")
            columns.append(arr)
        except ValueError:
            kinds.append("categorical")
            columns.append(list(col))
    return RawTable(tuple(header), tuple(kinds), tuple(columns), target_name, len(rows))
