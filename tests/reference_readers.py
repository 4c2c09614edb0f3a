"""The CSV readers as they stood before they were merged into one.

`graphfill.data.read_csv` now reads every input grid: values, masks,
distances and edge lists. These are the three loops it replaced, with
the helper that blamed a bad cell, kept so that tests can check that
every file loads to the same arrays as before, or is rejected as before.
"""

from __future__ import annotations

import csv

import numpy as np

from graphfill.data import Dataset
from graphfill.errors import ValidationError
from graphfill.graph import SensorGraph

BLANK_CELLS = ("", "nan", "NaN")


def _as_binary(arr, name):
    arr = np.asarray(arr)
    if not np.isin(arr, (0, 1)).all():
        bad = np.argwhere(~np.isin(arr, (0, 1)))[0]
        raise ValidationError(
            f"{name} must contain only 0/1; offending entry at row {bad[0]}, "
            f"col {bad[1]}" if arr.ndim == 2 else f"{name} must contain only 0/1")
    return arr.astype(np.uint8)


def load_dataset(values_csv, mask_csv=None) -> Dataset:
    rows = []
    with open(values_csv, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{values_csv} is empty")
        n = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n:
                raise ValidationError(
                    f"{values_csv}: row {lineno} has {len(row)} cells, expected {n}")
            try:
                rows.append([float(c) if c.strip() not in BLANK_CELLS else np.nan
                             for c in row])
            except ValueError:
                raise cell_error(values_csv, lineno, row, lambda cell, _: (
                    cell.strip() in BLANK_CELLS or float(cell))) from None
    if not rows:
        raise ValidationError(f"{values_csv} has a header but no data rows")
    values = np.asarray(rows, dtype=np.float64)
    observed = np.isfinite(values).astype(np.uint8)
    if mask_csv is None:
        mask = observed
    else:
        mask = load_grid_csv(mask_csv)
        if mask.shape != values.shape:
            raise ValidationError(f"mask file {mask_csv} has shape {mask.shape}, "
                                  f"expected {values.shape}")
        mask = _as_binary(mask, f"mask file {mask_csv}")
        if np.any(mask & ~observed):
            t, j = np.argwhere(mask & ~observed)[0]
            raise ValidationError(
                f"mask file {mask_csv} marks row {t}, col {j} as valid but the "
                f"value cell is blank")
    return Dataset(values=values, mask=mask, columns=[h.strip() for h in header])


def load_grid_csv(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ValidationError(
                    f"{path}: row {reader.line_num} has {len(row)} cells, "
                    f"expected {len(rows[0])}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise cell_error(path, reader.line_num, row,
                                 lambda cell, _: float(cell)) from None
    if not rows:
        raise ValidationError(f"{path} is empty")
    return np.asarray(rows, dtype=np.float64)


def cell_error(path, line, row, parse) -> ValidationError:
    for col, cell in enumerate(row, start=1):
        try:
            parse(cell, col)
        except ValueError as exc:
            return ValidationError(f"{path}: row {line}, column {col}: {exc}")


def load_edges_csv(path, n_nodes: int) -> SensorGraph:
    edges = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["src", "dst", "weight"]:
            raise ValidationError(
                f"edge file {path} must start with header 'src,dst,weight'")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(
                    f"{path}: row {reader.line_num} has {len(row)} cells, expected 3")
            try:
                edges.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError:
                raise cell_error(path, reader.line_num, row, lambda cell, col: (
                    int(cell) if col < 3 else float(cell))) from None
    try:
        return SensorGraph(n_nodes, edges)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
