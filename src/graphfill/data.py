"""Dataset handling: loading, normalization, windowing, missing-data injection.

Values are (T, N) float64 arrays (one feature per sensor). Two binary
(T, N) masks accompany them: `mask` marks entries the model may read, and
`eval_mask` marks entries hidden from the model but kept as ground truth
for scoring. The two are disjoint; an entry that was never measured is 0
in both. Entries that are 0 in both masks are undefined and may hold NaN.

Injection operations move entries from `mask` to `eval_mask` and satisfy
conservation: new_mask AND new_eval = 0 and new_mask OR moved = old_mask.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import MetricError, ShapeError, ValidationError

BLANK_CELLS = ("", "nan", "NaN")  # a values.csv cell that means "missing"
DEFAULT_SPLIT = (0.7, 0.1, 0.2)  # train/val/test fractions


def _as_binary(arr, name):
    arr = np.asarray(arr)
    if not np.isin(arr, (0, 1)).all():
        bad = np.argwhere(~np.isin(arr, (0, 1)))[0]
        raise ValidationError(
            f"{name} must contain only 0/1; offending entry at row {bad[0]}, "
            f"col {bad[1]}" if arr.ndim == 2 else f"{name} must contain only 0/1")
    return arr.astype(np.uint8)


@dataclass
class Stats:
    """Graph-wise normalization statistics (one mean/std across all sensors)."""
    mean: float
    std: float

    def apply(self, values):
        return (values - self.mean) / self.std

    def invert(self, values):
        return values * self.std + self.mean


@dataclass
class Dataset:
    values: np.ndarray            # (T, N) float64
    mask: np.ndarray              # (T, N) uint8, 1 = model may read
    eval_mask: np.ndarray = None  # (T, N) uint8, 1 = held out for scoring
    timestamps: np.ndarray = None  # (T,) integer step index
    stats: Stats = None
    columns: list = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"values must be (T, N), got shape {self.values.shape}")
        self.mask = _as_binary(self.mask, "mask")
        if self.mask.shape != self.values.shape:
            raise ShapeError(
                f"mask shape {self.mask.shape} != values shape {self.values.shape}")
        if self.eval_mask is None:
            self.eval_mask = np.zeros_like(self.mask)
        self.eval_mask = _as_binary(self.eval_mask, "eval mask")
        if self.eval_mask.shape != self.values.shape:
            raise ShapeError(
                f"eval mask shape {self.eval_mask.shape} != values "
                f"shape {self.values.shape}")
        if np.any(self.mask & self.eval_mask):
            raise ValidationError("mask and eval mask overlap")
        defined = (self.mask | self.eval_mask).astype(bool)
        if not np.all(np.isfinite(self.values[defined])):
            raise ValidationError("non-finite value at a position marked as measured")
        if self.timestamps is None:
            self.timestamps = np.arange(self.values.shape[0], dtype=np.intp)
        self.timestamps = np.asarray(self.timestamps, dtype=np.intp)
        if not self.columns:
            self.columns = [f"s{j}" for j in range(self.values.shape[1])]

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    def replace(self, **kw):
        return replace(self, **kw)

    def rows(self, sl):
        """The steps in slice `sl`, with the same stats and columns."""
        return self.replace(values=self.values[sl], mask=self.mask[sl],
                            eval_mask=self.eval_mask[sl],
                            timestamps=self.timestamps[sl])

    def window(self, start, width) -> SpatioTemporalWindow:
        """Steps start:start+width as a window of views into this dataset."""
        sl = slice(start, start + width)
        return SpatioTemporalWindow(values=self.values[sl], mask=self.mask[sl],
                                    eval_mask=self.eval_mask[sl],
                                    step_offsets=self.timestamps[sl])


@dataclass
class SpatioTemporalWindow:
    """A W-step slice of a dataset, with absolute step offsets and, for a
    subset of the sensors, absolute node ids.

    Positions with mask=1 form the observed set (value + position known);
    the rest form the target set the model must fill in. eval_mask flags
    which targets carry hidden ground truth for scoring.
    """
    values: np.ndarray        # (W, N)
    mask: np.ndarray          # (W, N)
    eval_mask: np.ndarray     # (W, N)
    step_offsets: np.ndarray  # (W,) absolute step indices
    nodes: np.ndarray | None = None  # (N,) node id of each column; None: 0..N-1

    @property
    def width(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]


def load_dataset(values_csv, mask_csv=None) -> Dataset:
    """Read a values grid (header row of sensor ids, T data rows x N cols).

    Blank cells and NaN mean "missing" and produce mask=0 unless a 0/1
    mask CSV of the same shape is supplied, in which case the mask file
    wins and blanks must all fall at mask=0.
    """
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
    """Read a headerless numeric grid (a mask or a distance matrix).

    A ragged row or a cell that is not a number is a ValidationError
    naming the file, the row and the column.
    """
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
    """The error naming the first cell of `row` that `parse` rejects.

    `row` is line `line` of CSV `path`; parse(cell, column) raises
    ValueError on a bad cell, columns counting from 1. Readers call this
    only after their own parse of the row failed, so reading a good file
    checks no cell twice.
    """
    for col, cell in enumerate(row, start=1):
        try:
            parse(cell, col)
        except ValueError as exc:
            return ValidationError(f"{path}: row {line}, column {col}: {exc}")


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """A text file to write that replaces `path` only once it is complete.

    It is written under a temporary name in the same directory and moved
    over `path` with os.replace on success. On failure it is removed, and
    `path` keeps its old contents.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_grid_csv(path, arr, header=None, fmt="%.17g"):
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        for row in np.asarray(arr):
            writer.writerow([fmt % x if isinstance(x, float) or
                             np.issubdtype(type(x), np.floating) else str(x)
                             for x in row])


def split_slices(n_steps, fracs=DEFAULT_SPLIT):
    """Sequential train/val/test slices by step index.

    Cumulative boundaries are rounded to 9 decimals before flooring, so a
    float sum such as (0.7 + 0.1) * 40 = 31.999999999999996 gives 32.
    """
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValidationError(f"split fractions must sum to 1, got {fracs}")
    a = int(np.floor(round(fracs[0] * n_steps, 9)))
    b = int(np.floor(round((fracs[0] + fracs[1]) * n_steps, 9)))
    return slice(0, a), slice(a, b), slice(b, n_steps)


def normalize(dataset: Dataset, train_slice=None):
    """Standardize to zero mean / unit variance, graph-wise.

    Statistics come only from mask=1 entries inside train_slice (default:
    all steps) and are applied to every defined entry. Returns the
    normalized dataset (stats attached) and the Stats.
    """
    sl = train_slice if train_slice is not None else slice(None)
    sub_values = dataset.values[sl]
    sub_mask = dataset.mask[sl].astype(bool)
    picked = sub_values[sub_mask]
    if picked.size < 2:
        raise ValidationError(
            f"need at least 2 valid training entries to normalize, got {picked.size}")
    mean = float(picked.mean())
    std = float(picked.std())
    if std == 0.0:
        raise ValidationError("zero variance over valid training entries; "
                              "cannot standardize a constant signal")
    stats = Stats(mean=mean, std=std)
    defined = (dataset.mask | dataset.eval_mask).astype(bool)
    values = dataset.values.copy()
    values[defined] = stats.apply(values[defined])
    return dataset.replace(values=values, stats=stats), stats


def make_windows(dataset: Dataset, width: int, stride: int):
    """Windows at offsets 0, stride, 2*stride, ... (full width only), as views."""
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if width < 1 or width > dataset.n_steps:
        raise ValidationError(
            f"window width {width} must lie in [1, {dataset.n_steps}]")
    return [dataset.window(start, width)
            for start in range(0, dataset.n_steps - width + 1, stride)]


def _move_to_eval(mask, eval_mask, drop):
    """Move `drop` positions (boolean, subset of mask) into the eval mask."""
    new_mask = mask.astype(np.uint8) & ~drop.astype(np.uint8)
    new_eval = eval_mask.astype(np.uint8) | drop.astype(np.uint8)
    return new_mask, new_eval


def inject_point_missing(mask, rate=0.25, rng=None):
    """Independently hide each valid entry with probability `rate`."""
    if not (0.0 <= rate < 1.0):
        raise ValidationError(f"point-missing rate must lie in [0, 1), got {rate}")
    rng = np.random.default_rng(rng)
    mask = np.asarray(mask, dtype=np.uint8)
    drop = (rng.random(mask.shape) < rate) & (mask == 1)
    return _move_to_eval(mask, np.zeros_like(mask), drop)


def inject_block_missing(mask, point_rate=0.05, failure_prob=0.0015,
                         len_min=12, len_max=48, rng=None):
    """Simulate sensor failures: per (step, node), with probability
    failure_prob a failure starts and lasts S ~ U{len_min..len_max} steps,
    hiding that node's valid entries over [step, step+S); overlapping
    failures merge. On top of that, hide point_rate of the remaining
    valid entries. Everything hidden (and originally valid) becomes an
    evaluation target.
    """
    if not (0.0 <= point_rate < 1.0):
        raise ValidationError(f"point rate must lie in [0, 1), got {point_rate}")
    if len_min > len_max or len_min < 1:
        raise ValidationError(f"bad failure length range [{len_min}, {len_max}]")
    rng = np.random.default_rng(rng)
    mask = np.asarray(mask, dtype=np.uint8)
    n_steps, n_nodes = mask.shape
    failed = np.zeros_like(mask, dtype=bool)
    starts = rng.random(mask.shape) < failure_prob
    lengths = rng.integers(len_min, len_max + 1, size=mask.shape)
    for t, j in np.argwhere(starts):
        failed[t:t + lengths[t, j], j] = True
    drop = failed & (mask == 1)
    remaining = (mask == 1) & ~drop
    drop |= (rng.random(mask.shape) < point_rate) & remaining
    return _move_to_eval(mask, np.zeros_like(mask), drop)


def inject_sparsity_sweep(mask, p, rng=None):
    """Remove each valid observation independently with probability p."""
    if not (0.0 <= p < 1.0):
        raise ValidationError(f"sparsity level p must lie in [0, 1), got {p}")
    return inject_point_missing(mask, rate=p, rng=rng)


WHITEN_LEVELS = (0.2, 0.5, 0.8)


def training_whiten(window: SpatioTemporalWindow, rng=None, p=None):
    """Self-supervision masks for one training window.

    Draws p uniformly from {0.2, 0.5, 0.8} (unless given) and hides that
    fraction of the window's valid entries — round to nearest, at least
    one — from the model input, marking them as loss targets instead.
    Entries held out for evaluation are absent from the window mask
    already, so they can appear in neither output.

    Returns (input_mask, loss_mask), disjoint, union = window.mask.
    """
    rng = np.random.default_rng(rng)
    if p is None:
        p = WHITEN_LEVELS[rng.integers(len(WHITEN_LEVELS))]
    valid = np.argwhere(window.mask == 1)
    if len(valid) == 0:
        raise ValidationError("cannot whiten a window with no valid entries")
    n_hide = max(1, int(np.floor(p * len(valid) + 0.5)))
    n_hide = min(n_hide, len(valid))
    chosen = valid[rng.choice(len(valid), size=n_hide, replace=False)]
    loss_mask = np.zeros_like(window.mask)
    loss_mask[chosen[:, 0], chosen[:, 1]] = 1
    input_mask = window.mask & ~loss_mask
    return input_mask, loss_mask


def mae(predictions, truth, eval_mask):
    """Mean absolute error over eval_mask=1 positions."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    eval_mask = np.asarray(eval_mask)
    if predictions.shape != truth.shape or predictions.shape != eval_mask.shape:
        raise ShapeError(
            f"shape mismatch: predictions {predictions.shape}, truth "
            f"{truth.shape}, eval mask {eval_mask.shape}")
    sel = eval_mask == 1
    if not np.any(sel):
        raise MetricError("mean absolute error over an empty evaluation set")
    return float(np.mean(np.abs(predictions[sel] - truth[sel])))
