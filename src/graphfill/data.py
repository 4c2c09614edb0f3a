"""Dataset handling: loading, normalization, windowing, missing-data injection.

Values are (T, N) float64 arrays (one feature per sensor). Two bool
(T, N) masks accompany them: `mask` marks entries the model may read, and
`eval_mask` marks entries hidden from the model but kept as ground truth
for scoring. The two are disjoint; an entry that was never measured is
False in both. Entries that are False in both masks are undefined and may
hold NaN. A mask may enter as 0/1 of any dtype or as bool; `_as_binary`
checks and converts it where it enters, and code past it reads bool.

Injection operations move entries from `mask` to `eval_mask` and satisfy
conservation: new_mask AND new_eval = False and new_mask OR moved = old_mask.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeError, ValidationError

BLANK_CELLS = ("", "nan", "NaN")  # a values.csv cell that means "missing"
DEFAULT_SPLIT = (0.7, 0.1, 0.2)  # train/val/test fractions


def _as_binary(arr, name):
    """`arr` as a bool mask: a bool array comes back as it is; any other
    must hold only 0 and 1, and a ValidationError names its first other cell."""
    arr = np.asarray(arr)
    if arr.dtype == bool:
        return arr
    binary = (arr == 0) | (arr == 1)
    if not binary.all():
        bad = np.argwhere(~binary)[0]
        raise ValidationError(
            f"{name} must contain only 0/1; offending entry at row {bad[0]}, "
            f"col {bad[1]}" if arr.ndim == 2 else f"{name} must contain only 0/1")
    return arr == 1


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
    mask: np.ndarray              # (T, N) bool, True = model may read
    eval_mask: np.ndarray = None  # (T, N) bool, True = held out for scoring
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
        defined = self.mask | self.eval_mask
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

    def rows(self, sl):
        """The steps in slice `sl`, with the same stats and columns."""
        return replace(self, values=self.values[sl], mask=self.mask[sl],
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

    Positions where mask is True form the observed set (value and position
    known); the rest form the target set the model must fill in. eval_mask
    flags which targets carry hidden ground truth for scoring.
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


def _value_cell(cell):
    """A values.csv cell: a float, or NaN for a blank or `nan` cell."""
    return np.nan if cell.strip() in BLANK_CELLS else float(cell)


def _mask_cell(cell):
    """A mask cell: any number equal to 0 or 1."""
    x = float(cell)
    if x != 0.0 and x != 1.0:
        raise ValueError(f"{cell!r} is not 0 or 1")
    return x


def _distance_cell(cell):
    """A distance cell: a float that is not NaN (inf means "no edge")."""
    x = float(cell)
    if x != x:
        raise ValueError(f"{cell!r} is not a distance")
    return x


def read_csv(path, rule, header=False):
    """(header, rows, lines) of the CSV file `path`, each cell parsed by `rule`.

    Blank lines are skipped, before the header too. `header` is False for
    a headerless grid, True when the first line holds column names, or
    the tuple of names it must hold. The header, or else the first row, sets the row width.
    `rule` parses one cell and raises ValueError on a bad one; a tuple of
    rules gives one per column. lines[k] is the physical line of rows[k].
    A ragged row or a rejected cell raises a ValidationError naming the
    file, the line (counting from 1, the header and blank lines included)
    and, for a cell, the column (counting from 1).
    """
    rows, lines = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        names = next(filter(None, reader), None) if header else None
        if header and names is None:
            raise ValidationError(f"{path} is empty")
        if isinstance(header, tuple) and [h.strip() for h in names] != list(header):
            raise ValidationError(
                f"{path}: row 1: the header must be {','.join(header)!r}")
        rules = None if names is None else _column_rules(rule, len(names))
        for row in reader:
            if not row:
                continue
            if rules is None:
                rules = _column_rules(rule, len(row))
            if len(row) != len(rules):
                raise ValidationError(f"{path}: row {reader.line_num} has "
                                      f"{len(row)} cells, expected {len(rules)}")
            try:
                rows.append([parse(cell) for parse, cell in zip(rules, row)])
            except ValueError:  # only a failing row is parsed cell by cell
                for col, (parse, cell) in enumerate(zip(rules, row), start=1):
                    try:
                        parse(cell)
                    except ValueError as exc:
                        raise ValidationError(f"{path}: row {reader.line_num}, "
                                              f"column {col}: {exc}") from None
            lines.append(reader.line_num)
    return names, rows, lines


def _column_rules(rule, width):
    return rule if isinstance(rule, tuple) else (rule,) * width


def load_dataset(values_csv, mask_csv=None) -> Dataset:
    """Read a values grid (header row of sensor ids, T data rows x N cols).

    Blank cells and NaN mean "missing" and produce mask=0 unless a 0/1
    mask CSV of the same shape is supplied, in which case the mask file
    wins and blanks must all fall at mask=0.
    """
    header, rows, _ = read_csv(values_csv, _value_cell, header=True)
    if not rows:
        raise ValidationError(f"{values_csv} has a header but no data rows")
    values = np.asarray(rows, dtype=np.float64)
    mask = np.isfinite(values)
    if mask_csv is not None:
        _, rows, lines = read_csv(mask_csv, _mask_cell)
        given = np.asarray(rows, dtype=bool)
        if given.shape != values.shape:
            raise ValidationError(f"{mask_csv}: mask has shape {given.shape}, "
                                  f"but {values_csv} has {values.shape}")
        if np.any(given & ~mask):
            t, j = np.argwhere(given & ~mask)[0]
            raise ValidationError(
                f"{mask_csv}: row {lines[t]}, column {j + 1}: marked valid, "
                f"but {values_csv} has no finite value there")
        mask = given
    return Dataset(values=values, mask=mask, columns=[h.strip() for h in header])


def load_grid_csv(path) -> np.ndarray:
    """Read a headerless distance matrix; a NaN cell is a ValidationError."""
    _, rows, _ = read_csv(path, _distance_cell)
    if not rows:
        raise ValidationError(f"{path} is empty")
    return np.asarray(rows, dtype=np.float64)


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """A text file to write that replaces `path` only once it is complete.

    It is written under a temporary name in the same directory and moved
    over `path` with os.replace on success. On failure it is removed, and
    `path` keeps its old contents; an OSError names `path`, not the
    temporary name.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename == tmp:
            exc.filename, exc.filename2 = path, None
        raise
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_grid_csv(path, arr, header=None):
    """Write a grid: %.17g cells (an exact round trip) if float, else str."""
    arr = np.asarray(arr)
    cell = "%.17g".__mod__ if np.issubdtype(arr.dtype, np.floating) else str
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        for row in arr:
            writer.writerow(map(cell, row.tolist()))


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

    Statistics come only from observed (mask) entries inside train_slice
    (default: all steps) and are applied to every defined entry. Returns
    the normalized dataset (stats attached) and the Stats.
    """
    sl = train_slice if train_slice is not None else slice(None)
    picked = dataset.values[sl][dataset.mask[sl]]
    if picked.size < 2:
        raise ValidationError(
            f"need at least 2 valid training entries to normalize, got {picked.size}")
    # The stats come from the values scaled by a power of two that brings
    # the largest into [0.5, 1), then are scaled back. That is exact, so
    # ordinary data gives the same bits, and squares neither overflow (one
    # 1e160 cell) nor underflow (a series of order 1e-300). Both stats are
    # then finite: neither exceeds the largest |value|.
    _, exp = np.frexp(np.max(np.abs(picked)))
    scaled = np.ldexp(picked, -exp)
    mean = float(np.ldexp(scaled.mean(), exp))
    std = float(np.ldexp(scaled.std(), exp))
    if std == 0.0:
        raise ValidationError("zero variance over valid training entries; "
                              "cannot standardize a constant signal")
    stats = Stats(mean=mean, std=std)
    defined = dataset.mask | dataset.eval_mask
    values = dataset.values.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        values[defined] = stats.apply(values[defined])
    if not np.isfinite(values[defined]).all():
        raise ValidationError(f"values span too wide a range to standardize "
                              f"(mean {mean!r}, std {std!r})")
    return replace(dataset, values=values, stats=stats), stats


def make_windows(dataset: Dataset, width: int, stride: int):
    """Windows at offsets 0, stride, 2*stride, ... (full width only), as views."""
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if width < 1 or width > dataset.n_steps:
        raise ValidationError(
            f"window width {width} must lie in [1, {dataset.n_steps}]")
    return [dataset.window(start, width)
            for start in range(0, dataset.n_steps - width + 1, stride)]


def inject_point_missing(mask, rate=0.25, rng=None):
    """Independently hide each valid entry with probability `rate`."""
    if not (0.0 <= rate < 1.0):
        raise ValidationError(f"point-missing rate must lie in [0, 1), got {rate}")
    mask = _as_binary(mask, "mask")
    drop = (np.random.default_rng(rng).random(mask.shape) < rate) & mask
    return mask & ~drop, drop


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
    mask = _as_binary(mask, "mask")
    rng = np.random.default_rng(rng)
    failed = np.zeros_like(mask)
    starts = rng.random(mask.shape) < failure_prob
    lengths = rng.integers(len_min, len_max + 1, size=mask.shape)
    for t, j in np.argwhere(starts):
        failed[t:t + lengths[t, j], j] = True
    drop = failed & mask
    drop |= (rng.random(mask.shape) < point_rate) & mask & ~drop
    return mask & ~drop, drop


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
    mask = _as_binary(window.mask, "window mask")
    rng = np.random.default_rng(rng)
    if p is None:
        p = WHITEN_LEVELS[rng.integers(len(WHITEN_LEVELS))]
    valid = np.argwhere(mask)
    if len(valid) == 0:
        raise ValidationError("cannot whiten a window with no valid entries")
    n_hide = max(1, int(np.floor(p * len(valid) + 0.5)))
    n_hide = min(n_hide, len(valid))
    chosen = valid[rng.choice(len(valid), size=n_hide, replace=False)]
    loss_mask = np.zeros_like(mask)
    loss_mask[chosen[:, 0], chosen[:, 1]] = True
    return mask & ~loss_mask, loss_mask

