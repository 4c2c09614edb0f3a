"""Dataset IO, normalization, windowing, missing-data injection, whiten."""

import dataclasses
import os

import numpy as np
import pytest

from graphfill.data import (Dataset, SpatioTemporalWindow, WHITEN_LEVELS,
                            inject_block_missing, inject_point_missing,
                            inject_sparsity_sweep, load_dataset, make_windows,
                            normalize, save_grid_csv, split_slices,
                            training_whiten)
from graphfill.errors import ValidationError


def small_dataset(t=30, n=4, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(t, n)) * 2.0 + 1.0
    return Dataset(values=values, mask=np.ones((t, n), dtype=np.uint8),
                   timestamps=np.arange(t, dtype=np.float64))


def test_load_dataset_blanks_become_missing(tmp_path):
    path = os.path.join(tmp_path, "values.csv")
    with open(path, "w") as f:
        f.write("a,b,c\n1.0,,3.0\n4.0,5.0,nan\n")
    ds = load_dataset(path)
    assert ds.n_steps == 2 and ds.n_nodes == 3
    assert ds.mask.tolist() == [[1, 0, 1], [1, 1, 0]]
    assert ds.columns == ["a", "b", "c"]
    assert ds.values[0, 0] == 1.0 and np.isnan(ds.values[0, 1])


@pytest.mark.parametrize("text, shape, error", [
    ("\ns0,s1\n1,2\n", (1, 2), None),           # blank line before the header
    ("\n\n\ns0,s1\n\n1,2\n", (1, 2), None),
    ("\n", None, "values.csv is empty"),          # blank lines only
    ("\n\n\n", None, "values.csv is empty"),
    ("\ns0,s1\n1\n", None, "values.csv: row 3 has 1 cells, expected 2")],
    ids=["one blank line first", "blank lines first and after", "one blank line",
         "blank lines only", "ragged row named by its line"])
def test_load_dataset_header_after_blank_lines(tmp_path, text, shape, error):
    path = os.path.join(tmp_path, "values.csv")
    with open(path, "w") as f:
        f.write(text)
    if error is not None:
        with pytest.raises(ValidationError, match=f"{error}$"):
            load_dataset(path)
        return
    ds = load_dataset(path)
    assert ds.values.shape == shape and ds.columns == ["s0", "s1"]
    assert ds.values.tolist() == [[1.0, 2.0]]


def test_load_dataset_ragged_row_rejected(tmp_path):
    path = os.path.join(tmp_path, "values.csv")
    with open(path, "w") as f:
        f.write("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValidationError, match="row 3 has 1 cells"):
        load_dataset(path)


def test_load_dataset_mask_file_wins(tmp_path):
    vpath = os.path.join(tmp_path, "values.csv")
    mpath = os.path.join(tmp_path, "mask.csv")
    with open(vpath, "w") as f:
        f.write("a,b\n1.0,2.0\n3.0,4.0\n")
    save_grid_csv(mpath, np.array([[1, 0], [0, 1]]))
    ds = load_dataset(vpath, mpath)
    assert ds.mask.tolist() == [[1, 0], [0, 1]]
    with open(mpath, "w") as f:  # any number equal to 0 or 1 is a mask cell
        f.write("1.0, 0e0\n-0,+1\n")
    assert load_dataset(vpath, mpath).mask.tolist() == [[1, 0], [0, 1]]


def test_load_dataset_mask_marking_blank_rejected(tmp_path):
    vpath = os.path.join(tmp_path, "values.csv")
    mpath = os.path.join(tmp_path, "mask.csv")
    with open(vpath, "w") as f:
        f.write("a,b\n1.0,\n")
    with open(mpath, "w") as f:
        f.write("\n1,1\n")
    with pytest.raises(ValidationError, match="mask.csv: row 2, column 2: "):
        load_dataset(vpath, mpath)


def test_dataset_rejects_overlapping_masks():
    with pytest.raises(ValidationError):
        Dataset(values=np.ones((2, 2)), mask=np.ones((2, 2), dtype=np.uint8),
                eval_mask=np.ones((2, 2), dtype=np.uint8))


def test_dataset_rejects_nonfinite_defined_entries():
    values = np.array([[1.0, np.nan]])
    with pytest.raises(ValidationError):
        Dataset(values=values, mask=np.ones((1, 2), dtype=np.uint8))


def test_split_slices_sequential_and_exhaustive():
    a, b, c = split_slices(100)
    assert (a, b, c) == (slice(0, 70), slice(70, 80), slice(80, 100))
    a, b, c = split_slices(33, (0.5, 0.25, 0.25))
    assert a.stop == b.start and b.stop == c.start and c.stop == 33
    with pytest.raises(ValidationError):
        split_slices(10, (0.5, 0.2, 0.2))


@pytest.mark.parametrize("n_steps, sizes", [(40, (28, 4, 8)),
                                            (2000, (1400, 200, 400)),
                                            (4824, (3376, 483, 965))])
def test_split_slices_exact_boundaries(n_steps, sizes):
    # (0.7 + 0.1) * 40 is 31.999999999999996 in floating point.
    got = tuple(s.stop - s.start for s in split_slices(n_steps))
    assert got == sizes


def test_normalize_uses_training_slice_only():
    ds = small_dataset(t=50)
    train_sl = slice(0, 35)
    out, stats = normalize(ds, train_sl)
    picked = ds.values[train_sl][ds.mask[train_sl].astype(bool)]
    assert abs(stats.mean - picked.mean()) < 1e-15
    assert abs(stats.std - picked.std()) < 1e-15
    back = stats.invert(out.values)
    assert np.max(np.abs(back - ds.values)) < 1e-12
    got = out.values[train_sl][ds.mask[train_sl].astype(bool)]
    assert abs(got.mean()) < 1e-12
    assert abs(got.std() - 1.0) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-6, 3e4, 2.0 ** -40])
def test_normalize_stats_are_the_plain_stats_bit_for_bit(scale):
    # scaling by a power of two before the mean and std is exact
    ds = small_dataset(t=50, seed=3)
    ds = dataclasses.replace(ds, values=ds.values * scale)
    _, stats = normalize(ds)
    assert stats.mean == float(ds.values.mean())
    assert stats.std == float(ds.values.std())


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_normalize_extreme_scales(scale):
    ds = small_dataset(t=50, seed=4)
    ds = dataclasses.replace(ds, values=ds.values * scale)
    out, stats = normalize(ds)
    assert np.isfinite(out.values).all()
    assert abs(out.values.mean()) < 1e-12 and abs(out.values.std() - 1.0) < 1e-12
    assert stats.std / scale == pytest.approx(small_dataset(t=50, seed=4).values.std())


def test_normalize_single_huge_cell_gives_finite_stats():
    ds = small_dataset(t=50)
    ds.values[3, 1] = 1e160
    out, stats = normalize(ds)
    assert np.isfinite([stats.mean, stats.std]).all() and stats.std > 0.0
    assert np.isfinite(out.values).all()


def test_normalize_rejects_values_that_overflow_once_standardized():
    ds = small_dataset(t=50)
    ds.values[:] *= 1e-3  # std below 1
    ds.values[-1, 0] = 1.7e308  # outside the training slice
    with pytest.raises(ValidationError, match="too wide a range"):
        normalize(ds, slice(0, 35))


def test_normalize_rejects_constant_signal():
    ds = Dataset(values=np.ones((10, 2)), mask=np.ones((10, 2), dtype=np.uint8))
    with pytest.raises(ValidationError):
        normalize(ds)


def test_make_windows_offsets_and_contents():
    ds = small_dataset(t=20, n=3)
    wins = make_windows(ds, width=6, stride=4)
    assert len(wins) == 4  # offsets 0, 4, 8, 12 (16+6 > 20)
    for k, win in enumerate(wins):
        start = 4 * k
        assert win.width == 6 and win.n_nodes == 3
        assert np.array_equal(win.values, ds.values[start:start + 6])
        assert np.array_equal(win.step_offsets, ds.timestamps[start:start + 6])
    with pytest.raises(ValidationError):
        make_windows(ds, width=25, stride=1)
    with pytest.raises(ValidationError):
        make_windows(ds, width=4, stride=0)


def test_window_is_a_view_of_the_slice():
    ds = small_dataset(t=20, n=3)
    win = ds.window(5, 6)
    for part, whole in ((win.values, ds.values), (win.mask, ds.mask),
                        (win.eval_mask, ds.eval_mask),
                        (win.step_offsets, ds.timestamps)):
        assert np.shares_memory(part, whole)
        assert np.array_equal(part, whole[5:11])


def test_point_injection_rate_and_conservation():
    rng = np.random.default_rng(5)
    mask = (rng.random((100, 100)) < 0.9).astype(np.uint8)
    new_mask, eval_mask = inject_point_missing(mask, rate=0.25, rng=7)
    # conservation: disjoint, union = original
    assert not np.any(new_mask & eval_mask)
    assert np.array_equal(new_mask | eval_mask, mask)
    frac = eval_mask.sum() / mask.sum()
    assert abs(frac - 0.25) < 0.02


def test_point_injection_rate_zero_removes_nothing():
    mask = np.ones((10, 10), dtype=np.uint8)
    new_mask, eval_mask = inject_point_missing(mask, rate=0.0, rng=0)
    assert np.array_equal(new_mask, mask)
    assert eval_mask.sum() == 0
    with pytest.raises(ValidationError):
        inject_point_missing(mask, rate=1.0)


def test_block_injection_statistics():
    # E[S] = 30 for S ~ U{12..48}; per-entry failure coverage is about
    # failure_prob * E[S] = 0.045, independent of the point drops.
    mask = np.ones((4000, 25), dtype=np.uint8)
    new_mask, eval_mask = inject_block_missing(mask, point_rate=0.0,
                                               failure_prob=0.0015, rng=11)
    assert not np.any(new_mask & eval_mask)
    assert np.array_equal(new_mask | eval_mask, mask)
    frac = eval_mask.sum() / mask.size
    assert abs(frac - 0.045) < 0.01


def test_block_injection_produces_contiguous_runs():
    mask = np.ones((500, 4), dtype=np.uint8)
    _, eval_mask = inject_block_missing(mask, point_rate=0.0,
                                        failure_prob=0.002, len_min=5,
                                        len_max=5, rng=3)
    # with exact length 5 and no point drops, each maximal run of hidden
    # steps per node is at least 5 long unless clipped at the boundary
    for j in range(4):
        col = eval_mask[:, j]
        runs, length = [], 0
        for v in col:
            if v:
                length += 1
            elif length:
                runs.append(length)
                length = 0
        if length:
            runs.append(length)
        for r in runs[:-1]:
            assert r >= 5
    assert eval_mask.sum() > 0


def test_sweep_matches_point_semantics():
    mask = np.ones((200, 10), dtype=np.uint8)
    m1, e1 = inject_sparsity_sweep(mask, p=0.4, rng=9)
    m2, e2 = inject_point_missing(mask, rate=0.4, rng=9)
    assert np.array_equal(m1, m2)
    assert np.array_equal(e1, e2)
    with pytest.raises(ValidationError):
        inject_sparsity_sweep(mask, p=-0.1)


def test_sweep_p95_leaves_5_percent():
    mask = np.ones((300, 40), dtype=np.uint8)
    new_mask, _ = inject_sparsity_sweep(mask, p=0.95, rng=1)
    remaining = new_mask.sum() / mask.size
    assert abs(remaining - 0.05) < 0.01


def test_whiten_fraction_and_disjointness():
    ds = small_dataset(t=24, n=8, seed=2)
    mask, eval_mask = inject_point_missing(ds.mask, rate=0.2, rng=4)
    ds = dataclasses.replace(ds, mask=mask, eval_mask=eval_mask)
    win = make_windows(ds, 24, 24)[0]
    for p in WHITEN_LEVELS:
        input_mask, loss_mask = training_whiten(win, rng=1, p=p)
        assert not np.any(input_mask & loss_mask)
        assert np.array_equal(input_mask | loss_mask, win.mask)
        n_valid = int(win.mask.sum())
        want = max(1, int(np.floor(p * n_valid + 0.5)))
        assert loss_mask.sum() == want
        # never touches evaluation entries
        assert not np.any(loss_mask & win.eval_mask)


def test_whiten_draws_levels_from_fixed_set():
    ds = small_dataset(t=24, n=6, seed=3)
    win = make_windows(ds, 24, 24)[0]
    n_valid = int(win.mask.sum())
    seen = set()
    for seed in range(40):
        _, loss_mask = training_whiten(win, rng=seed)
        seen.add(round(loss_mask.sum() / n_valid, 1))
    assert seen == {0.2, 0.5, 0.8}


def test_whiten_needs_valid_entries():
    win = SpatioTemporalWindow(values=np.zeros((4, 2)),
                               mask=np.zeros((4, 2), dtype=np.uint8),
                               eval_mask=np.zeros((4, 2), dtype=np.uint8),
                               step_offsets=np.arange(4.0))
    with pytest.raises(ValidationError):
        training_whiten(win, rng=0)


def test_whiten_hides_at_least_one_entry():
    win = SpatioTemporalWindow(values=np.ones((2, 2)),
                               mask=np.eye(2, dtype=np.uint8),
                               eval_mask=np.zeros((2, 2), dtype=np.uint8),
                               step_offsets=np.arange(2.0))
    _, loss_mask = training_whiten(win, rng=0, p=0.2)
    assert loss_mask.sum() == 1  # floor(0.2 * 2 + 0.5) = 0 is bumped to 1


def test_grid_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    arr = rng.normal(size=(7, 3)) * 1e3
    path = os.path.join(tmp_path, "grid.csv")
    save_grid_csv(path, arr, header=["x", "y", "z"])
    back = load_dataset(path)
    assert np.array_equal(back.values, arr)


def test_failed_write_keeps_old_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cell cannot be written")

    path = os.path.join(tmp_path, "grid.csv")
    save_grid_csv(path, np.array([[1.0, 2.0]]), header=["a", "b"])
    with open(path, "rb") as f:
        old = f.read()
    assert old == b"a,b\r\n1,2\r\n"
    # the header and first row are written before the second row raises
    rows = np.array([[3.0, 4.0], [Unprintable(), 5.0]], dtype=object)
    with pytest.raises(RuntimeError):
        save_grid_csv(path, rows, header=["a", "b"])
    with open(path, "rb") as f:
        assert f.read() == old
    assert os.listdir(tmp_path) == ["grid.csv"]
