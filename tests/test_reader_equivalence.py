"""The one CSV reader against the three loops it replaced.

Hypothesis writes values, mask, distance and edge files with ragged rows,
blank lines, blank, `nan` and `inf` cells, non-numbers, quoted cells and
missing headers. A file the old reader (`reference_readers.py`) loads must
load to the same array bytes and header; a file it rejects must be
rejected. The one new rejection is a NaN distance cell. The one new
acceptance is a values header after blank lines, which the old reader
took for an empty header: such a file must load as the old reader loads
it without those lines.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_readers as old
from graphfill.data import load_dataset, load_grid_csv
from graphfill.errors import ValidationError
from graphfill.graph import load_edges_csv

N_NODES = 8  # edge lists are read for a graph of this many nodes

SETTINGS = settings(max_examples=150)


def cells(good, bad):
    """(good cells, bad cells) of one column, the strings of each given
    as a list or as a strategy."""
    as_strategy = lambda c: st.sampled_from(c) if isinstance(c, list) else c
    return as_strategy(good), as_strategy(bad)


FLOAT = st.floats(allow_nan=False).map(repr)
VALUE = cells(FLOAT | st.sampled_from(["", " ", "nan", " NaN", "-inf", " 2 ",
                                       '"3.5"', '"\n4"', "1_0"]),
              ["x", '"1,5"', "--1", "0x1", '"nan"x'])
MASK = cells(["0", "0", "0", "0", "-0", "0e0", '"0"', "1", "1.0", "+1", " 1 "],
             ["2", "0.5", "nan", "", "x", "inf", "-1"])
DISTANCE = cells(FLOAT | st.sampled_from(["0", "inf", '"1.5"', " 2 "]),
                 ["nan", "NaN", "-nan", "", "x"])
# good edges run from nodes 0-3 to nodes 4-7, so they hold no self-loop
BAD_NODE = ["1.5", "x", "", "nan", "-1", str(N_NODES), "5"]
SRC = cells(st.integers(0, 3).map(str) | st.sampled_from([" 1", "+2", '"3"']),
            BAD_NODE)
DST = cells(st.integers(4, 7).map(str) | st.sampled_from([" 5", "+6", '"7"']),
            BAD_NODE)
WEIGHT = cells(st.floats(1e-3, 1e3).map(repr) | st.sampled_from(["0.5", " 2"]),
               ["x", "", "nan", "inf", "0", "-1.5"])
NAMES = ["s0", "s1", " b ", '"c"', "", "src"]


@st.composite
def csv_text(draw, columns, n_rows, header=None):
    """The text of a CSV file: an optional header line, then n_rows rows of
    one cell per column. In a faulty file some rows are ragged and some
    cells bad; any file may hold blank lines."""
    faulty = draw(st.integers(0, 2)) == 0
    rare = lambda: faulty and draw(st.integers(0, 5)) == 0
    lines = [] if header is None else [header]
    for _ in range(n_rows):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))
        width = draw(st.integers(1, len(columns) + 1)) if rare() else len(columns)
        row = [columns[col % len(columns)] for col in range(width)]
        lines.append(",".join(draw(bad if rare() else good) for good, bad in row))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def values_and_mask(draw):
    """(values text, mask text or None)."""
    width, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ragged = draw(st.integers(0, 5)) == 0
    header = draw(st.none() | st.lists(st.sampled_from(NAMES), min_size=width,
                                       max_size=width + ragged))
    values = draw(csv_text([VALUE] * width, n_rows,
                           None if header is None else ",".join(header)))
    if draw(st.booleans()):
        return values, None
    if draw(st.integers(0, 5)) == 0:  # a mask of another shape
        width, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    return values, draw(csv_text([MASK] * width, n_rows))


@st.composite
def distances(draw):
    n = draw(st.integers(1, 4))
    return draw(csv_text([DISTANCE] * n, draw(st.integers(0, 4))))


@st.composite
def edges(draw):
    header = draw(st.sampled_from(["src,dst,weight"] * 5 + [
        " src , dst , weight", "src,dst", "a,b,c", "", None]))
    return draw(csv_text([SRC, DST, WEIGHT], draw(st.integers(0, 5)), header))


def outcome(load, *texts):
    """What `load` makes of files holding `texts` (None: no file), or None
    if it rejects them."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, text in enumerate(texts):
            if text is None:
                paths.append(None)
                continue
            paths.append(os.path.join(tmp, f"{k}.csv"))
            with open(paths[-1], "w", newline="") as f:
                f.write(text)
        try:
            return load(*paths)
        except ValidationError:
            return None


def same(old_result, new_result, *arrays):
    """Both rejected, or both loaded with equal bytes in every array."""
    if old_result is None or new_result is None:
        return old_result is None and new_result is None
    return all(np.asarray(get(old_result)).tobytes()
               == np.asarray(get(new_result)).tobytes() for get in arrays)


@SETTINGS
@given(values_and_mask())
def test_values_and_masks_load_as_before(texts):
    values, mask = texts
    before = outcome(old.load_dataset, values.lstrip("\n"), mask)
    after = outcome(load_dataset, *texts)
    assert same(before, after, lambda d: d.values, lambda d: d.mask)
    assert before is None or before.columns == after.columns


@SETTINGS
@given(distances())
def test_distances_load_as_before_except_nan(text):
    before = outcome(old.load_grid_csv, text)
    after = outcome(load_grid_csv, text)
    if before is not None and np.isnan(before).any():
        assert after is None
    else:
        assert same(before, after, lambda d: d)


@SETTINGS
@given(edges())
def test_edge_lists_load_as_before(text):
    load = lambda reader: lambda path: reader(path, N_NODES)
    before = outcome(load(old.load_edges_csv), text)
    after = outcome(load(load_edges_csv), text)
    assert same(before, after, lambda g: g.src, lambda g: g.dst,
                lambda g: g.weight)


@pytest.mark.parametrize("strategy, loader", [
    (values_and_mask(), old.load_dataset), (distances(), old.load_grid_csv),
    (edges(), lambda path: old.load_edges_csv(path, N_NODES))],
    ids=["values and masks", "distances", "edges"])
def test_generated_files_are_both_loaded_and_rejected(strategy, loader):
    """The properties above would hold vacuously if every file failed."""
    results = []

    @settings(max_examples=60)
    @given(strategy)
    def collect(texts):
        results.append(outcome(loader, *(texts if isinstance(texts, tuple)
                                         else (texts,))) is not None)

    collect()
    assert 0.2 < np.mean(results) < 0.9, np.mean(results)
