"""Input that loads gives finite artifacts, or exits 1 naming what to fix.

Random series are written to CSV and run through `cli.main` as train ->
evaluate -> impute: N 3-5 and W 4-8 over 10 W steps, so that the default
0.7/0.1/0.2 split holds seven, one and two windows; values of any scale
from 1e-300 to 1e300; an optional single-cell outlier of any finite size;
and 0-95% of the training rows blank.

Every command exits 0 or 1, never 2. On exit 1, the error names a file or
a dotted config field. On exit 0, `imputed.csv` is finite, `metrics.json`
is strict JSON, and every `history.csv` cell is a finite number, except a
`train_loss` left empty for an epoch without an optimizer step. The
suite's `error::RuntimeWarning` filter makes a numpy overflow warning an
exit 2, so the property also rules those out.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfill.cli import main

COMMANDS = ("train", "evaluate", "impute")


@st.composite
def runs(draw):
    n_nodes, width = draw(st.integers(3, 5)), draw(st.integers(4, 8))
    outlier = draw(st.none() | st.tuples(
        st.integers(0, 10 * width - 1), st.integers(0, n_nodes - 1),
        st.floats(-1.7e308, 1.7e308, allow_nan=False)))
    return dict(n_nodes=n_nodes, width=width,
                scale=10.0 ** draw(st.integers(-300, 300)), outlier=outlier,
                blank=draw(st.sampled_from([0.0, 0.3, 0.7, 0.95])),
                variant=draw(st.sampled_from(["spin", "spin-h"])),
                seed=draw(st.integers(0, 2**16)))


def write_run(tmp_path, run):
    """The config path of `run`'s data, written under tmp_path."""
    rng = np.random.default_rng(run["seed"])
    n, width = run["n_nodes"], run["width"]
    n_train = 7 * width
    values = run["scale"] * rng.normal(size=(10 * width, n))
    if run["outlier"] is not None:
        t, j, value = run["outlier"]
        values[t, j] = value
    blank = rng.choice(n_train, size=int(run["blank"] * n_train), replace=False)
    values[blank] = np.nan
    values_csv = tmp_path / "values.csv"
    np.savetxt(values_csv, values, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"s{j}" for j in range(n)))
    edges_csv = tmp_path / "edges.csv"
    edges_csv.write_text("src,dst,weight\n" + "".join(
        f"{j},{(j + 1) % n},1.0\n{(j + 1) % n},{j},1.0\n" for j in range(n)))
    config = {
        "data": {"values_csv": str(values_csv), "edges_csv": str(edges_csv),
                 "W": width},
        "model": {"variant": run["variant"], "L": 2, "eta": 1, "d_h": 4,
                  "hidden": 4, "hubs": {"K": 2, "d_z": 4},
                  "encoding": {"periods": [24.0], "d_v": 2, "d_q": 2}},
        "train": {"epochs_max": 2, "batches_per_epoch": 1, "batch_size": 2,
                  "patience": 2, "seed": run["seed"]},
        "inject": {"policy": "point", "params": {"rate": 0.25},
                   "seed": run["seed"]},
        "output": {"dir": str(tmp_path / "out")}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return str(path)


def strict(token):
    raise ValueError(f"{token} is not JSON")


def check_artifacts(out):
    with open(out / "history.csv") as f:
        header, *rows = [line.rstrip("\n").split(",") for line in f]
    assert header == ["epoch", "train_loss", "val_mae", "lr"]
    for row in rows:
        cells = row[:1] + row[2:] + ([row[1]] if row[1] else [])
        assert all(math.isfinite(float(cell)) for cell in cells), row
    with open(out / "metrics.json") as f:
        json.load(f, parse_constant=strict)
    imputed = np.loadtxt(out / "imputed.csv", delimiter=",", skiprows=1,
                         ndmin=2)
    assert np.isfinite(imputed).all()


# A training split 95% blank: every window drawn misses its 3 observed rows.
NO_STEP = dict(n_nodes=3, width=8, scale=1.0, outlier=None, blank=0.95,
               variant="spin", seed=3)


@settings(max_examples=25)
@given(runs())
@example(NO_STEP)
@example(dict(NO_STEP, scale=1e-300, outlier=(3, 1, 1e300), blank=0.0,
              variant="spin-h"))
def test_cli_gives_finite_artifacts_or_names_the_fault(tmp_path_factory, run):
    tmp_path = tmp_path_factory.mktemp("run")
    path = write_run(tmp_path, run)
    for command in COMMANDS:
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main([command, "--config", path])
        err = stderr.getvalue()
        assert code in (0, 1), (command, err)
        if code == 1:
            assert (str(tmp_path) in err
                    or re.search(r"'[a-z_]+\.[A-Za-z_]+'", err)), err
            return
    check_artifacts(tmp_path / "out")


def test_the_no_step_example_takes_no_step(tmp_path, capsys):
    path = write_run(tmp_path, NO_STEP)
    assert main(["train", "--config", path]) == 1
    assert "no optimizer step" in capsys.readouterr().err
