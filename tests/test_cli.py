"""End-to-end command-line pipeline on a small generated series."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import graphfill
from graphfill.cli import main
from graphfill.config import TrainConfig
from graphfill.optim import lr_schedule


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    return str(path)


def load_grid(path, skip_header=True):
    return np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0,
                      ndmin=2)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> inject -> train -> evaluate -> impute, all through main()."""
    root = tmp_path_factory.mktemp("cli")
    synth_dir, run_dir = root / "synth", root / "run"
    synth_cfg_path = write_json(root / "synth.json", {
        "synth": {"n_nodes": 6, "n_steps": 160, "seed": 1},
        "output": {"dir": str(synth_dir)}})
    assert main(["synth", "--config", synth_cfg_path]) == 0
    with open(synth_dir / "synth_summary.json") as f:
        summary = json.load(f)

    run_cfg = {
        "data": {"values_csv": str(synth_dir / "values.csv"),
                 "distances_csv": str(synth_dir / "distances.csv"),
                 "gamma": summary["suggested_gamma"],
                 "delta": summary["suggested_delta"],
                 "W": 8, "stride": 8},
        "model": {"variant": "spin", "L": 2, "eta": 1, "d_h": 8, "hidden": 8,
                  "encoding": {"periods": [24.0], "d_v": 4, "d_q": 6}},
        "train": {"epochs_max": 2, "batches_per_epoch": 2, "batch_size": 2,
                  "patience": 2, "seed": 0},
        "inject": {"policy": "point", "params": {"rate": 0.25}, "seed": 2},
        "output": {"dir": str(run_dir)},
    }
    run_cfg_path = write_json(root / "run.json", run_cfg)
    for command in ("inject", "train", "evaluate", "impute"):
        assert main([command, "--config", run_cfg_path]) == 0, command
    return {"root": root, "synth_dir": synth_dir, "run_dir": run_dir,
            "run_cfg": run_cfg, "run_cfg_path": run_cfg_path,
            "summary": summary}


MALLOC_PROBE = """
import ctypes, importlib, pkgutil, sys
import numpy
calls = []
class Libc:
    def __init__(self, name, *args, **kwargs):
        pass
    def mallopt(self, param, value):
        calls.append((param, value))
        return 1
ctypes.CDLL = Libc
sys.path.insert(0, sys.argv[1])
import graphfill
for module in pkgutil.iter_modules(graphfill.__path__):
    importlib.import_module("graphfill." + module.name)
print(len(calls))
from graphfill.cli import main
main(["train", "--config", "absent.json"])
print(len(calls))
"""


def test_import_leaves_malloc_tuning_alone(tmp_path):
    # mallopt is process-global: importing the package must not call it;
    # entering through cli.main does.
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphfill.__file__)))
    proc = subprocess.run([sys.executable, "-c", MALLOC_PROBE, src],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "2"], proc.stdout


def test_synth_artifacts(pipeline):
    values = load_grid(pipeline["synth_dir"] / "values.csv")
    assert values.shape == (160, 6)
    assert np.all(np.isfinite(values))
    distances = load_grid(pipeline["synth_dir"] / "distances.csv",
                          skip_header=False)
    assert distances.shape == (6, 6)
    assert np.allclose(distances, distances.T)
    assert np.all(np.diag(distances) == 0.0)
    s = pipeline["summary"]
    assert s["suggested_gamma"] > 0 and s["suggested_delta"] > 0
    assert s["n_edges_at_suggested_kernel"] > 0
    assert (pipeline["synth_dir"] / "resolved_config.synth.json").exists()


def test_inject_artifacts(pipeline):
    mask = load_grid(pipeline["run_dir"] / "mask.csv", skip_header=False)
    eval_mask = load_grid(pipeline["run_dir"] / "eval_mask.csv",
                          skip_header=False)
    assert mask.shape == eval_mask.shape == (160, 6)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert not np.any((mask == 1) & (eval_mask == 1))
    assert np.all((mask + eval_mask) == 1)  # source series fully observed
    with open(pipeline["run_dir"] / "inject_summary.json") as f:
        summary = json.load(f)
    assert summary["fraction_removed"] == pytest.approx(0.25, abs=0.03)
    assert summary["n_valid_before"] == 160 * 6
    assert summary["n_removed"] == int(eval_mask.sum())


def test_train_artifacts(pipeline):
    assert (pipeline["run_dir"] / "checkpoint.json").exists()
    with open(pipeline["run_dir"] / "history.csv") as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_mae,lr"
    assert len(lines) == 1 + 2  # two epochs
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert all(np.isfinite(float(x)) for x in row[1:])


def test_resolved_snapshot_round_trips(pipeline):
    with open(pipeline["run_dir"] / "resolved_config.train.json") as f:
        snap = json.load(f)
    assert snap["command"] == "train"
    assert snap["config"]["data"]["W"] == 8
    assert snap["config"]["model"]["variant"] == "spin"
    assert snap["config"]["inject"]["policy"] == "point"
    # the snapshot alone must be a loadable config
    replay = write_json(pipeline["root"] / "replay.json", snap["config"])
    from graphfill.config import load_run_config
    cfg = load_run_config(replay)
    assert cfg.data.width == 8


def test_metrics_report_model_and_baselines(pipeline):
    with open(pipeline["run_dir"] / "metrics.json") as f:
        metrics = json.load(f)
    assert set(metrics) == {"spin", "mean", "knn"}
    for entry in metrics.values():
        assert np.isfinite(entry["mae"]) and entry["mae"] >= 0
        assert entry["n_eval"] > 0
        assert len(entry["per_node"]) == 6


def test_imputed_series_passes_through_observed(pipeline):
    imputed = load_grid(pipeline["run_dir"] / "imputed.csv")
    raw = load_grid(pipeline["synth_dir"] / "values.csv")
    mask = load_grid(pipeline["run_dir"] / "mask.csv", skip_header=False)
    assert imputed.shape == raw.shape
    assert np.all(np.isfinite(imputed))
    observed = mask == 1
    assert np.array_equal(imputed[observed], raw[observed])
    assert np.any(imputed[~observed] != raw[~observed])


def test_output_dir_override(pipeline, tmp_path):
    override = tmp_path / "elsewhere"
    rc = main(["synth", "--config", str(pipeline["root"] / "synth.json"),
               "--output-dir", str(override)])
    assert rc == 0
    assert (override / "values.csv").exists()


def test_missing_config_file(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 1


def test_malformed_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad)]) == 1


def test_unknown_config_key(tmp_path):
    path = write_json(tmp_path / "cfg.json",
                      {"synth": {"n_nodes": 4}, "outputs": {"dir": "x"}})
    assert main(["synth", "--config", path]) == 1


def test_graph_source_must_be_unique(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["data"]["edges_csv"] = "also.csv"  # both sources configured
    path = write_json(tmp_path / "two.json", cfg)
    assert main(["evaluate", "--config", path]) == 1
    del cfg["data"]["edges_csv"]
    del cfg["data"]["distances_csv"]      # no source at all
    path = write_json(tmp_path / "none.json", cfg)
    assert main(["evaluate", "--config", path]) == 1


def test_sweep_policy_requires_fraction(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["inject"] = {"policy": "sweep", "params": {}, "seed": 0}
    cfg["output"] = {"dir": str(tmp_path / "out")}
    path = write_json(tmp_path / "sweep.json", cfg)
    assert main(["inject", "--config", path]) == 1


def test_missing_checkpoint_is_input_error(pipeline, tmp_path):
    path = write_json(tmp_path / "cfg.json", pipeline["run_cfg"])
    rc = main(["evaluate", "--config", path,
               "--checkpoint", str(tmp_path / "absent.json")])
    assert rc == 1


def test_checkpoint_shape_mismatch_is_input_error(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["model"]["d_h"] = 16  # disagrees with the trained checkpoint
    path = write_json(tmp_path / "mismatch.json", cfg)
    rc = main(["evaluate", "--config", path,
               "--checkpoint", str(pipeline["run_dir"] / "checkpoint.json")])
    assert rc == 1


def test_hub_variant_trains_and_evaluates(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["model"] = {"variant": "spin-h", "L": 2, "eta": 1, "d_h": 8,
                    "hidden": 8, "hubs": {"K": 2, "d_z": 8},
                    "encoding": {"periods": [24.0], "d_v": 4, "d_q": 6}}
    cfg["train"] = {"epochs_max": 1, "batches_per_epoch": 1, "batch_size": 2,
                    "patience": 1, "seed": 0}
    cfg["output"] = {"dir": str(tmp_path / "hub_run")}
    path = write_json(tmp_path / "hub.json", cfg)
    assert main(["train", "--config", path]) == 0
    assert main(["evaluate", "--config", path]) == 0
    with open(tmp_path / "hub_run" / "metrics.json") as f:
        metrics = json.load(f)
    assert set(metrics) == {"spin-h", "mean", "knn"}


def strict_json(path):
    """The document at `path`, refusing the NaN and Infinity that only
    Python's json module writes and reads."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")
    with open(path) as f:
        return json.load(f, parse_constant=refuse)


@pytest.mark.parametrize("scale", ["outlier", "tiny", "near_max"])
def test_extreme_value_ranges_give_finite_artifacts(pipeline, tmp_path, scale):
    # One finite 1e160 training cell made the std overflow to inf; a series
    # of order 1e-300 was refused as constant because its squares underflow;
    # errors of a series near the float64 limit overflowed in data units.
    raw = load_grid(pipeline["synth_dir"] / "values.csv")
    if scale == "outlier":
        raw[5, 2] = 1e160
    elif scale == "tiny":
        raw *= 1e-300
    else:
        raw *= 1.5e308 / np.nanmax(np.abs(raw))
    values_csv = tmp_path / "values.csv"
    header = ",".join(f"s{i:02d}" for i in range(raw.shape[1]))
    np.savetxt(values_csv, raw, fmt="%.17g", delimiter=",", header=header,
               comments="")
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["data"]["values_csv"] = str(values_csv)
    cfg["train"] = {"epochs_max": 1, "batches_per_epoch": 1, "batch_size": 2,
                    "patience": 1, "seed": 0}
    cfg["output"] = {"dir": str(tmp_path / "out")}
    path = write_json(tmp_path / "cfg.json", cfg)
    for command in ("train", "evaluate", "impute"):
        assert main([command, "--config", path]) == 0, command
    metrics = strict_json(tmp_path / "out" / "metrics.json")
    assert all(np.isfinite(entry["mae"]) for entry in metrics.values())
    assert np.all(np.isfinite(load_grid(tmp_path / "out" / "imputed.csv")))
    strict_json(tmp_path / "out" / "checkpoint.json")


def test_unstandardizable_values_name_the_values_file(pipeline, tmp_path, capsys):
    # finite training stats, but an evaluation cell that overflows once
    # standardized
    raw = load_grid(pipeline["synth_dir"] / "values.csv")
    raw[-1, 0] = 1.7e308
    values_csv = tmp_path / "wide.csv"
    np.savetxt(values_csv, raw, fmt="%.17g", delimiter=",",
               header=",".join(f"s{i:02d}" for i in range(raw.shape[1])),
               comments="")
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["data"]["values_csv"] = str(values_csv)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    assert main(["train", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 1
    assert f"error: {values_csv}: " in capsys.readouterr().err


def test_nonfinite_metric_is_named_and_not_written(pipeline, tmp_path,
                                                   monkeypatch, capsys):
    import graphfill.cli as cli
    score = {"mae": 0.5, "n_eval": 3, "per_window": [0.5, float("nan")],
             "per_node": [0.5, None]}
    monkeypatch.setattr(cli, "evaluate", lambda *args: score)
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["output"] = {"dir": str(tmp_path / "out")}
    path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(["evaluate", "--config", path,
               "--checkpoint", str(pipeline["run_dir"] / "checkpoint.json")])
    assert rc == 1
    assert "metrics.json: 'spin.per_window[1]' is not a finite number" in \
        capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_impute_names_a_value_that_overflows_in_data_units(pipeline, tmp_path,
                                                          monkeypatch, capsys):
    # predictions stay normalized and only missing cells are converted
    # back; one that overflows there is named, not left as an unfilled cell
    import graphfill.cli as cli
    raw = load_grid(pipeline["synth_dir"] / "values.csv") * 1e3  # std ~ 900
    values_csv = tmp_path / "values.csv"
    np.savetxt(values_csv, raw, fmt="%.17g", delimiter=",",
               header=",".join(f"s{i:02d}" for i in range(raw.shape[1])),
               comments="")
    forward = cli.spin_forward

    def huge(*args, **kwargs):
        out = forward(*args, **kwargs)
        return SimpleNamespace(predictions=np.full_like(out.predictions, 1e306))

    monkeypatch.setattr(cli, "spin_forward", huge)
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["data"]["values_csv"] = str(values_csv)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    rc = main(["impute", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--checkpoint", str(pipeline["run_dir"] / "checkpoint.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {values_csv}: data row " in err and "overflows" in err
    assert not (tmp_path / "out" / "imputed.csv").exists()


def blanked_run(pipeline, tmp_path, rows, keep=(), **train):
    """(config path, values.csv) of the pipeline's run on its series with
    data rows `rows` (counting from 1) blank, except the cells `keep`."""
    raw = load_grid(pipeline["synth_dir"] / "values.csv")
    kept = [raw[t - 1, j] for t, j in keep]
    raw[rows.start - 1:rows.stop - 1] = np.nan
    for (t, j), value in zip(keep, kept):
        raw[t - 1, j] = value
    values_csv = tmp_path / "values.csv"
    np.savetxt(values_csv, raw, fmt="%.17g", delimiter=",",
               header=",".join(f"s{i:02d}" for i in range(raw.shape[1])),
               comments="")
    cfg = json.loads(json.dumps(pipeline["run_cfg"]))
    cfg["data"]["values_csv"] = str(values_csv)
    cfg["train"].update(train)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    return write_json(tmp_path / "cfg.json", cfg), values_csv


def test_training_without_a_step_is_refused(pipeline, tmp_path, capsys):
    # Every window drawn from the training split lies in the blank rows, so
    # the run took no optimizer step; it used to exit 0 with `nan` losses
    # and write the initial parameters as its checkpoint.
    path, values_csv = blanked_run(pipeline, tmp_path, range(1, 101),
                                   keep=[(20, 1), (70, 4)], epochs_max=2,
                                   batches_per_epoch=1, batch_size=1)
    assert main(["train", "--config", path]) == 1
    err = capsys.readouterr().err
    assert f"error: {values_csv}: no optimizer step in 2 epochs" in err
    assert "'data.split'" in err
    assert not (tmp_path / "out" / "checkpoint.json").exists()
    assert not (tmp_path / "out" / "history.csv").exists()


def test_an_epoch_without_a_step_leaves_train_loss_empty(pipeline, tmp_path):
    # With the same blank rows, train seed 9 draws a blank window in epoch 1
    # and an observed one in epoch 2: epoch 1's loss is an empty cell.
    path, _ = blanked_run(pipeline, tmp_path, range(1, 101), epochs_max=2,
                          batches_per_epoch=1, batch_size=1, seed=9)
    assert main(["train", "--config", path]) == 0
    with open(tmp_path / "out" / "history.csv") as f:
        rows = [line.rstrip("\n").split(",") for line in f][1:]
    assert [row[1] == "" for row in rows] == [True, False]
    assert all(np.isfinite(float(cell)) for row in rows for cell in row if cell)


def test_empty_validation_split_names_the_file_and_field(pipeline, tmp_path,
                                                         capsys):
    # 160 steps at the 0.7/0.1/0.2 split: data rows 113-128 validate.
    path, values_csv = blanked_run(pipeline, tmp_path, range(113, 129))
    assert main(["train", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {values_csv}: ")
    assert "'data.split'" in err and "data rows 113-128" in err


def test_an_epoch_without_a_step_records_its_next_rate(pipeline, tmp_path, capsys):
    # Train seed 18 steps in epoch 1 and draws a blank window in epoch 2.
    # That epoch's row read lr 0.0 and its progress line `loss nan`; it now
    # records the rate of the step it would take next, warm-up step 1, and
    # prints its missing loss as `-`.
    path, _ = blanked_run(pipeline, tmp_path, range(1, 101), epochs_max=2,
                          batches_per_epoch=1, batch_size=1, seed=18)
    assert main(["train", "--config", path]) == 0
    with open(tmp_path / "out" / "history.csv") as f:
        rows = [line.rstrip("\n").split(",") for line in f][1:]
    assert [row[1] == "" for row in rows] == [False, True]
    defaults = TrainConfig()
    rate = lr_schedule(1, 1, base_lr=defaults.lr, warmup_steps=defaults.warmup_steps,
                       restart_period_epochs=defaults.restart_period)
    assert rate > 0.0 and float(rows[1][3]) == rate
    out = capsys.readouterr().out
    assert "epoch   2  loss -  val_mae " in out and "nan" not in out
