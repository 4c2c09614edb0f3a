"""The config schema: round trips, and bad configs and CSVs through the CLI."""

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

from graphfill.checkpoint import save_params
from graphfill.cli import main
from graphfill.config import RunConfig, SynthConfig, TrainConfig, build_params
from graphfill.data import split_slices
from graphfill.spin import SpinParameters
from graphfill.spin_h import SpinHParameters
from graphfill.synth import synth_series
from graphfill.train import evaluate, evaluate_baseline

N_STEPS, N_NODES = 60, 3


def every_key(graph_source):
    """A config that sets every key of every section to a non-default value."""
    data = {"values_csv": "v.csv", "mask_csv": "m.csv", "gamma": 0.5,
            "delta": 1.5, "W": 12, "stride": 6, "split": [0.6, 0.2, 0.2]}
    data[graph_source] = "graph.csv"
    return {
        "data": data,
        "model": {"variant": "spin-h", "L": 3, "eta": 2, "d_h": 16,
                  "hidden": 24,
                  "hubs": {"K": 3, "d_z": 64, "per_node_hubs": True},
                  "encoding": {"periods": [12.0, 6.0], "d_v": 8, "d_q": 20}},
        "train": {"epochs_max": 7, "batches_per_epoch": 9, "batch_size": 3,
                  "patience": 5, "lr": 0.01, "warmup_steps": 2,
                  "restart_period": 50, "seed": 4,
                  "subsample": {"n_seeds": 3, "k_hops": 2}},
        "inject": {"policy": "block",
                   "params": {"point_rate": 0.1, "failure_prob": 0.01,
                              "len_min": 3, "len_max": 9},
                   "seed": 5},
        "output": {"dir": "elsewhere"},
        "synth": {"n_nodes": 9, "n_steps": 300, "seed": 6, "periods": [10.0],
                  "noise_std": 0.2, "target_neighbors": 3},
        "benchmark": {"n_nodes": 10, "seed": 2, "repeats": 5},
    }


def leaves(doc, prefix=""):
    """{dotted key: value} of every non-object value in a JSON object."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict) and key != "params":
            out.update(leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


@pytest.mark.parametrize("graph_source", ["distances_csv", "edges_csv"])
def test_every_key_round_trips(graph_source):
    doc = every_key(graph_source)
    resolved = RunConfig.from_dict(doc).to_dict()
    defaults = leaves(RunConfig.from_dict(
        {"data": {"values_csv": "", "edges_csv": ""}}).to_dict())
    other = "edges_csv" if graph_source == "distances_csv" else "distances_csv"
    given = leaves(doc)
    assert set(leaves(resolved)) == set(given) | {f"data.{other}"}
    for key, value in given.items():  # train.subsample defaults to null
        assert value != defaults.get(key), key
    assert resolved == json.loads(json.dumps(doc | {
        "data": doc["data"] | {other: None}}))
    again = RunConfig.from_dict(json.loads(json.dumps(resolved)))
    assert again.to_dict() == resolved
    # the trainer's config takes its windowing from the data section
    assert (again.train.width, again.train.stride, again.train.split) == (
        12, 6, (0.6, 0.2, 0.2))


@pytest.fixture
def files(tmp_path):
    """A valid values/mask/distances triple and a config that reads it."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=(N_STEPS, N_NODES))
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("values", "mask", "distances", "edges")}
    paths["values"].write_text(
        "s0,s1,s2\n" + "".join(",".join(f"{v:.6f}" for v in row) + "\n"
                               for row in values))
    paths["mask"].write_text("1,1,1\n" * N_STEPS)
    paths["distances"].write_text("0,1,2\n1,0,1\n2,1,0\n")
    paths["edges"].write_text("src,dst,weight\n0,1,1.0\n1,2,0.5\n")
    doc = {"data": {"values_csv": str(paths["values"]),
                    "mask_csv": str(paths["mask"]),
                    "distances_csv": str(paths["distances"]),
                    "gamma": 1.0, "delta": 1.5, "W": 4, "stride": 4},
           "model": {"L": 1, "eta": 1, "d_h": 4, "hidden": 4,
                     "encoding": {"d_v": 2, "d_q": 2}},
           "train": {"epochs_max": 1, "batches_per_epoch": 1, "batch_size": 1,
                     "patience": 1},
           "output": {"dir": str(tmp_path / "out")}}
    return tmp_path, paths, doc


def break_config(section, key, value):
    def apply(paths, doc):
        target = doc.setdefault(section, {})
        if key is None:
            doc[section] = value
        else:
            for part in key.split(".")[:-1]:
                target = target.setdefault(part, {})
            target[key.split(".")[-1]] = value
    return apply


def break_line(name, line, text):
    def apply(paths, doc):
        rows = paths[name].read_text().splitlines()
        rows[line - 1] = text
        paths[name].write_text("\n".join(rows) + "\n")
        if name == "edges":  # read the graph from the edge list instead
            doc["data"].pop("distances_csv")
            doc["data"]["edges_csv"] = str(paths[name])
    return apply


BAD_INPUTS = {
    # name: (how to break the valid inputs, file named, what stderr names)
    "list field given a string": (
        break_config("synth", "periods", "ab"), "config", "'synth.periods'"),
    "split given a number": (
        break_config("data", "split", 5), "config", "'data.split'"),
    "section given a non-object": (
        break_config("model", None, 3), "config", "'model'"),
    "inject params given a non-object": (
        break_config("inject", "params", 3), "config", "'inject.params'"),
    "eta zero": (break_config("model", "eta", 0), "config", "'model.eta'"),
    "batch size zero": (
        break_config("train", "batch_size", 0), "config", "'train.batch_size'"),
    "unknown nested key": (
        break_config("model", "hubs.KK", 3), "config", "'model.hubs.KK'"),
    "ragged mask": (break_line("mask", 3, "1,1"), "mask", "row 3"),
    "ragged values row": (break_line("values", 3, "0.1,0.2"), "values", "row 3"),
    "non-numeric distance cell": (
        break_line("distances", 2, "1,zero,1"), "distances", "row 2, column 2"),
    "non-numeric value cell": (
        break_line("values", 5, "0.1,x,0.2"), "values", "row 5, column 2"),
    "non-integer edge id": (
        break_line("edges", 3, "1.5,2,0.5"), "edges", "row 3, column 1"),
    "edge to a missing node": (
        break_line("edges", 3, "1,7,0.5"), "edges", "(1,7) references a missing node"),
    "self-loop edge": (break_line("edges", 3, "2,2,0.5"), "edges", "self-loop"),
    "non-positive edge weight": (
        break_line("edges", 3, "1,2,0"), "edges", "non-positive weight"),
    "NaN edge weight": (
        break_line("edges", 3, "1,2,nan"), "edges", "(1,2) has non-finite weight"),
    "infinite edge weight": (
        break_line("edges", 3, "1,2,inf"), "edges", "(1,2) has non-finite weight"),
    "duplicate edge": (break_line("edges", 3, "0,1,0.5"), "edges", "duplicate"),
    "two-cell edge row": (
        break_line("edges", 3, "2,1"), "edges", "row 3 has 2 cells"),
    "nonzero distance diagonal": (
        break_line("distances", 2, "1,5,1"), "distances", "diagonal"),
    "negative distance": (
        break_line("distances", 1, "0,-1,2"), "distances", "non-negative"),
    "gamma underflowing an edge weight": (
        break_config("data", "gamma", 0.001), "distances", "'data.gamma'"),
    "distance matrix not N x N": (
        lambda paths, doc: paths["distances"].write_text("0,1\n1,0\n2,1\n"),
        "distances", "3x2"),
    "synth with one node": (
        break_config("synth", "n_nodes", 1), "config", "'synth.n_nodes' must be >= 2"),
    "synth with one step": (
        break_config("synth", "n_steps", 1), "config", "'synth.n_steps' must be >= 2"),
    "synth with as many neighbors as nodes": (
        break_config("synth", "n_nodes", 2), "config",
        "'synth.target_neighbors' (2) must be less than 'synth.n_nodes' (2)"),
    "synth neighbors above the node count": (
        break_config("synth", "target_neighbors", 25), "config",
        "'synth.target_neighbors' (25) must be less than 'synth.n_nodes' (20)"),
    "benchmark with 3 nodes": (
        break_config("benchmark", "n_nodes", 3), "config",
        "'benchmark.n_nodes' must be >= 4"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_naming_file_and_field(case, files, capsys):
    tmp_path, paths, doc = files
    apply, culprit, named = BAD_INPUTS[case]
    apply(paths, doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    path = config if culprit == "config" else paths[culprit]
    assert str(path) in err and named in err, err


def test_valid_inputs_train(files):
    tmp_path, _, doc = files
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == 0


BAD_INJECT_PARAMS = {
    # name: (policy, params, the dotted key stderr names)
    "rate of 1.5": ("point", {"rate": 1.5}, "'inject.params.rate'"),
    "rate of 1": ("point", {"rate": 1}, "'inject.params.rate'"),
    "rate given a string": ("point", {"rate": "0.1"}, "'inject.params.rate'"),
    "key of another policy": ("point", {"p": 0.1}, "'inject.params.p'"),
    "negative sweep level": ("sweep", {"p": -0.1}, "'inject.params.p'"),
    "sweep without a level": ("sweep", {}, "'inject.params.p'"),
    "point rate of 1": ("block", {"point_rate": 1.0}, "'inject.params.point_rate'"),
    "failure probability 7": (
        "block", {"failure_prob": 7}, "'inject.params.failure_prob'"),
    "fractional length": ("block", {"len_min": 12.5}, "'inject.params.len_min'"),
    "zero length": ("block", {"len_min": 0, "len_max": 4}, "'inject.params.len_min'"),
    "lengths out of order": (
        "block", {"len_min": 50, "len_max": 10}, "'inject.params.len_max'"),
    "len_min above the default len_max": (
        "block", {"len_min": 50}, "'inject.params.len_max'"),
    "params with policy none": ("none", {"rate": 0.1}, "'inject.params.rate'"),
}


@pytest.mark.parametrize("case", sorted(BAD_INJECT_PARAMS))
def test_bad_inject_params_exit_1_naming_file_and_field(case, files, capsys):
    tmp_path, _, doc = files
    policy, params, named = BAD_INJECT_PARAMS[case]
    doc["inject"] = {"policy": policy, "params": params}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["inject", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err and named in err, err
    assert not (tmp_path / "out" / "resolved_config.inject.json").exists()


def test_inject_params_at_their_bounds_pass_through(files):
    tmp_path, _, doc = files
    params = {"point_rate": 0, "failure_prob": 1, "len_min": 3, "len_max": 3}
    doc["inject"] = {"policy": "block", "params": params}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["inject", "--config", str(config)]) == 0
    snapshot = json.loads(
        (tmp_path / "out" / "resolved_config.inject.json").read_text())
    assert snapshot["config"]["inject"]["params"] == params  # as given


def corrupt_entry(name, change):
    """Rewrite the checkpoint so that entry `name` goes through `change`."""
    def apply(paths, text):
        doc = json.loads(text)
        change(doc[name])
        return json.dumps(doc)
    return apply


def output_at(below):
    """Point output.dir at a plain file, or at a directory `below` one."""
    def apply(paths, text):
        plain = paths["config"].with_name("plain")
        plain.write_text("")
        paths["output"] = plain / below if below else plain
        doc = json.loads(paths["config"].read_text())
        doc["output"]["dir"] = str(paths["output"])
        paths["config"].write_text(json.dumps(doc))
        return text
    return apply


def artifact_dir(name):
    """Put a directory where the output artifact `name` goes."""
    def apply(paths, text):
        paths["artifact"] = paths["config"].with_name("out") / name
        paths["artifact"].unlink()
        paths["artifact"].mkdir()
        return text
    return apply


BAD_IMPUTE_FILES = {
    # name: (how to break the checkpoint text or config, the path named, what else)
    "not JSON": (lambda paths, text: text[:-1], "checkpoint", "not valid JSON"),
    "entry without data": (
        corrupt_entry("readout.layer1.bias", lambda e: e.pop("data")),
        "checkpoint", "readout.layer1.bias: missing key 'data'"),
    "two values for shape [1]": (
        corrupt_entry("readout.layer1.bias", lambda e: e.update(data=[0.0, 1.0])),
        "checkpoint", "readout.layer1.bias: cannot reshape array of size 2"),
    "non-numeric cell": (
        corrupt_entry("readout.layer1.weight",
                      lambda e: e.update(data=["x"] + e["data"][1:])),
        "checkpoint", "readout.layer1.weight"),
    "unknown parameter": (
        lambda paths, text: json.dumps(json.loads(text) | {"bogus": {}}),
        "checkpoint", "extra ['bogus']"),
    "checkpoint is a directory": (None, "checkpoint", "Is a directory"),
    "config is a directory": (None, "config", "Is a directory"),
    "output dir is a file": (output_at(None), "output", "File exists"),
    "output dir below a file": (output_at("run"), "output", "Not a directory"),
    "imputed.csv is a directory": (
        artifact_dir("imputed.csv"), "artifact", "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(BAD_IMPUTE_FILES))
def test_bad_impute_file_exits_1_naming_it(case, files, capsys):
    tmp_path, paths, doc = files
    paths["config"] = tmp_path / "config.json"
    paths["config"].write_text(json.dumps(doc))
    paths["checkpoint"] = tmp_path / "checkpoint.json"
    model = RunConfig.from_dict(doc).model
    save_params(paths["checkpoint"], build_params(model, N_NODES, 0).named_parameters())
    argv = ["impute", "--config", str(paths["config"]),
            "--checkpoint", str(paths["checkpoint"])]
    assert main(argv) == 0  # the unbroken inputs impute
    snapshot = tmp_path / "out" / "resolved_config.impute.json"
    snapshot.unlink()
    apply, culprit, named = BAD_IMPUTE_FILES[case]
    if apply is None:
        paths[culprit].unlink()
        paths[culprit].mkdir()
    else:
        paths["checkpoint"].write_text(apply(paths, paths["checkpoint"].read_text()))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(paths[culprit]) in err and named in err, err
    assert ".tmp" not in err, err  # the artifact, not its temporary file
    assert not snapshot.exists()  # a failed command writes no snapshot


@pytest.mark.parametrize("variant, cls", [("spin", SpinParameters),
                                          ("spin-h", SpinHParameters)])
def test_config_defaults_are_the_model_defaults(variant, cls):
    model = RunConfig.from_dict({"model": {"variant": variant}}).model
    built = build_params(model, N_NODES, 7).named_parameters()
    direct = cls(N_NODES, rng=7).named_parameters()
    assert [(n, p.shape) for n, p in built] == [(n, p.shape) for n, p in direct]
    for (_, a), (_, b) in zip(built, direct):
        assert np.array_equal(a.data, b.data)


def test_trainer_and_data_defaults_agree():
    data = RunConfig.from_dict({"data": {"values_csv": "", "edges_csv": ""}}).data
    train = TrainConfig()
    assert (train.width, train.stride, train.split) == (
        data.width, data.stride, data.split)
    for fn, key in ((split_slices, "fracs"), (evaluate, "split"),
                    (evaluate_baseline, "split")):
        assert inspect.signature(fn).parameters[key].default == data.split


def test_synth_defaults_are_synth_series_defaults():
    synth = SynthConfig()
    given = inspect.signature(synth_series).parameters
    for f in fields(synth):
        assert getattr(synth, f.name) == given[f.name].default, f.name
