"""Parameter serialization round-trips and mismatch detection."""

import json
import os

import numpy as np
import pytest

from graphfill.checkpoint import load_params, save_params
from graphfill.errors import ValidationError
from graphfill.nn import Mlp
from graphfill.spin import SpinParameters
from graphfill.spin_h import SpinHParameters


def test_mlp_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mlp = Mlp([3, 8, 2], rng)
    named = mlp.named_parameters("block")
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, named)
    fresh = Mlp([3, 8, 2], np.random.default_rng(99))
    load_params(path, fresh.named_parameters("block"))
    for (_, a), (_, b) in zip(named, fresh.named_parameters("block")):
        assert np.array_equal(a.data, b.data)


def _mlp(prefix):
    return [f"{prefix}.layer{k}.{part}" for k in (0, 1)
            for part in ("weight", "bias")]


INIT_NAMES = (["encoding.spatial"] + _mlp("encoding.fuse") + _mlp("init.target")
              + _mlp("init.observed"))


@pytest.mark.parametrize("cls, head, layer", [
    (SpinParameters, [], [_mlp("cross.message"), ["cross.score"],
                          _mlp("self.message"), ["self.score"], _mlp("update")]),
    (SpinHParameters, ["hubs.base"],
     [_mlp("hub.message"), ["hub.score"], _mlp("hub.fuse"),
      _mlp("self.message"), ["self.score"], _mlp("cross.message"),
      ["cross.score"], _mlp("update")]),
])
def test_parameter_names_and_order_are_stable(cls, head, layer):
    # Checkpoints are keyed by these names, and Adam and clipping run in
    # this order: a rename or reorder breaks saved models.
    want = INIT_NAMES + head
    for l in range(2):
        want += [f"layers.{l}.{name}" for part in layer for name in part]
    want += _mlp("readout")
    params = cls(3, n_layers=2, n_masked=1, rng=0)
    assert [name for name, _ in params.named_parameters()] == want


def test_full_model_round_trip(tmp_path):
    params = SpinParameters(n_nodes=4, d_h=8, n_layers=2, n_masked=1,
                            hidden=8, rng=np.random.default_rng(1))
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, params.named_parameters())
    clone = SpinParameters(n_nodes=4, d_h=8, n_layers=2, n_masked=1,
                           hidden=8, rng=np.random.default_rng(2))
    load_params(path, clone.named_parameters())
    for (na, a), (nb, b) in zip(params.named_parameters(),
                                clone.named_parameters()):
        assert na == nb
        assert np.array_equal(a.data, b.data)


def test_name_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(3)
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, Mlp([2, 4, 1], rng).named_parameters("a"))
    other = Mlp([2, 4, 1], rng)
    with pytest.raises(ValidationError):
        load_params(path, other.named_parameters("b"))


def test_shape_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(4)
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, Mlp([2, 4, 1], rng).named_parameters("m"))
    wider = Mlp([2, 5, 1], rng)
    with pytest.raises(ValidationError):
        load_params(path, wider.named_parameters("m"))


def test_nonfinite_checkpoint_rejected(tmp_path):
    rng = np.random.default_rng(5)
    mlp = Mlp([2, 3, 1], rng)
    path = os.path.join(tmp_path, "ckpt.json")
    save_params(path, mlp.named_parameters("m"))
    with open(path) as f:
        doc = json.load(f)
    doc["m.layer0.weight"]["data"][0] = float("nan")
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(ValidationError):
        load_params(path, mlp.named_parameters("m"))


def test_nonfinite_parameter_is_not_saved(tmp_path):
    mlp = Mlp([2, 3, 1], np.random.default_rng(6))
    mlp.biases[0].data[1] = np.inf
    path = os.path.join(tmp_path, "ckpt.json")
    with pytest.raises(ValueError):  # strict JSON has no Infinity
        save_params(path, mlp.named_parameters("m"))
    assert os.listdir(tmp_path) == []
