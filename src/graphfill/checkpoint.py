"""Save and load model parameters as a single JSON document.

The document maps dotted parameter names ("module.block.layer.kind") to
{"shape": [...], "data": [...flat row-major floats...]}. JSON keeps the
files greppable and diffable; float64 round-trips exactly through repr.
"""

from __future__ import annotations

import json

import numpy as np

from .data import atomic_write
from .errors import ValidationError


def save_params(path, named_params):
    """Write [(name, Value)] to `path`, atomically, as strict JSON: a
    non-finite parameter raises ValueError and writes nothing."""
    doc = {}
    for name, p in named_params:
        doc[name] = {"shape": list(p.data.shape),
                     "data": [float(x) for x in p.data.ravel()]}
    with atomic_write(path) as f:
        json.dump(doc, f, allow_nan=False)


def load_params(path, named_params):
    """Fill the Values in [(name, Value)] from `path`, in place.

    The checkpoint must carry exactly the expected names and shapes, and
    finite numbers. Any fault is a ValidationError naming `path` and, where
    there is one, the parameter.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object of parameters")
    expected = {name for name, _ in named_params}
    if expected != set(doc):
        raise ValidationError(f"{path}: checkpoint parameter names do not match: "
                              f"missing {sorted(expected - set(doc))}, "
                              f"extra {sorted(set(doc) - expected)}")
    for name, p in named_params:
        where = f"{path}: parameter {name}"
        try:
            shape = tuple(doc[name]["shape"])
            if shape != p.data.shape:
                raise ValueError(f"shape {shape} != expected {p.data.shape}")
            arr = np.asarray(doc[name]["data"], dtype=np.float64).reshape(shape)
        except KeyError as exc:
            raise ValidationError(f"{where}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{where}: contains non-finite values")
        p.data = arr
