"""JSON run configuration: one schema, one reader, one writer.

A run config is one JSON document with sections

    data      where the series and the graph come from
    model     architecture variant and dimensions (with hubs, encoding)
    train     optimization schedule
    inject    missing-data policy applied on top of the loaded mask
    output    artifact directory
    synth     synthetic-generator knobs (synth command only)
    benchmark complexity-report knobs (benchmark command only)

Each section is a dataclass whose fields are declared with `opt`: the
field's JSON key, its kind (int, number, bool, str, a list of numbers, a
free object, or a nested section class), its default and its range.
`parse(cls, d, where)` reads any section, nested ones included: it
rejects unknown keys, wrong types, out-of-range values and sections that
are not objects, and every message names the dotted field
('model.hubs.K'). `dump(obj)` writes a section back out under the same
keys, and `check(obj, where)` re-runs the field checks on a section
built in code. Rules that span fields live in each section's `resolve`,
which `parse` calls after the field checks.

Everything except file paths and the subcommand lives in the config so a
run is reproducible from its resolved snapshot alone.
"""

from __future__ import annotations

import inspect
import json
import operator
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from numbers import Integral, Real

import numpy as np

from .data import DEFAULT_SPLIT, inject_block_missing, inject_point_missing
from .encoding import DEFAULT_D_Q, DEFAULT_D_V, DEFAULT_HIDDEN, DEFAULT_PERIODS
from .errors import ValidationError
from .spin import D_H, N_LAYERS, N_MASKED_LAYERS, SpinParameters
from .spin_h import D_Z, N_HUBS, N_LAYERS_H, SpinHParameters
from .synth import synth_series

VARIANTS = ("spin", "spin-h")


def _is_number(v):
    return isinstance(v, Real) and not isinstance(v, bool)


# kind: (description, accepts, convert)
KINDS = {
    "int": ("an integer",
            lambda v: isinstance(v, Integral) and not isinstance(v, bool), int),
    "number": ("a number", _is_number, float),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "numbers": ("a non-empty list of numbers",
                lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                and all(map(_is_number, v)),
                lambda v: tuple(map(float, v))),
    "object": ("an object", lambda v: isinstance(v, dict), dict),
}
BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
          "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def opt(key, kind, default=MISSING, ge=None, gt=None, le=None, lt=None,
        choices=None):
    """Declare a section field.

    key is its JSON key (None keeps it out of the document: code fills
    it); kind is a KINDS name or a section class; ge/gt/le/lt bound a
    number or every entry of a list; choices lists the allowed values. A
    field whose default is None may be given as null, meaning unset.
    """
    meta = {"key": key, "kind": kind, "ge": ge, "gt": gt, "le": le, "lt": lt,
            "choices": choices}
    if default is MISSING and is_dataclass(kind):
        return field(default_factory=kind, metadata=meta)
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


# W, stride and split: keys of `data`, copied into the trainer's config
DEFAULT_W = 24  # window width, and the stride when none is given
WINDOW = {"kind": "int", "ge": 1}
SPLIT = {"kind": "numbers", "default": DEFAULT_SPLIT, "gt": 0}


def _join(where, key):
    return f"{where}.{key}" if where else key


def _value(f, raw, where):
    """One field's value checked against its declaration, converted."""
    meta = f.metadata
    kind = meta["kind"]
    if raw is None and f.default is None:  # null leaves an optional field unset
        return None
    if is_dataclass(kind):
        return check(raw, where) if isinstance(raw, kind) else parse(kind, raw, where)
    what, accepts, convert = KINDS[kind]
    if not accepts(raw):
        raise ValidationError(f"'{where}' must be {what}, got {raw!r}")
    value = convert(raw)
    entries = value if kind == "numbers" else (value,)
    for name, (holds, sign) in BOUNDS.items():
        bound = meta[name]
        if bound is not None and not all(holds(x, bound) for x in entries):
            raise ValidationError(f"'{where}' must be {sign} {bound}, got {raw!r}")
    if meta["choices"] is not None and value not in meta["choices"]:
        raise ValidationError(
            f"'{where}' must be one of {meta['choices']}, got {raw!r}")
    return value


def parse(cls, d, where):
    """Read section `cls` from the JSON object `d`; `where` is its dotted name."""
    if not isinstance(d, dict):
        raise ValidationError(f"'{where or 'config root'}' must be an object, "
                              f"got {d!r}")
    known = {f.metadata["key"]: f for f in fields(cls)
             if f.metadata["key"] is not None}
    for key in d:
        if key not in known:
            raise ValidationError(f"'{_join(where, key)}' is not a known key; "
                                  f"expected one of {sorted(known)}")
    kwargs = {}
    for key, f in known.items():
        if key in d:
            kwargs[f.name] = _value(f, d[key], _join(where, key))
        elif f.default_factory is f.metadata["kind"]:  # absent section: its defaults
            kwargs[f.name] = parse(f.default_factory, {}, _join(where, key))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"'{_join(where, key)}' is required")
    obj = cls(**kwargs)
    if hasattr(obj, "resolve"):
        obj.resolve()  # rules that span fields
    return obj


def check(obj, where):
    """Run the field checks of `parse` on a section built in code."""
    for f in fields(obj):
        _value(f, getattr(obj, f.name), _join(where, f.metadata["key"] or f.name))
    return obj


def dump(obj):
    """The JSON object of a section, under its declared keys."""
    out = {}
    for f in fields(obj):
        if f.metadata["key"] is None:
            continue
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = dump(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        out[f.metadata["key"]] = value
    return out


@dataclass
class DataConfig:
    values_csv: str = opt("values_csv", "str")
    mask_csv: str = opt("mask_csv", "str", None)
    distances_csv: str = opt("distances_csv", "str", None)
    edges_csv: str = opt("edges_csv", "str", None)
    gamma: float = opt("gamma", "number", None, gt=0)
    delta: float = opt("delta", "number", None, gt=0)
    width: int = opt("W", default=DEFAULT_W, **WINDOW)
    stride: int = opt("stride", default=None, **WINDOW)  # None: W
    split: tuple = opt("split", **SPLIT)

    def resolve(self):
        if (self.distances_csv is None) == (self.edges_csv is None):
            raise ValidationError(
                "exactly one of 'data.distances_csv' / 'data.edges_csv' is required")
        if self.distances_csv is not None:
            for k in ("gamma", "delta"):
                if getattr(self, k) is None:
                    raise ValidationError(
                        f"'data.{k}' is required with 'data.distances_csv'")
        if self.stride is None:
            self.stride = self.width
        if len(self.split) != 3 or abs(sum(self.split) - 1.0) > 1e-9:
            raise ValidationError(
                "'data.split' must be three positive fractions summing to 1, "
                f"got {list(self.split)}")


@dataclass
class HubConfig:
    n_hubs: int = opt("K", "int", N_HUBS, ge=1)
    d_z: int = opt("d_z", "int", D_Z, ge=1)
    per_node_hubs: bool = opt("per_node_hubs", "bool", False)


@dataclass
class EncodingConfig:
    periods: tuple = opt("periods", "numbers", DEFAULT_PERIODS, gt=0)
    d_v: int = opt("d_v", "int", DEFAULT_D_V, ge=1)
    d_q: int = opt("d_q", "int", DEFAULT_D_Q, ge=1)


@dataclass
class ModelConfig:
    variant: str = opt("variant", "str", "spin", choices=VARIANTS)
    n_layers: int = opt("L", "int", None, ge=1)  # None: the variant's default
    n_masked: int = opt("eta", "int", N_MASKED_LAYERS, ge=1)
    d_h: int = opt("d_h", "int", D_H, ge=1)
    hidden: int = opt("hidden", "int", DEFAULT_HIDDEN, ge=1)
    hubs: HubConfig = opt("hubs", HubConfig)
    encoding: EncodingConfig = opt("encoding", EncodingConfig)

    def resolve(self):
        if self.n_layers is None:
            self.n_layers = N_LAYERS_H if self.variant == "spin-h" else N_LAYERS
        if self.n_masked > self.n_layers:
            raise ValidationError(f"'model.eta' ({self.n_masked}) cannot exceed "
                                  f"'model.L' ({self.n_layers})")


@dataclass
class SubsampleConfig:
    n_seeds: int = opt("n_seeds", "int", ge=1)
    k_hops: int = opt("k_hops", "int", ge=0)


@dataclass
class TrainConfig:
    """The trainer's settings: the `train` section plus the data windowing.

    width, stride and split are not keys of `train`; a parsed RunConfig
    fills them from its `data` section.
    """
    epochs_max: int = opt("epochs_max", "int", 300, ge=1)
    batches_per_epoch: int = opt("batches_per_epoch", "int", 300, ge=1)
    batch_size: int = opt("batch_size", "int", 8, ge=1)
    patience: int = opt("patience", "int", 40, ge=1)
    lr: float = opt("lr", "number", 0.0008, ge=0)
    warmup_steps: int = opt("warmup_steps", "int", 12, ge=1)
    restart_period: int = opt("restart_period", "int", 100, ge=1)
    seed: int = opt("seed", "int", 0, ge=0)
    subsample: SubsampleConfig = opt("subsample", SubsampleConfig, None)
    width: int = opt(None, default=DEFAULT_W, **WINDOW)
    stride: int = opt(None, default=DEFAULT_W, **WINDOW)
    split: tuple = opt(None, **SPLIT)

    def __post_init__(self):
        if isinstance(self.subsample, dict):  # as callers in code pass it
            self.subsample = parse(SubsampleConfig, self.subsample,
                                   "train.subsample")

    def validate(self):
        """Re-run the field checks on this (possibly hand-built) config and
        require patience <= epochs_max, so early stopping can trigger."""
        check(self, "train")
        if self.patience > self.epochs_max:
            raise ValidationError(f"'train.patience' ({self.patience}) exceeds "
                                  f"'train.epochs_max' ({self.epochs_max})")
        return self


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


POINT, BLOCK = _defaults(inject_point_missing), _defaults(inject_block_missing)


@dataclass
class PointParams:
    rate: float = opt("rate", "number", POINT["rate"], ge=0, lt=1)


@dataclass
class SweepParams:
    p: float = opt("p", "number", ge=0, lt=1)


@dataclass
class BlockParams:
    point_rate: float = opt("point_rate", "number", BLOCK["point_rate"], ge=0, lt=1)
    failure_prob: float = opt("failure_prob", "number", BLOCK["failure_prob"],
                              ge=0, le=1)
    len_min: int = opt("len_min", "int", BLOCK["len_min"], ge=1)
    len_max: int = opt("len_max", "int", BLOCK["len_max"], ge=1)

    def resolve(self):
        if self.len_min > self.len_max:
            raise ValidationError(
                f"'inject.params.len_min' ({self.len_min}) exceeds "
                f"'inject.params.len_max' ({self.len_max})")


@dataclass
class NoParams:
    pass


# policy: the injector keyword arguments its params may set
INJECT_PARAMS = {"point": PointParams, "block": BlockParams,
                 "sweep": SweepParams, "none": NoParams}


@dataclass
class InjectConfig:
    """params stay the given object, passed to the injector as keyword
    arguments; parsing them checks keys, kinds and ranges only."""
    policy: str = opt("policy", "str", "none", choices=tuple(INJECT_PARAMS))
    params: dict = opt("params", "object", {})
    seed: int = opt("seed", "int", 0, ge=0)

    def resolve(self):
        parse(INJECT_PARAMS[self.policy], self.params, "inject.params")


@dataclass
class OutputConfig:
    dir: str = opt("dir", "str", "runs/out")


SYNTH = _defaults(synth_series)


@dataclass
class SynthConfig:
    """Keyword arguments of `synth_series`, with its defaults."""
    n_nodes: int = opt("n_nodes", "int", SYNTH["n_nodes"])
    n_steps: int = opt("n_steps", "int", SYNTH["n_steps"])
    seed: int = opt("seed", "int", SYNTH["seed"], ge=0)
    periods: tuple = opt("periods", "numbers", SYNTH["periods"], gt=0)
    noise_std: float = opt("noise_std", "number", SYNTH["noise_std"], ge=0)
    target_neighbors: int = opt("target_neighbors", "int",
                                SYNTH["target_neighbors"], ge=1)


@dataclass
class BenchmarkConfig:
    n_nodes: int = opt("n_nodes", "int", 24, ge=1)
    seed: int = opt("seed", "int", 0, ge=0)
    repeats: int = opt("repeats", "int", 3, ge=1)


@dataclass
class RunConfig:
    data: DataConfig = opt("data", DataConfig, None)
    model: ModelConfig = opt("model", ModelConfig)
    train: TrainConfig = opt("train", TrainConfig)
    inject: InjectConfig = opt("inject", InjectConfig)
    output: OutputConfig = opt("output", OutputConfig)
    synth: SynthConfig = opt("synth", SynthConfig)
    benchmark: BenchmarkConfig = opt("benchmark", BenchmarkConfig)

    @classmethod
    def from_dict(cls, doc):
        return parse(cls, doc, "")

    def to_dict(self):
        doc = dump(self)
        if self.data is None:
            del doc["data"]
        return doc

    def resolve(self):
        if self.data is None:
            return
        data = self.data
        self.train.width, self.train.stride = data.width, data.stride
        self.train.split = data.split
        if self.model.variant == "spin-h" and self.model.hubs.n_hubs >= data.width:
            warnings.warn(
                f"hub count K={self.model.hubs.n_hubs} >= window width "
                f"W={data.width}; the hub bottleneck saves nothing at this size",
                stacklevel=2)


def load_run_config(path) -> RunConfig:
    """Read and resolve a config file; every error message starts with `path`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return RunConfig.from_dict(doc)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def build_params(model: ModelConfig, n_nodes: int, seed: int):
    """Construct the parameter object a config describes."""
    rng = np.random.default_rng(seed)
    common = dict(n_nodes=n_nodes, d_h=model.d_h, n_layers=model.n_layers,
                  n_masked=model.n_masked, hidden=model.hidden,
                  periods=model.encoding.periods, d_v=model.encoding.d_v,
                  d_q=model.encoding.d_q, rng=rng)
    if model.variant == "spin":
        return SpinParameters(**common)
    return SpinHParameters(d_z=model.hubs.d_z, n_hubs=model.hubs.n_hubs,
                           per_node_hubs=model.hubs.per_node_hubs, **common)
