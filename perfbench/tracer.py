"""Outside-in instrumentation of the graphfill package.

Two kinds of hooks are installed by replacing module attributes, so the
package itself carries no instrumentation:

* `Stamps` keeps only the timestamps the end-to-end metrics need: the end
  of every optimizer step (`graphfill.train.adam_step`), every epoch's
  `progress` callback, and every window forward inside `graphfill impute`
  (`graphfill.cli.spin_forward`).
* `Tracer` wraps the public functions of every layer and records spans
  (name, start, end, parent, step or window id) in memory. A layer's self
  time is its spans' durations minus the time covered by their children.

A hook is installed on the attribute the caller looks up at call time.
`graphfill.spin_h` imports `attend` by name, so both `graphfill.spin.attend`
and `graphfill.spin_h.attend` are wrapped. A target the package no longer
has is skipped and its metric reported absent, never as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# Span name -> the attributes that lead into it, as "module:Owner.attr".
SPAN_TARGETS = {
    "train.loop": ["graphfill.train:train"],
    "train.loss": ["graphfill.train:spin_loss",
                   "graphfill.train:_batch_loss_stacked"],
    "train.validation": ["graphfill.train:_validation_mae"],
    "data.whiten": ["graphfill.train:training_whiten"],
    "optim.adam": ["graphfill.train:adam_step"],
    "optim.clip": ["graphfill.train:clip_global_norm"],
    "tensor.backward": ["graphfill.tensor:backward"],
    "spin.forward": ["graphfill.train:spin_forward",
                     "graphfill.train:spin_forward_batch",
                     "graphfill.cli:spin_forward"],
    "spin.plan": ["graphfill.spin:build_attention_plan",
                  "graphfill.spin:merge_plans"],
    "spin.attend": ["graphfill.spin:attend"],
    "spin_h.forward": ["graphfill.train:spinh_forward",
                       "graphfill.cli:spinh_forward"],
    "spin_h.plan": ["graphfill.spin_h:HubPlan.__init__",
                    "graphfill.spin_h:HubReadPlan.__init__"],
    "spin_h.attend": ["graphfill.spin_h:attend"],
    "nn.mlp": ["graphfill.nn:Mlp.__call__"],
    "encoding.codes": ["graphfill.encoding:EncodingParams.codes_flat"],
    "cli.main": ["graphfill.cli:main"],
    "config.build": ["graphfill.cli:load_run_config",
                     "graphfill.cli:build_params"],
    "data.load": ["graphfill.cli:load_dataset"],
    "data.normalize": ["graphfill.cli:normalize"],
    "graph.build": ["graphfill.cli:build_graph"],
    "checkpoint.load": ["graphfill.cli:load_params"],
    "data.save": ["graphfill.cli:save_grid_csv"],
}

BRANCHES = {"spin": ("self", "cross"), "spin_h": ("hub", "self", "cross")}
PHASES = ("masked", "open")

# Spans that get a self-time metric, "<span>_s" in seconds per job. Attend
# spans are split by the role of the message MLP passed in.
TIME_SPANS = [name for name in SPAN_TARGETS if not name.endswith(".attend")]
TIME_SPANS += [f"{variant}.attend.{branch}.{phase}"
               for variant, branches in BRANCHES.items()
               for branch in branches for phase in PHASES]


def source_of(span_name):
    """The SPAN_TARGETS entry a span name comes from."""
    if span_name in SPAN_TARGETS:
        return span_name
    return span_name.rsplit(".", 2)[0]  # "spin.attend.self.open" -> "spin.attend"


def _resolve(target):
    """(owner object, attribute name) for "module:Owner.attr", or None."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, target, make_wrapper):
        """Replace `target` with make_wrapper(original); False if absent."""
        found = _resolve(target)
        if found is None:
            return False
        owner, attr = found
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Stamps:
    """Step and window timestamps for the untraced (end-to-end) run."""

    def __init__(self):
        self.events = []        # (time, kind): kind is "step" or "epoch"
        self.windows = []       # (seconds, pairs_per_layer) per forward
        self.patches = Patches()

    def progress(self, row):
        """train()'s per-epoch callback: validation ends here."""
        self.events.append((time.perf_counter(), "epoch"))

    def install(self):
        clock, events, windows = time.perf_counter, self.events, self.windows

        def stamp_step(adam_step):
            def step(*args, **kwargs):
                out = adam_step(*args, **kwargs)
                events.append((clock(), "step"))
                return out
            return step

        def stamp_window(forward):
            def window(*args, **kwargs):
                t0 = clock()
                out = forward(*args, **kwargs)
                windows.append((clock() - t0, out.pairs_per_layer))
                return out
            return window

        self.patches.wrap("graphfill.train:adam_step", stamp_step)
        self.patches.wrap("graphfill.cli:spin_forward", stamp_window)

    def restore(self):
        self.patches.restore()

    def step_seconds(self, job_start):
        """Per-step intervals with each epoch's validation left out.

        A step starts when the previous step or the previous epoch's
        `progress` callback ended, so a step interval never contains
        validation time.
        """
        out, last = [], job_start
        for t, kind in self.events:
            if kind == "step":
                out.append(t - last)
            last = t
        return out


class Tracer:
    """In-memory spans at every layer boundary of the package."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, item, count]
        self.child_time = []     # time covered by each span's children
        self.stack = []
        self.item = 0            # current step or window id
        self.windows_started = 0
        self.roles = {}          # id(message MLP) -> (variant, branch, phase)
        self.tape_records = []   # records on the tape at each backward
        self.patches = Patches()
        self.absent = []

    # -- attribution -------------------------------------------------------

    def register(self, params):
        """Map each message MLP of `params` to its (variant, branch, phase)."""
        for layer, block in enumerate(params.layers):
            variant = "spin_h" if "hub_msg" in block else "spin"
            phase = PHASES[0] if layer < params.n_masked else PHASES[1]
            for branch in BRANCHES[variant]:
                self.roles[id(block[f"{branch}_msg"])] = (variant, branch, phase)

    def _attend_label(self, args, kwargs):
        mlp = kwargs["msg_mlp"] if "msg_mlp" in kwargs else args[7]
        key_idx = kwargs["key_idx"] if "key_idx" in kwargs else args[2]
        role = self.roles.get(id(mlp))
        if role is None:
            return "unattributed.attend", len(key_idx)
        variant, branch, phase = role
        return f"{variant}.attend.{branch}.{phase}", len(key_idx)

    # -- spans -------------------------------------------------------------

    def _enter(self, name, count=0):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item,
                           count])
        self.child_time.append(0.0)
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _exit(self, index):
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.child_time[span[3]] += end - span[1]

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def install(self):
        tracer = self

        def make(name, target):
            in_cli = target.startswith("graphfill.cli:")

            def wrapper_factory(original):
                def traced(*args, **kwargs):
                    label, count = name, 0
                    if name.endswith(".attend"):
                        label, count = tracer._attend_label(args, kwargs)
                    elif name.endswith(".forward"):
                        batch = args[0] if args else kwargs["window"]
                        count = len(batch) if isinstance(batch, list) else 1
                        if in_cli:
                            tracer.item = tracer.windows_started
                            tracer.windows_started += 1
                    elif name == "tensor.backward":
                        tracer.tape_records.append(len(args[0].tape.records))
                    index = tracer._enter(label, count)
                    try:
                        out = original(*args, **kwargs)
                    finally:
                        tracer._exit(index)
                    if name == "optim.adam":
                        tracer.item += 1
                    elif name == "config.build" and hasattr(out, "layers"):
                        tracer.register(out)
                    return out
                return traced
            return wrapper_factory

        for name, targets in SPAN_TARGETS.items():
            found = [t for t in targets if self.patches.wrap(t, make(name, t))]
            if not found:
                self.absent.append(name)

    def restore(self):
        self.patches.restore()

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        out = {}
        for k, span in enumerate(self.spans):
            own = (span[2] - span[1]) - self.child_time[k]
            out[span[0]] = out.get(span[0], 0.0) + own
        return out

    def counts(self):
        out = {}
        for span in self.spans:
            if span[5]:
                out[span[0]] = out.get(span[0], 0) + span[5]
        return out

    def has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for k, (name, start, end, parent, item, count) in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent,
                                    "item": item, "count": count}) + "\n")
