"""Tape size and traced memory of one window per workload.

    python3 tools/tape_memory.py --seed 11

Sets up each workload of `perfbench/workloads.py` for the checkout this
file sits in, with BLAS on one thread. On each train workload it runs one
training window (the first W steps, whitened with the seed) the way a
training step does: forward and layer-wise loss on a fresh tape, then
backward. It prints one line per train workload:

* `tape_records`, the records on the tape when backward starts, the root
  included;
* `backward_start_mb`, the bytes `tracemalloc` counts alive at that point,
  allocated since the forward began (parameters and data excluded);
* `peak_mb`, the `tracemalloc` peak over the forward and the backward.

On the impute workload it runs one no-grad `spin_forward` over the first
window, the one its set-up runs, and prints `forward_peak_mb`, the
`tracemalloc` peak of that forward.

A first pass, not reported, builds what the forward caches. The numbers
depend only on the tree and the seed, not on the machine's load, so they
show where a change in the workloads' peak RSS comes from.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def window_tape(workload, seed):
    """(records, bytes alive at backward start, peak bytes) of one window."""
    import numpy as np

    from graphfill import tensor as T
    from graphfill.data import SpatioTemporalWindow, training_whiten
    from graphfill.train import forward_fn, spin_loss

    width, ds = workload.spec.width, workload.dataset
    win = SpatioTemporalWindow(values=ds.values[:width], mask=ds.mask[:width],
                               eval_mask=ds.eval_mask[:width],
                               step_offsets=ds.timestamps[:width])
    input_mask, loss_mask = training_whiten(win, rng=np.random.default_rng(seed))
    fwd = forward_fn(workload.params)
    for p in workload.params.parameters():
        p.grad = None
    gc.collect()
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            term = spin_loss(fwd(win, workload.graph, workload.params,
                                 input_mask=input_mask), win.values, loss_mask)
            root = T.div(term, float(workload.spec.batch_size))
            records = len(tape.records)
            alive = tracemalloc.get_traced_memory()[0]
            T.backward(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return records, alive, peak


def forward_peak(workload):
    """tracemalloc peak bytes of one no-grad forward over the first window."""
    import numpy as np

    from graphfill import tensor as T
    from graphfill.data import SpatioTemporalWindow
    from graphfill.spin import spin_forward

    w, mask = workload.spec.width, workload.mask[:workload.spec.width]
    win = SpatioTemporalWindow(values=np.where(mask, workload.truth[:w], 0.0),
                               mask=mask, eval_mask=np.zeros_like(mask),
                               step_offsets=np.arange(w, dtype=np.float64))
    gc.collect()
    tracemalloc.start()
    try:
        with T.no_grad():
            spin_forward(win, workload.graph, workload.params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    from run import pin_blas_threads
    pin_blas_threads()  # before numpy loads
    from workloads import WORKLOADS, TrainWorkload, make_workload

    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            workload = make_workload(name, args.seed, workdir)
            workload.setup()
            if not isinstance(workload, TrainWorkload):
                forward_peak(workload)  # builds the forward's caches
                print(f"{name} forward_peak_mb {forward_peak(workload) / 1e6:.1f}")
                continue
            window_tape(workload, args.seed)  # builds the forward's caches
            records, alive, peak = window_tape(workload, args.seed)
            print(f"{name} tape_records {records} "
                  f"backward_start_mb {alive / 1e6:.1f} peak_mb {peak / 1e6:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
