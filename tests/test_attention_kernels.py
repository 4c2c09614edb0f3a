"""Row chunks give the whole block's bits on other OpenBLAS kernels too.

numpy's bundled OpenBLAS picks its kernels when it loads, and
`OPENBLAS_CORETYPE` forces a named one. For each kernel below, a fresh
interpreter checks the chunked `attention_blocks` against the whole-block
`reference_attention.attention_blocks`, taped and untaped, at budgets from
one block row to whole blocks. Every block's pairs per row (Wq·c) are not
a multiple of 4, the width of a gemv column group, so a product over a
chunk's pairs would group them from the chunk's start rather than the
block's. Bytes are compared within each kernel only.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import graphfill.tensor as T
import reference_attention as R
from test_attention_chunks import taped, untaped

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# ((G, Wq, c) per block, hidden); Wq·c is 1, 6, 7, 15, 30, 63 or 130
CASES = [([(7, 3, 5), (6, 2, 3)], 32),
         ([(9, 1, 7), (5, 5, 6)], 32),
         ([(6, 7, 9)], 32),
         ([(4, 1, 1), (8, 3, 2), (5, 10, 13)], 8),
         ([(7, 3, 5), (9, 1, 7)], 3)]

# the name each forced kernel reports (OpenBLAS calls Prescott "Katmai")
KERNELS = {"Haswell": "Haswell", "Sandybridge": "Sandybridge",
           "Prescott": "Katmai"}


def compare_cases():
    """Check every case at every budget bit for bit; return the number of
    arrays compared."""
    rng = np.random.default_rng(2)
    n_keys, n_queries, d = 11, 6, 4
    compared = 0
    for shapes, hidden in CASES:
        blocks = [(rng.integers(0, n_keys, size=(g, c)),
                   rng.integers(0, n_queries, size=(g, wq)))
                  for g, wq, c in shapes]
        arrays = [rng.normal(size=(n_keys, 5)), rng.normal(size=(n_queries, 3)),
                  rng.normal(size=(8, hidden)), rng.normal(size=hidden),
                  rng.normal(size=(hidden, d)), rng.normal(size=d),
                  rng.normal(size=(d, 1)) * 5.0]
        proj = rng.normal(size=(n_queries, d))
        want = (taped(R.attention_blocks, arrays, blocks, proj)
                + untaped(R.attention_blocks, arrays, blocks))
        row = min(wq * c * hidden * 8 for _, wq, c in shapes)
        whole = max(g * wq * c * hidden * 8 for g, wq, c in shapes)
        saved = T.CHUNK_BYTES
        try:
            for budget in (1, 2 * row, 3 * row, whole):
                T.CHUNK_BYTES = budget
                got = (taped(T.attention_blocks, arrays, blocks, proj)
                       + untaped(T.attention_blocks, arrays, blocks))
                assert len(got) == len(want) == 11
                for k, (g, w) in enumerate(zip(got, want)):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), \
                        (shapes, hidden, budget, k)
                compared += len(got)
        finally:
            T.CHUNK_BYTES = saved
    return compared


CHILD = """
import sys
sys.path[:0] = {paths!r}
import bit_hashes
import test_attention_kernels
print(bit_hashes.openblas_core(), test_attention_kernels.compare_cases())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the forced kernels are x86-64 ones")
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_cases_match_on_forced_kernel(kernel):
    paths = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", CHILD.format(paths=paths)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    core, compared = run.stdout.split()
    if core != KERNELS[kernel]:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran the {core} kernels")
    assert int(compared) == len(CASES) * 4 * 11
