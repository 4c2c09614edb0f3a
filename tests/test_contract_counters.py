"""The counters `tools/bit_hashes.py` prints still read what CI greps.

One training window of each train workload at its own depth (spin L = 4,
spin-h L = 5) puts a fixed number of records on the tape, and the impute
workload's no-grad forward allocates. The megabytes depend on the numpy
build, so no bound is set on them.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.path[:0] = [os.path.join(ROOT, "tools"), os.path.join(ROOT, "perfbench")]
try:
    from bit_hashes import forward_peak, window_tape
    from workloads import make_workload
finally:
    del sys.path[:2]


@pytest.mark.parametrize("name, records", [("spin-train-w24", 30),
                                           ("spinh-train-w96", 46)])
def test_training_window_tape_records(tmp_path, name, records):
    workload = make_workload(name, 11, str(tmp_path))
    workload.setup()
    got, alive, peak = window_tape(workload, 11)
    assert got == records
    assert 0 < alive <= peak


def test_impute_forward_allocates(tmp_path):
    workload = make_workload("spin-impute-block", 11, str(tmp_path))
    workload.setup()
    assert forward_peak(workload) > 0
