"""The benchmark in perfbench/ still runs against the package.

perfbench hooks package entry points by name at call time (see
perfbench/README.md); a renamed function or changed signature leaves it
without a result line. Each case runs `perfbench/run.py` from the root of
the checkout as its own process, with the shortest run the benchmark
allows, and checks the result line it prints last.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = [m["name"] for m in json.load(f)["end_to_end"]]


@pytest.mark.parametrize("workload, trace", [("spin-train-w24", 0),
                                             ("spin-impute-block", 0),
                                             ("spin-train-w24", 1)])
def test_benchmark_prints_a_correct_result(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "11", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    if trace == 0:
        metrics = result["metrics"]
        for name in END_TO_END:
            assert name in metrics, f"{name} missing from the result line"
            assert math.isfinite(metrics[name]["value"]), name
