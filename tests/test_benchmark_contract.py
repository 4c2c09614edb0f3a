"""The benchmark in perfbench/ still runs against the package.

perfbench hooks package entry points by name at call time (see
perfbench/README.md); a renamed function or changed signature leaves it
without a result line, or drops the metric of a span whose hooks are all
gone. Each subprocess case runs `perfbench/run.py` from the root of the
checkout as its own process, with the shortest run the benchmark allows,
and checks the result line it prints last.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCHMARK = json.load(f)
END_TO_END = [m["name"] for m in _BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in _BENCHMARK["per_layer"]]


def test_every_traced_span_has_a_live_target():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from tracer import SPAN_TARGETS, _resolve
    finally:
        sys.path.pop(0)
    dead = [span for span, targets in SPAN_TARGETS.items()
            if not any(_resolve(t) is not None for t in targets)]
    assert not dead, f"spans with no target left in the package: {dead}"


@pytest.mark.parametrize("workload, trace", [("spin-train-w24", 0),
                                             ("spin-impute-block", 0),
                                             ("spin-train-w24", 1),
                                             ("spinh-train-w96", 1),
                                             ("spin-impute-block", 1)])
def test_benchmark_prints_a_correct_result(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "11", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    expected = PER_LAYER if trace else END_TO_END
    for name in expected:
        assert name in metrics, f"{name} missing from the result line"
        assert math.isfinite(metrics[name]["value"]), name
    if trace:
        assert not [l for l in lines if l.startswith("absent:")], proc.stdout
        # a branch the tracer cannot attribute leaves its pair count at zero
        variant = "spin_h." if workload.startswith("spinh") else "spin."
        pairs = [name for name in PER_LAYER if name.startswith(variant + "pairs.")]
        assert pairs and all(metrics[name]["value"] > 0 for name in pairs), \
            {name: metrics[name]["value"] for name in pairs}
