"""graphfill benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload spin-train-w24 --seed 11 \
        --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`, never from an installed copy. `--trace 0` measures the end-to-end
metrics with only step and window timestamps installed; `--trace 1` runs
one untraced job, then traced jobs, and reports per-layer self times,
counts and the tracing overhead. The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the lines before it are a
human-readable report. Run outputs go to `.perfbench/` in the checkout.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
BLAS_THREADS = 1
END_TO_END = {"setup_s": "s", "run_s": "s", "op_s_p50": "s",
              "peak_rss_mb": "MB", "mae": "norm"}


def pin_blas_threads():
    """Fix BLAS threads before numpy loads: at most BLAS_THREADS and nproc."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads):
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def run_jobs(workload, seconds, tracer=None):
    """Run the workload's job as often as fits in `seconds`, at least once.

    The count is fixed after the first job, so a run always measures whole
    jobs of identical work.
    """
    from tracer import Stamps

    jobs, n_jobs = [], 1
    while len(jobs) < n_jobs:
        stamps = Stamps()
        stamps.install()
        scope = tracer.span("bench.job") if tracer else contextlib.nullcontext()
        try:
            job = workload.job(stamps, scope)
        finally:
            stamps.restore()
        jobs.append(job)
        if len(jobs) == 1:
            n_jobs = max(1, round(seconds / job["seconds"]))
    return jobs


def end_to_end(setup_s, jobs):
    ops = [s for job in jobs for s in job["op_seconds"]]
    return {"setup_s": setup_s,
            "run_s": statistics.median(job["seconds"] for job in jobs),
            "op_s_p50": statistics.median(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mae": jobs[0]["quality"]}


def per_layer(workload, tracer, traced, untraced_run_s, checks):
    """Per-job self times and counts from the traced jobs."""
    from tracer import BRANCHES, PHASES, TIME_SPANS, source_of

    n = len(traced)
    own = tracer.self_times()
    counts = tracer.counts()
    absent = set(tracer.absent)
    metrics, units, missing = {}, {}, []
    for span in TIME_SPANS:
        name = f"{span}_s"
        if source_of(span) in absent:
            missing.append(name)
            continue
        metrics[name] = own.get(span, 0.0) / n
        units[name] = "s"
    for variant, branches in BRANCHES.items():
        for b in branches:
            for ph in PHASES:
                name = f"{variant}.pairs.{b}.{ph}"
                if f"{variant}.attend" in absent:
                    missing.append(name)
                    continue
                metrics[name] = counts.get(f"{variant}.attend.{b}.{ph}", 0) / n
                units[name] = "count"
    if "tensor.backward" not in absent:
        records = tracer.tape_records
        metrics["tensor.tape_records"] = (statistics.mean(records)
                                          if records else 0.0)
        units["tensor.tape_records"] = "count"
    else:
        missing.append("tensor.tape_records")
    if absent & {"train.loop", "train.validation", "spin.forward",
                 "spin_h.forward"}:
        missing.append("train.windows_used_ratio")
    elif workload.unit == "step":
        trained = sum(
            span[5] for k, span in enumerate(tracer.spans)
            if span[0] in ("spin.forward", "spin_h.forward")
            and tracer.has_ancestor(k, "train.loop")
            and not tracer.has_ancestor(k, "train.validation"))
        drawn = sum(workload.windows_drawn(job) for job in traced)
        metrics["train.windows_used_ratio"] = trained / drawn
    else:
        metrics["train.windows_used_ratio"] = 0.0
    units["train.windows_used_ratio"] = "ratio"
    # The job's own span is the root: its self time is the remainder, and
    # its duration is the traced run_s that the layers account for.
    run_s = sum(span[2] - span[1] for span in tracer.spans
                if span[0] == "bench.job") / n
    metrics["trace.remainder_s"] = own["bench.job"] / n
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = run_s - untraced_run_s
    units.update({"trace.remainder_s": "s", "trace.run_s": "s",
                  "trace.overhead_s": "s"})
    unattributed = own.get("unattributed.attend")
    checks.expect(unattributed is None,
                  "attend called with a message MLP of unknown role")
    return metrics, units, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphfill", "__init__.py")):
        print(f"error: no graphfill sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    import numpy  # noqa: F401  (environment, not part of the import time)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import graphfill.cli  # noqa: F401
    import graphfill.train  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(graphfill.cli.__file__).startswith(SRC + os.sep):
        print(f"error: graphfill imported from {graphfill.cli.__file__}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer
    from workloads import WORKLOADS, Checks, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    workload = make_workload(args.workload, args.seed, workdir)
    checks = Checks()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(threads)}
    tracer = Tracer() if args.trace else None
    jobs, traced, failed_ops = [], [], 0
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        report["setup"] = {"import_s": import_s, "repeats_s": setup_times}
        try:
            if tracer is None:
                jobs = run_jobs(workload, args.seconds)
            else:
                jobs = run_jobs(workload, 0.0)
                tracer.register(workload.params)
                tracer.install()
                try:
                    traced = run_jobs(workload, args.seconds - jobs[0]["seconds"],
                                      tracer)
                finally:
                    tracer.restore()
        except Exception:  # a step or window that raised: report, count it
            failed_ops = 1
            report["error"] = traceback.format_exc()
        done = jobs + traced
        report["reference_mae"] = workload.check(checks, done) if done else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {}
    if jobs:
        e2e = end_to_end(import_s + statistics.median(setup_times), jobs)
    metrics, units = e2e, dict(END_TO_END)
    if tracer is not None:
        metrics, units = {}, {}
        if traced:
            metrics, units, report["absent"] = per_layer(
                workload, tracer, traced,
                statistics.median(j["seconds"] for j in jobs), checks)
            tracer.dump(os.path.join(results_dir, f"{tag}-spans.jsonl"))
    checks.expect(bool(metrics), "no job completed")
    ops = sum(len(job["op_seconds"]) for job in done) + failed_ops
    attempted = ops + checks.attempted
    failed = failed_ops + len(checks.failures)
    report.update({"jobs": len(jobs), "traced_jobs": len(traced), "ops": ops,
                   "op_unit": workload.unit, "check_failures": checks.failures,
                   "error_rate": failed / attempted, "end_to_end": e2e,
                   "per_layer": metrics if tracer else None})
    print_report(report, jobs, workload.unit)
    if traced:
        print_accounting(metrics, report["absent"])
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def print_report(report, jobs, unit):
    env, e2e = report["environment"], report["end_to_end"]
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {report['trace']}: {report['jobs']} untraced and "
          f"{report['traced_jobs']} traced job(s), {report['ops']} {unit}s")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for failure in report["check_failures"]:
        print(f"check failed: {failure}")
    if "error" in report:
        print(f"error: {report['error'].strip().splitlines()[-1]}")
    if not e2e:
        return
    ops = [s for job in jobs for s in job["op_seconds"]]
    rows = [("setup_s", e2e["setup_s"], "s"), ("run_s", e2e["run_s"], "s")]
    if unit == "step":
        rows += [("step_s_p50", e2e["op_s_p50"], f"s (n={len(ops)})"),
                 ("val_mae", e2e["mae"], "norm")]
    else:
        rows += [("window_s_p50", e2e["op_s_p50"], f"s (n={len(ops)})"),
                 ("window_s_p95",
                  statistics.quantiles(ops, n=20, method="inclusive")[-1],
                  f"s (n={len(ops)})"),
                 ("windows_per_s", len(ops) / sum(j["seconds"] for j in jobs),
                  "1/s"),
                 ("impute_mae", e2e["mae"], "norm")]
    rows += [("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
             ("error_rate", report["error_rate"], "ratio")]
    for name, value, unit_text in rows:
        print(f"metric {name} {value:.6g} {unit_text}")


def print_accounting(metrics, absent):
    """Layer self times plus the remainder add up to the traced run_s."""
    if absent:
        print("absent: " + " ".join(absent))
    parts = {k: v for k, v in metrics.items()
             if k.endswith("_s") and not k.startswith("trace.")}
    total = sum(parts.values()) + metrics["trace.remainder_s"]
    for name, value in sorted(parts.items(), key=lambda kv: -kv[1]):
        if value:
            print(f"layer {name} {value:.6f} s")
    print(f"layer trace.remainder_s {metrics['trace.remainder_s']:.6f} s")
    print(f"layers+remainder {total:.6f} s = traced run_s "
          f"{metrics['trace.run_s']:.6f} s; tracing overhead "
          f"{metrics['trace.overhead_s']:+.6f} s")


if __name__ == "__main__":
    sys.exit(main())
