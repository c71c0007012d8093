"""ATree benchmark: pinned workloads timed end to end, or traced per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload linear-desk20 --seed 0 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all

``--trace 0`` sets up the inputs several times, runs one full iteration of
the workload (see workloads.py) and repeats the iteration while another
repeat fits in ``--seconds`` (always at least one). It reports the
end-to-end metrics of the run, with times scaled to a calm host (clock.py;
see ``untraced``). ``--trace 1`` runs two iterations untraced and one with
every listed public function wrapped in a span (spans.py), and reports
per-layer calls, self time and counters plus the tracing overhead: the
scaled time of the timed operations in the traced iteration minus that in
the second untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(environment, counters, check results, sample percentiles) goes to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json`` and, when traced,
the spans to ``.bench_out/spans_<workload>_seed<seed>.jsonl``.

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

try:
    import atree
except ImportError as exc:
    sys.exit(f"cannot import atree from {SRC}: {exc}")
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from clock import ReferenceClock  # noqa: E402
from spans import Patches, SpanRecorder, resolve  # noqa: E402

SETUP_REPEATS = 15

# name -> unit; the end-to-end metrics of an untraced run.
END_TO_END = {
    "setup_s": "s", "train_s": "s", "eval_us_per_instance": "us",
    "predict_us_p50": "us", "predict_us_p99": "us", "ova_train_s": "s",
    "ova_eval_us_per_instance": "us", "cli_s": "s", "peak_rss_mb": "MB",
    "accuracy": "fraction", "relative_complexity": "ratio", "success_ratio": "fraction",
}

# Counters (from returned objects) reported by the traced run, with units.
COUNTERS = {
    "boosting.rounds": "count", "boosting.stump_searches": "count",
    "tree.nodes": "count", "tree.internal_nodes": "count",
    "tree.passthrough_nodes": "count", "tree.depth": "count",
    "tree.starred_samples": "count", "tree.model_bytes": "bytes",
    "svm.support_vectors": "count", "svm.ova_support_vectors": "count",
    "svm.kernel_matrix.entries": "count", "svm.kernel_matrix.bytes_computed": "bytes",
    "metrics.trace_length_mean": "count", "metrics.trace_length_p99": "count",
    "metrics.trace_length_max": "count", "metrics.kernel_computations_mean": "count",
    "metrics.kernel_computations_uncached_mean": "count",
    "metrics.kernel_cache_hit_ratio": "fraction",
    "metrics.ova_kernel_computations_mean": "count",
}
# Spans reported as <target>.calls and <target>.self_s.
SPAN_METRICS = (
    "boosting.train_stump", "boosting.adaboost_train", "boosting.prob_positive_batch",
    "tree.entropy_split", "tree.partition_samples", "tree.predict",
    "tree.serialize", "tree.deserialize", "svm.train_linear_svm",
    "svm.train_kernel_svm", "svm.kernel_matrix", "svm.decision_value",
    "svm.decision_values_batch", "metrics.evaluate_atree",
    "metrics.evaluate_one_vs_all", "metrics.train_one_vs_all",
    "dataset.generate_gaussian_blobs", "dataset.split_train_test",
    "dataset.write_csv", "dataset.load_csv", "cli.cmd_eval",
)
# Spans reported by the summed duration of their outermost calls.
PHASE_METRICS = ("tree.build_phase1", "tree.attach_svms_phase2")


def per_layer_units():
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in PHASE_METRICS:
        units[f"{name}.s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def git_commit():
    """HEAD of the checkout, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "nproc": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
            "seed": seed, "git_commit": git_commit()}


def untraced(w, seed, seconds, workdir):
    """End-to-end metrics of one run.

    Every time is taken with a ReferenceClock (clock.py), which scales out
    the host's changing speed. Set-up runs SETUP_REPEATS times and every
    other timed operation repeats across the run; each metric is the median
    of its samples. Predict latency is first reduced to one value per test
    instance (its median over the run's passes) and then summarised by p50
    and p99 over the instances. The record keeps the unscaled wall times.
    """
    clock = ReferenceClock()
    patches = Patches()
    for target, kind in workloads.SPLIT_POINTS.items():
        fn = resolve(target)
        if fn is not None:
            patches.replace(fn, clock.split_after(fn, kind))
    try:
        return _untraced(w, seed, seconds, workdir, clock)
    finally:
        patches.restore()


def _untraced(w, seed, seconds, workdir, clock):
    setups = []
    for _ in range(SETUP_REPEATS):
        (train, test), _, scaled = clock.time(workloads.make_inputs, w, seed, workdir)
        setups.append(scaled)
    start = time.perf_counter()
    first = workloads.run_iteration(w, train, test, workdir, clock)
    samples, wall, counters = first.samples, first.wall, first.counters
    failures, attempted, iterations = list(first.failures), first.attempted, 1
    while True:
        t0 = time.perf_counter()
        it = workloads.run_iteration(w, train, test, workdir, clock, index=iterations,
                                     previous=first)
        last = time.perf_counter() - t0
        for k in samples:
            samples[k].extend(it.samples[k])
            wall[k].extend(it.wall[k])
        failures += it.failures
        attempted += it.attempted + 1
        if it.counters != counters:
            failures.append("counters repeat exactly between iterations")
        iterations += 1
        if time.perf_counter() - start + last > seconds:
            break
    per_instance = np.median(np.reshape(samples["predict_us"], (-1, len(test))), axis=0)
    p50, p99 = np.percentile(per_instance, [50, 99])
    values = {
        "setup_s": statistics.median(setups),
        "train_s": statistics.median(samples["train_s"]),
        "eval_us_per_instance": statistics.median(samples["eval_us_per_instance"]),
        "predict_us_p50": float(p50),
        "predict_us_p99": float(p99),
        "ova_train_s": statistics.median(samples["ova_train_s"]),
        "ova_eval_us_per_instance": statistics.median(samples["ova_eval_us_per_instance"]),
        "cli_s": statistics.median(samples["cli_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": counters["accuracy"],
        "relative_complexity": counters["relative_complexity"],
        "success_ratio": 1.0 - len(failures) / attempted,
    }

    def percentiles(v):
        return dict(zip(("p0", "p10", "p25", "p50", "p75", "p90", "p100"),
                        np.percentile(v, [0, 10, 25, 50, 75, 90, 100]).tolist()))

    detail = {"iterations": iterations, "setup_runs": len(setups),
              "predict_instances": len(test),
              "sample_counts": {k: len(v) for k, v in samples.items()},
              "scaled_percentiles": {k: percentiles(v) for k, v in samples.items()},
              "wall_percentiles": {k: percentiles(v) for k, v in wall.items()},
              "counters": counters}
    return values, END_TO_END, attempted, failures, detail


def traced(w, seed, workdir):
    train, test = workloads.make_inputs(w, seed, workdir)
    clock = ReferenceClock()
    # The first iteration warms the process up; the second is the untraced
    # baseline of the tracing overhead.
    warm = workloads.run_iteration(w, train, test, workdir, clock)
    plain = workloads.run_iteration(w, train, test, workdir, clock)

    kernel = {"entries": 0, "bytes": 0}

    def count_kernel(result):
        kernel["entries"] += result.size
        kernel["bytes"] += result.nbytes

    recorder = SpanRecorder(workloads.TRACE_TARGETS, {"svm.kernel_matrix": count_kernel})
    recorder.install()
    try:
        recorder.trace_id += 1
        workloads.make_inputs(w, seed, workdir)
        it = workloads.run_iteration(w, train, test, workdir, clock, recorder=recorder)
    finally:
        recorder.uninstall()
    recorder.write(OUT / f"spans_{w.name}_seed{seed}.jsonl")

    failures = warm.failures + plain.failures + it.failures
    attempted = warm.attempted + plain.attempted + it.attempted + 1
    if not warm.counters == plain.counters == it.counters:
        failures.append("counters repeat exactly between iterations")
    summary = recorder.summary()
    counters = dict(it.counters)
    counters["boosting.stump_searches"] = summary.get("boosting.train_stump",
                                                      {}).get("calls", 0)
    units = per_layer_units()
    values = dict.fromkeys(units, 0)
    for name, s in summary.items():
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = s["calls"]
            values[f"{name}.self_s"] = s["self_s"]
    for name in PHASE_METRICS:
        values[f"{name}.s"] = summary.get(name, {}).get("outermost_s", 0.0)
    values.update({k: v for k, v in counters.items() if k in values})
    values["svm.kernel_matrix.entries"] = kernel["entries"]
    values["svm.kernel_matrix.bytes_computed"] = kernel["bytes"]
    values["trace.overhead_s"] = it.timed_s - plain.timed_s
    values["trace.spans"] = len(recorder.names)
    detail = {"untraced_s": plain.timed_s, "traced_s": it.timed_s,
              "untraced_wall_s": plain.timed_wall_s, "traced_wall_s": it.timed_wall_s,
              "absent": recorder.absent,
              "spans": summary, "counters": counters}
    return values, units, attempted, failures, detail


def run_one(name, seed, seconds, trace):
    w = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work_{name}_{os.getpid()}"
    workdir.mkdir()
    try:
        if trace:
            values, units, attempted, failures, detail = traced(w, seed, workdir)
        else:
            values, units, attempted, failures, detail = untraced(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = workloads.SEED0_COUNTERS[name] if seed == 0 else {}
    counters = detail["counters"]
    mismatched = {k: [v, counters[k]] for k, v in expected.items()
                  if k in counters and not math.isclose(counters[k], v, rel_tol=1e-9)}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(seed), "failures": failures,
              "seed0_counter_mismatches": mismatched,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
              **detail}
    path = OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")
    print(json.dumps({"environment": record["environment"]}))
    for failure in failures:
        print(f"FAILED check: {failure}")
    if trace:
        print(f"absent functions: {detail['absent'] or 'none'}; tracing overhead "
              f"{values['trace.overhead_s']:.3f} s over {detail['untraced_s']:.3f} s untraced")
    else:
        print(f"predict latency percentiles over {detail['predict_instances']} instances, "
              f"{detail['sample_counts']['predict_us']} calls; "
              f"iterations: {detail['iterations']}")
    if mismatched:
        print(f"seed-0 counters differ from the recorded values: {mismatched}")
    print(f"record: {path.relative_to(ROOT)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": record["metrics"]}


def run_all(seed, seconds, trace):
    """Every workload in its own interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=600)
        result = json.loads(done.stdout.splitlines()[-1])
        for key in ("attempted", "failed"):
            total[key] += result[key]
        total["correct"] = total["correct"] and result["correct"]
        for metric, v in result["metrics"].items():
            print(f"{name:14s} {metric:45s} {v['value']:>16.6g} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if Path(atree.__file__).resolve().parent != SRC / "atree":
        sys.exit(f"atree was imported from {atree.__file__}, not from {SRC}")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload in workloads.WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)} or all")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
