"""gridtopo benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload fleet_year --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gridtopo is imported from its
src/ directory, never from an installed copy. --trace 0 prints the
end-to-end metrics, measured with tracing off; --trace 1 prints the
per-layer metrics from a traced run and writes its spans to
.bench_out/. Human-readable lines (environment, per-class quality,
tail percentile, problems) come first; the last line of standard output
is the result object. The exit code is 0 whenever a result was printed,
including results with "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("fleet_year", "sweep_length", "cli_month")
SETUP_REPEATS = 21
# BLAS runs single-threaded unless the caller says otherwise: the
# harness pool brings its own threads, and on a small shared machine a
# multi-threaded BLAS stalls whenever the host takes one core away.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric name -> unit, in BENCHMARK.json order
END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "edge_accuracy_pct": "%",
    "phase_accuracy_pct": "%",
    "success_pct": "%",
}

# per-call mean seconds, from spans of the same name without "_s"
LAYER_TIMES = (
    "feeders.make_feeder_s", "synth_lab.sampler_init_s", "synth_lab.increments_s",
    "synth_lab.integrate_s", "synth_lab.corrupt_labels_s", "synth_lab.panel_to_csv_s",
    "synth_lab.panel_from_csv_s", "topo_est.estimate_csv_s", "cli.simulate_s",
    "cli.estimate_s", "cli.identify_s", "info_core.difference_s", "info_core.panel_stats_s",
    "info_core.mi_matrix_s", "info_core.substation_mi_s", "info_core.group_mi_s",
    "topo_est.mesh_search_s", "topo_est.mst_s", "phase_id.assign_s",
    "eval_harness.replicate_s",
)
# counts over the first unit of work: one fleet cycle, sweep call or CLI pass
LAYER_COUNTS = {
    "synth_lab.csv_rows": "count",
    "synth_lab.csv_bytes": "B",
    "info_core.cov_flops": "flop",
    "info_core.mi_pairs": "count",
    "info_core.group_mi_calls": "count",
}


def bootstrap():
    """Import gridtopo from this checkout's src/ or exit with code 2."""
    if not (SRC / "gridtopo" / "__init__.py").is_file():
        print(f"error: no gridtopo sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import gridtopo

    if Path(gridtopo.__file__).resolve().parent != (SRC / "gridtopo").resolve():
        print(f"error: imported gridtopo from {gridtopo.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "harness_threads": threads,
    }


def tail(values):
    """(value, percentile, samples beyond): the highest order statistic
    with at least ten samples above it. When that statistic would not lie
    above the upper median (22 samples or fewer), the maximum is the
    only tail there is."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n - 11 > n // 2 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def timed_setup(setup, tracer):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(tracer)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def pooled(values_by_class):
    return [v for vs in values_by_class.values() for v in vs]


def quality_lines(workload, outcome):
    lines = []
    for cls in outcome.edge_errors_pct:
        errs = outcome.edge_errors_pct[cls]
        accs = outcome.phase_accuracy.get(cls, [])
        chords = outcome.chords.get(cls, {})
        line = (f"quality {workload} {cls}: n={len(errs)} "
                f"edge_error_pct={statistics.fmean(errs):.4f} "
                f"(max {max(errs):.4f}) ")
        if accs:
            line += f"phase_error_pct={100.0 * (1.0 - statistics.fmean(accs)):.4f} "
        if chords:
            line += "chords=" + ",".join(f"{c}x{n}" for c, n in sorted(chords.items()))
        lines.append(line.rstrip())
    return lines


def end_to_end(outcome, setup_s):
    lat = outcome.latencies
    errs = pooled(outcome.edge_errors_pct)
    accs = pooled(outcome.phase_accuracy)
    values = {
        "latency_p50_s": statistics.median_high(lat),
        "latency_tail_s": tail(lat)[0],
        "throughput_per_s": outcome.units / sum(lat),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # with no scored operation nothing was recovered correctly
        "edge_accuracy_pct": 100.0 - statistics.fmean(errs) if errs else 0.0,
        "phase_accuracy_pct": 100.0 * statistics.fmean(accs) if accs else 0.0,
        "success_pct": 100.0 * (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(tracer, outcome):
    values = {name: tracer.mean_call_s(name[:-2]) for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        values[name] = tracer.counts.get(name, 0.0)
    buses = tracer.counts.get("phase_id.buses", 0.0)
    values["phase_id.resolved_ratio"] = (tracer.counts.get("phase_id.resolved", 0.0) / buses
                                         if buses else 0.0)
    capacity = tracer.counts.get("eval_harness.pool_capacity_s", 0.0)
    values["eval_harness.pool_efficiency"] = (
        tracer.counts.get("eval_harness.pool_busy_s", 0.0) / capacity if capacity else 0.0)
    ops = max(len(outcome.latencies), 1)
    values["trace.overhead_s"] = (outcome.traced_s - outcome.untraced_s) / ops
    values["trace.overhead_pct"] = (100.0 * (outcome.traced_s - outcome.untraced_s)
                                    / outcome.untraced_s if outcome.untraced_s else 0.0)
    units = {name: "s" for name in LAYER_TIMES}
    units.update(LAYER_COUNTS)
    units.update({"phase_id.resolved_ratio": "ratio", "eval_harness.pool_efficiency": "ratio",
                  "trace.overhead_s": "s", "trace.overhead_pct": "%"})
    return {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}


def run_workload(name, seed, seconds, tracer, workdir):
    import workloads as w

    if name == "fleet_year":
        state, setup_s = timed_setup(w.fleet_setup, tracer)
        return w.fleet_run(state, seed, seconds, tracer), setup_s
    if name == "sweep_length":
        state, setup_s = timed_setup(w.sweep_setup, tracer)
        return w.sweep_run(state, seed, seconds, tracer), setup_s
    state, setup_s = timed_setup(lambda tr: w.cli_setup(workdir, tr), tracer)
    return w.cli_run(state, seed, seconds, tracer), setup_s


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    bootstrap()
    from tracing import Tracer
    import workloads as w

    print("env " + json.dumps(environment(w.sweep_threads()), sort_keys=True))
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        outcome, setup_s = run_workload(args.workload, args.seed, args.seconds, tracer,
                                        str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in quality_lines(args.workload, outcome):
        print(line)
    for message in outcome.problems:
        print(f"problem {args.workload}: {message}")
    if not outcome.latencies:
        print(f"error: no operation of {args.workload} succeeded", file=sys.stderr)
        return 1
    value, pct, beyond = tail(outcome.latencies)
    print(f"latency {args.workload}: {len(outcome.latencies)} samples, p50 "
          f"{statistics.median_high(outcome.latencies):.6f} s, tail p{pct:.1f} {value:.6f} s "
          f"({beyond} beyond)")
    if tracer is not None:
        metrics = per_layer(tracer, outcome)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        print(f"trace {args.workload}: {len(tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}; overhead "
              f"{metrics['trace.overhead_s']['value']:.6f} s per op "
              f"({metrics['trace.overhead_pct']['value']:.2f}%)")
    else:
        metrics = end_to_end(outcome, setup_s)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
