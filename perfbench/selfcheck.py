"""Checks on the benchmark itself, separate from any measurement.

    python3 perfbench/selfcheck.py

1. Replicate seeds: two workload seeds never draw a common replicate
   seed, while monte_carlo's own base_seed ^ r scheme does collide for
   small base seeds (the eval_harness defect recorded in README.md).
2. Names: BENCHMARK.json lists exactly the metrics run.py prints.
3. Counts: the traced run's work counts (cov_flops, mi_pairs,
   group_mi_calls, csv_rows, csv_bytes) repeat exactly across two runs
   with the same seed, on every workload.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("info_core.cov_flops", "info_core.mi_pairs", "info_core.group_mi_calls",
          "synth_lab.csv_rows", "synth_lab.csv_bytes")


def check_seeds():
    import workloads as w

    ok = True
    calls = 1 << (w.SEED_SHIFT - w.REPLICATE_BITS)
    for a, b in ((0, 1), (1, 2), (3, 7)):
        shared = (w.replicate_seeds(a, calls, w.SWEEP_REPLICATES)
                  & w.replicate_seeds(b, calls, w.SWEEP_REPLICATES))
        print(f"{'PASS' if not shared else 'FAIL'} seeds: workload seeds {a} and {b} "
              f"share {len(shared)} replicate seeds over {calls} sweep calls")
        ok &= not shared
    # the defect the derivation avoids: base seeds 0..7 with 8 replicates
    legacy = {frozenset(base ^ r for r in range(8)) for base in range(8)}
    print(f"NOTE seeds: monte_carlo base seeds 0-7 with 8 replicates draw "
          f"{len(legacy)} distinct seed set(s)")
    return ok


def check_names():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = (list(run.LAYER_TIMES) + list(run.LAYER_COUNTS)
             + ["phase_id.resolved_ratio", "eval_harness.pool_efficiency",
                "trace.overhead_s", "trace.overhead_pct"])
    ok = (sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END)
          and sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
          and sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS))
    print(f"{'PASS' if ok else 'FAIL'} names: BENCHMARK.json matches run.py")
    return ok


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} traced run not correct:\n{out.stdout[-2000:]}")
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def check_counts(seed=11):
    ok = True
    for workload in ("fleet_year", "sweep_length", "cli_month"):
        first = traced_counts(workload, seed)
        second = traced_counts(workload, seed)
        same = first == second
        print(f"{'PASS' if same else 'FAIL'} counts {workload} seed {seed}: "
              + ", ".join(f"{k}={first[k]:.0f}" for k in COUNTS)
              + ("" if same else f" then {second}"))
        ok &= same
    return ok


def main():
    sys.path.insert(0, str(ROOT / "src"))
    ok = check_seeds()
    ok &= check_names()
    ok &= check_counts()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
