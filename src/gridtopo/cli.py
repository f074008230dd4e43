"""Command-line entry point.

Subcommands: simulate (synthetic feeder data), estimate (topology from
measurements), identify-phases (labels along a recovered tree),
evaluate (Monte Carlo scenario), sweep (scenario series along one
axis). Every command is deterministic given its inputs, flags and
seed. Exit codes: 0 success, 1 estimation-quality warning (unrooted
tree, unresolved phases, failed replicates), 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .eval_harness import (EvalError, ScenarioConfig, SWEEP_AXES, build_context,
                           draw_panel, monte_carlo, sweep, write_sweep_csv)
from .feeders import FEEDER_NAMES
from .grid_model import PHASES, TopologyFormatError, topology_from_csv, topology_to_csv
from .info_core import InfoCoreError
from .phase_id import PhaseIdError, assign_phases, diagnose_labels
from .synth_lab import SynthError, labels_to_csv, panel_from_csv, panel_to_csv, to_magnitude
from .topo_est import TopologyEstimateError, estimate_from_csv, estimate_topology

# errors that mean bad input, each reported as exit 2 (MeasurementFormatError
# is a SynthError)
_INPUT_ERRORS = (TopologyFormatError, TopologyEstimateError, SynthError, InfoCoreError,
                 PhaseIdError, EvalError, FileNotFoundError, IsADirectoryError, ValueError)


def _add_generation_flags(p):
    p.add_argument("--feeder", default="bus33", choices=FEEDER_NAMES,
                   help="synthetic feeder preset")
    p.add_argument("--samples", type=int, default=8760,
                   help="number of voltage snapshots (default hourly year)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--injection-seed", type=int, default=0,
                   help="seed fixing the injection covariances")
    p.add_argument("--base-sigma", type=float, default=0.004,
                   help="injection scale in per unit")
    p.add_argument("--reactive-ratio", type=float, default=None,
                   help="opt-in reactive-to-active injection ratio in [0.05, 1]")
    p.add_argument("--slack-sigma", type=float, default=0.0,
                   help="substation common-mode variation (enables MI-based rooting)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="relative magnitude noise bound, e.g. 0.005 for 0.5%%")
    p.add_argument("--noise-distribution", default="uniform",
                   choices=("uniform", "gaussian"))
    p.add_argument("--label-corruption", type=float, default=0.0,
                   help="fraction of buses with permuted phase labels")


def _add_method_flags(p, source_default="auto"):
    p.add_argument("--frame", default="sequence", choices=("phase", "sequence"),
                   help="checked and echoed in the summary line, changes no file or value: "
                        "MI is invariant under the per-bus symmetrical-component map")
    choices = ("complex", "magnitude") if source_default != "auto" else (
        "complex", "magnitude", "auto")
    p.add_argument("--source", default=source_default, choices=choices)
    p.add_argument("--mesh", action="store_true",
                   help="search for one loop-closing chord")
    p.add_argument("--gain-tol", type=float, default=0.01,
                   help="nats a chord must gain over the plain tree")
    p.add_argument("--ridge", type=float, default=0.0,
                   help="diagonal loading retry for singular sample covariances")
    p.add_argument("--root", type=int, default=None,
                   help="declared substation attachment bus")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gridtopo",
        description="Distribution grid topology and phase recovery from voltage data",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic measurements")
    _add_generation_flags(p)
    p.add_argument("--topology", default=None,
                   help="topology CSV overriding the feeder preset")
    p.add_argument("--magnitude-only", action="store_true",
                   help="export magnitudes with empty angle column")
    p.add_argument("--out", required=True,
                   help="output prefix for .topology/.measurements/.labels CSVs")

    p = sub.add_parser("estimate", help="recover topology from measurements")
    p.add_argument("--measurements", required=True)
    _add_method_flags(p)
    p.add_argument("--out", required=True, help="estimated topology CSV")
    p.add_argument("--mi-out", default=None,
                   help="MI matrix CSV (default: out path with .mi.csv)")

    p = sub.add_parser("identify-phases", help="recover phase labels along a tree")
    p.add_argument("--measurements", required=True)
    p.add_argument("--topology", required=True,
                   help="estimated or true topology CSV providing the tree")
    p.add_argument("--root", type=int, default=None,
                   help="substation attachment when the tree file lacks one")
    p.add_argument("--raw-magnitudes", action="store_true",
                   help="correlate raw magnitude series instead of increments")
    p.add_argument("--out", required=True, help="assignment CSV")

    p = sub.add_parser("evaluate", help="Monte Carlo scenario report")
    _add_generation_flags(p)
    _add_method_flags(p, source_default="complex")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--der-scale", type=float, default=1.0)
    p.add_argument("--der-fraction", type=float, default=0.2)
    p.add_argument("--resolution-stride", type=int, default=1)
    p.add_argument("--out", default=None, help="report JSON path")

    p = sub.add_parser("sweep", help="scenario series along one axis")
    _add_generation_flags(p)
    _add_method_flags(p, source_default="complex")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--der-scale", type=float, default=1.0)
    p.add_argument("--der-fraction", type=float, default=0.2)
    p.add_argument("--resolution-stride", type=int, default=1)
    p.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--out", required=True, help="output prefix for .csv/.json")
    return ap


def cmd_simulate(args):
    topology = topology_from_csv(args.topology) if args.topology else None
    ctx = build_context(_scenario_from_args(args), topology=topology)
    topo = ctx.topology
    volts = draw_panel(ctx, args.seed)
    if args.magnitude_only:
        volts = to_magnitude(volts)
    topology_to_csv(topo, args.out + ".topology.csv")
    panel_to_csv(volts, args.out + ".measurements.csv")
    labels_to_csv(volts, args.out + ".labels.csv")
    print(f"simulated {topo.n_buses} buses x {volts.n_samples} samples "
          f"(feeder {args.topology or args.feeder}, seed {args.seed})")
    print(f"wrote {args.out}.topology.csv, {args.out}.measurements.csv, "
          f"{args.out}.labels.csv")
    return 0


def _resolve_source(source, panel):
    if source != "auto":
        if source == "complex" and panel.magnitude_only:
            raise SynthError("measurements are magnitude-only; use --source magnitude")
        return source
    return "magnitude" if panel.magnitude_only else "complex"


def cmd_estimate(args):
    panel = panel_from_csv(args.measurements, kind="voltage")
    source = _resolve_source(args.source, panel)
    estimate, stats = estimate_topology(
        panel, frame=args.frame, source=source, mesh=args.mesh,
        gain_tol=args.gain_tol, ridge=args.ridge, declared_root=args.root,
    )
    masks = {b: "".join(PHASES[s] for s in panel.slots(b))
             for b in range(panel.n_buses)}
    estimate.to_csv(args.out, masks=masks)
    mi_path = args.mi_out if args.mi_out else args.out + ".mi.csv"
    stats.mi_matrix().to_csv(mi_path)
    chord_note = f", {len(estimate.chords)} chord(s)" if estimate.chords else ""
    print(f"recovered {len(estimate.edges)} edges over {len(estimate.bus_ids)} "
          f"buses ({args.frame}/{source}{chord_note})")
    print(f"wrote {args.out} and {mi_path}")
    if not estimate.rooted:
        print("warning: no substation signal and no --root; tree left unrooted",
              file=sys.stderr)
        return 1
    return 0


def cmd_identify_phases(args):
    panel = panel_from_csv(args.measurements, kind="voltage")
    tree = estimate_from_csv(args.topology)
    if not tree.rooted:
        if args.root is None:
            print("warning: tree file has no substation edge; pass --root",
                  file=sys.stderr)
            return 1
        tree.root_edge = (0, args.root)
    assignment = assign_phases(tree, panel,
                               use_increments=not args.raw_magnitudes)
    assignment.to_csv(args.out)
    mismatched = diagnose_labels(assignment, panel)
    unknown = sorted(b for b, s in assignment.statuses.items() if s == "unknown")
    print(f"assigned phases at {len(assignment.channels) - 1} buses; "
          f"{len(mismatched)} claimed labels diagnosed wrong")
    if mismatched:
        print("mislabeled buses: " + ", ".join(str(b) for b in mismatched))
    print(f"wrote {args.out}")
    for w in assignment.warnings:
        print("warning: " + w, file=sys.stderr)
    if unknown:
        print(f"warning: unresolved buses {unknown}", file=sys.stderr)
        return 1
    return 0


# flags whose names differ from the ScenarioConfig field they set; every
# other flag named like a field sets that field
_FLAG_FIELDS = {"samples": "n_samples", "noise": "noise_bound",
                "label_corruption": "label_fraction", "root": "declared_root"}


def _scenario_from_args(args):
    """The ScenarioConfig set by whichever scenario flags a command has."""
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    given = {_FLAG_FIELDS.get(k, k): v for k, v in vars(args).items()}
    return ScenarioConfig(**{k: v for k, v in given.items() if k in fields})


def _warn_failures(reports):
    """Warn on stderr about each report with failed replicates; 1 if any did."""
    for r in reports:
        if r.failures:
            point = f"{r.axis}={r.value}" if r.axis else f"feeder {r.scenario['feeder']}"
            print(f"warning: {len(r.failures)} of {r.replicates} replicates failed at "
                  f"{point}: {r.failures[0][1]}", file=sys.stderr)
    return int(any(r.failures for r in reports))


def cmd_evaluate(args):
    config = _scenario_from_args(args)
    report = monte_carlo(config, args.replicates, base_seed=args.seed,
                         threads=args.threads)
    print(report.summary())
    print(f"wall time {report.wall_time_s:.2f}s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.canonical_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return _warn_failures([report])


def cmd_sweep(args):
    config = _scenario_from_args(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise SynthError(f"cannot parse --values {args.values!r}")
    if not values:
        raise SynthError("--values is empty")
    reports = sweep(config, args.axis, values, args.replicates,
                    base_seed=args.seed, threads=args.threads)
    for r in reports:
        print(r.summary())
    csv_path = f"{args.out}.{args.axis}.csv"
    json_path = f"{args.out}.{args.axis}.json"
    write_sweep_csv(reports, csv_path)
    with open(json_path, "w") as fh:
        json.dump([r.canonical_dict() for r in reports], fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return _warn_failures(reports)


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "identify-phases": cmd_identify_phases,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
