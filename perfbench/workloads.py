"""The three benchmark workloads, each in an untraced and a traced form.

All three are closed loops with one client: the next operation starts
only after the previous one has finished. Every input is generated from
the workload seed with gridtopo's synthetic laboratory, so every output
can be scored against ground truth.

- fleet_year: one-year hourly panels (T=8760) from a fixed feeder mix,
  each recovered by estimate_topology + assign_phases, the production
  path. Panel generation happens before the clock starts.
- sweep_length: eval_harness.sweep along data_length on bus123, the
  paper's data-length study, with the harness thread pool.
- cli_month: the README quick start (simulate, estimate,
  identify-phases) through cli.main at a month of hourly data, the only
  workload dominated by CSV parsing and writing.

The untraced form calls the public entry points exactly as a user
would. The traced form composes the same public functions the entry
point calls, with a span around each, and must reproduce the untraced
outputs bit for bit; every traced operation also runs the untraced form
on the same inputs, which gives the tracing overhead and the equality
check.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from gridtopo import (FeederSampler, InjectionSpec, PanelStatistics, ScenarioConfig,
                      assign_phases, assignment_accuracy, attach_root, corrupt_labels,
                      diagnose_labels, difference, edge_errors, estimate_from_csv,
                      estimate_topology, integrate_voltages, labels_from_csv,
                      labels_to_csv, make_feeder, max_weight_spanning_tree,
                      panel_from_csv, panel_to_csv, run_replicate, substation_mi, sweep,
                      to_magnitude, topology_to_csv, weak_mesh_search)
from gridtopo import cli
from gridtopo.eval_harness import _LABEL_SEED_OFFSET, ScenarioContext
from gridtopo.grid_model import PHASES

LABEL_FRACTION = 0.01
YEAR_SAMPLES = 8760
PHASE_ACCURACY_FLOOR = 0.95

# Operation seeds are (workload seed << SEED_SHIFT) + index, so two
# workload seeds never share an operation seed. sweep_length packs the
# call index above REPLICATE_BITS, keeping monte_carlo's base_seed ^ r
# inside the call's own block.
SEED_SHIFT = 20
REPLICATE_BITS = 10


def op_seed(workload_seed, index):
    if not 0 <= index < (1 << SEED_SHIFT):
        raise ValueError(f"operation index {index} out of range")
    return (workload_seed << SEED_SHIFT) + index


def sweep_base_seed(workload_seed, call):
    return op_seed(workload_seed, call << REPLICATE_BITS)


def replicate_seeds(workload_seed, calls, replicates):
    """Every replicate seed monte_carlo draws over a run's sweep calls."""
    if replicates > (1 << REPLICATE_BITS):
        raise ValueError("too many replicates per sweep point")
    return {sweep_base_seed(workload_seed, c) ^ r
            for c in range(calls) for r in range(replicates)}


def _maybe_span(tracer, name, op):
    return tracer.span(name, op) if tracer is not None else contextlib.nullcontext()


@dataclass
class Outcome:
    """What one workload run measured and scored."""

    latencies: list = field(default_factory=list)
    units: int = 0                 # panels, replicates or passes completed
    attempted: int = 0
    failed: int = 0
    edge_errors_pct: dict = field(default_factory=dict)   # class -> [pct]
    phase_accuracy: dict = field(default_factory=dict)    # class -> [fraction]
    chords: dict = field(default_factory=dict)            # class -> {chord: n}
    problems: list = field(default_factory=list)
    traced_s: float = 0.0          # traced-form time, trace mode only
    untraced_s: float = 0.0        # untraced-form time on the same ops

    def score(self, cls, err_pct, acc, chords=()):
        self.edge_errors_pct.setdefault(cls, []).append(err_pct)
        if acc is not None:
            self.phase_accuracy.setdefault(cls, []).append(acc)
        seen = self.chords.setdefault(cls, {})
        for c in chords:
            seen[c] = seen.get(c, 0) + 1

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)


def check_quality(out, edge_ceiling_pct):
    """Record a problem for each class outside its ground-truth bounds."""
    for cls, errs in out.edge_errors_pct.items():
        if np.mean(errs) > edge_ceiling_pct[cls]:
            out.problems.append(f"{cls}: mean edge error {np.mean(errs):.3f}% above the "
                                f"{edge_ceiling_pct[cls]}% ceiling")
    for cls, accs in out.phase_accuracy.items():
        if np.mean(accs) < PHASE_ACCURACY_FLOOR:
            out.problems.append(f"{cls}: mean phase accuracy {np.mean(accs):.4f} below "
                                f"{PHASE_ACCURACY_FLOOR}")


def tree_problem(est, n_buses, head, max_chords):
    """None when est is a spanning tree over buses 1..n-1 rooted at head."""
    if tuple(est.bus_ids) != tuple(range(1, n_buses)):
        return f"estimate covers buses {est.bus_ids[:3]}..., not 1..{n_buses - 1}"
    if est.root_edge is None or tuple(sorted(est.root_edge)) != (0, head):
        return f"estimate rooted at {est.root_edge}, expected (0, {head})"
    if len(est.chords) > max_chords:
        return f"{len(est.chords)} chords, at most {max_chords} allowed"
    try:
        est.oriented()
    except Exception as exc:  # the estimator's own connectivity check
        return f"estimate is not connected: {exc}"
    return None


def phase_problem(assignment, panel):
    for b in range(panel.n_buses):
        got = assignment.channels.get(b)
        if got is None or len(got) != len(panel.slots(b)) or len(set(got)) != len(got):
            return f"bus {b}: phase map {got} is not a permutation of its channels"
    return None


# ---------------------------------------------------------------------
# Composed estimation, shared by the traced forms
# ---------------------------------------------------------------------


def traced_estimate(tr, op, panel, frame, source, mesh, declared_root,
                    gain_tol=0.01, max_chords=1, ridge=0.0, count=False):
    """eval_harness.estimate_topology, one span per layer call.

    Returns (estimate, stats, mi).
    """
    with tr.span("info_core.difference", op):
        inc = difference(panel)
    with tr.span("info_core.panel_stats", op):
        stats = PanelStatistics(inc, frame=frame, source=source, ridge=ridge)
    with tr.span("info_core.mi_matrix", op):
        mi = stats.mi_matrix()
    if count:
        tr.count("info_core.cov_flops", 2 * stats.n_samples * stats.dim ** 2)
        tr.count("info_core.mi_pairs", mi.n * (mi.n - 1) // 2)
    if mesh:
        def provider(m, pair):
            with tr.span("info_core.group_mi", op):
                value = stats.group_mi([m], list(pair))
            if count:
                tr.count("info_core.group_mi_calls", 1)
            return value

        with tr.span("topo_est.mesh_search", op):
            est = weak_mesh_search(mi, provider, max_chords=max_chords, gain_tol=gain_tol)
    else:
        with tr.span("topo_est.mst", op):
            est = max_weight_spanning_tree(mi)
    with tr.span("info_core.substation_mi", op):
        sub = substation_mi(inc, frame=frame, source=source)
    with tr.span("topo_est.attach_root", op):
        est = attach_root(est, substation_mi=sub, declared_root=declared_root)
    return est, stats, mi


def same_recovery(est_a, est_b, mi_a, mi_b, phases_a, phases_b):
    """Message naming the first difference between two recoveries, or None."""
    if est_a.edge_set(include_chords=False) != est_b.edge_set(include_chords=False):
        return "edge sets differ"
    if est_a.chords != est_b.chords:
        return "chords differ"
    if est_a.root_edge != est_b.root_edge:
        return "roots differ"
    if mi_a.bus_ids != mi_b.bus_ids or not np.array_equal(mi_a.values, mi_b.values):
        return "MI matrices are not bit-identical"
    if phases_a != phases_b:
        return "phase maps differ"
    return None


# ---------------------------------------------------------------------
# fleet_year
# ---------------------------------------------------------------------

FLEET_FEEDERS = ("bus123", "bus33", "bus15_mesh")

# name -> (feeder, frame, source, magnitude-only panel, mesh search)
FLEET_CLASSES = {
    "bus123_seq": ("bus123", "sequence", "complex", False, False),
    "bus123_mag": ("bus123", "phase", "magnitude", True, False),
    "bus123_mesh": ("bus123", "sequence", "complex", False, True),
    "bus33_mesh": ("bus33", "sequence", "complex", False, True),
    "bus15_mesh": ("bus15_mesh", "sequence", "complex", False, True),
}

# One cycle holds the 30/20/20/20/10 mix exactly. Runs stop only at a
# cycle boundary, so the mix, and with it the latency quantiles, do not
# depend on where the clock ran out.
FLEET_CYCLE = ("bus123_seq", "bus123_mesh", "bus123_mag", "bus33_mesh", "bus123_seq",
               "bus15_mesh", "bus123_mesh", "bus123_mag", "bus33_mesh", "bus123_seq")

# With at least this many cycles, the tail (ten samples beyond it) falls
# inside the mesh-search class that sets it.
FLEET_MIN_CYCLES = 6

# Ground-truth ceilings on each class's mean edge error, percent of the
# true edge count. Non-zero baselines when the benchmark was added:
# magnitude-only bus123 gets 3-20 of 121 edges wrong per panel, and
# bus123 mesh search adds the spurious chord (8, 10) plus one swapped
# tree edge (3 of 121).
FLEET_EDGE_CEILING_PCT = {
    "bus123_seq": 1.0,
    "bus123_mag": 45.0,
    "bus123_mesh": 4.0,
    "bus33_mesh": 1.0,
    "bus15_mesh": 1.0,
}


@dataclass
class FeederState:
    topology: object
    sampler: object
    truth: frozenset
    head: int


def fleet_setup(tracer=None):
    state = {}
    for name in FLEET_FEEDERS:
        with _maybe_span(tracer, "feeders.make_feeder", "setup"):
            topo = make_feeder(name)
        with _maybe_span(tracer, "synth_lab.sampler_init", "setup"):
            sampler = FeederSampler(topo, InjectionSpec.random(topo, seed=0))
        state[name] = FeederState(
            topology=topo, sampler=sampler,
            truth=frozenset(topo.edge_set(include_root=False, include_chords=True)),
            head=min(topo.children_of(0)))
    return state


def fleet_panel(fs, magnitude, seed, tracer=None, op=None):
    with _maybe_span(tracer, "synth_lab.increments", op):
        inc = fs.sampler.increments(YEAR_SAMPLES - 1, seed=seed)
    with _maybe_span(tracer, "synth_lab.integrate", op):
        volts = integrate_voltages(inc)
    with _maybe_span(tracer, "synth_lab.corrupt_labels", op):
        volts = corrupt_labels(volts, LABEL_FRACTION, seed=seed + _LABEL_SEED_OFFSET,
                               protect=(fs.head,))
    return to_magnitude(volts) if magnitude else volts


def _fleet_untraced(panel, fs, frame, source, mesh):
    t0 = time.perf_counter()
    est, stats = estimate_topology(panel, frame=frame, source=source, mesh=mesh,
                                   declared_root=fs.head)
    assignment = assign_phases(est, panel)
    return time.perf_counter() - t0, est, stats, assignment


def _fleet_traced(tr, op, panel, fs, frame, source, mesh, count):
    t0 = time.perf_counter()
    with tr.span("fleet.request", op):
        est, stats, mi = traced_estimate(tr, op, panel, frame, source, mesh, fs.head,
                                         count=count)
        with tr.span("phase_id.assign", op):
            assignment = assign_phases(est, panel)
    tr.count("phase_id.resolved", sum(s == "resolved" for s in assignment.statuses.values()))
    tr.count("phase_id.buses", panel.n_buses - 1)
    return time.perf_counter() - t0, est, mi, assignment


def fleet_run(state, seed, seconds, tracer=None):
    out = Outcome()
    start = time.perf_counter()
    cycle = 0
    min_cycles = 1 if tracer is not None else FLEET_MIN_CYCLES
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        for slot, cls in enumerate(FLEET_CYCLE):
            op = cycle * len(FLEET_CYCLE) + slot
            feeder, frame, source, magnitude, mesh = FLEET_CLASSES[cls]
            fs = state[feeder]
            out.attempted += 1
            try:
                panel = fleet_panel(fs, magnitude, op_seed(seed, op), tracer, op)
                if tracer is None:
                    lat, est, _, assignment = _fleet_untraced(panel, fs, frame, source, mesh)
                else:
                    # alternate which form runs first so cache warmth is shared fairly
                    first_traced = op % 2 == 1
                    if first_traced:
                        lat_t, est_t, mi_t, asg_t = _fleet_traced(
                            tracer, op, panel, fs, frame, source, mesh, cycle == 0)
                    lat, est, stats, assignment = _fleet_untraced(panel, fs, frame, source, mesh)
                    if not first_traced:
                        lat_t, est_t, mi_t, asg_t = _fleet_traced(
                            tracer, op, panel, fs, frame, source, mesh, cycle == 0)
                    out.traced_s += lat_t
                    out.untraced_s += lat
                    diff = same_recovery(est, est_t, stats.mi_matrix(), mi_t,
                                         assignment.channels, asg_t.channels)
                    if diff:
                        out.fail(f"op {op} ({cls}): traced and untraced runs differ: {diff}")
                        continue
                problem = (tree_problem(est, fs.topology.n_buses, fs.head, int(mesh))
                           or phase_problem(assignment, panel))
                if problem:
                    out.fail(f"op {op} ({cls}): {problem}")
                    continue
            except Exception as exc:  # one failed request must not end the run
                out.fail(f"op {op} ({cls}): {type(exc).__name__}: {exc}")
                continue
            false, missing = edge_errors(fs.truth, est.edge_set(include_chords=True))
            out.score(cls, 100.0 * (false + missing) / len(fs.truth),
                      assignment_accuracy(assignment, panel), est.chords)
            out.latencies.append(lat)
            out.units += 1
        cycle += 1
    check_quality(out, FLEET_EDGE_CEILING_PCT)
    return out


# ---------------------------------------------------------------------
# sweep_length
# ---------------------------------------------------------------------

SWEEP_LENGTHS = (241, 481, 721, 1441)
SWEEP_REPLICATES = 2
SWEEP_CONFIG = ScenarioConfig(feeder="bus123", frame="sequence", source="complex",
                              label_fraction=LABEL_FRACTION)
# mean edge error ceilings per record length, percent; short records
# carry a non-zero baseline when the benchmark was added
SWEEP_EDGE_CEILING_PCT = {241: 5.0, 481: 3.0, 721: 1.0, 1441: 1.0}


def sweep_threads():
    return min(2, os.cpu_count() or 1)


def sweep_setup(tracer=None, op="setup"):
    """build_context for the benchmark's config, which sweep also builds per call."""
    cfg = SWEEP_CONFIG
    with _maybe_span(tracer, "feeders.make_feeder", op):
        topo = make_feeder(cfg.feeder, z_base_ohm=cfg.z_base_ohm)
    with _maybe_span(tracer, "synth_lab.sampler_init", op):
        spec = InjectionSpec.random(topo, seed=cfg.injection_seed, base_sigma=cfg.base_sigma,
                                    reactive_ratio=cfg.reactive_ratio)
        sampler = FeederSampler(topo, spec)
    return ScenarioContext(config=cfg, topology=topo, spec=spec, sampler=sampler,
                           true_edges=frozenset(topo.edge_set(include_root=False,
                                                              include_chords=True)),
                           feeder_head=min(topo.children_of(0)))


def _traced_replicate(tr, op, parent, ctx, seed, replicate, count):
    """eval_harness.run_replicate for the benchmark's config, one span per call."""
    cfg = ctx.config
    t0 = time.perf_counter()
    with tr.span("eval_harness.replicate", op, parent=parent):
        with tr.span("synth_lab.increments", op):
            inc = ctx.sampler.increments(cfg.n_samples - 1, seed=seed,
                                         slack_sigma=cfg.slack_sigma)
        with tr.span("synth_lab.integrate", op):
            volts = integrate_voltages(inc)
        with tr.span("synth_lab.corrupt_labels", op):
            volts = corrupt_labels(volts, cfg.label_fraction, seed=seed + _LABEL_SEED_OFFSET,
                                   protect=(ctx.feeder_head,))
        est, _, mi = traced_estimate(tr, op, volts, cfg.frame, cfg.source, cfg.mesh,
                                     ctx.feeder_head, gain_tol=cfg.gain_tol,
                                     max_chords=cfg.max_chords, ridge=cfg.ridge, count=count)
        false, missing = edge_errors(ctx.true_edges,
                                     est.edge_set(include_root=False, include_chords=True))
        row = {"replicate": replicate, "seed": seed,
               "error_rate": 100.0 * (false + missing) / len(ctx.true_edges),
               "false_edges": false, "missing_edges": missing,
               "n_samples_used": int(volts.n_samples), "phase_accuracy": None}
        assignment = None
        if est.rooted:
            with tr.span("phase_id.assign", op):
                assignment = assign_phases(est, volts,
                                           use_increments=cfg.use_increment_correlation)
            row["phase_accuracy"] = assignment_accuracy(assignment, volts)
            tr.count("phase_id.resolved",
                     sum(s == "resolved" for s in assignment.statuses.values()))
            tr.count("phase_id.buses", volts.n_buses - 1)
    busy = time.perf_counter() - t0
    return row, busy, (volts, est, mi, assignment)


def _traced_sweep(tr, op, base_seed, threads):
    """eval_harness.sweep along data_length, composed from its public calls.

    Returns (seconds, rows per data length, evidence per replicate).
    """
    rows, evidence = {}, []
    t_start = time.perf_counter()
    with tr.span("eval_harness.sweep", op):
        base = sweep_setup(tr, op)
        for length in SWEEP_LENGTHS:
            ctx = dataclasses.replace(base, config=base.config.replaced(n_samples=int(length)))
            jobs = [(r, base_seed ^ r) for r in range(SWEEP_REPLICATES)]
            with tr.span("eval_harness.monte_carlo", op) as point:
                t0 = time.perf_counter()
                with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
                    futs = [pool.submit(_traced_replicate, tr, op, point, ctx, s, r, op == 0)
                            for r, s in jobs]
                    done = [f.result() for f in futs]
                wall = time.perf_counter() - t0
            tr.count("eval_harness.pool_busy_s", sum(busy for _, busy, _ in done))
            tr.count("eval_harness.pool_capacity_s", wall * threads)
            rows[length] = [row for row, _, _ in done]
            evidence.extend((ctx, row, ev) for row, _, ev in done)
    return time.perf_counter() - t_start, rows, evidence


def _untraced_sweep(base_seed, threads):
    t0 = time.perf_counter()
    reports = sweep(SWEEP_CONFIG, "data_length", list(SWEEP_LENGTHS), SWEEP_REPLICATES,
                    base_seed=base_seed, threads=threads)
    return time.perf_counter() - t0, reports


def _check_traced_replicate(ctx, row, evidence):
    """Traced replicate against estimate_topology and run_replicate on the same inputs."""
    volts, est_t, mi_t, asg_t = evidence
    cfg = ctx.config
    est, stats = estimate_topology(volts, frame=cfg.frame, source=cfg.source, mesh=cfg.mesh,
                                   max_chords=cfg.max_chords, gain_tol=cfg.gain_tol,
                                   ridge=cfg.ridge, declared_root=ctx.feeder_head)
    asg = assign_phases(est, volts, use_increments=cfg.use_increment_correlation)
    diff = same_recovery(est, est_t, stats.mi_matrix(), mi_t, asg.channels,
                         asg_t.channels if asg_t is not None else None)
    if diff:
        return diff
    if run_replicate(ctx, row["seed"], row["replicate"]) != row:
        return "replicate rows differ from run_replicate"
    return tree_problem(est_t, ctx.topology.n_buses, ctx.feeder_head, 0)


def sweep_run(ctx, seed, seconds, tracer=None):
    out = Outcome()
    threads = sweep_threads()
    start = time.perf_counter()
    call = 0
    while call == 0 or time.perf_counter() - start < seconds:
        base = sweep_base_seed(seed, call)
        out.attempted += len(SWEEP_LENGTHS) * SWEEP_REPLICATES
        try:
            if tracer is None:
                lat, reports = _untraced_sweep(base, threads)
            else:
                if call % 2:
                    lat_t, rows_t, evidence = _traced_sweep(tracer, call, base, threads)
                lat, reports = _untraced_sweep(base, threads)
                if not call % 2:
                    lat_t, rows_t, evidence = _traced_sweep(tracer, call, base, threads)
                out.traced_s += lat_t
                out.untraced_s += lat
                for r in reports:
                    if rows_t[int(r.value)] != r.per_replicate:
                        out.fail(f"call {call}: traced rows differ from sweep at "
                                 f"data_length={r.value}")
                for ctx_v, row, ev in evidence:
                    diff = _check_traced_replicate(ctx_v, row, ev)
                    if diff:
                        out.fail(f"call {call} seed {row['seed']}: {diff}")
        except Exception as exc:  # one failed call must not end the run
            out.fail(f"call {call}: {type(exc).__name__}: {exc}")
            call += 1
            continue
        for r in reports:
            expected = [base ^ i for i in range(SWEEP_REPLICATES)]
            if r.seeds != expected:
                out.fail(f"call {call}: replicate seeds {r.seeds}, expected {expected}")
            for _, message in r.failures:
                out.fail(f"call {call} data_length={r.value}: {message}")
            for row in r.per_replicate:
                if row["phase_accuracy"] is None:
                    out.fail(f"call {call} seed {row['seed']}: estimate left unrooted")
                    continue
                out.score(int(r.value), row["error_rate"], row["phase_accuracy"])
                out.units += 1
        out.latencies.append(lat)
        call += 1
    check_quality(out, SWEEP_EDGE_CEILING_PCT)
    return out


# ---------------------------------------------------------------------
# cli_month
# ---------------------------------------------------------------------

CLI_FEEDER = "bus123"
CLI_SAMPLES = 721
CLI_EDGE_CEILING_PCT = {"bus123_month": 1.0}
CLI_OUTPUTS = (".topology.csv", ".measurements.csv", ".labels.csv", ".estimate.csv",
               ".estimate.csv.mi.csv", ".phases.csv")


@dataclass
class CliState:
    workdir: str
    topology: object
    truth: frozenset
    head: int


def cli_setup(workdir, tracer=None):
    """Ground truth for scoring plus the work directory; a user's first
    simulate pays for the same feeder and sampler construction."""
    with _maybe_span(tracer, "feeders.make_feeder", "setup"):
        topo = make_feeder(CLI_FEEDER)
    with _maybe_span(tracer, "synth_lab.sampler_init", "setup"):
        FeederSampler(topo, InjectionSpec.random(topo, seed=0))
    cli.build_parser()
    os.makedirs(workdir, exist_ok=True)
    return CliState(workdir=workdir, topology=topo,
                    truth=frozenset(topo.edge_set(include_root=False, include_chords=True)),
                    head=min(topo.children_of(0)))


def _cli_argv(prefix, seed):
    meas = prefix + ".measurements.csv"
    est = prefix + ".estimate.csv"
    return (
        ["simulate", "--feeder", CLI_FEEDER, "--samples", str(CLI_SAMPLES),
         "--seed", str(seed), "--label-corruption", str(LABEL_FRACTION), "--out", prefix],
        ["estimate", "--measurements", meas, "--frame", "sequence", "--root", "1",
         "--out", est],
        ["identify-phases", "--measurements", meas, "--topology", est,
         "--out", prefix + ".phases.csv"],
    )


def _untraced_pass(prefix, seed):
    """(seconds, exit codes) for the three commands; stops at the first failure."""
    codes = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in _cli_argv(prefix, seed):
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    return time.perf_counter() - t0, codes


def _traced_simulate(tr, op, args, count):
    with tr.span("cli.simulate", op):
        with tr.span("feeders.make_feeder", op):
            topo = make_feeder(args.feeder)
        with tr.span("synth_lab.sampler_init", op):
            spec = InjectionSpec.random(topo, seed=args.injection_seed,
                                        base_sigma=args.base_sigma,
                                        reactive_ratio=args.reactive_ratio)
            sampler = FeederSampler(topo, spec)
        with tr.span("synth_lab.increments", op):
            inc = sampler.increments(args.samples - 1, seed=args.seed,
                                     slack_sigma=args.slack_sigma)
        with tr.span("synth_lab.integrate", op):
            volts = integrate_voltages(inc)
        if args.noise > 0.0:
            raise ValueError("the traced simulate mirrors noise-free runs only")
        if args.label_corruption > 0.0:
            heads = topo.children_of(0)
            with tr.span("synth_lab.corrupt_labels", op):
                volts = corrupt_labels(volts, args.label_corruption,
                                       seed=args.seed + _LABEL_SEED_OFFSET,
                                       protect=(min(heads),) if heads else ())
        with tr.span("grid_model.topology_to_csv", op):
            topology_to_csv(topo, args.out + ".topology.csv")
        meas = args.out + ".measurements.csv"
        with tr.span("synth_lab.panel_to_csv", op):
            panel_to_csv(volts, meas)
        with tr.span("synth_lab.labels_to_csv", op):
            labels_to_csv(volts, args.out + ".labels.csv")
    if count:
        tr.count("synth_lab.csv_rows", volts.n_samples * int(volts.masks.sum()))
        tr.count("synth_lab.csv_bytes", os.path.getsize(meas))


def _traced_estimate_cmd(tr, op, args, count):
    with tr.span("cli.estimate", op):
        with tr.span("synth_lab.panel_from_csv", op):
            panel = panel_from_csv(args.measurements, kind="voltage")
        source = args.source
        if source == "auto":
            source = "magnitude" if panel.magnitude_only else "complex"
        est, stats, _ = traced_estimate(tr, op, panel, args.frame, source, args.mesh,
                                        args.root, gain_tol=args.gain_tol, ridge=args.ridge,
                                        count=count)
        masks = {b: "".join(PHASES[s] for s in panel.slots(b)) for b in range(panel.n_buses)}
        with tr.span("topo_est.estimate_csv", op):
            est.to_csv(args.out, masks=masks)
        with tr.span("info_core.mi_matrix", op):
            mi = stats.mi_matrix()
        if count:
            tr.count("info_core.mi_pairs", mi.n * (mi.n - 1) // 2)
        with tr.span("info_core.mi_to_csv", op):
            mi.to_csv(args.mi_out if args.mi_out else args.out + ".mi.csv")


def _traced_identify(tr, op, args):
    with tr.span("cli.identify", op):
        with tr.span("synth_lab.panel_from_csv", op):
            panel = panel_from_csv(args.measurements, kind="voltage")
        with tr.span("topo_est.estimate_csv", op):
            tree = estimate_from_csv(args.topology)
        if not tree.rooted:
            tree.root_edge = (0, args.root)
        with tr.span("phase_id.assign", op):
            assignment = assign_phases(tree, panel, use_increments=not args.raw_magnitudes)
        tr.count("phase_id.resolved", sum(s == "resolved" for s in assignment.statuses.values()))
        tr.count("phase_id.buses", panel.n_buses - 1)
        with tr.span("phase_id.to_csv", op):
            assignment.to_csv(args.out)
        diagnose_labels(assignment, panel)


def _traced_pass(tr, op, prefix, seed, count):
    parser = cli.build_parser()
    sim, est, ident = (parser.parse_args(a) for a in _cli_argv(prefix, seed))
    t0 = time.perf_counter()
    with tr.span("cli.pass", op):
        _traced_simulate(tr, op, sim, count)
        _traced_estimate_cmd(tr, op, est, count)
        _traced_identify(tr, op, ident)
    return time.perf_counter() - t0


def _read_phase_maps(path):
    maps = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            bus, channel, phase, _ = line.rstrip("\n").split(",")
            maps.setdefault(int(bus), {})[int(channel)] = phase
    return {b: "".join(ch[k] for k in sorted(ch)) for b, ch in maps.items()}


def _score_cli(state, prefix):
    """(edge error pct, phase accuracy, problem) from the files a pass wrote."""
    est = estimate_from_csv(prefix + ".estimate.csv")
    n = state.topology.n_buses
    problem = tree_problem(est, n, state.head, 0)
    truth_labels = labels_from_csv(prefix + ".labels.csv")
    got = _read_phase_maps(prefix + ".phases.csv")
    if problem is None and set(got) != set(range(n)):
        problem = "phase file does not cover every bus"
    false, missing = edge_errors(state.truth, est.edge_set(include_chords=True))
    good = sum(got.get(b) == truth_labels.get(b) for b in range(1, n))
    return 100.0 * (false + missing) / len(state.truth), good / (n - 1), problem


def _same_files(prefix_a, prefix_b):
    for suffix in CLI_OUTPUTS:
        with open(prefix_a + suffix, "rb") as fa, open(prefix_b + suffix, "rb") as fb:
            if fa.read() != fb.read():
                return f"{suffix} differs"
    return None


def cli_run(state, seed, seconds, tracer=None):
    out = Outcome()
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        out.attempted += 1
        prefix = os.path.join(state.workdir, "run")
        try:
            s = op_seed(seed, n)
            if tracer is None:
                lat, codes = _untraced_pass(prefix, s)
            else:
                traced_prefix = os.path.join(state.workdir, "traced")
                if n % 2:
                    lat_t = _traced_pass(tracer, n, traced_prefix, s, n == 0)
                lat, codes = _untraced_pass(prefix, s)
                if not n % 2:
                    lat_t = _traced_pass(tracer, n, traced_prefix, s, n == 0)
                out.traced_s += lat_t
                out.untraced_s += lat
            if codes != [0, 0, 0]:
                out.fail(f"pass {n}: exit codes {codes}")
                n += 1
                continue
            if tracer is not None:
                diff = _same_files(prefix, traced_prefix)
                if diff:
                    out.fail(f"pass {n}: traced and cli.main outputs differ: {diff}")
                    n += 1
                    continue
            err, acc, problem = _score_cli(state, prefix)
        except Exception as exc:  # one failed pass must not end the run
            out.fail(f"pass {n}: {type(exc).__name__}: {exc}")
            n += 1
            continue
        if problem:
            out.fail(f"pass {n}: {problem}")
        else:
            out.score("bus123_month", err, acc)
            out.latencies.append(lat)
            out.units += 1
        n += 1
    check_quality(out, CLI_EDGE_CEILING_PCT)
    return out
