"""Scenario evaluation: error rates, Monte Carlo replicates, sweeps.

A scenario fixes a feeder, an injection model and the measurement
conditions (data length, noise, label corruption, DER scaling,
sampling stride). Replicates re-draw the time series under derived
seeds and push each panel through the full recovery pipeline; reports
aggregate edge error rates and phase identification accuracy and are
byte-reproducible from (config, base seed).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .feeders import make_feeder
from .grid_model import write_csv
from .info_core import FRAMES, SOURCES
from .phase_id import assign_phases, assignment_accuracy
from .synth_lab import (FeederSampler, InjectionSpec, NoiseSpec, apply_noise,
                        corrupt_labels, integrate_voltages)
from .topo_est import estimate_topology


class EvalError(Exception):
    pass


# deterministic offsets separating the per-replicate random streams
_NOISE_SEED_OFFSET = 1_000_000_007
_LABEL_SEED_OFFSET = 2_000_000_011
_DER_SEED_OFFSET = 4242

SWEEP_AXES = {
    "data_length": "n_samples",
    "noise": "noise_bound",
    "label_fraction": "label_fraction",
    "der_scale": "der_scale",
    "resolution": "resolution_stride",
}

# ScenarioConfig fields that must be integers
_INTEGER_FIELDS = ("n_samples", "resolution_stride", "injection_seed")

# ScenarioConfig fields that define the feeder model a context samples,
# in the argument order of _feeder_model
_MODEL_FIELDS = ("feeder", "z_base_ohm", "injection_seed", "base_sigma", "reactive_ratio",
                 "der_scale", "der_fraction")


def _check_seed(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise EvalError(f"{name} must be a non-negative integer, got {value!r}")


def _norm_edges(edges):
    out = set()
    for e in edges:
        a, b = e
        out.add((min(a, b), max(a, b)))
    return out


def edge_errors(true_edges, estimated_edges):
    """(false, missing) counts between unordered edge sets."""
    t = _norm_edges(true_edges)
    e = _norm_edges(estimated_edges)
    return len(e - t), len(t - e)


def error_rate(true_edges, estimated_edges):
    """Percent of false plus missing edges relative to the true count.

    May exceed 100 when the estimate is both wrong and oversized.
    """
    t = _norm_edges(true_edges)
    if not t:
        raise EvalError("true edge set is empty")
    false, missing = edge_errors(t, estimated_edges)
    return 100.0 * (false + missing) / len(t)


@dataclass
class ScenarioConfig:
    """Everything that defines one evaluation scenario.

    n_samples counts voltage snapshots; the pipeline works on the T-1
    increments. declared_root None means the true feeder head is used
    to attach the substation (the generator holds it at a constant
    voltage, so there is no substation signal to use instead unless
    slack_sigma is set). frame is checked and recorded in reports
    but changes no estimate.
    """

    feeder: str = "bus33"
    n_samples: int = 8760
    frame: str = "phase"
    source: str = "complex"
    noise_bound: float = 0.0
    noise_distribution: str = "uniform"
    label_fraction: float = 0.0
    mesh: bool = False
    max_chords: int = 1
    gain_tol: float = 0.01
    der_scale: float = 1.0
    der_fraction: float = 0.2
    resolution_stride: int = 1
    base_sigma: float = 0.004
    injection_seed: int = 0
    reactive_ratio: float = None
    slack_sigma: float = 0.0
    declared_root: int = None
    phases: bool = True
    use_increment_correlation: bool = True
    ridge: float = 0.0
    z_base_ohm: float = 10.0

    def __post_init__(self):
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise EvalError(f"{name} must be an integer, got {value!r}")
        checks = (
            ("n_samples", self.n_samples >= 2, "at least 2"),
            ("noise_bound", 0.0 <= self.noise_bound < 0.5, "in [0, 0.5)"),
            ("noise_distribution", self.noise_distribution in ("uniform", "gaussian"),
             "'uniform' or 'gaussian'"),
            ("label_fraction", 0.0 <= self.label_fraction <= 1.0, "in [0, 1]"),
            ("gain_tol", math.isfinite(self.gain_tol), "finite"),
            ("der_scale", math.isfinite(self.der_scale) and self.der_scale > 0.0,
             "finite and positive"),
            ("base_sigma", math.isfinite(self.base_sigma) and self.base_sigma > 0.0,
             "finite and positive"),
            ("slack_sigma", math.isfinite(self.slack_sigma) and self.slack_sigma >= 0.0,
             "finite and non-negative"),
            ("frame", self.frame in FRAMES, f"one of {FRAMES}"),
            ("source", self.source in SOURCES, f"one of {SOURCES}"),
            ("ridge", math.isfinite(self.ridge) and self.ridge >= 0.0,
             "finite and non-negative"),
            ("max_chords", self.max_chords in (0, 1), "0 or 1"),
            ("der_fraction", 0.0 < self.der_fraction <= 1.0, "in (0, 1]"),
            ("resolution_stride", self.resolution_stride >= 1, "at least 1"),
            ("injection_seed", self.injection_seed >= 0, "non-negative"),
        )
        for name, ok, want in checks:
            if not ok:
                raise EvalError(f"{name} must be {want}, got {getattr(self, name)!r}")

    def to_dict(self):
        return dataclasses.asdict(self)

    def replaced(self, **kw):
        return dataclasses.replace(self, **kw)


@dataclass
class ScenarioContext:
    """Cached per-scenario state shared across replicates."""

    config: ScenarioConfig
    topology: object
    spec: InjectionSpec
    sampler: FeederSampler
    true_edges: frozenset
    feeder_head: int


def _sampler(topo, injection_seed, base_sigma, reactive_ratio, der_scale, der_fraction):
    """The FeederSampler of a feeder under a scenario's injection model."""
    spec = InjectionSpec.random(topo, seed=injection_seed, base_sigma=base_sigma,
                                reactive_ratio=reactive_ratio)
    if der_scale != 1.0:
        m = topo.n_buses - 1
        k = max(1, round(der_fraction * m))
        rng = np.random.default_rng(injection_seed + _DER_SEED_OFFSET)
        chosen = sorted(rng.choice(np.arange(1, topo.n_buses), size=k, replace=False).tolist())
        spec = spec.scaled(chosen, der_scale)
    return FeederSampler(topo, spec)


@functools.lru_cache(maxsize=8)
def _feeder_model(feeder, z_base_ohm, *injection):
    """The sampler of a catalogue feeder under an injection model.

    Built once per process for each value of _MODEL_FIELDS and shared
    by every context of those values, so its arrays are made read-only.
    """
    sampler = _sampler(make_feeder(feeder, z_base_ohm=z_base_ohm), *injection)
    arrays = [sampler.masks, sampler.sampling_matrix, sampler.spec.covariances]
    arrays += [br.y_block for br in sampler.topology.branches]
    for a in arrays:
        a.flags.writeable = False
    return sampler


def build_context(config, topology=None):
    """The context of a scenario: its feeder, injection model and sampler.

    The model of a catalogue feeder comes from a process-wide cache
    keyed by the config's _MODEL_FIELDS, so repeated calls on one
    scenario in one process build it once; a process that builds each
    scenario once gains nothing from it. An explicit topology is built
    afresh.
    """
    model = [getattr(config, name) for name in _MODEL_FIELDS]
    if topology is None:
        sampler = _feeder_model(*model)
    else:
        sampler = _sampler(topology, *model[2:])
    topo = sampler.topology
    if config.declared_root is not None and config.declared_root not in topo.non_slack_ids:
        raise EvalError(f"declared_root must be a non-slack bus of the feeder "
                        f"(1 to {topo.n_buses - 1}), got {config.declared_root!r}")
    true_edges = frozenset(topo.edge_set(include_root=False, include_chords=True))
    heads = topo.children_of(0)
    return ScenarioContext(
        config=config, topology=topo, spec=sampler.spec, sampler=sampler,
        true_edges=true_edges, feeder_head=min(heads),
    )


def _clean_record(ctx, seed, n_samples):
    """The noiseless voltages of one draw, n_samples snapshots long; the
    exact prefix of every longer record under seed (see increments)."""
    inc = ctx.sampler.increments(n_samples - 1, seed=seed,
                                 slack_sigma=ctx.config.slack_sigma)
    return integrate_voltages(inc)


def _measure(ctx, record, seed):
    """What the meters report of a clean record under the scenario.

    The record at the configured stride, then meter noise and label
    corruption (feeder head protected) under seeds derived from seed.
    Neither depends on the record's length, so the first samples of a
    measured record are the measured shorter record, to the last bit.
    """
    cfg = ctx.config
    volts = dataclasses.replace(record, values=record.values[::cfg.resolution_stride])
    if cfg.noise_bound > 0.0:
        noise = NoiseSpec(bound=cfg.noise_bound, distribution=cfg.noise_distribution)
        volts = apply_noise(volts, noise, seed=seed + _NOISE_SEED_OFFSET)
    if cfg.label_fraction > 0.0:
        volts = corrupt_labels(volts, cfg.label_fraction,
                               seed=seed + _LABEL_SEED_OFFSET, protect=(ctx.feeder_head,))
    return volts


def draw_panel(ctx, seed):
    """One draw of the scenario's measured voltage panel: the clean
    record of n_samples snapshots under seed, measured."""
    _check_seed("seed", seed)
    return _measure(ctx, _clean_record(ctx, seed, ctx.config.n_samples), seed)


def _recover(ctx, volts, seed, replicate):
    """Recovery of one measured panel, scored; returns a flat result dict."""
    cfg = ctx.config
    estimate, stats = estimate_topology(volts, source=cfg.source,
                                        mesh=cfg.mesh, max_chords=cfg.max_chords,
                                        gain_tol=cfg.gain_tol, ridge=cfg.ridge,
                                        declared_root=(cfg.declared_root
                                                       if cfg.declared_root is not None
                                                       else ctx.feeder_head))
    false, missing = edge_errors(ctx.true_edges,
                                 estimate.edge_set(include_root=False, include_chords=True))
    er = 100.0 * (false + missing) / len(ctx.true_edges)
    out = {
        "replicate": replicate,
        "seed": seed,
        "error_rate": er,
        "false_edges": false,
        "missing_edges": missing,
        "n_samples_used": int(volts.n_samples),
        "phase_accuracy": None,
    }
    if cfg.phases and estimate.rooted:
        assignment = assign_phases(estimate, volts,
                                   use_increments=cfg.use_increment_correlation)
        out["phase_accuracy"] = assignment_accuracy(assignment, volts)
    return out


def run_replicate(ctx, seed, replicate=None):
    """One draw-and-recover pass; returns a flat result dict."""
    return _recover(ctx, draw_panel(ctx, seed), seed,
                    seed if replicate is None else replicate)


def _replicate_points(points, seed, replicate):
    """One replicate at every point: a result dict or an error message each.

    Points that share a sampler share one clean record, drawn at the
    longest n_samples among them. Points that also share the meter
    settings share one measurement of it, and each takes its first
    samples, which is the exact prefix draw_panel would give at that
    length. An exception fails only the points it reaches; a failed
    draw reaches every point of its sampler.
    """
    longest = {}
    for ctx in points:
        longest[ctx.sampler] = max(longest.get(ctx.sampler, 0), ctx.config.n_samples)
    records, measured, out = {}, {}, []
    for ctx in points:
        cfg = ctx.config
        # every ScenarioConfig field that _measure reads
        meters = (ctx.sampler, cfg.resolution_stride, cfg.noise_bound,
                  cfg.noise_distribution, cfg.label_fraction)
        try:
            if meters not in measured:
                if ctx.sampler not in records:
                    records[ctx.sampler] = _clean_record(ctx, seed, longest[ctx.sampler])
                measured[meters] = _measure(ctx, records[ctx.sampler], seed)
            panel = measured[meters]
            n = len(range(0, cfg.n_samples, cfg.resolution_stride))
            volts = dataclasses.replace(panel, values=panel.values[:n])
            out.append(_recover(ctx, volts, seed, replicate))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@dataclass
class EvalReport:
    """Aggregated Monte Carlo results for one scenario (or sweep point)."""

    scenario: dict
    replicates: int
    base_seed: int
    axis: str = None
    value: object = None
    seeds: list = field(default_factory=list)
    per_replicate: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    error_rate_mean: float = math.nan
    error_rate_std: float = math.nan
    false_edges_mean: float = math.nan
    missing_edges_mean: float = math.nan
    phase_accuracy_mean: float = None
    phase_accuracy_std: float = None
    wall_time_s: float = 0.0

    def error_rates(self):
        return [r["error_rate"] for r in self.per_replicate]

    def canonical_dict(self):
        """Report content without the wall-time field, for reproducibility."""
        d = dataclasses.asdict(self)
        d.pop("wall_time_s")
        return d

    def summary(self):
        pa = ("n/a" if self.phase_accuracy_mean is None
              else f"{self.phase_accuracy_mean:.4f}")
        tag = f"{self.axis}={self.value} " if self.axis else ""
        return (f"{tag}ER mean {self.error_rate_mean:.3f}% std {self.error_rate_std:.3f} "
                f"phase_acc {pa} ({self.replicates} replicates, "
                f"{len(self.failures)} failures)")


def _aggregate(results, failures, config, replicates, base_seed, axis, value, wall):
    results = sorted(results, key=lambda r: r["replicate"])
    ers = np.asarray([r["error_rate"] for r in results], dtype=float)
    accs = [r["phase_accuracy"] for r in results if r["phase_accuracy"] is not None]
    report = EvalReport(
        scenario=config.to_dict(), replicates=replicates, base_seed=base_seed,
        axis=axis, value=value, seeds=[r["seed"] for r in results],
        per_replicate=results, failures=sorted(failures), wall_time_s=wall,
    )
    if ers.size:
        report.error_rate_mean = float(ers.mean())
        report.error_rate_std = float(ers.std(ddof=1)) if ers.size > 1 else 0.0
        report.false_edges_mean = float(np.mean([r["false_edges"] for r in results]))
        report.missing_edges_mean = float(np.mean([r["missing_edges"] for r in results]))
    if accs:
        arr = np.asarray(accs, dtype=float)
        report.phase_accuracy_mean = float(arr.mean())
        report.phase_accuracy_std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return report


def _evaluate(points, replicates, base_seed, threads, axis, values, t0):
    """Every replicate through every point on one pool; one report per point.

    Replicate r uses seed base_seed ^ r at every point. Each report's
    wall time is that of the whole call, which started at t0.
    """
    if replicates < 1:
        raise EvalError("need at least one replicate")
    if threads < 1:
        raise EvalError(f"threads must be at least 1, got {threads}")
    _check_seed("base_seed", base_seed)
    seeds = [base_seed ^ r for r in range(replicates)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(_replicate_points, itertools.repeat(points), seeds,
                             range(replicates)))
    wall = time.perf_counter() - t0
    reports = []
    for i, (ctx, value) in enumerate(zip(points, values)):
        results = [row[i] for row in rows if isinstance(row[i], dict)]
        failures = [(r, row[i]) for r, row in enumerate(rows) if isinstance(row[i], str)]
        reports.append(_aggregate(results, failures, ctx.config, replicates, base_seed,
                                  axis, value, wall))
    return reports


def monte_carlo(config, replicates, base_seed=0, threads=1):
    """Run independent replicates of a scenario and aggregate.

    Replicate r uses seed base_seed ^ r so a single base seed pins the
    entire experiment. Replicates run on a pool of `threads` workers.
    Per-replicate exceptions are recorded as failures rather than
    aborting the run. This is sweep's loop with a single point, so a
    sweep point's report equals monte_carlo's at that point, apart from
    wall_time_s, which is the wall time of the whole call. Calls on one
    feeder model share build_context's sampler. A recovery takes its MI
    queries as group_mis batches (a pair_mi or group_mi is a one-query
    batch) and its phase correlations from one channel correlation matrix.
    """
    t0 = time.perf_counter()
    return _evaluate([build_context(config)], replicates, base_seed, threads, None, [None], t0)[0]


def sweep(config, axis, values, replicates, base_seed=0, threads=1):
    """monte_carlo at each axis value, with common random numbers.

    All points share the same replicate seeds, so monotone trends are
    not masked by draw-to-draw variance, and each report equals
    monte_carlo's at its point. One pool of `threads` workers runs one
    job per replicate seed: it draws the clean record once, at the
    longest data length among the points, and measures and recovers
    every point from its exact prefix. A der_scale point changes the
    injection model, so it gets its own context and draws its own
    record. Every report's wall_time_s is the wall time of the whole
    call.
    """
    if axis not in SWEEP_AXES:
        raise EvalError(f"axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    t0 = time.perf_counter()
    values = list(values)
    fieldname = SWEEP_AXES[axis]
    cast = int if fieldname in _INTEGER_FIELDS else float
    for v in values:
        if cast is int and not float(v).is_integer():
            raise EvalError(f"{axis} values must be whole numbers, got {v!r}")
    configs = [config.replaced(**{fieldname: cast(v)}) for v in values]
    if axis == "der_scale":
        points = [build_context(cfg) for cfg in configs]
    else:
        shared = build_context(config)
        points = [dataclasses.replace(shared, config=cfg) for cfg in configs]
    return _evaluate(points, replicates, base_seed, threads, axis, values, t0)


def write_sweep_csv(reports, path):
    """Flat per-point summary CSV for plotting."""
    header = ["axis", "value", "replicates", "error_rate_mean",
              "error_rate_std", "false_edges_mean", "missing_edges_mean",
              "phase_accuracy_mean", "phase_accuracy_std", "failures"]
    write_csv(path, header, ([
        r.axis, r.value, r.replicates,
        repr(r.error_rate_mean), repr(r.error_rate_std),
        repr(r.false_edges_mean), repr(r.missing_edges_mean),
        "" if r.phase_accuracy_mean is None else repr(r.phase_accuracy_mean),
        "" if r.phase_accuracy_std is None else repr(r.phase_accuracy_std),
        len(r.failures),
    ] for r in reports))
