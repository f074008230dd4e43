import dataclasses
import json

import numpy as np
import pytest

from gridtopo import eval_harness, info_core
from gridtopo.eval_harness import (
    SWEEP_AXES,
    EvalError,
    ScenarioConfig,
    build_context,
    draw_panel,
    edge_errors,
    error_rate,
    estimate_topology,
    monte_carlo,
    run_replicate,
    sweep,
    write_sweep_csv,
)
from gridtopo.feeders import make_feeder
from gridtopo.synth_lab import (
    FeederSampler,
    InjectionSpec,
    generate_increments,
    integrate_voltages,
    to_magnitude,
)


# -- error metric --------------------------------------------------------


def test_identical_edge_sets_score_zero():
    edges = {(1, 2), (2, 3), (3, 4)}
    assert edge_errors(edges, edges) == (0, 0)
    assert error_rate(edges, edges) == 0.0


def test_one_false_one_missing_is_fifty_percent():
    true = {(1, 2), (2, 3), (3, 4), (4, 5)}
    est = {(1, 2), (2, 3), (3, 4), (1, 5)}
    assert edge_errors(true, est) == (1, 1)
    assert error_rate(true, est) == 50.0


def test_error_rate_can_exceed_hundred():
    true = {(1, 2)}
    est = {(1, 3), (2, 3)}
    assert error_rate(true, est) == 300.0


def test_edge_order_does_not_matter():
    assert edge_errors({(2, 1)}, {(1, 2)}) == (0, 0)


def test_empty_truth_rejected():
    with pytest.raises(EvalError):
        error_rate(set(), {(1, 2)})


# -- single replicate ----------------------------------------------------


def test_replicate_result_contract():
    ctx = build_context(ScenarioConfig(feeder="bus8", n_samples=300))
    out = run_replicate(ctx, seed=5, replicate=0)
    assert set(out) == {"replicate", "seed", "error_rate", "false_edges",
                        "missing_edges", "n_samples_used", "phase_accuracy"}
    assert out["seed"] == 5
    assert out["error_rate"] == 0.0
    assert out["n_samples_used"] == 300
    assert out["phase_accuracy"] == 1.0


def test_resolution_stride_subsamples():
    ctx = build_context(ScenarioConfig(feeder="bus8", n_samples=400,
                                       resolution_stride=2))
    out = run_replicate(ctx, seed=0)
    assert out["n_samples_used"] == 200


def test_estimate_topology_magnitude_fallback(bus8, bus8_spec):
    volts = integrate_voltages(generate_increments(bus8, bus8_spec, T=1500, seed=0))
    true = set(bus8.edge_set(include_root=False))
    for panel in (volts, to_magnitude(volts)):
        est, stats = estimate_topology(panel, source="magnitude", declared_root=1)
        assert set(est.edges) == true
        assert est.root_edge == (0, 1)


def test_estimate_topology_rejects_complex_from_magnitude_only(bus8, bus8_spec):
    from gridtopo.info_core import InfoCoreError

    volts = to_magnitude(integrate_voltages(
        generate_increments(bus8, bus8_spec, T=300, seed=0)))
    with pytest.raises(InfoCoreError):
        estimate_topology(volts, source="complex", declared_root=1)


# -- monte carlo ---------------------------------------------------------


def test_noiseless_scenario_is_exact():
    rep = monte_carlo(ScenarioConfig(feeder="bus8", n_samples=300), 5, base_seed=3)
    assert rep.error_rates() == [0.0] * 5
    assert [r["phase_accuracy"] for r in rep.per_replicate] == [1.0] * 5
    assert rep.failures == []
    assert rep.error_rate_mean == 0.0


def test_single_replicate_has_zero_std():
    rep = monte_carlo(ScenarioConfig(feeder="bus8", n_samples=300), 1, base_seed=0)
    assert rep.error_rate_std == 0.0


def test_replicate_seeds_are_base_xor_index():
    rep = monte_carlo(ScenarioConfig(feeder="bus8", n_samples=200), 4, base_seed=10)
    assert rep.seeds == [10 ^ r for r in range(4)]


def test_fixed_seed_reproduces_byte_identical_report():
    cfg = ScenarioConfig(feeder="bus8", n_samples=300, label_fraction=0.2)
    a = monte_carlo(cfg, 4, base_seed=7)
    b = monte_carlo(cfg, 4, base_seed=7)
    text = json.dumps(a.canonical_dict(), sort_keys=True)
    assert text == json.dumps(b.canonical_dict(), sort_keys=True)
    assert "wall_time_s" not in json.loads(text)


def test_thread_count_does_not_change_results():
    cfg = ScenarioConfig(feeder="bus8", n_samples=300, noise_bound=0.001)
    a = monte_carlo(cfg, 6, base_seed=3, threads=1)
    b = monte_carlo(cfg, 6, base_seed=3, threads=4)
    assert json.dumps(a.canonical_dict(), sort_keys=True) == \
        json.dumps(b.canonical_dict(), sort_keys=True)


def test_replicate_failures_recorded_not_raised():
    rep = monte_carlo(ScenarioConfig(feeder="bus8", n_samples=8), 3, base_seed=0)
    assert len(rep.failures) == 3
    assert rep.per_replicate == []
    assert all("InfoCoreError" in msg for _, msg in rep.failures)


def test_zero_replicates_rejected():
    with pytest.raises(EvalError):
        monte_carlo(ScenarioConfig(feeder="bus8", n_samples=200), 0)


def test_zero_threads_rejected():
    with pytest.raises(EvalError, match="threads"):
        monte_carlo(ScenarioConfig(feeder="bus8", n_samples=200), 2, threads=0)


@pytest.mark.parametrize("field, value", [
    ("n_samples", 1),
    ("noise_bound", -0.1),
    ("noise_bound", 0.5),
    ("noise_distribution", "laplace"),
    ("label_fraction", -0.5),
    ("label_fraction", 1.5),
    ("der_scale", 0.0),
    ("der_fraction", 0.0),
    ("der_fraction", 5.0),
    ("resolution_stride", 0),
    ("gain_tol", np.nan),
    ("gain_tol", -np.inf),
    ("der_scale", np.inf),
    ("base_sigma", -0.004),
    ("base_sigma", 0.0),
    ("base_sigma", np.nan),
    ("slack_sigma", -0.01),
    ("slack_sigma", np.nan),
    ("frame", "seq"),
    ("source", "magnitud"),
    ("ridge", -1.0),
    ("ridge", np.inf),
    ("max_chords", 2),
    ("injection_seed", -1),
])
def test_config_rejects_bad_generation_input(field, value):
    with pytest.raises(EvalError, match=field):
        ScenarioConfig(feeder="bus8", **{field: value})
    with pytest.raises(EvalError, match=field):
        ScenarioConfig(feeder="bus8").replaced(**{field: value})


@pytest.mark.parametrize("root", [0, 8, 99, -1])
def test_build_context_refuses_a_declared_root_off_the_feeder(root):
    with pytest.raises(EvalError, match="declared_root must be a non-slack bus"):
        build_context(ScenarioConfig(feeder="bus8", n_samples=200, declared_root=root))


@pytest.mark.parametrize("field, value", [
    ("n_samples", 150.7),
    ("n_samples", 300.0),
    ("n_samples", "300"),
    ("n_samples", True),
    ("resolution_stride", 1.5),
    ("resolution_stride", np.float64(2.0)),
    ("resolution_stride", None),
    ("injection_seed", 1.5),
    ("injection_seed", None),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(EvalError, match=f"{field} must be an integer"):
        ScenarioConfig(feeder="bus8", **{field: value})
    with pytest.raises(EvalError, match=f"{field} must be an integer"):
        ScenarioConfig(feeder="bus8").replaced(**{field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = ScenarioConfig(feeder="bus8", n_samples=np.int64(200), resolution_stride=np.int32(2))
    assert cfg.n_samples == 200 and cfg.resolution_stride == 2


@pytest.mark.parametrize("base_seed", [-1, -3, 1.5, True, None])
def test_evaluation_refuses_a_bad_base_seed_before_any_draw(base_seed, monkeypatch):
    drawn = []
    monkeypatch.setattr(FeederSampler, "increments", lambda *a, **kw: drawn.append(a))
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    with pytest.raises(EvalError, match="base_seed must be a non-negative integer"):
        monte_carlo(cfg, 2, base_seed=base_seed)
    with pytest.raises(EvalError, match="base_seed must be a non-negative integer"):
        sweep(cfg, "noise", [0.0], 2, base_seed=base_seed)
    assert drawn == []


def test_draw_panel_refuses_a_negative_seed():
    with pytest.raises(EvalError, match="seed must be a non-negative integer, got -1"):
        draw_panel(build_context(ScenarioConfig(feeder="bus8", n_samples=200)), -1)


# -- the per-process model cache -----------------------------------------


def test_equal_configs_share_one_sampler():
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    first = build_context(cfg)
    again = build_context(ScenarioConfig(feeder="bus8", n_samples=200))
    other_run = build_context(cfg.replaced(n_samples=300, noise_bound=0.001, mesh=True))
    assert first.sampler is again.sampler is other_run.sampler
    assert first.spec is first.sampler.spec and first.topology is first.sampler.topology


@pytest.mark.parametrize("field, value", [
    ("feeder", "bus13"),
    ("z_base_ohm", 12.0),
    ("injection_seed", 1),
    ("base_sigma", 0.005),
    ("reactive_ratio", 0.5),
    ("der_scale", 2.0),
    ("der_fraction", 0.5),
])
def test_a_change_to_any_model_field_builds_another_sampler(field, value):
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    changed = build_context(cfg.replaced(**{field: value}))
    assert changed.sampler is not build_context(cfg).sampler
    assert getattr(changed.config, field) == value


def test_an_explicit_topology_builds_a_fresh_sampler():
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    a = build_context(cfg, topology=make_feeder("bus8"))
    b = build_context(cfg, topology=make_feeder("bus8"))
    assert a.sampler is not b.sampler and a.sampler is not build_context(cfg).sampler
    assert np.array_equal(a.sampler.sampling_matrix, build_context(cfg).sampler.sampling_matrix)
    assert a.sampler.sampling_matrix.flags.writeable


def test_a_cache_hit_still_refuses_a_declared_root_off_the_feeder():
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    build_context(cfg)
    hits = eval_harness._feeder_model.cache_info().hits
    with pytest.raises(EvalError, match="declared_root must be a non-slack bus"):
        build_context(cfg.replaced(declared_root=8))
    assert eval_harness._feeder_model.cache_info().hits == hits + 1


def test_cached_model_arrays_are_read_only():
    ctx = build_context(ScenarioConfig(feeder="bus8", n_samples=200, der_scale=2.0))
    arrays = [ctx.sampler.masks, ctx.sampler.sampling_matrix, ctx.spec.covariances]
    arrays += [br.y_block for br in ctx.topology.branches]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
    # draws still work, and their arrays are the caller's own
    panel = draw_panel(ctx, 3)
    assert panel.values.flags.writeable and panel.masks.flags.writeable


def test_rooted_request_builds_one_statistics(bus8, bus8_spec, monkeypatch):
    built = []
    init = info_core.PanelStatistics.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(info_core.PanelStatistics, "__init__", counting_init)
    volts = integrate_voltages(generate_increments(bus8, bus8_spec, T=2000, seed=3,
                                                   slack_sigma=0.01))
    est, stats = estimate_topology(volts, frame="sequence")
    assert built == [stats]
    assert stats.bus_ids[0] == 0
    assert est.root_edge == (0, 1)


def test_noise_and_label_paths_stay_exact_on_small_feeder():
    cfg = ScenarioConfig(feeder="bus8", n_samples=1000, noise_bound=0.002,
                         label_fraction=0.2)
    rep = monte_carlo(cfg, 3, base_seed=1)
    assert rep.failures == []
    assert rep.error_rates() == [0.0] * 3


def test_mesh_scenario_recovers_chord():
    cfg = ScenarioConfig(feeder="bus15_mesh", n_samples=4000, mesh=True)
    rep = monte_carlo(cfg, 2, base_seed=0)
    assert rep.error_rates() == [0.0, 0.0]


def test_der_scaling_changes_the_generator():
    base = build_context(ScenarioConfig(feeder="bus8", n_samples=300))
    hot = build_context(ScenarioConfig(feeder="bus8", n_samples=300, der_scale=5.0))
    assert not np.array_equal(base.spec.covariances, hot.spec.covariances)
    boosted = [b for b in range(1, 8)
               if not np.array_equal(base.spec.covariances[b], hot.spec.covariances[b])]
    assert len(boosted) == max(1, round(0.2 * 7))


# -- sweeps --------------------------------------------------------------


def test_single_point_sweep_equals_monte_carlo():
    cfg = ScenarioConfig(feeder="bus8", n_samples=240)
    swept = sweep(cfg, "data_length", [240], replicates=4, base_seed=2)
    direct = monte_carlo(cfg, 4, base_seed=2)
    assert len(swept) == 1
    assert swept[0].axis == "data_length" and swept[0].value == 240
    assert swept[0].error_rates() == direct.error_rates()
    assert ([r["phase_accuracy"] for r in swept[0].per_replicate]
            == [r["phase_accuracy"] for r in direct.per_replicate])


def test_sweep_shares_draws_across_points():
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    reports = sweep(cfg, "data_length", [100, 200], replicates=3, base_seed=5)
    assert [r.value for r in reports] == [100, 200]
    assert reports[0].seeds == reports[1].seeds


@pytest.mark.parametrize("feeder, short_n", [
    ("bus33", 241), ("bus123", 241), ("bus8", 7), ("bus8", 25),
])
@pytest.mark.parametrize("slack_sigma", [0.0, 0.01])
@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_shorter_record_is_a_prefix_of_the_longer_draw(distribution, slack_sigma, feeder,
                                                       short_n):
    cfg = ScenarioConfig(feeder=feeder, n_samples=1441, noise_bound=0.002,
                         noise_distribution=distribution, slack_sigma=slack_sigma,
                         label_fraction=0.1)
    ctx = build_context(cfg)
    long = draw_panel(ctx, 12)
    short = draw_panel(dataclasses.replace(ctx, config=cfg.replaced(n_samples=short_n)), 12)
    assert short.values.tobytes() == long.values[:short_n].tobytes()
    assert np.array_equal(short.labels, long.labels)


# one axis each; bus8 cannot recover from 8 samples, so data_length
# also checks that a failing point fails alike in both
SWEEP_CASES = [
    ("data_length", [8, 300, 120]),
    ("noise", [0.0, 0.001, 0.004]),
    ("label_fraction", [0.0, 0.3, 0.6]),
    ("der_scale", [1.0, 4.0]),
    ("resolution", [1, 3, 2]),
]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("axis, values", SWEEP_CASES)
def test_every_sweep_point_equals_monte_carlo_at_that_point(axis, values, threads):
    cfg = ScenarioConfig(feeder="bus8", n_samples=300, noise_bound=0.0005,
                         noise_distribution="gaussian", label_fraction=0.2,
                         slack_sigma=0.01)
    reports = sweep(cfg, axis, values, replicates=3, base_seed=6, threads=threads)
    field = SWEEP_AXES[axis]
    for value, report in zip(values, reports):
        point = cfg.replaced(**{field: type(getattr(cfg, field))(value)})
        direct = monte_carlo(point, 3, base_seed=6, threads=threads)
        direct.axis, direct.value = axis, value
        assert (json.dumps(report.canonical_dict(), sort_keys=True)
                == json.dumps(direct.canonical_dict(), sort_keys=True))
    if axis == "data_length":
        assert len(reports[0].failures) == 3


def _counting_increments(monkeypatch, fail_seed=None):
    """Record the length of every FeederSampler.increments draw; fail one seed."""
    calls = []
    increments = FeederSampler.increments

    def counting(self, T, seed=None, **kw):
        calls.append(T)
        if seed == fail_seed:
            raise RuntimeError("draw failed")
        return increments(self, T, seed=seed, **kw)

    monkeypatch.setattr(FeederSampler, "increments", counting)
    return calls


def test_data_length_sweep_draws_each_replicate_once(monkeypatch):
    calls = _counting_increments(monkeypatch)
    reports = sweep(ScenarioConfig(feeder="bus8", n_samples=300), "data_length",
                    [120, 300, 200], replicates=3, base_seed=4, threads=2)
    assert calls == [299] * 3
    assert all(r.failures == [] for r in reports)
    assert len({r.wall_time_s for r in reports}) == 1


def test_a_failed_draw_fails_every_point_of_its_replicate(monkeypatch):
    _counting_increments(monkeypatch, fail_seed=5 ^ 1)
    reports = sweep(ScenarioConfig(feeder="bus8", n_samples=200), "noise", [0.0, 0.001],
                    replicates=3, base_seed=5)
    for r in reports:
        assert r.failures == [(1, "RuntimeError: draw failed")]
        assert [row["replicate"] for row in r.per_replicate] == [0, 2]


def test_sweep_takes_values_from_any_iterable():
    cfg = ScenarioConfig(feeder="bus8", n_samples=200, phases=False)
    listed = sweep(cfg, "noise", [0.0, 0.001], replicates=2, base_seed=1)
    generated = sweep(cfg, "noise", (v for v in [0.0, 0.001]), replicates=2, base_seed=1)
    assert ([r.canonical_dict() for r in generated]
            == [r.canonical_dict() for r in listed])


def test_sweep_rejects_unknown_axis():
    with pytest.raises(EvalError):
        sweep(ScenarioConfig(), "voltage_level", [1], replicates=1)


def test_sweep_accepts_whole_floats_on_integer_axes():
    cfg = ScenarioConfig(feeder="bus8", n_samples=200, phases=False)
    report, = sweep(cfg, "data_length", [150.0], replicates=1)
    assert type(report.scenario["n_samples"]) is int and report.scenario["n_samples"] == 150
    assert report.value == 150.0


def test_sweep_casts_by_field_not_by_the_configured_value():
    cfg = ScenarioConfig(feeder="bus8", n_samples=np.int64(200), noise_bound=0, phases=False)
    with pytest.raises(EvalError, match="whole numbers"):
        sweep(cfg, "data_length", [150.7], replicates=1)
    report, = sweep(cfg, "noise", [0.001], replicates=1)
    assert report.scenario["noise_bound"] == 0.001


def test_sweep_csv(tmp_path):
    cfg = ScenarioConfig(feeder="bus8", n_samples=200)
    reports = sweep(cfg, "noise", [0.0, 0.001], replicates=2, base_seed=0)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("axis,value,replicates,error_rate_mean")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "noise"
