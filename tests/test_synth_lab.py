import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import channel_coords, padded, unpadded
from gridtopo.eval_harness import ScenarioConfig, build_context, draw_panel
from gridtopo.feeders import FEEDER_NAMES, make_feeder, random_feeder
from gridtopo.grid_model import PHASES, assemble_admittance
from gridtopo.synth_lab import (
    DRAW_BLOCK,
    AnalyticCovariance,
    FeederSampler,
    InjectionSpec,
    MeasurementFormatError,
    NOMINAL_ANGLES,
    NoiseSpec,
    SynthError,
    VoltagePanel,
    analytic_cov,
    apply_noise,
    corrupt_labels,
    generate_increments,
    identity_labels,
    integrate_voltages,
    labels_from_csv,
    labels_to_csv,
    panel_from_csv,
    panel_to_csv,
    to_magnitude,
    _real_composite,
)
from gridtopo.info_core import difference


# -- injection statistics ------------------------------------------------


def test_injection_random_is_deterministic(bus8):
    a = InjectionSpec.random(bus8, seed=3)
    b = InjectionSpec.random(bus8, seed=3)
    c = InjectionSpec.random(bus8, seed=4)
    assert np.array_equal(a.covariances, b.covariances)
    assert not np.array_equal(a.covariances, c.covariances)


def test_injection_respects_masks(bus8, bus8_spec):
    assert np.all(bus8_spec.covariances[0] == 0)
    for b in bus8.buses:
        if b.is_slack:
            continue
        assert bus8_spec.present_slots(b.id) == b.mask.indices


@pytest.mark.parametrize("base_sigma", [-0.004, 0.0, np.nan, np.inf])
def test_injection_spec_refuses_a_base_sigma_that_is_not_finite_and_positive(bus8, base_sigma):
    with pytest.raises(SynthError, match="base_sigma must be a finite positive number"):
        InjectionSpec.random(bus8, seed=11, base_sigma=base_sigma)


@pytest.mark.parametrize("slack_sigma", [-0.01, np.nan, np.inf])
def test_increments_refuse_a_slack_sigma_that_is_not_finite_and_non_negative(
        bus8, bus8_spec, slack_sigma):
    with pytest.raises(SynthError, match="slack_sigma must be a finite non-negative number"):
        generate_increments(bus8, bus8_spec, T=8, seed=1, slack_sigma=slack_sigma)


def test_injection_scale_clamped(bus8):
    base = 0.004
    spec = InjectionSpec.random(bus8, seed=11, base_sigma=base, bus_spread=5.0)
    for b in bus8.non_slack_ids:
        sig = np.sqrt(np.real(np.diagonal(spec.covariances[b])))
        sig = sig[sig > 0]
        # clamp 0.25x..4x times the +-30% per-phase wobble
        assert np.all(sig >= 0.25 * base * 0.7 - 1e-15)
        assert np.all(sig <= 4.0 * base * 1.3 + 1e-15)


def test_injection_blocks_are_psd(bus8_spec):
    for block in bus8_spec.covariances:
        eig = np.linalg.eigvalsh(block)
        assert eig.min() >= -1e-18


def test_injection_scaled_targets_only_named_buses(bus8, bus8_spec):
    out = bus8_spec.scaled([2, 3], 9.0)
    assert np.allclose(out.covariances[2], 9.0 * bus8_spec.covariances[2])
    assert np.allclose(out.covariances[3], 9.0 * bus8_spec.covariances[3])
    assert np.array_equal(out.covariances[1], bus8_spec.covariances[1])


def _complex_moments(F):
    """E[x xᴴ] and E[x xᵀ] of x = u + iv when (u, v) has covariance F Fᵀ."""
    p = F.shape[0] // 2
    C = F @ F.T
    uu, uv, vu, vv = C[:p, :p], C[:p, p:], C[p:, :p], C[p:, p:]
    return (uu + vv) + 1j * (vu - uv), (uu - vv) + 1j * (vu + uv)


@pytest.mark.parametrize("reactive_ratio", [None, 0.5])
def test_real_factor_gives_each_bus_its_complex_covariance(bus8, reactive_ratio):
    spec = InjectionSpec.random(bus8, seed=1, reactive_ratio=reactive_ratio)
    assert spec._real_factor(0) is None
    eps = np.finfo(float).eps
    for b in bus8.non_slack_ids:
        idx = list(spec.present_slots(b))
        want = spec.covariances[b][np.ix_(idx, idx)]
        herm, _ = _complex_moments(spec._real_factor(b))
        assert np.abs(herm - want).max() <= 4 * eps * np.abs(want).max()


def test_reactive_ratio_produces_pseudo_covariance(bus8):
    circ = InjectionSpec.random(bus8, seed=1)
    direc = InjectionSpec.random(bus8, seed=1, reactive_ratio=0.5)
    eps = np.finfo(float).eps
    for b in bus8.non_slack_ids:
        idx = list(circ.present_slots(b))
        scale = np.abs(circ.covariances[b][np.ix_(idx, idx)])
        _, pseudo_circ = _complex_moments(circ._real_factor(b))
        _, pseudo_direc = _complex_moments(direc._real_factor(b))
        assert np.abs(pseudo_circ).max() <= 2 * eps * scale.max()
        # active and reactive streams in ratio k leave (1 - k²)/(1 + k²)
        # of each entry's modulus in the pseudo-covariance
        assert np.abs(pseudo_direc) == pytest.approx(0.6 * scale, rel=1e-12)


# -- panel generation ----------------------------------------------------


def test_generate_increments_shape_and_slack(bus8, bus8_spec):
    panel = generate_increments(bus8, bus8_spec, T=64, seed=9)
    assert panel.kind == "increment"
    assert panel.n_samples == 64
    assert panel.n_buses == bus8.n_buses
    assert np.all(padded(panel)[:, 0, :] == 0)
    assert np.array_equal(panel.masks, bus8.masks_array())
    assert np.array_equal(panel.labels, identity_labels(panel.masks))


@pytest.mark.parametrize("slack_sigma", [0.0, 0.01])
@pytest.mark.parametrize("feeder, short_T, long_T", [
    ("bus8", 100, 500), ("bus8", 7, 500), ("bus8", 25, 500), ("bus123", 241, 1441),
])
def test_generate_increments_prefix_stable(feeder, short_T, long_T, slack_sigma):
    """A shorter draw is the start of the longer one, to the last bit."""
    topo = make_feeder(feeder)
    spec = InjectionSpec.random(topo, seed=0)
    short = generate_increments(topo, spec, T=short_T, seed=7, slack_sigma=slack_sigma)
    long = generate_increments(topo, spec, T=long_T, seed=7, slack_sigma=slack_sigma)
    assert short.values.tobytes() == long.values[:short_T].tobytes()


def test_slack_sigma_puts_noise_on_the_slack(bus8, bus8_spec):
    panel = generate_increments(bus8, bus8_spec, T=32, seed=1, slack_sigma=0.01)
    assert np.abs(padded(panel)[:, 0, :]).max() > 0


def test_sampler_analytic_matches_module_helper(bus8, bus8_spec):
    a = FeederSampler(bus8, bus8_spec).analytic()
    b = analytic_cov(bus8, bus8_spec)
    assert np.array_equal(a.masks, b.masks)
    assert np.allclose(a.real, b.real, atol=1e-15)


def test_analytic_covariance_refuses_a_wrong_width_or_an_empty_bus(bus8_analytic):
    real, masks = bus8_analytic.real, bus8_analytic.masks
    # the substation's channels are not part of the analytic layout
    side = 2 * int(masks.sum())
    for bad in (real[:-2, :-2], real[:, :-1], np.eye(side)):
        with pytest.raises(SynthError, match=r"real must have shape \(\d+, \d+\), two rows"):
            AnalyticCovariance(real=bad, masks=masks)
    assert AnalyticCovariance(real=real, masks=masks).dim == int(masks[1:].sum())
    gap = np.insert(masks, 2, False, axis=0)
    with pytest.raises(SynthError, match=r"no channels at bus 2;"):
        AnalyticCovariance(real=real, masks=gap)


def test_sample_covariance_approaches_analytic(bus8, bus8_spec, bus8_analytic):
    T = 200_000
    panel = generate_increments(bus8, bus8_spec, T=T, seed=3)
    D = bus8_analytic.dim
    x = np.empty((T, 2 * D))
    grid = padded(panel)
    for j, (bus, slot) in enumerate(channel_coords(bus8_analytic.masks)):
        x[:, j] = grid[:, bus, slot].real
        x[:, D + j] = grid[:, bus, slot].imag
    emp = np.cov(x, rowvar=False, ddof=1)
    scale = np.abs(bus8_analytic.real).max()
    assert np.abs(emp - bus8_analytic.real).max() < 0.05 * scale


def test_analytic_pseudo_cov_vanishes_for_circular(bus8_analytic):
    D = bus8_analytic.dim
    real = bus8_analytic.real
    rr, ri, ir, ii = real[:D, :D], real[:D, D:], real[D:, :D], real[D:, D:]
    herm = (rr + ii) + 1j * (ir - ri)
    pseudo = (rr - ii) + 1j * (ir + ri)
    assert np.abs(pseudo).max() < 1e-12 * np.abs(herm).max()
    assert np.allclose(herm, herm.conj().T, atol=1e-15)


def test_integrate_then_difference_round_trips(bus8, bus8_spec):
    inc = generate_increments(bus8, bus8_spec, T=40, seed=2)
    volts = integrate_voltages(inc)
    assert volts.kind == "voltage"
    assert volts.n_samples == 41
    back = difference(volts)
    assert back.kind == "increment"
    assert np.allclose(back.values, inc.values, atol=1e-12)


def test_integrate_rejects_voltage_panel(bus8, bus8_spec):
    inc = generate_increments(bus8, bus8_spec, T=8, seed=2)
    volts = integrate_voltages(inc)
    with pytest.raises(SynthError):
        integrate_voltages(volts)


def test_flat_start_sits_at_nominal_angles(bus8, bus8_spec):
    inc = generate_increments(bus8, bus8_spec, T=4, seed=2)
    volts = integrate_voltages(inc)
    v0 = padded(volts)[0]
    for b in range(volts.n_buses):
        for s in volts.slots(b):
            assert abs(abs(v0[b, s]) - 1.0) < 1e-12


def test_to_magnitude_drops_angles(bus8, bus8_spec):
    inc = generate_increments(bus8, bus8_spec, T=16, seed=2)
    volts = integrate_voltages(inc)
    mag = to_magnitude(volts)
    assert mag.magnitude_only
    assert np.allclose(mag.values.real, np.abs(volts.values), atol=1e-15)
    assert np.all(mag.values.imag == 0)


# -- channel layout ------------------------------------------------------


def test_panel_refuses_values_of_the_wrong_width():
    masks = np.array([[True, True, True], [False, True, False]])
    labels = identity_labels(masks)
    assert VoltagePanel(values=np.zeros((5, 4)), masks=masks, labels=labels).n_buses == 2
    for bad in (np.zeros((5, 3)), np.zeros((5, 5)), np.zeros((5, 2, 3)), np.zeros(4)):
        with pytest.raises(SynthError, match="values"):
            VoltagePanel(values=bad, masks=masks, labels=labels)


def test_panel_refuses_a_non_slack_bus_without_channels():
    masks = np.array([[True, True, True], [True, True, True], [False] * 3,
                      [True, False, False], [False] * 3])
    values = np.random.default_rng(0).normal(size=(200, int(masks.sum())))
    with pytest.raises(SynthError, match=r"no channels at buses 2, 4;"):
        VoltagePanel(values=values, masks=masks, labels=identity_labels(masks),
                     kind="increment")
    masks[0] = False  # an unmetered substation is allowed
    masks[2] = masks[4] = True
    panel = VoltagePanel(values=np.zeros((200, int(masks.sum()))), masks=masks,
                         labels=identity_labels(masks), kind="increment")
    assert panel.slots(0) == ()


@pytest.mark.parametrize("name", ["bus8", "bus13", "bus123"])
def test_columns_tile_the_channel_block_in_bus_order(name):
    masks = make_feeder(name).masks_array()
    panel = VoltagePanel(values=np.zeros((1, masks.sum())), masks=masks,
                         labels=identity_labels(masks))
    assert [c for b in range(panel.n_buses) for c in panel.columns(b)] == \
        list(range(masks.sum()))
    assert [len(panel.columns(b)) for b in range(panel.n_buses)] == masks.sum(axis=1).tolist()


@pytest.mark.parametrize("name", ["bus8", "bus13"])
def test_sampler_columns_are_the_admittance_coordinates(name):
    topo = make_feeder(name)
    sampler = FeederSampler(topo, InjectionSpec.random(topo, seed=2))
    T, seed, D = 50, 21, sampler.D
    panel = sampler.increments(T, seed=seed)
    X = np.random.default_rng(seed).standard_normal((T, 2 * D)) @ sampler.sampling_matrix.T
    first = len(panel.columns(0))
    for j, (b, s) in enumerate(channel_coords(sampler.masks)):
        col = panel.columns(b)[panel.slots(b).index(s)]
        assert col == first + j
        assert np.array_equal(panel.values[:, col], X[:, j] + 1j * X[:, D + j])
    # the substation's columns stay zero without slack_sigma
    assert first > 0 and np.all(panel.channels(0) == 0)


def _reference_sampling_matrix(topo, spec):
    """FeederSampler.sampling_matrix with the injection factor built bus by bus."""
    A = _real_composite(np.linalg.inv(assemble_admittance(topo)))
    D = A.shape[0] // 2
    F = np.zeros((2 * D, 2 * D))
    lo = 0
    for bus in topo.buses[1:]:
        p = bus.mask.count
        Fb = spec._real_factor(bus.id)
        F[lo:lo + p, 2 * lo:2 * (lo + p)] = Fb[:p]
        F[D + lo:D + lo + p, 2 * lo:2 * (lo + p)] = Fb[p:]
        lo += p
    return A @ F


def _reference_increments(sampler, T, seed):
    """FeederSampler.increments without slack: one product per DRAW_BLOCK rows of normals,
    the last block padded with zero rows, and the complex block built from two temporaries."""
    D = sampler.D
    W = np.random.default_rng(seed).standard_normal((T, 2 * D))
    X = np.empty((T, 2 * D))
    for lo in range(0, T, DRAW_BLOCK):
        rows = np.zeros((DRAW_BLOCK, 2 * D))
        n = len(W[lo:lo + DRAW_BLOCK])
        rows[:n] = W[lo:lo + DRAW_BLOCK]
        X[lo:lo + n] = (rows @ sampler.sampling_matrix.T)[:n]
    values = np.zeros((T, int(sampler.masks.sum())), dtype=complex)
    values[:, values.shape[1] - D:] = X[:, :D] + 1j * X[:, D:]
    return values


def _reference_integrate(panel):
    """integrate_voltages' values: flat start plus a separate cumulative sum."""
    true = np.where(panel.labels >= 0, panel.labels, np.arange(3))[panel.masks]
    v0 = (np.ones(panel.values.shape[1]) if panel.magnitude_only
          else np.exp(1j * np.asarray(NOMINAL_ANGLES)[true]))
    out = np.zeros((panel.n_samples + 1, panel.values.shape[1]), dtype=complex)
    out[0] = v0
    out[1:] = v0 + np.cumsum(panel.values, axis=0)
    return out


def _oracle_specs(topo, seed):
    """Circular, directional and semidefinite (rank-one phase blocks) specs."""
    return [InjectionSpec.random(topo, seed=seed),
            InjectionSpec.random(topo, seed=seed, reactive_ratio=0.4),
            InjectionSpec.random(topo, seed=seed, phase_corr=1.0)]


def test_sampler_and_draws_equal_the_per_bus_construction_bit_for_bit(small_random_feeders):
    feeders = [make_feeder(name) for name in FEEDER_NAMES]
    for topo in feeders + [t for t, _, _ in small_random_feeders]:
        for spec in _oracle_specs(topo, 4):
            sampler = FeederSampler(topo, spec)
            want = _reference_sampling_matrix(topo, spec)
            assert sampler.sampling_matrix.tobytes() == want.tobytes()
            for T in (1, 7, 240, 600):
                inc = sampler.increments(T, seed=T)
                assert inc.values.tobytes() == _reference_increments(sampler, T, T).tobytes()
                for panel in (inc, to_magnitude(inc)):
                    volts = integrate_voltages(panel)
                    assert volts.values.tobytes() == _reference_integrate(panel).tobytes()
                    assert (volts.kind, volts.magnitude_only) == ("voltage", panel.magnitude_only)
                    assert np.array_equal(volts.masks, panel.masks)
                    assert np.array_equal(volts.labels, panel.labels)


def _reference_noise(grid, masks, noise, seed):
    """apply_noise as written for the (T, n_buses, 3) slot grid."""
    rng = np.random.default_rng(seed)
    sel = np.broadcast_to(masks[None, :, :], grid.shape)
    n = int(sel.sum())
    if noise.distribution == "uniform":
        eps = rng.uniform(-noise.bound, noise.bound, size=n)
    else:
        tail = scipy.special.ndtr(-3.0)
        eps = (noise.bound / 3.0) * scipy.special.ndtri(rng.uniform(tail, 1.0 - tail, size=n))
        np.clip(eps, -noise.bound, noise.bound, out=eps)
    factor = np.ones(grid.shape)
    factor[sel] = 1.0 + eps
    return grid * factor


def _reference_corrupt(grid, masks, labels, fraction, seed, protect=()):
    """corrupt_labels as written for the slot grid: (grid, labels)."""
    grid, labels = grid.copy(), labels.copy()
    rng = np.random.default_rng(seed)
    eligible = [b for b in range(1, masks.shape[0])
                if masks[b].sum() >= 2 and b not in set(protect)]
    count = min(math.ceil(fraction * (masks.shape[0] - 1)), len(eligible))
    chosen = sorted(rng.choice(eligible, size=count, replace=False)) if count else []
    for b in chosen:
        slots = np.flatnonzero(masks[b])
        p = len(slots)
        perm = np.arange(p)
        while np.array_equal(perm, np.arange(p)):
            perm = rng.permutation(p)
        vals = grid[:, b, slots].copy()
        labs = labels[b, slots].copy()
        grid[:, b, slots[perm]] = vals
        labels[b, slots[perm]] = labs
    return grid, labels


@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_noise_matches_the_slot_grid_reference(distribution):
    topo = make_feeder("bus13")
    volts = _volt_panel(topo, InjectionSpec.random(topo, seed=1), 300, 4)
    noise = NoiseSpec(bound=0.01, distribution=distribution)
    for seed in range(3):
        got = padded(apply_noise(volts, noise, seed=seed))
        assert got.tobytes() == _reference_noise(padded(volts), volts.masks, noise,
                                                 seed).tobytes()


def test_corruption_matches_the_slot_grid_reference():
    topo = make_feeder("bus13")
    volts = _volt_panel(topo, InjectionSpec.random(topo, seed=1), 60, 4)
    head = min(topo.children_of(0))
    for fraction, seed, protect in ((0.3, 0, ()), (0.5, 7, (head,)), (1.0, 3, (head,))):
        out = corrupt_labels(volts, fraction, seed=seed, protect=protect)
        grid, labels = _reference_corrupt(padded(volts), volts.masks, volts.labels,
                                          fraction, seed, protect)
        assert not np.array_equal(out.labels, volts.labels)
        assert padded(out).tobytes() == grid.tobytes()
        assert np.array_equal(out.labels, labels)


# -- meter noise ---------------------------------------------------------


def test_noise_spec_validation():
    with pytest.raises(SynthError):
        NoiseSpec(bound=-0.01)
    with pytest.raises(SynthError):
        NoiseSpec(bound=0.5)
    with pytest.raises(SynthError):
        NoiseSpec(bound=0.01, distribution="laplace")


def _volt_panel(topo, spec, T, seed):
    return integrate_voltages(generate_increments(topo, spec, T=T, seed=seed))


def test_zero_noise_is_identity(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 16, 4)
    out = apply_noise(volts, NoiseSpec(bound=0.0), seed=1)
    assert np.array_equal(out.values, volts.values)
    out2 = apply_noise(volts, None, seed=1)
    assert np.array_equal(out2.values, volts.values)


def test_noise_is_multiplicative_and_bounded(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 200, 4)
    for dist in ("uniform", "gaussian"):
        out = apply_noise(volts, NoiseSpec(bound=0.02, distribution=dist), seed=6)
        vgrid, ogrid = padded(volts), padded(out)
        sel = np.broadcast_to(volts.masks[None, :, :], vgrid.shape)
        ratio = np.abs(ogrid[sel]) / np.abs(vgrid[sel])
        assert np.all(ratio >= 1.0 - 0.02 - 1e-12)
        assert np.all(ratio <= 1.0 + 0.02 + 1e-12)
        # angles untouched
        assert np.allclose(np.angle(ogrid[sel]), np.angle(vgrid[sel]),
                           atol=1e-15)
        assert np.all(ogrid[~sel] == 0)


def test_noise_distributions_pass_ks(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 100_000, 4)
    vgrid = padded(volts)
    sel = np.broadcast_to(volts.masks[None, :, :], vgrid.shape)
    bound = 0.01
    uni = apply_noise(volts, NoiseSpec(bound=bound, distribution="uniform"), seed=8)
    eps = (np.abs(padded(uni)[sel]) / np.abs(vgrid[sel]) - 1.0)
    stat = scipy.stats.kstest(eps, scipy.stats.uniform(-bound, 2 * bound).cdf)
    assert stat.pvalue > 0.01
    gau = apply_noise(volts, NoiseSpec(bound=bound, distribution="gaussian"), seed=8)
    eps = (np.abs(padded(gau)[sel]) / np.abs(vgrid[sel]) - 1.0)
    sigma = bound / 3.0
    trunc = scipy.stats.truncnorm(-3.0, 3.0, loc=0.0, scale=sigma)
    stat = scipy.stats.kstest(eps, trunc.cdf)
    assert stat.pvalue > 0.01


def test_noise_deterministic_in_seed(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 32, 4)
    spec = NoiseSpec(bound=0.005)
    a = apply_noise(volts, spec, seed=3)
    b = apply_noise(volts, spec, seed=3)
    c = apply_noise(volts, spec, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# -- label corruption ----------------------------------------------------


def _multi_phase_ids(panel):
    return [b for b in range(1, panel.n_buses) if panel.masks[b].sum() >= 2]


def test_corrupt_labels_exact_count(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 8, 4)
    M = bus8.n_buses - 1
    frac = 0.25
    out = corrupt_labels(volts, frac, seed=0)
    changed = [b for b in range(volts.n_buses)
               if not np.array_equal(out.labels[b], volts.labels[b])]
    assert len(changed) == math.ceil(frac * M)
    assert 0 not in changed
    for b in changed:
        assert sorted(out.true_phases(b)) == sorted(volts.true_phases(b))
        assert out.true_phases(b) != volts.true_phases(b)


def test_corrupt_labels_moves_the_data_with_the_truth(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 64, 4)
    out = corrupt_labels(volts, 0.3, seed=1)
    ogrid, vgrid = padded(out), padded(volts)
    for b in range(volts.n_buses):
        slots = volts.slots(b)
        for s, true in zip(slots, out.true_phases(b)):
            col = ogrid[:, b, s]
            ref = vgrid[:, b, slots[list(volts.true_phases(b)).index(true)]]
            assert np.array_equal(col, ref)


def test_corrupt_labels_protect_and_zero(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 8, 4)
    out = corrupt_labels(volts, 0.0, seed=0)
    assert np.array_equal(out.labels, volts.labels)
    eligible = _multi_phase_ids(volts)
    for seed in range(12):
        out = corrupt_labels(volts, 1.0, seed=seed, protect=(eligible[0],))
        assert np.array_equal(out.labels[eligible[0]], volts.labels[eligible[0]])


def test_corrupt_labels_skips_single_phase(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 8, 4)
    out = corrupt_labels(volts, 1.0, seed=2)
    for b in range(1, volts.n_buses):
        if volts.masks[b].sum() == 1:
            assert np.array_equal(out.labels[b], volts.labels[b])


# -- CSV interchange -----------------------------------------------------


def test_panel_csv_round_trip(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 12, 4)
    buf = io.StringIO()
    panel_to_csv(volts, buf)
    buf.seek(0)
    back = panel_from_csv(buf)
    assert back.n_samples == volts.n_samples
    assert np.array_equal(back.masks, volts.masks)
    assert np.allclose(back.values, volts.values, atol=1e-12)
    assert not back.magnitude_only


def test_magnitude_panel_round_trip(bus8, bus8_spec):
    mag = to_magnitude(_volt_panel(bus8, bus8_spec, 6, 4))
    buf = io.StringIO()
    panel_to_csv(mag, buf)
    buf.seek(0)
    back = panel_from_csv(buf)
    assert back.magnitude_only
    assert np.allclose(back.values.real, mag.values.real, atol=1e-12)


def test_label_sidecar_round_trip(bus8, bus8_spec):
    volts = corrupt_labels(_volt_panel(bus8, bus8_spec, 6, 4), 0.3, seed=5)
    buf = io.StringIO()
    labels_to_csv(volts, buf)
    buf.seek(0)
    mapping = labels_from_csv(buf)
    assert mapping == {b: "".join(PHASES[p] for p in volts.true_phases(b))
                       for b in range(volts.n_buses)}


def test_panel_csv_rejects_bad_header():
    with pytest.raises(MeasurementFormatError):
        panel_from_csv(io.StringIO("t,bus,phase,mag,ang\n"))


def test_panel_csv_rejects_mixed_angles(bus8, bus8_spec):
    volts = _volt_panel(bus8, bus8_spec, 4, 4)
    buf = io.StringIO()
    panel_to_csv(volts, buf)
    lines = buf.getvalue().splitlines()
    parts = lines[1].split(",")
    parts[-1] = ""
    lines[1] = ",".join(parts)
    with pytest.raises(MeasurementFormatError):
        panel_from_csv(io.StringIO("\n".join(lines) + "\n"))


def test_label_sidecar_rejects_bad_phase():
    with pytest.raises(MeasurementFormatError):
        labels_from_csv(io.StringIO("bus_id,true_phase_order\n1,axb\n"))


@pytest.mark.parametrize("rows, message", [
    pytest.param("1,abc\n1,cab\n", "line 3: repeated bus id 1", id="repeated-bus"),
    pytest.param("1,abc\n2,aab\n", "line 3: bad phase order 'aab'", id="repeated-letter"),
])
def test_label_sidecar_refuses_ambiguous_rows(rows, message):
    with pytest.raises(MeasurementFormatError, match=message):
        labels_from_csv(io.StringIO("bus_id,true_phase_order\n" + rows))


def test_label_sidecar_unreadable_csv_names_line():
    big = "a" * (csv.field_size_limit() + 1)
    with pytest.raises(MeasurementFormatError, match="line 2: unreadable CSV"):
        labels_from_csv(io.StringIO("bus_id,true_phase_order\n1," + big + "\n"))


# -- CSV interchange: byte layout, parity with the row-by-row reader -------

_HEADER = "t,bus_id,phase,magnitude_pu,angle_deg"


def _reference_panel_from_csv(text):
    """The row-by-row reader the columnar one replaced: (values, masks, magnitude_only)."""
    rows = list(csv.reader(io.StringIO(text)))
    records = {}
    have_angle = set()
    for row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        t, b, phase = int(row[0]), int(row[1]), row[2].strip().lower()
        mag = float(row[3])
        if row[4].strip():
            ang = math.radians(float(row[4].strip()))
            records[(t, b, phase)] = mag * complex(math.cos(ang), math.sin(ang))
            have_angle.add(True)
        else:
            records[(t, b, phase)] = complex(mag, 0.0)
            have_angle.add(False)
    T = max(k[0] for k in records) + 1
    B = max(k[1] for k in records) + 1
    values = np.zeros((T, B, 3), dtype=complex)
    masks = np.zeros((B, 3), dtype=bool)
    for (t, b, phase), v in records.items():
        values[t, b, "abc".index(phase)] = v
        masks[b, "abc".index(phase)] = True
    return values, masks, have_angle == {False}


def _reference_panel_to_csv(panel):
    """The csv.writer export the columnar writer replaced."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(_HEADER.split(","))
    mags = np.abs(padded(panel))
    angs = np.degrees(np.angle(padded(panel)))
    for b in range(panel.n_buses):
        for s in np.flatnonzero(panel.masks[b]):
            for t in range(panel.n_samples):
                ang = "" if panel.magnitude_only else repr(float(angs[t, b, s]))
                w.writerow([t, b, "abc"[s], repr(float(mags[t, b, s])), ang])
    return buf.getvalue()


def _assert_same_as_reference(text):
    panel = panel_from_csv(io.StringIO(text))
    values, masks, magnitude_only = _reference_panel_from_csv(text)
    assert padded(panel).tobytes() == values.tobytes()
    assert np.array_equal(panel.masks, masks)
    assert panel.magnitude_only == magnitude_only
    return panel


def _tiny_panel():
    masks = np.array([[True, False, False], [False, True, True]])
    values = np.zeros((2, 2, 3), dtype=complex)
    values[:, 0, 0] = [1.0, -2.0]
    values[:, 1, 1] = [0.5j, -0.25j]
    values[:, 1, 2] = [1e-05, 0.1]
    return VoltagePanel(values=unpadded(values, masks), masks=masks,
                        labels=identity_labels(masks))


def test_panel_to_csv_golden_bytes():
    buf = io.StringIO()
    panel_to_csv(_tiny_panel(), buf)
    assert buf.getvalue() == (
        "t,bus_id,phase,magnitude_pu,angle_deg\r\n"
        "0,0,a,1.0,0.0\r\n1,0,a,2.0,180.0\r\n"
        "0,1,b,0.5,90.0\r\n1,1,b,0.25,-90.0\r\n"
        "0,1,c,1e-05,0.0\r\n1,1,c,0.1,0.0\r\n"
    )
    buf = io.StringIO()
    panel_to_csv(to_magnitude(_tiny_panel()), buf)
    assert buf.getvalue() == (
        "t,bus_id,phase,magnitude_pu,angle_deg\r\n"
        "0,0,a,1.0,\r\n1,0,a,2.0,\r\n"
        "0,1,b,0.5,\r\n1,1,b,0.25,\r\n"
        "0,1,c,1e-05,\r\n1,1,c,0.1,\r\n"
    )


@pytest.mark.parametrize("magnitude_only", [False, True])
def test_cli_written_file_matches_reference_reader_and_writer(tmp_path, magnitude_only):
    from gridtopo.cli import main

    prefix = str(tmp_path / "sim")
    extra = ["--magnitude-only"] if magnitude_only else []
    assert main(["simulate", "--feeder", "bus13", "--samples", "40", "--seed", "3",
                 "--label-corruption", "0.2", "--out", prefix, *extra]) == 0
    path = prefix + ".measurements.csv"
    with open(path, newline="") as fh:
        text = fh.read()
    panel = _assert_same_as_reference(text)
    assert panel_from_csv(path).values.tobytes() == panel.values.tobytes()
    buf = io.StringIO()
    panel_to_csv(panel, buf)
    assert buf.getvalue() == _reference_panel_to_csv(panel)
    if magnitude_only:
        # |m + 0j| is m, so a magnitude file survives a read and write untouched
        assert buf.getvalue() == text


def test_panel_csv_writes_simulated_panel_like_reference(bus8, bus8_spec):
    volts = corrupt_labels(_volt_panel(bus8, bus8_spec, 30, 2), 0.4, seed=1)
    buf = io.StringIO()
    panel_to_csv(volts, buf)
    assert buf.getvalue() == _reference_panel_to_csv(volts)


_GOOD_ROWS = "0,1,a,1.0,0.0\n1,1,a,1.0,0.0\n0,2,b,1.0,0.0\n1,2,b,1.0,0.0\n"


@pytest.mark.parametrize("skipped", ["", "\n", "\n   \n", ",,,,\n\t\n"])
@pytest.mark.parametrize("bad_row, message", [
    ("0,2,b,1.0", "expected 5 fields, got 4"),
    ("0,2,b,1.0,0.0,7", "expected 5 fields, got 6"),
    ("x,2,b,1.0,0.0", "must be integers"),
    ("0,1.5,b,1.0,0.0", "must be integers"),
    ("-1,2,b,1.0,0.0", "non-negative"),
    ("0,-2,b,1.0,0.0", "non-negative"),
    ("0,2,d,1.0,0.0", "bad phase"),
    ("0,2,ab,1.0,0.0", "bad phase"),
    ("0,2,c,abc,0.0", "cannot parse magnitude"),
    ("0,2,c,1.0,xyz", "cannot parse angle"),
    ("0,2,c,1.0,inf", "infinite angle"),
    ("0,2,c,1.0,nan", "NaN angle"),
    ("0,2,c,nan,0.0", "non-finite magnitude 'nan'"),
    ("0,2,c,inf,0.0", "non-finite magnitude 'inf'"),
    ("0,2,c,-inf,0.0", "non-finite magnitude '-inf'"),
    ("0,2,c,nan,nan", "non-finite magnitude"),
    ("1,1,a,1.0,0.0", "duplicate sample for (1, 1, 'a')"),
    ("0,2,c,1.0,", "mixed empty and present angle fields"),
])
def test_panel_csv_errors_name_the_line(skipped, bad_row, message):
    lines = _GOOD_ROWS.splitlines(keepends=True)
    text = _HEADER + "\n" + lines[0] + lines[1] + skipped + bad_row + "\n" + "".join(lines[2:])
    bad_line = 4 + skipped.count("\n")
    with pytest.raises(MeasurementFormatError) as info:
        panel_from_csv(io.StringIO(text))
    assert info.value.line_no == bad_line
    assert str(info.value).startswith(f"line {bad_line}: ")
    assert message in str(info.value)


def test_panel_csv_missing_sample_has_no_line():
    text = _HEADER + "\n" + _GOOD_ROWS.replace("1,2,b,1.0,0.0\n", "")
    with pytest.raises(MeasurementFormatError) as info:
        panel_from_csv(io.StringIO(text))
    assert info.value.line_no is None
    assert str(info.value) == "missing sample t=1 bus=2 phase=b"


def test_panel_csv_names_every_bus_without_rows():
    body = _GOOD_ROWS.replace(",1,a,", ",3,a,").replace(",2,b,", ",5,b,")
    with pytest.raises(MeasurementFormatError, match="no rows for buses 1, 2, 4;") as info:
        panel_from_csv(io.StringIO(_HEADER + "\n" + body))
    assert info.value.line_no is None
    # the substation alone may go unmetered
    panel = panel_from_csv(io.StringIO(_HEADER + "\n" + _GOOD_ROWS))
    assert panel.n_buses == 3 and not panel.masks[0].any()


@pytest.mark.parametrize("body", [
    _GOOD_ROWS,
    _GOOD_ROWS.replace(",a,", ", A ,").replace(",b,", ",B,"),
    _GOOD_ROWS.replace("1,1,a", "+1,01,a").replace("0,2,b", " 0 , 2 ,b"),
    _GOOD_ROWS.replace("1.0,0.0", '"1.0","0.0"').replace("0,1,a", '"0","1","a"'),
    _GOOD_ROWS.replace(",2,b,", ",0_2,b,"),
    _GOOD_ROWS.replace("\n", "\r\n") + "\r\n   \r\n",
    "".join(reversed(_GOOD_ROWS.splitlines(keepends=True))),
    _GOOD_ROWS.replace("1.0,0.0", "+1.5e-3, -12.25 "),
    _GOOD_ROWS.replace("1.0,0.0", "1.0,"),
])
def test_panel_csv_accepts_what_csv_reader_accepts(body):
    _assert_same_as_reference(_HEADER + "\n" + body)


def test_plain_files_take_the_columnar_parse():
    from gridtopo.synth_lab import _measurement_columns

    for mag_only in (False, True):
        buf = io.StringIO()
        panel_to_csv(to_magnitude(_tiny_panel()) if mag_only else _tiny_panel(), buf)
        cols = _measurement_columns(buf.getvalue().encode())
        assert cols is not None
        assert (cols[4] is None) == mag_only


def _traced_peak(fn):
    """(result, peak bytes allocated while fn ran, as tracemalloc counts them)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_a_year_long_draw_holds_little_beyond_its_panel():
    topo = make_feeder("bus123")
    sampler = FeederSampler(topo, InjectionSpec.random(topo, seed=0))
    panel, peak = _traced_peak(lambda: sampler.increments(8759, seed=1))
    assert peak < 1.25 * panel.values.nbytes


def test_a_slack_draw_adds_its_term_block_by_block():
    topo = make_feeder("bus123")
    sampler = FeederSampler(topo, InjectionSpec.random(topo, seed=0))
    panel, peak = _traced_peak(lambda: sampler.increments(8759, seed=1, slack_sigma=0.01))
    assert peak < 1.25 * panel.values.nbytes


@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_noise_holds_its_copy_and_one_real_draw(distribution):
    topo = make_feeder("bus123")
    volts = integrate_voltages(generate_increments(topo, InjectionSpec.random(topo, seed=0),
                                                   T=8759, seed=1))
    noise = NoiseSpec(bound=0.01, distribution=distribution)
    noisy, peak = _traced_peak(lambda: apply_noise(volts, noise, seed=3))
    assert noisy.n_samples == 8760
    assert peak < 2.0 * noisy.values.nbytes


def test_to_magnitude_holds_one_panel():
    topo = make_feeder("bus123")
    volts = integrate_voltages(generate_increments(topo, InjectionSpec.random(topo, seed=0),
                                                   T=8759, seed=1))
    mags, peak = _traced_peak(lambda: to_magnitude(volts))
    assert mags.n_samples == 8760
    assert peak < 1.25 * mags.values.nbytes


def test_reading_a_measurement_file_holds_at_most_four_times_its_size(tmp_path):
    # the reader keeps one encoded copy of the file for the parser and
    # drops it before the panel is built
    ctx = build_context(ScenarioConfig(feeder="bus123", n_samples=721, label_fraction=0.01))
    path = tmp_path / "bus123.measurements.csv"
    panel_to_csv(draw_panel(ctx, 3), path)
    tracemalloc.start()
    try:
        panel_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size


def test_panel_csv_empty_data_gives_empty_panel():
    panel = panel_from_csv(io.StringIO(_HEADER + "\r\n\r\n"))
    assert padded(panel).shape == (0, 0, 3)
    assert not panel.magnitude_only
