import concurrent.futures
import csv
import dataclasses
import io
import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.stats

from conftest import (SEQ_H_INV, channel_coords, dense_mi, dense_reference, eliminated_logdet,
                      from_sequence, padded, record_logdets, sequence_statistics, to_sequence,
                      unpadded)
from gridtopo import info_core
from gridtopo.feeders import FEEDER_NAMES, make_feeder, random_feeder
from gridtopo.info_core import (
    InfoCoreError,
    MIComputationError,
    MIMatrix,
    PanelStatistics,
    SOURCES,
    SingularCovarianceError,
    difference,
    mi_breakdown,
    _chi2_upper_quantile,
    _feature_cov,
    substation_mi,
)
from gridtopo.synth_lab import (
    AnalyticCovariance,
    InjectionSpec,
    NoiseSpec,
    VoltagePanel,
    apply_noise,
    corrupt_labels,
    generate_increments,
    identity_labels,
    integrate_voltages,
    to_magnitude,
)
from gridtopo.topo_est import estimate_topology


def _exact(real, coords):
    """Statistics of a hand-built exact covariance over (bus, slot) coords in column order."""
    masks = np.zeros((max(b for b, _ in coords) + 1, 3), dtype=bool)
    masks[tuple(zip(*coords))] = True
    assert channel_coords(masks) == coords
    acov = AnalyticCovariance(real=np.asarray(real, dtype=float), masks=masks)
    return PanelStatistics.from_analytic(acov)


def _conditional_mi(stats, a, b, given):
    """I(A; B | Z) by the chain rule I(A; B, Z) - I(A; Z)."""
    return stats.group_mi(a, list(b) + list(given)) - stats.group_mi(a, given)


# -- closed-form MI through the kernel -----------------------------------


def test_exact_mi_half_correlation():
    # Re parts correlated at 0.5, Im parts independent of everything
    real = np.eye(4)
    real[0, 1] = real[1, 0] = 0.5
    stats = _exact(real, [(1, 0), (2, 0)])
    assert stats.pair_mi(1, 2) == pytest.approx(0.14384103622589045, abs=1e-12)


def test_exact_mi_zero_when_independent():
    stats = _exact(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), [(1, 0), (2, 0), (3, 0)])
    assert stats.group_mi([1], [2, 3]) == pytest.approx(0.0, abs=1e-15)


def test_exact_conditional_mi_markov_chain_is_zero():
    # x -> y -> z with unit innovations, in the Re and the Im parts alike
    C = np.array([[1.0, 1.0, 1.0],
                  [1.0, 2.0, 2.0],
                  [1.0, 2.0, 3.0]])
    real = np.block([[C, np.zeros((3, 3))], [np.zeros((3, 3)), C]])
    stats = _exact(real, [(1, 0), (2, 0), (3, 0)])
    assert _conditional_mi(stats, [1], [3], [2]) == pytest.approx(0.0, abs=1e-12)
    assert stats.pair_mi(1, 3) > 0.1


def test_exact_statistics_reject_singular_bus():
    stats = _exact(np.ones((2, 2)), [(1, 0)])
    with pytest.raises(SingularCovarianceError):
        stats.mi_matrix()


# -- sample MI through the kernel ----------------------------------------


def _two_bus_panel(x, y):
    """Increment panel: constant substation, bus 1 holds x, bus 2 holds y."""
    T = x.shape[0]
    values = np.zeros((T, 3, 3), dtype=complex)
    values[:, 1, :x.shape[1]] = x
    values[:, 2, :y.shape[1]] = y
    masks = np.zeros((3, 3), dtype=bool)
    masks[0] = True
    masks[1, :x.shape[1]] = True
    masks[2, :y.shape[1]] = True
    return VoltagePanel(values=unpadded(values, masks), masks=masks, labels=identity_labels(masks),
                        kind="increment", magnitude_only=False)


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_sample_mi_independent_pairs_near_zero(rng):
    panel = _two_bus_panel(_cnormal(rng, (10_000, 1)), _cnormal(rng, (10_000, 1)))
    assert PanelStatistics(panel).pair_mi(1, 2) < 0.02


def test_sample_mi_invariant_to_affine_maps(rng):
    x = _cnormal(rng, (3000, 2))
    y = 0.4 * x[:, :1] + _cnormal(rng, (3000, 1))
    base = PanelStatistics(_two_bus_panel(x, y)).pair_mi(1, 2)
    A = np.array([[2.0, 0.3j], [0.0, -1.5]])
    moved = _two_bus_panel(x @ A.T + 7.0, (3.0 - 1.0j) * y - 1.0)
    for frame in ("phase", "sequence"):
        got = PanelStatistics(moved, frame=frame).pair_mi(1, 2)
        assert got == pytest.approx(base, abs=1e-9)


# -- sequence transform --------------------------------------------------


def test_sequence_of_balanced_positive_set():
    angles = np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])
    v = np.exp(1j * angles)
    s = to_sequence(v)
    assert abs(s[0] - 1.0) < 1e-12
    assert abs(s[1]) < 1e-12 and abs(s[2]) < 1e-12


def test_sequence_of_common_mode_is_zero_component():
    s = to_sequence(np.ones(3, dtype=complex))
    assert abs(s[2] - 1.0) < 1e-12
    assert abs(s[0]) < 1e-12 and abs(s[1]) < 1e-12


def test_sequence_round_trip(rng):
    v = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    assert np.allclose(from_sequence(to_sequence(v)), v, atol=1e-12)


def test_sequence_rejects_wrong_width():
    with pytest.raises(ValueError):
        to_sequence(np.ones((4, 2)))


# -- panel statistics ----------------------------------------------------


def _inc(topo, spec, T, seed):
    return generate_increments(topo, spec, T=T, seed=seed)


def test_mi_matrix_shape_and_symmetry(bus8, bus8_spec):
    est = PanelStatistics(_inc(bus8, bus8_spec, 600, 0)).mi_matrix()
    assert est.bus_ids == tuple(sorted(bus8.non_slack_ids))
    assert np.allclose(est.values, est.values.T, atol=1e-15)
    assert np.all(np.diag(est.values) == 0)
    assert all(v > 0 for _, _, v in est.pairs())


def test_panel_statistics_computes_mi_matrix_once(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 300, 2)
    stats = PanelStatistics(panel, frame="sequence")
    first = stats.mi_matrix()
    assert stats.mi_matrix() is first
    again = PanelStatistics(panel, frame="sequence").mi_matrix()
    assert np.array_equal(first.values, again.values)


def test_mi_matrix_all_frame_source_combinations(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 400, 1)
    for frame in ("phase", "sequence"):
        for source in ("complex", "magnitude"):
            est = PanelStatistics(panel, frame=frame, source=source).mi_matrix()
            assert np.all(np.isfinite(est.values))
            # the frame changes no value
            assert np.array_equal(est.values,
                                  PanelStatistics(panel, source=source).mi_matrix().values)


@pytest.mark.parametrize("call", [
    lambda volts: PanelStatistics(difference(volts), frame="seq"),
    lambda volts: substation_mi(difference(volts), frame="seq"),
    lambda volts: estimate_topology(volts, frame="seq"),
], ids=["PanelStatistics", "substation_mi", "estimate_topology"])
def test_entry_points_that_take_a_frame_refuse_an_unknown_one(bus8, bus8_spec, call):
    volts = integrate_voltages(_inc(bus8, bus8_spec, 50, 3))
    with pytest.raises(InfoCoreError, match="frame must be one of"):
        call(volts)


def test_mi_matrix_invariant_to_label_corruption(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 1500, 2)
    volts = integrate_voltages(panel)
    scrambled = difference(corrupt_labels(volts, 0.5, seed=9))
    for frame in ("phase", "sequence"):
        for source in ("complex", "magnitude"):
            a = PanelStatistics(panel, frame=frame, source=source).mi_matrix()
            b = PanelStatistics(scrambled, frame=frame, source=source).mi_matrix()
            assert np.abs(a.values - b.values).max() < 1e-12


def test_magnitude_sequence_equals_magnitude_phase(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 800, 3)
    a = PanelStatistics(panel, frame="phase", source="magnitude").mi_matrix()
    b = PanelStatistics(panel, frame="sequence", source="magnitude").mi_matrix()
    assert np.abs(a.values - b.values).max() < 1e-9


def test_sample_mi_matrix_tracks_analytic(bus8, bus8_spec, bus8_analytic):
    panel = _inc(bus8, bus8_spec, 8760, 4)
    est = PanelStatistics(panel).mi_matrix()
    truth = PanelStatistics.from_analytic(bus8_analytic).mi_matrix()
    for i, k, v in truth.pairs():
        assert est.value(i, k) == pytest.approx(v, rel=0.10, abs=5e-3)


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_group_mi_is_the_same_before_and_after_the_marginal_cache(bus8, bus8_spec,
                                                                  frame, source):
    panel = _inc(bus8, bus8_spec, 600, 3)
    cold = PanelStatistics(panel, frame=frame, source=source)
    before = (cold.group_mi([4], [2, 3]), cold.pair_mi(2, 4))
    warm = PanelStatistics(panel, frame=frame, source=source)
    warm.mi_matrix()
    after = (warm.group_mi([4], [2, 3]), warm.pair_mi(2, 4))

    def ld(buses):
        idx = [j for b in buses for j in cold.slices[b]]
        return float(eliminated_logdet(cold.cov[np.ix_(idx, idx)]))

    direct = (0.5 * (ld([4]) + ld([2, 3]) - ld([4, 2, 3])),
              0.5 * (ld([2]) + ld([4]) - ld([2, 4])))
    assert before == after == direct


def test_statistics_require_enough_samples(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 10, 0)
    with pytest.raises(InfoCoreError):
        PanelStatistics(panel).pair_mi(1, 2)


def test_group_mi_merges_blocks(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 2000, 5)
    stats = PanelStatistics(panel)
    both = stats.group_mi([1, 2], [4])
    single = stats.pair_mi(1, 4)
    assert both >= single - 1e-9


# -- parity with the per-bus, data-side construction ---------------------
#
# PanelStatistics gathers all channels at once into one covariance of
# the phase-frame features; the reference below builds each bus's
# features from its own channels, in the requested frame, standardizes
# the data and multiplies, which is the construction the gathered form
# replaces. The covariances agree with the phase-frame reference and the
# MI with the reference in either frame, to rounding.


def _reference_features(panel, bus_id, frame, source):
    x = panel.channels(bus_id)
    slots = list(panel.slots(bus_id))
    A = SEQ_H_INV[:len(slots)][:, slots]
    if source == "magnitude":
        m = x.real if panel.magnitude_only else np.abs(x)
        return m if frame == "phase" else m @ A.T
    if frame == "sequence":
        x = x @ A.T
    return np.stack([x.real, x.imag], axis=-1).reshape(x.shape[0], -1)


def _reference_statistics(panel, frame, source, slack=False):
    """(standardized covariance, slices) built bus by bus from the data."""
    buses = list(range(0 if slack else 1, panel.n_buses))
    feats = [_reference_features(panel, b, frame, source) for b in buses]
    slices, start = {}, 0
    for b, f in zip(buses, feats):
        slices[b] = list(range(start, start + f.shape[1]))
        start += f.shape[1]
    X = np.hstack(feats)
    sd = np.sqrt(np.mean(np.abs(X - X.mean(axis=0)) ** 2, axis=0))
    dead = set(np.flatnonzero(sd <= 0.0).tolist())
    if dead:
        owners = sorted(b for b in buses if dead & set(slices[b]))
        raise SingularCovarianceError(f"zero-variance channels at buses {owners}")
    X = (X - X.mean(axis=0)) / sd
    X = X - X.mean(axis=0)
    return X.conj().T @ X / (X.shape[0] - 1), slices


def _reference_mi(cov, slices):
    buses = [b for b in sorted(slices) if b != 0]

    def ld(idx):
        return np.linalg.slogdet(cov[np.ix_(idx, idx)])[1].real

    out = np.zeros((len(buses), len(buses)))
    for i, bi in enumerate(buses):
        for k in range(i + 1, len(buses)):
            bk = buses[k]
            v = 0.5 * (ld(slices[bi]) + ld(slices[bk]) - ld(slices[bi] + slices[bk]))
            out[i, k] = out[k, i] = v
    return out


def _assert_parity(panel, frame, source, slack=False):
    ref_cov, ref_slices = _reference_statistics(panel, "phase", source, slack)
    stats = PanelStatistics(panel, frame=frame, source=source)
    assert stats.slices == ref_slices
    assert stats.dim == ref_cov.shape[0] and stats.n_samples == panel.n_samples
    assert stats.cov.dtype == ref_cov.dtype == np.float64
    assert np.abs(stats.cov - ref_cov).max() <= 1e-9 * np.abs(ref_cov).max()
    ref_mi = _reference_mi(*_reference_statistics(panel, frame, source, slack))
    got = stats.mi_matrix().values
    assert np.abs(got - ref_mi).max() <= 1e-9 * np.abs(ref_mi).max()


def _all_pairs_loop_reference(stats):
    """All-pairs MI, pair by pair, without the batching or the gather plan.

    Each bus's and each pair's log-determinant is one plain elimination
    of its own block (eliminated_logdet), and the values are written
    back pair by pair.
    """
    buses = [b for b in stats.bus_ids if b != 0]

    def ld(idx):
        return float(eliminated_logdet(stats.cov[np.ix_(idx, idx)]))

    marg = {b: ld(stats.slices[b]) for b in buses}
    values = np.zeros((len(buses), len(buses)))
    for ii in range(len(buses)):
        for kk in range(ii + 1, len(buses)):
            bi, bk = buses[ii], buses[kk]
            values[ii, kk] = values[kk, ii] = \
                0.5 * (marg[bi] + marg[bk] - ld(stats.slices[bi] + stats.slices[bk]))
    return values


@pytest.mark.parametrize("slack_sigma", [0.0, 0.01])
@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_mi_matrix_equals_the_per_pair_loop_bit_for_bit(bus8, bus8_spec, frame, source,
                                                        slack_sigma):
    panel = generate_increments(bus8, bus8_spec, T=400, seed=21, slack_sigma=slack_sigma)
    stats = PanelStatistics(panel, frame=frame, source=source)
    assert (0 in stats.slices) == (slack_sigma > 0)
    assert np.array_equal(stats.mi_matrix().values, _all_pairs_loop_reference(stats))


def test_exact_mi_matrix_equals_the_per_pair_loop_bit_for_bit(small_random_feeders):
    for _, _, acov in small_random_feeders:
        stats = PanelStatistics.from_analytic(acov)
        assert np.array_equal(stats.mi_matrix().values, _all_pairs_loop_reference(stats))


def test_all_pairs_gather_plan_is_built_once_per_layout(bus8, bus8_spec):
    plans = info_core._pair_plan
    plans.cache_clear()
    for seed in (1, 2, 3):
        PanelStatistics(generate_increments(bus8, bus8_spec, T=300, seed=seed)).mi_matrix()
    assert (plans.cache_info().misses, plans.cache_info().hits) == (1, 2)
    # one source's widths, or the substation's features in front, make another layout
    panel = generate_increments(bus8, bus8_spec, T=300, seed=4, slack_sigma=0.01)
    PanelStatistics(panel, source="magnitude").mi_matrix()
    PanelStatistics(panel).mi_matrix()
    assert (plans.cache_info().misses, plans.cache_info().hits) == (3, 2)


def test_concurrent_first_uses_build_one_gather_plan(bus8, bus8_spec):
    plans = info_core._pair_plan
    panels = [generate_increments(bus8, bus8_spec, T=300, seed=s) for s in range(6)]
    want = [PanelStatistics(p, source="magnitude").mi_matrix().values for p in panels]
    stats = [PanelStatistics(p, source="magnitude") for p in panels]
    start = threading.Barrier(len(stats))

    def first_use(s):
        start.wait(timeout=60)
        return s.mi_matrix().values

    plans.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(stats)) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(first_use, s) for s in stats]]
    finally:
        sys.setswitchinterval(interval)
    assert plans.cache_info().misses == 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_batched_marginals_equal_the_per_bus_logdet_bit_for_bit(bus8, bus8_spec,
                                                                small_random_feeders):
    """mi_matrix's bus log-determinants, one batch per width, against each bus's own
    elimination (eliminated_logdet)."""
    stats = [PanelStatistics.from_analytic(acov) for _, _, acov in small_random_feeders]
    for slack_sigma in (0.0, 0.01):
        panel = generate_increments(bus8, bus8_spec, T=400, seed=21, slack_sigma=slack_sigma)
        stats += [PanelStatistics(panel, source=source) for source in SOURCES]
    for st in stats:
        st.mi_matrix()
        buses = [b for b in st.bus_ids if b != 0]
        assert ([st._blocks[(b,)].hex() for b in buses]
                == [float(eliminated_logdet(st.cov[np.ix_(st.slices[b], st.slices[b])])).hex()
                    for b in buses])


def test_mi_matrix_names_every_singular_pair(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 600, 16)
    grid = padded(panel)
    for a, b in ((2, 5), (3, 7)):
        grid[:, b, panel.slots(b)[0]] = grid[:, a, panel.slots(a)[0]]
    panel.values = unpadded(grid, panel.masks)
    with pytest.raises(MIComputationError) as err:
        PanelStatistics(panel).mi_matrix()
    assert err.value.failures == [(2, 5), (3, 7)]


def test_a_query_names_its_first_singular_block(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 600, 16)
    grid = padded(panel)
    grid[:, 5, panel.slots(5)[0]] = grid[:, 2, panel.slots(2)[0]]
    panel.values = unpadded(grid, panel.masks)
    stats = PanelStatistics(panel)
    for call, named in ((lambda: stats.pair_mi(2, 5), [2, 5]),
                        (lambda: stats.group_mi([5], [2, 1]), [5, 2, 1]),
                        (lambda: stats.group_mis([([1], [2]), ([2], [5])]), [2, 5])):
        with pytest.raises(SingularCovarianceError) as err:
            call()
        assert str(err.value) == f"singular covariance for buses {named}"
    # the good blocks of a failed batch are kept, and read as a cold query's
    assert stats.pair_mi(1, 2) == PanelStatistics(panel).pair_mi(1, 2)


# -- block log-determinant kernel ----------------------------------------


def _catalogue_joint_widths():
    """Every feature count of one, two or three buses of a catalogue feeder, both sources."""
    out = set()
    for name in FEEDER_NAMES:
        phases = set(make_feeder(name).masks_array().sum(axis=1).tolist())
        for per_phase in (1, 2):
            w = {per_phase * p for p in phases}
            out |= w | {a + b for a in w for b in w} | {a + b + c for a in w for b in w for c in w}
    return sorted(out)


def _random_spd(rng, d, n):
    """n random unit-diagonal positive definite (d, d) blocks, as (n, d, d)."""
    G = rng.standard_normal((n, d, 2 * d))
    M = G @ G.transpose(0, 2, 1) / (2 * d)
    s = np.sqrt(np.diagonal(M, axis1=1, axis2=2))
    return M / (s[:, :, None] * s[:, None, :])


def test_block_logdets_match_slogdet_on_every_catalogue_width():
    rng = np.random.default_rng(5)
    widths = _catalogue_joint_widths()
    assert widths[0] == 1 and widths[-1] == 18
    for d in widths:
        blocks = _random_spd(rng, d, 200)
        ld, ok = info_core._block_logdets(np.ascontiguousarray(blocks.transpose(1, 2, 0)))
        sign, want = np.linalg.slogdet(blocks)
        assert ok.all() and (sign > 0).all()
        # rounding of two different factorisations of blocks with log|det| of order -d
        assert np.abs(ld - want).max() <= 1e-12 * d * max(1.0, np.abs(want).max())


def test_block_logdets_flag_singular_indefinite_and_nan_blocks():
    rng = np.random.default_rng(6)
    good = _random_spd(rng, 6, 1)[0]
    duplicated = good.copy()
    duplicated[4], duplicated[:, 4] = duplicated[1], duplicated[:, 1]
    dead = good.copy()
    dead[2], dead[:, 2] = 0.0, 0.0
    indefinite = good.copy()
    indefinite[3, 3] = -1.0
    flipped = good - 2.0 * np.eye(6)
    holed = good.copy()
    holed[5, 0] = holed[0, 5] = np.nan
    blocks = np.stack([good, duplicated, dead, indefinite, flipped, holed, good])
    ld, ok = info_core._block_logdets(np.ascontiguousarray(blocks.transpose(1, 2, 0)))
    assert ok.tolist() == [True, False, False, False, False, False, True]
    assert ld[0] == ld[6] and np.isfinite(ld[0])


def test_a_block_alone_equals_the_same_block_in_a_large_batch():
    rng = np.random.default_rng(7)
    for d in (4, 8, 12, 18):
        blocks = np.ascontiguousarray(_random_spd(rng, d, 1000).transpose(1, 2, 0))
        batched, _ = info_core._block_logdets(blocks.copy())
        alone = [info_core._block_logdets(blocks[:, :, [n]].copy())[0][0] for n in range(0, 1000, 37)]
        assert [v.hex() for v in alone] == [v.hex() for v in batched[::37]]


def test_pairs_and_triples_alone_equal_their_batched_values(bus8, bus8_spec):
    """A query's bits do not depend on the batch that took its blocks."""
    panel = generate_increments(bus8, bus8_spec, T=500, seed=9, slack_sigma=0.01)
    batched = PanelStatistics(panel)
    matrix = batched.mi_matrix()
    queries = [([m], [p, q]) for m in (2, 4, 6) for p, q in ((1, 3), (3, 5), (5, 7))]
    queries += [([0], [b]) for b in range(1, 8)] + [([5, 6], [7]), ([2], [1, 3])]
    values = batched.group_mis(queries)
    for (a, b), v in zip(queries, values):
        assert PanelStatistics(panel).group_mi(a, b).hex() == v.hex()
    for i, k, v in matrix.pairs():
        assert PanelStatistics(panel).pair_mi(i, k).hex() == v.hex()
    with pytest.raises(InfoCoreError, match="disjoint"):
        PanelStatistics(panel).group_mis([([1], [2]), ([3], [3, 4])])


def test_mi_queries_take_no_lapack_determinant(bus8, bus8_spec, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("np.linalg.slogdet called")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    panel = generate_increments(bus8, bus8_spec, T=500, seed=10, slack_sigma=0.01)
    stats = PanelStatistics(panel)
    assert stats.mi_matrix().n == 7
    assert stats.group_mi([4], [2, 3]) > 0.0
    assert stats.substation_mi() is not None
    assert substation_mi(panel) is not None
    assert mi_breakdown(integrate_voltages(panel), 1, 2)[0] > 0.0


@pytest.mark.parametrize("warm", [False, True])
def test_substation_mi_takes_one_batch_per_joint_width(bus8, bus8_spec, monkeypatch, warm):
    panel = generate_increments(bus8, bus8_spec, T=600, seed=12, slack_sigma=0.01)
    stats = PanelStatistics(panel)
    if warm:
        stats.mi_matrix()
    widths = record_logdets(stats, monkeypatch)
    got = stats.substation_mi()
    assert widths and len(widths) == len(set(widths))
    single = PanelStatistics(panel)
    assert got == {b: single.pair_mi(0, b) for b in range(1, 8)}


def test_a_pair_query_takes_one_batch_per_joint_width(bus8, bus8_spec, monkeypatch):
    """group_mi and pair_mi are one-query group_mis: a cold query takes its blocks
    in one _logdets call per distinct width, and a second query none."""
    panel = generate_increments(bus8, bus8_spec, T=600, seed=13)
    queries = [([i], [k]) for i, k in itertools.combinations(range(1, 8), 2)]
    queries += [([4], [2, 3]), ([5, 6], [7])]
    for a, b in queries:
        stats = PanelStatistics(panel)
        widths = record_logdets(stats, monkeypatch)
        da = sum(len(stats.slices[x]) for x in a)
        db = sum(len(stats.slices[x]) for x in b)
        value = stats.pair_mi(a[0], b[0]) if len(a + b) == 2 else stats.group_mi(a, b)
        cold = list(widths)
        assert sorted(cold) == sorted({da, db, da + db})
        assert stats.group_mi(a, b) == value and widths == cold


@pytest.mark.parametrize("T", [31, 241, 8760])
@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_panel_statistics_matches_per_bus_reference(bus8, bus8_spec, T, frame, source):
    _assert_parity(_inc(bus8, bus8_spec, T, 11), frame, source)


@pytest.mark.parametrize("T", [31, 241, 8760])
@pytest.mark.parametrize("frame", ["phase", "sequence"])
def test_panel_statistics_matches_reference_on_magnitude_only_panel(bus8, bus8_spec, T, frame):
    volts = to_magnitude(integrate_voltages(_inc(bus8, bus8_spec, T, 12)))
    _assert_parity(difference(volts), frame, "magnitude")


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_panel_statistics_matches_reference_with_slack(bus8, bus8_spec, frame, source):
    panel = generate_increments(bus8, bus8_spec, T=241, seed=13, slack_sigma=0.01)
    _assert_parity(panel, frame, source, slack=True)


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_constant_slack_is_left_out_of_the_gather(bus8, bus8_spec, frame, source):
    """The slack test never reorders the non-slack covariance arithmetic."""
    panel = _inc(bus8, bus8_spec, 241, 15)
    stats = PanelStatistics(panel, frame=frame, source=source)
    assert stats.bus_ids == list(range(1, panel.n_buses)) and 0 not in stats.slices
    cov, slices = _feature_cov(panel, stats.bus_ids, source)
    n = panel.n_samples
    sd = np.sqrt(cov.diagonal() * ((n - 1) / n))
    cov /= np.outer(sd, sd)
    assert stats.slices == slices
    assert np.array_equal(stats.cov, cov)
    assert stats.substation_mi() is None


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_zero_variance_error_names_the_reference_buses(bus8, bus8_spec, frame, source):
    panel = _inc(bus8, bus8_spec, 241, 14)
    grid = padded(panel)
    grid[:, 3, :] = 0.0
    grid[:, 5, 1] = 0.0
    panel.values = unpadded(grid, panel.masks)
    with pytest.raises(SingularCovarianceError) as want:
        _reference_statistics(panel, "phase", source)
    with pytest.raises(SingularCovarianceError) as got:
        PanelStatistics(panel, frame=frame, source=source)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("[3, 5]")


def test_panel_statistics_accepts_strided_values(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 200, 18)
    wide = np.zeros((panel.n_samples, 2 * panel.values.shape[1]), dtype=complex)
    wide[:, ::2] = panel.values
    strided = dataclasses.replace(panel, values=wide[:, ::2])
    for frame in ("phase", "sequence"):
        want = PanelStatistics(panel, frame=frame).cov
        assert np.array_equal(PanelStatistics(strided, frame=frame).cov, want)


# -- exact statistics from the analytic covariance -----------------------
#
# The reference (conftest.dense_reference) is the dense construction
# from_analytic replaces: the frame transform as one (2D, 2D) matrix on
# the analytic [Re; Im] layout, correlation scaling, and one
# log-determinant per pair. The kernel's covariance is the phase-frame
# one; its MI matches the reference in either frame.


@pytest.mark.parametrize("frame", ["phase", "sequence"])
def test_from_analytic_matches_dense_reference(bus8_analytic, small_random_feeders, frame):
    for acov in [bus8_analytic] + [a for _, _, a in small_random_feeders]:
        C, pos = dense_reference(acov, "phase")
        stats = PanelStatistics.from_analytic(acov)
        assert stats.bus_ids == sorted(pos)
        order = np.concatenate([pos[b] for b in stats.bus_ids])
        want = C[np.ix_(order, order)]
        assert np.abs(stats.cov - want).max() <= 1e-12
        ref = dense_mi(*dense_reference(acov, frame))
        got = stats.mi_matrix()
        assert got.bus_ids == tuple(stats.bus_ids)
        assert np.abs(got.values - ref).max() <= 1e-11 * np.abs(ref).max()


def test_from_analytic_is_infinite_data(bus8_analytic):
    stats = PanelStatistics.from_analytic(bus8_analytic)
    assert stats.n_samples == math.inf
    assert np.all(np.isfinite(stats.cov))
    assert np.abs(stats.cov.diagonal() - 1.0).max() <= 1e-12
    assert stats.substation_mi() is None
    stats.require_samples(10 ** 9)


# -- ridge ---------------------------------------------------------------


def test_ridge_adds_to_the_standardized_diagonal(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 300, 15)
    for frame in ("phase", "sequence"):
        for source in ("complex", "magnitude"):
            base = PanelStatistics(panel, frame=frame, source=source).cov
            loaded = PanelStatistics(panel, frame=frame, source=source, ridge=0.25).cov
            assert np.array_equal(loaded, base + 0.25 * np.eye(base.shape[0]))


def test_ridge_rescues_a_duplicated_channel(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 600, 16)
    grid = padded(panel)
    grid[:, 2, 1] = grid[:, 2, 0]
    panel.values = unpadded(grid, panel.masks)
    with pytest.raises(SingularCovarianceError):
        PanelStatistics(panel).mi_matrix()
    mi = PanelStatistics(panel, ridge=1e-3).mi_matrix()
    assert np.all(np.isfinite(mi.values))


@pytest.mark.parametrize("ridge", [-1.0, -1e-12, math.nan, math.inf])
def test_ridge_rejects_negative_and_non_finite(bus8, bus8_spec, ridge):
    panel = _inc(bus8, bus8_spec, 100, 17)
    with pytest.raises(InfoCoreError, match="ridge"):
        PanelStatistics(panel, ridge=ridge)


# -- magnitude and angle split -------------------------------------------


def test_mi_breakdown_chain_rule(bus8, bus8_spec):
    volts = integrate_voltages(_inc(bus8, bus8_spec, 3000, 6))
    for pair in ((1, 2), (2, 4)):
        a, b, c = mi_breakdown(volts, *pair)
        x = volts.channels(pair[0])
        y = volts.channels(pair[1])

        def polar(z):
            m = np.abs(np.diff(z, axis=0))
            t = np.diff(np.unwrap(np.angle(z), axis=0), axis=0)
            return np.hstack([m, t])

        # independent reference: Gaussian MI of the two polar blocks
        C = np.corrcoef(np.hstack([polar(x), polar(y)]), rowvar=False)
        d = 2 * x.shape[1]
        ld = lambda M: np.linalg.slogdet(M)[1]
        total = 0.5 * (ld(C[:d, :d]) + ld(C[d:, d:]) - ld(C))
        assert a + b + c == pytest.approx(total, abs=1e-9)
        assert a >= 0 and b >= -1e-12 and c >= -1e-12


def test_mi_breakdown_takes_one_batch_per_joint_width(bus8, bus8_spec, monkeypatch):
    volts = integrate_voltages(_inc(bus8, bus8_spec, 1500, 8))
    widths = []
    logdets = PanelStatistics._logdets

    def recording(self, flat):
        widths.append(flat.shape[0])
        return logdets(self, flat)

    monkeypatch.setattr(PanelStatistics, "_logdets", recording)
    a, b, c = mi_breakdown(volts, 1, 2)
    assert a > 0 and b != 0.0 and c != 0.0
    assert widths and len(widths) == len(set(widths))


def test_mi_breakdown_magnitude_only_drops_angle_terms(bus8, bus8_spec):
    volts = to_magnitude(integrate_voltages(_inc(bus8, bus8_spec, 1500, 7)))
    a, b, c = mi_breakdown(volts, 1, 2)
    assert b == 0.0 and c == 0.0
    assert a > 0


def test_mi_breakdown_rejects_a_duplicated_channel(bus8, bus8_spec):
    volts = integrate_voltages(_inc(bus8, bus8_spec, 1500, 7))
    first, second = volts.slots(2)[:2]
    grid = padded(volts)
    grid[:, 2, second] = grid[:, 2, first]
    volts.values = unpadded(grid, volts.masks)
    with pytest.raises(SingularCovarianceError):
        mi_breakdown(volts, 1, 2)


# -- substation usability gate -------------------------------------------


def test_substation_threshold_is_the_scipy_stats_chi2_quantile():
    # the package computes it through scipy.special so that importing
    # gridtopo does not import scipy.stats; the value must not move a bit
    for name in FEEDER_NAMES:
        alpha = 1e-3 / (make_feeder(name).n_buses - 1)
        for dof in range(1, 37):
            assert _chi2_upper_quantile(alpha, dof) == scipy.stats.chi2.ppf(1.0 - alpha, dof)


def test_substation_silent_when_slack_constant(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 500, 0)
    assert substation_mi(panel) is None


def test_substation_rejects_noise_on_constant(bus8, bus8_spec):
    volts = integrate_voltages(_inc(bus8, bus8_spec, 800, 1))
    noisy = apply_noise(volts, NoiseSpec(bound=0.005), seed=3)
    inc = difference(noisy)
    for frame in ("phase", "sequence"):
        assert substation_mi(inc, frame=frame) is None


def test_substation_rejects_independent_series(bus8, bus8_spec, rng):
    panel = _inc(bus8, bus8_spec, 2000, 2)
    jitter = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    grid = padded(panel)
    grid[:, 0, :] = 1e-4 * jitter
    panel.values = unpadded(grid, panel.masks)
    assert substation_mi(panel) is None


def test_substation_accepts_common_mode(bus8, bus8_spec):
    panel = generate_increments(bus8, bus8_spec, T=2000, seed=3, slack_sigma=0.01)
    out = substation_mi(panel)
    assert out is not None
    assert set(out) == set(bus8.non_slack_ids)
    assert all(v >= 0 for v in out.values())


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_substation_mi_reads_the_estimator_statistics(bus8, bus8_spec, frame, source):
    panel = generate_increments(bus8, bus8_spec, T=2000, seed=3, slack_sigma=0.01)
    stats = PanelStatistics(panel, frame=frame, source=source)
    assert stats.bus_ids[0] == 0
    out = stats.substation_mi()
    assert out is not None
    assert out == substation_mi(panel, frame=frame, source=source)
    assert out == {b: stats.pair_mi(0, b) for b in bus8.non_slack_ids}


def test_magnitude_rooting_does_not_depend_on_the_frame(bus8, bus8_spec):
    # a weak common mode whose substation MI sits between the chi-square
    # thresholds of one and of two parameters per cross-covariance entry
    inc = generate_increments(bus8, bus8_spec, T=500, seed=6, slack_sigma=5e-4)
    volts = integrate_voltages(inc)
    found = {}
    for frame in ("phase", "sequence"):
        est, _ = estimate_topology(volts, frame=frame, source="magnitude")
        found[frame] = (est.root_edge, substation_mi(inc, frame=frame, source="magnitude"))
    assert found["phase"][0] == (0, 1)
    assert found["sequence"] == found["phase"]
    assert found["phase"][1][1] == pytest.approx(0.036742, abs=1e-6)


def test_substation_points_at_copied_bus(bus8, bus8_spec, rng):
    panel = _inc(bus8, bus8_spec, 2000, 4)
    src = 1
    grid = padded(panel)
    scale = np.abs(grid[:, src, :]).std()
    jitter = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    grid[:, 0, :] = grid[:, src, :] + 0.1 * scale * jitter
    panel.values = unpadded(grid, panel.masks)
    out = substation_mi(panel)
    assert out is not None
    assert max(out, key=out.get) == src


# -- exact MI on feeders -------------------------------------------------


def test_exact_mi_matrix_hand_built_pair():
    rho = 0.6
    herm = np.array([[1.0, rho], [rho, 1.0]])
    real = 0.5 * np.block([[herm, np.zeros((2, 2))], [np.zeros((2, 2)), herm]])
    est = _exact(real, [(1, 0), (2, 0)]).mi_matrix()
    want = -math.log(1.0 - rho * rho)
    assert est.value(1, 2) == pytest.approx(want, abs=1e-12)


def test_exact_frame_invariance(bus8_analytic):
    a = PanelStatistics.from_analytic(bus8_analytic).mi_matrix()
    b = sequence_statistics(bus8_analytic).mi_matrix()
    assert np.abs(a.values - b.values).max() < 1e-9


def test_exact_conditional_mi_nonnegative(bus8, bus8_analytic):
    val = _conditional_mi(PanelStatistics.from_analytic(bus8_analytic), [4], [2], [1])
    assert val >= -1e-12


def test_exact_mi_on_small_random_feeders(small_random_feeders):
    for topo, spec, acov in small_random_feeders[:3]:
        est = PanelStatistics.from_analytic(acov).mi_matrix()
        assert est.bus_ids == tuple(sorted(topo.non_slack_ids))
        assert all(np.isfinite(v) and v >= 0 for _, _, v in est.pairs())


# -- MI matrix CSV -------------------------------------------------------


def test_mi_matrix_csv_round_trip(bus8, bus8_spec):
    est = PanelStatistics(_inc(bus8, bus8_spec, 300, 8)).mi_matrix()
    buf = io.StringIO()
    est.to_csv(buf)
    buf.seek(0)
    header, *rows = csv.reader(buf)
    assert header == ["bus_i", "bus_j", "mi_nats"]
    back = {(int(i), int(k)): float(v) for i, k, v in rows}
    assert back == {(i, k): v for i, k, v in est.pairs()}


def test_mi_matrix_must_be_symmetric():
    values = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InfoCoreError, match="symmetric"):
        MIMatrix(bus_ids=(1, 2), values=values)
