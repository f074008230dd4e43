import dataclasses
import io
import math

import numpy as np
import pytest

from gridtopo.feeders import random_feeder
from gridtopo.info_core import (
    SEQ_H_INV,
    InfoCoreError,
    MIMatrix,
    PanelStatistics,
    SingularCovarianceError,
    analytic_conditional_mi,
    analytic_mi_matrix,
    conditional_mi_from_cov,
    entropy_from_cov,
    from_sequence,
    gaussian_entropy,
    mi_breakdown,
    mi_from_cov,
    mi_matrix,
    mutual_information,
    sequence_real_cov,
    _feature_cov,
    substation_mi,
    to_sequence,
)
from gridtopo.synth_lab import (
    AnalyticCovariance,
    InjectionSpec,
    NoiseSpec,
    apply_noise,
    corrupt_labels,
    generate_increments,
    integrate_voltages,
    to_magnitude,
)
from gridtopo.eval_harness import difference

LOG_2PIE_HALF = 0.5 * math.log(2.0 * math.pi * math.e)


# -- closed-form entropy and MI ------------------------------------------


def test_entropy_of_unit_scalar():
    assert entropy_from_cov(np.eye(1)) == pytest.approx(1.4189385332046727, abs=1e-12)


def test_entropy_of_identity_3d():
    assert entropy_from_cov(np.eye(3)) == pytest.approx(3 * LOG_2PIE_HALF, abs=1e-12)
    assert entropy_from_cov(np.eye(3)) == pytest.approx(4.256815599614018, abs=1e-12)


def test_entropy_scales_with_log_variance():
    s2 = 2.5
    want = LOG_2PIE_HALF + 0.5 * math.log(s2)
    assert entropy_from_cov(np.array([[s2]])) == pytest.approx(want, abs=1e-12)


def test_entropy_rejects_singular():
    C = np.ones((2, 2))
    with pytest.raises(SingularCovarianceError):
        entropy_from_cov(C)


def test_mi_from_cov_half_correlation():
    C = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert mi_from_cov(C, [0], [1]) == pytest.approx(0.14384103622589045, abs=1e-12)


def test_mi_from_cov_zero_when_independent():
    C = np.diag([1.0, 2.0, 3.0])
    assert mi_from_cov(C, [0], [1, 2]) == pytest.approx(0.0, abs=1e-15)


def test_conditional_mi_markov_chain_is_zero():
    # x -> y -> z with unit innovations
    C = np.array([[1.0, 1.0, 1.0],
                  [1.0, 2.0, 2.0],
                  [1.0, 2.0, 3.0]])
    assert conditional_mi_from_cov(C, [0], [2], [1]) == pytest.approx(0.0, abs=1e-12)
    assert mi_from_cov(C, [0], [2]) > 0.1


def test_sample_entropy_tracks_formula(rng):
    x = rng.standard_normal(200_000)
    assert gaussian_entropy(x) == pytest.approx(LOG_2PIE_HALF, abs=0.01)


def test_sample_entropy_rejects_duplicate_coordinate(rng):
    x = rng.standard_normal(500)
    with pytest.raises(SingularCovarianceError):
        gaussian_entropy(np.column_stack([x, x]))


def test_sample_mi_independent_pairs_near_zero(rng):
    x = rng.standard_normal(10_000)
    y = rng.standard_normal(10_000)
    assert mutual_information(x, y) < 0.02


def test_sample_mi_invariant_to_affine_maps(rng):
    x = rng.standard_normal((3000, 2))
    y = 0.4 * x[:, :1] + rng.standard_normal((3000, 1))
    base = mutual_information(x, y)
    A = np.array([[2.0, 0.3], [0.0, -1.5]])
    assert mutual_information(x @ A.T + 7.0, 3.0 * y - 1.0) == pytest.approx(base, abs=1e-9)


def test_sample_mi_complex_matches_real_stack(rng):
    z = rng.standard_normal((2000, 1)) + 1j * rng.standard_normal((2000, 1))
    w = z * (0.5 + 0.1j) + 0.3 * (
        rng.standard_normal((2000, 1)) + 1j * rng.standard_normal((2000, 1))
    )
    direct = mutual_information(z, w)
    stacked = mutual_information(np.hstack([z.real, z.imag]), np.hstack([w.real, w.imag]))
    assert direct == pytest.approx(stacked, abs=1e-12)


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
    with pytest.raises(InfoCoreError):
        to_sequence(np.ones((4, 2)))


# -- panel statistics ----------------------------------------------------


def _inc(topo, spec, T, seed):
    return generate_increments(topo, spec, T=T, seed=seed)


def test_mi_matrix_shape_and_symmetry(bus8, bus8_spec):
    est = mi_matrix(_inc(bus8, bus8_spec, 600, 0))
    assert est.bus_ids == tuple(sorted(bus8.non_slack_ids))
    assert np.allclose(est.values, est.values.T, atol=1e-15)
    assert np.all(np.diag(est.values) == 0)
    assert all(v > 0 for _, _, v in est.pairs())


def test_panel_statistics_computes_mi_matrix_once(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 300, 2)
    stats = PanelStatistics(panel, frame="sequence")
    first = stats.mi_matrix()
    assert stats.mi_matrix() is first
    assert np.array_equal(first.values, mi_matrix(panel, frame="sequence").values)


def test_mi_matrix_all_frame_source_combinations(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 400, 1)
    for frame in ("phase", "sequence"):
        for source in ("complex", "magnitude"):
            est = mi_matrix(panel, frame=frame, source=source)
            assert est.frame == frame and est.source == source
            assert np.all(np.isfinite(est.values))


def test_mi_matrix_invariant_to_label_corruption(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 1500, 2)
    volts = integrate_voltages(panel)
    scrambled = difference(corrupt_labels(volts, 0.5, seed=9))
    for frame in ("phase", "sequence"):
        for source in ("complex", "magnitude"):
            a = mi_matrix(panel, frame=frame, source=source)
            b = mi_matrix(scrambled, frame=frame, source=source)
            assert np.abs(a.values - b.values).max() < 1e-12


def test_magnitude_sequence_equals_magnitude_phase(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 800, 3)
    a = mi_matrix(panel, frame="phase", source="magnitude")
    b = mi_matrix(panel, frame="sequence", source="magnitude")
    assert np.abs(a.values - b.values).max() < 1e-9


def test_sample_mi_matrix_tracks_analytic(bus8, bus8_spec, bus8_analytic):
    panel = _inc(bus8, bus8_spec, 8760, 4)
    est = mi_matrix(panel)
    truth = analytic_mi_matrix(bus8_analytic)
    for i, k, v in truth.pairs():
        assert est.value(i, k) == pytest.approx(v, rel=0.10, abs=5e-3)


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
# PanelStatistics gathers all channels at once and maps the covariance
# into the frame; the reference below builds each bus's features from
# its own channels, standardizes the data and multiplies, which is the
# construction the gathered form replaces. The two differ only in
# rounding order.


def _reference_features(panel, bus_id, frame, source):
    x = panel.channels(bus_id)
    slots = list(panel.slots(bus_id))
    A = SEQ_H_INV[:len(slots)][:, slots]
    if source == "magnitude":
        m = x.real if panel.magnitude_only else np.abs(x)
        return m if frame == "phase" else m @ A.T
    if frame == "sequence":
        x = x @ A.T
    return np.hstack([x.real, x.imag])


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
    ref_cov, ref_slices = _reference_statistics(panel, frame, source, slack)
    stats = PanelStatistics(panel, frame=frame, source=source)
    assert stats.slices == ref_slices
    assert stats.dim == ref_cov.shape[0] and stats.n_samples == panel.n_samples
    assert stats.cov.dtype == ref_cov.dtype
    assert np.abs(stats.cov - ref_cov).max() <= 1e-9 * np.abs(ref_cov).max()
    ref_mi = _reference_mi(ref_cov, ref_slices)
    got = stats.mi_matrix().values
    assert np.abs(got - ref_mi).max() <= 1e-9 * np.abs(ref_mi).max()


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
    cov, slices = _feature_cov(panel, stats.bus_ids, frame, source)
    n = panel.n_samples
    sd = np.sqrt(cov.diagonal().real * ((n - 1) / n))
    cov /= np.outer(sd, sd)
    assert stats.slices == slices
    assert np.array_equal(stats.cov, cov)
    assert stats.substation_mi() is None


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_zero_variance_error_names_the_reference_buses(bus8, bus8_spec, frame, source):
    panel = _inc(bus8, bus8_spec, 241, 14)
    panel.values[:, 3, :] = 0.0
    panel.values[:, 5, 1] = 0.0
    with pytest.raises(SingularCovarianceError) as want:
        _reference_statistics(panel, frame, source)
    with pytest.raises(SingularCovarianceError) as got:
        PanelStatistics(panel, frame=frame, source=source)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("[3, 5]" if frame == "phase" else "[3]")


def test_panel_statistics_accepts_strided_values(bus8, bus8_spec):
    panel = _inc(bus8, bus8_spec, 200, 18)
    wide = np.zeros(panel.values.shape[:2] + (6,), dtype=complex)
    wide[..., ::2] = panel.values
    strided = dataclasses.replace(panel, values=wide[..., ::2])
    for frame in ("phase", "sequence"):
        want = PanelStatistics(panel, frame=frame).cov
        assert np.array_equal(PanelStatistics(strided, frame=frame).cov, want)


def test_sequence_real_cov_matches_dense_transform(bus8_analytic):
    acov = bus8_analytic
    D = acov.dim
    B = np.zeros((2 * D, 2 * D))
    for b in sorted({b for b, _ in acov.coords}):
        pos = np.asarray(acov.coord_positions(b))
        A = SEQ_H_INV[:len(pos)][:, [s for bb, s in acov.coords if bb == b]]
        B[np.ix_(pos, pos)] = A.real
        B[np.ix_(pos, pos + D)] = -A.imag
        B[np.ix_(pos + D, pos)] = A.imag
        B[np.ix_(pos + D, pos + D)] = A.real
    want = B @ acov.real @ B.T
    assert np.abs(sequence_real_cov(acov, None) - want).max() <= 1e-12 * np.abs(want).max()


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
    panel.values[:, 2, 1] = panel.values[:, 2, 0]
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

        total = mutual_information(polar(x), polar(y))
        assert a + b + c == pytest.approx(total, abs=1e-9)
        assert a >= 0 and b >= -1e-12 and c >= -1e-12


def test_mi_breakdown_magnitude_only_drops_angle_terms(bus8, bus8_spec):
    volts = to_magnitude(integrate_voltages(_inc(bus8, bus8_spec, 1500, 7)))
    a, b, c = mi_breakdown(volts, 1, 2)
    assert b == 0.0 and c == 0.0
    assert a > 0


# -- substation usability gate -------------------------------------------


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
    panel.values[:, 0, :] = 1e-4 * jitter
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


def test_substation_points_at_copied_bus(bus8, bus8_spec, rng):
    panel = _inc(bus8, bus8_spec, 2000, 4)
    src = 1
    scale = np.abs(panel.values[:, src, :]).std()
    jitter = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    panel.values[:, 0, :] = panel.values[:, src, :] + 0.1 * scale * jitter
    out = substation_mi(panel)
    assert out is not None
    assert max(out, key=out.get) == src


# -- analytic helpers ----------------------------------------------------


def test_analytic_mi_matrix_hand_built_pair():
    rho = 0.6
    herm = np.array([[1.0, rho], [rho, 1.0]])
    real = 0.5 * np.block([[herm, np.zeros((2, 2))], [np.zeros((2, 2)), herm]])
    acov = AnalyticCovariance(real=real, coords=[(1, 0), (2, 0)])
    est = analytic_mi_matrix(acov)
    want = -math.log(1.0 - rho * rho)
    assert est.value(1, 2) == pytest.approx(want, abs=1e-12)


def test_analytic_frame_invariance(bus8_analytic):
    a = analytic_mi_matrix(bus8_analytic, frame="phase")
    b = analytic_mi_matrix(bus8_analytic, frame="sequence")
    assert np.abs(a.values - b.values).max() < 1e-9


def test_analytic_conditional_mi_nonnegative(bus8, bus8_analytic):
    val = analytic_conditional_mi(bus8_analytic, 4, 2, given=[1])
    assert val >= -1e-12


def test_analytic_matches_small_random_feeders(small_random_feeders):
    for topo, spec, acov in small_random_feeders[:3]:
        est = analytic_mi_matrix(acov)
        assert est.bus_ids == tuple(sorted(topo.non_slack_ids))
        assert all(np.isfinite(v) and v >= 0 for _, _, v in est.pairs())


# -- MI matrix CSV -------------------------------------------------------


def test_mi_matrix_csv_round_trip(bus8, bus8_spec):
    est = mi_matrix(_inc(bus8, bus8_spec, 300, 8))
    buf = io.StringIO()
    est.to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "bus_i,bus_j,mi_nats"
    buf.seek(0)
    back = MIMatrix.from_csv(buf)
    assert back.bus_ids == est.bus_ids
    assert np.allclose(back.values, est.values, atol=0)


def test_mi_matrix_csv_rejects_bad_header():
    with pytest.raises(InfoCoreError):
        MIMatrix.from_csv(io.StringIO("a,b,c\n1,2,0.5\n"))


@pytest.mark.parametrize("body,line_no", [
    ("1,x,0.5\n", 2),
    ("1,2,0.5\n1,2\n", 3),
    ("\n1,2,0.5\n\n2,3,oops\n", 5),
    ("1,2,nan\n", 2),
    ("1,2,inf\n", 2),
    ("1,2,0.5\n3.5,4,0.1\n", 3),
])
def test_mi_matrix_csv_names_the_bad_line(body, line_no):
    with pytest.raises(InfoCoreError, match=f"line {line_no}:"):
        MIMatrix.from_csv(io.StringIO("bus_i,bus_j,mi_nats\n" + body))
