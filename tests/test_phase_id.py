import itertools
import math

import numpy as np
import pytest

from conftest import edge_correlation_margins, padded
from gridtopo.feeders import FEEDER_NAMES, make_feeder
from gridtopo.phase_id import (
    MIN_SAMPLES,
    PhaseAssignment,
    PhaseIdError,
    assign_phases,
    assignment_accuracy,
    diagnose_labels,
    _scored_maps,
    _unit_series,
)
from gridtopo.synth_lab import (
    FeederSampler,
    InjectionSpec,
    VoltagePanel,
    corrupt_labels,
    generate_increments,
    identity_labels,
    integrate_voltages,
    to_magnitude,
)
from gridtopo.topo_est import EdgeSetEstimate, attach_root


def _true_tree(topo):
    return attach_root(
        EdgeSetEstimate(bus_ids=tuple(sorted(topo.non_slack_ids)),
                        edges=tuple(topo.edge_set(include_root=False))),
        declared_root=min(topo.children_of(0)),
    )


def _volts(topo, spec, T, seed):
    return integrate_voltages(generate_increments(topo, spec, T=T, seed=seed))


# -- correlation block -----------------------------------------------


def _corrcoef_blocks(tree, volts):
    """(parent, child) -> per-edge np.corrcoef block of the two buses' d|V| series."""
    grid = np.abs(padded(volts))
    out = {}
    for parent, child in tree.oriented():
        p = np.diff(grid[:, parent, volts.slots(parent)], axis=0)
        c = np.diff(grid[:, child, volts.slots(child)], axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(p, c, rowvar=False)
        out[(parent, child)] = corr[:p.shape[1], p.shape[1]:]
    return out


@pytest.mark.parametrize("name", ["bus8", "bus33"])
def test_correlation_blocks_match_corrcoef(name):
    topo = make_feeder(name)
    volts = _volts(topo, InjectionSpec.random(topo, seed=5), 1500, 2)
    tree = _true_tree(topo)
    ref = _corrcoef_blocks(tree, volts)
    z = _unit_series(volts)
    for (parent, child), block in ref.items():
        got = z[volts.columns(parent)] @ z[volts.columns(child)].T
        # the constant substation gives NaN on both sides
        np.testing.assert_allclose(got, block, rtol=0, atol=1e-12, equal_nan=True)
        assert np.isnan(block).all() == (parent == 0)
    # edge_correlation_margins reads the same blocks
    margins = edge_correlation_margins(tree, volts)
    assert margins
    for (parent, child), m in margins.items():
        block = ref[(parent, child)]
        same = [block[i, j] for i, pp in enumerate(volts.true_phases(parent))
                for j, cc in enumerate(volts.true_phases(child)) if pp == cc]
        cross = [block[i, j] for i, pp in enumerate(volts.true_phases(parent))
                 for j, cc in enumerate(volts.true_phases(child)) if pp != cc]
        assert abs(m - (min(same) - (max(cross) if cross else -1.0))) <= 1e-12


def test_too_few_samples_rejected(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, MIN_SAMPLES - 1, 0)  # MIN_SAMPLES voltages
    with pytest.raises(PhaseIdError, match="at least"):
        assign_phases(_true_tree(bus8), volts)
    assert assign_phases(_true_tree(bus8), _volts(bus8, bus8_spec, MIN_SAMPLES, 0))


# -- label propagation ---------------------------------------------------


def test_clean_panel_resolves_identity(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    tree = _true_tree(bus8)
    out = assign_phases(tree, volts)
    assert assignment_accuracy(out, volts) == 1.0
    assert diagnose_labels(out, volts) == []
    assert out.statuses[0] == "assumed"
    for b in bus8.non_slack_ids:
        if b == 1:
            continue
        assert out.statuses[b] == "resolved"
        assert out.channels[b] == volts.true_phases(b)
    assert out.warnings == []


def test_raw_magnitude_mode_also_resolves(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    out = assign_phases(_true_tree(bus8), volts, use_increments=False)
    assert assignment_accuracy(out, volts) == 1.0


def test_magnitude_only_panel_resolves(bus8, bus8_spec):
    volts = to_magnitude(_volts(bus8, bus8_spec, 1500, 0))
    out = assign_phases(_true_tree(bus8), volts)
    assert assignment_accuracy(out, volts) == 1.0


def test_corrupted_labels_are_found_and_fixed(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    head = min(bus8.children_of(0))
    corrupted = corrupt_labels(volts, 0.3, seed=3, protect=(head,))
    changed = [b for b in range(volts.n_buses)
               if not np.array_equal(corrupted.labels[b], volts.labels[b])]
    assert changed
    out = assign_phases(_true_tree(bus8), corrupted)
    assert assignment_accuracy(out, corrupted) == 1.0
    assert diagnose_labels(out, corrupted) == sorted(changed)


def test_dead_parent_marks_subtree_unknown(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    cols = volts.columns(3)
    volts.values[:, cols] = volts.values[0, cols]
    out = assign_phases(_true_tree(bus8), volts)
    assert out.statuses[3] == "unknown"
    for child in bus8.children_of(3):
        assert out.statuses[child] == "unknown"
    assert out.statuses[2] == "resolved"
    assert len(out.warnings) >= 3
    # unknown buses keep claimed labels and stay out of the diagnosis
    assert out.channels[3] == tuple(volts.slots(3))
    assert 3 not in diagnose_labels(out, volts)


def test_unrooted_tree_rejected(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 200, 0)
    tree = EdgeSetEstimate(bus_ids=tuple(sorted(bus8.non_slack_ids)),
                           edges=tuple(bus8.edge_set(include_root=False)))
    with pytest.raises(PhaseIdError):
        assign_phases(tree, volts)


def test_increment_panel_rejected(bus8, bus8_spec):
    inc = generate_increments(bus8, bus8_spec, T=200, seed=0)
    with pytest.raises(PhaseIdError):
        assign_phases(_true_tree(bus8), inc)


def test_assignment_csv(tmp_path, bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    out = assign_phases(_true_tree(bus8), volts)
    path = tmp_path / "phases.csv"
    out.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bus_id,channel,assigned_phase,margin"
    n_channels = sum(len(volts.slots(b)) for b in range(volts.n_buses))
    assert len(lines) - 1 == n_channels


def _assign_phases_reference(tree, panel, use_increments=True):
    """assign_phases as written edge by edge: its own unit series and
    correlation copies, every permutation scored in a Python loop."""
    mags = panel.values.real if panel.magnitude_only else np.abs(panel.values)
    if use_increments:
        mags = np.diff(mags, axis=0)
    z = np.ascontiguousarray((mags - mags.mean(axis=0)).T)
    with np.errstate(invalid="ignore", divide="ignore"):
        z /= np.sqrt(np.sum(z * z, axis=1))[:, None]
    floor = 3.2905 / math.sqrt(z.shape[1])
    out = PhaseAssignment()
    out.channels[0] = tuple(panel.slots(0))
    out.margins[0] = math.inf
    out.statuses[0] = "assumed"
    for parent, child in tree.oriented():
        claimed = tuple(panel.slots(child))
        parent_phases = out.channels[parent]
        corr = None
        if len(parent_phases) > 0:
            corr = z[panel.columns(parent)] @ z[panel.columns(child)].T
            with np.errstate(invalid="ignore"):
                corr = np.where(np.abs(corr) >= floor, corr, np.nan)
        candidates = []
        if corr is not None and len(parent_phases) >= len(claimed):
            for combo in itertools.permutations(range(len(parent_phases)), len(claimed)):
                score, used = 0.0, 0
                for ch, pch in enumerate(combo):
                    v = corr[pch, ch]
                    if np.isfinite(v):
                        score += float(v)
                        used += 1
                if used > 0:
                    candidates.append((score, tuple(parent_phases[p] for p in combo)))
        if not candidates:
            out.channels[child] = claimed
            out.margins[child] = math.inf
            if parent == 0:
                out.statuses[child] = "assumed"
            else:
                out.statuses[child] = "unknown"
                out.warnings.append(
                    f"bus {child}: no informative correlation with parent {parent}; "
                    "claimed labels kept"
                )
            continue
        candidates.sort(key=lambda sc: (-sc[0], sc[1]))
        out.channels[child] = candidates[0][1]
        out.margins[child] = (candidates[0][0] - candidates[1][0]
                              if len(candidates) > 1 else math.inf)
        out.statuses[child] = "resolved"
    return out


def _oracle_panels(topo):
    """Voltage panels that reach every branch of assign_phases."""
    sampler = FeederSampler(topo, InjectionSpec.random(topo, seed=5))
    head = min(topo.children_of(0))
    steady = integrate_voltages(sampler.increments(400, seed=2))
    swinging = integrate_voltages(sampler.increments(400, seed=2, slack_sigma=0.01))
    panels = [steady, swinging, to_magnitude(swinging), integrate_voltages(
        sampler.increments(MIN_SAMPLES, seed=3, slack_sigma=0.01))]
    panels += [corrupt_labels(p, 0.5, seed=9, protect=(head,)) for p in (steady, swinging)]
    dead = swinging.copy()
    dead.values[:, dead.columns(head)] = dead.values[0, dead.columns(head)]
    masks = steady.masks.copy()
    masks[0] = False  # an unmetered substation
    unmetered = VoltagePanel(values=steady.values[:, steady.columns(1).start:], masks=masks,
                             labels=identity_labels(masks))
    return panels + [dead, unmetered]


def test_assign_phases_equals_the_per_edge_loop(small_random_feeders):
    feeders = [make_feeder(name) for name in FEEDER_NAMES]
    statuses = set()
    for topo in feeders + [t for t, _, _ in small_random_feeders]:
        tree = attach_root(
            EdgeSetEstimate(bus_ids=tuple(sorted(topo.non_slack_ids)),
                            edges=tuple(topo.edge_set(include_root=False,
                                                      include_chords=False))),
            declared_root=min(topo.children_of(0)))
        for panel in _oracle_panels(topo):
            for use_increments in (True, False):
                got = assign_phases(tree, panel, use_increments=use_increments)
                want = _assign_phases_reference(tree, panel, use_increments)
                assert got.channels == want.channels
                assert ({b: m.hex() for b, m in got.margins.items()}
                        == {b: m.hex() for b, m in want.margins.items()})
                assert got.statuses == want.statuses
                assert got.warnings == want.warnings
                statuses.update(got.statuses.values())
    assert statuses == {"assumed", "resolved", "unknown"}


def _scored_maps_reference(z, panel, edges, floor):
    """_scored_maps edge by edge: each edge's correlation block from its own
    two row slices of z, every permutation scored in a Python loop."""
    off = panel.offsets.tolist()
    out = []
    for parent, child in edges:
        P, C = off[parent + 1] - off[parent], off[child + 1] - off[child]
        corr = z[off[parent]:off[parent + 1]] @ z[off[child]:off[child + 1]].T
        scored = []
        for m in (itertools.permutations(range(P), C) if C <= P else ()):
            used = [float(corr[p, ch]) for ch, p in enumerate(m) if abs(corr[p, ch]) >= floor]
            if used:
                scored.append((sum(used, 0.0), m))
        out.append(scored)
    return out


@pytest.mark.parametrize("name", ["bus33", "bus123"])
@pytest.mark.parametrize("use_increments", [True, False])
def test_stacked_scoring_equals_the_per_edge_product_bit_for_bit(name, use_increments):
    topo = make_feeder(name)
    volts = corrupt_labels(_volts(topo, InjectionSpec.random(topo, seed=5), 2000, 4), 0.3,
                           seed=6, protect=(min(topo.children_of(0)),))
    z = _unit_series(volts, use_increments)
    floor = 3.2905 / math.sqrt(z.shape[1])
    edges = _true_tree(topo).oriented()
    got = _scored_maps(z, volts, edges, floor)
    want = _scored_maps_reference(z, volts, edges, floor)
    assert [[(s.hex(), m) for s, m in e] for e in got] == [[(s.hex(), m) for s, m in e]
                                                          for e in want]
    assert sum(map(len, got)) > len(edges)


# -- diagnostics ---------------------------------------------------------


def test_edge_margins_positive_on_clean_data(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    margins = edge_correlation_margins(_true_tree(bus8), volts)
    assert set(margins) == {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}
    assert min(margins.values()) > 0.0


@pytest.mark.parametrize("name", ["bus13", "bus33", "bus123"])
def test_accuracy_equals_the_per_bus_loop_on_corrupted_labels(name):
    topo = make_feeder(name)
    volts = _volts(topo, InjectionSpec.random(topo, seed=1), 600, 8)
    tree = _true_tree(topo)
    for fraction, seed in ((0.0, 0), (0.2, 1), (0.6, 2)):
        panel = corrupt_labels(volts, fraction, seed=seed, protect=(min(topo.children_of(0)),))
        out = assign_phases(tree, panel)
        # claimed labels and an emptied map count as misses where they differ
        for assignment in (out, PhaseAssignment(channels={b: panel.slots(b) for b in out.channels}),
                           PhaseAssignment(channels={0: out.channels[0]})):
            want = sum(tuple(assignment.channels.get(b, ())) == panel.true_phases(b)
                       for b in range(1, panel.n_buses)) / (panel.n_buses - 1)
            assert assignment_accuracy(assignment, panel) == want


def test_accuracy_counts_mismatches(bus8, bus8_spec):
    volts = _volts(bus8, bus8_spec, 1500, 0)
    out = assign_phases(_true_tree(bus8), volts)
    victim = next(b for b in sorted(bus8.non_slack_ids) if len(volts.slots(b)) >= 2)
    twisted = list(out.channels[victim])
    out.channels[victim] = tuple(twisted[1:] + twisted[:1])
    acc = assignment_accuracy(out, volts)
    assert acc == pytest.approx(1.0 - 1.0 / (volts.n_buses - 1), abs=1e-12)
