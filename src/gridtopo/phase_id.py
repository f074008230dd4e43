"""Per-bus phase label identification along a recovered tree.

On feeders where series resistance dominates reactance, same-phase
voltage magnitudes at the two ends of a branch are more correlated than
cross-phase pairs, so labels can be propagated from the trusted
substation outward: each bus's channels are matched to its parent's
already-resolved phases by the injective assignment with maximum total
correlation. The correlations of all edges whose two buses have the
same channel counts come from one stacked product, one per width pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid_model import PHASES, write_csv


class PhaseIdError(Exception):
    pass


MIN_SAMPLES = 30

# two-sided normal quantile at significance 1e-3; a sample Pearson
# correlation below _SIG_Z / sqrt(N) is consistent with independence
# and must not decide a phase map
_SIG_Z = 3.2905


@dataclass
class PhaseAssignment:
    """Recovered channel-to-phase maps with per-bus confidence.

    channels maps bus id to a tuple of phase indices (0=a, 1=b, 2=c),
    one per measured channel in slot order. statuses: 'resolved' when
    correlations decided the map, 'assumed' when the trusted substation
    labels were taken as-is, 'unknown' when no informative correlation
    existed and the claimed labels were kept as a best effort. margins
    are best-minus-second-best assignment scores (infinite when only
    one candidate existed).
    """

    channels: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def phase_letters(self, bus_id):
        return tuple(PHASES[j] for j in self.channels[bus_id])

    def to_csv(self, path):
        rows = []
        for bus in sorted(self.channels):
            margin = self.margins.get(bus, math.inf)
            mtxt = "inf" if math.isinf(margin) else repr(float(margin))
            rows += [[bus, ch, PHASES[ph], mtxt] for ch, ph in enumerate(self.channels[bus])]
        write_csv(path, ["bus_id", "channel", "assigned_phase", "margin"], rows)


def _unit_series(panel, use_increments=True):
    """Channel-major block of centred magnitude series, each of unit norm.

    Row j is channel j of the panel (columns(b) names a bus's rows), so
    the product of two buses' row blocks is their Pearson correlation
    matrix. A zero-variance channel's row is NaN, and so is every
    correlation it enters: the matcher treats those as uninformative
    rather than as evidence.
    """
    if panel.kind == "increment":
        # already differenced upstream; magnitudes of increments are not
        # the same signal, so insist on a voltage panel unless told not to
        raise PhaseIdError("phase identification expects a voltage panel")
    mags = panel.values.real if panel.magnitude_only else np.abs(panel.values)
    if use_increments:
        mags = np.diff(mags, axis=0)
    if mags.shape[0] < MIN_SAMPLES:
        raise PhaseIdError(f"need at least {MIN_SAMPLES} samples, got {mags.shape[0]}")
    z = np.subtract(mags.T, mags.mean(axis=0)[:, None], order="C")
    with np.errstate(invalid="ignore", divide="ignore"):
        z /= np.sqrt(np.sum(z * z, axis=1))[:, None]
    return z


def _scored_maps(z, panel, edges, floor):
    """Score every injective child-to-parent channel map of every edge.

    Returns, per edge, the (score, map) pairs of the maps that pair at
    least one significant correlation, map[j] being the parent channel
    of child channel j and the maps listed in itertools.permutations
    order; empty when the parent has no channels or fewer than the
    child. A score sums the map's correlations of magnitude at least
    floor, in child channel order; NaN ones do not count. Edges are
    scored against one permutation table per (parent width, child
    width), all edges of a width pair in one batch, whose (P, C)
    Pearson correlation blocks come from one stacked product of the
    parents' and the children's rows of z: per edge, the same product
    as the edge's own two row blocks.
    """
    off = panel.offsets
    width = np.diff(off).tolist()
    groups = {}
    for e, (parent, child) in enumerate(edges):
        if width[child] <= width[parent]:
            groups.setdefault((width[parent], width[child]), []).append(e)
    out = [[] for _ in edges]
    for (P, C), members in groups.items():
        maps = list(itertools.permutations(range(P), C))
        parents, children = np.array([edges[e] for e in members]).T
        corr = np.matmul(z[off[parents, None] + np.arange(P)],
                         z[off[children, None] + np.arange(C)].transpose(0, 2, 1))
        with np.errstate(invalid="ignore"):
            corr = np.where(np.abs(corr) >= floor, corr, np.nan)
        vals = corr[:, np.array(maps, dtype=np.intp), np.arange(C)]
        ok = np.isfinite(vals)
        # a running sum from 0.0 in child channel order, as a loop would add
        scores = np.zeros(vals.shape[:2])
        for ch in range(C):
            scores = scores + np.where(ok[..., ch], vals[..., ch], 0.0)
        for e, sc, used in zip(members, scores.tolist(), ok.any(axis=2).tolist()):
            out[e] = [(score, m) for m, score, u in zip(maps, sc, used) if u]
    return out


def assign_phases(tree, panel, use_increments=True):
    """Propagate phase labels from the substation down the tree.

    tree is a rooted EdgeSetEstimate; panel is the voltage panel the
    tree was estimated from. Matching uses increments of magnitudes by
    default; use_increments=False correlates raw magnitude series
    instead. Substation labels are trusted. Each child's channels are
    assigned injectively into the parent's resolved phases by maximum
    total correlation, exhaustively over at most six candidate maps.
    Correlations indistinguishable from zero at the 1e-3 level are
    treated as uninformative, so a pure-noise parent series falls back
    to the claimed labels instead of resolving by coin flip. The tree
    must cover exactly the panel's non-slack buses.
    """
    if not tree.rooted:
        raise PhaseIdError("assign_phases needs a rooted estimate")
    named = set(tree.bus_ids) | {max(tree.root_edge)}
    measured = set(range(1, panel.n_buses))
    if named != measured:
        bus = min(named ^ measured)
        where = "is not in the measurements" if bus in named else "is missing from the tree"
        raise PhaseIdError(f"topology does not match the measurements: bus {bus} {where}")
    out = PhaseAssignment()
    z = _unit_series(panel, use_increments)
    # keep only statistically significant entries, in either direction;
    # meter noise on an otherwise constant series produces finite but
    # meaningless correlations
    floor = _SIG_Z / math.sqrt(z.shape[1])

    # substation: claimed labels trusted
    out.channels[0] = panel.slots(0)
    out.margins[0] = math.inf
    out.statuses[0] = "assumed"

    # a bus's map holds one phase per channel, so the scores of an
    # edge do not depend on the maps above it; only the ranking below,
    # whose ties break on the parent's phases, waits for the parent
    edges = tree.oriented()
    for (parent, child), scored in zip(edges, _scored_maps(z, panel, edges, floor)):
        parent_phases = out.channels[parent]
        candidates = [(score, tuple(parent_phases[p] for p in m)) for score, m in scored]
        if not candidates:
            out.channels[child] = panel.slots(child)
            out.margins[child] = math.inf
            if parent == 0:
                # constant substation series: fall back to the trusted
                # labels at the feeder head rather than guessing
                out.statuses[child] = "assumed"
            else:
                out.statuses[child] = "unknown"
                out.warnings.append(
                    f"bus {child}: no informative correlation with parent {parent}; "
                    "claimed labels kept"
                )
            continue
        candidates.sort(key=lambda sc: (-sc[0], sc[1]))
        best_score, best_map = candidates[0]
        margin = math.inf
        if len(candidates) > 1:
            margin = best_score - candidates[1][0]
        out.channels[child] = best_map
        out.margins[child] = margin
        out.statuses[child] = "resolved"
    return out


def diagnose_labels(assignment, panel):
    """Buses whose recovered labels differ from their claimed slots.

    Buses with status 'unknown' carry no evidence and are excluded.
    """
    bad = []
    for bus, phases in assignment.channels.items():
        if bus == 0 or assignment.statuses.get(bus) == "unknown":
            continue
        claimed = tuple(panel.slots(bus))
        if tuple(phases) != claimed:
            bad.append(bus)
    return sorted(bad)


def assignment_accuracy(assignment, panel):
    """Fraction of non-slack buses whose recovered map matches ground truth.

    Panels generated by the synthetic laboratory carry per-channel true
    phases; buses left at best-effort labels count like any other.
    """
    buses = range(1, panel.n_buses)
    if not buses:
        raise PhaseIdError("no non-slack buses to score")
    truth = panel.labels[panel.masks].tolist()
    off = panel.offsets.tolist()
    good = sum(tuple(assignment.channels.get(b, ())) == tuple(truth[off[b]:off[b + 1]])
               for b in buses)
    return good / len(buses)
