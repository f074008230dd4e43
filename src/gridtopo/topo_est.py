"""Topology recovery from mutual information statistics.

The estimator is Kruskal's maximum-weight spanning tree over pairwise
MI, with deterministic lexicographic tie-breaking, an explicit root
attachment step (the substation is not part of the pairwise matrix),
and an optional single-chord search for weakly meshed feeders.

recover(stats, ...) is the one pipeline: tree or mesh search, then
rooting, on a PanelStatistics built either from a panel or from the
exact covariance (PanelStatistics.from_analytic). estimate_topology,
the CLI and the evaluation harness all run through it.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid_model import TOPOLOGY_COLUMNS
from .info_core import MIMatrix, PanelStatistics, difference


class TopologyEstimateError(Exception):
    pass


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by rank."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass
class EdgeSetEstimate:
    """Recovered edge set over the non-slack buses.

    edges are unordered (min, max) bus pairs forming a spanning tree;
    chords are extra pairs closing loops in mesh mode. root_edge is the
    substation attachment (0, child) once known; rooted is False until
    attach_root succeeds or a root is declared.
    """

    bus_ids: tuple
    edges: tuple
    weights: dict = field(default_factory=dict)
    chords: tuple = ()
    root_edge: tuple = None
    frame: str = "phase"
    source: str = "complex"

    def __post_init__(self):
        self.edges = tuple(tuple(sorted(e)) for e in self.edges)
        self.chords = tuple(tuple(sorted(e)) for e in self.chords)
        m = len(self.bus_ids)
        if m >= 1 and len(self.edges) != m - 1:
            raise TopologyEstimateError(
                f"expected {m - 1} tree edges over {m} buses, got {len(self.edges)}"
            )

    @property
    def rooted(self):
        return self.root_edge is not None

    def edge_set(self, include_root=False, include_chords=True):
        out = set(self.edges)
        if include_chords:
            out.update(self.chords)
        if include_root and self.root_edge is not None:
            out.add(tuple(sorted(self.root_edge)))
        return frozenset(out)

    def total_weight(self, include_chords=False):
        pairs = self.edges + (self.chords if include_chords else ())
        return float(sum(self.weights.get(e, 0.0) for e in pairs))

    def oriented(self, include_chords=False):
        """(parent, child) pairs by breadth-first search from the substation."""
        if not self.rooted:
            raise TopologyEstimateError("estimate is unrooted; attach_root first")
        adj = {b: [] for b in self.bus_ids}
        adj[0] = []
        pairs = self.edges + (self.chords if include_chords else ())
        pairs = pairs + (tuple(sorted(self.root_edge)),)
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {0}
        order = [0]
        out = []
        queue = [0]
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(adj[cur]):
                if nxt in seen:
                    continue
                seen.add(nxt)
                out.append((cur, nxt))
                queue.append(nxt)
                order.append(nxt)
        if len(seen) != len(self.bus_ids) + 1:
            raise TopologyEstimateError("edge set does not reach every bus from the root")
        if include_chords:
            # loop-closing pairs show up as already-seen neighbors; report them too
            covered = {tuple(sorted(e)) for e in out}
            for a, b in self.chords:
                if tuple(sorted((a, b))) not in covered:
                    out.append((a, b))
        return out

    def to_csv(self, path, masks=None):
        """Topology-schema CSV with admittance fields blank plus mi_nats.

        masks, when given, maps bus id to a phase string for the phases
        column; the estimator itself has no admittance knowledge.
        """
        if self.rooted:
            oriented = {tuple(sorted(e)): e for e in self.oriented(include_chords=True)}
        else:
            oriented = {}
        rows = []
        all_pairs = list(self.edges) + list(self.chords)
        if self.root_edge is not None:
            all_pairs.append(tuple(sorted(self.root_edge)))
        chord_set = set(self.chords)
        for pair in sorted(all_pairs):
            parent, child = oriented.get(pair, pair)
            phases = ""
            if masks:
                pm = masks.get(parent)
                cm = masks.get(child)
                if pm is not None and cm is not None:
                    shared = [ph for ph in "abc" if ph in str(pm) and ph in str(cm)]
                    phases = "".join(shared)
                elif cm is not None:
                    phases = str(cm)
            row = {c: "" for c in TOPOLOGY_COLUMNS}
            row["parent_id"] = parent
            row["child_id"] = child
            row["phases"] = phases
            if chord_set:
                row["chord"] = 1 if pair in chord_set else 0
            row["mi_nats"] = repr(self.weights[pair]) if pair in self.weights else ""
            rows.append(row)
        cols = TOPOLOGY_COLUMNS + (["chord"] if chord_set else []) + ["mi_nats"]
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for row in rows:
                w.writerow(row)


def _ranked_pairs(mi):
    """Index pairs sorted by weight non-increasing, ties by (min id, max id).

    Vectorized: the sort is the only super-linear step and Kruskal can
    stop early, so large matrices stay fast.
    """
    buses = np.asarray(mi.bus_ids)
    m = len(buses)
    ii, kk = np.triu_indices(m, 1)
    w = np.asarray(mi.values, dtype=float)[ii, kk]
    if w.size and not np.all(np.isfinite(w)):
        raise TopologyEstimateError("non-finite mutual information weight")
    lo = np.minimum(buses[ii], buses[kk])
    hi = np.maximum(buses[ii], buses[kk])
    order = np.lexsort((hi, lo, -w))
    return ii[order], kk[order], w[order]


def max_weight_spanning_tree(mi):
    """Kruskal's algorithm over MI weights.

    Returns an unrooted EdgeSetEstimate with M-1 edges over the matrix's
    buses. Ties are broken lexicographically so equal-weight inputs
    still give a deterministic tree.
    """
    buses = list(mi.bus_ids)
    m = len(buses)
    uf = UnionFind(m)
    edges = []
    weights = {}
    ii, kk, ws = _ranked_pairs(mi)
    for i, k, w in zip(ii.tolist(), kk.tolist(), ws.tolist()):
        if uf.union(i, k):
            pair = tuple(sorted((buses[i], buses[k])))
            edges.append(pair)
            weights[pair] = w
            if len(edges) == m - 1:
                break
    if len(edges) != max(m - 1, 0):
        raise TopologyEstimateError(
            f"only {len(edges)} usable pairs; cannot span {m} buses"
        )
    return EdgeSetEstimate(bus_ids=tuple(buses), edges=tuple(edges),
                           weights=weights, frame=mi.frame, source=mi.source)


def estimate_from_csv(path):
    """Read back an estimate written by EdgeSetEstimate.to_csv.

    Only the connectivity columns are used; admittance fields stay
    blank in estimate files. A row with parent 0 becomes the root edge.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise TopologyEstimateError(f"{path}: no edges")
    for need in ("parent_id", "child_id"):
        if need not in rows[0][1]:
            raise TopologyEstimateError(f"{path}: missing column {need}")
    edges = []
    chords = []
    weights = {}
    root_edge = None
    buses = set()
    for line_no, row in rows:
        try:
            a = int(row["parent_id"])
            b = int(row["child_id"])
        except (TypeError, ValueError):
            raise TopologyEstimateError(
                f"{path}: line {line_no}: parent_id and child_id must be integers")
        pair = tuple(sorted((a, b)))
        w = row.get("mi_nats", "")
        if w not in (None, ""):
            try:
                weights[pair] = float(w)
            except ValueError:
                raise TopologyEstimateError(f"{path}: line {line_no}: cannot parse mi_nats {w!r}")
        if 0 in pair:
            root_edge = pair
            buses.add(max(pair))
            continue
        buses.update(pair)
        if str(row.get("chord", "")).strip() in ("1", "true", "True"):
            chords.append(pair)
        else:
            edges.append(pair)
    est = EdgeSetEstimate(bus_ids=tuple(sorted(buses)), edges=tuple(edges),
                          weights=weights, chords=tuple(chords))
    est.root_edge = root_edge
    return est


def attach_root(estimate, substation_mi=None, declared_root=None):
    """Connect the substation to the recovered tree.

    substation_mi maps non-slack bus id to MI against bus 0 (None when
    the substation series carries no signal); declared_root is a
    configured child bus. With neither, the estimate stays unrooted and
    downstream consumers must treat it as flagged.
    """
    est = EdgeSetEstimate(bus_ids=estimate.bus_ids, edges=estimate.edges,
                          weights=dict(estimate.weights), chords=estimate.chords,
                          frame=estimate.frame, source=estimate.source)
    if substation_mi:
        child = max(sorted(substation_mi), key=lambda b: substation_mi[b])
        est.root_edge = (0, child)
        est.weights[(0, child)] = float(substation_mi[child])
    elif declared_root is not None:
        if declared_root not in est.bus_ids:
            raise TopologyEstimateError(f"declared root {declared_root} is not a known bus")
        est.root_edge = (0, declared_root)
    return est


def mesh_candidates(mi, tree=None):
    """Valid (meet bus, parent pair, remainder tree) chord hypotheses.

    A single loop means one bus is fed from two sides. Because the
    maximum-weight tree drops exactly one (the weakest) loop edge, both
    feed edges of that meet bus survive in the plain tree, so parent
    pairs are drawn from each bus's tree neighbors; this also keeps the
    candidate count linear in the bus count. Pairs that end up adjacent
    in the remainder tree are skipped: closing a triangle scores the
    two-hop conditional dependence every multi-phase feeder has around
    any bus, not a physical line.
    """
    if tree is None:
        tree = max_weight_spanning_tree(mi)
    buses = list(mi.bus_ids)
    pos = {b: i for i, b in enumerate(buses)}
    adj = {b: set() for b in buses}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    for m in buses:
        if len(adj[m]) < 2:
            continue
        rest = [b for b in buses if b != m]
        keep = [pos[b] for b in rest]
        sub = MIMatrix(bus_ids=tuple(rest),
                       values=mi.values[np.ix_(keep, keep)],
                       frame=mi.frame, source=mi.source)
        rest_tree = max_weight_spanning_tree(sub)
        radj = {}
        for a, b in rest_tree.edges:
            radj.setdefault(a, set()).add(b)
            radj.setdefault(b, set()).add(a)
        for p, q in itertools.combinations(sorted(adj[m]), 2):
            if q in radj.get(p, ()):
                continue
            out.append((m, (p, q), rest_tree))
    return tree, out


def weak_mesh_search(mi, joint_mi_provider, max_chords=1, gain_tol=0.01):
    """Single-chord extension of the spanning tree.

    Each candidate hypothesis (meet bus m fed by parents p and q) is
    scored as I(V_m; V_p, V_q) plus the spanning tree weight over the
    remaining buses, and the best one replaces the plain tree only if
    it gains more than gain_tol nats (a guard against estimation noise
    buying a spurious loop). joint_mi_provider(m, (p, q)) returns the
    three-block joint MI in nats. See mesh_candidates for which
    hypotheses are considered.
    """
    if max_chords not in (0, 1):
        raise TopologyEstimateError("only a single chord is supported; use max_chords 0 or 1")
    tree = max_weight_spanning_tree(mi)
    if max_chords == 0 or len(mi.bus_ids) < 4:
        return tree
    tree_score = tree.total_weight()
    buses = list(mi.bus_ids)
    pos = {b: i for i, b in enumerate(buses)}
    _, candidates = mesh_candidates(mi, tree)
    best = None
    for m, (p, q), rest_tree in candidates:
        score = joint_mi_provider(m, (p, q)) + rest_tree.total_weight()
        key = (-score, m, p, q)
        if best is None or key < best[0]:
            best = (key, m, (p, q), rest_tree, score)
    if best is None or best[4] <= tree_score + gain_tol:
        return tree
    _, m, (p, q), rest_tree, _ = best
    # the stronger parent edge stays a tree edge, the weaker is the chord
    w_p = mi.values[pos[m], pos[p]]
    w_q = mi.values[pos[m], pos[q]]
    strong, weak = (p, q) if (w_p, -p) >= (w_q, -q) else (q, p)
    edges = rest_tree.edges + (tuple(sorted((m, strong))),)
    weights = dict(rest_tree.weights)
    weights[tuple(sorted((m, strong)))] = float(max(w_p, w_q))
    weights[tuple(sorted((m, weak)))] = float(min(w_p, w_q))
    return EdgeSetEstimate(bus_ids=tuple(buses), edges=edges, weights=weights,
                           chords=(tuple(sorted((m, weak))),),
                           frame=mi.frame, source=mi.source)


def recover(stats, mesh=False, max_chords=1, gain_tol=0.01, declared_root=None):
    """Rooted estimate from one PanelStatistics.

    Runs the spanning tree over stats.mi_matrix() (or, with mesh, the
    single-chord search scored by stats.group_mi), then attaches the
    root by the substation test on the same statistics, falling back
    to declared_root.
    """
    mi = stats.mi_matrix()
    if mesh:
        provider = lambda m, pair: stats.group_mi([m], list(pair))
        estimate = weak_mesh_search(mi, provider, max_chords=max_chords,
                                    gain_tol=gain_tol)
    else:
        estimate = max_weight_spanning_tree(mi)
    return attach_root(estimate, substation_mi=stats.substation_mi(),
                       declared_root=declared_root)


def estimate_topology(volt_panel, frame="phase", source="complex", mesh=False,
                      max_chords=1, gain_tol=0.01, ridge=0.0, declared_root=None):
    """Full recovery pipeline from a voltage panel.

    Returns (EdgeSetEstimate, PanelStatistics). The magnitude source
    works on the moduli of the complex increments; a panel that only
    ever stored magnitudes falls back to increments of those readings.
    The substation test reads the same statistics, so a request builds
    one covariance.
    """
    stats = PanelStatistics(difference(volt_panel), frame=frame, source=source, ridge=ridge)
    return recover(stats, mesh=mesh, max_chords=max_chords, gain_tol=gain_tol,
                   declared_root=declared_root), stats


# ---------------------------------------------------------------------
# Brute-force helpers for small-feeder verification
# ---------------------------------------------------------------------


def enumerate_spanning_trees(bus_ids):
    """Yield every spanning tree over the given buses as sorted edge tuples.

    Uses the bijection between labeled trees on m vertices and length
    m-2 sequences over the vertex set, so there are m**(m-2) trees;
    keep m small.
    """
    buses = sorted(bus_ids)
    m = len(buses)
    if m == 1:
        yield ()
        return
    if m == 2:
        yield ((buses[0], buses[1]),)
        return
    for seq in itertools.product(range(m), repeat=m - 2):
        yield _decode_pruefer(buses, seq)


def _decode_pruefer(buses, seq):
    m = len(buses)
    degree = [1] * m
    for s in seq:
        degree[s] += 1
    edges = []
    import heapq

    leaves = [i for i in range(m) if degree[i] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append(tuple(sorted((buses[leaf], buses[s]))))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append(tuple(sorted((buses[a], buses[b]))))
    return tuple(sorted(edges))


def random_spanning_tree(bus_ids, rng):
    """Uniformly random labeled tree over the buses."""
    buses = sorted(bus_ids)
    m = len(buses)
    if m <= 2:
        return next(enumerate_spanning_trees(buses))
    seq = tuple(int(v) for v in rng.integers(0, m, size=m - 2))
    return _decode_pruefer(buses, seq)


def tree_weight(edges, mi):
    pos = {b: i for i, b in enumerate(mi.bus_ids)}
    return float(sum(mi.values[pos[a], pos[b]] for a, b in edges))
