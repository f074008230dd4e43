"""Topology recovery from mutual information statistics.

Every spanning tree here is the maximum-weight tree under one strict
total order on bus pairs: weight descending, then (min id, max id).
Under that order the tree is unique. It is built by dense O(M^2) Prim
over pairwise MI, followed by an explicit root attachment step (the
substation is not part of the pairwise matrix) and an optional
single-chord search for weakly meshed feeders. The mesh search needs
the best tree over the buses other than a meet bus v for every v; by
the cycle property that is T-v plus the deg(v)-1 best pairs that
reconnect T-v's components, so no tree is rebuilt.

recover(stats, ...) is the one pipeline: tree or mesh search, then
rooting, on a PanelStatistics built either from a panel or from the
exact covariance (PanelStatistics.from_analytic). estimate_topology,
the CLI and the evaluation harness all run through it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid_model import TOPOLOGY_COLUMNS, branch_rows, read_bytes, write_csv
from .info_core import PanelStatistics, difference


class TopologyEstimateError(Exception):
    pass


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
            rows.append([parent, child, phases] + [""] * (len(TOPOLOGY_COLUMNS) - 3)
                        + ([1 if pair in chord_set else 0] if chord_set else [])
                        + [repr(self.weights[pair]) if pair in self.weights else ""])
        cols = TOPOLOGY_COLUMNS + (["chord"] if chord_set else []) + ["mi_nats"]
        write_csv(path, cols, rows)


def _ranked_pairs(mi):
    """Index pairs in strict order: weight non-increasing, ties by (min id, max id)."""
    buses = np.asarray(mi.bus_ids)
    m = len(buses)
    ii, kk = np.triu_indices(m, 1)
    w = np.asarray(mi.values, dtype=float)[ii, kk]
    lo = np.minimum(buses[ii], buses[kk])
    hi = np.maximum(buses[ii], buses[kk])
    order = np.lexsort((hi, lo, -w))
    return ii[order], kk[order], w[order]


def _rank_key(pair, w):
    """Sort key of a (min id, max id) pair of weight w in the strict order."""
    return -w, pair


def max_weight_spanning_tree(mi):
    """Dense Prim over MI weights under the strict pair order.

    Returns an unrooted EdgeSetEstimate with M-1 edges over the matrix's
    buses, listed in the strict order (weight descending, then (min id,
    max id)), which makes the tree unique even on equal weights. The
    matrix is read as symmetric; any non-finite entry is refused.
    """
    buses = list(mi.bus_ids)
    w = np.asarray(mi.values, dtype=float)
    if not np.isfinite(w).all():
        raise TopologyEstimateError("non-finite mutual information weight")
    weights = {}
    for s, v in _prim_links(w, buses):
        weights[tuple(sorted((buses[s], buses[v])))] = float(w[s, v])
    edges = tuple(sorted(weights, key=lambda e: _rank_key(e, weights[e])))
    return EdgeSetEstimate(bus_ids=tuple(buses), edges=edges,
                           weights={e: weights[e] for e in edges})


def _prim_links(w, buses):
    """(tree index, new index) pairs in the order Prim adds the vertices.

    Each outside vertex keeps its best weight into the tree (a running
    maximum) and the tree end that gives it, updated as each vertex
    joins. The vertex to add is the one whose best edge ranks first.
    Exact weight ties, between two tree ends of one vertex or between
    two vertices at the top, are settled by the pair key, and only
    where a tie exists.
    """
    m = len(buses)
    if m < 2:
        return []

    def key(a, b):
        x, y = buses[a], buses[b]
        return (x, y) if x < y else (y, x)

    outside = np.arange(1, m)
    best = w[0, 1:].copy()
    end = np.zeros(m - 1, dtype=np.intp)
    links = []
    for n in range(m - 1, 0, -1):
        j = int(best[:n].argmax())
        top = best[j]
        if np.count_nonzero(best[:n] == top) > 1:
            j = min(np.flatnonzero(best[:n] == top).tolist(),
                    key=lambda i: key(end[i], outside[i]))
        s, v = int(end[j]), int(outside[j])
        links.append((s, v))
        # swap-remove v from the outside set, then relax through it
        last = n - 1
        outside[j], best[j], end[j] = outside[last], best[last], end[last]
        row = w[v].take(outside[:last])
        tied = np.flatnonzero(row == best[:last])
        end[:last][row > best[:last]] = v
        np.maximum(best[:last], row, out=best[:last])
        for i in tied.tolist():
            if key(v, outside[i]) < key(end[i], outside[i]):
                end[i] = v
    return links


def estimate_from_csv(path):
    """Read back an estimate written by EdgeSetEstimate.to_csv.

    Only the connectivity columns are used; admittance fields stay
    blank in estimate files. Rows follow grid_model.branch_rows' rules,
    and an mi_nats field, when filled, must be a finite non-negative
    number. A row with parent 0 becomes the root edge; a second one is
    refused.
    """
    def error(message, line_no):
        return TopologyEstimateError(f"{path}: line {line_no}: {message}")

    edges, chords, weights = [], [], {}
    buses, root_edge = set(), None
    for line_no, a, b, is_chord, fields in branch_rows(read_bytes(path), error,
                                                        ("parent_id", "child_id")):
        pair = (min(a, b), max(a, b))
        if pair[0] == 0 and root_edge is not None:
            raise error(f"second substation edge {pair}, the root is already {root_edge}",
                        line_no)
        w = fields.get("mi_nats", "")
        if w:
            try:
                weights[pair] = float(w)
            except ValueError:
                raise error(f"cannot parse mi_nats {w!r}", line_no)
            if not (math.isfinite(weights[pair]) and weights[pair] >= 0.0):
                raise error(f"mi_nats {w!r} is not a finite non-negative number", line_no)
        if pair[0] == 0:
            root_edge = pair
            buses.add(pair[1])
        else:
            buses.update(pair)
            (chords if is_chord else edges).append(pair)
    if not buses:
        raise TopologyEstimateError(f"{path}: no edges")
    try:
        est = EdgeSetEstimate(bus_ids=tuple(sorted(buses)), edges=tuple(edges),
                              weights=weights, chords=tuple(chords))
    except TopologyEstimateError as exc:
        raise TopologyEstimateError(f"{path}: {exc}") from None
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
                          weights=dict(estimate.weights), chords=estimate.chords)
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
    """Valid chord hypotheses: (meet bus, parent pair, rest, rest weight).

    A single loop means one bus is fed from two sides. Because the
    maximum-weight tree drops exactly one (the weakest) loop edge, both
    feed edges of that meet bus survive in the plain tree, so parent
    pairs are drawn from each bus's tree neighbors; this also keeps the
    candidate count linear in the bus count. rest is the maximum-weight
    tree over the other buses as {pair: weight} in strict order, and
    rest weight is its total, summed in that order. Pairs adjacent in
    rest are skipped: closing a triangle scores the two-hop conditional
    dependence every multi-phase feeder has around any bus, not a
    physical line. tree, when given, must be max_weight_spanning_tree(mi):
    the remainder trees are derived from it. Returns (tree, candidates).
    """
    if tree is None:
        tree = max_weight_spanning_tree(mi)
    buses = list(mi.bus_ids)
    pos = {b: i for i, b in enumerate(buses)}
    adj = [[] for _ in buses]
    for a, b in tree.edges:
        adj[pos[a]].append(pos[b])
        adj[pos[b]].append(pos[a])
    start, size, parent = _preorder(adj)
    ii, kk, ws = _ranked_pairs(mi)
    tree_keys = [_rank_key(e, tree.weights[e]) for e in tree.edges]
    out = []
    for i, m in enumerate(buses):
        if len(adj[i]) < 2:
            continue
        # label T-m's components over preorder positions: 0 for the part
        # above m, c for the subtree of m's c-th neighbor
        label = np.zeros(len(buses), dtype=np.intp)
        for c, nb in enumerate(adj[i], 1):
            if nb != parent[i]:
                label[start[nb]:start[nb] + size[nb]] = c
        label[start[i]] = -1
        comp = label[start]
        keys = [k for k in tree_keys if m not in k[1]]
        for h in _reconnecting(comp[ii], comp[kk], len(adj[i])):
            pair = tuple(sorted((buses[ii[h]], buses[kk[h]])))
            bisect.insort(keys, _rank_key(pair, float(ws[h])))
        rest = {e: -neg_w for neg_w, e in keys}
        rest_weight = float(sum(rest.values()))
        for p, q in itertools.combinations(sorted(buses[nb] for nb in adj[i]), 2):
            if (p, q) not in rest:
                out.append((m, (p, q), rest, rest_weight))
    return tree, out


def _preorder(adj):
    """Depth-first preorder position, subtree size and parent of each vertex, from vertex 0."""
    n = len(adj)
    parent = [-1] * n
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for x in adj[u]:
            if x != parent[u]:
                parent[x] = u
                stack.append(x)
    start = np.empty(n, dtype=np.intp)
    start[order] = np.arange(n)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return start, size, parent


def _reconnecting(ca, cb, parts):
    """Ranks of the pairs that join `parts` components into one, best first.

    ca and cb are the component labels (0..parts) of each ranked
    pair's ends, -1 for the removed bus: Kruskal over the components,
    merging labels after each pick.
    """
    picked = []
    while True:
        h = int(np.argmax((ca != cb) & (ca >= 0) & (cb >= 0)))
        picked.append(h)
        if len(picked) == parts - 1:
            return picked
        x, y = ca[h], cb[h]
        ca = np.where(ca == y, x, ca)
        cb = np.where(cb == y, x, cb)


def weak_mesh_search(mi, joint_mi_provider, max_chords=1, gain_tol=0.01):
    """Single-chord extension of the spanning tree.

    Each candidate hypothesis (meet bus m fed by parents p and q) is
    scored as I(V_m; V_p, V_q) plus the spanning tree weight over the
    remaining buses, and the best one replaces the plain tree only if
    it gains more than gain_tol nats (a guard against estimation noise
    buying a spurious loop). joint_mi_provider(m, (p, q)) returns the
    three-block joint MI in nats, one candidate per call. See
    mesh_candidates for which hypotheses are considered.
    """
    return _mesh_search(mi, lambda cands: [joint_mi_provider(m, pair)
                                           for m, pair, _, _ in cands],
                        max_chords, gain_tol)


def _mesh_search(mi, joint_mis, max_chords, gain_tol):
    """weak_mesh_search with every candidate's joint MI from one call,
    joint_mis(candidates), which returns them in candidate order."""
    if max_chords not in (0, 1):
        raise TopologyEstimateError("only a single chord is supported; use max_chords 0 or 1")
    if not np.isfinite(gain_tol):
        raise TopologyEstimateError(f"gain_tol must be a finite number, got {gain_tol!r}")
    tree = max_weight_spanning_tree(mi)
    if max_chords == 0 or len(mi.bus_ids) < 4:
        return tree
    tree_score = tree.total_weight()
    buses = list(mi.bus_ids)
    pos = {b: i for i, b in enumerate(buses)}
    _, candidates = mesh_candidates(mi, tree)
    best = None
    for (m, (p, q), rest, rest_weight), joint in zip(candidates, joint_mis(candidates)):
        score = joint + rest_weight
        key = (-score, m, p, q)
        if best is None or key < best[0]:
            best = (key, m, (p, q), rest, score)
    if best is None or best[4] <= tree_score + gain_tol:
        return tree
    _, m, (p, q), rest, _ = best
    # the stronger parent edge stays a tree edge, the weaker is the chord
    w_p = mi.values[pos[m], pos[p]]
    w_q = mi.values[pos[m], pos[q]]
    strong, weak = (p, q) if (w_p, -p) >= (w_q, -q) else (q, p)
    edges = tuple(rest) + (tuple(sorted((m, strong))),)
    weights = dict(rest)
    weights[tuple(sorted((m, strong)))] = float(max(w_p, w_q))
    weights[tuple(sorted((m, weak)))] = float(min(w_p, w_q))
    return EdgeSetEstimate(bus_ids=tuple(buses), edges=edges, weights=weights,
                           chords=(tuple(sorted((m, weak))),))


def recover(stats, mesh=False, max_chords=1, gain_tol=0.01, declared_root=None):
    """Rooted estimate from one PanelStatistics.

    Runs the spanning tree over stats.mi_matrix() (or, with mesh, the
    single-chord search, every candidate scored by one
    stats.group_mis batch), then attaches the root by the substation
    test on the same statistics, falling back to declared_root.
    """
    mi = stats.mi_matrix()
    if mesh:
        estimate = _mesh_search(
            mi, lambda cands: stats.group_mis(([m], list(pair)) for m, pair, _, _ in cands),
            max_chords, gain_tol)
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
    one covariance. frame is checked and changes no output.
    """
    stats = PanelStatistics(difference(volt_panel), frame=frame, source=source, ridge=ridge)
    return recover(stats, mesh=mesh, max_chords=max_chords, gain_tol=gain_tol,
                   declared_root=declared_root), stats
