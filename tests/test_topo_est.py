import itertools

import numpy as np
import pytest

from conftest import is_spanning_tree, record_logdets, spanning_trees
from gridtopo.feeders import make_feeder
from gridtopo.info_core import MIMatrix, PanelStatistics
from gridtopo.synth_lab import InjectionSpec, analytic_cov, generate_increments
from gridtopo.topo_est import (
    EdgeSetEstimate,
    TopologyEstimateError,
    attach_root,
    estimate_from_csv,
    max_weight_spanning_tree,
    mesh_candidates,
    recover,
    weak_mesh_search,
)


def _mi(ids, entries):
    ids = tuple(ids)
    pos = {b: i for i, b in enumerate(ids)}
    vals = np.zeros((len(ids), len(ids)))
    for (a, b), w in entries.items():
        vals[pos[a], pos[b]] = vals[pos[b], pos[a]] = w
    return MIMatrix(bus_ids=ids, values=vals)


# -- reference implementations -------------------------------------------
#
# Kruskal (a lexsort of every pair plus union-find) under the same
# strict order, and one Kruskal run over the other buses per meet bus,
# are the direct forms of the spanning tree and of the mesh search's
# remainder trees. Prim and the T-v remainder trees must equal them
# exactly: edge order, weights, candidates and score sums.


def _kruskal_reference(mi):
    """(edges in acceptance order, weights) of Kruskal under the strict order."""
    buses = list(mi.bus_ids)
    m = len(buses)
    ids = np.asarray(buses)
    ii, kk = np.triu_indices(m, 1)
    w = np.asarray(mi.values, dtype=float)[ii, kk]
    order = np.lexsort((np.maximum(ids[ii], ids[kk]), np.minimum(ids[ii], ids[kk]), -w))
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges, weights = [], {}
    for i, k, wt in zip(ii[order].tolist(), kk[order].tolist(), w[order].tolist()):
        ri, rk = find(i), find(k)
        if ri != rk:
            parent[rk] = ri
            pair = tuple(sorted((buses[i], buses[k])))
            edges.append(pair)
            weights[pair] = wt
            if len(edges) == m - 1:
                break
    return tuple(edges), weights


def _mesh_candidates_reference(mi):
    """[(m, (p, q), rest edges, rest weights, rest total)] by one Kruskal per meet bus."""
    edges, _ = _kruskal_reference(mi)
    buses = list(mi.bus_ids)
    pos = {b: i for i, b in enumerate(buses)}
    adj = {b: set() for b in buses}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    for m in buses:
        if len(adj[m]) < 2:
            continue
        rest = [b for b in buses if b != m]
        keep = [pos[b] for b in rest]
        sub = MIMatrix(bus_ids=tuple(rest), values=mi.values[np.ix_(keep, keep)])
        r_edges, r_weights = _kruskal_reference(sub)
        total = EdgeSetEstimate(bus_ids=tuple(rest), edges=r_edges,
                                weights=r_weights).total_weight()
        for p, q in itertools.combinations(sorted(adj[m]), 2):
            if (p, q) not in r_weights:
                out.append((m, (p, q), r_edges, r_weights, total))
    return out


def _weak_mesh_search_reference(mi, provider, gain_tol):
    """(edges, weights, chords) of the single-chord search over the reference candidates."""
    edges, weights = _kruskal_reference(mi)
    tree_score = float(sum(weights[e] for e in edges))
    best = None
    for m, (p, q), r_edges, r_weights, total in _mesh_candidates_reference(mi):
        score = provider(m, (p, q)) + total
        key = (-score, m, p, q)
        if best is None or key < best[0]:
            best = (key, m, (p, q), r_edges, r_weights, score)
    if best is None or best[5] <= tree_score + gain_tol:
        return edges, weights, ()
    _, m, (p, q), r_edges, r_weights, _ = best
    w_p, w_q = mi.value(m, p), mi.value(m, q)
    strong, weak = (p, q) if (w_p, -p) >= (w_q, -q) else (q, p)
    weights = dict(r_weights)
    weights[tuple(sorted((m, strong)))] = max(w_p, w_q)
    weights[tuple(sorted((m, weak)))] = min(w_p, w_q)
    return r_edges + (tuple(sorted((m, strong))),), weights, (tuple(sorted((m, weak))),)


def _random_mi(rng, m, ties):
    """Symmetric MI over m unsorted, non-contiguous bus ids; ties makes weights small integers."""
    ids = tuple(int(b) for b in rng.permutation(rng.choice(np.arange(1, 400), m, replace=False)))
    vals = rng.integers(0, 3, size=(m, m)).astype(float) if ties else rng.uniform(0, 2, (m, m))
    vals = np.triu(vals, 1)
    return MIMatrix(bus_ids=ids, values=vals + vals.T)


def _random_provider(rng, ties):
    """Joint-MI stand-in: one fixed random value per hypothesis."""
    table = {}

    def provider(m, pq):
        if (m, pq) not in table:
            table[(m, pq)] = float(rng.integers(0, 4)) if ties else float(rng.uniform(0, 4))
        return table[(m, pq)]

    return provider


# -- maximum-weight spanning tree ----------------------------------------


def test_unique_mst_three_buses():
    mi = _mi((1, 2, 3), {(1, 2): 3.0, (2, 3): 2.0, (1, 3): 1.0})
    tree = max_weight_spanning_tree(mi)
    assert set(tree.edges) == {(1, 2), (2, 3)}
    assert tree.weights[(1, 2)] == 3.0
    assert tree.total_weight() == 5.0


def test_equal_weights_take_lexicographically_first_tree():
    ids = (1, 2, 3, 4)
    mi = MIMatrix(bus_ids=ids, values=np.ones((4, 4)) - np.eye(4))
    tree = max_weight_spanning_tree(mi)
    assert tree.edges == ((1, 2), (1, 3), (1, 4))


def test_tie_on_weight_prefers_lower_pair():
    mi = _mi((3, 5, 9), {(3, 5): 1.0, (3, 9): 1.0, (5, 9): 1.0})
    tree = max_weight_spanning_tree(mi)
    assert set(tree.edges) == {(3, 5), (3, 9)}


def _exact_mi(acov):
    return PanelStatistics.from_analytic(acov).mi_matrix()


def test_mst_matches_known_feeder_analytically(bus8, bus8_analytic):
    tree = max_weight_spanning_tree(_exact_mi(bus8_analytic))
    assert set(tree.edges) == {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}
    assert set(tree.edges) == set(bus8.edge_set(include_root=False))


def test_mst_beats_random_trees(bus8_analytic):
    mi = _exact_mi(bus8_analytic)
    tree = max_weight_spanning_tree(mi)
    best = tree.total_weight()
    others = list(spanning_trees(mi.bus_ids))
    assert len(others) == 7 ** 5
    for other in others:
        assert sum(mi.value(a, b) for a, b in other) <= best + 1e-12


def test_mst_brute_force_small_random(rng):
    for trial in range(5):
        m = int(rng.integers(4, 8))
        ids = tuple(range(1, m + 1))
        vals = rng.uniform(0.1, 2.0, size=(m, m))
        vals = (vals + vals.T) / 2.0
        np.fill_diagonal(vals, 0.0)
        mi = MIMatrix(bus_ids=ids, values=vals)
        got = max_weight_spanning_tree(mi)
        best = max(sum(mi.value(a, b) for a, b in t) for t in spanning_trees(ids))
        assert got.total_weight() == pytest.approx(best, abs=1e-12)


def test_mst_rejects_nonfinite():
    mi = _mi((1, 2, 3), {(1, 2): np.nan, (2, 3): 2.0, (1, 3): 1.0})
    with pytest.raises(TopologyEstimateError):
        max_weight_spanning_tree(mi)


@pytest.mark.parametrize("ties", [False, True])
def test_prim_equals_kruskal_reference(rng, ties):
    for _ in range(150):
        mi = _random_mi(rng, int(rng.integers(1, 30)), ties)
        tree = max_weight_spanning_tree(mi)
        edges, weights = _kruskal_reference(mi)
        assert tree.edges == edges
        assert list(tree.weights.items()) == list(weights.items())


def test_prim_equals_kruskal_reference_on_a_large_tied_matrix(rng):
    mi = _random_mi(rng, 300, ties=True)
    edges, weights = _kruskal_reference(mi)
    tree = max_weight_spanning_tree(mi)
    assert tree.edges == edges and tree.weights == weights


def test_mst_rejects_nonfinite_on_the_diagonal():
    mi = _mi((1, 2, 3), {(1, 2): 3.0, (2, 3): 2.0, (1, 3): 1.0})
    mi.values[1, 1] = np.inf
    with pytest.raises(TopologyEstimateError):
        max_weight_spanning_tree(mi)


# -- estimate container --------------------------------------------------


def test_estimate_validates_edge_count():
    with pytest.raises(TopologyEstimateError):
        EdgeSetEstimate(bus_ids=(1, 2, 3), edges=((1, 2),))


def test_estimate_orients_from_root():
    est = EdgeSetEstimate(bus_ids=(1, 2, 3), edges=((1, 2), (2, 3)))
    est.root_edge = (0, 2)
    pairs = est.oriented()
    assert pairs[0] == (0, 2)
    assert set(pairs) == {(0, 2), (2, 1), (2, 3)}


def test_estimate_unrooted_refuses_orientation():
    est = EdgeSetEstimate(bus_ids=(1, 2), edges=((1, 2),))
    assert not est.rooted
    with pytest.raises(TopologyEstimateError):
        est.oriented()


# -- substation attachment -----------------------------------------------


def _toy_tree():
    return max_weight_spanning_tree(
        _mi((1, 2, 3), {(1, 2): 3.0, (2, 3): 2.0, (1, 3): 1.0})
    )


def test_attach_root_declared():
    est = attach_root(_toy_tree(), declared_root=1)
    assert est.root_edge == (0, 1)
    assert est.rooted


def test_attach_root_substation_argmax():
    est = attach_root(_toy_tree(), substation_mi={1: 0.9, 2: 0.4, 3: 0.1})
    assert est.root_edge == (0, 1)
    assert est.weights[(0, 1)] == 0.9


def test_attach_root_substation_wins_over_declared():
    est = attach_root(_toy_tree(), substation_mi={2: 0.7, 1: 0.2, 3: 0.1},
                      declared_root=1)
    assert est.root_edge == (0, 2)


def test_attach_root_nothing_leaves_flag():
    est = attach_root(_toy_tree())
    assert not est.rooted
    assert est.root_edge is None


def test_attach_root_unknown_declared_bus():
    with pytest.raises(TopologyEstimateError):
        attach_root(_toy_tree(), declared_root=42)


# -- spanning tree enumeration -------------------------------------------


def test_enumeration_counts_cayley():
    for m in (2, 3, 4, 5):
        ids = tuple(range(1, m + 1))
        trees = list(spanning_trees(ids))
        assert len(trees) == max(1, m ** (m - 2))
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert is_spanning_tree(t, ids)


def test_tree_validity_helper_refuses_cycles_and_forests():
    assert not is_spanning_tree(((1, 2), (2, 3), (1, 3)), (1, 2, 3, 4))
    assert not is_spanning_tree(((1, 2), (3, 4)), (1, 2, 3, 4))
    assert is_spanning_tree(((1, 2), (3, 4), (2, 3)), (1, 2, 3, 4))


# -- weakly meshed extension ---------------------------------------------


def _mesh_fixture():
    topo = make_feeder("bus15_mesh")
    spec = InjectionSpec.random(topo, seed=0)
    acov = analytic_cov(topo, spec)
    stats = PanelStatistics.from_analytic(acov)
    provider = lambda m, pq: stats.group_mi([m], list(pq))
    return topo, acov, stats.mi_matrix(), provider


def test_mesh_search_recovers_planted_chord():
    topo, acov, mi, provider = _mesh_fixture()
    est = weak_mesh_search(mi, provider)
    assert est.chords == ((5, 7),)
    got = set(est.edges) | set(est.chords)
    assert got == set(topo.edge_set(include_root=False, include_chords=True))


def test_mesh_search_leaves_tree_data_alone(bus8_analytic):
    stats = PanelStatistics.from_analytic(bus8_analytic)
    mi = stats.mi_matrix()
    provider = lambda m, pq: stats.group_mi([m], list(pq))
    est = weak_mesh_search(mi, provider)
    assert est.chords == ()
    assert set(est.edges) == set(max_weight_spanning_tree(mi).edges)


def test_mesh_search_zero_chords_is_plain_tree():
    topo, acov, mi, provider = _mesh_fixture()
    est = weak_mesh_search(mi, provider, max_chords=0)
    assert est.chords == ()


def test_mesh_search_rejects_multi_chord():
    topo, acov, mi, provider = _mesh_fixture()
    with pytest.raises(TopologyEstimateError):
        weak_mesh_search(mi, provider, max_chords=2)


@pytest.mark.parametrize("gain_tol", [np.nan, np.inf, -np.inf])
def test_mesh_search_rejects_a_non_finite_gain_tol(gain_tol):
    # nan would compare False against every score and always admit a chord
    topo, acov, mi, provider = _mesh_fixture()
    with pytest.raises(TopologyEstimateError, match="gain_tol must be a finite number"):
        weak_mesh_search(mi, provider, gain_tol=gain_tol)


def test_mesh_search_tiny_system_stays_tree(rng):
    vals = rng.uniform(0.5, 1.5, size=(3, 3))
    vals = (vals + vals.T) / 2.0
    np.fill_diagonal(vals, 0.0)
    mi = MIMatrix(bus_ids=(1, 2, 3), values=vals)
    est = weak_mesh_search(mi, lambda m, pq: 100.0)
    assert est.chords == ()


def test_mesh_candidates_never_close_triangles():
    topo, acov, mi, provider = _mesh_fixture()
    tree, cands = mesh_candidates(mi)
    adj = {b: set() for b in mi.bus_ids}
    for a, b in tree.edges:
        adj[a].add(b)
        adj[b].add(a)
    assert cands
    for m, (p, q), rest, rest_weight in cands:
        assert p in adj[m] and q in adj[m]
        assert is_spanning_tree(tuple(rest), tuple(b for b in mi.bus_ids if b != m))
        radj = {}
        for a, b in rest:
            radj.setdefault(a, set()).add(b)
            radj.setdefault(b, set()).add(a)
        assert q not in radj.get(p, set())


def _assert_candidates_match_reference(mi):
    tree, cands = mesh_candidates(mi)
    ref = _mesh_candidates_reference(mi)
    assert tree.edges == _kruskal_reference(mi)[0]
    assert [(m, pq) for m, pq, _, _ in cands] == [(m, pq) for m, pq, _, _, _ in ref]
    for (_, _, rest, rest_weight), (_, _, r_edges, r_weights, total) in zip(cands, ref):
        assert tuple(rest) == r_edges
        assert list(rest.items()) == list(r_weights.items())
        assert rest_weight == total
    return cands


@pytest.mark.parametrize("ties", [False, True])
def test_mesh_candidates_equal_per_bus_reference(rng, ties):
    found = 0
    for _ in range(100):
        found += len(_assert_candidates_match_reference(
            _random_mi(rng, int(rng.integers(3, 25)), ties)))
    assert found > 100


@pytest.mark.parametrize("ties", [False, True])
def test_mesh_search_equals_reference(rng, ties):
    chords = 0
    for _ in range(100):
        mi = _random_mi(rng, int(rng.integers(1, 20)), ties)
        provider = _random_provider(rng, ties)
        for gain_tol in (-1.0, 0.01, 1.0):
            est = weak_mesh_search(mi, provider, gain_tol=gain_tol)
            edges, weights, ref_chords = _weak_mesh_search_reference(mi, provider, gain_tol)
            assert est.edges == edges and est.chords == ref_chords
            assert list(est.weights.items()) == list(weights.items())
            chords += bool(est.chords)
    assert chords > 50


def test_mesh_candidates_and_search_equal_reference_on_bus123(exact_feeders):
    topo, acov = exact_feeders["bus123"]
    stats = PanelStatistics.from_analytic(acov, "sequence")
    mi = stats.mi_matrix()
    assert len(_assert_candidates_match_reference(mi)) == 119
    provider = lambda m, pq: stats.group_mi([m], list(pq))
    est = weak_mesh_search(mi, provider)
    edges, weights, chords = _weak_mesh_search_reference(mi, provider, 0.01)
    assert (est.edges, est.weights, est.chords) == (edges, weights, chords)


def test_mesh_search_on_sampled_data(bus8, bus8_spec):
    panel = generate_increments(bus8, bus8_spec, T=4000, seed=11)
    stats = PanelStatistics(panel)
    mi = stats.mi_matrix()
    est = weak_mesh_search(mi, lambda m, pq: stats.group_mi([m], list(pq)))
    assert est.chords == ()
    assert set(est.edges) == set(bus8.edge_set(include_root=False))


# -- the recover pipeline at infinite data -------------------------------


@pytest.fixture(scope="module")
def exact_feeders():
    """{name: (topology, AnalyticCovariance)} under injection seed 0."""
    out = {}
    for name in ("bus8", "bus13", "bus33", "bus123", "bus15_mesh"):
        topo = make_feeder(name)
        out[name] = topo, analytic_cov(topo, InjectionSpec.random(topo, seed=0))
    return out


def _recover_exact(exact_feeders, name, frame, mesh):
    topo, acov = exact_feeders[name]
    head = min(topo.children_of(0))
    est = recover(PanelStatistics.from_analytic(acov, frame), mesh=mesh, declared_root=head)
    assert est.root_edge == (0, head)
    return topo, est


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("name", ["bus8", "bus13", "bus33", "bus123"])
def test_recover_exact_statistics_gives_the_true_tree(exact_feeders, name, frame):
    topo, est = _recover_exact(exact_feeders, name, frame, mesh=False)
    assert set(est.edges) == set(topo.edge_set(include_root=False))
    assert est.chords == ()


@pytest.mark.parametrize("frame", ["phase", "sequence"])
def test_recover_exact_statistics_finds_the_planted_chord(exact_feeders, frame):
    topo, est = _recover_exact(exact_feeders, "bus15_mesh", frame, mesh=True)
    assert est.chords == ((5, 7),)
    got = set(est.edges) | set(est.chords)
    assert got == set(topo.edge_set(include_root=False, include_chords=True))


@pytest.mark.parametrize("frame", ["phase", "sequence"])
@pytest.mark.parametrize("name", [
    "bus8", "bus13", "bus33",
    pytest.param("bus123", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: spurious chord at infinite data")),
])
def test_recover_exact_statistics_adds_no_chord_to_a_radial_feeder(exact_feeders, name, frame):
    topo, est = _recover_exact(exact_feeders, name, frame, mesh=True)
    assert est.chords == ()
    assert set(est.edges) == set(topo.edge_set(include_root=False))


@pytest.mark.parametrize("feeder", ["bus33", "bus123"])
def test_mesh_recovery_takes_one_batch_per_joint_width(feeder, monkeypatch):
    topo = make_feeder(feeder)
    panel = generate_increments(topo, InjectionSpec.random(topo, seed=0), T=721, seed=4)
    stats = PanelStatistics(panel)
    stats.mi_matrix()
    widths = record_logdets(stats, monkeypatch)
    est = recover(stats, mesh=True, declared_root=1)
    _, candidates = mesh_candidates(stats.mi_matrix())
    assert widths and len(widths) == len(set(widths)) < len(candidates)
    # the same estimate, to the last bit, as the per-candidate search
    fresh = PanelStatistics(panel)
    want = attach_root(weak_mesh_search(fresh.mi_matrix(),
                                        lambda m, pair: fresh.group_mi([m], list(pair))),
                       declared_root=1)
    assert (est.edges, est.chords, est.root_edge) == (want.edges, want.chords, want.root_edge)
    assert est.weights == want.weights


# -- CSV interchange -----------------------------------------------------


def test_estimate_csv_round_trip(tmp_path):
    topo, acov, mi, provider = _mesh_fixture()
    est = attach_root(weak_mesh_search(mi, provider), declared_root=1)
    path = tmp_path / "estimate.csv"
    masks = {b: "abc" for b in (0,) + tuple(mi.bus_ids)}
    est.to_csv(path, masks=masks)
    text = path.read_text().splitlines()
    assert "chord" in text[0] and "mi_nats" in text[0]
    back = estimate_from_csv(path)
    assert set(back.edges) == set(est.edges)
    assert back.chords == est.chords
    assert back.root_edge == (0, 1)
    for e in est.edges:
        assert back.weights[e] == pytest.approx(est.weights[e], abs=0)


def test_estimate_csv_tree_round_trip(tmp_path, bus8_analytic):
    est = attach_root(max_weight_spanning_tree(_exact_mi(bus8_analytic)),
                      substation_mi={1: 1.5, 2: 0.5, 3: 0.5, 4: 0.2, 5: 0.2, 6: 0.1, 7: 0.1})
    path = tmp_path / "tree.csv"
    est.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert "chord" not in header
    back = estimate_from_csv(path)
    assert set(back.edges) == set(est.edges)
    assert back.root_edge == (0, 1)


def test_estimate_csv_chord_flags(tmp_path):
    path = tmp_path / "flags.csv"
    path.write_text("parent_id,child_id,chord\n1,2,\n2,3,0\n1,3,1\n")
    back = estimate_from_csv(path)
    assert back.edges == ((1, 2), (2, 3)) and back.chords == ((1, 3),)


@pytest.mark.parametrize("flag", ["true", "True", "yes", "2"])
def test_estimate_csv_refuses_an_unknown_chord_flag(tmp_path, flag):
    path = tmp_path / "flags.csv"
    path.write_text(f"parent_id,child_id,chord\n1,2,0\n2,3,{flag}\n")
    with pytest.raises(TopologyEstimateError, match=f"line 3: bad chord flag '{flag}'"):
        estimate_from_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5", "-1e-300"])
def test_estimate_csv_refuses_a_non_finite_or_negative_mi(tmp_path, value):
    path = tmp_path / "weights.csv"
    path.write_text(f"parent_id,child_id,mi_nats\n0,1,0.5\n1,2,0.25\n2,3,{value}\n")
    with pytest.raises(TopologyEstimateError,
                       match=f"line 4: mi_nats '{value}' is not a finite non-negative number"):
        estimate_from_csv(path)


def test_estimate_csv_reads_zero_and_blank_mi(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("parent_id,child_id,mi_nats\n0,1,0.5\n1,2,0\n2,3,\n")
    assert estimate_from_csv(path).weights == {(0, 1): 0.5, (1, 2): 0.0}


def test_estimate_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(TopologyEstimateError):
        estimate_from_csv(path)
