import itertools

import numpy as np
import pytest

from gridtopo.feeders import make_feeder
from gridtopo.info_core import MIMatrix, PanelStatistics
from gridtopo.synth_lab import InjectionSpec, analytic_cov, generate_increments
from gridtopo.topo_est import (
    EdgeSetEstimate,
    TopologyEstimateError,
    UnionFind,
    attach_root,
    enumerate_spanning_trees,
    estimate_from_csv,
    max_weight_spanning_tree,
    mesh_candidates,
    random_spanning_tree,
    recover,
    tree_weight,
    weak_mesh_search,
)


def _mi(ids, entries):
    ids = tuple(ids)
    pos = {b: i for i, b in enumerate(ids)}
    vals = np.zeros((len(ids), len(ids)))
    for (a, b), w in entries.items():
        vals[pos[a], pos[b]] = vals[pos[b], pos[a]] = w
    return MIMatrix(bus_ids=ids, values=vals)


# -- Kruskal over MI weights ---------------------------------------------


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


def test_mst_beats_random_trees(bus8_analytic, rng):
    mi = _exact_mi(bus8_analytic)
    tree = max_weight_spanning_tree(mi)
    best = tree.total_weight()
    for _ in range(1000):
        other = random_spanning_tree(mi.bus_ids, rng)
        assert tree_weight(other, mi) <= best + 1e-12


def test_mst_brute_force_small_random(rng):
    for trial in range(5):
        m = int(rng.integers(4, 8))
        ids = tuple(range(1, m + 1))
        vals = rng.uniform(0.1, 2.0, size=(m, m))
        vals = (vals + vals.T) / 2.0
        np.fill_diagonal(vals, 0.0)
        mi = MIMatrix(bus_ids=ids, values=vals)
        got = max_weight_spanning_tree(mi)
        best = max(tree_weight(t, mi) for t in enumerate_spanning_trees(ids))
        assert got.total_weight() == pytest.approx(best, abs=1e-12)


def test_mst_rejects_nonfinite():
    mi = _mi((1, 2, 3), {(1, 2): np.nan, (2, 3): 2.0, (1, 3): 1.0})
    with pytest.raises(TopologyEstimateError):
        max_weight_spanning_tree(mi)


def test_union_find_cycle_detect():
    uf = UnionFind(3)
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)


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
        trees = list(enumerate_spanning_trees(ids))
        assert len(trees) == max(1, m ** (m - 2))
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert len(t) == m - 1
            uf = UnionFind(m)
            pos = {b: i for i, b in enumerate(ids)}
            for a, b in t:
                assert uf.union(pos[a], pos[b])


def test_random_tree_is_valid(rng):
    ids = (2, 4, 6, 8, 10)
    for _ in range(50):
        t = random_spanning_tree(ids, rng)
        uf = UnionFind(5)
        pos = {b: i for i, b in enumerate(ids)}
        for a, b in t:
            assert uf.union(pos[a], pos[b])


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
    for m, (p, q), rest_tree in cands:
        assert p in adj[m] and q in adj[m]
        radj = {}
        for a, b in rest_tree.edges:
            radj.setdefault(a, set()).add(b)
            radj.setdefault(b, set()).add(a)
        assert q not in radj.get(p, set())


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
        strict=True, reason="ROADMAP item 4: spurious chord at infinite data")),
])
def test_recover_exact_statistics_adds_no_chord_to_a_radial_feeder(exact_feeders, name, frame):
    topo, est = _recover_exact(exact_feeders, name, frame, mesh=True)
    assert est.chords == ()
    assert set(est.edges) == set(topo.edge_set(include_root=False))


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


def test_estimate_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(TopologyEstimateError):
        estimate_from_csv(path)
