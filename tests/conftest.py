"""Shared fixtures plus the acceptance summary table.

Acceptance tests register one line per criterion through the
`criteria` fixture; the terminal summary prints them in order so a
full run ends with a compact pass/fail table. padded and unpadded
convert between a panel's (T, D) channel block and the (T, n_buses, 3)
slot grid that some tests index by (bus, slot), and channel_coords
names the (bus, slot) of each model-side channel. dense_reference and
dense_mi are the explicit exact-MI construction, frame transform
included, that the kernel's analytic statistics are checked against.
spanning_trees and edge_correlation_margins are brute-force and
ground-truth oracles for the spanning-tree and phase checks.
"""

import itertools

import numpy as np
import pytest

from gridtopo.feeders import make_feeder, random_feeder
from gridtopo.info_core import SEQ_H_INV
from gridtopo.phase_id import _edge_correlation, _unit_series
from gridtopo.synth_lab import InjectionSpec, analytic_cov

_CRITERIA = {}


def padded(panel):
    """(T, n_buses, 3) copy of panel.values, zero outside the claimed slots."""
    out = np.zeros((panel.n_samples,) + panel.masks.shape, dtype=complex)
    out[:, panel.masks] = panel.values
    return out


def unpadded(values, masks):
    """(T, D) channel block of a padded (T, n_buses, 3) array; inverts padded."""
    return np.asarray(values)[:, np.asarray(masks, dtype=bool)]


def channel_coords(masks):
    """(bus, slot) of each non-slack channel, in panel column order after the substation's."""
    return [(b, s) for b, s in np.argwhere(masks).tolist() if b != 0]


def dense_reference(acov, frame):
    """(correlation matrix, {bus: positions}) on the analytic [Re; Im] layout.

    In the sequence frame every bus's coordinates first take the
    symmetrical-component map, written out as one (2D, 2D) real matrix.
    """
    D = acov.dim
    B = np.eye(2 * D)
    coords = channel_coords(acov.masks)
    owner = np.array([b for b, _ in coords])
    pos = {b: np.flatnonzero(owner == b) for b in np.unique(owner).tolist()}
    if frame == "sequence":
        for b, p in pos.items():
            A = SEQ_H_INV[:len(p)][:, [coords[j][1] for j in p]]
            B[np.ix_(p, p)] = A.real
            B[np.ix_(p, p + D)] = -A.imag
            B[np.ix_(p + D, p)] = A.imag
            B[np.ix_(p + D, p + D)] = A.real
    C = B @ acov.real @ B.T
    d = np.sqrt(np.diag(C))
    return C / np.outer(d, d), {b: np.stack([p, p + D], axis=1).ravel() for b, p in pos.items()}


def dense_mi(C, pos):
    """All-pairs MI over the buses of pos in ascending order, one log-determinant per block."""
    buses = sorted(pos)
    out = np.zeros((len(buses), len(buses)))
    ld = lambda idx: np.linalg.slogdet(C[np.ix_(idx, idx)])[1]
    for i, k in itertools.combinations(range(len(buses)), 2):
        pi, pk = pos[buses[i]], pos[buses[k]]
        out[i, k] = out[k, i] = 0.5 * (ld(pi) + ld(pk) - ld(np.concatenate([pi, pk])))
    return out


def eliminated_logdet(M):
    """log|det| of one block by plain Gaussian elimination without pivoting.

    The reference for info_core._block_logdets: the same operations on
    one (d, d) block, one pivot at a time, so it equals the batched
    kernel bit for bit. np.log, not math.log, since the two can differ
    in the last bit.
    """
    A = np.array(M, dtype=float)
    ld = 0.0
    for k in range(A.shape[0]):
        ld += np.log(A[k, k])
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:] / A[k, k])
    return ld


def record_logdets(stats, monkeypatch):
    """The joint dimension of every _logdets call stats makes from now on."""
    widths = []
    logdets = stats._logdets

    def recording(flat):
        widths.append(flat.shape[0])
        return logdets(flat)

    monkeypatch.setattr(stats, "_logdets", recording)
    return widths


def is_spanning_tree(edges, bus_ids):
    """len(bus_ids) - 1 edges over bus_ids that reach every bus from the first."""
    adj = {b: [] for b in bus_ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {bus_ids[0]}, [bus_ids[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(edges) == len(bus_ids) - 1 and seen == set(bus_ids)


def spanning_trees(bus_ids):
    """Every spanning tree over the buses, as sorted edge tuples; keep the bus count small."""
    buses = tuple(sorted(bus_ids))
    pairs = itertools.combinations(buses, 2)
    return (t for t in itertools.combinations(pairs, len(buses) - 1)
            if is_spanning_tree(t, buses))


def edge_correlation_margins(tree, panel, use_increments=True):
    """Per-edge gap between same-phase and best cross-phase correlation.

    For every tree edge, compares the correlation of true same-phase
    channel pairs against the largest cross-phase correlation between
    the two buses. Positive margins are what makes label propagation
    work; the minimum over edges is the robustness figure.
    """
    margins = {}
    z = _unit_series(panel, use_increments)
    for parent, child in tree.oriented():
        if parent == 0:
            continue
        corr = _edge_correlation(z, panel, parent, child)
        p_phase = panel.true_phases(parent)
        c_phase = panel.true_phases(child)
        same = []
        cross = []
        for i, pp in enumerate(p_phase):
            for j, cc in enumerate(c_phase):
                v = corr[i, j]
                if not np.isfinite(v):
                    continue
                (same if pp == cc else cross).append(float(v))
        if not same:
            continue
        worst_same = min(same)
        best_cross = max(cross) if cross else -1.0
        margins[(parent, child)] = worst_same - best_cross
    return margins


class CriterionLog:
    def record(self, number, passed, detail):
        _CRITERIA[int(number)] = (bool(passed), str(detail))


@pytest.fixture(scope="session")
def criteria():
    return CriterionLog()


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        passed, detail = _CRITERIA[num]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {word} - {detail}")


@pytest.fixture(scope="session")
def bus8():
    return make_feeder("bus8")


@pytest.fixture(scope="session")
def bus8_spec(bus8):
    return InjectionSpec.random(bus8, seed=0)


@pytest.fixture(scope="session")
def bus8_analytic(bus8, bus8_spec):
    return analytic_cov(bus8, bus8_spec)


@pytest.fixture(scope="session")
def small_random_feeders():
    """Ten random feeders used by the analytic-oracle criteria."""
    out = []
    for seed in range(10):
        n = 5 + (seed % 4)
        topo = random_feeder(n, seed=seed)
        spec = InjectionSpec.random(topo, seed=seed + 100)
        out.append((topo, spec, analytic_cov(topo, spec)))
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
