#!/usr/bin/env python3
"""
Mislabeled meter phases: the estimator does not care, the phase
identifier repairs them.

Scrambles the claimed phase labels on 30% of the multi-phase buses of
the 13-bus feeder, then shows that (a) the pairwise MI matrix is
unchanged to machine precision, so the recovered tree is identical,
and (b) assign_phases walks that tree and points at exactly the buses
whose labels were forged.
"""
import numpy as np

from gridtopo import (
    FeederSampler,
    InjectionSpec,
    PanelStatistics,
    assign_phases,
    assignment_accuracy,
    corrupt_labels,
    diagnose_labels,
    difference,
    estimate_topology,
    integrate_voltages,
    make_feeder,
)

topo = make_feeder("bus13")
spec = InjectionSpec.random(topo, seed=1)
volts = integrate_voltages(FeederSampler(topo, spec).increments(8759, seed=5))
head = min(topo.children_of(0))

scrambled = corrupt_labels(volts, 0.30, seed=77, protect=(head,))
moved = sorted(b for b in topo.non_slack_ids
               if not np.array_equal(volts.labels[b], scrambled.labels[b]))
print(f"forged labels on buses {moved}")

clean_mi = PanelStatistics(difference(volts)).mi_matrix()
dirty_mi = PanelStatistics(difference(scrambled)).mi_matrix()
print(f"max MI change under the forgery: "
      f"{np.abs(clean_mi.values - dirty_mi.values).max():.2e} nats")

est, _ = estimate_topology(scrambled, declared_root=head)
truth = set(topo.edge_set(include_root=False))
print(f"tree from scrambled panel exact: {set(est.edges) == truth}")

assignment = assign_phases(est, scrambled)
flagged = diagnose_labels(assignment, scrambled)
acc = assignment_accuracy(assignment, scrambled)
print(f"phase identification accuracy {acc:.0%}, "
      f"buses flagged as mislabeled: {flagged}")
for b in flagged:
    print(f"  bus {b}: claimed slots carry phases "
          f"{assignment.phase_letters(b)} ({assignment.statuses[b]})")
