#!/usr/bin/env python3
"""
How much of the pairwise information lives in voltage magnitudes?

For each true edge of the 8-bus feeder, splits the polar-frame mutual
information of the endpoint increments into three chain-rule terms:

    A = I(|dv_i| ; |dv_k|)                  magnitudes alone
    B = I(angle_i ; |dv_k| given |dv_i|)    one side's angles
    C = I(both_i ; angle_k given |dv_k|)    remaining angle content

A + B + C telescopes exactly to the full polar MI of the pair, so the
table shows where the signal sits. On a magnitude-only panel the angle
channels are constant and B = C = 0 by construction; magnitude-source
recovery works whenever the A column alone still ranks edges first.
"""
import numpy as np

from gridtopo import (
    FeederSampler,
    InjectionSpec,
    integrate_voltages,
    make_feeder,
    mi_breakdown,
    to_magnitude,
)

topo = make_feeder("bus8")
spec = InjectionSpec.random(topo, seed=3)
volts = integrate_voltages(FeederSampler(topo, spec).increments(6000, seed=11))

print("pair      A=mag      B          C          A+B+C    mag share")
for parent, child in sorted(topo.edge_set(include_root=False)):
    a, b, c = mi_breakdown(volts, parent, child)
    total = a + b + c
    print(f"({parent},{child})   {a:9.4f}  {b:9.4f}  {c:9.4f}  {total:9.4f}"
          f"  {a / total:8.1%}")

# sanity: the same pair through the magnitude-only path. A changes
# because a panel without angles can only difference the stored
# readings (d|v| rather than |dv|); the angle terms vanish exactly.
mag = to_magnitude(volts)
pa, ch = sorted(topo.edge_set(include_root=False))[0]
a, b, c = mi_breakdown(mag, pa, ch)
print(f"\nmagnitude-only panel, pair ({pa},{ch}): "
      f"A={a:.4f} (from d|v| readings), B={b:.4f}, C={c:.4f}")
