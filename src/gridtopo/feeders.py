"""Synthetic feeder catalogue.

Provides a handful of named radial feeders of increasing size, one
weakly meshed variant, and a seeded random feeder generator. All lines
are resistance dominant so the phase identification premise holds.
"""

from __future__ import annotations

import numpy as np

from .grid_model import (
    Branch,
    GridModelError,
    GridTopology,
    LineModel,
    PhaseMask,
)

FEEDER_NAMES = ("bus8", "bus13", "bus15_mesh", "bus33", "bus123")


def _line(rng, r_lo=1.3, r_hi=2.3):
    """Random line section parameters, resistance dominant."""
    r = rng.uniform(r_lo, r_hi)
    h_self = tuple(rng.uniform(7.5, 8.5) for _ in range(3))
    h_mut = tuple(rng.uniform(4.5, 5.5) for _ in range(3))
    return LineModel(r_per_mile=r, h_self=h_self, h_mut=h_mut)


def _branch(rng, parent, child, phases, length=None, is_chord=False):
    if length is None:
        length = rng.uniform(0.3, 1.2)
    return Branch(
        parent=parent,
        child=child,
        mask=PhaseMask.from_string(phases),
        line=_line(rng),
        length_miles=float(length),
        is_chord=is_chord,
    )


def _build(edges, z_base_ohm, name, seed):
    """edges: list of (parent, child, phases[, chord]) tuples."""
    rng = np.random.default_rng(seed)
    branches = []
    for e in edges:
        parent, child, phases = e[0], e[1], e[2]
        chord = len(e) > 3 and bool(e[3])
        branches.append(_branch(rng, parent, child, phases, is_chord=chord))
    return GridTopology(branches, z_base_ohm=z_base_ohm, name=name)


def eight_bus_feeder(z_base_ohm=10.0):
    """Eight buses: substation feeding a symmetric two-level tree.

    Non-slack edges are (1,2), (1,3), (2,4), (2,5), (3,6), (3,7), with
    mixed phasing on the leaves.
    """
    edges = [
        (0, 1, "abc"),
        (1, 2, "abc"),
        (1, 3, "abc"),
        (2, 4, "a"),
        (2, 5, "bc"),
        (3, 6, "abc"),
        (3, 7, "b"),
    ]
    return _build(edges, z_base_ohm, "bus8", seed=8)


def thirteen_bus_feeder(z_base_ohm=10.0):
    edges = [
        (0, 1, "abc"),
        (1, 2, "abc"),
        (2, 3, "abc"),
        (3, 4, "abc"),
        (2, 5, "ac"),
        (5, 6, "a"),
        (3, 7, "abc"),
        (7, 8, "bc"),
        (8, 9, "b"),
        (1, 10, "abc"),
        (10, 11, "ab"),
        (4, 12, "c"),
    ]
    return _build(edges, z_base_ohm, "bus13", seed=13)


def fifteen_bus_mesh_feeder(z_base_ohm=10.0):
    """Fifteen buses, radial backbone plus one normally closed tie chord.

    The chord (5,7) closes the loop 2-3-4-5-7-6-2; buses 5 and 7 have no
    other children so the loop carries a clean two-parent bus.
    """
    edges = [
        (0, 1, "abc"),
        (1, 2, "abc"),
        (2, 3, "abc"),
        (3, 4, "abc"),
        (4, 5, "abc"),
        (2, 6, "abc"),
        (6, 7, "abc"),
        (1, 8, "abc"),
        (8, 9, "ab"),
        (3, 10, "c"),
        (6, 11, "abc"),
        (11, 12, "b"),
        (4, 13, "ac"),
        (9, 14, "a"),
        (5, 7, "abc", 1),
    ]
    return _build(edges, z_base_ohm, "bus15_mesh", seed=15)


def random_feeder(n_buses, seed, z_base_ohm=10.0, full_mask_prob=0.55,
                  two_phase_prob=0.6, name=None):
    """Random radial feeder grown bus by bus.

    Bus 1 is the feeder head on all three phases; each further bus
    attaches to a uniformly chosen existing non-slack bus whose mask it
    either inherits or thins to a random sub-mask. Deterministic for a
    given seed.
    """
    if n_buses < 3:
        raise GridModelError("random_feeder needs at least 3 buses")
    rng = np.random.default_rng(seed)
    masks = {1: "abc"}
    edges = [(0, 1, "abc")]
    attachable = [1]
    for child in range(2, n_buses):
        parent = int(rng.choice(attachable))
        pmask = masks[parent]
        if len(pmask) == 1 or rng.random() < full_mask_prob:
            cmask = pmask
        else:
            k = 2 if (len(pmask) == 3 and rng.random() < two_phase_prob) else 1
            chosen = sorted(rng.choice(list(pmask), size=k, replace=False))
            cmask = "".join(chosen)
        masks[child] = cmask
        edges.append((parent, child, cmask))
        attachable.append(child)
    return _build(edges, z_base_ohm, name or f"random{n_buses}", seed=seed)


def make_feeder(name, z_base_ohm=10.0):
    """Named feeder presets used across the test and evaluation suites."""
    if name == "bus8":
        return eight_bus_feeder(z_base_ohm)
    if name == "bus13":
        return thirteen_bus_feeder(z_base_ohm)
    if name == "bus15_mesh":
        return fifteen_bus_mesh_feeder(z_base_ohm)
    if name == "bus33":
        return random_feeder(33, seed=3303, z_base_ohm=z_base_ohm, name="bus33")
    if name == "bus123":
        return random_feeder(123, seed=12301, z_base_ohm=z_base_ohm, name="bus123")
    raise GridModelError(f"unknown feeder {name!r}; choose from {FEEDER_NAMES}")
