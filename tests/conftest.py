"""Shared fixtures plus the acceptance summary table.

Acceptance tests register one line per criterion through the
`criteria` fixture; the terminal summary prints them in order so a
full run ends with a compact pass/fail table. padded and unpadded
convert between a panel's (T, D) channel block and the (T, n_buses, 3)
slot grid that some tests index by (bus, slot).
"""

import numpy as np
import pytest

from gridtopo.feeders import make_feeder, random_feeder
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
