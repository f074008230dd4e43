"""Every demo runs to completion against the package in src.

Each demo runs in its own interpreter with PYTHONPATH=src and a
scratch working directory, so a demo that breaks on an API change
fails here rather than in a reader's hands, and a demo that writes a
file (noise_ladder.csv) writes it there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert {p.name for p in DEMOS} >= {"recover_bus33.py", "mesh_chord.py"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
