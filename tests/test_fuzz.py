"""Seeded mutation fuzz of the file readers, through the CLI commands.

One bus8 simulation (60 samples, 30% of labels corrupted) gives the
measurement, estimate and topology files. Each case mutates one of
them with one to three edits (delete, duplicate or truncate a line,
replace a field with one of TOKENS, or drop a field) and runs every
command that reads it:

- measurements: estimate (complex source), estimate (magnitude source
  with --mesh) and identify-phases against the clean estimate;
- estimate file: identify-phases with --root;
- topology: simulate --topology.

Every command must return 0, 1 or 2 and raise nothing. A topology case
whose only edit replaced a line-parameter field (length, resistance or
a Carson factor) and that exits 2 must name the edited line. The seed
and the case count (CASES inputs, about 2,500 commands) are fixed; a
finding is fixed in the program, never hidden by changing either.
"""

import contextlib
import io
import random

import pytest

from gridtopo.cli import main
from gridtopo.grid_model import TOPOLOGY_COLUMNS

SEED = 7
CASES = 1500
TOKENS = ("", "x", "1e400", "nan", "-1", "99", "inf")
LINE_PARAMETER_COLUMNS = frozenset(TOPOLOGY_COLUMNS[3:])
EDITS = ("delete", "duplicate", "truncate", "replace", "drop")


def _run(argv):
    """(exit code, stderr) of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def _mutate(rng, lines):
    """A mutated copy of lines and its edits as (kind, line index, field index)."""
    lines = list(lines)
    edits = []
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.choice(EDITS)
        j = None
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        else:
            fields = lines[i].split(",")
            j = rng.randrange(len(fields))
            if kind == "replace":
                fields[j] = rng.choice(TOKENS)
            else:
                del fields[j]
            lines[i] = ",".join(fields)
        edits.append((kind, i, j))
    return lines, edits


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    prefix = d / "sim"
    assert _run(["simulate", "--feeder", "bus8", "--samples", "60",
                 "--label-corruption", "0.3", "--out", prefix])[0] == 0
    measurements = d / "sim.measurements.csv"
    assert _run(["estimate", "--measurements", measurements, "--root", "1",
                 "--out", d / "est.csv"])[0] == 0
    return d, measurements, d / "est.csv", d / "sim.topology.csv"


def test_mutated_inputs_exit_cleanly(sources):
    d, measurements, estimate, topology = sources
    out, mutated = d / "out.csv", d / "mutated.csv"
    targets = {
        "measurements": (measurements, lambda p: [
            ["estimate", "--measurements", p, "--root", "1", "--out", out],
            ["estimate", "--measurements", p, "--source", "magnitude", "--mesh",
             "--out", out],
            ["identify-phases", "--measurements", p, "--topology", estimate, "--out", out],
        ]),
        "estimate": (estimate, lambda p: [
            ["identify-phases", "--measurements", measurements, "--topology", p,
             "--root", "1", "--out", out],
        ]),
        "topology": (topology, lambda p: [
            ["simulate", "--topology", p, "--samples", "20", "--out", d / "again"],
        ]),
    }
    texts = {name: path.read_bytes().decode().splitlines()
             for name, (path, _) in targets.items()}
    header = texts["topology"][0].split(",")
    rng = random.Random(SEED)
    failures, unnamed, named = [], [], 0
    for case in range(CASES):
        name = rng.choice(sorted(targets))
        lines, edits = _mutate(rng, texts[name])
        mutated.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        kind, i, j = edits[0] if len(edits) == 1 else (None, None, None)
        line_parameter = (name == "topology" and kind == "replace" and i > 0
                          and j < len(header) and header[j] in LINE_PARAMETER_COLUMNS)
        for argv in targets[name][1](mutated):
            try:
                rc, err = _run(argv)
            except Exception as exc:  # noqa: BLE001 - every escape is a finding
                failures.append((case, name, edits, argv[0], repr(exc)))
                continue
            if rc not in (0, 1, 2):
                failures.append((case, name, edits, argv[0], f"exit {rc}"))
            if line_parameter and rc == 2:
                named += 1
                if f"line {i + 1}:" not in err:
                    unnamed.append((case, edits, err.strip()))
    assert not failures, failures[:5]
    assert named > 0
    assert not unnamed, unnamed[:5]
