import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridtopo
from gridtopo.cli import build_parser, main
from gridtopo.eval_harness import ScenarioConfig, build_context, draw_panel
from gridtopo.feeders import make_feeder
from gridtopo.synth_lab import labels_to_csv, panel_to_csv
from gridtopo.topo_est import estimate_from_csv


def _simulate(tmp_path, *extra, feeder="bus8", samples=600, seed=0):
    prefix = str(tmp_path / "sim")
    rc = main(["simulate", "--feeder", feeder, "--samples", str(samples),
               "--seed", str(seed), "--out", prefix, *extra])
    assert rc == 0
    return prefix


def test_simulate_writes_three_files(tmp_path, capsys):
    prefix = _simulate(tmp_path)
    for suffix in (".topology.csv", ".measurements.csv", ".labels.csv"):
        assert (tmp_path / ("sim" + suffix)).exists()
    out = capsys.readouterr().out
    assert "8 buses x 600 samples" in out
    with open(prefix + ".measurements.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,bus_id,phase,magnitude_pu,angle_deg"


def test_simulate_default_is_hourly_year():
    args = build_parser().parse_args(["simulate", "--out", "x"])
    assert args.samples == 8760


def test_simulate_magnitude_only_blanks_angles(tmp_path):
    prefix = _simulate(tmp_path, "--magnitude-only", samples=50)
    with open(prefix + ".measurements.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(r["angle_deg"] == "" for r in rows)


def test_simulate_topology_file_round_trips(tmp_path):
    prefix = _simulate(tmp_path, samples=50)
    from gridtopo.grid_model import topology_from_csv

    topo = topology_from_csv(prefix + ".topology.csv")
    want = make_feeder("bus8")
    assert topo.edge_set() == want.edge_set()


def test_simulate_topology_file_names_the_file(tmp_path, capsys):
    topo = _simulate(tmp_path, samples=50) + ".topology.csv"
    capsys.readouterr()
    assert main(["simulate", "--topology", topo, "--samples", "50", "--seed", "2",
                 "--out", str(tmp_path / "again")]) == 0
    out = capsys.readouterr().out
    assert f"(feeder {topo}, seed 2)" in out and "bus33" not in out


def test_estimate_recovers_tree_exit_zero(tmp_path, capsys):
    prefix = _simulate(tmp_path)
    out = str(tmp_path / "est.csv")
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
               "--root", "1", "--out", out])
    assert rc == 0
    est = estimate_from_csv(out)
    truth = make_feeder("bus8")
    assert set(est.edges) == set(truth.edge_set(include_root=False))
    assert est.root_edge == (0, 1)
    assert (tmp_path / "est.csv.mi.csv").exists()
    with open(out) as fh:
        header = fh.readline().strip()
    assert "mi_nats" in header


@pytest.mark.parametrize("source", ["complex", "magnitude"])
def test_estimate_files_do_not_depend_on_the_frame(tmp_path, source):
    prefix = _simulate(tmp_path, "--slack-sigma", "0.01")
    outs = {}
    for frame in ("phase", "sequence"):
        out = str(tmp_path / f"{frame}.csv")
        rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
                   "--frame", frame, "--source", source, "--out", out])
        assert rc == 0
        outs[frame] = out
    for suffix in ("", ".mi.csv"):
        with open(outs["phase"] + suffix, "rb") as ph, open(outs["sequence"] + suffix, "rb") as sq:
            assert ph.read() == sq.read()


def test_simulate_writes_the_harness_draw(tmp_path):
    _simulate(tmp_path, "--noise", "0.002", "--label-corruption", "0.3",
              "--slack-sigma", "0.01", samples=300, seed=4)
    cfg = ScenarioConfig(feeder="bus8", n_samples=300, noise_bound=0.002,
                         label_fraction=0.3, slack_sigma=0.01)
    volts = draw_panel(build_context(cfg), 4)
    panel_to_csv(volts, str(tmp_path / "want.measurements.csv"))
    labels_to_csv(volts, str(tmp_path / "want.labels.csv"))
    for suffix in (".measurements.csv", ".labels.csv"):
        got = (tmp_path / ("sim" + suffix)).read_bytes()
        assert got == (tmp_path / ("want" + suffix)).read_bytes()


def test_estimate_roots_at_the_head_from_a_substation_signal(tmp_path, capsys):
    prefix = _simulate(tmp_path, "--slack-sigma", "0.01")
    out = str(tmp_path / "est.csv")
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
               "--out", out])
    assert rc == 0
    assert "unrooted" not in capsys.readouterr().err
    est = estimate_from_csv(out)
    assert est.root_edge == (0, min(make_feeder("bus8").children_of(0)))
    assert set(est.edges) == set(make_feeder("bus8").edge_set(include_root=False))


def test_estimate_without_root_flags_unrooted(tmp_path, capsys):
    prefix = _simulate(tmp_path)
    out = str(tmp_path / "est.csv")
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
               "--out", out])
    assert rc == 1
    assert "unrooted" in capsys.readouterr().err
    est = estimate_from_csv(out)
    assert est.root_edge is None


def test_estimate_mesh_reports_chord(tmp_path, capsys):
    prefix = _simulate(tmp_path, feeder="bus15_mesh", samples=4000)
    out = str(tmp_path / "mesh.csv")
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
               "--mesh", "--root", "1", "--out", out])
    assert rc == 0
    assert "1 chord(s)" in capsys.readouterr().out
    est = estimate_from_csv(out)
    assert est.chords == ((5, 7),)


def _drop_bus_rows(prefix, bus):
    """Rewrite the simulated measurement file without any row of one bus."""
    path = prefix + ".measurements.csv"
    with open(path, newline="") as fh:
        lines = fh.readlines()
    kept = [ln for ln in lines if ln.split(",")[1] != str(bus)]
    assert len(kept) < len(lines)
    with open(path, "w", newline="") as fh:
        fh.writelines(kept)
    return path


@pytest.mark.parametrize("frame", ["phase", "sequence"])
def test_estimate_names_a_bus_without_rows(tmp_path, capsys, frame):
    meas = _drop_bus_rows(_simulate(tmp_path, samples=200), 4)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--measurements", meas, "--frame", frame,
               "--root", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no rows for bus 4;" in err
    assert not out.exists()


@pytest.mark.parametrize("frame", ["phase", "sequence"])
def test_estimate_runs_without_substation_rows(tmp_path, capsys, frame):
    meas = _drop_bus_rows(_simulate(tmp_path), 0)
    out = str(tmp_path / "est.csv")
    rc = main(["estimate", "--measurements", meas, "--frame", frame,
               "--root", "1", "--out", out])
    assert rc == 0
    est = estimate_from_csv(out)
    assert set(est.edges) == set(make_feeder("bus8").edge_set(include_root=False))
    assert est.root_edge == (0, 1)
    # with no substation channels there is nothing to root from
    rc = main(["estimate", "--measurements", meas, "--frame", frame, "--out", out])
    assert rc == 1
    assert "unrooted" in capsys.readouterr().err


def test_estimate_refuses_a_file_of_substation_rows_only(tmp_path, capsys):
    meas = _simulate(tmp_path, "--slack-sigma", "0.01", samples=50) + ".measurements.csv"
    with open(meas, newline="") as fh:
        lines = fh.readlines()
    with open(meas, "w", newline="") as fh:
        fh.writelines(lines[:1] + [ln for ln in lines[1:] if ln.split(",")[1] == "0"])
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--measurements", meas, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no rows for any bus other than the substation (bus 0)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, target", [
    ("estimate", "measurements"),
    ("identify-phases", "measurements"),
    ("identify-phases", "estimate"),
])
def test_an_undecodable_byte_names_its_line(tmp_path, capsys, command, target):
    prefix = _simulate(tmp_path, samples=50)
    meas, est = prefix + ".measurements.csv", str(tmp_path / "est.csv")
    assert main(["estimate", "--measurements", meas, "--root", "1", "--out", est]) == 0
    capsys.readouterr()
    path, line = (meas, 7) if target == "measurements" else (est, 3)
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    fields = lines[line - 1].split(b",")
    fields[2] = b"\xff"  # the phase field of either file
    lines[line - 1] = b",".join(fields)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    argv = {"estimate": ["estimate", "--measurements", meas, "--root", "1",
                         "--out", str(tmp_path / "again.csv")],
            "identify-phases": ["identify-phases", "--measurements", meas,
                                "--topology", est, "--out", str(tmp_path / "p.csv")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {line}: byte 0xff is not UTF-8" in err


def test_importing_the_cli_loads_no_scipy():
    # scipy.stats alone takes about a second to import; the CLI's commands
    # load scipy.special only on a Gaussian-noise draw or a substation test
    src = str(Path(gridtopo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, gridtopo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_estimate_malformed_csv_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,bus_id,phase,magnitude_pu,angle_deg\n0,0,a,not_a_number,0\n")
    rc = main(["estimate", "--measurements", str(bad),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err


def test_estimate_missing_file_exits_two(tmp_path, capsys):
    rc = main(["estimate", "--measurements", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_estimate_negative_ridge_exits_two(tmp_path, capsys):
    prefix = _simulate(tmp_path, samples=100)
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
               "--ridge", "-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "ridge" in capsys.readouterr().err


def test_estimate_mesh_nan_gain_tol_exits_two_writing_no_chord(tmp_path, capsys):
    prefix = _simulate(tmp_path, samples=100)
    out = tmp_path / "x.csv"
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv", "--mesh",
               "--gain-tol", "nan", "--root", "1", "--out", str(out)])
    assert rc == 2
    assert "error: gain_tol must be a finite number, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_magnitude_only_estimate_auto_source(tmp_path):
    prefix = _simulate(tmp_path, "--magnitude-only", samples=1500)
    out = str(tmp_path / "est.csv")
    rc = main(["estimate", "--measurements", prefix + ".measurements.csv",
               "--source", "auto", "--root", "1", "--out", out])
    assert rc == 0
    est = estimate_from_csv(out)
    assert set(est.edges) == set(make_feeder("bus8").edge_set(include_root=False))


def test_identify_phases_clean_identity(tmp_path, capsys):
    prefix = _simulate(tmp_path, samples=1500)
    est = str(tmp_path / "est.csv")
    main(["estimate", "--measurements", prefix + ".measurements.csv",
          "--root", "1", "--out", est])
    out = str(tmp_path / "phases.csv")
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", est, "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0 claimed labels diagnosed wrong" in text
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        assert r["assigned_phase"] in ("a", "b", "c")


def test_identify_phases_diagnoses_corruption(tmp_path, capsys):
    prefix = _simulate(tmp_path, "--label-corruption", "0.3", samples=1500)
    est = str(tmp_path / "est.csv")
    main(["estimate", "--measurements", prefix + ".measurements.csv",
          "--root", "1", "--out", est])
    capsys.readouterr()
    out = str(tmp_path / "phases.csv")
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", est, "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mislabeled buses:" in text


def test_identify_phases_unrooted_tree_needs_root(tmp_path, capsys):
    prefix = _simulate(tmp_path, samples=1200)
    est = str(tmp_path / "est.csv")
    main(["estimate", "--measurements", prefix + ".measurements.csv", "--out", est])
    capsys.readouterr()
    out = str(tmp_path / "phases.csv")
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", est, "--out", out])
    assert rc == 1
    assert "--root" in capsys.readouterr().err
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", est, "--root", "1", "--out", out])
    assert rc == 0


@pytest.mark.parametrize("rows, message", [
    ("0,1\n1,2\n1,3\n2,4\n2,5\n3,6\n3,7\n7,17\n", "bus 17 is not in the measurements"),
    ("0,1\n1,2\n1,3\n2,4\n2,5\n3,6\n", "bus 7 is missing from the tree"),
    ("0,1\n1,2\n1,3\n2,4\n2,5\n6,7\n",
     "other_topology.csv: expected 6 tree edges over 7 buses, got 5"),
])
def test_identify_phases_rejects_a_tree_over_other_buses(tmp_path, capsys, rows, message):
    prefix = _simulate(tmp_path, samples=200)
    topo = tmp_path / "other_topology.csv"
    topo.write_text("parent_id,child_id\n" + rows)
    out = tmp_path / "phases.csv"
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", str(topo), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_identify_phases_reads_a_topology_file_with_a_padded_header(tmp_path, capsys):
    prefix = _simulate(tmp_path, samples=600)
    topo = tmp_path / "sim.topology.csv"
    padded = tmp_path / "padded.topology.csv"
    header, rest = topo.read_text().split("\n", 1)
    padded.write_text(header.replace(",", ", ") + "\n" + rest)
    outs = []
    for path in (topo, padded):
        out = tmp_path / f"phases.{path.name}"
        rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
                   "--topology", str(path), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert main(["simulate", "--topology", str(padded), "--samples", "50",
                 "--out", str(tmp_path / "again")]) == 0


def test_identify_phases_missing_topology_exits_two(tmp_path):
    prefix = _simulate(tmp_path, samples=200)
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2


def test_evaluate_writes_report(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(["evaluate", "--feeder", "bus8", "--samples", "300",
               "--replicates", "3", "--seed", "1", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ER mean 0.000%" in text
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["replicates"] == 3
    assert "wall_time_s" not in data
    assert data["error_rate_mean"] == 0.0


def test_evaluate_exits_one_when_a_replicate_fails(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--feeder", "bus8", "--samples", "5", "--replicates", "2",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("warning: 2 of 2 replicates failed at feeder bus8: InfoCoreError: ")
    assert len(json.loads(out.read_text())["failures"]) == 2


def test_sweep_exits_one_when_a_replicate_fails(tmp_path, capsys):
    rc = main(["sweep", "--feeder", "bus8", "--samples", "300", "--replicates", "2",
               "--axis", "data_length", "--values", "5,300", "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: 2 of 2 replicates failed at data_length=5.0: "
                             "InfoCoreError: ")
    points = json.loads((tmp_path / "run.data_length.json").read_text())
    assert [len(p["failures"]) for p in points] == [2, 0]
    assert (tmp_path / "run.data_length.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--replicates", "0"],
    ["--threads", "0"],
])
def test_evaluate_bad_run_size_exits_two(tmp_path, capsys, flags):
    rc = main(["evaluate", "--feeder", "bus8", "--samples", "200", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, field", [
    ("simulate", "--noise", "-0.1", "noise_bound"),
    ("simulate", "--label-corruption", "-0.5", "label_fraction"),
    ("simulate", "--samples", "1", "n_samples"),
    ("evaluate", "--noise", "-0.1", "noise_bound"),
    ("evaluate", "--resolution-stride", "0", "resolution_stride"),
    ("evaluate", "--der-fraction", "5", "der_fraction"),
    ("sweep", "--label-corruption", "-0.5", "label_fraction"),
    ("evaluate", "--gain-tol", "nan", "gain_tol"),
    ("sweep", "--gain-tol", "nan", "gain_tol"),
    ("simulate", "--base-sigma", "-0.004", "base_sigma"),
    ("simulate", "--base-sigma", "0", "base_sigma"),
    ("simulate", "--base-sigma", "nan", "base_sigma"),
    ("simulate", "--slack-sigma", "-0.01", "slack_sigma"),
    ("simulate", "--slack-sigma", "nan", "slack_sigma"),
    ("evaluate", "--der-scale", "inf", "der_scale"),
    ("evaluate", "--ridge", "-1", "ridge"),
    ("evaluate", "--root", "99", "declared_root"),
    ("sweep", "--root", "0", "declared_root"),
    ("simulate", "--injection-seed", "-1", "injection_seed"),
    ("evaluate", "--injection-seed", "-1", "injection_seed"),
    ("simulate", "--seed", "-1", "seed must be a non-negative integer, got -1"),
    ("evaluate", "--seed", "-1", "base_seed"),
    ("sweep", "--seed", "-3", "base_seed"),
])
def test_bad_generation_input_exits_two_naming_the_field(tmp_path, capsys, command,
                                                         flag, value, field):
    argv = [command, "--feeder", "bus8", "--samples", "200", flag, value,
            "--out", str(tmp_path / "run")]
    if command == "sweep":
        argv += ["--axis", "noise", "--values", "0"]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not list(tmp_path.iterdir())


def test_sweep_rejects_a_bad_axis_value(tmp_path, capsys):
    rc = main(["sweep", "--feeder", "bus8", "--samples", "200", "--replicates", "1",
               "--axis", "resolution", "--values", "0", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "resolution_stride" in capsys.readouterr().err


@pytest.mark.parametrize("axis, value", [
    ("data_length", "inf"),
    ("data_length", "150.7"),
    ("resolution", "0.5"),
])
def test_sweep_rejects_a_fractional_integer_axis_value(tmp_path, capsys, axis, value):
    rc = main(["sweep", "--feeder", "bus8", "--samples", "200", "--replicates", "1",
               "--axis", axis, "--values", f"200,{value}", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and axis in err and value in err
    assert not list(tmp_path.iterdir())


def test_sweep_writes_axis_files(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["sweep", "--feeder", "bus8", "--samples", "300",
               "--replicates", "2", "--axis", "noise",
               "--values", "0,0.001", "--out", out])
    assert rc == 0
    csv_path = tmp_path / "run.noise.csv"
    json_path = tmp_path / "run.noise.json"
    assert csv_path.exists() and json_path.exists()
    points = json.loads(json_path.read_text())
    assert [p["value"] for p in points] == [0.0, 0.001]
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and rows[0]["axis"] == "noise"


def test_sweep_rejects_garbled_values(tmp_path, capsys):
    rc = main(["sweep", "--feeder", "bus8", "--samples", "200",
               "--replicates", "1", "--axis", "noise",
               "--values", "a,b", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line", [
    ("1,2,0.5\nx,2,abc\n", 3),
    ("1,2,abc\n", 2),
    ("1,2,0.5\n\n2,,0.1\n", 4),
    pytest.param("1,2," + "9" * (csv.field_size_limit() + 1) + "\n", 2, id="oversized-field"),
    pytest.param("0,1,0.5\n0,2,0.5\n", 3, id="second-root-row"),
    pytest.param("1,2,0.5\n2,1,0.5\n", 3, id="repeated-pair"),
    pytest.param("1,2,0.5\n1,-3,0.5\n", 3, id="negative-bus-id"),
    pytest.param("1,2,0.5\n3,3,0.5\n", 3, id="self-loop"),
    pytest.param("1,2,0.5\n2,3\n", 3, id="short-row"),
])
def test_identify_phases_bad_topology_row_names_line(tmp_path, capsys, rows, line):
    prefix = _simulate(tmp_path, samples=50)
    topo = tmp_path / "bad_topology.csv"
    topo.write_text("parent_id,child_id,mi_nats\n" + rows)
    rc = main(["identify-phases", "--measurements", prefix + ".measurements.csv",
               "--topology", str(topo), "--root", "1", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {line}:" in err


def test_simulate_oversized_topology_field_names_line(tmp_path, capsys):
    _simulate(tmp_path, samples=50)
    header, first, *_ = (tmp_path / "sim.topology.csv").read_text().splitlines()
    topo = tmp_path / "big.topology.csv"
    topo.write_text(f"{header}\n{first},{'9' * (csv.field_size_limit() + 1)}\n")
    rc = main(["simulate", "--topology", str(topo), "--samples", "50",
               "--out", str(tmp_path / "again")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2:" in err


def _drop_branch_1_2(lines):
    del lines[2]  # bus 2 keeps its own children


def _drop_substation_branch(lines):
    del lines[1]


def _chord_as_tree_branch(lines):
    lines[-1] = lines[-1][:-1] + "0"


def _repeat_branch_1_2(lines):
    lines.append(lines[2])


def _negative_child(lines):
    lines[1] = lines[1].replace("0,1,", "0,-1,", 1)


def _self_loop_at_4(lines):
    lines[4] = lines[4].replace("2,4,", "4,4,", 1)


@pytest.mark.parametrize("feeder, edit, message", [
    ("bus8", _drop_branch_1_2, "need 7 tree branches for 8 buses, got 6"),
    ("bus8", _drop_substation_branch, "no branch leaves the substation (bus 0)"),
    ("bus15_mesh", _chord_as_tree_branch, "bus 7 has two tree parents"),
    ("bus8", _repeat_branch_1_2, "error: line 9: duplicate branch (1, 2)\n"),
    ("bus8", _negative_child, "error: line 2: bus ids must be non-negative, got -1\n"),
    ("bus8", _self_loop_at_4, "error: line 5: self-loop at bus 4\n"),
])
def test_simulate_bad_topology_graph_exits_two(tmp_path, capsys, feeder, edit, message):
    _simulate(tmp_path, feeder=feeder, samples=50)
    lines = (tmp_path / "sim.topology.csv").read_text().splitlines()
    edit(lines)
    topo = tmp_path / "bad.topology.csv"
    topo.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--topology", str(topo), "--samples", "50",
               "--out", str(tmp_path / "again")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_estimate_mixed_angles_names_line(tmp_path, capsys):
    prefix = _simulate(tmp_path, samples=50)
    path = prefix + ".measurements.csv"
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    lines[7] = lines[7].rsplit(",", 1)[0] + ","
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    rc = main(["estimate", "--measurements", path, "--root", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "line 8: mixed empty and present angle fields" in capsys.readouterr().err
