import io

import numpy as np
import pytest

from conftest import channel_coords
from gridtopo.feeders import make_feeder, random_feeder, FEEDER_NAMES
from gridtopo.grid_model import (
    Branch,
    Bus,
    GridModelError,
    GridTopology,
    InvalidLineError,
    LineModel,
    PhaseMask,
    SingularLineError,
    TOPOLOGY_COLUMNS,
    TopologyFormatError,
    assemble_admittance,
    branch_admittance,
    carson_impedance,
    topology_from_csv,
    topology_to_csv,
)
from gridtopo.synth_lab import MeasurementFormatError, labels_from_csv, panel_from_csv
from gridtopo.topo_est import TopologyEstimateError, estimate_from_csv


# -- phase masks ---------------------------------------------------------


def test_mask_round_trip():
    for text in ("a", "b", "c", "ab", "bc", "ac", "abc"):
        assert PhaseMask.from_string(text).to_string() == text


def test_mask_indices_and_count():
    m = PhaseMask.from_string("ac")
    assert m.indices == (0, 2)
    assert m.count == 2
    assert "a" in m and "b" not in m
    assert m.issubset(PhaseMask.from_string("abc"))
    assert not PhaseMask.from_string("abc").issubset(m)


def test_mask_rejects_garbage():
    with pytest.raises(GridModelError):
        PhaseMask.from_string("ad")
    with pytest.raises(GridModelError):
        PhaseMask.from_string("")


# -- line impedances -----------------------------------------------------


def test_carson_single_phase_value():
    line = LineModel(r_per_mile=0.3, h_self=(8.0, 8.0, 8.0))
    z = carson_impedance(line, 1.0, PhaseMask.from_string("a"))
    assert z[0, 0] == pytest.approx(0.395 + 0.968j, abs=1e-12)
    # absent phases exactly zero
    assert np.all(z[1:, :] == 0) and np.all(z[:, 1:] == 0)


def test_carson_mutual_value():
    line = LineModel(r_per_mile=0.3, h_mut=(5.0, 5.0, 5.0))
    z = carson_impedance(line, 2.0, PhaseMask.from_string("abc"))
    assert z[0, 1] == pytest.approx(0.19 + 1.21j, abs=1e-12)
    assert z[1, 0] == z[0, 1]


def test_carson_identical_h_symmetric_equal_diagonal():
    line = LineModel(r_per_mile=1.5, h_self=(8.0, 8.0, 8.0), h_mut=(5.0, 5.0, 5.0))
    z = carson_impedance(line, 0.7, PhaseMask.from_string("abc"))
    assert np.allclose(z, z.T)
    d = np.diag(z)
    assert d[0] == d[1] == d[2]


def test_carson_rejects_bad_inputs():
    with pytest.raises(InvalidLineError):
        LineModel(r_per_mile=0.0)
    with pytest.raises(InvalidLineError):
        LineModel(r_per_mile=-1.0)
    line = LineModel(r_per_mile=0.5)
    with pytest.raises(InvalidLineError):
        carson_impedance(line, 0.0, PhaseMask.from_string("a"))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: LineModel(r_per_mile=float("inf")), "r_per_mile", id="r-inf"),
    pytest.param(lambda: LineModel(r_per_mile=1.0, h_self=(8.0, float("nan"), 8.0)),
                 "h_self and h_mut must be finite", id="h-self-nan"),
    pytest.param(lambda: LineModel(r_per_mile=1.0, h_mut=(5.0, 5.0, -float("inf"))),
                 "h_self and h_mut must be finite", id="h-mut-inf"),
    pytest.param(lambda: Branch(parent=0, child=1, mask=PhaseMask.from_string("a"),
                                line=LineModel(r_per_mile=1.0), length_miles=float("inf")),
                 "length_miles", id="length-inf"),
    pytest.param(lambda: Branch(parent=0, child=1, mask=PhaseMask.from_string("a"),
                                line=LineModel(r_per_mile=1.0), length_miles=float("nan")),
                 "length_miles", id="length-nan"),
])
def test_line_and_branch_refuse_non_finite_values(build, message):
    with pytest.raises(InvalidLineError, match=message):
        build()


def test_branch_admittance_inverts_present_block():
    line = LineModel(r_per_mile=1.5)
    mask = PhaseMask.from_string("ab")
    z = carson_impedance(line, 1.0, mask)
    y = branch_admittance(z, mask)
    idx = np.ix_(mask.indices, mask.indices)
    assert np.allclose(y[idx] @ z[idx], np.eye(2), atol=1e-12)
    assert np.all(y[2, :] == 0) and np.all(y[:, 2] == 0)


def test_branch_admittance_singular_raises():
    z = np.zeros((3, 3), dtype=complex)
    z[0, 0] = 1.0
    z[1, 1] = 1.0
    z[0, 1] = z[1, 0] = 1.0  # rank-1 present block
    with pytest.raises(SingularLineError):
        branch_admittance(z, PhaseMask.from_string("ab"))
    # one singular impedance anywhere in a stack fails the stack
    line = LineModel(r_per_mile=1.5)
    good = carson_impedance(line, 1.0, PhaseMask.from_string("ab"))
    with pytest.raises(SingularLineError, match="phases ab is singular"):
        branch_admittance(np.stack([good, z, good]), PhaseMask.from_string("ab"))


def _branch_admittance_reference(z, mask):
    """branch_admittance as written for one branch: its own cond and inv."""
    idx = np.asarray(mask.indices)
    sub = np.asarray(z, dtype=complex)[np.ix_(idx, idx)]
    cond = np.linalg.cond(sub)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularLineError("singular")
    y = np.zeros((3, 3), dtype=complex)
    y[np.ix_(idx, idx)] = np.linalg.inv(sub)
    return y


def test_stacked_admittances_equal_the_per_branch_inversion_bit_for_bit(small_random_feeders):
    feeders = [make_feeder(name) for name in FEEDER_NAMES]
    for topo in feeders + [t for t, _, _ in small_random_feeders]:
        for br in topo.branches:
            want = _branch_admittance_reference(br.impedance() / topo.z_base_ohm, br.mask)
            assert br.y_block.shape == (3, 3) and br.y_block.tobytes() == want.tobytes()


# -- topology graph ------------------------------------------------------


def test_tree_property_every_branch_disconnects(bus8):
    edges = bus8.edge_set(include_root=True, include_chords=False)
    nodes = {b.id for b in bus8.buses}
    for drop in edges:
        adj = {n: set() for n in nodes}
        for (u, v) in edges:
            if (u, v) == drop:
                continue
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert seen != nodes, f"dropping {drop} left the graph connected"


def test_parent_child_helpers(bus8):
    for b in bus8.non_slack_ids:
        p = bus8.parent_of(b)
        assert b in bus8.children_of(p)


def test_branch_mask_subset_of_endpoints(bus8):
    for br in bus8.branches:
        assert br.mask.issubset(bus8.bus(br.parent).mask)
        assert br.mask.issubset(bus8.bus(br.child).mask)


def _branches(*edges):
    line = LineModel(r_per_mile=1.0)
    return [Branch(parent=p, child=c, mask=PhaseMask.from_string(phases), line=line,
                   length_miles=1.0) for p, c, phases in edges]


def test_buses_follow_from_the_branches():
    mesh = make_feeder("bus15_mesh")
    assert mesh.buses == tuple(mesh.bus(b) for b in range(15))
    assert mesh.non_slack_ids == list(range(1, 15))
    assert mesh.bus(0) == Bus(id=0, mask=PhaseMask.from_string("abc"), is_slack=True)
    for br in mesh.branches:
        if not br.is_chord:
            assert mesh.bus(br.child).mask is br.mask and not mesh.bus(br.child).is_slack


@pytest.mark.parametrize("edges, message", [
    pytest.param([(0, 1, "abc"), (1, 3, "a")], r"bus ids must be consecutive, missing \[2\]",
                 id="gap-in-bus-ids"),
    pytest.param([(0, 1, "abc"), (1, 2, "a"), (2, 1, "a")], r"duplicate branch \(1, 2\)",
                 id="duplicate-branch"),
    pytest.param([(0, 1, "abc"), (1, -1, "a")], r"bus ids must be non-negative, got -1",
                 id="negative-bus-id"),
])
def test_branch_list_errors(edges, message):
    with pytest.raises(GridModelError, match=message):
        GridTopology(_branches(*edges))


# -- admittance assembly -------------------------------------------------


def _scatter_admittance(topology):
    """assemble_admittance as a per-(bus, slot) scatter of each branch block, in branch order."""
    index = {c: i for i, c in enumerate(channel_coords(topology.masks_array()))}
    Y = np.zeros((len(index), len(index)), dtype=complex)

    def scatter(bus_i, bus_k, block, sign):
        for si in topology.bus(bus_i).mask.indices:
            row = index.get((bus_i, si))
            if row is None:
                continue
            for sk in topology.bus(bus_k).mask.indices:
                col = index.get((bus_k, sk))
                if col is None:
                    continue
                Y[row, col] += sign * block[si, sk]

    for br in topology.branches:
        blk = br.y_block
        u, v = br.parent, br.child
        if u != 0:
            scatter(u, u, blk, -1.0)
            if v != 0:
                scatter(u, v, blk, +1.0)
        if v != 0:
            scatter(v, v, blk, -1.0)
            if u != 0:
                scatter(v, u, blk, +1.0)
    return Y


def test_admittance_equals_the_scatter_loop_bit_for_bit(small_random_feeders):
    feeders = [make_feeder(name) for name in FEEDER_NAMES]
    assert any(topo.chords for topo in feeders)
    for topo in feeders + [t for t, _, _ in small_random_feeders]:
        got, want = assemble_admittance(topo), _scatter_admittance(topo)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_admittance_block_pattern(bus8):
    Y = assemble_admittance(bus8)
    coords = channel_coords(bus8.masks_array())
    tree_pairs = {tuple(sorted(e)) for e in bus8.edge_set(include_root=False)}
    buses = sorted(bus8.non_slack_ids)
    rows = {b: [j for j, (c, _) in enumerate(coords) if c == b] for b in buses}
    for i in buses:
        for k in buses:
            if i >= k:
                continue
            block = Y[np.ix_(rows[i], rows[k])]
            if (i, k) in tree_pairs:
                assert np.abs(block).max() > 0
            else:
                assert np.abs(block).max() == 0


def test_admittance_offdiagonal_is_branch_block(bus8):
    Y = assemble_admittance(bus8)
    coords = channel_coords(bus8.masks_array())
    br = next(b for b in bus8.branches if b.parent != 0)
    rows = [j for j, (b, _) in enumerate(coords) if b == br.parent]
    cols = [j for j, (b, _) in enumerate(coords) if b == br.child]
    got = Y[np.ix_(rows, cols)]
    pslots = bus8.bus(br.parent).mask.indices
    cslots = bus8.bus(br.child).mask.indices
    want = br.y_block[np.ix_(pslots, cslots)]
    assert np.allclose(got, want, atol=1e-12)


def test_admittance_diagonal_sums_neighbours(bus8):
    Y = assemble_admittance(bus8)
    bus = next(b for b in bus8.non_slack_ids if bus8.children_of(b))
    slots = bus8.bus(bus).mask.indices
    total = np.zeros((3, 3), dtype=complex)
    for br in bus8.branches:
        if bus in (br.parent, br.child):
            total -= br.y_block
    want = total[np.ix_(slots, slots)]
    rows = [j for j, (b, _) in enumerate(channel_coords(bus8.masks_array())) if b == bus]
    got = Y[np.ix_(rows, rows)]
    assert np.allclose(got, want, atol=1e-12)


def test_admittance_nonsingular_random_tree():
    topo = random_feeder(10, seed=42)
    sign, ld = np.linalg.slogdet(assemble_admittance(topo))
    assert abs(sign) > 0 and np.isfinite(ld)


def test_two_bus_chain_tridiagonal_analog():
    line = LineModel(r_per_mile=1.0)
    mask = PhaseMask.from_string("a")
    branches = [
        Branch(parent=0, child=1, mask=mask, line=line, length_miles=1.0),
        Branch(parent=1, child=2, mask=mask, line=line, length_miles=1.0),
    ]
    topo = GridTopology(branches, z_base_ohm=10.0)
    Y = assemble_admittance(topo)
    assert Y.shape == (2, 2)
    assert Y[0, 1] != 0 and Y[1, 0] != 0


# -- CSV interchange -----------------------------------------------------


def test_topology_csv_round_trip(bus8):
    buf = io.StringIO()
    topology_to_csv(bus8, buf)
    buf.seek(0)
    back = topology_from_csv(buf, z_base_ohm=bus8.z_base_ohm, name=bus8.name)
    assert back.edge_set() == bus8.edge_set()
    for a, b in zip(bus8.branches, back.branches):
        assert np.allclose(a.impedance(), b.impedance(), atol=1e-12)


def test_topology_csv_chord_column_only_for_meshes():
    mesh = make_feeder("bus15_mesh")
    tree = make_feeder("bus8")
    mesh_buf, tree_buf = io.StringIO(), io.StringIO()
    topology_to_csv(mesh, mesh_buf)
    topology_to_csv(tree, tree_buf)
    assert "chord" in mesh_buf.getvalue().splitlines()[0]
    assert "chord" not in tree_buf.getvalue().splitlines()[0]
    mesh_buf.seek(0)
    back = topology_from_csv(mesh_buf)
    assert {tuple(sorted((c.parent, c.child))) for c in back.chords} == \
           {tuple(sorted((c.parent, c.child))) for c in mesh.chords}


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("column", TOPOLOGY_COLUMNS[3:])
def test_topology_csv_refuses_a_non_finite_number_naming_its_line(bus8, column, token):
    buf = io.StringIO()
    topology_to_csv(bus8, buf)
    lines = buf.getvalue().splitlines()
    fields = lines[2].split(",")
    assert fields[2] == "abc"
    fields[TOPOLOGY_COLUMNS.index(column)] = token
    lines[2] = ",".join(fields)
    with pytest.raises(TopologyFormatError,
                       match=f"line 3: column '{column}': '{token}' is not a finite number"):
        topology_from_csv(io.StringIO("\n".join(lines) + "\n"))


def test_topology_csv_bad_number_reports_line():
    text = ",".join(
        ["parent_id", "child_id", "phases", "length_miles", "r_per_mile",
         "h_self_a", "h_self_b", "h_self_c", "h_mut_ab", "h_mut_bc", "h_mut_ac"]
    ) + "\n0,1,abc,oops,1.0,8,8,8,5,5,5\n"
    with pytest.raises(TopologyFormatError):
        topology_from_csv(io.StringIO(text))


def _mesh_csv_lines():
    buf = io.StringIO()
    topology_to_csv(make_feeder("bus15_mesh"), buf)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("flag", ["yes", "true", "True", "2"])
def test_topology_csv_refuses_an_unknown_chord_flag(flag):
    lines = _mesh_csv_lines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + flag
    with pytest.raises(TopologyFormatError, match=f"line {len(lines)}: bad chord flag '{flag}'"):
        topology_from_csv(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("phases", ["aa", "abca"])
def test_topology_csv_refuses_a_repeated_phase_letter(bus8, phases):
    buf = io.StringIO()
    topology_to_csv(bus8, buf)
    lines = buf.getvalue().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("2,4,"))
    parent, child, _, rest = lines[row].split(",", 3)
    lines[row] = ",".join([parent, child, phases, rest])
    with pytest.raises(TopologyFormatError, match=f"line {row + 1}: bad phases field '{phases}'"):
        topology_from_csv(io.StringIO("\n".join(lines) + "\n"))


def test_topology_csv_reads_an_empty_chord_flag_as_a_tree_branch():
    lines = _mesh_csv_lines()
    assert lines[1].endswith(",0")
    lines[1] = lines[1][:-1]
    back = topology_from_csv(io.StringIO("\n".join(lines) + "\n"))
    assert back.edge_set() == make_feeder("bus15_mesh").edge_set()
    assert len(back.chords) == 1


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda lines: lines[:2] + lines[3:],
                 "need 7 tree branches for 8 buses, got 6", id="missing-branch"),
    pytest.param(lambda lines: lines[:2] + [lines[2].replace("1,2,", "1,1,", 1)] + lines[3:],
                 "self-loop at bus 1", id="self-loop"),
])
def test_topology_csv_graph_errors_are_format_errors(bus8, edit, message):
    buf = io.StringIO()
    topology_to_csv(bus8, buf)
    lines = edit(buf.getvalue().splitlines())
    with pytest.raises(TopologyFormatError, match=message):
        topology_from_csv(io.StringIO("\n".join(lines) + "\n"))


# Each file has a quoted field spanning lines 2 and 3, then a bad row on line 4.
@pytest.mark.parametrize("read, error, text, message", [
    pytest.param(topology_from_csv, TopologyFormatError,
                 ",".join(TOPOLOGY_COLUMNS) + '\n0,1,abc,"0.5\n",1.0,8,8,8,5,5,5\n'
                 "x,2,abc,0.5,1.0,8,8,8,5,5,5\n", "bus ids must be integers", id="topology"),
    pytest.param(labels_from_csv, MeasurementFormatError,
                 'bus_id,true_phase_order\n1,"abc\n"\nx,abc\n',
                 "bus_id must be an integer", id="labels"),
    pytest.param(panel_from_csv, MeasurementFormatError,
                 't,bus_id,phase,magnitude_pu,angle_deg\n0,1,a,"1.0\n",0.0\nx,1,a,1.0,0.0\n',
                 "t and bus_id must be integers", id="measurements"),
    pytest.param(estimate_from_csv, TopologyEstimateError,
                 'parent_id,child_id,mi_nats\n1,2,"0.5\n"\nx,3,0.1\n',
                 "bus ids must be integers", id="estimate"),
])
def test_csv_errors_name_the_physical_line_after_a_multiline_field(
        tmp_path, read, error, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(error, match=f"line 4: {message}"):
        read(path)


@pytest.mark.parametrize("read, error, text", [
    pytest.param(topology_from_csv, TopologyFormatError,
                 ",".join(TOPOLOGY_COLUMNS) + "\n0,1,abc,0.5,1.0,8,8,8,5,5,5\n"
                 "1,2,\xff,0.5,1.0,8,8,8,5,5,5\n", id="topology"),
    pytest.param(labels_from_csv, MeasurementFormatError,
                 "bus_id,true_phase_order\n0,abc\n1,\xff\n", id="labels"),
    pytest.param(panel_from_csv, MeasurementFormatError,
                 "t,bus_id,phase,magnitude_pu,angle_deg\n0,1,a,1.0,0.0\n0,1,\xff,1.0,0.0\n",
                 id="measurements"),
    pytest.param(estimate_from_csv, TopologyEstimateError,
                 "parent_id,child_id,mi_nats\n1,2,0.5\n\xff,3,0.1\n", id="estimate"),
])
def test_csv_readers_name_the_line_of_an_undecodable_byte(tmp_path, read, error, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(error, match="line 3: byte 0xff is not UTF-8"):
        read(path)


# One branch table that both readers accept up to its fourth line.
_BRANCH_TABLE = ",".join(TOPOLOGY_COLUMNS) + ",chord\n0,1,abc,0.5,1.0,8,8,8,5,5,5,0\n" \
    "1,2,abc,0.5,1.0,8,8,8,5,5,5,0\n"


@pytest.mark.parametrize("row, message", [
    pytest.param("x,3,abc,0.5,1.0,8,8,8,5,5,5,0", "bus ids must be integers", id="non-integer"),
    pytest.param("2,-3,abc,0.5,1.0,8,8,8,5,5,5,0", "bus ids must be non-negative, got -3",
                 id="negative"),
    pytest.param("3,3,abc,0.5,1.0,8,8,8,5,5,5,0", "self-loop at bus 3", id="self-loop"),
    pytest.param("2,1,abc,0.5,1.0,8,8,8,5,5,5,0", "duplicate branch (1, 2)", id="repeated-pair"),
    pytest.param("2,3,abc,0.5,1.0,8,8,8,5,5,5,yes", "bad chord flag 'yes'", id="chord-flag"),
    pytest.param("2,3,abc", "expected 12 fields, got 3", id="short-row"),
])
def test_topology_and_estimate_readers_refuse_a_bad_branch_row_alike(tmp_path, row, message):
    path = tmp_path / "branches.csv"
    path.write_text(_BRANCH_TABLE + row + "\n")
    for read, error in ((topology_from_csv, TopologyFormatError),
                        (estimate_from_csv, TopologyEstimateError)):
        with pytest.raises(error) as info:
            read(path)
        assert str(info.value).endswith(f"line 4: {message}")


def test_catalogue_names():
    for name in FEEDER_NAMES:
        topo = make_feeder(name)
        assert topo.n_buses >= 5
    with pytest.raises(GridModelError):
        make_feeder("bus9000")
