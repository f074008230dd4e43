"""Multi-phase distribution feeder model.

Represents a feeder by its branches, each carrying one to three phases
through a series impedance that follows the modified Carson equations.
A bus carries the phases of the branch that feeds it, and the
substation the union of its branches' phases. Provides the per-phase
admittance blocks and the assembled nodal admittance matrix over all
non-slack (bus, phase) channels, in a panel's column order, which is
what the linearized voltage-increment model and the synthetic data
generator consume.

Conventions
-----------
* Bus ids are 0 and every branch end, consecutive; the substation
  (slack) is bus 0.
* Phases are labelled 'a', 'b', 'c' and map to slots 0, 1, 2.
* Impedances are built in ohms on a per-mile basis and converted to
  per-unit with the topology's impedance base at assembly time.
* Absent phases are structural: their rows and columns are exactly zero
  in every 3x3 block, never small numbers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

PHASES = ("a", "b", "c")
_PHASE_INDEX = {"a": 0, "b": 1, "c": 2}
# Carson constant resistive and reactive terms, ohm per mile.
CARSON_R = 0.095
CARSON_X = 0.121
# Geometry factors default to a resistance-dominant overhead line.
DEFAULT_H_SELF = 8.0
DEFAULT_H_MUT = 5.0
# Mutual pair ordering used by LineModel and the CSV schema.
MUTUAL_PAIRS = ((0, 1), (1, 2), (0, 2))


class GridModelError(Exception):
    """Base error for feeder model construction problems."""


class InvalidLineError(GridModelError):
    """Line parameters outside their physical domain."""


class SingularLineError(GridModelError):
    """Phase impedance submatrix is numerically singular."""


class TopologyFormatError(GridModelError):
    """Malformed topology CSV. Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PhaseMask:
    """Subset of {a, b, c} present at a bus or carried by a branch."""

    present: frozenset

    def __post_init__(self):
        if not isinstance(self.present, frozenset):
            object.__setattr__(self, "present", frozenset(self.present))
        bad = self.present - set(PHASES)
        if bad:
            raise GridModelError(f"unknown phase labels {sorted(bad)}")
        if not self.present:
            raise GridModelError("phase mask must contain at least one phase")

    @classmethod
    def from_string(cls, text):
        return cls(frozenset(text.strip().lower()))

    def to_string(self):
        return "".join(p for p in PHASES if p in self.present)

    @property
    def indices(self):
        """Slot indices of the present phases, ascending."""
        return tuple(i for i, p in enumerate(PHASES) if p in self.present)

    @property
    def count(self):
        return len(self.present)

    def __contains__(self, phase):
        return phase in self.present

    def issubset(self, other):
        return self.present <= other.present

    def __iter__(self):
        return (p for p in PHASES if p in self.present)


@dataclass(frozen=True)
class Bus:
    id: int
    mask: PhaseMask
    is_slack: bool = False


@dataclass(frozen=True)
class LineModel:
    """Per-mile series parameters of one line section.

    r_per_mile applies to every present phase conductor; h_self and
    h_mut are the Carson geometry factors per phase and per unordered
    phase pair (ab, bc, ac ordering).
    """

    r_per_mile: float
    h_self: tuple = (DEFAULT_H_SELF,) * 3
    h_mut: tuple = (DEFAULT_H_MUT,) * 3

    def __post_init__(self):
        if not (math.isfinite(self.r_per_mile) and self.r_per_mile > 0.0):
            raise InvalidLineError(
                f"r_per_mile must be positive and finite, got {self.r_per_mile}")
        object.__setattr__(self, "h_self", tuple(float(h) for h in self.h_self))
        object.__setattr__(self, "h_mut", tuple(float(h) for h in self.h_mut))
        if len(self.h_self) != 3 or len(self.h_mut) != 3:
            raise InvalidLineError("h_self and h_mut need one entry per phase / pair")
        if not all(map(math.isfinite, self.h_self + self.h_mut)):
            raise InvalidLineError(
                f"h_self and h_mut must be finite, got {self.h_self} and {self.h_mut}")


def carson_impedance(line, length_miles, mask):
    """3x3 phase impedance of a line section, ohms.

    Modified Carson equations on a per-mile basis:
        z_self = (r + 0.095 + j 0.121 h_self) * length
        z_mut  = (    0.095 + j 0.121 h_mut ) * length
    Rows and columns of absent phases are exactly zero.
    """
    if not length_miles > 0.0:
        raise InvalidLineError(f"length_miles must be positive, got {length_miles}")
    z = np.zeros((3, 3), dtype=complex)
    idx = mask.indices
    for i in idx:
        z[i, i] = (line.r_per_mile + CARSON_R + 1j * CARSON_X * line.h_self[i]) * length_miles
    for k, (i, j) in enumerate(MUTUAL_PAIRS):
        if i in idx and j in idx:
            zm = (CARSON_R + 1j * CARSON_X * line.h_mut[k]) * length_miles
            z[i, j] = zm
            z[j, i] = zm
    return z


def branch_admittance(z, mask):
    """Invert the present-phase submatrix of z, padded back to 3x3.

    z is one (3, 3) impedance or a stack (..., 3, 3) of impedances that
    share mask; LAPACK inverts each matrix of a stack on its own, so a
    stack gives the same bits as one call per matrix. Absent phases stay
    structurally zero. Raises SingularLineError with a condition estimate
    when a submatrix cannot be inverted.
    """
    idx = np.asarray(mask.indices)
    sub = np.asarray(z, dtype=complex)[..., idx[:, None], idx]
    cond = np.ravel(np.linalg.cond(sub))
    bad = ~(np.isfinite(cond) & (cond <= 1e12))
    if bad.any():
        raise SingularLineError(
            f"phase impedance submatrix on phases {mask.to_string()} is singular "
            f"(condition estimate {cond[bad][0]:.3e})"
        )
    y = np.zeros(sub.shape[:-2] + (3, 3), dtype=complex)
    y[..., idx[:, None], idx] = np.linalg.inv(sub)
    return y


@dataclass
class Branch:
    """One series element between parent and child buses.

    y_block is the 3x3 per-unit admittance block, filled in by
    GridTopology from the Carson impedance and the impedance base.
    Shunt terms are zero by construction in this model.
    """

    parent: int
    child: int
    mask: PhaseMask
    line: LineModel
    length_miles: float
    is_chord: bool = False
    y_block: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.length_miles) and self.length_miles > 0.0):
            raise InvalidLineError(
                f"length_miles must be positive and finite, got {self.length_miles}")

    def impedance(self):
        return carson_impedance(self.line, self.length_miles, self.mask)

    def key(self):
        a, b = sorted((self.parent, self.child))
        return (a, b)


@dataclass
class GridTopology:
    """Feeder graph: tree branches plus optional chords.

    The buses are 0 and every branch end, and must be consecutive.
    Bus 0 is the substation and carries the union of its branches'
    phases; every other bus carries the mask of its tree branch.
    Immutable after construction by convention; mutating branches
    afterwards invalidates the derived buses and the cached assembly.
    """

    branches: list
    z_base_ohm: float = 10.0
    name: str = ""
    _buses: tuple = field(default=(), init=False, repr=False)
    _children: dict = field(default_factory=dict, init=False, repr=False)
    _parent: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.z_base_ohm > 0.0:
            raise GridModelError("z_base_ohm must be positive")
        self._derive_buses()
        # one stacked inversion per phase mask
        by_mask = {}
        for br in self.branches:
            if br.y_block is None:
                by_mask.setdefault(br.mask, []).append(br)
        for mask, group in by_mask.items():
            z_pu = np.stack([br.impedance() for br in group]) / self.z_base_ohm
            for br, y in zip(group, branch_admittance(z_pu, mask)):
                br.y_block = y

    def _derive_buses(self):
        tree = {}
        seen = set()
        slack = set()
        for br in self.branches:
            if br.parent == br.child:
                raise GridModelError(f"self-loop at bus {br.parent}")
            if br.key() in seen:
                raise GridModelError(f"duplicate branch {br.key()}")
            seen.add(br.key())
            if 0 in (br.parent, br.child):
                slack.update(br.mask.present)
            if not br.is_chord:
                if br.child in tree:
                    raise GridModelError(f"bus {br.child} has two tree parents")
                tree[br.child] = br
        if not slack:
            raise GridModelError("no branch leaves the substation (bus 0)")
        ids = {0}.union(*seen)
        if min(ids) < 0:
            raise GridModelError(f"bus ids must be non-negative, got {min(ids)}")
        n = max(ids) + 1
        if sorted(ids) != list(range(n)):
            missing = sorted(set(range(n)) - ids)
            raise GridModelError(f"bus ids must be consecutive, missing {missing}")
        if len(tree) != n - 1:
            raise GridModelError(f"need {n - 1} tree branches for {n} buses, got {len(tree)}")
        self._parent = {b: br.parent for b, br in tree.items()}
        self._children = {b: [] for b in range(n)}
        for b, br in tree.items():
            self._children[br.parent].append(b)
        # Reachability from the slack over tree branches; a bus has one
        # tree parent, so only bus 0 could be met twice.
        reached = [0]
        for u in reached:
            reached.extend(v for v in self._children[u] if v)
        if len(reached) != n:
            raise GridModelError(f"buses {sorted(ids - set(reached))} unreachable from the slack")
        masks = [PhaseMask(frozenset(slack))] + [tree[b].mask for b in range(1, n)]
        for br in self.branches:
            if not br.mask.issubset(masks[br.parent]) or not br.mask.issubset(masks[br.child]):
                raise GridModelError(
                    f"branch {br.parent}-{br.child} carries phases "
                    f"{br.mask.to_string()} not present at both ends"
                )
        self._buses = tuple(Bus(id=b, mask=m, is_slack=(b == 0)) for b, m in enumerate(masks))

    # -- graph accessors ------------------------------------------------

    @property
    def buses(self):
        return self._buses

    @property
    def n_buses(self):
        return len(self._buses)

    @property
    def non_slack_ids(self):
        return list(range(1, len(self._buses)))

    def bus(self, bus_id):
        return self._buses[bus_id]

    def parent_of(self, bus_id):
        return self._parent.get(bus_id)

    def children_of(self, bus_id):
        return list(self._children.get(bus_id, ()))

    def edge_set(self, include_root=True, include_chords=True):
        """Undirected edges as a set of sorted tuples."""
        edges = set()
        for br in self.branches:
            if br.is_chord and not include_chords:
                continue
            if not include_root and 0 in (br.parent, br.child):
                continue
            edges.add(br.key())
        return edges

    @property
    def chords(self):
        return [br for br in self.branches if br.is_chord]

    def masks_array(self):
        """(n_buses, 3) boolean slot presence."""
        out = np.zeros((self.n_buses, 3), dtype=bool)
        for b in self.buses:
            out[b.id, list(b.mask.indices)] = True
        return out


def assemble_admittance(topology):
    """Per-unit nodal admittance matrix of the increment model  Y dV = dI.

    Rows and columns are the non-slack channels in masks_array() order,
    which are a panel's columns after the substation's. Off-diagonal
    blocks are the branch admittance blocks, and each diagonal block is
    minus the sum over all neighbours, the slack included.
    """
    n = topology.n_buses
    Y = np.zeros((n, 3, n, 3), dtype=complex)
    for br in topology.branches:
        u, v = br.parent, br.child
        Y[u, :, u, :] -= br.y_block
        Y[u, :, v, :] += br.y_block
        Y[v, :, v, :] -= br.y_block
        Y[v, :, u, :] += br.y_block
    # flat (bus, slot) positions of the claimed slots after bus 0's three
    keep = 3 + np.flatnonzero(topology.masks_array()[1:])
    return Y.reshape(3 * n, 3 * n)[np.ix_(keep, keep)]


# -- CSV interchange ----------------------------------------------------
#
# Every interchange file is opened, written and line-numbered here.

TOPOLOGY_COLUMNS = [
    "parent_id",
    "child_id",
    "phases",
    "length_miles",
    "r_per_mile",
    "h_self_a",
    "h_self_b",
    "h_self_c",
    "h_mut_ab",
    "h_mut_bc",
    "h_mut_ac",
]
# The chord column's accepted values; the writers emit "0" and "1".
CHORD_FLAGS = {"": False, "0": False, "1": True}


def _is_path(path_or_buf):
    return isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")


def text_file(path_or_buf, mode):
    """Open a path with newline="" (csv's rule), or pass a text buffer through."""
    if _is_path(path_or_buf):
        return open(path_or_buf, mode, newline="")
    return contextlib.nullcontext(path_or_buf)


def read_bytes(path_or_buf):
    """The whole input as bytes: a path read as it is stored, a text
    buffer's content encoded as UTF-8. Readers decode it through
    csv_rows, so an undecodable byte is reported with its line."""
    if _is_path(path_or_buf):
        with open(path_or_buf, "rb") as fh:
            return fh.read()
    return path_or_buf.read().encode()


def write_csv(path_or_buf, header, rows):
    """Header then rows through csv.writer: minimal quoting, CRLF line ends."""
    with text_file(path_or_buf, "w") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def csv_rows(data, error):
    """Yield (line_no, row) for the header and every non-blank row after it.

    data is UTF-8 bytes. line_no is the physical line the row ends on,
    so it stays right after a quoted field that spans lines. A byte that
    is not UTF-8 becomes error(message, line_no) at once, and a csv.Error
    at the row where it happens.
    """
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise error(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                    data.count(b"\n", 0, exc.start) + 1) from None
    reader = csv.reader(io.StringIO(text))
    header = True
    try:
        for row in reader:
            if header or any(c.strip() for c in row):
                header = False
                yield reader.line_num, row
    except csv.Error as exc:
        raise error(f"unreadable CSV: {exc}", reader.line_num) from None


def topology_to_csv(topology, path_or_buf):
    """Write branch rows. A chord column appears when chords exist."""
    has_chords = any(br.is_chord for br in topology.branches)
    write_csv(path_or_buf, TOPOLOGY_COLUMNS + (["chord"] if has_chords else []), (
        [br.parent, br.child, br.mask.to_string(), repr(float(br.length_miles)),
         repr(float(br.line.r_per_mile))]
        + [repr(h) for h in br.line.h_self + br.line.h_mut]
        + ([1 if br.is_chord else 0] if has_chords else [])
        for br in topology.branches))


def branch_rows(data, error, columns):
    """Yield (line_no, parent, child, is_chord, fields) for each branch row.

    The one reader of the branch table that topology and estimate files
    share. data is UTF-8 bytes, columns the header names the caller
    needs (parent_id and child_id among them), and fields maps each
    header name to the row's raw text. A
    fault becomes error(message, line_no): a required column the header
    lacks (line 1), a row shorter than the header, an id that is not a
    non-negative integer, a self-loop, a bus pair seen on an earlier
    row, or a chord flag outside CHORD_FLAGS.
    """
    rows = csv_rows(data, error)
    header = [h.strip() for h in next(rows, (1, []))[1]]
    for col in columns:
        if col not in header:
            raise error(f"missing required column {col!r}", 1)
    seen = set()
    for line_no, row in rows:
        if len(row) < len(header):
            raise error(f"expected {len(header)} fields, got {len(row)}", line_no)
        fields = dict(zip(header, row))
        try:
            parent, child = int(fields["parent_id"]), int(fields["child_id"])
        except ValueError:
            raise error("bus ids must be integers", line_no) from None
        pair = (min(parent, child), max(parent, child))
        if pair[0] < 0:
            raise error(f"bus ids must be non-negative, got {pair[0]}", line_no)
        if parent == child:
            raise error(f"self-loop at bus {parent}", line_no)
        if pair in seen:
            raise error(f"duplicate branch {pair}", line_no)
        seen.add(pair)
        flag = fields.get("chord", "").strip()
        if flag not in CHORD_FLAGS:
            raise error(f"bad chord flag {flag!r}", line_no)
        yield line_no, parent, child, CHORD_FLAGS[flag], fields


def _parse_float(fields, col, line_no, blank=None):
    """fields[col] as a finite float; a blank field reads as blank when that is given."""
    text = fields[col]
    if blank is not None and not text.strip():
        return blank
    try:
        value = float(text)
    except ValueError:
        raise TopologyFormatError(f"column {col!r}: cannot parse {text!r} as a number", line_no)
    if not math.isfinite(value):
        raise TopologyFormatError(f"column {col!r}: {text!r} is not a finite number", line_no)
    return value


def topology_from_csv(path_or_buf, z_base_ohm=10.0, name=""):
    """Read a topology CSV; the buses follow from the branch rows."""
    branches = []
    for line_no, parent, child, is_chord, fields in branch_rows(
            read_bytes(path_or_buf), TopologyFormatError, TOPOLOGY_COLUMNS):
        phases = fields["phases"].strip().lower()
        if not phases or any(p not in "abc" for p in phases) or len(set(phases)) != len(phases):
            raise TopologyFormatError(f"bad phases field {phases!r}", line_no)
        length = _parse_float(fields, "length_miles", line_no)
        r = _parse_float(fields, "r_per_mile", line_no)
        h_self = tuple(_parse_float(fields, f"h_self_{p}", line_no,
                                    None if p in phases else DEFAULT_H_SELF) for p in PHASES)
        h_mut = tuple(_parse_float(fields, f"h_mut_{pair}", line_no, DEFAULT_H_MUT)
                      for pair in ("ab", "bc", "ac"))
        try:
            line = LineModel(r_per_mile=r, h_self=h_self, h_mut=h_mut)
            branches.append(Branch(parent=parent, child=child, mask=PhaseMask.from_string(phases),
                                   line=line, length_miles=length, is_chord=is_chord))
        except GridModelError as exc:
            raise TopologyFormatError(str(exc), line_no)

    try:
        return GridTopology(branches, z_base_ohm=z_base_ohm, name=name)
    except GridModelError as exc:
        raise TopologyFormatError(str(exc)) from None
