"""Synthetic measurement laboratory.

Draws independent complex-Gaussian current-injection increments at
every non-slack bus, pushes them through the feeder admittance to get
voltage increments, and packages the result as measurement panels with
ground truth attached. Also provides the analytic voltage covariance
(the oracle the sampled statistics must converge to), meter noise,
label corruption, and the measurement CSV interchange format.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .grid_model import PHASES, assemble_admittance, csv_rows, read_bytes, text_file, write_csv

# Nominal per-phase voltage angles, positive sequence.
NOMINAL_ANGLES = (0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0)


class SynthError(Exception):
    """Raised for invalid generation requests."""


# ---------------------------------------------------------------------
# Injection statistics
# ---------------------------------------------------------------------


@dataclass
class InjectionSpec:
    """Per-bus covariance of the complex current-injection increments.

    covariances has shape (n_buses, 3, 3); rows and columns of absent
    phases and the whole slack block are zero. Entries are Hermitian
    positive definite on the present phases. seed feeds the default
    sampling stream. reactive_ratio, when set, replaces circularly
    symmetric draws with an independent reactive stream whose amplitude
    is that fraction of the active stream's, both aligned with the
    nominal voltage direction; the complex covariance is unchanged,
    only the pseudo-covariance is not.
    """

    covariances: np.ndarray
    seed: int = 0
    reactive_ratio: float | None = None

    def __post_init__(self):
        self.covariances = np.asarray(self.covariances, dtype=complex)
        if self.covariances.ndim != 3 or self.covariances.shape[1:] != (3, 3):
            raise SynthError("covariances must have shape (n_buses, 3, 3)")
        if self.reactive_ratio is not None and not 0.05 <= self.reactive_ratio <= 1.0:
            raise SynthError("reactive_ratio must lie in [0.05, 1.0]")
        herm = np.abs(self.covariances - np.conj(np.transpose(self.covariances, (0, 2, 1))))
        if herm.max() > 1e-12:
            raise SynthError("per-bus covariance blocks must be Hermitian")

    @property
    def n_buses(self):
        return self.covariances.shape[0]

    def present_slots(self, bus_id):
        d = np.real(np.diagonal(self.covariances[bus_id]))
        return tuple(int(i) for i in np.flatnonzero(d > 0.0))

    @classmethod
    def random(cls, topology, seed, base_sigma=0.004, bus_spread=0.6,
               unbalance=0.3, phase_corr=0.2, reactive_ratio=None):
        """Heterogeneous injection statistics for a feeder.

        Per-bus scale is lognormal with sigma bus_spread, per-phase
        scale varies uniformly by +-unbalance, and present phases share
        a common correlation phase_corr. Cross-phase covariance carries
        the nominal 120 degree rotations.
        """
        if not (math.isfinite(base_sigma) and base_sigma > 0.0):
            raise SynthError(f"base_sigma must be a finite positive number, got {base_sigma!r}")
        rng = np.random.default_rng(seed)
        n = topology.n_buses
        cov = np.zeros((n, 3, 3), dtype=complex)
        u = np.exp(1j * np.asarray(NOMINAL_ANGLES))
        for b in topology.buses:
            if b.is_slack:
                continue
            idx = np.asarray(b.mask.indices)
            scale = base_sigma * float(np.exp(rng.normal(0.0, bus_spread)))
            scale = min(max(scale, 0.25 * base_sigma), 4.0 * base_sigma)
            sig = scale * rng.uniform(1.0 - unbalance, 1.0 + unbalance, size=len(idx))
            p = len(idx)
            R = (1.0 - phase_corr) * np.eye(p) + phase_corr * np.ones((p, p))
            block = np.outer(sig, sig) * R
            rot = np.outer(u[idx], np.conj(u[idx]))
            cov[b.id][np.ix_(idx, idx)] = block * rot
        return cls(covariances=cov, seed=int(seed), reactive_ratio=reactive_ratio)

    def scaled(self, bus_ids, factor):
        """New spec with the given buses' covariance multiplied by factor."""
        cov = self.covariances.copy()
        for b in bus_ids:
            cov[b] = cov[b] * factor
        return replace(self, covariances=cov)

    def _real_factor(self, bus_id):
        """Factor F with F F^T the real-composite covariance of one bus.

        Real composite stacks (Re, Im) of the present phases. Circular
        draws use the standard composite of the complex covariance;
        directional draws build active and reactive parts along the
        nominal angle with the requested amplitude ratio.
        """
        idx = self.present_slots(bus_id)
        if not idx:
            return None
        sub = self.covariances[bus_id][np.ix_(idx, idx)]
        if self.reactive_ratio is None:
            return _chol_psd(0.5 * _real_composite(sub))
        kappa = float(self.reactive_ratio)
        theta = np.asarray(NOMINAL_ANGLES)[list(idx)]
        rot = np.exp(-1j * theta)
        # Strip the nominal rotation to get the real magnitude covariance.
        mag_cov = np.real(sub * np.outer(rot, np.conj(rot)))
        L = _chol_psd(mag_cov)
        c = 1.0 / math.sqrt(1.0 + kappa * kappa)
        Ta = c * np.vstack([np.diag(np.cos(theta)), np.diag(np.sin(theta))])
        Tb = c * kappa * np.vstack([-np.diag(np.sin(theta)), np.diag(np.cos(theta))])
        return np.hstack([Ta @ L, Tb @ L])

    def _real_factors(self, bus_ids, slots):
        """_real_factor of each bus in bus_ids, stacked; slots (n, p) are their present slots.

        A circular spec takes one batched Cholesky, which LAPACK runs
        block by block, so the bits are those of one call per bus.
        Directional specs, and a stack with a semidefinite block, go bus
        by bus.
        """
        if self.reactive_ratio is None:
            sub = self.covariances[bus_ids[:, None, None], slots[:, :, None], slots[:, None, :]]
            try:
                return np.linalg.cholesky(0.5 * _real_composite(sub))
            except np.linalg.LinAlgError:
                pass
        return np.stack([self._real_factor(b) for b in bus_ids.tolist()])


def _real_composite(m):
    """[[Re, -Im], [Im, Re]] of a complex matrix, the map it makes on stacked (Re, Im).

    A stack (..., p, q) maps matrix by matrix.
    """
    p, q = m.shape[-2:]
    out = np.empty(m.shape[:-2] + (2 * p, 2 * q))
    out[..., :p, :q] = out[..., p:, q:] = m.real
    out[..., :p, q:] = -m.imag
    out[..., p:, :q] = m.imag
    return out


def _chol_psd(mat):
    """Cholesky with a graceful eigen fallback for semidefinite blocks."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(mat)
        w = np.clip(w, 0.0, None)
        return V * np.sqrt(w)


# ---------------------------------------------------------------------
# Measurement panels
# ---------------------------------------------------------------------


@dataclass
class VoltagePanel:
    """Time series of per-bus per-phase voltages or voltage increments.

    values: (T, D) complex, one column per claimed slot of masks
    (n_buses, 3), bus by bus and then slot by slot. offsets, built once
    from masks, is the one map from a bus to its columns: bus b owns
    columns offsets[b]:offsets[b + 1] (columns(b)), so masks is fixed
    once the panel exists. For magnitude-only panels the
    values are real magnitudes stored in the real part and the angle is
    undefined (exported empty). labels[b, s] gives the true phase index
    of the data sitting in claimed slot s, so corrupted panels keep
    their ground truth; -1 marks an empty slot. Every bus but the
    substation (bus 0) claims at least one slot.
    """

    values: np.ndarray
    masks: np.ndarray
    labels: np.ndarray
    kind: str = "voltage"
    magnitude_only: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.masks = np.asarray(self.masks, dtype=bool)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.masks.ndim != 2 or self.masks.shape[1] != 3 or self.labels.shape != self.masks.shape:
            raise SynthError("masks and labels must have shape (n_buses, 3)")
        if self.values.ndim != 2 or self.values.shape[1] != self.masks.sum():
            raise SynthError(f"values must have shape (T, {int(self.masks.sum())}), one "
                             f"column per claimed channel; got {self.values.shape}")
        _refuse_empty_buses(self.masks)
        if self.kind not in ("voltage", "increment"):
            raise SynthError(f"unknown panel kind {self.kind!r}")
        self.offsets = np.concatenate(([0], np.cumsum(self.masks.sum(axis=1))))

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_buses(self):
        return self.masks.shape[0]

    def slots(self, bus_id):
        return tuple(int(s) for s in np.flatnonzero(self.masks[bus_id]))

    def columns(self, bus_id):
        """Columns of values holding bus_id's claimed channels, slot order."""
        return range(self.offsets[bus_id], self.offsets[bus_id + 1])

    def channels(self, bus_id):
        """(T, p) series of the claimed slots, ascending slot order."""
        return self.values[:, self.offsets[bus_id]:self.offsets[bus_id + 1]]

    def copy(self):
        return VoltagePanel(
            values=self.values.copy(), masks=self.masks.copy(),
            labels=self.labels.copy(), kind=self.kind, magnitude_only=self.magnitude_only,
        )

    def true_phases(self, bus_id):
        """Phase index per claimed channel, slot order; the ground truth."""
        return tuple(int(t) for t in self.labels[bus_id, self.masks[bus_id]])


def _refuse_empty_buses(masks):
    empty = np.flatnonzero(~masks[1:].any(axis=1)) + 1
    if empty.size:
        raise SynthError(f"no channels at bus{'es' * (empty.size > 1)} "
                         f"{', '.join(map(str, empty))}; only the substation may have none")


def identity_labels(masks):
    labels = np.full(masks.shape, -1, dtype=np.int8)
    labels[masks] = np.broadcast_to(np.arange(3, dtype=np.int8), masks.shape)[masks]
    return labels


def to_magnitude(panel):
    """Drop angle information, keeping |v| per channel, in one fresh block."""
    values = np.zeros(panel.values.shape, dtype=complex)
    np.abs(panel.values, out=values.real)
    return VoltagePanel(values=values, masks=panel.masks.copy(), labels=panel.labels.copy(),
                        kind=panel.kind, magnitude_only=True)


# ---------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------


@dataclass
class AnalyticCovariance:
    """Exact second-order statistics of the stacked voltage increments.

    real is the (2D, 2D) covariance of [Re dV; Im dV] over the D
    non-slack channels of masks (n_buses, 3), in panel column order:
    the columns of a panel after the substation's.
    """

    real: np.ndarray
    masks: np.ndarray

    def __post_init__(self):
        self.real = np.asarray(self.real, dtype=float)
        self.masks = np.asarray(self.masks, dtype=bool)
        if self.masks.ndim != 2 or self.masks.shape[1] != 3:
            raise SynthError("masks must have shape (n_buses, 3)")
        _refuse_empty_buses(self.masks)
        side = 2 * int(self.masks[1:].sum())
        if self.real.shape != (side, side):
            raise SynthError(f"real must have shape ({side}, {side}), two rows per non-slack "
                             f"channel; got {self.real.shape}")

    @property
    def dim(self):
        return self.real.shape[0] // 2


# rows of normals per product with the sampling matrix (see increments)
DRAW_BLOCK = 256


class FeederSampler:
    """Shared machinery for sampling one feeder + injection spec.

    Builds the admittance, its inverse, and the overall real-composite
    sampling factor once, so Monte Carlo replicates only pay for the
    random draw and one matrix product.
    """

    def __init__(self, topology, spec):
        if spec.n_buses != topology.n_buses:
            raise SynthError(
                f"injection spec covers {spec.n_buses} buses, feeder has {topology.n_buses}"
            )
        self.topology = topology
        self.spec = spec
        self.masks = topology.masks_array()
        present = np.real(np.diagonal(spec.covariances, axis1=1, axis2=2)) > 0.0
        wrong = np.flatnonzero((present != self.masks)[1:].any(axis=1)) + 1
        if wrong.size:
            b = int(wrong[0])
            raise SynthError(
                f"injection covariance of bus {b} covers slots {spec.present_slots(b)}, "
                f"mask has {topology.bus(b).mask.indices}"
            )
        A = _real_composite(np.linalg.inv(assemble_admittance(topology)))
        D = A.shape[0] // 2
        # cross-bus independence makes the injection factor block
        # diagonal: bus b's (Re, Im) rows at its channels, its own
        # columns; buses of one width are factored and placed together
        F = np.zeros((2 * D, 2 * D))
        widths = self.masks[1:].sum(axis=1)
        starts = np.cumsum(widths) - widths
        for p in np.unique(widths).tolist():
            sel = np.flatnonzero(widths == p)
            slots = np.nonzero(self.masks[sel + 1])[1].reshape(-1, p)
            Fb = spec._real_factors(sel + 1, slots)
            rows = (starts[sel, None] + np.arange(p))[:, :, None]
            cols = (2 * starts[sel, None] + np.arange(2 * p))[:, None, :]
            F[rows, cols] = Fb[:, :p]
            F[D + rows, cols] = Fb[:, p:]
        self.D = D
        self.sampling_matrix = A @ F
        self._analytic = None

    def analytic(self):
        if self._analytic is None:
            S = self.sampling_matrix
            self._analytic = AnalyticCovariance(real=S @ S.T, masks=self.masks.copy())
        return self._analytic

    def increments(self, T, seed=None, rng=None, slack_sigma=0.0):
        """Increment panel of T samples; optional slack common-mode term.

        The normals are drawn time-major, the slack term's from a stream
        spawned from rng, and the normals meet the sampling matrix in
        blocks of DRAW_BLOCK rows, the last one padded with zero rows.
        A sample's bits then depend on its row alone, not on T: at one
        seed the first T samples of a longer run equal the T-sample run
        to the last bit, as data-length sweeps need. A single product of
        all T rows would not give that, since BLAS computes its tail
        rows and short runs differently. Both blocks are reused, and the
        slack term is added block by block, so the draw holds little
        beyond the panel.
        """
        if T < 1:
            raise SynthError("need at least one increment sample")
        if not (math.isfinite(slack_sigma) and slack_sigma >= 0.0):
            raise SynthError(
                f"slack_sigma must be a finite non-negative number, got {slack_sigma!r}")
        if rng is None:
            rng = np.random.default_rng(self.spec.seed if seed is None else seed)
        D = self.D
        masks = self.masks.copy()
        values = np.zeros((T, int(masks.sum())), dtype=complex)
        block = values[:, values.shape[1] - D:]
        if slack_sigma > 0.0:
            # a spawned stream does not depend on the draws made before
            z = rng.spawn(1)[0].standard_normal((T, 2, 3))
            dv0 = (slack_sigma / math.sqrt(2.0)) * (z[:, 0] + 1j * z[:, 1])
            slots = np.nonzero(masks)[1]
        W = np.empty((DRAW_BLOCK, 2 * D))
        X = np.empty((DRAW_BLOCK, 2 * D))
        for lo in range(0, T, DRAW_BLOCK):
            n = min(DRAW_BLOCK, T - lo)
            rng.standard_normal(out=W[:n])
            W[n:] = 0.0
            np.matmul(W, self.sampling_matrix.T, out=X)
            block.real[lo:lo + n] = X[:n, :D]
            block.imag[lo:lo + n] = X[:n, D:]
            if slack_sigma > 0.0:
                values[lo:lo + n] += dv0[lo:lo + n, slots]
        return VoltagePanel(
            values=values, masks=masks, labels=identity_labels(masks),
            kind="increment", magnitude_only=False,
        )


def generate_increments(topology, spec, T, seed=None, slack_sigma=0.0):
    """Draw T independent voltage-increment samples for a feeder."""
    return FeederSampler(topology, spec).increments(T, seed=seed, slack_sigma=slack_sigma)


def analytic_cov(topology, spec):
    """Exact covariance of the stacked voltage increments."""
    return FeederSampler(topology, spec).analytic()


def integrate_voltages(panel):
    """Cumulative-sum increments into a voltage panel.

    The first output sample is a balanced positive-sequence flat start
    (per-channel angle given by the channel's true phase), or unit
    magnitudes for magnitude-only panels. Differencing the result
    recovers the input.
    """
    if panel.kind != "increment":
        raise SynthError("integrate_voltages expects an increment panel")
    T, D = panel.values.shape
    true = np.where(panel.labels >= 0, panel.labels, np.arange(3))[panel.masks]
    v0 = np.ones(D) if panel.magnitude_only else np.exp(1j * np.asarray(NOMINAL_ANGLES)[true])
    out = np.empty((T + 1, D), dtype=complex)
    out[0] = v0
    np.cumsum(panel.values, axis=0, out=out[1:])
    out[1:] += v0
    return VoltagePanel(values=out, masks=panel.masks.copy(), labels=panel.labels.copy(),
                        kind="voltage", magnitude_only=panel.magnitude_only)


# ---------------------------------------------------------------------
# Meter noise
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Relative magnitude noise: |v| scaled by (1 + eps), |eps| <= bound.

    distribution is 'uniform' on [-bound, bound] or 'gaussian', a normal
    with sigma bound/3 truncated at +-bound. Either way eps takes one
    uniform per sample, in time order, so the noise on the first T
    samples does not depend on the panel's length. Angles are never
    touched.
    """

    bound: float
    distribution: str = "uniform"

    def __post_init__(self):
        if not 0.0 <= self.bound < 0.5:
            raise SynthError(f"noise bound must lie in [0, 0.5), got {self.bound}")
        if self.distribution not in ("uniform", "gaussian"):
            raise SynthError(f"unknown noise distribution {self.distribution!r}")


def apply_noise(panel, noise, seed=0):
    """Scale every present channel sample of a copy, in place, by an independent (1 + eps)."""
    out = panel.copy()
    if noise is None or noise.bound == 0.0:
        return out
    rng = np.random.default_rng(seed)
    if noise.distribution == "uniform":
        eps = rng.uniform(-noise.bound, noise.bound, size=out.values.shape)
    else:
        # inverse CDF of the normal truncated at +-3 sigma; scipy is
        # imported here, not at module level, so that importing gridtopo
        # loads numpy alone
        import scipy.special
        tail = scipy.special.ndtr(-3.0)
        eps = rng.uniform(tail, 1.0 - tail, size=out.values.shape)
        scipy.special.ndtri(eps, out=eps)
        eps *= noise.bound / 3.0
        np.clip(eps, -noise.bound, noise.bound, out=eps)
    eps += 1.0
    out.values *= eps
    return out


# ---------------------------------------------------------------------
# Label corruption
# ---------------------------------------------------------------------


def corrupt_labels(panel, fraction, seed=0, protect=()):
    """Permute the phase labels at a deterministic random set of buses.

    Exactly ceil(fraction * M) non-slack buses get a non-identity
    permutation of their present slots, M counting the non-slack buses.
    Only buses with two or more phases are eligible (a single channel
    has no non-trivial permutation over its own mask); when fewer are
    eligible than requested, all of them are permuted. protect lists
    bus ids that must stay untouched, e.g. the feeder head whose labels
    anchor phase identification.
    """
    if not 0.0 <= fraction <= 1.0:
        raise SynthError(f"fraction must lie in [0, 1], got {fraction}")
    out = panel.copy()
    if fraction == 0.0:
        return out
    rng = np.random.default_rng(seed)
    M = out.n_buses - 1
    target = math.ceil(fraction * M)
    eligible = [
        b for b in range(1, out.n_buses)
        if out.masks[b].sum() >= 2 and b not in set(protect)
    ]
    count = min(target, len(eligible))
    chosen = sorted(rng.choice(eligible, size=count, replace=False)) if count else []
    for b in chosen:
        slots = np.flatnonzero(out.masks[b])
        cols = np.arange(out.offsets[b], out.offsets[b + 1])
        p = len(slots)
        perm = np.arange(p)
        while np.array_equal(perm, np.arange(p)):
            perm = rng.permutation(p)
        # Data in slot slots[j] moves to slot slots[perm[j]].
        out.values[:, cols[perm]] = out.values[:, cols]
        out.labels[b, slots[perm]] = out.labels[b, slots]
    return out


# ---------------------------------------------------------------------
# Measurement CSV interchange
# ---------------------------------------------------------------------

MEASUREMENT_COLUMNS = ["t", "bus_id", "phase", "magnitude_pu", "angle_deg"]

# Data-row layouts for the whole-column parse: angles present, then
# every angle empty. A phase field is read two characters wide so that
# anything longer than one character shows up as a non-zero second code
# unit instead of being truncated silently.
_ROW_FIELDS = [("t", np.int64), ("bus_id", np.int64), ("phase", "U2"), ("magnitude", np.float64)]
_ROW_DTYPES = (np.dtype(_ROW_FIELDS + [("angle", np.float64)]),
               np.dtype(_ROW_FIELDS + [("angle", "U1")]))
# Slot of each one-character phase code, -1 for every other character.
_PHASE_SLOT = np.full(128, -1, dtype=np.int64)
_PHASE_SLOT[[ord(p) for p in PHASES]] = range(len(PHASES))
_PHASE_SLOT[[ord(p.upper()) for p in PHASES]] = range(len(PHASES))
# Any byte that bytes.isspace() rejects.
_NON_SPACE = re.compile(rb"\S")


class MeasurementFormatError(SynthError):
    """Malformed measurement CSV. Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def panel_to_csv(panel, path_or_buf):
    """Long-format export: one row per (t, bus, phase) present sample.

    Rows run bus by bus, claimed slot by slot, then in time order. Lines
    end in CRLF and numbers are written with repr, the shortest string
    that reads back to the same float; magnitude-only panels leave the
    angle field empty.
    """
    # channel-major copies, so each channel's series is one contiguous row
    mags = np.ascontiguousarray(np.abs(panel.values).T)
    angs = None if panel.magnitude_only else np.ascontiguousarray(
        np.degrees(np.angle(panel.values)).T)
    stamps = [f"{t}," for t in range(panel.n_samples)]
    with text_file(path_or_buf, "w") as fh:
        fh.write(",".join(MEASUREMENT_COLUMNS) + "\r\n")
        for j, (b, s) in enumerate(np.argwhere(panel.masks).tolist()):
            key = f"{b},{PHASES[s]},"
            m = map(repr, mags[j].tolist())
            a = itertools.repeat("") if angs is None else map(repr, angs[j].tolist())
            fh.write("".join([f"{ts}{key}{mm},{aa}\r\n"
                              for ts, mm, aa in zip(stamps, m, a)]))


def panel_from_csv(path_or_buf, kind="voltage"):
    """Read a long-format measurement CSV back into a panel.

    Rows may come in any order; every (bus, claimed phase) channel must
    carry each time step exactly once, and every bus id from 1 to the
    largest needs rows (the substation may have none). The panel is
    magnitude-only when every angle field is empty; mixed presence is
    rejected. Labels are the identity: files carry claimed phases,
    ground truth travels in the separate label sidecar.
    """
    data = read_bytes(path_or_buf)
    cols = _measurement_columns(data)
    if cols is None:
        cols = _checked_measurement_rows(data)
    t, b, slot, mag, ang = cols
    T = int(t.max()) + 1 if t.size else 0
    B = int(b.max()) + 1 if b.size else 0
    if B == 1:
        raise MeasurementFormatError("no rows for any bus other than the substation (bus 0)")
    channel = b * 3 + slot
    counts = np.bincount(t * (B * 3) + channel, minlength=T * B * 3).reshape(T, B, 3)
    if counts.max(initial=0) > 1:
        _checked_measurement_rows(data)  # names the line of the first duplicate
        raise MeasurementFormatError("duplicate sample")
    masks = counts.any(axis=0)
    absent = np.flatnonzero(~masks[1:].any(axis=1)) + 1
    if absent.size:
        raise MeasurementFormatError(
            f"no rows for bus{'es' * (absent.size > 1)} {', '.join(map(str, absent))}; "
            f"every bus 1..{B - 1} needs measurements (only the substation may have none)")
    gaps = np.argwhere(((counts == 0) & masks).transpose(1, 2, 0))
    if gaps.size:
        gb, gs, gt = gaps[0]
        raise MeasurementFormatError(f"missing sample t={gt} bus={gb} phase={PHASES[gs]}")
    del data  # no error is left to name a line for; free the file before the panel
    values = np.zeros((T, int(masks.sum())), dtype=complex)
    flat = t * values.shape[1] + np.cumsum(masks.ravel())[channel] - 1
    cells = values.reshape(-1)
    if ang is None:
        cells.real[flat] = mag
    else:
        # Python's mag * complex(cos, sin), term for term, so that every
        # bit (signed zeros included) matches a record-by-record reading
        rad = np.radians(ang)
        cos, sin = np.cos(rad), np.sin(rad)
        cells.real[flat] = mag * cos - 0.0 * sin
        cells.imag[flat] = mag * sin + 0.0 * cos
    return VoltagePanel(
        values=values, masks=masks, labels=identity_labels(masks), kind=kind,
        magnitude_only=ang is None and t.size > 0,
    )


def _measurement_columns(data):
    """Whole-column parse of a plain measurement file, or None.

    Returns (t, bus_id, slot, magnitude, angle_deg) arrays, angle None
    for a magnitude-only file, when numpy's C parser reads every data
    row of the UTF-8 bytes and the columns pass the row checks. Anything
    else (blank or whitespace-only rows, padded phases, mixed angles, a
    byte that is not UTF-8, any bad field) returns None and is left to
    _checked_measurement_rows, which applies the csv.reader rules row by
    row. The parser reads the one copy of the file in place, from the
    line after the header.
    """
    end = data.find(b"\n")
    if end < 0 or _NON_SPACE.search(data, end + 1) is None or data.find(b"\x00", end + 1) >= 0:
        return None
    head = data[:end].decode(errors="replace")
    if '"' in head or [h.strip() for h in head.split(",")] != MEASUREMENT_COLUMNS:
        return None
    for dtype in _ROW_DTYPES:
        try:
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, skiprows=1, ndmin=1, encoding="utf-8")
            break
        except ValueError:
            continue
    else:
        return None
    codes = np.ascontiguousarray(rows["phase"]).view(np.uint32).reshape(-1, 2)
    if codes[:, 1].any():
        return None
    slot = _PHASE_SLOT[np.minimum(codes[:, 0], 127)]
    t, b = rows["t"], rows["bus_id"]
    if (slot < 0).any() or t.min() < 0 or b.min() < 0:
        return None
    if not np.isfinite(rows["magnitude"]).all():
        return None
    if rows.dtype["angle"] == np.float64:
        if not np.isfinite(rows["angle"]).all():
            return None
        return t, b, slot, rows["magnitude"], rows["angle"]
    if (rows["angle"] != "").any():
        return None
    return t, b, slot, rows["magnitude"], None


def _checked_measurement_rows(data):
    """Row-by-row reading of a measurement file with csv.reader rules.

    Raises MeasurementFormatError naming the first bad line; otherwise
    returns the same columns as _measurement_columns.
    """
    rows = csv_rows(data, MeasurementFormatError)
    ts, bs, slots, mags, angs = [], [], [], [], []
    seen = set()
    first_present = None
    mixed_line = None
    _, header = next(rows, (1, None))
    if header is None:
        raise MeasurementFormatError("empty measurement file", 1)
    if [h.strip() for h in header] != MEASUREMENT_COLUMNS:
        raise MeasurementFormatError(
            f"header must be {','.join(MEASUREMENT_COLUMNS)}", 1
        )
    for line_no, row in rows:
        if len(row) != 5:
            raise MeasurementFormatError(f"expected 5 fields, got {len(row)}", line_no)
        try:
            t = int(row[0])
            b = int(row[1])
        except ValueError:
            raise MeasurementFormatError("t and bus_id must be integers", line_no)
        if t < 0 or b < 0:
            raise MeasurementFormatError("t and bus_id must be non-negative", line_no)
        phase = row[2].strip().lower()
        if phase not in PHASES:
            raise MeasurementFormatError(f"bad phase {row[2]!r}", line_no)
        try:
            mag = float(row[3])
        except ValueError:
            raise MeasurementFormatError(f"cannot parse magnitude {row[3]!r}", line_no)
        if not math.isfinite(mag):
            raise MeasurementFormatError(f"non-finite magnitude {row[3]!r}", line_no)
        ang_text = row[4].strip()
        present = bool(ang_text)
        if present:
            try:
                ang = float(ang_text)
            except ValueError:
                raise MeasurementFormatError(f"cannot parse angle {row[4]!r}", line_no)
            if math.isinf(ang):
                raise MeasurementFormatError(f"infinite angle {row[4]!r}", line_no)
            if math.isnan(ang):
                raise MeasurementFormatError(f"NaN angle {row[4]!r}", line_no)
            angs.append(ang)
        if first_present is None:
            first_present = present
        elif present != first_present and mixed_line is None:
            mixed_line = line_no
        key = (t, b, phase)
        if key in seen:
            raise MeasurementFormatError(f"duplicate sample for {key}", line_no)
        seen.add(key)
        ts.append(t)
        bs.append(b)
        slots.append(PHASES.index(phase))
        mags.append(mag)
    if mixed_line is not None:
        raise MeasurementFormatError("mixed empty and present angle fields", mixed_line)
    return (np.array(ts, dtype=np.int64), np.array(bs, dtype=np.int64),
            np.array(slots, dtype=np.int64), np.array(mags, dtype=float),
            np.array(angs, dtype=float) if first_present else None)


def labels_to_csv(panel, path_or_buf):
    """Ground-truth sidecar: bus_id,true_phase_order over claimed slots."""
    write_csv(path_or_buf, ["bus_id", "true_phase_order"], (
        [b, "".join(PHASES[int(panel.labels[b, s])] for s in np.flatnonzero(panel.masks[b]))]
        for b in range(panel.n_buses)))


def labels_from_csv(path_or_buf):
    """Read the sidecar into {bus_id: true phase string}.

    A bus id may appear once, and a phase order names each of a, b, c
    at most once.
    """
    rows = csv_rows(read_bytes(path_or_buf), MeasurementFormatError)
    _, header = next(rows, (1, None))
    if header is None or [h.strip() for h in header] != ["bus_id", "true_phase_order"]:
        raise MeasurementFormatError("label file header must be bus_id,true_phase_order", 1)
    out = {}
    for line_no, row in rows:
        try:
            b = int(row[0])
        except ValueError:
            raise MeasurementFormatError("bus_id must be an integer", line_no)
        if b in out:
            raise MeasurementFormatError(f"repeated bus id {b}", line_no)
        order = row[1].strip().lower() if len(row) > 1 else ""
        if any(p not in "abc" for p in order) or len(set(order)) != len(order):
            raise MeasurementFormatError(f"bad phase order {order!r}", line_no)
        out[b] = order
    return out
