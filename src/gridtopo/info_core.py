"""Gaussian information measures over measurement panels.

Every mutual information here is a difference of log-determinants of
principal blocks of one standardized covariance: pairwise and group
mutual information and the all-pairs mutual information matrix, in one
of two frames (phase or symmetrical-component) from one of two sources
(complex phasors or magnitudes). PanelStatistics is that one kernel,
and its batched block log-determinant is the only determinant taken. It
is built from the sample covariance of a panel or, through
PanelStatistics.from_analytic, from the exact covariance of the
increment model (infinite data); both sources share every step after
the covariance. mi_breakdown's magnitude/angle split is a kernel query
too, on statistics built from the pair's polar covariance.

Complex observations are treated as real vectors of each channel's
(Re, Im) pair, channels in panel column order. The magnitude source
takes the moduli of the complex increments per channel (increments of
the stored readings when a panel never had angles). All values are in
nats. Conditional mutual information follows from the chain rule,
I(A; B | Z) = I(A; B, Z) - I(A; Z), as two group_mi queries.

The frame does not change any value. The symmetrical-component map
(SEQ_H_INV, restricted to a bus's claimed slots) is an invertible
linear map of each bus's own channels, and Gaussian mutual information
between bus blocks is invariant under such maps: their determinants
cancel between the joint and the marginal log-determinants. So every
covariance is built from the phase-frame features, and frame only
labels the results; to_sequence and from_sequence remain for callers
that want the components themselves.

A panel's statistics come from one contiguous column range of its
(T, D) channel block, whose float64 view already lists each complex
channel's (Re, Im) pair in column order, so no bus is reordered. The
slice is centred once and multiplied once into the feature covariance,
and the standardisation is a diagonal rescale of the result.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .grid_model import write_csv

FRAMES = ("phase", "sequence")
SOURCES = ("complex", "magnitude")

# Phase-to-sequence transform: columns of SEQ_H are the positive,
# negative and zero sequence basis vectors; SEQ_H_INV maps phase
# quantities to (p, n, z).
_H1 = np.exp(2j * np.pi / 3.0)
SEQ_H = np.array([
    [1.0, 1.0, 1.0],
    [_H1 ** 2, _H1, 1.0],
    [_H1, _H1 ** 2, 1.0],
], dtype=complex)
SEQ_H_INV = SEQ_H.conj().T / 3.0


class InfoCoreError(Exception):
    """Invalid request to the information core."""


class SingularCovarianceError(InfoCoreError):
    """A sample covariance has no usable determinant."""


class MIComputationError(InfoCoreError):
    """Aggregate of per-pair failures in a matrix computation."""

    def __init__(self, failures):
        self.failures = list(failures)
        pairs = ", ".join(str(p) for p in self.failures[:8])
        more = "" if len(self.failures) <= 8 else f" and {len(self.failures) - 8} more"
        super().__init__(f"mutual information failed for pairs: {pairs}{more}")


# ---------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------


def difference(panel):
    """First differences along time; output has T-1 samples.

    For magnitude-only panels this is the increment of the magnitude
    series, which is what magnitude-only meters can deliver.
    """
    if panel.kind != "voltage":
        raise InfoCoreError("difference expects a voltage panel")
    if panel.n_samples < 2:
        raise InfoCoreError("need at least two samples to difference")
    return replace(panel, values=np.diff(panel.values, axis=0),
                   masks=panel.masks.copy(), labels=panel.labels.copy(),
                   kind="increment")


def to_sequence(values):
    """Map phase-frame 3-vectors to (positive, negative, zero) components.

    Accepts shape (..., 3); a balanced positive-sequence triple maps to
    (v, 0, 0).
    """
    arr = np.asarray(values)
    if arr.shape[-1] != 3:
        raise InfoCoreError("sequence transform expects trailing dimension 3")
    return arr @ SEQ_H_INV.T


def from_sequence(values):
    arr = np.asarray(values)
    if arr.shape[-1] != 3:
        raise InfoCoreError("phase transform expects trailing dimension 3")
    return arr @ SEQ_H.T


# ---------------------------------------------------------------------
# Panel feature extraction
# ---------------------------------------------------------------------


def _gather_cov(panel, bus_ids, source):
    """Sample covariance of the claimed channels of bus_ids.

    bus_ids is an ascending run of buses, so their channels are one
    contiguous range lo:hi of panel columns, and the features are a
    slice of that range: the float64 (Re, Im) view of each channel in
    column order (complex source), or one magnitude per channel.
    """
    lo, hi = panel.offsets[bus_ids[0]], panel.offsets[bus_ids[-1] + 1]
    rows = np.ascontiguousarray(panel.values)
    parts = rows.view(np.float64)
    if source == "complex":
        X = parts[:, 2 * lo:2 * hi].copy()
    elif panel.magnitude_only:
        X = parts[:, 2 * lo:2 * hi:2].copy()
    else:
        X = np.abs(rows[:, lo:hi])
    X -= X.mean(axis=0)
    return X.T @ X / (panel.n_samples - 1)


def _bus_slices(bus_ids, widths):
    """Each bus's feature positions, buses laid out in the given order."""
    starts = np.cumsum(widths) - widths
    return {b: list(range(lo, lo + w))
            for b, lo, w in zip(bus_ids, starts.tolist(), widths.tolist())}


def _feature_cov(panel, bus_ids, source):
    """Sample covariance of the features of bus_ids, as (cov, slices)."""
    if source == "complex" and panel.magnitude_only:
        raise InfoCoreError("complex source unavailable from a magnitude-only panel")
    widths = (2 if source == "complex" else 1) * panel.masks[bus_ids].sum(axis=1)
    return _gather_cov(panel, bus_ids, source), _bus_slices(bus_ids, widths)


# below this eigenvalue ratio the substation block is treated as
# numerically rank-deficient rather than merely ill-conditioned
_SUBSTATION_RANK_RTOL = 1e-6


# below this eigenvalue ratio a polar block is exactly singular
# (duplicated coordinates); nothing is regularised silently
_POLAR_RANK_RTOL = 1e-12


def _full_rank(C, rtol):
    """Whether symmetric C has a positive top eigenvalue and its bottom one above rtol of it."""
    eigs = np.linalg.eigvalsh(C)
    return eigs[-1] > 0.0 and eigs[0] > rtol * eigs[-1]


def _slack_has_signal(panel, source):
    """Whether the substation's own feature block is usable.

    It is not when the substation has no channels (an unmetered
    substation), when the series is constant (the generator's
    fixed-voltage convention) or when meter noise rides a constant,
    which keeps the voltage angle locked so the block loses rank.
    """
    if not panel.masks[0].any():
        return False
    slack, _ = _feature_cov(panel, [0], source)
    d = np.sqrt(slack.diagonal())
    if np.any(d <= 0.0):
        return False
    return _full_rank(slack / np.outer(d, d), _SUBSTATION_RANK_RTOL)


def _validate_frame_source(frame, source):
    if frame not in FRAMES:
        raise InfoCoreError(f"frame must be one of {FRAMES}, got {frame!r}")
    if source not in SOURCES:
        raise InfoCoreError(f"source must be one of {SOURCES}, got {source!r}")


class PanelStatistics:
    """One standardized covariance over all bus features of a panel.

    The covariance comes from one slice of the claimed channels' (T, D)
    block (its float64 (Re, Im) view for the complex source) and a
    single product of the centred slice with itself; the features are
    then standardized by a diagonal rescale (population variances, so
    the diagonal reads n/(n-1), or 1 at infinite data). The covariance
    is that of the phase-frame features whatever the frame; frame only
    labels the results (see the module docstring).
    Every mutual-information query then reduces to log-determinants of
    principal submatrices, all taken by one batched elimination
    (_logdets, see _block_logdets) that holds no interpreter lock while
    it computes. The all-pairs matrix batches its pairs per joint
    dimension, gathering them by a plan built once per feature layout
    (_pair_plan). Every other block's log-determinant is kept by its bus
    tuple once computed, so each bus's own value is shared by the matrix
    and every later query, and group_mis takes the blocks of many
    queries in one batch per joint dimension.

    The substation (bus 0) joins the column range only when its own
    block carries a usable signal (see _slack_has_signal); otherwise
    the statistics cover the non-slack buses alone.

    ridge >= 0 is added to the standardized diagonal; it is a
    last-resort retry for singular sample covariances.

    from_analytic builds the same statistics from an exact increment
    covariance instead of a panel, interleaved into the same feature
    order: infinite data, same code after the covariance.
    """

    def __init__(self, panel, frame="phase", source="complex", ridge=0.0):
        _validate_frame_source(frame, source)
        if not (math.isfinite(ridge) and ridge >= 0.0):
            raise InfoCoreError(f"ridge must be a finite non-negative number, got {ridge!r}")
        if panel.kind != "increment":
            raise InfoCoreError("statistics expect an increment panel; difference first")
        first = 0 if _slack_has_signal(panel, source) else 1
        bus_ids = list(range(first, panel.n_buses))
        cov, slices = _feature_cov(panel, bus_ids, source)
        self._standardize(cov, slices, bus_ids, frame, source, panel.n_samples, ridge)

    @classmethod
    def from_analytic(cls, acov, frame="phase"):
        """Exact statistics of the complex source from an AnalyticCovariance.

        acov.real's [Re; Im] rows and columns are interleaved into the
        panel path's layout, (Re, Im) of each channel in column order,
        and then take its standardisation. n_samples is infinite. The
        analytic channels have no substation, so substation_mi() is None.
        """
        _validate_frame_source(frame, "complex")
        order = np.arange(2 * acov.dim).reshape(2, acov.dim).T.ravel()
        cov = acov.real[np.ix_(order, order)]
        bus_ids = list(range(1, acov.masks.shape[0]))
        return cls._from_cov(cov, _bus_slices(bus_ids, 2 * acov.masks[1:].sum(axis=1)),
                             bus_ids, frame, "complex", math.inf)

    @classmethod
    def _from_cov(cls, cov, slices, bus_ids, frame, source, n):
        """Statistics of a feature covariance that did not come from a panel."""
        stats = cls.__new__(cls)
        stats._standardize(cov, slices, bus_ids, frame, source, n, 0.0)
        return stats

    def _standardize(self, cov, slices, bus_ids, frame, source, n, ridge):
        """Rescale cov to unit population variances and keep it."""
        factor = 1.0 if math.isinf(n) else (n - 1) / n
        sd = np.sqrt(cov.diagonal() * factor)
        dead = set(np.flatnonzero(sd <= 0.0).tolist())
        if dead:
            owners = sorted(b for b in bus_ids if dead.intersection(slices[b]))
            raise SingularCovarianceError(
                f"zero-variance channels at buses {owners}"
            )
        cov /= np.outer(sd, sd)
        if ridge > 0.0:
            cov[np.diag_indices(cov.shape[0])] += ridge
        self.frame = frame
        self.source = source
        self.n_samples = n
        self.dim = cov.shape[0]
        self.cov = cov
        self.slices = slices
        self.bus_ids = bus_ids
        self._blocks = {}
        self._mi = None

    def require_samples(self, dims):
        if self.n_samples < dims + 1:
            raise InfoCoreError(
                f"need at least {dims + 1} increment samples for a {dims}-dim joint "
                f"covariance, got {self.n_samples}"
            )

    def _logdets(self, flat):
        """log|det| of principal blocks of cov, as (ld, ok).

        flat is a (d, d, n) array of flat positions in cov, block n in
        flat[:, :, n] (see _flat_positions), gathered in one take and
        eliminated by _block_logdets. ok[n] is False where block n is
        not positive definite; every mutual information in this module
        is a difference of these.
        """
        return _block_logdets(np.take(self.cov, flat))

    def _block_flat(self, buses):
        """Flat positions of the joint block of buses, in the order given, as (d, d, 1)."""
        idx = np.array([[j for b in buses for j in self.slices[b]]], dtype=np.intp)
        return _flat_positions(idx, self.dim)

    def _logdet(self, buses):
        """log|det| of the joint block of buses, in the order given.

        Each block's value is computed once and kept by its bus tuple.
        """
        key = tuple(buses)
        if key not in self._blocks:
            ld, ok = self._logdets(self._block_flat(key))
            if not ok[0]:
                raise SingularCovarianceError(f"singular covariance for buses {list(buses)}")
            self._blocks[key] = float(ld[0])
        return self._blocks[key]

    def group_mi(self, buses_a, buses_b):
        """I(block A; block B) between unions of bus features, nats."""
        ia = [j for b in buses_a for j in self.slices[b]]
        ib = [j for b in buses_b for j in self.slices[b]]
        if set(ia) & set(ib):
            raise InfoCoreError("blocks must be disjoint")
        self.require_samples(len(ia) + len(ib))
        joint = list(buses_a) + list(buses_b)
        return 0.5 * (self._logdet(buses_a) + self._logdet(buses_b) - self._logdet(joint))

    def group_mis(self, queries):
        """group_mi(buses_a, buses_b) of each query, in order.

        The blocks of all queries that are not kept yet are taken
        first, one _logdets call per joint dimension, so the values are
        those of one group_mi call per query, to the last bit. A block
        that is not positive definite is not kept, so the group_mi
        call that needs it raises, as it would alone.
        """
        queries = [(list(a), list(b)) for a, b in queries]
        by_dim = {}
        for key in dict.fromkeys(tuple(x) for a, b in queries for x in (a, b, a + b)):
            if key not in self._blocks:
                flat = self._block_flat(key)
                by_dim.setdefault(flat.shape[0], []).append((key, flat))
        for group in by_dim.values():
            ld, ok = self._logdets(np.concatenate([flat for _, flat in group], axis=2))
            self._blocks.update((key, v) for (key, _), v, good
                                in zip(group, ld.tolist(), ok.tolist()) if good)
        return [self.group_mi(a, b) for a, b in queries]

    def pair_mi(self, bus_i, bus_k):
        return self.group_mi([bus_i], [bus_k])

    def mi_matrix(self):
        """All-pairs matrix over the panel's non-slack buses.

        Computed once per instance; every call returns the same MIMatrix,
        which callers treat as read-only.
        """
        if self._mi is None:
            self._mi = self._all_pairs_mi()
        return self._mi

    def _all_pairs_mi(self):
        buses = [b for b in self.bus_ids if b != 0]
        M = len(buses)
        widths = tuple(len(self.slices[b]) for b in buses)
        self.require_samples(sum(sorted(widths)[-2:]) if M >= 2 else 0)
        with _PLAN_LOCK:
            singles, pairs = _pair_plan(widths, self.slices[buses[0]][0] if M else 0)
        # the buses' own log-determinants, one batch per bus width
        marg = np.empty(M)
        good = np.empty(M, dtype=bool)
        for sel, flat in singles:
            marg[sel], good[sel] = self._logdets(flat)
        if not good.all():
            bad = buses[int(np.flatnonzero(~good)[0])]
            raise SingularCovarianceError(f"singular covariance for buses {[bad]}")
        self._blocks.update(((b,), v) for b, v in zip(buses, marg.tolist()))
        values = np.zeros((M, M))
        failures = []
        # one batched determinant per joint dimension
        for ii, kk, flat in pairs:
            ld, ok = self._logdets(flat)
            failures += [(buses[x], buses[y]) for x, y in zip(ii[~ok], kk[~ok])]
            mi = 0.5 * (marg[ii] + marg[kk] - ld)
            values[ii, kk] = mi
            values[kk, ii] = mi
        if failures:
            raise MIComputationError(sorted(failures))
        return MIMatrix(bus_ids=tuple(buses), values=values,
                        frame=self.frame, source=self.source)

    def substation_mi(self, significance=1e-3):
        """MI between the substation and every non-slack bus, or None.

        None when bus 0 is not in the statistics (its block carries no
        usable signal), or when its dependence on every other bus is
        indistinguishable from the chi-square independence null at the
        given significance level, Bonferroni-corrected over buses.
        """
        if 0 not in self.slices or len(self.bus_ids) < 2:
            return None
        others = [b for b in self.bus_ids if b != 0]
        out = dict(zip(others, self.group_mis(([0], [b]) for b in others)))
        d0 = len(self.slices[0])
        alpha = significance / len(out)
        for b, v in out.items():
            dof = d0 * len(self.slices[b])
            if v > _chi2_upper_quantile(alpha, dof) / (2.0 * self.n_samples):
                return out
        return None


def _flat_positions(idx, dim):
    """Flat positions in a (dim, dim) matrix of the principal blocks
    idx[n], batch last: block n is [:, :, n] of the (d, d, n) result."""
    cols = idx.T
    return cols[:, None, :] * dim + cols[None, :, :]


def _block_logdets(A):
    """log|det| of each (d, d) block A[:, :, n], as (ld, ok); A is overwritten.

    Gaussian elimination without pivoting, run on all blocks at once in
    elementwise numpy, which releases the interpreter lock, where a
    batched LAPACK determinant holds it for the whole batch. log|det|
    is the sum of the log pivots, added one pivot at a time; ok[n] is
    True when every pivot of block n is positive and the sum is finite,
    which for a symmetric block means positive definite. Without
    pivoting, elimination of a positive definite block is as stable as
    its Cholesky factorisation. No step mixes blocks, so a block's
    bits do not depend on the batch it is taken in.
    """
    d, _, n = A.shape
    ld = np.zeros(n)
    ok = np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d):
            pivot = A[k, k]
            ok &= pivot > 0.0
            ld += np.log(pivot)
            if k + 1 < d:
                row = A[k, k + 1:] / pivot
                A[k + 1:, k + 1:] -= A[k + 1:, k, None] * row[None]
    return ld, ok & np.isfinite(ld)


# held while a plan is looked up, so that concurrent first uses of a
# layout build its plan once
_PLAN_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _pair_plan(widths, base):
    """The all-pairs gather plan of a feature layout, as (singles, pairs).

    widths are the feature counts of the non-slack buses, whose features
    follow one another from position base (after the substation's, when
    it is in the statistics). The plan depends on nothing else, so every
    panel of a feeder and source shares one. singles lists (bus
    indices, flat block positions) per bus width; pairs lists (ii, kk,
    flat block positions) per joint width, ii < kk, where each pair's
    joint block lists bus ii's features, then bus kk's. Flat positions
    are batch last, as _logdets takes them.
    """
    dims = np.array(widths, dtype=np.intp)
    dim = base + int(dims.sum())
    starts = base + np.cumsum(dims) - dims
    singles = []
    for d in np.unique(dims).tolist():
        sel = np.flatnonzero(dims == d)
        singles.append((sel, _flat_positions(starts[sel, None] + np.arange(d), dim)))
    ii, kk = np.triu_indices(len(dims), 1)
    joint = dims[ii] + dims[kk]
    pairs = []
    for d in np.unique(joint).tolist():
        sel = np.flatnonzero(joint == d)
        a, b = ii[sel, None], kk[sel, None]
        j = np.arange(d)
        idx = np.where(j < dims[a], starts[a] + j, starts[b] + j - dims[a])
        pairs.append((ii[sel], kk[sel], _flat_positions(idx, dim)))
    # every caller shares these arrays
    for group in singles + pairs:
        for a in group:
            a.flags.writeable = False
    return singles, pairs


def _chi2_upper_quantile(alpha, dof):
    """The chi-square quantile at 1 - alpha, as scipy.stats.chi2.ppf
    evaluates it. scipy is imported here, not at module level, so that
    importing gridtopo loads numpy alone."""
    import scipy.special
    return 2.0 * scipy.special.gammaincinv(dof / 2, 1.0 - alpha)


@dataclass
class MIMatrix:
    """Symmetric pairwise mutual information over non-slack buses, nats."""

    bus_ids: tuple
    values: np.ndarray
    frame: str = "phase"
    source: str = "complex"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        m = len(self.bus_ids)
        if self.values.shape != (m, m):
            raise InfoCoreError("values must be square over bus_ids")
        if not np.array_equal(self.values, self.values.T, equal_nan=True):
            raise InfoCoreError("values must be symmetric")

    @property
    def n(self):
        return len(self.bus_ids)

    def value(self, bus_i, bus_k):
        pos = {b: i for i, b in enumerate(self.bus_ids)}
        return float(self.values[pos[bus_i], pos[bus_k]])

    def pairs(self):
        """Yield (bus_i, bus_k, mi) with bus_i < bus_k."""
        for i in range(self.n):
            for k in range(i + 1, self.n):
                yield self.bus_ids[i], self.bus_ids[k], float(self.values[i, k])

    def to_csv(self, path_or_buf):
        write_csv(path_or_buf, ["bus_i", "bus_j", "mi_nats"],
                  ([i, k, repr(v)] for i, k, v in self.pairs()))


def substation_mi(panel, frame="phase", source="complex", significance=1e-3):
    """MI between the substation and every non-slack bus, or None.

    PanelStatistics(panel, frame, source).substation_mi(significance),
    with the cheap test of the substation block first, so a panel whose
    substation carries no usable signal never builds the full statistics.
    """
    _validate_frame_source(frame, source)
    if not _slack_has_signal(panel, source):
        return None
    return PanelStatistics(panel, frame=frame, source=source).substation_mi(significance)


# ---------------------------------------------------------------------
# Magnitude / angle decomposition
# ---------------------------------------------------------------------


def mi_breakdown(panel, bus_i, bus_k):
    """Split I(dV_i; dV_k) into magnitude and angle contributions.

    Works on a voltage panel in polar coordinates: per-channel moduli of
    the complex increments m = |dv| (signed magnitude increments when
    the panel is magnitude-only) and unwrapped angle increments t. The
    chain rule gives

        term_a = I(m_i; m_k)
        term_b = I(t_i; m_k | m_i)
        term_c = I(m_i, t_i; t_k | m_k)

    and the three terms sum exactly to the full polar-frame mutual
    information computed from the same joint covariance. Each term is a
    difference of group_mi queries on PanelStatistics built from that
    covariance, with the blocks m_i, t_i, m_k and t_k in place of buses,
    all taken in one group_mis call.
    Constant channels drop out, so on magnitude-only panels (constant
    angles) term_b = term_c = 0.
    """
    if panel.kind != "voltage":
        raise InfoCoreError("mi_breakdown expects a voltage panel")
    cols, slices = [], {}
    for tag, b in (("i", bus_i), ("k", bus_k)):
        x = panel.channels(b)
        if panel.magnitude_only:
            m = np.diff(x.real, axis=0)
            t = np.zeros_like(m)
        else:
            m = np.abs(np.diff(x, axis=0))
            t = np.diff(np.unwrap(np.angle(x), axis=0), axis=0)
        for name, arr in ((f"m_{tag}", m), (f"t_{tag}", t)):
            sd = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros(arr.shape[1])
            start = sum(c.shape[1] for c in cols)
            cols.append(arr[:, sd > 0.0])
            slices[name] = list(range(start, start + cols[-1].shape[1]))
    X = np.hstack(cols)
    if X.shape[1] == 0:
        raise SingularCovarianceError(f"no varying channels between buses {bus_i} and {bus_k}")
    n = X.shape[0]
    X -= X.mean(axis=0)
    stats = PanelStatistics._from_cov(X.T @ X / (n - 1), slices, list(slices),
                                      "phase", "polar", n)
    stats.require_samples(stats.dim)
    # every block queried below is a principal submatrix of the joint,
    # so by Cauchy interlacing this one check covers them all
    if not _full_rank(stats.cov, _POLAR_RANK_RTOL):
        raise SingularCovarianceError(f"singular polar covariance for buses {bus_i},{bus_k}")
    queries = {"a": (["m_i"], ["m_k"])}
    if slices["t_i"]:
        queries["b"] = (["m_k"], ["t_i", "m_i"])
    if slices["t_k"]:
        queries["c"] = (["t_k"], ["m_i", "t_i", "m_k"])
        queries["c_given"] = (["t_k"], ["m_k"])
    mi = dict(zip(queries, stats.group_mis(queries.values())))
    term_a = mi["a"]
    term_b = mi["b"] - term_a if "b" in mi else 0.0
    term_c = mi["c"] - mi["c_given"] if "c" in mi else 0.0
    return term_a, term_b, term_c
