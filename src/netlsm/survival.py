"""Ridge-penalized Cox proportional hazards machinery and the end-to-end
coefficient-substitution pipeline.

Workflow: fit a penalized CoxPH model on survival records whose design matrix
carries one-hot donor-type, recipient-type, and pair-indicator columns;
negate the fitted type/pair coefficients into a compatibility network; refine
that network with the latent space model (or a baseline); substitute the
negated refined estimates back into the CoxPH coefficient vector; compare
test-set concordance before and after.

The survival kernels scale with the number of records and nonzeros.  The
design is a :class:`Design`, a compressed sparse row matrix (basic
covariates plus at most three one-hot entries per record), and the Cox
risk-set sums run over event-time segments on it.  Its products,
transpose and dense form are the compiled ``_sparsetools`` kernels that
:mod:`scipy.sparse` runs for them, called directly, so the results are
bit for bit those of :mod:`scipy.sparse`, which is never imported.  The
concordance index is sort-based, O(n log^2 n), with exact integer counts.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import compress

import numpy as np

from ._util import (FLOAT_FMT, _floats, map_units, parse_float, read_csv, scipy_extension,
                    substream, write_csv)
from .metrics import refine
# ``fit`` is not called here, but perfbench/test_perfbench.py checks that the
# benchmark's tracer rebinds ``survival.fit``.
from .model import fit  # noqa: F401
from .model import FitConfig, LsmParams
from .network import CompatibilityNetwork
from .simulate import sample_truth

__all__ = [
    "TransplantDataset",
    "CoxModel",
    "ConvergenceError",
    "Design",
    "NewtonReport",
    "design_matrix",
    "build_design",
    "breslow_loglik",
    "check_penalty",
    "cox_fit",
    "tune_lambda",
    "extract_network",
    "substitute_coefficients",
    "c_index",
    "SurvivalGenConfig",
    "simulate_transplants",
    "pipeline_end_to_end",
    "PipelineResult",
]

_COX_GRAD_TOL = 1e-8  # on the largest penalized score entry
_COX_LL_ROUNDING = 16 * np.finfo(float).eps  # relative to |penalized ll|
_COX_MAX_ITER = 100
_zeros = scipy_extension("optimize._zeros")  # brentq's C core, without scipy.optimize
# scipy.sparse's compiled CSR kernels, without scipy.sparse
_sparsetools = scipy_extension("sparse._sparsetools")
# simulate_transplants's constants; its docstring says what each one sets
TRUTH_STD = 0.25
COVARIATE_COEF_STD = 0.5
BASELINE_RATE = 0.1
CENSORING_TARGET = 0.75


class ConvergenceError(RuntimeError):
    """Newton iterations failed (e.g. singular information matrix)."""


@dataclass(frozen=True)
class TransplantDataset:
    """Survival records with categorical donor/recipient types.

    The types are stored as ``str`` arrays, as :class:`CompatibilityNetwork`
    stores its node labels, so that every later step orders and matches them
    as strings: ``3`` and ``b"3"`` are the type ``"3"``.
    """

    covariates: np.ndarray
    donor_type: np.ndarray
    recipient_type: np.ndarray
    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        t = np.asarray(self.time, dtype=float)
        e = np.asarray(self.event, dtype=bool)
        dt, rt = (np.asarray(v).astype(str) for v in (self.donor_type, self.recipient_type))
        n = x.shape[0]
        if t.shape != (n,) or e.shape != (n,) or dt.shape != (n,) or rt.shape != (n,):
            raise ValueError("all fields must have one entry per subject")
        if not np.all(t > 0):
            raise ValueError("times must be strictly positive")
        if not e.any():
            raise ValueError("need at least one observed event")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "event", e)
        object.__setattr__(self, "donor_type", dt)
        object.__setattr__(self, "recipient_type", rt)

    @property
    def n(self):
        return self.time.shape[0]

    def to_csv(self, path):
        p = self.covariates.shape[1]
        header = ["id", "time", "event", "donor_type", "recipient_type"] + [
            f"x{k + 1}" for k in range(p)
        ]
        columns = (self.time.tolist(), self.event.tolist(), self.donor_type.tolist(),
                   self.recipient_type.tolist(), self.covariates.tolist())
        rows = (
            [i, FLOAT_FMT % t, "1" if e else "0", d, r] + [FLOAT_FMT % v for v in x]
            for i, (t, e, d, r, x) in enumerate(zip(*columns))
        )
        write_csv(path, header, rows, columns[2] + columns[3])  # the type labels

    @classmethod
    def from_csv(cls, path):
        """Read the layout :meth:`to_csv` writes; covariates are the "x..." columns.

        Malformed content raises ``ValueError`` naming the file and, for a
        bad row, its line: a row whose field count differs from the header's
        (found before any other fault, see :func:`read_csv`), a missing
        required column, a repeated column name, covariate columns other than
        ``x1, ..., xp`` in that order, a file without data rows, a number that
        does not parse or is not finite, a time not above 0, an ``event``
        other than 0 or 1, and a file where no row has event 1.  Blank lines
        are skipped.  Column names and cells come stripped of surrounding
        whitespace by :func:`read_csv`, as those of the network files do.
        Each column is parsed and checked at once; only when a check fails
        are the rows walked, to name the first faulty one.
        """
        header, lines, columns = read_csv(path, ValueError)
        missing = [c for c in _CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        repeated = list(dict.fromkeys(h for h in header if header.count(h) > 1))
        if repeated:
            raise ValueError(f"{path}: repeated column(s) {', '.join(repeated)}")
        xnames = [h for h in header if h.startswith("x")]
        expected = [f"x{k + 1}" for k in range(len(xnames))]
        if xnames != expected:
            raise ValueError(f"{path}: covariate columns must be {','.join(expected)}, "
                             f"got {','.join(xnames)}")
        if not lines:
            raise ValueError(f"{path}: no data rows")
        col = dict(zip(header, columns))
        covariates = [_floats(col[h]) for h in xnames]
        time, event = _floats(col["time"], positive=True), col["event"]
        if any(x is None for x in covariates) or time is None or not set(event) <= {"0", "1"}:
            # the first fault in file order: a row's covariates, then its time and event
            for k, line in enumerate(lines):
                for h in xnames:
                    parse_float(col[h][k], h, ValueError, path, line)
                if parse_float(col["time"][k], "time", ValueError, path, line) <= 0:
                    raise ValueError(f"{path}:{line}: non-positive time")
                if event[k] not in ("0", "1"):
                    raise ValueError(f"{path}:{line}: event must be 0 or 1, got {event[k]!r}")
        if "1" not in event:
            raise ValueError(f"{path}: no row has event 1")
        return cls(
            covariates=np.reshape(covariates, (len(xnames), len(lines))).T.copy(),
            donor_type=np.array(col["donor_type"]),
            recipient_type=np.array(col["recipient_type"]),
            time=time,
            event=np.array(event) == "1",
        )


_CSV_COLUMNS = ("time", "event", "donor_type", "recipient_type")


@dataclass(frozen=True)
class Column:
    """Identity of one design-matrix column."""

    kind: str  # basic | donor | recipient | pair
    name: str
    donor: str = None
    recipient: str = None


@dataclass(frozen=True)
class NewtonReport:
    """How a Cox fit's Newton loop ended: its accepted steps, its step
    halvings over all steps, and the largest penalized score entry, in
    absolute value, at its last iterate."""

    steps: int
    halvings: int
    max_score: float

    def __str__(self):
        return f"{self.steps} steps, {self.halvings} halvings, max |score| {self.max_score:.2g}"


@dataclass(frozen=True)
class CoxModel:
    coefficients: np.ndarray
    std_errors: np.ndarray
    penalty: float
    columns: tuple
    converged: bool
    newton: NewtonReport = field(default=None, compare=False)  # not in to_dict() or ==

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        s = np.asarray(self.std_errors, dtype=float)
        if c.shape != s.shape or c.ndim != 1 or len(self.columns) != c.size:
            raise ValueError("coefficients, std_errors, columns must align")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "std_errors", s)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    def to_dict(self):
        return {
            "coefficients": self.coefficients.tolist(),
            "std_errors": self.std_errors.tolist(),
            "penalty": self.penalty,
            "column_names": self.column_names,
            "column_kinds": [c.kind for c in self.columns],
            "converged": self.converged,
        }


def _type_codes(data):
    """The one coding of a split's ``str`` type labels (see :class:`TransplantDataset`):
    each side's sorted distinct labels and each record's index into them, then
    the sorted (donor, recipient) label pairs present and each record's index."""
    d_labels, d_code = np.unique(data.donor_type, return_inverse=True)
    r_labels, r_code = np.unique(data.recipient_type, return_inverse=True)
    pairs, pair_code = np.unique(d_code * r_labels.size + r_code, return_inverse=True)
    d_labels, r_labels = d_labels.tolist(), r_labels.tolist()
    pairs = [(d_labels[c // len(r_labels)], r_labels[c % len(r_labels)]) for c in pairs.tolist()]
    return d_labels, d_code, r_labels, r_code, pairs, pair_code


def _column_set(p, codes, min_count):
    """The basic covariates, then each type and pair held by ``min_count`` records or more."""
    d_labels, d_code, r_labels, r_code, pairs, pair_code = codes

    def held(labels, code):
        return compress(labels, np.bincount(code) >= min_count)

    return tuple([Column("basic", f"x{k + 1}") for k in range(p)]
                 + [Column("donor", f"don_{d}", donor=d) for d in held(d_labels, d_code)]
                 + [Column("recipient", f"rec_{r}", recipient=r) for r in held(r_labels, r_code)]
                 + [Column("pair", f"pair_{d}_{r}", donor=d, recipient=r)
                    for d, r in held(pairs, pair_code)])


@dataclass(frozen=True, eq=False)
class Design:
    """A design matrix in compressed sparse row (CSR) form.

    Row ``i`` holds the entries ``data[indptr[i]:indptr[i + 1]]`` in the
    columns ``indices[indptr[i]:indptr[i + 1]]``.  ``data`` is stored as
    float64 and both index arrays as ``np.intp``: the compiled
    ``_sparsetools`` kernels that read a design take one index dtype per
    call.  They do not check bounds, so the arrays are checked here.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        indices = np.asarray(self.indices, dtype=np.intp)
        indptr = np.asarray(self.indptr, dtype=np.intp)
        n, p = shape = tuple(int(k) for k in self.shape)
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
                or data.shape != indices.shape or indices.shape != (indptr[-1],)
                or indices.size and not 0 <= indices.min() <= indices.max() < p):
            raise ValueError(f"not a CSR matrix of shape {shape}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "shape", shape)

    def toarray(self):
        """The dense (n, p) array, by ``csr_todense``."""
        out = np.zeros(self.shape)
        _sparsetools.csr_todense(*self.shape, self.indptr, self.indices, self.data, out)
        return out

    def __matmul__(self, w):
        """``x @ w`` for a vector ``w`` with one entry per column, by ``csr_matvec``."""
        w = np.asarray(w, dtype=float)
        n, p = self.shape
        if w.shape != (p,):
            raise ValueError(f"a design of shape {self.shape} times a vector of shape {w.shape}")
        out = np.zeros(n)
        _sparsetools.csr_matvec(n, p, self.indptr, self.indices, self.data, w, out)
        return out


def _as_design(x):
    """``x`` as a :class:`Design`, holding the entries, in their order, of
    ``scipy.sparse.csr_matrix(x, dtype=float)``.

    A :class:`Design` is returned as it is.  Anything with ``.tocsr()`` (a
    SciPy sparse matrix or array) is read through the arrays of its CSR
    form, so a CSR's unsorted or duplicate entries are kept, a COO's
    duplicates are summed, and :mod:`scipy.sparse` is imported only by
    whoever made ``x``.  Anything else is read as a dense array: its nonzero
    entries, row by row.
    """
    if isinstance(x, Design):
        return x
    if hasattr(x, "tocsr"):
        x = x.tocsr()
        return Design(x.data, x.indices, x.indptr, x.shape)
    a = np.atleast_2d(np.asarray(x, dtype=float))
    rows, cols = a.nonzero()
    indptr = np.zeros(a.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(a, axis=1), out=indptr[1:])
    return Design(a[rows, cols], cols, indptr, a.shape)


def _take_rows(x, rows):
    """``x[rows]`` of a CSR matrix: the entries of each row in ``rows``, in order."""
    counts = np.diff(x.indptr)[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    at = np.repeat(x.indptr[rows] - indptr[:-1], counts) + np.arange(indptr[-1])
    return Design(x.data[at], x.indices[at], indptr, (rows.size, x.shape[1]))


def _take_columns(x, mask):
    """``x[:, mask]`` of a CSR matrix for a boolean ``mask`` over its columns:
    the entries in the kept columns, in order, their columns renumbered."""
    keep = mask[x.indices]
    kept = np.zeros(keep.size + 1, dtype=np.intp)  # kept entries before each entry
    np.cumsum(keep, out=kept[1:])
    renumber = np.cumsum(mask) - 1
    return Design(x.data[keep], renumber[x.indices[keep]], kept[x.indptr],
                  (x.shape[0], np.count_nonzero(mask)))


def _transpose(x):
    """``x.T.tocsr()`` of a CSR matrix, by ``csr_tocsc``: the (p, n)
    transpose, each row's entries in increasing column order."""
    n, p = x.shape
    indptr = np.empty(p + 1, dtype=np.intp)
    indices = np.empty(x.indices.size, dtype=np.intp)
    data = np.empty(x.data.size)
    _sparsetools.csr_tocsc(n, p, x.indptr, x.indices, x.data, indptr, indices, data)
    return Design(data, indices, indptr, (p, n))


def build_design(data, columns):
    """The :class:`Design` of ``data`` on a fixed column set.

    A record has one entry per basic covariate, plus a 1 in its donor-type,
    recipient-type and pair column where the column set has one, in
    increasing column order.  Type labels are stored, and so matched, as
    strings.
    """
    return _design(data, _type_codes(data), columns)


def _design(data, codes, columns):
    """:func:`build_design` of ``data``, whose :func:`_type_codes` are ``codes``."""
    d_labels, d_code, r_labels, r_code, pairs, pair_code = codes
    where = {(c.kind, c.donor, c.recipient): k for k, c in enumerate(columns)}

    def lookup(keys):  # design column per key, -1 where the column set has none
        return np.array([where.get(key, -1) for key in keys], dtype=int)

    d_col = lookup(("donor", d, None) for d in d_labels)
    r_col = lookup(("recipient", None, r) for r in r_labels)
    pair_col = lookup(("pair", d, r) for d, r in pairs)
    basic = np.array([k for k, c in enumerate(columns) if c.kind == "basic"], dtype=int)
    n = data.n
    cols = np.column_stack([np.tile(basic, (n, 1)), d_col[d_code], r_col[r_code],
                            pair_col[pair_code]])
    vals = np.column_stack([data.covariates[:, [int(columns[k].name[1:]) - 1 for k in basic]],
                            np.ones((n, 3))])
    order = np.argsort(cols, axis=1, kind="stable")  # a no-op on _column_set's order
    cols, vals = np.take_along_axis(cols, order, 1), np.take_along_axis(vals, order, 1)
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return Design(vals[keep], cols[keep], indptr, (n, len(columns)))


def design_matrix(data, min_count):
    """The expanded :class:`Design` plus its column metadata.

    Appends one-hot donor-type, recipient-type, and pair-indicator columns to
    the basic covariates, dropping type/pair columns supported by fewer than
    ``min_count`` records.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    codes = _type_codes(data)
    columns = _column_set(data.covariates.shape[1], codes, min_count)
    return _design(data, codes, columns), columns


def _nonzero_columns(x):
    """Mask of the columns of a :class:`Design` that hold a nonzero entry."""
    return np.bincount(x.indices[x.data != 0], minlength=x.shape[1]) > 0


def _rev_cumsum(a):
    """Reverse cumulative sums over the first axis, in place: ``a[k]`` becomes ``a[k:].sum(0)``"""
    np.cumsum(a[::-1], axis=0, out=a[::-1])
    return a


@dataclass(frozen=True)
class _RiskSets:
    """What :func:`_risk_set_stats` needs of the records, built once by :func:`_risk_sets`."""

    x: Design  # the design, (n, p)
    xt: Design  # its transpose, (p, n)
    gram_nnz: int  # entries of xt @ x, whose pattern every weighted Gram xt @ diag(v) x shares
    xt_event: np.ndarray  # x^T event, the score's first term
    events: np.ndarray  # indices of the records with an event
    seg: np.ndarray  # each record's segment; m (past the last) if before every event
    d: np.ndarray  # events per segment, (m,)
    counts: np.ndarray  # nonzeros per record
    bins: np.ndarray  # each nonzero's (segment, column) bin of S1, seg * p + column


def _risk_sets(x, time, event):
    """The event-time segments of the records and what depends on them alone.

    Segment k holds the records with ``T_k <= time < T_{k+1}`` over the
    sorted distinct event times T, so the risk set of T_k is segments k, k+1,
    ...  Nothing here depends on the coefficients, so a fit builds it once
    and every :func:`_risk_set_stats` call reads it: that includes the
    symbolic pass of the information's sparse product (``csr_matmat_maxnnz``),
    whose pattern depends on the design alone.  ``x`` goes through
    :func:`_as_design`.
    """
    x = _as_design(x)
    n, p = x.shape
    event_times = np.unique(time[event])
    m = event_times.size
    seg = np.searchsorted(event_times, time, side="right") - 1
    seg[seg < 0] = m  # before every event: in no risk set
    counts = np.diff(x.indptr)
    bins = np.repeat(seg, counts) * p + x.indices  # bin m * p + column: before every event
    xt = _transpose(x)
    xt_event = np.zeros(p)  # x.T @ event, by the kernel scipy.sparse runs for it
    _sparsetools.csc_matvec(p, n, x.indptr, x.indices, x.data, event.astype(float), xt_event)
    return _RiskSets(
        x=x,
        xt=xt,
        gram_nnz=_sparsetools.csr_matmat_maxnnz(p, p, xt.indptr, xt.indices, x.indptr,
                                                x.indices),
        xt_event=xt_event,
        events=np.flatnonzero(event),
        seg=seg,
        d=np.bincount(seg[event], minlength=m),  # tied events share their risk set
        counts=counts,
        bins=bins,
    )


def _risk_set_stats(risk_sets, w, need_hessian):
    """Breslow partial log-likelihood, score, and (optionally) information at ``w``.

    ``risk_sets`` is the :func:`_risk_sets` of the records; only the work
    that depends on ``w`` is done here.  One ``np.bincount`` over the
    nonzeros sums ``r x`` (r = exp(x w)) per segment, and reverse cumulative
    sums over the segments, taken in place, give every risk-set sum.  The
    information's Sum_e S2_e/S0_e term collapses to a single weighted Gram
    matrix via Sum_e S2_e/S0_e = Sum_j r_j a_j x_j x_j^T with
    a_j = Sum_{events e with t_e <= t_j} 1/S0_e (see :func:`_gram`).
    """
    rs = risk_sets
    x, d = rs.x, rs.d
    m, p = d.size, x.shape[1]
    lp = x @ w
    shift = lp.max()
    r = np.exp(lp - shift)
    # segment m, the records before every event, is binned and dropped
    s0 = _rev_cumsum(np.bincount(rs.seg, weights=r, minlength=m + 1)[:m])
    s1 = np.bincount(rs.bins, weights=np.repeat(r, rs.counts) * x.data, minlength=(m + 1) * p)
    xbar = _rev_cumsum(s1[: m * p].reshape(m, p))
    xbar /= s0[:, None]
    ll = float(lp[rs.events].sum() - d @ np.log(s0) - d.sum() * shift)
    grad = rs.xt_event - d @ xbar
    info = None
    if need_hessian:
        a = np.zeros(m + 1)  # a[m] = 0: segment m is in no risk set
        np.cumsum(d / s0, out=a[:m])
        v = r * a[rs.seg]
        xbar *= np.sqrt(d)[:, None]  # the score has read xbar; the d_k events at T_k share it
        info = _gram(rs, np.repeat(v, rs.counts) * x.data) - xbar.T @ xbar
    return ll, grad, info


def _gram(risk_sets, data):
    """``(xt @ vx).toarray()``, ``vx`` being the design with the entries
    ``data``, as :mod:`scipy.sparse` forms it: ``csr_matmat`` into the
    pattern that :func:`_risk_sets` sized, then ``csr_todense``."""
    xt, x, nnz = risk_sets.xt, risk_sets.x, risk_sets.gram_nnz
    p = xt.shape[0]
    indptr, indices, product = np.empty(p + 1, np.intp), np.empty(nnz, np.intp), np.empty(nnz)
    _sparsetools.csr_matmat(p, p, xt.indptr, xt.indices, xt.data, x.indptr, x.indices, data,
                            indptr, indices, product)
    out = np.zeros((p, p))
    _sparsetools.csr_todense(p, p, indptr, indices, product, out)
    return out


def breslow_loglik(x, time, event, w):
    """Unpenalized Breslow partial log-likelihood at coefficients ``w``."""
    risk_sets = _risk_sets(x, np.asarray(time, dtype=float), np.asarray(event, dtype=bool))
    return _risk_set_stats(risk_sets, np.asarray(w, dtype=float), need_hessian=False)[0]


def check_penalty(lam):
    """Raise ``ValueError`` unless the ridge penalty ``lam`` is non-negative and finite."""
    if not lam >= 0:
        raise ValueError(f"penalty must be non-negative, got {lam}")
    if not math.isfinite(lam):
        raise ValueError(f"penalty must be finite, got {lam}")


def cox_fit(x, time, event, lam, columns=None):
    """Newton maximization of the ridge-penalized Breslow partial likelihood.

    ``x`` (a :class:`Design`, a dense array, or a SciPy sparse matrix; see
    :func:`_as_design`) has its :func:`_risk_sets` built once; each Newton
    step then runs :func:`_risk_set_stats` on them, which does only the work
    that depends on the coefficients.  The fit has converged when
    the largest penalized score entry is at most 1e-8 in absolute value,
    within 100 iterations.  A step is halved until the penalized ll falls by
    at most 1e-12, or by at most its own rounding (``16 * eps * |ll|``)
    while the largest penalized score entry shrinks: near the optimum the
    ll's change is below its rounding, so the score decides.  After 40
    halvings the fit stops at the current iterate.  A penalty ``lam`` that
    :func:`check_penalty` refuses, or a column without a nonzero entry,
    raises ``ValueError``.
    Standard errors are square roots of the diagonal of the inverse penalized
    observed information at the optimum.  ``columns`` may carry the design
    metadata so the fitted model can be turned into a network.  The model's
    ``newton`` (:class:`NewtonReport`) says how the Newton loop ended.
    """
    x = _as_design(x)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    check_penalty(lam)
    if not _nonzero_columns(x).all():
        raise ValueError("design matrix has an all-zero column")
    w, h, converged, newton = _newton_fit(_risk_sets(x, time, event), x.shape[1], lam)
    try:
        se = np.sqrt(np.clip(np.diag(np.linalg.inv(h)), 0.0, None))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("singular information matrix at optimum") from exc
    se = np.where(se > 0, se, np.finfo(float).tiny)
    if columns is None:
        columns = tuple(Column("basic", f"x{k + 1}") for k in range(w.size))
    return CoxModel(coefficients=w, std_errors=se, penalty=float(lam),
                    columns=columns, converged=converged, newton=newton)


def _newton_fit(risk_sets, p, lam):
    """:func:`cox_fit`'s Newton loop on checked inputs:
    ``(w, info + lam I at w, converged, NewtonReport)``."""
    w = np.zeros(p)
    steps = halvings = 0
    ll, grad, info = _risk_set_stats(risk_sets, w, need_hessian=True)
    ll_pen = ll - 0.5 * lam * w @ w
    for _ in range(_COX_MAX_ITER):
        g_pen = grad - lam * w
        if np.max(np.abs(g_pen)) <= _COX_GRAD_TOL:
            break
        h = info + lam * np.eye(p)
        try:
            step = np.linalg.solve(h, g_pen)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "singular information matrix; increase the ridge penalty"
            ) from exc
        scale = 1.0
        for _ in range(40):
            w_new = w + scale * step
            ll_new, grad_new, info_new = _risk_set_stats(risk_sets, w_new, True)
            ll_pen_new = ll_new - 0.5 * lam * w_new @ w_new
            if math.isfinite(ll_pen_new) and (
                ll_pen_new >= ll_pen - 1e-12
                # a fall within the ll's own rounding, with a smaller score
                or ll_pen_new >= ll_pen - _COX_LL_ROUNDING * abs(ll_pen)
                and np.max(np.abs(grad_new - lam * w_new)) < np.max(np.abs(g_pen))
            ):
                break
            scale *= 0.5
            halvings += 1
        else:
            break  # no improving step; report current iterate
        w, ll_pen, grad, info = w_new, ll_pen_new, grad_new, info_new
        steps += 1
    max_score = float(np.max(np.abs(grad - lam * w)))
    return (w, info + lam * np.eye(p), max_score <= _COX_GRAD_TOL,
            NewtonReport(steps, halvings, max_score))


def tune_lambda(x, time, event, lambda_grid, seed=0):
    """Pick the ridge strength by 2-fold cross-validated partial likelihood.

    Each lambda is fit on one fold and scored by the unpenalized partial
    log-likelihood on the other, summed over both directions; a fold fit is
    :func:`_newton_fit` alone and keeps only its coefficients.  Each fold's
    columns and its :func:`_risk_sets`, for fitting and for scoring, are
    built once for the whole grid.  A fold is fit on the columns that are
    nonzero in it; the other columns get coefficient 0, which for lambda > 0
    is their ridge optimum (their score is 0).  A split that leaves a fold
    without events is redrawn (up to 10 attempts).
    Every grid entry goes through :func:`check_penalty` before the first fold
    fit, so a bad entry raises ``ValueError`` before any fit runs.
    """
    if not len(lambda_grid):
        raise ValueError("lambda_grid must be non-empty")
    for lam in lambda_grid:
        check_penalty(lam)
    x = _as_design(x)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    n, p = x.shape
    rng = substream(seed, "cv-folds")
    for _ in range(10):
        perm = rng.permutation(n)
        fold_a, fold_b = perm[: n // 2], perm[n // 2 :]
        if event[fold_a].any() and event[fold_b].any():
            break
    else:
        raise ValueError("could not draw folds containing events")
    folds = []  # per direction: the fit fold's columns and risk sets, the scoring fold's
    for tr, va in ((fold_a, fold_b), (fold_b, fold_a)):
        x_tr = _take_rows(x, tr)
        present = _nonzero_columns(x_tr)
        folds.append((present, _risk_sets(_take_columns(x_tr, present), time[tr], event[tr]),
                      _risk_sets(_take_rows(x, va), time[va], event[va])))
    best_lam, best_score = None, -np.inf
    for lam in lambda_grid:
        score = 0.0
        for present, fitting, scoring in folds:
            coef = np.zeros(p)
            coef[present] = _newton_fit(fitting, present.sum(), lam)[0]
            score += _risk_set_stats(scoring, coef, need_hessian=False)[0]
        if score > best_score:
            best_lam, best_score = lam, score
    return best_lam


def extract_network(model):
    """Negate the fitted type/pair coefficients into a compatibility network.

    Donor/recipient nodes are the types with retained one-hot columns; pairs
    without a retained column are masked out.
    """
    columns = model.columns
    d_cols = [k for k, c in enumerate(columns) if c.kind == "donor"]
    r_cols = [k for k, c in enumerate(columns) if c.kind == "recipient"]
    if not d_cols or not r_cols:
        raise ValueError("model has no donor or recipient type columns")
    donors = tuple(columns[k].donor for k in d_cols)
    recips = tuple(columns[k].recipient for k in r_cols)
    pair_col = {(c.donor, c.recipient): k for k, c in enumerate(columns) if c.kind == "pair"}
    e_cols = np.array([[pair_col.get((d, r), -1) for r in recips] for d in donors])
    mask = e_cols >= 0
    coef, se = -model.coefficients, model.std_errors
    return CompatibilityNetwork(
        donor_labels=donors,
        recipient_labels=recips,
        donor_weight=coef[d_cols],
        donor_se=se[d_cols],
        recipient_weight=coef[r_cols],
        recipient_se=se[r_cols],
        edge_weight=np.where(mask, coef[e_cols], 0.0),
        edge_se=np.where(mask, se[e_cols], 1.0),
        edge_mask=mask,
    )


def substitute_coefficients(model, refined):
    """Replace type/pair coefficients with negated refined estimates.

    Basic-covariate coefficients are untouched; pair estimates are written
    only where the model retained a column (no new columns are created).
    """
    d_index = {lab: i for i, lab in enumerate(refined.donor_labels)}
    r_index = {lab: j for j, lab in enumerate(refined.recipient_labels)}
    coef = model.coefficients.copy()
    for k, c in enumerate(model.columns):
        if c.kind == "donor":
            if c.donor not in d_index:
                raise ValueError(f"refined estimates missing donor type {c.donor!r}")
            coef[k] = -refined.delta[d_index[c.donor]]
        elif c.kind == "recipient":
            if c.recipient not in r_index:
                raise ValueError(f"refined estimates missing recipient type {c.recipient!r}")
            coef[k] = -refined.gamma[r_index[c.recipient]]
        elif c.kind == "pair":
            if c.donor not in d_index or c.recipient not in r_index:
                raise ValueError(f"refined estimates missing pair column {c.name!r}")
            coef[k] = -refined.eta[d_index[c.donor], r_index[c.recipient]]
    return replace(model, coefficients=coef)


def _later_with_key(pool_key, pool_pos, key, pos, span):
    """For each query (key, pos), the pool entries with that key and a position > pos.

    Positions lie in ``[0, span)``; keys are non-negative integers.
    """
    pool = np.sort(pool_key * span + pool_pos)
    base = key * span
    return np.searchsorted(pool, base + span) - np.searchsorted(pool, base + pos, side="right")


def c_index(risk, time, event):
    """Harrell's concordance index over comparable subject pairs.

    Subject i is usable as the earlier one of a pair iff it has an observed
    event and either time_i < time_j, or time_i == time_j with j censored.
    Equal risks earn half credit; a NaN risk or time compares false, as in
    a pairwise test.

    Sort-based, O(n log^2 n) time and O(n) memory: each subject gets a
    position that orders the pairs (the time's dense rank, doubled, plus 1
    if censored, so that j is later than an event i iff position_j >
    position_i) and a dense integer risk rank.  Pairs with equal rank are
    counted per rank; pairs with lower rank are counted bit by bit of the
    rank, over the pairs whose ranks first differ at that bit.  All counts
    are integers, so the result is exact.
    """
    risk = np.asarray(risk, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    n = risk.size
    if time.shape != (n,) or event.shape != (n,):
        raise ValueError("length mismatch")
    dated = ~np.isnan(time)
    risk, time, event = risk[dated], time[dated], event[dated]
    t_rank = np.unique(time, return_inverse=True)[1]
    pos = 2 * t_rank + ~event
    span = 2 * time.size
    zero = np.zeros_like(pos)
    comparable = int(_later_with_key(zero, pos, zero[event], pos[event], span).sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")
    ranked = ~np.isnan(risk)
    rank = np.zeros_like(pos)
    rank[ranked] = np.unique(risk[ranked], return_inverse=True)[1]
    query = ranked & event
    tied = int(_later_with_key(rank[ranked], pos[ranked], rank[query], pos[query], span).sum())
    lower = 0
    for bit in range(int(rank.max()).bit_length()):
        high, low = rank >> (bit + 1), (rank >> bit) & 1 == 1
        pool, ask = ranked & ~low, query & low
        lower += int(_later_with_key(high[pool], pos[pool], high[ask], pos[ask], span).sum())
    return (lower + 0.5 * tied) / comparable


@dataclass(frozen=True)
class SurvivalGenConfig:
    """Synthetic transplant generator settings (per split)."""

    n_per_split: int = 4000
    n_donor_types: int = 12
    n_recipient_types: int = 12
    n_covariates: int = 4
    dim: int = 2
    no_structure: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_per_split < 2:
            raise ValueError("n_per_split must be >= 2")
        if self.n_donor_types < 1 or self.n_recipient_types < 1:
            raise ValueError("n_donor_types and n_recipient_types must be >= 1")
        if self.n_covariates < 0:
            raise ValueError("n_covariates must be >= 0")


@dataclass(frozen=True)
class PlantedTruth:
    params: LsmParams
    eta: np.ndarray
    donor_labels: tuple
    recipient_labels: tuple
    basic_coef: np.ndarray

    @property
    def mu(self):
        """Planted compatibilities ``eta + delta + gamma``."""
        return self.eta + self.params.delta[:, None] + self.params.gamma[None, :]


def _sample_split(cfg, truth, rng):
    n = cfg.n_per_split
    d_idx = rng.integers(0, cfg.n_donor_types, size=n)
    r_idx = rng.integers(0, cfg.n_recipient_types, size=n)
    x = rng.standard_normal((n, cfg.n_covariates))
    lp = (
        x @ truth.basic_coef
        - truth.params.delta[d_idx]
        - truth.params.gamma[r_idx]
        - truth.eta[d_idx, r_idx]
    )
    hazard = BASELINE_RATE * np.exp(lp)
    t_event = rng.exponential(1.0 / hazard)

    def censored_fraction(log_c):
        c = math.exp(log_c)
        return float(np.mean(c / (c + hazard))) - CENSORING_TARGET

    # scipy.optimize.brentq(censored_fraction, -40.0, 40.0) is this call behind
    # a NaN guard, which is dropped: c is finite and positive and hazard >= 0
    # (inf included), so each c / (c + hazard) lies in [0, 1] and their mean
    # is never NaN
    log_c = _zeros._brentq(censored_fraction, -40.0, 40.0, 2e-12, 4 * np.finfo(float).eps, 100,
                           (), False, True)
    t_cens = rng.exponential(math.exp(-log_c), size=n)
    time = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    if not event.any():  # extremely unlikely; keep the dataset valid
        event[np.argmin(time)] = True
    return TransplantDataset(
        covariates=x,
        donor_type=np.asarray(truth.donor_labels)[d_idx],
        recipient_type=np.asarray(truth.recipient_labels)[r_idx],
        time=time,
        event=event,
    )


def simulate_transplants(cfg):
    """Generate train/test transplant datasets from a planted latent truth.

    True coefficients are the negated compatibilities of a latent-space truth
    plus basic-covariate coefficients from N(0, ``COVARIATE_COEF_STD``^2).  The
    truth (:func:`netlsm.simulate.sample_truth`) has alpha = beta = 1 and
    standard deviation ``TRUTH_STD``, at which the pair-coefficient spread is
    comparable to its CoxPH standard errors: the regime refinement is meant
    for.  Survival times follow an exponential baseline hazard
    ``BASELINE_RATE`` scaled by exp(linear predictor), with independent
    exponential censoring tuned to the censored fraction ``CENSORING_TARGET``:
    its rate is the root of the expected censored fraction minus the target,
    found in log space on [-40, 40] by the C core of
    ``scipy.optimize.brentq`` (loaded by
    :func:`netlsm._util.scipy_extension`, so :mod:`scipy.optimize` is never
    imported), with brentq's default tolerances, bit for bit its root.
    With ``no_structure`` the pair-affinity matrix entries are randomly
    permuted, destroying the latent geometry while keeping the marginals.
    """
    rng = substream(cfg.seed, "transplant-gen")
    params = sample_truth(rng, cfg.n_donor_types, cfg.n_recipient_types, cfg.dim,
                          TRUTH_STD, 1.0, 1.0)
    eta = params.affinity()
    if cfg.no_structure:
        flat = eta.ravel()
        eta = flat[rng.permutation(flat.size)].reshape(eta.shape)
    basic = COVARIATE_COEF_STD * rng.standard_normal(cfg.n_covariates)
    truth = PlantedTruth(
        params=params,
        eta=eta,
        donor_labels=tuple(f"D{i:02d}" for i in range(cfg.n_donor_types)),
        recipient_labels=tuple(f"R{j:02d}" for j in range(cfg.n_recipient_types)),
        basic_coef=basic,
    )
    train = _sample_split(cfg, truth, substream(cfg.seed, "transplant-gen", "train"))
    test = _sample_split(cfg, truth, substream(cfg.seed, "transplant-gen", "test"))
    return train, test, truth


@dataclass(frozen=True)
class PipelineResult:
    c_raw: float
    c_refined: dict  # method -> c-index
    deltas: dict  # method -> c_refined - c_raw
    lambda_used: float
    lsm_converged: bool
    # left out of to_dict(), so pipeline.json keeps its bytes
    cox_converged: bool
    cox_newton: NewtonReport  # how the Cox fit's Newton loop ended
    lsm_stop: str  # the LSM fit's FitResult.stop_summary(); None if no LSM fit ran

    def to_dict(self):
        d = asdict(self)
        d["lambda"] = d.pop("lambda_used")
        for name in ("cox_converged", "cox_newton", "lsm_stop"):
            d.pop(name)
        return d


def pipeline_end_to_end(gen_config, fit_config=None, lam=1.0, min_count=10,
                        methods=("lsm", "nmtf", "pca")):
    """Run the full coefficient-substitution pipeline on synthetic data.

    Fits CoxPH on the train split, extracts the compatibility network, refines
    it with each requested method, substitutes the negated refined estimates
    back, and reports test-set C-indices.  The ridge strength is ``lam``;
    ``netlsm coxph --tune`` picks one by cross-validation (:func:`tune_lambda`).
    Every method goes through :func:`netlsm.metrics.refine` with
    ``fit_config``, whose seed also starts NMTF; ``raw`` substitutes the
    observed network values back, which reproduces the Cox coefficients bit
    for bit, so the raw C-index is that of a trailing ``raw`` unit.
    Once the Cox model exists the methods share nothing, so each one's
    refine, substitute and C-index is one unit of
    :func:`netlsm._util.map_units`: on two CPUs, the first method (``lsm``
    by default) runs here and the rest, then ``raw``, in one forked child.
    The result is the same either way, and an error is that of the first
    failing method in ``methods``' order.  ``lsm_converged`` and
    ``cox_converged`` say whether the LSM refinement and the Cox fit
    converged, and ``lsm_stop`` and ``cox_newton`` how each one ended.
    """
    fit_config = fit_config or FitConfig(dim=gen_config.dim, restarts=1, seed=gen_config.seed)
    train, test, truth = simulate_transplants(gen_config)
    x_train, columns = design_matrix(train, min_count)
    x_test = build_design(test, columns)
    model = cox_fit(x_train, train.time, train.event, lam, columns=columns)
    net = extract_network(model)

    def unit(method):
        refined, result = refine(net, method, fit_config.dim, fit_config)
        sub = substitute_coefficients(model, refined)
        c = c_index(x_test @ sub.coefficients, test.time, test.event)
        return c, None if result is None else (result.converged, result.stop_summary())

    outcomes = map_units(unit, [*methods, "raw"])
    c_raw = outcomes.pop()[0]
    c_ref = {m: c for m, (c, _) in zip(methods, outcomes)}
    lsm_converged, lsm_stop = next((lsm for _, lsm in reversed(outcomes) if lsm is not None),
                                   (True, None))
    deltas = {m: c_ref[m] - c_raw for m in c_ref}
    return PipelineResult(
        c_raw=c_raw,
        c_refined=c_ref,
        deltas=deltas,
        lambda_used=float(lam),
        lsm_converged=lsm_converged,
        cox_converged=model.converged,
        cox_newton=model.newton,
        lsm_stop=lsm_stop,
    )
