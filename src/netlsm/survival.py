"""Ridge-penalized Cox proportional hazards machinery and the end-to-end
coefficient-substitution pipeline.

Workflow: fit a penalized CoxPH model on survival records whose design matrix
carries one-hot donor-type, recipient-type, and pair-indicator columns;
negate the fitted type/pair coefficients into a compatibility network; refine
that network with the latent space model (or a baseline); substitute the
negated refined estimates back into the CoxPH coefficient vector; compare
test-set concordance before and after.
"""

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from ._util import substream
from .baselines import NmtfConfig
from .metrics import refine
# ``fit`` is not called here, but perfbench/test_perfbench.py checks that the
# benchmark's tracer rebinds ``survival.fit``.
from .model import FitConfig, fit, _sqdist, LsmParams  # noqa: F401
from .network import CompatibilityNetwork

__all__ = [
    "TransplantDataset",
    "CoxModel",
    "ConvergenceError",
    "design_matrix",
    "build_design",
    "breslow_loglik",
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


class ConvergenceError(RuntimeError):
    """Newton iterations failed (e.g. singular information matrix)."""


@dataclass(frozen=True)
class TransplantDataset:
    """Survival records with categorical donor/recipient types."""

    covariates: np.ndarray
    donor_type: np.ndarray
    recipient_type: np.ndarray
    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        t = np.asarray(self.time, dtype=float)
        e = np.asarray(self.event, dtype=bool)
        dt = np.asarray(self.donor_type)
        rt = np.asarray(self.recipient_type)
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

    def subset(self, idx):
        return TransplantDataset(
            self.covariates[idx],
            self.donor_type[idx],
            self.recipient_type[idx],
            self.time[idx],
            self.event[idx],
        )

    def to_csv(self, path):
        from ._util import write_text_atomic

        p = self.covariates.shape[1]
        header = ["id", "time", "event", "donor_type", "recipient_type"] + [
            f"x{k + 1}" for k in range(p)
        ]
        lines = [",".join(header)]
        for i in range(self.n):
            row = [
                str(i),
                "%.17g" % self.time[i],
                "1" if self.event[i] else "0",
                str(self.donor_type[i]),
                str(self.recipient_type[i]),
            ] + ["%.17g" % v for v in self.covariates[i]]
            lines.append(",".join(row))
        write_text_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path):
        """Read the layout :meth:`to_csv` writes; covariates are the "x..." columns.

        Malformed content raises ``ValueError`` naming the file and, for a
        bad row, its line: a missing required column, a row whose field count
        differs from the header's, a number that does not parse or is not
        finite, an ``event`` other than 0 or 1, and a file without data rows.
        Blank lines are skipped.
        """
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            missing = [c for c in _CSV_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
            col = {h: k for k, h in enumerate(header)}
            xcols = [k for k, h in enumerate(header) if h.startswith("x")]
            covariates, donor_type, recipient_type, time, event = [], [], [], [], []
            for row in reader:
                if not row:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise ValueError(
                        f"{where}: expected {len(header)} fields, got {len(row)}"
                    )
                covariates.extend(_csv_float(where, row[k], header[k]) for k in xcols)
                time.append(_csv_float(where, row[col["time"]], "time"))
                flag = row[col["event"]]
                if flag not in ("0", "1"):
                    raise ValueError(f"{where}: event must be 0 or 1, got {flag!r}")
                event.append(flag == "1")
                donor_type.append(row[col["donor_type"]])
                recipient_type.append(row[col["recipient_type"]])
        if not time:
            raise ValueError(f"{path}: no data rows")
        return cls(
            covariates=np.array(covariates, dtype=float).reshape(len(time), len(xcols)),
            donor_type=np.array(donor_type),
            recipient_type=np.array(recipient_type),
            time=np.array(time),
            event=np.array(event),
        )


_CSV_COLUMNS = ("time", "event", "donor_type", "recipient_type")


def _csv_float(where, text, what):
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"{where}: malformed {what} {text!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{where}: non-finite {what}")
    return v


@dataclass(frozen=True)
class Column:
    """Identity of one design-matrix column."""

    kind: str  # basic | donor | recipient | pair
    name: str
    donor: str = None
    recipient: str = None


@dataclass(frozen=True)
class CoxModel:
    coefficients: np.ndarray
    std_errors: np.ndarray
    penalty: float
    columns: tuple
    converged: bool

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


def _column_set(data, min_count):
    p = data.covariates.shape[1]
    cols = [Column("basic", f"x{k + 1}") for k in range(p)]
    d_types, d_counts = np.unique(data.donor_type, return_counts=True)
    r_types, r_counts = np.unique(data.recipient_type, return_counts=True)
    for t, c in zip(d_types, d_counts):
        if c >= min_count:
            cols.append(Column("donor", f"don_{t}", donor=str(t)))
    for t, c in zip(r_types, r_counts):
        if c >= min_count:
            cols.append(Column("recipient", f"rec_{t}", recipient=str(t)))
    pairs = {}
    for d, r in zip(data.donor_type, data.recipient_type):
        pairs[(str(d), str(r))] = pairs.get((str(d), str(r)), 0) + 1
    for (d, r), c in sorted(pairs.items()):
        if c >= min_count:
            cols.append(Column("pair", f"pair_{d}_{r}", donor=d, recipient=r))
    return tuple(cols)


def build_design(data, columns):
    """Design matrix for ``data`` using a fixed column set."""
    n = data.n
    x = np.zeros((n, len(columns)))
    dt = data.donor_type.astype(str)
    rt = data.recipient_type.astype(str)
    for k, col in enumerate(columns):
        if col.kind == "basic":
            x[:, k] = data.covariates[:, int(col.name[1:]) - 1]
        elif col.kind == "donor":
            x[:, k] = dt == col.donor
        elif col.kind == "recipient":
            x[:, k] = rt == col.recipient
        else:
            x[:, k] = (dt == col.donor) & (rt == col.recipient)
    return x


def design_matrix(data, min_count):
    """Expanded design matrix plus column metadata.

    Appends one-hot donor-type, recipient-type, and pair-indicator columns to
    the basic covariates, dropping type/pair columns supported by fewer than
    ``min_count`` records.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    columns = _column_set(data, min_count)
    return build_design(data, columns), columns


def _risk_set_stats(x, time, event, w, need_hessian):
    """Breslow partial log-likelihood, score, and (optionally) information.

    Vectorized over event times: risk-set sums come from reverse cumulative
    sums along the time ordering, and the information's Sum_e S2_e/S0_e term
    collapses to a single weighted Gram matrix via
    Sum_e S2_e/S0_e = Sum_j r_j a_j x_j x_j^T with
    a_j = Sum_{events e with t_e <= t_j} 1/S0_e.
    """
    n, p = x.shape
    lp = x @ w
    shift = lp.max()
    order = np.argsort(time, kind="stable")
    t = time[order]
    ev = event[order]
    xs = x[order]
    lps = lp[order]
    r = np.exp(lps - shift)
    c0 = np.cumsum(r[::-1])[::-1]
    c1 = np.cumsum((r[:, None] * xs)[::-1], axis=0)[::-1]
    first = np.searchsorted(t, t, side="left")  # tie groups share the risk set
    ev_idx = np.nonzero(ev)[0]
    s0_e = c0[first[ev_idx]]
    ll = float(lps[ev_idx].sum() - np.sum(np.log(s0_e)) - ev_idx.size * shift)
    xbar = c1[first[ev_idx]] / s0_e[:, None]
    grad = xs[ev_idx].sum(axis=0) - xbar.sum(axis=0)
    info = None
    if need_hessian:
        inc = np.zeros(n)
        np.add.at(inc, ev_idx, 1.0 / s0_e)
        last = np.searchsorted(t, t, side="right") - 1
        a = np.cumsum(inc)[last]
        info = xs.T @ ((r * a)[:, None] * xs) - xbar.T @ xbar
    return ll, grad, info


def breslow_loglik(x, time, event, w):
    """Unpenalized Breslow partial log-likelihood at coefficients ``w``."""
    x = np.asarray(x, dtype=float)
    return _risk_set_stats(x, np.asarray(time, dtype=float), np.asarray(event, dtype=bool),
                           np.asarray(w, dtype=float), need_hessian=False)[0]


def cox_fit(x, time, event, lam, max_iter=100, grad_tol=1e-8, columns=None):
    """Newton maximization of the ridge-penalized Breslow partial likelihood.

    Standard errors are square roots of the diagonal of the inverse penalized
    observed information at the optimum.  ``columns`` may carry the design
    metadata so the fitted model can be turned into a network.
    """
    x = np.asarray(x, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    if lam < 0:
        raise ValueError("penalty must be non-negative")
    n, p = x.shape
    if np.any(np.all(x == 0.0, axis=0)):
        raise ValueError("design matrix has an all-zero column")
    w = np.zeros(p)
    ll, grad, info = _risk_set_stats(x, time, event, w, need_hessian=True)
    ll_pen = ll - 0.5 * lam * w @ w
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        g_pen = grad - lam * w
        if np.max(np.abs(g_pen)) <= grad_tol:
            converged = True
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
            ll_new, grad_new, info_new = _risk_set_stats(x, time, event, w_new, True)
            ll_pen_new = ll_new - 0.5 * lam * w_new @ w_new
            if math.isfinite(ll_pen_new) and ll_pen_new >= ll_pen - 1e-12:
                break
            scale *= 0.5
        else:
            break  # no improving step; report current iterate
        w, ll_pen, grad, info = w_new, ll_pen_new, grad_new, info_new
    else:
        g_pen = grad - lam * w
        converged = np.max(np.abs(g_pen)) <= grad_tol
    h = info + lam * np.eye(p)
    try:
        cov = np.linalg.inv(h)
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("singular information matrix at optimum") from exc
    se = np.where(se > 0, se, np.finfo(float).tiny)
    if columns is None:
        columns = tuple(Column("basic", f"x{k + 1}") for k in range(p))
    return CoxModel(coefficients=w, std_errors=se, penalty=float(lam),
                    columns=columns, converged=bool(converged))


def tune_lambda(x, time, event, lambda_grid, seed=0):
    """Pick the ridge strength by 2-fold cross-validated partial likelihood.

    Each lambda is fit on one fold and scored by the unpenalized partial
    log-likelihood on the other, summed over both directions.  A split that
    leaves a fold without events is redrawn (up to 10 attempts).
    """
    if not len(lambda_grid):
        raise ValueError("lambda_grid must be non-empty")
    x = np.asarray(x, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    n = x.shape[0]
    rng = substream(seed, "cv-folds")
    for _ in range(10):
        perm = rng.permutation(n)
        fold_a, fold_b = perm[: n // 2], perm[n // 2 :]
        if event[fold_a].any() and event[fold_b].any():
            break
    else:
        raise ValueError("could not draw folds containing events")
    best_lam, best_score = None, -np.inf
    for lam in lambda_grid:
        score = 0.0
        for tr, va in ((fold_a, fold_b), (fold_b, fold_a)):
            model = cox_fit(x[tr], time[tr], event[tr], lam)
            score += breslow_loglik(x[va], time[va], event[va], model.coefficients)
        if score > best_score:
            best_lam, best_score = lam, score
    return best_lam


def extract_network(model):
    """Negate the fitted type/pair coefficients into a compatibility network.

    Donor/recipient nodes are the types with retained one-hot columns; pairs
    without a retained column are masked out.
    """
    donors = [c for c in model.columns if c.kind == "donor"]
    recips = [c for c in model.columns if c.kind == "recipient"]
    if not donors or not recips:
        raise ValueError("model has no donor or recipient type columns")
    d_index = {c.donor: i for i, c in enumerate(donors)}
    r_index = {c.recipient: j for j, c in enumerate(recips)}
    n_d, n_r = len(donors), len(recips)
    coef = model.coefficients
    se = model.std_errors
    idx = {c.name: k for k, c in enumerate(model.columns)}
    dw = np.array([-coef[idx[c.name]] for c in donors])
    ds = np.array([se[idx[c.name]] for c in donors])
    rw = np.array([-coef[idx[c.name]] for c in recips])
    rs = np.array([se[idx[c.name]] for c in recips])
    ew = np.zeros((n_d, n_r))
    es = np.ones((n_d, n_r))
    mask = np.zeros((n_d, n_r), dtype=bool)
    for k, c in enumerate(model.columns):
        if c.kind == "pair" and c.donor in d_index and c.recipient in r_index:
            i, j = d_index[c.donor], r_index[c.recipient]
            ew[i, j] = -coef[k]
            es[i, j] = se[k]
            mask[i, j] = True
    return CompatibilityNetwork(
        donor_labels=tuple(c.donor for c in donors),
        recipient_labels=tuple(c.recipient for c in recips),
        donor_weight=dw,
        donor_se=ds,
        recipient_weight=rw,
        recipient_se=rs,
        edge_weight=ew,
        edge_se=es,
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


def c_index(risk, time, event, _chunk=512):
    """Harrell's concordance index over comparable subject pairs.

    Subject i is usable as the earlier one of a pair iff it has an observed
    event and either time_i < time_j, or time_i == time_j with j censored.
    Equal risks earn half credit.
    """
    risk = np.asarray(risk, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    n = risk.size
    if time.shape != (n,) or event.shape != (n,):
        raise ValueError("length mismatch")
    credit = 0.0
    comparable = 0
    for lo in range(0, n, _chunk):
        hi = min(lo + _chunk, n)
        ti = time[lo:hi, None]
        ei = event[lo:hi, None]
        ri = risk[lo:hi, None]
        usable = ei & ((ti < time[None, :]) | ((ti == time[None, :]) & ~event[None, :]))
        comparable += int(usable.sum())
        credit += float(((ri > risk[None, :]) & usable).sum())
        credit += 0.5 * float(((ri == risk[None, :]) & usable).sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return credit / comparable


@dataclass(frozen=True)
class SurvivalGenConfig:
    """Synthetic transplant generator settings (per split)."""

    n_per_split: int = 4000
    n_donor_types: int = 12
    n_recipient_types: int = 12
    n_covariates: int = 4
    dim: int = 2
    alpha: float = 1.0
    beta: float = 1.0
    # latent scales sized so the pair-coefficient spread is comparable to its
    # CoxPH standard errors; that is the regime refinement is meant for
    pos_std: float = 0.25
    effect_std: float = 0.25
    covariate_coef_std: float = 0.5
    baseline_rate: float = 0.1
    censoring_target: float = 0.75
    no_structure: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_per_split < 2:
            raise ValueError("n_per_split must be >= 2")
        if not (0.0 < self.censoring_target < 1.0):
            raise ValueError("censoring_target must be in (0, 1)")
        if not (self.baseline_rate > 0):
            raise ValueError("baseline_rate must be > 0")


@dataclass(frozen=True)
class PlantedTruth:
    params: LsmParams
    eta: np.ndarray
    mu: np.ndarray
    donor_labels: tuple
    recipient_labels: tuple
    basic_coef: np.ndarray


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
    hazard = cfg.baseline_rate * np.exp(lp)
    t_event = rng.exponential(1.0 / hazard)

    def censored_fraction(log_c):
        c = math.exp(log_c)
        return float(np.mean(c / (c + hazard))) - cfg.censoring_target

    log_c = brentq(censored_fraction, -40.0, 40.0)
    t_cens = rng.exponential(math.exp(-log_c), size=n)
    time = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    if not event.any():  # extremely unlikely; keep the dataset valid
        event[np.argmin(time)] = True
    return TransplantDataset(
        covariates=x,
        donor_type=np.array([truth.donor_labels[i] for i in d_idx]),
        recipient_type=np.array([truth.recipient_labels[j] for j in r_idx]),
        time=time,
        event=event,
    )


def simulate_transplants(cfg):
    """Generate train/test transplant datasets from a planted latent truth.

    True coefficients are the negated compatibilities of a latent-space truth
    plus random basic-covariate coefficients; survival times follow an
    exponential baseline hazard scaled by exp(linear predictor), with
    independent exponential censoring tuned to the target censoring fraction.
    With ``no_structure`` the pair-affinity matrix entries are randomly
    permuted, destroying the latent geometry while keeping the marginals.
    """
    rng = substream(cfg.seed, "transplant-gen")
    z_d = cfg.pos_std * rng.standard_normal((cfg.n_donor_types, cfg.dim))
    z_r = cfg.pos_std * rng.standard_normal((cfg.n_recipient_types, cfg.dim))
    delta = cfg.effect_std * rng.standard_normal(cfg.n_donor_types)
    gamma = cfg.effect_std * rng.standard_normal(cfg.n_recipient_types)
    eta = cfg.alpha - cfg.beta * _sqdist(z_d, z_r)
    if cfg.no_structure:
        flat = eta.ravel()
        eta = flat[rng.permutation(flat.size)].reshape(eta.shape)
    basic = cfg.covariate_coef_std * rng.standard_normal(cfg.n_covariates)
    truth = PlantedTruth(
        params=LsmParams(z_d, z_r, cfg.alpha, cfg.beta, delta, gamma),
        eta=eta,
        mu=eta + delta[:, None] + gamma[None, :],
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

    def to_dict(self):
        return {
            "c_raw": self.c_raw,
            "c_refined": self.c_refined,
            "deltas": self.deltas,
            "lambda": self.lambda_used,
            "lsm_converged": self.lsm_converged,
        }


def pipeline_end_to_end(
    gen_config,
    fit_config=None,
    lam=1.0,
    min_count=10,
    methods=("lsm", "nmtf", "pca"),
    lambda_grid=None,
    identity_refinement=False,
):
    """Run the full coefficient-substitution pipeline on synthetic data.

    Fits CoxPH on the train split, extracts the compatibility network, refines
    it with each requested method, substitutes the negated refined estimates
    back, and reports test-set C-indices.  ``lambda_grid`` switches on 2-fold
    CV tuning of the ridge strength (slower); otherwise ``lam`` is used as-is.
    Every method goes through :func:`netlsm.metrics.refine`.
    ``identity_refinement`` refines with ``raw`` in place of each method, so
    the observed network values are substituted back, which must reproduce
    the raw C-index exactly (debug control).
    """
    fit_config = fit_config or FitConfig(dim=gen_config.dim, restarts=1, seed=gen_config.seed)
    train, test, truth = simulate_transplants(gen_config)
    x_train, columns = design_matrix(train, min_count)
    x_test = build_design(test, columns)
    if lambda_grid is not None:
        lam = tune_lambda(x_train, train.time, train.event, lambda_grid, seed=gen_config.seed)
    model = cox_fit(x_train, train.time, train.event, lam, columns=columns)
    c_raw = c_index(x_test @ model.coefficients, test.time, test.event)
    net = extract_network(model)

    c_ref = {}
    lsm_converged = True
    nmtf_config = NmtfConfig(seed=gen_config.seed)
    for method in methods:
        refined, result = refine(
            net, "raw" if identity_refinement else method, fit_config.dim, fit_config, nmtf_config
        )
        if result is not None:
            lsm_converged = result.converged
        sub = substitute_coefficients(model, refined)
        c_ref[method] = c_index(x_test @ sub.coefficients, test.time, test.event)
    deltas = {m: c_ref[m] - c_raw for m in c_ref}
    return PipelineResult(
        c_raw=c_raw,
        c_refined=c_ref,
        deltas=deltas,
        lambda_used=float(lam),
        lsm_converged=lsm_converged,
    )
