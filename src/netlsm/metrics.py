"""Prediction-accuracy metrics and the train/test refinement evaluation.

Predictions and targets are compared on the full compatibility scale
mu = delta + gamma + eta, over pairs observed in both networks.  The mean
log-probability scores each prediction under a Gaussian centered at the
observed value with its standard error, so precisely-estimated targets weigh
more.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import NmtfConfig, mean_impute, nmtf_refine, pca_refine
from .model import FitConfig, fit, refine_network

__all__ = [
    "METHODS",
    "EvalReport",
    "rmse",
    "mean_log_prob",
    "sign_accuracy",
    "evaluate_refinement",
    "RefinementEvaluation",
    "format_eval_table",
]

METHODS = ("raw", "lsm", "nmtf", "pca")


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    mean_log_prob: float
    sign_accuracy: float
    n_pairs: int

    def to_dict(self):
        return {
            "rmse": self.rmse,
            "mean_log_prob": self.mean_log_prob,
            "sign_accuracy": self.sign_accuracy,
            "n_pairs": self.n_pairs,
        }


def _check_lengths(*vecs):
    arrays = [np.asarray(v, dtype=float).ravel() for v in vecs]
    n = arrays[0].size
    if n < 1:
        raise ValueError("need at least one pair")
    if any(a.size != n for a in arrays):
        raise ValueError("length mismatch")
    return arrays


def rmse(pred, obs):
    """Root mean squared error between predictions and observations."""
    p, o = _check_lengths(pred, obs)
    return float(np.sqrt(np.mean((p - o) ** 2)))


def mean_log_prob(pred, obs, obs_se):
    """Mean Gaussian log-density of predictions at the observations.

    Each term is log N(pred_k | obs_k, obs_se_k^2); smaller standard errors
    weigh deviations more heavily.
    """
    p, o, s = _check_lengths(pred, obs, obs_se)
    if np.any(s <= 0):
        raise ValueError("standard errors must be strictly positive")
    terms = -0.5 * np.log(2.0 * math.pi * s * s) - 0.5 * ((p - o) / s) ** 2
    return float(terms.mean())


def sign_accuracy(pred, obs):
    """Fraction of pairs whose thresholded signs agree (zero counts as positive)."""
    p, o = _check_lengths(pred, obs)
    return float(np.mean((p >= 0) == (o >= 0)))


@dataclass(frozen=True)
class RefinementEvaluation:
    method: str
    reports: dict  # dim -> EvalReport ({None: report} for raw)
    selected_dim: int
    fits: dict = field(repr=False, compare=False)  # dim -> FitResult, lsm only

    def selected_report(self):
        return self.reports[self.selected_dim]

    def to_dict(self):
        return {
            "method": self.method,
            "selected_dim": self.selected_dim,
            "reports": {str(k): v.to_dict() for k, v in self.reports.items()},
        }


def _mu_scale(net):
    """Observed compatibilities mu = node + node + pair, and their stderrs."""
    mu = (
        net.edge_weight
        + net.donor_weight[:, None]
        + net.recipient_weight[None, :]
    )
    var = (
        net.edge_se**2
        + net.donor_se[:, None] ** 2
        + net.recipient_se[None, :] ** 2
    )
    return mu, np.sqrt(var)


def _predict(method, train_net, dim, fit_config, nmtf_config, eta_only):
    """Full prediction matrix for one method at one dimension, and the LSM fit."""
    result = None
    if method == "raw":
        pred_eta = np.where(train_net.edge_mask, train_net.edge_weight, 0.0)
        delta, gamma = train_net.donor_weight, train_net.recipient_weight
    elif method == "lsm":
        cfg = fit_config if fit_config.dim == dim else replace(fit_config, dim=dim)
        result = fit(train_net, cfg)
        refined = refine_network(train_net, result)
        pred_eta, delta, gamma = refined.eta, refined.delta, refined.gamma
    elif method == "pca":
        pred_eta = pca_refine(mean_impute(train_net.edge_weight, train_net.edge_mask), dim)
        delta, gamma = train_net.donor_weight, train_net.recipient_weight
    elif method == "nmtf":
        cfg = NmtfConfig(
            rank=dim, max_iter=nmtf_config.max_iter, tol=nmtf_config.tol, seed=nmtf_config.seed
        )
        pred_eta = nmtf_refine(
            mean_impute(train_net.edge_weight, train_net.edge_mask), cfg
        ).reconstruction
        delta, gamma = train_net.donor_weight, train_net.recipient_weight
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not eta_only:
        pred_eta = pred_eta + delta[:, None] + gamma[None, :]
    return pred_eta, result


def evaluate_refinement(
    train_net,
    test_net,
    method,
    dim_grid,
    fit_config=None,
    nmtf_config=None,
    eta_only=False,
):
    """Refine ``train_net`` and score predictions against ``test_net``.

    The two networks must share node labels.  Metrics run over pairs observed
    in both; the selected dimension maximizes mean log-probability.  With
    ``eta_only`` the comparison drops the node effects (diagnostic).
    """
    if train_net.donor_labels != test_net.donor_labels or (
        train_net.recipient_labels != test_net.recipient_labels
    ):
        raise ValueError("train and test networks must share node labels")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    common = train_net.edge_mask & test_net.edge_mask
    if not common.any():
        raise ValueError("no pairs observed in both networks")
    if method != "raw" and not dim_grid:
        raise ValueError("dim_grid must be non-empty")
    fit_config = fit_config or FitConfig()
    nmtf_config = nmtf_config or NmtfConfig()

    if eta_only:
        target = np.where(test_net.edge_mask, test_net.edge_weight, 0.0)
        target_se = np.where(test_net.edge_mask, test_net.edge_se, 1.0)
    else:
        target, target_se = _mu_scale(test_net)
    obs = target[common]
    obs_se = target_se[common]

    dims = [None] if method == "raw" else list(dim_grid)
    reports = {}
    fits = {}
    for dim in dims:
        pred, result = _predict(method, train_net, dim, fit_config, nmtf_config, eta_only)
        if result is not None:
            fits[dim] = result
        pred = pred[common]
        reports[dim] = EvalReport(
            rmse=rmse(pred, obs),
            mean_log_prob=mean_log_prob(pred, obs, obs_se),
            sign_accuracy=sign_accuracy(pred, obs),
            n_pairs=int(common.sum()),
        )
    selected = max(dims, key=lambda d: (reports[d].mean_log_prob, -(d or 0)))
    return RefinementEvaluation(method=method, reports=reports, selected_dim=selected, fits=fits)


def format_eval_table(evaluations):
    """Metric-by-method table for a list of RefinementEvaluation objects."""
    lines = [f"{'metric':15s}" + "".join(f"{e.method:>12s}" for e in evaluations)]
    for key, label in (
        ("rmse", "rmse"),
        ("mean_log_prob", "mean log-prob"),
        ("sign_accuracy", "sign accuracy"),
    ):
        row = f"{label:15s}"
        for e in evaluations:
            row += f"{getattr(e.selected_report(), key):12.4f}"
        lines.append(row)
    lines.append(
        f"{'selected dim':15s}"
        + "".join(f"{str(e.selected_dim):>12s}" for e in evaluations)
    )
    return "\n".join(lines) + "\n"
