"""Refinement methods, prediction-accuracy metrics and the train/test
refinement evaluation.

:func:`refine` is the one place that turns a network and a method name
(``METHODS``) into refined estimates; held-out evaluation and the survival
pipeline both call it.  Predictions and targets are compared on the full
compatibility scale mu = delta + gamma + eta, over pairs observed in both
networks.  The mean log-probability scores each prediction under a Gaussian
centered at the observed value with its standard error, so precisely-estimated
targets weigh more.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .baselines import NmtfConfig, mean_impute, nmtf_refine, pca_refine
from .model import FitConfig, RefinedEstimates, fit, refine_network

__all__ = [
    "METHODS",
    "refine",
    "EvalReport",
    "rmse",
    "mean_log_prob",
    "sign_accuracy",
    "evaluate_refinement",
    "RefinementEvaluation",
    "format_eval_table",
]

METHODS = ("raw", "lsm", "nmtf", "pca")


def refine(net, method, dim, fit_config=None):
    """Refine ``net`` with one method at one dimension.

    Returns ``(refined, result)``: estimates for every pair, masked pairs
    included, and the LSM ``FitResult`` (``None`` for the other methods).

    - ``lsm`` fits the latent space model at ``dim``.
    - ``raw`` keeps the observed edge weights, 0 where masked; ``dim`` is
      ignored.
    - ``pca`` and ``nmtf`` reconstruct the column-mean-imputed edge weights at
      rank ``dim``, NMTF from ``fit_config.seed``.

    Every method keeps the observed node weights as delta/gamma.
    An unknown method raises ``ValueError``.
    """
    fit_config = fit_config or FitConfig()
    if method == "lsm":
        result = fit(net, replace(fit_config, dim=dim))
        return refine_network(net, result), result
    if method == "raw":
        eta = np.where(net.edge_mask, net.edge_weight, 0.0)
    elif method == "pca":
        eta = pca_refine(mean_impute(net.edge_weight, net.edge_mask), dim)
    elif method == "nmtf":
        cfg = NmtfConfig(rank=dim, seed=fit_config.seed)
        eta = nmtf_refine(mean_impute(net.edge_weight, net.edge_mask), cfg).reconstruction
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    refined = RefinedEstimates(
        donor_labels=net.donor_labels,
        recipient_labels=net.recipient_labels,
        eta=eta,
        delta=net.donor_weight.copy(),
        gamma=net.recipient_weight.copy(),
    )
    return refined, None


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    mean_log_prob: float
    sign_accuracy: float
    n_pairs: int

    def to_dict(self):
        return asdict(self)


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


def evaluate_refinement(train_net, test_net, method, dim_grid, fit_config=None):
    """Refine ``train_net`` and score predictions against ``test_net``.

    The two networks must share node labels.  Metrics run over pairs observed
    in both, on the compatibility scale mu; the selected dimension maximizes
    mean log-probability.  ``fit_config``'s seed also starts NMTF.
    """
    if train_net.donor_labels != test_net.donor_labels or (
        train_net.recipient_labels != test_net.recipient_labels
    ):
        raise ValueError("train and test networks must share node labels")
    common = train_net.edge_mask & test_net.edge_mask
    if not common.any():
        raise ValueError("no pairs observed in both networks")
    if method != "raw" and not dim_grid:
        raise ValueError("dim_grid must be non-empty")

    target, target_se = _mu_scale(test_net)
    obs = target[common]
    obs_se = target_se[common]

    dims = [None] if method == "raw" else list(dim_grid)
    reports = {}
    fits = {}
    for dim in dims:
        refined, result = refine(train_net, method, dim, fit_config)
        if result is not None:
            fits[dim] = result
        pred = refined.mu[common]
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
