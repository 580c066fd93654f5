"""Synthetic network generator and replicate harness.

Generates bipartite networks from a planted latent-space truth with Gaussian
observation noise, then measures how well fitting recovers the truth across
seeded replicates (reported as mean +/- standard error per quantity).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import substream
from .metrics import rmse
from .model import FitConfig, fit, refine_network, LsmParams, _sqdist
from .network import CompatibilityNetwork
from .procrustes import procrustes_align

__all__ = [
    "PAIR_TERM_ONLY",
    "FULL_COMPATIBILITY",
    "SimConfig",
    "SimulatedNetwork",
    "simulate",
    "run_replicates",
    "ReplicateReport",
    "format_report_table",
]

PAIR_TERM_ONLY = "pair_term_only"
FULL_COMPATIBILITY = "full_compatibility"
_CONVENTIONS = (PAIR_TERM_ONLY, FULL_COMPATIBILITY)


@dataclass(frozen=True)
class SimConfig:
    n_d: int = 20
    n_r: int = 20
    dim: int = 2
    alpha: float = 1.0
    beta: float = 1.0
    pos_std: float = math.sqrt(0.5)
    effect_std: float = math.sqrt(0.5)
    sigma_w: float = 0.15
    sigma_node: float = 0.15
    edge_mean_convention: str = PAIR_TERM_ONLY
    seed: int = 0

    def __post_init__(self):
        if self.n_d < 1 or self.n_r < 1:
            raise ValueError("node counts must be >= 1")
        for name in ("pos_std", "effect_std", "sigma_w", "sigma_node"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")
        if self.edge_mean_convention not in _CONVENTIONS:
            raise ValueError(f"edge_mean_convention must be one of {_CONVENTIONS}")
        if not (self.beta > 0):
            raise ValueError("beta must be > 0")


@dataclass(frozen=True)
class SimulatedNetwork:
    truth: LsmParams
    observed: CompatibilityNetwork


def _sample_truth(config, rng):
    z_d = config.pos_std * rng.standard_normal((config.n_d, config.dim))
    z_r = config.pos_std * rng.standard_normal((config.n_r, config.dim))
    delta = config.effect_std * rng.standard_normal(config.n_d)
    gamma = config.effect_std * rng.standard_normal(config.n_r)
    return LsmParams(z_d, z_r, config.alpha, config.beta, delta, gamma)


def _observe(truth, config, rng):
    eta = config.alpha - config.beta * _sqdist(truth.z_d, truth.z_r)
    if config.edge_mean_convention == FULL_COMPATIBILITY:
        mean = eta + truth.delta[:, None] + truth.gamma[None, :]
    else:
        mean = eta
    w = mean + config.sigma_w * rng.standard_normal(mean.shape)
    y_d = truth.delta + config.sigma_node * rng.standard_normal(config.n_d)
    y_r = truth.gamma + config.sigma_node * rng.standard_normal(config.n_r)
    return CompatibilityNetwork(
        donor_labels=tuple(f"D{i:02d}" for i in range(config.n_d)),
        recipient_labels=tuple(f"R{j:02d}" for j in range(config.n_r)),
        donor_weight=y_d,
        donor_se=np.full(config.n_d, config.sigma_node),
        recipient_weight=y_r,
        recipient_se=np.full(config.n_r, config.sigma_node),
        edge_weight=w,
        edge_se=np.full(mean.shape, config.sigma_w),
        edge_mask=np.ones(mean.shape, dtype=bool),
    )


def simulate(config):
    """Sample a ground-truth parameter set and its noisy observed network.

    All edges are observed (full mask); the observed network's standard-error
    fields are set to the generating noise levels, making them exact plug-ins.
    """
    rng = substream(config.seed, "simnet")
    truth = _sample_truth(config, rng)
    return SimulatedNetwork(truth=truth, observed=_observe(truth, config, rng))


def simulate_train_test(config):
    """One truth, two independently-noised observed networks.

    Returns (truth, train_net, test_net); the pair shares node labels and the
    full observation mask, so refinement of the train network can be scored
    against the test network.
    """
    truth = _sample_truth(config, substream(config.seed, "simnet"))
    train = _observe(truth, config, substream(config.seed, "simnet", "train-noise"))
    test = _observe(truth, config, substream(config.seed, "simnet", "test-noise"))
    return truth, train, test


def _r2(pred, target):
    pred = np.asarray(pred, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    ss_res = np.sum((target - pred) ** 2)
    ss_tot = np.sum((target - target.mean()) ** 2)
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -np.inf
    return float(1.0 - ss_res / ss_tot)


QUANTITIES = ("w", "z_d", "z_r", "delta", "gamma", "alpha")


@dataclass(frozen=True)
class ReplicateReport:
    """Mean +/- standard error of RMSE / R^2 per quantity across replicates."""

    n_reps: int
    rmse_mean: dict
    rmse_se: dict
    r2_mean: dict
    r2_se: dict
    per_replicate: tuple
    failures: tuple

    def to_dict(self):
        return {
            "n_reps": self.n_reps,
            "rmse_mean": self.rmse_mean,
            "rmse_se": self.rmse_se,
            "r2_mean": self.r2_mean,
            "r2_se": self.r2_se,
            "per_replicate": list(self.per_replicate),
            "failures": list(self.failures),
        }


def _replicate_metrics(config, fit_config, rep_seed):
    sim = simulate(replace(config, seed=rep_seed))
    net, truth = sim.observed, sim.truth
    result = fit(net, replace(fit_config, freeze_beta=True, fixed_beta=config.beta, seed=rep_seed))
    refined = refine_network(net, result)
    pred_w = (
        refined.mu if config.edge_mean_convention == FULL_COMPATIBILITY else refined.eta
    )
    est = result.params
    src = np.vstack([est.z_d, est.z_r])
    tgt = np.vstack([truth.z_d, truth.z_r])
    aligned = procrustes_align(src, tgt).aligned
    zd_hat, zr_hat = aligned[: net.n_d], aligned[net.n_d :]
    errors = {
        "w": rmse(pred_w[net.edge_mask], net.edge_weight[net.edge_mask]),
        "z_d": rmse(zd_hat, truth.z_d),
        "z_r": rmse(zr_hat, truth.z_r),
        "delta": rmse(est.delta, truth.delta),
        "gamma": rmse(est.gamma, truth.gamma),
        "alpha": abs(est.alpha - truth.alpha),
    }
    r2 = {
        "w": _r2(pred_w[net.edge_mask], net.edge_weight[net.edge_mask]),
        "z_d": _r2(zd_hat, truth.z_d),
        "z_r": _r2(zr_hat, truth.z_r),
        "delta": _r2(est.delta, truth.delta),
        "gamma": _r2(est.gamma, truth.gamma),
    }
    return {"seed": rep_seed, "rmse": errors, "r2": r2, "converged": result.converged}


def run_replicates(config, fit_config, n_reps):
    """Simulate/fit/align/score ``n_reps`` replicates seeded from config.seed.

    Beta is frozen at its generating value during fitting (it is not
    identifiable jointly with the position scale).  Fit failures are recorded
    per replicate and excluded from the aggregates.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    per_rep = []
    failures = []
    for k in range(n_reps):
        try:
            per_rep.append(_replicate_metrics(config, fit_config, config.seed + k))
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed silently
            failures.append({"seed": config.seed + k, "error": str(exc)})
    if not per_rep:
        raise RuntimeError("all replicates failed: " + "; ".join(f["error"] for f in failures))

    def agg(metric, name):
        vals = np.array([r[metric][name] for r in per_rep])
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        return mean, se

    rmse_mean, rmse_se, r2_mean, r2_se = {}, {}, {}, {}
    for q in QUANTITIES:
        rmse_mean[q], rmse_se[q] = agg("rmse", q)
        if q != "alpha":
            r2_mean[q], r2_se[q] = agg("r2", q)
    return ReplicateReport(
        n_reps=n_reps,
        rmse_mean=rmse_mean,
        rmse_se=rmse_se,
        r2_mean=r2_mean,
        r2_se=r2_se,
        per_replicate=tuple(per_rep),
        failures=tuple(failures),
    )


_PRETTY = {"w": "w", "z_d": "z_d", "z_r": "z_r", "delta": "delta", "gamma": "gamma", "alpha": "alpha"}


def format_report_table(report, title=""):
    """Plain-text table with RMSE and R^2 blocks, one row per quantity."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'':6s} {'quantity':9s} {'mean':>10s} {'std err':>10s}")
    for q in QUANTITIES:
        lines.append(
            f"{'RMSE' if q == QUANTITIES[0] else '':6s} {_PRETTY[q]:9s} "
            f"{report.rmse_mean[q]:10.4f} {report.rmse_se[q]:10.4f}"
        )
    for i, q in enumerate(QUANTITIES[:-1]):
        lines.append(
            f"{'R^2' if i == 0 else '':6s} {_PRETTY[q]:9s} "
            f"{report.r2_mean[q]:10.4f} {report.r2_se[q]:10.4f}"
        )
    return "\n".join(lines) + "\n"
