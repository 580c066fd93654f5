"""Synthetic network generator and replicate harness.

Generates bipartite networks from a planted latent-space truth with Gaussian
observation noise, then measures how well fitting recovers the truth across
seeded replicates (reported as mean +/- standard error per quantity).  Blocks
of one study that differ only in how their networks are generated are fit
together: at each replicate seed, every block's network is fit in one
lockstep (:func:`run_blocks`).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import substream
from .metrics import rmse
# ``fit`` is not called here, but perfbench/test_perfbench.py checks that the
# benchmark's tracer rebinds ``simulate.fit``.
from .model import fit  # noqa: F401
from .model import FitError, LsmParams, fit_networks, refine_network
from .network import CompatibilityNetwork
from .procrustes import procrustes_align

__all__ = [
    "PAIR_TERM_ONLY",
    "FULL_COMPATIBILITY",
    "SimConfig",
    "SimulatedNetwork",
    "simulate",
    "run_replicates",
    "run_blocks",
    "ReplicateReport",
    "format_report_table",
]

PAIR_TERM_ONLY = "pair_term_only"
FULL_COMPATIBILITY = "full_compatibility"
_CONVENTIONS = (PAIR_TERM_ONLY, FULL_COMPATIBILITY)
TRUTH_STD = math.sqrt(0.5)  # of each planted position coordinate and node effect


@dataclass(frozen=True)
class SimConfig:
    """One synthetic network: its shape, planted parameters, noise and seed.

    ``alpha``, ``beta``, ``sigma_w`` and ``sigma_node`` must be finite, and
    the last three > 0; a bad value raises ``ValueError`` naming the field.
    """

    n_d: int = 20
    n_r: int = 20
    dim: int = 2
    alpha: float = 1.0
    beta: float = 1.0
    sigma_w: float = 0.15
    sigma_node: float = 0.15
    edge_mean_convention: str = PAIR_TERM_ONLY
    seed: int = 0

    def __post_init__(self):
        if self.n_d < 1 or self.n_r < 1:
            raise ValueError("node counts must be >= 1")
        for name in ("sigma_w", "sigma_node", "beta"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")
        for name in ("alpha", "beta", "sigma_w", "sigma_node"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.edge_mean_convention not in _CONVENTIONS:
            raise ValueError(f"edge_mean_convention must be one of {_CONVENTIONS}")


@dataclass(frozen=True)
class SimulatedNetwork:
    truth: LsmParams
    observed: CompatibilityNetwork


def sample_truth(rng, n_d, n_r, dim, std, alpha, beta):
    """Planted :class:`LsmParams` with positions and node effects i.i.d. N(0, std^2).

    Draws from ``rng`` in this order: donor positions, recipient positions,
    donor effects, recipient effects.
    """
    z_d = std * rng.standard_normal((n_d, dim))
    z_r = std * rng.standard_normal((n_r, dim))
    delta = std * rng.standard_normal(n_d)
    gamma = std * rng.standard_normal(n_r)
    return LsmParams(z_d, z_r, alpha, beta, delta, gamma)


def _observe(truth, config, rng):
    eta = truth.affinity()
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

    The truth is :func:`sample_truth` at ``TRUTH_STD``.  All edges are
    observed (full mask); the observed network's standard-error fields are
    set to the generating noise levels, making them exact plug-ins.
    """
    rng = substream(config.seed, "simnet")
    truth = sample_truth(rng, config.n_d, config.n_r, config.dim, TRUTH_STD,
                         config.alpha, config.beta)
    return SimulatedNetwork(truth=truth, observed=_observe(truth, config, rng))


def simulate_train_test(config):
    """:func:`simulate`'s truth and two independently-noised observed networks.

    Returns (truth, train_net, test_net); the pair shares node labels and the
    full observation mask, so refinement of the train network can be scored
    against the test network.
    """
    truth = simulate(config).truth
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


@dataclass(frozen=True)
class ReplicateReport:
    """Mean +/- standard error of RMSE / R^2 per quantity across replicates, and
    the ``FitResult`` of each ``per_replicate`` entry, outside ``to_dict()`` and ``==``."""

    n_reps: int
    rmse_mean: dict
    rmse_se: dict
    r2_mean: dict
    r2_se: dict
    per_replicate: tuple
    failures: tuple
    fits: tuple = field(default=(), compare=False, repr=False)

    def to_dict(self):
        return {"n_reps": self.n_reps, "rmse_mean": self.rmse_mean, "rmse_se": self.rmse_se,
                "r2_mean": self.r2_mean, "r2_se": self.r2_se,
                "per_replicate": self.per_replicate, "failures": self.failures}


def _replicate_metrics(config, sim, result, rep_seed):
    net, truth = sim.observed, sim.truth
    refined = refine_network(net, result)
    pred_w = (
        refined.mu if config.edge_mean_convention == FULL_COMPATIBILITY else refined.eta
    )
    est = result.params
    src = np.vstack([est.z_d, est.z_r])
    tgt = np.vstack([truth.z_d, truth.z_r])
    aligned = procrustes_align(src, tgt).aligned
    pairs = {  # quantity -> (estimate, truth)
        "w": (pred_w[net.edge_mask], net.edge_weight[net.edge_mask]),
        "z_d": (aligned[: net.n_d], truth.z_d),
        "z_r": (aligned[net.n_d :], truth.z_r),
        "delta": (est.delta, truth.delta),
        "gamma": (est.gamma, truth.gamma),
    }
    errors = {q: rmse(*pair) for q, pair in pairs.items()}
    errors["alpha"] = abs(est.alpha - truth.alpha)  # a scalar: no R^2
    r2 = {q: _r2(*pair) for q, pair in pairs.items()}
    return {"seed": rep_seed, "rmse": errors, "r2": r2, "converged": result.converged}


def _report(n_reps, per_rep, failures, fits):
    """Mean and standard error across ``per_rep`` of each quantity its records carry."""
    stats = []
    for metric in ("rmse", "r2"):
        mean, se = {}, {}
        for q in per_rep[0][metric] if per_rep else ():
            vals = np.array([r[metric][q] for r in per_rep])
            mean[q] = float(vals.mean())
            se[q] = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        stats += [mean, se]
    return ReplicateReport(n_reps, *stats, tuple(per_rep), tuple(failures), tuple(fits))


def run_blocks(configs, fit_config, n_reps):
    """:func:`run_replicates` of each block of ``configs``, one report per block.

    There must be at least one block, and the blocks must share one seed and
    one network shape (else ``ValueError``), so that replicate ``k`` of every
    block has the seed ``seed + k`` and one :class:`~netlsm.model.FitConfig`:
    for each replicate seed, the blocks' networks are fit together in one
    lockstep by :func:`~netlsm.model.fit_networks`, which gives each the
    result its own fit would.  A lockstep holds at most ``len(configs) *
    (restarts + 1)`` starts, whatever ``n_reps`` is.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_blocks needs at least one block")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if len({(c.seed, c.n_d, c.n_r) for c in configs}) != 1:
        raise ValueError("blocks must share their seed and network shape")
    per_rep = [[] for _ in configs]
    failures = [[] for _ in configs]
    fits = [[] for _ in configs]
    for rep_seed in range(configs[0].seed, configs[0].seed + n_reps):
        sims = [simulate(replace(c, seed=rep_seed)) for c in configs]
        outcomes = fit_networks([sim.observed for sim in sims], replace(fit_config, seed=rep_seed))
        for b, (config, sim, outcome) in enumerate(zip(configs, sims, outcomes)):
            if isinstance(outcome, FitError):
                failures[b].append({"seed": rep_seed, "error": str(outcome)})
            else:
                per_rep[b].append(_replicate_metrics(config, sim, outcome, rep_seed))
                fits[b].append(outcome)
    return [_report(n_reps, *block) for block in zip(per_rep, failures, fits)]


def run_replicates(config, fit_config, n_reps):
    """Simulate/fit/align/score ``n_reps`` replicates seeded from config.seed.

    Fits hold beta at 1, the model's gauge (beta is not identifiable jointly
    with the position scale); positions are scored after a Procrustes
    alignment that fits the scale, so a truth generated with another beta is
    recovered as well.  A replicate whose fit raises :class:`FitError` is
    recorded under ``failures`` and excluded from the aggregates, which are
    empty if every replicate failed; any other error propagates.  This is
    the one-block case of :func:`run_blocks`.
    """
    return run_blocks([config], fit_config, n_reps)[0]


def format_report_table(report, title=""):
    """Plain-text table with RMSE and R^2 blocks, one row per quantity in the report's order."""
    lines = []
    if title:
        lines.append(title)
    if not report.per_replicate:
        return "\n".join(lines + ["no replicate succeeded"]) + "\n"
    lines.append(f"{'':6s} {'quantity':9s} {'mean':>10s} {'std err':>10s}")
    for label, mean, se in (("RMSE", report.rmse_mean, report.rmse_se),
                            ("R^2", report.r2_mean, report.r2_se)):
        for i, q in enumerate(mean):
            lines.append(f"{label if i == 0 else '':6s} {q:9s} {mean[q]:10.4f} {se[q]:10.4f}")
    return "\n".join(lines) + "\n"
