"""PCA and non-negative matrix tri-factorization refinement baselines.

Both operate on the raw edge-weight matrix.  NMTF works on the logistic
transform of the weights (to make them non-negative), factorizes V ~ F S G^T
by multiplicative updates, and maps the reconstruction back by the logit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import substream
from .mdsinit import logistic

__all__ = ["NmtfConfig", "NmtfResult", "logit", "mean_impute", "pca_refine", "nmtf_refine"]

_EPS = 1e-12
_CLAMP = 1e-9


def logit(p):
    """Inverse of :func:`netlsm.mdsinit.logistic` on (0, 1)."""
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def mean_impute(weights, mask):
    """Fill masked-out entries with their column mean (global mean fallback)."""
    w = np.array(weights, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return w
    observed = w[mask]
    global_mean = observed.mean() if observed.size else 0.0
    for j in range(w.shape[1]):
        col = mask[:, j]
        fill = w[col, j].mean() if col.any() else global_mean
        w[~col, j] = fill
    return w


def pca_refine(weights, dim):
    """Reconstruct from the top-``dim`` principal components.

    Column means are removed before the SVD and restored afterwards, so
    ``dim = min(shape)`` reproduces the input exactly.
    """
    w = np.asarray(weights, dtype=float)
    if not (1 <= dim <= min(w.shape)):
        raise ValueError("dim must be in [1, min(n_d, n_r)]")
    mu = w.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(w - mu, full_matrices=False)
    rec = u[:, :dim] @ (s[:dim, None] * vt[:dim])
    return rec + mu


@dataclass(frozen=True)
class NmtfConfig:
    rank: int = 2
    max_iter: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")


@dataclass(frozen=True)
class NmtfResult:
    reconstruction: np.ndarray
    objective: float
    iterations: int
    converged: bool
    # squared Frobenius error after each update sweep, starting from the
    # initial factors; useful for monitoring the descent property
    objective_history: tuple = ()


def nmtf_refine(weights, config):
    """Tri-factorize logistic(weights) and return the logit of the reconstruction.

    Multiplicative updates minimize ||V - F S G^T||_F^2 with all factors kept
    non-negative.  Hitting ``max_iter`` without meeting the relative-change
    tolerance is not an error; the result carries ``converged=False``.
    """
    w = np.asarray(weights, dtype=float)
    n_d, n_r = w.shape
    k = config.rank
    if k > min(n_d, n_r):
        raise ValueError("rank must not exceed min(n_d, n_r)")
    v = logistic(w)
    rng = substream(config.seed, "nmtf-init")
    f = rng.uniform(size=(n_d, k))
    s = rng.uniform(size=(k, k))
    g = rng.uniform(size=(n_r, k))

    # The products of these small 2-D factors are taken with ndarray.dot, which
    # makes the BLAS calls of @ (gemm, or syrk for a^T a) at half its per-call
    # cost; tests pin every sweep's bits to the @ loop.
    vt = v.T

    def objective():
        r = f.dot(s).dot(g.T)
        np.subtract(v, r, out=r)
        return float(np.square(r, out=r).sum())

    def update(factor, numerator, denominator):
        # factor *= numerator / (denominator + eps), the temporaries reused
        denominator += _EPS
        numerator /= denominator
        factor *= numerator

    prev = objective()
    history = [prev]
    it = 0
    converged = False
    for it in range(1, config.max_iter + 1):
        sg = s.dot(g.T)
        update(f, v.dot(sg.T), f.dot(sg.dot(sg.T)))
        fs = f.dot(s)
        update(g, vt.dot(fs), g.dot(fs.T.dot(fs)))
        update(s, f.T.dot(v).dot(g), f.T.dot(f).dot(s).dot(g.T.dot(g)))
        cur = objective()
        history.append(cur)
        if abs(prev - cur) <= config.tol * max(prev, _EPS):
            converged = True
            prev = cur
            break
        prev = cur
    rec = np.clip(f @ s @ g.T, _CLAMP, 1.0 - _CLAMP)
    return NmtfResult(
        reconstruction=logit(rec),
        objective=prev,
        iterations=it,
        converged=converged,
        objective_history=tuple(history),
    )
