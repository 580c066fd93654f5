"""Classical MDS initialization of latent positions.

Cross-type dissimilarities come from a logistic squashing of the observed
edge weights; same-type dissimilarities use Pearson correlations between two
nodes' edge-weight profiles over the other side.  Unobserved edges are
imputed as weight 0 (neutral, dissimilarity 0.5) for this construction only.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["DissimilarityMatrix", "logistic", "build_dissimilarity", "classical_mds", "mds_init"]


def logistic(x):
    """1 / (1 + exp(-x)) with input clamped to [-30, 30] to avoid overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric dissimilarities in [0, 1] over donors (first) then recipients."""

    values: np.ndarray
    n_d: int
    n_r: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = self.n_d + self.n_r
        if v.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ValueError("values must be symmetric")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("entries must lie in [0, 1]")
        object.__setattr__(self, "values", v)


def _profile_correlations(w, mask):
    """Pearson correlations between all rows of ``w`` over jointly observed columns.

    One row at a time against every later row, with the two-pass centred
    formula: means over the common columns first, then the centred moments.
    Pairs with fewer than 2 common columns or a zero variance get 0.
    """
    # C order, so a row sum adds in the same order as the sum of that row alone
    w, mask = np.ascontiguousarray(w), np.ascontiguousarray(mask)
    n = w.shape[0]
    rho = np.zeros((n, n))
    for i in range(n - 1):
        common = mask[i] & mask[i + 1 :]
        cnt = common.sum(axis=1)
        size = np.maximum(cnt, 1)
        a = np.where(common, w[i], 0.0)
        b = np.where(common, w[i + 1 :], 0.0)
        a = np.where(common, a - (a.sum(axis=1) / size)[:, None], 0.0)
        b = np.where(common, b - (b.sum(axis=1) / size)[:, None], 0.0)
        cov = (a * b).sum(axis=1) / size
        scale = np.sqrt((a * a).sum(axis=1) / size) * np.sqrt((b * b).sum(axis=1) / size)
        ok = (cnt >= 2) & (scale > 0.0)
        rho[i, i + 1 :] = np.divide(cov, scale, out=np.zeros(n - 1 - i), where=ok)
    return rho + rho.T


def build_dissimilarity(net):
    """Dissimilarity matrix over all nodes of ``net`` (donors first)."""
    n_d, n_r = net.n_d, net.n_r
    w = np.where(net.edge_mask, net.edge_weight, 0.0)
    n = n_d + n_r
    vals = np.zeros((n, n))
    cross = 1.0 - logistic(w)
    vals[:n_d, n_d:] = cross
    vals[n_d:, :n_d] = cross.T
    vals[:n_d, :n_d] = 1.0 - logistic(_profile_correlations(w, net.edge_mask))
    vals[n_d:, n_d:] = 1.0 - logistic(_profile_correlations(w.T, net.edge_mask.T))
    np.fill_diagonal(vals, 0.0)
    return DissimilarityMatrix(vals, n_d, n_r)


def classical_mds(diss, dim):
    """Classical (Torgerson) MDS embedding of a dissimilarity matrix.

    Double-centers the squared dissimilarities, eigendecomposes, and returns
    the top-``dim`` eigenvector coordinates scaled by sqrt(eigenvalue).
    Negative eigenvalues are clamped to zero, yielding zero coordinates in
    those directions.
    """
    d = diss.values if isinstance(diss, DissimilarityMatrix) else np.asarray(diss, dtype=float)
    n = d.shape[0]
    if not (1 <= dim <= n):
        raise ValueError("dim must be in [1, n]")
    d2 = d * d
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1][:dim]
    lam = np.clip(evals[order], 0.0, None)
    vecs = evecs[:, order]
    # deterministic sign: largest-magnitude entry of each eigenvector positive
    for c in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, c]))
        if vecs[pivot, c] < 0:
            vecs[:, c] = -vecs[:, c]
    return vecs * np.sqrt(lam)[None, :]


def mds_init(net, dim):
    """Initial (z_d, z_r) positions from dissimilarity construction + MDS."""
    coords = classical_mds(build_dissimilarity(net), dim)
    return coords[: net.n_d], coords[net.n_d :]
