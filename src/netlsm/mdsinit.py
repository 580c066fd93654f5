"""Start positions of a fit: classical scaling of the edge weights.

Under the model (beta at its gauge value 1), ``w_ij ~ alpha - ||z_d_i -
z_r_j||^2``, so ``-w`` is the block of squared donor-recipient distances up to
the constant alpha.  Double-centring it removes alpha and every row and column
term and leaves ``J Z_d Z_r^T J``, whose rank-``dim`` SVD places both sides at
once: classical scaling in its bipartite form, Schönemann's metric unfolding
(1970).  Unobserved edges are imputed additively, for this construction only.
"""

import numpy as np

__all__ = ["logistic", "build_dissimilarity", "classical_mds", "mds_init"]


def logistic(x):
    """1 / (1 + exp(-x)) with input clamped to [-30, 30] to avoid overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def build_dissimilarity(net):
    """The ``n_d x n_r`` block ``-w``: squared distances up to a constant.

    A masked cell is imputed as row mean + column mean - grand mean of the
    observed weights; a row or column with no observed weight takes the grand
    mean as its mean.
    """
    m = net.edge_mask
    w = np.where(m, net.edge_weight, 0.0)
    grand = w.sum() / m.sum()
    n_row, n_col = m.sum(axis=1), m.sum(axis=0)
    row = np.divide(w.sum(axis=1), n_row, out=np.full(net.n_d, grand), where=n_row > 0)
    col = np.divide(w.sum(axis=0), n_col, out=np.full(net.n_r, grand), where=n_col > 0)
    return -np.where(m, w, row[:, None] + col[None, :] - grand)


def classical_mds(d2, dim):
    """Classical scaling of a block of squared dissimilarities, rows against columns.

    Double-centres ``-d2 / 2`` (rows, then columns), takes its SVD ``U S V^T``
    and returns ``(U sqrt(S), V sqrt(S))`` for the top ``dim`` components, so
    that ``rows @ cols.T`` is the best rank-``dim`` approximation of the
    centred block.  Each component is signed so that the largest-magnitude
    entry of its ``U`` column is positive.  Directions beyond the block's rank
    (singular values below ``max(shape) * eps`` of the largest) get zero
    coordinates.  On a square symmetric block this is Torgerson scaling.
    """
    b = -0.5 * np.asarray(d2, dtype=float)
    b = b - b.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    k = min(dim, s.size)
    s = np.where(s[:k] > s[0] * max(b.shape) * np.finfo(float).eps, s[:k], 0.0)
    u = u[:, :k]
    sign = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(k)])
    rows, cols = np.zeros((b.shape[0], dim)), np.zeros((b.shape[1], dim))
    rows[:, :k] = u * (sign * np.sqrt(s))
    cols[:, :k] = vt[:k].T * (sign * np.sqrt(s))
    return rows, cols


def mds_init(net, dim):
    """Initial ``(z_d, z_r)``: classical scaling of the edge-weight block."""
    return classical_mds(build_dissimilarity(net), dim)
