import math

import numpy as np
import pytest

from netlsm import CompatibilityNetwork, build_dissimilarity, classical_mds
from netlsm.mdsinit import logistic, mds_init
from netlsm._util import substream

from helpers import random_network


def net_from_weights(w, mask=None):
    w = np.asarray(w, dtype=float)
    n_d, n_r = w.shape
    return CompatibilityNetwork(
        tuple(f"d{i}" for i in range(n_d)),
        tuple(f"r{j}" for j in range(n_r)),
        np.zeros(n_d), np.ones(n_d),
        np.zeros(n_r), np.ones(n_r),
        w, np.ones_like(w), mask,
    )


def double_centred(b):
    b = b - b.mean(axis=1, keepdims=True)
    return b - b.mean(axis=0, keepdims=True)


def sq_distances(a, b):
    return ((a[:, None] - b[None]) ** 2).sum(-1)


class TestDissimilarity:
    def test_masked_pair_neutral(self):
        # a masked pair gets the additive value row mean + column mean - grand
        # mean, which carries no donor-recipient interaction of its own
        mask = np.array([[True, False], [True, True]])
        d = build_dissimilarity(net_from_weights([[1.0, 99.0], [0.25, -0.5]], mask))
        row, col, grand = 1.0, -0.5, (1.0 + 0.25 - 0.5) / 3
        assert d[0, 1] == pytest.approx(-(row + col - grand), abs=1e-15)
        assert d[0, 0] == -1.0 and d[1, 0] == -0.25 and d[1, 1] == 0.5

    def test_permutation_invariance(self):
        rng = substream(0, "perm")
        net = random_network(rng, 5, 4, mask_frac=0.3)
        perm_d = rng.permutation(5)
        perm_r = rng.permutation(4)
        shuffled = CompatibilityNetwork(
            tuple(net.donor_labels[i] for i in perm_d),
            tuple(net.recipient_labels[j] for j in perm_r),
            net.donor_weight[perm_d], net.donor_se[perm_d],
            net.recipient_weight[perm_r], net.recipient_se[perm_r],
            net.edge_weight[np.ix_(perm_d, perm_r)],
            net.edge_se[np.ix_(perm_d, perm_r)],
            net.edge_mask[np.ix_(perm_d, perm_r)],
        )
        base = build_dissimilarity(net)
        np.testing.assert_allclose(build_dissimilarity(shuffled), base[np.ix_(perm_d, perm_r)],
                                   atol=1e-14)


def loop_dissimilarity(net):
    """Reference: the per-cell construction that build_dissimilarity vectorizes."""
    w, m = net.edge_weight, net.edge_mask
    grand = np.mean(w[m])
    out = np.empty(w.shape)
    for i in range(net.n_d):
        for j in range(net.n_r):
            if m[i, j]:
                out[i, j] = -w[i, j]
                continue
            row = np.mean(w[i, m[i]]) if m[i].any() else grand
            col = np.mean(w[m[:, j], j]) if m[:, j].any() else grand
            out[i, j] = -(row + col - grand)
    return out


class TestDissimilarityOracle:
    def test_random_masked_networks(self):
        rng = substream(4, "diss-oracle")
        for n_d, n_r, frac in ((2, 3, 0.0), (7, 5, 0.3), (12, 15, 0.5), (20, 9, 0.8)):
            net = random_network(rng, n_d, n_r, mask_frac=frac)
            d = build_dissimilarity(net)
            assert d.shape == (n_d, n_r)
            assert np.abs(d - loop_dissimilarity(net)).max() <= 1e-12

    def test_fully_observed_is_exact(self):
        # every cell is observed, so the block is exactly -w
        net = random_network(substream(6, "diss-full"), 20, 25)
        assert np.array_equal(build_dissimilarity(net), -net.edge_weight)

    def test_degenerate_rows(self):
        # a fully masked row (or column) takes the grand mean as its mean, so
        # its cells get the column (or row) mean, and a cell in both gets the
        # grand mean; observed cells stay -w exactly
        rng = substream(5, "diss-degenerate")
        w = rng.normal(size=(6, 9))
        mask = rng.random((6, 9)) >= 0.2
        mask[4] = False
        mask[:, 7] = False
        net = net_from_weights(w, mask)
        got = build_dissimilarity(net)
        assert np.abs(got - loop_dissimilarity(net)).max() <= 1e-12
        assert np.array_equal(got[mask], -w[mask])
        grand = np.mean(w[mask])
        assert got[4, 7] == pytest.approx(-grand, abs=1e-14)
        for j in (0, 3):
            assert got[4, j] == pytest.approx(-np.mean(w[mask[:, j], j]), abs=1e-14)
        for i in (1, 5):
            assert got[i, 7] == pytest.approx(-np.mean(w[i, mask[i]]), abs=1e-14)


class TestClassicalMds:
    def test_two_points(self):
        rows, cols = classical_mds(np.array([[0.0, 4.0], [4.0, 0.0]]), 1)
        assert sorted(rows[:, 0]) == pytest.approx([-1.0, 1.0], abs=1e-12)
        np.testing.assert_allclose(cols, rows, atol=1e-12)

    def test_unit_square_exact(self):
        # a square symmetric block is Torgerson scaling: both sides give the
        # same coordinates, whose distances are the input's
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        rows, cols = classical_mds(sq_distances(pts, pts), 2)
        np.testing.assert_allclose(sq_distances(rows, rows), sq_distances(pts, pts), atol=1e-12)
        np.testing.assert_allclose(cols, rows, atol=1e-12)

    def test_euclidean_block_distances_match(self):
        rng = substream(3, "mds-euclid")
        pts = rng.normal(size=(9, 3)) + 5.0
        d2 = sq_distances(pts, pts)
        rows, cols = classical_mds(d2, 3)
        np.testing.assert_allclose(sq_distances(rows, rows), d2, atol=1e-10)
        np.testing.assert_allclose(sq_distances(cols, cols), d2, atol=1e-10)

    def test_full_rank_reproduces_the_centred_block(self):
        w = substream(8, "mds-full").normal(size=(7, 5))
        rows, cols = classical_mds(-w, 5)
        assert np.max(np.abs(rows @ cols.T - double_centred(w / 2))) <= 1e-12

    def test_column_centered(self):
        rng = substream(1, "mds")
        w = rng.normal(size=(8, 6)) + 5.0
        rows, cols = classical_mds(-w, 3)
        assert np.max(np.abs(rows.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(cols.mean(axis=0))) <= 1e-12

    def test_deterministic(self):
        rng = substream(2, "mds-det")
        net = random_network(rng, 6, 5, mask_frac=0.2)
        a = classical_mds(build_dissimilarity(net), 2)
        b = classical_mds(build_dissimilarity(net), 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_sign_convention(self):
        # each component's largest-magnitude donor coordinate is positive,
        # whatever the sign of the block
        w = substream(9, "mds-sign").normal(size=(10, 8))
        for block in (-w, w):
            rows, cols = classical_mds(block, 3)
            pivot = np.argmax(np.abs(rows), axis=0)
            assert np.all(rows[pivot, np.arange(3)] > 0.0)

    def test_beyond_the_rank_is_zero(self):
        # squared distances between 2-D points centre to a rank-2 block; the
        # directions past it, and past min(n_d, n_r), get zero coordinates
        rng = substream(10, "mds-rank")
        d2 = sq_distances(rng.normal(size=(20, 2)), rng.normal(size=(15, 2)))
        rows, cols = classical_mds(d2, 4)
        assert np.all(rows[:, 2:] == 0.0) and np.all(cols[:, 2:] == 0.0)
        assert np.all(rows[:, :2] != 0.0)
        rows, cols = classical_mds(substream(11, "mds-wide").normal(size=(3, 2)), 4)
        assert rows.shape == (3, 4) and cols.shape == (2, 4)
        assert np.all(rows[:, 2:] == 0.0) and np.all(cols[:, 2:] == 0.0)


class TestMdsInit:
    def test_1x1_network(self):
        # one cell centres to zero: nothing to place, every coordinate is zero
        z_d, z_r = mds_init(net_from_weights([[0.8]]), 2)
        assert z_d.shape == (1, 2) and z_r.shape == (1, 2)
        assert np.all(z_d == 0.0) and np.all(z_r == 0.0)

    def test_top_weight_pair_initialized_close(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-1, 1, (12, 12))
        w[3, 5] = 6.0  # dominant weight
        net = net_from_weights(w)
        z_d, z_r = mds_init(net, 2)
        dist = np.sqrt(sq_distances(z_d, z_r))
        assert (dist < dist[3, 5]).mean() <= 0.10

    def test_splits_blocks(self):
        net = random_network(substream(3, "split"), 4, 7)
        z_d, z_r = mds_init(net, 2)
        assert z_d.shape == (4, 2) and z_r.shape == (7, 2)

    def test_noiseless_network_is_reproduced(self):
        # with w = alpha - ||z_d - z_r||^2 exactly, the start's inner products
        # reproduce the centred block of the truth's
        rng = substream(12, "mds-noiseless")
        z_d, z_r = rng.normal(size=(9, 2)), rng.normal(size=(7, 2))
        w = 1.0 - sq_distances(z_d, z_r)
        s_d, s_r = mds_init(net_from_weights(w), 2)
        target = double_centred(z_d @ z_r.T)
        assert np.max(np.abs(s_d @ s_r.T - target)) <= 1e-12


class TestLogistic:
    def test_values(self):
        assert logistic(np.array(0.0)) == pytest.approx(0.5)
        assert logistic(np.array(1.0)) == pytest.approx(math.e / (1 + math.e))

    def test_clamp(self):
        assert logistic(np.array(1e6)) == logistic(np.array(30.0))
        assert logistic(np.array(-1e6)) == logistic(np.array(-30.0))
