import math

import numpy as np
import pytest

from netlsm import CompatibilityNetwork, DissimilarityMatrix, build_dissimilarity, classical_mds
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


class TestDissimilarity:
    def test_zero_weight_gives_half(self):
        d = build_dissimilarity(net_from_weights([[0.0]]))
        assert d.values[0, 1] == pytest.approx(0.5)

    def test_identical_rows_correlate_fully(self):
        w = np.array([[1.0, -0.5, 0.2], [1.0, -0.5, 0.2]]) * 2 + np.array([[0.0], [1.0]])
        # rows differ by a constant shift but correlate perfectly
        d = build_dissimilarity(net_from_weights(w))
        assert d.values[0, 1] == pytest.approx(1.0 - logistic(np.array(1.0)), abs=1e-12)

    def test_masked_pair_neutral(self):
        mask = np.array([[True, False], [True, True]])
        d = build_dissimilarity(net_from_weights([[1.0, 99.0], [0.3, -0.2]], mask))
        assert d.values[0, 2 + 1] == pytest.approx(0.5)  # donor 0, recipient 1

    def test_degenerate_correlation_is_neutral(self):
        # single column: fewer than 2 common indices -> rho = 0 -> 0.5
        d = build_dissimilarity(net_from_weights([[1.0], [2.0]]))
        assert d.values[0, 1] == pytest.approx(0.5)

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
        full = np.concatenate([perm_d, 5 + perm_r])
        base = build_dissimilarity(net).values
        shuf = build_dissimilarity(shuffled).values
        np.testing.assert_allclose(shuf, base[np.ix_(full, full)], atol=1e-14)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            DissimilarityMatrix(np.array([[0.0, 0.1], [0.3, 0.0]]), 1, 1)
        with pytest.raises(ValueError, match="diagonal"):
            DissimilarityMatrix(np.array([[0.1, 0.2], [0.2, 0.0]]), 1, 1)


def _loop_profile_correlation(w, mask, i, k):
    """Reference: Pearson correlation of rows i and k over jointly observed columns."""
    common = mask[i] & mask[k]
    if common.sum() < 2:
        return 0.0
    a = w[i, common]
    b = w[k, common]
    sa = a.std()
    sb = b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def loop_dissimilarity(net):
    """Reference: the per-pair construction that build_dissimilarity vectorizes."""
    n_d, n_r = net.n_d, net.n_r
    w = np.where(net.edge_mask, net.edge_weight, 0.0)
    vals = np.zeros((n_d + n_r, n_d + n_r))
    cross = 1.0 - logistic(w)
    vals[:n_d, n_d:] = cross
    vals[n_d:, :n_d] = cross.T
    for off, ww, mm in ((0, w, net.edge_mask), (n_d, w.T, net.edge_mask.T)):
        for i in range(ww.shape[0]):
            for k in range(i + 1, ww.shape[0]):
                d = 1.0 - logistic(_loop_profile_correlation(ww, mm, i, k))
                vals[off + i, off + k] = vals[off + k, off + i] = d
    return vals


class TestDissimilarityOracle:
    def test_random_masked_networks(self):
        rng = substream(4, "diss-oracle")
        for n_d, n_r, frac in ((2, 3, 0.0), (7, 5, 0.3), (12, 15, 0.5), (20, 9, 0.8)):
            net = random_network(rng, n_d, n_r, mask_frac=frac)
            diff = np.abs(build_dissimilarity(net).values - loop_dissimilarity(net))
            assert diff.max() <= 1e-12

    def test_fully_observed_is_exact(self):
        # every pair's common columns are the whole row, so the sums add in the
        # loop's order on both sides, the transposed one included
        net = random_network(substream(6, "diss-full"), 20, 25)
        assert np.array_equal(build_dissimilarity(net).values, loop_dissimilarity(net))

    def test_degenerate_rows(self):
        rng = substream(5, "diss-degenerate")
        w = rng.normal(size=(6, 9))
        mask = rng.random((6, 9)) >= 0.2
        w[0] = 0.75  # constant row; dyadic, so its mean and zero variance are exact
        mask[0] = True
        w[1, 4] = 1e8  # large offset, masked out of row 2's common columns
        mask[1, 4], mask[2, 4] = True, False
        mask[3] = False  # one observed column: < 2 common columns with any row
        mask[3, 0] = True
        mask[4] = False  # fully masked row
        net = net_from_weights(w, mask)
        got = build_dissimilarity(net).values
        assert np.abs(got - loop_dissimilarity(net)).max() <= 1e-12
        assert np.all(got[0, 1:6] == 0.5) and np.all(got[[3, 4], :6][:, [0, 1, 2, 5]] == 0.5)


class TestClassicalMds:
    def test_two_points(self):
        coords = classical_mds(np.array([[0.0, 2.0], [2.0, 0.0]]), 1)
        assert sorted(coords[:, 0]) == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_unit_square_exact(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        coords = classical_mds(dist, 2)
        rec = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        np.testing.assert_allclose(rec, dist, atol=1e-8)

    def test_negative_eigenvalue_clamped(self):
        # star metric: three leaves pairwise 2, hub at distance 1 from each;
        # not Euclidean-embeddable (circumradius of the leaf triangle > 1)
        d = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 2.0, 2.0],
            [1.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ])
        n = d.shape[0]
        j = np.eye(n) - np.ones((n, n)) / n
        b = -0.5 * j @ (d * d) @ j
        assert np.linalg.eigvalsh(b).min() < -1e-9  # confirms the construction
        coords = classical_mds(d, 4)
        assert np.all(np.isfinite(coords))
        assert np.allclose(coords[:, -1], 0.0)  # clamped direction is flat

    def test_column_centered(self):
        rng = substream(1, "mds")
        pts = rng.normal(size=(7, 3)) + 5.0
        dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        coords = classical_mds(dist, 3)
        assert np.max(np.abs(coords.mean(axis=0))) <= 1e-10

    def test_deterministic(self):
        rng = substream(2, "mds-det")
        net = random_network(rng, 6, 5, mask_frac=0.2)
        a = classical_mds(build_dissimilarity(net), 2)
        b = classical_mds(build_dissimilarity(net), 2)
        assert np.array_equal(a, b)


class TestMdsInit:
    def test_1x1_network(self):
        net = net_from_weights([[0.8]])
        z_d, z_r = mds_init(net, 2)
        d = 1.0 - logistic(np.array(0.8))
        assert abs(z_d[0, 0]) == pytest.approx(d / 2, abs=1e-12)
        assert abs(z_r[0, 0]) == pytest.approx(d / 2, abs=1e-12)
        assert z_d[0, 0] == pytest.approx(-z_r[0, 0], abs=1e-12)
        assert z_d[0, 1] == 0.0 and z_r[0, 1] == 0.0

    def test_top_weight_pair_initialized_close(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-1, 1, (12, 12))
        w[3, 5] = 6.0  # dominant weight
        net = net_from_weights(w)
        z_d, z_r = mds_init(net, 2)
        dist = np.sqrt(((z_d[:, None] - z_r[None]) ** 2).sum(-1))
        assert (dist < dist[3, 5]).mean() <= 0.10

    def test_splits_blocks(self):
        net = random_network(substream(3, "split"), 4, 7)
        z_d, z_r = mds_init(net, 2)
        assert z_d.shape == (4, 2) and z_r.shape == (7, 2)


class TestLogistic:
    def test_values(self):
        assert logistic(np.array(0.0)) == pytest.approx(0.5)
        assert logistic(np.array(1.0)) == pytest.approx(math.e / (1 + math.e))

    def test_clamp(self):
        assert logistic(np.array(1e6)) == logistic(np.array(30.0))
        assert logistic(np.array(-1e6)) == logistic(np.array(-30.0))
