import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
import scipy.optimize
from scipy.stats import ortho_group

from netlsm import (
    CompatibilityNetwork,
    FitConfig,
    FitError,
    FitResult,
    LsmParams,
    fit,
    fit_networks,
    log_likelihood,
    log_likelihood_gradient,
    pair_affinity,
    refine_network,
)
from netlsm.model import (
    _BIG,
    _STATUS_MESSAGES,
    _TASK_MESSAGES,
    SE_FLOOR,
    _flapack,
    _floored,
    _full_params,
    _Objective,
    _polish,
    _sqdist,
    _start_points,
    minimize,
    pack_params,
    unpack_params,
)
from netlsm.procrustes import procrustes_align
from netlsm.simulate import FULL_COMPATIBILITY, PAIR_TERM_ONLY, SimConfig, simulate
from netlsm.survival import (
    SurvivalGenConfig,
    cox_fit,
    design_matrix,
    extract_network,
    simulate_transplants,
)
from netlsm._util import substream

from helpers import noiseless_network, random_network, random_params

HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def params_1x1(z_d, z_r, alpha=1.0, beta=1.0, delta=0.0, gamma=0.0):
    return LsmParams(np.array([z_d]), np.array([z_r]), alpha, beta,
                     np.array([delta]), np.array([gamma]))


class TestPointwise:
    def test_pair_affinity_examples(self):
        assert pair_affinity(params_1x1((0, 0), (0, 0)), 0, 0) == pytest.approx(1.0)
        assert pair_affinity(params_1x1((1, 0), (0, 0)), 0, 0) == pytest.approx(0.0)
        assert pair_affinity(params_1x1((1, 1), (0, 0), beta=2.0), 0, 0) == pytest.approx(-3.0)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError, match="beta"):
            params_1x1((0, 0), (0, 0), beta=0.0)

    def test_latent_dimension_must_be_at_least_1(self):
        # unchecked, affinity() raised a TypeError from _sqdist
        with pytest.raises(ValueError, match="latent dimension must be >= 1"):
            LsmParams(np.zeros((2, 0)), np.zeros((3, 0)), 0.0, 1.0, np.zeros(2), np.zeros(3))


def einsum_sqdist(z_d, z_r):
    u = z_d[:, None, :] - z_r[None, :, :]
    return np.einsum("ijk,ijk->ij", u, u)


class TestSqdist:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_d, n_r", [(1, 1), (1, 7), (7, 5), (60, 60)])
    def test_equals_the_einsum_bit_for_bit(self, n_d, n_r, dim):
        # the per-axis sum adds the even and odd axes apart, in the einsum's
        # order, so at dims 1 and 2 the bits agree on any build
        rng = substream(dim, "sqdist", str(n_d), str(n_r))
        for scale in (1e-3, 1.0, 1e3):
            z_d, z_r = scale * rng.standard_normal((n_d, dim)), rng.standard_normal((n_r, dim))
            assert np.array_equal(_sqdist(z_d, z_r), einsum_sqdist(z_d, z_r))

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_matches_the_einsum_at_higher_dims(self, dim):
        # beyond dim 2 the einsum's summation order is build-specific
        rng = substream(dim, "sqdist-high")
        z_d, z_r = rng.standard_normal((9, dim)), rng.standard_normal((11, dim))
        np.testing.assert_allclose(_sqdist(z_d, z_r), einsum_sqdist(z_d, z_r), rtol=1e-15, atol=0)

    def test_overflow_is_non_finite_only_where_it_occurs(self):
        rng = substream(9, "sqdist-overflow")
        z_d, z_r = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
        z_d[1, 0] = 1e200
        z_r[2, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = _sqdist(z_d, z_r)
        finite = np.ones((4, 3), dtype=bool)
        finite[1, :] = finite[:, 2] = False
        assert np.array_equal(np.isfinite(d2), finite)
        assert np.all(d2[1, :2] == np.inf) and np.all(np.isnan(d2[:, 2]))
        with np.errstate(invalid="ignore"):
            assert np.array_equal(d2[finite], einsum_sqdist(z_d, z_r)[finite])


class TestLogLikelihood:
    def test_all_at_mean_unit_se(self):
        # w = eta and node weights at their effects, every se = 1:
        # each of the three terms is -0.5*ln(2*pi)
        p = params_1x1((0.3, -0.2), (0.1, 0.4), delta=0.5, gamma=-0.7)
        eta = pair_affinity(p, 0, 0)
        net = CompatibilityNetwork(
            ("d0",), ("r0",), [0.5], [1.0], [-0.7], [1.0], [[eta]], [[1.0]], None
        )
        assert log_likelihood(p, net) == pytest.approx(-3 * HALF_LN_2PI, abs=1e-12)

    def test_one_sigma_deviation(self):
        p = params_1x1((0.3, -0.2), (0.1, 0.4), delta=0.5, gamma=-0.7)
        eta = pair_affinity(p, 0, 0)
        sigma = 0.4
        net = CompatibilityNetwork(
            ("d0",), ("r0",), [0.5], [1.0], [-0.7], [1.0],
            [[eta + sigma]], [[sigma]], None
        )
        expect = (-0.5 * math.log(2 * math.pi * sigma**2) - 0.5) - 2 * HALF_LN_2PI
        assert log_likelihood(p, net) == pytest.approx(expect, abs=1e-12)

    def test_per_term_oracle(self):
        rng = substream(7, "ll-oracle")
        net = random_network(rng, 4, 3, mask_frac=0.3)
        p = random_params(rng, 4, 3, 2)

        def norm_logpdf(x, m, s):
            return -0.5 * math.log(2 * math.pi * s * s) - (x - m) ** 2 / (2 * s * s)

        total = 0.0
        for i in range(4):
            total += norm_logpdf(net.donor_weight[i], p.delta[i], net.donor_se[i])
            for j in range(3):
                if net.edge_mask[i, j]:
                    eta = pair_affinity(p, i, j)
                    total += norm_logpdf(net.edge_weight[i, j], eta, net.edge_se[i, j])
        for j in range(3):
            total += norm_logpdf(net.recipient_weight[j], p.gamma[j], net.recipient_se[j])
        assert abs(log_likelihood(p, net) - total) <= 1e-12 * max(1.0, abs(total))

    def test_rotation_translation_invariance(self):
        rng = substream(3, "rot")
        net = random_network(rng, 8, 6)
        p = random_params(rng, 8, 6, 2)
        ll0 = log_likelihood(p, net)
        for k in range(5):
            q = ortho_group.rvs(2, random_state=k)
            t = substream(k, "shift").normal(size=2)
            p2 = LsmParams(p.z_d @ q + t, p.z_r @ q + t, p.alpha, p.beta, p.delta, p.gamma)
            assert abs(log_likelihood(p2, net) - ll0) <= 1e-10


class TestGradient:
    def test_zero_at_noiseless_optimum(self):
        p = random_params(substream(1, "g0"), 5, 4, 2)
        net = noiseless_network(p, se=0.01)
        g = log_likelihood_gradient(p, net)
        assert np.max(np.abs(g)) <= 1e-10

    def test_matches_finite_differences(self):
        rng = substream(2, "fd")
        n_d, n_r, dim = 5, 4, 2
        net = random_network(rng, n_d, n_r, mask_frac=0.25)
        p = random_params(rng, n_d, n_r, dim)
        x0 = pack_params(p)
        a = log_likelihood_gradient(p, net)
        h = 1e-5
        for k in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += h
            xm[k] -= h
            fd = (
                log_likelihood(unpack_params(xp, n_d, n_r, dim), net)
                - log_likelihood(unpack_params(xm, n_d, n_r, dim), net)
            ) / (2 * h)
            assert abs(a[k] - fd) <= 1e-5 * max(1.0, abs(a[k]), abs(fd))

    def test_fully_masked_donor_row(self):
        rng = substream(4, "maskrow")
        n_d, n_r = 3, 3
        mask = np.ones((n_d, n_r), dtype=bool)
        mask[0, :] = False
        net = random_network(rng, n_d, n_r)
        net = type(net)(net.donor_labels, net.recipient_labels,
                        net.donor_weight, net.donor_se,
                        net.recipient_weight, net.recipient_se,
                        net.edge_weight, net.edge_se, mask)
        p = random_params(rng, n_d, n_r, 2)
        g = log_likelihood_gradient(p, net)
        g_zd = g[: n_d * 2].reshape(n_d, 2)
        assert np.all(g_zd[0] == 0.0)
        d_start = n_d * 2 + n_r * 2 + 2
        g_delta = g[d_start : d_start + n_d]
        expect = (net.donor_weight - p.delta) / net.donor_se**2
        np.testing.assert_allclose(g_delta, expect, rtol=0, atol=1e-14)


def fd_hessian(objective, x):
    """Central differences of the kernel gradient at optimizer vector ``x``."""
    h = np.empty((x.size, x.size))
    for k in range(x.size):
        eps = 1e-6 * max(1.0, abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += eps
        xm[k] -= eps
        h[:, k] = (objective.at(xp, 0)[1] - objective.at(xm, 0)[1]) / (2.0 * eps)
    return h


def with_tiny_se(net, rng, count):
    """Copy of ``net`` with ``count`` observed edge SEs below SE_FLOOR."""
    se = net.edge_se.copy()
    obs = np.argwhere(net.edge_mask)
    for i, j in obs[rng.choice(len(obs), size=count, replace=False)]:
        se[i, j] = SE_FLOOR * rng.uniform(0.01, 0.9)
    return type(net)(net.donor_labels, net.recipient_labels, net.donor_weight, net.donor_se,
                     net.recipient_weight, net.recipient_se, net.edge_weight, se,
                     net.edge_mask)


def ref_log_likelihood_hessian(params, net):
    """Reference: the former public Hessian over (z_d, z_r, alpha, b = log(beta))."""
    z_d, z_r, beta, dim = params.z_d, params.z_r, params.beta, params.dim
    n_d, n_r = z_d.shape[0], z_r.shape[0]
    u = z_d[:, None, :] - z_r[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", u, u)
    eta = params.alpha - beta * d2
    se = _floored(net.edge_se)
    c = np.where(net.edge_mask, 1.0 / (se * se), 0.0)
    e = np.where(net.edge_mask, (net.edge_weight - eta) / (se * se), 0.0)
    v = np.sqrt(c)[:, :, None] * u
    cuu = v[:, :, :, None] * v[:, :, None, :]  # c_ij u_ij u_ij^T, (n_d, n_r, dim, dim)
    eye = np.eye(dim)
    nzd, nz = n_d * dim, (n_d + n_r) * dim
    h = np.zeros((nz + 2, nz + 2))

    cross = 4.0 * beta**2 * cuu + 2.0 * beta * e[:, :, None, None] * eye
    h[:nzd, nzd:nz] = cross.transpose(0, 2, 1, 3).reshape(nzd, nz - nzd)
    h[nzd:nz, :nzd] = h[:nzd, nzd:nz].T
    for axis, start, n in ((1, 0, n_d), (0, nzd, n_r)):
        blocks = -4.0 * beta**2 * cuu.sum(axis=axis)
        blocks -= 2.0 * beta * e.sum(axis=axis)[:, None, None] * eye
        rows = start + np.arange(n * dim).reshape(n, dim)
        h[rows[:, :, None], rows[:, None, :]] = blocks

    cu = c[:, :, None] * u
    wu = (beta * c * d2 + e)[:, :, None] * u
    h_alpha = 2.0 * beta * np.concatenate([cu.sum(axis=1).ravel(), -cu.sum(axis=0).ravel()])
    h_b = -2.0 * beta * np.concatenate([wu.sum(axis=1).ravel(), -wu.sum(axis=0).ravel()])
    h[nz, :nz] = h[:nz, nz] = h_alpha
    h[nz + 1, :nz] = h[:nz, nz + 1] = h_b
    h[nz, nz] = -c.sum()
    h[nz, nz + 1] = h[nz + 1, nz] = beta * (c * d2).sum()
    h[nz + 1, nz + 1] = -(beta**2) * (c * d2 * d2).sum() - beta * (e * d2).sum()
    return h


def with_mask(net, mask):
    """Copy of ``net`` observed on ``mask``."""
    return type(net)(net.donor_labels, net.recipient_labels, net.donor_weight, net.donor_se,
                     net.recipient_weight, net.recipient_se, net.edge_weight, net.edge_se, mask)


def gauged(p, net):
    """``p`` at beta 1 with the node effects at the node weights, as the kernel sees it."""
    return LsmParams(p.z_d, p.z_r, p.alpha, 1.0, net.donor_weight, net.recipient_weight)


class TestHessian:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("tiny", [0, 2])
    def test_matches_finite_differences(self, dim, tiny):
        rng = substream(dim, "hess", str(tiny))
        n_d, n_r = 6, 5
        net = with_tiny_se(random_network(rng, n_d, n_r, mask_frac=0.3), rng, tiny)
        objective = _Objective([net], dim)
        x = coupled(random_params(rng, n_d, n_r, dim))
        h = objective.hessian(x, 0)
        assert h.shape == (x.size, x.size) and x.size == (n_d + n_r) * dim + 1
        assert np.max(np.abs(h - h.T)) <= 1e-12 * np.max(np.abs(h))
        fd = fd_hessian(objective, x)
        assert np.max(np.abs(fd - h)) <= 1e-6 * np.max(np.abs(h))

    def test_frozen_beta_sub_block(self):
        # with beta held at the gauge, the kernel Hessian is the former public
        # Hessian without b's row and column
        rng = substream(4, "hess-frozen")
        n_d, n_r, dim = 5, 6, 2
        net = with_tiny_se(random_network(rng, n_d, n_r, mask_frac=0.25), rng, 1)
        p = gauged(random_params(rng, n_d, n_r, dim), net)
        objective = _Objective([net], dim)
        x = coupled(p)
        h = objective.hessian(x, 0)
        assert np.array_equal(h, ref_log_likelihood_hessian(p, net)[: x.size, : x.size])
        assert np.max(np.abs(h - h.T)) <= 1e-12 * np.max(np.abs(h))
        fd = fd_hessian(objective, x)
        assert np.max(np.abs(fd - h)) <= 1e-6 * np.max(np.abs(h))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("tiny", [0, 2])
    def test_exactly_equals_reference_block(self, dim, tiny):
        # 4.0 * beta**2 at beta 1.0 is exactly 4.0, so the kernel reproduces the
        # reference's (z_d, z_r, alpha) block bit for bit
        rng = substream(dim, "hess-ref", str(tiny))
        n_d, n_r = 7, 5
        net = with_tiny_se(random_network(rng, n_d, n_r, mask_frac=0.3), rng, tiny)
        objective = _Objective([net], dim)
        for _ in range(3):
            p = gauged(random_params(rng, n_d, n_r, dim), net)
            x = coupled(p)
            ref = ref_log_likelihood_hessian(p, net)
            assert np.array_equal(objective.hessian(x, 0), ref[: x.size, : x.size])

    def test_gauge_directions_are_null(self):
        # a common translation of all positions leaves the likelihood unchanged
        rng = substream(5, "hess-gauge")
        n_d, n_r, dim = 6, 4, 2
        net = random_network(rng, n_d, n_r, mask_frac=0.2)
        h = _Objective([net], dim).hessian(coupled(random_params(rng, n_d, n_r, dim)), 0)
        for axis in range(dim):
            t = np.zeros(h.shape[0])
            t[axis : (n_d + n_r) * dim : dim] = 1.0
            assert np.max(np.abs(h @ t)) <= 1e-12 * np.max(np.abs(h))


def ref_log_likelihood(params, net):
    """Reference: the log-likelihood as a separate pass over LsmParams."""
    eta = params.alpha - params.beta * _sqdist(params.z_d, params.z_r)
    m = net.edge_mask
    se = _floored(net.edge_se)
    r = (net.edge_weight - eta)[m]
    s = se[m]
    ll = -0.5 * np.sum(np.log(2.0 * np.pi * s * s)) - 0.5 * np.sum((r / s) ** 2)
    for obs, mean, sig in (
        (net.donor_weight, params.delta, _floored(net.donor_se)),
        (net.recipient_weight, params.gamma, _floored(net.recipient_se)),
    ):
        ll += -0.5 * np.sum(np.log(2.0 * np.pi * sig * sig))
        ll += -0.5 * np.sum(((obs - mean) / sig) ** 2)
    return float(ll)


def ref_log_likelihood_gradient(params, net):
    """Reference: the gradient as a separate pass over LsmParams."""
    z_d, z_r, beta = params.z_d, params.z_r, params.beta
    d2 = _sqdist(z_d, z_r)
    eta = params.alpha - beta * d2
    se = _floored(net.edge_se)
    e = np.where(net.edge_mask, (net.edge_weight - eta) / (se * se), 0.0)
    g_alpha = e.sum()
    g_b = beta * (-(e * d2).sum())
    g_zd = -2.0 * beta * (e.sum(axis=1)[:, None] * z_d - e @ z_r)
    g_zr = 2.0 * beta * (e.T @ z_d - e.sum(axis=0)[:, None] * z_r)
    sd = _floored(net.donor_se)
    sr = _floored(net.recipient_se)
    g_delta = (net.donor_weight - params.delta) / (sd * sd)
    g_gamma = (net.recipient_weight - params.gamma) / (sr * sr)
    return np.concatenate(
        [g_zd.ravel(), g_zr.ravel(), [g_alpha, g_b], g_delta, g_gamma]
    )


def ref_closures(net, dim):
    """Reference optimizer objective: LsmParams built from the expanded vector per call.

    The optimizer vector is (z_d, z_r, alpha); the expanded vector puts
    b = log(beta) = 0 after it and holds the node effects at the node
    weights.  Returns (neg_ll, neg_grad).
    """
    n_d, n_r = net.n_d, net.n_r

    def params(x):
        full = np.concatenate([x, [0.0], net.donor_weight, net.recipient_weight])
        return unpack_params(full, n_d, n_r, dim)

    def neg_ll(x):
        v = ref_log_likelihood(params(x), net)
        return _BIG if not math.isfinite(v) else -v

    def neg_grad(x):
        g = ref_log_likelihood_gradient(params(x), net)
        if not np.all(np.isfinite(g)):
            return np.zeros(x.size)
        return -g[: x.size]

    return neg_ll, neg_grad


def coupled(p):
    """The optimizer vector of ``p``: (z_d, z_r, alpha)."""
    return pack_params(p)[: (p.z_d.shape[0] + p.z_r.shape[0]) * p.dim + 1]


def objective_row(objective):
    """``objective.loss`` on one vector: the callable ``scipy.optimize.minimize(..., jac=True)`` takes."""
    def row(x):
        f, g = objective.loss(x[None, :], [0])
        return f[0], g[0]
    return row


class TestKernelOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("tiny", [0, 2])
    @pytest.mark.parametrize("in_gauge", [False, True])
    def test_exactly_equals_reference(self, dim, tiny, in_gauge):
        # in_gauge puts each point at beta 1 with the node effects at the node
        # weights, where the kernel is also the negated public function
        rng = substream(dim, "kernel", str(tiny), str(in_gauge))
        n_d, n_r = 7, 5
        net = with_tiny_se(random_network(rng, n_d, n_r, mask_frac=0.3), rng, tiny)
        objective = _Objective([net], dim)
        neg_ll, neg_grad = ref_closures(net, dim)
        for _ in range(3):
            p = random_params(rng, n_d, n_r, dim)
            if in_gauge:
                p = gauged(p, net)
            assert log_likelihood(p, net) == ref_log_likelihood(p, net)
            assert np.array_equal(log_likelihood_gradient(p, net),
                                  ref_log_likelihood_gradient(p, net))
            x = coupled(p)
            f, g = objective_row(objective)(x)
            assert f == neg_ll(x)
            assert np.array_equal(g, neg_grad(x))
            if in_gauge:
                assert f == -log_likelihood(p, net)
                assert np.array_equal(g, -log_likelihood_gradient(p, net)[: x.size])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stack_rows_equal_one_row_evaluations(self, dim):
        # each row of a stack gets the bits of its own one-row evaluation, on a
        # network with unobserved pairs; a non-finite row gets the stand-ins
        # and leaves every other row as it was
        rng = substream(dim, "kernel-stack")
        n_d, n_r = 9, 7
        net = random_network(rng, n_d, n_r, mask_frac=0.3)
        assert not net.edge_mask.all()
        objective = _Objective([net], dim)
        xs = np.array([coupled(random_params(rng, n_d, n_r, dim)) for _ in range(4)])
        which = np.zeros(len(xs), dtype=int)
        f, g = objective.loss(xs, which)
        ll, g_raw = objective.values(xs, which)
        for k, x in enumerate(xs):
            f_k, g_k = objective.loss(x[None, :], [0])
            assert f[k].tobytes() == f_k[0].tobytes() and g[k].tobytes() == g_k[0].tobytes()
            ll_k, g_raw_k = objective.at(x, 0)
            assert np.float64(ll_k).tobytes() == ll[k].tobytes()
            assert g_raw_k.tobytes() == g_raw[k].tobytes()
        bad = xs.copy()
        bad[2, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            f_bad, g_bad = objective.loss(bad, which)
        assert f_bad[2] == _BIG and np.all(g_bad[2] == 0.0)
        keep = [0, 1, 3]
        assert f_bad[keep].tobytes() == f[keep].tobytes()
        assert g_bad[keep].tobytes() == g[keep].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("holes", [False, True])
    def test_mixed_stack_rows_equal_one_network_evaluations(self, dim, holes):
        # rows of three networks of one shape and mask, in mixed order: each
        # row gets the bits of its one-row evaluation on its own network's
        # kernel, and a non-finite row of one network leaves the rows of the
        # others as they were
        rng = substream(dim, "kernel-mixed", str(holes))
        n_d, n_r = 8, 6
        first = random_network(rng, n_d, n_r, mask_frac=0.3 if holes else 0.0)
        assert first.edge_mask.all() != holes
        nets = [first] + [with_mask(random_network(rng, n_d, n_r), first.edge_mask)
                          for _ in range(2)]
        objective = _Objective(nets, dim)
        which = np.array([2, 0, 1, 1, 2, 0, 1])
        xs = np.array([coupled(random_params(rng, n_d, n_r, dim)) for _ in which])
        f, g = objective.loss(xs, which)
        ll, g_raw = objective.values(xs, which)
        for k, (x, j) in enumerate(zip(xs, which)):
            one = _Objective([nets[j]], dim)
            f_k, g_k = one.loss(x[None, :], [0])
            assert f[k].tobytes() == f_k[0].tobytes() and g[k].tobytes() == g_k[0].tobytes()
            ll_k, g_raw_k = one.at(x, 0)
            assert np.float64(ll_k).tobytes() == ll[k].tobytes()
            assert g_raw_k.tobytes() == g_raw[k].tobytes()
            stack_ll, stack_g = objective.at(x, j)
            assert stack_ll == ll_k and stack_g.tobytes() == g_raw_k.tobytes()
        bad = xs.copy()
        bad[2, 0] = 1e200  # a row of network 1
        with np.errstate(over="ignore", invalid="ignore"):
            f_bad, g_bad = objective.loss(bad, which)
        assert f_bad[2] == _BIG and np.all(g_bad[2] == 0.0)
        keep = [0, 1, 3, 4, 5, 6]
        assert f_bad[keep].tobytes() == f[keep].tobytes()
        assert g_bad[keep].tobytes() == g[keep].tobytes()

    def test_loss_zeroes_only_rows_with_a_non_finite_entry(self, monkeypatch):
        # loss tests the whole stack once and the rows only when that fails: a
        # row of finite entries whose sum overflows keeps its gradient, and a
        # neighbouring row with a NaN entry is zeroed alone
        rng = substream(0, "kernel-loss-rows")
        objective = _Objective([random_network(rng, 4, 3)], 2)
        n = objective.nz + 1
        g = rng.standard_normal((3, n))
        g[0] = np.finfo(float).max / 2  # every entry finite, the sum is not
        g[1, 4] = np.nan
        ll = np.array([-1.0, -2.0, math.inf])
        monkeypatch.setattr(objective, "values", lambda xs, which: (ll.copy(), g.copy()))
        f, g_loss = objective.loss(np.zeros((3, n)), [0, 0, 0])
        with np.errstate(over="ignore"):
            assert not math.isfinite(g[0].sum())
        assert np.array_equal(g_loss[0], -g[0])
        assert np.all(g_loss[1] == 0.0)
        assert np.array_equal(g_loss[2], -g[2])
        assert f.tolist() == [1.0, 2.0, _BIG]

    def test_networks_of_another_shape_or_mask_are_refused(self):
        rng = substream(0, "kernel-refuse")
        net = random_network(rng, 5, 4)
        with pytest.raises(ValueError, match="share their shape"):
            _Objective([net, random_network(rng, 5, 3)], 2)
        holes = net.edge_mask.copy()
        holes[1, 2] = False
        with pytest.raises(ValueError, match="share their observation mask"):
            _Objective([net, with_mask(net, holes)], 2)

    def test_unobserved_cells_are_never_read(self):
        # the weights and stderrs at unobserved pairs may be anything, NaN
        # included: the fit, its polish and the log-likelihood give the same bits
        net = simulate(SimConfig(n_d=12, n_r=10, seed=3)).observed
        mask = substream(3, "kernel-unobserved").random((12, 10)) >= 0.3
        placeholders = with_mask(net, mask)
        nans = replace(placeholders, edge_weight=np.where(mask, net.edge_weight, np.nan),
                       edge_se=np.where(mask, net.edge_se, np.nan))
        cfg = FitConfig(dim=2, restarts=1, seed=3)

        def bits(res):
            return (np.float64(res.log_likelihood).tobytes(), res.iterations, res.restart_index,
                    res.params.z_d.tobytes(), res.params.z_r.tobytes(),
                    np.float64(res.params.alpha).tobytes())

        a = fit(placeholders, cfg)
        assert bits(a) == bits(fit(nans, cfg))
        assert log_likelihood(a.params, placeholders) == log_likelihood(a.params, nans)

    @pytest.mark.parametrize("recipient", [False, True])
    def test_non_finite_paths(self, recipient):
        # an overflowing donor or recipient position makes the distance, ll and
        # gradient non-finite
        rng = substream(6, "kernel-overflow")
        n_d, n_r, dim = 4, 3, 2
        net = random_network(rng, n_d, n_r)
        x = coupled(random_params(rng, n_d, n_r, dim))
        x[n_d * dim if recipient else 0] = 1e200
        neg_ll, neg_grad = ref_closures(net, dim)
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = objective_row(_Objective([net], dim))(x)
            assert f == _BIG == neg_ll(x)
            assert g.shape == x.shape and np.all(g == 0.0)
            assert np.array_equal(g, neg_grad(x))
            # the polish and the result read the raw values, not the stand-ins
            ll, g_raw = _Objective([net], dim).at(x, 0)
            assert not math.isfinite(ll) and not np.all(np.isfinite(g_raw))


class TestFit:
    def test_low_noise_recovers_positions(self):
        sim = simulate(SimConfig(seed=11))
        cfg = FitConfig(dim=2, restarts=1, seed=11)
        res = fit(sim.observed, cfg)
        src = np.vstack([res.params.z_d, res.params.z_r])
        tgt = np.vstack([sim.truth.z_d, sim.truth.z_r])
        aligned = procrustes_align(src, tgt).aligned
        ss_res = np.sum((tgt - aligned) ** 2)
        ss_tot = np.sum((tgt - tgt.mean(axis=0)) ** 2)
        assert 1 - ss_res / ss_tot >= 0.95

    def test_deterministic(self):
        net = random_network(substream(6, "det"), 6, 5)
        cfg = FitConfig(dim=2, restarts=2, seed=3)
        a = fit(net, cfg)
        b = fit(net, cfg)
        assert a.log_likelihood == b.log_likelihood
        assert a.restart_index == b.restart_index
        assert np.array_equal(pack_params(a.params), pack_params(b.params))

    def test_never_worse_than_init(self):
        # the fit ends no lower than its own classical-scaling start
        net = random_network(substream(8, "start"), 6, 5)
        cfg = FitConfig(dim=2, restarts=0)
        res = fit(net, cfg)
        start_ll = _Objective([net], cfg.dim).at(_start_points(net, cfg)[0], 0)[0]
        assert res.log_likelihood >= start_ll - 1e-9

    def test_restart_dominance(self):
        # extra restarts can only match or beat the classical-scaling start alone
        net = random_network(substream(9, "dom"), 6, 5)
        base = fit(net, FitConfig(dim=2, restarts=0, seed=1))
        more = fit(net, FitConfig(dim=2, restarts=3, seed=1))
        assert more.log_likelihood >= base.log_likelihood - 1e-9

    def test_beta_positive_and_frozen(self):
        # beta is held at the gauge value 1
        net = random_network(substream(10, "beta"), 5, 5)
        res = fit(net, FitConfig(dim=2, restarts=1, seed=0))
        assert res.params.beta == 1.0

    @pytest.mark.parametrize("grad_tol,message", [(0.0, "> 0"), (-1.0, "> 0"), (math.nan, "> 0"),
                                                  (-math.inf, "> 0"), (math.inf, "finite")])
    def test_config_refuses_a_grad_tol_not_positive_and_finite(self, grad_tol, message):
        # an infinite tolerance stopped L-BFGS-B at once and called every start converged
        with pytest.raises(ValueError, match=f"grad_tol must be {message}"):
            FitConfig(grad_tol=grad_tol)

    def test_result_serialization_fields(self):
        net = random_network(substream(12, "json"), 4, 4)
        res = fit(net, FitConfig(dim=2, restarts=0, max_iter=50))
        d = res.to_dict()
        assert set(d) == {"alpha", "beta", "z_d", "z_r", "delta", "gamma",
                          "dim", "log_likelihood", "converged"}

    def test_equal_fresh_arrays_compare_without_raising(self):
        # a field-wise == compared the arrays as a tuple and raised ValueError
        # unless both sides held the same array objects; results and their
        # params compare by identity instead
        def build():
            params = LsmParams(np.zeros((3, 2)), np.zeros((2, 2)), 0.0, 1.0,
                               np.zeros(3), np.zeros(2))
            return params, FitResult(params, -1.0, 5, 0.1, 0, True)

        (p1, r1), (p2, r2) = build(), build()
        assert p1 == p1 and r1 == r1
        assert p1 != p2 and r1 != r2


class TestClosedFormNodeEffects:
    @pytest.mark.parametrize("restarts", [0, 2])
    @pytest.mark.parametrize("masked", [False, True])
    def test_fit_returns_the_node_weights(self, restarts, masked):
        net = random_network(substream(15, "node-mle"), 6, 5, mask_frac=0.2 if masked else 0.0)
        res = fit(net, FitConfig(dim=2, restarts=restarts, seed=4))
        assert np.array_equal(res.params.delta, net.donor_weight)
        assert np.array_equal(res.params.gamma, net.recipient_weight)
        assert not np.shares_memory(res.params.delta, net.donor_weight)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_result_params_are_the_padded_vector_unpacked(self, dim):
        # the result is x with b = 0 and the node weights put after it, unpacked,
        # and it shares no memory with x or the network
        rng = substream(16, "full-params")
        net = random_network(rng, 6, 5)
        x = rng.standard_normal((net.n_d + net.n_r) * dim + 1)
        p = _full_params(x, net, dim)
        ref = unpack_params(np.concatenate([x, [0.0], net.donor_weight, net.recipient_weight]),
                            net.n_d, net.n_r, dim)
        assert pack_params(p).tobytes() == pack_params(ref).tobytes()
        assert type(p.alpha) is float and p.beta == 1.0 and p.dim == dim
        for a in (p.z_d, p.z_r, p.delta, p.gamma):
            assert not any(np.shares_memory(a, b)
                           for b in (x, net.donor_weight, net.recipient_weight))

    def test_one_minimize_per_fit(self, monkeypatch):
        # seed 10 of the 60x60 corpus stops short of grad_tol on both starts;
        # both run in the one call, whose nit counts the iterations of both
        import netlsm.model

        calls = []

        def counting(*args, **kwargs):
            calls.append(minimize(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(netlsm.model, "minimize", counting)
        cfg = FitConfig(dim=2, restarts=1, seed=10)
        res = fit(simulate(SimConfig(n_d=60, n_r=60, seed=10)).observed, cfg)
        assert len(calls) == 1 and len(calls[0].iterations) == 1 + cfg.restarts
        assert isinstance(calls[0].nit, int) and calls[0].nit == sum(calls[0].iterations)
        assert res.iterations < cfg.max_iter

    @pytest.mark.parametrize("node_effects", [False, True])
    def test_random_starts_are_the_coupled_prefix(self, node_effects):
        # each random start is the first nz + 1 entries of the longer draws that
        # also covered b and, before that, the node effects, so positions and
        # alpha are unchanged
        n_d, n_r, dim = 7, 5, 2
        net = random_network(substream(17, "starts"), n_d, n_r)
        cfg = FitConfig(dim=dim, restarts=3, seed=9)
        nz = (n_d + n_r) * dim
        starts = _start_points(net, cfg)
        assert len(starts) == 4
        assert starts[0].size == nz + 1
        for k, vec in enumerate(starts[1:]):
            size = nz + 2 + (n_d + n_r if node_effects else 0)
            longer = 0.5 * substream(9, "lsm-restart", str(k)).standard_normal(size)
            assert vec.size == nz + 1
            assert np.array_equal(vec, longer[: nz + 1])


def recording(monkeypatch, fun=None):
    """Record each start's L-BFGS-B result and each polish point of ``fit``.

    A result is one row of the lockstep run, with the ``x``, ``fun``,
    ``jac`` and ``nit`` of that start.  ``fun``, if given, maps a start's
    position to the objective value its row reports, in place of the real one.
    """
    import netlsm.model

    results, polished = [], []

    def recording_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        for k in range(len(res.fun)):
            if fun is not None:
                res.fun[k] = fun(k)
            results.append(SimpleNamespace(x=res.x[k], fun=res.fun[k], jac=res.jac[k],
                                           nit=res.iterations[k]))
        return res

    def recording_polish(objective, x, j):
        polished.append(x.copy())
        return _polish(objective, x, j)

    monkeypatch.setattr(netlsm.model, "minimize", recording_minimize)
    monkeypatch.setattr(netlsm.model, "_polish", recording_polish)
    return results, polished


class TestRestartSelection:
    def test_only_the_winning_start_is_polished(self, monkeypatch):
        # every start of seed 10 of the 60x60 corpus stops short of grad_tol;
        # the losers are not polished
        results, polished = recording(monkeypatch)
        cfg = FitConfig(dim=2, restarts=3, seed=10)
        res = fit(simulate(SimConfig(n_d=60, n_r=60, seed=10)).observed, cfg)
        assert len(results) == 1 + cfg.restarts
        assert all(np.max(np.abs(r.jac)) > cfg.grad_tol for r in results)
        winner = results[res.restart_index]
        assert all(winner.fun <= r.fun + 1e-12 for r in results)
        assert len(polished) == 1 and np.array_equal(polished[0], winner.x)
        assert res.iterations == winner.nit and res.converged

    def test_near_tie_is_decided_on_lbfgs_values(self, monkeypatch):
        # seed 29 of the 60x60 corpus: both starts end in one basin.  Their
        # L-BFGS-B log-likelihoods differ by more than 1e-12, so start 1 wins;
        # polished, they would tie within 1e-12, and start 0 would win
        results, polished = recording(monkeypatch)
        net = simulate(SimConfig(n_d=60, n_r=60, seed=29)).observed
        res = fit(net, FitConfig(dim=2, restarts=1, seed=29))
        assert res.restart_index == 1 and res.converged
        assert results[0].fun - results[1].fun > 1e-12
        objective = _Objective([net], 2)
        ll0, ll1 = (objective.at(_polish(objective, r.x, 0), 0)[0] for r in results)
        assert abs(ll1 - ll0) <= 1e-12
        assert res.log_likelihood == ll1

    @pytest.mark.parametrize("gain,winner", [(0.0, 0), (0.5e-12, 0), (2e-12, 1), (-1.0, 0)])
    def test_ties_within_1e_12_go_to_the_lowest_index(self, monkeypatch, gain, winner):
        # start 1 reports an L-BFGS-B log-likelihood ``gain`` above start 0's
        results, polished = recording(monkeypatch, fun=lambda k: -gain * k)
        net = random_network(substream(18, "tie"), 6, 5)
        res = fit(net, FitConfig(dim=2, restarts=1, seed=2))
        assert len(results) == 2 and res.restart_index == winner
        assert res.iterations == results[winner].nit
        assert len(polished) <= 1
        assert all(np.array_equal(x, results[winner].x) for x in polished)


def table1_networks(seed):
    """The networks of table1's four blocks at replicate seed ``seed``."""
    return [simulate(SimConfig(sigma_w=sigma_w, edge_mean_convention=convention,
                               seed=seed)).observed
            for sigma_w in (0.15, 1.5) for convention in (PAIR_TERM_ONLY, FULL_COMPATIBILITY)]


def assert_same_fit(a, b):
    assert np.float64(a.log_likelihood).tobytes() == np.float64(b.log_likelihood).tobytes()
    assert pack_params(a.params).tobytes() == pack_params(b.params).tobytes()
    assert (a.iterations, a.restart_index, a.converged) == (b.iterations, b.restart_index,
                                                            b.converged)
    assert np.float64(a.grad_norm).tobytes() == np.float64(b.grad_norm).tobytes()


class TestFitNetworks:
    def test_lockstep_equals_lone_fits(self, monkeypatch):
        # seed 112 of table1: both full-compatibility fits stop short of
        # grad_tol and are polished, and the high-noise one stays unconverged
        # with a random restart winning; all twenty starts run in one minimize
        import netlsm.model

        calls, polished = [], []

        def counting(*args, **kwargs):
            calls.append(minimize(*args, **kwargs))
            return calls[-1]

        def counting_polish(objective, x, j):
            polished.append(objective.nets[j])
            return _polish(objective, x, j)

        nets = table1_networks(112)
        cfg = FitConfig(seed=112)
        monkeypatch.setattr(netlsm.model, "minimize", counting)
        monkeypatch.setattr(netlsm.model, "_polish", counting_polish)
        results = fit_networks(nets, cfg)
        assert len(calls) == 1 and len(calls[0].iterations) == len(nets) * (1 + cfg.restarts)
        assert len(polished) == 2 and polished[0] is nets[1] and polished[1] is nets[3]
        assert [r.converged for r in results] == [True, True, True, False]
        assert results[3].restart_index > 0
        monkeypatch.undo()
        for net, res in zip(nets, results):
            assert_same_fit(res, fit(net, cfg))

    def test_a_failing_network_gets_its_own_error(self):
        # an overflowing edge fails its own network before any start; the
        # other networks get the results they get without it
        nets = table1_networks(3)
        weight = nets[1].edge_weight.copy()
        weight[2, 3] = 1e200
        bad = type(nets[1])(nets[1].donor_labels, nets[1].recipient_labels,
                            nets[1].donor_weight, nets[1].donor_se, nets[1].recipient_weight,
                            nets[1].recipient_se, weight, nets[1].edge_se, nets[1].edge_mask)
        cfg = FitConfig(restarts=2, seed=3)
        results = fit_networks([nets[0], bad, nets[2]], cfg)
        assert isinstance(results[1], FitError)
        assert str(results[1]).startswith("edge D02,R03 has weight 1e+200 and stderr 0.15:")
        with pytest.raises(FitError, match="edge D02,R03 has weight 1e"):
            fit(bad, cfg)
        for res, alone in zip([results[0], results[2]], fit_networks([nets[0], nets[2]], cfg)):
            assert_same_fit(res, alone)

    def test_no_networks_give_no_results(self):
        # the kernel was built before the empty case was seen: IndexError
        assert fit_networks([], FitConfig()) == []


# reference log-likelihoods of the 60x60 corpus, from the earlier finite-difference polish
CORPUS_LL = {
    10: 1932.0351538123, 11: 1932.0426878044, 12: 1867.5041871016, 13: 1996.4178857926,
    14: 1968.1624982616, 15: 2053.5265947021, 16: 1954.5799866875, 17: 1966.7664851928,
}


@pytest.mark.parametrize("seed", sorted(CORPUS_LL))
def test_convergence_corpus(seed):
    # L-BFGS stops short of grad_tol on every start here, so every fit ends in the
    # polish; the classical-scaling start wins every seed
    cfg = FitConfig(dim=2, restarts=1, seed=seed)
    res = fit(simulate(SimConfig(n_d=60, n_r=60, seed=seed)).observed, cfg)
    assert res.converged and res.grad_norm <= cfg.grad_tol
    # the polish takes stationarity well past the tolerance (a plain solve that
    # keeps the gauge directions stops near 4e-7 on seed 14)
    assert res.grad_norm <= 1e-3 * cfg.grad_tol
    assert abs(res.log_likelihood - CORPUS_LL[seed]) <= 1e-8 * CORPUS_LL[seed]


# best log-likelihood of 9 starts (the former logistic/correlation MDS start and
# 8 random restarts) on pair-term-only n x n networks, keyed by (n, seed)
BEST_OF_8_LL = {
    (20, 0): 268.4293558651317, (20, 1): 257.6150218936587, (20, 2): 256.9963787793175,
    (20, 3): 272.92835353083154, (20, 4): 287.2893496830454,
    (50, 0): 1433.509457629591, (50, 1): 1326.1300600957047, (50, 2): 1418.5262142673016,
    (50, 3): 1414.2628282754683, (50, 4): 1360.1330117822497,
    (80, 0): 3364.2420009819925, (80, 1): 3319.5932939362074, (80, 2): 3396.4143372132407,
    (80, 3): 3426.9514593468557, (80, 4): 3333.3268682772296,
    (200, 0): 19891.862274082632, (200, 1): 19868.12453245345, (200, 2): 19971.300602899268,
    (200, 3): 19844.168916680854, (200, 4): 19829.926223734692,
    (400, 0): 78239.63907841839,
}


@pytest.mark.parametrize("n,seed", sorted(BEST_OF_8_LL))
def test_classical_scaling_start_alone_reaches_the_best_optimum(n, seed):
    # with no restarts, the one start converges to the best of 9 starts
    cfg = FitConfig(dim=2, restarts=0, seed=seed)
    res = fit(simulate(SimConfig(n_d=n, n_r=n, seed=seed)).observed, cfg)
    assert res.converged and res.restart_index == 0
    assert abs(res.log_likelihood - BEST_OF_8_LL[n, seed]) <= 1e-8 * BEST_OF_8_LL[n, seed]


OPTIONS = {"maxiter": 500, "gtol": 1e-6, "ftol": 0.0, "maxcor": 20}  # as in fit


def lbfgs(objective, x0, max_iter=OPTIONS["maxiter"]):
    """Where L-BFGS-B, run as ``fit`` runs it, stops from ``x0``."""
    return minimize(objective, [x0], max_iter, OPTIONS["gtol"], np.zeros(1, dtype=int)).x[0]


def pipeline_network(seed):
    """The network the pipeline extracts from its Cox fit at CLI defaults."""
    train, _, _ = simulate_transplants(SurvivalGenConfig(seed=seed))
    x, columns = design_matrix(train, 10)
    return extract_network(cox_fit(x, train.time, train.event, 1.0, columns=columns))


def scipy_rows_match(objective, x0, res, options):
    """Check each row of the lockstep ``res`` against scipy's L-BFGS-B from that start alone.

    x, fun, jac and the iteration count must be equal bit for bit, and the
    stop reason must be scipy's message; returns scipy's results.
    """
    rows = []
    for k, x in enumerate(x0):
        row = scipy.optimize.minimize(objective_row(objective), x, jac=True,
                                      method="L-BFGS-B", options=options)
        assert res.iterations[k] == row.nit
        assert res.x[k].tobytes() == row.x.tobytes()
        assert np.float64(res.fun[k]).tobytes() == np.float64(row.fun).tobytes()
        assert res.jac[k].tobytes() == row.jac.tobytes()
        assert res.stops[k] == row.message
        rows.append(row)
    return rows


ITERATION_LIMIT = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"


def test_stop_reasons_are_worded_from_scipy_s_tables():
    # model keeps copies, since importing _lbfgsb_py imports scipy.optimize
    assert _STATUS_MESSAGES == scipy.optimize._lbfgsb_py.status_messages
    assert _TASK_MESSAGES == scipy.optimize._lbfgsb_py.task_messages


def test_pipeline_fit_records_both_starts_at_the_iteration_limit():
    result = fit(pipeline_network(0), FitConfig(dim=2, restarts=1, seed=0))
    assert not result.converged
    assert [(s.kind, s.iterations, s.stop) for s in result.restarts] == [
        ("mds", 500, ITERATION_LIMIT), ("random", 500, ITERATION_LIMIT)]
    won = result.restarts[result.restart_index]
    assert won.log_likelihood == max(s.log_likelihood for s in result.restarts)
    assert won.iterations == result.iterations


def test_start_records_stay_out_of_the_model_file_and_equality():
    net = simulate(SimConfig(n_d=60, n_r=60, seed=0)).observed
    result = fit(net, FitConfig(dim=2, restarts=1, seed=0))
    assert result.converged and [s.kind for s in result.restarts] == ["mds", "random"]
    for s in result.restarts:
        assert s.stop == "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
        assert s.grad_norm > result.grad_norm  # the polish finished the winner
    assert "restarts" not in result.to_dict()
    assert FitResult.__eq__ is object.__eq__  # compared by identity, records and all


def sim_network(**kwargs):
    return lambda: simulate(SimConfig(**kwargs)).observed


def trajectory_cases():
    """(id, network maker, FitConfig, check on the starts' iteration counts)."""
    anything = lambda iterations: True  # noqa: E731
    for seed in (10, 11, 12, 13):
        yield (f"60x60-s{seed}", sim_network(n_d=60, n_r=60, seed=seed),
               FitConfig(dim=2, restarts=1, seed=seed), anything)
    # two 20x20 networks configured like table1
    yield ("table1-low", sim_network(sigma_w=0.15, seed=0),
           FitConfig(dim=2, restarts=1, seed=0), anything)
    yield ("table1-high", sim_network(sigma_w=1.5, edge_mean_convention=FULL_COMPATIBILITY, seed=1),
           FitConfig(dim=2, restarts=1, seed=1), anything)
    # table1's five starts stop at five different iterations, so the lockstep
    # batch shrinks one start at a time
    yield ("table1-5-starts", sim_network(sigma_w=0.15, seed=3),
           FitConfig(dim=2, restarts=4, seed=3), lambda iterations: len(set(iterations)) == 5)
    # the pipeline's 12x12 network runs both starts to max_iter
    yield ("pipeline-max-iter", lambda: pipeline_network(0),
           FitConfig(dim=2, restarts=1, seed=0), lambda iterations: set(iterations) == {500})
    yield ("max-iter-7", sim_network(n_d=60, n_r=60, seed=10),
           FitConfig(dim=2, restarts=1, seed=10, max_iter=7),
           lambda iterations: set(iterations) == {7})


@pytest.mark.parametrize("network,config,check", [case[1:] for case in trajectory_cases()],
                         ids=[case[0] for case in trajectory_cases()])
def test_lbfgs_trajectory_matches_reference(network, config, check):
    # every start of the lockstep run ends exactly where scipy's L-BFGS-B ends
    # from it alone on the kernel's one-row case, with the same x, fun, jac and
    # iteration count; and that run takes the reference objective's iterates
    net = network()
    objective = _Objective([net], config.dim)
    x0 = _start_points(net, config)
    res = minimize(objective, x0, config.max_iter, config.grad_tol, np.zeros(len(x0), dtype=int))
    assert check(list(res.iterations))
    assert res.nit == sum(res.iterations)
    options = {**OPTIONS, "maxiter": config.max_iter}
    rows = scipy_rows_match(objective, x0, res, options)
    neg_ll, neg_grad = ref_closures(net, config.dim)
    for x, row in zip(x0, rows):
        ref = scipy.optimize.minimize(neg_ll, x, jac=neg_grad, method="L-BFGS-B", options=options)
        assert ref.nit == row.nit
        assert np.array_equal(ref.x, row.x)


def test_evaluation_limit_stops_as_scipy_stops(monkeypatch):
    # scipy's stop after more than maxfun evaluations (15000, out of reach below
    # ~750 iterations), lowered to 40: each start stops at the iteration, and
    # on the x, fun and jac, where scipy's L-BFGS-B stops from it alone
    import netlsm.model

    monkeypatch.setattr(netlsm.model, "_MAXFUN", 40)
    config = FitConfig(dim=2, restarts=1, seed=10)
    net = simulate(SimConfig(n_d=60, n_r=60, seed=10)).observed
    objective = _Objective([net], config.dim)
    x0 = _start_points(net, config)
    res = minimize(objective, x0, config.max_iter, config.grad_tol, np.zeros(len(x0), dtype=int))
    rows = scipy_rows_match(objective, x0, res, {**OPTIONS, "maxfun": 40})
    assert all(row.nfev > 40 and row.nit < config.max_iter for row in rows)


def ref_polish(x, net, dim, max_steps=4):
    """Reference: the former polish, on LsmParams, the public gradient and the
    former public Hessian's (z_d, z_r, alpha) block."""
    k = x.size

    def at(x):
        params = _full_params(x, net, dim)
        return params, log_likelihood_gradient(params, net)[:k]

    params, g = at(x)
    gnorm = np.max(np.abs(g))
    for _ in range(max_steps):
        if gnorm == 0.0:
            break
        lam, vec = np.linalg.eigh(ref_log_likelihood_hessian(params, net)[:k, :k])
        live = np.abs(lam) > 1e-10 * np.max(np.abs(lam))
        x_new = x - vec[:, live] @ ((vec[:, live].T @ g) / lam[live])
        if not np.all(np.isfinite(x_new)):
            break
        params_new, g_new = at(x_new)
        gnorm_new = np.max(np.abs(g_new))
        if not np.all(np.isfinite(g_new)) or gnorm_new >= gnorm:
            break
        x, params, g, gnorm = x_new, params_new, g_new, gnorm_new
    return x


@pytest.mark.parametrize("seed", sorted(CORPUS_LL))
def test_polish_matches_reference(seed):
    # from where L-BFGS-B stops on each start of the 60x60 corpus, the polish on
    # the kernel reaches the reference's point up to the gauge: the same
    # distances, alpha and ll, and stationarity past the tolerance.  The two
    # take pseudo-inverse steps by different means (solves with one projected
    # system factored at the start, against an eigendecomposition at each
    # step), so the positions themselves may differ in the last bits and by a
    # translation or rotation.
    net = simulate(SimConfig(n_d=60, n_r=60, seed=seed)).observed
    cfg = FitConfig(dim=2, restarts=1, seed=seed)
    objective = _Objective([net], cfg.dim)
    moved = []
    for x0 in _start_points(net, cfg):
        x = lbfgs(objective, x0)
        polished = _polish(objective, x, 0)
        ref = ref_polish(x, net, cfg.dim)
        p, ref_p = _full_params(polished, net, cfg.dim), _full_params(ref, net, cfg.dim)
        assert np.max(np.abs(_sqdist(p.z_d, p.z_r) - _sqdist(ref_p.z_d, ref_p.z_r))) <= 1e-10
        assert abs(p.alpha - ref_p.alpha) <= 1e-10
        ll, g = objective.at(polished, 0)
        ref_ll = objective.at(ref, 0)[0]
        assert abs(ll - ref_ll) <= 1e-9 * abs(ref_ll)
        moved.append(not np.array_equal(polished, x))
        assert moved[-1] == (not np.array_equal(ref, x))
        if moved[-1]:
            assert np.max(np.abs(g)) <= cfg.grad_tol
    assert any(moved)


def test_polish_leaves_a_rejected_step_unchanged():
    # the random start of 60x60 seed 16, stopped at max_iter 20, ends far from
    # stationarity (grad-norm ~5e3, ll ~-1.6e4 against the optimum's ~1955); its
    # Newton step does not shrink the gradient, so the polish returns the point
    # it was given
    net = simulate(SimConfig(n_d=60, n_r=60, seed=16)).observed
    objective = _Objective([net], 2)
    x0 = _start_points(net, FitConfig(dim=2, restarts=1, seed=16))[1]
    x = lbfgs(objective, x0, max_iter=20)
    assert np.max(np.abs(objective.at(x, 0)[1])) > 1e3
    assert np.array_equal(_polish(objective, x, 0), x)


def test_polish_stops_on_a_singular_system(monkeypatch):
    # a system the solve cannot factor ends the polish where it stands, and
    # the exact zero pivot that ends it raises no warning
    rng = substream(7, "polish-singular")
    net = random_network(rng, 5, 4)
    objective = _Objective([net], 2)
    x = coupled(random_params(rng, 5, 4, 2))
    monkeypatch.setattr(objective, "hessian", lambda x, j: np.zeros((x.size, x.size)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_polish(objective, x, 0), x)


def zero_alpha_pivot(x):
    # regular in the positions, but alpha couples to nothing, and the gauge
    # shift leaves its row at zero: lu_factor finds an exact zero pivot
    h = -np.eye(x.size)
    h[-1, -1] = 0.0
    return h


@pytest.mark.parametrize("hessian", [
    zero_alpha_pivot,
    lambda x: np.full((x.size, x.size), np.nan),
], ids=["zero-pivot", "nan"])
def test_polish_leaves_a_singular_or_non_finite_system_unsolved(monkeypatch, hessian):
    # dgetrf reports an exactly singular matrix only in its info (where
    # np.linalg.solve raised and lu_factor warns), so the polish reads info
    # itself; nothing is solved, no step is taken, the gradient is read once
    # and no warning escapes
    import netlsm.model

    rng = substream(8, "polish-zero-pivot")
    net = random_network(rng, 5, 4)
    objective = _Objective([net], 2)
    x = coupled(random_params(rng, 5, 4, 2))
    if hessian is zero_alpha_pivot:
        assert _flapack.dgetrf(hessian(x))[2] > 0
        with pytest.warns(LinAlgWarning):
            lu_factor(hessian(x))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hessian(x), np.ones(x.size))
    monkeypatch.setattr(objective, "hessian", lambda x, j: hessian(x))
    at_calls = []
    at = objective.at
    monkeypatch.setattr(objective, "at", lambda x, j: at_calls.append(1) or at(x, j))
    solves = []
    monkeypatch.setattr(netlsm.model, "_flapack", SimpleNamespace(
        dgetrf=_flapack.dgetrf, dgetrs=lambda *a: solves.append(1) or _flapack.dgetrs(*a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_polish(objective, x, 0), x)
    assert len(at_calls) == 1 and solves == []


def polish_system(n):
    """A system ``(H - s Q Q^T, g - Q Q^T g)`` of size n as the polish builds
    it: H random and symmetric, but at n = 81 the Hessian of a 20x20 network
    in two dimensions (40 positions and alpha) at its classical-scaling start."""
    rng = substream(n, "polish-lapack")
    if n != 81:
        a = rng.standard_normal((n, n))
        h, q = -(a @ a.T) / n, np.linalg.qr(rng.standard_normal((n, 3)))[0]
    else:
        net = simulate(SimConfig(n_d=20, n_r=20, seed=3)).observed
        objective = _Objective([net], 2)
        x = _start_points(net, FitConfig(dim=2, restarts=0, seed=3))[0]
        h, q = objective.hessian(x, 0), objective.gauge_basis(x)
    h -= np.max(np.abs(np.diag(h))) * (q @ q.T)
    g = rng.standard_normal(n)
    return h, g - q @ (q.T @ g)


@pytest.mark.parametrize("n", [10, 33, 81, 128, 250])
def test_the_polish_s_lapack_calls_are_lu_factor_s_and_lu_solve_s(n):
    # dgetrf and dgetrs as the polish calls them give the bytes that
    # scipy.linalg.lu_factor and lu_solve give, as the polish called them
    h, rhs = polish_system(n)
    lu, piv, info = _flapack.dgetrf(h)
    ref_lu, ref_piv = lu_factor(h, check_finite=False)
    assert info == 0
    assert lu.dtype == ref_lu.dtype and lu.shape == ref_lu.shape
    assert lu.tobytes() == ref_lu.tobytes()
    assert piv.dtype == ref_piv.dtype and piv.tobytes() == ref_piv.tobytes()
    step = _flapack.dgetrs(lu, piv, rhs)[0]
    ref_step = lu_solve((ref_lu, ref_piv), rhs, check_finite=False)
    assert step.dtype == ref_step.dtype and step.tobytes() == ref_step.tobytes()
    assert np.array_equal(h, polish_system(n)[0])  # neither call wrote to h


@pytest.mark.parametrize("matrix", ["zero-pivot", "regular"])
def test_dgetrf_reports_a_zero_pivot_exactly_when_lu_factor_warns(matrix):
    x = np.zeros(11)
    h = zero_alpha_pivot(x) if matrix == "zero-pivot" else -np.eye(x.size)
    info = _flapack.dgetrf(h)[2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lu_factor(h)
    warned = any(issubclass(w.category, LinAlgWarning) for w in caught)
    assert (info > 0) == warned == (matrix == "zero-pivot")


def test_polish_factors_the_hessian_once(monkeypatch):
    # from where L-BFGS-B stops on the classical-scaling start of 60x60 seed 14,
    # the polish tries two steps (the second does not shrink the gradient), both
    # solved with the Hessian and gauge basis of its starting point
    net = simulate(SimConfig(n_d=60, n_r=60, seed=14)).observed
    objective = _Objective([net], 2)
    (x0,) = _start_points(net, FitConfig(dim=2, restarts=0, seed=14))
    x = lbfgs(objective, x0)
    calls = {"hessian": [], "gauge_basis": [], "at": []}
    for name in calls:
        method = getattr(objective, name)
        monkeypatch.setattr(objective, name, lambda x, *j, name=name, method=method:
                            calls[name].append(x) or method(x, *j))
    polished = _polish(objective, x, 0)
    assert len(calls["hessian"]) == 1 and len(calls["gauge_basis"]) == 1
    assert np.array_equal(calls["hessian"][0], x) and np.array_equal(calls["gauge_basis"][0], x)
    assert len(calls["at"]) >= 3  # the start, then one per step tried
    assert np.max(np.abs(objective.at(polished, 0)[1])) <= 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gauge_basis(dim):
    # the basis is orthonormal, holds one translation per axis and one rotation
    # per pair of axes, and spans directions along which the Hessian at a
    # stationary point and the gradient anywhere are zero
    rng = substream(dim, "gauge-basis")
    n_d, n_r = 7, 6
    p = random_params(rng, n_d, n_r, dim)
    truth = LsmParams(p.z_d, p.z_r, p.alpha, 1.0, p.delta, p.gamma)
    objective = _Objective([noiseless_network(truth, se=0.1)], dim)
    x = coupled(truth)
    assert np.max(np.abs(objective.at(x, 0)[1])) <= 1e-10
    q = objective.gauge_basis(x)
    assert q.shape == (x.size, dim + dim * (dim - 1) // 2)
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-12
    assert np.all(q[-1] == 0.0)
    h = objective.hessian(x, 0)
    assert np.linalg.norm(h @ q) <= 1e-10 * np.linalg.norm(h)
    moved = x + 0.3 * rng.standard_normal(x.size)
    q, g = objective.gauge_basis(moved), objective.at(moved, 0)[1]
    assert np.max(np.abs(q.T @ g)) <= 1e-10 * np.linalg.norm(g)


def test_fit_validates_params_only_at_the_boundary(monkeypatch):
    # one _Objective serves the whole fit, and LsmParams are built only for the
    # result, never per evaluation or per polish step; the pipeline-extracted
    # 12x12 network of seed 0 runs both starts to max_iter
    net = pipeline_network(0)
    params_built, objectives_built = [], []
    post_init, objective_init = LsmParams.__post_init__, _Objective.__init__

    def counting_params(self):
        params_built.append(1)
        post_init(self)

    def counting_objective(self, *args):
        objectives_built.append(1)
        objective_init(self, *args)

    monkeypatch.setattr(LsmParams, "__post_init__", counting_params)
    monkeypatch.setattr(_Objective, "__init__", counting_objective)
    cfg = FitConfig(dim=2, restarts=1, seed=0)
    res = fit(net, cfg)
    assert res.iterations >= 300
    assert len(params_built) == 1
    assert len(objectives_built) == 1


class TestRefine:
    def test_mu_recomposition_and_masked_prediction(self):
        rng = substream(13, "refine")
        net = random_network(rng, 5, 4, mask_frac=0.4)
        res = fit(net, FitConfig(dim=2, restarts=0, max_iter=100))
        ref = refine_network(net, res)
        np.testing.assert_array_equal(
            ref.mu, ref.eta + ref.delta[:, None] + ref.gamma[None, :]
        )
        masked = np.argwhere(~net.edge_mask)
        assert masked.size
        i, j = masked[0]
        assert np.isfinite(ref.mu[i, j])
        p = res.params
        assert ref.mu[i, j] == pytest.approx(pair_affinity(p, i, j) + p.delta[i] + p.gamma[j])

    def test_tiny_beta_gives_constant_affinity(self):
        from netlsm.model import FitResult

        p = LsmParams(np.ones((3, 2)), np.zeros((2, 2)), 0.8, 1e-300,
                      np.zeros(3), np.zeros(2))
        res = FitResult(params=p, log_likelihood=0.0, iterations=0,
                        grad_norm=0.0, restart_index=0, converged=True)
        net = random_network(substream(14, "b0"), 3, 2)
        ref = refine_network(net, res)
        assert np.all(ref.eta == 0.8)
