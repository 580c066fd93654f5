import math

import numpy as np
import pytest

from netlsm import NmtfConfig, nmtf_refine, pca_refine
from netlsm.baselines import _CLAMP, _EPS, logit, mean_impute
from netlsm.mdsinit import logistic
from netlsm._util import substream


class TestPca:
    def test_rank1_exact(self):
        rng = substream(0, "pca")
        m = np.outer(rng.normal(size=6), rng.normal(size=5))
        assert np.max(np.abs(pca_refine(m, 1) - m)) <= 1e-10

    def test_full_rank_identity(self):
        m = substream(1, "pca").normal(size=(6, 5))
        assert np.max(np.abs(pca_refine(m, 5) - m)) <= 1e-10

    def test_matches_eigen_oracle(self):
        m = substream(2, "pca").normal(size=(6, 5))
        mu = m.mean(axis=0, keepdims=True)
        c = m - mu
        evals, evecs = np.linalg.eigh(c @ c.T)
        u2 = evecs[:, np.argsort(evals)[::-1][:2]]
        oracle = u2 @ u2.T @ c + mu
        assert np.max(np.abs(pca_refine(m, 2) - oracle)) <= 1e-8

    def test_error_monotone_in_dim(self):
        m = substream(3, "pca").normal(size=(7, 6))
        errs = [np.linalg.norm(pca_refine(m, d) - m) for d in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_dim_bounds(self):
        m = np.zeros((3, 4))
        with pytest.raises(ValueError):
            pca_refine(m, 0)
        with pytest.raises(ValueError):
            pca_refine(m, 4)


class TestLogisticLogit:
    def test_round_trip_probability_scale(self):
        # p -> logit -> logistic is the identity across the whole clamp range
        p = logistic(np.linspace(-30.0, 30.0, 2001))
        assert np.max(np.abs(logistic(logit(p)) - p)) <= 1e-9

    def test_round_trip_weight_scale(self):
        # x -> logistic -> logit recovers x wherever float64 can represent
        # 1 - logistic(x) with enough relative precision (|x| <~ 16)
        x = np.linspace(-15.0, 15.0, 2001)
        assert np.max(np.abs(logit(logistic(x)) - x)) <= 1e-9


class TestMeanImpute:
    def test_column_mean_fill(self):
        w = np.array([[1.0, 5.0], [3.0, 7.0]])
        mask = np.array([[True, False], [True, True]])
        out = mean_impute(w, mask)
        assert out[0, 1] == pytest.approx(7.0)  # only observed value in column 1
        assert out[0, 0] == 1.0 and out[1, 1] == 7.0

    def test_empty_column_uses_global_mean(self):
        w = np.array([[2.0, 99.0], [4.0, 99.0]])
        mask = np.array([[True, False], [True, False]])
        out = mean_impute(w, mask)
        assert np.all(out[:, 1] == pytest.approx(3.0))

    def test_full_mask_identity(self):
        w = substream(4, "imp").normal(size=(3, 3))
        assert np.array_equal(mean_impute(w, np.ones((3, 3), bool)), w)


def nmtf_reference(weights, config):
    """The plain multiplicative-update loop: every temporary allocated, as first written."""
    v = logistic(np.asarray(weights, dtype=float))
    n_d, n_r = v.shape
    k = config.rank
    rng = substream(config.seed, "nmtf-init")
    f = rng.uniform(size=(n_d, k))
    s = rng.uniform(size=(k, k))
    g = rng.uniform(size=(n_r, k))

    def objective():
        r = v - f @ s @ g.T
        return float(np.sum(r * r))

    prev = objective()
    history = [prev]
    it = 0
    for it in range(1, config.max_iter + 1):
        sg = s @ g.T
        f *= (v @ sg.T) / (f @ (sg @ sg.T) + _EPS)
        fs = f @ s
        g *= (v.T @ fs) / (g @ (fs.T @ fs) + _EPS)
        ftf = f.T @ f
        gtg = g.T @ g
        s *= (f.T @ v @ g) / (ftf @ s @ gtg + _EPS)
        cur = objective()
        history.append(cur)
        if abs(prev - cur) <= config.tol * max(prev, _EPS):
            break
        prev = cur
    return logit(np.clip(f @ s @ g.T, _CLAMP, 1.0 - _CLAMP)), it, tuple(history)


class TestNmtf:
    @pytest.mark.parametrize("shape, rank, max_iter, tol", [
        ((8, 8), 1, 2000, 1e-9),
        ((8, 8), 2, 2000, 1e-9),
        ((8, 8), 3, 2000, 1e-9),
        ((6, 11), 1, 2000, 1e-9),
        ((11, 6), 2, 2000, 1e-9),
        ((9, 7), 3, 2000, 1e-9),
        ((12, 12), 2, 40, 1e-30),  # stops at max_iter
        ((12, 12), 2, 5000, 1e-6),  # converges
    ])
    def test_sweeps_updated_in_place_equal_the_plain_loop(self, shape, rank, max_iter, tol):
        w = substream(rank, "nmtf-in-place", str(shape)).normal(size=shape)
        cfg = NmtfConfig(rank=rank, max_iter=max_iter, tol=tol, seed=rank)
        res = nmtf_refine(w, cfg)
        reconstruction, iterations, history = nmtf_reference(w, cfg)
        assert res.reconstruction.tobytes() == reconstruction.tobytes()
        assert res.iterations == iterations
        assert np.array(res.objective_history).tobytes() == np.array(history).tobytes()
        assert res.converged == (iterations < max_iter)

    def test_rank1_recovery(self):
        rng = substream(0, "nmtf-rank1")
        f = rng.uniform(0.2, 0.9, (8, 1))
        s = np.array([[0.8]])
        g = rng.uniform(0.2, 0.9, (7, 1))
        v = f @ s @ g.T
        res = nmtf_refine(logit(v), NmtfConfig(rank=1, max_iter=5000, tol=1e-13, seed=0))
        assert np.linalg.norm(logistic(res.reconstruction) - v) <= 1e-3
        assert res.converged

    def test_objective_monotone(self):
        w = substream(5, "nmtf").normal(size=(8, 7))
        res = nmtf_refine(w, NmtfConfig(rank=2, max_iter=200, tol=1e-15, seed=1))
        h = np.array(res.objective_history)
        assert h.size >= 2
        assert np.all(h[1:] <= h[:-1] + 1e-12)
        assert res.objective == pytest.approx(h[-1])

    def test_deterministic(self):
        w = substream(6, "nmtf").normal(size=(5, 6))
        a = nmtf_refine(w, NmtfConfig(rank=2, seed=3))
        b = nmtf_refine(w, NmtfConfig(rank=2, seed=3))
        assert np.array_equal(a.reconstruction, b.reconstruction)
        assert a.objective == b.objective

    def test_nonconvergence_flagged_not_raised(self):
        w = substream(7, "nmtf").normal(size=(6, 6))
        res = nmtf_refine(w, NmtfConfig(rank=2, max_iter=2, tol=1e-30, seed=0))
        assert not res.converged
        assert np.all(np.isfinite(res.reconstruction))

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            nmtf_refine(np.zeros((3, 4)), NmtfConfig(rank=4))
        with pytest.raises(ValueError):
            NmtfConfig(rank=0)

    @pytest.mark.parametrize("tol, message", [
        (math.nan, "tol must be >= 0"),
        (-1e-9, "tol must be >= 0"),
        (math.inf, "tol must be finite"),
    ])
    def test_config_refuses_a_tol_not_non_negative_and_finite(self, tol, message):
        # a NaN tol never met the relative-change test, so every fit ran to max_iter
        with pytest.raises(ValueError, match=f"^{message}$"):
            NmtfConfig(tol=tol)
        NmtfConfig(tol=0.0)
