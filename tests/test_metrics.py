import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netlsm import FitConfig, SimConfig, evaluate_refinement, mean_log_prob, rmse, sign_accuracy
from netlsm.baselines import NmtfConfig, mean_impute, nmtf_refine, pca_refine
from netlsm.metrics import METHODS, format_eval_table, refine
from netlsm.model import fit, refine_network
from netlsm.simulate import simulate_train_test
from netlsm._util import substream

from helpers import random_network

HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

finite = st.floats(-1e6, 1e6, allow_nan=False)


class TestRmse:
    def test_examples(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0)
        assert rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestMeanLogProb:
    def test_at_mean_unit_se(self):
        assert mean_log_prob([1.0, -2.0], [1.0, -2.0], [1.0, 1.0]) == pytest.approx(
            -HALF_LN_2PI
        )

    def test_one_sigma(self):
        se = np.array([0.5, 2.0])
        expect = np.mean(-0.5 * np.log(2 * math.pi * se**2) - 0.5)
        assert mean_log_prob(se, [0.0, 0.0], se) == pytest.approx(expect, abs=1e-12)

    def test_per_term_oracle(self):
        pred = [0.3, -1.2, 4.0]
        obs = [0.1, -1.0, 3.5]
        se = [0.2, 0.7, 1.3]
        oracle = sum(
            -0.5 * math.log(2 * math.pi * s * s) - (p - o) ** 2 / (2 * s * s)
            for p, o, s in zip(pred, obs, se)
        ) / 3
        assert abs(mean_log_prob(pred, obs, se) - oracle) <= 1e-12

    def test_nonpositive_se_rejected(self):
        with pytest.raises(ValueError):
            mean_log_prob([0.0], [0.0], [0.0])

    def test_strictly_decreases_with_deviation(self):
        pred = np.array([0.5, 1.0, -0.3])
        obs = np.zeros(3)
        se = np.array([0.4, 1.0, 2.0])
        base = mean_log_prob(pred, obs, se)
        worse = pred.copy()
        worse[1] += 0.5
        assert mean_log_prob(worse, obs, se) < base


class TestSignAccuracy:
    def test_examples(self):
        assert sign_accuracy([1.0, -1.0], [2.0, -3.0]) == 1.0
        assert sign_accuracy([1.0, -1.0], [-2.0, -3.0]) == 0.5
        assert sign_accuracy([0.0], [0.1]) == 1.0  # zero counts as positive


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite, finite, st.floats(0.01, 10.0)), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_metrics_permutation_invariant(triples, rnd):
    pred, obs, se = (np.array(v) for v in zip(*triples))
    idx = list(range(len(pred)))
    rnd.shuffle(idx)
    assert rmse(pred[idx], obs[idx]) == pytest.approx(rmse(pred, obs), rel=1e-12)
    assert sign_accuracy(pred[idx], obs[idx]) == sign_accuracy(pred, obs)
    assert mean_log_prob(pred[idx], obs[idx], se[idx]) == pytest.approx(
        mean_log_prob(pred, obs, se), rel=1e-12, abs=1e-12
    )


class TestEvaluateRefinement:
    def test_raw_self_evaluation(self):
        net = random_network(substream(0, "eval"), 5, 4, mask_frac=0.2)
        ev = evaluate_refinement(net, net, "raw", [2])
        rep = ev.selected_report()
        assert rep.rmse == 0.0
        assert rep.sign_accuracy == 1.0
        assert rep.n_pairs == int(net.edge_mask.sum())
        assert ev.selected_dim is None

    def test_raw_independent_of_dim_grid(self):
        net = random_network(substream(1, "eval"), 5, 4)
        a = evaluate_refinement(net, net, "raw", [1])
        b = evaluate_refinement(net, net, "raw", [1, 2, 3])
        assert a.selected_report() == b.selected_report()

    def test_single_entry_grid_selected(self):
        net = random_network(substream(2, "eval"), 6, 6)
        ev = evaluate_refinement(net, net, "pca", [3])
        assert ev.selected_dim == 3
        assert list(ev.reports) == [3]

    def test_grid_selection_maximizes_mlp(self):
        truth, train, test = simulate_train_test(SimConfig(n_d=10, n_r=10, seed=3))
        ev = evaluate_refinement(train, test, "pca", [1, 2, 4, 8])
        best = max(ev.reports.values(), key=lambda r: r.mean_log_prob)
        assert ev.reports[ev.selected_dim].mean_log_prob == best.mean_log_prob

    def test_lsm_beats_raw_on_shared_truth(self):
        truth, train, test = simulate_train_test(SimConfig(seed=0))
        raw = evaluate_refinement(train, test, "raw", [2]).selected_report()
        lsm = evaluate_refinement(
            train, test, "lsm", [2],
            fit_config=FitConfig(dim=2, restarts=1, seed=0),
        ).selected_report()
        assert lsm.rmse < raw.rmse
        assert lsm.mean_log_prob > raw.mean_log_prob

    def test_label_mismatch_rejected(self):
        a = random_network(substream(3, "eval"), 3, 3)
        b = random_network(substream(4, "eval"), 4, 3)
        with pytest.raises(ValueError, match="labels"):
            evaluate_refinement(a, b, "raw", [1])

    def test_no_common_pairs_rejected(self):
        rng = substream(5, "eval")
        a = random_network(rng, 2, 2)
        mask_a = np.array([[True, False], [False, False]])
        mask_b = np.array([[False, True], [True, True]])
        na = type(a)(a.donor_labels, a.recipient_labels, a.donor_weight, a.donor_se,
                     a.recipient_weight, a.recipient_se, a.edge_weight, a.edge_se, mask_a)
        nb = type(a)(a.donor_labels, a.recipient_labels, a.donor_weight, a.donor_se,
                     a.recipient_weight, a.recipient_se, a.edge_weight, a.edge_se, mask_b)
        with pytest.raises(ValueError, match="observed in both"):
            evaluate_refinement(na, nb, "raw", [1])

    def test_unknown_method(self):
        net = random_network(substream(6, "eval"), 3, 3)
        with pytest.raises(ValueError, match="method"):
            evaluate_refinement(net, net, "ols", [1])

    def test_table_formatting(self):
        net = random_network(substream(7, "eval"), 5, 5)
        evs = [evaluate_refinement(net, net, m, [2]) for m in ("raw", "pca")]
        text = format_eval_table(evs)
        assert "rmse" in text and "raw" in text and "pca" in text


# Reference: the three per-method dispatches that `refine` replaced, kept
# verbatim (the unused `eta_only` path of `_predict` left out).
def _old_predict(method, train_net, dim, fit_config, nmtf_config):
    result = None
    if method == "raw":
        pred_eta = np.where(train_net.edge_mask, train_net.edge_weight, 0.0)
        delta, gamma = train_net.donor_weight, train_net.recipient_weight
    elif method == "lsm":
        cfg = fit_config if fit_config.dim == dim else replace(fit_config, dim=dim)
        result = fit(train_net, cfg)
        refined = refine_network(train_net, result)
        pred_eta, delta, gamma = refined.eta, refined.delta, refined.gamma
    elif method == "pca":
        pred_eta = pca_refine(mean_impute(train_net.edge_weight, train_net.edge_mask), dim)
        delta, gamma = train_net.donor_weight, train_net.recipient_weight
    elif method == "nmtf":
        cfg = NmtfConfig(
            rank=dim, max_iter=nmtf_config.max_iter, tol=nmtf_config.tol, seed=nmtf_config.seed
        )
        pred_eta = nmtf_refine(
            mean_impute(train_net.edge_weight, train_net.edge_mask), cfg
        ).reconstruction
        delta, gamma = train_net.donor_weight, train_net.recipient_weight
    else:
        raise ValueError(f"unknown method {method!r}")
    pred_eta = pred_eta + delta[:, None] + gamma[None, :]
    return pred_eta, result


# The two references below return arrays (mu, eta, delta, gamma), with mu by
# its own formula, so that they check the RefinedEstimates.mu property.
def _old_baseline_refined(net, method, dim, seed):
    imputed = mean_impute(net.edge_weight, net.edge_mask)
    if method == "pca":
        eta = pca_refine(imputed, dim)
    else:
        eta = nmtf_refine(imputed, NmtfConfig(rank=dim, seed=seed)).reconstruction
    return (
        eta + net.donor_weight[:, None] + net.recipient_weight[None, :],
        eta,
        net.donor_weight.copy(),
        net.recipient_weight.copy(),
    )


def _old_identity_refined(net):
    return (
        net.edge_weight + net.donor_weight[:, None] + net.recipient_weight[None, :],
        net.edge_weight.copy(),
        net.donor_weight.copy(),
        net.recipient_weight.copy(),
    )


def _zero_masked(net):
    """``net`` with 0 at masked pairs, as `extract_network` writes them."""
    return replace(net, edge_weight=np.where(net.edge_mask, net.edge_weight, 0.0))


def _reference_networks():
    """Random masked 7x6 networks, the last with an all-masked column; the
    masked pairs hold random weights, which every method must ignore."""
    nets = [random_network(substream(s, "refine-ref"), 7, 6, mask_frac=0.3) for s in range(3)]
    net = random_network(substream(3, "refine-ref"), 7, 6, mask_frac=0.2)
    mask = net.edge_mask.copy()
    mask[:, 2] = False
    return nets + [replace(net, edge_mask=mask)]


def _assert_same_estimates(refined, net, expected):
    """``refined`` carries ``net``'s labels and the arrays (mu, eta, delta, gamma)."""
    assert refined.donor_labels == net.donor_labels
    assert refined.recipient_labels == net.recipient_labels
    for name, value in zip(("mu", "eta", "delta", "gamma"), expected):
        assert np.array_equal(getattr(refined, name), value), name


class TestRefine:
    FIT = FitConfig(max_iter=60, restarts=1, seed=3)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_old_evaluation_dispatch(self, method, dim):
        fit_config = replace(self.FIT, seed=7)
        for net in _reference_networks():
            refined, result = refine(net, method, dim, fit_config)
            pred, old_result = _old_predict(method, net, dim, fit_config, NmtfConfig(seed=7))
            assert np.array_equal(refined.mu, pred)
            if method == "lsm":
                assert result.log_likelihood == old_result.log_likelihood
                old = refine_network(net, old_result)
                _assert_same_estimates(refined, net, (old.mu, old.eta, old.delta, old.gamma))
            else:
                assert result is None and old_result is None

    @pytest.mark.parametrize("method", ["pca", "nmtf"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_old_pipeline_baselines(self, method, dim, seed):
        for net in _reference_networks():
            refined, _ = refine(net, method, dim, replace(self.FIT, seed=seed))
            _assert_same_estimates(refined, net, _old_baseline_refined(net, method, dim, seed))

    def test_raw_matches_old_identity_refinement(self):
        for net in map(_zero_masked, _reference_networks()):
            refined, result = refine(net, "raw", None, self.FIT)
            assert result is None
            _assert_same_estimates(refined, net, _old_identity_refined(net))

    def test_estimates_do_not_alias_the_network(self):
        net = _reference_networks()[0]
        refined, _ = refine(net, "raw", None)
        refined.delta[0] += 1.0
        assert refined.delta[0] != net.donor_weight[0]

    def test_unknown_method_rejected(self):
        net = _reference_networks()[0]
        with pytest.raises(ValueError, match="unknown method 'ols'"):
            refine(net, "ols", 2, self.FIT)
