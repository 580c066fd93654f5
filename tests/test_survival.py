import math

import numpy as np
import pytest

from netlsm import (
    CoxModel,
    SurvivalGenConfig,
    TransplantDataset,
    c_index,
    cox_fit,
    design_matrix,
    extract_network,
    pipeline_end_to_end,
    simulate_transplants,
    substitute_coefficients,
    tune_lambda,
)
from netlsm.model import RefinedEstimates
from netlsm.survival import Column, breslow_loglik, build_design, _risk_set_stats
from netlsm._util import substream


def toy_dataset(n_per_cell=3, p=1, seed=0):
    rng = substream(seed, "toy")
    dts, rts = [], []
    for d in ("A", "B"):
        for r in ("x", "y"):
            dts += [d] * n_per_cell
            rts += [r] * n_per_cell
    n = len(dts)
    return TransplantDataset(
        covariates=rng.standard_normal((n, p)),
        donor_type=np.array(dts),
        recipient_type=np.array(rts),
        time=rng.exponential(1.0, n),
        event=np.ones(n, dtype=bool),
    )


def pll_grid(x1, t, e, ws):
    """Breslow partial log-likelihood on a 1-covariate instance, per omega."""
    order = np.argsort(t, kind="stable")
    xs, es = x1[order], e[order]
    xw = np.outer(xs, ws)
    s0 = np.cumsum(np.exp(xw)[::-1], axis=0)[::-1]
    return (xw[es] - np.log(s0[es])).sum(axis=0)


class TestDesignMatrix:
    def test_counting(self):
        data = toy_dataset(n_per_cell=3, p=2)
        x, cols = design_matrix(data, min_count=3)
        assert x.shape[1] == 2 + 2 + 2 + 4
        kinds = [c.kind for c in cols]
        assert kinds.count("basic") == 2 and kinds.count("pair") == 4

    def test_rare_pair_dropped_types_kept(self):
        data = toy_dataset(n_per_cell=3)
        # drop one record from cell (B, y): that pair has 2 < 3 support
        keep = np.ones(data.n, dtype=bool)
        keep[np.flatnonzero((data.donor_type == "B") & (data.recipient_type == "y"))[0]] = False
        sub = data.subset(np.flatnonzero(keep))
        _, cols = design_matrix(sub, min_count=3)
        names = [c.name for c in cols]
        assert "pair_B_y" not in names
        assert "don_B" in names and "rec_y" in names

    def test_one_hot_per_record(self):
        data = toy_dataset()
        x, cols = design_matrix(data, min_count=1)
        d_cols = [k for k, c in enumerate(cols) if c.kind == "donor"]
        r_cols = [k for k, c in enumerate(cols) if c.kind == "recipient"]
        assert np.all(x[:, d_cols].sum(axis=1) == 1.0)
        assert np.all(x[:, r_cols].sum(axis=1) == 1.0)

    def test_build_design_matches(self):
        data = toy_dataset()
        x, cols = design_matrix(data, min_count=1)
        np.testing.assert_array_equal(build_design(data, cols), x)


class TestCoxFit:
    def test_two_subject_closed_form(self):
        x = np.array([[1.0], [0.0]])
        t = np.array([1.0, 2.0])
        e = np.array([True, True])
        assert breslow_loglik(x, t, e, np.zeros(1)) == pytest.approx(math.log(0.5))

    def test_three_subject_grid_oracle(self):
        n_ok, seed = 0, 0
        while n_ok < 5:
            rng = substream(seed, "cox-oracle")
            seed += 1
            x = rng.standard_normal(3)
            t = rng.exponential(1.0, 3)
            e = np.ones(3, dtype=bool)
            coarse = np.linspace(-10, 10, 20001)
            w0 = coarse[np.argmax(pll_grid(x, t, e, coarse))]
            if abs(w0) > 6:
                continue  # near-separable instance, MLE outside the window
            fine = np.linspace(w0 - 2e-3, w0 + 2e-3, 4001)
            w_star = fine[np.argmax(pll_grid(x, t, e, fine))]
            model = cox_fit(x[:, None], t, e, 0.0)
            assert abs(model.coefficients[0] - w_star) <= 1e-4
            n_ok += 1

    def test_separable_data_finite_with_ridge(self):
        x = np.array([[3.0], [2.0], [1.0], [0.0]])
        t = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.ones(4, dtype=bool)
        model = cox_fit(x, t, e, 1.0)
        assert model.converged
        assert abs(model.coefficients[0]) < 50
        assert np.all(model.std_errors > 0)

    def test_penalized_score_at_optimum(self):
        rng = substream(1, "cox")
        n, p = 60, 3
        x = rng.standard_normal((n, p))
        t = rng.exponential(1.0, n)
        e = rng.random(n) < 0.6
        lam = 0.5
        model = cox_fit(x, t, e, lam)
        _, grad, _ = _risk_set_stats(x, t, e, model.coefficients, False)
        assert np.max(np.abs(grad - lam * model.coefficients)) <= 1e-6

    def test_time_scale_invariance(self):
        rng = substream(2, "cox")
        n = 50
        x = rng.standard_normal((n, 2))
        t = rng.exponential(1.0, n)
        e = rng.random(n) < 0.7
        a = cox_fit(x, t, e, 0.1)
        b = cox_fit(x, 3.0 * t, e, 0.1)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)
        risk = x @ a.coefficients
        assert c_index(risk, t, e) == c_index(risk, 3.0 * t, e)

    def test_vectorized_stats_match_naive(self):
        rng = substream(3, "cox")
        n, p = 25, 3
        x = rng.standard_normal((n, p))
        t = rng.exponential(1.0, n)
        t[3] = t[7]  # force a tie group
        e = rng.random(n) < 0.6
        w = rng.standard_normal(p)
        ll, grad, info = _risk_set_stats(x, t, e, w, True)
        # naive double loop over events
        ll0 = 0.0
        grad0 = np.zeros(p)
        info0 = np.zeros((p, p))
        r = np.exp(x @ w)
        for i in range(n):
            if not e[i]:
                continue
            riskset = t >= t[i]
            s0 = r[riskset].sum()
            s1 = (r[riskset, None] * x[riskset]).sum(axis=0)
            s2 = (r[riskset, None, None] * x[riskset, :, None] * x[riskset, None, :]).sum(axis=0)
            ll0 += x[i] @ w - math.log(s0)
            grad0 += x[i] - s1 / s0
            info0 += s2 / s0 - np.outer(s1, s1) / s0**2
        assert ll == pytest.approx(ll0, abs=1e-10)
        np.testing.assert_allclose(grad, grad0, atol=1e-10)
        np.testing.assert_allclose(info, info0, atol=1e-10)

    def test_rejects_zero_column(self):
        x = np.zeros((4, 1))
        with pytest.raises(ValueError):
            cox_fit(x, np.arange(1.0, 5.0), np.ones(4, bool), 1.0)


class TestTuneLambda:
    def test_degenerate_grid(self):
        rng = substream(4, "tune")
        x = rng.standard_normal((30, 2))
        t = rng.exponential(1.0, 30)
        e = np.ones(30, dtype=bool)
        assert tune_lambda(x, t, e, [0.7]) == 0.7

    def test_noise_prefers_shrinkage(self):
        grid = [0.01, 1000.0]
        wins = 0
        for run in range(20):
            rng = substream(run, "mc-noise")
            x = rng.standard_normal((40, 6))
            t = rng.exponential(1.0, 40)
            e = rng.random(40) < 0.7
            if tune_lambda(x, t, e, grid, seed=run) == 1000.0:
                wins += 1
        assert wins >= 16

    def test_signal_prefers_small_penalty(self):
        grid = [0.01, 1000.0]
        wins = 0
        for run in range(20):
            rng = substream(run, "mc-signal")
            x = rng.standard_normal((80, 3))
            lp = 2.0 * x[:, 0]
            t = rng.exponential(1.0 / (0.1 * np.exp(lp)))
            e = np.ones(80, dtype=bool)
            if tune_lambda(x, t, e, grid, seed=run) == 0.01:
                wins += 1
        assert wins >= 16


def small_model():
    cols = (
        Column("basic", "x1"),
        Column("donor", "don_A", donor="A"),
        Column("donor", "don_B", donor="B"),
        Column("recipient", "rec_x", recipient="x"),
        Column("recipient", "rec_y", recipient="y"),
        Column("pair", "pair_A_x", donor="A", recipient="x"),
        Column("pair", "pair_A_y", donor="A", recipient="y"),
        Column("pair", "pair_B_x", donor="B", recipient="x"),
    )
    coef = np.array([0.9, 0.2, -0.1, 0.3, -0.4, 0.2, -0.6, 0.15])
    se = np.array([0.1, 0.05, 0.06, 0.07, 0.08, 0.05, 0.09, 0.11])
    return CoxModel(coefficients=coef, std_errors=se, penalty=1.0,
                    columns=cols, converged=True)


class TestExtractSubstitute:
    def test_extract_negation_and_mask(self):
        net = extract_network(small_model())
        assert net.donor_labels == ("A", "B") and net.recipient_labels == ("x", "y")
        assert net.donor_weight[0] == pytest.approx(-0.2)
        assert net.donor_se[0] == pytest.approx(0.05)
        assert net.edge_weight[0, 0] == pytest.approx(-0.2)
        assert net.edge_se[0, 0] == pytest.approx(0.05)
        assert int(net.edge_mask.sum()) == 3
        assert not net.edge_mask[1, 1]  # pair_B_y has no column

    def test_identity_substitution(self):
        model = small_model()
        net = extract_network(model)
        refined = RefinedEstimates(
            donor_labels=net.donor_labels,
            recipient_labels=net.recipient_labels,
            mu=net.edge_weight + net.donor_weight[:, None] + net.recipient_weight[None, :],
            eta=net.edge_weight.copy(),
            delta=net.donor_weight.copy(),
            gamma=net.recipient_weight.copy(),
        )
        sub = substitute_coefficients(model, refined)
        np.testing.assert_array_equal(sub.coefficients, model.coefficients)

    def test_basic_block_untouched_and_linearity(self):
        model = small_model()
        net = extract_network(model)
        rng = substream(5, "sub")
        refined = RefinedEstimates(
            donor_labels=net.donor_labels,
            recipient_labels=net.recipient_labels,
            mu=np.zeros((2, 2)),
            eta=rng.standard_normal((2, 2)),
            delta=net.donor_weight.copy(),
            gamma=net.recipient_weight.copy(),
        )
        sub = substitute_coefficients(model, refined)
        assert sub.coefficients[0] == model.coefficients[0]
        x = rng.standard_normal((10, len(model.columns)))
        dc = sub.coefficients - model.coefficients
        np.testing.assert_allclose(
            x @ sub.coefficients - x @ model.coefficients, x @ dc, atol=1e-12
        )

    def test_missing_label_rejected(self):
        model = small_model()
        refined = RefinedEstimates(
            donor_labels=("A",), recipient_labels=("x", "y"),
            mu=np.zeros((1, 2)), eta=np.zeros((1, 2)),
            delta=np.zeros(1), gamma=np.zeros(2),
        )
        with pytest.raises(ValueError, match="missing donor"):
            substitute_coefficients(model, refined)


def c_index_oracle(risk, time, event):
    credit, comparable = 0.0, 0
    n = len(risk)
    for i in range(n):
        for j in range(n):
            if i == j or not event[i]:
                continue
            if not (time[i] < time[j] or (time[i] == time[j] and not event[j])):
                continue
            comparable += 1
            if risk[i] > risk[j]:
                credit += 1.0
            elif risk[i] == risk[j]:
                credit += 0.5
    return credit / comparable


class TestCIndex:
    def test_perfect_and_reversed(self):
        t = np.array([1.0, 2.0, 3.0])
        e = np.ones(3, dtype=bool)
        assert c_index(np.array([3.0, 2.0, 1.0]), t, e) == 1.0
        assert c_index(np.array([1.0, 2.0, 3.0]), t, e) == 0.0

    def test_constant_risk_half(self):
        t = np.array([1.0, 2.0, 3.0])
        e = np.ones(3, dtype=bool)
        assert c_index(np.zeros(3), t, e) == 0.5

    def test_hand_example_matches_oracle(self):
        risk = np.array([2.0, 1.0, 3.0, 0.5])
        t = np.array([1.0, 2.0, 3.0, 1.5])
        e = np.array([True, True, False, False])
        assert c_index(risk, t, e) == c_index_oracle(risk, t, e)

    def test_increasing_transform_invariance(self):
        rng = substream(6, "cidx")
        risk = rng.standard_normal(40)
        t = rng.exponential(1.0, 40)
        e = rng.random(40) < 0.5
        e[np.argmin(t)] = True
        base = c_index(risk, t, e)
        assert c_index(np.exp(risk), t, e) == base
        assert c_index(3.0 * risk + 7.0, t, e) == base

    def test_no_comparable_pairs(self):
        with pytest.raises(ValueError, match="comparable"):
            c_index(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                    np.array([True, True]))


class TestGenerator:
    def test_deterministic(self):
        a_train, a_test, a_truth = simulate_transplants(SurvivalGenConfig(n_per_split=200, seed=9))
        b_train, b_test, b_truth = simulate_transplants(SurvivalGenConfig(n_per_split=200, seed=9))
        assert np.array_equal(a_train.time, b_train.time)
        assert np.array_equal(a_test.covariates, b_test.covariates)
        assert np.array_equal(a_truth.eta, b_truth.eta)

    def test_censoring_fraction(self):
        train, test, _ = simulate_transplants(SurvivalGenConfig(seed=0))
        for split in (train, test):
            frac = 1.0 - split.event.mean()
            assert abs(frac - 0.75) <= 0.05

    def test_higher_linear_predictor_fails_sooner(self):
        from scipy.stats import spearmanr

        for seed in range(3):
            cfg = SurvivalGenConfig(n_per_split=1000, seed=seed)
            train, _, truth = simulate_transplants(cfg)
            d_idx = np.array([truth.donor_labels.index(d) for d in train.donor_type])
            r_idx = np.array([truth.recipient_labels.index(r) for r in train.recipient_type])
            lp = (train.covariates @ truth.basic_coef
                  - truth.params.delta[d_idx] - truth.params.gamma[r_idx]
                  - truth.eta[d_idx, r_idx])
            ev = train.event
            rho = spearmanr(lp[ev], train.time[ev]).statistic
            assert rho < 0

    def test_csv_round_trip(self, tmp_path):
        train, _, _ = simulate_transplants(SurvivalGenConfig(n_per_split=50, seed=1))
        train.to_csv(tmp_path / "t.csv")
        back = TransplantDataset.from_csv(tmp_path / "t.csv")
        assert np.array_equal(train.time, back.time)
        assert np.array_equal(train.event, back.event)
        assert np.array_equal(train.covariates, back.covariates)
        assert np.array_equal(train.donor_type, back.donor_type)


GOOD_CSV = "id,time,event,donor_type,recipient_type,x1\n0,1.5,1,A,x,0.25\n1,2.0,0,B,y,-1\n"


@pytest.mark.parametrize("text,message", [
    ("", r"t\.csv: empty file"),
    ("id,time,donor_type,recipient_type,x1\n0,1.5,A,x,0.25\n", r"missing column\(s\) event"),
    ("id,time,event,x1\n0,1.5,1,0.25\n", r"missing column\(s\) donor_type, recipient_type"),
    (GOOD_CSV + "2,3.0,1,A\n", r"t\.csv:4: expected 6 fields, got 4"),
    (GOOD_CSV.replace("2.0", "soon"), r"t\.csv:3: malformed time 'soon'"),
    (GOOD_CSV.replace("0.25", "abc"), r"t\.csv:2: malformed x1 'abc'"),
    (GOOD_CSV.replace("-1", "nan"), r"t\.csv:3: non-finite x1"),
    (GOOD_CSV.replace("2.0,0", "2.0,yes"), r"t\.csv:3: event must be 0 or 1, got 'yes'"),
    ("id,time,event,donor_type,recipient_type\n", r"t\.csv: no data rows"),
])
def test_from_csv_rejects_malformed_rows(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        TransplantDataset.from_csv(path)


def test_from_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(GOOD_CSV.replace("\n1,", "\n\n1,"))
    data = TransplantDataset.from_csv(path)
    assert data.time.tolist() == [1.5, 2.0]
    assert data.event.tolist() == [True, False]
    assert data.covariates.tolist() == [[0.25], [-1.0]]


class TestPipeline:
    def test_identity_refinement_is_noop(self):
        cfg = SurvivalGenConfig(n_per_split=1200, seed=2)
        res = pipeline_end_to_end(cfg, min_count=5, methods=("lsm",),
                                  identity_refinement=True)
        assert res.deltas["lsm"] == 0.0

    def test_reports_all_methods(self):
        cfg = SurvivalGenConfig(n_per_split=1200, seed=3)
        res = pipeline_end_to_end(cfg, min_count=5)
        assert set(res.c_refined) == {"lsm", "nmtf", "pca"}
        assert 0.0 <= res.c_raw <= 1.0
        for v in res.c_refined.values():
            assert 0.0 <= v <= 1.0

    def test_raw_method_is_the_identity_and_unknown_rejected(self):
        cfg = SurvivalGenConfig(n_per_split=600, seed=4)
        res = pipeline_end_to_end(cfg, min_count=5, methods=("raw",))
        assert res.deltas["raw"] == 0.0
        with pytest.raises(ValueError, match="unknown method"):
            pipeline_end_to_end(cfg, min_count=5, methods=("ols",))
