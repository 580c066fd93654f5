import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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
from netlsm.model import FitConfig, RefinedEstimates
import netlsm._util
import netlsm.survival
from netlsm.survival import (Column, Design, _as_design, _gram, _risk_set_stats, _risk_sets,
                             _take_columns, _take_rows, _transpose, breslow_loglik, build_design)
from netlsm._util import substream

from helpers import LABELS


# Reference implementations: the dense, string-comparing and O(n^2) forms the
# sparse design, the segment kernel and the sort-based concordance replaced.

def column_set_reference(data, min_count):
    p = data.covariates.shape[1]
    cols = [Column("basic", f"x{k + 1}") for k in range(p)]
    d_types, d_counts = np.unique(data.donor_type, return_counts=True)
    r_types, r_counts = np.unique(data.recipient_type, return_counts=True)
    for t, c in zip(d_types, d_counts):
        if c >= min_count:
            cols.append(Column("donor", f"don_{t}", donor=str(t)))
    for t, c in zip(r_types, r_counts):
        if c >= min_count:
            cols.append(Column("recipient", f"rec_{t}", recipient=str(t)))
    pairs = {}
    for d, r in zip(data.donor_type, data.recipient_type):
        pairs[(str(d), str(r))] = pairs.get((str(d), str(r)), 0) + 1
    for (d, r), c in sorted(pairs.items()):
        if c >= min_count:
            cols.append(Column("pair", f"pair_{d}_{r}", donor=d, recipient=r))
    return tuple(cols)


def build_design_reference(data, columns):
    n = data.n
    x = np.zeros((n, len(columns)))
    dt = data.donor_type.astype(str)
    rt = data.recipient_type.astype(str)
    for k, col in enumerate(columns):
        if col.kind == "basic":
            x[:, k] = data.covariates[:, int(col.name[1:]) - 1]
        elif col.kind == "donor":
            x[:, k] = dt == col.donor
        elif col.kind == "recipient":
            x[:, k] = rt == col.recipient
        else:
            x[:, k] = (dt == col.donor) & (rt == col.recipient)
    return x


def risk_set_stats_reference(x, time, event, w, need_hessian):
    n, p = x.shape
    lp = x @ w
    shift = lp.max()
    order = np.argsort(time, kind="stable")
    t = time[order]
    ev = event[order]
    xs = x[order]
    lps = lp[order]
    r = np.exp(lps - shift)
    c0 = np.cumsum(r[::-1])[::-1]
    c1 = np.cumsum((r[:, None] * xs)[::-1], axis=0)[::-1]
    first = np.searchsorted(t, t, side="left")
    ev_idx = np.nonzero(ev)[0]
    s0_e = c0[first[ev_idx]]
    ll = float(lps[ev_idx].sum() - np.sum(np.log(s0_e)) - ev_idx.size * shift)
    xbar = c1[first[ev_idx]] / s0_e[:, None]
    grad = xs[ev_idx].sum(axis=0) - xbar.sum(axis=0)
    info = None
    if need_hessian:
        inc = np.zeros(n)
        np.add.at(inc, ev_idx, 1.0 / s0_e)
        last = np.searchsorted(t, t, side="right") - 1
        a = np.cumsum(inc)[last]
        info = xs.T @ ((r * a)[:, None] * xs) - xbar.T @ xbar
    return ll, grad, info


def c_index_reference(risk, time, event, chunk=512):
    risk = np.asarray(risk, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    n = risk.size
    credit = 0.0
    comparable = 0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        ti = time[lo:hi, None]
        ei = event[lo:hi, None]
        ri = risk[lo:hi, None]
        usable = ei & ((ti < time[None, :]) | ((ti == time[None, :]) & ~event[None, :]))
        comparable += int(usable.sum())
        credit += float(((ri > risk[None, :]) & usable).sum())
        credit += 0.5 * float(((ri == risk[None, :]) & usable).sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return credit / comparable


def random_labelled(rng, n, labels, p=2):
    """Records with donor/recipient types drawn from ``labels`` (ints or strings)."""
    event = rng.random(n) < 0.5
    event[0] = True
    return TransplantDataset(
        covariates=rng.standard_normal((n, p)),
        donor_type=rng.choice(labels, n),
        recipient_type=rng.choice(labels, n),
        time=rng.exponential(1.0, n),
        event=event,
    )


LABEL_SETS = {
    "int": np.array([3, 9, 10, 11, 100, 2]),
    "str": np.array(["B", "a", "A10", "A9", "A1", "b_x"]),
}


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
        sub = TransplantDataset(data.covariates[keep], data.donor_type[keep],
                                data.recipient_type[keep], data.time[keep], data.event[keep])
        _, cols = design_matrix(sub, min_count=3)
        names = [c.name for c in cols]
        assert "pair_B_y" not in names
        assert "don_B" in names and "rec_y" in names

    def test_one_hot_per_record(self):
        data = toy_dataset()
        x, cols = design_matrix(data, min_count=1)
        x = x.toarray()
        d_cols = [k for k, c in enumerate(cols) if c.kind == "donor"]
        r_cols = [k for k, c in enumerate(cols) if c.kind == "recipient"]
        assert np.all(x[:, d_cols].sum(axis=1) == 1.0)
        assert np.all(x[:, r_cols].sum(axis=1) == 1.0)

    def test_build_design_matches(self):
        data = toy_dataset()
        x, cols = design_matrix(data, min_count=1)
        np.testing.assert_array_equal(build_design(data, cols).toarray(), x.toarray())

    def test_sparse_one_hot_at_defaults(self):
        train, _, _ = simulate_transplants(SurvivalGenConfig(seed=0))
        x, cols = design_matrix(train, 10)
        assert isinstance(x, Design) and x.shape == (train.n, len(cols))
        # 4 covariates, one donor, one recipient and (here always) one pair
        assert np.all(np.diff(x.indptr) == 7)

    @pytest.mark.parametrize("labels", sorted(LABEL_SETS))
    def test_column_set_matches_loop(self, labels):
        for seed in range(6):
            rng = substream(seed, "columns", labels)
            data = random_labelled(rng, int(rng.integers(1, 300)), LABEL_SETS[labels])
            for min_count in (1, 3, 8):
                assert design_matrix(data, min_count)[1] == column_set_reference(data, min_count)

    def test_int_and_bytes_labels_are_the_types_their_strings_name(self):
        # a dataset stores its types as strings, so 10 and b"10" are the type
        # "10": the same columns, in string order, and the same design bytes
        rng = substream(0, "label-kinds")
        n = 300
        d, r = rng.choice(LABEL_SETS["int"], n), rng.choice(LABEL_SETS["int"], n)
        x, time, event = rng.standard_normal((n, 2)), rng.exponential(1.0, n), rng.random(n) < 0.5
        designs = {kind: design_matrix(TransplantDataset(x, form(d), form(r), time, event), 4)
                   for kind, form in (("str", lambda a: a.astype(str)), ("int", lambda a: a),
                                      ("bytes", lambda a: a.astype(bytes)))}
        x_str, cols = designs["str"]
        donors = [c.donor for c in cols if c.kind == "donor"]
        assert donors == sorted(map(str, LABEL_SETS["int"])) and donors != sorted(donors, key=int)
        for kind in ("int", "bytes"):
            x_kind, cols_kind = designs[kind]
            assert cols_kind == cols
            for part in ("data", "indices", "indptr"):
                a, b = getattr(x_kind, part), getattr(x_str, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        x_bytes, cols_bytes = designs["bytes"]
        assert cox_fit(x_bytes, time, event, 1.0, columns=cols_bytes).converged

    @pytest.mark.parametrize("labels", sorted(LABEL_SETS))
    def test_design_matches_string_reference(self, labels):
        for seed in range(6):
            rng = substream(seed, "design", labels)
            data = random_labelled(rng, int(rng.integers(1, 300)), LABEL_SETS[labels])
            # the other split may lack types and pairs the columns name
            other = random_labelled(rng, 40, LABEL_SETS[labels][:3])
            for min_count in (1, 4):
                x, cols = design_matrix(data, min_count)
                np.testing.assert_array_equal(x.toarray(), build_design_reference(data, cols))
                np.testing.assert_array_equal(build_design(other, cols).toarray(),
                                              build_design_reference(other, cols))

    def test_pipeline_design_matches_string_reference(self):
        train, test, _ = simulate_transplants(SurvivalGenConfig(seed=1))
        x, cols = design_matrix(train, 10)
        assert cols == column_set_reference(train, 10)
        np.testing.assert_array_equal(x.toarray(), build_design_reference(train, cols))
        np.testing.assert_array_equal(build_design(test, cols).toarray(),
                                      build_design_reference(test, cols))


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
        _, grad, _ = _risk_set_stats(_risk_sets(x, t, e), model.coefficients, False)
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
        ll, grad, info = _risk_set_stats(_risk_sets(x, t, e), w, True)
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

    @pytest.mark.parametrize("lam", [-1.0, math.nan, -math.inf, math.inf])
    def test_rejects_negative_or_nan_penalty(self, lam):
        # an infinite penalty gave NaN coefficients and stderrs of 2.2e-308
        message = "finite, got inf" if lam == math.inf else f"non-negative, got {lam}"
        with pytest.raises(ValueError, match=f"penalty must be {message}$"):
            cox_fit(np.eye(2), np.array([1.0, 2.0]), np.ones(2, bool), lam)

    def test_rejects_explicitly_stored_zero_column(self):
        x = sp.csr_matrix((np.array([1.0, 0.0]), (np.array([0, 1]), np.array([0, 1]))),
                          shape=(4, 2))
        with pytest.raises(ValueError, match="all-zero column"):
            cox_fit(x, np.arange(1.0, 5.0), np.ones(4, bool), 1.0)

    @staticmethod
    def pipeline_fit(monkeypatch, seed):
        """The pipeline's Cox fit at CLI defaults, and the penalized ll of
        every point its Newton loop evaluated."""
        train, _, _ = simulate_transplants(SurvivalGenConfig(seed=seed))
        x, columns = design_matrix(train, 10)
        lls = []

        def recorded(risk_sets, w, need_hessian):
            out = _risk_set_stats(risk_sets, w, need_hessian)
            lls.append(out[0] - 0.5 * w @ w)
            return out

        monkeypatch.setattr(netlsm.survival, "_risk_set_stats", recorded)
        model = cox_fit(x, train.time, train.event, 1.0, columns=columns)
        monkeypatch.undo()
        return model, lls

    def test_steps_within_the_ll_rounding_are_accepted(self, monkeypatch):
        # near its optimum, a step of pipeline seed 0's fit changes the ll
        # (about -6.6e3, an ulp of 9e-13) by less than its rounding; the
        # absolute 1e-12 test alone rejected and halved such steps: 19 calls
        model, lls = self.pipeline_fit(monkeypatch, 0)
        assert model.converged
        assert len(lls) <= 8

    def test_newton_report_counts_every_evaluation(self, monkeypatch):
        for seed in (0, 1):
            model, lls = self.pipeline_fit(monkeypatch, seed)
            report = model.newton
            # the start, then one evaluation per accepted step and one per halving
            assert len(lls) == 1 + report.steps + report.halvings and report.steps >= 1
            assert model.converged and 0.0 <= report.max_score <= 1e-8

    def test_an_unconverged_fit_reports_its_last_score(self, monkeypatch):
        monkeypatch.setattr(netlsm.survival, "_COX_MAX_ITER", 1)
        train, _, _ = simulate_transplants(SurvivalGenConfig(seed=2))
        x, columns = design_matrix(train, 10)
        model = cox_fit(x, train.time, train.event, 1.0, columns=columns)
        grad = _risk_set_stats(_risk_sets(x, train.time, train.event), model.coefficients,
                               need_hessian=False)[1]
        score = np.max(np.abs(grad - model.coefficients))
        assert not model.converged and model.newton.steps == 1
        assert model.newton.max_score == score > 1e-8
        assert str(model.newton) == (f"1 steps, {model.newton.halvings} halvings, "
                                     f"max |score| {score:.2g}")
        # the report is in neither the model's dict nor its ==
        assert replace(model, newton=None) == model
        assert set(model.to_dict()) == {"coefficients", "std_errors", "penalty", "column_names",
                                        "column_kinds", "converged"}

    def test_fit_without_a_rejected_step_keeps_its_bytes(self, monkeypatch):
        model, lls = self.pipeline_fit(monkeypatch, 1)
        # every evaluated point was accepted under the absolute test alone
        assert all(b >= a - 1e-12 for a, b in zip(lls, lls[1:]))
        # at 0 the rounding band accepts only steps whose ll does not fall,
        # which the absolute test accepts too: the rule before the band
        monkeypatch.setattr(netlsm.survival, "_COX_LL_ROUNDING", 0.0)
        before, _ = self.pipeline_fit(monkeypatch, 1)
        assert model.coefficients.tobytes() == before.coefficients.tobytes()
        assert model.std_errors.tobytes() == before.std_errors.tobytes()


def tied_design(seed):
    """A random design with one-hot blocks, tied times and censoring."""
    rng = substream(seed, "risk-set")
    n = int(rng.integers(2, 300))
    dense = rng.standard_normal((n, 3))
    onehot = np.eye(5)[rng.integers(0, 5, n)]
    x = np.concatenate([dense, onehot], axis=1)
    t = rng.integers(1, max(2, n // 4), n).astype(float)
    e = rng.random(n) < 0.6
    e[0] = True
    w = 0.5 * rng.standard_normal(x.shape[1])
    return x, t, e, w


def rel_err(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300)


class TestKernelReferences:
    @pytest.mark.parametrize("as_csr", [False, True])
    def test_risk_set_stats_match_dense_reference(self, as_csr):
        for seed in range(25):
            x, t, e, w = tied_design(seed)
            ll0, g0, h0 = risk_set_stats_reference(x, t, e, w, True)
            risk_sets = _risk_sets(sp.csr_matrix(x) if as_csr else x, t, e)
            ll, g, h = _risk_set_stats(risk_sets, w, True)
            assert abs(ll - ll0) <= 1e-12 * abs(ll0)
            assert rel_err(g, g0) <= 1e-12
            assert rel_err(h, h0) <= 1e-12
            assert _risk_set_stats(risk_sets, w, False)[2] is None

    @pytest.mark.parametrize("as_csr", [False, True])
    def test_reused_risk_sets_equal_fresh_ones(self, as_csr):
        # a fit builds its risk sets once and every Newton step reads them:
        # no step may write into them (the reverse cumulative sums are taken
        # in place), so each w gets the bits of a freshly built set
        for seed in range(25):
            x, t, e, _ = tied_design(seed)
            x = sp.csr_matrix(x) if as_csr else x
            reused = _risk_sets(x, t, e)
            rng = substream(seed, "risk-set-reuse")
            for _ in range(20):
                w = 0.5 * rng.standard_normal(x.shape[1])
                fresh = _risk_sets(x, t, e)
                for need_hessian in (False, True):
                    ll, g, h = _risk_set_stats(reused, w, need_hessian)
                    ll0, g0, h0 = _risk_set_stats(fresh, w, need_hessian)
                    assert np.float64(ll).tobytes() == np.float64(ll0).tobytes()
                    assert g.tobytes() == g0.tobytes()
                    if need_hessian:
                        assert h.tobytes() == h0.tobytes()
                    else:
                        assert h is None and h0 is None

    def test_cox_fit_matches_reference_kernel(self, monkeypatch):
        # the fit runs end to end on the dense reference: its risk sets are
        # the raw records, and every Newton step goes through the reference
        steps = []

        def dense_kernel(risk_sets, w, need_hessian):
            x, time, event = risk_sets
            steps.append(need_hessian)
            return risk_set_stats_reference(x.toarray(), time, event, w, need_hessian)

        for seed in range(6):
            train, _, _ = simulate_transplants(SurvivalGenConfig(seed=seed))
            x, cols = design_matrix(train, 10)
            sparse = cox_fit(x, train.time, train.event, 1.0, columns=cols)
            steps.clear()
            with monkeypatch.context() as m:
                m.setattr(netlsm.survival, "_risk_sets", lambda x, time, event: (x, time, event))
                m.setattr(netlsm.survival, "_risk_set_stats", dense_kernel)
                dense = cox_fit(x, train.time, train.event, 1.0, columns=cols)
            assert len(steps) >= 2 and all(steps)
            assert sparse.converged and dense.converged
            np.testing.assert_allclose(sparse.coefficients, dense.coefficients, rtol=0, atol=1e-10)

    def test_c_index_matches_pairwise_reference(self):
        for case in range(300):
            rng = substream(case, "cidx-ref")
            n = int(rng.integers(1, 601))
            if case % 2:
                risk = rng.integers(0, rng.integers(1, 40), n).astype(float)  # tied risks
            else:
                risk = rng.standard_normal(n)
            t = rng.integers(1, rng.integers(2, 80), n).astype(float)  # tie groups
            e = rng.random(n) < rng.random()
            try:
                expected = c_index_reference(risk, t, e)
            except ValueError as exc:
                assert "comparable" in str(exc)
                with pytest.raises(ValueError, match="comparable"):
                    c_index(risk, t, e)
                continue
            assert c_index(risk, t, e) == expected

    def test_c_index_nan_compares_false(self):
        rng = substream(0, "cidx-nan")
        risk = rng.standard_normal(50)
        t = rng.integers(1, 10, 50).astype(float)
        e = rng.random(50) < 0.5
        risk[[3, 17]] = np.nan
        t[[5, 9]] = np.nan
        e[[5, 17]] = True
        assert c_index(risk, t, e) == c_index_reference(risk, t, e)


def random_csr(rng, index_dtype, canonical=True):
    """A random SciPy CSR matrix with empty rows and stored zeros, its index
    arrays of ``index_dtype``; unless ``canonical``, each row's entries come
    in random order and some repeat a column."""
    n, p = int(rng.integers(1, 40)), int(rng.integers(1, 10))
    indices, counts = [], []
    for _ in range(n):
        cols = rng.choice(p, int(rng.integers(0, p + 1)) * (rng.random() > 0.2), replace=False)
        if canonical:
            cols.sort()
        else:
            cols = rng.permutation(np.concatenate([cols, rng.choice(p, int(rng.integers(0, 3)))]))
        indices.append(cols)
        counts.append(cols.size)
    indices = np.concatenate(indices)
    data = rng.standard_normal(indices.size) * (rng.random(indices.size) > 0.15)
    x = sp.csr_matrix((data, indices, np.concatenate([[0], np.cumsum(counts)])), shape=(n, p))
    # the constructor narrows indices that fit int32; the arrays may be set
    x.indices, x.indptr = x.indices.astype(index_dtype), x.indptr.astype(index_dtype)
    return x


def csr_cases():
    """``(name, SciPy CSR matrix)``: random ones of both index dtypes, canonical
    or not, and the 1x1 designs with a value and with a stored zero."""
    for index_dtype in (np.int32, np.int64):
        for canonical in (True, False):
            for seed in range(12):
                rng = substream(seed, "sparse-kernels", str(canonical))
                yield (f"{np.dtype(index_dtype).name}/{canonical}/s{seed}",
                       random_csr(rng, index_dtype, canonical))
        for value in (2.5, 0.0):
            one = sp.csr_matrix((np.array([value]), np.array([0]), np.array([0, 1])), shape=(1, 1))
            one.indices = one.indices.astype(index_dtype)
            one.indptr = one.indptr.astype(index_dtype)
            yield f"{np.dtype(index_dtype).name}/1x1/{value}", one


def same_csr(design, x):
    """Whether a :class:`Design` holds the shape and entries, in order, of a SciPy CSR matrix."""
    return (design.shape == x.shape and np.array_equal(design.data, x.data)
            and np.array_equal(design.indices, x.indices)
            and np.array_equal(design.indptr, x.indptr))


CSR_CASES = list(csr_cases())


class TestSparseKernels:
    """Each operation the design replaced gives the bits of the scipy.sparse
    expression it replaced: the same compiled kernels on the same entries."""

    @pytest.mark.parametrize("name, x", CSR_CASES, ids=[c[0] for c in CSR_CASES])
    def test_each_operation_equals_scipy_sparse(self, name, x):
        rng = substream(0, "sparse-kernel-args", name)
        n, p = x.shape
        design = _as_design(x)
        assert same_csr(design, x) and np.array_equal(design.toarray(), x.toarray())
        w = rng.standard_normal(p)
        assert np.array_equal(design @ w, x @ w)
        time, event = rng.exponential(1.0, n), rng.random(n) < 0.6
        risk_sets = _risk_sets(x, time, event)
        assert np.array_equal(risk_sets.xt_event, x.T @ event.astype(float))
        assert same_csr(_transpose(design), x.T.tocsr())
        assert same_csr(risk_sets.xt, x.T.tocsr())
        for rows in (rng.permutation(n)[: max(1, n // 2)], rng.integers(0, n, 2 * n)):
            assert same_csr(_take_rows(design, rows), x[rows])
        for mask in (rng.random(p) < 0.5, np.ones(p, bool), np.zeros(p, bool)):
            assert same_csr(_take_columns(design, mask), x[:, mask])
        weights = rng.standard_normal(x.data.size)
        vx = sp.csr_matrix((weights, x.indices, x.indptr), shape=x.shape)
        assert np.array_equal(_gram(risk_sets, weights), (x.T.tocsr() @ vx).toarray())

    def test_cox_fit_reads_dense_coo_and_csr_as_scipy_does(self):
        for seed in range(6):
            x, t, e, _ = tied_design(seed)
            x = x[:, x.any(axis=0)]  # a one-hot column no record holds
            rng = substream(seed, "sparse-inputs")
            rows, cols = x.nonzero()
            # COO with every entry split in two, and an int dense array
            coo = sp.coo_matrix((np.concatenate([x[rows, cols] / 2] * 2),
                                 (np.concatenate([rows] * 2), np.concatenate([cols] * 2))),
                                shape=x.shape)
            ints = rng.integers(-2, 3, x.shape)
            ints[:, ~ints.any(axis=0)] = 1
            for given in (x, ints, coo, coo.tocsc(), sp.csr_matrix(x)):
                reference = sp.csr_matrix(given, dtype=float)
                assert same_csr(_as_design(given), reference)
                fit = cox_fit(given, t, e, 1.0)
                expected = cox_fit(Design(reference.data, reference.indices, reference.indptr,
                                          reference.shape), t, e, 1.0)
                assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
                assert fit.std_errors.tobytes() == expected.std_errors.tobytes()

    def test_a_design_refuses_arrays_that_are_not_csr(self):
        good = Design([1.0, 2.0], [0, 1], [0, 1, 2], (2, 2))
        assert good.data.dtype == float and good.indices.dtype == good.indptr.dtype == np.intp
        for data, indices, indptr, shape in [
            ([1.0, 2.0], [0, 2], [0, 1, 2], (2, 2)),  # a column out of range
            ([1.0, 2.0], [0, -1], [0, 1, 2], (2, 2)),
            ([1.0, 2.0], [0, 1], [0, 2], (2, 2)),  # an indptr entry short
            ([1.0, 2.0], [0, 1], [1, 1, 2], (2, 2)),
            ([1.0, 2.0], [0, 1], [0, 2, 1], (2, 2)),  # decreasing
            ([1.0, 2.0], [0, 1], [0, 1, 1], (2, 2)),  # more entries than indptr counts
            ([1.0], [0, 1], [0, 1, 2], (2, 2)),
        ]:
            with pytest.raises(ValueError, match=r"not a CSR matrix of shape \(2, 2\)"):
                Design(data, indices, indptr, shape)
        with pytest.raises(ValueError,
                           match=r"design of shape \(2, 2\) times a vector of shape \(3,\)"):
            good @ np.ones(3)


class TestTuneLambda:
    def test_column_absent_from_a_fold(self):
        rng = substream(7, "tune")
        n = 40
        x = np.concatenate([rng.standard_normal((n, 2)), np.zeros((n, 1))], axis=1)
        x[0, 2] = 1.0  # only one fold holds this indicator
        t = rng.exponential(1.0, n)
        e = np.ones(n, dtype=bool)
        assert tune_lambda(x, t, e, [0.1, 10.0], seed=3) in (0.1, 10.0)
        assert tune_lambda(sp.csr_matrix(x), t, e, [0.1, 10.0], seed=3) == \
            tune_lambda(x, t, e, [0.1, 10.0], seed=3)

    @pytest.mark.parametrize("grid, message", [
        ([1.0, 2.0, math.inf], "finite, got inf"),
        ([1.0, -5.0], "non-negative, got -5.0"),
        ([math.nan, 1.0], "non-negative, got nan"),
    ])
    def test_bad_grid_entry_raises_before_any_fit(self, monkeypatch, grid, message):
        # a bad entry late in the grid was refused only after the fold fits of
        # every entry before it
        calls = []
        real = netlsm.survival._newton_fit
        monkeypatch.setattr(netlsm.survival, "_newton_fit",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        rng = substream(4, "tune")
        x, t, e = rng.standard_normal((30, 2)), rng.exponential(1.0, 30), np.ones(30, bool)
        with pytest.raises(ValueError, match=f"penalty must be {message}$"):
            tune_lambda(x, t, e, grid)
        assert calls == []
        tune_lambda(x, t, e, [1.0])
        assert len(calls) == 2  # the counter sees the fold fits

    def test_fold_fits_build_no_model(self, monkeypatch):
        # a fold fit keeps only its coefficients: the standard errors and the
        # model are built once, by cox_fit, not in each of the 2 * |grid| fold fits
        models, inverses = [], []
        real_model, real_inv = netlsm.survival.CoxModel, np.linalg.inv
        monkeypatch.setattr(netlsm.survival, "CoxModel",
                            lambda **k: models.append(k) or real_model(**k))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a) or real_inv(a))
        rng = substream(4, "tune")
        x, t, e = rng.standard_normal((30, 2)), rng.exponential(1.0, 30), np.ones(30, bool)
        lam = tune_lambda(x, t, e, [0.1, 1.0, 10.0])
        assert (len(models), len(inverses)) == (0, 0)
        model = cox_fit(x, t, e, lam)
        assert (len(models), len(inverses)) == (1, 1)
        assert model.std_errors.shape == (2,) and model.columns[1] == Column("basic", "x2")

    def test_scoring_risk_sets_are_built_once_per_fold(self, monkeypatch):
        # each fold's risk sets, for scoring and for fitting, serve the whole
        # grid; the pick equals that of a fresh cox_fit and breslow_loglik per lambda
        rng = substream(5, "tune")
        n = 60
        x, t = rng.standard_normal((n, 3)), rng.exponential(1.0, n)
        e = rng.random(n) < 0.7
        grid = [0.01, 0.3, 10.0]
        built = []
        real = netlsm.survival._risk_sets
        monkeypatch.setattr(netlsm.survival, "_risk_sets",
                            lambda *a: built.append(a) or real(*a))
        picked = tune_lambda(x, t, e, grid, seed=2)
        assert len(built) == 4  # per fold: its fitting and its scoring risk sets
        perm = substream(2, "cv-folds").permutation(n)
        folds = (perm[: n // 2], perm[n // 2 :])
        scores = [sum(breslow_loglik(x[va], t[va], e[va],
                                     cox_fit(x[tr], t[tr], e[tr], lam).coefficients)
                      for tr, va in (folds, folds[::-1])) for lam in grid]
        assert picked == grid[int(np.argmax(scores))]

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
            eta=np.zeros((1, 2)),
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

    @pytest.mark.parametrize("cfg", [
        *(SurvivalGenConfig(seed=seed) for seed in range(10)),
        SurvivalGenConfig(n_per_split=16000, n_donor_types=30, n_recipient_types=30, seed=0),
    ], ids=[*(f"seed{seed}" for seed in range(10)), "16000-30x30"])
    def test_censoring_root_is_brentq_s(self, cfg, monkeypatch):
        # the C core, called directly, against scipy.optimize.brentq at its
        # defaults, the public call it stands for
        from scipy.optimize import brentq

        def arrays(result):
            train, test, truth = result
            return [a.tobytes() for split in (train, test) for a in
                    (split.covariates, split.donor_type, split.recipient_type, split.time,
                     split.event)] + [truth.eta.tobytes(), truth.basic_coef.tobytes()]

        ours = arrays(simulate_transplants(cfg))
        brackets = []

        def public(f, a, b, *tolerances):
            brackets.append((a, b))
            return brentq(f, a, b)

        monkeypatch.setattr(netlsm.survival, "_zeros", SimpleNamespace(_brentq=public))
        assert arrays(simulate_transplants(cfg)) == ours
        assert brackets == [(-40.0, 40.0)] * 2

    def test_a_censoring_bracket_without_a_sign_change_raises_brentq_s_error(self,
                                                                            monkeypatch):
        # no censoring rate reaches a censored fraction above 1
        from scipy.optimize import brentq

        monkeypatch.setattr(netlsm.survival, "CENSORING_TARGET", 1.5)
        with pytest.raises(ValueError) as expected:
            brentq(lambda x: -0.5, -40.0, 40.0)
        with pytest.raises(ValueError) as raised:
            simulate_transplants(SurvivalGenConfig(n_per_split=50, seed=0))
        assert str(raised.value) == str(expected.value) == (
            "f(a) and f(b) must have different signs")

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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.lists(LABELS, min_size=1, max_size=4, unique=True))
    def test_csv_round_trip_quoted_labels(self, tmp_path_factory, seed, labels):
        rng = np.random.default_rng(seed)
        n = 10
        data = TransplantDataset(
            covariates=rng.standard_normal((n, 2)),
            donor_type=np.array(labels)[rng.integers(0, len(labels), n)],
            recipient_type=np.array(labels)[rng.integers(0, len(labels), n)],
            time=rng.uniform(0.1, 5.0, n),
            event=np.arange(n) % 2 == 0,
        )
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        data.to_csv(path)
        back = TransplantDataset.from_csv(path)
        for field in ("covariates", "donor_type", "recipient_type", "time", "event"):
            assert np.array_equal(getattr(data, field), getattr(back, field))


def test_to_csv_refuses_a_padded_type_label(tmp_path):
    # read_csv strips every cell, so " D1" would read back as "D1"
    data = TransplantDataset(covariates=np.zeros((2, 1)), donor_type=[" D1", "D2"],
                             recipient_type=["R1", "R1"], time=[1.0, 2.0], event=[True, False])
    with pytest.raises(ValueError) as exc:
        data.to_csv(tmp_path / "t.csv")
    assert "t.csv" in str(exc.value) and repr(" D1") in str(exc.value)
    assert list(tmp_path.iterdir()) == []


def test_to_csv_refuses_a_nul_in_a_type_label(tmp_path):
    # Python 3.10's csv reader refuses a line holding a NUL
    data = TransplantDataset(covariates=np.zeros((2, 1)), donor_type=["D1", "D2"],
                             recipient_type=["R1", "R\x001"], time=[1.0, 2.0],
                             event=[True, False])
    with pytest.raises(ValueError) as exc:
        data.to_csv(tmp_path / "t.csv")
    assert "t.csv" in str(exc.value) and repr("R\x001") in str(exc.value)
    assert list(tmp_path.iterdir()) == []


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
    # every row's field count is checked before any value
    (GOOD_CSV.replace("2.0", "soon") + "2,3.0,1,A\n", r"t\.csv:4: expected 6 fields, got 4"),
    ("id,time,event,donor_type,recipient_type,time\n0,1.5,1,A,x,9\n1,2.0,0,B,y,8\n",
     r"t\.csv: repeated column\(s\) time$"),
    (GOOD_CSV.replace("2.0", "0"), r"t\.csv:3: non-positive time$"),
    (GOOD_CSV.replace("1.5,1", "1.5,0"), r"t\.csv: no row has event 1$"),
    (GOOD_CSV.replace(",x1\n", ",x2\n"), r"t\.csv: covariate columns must be x1, got x2$"),
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


@pytest.mark.parametrize("first", ["id", "time"])
def test_from_csv_drops_a_byte_order_mark(tmp_path, first):
    # spreadsheet exports start a UTF-8 file with U+FEFF; with "time" first the
    # mark would otherwise hide a required column
    train, _, _ = simulate_transplants(SurvivalGenConfig(n_per_split=50, seed=1))
    train.to_csv(tmp_path / "plain.csv")
    lines = (tmp_path / "plain.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    if first == "time":  # swap the id and time columns
        lines = [",".join([c[1], c[0], *c[2:]]) for c in (line.split(",") for line in lines)]
    (tmp_path / "plain.csv").write_text("".join(lines), encoding="utf-8")
    (tmp_path / "bom.csv").write_text("\ufeff" + "".join(lines), encoding="utf-8")
    plain = TransplantDataset.from_csv(tmp_path / "plain.csv")
    bom = TransplantDataset.from_csv(tmp_path / "bom.csv")
    for field in ("covariates", "donor_type", "recipient_type", "time", "event"):
        assert np.array_equal(getattr(plain, field), getattr(bom, field))
    assert np.array_equal(plain.time, train.time)


class TestPipeline:
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

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forked_and_inline_runs_are_equal(self, monkeypatch, seed):
        # the forked side may run while unpinned BLAS threads exist, which
        # map_units itself never forks under
        cfg = SurvivalGenConfig(n_per_split=1200, seed=seed)
        monkeypatch.setattr(netlsm._util, "_workers", lambda: 1)
        inline = pipeline_end_to_end(cfg, min_count=5)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(netlsm._util, "_workers", lambda: 2)
        assert pipeline_end_to_end(cfg, min_count=5) == inline
        assert forks == [1]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_an_unconverged_lsm_fit_says_how_it_ended_from_either_process(self, monkeypatch):
        # lsm is item 1 here, so the forked child runs it and sends its stop back
        cfg = SurvivalGenConfig(n_per_split=1000, seed=0)
        fit_config = FitConfig(dim=2, restarts=0, seed=0, max_iter=3)
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(netlsm._util, "_workers", lambda: workers)
            runs[workers] = pipeline_end_to_end(cfg, fit_config, min_count=5,
                                                methods=("nmtf", "lsm"))
        assert runs[1] == runs[2] and not runs[1].lsm_converged
        assert runs[1].lsm_stop == ("winning start 0 (mds) stopped after 3 L-BFGS-B "
                                    "iteration(s): STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
        assert runs[1].cox_converged and runs[1].cox_newton.max_score <= 1e-8
        assert pipeline_end_to_end(cfg, min_count=5, methods=("raw",)).lsm_stop is None

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_four_workers_fork_once(self, monkeypatch):
        # lsm runs here, and nmtf, pca and the raw C-index in one child
        cfg = SurvivalGenConfig(n_per_split=1200, seed=5)
        monkeypatch.setattr(netlsm._util, "_workers", lambda: 1)
        inline = pipeline_end_to_end(cfg, min_count=5)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(netlsm._util, "_workers", lambda: 4)
        assert pipeline_end_to_end(cfg, min_count=5) == inline
        assert forks == [1]

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_error_is_the_first_method_s(self, monkeypatch):
        # nmtf and pca run in the worker; both refuse dim 20 on a 12x12
        # network, and nmtf comes first in methods
        monkeypatch.setattr(netlsm._util, "_workers", lambda: 2)
        cfg = SurvivalGenConfig(n_per_split=600, seed=4)
        with pytest.raises(ValueError, match="rank must not exceed"):
            pipeline_end_to_end(cfg, FitConfig(dim=20), min_count=5, methods=("raw", "nmtf", "pca"))
