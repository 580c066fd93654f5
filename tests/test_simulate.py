import numpy as np
import pytest

from netlsm import FitConfig, SimConfig, simulate
from netlsm.simulate import (
    FULL_COMPATIBILITY,
    format_report_table,
    run_blocks,
    run_replicates,
    simulate_train_test,
)
from netlsm.model import _sqdist, pack_params

from helpers import networks_equal


class TestSimulate:
    def test_deterministic(self):
        a = simulate(SimConfig(seed=5))
        b = simulate(SimConfig(seed=5))
        assert np.array_equal(pack_params(a.truth), pack_params(b.truth))
        assert networks_equal(a.observed, b.observed)

    def test_different_seeds_differ(self):
        a = simulate(SimConfig(seed=5))
        b = simulate(SimConfig(seed=6))
        assert not np.array_equal(a.observed.edge_weight, b.observed.edge_weight)

    def test_noise_level(self):
        cfg = SimConfig(seed=1)
        sim = simulate(cfg)
        eta = cfg.alpha - cfg.beta * _sqdist(sim.truth.z_d, sim.truth.z_r)
        resid = sim.observed.edge_weight - eta
        sd = resid.std(ddof=1)
        assert abs(sd - 0.15) <= 0.2 * 0.15

    def test_noiseless_limit(self):
        cfg = SimConfig(seed=2, sigma_w=1e-12, sigma_node=1e-12)
        sim = simulate(cfg)
        eta = cfg.alpha - cfg.beta * _sqdist(sim.truth.z_d, sim.truth.z_r)
        assert np.max(np.abs(sim.observed.edge_weight - eta)) <= 1e-9
        assert np.max(np.abs(sim.observed.donor_weight - sim.truth.delta)) <= 1e-9

    def test_full_compatibility_convention(self):
        cfg = SimConfig(seed=3, sigma_w=1e-12, sigma_node=1e-12,
                        edge_mean_convention=FULL_COMPATIBILITY)
        sim = simulate(cfg)
        mu = (cfg.alpha - cfg.beta * _sqdist(sim.truth.z_d, sim.truth.z_r)
              + sim.truth.delta[:, None] + sim.truth.gamma[None, :])
        assert np.max(np.abs(sim.observed.edge_weight - mu)) <= 1e-9

    def test_se_fields_are_plugins(self):
        sim = simulate(SimConfig(seed=4, sigma_w=0.3, sigma_node=0.2))
        assert np.all(sim.observed.edge_se == 0.3)
        assert np.all(sim.observed.donor_se == 0.2)
        assert sim.observed.edge_mask.all()

    def test_train_test_shares_truth(self):
        truth, train, test = simulate_train_test(SimConfig(seed=7))
        assert train.donor_labels == test.donor_labels
        assert not np.array_equal(train.edge_weight, test.edge_weight)
        # train noise is independent of the plain simulate() draw's noise
        assert not np.array_equal(train.edge_weight,
                                  simulate(SimConfig(seed=7)).observed.edge_weight)


@pytest.fixture(scope="module")
def single_rep():
    cfg = SimConfig(n_d=8, n_r=8, seed=0)
    return run_replicates(cfg, FitConfig(dim=2, restarts=0, seed=0), 1)


class TestReplicates:

    def test_single_rep_zero_se(self, single_rep):
        assert all(v == 0.0 for v in single_rep.rmse_se.values())
        assert all(v == 0.0 for v in single_rep.r2_se.values())

    def test_r2_bounded(self, single_rep):
        assert all(v <= 1.0 + 1e-12 for v in single_rep.r2_mean.values())

    def test_report_shape(self, single_rep):
        quantities = ["w", "z_d", "z_r", "delta", "gamma", "alpha"]
        assert list(single_rep.rmse_mean) == list(single_rep.rmse_se) == quantities
        assert list(single_rep.r2_mean) == list(single_rep.r2_se) == quantities[:-1]
        text = format_report_table(single_rep, title="t")
        rows = text.splitlines()[2:]  # below the title and the header
        assert [row[:6].rstrip() for row in rows] == ["RMSE"] + [""] * 5 + ["R^2"] + [""] * 4
        assert [row[7:16].rstrip() for row in rows] == quantities + quantities[:-1]
        d = single_rep.to_dict()
        assert d["n_reps"] == 1 and len(d["per_replicate"]) == 1

    def test_deterministic(self, single_rep):
        again = run_replicates(SimConfig(n_d=8, n_r=8, seed=0),
                               FitConfig(dim=2, restarts=0, seed=0), 1)
        assert again.rmse_mean == single_rep.rmse_mean
        assert again.r2_mean == single_rep.r2_mean

    def test_invalid_reps(self):
        with pytest.raises(ValueError):
            run_replicates(SimConfig(), FitConfig(), 0)

    def test_blocks_report_as_their_own_runs(self):
        # each replicate seed fits every block's network in one lockstep, and
        # each block's report is the one its own run gives
        blocks = [SimConfig(n_d=8, n_r=8, sigma_w=sigma_w, edge_mean_convention=convention,
                            seed=3)
                  for sigma_w in (0.15, 1.5) for convention in ("pair_term_only",
                                                                FULL_COMPATIBILITY)]
        fit_config = FitConfig(restarts=1)
        reports = run_blocks(blocks, fit_config, 2)
        assert len(reports) == len(blocks)
        for block, report in zip(blocks, reports):
            assert report.to_dict() == run_replicates(block, fit_config, 2).to_dict()

    @pytest.mark.parametrize("other", [SimConfig(seed=1), SimConfig(n_r=19)],
                             ids=["seed", "shape"])
    def test_blocks_must_share_their_seed_and_shape(self, other):
        with pytest.raises(ValueError, match="share their seed and network shape"):
            run_blocks([SimConfig(), other], FitConfig(), 1)

    def test_no_blocks_are_refused(self):
        # unchecked, the shared-seed check misreported the empty list
        with pytest.raises(ValueError, match="at least one block"):
            run_blocks([], FitConfig(), 1)


class TestConfigValidation:
    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            SimConfig(sigma_w=0.0)

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            SimConfig(edge_mean_convention="bogus")
