import json

import numpy as np
import pytest

import netlsm.metrics
from netlsm._util import dump_json
from netlsm.cli import main
from netlsm.model import FitConfig, fit
from netlsm.network import load_network_dir


def read(path):
    return path.read_bytes()


def run(argv):
    return main([str(a) for a in argv])


class TestSimulateNetwork:
    def test_deterministic_and_default_size(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate-network", "--seed", 7, "--out", a]) == 0
        assert run(["simulate-network", "--seed", 7, "--out", b]) == 0
        for f in ("edges.csv", "donor_nodes.csv", "recipient_nodes.csv", "truth.json"):
            assert read(a / f) == read(b / f)
        # default 20x20: 400 edge rows + header
        assert len((a / "edges.csv").read_text().strip().splitlines()) == 401

    def test_invalid_sigma_exits_2(self, tmp_path):
        assert run(["simulate-network", "--sigma-w", 0, "--out", tmp_path / "x"]) == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "m"
        run(["simulate-network", "--out", out])
        m = json.loads((out / "manifest.json").read_text())
        assert m["command"] == "simulate-network"
        assert m["seed"] == 0
        assert "edges.csv" in m["artifacts"]


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("net")
    run(["simulate-network", "--seed", 3, "--n-d", 10, "--n-r", 10, "--out", d])
    return d


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tx")
    run(["simulate-transplants", "--n", 1200, "--seed", 1, "--out", d])
    return d


class TestFit:
    def test_lsm_converges(self, net_dir, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--net", net_dir, "--method", "lsm", "--dim", 2,
                    "--restarts", 1, "--out", out]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["converged"] is True
        assert model["dim"] == 2

    def test_raw_identity_metrics(self, net_dir, tmp_path):
        out = tmp_path / "raw"
        assert run(["fit", "--net", net_dir, "--method", "raw", "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        rep = metrics["reports"]["None"]
        assert rep["rmse"] == 0.0 and rep["sign_accuracy"] == 1.0

    def test_dim_grid_selection(self, net_dir, tmp_path):
        out = tmp_path / "grid"
        assert run(["fit", "--net", net_dir, "--method", "pca",
                    "--dim-grid", "1,2,3", "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        reports = metrics["reports"]
        sel = str(metrics["selected_dim"])
        assert sel in reports
        best = max(reports.values(), key=lambda r: r["mean_log_prob"])
        assert reports[sel]["mean_log_prob"] == best["mean_log_prob"]

    def test_one_fit_per_dimension(self, net_dir, tmp_path, monkeypatch):
        dims = []

        def counting_fit(net, config, init=None):
            dims.append(config.dim)
            return fit(net, config, init)

        monkeypatch.setattr(netlsm.metrics, "fit", counting_fit)
        out = tmp_path / "grid"
        assert run(["fit", "--net", net_dir, "--method", "lsm", "--dim-grid", "1,2",
                    "--restarts", 1, "--seed", 4, "--out", out]) == 0
        assert dims == [1, 2]
        selected = json.loads((out / "metrics.json").read_text())["selected_dim"]
        train = load_network_dir(str(net_dir))
        expected = fit(train, FitConfig(dim=selected, max_iter=500, grad_tol=1e-6,
                                        restarts=1, seed=4))
        assert (out / "model.json").read_text() == dump_json(expected.to_dict())

    def test_dim_exceeds_nodes_exits_2(self, net_dir, tmp_path):
        assert run(["fit", "--net", net_dir, "--method", "pca", "--dim", 99,
                    "--out", tmp_path / "x"]) == 2

    def test_missing_dir_exits_2(self, tmp_path):
        assert run(["fit", "--net", tmp_path / "nope", "--out", tmp_path / "x"]) == 2


class TestTransplantsAndCox:
    def test_artifacts(self, data_dir):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "test.csv").exists()
        assert (data_dir / "truth.json").exists()

    def test_coxph(self, data_dir, tmp_path):
        out = tmp_path / "cox"
        assert run(["coxph", "--data", data_dir / "train.csv", "--min-count", 5,
                    "--lam", 1.0, "--out", out]) == 0
        model = json.loads((out / "coxph.json").read_text())
        assert model["converged"] is True
        assert model["penalty"] == 1.0
        assert (out / "network" / "edges.csv").exists()


    def test_coxph_missing_column_exits_2(self, data_dir, tmp_path, capsys):
        lines = (data_dir / "train.csv").read_text().splitlines()
        header = lines[0].split(",")
        k = header.index("event")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != k)
                                 for line in lines) + "\n")
        assert run(["coxph", "--data", bad, "--out", tmp_path / "cox"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "event" in err and "Traceback" not in err


class TestEval:
    def test_eval_table(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate-network", "--seed", 5, "--n-d", 8, "--n-r", 8, "--out", a])
        run(["simulate-network", "--seed", 6, "--n-d", 8, "--n-r", 8, "--out", b])
        out = tmp_path / "ev"
        assert run(["eval", "--train-net", a, "--test-net", b,
                    "--methods", "raw,pca,nmtf", "--dim-grid", "1,2",
                    "--out", out]) == 0
        payload = json.loads((out / "eval.json").read_text())
        assert set(payload) == {"raw", "pca", "nmtf"}
        assert "rmse" in (out / "eval_table.txt").read_text()


class TestPipelineCommand:
    def test_identity_refinement_zero_delta(self, tmp_path):
        out = tmp_path / "pipe"
        assert run(["pipeline", "--seeds", 1, "--n", 1000, "--min-count", 5,
                    "--identity-refinement", "--restarts", 0, "--out", out]) == 0
        payload = json.loads((out / "pipeline.json").read_text())
        for row in payload["per_seed"]:
            for v in row["deltas"].values():
                assert v == 0.0
        assert set(payload["aggregate"]) == {"lsm", "nmtf", "pca"}


class TestTable1:
    def test_single_rep(self, tmp_path):
        out = tmp_path / "t1"
        rc = run(["table1", "--reps", 1, "--restarts", 0, "--out", out,
                  "--allow-nonconverged"])
        assert rc == 0
        payload = json.loads((out / "table1.json").read_text())
        assert set(payload) == {
            "low_noise/pair_term_only", "low_noise/full_compatibility",
            "high_noise/pair_term_only", "high_noise/full_compatibility",
        }
        for report in payload.values():
            assert all(v == 0.0 for v in report["rmse_se"].values())
        text = (out / "table1.txt").read_text()
        assert "RMSE" in text and "R^2" in text


class TestManifestRerun:
    def test_rerun_reproduces_outputs(self, tmp_path):
        first = tmp_path / "one"
        run(["simulate-network", "--seed", 11, "--n-d", 6, "--n-r", 6, "--out", first])
        second = tmp_path / "two"
        assert run(["simulate-network", "--config", first / "manifest.json",
                    "--out", second]) == 0
        for f in ("edges.csv", "donor_nodes.csv", "recipient_nodes.csv", "truth.json"):
            assert read(first / f) == read(second / f)
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        assert m1["config"] == m2["config"]

    def test_wrong_command_rejected(self, tmp_path):
        first = tmp_path / "one"
        run(["simulate-network", "--out", first])
        with pytest.raises(SystemExit):
            main(["table1", "--config", str(first / "manifest.json"),
                  "--out", str(tmp_path / "x")])

    def _rerun_exits_2(self, tmp_path, capsys, manifest_path, message):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--config", str(manifest_path), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        self._rerun_exits_2(tmp_path, capsys, tmp_path / "absent.json", "cannot read manifest")

    def test_non_json_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("not json\n")
        self._rerun_exits_2(tmp_path, capsys, path, "cannot read manifest")

    def test_manifest_without_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "fit"}))
        self._rerun_exits_2(tmp_path, capsys, path, "manifest has no config")

    def test_config_missing_a_key_exits_2(self, tmp_path, capsys):
        first = tmp_path / "one"
        run(["simulate-network", "--n-d", 5, "--n-r", 5, "--out", first / "net"])
        assert run(["fit", "--net", first / "net", "--method", "raw", "--out", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        del manifest["config"]["net"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        self._rerun_exits_2(tmp_path, capsys, path, "manifest config lacks net")
