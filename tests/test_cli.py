import importlib
import json
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

import netlsm.cli
import netlsm.metrics
import netlsm.model
import netlsm.survival
from netlsm._util import dump_json
from netlsm.cli import _config_from_args, _matches, _read_manifest, build_parser, main
from netlsm.metrics import EvalReport
from netlsm.model import FitConfig, FitError, fit
from netlsm.network import load_network_dir
from netlsm.simulate import ReplicateReport
from netlsm.survival import ConvergenceError, PipelineResult, TransplantDataset


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

        def counting_fit(net, config):
            dims.append(config.dim)
            return fit(net, config)

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

    @pytest.mark.parametrize("allow", [False, True])
    def test_an_unselected_dimension_that_stops_short_exits_1(
        self, net_dir, tmp_path, monkeypatch, allow
    ):
        # unchecked, fit judged only the selected dimension's fit
        argv = ["fit", "--net", net_dir, "--method", "lsm", "--dim-grid", "1,2",
                "--restarts", 1, "--seed", 4]
        assert run(argv + ["--out", tmp_path / "all"]) == 0
        selected = json.loads((tmp_path / "all" / "metrics.json").read_text())["selected_dim"]
        other = 3 - selected

        def short_fit(net, config):
            result = fit(net, config)
            return replace(result, converged=False) if config.dim == other else result

        monkeypatch.setattr(netlsm.metrics, "fit", short_fit)
        out = tmp_path / "short"
        flag = ["--allow-nonconverged"] if allow else []
        assert run(argv + ["--out", out] + flag) == (0 if allow else 1)
        assert read(out / "metrics.json") == read(tmp_path / "all" / "metrics.json")
        assert json.loads((out / "model.json").read_text())["converged"] is True

    def test_nmtf_follows_seed(self, net_dir, tmp_path):
        # unchecked, NMTF started from seed 0 whatever --seed said
        for seed in (0, 3):
            assert run(["fit", "--net", net_dir, "--method", "nmtf", "--seed", seed,
                        "--out", tmp_path / str(seed)]) == 0
        assert read(tmp_path / "0" / "metrics.json") != read(tmp_path / "3" / "metrics.json")

    def test_dim_exceeds_nodes_exits_2(self, net_dir, tmp_path):
        assert run(["fit", "--net", net_dir, "--method", "pca", "--dim", 99,
                    "--out", tmp_path / "x"]) == 2

    def test_repeated_dimension_exits_2(self, net_dir, tmp_path, capsys):
        # unchecked, it fitted dimension 2 twice and reported it once
        out = tmp_path / "x"
        assert run(["fit", "--net", net_dir, "--dim-grid", "2,2", "--out", out]) == 2
        assert capsys.readouterr().err == "error: dimensions must be distinct, got [2, 2]\n"
        assert not out.exists()

    def test_missing_dir_exits_2(self, tmp_path):
        assert run(["fit", "--net", tmp_path / "nope", "--out", tmp_path / "x"]) == 2

    def test_malformed_dim_grid_exits_2(self, net_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--net", net_dir, "--dim-grid", "1,x", "--out", tmp_path / "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --dim-grid" in err and "'1,x'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", ["", ","])
    def test_empty_dim_grid_exits_2(self, net_dir, tmp_path, capsys, grid):
        # only an absent --dim-grid falls back to --dim
        out = tmp_path / "x"
        assert run(["fit", "--net", net_dir, "--dim-grid", grid, "--out", out]) == 2
        assert capsys.readouterr().err == "error: dim_grid must be non-empty\n"
        assert not (out / "manifest.json").exists()
        # raw fits no dimension, as in eval
        assert run(["fit", "--net", net_dir, "--method", "raw", "--dim-grid", grid,
                    "--out", out]) == 0


@pytest.fixture(scope="module")
def diverging_net(tmp_path_factory):
    """A 4x4 network with one edge weight of 1e200: its squared ratio to its stderr overflows."""
    d = tmp_path_factory.mktemp("diverging")
    run(["simulate-network", "--n-d", 4, "--n-r", 4, "--out", d])
    header, first, *rest = (d / "edges.csv").read_text().splitlines()
    donor, recipient, _, se = first.split(",")
    assert (donor, recipient) == ("D00", "R00")
    (d / "edges.csv").write_text("\n".join([header, f"D00,R00,1e200,{se}", *rest]) + "\n")
    return d


@pytest.mark.parametrize("argv", [["fit", "--net", "NET"],
                                  ["eval", "--train-net", "NET", "--test-net", "NET"]])
def test_a_fit_that_diverges_exits_1(diverging_net, tmp_path, capsys, monkeypatch, argv):
    # unchecked, FitError ended both commands in a traceback; the edge is
    # named, and rejected before any optimizer start runs
    def no_start(*args, **kwargs):
        raise AssertionError("an optimizer start ran")

    monkeypatch.setattr(netlsm.model, "minimize", no_start)
    capsys.readouterr()
    out = tmp_path / "x"
    assert run([diverging_net if a == "NET" else a for a in argv] + ["--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: edge D00,R00 has weight 1e+200 and stderr 0.15: the sum of squared "
        "weight/stderr ratios overflows, so no fit can start\n"
    )
    assert not (out / "manifest.json").exists()


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

    def test_a_cox_fit_that_fails_exits_1(self, data_dir, tmp_path, monkeypatch, capsys):
        # unchecked, ConvergenceError ended coxph in a traceback
        def raises(*args, **kwargs):
            raise ConvergenceError("singular information matrix at optimum")

        monkeypatch.setattr(netlsm.cli, "cox_fit", raises)
        out = tmp_path / "cox"
        assert run(["coxph", "--data", data_dir / "train.csv", "--out", out]) == 1
        assert capsys.readouterr().err == "error: singular information matrix at optimum\n"
        assert not (out / "manifest.json").exists()

    def test_an_unconverged_cox_fit_is_named_with_its_penalty(self, data_dir, tmp_path,
                                                             monkeypatch, capsys):
        # one Newton step leaves the fit short of its tolerance
        monkeypatch.setattr(netlsm.survival, "_COX_MAX_ITER", 1)
        out = tmp_path / "cox"
        assert run(["coxph", "--data", data_dir / "train.csv", "--lam", 0.5,
                    "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: not all fits converged (use --allow-nonconverged to tolerate)",
            "  Cox fit at penalty 0.5",
        ]
        assert json.loads((out / "coxph.json").read_text())["converged"] is False

    def test_coxph_tune_with_columns_absent_from_a_fold(self, tmp_path):
        # 400 records over 12x12 types at --min-count 3: some type or pair
        # column has all of its records in one cross-validation half
        data = tmp_path / "small"
        assert run(["simulate-transplants", "--n", 400, "--seed", 0, "--out", data]) == 0
        out = tmp_path / "cox"
        assert run(["coxph", "--data", data / "train.csv", "--min-count", 3, "--tune",
                    "--out", out]) == 0
        model = json.loads((out / "coxph.json").read_text())
        assert model["penalty"] in netlsm.cli.DEFAULT_LAMBDA_GRID

    def test_malformed_lambda_grid_exits_2(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["coxph", "--data", data_dir / "train.csv", "--tune",
                 "--lambda-grid", "0.1,abc", "--out", tmp_path / "cox"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --lambda-grid" in err and "'0.1,abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [["--lam", "nan"], ["--tune", "--lambda-grid", "nan"]])
    def test_nan_penalty_exits_2(self, data_dir, tmp_path, capsys, args):
        # unchecked, coxph.json held "penalty": NaN, which is not JSON, and the run exited 1
        out = tmp_path / "cox"
        assert run(["coxph", "--data", data_dir / "train.csv", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: penalty must be non-negative") and "Traceback" not in err
        assert not (out / "coxph.json").exists()

    def test_quoted_type_label_reaches_fit(self, data_dir, tmp_path):
        # a type label holding a comma is quoted in the transplant CSV, and
        # must be quoted again in the network files coxph writes
        text = (data_dir / "train.csv").read_text()
        assert ",D00," in text
        data = tmp_path / "quoted.csv"
        data.write_text(text.replace(",D00,", ',"D,0",'))
        cox = tmp_path / "cox"
        assert run(["coxph", "--data", data, "--min-count", 5, "--out", cox]) == 0
        assert '"D,0"' in (cox / "network" / "donor_nodes.csv").read_text()
        assert run(["fit", "--net", cox / "network", "--method", "raw",
                    "--out", tmp_path / "fit"]) == 0
        assert "D,0" in load_network_dir(cox / "network").donor_labels

    def test_padded_type_label_reaches_fit(self, data_dir, tmp_path):
        # type labels are stripped as network cells are, so " D00" and "D00"
        # are one donor type, not two nodes that read back as duplicates
        text = (data_dir / "train.csv").read_text()
        assert ",D01," in text
        data = tmp_path / "padded.csv"
        data.write_text(text.replace(",D01,", ", D00,"))
        cox = tmp_path / "cox"
        assert run(["coxph", "--data", data, "--min-count", 5, "--out", cox]) == 0
        assert run(["fit", "--net", cox / "network", "--method", "raw",
                    "--out", tmp_path / "fit"]) == 0
        labels = load_network_dir(cox / "network").donor_labels
        assert "D00" in labels and "D01" not in labels

    def test_padded_names_and_cells_read_as_the_plain_file(self, data_dir, tmp_path):
        # column names and the event cell are stripped, as network cells are:
        # unstripped, ", " separators left every required column missing and
        # an event " 1" was refused
        plain, padded = data_dir / "train.csv", tmp_path / "padded.csv"
        padded.write_text(plain.read_text().replace(",", " , "))
        a, b = TransplantDataset.from_csv(plain), TransplantDataset.from_csv(padded)
        for f in fields(TransplantDataset):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for name, data in (("plain", plain), ("padded", padded)):
            assert run(["coxph", "--data", data, "--min-count", 5,
                        "--out", tmp_path / name]) == 0
        assert read(tmp_path / "plain" / "coxph.json") == read(tmp_path / "padded" / "coxph.json")

    @pytest.mark.parametrize("cell, label", [(",D00,", "D\r0"), (",R00,", "R\r0")])
    def test_carriage_return_type_label_exits_2(self, data_dir, tmp_path, capsys, cell, label):
        # a quoted carriage return reads back as part of the label, but the
        # network writer cannot quote it, so coxph stops before writing any
        # file, and a network already in --out is left whole
        cox = tmp_path / "cox"
        assert run(["coxph", "--data", data_dir / "train.csv", "--min-count", 5,
                    "--out", cox]) == 0
        before = {p: p.read_bytes() for p in cox.rglob("*") if p.is_file()}
        text = (data_dir / "train.csv").read_text()
        assert cell in text
        data = tmp_path / "cr.csv"
        data.write_text(text.replace(cell, f',"{label}",'), newline="")
        capsys.readouterr()
        assert run(["coxph", "--data", data, "--min-count", 5, "--out", cox]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "carriage return" in err
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in cox.rglob("*") if p.is_file()} == before

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


@pytest.mark.parametrize("argv,option", [
    (["fit"], "--net"),
    (["eval", "--test-net", "NET"], "--train-net"),
    (["eval", "--train-net", "NET"], "--test-net"),
    (["coxph"], "--data"),
])
def test_missing_input_exits_2(net_dir, tmp_path, capsys, argv, option):
    # unchecked, each ended in a TypeError traceback
    with pytest.raises(SystemExit) as exc:
        run([net_dir if a == "NET" else a for a in argv] + ["--out", tmp_path / "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {option} is required" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def eval_nets(tmp_path_factory):
    """Train and test 8x8 networks (seeds 5 and 6), as acceptance criterion 9 has them."""
    a, b = tmp_path_factory.mktemp("train"), tmp_path_factory.mktemp("test")
    run(["simulate-network", "--seed", 5, "--n-d", 8, "--n-r", 8, "--out", a])
    run(["simulate-network", "--seed", 6, "--n-d", 8, "--n-r", 8, "--out", b])
    return ["eval", "--train-net", a, "--test-net", b]


class TestEval:
    @pytest.mark.parametrize("allow", [False, True])
    def test_a_fit_that_stops_short_exits_1(self, eval_nets, tmp_path, capsys, allow):
        # unchecked, eval exited 0 whether or not its LSM fits converged
        out = tmp_path / "ev"
        flag = ["--allow-nonconverged"] if allow else []
        assert run(eval_nets + ["--methods", "raw,lsm", "--dim-grid", "2", "--max-iter", 1,
                                "--restarts", 0, "--out", out] + flag) == (0 if allow else 1)
        assert json.loads((out / "manifest.json").read_text())["command"] == "eval"
        assert ("warning: not all fits converged" in capsys.readouterr().err) is not allow

    def test_an_unconverged_fit_is_named_with_its_stop(self, eval_nets, tmp_path, capsys):
        assert run(eval_nets + ["--methods", "raw,lsm", "--dim-grid", "1,2", "--max-iter", 2,
                                "--restarts", 1, "--out", tmp_path / "ev"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "warning: not all fits converged (use --allow-nonconverged to tolerate)"
        assert len(lines) == 3
        for dim, line in zip((1, 2), lines[1:]):
            assert line.startswith(f"  lsm at dim {dim}: winning start ")
            assert line.endswith(" stopped after 2 L-BFGS-B iteration(s): "
                                 "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")

    def test_a_tolerated_fit_is_named_under_a_note(self, eval_nets, tmp_path, capsys):
        # unchecked, a run under --allow-nonconverged said nothing of its fits
        argv = eval_nets + ["--methods", "raw,lsm", "--dim-grid", "1,2", "--max-iter", 2,
                            "--restarts", 1]
        assert run(argv + ["--out", tmp_path / "warned"]) == 1
        warned = capsys.readouterr().err.splitlines()
        assert run(argv + ["--out", tmp_path / "noted", "--allow-nonconverged"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: some fits did not converge (tolerated by --allow-nonconverged)",
            *warned[1:],
        ]
        assert len(warned) == 3
        assert read(tmp_path / "noted" / "eval.json") == read(tmp_path / "warned" / "eval.json")

    @pytest.mark.parametrize("args,message", [
        (["--methods", "lsm", "--dim-grid", "9"],
         "dimensions must lie in [1, 8] = [1, min(n_d, n_r)], got [9]"),
        (["--methods", "raw,pca", "--dim-grid", "2,0"],
         "dimensions must lie in [1, 8] = [1, min(n_d, n_r)], got [2, 0]"),
        (["--methods", ""], "methods must be non-empty and distinct, got []"),
        (["--methods", "raw,raw"], "methods must be non-empty and distinct, got ['raw', 'raw']"),
        (["--methods", "raw,lsm", "--dim-grid", "2,2"], "dimensions must be distinct, got [2, 2]"),
    ], ids=["dim-above-nodes", "dim-zero", "no-methods", "repeated-method", "repeated-dim"])
    def test_bad_methods_or_dimensions_exit_2(self, eval_nets, tmp_path, capsys, args, message):
        # unchecked, each ran: dimension 9 on 8 nodes, an empty eval.json, two
        # table columns for one JSON key, or dimension 2 fitted twice
        out = tmp_path / "ev"
        assert run(eval_nets + args + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_nmtf_follows_seed(self, eval_nets, tmp_path):
        # unchecked, NMTF started from seed 0 whatever --seed said
        payloads = {}
        for seed in (0, 3):
            out = tmp_path / str(seed)
            assert run(eval_nets + ["--methods", "raw,nmtf,pca", "--seed", seed,
                                    "--out", out]) == 0
            payloads[seed] = json.loads((out / "eval.json").read_text())
        assert payloads[0]["nmtf"] != payloads[3]["nmtf"]
        assert payloads[0]["raw"] == payloads[3]["raw"]
        assert payloads[0]["pca"] == payloads[3]["pca"]

    def test_eval_table(self, eval_nets, tmp_path):
        out = tmp_path / "ev"
        assert run(eval_nets + ["--methods", "raw,pca,nmtf", "--dim-grid", "1,2",
                                "--out", out]) == 0
        payload = json.loads((out / "eval.json").read_text())
        assert set(payload) == {"raw", "pca", "nmtf"}
        assert "rmse" in (out / "eval_table.txt").read_text()


class TestPipelineCommand:
    def test_no_seeds_exits_2(self, tmp_path, capsys):
        # unchecked, it exited 0 and wrote an empty pipeline.json
        out = tmp_path / "pipe"
        assert run(["pipeline", "--seeds", 0, "--out", out]) == 2
        assert capsys.readouterr().err == "error: seeds must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("allow,error", [
        (False, FitError("all optimizer restarts diverged")),
        (True, FitError("all optimizer restarts diverged")),
        (False, ConvergenceError("singular information matrix at optimum")),
    ], ids=["False", "True", "convergence"])
    def test_a_seed_that_raises_exits_1(self, tmp_path, monkeypatch, capsys, allow, error):
        # the failure is recorded and every artifact written, and
        # --allow-nonconverged, which tolerates fits that stop short, does not hide it
        real = netlsm.cli.pipeline_end_to_end

        def seed_1_raises(gen, *args, **kwargs):
            if gen.seed == 1:
                raise error
            return real(gen, *args, **kwargs)

        monkeypatch.setattr(netlsm.cli, "pipeline_end_to_end", seed_1_raises)
        out = tmp_path / "pipe"
        argv = ["pipeline", "--seeds", 2, "--n", 1000, "--min-count", 5,
                "--restarts", 0, "--out", out]
        assert run(argv + ["--allow-nonconverged"] * allow) == 1
        assert "error:" in capsys.readouterr().err
        payload = json.loads((out / "pipeline.json").read_text())
        assert [row["seed"] for row in payload["per_seed"]] == [0]
        assert payload["failures"] == [{"seed": 1, "error": str(error)}]
        assert json.loads((out / "manifest.json").read_text())["artifacts"] == ["pipeline.json"]

    def test_an_unconverged_seed_is_named(self, tmp_path, monkeypatch, capsys):
        # seed 0's LSM fit is made to converge, seed 1's not
        real = netlsm.cli.pipeline_end_to_end

        def seed_1_stops_short(gen, *args, **kwargs):
            return replace(real(gen, *args, **kwargs), lsm_converged=gen.seed != 1)

        monkeypatch.setattr(netlsm.cli, "pipeline_end_to_end", seed_1_stops_short)
        out = tmp_path / "pipe"
        assert run(["pipeline", "--seeds", 2, "--n", 1000, "--min-count", 5,
                    "--restarts", 0, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: not all fits converged (use --allow-nonconverged to tolerate)",
            "  seed 1: LSM fit",
        ]

    def test_a_tolerated_seed_is_named_under_a_note(self, tmp_path, monkeypatch, capsys):
        real = netlsm.cli.pipeline_end_to_end

        def seed_1_stops_short(gen, *args, **kwargs):
            return replace(real(gen, *args, **kwargs), lsm_converged=gen.seed != 1)

        monkeypatch.setattr(netlsm.cli, "pipeline_end_to_end", seed_1_stops_short)
        out = tmp_path / "pipe"
        assert run(["pipeline", "--seeds", 2, "--n", 1000, "--min-count", 5,
                    "--restarts", 0, "--out", out, "--allow-nonconverged"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: some fits did not converge (tolerated by --allow-nonconverged)",
            "  seed 1: LSM fit",
        ]
        assert [row["lsm_converged"] for row in
                json.loads((out / "pipeline.json").read_text())["per_seed"]] == [True, False]

    @pytest.mark.parametrize("allow", [False, True])
    def test_an_unconverged_cox_fit_is_named_with_its_seed(self, tmp_path, monkeypatch, capsys,
                                                          allow):
        # one Newton step leaves the seed's Cox fit short of its tolerance;
        # pipeline.json records no Cox status, so only these lines tell
        monkeypatch.setattr(netlsm.survival, "_COX_MAX_ITER", 1)
        out = tmp_path / "pipe"
        assert run(["pipeline", "--seeds", 1, "--seed", 3, "--n", 1000, "--min-count", 5,
                    "--restarts", 0, "--out", out] + ["--allow-nonconverged"] * allow) == int(
                        not allow)
        assert capsys.readouterr().err.splitlines() == [
            "note: some fits did not converge (tolerated by --allow-nonconverged)" if allow else
            "warning: not all fits converged (use --allow-nonconverged to tolerate)",
            "  seed 3: Cox fit at penalty 1.0",
        ]
        (row,) = json.loads((out / "pipeline.json").read_text())["per_seed"]
        assert "cox_converged" not in row and row["lsm_converged"] is True

    def test_a_seed_that_raises_another_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # only fit failures are recorded; any other error stops the study
        # before a file is written, however many seeds ran before it
        real = netlsm.cli.pipeline_end_to_end

        def seed_1_raises(gen, *args, **kwargs):
            if gen.seed == 1:
                raise ValueError("bad seed")
            return real(gen, *args, **kwargs)

        monkeypatch.setattr(netlsm.cli, "pipeline_end_to_end", seed_1_raises)
        out = tmp_path / "pipe"
        assert run(["pipeline", "--seeds", 2, "--n", 1000, "--min-count", 5,
                    "--restarts", 0, "--out", out]) == 2
        assert capsys.readouterr().err == "error: bad seed\n"
        assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["pipeline", "--min-count", 0], "min_count must be >= 1"),
    (["pipeline", "--lam", -1], "penalty must be non-negative, got -1.0"),
    (["pipeline", "--lam", "nan"], "penalty must be non-negative, got nan"),
    (["pipeline", "--seed", -1], "seed must be >= 0, got -1"),
    (["table1", "--reps", 1, "--restarts", 0, "--seed", -1], "seed must be >= 0, got -1"),
    (["simulate-network", "--seed", -1], "seed must be >= 0, got -1"),
    (["pipeline", "--n", 300], "edge_mask must have at least one observed pair"),
    (["pipeline", "--min-count", 100000], "model has no donor or recipient type columns"),
    (["pipeline", "--dim", 13, "--n", 1000, "--min-count", 5, "--restarts", 0],
     "rank must not exceed min(n_d, n_r)"),
    (["table1", "--reps", 0], "n_reps must be >= 1"),
    (["simulate-transplants", "--donor-types", 0],
     "n_donor_types and n_recipient_types must be >= 1"),
    (["simulate-network", "--dim", 0], "latent dimension must be >= 1"),
    (["simulate-transplants", "--dim", 0], "latent dimension must be >= 1"),
    (["simulate-transplants", "--covariates", -1], "n_covariates must be >= 0"),
], ids=["min-count", "lam-negative", "lam-nan", "pipeline-seed", "table1-seed", "simulate-seed",
        "pipeline-n", "pipeline-min-count", "pipeline-dim", "table1-reps",
        "transplants-types", "network-dim-0", "transplants-dim-0", "transplants-covariates"])
def test_bad_input_exits_2(tmp_path, capsys, argv, message):
    # unchecked, pipeline and table1 recorded the error as a failure of every
    # run and exited 1, some commands left an empty --out behind, and a latent
    # dimension of 0 ended in a TypeError
    if argv[0] == "pipeline":
        argv = argv[:1] + ["--seeds", 1, "--n", 300] + argv[1:]
    out = tmp_path / "x"
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-network", "--out", "F"],
    ["simulate-network", "--out", "F/sub"],
    ["fit", "--net", "F", "--out", "x"],
    ["coxph", "--data", "D", "--out", "x"],
], ids=["out-is-a-file", "out-under-a-file", "net-is-a-file", "data-is-a-directory"])
def test_path_errors_exit_2(tmp_path, capsys, monkeypatch, argv):
    # unchecked, each ended in an OSError traceback (FileExistsError,
    # NotADirectoryError or IsADirectoryError) and exit 1
    (tmp_path / "F").write_text("a file\n")
    (tmp_path / "D").mkdir()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "F").read_text() == "a file\n"


@pytest.mark.parametrize("fault", ["long-field", "not-utf8", "unquoted-long-field"])
@pytest.mark.parametrize("name", ["edges.csv", "donor_nodes.csv", "train.csv"])
def test_an_unreadable_csv_row_exits_2_naming_its_line(net_dir, data_dir, tmp_path, capsys,
                                                       name, fault):
    # unchecked, a field over csv's size limit ended in a _csv.Error traceback
    # and exit 1, and a byte that is not UTF-8 in a UnicodeDecodeError naming
    # neither the file nor the line; unquoted, the long field leaves the
    # whole-file split for the csv reader, which names its line
    d = tmp_path / "in"
    shutil.copytree(data_dir if name == "train.csv" else net_dir, d)
    lines = (d / name).read_bytes().split(b"\n")
    cells = lines[2].split(b",")
    k = 3 if name == "train.csv" else 0  # a type label, a node label
    if fault == "long-field":
        cells[k] = b'"' + b"R" * 200000 + b'"'
    elif fault == "unquoted-long-field":
        cells[k] = b"R" * 200000
    else:
        cells[k] = b"\xff" + cells[k][1:]
    lines[2] = b",".join(cells)
    (d / name).write_bytes(b"\n".join(lines))
    if name == "train.csv":
        argv = ["coxph", "--data", d / name]
    else:
        argv = ["fit", "--net", d, "--restarts", 0]
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / name}:3: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv, named", [
    (["simulate-network", "--alpha={}"], "alpha"),
    (["simulate-network", "--beta={}"], "beta"),
    (["simulate-network", "--sigma-w={}"], "sigma_w"),
    (["simulate-network", "--sigma-node={}"], "sigma_node"),
    (["fit", "--net", "NET", "--grad-tol={}"], "grad_tol"),
    (["eval", "--train-net", "NET", "--test-net", "NET", "--methods", "raw", "--grad-tol={}"],
     "grad_tol"),
    (["table1", "--reps", 1, "--restarts", 0, "--grad-tol={}"], "grad_tol"),
    (["coxph", "--data", "DATA", "--lam={}"], "penalty"),
    (["pipeline", "--seeds", 1, "--n", 400, "--min-count", 3, "--lam={}"], "penalty"),
    (["coxph", "--data", "DATA", "--tune", "--lambda-grid=1,{}"], "penalty"),
    (["coxph", "--data", "DATA", "--tune", "--lambda-grid", "0.1,1", "--lam={}"], "penalty"),
], ids=["alpha", "beta", "sigma-w", "sigma-node", "fit-grad-tol", "eval-grad-tol",
        "table1-grad-tol", "coxph-lam", "pipeline-lam", "coxph-lambda-grid", "coxph-tune-lam"])
def test_a_non_finite_number_exits_2(net_dir, data_dir, tmp_path, capsys, argv, named, value):
    # unchecked, an infinite grad_tol called every fit converged at its start,
    # an infinite penalty gave NaN coefficients and stderrs of 2.2e-308, and
    # --tune took --lam=inf into the manifest as the invalid JSON Infinity;
    # the --opt=value form keeps argparse from reading -inf as an option
    paths = {"NET": net_dir, "DATA": data_dir / "train.csv"}
    argv = [paths.get(a, a) for a in argv]
    argv = [a.format(value) if isinstance(a, str) else a for a in argv]
    out = tmp_path / "x"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_coxph_tune_checks_a_negative_lam(data_dir, tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["coxph", "--data", data_dir / "train.csv", "--tune", "--lambda-grid", "0.1,1",
                "--lam=-5", "--out", out]) == 2
    assert capsys.readouterr().err == "error: penalty must be non-negative, got -5.0\n"
    assert not out.exists()


@pytest.mark.parametrize("record", [
    ReplicateReport(2, {"w": 0.1}, {"w": 0.01}, {"w": 0.9}, {"w": 0.02},
                    ({"seed": 0},), ({"seed": 1, "error": "diverged"},)),
    EvalReport(rmse=0.5, mean_log_prob=-1.2, sign_accuracy=0.75, n_pairs=4),
    PipelineResult(c_raw=0.6, c_refined={"lsm": 0.62}, deltas={"lsm": 0.02},
                   lambda_used=1.0, lsm_converged=True, cox_converged=False),
], ids=["ReplicateReport", "EvalReport", "PipelineResult"])
def test_a_record_writes_every_field(record):
    # pipeline.json has always called the ridge strength "lambda", and keeps
    # its bytes without the Cox fit's status (the CLI names that fit instead)
    key = {"lambda_used": "lambda"}
    unwritten = {"cox_converged"}
    d = record.to_dict()
    written = [f for f in fields(record) if f.name not in unwritten]
    assert sorted(d) == sorted(key.get(f.name, f.name) for f in written)
    for f in written:
        assert d[key.get(f.name, f.name)] == getattr(record, f.name)


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

    def test_an_unconverged_replicate_is_named(self, tmp_path, capsys):
        # two L-BFGS-B iterations leave every fit short
        out = tmp_path / "t1"
        assert run(["table1", "--reps", 2, "--max-iter", 2, "--restarts", 0,
                    "--out", out]) == 1
        payload = json.loads((out / "table1.json").read_text())
        keys = ["low_noise/pair_term_only", "low_noise/full_compatibility",
                "high_noise/pair_term_only", "high_noise/full_compatibility"]
        assert all(not r["converged"] for k in keys for r in payload[k]["per_replicate"])
        assert capsys.readouterr().err.splitlines() == [
            "warning: not all fits converged (use --allow-nonconverged to tolerate)",
            *(f"  {k} replicate seed {r['seed']}" for k in keys
              for r in payload[k]["per_replicate"]),
        ]

    def test_a_replicate_that_raises_exits_1(self, tmp_path, monkeypatch, capsys):
        # ``netlsm.simulate`` is the re-exported function, not the module; each
        # replicate seed fits the four blocks' networks in one ``fit_networks``
        sim_module = importlib.import_module("netlsm.simulate")
        real = sim_module.fit_networks

        def rep_1_raises(nets, config):
            if config.seed == 1:
                return [FitError("all optimizer restarts diverged") for _ in nets]
            return real(nets, config)

        monkeypatch.setattr(sim_module, "fit_networks", rep_1_raises)
        out = tmp_path / "t1"
        assert run(["table1", "--reps", 2, "--restarts", 0, "--out", out,
                    "--allow-nonconverged"]) == 1
        assert "error:" in capsys.readouterr().err
        for report in json.loads((out / "table1.json").read_text()).values():
            assert [row["seed"] for row in report["per_replicate"]] == [0]
            assert report["failures"] == [{"seed": 1, "error": "all optimizer restarts diverged"}]
        assert (out / "manifest.json").is_file()

    def test_a_replicate_that_raises_another_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # only fit failures are recorded; any other error stops the study
        # before a file is written
        sim_module = importlib.import_module("netlsm.simulate")
        real = sim_module.fit_networks

        def rep_1_raises(nets, config):
            if config.seed == 1:
                raise ValueError("bad replicate")
            return real(nets, config)

        monkeypatch.setattr(sim_module, "fit_networks", rep_1_raises)
        out = tmp_path / "t1"
        assert run(["table1", "--reps", 2, "--restarts", 0, "--out", out,
                    "--allow-nonconverged"]) == 2
        assert capsys.readouterr().err == "error: bad replicate\n"
        assert not out.exists()

    def test_every_replicate_raising_exits_1(self, tmp_path, monkeypatch, capsys):
        # a block with no replicate left still writes its failures, not a traceback
        def raises(nets, config):
            return [FitError("all optimizer restarts diverged") for _ in nets]

        monkeypatch.setattr(importlib.import_module("netlsm.simulate"), "fit_networks", raises)
        out = tmp_path / "t1"
        assert run(["table1", "--reps", 1, "--restarts", 0, "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        payload = json.loads((out / "table1.json").read_text())
        assert len(payload) == 4
        for report in payload.values():
            assert report["per_replicate"] == [] and report["rmse_mean"] == {}
            assert report["failures"] == [{"seed": 0, "error": "all optimizer restarts diverged"}]
        assert "no replicate succeeded" in (out / "table1.txt").read_text()
        assert (out / "manifest.json").is_file()


# The config keys of each command's manifest, which --config re-runs read
MANIFEST_KEYS = {
    "simulate-network": {"seed", "n_d", "n_r", "dim", "alpha", "beta", "sigma_w",
                         "sigma_node", "convention"},
    "simulate-transplants": {"seed", "n", "donor_types", "recipient_types", "covariates",
                             "dim", "no_structure"},
    "fit": {"seed", "max_iter", "grad_tol", "restarts", "net", "test_net", "method", "dim",
            "dim_grid"},
    "eval": {"seed", "max_iter", "grad_tol", "restarts", "train_net", "test_net", "methods",
             "dim_grid"},
    "table1": {"seed", "max_iter", "grad_tol", "restarts", "reps"},
    "coxph": {"seed", "data", "min_count", "lam", "tune", "lambda_grid"},
    "pipeline": {"seed", "seeds", "n", "dim", "restarts", "lam", "min_count", "no_structure"},
}


def test_manifest_config_keys_are_pinned():
    assert set(MANIFEST_KEYS) == set(netlsm.cli._RUNNERS)
    for command, keys in MANIFEST_KEYS.items():
        assert set(_config_from_args(build_parser().parse_args([command]))) == keys, command


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

    def _rerun_exits_2(self, tmp_path, capsys, manifest_path, message, command="fit"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(manifest_path), "--out", str(tmp_path / "x")])
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

    def test_config_with_unknown_keys_exits_2(self, tmp_path, capsys):
        # unchecked, the re-run exited 0 and copied both keys into its own manifest
        first = tmp_path / "one"
        assert run(["simulate-network", "--n-d", 5, "--n-r", 5, "--out", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"].update(restart=1, n_dd=5)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        self._rerun_exits_2(tmp_path, capsys, path, "unknown key(s) n_dd, restart",
                            command="simulate-network")

    @pytest.mark.parametrize("out", [5, []], ids=["int", "list"])
    def test_manifest_out_of_the_wrong_type_exits_2(self, tmp_path, capsys, monkeypatch, out):
        # unchecked, os.path.join raised a TypeError traceback and the run exited 1
        first = tmp_path / "one"
        assert run(["simulate-network", "--n-d", 5, "--n-r", 5, "--out", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["out"] = out
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main(["simulate-network", "--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: manifest out={out!r} is not a string or null" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("form", ["flag", "manifest"])
    def test_empty_out_exits_2(self, tmp_path_factory, tmp_path, capsys, monkeypatch, form):
        # unchecked, the run wrote its artifacts into the working directory and exited 0
        argv = ["simulate-network", "--n-d", "4", "--n-r", "4"]
        if form == "flag":
            argv += ["--out", ""]
        else:
            first = tmp_path_factory.mktemp("first")
            assert run(argv + ["--out", first]) == 0
            manifest = json.loads((first / "manifest.json").read_text())
            manifest["out"] = ""
            (first / "manifest.json").write_text(json.dumps(manifest))
            argv = ["simulate-network", "--config", str(first / "manifest.json")]
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: --out is required (directly or via --config)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_removed_identity_refinement_key_exits_2(self, tmp_path, capsys):
        # an old manifest asking for the identity refinement must not run the plain study
        path = self._pipeline_manifest(tmp_path, identity_refinement=True)
        self._rerun_exits_2(tmp_path, capsys, path, "unknown key(s) identity_refinement",
                            command="pipeline")

    @staticmethod
    def _pipeline_manifest(tmp_path, **changes):
        cfg = _config_from_args(build_parser().parse_args(["pipeline"]))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "pipeline", "config": {**cfg, **changes}}))
        return path

    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys):
        # unchecked, "2" reaches range() in run_pipeline as a TypeError traceback
        path = self._pipeline_manifest(tmp_path, seeds="2")
        self._rerun_exits_2(tmp_path, capsys, path, "seeds='2'", command="pipeline")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        path = self._pipeline_manifest(tmp_path, seed=-1, seeds=1, n=300)
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_non_numeric_float_exits_2(self, tmp_path, capsys):
        # unchecked, "x" fails inside each seed and is only recorded as a failure
        path = self._pipeline_manifest(tmp_path, lam="x")
        self._rerun_exits_2(tmp_path, capsys, path, "lam='x'", command="pipeline")

    @pytest.mark.parametrize("changes,message", [
        ({"test_net": 5}, "test_net=5 (expected str)"),
        ({"net": None}, "--net is required"),
        ({"dim_grid": ["x"]}, "dim_grid=['x'] (expected list)"),
    ])
    def test_bad_value_with_a_none_default_exits_2(self, tmp_path, capsys, changes, message):
        # unchecked, each ended in a TypeError traceback
        cfg = _config_from_args(build_parser().parse_args(["fit", "--net", "net"]))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "fit", "config": {**cfg, **changes}}))
        self._rerun_exits_2(tmp_path, capsys, path, message)

    def test_value_types_follow_the_defaults(self, tmp_path):
        # an int passes for a float and None for a None default; a bool is
        # not an int, None is not a float and 0 is not a bool
        parser = build_parser()
        path = self._pipeline_manifest(tmp_path, lam=1)
        assert _read_manifest(parser, path, "pipeline")["config"]["lam"] == 1
        first = tmp_path / "one"
        run(["simulate-network", "--n-d", 5, "--n-r", 5, "--out", first / "net"])
        assert run(["fit", "--net", first / "net", "--method", "raw", "--out", first]) == 0
        manifest = _read_manifest(parser, first / "manifest.json", "fit")
        assert manifest["config"]["test_net"] is None and manifest["config"]["dim_grid"] is None
        for key, value in (("seeds", True), ("lam", None), ("no_structure", 0)):
            with pytest.raises(SystemExit):
                _read_manifest(parser, self._pipeline_manifest(tmp_path, **{key: value}),
                               "pipeline")
        # list items are checked against the default's items
        assert _matches([1, 2.5], [0.1]) and _matches([], [1])
        assert not _matches(["1"], [1]) and not _matches("1,2", [1])
