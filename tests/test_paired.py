"""``tools/paired.py``: ``compare`` on hand-made run directories, and two ``run``s."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from netlsm._util import substream
from netlsm.model import FitConfig

from helpers import random_network

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired.py"
spec = importlib.util.spec_from_file_location("paired", TOOL)
paired = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)

FITS = [
    {"id": "60x60/s0", "log_likelihood": 1932.0351538123, "restart_index": 0,
     "converged": True, "iterations": 71, "grad_norm": 4e-12, "seconds": 0.1},
    {"id": "pipeline/s0", "log_likelihood": -57.454, "restart_index": 1,
     "converged": False, "iterations": 500, "grad_norm": 3e-3, "seconds": 0.3},
    {"id": "30x25/d3/s0", "error": "all optimizer restarts diverged", "seconds": 0.2},
]
MANIFEST = {"command": "pipeline", "config": {"seed": 0, "seeds": 1, "no_structure": False},
            "seed": 0, "out": "pipeline", "artifacts": ["pipeline.json"], "version": "0.1.0",
            "duration_s": 0.5}


def write_run(root, fits, manifest):
    (root / "cli" / "pipeline").mkdir(parents=True, exist_ok=True)
    (root / "fits.json").write_text(json.dumps({"src": root.name, "fits": fits}))
    (root / "cli" / "pipeline" / "manifest.json").write_text(json.dumps(manifest))


def compare(tmp_path, edit_fits=None, edit=None):
    """Compare run directory ``a`` with a copy changed by ``edit_fits`` and ``edit``.

    ``edit_fits`` changes the fit records, and ``edit(cli, manifest)`` the
    files under ``cli/`` and the pipeline manifest.
    """
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, FITS, MANIFEST)
    (a / "cli" / "pipeline" / "pipeline.json").write_text('{"c_raw": 0.6}\n')
    (a / "cli" / "exit_codes.json").write_text('{"pipeline": 0}\n')
    shutil.copytree(a, b)
    fits, manifest = json.loads(json.dumps(FITS)), json.loads(json.dumps(MANIFEST))
    if edit_fits:
        edit_fits(fits)
    if edit:
        edit(b / "cli", manifest)
    write_run(b, fits, manifest)
    return paired.main(["compare", str(a), str(b)])


def test_identical_and_timing_or_grad_norm_differences_pass(tmp_path, capsys):
    def edit(fits):
        fits[0].update(seconds=9.0, grad_norm=5e-12)
        fits[1]["log_likelihood"] *= 1 + 5e-9  # within 1e-8 relative

    assert compare(tmp_path / "same") == 0
    assert compare(tmp_path / "near", edit) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "3 paired fits: 1 with equal ll, max relative |dll| 5e-09; 4 paired files; "
        "0 difference(s)")


def test_identical_and_duration_or_out_differences_pass(tmp_path, capsys):
    def edit(root, manifest):
        manifest.update(duration_s=9.0, out="/elsewhere/pipeline")

    assert compare(tmp_path / "same") == 0
    assert compare(tmp_path / "timing", None, edit) == 0
    assert "4 paired files; 0 difference(s)" in capsys.readouterr().out


@pytest.mark.parametrize("edit,what", [
    (lambda f: f[0].update(log_likelihood=f[0]["log_likelihood"] * (1 + 2e-8)), "log_likelihood"),
    (lambda f: f[1].update(log_likelihood=float("nan")), "log_likelihood"),
    (lambda f: f[0].update(restart_index=1), "restart_index"),
    (lambda f: f[1].update(converged=True), "converged"),
    (lambda f: f[0].update(iterations=72), "iterations"),
    (lambda f: f[2].update(error="other"), "error"),
    (lambda f: f.pop(2), "only in"),
    (lambda f: f.append({**f[0], "id": "60x60/s1"}), "only in"),
], ids=["ll", "ll-nan", "restart", "converged", "iterations", "error", "missing", "extra"])
def test_a_fit_difference_exits_1(tmp_path, capsys, edit, what):
    assert compare(tmp_path, edit) == 1
    out = capsys.readouterr().out
    assert what in out and "1 difference(s)" in out


def test_one_line_per_corpus_group(tmp_path, capsys):
    # a group that converges less often, or to a worse optimum, shows on its line
    def record(fit_id, ll, converged):
        return {"id": fit_id, "log_likelihood": ll, "restart_index": 0, "converged": converged,
                "iterations": 9, "grad_norm": 1e-9}

    before = [record("table1/0.15/s0", -10.0, True), record("table1/1.5/s0", -20.0, True),
              record("pipeline/s0", -30.0, False), record("pipeline/s1", -40.0, True),
              {"id": "pipeline/s2", "error": "all optimizer restarts diverged"}]
    after = [record("table1/0.15/s0", -9.0, True),
             record("table1/1.5/s0", -20.0 * (1 + 5e-9), True),
             record("pipeline/s0", -31.0, True), *before[3:]]
    for root, fits in ((tmp_path / "a", before), (tmp_path / "b", after)):
        write_run(root, fits, MANIFEST)
        (root / "cli" / "exit_codes.json").write_text('{"pipeline": 0}\n')
    assert paired.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "table1: 2 fits, converged 2 -> 2, ll 1 rose, 0 fell, 1 within 1e-08",
        "pipeline: 3 fits, converged 1 -> 2, ll 0 rose, 1 fell, 1 within 1e-08",
        "5 paired fits: 1 with equal ll, max relative |dll| 0.1; 3 paired files; "
        "3 difference(s)"]


@pytest.mark.parametrize("edit,what", [
    (lambda root, m: (root / "pipeline" / "pipeline.json").write_text('{"c_raw": 0.7}\n'),
     "cli/pipeline/pipeline.json: bytes differ"),
    (lambda root, m: (root / "pipeline" / "pipeline.json").unlink(),
     "cli/pipeline/pipeline.json: only in"),
    (lambda root, m: (root / "pipeline" / "extra.csv").write_text("x\n"),
     "cli/pipeline/extra.csv: only in"),
    (lambda root, m: m["config"].pop("no_structure"),
     "config key 'no_structure' only in the first"),
    (lambda root, m: m["config"].update(identity_refinement=True),
     "config key 'identity_refinement' only in the second"),
    (lambda root, m: m["config"].update(seeds=2), "config seeds 1 -> 2"),
    (lambda root, m: m.update(artifacts=[]), "artifacts ['pipeline.json'] -> []"),
], ids=["bytes", "missing", "extra", "key-removed", "key-added", "config-value", "field"])
def test_an_artifact_difference_exits_1(tmp_path, capsys, edit, what):
    assert compare(tmp_path, None, edit) == 1
    out = capsys.readouterr().out
    assert what in out and "1 difference(s)" in out


@pytest.mark.parametrize("make,what", [
    (lambda a, b: None, ["fits.json: not in {a}", "cli/exit_codes.json: not in {b}"]),
    (lambda a, b: (a.mkdir(), b.mkdir()),
     ["fits.json: not in {b}", "cli/exit_codes.json: not in {a}"]),
    (lambda a, b: (compare(a.parent), (b / "fits.json").unlink()), ["fits.json: not in {b}"]),
    (lambda a, b: (compare(a.parent), (a / "cli" / "exit_codes.json").unlink()),
     ["cli/exit_codes.json: not in {a}"]),
    (lambda a, b: (compare(a.parent), write_run(b, [], MANIFEST)), ["{b}: no fit record"]),
    (lambda a, b: (compare(a.parent, list.clear), write_run(a, [], MANIFEST)),
     ["{a}: no fit record", "{b}: no fit record"]),
], ids=["no-directories", "empty-directories", "no-fits", "no-exit-codes", "no-fit-record",
        "no-fit-records"])
def test_a_comparison_of_nothing_exits_1(tmp_path, capsys, make, what):
    # unchecked, each of these compared 0 fits or 0 files and exited 0
    a, b = tmp_path / "a", tmp_path / "b"
    make(a, b)
    capsys.readouterr()
    assert paired.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert all(w.format(a=a, b=b) in out for w in what)


def test_two_runs_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    # the wall time is printed, not recorded, so the fit records of two runs
    # can be compared byte for byte
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))  # run() prepends src
    monkeypatch.chdir(tmp_path)  # run() changes into cli/
    # a lone fit, and a lockstep group of two networks fit in one fit_networks call
    nets = [random_network(substream(seed, "paired"), 6, 5) for seed in (3, 4)]
    config = FitConfig(dim=2, restarts=1, seed=3)
    monkeypatch.setattr(paired, "corpus", lambda: [
        (["tiny/s3"], nets[:1], config), (["pair/s3", "pair/s4"], nets, config)])
    monkeypatch.setattr(paired, "COMMANDS", (
        ("net", ["simulate-network", "--seed", "1", "--n-d", "6", "--n-r", "5"]),
        ("fit", ["fit", "--net", "net", "--dim", "2", "--restarts", "0"])))
    runs = [tmp_path / "a", tmp_path / "b"]
    for path in runs:
        assert paired.main(["run", "--out", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (runs[0] / "fits.json").read_bytes() == (runs[1] / "fits.json").read_bytes()
    records = json.loads((runs[0] / "fits.json").read_text())["fits"]
    assert [r["id"] for r in records] == ["tiny/s3", "pair/s3", "pair/s4"]
    assert all(set(r) == {"id", "log_likelihood", "restart_index", "converged",
                          "iterations", "grad_norm"} for r in records)
    # the lockstep fit of a network records what its lone fit records
    assert {**records[1], "id": "tiny/s3"} == records[0]
    assert len(out) == 10 and all(line.endswith(" s)") for line in out[:3] + out[5:8])
    assert [line.split(":")[0] for line in out[:5]] == ["tiny/s3", "pair/s3", "pair/s4",
                                                        "net", "fit"]
    assert out[3:5] == ["net: exit 0", "fit: exit 0"]
    assert json.loads((runs[0] / "cli" / "exit_codes.json").read_text()) == {"net": 0, "fit": 0}
    assert (runs[0] / "cli" / "fit" / "manifest.json").is_file()
    assert paired.main(["compare", *map(str, runs)]) == 0
    assert capsys.readouterr().out.endswith("; 0 difference(s)\n")
