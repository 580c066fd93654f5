"""``tools/paired_fits.py compare`` on hand-made record files."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from netlsm._util import substream
from netlsm.model import FitConfig

from helpers import random_network

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_fits.py"
spec = importlib.util.spec_from_file_location("paired_fits", TOOL)
paired_fits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_fits)

BASE = [
    {"id": "60x60/s0", "log_likelihood": 1932.0351538123, "restart_index": 0,
     "converged": True, "iterations": 71, "grad_norm": 4e-12, "seconds": 0.1},
    {"id": "pipeline/s0", "log_likelihood": -57.454, "restart_index": 1,
     "converged": False, "iterations": 500, "grad_norm": 3e-3, "seconds": 0.3},
    {"id": "30x25/d3/s0", "error": "all optimizer restarts diverged", "seconds": 0.2},
]


def compare(tmp_path, edit=None):
    other = json.loads(json.dumps(BASE))
    if edit:
        edit(other)
    paths = []
    for name, fits in (("a.json", BASE), ("b.json", other)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"src": name, "fits": fits}))
    return paired_fits.main(["compare", *map(str, paths)])


def test_identical_and_timing_or_grad_norm_differences_pass(tmp_path, capsys):
    def edit(fits):
        fits[0].update(seconds=9.0, grad_norm=5e-12)
        fits[1]["log_likelihood"] *= 1 + 5e-9  # within 1e-8 relative

    assert compare(tmp_path) == 0
    assert compare(tmp_path, edit) == 0
    assert "0 difference(s)" in capsys.readouterr().out


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
def test_a_difference_exits_1(tmp_path, capsys, edit, what):
    assert compare(tmp_path, edit) == 1
    out = capsys.readouterr().out
    assert what in out and "1 difference(s)" in out


def test_two_runs_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    # the wall time is printed, not recorded, so the records of two runs can be
    # compared byte for byte
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))  # run() prepends src
    # a lone fit, and a lockstep group of two networks fit in one fit_networks call
    nets = [random_network(substream(seed, "paired"), 6, 5) for seed in (3, 4)]
    config = FitConfig(dim=2, restarts=1, seed=3)
    monkeypatch.setattr(paired_fits, "corpus", lambda: [
        (["tiny/s3"], nets[:1], config), (["pair/s3", "pair/s4"], nets, config)])
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert paired_fits.main(["run", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    records = json.loads(paths[0].read_text())["fits"]
    assert [r["id"] for r in records] == ["tiny/s3", "pair/s3", "pair/s4"]
    assert all(set(r) == {"id", "log_likelihood", "restart_index", "converged",
                          "iterations", "grad_norm"} for r in records)
    # the lockstep fit of a network records what its lone fit records
    assert {**records[1], "id": "tiny/s3"} == records[0]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6 and all(line.endswith(" s)") for line in out)
    assert [line.split(":")[0] for line in out[:3]] == ["tiny/s3", "pair/s3", "pair/s4"]
