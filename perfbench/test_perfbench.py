"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_smoke_every_workload_both_modes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in lines} == {
        (w, t) for w in ("pipeline", "fit_large", "table1") for t in (0, 1)}
    assert all(r["passed"] for r in lines), lines


def test_tracer_rebinds_every_reference_and_restores(tmp_path):
    import netlsm.cli  # noqa: F401 - loads every module the tracer targets

    mods = {k: m for k, m in sys.modules.items() if k.startswith("netlsm.")}
    before = {k: dict(vars(m)) for k, m in mods.items()}
    runners = dict(mods["netlsm.cli"]._RUNNERS)
    t = tracer.Tracer()
    t.install()
    try:
        for holder, name in (("metrics", "fit"), ("cli", "fit"), ("simulate", "fit"),
                             ("survival", "fit"), ("model", "minimize"),
                             ("model", "mds_init"), ("model", "_polish")):
            assert vars(mods[f"netlsm.{holder}"])[name] is not before[f"netlsm.{holder}"][name]
        assert mods["netlsm.cli"]._RUNNERS["fit"] is not runners["fit"]
        t.op = 0
        assert netlsm.cli.main(["simulate-network", "--n-d", "5", "--n-r", "5",
                                "--out", str(tmp_path)]) == 0
    finally:
        assert t.restore() == 0
    for k, m in mods.items():
        assert all(vars(m)[name] is value for name, value in before[k].items()
                   if not name.startswith("__"))
    assert mods["netlsm.cli"]._RUNNERS == runners
    names = [s[0] for s in t.spans]
    assert names.count("cli.main") == 1 and "cli.run_fit" not in names


def test_aggregate_self_time_subtracts_children():
    spans = [("cli.main", 0.0, 10.0, -1, 0, 0),
             ("model.fit", 1.0, 7.0, 0, 0, 0),
             ("model.minimize", 2.0, 5.0, 1, 0, 12),
             ("model.fit", 20.0, 30.0, -1, "warmup", 0)]
    per_name, per_module = tracer.aggregate(spans, [0])
    assert per_name["cli.main"] == {"calls": 1, "s": 10.0, "self_s": 4.0, "extra": 0}
    assert per_name["model.fit"] == {"calls": 1, "s": 6.0, "self_s": 3.0, "extra": 0}
    assert per_name["model.minimize"]["extra"] == 12
    assert per_module["model"] == 6.0 and per_module["cli"] == 4.0
    assert tracer.counters(spans, "warmup") == {"model.fit.calls": 1}


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_worse_medians_and_changed_counters():
    import collect

    bench = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                            {"name": "ops_per_kref", "better": "higher", "bound": 0.2}]}

    def summary(setup_s, ops, nit):
        return {"table1": {
            "metrics": {"setup_s": {"median": setup_s}, "ops_per_kref": {"median": ops}},
            "per_seed": {"0": {"quality": {"lsm_converged_frac": 1.0},
                               "counters": {"0": {"model.minimize.extra": nit}}}}}}

    old = summary(1.0, 10.0, 5)
    assert collect.compare(old, summary(1.2, 8.5, 5), bench) == []
    assert len(collect.compare(old, summary(1.3, 7.9, 6), bench)) == 3
