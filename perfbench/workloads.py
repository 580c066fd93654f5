"""The three workloads: how each sets up, what one operation runs, and how
its artifacts are checked and scored.

Operation ``k`` of a run with workload seed ``s`` uses seed ``s + k``; the
program receives only the generated command line and input files.  The
warm-up operation of set-up uses ``WARMUP_SEED`` whatever ``s`` is, so that
set-up does the same work in every run.
"""

import json
import math
import os

WARMUP_SEED = 1_000_000


class OutputError(Exception):
    """An operation's artifacts failed a check; the operation counts as failed."""


def _load(out, name):
    path = os.path.join(out, name)
    if not os.path.isfile(path):
        raise OutputError(f"missing artifact {name}")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _finite(value, what):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise OutputError(f"non-finite {what}: {value!r}")
    return float(value)


def _c_index(value, what):
    if not 0.0 <= _finite(value, what) <= 1.0:
        raise OutputError(f"{what} outside [0, 1]: {value!r}")
    return float(value)


class Pipeline:
    name = "pipeline"
    artifacts = ("pipeline.json",)
    min_ops = 8  # quality metrics are taken over exactly these first operations

    def __init__(self, smoke=False):
        self.extra = ["--n", "600"] if smoke else []

    def setup(self, main, work, seed):
        pass  # the pipeline simulates its own records from the seed

    def argv(self, seed, out):
        return ["pipeline", "--seeds", "1", "--seed", str(seed),
                "--allow-nonconverged", "--out", out, *self.extra]

    def warmup_argv(self, out):
        return self.argv(WARMUP_SEED, out)

    def check(self, out):
        doc = _load(out, "pipeline.json")
        if doc["failures"] or len(doc["per_seed"]) != 1:
            raise OutputError(f"pipeline seed failed: {doc['failures']}")
        rec = doc["per_seed"][0]
        c_raw = _c_index(rec["c_raw"], "c_raw")
        c_ref = {m: _c_index(v, f"c_refined.{m}") for m, v in rec["c_refined"].items()}
        return {"lsm_converged": [bool(rec["lsm_converged"])],
                "c_index_raw": c_raw, "c_index_delta_lsm": c_ref["lsm"] - c_raw}


class FitLarge:
    name = "fit_large"
    artifacts = ("metrics.json", "model.json")
    min_ops = 3
    # Fit cost varies with the network (the number of L-BFGS iterations and
    # _polish steps), so each operation fits its own network: operation k
    # fits network k % pool, simulated in set-up from seed s + k % pool.  The
    # warm-up fits a network of its own, simulated from WARMUP_SEED.
    pool = 16

    def __init__(self, smoke=False):
        self.size = "12" if smoke else "60"
        self.nets = []
        self.warmup_net = None
        self.seed = None

    def _simulate(self, main, net, seed):
        rc = main(["simulate-network", "--n-d", self.size, "--n-r", self.size,
                   "--seed", str(seed), "--out", net])
        if rc != 0:
            raise OutputError(f"simulate-network exited with {rc}")
        for name in ("edges.csv", "donor_nodes.csv", "recipient_nodes.csv"):
            if not os.path.isfile(os.path.join(net, name)):
                raise OutputError(f"missing input {name}")

    def setup(self, main, work, seed):
        self.seed = seed
        self.nets = [os.path.join(work, f"net{i}") for i in range(self.pool)]
        for i, net in enumerate(self.nets):
            self._simulate(main, net, seed + i)
        self.warmup_net = os.path.join(work, "net-warmup")
        self._simulate(main, self.warmup_net, WARMUP_SEED)

    def _argv(self, net, seed, out):
        return ["fit", "--net", net, "--method", "lsm", "--dim", "2",
                "--restarts", "1", "--seed", str(seed), "--allow-nonconverged",
                "--out", out]

    def argv(self, seed, out):
        return self._argv(self.nets[(seed - self.seed) % self.pool], seed, out)

    def warmup_argv(self, out):
        return self._argv(self.warmup_net, WARMUP_SEED, out)

    def check(self, out):
        _load(out, "metrics.json")
        model = _load(out, "model.json")
        return {"lsm_converged": [bool(model["converged"])],
                "lsm_ll_mean": _finite(model["log_likelihood"], "log_likelihood")}


class Table1:
    name = "table1"
    artifacts = ("table1.json", "table1.txt")
    min_ops = 6
    blocks = 4

    def __init__(self, smoke=False):
        self.extra = ["--restarts", "0", "--max-iter", "50"] if smoke else []

    def setup(self, main, work, seed):
        pass  # each replicate simulates its own network from the seed

    def argv(self, seed, out):
        return ["table1", "--reps", "1", "--seed", str(seed), "--out", out, *self.extra]

    def warmup_argv(self, out):
        return self.argv(WARMUP_SEED, out)

    def check(self, out):
        doc = _load(out, "table1.json")
        if not os.path.isfile(os.path.join(out, "table1.txt")):
            raise OutputError("missing artifact table1.txt")
        if len(doc) != self.blocks:
            raise OutputError(f"expected {self.blocks} blocks, got {sorted(doc)}")
        converged, r2_z, rmse_w = [], [], []
        for key, block in sorted(doc.items()):
            if block["failures"]:
                raise OutputError(f"{key} has failures: {block['failures']}")
            converged += [bool(r["converged"]) for r in block["per_replicate"]]
            r2_z += [_finite(block["r2_mean"][q], f"{key} r2 {q}") for q in ("z_d", "z_r")]
            rmse_w.append(_finite(block["rmse_mean"]["w"], f"{key} rmse w"))
        return {"lsm_converged": converged,
                "recovery_r2_z": sum(r2_z) / len(r2_z),
                "recovery_rmse_w": sum(rmse_w) / len(rmse_w)}


WORKLOADS = {w.name: w for w in (Pipeline, FitLarge, Table1)}

# name -> unit; each workload reports 0 for the metrics it does not produce
QUALITY = {
    "lsm_converged_frac": "fraction",
    "lsm_ll_mean": "nats",
    "c_index_raw": "c-index",
    "c_index_delta_lsm": "c-index",
    "recovery_r2_z": "r2",
    "recovery_rmse_w": "rmse",
}


def quality(scores):
    """Mean of each operation's scores; 0 for what the workload does not produce."""
    out = {name: 0.0 for name in QUALITY}
    if not scores:
        return out
    flags = [c for s in scores for c in s["lsm_converged"]]
    out["lsm_converged_frac"] = sum(flags) / len(flags)
    for name in QUALITY:
        if name in scores[0]:
            out[name] = sum(s[name] for s in scores) / len(scores)
    return out
