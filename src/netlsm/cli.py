"""Command-line surface: reproducible runs with a manifest per command.

Every command materializes its full configuration (defaults included) into a
``manifest.json`` next to its artifacts; ``netlsm <command> --config
manifest.json --out other/`` re-runs it and reproduces all numeric outputs
bit-for-bit.  All randomness flows from ``--seed`` through named sub-streams.
"""

import argparse
import json
import math
import os
import sys
import time as _time

import numpy as np

from . import __version__
from ._util import dump_json, write_text_atomic
from .metrics import METHODS, evaluate_refinement, format_eval_table
# ``fit`` is not called here, but perfbench/test_perfbench.py checks that the
# benchmark's tracer rebinds ``cli.fit``.
from .model import FitConfig, fit  # noqa: F401
from .network import load_network_dir, save_network
from .simulate import (
    FULL_COMPATIBILITY,
    PAIR_TERM_ONLY,
    SimConfig,
    format_report_table,
    run_replicates,
    simulate,
)
from .survival import (
    SurvivalGenConfig,
    TransplantDataset,
    cox_fit,
    design_matrix,
    extract_network,
    pipeline_end_to_end,
    simulate_transplants,
    tune_lambda,
)

DEFAULT_LAMBDA_GRID = [float(v) for v in np.logspace(-3, 2, 10)]


def _sim_config(cfg):
    return SimConfig(
        n_d=cfg["n_d"],
        n_r=cfg["n_r"],
        dim=cfg["dim"],
        alpha=cfg["alpha"],
        beta=cfg["beta"],
        sigma_w=cfg["sigma_w"],
        sigma_node=cfg["sigma_node"],
        edge_mean_convention=cfg["convention"],
        seed=cfg["seed"],
    )


def run_simulate_network(cfg, out):
    sim = simulate(_sim_config(cfg))
    save_network(sim.observed, out)
    truth = sim.truth.to_dict()
    dump_json(truth, os.path.join(out, "truth.json"))
    return ["edges.csv", "donor_nodes.csv", "recipient_nodes.csv", "truth.json"], True


def run_simulate_transplants(cfg, out):
    gen = SurvivalGenConfig(
        n_per_split=cfg["n"],
        n_donor_types=cfg["donor_types"],
        n_recipient_types=cfg["recipient_types"],
        n_covariates=cfg["covariates"],
        dim=cfg["dim"],
        no_structure=cfg["no_structure"],
        seed=cfg["seed"],
    )
    os.makedirs(out, exist_ok=True)
    train, test, truth = simulate_transplants(gen)
    train.to_csv(os.path.join(out, "train.csv"))
    test.to_csv(os.path.join(out, "test.csv"))
    dump_json(
        {
            "params": truth.params.to_dict(),
            "eta": truth.eta,
            "mu": truth.mu,
            "basic_coef": truth.basic_coef,
            "donor_labels": list(truth.donor_labels),
            "recipient_labels": list(truth.recipient_labels),
        },
        os.path.join(out, "truth.json"),
    )
    return ["train.csv", "test.csv", "truth.json"], True


def _fit_config(cfg):
    return FitConfig(
        dim=cfg.get("dim") or 2,
        max_iter=cfg["max_iter"],
        grad_tol=cfg["grad_tol"],
        restarts=cfg["restarts"],
        seed=cfg["seed"],
    )


def run_fit(cfg, out):
    train = load_network_dir(cfg["net"])
    test = load_network_dir(cfg["test_net"]) if cfg["test_net"] else train
    dims = cfg["dim_grid"] if cfg["dim_grid"] else [cfg["dim"]]
    if cfg["method"] != "raw" and max(dims) > min(train.n_d, train.n_r):
        raise ValueError("dimension exceeds node counts")
    fc = _fit_config(cfg)
    evaluation = evaluate_refinement(train, test, cfg["method"], dims, fit_config=fc)
    os.makedirs(out, exist_ok=True)
    artifacts = ["metrics.json"]
    converged = True
    payload = evaluation.to_dict()
    if evaluation.fits:  # an LSM fit per dimension
        result = evaluation.fits[evaluation.selected_dim]
        converged = result.converged
        dump_json(result.to_dict(), os.path.join(out, "model.json"))
        artifacts.append("model.json")
    dump_json(payload, os.path.join(out, "metrics.json"))
    return artifacts, converged


def run_eval(cfg, out):
    train = load_network_dir(cfg["train_net"])
    test = load_network_dir(cfg["test_net"])
    fc = _fit_config(cfg)
    evaluations = [
        evaluate_refinement(train, test, m, cfg["dim_grid"], fit_config=fc)
        for m in cfg["methods"]
    ]
    os.makedirs(out, exist_ok=True)
    dump_json({e.method: e.to_dict() for e in evaluations}, os.path.join(out, "eval.json"))
    write_text_atomic(os.path.join(out, "eval_table.txt"), format_eval_table(evaluations))
    return ["eval.json", "eval_table.txt"], True


def run_table1(cfg, out):
    fc = _fit_config(cfg)
    os.makedirs(out, exist_ok=True)
    payload = {}
    tables = []
    converged = True
    for noise_name, sigma_w in (("low_noise", 0.15), ("high_noise", 1.5)):
        for convention in (PAIR_TERM_ONLY, FULL_COMPATIBILITY):
            sc = SimConfig(sigma_w=sigma_w, edge_mean_convention=convention, seed=cfg["seed"])
            report = run_replicates(sc, fc, cfg["reps"])
            key = f"{noise_name}/{convention}"
            payload[key] = report.to_dict()
            tables.append(format_report_table(report, title=key))
            converged = converged and all(r["converged"] for r in report.per_replicate)
    dump_json(payload, os.path.join(out, "table1.json"))
    write_text_atomic(os.path.join(out, "table1.txt"), "\n".join(tables))
    return ["table1.json", "table1.txt"], converged


def run_coxph(cfg, out):
    data = TransplantDataset.from_csv(cfg["data"])
    x, columns = design_matrix(data, cfg["min_count"])
    lam = cfg["lam"]
    if cfg["tune"]:
        lam = tune_lambda(x, data.time, data.event, cfg["lambda_grid"], seed=cfg["seed"])
    model = cox_fit(x, data.time, data.event, lam, columns=columns)
    os.makedirs(out, exist_ok=True)
    dump_json(model.to_dict(), os.path.join(out, "coxph.json"))
    save_network(extract_network(model), os.path.join(out, "network"))
    return [
        "coxph.json",
        "network/edges.csv",
        "network/donor_nodes.csv",
        "network/recipient_nodes.csv",
    ], model.converged


def run_pipeline(cfg, out):
    per_seed = []
    failures = []
    converged = True
    for k in range(cfg["seeds"]):
        seed = cfg["seed"] + k
        gen = SurvivalGenConfig(
            n_per_split=cfg["n"],
            dim=cfg["dim"],
            no_structure=cfg["no_structure"],
            seed=seed,
        )
        fc = FitConfig(dim=cfg["dim"], restarts=cfg["restarts"], seed=seed)
        try:
            res = pipeline_end_to_end(
                gen, fc, lam=cfg["lam"], min_count=cfg["min_count"],
                identity_refinement=cfg["identity_refinement"],
            )
        except Exception as exc:  # noqa: BLE001 - per-seed isolation
            failures.append({"seed": seed, "error": str(exc)})
            continue
        converged = converged and res.lsm_converged
        per_seed.append({"seed": seed, **res.to_dict()})
    methods = sorted(per_seed[0]["deltas"]) if per_seed else []
    aggregate = {
        m: {
            "median_delta": float(np.median([r["deltas"][m] for r in per_seed])),
            "mean_delta": float(np.mean([r["deltas"][m] for r in per_seed])),
        }
        for m in methods
    }
    os.makedirs(out, exist_ok=True)
    dump_json(
        {"per_seed": per_seed, "aggregate": aggregate, "failures": failures},
        os.path.join(out, "pipeline.json"),
    )
    return ["pipeline.json"], converged and not failures


_RUNNERS = {
    "simulate-network": run_simulate_network,
    "simulate-transplants": run_simulate_transplants,
    "fit": run_fit,
    "eval": run_eval,
    "table1": run_table1,
    "coxph": run_coxph,
    "pipeline": run_pipeline,
}


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=False, default=None, help="output directory")
    p.add_argument("--config", default=None, help="re-run from a manifest JSON")
    p.add_argument("--allow-nonconverged", action="store_true")


def _add_fit_opts(p):
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=4)


def build_parser():
    parser = argparse.ArgumentParser(prog="netlsm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-network", help="write a synthetic network (CSV) + truth")
    _add_common(p)
    p.add_argument("--n-d", type=int, default=20)
    p.add_argument("--n-r", type=int, default=20)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--sigma-w", type=float, default=0.15)
    p.add_argument("--sigma-node", type=float, default=0.15)
    p.add_argument("--convention", choices=[PAIR_TERM_ONLY, FULL_COMPATIBILITY],
                   default=PAIR_TERM_ONLY)

    p = sub.add_parser("simulate-transplants", help="write synthetic survival splits")
    _add_common(p)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--donor-types", type=int, default=12)
    p.add_argument("--recipient-types", type=int, default=12)
    p.add_argument("--covariates", type=int, default=4)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--no-structure", action="store_true")

    p = sub.add_parser("fit", help="fit a refiner to a network directory")
    _add_common(p)
    _add_fit_opts(p)
    p.add_argument("--net", help="directory with the three network CSVs")
    p.add_argument("--test-net", default=None)
    p.add_argument("--method", choices=METHODS, default="lsm")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--dim-grid", default=None, help="comma-separated, e.g. 1,2,3")

    p = sub.add_parser("eval", help="train/test refinement evaluation table")
    _add_common(p)
    _add_fit_opts(p)
    p.add_argument("--train-net")
    p.add_argument("--test-net")
    p.add_argument("--methods", default="raw,lsm,nmtf,pca")
    p.add_argument("--dim-grid", default="1,2,3,4")

    p = sub.add_parser("table1", help="replicate recovery study, both noise regimes")
    _add_common(p)
    _add_fit_opts(p)
    p.add_argument("--reps", type=int, default=15)

    p = sub.add_parser("coxph", help="fit ridge CoxPH to a transplant CSV")
    _add_common(p)
    p.add_argument("--data", help="TransplantDataset CSV")
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--tune", action="store_true", help="2-fold CV over the lambda grid")
    p.add_argument("--lambda-grid", default=None, help="comma-separated")

    p = sub.add_parser("pipeline", help="end-to-end coefficient-substitution study")
    _add_common(p)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--no-structure", action="store_true")
    p.add_argument("--identity-refinement", action="store_true")
    return parser


def _config_from_args(args):
    """Materialize the full per-command configuration dict."""
    skip = {"command", "out", "config", "allow_nonconverged"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    for key in ("dim_grid", "lambda_grid", "methods"):
        if key in cfg and isinstance(cfg[key], str):
            parts = [s for s in cfg[key].split(",") if s]
            if key == "methods":
                cfg[key] = parts
            elif key == "dim_grid":
                cfg[key] = [int(s) for s in parts]
            else:
                cfg[key] = [float(s) for s in parts]
    if args.command == "coxph" and cfg.get("lambda_grid") is None:
        cfg["lambda_grid"] = DEFAULT_LAMBDA_GRID
    return cfg


def _read_manifest(parser, path, command):
    """The manifest at ``path``; ``parser.error`` unless it holds a full config for ``command``."""
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        parser.error(f"cannot read manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        parser.error("manifest is not a JSON object")
    if manifest.get("command") != command:
        parser.error(f"manifest is for command {manifest.get('command')!r}")
    cfg = manifest.get("config")
    if not isinstance(cfg, dict):
        parser.error("manifest has no config")
    missing = set(_config_from_args(parser.parse_args([command]))) - set(cfg)
    if missing:
        parser.error(f"manifest config lacks {', '.join(sorted(missing))}")
    return manifest


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        manifest = _read_manifest(parser, args.config, args.command)
        cfg = manifest["config"]
        out = args.out or manifest.get("out")
    else:
        cfg = _config_from_args(args)
        out = args.out
    if out is None:
        parser.error("--out is required (directly or via --config)")
    t0 = _time.perf_counter()
    try:
        artifacts, converged = _RUNNERS[args.command](cfg, out)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    duration = _time.perf_counter() - t0
    manifest = {
        "command": args.command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "out": out,
        "artifacts": artifacts,
        "version": __version__,
        "duration_s": duration,
    }
    dump_json(manifest, os.path.join(out, "manifest.json"))
    if not converged and not args.allow_nonconverged:
        print("warning: not all fits converged (use --allow-nonconverged to tolerate)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
