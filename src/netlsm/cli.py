"""Command-line surface: reproducible runs with a manifest per command.

Every command materializes its full configuration (defaults included) into a
``manifest.json`` next to its artifacts; ``netlsm <command> --config
manifest.json --out other/`` re-runs it and reproduces all numeric outputs
bit-for-bit.  All randomness flows from ``--seed`` through named sub-streams.
"""

import argparse
import json
import os
import sys
import time as _time

import numpy as np

from . import __version__
from ._util import dump_json, write_text_atomic
from .metrics import METHODS, evaluate_refinement, format_eval_table
# ``fit`` is not called here, but perfbench/test_perfbench.py checks that the
# benchmark's tracer rebinds ``cli.fit``.
from .model import fit  # noqa: F401
from .model import FitConfig, FitError
from .network import load_network_dir, save_network
from .simulate import (
    FULL_COMPATIBILITY,
    PAIR_TERM_ONLY,
    SimConfig,
    format_report_table,
    run_blocks,
    simulate,
)
from .survival import (
    ConvergenceError,
    SurvivalGenConfig,
    TransplantDataset,
    check_penalty,
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
    files = save_network(sim.observed, out)
    dump_json(sim.truth.to_dict(), os.path.join(out, "truth.json"))
    return files + ["truth.json"], [], False


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
    return ["train.csv", "test.csv", "truth.json"], [], False


def _fit_config(cfg):
    return FitConfig(
        max_iter=cfg["max_iter"],
        grad_tol=cfg["grad_tol"],
        restarts=cfg["restarts"],
        seed=cfg["seed"],
    )


def _evaluate(cfg, net_key, methods, dims):
    """Score each method refining ``cfg[net_key]`` on ``cfg["test_net"]`` (itself if unset).

    The one refinement path of ``fit`` and ``eval``; it writes nothing, and
    returns the evaluations and one line per LSM fit that did not converge,
    naming its method, its dimension, the start that won, that start's
    L-BFGS-B iterations and its stop reason.
    """
    train = load_network_dir(cfg[net_key])
    test = load_network_dir(cfg["test_net"]) if cfg["test_net"] else train
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods must be non-empty and distinct, got {methods}")
    if len(set(dims)) < len(dims):
        raise ValueError(f"dimensions must be distinct, got {dims}")
    limit = min(train.n_d, train.n_r)
    if any(m != "raw" for m in methods) and not all(1 <= d <= limit for d in dims):
        raise ValueError(f"dimensions must lie in [1, {limit}] = [1, min(n_d, n_r)], got {dims}")
    evaluations = [evaluate_refinement(train, test, m, dims, _fit_config(cfg)) for m in methods]
    stops = []
    for e in evaluations:
        for dim, r in e.fits.items():
            if not r.converged:
                stops.append(f"  {e.method} at dim {dim}: {r.stop_summary()}")
    return evaluations, stops


def run_fit(cfg, out):
    dims = [cfg["dim"]] if cfg["dim_grid"] is None else cfg["dim_grid"]
    [evaluation], stops = _evaluate(cfg, "net", [cfg["method"]], dims)
    artifacts = ["metrics.json"]
    if evaluation.fits:  # an LSM fit per dimension
        result = evaluation.fits[evaluation.selected_dim]
        dump_json(result.to_dict(), os.path.join(out, "model.json"))
        artifacts.append("model.json")
    dump_json(evaluation.to_dict(), os.path.join(out, "metrics.json"))
    return artifacts, stops, False


def run_eval(cfg, out):
    evaluations, stops = _evaluate(cfg, "train_net", cfg["methods"], cfg["dim_grid"])
    dump_json({e.method: e.to_dict() for e in evaluations}, os.path.join(out, "eval.json"))
    write_text_atomic(os.path.join(out, "eval_table.txt"), format_eval_table(evaluations))
    return ["eval.json", "eval_table.txt"], stops, False


def run_table1(cfg, out):
    keys, blocks = [], []
    for noise_name, sigma_w in (("low_noise", 0.15), ("high_noise", 1.5)):
        for convention in (PAIR_TERM_ONLY, FULL_COMPATIBILITY):
            keys.append(f"{noise_name}/{convention}")
            blocks.append(SimConfig(sigma_w=sigma_w, edge_mean_convention=convention,
                                    seed=cfg["seed"]))
    reports = run_blocks(blocks, _fit_config(cfg), cfg["reps"])
    payload = {key: report.to_dict() for key, report in zip(keys, reports)}
    tables = [format_report_table(report, title=key) for key, report in zip(keys, reports)]
    stops = [f"  {key} replicate seed {r['seed']}" for key, report in zip(keys, reports)
             for r in report.per_replicate if not r["converged"]]
    failed = any(report.failures for report in reports)
    dump_json(payload, os.path.join(out, "table1.json"))
    write_text_atomic(os.path.join(out, "table1.txt"), "\n".join(tables))
    return ["table1.json", "table1.txt"], stops, failed


def run_coxph(cfg, out):
    check_penalty(cfg["lam"])  # even when --tune replaces it: the manifest records it
    data = TransplantDataset.from_csv(cfg["data"])
    x, columns = design_matrix(data, cfg["min_count"])
    lam = cfg["lam"]
    if cfg["tune"]:
        lam = tune_lambda(x, data.time, data.event, cfg["lambda_grid"], seed=cfg["seed"])
    model = cox_fit(x, data.time, data.event, lam, columns=columns)
    # the network first: a label it cannot write stops coxph before any file is written
    files = save_network(extract_network(model), os.path.join(out, "network"))
    dump_json(model.to_dict(), os.path.join(out, "coxph.json"))
    stops = [] if model.converged else [f"  Cox fit at penalty {lam}: {model.newton}"]
    return ["coxph.json"] + [f"network/{f}" for f in files], stops, False


def run_pipeline(cfg, out):
    if cfg["seeds"] < 1:
        raise ValueError("seeds must be >= 1")
    per_seed = []
    failures, stops = [], []
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
            res = pipeline_end_to_end(gen, fc, lam=cfg["lam"], min_count=cfg["min_count"])
        except (FitError, ConvergenceError) as exc:  # any other error stops the study
            failures.append({"seed": seed, "error": str(exc)})
            continue
        if not res.cox_converged:
            stops.append(f"  seed {seed}: Cox fit at penalty {res.lambda_used}: {res.cox_newton}")
        if not res.lsm_converged:
            stops.append(f"  seed {seed}: LSM fit at dim {cfg['dim']}: {res.lsm_stop}")
        per_seed.append({"seed": seed, **res.to_dict()})
    methods = sorted(per_seed[0]["deltas"]) if per_seed else []
    aggregate = {
        m: {
            "median_delta": float(np.median([r["deltas"][m] for r in per_seed])),
            "mean_delta": float(np.mean([r["deltas"][m] for r in per_seed])),
        }
        for m in methods
    }
    dump_json(
        {"per_seed": per_seed, "aggregate": aggregate, "failures": failures},
        os.path.join(out, "pipeline.json"),
    )
    return ["pipeline.json"], stops, bool(failures)


# Each runner writes its artifacts and returns (artifacts, stops, failed):
# ``stops`` names each fit that did not converge (all but table1 also say how
# it ended), one line each, printed under the warning that says so;
# ``failed`` says that a seed or replicate raised (its error is recorded in
# the artifacts), which exits 1 whatever --allow-nonconverged says.
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


def _list_of(item):
    """argparse ``type`` for a comma-separated list of ``item`` values (empty items skipped)."""

    def parse(text):
        try:
            return [item(s) for s in text.split(",") if s]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {item.__name__} values, got {text!r}"
            ) from None

    return parse


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
    p.add_argument("--dim-grid", type=_list_of(int), default=None,
                   help="comma-separated, e.g. 1,2,3")

    p = sub.add_parser("eval", help="train/test refinement evaluation table")
    _add_common(p)
    _add_fit_opts(p)
    p.add_argument("--train-net")
    p.add_argument("--test-net")
    p.add_argument("--methods", type=_list_of(str), default=",".join(METHODS))
    p.add_argument("--dim-grid", type=_list_of(int), default="1,2,3,4")

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
    p.add_argument("--lambda-grid", type=_list_of(float), default=DEFAULT_LAMBDA_GRID,
                   help="comma-separated")

    p = sub.add_parser("pipeline", help="end-to-end coefficient-substitution study")
    _add_common(p)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--no-structure", action="store_true")
    return parser


def _config_from_args(args):
    """Materialize the full per-command configuration dict."""
    skip = {"command", "out", "config", "allow_nonconverged"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# The config values that default to None: an example of the type a value
# must have when it is set.
_UNSET_TYPES = {"net": "", "train_net": "", "test_net": "", "data": "", "dim_grid": [0]}
# The config values each command needs, given directly or via --config.
_REQUIRED = {"fit": ("net",), "eval": ("train_net", "test_net"), "coxph": ("data",)}


def _matches(value, default):
    """Whether a manifest value has the type of the command's default.

    An int is accepted where the default is a float, and list items are
    checked against the default's first item.
    """
    if isinstance(default, list):
        return isinstance(value, list) and all(_matches(v, default[0]) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(default)


def _read_manifest(parser, path, command):
    """The manifest at ``path``; ``parser.error`` unless it holds a full config for ``command``.

    The manifest's ``out`` must be a string or null.  The config must hold
    exactly the command's keys, and every value must have the type of the
    command's default (see :func:`_matches`).
    A value whose default is ``None`` may be ``None``, or else must have its
    type in ``_UNSET_TYPES``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        parser.error(f"cannot read manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        parser.error("manifest is not a JSON object")
    if manifest.get("command") != command:
        parser.error(f"manifest is for command {manifest.get('command')!r}")
    if not isinstance(manifest.get("out"), (str, type(None))):
        parser.error(f"manifest out={manifest['out']!r} is not a string or null")
    cfg = manifest.get("config")
    if not isinstance(cfg, dict):
        parser.error("manifest has no config")
    defaults = _config_from_args(parser.parse_args([command]))
    missing = set(defaults) - set(cfg)
    if missing:
        parser.error(f"manifest config lacks {', '.join(sorted(missing))}")
    unknown = set(cfg) - set(defaults)
    if unknown:
        parser.error(f"manifest config has unknown key(s) {', '.join(sorted(unknown))}")
    wrong = []
    for k, v in sorted(defaults.items()):
        expected = _UNSET_TYPES[k] if v is None else v
        if not (v is None and cfg[k] is None or _matches(cfg[k], expected)):
            wrong.append(f"{k}={cfg[k]!r} (expected {type(expected).__name__})")
    if wrong:
        parser.error(f"manifest config has the wrong type: {', '.join(wrong)}")
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
    for key in _REQUIRED.get(args.command, ()):
        if cfg[key] is None:
            parser.error(f"--{key.replace('_', '-')} is required (directly or via --config)")
    if not out:
        parser.error("--out is required (directly or via --config)")
    t0 = _time.perf_counter()
    try:
        if cfg["seed"] < 0:  # one message for every command, not numpy's SeedSequence one
            raise ValueError(f"seed must be >= 0, got {cfg['seed']}")
        artifacts, stops, failed = _RUNNERS[args.command](cfg, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    if failed:
        print(f"error: some runs raised; their errors are under 'failures' in {out}",
              file=sys.stderr)
        return 1
    if not stops:
        return 0
    if args.allow_nonconverged:
        print("note: some fits did not converge (tolerated by --allow-nonconverged)",
              *stops, sep="\n", file=sys.stderr)
        return 0
    print("warning: not all fits converged (use --allow-nonconverged to tolerate)",
          *stops, sep="\n", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
