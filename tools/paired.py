"""Paired comparison: a fixed corpus of fits and a fixed set of CLI runs, on two checkouts.

A change must leave the corpus's fits and the CLI's artifacts where they
were; a fit that is meant to move is listed by the change that moves it:

    python tools/paired.py run --src PARENT/src --out parent/
    python tools/paired.py run --out change/
    python tools/paired.py compare parent/ change/

``run`` pins BLAS threads to 1 and imports netlsm once from ``--src``
(default: the ``src/`` of the checkout holding this file).  It then writes
two parts into ``--out``:

- ``fits.json``: one record per fit of the corpus below.  Each corpus entry,
  a lone fit or a lockstep group, runs through one ``fit_networks`` call, of
  which ``fit`` is the one-network case; a ``FitError`` is recorded in place
  of its result.  Each fit's wall time (a lockstep group's, for its fits) is
  printed but not recorded, so two runs of one checkout write byte-identical
  files, which ``cmp`` can check.
- ``cli/<name>/``: ``netlsm.cli.main`` for each command of the acceptance
  test's determinism criterion (all seven commands, at its fixed seeds),
  for ``fit`` on the network that ``coxph`` writes (masked, and read back
  through the CSV loader), for ``coxph --tune`` on the same data (the cross-validated lambda and the
  network fit at it), for ``coxph --tune`` at pipeline scale (on
  ``simulate-transplants --seed 0``: 4000 records per split, 12x12 types),
  and for ``pipeline --seeds 2`` and ``table1 --reps 2`` at the CLI
  defaults: two seeds, four restarts, and each seed's four blocks fit in one
  lockstep.  The paths a command is given are relative to
  ``cli/``, so that the manifests of two runs hold the same config.
  ``cli/exit_codes.json`` records each exit code.

``compare`` walks both directories, prints every difference, one line per
corpus group (its fit count, the converged count before -> after, and how
many lls rose, fell or stayed within ``LL_RTOL``) and a summary, and exits 1
on any difference:

- either side lacks ``fits.json`` or ``cli/exit_codes.json``, or has no fit
  record, so that a comparison of nothing does not pass;
- in ``fits.json``: a fit present on one side only, a different restart
  index, converged flag, iteration count or error, or a log-likelihood
  beyond 1e-8 relative;
- any other file that is not byte-identical, except that a ``manifest.json``
  must hold the same JSON apart from ``duration_s`` and ``out``; a config
  key present on one side only is reported by name.

The corpus (125 fits, about 8 s on one core):

- 60x60 networks, seeds 0-29, ``restarts=1``;
- table1-like 20x20 networks, sigma_w 0.15 and 1.5, pair-term-only and
  full-compatibility edge means, seeds 0-9, ``restarts=4``;
- networks extracted from the pipeline's Cox fit (CLI defaults), seeds 0-9,
  ``restarts=1``;
- 30x25 networks at dims 1 and 3, seeds 0-4, ``restarts=1``;
- 30x25 networks at dim 2 with about 20% of pairs unobserved, seeds 0-4,
  ``restarts=1``;
- masked lockstep groups: the train and test networks of each of those
  seeds' ``simulate_train_test``, given that seed's mask and fit in one
  ``fit_networks`` call, ``restarts=1``;
- lockstep groups: the four table1 block networks of seeds 0-4, each seed's
  four in one ``fit_networks`` call, ``restarts=4``.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

LL_RTOL = 1e-8
EXACT = ("restart_index", "converged", "iterations", "error")
# (subdirectory, argv) in run order; fit, eval and coxph read earlier outputs
COMMANDS = (
    ("net1", ["simulate-network", "--seed", "5", "--n-d", "8", "--n-r", "8"]),
    ("net2", ["simulate-network", "--seed", "6", "--n-d", "8", "--n-r", "8"]),
    ("tx", ["simulate-transplants", "--n", "600", "--donor-types", "6",
            "--recipient-types", "6", "--seed", "2"]),
    ("fit", ["fit", "--net", "net1", "--method", "lsm", "--dim", "2",
             "--restarts", "1", "--seed", "3"]),
    ("eval", ["eval", "--train-net", "net1", "--test-net", "net2",
              "--methods", "raw,lsm,nmtf,pca", "--dim-grid", "2",
              "--restarts", "0", "--seed", "3"]),
    ("table1", ["table1", "--reps", "1", "--restarts", "0"]),
    ("coxph", ["coxph", "--data", "tx/train.csv", "--min-count", "5", "--lam", "1.0"]),
    ("fit-coxph", ["fit", "--net", "coxph/network", "--restarts", "0", "--seed", "3"]),
    ("coxph-tune", ["coxph", "--data", "tx/train.csv", "--min-count", "5", "--tune"]),
    ("tx-defaults", ["simulate-transplants", "--seed", "0"]),
    ("coxph-tune-defaults", ["coxph", "--data", "tx-defaults/train.csv", "--tune"]),
    ("pipeline", ["pipeline", "--seeds", "1", "--n", "1000", "--min-count", "5",
                  "--restarts", "0"]),
    ("pipeline-defaults", ["pipeline", "--seeds", "2"]),
    ("table1-defaults", ["table1", "--reps", "2"]),
)
IGNORED = ("duration_s", "out")
REQUIRED = ("fits.json", "cli/exit_codes.json")


def corpus():
    """Yield ``(fit ids, networks, FitConfig)`` for each lone fit or lockstep group."""
    from netlsm._util import substream
    from netlsm.model import FitConfig
    from netlsm.simulate import (
        FULL_COMPATIBILITY,
        PAIR_TERM_ONLY,
        SimConfig,
        simulate,
        simulate_train_test,
    )
    from netlsm.survival import (
        SurvivalGenConfig,
        cox_fit,
        design_matrix,
        extract_network,
        simulate_transplants,
    )

    for seed in range(30):
        net = simulate(SimConfig(n_d=60, n_r=60, seed=seed)).observed
        yield [f"60x60/s{seed}"], [net], FitConfig(dim=2, restarts=1, seed=seed)
    for sigma_w in (0.15, 1.5):
        for convention in (PAIR_TERM_ONLY, FULL_COMPATIBILITY):
            for seed in range(10):
                sc = SimConfig(sigma_w=sigma_w, edge_mean_convention=convention, seed=seed)
                yield ([f"table1/{sigma_w}/{convention}/s{seed}"], [simulate(sc).observed],
                       FitConfig(dim=2, restarts=4, seed=seed))
    for seed in range(10):
        train, _, _ = simulate_transplants(SurvivalGenConfig(seed=seed))
        x, columns = design_matrix(train, 10)
        net = extract_network(cox_fit(x, train.time, train.event, 1.0, columns=columns))
        yield [f"pipeline/s{seed}"], [net], FitConfig(dim=2, restarts=1, seed=seed)
    for dim in (1, 3):
        for seed in range(5):
            net = simulate(SimConfig(n_d=30, n_r=25, dim=dim, seed=seed)).observed
            yield [f"30x25/d{dim}/s{seed}"], [net], FitConfig(dim=dim, restarts=1, seed=seed)
    for seed in range(5):
        net = simulate(SimConfig(n_d=30, n_r=25, seed=seed)).observed
        mask = substream(seed, "paired-fits-mask").random((30, 25)) >= 0.2
        yield ([f"masked/s{seed}"], [dataclasses.replace(net, edge_mask=mask)],
               FitConfig(dim=2, restarts=1, seed=seed))
        _, train, test = simulate_train_test(SimConfig(n_d=30, n_r=25, seed=seed))
        yield ([f"masked-lockstep/{split}/s{seed}" for split in ("train", "test")],
               [dataclasses.replace(n, edge_mask=mask) for n in (train, test)],
               FitConfig(dim=2, restarts=1, seed=seed))
    blocks = [(sigma_w, convention) for sigma_w in (0.15, 1.5)
              for convention in (PAIR_TERM_ONLY, FULL_COMPATIBILITY)]
    for seed in range(5):
        yield ([f"lockstep/{sigma_w}/{convention}/s{seed}" for sigma_w, convention in blocks],
               [simulate(SimConfig(sigma_w=sigma_w, edge_mean_convention=convention,
                                   seed=seed)).observed for sigma_w, convention in blocks],
               FitConfig(dim=2, restarts=4, seed=seed))


def run(src, out):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src, out = Path(src).resolve(), Path(out).resolve()
    sys.path.insert(0, str(src))
    from netlsm.cli import main
    from netlsm.model import FitError, fit_networks

    records = []
    for fit_ids, nets, config in corpus():
        start = time.perf_counter()
        outcomes = fit_networks(nets, config)
        seconds = time.perf_counter() - start
        for fit_id, res in zip(fit_ids, outcomes):
            if isinstance(res, FitError):
                record = {"error": str(res)}
            else:
                record = {
                    "log_likelihood": res.log_likelihood,
                    "restart_index": res.restart_index,
                    "converged": res.converged,
                    "iterations": res.iterations,
                    "grad_norm": res.grad_norm,
                }
            record["id"] = fit_id
            records.append(record)
            print(f"{fit_id}: {json.dumps(record, sort_keys=True)} ({seconds:.3f} s)", flush=True)
    os.makedirs(out / "cli", exist_ok=True)
    (out / "fits.json").write_text(json.dumps({"src": str(src), "fits": records}, indent=1) + "\n")
    os.chdir(out / "cli")
    codes = {}
    for name, argv in COMMANDS:
        codes[name] = main(argv + ["--out", name, "--allow-nonconverged"])
        print(f"{name}: exit {codes[name]}", flush=True)
    Path("exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    return 0


def _files(root):
    return {p.relative_to(root).as_posix() for p in Path(root).rglob("*") if p.is_file()}


def _fit_differences(dir_a, dir_b, summary, groups):
    """The differences between two ``fits.json`` files.

    ``summary`` gets their counts, and ``groups`` one line per corpus group
    (the fit id up to its first ``/``): its paired fits, converged count on
    each side, and how many lls rose, fell (or became NaN) or stayed within
    ``LL_RTOL``.
    """
    a, b = ({r["id"]: r for r in json.loads(Path(d, "fits.json").read_text())["fits"]}
            for d in (dir_a, dir_b))
    bad = [f"{d}: no fit record" for d, fits in ((dir_a, a), (dir_b, b)) if not fits]
    bad += [f"{i}: only in {dir_a}" for i in a if i not in b]
    bad += [f"{i}: only in {dir_b}" for i in b if i not in a]
    same_ll, max_rel, tally = 0, 0.0, {}
    for fit_id in (i for i in a if i in b):
        ra, rb = a[fit_id], b[fit_id]
        counts = tally.setdefault(fit_id.split("/")[0], Counter())
        counts.update(fits=1, before=ra.get("converged") is True,
                      after=rb.get("converged") is True)
        for key in EXACT:
            if ra.get(key) != rb.get(key):
                bad.append(f"{fit_id}: {key} {ra.get(key)!r} -> {rb.get(key)!r}")
        if "error" in ra or "error" in rb:
            continue
        lla, llb = ra["log_likelihood"], rb["log_likelihood"]
        same_ll += lla == llb
        rel = abs(lla - llb) / max(abs(lla), abs(llb), 1e-300)
        counts["within" if rel <= LL_RTOL else "rose" if llb > lla else "fell"] += 1
        if not rel <= LL_RTOL:
            bad.append(f"{fit_id}: log_likelihood {lla!r} -> {llb!r} (relative {rel:.3g})")
        if not math.isnan(rel):
            max_rel = max(max_rel, rel)
    groups += [f"{group}: {c['fits']} fits, converged {c['before']} -> {c['after']}, "
               f"ll {c['rose']} rose, {c['fell']} fell, {c['within']} within {LL_RTOL:g}"
               for group, c in tally.items()]
    summary.append(f"{sum(1 for i in a if i in b)} paired fits: {same_ll} with equal ll, "
                   f"max relative |dll| {max_rel:.3g}")
    return bad


def _manifest_differences(rel, a, b):
    a, b = (json.loads(p.read_text()) for p in (a, b))
    for doc in (a, b):
        for key in IGNORED:
            doc.pop(key, None)
    cfg_a, cfg_b = a.get("config") or {}, b.get("config") or {}
    bad = [f"{rel}: config key {k!r} only in the first" for k in sorted(set(cfg_a) - set(cfg_b))]
    bad += [f"{rel}: config key {k!r} only in the second" for k in sorted(set(cfg_b) - set(cfg_a))]
    bad += [f"{rel}: config {k} {cfg_a[k]!r} -> {cfg_b[k]!r}"
            for k in sorted(set(cfg_a) & set(cfg_b)) if cfg_a[k] != cfg_b[k]]
    bad += [f"{rel}: {k} {a.get(k)!r} -> {b.get(k)!r}"
            for k in sorted((set(a) | set(b)) - {"config"}) if a.get(k) != b.get(k)]
    return bad


def compare(dir_a, dir_b):
    """Print the differences between two run directories; 1 if there is any, else 0."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    bad = [f"{f}: not in {d}" for d, files in ((dir_a, files_a), (dir_b, files_b))
           for f in REQUIRED if f not in files]
    bad += [f"{f}: only in {dir_a}" for f in sorted(files_a - files_b) if f not in REQUIRED]
    bad += [f"{f}: only in {dir_b}" for f in sorted(files_b - files_a) if f not in REQUIRED]
    both, summary, groups = sorted(files_a & files_b), [], []
    for rel in both:
        a, b = Path(dir_a, rel), Path(dir_b, rel)
        if rel == "fits.json":
            bad += _fit_differences(dir_a, dir_b, summary, groups)
        elif Path(rel).name == "manifest.json":
            bad += _manifest_differences(rel, a, b)
        elif a.read_bytes() != b.read_bytes():
            bad.append(f"{rel}: bytes differ")
    for line in bad + groups:
        print(line)
    print("; ".join(summary + [f"{len(both)} paired files", f"{len(bad)} difference(s)"]))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="fit the corpus, run the command set, write both")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--src", default=Path(__file__).resolve().parent.parent / "src")
    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run(args.src, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
