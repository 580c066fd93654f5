"""Paired fit comparison: one fixed corpus of fits, run on two checkouts.

A change that can move an L-BFGS path or the polish must leave every fit of
the corpus where it was: the same winning restart, converged flag and L-BFGS
iteration count, and the same log-likelihood up to 1e-8 relative.

    python tools/paired_fits.py run --src PARENT/src --out parent.json
    python tools/paired_fits.py run --out change.json
    python tools/paired_fits.py compare parent.json change.json

``run`` fits the corpus with the netlsm under ``--src`` (default: the ``src/``
of the checkout holding this file) and writes one record per fit.  BLAS
threads are pinned to 1 first.  Each fit's wall time is printed but not
recorded, so two runs of one checkout write byte-identical files, which
``cmp`` can check.  ``compare`` prints every difference and a summary, and
exits 1 on any difference that matters: a fit present on one side only, a
different restart index, converged flag, iteration count or error, or a
log-likelihood beyond 1e-8 relative.

The corpus (90 fits, about 10 s on one core):

- 60x60 networks, seeds 0-29, ``restarts=1``;
- table1-like 20x20 networks, sigma_w 0.15 and 1.5, pair-term-only and
  full-compatibility edge means, seeds 0-9, ``restarts=4``;
- networks extracted from the pipeline's Cox fit (CLI defaults), seeds 0-9,
  ``restarts=1``;
- 30x25 networks at dims 1 and 3, seeds 0-4, ``restarts=1``.
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

LL_RTOL = 1e-8
EXACT = ("restart_index", "converged", "iterations", "error")


def corpus():
    """Yield ``(fit id, network, FitConfig)`` for each fit of the corpus."""
    from netlsm.model import FitConfig
    from netlsm.simulate import FULL_COMPATIBILITY, PAIR_TERM_ONLY, SimConfig, simulate
    from netlsm.survival import (
        SurvivalGenConfig,
        cox_fit,
        design_matrix,
        extract_network,
        simulate_transplants,
    )

    for seed in range(30):
        net = simulate(SimConfig(n_d=60, n_r=60, seed=seed)).observed
        yield f"60x60/s{seed}", net, FitConfig(dim=2, restarts=1, seed=seed)
    for sigma_w in (0.15, 1.5):
        for convention in (PAIR_TERM_ONLY, FULL_COMPATIBILITY):
            for seed in range(10):
                sc = SimConfig(sigma_w=sigma_w, edge_mean_convention=convention, seed=seed)
                yield (f"table1/{sigma_w}/{convention}/s{seed}", simulate(sc).observed,
                       FitConfig(dim=2, restarts=4, seed=seed))
    for seed in range(10):
        train, _, _ = simulate_transplants(SurvivalGenConfig(seed=seed))
        x, columns = design_matrix(train, 10)
        net = extract_network(cox_fit(x, train.time, train.event, 1.0, columns=columns))
        yield f"pipeline/s{seed}", net, FitConfig(dim=2, restarts=1, seed=seed)
    for dim in (1, 3):
        for seed in range(5):
            net = simulate(SimConfig(n_d=30, n_r=25, dim=dim, seed=seed)).observed
            yield f"30x25/d{dim}/s{seed}", net, FitConfig(dim=dim, restarts=1, seed=seed)


def run(src, out):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from netlsm.model import FitError, fit

    records = []
    for fit_id, net, config in corpus():
        start = time.perf_counter()
        try:
            res = fit(net, config)
        except FitError as exc:
            record = {"error": str(exc)}
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
        seconds = time.perf_counter() - start
        print(f"{fit_id}: {json.dumps(record, sort_keys=True)} ({seconds:.3f} s)", flush=True)
    Path(out).write_text(json.dumps({"src": str(src), "fits": records}, indent=1) + "\n")
    return 0


def compare(path_a, path_b):
    """Print the differences between two record files; 1 if any matters, else 0."""
    a, b = ({r["id"]: r for r in json.loads(Path(p).read_text())["fits"]}
            for p in (path_a, path_b))
    bad = [f"{i}: only in {path_a}" for i in a if i not in b]
    bad += [f"{i}: only in {path_b}" for i in b if i not in a]
    same_ll, max_rel = 0, 0.0
    for fit_id in (i for i in a if i in b):
        ra, rb = a[fit_id], b[fit_id]
        for key in EXACT:
            if ra.get(key) != rb.get(key):
                bad.append(f"{fit_id}: {key} {ra.get(key)!r} -> {rb.get(key)!r}")
        if "error" in ra or "error" in rb:
            continue
        lla, llb = ra["log_likelihood"], rb["log_likelihood"]
        same_ll += lla == llb
        rel = abs(lla - llb) / max(abs(lla), abs(llb), 1e-300)
        if not rel <= LL_RTOL:
            bad.append(f"{fit_id}: log_likelihood {lla!r} -> {llb!r} (relative {rel:.3g})")
        if not math.isnan(rel):
            max_rel = max(max_rel, rel)
    for line in bad:
        print(line)
    both = sum(1 for i in a if i in b)
    print(f"{both} paired fits: {same_ll} with equal ll, max relative |dll| {max_rel:.3g}; "
          f"{len(bad)} difference(s)")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="fit the corpus and write its records")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--src", default=Path(__file__).resolve().parent.parent / "src")
    p_cmp = sub.add_parser("compare", help="compare two record files")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run(args.src, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
