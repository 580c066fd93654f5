"""Paired artifact comparison: one fixed set of CLI runs, on two checkouts.

A change meant to keep the program's outputs must leave every artifact of
these runs byte-identical:

    python tools/paired_artifacts.py run --src PARENT/src --out parent/
    python tools/paired_artifacts.py run --out change/
    python tools/paired_artifacts.py compare parent/ change/

``run`` calls ``netlsm.cli.main`` from the netlsm under ``--src`` (default:
the ``src/`` of the checkout holding this file), with BLAS threads pinned to
1, for each command of the acceptance test's determinism criterion (all
seven commands, at its fixed seeds) and for ``pipeline --seeds 2`` and
``table1 --reps 2`` at the CLI defaults: two seeds, four restarts, and each
seed's four blocks fit in one lockstep.  Each run writes into its own
subdirectory of ``--out``, and the paths it is given are relative to
``--out``, so that the manifests of two runs hold the same config.  ``exit_codes.json`` records each exit code.

``compare`` walks both directories and prints every difference and a
summary; it exits 1 on any difference.  Files other than ``manifest.json``
must be byte-identical.  A manifest must hold the same JSON apart from
``duration_s`` and ``out``; a config key present on one side only is
reported by name.
"""

import argparse
import json
import os
import sys
from pathlib import Path

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
    ("pipeline", ["pipeline", "--seeds", "1", "--n", "1000", "--min-count", "5",
                  "--restarts", "0"]),
    ("pipeline-defaults", ["pipeline", "--seeds", "2"]),
    ("table1-defaults", ["table1", "--reps", "2"]),
)
IGNORED = ("duration_s", "out")


def run(src, out):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(src).resolve()))
    from netlsm.cli import main

    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    codes = {}
    for name, argv in COMMANDS:
        codes[name] = main(argv + ["--out", name, "--allow-nonconverged"])
        print(f"{name}: exit {codes[name]}", flush=True)
    Path("exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    return 0


def _files(root):
    return {p.relative_to(root).as_posix() for p in Path(root).rglob("*") if p.is_file()}


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
    bad = [f"{f}: only in {dir_a}" for f in sorted(files_a - files_b)]
    bad += [f"{f}: only in {dir_b}" for f in sorted(files_b - files_a)]
    both = sorted(files_a & files_b)
    for rel in both:
        a, b = Path(dir_a, rel), Path(dir_b, rel)
        if Path(rel).name == "manifest.json":
            bad += _manifest_differences(rel, a, b)
        elif a.read_bytes() != b.read_bytes():
            bad.append(f"{rel}: bytes differ")
    for line in bad:
        print(line)
    print(f"{len(both)} paired files; {len(bad)} difference(s)")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run the command set and write its artifacts")
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
