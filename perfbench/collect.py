"""Run the benchmark over several seeds and summarise each metric.

For every workload and seed this starts ``run.py`` once (sequentially, one
process at a time), keeps the result line, and reports per metric the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread ``(q3 - q1) / median``::

    python3 perfbench/collect.py --seeds 0-9 --trace 0 --out .perfbench_run/set1.json
    python3 perfbench/collect.py --seeds 0-9 --trace 0 --compare .perfbench_run/set1.json

Each spread is flagged against its bound in BENCHMARK.json: "ok" below a
third of it, "WIDE" below it, "FAIL" above it.  ``--compare`` checks this set
against an earlier summary of the same code: every bounded median may be
worse by at most its bound, and for each seed the two sets share, the quality
metrics and the traced runs' exact counters must be identical.  The exit code
is 1 when an output check, a bound or a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def worse_by(old, new, better):
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (new - old) / old if better == "lower" else (old - new) / old


def compare(old, new, bench):
    """Failures of ``new`` against the earlier summary ``old``."""
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    failures = []
    for workload in sorted(old.keys() & new.keys()):
        o, n = old[workload], new[workload]
        for name, s in n["metrics"].items():
            if name in better and name in o["metrics"]:
                direction, bound = better[name]
                worse = worse_by(o["metrics"][name]["median"], s["median"], direction)
                if worse > bound:
                    failures.append(f"{workload} {name}: median {worse:.1%} worse "
                                    f"than before (bound {bound:.0%})")
        for seed in sorted(o["per_seed"].keys() & n["per_seed"].keys()):
            for part in ("quality", "counters"):
                if o["per_seed"][seed][part] != n["per_seed"][seed][part]:
                    failures.append(f"{workload} seed {seed}: {part} differ")
    return failures


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    p.add_argument("--compare", default=None, help="an earlier summary of the same code")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    failed = False
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        if not all(result["correct"] for result, _ in runs):
            print(f"{workload}: an output check failed", file=sys.stderr)
            return 1
        names = runs[0][0]["metrics"]
        summary[workload] = {
            "seeds": args.seeds,
            "env": runs[0][1]["env"],
            "quality": {q: summarise([rec["quality"][q] for _, rec in runs])
                        for q in runs[0][1]["quality"]},
            "wall": {w: summarise([rec["wall"][w] for _, rec in runs])
                     for w in ("ops_per_s", "op_s_p50")},
            "metrics": {n: dict(summarise([r["metrics"][n]["value"] for r, _ in runs]),
                             unit=names[n]["unit"]) for n in names},
            # keyed by str(seed), as after a round trip through JSON
            "per_seed": {str(seed): {"quality": rec["quality"], "counters": rec["counters"]}
                         for seed, (_, rec) in zip(args.seeds, runs)},
        }
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                spread = s["spread"] if s["spread"] is not None else float("inf")
                flag = "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "FAIL"
                failed = failed or flag == "FAIL"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:10s} {name:45s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            failures = compare(json.load(f), summary, bench)
        for line in failures:
            print(f"compare: {line}", file=sys.stderr)
        print(f"compare with {args.compare}: {'FAIL' if failures else 'ok'}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
