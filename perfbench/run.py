"""netlsm benchmark: closed-loop workloads driven through ``netlsm.cli.main``.

One caller in one process runs operations back to back for ``--seconds``
(and at least the workload's ``min_ops``), checks every operation's
artifacts, and prints a JSON record line (every sample, error and the
environment) followed by the JSON result line::

    python3 perfbench/run.py --workload fit_large --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # tiny sizes, every workload, both modes

``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace 1``
runs each operation twice, untraced then traced with timing wrappers around
module-level functions of netlsm, and reports per-layer metrics per operation
plus the tracing overhead.  The exit code is non-zero when an output check
fails or when the checkout holds no ``src/netlsm``.
"""

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()

import tracer  # noqa: E402  (stdlib only, safe before the thread pinning)
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
# One caller on one core: more BLAS threads would only add timing noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# reference_s() on the 2-vCPU machine the baseline was measured on, rounded.
# setup_s is the set-up time in reference units times this: seconds at that
# machine's speed.
REF_S = 0.01
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_ref_p50": "ref",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in tracer.SPAN_NAMES:
        units.update({f"{name}.calls": "calls/op", f"{name}.s": "s/op",
                      f"{name}.self_s": "s/op"})
    units.update({name: "iter/op" for name in tracer.EXTRA_COUNTERS})
    units.update({f"{module}.self_s": "s/op" for module in tracer.MODULES})
    units.update({"trace.overhead_frac": "fraction", "trace.op_s": "s",
                  "trace.spans": "spans/op", "trace.counter_mismatches": "count"})
    units.update({f"quality.{name}": unit for name, unit in workloads.QUALITY.items()})
    return units


def pin_threads():
    """Set one BLAS/OpenMP thread before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_netlsm():
    """Import netlsm from this checkout's src/, never from an installed copy."""
    init = os.path.join(SRC, "netlsm", "__init__.py")
    if not os.path.isfile(init):
        raise FileNotFoundError(f"no netlsm sources at {init}")
    sys.path.insert(0, SRC)
    import netlsm.cli

    if os.path.abspath(netlsm.cli.__file__) != os.path.join(SRC, "netlsm", "cli.py"):
        raise ImportError(f"netlsm imported from {netlsm.cli.__file__}, not {SRC}")
    return netlsm.cli


def git_commit():
    # only this checkout's own repository, never one that encloses it
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def reference_s(reps=3):
    """Median time of a fixed kernel that does not use netlsm.

    The machine's speed drifts by a third within seconds when other tenants
    load it, so each operation's time is also reported in units of this
    kernel, timed right before and after the operation.
    """
    import numpy

    m0 = numpy.linspace(-1.0, 1.0, 3600).reshape(60, 60)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100000):  # interpreter work, like per-evaluation overhead
            acc += i * 0.5
        m = m0
        for _ in range(100):  # BLAS and ufunc work, like the model's numpy code
            m = numpy.tanh(m @ m0 / 60.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """One workload run: set-up, warm-up and the timed closed loop."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer.Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.refs = []  # reference_s() before each operation and after the last
        self.setup_ref = []  # each set-up's time in reference units

    def attempt(self, what, argv_for, traced=False, op_id=None):
        """Run one operation with command line ``argv_for(out)``; returns
        (seconds, scores or None)."""
        out = os.path.join(self.work, "traced" if traced else "op")
        shutil.rmtree(out, ignore_errors=True)
        argv = argv_for(out)
        self.attempted += 1
        if traced:
            self.tracer.op = op_id
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except (Exception, SystemExit):  # noqa: BLE001 - an operation failure
            rc = traceback.format_exc()
        dt = time.perf_counter() - t0
        if traced and self.tracer.restore():
            rc = "wrappers not restored"
        # exit code 1 means "not all fits converged": scored, not failed
        if rc not in (0, 1):
            return dt, self.fail(f"{what}: {' '.join(argv)} -> {rc}")
        try:
            return dt, self.wl.check(out)
        except (workloads.OutputError, KeyError, TypeError, ValueError) as exc:
            return dt, self.fail(f"{what}: {type(exc).__name__}: {exc}")

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def same_artifacts(self, k):
        for name in self.wl.artifacts:
            paths = [os.path.join(self.work, d, name) for d in ("op", "traced")]
            blobs = []
            for path in paths:
                with open(path, "rb") as f:
                    blobs.append(f.read())
            if blobs[0] != blobs[1]:
                self.fail(f"op {k}: traced {name} differs from untraced")
                return False
        return True

    def setup(self, traced):
        """Input generation plus the warm-up operation, ``SETUP_REPS`` times.

        The warm-up runs on the same inputs in every run, so each set-up does
        the same work; returns the median set-up time in reference units.
        """
        for rep in range(SETUP_REPS):
            before = reference_s()
            t0 = time.perf_counter()
            self.wl.setup(self.cli.main, self.work, self.seed)
            self.attempt("warm-up", self.wl.warmup_argv, traced=traced, op_id=f"warmup{rep}")
            dt = time.perf_counter() - t0
            self.setup_ref.append(dt / (0.5 * (before + reference_s())))
        return statistics.median(self.setup_ref)

    def loop(self, seconds, traced):
        """Closed loop; returns (untraced times, traced times, scores by op)."""
        times, traced_times, scores = [], [], {}
        start = time.perf_counter()
        k = 0
        while k < self.wl.min_ops or time.perf_counter() - start < seconds:
            self.refs.append(reference_s())
            argv_for = functools.partial(self.wl.argv, self.seed + k)
            dt, score = self.attempt(f"op {k}", argv_for)
            times.append(dt)
            if traced:
                dt_traced, score_traced = self.attempt(f"op {k}", argv_for, traced=True, op_id=k)
                traced_times.append(dt_traced)
                if score is not None and (score_traced is None or not self.same_artifacts(k)):
                    score = None
            if score is not None:
                scores[k] = score
            k += 1
        self.refs.append(reference_s())
        return times, traced_times, scores

    def quality(self, scores):
        """Quality metrics over the passing ones of the first ``min_ops`` operations."""
        return workloads.quality([scores[k] for k in range(self.wl.min_ops) if k in scores])

    def end_to_end(self, setup_ref, times, scores):
        # each operation's time in units of the reference kernel around it
        ref = [dt / (0.5 * (before + after))
               for dt, before, after in zip(times, self.refs, self.refs[1:])]
        return {
            "setup_s": REF_S * setup_ref,
            "ops_per_kref": 1000.0 * len(scores) / sum(ref),
            "op_ref_p50": statistics.median(ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    @staticmethod
    def wall(times, scores):
        """Wall-clock throughput and median, reported but not bounded."""
        return {"ops_per_s": len(scores) / sum(times), "op_s_p50": statistics.median(times),
                "samples": len(times)}

    def per_layer(self, times, traced_times, scores):
        ops = range(len(traced_times))
        n = len(traced_times)
        per_name, per_module = tracer.aggregate(self.tracer.spans, ops)
        metrics = {}
        for name, rec in per_name.items():
            metrics[f"{name}.calls"] = rec["calls"] / n
            metrics[f"{name}.s"] = rec["s"] / n
            metrics[f"{name}.self_s"] = rec["self_s"] / n
        for counter in tracer.EXTRA_COUNTERS:
            metrics[counter] = per_name[counter.rsplit(".", 1)[0]]["extra"] / n
        for module, self_s in per_module.items():
            metrics[f"{module}.self_s"] = self_s / n
        # the warm-ups repeat one operation, so their exact counters must agree
        warm = [tracer.counters(self.tracer.spans, f"warmup{rep}") for rep in range(SETUP_REPS)]
        mismatches = sorted(key for key in set().union(*warm)
                            if len({w.get(key) for w in warm}) > 1)
        if mismatches:
            self.errors.append(f"exact counters differ between warm-ups: {mismatches}")
        metrics.update({
            "trace.overhead_frac": 1.0 - sum(times) / sum(traced_times),
            "trace.op_s": statistics.median(traced_times),
            "trace.spans": sum(1 for s in self.tracer.spans if s[4] in ops) / n,
            "trace.counter_mismatches": float(len(mismatches)),
        })
        metrics.update({f"quality.{k}": v for k, v in self.quality(scores).items()})
        return metrics

    def op_counters(self):
        """Exact counters of the first ``min_ops`` traced operations, which
        must repeat in every traced run with this workload seed."""
        return {str(k): tracer.counters(self.tracer.spans, k) for k in range(self.wl.min_ops)}


def run_workload(cli, workload, seed, seconds, traced, import_ref=0.0):
    work = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(cli, workload, seed, work)
    try:
        setup_ref = import_ref + run.setup(traced)
        times, traced_times, scores = run.loop(seconds, traced)
        if traced:
            metrics = run.per_layer(times, traced_times, scores)
            units = per_layer_units()
        else:
            metrics = run.end_to_end(setup_ref, times, scores)
            units = END_TO_END
        record = {
            "workload": workload.name, "trace": int(traced), "ops": len(times),
            "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
            "quality": run.quality(scores), "wall": run.wall(times, scores),
            "counters": run.op_counters() if traced else {},
            "import_ref": import_ref, "setup_ref": run.setup_ref,
            "op_s": times, "traced_op_s": traced_times, "ref_s": run.refs,
            "metrics": metrics,
        }
        if traced:
            spans_path = os.path.join(WORK, f"{workload.name}-seed{seed}.spans.jsonl")
            with open(spans_path, "w", encoding="utf-8") as f:
                for span in run.tracer.spans:
                    f.write(json.dumps(span) + "\n")
        return record, units
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, every workload, traced and untraced")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def smoke(cli, seed):
    """Every workload at tiny sizes in both modes; True if all checks pass."""
    ok = True
    for cls in workloads.WORKLOADS.values():
        for traced in (False, True):
            wl = cls(smoke=True)
            wl.min_ops = 1
            record, units = run_workload(cli, wl, seed, 0.0, traced)
            missing = sorted(set(units) - set(record["metrics"]))
            passed = not record["errors"] and not missing
            ok = ok and passed
            print(json.dumps({"workload": wl.name, "trace": int(traced),
                              "passed": passed, "errors": record["errors"],
                              "missing_metrics": missing}))
    return ok


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        cli = import_netlsm()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_ref = (time.perf_counter() - T_START) / reference_s()
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return 0 if smoke(cli, args.seed) else 1
    workload = workloads.WORKLOADS[args.workload]()
    record, units = run_workload(cli, workload, args.seed, args.seconds,
                                 bool(args.trace), import_ref)
    record["env"] = environment(args.seed)
    record["env"]["run_seconds"] = args.seconds
    correct = not record["errors"]
    path = os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for line in record["errors"]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("op_s", "traced_op_s", "ref_s")}))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
