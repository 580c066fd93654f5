"""In-memory span tracer that rebinds module-level functions of ``netlsm``.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces each target
function with a timing wrapper everywhere a ``netlsm`` module holds a
reference to it (names imported by value are bound once per importing module,
and ``cli._RUNNERS`` holds the runners in a dict), and :meth:`Tracer.restore`
puts every original back.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module that calls the function, attribute name, optional extra counter).
# The metric name is "<module>.<attribute>"; a function imported by value is
# named after the module that calls it (``model.minimize``, ``model.mds_init``).
TARGETS = (
    ("cli", "main", None),
    ("cli", "run_fit", None),
    ("cli", "run_pipeline", None),
    ("cli", "run_table1", None),
    ("network", "load_network", None),
    ("metrics", "evaluate_refinement", None),
    ("model", "fit", None),
    ("model", "minimize", ("nit", lambda res: res.nit)),
    ("model", "log_likelihood", None),
    ("model", "log_likelihood_gradient", None),
    ("model", "_polish", None),
    ("model", "mds_init", None),
    ("model", "refine_network", None),
    ("mdsinit", "build_dissimilarity", None),
    ("mdsinit", "classical_mds", None),
    ("simulate", "simulate", None),
    ("simulate", "run_replicates", None),
    ("procrustes", "procrustes_align", None),
    ("baselines", "nmtf_refine", ("iterations", lambda res: res.iterations)),
    ("baselines", "pca_refine", None),
    ("survival", "simulate_transplants", None),
    ("survival", "design_matrix", None),
    ("survival", "build_design", None),
    ("survival", "cox_fit", None),
    ("survival", "_risk_set_stats", None),
    ("survival", "c_index", None),
    ("survival", "extract_network", None),
    ("survival", "substitute_coefficients", None),
    ("survival", "pipeline_end_to_end", None),
)

MODULES = ("cli", "network", "metrics", "model", "mdsinit", "simulate",
           "procrustes", "baselines", "survival")

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)
EXTRA_COUNTERS = tuple(f"{mod}.{attr}.{extra[0]}" for mod, attr, extra in TARGETS if extra)


def _package_module(short):
    # ``netlsm.simulate`` as a package attribute is the re-exported function,
    # so modules are always taken from sys.modules.
    name = f"netlsm.{short}"
    importlib.import_module(name)
    return sys.modules[name]


class Tracer:
    """Records spans (name, start, end, parent span, operation id) in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, extra count]
        self.op = None
        self._stack = []
        self._bindings = []  # (namespace or dict, key, original) per reference

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack
        count = extra[1] if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = count(res) if count is not None and res is not None else 0
                spans[idx] = (name, t0, t1, parent, self.op, n)

        return wrapper

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        holders = [m for k, m in sorted(sys.modules.items())
                   if (k == "netlsm" or k.startswith("netlsm.")) and m is not None]
        for short, attr, extra in TARGETS:
            original = getattr(_package_module(short), attr)
            wrapper = self._wrap(f"{short}.{attr}", original, extra)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._bindings.append((vars(holder), key, original))
                    elif isinstance(value, dict):
                        self._bindings.extend((value, dkey, original)
                                              for dkey, dvalue in value.items()
                                              if dvalue is original)
            for container, key, orig in self._bindings:
                if orig is original:
                    container[key] = wrapper

    def restore(self):
        """Put every original back; returns how many references still differ."""
        for container, key, original in reversed(self._bindings):
            container[key] = original
        unrestored = sum(container[key] is not original
                         for container, key, original in self._bindings)
        self._bindings = []
        return unrestored


def aggregate(spans, ops):
    """Per-name totals over the spans of the given operation ids.

    Returns {name: {"calls", "s", "self_s", "extra"}} plus per-module self
    time; self time is a span's duration minus that of its direct children.
    """
    ops = set(ops)
    child = defaultdict(float)
    for name, t0, t1, parent, op, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    per_name = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0} for n in SPAN_NAMES}
    per_module = {m: 0.0 for m in MODULES}
    for idx, (name, t0, t1, parent, op, extra) in enumerate(spans):
        if op not in ops:
            continue
        rec = per_name[name]
        self_s = (t1 - t0) - child[idx]
        rec["calls"] += 1
        rec["extra"] += extra
        rec["self_s"] += self_s
        per_module[name.split(".", 1)[0]] += self_s
        rec["s"] += t1 - t0
    return per_name, per_module


def counters(spans, op):
    """Exact counts for one operation: calls per name and extra counters."""
    out = defaultdict(int)
    for name, _, _, _, span_op, extra in spans:
        if span_op == op:
            out[f"{name}.calls"] += 1
            if extra:
                out[f"{name}.extra"] += extra
    return dict(out)
