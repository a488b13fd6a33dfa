"""Outside-in tracing of the ksenergy layers.

`Tracer.install()` replaces the package's public entry points with wrappers
that record one span per call: (id, parent id, name, thread, start, end,
work, tag). Only names the package looks up at call time are wrapped (class
methods and module-level names), so the package itself is unchanged.

Work is a count (distance pairs, snapped rows, map points, report bytes,
threads used by `run_chunked`), or the h index j for `ks.density`
(h = h0 / 2^j). The tag says which part of a route a span ran in: "scan"
(directional prefix scan), "climb" (refinement) or "ks" (ball average).

Each thread keeps its own span stack; chunks that `run_chunked` hands to
worker threads take the `run_chunked` span as parent. Spans stay in memory
until `layer_metrics` folds them into the per-layer metrics.
"""

import itertools
import math
import os
import threading
import time
from collections import defaultdict

import ksenergy.cli
import ksenergy.directional
import ksenergy.grid
import ksenergy.ks
import ksenergy.maps
import ksenergy.parallel
import ksenergy.pipeline
import ksenergy.quadrature
import ksenergy.spaces

SPACE_CLASSES = (
    ksenergy.spaces.EuclideanSpace,
    ksenergy.spaces.MaxNormPlane,
    ksenergy.spaces.CircleSpace,
    ksenergy.spaces.QPointsSpace,
)

# Spans that run their parent's own work: they do not count as children when
# the parent's self time is taken; their children are the parent's children.
TRANSPARENT = {"parallel.run_chunked", "parallel.chunk", "directional.refine_chunk"}

# counts that must repeat exactly between two traced passes (reports.bytes is
# left out because the report's timing block has a varying number of digits)
COUNT_METRICS = (
    "spaces.distance.scan_pairs",
    "spaces.distance.climb_pairs",
    "spaces.distance.ks_pairs",
    "spaces.snap.rows",
    "maps.eval.points",
    "parallel.chunks",
    "grid.inner_mask.calls",
)

_ROOT = (0, None, None)


def _rows(array_like):
    shape = getattr(array_like, "shape", None)
    return math.prod(shape[:-1]) if shape else 0


def _h_index(args, kwargs, out):
    h, cfg = args[2], args[3]
    return round(math.log2(cfg.h0 / h))


def _csv_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, tag=None, info=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; a call nested in a same-name span is not split."""
        stack = self._stack()
        top = parent or (stack[-1] if stack else _ROOT)
        if top[1] == name:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        tag = tag or top[2]
        stack.append((sid, name, tag))
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        work = info(args, kwargs, out) if info else 0
        self.spans.append((sid, top[0], name, threading.get_ident(), t0, t1, work, tag))
        return out

    def _wrap(self, name, fn, tag=None, info=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, tag, info)

        return traced

    def _wrap_run_chunked(self, run_chunked):
        tracer = self

        def dispatch(fn, n_items, workers=1, chunk=ksenergy.parallel.CHUNK):
            frame = tracer._stack()[-1]

            def traced_chunk(start, stop):
                return tracer.call("parallel.chunk", fn, (start, stop), {}, parent=frame)

            return run_chunked(traced_chunk, n_items, workers, chunk)

        def threads(args, kwargs, out):
            n_chunks = len(out)
            workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
            return min(workers, n_chunks) if workers > 1 and n_chunks > 1 else 1

        return self._wrap("parallel.run_chunked", dispatch, info=threads)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        kd = ksenergy.directional
        plan = [
            (ksenergy.cli, "main", "cli.main", None, None),
            (ksenergy.cli, "run_compare", "pipeline.run_compare", None, None),
            (ksenergy.cli, "canonical_json", "reports.json", None, lambda a, k, out: len(out.encode())),
            (ksenergy.cli, "write_csv", "reports.csv", None, _csv_bytes),
            (ksenergy.pipeline, "ks_energy", "ks.energy", None, None),
            (ksenergy.pipeline, "rep_energies", "directional.rep_energies", None, None),
            (ksenergy.pipeline, "maxnorm_counterexample_constants", "oracles.maxnorm", None, None),
            (ksenergy.ks, "approx_density_field", "ks.density", "ks", _h_index),
            (ksenergy.ks, "extrapolate_fields", "quadrature.extrapolate", None, None),
            (ksenergy.ks, "pairwise_sum", "parallel.pairwise_sum", None, None),
            (kd, "pairwise_sum", "parallel.pairwise_sum", None, None),
            (kd, "directional_field", "directional.field", "scan", None),
            (kd, "_refine_chunk", "directional.refine_chunk", "climb", None),
            (ksenergy.quadrature, "sphere_nodes", "quadrature.rules", None, None),
            (ksenergy.quadrature, "ball_nodes", "quadrature.rules", None, None),
            (ksenergy.grid.DomainGrid, "inner_mask", "grid.inner_mask", None, None),
            (ksenergy.maps.MetricMap, "eval", "maps.eval", None, lambda a, k, out: _rows(a[1])),
        ]
        for name in ("run_rep", "run_counterexample", "run_convergence"):
            plan.append((ksenergy.pipeline, name, f"pipeline.{name}", None, None))
        for cls in SPACE_CLASSES:
            for attr, span, info in (
                ("distance", "spaces.distance", lambda a, k, out: out.size),
                ("snap", "spaces.snap", lambda a, k, out: _rows(out)),
                ("dense_points", "spaces.dense_points", None),
            ):
                if attr in cls.__dict__:
                    plan.append((cls, attr, span, None, info))
        for owner, attr, span, tag, info in plan:
            self._patch(owner, attr, self._wrap(span, owner.__dict__[attr], tag, info))
        for module in (ksenergy.ks, kd):
            self._patch(module, "run_chunked", self._wrap_run_chunked(module.__dict__["run_chunked"]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans


def unit_of(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "B" if metric == "reports.bytes" else "count"


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def layer_metrics(spans):
    """Fold one pass's spans into the per-layer metrics (all keys always present)."""
    busy = defaultdict(float)
    work = defaultdict(int)
    children = defaultdict(list)
    for span in spans:
        sid, parent, name, _, t0, t1, count, tag = span
        children[parent].append(span)
        key = name
        if name == "spaces.distance":
            key = f"spaces.distance.{tag or 'other'}"
        elif name == "ks.density":
            busy[f"ks.density.h{count}_s"] += t1 - t0
        busy[key] += t1 - t0
        work[key] += count
        work[name + "#calls"] += 1

    def effective_children(sid):
        for child in children[sid]:
            if child[2] in TRANSPARENT:
                yield from effective_children(child[0])
            else:
                yield child

    def self_time(name):
        total = 0.0
        for sid, _, n, _, t0, t1, _, _ in spans:
            if n == name:
                total += (t1 - t0) - _covered((c[4], c[5]) for c in effective_children(sid))
        return total

    pipeline_self = sum(self_time(f"pipeline.{n}") for n in ("run_compare", "run_rep", "run_counterexample", "run_convergence"))
    thread_time = sum((t1 - t0) * count for _, _, n, _, t0, t1, count, _ in spans if n == "parallel.run_chunked")
    metrics = {
        "spaces.distance.scan_s": busy["spaces.distance.scan"],
        "spaces.distance.scan_pairs": work["spaces.distance.scan"],
        "spaces.distance.climb_s": busy["spaces.distance.climb"],
        "spaces.distance.climb_pairs": work["spaces.distance.climb"],
        "spaces.distance.ks_s": busy["spaces.distance.ks"],
        "spaces.distance.ks_pairs": work["spaces.distance.ks"],
        "spaces.snap.s": busy["spaces.snap"],
        "spaces.snap.rows": work["spaces.snap"],
        "spaces.dense_points_s": busy["spaces.dense_points"],
        "maps.eval.s": busy["maps.eval"],
        "maps.eval.points": work["maps.eval"],
        "ks.energy_s": busy["ks.energy"],
        **{f"ks.density.h{j}_s": busy[f"ks.density.h{j}_s"] for j in range(1, 7)},
        "ks.self_s": self_time("ks.density"),
        "directional.rep_energies_s": busy["directional.rep_energies"],
        "directional.field_s": busy["directional.field"],
        "directional.self_s": self_time("directional.field"),
        "quadrature.extrapolate_s": busy["quadrature.extrapolate"],
        "quadrature.rules_s": busy["quadrature.rules"],
        "parallel.chunks": work["parallel.chunk#calls"],
        "parallel.busy_ratio": busy["parallel.chunk"] / thread_time if thread_time else 0.0,
        "parallel.pairwise_sum_s": busy["parallel.pairwise_sum"],
        "grid.inner_mask.calls": work["grid.inner_mask#calls"],
        "grid.inner_mask_s": busy["grid.inner_mask"],
        "pipeline.self_s": pipeline_self,
        "reports.json_s": busy["reports.json"],
        "reports.csv_s": busy["reports.csv"],
        "reports.bytes": work["reports.json"] + work["reports.csv"],
        "cli.self_s": self_time("cli.main"),
        "oracles.maxnorm_s": busy["oracles.maxnorm"],
    }
    return metrics
