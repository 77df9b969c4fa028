"""Outside-in tracing of primalcount's public functions.

A Tracer replaces each traced function in every primalcount module
namespace that binds it (methods on their class) with a wrapper that
records one span per call: id, parent span, operation id, name, start and
end.  Spans stay in memory until the run writes them out.  Calls nest
synchronously, so a span's self time is its duration minus the durations
of its direct children.  Leaving the `with` block restores every original
binding.
"""

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _primalcount_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "primalcount" or name.startswith("primalcount.")]


class Tracer:
    def __init__(self, targets, split_buckets):
        """targets: (metric, module, attribute, ...) tuples as in spec.TRACED."""
        self.targets = targets
        self.split_buckets = split_buckets
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.counts = Counter()
        self.patched = []  # (owner, attribute, original, label)
        self._stack = []
        self._op = None
        self._next_id = 0

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        modules = _primalcount_modules()
        for metric, modname, attr, *_ in self.targets:
            owner = importlib.import_module(f"primalcount.{modname}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                bindings = [(owner, attr, f"{modname}.{cls_name}.{attr}")]
            else:
                original = getattr(owner, attr)
                bindings = [(m, key, f"{m.__name__}.{key}") for m in modules
                            for key, value in vars(m).items() if value is original]
            wrapper = self._wrap(metric, original)
            for target, key, label in bindings:
                setattr(target, key, wrapper)
                self.patched.append((target, key, original, label))
        return self

    def __exit__(self, *exc):
        for target, key, original, _ in reversed(self.patched):
            setattr(target, key, original)
        return False

    def bound_labels(self):
        """The module-qualified names this tracer patched."""
        return sorted(label for _, _, _, label in self.patched)

    # -- spans --------------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self._op, name, start, end))

    def run_op(self, op_id, fn):
        """Run one benchmark operation as a root span named "op"."""
        self._op = op_id
        span_id, parent = self._open()
        start = perf_counter()
        try:
            return fn()
        finally:
            self._close(span_id, parent, "op", start)
            self._op = None

    def _wrap(self, metric, fn):
        observe = getattr(self, "_observe_" + metric.split(".")[-1], None)
        signature = None
        if metric == "halfopen.signed_decompose":
            signature = inspect.signature(fn)  # to find and supply `stats`
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                stats = bound.arguments.get("stats")
                if stats is None:
                    stats = {}
                    bound.arguments["stats"] = stats
                args, kwargs = bound.args, bound.kwargs
                before = (len(stats.get("splits", ())), stats.get("num_cones", 0))
            span_id, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, metric, start)
            if stats is not None:
                tracer._observe_splits(stats, before)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- work counts --------------------------------------------------------

    def _observe_enumerate_vertices(self, vertices):
        self.counts["polytope.vertices"] += len(vertices)

    def _observe_halfopen_triangulate(self, pieces):
        self.counts["halfopen.pieces"] += len(pieces)

    def _observe_signed_decompose(self, result):
        self.counts["halfopen.leaves"] += len(result.terms)

    def _observe_parallelepiped_points(self, points):
        self.counts["genfun.pp_points"] += len(points)

    def _observe_chambers_max_dim(self, chambers):
        self.counts["parametric.chambers"] += len(chambers)

    def _observe_interior_point(self, point):
        self.counts["lp.interior_point.none"] += point is None

    def _observe_splits(self, stats, before):
        """Fold one signed_decompose call's additions to its stats dict."""
        n_splits, n_cones = before
        for parent_index, _ in stats.get("splits", ())[n_splits:]:
            for low, high in self.split_buckets:
                if parent_index >= low and (high is None or parent_index <= high):
                    self.counts[("split", low, high)] += 1
                    break
        self.counts["halfopen.reported_cones"] += stats.get("num_cones", 0) - n_cones
        self.counts["halfopen.max_depth"] = max(self.counts["halfopen.max_depth"],
                                                stats.get("max_depth", 0))

    # -- summaries ----------------------------------------------------------

    def calls_and_self_time(self, factors=None):
        """{name: (calls, self seconds)} over all recorded spans.

        factors maps an operation id to the factor that scales its spans'
        times, e.g. to a reference host speed; missing ids scale by 1.
        """
        factors = factors or {}
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for span_id, _, op, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += ((end - start) - child_time[span_id]) * factors.get(op, 1.0)
        return {name: tuple(v) for name, v in out.items()}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
