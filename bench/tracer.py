"""Spans and counts at the library's module boundaries, for the traced run.

The tracer replaces public functions with timing wrappers in the namespace
of each calling module, under the name that module looks up, and puts the
originals back afterwards.  Nothing in the library changes.  A span records
its name, start, end, parent span and request; each layer's self time is
its spans' durations minus the time their child spans cover.  Everything is
kept in memory and written out once the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

MODULES = ("cli", "judge", "metrics", "model", "search", "strategies")

# (calling module, names it looks up).  "bench" is the benchmark itself,
# which calls through the package namespace.
BOUNDARIES = (
    ("bench", ("build_triple_case", "verify_proof", "classify_privacy", "revealing_metrics",
               "minimax_distribution", "search_discreet", "check_odd_t_itineraries")),
    ("cli", ("main", "verify_proof", "classify_privacy", "consistent_assignments",
             "best_single_guess", "minimax_distribution", "revealing_metrics",
             "plan_from_json", "simulate_transcript", "transcript_from_json",
             "search_discreet", "build_equal_piles")),
    ("judge", ("validate_plan", "partition_by_itinerary", "count_consistent",
               "consistent_count_vectors")),
    ("model", ("validate_plan",)),
    ("search", ("consistent_count_vectors", "consistent_assignments",
                "partition_by_itinerary", "all_discreet_profiles")),
    ("strategies", ("simulate_transcript",)),
)

# Search entry points whose (f, d) tell a node (a size-f count) from a
# d-check (a size-d count).
_SEARCH_ENTRIES = {"search.search_discreet", "search.all_discreet_profiles"}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records spans for one traced pass at a time."""

    def __init__(self, lib):
        self.modules = {m: importlib.import_module(f"{lib.__name__}.{m}") for m in MODULES}
        self.modules["bench"] = lib
        self.spans = []  # (id, parent, request, name, start_ns, end_ns, self_ns)
        self.counts = Counter()
        self.classes = {}  # plan -> itinerary classes
        self.request = None
        self._stack = []  # [span id, start_ns, child_ns, (f, d) or None]
        self._next_id = 0

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()  # the wrappers hold these two
        self.classes.clear()

    def _wrap(self, fn, caller: str):
        name = span_name(fn)
        count = self._counter(name, caller)
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            search_fd = (args[1], args[2]) if name in _SEARCH_ENTRIES else None
            frame = [span_id, time.perf_counter_ns(), 0, search_fd]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self.spans.append((span_id, parent[0] if parent else None, self.request,
                                   name, frame[1], end, duration - frame[2]))
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, caller: str):
        """The counts recorded where `caller` calls `name`, if any."""
        counts = self.counts
        if name == "judge.consistent_count_vectors":
            def count(args, result):
                counts["vectors"] += len(result)
                counts["vector_hits"] += bool(result)
                if caller == "search":
                    f, d = self._search_fd()
                    counts["search_nodes" if args[3] == f else "search_d_checks"] += 1
            return count
        if name == "judge.consistent_assignments":
            def count(args, result):
                counts["survivors"] += len(result)
            return count
        if name == "metrics.best_single_guess":
            def count(args, result):
                counts["guess_sets"] += len(args[0])
            return count
        if name == "model.partition_by_itinerary":
            def count(args, result):
                self.classes[args[0]] = len(result)
            return count
        return None

    def _search_fd(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None, None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        for caller, names in BOUNDARIES:
            namespace = self.modules[caller]
            for attr in names:
                fn = getattr(namespace, attr, None)
                if callable(fn):
                    saved.append((namespace, attr, fn))
                    setattr(namespace, attr, self._wrap(fn, caller))
        strategies = self.modules["strategies"]
        builders = getattr(strategies, "BUILDERS", {})
        saved_builders = dict(builders)
        for key, fn in saved_builders.items():
            builders[key] = self._wrap(fn, "cli")
        bundle = getattr(strategies, "StrategyBundle", None)
        if bundle is not None:
            saved.append((bundle, "transcript", bundle.transcript))
            bundle.transcript = self._wrap(bundle.transcript, "strategies")
        try:
            yield self
        finally:
            for namespace, attr, fn in reversed(saved):
                setattr(namespace, attr, fn)
            builders.update(saved_builders)


def layer_metrics(spans, counts, classes, requests: int) -> dict:
    """Per-layer figures for one traced pass of `requests` requests."""
    self_ns = defaultdict(int)
    calls = Counter()
    names = {}
    for span_id, _parent, _request, name, _start, _end, own in spans:
        self_ns[name] += own
        calls[name] += 1
        names[span_id] = name
    search_ns = 0
    strategies_ns = 0
    for span_id, parent, _request, name, start, end, _own in spans:
        parent_name = names.get(parent, "")
        if name.startswith("search.") and not parent_name.startswith("search."):
            search_ns += end - start
        if name.startswith("strategies.") and not parent_name.startswith("strategies."):
            strategies_ns += end - start

    def ms(*span_names):
        return sum(self_ns[n] for n in span_names) / 1e6

    def layer_ms(layer):
        return sum(v for n, v in self_ns.items() if n.startswith(layer + ".")) / 1e6

    vector_calls = calls["judge.consistent_count_vectors"]
    plan_classes = list(classes.values())
    return {
        "cli.self_ms": ms("cli.main"),
        "cli.requests": calls["cli.main"],
        "model.self_ms": layer_ms("model"),
        "model.validate_calls": calls["model.validate_plan"] / requests,
        "model.partition_calls": calls["model.partition_by_itinerary"] / requests,
        "model.classes_mean": sum(plan_classes) / len(plan_classes) if plan_classes else 0,
        "model.classes_max": max(plan_classes, default=0),
        "judge.count_ms": ms("judge.count_consistent", "judge.consistent_count_vectors"),
        "judge.count_calls": calls["judge.count_consistent"],
        "judge.vector_calls": vector_calls,
        "judge.vectors": counts["vectors"],
        "judge.vector_hit_ratio": counts["vector_hits"] / vector_calls if vector_calls else 0,
        "judge.privacy_ms": ms("judge.classify_privacy"),
        "judge.verify_ms": ms("judge.verify_proof"),
        "judge.assign_ms": ms("judge.consistent_assignments"),
        "judge.survivors": counts["survivors"],
        "metrics.guess_ms": ms("metrics.best_single_guess"),
        "metrics.guess_sets": counts["guess_sets"],
        "metrics.minimax_ms": ms("metrics.minimax_distribution"),
        "strategies.build_ms": strategies_ns / 1e6,
        "search.self_ms": layer_ms("search"),
        "search.nodes": counts["search_nodes"],
        "search.d_checks": counts["search_d_checks"],
        "search.nodes_per_s": counts["search_nodes"] / (search_ns / 1e9) if search_ns else 0,
    }


# Units of every per-layer figure, in the order they are reported.
LAYER_UNITS = {
    "cli.self_ms": "ms",
    "cli.requests": "count",
    "model.self_ms": "ms",
    "model.validate_calls": "count/req",
    "model.partition_calls": "count/req",
    "model.classes_mean": "count",
    "model.classes_max": "count",
    "judge.count_ms": "ms",
    "judge.count_calls": "count",
    "judge.vector_calls": "count",
    "judge.vectors": "count",
    "judge.vector_hit_ratio": "ratio",
    "judge.privacy_ms": "ms",
    "judge.verify_ms": "ms",
    "judge.assign_ms": "ms",
    "judge.survivors": "count",
    "metrics.guess_ms": "ms",
    "metrics.guess_sets": "count",
    "metrics.minimax_ms": "ms",
    "strategies.build_ms": "ms",
    "search.self_ms": "ms",
    "search.nodes": "count",
    "search.d_checks": "count",
    "search.nodes_per_s": "1/s",
}
