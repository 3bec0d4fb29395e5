"""In-memory span tracer wrapped around the program's layer entry points.

The traced run of the benchmark needs per-layer time and work without
editing the program. :class:`SpanTracer` wraps functions *where their
caller looks them up* (a module global such as
``repro.core.cluster_and_conquer.merge_partials``, or a method on the
class its instances resolve it from), records one span per call —
name, start, end, the span that caused it and the client request it
belongs to — and restores every original on :meth:`SpanTracer.restore`.

Spans stay in memory; :meth:`SpanTracer.summary` turns them into
inclusive and self times per span name once the round is over. A
layer's self time is its span's duration minus the time its direct
child spans cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

__all__ = ["SpanTracer", "install_layer_spans", "SPAN_METRICS", "COUNTER_METRICS"]


class SpanTracer:
    """Records nested spans around wrapped calls while :attr:`active`.

    ``counts`` accumulates work counters noted by the wrappers (items
    scored, edges merged, ...); ``maxima`` keeps per-round maxima.
    """

    def __init__(self) -> None:
        self.active = False
        self.request = 0
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Suspend recording (oracles, probes and checks run here)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def reset(self) -> None:
        """Forget every span and counter (start of a traced round)."""
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self._stack.clear()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, before=None, note=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable of the call's
        positional arguments returning it. ``before(args)`` runs ahead
        of the call and its value reaches ``note(tracer, args, result,
        pre)``, which records work counters after the call. Both run
        only while the tracer is active.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            pre = before(args) if before is not None else None
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                note(tracer, args, result, pre)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """``{span name: {"s", "self_s", "calls"}}`` over closed spans."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _req in self.spans:
            if end is not None and parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for idx, (name, start, end, _parent, _req) in enumerate(self.spans):
            if end is None:
                continue
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child[idx]
            row["calls"] += 1
        return dict(out)


# ----------------------------------------------------------------------
# The layer boundaries the traced run wraps
# ----------------------------------------------------------------------

# Span name -> (metric for inclusive seconds, metric for call count).
# Every span also reports ``<span>.self_s``. ``None`` = not reported.
SPAN_METRICS: dict[str, tuple[str | None, str | None]] = {
    "core.cluster_and_conquer": ("core.cluster_and_conquer.s", None),
    "core.clustering": ("core.clustering.s", None),
    "core.local_knn": ("core.local_knn.s", "core.local_knn.calls"),
    "core.local_knn.brute": (None, "core.local_knn.brute_calls"),
    "core.local_knn.hyrec": (None, "core.local_knn.hyrec_calls"),
    "similarity.block": ("similarity.block.s", "similarity.block.calls"),
    "core.merge": ("core.merge.s", None),
    "serve.engine.search": ("serve.engine.search_s", None),
    "serve.searcher.top_k": ("serve.searcher.top_k.s", "serve.searcher.top_k.calls"),
    "online.seed_candidates": ("online.seed_candidates.s", None),
    "online.router.route": (None, "online.router.route_calls"),
    "online.router.hash_paths": ("online.router.hash_paths_s", None),
    "similarity.query_many": ("similarity.query_many.s", "similarity.query_many.calls"),
    "online.add_user": ("online.add_user.s", "online.add_user.calls"),
    "online.add_items": ("online.add_items.s", "online.add_items.calls"),
    "online.remove_user": ("online.remove_user.s", "online.remove_user.calls"),
    "similarity.one_to_many": ("similarity.one_to_many.s", None),
    "graph.rescore_user": ("graph.rescore_user.s", None),
    "graph.offer_reverse": ("graph.offer_reverse.s", None),
    "deltas.reverse_adjacency.apply": (
        "deltas.reverse_adjacency.apply_s", "deltas.reverse_adjacency.applies"),
    "deltas.result_cache.apply": (
        "deltas.result_cache.apply_s", "deltas.result_cache.applies"),
    "deltas.durable_wal.apply": (
        "deltas.durable_wal.apply_s", "deltas.durable_wal.applies"),
    "persist.wal.append": ("persist.wal.append_s", "persist.wal.records"),
    "persist.checkpoint": ("persist.checkpoint.s", None),
    "persist.snapshot.load": ("persist.snapshot.load_s", None),
    "persist.replay": ("persist.replay.s", None),
    "persist.recover": (None, None),
}


# Per-layer metrics read from work counters and program counters rather
# than from span durations.
COUNTER_METRICS: dict[str, str] = {
    "core.clustering.clusters": "count",
    "core.clustering.max_size": "count",
    "core.local_knn.evaluations": "count",
    "core.merge.edges_in": "count",
    "core.merge.edges_kept": "count",
    "core.merge.short_rows": "count",
    "serve.engine.hits": "count",
    "serve.engine.misses": "count",
    "serve.engine.hit_ratio": "ratio",
    "serve.engine.evictions": "count",
    "serve.engine.invalidations": "count",
    "serve.searcher.top_k.evaluations_per_query": "count",
    "serve.searcher.top_k.hops_per_query": "count",
    "serve.searcher.first_query_ms": "ms",
    "online.seed_candidates.seeds_per_query": "count",
    "similarity.query_many.scored": "count",
    "similarity.one_to_many.scored": "count",
    "online.update_evaluations": "count",
    "online.resplits": "count",
    "online.resplit_moved": "count",
    "online.degraded_rows": "count",
    "persist.wal.bytes": "B",
    "persist.checkpoint.count": "count",
    "persist.replay.records": "count",
    "persist.recover.evaluations": "count",
}


def span_metric_units() -> dict[str, str]:
    """Every span-derived per-layer metric name with its unit."""
    out = {}
    for span, (seconds, calls) in SPAN_METRICS.items():
        if seconds:
            out[seconds] = "s"
        if calls:
            out[calls] = "count"
        out[f"{span}.self_s"] = "s"
    return out


def _engine_count(args) -> int:
    return int(args[0].comparisons)


def _note_local_knn(tracer, args, result, before) -> None:
    tracer.counts["core.local_knn.evaluations"] += args[0].comparisons - before


def _note_clustering(tracer, args, result, _pre) -> None:
    sizes = result.sizes()
    tracer.counts["core.clustering.clusters"] += len(result.clusters)
    if sizes.size:
        tracer.maxima["core.clustering.max_size"] = max(
            tracer.maxima["core.clustering.max_size"], float(sizes.max())
        )


def _note_merge(tracer, args, result, _pre) -> None:
    from repro.graph.heap import EMPTY

    tracer.counts["core.merge.edges_in"] += sum(
        int((p.ids != EMPTY).sum()) for p in args[0]
    )
    tracer.counts["core.merge.edges_kept"] += int((result.heaps.ids != EMPTY).sum())


def _note_top_k(tracer, args, result, _pre) -> None:
    tracer.counts["serve.searcher.top_k.evaluations"] += result.evaluations
    tracer.counts["serve.searcher.top_k.hops"] += result.hops


def _note_seeds(tracer, args, result, _pre) -> None:
    seeds = result[0] if isinstance(result, tuple) else result
    tracer.counts["online.seed_candidates.seeds"] += int(seeds.size)


def _note_scored(metric):
    def note(tracer, args, result, _pre) -> None:
        tracer.counts[metric] += int(np.size(args[2]))
    return note


def install_layer_spans(tracer: SpanTracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    The delta-bus views the workloads register (reverse adjacency,
    result cache, WAL) get their ``apply`` wrapped, so each view's
    fan-out cost shows under ``deltas.<view name>.apply``.
    """
    # Modules by import path: ``repro.core`` re-exports a function under
    # the name of its defining module, which shadows attribute access.
    cc = importlib.import_module("repro.core.cluster_and_conquer")
    local_knn = importlib.import_module("repro.core.local_knn")
    online_index = importlib.import_module("repro.online.index")
    from repro.graph.knn_graph import KNNGraph
    from repro.online.router import ClusterRouter
    from repro.persist.durable import DurableIndex, _WalView
    from repro.persist.snapshot import SnapshotStore
    from repro.persist.wal import WriteAheadLog
    from repro.serve.engine import QueryEngine, _CacheView
    from repro.serve.searcher import GraphSearcher
    from repro.similarity.engine import SimilarityEngine

    w = tracer.wrap
    # Build stages (OnlineIndex looks cluster_and_conquer up in its own module).
    w(online_index, "cluster_and_conquer", "core.cluster_and_conquer")
    w(cc, "cluster_dataset", "core.clustering", note=_note_clustering)
    w(cc, "solve_cluster", "core.local_knn", before=_engine_count, note=_note_local_knn)
    w(local_knn, "brute_force_local", "core.local_knn.brute")
    w(local_knn, "hyrec_local", "core.local_knn.hyrec")
    w(cc, "merge_partials", "core.merge", note=_note_merge)
    w(SimilarityEngine, "block", "similarity.block")
    # Read path.
    w(QueryEngine, "search", "serve.engine.search")
    w(GraphSearcher, "top_k", "serve.searcher.top_k", note=_note_top_k)
    w(online_index.OnlineIndex, "seed_candidates", "online.seed_candidates",
      note=_note_seeds)
    w(ClusterRouter, "route", "online.router.route")
    w(ClusterRouter, "hash_paths", "online.router.hash_paths")
    w(SimilarityEngine, "query_many", "similarity.query_many",
      note=_note_scored("similarity.query_many.scored"))
    # Write path.
    for op in ("add_user", "add_items", "remove_user"):
        w(online_index.OnlineIndex, op, f"online.{op}")
    w(SimilarityEngine, "one_to_many", "similarity.one_to_many",
      note=_note_scored("similarity.one_to_many.scored"))
    w(KNNGraph, "rescore_user", "graph.rescore_user")
    w(KNNGraph, "offer_reverse", "graph.offer_reverse")
    for cls in (online_index._ReverseView, _CacheView, _WalView):
        w(cls, "apply", lambda args: f"deltas.{args[0].name}.apply")
    w(WriteAheadLog, "append", "persist.wal.append")
    w(DurableIndex, "checkpoint", "persist.checkpoint")
    # Recovery.
    w(SnapshotStore, "load_latest", "persist.snapshot.load")
    w(online_index.OnlineIndex, "apply_delta", "persist.replay")
