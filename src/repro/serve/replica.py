"""Replica indexes fed by journal-delta shipping.

A :class:`~repro.serve.QueryEngine` walks **one shared graph** under
the index's readers-writer lock, so every mutation stalls every walk.
The replica tier serves walks from copies instead:

* each replica is a full :meth:`~repro.online.OnlineIndex.clone` of
  the primary — its own profiles, fingerprints, routing tables, graph
  heaps and :class:`~repro.graph.reverse.ReverseAdjacency` — so a
  walk touches **no primary state and no primary lock**;
* mutations apply **once** on the primary; the per-edge journal deltas
  (annotated into :class:`~repro.online.ReplicaDelta` for the tier's
  ``needs_scored`` view) are shipped to every replica, which converges
  via :meth:`~repro.online.OnlineIndex.apply_delta` in O(|edges|) work
  and zero similarity evaluations — **no snapshot re-forks**.

Two shipping transports:

* ``mode="thread"`` — replicas live in-process; deltas are applied
  synchronously inside the mutation (each replica takes only its own
  write lock, so queries on other replicas never stall). Replicas are
  always exactly at the primary's version.
* ``mode="process"`` — one **pinned single-worker pool per replica**
  holds the cloned index; deltas are pickled into a per-replica queue
  and drained by the worker ahead of each batch it serves. Replicas
  converge lazily (eventual, read-your-ship consistency: a batch
  always sees every mutation shipped before it was submitted).

A ``rebuild`` (or a detected sequence gap) cannot be expressed as
deltas; the replica resyncs from a fresh snapshot and the ``resyncs``
counter records it — the mixed-workload benchmark asserts this stays
at **zero** across a 90/10 write storm.

Convergence is checked in the slot-order-independent currency that
matters for serving: per-row neighbour-id sets (:func:`edge_digest`).
Replica edge *ids* are always exact; stored edge scores may lag
in-place rescorings, which the searcher never reads (candidates are
scored against the query).

The tier plugs into the one serving front end as its miss executor::

    replicas = ReplicaSet(index, 4, mode="process")
    engine = QueryEngine(index, searcher=replicas)

:meth:`ReplicaSet.top_k` picks a replica round-robin per miss, so
concurrent callers of that engine spread their walks across replicas.
Whether that beats one serial engine depends on the host:
``benchmarks/bench_serving.py --mixed --replicas N`` measures it.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from .. import obs
from ..deltas.view import DerivedView
from ..graph.heap import edge_digest
from ..online.index import OnlineIndex, ReplicaDelta
from .searcher import GraphSearcher, SearchResult

__all__ = ["ReplicaSet", "edge_digest"]


class _ShipView(DerivedView):
    """The replica tier's bus registration: forward scored deltas.

    Declares ``needs_scored`` so the index keeps annotating journal
    edges into shippable :class:`~repro.online.ReplicaDelta`\\ s; the
    tier's own transport logic (synchronous thread apply, per-replica
    process queues, contained failure → counted resync) stays in
    :class:`ReplicaSet`. The resync recipe re-snapshots every replica
    from the primary.
    """

    name = "replica_ship"
    needs_scored = True

    def __init__(self, replicas: "ReplicaSet") -> None:
        super().__init__()
        self._replicas = replicas

    def apply(self, delta) -> None:
        """Ship one scored mutation to the tier."""
        if delta.replica is not None:
            self._replicas._on_delta(delta.replica)

    def resync(self) -> None:
        """Re-snapshot every replica from the primary."""
        for i in range(self._replicas.n_replicas):
            self._replicas.resync_replica(i)


# ``edge_digest`` moved to :mod:`repro.graph.heap` (re-exported above
# for back-compat) so journal-layer consumers can use it without
# importing the serving tier.

# Process-mode worker state: one pinned worker per replica holds the
# cloned index and drains its delta queue before serving each batch.
_REPLICA: dict = {}


def _replica_init(payload: bytes, searcher_kwargs: dict) -> None:
    index = pickle.loads(payload)
    _REPLICA["index"] = index
    _REPLICA["searcher"] = GraphSearcher(index, **searcher_kwargs)


def _replica_search(
    delta_payloads: list[bytes], profiles: list, k: int
) -> list[SearchResult]:
    index: OnlineIndex = _REPLICA["index"]
    for raw in delta_payloads:
        index.apply_delta(pickle.loads(raw))
    searcher: GraphSearcher = _REPLICA["searcher"]
    return [searcher.top_k(p, k=k) for p in profiles]


def _replica_state(delta_payloads: list[bytes]) -> tuple[int, int]:
    """Apply pending deltas, then report ``(version, edge digest)``."""
    index: OnlineIndex = _REPLICA["index"]
    for raw in delta_payloads:
        index.apply_delta(pickle.loads(raw))
    return index.version, edge_digest(index.graph.heaps)


class ReplicaSet:
    """N per-shard replica indexes converging by shipped deltas.

    Args:
        index: the primary (mutations apply here, once).
        n_replicas: replica count; :meth:`top_k` spreads misses
            across them round-robin.
        mode: ``"thread"`` (in-process clones, synchronous delta
            apply) or ``"process"`` (pinned worker pools fed a pickled
            delta queue).
        searcher_kwargs: forwarded to each replica's
            :class:`GraphSearcher` (``ef``, ``budget``, ``rerank``, …).
        hydrate: optional zero-arg callable returning a detached
            :class:`OnlineIndex` to bootstrap each *initial* replica
            from — e.g. :meth:`repro.persist.DurableIndex.hydrate`,
            which rebuilds one from the latest on-disk snapshot + WAL
            tail instead of pickling the live primary under its read
            lock. A hydrated replica that trails the primary catches
            up through the usual seq-guarded delta path (a genuinely
            lost gap heals as a counted resync, exactly like a clone
            raced by a mutation). Resyncs always re-clone the primary:
            they must land on its *current* version.
        registry: :class:`~repro.obs.MetricsRegistry` for the
            ship/apply latency histograms, the shipped/resync counters
            and the lag gauge (default: the process-wide registry).
    """

    def __init__(
        self,
        index: OnlineIndex,
        n_replicas: int = 2,
        *,
        mode: str = "thread",
        searcher_kwargs: dict | None = None,
        hydrate=None,
        registry=None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError("mode must be 'thread' or 'process'")
        self.index = index
        self.n_replicas = int(n_replicas)
        self.mode = mode
        self.searcher_kwargs = dict(searcher_kwargs or {})
        self.hydrate = hydrate
        self.deltas_shipped = 0
        self.resyncs = 0
        reg = registry if registry is not None else obs.metrics()
        self._c_shipped = reg.counter("replica_deltas_shipped_total")
        self._c_resyncs = reg.counter("replica_resyncs_total")
        self._g_lag = reg.gauge("replica_lag")
        self._h_ship = reg.histogram("replica_ship_seconds")
        self._h_apply = reg.histogram("replica_apply_seconds")
        self._ship_lock = threading.Lock()
        self._rr_lock = threading.Lock()
        self._rr = 0  # round-robin cursor for top_k
        self._revive_locks = [threading.Lock() for _ in range(self.n_replicas)]
        self._closed = False
        # Per-replica serving spend, fed from the SearchResults each
        # batch returns (both transports), so the tier's aggregate
        # similarity bill is one dict away — see stats()["serving"].
        self._serving_lock = threading.Lock()
        self._served = [
            {"queries": 0, "evaluations": 0, "hops": 0}
            for _ in range(self.n_replicas)
        ]
        if mode == "thread":
            self._replicas: list[OnlineIndex] = []
            self._searchers: list[GraphSearcher] = []
            for _ in range(self.n_replicas):
                replica = hydrate() if hydrate is not None else index.clone()
                self._replicas.append(replica)
                self._searchers.append(
                    GraphSearcher(replica, **self.searcher_kwargs)
                )
        else:
            if hydrate is not None:
                snapshot = pickle.dumps(hydrate())
            else:
                snapshot = index.snapshot_bytes()
            self._pools: list[ProcessPoolExecutor | None] = []
            self._pending: list[list[bytes]] = [[] for _ in range(self.n_replicas)]
            self._needs_resync = [False] * self.n_replicas
            for _ in range(self.n_replicas):
                self._pools.append(self._new_pool(snapshot))
        # Register after cloning: a mutation racing the clone is either
        # already inside the snapshot (its delta is skipped by the seq
        # guard) or arrives as the next delta in sequence. A delta lost
        # in the unregistered gap surfaces as a sequence gap and heals
        # through a counted resync.
        self._view = index.deltas.register(_ShipView(self))

    def _new_pool(self, payload: bytes) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_replica_init,
            initargs=(payload, self.searcher_kwargs),
        )

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def _on_delta(self, delta: ReplicaDelta) -> None:
        """Primary mutation hook: converge (thread) or enqueue (process)."""
        t_ship = perf_counter()
        self.deltas_shipped += 1
        self._c_shipped.inc()
        if self.mode == "thread":
            for i in range(self.n_replicas):
                t_apply = perf_counter()
                try:
                    self._replicas[i].apply_delta(delta)
                    self._h_apply.observe(perf_counter() - t_apply)
                except Exception:
                    # A replica that cannot replay (sequence gap,
                    # rebuild, or any mid-replay failure) must never
                    # break the primary's mutation — contain it by
                    # resyncing from a fresh snapshot. The snapshot
                    # clone is safe here: this hook runs on the
                    # mutating thread, for which the write lock is
                    # read-reentrant.
                    self._resync_thread(i)
            self._h_ship.observe(perf_counter() - t_ship)
            self._g_lag.set(0)  # thread replicas converge synchronously
            return
        payload = pickle.dumps(delta)
        with self._ship_lock:
            for i in range(self.n_replicas):
                if delta.event == "rebuild":
                    # Unshippable: drop the queue, force a snapshot.
                    self._pending[i].clear()
                    self._needs_resync[i] = True
                else:
                    self._pending[i].append(payload)
            self._g_lag.set(max((len(p) for p in self._pending), default=0))
        self._h_ship.observe(perf_counter() - t_ship)

    def _resync_thread(self, i: int) -> None:
        """Replace thread replica ``i`` with a fresh snapshot clone."""
        self.resyncs += 1
        self._c_resyncs.inc()
        replica = self.index.clone()
        self._replicas[i] = replica
        self._searchers[i] = GraphSearcher(replica, **self.searcher_kwargs)

    def _revive(self, i: int) -> None:
        """Re-fork process replica ``i``'s pinned pool from a snapshot.

        Lock discipline matters here: ``_on_delta`` runs under the
        primary's **write** lock and takes ``_ship_lock``, so this
        method must never hold ``_ship_lock`` while taking the
        snapshot (which needs the primary's **read** lock) — that
        order inversion would deadlock the tier against a concurrent
        mutation. Instead the dead pool is detached and its queue
        cleared under ``_ship_lock``, the snapshot is taken unlocked,
        and the fresh pool is installed afterwards. Deltas shipped in
        between accumulate in the cleared queue; any the snapshot
        already contains are skipped by ``apply_delta``'s seq guard.
        ``_revive_locks[i]`` collapses concurrent revivals of the same
        replica into one resync.
        """
        with self._revive_locks[i]:
            with self._ship_lock:
                if self._pools[i] is not None and not self._needs_resync[i]:
                    return  # another thread already revived it
                pool = self._pools[i]
                self._pools[i] = None
                self._pending[i].clear()
                self._needs_resync[i] = False
                self.resyncs += 1
                self._c_resyncs.inc()
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            payload = self.index.snapshot_bytes()  # no _ship_lock held
            with self._ship_lock:
                self._pools[i] = self._new_pool(payload)

    def _submit(self, i: int, fn, *args):
        """Submit to replica ``i``'s pinned pool, reviving it if needed.

        The pending delta queue is drained into the task under
        ``_ship_lock`` so the pop and the submit are atomic with
        respect to ``_on_delta`` appends and other submitters — the
        single-worker pool then applies and serves strictly in ship
        order (read-your-ship consistency).
        """
        while True:
            with self._ship_lock:
                if self._closed:
                    raise RuntimeError("ReplicaSet is closed")
                pool = self._pools[i]
                if pool is not None and not self._needs_resync[i]:
                    payloads, self._pending[i] = self._pending[i], []
                    self._g_lag.set(
                        max((len(p) for p in self._pending), default=0)
                    )
                    return pool.submit(fn, payloads, *args)
            self._revive(i)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ReplicaSet is closed")

    def top_k(self, profile, k: int = 10) -> SearchResult:
        """Answer one query on the next replica in round-robin order.

        The :class:`~repro.serve.QueryEngine` miss-executor entry point
        (``QueryEngine(index, searcher=replica_set)``). Replicas
        converge to identical state, so any of them may serve any
        query; the cursor only spreads load.
        """
        with self._rr_lock:
            replica = self._rr % self.n_replicas
            self._rr += 1
        return self.search(replica, [profile], k)[0]

    def search(self, replica: int, profiles: list, k: int) -> list[SearchResult]:
        """Serve a batch of profiles on replica ``replica``.

        Thread mode walks the replica's own graph on the calling
        thread, under that replica's read lock. Process mode drains
        the replica's delta queue into the pinned worker ahead of the
        batch, so results always reflect every mutation shipped before
        this call.

        Raises:
            RuntimeError: the set is closed.
        """
        self._check_open()
        if self.mode == "thread":
            searcher = self._searchers[replica]
            return self._account(replica, [searcher.top_k(p, k=k) for p in profiles])
        future = self._submit(replica, _replica_search, profiles, k)
        try:
            return self._account(replica, future.result())
        except Exception:
            # Worker died or its delta stream gapped: resync the pinned
            # pool from a fresh snapshot and retry the batch once.
            with self._ship_lock:
                self._needs_resync[replica] = True
            return self._account(
                replica,
                self._submit(replica, _replica_search, profiles, k).result(),
            )

    def _account(self, replica: int, results: list[SearchResult]) -> list[SearchResult]:
        """Charge a served batch to replica ``replica``'s counters."""
        with self._serving_lock:
            counters = self._served[replica]
            counters["queries"] += len(results)
            counters["evaluations"] += sum(r.evaluations for r in results)
            counters["hops"] += sum(r.hops for r in results)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def replica(self, i: int) -> OnlineIndex:
        """Thread-mode replica ``i`` (tests compare it to the primary)."""
        if self.mode != "thread":
            raise ValueError("direct replica access is thread-mode only")
        self._check_open()
        return self._replicas[i]

    def converged(self) -> bool:
        """Whether every replica's edge sets match the primary's, now.

        Thread replicas are compared in place; process replicas first
        drain their pending delta queues (the consistency contract is
        read-your-ship, so "converged" means "after applying what was
        shipped"). Digests are slot-order independent.

        Raises:
            RuntimeError: the set is closed.
        """
        self._check_open()
        with self.index.lock.read():
            want = (self.index.version, edge_digest(self.index.graph.heaps))
        return all(got == want for got in self.replica_states())

    def replica_states(self) -> list[tuple[int, int]]:
        """``(version, edge digest)`` per replica — the audit currency.

        Process replicas drain their pending queues first (the same
        read-your-ship contract as :meth:`converged`); thread replicas
        are read under their own locks. The
        :class:`~repro.deltas.AntiEntropy` view compares these pairs
        against the primary oracle.

        Raises:
            RuntimeError: the set is closed.
        """
        self._check_open()
        if self.mode == "thread":
            out = []
            for replica in self._replicas:
                with replica.lock.read():
                    out.append(
                        (replica.version, edge_digest(replica.graph.heaps))
                    )
            return out
        return [
            self._submit(i, _replica_state).result()
            for i in range(self.n_replicas)
        ]

    def resync_replica(self, i: int) -> None:
        """Force replica ``i`` back onto a fresh primary snapshot.

        The repair entry point anti-entropy uses: thread replicas are
        re-cloned immediately; process replicas are marked and re-fork
        lazily on their next submit (the same contained-failure path a
        sequence gap takes). Counted in ``resyncs_total``.
        """
        if self.mode == "thread":
            self._resync_thread(i)
        else:
            with self._ship_lock:
                self._needs_resync[i] = True

    def lag(self) -> int:
        """Mutations shipped but not yet applied, worst replica."""
        return max(self.per_replica_lag(), default=0)

    def per_replica_lag(self) -> list[int]:
        """Mutations shipped but not yet applied, one entry per replica.

        Thread replicas measure version distance to the primary
        (normally 0 — they converge inside the mutation); process
        replicas count queued-but-undrained delta payloads.
        """
        if self.mode == "thread":
            if not self._replicas:  # closed set: nothing left to lag
                return [0] * self.n_replicas
            return [self.index.version - r.version for r in self._replicas]
        with self._ship_lock:
            return [len(p) for p in self._pending]

    def stats(self) -> dict:
        """Operational counters for dashboards, benchmarks and tests.

        ``"serving"`` aggregates what the tier *spent answering
        queries* — per-replica and total similarity evaluations, walk
        hops and query counts, accumulated from every batch's
        :class:`SearchResult`\\ s — so the replicated read path reports
        one dashboard number in the same counted-similarity currency
        as builds and updates (the ROADMAP follow-up: replica walks
        charge their clone's engine, not the primary's). Each
        per-replica entry also carries its own ``lag``. Keys follow
        the shared vocabulary (``docs/observability.md``); the legacy
        spellings were dropped after their one-release grace window.
        """
        lags = self.per_replica_lag()
        with self._serving_lock:
            per_replica = [
                dict(counters, lag=lags[i])
                for i, counters in enumerate(self._served)
            ]
        return {
            "component": "replica_set",
            "n_replicas": self.n_replicas,
            "mode": self.mode,
            "deltas_shipped_total": self.deltas_shipped,
            "resyncs_total": self.resyncs,
            "lag": max(lags, default=0),
            "version": self.index.version,
            "serving": {
                "queries": sum(c["queries"] for c in per_replica),
                "evaluations": sum(c["evaluations"] for c in per_replica),
                "hops": sum(c["hops"] for c in per_replica),
                "per_replica": per_replica,
            },
        }

    def close(self) -> None:
        """Detach from the primary and release replica resources."""
        if self._closed:
            return
        self._closed = True
        self._view.close()
        if self.mode == "process":
            with self._ship_lock:
                for i, pool in enumerate(self._pools):
                    if pool is not None:
                        pool.shutdown()
                        self._pools[i] = None
        else:
            self._replicas = []
            self._searchers = []
