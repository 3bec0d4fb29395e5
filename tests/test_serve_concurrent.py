"""Many caller threads on one QueryEngine.

``QueryEngine`` is the only serving front end; parallelism comes from
concurrent callers sharing one engine. Three properties matter:
concurrency never changes answers (every walk is deterministic in the
index state), the shared cache and counters stay exact under
contention (``queries_total == hits + misses + dedup``), and the engine
survives being hammered from many threads while a writer streams
mutations in (walks run under the index's read lock, mutations under
its write lock) without ever caching an answer that a later mutation
should have evicted.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import C2Params
from repro.online import OnlineIndex
from repro.serve import GraphSearcher, QueryEngine, ReplicaSet

N_THREADS = 4


def _params(**kw):
    base = dict(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
    base.update(kw)
    return C2Params(**base)


def _batch(rng, n_items, size=16):
    return [rng.integers(0, n_items, size=int(rng.integers(3, 12))) for _ in range(size)]


def _start_threads(target, n):
    """Start ``target(i)`` on ``n`` threads; failures land in ``errors``."""
    errors: list[BaseException] = []

    def guarded(i):
        try:
            target(i)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads, errors


def _join(threads, errors):
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def _run_threads(target, n=N_THREADS):
    """Run ``target(i)`` on ``n`` threads; re-raise the first failure."""
    _join(*_start_threads(target, n))


def _storm(read, write, n=N_THREADS):
    """Call ``read(i)`` in a loop on ``n`` threads while ``write()`` runs
    here; stop the readers when it returns, re-raise their first failure."""
    stop = threading.Event()

    def loop(i):
        while not stop.is_set():
            read(i)

    threads, errors = _start_threads(loop, n)
    try:
        write()
    finally:
        stop.set()
        _join(threads, errors)


def _assert_counters_add_up(engine, n_queries):
    stats = engine.stats()
    assert stats["queries_total"] == n_queries
    assert stats["queries_total"] == (
        stats["cache_hits_total"]
        + stats["cache_misses_total"]
        + stats["dedup_hits_total"]
    )


def _mutate(index, rng):
    active = index.dataset.active_users()
    op = rng.random()
    if op < 0.5 and active.size:
        index.add_items(
            int(rng.choice(active)), rng.integers(0, index.dataset.n_items, size=2)
        )
    elif op < 0.8:
        index.add_user(rng.integers(0, index.dataset.n_items, size=12))
    elif active.size > 200:
        index.remove_user(int(rng.choice(active)))


@pytest.fixture(autouse=True)
def _fast_switching():
    """Switch threads every microsecond so a lost counter update or a
    torn cache entry shows up within these short runs."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


@pytest.fixture(scope="module")
def shared_index(small_dataset):
    return OnlineIndex.build(small_dataset, params=_params())


class TestConcurrentAnswers:
    @pytest.mark.parametrize("reverse", ["incremental", "rebuild"])
    def test_threads_match_serial_answers(self, small_dataset, reverse):
        """A shared searcher — rebuild mode included, whose lazy CSR
        rebuild the threads race on the first walk — answers every
        thread exactly as a serial engine does."""
        index = OnlineIndex.build(small_dataset, params=_params())
        batch = _batch(np.random.default_rng(0), small_dataset.n_items)
        serial = QueryEngine(index, cache_size=0)
        want = [r.ids for r in serial.search_many(batch)]
        serial.close()
        engine = QueryEngine(
            index, cache_size=0, searcher=GraphSearcher(index, reverse=reverse)
        )
        got: dict[int, list] = {}
        _run_threads(lambda i: got.__setitem__(i, engine.search_many(batch)))
        try:
            for results in got.values():
                for x, y in zip(results, want):
                    assert np.array_equal(x.ids, y)
            _assert_counters_add_up(engine, N_THREADS * len(batch))
        finally:
            engine.close()


class TestSharedCache:
    def test_cache_and_dedup(self, shared_index):
        engine = QueryEngine(shared_index)
        try:
            a = engine.search_many([[1, 2], [2, 1], [5, 9]])
            assert a[0] is a[1]  # deduped within the batch
            b = engine.search([1, 2])
            assert b is a[0]  # served from the cache
            stats = engine.stats()
            assert stats["cache_hits_total"] == 1
            assert stats["dedup_hits_total"] == 1
            assert stats["cache_misses_total"] == 2
        finally:
            engine.close()

    def test_threads_share_cache_and_counters(self, small_dataset, shared_index):
        """N threads replay one stream with repeats: every profile is
        walked at most once per thread race, and the counters add up."""
        rng = np.random.default_rng(3)
        pool = _batch(rng, small_dataset.n_items, size=12)
        stream = [pool[int(rng.integers(0, len(pool)))] for _ in range(600)]
        engine = QueryEngine(shared_index)
        try:
            def serve(_i):
                for start in range(0, len(stream), 2):
                    engine.search_many(stream[start : start + 2])

            _run_threads(serve)
            _assert_counters_add_up(engine, N_THREADS * len(stream))
            stats = engine.stats()
            # Two threads may both miss one profile before either
            # stores it, so misses are bounded by threads x profiles.
            assert len(pool) <= stats["cache_misses_total"] <= N_THREADS * len(pool)
            assert stats["cache_entries"] == len(
                {np.unique(p).tobytes() for p in pool}
            )
        finally:
            engine.close()

    def test_partial_invalidation_is_wired(self, small_dataset, tap):
        """Readers on N threads, one writer: no cached answer ever holds
        a user mutated after the answer was computed."""
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, invalidation="partial")
        mutated: list[tuple[int, int]] = []  # (seq, user)
        tap(index, lambda d: mutated.append((d.seq, d.user)) if d.user >= 0 else None)
        pool = _batch(np.random.default_rng(4), small_dataset.n_items, size=20)
        served = [0] * N_THREADS
        rngs = [np.random.default_rng(40 + i) for i in range(N_THREADS)]

        def read(i):
            picks = rngs[i].integers(0, len(pool), size=4)
            served[i] += len(engine.search_many([pool[j] for j in picks]))

        def write():
            rng = np.random.default_rng(41)
            for _ in range(30):
                _mutate(index, rng)
                time.sleep(0.002)  # let readers refill between writes

        try:
            engine.search_many(pool)  # warm: every answer predates the writes
            _storm(read, write)
            assert any(served)
            _assert_counters_add_up(engine, sum(served) + len(pool))
            entries = list(engine._cache._entries.values())
            assert entries, "the storm should leave some answers cached"
            for version, result in entries:
                ids = set(int(v) for v in result.ids)
                for seq, user in mutated:
                    if seq > version:
                        assert user not in ids, (seq, user, version)
        finally:
            engine.close()


class TestConcurrentMutations:
    @pytest.mark.parametrize("tier", ["searcher", "thread_replicas"])
    def test_queries_race_mutations(self, small_dataset, tier):
        """Hammer one engine from 4 threads while mutations stream in."""
        index = OnlineIndex.build(small_dataset, params=_params())
        replicas = ReplicaSet(index, 2) if tier == "thread_replicas" else None
        engine = QueryEngine(index, searcher=replicas)
        served = [0] * N_THREADS
        rngs = [np.random.default_rng(i) for i in range(N_THREADS)]

        def read(i):
            results = engine.search_many(_batch(rngs[i], small_dataset.n_items, size=4))
            served[i] += len(results)
            for r in results:
                assert np.unique(r.ids).size == r.ids.size
                assert np.all(r.ids < index.n_users)

        def write():
            rng = np.random.default_rng(99)
            for _ in range(25):
                _mutate(index, rng)

        try:
            _storm(read, write)
            _assert_counters_add_up(engine, sum(served))
            if replicas is not None:
                assert replicas.converged()
                assert replicas.stats()["resyncs_total"] == 0
        finally:
            engine.close()
            if replicas is not None:
                replicas.close()
        # After the storm the index is still coherent: an uncached walk
        # succeeds and returns a well-formed, active-only result set.
        oracle = QueryEngine(index, cache_size=0)
        try:
            fresh = oracle.search([1, 2, 3])
            active = index.dataset.active_mask()
            assert np.unique(fresh.ids).size == fresh.ids.size
            assert all(active[v] for v in fresh.ids)
        finally:
            oracle.close()
