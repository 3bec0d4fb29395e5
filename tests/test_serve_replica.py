"""Tests for the replica serving tier (repro.serve.replica).

The tier's contracts: replicas converge to the primary's exact serving
state by applying shipped journal deltas (never by re-forking, outside
``rebuild``), any replica answers exactly what the primary would,
round-robin routing only shapes load, and behind the one front end —
``QueryEngine(index, searcher=ReplicaSet(...))`` — cache, dedup and
``search_async`` behave exactly as with the engine's own searcher, in
both transports. Plus the cache fix for signups: a brand-new
very-similar user evicts the cached answers it should appear in.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import C2Params
from repro.online import OnlineIndex, StaleReplicaError
from repro.serve import QueryEngine, ReplicaSet
from repro.serve.replica import edge_digest


def _params(**kw):
    base = dict(k=8, n_buckets=64, n_hashes=4, split_threshold=80, seed=1)
    base.update(kw)
    return C2Params(**base)


def _batch(rng, n_items, size=16):
    return [rng.integers(0, n_items, size=int(rng.integers(3, 12))) for _ in range(size)]


MODES = ["thread", "process"]


def _front_end(index, n_replicas, mode, **engine_kwargs):
    """The replica tier behind the one front end; close both when done."""
    replicas = ReplicaSet(index, n_replicas, mode=mode)
    return QueryEngine(index, searcher=replicas, **engine_kwargs), replicas


def _churn(index, rng, n_ops=15):
    for _ in range(n_ops):
        active = index.dataset.active_users()
        op = rng.random()
        if op < 0.4 and active.size:
            index.add_items(
                int(rng.choice(active)),
                rng.integers(0, index.dataset.n_items, size=2),
            )
        elif op < 0.7:
            index.add_user(rng.integers(0, index.dataset.n_items, size=12))
        elif active.size > 100:
            index.remove_user(int(rng.choice(active)))


class TestReplicaSet:
    def test_validation(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        with pytest.raises(ValueError):
            ReplicaSet(index, 0)
        with pytest.raises(ValueError):
            ReplicaSet(index, 2, mode="fiber")

    def test_thread_replicas_track_every_mutation(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        index.reverse_index()
        replicas = ReplicaSet(index, 2, mode="thread")
        try:
            _churn(index, np.random.default_rng(0), n_ops=20)
            assert replicas.converged()
            assert replicas.lag() == 0
            stats = replicas.stats()
            assert stats["resyncs_total"] == 0
            assert stats["deltas_shipped_total"] == index.version
            replica = replicas.replica(0)
            # Full serving-state parity, not just edges: routing tables
            # and memberships replayed in lockstep.
            assert replica.graph.heaps.edge_sets() == index.graph.heaps.edge_sets()
            assert replica.reverse_index().to_sets() == index.reverse_index().to_sets()
            assert replica._assign == index._assign
            assert replica._members == index._members
        finally:
            replicas.close()

    def test_rebuild_forces_counted_resync(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        replicas = ReplicaSet(index, 2, mode="thread")
        try:
            index.rebuild()
            assert replicas.stats()["resyncs_total"] == 2  # one per replica
            assert replicas.converged()
        finally:
            replicas.close()

    def test_close_detaches_shipping(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        replicas = ReplicaSet(index, 2, mode="thread")
        replicas.close()
        index.add_user([1, 2, 3])
        assert replicas.stats()["deltas_shipped_total"] == 0

    def test_stale_delta_stream_raises_and_heals(self, small_dataset, tap):
        index = OnlineIndex.build(small_dataset, params=_params())
        clone = index.clone()
        deltas = []
        tap(index, deltas.append, scored=True)
        index.add_user([1, 2, 3])
        index.add_user([4, 5, 6])
        with pytest.raises(StaleReplicaError):
            clone.apply_delta(deltas[1])  # gap: delta 0 never applied
        assert clone.apply_delta(deltas[0])
        assert clone.apply_delta(deltas[1])
        assert not clone.apply_delta(deltas[1])  # idempotent skip
        assert edge_digest(clone.graph.heaps) == edge_digest(index.graph.heaps)

    @pytest.mark.parametrize("mode", MODES)
    def test_closed_set_raises(self, small_dataset, mode):
        index = OnlineIndex.build(small_dataset, params=_params())
        replicas = ReplicaSet(index, 2, mode=mode)
        assert replicas.top_k([1, 2, 3], k=5).ids.size == 5
        replicas.close()
        replicas.close()  # idempotent
        for call in (
            lambda: replicas.top_k([1, 2, 3], k=5),
            lambda: replicas.search(0, [[1, 2, 3]], 5),
            replicas.converged,
            replicas.replica_states,
        ):
            with pytest.raises(RuntimeError, match="closed"):
                call()
        assert replicas.stats()["lag"] == 0  # dashboards still read


class TestReplicaRouting:
    @pytest.mark.parametrize("mode", MODES)
    def test_top_k_matches_serial_answers(self, small_dataset, mode):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 3, mode, cache_size=0)
        oracle = QueryEngine(index, cache_size=0)
        rng = np.random.default_rng(5)
        batch = _batch(rng, small_dataset.n_items)
        try:
            _churn(index, rng, n_ops=8)
            for got, want in zip(engine.search_many(batch), oracle.search_many(batch)):
                assert np.array_equal(got.ids, want.ids)
                assert got.scores == pytest.approx(want.scores)
        finally:
            engine.close()
            oracle.close()
            replicas.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_round_robin_spreads_misses_across_replicas(self, small_dataset, mode):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 3, mode, cache_size=0)
        try:
            engine.search_many(_batch(np.random.default_rng(6), small_dataset.n_items, size=24))
            # Every replica charges its walks to its own engine copy and
            # its own serving counters; round-robin gives each 24 / 3.
            per_replica = replicas.stats()["serving"]["per_replica"]
            assert [c["queries"] for c in per_replica] == [8, 8, 8]
            assert all(c["evaluations"] > 0 for c in per_replica)
        finally:
            engine.close()
            replicas.close()

    def test_stats_surface_replica_counters(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 2, "thread")
        try:
            index.add_user([1, 2, 3])
            engine.search([4, 5, 6])
            stats = replicas.stats()
            assert stats["mode"] == "thread"
            assert stats["deltas_shipped_total"] == 1
            assert stats["resyncs_total"] == 0
            assert stats["lag"] == 0
            assert stats["serving"]["queries"] == 1
            assert engine.stats()["cache_misses_total"] == 1
        finally:
            engine.close()
            replicas.close()

    def test_engine_close_leaves_replicas_open(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 2, "thread")
        try:
            engine.close()
            index.add_user([1, 2, 3])
            assert replicas.converged()  # still shipping: the caller owns it
            assert replicas.top_k([1, 2, 3], k=5).ids.size == 5
        finally:
            replicas.close()


class TestReplicaSearchAsync:
    @pytest.mark.parametrize("mode", MODES)
    def test_concurrent_awaiters_share_one_walk(self, small_dataset, mode):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 2, mode)
        try:
            async def burst():
                return await asyncio.gather(
                    *(engine.search_async([7, 8, 9]) for _ in range(6))
                )

            results = asyncio.run(burst())
            assert all(r is results[0] for r in results[1:])
            stats = engine.stats()
            assert stats["cache_misses_total"] == 1
            assert stats["dedup_hits_total"] == 5
        finally:
            engine.close()
            replicas.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_mixed_k_and_oracle_equality(self, small_dataset, mode):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 2, mode, cache_size=0)
        oracle = QueryEngine(index, cache_size=0)
        try:
            async def burst():
                return await asyncio.gather(
                    engine.search_async([7, 8, 9], k=3),
                    engine.search_async([7, 8, 9], k=5),
                )

            small, large = asyncio.run(burst())
            assert len(small) == 3 and len(large) == 5
            assert np.array_equal(small.ids, oracle.search([7, 8, 9], k=3).ids)
        finally:
            engine.close()
            oracle.close()
            replicas.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_async_dedup_survives_concurrent_mutations(self, small_dataset, mode):
        """Bursts of awaiters race a mutator thread; answers stay sound."""
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 2, mode)
        stop = threading.Event()

        def mutate():
            rng = np.random.default_rng(9)
            while not stop.is_set():
                _churn(index, rng, n_ops=1)

        writer = threading.Thread(target=mutate)
        writer.start()
        try:
            async def storm():
                out = []
                for wave in range(10):
                    profile = [wave, wave + 1, wave + 2]
                    results = await asyncio.gather(
                        *(engine.search_async(profile) for _ in range(4))
                    )
                    assert all(r is results[0] for r in results[1:])
                    out.extend(results)
                return out

            for result in asyncio.run(storm()):
                assert np.unique(result.ids).size == result.ids.size
                assert np.all(result.ids < index.n_users)
        finally:
            stop.set()
            writer.join(timeout=30)
            engine.close()
        try:
            assert not writer.is_alive()
            assert replicas.stats()["resyncs_total"] == 0
            assert replicas.converged()
        finally:
            replicas.close()


class TestSignupInvalidation:
    """The ROADMAP cache blind spot: a twin signup must become visible."""

    def test_twin_signup_evicts_the_answer_it_belongs_in(self, small_dataset):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, k=5)
        try:
            profile = small_dataset.profile(3)
            before = engine.search(profile)
            assert 3 in before.ids  # sanity: the existing twin tops the list
            uid = index.add_user(profile)  # identical signup
            after = engine.search(profile)
            assert after is not before  # her contacts' entries were evicted
            assert uid in after.ids  # and she appears immediately
        finally:
            engine.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_replica_front_end_gets_the_same_seeding(self, small_dataset, mode):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine, replicas = _front_end(index, 2, mode, k=5)
        try:
            profile = small_dataset.profile(7)
            before = engine.search(profile)
            assert 7 in before.ids
            uid = index.add_user(profile)
            after = engine.search(profile)  # process replicas drain first
            assert after is not before
            assert uid in after.ids
        finally:
            engine.close()
            replicas.close()

    def test_unrelated_entries_still_survive_a_signup(self, small_dataset, tap):
        index = OnlineIndex.build(small_dataset, params=_params())
        engine = QueryEngine(index, k=5)
        try:
            bystander = engine.search([7, 8])
            # A signup disjoint from the bystander's community: none of
            # its contacts appear in the cached answer, so it survives.
            contacts = set()
            tap(
                index,
                lambda d: contacts.update(x for uv in d.edges for x in uv[:2]),
            )
            fresh = small_dataset.n_items - 1
            index.add_user([fresh])
            if contacts & set(int(v) for v in bystander.ids):
                pytest.skip("random signup landed inside the bystander's answer")
            assert engine.search([7, 8]) is bystander
        finally:
            engine.close()
