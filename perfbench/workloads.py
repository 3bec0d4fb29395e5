"""The benchmark's three workloads: ``build``, ``read-zipf`` and ``churn-wal``.

Each workload is one process with one closed-loop client: the client
issues an operation, waits for its reply, then issues the next. A
workload object is made from the seed (input generation, tape
generation and the oracles' precomputation all happen here, timed apart
as ``inputgen_s``/``tapegen_s``/``oracle_s``), then runs *rounds*. A
round is: set-up (timed as ``setup_s``), the measured window (the only
time that counts as throughput or latency), then untimed evaluation —
brute-force oracles, recall probes through a separate searcher, and the
correctness checks. Rounds of one run repeat exactly the same work
(same inputs, same cache state, same tape), so ``run.py`` can take each
operation's best time over the rounds. Every time a round reports is
scaled to the reference host's speed by :mod:`hostspeed`, sampled
between ops; the raw wall times are kept beside them (``*_raw``).
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import data
from repro.baselines.brute_force import brute_force_knn
from repro.bench.scenarios import SimWorld, SustainedChurn
from repro.core.cluster_and_conquer import cluster_and_conquer
from repro.core.config import C2Params
from repro.data import SyntheticSpec, generate
from repro.data.dataset import Dataset
from repro.graph.heap import EMPTY, edge_digest
from repro.graph.metrics import average_similarity
from repro.online import OnlineIndex
from repro.persist import DurableIndex
from repro.persist import wal as wal_module
from repro.serve import GraphSearcher, QueryEngine, brute_force_top_k
from repro.similarity import make_engine

from hostspeed import NEAREST, HostSpeed

__all__ = ["Sizes", "FULL", "TOY", "RoundResult", "WORKLOADS", "check_recovery"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TOY` the self-test."""

    build_scale: float = 1.0
    build_buckets: int = 4096
    serve_users: int = 5000
    zipf_pool: int = 4000
    zipf_stream: int = 8000
    zipf_probes: int = 200
    churn_ops: int = 2000
    churn_probes: int = 200
    checkpoint_bytes: int = 1 << 19


FULL = Sizes()
TOY = Sizes(
    build_scale=0.05, build_buckets=64, serve_users=400, zipf_pool=300, zipf_stream=600,
    zipf_probes=20, churn_ops=300, churn_probes=20, checkpoint_bytes=16 << 10,
)

BUILD_DATASET = "ml1M"
ZIPF_EXPONENT = 1.0
TOPK = 10          # neighbours per served query, and the recall cut-off
CACHE_SIZE = 1024  # QueryEngine LRU entries
EF = 32
PER_CONFIG = 16
BUDGET_FRACTION = 0.05
# The serving population is fixed (the seed ``bench_serving.py`` uses by
# default); ``--seed`` drives the Zipf stream and the churn tape.
POPULATION_SEED = 11


@dataclass
class RoundResult:
    """What one round measured; ``run.py`` aggregates rounds into metrics.

    ``latencies`` maps an op kind to per-op seconds at reference speed, in
    issue order: ``all`` is every client op, ``op`` the workload's primary
    op (a build, a search, a write), ``query`` cache misses, ``hit`` cache
    hits, ``write`` mutations; ``all_raw`` and ``op_raw`` are the raw
    wall times of ``all`` and ``op``. ``counters``
    are program counters read after the round (per-layer metrics that
    need no span). ``extra`` holds the workload-specific client numbers
    (``recover_s``, ``wal_bytes_per_write``), the raw set-up time and the
    round's oracle time;
    ``trace`` the span summary of a traced round.
    """

    setup_s: float
    build_s: float
    build_evaluations: float
    build_quality: float
    recall_at_10: float
    window_s: float = 0.0
    ops: int = 0
    evaluations: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def short_rows(heaps, n_users: int, k: int) -> np.ndarray:
    """Users holding fewer than ``min(k, n-1)`` valid neighbours."""
    valid = (heaps.ids[:n_users] != EMPTY).sum(axis=1)
    return np.flatnonzero(valid < min(k, n_users - 1))


def _graph_errors(heaps, n_users: int, k: int, clusters) -> list[str]:
    """Valid, distinct, non-self neighbours; no candidate lost by the build.

    A user holds ``min(k, n-1)`` neighbours unless the user's ``t`` clusters
    together hold fewer distinct other users than that: C² only compares
    users that share a cluster, so it cannot find more. Such a row must
    then hold every co-member.
    """
    ids = heaps.ids[:n_users]
    valid = ids != EMPTY
    errors = []
    short = short_rows(heaps, n_users, k)
    if short.size:
        reach: dict[int, set] = {int(u): set() for u in short}
        for cluster in clusters:
            for u in short[np.isin(short, cluster.users)]:
                reach[int(u)].update(cluster.users.tolist())
        lost = [u for u in reach if valid[u].sum() < min(k, len(reach[u] - {u}))]
        if lost:
            errors.append(f"{len(lost)} users lack neighbours their clusters hold "
                          f"(first: {lost[0]})")
    if (ids == np.arange(n_users)[:, None]).any():
        errors.append("a user lists itself as a neighbour")
    rows = np.sort(np.where(valid, ids, -1 - np.arange(ids.shape[1])), axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():
        errors.append("a neighbour list holds a duplicate")
    return errors


def _top_rows(ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, the ``k`` ids of highest score (ties: smaller id first)."""
    out = np.full((ids.shape[0], k), EMPTY, dtype=np.int64)
    for u in range(ids.shape[0]):
        keep = ids[u] != EMPTY
        order = np.lexsort((ids[u][keep], -scores[u][keep]))[:k]
        out[u, : order.size] = ids[u][keep][order]
    return out


def _recall_rows(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each truth row's valid ids present in ``found``'s row."""
    hits = total = 0
    for f, t in zip(found, truth):
        t = t[t != EMPTY]
        total += t.size
        hits += int(np.isin(t, f).sum())
    return hits / total if total else 1.0


class _ExactGraph:
    """Brute-force oracle of one static dataset: average similarity and top-10."""

    def __init__(self, dataset: Dataset, k: int) -> None:
        exact = brute_force_knn(make_engine(dataset, backend="exact"), k)
        self.dataset = dataset
        self.avg_sim = average_similarity(exact.graph, dataset)
        self.top = _top_rows(exact.graph.heaps.ids, exact.graph.heaps.scores, TOPK)

    def quality(self, graph) -> float:
        """The paper's Eq. (2): average exact similarity ratio to the exact graph."""
        return average_similarity(graph, self.dataset) / self.avg_sim

    def recall(self, graph) -> float:
        """Share of each user's exact top-10 found in the graph's top-10."""
        heaps = graph.heaps
        return _recall_rows(_top_rows(heaps.ids, heaps.scores, TOPK), self.top)


# ----------------------------------------------------------------------
# build: the paper's batch job
# ----------------------------------------------------------------------


class BuildWorkload:
    """One ``cluster_and_conquer`` call on the full-size ml1M stand-in.

    Paper defaults (``C2Params()``: k=30, b=4096, t=8, N=2000), the
    GoldFinger engine, one worker. The dataset is the registry's Table I
    stand-in with its users relabelled by a seeded permutation, which
    leaves the algorithm's work unchanged. Every build uses hash family
    0 (``C2Params().seed``): the cost of one build moves by about ±20%
    with its random hash family, so drawing families from the seed would
    bury a real change under the spread between seeds.
    """

    name = "build"
    round_s = 6.0   # one build on the 2-core reference host
    min_rounds = 2
    min_setups = 9  # the set-up is ~15 ms; a median of nine

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        self.seed = int(seed)
        self.sizes = sizes
        self.params = C2Params(n_buckets=sizes.build_buckets)
        self.dataset, self.inputgen_s = _timed(self._relabelled, sizes, self.seed)
        self.tapegen_s = 0.0
        self.exact, self.oracle_s = _timed(_ExactGraph, self.dataset, self.params.k)
        self.speed = HostSpeed()
        self._scored: tuple | None = None  # the first round's graph digest and scores

    def config(self) -> dict:
        """Workload parameters for the report's config block."""
        p = self.params
        return {
            "dataset": f"{BUILD_DATASET}@scale={self.sizes.build_scale}",
            "n_users": self.dataset.n_users, "n_items": self.dataset.n_items,
            "backend": "goldfinger", "k": p.k, "n_buckets": p.n_buckets,
            "n_hashes": p.n_hashes, "split_threshold": p.split_threshold,
            "n_workers": p.n_workers,
            "hash_seed": p.seed, "users": "relabelled by permutation(seed)",
        }

    @staticmethod
    def _relabelled(sizes: Sizes, seed: int) -> Dataset:
        base = data.load(BUILD_DATASET, scale=sizes.build_scale)
        order = np.random.default_rng(seed).permutation(base.n_users)
        return Dataset.from_profiles(
            [base.profile(int(u)) for u in order], n_items=base.n_items, name=base.name
        )

    def setup(self):
        """Set-up of one build: the fingerprinted similarity engine.

        Returns the engine, the set-up time at reference speed and raw.
        """
        with self.speed.span() as setup:
            engine = make_engine(self.dataset, backend="goldfinger")
        return engine, setup["s"], setup["raw_s"]

    def round(self, tracer) -> RoundResult:
        """Set up, time one build, then score it against the exact graph."""
        engine, setup_s, setup_raw = self.setup()
        params = self.params
        tracer.request += 1
        with self.speed.span() as build, tracer.span("core.cluster_and_conquer"):
            result = cluster_and_conquer(engine, params, keep_clustering=True)
        build_s, build_raw = build["s"], build["raw_s"]
        with tracer.paused():
            t0 = perf_counter()
            # Rounds repeat one seeded build: the first is scored and
            # checked, the others must reproduce its graph exactly.
            digest = edge_digest(result.graph.heaps)
            if self._scored is None:
                heaps, n = result.graph.heaps, self.dataset.n_users
                self._scored = digest, (
                    self.exact.quality(result.graph), self.exact.recall(result.graph),
                    _graph_errors(heaps, n, params.k, result.extra["clustering"].clusters),
                    short_rows(heaps, n, params.k).size,
                )
            quality, recall, errors, n_short = self._scored[1]
            errors = list(errors)
            if digest != self._scored[0]:
                errors.append("the build is not deterministic across rounds")
            oracle_s = perf_counter() - t0
        return RoundResult(
            setup_s=setup_s, build_s=build_s,
            build_evaluations=result.comparisons, build_quality=quality,
            recall_at_10=recall, window_s=build_raw, ops=1,
            evaluations=result.comparisons, errors=errors,
            latencies={"all": [build_s], "op": [build_s],
                       "all_raw": [build_raw], "op_raw": [build_raw]},
            counters={"core.merge.short_rows": n_short},
            extra={"oracle_s": oracle_s, "setup_raw_s": setup_raw},
        )

    def setup_only(self, tracer) -> float:
        """One extra set-up, for the set-up median (at reference speed)."""
        return self.setup()[1]


# ----------------------------------------------------------------------
# Serving workloads: shared index recipe
# ----------------------------------------------------------------------


def serving_population(n_users: int, n_queries: int, seed: int):
    """Indexed users plus held-out query profiles of the same communities.

    The recipe of ``benchmarks/bench_serving.py``'s ``build_workload``
    (kept here so the benchmark does not depend on that script).
    """
    spec = SyntheticSpec(
        name=f"serve{n_users}",
        n_users=n_users + n_queries,
        n_items=max(400, int(0.8 * n_users)),
        mean_profile_size=40.0,
        n_communities=max(8, n_users // 62),
        community_pool_size=120,
        community_affinity=0.95,
        min_profile_size=15,
    )
    full = generate(spec, seed=seed)
    dataset = Dataset.from_profiles(
        [full.profile(u) for u in range(n_users)], n_items=full.n_items, name=spec.name
    )
    queries = [full.profile(u) for u in range(n_users, n_users + n_queries)]
    return dataset, queries


def serving_params(n_users: int, **changes) -> C2Params:
    """The serving benchmarks' index parameters."""
    return C2Params(
        k=16,
        n_buckets=1024 if n_users > 2000 else 128,
        n_hashes=8,
        split_threshold=max(60, n_users // 16),
        seed=1,
    ).with_(**changes)


@dataclass
class _Served:
    """One set-up of a serving workload."""

    index: OnlineIndex
    engine: QueryEngine
    durable: DurableIndex | None
    setup_s: float        # at reference speed, like build_s and first_query_s
    build_s: float
    first_query_s: float
    setup_raw_s: float

    def close(self) -> None:
        """Detach the WAL and the cache from the index."""
        if self.durable is not None:
            self.durable.close()
        self.engine.close()


class _ServingWorkload:
    """Set-up and evaluation shared by ``read-zipf`` and ``churn-wal``."""

    min_rounds = 3
    min_setups = 3  # a round sets up once; set-up-only rounds make up the rest
    update_cap: int | None = None

    def __init__(self, seed: int, sizes: Sizes, n_queries: int, **param_changes) -> None:
        self.seed = int(seed)
        self.sizes = sizes
        n = sizes.serve_users
        (self.dataset, self.queries), self.inputgen_s = _timed(
            serving_population, n, n_queries, POPULATION_SEED
        )
        self.params = serving_params(n, **param_changes)
        self.budget = max(6 * EF, int(BUDGET_FRACTION * n))
        self.exact, self.oracle_s = _timed(_ExactGraph, self.dataset, self.params.k)
        self.tapegen_s = 0.0
        self.speed = HostSpeed()
        self._digest: int | None = None
        self._build_quality = 0.0
        self._probed: tuple | None = None  # the first round's probe results

    def searcher_kwargs(self) -> dict:
        """GraphSearcher parameters (the measured and the probe searcher)."""
        return {"ef": EF, "per_config": PER_CONFIG, "budget": self.budget}

    def config(self) -> dict:
        """Workload parameters for the report's config block."""
        p = self.params
        return {
            "n_users": self.dataset.n_users, "n_items": self.dataset.n_items,
            "backend": "exact", "k": p.k, "n_buckets": p.n_buckets,
            "n_hashes": p.n_hashes, "split_threshold": p.split_threshold,
            "population_seed": POPULATION_SEED, "index_seed": p.seed,
            "update_cap": self.update_cap,
            "searcher": self.searcher_kwargs(), "topk": TOPK,
            "cache_size": CACHE_SIZE, "invalidation": "partial",
        }

    def setup(self, tracer, path: Path | None = None) -> _Served:
        """Index build + reverse adjacency + front end (+ WAL) + warm-up.

        The warm-up query goes through the measured searcher (not the
        engine, so the cache stays empty) and pays the lazy first-query
        set-up; its time is reported as ``first_query_ms``. With
        ``path`` a ``DurableIndex`` is attached (baseline snapshot).
        """
        tracer.request += 1
        speed = self.speed
        with speed.span() as setup:
            with speed.span() as build:
                index = OnlineIndex.build(
                    self.dataset, params=self.params, backend="exact",
                    update_cap=self.update_cap,
                )
            index.reverse_index()
            searcher = GraphSearcher(index, **self.searcher_kwargs())
            engine = QueryEngine(index, k=TOPK, searcher=searcher, cache_size=CACHE_SIZE)
            durable = None
            if path is not None:
                durable = DurableIndex(
                    index, path, checkpoint_bytes=self.sizes.checkpoint_bytes,
                    background_checkpoints=False, fsync=False,
                )
            with speed.span() as first:
                searcher.top_k(self.dataset.profile(0), k=TOPK)
        return _Served(index, engine, durable, setup["s"], build["s"], first["s"],
                       setup["raw_s"])

    def check_build(self, index) -> list[str]:
        """Index-build checks; the first round's build is the reference."""
        errors = _graph_errors(index.graph.heaps, self.dataset.n_users, self.params.k,
                               index.build_result.extra["clustering"].clusters)
        digest = edge_digest(index.graph.heaps)
        if self._digest is None:
            self._digest = digest
            self._build_quality = self.exact.quality(index.graph)
        elif digest != self._digest:
            errors.append("index build is not deterministic across rounds")
        return errors

    def probe_recall(self, index, probes) -> tuple[float, list]:
        """Recall@10 of a separate searcher vs brute force; returns results too."""
        searcher = GraphSearcher(index, **self.searcher_kwargs())
        recalls, results = [], []
        for profile in probes:
            result = searcher.top_k(profile, k=TOPK)
            truth = brute_force_top_k(index.engine, profile, k=TOPK)
            recalls.append(float(np.isin(truth.ids, result.ids).mean()))
            results.append(result)
        return float(np.mean(recalls)), results

    def _round_result(self, served: _Served, **fields) -> RoundResult:
        stats = served.engine.stats()
        invalidations = stats["evictions_total"]
        counters = {
            "serve.engine.hits": stats["cache_hits_total"],
            "serve.engine.misses": stats["cache_misses_total"],
            # Every miss stores one entry; what neither stayed nor was
            # invalidated by a mutation left through LRU capacity.
            "serve.engine.evictions": (
                stats["cache_misses_total"] - stats["cache_entries"] - invalidations
            ),
            "serve.engine.invalidations": invalidations,
            "serve.searcher.first_query_ms": served.first_query_s * 1e3,
            **fields.pop("counters", {}),
        }
        return RoundResult(
            setup_s=served.setup_s, build_s=served.build_s,
            build_evaluations=served.index.build_result.comparisons,
            build_quality=self._build_quality, counters=counters,
            extra={"setup_raw_s": served.setup_raw_s, **fields.pop("extra")}, **fields,
        )


# ----------------------------------------------------------------------
# read-zipf
# ----------------------------------------------------------------------


class ReadZipfWorkload(_ServingWorkload):
    """Read-only Zipf stream of held-out profiles through a ``QueryEngine``.

    The pool of held-out profiles is larger than the LRU cache, so the
    stream exercises both the cache-hit path and the graph walk. Which
    profiles are popular is part of the fixed population; ``--seed``
    draws the stream. The few most popular profiles answer most cache
    hits, so with a seed-drawn ranking the median latency followed their
    profile lengths: 0.021 ms on some seeds, 0.024 ms on others.
    """

    name = "read-zipf"
    round_s = 4.0   # the stream on the 2-core reference host

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        super().__init__(seed, sizes, sizes.zipf_pool)
        ranks = np.arange(1, sizes.zipf_pool + 1, dtype=np.float64)
        p = ranks ** -ZIPF_EXPONENT
        # rank -> pool slot
        popularity = np.random.default_rng((POPULATION_SEED, 1)).permutation(sizes.zipf_pool)
        rng = np.random.default_rng((self.seed, 1))
        self.stream = popularity[
            rng.choice(sizes.zipf_pool, size=sizes.zipf_stream, p=p / p.sum())
        ]
        # A fixed probe set: the index is the same in every run, so the
        # recall is a property of the index, not of the stream.
        self.probe_slots = np.arange(min(sizes.zipf_probes, sizes.zipf_pool))

    def config(self) -> dict:
        """Workload parameters for the report's config block."""
        return {**super().config(), "pool": self.sizes.zipf_pool,
                "stream": self.sizes.zipf_stream,
                "zipf_exponent": ZIPF_EXPONENT,
                "probes": int(self.probe_slots.size)}

    def setup_only(self, tracer) -> float:
        """One extra set-up, for the set-up median."""
        served = self.setup(tracer)
        served.close()
        return served.setup_s

    def round(self, tracer) -> RoundResult:
        """Set up, serve the stream, then probe recall and cache coherence."""
        served = self.setup(tracer)
        engine = served.engine
        starts, raw, hit, answers = [], [], [], []
        failed, errors = 0, []
        evals0 = served.index.engine.comparisons
        t_window = perf_counter()
        for slot in self.stream:
            self.speed.tick()
            tracer.request += 1
            hits = engine.cache_hits
            t = perf_counter()
            try:
                result = engine.search(self.queries[slot])
            except Exception as exc:  # counted and reported, the stream goes on
                failed += 1
                errors.append(f"search raised {exc!r}")
                result = None
            raw.append(perf_counter() - t)
            starts.append(t)
            hit.append(engine.cache_hits > hits)
            answers.append(result)
        self.speed.sample(NEAREST)
        window_s = perf_counter() - t_window
        lat, hit = self.speed.scale(starts, raw), np.array(hit)
        evaluations = served.index.engine.comparisons - evals0
        with tracer.paused():
            errors += self.check_build(served.index)
            t = perf_counter()
            # check_build holds every round's index to the first one's,
            # so the first round's probes stand for every round.
            if self._probed is None:
                self._probed = self.probe_recall(
                    served.index, [self.queries[s] for s in self.probe_slots]
                )
            recall, fresh = self._probed
            oracle_s = perf_counter() - t
            # The answer served at a probed slot's first occurrence must
            # equal a fresh search: the index is read-only here.
            first = {int(s): pos for pos, s in reversed(list(enumerate(self.stream)))}
            for slot, result in zip(self.probe_slots, fresh):
                if int(slot) not in first:
                    continue
                got = answers[first[int(slot)]]
                if got is None or not np.array_equal(got.ids, result.ids):
                    errors.append(f"served answer for pool slot {slot} != fresh search")
                    break
        out = self._round_result(
            served, recall_at_10=recall, window_s=window_s, ops=len(self.stream),
            evaluations=evaluations, failed=failed, errors=errors,
            latencies={"all": lat, "op": lat, "hit": lat[hit], "query": lat[~hit],
                       "all_raw": raw, "op_raw": raw},
            extra={"oracle_s": oracle_s},
        )
        served.close()
        return out


# ----------------------------------------------------------------------
# churn-wal
# ----------------------------------------------------------------------


@contextmanager
def count_wal_bytes():
    """Count bytes handed to ``WriteAheadLog.append`` (no clock reads).

    Yields a one-element list holding the running total: record header
    plus payload, i.e. what each append writes to its segment.
    """
    cls = wal_module.WriteAheadLog
    original = cls.__dict__["append"]
    total = [0]
    header = wal_module._HEADER.size

    def append(self, seq, payload):
        total[0] += header + len(payload)
        return original(self, seq, payload)

    cls.append = append
    try:
        yield total
    finally:
        cls.append = original


def check_recovery(recovered, version: int, digest: int) -> list[str]:
    """Parity of a recovered index with the pre-crash one; empty if it holds."""
    errors = []
    index = recovered.index
    if index.version != version:
        errors.append(f"recovered version {index.version} != pre-crash {version}")
    if edge_digest(index.graph.heaps) != digest:
        errors.append("recovered edge digest differs from the pre-crash index")
    if recovered.recovery.evaluations != 0:
        errors.append(f"recovery charged {recovered.recovery.evaluations} evaluations")
    return errors


@dataclass
class _Tape:
    """One pre-generated op tape and the signup uids it predicts."""

    ops: list = field(default_factory=list)
    signups: list[int] = field(default_factory=list)

    def n_writes(self) -> int:
        """Mutations on the tape."""
        return sum(op.kind != "query" for op in self.ops)


class ChurnWalWorkload(_ServingWorkload):
    """The ``SustainedChurn`` tape against a durable index, then a crash.

    Each tape is generated ahead of time against a ``SimWorld`` of the
    initial profiles, which also predicts every signup's uid. A
    ``DurableIndex`` (``fsync=False``, inline checkpoints) logs every
    mutation. After the tape the process state is dropped and
    ``DurableIndex.recover`` rebuilds it from snapshot + WAL.
    """

    name = "churn-wal"
    round_s = 8.0   # the tape on the 2-core reference host
    update_cap = 96

    def __init__(self, seed: int, sizes: Sizes = FULL, workdir: Path | None = None) -> None:
        super().__init__(seed, sizes, sizes.churn_probes, split_threshold=60)
        self.workdir = workdir
        self.tape, self.tapegen_s = _timed(self._tape, self.seed)

    def _tape(self, seed: int) -> _Tape:
        scenario = SustainedChurn(n_ops=self.sizes.churn_ops, seed=seed)
        world = SimWorld(
            [self.dataset.profile(u) for u in range(self.dataset.n_users)],
            n_items=self.dataset.n_items,
        )
        tape = _Tape()
        for op in scenario.ops(world):
            world.apply(op)
            tape.ops.append(op)
            if op.kind == "add_user":
                tape.signups.append(world.last_uid)
        return tape

    def config(self) -> dict:
        """Workload parameters for the report's config block."""
        kinds: dict[str, int] = {}
        for op in self.tape.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {**super().config(), "scenario": "churn",
                "ops": len(self.tape.ops), "op_kinds": kinds,
                "probes": len(self.queries),
                "flush": {"fsync": False, "checkpoint_bytes": self.sizes.checkpoint_bytes,
                          "checkpoints": "inline"}}

    @contextmanager
    def _durable_dir(self):
        path = Path(tempfile.mkdtemp(prefix="churn-wal-", dir=self.workdir))
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def setup_only(self, tracer) -> float:
        """One extra set-up (index, front end, WAL attach), for the median."""
        with self._durable_dir() as path:
            served = self.setup(tracer, path)
            served.close()
        return served.setup_s

    def round(self, tracer) -> RoundResult:
        """Set up, play the tape, crash, recover, then check and probe."""
        with self._durable_dir() as path:
            return self._round(path, self.tape, tracer)

    def play(self, served: _Served, tape: _Tape, tracer):
        """Apply a tape in order; returns latencies, signup uids, failures.

        The latencies are those of :class:`RoundResult` (``op`` aside),
        plus ``write_raw``.
        """
        index, engine = served.index, served.engine
        starts, raw, kinds = [], [], []
        uids, errors = [], []
        failed = 0
        for op in tape.ops:
            self.speed.tick()
            tracer.request += 1
            hits = engine.cache_hits
            t = perf_counter()
            try:
                if op.kind == "query":
                    engine.search(op.profile)
                elif op.kind == "add_user":
                    uids.append(index.add_user(op.items))
                elif op.kind == "add_items":
                    index.add_items(op.user, op.items)
                else:
                    index.remove_user(op.user)
            except Exception as exc:  # counted and reported, the tape goes on
                failed += 1
                errors.append(f"{op.kind} raised {exc!r}")
            raw.append(perf_counter() - t)
            starts.append(t)
            if op.kind != "query":
                kinds.append("write")
            else:
                kinds.append("hit" if engine.cache_hits > hits else "query")
        self.speed.sample(NEAREST)
        scaled, raw, kinds = self.speed.scale(starts, raw), np.array(raw), np.array(kinds)
        lat = {kind: scaled[kinds == kind] for kind in ("query", "hit", "write")}
        lat.update(all=scaled, all_raw=raw, write_raw=raw[kinds == "write"])
        return lat, uids, failed, errors

    def _round(self, path: Path, tape: _Tape, tracer) -> RoundResult:
        served = self.setup(tracer, path)
        index = served.index
        with tracer.paused():
            errors = self.check_build(index)  # before the tape mutates it
        before = index.stats()
        evals0 = index.engine.comparisons
        with count_wal_bytes() as wal_bytes:
            t_window = perf_counter()
            lat, uids, failed, play_errors = self.play(served, tape, tracer)
            window_s = perf_counter() - t_window
        evaluations = index.engine.comparisons - evals0
        errors += play_errors
        after = index.stats()
        checkpoints = served.durable.checkpoints
        with tracer.paused():
            if uids != tape.signups:
                errors.append("add_user returned uids the SimWorld did not predict")
            t = perf_counter()
            version, digest = index.version, edge_digest(index.graph.heaps)
            # Every round plays the same tape on the same index, so it
            # must end in the same graph; the first round's probes stand
            # for every round.
            if self._probed is None:
                self._probed = digest, self.probe_recall(index, self.queries)[0]
            elif digest != self._probed[0]:
                errors.append("the tape left a different graph than in the first round")
            recall = self._probed[1]
            oracle_s = perf_counter() - t
        out = self._round_result(
            served, recall_at_10=recall, window_s=window_s, ops=len(tape.ops),
            evaluations=evaluations, failed=failed, errors=errors,
            latencies={"op": lat["write"], "op_raw": lat.pop("write_raw"), **lat},
            counters={
                "online.update_evaluations": after["update_comparisons"]
                - before["update_comparisons"],
                "online.resplits": after["resplits_total"] - before["resplits_total"],
                "online.resplit_moved": after["resplit_moved"] - before["resplit_moved"],
                "online.degraded_rows": after["degraded"],
                "persist.checkpoint.count": checkpoints,
                "persist.wal.bytes": wal_bytes[0],
            },
            extra={"oracle_s": oracle_s,
                   "wal_bytes_per_write": wal_bytes[0] / max(1, tape.n_writes())},
        )
        # Crash: the live process state is dropped; only the directory stays.
        served.close()
        del served, index
        tracer.request += 1
        try:
            with self.speed.span() as recover, tracer.span("persist.recover"):
                recovered = DurableIndex.recover(
                    path, checkpoint_bytes=self.sizes.checkpoint_bytes,
                    background_checkpoints=False, fsync=False,
                )
        except Exception as exc:  # a recovery that raises fails the run
            out.errors.append(f"recovery raised {exc!r}")
            return out
        with tracer.paused():
            out.errors += check_recovery(recovered, version, digest)
            out.counters["persist.replay.records"] = recovered.recovery.replayed
            out.counters["persist.recover.evaluations"] = recovered.recovery.evaluations
            out.extra["recover_s"] = recover["s"]
            recovered.close()
        return out


WORKLOADS = {
    "build": BuildWorkload,
    "read-zipf": ReadZipfWorkload,
    "churn-wal": ChurnWalWorkload,
}
