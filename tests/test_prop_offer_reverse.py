"""Differential property suite: array-pass ``offer_reverse`` == push loop.

``KNNGraph.offer_reverse`` offers the edge ``v -> source`` to every
candidate row in one array pass. It promises exactly what offering the
edges one at a time through ``NeighborHeaps.push`` did: the same
``ids`` and ``scores`` arrays (slot layout included — later evictions
take the *first* minimum slot), the same changed-row count, and the
same journal entries in the same order. This suite pins the promise
against that per-candidate loop, kept here as the scalar oracle.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED``.
"""

import os

import numpy as np
import pytest

from repro.graph.heap import EMPTY
from repro.graph.knn_graph import KNNGraph

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE + i for i in range(6)]


def oracle_offer_reverse(graph, source, cands, scores):
    """The scalar reverse offer: one ``push`` per candidate, in order."""
    changed = 0
    for v, s in zip(cands, scores):
        changed += bool(graph.heaps.push(int(v), source, float(s)))
    return changed


def _graph(ids, scores, journal=True):
    ids = np.asarray(ids, dtype=np.int32)
    graph = KNNGraph(ids.shape[0], ids.shape[1])
    graph.heaps.ids[:] = ids
    graph.heaps.scores[:] = np.asarray(scores, dtype=np.float64)
    if journal:
        graph.heaps.attach_journal()
    return graph


def _check(graph, source, cands, scores, ctx=""):
    """Run both paths on copies; assert every observable is identical."""
    want = graph.copy()
    got = graph.copy()
    if graph.heaps.journal is not None:
        want.heaps.attach_journal()
        got.heaps.attach_journal()
    n_want = oracle_offer_reverse(want, source, cands, scores)
    n_got = got.offer_reverse(source, cands, scores)
    assert n_got == n_want, f"count diverges {ctx}"
    assert np.array_equal(got.heaps.ids, want.heaps.ids), f"ids diverge {ctx}"
    assert np.array_equal(got.heaps.scores, want.heaps.scores), f"scores diverge {ctx}"
    assert got.heaps.journal == want.heaps.journal, f"journal diverges {ctx}"
    return got, n_got


SOURCE = 9


class TestCases:
    """Hand-built rows, one per branch of ``push``."""

    # Row 0 holds the source at 0.5; row 1 is full without it, min 0.2
    # twice (first-min slot 1); row 2 has an EMPTY slot; row 3 is empty.
    IDS = [[1, SOURCE, 2], [4, 5, 6], [7, EMPTY, 8], [EMPTY, EMPTY, EMPTY]]
    SCORES = [[0.9, 0.5, 0.1], [0.7, 0.2, 0.2], [0.3, -np.inf, 0.6],
              [-np.inf, -np.inf, -np.inf]]

    def graph(self):
        return _graph(self.IDS, self.SCORES)

    @pytest.mark.parametrize("score,changed", [(0.8, 1), (0.3, 0), (0.5, 0)])
    def test_source_present(self, score, changed):
        got, n = _check(self.graph(), SOURCE, [0], [score])
        assert n == changed
        assert got.heaps.journal == []  # a rescoring is not structural

    def test_tie_with_row_minimum_rejects(self):
        got, n = _check(self.graph(), SOURCE, [1], [0.2])
        assert n == 0 and not got.heaps.contains(1, SOURCE)

    def test_beats_minimum_evicts_first_min_slot(self):
        got, n = _check(self.graph(), SOURCE, [1], [0.25])
        assert n == 1 and got.heaps.ids[1, 1] == SOURCE
        assert got.heaps.journal == [(1, 5, False), (1, SOURCE, True)]

    @pytest.mark.parametrize("score", [0.0, 0.05, 1.0])
    def test_empty_slot_always_accepts(self, score):
        got, n = _check(self.graph(), SOURCE, [2, 3], [score, score])
        assert n == 2
        assert got.heaps.journal == [(2, SOURCE, True), (3, SOURCE, True)]

    def test_source_inside_cands_is_skipped(self):
        _check(self.graph(), SOURCE, [3, SOURCE, 1], [0.4, 0.99, 0.9])
        _check(self.graph(), 2, [2, 0], [0.4, 0.3])

    def test_all_branches_in_one_pass(self):
        _check(self.graph(), SOURCE, [3, 1, 0, 2], [0.1, 0.25, 0.8, 0.0])

    def test_empty_cands(self):
        got, n = _check(self.graph(), SOURCE, [], [])
        assert n == 0

    def test_no_journal_attached(self):
        graph = _graph(self.IDS, self.SCORES, journal=False)
        got, _ = _check(graph, SOURCE, [3, 1, 0, 2], [0.1, 0.25, 0.8, 0.0])
        assert got.heaps.journal is None

    def test_k1_rows(self):
        graph = _graph([[SOURCE], [2], [EMPTY], [0]], [[0.4], [0.4], [-np.inf], [0.1]])
        for score in (0.1, 0.4, 0.7):
            _check(graph, SOURCE, [0, 1, 2, 3], [score] * 4, f"score={score}")

    def test_duplicate_cands_rejected(self):
        graph = self.graph()
        before = graph.copy()
        with pytest.raises(ValueError):
            graph.offer_reverse(SOURCE, [1, 3, 1], [0.3, 0.3, 0.4])
        assert np.array_equal(graph.heaps.ids, before.heaps.ids)
        assert np.array_equal(graph.heaps.scores, before.heaps.scores)
        assert graph.heaps.journal == []

    def test_source_repeated_is_not_a_duplicate(self):
        _check(self.graph(), SOURCE, [SOURCE, 1, SOURCE], [0.5, 0.3, 0.5])


def _random_graph(rng, n, k, levels):
    """Random rows: duplicates-free ids, EMPTY padding, tied scores."""
    ids = np.full((n, k), EMPTY, dtype=np.int32)
    scores = np.full((n, k), -np.inf)
    for u in range(n):
        width = int(rng.integers(0, k + 1))
        pool = np.delete(np.arange(n), u)
        row = rng.choice(pool, size=min(width, pool.size), replace=False)
        slots = rng.choice(k, size=row.size, replace=False)
        ids[u, slots] = row
        scores[u, slots] = rng.choice(levels, size=row.size)
    return _graph(ids, scores)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_rows(seed):
    rng = np.random.default_rng(seed)
    for trial in range(40):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 7))
        # Few distinct levels force ties with row minima and with the
        # score already held for the source.
        levels = np.linspace(0.0, 1.0, 3) if rng.random() < 0.5 else rng.random(40)
        graph = _random_graph(rng, n, k, levels)
        source = int(rng.integers(0, n))
        size = int(rng.integers(0, n + 1))
        cands = rng.choice(n, size=size, replace=False)
        scores = rng.choice(levels, size=size)
        _check(graph, source, cands, scores, f"seed={seed} trial={trial}")


@pytest.mark.parametrize("seed", SEEDS)
def test_repeated_offers_compose(seed):
    """A sequence of offers from different sources (the online write
    path's pattern) stays identical step by step."""
    rng = np.random.default_rng(seed)
    n, k = 40, 5
    want = _random_graph(rng, n, k, rng.random(30))
    got = want.copy()
    want.heaps.attach_journal()
    got.heaps.attach_journal()
    for step in range(60):
        source = int(rng.integers(0, n))
        cands = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        scores = np.round(rng.random(cands.size), 2)
        n_want = oracle_offer_reverse(want, source, cands, scores)
        assert got.offer_reverse(source, cands, scores) == n_want, f"step {step}"
        assert np.array_equal(got.heaps.ids, want.heaps.ids), f"step {step}"
        assert np.array_equal(got.heaps.scores, want.heaps.scores), f"step {step}"
        assert got.heaps.drain_journal() == want.heaps.drain_journal(), f"step {step}"
