"""Differential property suite: whole-graph merge == per-user heap loop.

``merge_partials`` (Alg. 3) runs as one array pass over every partial's
edges. It promises the exact ``heaps.ids`` and ``heaps.scores`` arrays
the original sequential loop produced, which offered each partial's
rows, in order, to a bounded heap via ``push_batch``. The slot layout
is part of that promise: the online write path evicts the *first*
minimum slot, so a different layout of tied scores changes which
neighbour a later update evicts. This suite pins the promise on
randomized partials and on real Cluster-and-Conquer builds.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED``.
"""

import importlib
import os

import numpy as np
import pytest

from repro import C2Params, cluster_and_conquer, make_engine
from repro.core import merge_partials
from repro.core.local_knn import PartialKNN
from repro.data import SyntheticSpec, generate
from repro.graph.heap import EMPTY
from repro.graph.knn_graph import KNNGraph

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE + i for i in range(6)]


def oracle_merge(partials, n_users, k):
    """The sequential merge: one ``push_batch`` per (partial, member)."""
    graph = KNNGraph(n_users, k)
    for partial in partials:
        for pos, user in enumerate(partial.users):
            ids, scores = partial.neighborhood(pos)
            if ids.size:
                graph.add_batch(int(user), ids, scores)
    return graph


def _assert_same(graph, want, ctx=""):
    assert np.array_equal(graph.heaps.ids, want.heaps.ids), f"ids diverge {ctx}"
    assert np.array_equal(graph.heaps.scores, want.heaps.scores), f"scores diverge {ctx}"


def _check(partials, n_users, k, ctx=""):
    want = oracle_merge(partials, n_users, k)
    _assert_same(merge_partials(partials, n_users, k), want, ctx)
    return want


def _random_partial(rng, n_users, width, levels):
    """Random members, random (often tied) scores, self edges, padding."""
    size = int(rng.integers(1, n_users + 1))
    users = rng.choice(n_users, size=size, replace=rng.random() < 0.8)
    ids = rng.integers(0, n_users, size=(size, width)).astype(np.int32)
    scores = rng.choice(levels, size=(size, width))
    pad = rng.random((size, width)) < 0.25
    ids[pad] = EMPTY
    scores[pad] = -np.inf
    selfish = rng.random(size) < 0.2
    ids[selfish, 0] = users[selfish]
    return PartialKNN(users.astype(np.int64), ids, scores)


def _levels(rng):
    # Few distinct values force ties across ids; many make them rare.
    if rng.random() < 0.5:
        return np.linspace(0.0, 1.0, 3)
    return np.round(rng.random(50), 6)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_partials(seed):
    rng = np.random.default_rng(seed)
    for trial in range(25):
        n_users = int(rng.integers(2, 40))
        k = int(rng.integers(1, 8))
        levels = _levels(rng)
        partials = [
            _random_partial(rng, n_users, int(rng.integers(max(1, k - 1), k + 3)), levels)
            for _ in range(int(rng.integers(0, 7)))
        ]
        _check(partials, n_users, k, f"seed={seed} trial={trial}")


@pytest.mark.parametrize("seed", SEEDS)
def test_last_partial_within_previous_top_k(seed):
    """A last push that offers only ids already in a full row leaves that
    row in ascending-id order (at most k distinct ids seen), with max
    scores applied — rescored up, down, or unchanged."""
    rng = np.random.default_rng(seed)
    n_users, k = 30, 4
    levels = np.linspace(0.0, 1.0, 5)
    partials = [_random_partial(rng, n_users, k + 2, levels) for _ in range(6)]
    before = _check(partials, n_users, k)
    users = np.flatnonzero((before.heaps.ids != EMPTY).sum(axis=1) == k)
    assert users.size
    ids = np.full((users.size, k), EMPTY, dtype=np.int32)
    scores = np.full((users.size, k), -np.inf)
    within = []
    for pos, u in enumerate(users):
        row = before.heaps.ids[u]
        take = rng.choice(row, size=int(rng.integers(1, k + 1)), replace=False)
        if rng.random() < 0.3:  # an unseen-in-row id: score-ordered row
            take[0] = rng.choice(np.setdiff1d(np.arange(n_users), np.append(row, u)))
        else:
            within.append(u)
        ids[pos, : take.size] = take
        scores[pos, : take.size] = rng.choice(levels, size=take.size)
    want = _check(partials + [PartialKNN(users, ids, scores)], n_users, k)
    assert within
    for u in within:
        row = want.heaps.ids[u]
        assert np.array_equal(row, np.sort(row)), "oracle row not in id order"


def test_max_score_wins_across_partials():
    p1 = PartialKNN(np.array([0]), np.array([[1, 2]], np.int32), np.array([[0.9, 0.2]]))
    p2 = PartialKNN(np.array([0]), np.array([[1, 3]], np.int32), np.array([[0.1, 0.5]]))
    p3 = PartialKNN(np.array([0]), np.array([[2, 4]], np.int32), np.array([[0.7, 0.5]]))
    for order in ([p1, p2, p3], [p3, p2, p1], [p2, p1, p3]):
        want = _check(order, 5, 2)
        assert dict(zip(*want.heaps.items(0))) == {1: 0.9, 2: 0.7}


def test_tied_scores_break_by_id():
    p1 = PartialKNN(np.array([0]), np.array([[5, 3, 4]], np.int32), np.full((1, 3), 0.5))
    p2 = PartialKNN(np.array([0]), np.array([[2, 1]], np.int32), np.full((1, 2), 0.5))
    want = _check([p1, p2], 6, 3)
    assert want.heaps.ids[0].tolist() == [1, 2, 3]


def test_self_only_rows_do_not_rewrite():
    """A later push with only a self edge is no push at all: the row
    keeps the layout its previous push gave it."""
    p1 = PartialKNN(np.array([0]), np.array([[3, 1, 2]], np.int32), np.array([[0.1, 0.9, 0.5]]))
    p2 = PartialKNN(np.array([0]), np.array([[0, EMPTY]], np.int32), np.array([[1.0, -np.inf]]))
    _check([p1, p2], 4, 2)


def test_degenerate_inputs():
    _check([], 4, 2)
    padded = PartialKNN(np.array([1, 2]), np.full((2, 3), EMPTY, np.int32), np.full((2, 3), -np.inf))
    _check([padded], 5, 2)
    empty = PartialKNN(np.empty(0, np.int64), np.empty((0, 3), np.int32), np.empty((0, 3)))
    _check([empty, padded, empty], 5, 2)


# ----------------------------------------------------------------------
# Real builds: the whole pipeline with the oracle patched in
# ----------------------------------------------------------------------


def _dataset(seed):
    spec = SyntheticSpec(
        name="propmerge", n_users=240, n_items=300, mean_profile_size=20.0,
        n_communities=6, community_pool_size=50, min_profile_size=5,
    )
    return generate(spec, seed=seed)


@pytest.mark.parametrize("backend", ["goldfinger", "exact"])
@pytest.mark.parametrize("rho", [5, 1])
def test_builds_match_oracle(monkeypatch, backend, rho):
    """rho=1 pushes clusters of >= k² users to Hyrec, so Hyrec partials
    are merged too; rho=5 brute-forces every cluster."""
    cc = importlib.import_module("repro.core.cluster_and_conquer")
    dataset = _dataset(_SEED_BASE + rho)
    params = C2Params(k=5, n_buckets=16, n_hashes=4, split_threshold=80, rho=rho, seed=3)
    got = cluster_and_conquer(make_engine(dataset, backend=backend), params)
    monkeypatch.setattr(cc, "merge_partials", oracle_merge)
    want = cluster_and_conquer(make_engine(dataset, backend=backend), params)
    _assert_same(got.graph, want.graph, f"{backend} rho={rho}")
    assert got.comparisons == want.comparisons
    if rho == 1:
        assert (got.extra["cluster_sizes"] >= params.k**2).any(), "no Hyrec cluster"
