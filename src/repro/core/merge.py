"""Step 3 of Cluster-and-Conquer: merging partial KNN graphs (Alg. 3).

Each user appears in ``t`` clusters (one per hashing configuration) and
is connected to up to ``t * k`` candidate neighbours; the merge keeps
the best ``k`` per user. Similarity values computed by the local
solvers travel with the edges, so no similarity is ever recomputed
during the merge — the paper's "careful to reuse similarity values"
optimisation.

The merge is one whole-graph pass, not a per-user heap loop: every
partial's valid non-self ``(u, v, score)`` edges are concatenated, the
max score per ``(u, v)`` is kept, and each user's edges are ranked by
``(-score, id)`` to keep the top ``k``.

The rows it writes are laid out exactly as offering each partial's
rows, in ``partials`` order, to a bounded heap with ``push_batch``
would lay them out. Slot order matters downstream because the online
write path evicts the *first* minimum slot, and tied scores are common
under exact Jaccard. That sequential layout is:

* a user's row is written by the last push that offers it at least one
  non-self edge;
* if that push saw more than ``k`` distinct ids (the previous top-k
  together with its own candidates), the row is in ``(-score, id)``
  order, otherwise in ascending id order;
* empty slots come last; users never offered an edge stay empty.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..graph.heap import EMPTY
from ..graph.knn_graph import KNNGraph
from .local_knn import PartialKNN

__all__ = ["merge_partials"]


def merge_partials(partials: Iterable[PartialKNN], n_users: int, k: int) -> KNNGraph:
    """Merge per-cluster partial KNN graphs into the global graph."""
    graph = KNNGraph(n_users, k)
    u, v, s, push = _edges(partials)
    if u.size == 0:
        return graph
    last = np.full(n_users, -1, dtype=np.int64)
    np.maximum.at(last, u, push)
    before = push < last[u]

    du, dv, ds, group = _max_per_pair(u, v, s, n_users)
    rank = _rank(du, ds)
    kept = rank < k

    # Users whose last push saw at most k distinct ids get an id-ordered
    # row: those with at most k candidates overall, and those whose last
    # push only offered ids already in the previous top-k. A pair no
    # earlier push offered is new to the last push, which rules the
    # latter out.
    id_order = np.bincount(du, minlength=n_users) <= k
    offered_before = np.zeros(du.size, dtype=bool)
    offered_before[group[before]] = True
    has_new = np.bincount(du[~offered_before], minlength=n_users) > 0
    maybe = ~id_order & ~has_new
    if maybe.any():
        id_order |= _last_within_previous_top_k(u, v, s, before, maybe, k)

    ku, kv, ks = du[kept], dv[kept], ds[kept]
    # The pairs are sorted by (u, v), so a kept edge's position within
    # its user's run is its ascending-id slot.
    slot = np.where(id_order[ku], _positions(ku), rank[kept])
    graph.heaps.ids[ku, slot] = kv
    graph.heaps.scores[ku, slot] = ks
    return graph


def _edges(partials: Iterable[PartialKNN]):
    """Valid non-self edges of every partial, with their push number.

    A push is one ``(partial, member)`` row; pushes are numbered in
    ``partials`` order, and edges come out in push order.
    """
    partials = list(partials)
    rows_u = [np.asarray(p.users, dtype=np.int64) for p in partials]
    if not rows_u:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64), empty
    rows_u = np.concatenate(rows_u)
    widths = np.repeat([p.ids.shape[1] for p in partials], [len(p.users) for p in partials])
    push = np.repeat(np.arange(rows_u.size, dtype=np.int64), widths)
    u = rows_u[push]
    v = np.concatenate([p.ids.ravel() for p in partials]).astype(np.int64)
    s = np.concatenate([p.scores.ravel() for p in partials]).astype(np.float64)
    valid = (v != EMPTY) & (v != u)
    return u[valid], v[valid], s[valid], push[valid]


def _max_per_pair(u, v, s, n_users: int):
    """Distinct ``(u, v)`` pairs in ascending order with their max score.

    Also returns, for each input edge, the index of its pair.
    """
    key = u * n_users + v
    order = np.argsort(key)
    sorted_key = key[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(first)
    group = np.empty(order.size, dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    pair_key = sorted_key[starts]
    best = np.maximum.reduceat(s[order], starts)
    return pair_key // n_users, pair_key % n_users, best, group


def _positions(sorted_u: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal ``sorted_u``."""
    idx = np.arange(sorted_u.size, dtype=np.int64)
    start = np.ones(sorted_u.size, dtype=bool)
    start[1:] = sorted_u[1:] != sorted_u[:-1]
    return idx - np.maximum.accumulate(np.where(start, idx, 0))


def _rank(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rank of each pair within its user by ``(-score, id)``.

    The pairs must be sorted by ``(u, v)``: one stable sort on
    ``(u, -score)`` then leaves equal scores in id order. The score
    enters that sort key as its dense rank.
    """
    score_rank = np.unique(s, return_inverse=True)[1].astype(np.int64)
    n_ranks = int(score_rank.max()) + 1
    order = np.argsort(u * n_ranks + (n_ranks - 1 - score_rank), kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = _positions(u[order])
    return rank


def _last_within_previous_top_k(u, v, s, before, users, k) -> np.ndarray:
    """Mask of ``users`` whose last push only offered previous top-k ids.

    ``users`` are those with more than ``k`` distinct ids whose last
    push offered no unseen id; the top-k before the last push is
    recomputed for them alone.
    """
    n_users = users.size
    mine = users[u]
    sel = mine & before
    bu, bv, bs, _ = _max_per_pair(u[sel], v[sel], s[sel], n_users)
    kept = _rank(bu, bs) < k
    top = bu[kept] * n_users + bv[kept]
    last_sel = mine & ~before
    outside = ~np.isin(u[last_sel] * n_users + v[last_sel], top)
    out = users.copy()
    out[u[last_sel][outside]] = False
    return out
