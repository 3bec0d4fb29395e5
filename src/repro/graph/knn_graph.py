"""The KNN graph object returned by every algorithm in this library."""

from __future__ import annotations

import numpy as np

from ..similarity.engine import SimilarityEngine
from .heap import EMPTY, NeighborHeaps

__all__ = ["KNNGraph", "random_graph"]


class KNNGraph:
    """An (approximate) K-nearest-neighbour graph over ``n`` users.

    Thin wrapper around :class:`NeighborHeaps` adding graph-level
    queries. Construction algorithms mutate the underlying heaps; a
    finished graph is usually treated as read-only.
    """

    def __init__(self, n_users: int, k: int) -> None:
        self.heaps = NeighborHeaps(n_users, k)

    # -- structure -------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of users (nodes)."""
        return self.heaps.n

    @property
    def k(self) -> int:
        """Neighbourhood capacity."""
        return self.heaps.k

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour ids of ``u`` (unordered)."""
        return self.heaps.neighbors(u)

    def neighborhood(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of ``u``'s neighbours, best first."""
        return self.heaps.items(u)

    def add(self, u: int, v: int, score: float) -> bool:
        """Offer edge ``u -> v`` with ``score``; True if kept."""
        return self.heaps.push(u, v, score)

    def add_batch(self, u: int, cands: np.ndarray, scores: np.ndarray) -> int:
        """Offer many candidate neighbours to ``u``; returns #insertions."""
        return int(self.heaps.push_batch(u, cands, scores).size)

    def add_batch_ids(self, u: int, cands: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Like :meth:`add_batch` but returns the inserted neighbour ids."""
        return self.heaps.push_batch(u, cands, scores)

    # -- incremental maintenance (online-update subsystem) ---------------

    def grow(self, n_users: int) -> None:
        """Extend the graph to ``n_users`` nodes (new nodes edgeless)."""
        self.heaps.grow(n_users)

    def clear_user(self, u: int) -> None:
        """Drop all outgoing edges of ``u``."""
        self.heaps.clear_row(u)

    def remove_user(self, u: int, holders: np.ndarray | None = None) -> np.ndarray:
        """Detach ``u`` entirely: drop its row and every reverse edge.

        Returns the users that lost ``u`` as a neighbour (their lists
        are left one short — the online index refills them lazily the
        next time they are touched by an update). When ``holders`` —
        the rows known to keep ``u``, from a maintained
        :class:`~repro.graph.reverse.ReverseAdjacency` — is given, only
        those rows are scanned (O(holders·k)) instead of the whole
        table (O(n·k)).
        """
        self.heaps.clear_row(u)
        if holders is None:
            return self.heaps.purge_id(u)
        return self.heaps.purge_id_rows(u, holders)

    def rescore_user(self, u: int, cands: np.ndarray, scores: np.ndarray) -> None:
        """Replace ``u``'s neighbourhood with the top-k of ``cands``."""
        self.heaps.clear_row(u)
        self.heaps.push_batch(u, cands, scores)

    def offer_reverse(self, source: int, cands: np.ndarray, scores: np.ndarray) -> int:
        """Offer edge ``v -> source`` to each ``v`` in ``cands``.

        Reuses already-computed similarity values (Jaccard is
        symmetric), the same no-recompute discipline as the C² merge
        step; returns the number of lists that changed.

        One array pass with exactly the effect of calling
        :meth:`NeighborHeaps.push` ``(v, source, s)`` per candidate in
        order — same slots, scores, count and journal entries: a row
        already holding ``source`` keeps the higher score; otherwise
        ``source`` replaces the row's first minimum slot if that slot
        is empty or scores strictly lower. Candidates equal to
        ``source`` are skipped. Each candidate must name a distinct
        row (``ValueError`` otherwise), which is what makes the rows
        independent and the pass order-free.
        """
        cands = np.asarray(cands, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        keep = cands != source
        cands, scores = cands[keep], scores[keep]
        if cands.size == 0:
            return 0
        ordered = np.sort(cands)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("offer_reverse candidates must be distinct")
        heaps = self.heaps
        row_ids = heaps.ids[cands]
        row_scores = heaps.scores[cands]
        hit = row_ids == source
        present = hit.any(axis=1)
        slot = np.where(present, hit.argmax(axis=1), row_scores.argmin(axis=1))
        pos = np.arange(cands.size)
        held = row_ids[pos, slot]
        current = row_scores[pos, slot]
        accept = np.where(
            present, scores > current, (held == EMPTY) | ~(current >= scores)
        )
        rows, slot = cands[accept], slot[accept]
        heaps.ids[rows, slot] = source
        heaps.scores[rows, slot] = scores[accept]
        if heaps.journal is not None:
            source = int(source)
            fresh = accept & ~present
            for v, evicted in zip(cands[fresh].tolist(), held[fresh].tolist()):
                if evicted != EMPTY:
                    heaps.journal.append((v, evicted, False))
                heaps.journal.append((v, source, True))
        return int(accept.sum())

    def edge_count(self) -> int:
        """Number of directed edges currently stored."""
        return int((self.heaps.ids != EMPTY).sum())

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the raw ``(ids, scores)`` arrays, shape ``(n, k)``."""
        return self.heaps.ids.copy(), self.heaps.scores.copy()

    def to_dict(self) -> dict[int, list[tuple[int, float]]]:
        """Plain-Python view ``{u: [(v, score), ...best first]}``."""
        out = {}
        for u in range(self.n_users):
            ids, scores = self.neighborhood(u)
            out[u] = [(int(v), float(s)) for v, s in zip(ids, scores)]
        return out

    def copy(self) -> "KNNGraph":
        """Deep copy of the graph."""
        g = KNNGraph(self.n_users, self.k)
        g.heaps.ids[:] = self.heaps.ids
        g.heaps.scores[:] = self.heaps.scores
        return g


def random_graph(engine: SimilarityEngine, k: int, seed: int = 0) -> KNNGraph:
    """The random ``k``-degree starting graph of greedy algorithms.

    Each user gets ``k`` distinct random neighbours with their true
    (engine-scored, counted) similarities — the paper's "initial random
    k-degree graph" whose poor graph locality C² is designed to fix.
    """
    rng = np.random.default_rng(seed)
    n = engine.n_users
    graph = KNNGraph(n, k)
    for u in range(n):
        take = min(k, n - 1)
        if take <= 0:
            continue
        cands = rng.choice(n - 1, size=take, replace=False)
        cands[cands >= u] += 1  # skip u itself
        scores = engine.one_to_many(u, cands)
        graph.add_batch(u, cands, scores)
    return graph
