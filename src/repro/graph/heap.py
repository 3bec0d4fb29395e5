"""Bounded neighbour lists — the per-user "heap of size k" of the paper.

Each user's neighbourhood is a fixed-capacity set of ``(neighbor,
score)`` pairs keeping the ``k`` highest-scoring distinct neighbours
seen so far. Rows are stored unordered in flat numpy arrays (ids +
scores); with ``k ≈ 30`` a linear min-scan beats a real heap and the
batch update path vectorises cleanly, which is what the greedy
algorithms (Hyrec, NN-Descent) and the online write path hammer on.
The C² merge writes whole rows at once but reproduces the layout this
class's ``push_batch`` gives them.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["NeighborHeaps", "edge_digest"]

EMPTY = -1


def edge_digest(heaps: NeighborHeaps) -> int:
    """Slot-order-independent fingerprint of a heap table's edge ids.

    Rows are sorted before hashing, so a primary and a replica that
    hold the same neighbour sets in different slot layouts (or with
    drifted scores) digest identically. This is the convergence oracle
    both replica shipping and the anti-entropy auditor compare in.
    """
    return zlib.crc32(np.sort(heaps.ids[: heaps.n], axis=1).tobytes())


class NeighborHeaps:
    """``n`` bounded neighbour lists of capacity ``k``.

    Attributes:
        ids: ``(n, k)`` int32 array; ``EMPTY`` marks free slots.
        scores: ``(n, k)`` float64 array; ``-inf`` in free slots.
    """

    def __init__(self, n: int, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = int(n)
        self.k = int(k)
        # ``ids``/``scores`` are views into capacity buffers so that
        # per-signup growth is amortized O(1): the buffers double when
        # exhausted instead of reallocating on every new row.
        self._ids_buf = np.full((n, k), EMPTY, dtype=np.int32)
        self._scores_buf = np.full((n, k), -np.inf, dtype=np.float64)
        self.ids = self._ids_buf[: self.n]
        self.scores = self._scores_buf[: self.n]
        self.reallocations = 0
        # Optional edge journal: when attached, every structural change
        # to the edge set is recorded as ``(u, v, added)`` — the raw
        # material for incremental reverse-adjacency maintenance. Score
        # rescorings of an existing edge are not structural and are not
        # recorded. ``None`` (the default) costs one branch per
        # primitive, so batch construction pays nothing.
        self.journal: list[tuple[int, int, bool]] | None = None

    # ------------------------------------------------------------------
    # Pickling (snapshot clones: replicas, persistence)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # ``ids``/``scores`` are views into the capacity buffers, and
        # numpy pickles a view as an independent copy — a round-trip
        # would silently sever them from ``_ids_buf``/``_scores_buf``.
        # The next within-capacity grow() then rebinds the views to the
        # stale buffer, reverting every edge change applied since the
        # unpickle (a corruption the WAL-recovery property tests
        # caught). Ship the occupied prefix once, rebuild on load.
        state = self.__dict__.copy()
        state["_ids_buf"] = self.ids.copy()
        state["_scores_buf"] = self.scores.copy()
        del state["ids"], state["scores"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.ids = self._ids_buf[: self.n]
        self.scores = self._scores_buf[: self.n]

    # ------------------------------------------------------------------

    def size(self, u: int) -> int:
        """Number of occupied slots in ``u``'s list."""
        return int((self.ids[u] != EMPTY).sum())

    def contains(self, u: int, v: int) -> bool:
        """Whether ``v`` is currently a neighbour of ``u``."""
        return bool((self.ids[u] == v).any())

    def neighbors(self, u: int) -> np.ndarray:
        """Occupied neighbour ids of ``u`` (unordered copy)."""
        row = self.ids[u]
        return row[row != EMPTY].copy()

    def items(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of occupied slots, sorted by score desc."""
        row = self.ids[u]
        mask = row != EMPTY
        ids, scores = row[mask], self.scores[u][mask]
        order = np.argsort(-scores, kind="stable")
        return ids[order].copy(), scores[order].copy()

    def min_score(self, u: int) -> float:
        """Lowest score currently kept for ``u`` (-inf if not full)."""
        return float(self.scores[u].min())

    # ------------------------------------------------------------------
    # Incremental maintenance (online-update subsystem)
    # ------------------------------------------------------------------

    def attach_journal(self) -> None:
        """Start recording per-edge ``(u, v, added)`` deltas."""
        self.journal = []

    def drain_journal(self) -> list[tuple[int, int, bool]]:
        """Return and reset the recorded deltas (empty if detached)."""
        if self.journal is None:
            return []
        out, self.journal = self.journal, []
        return out

    def grow(self, n: int) -> None:
        """Extend to ``n`` rows; new rows start empty.

        Amortized: the backing buffers double when exhausted, so ``m``
        one-row grows cost O(log m) reallocations (regression-tested;
        the per-signup reallocation was an O(m·n·k) aggregate sink).
        """
        if n <= self.n:
            return
        cap = self._ids_buf.shape[0]
        if n > cap:
            new_cap = max(int(n), 2 * cap, 8)
            ids_buf = np.full((new_cap, self.k), EMPTY, dtype=np.int32)
            ids_buf[: self.n] = self.ids
            scores_buf = np.full((new_cap, self.k), -np.inf, dtype=np.float64)
            scores_buf[: self.n] = self.scores
            self._ids_buf, self._scores_buf = ids_buf, scores_buf
            self.reallocations += 1
        self.n = int(n)
        self.ids = self._ids_buf[: self.n]
        self.scores = self._scores_buf[: self.n]

    def clear_row(self, u: int) -> None:
        """Empty ``u``'s neighbour list."""
        if self.journal is not None:
            row = self.ids[u]
            self.journal.extend((u, int(v), False) for v in row[row != EMPTY])
        self.ids[u].fill(EMPTY)
        self.scores[u].fill(-np.inf)

    def purge_id(self, v: int) -> np.ndarray:
        """Remove ``v`` from every neighbour list it appears in.

        Returns the affected rows. A vectorised column sweep — O(n·k)
        memory traffic but zero similarity evaluations, which is the
        currency that matters. When the holders of ``v`` are already
        known (a maintained reverse-adjacency index), prefer
        :meth:`purge_id_rows`, which costs O(holders · k) instead.
        """
        mask = self.ids == v
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size:
            self.ids[mask] = EMPTY
            self.scores[mask] = -np.inf
            if self.journal is not None:
                self.journal.extend((int(u), v, False) for u in rows)
        return rows

    def purge_id_rows(self, v: int, rows: np.ndarray) -> np.ndarray:
        """Remove ``v`` from the given ``rows`` only.

        The targeted variant of :meth:`purge_id` for callers that know
        which rows hold ``v`` (e.g. from a maintained reverse-adjacency
        index): O(len(rows)·k) instead of a full O(n·k) column sweep.
        Returns the rows that actually changed.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return rows
        mask = self.ids[rows] == v
        hit = mask.any(axis=1)
        rows = rows[hit]
        if rows.size:
            sub_ids = self.ids[rows]
            sub_scores = self.scores[rows]
            sub_ids[mask[hit]] = EMPTY
            sub_scores[mask[hit]] = -np.inf
            self.ids[rows] = sub_ids
            self.scores[rows] = sub_scores
            if self.journal is not None:
                self.journal.extend((int(u), v, False) for u in rows)
        return rows

    def apply_edge_deltas(self, edges) -> None:
        """Replay shipped ``(u, v, added, score)`` deltas onto this table.

        The replica-side write path: a primary journals its structural
        edge changes, ships them (with the post-mutation score looked
        up per added edge), and the replica replays them here without
        any capacity-eviction logic of its own — the journal already
        recorded every eviction as an explicit removal, so a free slot
        is guaranteed for every add. Raises ``ValueError`` when the
        guarantee is violated (a gap in the delta stream); callers
        treat that as "resync from a fresh snapshot".

        Replays are journaled like any other structural change, so a
        replica's own views (reverse adjacency, caches) keep
        composing.

        Hot path: WAL recovery replays every delta since the last
        checkpoint through here. Deltas are grouped per user row and
        each touched row is read out (``tolist``) and written back
        exactly once — the per-edge slot scans run as plain-python
        ``list.index`` over the k-element row copy (on rows this small
        that beats a numpy masked scan by an order of magnitude), but
        the numpy crossings are O(touched rows), not O(edges). Journal
        entries keep per-``(u, v)`` recording order; entries of
        different rows may interleave differently than a strictly
        per-edge replay, which no consumer observes (reverse adjacency
        is per-target sets, caches read ids only).

        On a delta-stream gap the error is raised with the failing
        row unwritten; previously grouped rows keep their applied
        state — callers treat the error as "resync from a fresh
        snapshot" either way.
        """
        by_row: dict[int, list] = {}
        for edge in edges:
            by_row.setdefault(int(edge[0]), []).append(edge)
        journal = self.journal
        for u, row_edges in by_row.items():
            row = self.ids[u].tolist()
            srow = self.scores[u].tolist()
            entries: list[tuple[int, int, bool]] = []
            for _, v, added, score in row_edges:
                v = int(v)
                if added:
                    try:  # re-add after a drop in the same stream
                        srow[row.index(v)] = score
                        continue
                    except ValueError:
                        pass
                    try:
                        free = row.index(EMPTY)
                    except ValueError:
                        raise ValueError(
                            f"no free slot for shipped edge {u}->{v} "
                            "(delta stream out of order or incomplete)"
                        ) from None
                    row[free] = v
                    srow[free] = score
                    entries.append((u, v, True))
                else:
                    try:
                        slot = row.index(v)
                    except ValueError:
                        continue
                    row[slot] = EMPTY
                    srow[slot] = -np.inf
                    entries.append((u, v, False))
            self.ids[u] = row
            self.scores[u] = srow
            if journal is not None:
                journal.extend(entries)

    def edge_sets(self) -> list[set[int]]:
        """Per-row neighbour-id sets (slot-order independent).

        The convergence currency of the replica tier: two tables whose
        ``edge_sets`` match serve identical graph walks regardless of
        slot layout or score drift (the searcher scores candidates
        against the query, never from the stored edge scores).
        """
        return [
            set(int(v) for v in row[row != EMPTY]) for row in self.ids
        ]

    # ------------------------------------------------------------------

    def push(self, u: int, v: int, score: float) -> bool:
        """Offer neighbour ``v`` with ``score`` to user ``u``.

        Returns True if the list changed. Self-loops are rejected; a
        neighbour already present keeps the highest score seen (matching
        the batch path's max-per-id semantics).
        """
        if v == u:
            return False
        present = np.flatnonzero(self.ids[u] == v)
        if present.size:
            slot = int(present[0])
            if score > self.scores[u, slot]:
                self.scores[u, slot] = score
                return True
            return False
        slot = int(np.argmin(self.scores[u]))
        evicted = int(self.ids[u, slot])
        if evicted != EMPTY and self.scores[u, slot] >= score:
            return False
        self.ids[u, slot] = v
        self.scores[u, slot] = score
        if self.journal is not None:
            if evicted != EMPTY:
                self.journal.append((u, evicted, False))
            self.journal.append((u, v, True))
        return True

    def push_batch(self, u: int, cands: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Offer many candidates to ``u`` at once; returns inserted ids.

        Candidates may contain duplicates and ``u`` itself; the final
        row is the top-k of (current row ∪ candidates) by score. The
        returned array holds the ids that newly entered the list (used
        by NN-Descent to maintain its "new neighbour" flags).
        """
        cands = np.asarray(cands, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        keep = cands != u
        cands, scores = cands[keep], scores[keep]
        if cands.size == 0:
            return np.empty(0, dtype=np.int64)

        row_ids = self.ids[u]
        occupied = row_ids != EMPTY
        old_ids = row_ids[occupied].astype(np.int64)
        old_scores = self.scores[u][occupied]

        all_ids = np.concatenate([old_ids, cands])
        all_scores = np.concatenate([old_scores, scores])
        # Deduplicate by id, keeping the highest score per id.
        order = np.lexsort((-all_scores, all_ids))
        all_ids, all_scores = all_ids[order], all_scores[order]
        first = np.ones(all_ids.size, dtype=bool)
        first[1:] = all_ids[1:] != all_ids[:-1]
        all_ids, all_scores = all_ids[first], all_scores[first]

        if all_ids.size > self.k:
            # Total order (-score, id): deterministic tie-breaking, so
            # equal-score neighbours cannot churn in and out of the
            # top-k across iterations (which would stall δ-termination
            # of the greedy algorithms with phantom updates).
            top = np.lexsort((all_ids, -all_scores))[: self.k]
            new_ids, new_scores = all_ids[top], all_scores[top]
        else:
            new_ids, new_scores = all_ids, all_scores

        inserted = np.setdiff1d(new_ids, old_ids, assume_unique=False)
        self.ids[u].fill(EMPTY)
        self.scores[u].fill(-np.inf)
        self.ids[u, : new_ids.size] = new_ids
        self.scores[u, : new_scores.size] = new_scores
        if self.journal is not None:
            removed = np.setdiff1d(old_ids, new_ids, assume_unique=False)
            self.journal.extend((u, int(v), False) for v in removed)
            self.journal.extend((u, int(v), True) for v in inserted)
        return inserted
