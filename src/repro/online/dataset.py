"""Mutable profile store backing the online-update subsystem.

:class:`~repro.data.dataset.Dataset` is an immutable CSR snapshot —
ideal for the vectorised batch pipeline, wrong for a system where users
rate new items every second. :class:`MutableDataset` keeps every
profile in one append-only int32 *item arena*: user ``u``'s sorted,
unique item ids live in ``arena[start[u] : start[u] + size[u]]``, and
the ``start``/``size``/``active`` arrays are capacity-doubling buffers
patched in place. A mutation appends the user's new profile at the
arena's tail and repoints its ``start``, so every write costs
O(|profile|) whatever the number of users, and a profile view handed
out earlier never changes (nothing is ever overwritten; growth and
compaction copy into a fresh buffer). The dead space old profiles
leave behind is compacted away once it exceeds the live ratings.

The read interface the similarity kernels consume is served live:
``profile`` is a view into the arena, ``profile_sizes`` and
``active_mask()`` are read-only views of the in-place buffers, and
:meth:`profile_store` hands the ``(starts, items)`` pair to the
one-to-many gather in :func:`~repro.similarity.jaccard.profile_intersections`.
Batch consumers (clustering, fingerprint tables, the sparse matrix,
:meth:`OnlineIndex.rebuild`) read a CSR :meth:`snapshot` instead — one
vectorised gather, cached until the next mutation.

Removed users keep their index with an empty profile (tombstones) so
user ids — and thus graph rows, fingerprints and hash values — stay
stable for everyone else.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset, gather_profiles

__all__ = ["MutableDataset"]

_MIN_CAPACITY = 64


class MutableDataset:
    """A users/items dataset supporting per-user profile mutation.

    Args:
        profiles: optional initial per-user item collections.
        n_items: initial item universe size (grows automatically when
            larger item ids are added).
        name: dataset label.

    Attributes:
        reallocations: arena buffers allocated to make room for a
            write (amortized O(log) of the ratings ever written).
        compactions: arena rewrites triggered by dead space exceeding
            the live ratings.
    """

    def __init__(self, profiles=None, n_items: int = 0, name: str = "online") -> None:
        self.name = name
        self._init_store(
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32),
            np.empty(0, dtype=bool), int(n_items),
        )
        for p in profiles or []:
            self.add_user(p)

    def _init_store(self, indptr, indices, active, n_items: int) -> None:
        """Adopt a compact CSR layout as the arena (no slack, no dead)."""
        n = active.size
        cap = max(n, _MIN_CAPACITY)
        self._n_items = int(n_items)
        self._arena = np.ascontiguousarray(indices, dtype=np.int32)
        self._used = self._arena.size
        self._n_ratings = self._arena.size
        self._start_buf = np.zeros(cap, dtype=np.int64)
        self._size_buf = np.zeros(cap, dtype=np.int64)
        self._active_buf = np.zeros(cap, dtype=bool)
        self._start_buf[:n] = indptr[:-1]
        self._size_buf[:n] = np.diff(indptr)
        self._active_buf[:n] = active
        self._n = n
        self._bind_views()
        self._snapshot: Dataset | None = None
        self.reallocations = 0
        self.compactions = 0

    def _bind_views(self) -> None:
        self._starts = self._start_buf[: self._n]
        self._sizes = self._size_buf[: self._n]
        self._mask = self._active_buf[: self._n]
        for view in (self._starts, self._sizes, self._mask):
            view.flags.writeable = False

    @classmethod
    def from_dataset(cls, dataset: Dataset, name: str | None = None) -> "MutableDataset":
        """Thaw an immutable :class:`Dataset` into a mutable store."""
        out = cls.__new__(cls)
        out.name = name or dataset.name
        # Shared, not copied: writes only ever land past the arena's
        # used prefix, and a full arena is replaced, never written.
        out._init_store(
            dataset.indptr, dataset.indices,
            np.ones(dataset.n_users, dtype=bool), dataset.n_items,
        )
        return out

    # ------------------------------------------------------------------
    # Pickling (checkpoints, replica clones)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Compact CSR arrays only: no arena slack, no dead profiles.
        indptr, indices = gather_profiles(self._arena, self._starts, self._sizes)
        return {
            "name": self.name, "n_items": self._n_items,
            "indptr": indptr, "indices": indices, "active": self._mask.copy(),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        if "_profiles" in state:
            # Layout of snapshots written before the arena store: one
            # array per user plus a list of active flags.
            profiles = state["_profiles"]
            sizes = np.array([p.size for p in profiles], dtype=np.int64)
            indptr = np.zeros(sizes.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            indices = (
                np.concatenate(profiles) if profiles else np.empty(0, dtype=np.int32)
            )
            self._init_store(
                indptr, indices, np.array(state["_active"], dtype=bool),
                state["_n_items"],
            )
        else:
            self._init_store(
                state["indptr"], state["indices"], state["active"], state["n_items"],
            )

    # ------------------------------------------------------------------
    # Read interface (Dataset-compatible)
    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of user slots (tombstones included)."""
        return self._n

    @property
    def n_items(self) -> int:
        """Current item universe size (monotonically growing)."""
        return self._n_items

    @property
    def n_ratings(self) -> int:
        """Total number of (user, item) associations."""
        return self._n_ratings

    @property
    def profile_sizes(self) -> np.ndarray:
        """``|P_u|`` per user slot (0 for removed users); a live,
        read-only view that later mutations update in place."""
        return self._sizes

    def profile(self, user: int) -> np.ndarray:
        """Sorted item ids of ``user``'s profile (a view, do not mutate).

        The view stays valid and unchanged across later mutations.
        """
        start = self._starts[user]
        return self._arena[start : start + self._sizes[user]]

    def profile_set(self, user: int) -> set[int]:
        """``P_u`` as a Python set."""
        return set(int(i) for i in self.profile(user))

    def profile_store(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, items)``: ``P_u = items[starts[u] : starts[u] + |P_u|]``."""
        return self._starts, self._arena

    def is_active(self, user: int) -> bool:
        """False once :meth:`remove_user` tombstoned the slot."""
        return bool(self._mask[user])

    def active_mask(self) -> np.ndarray:
        """Boolean mask over user slots, True for non-removed users.

        A live, read-only view — the serving path filters candidate
        arrays against it on every search hop.
        """
        return self._mask

    def active_users(self) -> np.ndarray:
        """Ids of all non-removed users."""
        return np.flatnonzero(self._mask).astype(np.int64)

    def snapshot(self) -> Dataset:
        """An immutable CSR :class:`Dataset` of the current state.

        Tombstoned users appear with empty profiles so indices line up.
        The snapshot is cached until the next mutation.
        """
        if self._snapshot is None:
            indptr, indices = gather_profiles(self._arena, self._starts, self._sizes)
            self._snapshot = Dataset(
                indptr=indptr, indices=indices, n_items=self._n_items,
                name=self.name,
            )
        return self._snapshot

    @property
    def indptr(self) -> np.ndarray:
        """CSR index pointers of the current snapshot."""
        return self.snapshot().indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR item ids of the current snapshot."""
        return self.snapshot().indices

    def to_csr_matrix(self):
        """The binary user x item matrix as ``scipy.sparse.csr_matrix``."""
        return self.snapshot().to_csr_matrix()

    # ------------------------------------------------------------------
    # Mutation interface
    # ------------------------------------------------------------------

    def _clean(self, items) -> np.ndarray:
        items = np.unique(np.asarray(list(items) if not isinstance(items, np.ndarray) else items, dtype=np.int64))
        if items.size and items[0] < 0:
            raise ValueError("item ids must be non-negative")
        if items.size:
            self._n_items = max(self._n_items, int(items[-1]) + 1)
        return items.astype(np.int32)

    def _repack(self, extra: int) -> None:
        """Copy the live profiles, in user order, into a fresh arena
        with room for ``extra`` more items (old views stay valid)."""
        indptr, live = gather_profiles(self._arena, self._starts, self._sizes)
        arena = np.empty(max(2 * (live.size + extra), _MIN_CAPACITY), dtype=np.int32)
        arena[: live.size] = live
        self._start_buf[: self._n] = indptr[:-1]
        self._arena = arena
        self._used = live.size

    def _write(self, user: int, profile: np.ndarray) -> None:
        """Point ``user`` at a copy of ``profile`` appended to the arena."""
        end = self._used + profile.size
        if end > self._arena.size:
            self._repack(profile.size)
            self.reallocations += 1
            end = self._used + profile.size
        self._arena[self._used : end] = profile
        self._start_buf[user] = self._used
        self._used = end
        self._set_size(user, profile.size)

    def _set_size(self, user: int, size: int) -> None:
        self._n_ratings += size - int(self._size_buf[user])
        self._size_buf[user] = size
        self._snapshot = None
        if self._used - self._n_ratings > self._n_ratings:
            self._repack(0)
            self.compactions += 1

    def add_user(self, items) -> int:
        """Append a new user with the given profile; returns its id."""
        profile = self._clean(items)
        uid = self._n
        if uid == self._start_buf.size:
            cap = 2 * uid
            for attr in ("_start_buf", "_size_buf", "_active_buf"):
                old = getattr(self, attr)
                buf = np.zeros(cap, dtype=old.dtype)
                buf[:uid] = old
                setattr(self, attr, buf)
        self._active_buf[uid] = True
        self._n = uid + 1
        self._bind_views()
        self._write(uid, profile)
        return uid

    def add_items(self, user: int, items) -> np.ndarray:
        """Add ``items`` to ``user``'s profile.

        Returns the genuinely new item ids (sorted); already-present
        items are ignored. Raises for tombstoned users.
        """
        user = range(self._n)[user]
        if not self._mask[user]:
            raise ValueError(f"user {user} was removed")
        items = self._clean(items)
        current = self.profile(user)
        added = np.setdiff1d(items, current, assume_unique=False)
        if added.size:
            self._write(user, np.union1d(current, added).astype(np.int32))
        return added.astype(np.int64)

    def remove_user(self, user: int) -> None:
        """Tombstone ``user``: empty profile, id kept, flagged inactive."""
        user = range(self._n)[user]
        if not self._mask[user]:
            return
        self._active_buf[user] = False
        self._set_size(user, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableDataset(name={self.name!r}, users={self.n_users} "
            f"({len(self.active_users())} active), items={self.n_items}, "
            f"ratings={self.n_ratings})"
        )
