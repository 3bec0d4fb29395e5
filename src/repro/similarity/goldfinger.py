"""GoldFinger: compact fingerprints for fast Jaccard estimation.

GoldFinger (Guerraoui et al., ICDE 2019 / WWW 2020) summarises each
user's profile into a ``B``-bit vector — the *Single Hash Fingerprint*
(SHF): bit ``hash(i) mod B`` is set for every item ``i`` in the
profile. The Jaccard similarity of two profiles is then estimated from
the fingerprints alone:

    J(u, v) ≈ popcount(fp_u AND fp_v) / popcount(fp_u OR fp_v)

The paper runs *all* competitors with 1024-bit GoldFinger vectors, and
ablates them against raw profiles in Table V. Fingerprints are stored
as ``(n_users, B / 64)`` uint64 arrays; one-vs-many estimates use
``np.bitwise_count`` so they are a handful of vectorised operations
regardless of profile sizes, and many-vs-many blocks count the common
bits with one exact float32 matmul.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import Dataset
from ._bits import item_bit_tables, item_bits_for

__all__ = ["GoldFinger"]

_WORD_BITS = 64


class GoldFinger:
    """A table of Single Hash Fingerprints for one dataset.

    Args:
        dataset: profiles to fingerprint.
        n_bits: fingerprint width ``B`` (power of two, 64..8192; the
            paper's experiments use 1024).
        seed: seed of the item hash function.
    """

    def __init__(self, dataset: Dataset, n_bits: int = 1024, seed: int = 7) -> None:
        if n_bits < _WORD_BITS or n_bits % _WORD_BITS:
            raise ValueError(f"n_bits must be a positive multiple of {_WORD_BITS}")
        self.n_bits = int(n_bits)
        self.n_words = self.n_bits // _WORD_BITS
        self.seed = int(seed)

        # Hash every item id once, then scatter bits per profile. The
        # per-item tables are kept so single profiles can be patched
        # in place later (the online-update path).
        self._item_words = np.empty(0, dtype=np.int64)
        self._item_masks = np.empty(0, dtype=np.uint64)
        self._ensure_items(dataset.n_items)

        fp = np.zeros((dataset.n_users, self.n_words), dtype=np.uint64)
        item_words = self._item_words[dataset.indices]
        item_masks = self._item_masks[dataset.indices]
        rows = np.repeat(np.arange(dataset.n_users, dtype=np.int64), np.diff(dataset.indptr))
        np.bitwise_or.at(fp, (rows, item_words), item_masks)
        # The public ``fingerprints``/``_sizes`` arrays are views into
        # capacity buffers so per-signup growth is amortized O(1)
        # (geometric doubling) instead of one reallocation per user.
        self._fp_buf = fp
        self._sizes_buf = np.bitwise_count(fp).sum(axis=1).astype(np.int64)
        self.fingerprints = self._fp_buf[: dataset.n_users]
        self._sizes = self._sizes_buf[: dataset.n_users]
        self.reallocations = 0

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def _ensure_items(self, n_items: int) -> None:
        """Extend the per-item bit tables to cover ``n_items`` ids.

        splitmix64 hashes each id independently, so extending the table
        leaves existing fingerprints byte-identical.
        """
        old = self._item_words.size
        if n_items <= old:
            return
        words, masks = item_bit_tables(old, n_items, self.n_bits, self.seed)
        self._item_words = np.concatenate([self._item_words, words])
        self._item_masks = np.concatenate([self._item_masks, masks])

    def _ensure_users(self, n_users: int) -> None:
        """Grow the fingerprint table with zero rows up to ``n_users``.

        Amortized: the backing buffer doubles when exhausted, so ``m``
        consecutive signups trigger O(log m) reallocations, not m.
        """
        cur = self.fingerprints.shape[0]
        if n_users <= cur:
            return
        cap = self._fp_buf.shape[0]
        if n_users > cap:
            new_cap = max(n_users, 2 * cap, 8)
            fp_buf = np.zeros((new_cap, self.n_words), dtype=np.uint64)
            fp_buf[:cur] = self.fingerprints
            sizes_buf = np.zeros(new_cap, dtype=np.int64)
            sizes_buf[:cur] = self._sizes
            self._fp_buf, self._sizes_buf = fp_buf, sizes_buf
            self.reallocations += 1
        self.fingerprints = self._fp_buf[:n_users]
        self._sizes = self._sizes_buf[:n_users]

    def add_items(self, user: int, items: np.ndarray) -> None:
        """OR the bits of ``items`` into ``user``'s fingerprint.

        The natural SHF update: an append-only profile change costs
        O(|items|) regardless of profile or dataset size.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return
        self._ensure_items(int(items.max()) + 1)
        self._ensure_users(user + 1)
        row = self.fingerprints[user]
        np.bitwise_or.at(row, self._item_words[items], self._item_masks[items])
        self._sizes[user] = int(np.bitwise_count(row).sum())

    def set_profile(self, user: int, profile: np.ndarray, n_items: int | None = None) -> None:
        """Rebuild ``user``'s fingerprint from scratch (new user,
        removal, or a non-append rewrite — bits cannot be un-ORed)."""
        if n_items is not None:
            self._ensure_items(n_items)
        self._ensure_users(user + 1)
        profile = np.asarray(profile, dtype=np.int64)
        if profile.size:
            self._ensure_items(int(profile.max()) + 1)
        row = self.fingerprints[user]
        row.fill(0)
        if profile.size:
            np.bitwise_or.at(row, self._item_words[profile], self._item_masks[profile])
        self._sizes[user] = int(np.bitwise_count(row).sum())

    # ------------------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of fingerprinted users."""
        return self.fingerprints.shape[0]

    def fingerprint_size(self, user: int) -> int:
        """Number of set bits in ``user``'s fingerprint."""
        return int(self._sizes[user])

    def estimate_pair(self, u: int, v: int) -> float:
        """Estimated Jaccard similarity between users ``u`` and ``v``."""
        a, b = self.fingerprints[u], self.fingerprints[v]
        inter = int(np.bitwise_count(a & b).sum())
        union = int(np.bitwise_count(a | b).sum())
        return inter / union if union else 0.0

    def estimate_one_to_many(self, user: int, others: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of ``user`` against each user in ``others``."""
        return self.estimate_fp_one_to_many(self.fingerprints[user], others)

    def fingerprint_profile(self, profile: np.ndarray) -> np.ndarray:
        """Fingerprint an arbitrary item-set profile without storing it.

        The query-serving path: out-of-index profiles are summarised
        once, then estimated against stored fingerprints like any user.
        Items outside the stored universe are hashed on the fly — a
        read-only query must not grow the shared item tables (which
        would permanently allocate O(max item id) memory).
        """
        profile = np.asarray(profile, dtype=np.int64)
        row = np.zeros(self.n_words, dtype=np.uint64)
        known = profile[profile < self._item_words.size]
        if known.size:
            np.bitwise_or.at(row, self._item_words[known], self._item_masks[known])
        unseen = profile[profile >= self._item_words.size]
        if unseen.size:
            words, masks = item_bits_for(unseen, self.n_bits, self.seed)
            np.bitwise_or.at(row, words, masks)
        return row

    def estimate_fp_one_to_many(self, fingerprint: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Estimated Jaccard of a fingerprint row vs each user in ``others``."""
        others = np.asarray(others, dtype=np.int64)
        if others.size == 0:
            return np.empty(0, dtype=np.float64)
        rows = self.fingerprints[others]
        inter = np.bitwise_count(fingerprint[None, :] & rows).sum(axis=1).astype(np.float64)
        union = np.bitwise_count(fingerprint[None, :] | rows).sum(axis=1).astype(np.float64)
        out = np.zeros(others.size, dtype=np.float64)
        nz = union > 0
        out[nz] = inter[nz] / union[nz]
        return out

    def estimate_block(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Estimate block of shape ``(len(us), len(vs))``.

        popcount(AND) is a float32 matmul of the unpacked fingerprint
        bits. Every partial sum is an integer of at most ``n_bits``
        (8192 < 2**24), so the counts are exact whatever order BLAS adds
        them in; the union is then ``|a| + |b| - inter`` from the stored
        fingerprint sizes. Every cell is bit-identical to
        :meth:`estimate_pair`. Chunked over rows and columns so
        temporaries stay bounded regardless of block size.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.empty((us.size, vs.size), dtype=np.float64)
        cols = max(1, (1 << 22) // self.n_bits)
        for cstart in range(0, vs.size, cols):
            cv = vs[cstart : cstart + cols]
            bits_v = self._unpacked(cv).T
            sizes_v = self._sizes[cv]
            block = max(1, (1 << 22) // (cv.size + self.n_bits))
            for start in range(0, us.size, block):
                rows = us[start : start + block]
                inter = (self._unpacked(rows) @ bits_v).astype(np.int64)
                union = self._sizes[rows][:, None] + sizes_v[None, :] - inter
                # An empty union has inter == 0, so dividing by 1 gives 0.0.
                np.divide(inter, np.maximum(union, 1),
                          out=out[start : start + block, cstart : cstart + cols])
        return out

    def _unpacked(self, users: np.ndarray) -> np.ndarray:
        """Fingerprint bits of ``users`` as a ``(len(users), n_bits)``
        float32 0/1 matrix (bit order is irrelevant to popcounts)."""
        raw = self.fingerprints[users].view(np.uint8)
        return np.unpackbits(raw, axis=1).astype(np.float32)

    def estimate_matrix(self, users: np.ndarray) -> np.ndarray:
        """Dense pairwise estimate matrix for ``users``.

        ``O(len(users)^2 * n_bits)`` time and ``O(len(users)^2)``
        memory; intended for clusters (the paper caps cluster sizes at
        ``N = 2000``).
        """
        users = np.asarray(users, dtype=np.int64)
        return self.estimate_block(users, users)
