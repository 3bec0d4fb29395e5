"""Unit tests for repro.similarity.goldfinger."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.similarity import GoldFinger, jaccard_matrix


def popcount_block(gf, us, vs):
    """Reference block: AND/OR popcounts over the packed fingerprint words
    (the kernel ``estimate_block`` used before its matmul rewrite)."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    rows_v = gf.fingerprints[vs]
    out = np.zeros((us.size, vs.size), dtype=np.float64)
    block = max(1, (1 << 22) // max(1, vs.size * gf.n_words))
    for start in range(0, us.size, block):
        chunk = gf.fingerprints[us[start : start + block]]
        inter = np.bitwise_count(chunk[:, None, :] & rows_v[None, :, :]).sum(axis=2).astype(np.float64)
        union = np.bitwise_count(chunk[:, None, :] | rows_v[None, :, :]).sum(axis=2).astype(np.float64)
        nz = union > 0
        res = np.zeros_like(inter)
        res[nz] = inter[nz] / union[nz]
        out[start : start + block] = res
    return out


class TestConstruction:
    def test_rejects_bad_width(self, tiny_dataset):
        with pytest.raises(ValueError):
            GoldFinger(tiny_dataset, n_bits=100)
        with pytest.raises(ValueError):
            GoldFinger(tiny_dataset, n_bits=0)

    def test_word_layout(self, tiny_dataset):
        gf = GoldFinger(tiny_dataset, n_bits=256)
        assert gf.n_words == 4
        assert gf.fingerprints.shape == (6, 4)
        assert gf.fingerprints.dtype == np.uint64

    def test_fingerprint_size_bounded_by_profile(self, tiny_dataset):
        gf = GoldFinger(tiny_dataset, n_bits=1024)
        for u in range(tiny_dataset.n_users):
            assert 0 < gf.fingerprint_size(u) <= tiny_dataset.profile_sizes[u]

    def test_empty_profile_all_zero(self):
        ds = Dataset.from_profiles([[], [1]], n_items=3)
        gf = GoldFinger(ds, n_bits=64)
        assert gf.fingerprint_size(0) == 0

    def test_deterministic_in_seed(self, tiny_dataset):
        a = GoldFinger(tiny_dataset, n_bits=256, seed=5)
        b = GoldFinger(tiny_dataset, n_bits=256, seed=5)
        assert np.array_equal(a.fingerprints, b.fingerprints)

    def test_different_seeds_differ(self, small_dataset):
        a = GoldFinger(small_dataset, n_bits=256, seed=1)
        b = GoldFinger(small_dataset, n_bits=256, seed=2)
        assert not np.array_equal(a.fingerprints, b.fingerprints)


class TestEstimates:
    def test_identical_profiles_estimate_one(self, tiny_dataset):
        gf = GoldFinger(tiny_dataset, n_bits=512)
        assert gf.estimate_pair(0, 2) == 1.0  # u0 and u2 identical

    def test_disjoint_profiles_estimate_near_zero(self, tiny_dataset):
        # Wide fingerprints make bit collisions for disjoint sets unlikely.
        gf = GoldFinger(tiny_dataset, n_bits=8192)
        assert gf.estimate_pair(0, 3) <= 0.1

    def test_one_to_many_matches_pair(self, small_dataset):
        gf = GoldFinger(small_dataset, n_bits=512)
        others = np.arange(1, 40)
        got = gf.estimate_one_to_many(0, others)
        want = [gf.estimate_pair(0, int(v)) for v in others]
        np.testing.assert_allclose(got, want)

    def test_matrix_matches_pair(self, small_dataset):
        gf = GoldFinger(small_dataset, n_bits=512)
        users = np.arange(20)
        m = gf.estimate_matrix(users)
        for i in range(20):
            for j in range(20):
                assert m[i, j] == pytest.approx(gf.estimate_pair(i, j))

    def test_block_matches_matrix(self, small_dataset):
        gf = GoldFinger(small_dataset, n_bits=512)
        us, vs = np.arange(10), np.arange(5, 25)
        blk = gf.estimate_block(us, vs)
        m = gf.estimate_matrix(np.arange(25))
        assert np.array_equal(blk, m[np.ix_(us, vs)])

    def test_estimate_accuracy_with_wide_fingerprints(self, small_dataset):
        """1024-bit fingerprints on ~35-item profiles: estimates should
        track exact Jaccard closely (paper reports negligible loss)."""
        gf = GoldFinger(small_dataset, n_bits=1024)
        users = np.arange(60)
        est = gf.estimate_matrix(users)
        exact = jaccard_matrix(small_dataset, users)
        err = np.abs(est - exact)
        assert err.mean() < 0.05
        assert np.quantile(err, 0.95) < 0.15

    def test_wider_fingerprints_more_accurate(self, small_dataset):
        users = np.arange(60)
        exact = jaccard_matrix(small_dataset, users)
        errors = {}
        for bits in (64, 1024):
            gf = GoldFinger(small_dataset, n_bits=bits)
            errors[bits] = np.abs(gf.estimate_matrix(users) - exact).mean()
        assert errors[1024] < errors[64]


class TestBlockKernel:
    """``estimate_block`` (float32 matmul of unpacked bits) must equal the
    packed AND/OR popcount reference exactly, not approximately."""

    @pytest.mark.parametrize("n_bits", [64, 512, 1024, 8192])
    def test_matches_popcount_reference(self, small_dataset, n_bits):
        gf = GoldFinger(small_dataset, n_bits=n_bits)
        rng = np.random.default_rng(n_bits)
        users = np.arange(small_dataset.n_users)
        us, vs = rng.permutation(users)[:70], rng.permutation(users)[:110]
        for a, b in ((users, users), (us, vs), (vs, us), (us[:1], vs), (vs, us[:1])):
            assert np.array_equal(gf.estimate_block(a, b), popcount_block(gf, a, b))

    def test_crosses_chunk_boundaries(self, small_dataset):
        """8192 bits: 512-column chunks and ~480-row chunks, so a
        1000 x 700 block spans several of each."""
        gf = GoldFinger(small_dataset, n_bits=8192)
        rng = np.random.default_rng(5)
        us = rng.integers(0, small_dataset.n_users, size=1000)
        vs = rng.integers(0, small_dataset.n_users, size=700)
        assert np.array_equal(gf.estimate_block(us, vs), popcount_block(gf, us, vs))

    def test_all_zero_fingerprints(self):
        ds = Dataset.from_profiles([[], [1, 2], [], [2], [1, 2]], n_items=4)
        gf = GoldFinger(ds, n_bits=64)
        users = np.arange(5)
        blk = gf.estimate_block(users, users)
        assert np.array_equal(blk, popcount_block(gf, users, users))
        assert blk[0, 2] == 0.0 and blk[0, 1] == 0.0
        assert blk[1, 4] == 1.0

    def test_empty_blocks(self, small_dataset):
        gf = GoldFinger(small_dataset, n_bits=512)
        none = np.empty(0, dtype=np.int64)
        assert gf.estimate_block(none, np.arange(5)).shape == (0, 5)
        assert gf.estimate_block(np.arange(5), none).shape == (5, 0)

    @pytest.mark.parametrize("n_bits", [64, 1024])
    def test_block_equals_one_to_many_equals_pair(self, small_dataset, n_bits):
        """Brute-force (block) and Hyrec (one-to-many) partials must score
        a pair identically, bit for bit."""
        gf = GoldFinger(small_dataset, n_bits=n_bits)
        users = np.arange(40)
        blk = gf.estimate_block(users, users)
        for i in users:
            row = gf.estimate_one_to_many(int(i), users)
            assert np.array_equal(blk[i], row)
            for j in users:
                assert blk[i, j] == gf.estimate_pair(int(i), int(j))
