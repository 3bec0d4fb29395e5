"""Unit tests for repro.similarity.jaccard and cosine."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.similarity import (
    cosine_matrix,
    cosine_one_to_many,
    cosine_pair,
    intersection_size,
    jaccard_matrix,
    jaccard_one_to_many,
    jaccard_pair,
)
from repro.online import MutableDataset
from repro.similarity.jaccard import jaccard_block


def arr(*xs):
    return np.array(xs, dtype=np.int64)


def loop_cosine_one_to_many(dataset, user, others):
    """The per-candidate cosine loop, kept as the bit-exact oracle."""
    others = np.asarray(others, dtype=np.int64)
    if others.size == 0:
        return np.empty(0, dtype=np.float64)
    mask = np.zeros(dataset.n_items, dtype=bool)
    profile = dataset.profile(user)
    mask[profile] = True
    sizes = dataset.profile_sizes[others]
    inter = np.empty(others.size, dtype=np.float64)
    for pos, v in enumerate(others):
        inter[pos] = mask[dataset.profile(int(v))].sum()
    denom = np.sqrt(float(profile.size) * sizes)
    out = np.zeros(others.size, dtype=np.float64)
    nz = denom > 0
    out[nz] = inter[nz] / denom[nz]
    return out


class TestPairwise:
    def test_jaccard_known_value(self):
        assert jaccard_pair(arr(0, 1, 2, 3), arr(0, 1, 2, 4)) == pytest.approx(3 / 5)

    def test_jaccard_identical(self):
        assert jaccard_pair(arr(1, 2), arr(1, 2)) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_pair(arr(0, 1), arr(2, 3)) == 0.0

    def test_jaccard_empty(self):
        assert jaccard_pair(arr(), arr()) == 0.0

    def test_intersection_size(self):
        assert intersection_size(arr(1, 3, 5), arr(3, 5, 7)) == 2

    def test_cosine_known_value(self):
        # |inter|=2, sizes 4 and 1 -> 2/sqrt(4) with b size 1: pick clean case
        assert cosine_pair(arr(0, 1), arr(0, 1)) == pytest.approx(1.0)
        assert cosine_pair(arr(0, 1, 2, 3), arr(0, 1)) == pytest.approx(2 / np.sqrt(8))

    def test_cosine_empty(self):
        assert cosine_pair(arr(), arr(1)) == 0.0


class TestOneToMany:
    def test_matches_pairwise(self, tiny_dataset):
        others = np.array([1, 2, 3, 4, 5])
        got = jaccard_one_to_many(tiny_dataset, 0, others)
        want = [
            jaccard_pair(tiny_dataset.profile(0), tiny_dataset.profile(int(v)))
            for v in others
        ]
        np.testing.assert_allclose(got, want)

    def test_empty_others(self, tiny_dataset):
        assert jaccard_one_to_many(tiny_dataset, 0, np.array([])).size == 0

    def test_empty_profiles_anywhere_in_others(self):
        # An empty profile last in ``others`` used to index past the end
        # of the segment sums.
        data = Dataset.from_profiles([[0, 1], [1, 2], [], [0, 2], []], n_items=3)
        for others in ([1, 2], [2, 1], [4, 2], [2, 3, 4], [4]):
            got = jaccard_one_to_many(data, 0, np.array(others))
            want = [jaccard_pair(data.profile(0), data.profile(v)) for v in others]
            assert np.array_equal(got, want), others

    def test_cosine_matches_pairwise(self, tiny_dataset):
        others = np.array([1, 3, 4])
        got = cosine_one_to_many(tiny_dataset, 0, others)
        want = [
            cosine_pair(tiny_dataset.profile(0), tiny_dataset.profile(int(v)))
            for v in others
        ]
        np.testing.assert_allclose(got, want)

    def test_cosine_bit_identical_to_loop(self, tiny_dataset, small_dataset):
        rng = np.random.default_rng(0)
        for dataset in (tiny_dataset, small_dataset):
            for _ in range(20):
                user = int(rng.integers(0, dataset.n_users))
                others = rng.integers(0, dataset.n_users, size=int(rng.integers(0, 40)))
                got = cosine_one_to_many(dataset, user, others)
                want = loop_cosine_one_to_many(dataset, user, others)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_cosine_bit_identical_on_online_store(self, small_dataset):
        """Tombstones (empty profiles) and arena-relocated profiles."""
        data = MutableDataset.from_dataset(small_dataset)
        rng = np.random.default_rng(1)
        for u in rng.choice(data.n_users, size=40, replace=False):
            data.add_items(int(u), rng.integers(0, data.n_items + 5, size=4))
        for u in rng.choice(data.n_users, size=10, replace=False):
            data.remove_user(int(u))
        empty = data.add_user([])
        others = np.arange(data.n_users)
        for user in [0, 7, empty, *rng.choice(data.n_users, size=10)]:
            got = cosine_one_to_many(data, int(user), others)
            assert np.array_equal(got, loop_cosine_one_to_many(data, int(user), others))

    def test_cosine_empty_others(self, tiny_dataset):
        got = cosine_one_to_many(tiny_dataset, 0, np.array([], dtype=np.int64))
        assert got.size == 0 and got.dtype == np.float64


class TestMatrixAndBlock:
    def test_matrix_symmetric_unit_diagonal(self, tiny_dataset):
        m = jaccard_matrix(tiny_dataset)
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_matrix_matches_pairwise(self, tiny_dataset):
        m = jaccard_matrix(tiny_dataset)
        assert m[0, 1] == pytest.approx(3 / 5)
        assert m[0, 2] == pytest.approx(1.0)
        assert m[0, 3] == pytest.approx(0.0)

    def test_matrix_subset(self, tiny_dataset):
        m = jaccard_matrix(tiny_dataset, users=np.array([0, 3]))
        assert m.shape == (2, 2)
        assert m[0, 1] == pytest.approx(0.0)

    def test_block_matches_matrix(self, tiny_dataset):
        full = jaccard_matrix(tiny_dataset)
        blk = jaccard_block(tiny_dataset, np.array([0, 2]), np.array([1, 3, 4]))
        np.testing.assert_allclose(blk, full[np.ix_([0, 2], [1, 3, 4])])

    def test_cosine_matrix_diagonal(self, tiny_dataset):
        m = cosine_matrix(tiny_dataset)
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_jaccard_le_cosine(self, small_dataset):
        """For binary sets J <= cosine everywhere (AM-GM inequality)."""
        j = jaccard_matrix(small_dataset, users=np.arange(50))
        c = cosine_matrix(small_dataset, users=np.arange(50))
        assert np.all(j <= c + 1e-12)
