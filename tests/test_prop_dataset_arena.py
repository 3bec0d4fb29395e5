"""Differential property suite: item-arena ``MutableDataset`` == list store.

``MutableDataset`` keeps every profile in one append-only item arena
with in-place ``start``/``size``/``active`` buffers, compacting dead
space once it outgrows the live ratings. It promises the read interface
of the simpler store it replaced — one sorted int32 array per user plus
a list of active flags — which is kept here, as it was, as the oracle.
Random ``add_user``/``add_items``/``remove_user`` tapes run against
both and must agree on every profile, size, flag, rating count and CSR
snapshot after every step, through arena growth, compaction,
``from_dataset`` and pickle round-trips; profile views taken earlier
must never change. Snapshots written in the oracle's pickled layout
(the layout before the arena) must still load and recover.

The CI property matrix shifts the seed base via ``REPRO_PROP_SEED``.
"""

import io
import os
import pickle

import numpy as np
import pytest

from repro import C2Params
from repro.data import Dataset
from repro.graph.heap import edge_digest
from repro.online import MutableDataset, OnlineIndex
from repro.persist import DurableIndex

_SEED_BASE = int(os.environ.get("REPRO_PROP_SEED", "0"))
SEEDS = [_SEED_BASE + i for i in range(6)]


class ListProfileStore:
    """The list-of-arrays store: one numpy array per user."""

    def __init__(self, profiles=None, n_items: int = 0, name: str = "online") -> None:
        self.name = name
        self._n_items = int(n_items)
        self._profiles: list[np.ndarray] = []
        self._active: list[bool] = []
        self._snapshot = None
        self._sizes = None
        self._mask = None
        for p in profiles or []:
            self.add_user(p)

    @classmethod
    def from_dataset(cls, dataset):
        out = cls(n_items=dataset.n_items, name=dataset.name)
        out._profiles = [dataset.profile(u).copy() for u in range(dataset.n_users)]
        out._active = [True] * dataset.n_users
        return out

    @property
    def n_users(self):
        return len(self._profiles)

    @property
    def n_items(self):
        return self._n_items

    @property
    def n_ratings(self):
        return int(sum(p.size for p in self._profiles))

    @property
    def profile_sizes(self):
        if self._sizes is None:
            self._sizes = np.array([p.size for p in self._profiles], dtype=np.int64)
        return self._sizes

    def profile(self, user):
        return self._profiles[user]

    def active_mask(self):
        if self._mask is None:
            self._mask = np.array(self._active, dtype=bool)
        return self._mask

    def snapshot(self):
        if self._snapshot is None:
            sizes = self.profile_sizes
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            indices = (
                np.concatenate(self._profiles).astype(np.int32)
                if self.n_users and indptr[-1] > 0
                else np.empty(0, dtype=np.int32)
            )
            self._snapshot = Dataset(
                indptr=indptr, indices=indices, n_items=self._n_items, name=self.name
            )
        return self._snapshot

    def _clean(self, items):
        items = np.unique(np.asarray(list(items) if not isinstance(items, np.ndarray) else items, dtype=np.int64))
        if items.size and items[0] < 0:
            raise ValueError("item ids must be non-negative")
        if items.size:
            self._n_items = max(self._n_items, int(items[-1]) + 1)
        return items.astype(np.int32)

    def _invalidate(self):
        self._snapshot = None
        self._sizes = None
        self._mask = None

    def add_user(self, items):
        self._profiles.append(self._clean(items))
        self._active.append(True)
        self._invalidate()
        return self.n_users - 1

    def add_items(self, user, items):
        if not self._active[user]:
            raise ValueError(f"user {user} was removed")
        items = self._clean(items)
        added = np.setdiff1d(items, self._profiles[user], assume_unique=False)
        if added.size:
            self._profiles[user] = np.union1d(self._profiles[user], added).astype(np.int32)
            self._invalidate()
        return added.astype(np.int64)

    def remove_user(self, user):
        if not self._active[user]:
            return
        self._profiles[user] = np.empty(0, dtype=np.int32)
        self._active[user] = False
        self._invalidate()


class _OldLayoutUnpickler(pickle.Unpickler):
    """Loads pickled ``ListProfileStore`` bytes as ``MutableDataset`` —
    exactly what unpickling a pre-arena snapshot does."""

    def find_class(self, module, name):
        if name == ListProfileStore.__name__:
            return MutableDataset
        return super().find_class(module, name)


def _old_layout_roundtrip(obj):
    return _OldLayoutUnpickler(io.BytesIO(pickle.dumps(obj))).load()


def assert_same_store(got, want, ctx=""):
    assert got.n_users == want.n_users, ctx
    assert got.n_items == want.n_items, ctx
    assert got.n_ratings == want.n_ratings, ctx
    assert np.array_equal(got.profile_sizes, want.profile_sizes), ctx
    assert got.profile_sizes.dtype == np.int64, ctx
    assert np.array_equal(got.active_mask(), want.active_mask()), ctx
    for u in range(want.n_users):
        p = got.profile(u)
        assert p.dtype == np.int32 and np.array_equal(p, want.profile(u)), f"{ctx} u={u}"
        assert got.is_active(u) == want._active[u], f"{ctx} u={u}"
    assert np.array_equal(got.active_users(), np.flatnonzero(want.active_mask())), ctx


def assert_same_snapshot(got, want, ctx=""):
    a, b = got.snapshot(), want.snapshot()
    assert np.array_equal(a.indptr, b.indptr), ctx
    assert np.array_equal(a.indices, b.indices), ctx
    assert a.n_items == b.n_items, ctx
    assert np.array_equal(got.indptr, b.indptr) and np.array_equal(got.indices, b.indices), ctx


def _random_profile(rng, n_items, hi=12):
    return rng.integers(0, n_items, size=int(rng.integers(0, hi)))


def _step(rng, stores, n_items):
    """Apply one random mutation to every store; return each store's result."""
    ref = stores[0]
    active = np.flatnonzero(ref.active_mask())
    op = rng.random()
    if op < 0.3 or active.size == 0:
        items = _random_profile(rng, n_items)
        return [s.add_user(items) for s in stores]
    user = int(rng.choice(active))
    if op < 0.85:
        # Occasional items past the universe grow it.
        items = _random_profile(rng, n_items + (5 if rng.random() < 0.1 else 0), hi=6)
        return [s.add_items(user, items) for s in stores]
    return [s.remove_user(user) for s in stores]


def _assert_same_returns(outs):
    want, got = outs
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want) and got.dtype == np.int64
    else:
        assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_random_tapes(seed):
    rng = np.random.default_rng(seed)
    want = ListProfileStore(n_items=30)
    got = MutableDataset(n_items=30)
    held = []  # (view, copy at the time it was taken)
    for step in range(400):
        _assert_same_returns(_step(rng, [want, got], want.n_items))
        ctx = f"seed={seed} step={step}"
        assert_same_store(got, want, ctx)
        if step % 25 == 0:
            assert_same_snapshot(got, want, ctx)
        if got.n_users:
            u = int(rng.integers(0, got.n_users))
            view = got.profile(u)
            held.append((view, view.copy()))
        for view, frozen in held:
            assert np.array_equal(view, frozen), f"{ctx}: an old view changed"
        # Dead space never outlives a mutation past the live ratings.
        assert got._used - got.n_ratings <= got.n_ratings, ctx
    assert got.reallocations > 0 and got.compactions > 0
    assert_same_snapshot(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_from_dataset_and_pickle(seed):
    rng = np.random.default_rng(seed)
    base = Dataset.from_profiles(
        [_random_profile(rng, 40) for _ in range(int(rng.integers(0, 30)))], n_items=40
    )
    frozen = base.indices.copy()
    want = ListProfileStore.from_dataset(base)
    got = MutableDataset.from_dataset(base)
    assert_same_store(got, want)
    assert_same_snapshot(got, want)
    for phase in range(4):
        for _ in range(60):
            _step(rng, [want, got], want.n_items)
        got = pickle.loads(pickle.dumps(got))
        ctx = f"seed={seed} phase={phase}"
        assert_same_store(got, want, ctx)
        assert_same_snapshot(got, want, ctx)
        # A checkpoint carries the live ratings only: no slack, no dead.
        state = got.__getstate__()
        assert state["indices"].size == want.n_ratings, ctx
        assert set(state) == {"name", "n_items", "indptr", "indices", "active"}, ctx
    assert np.array_equal(base.indices, frozen)  # the thawed source is untouched


@pytest.mark.parametrize("seed", SEEDS)
def test_old_pickled_layout_loads(seed):
    rng = np.random.default_rng(seed)
    want = ListProfileStore(n_items=25)
    for _ in range(80):
        _step(rng, [want], want.n_items)
    want.snapshot()  # pickled caches ride along in old checkpoints
    got = _old_layout_roundtrip(want)
    assert isinstance(got, MutableDataset)
    assert_same_store(got, want)
    assert_same_snapshot(got, want)
    for step in range(80):  # and it keeps mutating like the oracle
        _assert_same_returns(_step(rng, [want, got], want.n_items))
        assert_same_store(got, want, f"seed={seed} step={step}")


def test_empty_store_roundtrips():
    for got in (MutableDataset(), MutableDataset.from_dataset(Dataset.from_profiles([], n_items=3))):
        back = pickle.loads(pickle.dumps(got))
        assert back.n_users == 0 and back.snapshot().n_users == 0
        assert _old_layout_roundtrip(ListProfileStore(n_items=3)).n_items == 3


def test_live_views_are_read_only():
    data = MutableDataset(profiles=[[1, 2], [3]], n_items=5)
    sizes, mask = data.profile_sizes, data.active_mask()
    with pytest.raises(ValueError):
        sizes[0] = 9
    with pytest.raises(ValueError):
        mask[0] = False
    data.add_items(0, [4])
    data.remove_user(1)
    assert list(sizes) == [3, 0] and list(mask) == [True, False]


# ----------------------------------------------------------------------
# Recovery from a checkpoint written in the pre-arena layout
# ----------------------------------------------------------------------


def _churn(index, rng, n):
    for _ in range(n):
        op = rng.random()
        active = index.dataset.active_users()
        if op < 0.5:
            index.add_items(
                int(rng.choice(active)), rng.integers(0, index.dataset.n_items + 3, size=3)
            )
        elif op < 0.8:
            index.add_user(rng.integers(0, index.dataset.n_items, size=12))
        else:
            index.remove_user(int(rng.choice(active)))


def _old_layout_state(data):
    """What pickling the list store's ``__dict__`` wrote for ``data``."""
    old = ListProfileStore(n_items=data.n_items, name=data.name)
    old._profiles = [data.profile(u).copy() for u in range(data.n_users)]
    old._active = [bool(a) for a in data.active_mask()]
    old.snapshot()
    return old.__dict__.copy()


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_old_layout_checkpoint_recovers(seed, small_dataset, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    params = C2Params(k=6, n_buckets=64, n_hashes=4, split_threshold=60, seed=1)
    index = OnlineIndex.build(small_dataset, params=params, backend="exact")
    durable = index.attach_persistence(tmp_path, checkpoint_bytes=0)
    _churn(index, rng, 30)
    with monkeypatch.context() as patch:
        patch.setattr(MutableDataset, "__getstate__", _old_layout_state)
        durable.checkpoint()
    _churn(index, rng, 20)  # the WAL tail replays onto the old layout
    want = (index.version, edge_digest(index.graph.heaps))
    durable.close()
    recovered = DurableIndex.recover(tmp_path)
    got = recovered.index
    assert recovered.recovery.replayed > 0
    assert (got.version, edge_digest(got.graph.heaps)) == want
    assert_same_snapshot(got.dataset, index.dataset)
    assert np.array_equal(got.dataset.active_mask(), index.dataset.active_mask())
    # The recovered index keeps writing in the new layout.
    _churn(got, rng, 10)
    want = (got.version, edge_digest(got.graph.heaps))
    recovered.close()
    again = DurableIndex.recover(tmp_path)
    assert (again.index.version, edge_digest(again.index.graph.heaps)) == want
    again.close()
