"""Pickle/spawn-safety round trips for hashers and models (PR 2).

Worker processes receive model factories and return trained models by
pickle, so every hash family and classifier must survive a round trip
*exactly*: identical hash values, identical estimates, and — the subtle
one — identical behavior under further training (the sketches keep a
flat *view* of their table; a naive pickle would detach it).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.sparse import SparseExample
from repro.hashing.batch import BatchHasher
from repro.hashing.family import HashFamily
from repro.hashing.tabulation import TabulationHash
from repro.hashing.universal import PolynomialHash
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.ogd import UncompressedClassifier

KEYS = np.array([0, 1, 2, 5, 17, 255, 256, 2**31, 2**63 - 1], dtype=np.uint64)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestHasherPickling:
    def test_tabulation_hash_roundtrip(self):
        h = TabulationHash(seed=42)
        h2 = _roundtrip(h)
        assert np.array_equal(h.hash(KEYS), h2.hash(KEYS))
        assert h2.hash_one(12345) == h.hash_one(12345)

    def test_tabulation_hash_spawned_seed_roundtrip(self):
        # Hashes built from spawned SeedSequences (the HashFamily path)
        # must reconstruct the same function, not the root-seed one.
        child = np.random.SeedSequence(7).spawn(3)[2]
        h = TabulationHash(seed=child)
        h2 = _roundtrip(h)
        assert np.array_equal(h.hash(KEYS), h2.hash(KEYS))
        assert not np.array_equal(
            h.hash(KEYS), TabulationHash(seed=7).hash(KEYS)
        )

    def test_polynomial_hash_roundtrip(self):
        h = PolynomialHash(independence=5, seed=11)
        h2 = _roundtrip(h)
        keys = KEYS.astype(np.int64)
        assert np.array_equal(
            h.hash(keys).astype(np.uint64), h2.hash(keys).astype(np.uint64)
        )
        assert h2.independence == 5
        assert h2.hash_one(999) == h.hash_one(999)

    @pytest.mark.parametrize("kind", ["tabulation", "polynomial"])
    def test_hash_family_roundtrip(self, kind):
        fam = HashFamily(width=128, depth=3, seed=9, kind=kind)
        fam2 = _roundtrip(fam)
        keys = KEYS.astype(np.int64)
        b1, s1 = fam.all_rows(keys)
        b2, s2 = fam2.all_rows(keys)
        assert np.array_equal(b1, b2)
        assert np.array_equal(s1, s2)
        assert (fam2.width, fam2.depth, fam2.seed, fam2.kind) == (
            128, 3, 9, kind,
        )

    def test_batch_hasher_roundtrip_restarts_cold(self):
        fam = HashFamily(width=64, depth=2, seed=3)
        hasher = BatchHasher(fam)
        keys = np.array([1, 2, 3, 1, 2], dtype=np.int64)
        b1, s1 = hasher.rows(keys)
        assert len(hasher) == 3
        hasher2 = _roundtrip(hasher)
        assert len(hasher2) == 0  # memo dropped, not pickled
        assert hasher2.hits == hasher2.misses == 0
        b2, s2 = hasher2.rows(keys)
        assert np.array_equal(b1, b2)
        assert np.array_equal(s1, s2)


def _train(clf, n=120, seed=5, universe=400):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        nnz = int(rng.integers(1, 5))
        idx = rng.choice(universe, size=nnz, replace=False).astype(np.int64)
        y = 1 if rng.random() < 0.5 else -1
        examples.append(SparseExample(idx, np.ones(nnz), y))
    for ex in examples:
        clf.update(ex)
    return examples


MODEL_FACTORIES = {
    "wm": lambda: WMSketch(128, 3, heap_capacity=16, lambda_=1e-4, seed=2),
    "wm_no_heap": lambda: WMSketch(128, 2, heap_capacity=0, seed=2),
    "awm": lambda: AWMSketch(128, depth=1, heap_capacity=16, seed=2),
    "hash": lambda: FeatureHashing(256, seed=2),
    "lr": lambda: UncompressedClassifier(400, lambda_=1e-4),
}


class TestModelPickling:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_estimates_survive_roundtrip(self, name):
        clf = MODEL_FACTORIES[name]()
        _train(clf)
        clf2 = _roundtrip(clf)
        probe = np.arange(0, 400, 13, dtype=np.int64)
        assert np.array_equal(
            clf.estimate_weights(probe), clf2.estimate_weights(probe)
        )

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_training_after_roundtrip_is_identical(self, name):
        """The load-bearing property for workers: an unpickled model
        must keep *learning* identically (detached table views would
        silently freeze the sketches)."""
        clf = MODEL_FACTORIES[name]()
        _train(clf, seed=5)
        clf2 = _roundtrip(clf)
        more = _train(MODEL_FACTORIES[name](), seed=6)  # fresh sequence
        for ex in more:
            clf.update(ex)
            clf2.update(ex)
        probe = np.arange(0, 400, 7, dtype=np.int64)
        assert np.array_equal(
            clf.estimate_weights(probe), clf2.estimate_weights(probe)
        )

    def test_sketch_flat_view_aliasing_restored(self):
        clf = _roundtrip(WMSketch(64, 2, seed=1))
        clf.table[0, 0] = 3.5
        assert clf._table_flat[0] == 3.5  # still a live view of table


class TestStoreInsideModelPickling:
    """The array-backed TopKStore inside WM/AWM models: slot arrays
    rebuilt, position map and caches rederived, further mutation
    identical (PR 3)."""

    def test_awm_active_set_roundtrip_exact(self):
        clf = MODEL_FACTORIES["awm"]()
        _train(clf, seed=9)
        clf2 = _roundtrip(clf)
        assert clf2.heap.items() == clf.heap.items()  # slot order too
        assert clf2.heap.scale == clf.heap.scale
        assert clf2.heap.capacity == clf.heap.capacity
        # Vectorized membership works against the rebuilt caches.
        probe = np.arange(0, 400, 3, dtype=np.int64)
        assert np.array_equal(
            clf.heap.contains_many(probe), clf2.heap.contains_many(probe)
        )
        clf2.heap.check_invariants()

    def test_wm_passive_heap_roundtrip_exact(self):
        clf = MODEL_FACTORIES["wm"]()
        _train(clf, seed=10)
        clf2 = _roundtrip(clf)
        assert clf2.heap.items() == clf.heap.items()
        assert clf2.top_weights(8) == clf.top_weights(8)
        clf2.heap.check_invariants()

    def test_store_scale_survives_roundtrip(self):
        """An AWM model's decayed active set (heap scale != 1) must
        round-trip the scale, not silently renormalize."""
        clf = AWMSketch(128, depth=1, heap_capacity=8, lambda_=1e-2, seed=3)
        _train(clf, seed=11)
        assert clf.heap.scale != 1.0
        clf2 = _roundtrip(clf)
        assert clf2.heap.scale == clf.heap.scale
        assert clf2.heap.items() == clf.heap.items()

    def test_truncation_and_reservoir_now_spawn_safe(self):
        """Module-level priority callables make the negated/identity
        priority stores picklable (lambdas never were)."""
        from repro.learning.truncation import (
            ProbabilisticTruncation,
            SimpleTruncation,
        )
        from repro.sketch.reservoir import WeightedReservoir

        t = SimpleTruncation(16, lambda_=1e-4)
        _train(t, seed=12)
        t2 = _roundtrip(t)
        assert t2._heap.items() == t._heap.items()

        p = ProbabilisticTruncation(16, lambda_=1e-4, seed=4)
        _train(p, seed=13)
        p2 = _roundtrip(p)
        assert p2._weights == p._weights
        assert p2._heap.items() == p._heap.items()

        r = WeightedReservoir(8, seed=5)
        for item in range(30):
            r.offer(item, 1.0 + (item % 7))
        r2 = _roundtrip(r)
        assert sorted(r2._heap.items()) == sorted(r._heap.items())
