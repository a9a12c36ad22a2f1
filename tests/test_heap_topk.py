"""Tests for the array-backed top-K store."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.heap.reference import ReferenceTopKHeap
from repro.heap.topk import BatchSlotCache, TopKStore


class TestBasics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TopKStore(0)

    def test_push_and_value(self):
        h = TopKStore(4)
        h.push(1, 2.0)
        h.push(2, -3.0)
        assert h.value(1) == 2.0
        assert h.value(2) == -3.0
        assert len(h) == 2
        assert 1 in h and 2 in h and 3 not in h

    def test_get_default(self):
        h = TopKStore(2)
        assert h.get(9) == 0.0
        assert h.get(9, default=5.0) == 5.0

    def test_value_raises_for_missing(self):
        h = TopKStore(2)
        with pytest.raises(KeyError):
            h.value(1)

    def test_min_entry_by_magnitude(self):
        h = TopKStore(4)
        h.push(1, -5.0)
        h.push(2, 1.0)
        h.push(3, 3.0)
        key, value = h.min_entry()
        assert key == 2 and value == 1.0
        assert h.min_priority() == 1.0

    def test_min_on_empty_raises(self):
        h = TopKStore(2)
        with pytest.raises(IndexError):
            h.min_entry()
        with pytest.raises(IndexError):
            h.pop_min()


class TestEviction:
    def test_eviction_of_minimum(self):
        h = TopKStore(2)
        h.push(1, 1.0)
        h.push(2, 2.0)
        evicted = h.push(3, 5.0)
        assert evicted == (1, 1.0)
        assert 1 not in h and 3 in h

    def test_rejection_of_weak_candidate(self):
        h = TopKStore(2)
        h.push(1, 2.0)
        h.push(2, 3.0)
        evicted = h.push(3, 1.0)  # weaker than the min -> not admitted
        assert evicted == (3, 1.0)
        assert 3 not in h and len(h) == 2

    def test_update_existing_never_evicts(self):
        h = TopKStore(2)
        h.push(1, 2.0)
        h.push(2, 3.0)
        assert h.push(1, 0.5) is None  # update, even if smaller
        assert h.value(1) == 0.5

    def test_top_sorted_by_magnitude(self):
        h = TopKStore(5)
        for key, v in [(1, 1.0), (2, -9.0), (3, 4.0), (4, -2.0)]:
            h.push(key, v)
        top = h.top(3)
        assert [k for k, _ in top] == [2, 3, 4]
        assert top[0][1] == -9.0

    def test_pop_min_drains_in_order(self):
        h = TopKStore(8)
        values = [5.0, -1.0, 3.0, -4.0, 2.0]
        for i, v in enumerate(values):
            h.push(i, v)
        drained = []
        while len(h):
            drained.append(abs(h.pop_min()[1]))
        assert drained == sorted(drained)


class TestDeltasAndRemoval:
    def test_add_delta(self):
        h = TopKStore(3)
        h.push(1, 2.0)
        h.add_delta(1, -5.0)
        assert h.value(1) == -3.0
        h.check_invariants()

    def test_add_delta_missing_raises(self):
        h = TopKStore(3)
        with pytest.raises(KeyError):
            h.add_delta(1, 1.0)

    def test_remove(self):
        h = TopKStore(4)
        h.push(1, 1.0)
        h.push(2, 2.0)
        h.push(3, 3.0)
        assert h.remove(2) == 2.0
        assert 2 not in h and len(h) == 2
        h.check_invariants()

    def test_clear(self):
        h = TopKStore(4)
        h.push(1, 1.0)
        h.decay(0.5)
        h.clear()
        assert len(h) == 0 and h.scale == 1.0


class TestDecay:
    def test_decay_scales_all_values(self):
        h = TopKStore(4)
        h.push(1, 2.0)
        h.push(2, -4.0)
        h.decay(0.5)
        assert h.value(1) == pytest.approx(1.0)
        assert h.value(2) == pytest.approx(-2.0)

    def test_decay_preserves_order(self):
        h = TopKStore(4)
        h.push(1, 1.0)
        h.push(2, 3.0)
        h.decay(0.9)
        assert h.min_entry()[0] == 1
        h.check_invariants()

    def test_decay_rejects_non_positive(self):
        h = TopKStore(2)
        with pytest.raises(ValueError):
            h.decay(0.0)
        with pytest.raises(ValueError):
            h.decay(-1.0)

    def test_underflow_renormalization(self):
        h = TopKStore(2)
        h.push(1, 1.0)
        for _ in range(200):
            h.decay(1e-2)
        # Scale folded in; value is tiny but finite and consistent.
        assert h.value(1) >= 0.0
        assert np.isfinite(h.value(1))
        h.check_invariants()

    def test_renormalization_keeps_the_warm_min_on_the_cold_rescan_pick(
        self,
    ):
        # The fold flushes both values to 0.0: a tie a cold rescan
        # breaks by slot order, so the warm cache must too.
        warm = TopKStore(2)
        warm.push(1, 3e-200)
        warm.push(2, 1e-200)
        assert warm.min_entry()[0] == 2  # warms the cache
        warm.decay(1e-160)  # below the threshold: folds the scale in
        warm.check_invariants()
        cold = pickle.loads(pickle.dumps(warm))  # caches reset
        assert warm.min_entry() == cold.min_entry() == (1, 0.0)

    def test_push_interacts_with_scale(self):
        h = TopKStore(2)
        h.push(1, 4.0)
        h.decay(0.5)
        h.push(2, 3.0)  # true value, should not be divided wrongly
        assert h.value(2) == pytest.approx(3.0)
        assert h.value(1) == pytest.approx(2.0)
        assert h.min_entry()[0] == 1


class TestEvictionTieSemantics:
    """Pinned contract: a candidate whose priority exactly equals the
    admission threshold of a full store is deterministically rejected —
    ties never evict an incumbent."""

    def test_equal_priority_candidate_is_rejected(self):
        h = TopKStore(2)
        h.push(1, 2.0)
        h.push(2, 3.0)
        rejected = h.push(3, 2.0)  # |2.0| ties the minimum exactly
        assert rejected == (3, 2.0)
        assert 3 not in h and 1 in h and len(h) == 2

    def test_equal_magnitude_opposite_sign_is_rejected(self):
        h = TopKStore(2)
        h.push(1, 2.0)
        h.push(2, 3.0)
        rejected = h.push(3, -2.0)  # same |.| as the min, sign flipped
        assert rejected == (3, -2.0)
        assert 3 not in h

    def test_tie_rejection_survives_decay_scaling(self):
        h = TopKStore(2)
        h.push(1, 4.0)
        h.push(2, 8.0)
        h.decay(0.5)  # true values now 2.0 / 4.0 through the lazy scale
        rejected = h.push(3, 2.0)
        assert rejected == (3, 2.0)
        assert 3 not in h

    def test_warm_min_cache_agrees_with_cold_rescan_on_ties(self):
        """A member update that exactly ties the cached minimum must
        leave the warm cache naming the same entry a cold argmin rescan
        picks (first minimal value in slot order) — otherwise a pickled
        copy (caches reset) would evict a different entry than the
        in-process original."""
        import pickle

        warm = TopKStore(3)
        for key, v in [(1, 5.0), (2, 3.0), (3, 2.0)]:
            warm.push(key, v)
        warm.min_priority()  # warm the cache (points at key 3)
        warm.push(2, 2.0)  # member update ties the min exactly
        cold = pickle.loads(pickle.dumps(warm))  # caches reset
        assert warm.min_entry() == cold.min_entry() == (2, 2.0)
        assert warm.replace_min(9, 10.0) == cold.replace_min(9, 10.0)
        assert sorted(warm.items()) == sorted(cold.items())

    def test_push_many_applies_the_same_tie_rule(self):
        h = TopKStore(2)
        admitted = h.push_many(
            np.array([1, 2, 3, 4], dtype=np.int64),
            np.array([2.0, 3.0, 2.0, -3.0]),
        )
        # 1 and 2 fill the store; 3 ties the min (2.0) -> rejected;
        # |−3.0| ties the new min only after it would evict... it ties
        # key 2's 3.0 only if 2.0 were evicted first — it is not: -3.0
        # beats the min 2.0, evicting key 1.
        assert admitted == 3
        assert sorted(k for k, _ in h.items()) == [2, 4]

    def test_remove_keeps_the_warm_min_on_the_cold_rescan_pick(self):
        """``remove`` moves the last entry into the freed slot; when
        it ties the cached minimum at an earlier slot, the warm cache
        must move to it, as a cold rescan does."""
        warm = TopKStore(3)
        for key, v in [(1, 3.0), (2, 1.0), (3, 1.0)]:
            warm.push(key, v)
        assert warm.min_entry() == (2, 1.0)  # warms the cache
        warm.remove(1)  # key 3 moves into slot 0, ahead of key 2
        warm.check_invariants()
        cold = pickle.loads(pickle.dumps(warm))  # caches reset
        assert warm.min_entry() == cold.min_entry() == (3, 1.0)
        for key, v in [(4, 5.0), (5, 6.0)]:
            warm.push(key, v)
            cold.push(key, v)
        assert sorted(k for k, _ in warm.items()) == [2, 4, 5]
        assert sorted(warm.items()) == sorted(cold.items())


def _same_entry(a, b):
    """(key, value) equality that treats two NaN values as equal."""
    return a[0] == b[0] and (
        a[1] == b[1] or (math.isnan(a[1]) and math.isnan(b[1]))
    )


class TestNanMinCache:
    """A warm min cache must name a NaN entry whenever one is live: a
    cold rescan's ``argmin`` picks the first NaN, so a cache that kept
    a finite minimum would evict a different key than the store's
    pickled (cold) copy."""

    def _assert_agrees_with_cold_copy(self, warm):
        cold = pickle.loads(pickle.dumps(warm))  # caches reset
        assert _same_entry(warm.min_entry(), cold.min_entry())
        assert math.isnan(warm.min_entry()[1])
        warm.check_invariants()
        cold.check_invariants()
        # The next push gets the same verdict on both sides (a full
        # store with a NaN minimum admits nothing).
        assert _same_entry(warm.push(4, 5.0), cold.push(4, 5.0))
        items, cold_items = sorted(warm.items()), sorted(cold.items())
        assert len(items) == len(cold_items)
        assert all(map(_same_entry, items, cold_items))
        warm.check_invariants()

    def test_nan_pushed_into_free_slot_on_warm_cache(self):
        h = TopKStore(3)
        h.push(1, 1.0)
        h.push(2, 2.0)
        h.min_priority()  # warm the cache (points at key 1)
        h.push(3, math.nan)
        assert h.min_entry()[0] == 3
        self._assert_agrees_with_cold_copy(h)

    def test_member_set_to_nan_through_push(self):
        h = TopKStore(3)
        for key, v in [(1, 1.0), (2, 2.0), (3, 3.0)]:
            h.push(key, v)
        h.min_priority()
        h.push(3, math.nan)  # member update
        assert h.min_entry()[0] == 3
        self._assert_agrees_with_cold_copy(h)

    def test_member_set_to_nan_through_add_delta(self):
        h = TopKStore(3)
        for key, v in [(1, 1.0), (2, 2.0), (3, 3.0)]:
            h.push(key, v)
        h.min_priority()
        h.add_delta(2, math.nan)
        assert h.min_entry()[0] == 2
        self._assert_agrees_with_cold_copy(h)


@pytest.mark.parametrize("cls", [TopKStore, ReferenceTopKHeap])
def test_full_store_rejects_a_nan_candidate(cls):
    """Only a strictly greater priority admits, so ``push`` rejects a
    NaN on a full store, as ``push_many``'s screen does."""
    h = cls(2)
    h.push(1, 1.0)
    h.push(2, 2.0)
    key, value = h.push(3, math.nan)
    assert key == 3 and math.isnan(value)
    assert sorted(h) == [1, 2]
    twin = TopKStore(2)
    twin.push_many(np.array([1, 2, 3]), np.array([1.0, 2.0, math.nan]))
    assert sorted(twin) == [1, 2]


class TestVectorizedApi:
    def test_contains_and_get_many(self):
        h = TopKStore(4)
        h.push(10, 1.0)
        h.push(20, -2.0)
        probe = np.array([5, 10, 20, 30], dtype=np.int64)
        assert h.contains_many(probe).tolist() == [False, True, True, False]
        slots = h.member_slots(probe)
        assert slots.tolist() == [-1, 0, 1, -1]
        assert h.values_at(slots[1:3]).tolist() == [1.0, -2.0]

    def test_member_slots_stay_valid_across_value_updates(self):
        h = TopKStore(4)
        h.push(10, 1.0)
        h.push(20, -2.0)
        slots = h.member_slots(np.array([10, 20], dtype=np.int64))
        h.add_delta(10, 5.0)  # value change must not move slots
        assert h.values_at(slots).tolist() == [6.0, -2.0]

    def test_version_counts_membership_changes_only(self):
        h = TopKStore(2)
        v0 = h.version
        h.push(1, 1.0)
        h.push(2, 2.0)
        assert h.version == v0 + 2
        h.push(1, 5.0)  # member update: no membership change
        h.add_delta(2, 1.0)
        h.decay(0.5)
        assert h.version == v0 + 2
        h.push(3, 9.0)  # eviction
        assert h.version == v0 + 3

    def test_batch_slot_cache_tracks_promotions(self):
        h = TopKStore(2)
        h.push(1, 1.0)
        h.push(2, 2.0)
        indices = np.array([1, 3, 2, 1, 3], dtype=np.int64)
        cache = BatchSlotCache(h, indices)
        np.testing.assert_array_equal(
            cache.slots >= 0, [True, False, True, True, False]
        )
        assert not cache.stale
        evicted = h.replace_min(3, 9.0)  # promote 3 over the min (1)
        assert evicted[0] == 1
        assert cache.stale
        cache.apply(3, evicted[0])
        assert not cache.stale
        np.testing.assert_array_equal(
            cache.slots >= 0, [False, True, True, False, True]
        )
        # Patched slots resolve to the promoted key's live slot.
        assert h.values_at(cache.slots[[1]]).tolist() == [9.0]

    def test_slot_map_is_live(self):
        h = TopKStore(2)
        h.push(1, 1.0)
        slots = h.slot_map()
        h.push(2, 2.0)
        h.replace_min(3, 9.0)  # evicts 1 into its slot
        assert slots == {2: 1, 3: 0}
        h.remove(2)
        assert slots == {3: 0}
        h.check_invariants()


class TestCustomPriority:
    def test_identity_priority(self):
        h = TopKStore(2, priority=lambda v: v)
        h.push(1, -10.0)  # very negative = lowest priority
        h.push(2, 1.0)
        evicted = h.push(3, 5.0)
        assert evicted == (1, -10.0)

    def test_negated_priority(self):
        # Keep the *smallest* values (used by the A-Res reservoir).
        h = TopKStore(2, priority=lambda v: -v)
        h.push(1, 10.0)
        h.push(2, 1.0)
        evicted = h.push(3, 0.5)
        assert evicted == (1, 10.0)
