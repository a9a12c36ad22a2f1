"""BatchHasher must be ``HashFamily.all_rows`` bit-for-bit, just faster.

These are tests of the memo, the numpy backend's ``hash_rows`` body, so
every hasher here pins that backend; the ``c`` body (no memo) is checked
against both in ``tests/test_kernel_backends.py``.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.hashing.batch import _CHUNK, SET_BITS, WAYS, BatchHasher
from repro.hashing.family import HashFamily

SETS = 1 << SET_BITS
INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min


def memo_hasher(family):
    """A hasher on the numpy backend, whose ``hash_rows`` is the memo."""
    return BatchHasher(family, backend=kernels.get_backend("numpy"))


def assert_matches_family(hasher, keys):
    keys = np.asarray(keys, dtype=np.int64)
    b, s = hasher.rows(keys)
    rb, rs = hasher.family.all_rows(keys)
    assert np.array_equal(b, rb)
    assert np.array_equal(s, rs)


@pytest.mark.parametrize("kind", ["tabulation", "polynomial"])
@pytest.mark.parametrize("depth", [1, 3])
def test_rows_match_all_rows(kind, depth, rng):
    family = HashFamily(512, depth, seed=11, kind=kind)
    hasher = memo_hasher(family)
    for _ in range(5):
        keys = rng.integers(0, 100_000, size=int(rng.integers(1, 400)))
        keys = keys.astype(np.int64)
        b, s = hasher.rows(keys)
        rb, rs = family.all_rows(keys)
        assert np.array_equal(b, rb)
        assert np.array_equal(s, rs)


def test_duplicates_within_batch():
    family = HashFamily(256, 2, seed=3)
    family_rows = family.all_rows
    hashed = []

    def spy(k):
        hashed.extend(np.asarray(k).tolist())
        return family_rows(k)

    family.all_rows = spy
    hasher = memo_hasher(family)
    keys = np.array([7, 7, 7, 42, 7, 42], dtype=np.int64)
    b, s = hasher.rows(keys)
    rb, rs = family_rows(keys)
    assert np.array_equal(b, rb)
    assert np.array_equal(s, rs)
    # Misses count key positions, but only the two distinct keys are
    # hashed.
    assert hasher.misses == keys.size
    assert sorted(hashed) == [7, 42]


def test_cache_hits_across_batches():
    family = HashFamily(256, 2, seed=5)
    hasher = memo_hasher(family)
    keys = np.arange(100, dtype=np.int64)
    hasher.rows(keys)
    assert hasher.misses == 100 and hasher.hits == 0
    hasher.rows(keys)
    assert hasher.hits == 100
    # Partial overlap: only the new half misses.
    hasher.rows(np.arange(50, 150, dtype=np.int64))
    assert hasher.misses == 150


def test_cache_overflow_stays_correct():
    # More cold keys of one set than it has ways, in one batch: every
    # position is answered correctly and the set keeps the last WAYS of
    # them (in key order).
    family = HashFamily(512, 3, seed=9)
    hasher = memo_hasher(family)
    keys = 7 + SETS * np.arange(2 * WAYS + 2, dtype=np.int64)
    batch = np.concatenate([keys[::-1], keys[:3]])  # unsorted, repeats
    assert_matches_family(hasher, batch)
    assert len(hasher) == WAYS
    assert hasher.evictions == 0
    assert_matches_family(hasher, keys[-WAYS:])
    assert hasher.hits == WAYS
    # The others miss again and overwrite every way.
    assert_matches_family(hasher, keys)
    assert hasher.hits == 2 * WAYS
    assert len(hasher) == WAYS
    assert hasher.evictions == WAYS


def test_empty_keys():
    family = HashFamily(128, 4, seed=1)
    hasher = memo_hasher(family)
    b, s = hasher.rows(np.empty(0, dtype=np.int64))
    assert b.shape == (4, 0)
    assert s.shape == (4, 0)


def test_clear():
    family = HashFamily(128, 2, seed=1)
    hasher = memo_hasher(family)
    hasher.rows(np.arange(10, dtype=np.int64))
    assert len(hasher) == 10
    hasher.clear()
    assert len(hasher) == 0
    b, s = hasher.rows(np.arange(10, dtype=np.int64))
    rb, rs = family.all_rows(np.arange(10, dtype=np.int64))
    assert np.array_equal(b, rb)
    assert np.array_equal(s, rs)


# ----------------------------------------------------------------------
# Workspace front-end and the memo's set-associative behaviour
# ----------------------------------------------------------------------
def test_rows_into_matches_rows(rng):
    family = HashFamily(512, 3, seed=17)
    hasher = memo_hasher(family)
    other = memo_hasher(family)
    for _ in range(5):
        keys = rng.integers(0, 50_000, size=int(rng.integers(1, 300)))
        keys = keys.astype(np.int64)
        b, s = hasher.rows(keys)
        ob = np.empty((3, keys.size), dtype=np.int64)
        osn = np.empty((3, keys.size), dtype=np.float64)
        rb, rs = other.rows_into(keys, ob, osn)
        assert rb is ob and rs is osn
        assert np.array_equal(b, ob)
        assert np.array_equal(s, osn)


def test_evicted_key_is_rehashed_on_return():
    family = HashFamily(256, 2, seed=5)
    hasher = memo_hasher(family)
    victim = np.array([3], dtype=np.int64)
    assert_matches_family(hasher, victim)
    # WAYS more keys of set 3, one batch each: the last takes the
    # victim's way (round-robin), so exactly one valid entry is lost.
    for j in range(1, WAYS + 1):
        assert_matches_family(hasher, victim + SETS * j)
    assert hasher.evictions == 1
    assert len(hasher) == WAYS
    misses = hasher.misses
    assert_matches_family(hasher, victim)
    assert hasher.misses == misses + 1
    assert hasher.evictions == 2
    hits = hasher.hits
    assert_matches_family(hasher, victim)
    assert hasher.hits == hits + 1


def test_hit_rate_counter():
    family = HashFamily(128, 2, seed=9)
    hasher = memo_hasher(family)
    assert hasher.hit_rate == 0.0
    keys = np.arange(50, dtype=np.int64)
    hasher.rows(keys)
    assert hasher.hit_rate == 0.0  # all cold
    hasher.rows(keys)
    assert hasher.hit_rate == 0.5  # 50 misses then 50 hits
    hasher.rows(keys)
    assert hasher.hit_rate == pytest.approx(2 / 3)


@pytest.mark.parametrize("n", [256, 2048])
def test_all_hit_lookup_allocates_nothing_per_key(n):
    """A hit allocates nothing at key scale: the tag comparison writes
    straight into the scratch (comparing into one (WAYS, n) view of it
    made numpy allocate an iteration buffer, ~37 B a key)."""
    hasher = memo_hasher(HashFamily(2**13, 3, seed=0))
    keys = np.arange(n, dtype=np.int64) * 7 + 3
    buckets = np.empty((3, n), dtype=np.int64)
    signs = np.empty((3, n), dtype=np.float64)
    hasher.rows_into(keys, buckets, signs)  # fills the memo and scratch
    tracemalloc.start()
    try:
        hasher.rows_into(keys, buckets, signs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hasher.hits == n
    assert peak < 4096


def test_high_cardinality_stream_stays_bounded(rng):
    family = HashFamily(256, 2, seed=21)
    hasher = memo_hasher(family)
    for _ in range(20):
        keys = rng.integers(0, 10_000_000, size=4_000).astype(np.int64)
        assert_matches_family(hasher, keys)
        assert len(hasher) <= WAYS * SETS
    assert hasher.evictions > 0


def test_lookup_spanning_several_chunks(rng):
    # One call with more keys than a lookup pass takes (a held-out
    # evaluation does this), repeats crossing chunk boundaries.
    family = HashFamily(512, 3, seed=2)
    hasher = memo_hasher(family)
    keys = rng.integers(-50_000, 50_000, size=3 * _CHUNK + 5)
    keys = keys.astype(np.int64)
    assert_matches_family(hasher, keys)
    b = np.empty((3, keys.size), dtype=np.int64)
    s = np.empty((3, keys.size), dtype=np.float64)
    hasher.rows_into(keys, b, s)
    rb, rs = family.all_rows(keys)
    assert np.array_equal(b, rb)
    assert np.array_equal(s, rs)
    assert hasher.hits + hasher.misses == 2 * keys.size


def test_negative_and_extreme_keys():
    family = HashFamily(512, 3, seed=8)
    hasher = memo_hasher(family)
    keys = np.array(
        [-1, -2, -SETS, -SETS - 1, INT64_MIN, INT64_MIN + 1,
         INT64_MAX, INT64_MAX - 1, INT64_MAX - SETS, 0, 1],
        dtype=np.int64,
    )
    for _ in range(3):
        assert_matches_family(hasher, keys)
    assert hasher.misses == keys.size
    assert hasher.hits == 2 * keys.size


def test_empty_way_never_matches_a_real_key():
    family = HashFamily(256, 2, seed=4)
    hasher = memo_hasher(family)
    # A fresh memo: all of its ways are empty, so every key misses —
    # four keys of every set, negative ones included.
    keys = np.arange(-2 * SETS, 2 * SETS, dtype=np.int64)
    assert_matches_family(hasher, keys)
    assert hasher.hits == 0
    # A set with one way in use: its three empty ways match nothing.
    hasher = memo_hasher(family)
    assert_matches_family(hasher, [5])
    probe = np.array(
        [0, 1, 4, 6, 5 ^ 1, ~5, 5 - SETS, 5 + SETS, 5 + 2 * SETS,
         INT64_MAX, INT64_MIN],
        dtype=np.int64,
    )
    assert_matches_family(hasher, probe)
    assert hasher.hits == 0
    assert hasher.misses == 1 + probe.size


@lru_cache(maxsize=None)
def _family(kind, depth):
    return HashFamily(128, depth, seed=13, kind=kind)


#: Keys that crowd three sets (twice as many as a set has ways), with
#: negative and extreme values among them.
POOL = [s + SETS * j for s in (0, 1, SETS - 1)
        for j in range(-WAYS, WAYS)] + [INT64_MAX, INT64_MAX - SETS, INT64_MIN]


@given(
    kind=st.sampled_from(["tabulation", "polynomial"]),
    depth=st.sampled_from([1, 3]),
    batches=st.lists(
        st.tuples(st.lists(st.sampled_from(POOL), max_size=24),
                  st.booleans()),
        min_size=1, max_size=8,
    ),
)
def test_memo_equals_all_rows_on_crowded_sets(kind, depth, batches):
    family = _family(kind, depth)
    hasher = memo_hasher(family)
    positions = 0
    for keys, into in batches:
        keys = np.array(keys, dtype=np.int64)
        rb, rs = family.all_rows(keys)
        if into:
            b = np.empty((depth, keys.size), dtype=np.int64)
            s = np.empty((depth, keys.size), dtype=np.float64)
            out = hasher.rows_into(keys, b, s)
            assert out[0] is b and out[1] is s
        else:
            b, s = hasher.rows(keys)
        assert np.array_equal(b, rb)
        assert np.array_equal(s, rs)
        positions += keys.size
        assert hasher.hits + hasher.misses == positions
        assert len(hasher) <= WAYS * 3
