"""Executable spec: TopKStore vs the retained reference binary heap.

The array-backed :class:`~repro.heap.topk.TopKStore` replaced the
original pure-Python :class:`~repro.heap.reference.ReferenceTopKHeap`
on every hot path; the original is retained verbatim as the executable
specification.  These property tests drive both structures through
identical random operation sequences — push / add_delta / decay /
pop_min / remove / clear plus the vectorized entry points (push_many,
add_many, set_many, contains_many, member_slots) against scalar reference
loops — and assert identical visible state after every operation,
including across decay-underflow renormalization.

The one sanctioned divergence is tie-breaking among *stored* entries
with exactly equal minimum priority: the store picks deterministically
by slot order, the reference heap by its sift history.  The generators
below use value pools that cannot collide in priority (magnitudes are
distinct powers-ish floats) except where a test targets ties on
purpose, so min_entry / pop_min comparisons stay meaningful.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap.reference import ReferenceTopKHeap
from repro.heap.topk import TopKStore

# Values with distinct magnitudes (no |a| == |b| for a != b in the
# pool) so priority ties cannot arise between different keys.
_MAGNITUDES = [0.25 * 1.37**i for i in range(40)]
values_strategy = st.builds(
    lambda i, s: s * _MAGNITUDES[i],
    st.integers(min_value=0, max_value=len(_MAGNITUDES) - 1),
    st.sampled_from([-1.0, 1.0]),
)


def _salt(key: int, value: float) -> float:
    """Make priorities key-distinct: two *different* keys can then never
    tie exactly, so min/eviction comparisons between the store and the
    reference heap are unambiguous (tie-breaking among equal minima is
    the one sanctioned divergence between the implementations)."""
    return value * (1.0 + key / 997.0)

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ["push", "delta", "remove", "decay", "pop_min", "clear"]
        ),
        st.integers(min_value=0, max_value=20),
        values_strategy,
    ),
    max_size=80,
)


def _assert_same_state(store: TopKStore, ref: ReferenceTopKHeap) -> None:
    assert len(store) == len(ref)
    assert sorted(store.items()) == sorted(ref.items())
    if len(ref):
        # Identical minimum priority (the admission threshold), whatever
        # entry carries it.
        assert store.min_priority() == ref.min_priority()
    store.check_invariants()
    ref.check_invariants()


@settings(max_examples=200, deadline=None)
@given(ops_strategy, st.integers(min_value=1, max_value=8))
def test_identical_op_sequences_identical_state(ops, capacity):
    store = TopKStore(capacity)
    ref = ReferenceTopKHeap(capacity)
    for op, key, value in ops:
        value = _salt(key, value)
        if op == "push":
            assert store.push(key, value) == ref.push(key, value)
        elif op == "delta":
            if key in ref:
                store.add_delta(key, value)
                ref.add_delta(key, value)
        elif op == "remove":
            if key in ref:
                assert store.remove(key) == ref.remove(key)
        elif op == "decay":
            factor = 0.5 + abs(value) / (2.0 * _MAGNITUDES[-1])
            store.decay(factor)
            ref.decay(factor)
        elif op == "pop_min":
            if len(ref):
                assert store.pop_min() == ref.pop_min()
        elif op == "clear":
            store.clear()
            ref.clear()
        _assert_same_state(store, ref)


@settings(max_examples=100, deadline=None)
@given(ops_strategy, st.integers(min_value=1, max_value=8))
def test_underflow_renormalization_matches(ops, capacity):
    """Decaying hard enough to trigger the scale fold-back leaves both
    structures with the same (tiny but finite) visible values."""
    store = TopKStore(capacity)
    ref = ReferenceTopKHeap(capacity)
    for op, key, value in ops:
        value = _salt(key, value)
        if op in ("push", "delta", "remove", "pop_min", "clear"):
            if op == "push":
                store.push(key, value)
                ref.push(key, value)
        else:
            store.decay(1e-40)
            ref.decay(1e-40)
        _assert_same_state(store, ref)
    for _ in range(5):
        store.decay(1e-40)
        ref.decay(1e-40)
    # At least one renormalization must have fired in each.
    assert store.scale == ref.scale
    _assert_same_state(store, ref)
    for key, value in store.items():
        assert math.isfinite(value)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), values_strategy),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=10),
)
def test_push_many_matches_sequential_reference(pairs, capacity):
    """push_many's vectorized admission screen is decision-equivalent
    to pushing one pair at a time into the reference heap."""
    store = TopKStore(capacity)
    ref = ReferenceTopKHeap(capacity)
    pairs = [(k, _salt(k, v)) for k, v in pairs]
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    admitted = store.push_many(keys, values)
    ref_admitted = 0
    for k, v in pairs:
        rejected = ref.push(k, v)
        if rejected is None or rejected[0] != k:
            ref_admitted += 1
    assert admitted == ref_admitted
    _assert_same_state(store, ref)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), values_strategy),
        min_size=1,
        max_size=40,
    ),
    st.lists(values_strategy, min_size=40, max_size=40),
    st.integers(min_value=2, max_value=12),
)
def test_vectorized_member_ops_match_scalar_loops(pairs, deltas, capacity):
    """contains_many / member_slots / add_many / set_many agree with
    per-key scalar access on the reference heap."""
    store = TopKStore(capacity)
    ref = ReferenceTopKHeap(capacity)
    for k, v in pairs:
        v = _salt(k, v)
        store.push(k, v)
        ref.push(k, v)
    probe = np.arange(-2, 33, dtype=np.int64)
    mask = store.contains_many(probe)
    slots = store.member_slots(probe)
    for key, m, slot in zip(probe.tolist(), mask.tolist(), slots.tolist()):
        assert m == (key in ref)
        assert (slot >= 0) == (key in ref)
        if slot >= 0:
            assert store.values_at(np.array([slot]))[0] == ref.value(key)
    # add_many over the current members == per-key add_delta.
    member_keys = [k for k, _ in store.items()]
    if member_keys:
        member_arr = np.array(member_keys, dtype=np.int64)
        member_slots = store.member_slots(member_arr)
        step = np.array(deltas[: len(member_keys)], dtype=np.float64)
        store.add_many(member_slots, step)
        for k, d in zip(member_keys, step.tolist()):
            ref.add_delta(k, d)
        _assert_same_state(store, ref)
        # set_many over the members == per-key member push.
        newv = np.array(deltas[-len(member_keys):], dtype=np.float64)
        store.set_many(member_slots, newv)
        for k, v in zip(member_keys, newv.tolist()):
            assert ref.push(k, v) is None
        _assert_same_state(store, ref)


@settings(deadline=None)
@given(
    st.lists(values_strategy, min_size=1, max_size=8),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), values_strategy),
        min_size=1,
        max_size=40,
    ),
    st.booleans(),
)
def test_set_many_repeated_slots_match_member_pushes(initial, writes, decay):
    """set_many with repeated slots == per-key member pushes in order:
    each slot keeps its last write, bit for bit (also with a scale)."""
    store, spec = TopKStore(len(initial)), TopKStore(len(initial))
    for key, v in enumerate(initial):
        store.push(key, v)
        spec.push(key, v)
    if decay:
        store.decay(0.75)
        spec.decay(0.75)
    slots = np.array([s % len(initial) for s, _ in writes], dtype=np.intp)
    values = np.array([v for _, v in writes], dtype=np.float64)
    store.set_many(slots, values)
    for slot, v in zip(slots.tolist(), values.tolist()):
        assert spec.push(int(spec._keys[slot]), v) is None
    assert store.items() == spec.items()
    n = len(store)
    assert store._raw[:n].tobytes() == spec._raw[:n].tobytes()
    assert store.min_entry() == spec.min_entry()
    store.check_invariants()


@settings(max_examples=60, deadline=None)
@given(ops_strategy, st.integers(min_value=1, max_value=8))
def test_pickle_roundtrip_preserves_visible_state(ops, capacity):
    """The store's slot-prefix pickling (spawn-safe shard transport)
    restores identical visible state and stays op-equivalent after."""
    store = TopKStore(capacity)
    ref = ReferenceTopKHeap(capacity)
    for op, key, value in ops:
        if op == "push":
            value = _salt(key, value)
            store.push(key, value)
            ref.push(key, value)
        elif op == "decay":
            store.decay(0.75)
            ref.decay(0.75)
    restored = pickle.loads(pickle.dumps(store))
    assert restored.capacity == store.capacity
    assert restored.scale == store.scale
    assert restored.items() == store.items()
    _assert_same_state(restored, ref)
    # The restored store keeps operating identically.
    restored.push(99, 123.25)
    ref.push(99, 123.25)
    _assert_same_state(restored, ref)


def test_replace_min_equals_pop_then_push():
    """replace_min is the slot-stable fusion of pop_min + push."""
    a = TopKStore(3)
    b = TopKStore(3)
    for key, v in [(1, 1.0), (2, -2.0), (3, 3.0)]:
        a.push(key, v)
        b.push(key, v)
    evicted_a = a.replace_min(9, 5.0)
    popped = b.pop_min()
    b.push(9, 5.0)
    assert evicted_a == popped
    assert sorted(a.items()) == sorted(b.items())
    a.check_invariants()
