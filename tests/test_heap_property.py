"""Property-based tests: TopKStore vs a naive reference implementation."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.heap.topk import TopKStore

# A random operation sequence: (op, key, value).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["push", "delta", "remove", "decay", "pop_min"]),
        st.integers(min_value=0, max_value=15),
        st.floats(
            min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
        ),
    ),
    max_size=60,
)


class NaiveTopK:
    """Reference: a plain dict with explicit truncation semantics."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.data: dict[int, float] = {}

    def push(self, key, value):
        if key in self.data or len(self.data) < self.capacity:
            self.data[key] = value
            return
        min_key = min(self.data, key=lambda k: abs(self.data[k]))
        if abs(value) > abs(self.data[min_key]):
            del self.data[min_key]
            self.data[key] = value

    def decay(self, f):
        for k in self.data:
            self.data[k] *= f

    def min_abs(self):
        return min(abs(v) for v in self.data.values())


@given(ops_strategy, st.integers(min_value=1, max_value=8))
def test_heap_matches_reference(ops, capacity):
    heap = TopKStore(capacity)
    ref = NaiveTopK(capacity)
    for op, key, value in ops:
        if op == "push":
            heap.push(key, value)
            ref.push(key, value)
        elif op == "delta":
            if key in ref.data:
                heap.add_delta(key, value)
                ref.data[key] += value
        elif op == "remove":
            if key in ref.data:
                heap.remove(key)
                del ref.data[key]
        elif op == "decay":
            factor = 0.5 + abs(value) / 250.0  # in (0.5, 0.9]
            heap.decay(factor)
            ref.decay(factor)
        elif op == "pop_min":
            if ref.data:
                k, v = heap.pop_min()
                # The popped entry must be a minimum-magnitude entry in
                # the reference (ties allowed).
                assert abs(v) <= ref.min_abs() + 1e-9
                assert k in ref.data
                del ref.data[k]
        heap.check_invariants()
    # Final state equivalence.
    assert len(heap) == len(ref.data)
    for k, v in ref.data.items():
        assert k in heap
        assert heap.value(k) == np.float64(v) or abs(heap.value(k) - v) < 1e-9


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=100,
    ),
    st.integers(min_value=1, max_value=10),
)
def test_final_contents_are_topk_of_final_values(pairs, capacity):
    """Pushing a sequence of (key, value) pairs leaves the heap holding a
    top-``capacity`` (by |value|) subset of the final per-key values."""
    heap = TopKStore(capacity)
    final: dict[int, float] = {}
    for key, value in pairs:
        heap.push(key, value)
        final[key] = value
    heap.check_invariants()
    kept = dict(heap.items())
    assert len(kept) == min(capacity, len(final))
    for k, v in kept.items():
        assert abs(final[k] - v) < 1e-9
    # Every kept magnitude >= every dropped *currently-valid* magnitude is
    # NOT guaranteed (keys pushed early can be displaced by interleaving),
    # but each kept value must equal the key's final pushed value -- which
    # we asserted -- and the heap can never exceed capacity.
    assert len(heap) <= capacity


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_decay_composition(factors):
    """Sequential decays compose multiplicatively on true values."""
    heap = TopKStore(3)
    heap.push(0, 8.0)
    product = 1.0
    for f in factors:
        heap.decay(f)
        product *= f
    assert heap.value(0) == np.float64(8.0) * np.prod(
        np.array(factors)
    ) or abs(heap.value(0) - 8.0 * product) < 1e-6 * max(1.0, 8.0 * product)
