"""Stateful tests of ``TopKStore`` against its cold copy, a ``push_many``
twin and ``ReferenceTopKHeap``, and of AWM's numpy and c twins.

One hypothesis state machine drives four structures in lockstep:

* ``store`` — the store under test; every check reads its minimum, so
  its min cache is warm when the next operation runs;
* ``cold`` — a copy that goes through pickle before every operation, so
  it always starts from cold caches;
* ``twin`` — a store that takes every ``push`` as a one-element
  ``push_many``, whose batch screen must decide like ``push``;
* ``ref`` — the reference heap.

Values come from a small pool of dyadic numbers (exact under the
power-of-two decays) plus NaN, and one rule pushes a copy of the
current minimum, so ties at the admission threshold are frequent.
After every step the three stores pass ``check_invariants`` and agree
on ``items()`` and ``min_entry()`` exactly.  The reference agrees on
the items whenever no tie or NaN is live: where a tie or NaN could
steer a decision (which of two tied minima to evict, say) the two may
legitimately part, and the reference is rebuilt from the store once
the tie or NaN is gone.

A second machine (``AwmTwinsMachine``) trains two ``AWMSketch`` models,
one on the numpy kernels and one on c, with the same interleaving of
per-example ``update()`` and ``fit_batch`` calls, at active-set sizes on
both sides of the compiled store kernels' 64-slot blocks.  After every
step the twins agree bit for bit (table, scales, fold log, store slots
and raw values, version, promotions, clock) and both stores pass
``check_invariants``.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.heap.reference import ReferenceTopKHeap
from repro.heap.topk import TopKStore

KEYS = st.integers(min_value=0, max_value=7)
VALUES = st.sampled_from(
    [0.0, 1.0, -1.0, 2.0, math.nan]
)


def _canon(entries):
    """(key, value) pairs with NaN made comparable."""
    return [(k, "nan" if math.isnan(v) else v) for k, v in entries]


def _clean(priorities) -> bool:
    """No NaN and no two equal priorities."""
    priorities = list(priorities)
    return not any(map(math.isnan, priorities)) and (
        len(set(priorities)) == len(priorities)
    )


class TopKStoreMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(min_value=2, max_value=6))
    def build(self, capacity):
        self.store = TopKStore(capacity)
        self.cold = TopKStore(capacity)
        self.twin = TopKStore(capacity)
        self.ref = ReferenceTopKHeap(capacity)
        self.ref_in_sync = True

    def _stores(self):
        self.cold = pickle.loads(pickle.dumps(self.cold))
        return self.store, self.cold, self.twin

    def _decide(self, *candidates):
        """Mark the reference out of sync before an operation whose
        decisions a tie or NaN could steer."""
        live = [abs(v) for _, v in self.store.items()]
        if not _clean(live + [abs(v) for v in candidates]):
            self.ref_in_sync = False

    def _ref_has(self, key) -> bool:
        """Whether the reference holds ``key``, which only one out of
        sync may not."""
        assert key in self.ref or not self.ref_in_sync
        return key in self.ref

    @rule(key=KEYS, value=VALUES)
    def push(self, key, value):
        self._decide(value)
        store, cold, twin = self._stores()
        verdict = store.push(key, value)
        assert _canon([verdict] if verdict else []) == _canon(
            [v] if (v := cold.push(key, value)) else []
        )
        twin.push_many(np.array([key]), np.array([value]))
        self.ref.push(key, value)

    @rule(key=KEYS, negate=st.booleans())
    def push_a_tie_with_the_minimum(self, key, negate):
        """Push a value whose priority equals the current minimum's."""
        if len(self.store):
            value = self.store.min_entry()[1]
            self.push(key, -value if negate else value)

    @rule(pairs=st.lists(st.tuples(KEYS, VALUES), max_size=5))
    def push_many(self, pairs):
        self._decide(*(v for _, v in pairs))
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.float64)
        admitted = {s.push_many(keys, values) for s in self._stores()}
        assert len(admitted) == 1
        for key, value in pairs:
            self.ref.push(key, value)

    @rule(slot=st.integers(min_value=0, max_value=5))
    def remove(self, slot):
        """Remove the member at ``slot`` (modulo the size)."""
        if not len(self.store):
            return
        key = list(self.store)[slot % len(self.store)]
        for s in self._stores():
            s.remove(key)
        if self._ref_has(key):
            self.ref.remove(key)

    @rule()
    def pop_min(self):
        if not len(self.store):
            return
        self._decide()
        popped = {str(_canon([s.pop_min()])) for s in self._stores()}
        assert len(popped) == 1
        if len(self.ref):
            self.ref.pop_min()

    @rule(factor=st.sampled_from([0.5, 0.25]))
    def decay(self, factor):
        for s in self._stores():
            s.decay(factor)
        self.ref.decay(factor)

    @rule(key=KEYS, delta=VALUES)
    def add_delta(self, key, delta):
        if key not in self.store:
            return
        for s in self._stores():
            s.add_delta(key, delta)
        if self._ref_has(key):
            self.ref.add_delta(key, delta)

    @invariant()
    def stores_agree(self):
        stores = (self.store, self.cold, self.twin)
        for s in stores:
            s.check_invariants()
        items = _canon(self.store.items())
        assert _canon(self.cold.items()) == items
        assert _canon(self.twin.items()) == items
        if items:
            mins = {str(_canon([s.min_entry()])) for s in stores}
            assert len(mins) == 1, mins

    @invariant()
    def reference_agrees_without_ties(self):
        items = self.store.items()
        if not _clean(abs(v) for _, v in items):
            # A live NaN can also leave the reference's heap out of
            # order, so it is rebuilt rather than trusted afterwards.
            self.ref_in_sync = False
            return
        if not self.ref_in_sync:
            # Dyadic values and power-of-two decays round nothing, so
            # the rebuilt reference holds the store's exact values.
            self.ref = ReferenceTopKHeap(self.store.capacity)
            for key, value in items:
                self.ref.push(key, value)
            self.ref_in_sync = True
        assert sorted(self.ref.items()) == sorted(items)


TestTopKStoreMachine = TopKStoreMachine.TestCase
# Pinned under every profile, and derandomized so every run replays the
# same 250 examples: fewer, or fresh random ones, miss the rarer slot
# orders (a tie moved ahead of the cached minimum by ``remove``) too
# often.
TestTopKStoreMachine.settings = settings(
    max_examples=250, deadline=None, derandomize=True
)


# ----------------------------------------------------------------------
# AWM: numpy and c twins of one stream
# ----------------------------------------------------------------------
#: Feature ids the examples draw from; the keys the active set starts
#: with lie above them.
UNIVERSE = 160


@st.composite
def _examples(draw):
    keys = draw(st.lists(st.integers(0, UNIVERSE - 1), max_size=8,
                         unique=True))
    values = draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, 2.0]),
                           min_size=len(keys), max_size=len(keys)))
    return SparseExample(np.array(keys, dtype=np.int64),
                         np.array(values, dtype=np.float64),
                         draw(st.sampled_from([1, -1])))


def _awm_state(model):
    heap = model.heap
    n = len(heap)
    return (model.table.tobytes(), model._scale, model._fold_log,
            heap._keys[:n].tobytes(), heap._raw[:n].tobytes(), heap.scale,
            heap.version, model.n_promotions, model.t)


class AwmTwinsMachine(RuleBasedStateMachine):
    @initialize(
        capacity=st.sampled_from([2, 63, 64, 65, 129]),
        depth=st.integers(1, 3),
        width=st.sampled_from([8, 64]),
        lam=st.sampled_from([0.0, 0.01]),
        free=st.integers(0, 6),
        values=st.lists(st.sampled_from([0.0, 0.01, -0.05, 0.05, 0.1]),
                        min_size=129, max_size=129),
    )
    def build(self, capacity, depth, width, lam, free, values):
        self.models = [
            AWMSketch(width, depth, heap_capacity=capacity, seed=5,
                      lambda_=lam, backend=name)
            for name in ("numpy", "c")
        ]
        assert [m.kernels.name for m in self.models] == ["numpy", "c"]
        # All but ``free`` slots start filled, with values that tie the
        # first steps' candidates (|0.05| at eta = 0.1, dloss(0) = -0.5).
        for model in self.models:
            for key in range(max(capacity - free, 0)):
                model.heap.push(1000 + key, values[key])

    @rule(example=_examples())
    def update(self, example):
        for model in self.models:
            model.update(example)

    @rule(examples=st.lists(_examples(), min_size=1, max_size=6))
    def fit_batch(self, examples):
        batch = SparseBatch.from_examples(examples)
        margins = {m.fit_batch(batch).tobytes() for m in self.models}
        assert len(margins) == 1

    @precondition(lambda self: self.models[0].lambda_ > 0.0)
    @rule()
    def brink(self):
        """Shrink both scales to the renorm threshold, so the next step
        (or the store's decay here) folds them into the raw store values
        and the table, as ``_grid_model`` in ``test_kernel_backends.py``
        does."""
        for model in self.models:
            eta = model.schedule(model.t)
            brink = 1e-150 * 1.0000001 / model._decay_factor(eta)
            model._scale = brink
            model.heap.decay(brink)

    @invariant()
    def twins_agree(self):
        for model in self.models:
            model.heap.check_invariants()
        assert _awm_state(self.models[0]) == _awm_state(self.models[1])


TestAwmTwinsMachine = pytest.mark.skipif(
    "c" not in kernels.available_backends(),
    reason="the c kernel backend does not build on this host",
)(AwmTwinsMachine.TestCase)
# The example count follows the hypothesis profile (thorough in CI).
TestAwmTwinsMachine.settings = settings(deadline=None,
                                        stateful_step_count=30)
