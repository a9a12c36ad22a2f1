"""Equivalence of the AWM-Sketch's scalar fast path and its spec.

The Section 8 applications stream 1-sparse examples, which
``AWMSketch.update`` always hands to the all-scalar step
``_update_one``.  These tests drive two sketches through identical
streams — one through ``update``, one through the general per-example
step ``_update_example`` (the Algorithm 2 spec) — and require the same
state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.awm_sketch import AWMSketch
from repro.data.sparse import SparseExample
from repro.learning.schedules import ConstantSchedule


def _one_sparse_stream(n, universe, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        idx = int(rng.integers(0, universe))
        val = float(rng.choice([0.5, 1.0, 2.0]))
        label = 1 if rng.random() < 0.6 else -1
        out.append(
            SparseExample(np.array([idx], dtype=np.int64),
                          np.array([val]), label)
        )
    return out


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("lambda_", [0.0, 1e-4])
def test_scalar_path_matches_batch_path(depth, lambda_):
    kwargs = dict(
        width=256,
        depth=depth,
        heap_capacity=16,
        lambda_=lambda_,
        learning_rate=ConstantSchedule(0.2),
        seed=7,
    )
    fast = AWMSketch(**kwargs)
    slow = AWMSketch(**kwargs)
    stream = _one_sparse_stream(800, universe=2_000, seed=3)
    for ex in stream:
        fast.update(ex)
        slow._update_example(ex.indices, ex.values, ex.label)
    # Identical sketch state, heap contents and diagnostics.
    assert np.allclose(fast.sketch_state(), slow.sketch_state(),
                       rtol=1e-12, atol=1e-12)
    assert sorted(fast.heap.items()) == pytest.approx(
        sorted(slow.heap.items())
    )
    assert fast.n_promotions == slow.n_promotions
    # And identical estimates for arbitrary features.
    probe = np.arange(0, 2_000, 37, dtype=np.int64)
    assert np.allclose(
        fast.estimate_weights(probe), slow.estimate_weights(probe)
    )


def test_scalar_estimate_matches_vector_estimate():
    clf = AWMSketch(width=128, depth=5, heap_capacity=4, lambda_=0.0, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        clf.update(
            SparseExample(
                np.array([int(rng.integers(0, 500))], dtype=np.int64),
                np.ones(1),
                1 if rng.random() < 0.5 else -1,
            )
        )
    for key in range(0, 500, 11):
        scalar = clf._estimate_one(key)
        vector = float(
            clf._sketch_estimate(np.array([key], dtype=np.int64))[0]
        )
        if key in clf.heap:
            continue  # estimate_weights would use the heap; compare raw
        assert scalar == pytest.approx(vector, abs=1e-12)


def test_mixed_sparsity_stream_consistency():
    """Streams mixing 1-sparse and multi-sparse examples go through both
    steps inside one sketch; results must match the spec alone."""
    kwargs = dict(width=512, depth=2, heap_capacity=8, lambda_=1e-5,
                  learning_rate=ConstantSchedule(0.1), seed=5)
    fast = AWMSketch(**kwargs)
    slow = AWMSketch(**kwargs)
    rng = np.random.default_rng(9)
    for _ in range(400):
        nnz = int(rng.integers(1, 5))
        idx = rng.choice(3_000, size=nnz, replace=False).astype(np.int64)
        vals = rng.choice([0.5, 1.0], size=nnz)
        y = 1 if rng.random() < 0.5 else -1
        ex = SparseExample(idx, vals, y)
        fast.update(ex)
        slow._update_example(ex.indices, ex.values, ex.label)
    assert np.allclose(fast.sketch_state(), slow.sketch_state())
    assert fast.n_promotions == slow.n_promotions
