"""Equivalence of the AWM-Sketch's scalar fast path and its spec.

The Section 8 applications stream 1-sparse examples, which
``AWMSketch.update`` always hands to the all-scalar step
``_update_one``.  These tests drive two sketches through identical
streams — one through ``update``, one through the general per-example
step ``_update_example`` (the Algorithm 2 spec) — and require the same
state bit for bit: table bytes, scales, the heap's slot order and raw
bits, the promotion count and every returned margin.
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
        val = float(rng.choice([0.5, 1.0, 2.0, 0.3]))
        label = 1 if rng.random() < 0.6 else -1
        out.append(
            SparseExample(np.array([idx], dtype=np.int64),
                          np.array([val]), label)
        )
    return out


def _assert_identical(fast, slow):
    assert fast.table.tobytes() == slow.table.tobytes()
    assert fast._scale == slow._scale
    assert fast.t == slow.t
    assert fast.n_promotions == slow.n_promotions
    a, b = fast.heap.__getstate__(), slow.heap.__getstate__()
    assert a["scale"] == b["scale"]
    assert a["keys"].tolist() == b["keys"].tolist()  # slot order
    assert a["raw"].tobytes() == b["raw"].tobytes()


def _drive(depth, lambda_, l1=0.0, n=800):
    """Twins over one 1-sparse stream: ``update`` (the scalar step)
    against ``_update_example``; returns both models and margins."""
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
    fast.l1 = slow.l1 = l1
    fast_margins, slow_margins = [], []
    for ex in _one_sparse_stream(n, universe=2_000, seed=3):
        fast_margins.append(fast._update_one(
            int(ex.indices[0]), float(ex.values[0]), ex.label
        ))
        slow_margins.append(
            slow._update_example(ex.indices, ex.values, ex.label)
        )
    assert (np.array(fast_margins).tobytes()
            == np.array(slow_margins).tobytes())
    return fast, slow


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("lambda_", [0.0, 1e-4])
def test_scalar_path_matches_batch_path(depth, lambda_):
    fast, slow = _drive(depth, lambda_)
    _assert_identical(fast, slow)
    # And identical estimates for arbitrary features.
    probe = np.arange(0, 2_000, 37, dtype=np.int64)
    assert (fast.estimate_weights(probe).tobytes()
            == slow.estimate_weights(probe).tobytes())
    # update() dispatches 1-sparse examples to the same step.
    more = _one_sparse_stream(50, universe=2_000, seed=4)
    for ex in more:
        fast.update(ex)
        slow._update_example(ex.indices, ex.values, ex.label)
    _assert_identical(fast, slow)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("l1", [0.0, 0.01])
def test_scalar_path_soft_thresholds_like_the_spec(l1, depth):
    """The scalar query soft-thresholds by ``l1`` (set on the instance,
    as the batched-equivalence property does) exactly as the spec's
    recovery does; the promotions then follow the thresholded
    candidates."""
    fast, slow = _drive(depth, 1e-4, l1=l1)
    _assert_identical(fast, slow)


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
    for l1 in (0.0, 0.01):
        clf.l1 = l1
        for key in range(0, 500, 11):
            rows = [clf.family.bucket_sign_one(key, j) for j in range(5)]
            scalar = clf._query_one(rows)
            vector = clf._sketch_estimate(np.array([key], dtype=np.int64))
            assert np.float64(scalar).tobytes() == vector.tobytes()


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
    _assert_identical(fast, slow)
