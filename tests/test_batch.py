"""Unit tests for the CSR mini-batch layer (repro.data.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data import batch as batch_module
from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample


def _examples(n, rng, universe=1_000, max_nnz=6):
    out = []
    for _ in range(n):
        nnz = int(rng.integers(1, max_nnz + 1))
        idx = rng.choice(universe, size=nnz, replace=False).astype(np.int64)
        vals = rng.normal(size=nnz)
        label = 1 if rng.random() < 0.5 else -1
        out.append(SparseExample(idx, vals, label))
    return out


def test_from_examples_roundtrip(rng):
    examples = _examples(23, rng)
    batch = SparseBatch.from_examples(examples)
    assert len(batch) == 23
    assert batch.nnz == sum(ex.nnz for ex in examples)
    for i, ex in enumerate(examples):
        back = batch.example(i)
        assert np.array_equal(back.indices, ex.indices)
        assert np.array_equal(back.values, ex.values)
        assert back.label == ex.label
    # Iteration yields the same sequence.
    for ex, back in zip(examples, batch):
        assert np.array_equal(back.indices, ex.indices)


def test_from_examples_empty():
    batch = SparseBatch.from_examples([])
    assert len(batch) == 0
    assert batch.nnz == 0
    assert list(batch) == []


def test_empty_example_in_batch():
    ex0 = SparseExample(np.empty(0, dtype=np.int64), np.empty(0), 1)
    ex1 = SparseExample(np.array([3]), np.array([2.0]), -1)
    batch = SparseBatch.from_examples([ex0, ex1])
    assert len(batch) == 2
    assert batch.example(0).nnz == 0
    assert batch.example(1).nnz == 1


def test_validation_errors():
    with pytest.raises(ValueError, match="indptr"):
        SparseBatch(
            np.array([1, 2]), np.array([5]), np.array([1.0]), np.array([1])
        )
    with pytest.raises(ValueError, match="non-decreasing"):
        SparseBatch(
            np.array([0, 2, 1, 3]),
            np.array([1, 2, 3]),
            np.ones(3),
            np.array([1, 1, 1]),
        )
    with pytest.raises(ValueError, match="labels"):
        SparseBatch(
            np.array([0, 1]), np.array([5]), np.array([1.0]), np.array([2])
        )
    with pytest.raises(ValueError, match="labels"):
        SparseBatch(
            np.array([0, 1, 2]),
            np.array([5, 6]),
            np.ones(2),
            np.array([1]),
        )
    with pytest.raises(ValueError, match="shape"):
        SparseBatch(
            np.array([0, 2]),
            np.array([5, 6]),
            np.ones(3),
            np.array([1]),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad, rng):
    batches = list(iter_batches(_examples(96, rng), 16))
    poisoned = batches[2]
    values = poisoned.values.copy()
    values[5] = bad
    with pytest.raises(ValueError, match=r"values\[5\] is .*finite"):
        SparseBatch(poisoned.indptr, poisoned.indices, values,
                    poisoned.labels)
    # The rest of the stream trains models whose state stays finite.
    for model in (WMSketch(64, 3, seed=0, heap_capacity=16),
                  AWMSketch(64, 3, seed=0, heap_capacity=16)):
        for batch in batches[:2] + batches[3:]:
            model.fit_batch(batch)
        assert np.all(np.isfinite(model.sketch_state()))
        top = model.top_weights(16)
        assert top and all(np.isfinite(w) for _, w in top)


def test_repeated_id_rejected_naming_example_and_id():
    with pytest.raises(ValueError, match=r"example 1 repeats feature id 7:"):
        SparseBatch([0, 2, 4], [1, 2, 7, 7], [1e-3, 1e-3, 5.0, 5.0], [1, -1])
    # The same id in two different examples is fine.
    assert SparseBatch([0, 2, 4], [1, 7, 7, 1], np.ones(4), [1, -1]).nnz == 4


@pytest.mark.parametrize("block", [1, 3, 16, 1 << 16])
def test_repeated_id_check_matches_brute_force(block, monkeypatch, rng):
    """Whatever the block size, the check names the first example that
    repeats an id, and that example's smallest repeated id."""
    monkeypatch.setattr(batch_module, "_ID_CHECK_BLOCK", block)
    for _ in range(300):
        rows = []
        for count in rng.integers(0, 6, size=int(rng.integers(1, 12))):
            ids = rng.integers(0, 12, size=int(count))
            if rng.random() < 0.5:
                ids = np.unique(ids)  # sorted, distinct: the fast path
            rows.append(ids.astype(np.int64))
        indptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        indices = np.concatenate(rows)
        labels = np.ones(len(rows), dtype=np.int64)
        first = next(
            (i for i, r in enumerate(rows) if np.unique(r).size < r.size),
            None,
        )
        if first is None:
            SparseBatch(indptr, indices, np.ones(indices.size), labels)
            continue
        uniq, counts = np.unique(rows[first], return_counts=True)
        repeated = int(uniq[counts > 1][0])
        with pytest.raises(
            ValueError,
            match=rf"example {first} repeats feature id {repeated}:",
        ):
            SparseBatch(indptr, indices, np.ones(indices.size), labels)


def test_iter_batches_chunking(rng):
    examples = _examples(25, rng)
    batches = list(iter_batches(examples, 8))
    assert [len(b) for b in batches] == [8, 8, 8, 1]
    # Order is preserved across batch boundaries.
    flat = [ex for b in batches for ex in b]
    for ex, back in zip(examples, flat):
        assert np.array_equal(back.indices, ex.indices)
        assert back.label == ex.label


def test_iter_batches_accepts_generators(rng):
    examples = _examples(10, rng)
    batches = list(iter_batches(iter(examples), 4))
    assert [len(b) for b in batches] == [4, 4, 2]


def test_iter_batches_rejects_bad_size():
    with pytest.raises(ValueError):
        list(iter_batches([], 0))


def test_iter_batches_empty_stream():
    assert list(iter_batches([], 5)) == []


def test_from_pairs():
    batch = SparseBatch.from_pairs(
        np.array([5, 9, 5]), np.array([1, -1, 1])
    )
    assert len(batch) == 3
    assert batch.nnz == 3
    ex = batch.example(1)
    assert ex.indices.tolist() == [9]
    assert ex.values.tolist() == [1.0]
    assert ex.label == -1
    custom = SparseBatch.from_pairs(
        np.array([2]), np.array([1]), values=np.array([0.5])
    )
    assert custom.example(0).values.tolist() == [0.5]


def test_time_pass_rejects_update_only_batched():
    import pytest as _pytest

    from repro.evaluation.runtime import time_pass
    from repro.learning.feature_hashing import FeatureHashing

    with _pytest.raises(ValueError, match="with_prediction"):
        time_pass(
            "x", FeatureHashing(64), [], with_prediction=False, batch_size=8
        )
