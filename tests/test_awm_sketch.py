"""Tests for the Active-Set Weight-Median Sketch (Algorithm 2)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import c_backend_param

from repro.core.awm_sketch import AWMSketch
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.learning.ogd import UncompressedClassifier
from repro.learning.schedules import ConstantSchedule


def _ex(indices, values, label):
    return SparseExample(
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        label,
    )


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AWMSketch(0)
        with pytest.raises(ValueError):
            AWMSketch(8, depth=0)
        with pytest.raises(ValueError):
            AWMSketch(8, heap_capacity=0)

    def test_memory_cost(self):
        clf = AWMSketch(width=256, depth=1, heap_capacity=64)
        assert clf.memory_cost_bytes == 4 * (256 + 128)


class TestActiveSetSemantics:
    def test_features_promote_into_heap(self):
        clf = AWMSketch(width=64, depth=1, heap_capacity=4, lambda_=0.0,
                        learning_rate=ConstantSchedule(0.5))
        for i in range(4):
            clf.update(_ex([i], [1.0], 1))
        # First four features fill the free heap slots.
        assert all(i in clf.heap for i in range(4))
        assert clf.n_promotions >= 4

    def test_heap_features_updated_exactly(self):
        """Once in the heap, a feature's weight follows exact OGD."""
        clf = AWMSketch(width=64, depth=1, heap_capacity=2, lambda_=0.0,
                        learning_rate=ConstantSchedule(0.5))
        clf.update(_ex([7], [1.0], 1))
        w1 = clf.heap.value(7)
        # tau after first update: w1; second update gradient uses it.
        clf.update(_ex([7], [1.0], 1))
        expected = w1 - 0.5 * clf.loss.dloss(w1)
        assert clf.heap.value(7) == pytest.approx(expected)

    def test_eviction_folds_weight_into_sketch(self):
        """An evicted feature's exact weight must reappear (approximately)
        as its sketch estimate."""
        clf = AWMSketch(width=1024, depth=1, heap_capacity=1, lambda_=0.0,
                        learning_rate=ConstantSchedule(0.5), seed=3)
        for _ in range(10):
            clf.update(_ex([7], [1.0], 1))
        w7 = clf.heap.value(7)
        assert w7 > 0.5
        # Train feature 8 hard enough to displace feature 7.
        for _ in range(20):
            clf.update(_ex([8], [2.0], 1))
        assert 8 in clf.heap and 7 not in clf.heap
        # Feature 7's weight was folded back into the sketch.
        est7 = clf.estimate_weights(np.array([7]))[0]
        assert est7 == pytest.approx(w7, rel=0.2)

    def test_estimates_prefer_heap_values(self):
        clf = AWMSketch(width=64, depth=1, heap_capacity=4, lambda_=0.0)
        clf.update(_ex([3], [1.0], 1))
        exact = clf.heap.value(3)
        assert clf.estimate_weights(np.array([3]))[0] == exact

    def test_top_weights_is_active_set(self):
        clf = AWMSketch(width=64, depth=1, heap_capacity=3, lambda_=0.0,
                        learning_rate=ConstantSchedule(0.5))
        for i, reps in [(0, 5), (1, 3), (2, 1)]:
            for _ in range(reps):
                clf.update(_ex([i], [1.0], 1))
        top = clf.top_weights(2)
        assert [i for i, _ in top] == [0, 1]

    def test_repeated_id_cannot_take_two_slots(self):
        """Regression: a feature id repeated within one example used to
        be promoted twice, leaving one key in two active-set slots (and
        twice in top_weights).  Batches now reject repeated ids; the
        distinct-id version of the same batch keeps one slot per key."""
        with pytest.raises(ValueError, match="example 1 repeats feature id 7"):
            SparseBatch([0, 2, 4], [1, 2, 7, 7],
                        [1e-3, 1e-3, 5.0, 5.0], [1, -1])
        clf = AWMSketch(64, 1, heap_capacity=2, lambda_=0.0,
                        learning_rate=1.0)
        clf.fit_batch(SparseBatch([0, 2, 4], [1, 2, 7, 8],
                                  [1e-3, 1e-3, 5.0, 5.0], [1, -1]))
        clf.heap.check_invariants()
        assert sorted(k for k, _ in clf.top_weights(2)) == [7, 8]


class TestLearning:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(1)
        clf = AWMSketch(width=128, depth=1, heap_capacity=16, lambda_=1e-6,
                        learning_rate=0.5, seed=0)
        for _ in range(600):
            if rng.random() < 0.5:
                clf.update(_ex([0, 1], [1.0, 1.0], 1))
            else:
                clf.update(_ex([2, 3], [1.0, 1.0], -1))
        assert clf.predict(_ex([0, 1], [1.0, 1.0], 1)) == 1
        assert clf.predict(_ex([2, 3], [1.0, 1.0], -1)) == -1

    def test_matches_uncompressed_when_heap_covers_everything(self):
        """If the active set is larger than the feature universe, AWM is
        exact OGD: no feature ever touches the sketch."""
        d = 10
        dense = UncompressedClassifier(
            d, lambda_=1e-3, learning_rate=ConstantSchedule(0.2)
        )
        awm = AWMSketch(width=32, depth=1, heap_capacity=32, lambda_=1e-3,
                        learning_rate=ConstantSchedule(0.2), seed=5)
        rng = np.random.default_rng(4)
        for _ in range(300):
            nnz = int(rng.integers(1, 4))
            idx = rng.choice(d, size=nnz, replace=False)
            vals = rng.normal(0, 1, size=nnz)
            y = 1 if rng.random() < 0.5 else -1
            dense.update(_ex(idx, vals, y))
            awm.update(_ex(idx, vals, y))
        est = awm.estimate_weights(np.arange(d))
        assert np.allclose(est, dense.dense_weights(), atol=1e-8)
        # The sketch stayed empty.
        assert np.all(awm.sketch_state() == 0.0)

    def test_regularization_decays_heap(self):
        clf = AWMSketch(width=32, depth=1, heap_capacity=4, lambda_=0.5,
                        learning_rate=ConstantSchedule(0.1))
        clf.update(_ex([0], [1.0], 1))
        w0 = clf.heap.value(0)
        for _ in range(50):
            clf.update(_ex([1], [1.0], 1))
        assert abs(clf.heap.value(0)) < abs(w0)

    def test_eta_lambda_guard(self):
        clf = AWMSketch(width=16, depth=1, heap_capacity=2, lambda_=2.0,
                        learning_rate=ConstantSchedule(1.0))
        with pytest.raises(ValueError):
            clf.update(_ex([0], [1.0], 1))

    def test_depth_greater_than_one(self):
        clf = AWMSketch(width=64, depth=3, heap_capacity=4, lambda_=0.0,
                        learning_rate=0.5, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(300):
            clf.update(_ex([int(rng.integers(0, 40))], [1.0],
                           1 if rng.random() < 0.7 else -1))
        assert np.isfinite(clf.predict_margin(_ex([1], [1.0], 1)))


class TestRecoveryQuality:
    def test_finds_planted_heavy_features(self):
        rng = np.random.default_rng(7)
        d = 2_000
        hot = [10, 20, 30]
        clf = AWMSketch(width=512, depth=1, heap_capacity=16, lambda_=1e-5,
                        learning_rate=0.5, seed=1)
        for _ in range(1_500):
            idx = {int(rng.integers(0, d)) for _ in range(4)}
            idx.add(hot[int(rng.integers(0, 3))])
            clf.update(_ex(sorted(idx), np.ones(len(idx)), 1))
        top = [i for i, _ in clf.top_weights(3)]
        assert set(top) == set(hot)

    def test_active_set_beats_plain_sketch_on_recovery(self):
        """The headline claim, miniaturized: at equal memory the AWM's
        top-K error is no worse than the WM's on a noisy stream."""
        from repro.core.wm_sketch import WMSketch
        from repro.evaluation.metrics import relative_error

        rng = np.random.default_rng(11)
        d = 3_000
        truth = np.zeros(d)
        hot = rng.choice(d, size=20, replace=False)
        truth[hot] = rng.normal(0, 2.0, size=20)

        dense = UncompressedClassifier(d, lambda_=1e-5, learning_rate=0.5)
        # Equal budgets: AWM = 512 cells sketch + 2*128 heap;
        # WM = 640 cells sketch + 2*64 heap (768 cells each).
        awm = AWMSketch(width=512, depth=1, heap_capacity=128, lambda_=1e-5,
                        learning_rate=0.5, seed=2)
        wm = WMSketch(width=320, depth=2, heap_capacity=64, lambda_=1e-5,
                      learning_rate=0.5, seed=2)
        for _ in range(2_500):
            idx = np.unique(rng.integers(0, d, size=8))
            margin = truth[idx].sum()
            y = 1 if rng.random() < 1 / (1 + np.exp(-margin)) else -1
            ex = _ex(idx, np.ones(idx.size), y)
            dense.update(ex)
            awm.update(ex)
            wm.update(ex)
        w_star = dense.dense_weights()
        err_awm = relative_error(awm.top_weights(16), w_star, 16)
        err_wm = relative_error(wm.top_weights(16), w_star, 16)
        assert err_awm <= err_wm * 1.1  # allow slack; typically much better


class TestOneEstimateRule:
    """Promotion candidates, evictee folds, recovery and the scalar step
    all estimate a sketched weight by one rule: the median of the signed
    cells (numpy's stable sort, NaN last), times the factor, then the
    ``l1`` soft threshold."""

    @pytest.mark.parametrize("l1", [0.0, 0.01])
    @pytest.mark.parametrize("depth", [2, 4])
    def test_awm_evictee_fold_credits_the_sketch_estimate(self, depth, l1):
        clf = AWMSketch(64, depth, heap_capacity=16, lambda_=1e-3, seed=4)
        clf.l1 = l1
        promote = clf._promote
        folds = []

        def checked(idx, candidate, min_key, min_weight):
            key = np.array([min_key], dtype=np.int64)
            query = clf._sketch_estimate(key)[0]
            buckets, signs = clf.family.all_rows(key)
            coeff = (min_weight - query) / (clf._sqrt_s * clf._scale)
            want = clf.table.copy()
            for j in range(depth):
                want[j, buckets[j, 0]] += coeff * signs[j, 0]
            promote(idx, candidate, min_key, min_weight)
            folds.append(clf.table.tobytes() == want.tobytes())

        clf._promote = checked
        rng = np.random.default_rng(8)
        for _ in range(400):
            nnz = int(rng.integers(2, 8))
            idx = rng.choice(300, size=nnz, replace=False)
            clf.update(_ex(idx, rng.standard_normal(nnz),
                           1 if rng.random() < 0.5 else -1))
        assert all(folds)
        assert len(folds) > 20

    @pytest.mark.parametrize("l1", [0.0, 0.01])
    def test_query_one_matches_estimate_from_rows_with_nan(self, l1):
        # sorted([1.0, nan, 0.5]) keeps that order, so a plain sort's
        # median is NaN where numpy's NaN-last stable sort gives 1.0.
        clf = AWMSketch(32, 3, heap_capacity=2, seed=1)
        clf.l1 = l1
        key = np.array([5], dtype=np.int64)
        buckets, signs = clf.family.all_rows(key)
        rows = [clf.family.bucket_sign_one(5, j) for j in range(3)]
        pool = [1.0, np.nan, 0.5, -0.0, 0.0, -2.0]
        for cells in itertools.product(pool, repeat=3):
            for j, cell in enumerate(cells):
                clf.table[j, buckets[j, 0]] = signs[j, 0] * cell
            want = clf._estimate_from_rows(buckets, signs)[0]
            got = clf._query_one(rows)
            assert np.float64(got).tobytes() == want.tobytes(), cells


class TestNegativeKeys:
    @pytest.mark.parametrize("backend", ["numpy", c_backend_param()])
    def test_polynomial_one_sparse_stream_batched_equals_per_example(
        self, backend
    ):
        """The 1-sparse spec hashes through ``bucket_sign_one`` and the
        batch through ``all_rows``: with a negative key the two used to
        disagree under the polynomial hash."""
        stream = [_ex([5], [1.0], 1), _ex([-3], [1.0], -1), _ex([7], [1.0], 1)]
        models = [
            AWMSketch(64, 2, heap_capacity=1, hash_kind="polynomial",
                      backend=backend)
            for _ in range(2)
        ]
        for ex in stream:
            models[0].update(ex)
        models[1].fit_batch(SparseBatch.from_examples(stream))
        assert np.array_equal(models[0].sketch_state(),
                              models[1].sketch_state())
        assert models[0].heap.items() == models[1].heap.items()

