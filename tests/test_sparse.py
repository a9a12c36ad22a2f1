"""Tests for the sparse example representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.sparse import SparseExample, dense_to_sparse, one_hot, sparse_dot


class TestSparseExample:
    def test_construction(self):
        x = SparseExample(np.array([1, 5]), np.array([2.0, -1.0]), label=1)
        assert x.nnz == 2
        assert x.indices.dtype == np.int64
        assert x.values.dtype == np.float64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseExample(np.array([1, 2]), np.array([1.0]))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            SparseExample(np.array([1]), np.array([1.0]), label=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match=r"values\[1\] is .*finite"):
            SparseExample(np.array([3, 4, 5]), np.array([1.0, bad, bad]))

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match=r"feature id 4 repeats"):
            SparseExample(np.array([3, 4, 5, 4]), np.ones(4))
        # Distinct ids in any order are fine.
        assert SparseExample(np.array([5, 3, 4]), np.ones(3)).nnz == 3

    def test_norms(self):
        x = SparseExample(np.array([0, 1]), np.array([3.0, -4.0]))
        assert x.l1_norm() == 7.0
        assert x.l2_norm() == 5.0

    def test_scaled(self):
        x = SparseExample(np.array([0]), np.array([2.0]), label=-1)
        y = x.scaled(3.0)
        assert y.values[0] == 6.0
        assert y.label == -1
        assert x.values[0] == 2.0  # original untouched

    def test_normalized_l1(self):
        x = SparseExample(np.array([0, 1]), np.array([1.0, 3.0]))
        n = x.normalized("l1")
        assert n.l1_norm() == pytest.approx(1.0)

    def test_normalized_l2(self):
        x = SparseExample(np.array([0, 1]), np.array([3.0, 4.0]))
        n = x.normalized("l2")
        assert n.l2_norm() == pytest.approx(1.0)

    def test_normalize_zero_vector_noop(self):
        x = SparseExample(np.array([0]), np.array([0.0]))
        assert x.normalized("l1").values[0] == 0.0

    def test_normalize_unknown_norm(self):
        x = SparseExample(np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            x.normalized("l7")


class TestHelpers:
    def test_sparse_dot(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        assert sparse_dot(w, np.array([1, 3]), np.array([1.0, 0.5])) == 4.0

    def test_dense_to_sparse_drops_zeros(self):
        x = dense_to_sparse(np.array([0.0, 2.0, 0.0, -1.0]), label=-1)
        assert x.indices.tolist() == [1, 3]
        assert x.values.tolist() == [2.0, -1.0]
        assert x.label == -1

    def test_one_hot(self):
        x = one_hot(7, value=2.5, label=-1)
        assert x.nnz == 1
        assert x.indices[0] == 7
        assert x.values[0] == 2.5
        assert x.label == -1
