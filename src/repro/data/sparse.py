"""Sparse example representation used throughout the library.

Streams are iterables of :class:`SparseExample`.  An example is a sparse
feature vector — parallel ``indices`` / ``values`` arrays — plus a binary
label in {-1, +1}.  Keeping the representation this small (two NumPy
arrays and an int) matters because every learner touches every example
exactly once, and the per-example overhead dominates runtime for the
Python substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SparseExample:
    """A labelled sparse feature vector.

    Attributes
    ----------
    indices:
        int64 array of distinct feature identifiers (need not be
        sorted); construction rejects a repeated id.
    values:
        float64 array of the corresponding feature values.
    label:
        +1 or -1.
    """

    indices: np.ndarray
    values: np.ndarray
    label: int = field(default=1)

    def __post_init__(self):
        indices = np.atleast_1d(np.asarray(self.indices, dtype=np.int64))
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if indices.shape != values.shape:
            raise ValueError(
                f"indices shape {indices.shape} != values shape {values.shape}"
            )
        if self.label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")
        check_finite(values)
        check_distinct(indices)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        """Number of stored (possibly zero-valued) entries."""
        return int(self.indices.size)

    def l1_norm(self) -> float:
        """The l1 norm of the feature vector (gamma in Theorem 1)."""
        return float(np.abs(self.values).sum())

    def l2_norm(self) -> float:
        """The l2 norm of the feature vector."""
        return float(np.sqrt((self.values**2).sum()))

    def scaled(self, factor: float) -> "SparseExample":
        """A copy with all feature values multiplied by ``factor``."""
        return SparseExample(self.indices.copy(), self.values * factor, self.label)

    def normalized(self, norm: str = "l1") -> "SparseExample":
        """A copy normalized to unit l1 or l2 norm (no-op for zero vectors).

        Theorem 1's bound is stated for gamma = max_t ||x_t||_1; the paper
        notes inputs can be normalized so gamma = 1.
        """
        if norm == "l1":
            n = self.l1_norm()
        elif norm == "l2":
            n = self.l2_norm()
        else:
            raise ValueError(f"unknown norm {norm!r}")
        if n == 0.0:
            return self
        return self.scaled(1.0 / n)


def check_finite(values: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first NaN or ±inf in ``values``.

    One non-finite feature value would permanently poison a sketch
    table, so examples and batches reject them at construction.
    """
    finite = np.isfinite(values)
    if not finite.all():
        pos = int(np.argmin(finite))
        raise ValueError(
            f"values[{pos}] is {values[pos]}: feature values must be finite"
        )


def check_distinct(indices: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first feature id that repeats in
    one example's ``indices``.

    A repeated id would be updated twice per step, and the AWM-Sketch
    would admit it into two active-set slots.
    """
    if indices.size < 2:
        return
    ids = indices.tolist()
    if len(set(ids)) == len(ids):
        return
    seen = set()
    for key in ids:
        if key in seen:
            raise ValueError(
                f"feature id {key} repeats: feature ids must be distinct "
                f"within an example"
            )
        seen.add(key)


def sparse_dot(
    weights: np.ndarray, indices: np.ndarray, values: np.ndarray
) -> float:
    """Dense-weights / sparse-input inner product ``w . x``."""
    return float(weights[indices] @ values)


def dense_to_sparse(x: np.ndarray, label: int = 1) -> SparseExample:
    """Convert a dense vector to a :class:`SparseExample` (drops zeros)."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.flatnonzero(x)
    return SparseExample(idx.astype(np.int64), x[idx], label)


def one_hot(index: int, value: float = 1.0, label: int = 1) -> SparseExample:
    """A 1-sparse example — the encoding used by the stream-processing
    applications of Section 8 (one attribute / IP / bigram per example)."""
    return SparseExample(
        np.array([index], dtype=np.int64),
        np.array([value], dtype=np.float64),
        label,
    )
