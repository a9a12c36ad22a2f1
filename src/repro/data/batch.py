"""Mini-batches of sparse examples in CSR layout.

The per-example :class:`~repro.data.sparse.SparseExample` representation
is convenient but pays Python-object overhead for every example touched.
:class:`SparseBatch` concatenates a window of the stream into four flat
arrays — the classic CSR layout plus a label vector — so that the
batched update kernels (``fit_batch`` on every
:class:`~repro.learning.base.StreamingClassifier`) can hash, gather and
scatter whole batches with a constant number of NumPy calls.

A batch is a *view of stream order*: example ``i`` of the batch is the
``i``-th example of the underlying stream window, and the batched
kernels are written to reproduce the per-example update sequence
exactly (see ``tests/test_batched_equivalence.py``), so batching is a
throughput knob, not a semantics knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.sparse import SparseExample, check_finite

#: Entries per block of the repeated-id check: its scratch arrays stay
#: about this size however large the batch is.
_ID_CHECK_BLOCK = 1 << 16


@dataclass(frozen=True)
class SparseBatch:
    """A labelled window of a sparse stream in CSR layout.

    Attributes
    ----------
    indptr:
        int64 array of shape ``(n + 1,)``; example ``i`` owns the slice
        ``indices[indptr[i]:indptr[i + 1]]`` (and the same of
        ``values``).
    indices:
        int64 array of all examples' feature identifiers, concatenated
        in stream order.
    values:
        float64 array parallel to ``indices``.
    labels:
        int64 array of shape ``(n,)`` with entries in {-1, +1}.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        indptr = np.atleast_1d(np.asarray(self.indptr, dtype=np.int64))
        indices = np.atleast_1d(np.asarray(self.indices, dtype=np.int64))
        values = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(self.labels, dtype=np.int64))
        if indices.size == 0:
            indices = indices.reshape(0)
        if values.size == 0:
            values = values.reshape(0)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(
                f"indptr must run from 0 to nnz={indices.size}, "
                f"got [{indptr[0]}, {indptr[-1]}]"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.shape != values.shape:
            raise ValueError(
                f"indices shape {indices.shape} != values shape {values.shape}"
            )
        if labels.size != indptr.size - 1:
            raise ValueError(
                f"{labels.size} labels for {indptr.size - 1} examples"
            )
        if labels.size and not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        check_finite(values)
        check_distinct_ids(indptr, indices)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    # ------------------------------------------------------------------
    @classmethod
    def from_examples(cls, examples: Sequence[SparseExample]) -> "SparseBatch":
        """Concatenate a sequence of examples into one batch."""
        examples = list(examples)
        if not examples:
            return cls(
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        counts = np.fromiter(
            (ex.indices.size for ex in examples),
            dtype=np.int64,
            count=len(examples),
        )
        indptr = np.zeros(len(examples) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.concatenate([ex.indices for ex in examples])
        values = np.concatenate([ex.values for ex in examples])
        labels = np.fromiter(
            (ex.label for ex in examples), dtype=np.int64, count=len(examples)
        )
        return cls(indptr, indices, values, labels)

    @classmethod
    def _trusted(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        labels: np.ndarray,
    ) -> "SparseBatch":
        """Construct without re-validating the CSR invariants.

        For internal hot paths whose parts provably satisfy the
        contract already — e.g. the serving coalescer's flush merge,
        which concatenates previously validated batches.  All four
        arrays must carry the documented dtypes and shapes; nothing is
        checked here.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "indptr", indptr)
        object.__setattr__(batch, "indices", indices)
        object.__setattr__(batch, "values", values)
        object.__setattr__(batch, "labels", labels)
        return batch

    @classmethod
    def from_pairs(
        cls,
        indices: np.ndarray,
        labels: np.ndarray,
        values: np.ndarray | None = None,
    ) -> "SparseBatch":
        """A batch of 1-sparse examples: one (feature, label) row each.

        The encoding used by the stream-processing applications of
        Section 8 (one attribute / IP / token pair per example).
        ``values`` defaults to all-ones.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if values is None:
            values = np.ones(indices.size, dtype=np.float64)
        return cls(
            np.arange(indices.size + 1, dtype=np.int64),
            indices,
            values,
            labels,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.labels.size)

    @property
    def nnz(self) -> int:
        """Total stored entries across all examples."""
        return int(self.indices.size)

    def example(self, i: int) -> SparseExample:
        """Materialize example ``i`` back to the per-example type."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return SparseExample(
            self.indices[lo:hi], self.values[lo:hi], int(self.labels[i])
        )

    def __iter__(self) -> Iterator[SparseExample]:
        for i in range(len(self)):
            yield self.example(i)

    def windows(self, batch_size: int) -> Iterator["SparseBatch"]:
        """Split into consecutive sub-batches of ``batch_size`` examples.

        Sub-batches are CSR *views* of this batch's arrays (no copies of
        indices/values beyond the re-based indptr), preserving stream
        order — the cheap way to drive ``fit_batch`` over a shard that
        arrived as one large CSR block.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self)
        for lo_ex in range(0, n, batch_size):
            hi_ex = min(lo_ex + batch_size, n)
            lo, hi = int(self.indptr[lo_ex]), int(self.indptr[hi_ex])
            # Views of a validated batch: nothing to re-check.
            yield SparseBatch._trusted(
                self.indptr[lo_ex : hi_ex + 1] - lo,
                self.indices[lo:hi],
                self.values[lo:hi],
                self.labels[lo_ex:hi_ex],
            )


def check_distinct_ids(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first example that repeats a
    feature id, and the id.

    Runs over blocks of whole examples of about ``_ID_CHECK_BLOCK``
    entries, so the scratch memory stays bounded on large batches.  A
    block whose examples list their ids in increasing order passes on
    one comparison; any other block sorts its (example, id rank) keys.
    """
    n = indptr.size - 1
    lo = 0
    while lo < n:
        start = int(indptr[lo])
        end = start + _ID_CHECK_BLOCK
        hi = int(np.searchsorted(indptr, end, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        ids = indices[start:int(indptr[hi])]
        m = ids.size
        if m > 1:
            bad = ids[1:] <= ids[:-1]
            # A comparison across an example boundary does not count.
            starts = indptr[lo + 1:hi] - start
            bad[starts[(starts > 0) & (starts < m)] - 1] = False
            if bad.any():
                uniq, rank = np.unique(ids, return_inverse=True)
                counts = np.diff(indptr[lo:hi + 1])
                rows = np.repeat(np.arange(hi - lo), counts)
                keys = np.sort(rows * m + rank)
                dup = np.flatnonzero(keys[1:] == keys[:-1])
                if dup.size:
                    row, r = divmod(int(keys[dup[0]]), m)
                    raise ValueError(
                        f"example {lo + row} repeats feature id "
                        f"{int(uniq[r])}: feature ids must be distinct "
                        f"within an example"
                    )
        lo = hi


def iter_batches(
    stream: Iterable[SparseExample], batch_size: int
) -> Iterator[SparseBatch]:
    """Chunk a stream of examples into :class:`SparseBatch` windows.

    Works on any iterable (lists, generators); the final batch may be
    smaller than ``batch_size``.  Stream order is preserved and every
    example appears in exactly one batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    it = iter(stream)
    while True:
        chunk = list(islice(it, batch_size))
        if not chunk:
            return
        yield SparseBatch.from_examples(chunk)
