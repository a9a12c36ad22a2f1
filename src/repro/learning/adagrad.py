"""Per-feature learning rates under a memory budget (Section 9).

Section 9 poses an open question: "whether variable learning rate
across features is worth the associated memory cost in the streaming
setting" — per-feature step sizes (McMahan et al. 2013's ad-click
systems use them) need one accumulator per weight, doubling the
footprint under the Section 7.1 cost model.

This module implements diagonal AdaGrad (Duchi et al. 2011) for the two
hashing-based learners so the question can be answered empirically at
*equal memory*:

* :class:`AdaGradFeatureHashing` — the hashing-trick classifier with a
  per-bucket squared-gradient accumulator.  A ``width``-bucket AdaGrad
  table costs ``2 * width`` cells, the same as a ``2 * width``-bucket
  plain table: the ablation bench compares exactly those two.
* :class:`AdaGradAWMSketch` — the AWM-Sketch with per-bucket
  accumulators on the (depth-1) sketch tail; active-set entries use the
  accumulator of the bucket they hash to, so no extra per-feature state
  is required beyond the tail table.

The AdaGrad step for bucket b is ``eta0 / sqrt(1 + G_b)`` where ``G_b``
accumulates squared gradient components routed into b.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.awm_sketch import AWMSketch
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.hashing.family import HashFamily
from repro.learning.base import CELL_BYTES, StreamingClassifier
from repro.learning.losses import LogisticLoss, Loss

_RENORM_THRESHOLD = 1e-150


class AdaGradFeatureHashing(StreamingClassifier):
    """Feature hashing with diagonal-AdaGrad per-bucket learning rates.

    Parameters
    ----------
    width:
        Hash-table size.  The cost model charges 2 cells per bucket
        (weight + accumulator).
    eta0:
        Base learning rate (scaled down per bucket as gradients
        accumulate).
    lambda_:
        L2 strength, applied per-update to touched buckets only (lazy
        global scaling is incompatible with per-bucket step sizes, so
        decay here is proportional and local — the standard choice in
        per-coordinate systems).
    """

    def __init__(
        self,
        width: int,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        eta0: float = 0.1,
        seed: int = 0,
    ):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.loss = loss if loss is not None else LogisticLoss()
        self.lambda_ = lambda_
        self.eta0 = eta0
        self.family = HashFamily(width, depth=1, seed=seed)
        self.table = np.zeros(width, dtype=np.float64)
        self.accumulator = np.zeros(width, dtype=np.float64)
        self.t = 0

    def _hashed(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        buckets = self.family.buckets(indices, 0)
        signs = self.family.signs(indices, 0)
        return buckets, signs

    def predict_margin(self, x: SparseExample) -> float:
        buckets, signs = self._hashed(x.indices)
        return float(self.table[buckets] @ (signs * x.values))

    def update(self, x: SparseExample) -> None:
        y = x.label
        buckets, signs = self._hashed(x.indices)
        tau = float(self.table[buckets] @ (signs * x.values))
        g = self.loss.dloss(y * tau)
        # Per-bucket gradient components of the hashed example.
        grads = y * g * signs * x.values
        np.add.at(self.accumulator, buckets, grads**2)
        etas = self.eta0 / np.sqrt(1.0 + self.accumulator[buckets])
        if self.lambda_ > 0.0:
            # Local proportional decay on touched buckets.
            self.table[buckets] *= 1.0 - etas * self.lambda_
        np.add.at(self.table, buckets, -etas * grads)
        self.t += 1

    def estimate_weights(self, indices: np.ndarray) -> np.ndarray:
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        buckets, signs = self._hashed(indices)
        return signs * self.table[buckets]

    #: Number of independently trained models folded in via :meth:`merge`.
    merged_from: int = 1

    def merge(self, *others: "AdaGradFeatureHashing") -> "AdaGradFeatureHashing":
        """Sum-merge sharded AdaGrad hashing models.

        Weight tables sum (same linearity argument as plain feature
        hashing; there is no lazy scale here, decay is local) and the
        squared-gradient accumulators — plain sums over the stream —
        sum too, so continued training after a merge sees the full
        gradient history of every shard.
        """
        if not others:
            return self
        for other in others:
            if type(other) is not type(self):
                raise TypeError(
                    f"cannot merge {type(other).__name__} into "
                    f"{type(self).__name__}"
                )
            if other.width != self.width:
                raise ValueError(
                    f"width mismatch: {self.width} vs {other.width}"
                )
            if other.family.seed != self.family.seed:
                raise ValueError("merged models must share hash seed")
        for other in others:
            self.table += other.table
            self.accumulator += other.accumulator
            self.t += other.t
            self.merged_from += other.merged_from
        return self

    def top_weights(self, k: int) -> list[tuple[int, float]]:
        raise NotImplementedError(
            "feature hashing stores no identifiers; use "
            "top_weights_from_candidates(candidates, k)"
        )

    def top_weights_from_candidates(
        self, candidates: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """Top-k estimated weights among explicit candidate features."""
        candidates = np.atleast_1d(np.asarray(candidates, dtype=np.int64))
        est = self.estimate_weights(candidates)
        order = np.argsort(-np.abs(est))
        return [(int(candidates[i]), float(est[i])) for i in order[:k]]

    @property
    def memory_cost_bytes(self) -> int:
        return CELL_BYTES * 2 * self.width


class AdaGradAWMSketch(AWMSketch):
    """AWM-Sketch (depth 1) with per-bucket AdaGrad on the sketch tail.

    Heap entries use the learning rate of the bucket their feature
    hashes to, so the per-feature adaptation survives promotion without
    extra per-entry state.  The cost model charges the extra ``width``
    accumulator cells.
    """

    def __init__(self, width: int, heap_capacity: int = 128, **kwargs):
        super().__init__(
            width=width, depth=1, heap_capacity=heap_capacity, **kwargs
        )
        self.accumulator = np.zeros(width, dtype=np.float64)

    def _eta_for(self, bucket: int) -> float:
        return self.schedule(0) / math.sqrt(1.0 + self.accumulator[bucket])

    def update(self, x: SparseExample) -> None:  # noqa: C901
        y = x.label
        in_heap, in_sketch = self._split(x)
        heap_idx = x.indices[in_heap]
        heap_val = x.values[in_heap]
        tail_idx = x.indices[in_sketch]
        tail_val = x.values[in_sketch]

        tau = 0.0
        for idx, val in zip(heap_idx.tolist(), heap_val.tolist()):
            tau += self.heap.value(idx) * val
        if tail_idx.size:
            tail_buckets, tail_signs = self.family.all_rows(tail_idx)
            tau += self._margin_from_rows(tail_buckets, tail_signs, tail_val)

        g = self.loss.dloss(y * tau)

        # Accumulate squared gradients for every touched bucket (heap
        # features also hash somewhere; use that bucket's accumulator).
        all_buckets, _ = self.family.all_rows(x.indices)
        np.add.at(
            self.accumulator, all_buckets[0], (y * g * x.values) ** 2
        )

        # Heap update with per-feature steps + local decay.
        for idx, val in zip(heap_idx.tolist(), heap_val.tolist()):
            bucket, _ = self.family.bucket_sign_one(idx, 0)
            eta = self._eta_for(bucket)
            w = self.heap.value(idx)
            w *= 1.0 - eta * self.lambda_
            self.heap.push(idx, w - eta * y * g * val)

        # Tail update (promotion logic as in Algorithm 2).
        if tail_idx.size:
            queries = self._estimate_from_rows(tail_buckets, tail_signs)
            for pos, (idx, val, q) in enumerate(
                zip(tail_idx.tolist(), tail_val.tolist(), queries.tolist())
            ):
                bucket = int(tail_buckets[0, pos])
                eta = self._eta_for(bucket)
                candidate = q - eta * y * g * val
                if not self.heap.is_full:
                    self.heap.push(idx, candidate)
                    self.n_promotions += 1
                    continue
                min_key, min_weight = self.heap.min_entry()
                if abs(candidate) > abs(min_weight):
                    self.heap.pop_min()
                    self.heap.push(idx, candidate)
                    self.n_promotions += 1
                    evict_q = float(
                        self._sketch_estimate(
                            np.array([min_key], dtype=np.int64)
                        )[0]
                    )
                    self._sketch_add(min_key, min_weight - evict_q)
                else:
                    self._sketch_add(idx, -eta * y * g * val)
        self.t += 1

    def fit_batch(self, batch: SparseBatch) -> np.ndarray:
        """Per-example fallback: the AdaGrad update rule differs from
        Algorithm 2, so the AWM batched kernel must not be inherited."""
        return StreamingClassifier.fit_batch(self, batch)

    def merge(self, *others: "AdaGradAWMSketch") -> "AdaGradAWMSketch":
        """AWM merge plus summed squared-gradient accumulators.

        The inherited merge handles tables and the active set; the
        per-bucket accumulator is a plain sum over the stream, so
        summing the donors' accumulators gives the merged model the
        full gradient history (and therefore correctly damped
        per-bucket step sizes) for continued training.
        """
        if not others:
            return self
        super().merge(*others)
        for other in others:
            self.accumulator += other.accumulator
        return self

    @property
    def memory_cost_bytes(self) -> int:
        return super().memory_cost_bytes + CELL_BYTES * self.width
