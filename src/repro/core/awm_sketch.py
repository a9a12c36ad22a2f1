"""The Active-Set Weight-Median Sketch (Algorithm 2).

The AWM-Sketch splits its budget between an *active set* — a min-heap of
the top-|S| features whose weights are stored **exactly** — and a
WM-style sketch that absorbs only the tail.  Per update on (x, y):

1. The margin combines the exact active-set weights (for features of x
   in S) with sketched estimates (for the rest):
   ``tau = sum_{i in S} S[i] x_i + z^T R x_tail``.
2. Active-set weights receive the ordinary OGD update (decay + gradient).
3. Every tail feature i of x computes its *hypothetical* updated weight
   ``w~ = Query(i) - eta y x_i loss'(y tau)``:

   * if ``|w~|`` beats the smallest active-set magnitude, i is promoted
     into the heap carrying ``w~`` exactly, and the evicted feature's
     weight is folded back into the sketch (the sketch is credited with
     ``S[i_min] - Query(i_min)``, so its estimate of the evictee is
     brought up to date);
   * otherwise the gradient increment is applied to the sketch.

The effect (Section 9): features stored in the heap are not hashed at
all, so they cannot collide with — and corrupt — the tail estimates;
conversely erroneous promotions decay under L2 regularization and get
evicted again.  The paper finds this variant dominates the basic
WM-Sketch on both recovery and accuracy, with the best configuration
giving *half* the budget to the heap and using a depth-1 sketch
(Section 7.3).

The table / scale / margin / recovery machinery is shared with the
WM-Sketch through :class:`~repro.core.sketch_table.ScaledSketchTable`.
:meth:`AWMSketch.fit_batch` hashes a whole batch's index set once
(deduplicated, vectorized) and, once the active set is full, runs
Algorithm 2 per example as one inlined loop over batch-lifetime state —
state-identical to per-example :meth:`update` calls.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from repro.core.sketch_table import _RENORM_THRESHOLD, ScaledSketchTable
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.heap.topk import TopKStore
from repro.kernels.numpy_backend import (
    gather_rows_t,
    margin,
    margin_gathered,
    median_estimate,
    screen_abs_gt,
)
from repro.learning.base import CELL_BYTES
from repro.learning.losses import Loss
from repro.learning.schedules import Schedule
from repro.telemetry import trace as _trace

__all__ = ["AWMSketch", "_RENORM_THRESHOLD"]


class AWMSketch(ScaledSketchTable):
    """Active-Set Weight-Median Sketch.

    Parameters
    ----------
    width, depth:
        Sketch dimensions.  The paper's best configurations use
        ``depth=1`` (a single hash table) with half the budget on the
        heap; see :func:`repro.core.config.default_awm_config`.
    heap_capacity:
        Active-set size |S| (must be >= 1).
    loss, lambda_, learning_rate, seed, hash_kind:
        As for :class:`repro.core.wm_sketch.WMSketch`.
    backend:
        Kernel-backend override, recorded with the model and resolved
        once (``None`` = follow the process default; see
        :mod:`repro.kernels`).  AWM dispatches no compiled loop yet: its
        batch loop and the 1-sparse scalar fast path call the NumPy
        helpers directly, so every backend gives the same results at
        the same speed.

    Notes
    -----
    1-sparse examples (the Section 8 applications) always take the
    all-scalar step :meth:`_update_one`, ~6x faster than the general
    step :meth:`_update_example` and bit-identical to it
    (``tests/test_awm_fast_path.py``).
    """

    def __init__(
        self,
        width: int,
        depth: int = 1,
        heap_capacity: int = 128,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        learning_rate: Schedule | float = 0.1,
        seed: int = 0,
        hash_kind: str = "tabulation",
        backend: str | None = None,
    ):
        if heap_capacity < 1:
            raise ValueError(f"heap_capacity must be >= 1, got {heap_capacity}")
        super().__init__(
            width,
            depth,
            loss=loss,
            lambda_=lambda_,
            learning_rate=learning_rate,
            seed=seed,
            hash_kind=hash_kind,
            backend=backend,
        )
        self.heap = TopKStore(heap_capacity)
        # Diagnostics: promotion/eviction churn (exposed for ablations).
        self.n_promotions = 0

    # ------------------------------------------------------------------
    # Sketch-space helpers (tail features only)
    # ------------------------------------------------------------------
    def _sketch_margin(self, indices: np.ndarray, values: np.ndarray) -> float:
        if indices.size == 0:
            return 0.0
        buckets, signs = self.family.all_rows(indices)
        return self._margin_from_rows(buckets, signs, values)

    def _sketch_add(self, index: int, delta: float) -> None:
        """Add ``delta`` to the sketched weight of a single feature."""
        key = np.array([index], dtype=np.int64)
        coeff = delta / (self._sqrt_s * self._scale)
        for j in range(self.depth):
            bucket = self.family.buckets(key, j)[0]
            sign = self.family.signs(key, j)[0]
            self._mark_dirty_bucket(j, int(bucket))
            self.table[j, bucket] += coeff * sign

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _split(self, x: SparseExample) -> tuple[np.ndarray, np.ndarray]:
        """Boolean mask of x's features that are in the active set."""
        in_heap = self._membership(x.indices)
        return in_heap, ~in_heap

    def _membership(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask of which indices are currently in the active set
        (one vectorized probe against the store's sorted-key snapshot)."""
        return self.heap.contains_many(indices)

    def predict_margin(self, x: SparseExample) -> float:
        slots = self.heap.member_slots(x.indices)
        in_heap = slots >= 0
        total = 0.0
        if in_heap.any():
            products = (
                self.heap.values_at(slots[in_heap]) * x.values[in_heap]
            )
            for p in products.tolist():
                total += p
            in_sketch = ~in_heap
        else:
            in_sketch = slice(None)
        total += self._sketch_margin(x.indices[in_sketch], x.values[in_sketch])
        return total

    def predict_batch(self, batch: SparseBatch) -> np.ndarray:
        """Batched margins — one cached hash + one membership probe.

        The per-example combine (exact active-set products plus the
        exactly-rounded sketch margin) runs over pre-hashed workspace
        rows and a single batch-wide ``member_slots`` probe instead of
        hashing and probing per example; margins are **bit-identical**
        to per-example :meth:`predict_margin`.
        """
        n = len(batch)
        margins = np.empty(n, dtype=np.float64)
        if n == 0:
            return margins
        heap = self.heap
        ws = self._workspace()
        nnz = batch.indices.size
        buckets = ws.array("p_buckets", (self.depth, nnz), np.int64)
        signs = ws.array("p_signs", (self.depth, nnz))
        self._batch_hasher.rows_into(batch.indices, buckets, signs)
        flat = ws.array("p_flat", (self.depth, nnz), np.int64)
        np.add(buckets, self._row_offsets, out=flat)
        flat = self._translate_flat(flat)
        sv = ws.array("p_sv", (self.depth, nnz))
        np.multiply(signs, batch.values, out=sv)
        slots = heap.member_slots(batch.indices)
        values = batch.values
        indptr = batch.indptr.tolist()
        lo = indptr[0]
        for i in range(n):
            hi = indptr[i + 1]
            sl = slots[lo:hi]
            in_heap = sl >= 0
            total = 0.0
            if in_heap.any():
                products = (
                    heap.values_at(sl[in_heap]) * values[lo:hi][in_heap]
                )
                for p in products.tolist():
                    total += p
                in_sketch = ~in_heap
                fb = flat[:, lo:hi][:, in_sketch]
                svx = sv[:, lo:hi][:, in_sketch]
            else:
                fb = flat[:, lo:hi]
                svx = sv[:, lo:hi]
            if fb.shape[1]:
                total += margin(
                    self._table_flat, fb, svx, self._scale, self._sqrt_s
                )
            margins[i] = total
            lo = hi
        return margins

    def query_many(self, indices: np.ndarray) -> np.ndarray:
        """Serving-path weight queries: exact active-set values where
        stored, cached-hash ``fused_query`` recovery for the tail —
        bit-identical to :meth:`estimate_weights`."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        out = np.empty(indices.size, dtype=np.float64)
        if indices.size == 0:
            return out
        slots = self.heap.member_slots(indices)
        member = slots >= 0
        if member.any():
            out[member] = self.heap.values_at(slots[member])
        tail = ~member
        if tail.any():
            out[tail] = super().query_many(indices[tail])
        return out

    # ------------------------------------------------------------------
    # Scalar fast path (1-sparse inputs: the Section 8 applications)
    # ------------------------------------------------------------------
    def _query_one(self, rows: list[tuple[int, float]]) -> float:
        """One feature's sketch estimate from its per-row (bucket, sign)
        pairs: the scalar :func:`~repro.kernels.numpy_backend.
        median_estimate` (median of the signed cells, then the factor),
        soft-thresholded by ``l1`` as :meth:`_estimate_from_rows` does
        (whose ``np.sign`` maps a zero of either sign to +0)."""
        table = self.table
        vals = sorted(sign * float(table[j, bucket])
                      for j, (bucket, sign) in enumerate(rows))
        mid = len(vals) // 2
        if len(vals) % 2:
            med = vals[mid]
        else:
            med = 0.5 * (vals[mid - 1] + vals[mid])
        query = self._sqrt_s * self._scale * med
        l1 = self.l1
        if l1 > 0.0:
            shrunk = max(abs(query) - l1, 0.0)
            query = math.copysign(shrunk, query) if query else shrunk
        return query

    def _update_one(self, idx: int, val: float, y: int) -> float:
        """Algorithm 2 specialized to nnz(x) = 1, all-scalar arithmetic.

        Bit-identical to :meth:`_update_example` on the same example:
        every float operation is the spec's, in the spec's order (its
        margin is a running sum from ``0.0``, which turns a ``-0.0``
        term into ``+0.0``; hence the ``0.0 +`` below).  Returns the
        pre-update margin (for progressive validation).
        """
        heap = self.heap
        in_heap = idx in heap
        if in_heap:
            tau = 0.0 + heap.value(idx) * val
        else:
            # The margin uses the *linear* form z^T R x, as the spec's
            # margin kernel does: one exactly rounded sum of table value
            # times sign*value, then scale / sqrt(s).  The median is
            # only for the query below.
            rows = [
                self.family.bucket_sign_one(idx, j) for j in range(self.depth)
            ]
            table = self.table
            tau = 0.0 + self._scale * math.fsum(
                float(table[j, bucket]) * (sign * val)
                for j, (bucket, sign) in enumerate(rows)
            ) / self._sqrt_s

        g = self.loss.dloss(y * tau)
        eta = self.schedule(self.t)
        if self.lambda_ > 0.0:
            decay = self._decay_factor(eta)
            heap.decay(decay)
            self._decay_scale(decay)
        step = eta * y * g

        if in_heap:
            heap.add_delta(idx, -step * val)
        else:
            # Query *after* the decay (Algorithm 2 decays z first).
            candidate = self._query_one(rows) - step * val
            if not heap.is_full:
                heap.push(idx, candidate)
                self.n_promotions += 1
            else:
                min_key, min_weight = heap.min_entry()
                if abs(candidate) > abs(min_weight):
                    self._promote(idx, candidate, min_key, min_weight)
                else:
                    coeff = (-step / (self._sqrt_s * self._scale)) * val
                    for j, (bucket, sign) in enumerate(rows):
                        self._mark_dirty_bucket(j, bucket)
                        table[j, bucket] += coeff * sign
        self.t += 1
        return tau

    # ------------------------------------------------------------------
    # Learning (Algorithm 2)
    # ------------------------------------------------------------------
    def update(self, x: SparseExample) -> None:
        if x.indices.size == 1:
            self._update_one(int(x.indices[0]), float(x.values[0]), x.label)
            return
        self._update_example(x.indices, x.values, x.label)

    def _update_example(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        y: int,
        buckets: np.ndarray | None = None,
        signs: np.ndarray | None = None,
    ) -> float:
        """One Algorithm 2 step; returns the pre-update margin.

        The per-example spec: :meth:`update` runs it for every example
        the scalar fast path does not take, and :meth:`fit_batch` runs
        it for empty examples and while the active set has free slots.
        Once the store is full, ``fit_batch`` runs its own inlined copy
        of this step instead, bit-identical to this one.

        ``buckets`` / ``signs`` may carry pre-hashed rows for *all* of
        ``indices`` (shape ``(depth, nnz)``), as produced by the batched
        hashing front-end; tail columns are then selected instead of
        re-hashed.  Hash functions are pure, so the two paths see the
        same rows and produce bit-identical state.

        The hot structures are vectorized against the store: one
        membership probe for the whole example, one :meth:`add_many`
        for the active-set gradient step, one table gather shared by the
        margin and the tail queries, and a tail-promotion screen that
        admits candidates sequentially only when some candidate beats
        the current admission threshold (the threshold is non-decreasing
        while the store is full, so screened-out candidates are exactly
        the ones the sequential loop would reject).
        """
        heap = self.heap
        slots = heap.member_slots(indices)
        in_heap = slots >= 0
        any_member = bool(in_heap.any())

        if any_member:
            heap_slots = slots[in_heap]
            heap_val = values[in_heap]
            in_sketch = ~in_heap
            tail_idx = indices[in_sketch]
            tail_val = values[in_sketch]
        else:
            in_sketch = slice(None)
            tail_idx = indices
            tail_val = values
        tail_n = tail_idx.size

        tau = 0.0
        if any_member:
            heap_products = heap.values_at(heap_slots) * heap_val
            for p in heap_products.tolist():
                tau += p
        if tail_n:
            # Hash the tail once (or select from the batch-hashed rows)
            # and gather its table cells once; the same gathered values
            # serve the margin now and the queries after the decay (the
            # decay touches only the scale, not the raw table).
            if buckets is None:
                tail_buckets, tail_signs = self.family.all_rows(tail_idx)
            else:
                tail_buckets = buckets[:, in_sketch]
                tail_signs = signs[:, in_sketch]
            if self.depth == 1:
                flat_tail = tail_buckets  # row offsets are all zero
            else:
                flat_tail = tail_buckets + self._row_offsets
            # One transposed (nnz, depth) gather serves both the margin
            # products here and the recovery queries below; the margin
            # kernel's sum is exactly rounded, so the transposed
            # summation order leaves the margin bit-identical to the
            # (depth, nnz) layout.
            taken_t = gather_rows_t(self._table_flat, flat_tail)
            tau += margin_gathered(
                taken_t, (tail_signs * tail_val).T,
                self._scale, self._sqrt_s,
            )

        g = self.loss.dloss(y * tau)
        eta = self.schedule(self.t)

        # Regularization: decay both the heap and the sketch (S and z
        # both scale by (1 - lambda eta) in Algorithm 2), lazily.
        if self.lambda_ > 0.0:
            decay = self._decay_factor(eta)
            heap.decay(decay)
            scale_before = self._scale
            self._decay_scale(decay)
            if tail_n and self._scale != scale_before * decay:
                # The decay underflowed the scale and folded it into the
                # raw table; the pre-decay gather is stale.
                taken_t = gather_rows_t(self._table_flat, flat_tail)

        step = eta * y * g

        # Heap update: exact OGD step for active-set features, one
        # vectorized scatter (element order matches a per-key loop).
        if any_member:
            heap.add_many(heap_slots, -step * heap_val)

        # Tail features: promote or fold the gradient into the sketch.
        if tail_n:
            # Queries = median-of-rows recovery on the post-decay table
            # (the decay touches only the scale, so the shared gather is
            # still the raw table unless the underflow fold above fired).
            queries = self._estimate_from_rows(
                tail_buckets,
                tail_signs,
                flat_buckets=flat_tail,
                gathered_t=taken_t,
            )
            candidates = queries - step * tail_val

            if not heap.is_full:
                # Warmup (free slots remain): plain sequential admits;
                # the store may fill mid-example.
                stay = []
                for pos, (idx, c) in enumerate(
                    zip(tail_idx.tolist(), candidates.tolist())
                ):
                    if not heap.is_full:
                        heap.push(idx, c)
                        self.n_promotions += 1
                        continue
                    min_key, min_weight = heap.min_entry()
                    if abs(c) > abs(min_weight):
                        self._promote(idx, c, min_key, min_weight)
                    else:
                        stay.append(pos)
                stay = np.asarray(stay, dtype=np.intp)
            else:
                # Full store: one screen kernel against the current
                # admission threshold; only candidates that beat it take
                # the sequential path (each re-checks the live minimum,
                # which can only have risen).
                live = screen_abs_gt(candidates, heap.min_priority())
                if live.size == 0:
                    stay = None  # everything stays; no masks needed
                else:
                    stay_mask = np.ones(tail_n, dtype=bool)
                    for pos in live.tolist():
                        idx = int(tail_idx[pos])
                        c = float(candidates[pos])
                        min_key, min_weight = heap.min_entry()
                        if abs(c) > abs(min_weight):
                            self._promote(idx, c, min_key, min_weight)
                            stay_mask[pos] = False
                    stay = np.flatnonzero(stay_mask)
            if stay is None or stay.size == tail_n:
                # Common case — nothing promoted: scatter the whole tail
                # without re-indexing (the flat gather is reused too).
                coeff = (-step / (self._sqrt_s * self._scale)) * tail_val
                self._scatter_add(
                    tail_buckets, coeff * tail_signs, flat_buckets=flat_tail
                )
            elif stay.size:
                # One scatter for all non-promoted features (Algorithm 2
                # applies these independently; batching only reorders
                # within a single example).
                coeff = (-step / (self._sqrt_s * self._scale)) * tail_val[stay]
                self._scatter_add(
                    tail_buckets[:, stay],
                    coeff * tail_signs[:, stay],
                    flat_buckets=flat_tail[:, stay],
                )
        self.t += 1
        return tau

    def _promote(
        self, idx: int, candidate: float, min_key: int, min_weight: float
    ) -> None:
        """Promote ``idx`` over the current minimum: evict, and fold the
        evictee's exact weight back into the sketch (credit the
        difference between its true weight and the sketch's current
        estimate).

        The evictee is hashed *once*: its per-row (bucket, sign) pairs
        serve both the retiring estimate and the fold-in scatter (the
        old path hashed it twice, once per helper — at one promotion
        every couple of examples that was the single hottest line of the
        batched kernel).
        """
        self.heap.replace_min(idx, candidate)
        self.n_promotions += 1
        rows = [
            self.family.bucket_sign_one(min_key, j)
            for j in range(self.depth)
        ]
        table = self.table
        factor = self._sqrt_s * self._scale
        vals = sorted(
            factor * sign * float(table[j, bucket])
            for j, (bucket, sign) in enumerate(rows)
        )
        mid = len(vals) // 2
        if len(vals) % 2:
            evict_query = vals[mid]
        else:
            evict_query = 0.5 * (vals[mid - 1] + vals[mid])
        coeff = (min_weight - evict_query) / factor
        for j, (bucket, sign) in enumerate(rows):
            self._mark_dirty_bucket(j, int(bucket))
            table[j, bucket] += coeff * sign

    def fit_batch(self, batch: SparseBatch) -> np.ndarray:
        """Mini-batch Algorithm 2: hash the batch once, replay in order.

        All of the batch's indices are hashed in one deduplicated call
        through the hash memo, then the examples replay in stream order.
        1-sparse examples keep the scalar fast path, exactly as
        :meth:`update` would.  Empty examples, and every example that
        arrives while the active set still has free slots, run
        :meth:`_update_example`, the per-example spec.  Once the store
        is full, each remaining example runs one inlined Algorithm 2
        step over batch-lifetime state (see :meth:`_fit_batch`).  State
        and the returned pre-update margins are bit-identical to
        per-example :meth:`update` calls.
        """
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        # The enabled check runs before any span allocation, as in
        # WMSketch.fit_batch: one flag read per batch while tracing is
        # off.
        if _trace.enabled:
            with _trace.span("fit_batch", model="AWMSketch", n=n) as span:
                before = self.n_promotions
                margins = self._fit_batch(batch, n)
                span.tag(promotions=self.n_promotions - before)
                return margins
        return self._fit_batch(batch, n)

    def _fit_batch(self, batch: SparseBatch, n: int) -> np.ndarray:
        """The :meth:`fit_batch` loop.

        The inlined step keeps every float operation of
        :meth:`_update_example`'s full-store branch, rearranged around
        state built once per batch:

        * the flat buckets, signs and sign·value products as ``depth``
          1-D row views (a 1-D boolean select costs about a third of a
          2-D one);
        * the store's live key -> slot map, which every admission and
          eviction updates in place, so membership needs no patching
          after a promotion;
        * one dirty mark over the batch's flat buckets, a superset of
          what the stay-scatters write (:meth:`_promote` marks its
          evictee fold itself).

        The tail margin is one ``fsum`` over every row's products
        (exactly rounded, so any order gives the spec's float).  The
        promotion loop runs only when some ``|candidate|`` beats
        ``min_priority()``, and promotes through :meth:`_promote`.  The
        stay-scatter runs one ``np.add.at`` per row in row order, the
        element order of the spec's 2-D scatter; its deltas scale the
        sign·value products, which equals the spec's
        ``(coeff * value) * sign`` bit for bit because signs are ±1.
        """
        margins = np.empty(n, dtype=np.float64)
        indptr = batch.indptr.tolist()
        labels = batch.labels.tolist()
        indices = batch.indices
        values = batch.values
        heap = self.heap
        depth = self.depth
        sqrt_s = self._sqrt_s
        l1 = self.l1
        table = self._table_flat
        take = table.take
        fsum = math.fsum
        absent = repeat(-1)
        buckets = keys = None
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            y = labels[i]
            if hi - lo == 1:
                margins[i] = self._update_one(
                    int(indices[lo]), float(values[lo]), y
                )
                continue
            if hi == lo:
                margins[i] = self._update_example(
                    indices[lo:hi], values[lo:hi], y
                )
                continue
            if buckets is None:
                # Hash lazily: all-1-sparse batches (the Section 8
                # application workloads) never need the batch rows.
                with _trace.span("hash"):
                    buckets, signs, sv, flat = self._batch_rows(batch)
            if not heap.is_full:
                margins[i] = self._update_example(
                    indices[lo:hi], values[lo:hi], y,
                    buckets=buckets[:, lo:hi], signs=signs[:, lo:hi],
                )
                continue
            if keys is None:
                keys = indices.tolist()
                slot_of = heap.slot_map().get
                flat_rows, sign_rows, sv_rows = (
                    list(flat), list(signs), list(sv)
                )
                self._mark_dirty_flat(flat)

            # Split members from the tail; member margin in slot order.
            slots = np.fromiter(
                map(slot_of, keys[lo:hi], absent), np.intp, hi - lo
            )
            tail = slots < 0
            k = np.count_nonzero(tail)
            member = k < hi - lo
            vals = values[lo:hi]
            tau = 0.0
            if member:
                held = ~tail
                m_slots = slots[held]
                m_vals = vals[held]
                for p in (heap.values_at(m_slots) * m_vals).tolist():
                    tau += p
                t_flat = [f[lo:hi][tail] for f in flat_rows]
                t_sign = [s[lo:hi][tail] for s in sign_rows]
                t_sv = [s[lo:hi][tail] for s in sv_rows]
                t_vals = vals[tail]
            else:
                t_flat = [f[lo:hi] for f in flat_rows]
                t_sign = [s[lo:hi] for s in sign_rows]
                t_sv = [s[lo:hi] for s in sv_rows]
                t_vals = vals
            if k:
                cells = [take(f) for f in t_flat]
                tau += self._scale * fsum(chain.from_iterable(
                    [(c * s).tolist() for c, s in zip(cells, t_sv)]
                )) / sqrt_s

            g = self.loss.dloss(y * tau)
            eta = self.schedule(self.t)
            if self.lambda_ > 0.0:
                decay = self._decay_factor(eta)
                heap.decay(decay)
                scale_before = self._scale
                self._decay_scale(decay)
                if k and self._scale != scale_before * decay:
                    # A renorm fold rewrote the raw table: re-gather.
                    cells = [take(f) for f in t_flat]
            step = eta * y * g
            if member:
                heap.add_many(m_slots, -step * m_vals)

            if k:
                scale = self._scale
                if depth == 1:
                    queries = scale * (t_sign[0] * cells[0])
                else:
                    queries = median_estimate(
                        np.stack(cells, axis=1), np.stack(t_sign, axis=1),
                        sqrt_s * scale,
                    )
                if l1 > 0.0:
                    queries = np.sign(queries) * np.maximum(
                        np.abs(queries) - l1, 0.0
                    )
                candidates = queries - step * t_vals
                # The threshold after the member step, as in the spec.
                over = np.abs(candidates) > heap.min_priority()
                if np.count_nonzero(over):
                    t_idx = indices[lo:hi][tail] if member else indices[lo:hi]
                    promoted = []
                    for pos in np.flatnonzero(over).tolist():
                        c = float(candidates[pos])
                        min_key, min_weight = heap.min_entry()
                        if abs(c) > abs(min_weight):
                            self._promote(
                                int(t_idx[pos]), c, min_key, min_weight
                            )
                            promoted.append(pos)
                    if promoted:
                        stay = np.ones(k, dtype=bool)
                        stay[promoted] = False
                        t_flat = [f[stay] for f in t_flat]
                        t_sv = [s[stay] for s in t_sv]
                coeff = -step / (sqrt_s * scale)
                for f, s in zip(t_flat, t_sv):
                    np.add.at(table, f, coeff * s)
            self.t += 1
            margins[i] = tau
        return margins

    # ------------------------------------------------------------------
    # Merging (distributed / sharded training)
    # ------------------------------------------------------------------
    def _fold_active_set(self) -> list[int]:
        """Retire the active set into the sketch; returns the former keys.

        Each active feature's exact weight is folded back exactly as an
        Algorithm 2 eviction would: the sketch is credited with
        ``S[i] - Query(i)``, bringing its estimate of the feature up to
        date.  Keys are processed in sorted order so the (collision-
        dependent) float state is deterministic.
        """
        keys = sorted(k for k, _ in self.heap.items())
        for key in keys:
            weight = self.heap.value(key)
            query = float(
                self._sketch_estimate(np.array([key], dtype=np.int64))[0]
            )
            self._sketch_add(key, weight - query)
        self.heap.clear()
        return keys

    def merge(self, *others: "AWMSketch") -> "AWMSketch":
        """Sum-merge sharded AWM-Sketches; rebuild the active set.

        Every model's active set (including ``self``'s) is first folded
        back into its own sketch — after which each model is a pure
        (exactly summable) Count-Sketch table — then tables are summed
        with lazy-scale reconciliation and the active set is rebuilt by
        re-estimating the union of all former active-set keys against
        the merged table and promoting the heaviest ``capacity``.

        This consumes the donor models: ``others`` are left with folded
        (heap-less) state and should be discarded.  Unlike the exact
        per-worker active sets, the rebuilt set carries *estimated*
        weights — the same approximation an Algorithm 2 promotion makes
        — so merged top-K recovery is approximate while the summed
        sketch table itself is exact.
        """
        if not others:
            return self
        # Validate BEFORE folding: the base merge re-checks, but only
        # after this method has already mutated self and every donor by
        # retiring their active sets — an incompatible donor must be
        # rejected while all models are still intact.
        for other in others:
            self._check_mergeable(other)
        candidates = set(self._fold_active_set())
        for other in others:
            candidates.update(other._fold_active_set())
        super().merge(*others)
        self.n_promotions += sum(o.n_promotions for o in others)
        self.n_promotions += self._repromote(
            self.heap, candidates, self._sketch_estimate
        )
        return self

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def estimate_weights(self, indices: np.ndarray) -> np.ndarray:
        """Exact heap weights where available, sketch recovery otherwise."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        out = np.empty(indices.size, dtype=np.float64)
        tail_positions = []
        for pos, idx in enumerate(indices.tolist()):
            if idx in self.heap:
                out[pos] = self.heap.value(idx)
            else:
                tail_positions.append(pos)
        if tail_positions:
            tails = indices[tail_positions]
            out[tail_positions] = self._sketch_estimate(tails)
        return out

    def top_weights(self, k: int) -> list[tuple[int, float]]:
        """The active set *is* the top-K estimate (exact weights)."""
        return self.heap.top(k)

    # ------------------------------------------------------------------
    @property
    def memory_cost_bytes(self) -> int:
        return CELL_BYTES * (self.size + 2 * self.heap.capacity)
