"""The Weight-Median Sketch (Algorithm 1).

The WM-Sketch maintains a Count-Sketch-shaped array ``z`` (depth ``s``,
width ``k/s``) that holds a randomly-projected linear classifier.  The
projection is ``R = A / sqrt(s)`` where ``A`` is the Count-Sketch matrix
implicitly defined by per-row bucket hashes ``h_j`` and sign hashes
``sigma_j`` — the sparse Johnson-Lindenstrauss transform of Kane & Nelson
(2014), which is what makes the recovery analysis (Theorem 1) go through.

Update (online gradient descent on the compressed loss):

.. math::

    z \\leftarrow (1 - \\lambda \\eta_t) z
        - \\eta_t \\, y \\, \\ell'(y z^T R x) \\, R x

Query (Count-Sketch recovery on ``sqrt(s) z``):

.. math::

    \\hat w_i = \\mathrm{median}_j \\{ \\sqrt{s} \\,
        \\sigma_j(i) \\, z_{j, h_j(i)} \\}

The L2 decay is applied lazily through a global scale ``alpha``
(Section 5.1, "Efficient Regularization"), giving O(s * nnz(x)) updates.
The table / scale / margin / recovery machinery is shared with the
AWM-Sketch through :class:`~repro.core.sketch_table.ScaledSketchTable`.

For the evaluation's top-K queries, the class can *passively* maintain a
heap of the heaviest estimated weights over features it has seen — the
same construction heavy-hitters sketches use.  Unlike the AWM-Sketch's
active set, this heap never feeds back into the learning updates.

Batched updates: :meth:`WMSketch.fit_batch` consumes a whole
:class:`~repro.data.batch.SparseBatch`, hashing the batch's (deduped)
index set in one vectorized call and replaying the per-example gradient
sequence over the precomputed rows — bit-identical state to calling
:meth:`update` per example, at a fraction of the interpreter overhead.
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.core.sketch_table import _RENORM_THRESHOLD, ScaledSketchTable
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.heap.topk import BatchSlotCache, TopKStore
from repro.kernels.numpy_backend import margin, scatter_add, screen_abs_gt
from repro.learning.base import CELL_BYTES
from repro.learning.losses import Loss
from repro.learning.schedules import Schedule
from repro.telemetry import trace as _trace

__all__ = ["WMSketch", "_RENORM_THRESHOLD"]


class WMSketch(ScaledSketchTable):
    """Weight-Median Sketch: a sketched online linear classifier.

    Parameters
    ----------
    width:
        Buckets per row (``k / s`` in the paper's notation).
    depth:
        Number of rows ``s``.
    loss:
        Margin loss defining the model (default: logistic regression).
    lambda_:
        L2-regularization strength (Eq. 1); Theorem 1's sketch sizes
        scale as 1/lambda, and Fig. 5 shows recovery error falling as
        lambda grows.
    learning_rate:
        Schedule or float eta0 (paper default 0.1).
    seed:
        Hash-family seed (the randomness the guarantee is over).
    heap_capacity:
        If > 0, passively track the top features by estimated weight so
        ``top_weights`` is O(K log K) instead of requiring a candidate
        scan.  Charged 2 cells (id + weight) per slot.
    l1:
        Optional elastic-net-style l1 shrinkage applied to sketch
        estimates at query time (soft threshold); Section 6.1's "Weight
        Sparsity" remark.  0 disables.
    hash_kind:
        "tabulation" (default) or "polynomial" hash family.
    backend:
        Kernel-backend override for the compiled loops (the fused
        update and predict, and the push codec's chunk kernels under
        the parameter server); ``None`` follows the process default
        (see :mod:`repro.kernels`).  Results are bit-identical across
        backends.
    """

    #: The WM-Sketch is fully described by (raw chunks, scale, fold
    #: log, clock) + a re-estimable passive heap, so it supports the
    #: O(dirty) parameter-server protocol (:mod:`repro.parallel.ps`).
    ps_delta_sync = True

    def __init__(
        self,
        width: int,
        depth: int,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        learning_rate: Schedule | float = 0.1,
        seed: int = 0,
        heap_capacity: int = 128,
        l1: float = 0.0,
        hash_kind: str = "tabulation",
        backend: str | None = None,
    ):
        if l1 < 0:
            raise ValueError(f"l1 must be >= 0, got {l1}")
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
        self.l1 = l1
        self.heap: TopKStore | None = (
            TopKStore(heap_capacity) if heap_capacity > 0 else None
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_margin(self, x: SparseExample) -> float:
        buckets, signs = self._rows(x.indices)
        return self._margin_from_rows(buckets, signs, x.values)

    def predict_batch(self, batch: SparseBatch) -> np.ndarray:
        """Margins for a whole batch — the serving fast path.

        One cached, deduplicated hash for the whole batch plus a single
        ``fused_predict`` kernel call over workspace buffers.  Unlike
        the earlier segment-sum implementation (which agreed with the
        scalar path only to summation-order float differences), the
        fused kernel computes each example's *exactly rounded* margin —
        **bit-identical** to per-example :meth:`predict_margin`, so a
        served score does not depend on how requests were batched.
        """
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        _, _, sign_values, flat = self._batch_rows(batch, None)
        out = np.empty(n, dtype=np.float64)
        self.kernels.fused_predict(
            self._table_flat, self._translate_flat(flat), sign_values,
            batch.indptr, self._scale, self._sqrt_s, out,
        )
        return out

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def update(self, x: SparseExample) -> None:
        y = x.label
        buckets, signs = self._rows(x.indices)
        sign_values = signs * x.values
        tau = self._margin_from_products(buckets, sign_values)
        g = self.loss.dloss(y * tau)
        eta = self.schedule(self.t)
        if self.lambda_ > 0.0:
            self._decay_scale(self._decay_factor(eta))
        # z <- z - eta * y * g * R x   (R = A / sqrt(s)), done on the raw
        # table so the stored state is z / scale.
        coeff = -eta * y * g / (self._sqrt_s * self._scale)
        self._scatter_add(buckets, coeff * sign_values)
        self.t += 1
        if self.heap is not None:
            self._maintain_heap(x.indices, buckets, signs)

    def fit_batch(
        self,
        batch: SparseBatch,
        rows: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Mini-batch update kernel: hash once, fuse the replay.

        The batch's whole index set is hashed in a single deduplicated
        (cached) call into workspace arenas, and the entire per-example
        sequence — exactly-rounded margin, loss derivative, lazy decay,
        eta-scaled scatter — runs as **one** ``fused_update`` kernel
        call over preallocated buffers: zero steady-state allocations
        and no per-example kernel dispatch, with state bit-identical to
        per-example :meth:`update` calls.  Returns the pre-update
        margins.

        With a passive heap attached, the fused kernel additionally
        records each example's post-update gathered cells and scale, and
        the heap-maintain pass replays its admission decisions from the
        recording afterwards — the WM heap never feeds back into the
        table, so the decoupling is exact (fuzz-checked in
        ``tests/test_fused_kernels.py``).  The replay runs per possible
        admission, not per example: once the heap is full, examples
        whose estimates cannot beat a lower bound on the admission
        threshold only refresh members, and their refreshes collapse
        into one store write (see :meth:`_maintain_batch_recorded`).

        ``rows`` may carry precomputed ``(buckets, signs)`` for
        ``batch.indices`` (shape ``(depth, nnz)``), as produced by the
        pipelined ingestion path's prefetch hasher; hashes are pure, so
        supplied rows are interchangeable with hashing here.

        Losses without a kernel id (custom losses) and
        ``use_fused=False`` take the original per-kernel chain
        (:meth:`_fit_batch_unfused`) — the executable reference for the
        fused path.  One visible difference: an invalid decay
        (``eta * lambda >= 1``) raises *before* any update on the fused
        path, where the unfused chain raises mid-batch.
        """
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if not self.use_fused or self.loss.kernel_id is None:
            return self._fit_batch_unfused(batch, rows)
        # The enabled check runs before any span allocation, so the
        # disabled cost is one flag read plus one extra call — the
        # telemetry overhead contract gated by BENCH_telemetry.json.
        if _trace.enabled:
            with _trace.span("fit_batch", model="WMSketch", n=n):
                return self._fit_batch_fused(batch, rows, n)
        return self._fit_batch_fused(batch, rows, n)

    def _fit_batch_fused(
        self,
        batch: SparseBatch,
        rows: tuple[np.ndarray, np.ndarray] | None,
        n: int,
    ) -> np.ndarray:
        """The fused :meth:`fit_batch` body, with per-phase trace spans
        (no-ops while tracing is disabled)."""
        with _trace.span("hash"):
            buckets, signs, sign_values, flat = self._batch_rows(batch, rows)
        ws = self._ws
        nnz = batch.indices.size
        etas = ws.array("etas", n)
        etas[:] = self.schedule.many(self.t, n)
        self._check_decay_window(etas)
        margins = np.empty(n, dtype=np.float64)
        heap = self.heap
        if heap is None:
            gathered = kernels.EMPTY_GATHER
            scales = kernels.EMPTY_SCALES
        else:
            gathered = ws.array("gathered", (nnz, self.depth))
            scales = ws.array("scales", n)
        # Full-recording touched stream: the kernel writes every
        # scattered flat index (plus the renorm-fold count in slot 0),
        # and the dirty bitmap is fed from the recording afterwards —
        # the kernel has no mid-batch raise paths (the decay window was
        # validated above), so marking after the call cannot miss
        # writes.
        touched = ws.array("touched", 1 + self.depth * nnz, np.int64)
        with _trace.span("fused_update"):
            self._scale = self.kernels.fused_update(
                self._table_flat, flat, sign_values, batch.indptr,
                batch.labels, etas, self.lambda_, self._scale, self._sqrt_s,
                self.loss.kernel_id, self.loss.kernel_param,
                margins, gathered, scales, touched,
            )
        if touched[0]:
            # A renorm fold rewrote every bucket mid-batch.
            self._note_renorm_folds(int(touched[0]))
            self._mark_dirty_all()
        else:
            self._mark_dirty_flat(touched[1:])
        self.t += n
        if heap is not None and nnz:
            with _trace.span("heap_maintain"):
                self._maintain_batch_recorded(batch, signs, gathered, scales)
        return margins

    def _maintain_batch_recorded(
        self,
        batch: SparseBatch,
        signs: np.ndarray,
        gathered: np.ndarray,
        scales: np.ndarray,
    ) -> None:
        """Replay the passive heap maintenance from the fused kernel's
        recording, running the decision core only where it can admit.

        The recording (each example's post-update cells and scale) gives
        every position's estimate in one vectorized pass: the floats
        :meth:`_maintain_heap` computes mid-replay.  While the heap has
        free slots, every example runs :meth:`_maintain_decide`.  Once
        it is full, a run starts at its minimum priority ``t0``.  Until
        something is admitted, every heap priority is a start-of-run
        entry or a member refresh (the WM heap never decays, so a
        refreshed priority is exactly the |estimate|), so ``min(t0,
        every refresh up to the end of example i)`` bounds the threshold
        example ``i`` faces from below.  Examples whose non-member
        estimates all stay at or below it only refresh members; their
        refreshes collapse into one ``TopKStore.set_many`` (each slot
        keeps its last write).  The first example that beats it runs the
        decision core, its admissions patch the ``BatchSlotCache``, and
        the next run starts after it.  Runs screen windows of examples
        that double in size, so a rescan costs the distance to the next
        possible admission, not the rest of the batch.
        """
        heap = self.heap
        indices = batch.indices
        indptr = batch.indptr
        nnz = indices.size
        n = len(batch)
        ws = self._ws
        # The median_estimate kernel's value selection (product, row
        # sort, middle pick), times each position's recorded factor.
        est = ws.array("est", nnz)
        if self.depth == 1:
            np.multiply(signs[0], gathered[:, 0], out=est)
        else:
            rows = ws.array("med_rows", (nnz, self.depth))
            np.multiply(signs.T, gathered, out=rows)
            rows.sort(axis=1)
            mid = self.depth // 2
            if self.depth % 2:
                np.copyto(est, rows[:, mid])
            else:
                np.add(rows[:, mid - 1], rows[:, mid], out=est)
                est *= 0.5
        # Each position's example (np.repeat without the allocation).
        example = ws.array("pos_example", nnz, np.intp)
        example.fill(0)
        starts = indptr[1:-1]
        np.add.at(example, starts[starts < nnz], 1)
        np.cumsum(example, out=example)
        factors = scales if self.depth == 1 else scales * self._sqrt_s
        est *= factors.take(example, out=ws.array("factor", nnz), mode="clip")
        if self.l1 > 0.0:
            est = np.sign(est) * np.maximum(np.abs(est) - self.l1, 0.0)
        mag = np.abs(est, out=ws.array("est_abs", nnz))
        # Screen scratch: each position's example end, the non-member
        # mask, the running lower bound, and that bound at the end of
        # each position's example (what the example's candidates face).
        end = np.take(indptr[1:] - 1, example, mode="clip",
                      out=ws.array("pos_end", nnz, np.intp))
        cand = ws.array("screen_cand", nnz, bool)
        run = ws.array("screen_run", nnz)
        floor = ws.array("screen_floor", nnz)
        slot_cache = BatchSlotCache(heap, indices, ws=ws)
        promo_log: list = []
        bounds = indptr.tolist()
        i = 0
        while i < n:
            if slot_cache.stale:
                slot_cache = BatchSlotCache(heap, indices, slot_cache, ws)
            slots, k = slot_cache.slots, i
            if heap.is_full:
                t0, k, a, width = heap.min_priority(), n, i, 8
                while a < n:
                    b = min(a + width, n)
                    pa, pb = bounds[a], bounds[b]
                    a, width = b, 2 * width
                    if pa == pb:
                        continue
                    c, r = cand[pa:pb], run[pa:pb]
                    np.less(slots[pa:pb], 0, out=c)
                    np.copyto(r, mag[pa:pb])
                    np.copyto(r, np.inf, where=c)
                    r[0] = min(r[0], t0)
                    np.minimum.accumulate(r, out=r)
                    np.take(run, end[pa:pb], out=floor[pa:pb], mode="clip")
                    c &= mag[pa:pb] > floor[pa:pb]
                    first = int(c.argmax())
                    if c[first]:
                        k = int(example[pa + first])
                        break
                    t0 = float(r[-1])
                lo, hi = bounds[i], bounds[k]
                member = slots[lo:hi] >= 0
                heap.set_many(slots[lo:hi][member], est[lo:hi][member])
                if k == n:
                    break
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                e = est[lo:hi]
                self._maintain_decide(indices[lo:hi], slots[lo:hi],
                                      lambda: math.inf, lambda: e, promo_log)
                for admitted, evicted in promo_log:
                    slot_cache.apply(admitted, evicted)
                promo_log.clear()
            i = k + 1

    def _maintain_decide(
        self,
        indices: np.ndarray,
        slots: np.ndarray,
        bound_for,
        estimates_for,
        promo_log: list | None,
    ) -> None:
        """The admission-decision core shared by the live
        (:meth:`_maintain_heap`) and recorded
        (:meth:`_maintain_batch_recorded`) maintain paths.

        ``bound_for()`` / ``estimates_for()`` lazily provide the
        estimate bound and the per-feature estimates — from the live
        table on the unfused path; on the fused path, the estimates
        precomputed from the fused kernel's recording and an infinite
        bound (the replay only calls this core for examples that can
        admit) — so the decision structure exists exactly once and the
        two paths cannot drift apart.
        """
        heap = self.heap
        member = slots >= 0
        any_member = bool(member.any())
        if heap.is_full:
            if not any_member:
                if bound_for() <= heap.min_priority():
                    return
                estimates = estimates_for()
                cand = screen_abs_gt(estimates, heap.min_priority())
            else:
                estimates = estimates_for()
                heap.set_many(slots[member], estimates[member])
                if member.all():
                    return
                cand = screen_abs_gt(estimates, heap.min_priority())
                cand = cand[~member[cand]]
            for pos in cand.tolist():
                idx = int(indices[pos])
                w = float(estimates[pos])
                # Re-check the live threshold: earlier admissions can
                # only have raised it.  A duplicate feature admitted
                # earlier in this example updates in place via push.
                if idx in heap:
                    heap.push(idx, w)
                elif abs(w) > heap.min_priority():
                    evicted = heap.push(idx, w)
                    if promo_log is not None:
                        promo_log.append(
                            (idx, evicted[0] if evicted else None)
                        )
        else:
            estimates = estimates_for()
            # Free slots remain: sequential admits (the heap can fill
            # mid-example, after which the threshold rule applies).
            push = heap.push
            minp = None
            for idx, w in zip(indices.tolist(), estimates.tolist()):
                if idx in heap:
                    push(idx, w)
                    minp = None
                elif not heap.is_full:
                    push(idx, w)
                    minp = None
                    if promo_log is not None:
                        promo_log.append((idx, None))
                else:
                    if minp is None:
                        minp = heap.min_priority()
                    if abs(w) > minp:
                        evicted = push(idx, w)
                        minp = None
                        if promo_log is not None:
                            promo_log.append(
                                (idx, evicted[0] if evicted else None)
                            )

    def _fit_batch_unfused(
        self,
        batch: SparseBatch,
        rows: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """The original per-kernel mini-batch chain (pre-fusion).

        Retained verbatim as the executable reference the fused path is
        fuzz-checked against, and as the fallback for custom losses the
        kernels cannot represent.  State is bit-identical to per-example
        :meth:`update` calls *and* to the fused path.
        """
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if rows is None:
            buckets, signs = self._batch_hasher.rows(batch.indices)
        else:
            buckets, signs = rows
        sign_values = signs * batch.values
        flat = buckets + self._row_offsets
        # Mark the whole batch's scatter targets dirty up front: the
        # decay check below can raise mid-batch, after some examples
        # already scattered — over-marking is always safe, a missed
        # write never is.
        self._mark_dirty_flat(flat)
        etas = self.schedule.many(self.t, n)
        indptr = batch.indptr.tolist()
        labels = batch.labels.tolist()
        indices = batch.indices
        heap = self.heap
        # Heap membership for the whole batch, answered once and patched
        # per admission/eviction (see BatchSlotCache).
        slot_cache: BatchSlotCache | None = None
        promo_log: list = []
        if heap is not None:
            slot_cache = BatchSlotCache(heap, indices)
        # The loop below is the same arithmetic as :meth:`update` with
        # the margin / decay / scatter helpers inlined — every method
        # call costs ~0.5us of frame overhead at this granularity.
        dloss = self.loss.dloss
        table_flat = self._table_flat
        sqrt_s = self._sqrt_s
        lam = self.lambda_
        margins = [0.0] * n
        lo = indptr[0]
        for i in range(n):
            hi = indptr[i + 1]
            fb = flat[:, lo:hi]
            sv = sign_values[:, lo:hi]
            scale = self._scale
            tau = margin(table_flat, fb, sv, scale, sqrt_s)
            margins[i] = tau
            y = labels[i]
            g = dloss(y * tau)
            eta = etas[i]
            if lam > 0.0:
                decay = 1.0 - eta * lam
                if decay <= 0.0:
                    raise ValueError(
                        f"eta * lambda = {eta * lam} >= 1; decrease eta0"
                    )
                scale *= decay
                if scale < _RENORM_THRESHOLD:
                    self._fold_log += math.log(scale)
                    self.table *= scale
                    scale = 1.0
                    self._mark_dirty_all()
                self._scale = scale
            scatter_add(table_flat, fb, (-eta * y * g / (sqrt_s * scale)) * sv)
            self.t += 1
            if heap is not None:
                if slot_cache.stale:
                    slot_cache = BatchSlotCache(
                        heap, indices, reuse=slot_cache
                    )
                self._maintain_heap(
                    indices[lo:hi],
                    buckets[:, lo:hi],
                    signs[:, lo:hi],
                    flat_buckets=fb,
                    slots=slot_cache.slice(lo, hi),
                    promo_log=promo_log,
                )
                if promo_log:
                    for admitted, evicted in promo_log:
                        slot_cache.apply(admitted, evicted)
                    promo_log.clear()
            lo = hi
        return np.asarray(margins)

    def _maintain_heap(
        self,
        indices: np.ndarray,
        buckets: np.ndarray,
        signs: np.ndarray,
        flat_buckets: np.ndarray | None = None,
        slots: np.ndarray | None = None,
        promo_log: list | None = None,
    ) -> None:
        """Passive heavy-weight tracking after one example's update.

        Only touches the heap when an estimate could change its contents
        (member refresh, free slot, or beating the current minimum).
        When the heap is full, none of the example's features are
        members, and even the largest row magnitude cannot beat the
        admission threshold, the median recovery is skipped entirely —
        no candidate could be admitted, so recomputing estimates would
        be pure waste.

        The store turned the per-feature probe-and-sift loop into three
        vectorized strokes: one membership probe (or a precomputed
        ``slots`` view from the batched kernel's
        :class:`~repro.heap.topk.BatchSlotCache`), one
        :meth:`~repro.heap.topk.TopKStore.set_many` refreshing every
        member's estimate, and one screen selecting the candidates that
        beat the admission threshold — members are refreshed before
        candidates are judged (the threshold candidates face is the one
        left by this example's refreshed members), and the surviving
        candidates re-check the live minimum in order, exactly as
        sequential pushes would.  The decision structure itself lives
        in :meth:`_maintain_decide`, shared with the fused replay.
        """
        if slots is None:
            slots = self.heap.member_slots(indices)
        self._maintain_decide(
            indices,
            slots,
            lambda: self._estimate_bound(
                buckets, flat_buckets=flat_buckets
            ),
            lambda: self._estimate_from_rows(
                buckets, signs, flat_buckets=flat_buckets
            ),
            promo_log,
        )

    # ------------------------------------------------------------------
    # Merging (distributed / sharded training)
    # ------------------------------------------------------------------
    def merge(self, *others: "WMSketch") -> "WMSketch":
        """Sum-merge sharded WM-Sketches; rebuild the passive heap.

        The table merge is the exact linear summation of
        :meth:`ScaledSketchTable.merge`.  The passive top-K heap is then
        *re-estimated*: worker heaps hold estimates against their own
        (pre-merge) tables, which are stale once tables are summed, so
        the union of all workers' tracked feature ids is re-queried
        against the merged table and the heaviest ``capacity`` survive.
        Recovery over the union of tracked candidates is approximate in
        the same sense single-stream passive tracking is — features
        never tracked by any worker cannot surface.

        A heap-less ``self`` *adopts* tracking (at the largest donor
        capacity) when any donor carries a heap, so merging never
        silently discards a model's tracked candidates whichever side
        of the merge it lands on.
        """
        if not others:
            return self
        super().merge(*others)
        capacity = self.heap.capacity if self.heap is not None else 0
        candidates: set[int] = (
            {k for k, _ in self.heap.items()} if self.heap is not None
            else set()
        )
        for other in others:
            if other.heap is not None:
                capacity = max(capacity, other.heap.capacity)
                candidates.update(k for k, _ in other.heap.items())
        if capacity > 0:
            self.heap = TopKStore(capacity)
            self._repromote(self.heap, candidates, self.estimate_weights)
        return self

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def estimate_weights(self, indices: np.ndarray) -> np.ndarray:
        """Count-Sketch recovery: median over rows of sqrt(s)*alpha*sigma*z."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        buckets, signs = self._rows(indices)
        return self._estimate_from_rows(buckets, signs)

    def top_weights(self, k: int) -> list[tuple[int, float]]:
        """Top-k features among the passively tracked heap.

        Estimates are refreshed against the current sketch state before
        ranking, since heap snapshots can be stale.
        """
        if self.heap is None:
            raise RuntimeError(
                "construct with heap_capacity > 0 (or query "
                "estimate_weights over a candidate set) for top_weights"
            )
        candidates = np.array([i for i, _ in self.heap.items()], dtype=np.int64)
        if candidates.size == 0:
            return []
        est = self.estimate_weights(candidates)
        order = np.argsort(-np.abs(est))
        return [(int(candidates[i]), float(est[i])) for i in order[:k]]

    def top_weights_from_candidates(
        self, candidates: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """Top-k estimated weights over an explicit candidate feature set."""
        candidates = np.atleast_1d(np.asarray(candidates, dtype=np.int64))
        est = self.estimate_weights(candidates)
        if k < candidates.size:
            part = np.argpartition(-np.abs(est), k)[:k]
        else:
            part = np.arange(candidates.size)
        order = part[np.argsort(-np.abs(est[part]))]
        return [(int(candidates[i]), float(est[i])) for i in order[:k]]

    # ------------------------------------------------------------------
    @property
    def memory_cost_bytes(self) -> int:
        heap_cells = 2 * self.heap.capacity if self.heap is not None else 0
        return CELL_BYTES * (self.size + heap_cells)
