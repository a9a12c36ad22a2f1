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

import numpy as np

from repro import kernels
from repro.core.sketch_table import _RENORM_THRESHOLD, ScaledSketchTable
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.heap.topk import TopKStore
from repro.kernels.numpy_backend import maintain_decide
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
        update and predict, the passive-heap maintain, and the push
        codec's chunk kernels under the parameter server); ``None``
        follows the process default.  Resolved once, when the model is
        built or unpickled, into :attr:`kernels` (see
        :mod:`repro.kernels`).  Results are bit-identical across
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
        _, _, sign_values, flat = self._batch_rows(batch)
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

    def fit_batch(self, batch: SparseBatch) -> np.ndarray:
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
        the ``heap_maintain`` kernel replays the heap's refreshes and
        admissions from the recording afterwards — the WM heap never
        feeds back into the table, so the decoupling is exact
        (fuzz-checked in ``tests/test_fused_kernels.py``).  On numpy the
        replay runs per possible admission, not per example; under
        ``c`` one C loop runs every example that meets a full heap (see
        :meth:`_maintain_batch_recorded`).

        Losses without a kernel id (custom losses) run the per-example
        spec, :meth:`StreamingClassifier.fit_batch
        <repro.learning.base.StreamingClassifier.fit_batch>`.  One
        visible difference: an invalid decay (``eta * lambda >= 1``)
        raises *before* any update here, where the per-example spec
        raises mid-batch.
        """
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if self.loss.kernel_id is None:
            return super().fit_batch(batch)
        # The enabled check runs before any span allocation, so the
        # disabled cost is one flag read plus one extra call — the
        # telemetry overhead contract gated by BENCH_telemetry.json.
        if _trace.enabled:
            with _trace.span("fit_batch", model="WMSketch", n=n):
                return self._fit_batch_fused(batch, n)
        return self._fit_batch_fused(batch, n)

    def _fit_batch_fused(self, batch: SparseBatch, n: int) -> np.ndarray:
        """The fused :meth:`fit_batch` body, with per-phase trace spans
        (no-ops while tracing is disabled)."""
        with _trace.span("hash"):
            buckets, signs, sign_values, flat = self._batch_rows(batch)
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
        recording through the ``heap_maintain`` kernel.

        The recording (each example's post-update cells and scale)
        gives every position's estimate: the floats :meth:`_maintain_heap`
        computes mid-replay.  Every example then gets the refresh and
        admissions of :func:`~repro.kernels.numpy_backend.maintain_decide`,
        the decision core per-example :meth:`update` runs.  The numpy
        body runs that core only where an admission is possible (a
        screen against a lower bound on the admission threshold); the
        ``c`` backend runs it until the heap is full and then one C loop
        over the rest of the batch (see :mod:`repro.kernels.api`).
        """
        self.kernels.heap_maintain(
            self.heap, batch.indices, batch.indptr, signs, gathered, scales,
            self._sqrt_s, self.l1, self._ws,
        )

    def _maintain_heap(
        self, indices: np.ndarray, buckets: np.ndarray, signs: np.ndarray
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
        vectorized strokes: one membership probe, one
        :meth:`~repro.heap.topk.TopKStore.set_many` refreshing every
        member's estimate, and one screen selecting the candidates that
        beat the admission threshold — members are refreshed before
        candidates are judged (the threshold candidates face is the one
        left by this example's refreshed members), and the surviving
        candidates re-check the live minimum in order, exactly as
        sequential pushes would.  The decision structure itself lives
        in :func:`~repro.kernels.numpy_backend.maintain_decide`, shared
        with the batched replay.
        """
        maintain_decide(
            self.heap,
            indices,
            self.heap.member_slots(indices),
            lambda: self._estimate_bound(buckets),
            lambda: self._estimate_from_rows(buckets, signs),
            None,
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
