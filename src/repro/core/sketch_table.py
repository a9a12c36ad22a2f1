"""Shared substrate of the WM- and AWM-Sketch: a lazily-scaled table.

Both sketch classifiers maintain the same physical object — a
Count-Sketch-shaped array ``z`` of shape ``(depth, width)`` holding a
randomly-projected linear model, decayed multiplicatively by L2
regularization through a global scale ``alpha`` (Section 5.1,
"Efficient Regularization") and queried by median-of-rows Count-Sketch
recovery.  Historically the margin / estimate / decay / renormalization
logic was copy-pasted between ``wm_sketch.py`` and ``awm_sketch.py``;
:class:`ScaledSketchTable` is the single home for it, plus the batched
hashing front-end shared by the vectorized ``fit_batch`` and read
kernels: a :class:`~repro.hashing.batch.BatchHasher`, the set-associative
memo of each key's per-row (bucket, sign) pairs.

Floating-point discipline: the batched kernels promise bit-level
equivalence with the per-example update path, so both paths must go
through the *same* helpers here — and those helpers deliberately avoid
BLAS (``np.dot`` rounds differently depending on operand alignment, so
it is not bit-reproducible across array layouts).  Exactly-rounded
margin sums and element-order ``ufunc.at`` scatters are
layout-independent, which makes per-example and batched replays produce
identical tables.

The helper bodies themselves (margin, scatter, transposed gather,
median recovery, estimate bound, recovery query) are plain functions of
:mod:`repro.kernels.numpy_backend`.  The compiled loops (WM's fused
update and predict, the push codec's chunk apply) dispatch through the
table's kernel backend (:attr:`ScaledSketchTable.kernels`) under the
same bit-level contract, checked across backends in
``tests/test_kernel_backends.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.hashing.batch import BatchHasher
from repro.hashing.family import HashFamily
from repro.kernels import numpy_backend
from repro.learning.base import StreamingClassifier, sum_merge_scaled_tables
from repro.learning.losses import LogisticLoss, Loss
from repro.learning.schedules import Schedule, as_schedule

#: Scale threshold below which the lazy L2 factor is folded back into
#: the raw table to avoid float underflow.
_RENORM_THRESHOLD = 1e-150

#: Per-fold log-scale contribution assumed for folds that happen
#: *inside* a fused kernel (the kernel reports only a fold count):
#: every fold triggers just as the scale crosses the threshold, so the
#: folded factor is ~_RENORM_THRESHOLD.  See
#: :meth:`ScaledSketchTable.log_virtual_scale` for why the
#: approximation is harmless.
_LOG_RENORM_THRESHOLD = math.log(_RENORM_THRESHOLD)

#: Dirty-bitmap chunk geometry for incremental snapshot publication.
#: Publishes copy whole chunks, so the chunk size trades copy
#: granularity against bitmap overhead: with ``B`` hash-scattered
#: touched buckets per publish interval the expected dirty fraction is
#: roughly ``1 - exp(-B * chunk / size)``.  256 buckets (2 KiB) keeps
#: Fig. 7-scale per-interval write sets at ~10-20% dirty on
#: million-bucket tables, where 4K-bucket chunks would already be
#: nearly 100% dirty (no publish win at all).
_CHUNK_LOG = kernels.CHUNK_LOG
_CHUNK = kernels.CHUNK
_CHUNK_MASK = _CHUNK - 1

#: :meth:`ScaledSketchTable.snapshot_incremental` rebases (one full
#: vectorized copy into a fresh pool) when the dirty fraction reaches
#: this crossover — near-full chunked copies cost more than one
#: contiguous copy — ...
_REBASE_DIRTY_FRACTION = 0.5
#: ... and when the append-only chunk pool would exceed this many times
#: the table's own chunk count (bounds chain memory growth; published
#: snapshots pin whatever pool they reference).
_POOL_MAX_FACTOR = 4

#: Attributes a snapshot never inherits from the live model's __dict__
#: (each is re-established explicitly by the snapshot builders).
_SNAPSHOT_DROPPED = (
    "table", "_scale", "_table_flat", "_batch_hasher", "_ws",
    "heap", "_dirty", "_pool", "_chunk_map",
    "_chain_token", "_chain_seq", "_snap_pool", "_snap_used", "_snap_map",
)


class ScaledSketchTable(StreamingClassifier):
    """Count-Sketch table + lazy L2 scale shared by WM/AWM sketches.

    Subclasses add their learning rule (``update`` / ``fit_batch``) and
    recovery policy; this base owns:

    * the hash family and the :class:`BatchHasher` used by batched
      kernels;
    * the raw table, the global scale ``alpha`` and its
      renormalization;
    * the linear margin ``z^T R x`` and the median-of-rows estimate,
      computed from precomputed per-row (bucket, sign) arrays.
    """

    #: Optional L1 soft-threshold applied to estimates at query time;
    #: only the WM-Sketch exposes it, the default is off.
    l1: float = 0.0

    #: Number of independently trained models folded into this one via
    #: :meth:`merge` (1 for a single-stream model).  Serialized alongside
    #: the table so merged checkpoints are self-describing.
    merged_from: int = 1

    #: Whether the model supports O(dirty) parameter-server delta sync
    #: (:mod:`repro.parallel.ps`).  Requires that *all* state a replica
    #: needs is (raw table chunks, scale, fold log, clock) — true for
    #: the passive WM-Sketch, false here and for the AWM-Sketch, whose
    #: active set feeds back into the update rule and cannot be
    #: reconstructed from table chunks alone (it still merges via the
    #: one-shot :meth:`merge`).
    ps_delta_sync: bool = False

    def __init__(
        self,
        width: int,
        depth: int,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        learning_rate: Schedule | float = 0.1,
        seed: int = 0,
        hash_kind: str = "tabulation",
        backend: str | None = None,
    ):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if lambda_ < 0:
            raise ValueError(f"lambda_ must be >= 0, got {lambda_}")
        self.width = width
        self.depth = depth
        self.loss = loss if loss is not None else LogisticLoss()
        self.lambda_ = lambda_
        self.schedule = as_schedule(learning_rate)
        #: Kernel-backend override for the compiled loops (None = follow
        #: the process default); serialized with the model.
        self.backend = backend
        #: The backend the compiled loops dispatch through, resolved once
        #: (see :mod:`repro.kernels`); snapshots share it, pickles drop it.
        self.kernels = kernels.get_backend(backend, strict=False)
        self.family = HashFamily(width, depth, seed=seed, kind=hash_kind)
        self.table = np.zeros((depth, width), dtype=np.float64)
        self._scale = 1.0  # the global alpha of Section 5.1
        # Cumulative log of every scale factor folded into the raw
        # table (renorm folds, merge folds): log(alpha) + _fold_log is
        # the *virtual* log-scale, monotone across folds, which is what
        # lets the parameter-server delta codec recover the decay
        # product between two sync points (see log_virtual_scale).
        self._fold_log = 0.0
        self._sqrt_s = float(np.sqrt(depth))
        self._batch_hasher = BatchHasher(self.family)
        # Column vector of row ids: ``table[_row_idx, buckets]`` gathers
        # a whole (depth, nnz) block in one fancy index.
        self._row_idx = np.arange(depth, dtype=np.intp).reshape(-1, 1)
        # Flat-view machinery: ``_table_flat.take(buckets + _row_offsets)``
        # is the same gather through the cheaper flat path (gathers move
        # bits, they do no arithmetic, so flat vs. fancy is bit-neutral).
        self._row_offsets = (
            np.arange(depth, dtype=np.int64) * width
        ).reshape(-1, 1)
        self._table_flat = self.table.ravel()
        # Dirty-chunk tracking for O(dirty) incremental snapshot
        # publication: live models keep a contiguous table and a chunked
        # write bitmap; chunk-shared snapshots instead carry a
        # (rows, _CHUNK) pool plus a chunk -> pool-row map (table is
        # then None; reads translate indices through _translate_flat).
        self._dirty: np.ndarray | None = np.ones(
            self._n_chunks(), dtype=bool
        )
        self._pool: np.ndarray | None = None
        self._chunk_map: np.ndarray | None = None
        self._reset_chain()
        # Lazily-built workspace (a per-process cache: dropped on
        # pickling, rebuilt on first use).
        self._ws: kernels.KernelWorkspace | None = None
        self.t = 0

    def _workspace(self) -> "kernels.KernelWorkspace":
        """The model's grow-only fused-kernel workspace (lazily built,
        never serialized)."""
        ws = self._ws
        if ws is None:
            ws = self._ws = kernels.KernelWorkspace()
        return ws

    # ------------------------------------------------------------------
    # Dirty-chunk tracking (incremental snapshot publication)
    # ------------------------------------------------------------------
    def _n_chunks(self) -> int:
        """Number of ``_CHUNK``-bucket chunks covering the flat table."""
        return (self.size + _CHUNK_MASK) >> _CHUNK_LOG

    def _reset_chain(self) -> None:
        """Forget any snapshot chain (fresh model / after unpickling).

        The chain token is an identity sentinel: a previous snapshot may
        seed :meth:`snapshot_incremental` only if it carries *this*
        model's token and the latest sequence number — the dirty bitmap
        records changes since the last chain publish, so any other
        ``prev`` forces a rebase.
        """
        self._chain_token: object = object()
        self._chain_seq = 0
        self._snap_pool: np.ndarray | None = None
        self._snap_used = 0
        self._snap_map: np.ndarray | None = None

    def _mark_dirty_flat(self, flat: np.ndarray) -> None:
        """Mark the chunks containing the given flat bucket indices.

        ``flat`` may be any int64 array of touched indices (the fused
        kernels' recorded touched stream, a batch's flat-bucket block,
        ...); duplicates are free.  Runs over workspace arenas so the
        steady-state fused paths stay allocation-free.
        """
        dirty = self._dirty
        if dirty is None:
            return
        ids = self._workspace().array("dirty_ids", flat.size, np.int64)
        np.right_shift(flat.reshape(-1), _CHUNK_LOG, out=ids)
        dirty[ids] = True

    def _mark_dirty_all(self) -> None:
        """Whole-table writes (renorm folds, merges) dirty every chunk."""
        dirty = self._dirty
        if dirty is not None:
            dirty[:] = True

    def _mark_dirty_bucket(self, row: int, bucket: int) -> None:
        """Scalar write path: one (row, bucket) cell touched."""
        dirty = self._dirty
        if dirty is not None:
            dirty[(row * self.width + bucket) >> _CHUNK_LOG] = True

    def _translate_flat(
        self, flat: np.ndarray, scratch: bool = True
    ) -> np.ndarray:
        """Map flat bucket indices into this snapshot's chunk pool.

        Live models (and full snapshots) store a contiguous table and
        return ``flat`` unchanged.  Chunk-shared snapshots rewrite each
        index ``f`` to ``(chunk_map[f >> LOG] << LOG) | (f & MASK)`` so
        the *unchanged* read kernels (``fused_predict`` /
        ``fused_query`` / margins / gathers) pull the identical float
        bits out of ``_pool.ravel()`` — gathers move bits and do no
        arithmetic, so translated reads are bit-identical to dense
        reads.

        ``scratch=True`` runs over workspace arenas (three int64 views)
        and is for the single-threaded batched read paths only.  The
        scalar read paths pass ``scratch=False`` for fresh temporaries:
        serving runs serial-scalar reads concurrently with the
        coalescer's batched reads on the same snapshot, and the
        snapshot's workspace is a shared mutable cache — scalar reads
        must not touch it (see the SnapshotManager module docstring).
        """
        cmap = self._chunk_map
        if cmap is None:
            return flat
        if not scratch:
            return (cmap[flat >> _CHUNK_LOG] << _CHUNK_LOG) | (
                flat & _CHUNK_MASK
            )
        ws = self._workspace()
        low = ws.array("t_flat_low", flat.shape, np.int64)
        np.bitwise_and(flat, _CHUNK_MASK, out=low)
        ids = ws.array("t_flat_ids", flat.shape, np.int64)
        np.right_shift(flat, _CHUNK_LOG, out=ids)
        out = ws.array("t_flat_out", flat.shape, np.int64)
        np.take(cmap, ids, out=out)
        np.left_shift(out, _CHUNK_LOG, out=out)
        np.bitwise_or(out, low, out=out)
        return out

    def _dense_table_flat(self) -> np.ndarray:
        """The raw (unscaled) flat table; materialized for chunk-shared
        snapshots (``pool[chunk_map]`` reassembles the logical order —
        the padded tail of the last chunk falls past ``size``)."""
        if self._chunk_map is None:
            return self._table_flat
        return self._pool[self._chunk_map].ravel()[: self.size]

    def _dense_table(self) -> np.ndarray:
        """The raw table as a dense ``(depth, width)`` array (a fresh
        copy for chunk-shared snapshots, the live array otherwise)."""
        if self._chunk_map is None:
            return self.table
        return self._dense_table_flat().reshape(self.depth, self.width)

    # ------------------------------------------------------------------
    # Chunk-granular delta transport (parameter-server sync)
    # ------------------------------------------------------------------
    # The dirty bitmap already gives workers a natural delta encoding:
    # ship the ``(chunk id, 256 buckets)`` pairs the bitmap names, and
    # nothing else.  These helpers are the chunk moves the
    # :mod:`repro.parallel.delta` codec composes into push/pull
    # messages; they operate on *flat* float64 arrays with this table's
    # chunk geometry — the live raw table by default, or an external
    # base copy the worker keeps for delta subtraction.  Chunk ids must
    # be a 1-d int64 array strictly increasing within
    # ``[0, _n_chunks())`` (``ValueError`` otherwise, before any write).

    def gather_chunks(
        self, chunk_ids: np.ndarray, source: np.ndarray | None = None
    ) -> np.ndarray:
        """Copy whole chunks out of a flat array as ``(k, _CHUNK)`` rows.

        ``source`` defaults to the live raw table (``_table_flat``);
        workers also pass their flat base copy.  The padded tail of a
        partial last chunk reads as zero — both sides of a delta pad
        identically, so padded cells subtract/accumulate to exact
        zeros.
        """
        numpy_backend.check_chunk_ids(chunk_ids, self._n_chunks())
        if source is None:
            source = self._table_flat
        return numpy_backend.gather_chunks(source, chunk_ids)

    def scatter_chunks(
        self,
        chunk_ids: np.ndarray,
        data: np.ndarray,
        out: np.ndarray | None = None,
    ) -> None:
        """Assign ``(k, _CHUNK)`` rows back into a flat array's chunks.

        The raw-bit pull path: with ``out=None`` the live raw table is
        overwritten (and the chunks marked dirty — the bits changed
        relative to whatever this model last published); otherwise
        ``out`` is an external flat base copy.
        """
        numpy_backend.check_chunk_ids(chunk_ids, self._n_chunks())
        numpy_backend.check_chunk_rows(data, chunk_ids.shape[0])
        own = out is None
        numpy_backend.scatter_chunks(
            self._table_flat if own else out, chunk_ids, data
        )
        if own and self._dirty is not None:
            self._dirty[chunk_ids] = True

    def add_scaled_chunks(
        self, chunk_ids: np.ndarray, data: np.ndarray
    ) -> None:
        """Accumulate *scaled-space* chunk deltas into the live table.

        The driver-side push apply: ``data`` holds each chunk's scaled
        contribution ``U`` and the raw table absorbs ``U / alpha`` so
        that the scaled state gains exactly ``U`` (one rounding per
        cell), through the ``chunk_add`` kernel.  Touched chunks are
        marked dirty — which is what keeps the driver's own downstream
        publishes O(dirty).
        """
        self.kernels.chunk_add(
            self._table_flat, chunk_ids, data, self._scale
        )
        if self._dirty is not None:
            self._dirty[chunk_ids] = True

    def log_virtual_scale(self) -> float:
        """``log(alpha)`` plus every factor ever folded into the raw
        bits — monotone under decay and invariant to *when* renorm
        folds happen.

        Two observations of this value bracket a training window, and
        ``exp(now - then)`` recovers the decay product applied across
        it even when a renorm fold reset ``alpha`` in between.  Folds
        inside fused kernels are accounted at ``log(_RENORM_THRESHOLD)``
        per fold (the kernel reports a count, not the folded factor);
        the approximation only matters in the window *containing* such a
        fold, where every chunk is dirty anyway and the delta codec
        ships the full state — the decay factor then only weights
        *other* workers' interleaved contributions, all of which sit at
        least ~1e-150 below the fresh state.  Windows without folds use
        the exact ``alpha`` ratio (see
        :meth:`repro.parallel.delta.encode_push`).
        """
        return math.log(self._scale) + self._fold_log

    def _note_renorm_folds(self, count: int) -> None:
        """Account ``count`` kernel-internal renorm folds in the
        virtual log-scale (each folds a factor of about
        ``_RENORM_THRESHOLD``; see :meth:`log_virtual_scale`)."""
        if count:
            self._fold_log += count * _LOG_RENORM_THRESHOLD

    # ------------------------------------------------------------------
    # Pickling (spawn-safe worker processes)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop derived buffers; critically, ``_table_flat`` is a *view*
        of ``table`` — pickling it naively would materialize a detached
        copy and silently break the aliasing every scatter/gather relies
        on.  The batch hasher, the resolved kernel backend and the fused
        workspace are per-process and are rebuilt on load (the backend
        is resolved again, on the loading host).

        The *dirty bitmap* travels with the model: it records which
        chunks changed since the owner's last publish/sync, a fact about
        the table bits — which the pickle preserves exactly — not about
        this process.  A parameter-server worker round-tripped through
        pickle therefore keeps its O(dirty) delta instead of inflating
        the next push to full-table size.  The snapshot-chain state
        *is* per-process (pool identity cannot cross pickling), so the
        restored model gets a fresh chain token and its first
        incremental publish rebases.  A chunk-shared *snapshot* is
        persisted as its dense equivalent (the pool / chunk map encode
        sharing with sibling snapshots, which pickling cannot
        preserve) and restores all-dirty, as does any pre-bitmap
        pickle."""
        state = self.__dict__.copy()
        if state.get("_chunk_map") is not None:
            state["table"] = self._dense_table()
        dirty = self._dirty
        state["_dirty"] = None if dirty is None else dirty.copy()
        for key in ("_table_flat", "_row_idx", "_row_offsets",
                    "_batch_hasher", "kernels", "_ws",
                    "_pool", "_chunk_map", "_chain_token",
                    "_chain_seq", "_snap_pool", "_snap_used", "_snap_map"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("backend", None)  # pre-kernel pickles
        state.setdefault("_fold_log", 0.0)  # pre-fold-log pickles
        state.pop("scalar_fast_path", None)  # older AWM pickles
        dirty = state.pop("_dirty", None)
        self.__dict__.update(state)
        depth, width = self.depth, self.width
        self._row_idx = np.arange(depth, dtype=np.intp).reshape(-1, 1)
        self._row_offsets = (
            np.arange(depth, dtype=np.int64) * width
        ).reshape(-1, 1)
        self._table_flat = self.table.ravel()
        self._batch_hasher = BatchHasher(self.family)
        self.kernels = kernels.get_backend(self.backend, strict=False)
        self._ws = None  # rebuilt lazily on first fused batch
        # Carry the pickled dirty bitmap when it is shaped for this
        # table; anything else (old pickles, densified snapshots) falls
        # back to all-dirty — the safe conservative restart.  The chain
        # is always fresh: pool sharing cannot survive pickling.
        if dirty is not None and dirty.shape == (self._n_chunks(),):
            self._dirty = dirty
        else:
            self._dirty = np.ones(self._n_chunks(), dtype=bool)
        self._pool = None
        self._chunk_map = None
        self._reset_chain()

    # ------------------------------------------------------------------
    # Serving snapshots
    # ------------------------------------------------------------------
    def _snapshot_shell(
        self,
        batch_hasher: "BatchHasher | None",
        workspace: "kernels.KernelWorkspace | None",
    ) -> "ScaledSketchTable":
        """The table-independent part of a snapshot: copied config,
        carried scale, folded heap view, reader-side caches.  Callers
        attach the table representation (dense copy or chunk pool)."""
        snap = object.__new__(type(self))
        state = self.__dict__.copy()
        for key in _SNAPSHOT_DROPPED:
            state.pop(key, None)
        snap.__dict__.update(state)
        # The per-snapshot scale multiplier: the snapshot stores the
        # *raw* table bits and carries the publish-time lazy L2 scale
        # alongside, exactly like the live model — raw bits are stable
        # under decay (only renorm folds rewrite them), which is what
        # lets clean chunks be shared across publishes bit-identically.
        snap._scale = self._scale
        snap._dirty = None  # snapshots are read-only; nothing to track
        snap._chain_token = None
        snap._chain_seq = -1
        snap._snap_pool = None
        snap._snap_used = 0
        snap._snap_map = None
        if batch_hasher is not None and batch_hasher.family is not self.family:
            raise ValueError(
                "batch_hasher must wrap the model's own hash family"
            )
        snap._batch_hasher = (
            batch_hasher
            if batch_hasher is not None
            else BatchHasher(self.family)
        )
        snap._ws = workspace
        heap = getattr(self, "heap", None)
        if heap is not None:
            snap.heap = heap.snapshot_view()
        elif "heap" in self.__dict__:
            snap.heap = None
        return snap

    def snapshot(
        self,
        batch_hasher: "BatchHasher | None" = None,
        workspace: "kernels.KernelWorkspace | None" = None,
    ) -> "ScaledSketchTable":
        """A consistent read-only copy for concurrent serving.

        The snapshot copies the *raw* table and carries the publish-time
        lazy L2 scale alongside (every read path already multiplies by
        the scale, so answers are identical to folding it in — and the
        raw-bits representation is what makes the incremental chunked
        publishes of :meth:`snapshot_incremental` bit-identical to this
        full copy).  A snapshot never exposes a half-applied update; its
        answers are a pure function of publish-time state.  The trainer
        keeps mutating the original; readers keep answering from the
        snapshot.  Subclass stores (the WM/AWM ``heap``) snapshot
        through :meth:`~repro.heap.topk.TopKStore.snapshot_view`.

        ``batch_hasher`` / ``workspace`` let a snapshot *manager* thread
        its long-lived reader-side caches through successive publishes
        (hash functions are pure and shared with the live model, so the
        memo stays warm; the workspace arenas keep reads
        zero-allocation).  Both default to fresh caches.  Snapshots are
        read-only by contract and, like every model, single-threaded:
        serving layers must serialize access per snapshot chain.

        Must be called from the trainer thread (the thread mutating the
        model): the copy reads the table and heap arrays non-atomically,
        so an off-thread call could observe a half-applied update.
        """
        snap = self._snapshot_shell(batch_hasher, workspace)
        snap.table = (
            self.table.copy() if self._chunk_map is None
            else self._dense_table()
        )
        snap._pool = None
        snap._chunk_map = None
        snap._table_flat = snap.table.ravel()
        return snap

    def snapshot_incremental(
        self,
        prev: "ScaledSketchTable | None" = None,
        batch_hasher: "BatchHasher | None" = None,
        workspace: "kernels.KernelWorkspace | None" = None,
    ) -> "tuple[ScaledSketchTable, dict]":
        """Publish a snapshot copying only the chunks written since the
        last chain publish; clean chunks are shared with ``prev``'s
        arrays by reference.

        Returns ``(snapshot, stats)`` where ``stats`` reports
        ``dirty_fraction`` / ``chunks_copied`` / ``n_chunks`` /
        ``rebase`` for telemetry.  The snapshot answers every read
        **bit-identically** to a full :meth:`snapshot` taken at the same
        instant: both carry the same raw table bits (dense vs.
        chunk-pool + index translation) and the same scale multiplier,
        and gathers do no arithmetic.

        Chunks live in an append-only ``(rows, _CHUNK)`` pool shared
        along the chain: each publish appends its dirty chunks as fresh
        rows (write-once, so earlier snapshots stay immutable) and maps
        clean chunks to the rows the previous publish used.  The chain
        *rebases* — one vectorized full copy into a fresh pool — on the
        first publish, when ``prev`` is not this model's latest chain
        snapshot (the bitmap records changes since that publish, so
        nothing else can be patched), when the dirty fraction reaches
        the ``_REBASE_DIRTY_FRACTION`` crossover, or when the pool would
        outgrow ``_POOL_MAX_FACTOR`` times the table (memory bound).
        The dirty bitmap is cleared either way.

        Trainer-thread-only, like :meth:`snapshot`.
        """
        if self._dirty is None:
            raise TypeError(
                "snapshots are read-only; publish from the live model"
            )
        size = self.size
        n_chunks = self._dirty.shape[0]
        dirty_ids = np.flatnonzero(self._dirty)
        k = int(dirty_ids.size)
        dirty_fraction = k / n_chunks
        chain_ok = (
            prev is not None
            and self._snap_pool is not None
            and getattr(prev, "_chain_token", None) is self._chain_token
            and getattr(prev, "_chain_seq", None) == self._chain_seq
        )
        rebase = (
            not chain_ok
            or dirty_fraction >= _REBASE_DIRTY_FRACTION
            or self._snap_used + k > _POOL_MAX_FACTOR * n_chunks
        )
        tf = self._table_flat
        if rebase:
            # 2x headroom so the publishes after a rebase append in
            # place instead of regrowing immediately.  The headroom is
            # pre-faulted here (one amortized fill on the slow path) so
            # each later publish's gather writes into resident pages —
            # soft page faults would otherwise dominate the
            # latency-critical O(dirty) append.
            pool = np.empty((2 * n_chunks, _CHUNK), dtype=np.float64)
            pool.ravel()[:size] = tf
            pool[n_chunks:].fill(0.0)
            cmap = np.arange(n_chunks, dtype=np.int64)
            self._snap_pool = pool
            self._snap_used = n_chunks
            self._snap_map = cmap
            chunks_copied = n_chunks
        else:
            pool = self._snap_pool
            used = self._snap_used
            if used + k > pool.shape[0]:
                # Geometric regrowth; the bytewise prefix copy preserves
                # every published bit, and earlier snapshots keep (and
                # pin) the old pool object untouched.
                rows = max(used + k, 2 * pool.shape[0])
                new_pool = np.empty((rows, _CHUNK), dtype=np.float64)
                new_pool[:used] = pool[:used]
                new_pool[used:].fill(0.0)  # pre-fault, as at rebase
                pool = self._snap_pool = new_pool
            full = size >> _CHUNK_LOG  # number of complete chunks
            tail_len = size - (full << _CHUNK_LOG)
            tail_dirty = (
                tail_len > 0 and k > 0 and int(dirty_ids[-1]) == n_chunks - 1
            )
            body_ids = dirty_ids[:-1] if tail_dirty else dirty_ids
            nb = body_ids.size
            if nb:
                # take-with-out writes the gathered rows straight into
                # the pool; mode="clip" skips the bounds check that
                # would force a temporary (ids come from flatnonzero of
                # the bitmap, so they are in range by construction).
                np.take(
                    tf[: full << _CHUNK_LOG].reshape(full, _CHUNK),
                    body_ids,
                    axis=0,
                    out=pool[used:used + nb],
                    mode="clip",
                )
            if tail_dirty:
                pool[used + k - 1, :tail_len] = tf[full << _CHUNK_LOG:]
            cmap = self._snap_map.copy()
            cmap[dirty_ids] = np.arange(used, used + k, dtype=np.int64)
            self._snap_map = cmap
            self._snap_used = used + k
            chunks_copied = k
        self._dirty[:] = False
        self._chain_seq += 1
        snap = self._snapshot_shell(batch_hasher, workspace)
        snap.table = None
        snap._pool = pool
        snap._chunk_map = cmap
        snap._table_flat = pool.ravel()
        snap._chain_token = self._chain_token
        snap._chain_seq = self._chain_seq
        stats = {
            "dirty_fraction": dirty_fraction,
            "chunks_copied": int(chunks_copied),
            "n_chunks": int(n_chunks),
            "rebase": bool(rebase),
        }
        return snap, stats

    # ------------------------------------------------------------------
    # Merging (distributed / sharded training)
    # ------------------------------------------------------------------
    def _check_mergeable(self, other: "ScaledSketchTable") -> None:
        """Two sketches are mergeable iff they share the random
        projection — same dimensions and the same hash family."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError(
                f"dimension mismatch: ({self.width}, {self.depth}) vs "
                f"({other.width}, {other.depth})"
            )
        if (other.family.seed, other.family.kind) != (
            self.family.seed,
            self.family.kind,
        ):
            raise ValueError(
                "hash-family mismatch: merged sketches must share "
                "seed and kind (the projection R must be identical)"
            )

    def merge(self, *others: "ScaledSketchTable") -> "ScaledSketchTable":
        """Sum-merge independently trained sketches into ``self``.

        The Count-Sketch projection is linear, so the sum of the workers'
        scaled tables *is* the sketch of the summed model
        ``z_merged = sum_i z_i`` — exactly, whatever each worker's update
        history was.  Each model's lazy L2 scale is reconciled by folding
        it into its raw table (one exactly-rounded elementwise product
        per model) before the tables are summed in worker order; the
        merged scaled table is therefore *bit-for-bit* equal to
        ``sum_i(scale_i * table_i)`` evaluated left to right — the
        executable contract of ``tests/test_merge.py``.

        Step counters accumulate (``t`` counts total examples absorbed)
        and :attr:`merged_from` records how many single-stream models the
        result folds together.  Returns ``self``.

        Note the *semantics*: merged weight estimates recover the sum of
        the workers' models (k workers each approximating w* yield
        estimates near ``k * w*``); magnitude rankings — top-K recovery —
        are scale-invariant, and callers needing w*-scale estimates can
        divide by :attr:`merged_from`.  The uncompressed LR baseline
        mean-merges instead (see
        :meth:`repro.learning.ogd.UncompressedClassifier.merge`).
        """
        if not others:
            return self
        for other in others:
            self._check_mergeable(other)
        if self._scale != 1.0:
            # sum_merge folds the target's lazy scale into its raw
            # table; account it so the virtual log-scale stays monotone.
            self._fold_log += math.log(self._scale)
        sum_merge_scaled_tables(self, others)
        self._mark_dirty_all()
        return self

    def _repromote(self, heap, candidates, estimator) -> int:
        """Refill ``heap`` with the heaviest of ``candidates`` by
        re-estimating them against the current (merged) table.

        The shared tail of the WM and AWM merges: candidates are
        processed in sorted order (determinism), ``estimator`` maps an
        int64 id array to weight estimates, and the heap's own
        admission rule keeps the top ``capacity``.  Returns the number
        of entries admitted.
        """
        if not candidates:
            return 0
        ordered = np.array(sorted(candidates), dtype=np.int64)
        estimates = estimator(ordered)
        # push_many replays sequential pushes with a vectorized
        # admission pre-screen (the candidates are distinct non-members,
        # so the screen is decision-exact) and reports how many landed.
        return heap.push_many(ordered, estimates)

    # ------------------------------------------------------------------
    # Sketch-space projection helpers
    # ------------------------------------------------------------------
    def _rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(buckets, signs), each of shape (depth, nnz)."""
        return self.family.all_rows(indices)

    def _batch_rows(
        self, batch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(buckets, signs, sign*value products, flat buckets) for a
        whole batch, every array living in the model's workspace.

        The zero-allocation front-end of the fused paths: hashes land
        in workspace arenas through :meth:`BatchHasher.rows_into`, and
        the products / row-offset adds write into reused buffers.
        Values are bit-identical to the fresh-array chain (gathers and
        elementwise ufuncs are buffer-independent).
        """
        ws = self._workspace()
        depth = self.depth
        nnz = batch.indices.size
        buckets = ws.array("b_buckets", (depth, nnz), np.int64)
        signs = ws.array("b_signs", (depth, nnz))
        self._batch_hasher.rows_into(batch.indices, buckets, signs)
        sign_values = ws.array("b_sv", (depth, nnz))
        np.multiply(signs, batch.values, out=sign_values)
        flat = ws.array("b_flat", (depth, nnz), np.int64)
        np.add(buckets, self._row_offsets, out=flat)
        return buckets, signs, sign_values, flat

    def _check_decay_window(self, etas: np.ndarray) -> None:
        """Pre-validate a whole window of decays for the fused kernel.

        The per-example spec raises mid-batch at the first offending
        example (with earlier updates already applied); the fused
        kernel cannot raise mid-stream, so the window is validated up
        front — same trigger condition (``1 - eta * lambda <= 0`` iff
        ``eta * lambda >= 1``), same message, but no partial state.
        """
        lam = self.lambda_
        if lam <= 0.0 or etas.size == 0:
            return
        if float(etas.max()) * lam < 1.0:
            return
        first = int(np.argmax(etas * lam >= 1.0))
        eta = float(etas[first])
        raise ValueError(
            f"eta * lambda = {eta * lam} >= 1; decrease eta0"
        )

    # ------------------------------------------------------------------
    # Serving-path queries
    # ------------------------------------------------------------------
    def query_many(self, indices: np.ndarray) -> np.ndarray:
        """Sketch-recovery estimates for many features, serving-path.

        Bit-identical to the per-feature recovery behind
        ``estimate_weights`` for sketch-resident features, but built
        for query rate: hashes go through the model's cross-batch cache
        (repeated queries skip hashing entirely), and the gather +
        median run as one ``fused_query`` kernel call over workspace
        buffers.  Subclasses holding exact weights (the AWM active set)
        override this to answer members exactly.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        n = indices.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        ws = self._workspace()
        depth = self.depth
        buckets = ws.array("q_buckets", (depth, n), np.int64)
        signs = ws.array("q_signs", (depth, n))
        self._batch_hasher.rows_into(indices, buckets, signs)
        flat = ws.array("q_flat", (depth, n), np.int64)
        np.add(buckets, self._row_offsets, out=flat)
        gathered = ws.array("q_gathered", (n, depth))
        est = np.empty(n, dtype=np.float64)
        if self.depth == 1:
            factor = self._scale
        else:
            factor = self._sqrt_s * self._scale
        numpy_backend.fused_query(
            self._table_flat, self._translate_flat(flat), signs.T,
            factor, gathered, est,
        )
        if self.l1 > 0.0:
            est = np.sign(est) * np.maximum(np.abs(est) - self.l1, 0.0)
        return est

    def _margin_from_rows(
        self, buckets: np.ndarray, signs: np.ndarray, values: np.ndarray
    ) -> float:
        """z^T R x given precomputed per-row buckets and signs."""
        return self._margin_from_products(buckets, signs * values)

    def _margin_from_products(
        self, buckets: np.ndarray, sign_values: np.ndarray
    ) -> float:
        """Margin from precomputed sign*value products.

        Bit-identical to :meth:`_margin_from_rows` — the elementwise
        ``signs * values`` products are the same floats whether computed
        per example or once per batch, and the margin kernel's sum is
        *exactly* rounded (``math.fsum`` semantics), so the reduction is
        independent of summation order and buffer alignment (NumPy's
        SIMD ``.sum()`` is not).
        """
        # scratch=False: reached from the serial-scalar serving path,
        # which runs concurrently with the coalescer's batched reads on
        # the same snapshot and must not touch the shared workspace.
        return numpy_backend.margin(
            self._table_flat,
            self._translate_flat(buckets + self._row_offsets, scratch=False),
            sign_values, self._scale, self._sqrt_s,
        )

    def _scatter_add(
        self,
        buckets: np.ndarray,
        deltas: np.ndarray,
        flat_buckets: np.ndarray | None = None,
    ) -> None:
        """Accumulate ``deltas`` into the raw table at ``buckets``.

        One scatter over the whole (depth, nnz) block; duplicate
        buckets within a row accumulate in element order, the same
        order as a per-row loop, so this is layout-deterministic.
        """
        if flat_buckets is None:
            flat_buckets = buckets + self._row_offsets
        self._mark_dirty_flat(flat_buckets)
        numpy_backend.scatter_add(self._table_flat, flat_buckets, deltas)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _estimate_from_rows(
        self,
        buckets: np.ndarray,
        signs: np.ndarray,
        flat_buckets: np.ndarray | None = None,
        gathered_t: np.ndarray | None = None,
    ) -> np.ndarray:
        """Count-Sketch recovery: median over rows of sqrt(s)*alpha*sigma*z.

        The median kernel works on the *transposed* ``(nnz, depth)``
        table gather — each feature's row values adjacent, so the
        per-feature sort runs over contiguous memory and selects the
        exact same values as ``np.median`` without its per-call
        dispatch overhead.

        ``gathered_t`` may carry that gather
        (``table_flat.take(flat_buckets.T)``) when the caller already
        pulled those cells (the AWM kernel shares one gather between
        the margin and the tail queries); it is read, never mutated.
        """
        if gathered_t is None:
            if flat_buckets is None:
                flat_buckets = buckets + self._row_offsets
            # scratch=False: top_weights / scalar estimates land here
            # from both the serial thread and the coalescer thread on a
            # shared snapshot — no workspace scratch allowed.
            gathered_t = numpy_backend.gather_rows_t(
                self._table_flat,
                self._translate_flat(flat_buckets, scratch=False),
            )
        if self.depth == 1:
            factor = self._scale
        else:
            factor = self._sqrt_s * self._scale
        est = numpy_backend.median_estimate(gathered_t, signs.T, factor)
        if self.l1 > 0.0:
            est = np.sign(est) * np.maximum(np.abs(est) - self.l1, 0.0)
        return est

    def _estimate_bound(self, buckets: np.ndarray) -> float:
        """Cheap upper bound on ``max_i |estimate_i|`` for the given rows.

        The median over rows is bounded in magnitude by the largest row
        magnitude, so ``sqrt(s) * alpha * max_j |z_j|`` dominates every
        recovered estimate — useful to skip recovery entirely when no
        estimate could beat a heap-admission threshold.  Multiplication
        is monotone, so the bound is exact at the boundary for depth 1
        and conservative for depth > 1.
        """
        if buckets.size == 0:
            return 0.0
        hi = numpy_backend.estimate_bound(
            self._table_flat,
            self._translate_flat(buckets + self._row_offsets, scratch=False),
        )
        if self.depth == 1:
            bound = self._scale * hi
        else:
            bound = self._sqrt_s * self._scale * hi
        if self.l1 > 0.0:
            bound = max(bound - self.l1, 0.0)
        return bound

    def _sketch_estimate(self, indices: np.ndarray) -> np.ndarray:
        """Median-of-rows estimates for raw feature indices."""
        if indices.size == 0:
            return np.zeros(0, dtype=np.float64)
        buckets, signs = self._rows(indices)
        return self._estimate_from_rows(buckets, signs)

    # ------------------------------------------------------------------
    # Lazy L2 decay
    # ------------------------------------------------------------------
    def _decay_factor(self, eta: float) -> float:
        """The per-step multiplicative decay ``1 - eta * lambda``.

        Raises
        ------
        ValueError
            If the step would zero or flip the model
            (``eta * lambda >= 1``).
        """
        decay = 1.0 - eta * self.lambda_
        if decay <= 0.0:
            raise ValueError(
                f"eta * lambda = {eta * self.lambda_} >= 1; decrease eta0"
            )
        return decay

    def _decay_scale(self, decay: float) -> None:
        """Apply one decay step to the global scale, renormalizing the
        raw table when the scale underflows toward zero.

        A plain decay moves only the scale — the raw table bits stay
        put, so no chunk becomes dirty; the renorm fold rewrites every
        cell and dirties the whole bitmap.
        """
        self._scale *= decay
        if self._scale < _RENORM_THRESHOLD:
            self._fold_log += math.log(self._scale)
            self.table *= self._scale
            self._scale = 1.0
            self._mark_dirty_all()

    # ------------------------------------------------------------------
    # Common introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total sketch cells k = width * depth."""
        return self.width * self.depth

    def sketch_state(self) -> np.ndarray:
        """The current (scaled) sketch vector z as a flat array."""
        return self._scale * self._dense_table_flat()
