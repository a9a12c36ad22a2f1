"""The feature-hashing ("hashing trick") baseline.

Shi et al. 2009 / Weinberger et al. 2009: train on features hashed into a
fixed-size table with random signs (the signed variant makes the inner
product an unbiased estimate of the original).  This is the ``Hash`` line
in Figs. 3-7.

Feature hashing stores *no* feature identifiers, so its entire budget
goes to weights — but colliding features can never be disambiguated,
which is why its recovery error is poor (Fig. 3) even though its
classification accuracy is strong.  Weight estimates are produced by
querying the single table at the feature's hashed position (depth-1
Count-Sketch-style query).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.hashing.batch import BatchHasher
from repro.hashing.family import HashFamily
from repro.kernels.numpy_backend import margin, scatter_add
from repro.learning.base import (
    CELL_BYTES,
    StreamingClassifier,
    sum_merge_scaled_tables,
)
from repro.learning.losses import LogisticLoss, Loss
from repro.learning.schedules import Schedule, as_schedule

_RENORM_THRESHOLD = 1e-150


class FeatureHashing(StreamingClassifier):
    """Signed feature hashing into a single weight table.

    Parameters
    ----------
    width:
        Hash-table size in weights (all of the memory budget).
    loss, lambda_, learning_rate:
        As for every learner (Eq. 1 objective, lazy L2 decay).
    seed:
        Hash-function seed.
    signed:
        Use random sign flips (the unbiased "hash kernel"); disable for
        the plain unsigned variant (ablation).
    backend:
        Kernel-backend override for the compiled fused update and
        predict loops (``None`` = follow the process default; see
        :mod:`repro.kernels`), resolved once into :attr:`kernels`.
        Bit-identical across backends.
    """

    #: Number of independently trained models folded in via :meth:`merge`.
    merged_from: int = 1

    def __init__(
        self,
        width: int,
        loss: Loss | None = None,
        lambda_: float = 1e-6,
        learning_rate: Schedule | float = 0.1,
        seed: int = 0,
        signed: bool = True,
        backend: str | None = None,
    ):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.loss = loss if loss is not None else LogisticLoss()
        self.lambda_ = lambda_
        self.schedule = as_schedule(learning_rate)
        self.signed = signed
        self.backend = backend
        self.kernels = kernels.get_backend(backend, strict=False)
        self.family = HashFamily(width, depth=1, seed=seed)
        self._batch_hasher = BatchHasher(self.family)
        self.table = np.zeros(width, dtype=np.float64)
        self._scale = 1.0
        self._ws: kernels.KernelWorkspace | None = None
        self.t = 0

    # ------------------------------------------------------------------
    # Pickling: the resolved backend and the workspace are per-process —
    # dropped on save, rebuilt on load.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in ("kernels", "_ws"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.kernels = kernels.get_backend(self.backend, strict=False)
        self._ws = None

    def snapshot(
        self,
        batch_hasher: "BatchHasher | None" = None,
        workspace: "kernels.KernelWorkspace | None" = None,
    ) -> "FeatureHashing":
        """A consistent read-only copy for concurrent serving — the
        lazy scale folded into the copied table at publish time (same
        contract as :meth:`repro.core.sketch_table.ScaledSketchTable.
        snapshot`, which documents the cache-threading parameters)."""
        snap = object.__new__(type(self))
        state = self.__dict__.copy()
        for key in ("table", "_scale", "_batch_hasher", "_ws"):
            state.pop(key, None)
        snap.__dict__.update(state)
        snap.table = np.multiply(self.table, self._scale)
        snap._scale = 1.0
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
        return snap

    def _workspace(self) -> "kernels.KernelWorkspace":
        ws = self._ws
        if ws is None:
            ws = self._ws = kernels.KernelWorkspace()
        return ws

    # ------------------------------------------------------------------
    def _hashed(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        buckets = self.family.buckets(indices, 0)
        if self.signed:
            signs = self.family.signs(indices, 0)
        else:
            signs = np.ones(buckets.shape, dtype=np.float64)
        return buckets, signs

    def predict_margin(self, x: SparseExample) -> float:
        buckets, signs = self._hashed(x.indices)
        # The margin helper's exactly-rounded sum (rather than BLAS dot
        # / SIMD sum) keeps the reduction independent of buffer layout,
        # so per-example and batched (CSR-view) driving stay
        # bit-identical.  The depth-1 table needs no sqrt(s) factor.
        return margin(self.table, buckets, signs * x.values, self._scale, 1.0)

    def _decay(self, eta: float) -> None:
        """One lazy L2 decay step with the same validity check the
        sketches apply (``eta * lambda >= 1`` would flip or zero the
        model — historically this corrupted silently; now it raises on
        every path, so batched and per-example stay equivalent in the
        pathological regime too)."""
        decay = 1.0 - eta * self.lambda_
        if decay <= 0.0:
            raise ValueError(
                f"eta * lambda = {eta * self.lambda_} >= 1; decrease eta0"
            )
        self._scale *= decay
        if self._scale < _RENORM_THRESHOLD:
            self.table *= self._scale
            self._scale = 1.0

    def _check_decay_window(self, etas: np.ndarray) -> None:
        """Whole-window pre-validation for the fused kernel (same
        trigger condition as :meth:`_decay`, raised up front)."""
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

    def update(self, x: SparseExample) -> None:
        y = x.label
        buckets, signs = self._hashed(x.indices)
        sign_values = signs * x.values
        tau = margin(self.table, buckets, sign_values, self._scale, 1.0)
        g = self.loss.dloss(y * tau)
        eta = self.schedule(self.t)
        if self.lambda_ > 0.0:
            self._decay(eta)
        scatter_add(
            self.table, buckets, -(eta * y * g / self._scale) * sign_values
        )
        self.t += 1

    def predict_batch(self, batch: SparseBatch) -> np.ndarray:
        """Batched margins via ``fused_predict`` — one cached hash and
        one kernel call, bit-identical to per-example
        :meth:`predict_margin` (exactly-rounded sums)."""
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        ws = self._workspace()
        nnz = batch.indices.size
        buckets = ws.array("p_buckets", (1, nnz), np.int64)
        signs = ws.array("p_signs", (1, nnz))
        self._batch_hasher.rows_into(batch.indices, buckets, signs)
        if self.signed:
            sv = ws.array("p_sv", (1, nnz))
            np.multiply(signs, batch.values, out=sv)
        else:
            sv = batch.values.reshape(1, -1)
        out = np.empty(n, dtype=np.float64)
        self.kernels.fused_predict(
            self.table, buckets, sv, batch.indptr, self._scale, 1.0, out,
        )
        return out

    def query_many(self, indices: np.ndarray) -> np.ndarray:
        """Serving-path weight estimates with cached hashing —
        bit-identical to :meth:`estimate_weights`."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        n = indices.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        ws = self._workspace()
        buckets = ws.array("q_buckets", (1, n), np.int64)
        signs = ws.array("q_signs", (1, n))
        self._batch_hasher.rows_into(indices, buckets, signs)
        gathered = ws.array("q_gathered", n)
        np.take(self.table, buckets[0], out=gathered)
        out = np.empty(n, dtype=np.float64)
        if self.signed:
            # estimate_weights computes (scale * signs) * table[buckets].
            scaled = ws.array("q_scaled", n)
            np.multiply(signs[0], self._scale, out=scaled)
            np.multiply(scaled, gathered, out=out)
        else:
            # Unsigned: signs are all ones, so (scale * 1) * gathered.
            np.multiply(gathered, self._scale, out=out)
        return out

    def fit_batch(self, batch: SparseBatch) -> np.ndarray:
        """Mini-batch updates with one (deduplicated, cached) hash and
        one fused kernel call per batch.

        The whole per-example chain — exactly-rounded margin, loss
        derivative, lazy decay, gradient scatter — runs inside a single
        ``fused_update`` over workspace buffers; state is bit-identical
        to per-example :meth:`update` calls.  Returns the pre-update
        margins.  Losses without a kernel id run the per-example spec,
        :meth:`StreamingClassifier.fit_batch
        <repro.learning.base.StreamingClassifier.fit_batch>`.
        """
        n = len(batch)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if self.loss.kernel_id is None:
            return super().fit_batch(batch)
        ws = self._workspace()
        nnz = batch.indices.size
        buckets = ws.array("b_buckets", (1, nnz), np.int64)
        signs = ws.array("b_signs", (1, nnz))
        self._batch_hasher.rows_into(batch.indices, buckets, signs)
        if self.signed:
            sv = ws.array("b_sv", (1, nnz))
            np.multiply(signs, batch.values, out=sv)
        else:
            sv = batch.values.reshape(1, -1)
        etas = ws.array("etas", n)
        etas[:] = self.schedule.many(self.t, n)
        self._check_decay_window(etas)
        margins = np.empty(n, dtype=np.float64)
        # Depth-1 table: flat buckets are the buckets themselves, and
        # the margin normalization is sqrt(s) = 1.
        self._scale = self.kernels.fused_update(
            self.table, buckets, sv, batch.indptr, batch.labels, etas,
            self.lambda_, self._scale, 1.0,
            self.loss.kernel_id, self.loss.kernel_param,
            margins, kernels.EMPTY_GATHER, kernels.EMPTY_SCALES,
            kernels.EMPTY_TOUCHED,
        )
        self.t += n
        return margins

    # ------------------------------------------------------------------
    # Merging (distributed / sharded training)
    # ------------------------------------------------------------------
    def merge(self, *others: "FeatureHashing") -> "FeatureHashing":
        """Sum-merge sharded feature-hashing models.

        The hashed weight table is linear in the updates the same way a
        Count-Sketch row is, so summing the workers' scaled tables gives
        exactly the table of the summed model; each lazy L2 scale is
        folded into its raw table before the sum, making the merged
        scaled table bit-for-bit ``sum_i(scale_i * table_i)``.  As with
        the sketches, estimates recover the *sum* of the workers' models
        (divide by :attr:`merged_from` for the mean).
        """
        if not others:
            return self
        for other in others:
            if not isinstance(other, FeatureHashing):
                raise TypeError(
                    f"cannot merge {type(other).__name__} into "
                    f"FeatureHashing"
                )
            if other.width != self.width:
                raise ValueError(
                    f"width mismatch: {self.width} vs {other.width}"
                )
            if (other.family.seed, other.signed) != (
                self.family.seed,
                self.signed,
            ):
                raise ValueError(
                    "merged models must share hash seed and signedness"
                )
        sum_merge_scaled_tables(self, others)
        return self

    # ------------------------------------------------------------------
    def estimate_weights(self, indices: np.ndarray) -> np.ndarray:
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        buckets, signs = self._hashed(indices)
        return self._scale * signs * self.table[buckets]

    def top_weights(self, k: int) -> list[tuple[int, float]]:
        """Feature hashing cannot enumerate features — only buckets.

        Raises
        ------
        NotImplementedError
            Callers that evaluate recovery for this baseline must supply
            a candidate set and use :meth:`top_weights_from_candidates`
            (the paper's recovery evaluation queries candidate features
            post hoc; identifiers are never stored by the method itself).
        """
        raise NotImplementedError(
            "feature hashing stores no identifiers; use "
            "top_weights_from_candidates(candidates, k)"
        )

    def top_weights_from_candidates(
        self, candidates: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """Top-k estimated weights among an externally-supplied candidate
        feature set (used by the recovery-error harness)."""
        candidates = np.atleast_1d(np.asarray(candidates, dtype=np.int64))
        est = self.estimate_weights(candidates)
        if k < candidates.size:
            part = np.argpartition(-np.abs(est), k)[:k]
        else:
            part = np.arange(candidates.size)
        order = part[np.argsort(-np.abs(est[part]))]
        return [(int(candidates[i]), float(est[i])) for i in order[:k]]

    @property
    def memory_cost_bytes(self) -> int:
        return CELL_BYTES * self.width
