"""Partition -> worker pool -> merge, behind one call.

:class:`ParallelHarness` owns the orchestration of sharded training:
it deterministically partitions a stream across N workers
(:func:`~repro.data.partition.partition_stream`), trains one model per
shard in a spawn-safe ``multiprocessing`` pool
(:func:`~repro.parallel.worker.train_shard`), and merges the results
through the models' own ``merge()`` semantics — exact summation for
sketch tables, mean for the uncompressed baseline.

The pool is created lazily and kept warm across ``fit`` calls, so a
steady-state deployment (or the scaling benchmark) pays interpreter
startup once, not per pass; use the harness as a context manager (or
call :meth:`close`) to release the workers.

``n_workers=1`` short-circuits the pool entirely and trains in-process
— same partitioner, same worker function, no multiprocessing — which
keeps the single-worker configuration exactly comparable in benchmarks
and usable on machines where spawning is restricted.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Iterable, Sequence

from repro.data.batch import SparseBatch
from repro.data.partition import partition_batch, partition_stream
from repro.data.sparse import SparseExample
from repro.learning.base import StreamingClassifier
from repro.parallel.worker import WorkerResult, pack_shard, train_shard

__all__ = ["ParallelHarness", "train_sharded"]


class ParallelHarness:
    """Sharded training orchestrator for any mergeable model class.

    Parameters
    ----------
    factory:
        Picklable constructor of the per-worker model — typically the
        model class itself (``WMSketch``, ``AWMSketch``,
        ``FeatureHashing``, ``UncompressedClassifier``) or a
        module-level function.  Every worker builds its model from the
        same (factory, kwargs), so all shard models share the hash
        family and are mergeable by construction.
    factory_kwargs:
        Keyword arguments passed to ``factory`` in each worker.
    n_workers:
        Number of shards / worker processes (>= 1).
    batch_size:
        Mini-batch size for the in-worker batched engine.
    seed:
        Partitioner seed (determines the shard assignment only).

    Workers are started with ``spawn``: each is a fresh interpreter
    that inherits nothing but the environment (``REPRO_KERNEL_BACKEND``
    included) and the pickled payload.
    """

    def __init__(
        self,
        factory: Callable[..., StreamingClassifier],
        factory_kwargs: dict[str, Any] | None = None,
        n_workers: int = 4,
        batch_size: int = 256,
        seed: int = 0,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.factory = factory
        self.factory_kwargs = dict(factory_kwargs or {})
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.seed = seed
        self._pool = None
        #: Per-worker results of the most recent :meth:`fit` call
        #: (shard sizes and in-worker train seconds, for diagnostics
        #: and the scaling benchmark's critical-path accounting).
        self.last_results: list[WorkerResult] = []

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            ctx = multiprocessing.get_context("spawn")
            self._pool = ctx.Pool(self.n_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op if never started)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def fit(
        self, stream: "Iterable[SparseExample] | SparseBatch"
    ) -> StreamingClassifier:
        """Partition ``stream``, train the shards, return the merged model.

        Every example is consumed by exactly one worker; the merged
        model has ``t`` equal to the stream length and ``merged_from``
        equal to ``n_workers``.  A :class:`SparseBatch` input is
        partitioned entirely in CSR land (no per-example objects) —
        the fast path for the 1-sparse application encodings.
        """
        if isinstance(stream, SparseBatch):
            shards = partition_batch(
                stream, self.n_workers, seed=self.seed
            )
        else:
            shards = partition_stream(
                stream, self.n_workers, seed=self.seed
            )
        payloads = [
            pack_shard(self.factory, self.factory_kwargs, shard,
                       self.batch_size)
            for shard in shards
        ]
        if self.n_workers == 1:
            results = [train_shard(payloads[0])]
        else:
            results = self._ensure_pool().map(train_shard, payloads)
        models = [r.model for r in results]
        merged = models[0].merge(*models[1:])
        for result in results:
            # merge() consumed the donors; keep only the diagnostics so
            # a long-lived warm harness does not pin k dead tables.
            result.model = None
        self.last_results = results
        return merged

    def fit_into(
        self,
        stream: "Iterable[SparseExample] | SparseBatch",
        existing: StreamingClassifier | None,
    ) -> StreamingClassifier:
        """Sharded :meth:`fit` that absorbs an already-trained model.

        The shared tail of the apps' ``consume_parallel``: if
        ``existing`` carries training state (``t > 0``) it is merged
        into the fresh sharded result (so repeated sharded consumption
        accumulates); untrained or absent models are simply replaced.
        ``existing`` must be mergeable with the factory's models — same
        class and hash family — or ``merge`` raises.

        Merging *consumes* ``existing`` as a donor (an AWM's active set
        is folded back into its sketch, for example): callers must
        treat the returned model as the sole survivor and discard
        ``existing``, as the apps do by overwriting their classifier.
        """
        merged = self.fit(stream)
        if existing is not None and getattr(existing, "t", 0) > 0:
            merged.merge(existing)
        return merged


def train_sharded(
    factory: Callable[..., StreamingClassifier],
    examples: Sequence[SparseExample],
    n_workers: int = 4,
    factory_kwargs: dict[str, Any] | None = None,
    batch_size: int = 256,
    seed: int = 0,
) -> StreamingClassifier:
    """One-shot convenience: sharded training without keeping a pool."""
    with ParallelHarness(
        factory,
        factory_kwargs=factory_kwargs,
        n_workers=n_workers,
        batch_size=batch_size,
        seed=seed,
    ) as harness:
        return harness.fit(examples)
