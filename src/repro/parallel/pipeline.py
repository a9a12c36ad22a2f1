"""Double-buffered pipelined ingestion: hash batch t+1 while t trains.

Hashing is a pure function of the batch's feature ids, so it can be
lifted off the training thread entirely: a producer thread chunks the
stream into CSR batches and evaluates each batch's (buckets, signs)
through its *own* :class:`~repro.hashing.batch.BatchHasher` over the
classifier's hash family — the pure seam the batched engine exposes —
and hands (batch, rows) pairs through a bounded queue to the training
loop, which feeds the precomputed rows straight into ``fit_batch``.

The queue is bounded (default depth 1: classic double buffering — one
batch in flight on each side), so memory stays O(batch) and the
producer can run at most one batch ahead.  Because the prefetch hasher
is a separate instance, the classifier's internal cache is never
touched concurrently; purity of the hash functions guarantees the
precomputed rows are bit-identical to what ``fit_batch`` would have
computed itself, so the pipelined pass reproduces the sequential
engine's state exactly (tested in ``tests/test_pipeline.py``).

The overlap buys no *wall-clock* on either kernel backend
(:mod:`repro.kernels`).  Under the NumPy reference, hashing and
training both hold the GIL through their Python-level dispatch, so
producer and consumer timeshare one core.  The compiled ``c`` backend
releases the GIL inside ``fused_update``, but that call is too short
to hide hashing behind: ``benchmarks/bench_pipeline_overlap.py``
measured an overlap ratio of 0.93x under ``c`` and 0.86-0.92x under
numpy (3000 wide examples, 2-core x86-64 Linux host), i.e. the
pipelined pass runs slightly slower than hashing and training back to
back.  Results are bit-identical either way.  The prefetch hasher
follows the classifier's own ``backend`` override automatically (it is
built over ``classifier.family``).

Classifiers whose ``fit_batch`` takes no ``rows`` argument (no hashing
to prefetch — e.g. the uncompressed baseline) still pipeline batch
*construction*; they just receive the batch alone.
"""

from __future__ import annotations

import inspect
import queue
import threading
from typing import Iterable

from repro.data.batch import iter_batches
from repro.data.sparse import SparseExample
from repro.hashing.batch import BatchHasher
from repro.learning.base import OnlineErrorTracker, StreamingClassifier

__all__ = ["fit_stream_pipelined"]

#: Sentinel closing the queue (None is not used: a failed producer puts
#: an exception wrapper instead, which the consumer re-raises).
_DONE = object()


class _ProducerError:
    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


def _accepts_rows(classifier: StreamingClassifier) -> bool:
    try:
        sig = inspect.signature(classifier.fit_batch)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "rows" in sig.parameters


def fit_stream_pipelined(
    classifier: StreamingClassifier,
    stream: Iterable[SparseExample],
    batch_size: int = 256,
    tracker: OnlineErrorTracker | None = None,
    queue_depth: int = 1,
) -> OnlineErrorTracker:
    """Batched predict-then-update pass with prefetched hashing.

    The pipelined analogue of
    :meth:`~repro.learning.base.StreamingClassifier.fit_stream`: same
    arguments, same progressive-validation tracker, same final state —
    only the wall-clock differs, because batch construction and hashing
    of batch t+1 overlap the training of batch t.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    if tracker is None:
        tracker = OnlineErrorTracker()

    with_rows = _accepts_rows(classifier) and hasattr(classifier, "family")
    hasher = BatchHasher(classifier.family) if with_rows else None
    # A classifier with a scalar fast path (the AWM-Sketch) hashes
    # 1-sparse examples itself and ignores prefetched rows, so hashing
    # an all-1-sparse batch up front would be pure waste competing for
    # the GIL — mirror fit_batch's own lazy-hashing rule.
    scalar_fast = bool(getattr(classifier, "scalar_fast_path", False))
    buffer: queue.Queue = queue.Queue(maxsize=queue_depth)
    cancelled = threading.Event()

    def _put(item) -> bool:
        """Blocking put that aborts if the consumer has bailed out."""
        while not cancelled.is_set():
            try:
                buffer.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def producer() -> None:
        try:
            for batch in iter_batches(stream, batch_size):
                prehash = hasher is not None and not (
                    scalar_fast and batch.nnz == len(batch)
                )
                rows = hasher.rows(batch.indices) if prehash else None
                if not _put((batch, rows)):
                    return
        except BaseException as exc:  # noqa: BLE001 - relayed to consumer
            _put(_ProducerError(exc))
        else:
            _put(_DONE)

    thread = threading.Thread(
        target=producer, name="repro-pipeline-prefetch", daemon=True
    )
    thread.start()
    try:
        while True:
            item = buffer.get()
            if item is _DONE:
                break
            if isinstance(item, _ProducerError):
                raise item.exc
            batch, rows = item
            if rows is not None:
                margins = classifier.fit_batch(batch, rows=rows)
            else:
                margins = classifier.fit_batch(batch)
            for margin, label in zip(
                margins.tolist(), batch.labels.tolist()
            ):
                tracker.record(1 if margin >= 0.0 else -1, label)
    finally:
        cancelled.set()
        thread.join(timeout=5.0)
    return tracker
