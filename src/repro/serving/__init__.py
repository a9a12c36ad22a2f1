"""Serving: a live model behind a micro-batching request coalescer.

The missing piece between the batched kernels and "heavy traffic from
millions of users" (ROADMAP): PR 5 made ``predict_batch`` /
``query_many`` bit-identical to the scalar paths and 5-130x faster,
but only for callers that *arrive* holding a batch.  This package
turns concurrent single-request traffic into those batches:

* :class:`~repro.serving.server.SketchServer` owns a live WM / AWM /
  feature-hashing model, trains it from a stream on a background
  thread, and serves ``predict`` / ``query`` / ``top_k``;
* :class:`~repro.serving.coalescer.MicroBatchCoalescer` accumulates
  concurrent in-flight requests in per-operation queues and flushes
  each queue as **one** fused batched kernel call when a latency
  budget or a max-batch bound is hit;
* :class:`~repro.serving.snapshot.SnapshotManager` gives readers
  consistent state under live training: the trainer publishes
  scale-folded copy-on-publish snapshots
  (:meth:`~repro.core.sketch_table.ScaledSketchTable.snapshot`), and
  every read is answered entirely from one published snapshot —
  never from half-applied updates;
* :mod:`~repro.serving.checker` validates concurrent histories against
  a sequential reference re-execution (the black-box
  snapshot-consistency discipline);
* :mod:`~repro.serving.loadgen` generates open- and closed-loop
  Zipf-keyed workloads for ``benchmarks/bench_serving.py`` and the
  ``repro loadgen`` CLI.

Everything is stdlib threads + NumPy — no extra dependencies.
"""

from repro.serving.checker import ConsistencyError, check_snapshot_consistency
from repro.serving.client import ReadRecord, ServingClient
from repro.serving.coalescer import (
    DeadlineExceeded,
    InvalidRequest,
    MicroBatchCoalescer,
    Overload,
)
from repro.serving.server import SketchServer, scalar_answer
from repro.serving.snapshot import Snapshot, SnapshotManager

__all__ = [
    "ConsistencyError",
    "DeadlineExceeded",
    "InvalidRequest",
    "MicroBatchCoalescer",
    "Overload",
    "ReadRecord",
    "ServingClient",
    "SketchServer",
    "Snapshot",
    "SnapshotManager",
    "check_snapshot_consistency",
    "scalar_answer",
]
