"""Parallel training subsystem: sharded workers over mergeable sketches.

The WM-Sketch's core data structure is a *linear* Count-Sketch
projection, which makes independently trained sketches mergeable by
addition — the paper's key enabler for distributed stream processing.
This package turns that observation into an executable subsystem:

* :func:`~repro.data.partition.partition_stream` splits one logical
  stream into deterministic, disjoint, exhaustive shards;
* :mod:`~repro.parallel.worker` trains one (spawn-safe, picklable)
  model per shard through the batched ``fit_batch`` kernels;
* ``merge()`` on every model class combines the workers' results —
  summed Count-Sketch tables with lazy-scale reconciliation for
  WM/AWM/feature hashing (exact, by linearity), mean-merged dense
  weights for the uncompressed LR baseline (approximate, parameter
  averaging);
* :class:`~repro.parallel.harness.ParallelHarness` orchestrates
  partition -> pool -> merge behind one call;
* :mod:`~repro.parallel.ps` upgrades the one-shot merge to a live
  stale-synchronous parameter-server loop — workers push O(dirty)
  chunk deltas (:mod:`~repro.parallel.delta`) and pull merged state
  under a bounded-staleness barrier, with serving snapshots and
  telemetry wired through.

Merge-semantics contract (tested in ``tests/test_merge.py`` and
``tests/test_parallel.py``): the merged sketch *table* is exactly the
sum of the workers' scaled tables; recovered top-K weights are
approximate relative to single-stream training, with overlap verified
on the Fig. 7 synthetic workload.
"""

from repro.parallel.delta import (
    PullDelta,
    PushDelta,
    SyncPoint,
    apply_pull,
    apply_push,
    encode_pull,
    encode_push,
    full_table_bytes,
)
from repro.parallel.harness import ParallelHarness, train_sharded
from repro.parallel.ps import ParameterServer, PSHarness, PSWorker
from repro.parallel.worker import pack_shard, train_shard

__all__ = [
    "ParallelHarness",
    "ParameterServer",
    "PSHarness",
    "PSWorker",
    "PullDelta",
    "PushDelta",
    "SyncPoint",
    "apply_pull",
    "apply_push",
    "encode_pull",
    "encode_push",
    "full_table_bytes",
    "train_sharded",
    "pack_shard",
    "train_shard",
]
