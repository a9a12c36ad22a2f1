"""Deterministic stream partitioning for sharded training.

The parallel training subsystem (:mod:`repro.parallel`) splits one
logical stream across N workers.  The partitioner must be

* **disjoint and exhaustive** — every example lands in exactly one
  shard, so the union of shard streams is the original stream;
* **deterministic** — the same (stream, n_workers, seed) triple always
  produces the same shards, which is what makes merged-model runs
  reproducible and the merge-equivalence spec executable;
* **order-preserving within a shard** — each worker sees its examples
  in original stream order, so per-worker training is the ordinary
  sequential algorithm.

Assignment is an i.i.d. uniform draw per position from a PCG64 stream
keyed by ``(seed, n_workers)`` — statistically balanced shards
(n/k +- sqrt) with no dependence on example *content*, mirroring how a
stream router would spray traffic.  A round-robin mode is provided for
callers that need exactly-balanced shard sizes.
"""

from __future__ import annotations

from typing import Iterable, Literal

import numpy as np

from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample

__all__ = ["shard_assignments", "partition_stream", "partition_batch"]


def shard_assignments(
    n: int,
    n_workers: int,
    seed: int = 0,
    mode: Literal["uniform", "round_robin"] = "uniform",
) -> np.ndarray:
    """Shard id in ``[0, n_workers)`` for each of ``n`` stream positions.

    Deterministic in (n, n_workers, seed, mode); positions are assigned
    independently of example content.  ``"uniform"`` draws i.i.d.
    uniform shard ids (balanced in expectation); ``"round_robin"``
    cycles ``0..n_workers-1`` starting at a seed-derived offset
    (balanced exactly, sizes differ by at most 1).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if mode == "uniform":
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, n_workers, 0x5A)))
        )
        return rng.integers(0, n_workers, size=n, dtype=np.int64)
    if mode == "round_robin":
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, n_workers, 0x5B)))
        )
        offset = int(rng.integers(0, n_workers))
        return ((np.arange(n, dtype=np.int64) + offset) % n_workers)
    raise ValueError(f"unknown mode {mode!r}")


def partition_stream(
    stream: Iterable[SparseExample],
    n_workers: int,
    seed: int = 0,
    mode: Literal["uniform", "round_robin"] = "uniform",
) -> list[list[SparseExample]]:
    """Split a stream into ``n_workers`` disjoint, exhaustive shards.

    The stream is materialized (a single pass); shard ``j`` receives the
    examples whose positions were assigned ``j`` by
    :func:`shard_assignments`, in original stream order.  Identical
    inputs always produce identical shards.
    """
    examples = list(stream)
    assignment = shard_assignments(
        len(examples), n_workers, seed=seed, mode=mode
    )
    shards: list[list[SparseExample]] = [[] for _ in range(n_workers)]
    for example, shard in zip(examples, assignment.tolist()):
        shards[shard].append(example)
    return shards


def partition_batch(
    batch: SparseBatch,
    n_workers: int,
    seed: int = 0,
    mode: Literal["uniform", "round_robin"] = "uniform",
) -> list[SparseBatch]:
    """Split one CSR batch into ``n_workers`` disjoint CSR shards.

    Routes example *positions* through the same
    :func:`shard_assignments` as :func:`partition_stream`, so the two
    partitioners produce content-identical shards for the same
    (length, n_workers, seed, mode) — but this one stays entirely in
    CSR land (vectorized row gather, no per-example Python objects),
    which is what the 1-sparse application streams feed the parallel
    harness.
    """
    n = len(batch)
    assignment = shard_assignments(n, n_workers, seed=seed, mode=mode)
    counts = np.diff(batch.indptr)
    shards: list[SparseBatch] = []
    for worker in range(n_workers):
        positions = np.flatnonzero(assignment == worker)
        shard_counts = counts[positions]
        indptr = np.zeros(positions.size + 1, dtype=np.int64)
        np.cumsum(shard_counts, out=indptr[1:])
        total = int(indptr[-1])
        # Vectorized CSR row gather: entry e of the shard belongs to
        # shard-row r = searchsorted(...) — equivalently, offset within
        # its row plus that row's start in the source arrays.
        within = np.arange(total, dtype=np.int64) - np.repeat(
            indptr[:-1], shard_counts
        )
        entries = np.repeat(batch.indptr[positions], shard_counts) + within
        # Rows of a validated batch: nothing to re-check.
        shards.append(
            SparseBatch._trusted(
                indptr,
                batch.indices[entries],
                batch.values[entries],
                batch.labels[positions],
            )
        )
    return shards
