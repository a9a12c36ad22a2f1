"""Publish latency: full-fold copy vs O(dirty) incremental snapshots.

The serving wall at million-bucket models is the publish: a full
``snapshot()`` copies the whole table (O(size)), so the publish
interval — and therefore snapshot staleness — grows linearly with
sketch width.  ``snapshot_incremental`` copies only the 256-bucket
chunks training dirtied since the previous publish and shares every
clean chunk with the previous snapshot's pool, making the publish
O(dirty) instead.

This benchmark trains a depth-1 WM-Sketch at widths 2^16 … 2^22 with a
**fixed** per-interval write count (the Fig. 7-style regime: the write
rate is set by the stream, not the table), and times both publish
paths at every width.  Per width it reports the median per-publish
latency of each path, their ratio, and the observed dirty fraction /
chunks copied.  The **headline** is the incremental speedup at 2^20
buckets, gated by ``benchmarks/gate.py publish`` (floor in
``benchmarks/gates.json``).  A bit-identity guard
asserts the chained snapshot answers exactly like the full copy at
every width.

Results land in ``BENCH_publish.json`` at the repository root.
The kernel backend is the process default (``REPRO_KERNEL_BACKEND``,
else ``auto``); the JSON records the one it resolved to.

Run::

    PYTHONPATH=src python benchmarks/bench_publish.py
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch
from repro.data.synthetic import SyntheticStream
from repro.hashing.batch import BatchHasher

#: Total buckets per configuration (depth 1, so width == size).
WIDTHS = [2**16, 2**17, 2**18, 2**19, 2**20, 2**21, 2**22]
HEADLINE_WIDTH = 2**20


def _train_interval(model, batches, cursor):
    """One fixed-size write interval between publishes."""
    batch = batches[cursor % len(batches)]
    model.fit_batch(batch)
    return cursor + 1


def bench_width(width: int, args) -> dict:
    model = WMSketch(width, 1, seed=0, heap_capacity=0, lambda_=1e-4)
    stream = SyntheticStream(
        d=4 * width, n_signal=64, avg_nnz=float(args.avg_nnz), seed=1
    )
    examples = stream.materialize(
        args.examples_per_publish * (args.publishes + args.warmup)
    )
    batches = [
        SparseBatch.from_examples(
            examples[i: i + args.examples_per_publish]
        )
        for i in range(0, len(examples), args.examples_per_publish)
    ]

    # Thread the manager-style shared reader caches through both
    # publish paths, exactly as SnapshotManager does: the per-publish
    # cost under measurement is the table copy, not hasher setup.
    hasher = BatchHasher(model.family, backend=model.kernels)
    workspace = kernels.KernelWorkspace()

    cursor = 0
    # Warmup: the first publish is always a full rebase; let the chain
    # and the workspace arenas reach steady state before timing.
    prev = None
    for _ in range(args.warmup):
        cursor = _train_interval(model, batches, cursor)
        prev, _ = model.snapshot_incremental(
            prev, batch_hasher=hasher, workspace=workspace
        )

    full_s: list[float] = []
    inc_s: list[float] = []
    dirty_fractions: list[float] = []
    chunks_copied: list[int] = []
    rebases = 0
    for i in range(args.publishes):
        cursor = _train_interval(model, batches, cursor)
        # Full copy first (read-only: does not clear the bitmap or
        # advance the chain), then the incremental publish on exactly
        # the same dirty state.
        t0 = time.perf_counter()
        full = model.snapshot(batch_hasher=hasher, workspace=workspace)
        full_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        snap, stats = model.snapshot_incremental(
            prev, batch_hasher=hasher, workspace=workspace
        )
        inc_s.append(time.perf_counter() - t0)
        dirty_fractions.append(stats["dirty_fraction"])
        chunks_copied.append(stats["chunks_copied"])
        rebases += bool(stats["rebase"])
        if i == 0:
            # Bit-identity guard: same raw bits, same scale, same reads.
            if snap._scale != full._scale or not np.array_equal(
                snap._dense_table_flat(), full.table.ravel()
            ):
                raise AssertionError(
                    f"incremental snapshot diverged from full copy "
                    f"at width {width}"
                )
            keys = np.arange(0, stream.d, 997, dtype=np.int64)
            if not np.array_equal(
                snap.query_many(keys), full.query_many(keys)
            ):
                raise AssertionError(
                    f"translated reads diverged at width {width}"
                )
        prev = snap

    full_ms = statistics.median(full_s) * 1e3
    inc_ms = statistics.median(inc_s) * 1e3
    return {
        "width": width,
        "full_publish_ms": full_ms,
        "incremental_publish_ms": inc_ms,
        "incremental_speedup": full_ms / inc_ms,
        "dirty_fraction_mean": statistics.fmean(dirty_fractions),
        "chunks_copied_mean": statistics.fmean(chunks_copied),
        "n_chunks": stats["n_chunks"],
        "rebases": rebases,
        "publishes": args.publishes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--examples-per-publish", type=int, default=16,
        help="fixed write interval between publishes (examples)",
    )
    parser.add_argument("--avg-nnz", type=float, default=8.0)
    parser.add_argument("--publishes", type=int, default=15)
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer widths and publishes)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_publish.json"),
    )
    args = parser.parse_args(argv)
    widths = WIDTHS
    if args.quick:
        widths = [2**16, 2**18, HEADLINE_WIDTH]
        args.publishes = min(args.publishes, 7)

    results: dict = {
        "workload": {
            "examples_per_publish": args.examples_per_publish,
            "avg_nnz": args.avg_nnz,
            "publishes": args.publishes,
            "depth": 1,
            "python": platform.python_version(),
            "kernel_backend": kernels.active_backend_name(),
        },
        "widths": {},
    }
    print(f"{'width':>9} {'full ms':>9} {'incr ms':>9} {'speedup':>8} "
          f"{'dirty':>7} {'chunks':>7}")
    for width in widths:
        row = bench_width(width, args)
        results["widths"][str(width)] = row
        print(f"{width:>9} {row['full_publish_ms']:>9.3f} "
              f"{row['incremental_publish_ms']:>9.3f} "
              f"{row['incremental_speedup']:>7.1f}x "
              f"{row['dirty_fraction_mean']:>6.1%} "
              f"{row['chunks_copied_mean']:>7.0f}")

    headline = results["widths"][str(HEADLINE_WIDTH)]
    results["incremental_speedup"] = headline["incremental_speedup"]
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline incremental publish speedup at 2^20 buckets: "
          f"{results['incremental_speedup']:.1f}x  ->  {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
