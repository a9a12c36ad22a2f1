"""Pipelined-ingestion overlap micro-benchmark (PR 4, satellite).

``fit_stream_pipelined`` hashes batch t+1 on a prefetch thread while
batch t trains.  Under the NumPy backend the hash path and the
``fused_update`` loop both hold the GIL through their Python-level
dispatch, so producer and consumer timeshare one core.  The compiled
``c`` backend releases the GIL inside ``fused_update``, but that call
leaves too little training time to hide hashing behind: on a 2-core
x86-64 Linux host the defaults measured an overlap ratio of 0.93x
under ``c`` and 0.86-0.92x under numpy, i.e. no wall-clock gain on
either.

For each measured backend this benchmark reports three walls over the
same stream:

* ``hash_s``    — a hash-only pass (a cold :class:`BatchHasher` over
  every batch, the producer thread's work);
* ``train_s``   — a training-only pass (``fit_batch`` fed precomputed
  rows, the consumer thread's work);
* ``pipelined_s`` — the measured ``fit_stream_pipelined`` wall.

``overlap_ratio = (hash_s + train_s) / pipelined_s``: 1.0 means the
pipeline ran the two stages back to back (no overlap beyond NumPy's
internal GIL releases); the ceiling is ``(hash + train) /
max(hash, train)``.  The final model state is asserted bit-identical
to the sequential engine on every backend before any number is
reported.

The synthetic workload draws example indices from a wide id space so
the cross-batch hash cache cannot absorb the hashing work (a cache-hot
stream would leave the producer idle and the ratio meaningless).

Run::

    PYTHONPATH=src python benchmarks/bench_pipeline_overlap.py
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.sparse import SparseExample
from repro.hashing.batch import BatchHasher
from repro.parallel.pipeline import fit_stream_pipelined

WIDTH = 2**13
DEPTH = 3


def wide_stream(
    n: int, nnz: int, d: int = 2_000_000, seed: int = 0
) -> list[SparseExample]:
    """Examples whose indices rarely repeat across batches, so hashing
    stays on the slow path instead of the cross-batch cache."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        idx = np.unique(rng.integers(0, d, size=nnz, dtype=np.int64))
        values = rng.standard_normal(idx.size)
        label = 1 if rng.random() < 0.5 else -1
        out.append(SparseExample(idx, values, label))
    return out


def bench_backend(
    backend: str, examples, batch_size: int, repeats: int
) -> dict:
    def factory() -> WMSketch:
        return WMSketch(
            WIDTH, DEPTH, seed=0, heap_capacity=0, backend=backend
        )

    batches = list(iter_batches(examples, batch_size))

    hash_s = train_s = pipe_s = float("inf")
    for _ in range(repeats):
        # Producer-side work: a cold hasher per repeat, like the
        # pipeline's own prefetch hasher.
        hasher = BatchHasher(factory().family)
        start = time.perf_counter()
        rows = [hasher.rows(b.indices) for b in batches]
        hash_s = min(hash_s, time.perf_counter() - start)

        # Consumer-side work: training fed the precomputed rows.
        clf = factory()
        start = time.perf_counter()
        for b, r in zip(batches, rows):
            clf.fit_batch(b, rows=r)
        train_s = min(train_s, time.perf_counter() - start)

        pipelined = factory()
        start = time.perf_counter()
        fit_stream_pipelined(pipelined, examples, batch_size=batch_size)
        pipe_s = min(pipe_s, time.perf_counter() - start)

    # Equivalence guard before any throughput claim.
    sequential = factory()
    for b in batches:
        sequential.fit_batch(b)
    if not np.array_equal(
        sequential.table * sequential._scale,
        pipelined.table * pipelined._scale,
    ):
        raise AssertionError(
            f"{backend}: pipelined state diverged from sequential"
        )

    return {
        "hash_s": hash_s,
        "train_s": train_s,
        "pipelined_s": pipe_s,
        "overlap_ratio": (hash_s + train_s) / pipe_s,
        "overlap_ceiling": (hash_s + train_s) / max(hash_s, train_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=3_000)
    parser.add_argument("--nnz", type=int, default=60)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--backends", default="auto",
        help="comma-separated kernel backends ('auto' = numpy plus "
             "c when it builds)",
    )
    parser.add_argument(
        "--out", default="",
        help="optional JSON output path (empty = print only)",
    )
    args = parser.parse_args(argv)

    names = []
    for part in args.backends.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "auto":
            # Expand to real backend names, never a literal 'auto' row.
            if "numpy" not in names:
                names.append("numpy")
            if "c" in kernels.available_backends():
                if "c" not in names:
                    names.append("c")
            else:
                print("notice: the c backend does not build here — only "
                      "the GIL-bound numpy rows can be measured")
        elif part not in names:
            names.append(part)

    examples = wide_stream(args.examples, args.nnz)
    results: dict = {
        "workload": {
            "n_examples": args.examples,
            "nnz": args.nnz,
            "batch_size": args.batch_size,
            "width": WIDTH,
            "depth": DEPTH,
            "python": platform.python_version(),
        },
        "backends": {},
    }
    print(f"{'backend':>8} {'hash s':>8} {'train s':>8} {'pipe s':>8} "
          f"{'overlap':>8} {'ceiling':>8}")
    for name in names:
        try:
            kernels.get_backend(name, strict=True)
        except kernels.BackendUnavailableError as exc:
            print(f"notice: skipping backend {name!r}: {exc}")
            continue
        row = bench_backend(
            name, examples, args.batch_size, args.repeats
        )
        results["backends"][name] = row
        print(f"{name:>8} {row['hash_s']:>8.3f} {row['train_s']:>8.3f} "
              f"{row['pipelined_s']:>8.3f} {row['overlap_ratio']:>7.2f}x "
              f"{row['overlap_ceiling']:>7.2f}x")

    if args.out:
        Path(args.out).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
        print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
