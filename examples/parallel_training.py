"""Sharded parallel training with mergeable sketches.

Demonstrates the PR 2 parallel subsystem end to end:

1. partition a stream deterministically across N workers;
2. train one WM-Sketch per shard in a spawn-safe process pool;
3. merge the workers' sketches (summed Count-Sketch tables — exact by
   linearity) and compare top-K recovery against a single-stream model;
4. checkpoint the merged model (worker count travels in the header).

Run::

    PYTHONPATH=src python examples/parallel_training.py
"""

import time

from repro import ParallelHarness, WMSketch
from repro.core.serialization import from_bytes, roundtrip_bytes
from repro.data.datasets import rcv1_like

N_EXAMPLES = 8_000
N_WORKERS = 4
KWARGS = dict(width=2**12, depth=2, heap_capacity=128, seed=0)


def main() -> None:
    spec = rcv1_like(scale=0.08)
    examples = spec.stream.materialize(N_EXAMPLES)
    print(f"workload: {spec.name}, {len(examples):,} examples, "
          f"{N_WORKERS} workers\n")

    # Single-stream reference.
    single = WMSketch(**KWARGS)
    start = time.perf_counter()
    single.fit(examples, batch_size=256)
    print(f"single-stream train: {time.perf_counter() - start:.2f}s")

    # Sharded: partition -> spawn pool -> merge.
    with ParallelHarness(
        WMSketch, KWARGS, n_workers=N_WORKERS, batch_size=256
    ) as harness:
        start = time.perf_counter()
        merged = harness.fit(examples)
        wall = time.perf_counter() - start
        slowest = max(r.train_seconds for r in harness.last_results)
        sizes = [r.n_examples for r in harness.last_results]
    print(f"sharded train:       {wall:.2f}s wall on this machine "
          f"(shards {sizes})")
    print(f"critical path:       {slowest:.2f}s in-worker clock of the "
          f"slowest shard\n(on >= {N_WORKERS} free cores, wall-clock "
          f"approaches this; see benchmarks/bench_parallel_scaling.py "
          f"for uncontended numbers)\n")

    # Merged estimates recover the *sum* of worker models; rankings are
    # scale-invariant, so top-K agrees with the single-stream model.
    k = 16
    top_single = {i for i, _ in single.top_weights(k)}
    top_merged = {i for i, _ in merged.top_weights(k)}
    print(f"top-{k} overlap vs single-stream: "
          f"{len(top_single & top_merged)}/{k}")
    print(f"merged_from={merged.merged_from}, t={merged.t:,}")

    # Checkpoint round trip keeps the merge metadata.
    restored = from_bytes(roundtrip_bytes(merged))
    assert restored.merged_from == N_WORKERS
    print(f"checkpoint round trip ok "
          f"({len(roundtrip_bytes(merged)):,} bytes)")


if __name__ == "__main__":
    main()
