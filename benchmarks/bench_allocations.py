"""Allocation benchmark: transient memory of steady-state ``fit_batch``.

The fused kernels + per-model workspaces exist to stop the batched
update path from materializing a fresh chain of nnz-scale temporaries
every mini-batch.  This benchmark measures what is left with
tracemalloc (NumPy registers its buffers with it) on the Fig. 7 WM
workload:

* **peak_transient_bytes** — the high-water mark of memory allocated
  *above* the resting state while running steady-state (post-warmup)
  batches.  The arenas are preallocated, so the residue is
  per-example interpreter noise plus whatever the backend's loops
  still allocate.
* **retained_bytes_per_batch** — net bytes still allocated after a
  pass, divided by the number of batches: ~0 (temporaries die),
  reported to show the path does not leak.

The committed ``BENCH_alloc.json`` records the peaks;
``benchmarks/gate.py alloc`` gates them in CI
against the byte ceilings in ``benchmarks/gates.json`` and against the
committed peaks (byte counts do not depend on machine speed, but do on
the kernel backend: CI runs numpy), and ``tests/test_allocations.py``
enforces the O(1)-retained contract in the tier-1 suite.

Run::

    REPRO_KERNEL_BACKEND=numpy PYTHONPATH=src \
        python benchmarks/bench_allocations.py
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import tracemalloc
from pathlib import Path

from repro import kernels
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like

WIDTH = 2**13
DEPTH = 3


def measure(factory, batches) -> dict:
    model = factory()
    for b in batches:
        model.fit_batch(b)  # warm arenas / hash cache / interpreter
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        for b in batches:
            model.fit_batch(b)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "peak_transient_bytes": max(peak - base, 1),
        "retained_bytes_per_batch": max(current - base, 0) / len(batches),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=4_000)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_alloc.json"),
    )
    args = parser.parse_args(argv)

    spec = rcv1_like(scale=0.08)
    examples = spec.stream.materialize(args.examples, seed_offset=5)
    batches = list(iter_batches(examples, args.batch_size))

    configs = {
        "wm_algorithm1": lambda: WMSketch(
            WIDTH, DEPTH, seed=0, heap_capacity=0
        ),
        "wm_with_heap": lambda: WMSketch(
            WIDTH, DEPTH, seed=0, heap_capacity=128
        ),
    }
    results: dict = {
        "workload": {
            "dataset": spec.name,
            "n_examples": args.examples,
            "batch_size": args.batch_size,
            "width": WIDTH,
            "depth": DEPTH,
            "backend": kernels.active_backend_name(),
            "python": platform.python_version(),
        },
    }
    print(f"{'config':>16} {'peak bytes':>12} {'retained/batch':>15}")
    for name, factory in configs.items():
        row = measure(factory, batches)
        results[name] = row
        print(f"{name:>16} {row['peak_transient_bytes']:>12,} "
              f"{row['retained_bytes_per_batch']:>14,.0f}")

    results["peak_transient_bytes"] = results["wm_algorithm1"][
        "peak_transient_bytes"
    ]
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline (WM Algorithm 1) steady-state peak transient: "
          f"{results['peak_transient_bytes']:,} B  ->  {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
