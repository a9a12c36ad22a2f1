"""Parameter-server sync cost: O(dirty) delta bytes vs full-state sync.

A naive parameter server ships the whole table on every worker sync —
at 2^20 buckets that is 8 MB per push, and the sync fabric, not the
math, becomes the wall.  The PS loop (:mod:`repro.parallel.ps`) ships
only the 256-bucket chunks a worker's round actually dirtied, encoded
from the same bitmaps that make snapshot publication O(dirty).

Two measurements, both in the Fig. 7-style regime ``BENCH_publish.json``
uses (depth-1 sketch, fixed per-round write count set by the stream):

* **Delta bytes per sync** at widths 2^16 … 2^20: actual pushed bytes
  (chunk payloads + ids + header) against the full-table bytes a
  full-state sync would move.  The **headline** is the ratio at 2^20
  buckets — byte accounting from one in-process run, fully
  machine-independent — gated by ``benchmarks/gate.py ps`` (floor
  in ``benchmarks/gates.json``).
* **Modeled critical-path throughput** at 1/2/4 workers on a fixed
  stream: workers train their shards in parallel on their own modeled
  cores (slowest worker binds), driver-side encode/apply/pull/publish
  work is serialized.  The scaling curve must be monotone 1 -> 4
  (gated on the committed baseline; a fresh run's inversion is warned,
  as with ``--kind parallel``).

Results land in ``BENCH_ps.json`` at the repository root.
The kernel backend is the process default (``REPRO_KERNEL_BACKEND``,
else ``auto``); the JSON records the one it resolved to.

Run::

    PYTHONPATH=src python benchmarks/bench_ps.py
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro import kernels
from repro.core.wm_sketch import WMSketch
from repro.data.synthetic import SyntheticStream
from repro.parallel.ps import PSHarness

WIDTHS = [2**16, 2**17, 2**18, 2**19, 2**20]
HEADLINE_WIDTH = 2**20
SCALING_WORKERS = [1, 2, 4]


def _factory(width):
    def factory():
        return WMSketch(width, 1, seed=0, heap_capacity=0, lambda_=1e-4)

    return factory


def _stream(width, n, avg_nnz):
    return SyntheticStream(
        d=4 * width, n_signal=64, avg_nnz=float(avg_nnz), seed=1
    ).materialize(n)


def bench_delta_bytes(width: int, args) -> dict:
    """Delta bytes per sync vs the full-table wire cost at ``width``."""
    n = args.sync_every * args.rounds_per_worker * args.workers
    harness = PSHarness(
        _factory(width),
        n_workers=args.workers,
        staleness=args.staleness,
        sync_every=args.sync_every,
        batch_size=args.sync_every,
        seed=0,
        publish_every=1,
    )
    harness.fit(_stream(width, n, args.avg_nnz))
    counters = harness.stats()["counters"]
    pushes = counters["ps.push.count"]
    mean_push_bytes = counters["ps.push.delta_bytes"] / pushes
    full_bytes = counters["ps.push.full_table_bytes"] / pushes
    hist = harness.stats()["histograms"]["ps.push.dirty_fraction"]
    return {
        "width": width,
        "pushes": pushes,
        "pulls": counters["ps.pull.count"],
        "mean_push_bytes": mean_push_bytes,
        "full_table_bytes": full_bytes,
        "delta_bytes_ratio": full_bytes / mean_push_bytes,
        "mean_pull_bytes": (
            counters["ps.pull.bytes"] / counters["ps.pull.count"]
            if counters["ps.pull.count"] else 0.0
        ),
        "dirty_fraction_mean": (
            hist["sum"] / hist["count"] if hist["count"] else 0.0
        ),
        "publishes": counters["publish.count"],
    }


def bench_scaling(args) -> dict:
    """Modeled critical-path throughput on a fixed stream, 1/2/4 workers."""
    examples = _stream(
        HEADLINE_WIDTH, args.scaling_examples, args.avg_nnz
    )
    rows: dict = {}
    for workers in SCALING_WORKERS:
        harness = PSHarness(
            _factory(HEADLINE_WIDTH),
            n_workers=workers,
            staleness=args.staleness,
            sync_every=args.scaling_sync_every,
            batch_size=args.scaling_sync_every,
            seed=0,
            publish_every=1,
        )
        harness.fit(examples)
        wall = harness.modeled_wall_seconds()
        rows[str(workers)] = {
            "workers": workers,
            "worker_seconds_slowest": max(
                w.train_seconds + w.sync_seconds
                for w in harness.workers
            ),
            "driver_seconds": harness.driver_seconds,
            "modeled_wall_seconds": wall,
            "modeled_eps": len(examples) / wall,
        }
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sync-every", type=int, default=16,
        help="examples per worker round (the write interval between "
             "pushes — BENCH_publish.json's examples_per_publish)",
    )
    parser.add_argument("--avg-nnz", type=float, default=8.0)
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the delta-bytes runs")
    parser.add_argument("--staleness", type=int, default=1)
    parser.add_argument("--rounds-per-worker", type=int, default=8)
    parser.add_argument("--scaling-examples", type=int, default=8192)
    parser.add_argument(
        "--scaling-sync-every", type=int, default=256,
        help="examples per round for the worker-scaling runs: rounds "
             "large enough that the parallelizable training work, not "
             "fixed per-sync driver overhead, sets the critical path",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer widths and rounds)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_ps.json"),
    )
    args = parser.parse_args(argv)
    widths = WIDTHS
    if args.quick:
        widths = [2**16, 2**18, HEADLINE_WIDTH]
        args.rounds_per_worker = min(args.rounds_per_worker, 4)
        args.scaling_examples = min(args.scaling_examples, 4096)

    results: dict = {
        "workload": {
            "sync_every": args.sync_every,
            "avg_nnz": args.avg_nnz,
            "workers": args.workers,
            "staleness": args.staleness,
            "rounds_per_worker": args.rounds_per_worker,
            "scaling_examples": args.scaling_examples,
            "scaling_sync_every": args.scaling_sync_every,
            "depth": 1,
            "python": platform.python_version(),
            "kernel_backend": kernels.active_backend_name(),
        },
        "widths": {},
    }
    print(f"{'width':>9} {'push B':>10} {'full B':>12} {'ratio':>8} "
          f"{'dirty':>7} {'pushes':>7}")
    for width in widths:
        row = bench_delta_bytes(width, args)
        results["widths"][str(width)] = row
        print(f"{width:>9} {row['mean_push_bytes']:>10,.0f} "
              f"{row['full_table_bytes']:>12,.0f} "
              f"{row['delta_bytes_ratio']:>7.1f}x "
              f"{row['dirty_fraction_mean']:>6.1%} {row['pushes']:>7}")

    results["delta_bytes_ratio"] = (
        results["widths"][str(HEADLINE_WIDTH)]["delta_bytes_ratio"]
    )

    print(f"\n{'workers':>8} {'worker s':>9} {'driver s':>9} "
          f"{'wall s':>9} {'modeled eps':>12}")
    scaling = bench_scaling(args)
    results["workers"] = scaling
    for workers in SCALING_WORKERS:
        row = scaling[str(workers)]
        print(f"{workers:>8} {row['worker_seconds_slowest']:>9.3f} "
              f"{row['driver_seconds']:>9.3f} "
              f"{row['modeled_wall_seconds']:>9.3f} "
              f"{row['modeled_eps']:>12,.0f}")
    eps = [scaling[str(w)]["modeled_eps"] for w in SCALING_WORKERS]
    results["monotone_1_to_4_workers"] = bool(
        all(b > a for a, b in zip(eps, eps[1:]))
    )
    results["speedup_4_workers"] = eps[-1] / eps[0]

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline delta-bytes ratio at 2^20 buckets: "
          f"{results['delta_bytes_ratio']:.1f}x  "
          f"(modeled 4-worker speedup "
          f"{results['speedup_4_workers']:.2f}x, monotone="
          f"{results['monotone_1_to_4_workers']})  ->  {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
