"""Serving throughput/latency: the micro-batching coalescer under load.

The Fig. 7 workload (rcv1-flavoured stream, the paper's serving-side
sketch dimensions) behind :class:`repro.serving.server.SketchServer`:

* **saturation throughput** (closed loop): N client threads issue
  back-to-back requests — once through the micro-batching coalescer
  (concurrent requests flushed as ONE fused batched kernel call) and
  once through the serial-scalar baseline (one request at a time,
  scalar kernels, same snapshot discipline).  The ratio is the
  **coalescing speedup**, the headline this PR gates in CI (floor 3x).
  Both sides answer from the same published snapshot and a bit-equality
  guard asserts coalescing changed *nothing* about the answers.
* **open-loop latency**: requests arrive on a Poisson schedule at a
  fraction of the measured saturation rate (no coordinated omission);
  reported p50/p99 measure what the latency budget actually buys.
* **coalescing observability**: the batch-size distribution the
  coalescer actually formed, plus the reader hash-cache hit rate.

Results land in ``BENCH_serving.json`` at the repository root;
``benchmarks/gate.py serving`` gates the
speedup ratios (machine-independent: both sides of each ratio come
from the same process on the same machine) plus absolute floors.

Run::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like
from repro.serving import SketchServer
from repro.serving.loadgen import (
    build_requests,
    run_closed_loop,
    run_open_loop,
)
from repro.telemetry import hooks

WIDTH = 2**13
DEPTH = 3


def make_configs(backend: str | None) -> dict:
    return {
        "wm": lambda: WMSketch(
            WIDTH, DEPTH, seed=0, heap_capacity=128, backend=backend
        ),
        "awm_half_budget": lambda: AWMSketch(
            WIDTH // 2, depth=1, heap_capacity=WIDTH // 4, seed=0,
            backend=backend,
        ),
    }


def _server(model, latency_budget, max_batch):
    return SketchServer(
        model, latency_budget=latency_budget, max_batch=max_batch
    )


def _assert_bit_equal(server, requests):
    """Coalesced answers must equal serial-scalar answers, bit for bit,
    on the same (sole) published snapshot."""
    for op, payload in requests:
        coalesced, cv = server.request(op, payload, timeout=60.0)
        serial, sv = server.serial_request(op, payload)
        if cv != sv:
            raise AssertionError(f"version skew: {cv} != {sv}")
        if isinstance(serial, np.ndarray):
            if not np.array_equal(coalesced, serial):
                raise AssertionError(
                    f"coalesced {op} diverged from serial-scalar"
                )
        elif coalesced != serial:
            raise AssertionError(
                f"coalesced {op} diverged from serial-scalar"
            )


def bench_config(
    factory, train_batches, requests, args
) -> dict:
    model = factory()
    for batch in train_batches:
        model.fit_batch(batch)

    # --- saturation (closed loop), best-of-repeats per side -----------
    serial_rps = 0.0
    coalesced_rps = 0.0
    batch_hist: dict[int, int] = {}
    # Timing breakdown via the on_flush profiling hook: where coalesced
    # wall time goes (queue wait vs flush work), per op.
    flush_profile: dict[str, dict] = {}

    def _on_flush(op, batch_size, reason, queue_wait, seconds):
        row = flush_profile.setdefault(
            op,
            {"flushes": 0, "requests": 0, "flush_seconds": 0.0,
             "max_queue_wait_seconds": 0.0},
        )
        row["flushes"] += 1
        row["requests"] += batch_size
        row["flush_seconds"] += seconds
        if queue_wait > row["max_queue_wait_seconds"]:
            row["max_queue_wait_seconds"] = queue_wait

    hooks.on_flush.append(_on_flush)
    try:
        for _ in range(args.repeats):
            server = _server(model, args.latency_budget, args.max_batch)
            try:
                elapsed, _ = run_closed_loop(
                    server, requests, n_clients=args.clients, serial=True
                )
                serial_rps = max(serial_rps, len(requests) / elapsed)
                elapsed, _ = run_closed_loop(
                    server, requests, n_clients=args.clients, serial=False
                )
                coalesced_rps = max(coalesced_rps, len(requests) / elapsed)
                stats = server.coalescer.stats()
                for hist in stats["batch_size_hist"].values():
                    for size, count in hist.items():
                        batch_hist[size] = batch_hist.get(size, 0) + count
            finally:
                server.close()
    finally:
        hooks.on_flush.remove(_on_flush)

    # --- equivalence guard (same snapshot, subset of the stream) ------
    server = _server(model, args.latency_budget, args.max_batch)
    try:
        _assert_bit_equal(server, requests[:64])
    finally:
        server.close()

    # --- open-loop latency at a fraction of saturation ----------------
    # Latencies land in the bounded telemetry histogram (O(buckets)
    # memory however long the run), percentiles read from it.
    server = _server(model, args.latency_budget, args.max_batch)
    try:
        offered = args.offered_fraction * coalesced_rps
        lat_hist, elapsed = run_open_loop(
            server, requests, offered_rps=offered, seed=1
        )
        stats = server.stats()
    finally:
        server.close()

    total = sum(batch_hist.values())
    mean_batch = (
        sum(s * c for s, c in batch_hist.items()) / total if total else 0.0
    )
    for row in flush_profile.values():
        row["mean_flush_ms"] = 1e3 * row["flush_seconds"] / row["flushes"]
        row["max_queue_wait_ms"] = 1e3 * row.pop("max_queue_wait_seconds")
    return {
        "serial_rps": serial_rps,
        "coalesced_rps": coalesced_rps,
        "coalescing_speedup": coalesced_rps / serial_rps,
        "open_loop_offered_rps": offered,
        "open_loop_completed_rps": lat_hist.count / elapsed,
        "latency_p50_ms": lat_hist.percentile(50) * 1e3,
        "latency_p90_ms": lat_hist.percentile(90) * 1e3,
        "latency_p99_ms": lat_hist.percentile(99) * 1e3,
        "latency_max_ms": lat_hist.max_value * 1e3,
        "batch_size_hist": {str(k): v for k, v in sorted(batch_hist.items())},
        "mean_batch_size": mean_batch,
        "max_batch_size": max(batch_hist) if batch_hist else 0,
        "reader_hit_rate": stats["reader_hasher"]["hit_rate"],
        "timing_breakdown": flush_profile,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-examples", type=int, default=4_000)
    parser.add_argument("--requests", type=int, default=2_000)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    # At closed-loop saturation a nonzero budget only makes the flush
    # worker idle-wait (arrivals during the previous flush already form
    # the batch), so the saturation measurement defaults to pure natural
    # batching.  Pass e.g. --latency-budget 1e-3 to measure what a
    # latency/batch-size trade actually costs.
    parser.add_argument("--latency-budget", type=float, default=0.0)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--offered-fraction", type=float, default=0.5,
        help="open-loop offered load as a fraction of measured "
             "coalesced saturation",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer requests and repeats)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_serving.json"),
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.requests = min(args.requests, 400)
        args.repeats = min(args.repeats, 2)
        args.train_examples = min(args.train_examples, 2_000)

    spec = rcv1_like(scale=0.08)
    train = spec.stream.materialize(args.train_examples, seed_offset=5)
    held_out = spec.stream.materialize(512, seed_offset=9)
    train_batches = list(iter_batches(train, args.batch_size))
    requests = build_requests(
        args.requests, key_space=spec.stream.d, examples=held_out, seed=3
    )

    results: dict = {
        "workload": {
            "dataset": spec.name,
            "train_examples": args.train_examples,
            "n_requests": args.requests,
            "clients": args.clients,
            "latency_budget_ms": args.latency_budget * 1e3,
            "max_batch": args.max_batch,
            "width": WIDTH,
            "depth": DEPTH,
            "python": platform.python_version(),
            "kernel_backend": kernels.active_backend_name(),
        },
    }
    print(f"{'config':>16} {'serial rps':>11} {'coalesced':>11} "
          f"{'speedup':>8} {'p50':>8} {'p99':>8} {'batch':>6}")
    for name, factory in make_configs(None).items():
        row = bench_config(factory, train_batches, requests, args)
        results[name] = row
        print(f"{name:>16} {row['serial_rps']:>11,.0f} "
              f"{row['coalesced_rps']:>11,.0f} "
              f"{row['coalescing_speedup']:>7.2f}x "
              f"{row['latency_p50_ms']:>6.2f}ms "
              f"{row['latency_p99_ms']:>6.2f}ms "
              f"{row['mean_batch_size']:>6.1f}")

    results["coalescing_speedup"] = results["wm"]["coalescing_speedup"]
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline (WM) coalescing speedup at saturation: "
          f"{results['coalescing_speedup']:.2f}x  ->  {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
