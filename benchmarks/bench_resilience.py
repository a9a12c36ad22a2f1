"""Resilience under pressure: overload goodput and crash recovery.

Two halves, matching the two promises ``repro.resilience`` makes:

* **overload goodput** — measure the coalesced closed-loop saturation
  throughput of an *unbounded* :class:`~repro.serving.server.SketchServer`,
  then drive **2x that rate** open-loop (four Poisson dispatcher
  threads, no coordinated omission) through a *bounded* server
  (``max_pending`` admission queue + flush-time deadline).  A server
  without admission control would see its queue — and every latency —
  grow without bound; the bounded server must instead shed the excess
  with **typed rejections** (``Overload`` at admission,
  ``DeadlineExceeded`` in queue) while completing admitted requests at
  close to saturation.  The headline ``goodput_ratio`` (admitted
  completions per second over measured saturation) is floored at 0.8x
  by the CI gate.
* **crash recovery** — one seeded :func:`~repro.resilience.chaos.run_chaos`
  experiment: the full fault schedule (crash + stall + duplicate +
  corrupt + drop) against the parameter-server loop in the data-linear
  regime, where the fault-free single-stream table is the bit-exact
  answer.  ``recovery_bit_identical`` must be 1.0 — recovery either
  reproduces the fault-free table bit-for-bit (and passes the black-box
  snapshot-consistency check) or the gate fails; ``recovery_seconds``
  reports what the worker respawn actually cost.

Results land in ``BENCH_resilience.json`` at the repository root;
``benchmarks/gate.py resilience`` gates
``goodput_ratio`` (machine-independent: both sides of the ratio come
from the same process on the same machine) and ``recovery_bit_identical``.

Run::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import argparse
import json
import platform
import threading
import time
from pathlib import Path

from repro import kernels
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like
from repro.serving import SketchServer
from repro.serving.loadgen import (
    build_requests,
    latency_histogram,
    run_closed_loop,
    run_open_loop,
)
from repro.resilience.chaos import run_chaos

WIDTH = 2**13
DEPTH = 3

#: Open-loop dispatcher threads for the overload drive.  One Python
#: thread cannot reliably *offer* 2x saturation (each submit costs the
#: dispatcher time the schedule doesn't pause for), so the offered rate
#: is split across several.
N_DISPATCHERS = 4


def _trained_model(args):
    spec = rcv1_like(scale=0.08)
    train = spec.stream.materialize(args.train_examples, seed_offset=5)
    held_out = spec.stream.materialize(512, seed_offset=9)
    model = WMSketch(WIDTH, DEPTH, seed=0, heap_capacity=128)
    for batch in iter_batches(train, args.batch_size):
        model.fit_batch(batch)
    requests = build_requests(
        args.requests, key_space=spec.stream.d, examples=held_out, seed=3
    )
    return spec, model, requests


def bench_overload(model, requests, args) -> dict:
    # --- saturation: unbounded server, closed loop, best of repeats ---
    sat_rps = 0.0
    for _ in range(args.repeats):
        server = SketchServer(
            model, latency_budget=0.0, max_batch=args.max_batch
        )
        try:
            elapsed, _ = run_closed_loop(
                server, requests, n_clients=args.clients
            )
            sat_rps = max(sat_rps, len(requests) / elapsed)
        finally:
            server.close()

    # --- 2x saturation through the bounded server ---------------------
    # Admission bound sized to a few flush batches per op: deep enough
    # to keep the coalescer's pipeline full, shallow enough that queue
    # wait stays inside the deadline and the excess is shed at the door.
    offered = 2.0 * sat_rps
    server = SketchServer(
        model,
        latency_budget=1e-3,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        default_deadline=args.deadline_ms * 1e-3,
    )
    hist = latency_histogram("bench.overload.latency_seconds")
    chunks = [requests[k::N_DISPATCHERS] for k in range(N_DISPATCHERS)]
    sheds = [{} for _ in range(N_DISPATCHERS)]
    elapsed_by_thread = [0.0] * N_DISPATCHERS

    def dispatch(k: int) -> None:
        _, elapsed = run_open_loop(
            server,
            chunks[k],
            offered_rps=offered / N_DISPATCHERS,
            seed=11 + k,
            histogram=hist,
            shed_counts=sheds[k],
        )
        elapsed_by_thread[k] = elapsed

    threads = [
        threading.Thread(
            target=dispatch, args=(k,), name=f"bench-dispatch-{k}",
            daemon=True,
        )
        for k in range(N_DISPATCHERS)
    ]
    try:
        start = time.monotonic()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.monotonic() - start
    finally:
        server.close()

    completed = sum(s["completed"] for s in sheds)
    shed_overload = sum(s["overload"] for s in sheds)
    shed_deadline = sum(s["deadline"] for s in sheds)
    goodput_rps = completed / wall
    return {
        "saturation_rps": sat_rps,
        "offered_rps": offered,
        "goodput_rps": goodput_rps,
        "goodput_ratio": goodput_rps / sat_rps,
        "completed": completed,
        "shed_overload": shed_overload,
        "shed_deadline": shed_deadline,
        "shed_fraction": (shed_overload + shed_deadline) / len(requests),
        "admitted_p50_ms": hist.percentile(50) * 1e3,
        "admitted_p99_ms": hist.percentile(99) * 1e3,
        "dispatch_wall_seconds": wall,
        "max_dispatcher_elapsed_seconds": max(elapsed_by_thread),
    }


def bench_recovery(args) -> dict:
    report = run_chaos(
        seed=args.seed,
        n_workers=4,
        staleness=0,
        n_examples=args.chaos_examples,
        d=1200,
        sync_every=50,
        batch_size=50,
    )
    ok = report["bit_identical"] and report["consistency"].get("ok", False)
    return {
        "bit_identical": report["bit_identical"],
        "consistency_ok": report["consistency"].get("ok", False),
        "recovery_bit_identical": 1.0 if ok else 0.0,
        "recovery_seconds": report["recovery_seconds"]["sum"],
        "crashes": report["counters"]["crashes"],
        "recoveries": report["counters"]["recoveries"],
        "retries": report["counters"]["retries"],
        "corrupt_rejected": report["counters"]["corrupt_rejected"],
        "duplicates_deduped": report["counters"]["duplicates_deduped"],
        "faults_fired": report["faults"]["fired"],
        "publishes": report["publishes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-examples", type=int, default=4_000)
    parser.add_argument("--requests", type=int, default=2_000)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--max-pending", type=int, default=128,
        help="bounded server's per-op admission queue depth",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=100.0,
        help="bounded server's flush-time deadline",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--chaos-examples", type=int, default=600,
        help="examples for the crash-recovery chaos run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer requests and repeats)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_resilience.json"),
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.requests = min(args.requests, 600)
        args.repeats = min(args.repeats, 2)
        args.train_examples = min(args.train_examples, 2_000)
        args.chaos_examples = min(args.chaos_examples, 400)

    spec, model, requests = _trained_model(args)

    overload = bench_overload(model, requests, args)
    print(f"saturation {overload['saturation_rps']:>10,.0f} rps   "
          f"offered 2x = {overload['offered_rps']:>10,.0f} rps")
    print(f"goodput    {overload['goodput_rps']:>10,.0f} rps   "
          f"ratio {overload['goodput_ratio']:.2f}x   "
          f"shed {overload['shed_overload']} overload / "
          f"{overload['shed_deadline']} deadline   "
          f"admitted p99 {overload['admitted_p99_ms']:.2f}ms")

    recovery = bench_recovery(args)
    verdict = ("BIT-IDENTICAL" if recovery["recovery_bit_identical"] == 1.0
               else "DIVERGED")
    print(f"recovery   {recovery['crashes']} crash / "
          f"{recovery['recoveries']} respawn in "
          f"{recovery['recovery_seconds'] * 1e3:.2f}ms   "
          f"{recovery['faults_fired']} faults fired   {verdict}")

    results: dict = {
        "workload": {
            "dataset": spec.name,
            "train_examples": args.train_examples,
            "n_requests": args.requests,
            "clients": args.clients,
            "dispatchers": N_DISPATCHERS,
            "max_pending": args.max_pending,
            "deadline_ms": args.deadline_ms,
            "max_batch": args.max_batch,
            "chaos_examples": args.chaos_examples,
            "width": WIDTH,
            "depth": DEPTH,
            "python": platform.python_version(),
            "kernel_backend": kernels.active_backend_name(),
        },
        "overload": overload,
        "recovery": recovery,
        "goodput_ratio": overload["goodput_ratio"],
        "recovery_bit_identical": recovery["recovery_bit_identical"],
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline goodput ratio at 2x saturation: "
          f"{results['goodput_ratio']:.2f}x  ->  {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
