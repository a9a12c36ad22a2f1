"""Telemetry overhead: the 3% contract, measured and gated.

The observability layer (:mod:`repro.telemetry`) rides inside the
hottest loop in the repository — ``fit_batch`` wraps the fused update
in spans, the serving layer wraps every flush — so its cost has to be
a measured number, not a hope.  This benchmark times the Fig. 7
training workload (rcv1-like stream, width 2**13 x depth 3, batched
engine) twice per round: once with tracing disabled (the production
default — one module-attribute check per span site, no allocation) and
once with tracing enabled (full parent/child timing trees captured on
every batch).  The report is::

    telemetry_overhead_ratio = enabled_eps / disabled_eps

and the contract, gated in CI by ``benchmarks/gate.py telemetry``
under the floor in ``benchmarks/gates.json``, is **ratio >= 0.97**:
turning the tracer on may cost at most 3% of training throughput.
(Metric counters are
always on and per-batch amortized; "telemetry enabled" here means the
expensive axis — span capture.)

Timing discipline: a ratio this close to 1.0 needs a finer instrument
than the whole-pass best-of minima the throughput benchmarks use — on
a machine whose clock drifts ±40% between passes, one anomalously fast
window on one side drags a pass-level min ratio far below what any
individual comparison measured.  So the two sides are paired at
**batch granularity**: two identical models advance through the stream
together, each batch timed once untraced and once traced (order
alternating by batch index and round, so neither side systematically
runs second on a warm cache), and each (batch, side) timing site keeps
its **minimum across rounds**.  The per-site min rejects scheduler and
clock noise independently at every site; the reported ratio is the
ratio of summed per-site minima.  Both models see identical state at
every batch (same seed, same stream), so the pairing compares the same
computation, span capture being the only difference.

The enabled rounds double as a correctness probe: the captured trees
are validated (children nested inside parents, sibling spans ordered,
no child time exceeding its parent) and the kernel-phase breakdown —
what fraction of a traced batch goes to hashing, the fused update, and
heap maintenance — lands in the JSON under ``"breakdown"``, which is
the timing-breakdown section the profiling-hook API promises to
benchmarks.

Run::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro import kernels
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like
from repro.telemetry import trace, validate_span_tree

WIDTH = 2**13
DEPTH = 3

CONFIGS = {
    "wm_algorithm1": lambda: WMSketch(WIDTH, DEPTH, seed=0, heap_capacity=0),
    "wm_with_heap": lambda: WMSketch(WIDTH, DEPTH, seed=0, heap_capacity=128),
}


def _paired_round(factory, batches, r, best_dis, best_en) -> None:
    """One interleaved round: fresh traced + untraced models advance
    batch by batch together, folding each timing into its site's min."""
    pc = time.perf_counter
    dis, en = factory(), factory()
    for i, batch in enumerate(batches):
        untraced_first = (i + r) % 2 == 0
        for side in (0, 1):
            if (side == 0) == untraced_first:
                t0 = pc()
                dis.fit_batch(batch)
                dt = pc() - t0
                if dt < best_dis[i]:
                    best_dis[i] = dt
            else:
                trace.enable()
                t0 = pc()
                en.fit_batch(batch)
                dt = pc() - t0
                trace.disable()
                if dt < best_en[i]:
                    best_en[i] = dt


def _span_breakdown(roots) -> dict:
    """Validate every captured tree and aggregate child-phase time.

    Returns per-phase total seconds and the fraction of traced
    ``fit_batch`` time each phase accounts for (the profiling
    timing-breakdown section).
    """
    spans = 0
    fit_seconds = 0.0
    phases: dict[str, float] = {}
    for root in roots:
        spans += validate_span_tree(root)
        if root.name != "fit_batch":
            continue
        fit_seconds += root.seconds
        for child in root.children:
            phases[child.name] = phases.get(child.name, 0.0) + child.seconds
    return {
        "roots": len(roots),
        "spans_validated": spans,
        "fit_batch_seconds": fit_seconds,
        "phase_seconds": {k: v for k, v in sorted(phases.items())},
        "phase_fraction": {
            k: (v / fit_seconds if fit_seconds else 0.0)
            for k, v in sorted(phases.items())
        },
    }


def bench_config(name, factory, batches, n, repeats) -> dict:
    """Summed per-site-min paired timings over ``repeats`` rounds."""
    nb = len(batches)
    best_dis = [float("inf")] * nb
    best_en = [float("inf")] * nb
    trace.disable()
    try:
        for r in range(repeats):
            _paired_round(factory, batches, r, best_dis, best_en)
            # The interleaved rounds only time; the trees they capture
            # interleave two models, so drop them and take the
            # breakdown from one clean traced pass below.
            trace.drain()
        with trace.capture() as cap:
            clf = factory()
            for batch in batches:
                clf.fit_batch(batch)
        breakdown = _span_breakdown(cap.spans)
    finally:
        trace.disable()

    if breakdown.get("roots", 0) == 0:
        raise AssertionError(f"{name}: traced pass captured no spans")
    t_dis = sum(best_dis)
    t_en = sum(best_en)
    return {
        "disabled_eps": n / t_dis,
        "enabled_eps": n / t_en,
        "telemetry_overhead_ratio": t_dis / t_en,
        "breakdown": breakdown,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=4_000)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument(
        "--repeats", type=int, default=8,
        help="interleaved rounds; each (batch, side) site keeps its "
             "min, so more rounds tighten the estimate",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizing (fewer examples and repeats)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_telemetry.json"),
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.examples = min(args.examples, 2_000)
        args.repeats = min(args.repeats, 4)

    spec = rcv1_like(scale=0.08)
    examples = spec.stream.materialize(args.examples, seed_offset=5)
    batches = list(iter_batches(examples, args.batch_size))

    results: dict = {
        "workload": {
            "dataset": spec.name,
            "n_examples": args.examples,
            "batch_size": args.batch_size,
            "width": WIDTH,
            "depth": DEPTH,
            "pass": "batched training (Fig. 7 workload), tracing "
                    "disabled vs enabled",
            "python": platform.python_version(),
            "kernel_backend": kernels.active_backend_name(),
        },
    }
    print(f"{'config':>16} {'disabled ex/s':>14} {'enabled ex/s':>13} "
          f"{'ratio':>7}")
    worst = float("inf")
    for name, factory in CONFIGS.items():
        row = bench_config(
            name, factory, batches, args.examples, args.repeats
        )
        results[name] = row
        worst = min(worst, row["telemetry_overhead_ratio"])
        frac = row["breakdown"]["phase_fraction"]
        phases = " ".join(f"{k}={v:.0%}" for k, v in frac.items())
        print(f"{name:>16} {row['disabled_eps']:>14,.0f} "
              f"{row['enabled_eps']:>13,.0f} "
              f"{row['telemetry_overhead_ratio']:>7.3f}")
        print(f"{'':>16} traced breakdown: {phases}")

    results["telemetry_overhead_ratio"] = worst
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nworst-case telemetry overhead ratio: {worst:.3f}  ->  {out}")
    if worst < 0.97:
        print("WARNING: tracing overhead exceeds the 3% contract")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
