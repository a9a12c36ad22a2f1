"""Update-throughput benchmark: per-example vs batched streaming engine.

Measures single-pass throughput (examples/sec) of the Fig. 7 runtime
workload — predict-then-update over an RCV1-like stream — for the
per-example path and the batched engine, and writes the results to
``BENCH_throughput.json`` at the repository root so the performance
trajectory is tracked from PR to PR.

Configurations:

* ``wm_algorithm1`` — the paper's Algorithm 1 WM-Sketch (width 2**13,
  depth 3, no auxiliary heap; the heap is this repo's optional top-K
  convenience, not part of Algorithm 1).  This is the headline number:
  the acceptance bar is ``speedup >= 5`` for the batched path.
* ``wm_with_heap`` — same sketch plus the passive top-128 store; since
  PR 3 the admission/eviction layer is the array-backed
  :class:`~repro.heap.topk.TopKStore` (vectorized membership masks,
  batched admission screens, per-batch slot caching), so the batched
  path amortizes the tracking layer too instead of paying sequential
  Python per feature.
* ``awm`` — the AWM-Sketch at the legacy small active set (128 of a
  2**13-cell budget).  The active set is load-bearing on every update,
  so the batched gain is bounded by how much of Algorithm 2 is
  heap-sided.
* ``awm_half_budget`` — the paper's best AWM configuration
  (Section 7.3): *half* the 2**13-cell budget on the active set
  (2048 slots at 2 cells each) over a depth-1 width-2**12 sketch.
  Most updates hit the store, which is exactly the regime the
  vectorized store was built for.
* ``hash`` — the feature-hashing baseline.

Both paths do identical work per example (the batched kernels return
each example's pre-update margin and reproduce the sequential state
bit-for-bit — asserted at the end of every run), so the ratio is pure
interpreter-overhead amortization: one vectorized, deduplicated,
cached hash per batch instead of two per example, margin reuse, and
the store's batch-level membership/screening amortization.

Backend axis (PR 4): every configuration can additionally be measured
under each available kernel backend (``--backends``; the default
``auto`` runs the NumPy reference plus the compiled ``c`` backend when
it builds).  The NumPy rows stay at the top level of
``BENCH_throughput.json`` — the schema the CI regression gate checks —
while extra backends land under ``"backends"`` and the compiled-vs-
numpy batched-throughput ratios under ``"backend_batched_ratio"``, so
the JSON records numpy vs compiled side by side.  When the ``c``
backend cannot build the compiled rows are skipped with a printed
notice (never silently), and the numpy rows are unaffected.

Timing discipline: each repeat round measures the per-example and the
batched paths back to back, and the reported numbers are the per-path
minima across rounds.  On shared/thermally-drifting machines this keeps
the speedup *ratio* meaningful — both paths get a sample of every
clock-speed window — where timing all repeats of one path first would
let a slow window poison exactly one side of the ratio.

Run::

    PYTHONPATH=src python benchmarks/bench_update_throughput.py
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like
from repro.evaluation.runtime import time_pass
from repro.learning.feature_hashing import FeatureHashing

WIDTH = 2**13
DEPTH = 3


def make_configs(backend: str | None) -> dict:
    """The benchmarked model factories, pinned to one kernel backend."""
    return {
        "wm_algorithm1": lambda: WMSketch(
            WIDTH, DEPTH, seed=0, heap_capacity=0, backend=backend
        ),
        "wm_with_heap": lambda: WMSketch(
            WIDTH, DEPTH, seed=0, heap_capacity=128, backend=backend
        ),
        "awm": lambda: AWMSketch(
            WIDTH, depth=1, heap_capacity=128, seed=0, backend=backend
        ),
        # Section 7.3 best configuration: half the WIDTH-cell budget on
        # the active set (2 cells per slot), depth-1 sketch on the rest.
        "awm_half_budget": lambda: AWMSketch(
            WIDTH // 2, depth=1, heap_capacity=WIDTH // 4, seed=0,
            backend=backend,
        ),
        "hash": lambda: FeatureHashing(WIDTH, seed=0, backend=backend),
    }


def resolve_backends(spec: str) -> list[str]:
    """Backend names to benchmark, with a notice for unavailable ones.

    ``auto`` = the NumPy reference plus the compiled backend when it
    builds.  Explicitly requested but unavailable backends are skipped
    with a printed notice (exit stays 0 — a numpy-only host is a valid
    benchmarking host, it just cannot produce compiled rows).
    """
    compiled = "c" in kernels.available_backends()
    if spec == "auto":
        names = ["numpy"]
        if compiled:
            names.append("c")
        else:
            print("notice: the c backend does not build here — compiled "
                  "backend rows will be absent from this run")
        return names
    names = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name == "auto":
            # Expand rather than record a literal 'auto' row — backend
            # sections must carry real backend names.
            if compiled and "c" not in names:
                names.append("c")
            continue
        try:
            kernels.get_backend(name, strict=True)
        except kernels.BackendUnavailableError as exc:
            print(f"notice: skipping backend {name!r}: {exc}")
            continue
        if name not in names:
            names.append(name)
    if "numpy" in names:
        names.remove("numpy")
    names.insert(0, "numpy")  # the reference rows are mandatory, first
    return names


def _state(clf):
    return clf.table.copy() * clf._scale


def bench_config(
    name, factory, examples, batch_size, repeats
) -> dict[str, float]:
    """Best-of-``repeats`` timings for one classifier configuration.

    All four measured paths run inside *each* repeat round (see the
    module docstring's timing-discipline note).
    """
    import time as _time

    def batched_with_build() -> float:
        # Batch construction included in the clock (the pessimistic
        # bound for callers that receive examples one at a time).
        clf = factory()
        start = _time.perf_counter()
        for b in iter_batches(examples, batch_size):
            clf.fit_batch(b)
        return _time.perf_counter() - start

    per_example = per_example_update_only = float("inf")
    batched = batched_incl_build = float("inf")
    for _ in range(repeats):
        per_example = min(
            per_example, time_pass(name, factory(), examples).seconds
        )
        per_example_update_only = min(
            per_example_update_only,
            time_pass(
                name, factory(), examples, with_prediction=False
            ).seconds,
        )
        batched = min(
            batched,
            time_pass(
                name, factory(), examples, batch_size=batch_size
            ).seconds,
        )
        batched_incl_build = min(batched_incl_build, batched_with_build())

    # Equivalence guard: the batched pass must land on the same state.
    seq = factory()
    for ex in examples:
        seq.update(ex)
    bat = factory()
    for b in iter_batches(examples, batch_size):
        bat.fit_batch(b)
    if not np.allclose(_state(seq), _state(bat), rtol=0, atol=0):
        raise AssertionError(f"{name}: batched state diverged from sequential")

    n = len(examples)
    return {
        "per_example_eps": n / per_example,
        "per_example_update_only_eps": n / per_example_update_only,
        "batched_eps": n / batched,
        "batched_including_batching_eps": n / batched_incl_build,
        "speedup": per_example / batched,
        "speedup_update_only": per_example_update_only / batched,
        "speedup_including_batching": per_example / batched_incl_build,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=4_000)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--backends", default="auto",
        help="comma-separated kernel backends to measure ('auto' = "
             "numpy plus c when it builds; numpy is always "
             "included — it is the reference schema the CI gate reads)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_throughput.json"),
    )
    args = parser.parse_args(argv)

    spec = rcv1_like(scale=0.08)
    examples = spec.stream.materialize(args.examples, seed_offset=5)
    backend_names = resolve_backends(args.backends)

    results: dict = {
        "workload": {
            "dataset": spec.name,
            "n_examples": args.examples,
            "batch_size": args.batch_size,
            "width": WIDTH,
            "depth": DEPTH,
            "pass": "predict-then-update (Fig. 7 single-pass workload)",
            "python": platform.python_version(),
            "kernel_backends": backend_names,
        },
        "backends": {},
    }
    for backend_name in backend_names:
        configs = make_configs(backend_name)
        print(f"\n[backend: {backend_name}]")
        print(f"{'config':>16} {'per-ex ex/s':>12} {'batched ex/s':>13} "
              f"{'speedup':>8}")
        target = (
            results if backend_name == "numpy"
            else results["backends"].setdefault(backend_name, {})
        )
        for name, factory in configs.items():
            row = bench_config(
                name, factory, examples, args.batch_size, args.repeats
            )
            target[name] = row
            print(f"{name:>16} {row['per_example_eps']:>12,.0f} "
                  f"{row['batched_eps']:>13,.0f} {row['speedup']:>7.2f}x")

    # Compiled-vs-numpy ratios, side by side per configuration: how much
    # the same (bit-identical) work speeds up when the kernels compile.
    ratios: dict = {}
    for backend_name, rows in results["backends"].items():
        ratios[backend_name] = {
            name: {
                "batched": rows[name]["batched_eps"]
                / results[name]["batched_eps"],
                "per_example": rows[name]["per_example_eps"]
                / results[name]["per_example_eps"],
            }
            for name in rows
        }
    results["backend_batched_ratio"] = ratios
    if ratios:
        print(f"\n{'config':>16} " + " ".join(
            f"{b + ' vs numpy':>18}" for b in ratios
        ))
        for name in next(iter(ratios.values())):
            print(f"{name:>16} " + " ".join(
                f"{ratios[b][name]['batched']:>17.2f}x" for b in ratios
            ))

    results["speedup"] = results["wm_algorithm1"]["speedup"]
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline (WM Algorithm 1) speedup: "
          f"{results['speedup']:.2f}x  ->  {out}")
    if results["speedup"] < 5.0:
        print("WARNING: headline speedup below the 5x acceptance bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
