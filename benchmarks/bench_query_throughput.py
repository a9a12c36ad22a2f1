"""Query/serving throughput: the read side of the Fig. 7 workload.

The paper motivates sketches that can be *queried* at high rate —
margins for incoming traffic and point-weight recoveries — not just
updated.  This benchmark measures the serving fast path shipped with
the fused kernels:

* **predict**: per-example ``predict_margin`` (hash + margin per call)
  vs ``predict_batch`` (one cached, deduplicated hash + one
  ``fused_predict`` kernel call for the whole batch).  Both are
  *bit-identical* — a served score does not depend on batching — so
  the speedup is pure amortization.
* **weight queries**: per-key ``estimate_weight`` vs ``query_many``
  (one cached hash + one ``fused_query`` gather/median call), again
  bit-identical.  A second, *hot* pass repeats the same key set so the
  cross-batch hash cache serves every key — the repeated-query regime
  of a dashboard or a top-K monitor.

Results land in ``BENCH_query.json`` at the repository root;
``benchmarks/gate.py query`` gates the
machine-independent speedup ratios (plus absolute floors) in CI.

Timing discipline matches ``bench_update_throughput``: every repeat
round times all paths back to back and the reported numbers are
per-path minima across rounds, so clock drift cannot poison one side
of a ratio.

Run::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py
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
from repro.learning.feature_hashing import FeatureHashing

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
        "hash": lambda: FeatureHashing(WIDTH, seed=0, backend=backend),
    }


def bench_config(factory, train_batches, examples, batches, keys,
                 repeats) -> dict:
    model = factory()
    for b in train_batches:
        model.fit_batch(b)

    def clock(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    n = len(examples)
    k = keys.size
    t = {name: float("inf") for name in (
        "predict_scalar", "predict_batch",
        "query_scalar", "query_many_cold", "query_many_hot",
    )}
    for _ in range(repeats):
        # Cold the hash cache before the scalar + cold-query rounds so
        # every path starts from the same cache state each round.
        model._batch_hasher.clear()
        t["predict_scalar"] = min(t["predict_scalar"], clock(
            lambda: [model.predict_margin(ex) for ex in examples]
        ))
        t["query_scalar"] = min(t["query_scalar"], clock(
            lambda: [model.estimate_weight(int(key)) for key in keys]
        ))
        model._batch_hasher.clear()
        t["query_many_cold"] = min(t["query_many_cold"], clock(
            lambda: model.query_many(keys)
        ))
        t["query_many_hot"] = min(t["query_many_hot"], clock(
            lambda: model.query_many(keys)
        ))
        t["predict_batch"] = min(t["predict_batch"], clock(
            lambda: [model.predict_batch(b) for b in batches]
        ))

    # Equivalence guard: batching must not change a single bit.
    scalar = np.array([model.predict_margin(ex) for ex in examples[:64]])
    batched = model.predict_batch(batches[0])[: scalar.size]
    if not np.array_equal(scalar, batched[: scalar.size]):
        raise AssertionError("predict_batch diverged from predict_margin")
    if not np.array_equal(model.query_many(keys),
                          model.estimate_weights(keys)):
        raise AssertionError("query_many diverged from estimate_weights")

    return {
        "predict_scalar_eps": n / t["predict_scalar"],
        "predict_batch_eps": n / t["predict_batch"],
        "predict_speedup": t["predict_scalar"] / t["predict_batch"],
        "query_scalar_kps": k / t["query_scalar"],
        "query_many_kps": k / t["query_many_cold"],
        "query_many_hot_kps": k / t["query_many_hot"],
        "query_speedup": t["query_scalar"] / t["query_many_cold"],
        "hot_over_cold": t["query_many_cold"] / t["query_many_hot"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-examples", type=int, default=4_000)
    parser.add_argument("--serve-examples", type=int, default=2_000)
    parser.add_argument("--keys", type=int, default=4_000)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_query.json"),
    )
    args = parser.parse_args(argv)

    spec = rcv1_like(scale=0.08)
    train = spec.stream.materialize(args.train_examples, seed_offset=5)
    serve = spec.stream.materialize(args.serve_examples, seed_offset=9)
    batches = list(iter_batches(train, args.batch_size))
    serve_batches = list(iter_batches(serve, args.batch_size))
    rng = np.random.default_rng(7)
    keys = rng.integers(0, spec.stream.d, size=args.keys).astype(np.int64)

    results: dict = {
        "workload": {
            "dataset": spec.name,
            "train_examples": args.train_examples,
            "serve_examples": args.serve_examples,
            "n_keys": args.keys,
            "batch_size": args.batch_size,
            "width": WIDTH,
            "depth": DEPTH,
            "python": platform.python_version(),
            "kernel_backend": kernels.active_backend_name(),
        },
    }
    print(f"{'config':>16} {'pred scalar':>12} {'pred batch':>12} "
          f"{'speedup':>8} {'qry speedup':>12} {'hot/cold':>9}")
    for name, factory in make_configs(None).items():
        row = bench_config(
            factory, batches, serve, serve_batches, keys, args.repeats
        )
        results[name] = row
        print(f"{name:>16} {row['predict_scalar_eps']:>12,.0f} "
              f"{row['predict_batch_eps']:>12,.0f} "
              f"{row['predict_speedup']:>7.2f}x "
              f"{row['query_speedup']:>11.2f}x "
              f"{row['hot_over_cold']:>8.2f}x")

    results["predict_speedup"] = results["wm"]["predict_speedup"]
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nheadline (WM) batched-vs-scalar predict speedup: "
          f"{results['predict_speedup']:.2f}x  ->  {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
