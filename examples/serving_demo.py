"""A live sketch server: train in the background, serve coalesced reads.

Boots :class:`repro.serving.server.SketchServer` around a WM-Sketch,
streams training batches on a background thread (publishing a
consistent snapshot every few batches), and drives concurrent reader
threads through the micro-batching coalescer — then proves, with the
black-box :func:`repro.serving.checker.check_snapshot_consistency`
checker, that every concurrent answer is **bit-identical** to a
sequential re-execution of the same training stream.

What to look at in the output:

* the coalescer's batch-size histogram — concurrent requests really
  were flushed together as single fused kernel calls;
* the reader hash-cache hit rate — on the numpy backend, Zipf-skewed
  query keys keep the shared BatchHasher's memo warm across snapshot
  publishes (the compiled ``c`` backend hashes every key with no
  cache);
* the consistency verdict — coalescing and snapshotting changed
  *nothing* about any answer;
* the live telemetry view — the server's
  :class:`~repro.telemetry.MetricsRegistry` rendered as a terminal
  dashboard (counters, gauges, latency histograms with sparklines),
  plus a span-trace summary of where the run's wall time went.

Run:  PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like
from repro.serving import ServingClient, SketchServer, check_snapshot_consistency
from repro.telemetry import hooks, render_terminal, trace, validate_span_tree

TRAIN_EXAMPLES = 6_000
BATCH_SIZE = 8
PUBLISH_EVERY = 1      # snapshot every training batch
READERS = 4
READS_PER_READER = 40


def make_model():
    # Wide enough (2^17 x 3 buckets = 1536 chunks) that one publish
    # interval's writes (~32 examples x ~50 nnz x 3 rows) dirty only a
    # fraction of the chunks — the per-publish dirty-fraction lines
    # below then show the O(dirty) incremental path sharing clean
    # chunks instead of rebasing every time.
    return WMSketch(width=131_072, depth=3, seed=0, heap_capacity=128)


def reader(client, key_space, seed):
    """Mixed read workload: Zipf weight queries, predicts, top-k."""
    rng = np.random.default_rng(seed)
    for _ in range(READS_PER_READER):
        roll = rng.random()
        if roll < 0.6:
            n = 1 + int(rng.integers(0, 16))
            keys = ((rng.zipf(1.3, size=n) - 1) % key_space).astype(np.int64)
            client.query(keys)
        elif roll < 0.9:
            key = int(rng.integers(0, key_space))
            client.predict(
                np.array([key], dtype=np.int64),
                np.array([1.0], dtype=np.float64),
            )
        else:
            client.top_k(1 + int(rng.integers(0, 16)))


def main() -> None:
    spec = rcv1_like(scale=0.08)
    stream = spec.stream.materialize(TRAIN_EXAMPLES, seed_offset=5)
    batches = list(iter_batches(stream, BATCH_SIZE))

    server = SketchServer(make_model(), latency_budget=1e-3, max_batch=64)

    # Per-publish O(dirty) receipts: the on_publish hook fires on the
    # trainer thread right after the manager records the publish, so
    # reading the dirty-fraction gauge / chunks-copied counter here
    # captures each publish's own numbers (the counter is cumulative;
    # differencing it yields the per-publish chunk copies).
    publish_rows: list[tuple[int, float, int]] = []

    def record_publish(version, t, seconds):
        registry = server.telemetry
        copied = registry.counter("publish.chunks_copied").value
        prev_copied = publish_rows[-1][2] if publish_rows else 0
        fraction = registry.gauge("publish.dirty_fraction").value
        publish_rows.append((version, fraction, copied))
        # One publish per batch adds up to hundreds of lines; show the
        # first few (the rebase, then the chain settling) and every
        # 50th after that — the summary below aggregates the rest.
        if version <= 5 or version % 50 == 0:
            print(f"  publish v{version} @t={t}: dirty_fraction="
                  f"{fraction:.3f} chunks_copied={copied - prev_copied}")

    hooks.on_publish.append(record_publish)
    trace.clear()
    trace.enable()
    try:
        server.start_training(batches, publish_every=PUBLISH_EVERY)

        # Recording clients: every (op, payload, result, version) tuple
        # is kept so the checker can replay it afterwards.
        clients = [
            ServingClient(server, record=True) for _ in range(READERS)
        ]
        threads = [
            threading.Thread(target=reader, args=(c, spec.stream.d, i))
            for i, c in enumerate(clients)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        server.training_done.wait(120)

        stats = server.stats()
        print(f"trained {stats['train']['examples']:,} examples "
              f"({stats['snapshots']['published']} snapshots) while "
              f"serving {READERS * READS_PER_READER} concurrent reads")
        co = stats["coalescer"]
        print(f"coalescer: {sum(co['requests'].values())} requests in "
              f"{sum(co['flushes'].values())} flushes "
              f"(reasons {co['flush_reasons']})")
        for op, hist in co["batch_size_hist"].items():
            if hist:
                print(f"  {op:>8} batch sizes: {hist}")
        rh = stats["reader_hasher"]
        if rh["backend"] == "numpy":
            print(f"reader hash cache: hit_rate={rh['hit_rate']:.2f} "
                  f"over {rh['hits'] + rh['misses']} lookups")
        else:
            print(f"reader hash cache: none ({rh['backend']} hashes "
                  f"{rh['misses']} key positions with no cache)")

        # --- live telemetry: the registry behind all of the above ----
        print("\n=== live telemetry (server.telemetry.snapshot()) ===")
        print(render_terminal(server.telemetry.snapshot()))
        if publish_rows:
            fractions = [f for _, f, _ in publish_rows]
            print(f"incremental publishes: {len(publish_rows)} total, "
                  f"dirty fraction min/mean/max = {min(fractions):.3f}/"
                  f"{sum(fractions) / len(fractions):.3f}/"
                  f"{max(fractions):.3f}, "
                  f"{publish_rows[-1][2]} chunks copied overall")
    finally:
        trace.disable()
        server.close()
        hooks.on_publish.remove(record_publish)

    # Span traces: every timed tree from the run, validated (children
    # nested inside parents, no lost or double-counted time).
    roots = trace.drain()
    spans = sum(validate_span_tree(r) for r in roots)
    by_name: dict[str, float] = {}
    for r in roots:
        by_name[r.name] = by_name.get(r.name, 0.0) + r.seconds
    summary = ", ".join(
        f"{name} {1e3 * s:.1f}ms" for name, s in sorted(by_name.items())
    )
    print(f"trace reconstruction: OK ({len(roots)} roots, {spans} spans; "
          f"{summary})")

    # --- the receipt: replay every read against rebuilt snapshots ----
    records = [rec for c in clients for rec in c.records]
    report = check_snapshot_consistency(
        make_model,
        batches,
        server.snapshots.publish_log,
        [c.records for c in clients],
    )
    print(f"\nconsistency check: every one of {report['reads_checked']} "
          f"concurrent answers is bit-identical to a sequential "
          f"re-execution ({report['snapshots_rebuilt']} snapshots "
          f"rebuilt); {len(records)} reads recorded in total")


if __name__ == "__main__":
    main()
