"""Command-line interface: ``python -m repro <command>``.

A small operational layer so the library can be driven without writing
code — useful for smoke-testing an install, exploring the
memory-accuracy trade-off, or generating the paper-style comparison on
a chosen budget.

Commands
--------
``compare``
    Run all budgeted methods on a dataset preset and print recovery +
    accuracy (the Fig. 3/6 view) under the unconstrained LR's error and
    the stream's majority-class error (its label prior), e.g.::

        python -m repro compare --dataset rcv1 --budget-kb 8 --examples 4000

``configs``
    Show the per-budget configuration search space and the default
    layouts (the Table 2 view)::

        python -m repro configs --budget-kb 8

``theory``
    Evaluate the Theorem 1/2 sizing for given parameters::

        python -m repro theory --d 100000 --epsilon 0.1 --lambda 1e-5

``parallel``
    Train with the sharded-worker subsystem (``--workers`` processes,
    merged sketches) and report throughput plus top-K agreement with a
    single-stream model; ``--task`` also runs each Section 8 app
    sharded::

        python -m repro parallel --workers 4 --examples 20000
        python -m repro parallel --workers 4 --task deltoids

``serve``
    Stand up an in-process :class:`~repro.serving.server.SketchServer`
    (background trainer + micro-batching coalescer), drive concurrent
    reader threads against it while it trains, verify the whole history
    with the black-box snapshot-consistency checker, and print the
    ``stats()`` endpoint::

        python -m repro serve --examples 8000 --readers 4

``loadgen``
    Load-generate against an in-process server: closed-loop saturation
    throughput (coalesced vs serial-scalar baseline) or open-loop
    latency percentiles at an offered rate::

        python -m repro loadgen --mode closed --clients 16
        python -m repro loadgen --mode open --rps 2000

``telemetry``
    Render a :mod:`repro.telemetry` registry snapshot — a terminal
    dashboard, Prometheus text exposition, or raw JSON — either from a
    dump written by ``serve --telemetry-json`` or from a fresh live
    serving run::

        python -m repro telemetry --format terminal
        python -m repro telemetry --json snap.json --format prometheus
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import kernels
from repro.core.config import (
    default_awm_config,
    default_wm_config,
    enumerate_sketch_configs,
)
from repro.core.theory import theorem1_sizing, theorem2_sample_size
from repro.data.datasets import ALL_PRESETS
from repro.evaluation.harness import RecoveryExperiment


def _cmd_compare(args: argparse.Namespace) -> int:
    preset = ALL_PRESETS.get(f"{args.dataset}_like")
    if preset is None:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from rcv1, url, kdda", file=sys.stderr)
        return 2
    spec = preset(seed=args.seed)
    batch_size = args.batch_size if args.batch_size > 0 else None
    print(f"dataset={spec.name} d={spec.stream.d:,} "
          f"examples={args.examples:,} lambda={args.lambda_:g} "
          f"batch_size={batch_size or 'off (per-example)'} "
          f"backend={kernels.active_backend_name()}")
    examples = spec.stream.materialize(args.examples)
    experiment = RecoveryExperiment(
        examples,
        d=spec.stream.d,
        lambda_=args.lambda_,
        ks=(args.k,),
        batch_size=batch_size,
    )
    reference = experiment.reference_result()
    print(f"\nunconstrained LR: error {reference.error_rate:.4f} "
          f"({reference.memory_bytes / 1024:.0f} KB)")
    # Always predicting the majority label errs on the minority share:
    # an error every method matches may be only this label prior.
    n = len(examples)
    positive = sum(ex.label > 0 for ex in examples)
    print(f"majority class:   error {min(positive, n - positive) / n:.4f} "
          f"({positive / n:.1%} positive)\n")
    results = experiment.run_budget(args.budget_kb * 1024, seed=args.seed)
    print(f"{'method':>7} {'RelErr@' + str(args.k):>11} {'error':>8} "
          f"{'KB':>6}")
    for name, res in sorted(results.items(),
                            key=lambda kv: kv[1].rel_err[args.k]):
        print(f"{name:>7} {res.rel_err[args.k]:>11.3f} "
              f"{res.error_rate:>8.4f} {res.memory_bytes / 1024:>6.1f}")
    return 0


def _cmd_configs(args: argparse.Namespace) -> int:
    budget = args.budget_kb * 1024
    awm = default_awm_config(budget)
    wm = default_wm_config(budget)
    print(f"budget: {args.budget_kb} KB ({budget // 4} cells)")
    print(f"default AWM layout: |S|={awm.heap_capacity} "
          f"width={awm.width} depth={awm.depth} ({awm.bytes} B)")
    print(f"default WM layout:  |S|={wm.heap_capacity} "
          f"width={wm.width} depth={wm.depth} ({wm.bytes} B)")
    sweep = enumerate_sketch_configs(budget)
    print(f"\nsearch space ({len(sweep)} configurations):")
    for cfg in sweep:
        print(f"  |S|={cfg.heap_capacity:>5} width={cfg.width:>6} "
              f"depth={cfg.depth:>3}  ({cfg.bytes} B)")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    sizing = theorem1_sizing(
        args.d, epsilon=args.epsilon, delta=args.delta,
        lambda_=args.lambda_,
    )
    t = theorem2_sample_size(
        args.d, epsilon=args.epsilon, delta=args.delta,
        lambda_=args.lambda_,
    )
    print(f"Theorem 1 sizing for d={args.d:,}, eps={args.epsilon}, "
          f"delta={args.delta}, lambda={args.lambda_:g}:")
    print(f"  k (cells) = {sizing.size:,}")
    print(f"  s (depth) = {sizing.depth:,}")
    print(f"  width     = {sizing.width:,}")
    print(f"  memory    = {4 * sizing.size / 2**20:.2f} MB at 4 B/cell")
    print(f"Theorem 2 minimum stream length: T >= {t:,}")
    dense = 4 * args.d
    print(f"(dense weights would use {dense / 2**20:.2f} MB)")
    return 0


def _parallel_factory(method: str, budget_bytes: int, seed: int):
    """(picklable factory, kwargs) for one sharded-training method.

    The models follow the process default backend; worker processes
    inherit ``REPRO_KERNEL_BACKEND`` with the rest of the environment.
    """
    from repro.core.awm_sketch import AWMSketch
    from repro.core.config import (
        default_awm_config,
        default_wm_config,
        feature_hashing_width,
    )
    from repro.core.wm_sketch import WMSketch
    from repro.learning.feature_hashing import FeatureHashing

    if method == "wm":
        cfg = default_wm_config(budget_bytes)
        return WMSketch, dict(
            width=cfg.width, depth=cfg.depth,
            heap_capacity=cfg.heap_capacity, seed=seed,
        )
    if method == "awm":
        cfg = default_awm_config(budget_bytes)
        return AWMSketch, dict(
            width=cfg.width, depth=cfg.depth,
            heap_capacity=cfg.heap_capacity, seed=seed,
        )
    if method == "hash":
        return FeatureHashing, dict(
            width=feature_hashing_width(budget_bytes), seed=seed,
        )
    raise ValueError(f"unknown method {method!r}")


def _cmd_parallel(args: argparse.Namespace) -> int:
    import time

    from repro.parallel import ParallelHarness

    if args.task != "classify":
        return _cmd_parallel_app(args)

    preset = ALL_PRESETS.get(f"{args.dataset}_like")
    if preset is None:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from rcv1, url, kdda", file=sys.stderr)
        return 2
    spec = preset(seed=args.seed)
    examples = spec.stream.materialize(args.examples)
    factory, kwargs = _parallel_factory(
        args.method, args.budget_kb * 1024, args.seed
    )
    print(f"dataset={spec.name} examples={len(examples):,} "
          f"method={args.method} workers={args.workers} "
          f"batch_size={args.batch_size} "
          f"backend={kernels.active_backend_name()}")

    # Single-stream reference for the top-K agreement report.
    single = factory(**kwargs)
    start = time.perf_counter()
    single.fit(examples, batch_size=args.batch_size)
    single_s = time.perf_counter() - start

    with ParallelHarness(
        factory,
        kwargs,
        n_workers=args.workers,
        batch_size=args.batch_size,
        seed=args.seed,
    ) as harness:
        start = time.perf_counter()
        merged = harness.fit(examples)
        wall_s = time.perf_counter() - start
        critical_s = max(
            (r.train_seconds for r in harness.last_results), default=0.0
        )
        sizes = [r.n_examples for r in harness.last_results]

    k = args.k
    if hasattr(single, "top_weights_from_candidates"):
        seen: set[int] = set()
        for ex in examples:
            seen.update(ex.indices.tolist())
        import numpy as np

        candidates = np.fromiter(seen, dtype=np.int64, count=len(seen))
        top_single = single.top_weights_from_candidates(candidates, k)
        top_merged = merged.top_weights_from_candidates(candidates, k)
    else:
        top_single = single.top_weights(k)
        top_merged = merged.top_weights(k)
    overlap = len(
        {i for i, _ in top_single} & {i for i, _ in top_merged}
    ) / max(k, 1)

    print(f"\nsingle-stream: {len(examples) / single_s:,.0f} ex/s")
    print(f"sharded wall:  {len(examples) / wall_s:,.0f} ex/s "
          f"(this machine; shard sizes {sizes})")
    if critical_s > 0:
        print(f"critical path: {len(examples) / critical_s:,.0f} ex/s "
              f"(slowest worker; the >= {args.workers}-core bound)")
    print(f"top-{k} overlap merged vs single-stream: {overlap:.2f}")
    print(f"merged model: t={merged.t:,} merged_from={merged.merged_from}")
    return 0


def _cmd_parallel_app(args: argparse.Namespace) -> int:
    """Run one Section 8 application with sharded training.

    Honors ``--method`` (wm / awm — feature hashing stores no feature
    identifiers, so it cannot enumerate top attributes/deltoids/pairs)
    and ``--budget-kb``; ``--dataset`` / ``--k`` apply to the
    ``classify`` task only.
    """
    from repro.parallel import ParallelHarness

    if args.method == "hash":
        print(
            "feature hashing stores no identifiers and cannot enumerate "
            "top attributes/deltoids/pairs; use --method wm or awm for "
            "app tasks",
            file=sys.stderr,
        )
        return 2
    factory, kwargs = _parallel_factory(
        args.method, args.budget_kb * 1024, args.seed
    )
    with ParallelHarness(
        factory,
        kwargs,
        n_workers=args.workers,
        batch_size=args.batch_size,
        seed=args.seed,
    ) as harness:
        if args.task == "explain":
            from repro.apps.explanation import StreamingExplainer
            from repro.data.fec import FECLikeStream

            data = FECLikeStream(seed=args.seed)
            app = StreamingExplainer(factory(**kwargs))
            app.consume_parallel(
                data.examples(args.examples), harness
            )
            print(f"top attributes ({args.workers} workers):")
            for attr, w in app.top_attributes(10):
                print(f"  attribute {attr:>7}  weight {w:+.3f}")
        elif args.task == "deltoids":
            from repro.apps.deltoids import ClassifierDeltoid
            from repro.data.network import PacketTrace

            trace = PacketTrace(n_addresses=10_000, seed=args.seed)
            app = ClassifierDeltoid(factory(**kwargs))
            app.consume_parallel(
                trace.packets(args.examples), harness
            )
            print(f"top deltoids ({args.workers} workers):")
            for addr, logr in app.top_deltoids(10):
                print(f"  address {addr:>7}  log-ratio {logr:+.3f}")
        elif args.task == "pmi":
            from repro.apps.pmi import StreamingPMI
            from repro.data.text import CollocationCorpus

            corpus = CollocationCorpus(vocab=2_000, seed=args.seed)
            app = StreamingPMI(
                vocab=corpus.vocab,
                classifier=factory(**kwargs),
            )
            app.consume_parallel(
                corpus.pairs(args.examples), harness
            )
            print(f"top PMI pairs ({args.workers} workers):")
            for u, v, pmi in app.top_pairs(10):
                print(f"  ({u:>5}, {v:>5})  PMI {pmi:+.3f}")
        else:
            print(f"unknown task {args.task!r}", file=sys.stderr)
            return 2
    print(f"classifier: t={app.classifier.t:,} "
          f"merged_from={app.classifier.merged_from}")
    return 0


def _cmd_ps(args: argparse.Namespace) -> int:
    """Run the stale-synchronous parameter-server loop on a preset."""
    from repro.parallel import PSHarness

    if args.method != "wm":
        # Delta sync needs write-site dirty tracking with no cross-model
        # feedback; the AWM active set and the dense baseline fail that
        # contract (PSHarness would raise the same refusal).
        print(
            "delta sync supports --method wm only (AWM's active set "
            "feeds back into training and cannot be delta-merged)",
            file=sys.stderr,
        )
        return 2
    preset = ALL_PRESETS.get(f"{args.dataset}_like")
    if preset is None:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from rcv1, url, kdda", file=sys.stderr)
        return 2
    spec = preset(seed=args.seed)
    examples = spec.stream.materialize(args.examples)
    factory, kwargs = _parallel_factory(
        "wm", args.budget_kb * 1024, args.seed
    )
    print(f"dataset={spec.name} examples={len(examples):,} "
          f"workers={args.workers} staleness={args.staleness} "
          f"sync_every={args.sync_every} "
          f"backend={kernels.active_backend_name()}")

    harness = PSHarness(
        factory,
        kwargs,
        n_workers=args.workers,
        staleness=args.staleness,
        sync_every=args.sync_every,
        batch_size=args.batch_size,
        seed=args.seed,
        publish_every=args.publish_every,
    )
    model = harness.fit(examples)

    stats = harness.stats()
    counters = stats["counters"]
    pushes = counters["ps.push.count"]
    pulls = counters["ps.pull.count"]
    print(f"\npushes: {pushes:,}  "
          f"mean delta {counters['ps.push.delta_bytes'] / pushes:,.0f} B  "
          f"vs full-state {counters['ps.push.full_table_bytes'] / pushes:,.0f} B  "
          f"-> {harness.delta_bytes_ratio():.1f}x fewer bytes shipped")
    if pulls:
        print(f"pulls:  {pulls:,}  "
              f"mean {counters['ps.pull.bytes'] / pulls:,.0f} B")
    stale = stats["histograms"]["ps.staleness"]
    print(f"staleness: mean {stale['sum'] / max(stale['count'], 1):.2f}  "
          f"max {stale['max'] or 0:.0f}  "
          f"(bound s={args.staleness}); "
          f"SSP blocked {counters.get('ps.ssp.blocked', 0):,} rounds")
    print(f"publishes: {counters.get('ps.publish.count', 0):,} snapshots  "
          f"folds: {counters.get('ps.fold.count', 0):,}  "
          f"promo keys folded: {counters.get('ps.promo.keys', 0):,}")
    print(f"modeled critical path: "
          f"{len(examples) / harness.modeled_wall_seconds():,.0f} ex/s "
          f"(driver {harness.driver_seconds:.3f}s serialized)")
    print(f"\ntop-{args.k} recovered weights (global model, t={model.t:,}):")
    for idx, w in model.top_weights(args.k):
        print(f"  feature {idx:>8}  weight {w:+.4f}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault-injection run + exact-recovery verdict."""
    import json
    from pathlib import Path

    from repro.resilience.chaos import run_chaos

    print(f"chaos: seed={args.seed} workers={args.workers} "
          f"staleness={args.staleness} examples={args.examples:,} "
          f"sync_every={args.sync_every}")
    report = run_chaos(
        seed=args.seed, n_workers=args.workers, staleness=args.staleness,
        n_examples=args.examples, d=args.d, sync_every=args.sync_every,
        batch_size=args.batch_size,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    faults = report["faults"]
    print(f"faults fired: {faults['fired']} {faults['by_action']} "
          f"(unfired: {faults['unfired']})")
    for ev in report["events"]:
        if ev["event"] == "recover":
            print(f"  clock {ev['clock']:>3}: worker {ev['worker']} "
                  f"respawned at round {ev['round']} "
                  f"({ev['pull_bytes']:,}B full-state pull, "
                  f"{ev['wall_seconds'] * 1e3:.2f}ms)")
        else:
            print(f"  clock {ev['clock']:>3}: worker {ev['worker']} "
                  f"{ev['event']} at round {ev['round']}")
    c = report["counters"]
    print(f"wire: {c['wire_dropped']} dropped, "
          f"{c['corrupt_rejected']} corrupt-rejected, "
          f"{c['duplicates_deduped']} duplicates deduped, "
          f"{c['retries']} retries")
    print(f"liveness: {c['crashes']} crashes, {c['recoveries']} respawns, "
          f"{c['heartbeats_missed']} heartbeats missed")
    cons = report["consistency"]
    if not cons.get("checked"):
        print("snapshot consistency: SKIPPED")
        cons_ok = True
    elif cons.get("ok"):
        print(f"snapshot consistency: PASS "
              f"({cons['snapshots_rebuilt']} snapshots rebuilt, "
              f"{cons['reads_checked']} mid-fault reads)")
        cons_ok = True
    else:
        print(f"snapshot consistency: FAIL ({cons.get('error')})")
        cons_ok = False
    if report["bit_identical"]:
        print("final table vs fault-free single-stream: BIT-IDENTICAL")
    else:
        print(f"final table vs fault-free single-stream: DIVERGED "
              f"(max |diff| = {report['max_abs_diff']:.3e})")
    if args.json is not None:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"chaos report -> {args.json}")
    return 0 if (report["bit_identical"] and cons_ok) else 1


def _serving_model(args):
    """One live model for the serve/loadgen/telemetry subcommands."""
    factory, kwargs = _parallel_factory(
        args.method, args.budget_kb * 1024, args.seed
    )
    return factory(**kwargs)


def _install_graceful_close(server) -> None:
    """Drain the server when the process exits, however it exits.

    ``SketchServer.close`` is idempotent and bounded, so registering it
    with ``atexit`` is safe alongside the explicit close on the happy
    path and the SIGINT (``KeyboardInterrupt``) drain path.
    """
    import atexit

    atexit.register(server.close)


def _interrupted_drain(server, args) -> int:
    """SIGINT landed mid-run: drain in-flight reads within a bounded
    deadline, flush telemetry if a dump path was requested, and exit
    with the conventional interrupted status."""
    from pathlib import Path

    from repro.telemetry import to_json

    print("\ninterrupted — draining in-flight requests (10s bound) "
          "and flushing telemetry", file=sys.stderr)
    server.close(timeout=10.0)
    dump = getattr(args, "telemetry_json", None)
    if dump is not None:
        Path(dump).write_text(to_json(server.telemetry.snapshot()) + "\n")
        print(f"telemetry snapshot -> {dump}", file=sys.stderr)
    return 130


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import threading
    from pathlib import Path

    import numpy as np

    from repro.data.batch import iter_batches
    from repro.serving import ServingClient, SketchServer, check_snapshot_consistency
    from repro.telemetry import to_json, trace, validate_span_tree

    preset = ALL_PRESETS.get(f"{args.dataset}_like")
    if preset is None:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from rcv1, url, kdda", file=sys.stderr)
        return 2
    spec = preset(seed=args.seed)
    examples = spec.stream.materialize(args.examples)
    batches = list(iter_batches(examples, args.batch_size))
    make = lambda: _serving_model(args)  # noqa: E731

    print(f"dataset={spec.name} examples={len(examples):,} "
          f"method={args.method} budget={args.budget_kb}KB "
          f"latency_budget={args.latency_budget_ms:g}ms "
          f"max_batch={args.max_batch} "
          f"backend={kernels.active_backend_name()}")
    server = SketchServer(
        make(),
        latency_budget=args.latency_budget_ms * 1e-3,
        max_batch=args.max_batch,
        publish_every=args.publish_every,
    )
    _install_graceful_close(server)
    want_trace = args.trace or args.trace_json is not None
    if want_trace:
        trace.clear()
        trace.enable()
    server.start_training(batches)
    clients = [
        ServingClient(server, record=True) for _ in range(args.readers)
    ]

    def reader(client, seed):
        rng = np.random.default_rng(seed)
        top_k_ok = args.method != "hash"
        for _ in range(args.reads):
            op = int(rng.integers(0, 3 if top_k_ok else 2))
            if op == 0:
                keys = ((rng.zipf(1.3, size=8) - 1) % spec.stream.d)
                client.query(keys.astype(np.int64))
            elif op == 1:
                i = int(rng.integers(0, len(examples)))
                client.predict(examples[i].indices, examples[i].values)
            else:
                client.top_k(1 + int(rng.integers(0, 32)))

    threads = [
        threading.Thread(target=reader, args=(c, 100 + i), daemon=True)
        for i, c in enumerate(clients)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.training_done.wait(300.0)
        server.close()
    except KeyboardInterrupt:
        return _interrupted_drain(server, args)
    if want_trace:
        trace.disable()
        roots = trace.drain()

    report = check_snapshot_consistency(
        make, batches, server.snapshots.publish_log,
        [c.records for c in clients],
    )
    stats = server.stats()
    print(f"\ntrained {stats['train']['examples']:,} examples in "
          f"{stats['train']['seconds']:.2f}s while serving "
          f"{report['reads_checked']} concurrent reads")
    print(f"snapshots published: {stats['snapshots']['published']} "
          f"(current v{stats['snapshots']['current_version']})")
    hasher = stats["reader_hasher"]
    if hasher["backend"] == "numpy":
        print(f"reader hash cache: hit_rate={hasher['hit_rate']:.2f} "
              f"evictions={hasher['evictions']} "
              f"keys={hasher['cached_keys']:,}")
    else:
        print(f"reader hash cache: none ({hasher['backend']} hashes "
              f"{hasher['misses']:,} key positions with no cache)")
    co = stats["coalescer"]
    print(f"coalescer: {sum(co['requests'].values())} requests in "
          f"{sum(co['flushes'].values())} flushes "
          f"(reasons {co['flush_reasons']})")
    for op, hist in co["batch_size_hist"].items():
        if hist:
            print(f"  {op:>8} batch sizes: {hist}")
    print(f"consistency check: PASS ({report['reads_checked']} reads "
          f"vs {report['snapshots_rebuilt']} rebuilt snapshots)")
    if want_trace:
        spans = sum(validate_span_tree(r) for r in roots)
        names = sorted({r.name for r in roots})
        print(f"trace reconstruction: OK ({len(roots)} roots, "
              f"{spans} spans; roots {names})")
        if args.trace_json is not None:
            Path(args.trace_json).write_text(json.dumps(
                [r.to_dict() for r in roots], indent=2
            ) + "\n")
            print(f"trace trees -> {args.trace_json}")
    if args.telemetry_json is not None:
        Path(args.telemetry_json).write_text(
            to_json(server.telemetry.snapshot()) + "\n"
        )
        print(f"telemetry snapshot -> {args.telemetry_json}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.data.batch import iter_batches
    from repro.serving import SketchServer
    from repro.serving.loadgen import (
        build_requests,
        run_closed_loop,
        run_open_loop,
    )

    preset = ALL_PRESETS.get(f"{args.dataset}_like")
    if preset is None:
        print(f"unknown dataset {args.dataset!r}; "
              f"choose from rcv1, url, kdda", file=sys.stderr)
        return 2
    spec = preset(seed=args.seed)
    train = spec.stream.materialize(args.examples)
    held_out = spec.stream.materialize(512, seed_offset=9)
    model = _serving_model(args)
    for batch in iter_batches(train, args.batch_size):
        model.fit_batch(batch)
    mix = (("query", 0.6), ("predict", 0.3), ("top_k", 0.1))
    if args.method == "hash":
        mix = (("query", 0.65), ("predict", 0.35))
    requests = build_requests(
        args.requests, key_space=spec.stream.d, examples=held_out,
        seed=args.seed, mix=mix,
    )
    shedding = args.max_pending is not None or args.deadline_ms is not None
    server = SketchServer(
        model,
        latency_budget=args.latency_budget_ms * 1e-3,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        default_deadline=(
            None if args.deadline_ms is None else args.deadline_ms * 1e-3
        ),
    )
    _install_graceful_close(server)
    print(f"dataset={spec.name} method={args.method} "
          f"requests={args.requests:,} mode={args.mode} "
          f"backend={kernels.active_backend_name()}")
    try:
        if args.mode == "closed":
            elapsed, _ = run_closed_loop(
                server, requests, n_clients=args.clients, serial=args.serial
            )
            label = "serial-scalar" if args.serial else "coalesced"
            print(f"{label}: {len(requests) / elapsed:,.0f} req/s "
                  f"({args.clients} closed-loop clients, "
                  f"{elapsed:.2f}s)")
        else:
            # Latencies accumulate in a bounded telemetry histogram
            # (O(buckets) memory however long the run).  With admission
            # control on, typed rejections are counted, not raised —
            # the histogram then reports goodput, not offered load.
            shed = {} if shedding else None
            lat_hist, elapsed = run_open_loop(
                server, requests, offered_rps=args.rps, seed=args.seed,
                shed_counts=shed,
            )
            print(f"offered {args.rps:,.0f} req/s, completed "
                  f"{lat_hist.count / elapsed:,.0f} req/s")
            print(f"latency p50={lat_hist.percentile(50) * 1e3:.2f}ms "
                  f"p90={lat_hist.percentile(90) * 1e3:.2f}ms "
                  f"p99={lat_hist.percentile(99) * 1e3:.2f}ms "
                  f"max={lat_hist.max_value * 1e3:.2f}ms")
            if shed is not None:
                print(f"admission control: {shed['completed']} completed, "
                      f"{shed['overload']} shed at admission (Overload), "
                      f"{shed['deadline']} failed in queue "
                      f"(DeadlineExceeded)")
        co = server.coalescer.stats()
        sizes = {}
        for hist in co["batch_size_hist"].values():
            for size, count in hist.items():
                sizes[size] = sizes.get(size, 0) + count
        if sizes and not args.serial:
            mean = sum(s * c for s, c in sizes.items()) / sum(sizes.values())
            print(f"coalesced batch size: mean {mean:.1f}, "
                  f"max {max(sizes)}")
    except KeyboardInterrupt:
        return _interrupted_drain(server, args)
    finally:
        server.close()
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Render a telemetry snapshot, from a dump or a fresh live run."""
    import json

    from repro.telemetry import render_terminal, to_json, to_prometheus

    if args.json is not None:
        with open(args.json) as fh:
            snapshot = json.load(fh)
    else:
        # No dump given: run a short live workload (train + concurrent
        # coalesced reads) and render the server's own registry.
        import numpy as np

        from repro.data.batch import iter_batches
        from repro.serving import ServingClient, SketchServer

        preset = ALL_PRESETS.get(f"{args.dataset}_like")
        if preset is None:
            print(f"unknown dataset {args.dataset!r}; "
                  f"choose from rcv1, url, kdda", file=sys.stderr)
            return 2
        spec = preset(seed=args.seed)
        examples = spec.stream.materialize(args.examples)
        batches = list(iter_batches(examples, args.batch_size))
        server = SketchServer(
            _serving_model(args),
            latency_budget=args.latency_budget_ms * 1e-3,
            max_batch=args.max_batch,
        )
        try:
            server.start_training(batches)
            client = ServingClient(server)
            rng = np.random.default_rng(args.seed)
            for _ in range(args.reads):
                keys = ((rng.zipf(1.3, size=8) - 1) % spec.stream.d)
                client.query(keys.astype(np.int64))
            server.training_done.wait(300.0)
        finally:
            server.close()
        snapshot = server.telemetry.snapshot()

    if args.format == "json":
        print(to_json(snapshot))
    elif args.format == "prometheus":
        print(to_prometheus(snapshot), end="")
    else:
        print(render_terminal(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weight-Median Sketch reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run all budgeted methods on a dataset preset"
    )
    compare.add_argument("--dataset", default="rcv1",
                         choices=("rcv1", "url", "kdda"))
    compare.add_argument("--budget-kb", type=int, default=8)
    compare.add_argument("--examples", type=int, default=4_000)
    compare.add_argument("--k", type=int, default=128)
    compare.add_argument("--lambda", dest="lambda_", type=float,
                         default=1e-6)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--batch-size", type=int, default=256,
        help="mini-batch size for the batched streaming engine "
             "(0 = per-example updates; results are identical either "
             "way, batching is faster)",
    )
    compare.set_defaults(func=_cmd_compare)

    configs = sub.add_parser(
        "configs", help="show per-budget sketch configurations"
    )
    configs.add_argument("--budget-kb", type=int, default=8)
    configs.set_defaults(func=_cmd_configs)

    parallel = sub.add_parser(
        "parallel",
        help="sharded training: partition the stream across worker "
             "processes, merge the sketches",
    )
    parallel.add_argument(
        "--workers", type=int, default=4,
        help="number of shards / worker processes (1 trains in-process)",
    )
    parallel.add_argument(
        "--task", default="classify",
        choices=("classify", "explain", "deltoids", "pmi"),
        help="classify = dataset-preset comparison vs single-stream; "
             "explain/deltoids/pmi run the Section 8 apps sharded",
    )
    parallel.add_argument("--dataset", default="rcv1",
                          choices=("rcv1", "url", "kdda"),
                          help="dataset preset (classify task only)")
    parallel.add_argument("--method", default="wm",
                          choices=("wm", "awm", "hash"),
                          help="hash is classify-only (it stores no "
                               "feature identifiers)")
    parallel.add_argument("--budget-kb", type=int, default=8)
    parallel.add_argument("--examples", type=int, default=8_000)
    parallel.add_argument("--batch-size", type=int, default=256)
    parallel.add_argument("--k", type=int, default=64,
                          help="top-K for the overlap report "
                               "(classify task only)")
    parallel.add_argument("--seed", type=int, default=0)
    parallel.set_defaults(func=_cmd_parallel)

    ps = sub.add_parser(
        "ps",
        help="stale-synchronous parameter-server loop: workers push "
             "O(dirty) chunk deltas, pull merged state under a bounded-"
             "staleness barrier",
    )
    ps.add_argument("--dataset", default="rcv1",
                    choices=("rcv1", "url", "kdda"))
    ps.add_argument("--method", default="wm", choices=("wm",),
                    help="delta sync is WM-only (the AWM active set "
                         "feeds back into training)")
    ps.add_argument("--budget-kb", type=int, default=8)
    ps.add_argument("--examples", type=int, default=8_000)
    ps.add_argument("--workers", type=int, default=4)
    ps.add_argument("--staleness", type=int, default=1,
                    help="SSP bound s: fastest worker may lead the "
                         "slowest by at most s rounds (0 = bulk-"
                         "synchronous, bit-identical to single-stream "
                         "in the data-linear regime)")
    ps.add_argument("--sync-every", type=int, default=256,
                    help="examples per worker round (one push per round)")
    ps.add_argument("--batch-size", type=int, default=64)
    ps.add_argument("--publish-every", type=int, default=1,
                    help="pushes between serving-snapshot publishes "
                         "(0 disables serving integration)")
    ps.add_argument("--k", type=int, default=10,
                    help="top-K weights printed from the global model")
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=_cmd_ps)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run against the PS loop (crash / "
             "stall / drop / duplicate / corrupt), verified to recover "
             "bit-identically to the fault-free reference",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="drives the fault schedule AND the "
                            "corruption content — same seed, same chaos")
    chaos.add_argument("--workers", type=int, default=4)
    chaos.add_argument("--staleness", type=int, default=0)
    chaos.add_argument("--examples", type=int, default=600)
    chaos.add_argument("--d", type=int, default=1200,
                       help="feature dimension of the synthetic stream")
    chaos.add_argument("--sync-every", type=int, default=50)
    chaos.add_argument("--batch-size", type=int, default=50)
    chaos.add_argument("--heartbeat-timeout", type=int, default=2,
                       help="scheduler ticks before a silent worker is "
                            "declared dead and respawned")
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="write the full recovery report to PATH")
    chaos.set_defaults(func=_cmd_chaos)

    def _serving_common(p):
        p.add_argument("--dataset", default="rcv1",
                       choices=("rcv1", "url", "kdda"))
        p.add_argument("--method", default="wm",
                       choices=("wm", "awm", "hash"))
        p.add_argument("--budget-kb", type=int, default=8)
        p.add_argument("--examples", type=int, default=6_000)
        p.add_argument("--batch-size", type=int, default=256)
        p.add_argument("--latency-budget-ms", type=float, default=1.0,
                       help="coalescer flush budget in milliseconds")
        p.add_argument("--max-batch", type=int, default=64,
                       help="coalescer flush bound in requests")
        p.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="live server demo: background training + coalesced "
             "concurrent reads, verified by the consistency checker",
    )
    _serving_common(serve)
    serve.add_argument("--readers", type=int, default=4,
                       help="concurrent reader threads")
    serve.add_argument("--reads", type=int, default=30,
                       help="reads issued per reader thread")
    serve.add_argument("--publish-every", type=int, default=2,
                       help="training batches between snapshot publishes")
    serve.add_argument("--trace", action="store_true",
                       help="enable span tracing for the run and print a "
                            "trace-reconstruction summary")
    serve.add_argument("--telemetry-json", default=None, metavar="PATH",
                       help="dump the server's telemetry registry "
                            "snapshot to PATH as JSON")
    serve.add_argument("--trace-json", default=None, metavar="PATH",
                       help="dump the run's trace trees to PATH as JSON "
                            "(implies --trace)")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive open- or closed-loop load at an in-process server",
    )
    _serving_common(loadgen)
    loadgen.add_argument("--mode", default="closed",
                         choices=("closed", "open"))
    loadgen.add_argument("--requests", type=int, default=2_000)
    loadgen.add_argument("--clients", type=int, default=16,
                         help="closed-loop client threads")
    loadgen.add_argument("--rps", type=float, default=2_000.0,
                         help="open-loop offered request rate")
    loadgen.add_argument("--serial", action="store_true",
                         help="bypass the coalescer (serial-scalar "
                              "baseline)")
    loadgen.add_argument("--max-pending", type=int, default=None,
                         help="bounded admission queue per op: excess "
                              "load is shed with a typed Overload "
                              "(default: unbounded)")
    loadgen.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline; requests that "
                              "lapse in queue fail with "
                              "DeadlineExceeded at flush time")
    loadgen.set_defaults(func=_cmd_loadgen)

    telemetry = sub.add_parser(
        "telemetry",
        help="render a telemetry snapshot (terminal / prometheus / "
             "json), from a JSON dump or a fresh live serving run",
    )
    _serving_common(telemetry)
    telemetry.add_argument("--json", default=None, metavar="PATH",
                           help="render an existing snapshot dump "
                                "instead of running a live workload")
    telemetry.add_argument("--format", default="terminal",
                           choices=("terminal", "prometheus", "json"))
    telemetry.add_argument("--reads", type=int, default=64,
                           help="coalesced reads issued during the live "
                                "workload (ignored with --json)")
    telemetry.set_defaults(func=_cmd_telemetry)

    theory = sub.add_parser(
        "theory", help="evaluate Theorem 1/2 sizing"
    )
    theory.add_argument("--d", type=int, required=True)
    theory.add_argument("--epsilon", type=float, default=0.1)
    theory.add_argument("--delta", type=float, default=0.05)
    theory.add_argument("--lambda", dest="lambda_", type=float,
                        default=1e-5)
    theory.set_defaults(func=_cmd_theory)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
