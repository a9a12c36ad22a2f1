"""Tests for repro.telemetry: registry, tracer, hooks, exporters.

Covers the observability layer's load-bearing contracts:

* histogram bucket-edge semantics (half-open intervals, under/overflow,
  record vs record_many equivalence) and percentile clamping;
* snapshot / delta / sum-merge semantics, including merge
  associativity-commutativity over integer-valued instruments (the
  per-worker merge used by ``repro.parallel``);
* the tracer's disabled-path cost model (cached no-op span, zero
  retained allocation, asserted with ``tracemalloc``) and the
  reconstruction invariants of recorded trees;
* a 40-thread concurrent-recording fuzz against a serially-computed
  reference registry;
* a live :class:`~repro.serving.server.SketchServer` run with tracing
  enabled — training, publishing and coalesced serving concurrently —
  whose drained trees must all reconstruct (children nested in parents,
  no lost time);
* the profiling-hook API and the loadgen histogram plumbing.
"""

from __future__ import annotations

import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.datasets import rcv1_like
from repro.serving import SketchServer
from repro.serving.loadgen import (
    build_requests,
    latency_histogram,
    run_open_loop,
)
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    Tracer,
    hooks,
    merge_snapshots,
    to_json,
    to_prometheus,
    trace,
    validate_span_tree,
)
from repro.telemetry.tracer import _NOOP


class TestCountersAndGauges:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", op="query")
        c.inc()
        c.inc(4)
        assert c.value == 5
        # Same (name, labels) -> the same instrument; different labels
        # -> a distinct one.
        assert reg.counter("requests", op="query") is c
        assert reg.counter("requests", op="predict") is not c
        snap = reg.snapshot()
        assert snap["counters"]["requests{op=query}"] == 5
        assert snap["counters"]["requests{op=predict}"] == 0

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("pending")
        g.set(7)
        g.inc(2)
        g.dec(4)
        assert g.value == 5

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestHistogramBuckets:
    """Bucket-edge semantics on an exactly-representable layout:
    lo=1, hi=1000, one bucket per decade -> edges [1, 10, 100, 1000],
    counts = [underflow, [1,10), [10,100), [100,1000), overflow]."""

    def _hist(self):
        return Histogram("h", lo=1.0, hi=1000.0, buckets_per_decade=1)

    def _counts(self, h):
        return h.snapshot()["counts"]

    def test_value_on_edge_lands_in_bucket_starting_there(self):
        h = self._hist()
        h.record(10.0)
        assert self._counts(h) == [0, 0, 1, 0, 0]
        h.record(1.0)  # exactly lo -> the first interior bucket
        assert self._counts(h) == [0, 1, 1, 0, 0]

    def test_below_lo_underflows(self):
        h = self._hist()
        h.record(0.5)
        assert self._counts(h) == [1, 0, 0, 0, 0]

    def test_zero_and_negative_underflow(self):
        h = self._hist()
        h.record_many([0.0, -3.0])
        assert self._counts(h) == [2, 0, 0, 0, 0]

    def test_at_or_above_hi_overflows(self):
        h = self._hist()
        h.record_many([1000.0, 5e4])
        assert self._counts(h) == [0, 0, 0, 0, 2]

    def test_interior(self):
        h = self._hist()
        h.record_many([2.0, 99.9, 999.0])
        assert self._counts(h) == [0, 1, 1, 1, 0]

    def test_record_many_equals_repeated_record(self):
        values = [0.2, 1.0, 3.7, 10.0, 99.0, 1000.0, 123.456, -1.0]
        one = self._hist()
        many = self._hist()
        for v in values:
            one.record(v)
        many.record_many(np.asarray(values))
        assert one.snapshot() == many.snapshot()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 10.0, 100.0, 1000.0, 0.5, 5e4,
                         -3.0]),
        st.floats(-1e4, 1e4, allow_nan=False),
        st.floats(1e-9, 1e9),
    ), max_size=40), layout=st.sampled_from([(1.0, 1000.0, 1),
                                             (1e-7, 1e3, 6)]))
    def test_record_matches_record_many(self, values, layout):
        """The scalar record is record_many of one value: identical
        snapshots (sum included) value by value, and the same counts,
        extremes and percentiles as one record_many of them all, on
        exact bucket edges, below lo, at or above hi, and at 0."""
        lo, hi, bpd = layout
        one, each, bulk = (Histogram("h", lo=lo, hi=hi, buckets_per_decade=bpd)
                           for _ in range(3))
        values += [float(e) for e in one._edges[::3]]
        for v in values:
            one.record(v)
            each.record_many([v])
        bulk.record_many(values)
        assert one.snapshot() == each.snapshot()
        got, want = one.snapshot(), bulk.snapshot()
        for key in ("count", "counts", "min", "max", "p50", "p90", "p99"):
            assert got[key] == want[key]
        for q in (0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0):
            assert one.percentile(q) == bulk.percentile(q)
        assert got["sum"] == pytest.approx(want["sum"], rel=1e-12, abs=1e-9)

    def test_exact_extremes_and_sum(self):
        h = self._hist()
        h.record_many([3.0, 700.0, 0.25])
        assert h.count == 3
        assert h.min_value == 0.25
        assert h.max_value == 700.0
        assert h.sum == pytest.approx(703.25)

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram("h", lo=1.0, hi=1.0)


class TestHistogramPercentiles:
    def test_percentile_bounds_and_clamping(self):
        h = Histogram("h", lo=1e-3, hi=1e3, buckets_per_decade=6)
        values = np.arange(1.0, 101.0)  # 1..100
        h.record_many(values)
        assert h.percentile(0) == pytest.approx(1.0)
        assert h.percentile(100) == 100.0  # clamped to the exact max
        p50 = h.percentile(50)
        # Interpolated within a log bucket: right ballpark, inside range.
        assert 35.0 <= p50 <= 65.0
        assert h.percentile(99) <= 100.0

    def test_empty_percentile_is_nan(self):
        h = Histogram("h")
        assert np.isnan(h.percentile(50))

    def test_out_of_range_q_rejected(self):
        h = Histogram("h")
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)


class TestSnapshotDeltaMerge:
    def _loaded_registry(self, scale=1):
        reg = MetricsRegistry()
        reg.counter("reqs", op="query").inc(3 * scale)
        reg.counter("reqs", op="predict").inc(2 * scale)
        reg.gauge("pending").inc(scale)
        h = reg.histogram("lat", lo=1.0, hi=1000.0, buckets_per_decade=1)
        h.record_many(np.asarray([2.0, 20.0, 200.0] * scale))
        return reg

    def test_delta_subtracts_additive_state(self):
        reg = self._loaded_registry()
        prev = reg.snapshot()
        reg.counter("reqs", op="query").inc(10)
        reg.histogram(
            "lat", lo=1.0, hi=1000.0, buckets_per_decade=1
        ).record(5.0)
        d = reg.delta(prev)
        assert d["counters"]["reqs{op=query}"] == 10
        assert d["counters"]["reqs{op=predict}"] == 0
        lat = d["histograms"]["lat"]
        assert lat["count"] == 1
        assert lat["counts"] == [0, 1, 0, 0, 0]
        assert lat["sum"] == pytest.approx(5.0)

    def test_merge_is_associative_and_commutative(self):
        # Integer-valued instruments merge like sketch tables: any
        # order, any grouping -> the identical snapshot.
        snaps = [
            self._loaded_registry(scale).snapshot() for scale in (1, 2, 5)
        ]
        reference = merge_snapshots(*snaps)
        for perm in itertools.permutations(snaps):
            assert merge_snapshots(*perm) == reference
            # Left fold (merge one at a time) == flat merge.
            acc = MetricsRegistry()
            for s in perm:
                acc.merge_snapshot(s)
            assert acc.snapshot() == reference

    def test_registry_merge_matches_snapshot_merge(self):
        a = self._loaded_registry(1)
        b = self._loaded_registry(3)
        expected = merge_snapshots(a.snapshot(), b.snapshot())
        a.merge(b)
        assert a.snapshot() == expected

    def test_incompatible_histogram_layout_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", lo=1.0, hi=10.0, buckets_per_decade=1).record(2.0)
        b = MetricsRegistry()
        b.histogram("h", lo=1.0, hi=100.0, buckets_per_decade=1).record(2.0)
        with pytest.raises((ValueError, TypeError)):
            b.merge(a)


class TestTracerDisabledPath:
    def test_disabled_span_is_the_cached_noop(self):
        trace.disable()
        s1 = trace.span("anything", op="x", n=3)
        s2 = trace.span("other")
        assert s1 is s2 is _NOOP
        with s1 as s:
            s.tag(more=1)  # no-op, no error

    def test_disabled_path_retains_no_memory(self):
        trace.disable()

        def loop(n):
            for _ in range(n):
                with trace.span("hot", op="flush"):
                    pass

        loop(200)  # warm caches / interned constants
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loop(20_000)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # Transient kwargs dicts are freed within the iteration; nothing
        # may accumulate across 20k disabled span sites.
        assert after - before < 512


class TestTracerEnabled:
    def test_nesting_builds_a_validating_tree(self):
        with trace.capture() as cap:
            with trace.span("parent", op="x"):
                with trace.span("child_a"):
                    pass
                with trace.span("child_b") as s:
                    s.tag(found=1)
        assert len(cap.spans) == 1
        root = cap.spans[0]
        assert root.name == "parent"
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[1].tags == {"found": 1}
        assert validate_span_tree(root) == 3
        d = root.to_dict()
        assert d["seconds"] >= 0
        assert len(d["children"]) == 2

    def test_capture_restores_prior_state(self):
        trace.disable()
        with trace.capture():
            assert trace.enabled
        assert not trace.enabled

    def test_threads_get_separate_roots(self):
        def spin(name):
            with trace.span(name):
                with trace.span(name + ".inner"):
                    pass

        with trace.capture() as cap:
            threads = [
                threading.Thread(target=spin, args=(f"t{i}",))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Each thread's outer span is its own root (thread-local stack):
        # no accidental cross-thread nesting.
        assert sorted(r.name for r in cap.spans) == ["t0", "t1", "t2", "t3"]
        for r in cap.spans:
            assert validate_span_tree(r) == 2

    def test_ring_buffer_bounds_and_drop_count(self):
        t = Tracer(max_traces=4)
        t.enable()
        for i in range(6):
            with t.span(f"r{i}"):
                pass
        t.disable()
        assert t.dropped == 2
        roots = t.drain()
        assert [r.name for r in roots] == ["r2", "r3", "r4", "r5"]
        assert t.drain() == []

    def test_validate_rejects_bad_trees(self):
        from repro.telemetry import Span, TraceError

        with trace.capture() as cap:
            with trace.span("p"):
                with trace.span("c"):
                    pass
        root = cap.spans[0]
        # Forge a child escaping its parent's interval.
        root.children[0].end = root.end + 1.0
        with pytest.raises(TraceError):
            validate_span_tree(root)


class TestConcurrentFuzz:
    N_THREADS = 40

    def test_forty_thread_fuzz_matches_serial_reference(self):
        # Each thread replays a deterministic per-thread plan of
        # counter increments and histogram batches into one shared
        # registry; the serial reference replays every plan in order.
        # Integer-valued observations keep every sum exact, so the
        # concurrent snapshot must equal the serial one bit for bit
        # (up to fp-commutative histogram sums, hence integers).
        plans = []
        for i in range(self.N_THREADS):
            rng = np.random.default_rng(1000 + i)
            incs = rng.integers(1, 10, size=50)
            obs = [
                rng.integers(1, 10_000, size=rng.integers(1, 64))
                .astype(np.float64)
                for _ in range(20)
            ]
            plans.append((incs, obs))

        def replay(reg, plan):
            incs, obs = plan
            c = reg.counter("fuzz.count")
            g = reg.gauge("fuzz.level")
            h = reg.histogram("fuzz.lat", lo=1.0, hi=1e4,
                              buckets_per_decade=3)
            for n in incs:
                c.inc(int(n))
                g.inc(int(n))
            for batch in obs:
                h.record_many(batch)

        serial = MetricsRegistry()
        for plan in plans:
            replay(serial, plan)

        shared = MetricsRegistry()
        # Create the instruments up front so threads race on recording,
        # not creation.
        replay(shared, (np.asarray([], dtype=np.int64), []))
        start = threading.Barrier(self.N_THREADS)

        def worker(plan):
            start.wait()
            replay(shared, plan)

        threads = [
            threading.Thread(target=worker, args=(p,)) for p in plans
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert shared.snapshot() == serial.snapshot()


class TestHooks:
    def test_hooks_fire_and_clear(self):
        seen = []
        hooks.on_batch_end.append(
            lambda model, n, s: seen.append(("batch", n))
        )
        hooks.on_publish.append(
            lambda version, t, s: seen.append(("publish", version))
        )
        hooks.on_flush.append(
            lambda op, n, reason, wait, s: seen.append(("flush", op, reason))
        )
        try:
            hooks.batch_end(None, 32, 0.01)
            hooks.publish(3, 640, 0.001)
            hooks.flush("query", 4, "budget", 0.0005, 0.002)
        finally:
            hooks.clear()
        assert seen == [
            ("batch", 32), ("publish", 3), ("flush", "query", "budget"),
        ]
        assert not hooks.on_batch_end
        # Cleared hooks cost nothing and fire nothing.
        hooks.batch_end(None, 1, 0.0)
        assert len(seen) == 3

    def test_fit_stream_fires_batch_end(self):
        spec = rcv1_like(scale=0.05)
        examples = spec.stream.materialize(300, seed_offset=7)
        calls = []
        hooks.on_batch_end.append(
            lambda model, n, s: calls.append((n, s))
        )
        try:
            WMSketch(2**8, 2, seed=0, heap_capacity=0).fit_stream(
                examples, batch_size=128
            )
        finally:
            hooks.clear()
        assert [n for n, _ in calls] == [128, 128, 44]
        assert all(s >= 0 for _, s in calls)


class TestAwmFitBatchSpan:
    def test_span_nests_hash_and_tags_promotions(self):
        """AWM fit_batch opens the same ``fit_batch`` span as WM's, with
        ``hash`` and ``awm_update`` children (as WM's ``hash`` and
        ``fused_update``), tagged with the batch's promotion count."""
        spec = rcv1_like(scale=0.05)
        batches = list(iter_batches(
            spec.stream.materialize(300, seed_offset=3), 100
        ))
        model = AWMSketch(2**8, 1, seed=0, heap_capacity=32)
        model.fit_batch(batches[0])  # untraced: fills the active set
        before = model.n_promotions
        with trace.capture() as cap:
            model.fit_batch(batches[1])
        assert len(cap.spans) == 1
        span = cap.spans[0]
        assert span.name == "fit_batch"
        assert span.tags["model"] == "AWMSketch"
        assert span.tags["n"] == 100
        assert [c.name for c in span.children] == ["hash", "awm_update"]
        assert span.tags["promotions"] == model.n_promotions - before > 0
        assert validate_span_tree(span) == 3


class TestExporters:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests", op="query").inc(7)
        reg.gauge("serve.pending", op="query").set(2)
        reg.histogram(
            "publish.seconds", lo=1.0, hi=1000.0, buckets_per_decade=1
        ).record_many([2.0, 20.0])
        return reg.snapshot()

    def test_json_round_trips(self):
        import json

        snap = self._snapshot()
        assert json.loads(to_json(snap)) == snap

    def test_prometheus_exposition(self):
        text = to_prometheus(self._snapshot())
        assert 'repro_serve_requests_total{op="query"} 7' in text
        assert 'repro_serve_pending{op="query"} 2' in text
        assert "repro_publish_seconds_count 2" in text
        assert 'le="+Inf"' in text
        # Cumulative buckets: the +Inf bucket equals the count.
        assert 'repro_publish_seconds_bucket{le="+Inf"} 2' in text


class TestLoadgenHistogram:
    def test_latency_histogram_layout(self):
        h = latency_histogram()
        assert h.lo == 1e-6 and h.hi == 1e3
        assert h.count == 0

    def test_open_loop_returns_bounded_histogram(self):
        spec = rcv1_like(scale=0.05)
        train = spec.stream.materialize(600, seed_offset=5)
        held_out = spec.stream.materialize(64, seed_offset=9)
        model = WMSketch(2**10, 2, seed=0, heap_capacity=64)
        for batch in iter_batches(train, 128):
            model.fit_batch(batch)
        requests = build_requests(
            24, key_space=spec.stream.d, examples=held_out, seed=3
        )
        server = SketchServer(model, latency_budget=5e-4, max_batch=8)
        try:
            hist, elapsed = run_open_loop(
                server, requests, offered_rps=2_000.0, seed=1
            )
        finally:
            server.close()
        assert isinstance(hist, Histogram)
        assert hist.count == len(requests)
        assert elapsed > 0
        assert hist.max_value >= hist.min_value > 0
        assert hist.percentile(50) <= hist.percentile(99)


class TestLiveServerTraceReconstruction:
    def test_trace_reconstructs_on_a_live_serving_run(self):
        """Train + publish + coalesced serving with tracing enabled:
        every drained tree must satisfy the reconstruction invariants
        (children nested inside parents, siblings ordered, no child
        time exceeding the parent — i.e. no lost or double-counted
        time), and the expected span families must all appear."""
        spec = rcv1_like(scale=0.05)
        train = spec.stream.materialize(900, seed_offset=5)
        held_out = spec.stream.materialize(64, seed_offset=9)
        batches = list(iter_batches(train, 128))
        requests = build_requests(
            48, key_space=spec.stream.d, examples=held_out, seed=2
        )
        server = SketchServer(
            WMSketch(2**10, 2, seed=0, heap_capacity=64),
            latency_budget=2e-4, max_batch=8, publish_every=2,
        )
        trace.clear()
        trace.enable()
        try:
            server.start_training(batches)
            for op, payload in requests:
                server.request(op, payload, timeout=60.0)
            assert server.training_done.wait(60.0)
        finally:
            trace.disable()
            server.close()
        roots = trace.drain()
        assert roots, "live run recorded no trace roots"
        total_spans = sum(validate_span_tree(r) for r in roots)
        assert total_spans >= len(roots)
        names = {r.name for r in roots}
        assert {"train.batch", "publish", "serve.flush"} <= names
        # A traced training batch nests the model's fit_batch phases.
        train_roots = [r for r in roots if r.name == "train.batch"]
        fit_children = [
            c for r in train_roots for c in r.children
            if c.name == "fit_batch"
        ]
        assert fit_children, "train.batch did not nest fit_batch"
        phases = {
            g.name for c in fit_children for g in c.children
        }
        assert {"hash", "fused_update"} <= phases
        # Flush spans carry the op and snapshot version they served.
        flush_roots = [r for r in roots if r.name == "serve.flush"]
        assert flush_roots
        for r in flush_roots:
            assert r.tags["op"] in ("query", "predict", "top_k")
            assert "version" in r.tags
