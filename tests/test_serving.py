"""Serving layer: snapshots, coalescer, server, and the consistency checker.

Covers the PR's serving acceptance criteria:

* snapshot publish hooks on all three model families — scale-carrying
  (sketches) or scale-folded (feature hashing), immutable under
  continued training, batched == scalar bit-equal on the snapshot;
* coalescer unit behavior — latency-budget flush, max-batch flush,
  answers bit-equal to serial-scalar answers on the same snapshot,
  error propagation, batch-size accounting;
* the black-box snapshot-consistency checker — accepts real concurrent
  histories, rejects tampered results, stale versions and non-monotone
  reads;
* the server ``stats()`` endpoint — hasher hit-rate/evictions and the
  coalesced-batch-size histogram.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest
from conftest import c_backend_param

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.synthetic import SyntheticStream
from repro.learning.feature_hashing import FeatureHashing
from repro.serving import (
    ConsistencyError,
    InvalidRequest,
    ServingClient,
    SketchServer,
    SnapshotManager,
    check_snapshot_consistency,
    scalar_answer,
)
from repro.serving.server import TRAINER_NICE

STREAM = SyntheticStream(d=800, n_signal=80, avg_nnz=12.0, seed=0)
EXAMPLES = STREAM.materialize(600)
BATCHES = list(iter_batches(EXAMPLES, 64))

MODEL_FACTORIES = {
    "wm": lambda: WMSketch(256, 3, seed=0, heap_capacity=64),
    "awm": lambda: AWMSketch(128, depth=1, heap_capacity=64, seed=0),
    "hash": lambda: FeatureHashing(256, seed=0),
}


def _trained(kind, n_batches=4):
    model = MODEL_FACTORIES[kind]()
    for batch in BATCHES[:n_batches]:
        model.fit_batch(batch)
    return model


class TestSnapshotHooks:
    @pytest.mark.parametrize("kind", list(MODEL_FACTORIES))
    def test_snapshot_answers_bit_equal(self, kind):
        """Batched reads on a snapshot == scalar reads on the same
        snapshot (the serving equivalence contract: coalescing must be
        invisible given a fixed published state), and both snapshot
        kinds answer bit for bit what the live model answered at
        publish time: they carry the raw table bits and the live scale
        (unfolded, so chunk sharing survives decay)."""
        model = _trained(kind)
        batch = BATCHES[5]
        keys = np.arange(0, 300, 7, dtype=np.int64)
        live = (model.predict_batch(batch).tobytes(),
                model.query_many(keys).tobytes())
        full = model.snapshot()
        chained, _ = model.snapshot_incremental()
        for snap in (full, chained):
            assert snap._scale == model._scale
            assert snap.predict_batch(batch).tobytes() == live[0]
            assert snap.query_many(keys).tobytes() == live[1]
            np.testing.assert_array_equal(
                snap.predict_batch(batch),
                scalar_answer(snap, "predict", batch),
            )
            np.testing.assert_array_equal(
                snap.query_many(keys), scalar_answer(snap, "query", keys)
            )

    @pytest.mark.parametrize("kind", list(MODEL_FACTORIES))
    def test_snapshot_immutable_under_training(self, kind):
        model = _trained(kind)
        snap = model.snapshot()
        table = snap.table.copy()
        keys = np.arange(50, dtype=np.int64)
        before = snap.query_many(keys).copy()
        for batch in BATCHES[4:8]:
            model.fit_batch(batch)
        np.testing.assert_array_equal(snap.table, table)
        np.testing.assert_array_equal(snap.query_many(keys), before)

    def test_snapshot_heap_is_folded_view(self):
        model = _trained("awm")
        snap = model.snapshot()
        assert snap.heap._scale == 1.0
        assert dict(snap.heap.items()) == dict(model.heap.items())
        # Continued training must not leak into the snapshot's heap.
        frozen = dict(snap.heap.items())
        for batch in BATCHES[4:8]:
            model.fit_batch(batch)
        assert dict(snap.heap.items()) == frozen

    def test_hasher_identity_guard(self):
        model = _trained("wm")
        other = MODEL_FACTORIES["wm"]()
        from repro.hashing.batch import BatchHasher

        with pytest.raises(ValueError, match="own hash family"):
            model.snapshot(batch_hasher=BatchHasher(other.family))

    def test_manager_versions_and_log(self):
        model = MODEL_FACTORIES["wm"]()
        mgr = SnapshotManager(model)
        assert mgr.current.version == 0
        assert mgr.publish_log == [(0, 0)]
        model.fit_batch(BATCHES[0])
        snap = mgr.publish()
        assert snap.version == 1 and snap.t == len(BATCHES[0])
        assert mgr.current is snap
        assert mgr.publish_log == [(0, 0), (1, len(BATCHES[0]))]


class TestCoalescer:
    def _server(self, **kwargs):
        kwargs.setdefault("latency_budget", 5e-3)
        kwargs.setdefault("max_batch", 8)
        return SketchServer(_trained("wm"), **kwargs)

    def test_latency_budget_flush(self):
        """A lone request flushes after ~latency_budget, not immediately
        as part of a full batch and not never."""
        server = self._server(latency_budget=20e-3)
        try:
            start = time.monotonic()
            result, version = server.request(
                "query", np.array([3], dtype=np.int64), timeout=5.0
            )
            waited = time.monotonic() - start
            assert version == 0
            assert waited >= 15e-3, f"flushed too early ({waited * 1e3:.1f}ms)"
            assert server.coalescer.flush_reasons["budget"] == 1
        finally:
            server.close()

    def test_max_batch_flush(self):
        """max_batch queued requests flush at once without waiting for
        the (long) budget, in one batch of exactly max_batch."""
        server = self._server(latency_budget=10.0, max_batch=6)
        try:
            start = time.monotonic()
            reqs = [
                server.submit_nowait("query", np.array([i], dtype=np.int64))
                for i in range(6)
            ]
            for req in reqs:
                req.wait(timeout=5.0)
            waited = time.monotonic() - start
            assert waited < 5.0, "waited for the latency budget"
            assert server.coalescer.flush_reasons["max_batch"] >= 1
            assert server.coalescer.batch_size_hist["query"].get(6) == 1
        finally:
            server.close()

    def test_coalesced_bit_equal_serial(self):
        """Concurrent coalesced answers == serial-scalar answers on the
        same snapshot, for every op."""
        server = self._server()
        try:
            rng = np.random.default_rng(7)
            payloads = []
            for i in range(40):
                kind = i % 3
                if kind == 0:
                    payloads.append(
                        ("query", rng.integers(0, 800, size=5).astype(np.int64))
                    )
                elif kind == 1:
                    lo = int(rng.integers(0, len(EXAMPLES) - 4))
                    payloads.append(
                        ("predict", SparseBatch.from_examples(EXAMPLES[lo : lo + 3]))
                    )
                else:
                    payloads.append(("top_k", 1 + int(rng.integers(0, 32))))
            results = [None] * len(payloads)

            def worker(i):
                results[i] = server.request(*payloads[i], timeout=10.0)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(payloads))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            coalesced = any(
                size > 1
                for hist in server.coalescer.batch_size_hist.values()
                for size in hist
            )
            assert coalesced, "no multi-request batch formed"
            for (op, payload), (result, version) in zip(payloads, results):
                expected, serial_version = server.serial_request(op, payload)
                assert version == serial_version == 0
                if isinstance(expected, np.ndarray):
                    np.testing.assert_array_equal(result, expected)
                else:
                    assert result == expected
        finally:
            server.close()

    def test_error_propagates_to_all_waiters(self):
        """A flush that raises (top_k on feature hashing, which has no
        heap) fails every request in the batch with the original
        exception."""
        server = SketchServer(
            _trained("hash"), latency_budget=50e-3, max_batch=4
        )
        try:
            reqs = [server.submit_nowait("top_k", 5) for _ in range(3)]
            for req in reqs:
                with pytest.raises(RuntimeError, match="heap_capacity"):
                    req.wait(timeout=5.0)
        finally:
            server.close()

    def test_raising_flush_hook_leaves_worker_alive(self):
        """Regression: a registered ``on_flush`` profiling hook that
        raises fires *after* results are delivered, so the batch's
        waiters still get their answers — and the worker thread
        survives (crash-only loop) to serve the next submission."""
        from repro.telemetry import hooks

        def bad_hook(op, batch_size, reason, queue_wait, seconds):
            raise RuntimeError("profiler exploded")

        server = self._server(latency_budget=5e-3)
        hooks.on_flush.append(bad_hook)
        try:
            keys = np.array([2, 5], dtype=np.int64)
            result, version = server.request("query", keys, timeout=5.0)
            assert result.shape == keys.shape and version == 0
            hooks.on_flush.remove(bad_hook)
            # Deterministically alive: the very next request is served
            # by the same crash-only worker (no restart needed).
            assert server.coalescer._worker.is_alive()
            result, _ = server.request("query", keys, timeout=5.0)
            assert result.shape == keys.shape
            assert server.coalescer.stats()["worker_restarts"] == 0
        finally:
            if bad_hook in hooks.on_flush:
                hooks.on_flush.remove(bad_hook)
            server.close()

    def test_close_drains_pending(self):
        server = self._server(latency_budget=60.0)
        req = server.submit_nowait("query", np.array([1], dtype=np.int64))
        server.close()
        result, version = req.wait(timeout=0.0)
        assert result.shape == (1,)
        with pytest.raises(RuntimeError, match="closed"):
            server.coalescer.submit_nowait("top_k", 1)

    @pytest.mark.parametrize("op, payload", [
        ("top_k", 2.5), ("top_k", -2), ("top_k", np.int64(-1)),
        ("top_k", "3"), ("top_k", True),
        ("query", np.array([1.7])), ("query", np.array([[1, 2]])),
        ("query", [1, 2]), ("query", np.array([True])),
        ("predict", np.array([1, 2])), ("predict", None),
    ])
    def test_malformed_request_rejected_at_admission(self, op, payload):
        """A payload that does not fit its op raises InvalidRequest at
        submit and is counted in serve.rejected; a valid request queued
        beside it still gets the scalar answer."""
        valid = {
            "top_k": np.int64(3),
            "query": np.array([3, 17, 3], dtype=np.int32),
            "predict": SparseBatch.from_examples(EXAMPLES[:3]),
        }[op]
        server = self._server(latency_budget=20e-3)
        try:
            queued = server.submit_nowait(op, valid)
            with pytest.raises(InvalidRequest, match=op):
                server.submit_nowait(op, payload)
            result, version = queued.wait(timeout=5.0)
            expected, serial_version = server.serial_request(op, valid)
            assert version == serial_version
            if isinstance(expected, np.ndarray):
                assert result.tobytes() == expected.tobytes()
            else:
                assert result == expected
            assert server.coalescer.stats()["rejected"] == {
                name: int(name == op) for name in ("predict", "query",
                                                   "top_k")
            }
            counters = server.telemetry.snapshot()["counters"]
            assert counters[f"serve.rejected{{op={op}}}"] == 1
            assert server.coalescer.stats()["requests"][op] == 1
        finally:
            server.close()

    @pytest.mark.parametrize("serial", [False, True],
                             ids=["coalesced", "serial"])
    @pytest.mark.parametrize("op, arg", [
        ("query", [1.7, 2.2]), ("query", 2.5), ("query", True),
        ("top_k", 1.7), ("top_k", 2.5), ("top_k", -2), ("top_k", True),
    ])
    def test_client_payloads_are_checked_not_cast(self, serial, op, arg):
        """The client sends payloads as given and serial reads run the
        coalescer's admission check, so on both paths a non-integer key
        or a fractional, negative or bool k is rejected and counted —
        not truncated (key 1.7 answered as key 1, top_k(2.5) with two
        entries) or sliced (a WM top_k(-2) giving all but two heap
        entries)."""
        server = self._server()
        try:
            client = ServingClient(server, serial=serial)
            with pytest.raises(InvalidRequest, match=op):
                getattr(client, op)(arg)
            counters = server.telemetry.snapshot()["counters"]
            assert counters[f"serve.rejected{{op={op}}}"] == 1
            assert server.coalescer.stats()["requests"][op] == 0
        finally:
            server.close()

    def test_negative_keys_are_valid_on_both_paths(self):
        server = self._server()
        try:
            keys = np.array([-2, 5, -(2**63)], dtype=np.int64)
            coalesced = ServingClient(server).query(keys)
            serial = ServingClient(server, serial=True).query(keys)
            assert coalesced.tobytes() == serial.tobytes()
            assert ServingClient(server).query(-2).tobytes() == (
                coalesced[:1].tobytes()
            )
            counters = server.telemetry.snapshot()["counters"]
            assert counters["serve.rejected{op=query}"] == 0
        finally:
            server.close()

    def test_unknown_op_rejected(self):
        server = self._server()
        try:
            with pytest.raises(ValueError, match="unknown op"):
                server.request("delete_table", 1)
        finally:
            server.close()


class TestStatsEndpoint:
    def test_hasher_and_histogram_surfaced(self, kernel_backend):
        # kernel_backend: numpy, whose hash_rows body is the memo.
        server = SketchServer(
            _trained("wm"), latency_budget=2e-3, max_batch=16
        )
        try:
            rng = np.random.default_rng(11)
            # Zipf keys: the head repeats, so the reader cache must hit.
            for _ in range(30):
                keys = ((rng.zipf(1.2, size=16) - 1) % 800).astype(np.int64)
                server.query(keys)
            stats = server.stats()
            hasher = stats["reader_hasher"]
            assert hasher["backend"] == "numpy"
            assert hasher["hits"] + hasher["misses"] > 0
            assert hasher["hit_rate"] > 0.3
            assert "evictions" in hasher
            hist = stats["coalescer"]["batch_size_hist"]["query"]
            assert sum(size * count for size, count in hist.items()) == 30
            assert stats["coalescer"]["requests"]["query"] == 30
            assert stats["snapshots"]["current_version"] == 0
        finally:
            server.close()

    @pytest.mark.parametrize("kernel_backend", [c_backend_param()],
                             indirect=True)
    def test_hash_rows_reader_counts_every_position_as_a_miss(
        self, kernel_backend
    ):
        # Under c the reader hasher has no memo: each queried key
        # position is one evaluation, counted as a miss.
        server = SketchServer(
            _trained("wm"), latency_budget=2e-3, max_batch=16
        )
        try:
            rng = np.random.default_rng(11)
            for _ in range(30):
                keys = ((rng.zipf(1.2, size=16) - 1) % 800).astype(np.int64)
                server.query(keys)
            hasher = server.stats()["reader_hasher"]
            assert hasher["backend"] == "c"
            assert (hasher["hits"], hasher["misses"]) == (0, 30 * 16)
            assert hasher["hit_rate"] == 0.0
            assert hasher["cached_keys"] == hasher["evictions"] == 0
        finally:
            server.close()


class TestEndToEndConsistency:
    def test_concurrent_history_checks(self):
        """Live training + concurrent coalesced/serial readers; the
        black-box checker validates every read against a sequential
        re-execution."""
        make = MODEL_FACTORIES["wm"]
        server = SketchServer(
            make(), latency_budget=1e-3, max_batch=16, publish_every=2
        )
        server.start_training(BATCHES)
        clients = [ServingClient(server, record=True) for _ in range(4)]
        clients.append(ServingClient(server, record=True, serial=True))

        def reader(client, seed):
            rng = np.random.default_rng(seed)
            for _ in range(25):
                op = int(rng.integers(0, 3))
                if op == 0:
                    client.query(rng.integers(0, 800, size=4).astype(np.int64))
                elif op == 1:
                    i = int(rng.integers(0, len(EXAMPLES)))
                    client.predict(EXAMPLES[i].indices, EXAMPLES[i].values)
                else:
                    client.top_k(1 + int(rng.integers(0, 10)))

        threads = [
            threading.Thread(target=reader, args=(c, 50 + i))
            for i, c in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.training_done.wait(60.0)
        server.close()
        report = check_snapshot_consistency(
            make,
            BATCHES,
            server.snapshots.publish_log,
            [c.records for c in clients],
        )
        assert report["reads_checked"] == 5 * 25
        assert report["snapshots_rebuilt"] == len(server.snapshots.publish_log)

    def test_checker_rejects_tampered_result(self):
        make = MODEL_FACTORIES["wm"]
        server = SketchServer(make(), latency_budget=1e-3)
        server.start_training(BATCHES[:4])
        assert server.training_done.wait(60.0)
        client = ServingClient(server, record=True)
        client.query(np.array([1, 2, 3], dtype=np.int64))
        server.close()
        client.records[0].result = client.records[0].result + 1e-9
        with pytest.raises(ConsistencyError, match="differs"):
            check_snapshot_consistency(
                make, BATCHES[:4], server.snapshots.publish_log,
                [client.records],
            )

    def test_checker_rejects_unpublished_version(self):
        make = MODEL_FACTORIES["wm"]
        server = SketchServer(make(), latency_budget=1e-3)
        client = ServingClient(server, record=True)
        client.top_k(3)
        server.close()
        client.records[0].version = 99
        with pytest.raises(ConsistencyError, match="never published"):
            check_snapshot_consistency(
                make, [], server.snapshots.publish_log, [client.records]
            )

    def test_checker_rejects_non_monotone_reads(self):
        make = MODEL_FACTORIES["wm"]
        model = make()
        server = SketchServer(model, latency_budget=1e-3)
        client = ServingClient(server, record=True)
        client.top_k(3)
        model.fit_batch(BATCHES[0])
        server.snapshots.publish()
        client.top_k(3)
        server.close()
        client.records.reverse()
        with pytest.raises(ConsistencyError, match="non-monotone"):
            check_snapshot_consistency(
                make, BATCHES[:1], server.snapshots.publish_log,
                [client.records],
            )


class TestTrainerPriority:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="per-thread priorities are Linux-only")
    def test_background_trainer_runs_at_the_lowest_priority(self):
        # A compiled training kernel runs without the GIL; at the lowest
        # priority the trainer leaves a shared CPU to the readers.  The
        # batch iterator runs on the trainer thread, so it can look.
        seen = []

        def batches():
            for batch in BATCHES[:2]:
                seen.append(os.getpriority(os.PRIO_PROCESS,
                                           threading.get_native_id()))
                yield batch

        server = SketchServer(MODEL_FACTORIES["awm"](), latency_budget=1e-3)
        before = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        server.start_training(batches())
        assert server.training_done.wait(60.0)
        server.close()
        assert seen == [TRAINER_NICE, TRAINER_NICE]
        # Only the trainer thread was lowered.
        assert os.getpriority(os.PRIO_PROCESS,
                              threading.get_native_id()) == before
