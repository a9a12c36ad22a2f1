"""A live sketch model behind the micro-batching coalescer.

:class:`SketchServer` glues the pieces together: it owns the model, a
:class:`~repro.serving.snapshot.SnapshotManager` that the trainer
publishes into, and a
:class:`~repro.serving.coalescer.MicroBatchCoalescer` that answers
reads from the latest snapshot.  Training runs either inline
(:meth:`SketchServer.train`) or on a background daemon thread
(:meth:`SketchServer.start_training`); reads can be issued from any
number of client threads concurrently.

:func:`scalar_answer` is the serving-level scalar reference: it
answers any op one element at a time through the model's scalar code
paths (``predict_margin`` / ``estimate_weights`` / ``top_weights``),
touching no shared caches.  :meth:`SketchServer.serial_request` routes
through it under a lock — the baseline the benchmark's
coalescing-speedup ratio is measured against, and the oracle the
consistency checker compares coalesced answers to.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np

from repro.data.sparse import SparseExample
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.snapshot import SnapshotManager
from repro.telemetry import MetricsRegistry, hooks, trace

__all__ = ["SketchServer", "scalar_answer"]

#: Nice value of the background trainer thread (Linux): a runnable
#: reader gets ~98% of a CPU it shares with the trainer.
TRAINER_NICE = 19


def _lower_thread_priority() -> None:
    """Give the calling thread the lowest CPU priority, where the
    platform sets priorities per thread (Linux); elsewhere do nothing.

    A compiled training kernel runs without the GIL, so on a CPU shared
    with the readers the scheduler would otherwise split the CPU evenly
    between it and a reader that holds the GIL mid-flush.  At the
    lowest priority the trainer still takes every cycle the readers
    leave idle."""
    if not sys.platform.startswith("linux"):
        return
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(),
                       TRAINER_NICE)
    except OSError:
        pass


def scalar_answer(model, op: str, payload):
    """Answer one request through the model's scalar paths only.

    Payload conventions match the coalescer's: ``predict`` takes a
    :class:`~repro.data.batch.SparseBatch` and returns its per-row
    margins, ``query`` takes an int64 key array and returns per-key
    estimates, ``top_k`` takes ``k`` and returns ``top_weights(k)``.
    Pure reads — safe from any thread as long as calls to *this
    function* are serialized with each other per model.
    """
    if op == "predict":
        batch = payload
        out = np.empty(len(batch), dtype=np.float64)
        for i in range(len(batch)):
            lo = batch.indptr[i]
            hi = batch.indptr[i + 1]
            out[i] = model.predict_margin(
                SparseExample(batch.indices[lo:hi], batch.values[lo:hi], 1)
            )
        return out
    if op == "query":
        keys = np.atleast_1d(np.asarray(payload, dtype=np.int64))
        out = np.empty(keys.size, dtype=np.float64)
        for i, key in enumerate(keys):
            out[i] = float(
                model.estimate_weights(np.array([key], dtype=np.int64))[0]
            )
        return out
    if op == "top_k":
        return model.top_weights(payload)
    raise ValueError(f"unknown op {op!r}")


class SketchServer:
    """Own a live model; train in the background; serve coalesced reads.

    Parameters
    ----------
    model:
        A WM / AWM / feature-hashing model (a
        :class:`~repro.core.sketch_table.ScaledSketchTable`): its
        ``fit_batch``, batched read paths and ``snapshot_incremental``.
    latency_budget, max_batch:
        Coalescer knobs (see
        :class:`~repro.serving.coalescer.MicroBatchCoalescer`).
    publish_every:
        Default number of training batches between snapshot publishes.
    max_pending, default_deadline:
        Admission-control knobs forwarded to the coalescer: bounded
        per-op queues shedding excess load with a typed ``Overload``,
        and per-request deadlines enforced at flush time.
    publish_breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        around snapshot publication; while it is open the trainer keeps
        training and readers keep the last good snapshot.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` threaded
        into the snapshot manager (``serve.publish``) and coalescer
        (``serve.flush``) hook points.
    registry:
        The unified :class:`~repro.telemetry.MetricsRegistry` for the
        whole server (training counters, publish timings, coalescer,
        reader hasher).  A private one is created when omitted;
        :meth:`stats` always reads one consistent cut of it.
    """

    def __init__(
        self,
        model,
        *,
        latency_budget: float = 1e-3,
        max_batch: int = 64,
        publish_every: int = 1,
        max_pending: int | None = None,
        default_deadline: float | None = None,
        publish_breaker=None,
        fault_plan=None,
        registry: MetricsRegistry | None = None,
    ):
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        self.model = model
        self.publish_every = int(publish_every)
        self.telemetry = registry if registry is not None else MetricsRegistry()
        self.snapshots = SnapshotManager(
            model, registry=self.telemetry, breaker=publish_breaker,
            fault_plan=fault_plan,
        )
        self.coalescer = MicroBatchCoalescer(
            self.snapshots, latency_budget=latency_budget,
            max_batch=max_batch, max_pending=max_pending,
            default_deadline=default_deadline, fault_plan=fault_plan,
            registry=self.telemetry,
        )
        self._serial_lock = threading.Lock()
        self.training_done = threading.Event()
        self._stop_training = threading.Event()
        self._train_thread = None
        self._closed = False
        self._m_batches = self.telemetry.counter("train.batches")
        self._m_examples = self.telemetry.counter("train.examples")
        self._m_seconds = self.telemetry.counter("train.seconds")
        self._m_publish_skipped = self.telemetry.counter(
            "train.publish_errors"
        )
        self._m_batch_seconds = self.telemetry.histogram(
            "train.batch_seconds"
        )

    # -- legacy counter views (deprecated: read stats() / the registry) -
    @property
    def batches_trained(self) -> int:
        """Deprecated view of the ``train.batches`` registry counter."""
        return self._m_batches.value

    @property
    def examples_trained(self) -> int:
        """Deprecated view of the ``train.examples`` registry counter."""
        return self._m_examples.value

    @property
    def train_seconds(self) -> float:
        """Deprecated view of the ``train.seconds`` registry counter."""
        return self._m_seconds.value

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, batches, publish_every: int | None = None):
        """Consume ``batches`` (iterable of SparseBatch), publishing as we go.

        Blocks until the stream is exhausted (or :meth:`stop_training`
        is set); publishes a final snapshot and sets ``training_done``.

        The trainer is crash-only with respect to publication: a
        failing publish (injected fault, tripped circuit breaker) is
        counted in ``train.publish_errors`` and training continues —
        readers keep the last good snapshot — and ``training_done`` is
        set no matter how the loop exits.
        """
        pe = self.publish_every if publish_every is None else int(publish_every)
        start = time.monotonic()
        try:
            for batch in batches:
                if self._stop_training.is_set():
                    break
                t0 = time.perf_counter()
                with trace.span("train.batch", n=len(batch)):
                    self.model.fit_batch(batch)
                seconds = time.perf_counter() - t0
                with self.telemetry.locked():
                    self._m_batches.inc()
                    self._m_examples.inc(len(batch))
                self._m_batch_seconds.record(seconds)
                if hooks.on_batch_end:
                    hooks.batch_end(self.model, len(batch), seconds)
                if self._m_batches.value % pe == 0:
                    self._publish_guarded()
        finally:
            self._publish_guarded()
            self._m_seconds.inc(time.monotonic() - start)
            self.training_done.set()

    def _publish_guarded(self) -> None:
        """Publish, surviving failure: the trainer must outlive a bad
        publish (the last good snapshot stays current)."""
        try:
            self.snapshots.publish()
        except Exception:
            self._m_publish_skipped.inc()

    def start_training(self, batches, publish_every: int | None = None):
        """Run :meth:`train` on a background daemon thread, at the
        lowest CPU priority (see :func:`_lower_thread_priority`), so
        reads preempt it."""
        if self._train_thread is not None and self._train_thread.is_alive():
            raise RuntimeError("training already running")
        self.training_done.clear()
        self._stop_training.clear()
        self._train_thread = threading.Thread(
            target=self._train_in_background,
            args=(batches, publish_every),
            name="repro-trainer",
            daemon=True,
        )
        self._train_thread.start()
        return self._train_thread

    def _train_in_background(self, batches, publish_every):
        _lower_thread_priority()
        self.train(batches, publish_every)

    def stop_training(self, timeout: float | None = None):
        """Ask the trainer to stop at the next batch boundary and wait."""
        self._stop_training.set()
        if self._train_thread is not None:
            self._train_thread.join(timeout)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def request(self, op: str, payload, timeout: float | None = None):
        """Coalesced read: ``(result, snapshot_version)``."""
        return self.coalescer.submit(op, payload, timeout)

    def submit_nowait(self, op: str, payload):
        """Coalesced read without blocking (open-loop load generation)."""
        return self.coalescer.submit_nowait(op, payload)

    def serial_request(self, op: str, payload):
        """Serial-scalar read: ``(result, snapshot_version)``.

        The non-coalesced baseline — one request at a time, scalar
        kernels, same snapshot discipline, and the same admission check
        as a coalesced read: a payload that does not fit ``op`` raises
        :class:`~repro.serving.coalescer.InvalidRequest` and is counted
        in ``serve.rejected{op}``.
        """
        self.coalescer.check_request(op, payload)
        with self._serial_lock:
            snap = self.snapshots.current
            return scalar_answer(snap.model, op, payload), snap.version

    def predict(self, batch, timeout: float | None = None):
        return self.request("predict", batch, timeout)[0]

    def query(self, keys, timeout: float | None = None):
        return self.request("query", keys, timeout)[0]

    def top_k(self, k: int, timeout: float | None = None):
        return self.request("top_k", k, timeout)[0]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving observability: training, snapshots, hasher, coalescer.

        Every layer records into the one shared registry
        (:attr:`telemetry`), and this method holds that registry's
        mutex across the whole assembly — the snapshot is a single
        consistent cut, never a new histogram paired with stale
        counters.  The dict shape is the legacy (pre-telemetry) one.
        """
        hasher = self.snapshots.reader_hasher
        snap = self.snapshots.current
        with self.telemetry.locked():
            hits = getattr(hasher, "hits", 0)
            misses = getattr(hasher, "misses", 0)
            total = hits + misses
            return {
                "model": type(self.model).__name__,
                "train": {
                    "batches": self._m_batches.value,
                    "examples": self._m_examples.value,
                    "seconds": self._m_seconds.value,
                    "done": self.training_done.is_set(),
                },
                "snapshots": {
                    "published": len(self.snapshots.publish_log),
                    "current_version": snap.version,
                    "current_t": snap.t,
                },
                "reader_hasher": {
                    # numpy: the memo; c: no memo, every key a miss.
                    "backend": hasher.backend_name,
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / total if total else 0.0,
                    "evictions": getattr(hasher, "evictions", 0),
                    "cached_keys": len(hasher),
                },
                "coalescer": self.coalescer.stats(),
            }

    def close(self, timeout: float = 30.0):
        """Graceful, bounded, idempotent shutdown.

        Stops the trainer at the next batch boundary and drains
        in-flight reads, splitting ``timeout`` across the two phases;
        requests still queued at the deadline are failed with a
        ``TimeoutError`` rather than abandoned.  Safe to call twice
        (and from ``atexit`` / a SIGINT handler — see ``repro serve``
        / ``repro loadgen``).
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        self.stop_training(timeout=timeout)
        self.coalescer.close(
            timeout=max(0.1, deadline - time.monotonic())
        )
