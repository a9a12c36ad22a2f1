"""Micro-batching request coalescer — the serving perf core.

Concurrent callers submit single requests; the coalescer accumulates
them in per-operation queues and flushes each queue as **one** batched
kernel call against the latest published snapshot.  A queue is flushed
when either

* its oldest request has waited ``latency_budget`` seconds, or
* it holds ``max_batch`` requests, or
* the coalescer is closing (drain).

All flushes run on a single worker thread, which is what licenses the
snapshots' shared :class:`~repro.hashing.batch.BatchHasher` /
:class:`~repro.kernels.workspace.KernelWorkspace` reader caches: the
batched read paths are the only code that touches them, and they only
ever run here.

Because the batched kernels are bit-identical to their scalar twins
(PR 3-5's equivalence discipline), coalescing is *invisible* to
callers: a coalesced answer equals the serial-scalar answer on the
same snapshot bit for bit — the tests and the serving benchmark both
assert this.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.data.batch import SparseBatch
from repro.telemetry import MetricsRegistry, hooks, trace

__all__ = ["DeadlineExceeded", "InvalidRequest", "MicroBatchCoalescer",
           "Overload"]


class Overload(RuntimeError):
    """Typed admission rejection: the op's pending queue is full.

    Raised by :meth:`MicroBatchCoalescer.submit_nowait` *at submission
    time* when ``max_pending`` requests are already queued for the op —
    load past saturation is shed immediately with this error instead of
    growing the queue without bound (which converts overload into
    unbounded latency for every request behind the excess).  Callers
    treat it as retryable backpressure.
    """


class InvalidRequest(ValueError):
    """Typed admission rejection: the payload does not fit its op.

    Raised by :meth:`MicroBatchCoalescer.submit_nowait` before the
    request is queued (and by the server's serial reads before they are
    answered), and counted in ``serve.rejected``: a malformed
    request fails alone, instead of failing (or silently changing) the
    answers of the requests flushed with it.  ``top_k`` takes a
    non-negative integer (numpy integers included), ``query`` a 1-d
    integer array, ``predict`` a :class:`~repro.data.batch.SparseBatch`.
    """


def _payload_error(op: str, payload) -> str | None:
    """Why ``payload`` cannot be an ``op`` request, or None."""
    if op == "top_k":
        if (not isinstance(payload, (int, np.integer))
                or isinstance(payload, bool)):
            return f"top_k needs an integer k, got {type(payload).__name__}"
        return None if payload >= 0 else f"top_k needs k >= 0, got {payload}"
    if op == "query":
        if not (isinstance(payload, np.ndarray) and payload.ndim == 1
                and payload.dtype.kind in "iu"):
            return (f"query needs a 1-d integer key array, got "
                    f"{getattr(payload, 'dtype', type(payload).__name__)} "
                    f"with shape {np.shape(payload)}")
        return None
    if not isinstance(payload, SparseBatch):
        return f"predict needs a SparseBatch, got {type(payload).__name__}"
    return None


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed while it waited in the queue.

    Enforced at flush time: a request whose deadline has lapsed is
    failed with this error and excluded from the batched kernel call —
    the answer would arrive too late to be useful, so computing it
    would only steal capacity from requests that can still meet theirs.
    """

#: Flush trigger classification (see the module docstring).
_REASONS = ("budget", "max_batch", "drain")


def _hist_summary_ms(hist) -> dict:
    """Compact ms-scale summary of a latency histogram (caller holds
    the registry lock, so the fields are one consistent cut)."""
    if hist.count == 0:
        return {"count": 0}
    return {
        "count": hist.count,
        "p50": 1e3 * hist.percentile(50.0),
        "p90": 1e3 * hist.percentile(90.0),
        "p99": 1e3 * hist.percentile(99.0),
        "max": 1e3 * hist.max_value,
    }

#: Supported operations and their payload / result conventions:
#: ``predict``: payload is a :class:`SparseBatch`, result is the
#: ``predict_batch`` margin array for that payload's rows;
#: ``query``:   payload is an int64 key array, result is the
#: ``query_many`` / ``estimate_weights`` estimate array;
#: ``top_k``:   payload is an int k, result is ``top_weights(k)``.
_OPS = ("predict", "query", "top_k")


class _Request:
    """One in-flight request (internal)."""

    __slots__ = ("op", "payload", "event", "result", "error", "version",
                 "done_at", "deadline")

    def __init__(self, op, payload, deadline=None):
        self.op = op
        self.payload = payload
        self.event = threading.Event()
        self.result = None
        self.error = None
        self.version = -1
        self.done_at = 0.0
        #: Absolute monotonic instant after which the answer is
        #: worthless (None: no deadline).  Checked at flush time.
        self.deadline = deadline

    def wait(self, timeout=None):
        """Block until flushed; return ``(result, version)`` or raise."""
        if not self.event.wait(timeout):
            raise TimeoutError(f"{self.op} request not flushed within {timeout}s")
        if self.error is not None:
            raise self.error
        return self.result, self.version


class MicroBatchCoalescer:
    """Accumulate concurrent requests; flush each op as one batched call.

    Parameters
    ----------
    snapshots:
        A :class:`~repro.serving.snapshot.SnapshotManager`; every flush
        is answered entirely from ``snapshots.current``.
    latency_budget:
        Max seconds a request may wait for batch-mates before its queue
        is flushed anyway.  The knob trades tail latency for batch size.
    max_batch:
        Flush a queue as soon as it holds this many requests, budget
        notwithstanding.
    max_pending:
        Bounded admission queue: at most this many requests may wait
        per op; the excess is shed at submission with a typed
        :class:`Overload` (None: unbounded, the legacy behaviour).
    default_deadline:
        Relative per-request deadline in seconds applied when a submit
        does not carry its own; lapsed requests fail with
        :class:`DeadlineExceeded` at flush time (None: no deadline).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; the
        ``serve.flush`` hook fires inside the flush critical section,
        so injected failures exercise the crash-only worker contract.
    registry:
        The :class:`~repro.telemetry.MetricsRegistry` all observability
        lives in (a private one is created when omitted).  The legacy
        dict attributes (``requests`` / ``flushes`` / ``flush_reasons``
        / ``batch_size_hist``) are preserved as read-only *views* over
        registry counters — deprecated; read :meth:`stats` or the
        registry snapshot instead.
    """

    def __init__(
        self,
        snapshots,
        *,
        latency_budget: float = 1e-3,
        max_batch: int = 64,
        max_pending: int | None = None,
        default_deadline: float | None = None,
        fault_plan=None,
        registry: MetricsRegistry | None = None,
    ):
        if latency_budget < 0:
            raise ValueError("latency_budget must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be > 0 (or None)")
        self._snapshots = snapshots
        self.latency_budget = float(latency_budget)
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.default_deadline = (
            None if default_deadline is None else float(default_deadline)
        )
        self._fault_plan = fault_plan
        self._cond = threading.Condition()
        self._queues = {op: deque() for op in _OPS}
        self._closing = False
        # Observability: every counter/gauge/histogram lives in one
        # registry, so stats() is a single consistent cut (no more
        # field-by-field reads racing the flush thread).
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._m_requests = {
            op: reg.counter("serve.requests", op=op) for op in _OPS
        }
        self._m_flushes = {
            op: reg.counter("serve.flushes", op=op) for op in _OPS
        }
        self._m_flush_reasons = {
            r: reg.counter("serve.flush_reasons", reason=r) for r in _REASONS
        }
        #: Exact per-(op, size) flush counters — the legacy
        #: ``batch_size_hist`` integer histogram, registry-backed.
        self._m_batch_sizes: dict[str, dict[int, object]] = {
            op: {} for op in _OPS
        }
        self._m_pending = {
            op: reg.gauge("serve.pending", op=op) for op in _OPS
        }
        self._m_queue_wait = {
            op: reg.histogram("serve.queue_wait_seconds", op=op)
            for op in _OPS
        }
        self._m_flush_seconds = {
            op: reg.histogram("serve.flush_seconds", op=op) for op in _OPS
        }
        self._m_shed = {
            op: reg.counter("serve.shed", op=op) for op in _OPS
        }
        self._m_deadline = {
            op: reg.counter("serve.deadline_exceeded", op=op) for op in _OPS
        }
        self._m_flush_errors = {
            op: reg.counter("serve.flush_errors", op=op) for op in _OPS
        }
        self._m_rejected = {
            op: reg.counter("serve.rejected", op=op) for op in _OPS
        }
        self._m_worker_restarts = reg.counter("serve.worker_restarts")
        self._start_worker()

    def _start_worker(self) -> None:
        self._worker = threading.Thread(
            target=self._run, name="repro-coalescer", daemon=True
        )
        self._worker.start()

    # -- legacy dict views (deprecated: read stats() / the registry) ---
    @property
    def requests(self) -> dict:
        """Deprecated view of the ``serve.requests`` counters."""
        with self.registry.locked():
            return {op: c._value for op, c in self._m_requests.items()}

    @property
    def flushes(self) -> dict:
        """Deprecated view of the ``serve.flushes`` counters."""
        with self.registry.locked():
            return {op: c._value for op, c in self._m_flushes.items()}

    @property
    def flush_reasons(self) -> dict:
        """Deprecated view of the ``serve.flush_reasons`` counters."""
        with self.registry.locked():
            return {r: c._value for r, c in self._m_flush_reasons.items()}

    @property
    def batch_size_hist(self) -> dict:
        """Deprecated view of the ``serve.batch_size`` counters
        (op -> {batch size -> flush count}, sizes ascending)."""
        with self.registry.locked():
            return {
                op: {size: c._value for size, c in sorted(sizes.items())}
                for op, sizes in self._m_batch_sizes.items()
            }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def check_request(self, op: str, payload) -> None:
        """Raise ``ValueError`` for an unknown ``op`` and
        :class:`InvalidRequest` for a payload that does not fit it,
        counting the latter in ``serve.rejected{op}``.  Every read runs
        it before it is answered: each coalesced submission, and
        :meth:`~repro.serving.server.SketchServer.serial_request`."""
        if op not in self._queues:
            raise ValueError(f"unknown op {op!r}; expected one of {_OPS}")
        problem = _payload_error(op, payload)
        if problem is not None:
            self._m_rejected[op].inc()
            raise InvalidRequest(problem)

    def submit_nowait(self, op: str, payload,
                      deadline: float | None = None) -> _Request:
        """Enqueue without blocking; caller waits on the returned request.

        ``deadline`` is relative seconds from now (falling back to
        ``default_deadline``); a request still queued when it lapses
        fails with :class:`DeadlineExceeded` instead of occupying the
        flush.  Raises :class:`Overload` when the op's queue already
        holds ``max_pending`` requests — the shed-don't-hang admission
        contract — and :class:`InvalidRequest` for a payload that does
        not fit ``op``, before anything is queued.
        """
        self.check_request(op, payload)
        now = time.monotonic()
        rel = deadline if deadline is not None else self.default_deadline
        req = _Request(op, payload, None if rel is None else now + rel)
        with self._cond:
            if self._closing:
                raise RuntimeError("coalescer is closed")
            q = self._queues[op]
            if self.max_pending is not None and len(q) >= self.max_pending:
                self._m_shed[op].inc()
                raise Overload(
                    f"{op} queue full ({self.max_pending} pending); "
                    f"request shed — retry with backoff"
                )
            if not self._worker.is_alive():
                # Crash-only restart: a worker killed by something the
                # flush guard could not contain comes back on the next
                # submission, with the queues intact.
                self._m_worker_restarts.inc()
                self._start_worker()
            q.append((now, req))
            with self.registry.locked():
                self._m_requests[op].inc()
                self._m_pending[op].inc()
            self._cond.notify()
        return req

    def submit(self, op: str, payload, timeout: float | None = None):
        """Enqueue and block for the flushed answer: ``(result, version)``."""
        return self.submit_nowait(op, payload).wait(timeout)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            with self._cond:
                while True:
                    now = time.monotonic()
                    ready = None
                    deadline = None
                    for op, q in self._queues.items():
                        if not q:
                            continue
                        if self._closing:
                            ready = (op, "drain")
                            break
                        if len(q) >= self.max_batch:
                            ready = (op, "max_batch")
                            break
                        due = q[0][0] + self.latency_budget
                        if due <= now:
                            ready = (op, "budget")
                            break
                        if deadline is None or due < deadline:
                            deadline = due
                    if ready is not None:
                        op, reason = ready
                        q = self._queues[op]
                        # Keep each entry's enqueue stamp: the flush
                        # records the queue-wait distribution from it.
                        batch = [q.popleft() for _ in range(min(len(q), self.max_batch))]
                        self._m_pending[op].dec(len(batch))
                        break
                    if self._closing:
                        return
                    self._cond.wait(None if deadline is None else deadline - now)
            try:
                self._flush(op, batch, reason)
            except BaseException as exc:
                # Crash-only worker: whatever escaped the flush —
                # snapshot access, telemetry, a raising hook — fails
                # the batch's remaining waiters and the loop carries
                # on; the thread itself never dies with requests
                # queued behind it.
                self._m_flush_errors[op].inc()
                self._fail_entries(batch, exc)

    def _fail_entries(self, entries, exc) -> None:
        """Deliver ``exc`` to every not-yet-completed request."""
        for _, r in entries:
            if not r.event.is_set():
                r.error = exc
                r.event.set()

    def _flush(self, op, entries, reason):
        start = time.monotonic()
        # Deadline enforcement first: a lapsed request is failed and
        # excluded — its answer could no longer be used, so computing
        # it would only slow the requests that can still make theirs.
        live = []
        for enq, r in entries:
            if r.deadline is not None and start > r.deadline:
                self._m_deadline[op].inc()
                r.error = DeadlineExceeded(
                    f"{op} deadline lapsed {start - r.deadline:.4f}s "
                    f"before its batch flushed"
                )
                r.event.set()
            else:
                live.append((enq, r))
        # One record for the whole batch's queue waits; the oldest entry
        # is first, so entries[0] carries the max wait.
        self._m_queue_wait[op].record_many(
            [start - enq for enq, _ in entries]
        )
        if not live:
            return
        n = len(live)
        reg = self.registry
        with reg.locked():
            self._m_flushes[op].inc()
            self._m_flush_reasons[reason].inc()
            sizes = self._m_batch_sizes[op]
            size_counter = sizes.get(n)
            if size_counter is None:
                size_counter = reg.counter("serve.batch_size", op=op, size=n)
                sizes[n] = size_counter
            size_counter.inc()
        reqs = [r for _, r in live]
        try:
            # Everything that can fail — including reading the current
            # snapshot — sits inside the guard, so a failure is always
            # delivered to the batch, never left to kill the worker
            # with waiters stranded behind it.
            snap = self._snapshots.current
            if self._fault_plan is not None:
                self._fault_plan.raise_if("serve.flush", op=op)
            with trace.span(
                "serve.flush", op=op, n=n, reason=reason,
                version=snap.version,
            ):
                results = self._HANDLERS[op](
                    snap.model, [r.payload for r in reqs]
                )
            if len(results) != len(reqs):
                raise RuntimeError(
                    f"{op} handler returned {len(results)} results for "
                    f"{len(reqs)} requests"
                )
        except BaseException as exc:  # propagate to every waiter in the batch
            self._m_flush_errors[op].inc()
            for r in reqs:
                r.error = exc
                r.event.set()
            self._m_flush_seconds[op].record(time.monotonic() - start)
            return
        done = time.monotonic()
        for r, res in zip(reqs, results):
            r.result = res
            r.version = snap.version
            r.done_at = done
            r.event.set()
        self._m_flush_seconds[op].record(done - start)
        if hooks.on_flush:
            hooks.flush(op, n, reason, start - live[0][0], done - start)

    # ------------------------------------------------------------------
    # Batched handlers — ONE kernel call per flush.
    # ------------------------------------------------------------------
    @staticmethod
    def _flush_predict(model, payloads):
        if len(payloads) == 1:
            return [model.predict_batch(payloads[0])]
        sizes = [len(b) for b in payloads]
        n = sum(sizes)
        indptr = np.zeros(n + 1, dtype=np.int64)
        counts = np.concatenate([np.diff(b.indptr) for b in payloads])
        np.cumsum(counts, out=indptr[1:])
        # Every part comes from an already-validated batch, so the
        # merge skips re-validation (labels are ignored by predict).
        merged = SparseBatch._trusted(
            indptr,
            np.concatenate([b.indices for b in payloads]),
            np.concatenate([b.values for b in payloads]),
            np.ones(n, dtype=np.int64),
        )
        out = model.predict_batch(merged)
        return np.split(out, np.cumsum(sizes)[:-1])

    @staticmethod
    def _flush_query(model, payloads):
        if len(payloads) == 1:
            return [model.query_many(payloads[0])]
        sizes = [p.size for p in payloads]
        out = model.query_many(np.concatenate(payloads))
        return np.split(out, np.cumsum(sizes)[:-1])

    @staticmethod
    def _flush_top_k(model, payloads):
        # top_weights(k) computes one full ranking and slices, so the
        # answer for any k is a prefix of the answer for max(payloads).
        # A passive heap (WM) is ranked by one query_many kernel call,
        # the same floats as top_weights' scalar estimates.
        k = max(payloads)
        rank = getattr(model, "_rank_heap", None)
        top = model.top_weights(k) if rank is None else rank(
            k, model.query_many
        )
        return [top[:k] for k in payloads]

    #: op -> batched handler; a dict lookup on the flush path instead of
    #: a per-flush getattr/name-mangling round trip.
    _HANDLERS = {
        "predict": _flush_predict.__func__,
        "query": _flush_query.__func__,
        "top_k": _flush_top_k.__func__,
    }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One *consistent* observability cut (legacy dict shape plus
        latency summaries), taken under the registry mutex so a
        histogram can never pair with stale counters."""
        with self.registry.locked():
            return {
                "latency_budget": self.latency_budget,
                "max_batch": self.max_batch,
                "requests": {
                    op: c._value for op, c in self._m_requests.items()
                },
                "flushes": {
                    op: c._value for op, c in self._m_flushes.items()
                },
                "flush_reasons": {
                    r: c._value for r, c in self._m_flush_reasons.items()
                },
                "batch_size_hist": {
                    op: {s: c._value for s, c in sorted(sizes.items())}
                    for op, sizes in self._m_batch_sizes.items()
                },
                "pending": {
                    op: g._value for op, g in self._m_pending.items()
                },
                "queue_wait_ms": {
                    op: _hist_summary_ms(h)
                    for op, h in self._m_queue_wait.items()
                },
                "flush_ms": {
                    op: _hist_summary_ms(h)
                    for op, h in self._m_flush_seconds.items()
                },
                "shed": {
                    op: c._value for op, c in self._m_shed.items()
                },
                "deadline_exceeded": {
                    op: c._value for op, c in self._m_deadline.items()
                },
                "flush_errors": {
                    op: c._value for op, c in self._m_flush_errors.items()
                },
                "rejected": {
                    op: c._value for op, c in self._m_rejected.items()
                },
                "worker_restarts": self._m_worker_restarts._value,
            }

    def close(self, timeout: float | None = None):
        """Drain all pending requests, then stop the worker thread.

        With a ``timeout`` the drain is *bounded*: requests still
        queued when it expires are failed with a ``TimeoutError``
        rather than left hanging on a wedged worker.  Idempotent —
        a second close is a no-op.
        """
        with self._cond:
            self._closing = True
            self._cond.notify()
        self._worker.join(timeout)
        with self._cond:
            leftovers = [e for q in self._queues.values() for e in q]
            for op, q in self._queues.items():
                if q:
                    self._m_pending[op].dec(len(q))
                    q.clear()
        if leftovers:
            exc = TimeoutError(
                f"coalescer closed before flush: {len(leftovers)} queued "
                f"requests abandoned after {timeout}s drain deadline"
            )
            self._fail_entries(leftovers, exc)
