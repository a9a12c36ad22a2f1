"""Single-thread open-loop read generator and the capacity burst.

The generator sleeps to each request's due time on a Poisson schedule
drawn from the seed and submits without waiting; it never slows down
to match the server.  Each request is timed from its *due* time to
its flush completion (``done_at``), so a stall also charges the
requests queued behind it.  Completed requests are reaped as soon as
they reach the head of the in-flight queue, so the generator holds
O(in-flight) request objects; per-request results land in flat
preallocated arrays.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.serving.coalescer import Overload


@dataclass
class ReadLog:
    """What one phase of reads observed (arrays indexed by request)."""

    latency: np.ndarray
    version: np.ndarray
    done_at: np.ndarray
    late: np.ndarray
    failed: int = 0
    inflight_max: int = 0
    errors: list = field(default_factory=list)
    #: ``(op, payload, result, version)`` of every sampled request.
    samples: list = field(default_factory=list)

    @property
    def answered(self) -> np.ndarray:
        return self.version >= 0


def _empty_log(n: int) -> ReadLog:
    return ReadLog(
        latency=np.full(n, np.nan), version=np.full(n, -1, dtype=np.int64),
        done_at=np.zeros(n), late=np.zeros(n),
    )


class _Reaper:
    """Drains completed requests from the head of the in-flight queue."""

    def __init__(self, log: ReadLog, sample, span):
        self.log = log
        self.pending: deque = deque()
        self.sample = sample
        self.span = span

    def reap(self, block: bool, timeout: float = 60.0) -> None:
        log = self.log
        pending = self.pending
        with self.span("loadgen.reap"):
            while pending:
                i, due, req = pending[0]
                if not req.event.is_set():
                    if not block:
                        return
                    if not req.event.wait(timeout):
                        raise TimeoutError(f"read {i} not answered in "
                                           f"{timeout}s")
                pending.popleft()
                if req.error is not None:
                    log.failed += 1
                    log.errors.append(repr(req.error))
                    continue
                log.latency[i] = req.done_at - due
                log.version[i] = req.version
                log.done_at[i] = req.done_at
                if self.sample(i):
                    log.samples.append(
                        (req.op, req.payload, req.result, req.version))


def _no_span(_name):
    return _NULL


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _Null()


def open_loop(submit, requests, picks, due, *, stop=None,
              sample=lambda i: False, span=_no_span) -> ReadLog:
    """Submit ``requests[picks[i]]`` at ``start + due[i]``.

    ``stop`` (an ``Event``) ends the schedule early, e.g. when training
    finishes; requests not yet due are then never sent and keep
    ``version == -1`` without counting as failed.
    """
    n = len(due)
    log = _empty_log(n)
    reaper = _Reaper(log, sample, span)
    pending = reaper.pending
    start = time.monotonic()
    sent = 0
    for i in range(n):
        at = start + due[i]
        now = time.monotonic()
        if at > now:
            time.sleep(at - now)
            now = time.monotonic()
        if stop is not None and stop.is_set():
            break
        log.late[i] = now - at
        op, payload = requests[picks[i]]
        sent += 1
        try:
            req = submit(op, payload)
        except Overload as exc:
            log.failed += 1
            log.errors.append(repr(exc))
            continue
        pending.append((i, at, req))
        if len(pending) > log.inflight_max:
            log.inflight_max = len(pending)
        if pending[0][2].event.is_set():
            reaper.reap(block=False)
    reaper.reap(block=True)
    log.late = log.late[:sent]
    return log


def burst(submit, requests, picks, *, span=_no_span):
    """Submit every request back to back, then wait for all of them.

    Returns ``(log, seconds)`` where ``seconds`` runs from the first
    submission to the last completion.
    """
    n = len(picks)
    log = _empty_log(n)
    reaper = _Reaper(log, lambda i: False, span)
    start = time.monotonic()
    for i in range(n):
        op, payload = requests[picks[i]]
        try:
            reaper.pending.append((i, start, submit(op, payload)))
        except Overload as exc:
            log.failed += 1
            log.errors.append(repr(exc))
    log.inflight_max = len(reaper.pending)
    reaper.reap(block=True)
    answered = log.done_at[log.answered]
    seconds = float(answered.max() - start) if answered.size else float("nan")
    return log, seconds
