"""Per-layer timing for the traced benchmark run.

:class:`LayerClock` attributes wall time on one process-wide timeline:
every instant of the traced window belongs to exactly one open span
(the most recently entered one, whatever its thread) or to no span.
A span's *self* time is the time it owned; the self times of all spans
plus the unowned remainder (``unattributed_s``) therefore add up to
the traced wall exactly.  With the interpreter lock only one thread
runs Python at a time, so "most recently entered" is a close proxy
for "running"; code that releases the lock inside a span is charged to
whichever span was entered last.

:func:`instrument` wraps the *public* entry points of each ``repro``
layer from the outside (class attributes, the numpy kernel backend's
function table, a module-level import) and undoes every patch on exit;
nothing under ``src/`` changes.  A span is named ``<layer>.<part>``;
the layer is the ``repro`` subpackage whose function was called.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from collections import defaultdict
from time import perf_counter

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.sketch_table import ScaledSketchTable
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch
from repro.hashing.batch import BatchHasher
from repro.heap.topk import TopKStore
from repro.parallel import ps
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.server import SketchServer
from repro.serving.snapshot import SnapshotManager
from repro.telemetry import hooks

#: Layers in report order (``loadgen`` is the benchmark's own code).
LAYERS = ("data", "hashing", "kernels", "core", "heap", "serving",
          "parallel", "loadgen")

_READER_PREFIX = "serve.reader_hasher"


class _Span:
    __slots__ = ("name", "start", "outer")

    def __init__(self, name, start, outer):
        self.name = name
        self.start = start
        self.outer = outer


class LayerClock:
    """Exclusive wall-time attribution across threads (see module doc)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open: list[_Span] = []
        self._depth = threading.local()
        self._last = 0.0
        self.t0 = None
        self.wall = 0.0
        self.unattributed = 0.0
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def start(self) -> None:
        self.t0 = self._last = perf_counter()

    def stop(self) -> None:
        with self._lock:
            now = perf_counter()
            self._charge(now)
            self.wall = now - self.t0
            self.t0 = None

    def _charge(self, now: float) -> None:
        if self._open:
            self.self_s[self._open[-1].name] += now - self._last
        else:
            self.unattributed += now - self._last
        self._last = now

    def enter(self, name: str):
        if self.t0 is None:
            return None
        depths = self._depth.__dict__
        outer = depths.get(name, 0) == 0
        depths[name] = depths.get(name, 0) + 1
        with self._lock:
            now = perf_counter()
            self._charge(now)
            span = _Span(name, now, outer)
            self._open.append(span)
        return span

    def exit(self, span) -> None:
        if span is None:
            return
        self._depth.__dict__[span.name] -= 1
        with self._lock:
            now = perf_counter()
            if self.t0 is not None:
                self._charge(now)
            if self._open and self._open[-1] is span:
                self._open.pop()
            else:
                self._open[:] = [s for s in self._open if s is not span]
            self.calls[span.name] += 1
            if span.outer:
                self.inclusive_s[span.name] += now - span.start

    def count(self, name: str, n: int = 1) -> None:
        if self.t0 is not None:
            with self._lock:
                self.counts[name] += n

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.enter(name)
        try:
            yield
        finally:
            self.exit(token)

    # -- reading ---------------------------------------------------------
    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def incl(self, *names: str) -> float:
        return sum(self.inclusive_s.get(n, 0.0) for n in names)

    def ncalls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)


def _timed(clock: LayerClock, name: str, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        span = clock.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            clock.exit(span)
    return timed


def _hasher_counted(clock: LayerClock, fn):
    """``BatchHasher.rows``/``rows_into`` plus hit/miss deltas, split
    into trainer-side and serving-reader hashers by metrics prefix."""
    @functools.wraps(fn)
    def timed(self, *args, **kwargs):
        hits, misses = self.hits, self.misses
        span = clock.enter("hashing.rows")
        try:
            return fn(self, *args, **kwargs)
        finally:
            clock.exit(span)
            side = ("reader" if self.metrics_prefix == _READER_PREFIX
                    else "train")
            clock.count(f"hashing.{side}_hits", self.hits - hits)
            clock.count(f"hashing.{side}_misses", self.misses - misses)
    return timed


def _heap_push_counted(clock: LayerClock, fn):
    """``TopKStore.push`` plus admission/eviction counts from its
    return value and the store's membership ``version``."""
    @functools.wraps(fn)
    def timed(self, key, value):
        span = clock.enter("heap.call")
        version = self.version
        try:
            out = fn(self, key, value)
        finally:
            clock.exit(span)
        if out is None:
            if self.version != version:
                clock.count("heap.admits")
        elif out[0] != key:
            clock.count("heap.admits")
            clock.count("heap.evictions")
        return out
    return timed


def _heap_replace_counted(clock: LayerClock, fn):
    @functools.wraps(fn)
    def timed(self, key, value):
        span = clock.enter("heap.call")
        try:
            return fn(self, key, value)
        finally:
            clock.exit(span)
            clock.count("heap.admits")
            clock.count("heap.evictions")
    return timed


class _FlushSpans:
    """A ``serving.flush`` span per coalescer flush, from public surface
    only: it opens when the coalescer thread reads
    ``SnapshotManager.current`` (the first step of every flush) and
    closes in the ``on_flush`` hook (the last step)."""

    def __init__(self, clock: LayerClock):
        self.clock = clock
        self.local = threading.local()

    def opened(self) -> None:
        if threading.current_thread().name != "repro-coalescer":
            return
        self.closed()
        self.local.span = self.clock.enter("serving.flush")

    def closed(self, *_args) -> None:
        span = getattr(self.local, "span", None)
        if span is not None:
            self.local.span = None
            self.clock.exit(span)


@contextlib.contextmanager
def instrument(clock: LayerClock):
    """Wrap every layer's public entry points for the block's duration."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(owner, attr, name):
        patch(owner, attr, _timed(clock, name, owner.__dict__[attr]))

    # data: SparseBatch construction (validation) and shard partitioning.
    wrap(SparseBatch, "__post_init__", "data.batch")
    patch(ps, "partition_batch",
          _timed(clock, "data.partition", ps.partition_batch))
    # hashing
    for attr in ("rows", "rows_into"):
        patch(BatchHasher, attr,
              _hasher_counted(clock, BatchHasher.__dict__[attr]))
    # kernels: every kernel of the numpy backend's function table.
    backend = kernels.get_backend("numpy")
    for kname in kernels.KERNEL_NAMES:
        part = kname if kname in ("fused_update", "fused_predict",
                                  "fused_query") else "other"
        patches.append((backend, kname, getattr(backend, kname)))
        setattr(backend, kname,
                _timed(clock, f"kernels.{part}", getattr(backend, kname)))
    # core: training and the batched read paths of the sketches.
    for cls in (ScaledSketchTable, WMSketch, AWMSketch):
        for attr, name in (("fit_batch", "core.fit_batch"),
                           ("predict_batch", "core.read"),
                           ("query_many", "core.read"),
                           ("top_weights", "core.read")):
            if attr in cls.__dict__:
                wrap(cls, attr, name)
    # heap: every public TopKStore method.
    for attr, fn in list(vars(TopKStore).items()):
        if attr.startswith("_") or not callable(fn):
            continue
        if attr == "push":
            patch(TopKStore, attr, _heap_push_counted(clock, fn))
        elif attr == "replace_min":
            patch(TopKStore, attr, _heap_replace_counted(clock, fn))
        else:
            wrap(TopKStore, attr, "heap.call")
    # serving: admission, training loop, publish, flush.
    wrap(MicroBatchCoalescer, "submit_nowait", "serving.submit")
    wrap(SketchServer, "train", "serving.train")
    wrap(SnapshotManager, "publish", "serving.publish")
    flushes = _FlushSpans(clock)
    current = SnapshotManager.__dict__["current"]

    def current_traced(self):
        flushes.opened()
        return current.fget(self)

    patch(SnapshotManager, "current", property(current_traced))
    hooks.on_flush.append(flushes.closed)
    # parallel: the PS round, push and pull halves, and the whole loop.
    wrap(ps.PSHarness, "fit", "parallel.fit")
    wrap(ps.PSWorker, "train_round", "parallel.train_round")
    wrap(ps.PSWorker, "encode_push", "parallel.push")
    wrap(ps.ParameterServer, "apply_push", "parallel.push")
    wrap(ps.ParameterServer, "encode_pull", "parallel.pull")
    wrap(ps.PSWorker, "apply_pull", "parallel.pull")
    try:
        yield clock
    finally:
        hooks.on_flush.remove(flushes.closed)
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def per_layer_metrics(clock: LayerClock) -> dict[str, float]:
    """The clock's share of the per-layer report (times in seconds)."""
    c = clock.counts
    train_lookups = c["hashing.train_hits"] + c["hashing.train_misses"]
    reader_lookups = c["hashing.reader_hits"] + c["hashing.reader_misses"]
    out = {
        "data.batch_s": clock.incl("data.batch"),
        "hashing.rows_s": clock.incl("hashing.rows"),
        "hashing.lookups": train_lookups,
        "hashing.hit_rate": (c["hashing.train_hits"] / train_lookups
                             if train_lookups else 0.0),
        "hashing.reader_hit_rate": (c["hashing.reader_hits"] / reader_lookups
                                    if reader_lookups else 0.0),
        "kernels.fused_update_s": clock.incl("kernels.fused_update"),
        "kernels.fused_update_calls": clock.ncalls("kernels.fused_update"),
        "kernels.read_s": clock.incl("kernels.fused_predict",
                                     "kernels.fused_query"),
        "core.fit_batch_s": clock.incl("core.fit_batch"),
        "core.self_s": clock.self_s.get("core.fit_batch", 0.0),
        "heap.s": clock.incl("heap.call"),
        "heap.admits": c["heap.admits"],
        "heap.evictions": c["heap.evictions"],
        "parallel.train_round_s": clock.incl("parallel.train_round"),
        "parallel.push_s": clock.incl("parallel.push"),
        "parallel.pull_s": clock.incl("parallel.pull"),
    }
    for layer, s in clock.layer_self().items():
        out[f"{layer}.layer_self_s"] = s
    out["unattributed_s"] = clock.unattributed
    out["traced_wall_s"] = clock.wall
    return out
