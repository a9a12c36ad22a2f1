"""One workload, one run, in this process; prints one JSON line.

``run.py`` starts this module in a fresh interpreter per run (so the
peak RSS is the workload's own).  With ``--trace 1`` the timed region
runs under :func:`layers.instrument` and the output carries per-layer
figures as well.

Sizes scale with ``--seconds``: the training workloads consume a fixed
number of examples (``*_EPS * seconds``), so the held-out error is a
deterministic function of the seed and the run length, and a faster
commit simply finishes sooner.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import threading
import time
from time import perf_counter

import numpy as np

from inputs import StreamSampler, make_requests, poisson_schedule, rng_for
from openloop import burst, open_loop

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.parallel.ps import PSHarness
from repro.serving.checker import check_snapshot_consistency
from repro.serving.client import ReadRecord
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.server import SketchServer, scalar_answer
from repro.telemetry import MetricsRegistry, hooks

#: Why each workload exists (the same lines as in BENCHMARK.json).
WHY = {
    "train_serve": "AWM active-set training, O(dirty) publish per batch and "
                   "open-loop reads share one GIL: the production shape, "
                   "where a gain that starves the other side shows",
    "ps_train": "only workload through the parameter server (delta codec, "
                "publish per push, reads from its snapshots), a working set "
                "far above the hash cache, and WM heap maintain; wall clock",
}

BATCH = 256
SETUP_REPEATS = 3
HELDOUT = 10_000
POOL = 4096            # distinct read requests, cycled by seeded picks
PREDICT_ROWS = 2000    # rows that predict payloads draw from
#: Read latency percentiles are taken per chunk of this many consecutive
#: requests (p99 then has 20 samples beyond it) and the median over
#: chunks is reported, so one stalled second does not decide a run.
CHUNK = 2000
#: The capacity burst is split into this many bursts; the median counts.
BURSTS = 9
#: Share of the open loop's first requests left out of the latency
#: figures: the reader caches and the process are still settling there.
WARMUP_SHARE = 0.2
#: A run fails when the read generator's p99 lateness exceeds this.
LATE_LIMIT_MS = 50.0

# train_serve: AWM(4096, 1, heap 2048) trains while reads arrive.
TS_WARM = 2048
TS_EPS = 8000          # training examples per --second
TS_RATE = 1000.0
TS_BURST = 600
TS_CHECK_READS = 1500  # earliest reads replayed by the snapshot checker

# ps_train: PS over WMSketch(2^18, 3), url-shaped stream.
PS_WARM = 8192
PS_EPS = 8000
PS_RATE = 1000.0       # reads while the workers train
PS_BURST = 2000
PS_KW = dict(width=2**18, depth=3, heap_capacity=128)
PS_OPTS = dict(n_workers=2, staleness=1, sync_every=1024, batch_size=BATCH)
#: Parameter-server counters of the workloads that do not run one.
NO_PS = {"parallel.sync_bytes": 0, "parallel.ssp_blocked": 0}


def ts_model():
    return AWMSketch(4096, 1, heap_capacity=2048)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class Handed:
    """Wraps the trainer's batch iterator and stamps when each batch was
    handed over, keyed by the example count at the end of the batch."""

    def __init__(self):
        self.t = 0
        self.at: dict[int, float] = {}

    def feed(self, batches):
        for batch in batches:
            self.t += len(batch)
            self.at[self.t] = time.monotonic()
            yield batch


class Serving:
    """Registry counters and hook events the report reads."""

    def __init__(self, registry: MetricsRegistry, hooked: bool):
        self.registry = registry
        self.flushes: list = []
        self.publishes: list = []
        self._mark = registry.snapshot()
        self._hooked = hooked
        if hooked:
            hooks.on_flush.append(self._on_flush)
            hooks.on_publish.append(self._on_publish)

    def _on_flush(self, op, n, reason, wait, seconds):
        self.flushes.append((n, seconds))

    def _on_publish(self, version, t, seconds):
        dirty = self.registry.gauge("publish.dirty_fraction").value
        self.publishes.append((seconds, dirty))

    def close(self):
        if self._hooked:
            hooks.on_flush.remove(self._on_flush)
            hooks.on_publish.remove(self._on_publish)
            self._hooked = False

    def mark(self):
        """Start of the window the report covers."""
        self._mark = self.registry.snapshot()
        del self.flushes[:]
        del self.publishes[:]

    def counter(self, name: str) -> int:
        snap = self.registry.delta(self._mark)["counters"]
        return int(sum(v for k, v in snap.items()
                       if k == name or k.startswith(name + "{")))

    def report(self) -> dict:
        """Per-layer serving figures over the window since :meth:`mark`."""
        delta = self.registry.delta(self._mark)
        agg = MetricsRegistry()
        for key, h in delta["histograms"].items():
            if key.startswith("serve.queue_wait_seconds"):
                agg.merge_snapshot({"histograms": {"wait": h}})
        wait = agg.histogram("wait")
        flush_n = [n for n, _ in self.flushes]
        return {
            "serving.publish_p50_ms": ms_p(
                [s for s, _ in self.publishes], 50),
            "serving.publishes": len(self.publishes),
            "serving.dirty_fraction": (
                float(np.mean([d for _, d in self.publishes]))
                if self.publishes else 0.0),
            "serving.chunks_copied": self.counter("publish.chunks_copied"),
            "serving.queue_wait_p50_ms": (
                1e3 * wait.percentile(50) if wait.count else 0.0),
            "serving.queue_wait_p99_ms": (
                1e3 * wait.percentile(99) if wait.count else 0.0),
            "serving.flush_p50_ms": ms_p([s for _, s in self.flushes], 50),
            "serving.batch_mean": (
                float(np.mean(flush_n)) if flush_n else 0.0),
            "serving.flushes": len(self.flushes),
            "serving.shed": self.counter("serve.shed"),
            "serving.deadline_exceeded":
                self.counter("serve.deadline_exceeded"),
            "serving.flush_errors": self.counter("serve.flush_errors"),
        }


def ms_p(values, q) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


def heldout_error(model, held) -> float:
    margins = model.predict_batch(held)
    return float(np.mean(np.where(margins > 0, 1, -1) != held.labels))


def same_answer(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


def prefix_matches(factory, stream, n: int) -> bool:
    """Per-example ``update`` over a prefix equals ``fit_batch`` state
    bit for bit (sketch cells and the top-K store)."""
    head = next(stream.windows(n))
    ref = factory()
    for ex in head:
        ref.update(ex)
    fast = factory()
    for window in head.windows(BATCH):
        fast.fit_batch(window)
    k = ref.heap.capacity
    return (np.array_equal(ref.sketch_state(), fast.sketch_state())
            and ref.top_weights(k) == fast.top_weights(k))


def sample_matches(samples, snap) -> bool:
    """Coalesced answers equal the scalar reference on ``snap``."""
    return all(version == snap.version and same_answer(
        scalar_answer(snap.model, op, payload), result)
        for op, payload, result, version in samples)


def monotone_published(samples, published) -> bool:
    """Every read hit a published version, and each op's FIFO queue saw
    versions in issue order."""
    last: dict[str, int] = {}
    for op, _payload, _result, version in samples:
        if version not in published or version < last.get(op, -1):
            return False
        last[op] = version
    return bool(samples)


def loadgen_figures(log, generate_s) -> dict:
    return {
        "loadgen.generate_s": generate_s,
        "loadgen.late_p99_ms": ms_p(log.late, 99),
        "loadgen.inflight_max": log.inflight_max,
    }


class Reads:
    """One workload's read requests, their schedule and what came back."""

    def __init__(self, sampler, seed, rate, n_open, n_burst):
        # The request catalogue is part of the workload, like the stream's
        # generative model: fixed, so that heavy-tailed request sizes do
        # not make one seed's reads costlier than another's.  The seed
        # draws the arrivals and which requests are sent.
        rows = sampler.draw(PREDICT_ROWS, rng_for(0, "catalogue"))
        self.requests = make_requests(POOL, sampler.d, rows, seed=0)
        self.due = poisson_schedule(max(1, n_open), rate,
                                    rng_for(seed, "arrivals"))
        self.picks = rng_for(seed, "picks").integers(0, POOL, self.due.size)
        self.burst_picks = np.array_split(
            rng_for(seed, "burst").integers(0, POOL, max(BURSTS, n_burst)),
            BURSTS)
        self.log = None
        self.bursts: list = []

    def open_loop(self, submit, timed, **kw):
        self.log = open_loop(submit, self.requests, self.picks, self.due,
                             **kw, **timed.kw())
        return self.log

    def burst(self, submit, timed):
        self.bursts = [burst(submit, self.requests, picks, **timed.kw())
                       for picks in self.burst_picks]

    def warm(self, submit) -> None:
        """One untimed pass over the request pool, so the reader caches
        are filled before anything is timed."""
        log, _ = burst(submit, self.requests, np.arange(POOL))
        if log.failed:
            raise RuntimeError(f"warm-up reads failed: {log.errors[:3]}")

    @property
    def attempted(self) -> int:
        return len(self.log.late) + sum(len(p) for p in self.burst_picks)

    @property
    def failed(self) -> int:
        return self.log.failed + sum(b.failed for b, _ in self.bursts)

    @property
    def on_schedule(self) -> bool:
        return ms_p(self.log.late, 99) <= LATE_LIMIT_MS

    def figures(self, fresh_from) -> tuple[dict, dict]:
        """End-to-end read metrics and the raw values behind them."""
        log = self.log
        ok = np.flatnonzero(log.answered)
        ok = ok[ok >= int(WARMUP_SHARE * len(log.late))]
        chunks = np.array_split(ok, max(1, ok.size // CHUNK))
        p50 = [ms_p(log.latency[c], 50) for c in chunks]
        p99 = [ms_p(log.latency[c], 99) for c in chunks]
        rates = [int(b.answered.sum()) / secs for b, secs in self.bursts]
        fresh = fresh_from(log.version[ok], log.done_at[ok])
        metrics = {
            "read_p50_ms": float(np.median(p50)),
            "read_p99_ms": float(np.median(p99)),
            "read_capacity_rps": float(np.median(rates)),
            "fresh_p50_ms": ms_p(fresh, 50),
        }
        raw = {"reads": int(ok.size), "chunk_p50_ms": p50,
               "chunk_p99_ms": p99, "burst_rps": rates}
        return metrics, raw


class Timed:
    """The timed region, traced or not."""

    def __init__(self, clock):
        self.clock = clock
        self.wall = 0.0

    @contextlib.contextmanager
    def region(self):
        if self.clock is None:
            t0 = perf_counter()
            yield
            self.wall = perf_counter() - t0
            return
        from layers import instrument

        with instrument(self.clock):
            self.clock.start()
            t0 = perf_counter()
            try:
                yield
            finally:
                self.wall = perf_counter() - t0
                self.clock.stop()

    def kw(self) -> dict:
        return {} if self.clock is None else {"span": self.clock.span}


def result(setups, train_eps, error, reads, fresh_from, layer, *,
           attempted, failed, checks, raw) -> dict:
    metrics, read_raw = reads.figures(fresh_from)
    return {
        "metrics": {"setup_s": float(np.median(setups)),
                    "train_eps": train_eps, "heldout_error": error,
                    **metrics},
        "layer": layer,
        "attempted": reads.attempted + attempted,
        "failed": reads.failed + failed,
        "checks": {**checks, "generator_on_schedule": reads.on_schedule,
                   "no_failed_operations": reads.failed + failed == 0},
        "raw": {"setup_s": setups, **raw, **read_raw},
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def train_serve(seed: int, seconds: float, timed: Timed) -> dict:
    t0 = perf_counter()
    sampler = StreamSampler("rcv1")
    warm = sampler.draw(TS_WARM, rng_for(seed, "warmup"))
    stream = sampler.draw(max(BATCH, int(TS_EPS * seconds)),
                          rng_for(seed, "train"))
    held = sampler.draw(HELDOUT, rng_for(seed, "heldout"))
    # Enough arrivals for training to run 4x longer than planned; the
    # schedule stops when training ends.
    reads = Reads(sampler, seed, TS_RATE, int(TS_RATE * seconds * 4),
                  int(TS_BURST * seconds))
    generate_s = perf_counter() - t0

    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        t0 = perf_counter()
        server = SketchServer(ts_model(), latency_budget=0.0, max_batch=64,
                              publish_every=1)
        handed = Handed()
        server.train(handed.feed(warm.windows(BATCH)))
        reads.warm(server.submit_nowait)
        setups.append(perf_counter() - t0)
    serving = Serving(server.telemetry, hooked=timed.clock is not None)
    serving.mark()

    with timed.region():
        t_start = time.monotonic()
        server.start_training(handed.feed(stream.windows(BATCH)))
        log = reads.open_loop(server.submit_nowait, timed,
                              stop=server.training_done,
                              sample=lambda i: i < TS_CHECK_READS)
        server.training_done.wait()
        train_wall = time.monotonic() - t_start
        server.stop_training(timeout=60.0)
        layer = serving.report()
        reads.burst(server.submit_nowait, timed)
    failed = serving.counter("publish.errors")
    server.close()
    serving.close()

    # The earliest reads, one logical client per op (each op's queue is
    # FIFO, so its versions are monotone in issue order), replayed
    # against a sequential re-execution up to the newest version seen.
    publish_log = list(server.snapshots.publish_log)
    records = {op: [] for op in ("predict", "query", "top_k")}
    for op, payload, answer, version in log.samples:
        records[op].append(ReadRecord(op, payload, answer, version))
    newest = max((s[3] for s in log.samples), default=0)
    consistency = check_snapshot_consistency(
        ts_model, list(warm.windows(BATCH)) + list(stream.windows(BATCH)),
        publish_log[:newest + 1], list(records.values()))
    checks = {
        "snapshot_consistency": consistency["reads_checked"] > 0,
        "update_equals_fit_batch": prefix_matches(ts_model, stream, 1024),
    }
    t_of = dict(publish_log)
    handed_at = np.array([handed.at.get(t_of[v], np.nan)
                          for v in range(len(publish_log))])
    return result(
        setups, len(stream) / train_wall,
        heldout_error(server.model, held), reads,
        lambda v, done: done - handed_at[v],
        {**layer, **NO_PS, **loadgen_figures(log, generate_s)},
        attempted=len(stream) // BATCH, failed=failed, checks=checks,
        raw={"train_wall_s": train_wall, "train_examples": len(stream),
             "reads_checked": consistency["reads_checked"]})


def ps_train(seed: int, seconds: float, timed: Timed) -> dict:
    t0 = perf_counter()
    sampler = StreamSampler("url")
    warm = sampler.draw(PS_WARM, rng_for(seed, "warmup"))
    stream = sampler.draw(max(4 * BATCH, int(PS_EPS * seconds)),
                          rng_for(seed, "train"))
    held = sampler.draw(HELDOUT, rng_for(seed, "heldout"))
    reads = Reads(sampler, seed, PS_RATE, int(PS_RATE * seconds * 4),
                  int(PS_BURST * seconds))
    generate_s = perf_counter() - t0

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        harness = PSHarness(WMSketch, PS_KW, seed=seed, **PS_OPTS)
        harness.fit(warm)
        setups.append(perf_counter() - t0)
    serving = Serving(harness.registry, hooked=timed.clock is not None)
    serving.mark()

    fitted: dict = {}
    done = threading.Event()
    before = harness.manager

    def fit():
        try:
            fitted["model"] = harness.fit(stream)
        finally:
            fitted["end"] = time.monotonic()
            done.set()

    with timed.region():
        t_start = time.monotonic()
        trainer = threading.Thread(target=fit, name="ps-fit")
        trainer.start()
        # fit() builds a fresh SnapshotManager before its first round;
        # reads are served from it while the workers train.
        while harness.manager is before and not done.is_set():
            time.sleep(1e-4)
        coalescer = MicroBatchCoalescer(
            harness.manager, latency_budget=0.0, max_batch=64,
            registry=harness.registry)
        log = reads.open_loop(coalescer.submit_nowait, timed, stop=done,
                              sample=lambda i: i < 300)
        trainer.join()
        layer = serving.report()
        reads.burst(coalescer.submit_nowait, timed)
    if "model" not in fitted:
        raise RuntimeError("parameter-server training failed")
    model = fitted["model"]
    train_wall = fitted["end"] - t_start
    layer["parallel.sync_bytes"] = (serving.counter("ps.push.delta_bytes")
                                    + serving.counter("ps.pull.bytes"))
    layer["parallel.ssp_blocked"] = serving.counter("ps.ssp.blocked")
    failed = serving.counter("publish.errors")
    serving.close()
    after = [(op, payload, *coalescer.submit(op, payload, 60.0))
             for op, payload in reads.requests[:300]]
    coalescer.close(timeout=60.0)
    published = {v for v, _ in harness.manager.publish_log}

    snap = harness.manager.current
    probe = next(held.windows(PREDICT_ROWS))
    keys = np.unique(probe.indices)
    error = heldout_error(model, held)
    pos = float(np.mean(held.labels > 0))
    checks = {
        "model_equals_last_snapshot": (
            np.array_equal(model.predict_batch(probe),
                           snap.model.predict_batch(probe))
            and np.array_equal(model.query_many(keys),
                               snap.model.query_many(keys))
            and model.top_weights(128) == snap.model.top_weights(128)),
        "beats_majority_class": error < min(pos, 1.0 - pos),
        "update_equals_fit_batch": prefix_matches(
            lambda: WMSketch(**PS_KW), stream, 1024),
        "reads_hit_published_versions": monotone_published(
            log.samples, published),
        "coalesced_equals_scalar": sample_matches(after, snap),
    }
    return result(
        setups, len(stream) / train_wall, error, reads,
        lambda v, done: done - t_start,
        {**layer, **loadgen_figures(log, generate_s)},
        attempted=len(harness.history), failed=failed, checks=checks,
        raw={"train_wall_s": train_wall, "train_examples": len(stream)})


WORKLOADS = {"train_serve": train_serve, "ps_train": ps_train}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for the whole workload.  Its threads share the interpreter
    # lock, so a second CPU buys them little; but every lock hand-off
    # between threads on different virtual CPUs waits for a cross-CPU
    # wake-up, whose latency on a shared host drifted 5x between runs
    # and made read latency unsteady.  Threads created later inherit it.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    clock = None
    if args.trace:
        from layers import LayerClock

        clock = LayerClock()
    timed = Timed(clock)
    out = WORKLOADS[args.workload](args.seed, args.seconds, timed)
    out["wall_s"] = timed.wall
    out["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if clock is not None:
        from layers import per_layer_metrics

        out["layer"].update(per_layer_metrics(clock))
    out["backend"] = kernels.active_backend_name()
    out["cpu"] = cpu
    out["checks"] = {k: bool(v) for k, v in out["checks"].items()}
    out["threads_left"] = [t.name for t in threading.enumerate()
                           if t is not threading.main_thread()
                           and t.is_alive()]
    print(json.dumps(out, default=float))
    return 0 if all(out["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
