"""Stale-synchronous parameter-server loop with O(dirty) delta sync.

PR 2's harness merges worker sketches **once**, after every shard is
fully consumed — workers never see each other's updates, and the
driver never has a servable model until the end.  This module upgrades
that to a live loop: the driver owns the global model, workers train
disjoint shards and periodically **push** O(dirty) deltas
(:mod:`repro.parallel.delta`) and **pull** the merged state back,
under a stale-synchronous barrier with a bounded-staleness knob ``s``.

Roles
-----
:class:`PSWorker`
    One shard-bound replica.  Trains ``sync_every``-example rounds
    through the batched kernels, encodes its dirty chunks + top-K
    promotion log into a :class:`~repro.parallel.delta.PushDelta`, and
    rebuilds itself as a bit-exact replica of the driver on every pull
    (raw chunk bits + scale copied; heap re-estimated against the
    merged table, mirroring the one-shot merge's re-promotion).
:class:`ParameterServer`
    The driver.  Applies pushes to the global model
    (``G <- delta * G + U``: a lazy-scale decay plus chunk adds — the
    exact sum-merge of PR 2, replayed incrementally), folds promotion
    logs by re-estimating the logged keys against the merged table,
    sum-merges worker telemetry deltas into the fleet registry, and
    tracks **per-worker pull bitmaps** (the OR of all chunks changed
    since that worker's last pull) so pulls ship only what the worker
    does not already have.
:class:`PSHarness`
    Deterministic in-process scheduler.  Workers advance round by
    round under the SSP invariant — a worker may run round ``r`` only
    while ``r <= min_round + s`` — with relative ``speeds`` modelling
    heterogeneous hardware; the fastest eligible worker (modelled
    completion time, ties by id) goes next, so every run with the same
    inputs replays the same interleaving.  ``s = 0`` is bulk-synchronous:
    everyone pushes and pulls every round, and in the data-linear
    regime the final table is **bit-identical** to single-stream
    training (``tests/test_ps.py``); ``s > 0`` trades freshness for
    fewer pulls (one every ``s + 1`` rounds), with divergence bounded
    by the decayed mass of the examples a stale worker has not yet
    seen.

Correctness sketch
------------------
Linearity does the heavy lifting, exactly as in the one-shot merge:
each push satisfies ``alpha*raw == decay*(pushed-at-sync state) + U``
per chunk, so the driver's scaled table is always the left-to-right
sum of every update each worker has pushed, each decayed by the decays
pushed after it — the same associativity `sum_merge_scaled_tables`
relies on.  Pulls copy raw bits + scale, so a pulled worker *is* the
driver (induction over changed-chunk tracking); its next push
therefore never re-ships driver state, only its own new updates.

Everything here is single-process by design (like
``ParallelHarness(n_workers=1)``): the protocol and its costs — delta
bytes, dirty fractions, staleness, round-trip spans — are measured
for real (``BENCH_ps.json``), while scheduling is modelled, keeping
every test deterministic.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from repro.data.batch import SparseBatch
from repro.data.partition import partition_batch
from repro.heap.topk import TopKStore
from repro.parallel.delta import (
    PayloadCorruptionError,
    PullDelta,
    PushDelta,
    SyncPoint,
    apply_pull,
    apply_push,
    encode_pull,
    encode_push,
    full_table_bytes,
)
from repro.serving.snapshot import SnapshotManager
from repro.telemetry import MetricsRegistry, merge_snapshots, trace

__all__ = ["PSWorker", "ParameterServer", "PSHarness", "SyncTimeout"]


class SyncTimeout(RuntimeError):
    """A push or pull could not be delivered within the retry budget.

    Raised after ``max_retries`` transmission attempts (exponential
    backoff between them) all failed — the in-process analogue of a
    sync RPC timing out against a dead or unreachable peer.
    """


def _check_delta_capable(model) -> None:
    if not getattr(model, "ps_delta_sync", False):
        raise TypeError(
            f"{type(model).__name__} does not support parameter-server "
            f"delta sync (needs ps_delta_sync=True: full state must be "
            f"recoverable from raw table chunks + scale; use the "
            f"one-shot ParallelHarness merge instead)"
        )


class PSWorker:
    """One shard-bound worker replica (driver-side object; the state it
    ships is what a remote process would ship)."""

    def __init__(
        self,
        worker_id: int,
        model,
        shard: "SparseBatch | Sequence",
        *,
        sync_every: int = 256,
        batch_size: int = 64,
    ):
        _check_delta_capable(model)
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self.worker_id = worker_id
        self.model = model
        self.batch_size = int(batch_size)
        if not isinstance(shard, SparseBatch):
            shard = SparseBatch.from_examples(list(shard))
        self._round_windows = list(shard.windows(sync_every))
        self.n_rounds = len(self._round_windows)
        self.rounds_done = 0
        self.last_pull_round = 0
        self.train_seconds = 0.0
        #: Worker-side codec wall (encode_push / apply_pull): runs on
        #: the worker's own core in a real deployment, so it belongs to
        #: the parallel track of the modeled critical path, not the
        #: serialized driver track.
        self.sync_seconds = 0.0
        self._round_examples = 0
        # A fresh model is all-dirty by construction; this worker is a
        # bit-exact replica of the (identically fresh) global model, so
        # nothing has diverged yet and the first push should ship only
        # what the first round touches.
        model._dirty[:] = False
        self.sync = SyncPoint(model)
        if model.heap is not None:
            model.heap.enable_promo_log()
        #: Worker-local telemetry, shipped as additive deltas with every
        #: push and sum-merged into the driver registry (counters and
        #: histograms only — levels would double-count under sum-merge).
        self.registry = MetricsRegistry()
        self._m_examples = self.registry.counter("ps.worker.examples")
        self._m_batches = self.registry.counter("ps.worker.batches")
        self._m_rounds = self.registry.counter("ps.worker.rounds")
        self._m_train_seconds = self.registry.histogram(
            "ps.worker.round_seconds"
        )
        self._metrics_mark = self.registry.snapshot()

    def train_round(self) -> tuple[float, int]:
        """Train the next ``sync_every``-example round; returns
        (wall seconds, examples trained)."""
        window = self._round_windows[self.rounds_done]
        n_batches = 0
        t0 = perf_counter()
        for sub in window.windows(self.batch_size):
            self.model.fit_batch(sub)
            n_batches += 1
        dt = perf_counter() - t0
        n = len(window)
        self.train_seconds += dt
        self._round_examples = n
        self._m_examples.inc(n)
        self._m_batches.inc(n_batches)
        self._m_rounds.inc()
        self._m_train_seconds.record(dt)
        return dt, n

    def encode_push(self) -> tuple[PushDelta, dict]:
        """Encode everything learned since the last sync point.

        Returns the wire delta plus this worker's additive telemetry
        delta (sum-merged into the driver registry on apply).  Advances
        the round counter: a round is *complete* once its delta exists.
        """
        heap = self.model.heap
        promo = heap.drain_promo_log() if heap is not None else ()
        delta = encode_push(
            self.model,
            self.sync,
            promo_keys=promo,
            n_examples=self._round_examples,
            worker_id=self.worker_id,
            round_id=self.rounds_done,
        )
        self.rounds_done += 1
        self._round_examples = 0
        metrics_delta = self.registry.delta(self._metrics_mark)
        self._metrics_mark = self.registry.snapshot()
        return delta, metrics_delta

    def apply_pull(self, pull: PullDelta) -> None:
        """Become a bit-exact replica of the driver's encoded state.

        Called push-first by the harness, so at entry the worker's raw
        bits equal its sync base everywhere; the pull overwrites only
        the shipped chunks, and re-anchoring the sync point is O(pull)
        — scatter the same chunks into the base — not O(table).
        """
        apply_pull(self.model, pull)
        self.model.scatter_chunks(
            pull.chunk_ids, pull.chunks, out=self.sync.base_raw
        )
        self.sync.scale = pull.scale
        self.sync.fold_log = pull.fold_log
        self.model._dirty[:] = False
        self.last_pull_round = self.rounds_done
        heap = self.model.heap
        if heap is not None:
            # Re-estimate the tracked set against the merged table —
            # the same re-promotion the one-shot merge performs.  The
            # admissions this logs are driver-derived (every candidate
            # reached the driver through an earlier push's promo log),
            # so drain them: the next push ships only *new* promotions.
            candidates = {k for k, _ in heap.items()}
            fresh = TopKStore(heap.capacity)
            fresh.enable_promo_log()
            self.model.heap = fresh
            self.model._repromote(
                fresh, candidates, self.model.estimate_weights
            )
            fresh.drain_promo_log()

    def residual_metrics(self) -> dict:
        """Telemetry accrued since the last push (read-only peek —
        does not advance the shipping mark)."""
        return self.registry.delta(self._metrics_mark)

    def recover(self, model, pull: PullDelta) -> None:
        """Respawn this worker onto ``model`` (a fresh factory build)
        from a full-state recovery pull.

        The replacement becomes a bit-exact replica of the driver —
        raw chunk bits, scale, fold accumulator, example clock — and
        ``rounds_done`` is the durable cursor into ``_round_windows``:
        a crash loses only the in-flight round's local (never-pushed)
        updates, and the replay retrains exactly that round onward on
        the pulled state, so every shard example still lands in the
        global model exactly once.
        """
        _check_delta_capable(model)
        self.model = model
        apply_pull(model, pull)
        model._dirty[:] = False
        self.sync = SyncPoint(model)
        if model.heap is not None:
            # The respawned heap starts empty, like a first boot; local
            # training re-promotes, and the driver's heap (which folded
            # every pushed promo log) remains the authoritative top-K.
            model.heap.enable_promo_log()
        self.last_pull_round = self.rounds_done
        self._round_examples = 0
        self._metrics_mark = self.registry.snapshot()


class ParameterServer:
    """The driver: global model + per-worker pull bitmaps."""

    def __init__(self, model, n_workers: int, *,
                 registry: MetricsRegistry | None = None):
        _check_delta_capable(model)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.model = model
        self.n_workers = int(n_workers)
        #: Row ``i`` ORs every chunk changed since worker ``i``'s last
        #: pull — by its own pushes (it must see merged contributions,
        #: not its raw local ones), by other workers', or by a renorm
        #: fold (which rewrites all raw bits, so the row saturates).
        self._pull_dirty = np.zeros(
            (self.n_workers, model._n_chunks()), dtype=bool
        )
        #: Highest round sequence number applied per worker — the
        #: dedup ledger that makes :meth:`apply_push` idempotent when
        #: the wire layer retransmits (at-least-once delivery).
        self._applied_round = np.full(self.n_workers, -1, dtype=np.int64)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_push_count = self.registry.counter("ps.push.count")
        self._m_push_bytes = self.registry.counter("ps.push.delta_bytes")
        self._m_push_full_bytes = self.registry.counter(
            "ps.push.full_table_bytes"
        )
        self._m_push_chunks = self.registry.counter("ps.push.chunks")
        self._m_dirty_fraction = self.registry.histogram(
            "ps.push.dirty_fraction", lo=1e-6, hi=2.0
        )
        self._m_promo_keys = self.registry.counter("ps.promo.keys")
        self._m_promo_admitted = self.registry.counter("ps.promo.admitted")
        self._m_folds = self.registry.counter("ps.fold.count")
        self._m_pull_count = self.registry.counter("ps.pull.count")
        self._m_pull_bytes = self.registry.counter("ps.pull.bytes")
        self._m_examples = self.registry.counter("ps.examples")
        self._m_dup_dropped = self.registry.counter("ps.push.duplicates")

    def apply_push(self, delta: PushDelta,
                   metrics_delta: dict | None = None) -> bool:
        """Fold one worker's delta into the global model.

        Idempotent under duplicated delivery: pushes carry a
        per-worker monotone round sequence number, and a delta at or
        below the last applied round for its worker is dropped whole
        (a retransmission racing its own ack; applying it twice would
        double-count every update it carries).  Returns True when the
        delta was applied, False when it was deduplicated away.
        """
        wid = int(delta.worker_id)
        if (0 <= wid < self.n_workers
                and delta.round_id <= self._applied_round[wid]):
            self._m_dup_dropped.inc()
            return False
        with trace.span("ps.apply_push", worker=delta.worker_id,
                        round=delta.round_id):
            folded = apply_push(self.model, delta)
            if folded:
                self._m_folds.inc()
                self._pull_dirty[:, :] = True
            else:
                self._pull_dirty[:, delta.chunk_ids] = True
            heap = self.model.heap
            if heap is not None and delta.promo_keys.size:
                # Fold the promotion log: re-estimate the keys the
                # worker admitted against the *merged* table and let
                # the heap's own admission rule keep the heaviest.
                uniq = np.unique(delta.promo_keys)
                admitted = heap.fold_delta(
                    uniq, self.model.estimate_weights(uniq)
                )
                self._m_promo_keys.inc(int(uniq.size))
                self._m_promo_admitted.inc(int(admitted))
        self._m_push_count.inc()
        self._m_push_bytes.inc(delta.nbytes)
        self._m_push_full_bytes.inc(full_table_bytes(self.model))
        self._m_push_chunks.inc(int(delta.chunk_ids.size))
        self._m_dirty_fraction.record(
            delta.chunk_ids.size / max(1, delta.n_chunks)
        )
        self._m_examples.inc(delta.n_examples)
        if 0 <= wid < self.n_workers:
            self._applied_round[wid] = delta.round_id
        if metrics_delta is not None:
            self.registry.merge_snapshot(metrics_delta)
        return True

    def encode_pull(self, worker_id: int) -> PullDelta:
        """Encode the chunks ``worker_id`` has not seen since its last
        pull, and clear its bitmap."""
        with trace.span("ps.encode_pull", worker=worker_id):
            row = self._pull_dirty[worker_id]
            chunk_ids = np.flatnonzero(row)
            pull = encode_pull(self.model, chunk_ids)
            row[:] = False
        self._m_pull_count.inc()
        self._m_pull_bytes.inc(pull.nbytes)
        return pull

    def encode_recovery_pull(self, worker_id: int) -> PullDelta:
        """Full-state pull for a respawned worker: saturate its bitmap
        first so the encode ships every chunk — replica bootstrap, not
        the steady-state O(dirty) path."""
        self._pull_dirty[worker_id, :] = True
        return self.encode_pull(worker_id)


class PSHarness:
    """Partition -> SSP loop -> served snapshots, behind one call.

    Parameters
    ----------
    factory / factory_kwargs:
        Model constructor for the driver and every worker (identical
        kwargs — mergeability requires identical hashing seeds).  Must
        build a ``ps_delta_sync`` model (the WM-Sketch).
    n_workers:
        Shard count.
    staleness:
        The SSP bound ``s``: a worker may run round ``r`` only while
        ``r <= min_round + s``, and pulls the merged state once every
        ``s + 1`` rounds.  ``0`` is bulk-synchronous.
    sync_every:
        Examples per round (between pushes) per worker.
    batch_size:
        Mini-batch size inside a round.
    speeds:
        Relative worker speeds for the modelled schedule (default all
        equal).  With unequal speeds and ``s`` small, fast workers hit
        the barrier and block — counted in ``ps.ssp.blocked``.
    publish_every:
        Publish a serving snapshot every N pushes (0 disables the
        :class:`~repro.serving.snapshot.SnapshotManager`); a final
        publish always lands after the loop so the served model is the
        fully merged one.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` consulted
        at the named hook points (``ps.round``, ``ps.push.wire``,
        ``ps.pull.wire``).  ``None`` (the default) keeps the loop on
        the exact fault-free fast path — no payload round-trips, no
        extra branches in the hot code.
    heartbeat_timeout:
        Scheduler ticks a worker may miss its heartbeat before the
        driver declares it dead and respawns it (each loop iteration
        is one tick; live workers heartbeat by completing rounds).
    max_retries:
        Transmission attempts per push/pull before :class:`SyncTimeout`.
    backoff_base:
        First retry's modelled backoff in seconds; doubles per attempt
        (charged to the worker's ``sync_seconds`` track).
    """

    def __init__(
        self,
        factory: Callable[..., Any],
        factory_kwargs: dict[str, Any] | None = None,
        *,
        n_workers: int = 4,
        staleness: int = 0,
        sync_every: int = 256,
        batch_size: int = 64,
        seed: int = 0,
        speeds: Sequence[float] | None = None,
        publish_every: int = 1,
        registry: MetricsRegistry | None = None,
        fault_plan=None,
        heartbeat_timeout: int = 2,
        max_retries: int = 6,
        backoff_base: float = 0.001,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        if heartbeat_timeout < 1:
            raise ValueError(
                f"heartbeat_timeout must be >= 1, got {heartbeat_timeout}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if speeds is not None:
            speeds = [float(v) for v in speeds]
            if len(speeds) != n_workers:
                raise ValueError(
                    f"speeds has {len(speeds)} entries for "
                    f"{n_workers} workers"
                )
            if any(v <= 0 for v in speeds):
                raise ValueError("speeds must be positive")
        self.factory = factory
        self.factory_kwargs = dict(factory_kwargs or {})
        self.n_workers = int(n_workers)
        self.staleness = int(staleness)
        self.sync_every = int(sync_every)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.speeds = speeds or [1.0] * self.n_workers
        self.publish_every = int(publish_every)
        self.fault_plan = fault_plan
        self.heartbeat_timeout = int(heartbeat_timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_staleness = self.registry.histogram(
            "ps.staleness", lo=0.5, hi=128.0, buckets_per_decade=12
        )
        self._m_blocked = self.registry.counter("ps.ssp.blocked")
        self._m_publishes = self.registry.counter("ps.publish.count")
        self._m_retries = self.registry.counter("ps.retry.count")
        self._m_backoff = self.registry.histogram(
            "ps.retry.backoff_seconds", lo=1e-5, hi=100.0
        )
        self._m_wire_dropped = self.registry.counter("ps.wire.dropped")
        self._m_wire_corrupt = self.registry.counter(
            "ps.wire.corrupt_rejected"
        )
        self._m_crashes = self.registry.counter("ps.crash.count")
        self._m_recoveries = self.registry.counter("ps.recover.count")
        self._m_heartbeat_missed = self.registry.counter(
            "ps.heartbeat.missed"
        )
        self._m_recovery_seconds = self.registry.histogram(
            "ps.recover.wall_seconds", lo=1e-6, hi=100.0
        )
        self.model = None
        self.server: ParameterServer | None = None
        self.manager: SnapshotManager | None = None
        self.workers: list[PSWorker] = []
        #: One row per (worker, round) sync event, in schedule order —
        #: the raw material for ``BENCH_ps.json``.
        self.history: list[dict] = []
        #: Fault-lifecycle events (crash / stall / recover), separate
        #: from ``history`` so the bench aggregations stay untouched.
        self.events: list[dict] = []
        self._stall_penalty: list[float] = []
        #: Wall seconds of driver-side work (applying pushes, encoding
        #: pulls, publishing snapshots), serialized on the driver in
        #: the modelled schedule; the worker-side codec halves live in
        #: each worker's ``sync_seconds``.
        self.driver_seconds = 0.0

    def fit(self, examples) -> Any:
        """Run the PS loop over ``examples``; returns the global model."""
        batch = (
            examples if isinstance(examples, SparseBatch)
            else SparseBatch.from_examples(list(examples))
        )
        shards = partition_batch(batch, self.n_workers, seed=self.seed)
        model = self.factory(**self.factory_kwargs)
        _check_delta_capable(model)
        self.model = model
        self.server = ParameterServer(
            model, self.n_workers, registry=self.registry
        )
        # The manager's construction publishes version 0 (a full
        # rebase), so every later publish is O(chunks dirtied by
        # pushes) — the driver model's own bitmap, distinct from the
        # per-worker pull bitmaps.
        self.manager = (
            SnapshotManager(model, registry=self.registry)
            if self.publish_every > 0 else None
        )
        self.workers = [
            PSWorker(
                i,
                self.factory(**self.factory_kwargs),
                shards[i],
                sync_every=self.sync_every,
                batch_size=self.batch_size,
            )
            for i in range(self.n_workers)
        ]
        self.history = []
        self.events = []
        self.driver_seconds = 0.0
        self._stall_penalty = [0.0] * self.n_workers
        s = self.staleness
        active = [i for i in range(self.n_workers)
                  if self.workers[i].n_rounds > 0]
        #: worker id -> tick of death, awaiting heartbeat-timeout
        #: detection and respawn.
        crashed: dict[int, int] = {}
        clock = 0
        pushes_since_publish = 0

        def modeled_finish(i: int) -> float:
            # Completion time of worker i's next round on its own core,
            # under constant per-round cost 1/speed, plus any injected
            # stall penalty (a straggler runs late but correct).
            return (
                (self.workers[i].rounds_done + 1) / self.speeds[i]
                + self._stall_penalty[i]
            )

        while active or crashed:
            clock += 1
            if crashed:
                # Liveness: a worker heartbeats by completing rounds;
                # one that misses heartbeat_timeout ticks is declared
                # dead and respawned from the driver's state.
                self._m_heartbeat_missed.inc(len(crashed))
                for i, since in sorted(crashed.items()):
                    if clock - since >= self.heartbeat_timeout:
                        del crashed[i]
                        self._recover_worker(i, clock)
                        if (self.workers[i].rounds_done
                                < self.workers[i].n_rounds):
                            active.append(i)
                if not active:
                    continue
            min_round = min(self.workers[i].rounds_done for i in active)
            preferred = min(active, key=lambda i: (modeled_finish(i), i))
            eligible = [
                i for i in active
                if self.workers[i].rounds_done <= min_round + s
            ]
            chosen = min(eligible, key=lambda i: (modeled_finish(i), i))
            if chosen != preferred:
                # The modelled-fastest worker is barred by the SSP
                # bound: a real deployment would stall it here.
                self._m_blocked.inc()
            worker = self.workers[chosen]
            if self.fault_plan is not None:
                ev = self.fault_plan.next_event(
                    "ps.round", worker=chosen, round=worker.rounds_done
                )
                if ev is not None and ev.action == "crash":
                    active.remove(chosen)
                    crashed[chosen] = clock
                    self._m_crashes.inc()
                    self.events.append({
                        "event": "crash", "worker": chosen,
                        "round": worker.rounds_done, "clock": clock,
                    })
                    continue
                if ev is not None and ev.action == "stall":
                    self._stall_penalty[chosen] += float(ev.param or 1.0)
                    self.events.append({
                        "event": "stall", "worker": chosen,
                        "round": worker.rounds_done, "clock": clock,
                        "penalty": float(ev.param or 1.0),
                    })
                    # Re-schedule: the stalled worker finishes later in
                    # modelled time, so another worker may now go first.
                    continue
            stale = worker.rounds_done - min_round
            self._m_staleness.record(stale)
            with trace.span("ps.round", worker=chosen,
                            round=worker.rounds_done):
                train_dt, n_ex = worker.train_round()
                t0 = perf_counter()
                delta, metrics_delta = worker.encode_push()
                t1 = perf_counter()
                self._transmit_push(worker, delta, metrics_delta)
                t2 = perf_counter()
                sync_dt = t2 - t0
            worker.sync_seconds += t1 - t0
            self.driver_seconds += t2 - t1
            row = {
                "worker": chosen,
                "round": worker.rounds_done,
                "examples": n_ex,
                "staleness": stale,
                "train_seconds": train_dt,
                "sync_seconds": sync_dt,
                "push_bytes": delta.nbytes,
                "push_chunks": int(delta.chunk_ids.size),
                "pulled": False,
                "pull_bytes": 0,
            }
            if worker.rounds_done >= worker.n_rounds:
                active.remove(chosen)
            elif worker.rounds_done - worker.last_pull_round > s:
                # Pull cadence: every s+1 rounds (every round at s=0).
                t0 = perf_counter()
                pull = self.server.encode_pull(chosen)
                t1 = perf_counter()
                self._deliver_pull(worker, pull)
                self.driver_seconds += t1 - t0
                worker.sync_seconds += perf_counter() - t1
                row["pulled"] = True
                row["pull_bytes"] = pull.nbytes
            self.history.append(row)
            pushes_since_publish += 1
            if (self.manager is not None
                    and pushes_since_publish >= self.publish_every):
                t0 = perf_counter()
                self.manager.publish()
                self.driver_seconds += perf_counter() - t0
                self._m_publishes.inc()
                pushes_since_publish = 0
        heap = model.heap
        if heap is not None:
            # Fold-time promotion estimates go stale as later pushes
            # land; re-score the tracked set against the final table —
            # the same re-promotion the one-shot merge ends with.
            candidates = {k for k, _ in heap.items()}
            fresh = TopKStore(heap.capacity)
            model.heap = fresh
            model._repromote(fresh, candidates, model.estimate_weights)
        if self.manager is not None:
            # Always land a final snapshot: the served model must be the
            # fully merged, finally re-estimated one.
            self.manager.publish()
            self._m_publishes.inc()
        return model

    # -- wire transmission under faults ---------------------------------
    def _backoff(self, worker: PSWorker, attempt: int) -> None:
        """Model one retry wait: exponential backoff charged to the
        worker's sync track, counted + histogrammed."""
        delay = self.backoff_base * (2.0 ** attempt)
        self._m_retries.inc()
        self._m_backoff.record(delay)
        worker.sync_seconds += delay

    def _check_attempts(self, attempt: int, kind: str,
                        worker_id: int, round_id: int) -> None:
        if attempt > self.max_retries:
            raise SyncTimeout(
                f"{kind} from worker {worker_id} round {round_id} not "
                f"delivered after {self.max_retries} retries "
                f"(exponential backoff exhausted)"
            )

    def _transmit_push(self, worker: PSWorker, delta: PushDelta,
                       metrics_delta: dict | None) -> None:
        """Deliver one push to the driver, at-least-once.

        Without a fault plan this is a direct apply (the fault-free
        fast path ships no payload round-trip).  With one, the delta
        crosses the wire as its checksummed payload: drops and
        corruption-rejects retransmit the pristine copy after modelled
        backoff, and a duplicated delivery is applied twice so the
        driver's sequence-number dedup is exercised for real.
        """
        plan = self.fault_plan
        if plan is None:
            self.server.apply_push(delta, metrics_delta)
            return
        wire = delta.to_payload()
        attempt = 0
        while True:
            ev = plan.next_event(
                "ps.push.wire", worker=delta.worker_id,
                round=delta.round_id, attempt=attempt,
            )
            action = ev.action if ev is not None else None
            if action == "drop":
                self._m_wire_dropped.inc()
                self._backoff(worker, attempt)
                attempt += 1
                self._check_attempts(
                    attempt, "push", delta.worker_id, delta.round_id
                )
                continue
            send = plan.corrupt_payload(wire) if action == "corrupt" else wire
            try:
                received = PushDelta.from_payload(send)
            except PayloadCorruptionError:
                # Receiver-side reject: nothing was applied; NACK and
                # retransmit the pristine payload.
                self._m_wire_corrupt.inc()
                self._backoff(worker, attempt)
                attempt += 1
                self._check_attempts(
                    attempt, "push", delta.worker_id, delta.round_id
                )
                continue
            self.server.apply_push(received, metrics_delta)
            if action == "duplicate":
                # The retransmission raced its own ack: the driver sees
                # the same round twice and must dedup it.
                self.server.apply_push(PushDelta.from_payload(wire), None)
            return

    def _deliver_pull(self, worker: PSWorker, pull: PullDelta) -> None:
        """Deliver one (already encoded) pull to its worker — same
        retransmit discipline as pushes; the encoded object is retained
        until applied, so a dropped/corrupted attempt loses nothing."""
        plan = self.fault_plan
        if plan is None:
            worker.apply_pull(pull)
            return
        wire = pull.to_payload()
        attempt = 0
        while True:
            ev = plan.next_event(
                "ps.pull.wire", worker=worker.worker_id,
                round=worker.rounds_done, attempt=attempt,
            )
            action = ev.action if ev is not None else None
            if action == "drop":
                self._m_wire_dropped.inc()
                self._backoff(worker, attempt)
                attempt += 1
                self._check_attempts(
                    attempt, "pull", worker.worker_id, worker.rounds_done
                )
                continue
            send = plan.corrupt_payload(wire) if action == "corrupt" else wire
            try:
                received = PullDelta.from_payload(send)
            except PayloadCorruptionError:
                self._m_wire_corrupt.inc()
                self._backoff(worker, attempt)
                attempt += 1
                self._check_attempts(
                    attempt, "pull", worker.worker_id, worker.rounds_done
                )
                continue
            worker.apply_pull(received)
            return

    def _recover_worker(self, i: int, clock: int) -> None:
        """Respawn dead worker ``i`` as a bit-exact driver replica.

        The replacement model comes from the same factory, the state
        from a full-table recovery pull, and the work cursor from the
        worker's own ``rounds_done`` — recovery therefore replays the
        in-flight round deterministically and the chaos run converges
        to the fault-free table in the data-linear regime.
        """
        t0 = perf_counter()
        worker = self.workers[i]
        pull = self.server.encode_recovery_pull(i)
        worker.recover(self.factory(**self.factory_kwargs), pull)
        dt = perf_counter() - t0
        self.driver_seconds += dt
        self._m_recoveries.inc()
        self._m_recovery_seconds.record(dt)
        self.events.append({
            "event": "recover", "worker": i, "clock": clock,
            "round": worker.rounds_done, "wall_seconds": dt,
            "pull_bytes": pull.nbytes,
        })

    # -- observability ---------------------------------------------------
    def stats(self) -> dict:
        """One fleet-wide telemetry cut: the driver registry (which
        already holds every pushed worker delta) plus each worker's
        since-last-push residual."""
        return merge_snapshots(
            self.registry.snapshot(),
            *[w.residual_metrics() for w in self.workers],
        )

    def modeled_wall_seconds(self) -> float:
        """Modelled critical path: each worker's training + codec work
        runs in parallel on its own core (the slowest binds); driver
        work — applying pushes, encoding pulls, publishing — is
        serialized."""
        slowest = max(
            (w.train_seconds + w.sync_seconds for w in self.workers),
            default=0.0,
        )
        return slowest + self.driver_seconds

    def delta_bytes_ratio(self) -> float:
        """Headline: full-table sync bytes / actual delta bytes, summed
        over every push."""
        snap = self.registry.snapshot()
        pushed = snap["counters"].get("ps.push.delta_bytes", 0)
        full = snap["counters"].get("ps.push.full_table_bytes", 0)
        return full / pushed if pushed else float("inf")
