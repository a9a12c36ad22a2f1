"""Publish/read coordination for consistent serving snapshots.

The trainer thread mutates the live model; readers must never observe a
half-applied update (a table written but its scale not yet decayed, an
active-set entry stepped but its evictee not yet folded back).  Rather
than locking every kernel, the trainer **publishes** at example
boundaries: :meth:`SnapshotManager.publish` asks the model for a
consistent copy and swaps it in as :attr:`SnapshotManager.current`.
The swap is a single reference assignment, which the CPython memory
model makes atomic for readers: a reader sees either the old snapshot
or the new one, both internally consistent, and versions only ever
increase.

Publish cost is **O(dirty)**, not O(table): every servable model is a
:class:`~repro.core.sketch_table.ScaledSketchTable` (WM, AWM, and
feature hashing as the depth-1 WM-Sketch) and publishes through
:meth:`~repro.core.sketch_table.ScaledSketchTable.snapshot_incremental`,
which copies only the 256-bucket chunks training touched since the
previous publish and shares every clean chunk with the previous
snapshot's pool by reference (snapshots carry the raw table plus the
lazy scale, so sharing survives decay — see the class docstring).  The
model rebases the chain with one full copy on the first publish and
whenever the dirty fraction crosses the rebase threshold.  Per-publish
``publish.dirty_fraction`` and cumulative ``publish.chunks_copied``
land in the registry alongside ``publish.count`` / ``publish.seconds``.

**Threading contract** (documented, not locked): ``publish`` must run
on the trainer thread.  The manager's lock only serializes *stray
concurrent publishers* — it cannot make the model-side copy safe
against a concurrent ``fit_batch``, because the copy reads the live
table, dirty bitmap and heap slot arrays without synchronization (and
:meth:`~repro.heap.topk.TopKStore.snapshot_view` would read slot
arrays mid-``push_many`` if called off-thread; the store carries a
debug-gated owning-thread assert for exactly that).  The trainer
publishes at batch boundaries, so in the shipped server the contract
holds by construction.

The manager also owns the *reader-side* caches that successive
snapshots thread through: one :class:`~repro.hashing.batch.BatchHasher`
on the served model's backend (hash functions are pure and shared with
the live model, so under numpy its memo stays warm across every
publish; under ``c`` it keeps no memo) and one
:class:`~repro.kernels.workspace.KernelWorkspace` (so steady-state
reads stay zero-allocation).  Those caches are mutable, which is why
batched reads on the current snapshot must stay on a single thread —
the coalescer's flush thread in practice; scalar reads don't touch
them.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro import kernels
from repro.hashing.batch import BatchHasher
from repro.telemetry import MetricsRegistry, hooks, trace


class Snapshot:
    """One published model state: ``(version, t, model)``.

    ``version`` is the publish sequence number (0 = construction),
    ``t`` the number of training examples the model had consumed at
    publish time, ``model`` the read-only snapshot object answering
    ``predict_batch`` / ``query_many`` / ``top_weights`` and their
    scalar twins.
    """

    __slots__ = ("version", "t", "model")

    def __init__(self, version: int, t: int, model):
        self.version = version
        self.t = t
        self.model = model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Snapshot v{self.version} t={self.t}>"


class SnapshotManager:
    """Monotone snapshot chain over one live model.

    Construction publishes version 0 (the model's state as handed in);
    :meth:`publish` folds and swaps the next version.  ``publish`` is
    called from the trainer thread (a lock serializes stray concurrent
    publishers); :attr:`current` may be read from any thread.
    :attr:`publish_log` records ``(version, t)`` per publish — the
    observable history the black-box consistency checker replays.
    """

    def __init__(self, model, *, registry: MetricsRegistry | None = None,
                 breaker=None, fault_plan=None):
        self._model = model
        self._lock = threading.Lock()
        #: Optional :class:`~repro.resilience.breaker.CircuitBreaker`.
        #: While it is open, :meth:`publish` fails fast with
        #: :class:`~repro.resilience.breaker.CircuitOpenError` instead
        #: of re-running a publish path that keeps failing — readers
        #: continue on the last good snapshot, which stays swapped in.
        self.breaker = breaker
        self._fault_plan = fault_plan
        #: Unified telemetry registry (shared with the owning server
        #: when one is passed in, so ``stats()`` reads one cut).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_publishes = self.registry.counter("publish.count")
        self._m_publish_seconds = self.registry.histogram("publish.seconds")
        self._m_publish_errors = self.registry.counter("publish.errors")
        #: Incremental-publish observability: the last publish's dirty
        #: fraction and the cumulative number of 256-bucket chunks
        #: copied across all publishes.
        self._m_dirty_fraction = self.registry.gauge("publish.dirty_fraction")
        self._m_chunks_copied = self.registry.counter("publish.chunks_copied")
        #: The previous chain snapshot's model — ``prev`` for the next
        #: ``snapshot_incremental`` call (clean chunks are shared with
        #: its pool).
        self._prev_model = None
        #: Reader-side caches threaded through every snapshot (see the
        #: module docstring for the single-reader contract).  The hasher
        #: runs the served model's backend: the memo under numpy, none
        #: under ``c``.
        self.reader_hasher = BatchHasher(
            model.family,
            backend=model.kernels,
            registry=self.registry,
            metrics_prefix="serve.reader_hasher",
        )
        self.reader_workspace = kernels.KernelWorkspace()
        #: ``(version, t)`` per publish, in publish order.
        self.publish_log: list[tuple[int, int]] = []
        self._current: Snapshot | None = None
        self.publish()

    @property
    def current(self) -> Snapshot:
        """The latest published snapshot (atomic reference read)."""
        return self._current

    def publish(self) -> Snapshot:
        """Copy the live model's state into a new snapshot and swap it in.

        The copy is the model's ``snapshot_incremental``: only chunks
        dirtied since the previous publish are copied (O(dirty)), clean
        chunks are shared with the previous snapshot's pool, and the
        model decides per publish whether a full rebase is cheaper
        (first publish, broken chain, dirty fraction at or above the
        crossover threshold, or a pool grown past its bound).

        Must be called from the trainer thread — the lock below only
        serializes publishers, it does **not** protect the model-side
        copy from a concurrent ``fit_batch`` (see the module
        docstring's threading contract).

        A failing publish is atomic: the chain state (``current``,
        ``publish_log``, the incremental ``prev`` link) is only mutated
        after the copy succeeded, so readers keep the last good
        snapshot and the next attempt re-publishes from scratch.  With
        a :attr:`breaker` attached, repeated failures trip it and
        subsequent calls fail fast with ``CircuitOpenError`` until the
        reset timeout admits a probe.
        """
        if self.breaker is not None and not self.breaker.allow():
            from repro.resilience.breaker import CircuitOpenError

            self._m_publish_errors.inc()
            raise CircuitOpenError(
                "publish breaker is open; serving continues on the last "
                "good snapshot"
            )
        try:
            return self._publish_locked()
        except BaseException:
            self._m_publish_errors.inc()
            if self.breaker is not None:
                self.breaker.record_failure()
            raise

    def _publish_locked(self) -> Snapshot:
        with self._lock:
            start = perf_counter()
            version = 0 if self._current is None else self._current.version + 1
            if self._fault_plan is not None:
                # Injected *before* the copy: a failed publish must
                # never expose partial state.
                self._fault_plan.raise_if("serve.publish", version=version)
            with trace.span("publish", version=version):
                model, stats = self._model.snapshot_incremental(
                    self._prev_model,
                    batch_hasher=self.reader_hasher,
                    workspace=self.reader_workspace,
                )
                self._prev_model = model
                self._m_dirty_fraction.set(stats["dirty_fraction"])
                self._m_chunks_copied.inc(stats["chunks_copied"])
                snap = Snapshot(version, int(self._model.t), model)
                self.publish_log.append((snap.version, snap.t))
                self._current = snap
            seconds = perf_counter() - start
            self._m_publishes.inc()
            self._m_publish_seconds.record(seconds)
            if self.breaker is not None:
                self.breaker.record_success()
            if hooks.on_publish:
                hooks.publish(snap.version, snap.t, seconds)
            return snap
