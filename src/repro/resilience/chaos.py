"""The chaos harness: seeded fault schedules vs the fault-free truth.

This module is the executable core of the resilience story — the code
behind ``repro chaos`` and ``benchmarks/bench_resilience.py``.  It runs
the PS loop under a :class:`~repro.resilience.faults.FaultPlan` in the
**data-linear regime** (constant-gradient loss, ``lambda = 0``, dyadic
learning rate), where every example's update is an exactly-representable
float64 addend independent of model state.  Sums of such addends are
order-independent, so the fault-free single-stream table is not a
tolerance band but the *bit-exact* answer — and any recovery bug
(a lost round, a double-applied duplicate, a corrupt chunk slipped past
the CRC) shows up as a hard ``np.array_equal`` failure, not a drift.

Why each fault family still converges to that answer:

* **stall** only reorders the modelled schedule — exact sums commute;
* **duplicate push** is dropped whole by the driver's per-worker round
  sequence numbers (at-least-once delivery, idempotent apply);
* **corrupt payload** is rejected by the CRC before any state is
  touched, and the pristine copy is retransmitted after backoff;
* **crash** loses only the in-flight round's never-pushed local
  updates; the respawned replica pulls the driver's full state and
  replays exactly that round onward from its durable ``rounds_done``
  cursor, so every shard example still lands exactly once.

:func:`run_chaos` additionally validates the *serving* side of the
faulty run: it reconstructs the replay stream in push order from the
harness history and hands the publish log + read records (captured live
at each publish) to
:func:`~repro.serving.checker.check_snapshot_consistency` — every
snapshot published mid-fault must be a state sequential training could
have produced.
"""

from __future__ import annotations

import numpy as np

from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch
from repro.data.partition import partition_batch
from repro.data.synthetic import SyntheticStream
from repro.learning.losses import Loss
from repro.learning.schedules import ConstantSchedule
from repro.parallel.ps import PSHarness
from repro.resilience.faults import FaultPlan
from repro.serving.checker import check_snapshot_consistency
from repro.serving.client import ReadRecord
from repro.serving.server import scalar_answer
from repro.telemetry import hooks

__all__ = ["ConstGradLoss", "default_chaos_plan", "run_chaos"]


class ConstGradLoss(Loss):
    """``loss(tau) = -tau`` — the data-linear probe loss.

    ``dloss == -1`` everywhere, so each example's update is
    ``eta * y * R x``: independent of the current weights, and with a
    dyadic ``eta`` and unit-magnitude values, exactly representable in
    float64.  Not a statistical loss (it is unbounded below) — it
    exists to make parallel-training algebra *exact* so schedules,
    merges, and fault recovery can be asserted bit-for-bit.
    ``kernel_id`` stays ``None``: models train it through the
    per-example spec (``StreamingClassifier.fit_batch``), the reference
    every fast path is checked against.
    """

    smoothness = 0.0
    lipschitz = 1.0

    def value(self, tau: float) -> float:
        return -tau

    def dloss(self, tau: float) -> float:
        return -1.0


def default_chaos_plan(seed: int = 0, *, n_workers: int = 4,
                       n_rounds: int = 2) -> FaultPlan:
    """One seeded schedule covering every fault family the loop honours.

    Which worker suffers what (and at which round, bounded by
    ``n_rounds``) is drawn from the plan's own rng, so the schedule —
    like the corruption content — is a pure function of ``seed``.
    Every family lands on a *distinct* worker where the fleet allows,
    keeping the fault interactions interpretable in the report.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    plan = FaultPlan(seed)
    order = plan.rng.permutation(n_workers)

    def worker(i: int) -> int:
        return int(order[i % n_workers])

    def rnd() -> int:
        return int(plan.rng.integers(n_rounds))

    plan.crash_worker(worker(0), rnd())
    plan.stall_worker(worker(1), rnd(), slowdown=3.0)
    plan.duplicate_push(worker(2), rnd())
    plan.corrupt_push(worker(3), rnd())
    plan.drop_push(worker(0), rnd())
    plan.corrupt_pull(worker(1))
    plan.drop_pull(worker(2))
    return plan


def _zipf_examples(n: int, d: int, seed: int):
    """The chaos workload: the same Zipf-feature synthetic stream the
    data-linear test suites train on."""
    return SyntheticStream(
        d=d, n_signal=50, avg_nnz=15, seed=seed
    ).materialize(n)


def run_chaos(
    *,
    plan: FaultPlan | None = None,
    seed: int = 0,
    n_workers: int = 4,
    staleness: int = 0,
    n_examples: int = 600,
    d: int = 1200,
    width: int = 64,
    depth: int = 4,
    sync_every: int = 50,
    batch_size: int = 50,
    publish_every: int = 1,
    heartbeat_timeout: int = 2,
    learning_rate: float = 0.0625,
    check_consistency: bool = True,
    query_keys: int = 16,
    speeds=None,
) -> dict:
    """Run one seeded chaos experiment and report what recovery cost.

    Three runs-worth of evidence in one call:

    1. **fault-free reference** — single-stream training on the same
       example order (the bit-exact ground truth in this regime);
    2. **faulty PS run** — the same examples through :class:`PSHarness`
       with ``plan`` injected at the ``ps.round`` / ``ps.push.wire`` /
       ``ps.pull.wire`` hook points;
    3. **consistency check** — the faulty run's publish log and
       at-publish read records validated by the black-box checker
       against a sequential re-execution of the pushes in schedule
       order.

    Returns a JSON-able report: ``bit_identical`` (the headline),
    ``max_abs_diff``, the fault schedule's firing report, recovery
    telemetry (crash / recover / retry / dedup / corrupt-reject
    counters, recovery wall-seconds), the harness fault events, and the
    checker's counts (or the violation message).

    The default plan (:func:`default_chaos_plan`) assumes at least two
    rounds per worker: ``n_examples / n_workers`` must comfortably
    exceed ``2 * sync_every`` (the defaults give ~3 rounds each).
    """
    if plan is None:
        plan = default_chaos_plan(seed, n_workers=n_workers)
    factory_kwargs = dict(
        width=width,
        depth=depth,
        loss=ConstGradLoss(),
        lambda_=0.0,
        learning_rate=ConstantSchedule(learning_rate),
        seed=9,
        heap_capacity=0,
    )

    def make_model():
        return WMSketch(**factory_kwargs)

    examples = _zipf_examples(n_examples, d, seed + 31)
    batch = SparseBatch.from_examples(examples)

    # 1. Fault-free single-stream reference: the exact answer.
    single = make_model()
    single.fit(examples, batch_size=batch_size)

    # 2. The faulty run.  Read records are captured *live* at each
    # publish (the manager only retains the latest snapshot), giving
    # the checker real mid-fault reads, not just the final state.
    harness = PSHarness(
        WMSketch, factory_kwargs,
        n_workers=n_workers, staleness=staleness, sync_every=sync_every,
        batch_size=batch_size, seed=seed, publish_every=publish_every,
        fault_plan=plan, heartbeat_timeout=heartbeat_timeout,
        speeds=speeds,
    )
    read_rng = np.random.default_rng(seed + 7)
    records: list[ReadRecord] = []

    def _capture(version: int, t: int, seconds: float) -> None:
        mgr = harness.manager
        if mgr is None:  # version 0 publishes during manager construction
            return
        snap = mgr.current
        keys = read_rng.integers(0, d, size=query_keys, dtype=np.int64)
        records.append(ReadRecord(
            op="query",
            payload=keys,
            result=scalar_answer(snap.model, "query", keys),
            version=snap.version,
        ))

    hooks.on_publish.append(_capture)
    try:
        model = harness.fit(batch)
    finally:
        hooks.on_publish.remove(_capture)

    bit_identical = bool(np.array_equal(model.table, single.table))
    max_abs_diff = float(np.max(np.abs(
        np.asarray(model.table, dtype=np.float64)
        - np.asarray(single.table, dtype=np.float64)
    ))) if np.shape(model.table) == np.shape(single.table) else float("inf")

    # 3. Black-box consistency over the faulty run's publish log: the
    # replay stream is the per-round shard windows in the exact order
    # the schedule pushed them (history carries 1-based round numbers).
    consistency: dict = {"checked": False}
    if check_consistency and harness.manager is not None:
        shards = partition_batch(batch, n_workers, seed=seed)
        windows = [list(sh.windows(sync_every)) for sh in shards]
        replay = [
            windows[row["worker"]][row["round"] - 1]
            for row in harness.history
        ]
        try:
            result = check_snapshot_consistency(
                make_model, replay, harness.manager.publish_log, [records],
            )
            consistency = {"checked": True, "ok": True, **result}
        except AssertionError as exc:
            consistency = {"checked": True, "ok": False, "error": str(exc)}

    stats = harness.stats()
    counters = stats["counters"]
    recover_hist = stats["histograms"].get("ps.recover.wall_seconds", {})
    return {
        "seed": seed,
        "staleness": staleness,
        "n_workers": n_workers,
        "n_examples": n_examples,
        "sync_every": sync_every,
        "bit_identical": bit_identical,
        "max_abs_diff": max_abs_diff,
        "faults": plan.report(),
        "events": list(harness.events),
        "counters": {
            "crashes": counters.get("ps.crash.count", 0),
            "recoveries": counters.get("ps.recover.count", 0),
            "heartbeats_missed": counters.get("ps.heartbeat.missed", 0),
            "retries": counters.get("ps.retry.count", 0),
            "wire_dropped": counters.get("ps.wire.dropped", 0),
            "corrupt_rejected": counters.get("ps.wire.corrupt_rejected", 0),
            "duplicates_deduped": counters.get("ps.push.duplicates", 0),
            "pushes_applied": counters.get("ps.push.count", 0),
        },
        "recovery_seconds": {
            "count": recover_hist.get("count", 0),
            "sum": recover_hist.get("sum", 0.0),
            "max": recover_hist.get("max"),
        },
        "publishes": len(harness.manager.publish_log)
        if harness.manager is not None else 0,
        "reads_recorded": len(records),
        "consistency": consistency,
        "modeled_wall_seconds": harness.modeled_wall_seconds(),
    }
