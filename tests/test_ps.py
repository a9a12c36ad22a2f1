"""Parameter-server loop: bit-identity, SSP scheduling, divergence
bounds, replica pulls, serving + telemetry wiring.

The executable contracts:

* ``s = 0`` (bulk-synchronous) in the data-linear regime reproduces the
  single-stream table **bit-for-bit** — the same regime and assertion
  as ``tests/test_merge.py``'s one-shot sum-merge, now through the live
  push/pull loop (pushes interleave and pulls overwrite worker state,
  so this exercises far more machinery than the one-shot path).
* Observed staleness never exceeds the knob ``s``, pulls happen every
  ``s + 1`` rounds, and an SSP-blocked fast worker is counted.
* ``s > 0`` under a non-linear loss diverges from the single-stream
  reference, but by no more than the summed worst-case contribution of
  the examples (Lipschitz bound) — and recovers the same heavy hitters.
* A pull makes the worker a bit-exact replica of the driver, in every
  regime.
"""

import numpy as np
import pytest
from conftest import c_backend_param

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch
from repro.data.synthetic import SyntheticStream
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.schedules import ConstantSchedule
from repro.parallel.ps import ParameterServer, PSHarness, PSWorker

from tests.test_merge import _ConstGradLoss, _zipf_stream


def _linear_factory(depth, width=64, kind="wm"):
    """tests/test_merge.py's data-linear construction: constant
    gradient, dyadic eta, lambda=0, exact sqrt(depth).  ``kind="hash"``
    builds the same model as FeatureHashing (depth 1)."""
    kwargs = dict(
        loss=_ConstGradLoss(),
        lambda_=0.0,
        learning_rate=ConstantSchedule(0.0625),
        seed=9,
    )

    def factory():
        if kind == "hash":
            return FeatureHashing(width, **kwargs)
        return WMSketch(width, depth, heap_capacity=0, **kwargs)

    return factory


def _logistic_factory(**overrides):
    kwargs = dict(width=1 << 10, depth=3, seed=3, lambda_=1e-4,
                  heap_capacity=32)
    kwargs.update(overrides)

    def factory():
        return WMSketch(
            kwargs["width"], kwargs["depth"], seed=kwargs["seed"],
            lambda_=kwargs["lambda_"],
            heap_capacity=kwargs["heap_capacity"],
            learning_rate=kwargs.get("learning_rate", 0.1),
            loss=kwargs.get("loss"),
        )

    return factory


def _synthetic(n, seed=7):
    return SyntheticStream(
        d=5000, n_signal=40, avg_nnz=10, seed=seed
    ).materialize(n)


# ----------------------------------------------------------------------
# Bit-identity: the PS loop is the sum-merge, replayed incrementally.
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("kernel_backend")
class TestDataLinearBitIdentity:
    """Runs the numpy push codec; the ``OnC`` twin below the compiled
    one."""

    # Width 64 fits one chunk; depth 4 x width 300 spans four full
    # chunks and a 176-cell partial one.
    @pytest.mark.parametrize(
        "kind, depth, width",
        [("wm", 1, 64), ("wm", 4, 64), ("wm", 4, 300), ("hash", 1, 64)],
        ids=["1", "4", "4x300", "hash"],
    )
    @pytest.mark.parametrize("staleness", [0, 2])
    def test_ps_equals_single_stream(self, kind, depth, width, staleness):
        factory = _linear_factory(depth, width, kind)
        examples = _zipf_stream(500, d=900, seed=31)
        single = factory()
        single.fit(examples, batch_size=50)
        harness = PSHarness(
            factory, n_workers=4, staleness=staleness, sync_every=50,
            batch_size=50, seed=6, publish_every=1,
        )
        model = harness.fit(examples)
        assert np.array_equal(model.table, single.table)
        assert model._scale == single._scale == 1.0
        assert model.t == single.t == len(examples)

    def test_two_workers_uneven_speeds(self):
        factory = _linear_factory(4)
        examples = _zipf_stream(300, d=700, seed=11)
        single = factory()
        single.fit(examples, batch_size=25)
        harness = PSHarness(
            factory, n_workers=2, staleness=1, sync_every=25,
            batch_size=25, seed=2, speeds=[5.0, 1.0],
        )
        model = harness.fit(examples)
        # Data-linear: the final table is the exact sum of every update
        # whatever the schedule — even with blocking and staleness.
        assert np.array_equal(model.table, single.table)

    def test_single_worker_degenerates_to_sequential(self):
        factory = _linear_factory(1)
        examples = _zipf_stream(200, d=500, seed=13)
        single = factory()
        single.fit(examples, batch_size=20)
        harness = PSHarness(
            factory, n_workers=1, staleness=0, sync_every=40,
            batch_size=20, seed=0,
        )
        model = harness.fit(examples)
        assert np.array_equal(model.table, single.table)


@pytest.mark.parametrize("kernel_backend", [c_backend_param()],
                         indirect=True)
class TestDataLinearBitIdentityOnC(TestDataLinearBitIdentity):
    pass


# ----------------------------------------------------------------------
# The sync base: re-anchored in the same pass as every push and pull.
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("kernel_backend")
class TestSyncBaseTracksTable:
    """After every push and every pull a worker's sync base holds its
    raw table's bits, and its scale and fold log: ``chunk_delta``
    advances the base on the pushed chunks, ``chunk_scatter`` writes the
    pulled rows into table and base together, and training touches only
    dirty chunks in between.  Runs the numpy codec; the ``OnC`` twin
    below the compiled one."""

    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize("staleness", [0, 1, 2])
    def test_base_equals_table_after_every_sync(
        self, monkeypatch, staleness, n_workers
    ):
        seen = []

        def checked(method):
            def wrapper(self, *args):
                result = method(self, *args)
                assert (self.sync.base_raw.tobytes()
                        == self.model._table_flat.tobytes()), method.__name__
                assert self.sync.scale == self.model._scale
                assert self.sync.fold_log == self.model._fold_log
                seen.append(method.__name__)
                return result
            return wrapper

        for name in ("encode_push", "apply_pull"):
            monkeypatch.setattr(PSWorker, name,
                                checked(getattr(PSWorker, name)))
        # Depth 3 x width 300: three full chunks and a 132-cell partial
        # one.
        harness = PSHarness(
            _logistic_factory(width=300), n_workers=n_workers,
            staleness=staleness, sync_every=50, batch_size=25, seed=4,
        )
        model = harness.fit(_synthetic(900))
        assert model.size % 256 != 0
        assert seen.count("encode_push") == len(harness.history)
        assert seen.count("apply_pull") == sum(
            row["pulled"] for row in harness.history
        ) > 0


@pytest.mark.parametrize("kernel_backend", [c_backend_param()],
                         indirect=True)
class TestSyncBaseTracksTableOnC(TestSyncBaseTracksTable):
    pass


# ----------------------------------------------------------------------
# SSP scheduling invariants.
# ----------------------------------------------------------------------
class TestSSPScheduling:
    def _run(self, staleness, speeds=None, n=900, n_workers=3):
        harness = PSHarness(
            _logistic_factory(), n_workers=n_workers,
            staleness=staleness, sync_every=50, batch_size=50, seed=1,
            speeds=speeds, publish_every=0,
        )
        harness.fit(_synthetic(n))
        return harness

    @pytest.mark.parametrize("staleness", [0, 1, 3])
    def test_observed_staleness_bounded(self, staleness):
        harness = self._run(staleness, speeds=[4.0, 1.0, 1.0])
        observed = [row["staleness"] for row in harness.history]
        assert max(observed) <= staleness
        hist = harness.stats()["histograms"]["ps.staleness"]
        assert hist["count"] == len(harness.history)
        assert (hist["max"] or 0) <= staleness

    def test_fast_worker_blocks_at_the_barrier(self):
        harness = self._run(1, speeds=[4.0, 1.0, 1.0])
        blocked = harness.stats()["counters"]["ps.ssp.blocked"]
        assert blocked > 0
        # ... and with a slack bound nothing blocks (equal speeds).
        relaxed = self._run(10)
        assert relaxed.stats()["counters"]["ps.ssp.blocked"] == 0

    @pytest.mark.parametrize("staleness", [0, 2])
    def test_pull_cadence_every_s_plus_1_rounds(self, staleness):
        harness = self._run(staleness)
        for w in range(3):
            pull_rounds = [
                row["round"] for row in harness.history
                if row["worker"] == w and row["pulled"]
            ]
            assert all(r % (staleness + 1) == 0 for r in pull_rounds)
            # Every non-final cadence point actually pulled.
            rounds = [row["round"] for row in harness.history
                      if row["worker"] == w]
            expected = [r for r in rounds[:-1] if r % (staleness + 1) == 0]
            assert pull_rounds == expected

    def test_deterministic_replay(self):
        a = self._run(2, speeds=[3.0, 2.0, 1.0])
        b = self._run(2, speeds=[3.0, 2.0, 1.0])
        assert [r["worker"] for r in a.history] == [
            r["worker"] for r in b.history
        ]
        assert np.array_equal(a.model.table, b.model.table)

    def test_rejects_bad_knobs(self):
        factory = _logistic_factory()
        with pytest.raises(ValueError, match="staleness"):
            PSHarness(factory, staleness=-1)
        with pytest.raises(ValueError, match="n_workers"):
            PSHarness(factory, n_workers=0)
        with pytest.raises(ValueError, match="speeds"):
            PSHarness(factory, n_workers=2, speeds=[1.0])
        with pytest.raises(ValueError, match="positive"):
            PSHarness(factory, n_workers=2, speeds=[1.0, 0.0])


# ----------------------------------------------------------------------
# s > 0 divergence: bounded, and semantically benign.
# ----------------------------------------------------------------------
class TestStaleDivergence:
    def test_divergence_bounded_by_lipschitz_sum(self):
        """Under a non-linear loss the stale run differs from the
        single-stream reference, but every example's table contribution
        is bounded by eta * L * sum|v| / sqrt(depth) per bucket (L the
        loss's Lipschitz constant, decays only shrink), so the sup-norm
        gap is at most the summed worst case of both runs."""
        eta = 0.05
        depth = 3

        def factory():
            return WMSketch(
                1 << 10, depth, seed=3, lambda_=0.0,
                learning_rate=ConstantSchedule(eta), heap_capacity=32,
            )

        examples = _synthetic(900)
        single = factory()
        single.fit(examples, batch_size=50)
        harness = PSHarness(
            factory, n_workers=3, staleness=3, sync_every=50,
            batch_size=50, seed=1, speeds=[4.0, 1.0, 1.0],
        )
        model = harness.fit(examples)
        diff = np.abs(
            model._scale * model.table - single._scale * single.table
        )
        assert diff.max() > 0.0  # staleness genuinely diverges
        lipschitz = single.loss.lipschitz
        per_example = [np.abs(e.values).sum() for e in examples]
        bound = 2.0 * eta * lipschitz * sum(per_example) / np.sqrt(depth)
        assert diff.max() <= bound

    def test_stale_run_recovers_the_same_heavy_hitters(self):
        factory = _logistic_factory()
        examples = _synthetic(1200)
        single = factory()
        single.fit(examples, batch_size=64)
        harness = PSHarness(
            factory, n_workers=3, staleness=2, sync_every=100,
            batch_size=64, seed=2,
        )
        model = harness.fit(examples)
        top_single = {k for k, _ in single.top_weights(20)}
        top_ps = {k for k, _ in model.top_weights(20)}
        assert len(top_single & top_ps) / 20 >= 0.5


# ----------------------------------------------------------------------
# Pulls produce bit-exact replicas; promo logs reach the driver heap.
# ----------------------------------------------------------------------
class TestReplicaAndPromotions:
    def test_pull_makes_bit_exact_replica(self):
        harness = PSHarness(
            _logistic_factory(), n_workers=3, staleness=2,
            sync_every=100, batch_size=64, seed=2,
        )
        model = harness.fit(_synthetic(900))
        for worker in harness.workers:
            worker.apply_pull(harness.server.encode_pull(worker.worker_id))
            assert np.array_equal(worker.model.table, model.table)
            assert worker.model._scale == model._scale
            assert worker.model.t == model.t

    def test_driver_heap_tracks_worker_promotions(self):
        harness = PSHarness(
            _logistic_factory(), n_workers=3, staleness=1,
            sync_every=100, batch_size=64, seed=2,
        )
        model = harness.fit(_synthetic(1200))
        counters = harness.stats()["counters"]
        assert counters["ps.promo.keys"] > 0
        items = model.heap.items()
        assert len(items) == 32
        # The final re-estimation pins heap values to the final table.
        keys = np.array(sorted(k for k, _ in items), dtype=np.int64)
        estimates = dict(zip(keys.tolist(),
                             model.estimate_weights(keys).tolist()))
        for key, value in items:
            assert value == estimates[key]

    def test_heapless_models_skip_promotion_plumbing(self):
        harness = PSHarness(
            _logistic_factory(heap_capacity=0), n_workers=2,
            staleness=0, sync_every=50, batch_size=50, seed=0,
        )
        model = harness.fit(_synthetic(300))
        assert model.heap is None
        assert harness.stats()["counters"]["ps.promo.keys"] == 0

    def test_out_of_range_worker_push_is_rejected(self):
        # Worker id 7 on a 2-worker server skipped the dedup ledger: the
        # same push delivered twice was applied twice.
        from repro.parallel.delta import SyncPoint, encode_push

        worker = _logistic_factory()()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_synthetic(60)))
        push = encode_push(worker, sync, n_examples=60, worker_id=7)
        server = ParameterServer(_logistic_factory()(), n_workers=2)
        before = server.model.table.tobytes()
        for _ in range(2):
            with pytest.raises(ValueError, match="worker_id"):
                server.apply_push(push)
        assert server.model.table.tobytes() == before
        assert server.model.t == 0
        assert server._applied_round.tolist() == [-1, -1]


# ----------------------------------------------------------------------
# Serving + telemetry wiring.
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_snapshots_published_through_manager(self):
        harness = PSHarness(
            _logistic_factory(), n_workers=3, staleness=0,
            sync_every=100, batch_size=64, seed=2, publish_every=2,
        )
        model = harness.fit(_synthetic(900))
        assert harness.manager is not None
        snap = harness.manager.current
        assert snap.version >= 1
        # The served model is the final merged state, bit-for-bit.
        assert np.array_equal(snap.model._dense_table(), model.table)
        assert snap.model._scale == model._scale
        counters = harness.stats()["counters"]
        assert counters["publish.count"] == snap.version + 1
        assert counters["ps.publish.count"] >= 1

    def test_publish_every_zero_disables_serving(self):
        harness = PSHarness(
            _logistic_factory(), n_workers=2, staleness=0,
            sync_every=50, batch_size=50, seed=0, publish_every=0,
        )
        harness.fit(_synthetic(200))
        assert harness.manager is None


class TestFleetTelemetry:
    def test_worker_registries_merge_into_driver(self):
        n = 900
        harness = PSHarness(
            _logistic_factory(), n_workers=3, staleness=1,
            sync_every=100, batch_size=64, seed=2,
        )
        harness.fit(_synthetic(n))
        stats = harness.stats()
        counters = stats["counters"]
        # Worker-side counters, shipped as push deltas, sum fleet-wide.
        assert counters["ps.worker.examples"] == n
        assert counters["ps.examples"] == n
        assert counters["ps.worker.rounds"] == counters["ps.push.count"]
        hist = stats["histograms"]["ps.worker.round_seconds"]
        assert hist["count"] == counters["ps.push.count"]
        # Everything was pushed: residuals are empty.
        for worker in harness.workers:
            residual = worker.residual_metrics()
            assert all(v == 0 for v in residual["counters"].values())

    def test_delta_bytes_ratio_accounting(self):
        harness = PSHarness(
            _logistic_factory(width=1 << 14), n_workers=2, staleness=0,
            sync_every=30, batch_size=30, seed=1,
        )
        harness.fit(
            SyntheticStream(d=60_000, n_signal=40, avg_nnz=4,
                            seed=9).materialize(240)
        )
        counters = harness.stats()["counters"]
        pushes = counters["ps.push.count"]
        assert counters["ps.push.full_table_bytes"] == (
            pushes * 8 * (1 << 14) * 3
        )
        # Sparse rounds on a wide table: deltas beat full-state syncs.
        assert harness.delta_bytes_ratio() > 1.0


class TestCapabilityGating:
    def test_awm_sketch_is_rejected(self):
        def factory():
            return AWMSketch(256, 2, seed=1)

        with pytest.raises(TypeError, match="delta sync"):
            PSHarness(factory, n_workers=2).fit(_synthetic(50))
        with pytest.raises(TypeError, match="delta sync"):
            PSWorker(0, factory(), _synthetic(10))
        with pytest.raises(TypeError, match="delta sync"):
            ParameterServer(factory(), 2)
