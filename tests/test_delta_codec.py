"""Delta-codec correctness: encode/apply round-trips, wire transport,
chunk-pool sharing along a delta chain, and the fold path.

The single-worker configuration is the codec's executable semantics:
with one worker pushing every delta to a driver, the driver's scaled
table must track the worker's exactly — bit-for-bit in the data-linear
regime (``lambda = 0``, dyadic eta, exact sqrt(depth)), and to float
re-association tolerance under logistic loss with L2 decay (the decay
product is one rounded scalar).  Pulls are raw-bit copies and must be
exact in *every* regime.

The push codec's arithmetic runs in the kernel backend (``chunk_delta``
/ ``chunk_add``).  Every test here pins one: the unsuffixed classes run
the numpy reference, their ``OnC`` twins at the bottom the compiled
loops, and the malformed-message tests both.
"""

import math
import pickle

import numpy as np
import pytest
from conftest import c_backend_param

from repro import kernels
from repro.core.sketch_table import ScaledSketchTable
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch
from repro.data.synthetic import SyntheticStream
from repro.learning.schedules import ConstantSchedule
from repro.parallel.delta import (
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

from tests.test_merge import _ConstGradLoss

pytestmark = pytest.mark.usefixtures("kernel_backend")

#: Runs a test class on the compiled backend (skipped where it cannot
#: build) instead of numpy.
ON_C = pytest.mark.parametrize(
    "kernel_backend", [c_backend_param()], indirect=True
)
#: Runs a test on both backends.
ON_BOTH = pytest.mark.parametrize(
    "kernel_backend", ["numpy", c_backend_param()], indirect=True
)


def _linear_factory():
    """Data-linear regime: updates are exactly representable addends."""
    return WMSketch(
        64, 4,
        loss=_ConstGradLoss(),
        lambda_=0.0,
        learning_rate=ConstantSchedule(0.0625),
        seed=9,
        heap_capacity=0,
    )


def _logistic_factory():
    return WMSketch(256, 3, seed=5, lambda_=1e-3, heap_capacity=0)


def _stream(n, d=900, seed=31, avg_nnz=15):
    return SyntheticStream(
        d=d, n_signal=50, avg_nnz=avg_nnz, seed=seed
    ).materialize(n)


def _scaled(model):
    return model._scale * model.table


def _all_chunks(model):
    return np.arange(model._n_chunks())


def _sync_pull(worker, driver, sync):
    """Full-state pull (all chunks) + worker-side bookkeeping."""
    apply_pull(worker, encode_pull(driver, _all_chunks(driver)), sync)
    worker._dirty[:] = False


class TestRoundTripFuzz:
    """Random train/push/pull interleavings, driver tracks worker."""

    def _run(self, factory, *, exact, seed, n=400, rounds=12):
        rng = np.random.default_rng(seed)
        examples = _stream(n, seed=seed)
        batch = SparseBatch.from_examples(examples)
        worker = factory()
        driver = factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        cursor = 0
        pushes = 0
        for _ in range(rounds):
            # Train a random-size segment in random-size mini-batches.
            seg = int(rng.integers(0, 80))
            end = min(cursor + seg, len(batch))
            trained = end - cursor
            if trained:
                window = SparseBatch.from_examples(examples[cursor:end])
                bs = int(rng.integers(1, 33))
                for sub in window.windows(bs):
                    worker.fit_batch(sub)
                cursor = end
            delta = encode_push(worker, sync, n_examples=trained)
            apply_push(driver, delta)
            pushes += 1
            if exact:
                assert np.array_equal(driver.table, worker.table)
                assert driver._scale == worker._scale
            else:
                # One rounded scalar product per push accumulates a few
                # ulps between pulls; pulls below re-pin exactness.
                np.testing.assert_allclose(
                    _scaled(driver), _scaled(worker),
                    rtol=1e-10, atol=1e-300,
                )
            if rng.random() < 0.5:
                _sync_pull(worker, driver, sync)
                # A pull is a raw-bit copy: exact in every regime.
                assert np.array_equal(worker.table, driver.table)
                assert worker._scale == driver._scale
        assert pushes == rounds

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_data_linear_bit_exact(self, seed):
        self._run(_linear_factory, exact=True, seed=seed)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_logistic_decay_close(self, seed):
        self._run(_logistic_factory, exact=False, seed=seed)


class TestPushSemantics:
    def test_empty_push_ships_nothing(self):
        worker = _logistic_factory()
        driver = _logistic_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        # No training since the sync point: nothing to ship.
        delta = encode_push(worker, sync)
        assert delta.chunk_ids.size == 0
        assert delta.chunks.size == 0
        assert delta.decay == 1.0
        before = driver.table.copy()
        apply_push(driver, delta)
        assert np.array_equal(driver.table, before)

    def test_successive_pushes_never_double_count(self):
        """The sync point advances on push: two pushes ship disjoint
        progress, and the driver ends where the worker is."""
        worker = _linear_factory()
        driver = _linear_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        examples = _stream(120)
        batch = SparseBatch.from_examples(examples)
        windows = list(batch.windows(40))
        for window in windows:
            worker.fit_batch(window)
            apply_push(driver, encode_push(worker, sync))
        assert np.array_equal(driver.table, worker.table)

    def test_push_marks_driver_chunks_dirty(self):
        worker = _logistic_factory()
        driver = _logistic_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        driver._dirty[:] = False
        batch = SparseBatch.from_examples(_stream(30, avg_nnz=3))
        worker.fit_batch(batch)
        delta = encode_push(worker, sync)
        assert 0 < delta.chunk_ids.size
        apply_push(driver, delta)
        assert np.array_equal(
            np.flatnonzero(driver._dirty), delta.chunk_ids
        )

    def test_nbytes_accounting(self):
        worker = _logistic_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_stream(30)))
        delta = encode_push(worker, sync)
        k = delta.chunk_ids.size
        # Header: decay, n_examples, worker/round ids, chunk count, CRC.
        assert delta.nbytes == 6 * 8 + 8 * k + 8 * 256 * k
        assert full_table_bytes(worker) == 8 * worker.size

    def test_geometry_mismatch_raises(self):
        worker = _logistic_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_stream(10)))
        delta = encode_push(worker, sync)
        other = WMSketch(512, 3, seed=5, lambda_=1e-3, heap_capacity=0)
        with pytest.raises(ValueError, match="geometry"):
            apply_push(other, delta)
        with pytest.raises(ValueError, match="geometry"):
            apply_pull(other, encode_pull(worker, _all_chunks(worker)),
                       SyncPoint(other))

    def test_snapshot_cannot_push(self):
        worker = _logistic_factory()
        snap = worker.snapshot()
        with pytest.raises(TypeError, match="read-only"):
            encode_push(snap, SyncPoint(worker))


class TestWireTransport:
    def test_payload_pickle_round_trip(self):
        from repro.parallel.delta import PullDelta, PushDelta

        worker = _linear_factory()
        driver_a = _linear_factory()
        driver_b = _linear_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_stream(60)))
        delta = encode_push(worker, sync)
        wire = pickle.loads(pickle.dumps(delta.to_payload()))
        apply_push(driver_a, delta)
        apply_push(driver_b, PushDelta.from_payload(wire))
        assert np.array_equal(driver_a.table, driver_b.table)
        pull = encode_pull(driver_a, _all_chunks(driver_a))
        wire = pickle.loads(pickle.dumps(pull.to_payload()))
        clone = _linear_factory()
        apply_pull(clone, PullDelta.from_payload(wire), SyncPoint(clone))
        assert np.array_equal(clone.table, driver_a.table)


class TestPayloadCorruptionFuzz:
    """Adversarial wire fuzzing: every corruption is *detected and
    rejected before apply* — bit flips in any array field, scalar
    tampering (including the checksum itself), truncation, reordering,
    and bit flips in the pickled byte stream.  The sender's pristine
    copy always still decodes, which is what licenses the harness's
    reject-and-retransmit recovery."""

    def _payloads(self):
        worker = _linear_factory()
        driver = _linear_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_stream(60)))
        push = encode_push(worker, sync, n_examples=60)
        apply_push(driver, push)
        pull = encode_pull(driver, _all_chunks(driver))
        return push.to_payload(), pull.to_payload()

    @staticmethod
    def _flip_bit(payload, field, bitpos):
        fields = list(payload)
        arr = fields[field].copy()
        flat = arr.view(np.uint8).reshape(-1)
        flat[bitpos // 8] ^= np.uint8(1 << (bitpos % 8))
        fields[field] = arr
        return tuple(fields)

    def test_array_bit_flips_always_rejected(self):
        from repro.parallel.delta import (
            PayloadCorruptionError, PullDelta, PushDelta,
        )

        rng = np.random.default_rng(0)
        push, pull = self._payloads()
        for payload, cls in ((push, PushDelta), (pull, PullDelta)):
            arrays = [
                i for i, f in enumerate(payload)
                if isinstance(f, np.ndarray) and f.nbytes
            ]
            for _ in range(40):
                fi = int(rng.choice(arrays))
                nbits = payload[fi].nbytes * 8
                bad = self._flip_bit(payload, fi, int(rng.integers(nbits)))
                with pytest.raises(PayloadCorruptionError):
                    cls.from_payload(bad)
            # The sender's pristine copy is untouched and still decodes.
            cls.from_payload(payload)

    def test_scalar_tampering_rejected(self):
        from repro.parallel.delta import (
            PayloadCorruptionError, PullDelta, PushDelta,
        )

        push, pull = self._payloads()
        for payload, cls in ((push, PushDelta), (pull, PullDelta)):
            for i, field in enumerate(payload):
                if isinstance(field, np.ndarray):
                    continue
                bad = list(payload)
                bad[i] = field + 1  # off-by-one incl. the CRC word itself
                with pytest.raises(PayloadCorruptionError):
                    cls.from_payload(tuple(bad))

    def test_truncation_and_reordering_rejected(self):
        from repro.parallel.delta import (
            PayloadCorruptionError, PullDelta, PushDelta,
        )

        push, pull = self._payloads()
        for payload, cls in ((push, PushDelta), (pull, PullDelta)):
            for bad in (payload[:-1], payload[:2], (), 42):
                with pytest.raises(PayloadCorruptionError):
                    cls.from_payload(bad)
            with pytest.raises(PayloadCorruptionError):
                cls.from_payload(tuple(reversed(payload)))
            arrays = [
                i for i, f in enumerate(payload)
                if isinstance(f, np.ndarray)
            ]
            swapped = list(payload)
            swapped[arrays[0]], swapped[arrays[1]] = (
                swapped[arrays[1]], swapped[arrays[0]],
            )
            with pytest.raises(PayloadCorruptionError):
                cls.from_payload(tuple(swapped))

    def test_pickled_stream_bit_flips_never_silently_applied(self):
        """Flip random bits in the *serialized* wire bytes: either the
        unpickle fails, the CRC rejects, or — the only silent outcome
        allowed — the decoded payload is identical to the original
        (the flip landed in redundant framing)."""
        from repro.parallel.delta import PayloadCorruptionError, PushDelta

        rng = np.random.default_rng(1)
        push, _ = self._payloads()
        blob = bytearray(pickle.dumps(push))
        detected = 0
        for _ in range(60):
            pos = int(rng.integers(len(blob)))
            bit = 1 << int(rng.integers(8))
            blob[pos] ^= bit
            try:
                loaded = pickle.loads(bytes(blob))
            except Exception:
                detected += 1  # transport refused — nothing delivered
            else:
                try:
                    PushDelta.from_payload(loaded)
                except PayloadCorruptionError:
                    detected += 1
                else:
                    for a, b in zip(loaded, push):
                        if isinstance(b, np.ndarray):
                            assert np.array_equal(np.asarray(a), b)
                        else:
                            assert a == b
            blob[pos] ^= bit  # restore for the next independent flip
        assert detected > 0

    def test_duplicate_push_deduped_by_sequence_number(self):
        from repro.parallel.delta import PushDelta
        from repro.parallel.ps import ParameterServer

        worker = _linear_factory()
        driver = _linear_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_stream(60)))
        delta = encode_push(worker, sync, n_examples=60, round_id=0)
        server = ParameterServer(driver, 1)
        wire = delta.to_payload()
        assert server.apply_push(PushDelta.from_payload(wire)) is True
        before = driver.table.copy()
        # The retransmission raced its ack: applied == dropped whole.
        assert server.apply_push(PushDelta.from_payload(wire)) is False
        assert np.array_equal(driver.table, before)
        counters = server.registry.snapshot()["counters"]
        assert counters["ps.push.duplicates"] == 1
        assert counters["ps.push.count"] == 1


class TestFoldPath:
    def test_decay_fold_round_trips(self):
        """A renorm fold between pushes: every chunk is dirty, the decay
        product is recovered from the virtual log-scale, and the driver
        still tracks the worker."""
        worker = _logistic_factory()
        driver = _logistic_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        batch = SparseBatch.from_examples(_stream(60))
        worker.fit_batch(batch)
        apply_push(driver, encode_push(worker, sync))
        fold_log_before = worker._fold_log
        worker._decay_scale(1e-200)  # forces a fold (scale < 1e-150)
        assert worker._fold_log != fold_log_before
        assert bool(worker._dirty.all())
        worker.fit_batch(SparseBatch.from_examples(_stream(20, seed=5)))
        delta = encode_push(worker, sync)
        assert delta.chunk_ids.size == worker._n_chunks()
        folded = apply_push(driver, delta)
        assert folded  # the tiny decay folds driver-side too
        np.testing.assert_allclose(
            _scaled(driver), _scaled(worker), rtol=1e-12, atol=1e-300
        )

    def test_log_virtual_scale_tracks_folds(self):
        model = _logistic_factory()
        assert model.log_virtual_scale() == 0.0
        model._decay_scale(0.5)
        np.testing.assert_allclose(
            model.log_virtual_scale(), np.log(0.5), rtol=1e-15
        )
        model._decay_scale(1e-200)
        np.testing.assert_allclose(
            model.log_virtual_scale(), np.log(0.5) + np.log(1e-200),
            rtol=1e-12,
        )


class TestDeltaChainPublication:
    def test_chunk_pool_shared_along_delta_chain(self):
        """Driver snapshots published between pushes share their chunk
        pool: each publish copies only the chunks the pushes dirtied."""
        factory = lambda: WMSketch(1 << 14, 2, seed=5, lambda_=0.0,
                                   heap_capacity=0)
        worker = factory()
        driver = factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        manager = SnapshotManager(driver)  # publishes v0 (full rebase)
        examples = _stream(30, d=50_000, avg_nnz=3)
        batch = SparseBatch.from_examples(examples)
        n_chunks = driver._n_chunks()
        for window in batch.windows(10):
            worker.fit_batch(window)
            delta = encode_push(worker, sync)
            assert delta.chunk_ids.size < n_chunks
            apply_push(driver, delta)
            snap = manager.publish()
            # Chunk-shared (not a rebase): the snapshot maps into a pool.
            assert snap.model._chunk_map is not None
            assert np.array_equal(snap.model._dense_table(), driver.table)
        copied = manager.registry.snapshot()["counters"][
            "publish.chunks_copied"
        ]
        # Three incremental publishes, each O(dirty) — far below three
        # full-table copies.
        assert copied < 3 * n_chunks


class TestDirtyBitmapPickle:
    """Satellite: pickling must carry the dirty bitmap, not reset it to
    all-dirty — a restored parameter-server participant would otherwise
    ship its whole table on the first push."""

    def test_round_trip_preserves_bitmap(self):
        model = WMSketch(1 << 14, 2, seed=5, lambda_=1e-3, heap_capacity=0)
        model._dirty[:] = False
        model.fit_batch(
            SparseBatch.from_examples(_stream(10, d=50_000, avg_nnz=3))
        )
        before = model._dirty.copy()
        assert before.any() and not before.all()
        clone = pickle.loads(pickle.dumps(model))
        assert np.array_equal(clone._dirty, before)
        assert clone._dirty is not model._dirty

    def test_legacy_state_without_bitmap_restores_all_dirty(self):
        model = _logistic_factory()
        model._dirty[:] = False
        state = model.__getstate__()
        state.pop("_dirty", None)  # a checkpoint from before the bitmap
        clone = object.__new__(type(model))
        clone.__setstate__(state)
        assert bool(clone._dirty.all())

    def test_clean_model_round_trips_clean(self):
        model = _logistic_factory()
        model._dirty[:] = False
        clone = pickle.loads(pickle.dumps(model))
        assert not clone._dirty.any()
        # ... and the restored model still trains and marks dirty.
        clone.fit_batch(SparseBatch.from_examples(_stream(10)))
        assert clone._dirty.any()


# ----------------------------------------------------------------------
# Malformed messages: checked whole before anything is written
# ----------------------------------------------------------------------
def _state(model):
    return (model._scale, model._fold_log, model.t, model.table.tobytes(),
            model._dirty.tobytes())


def _sync_state(sync):
    return sync.scale, sync.fold_log, sync.base_raw.tobytes()


def _multi_chunk_factory():
    """900 cells: three full chunks and a 132-cell partial one."""
    return WMSketch(300, 3, seed=5, lambda_=1e-3, heap_capacity=0)


#: Chunk-id lists a 4-chunk table must reject, by defect.
_BAD_IDS = {
    "duplicate": [1, 1],
    "unsorted": [2, 1],
    "negative": [-1],
    "out_of_range": [0, 4],
}


@ON_BOTH
class TestMalformedMessages:
    def _trained_push(self):
        worker = _multi_chunk_factory()
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        worker.fit_batch(SparseBatch.from_examples(_stream(40)))
        return encode_push(worker, sync, n_examples=40)

    def test_short_push_leaves_the_model_untouched(self):
        # Three chunk ids but two rows: the decay used to land first.
        m = WMSketch(1024, 2, heap_capacity=4)
        before = _state(m)
        bad = PushDelta(0, 0, 0.5, 10, np.array([0, 1, 2]),
                        np.ones((2, 256)), np.array([], np.int64),
                        m._n_chunks())
        with pytest.raises(ValueError, match="shape"):
            apply_push(m, bad)
        assert _state(m) == before
        assert m._scale == 1.0 and m.t == 0

    def test_duplicate_ids_are_rejected_not_applied_once(self):
        driver = _multi_chunk_factory()
        driver._dirty[:] = False
        before = _state(driver)
        dup = PushDelta(0, 0, 1.0, 2, np.array([1, 1]), np.ones((2, 256)),
                        np.array([], np.int64), driver._n_chunks())
        with pytest.raises(ValueError, match="strictly increasing"):
            apply_push(driver, dup)
        assert _state(driver) == before

    def test_rejected_push_leaves_the_model_untouched(self):
        push = self._trained_push()
        k = push.chunk_ids.size
        bad_fields = [
            {"chunk_ids": np.array(ids, dtype=np.int64),
             "chunks": np.ones((len(ids), 256))}
            for ids in _BAD_IDS.values()
        ] + [
            {"chunk_ids": push.chunk_ids.astype(np.int32)},
            {"chunk_ids": push.chunk_ids.reshape(1, -1)},
            {"chunks": push.chunks[:-1]},
            {"chunks": push.chunks[:, :255]},
            {"chunks": push.chunks.astype(np.float32)},
            {"decay": 0.0}, {"decay": -0.5}, {"decay": math.inf},
            {"decay": math.nan}, {"decay": None},
            {"n_chunks": 5},
            # Header fields: the clock went negative, the ledger write
            # raised after the table changed, the dedup was skipped.
            {"n_examples": -10**6}, {"n_examples": 2.5},
            {"round_id": math.nan}, {"round_id": -1},
            {"worker_id": -1}, {"worker_id": 0.5},
        ]
        assert k > 1
        for override in bad_fields:
            driver = _multi_chunk_factory()
            driver._dirty[:] = False
            before = _state(driver)
            fields = {name: getattr(push, name)
                      for name in PushDelta.__slots__}
            with pytest.raises(ValueError):
                apply_push(driver, PushDelta(**{**fields, **override}))
            assert _state(driver) == before, override

    def test_rejected_pull_leaves_the_model_untouched(self):
        driver = _multi_chunk_factory()
        driver.fit_batch(SparseBatch.from_examples(_stream(40)))
        pull = encode_pull(driver, _all_chunks(driver))
        bad_fields = [
            {"chunk_ids": np.array(ids, dtype=np.int64),
             "chunks": np.ones((len(ids), 256))}
            for ids in _BAD_IDS.values()
        ] + [
            {"chunk_ids": pull.chunk_ids.astype(np.int32)},
            {"chunks": pull.chunks[:-1]},
            {"chunks": pull.chunks.astype(np.float32)},
            {"scale": 0.0}, {"scale": -1.0}, {"scale": math.inf},
            {"scale": math.nan},
            {"n_chunks": 3},
            # Header fields: a negative clock broke the next fit_batch,
            # a NaN fold log the next push's decay.
            {"t": -7}, {"t": 1.5}, {"fold_log": math.nan},
            {"fold_log": -math.inf}, {"fold_log": None},
        ]
        for override in bad_fields:
            worker = _multi_chunk_factory()
            worker._dirty[:] = False
            sync = SyncPoint(worker)
            before = _state(worker), _sync_state(sync)
            fields = {name: getattr(pull, name)
                      for name in PullDelta.__slots__}
            with pytest.raises(ValueError):
                apply_pull(worker, PullDelta(**{**fields, **override}),
                           sync)
            assert (_state(worker), _sync_state(sync)) == before, override

    def test_pull_into_a_misshapen_sync_base_raises_first(self):
        driver = _multi_chunk_factory()
        driver.fit_batch(SparseBatch.from_examples(_stream(40)))
        pull = encode_pull(driver, _all_chunks(driver))
        worker = _multi_chunk_factory()
        worker._dirty[:] = False
        sync = SyncPoint(worker)
        sync.base_raw = sync.base_raw[:-1].copy()
        before = _state(worker), _sync_state(sync)
        with pytest.raises(ValueError, match="base_flat"):
            apply_pull(worker, pull, sync)
        assert (_state(worker), _sync_state(sync)) == before

    @pytest.mark.parametrize("defect", sorted(_BAD_IDS))
    def test_chunk_moves_reject_bad_ids(self, defect):
        model = _multi_chunk_factory()
        model.fit_batch(SparseBatch.from_examples(_stream(20)))
        model._dirty[:] = False
        before = _state(model)
        ids = np.array(_BAD_IDS[defect], dtype=np.int64)
        rows = np.ones((ids.size, 256))
        base = model._table_flat.copy()
        calls = [
            lambda: model.gather_chunks(ids),
            lambda: model.scatter_chunks(ids, rows, base),
            lambda: model.add_scaled_chunks(ids, rows),
            lambda: encode_pull(model, ids),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="strictly increasing"):
                call()
        assert _state(model) == before
        assert base.tobytes() == model._table_flat.tobytes()

    def test_encode_pull_past_the_last_chunk_raises(self):
        # take(mode="clip") used to return the last chunk's bits.
        driver = _multi_chunk_factory()
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_pull(driver, np.array([driver._n_chunks() + 5]))


def test_push_messages_are_byte_identical_across_backends():
    """A push encoded under numpy and one under c: the same wire bytes,
    and the same driver table once applied (each under its backend)."""
    try:
        kernels.get_backend("c")
    except kernels.BackendUnavailableError as exc:
        pytest.skip(str(exc))
    examples = _stream(90, seed=17)
    payloads, tables = [], []
    for name in ("numpy", "c"):
        worker = WMSketch(300, 3, seed=5, lambda_=1e-3, heap_capacity=0,
                          backend=name)
        driver = WMSketch(300, 3, seed=5, lambda_=1e-3, heap_capacity=0,
                          backend=name)
        sync = SyncPoint(worker)
        worker._dirty[:] = False
        wires = []
        for window in SparseBatch.from_examples(examples).windows(30):
            worker.fit_batch(window)
            delta = encode_push(worker, sync, n_examples=len(window))
            wires.append(pickle.dumps(delta.to_payload()))
            apply_push(driver, delta)
        payloads.append(wires)
        tables.append((driver.table.tobytes(), driver._scale))
    assert payloads[0] == payloads[1]
    assert tables[0] == tables[1]


# ----------------------------------------------------------------------
# The classes above, on the compiled codec
# ----------------------------------------------------------------------
@ON_C
class TestRoundTripFuzzOnC(TestRoundTripFuzz):
    pass


@ON_C
class TestPushSemanticsOnC(TestPushSemantics):
    pass


@ON_C
class TestWireTransportOnC(TestWireTransport):
    pass


@ON_C
class TestPayloadCorruptionFuzzOnC(TestPayloadCorruptionFuzz):
    pass


@ON_C
class TestFoldPathOnC(TestFoldPath):
    pass


@ON_C
class TestDeltaChainPublicationOnC(TestDeltaChainPublication):
    pass
