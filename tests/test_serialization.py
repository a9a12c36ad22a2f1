"""Tests for sketch serialization (checkpoint / resume)."""

from __future__ import annotations

import io
import struct
import zipfile

import numpy as np
import pytest

from repro.core.awm_sketch import AWMSketch
from repro.core.serialization import (
    from_bytes,
    load_sketch,
    roundtrip_bytes,
    save_sketch,
)
from repro.core.wm_sketch import WMSketch
from repro.data.sparse import SparseExample
from repro.learning.losses import Loss, SmoothedHingeLoss
from repro.learning.schedules import ConstantSchedule


def _train(clf, n=300, seed=0, universe=500):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        nnz = int(rng.integers(1, 4))
        idx = rng.choice(universe, size=nnz, replace=False).astype(np.int64)
        y = 1 if rng.random() < 0.6 else -1
        clf.update(SparseExample(idx, np.ones(nnz), y))
    return clf


class TestRoundtrip:
    def test_awm_roundtrip_preserves_estimates(self):
        clf = _train(AWMSketch(width=128, depth=2, heap_capacity=16,
                               lambda_=1e-4, seed=3))
        restored = from_bytes(roundtrip_bytes(clf))
        probe = np.arange(0, 500, 7, dtype=np.int64)
        assert np.allclose(
            clf.estimate_weights(probe), restored.estimate_weights(probe)
        )
        assert sorted(clf.heap.items()) == pytest.approx(
            sorted(restored.heap.items())
        )
        assert restored.t == clf.t
        assert restored.n_promotions == clf.n_promotions

    def test_wm_roundtrip_preserves_estimates(self):
        clf = _train(WMSketch(width=64, depth=3, heap_capacity=8,
                              lambda_=1e-5, l1=0.01, seed=5))
        restored = from_bytes(roundtrip_bytes(clf))
        probe = np.arange(0, 500, 11, dtype=np.int64)
        assert np.allclose(
            clf.estimate_weights(probe), restored.estimate_weights(probe)
        )
        assert restored.l1 == clf.l1

    def test_resume_training_matches_uninterrupted(self):
        """Checkpoint mid-stream, restore, finish: identical final state
        to an uninterrupted run."""
        a = AWMSketch(width=128, depth=1, heap_capacity=8, lambda_=1e-4,
                      learning_rate=ConstantSchedule(0.2), seed=1)
        b = AWMSketch(width=128, depth=1, heap_capacity=8, lambda_=1e-4,
                      learning_rate=ConstantSchedule(0.2), seed=1)
        rng = np.random.default_rng(2)
        stream = [
            SparseExample(
                np.array([int(rng.integers(0, 200))], dtype=np.int64),
                np.ones(1),
                1 if rng.random() < 0.5 else -1,
            )
            for _ in range(400)
        ]
        for ex in stream[:200]:
            a.update(ex)
            b.update(ex)
        resumed = from_bytes(roundtrip_bytes(a))
        for ex in stream[200:]:
            resumed.update(ex)
            b.update(ex)
        assert np.allclose(resumed.sketch_state(), b.sketch_state())
        probe = np.arange(200, dtype=np.int64)
        assert np.allclose(
            resumed.estimate_weights(probe), b.estimate_weights(probe)
        )

    def test_file_roundtrip(self, tmp_path):
        clf = _train(AWMSketch(width=64, depth=1, heap_capacity=4, seed=0))
        path = tmp_path / "sketch.npz"
        save_sketch(clf, str(path))
        restored = load_sketch(str(path))
        assert np.allclose(clf.sketch_state(), restored.sketch_state())

    def test_custom_loss_preserved(self):
        clf = _train(
            AWMSketch(width=64, depth=1, heap_capacity=4,
                      loss=SmoothedHingeLoss(), seed=0)
        )
        restored = from_bytes(roundtrip_bytes(clf))
        assert isinstance(restored.loss, SmoothedHingeLoss)


class TestErrors:
    def test_unserializable_loss_rejected(self):
        class WeirdLoss(Loss):
            def value(self, tau):
                return 0.0

            def dloss(self, tau):
                return 0.0

        clf = AWMSketch(width=16, depth=1, heap_capacity=2, loss=WeirdLoss())
        with pytest.raises(ValueError):
            roundtrip_bytes(clf)

    def test_non_sketch_rejected(self):
        from repro.core.serialization import save_sketch as save
        import io

        with pytest.raises((TypeError, AttributeError)):
            save(object(), io.BytesIO())


class TestMergedModels:
    """Merged parallel models round-trip with their merge metadata."""

    def _sharded(self, n_workers=3):
        from repro.data.partition import partition_stream
        from repro.data.synthetic import SyntheticStream

        examples = SyntheticStream(
            d=500, n_signal=30, avg_nnz=10, seed=13
        ).materialize(300)
        shards = partition_stream(examples, n_workers, seed=1)
        models = []
        for shard in shards:
            m = WMSketch(128, 2, heap_capacity=16, lambda_=1e-4, seed=6)
            m.fit(shard, batch_size=64)
            models.append(m)
        return models[0].merge(*models[1:])

    def test_merged_from_in_header_and_restored(self):
        merged = self._sharded(3)
        assert merged.merged_from == 3
        restored = from_bytes(roundtrip_bytes(merged))
        assert restored.merged_from == 3
        assert restored.t == merged.t
        assert np.array_equal(restored.sketch_state(), merged.sketch_state())
        assert sorted(restored.heap.items()) == sorted(merged.heap.items())

    def test_restored_merged_model_can_keep_merging(self):
        restored = from_bytes(roundtrip_bytes(self._sharded(2)))
        other = from_bytes(roundtrip_bytes(self._sharded(2)))
        combined = restored.merge(other)
        assert combined.merged_from == 4

    def test_single_stream_model_records_merged_from_one(self):
        clf = _train(WMSketch(width=64, depth=1, heap_capacity=4, seed=0))
        restored = from_bytes(roundtrip_bytes(clf))
        assert restored.merged_from == 1

    def test_awm_merged_roundtrip(self):
        from repro.data.partition import partition_stream
        from repro.data.synthetic import SyntheticStream

        examples = SyntheticStream(
            d=400, n_signal=20, avg_nnz=8, seed=19
        ).materialize(240)
        shards = partition_stream(examples, 2, seed=3)
        models = []
        for shard in shards:
            m = AWMSketch(128, depth=1, heap_capacity=16, seed=4)
            m.fit(shard, batch_size=64)
            models.append(m)
        merged = models[0].merge(models[1])
        restored = from_bytes(roundtrip_bytes(merged))
        assert restored.merged_from == 2
        probe = np.arange(0, 400, 11, dtype=np.int64)
        assert np.allclose(
            restored.estimate_weights(probe), merged.estimate_weights(probe)
        )


class TestStoreCheckpointing:
    """TopKStore contents inside savez checkpoints: values saved with
    the lazy scale folded in, store rebuilt by pure appends (PR 3)."""

    def test_heap_slot_order_roundtrips(self):
        clf = _train(AWMSketch(128, depth=1, heap_capacity=16, seed=1))
        restored = from_bytes(roundtrip_bytes(clf))
        # push_many on an empty store appends in saved order, so even
        # the slot layout survives, not just the entry set.
        assert restored.heap.items() == clf.heap.items()
        restored.heap.check_invariants()

    def test_decayed_heap_scale_folds_into_saved_values(self):
        clf = _train(
            AWMSketch(128, depth=1, heap_capacity=8, lambda_=1e-2, seed=2)
        )
        assert clf.heap.scale != 1.0
        restored = from_bytes(roundtrip_bytes(clf))
        # The archive stores true values; the restored store starts at
        # scale 1.0 with identical visible weights.
        assert restored.heap.scale == 1.0
        for (k1, v1), (k2, v2) in zip(
            clf.heap.items(), restored.heap.items()
        ):
            assert k1 == k2
            assert v1 == v2
        # Further decay behaves identically from the folded state.
        clf.heap.decay(0.5)
        restored.heap.decay(0.5)
        assert clf.heap.items() == restored.heap.items()

    def test_wm_tracked_candidates_and_merged_from_roundtrip(self):
        a = _train(WMSketch(128, 2, heap_capacity=16, seed=3), seed=4)
        b = _train(WMSketch(128, 2, heap_capacity=16, seed=3), seed=5)
        a.merge(b)
        restored = from_bytes(roundtrip_bytes(a))
        assert restored.merged_from == a.merged_from
        assert restored.heap.items() == a.heap.items()
        assert restored.top_weights(8) == a.top_weights(8)


class TestIntegrity:
    """``np.savez`` stores every member with a zip CRC-32, so damage to
    a checkpoint makes it fail to load; it never loads as a different
    model.  (There is no format version.)"""

    MODELS = {
        "wm": lambda: _train(WMSketch(64, 3, heap_capacity=8,
                                      lambda_=1e-5, l1=0.01, seed=5)),
        "awm": lambda: _train(AWMSketch(128, depth=2, heap_capacity=16,
                                        lambda_=1e-4, seed=3)),
    }

    @staticmethod
    def _raises_or_loads_the_same(damaged, payload):
        """True if loading raised; otherwise the model must re-save to
        the original bytes (every saved field identical)."""
        try:
            restored = from_bytes(damaged)
        except Exception:
            return True
        assert roundtrip_bytes(restored) == payload
        return False

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_bit_flips_and_truncations_never_load_another_model(self, name):
        payload = roundtrip_bytes(self.MODELS[name]())
        assert roundtrip_bytes(from_bytes(payload)) == payload
        rng = np.random.default_rng(11)
        raised = 0
        for bit in rng.integers(0, 8 * len(payload), 300).tolist():
            damaged = bytearray(payload)
            damaged[bit // 8] ^= 1 << (bit % 8)
            raised += self._raises_or_loads_the_same(bytes(damaged), payload)
        assert raised > 0
        for size in range(len(payload)):
            assert self._raises_or_loads_the_same(payload[:size], payload)

    @pytest.mark.parametrize("member", ["table.npy", "meta_t.npy"])
    def test_flipped_member_byte_fails_the_crc(self, member):
        payload = roundtrip_bytes(self.MODELS["wm"]())
        info = zipfile.ZipFile(io.BytesIO(payload)).getinfo(member)
        # Local header: 30 fixed bytes, then the name and extra field.
        name_len, extra_len = struct.unpack_from(
            "<HH", payload, info.header_offset + 26
        )
        data_end = (info.header_offset + 30 + name_len + extra_len
                    + info.compress_size)
        damaged = bytearray(payload)
        damaged[data_end - 1] ^= 0x01  # the last value's high byte
        with pytest.raises(zipfile.BadZipFile, match="CRC"):
            from_bytes(bytes(damaged))
