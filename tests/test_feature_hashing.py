"""Tests for the feature-hashing baseline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from conftest import c_backend_param

from repro.core.serialization import from_bytes, roundtrip_bytes
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample
from repro.data.synthetic import SyntheticStream
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.losses import (
    HingeLoss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)
from repro.learning.ogd import UncompressedClassifier
from repro.learning.schedules import ConstantSchedule


def _ex(indices, values, label):
    return SparseExample(
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        label,
    )


class TestBasics:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            FeatureHashing(0)

    def test_memory_cost_is_width_only(self):
        clf = FeatureHashing(512)
        assert clf.memory_cost_bytes == 4 * 512  # no identifiers stored

    def test_top_weights_unsupported_directly(self):
        # The heap-less WM-Sketch's error: no identifiers to rank.
        clf = FeatureHashing(64)
        with pytest.raises(RuntimeError, match="heap_capacity"):
            clf.top_weights(5)

    def test_learns_simple_problem(self):
        rng = np.random.default_rng(0)
        clf = FeatureHashing(256, lambda_=0.0, learning_rate=0.5)
        for _ in range(300):
            if rng.random() < 0.5:
                clf.update(_ex([0], [1.0], 1))
            else:
                clf.update(_ex([1], [1.0], -1))
        assert clf.predict(_ex([0], [1.0], 1)) == 1
        assert clf.predict(_ex([1], [1.0], -1)) == -1

    def test_estimate_weight_sign_corrected(self):
        """With a huge table (no collisions) the recovered weight matches
        the dense model's weight for the same updates."""
        dense = UncompressedClassifier(10, lambda_=0.0, learning_rate=0.3)
        hashed = FeatureHashing(2**16, lambda_=0.0, learning_rate=0.3, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(200):
            i = int(rng.integers(0, 10))
            y = 1 if rng.random() < 0.5 else -1
            x = _ex([i], [1.0], y)
            dense.update(x)
            hashed.update(x)
        est = hashed.estimate_weights(np.arange(10))
        assert np.allclose(est, dense.dense_weights(), atol=1e-9)

    def test_collisions_corrupt_estimates(self):
        """At width 2 every feature collides; estimates of distinct
        features are linked (this is why Hash recovers poorly, Fig. 3)."""
        clf = FeatureHashing(2, lambda_=0.0, seed=0)
        for _ in range(100):
            clf.update(_ex([0], [1.0], 1))
        est = np.abs(clf.estimate_weights(np.arange(50)))
        # The half of the features landing in feature 0's bucket all
        # "inherit" its magnitude (sign aside); the rest read the other,
        # untouched bucket.  Either way, distinct features cannot be told
        # apart from feature 0 itself.
        assert (est > 1e-6).mean() > 0.3
        trained = clf.estimate_weights(np.array([0]))[0]
        colliding = est[est > 1e-6]
        assert np.allclose(colliding, abs(trained))


class TestCandidateRecovery:
    def test_top_weights_from_candidates(self):
        clf = FeatureHashing(2**14, lambda_=0.0, learning_rate=0.5, seed=3)
        for _ in range(100):
            clf.update(_ex([5], [1.0], 1))
        for _ in range(40):
            clf.update(_ex([9], [1.0], -1))
        top = clf.top_weights_from_candidates(np.arange(20), 2)
        assert top[0][0] == 5
        assert top[1][0] == 9
        assert top[0][1] > 0 > top[1][1]

    def test_candidates_k_larger_than_pool(self):
        clf = FeatureHashing(64, seed=0)
        top = clf.top_weights_from_candidates(np.arange(5), 100)
        assert len(top) == 5


class TestSignedProjection:
    def test_signed_unbiased_inner_product(self):
        """Signed hashing keeps E[<phi(x), phi(w)>] = <x, w>: check that
        a self-inner-product is exactly preserved per example."""
        clf = FeatureHashing(2**12, seed=5)
        x = _ex([1, 100, 200, 300], [1.0, 2.0, -1.0, 0.5], 1)
        (buckets,), (signs,) = clf.family.all_rows(x.indices)
        # No collisions at this width for 4 keys (verify, then the signed
        # projection preserves the norm exactly).
        assert len(set(buckets.tolist())) == 4
        proj = np.zeros(2**12)
        np.add.at(proj, buckets, signs * x.values)
        assert np.dot(proj, proj) == pytest.approx(np.dot(x.values, x.values))


class TestDepthOneSketch:
    def test_is_a_heapless_depth_one_wm_sketch(self):
        clf = FeatureHashing(128, seed=3)
        assert isinstance(clf, WMSketch)
        assert (clf.depth, clf.heap) == (1, None)
        assert clf.table.shape == (1, 128)
        assert clf.ps_delta_sync

    def test_save_sketch_loads_the_equivalent_wm_sketch(self):
        clf = FeatureHashing(256, lambda_=1e-3, seed=4)
        examples = SyntheticStream(d=500, n_signal=20, seed=1).materialize(80)
        clf.fit(examples, batch_size=16)
        loaded = from_bytes(roundtrip_bytes(clf))
        assert type(loaded) is WMSketch
        assert (loaded.width, loaded.depth, loaded.heap) == (256, 1, None)
        assert loaded.table.tobytes() == clf.table.tobytes()
        assert (loaded._scale, loaded.t) == (clf._scale, clf.t)
        keys = np.arange(500, dtype=np.int64)
        assert (loaded.query_many(keys).tobytes()
                == clf.query_many(keys).tobytes())


# ----------------------------------------------------------------------
# Golden digests: FeatureHashing's behaviour when it had its own table
# ----------------------------------------------------------------------
GOLDEN_STREAM = SyntheticStream(d=2000, n_signal=100, avg_nnz=12.0, seed=3)
GOLDEN_TRAIN = GOLDEN_STREAM.materialize(600)
GOLDEN_HELD = SparseBatch.from_examples(
    GOLDEN_STREAM.materialize(128, seed_offset=5)
)
GOLDEN_KEYS = np.concatenate(
    [np.arange(0, 2000, 3), np.arange(10**9, 10**9 + 50)]
)

#: Model keyword arguments per configuration; ``hinge_renorm`` halves
#: the lazy scale every step, so it folds into the table once.
GOLDEN_CONFIGS = {
    "logistic": lambda: dict(loss=LogisticLoss(), lambda_=1e-6,
                             learning_rate=0.1),
    "smoothed_hinge": lambda: dict(loss=SmoothedHingeLoss(0.5),
                                   lambda_=1e-3, learning_rate=0.3),
    "hinge_renorm": lambda: dict(loss=HingeLoss(), lambda_=1.0,
                                 learning_rate=ConstantSchedule(0.5)),
    "squared": lambda: dict(loss=SquaredLoss(), lambda_=0.0,
                            learning_rate=0.05),
}

#: config -> (state, reads).  ``state`` is the SHA-256 of the raw table
#: bits, the lazy scale, ``t`` and the 600 pre-update margins, after
#: per-example ``update()`` and after ``fit_batch`` (batches of 64).
#: ``reads`` digests ``estimate_weights`` and ``query_many`` over
#: GOLDEN_KEYS, ``predict_batch`` over GOLDEN_HELD and
#: ``top_weights_from_candidates(GOLDEN_KEYS, 40)``.  Every value is
#: little-endian (float64, and int64 for ``t`` and candidate ids).
GOLDEN = {
    "logistic": (
        "b906573270ddd02ff518685c42c82cdacaac7736721b1500b1a5ce7a38e479ad",
        "274491b06bbfebcd6be38e5c8fc0471137a12ae139193813e1434b58f169e804",
    ),
    "smoothed_hinge": (
        "0309e56069648628e88476f4207c759cb9dd581c216a52a2f91ca8c7b6eada13",
        "7e649ca938600e3ff9a96bd1b170add3f3d4ce810e69a3bd7f8392f776abd8b9",
    ),
    "hinge_renorm": (
        "c9b8af6ce1bdcc284ca71670caaf9321cc14566565f5060e2028cca9cc91b8f1",
        "08000a8a646ab8609e979b1f207cd171fd1695f85122dea537a7b7227cd9f647",
    ),
    "squared": (
        "c09ffb2fb49e6318eb5f03d6d42f233382c45291a894e968944181b547f3e7b9",
        "f4bcc1f2f3d4b819281444af178b0ad65931f1e3072c828d8523e497e4c1c694",
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _state_digest(model, margins) -> str:
    return _digest(
        np.asarray(model.table, dtype="<f8").ravel(),
        np.array([model._scale], dtype="<f8"),
        np.array([model.t], dtype="<i8"),
        np.asarray(margins, dtype="<f8"),
    )


def _reads_digest(model) -> str:
    top = model.top_weights_from_candidates(GOLDEN_KEYS, 40)
    return _digest(
        np.asarray(model.estimate_weights(GOLDEN_KEYS), dtype="<f8"),
        np.asarray(model.query_many(GOLDEN_KEYS), dtype="<f8"),
        np.asarray(model.predict_batch(GOLDEN_HELD), dtype="<f8"),
        np.array([k for k, _ in top], dtype="<i8"),
        np.array([w for _, w in top], dtype="<f8"),
    )


@pytest.mark.parametrize("backend", ["numpy", c_backend_param()])
@pytest.mark.parametrize("config", sorted(GOLDEN))
class TestGoldenDigests:
    """FeatureHashing kept its own copy of the lazily scaled table until
    it became the depth-1, heap-less WM-Sketch.  These digests were
    recorded with that implementation (commit d669a9d, identical on
    numpy and c); the WM-Sketch path must reproduce every bit of it."""

    def _model(self, config, backend):
        return FeatureHashing(256, seed=11, backend=backend,
                              **GOLDEN_CONFIGS[config]())

    def test_update_reproduces_digest(self, config, backend):
        model = self._model(config, backend)
        margins = []
        for x in GOLDEN_TRAIN:
            margins.append(model.predict_margin(x))
            model.update(x)
        assert _state_digest(model, margins) == GOLDEN[config][0]
        assert _reads_digest(model) == GOLDEN[config][1]

    def test_fit_batch_reproduces_digest(self, config, backend):
        model = self._model(config, backend)
        margins = np.concatenate([
            model.fit_batch(batch)
            for batch in iter_batches(GOLDEN_TRAIN, 64)
        ])
        assert _state_digest(model, margins) == GOLDEN[config][0]
        assert _reads_digest(model) == GOLDEN[config][1]
