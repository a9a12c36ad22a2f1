"""Batched-vs-sequential equivalence of the streaming engine.

The contract of ``fit_batch`` / ``fit_stream`` is *sequential
equivalence*: driving a classifier through mini-batches of any size must
reproduce the per-example predict-then-update path's sketch table, heap
contents and progressive error.  For the vectorized kernels (WM-Sketch,
AWM-Sketch, feature hashing, unconstrained LR) the state is required to
match *bit-for-bit* — the kernels share the exact arithmetic of the
per-example path (fsum margins, layout-deterministic scatters); the
1e-12 tolerance appears only where the contract allows it
(``predict_batch``'s fully-vectorized read-only margins).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.sketch_table import _CHUNK_LOG, _RENORM_THRESHOLD
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch
from repro.data.sparse import SparseExample
from repro.learning.base import OnlineErrorTracker, run_stream
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.losses import (
    HingeLoss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)
from repro.learning.ogd import UncompressedClassifier
from repro.learning.truncation import ProbabilisticTruncation, SimpleTruncation

UNIVERSE = 5_000

#: The WM cases run every kernel backend this host has: the numpy and
#: c heap maintain are different code, so both must match update().
WM_BACKENDS = ["numpy"] + [
    name for name in kernels.available_backends() if name != "numpy"
]


def _stream(n, seed, max_nnz=8, one_sparse_fraction=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        if one_sparse_fraction and rng.random() < one_sparse_fraction:
            nnz = 1
        else:
            nnz = int(rng.integers(1, max_nnz + 1))
        idx = rng.choice(UNIVERSE, size=nnz, replace=False).astype(np.int64)
        vals = rng.choice([0.5, 1.0, 2.0], size=nnz) * rng.choice(
            [-1.0, 1.0], size=nnz
        )
        label = 1 if rng.random() < 0.5 else -1
        out.append(SparseExample(idx, vals, label))
    return out


def _drive_pair(make, examples, batch_size):
    """(sequential classifier+tracker, batched classifier+tracker)."""
    seq = make()
    seq_tracker = run_stream(seq, examples, OnlineErrorTracker())
    bat = make()
    bat_tracker = bat.fit_stream(examples, batch_size=batch_size)
    return seq, seq_tracker, bat, bat_tracker


def _assert_heaps_equal(a, b):
    """Same entries in the same slots, with the same raw bits and scale.

    Slot layout decides which tied minimum a later eviction removes, so
    comparing sorted items could pass after two heaps diverged.
    """
    assert a.items() == b.items()
    n = len(a)
    assert a._raw[:n].tobytes() == b._raw[:n].tobytes()
    assert a.scale == b.scale


# ----------------------------------------------------------------------
# WM-Sketch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hash_kind", ["tabulation", "polynomial"])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_wm_sketch_equivalence(depth, hash_kind, batch_size):
    examples = _stream(600, seed=depth * 31 + batch_size)

    def make(backend="numpy"):
        return WMSketch(
            256,
            depth,
            lambda_=1e-4,
            seed=5,
            heap_capacity=16,
            hash_kind=hash_kind,
            backend=backend,
        )

    seq = make()
    seq_tr = run_stream(seq, examples, OnlineErrorTracker())
    for backend in WM_BACKENDS:
        bat = make(backend)
        bat_tr = bat.fit_stream(examples, batch_size=batch_size)
        assert np.array_equal(seq.table, bat.table), backend
        assert seq._scale == bat._scale
        assert seq.t == bat.t
        _assert_heaps_equal(seq.heap, bat.heap)
        assert seq_tr.mistakes == bat_tr.mistakes
        assert seq_tr.curve == bat_tr.curve


def test_wm_sketch_equivalence_with_l1_and_no_heap():
    examples = _stream(400, seed=2)

    def make():
        return WMSketch(128, 3, lambda_=1e-4, l1=0.01, heap_capacity=0, seed=1)

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, 32)
    assert np.array_equal(seq.table, bat.table)
    assert seq_tr.mistakes == bat_tr.mistakes


@settings(max_examples=20, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=97),
    depth=st.sampled_from([1, 2, 3]),
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_wm_sketch_equivalence_property(batch_size, depth, n, seed):
    examples = _stream(n, seed=seed)

    def make(backend="numpy"):
        return WMSketch(64, depth, lambda_=1e-3, seed=9, heap_capacity=8,
                        backend=backend)

    seq = make()
    seq_tr = run_stream(seq, examples, OnlineErrorTracker())
    for backend in WM_BACKENDS:
        bat = make(backend)
        bat_tr = bat.fit_stream(examples, batch_size=batch_size)
        assert np.array_equal(seq.table, bat.table), backend
        _assert_heaps_equal(seq.heap, bat.heap)
        assert seq_tr.mistakes == bat_tr.mistakes


@st.composite
def _tie_streams(draw):
    """Short streams over a small universe with +-1 values and empty
    examples (the first is non-empty, so something is admitted): with
    ``lambda_=0`` and width <= 16, colliding features get identical
    estimates, so candidates tie the threshold exactly."""
    universe = draw(st.integers(min_value=2, max_value=24))
    examples = []
    for i in range(draw(st.integers(min_value=1, max_value=40))):
        idx = draw(st.lists(
            st.integers(min_value=0, max_value=universe - 1),
            min_size=int(i == 0), max_size=4, unique=True,
        ))
        vals = draw(st.lists(
            st.sampled_from([-1.0, 1.0]), min_size=len(idx),
            max_size=len(idx),
        ))
        examples.append(
            SparseExample(np.array(idx, dtype=np.int64), np.array(vals),
                          draw(st.sampled_from([-1, 1])))
        )
    if draw(st.booleans()):
        examples.append(SparseExample(np.empty(0, np.int64), np.empty(0), 1))
    return examples


@settings(deadline=None)
@given(
    examples=_tie_streams(),
    capacity=st.integers(min_value=1, max_value=4),
    width=st.sampled_from([2, 4, 8, 16]),
    depth=st.integers(min_value=1, max_value=4),
    l1=st.sampled_from([0.0, 0.01]),
    batch_size=st.integers(min_value=1, max_value=16),
)
def test_wm_maintain_matches_update_property(
    examples, capacity, width, depth, l1, batch_size
):
    """Batched heap maintain == per-example ``update()``, on every
    backend, aimed at where the admission screen and the compiled loop
    can go wrong: exact threshold ties, capacities 1-4, even depths
    (two-middle median), l1 shrinkage, empty examples mid-batch and
    trailing, a heap that fills mid-batch (where the compiled loop
    takes over), and several admissions in one batch."""
    def make(backend="numpy"):
        model = WMSketch(width, depth, lambda_=0.0, l1=l1, seed=3,
                         heap_capacity=capacity, backend=backend)
        model.heap.enable_promo_log()
        return model

    seq = make()
    for ex in examples:
        seq.update(ex)
    log = seq.heap.drain_promo_log()
    assert log
    for backend in WM_BACKENDS:
        bat = make(backend)
        for lo in range(0, len(examples), batch_size):
            bat.fit_batch(
                SparseBatch.from_examples(examples[lo:lo + batch_size])
            )
        assert seq.table.tobytes() == bat.table.tobytes(), backend
        _assert_heaps_equal(seq.heap, bat.heap)
        assert bat.heap.version == seq.heap.version
        assert bat.heap.drain_promo_log() == log


# ----------------------------------------------------------------------
# AWM-Sketch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hash_kind", ["tabulation", "polynomial"])
@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("one_sparse", [True, False])
def test_awm_sketch_equivalence(depth, hash_kind, one_sparse):
    # With one_sparse, mix in 1-sparse examples so the scalar fast path
    # runs inside batches as often as in per-example updates.
    examples = _stream(600, seed=depth * 7,
                       one_sparse_fraction=0.4 if one_sparse else 0.0)

    def make():
        return AWMSketch(
            256,
            depth,
            heap_capacity=16,
            lambda_=1e-4,
            seed=5,
            hash_kind=hash_kind,
        )

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, 64)
    assert np.array_equal(seq.table, bat.table)
    assert seq._scale == bat._scale
    assert seq.t == bat.t
    assert seq.n_promotions == bat.n_promotions
    _assert_heaps_equal(seq.heap, bat.heap)
    assert seq_tr.mistakes == bat_tr.mistakes


@settings(max_examples=15, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=50),
    depth=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_awm_sketch_equivalence_property(batch_size, depth, seed):
    examples = _stream(150, seed=seed, one_sparse_fraction=0.5)

    def make():
        return AWMSketch(64, depth, heap_capacity=8, lambda_=1e-3, seed=3)

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, batch_size)
    assert np.array_equal(seq.table, bat.table)
    assert seq.n_promotions == bat.n_promotions
    _assert_heaps_equal(seq.heap, bat.heap)
    assert seq_tr.mistakes == bat_tr.mistakes


def _update_margin(model, ex):
    """``model.update(ex)``, returning the pre-update margin its step
    computed (the same dispatch ``AWMSketch.update`` makes)."""
    if ex.nnz == 1:
        return model._update_one(
            int(ex.indices[0]), float(ex.values[0]), ex.label
        )
    return model._update_example(ex.indices, ex.values, ex.label)


@settings(deadline=None)
@given(
    examples=_tie_streams(),
    capacity=st.integers(min_value=1, max_value=4),
    width=st.sampled_from([2, 4, 8, 16]),
    depth=st.integers(min_value=1, max_value=4),
    loss=st.sampled_from([LogisticLoss(), SmoothedHingeLoss(0.7),
                          HingeLoss(), SquaredLoss()]),
    l1=st.sampled_from([0.0, 0.01]),
    regime=st.sampled_from(["ties", "decay", "renorm"]),
    fold_at=st.integers(min_value=0, max_value=12),
    batch_size=st.integers(min_value=1, max_value=16),
)
def test_awm_fit_batch_matches_update_property(
    examples, capacity, width, depth, loss, l1, regime, fold_at,
    batch_size,
):
    """Batched AWM == per-example ``update()``, aimed at the batch
    loop's edge cases: a store full from the first batch (capacities
    1-4) or filling mid-batch, exact admission ties (``lambda_=0`` with
    +-1 values over width <= 16; ties reject), even depths (two-middle
    median), every loss, l1 shrinkage, empty examples mid-batch and
    trailing, 1-sparse examples (the scalar fast path), and
    renorm folds of both scales (``regime="renorm"`` starts them just
    above the threshold, far enough that they fold at step ``fold_at``,
    so the fold can land after the store is full)."""
    def make():
        model = AWMSketch(width, depth, heap_capacity=capacity, loss=loss,
                          lambda_=0.0 if regime == "ties" else 0.01,
                          seed=3)
        model.l1 = l1
        if regime == "renorm":
            brink = _RENORM_THRESHOLD * 1.0000001
            for t in range(fold_at):
                brink /= model._decay_factor(model.schedule(t))
            model._scale = brink
            model.heap.decay(brink)
        return model

    seq, bat = make(), make()
    expected = [_update_margin(seq, ex) for ex in examples]
    got = []
    for lo in range(0, len(examples), batch_size):
        before = bat.table.copy()
        bat._dirty[:] = False
        batch = SparseBatch.from_examples(examples[lo:lo + batch_size])
        got.extend(bat.fit_batch(batch).tolist())
        changed = np.flatnonzero(
            before.view(np.int64) != bat.table.view(np.int64)
        )
        assert bat._dirty[changed >> _CHUNK_LOG].all()
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert seq.table.tobytes() == bat.table.tobytes()
    assert seq._scale == bat._scale
    assert seq._fold_log == bat._fold_log
    assert seq.t == bat.t == len(examples)
    _assert_heaps_equal(seq.heap, bat.heap)
    assert seq.n_promotions == bat.n_promotions > 0
    if regime == "renorm" and len(examples) > fold_at:
        assert seq._fold_log < 0.0  # the fold happened


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [1, 16, 100])
def test_feature_hashing_equivalence(batch_size):
    examples = _stream(500, seed=4)

    def make():
        return FeatureHashing(512, lambda_=1e-4, seed=7)

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, batch_size)
    assert np.array_equal(seq.table, bat.table)
    assert seq._scale == bat._scale
    assert seq_tr.mistakes == bat_tr.mistakes


@pytest.mark.parametrize("batch_size", [1, 16, 100])
def test_uncompressed_equivalence(batch_size):
    examples = _stream(500, seed=8)

    def make():
        return UncompressedClassifier(UNIVERSE, lambda_=1e-4)

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, batch_size)
    assert np.array_equal(seq._raw, bat._raw)
    assert seq._scale == bat._scale
    _assert_heaps_equal(seq.heap, bat.heap)
    assert seq_tr.mistakes == bat_tr.mistakes


def test_simple_truncation_equivalence_default_path():
    """Classifiers without a vectorized kernel inherit the reference
    per-example ``fit_batch`` and are equivalent by construction — this
    guards the default implementation itself."""
    examples = _stream(400, seed=10)

    def make():
        return SimpleTruncation(32, lambda_=1e-4)

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, 25)
    _assert_heaps_equal(seq._heap, bat._heap)
    assert seq_tr.mistakes == bat_tr.mistakes


def test_probabilistic_truncation_equivalence_default_path():
    examples = _stream(400, seed=12)

    def make():
        return ProbabilisticTruncation(32, lambda_=1e-4, seed=3)

    seq, seq_tr, bat, bat_tr = _drive_pair(make, examples, 25)
    assert seq._weights == bat._weights
    assert seq_tr.mistakes == bat_tr.mistakes


# ----------------------------------------------------------------------
# fit(batch_size) and predict_batch
# ----------------------------------------------------------------------
def test_fit_with_batch_size_matches_plain_fit():
    examples = _stream(300, seed=14)
    a = WMSketch(128, 3, lambda_=1e-4, seed=2)
    b = WMSketch(128, 3, lambda_=1e-4, seed=2)
    a.fit(examples)
    b.fit(examples, batch_size=19)
    assert np.array_equal(a.table, b.table)
    _assert_heaps_equal(a.heap, b.heap)


def test_predict_batch_matches_predict_margin():
    examples = _stream(200, seed=16)
    clf = WMSketch(128, 3, lambda_=1e-4, seed=2).fit(examples)
    probe = examples[:50]
    batched = clf.predict_batch(SparseBatch.from_examples(probe))
    single = np.array([clf.predict_margin(ex) for ex in probe])
    assert np.allclose(batched, single, rtol=1e-12, atol=1e-12)


def test_fit_batch_returns_pre_update_margins():
    """fit_batch's margins are the predictions the per-example
    predict-then-update loop would have made."""
    examples = _stream(120, seed=18)
    seq = WMSketch(128, 3, lambda_=1e-4, seed=2)
    expected = []
    for ex in examples:
        expected.append(seq.predict_margin(ex))
        seq.update(ex)
    bat = WMSketch(128, 3, lambda_=1e-4, seed=2)
    got = bat.fit_batch(SparseBatch.from_examples(examples))
    assert np.array_equal(np.array(expected), got)


# ----------------------------------------------------------------------
# Applications (Section 8) batched consumption
# ----------------------------------------------------------------------
def test_deltoid_batched_consume_equivalence():
    from repro.apps.deltoids import ClassifierDeltoid

    rng = np.random.default_rng(4)
    pairs = [
        (int(rng.integers(0, 500)), 1 if rng.random() < 0.6 else -1)
        for _ in range(1_000)
    ]
    a = ClassifierDeltoid(AWMSketch(512, heap_capacity=32, seed=1))
    b = ClassifierDeltoid(AWMSketch(512, heap_capacity=32, seed=1))
    a.consume(pairs)
    b.consume(pairs, batch_size=128)
    assert np.array_equal(a.classifier.table, b.classifier.table)
    _assert_heaps_equal(a.classifier.heap, b.classifier.heap)


def test_pmi_batched_consume_equivalence():
    from repro.apps.pmi import StreamingPMI

    rng = np.random.default_rng(5)
    pairs = [
        (int(rng.integers(0, 40)), int(rng.integers(0, 40)))
        for _ in range(500)
    ]
    p1 = StreamingPMI(vocab=40, width=2**10, heap_capacity=64, seed=2)
    p2 = StreamingPMI(vocab=40, width=2**10, heap_capacity=64, seed=2)
    p1.consume(pairs)
    p2.consume(pairs, batch_size=100)
    assert np.array_equal(p1.classifier.table, p2.classifier.table)
    _assert_heaps_equal(p1.classifier.heap, p2.classifier.heap)
    assert p1.n_pairs == p2.n_pairs


def test_explainer_batched_consume_equivalence():
    from repro.apps.explanation import StreamingExplainer
    from repro.data.sparse import one_hot

    rng = np.random.default_rng(6)
    exs = [
        one_hot(int(rng.integers(0, 300)), 1.0,
                1 if rng.random() < 0.3 else -1)
        for _ in range(800)
    ]
    e1 = StreamingExplainer(AWMSketch(256, heap_capacity=16, seed=3))
    e2 = StreamingExplainer(AWMSketch(256, heap_capacity=16, seed=3))
    e1.consume(exs)
    e2.consume(exs, batch_size=64)
    assert np.array_equal(e1.classifier.table, e2.classifier.table)
    _assert_heaps_equal(e1.classifier.heap, e2.classifier.heap)


def test_awm_fit_batch_returns_pre_update_margins():
    """AWM margins from fit_batch (including the scalar fast path) are
    bit-identical to what predict_margin would have said pre-update."""
    examples = _stream(200, seed=21, one_sparse_fraction=0.6)
    seq = AWMSketch(128, 3, heap_capacity=8, lambda_=1e-4, seed=2)
    expected = []
    for ex in examples:
        expected.append(seq.predict_margin(ex))
        seq.update(ex)
    bat = AWMSketch(128, 3, heap_capacity=8, lambda_=1e-4, seed=2)
    got = bat.fit_batch(SparseBatch.from_examples(examples))
    assert np.array_equal(np.array(expected), got)
