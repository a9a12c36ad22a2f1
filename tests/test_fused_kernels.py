"""Fused mega-kernel equivalence: the PR 5 executable contract.

The fused kernels (``fused_update``, ``fused_predict`` and
``fused_query``, per backend) must be *bit-identical* to the
unfused chain of NumPy helpers they collapse — at the kernel level and
through the models (tables, heap state, margins, predictions, recovery
queries), including workspace reuse across many batches and pickle
round-trips that drop the workspace.
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from conftest import c_backend_param, retired_backend_param

from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.sketch_table import _RENORM_THRESHOLD
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample
from repro.data.synthetic import SyntheticStream
from repro.hashing.batch import BatchHasher
from repro.hashing.family import HashFamily
from repro.kernels import numpy_backend
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.losses import (
    HingeLoss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)

ALT_BACKENDS = [c_backend_param()]
ALL_BACKENDS = ["numpy"] + ALT_BACKENDS
PER_BACKEND = pytest.mark.parametrize("backend", ALL_BACKENDS)
#: Model-level cases also run a retired backend name (numpy fallback).
MODEL_BACKENDS = ALL_BACKENDS + [retired_backend_param()]

LOSSES = [
    LogisticLoss(),
    SmoothedHingeLoss(0.7),
    HingeLoss(),
    SquaredLoss(),
]


def _fused_update(kb, table, fb, sv, indptr, labels, etas, lam, scale,
                  *rest):
    """``kb.fused_update`` from ``scale``: the scale it reaches, after
    checking that it completed every example."""
    state = np.array([scale, -1.0])
    kb.fused_update(table, fb, sv, indptr, labels, etas, lam, state, *rest)
    assert state[1] == indptr.shape[0] - 1
    return state[0]


def _random_csr(rng, n, width_flat, depth, max_nnz=9, empty_every=5):
    """Random per-example bucket/sign-value blocks in CSR layout."""
    counts = rng.integers(1, max_nnz, size=n)
    counts[::empty_every] = 0  # exercise empty examples
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    fb = rng.integers(0, width_flat, size=(depth, nnz)).astype(np.int64)
    sv = rng.standard_normal((depth, nnz))
    return indptr, fb, sv


class TestRenormConstant:
    def test_thresholds_agree_everywhere(self):
        import re

        from repro.kernels import c_backend, numpy_backend

        assert kernels.RENORM_THRESHOLD == _RENORM_THRESHOLD
        assert numpy_backend._RENORM == _RENORM_THRESHOLD
        define = re.search(r"#define RENORM (\S+)",
                           c_backend.SOURCE.read_text())
        assert float(define.group(1)) == _RENORM_THRESHOLD


# ----------------------------------------------------------------------
# Kernel-level: fused calls vs the unfused primitive chain
# ----------------------------------------------------------------------
class TestKernelLevel:
    def _replay_unfused(self, loss, table, indptr, fb, sv, labels,
                        etas, lam, scale, sqrt_s, record):
        """The documented helper chain fused_update collapses."""
        n = indptr.size - 1
        nnz = fb.shape[1]
        margins = np.empty(n)
        gathered = np.empty((nnz, fb.shape[0]))
        scales = np.empty(n)
        for i in range(n):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            blk = fb[:, lo:hi]
            svb = sv[:, lo:hi]
            tau = numpy_backend.margin(table, blk, svb, scale, sqrt_s)
            margins[i] = tau
            y = int(labels[i])
            g = loss.dloss(y * tau)
            eta = float(etas[i])
            if lam > 0.0:
                scale *= 1.0 - eta * lam
                if scale < _RENORM_THRESHOLD:
                    table *= scale
                    scale = 1.0
            numpy_backend.scatter_add(
                table, blk, (-eta * y * g / (sqrt_s * scale)) * svb
            )
            if record:
                gathered[lo:hi] = numpy_backend.gather_rows_t(table, blk)
                scales[i] = scale
        return margins, gathered, scales, scale

    @PER_BACKEND
    @pytest.mark.parametrize("loss_pos", range(len(LOSSES)))
    @pytest.mark.parametrize("record", [False, True])
    def test_fused_update_matches_chain(self, backend, loss_pos, record,
                                        rng):
        kb = kernels.get_backend(backend)
        loss = LOSSES[loss_pos]
        for depth, lam in ((1, 1e-3), (3, 1e-3), (4, 0.0)):
            width_flat = 96 * depth
            n = 40
            indptr, fb, sv = _random_csr(rng, n, width_flat, depth)
            nnz = fb.shape[1]
            table = rng.standard_normal(width_flat)
            labels = rng.choice([-1, 1], size=n).astype(np.int64)
            etas = 0.1 / np.sqrt(1.0 + np.arange(n, dtype=np.float64))
            sqrt_s = math.sqrt(depth)

            t_fused = table.copy()
            margins = np.empty(n)
            if record:
                gathered = np.empty((nnz, depth))
                scales = np.empty(n)
            else:
                gathered = kernels.EMPTY_GATHER
                scales = kernels.EMPTY_SCALES
            end_scale = _fused_update(
                kb, t_fused, fb, sv, indptr, labels, etas, lam, 1.0, sqrt_s,
                loss.kernel_id, loss.kernel_param,
                margins, gathered, scales,
                np.empty(1 + fb.size, dtype=np.int64),
            )

            t_ref = table.copy()
            m_ref, g_ref, s_ref, sc_ref = self._replay_unfused(
                loss, t_ref, indptr, fb, sv, labels, etas, lam,
                1.0, sqrt_s, record,
            )
            assert np.array_equal(t_fused, t_ref)
            assert np.array_equal(margins, m_ref)
            assert end_scale == sc_ref
            if record:
                assert np.array_equal(gathered, g_ref)
                assert np.array_equal(scales, s_ref)

    @PER_BACKEND
    def test_fused_update_renormalizes_at_the_same_step(self, backend,
                                                        rng):
        kb = kernels.get_backend(backend)
        depth, n = 2, 30
        indptr, fb, sv = _random_csr(rng, n, 64, depth)
        table = rng.standard_normal(64)
        labels = rng.choice([-1, 1], size=n).astype(np.int64)
        etas = np.full(n, 0.5)
        # A scale already at the underflow edge: the very first decay
        # crosses the threshold and must fold into the table.
        start = _RENORM_THRESHOLD * 1.000001
        margins = np.empty(n)
        t = table.copy()
        touched = np.full(1 + fb.size, -7, dtype=np.int64)
        end_scale = _fused_update(
            kb, t, fb, sv, indptr, labels, etas, 1e-2, start,
            math.sqrt(depth), 0, 0.0, margins,
            kernels.EMPTY_GATHER, kernels.EMPTY_SCALES, touched,
        )
        # The fold that fired must be visible in the fold counter.
        assert touched[0] >= 1
        t_ref = table.copy()
        _, _, _, sc_ref = self._replay_unfused(
            LogisticLoss(), t_ref, indptr, fb, sv, labels,
            etas, 1e-2, start, math.sqrt(depth), False,
        )
        assert end_scale == sc_ref
        assert 0.5 < end_scale <= 1.0  # folded back near 1
        assert np.array_equal(t, t_ref)

    @PER_BACKEND
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_touched_stream_records_scatter_order(self, backend, lam,
                                                  rng):
        """The fourth recorded stream: the kernel must write every
        scattered flat index in exact scatter element order (duplicates
        included), leave the fold counter at zero when no renorm fired,
        and produce the unfused chain's table bits."""
        kb = kernels.get_backend(backend)
        for depth in (1, 3):
            width_flat = 96 * depth
            n = 30
            indptr, fb, sv = _random_csr(rng, n, width_flat, depth)
            table = rng.standard_normal(width_flat)
            labels = rng.choice([-1, 1], size=n).astype(np.int64)
            etas = 0.1 / np.sqrt(1.0 + np.arange(n, dtype=np.float64))
            sqrt_s = math.sqrt(depth)
            margins = np.empty(n)

            t_rec = table.copy()
            touched = np.full(1 + fb.size, -7, dtype=np.int64)
            sc_rec = _fused_update(
                kb, t_rec, fb, sv, indptr, labels, etas, lam, 1.0, sqrt_s,
                0, 0.0, margins, kernels.EMPTY_GATHER,
                kernels.EMPTY_SCALES, touched,
            )
            t_ref = table.copy()
            _, _, _, sc_ref = self._replay_unfused(
                LogisticLoss(), t_ref, indptr, fb, sv, labels, etas, lam,
                1.0, sqrt_s, False,
            )
            assert sc_rec == sc_ref
            assert np.array_equal(t_rec, t_ref)
            assert touched[0] == 0  # no renorm in this regime
            # Scatter element order: per example, j-major over the
            # (depth, nnz_i) block — exactly fb's C order per slice.
            expected = np.concatenate([
                fb[:, indptr[i]:indptr[i + 1]].reshape(-1)
                for i in range(n)
            ])
            assert np.array_equal(touched[1:], expected)

    @PER_BACKEND
    def test_fused_predict_matches_margin_kernel(self, backend, rng):
        # One call hashes the keys and sums each example's margin: the
        # helper chain all_rows -> flat buckets -> margin per example.
        kb = kernels.get_backend(backend)
        for depth in (1, 3):
            family = HashFamily(80, depth, seed=depth)
            indptr, _, _ = _random_csr(rng, 25, 80, 1)
            keys = rng.integers(-50, 400, size=int(indptr[-1]))
            values = rng.standard_normal(keys.size)
            table = rng.standard_normal(80 * depth)
            out = np.empty(25)
            kb.fused_predict(
                BatchHasher(family, backend=kb), table, None, None, keys,
                values, indptr, 0.37, math.sqrt(depth),
                kernels.KernelWorkspace(), out,
            )
            buckets, signs = family.all_rows(keys)
            fb = buckets + numpy_backend.row_offsets(depth, 80)
            sv = signs * values
            expected = [
                numpy_backend.margin(
                    table,
                    fb[:, indptr[i]:indptr[i + 1]],
                    sv[:, indptr[i]:indptr[i + 1]],
                    0.37,
                    math.sqrt(depth),
                )
                for i in range(25)
            ]
            assert out.tolist() == expected

    @PER_BACKEND
    def test_fused_query_matches_gather_plus_median(self, backend, rng):
        # One call hashes the keys, gathers and takes the median: the
        # helper chain all_rows -> gather_rows_t -> median_estimate.
        kb = kernels.get_backend(backend)
        for depth in (1, 2, 3, 5):
            family = HashFamily(64, depth, seed=depth)
            keys = rng.integers(-100, 1000, size=31)
            table = rng.standard_normal(64 * depth)
            est = np.empty(31)
            kb.fused_query(
                BatchHasher(family, backend=kb), table, None, None, keys,
                1.7, 0.0, kernels.KernelWorkspace(), est,
            )
            buckets, signs = family.all_rows(keys)
            g_ref = numpy_backend.gather_rows_t(
                table, buckets + numpy_backend.row_offsets(depth, 64)
            )
            e_ref = numpy_backend.median_estimate(g_ref, signs.T, 1.7)
            assert est.tobytes() == e_ref.tobytes()


# ----------------------------------------------------------------------
# Model-level: fused vs per-example spec vs sequential, per backend
# ----------------------------------------------------------------------
def _stream(seed, n=320, d=2_500):
    return SyntheticStream(
        d=d, n_signal=40, avg_nnz=9.0, label_noise=0.05, seed=seed
    ).materialize(n)


def _drive(model, examples, batch_sizes=(64, 1, 37, 256)):
    """Feed examples through fit_batch windows of *varying* sizes, so
    workspace arenas are exercised across shrink/grow reuse."""
    margins = []
    pos = 0
    sizes = list(batch_sizes)
    while pos < len(examples):
        size = sizes[0]
        sizes = sizes[1:] + [size]
        window = examples[pos: pos + size]
        pos += size
        for batch in iter_batches(window, size):
            margins.append(model.fit_batch(batch))
    return np.concatenate([m for m in margins if m.size])


def _kernel_less(model):
    """Give ``model`` a kernel-less copy of its loss: the same ``dloss``
    code, which WM and feature hashing then train through the
    per-example spec (``StreamingClassifier.fit_batch``)."""
    loss = copy.copy(model.loss)
    loss.kernel_id = None
    model.loss = loss
    return model


def _assert_same(a, b):
    assert np.array_equal(a.table, b.table)
    assert a._scale == b._scale
    assert a.t == b.t
    heap_a = getattr(a, "heap", None)
    heap_b = getattr(b, "heap", None)
    assert (heap_a is None) == (heap_b is None)
    if heap_a is not None:
        assert heap_a.items() == heap_b.items()


FACTORIES = {
    "wm": lambda be: WMSketch(
        512, 3, seed=0, heap_capacity=32, lambda_=1e-4, backend=be
    ),
    "wm_no_heap": lambda be: WMSketch(
        256, 3, seed=3, heap_capacity=0, lambda_=1e-4, backend=be
    ),
    "wm_l1": lambda be: WMSketch(
        256, 4, seed=1, heap_capacity=24, l1=1e-3, backend=be
    ),
    "wm_hinge": lambda be: WMSketch(
        256, 2, seed=5, heap_capacity=16, loss=SmoothedHingeLoss(0.8),
        backend=be,
    ),
    "awm": lambda be: AWMSketch(
        256, depth=1, heap_capacity=48, seed=0, lambda_=1e-4, backend=be
    ),
    "awm_deep": lambda be: AWMSketch(
        128, depth=3, heap_capacity=16, seed=2, backend=be
    ),
    "hash": lambda be: FeatureHashing(512, seed=0, backend=be),
}


@pytest.mark.parametrize("backend", MODEL_BACKENDS)
@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestModelLevel:
    def test_fused_equals_unfused_and_sequential(self, backend, name):
        examples = _stream(seed=11)
        factory = FACTORIES[name]
        fused = factory(backend)
        assert fused.loss.kernel_id is not None  # the fast path runs
        unfused = _kernel_less(factory(backend))
        m_fused = _drive(fused, examples)
        m_unfused = _drive(unfused, examples)
        _assert_same(fused, unfused)
        assert np.array_equal(m_fused, m_unfused)
        sequential = factory(backend)
        for ex in examples:
            sequential.update(ex)
        _assert_same(fused, sequential)

    def test_serving_paths_bit_identical(self, backend, name):
        examples = _stream(seed=23, n=200)
        model = FACTORIES[name](backend)
        for batch in iter_batches(examples, 64):
            model.fit_batch(batch)
        probe = SparseBatch.from_examples(examples[:40])
        batched = model.predict_batch(probe)
        scalar = np.array(
            [model.predict_margin(ex) for ex in examples[:40]]
        )
        assert np.array_equal(batched, scalar)
        keys = np.arange(0, 2_500, 11, dtype=np.int64)
        assert np.array_equal(
            model.query_many(keys), model.estimate_weights(keys)
        )
        # Repeated queries ride the hash cache; results must not drift.
        again = model.query_many(keys)
        assert np.array_equal(again, model.estimate_weights(keys))


# ----------------------------------------------------------------------
# Workspace lifecycle
# ----------------------------------------------------------------------
class TestWorkspaceLifecycle:
    def test_workspace_growth_stops_after_warmup(self):
        examples = _stream(seed=31)
        model = WMSketch(256, 3, seed=0, heap_capacity=16)
        batches = list(iter_batches(examples, 64))
        for b in batches:
            model.fit_batch(b)
        grown = model._ws.grown
        for _ in range(3):
            for b in batches:
                model.fit_batch(b)
        assert model._ws.grown == grown  # steady state: pure reuse

    def test_pickle_drops_workspace_and_training_continues(self):
        examples = _stream(seed=37)
        model = WMSketch(256, 3, seed=0, heap_capacity=16)
        for b in iter_batches(examples[:160], 40):
            model.fit_batch(b)
        assert model._ws is not None
        payload = pickle.dumps(model)
        # No workspace arena bytes travel with the pickle.
        assert len(payload) < model._ws.nbytes() + 256 * 3 * 8 * 4
        clone = pickle.loads(payload)
        assert clone._ws is None
        for b in iter_batches(examples[160:], 40):
            model.fit_batch(b)
            clone.fit_batch(b)
        _assert_same(model, clone)

    def test_workspace_views_do_not_alias_returned_margins(self):
        examples = _stream(seed=41, n=128)
        model = WMSketch(256, 2, seed=0, heap_capacity=0)
        batches = list(iter_batches(examples, 64))
        first = model.fit_batch(batches[0])
        snapshot = first.copy()
        model.fit_batch(batches[1])
        assert np.array_equal(first, snapshot)

    def test_custom_loss_falls_back_to_unfused(self):
        class WeirdLoss(LogisticLoss):
            kernel_id = None

        examples = _stream(seed=43, n=120)
        model = WMSketch(256, 2, seed=0, heap_capacity=8,
                         loss=WeirdLoss())
        sequential = WMSketch(256, 2, seed=0, heap_capacity=8,
                              loss=WeirdLoss())
        for b in iter_batches(examples, 40):
            model.fit_batch(b)
        for ex in examples:
            sequential.update(ex)
        _assert_same(model, sequential)

    def test_trailing_empty_examples_keep_bounds_exact(self, rng):
        # Regression: a batch *ending* in empty examples used to clip
        # the reduceat segment starts, splitting the last non-empty
        # example's bound segment — its final feature's row magnitude
        # dropped out of the estimate bound, so the fused maintain pass
        # could skip an admission per-example update() makes.  Construct
        # that exactly: a full heap holding a small entry, a trailing-
        # empty batch whose last (= only) example carries its heavy
        # feature in the *last* position.
        from repro.data.sparse import SparseExample

        def build(backend="numpy"):
            model = WMSketch(4, 1, seed=0, heap_capacity=1, lambda_=0.0,
                             backend=backend)
            model.table[0] = [5.0, 0.01, 0.0, 0.0]
            model.heap.push(10_000, 0.5)  # full at a small priority
            return model

        fam = build().family
        light = next(i for i in range(1_000)
                     if fam.bucket_sign_one(i, 0)[0] == 1)
        heavy = next(i for i in range(1_000)
                     if fam.bucket_sign_one(i, 0)[0] == 0)
        batch = SparseBatch.from_examples([
            SparseExample(
                np.array([light, heavy], dtype=np.int64),
                np.array([1.0, 1.0]), 1,
            ),
            SparseExample(np.empty(0, dtype=np.int64), np.empty(0), 1),
        ])
        sequential = build()
        for ex in batch:
            sequential.update(ex)
        # Every backend's heap maintain (the c loop runs this batch,
        # since the heap is full from the start).
        for backend in ["numpy"] + [
            name for name in kernels.available_backends() if name != "numpy"
        ]:
            fused = build(backend)
            fused.fit_batch(batch)
            _assert_same(fused, sequential)
            # The heavy feature's |estimate| (~5) beats the 0.5
            # threshold, so the admission must actually have happened.
            assert any(k == heavy for k, _ in fused.heap.items()), backend

    def test_awm_fused_query_branch_applies_l1(self):
        # Regression: a fused query path once skipped the l1
        # soft-threshold _estimate_from_rows applies, so promotion
        # decisions diverged whenever l1 > 0.  fit_batch's batch loop
        # computes its tail queries inline; it must shrink them the
        # same way per-example update() does.
        examples = _stream(seed=53, n=250)

        def make():
            model = AWMSketch(128, depth=3, heap_capacity=16, seed=1,
                              lambda_=1e-4)
            model.l1 = 5e-3
            return model

        batched, plain = make(), make()
        for batch in iter_batches(examples, 50):
            batched.fit_batch(batch)
        for ex in examples:
            plain.update(ex)
        _assert_same(batched, plain)
        assert batched.n_promotions == plain.n_promotions > 0

    def test_fused_decay_validation_matches_message(self):
        examples = _stream(seed=47, n=8)
        model = WMSketch(64, 2, seed=0, heap_capacity=0, lambda_=0.5,
                         learning_rate=10.0)
        with pytest.raises(ValueError, match="decrease eta0"):
            model.fit_batch(SparseBatch.from_examples(examples))

    def test_feature_hashing_rejects_invalid_decay_on_every_path(self):
        # Historically FeatureHashing let eta * lambda >= 1 flip the
        # model's sign silently; all three paths now raise like the
        # sketches do (and therefore stay equivalent to each other in
        # the pathological regime too).  The "unfused" driver is the
        # per-example spec a kernel-less loss runs through fit_batch.
        examples = _stream(seed=49, n=8)
        for driver in ("update", "fused", "unfused"):
            model = FeatureHashing(64, lambda_=0.5, learning_rate=4.0)
            if driver == "unfused":
                _kernel_less(model)
            with pytest.raises(ValueError, match="decrease eta0"):
                if driver == "update":
                    model.update(examples[0])
                else:
                    model.fit_batch(SparseBatch.from_examples(examples))


# ----------------------------------------------------------------------
# A fused_update that raises mid-batch keeps the completed examples
# ----------------------------------------------------------------------
def _overflow_stream():
    """Example 0 trains; example 1's margin sums two finite 1e308
    products once the cells of keys 2 and 3 hold their signs, so fsum
    raises OverflowError there."""
    return [
        SparseExample(np.array([1]), np.array([1.0]), 1),
        SparseExample(np.array([2, 3]), np.array([1e308, 1e308]), 1),
    ]


def _prime_overflow(model):
    """Set every cell of keys 2 and 3 to the key's sign in that row."""
    keys = np.array([2, 3], dtype=np.int64)
    buckets, signs = model.family.all_rows(keys)
    table = model.table.reshape(buckets.shape[0], -1)
    for j in range(buckets.shape[0]):
        table[j, buckets[j]] = signs[j]
    return model


class TestPartialStateOnRaise:
    @PER_BACKEND
    @pytest.mark.parametrize("width, depth", [(64, 1), (1024, 3)])
    def test_wm_fit_batch_keeps_the_completed_examples(self, backend, width,
                                                       depth):
        models = [
            _prime_overflow(WMSketch(width, depth, lambda_=1e-3,
                                     heap_capacity=4, backend=backend))
            for _ in range(2)
        ]
        snaps = []
        for model in models:
            snap, _ = model.snapshot_incremental()  # clears the bitmap
            snaps.append(snap)
        spec, batched = models
        stream = _overflow_stream()
        spec.update(stream[0])
        with pytest.raises(OverflowError):
            spec.update(stream[1])
        with pytest.raises(OverflowError):
            batched.fit_batch(SparseBatch.from_examples(stream))
        assert spec.t == batched.t == 1
        assert spec._scale == batched._scale == 1.0 - 0.1 * 1e-3
        assert np.array_equal(spec.table, batched.table)
        assert np.array_equal(spec._dirty, batched._dirty)
        assert batched._dirty.any()
        assert batched.heap.items() == spec.heap.items()
        assert [k for k, _ in batched.heap.items()] == [1]
        # The next incremental publish carries the written chunk.
        for model, prev in zip(models, snaps):
            snap, _ = model.snapshot_incremental(prev)
            assert np.array_equal(snap._dense_table(), model.table)
            assert snap._scale == model._scale

    @PER_BACKEND
    def test_feature_hashing_fit_batch_keeps_the_completed_examples(
        self, backend
    ):
        spec, batched = (
            _prime_overflow(FeatureHashing(64, lambda_=1e-3, backend=backend))
            for _ in range(2)
        )
        stream = _overflow_stream()
        spec.update(stream[0])
        with pytest.raises(OverflowError):
            spec.update(stream[1])
        with pytest.raises(OverflowError):
            batched.fit_batch(SparseBatch.from_examples(stream))
        assert spec.t == batched.t == 1
        assert spec._scale == batched._scale == 1.0 - 0.1 * 1e-3
        assert np.array_equal(spec.table, batched.table)


# ----------------------------------------------------------------------
# Per-model backend resolution
# ----------------------------------------------------------------------
class TestBackendHandle:
    def test_explicit_override_survives_set_backend(self, monkeypatch):
        # A per-model override beats the environment variable, at build
        # time and again when the model is unpickled under another one.
        last = kernels.available_backends()[-1]  # c where it builds
        monkeypatch.setenv(kernels.ENV_VAR, last)
        model = WMSketch(64, 2, seed=0, heap_capacity=0, backend="numpy")
        assert model.kernels.name == "numpy"
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        compiled = WMSketch(64, 2, seed=0, heap_capacity=0, backend=last)
        assert compiled.kernels.name == last
        assert pickle.loads(pickle.dumps(compiled)).kernels.name == last
        monkeypatch.setenv(kernels.ENV_VAR, last)
        assert pickle.loads(pickle.dumps(model)).kernels.name == "numpy"
