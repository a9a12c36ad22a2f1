"""Whole-example fused AWM step: ``AWMSketch.fit_batch``'s batch loop.

Once the active set is full, ``fit_batch`` runs every multi-sparse
example as one inlined Algorithm 2 step — active-set + tail margin,
loss derivative, both lazy decays, active-set gradient step, tail
recovery, promotion screen, stay-scatter — over state built once per
batch.  It must leave *identical state* (table, scale, heap
raw/scale/min-slot, promotion count) and return *identical margins* to
per-example ``update()`` calls, bit for bit, on every backend and
under a retired backend name.

Each test drives a per-example reference twin and a ``fit_batch`` twin
over the same stream, and checks that the batch twin actually ran the
inlined step for most examples rather than the per-example spec.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import c_backend_param, retired_backend_param

from repro.core.awm_sketch import AWMSketch
from repro.core.sketch_table import _RENORM_THRESHOLD
from repro.data.batch import SparseBatch, iter_batches
from repro.data.synthetic import SyntheticStream
from repro.learning.losses import (
    HingeLoss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)

#: The live backends, then a retired name that resolves to numpy.
ALT_BACKENDS = [c_backend_param(), retired_backend_param()]
ALL_BACKENDS = ["numpy"] + ALT_BACKENDS

LOSSES = [
    LogisticLoss(),
    SmoothedHingeLoss(0.7),
    HingeLoss(),
    SquaredLoss(),
]


def _stream(seed=0, d=600):
    return SyntheticStream(
        d=d, n_signal=60, avg_nnz=12.0, skew=1.1, seed=seed
    )


def _step(model, ex):
    """``model.update(ex)``, returning the pre-update margin its step
    computed (the same dispatch ``AWMSketch.update`` makes)."""
    if model.scalar_fast_path and ex.nnz == 1:
        return model._update_one(
            int(ex.indices[0]), float(ex.values[0]), ex.label
        )
    return model._update_example(ex.indices, ex.values, ex.label)


def _twins(backend, *, depth=1, lambda_=1e-3, loss=None, heap_capacity=24,
           width=128, l1=0.0):
    """A per-example reference and a ``fit_batch`` twin; the twin counts
    the examples it hands to the per-example spec."""
    kwargs = dict(
        width=width, depth=depth, heap_capacity=heap_capacity,
        lambda_=lambda_, seed=3, backend=backend,
        loss=loss or LogisticLoss(),
    )
    ref = AWMSketch(**kwargs)
    fused = AWMSketch(**kwargs)
    if l1:
        ref.l1 = l1
        fused.l1 = l1
    spec = fused._update_example
    fused.spec_calls = 0

    def counting(*args, **kw):
        fused.spec_calls += 1
        return spec(*args, **kw)

    fused._update_example = counting
    return ref, fused


def _run(ref, fused, examples, batch_size=64):
    """Drive both twins over ``examples``; margins must match per
    example."""
    expected = [_step(ref, ex) for ex in examples]
    got = []
    for batch in iter_batches(examples, batch_size):
        got.extend(fused.fit_batch(batch).tolist())
    for i, (m_ref, m_fused) in enumerate(zip(expected, got)):
        assert m_fused == m_ref, f"margin diverged at example {i}"
    assert len(got) == len(expected)


def _assert_state_equal(ref: AWMSketch, fused: AWMSketch, context: str):
    assert fused._scale == ref._scale, context
    np.testing.assert_array_equal(fused.table, ref.table, err_msg=context)
    assert fused.table.tobytes() == ref.table.tobytes(), context
    assert fused.heap._scale == ref.heap._scale, context
    assert fused.heap._n == ref.heap._n, context
    n = ref.heap._n
    np.testing.assert_array_equal(
        fused.heap._keys[:n], ref.heap._keys[:n], err_msg=context
    )
    np.testing.assert_array_equal(
        fused.heap._raw[:n], ref.heap._raw[:n], err_msg=context
    )
    assert fused.n_promotions == ref.n_promotions, context
    assert fused.t == ref.t, context
    assert fused.heap.min_priority() == ref.heap.min_priority(), context
    # The batch loop, not the per-example spec, ran most examples.
    assert fused.spec_calls < fused.t // 2, context


class TestFusedAwmUpdate:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("lambda_", [0.0, 1e-3])
    def test_stream_state_identical(self, backend, lambda_):
        """A long stream through fit_batch: margins + state."""
        ref, fused = _twins(backend, lambda_=lambda_)
        _run(ref, fused, _stream().materialize(400))
        _assert_state_equal(ref, fused, "end of stream")
        # The stream must exercise both outcomes of the promotion
        # screen: a full store with promotions and plain stay-scatters.
        assert ref.heap.is_full
        assert ref.n_promotions > ref.heap.capacity

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("depth", [1, 3])
    def test_depths(self, backend, depth):
        """depth=1 (sign-flip recovery) and odd depth>1 (median)."""
        ref, fused = _twins(backend, depth=depth)
        _run(ref, fused, _stream(seed=7).materialize(250))
        _assert_state_equal(ref, fused, f"depth={depth}")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
    def test_losses(self, backend, loss):
        """Every loss through the batch loop's loss derivative."""
        ref, fused = _twins(backend, loss=loss)
        _run(ref, fused, _stream(seed=11).materialize(200))
        _assert_state_equal(ref, fused, type(loss).__name__)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_l1_soft_threshold(self, backend):
        """l1 > 0 exercises the loop's soft-threshold of the tail
        queries (including the sign conventions of the exactly-zero
        branch)."""
        ref, fused = _twins(backend, depth=3, l1=5e-3)
        _run(ref, fused, _stream(seed=13).materialize(250))
        _assert_state_equal(ref, fused, "l1 soft-threshold")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_renormalization_fold(self, backend):
        """Decay underflow: both scales pushed just above the renorm
        threshold so the loop's in-step folds (table fold + re-gather,
        heap prefix fold) fire and must match the per-example spec's."""
        ref, fused = _twins(backend, lambda_=1e-2)
        examples = _stream(seed=17).materialize(300)
        _run(ref, fused, examples[:150])
        for model in (ref, fused):
            # Nudge the lazy scales to the brink; the *same* nudge on
            # both twins keeps them comparable while guaranteeing the
            # next decayed update crosses _RENORM_THRESHOLD.
            for _ in range(3):
                model.table *= model._scale / (_RENORM_THRESHOLD * 1.0000001)
                model._scale = _RENORM_THRESHOLD * 1.0000001
                model.heap._raw[: model.heap._n] *= model.heap._scale / (
                    _RENORM_THRESHOLD * 1.0000001
                )
                model.heap._scale = _RENORM_THRESHOLD * 1.0000001
                model.heap._min_slot = -1
        assert ref._scale == fused._scale
        fold_log = ref._fold_log
        _run(ref, fused, examples[150:])
        assert ref._fold_log < fold_log, "renormalization never triggered"
        assert fused._fold_log == ref._fold_log
        _assert_state_equal(ref, fused, "after renorm folds")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_path_state_identical(self, backend):
        """fit_batch over windows of varying sizes (the store fills
        mid-batch in the first) matches per-example reference updates."""
        ref, fused = _twins(backend, heap_capacity=16)
        examples = _stream(seed=23).materialize(256)
        expected = [_step(ref, ex) for ex in examples]
        got = []
        lo = 0
        for size in (64, 1, 37, 154):
            batch = SparseBatch.from_examples(examples[lo:lo + size])
            got.extend(fused.fit_batch(batch).tolist())
            lo += size
        assert lo == len(examples)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        _assert_state_equal(ref, fused, "fit_batch vs per-example")
