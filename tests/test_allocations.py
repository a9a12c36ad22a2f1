"""Zero-allocation contract of the fused batched paths.

The fused ``fit_batch`` reuses workspace arenas, so once the arenas are
warm a steady-state batch performs O(1) *retained* allocations — the
returned margins array and interpreter bookkeeping, nothing scaling
with the number of batches and nothing at nnz scale.  Measured with
tracemalloc (NumPy registers its buffers with it), the same tool the
committed allocation benchmark (``benchmarks/bench_allocations.py``)
uses for the peak-transient ceiling.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.wm_sketch import WMSketch
from repro.data.batch import iter_batches
from repro.data.synthetic import SyntheticStream


def _batches(n=1024, batch_size=128, seed=5):
    examples = SyntheticStream(
        d=4_000, n_signal=60, avg_nnz=20.0, label_noise=0.05, seed=seed
    ).materialize(n)
    return list(iter_batches(examples, batch_size))


def _steady_state_retained(model, batches, rounds):
    """Bytes retained across ``rounds`` full passes after a warmup pass."""
    for b in batches:
        model.fit_batch(b)  # warm arenas, caches, interpreter state
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(rounds):
            for b in batches:
                margins = model.fit_batch(b)
        del margins
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(after - before, 0)


@pytest.mark.parametrize("heap_capacity", [0, 64])
def test_steady_state_fit_batch_retains_o1_memory(heap_capacity):
    batches = _batches()
    model = WMSketch(2**12, 3, seed=0, heap_capacity=heap_capacity)
    one = _steady_state_retained(model, batches, rounds=1)
    three = _steady_state_retained(model, batches, rounds=3)
    # O(1): retained bytes must not scale with the number of batches
    # processed (tripling the work may not even double the residue) and
    # must stay far below one batch's nnz footprint (~20 nnz * 128
    # examples * depth 3 * 8 bytes ~ 60 KB per array).
    assert three < max(2 * one, 16_384), (one, three)
    assert three < 32_768, three


def test_workspace_arenas_stop_growing():
    batches = _batches()
    model = WMSketch(2**12, 3, seed=0, heap_capacity=64)
    for b in batches:
        model.fit_batch(b)
    grown = model._ws.grown
    nbytes = model._ws.nbytes()
    for _ in range(2):
        for b in batches:
            model.fit_batch(b)
    assert model._ws.grown == grown
    assert model._ws.nbytes() == nbytes


def test_fused_peak_transients_beat_unfused():
    """The fused path's transient high-water mark stays under a byte
    ceiling (the committed benchmark records the exact peaks; this is
    the always-on ceiling).  126,000 B is half the 252,016 B peak the
    per-kernel chain without workspaces reached in this
    configuration."""
    batches = _batches(n=512)
    model = WMSketch(2**12, 3, seed=0, heap_capacity=0)
    for b in batches:
        model.fit_batch(b)  # warmup
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        for b in batches:
            model.fit_batch(b)
        _, high = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fused = max(high - base, 1)
    assert fused < 126_000, fused
