"""O(dirty) incremental snapshot publication: the bit-identity contract.

Every snapshot published through ``snapshot_incremental`` must be
bit-identical to an independent full ``snapshot()`` taken at the same
instant — table bits, scale, and every read path — no matter how
training interleaves fused batches, scalar updates, decays, renorm
folds and publishes.  Old snapshots must stay immutable (and keep
sharing clean chunks by reference) after arbitrarily many later
publishes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.awm_sketch import AWMSketch
from repro.core.sketch_table import (
    _CHUNK,
    _RENORM_THRESHOLD,
    ScaledSketchTable,
)
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.synthetic import SyntheticStream
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.losses import LogisticLoss
from repro.serving import SnapshotManager

STREAM = SyntheticStream(d=50_000, n_signal=60, avg_nnz=8.0, seed=7)
EXAMPLES = STREAM.materialize(700)

FACTORIES = {
    "wm": lambda: WMSketch(1 << 14, 2, seed=0, heap_capacity=32,
                           lambda_=1e-4),
    "wm_unfused": lambda: WMSketch(
        1 << 14, 2, seed=1, heap_capacity=16, lambda_=1e-4,
        loss=_KernelLessLogistic(),
    ),
    "awm": lambda: AWMSketch(1 << 13, depth=1, heap_capacity=48, seed=0,
                             lambda_=1e-4),
    "awm_deep": lambda: AWMSketch(1 << 12, depth=3, heap_capacity=16,
                                  seed=2, lambda_=1e-4),
    "hash": lambda: FeatureHashing(1 << 15, seed=3, lambda_=1e-4),
}


class _KernelLessLogistic(LogisticLoss):
    """The logistic loss without a kernel id: ``fit_batch`` then runs
    the per-example spec, whose dirty marking the chain must see."""

    kernel_id = None


def _read_keys(rng):
    return rng.integers(0, 50_000, size=37).astype(np.int64)


def _assert_snapshot_equals_full(snap, full, batch, keys):
    """Chained incremental snapshot == independent full fold, bitwise."""
    assert snap._scale == full._scale
    assert np.array_equal(snap._dense_table_flat(), full.table.ravel())
    assert np.array_equal(snap.query_many(keys), full.query_many(keys))
    assert np.array_equal(
        snap.predict_batch(batch), full.predict_batch(batch)
    )
    heap_s = getattr(snap, "heap", None)
    heap_f = getattr(full, "heap", None)
    if heap_s is not None:
        assert heap_s.items() == heap_f.items()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_random_interleavings_chain_bit_identical(name, rng):
    """Fuzz fit_batch / scalar update / decay bursts / publish in random
    order; at every publish the chained snapshot must equal a fresh full
    snapshot, and every *earlier* snapshot must keep answering exactly
    what it answered at its own publish time."""
    model = FACTORIES[name]()
    pos = 0
    prev = None
    history = []  # (snap, keys, answers, batch, margins)
    for step in range(40):
        op = int(rng.integers(0, 4))
        if op == 0 and pos + 16 < len(EXAMPLES):
            n = int(rng.integers(1, 17))
            model.fit_batch(
                SparseBatch.from_examples(EXAMPLES[pos: pos + n])
            )
            pos += n
        elif op == 1 and pos < len(EXAMPLES):
            model.update(EXAMPLES[pos])
            pos += 1
        elif op == 2:
            # A decay-only burst: scalar updates with tiny examples so
            # the lazy scale moves while few buckets are written.
            for _ in range(int(rng.integers(1, 4))):
                if pos < len(EXAMPLES):
                    model.update(EXAMPLES[pos])
                    pos += 1
        else:
            snap, stats = model.snapshot_incremental(prev)
            full = model.snapshot()
            keys = _read_keys(rng)
            batch = SparseBatch.from_examples(
                EXAMPLES[pos % 600: pos % 600 + 5]
            )
            _assert_snapshot_equals_full(snap, full, batch, keys)
            assert 0.0 <= stats["dirty_fraction"] <= 1.0
            assert stats["chunks_copied"] <= stats["n_chunks"]
            history.append((
                snap, keys, snap.query_many(keys).copy(), batch,
                snap.predict_batch(batch).copy(),
            ))
            prev = snap
    assert len(history) >= 2, "fuzz schedule never published"
    # Immutability: every historical snapshot still answers its own
    # publish-time answers after all later chunk copies.
    for snap, keys, answers, batch, margins in history:
        assert np.array_equal(snap.query_many(keys), answers)
        assert np.array_equal(snap.predict_batch(batch), margins)


#: Wide models for the aliasing audit: few enough writes per publish
#: that most chunks stay clean and the chain actually shares.
WIDE_FACTORIES = {
    "wm": lambda: WMSketch(1 << 17, 2, seed=0, heap_capacity=32,
                           lambda_=1e-4),
    "awm": lambda: AWMSketch(1 << 17, depth=1, heap_capacity=48, seed=0,
                             lambda_=1e-4),
    "hash": lambda: FeatureHashing(1 << 18, seed=0, lambda_=1e-4),
}


@pytest.mark.parametrize("name", sorted(WIDE_FACTORIES))
def test_clean_chunks_share_memory_dirty_chunks_do_not(name):
    """The aliasing audit: a chained snapshot reads clean chunks out of
    the *same* pool rows as its predecessor (``np.shares_memory``),
    copies dirty chunks into fresh write-once rows, and never aliases
    the live table."""
    model = WIDE_FACTORIES[name]()
    batches = list(iter_batches(EXAMPLES[:40], 20))
    model.fit_batch(batches[0])
    s1, st1 = model.snapshot_incremental(None)
    assert st1["rebase"] and st1["chunks_copied"] == st1["n_chunks"]
    assert not np.shares_memory(s1._pool, model.table)
    model.fit_batch(batches[1])
    s2, st2 = model.snapshot_incremental(s1)
    # 20 examples * ~8 nnz over 2^14+ buckets cannot dirty half the
    # chunks: the publish must have chained, sharing the pool object.
    assert not st2["rebase"]
    assert st2["chunks_copied"] < st2["n_chunks"]
    assert s2._pool is s1._pool
    assert not np.shares_memory(s2._pool, model.table)
    copied = s2._chunk_map != s1._chunk_map
    assert copied.any() and not copied.all()
    c = int(np.flatnonzero(~copied)[0])  # a clean chunk
    d = int(np.flatnonzero(copied)[0])   # a copied chunk
    assert np.shares_memory(
        s2._pool[int(s2._chunk_map[c])], s1._pool[int(s1._chunk_map[c])]
    )
    # The copied chunk landed in a fresh row no earlier snapshot maps.
    assert int(s2._chunk_map[d]) not in set(s1._chunk_map.tolist())
    assert not np.shares_memory(
        s2._pool[int(s2._chunk_map[d])], s1._pool[int(s1._chunk_map[d])]
    )


def test_dense_rebase_then_sparse_regrowth_bit_identical():
    """A publish past the dirty-fraction crossover rebases into a pool
    with no headroom; the sparse publish after it regrows the pool
    (copying the published rows) and both stay bit-identical to a full
    fold, as does the snapshot taken before the regrowth."""
    model = WIDE_FACTORIES["wm"]()
    batches = list(iter_batches(EXAMPLES[:60], 20))
    keys = np.arange(0, 50_000, 97, dtype=np.int64)
    model.fit_batch(batches[0])
    s1, st1 = model.snapshot_incremental(None)
    assert st1["rebase"] and s1._pool.shape[0] == 2 * st1["n_chunks"]
    model._dirty[: (st1["n_chunks"] + 1) // 2] = True
    model.fit_batch(batches[1])
    s2, st2 = model.snapshot_incremental(s1)
    assert st2["rebase"] and st2["dirty_fraction"] >= 0.5
    assert s2._pool.shape[0] == st2["n_chunks"]  # no headroom
    full2 = model.snapshot()
    _assert_snapshot_equals_full(s2, full2, batches[2], keys)
    model.fit_batch(batches[2])
    s3, st3 = model.snapshot_incremental(s2)
    assert not st3["rebase"] and st3["chunks_copied"] > 0
    assert s3._pool is not s2._pool  # regrown
    assert s3._pool.shape[0] == 2 * st2["n_chunks"]
    _assert_snapshot_equals_full(s3, model.snapshot(), batches[0], keys)
    _assert_snapshot_equals_full(s2, full2, batches[2], keys)


def test_renorm_fold_mid_batch_marks_everything():
    """A renorm fold rewrites every bucket; the next incremental publish
    must copy the whole table (or rebase) and stay bit-identical."""
    model = FACTORIES["wm"]()
    batches = list(iter_batches(EXAMPLES[:120], 40))
    model.fit_batch(batches[0])
    prev, _ = model.snapshot_incremental(None)
    # Force the very next decay over the underflow edge.
    model._scale = _RENORM_THRESHOLD * 1.000001
    model.fit_batch(batches[1])
    assert model._scale > 1e-9  # the fold actually fired
    snap, stats = model.snapshot_incremental(prev)
    assert stats["dirty_fraction"] == 1.0
    full = model.snapshot()
    assert np.array_equal(snap._dense_table_flat(), full.table.ravel())
    assert snap._scale == full._scale


def test_scalar_and_maintenance_paths_feed_the_bitmap():
    """Scalar update / merge / decay write paths must dirty their
    chunks — a publish after each must match the full fold."""
    model = FACTORIES["awm"]()
    prev = None
    keys = np.arange(0, 50_000, 131, dtype=np.int64)
    for i, ex in enumerate(EXAMPLES[:60]):
        model.update(ex)
        if i % 9 == 0:
            snap, _ = model.snapshot_incremental(prev)
            full = model.snapshot()
            assert np.array_equal(
                snap._dense_table_flat(), full.table.ravel()
            )
            assert np.array_equal(
                snap.query_many(keys), full.query_many(keys)
            )
            prev = snap
    # merge dirties everything it rewrote
    donor = FACTORIES["awm"]()
    for ex in EXAMPLES[60:90]:
        donor.update(ex)
    model.merge(donor)
    snap, stats = model.snapshot_incremental(prev)
    full = model.snapshot()
    assert np.array_equal(snap._dense_table_flat(), full.table.ravel())


def test_snapshots_are_not_publishers():
    model = FACTORIES["wm"]()
    snap, _ = model.snapshot_incremental(None)
    with pytest.raises(TypeError, match="read-only"):
        snap.snapshot_incremental(None)


def test_chunk_shared_snapshot_pickles_dense():
    """Pickling a chunk-shared snapshot densifies it — the payload
    carries no pool, and the clone answers identically."""
    model = FACTORIES["wm"]()
    batches = list(iter_batches(EXAMPLES[:80], 40))
    model.fit_batch(batches[0])
    s1, _ = model.snapshot_incremental(None)
    model.fit_batch(batches[1])
    s2, stats = model.snapshot_incremental(s1)
    keys = np.arange(0, 50_000, 211, dtype=np.int64)
    clone = pickle.loads(pickle.dumps(s2))
    assert clone._chunk_map is None and clone._pool is None
    assert np.array_equal(clone.query_many(keys), s2.query_many(keys))
    assert clone._scale == s2._scale


def test_broken_chain_rebases():
    """Passing a stale or foreign prev must force a safe rebase, never
    a wrong table."""
    model = FACTORIES["wm"]()
    batches = list(iter_batches(EXAMPLES[:120], 40))
    model.fit_batch(batches[0])
    s1, _ = model.snapshot_incremental(None)
    model.fit_batch(batches[1])
    s2, _ = model.snapshot_incremental(s1)
    model.fit_batch(batches[2])
    # s1 is no longer the chain head: chaining from it must rebase.
    s3, stats = model.snapshot_incremental(s1)
    assert stats["rebase"]
    full = model.snapshot()
    assert np.array_equal(s3._dense_table_flat(), full.table.ravel())
    # A different model's snapshot as prev: also a rebase.
    other = FACTORIES["wm"]()
    other.fit_batch(batches[0])
    o1, _ = other.snapshot_incremental(None)
    model.fit_batch(batches[0])
    s4, stats4 = model.snapshot_incremental(o1)
    assert stats4["rebase"]
    assert np.array_equal(
        s4._dense_table_flat(), model.snapshot().table.ravel()
    )


@pytest.mark.parametrize("name", ["wm", "awm"])
def test_scalar_reads_do_not_touch_the_shared_workspace(name):
    """The serial-scalar serving path runs concurrently with the
    coalescer's batched reads on the same chunk-shared snapshot; its
    index translation must use fresh temporaries, never the shared
    reader workspace (a mutable single-thread cache).  Pin that by
    checking the scalar entry points grow no workspace arenas."""
    from repro import kernels
    from repro.hashing.batch import BatchHasher

    model = FACTORIES[name]()
    batches = list(iter_batches(EXAMPLES[:80], 40))
    model.fit_batch(batches[0])
    hasher = BatchHasher(model.family)
    ws = kernels.KernelWorkspace()
    s1, _ = model.snapshot_incremental(
        None, batch_hasher=hasher, workspace=ws
    )
    model.fit_batch(batches[1])
    s2, _ = model.snapshot_incremental(
        s1, batch_hasher=hasher, workspace=ws
    )
    assert s2._chunk_map is not None  # translation is actually active
    grown_before = ws.grown
    arenas_before = set(ws._arenas)
    s2.predict_margin(EXAMPLES[90])
    s2.estimate_weights(np.array([17, 4242], dtype=np.int64))
    s2.top_weights(5)
    assert ws.grown == grown_before
    assert set(ws._arenas) == arenas_before


def test_manager_chains_and_exports_metrics():
    """SnapshotManager publishes through the incremental path and
    exports publish.dirty_fraction / publish.chunks_copied."""
    model = FACTORIES["wm"]()
    mgr = SnapshotManager(model)
    for batch in iter_batches(EXAMPLES[:200], 25):
        model.fit_batch(batch)
        mgr.publish()
    dump = mgr.registry.snapshot()
    assert "publish.dirty_fraction" in dump["gauges"]
    assert 0.0 <= dump["gauges"]["publish.dirty_fraction"] <= 1.0
    assert dump["counters"]["publish.chunks_copied"] > 0
    # The current snapshot answers like a fresh full fold.
    keys = np.arange(0, 50_000, 173, dtype=np.int64)
    full = model.snapshot()
    assert np.array_equal(
        mgr.current.model.query_many(keys), full.query_many(keys)
    )
