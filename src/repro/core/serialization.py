"""Saving and restoring sketch state.

Deployed sketches outlive processes: a router or mobile device needs to
checkpoint its compressed classifier and resume later.  Since the hash
functions are derived deterministically from the seed, a sketch's full
state is its constructor parameters plus the table, scale, step counter
and (for the AWM variant) heap contents — a few KB, matching the
sketch's own budget.

The format is a single ``numpy.savez`` archive; no pickling of code
objects, so snapshots are portable across library versions that keep
the documented fields.

The top-K store serializes as its (key, true-value) pairs in slot
order — the lazy scale is folded into the values, exactly what
:meth:`~repro.heap.topk.TopKStore.items` returns — and is rebuilt on
load with one :meth:`~repro.heap.topk.TopKStore.push_many` (pure
appends: at most ``capacity`` distinct keys are stored, so nothing can
evict during the rebuild and slot order round-trips).  In-process
transport (the parallel worker pool) instead pickles sketches directly:
``ScaledSketchTable.__getstate__`` rebuilds the ``_table_flat`` view
aliasing and ``TopKStore.__getstate__`` ships only the live slot
prefix, reconstructing the position map and caches on load.
"""

from __future__ import annotations

import io
from typing import BinaryIO

import numpy as np

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.learning.losses import (
    HingeLoss,
    LogisticLoss,
    SmoothedHingeLoss,
    SquaredLoss,
)
from repro.learning.schedules import (
    ConstantSchedule,
    InverseSqrtSchedule,
)

_LOSSES = {
    "LogisticLoss": LogisticLoss,
    "SmoothedHingeLoss": SmoothedHingeLoss,
    "HingeLoss": HingeLoss,
    "SquaredLoss": SquaredLoss,
}

_SCHEDULES = {
    "ConstantSchedule": ConstantSchedule,
    "InverseSqrtSchedule": InverseSqrtSchedule,
}


def _common_meta(sketch) -> dict:
    loss_name = type(sketch.loss).__name__
    schedule = sketch.schedule
    schedule_name = type(schedule).__name__
    if loss_name not in _LOSSES:
        raise ValueError(f"cannot serialize custom loss {loss_name}")
    if schedule_name not in _SCHEDULES:
        raise ValueError(f"cannot serialize custom schedule {schedule_name}")
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "lambda_": sketch.lambda_,
        "seed": sketch.family.seed,
        "hash_kind": sketch.family.kind,
        "loss": loss_name,
        "schedule": schedule_name,
        "eta0": schedule.eta0,
        "t": sketch.t,
        "scale": sketch._scale,
        # Parallel-training provenance: how many independently trained
        # models were sum-merged into this one (1 = single-stream), so
        # restored checkpoints know their estimates sit on the
        # merged_from * w* scale.
        "merged_from": getattr(sketch, "merged_from", 1),
        # The model's kernel-backend override ("" = none, follow the
        # process default) round-trips through load.  Every backend is
        # bit-equivalent, so a checkpoint trained under c restores
        # exactly on a numpy-only host, and one naming a retired backend
        # trains on numpy after one warning.  Older archives also carry
        # the name of the backend that trained them, which load ignores.
        "backend": getattr(sketch, "backend", None) or "",
    }


def save_sketch(sketch: WMSketch | AWMSketch, target: str | BinaryIO) -> None:
    """Serialize a WM- or AWM-Sketch to ``target`` (path or file object).

    Raises
    ------
    ValueError
        For custom (non-library) losses or schedules, which cannot be
        reconstructed from a name.
    """
    meta = _common_meta(sketch)
    arrays = {"table": sketch.table}
    if isinstance(sketch, AWMSketch):
        meta["kind"] = "awm"
        meta["heap_capacity"] = sketch.heap.capacity
        meta["n_promotions"] = sketch.n_promotions
        items = sketch.heap.items()
        arrays["heap_keys"] = np.array([k for k, _ in items], dtype=np.int64)
        arrays["heap_values"] = np.array(
            [v for _, v in items], dtype=np.float64
        )
    elif isinstance(sketch, WMSketch):
        meta["kind"] = "wm"
        meta["l1"] = sketch.l1
        meta["heap_capacity"] = (
            sketch.heap.capacity if sketch.heap is not None else 0
        )
        items = sketch.heap.items() if sketch.heap is not None else []
        arrays["heap_keys"] = np.array([k for k, _ in items], dtype=np.int64)
        arrays["heap_values"] = np.array(
            [v for _, v in items], dtype=np.float64
        )
    else:
        raise TypeError(f"cannot serialize {type(sketch).__name__}")
    meta_items = {f"meta_{k}": np.asarray(v) for k, v in meta.items()}
    np.savez(target, **arrays, **meta_items)


def load_sketch(source: str | BinaryIO) -> WMSketch | AWMSketch:
    """Reconstruct a sketch saved with :func:`save_sketch`."""
    with np.load(source, allow_pickle=False) as archive:
        meta = {
            key[5:]: archive[key].item()
            for key in archive.files
            if key.startswith("meta_")
        }
        table = archive["table"]
        heap_keys = archive["heap_keys"]
        heap_values = archive["heap_values"]

    loss = _LOSSES[meta["loss"]]()
    schedule = _SCHEDULES[meta["schedule"]](meta["eta0"])
    common = dict(
        width=int(meta["width"]),
        depth=int(meta["depth"]),
        loss=loss,
        lambda_=float(meta["lambda_"]),
        learning_rate=schedule,
        seed=int(meta["seed"]),
        hash_kind=str(meta["hash_kind"]),
        # Archives written before the kernels layer carry no backend:
        # those models follow the process default, exactly as before.
        backend=str(meta.get("backend", "")) or None,
    )
    if meta["kind"] == "awm":
        sketch = AWMSketch(
            heap_capacity=int(meta["heap_capacity"]), **common
        )
        sketch.n_promotions = int(meta["n_promotions"])
    else:
        sketch = WMSketch(
            heap_capacity=int(meta["heap_capacity"]),
            l1=float(meta["l1"]),
            **common,
        )
    sketch.table[:] = table
    sketch._scale = float(meta["scale"])
    sketch.t = int(meta["t"])
    # Archives written before the parallel subsystem lack the key;
    # those are single-stream models by definition.
    sketch.merged_from = int(meta.get("merged_from", 1))
    heap = sketch.heap
    if heap is not None and heap_keys.size:
        heap.push_many(heap_keys, heap_values)
    return sketch


def roundtrip_bytes(sketch: WMSketch | AWMSketch) -> bytes:
    """Serialize to an in-memory byte string (convenience for tests and
    message-passing deployments)."""
    buffer = io.BytesIO()
    save_sketch(sketch, buffer)
    return buffer.getvalue()


def from_bytes(payload: bytes) -> WMSketch | AWMSketch:
    """Inverse of :func:`roundtrip_bytes`."""
    return load_sketch(io.BytesIO(payload))
