"""Checkpoints written by older code keep loading, training and answering.

Until commit 0ba4e4c, ``save_sketch`` also wrote a ``trained_backend``
key (the backend that computed the state), and ``load_sketch`` put it
back on the model as provenance nothing read.  Both are gone; archives
that carry the key must still load.

``fixtures/wm_0ba4e4c.npz`` and ``fixtures/awm_0ba4e4c.npz`` are a small
WM- and AWM-Sketch checkpointed by that commit (``python
tests/test_checkpoint_compat.py <dir>``, run against that commit's
``src/``, is the script that wrote them).  The WM one names the ``c``
backend, the AWM one the retired ``numba``; both carry
``meta_trained_backend``.  Each must hold exactly what the current
``save_sketch`` writes for a twin built and trained on the same stream,
plus that key, and must load, train and answer bit-identically to the
twin after its own checkpoint round trip.
"""

from __future__ import annotations

import io
import sys
import warnings
from pathlib import Path

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
from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample

FIXTURES = Path(__file__).with_name("fixtures")


def _examples(seed, n, universe=400, min_nnz=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        nnz = int(rng.integers(min_nnz, 8))
        idx = rng.choice(universe, size=nnz, replace=False).astype(np.int64)
        out.append(SparseExample(idx, rng.standard_normal(nnz),
                                 1 if rng.random() < 0.5 else -1))
    return out


#: name -> (constructor of the checkpointed model, training seed, fewest
#: features per training example).  The AWM model trains on examples of
#: two or more features: up to 0ba4e4c, 1-sparse AWM examples ran
#: through a scalar step that rounded differently from the Algorithm 2
#: spec, so a state trained through it has no twin in the current code.
#: Continued training below runs 1-sparse examples on both copies.
MODELS = {
    "wm": (lambda: WMSketch(128, 3, heap_capacity=16, lambda_=1e-4,
                            l1=1e-3, seed=2, backend="c"), 5, 1),
    "awm": (lambda: AWMSketch(128, depth=2, heap_capacity=16,
                              lambda_=1e-4, seed=2, backend="numba"), 6, 2),
}


#: The ``trained_backend`` each fixture carries: the backend the older
#: code resolved the model's override to (``numba`` fell back to numpy).
TRAINED = {"wm": "c", "awm": "numpy"}


def _build_and_train(name):
    factory, seed, min_nnz = MODELS[name]
    model = factory()
    for batch in iter_batches(_examples(seed, 120, min_nnz=min_nnz), 32):
        model.fit_batch(batch)
    return model


def _members(source):
    with np.load(source, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


def _assert_same_state(a, b):
    assert type(a) is type(b)
    assert a.table.tobytes() == b.table.tobytes()
    assert a._scale == b._scale
    assert a.t == b.t
    assert a.merged_from == b.merged_from
    assert a.heap.items() == b.heap.items()
    assert a.heap.scale == b.heap.scale
    assert getattr(a, "n_promotions", 0) == getattr(b, "n_promotions", 0)


@pytest.mark.filterwarnings("ignore::repro.kernels.KernelBackendWarning")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_old_checkpoint_trains_and_answers_like_a_twin(name):
    path = FIXTURES / f"{name}_0ba4e4c.npz"
    fresh = _build_and_train(name)
    old_members = _members(path)
    new_members = _members(io.BytesIO(roundtrip_bytes(fresh)))
    # The older archive is the current one plus the provenance key.
    assert old_members.pop("meta_trained_backend").item() == TRAINED[name]
    assert sorted(old_members) == sorted(new_members)
    for key, value in new_members.items():
        assert old_members[key].dtype == value.dtype, key
        assert old_members[key].tobytes() == value.tobytes(), key

    old = load_sketch(str(path))
    twin = from_bytes(roundtrip_bytes(fresh))
    assert old.backend == twin.backend == fresh.backend
    assert not hasattr(old, "trained_backend")
    _assert_same_state(old, twin)
    more = _examples(10 + MODELS[name][1], 90)
    for model in (old, twin):
        for batch in iter_batches(more[:60], 25):
            model.fit_batch(batch)
        for ex in more[60:]:
            model.update(ex)
    _assert_same_state(old, twin)
    probe = SparseBatch.from_examples(more[:40])
    keys = np.arange(0, 400, 3, dtype=np.int64)
    assert old.predict_batch(probe).tobytes() == \
        twin.predict_batch(probe).tobytes()
    assert old.estimate_weights(keys).tobytes() == \
        twin.estimate_weights(keys).tobytes()
    assert old.query_many(keys).tobytes() == twin.query_many(keys).tobytes()
    assert old.top_weights(8) == twin.top_weights(8)


if __name__ == "__main__":
    # Writes the fixtures into the directory given on the command line.
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model_name in MODELS:
            save_sketch(_build_and_train(model_name),
                        str(out / f"{model_name}_0ba4e4c.npz"))
