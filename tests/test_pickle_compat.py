"""Pickles written by older code keep loading, training and answering.

Until commit 5317a45, the hashers (``TabulationHash``,
``PolynomialHash``, ``HashFamily``) and the top-K store took a
``backend=`` option and wrote it into their pickled state, including the
retired names ``"numba"`` and ``"python"``.  Those options are gone;
every ``__setstate__`` must still accept the key and ignore it.

Two kinds of evidence:

* the exact state dicts the older ``__getstate__`` methods wrote, with
  ``backend`` set to ``"c"``, ``"numba"`` and ``None``, pickled the way
  that code pickled them (the same bytes), loaded and compared with
  objects built now;
* ``fixtures/wm_5317a45.pkl`` and ``fixtures/awm_5317a45.pkl``, a small
  WM- and AWM-Sketch pickled by that commit (``python
  tests/test_pickle_compat.py <dir>``, run against that commit's
  ``src/``, is the script that wrote them).  Each must load, then train
  and answer bit-identically to a twin built and trained on the same
  stream by the current code.
"""

from __future__ import annotations

import pickle
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.awm_sketch import AWMSketch
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample
from repro.hashing.family import HashFamily
from repro.hashing.tabulation import TabulationHash
from repro.hashing.universal import PolynomialHash
from repro.heap.topk import TopKStore

FIXTURES = Path(__file__).with_name("fixtures")
BACKENDS = ["c", "numba", None]
KEYS = np.array([0, 1, 255, 256, 2**32, 2**61 - 1, 2**63 - 1, 12_345],
                dtype=np.int64)


def _load_old(cls, state, monkeypatch):
    """Pickle a ``cls`` instance whose ``__getstate__`` returns ``state``
    (what the older code wrote), then load it with the current code."""
    with monkeypatch.context() as patch:
        patch.setattr(cls, "__getstate__", lambda self: state)
        data = pickle.dumps(cls.__new__(cls))
    return pickle.loads(data)


@pytest.mark.parametrize("backend", BACKENDS)
class TestOldStates:
    def test_tabulation_hash(self, backend, monkeypatch):
        seed = np.random.SeedSequence(5).spawn(2)[1]
        old = _load_old(TabulationHash, {
            "seed": seed, "key_bits": 64, "backend": backend,
        }, monkeypatch)
        new = TabulationHash(seed)
        assert old.hash(KEYS).tobytes() == new.hash(KEYS).tobytes()
        assert old.hash_one(12_345) == new.hash_one(12_345)
        assert not hasattr(old, "backend")

    def test_polynomial_hash(self, backend, monkeypatch):
        old = _load_old(PolynomialHash, {
            "independence": 5, "seed": np.random.SeedSequence(11),
            "backend": backend,
        }, monkeypatch)
        new = PolynomialHash(independence=5, seed=11)
        assert old.hash(KEYS).tolist() == new.hash(KEYS).tolist()
        assert old.hash_one(999) == new.hash_one(999)
        assert not hasattr(old, "backend")

    @pytest.mark.parametrize("kind", ["tabulation", "polynomial"])
    def test_hash_family(self, backend, kind, monkeypatch):
        old = _load_old(HashFamily, {
            "width": 100, "depth": 3, "seed": 9, "kind": kind,
            "independence": 4, "backend": backend,
        }, monkeypatch)
        new = HashFamily(100, 3, seed=9, kind=kind)
        for a, b in zip(old.all_rows(KEYS), new.all_rows(KEYS)):
            assert a.tobytes() == b.tobytes()
        assert not hasattr(old, "backend")

    def test_topk_store(self, backend, monkeypatch):
        keys = np.array([4, 9, 2], dtype=np.int64)
        raw = np.array([0.5, -3.0, 1.25])
        old = _load_old(TopKStore, {
            "capacity": 4, "priority": abs, "backend": backend,
            "scale": 0.5, "keys": keys, "raw": raw,
        }, monkeypatch)
        new = TopKStore(4)
        for k, v in zip(keys.tolist(), (raw * 0.5).tolist()):
            new.push(k, v)
        assert old.items() == new.items()
        assert not hasattr(old, "backend")
        old.check_invariants()
        # Both keep deciding alike.
        cand_keys = np.array([7, 8, 11], dtype=np.int64)
        cand_values = np.array([0.1, 2.0, -0.2])
        old.push_many(cand_keys, cand_values)
        new.push_many(cand_keys, cand_values)
        assert old.items() == new.items()


# ----------------------------------------------------------------------
# Models pickled by the older code
# ----------------------------------------------------------------------
def _examples(seed, n, universe=400, min_nnz=1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        nnz = int(rng.integers(min_nnz, 8))
        idx = rng.choice(universe, size=nnz, replace=False).astype(np.int64)
        out.append(SparseExample(idx, rng.standard_normal(nnz),
                                 1 if rng.random() < 0.5 else -1))
    return out


#: name -> (constructor of the model the fixture holds, training seed,
#: fewest features per training example).  The WM fixture carries
#: ``backend="c"`` on the model, its family and its store; the AWM one
#: the retired name ``"numba"`` and a polynomial family of even depth.
#: The AWM fixture trains on examples of two or more features: older
#: code ran 1-sparse AWM examples through a scalar step that rounded
#: differently from the Algorithm 2 spec, so a state trained through it
#: has no twin in the current code.  Continued training below still
#: runs 1-sparse examples on both copies.
MODELS = {
    "wm": (lambda: WMSketch(128, 3, heap_capacity=16, lambda_=1e-4,
                            seed=2, backend="c"), 3, 1),
    "awm": (lambda: AWMSketch(128, depth=2, heap_capacity=16,
                              lambda_=1e-4, seed=2,
                              hash_kind="polynomial", backend="numba"), 4, 2),
}


def _build_and_train(name):
    factory, seed, min_nnz = MODELS[name]
    model = factory()
    for batch in iter_batches(_examples(seed, 120, min_nnz=min_nnz), 32):
        model.fit_batch(batch)
    return model


def _assert_same_state(a, b):
    assert a.table.tobytes() == b.table.tobytes()
    assert a._scale == b._scale
    assert a.t == b.t
    assert a.heap.items() == b.heap.items()
    assert a.heap.scale == b.heap.scale


@pytest.mark.filterwarnings("ignore::repro.kernels.KernelBackendWarning")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_old_model_pickle_trains_and_answers_like_a_twin(name):
    old = pickle.loads((FIXTURES / f"{name}_5317a45.pkl").read_bytes())
    twin = _build_and_train(name)
    assert old.backend == twin.backend
    assert not hasattr(old.family, "backend")
    assert not hasattr(old.heap, "backend")
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
            (out / f"{model_name}_5317a45.pkl").write_bytes(
                pickle.dumps(_build_and_train(model_name), protocol=4)
            )
