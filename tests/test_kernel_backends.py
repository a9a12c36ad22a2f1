"""Cross-backend kernel equivalence: the PR 4 executable contract.

Every kernel backend must be *bit-identical* to the NumPy reference on
identical inputs — tables, heap state and predictions alike.  The ``c``
backend compiles all ten kernels, ``fused_update``, ``fused_predict``,
``fused_query``, ``heap_maintain``, ``awm_update``, ``chunk_delta``,
``chunk_add``, ``chunk_gather``, ``chunk_scatter`` and ``hash_rows``
(``repro/kernels/ckernels.c``); its cases skip with the recorded reason
on a host where it cannot build.
The NumPy helpers no backend compiles are tested directly here
(``TestNumpyHelpers``).  Beyond the
model-level fuzz, hypothesis properties compare the compiled kernels
with NumPy bit for bit on adversarial inputs (repeated buckets, renorm
folds, 1e300 magnitudes, signed zeros, infinities and NaNs, bad chunk
ids, buffers that share memory), including the exception raised and
the partial state left behind, pin the NumPy chunk kernels to the delta
codec's earlier composition,
and pin the NumPy heap maintain to the per-example decision core.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import c_backend_param, retired_backend_param
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.serialization import from_bytes, roundtrip_bytes
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.sparse import SparseExample
from repro.data.synthetic import SyntheticStream
from repro.hashing.batch import BatchHasher
from repro.hashing.family import HashFamily
from repro.heap.topk import TopKStore
from repro.kernels import numpy_backend
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.ogd import UncompressedClassifier
from repro.serving.snapshot import SnapshotManager

#: Backends checked against the numpy reference on this host.
ALT_BACKENDS = [c_backend_param()]
#: Model- and store-level cases also run a retired backend name, which
#: resolves to the numpy reference.
MODEL_BACKENDS = ALT_BACKENDS + [retired_backend_param()]


def _c_or_skip():
    try:
        return kernels.get_backend("c")
    except kernels.BackendUnavailableError as exc:
        pytest.skip(str(exc))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self):
        names = kernels.available_backends()
        assert names[0] == "numpy"
        assert set(names) <= set(kernels.BACKEND_NAMES)

    def test_get_backend_is_cached(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")

    def test_auto_resolves_to_c_or_numpy(self):
        name = kernels.get_backend("auto").name
        if "c" in kernels.available_backends():
            assert name == "c"
        else:
            assert name == "numpy"

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.active_backend_name() == "numpy"
        monkeypatch.delenv(kernels.ENV_VAR)
        assert kernels.get_backend() is kernels.get_backend("auto")

    def test_unknown_backend_strict_raises(self):
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.get_backend("no-such-backend")
        with pytest.raises(kernels.BackendUnavailableError,
                           match="known backends: numpy, c"):
            kernels.get_backend("no-such-backend", strict=True)
        assert "no-such-backend" not in kernels.available_backends()

    def test_non_strict_falls_back_to_numpy(self):
        backend = kernels.get_backend("no-such-backend", strict=False)
        assert backend.name == "numpy"

    def test_missing_numba_strict_raises_graceful_otherwise(
        self, monkeypatch
    ):
        # The retired names resolve like any unknown name.
        monkeypatch.setattr(kernels, "_warned", set())
        for name in ("numba", "python"):
            with pytest.raises(kernels.BackendUnavailableError):
                kernels.get_backend(name)
            with pytest.warns(kernels.KernelBackendWarning):
                assert kernels.get_backend(name, strict=False).name == "numpy"

    def test_backend_objects_are_complete(self):
        assert kernels.KERNEL_NAMES == (
            "fused_update", "fused_predict", "fused_query", "heap_maintain",
            "awm_update", "chunk_delta", "chunk_add", "chunk_gather",
            "chunk_scatter", "hash_rows",
        )
        for name in kernels.available_backends():
            backend = kernels.get_backend(name)
            for kernel_name in kernels.KERNEL_NAMES:
                assert callable(getattr(backend, kernel_name))
            # The table holds the compiled loops and nothing else.
            assert set(vars(backend)) - {"name"} == set(kernels.KERNEL_NAMES)

    def test_c_compiles_every_kernel(self):
        # A numpy pass-through entry in the c table would be a kernel
        # no backend compiles; those are plain numpy_backend functions.
        c = _c_or_skip()
        ref = kernels.get_backend("numpy")
        for kernel_name in kernels.KERNEL_NAMES:
            fn = getattr(c, kernel_name)
            assert fn is not getattr(ref, kernel_name), kernel_name
            assert fn is not getattr(numpy_backend, kernel_name), kernel_name

    def test_retired_env_var_falls_back_like_models(self, monkeypatch):
        # The process default resolves the environment variable the way
        # a model's handle does: one warning, then the numpy reference.
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        monkeypatch.setattr(kernels, "_warned", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = WMSketch(64, 2, seed=0, heap_capacity=0)
            assert model.kernels.name == "numpy"
            assert kernels.active_backend_name() == model.kernels.name
            assert kernels.get_backend() is kernels.get_backend("numpy")
        assert [w.category for w in caught] == [kernels.KernelBackendWarning]
        # Explicit names stay strict.
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.get_backend("numba")


# ----------------------------------------------------------------------
# The whole resolution rule, case by case
# ----------------------------------------------------------------------
#: Per-model ``backend=`` values and ``REPRO_KERNEL_BACKEND`` settings
#: (None: unset) the resolution table covers.
OVERRIDES = [None, "numpy", "c", "numba", "bogus"]
ENV_VALUES = [None, "", "auto", "numpy", "c", "numba", "bogus"]


def _resolves_to(name, c_builds):
    """The rule, stated independently: auto and c give c when it builds,
    every other name (numpy, retired, unknown) gives numpy."""
    if name in ("auto", "c"):
        return "c" if c_builds else "numpy"
    return "numpy"


class TestResolutionTable:
    @pytest.mark.parametrize("c_builds", [True, False],
                             ids=["c-builds", "c-unavailable"])
    @pytest.mark.parametrize("env", ENV_VALUES,
                             ids=["unset", "empty", *ENV_VALUES[2:]])
    @pytest.mark.parametrize("override", OVERRIDES,
                             ids=["none", *OVERRIDES[1:]])
    def test_each_case_resolves_once(self, override, env, c_builds,
                                     monkeypatch):
        if c_builds:
            _c_or_skip()
        else:
            monkeypatch.setattr(kernels, "_loaded", {
                k: v for k, v in kernels._loaded.items() if k != "c"
            })
            monkeypatch.setattr(kernels, "_unavailable", {
                "c": "kernel backend 'c' unavailable: patched out"
            })
        monkeypatch.setattr(kernels, "_warned", set())
        if env is None:
            monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(kernels.ENV_VAR, env)
        env_name = env or "auto"
        want = _resolves_to(override or env_name, c_builds)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            models = [
                make(override)
                for make in (
                    lambda be: WMSketch(64, 2, seed=0, heap_capacity=4,
                                        backend=be),
                    lambda be: AWMSketch(64, 2, heap_capacity=4, seed=0,
                                         backend=be),
                    lambda be: FeatureHashing(64, seed=0, backend=be),
                )
                for _ in range(2)
            ]
            resolved = [m.kernels for m in models]
            defaults = [kernels.active_backend_name() for _ in range(2)]
        assert {b.name for b in resolved} == {want}
        assert defaults == [_resolves_to(env_name, c_builds)] * 2
        if override is None:
            assert defaults[0] == want
        # One warning per unavailable name that was resolved, no more.
        unavailable = {
            name for name in (override, env_name)
            if name not in (None, "auto")
            and _resolves_to(name, c_builds) != name
        }
        assert all(w.category is kernels.KernelBackendWarning
                   for w in caught)
        assert sorted(str(w.message).split("'")[1] for w in caught) == \
            sorted(unavailable)
        # A built model keeps its backend when the variable changes.
        for later in ("numpy", "c", "bogus"):
            monkeypatch.setenv(kernels.ENV_VAR, later)
            assert [m.kernels for m in models] == resolved


# ----------------------------------------------------------------------
# The C loader
# ----------------------------------------------------------------------
class TestCLoader:
    def test_missing_compiler_leaves_c_unavailable(
        self, monkeypatch, tmp_path
    ):
        from repro.kernels import c_backend

        # A fresh registry and empty cache directories, so nothing is
        # already built; then the compiler lookup fails.
        monkeypatch.setattr(kernels, "_loaded", {})
        monkeypatch.setattr(kernels, "_unavailable", {})
        monkeypatch.setattr(kernels, "_warned", set())
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        monkeypatch.setattr(c_backend, "_find_compiler", lambda: None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                assert kernels.get_backend("auto").name == "numpy"
                assert kernels.get_backend().name == "numpy"
                assert kernels.get_backend("c", strict=False).name == "numpy"
        assert [w.category for w in caught] == [kernels.KernelBackendWarning]
        assert "no C compiler" in str(caught[0].message)
        assert kernels.available_backends() == ["numpy"]
        with pytest.raises(kernels.BackendUnavailableError,
                           match="no C compiler"):
            kernels.get_backend("c")

    def test_concurrent_first_builds_both_load(self, tmp_path):
        _c_or_skip()
        # Two fresh processes race the first build into an empty cache;
        # each checks its library against the numpy reference.
        script = (
            "import numpy as np\n"
            "from repro import kernels\n"
            "from repro.hashing.batch import BatchHasher\n"
            "from repro.hashing.family import HashFamily\n"
            "c, ref = kernels.get_backend('c'), kernels.get_backend('numpy')\n"
            "rng = np.random.default_rng(0)\n"
            "family = HashFamily(64, 3, seed=0)\n"
            "table = rng.standard_normal(192)\n"
            "keys = rng.integers(0, 1000, 20)\n"
            "vals = rng.standard_normal(20)\n"
            "ip = np.array([0, 7, 7, 20], dtype=np.int64)\n"
            "a, b = np.empty(3), np.empty(3)\n"
            "for kb, out in ((c, a), (ref, b)):\n"
            "    kb.fused_predict(BatchHasher(family, backend=kb), table,\n"
            "                     None, None, keys, vals, ip, 0.5, 1.7,\n"
            "                     kernels.KernelWorkspace(), out)\n"
            "assert a.tobytes() == b.tobytes()\n"
            "print('ok')\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        # The first cache candidate (XDG) is a fresh directory, so both
        # children build; the later ones (home, temp) must stay unused.
        xdg, home, tmp = (tmp_path / d for d in ("xdg", "home", "tmp"))
        tmp.mkdir()
        env = dict(os.environ, XDG_CACHE_HOME=str(xdg), HOME=str(home),
                   TMPDIR=str(tmp), PYTHONPATH=src)
        env.pop(kernels.ENV_VAR, None)
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        # One library, in the first candidate, no temporary leftovers.
        built = sorted(p.name for p in (xdg / "repro").iterdir())
        assert len(built) == 1 and built[0].endswith(".so"), built
        assert not home.exists() and not list(tmp.glob("repro*"))

    def _isolate_cache(self, monkeypatch, tmp_path, home_usable):
        """Point every cache candidate into ``tmp_path``: no XDG, a fresh
        home (or a file where ``~/.cache`` cannot be made) and a fresh
        temp dir.  Returns the home cache and the temp candidate."""
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        home = tmp_path / "home"
        if not home_usable:
            home.write_text("")
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        from repro.kernels import c_backend

        return home / ".cache" / "repro", c_backend._cache_dirs()[-1]

    def _plant(self, directory, mode=0o700):
        """What another user would leave under the library's name."""
        from repro.kernels import c_backend

        directory.mkdir(parents=True, exist_ok=True)
        planted = directory / c_backend._library_name()
        planted.write_bytes(b"planted")
        directory.chmod(mode)
        return planted

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="no uids here")
    @pytest.mark.parametrize("hostile", ["mode-0o777", "other-owner"])
    def test_planted_library_is_neither_loaded_nor_reused(
        self, hostile, monkeypatch, tmp_path
    ):
        from repro.kernels import c_backend

        _c_or_skip()
        if hostile == "other-owner":
            # Every path this process creates now has another owner.
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        # The shared temp dir is the only candidate left, and someone
        # else prepared it: world-writable, or not this user's.
        _, temp = self._isolate_cache(monkeypatch, tmp_path,
                                      home_usable=False)
        planted = self._plant(
            temp, 0o777 if hostile == "mode-0o777" else 0o700
        )
        with pytest.raises(c_backend.BuildError,
                           match="no usable cache directory"):
            c_backend.load()
        assert planted.read_bytes() == b"planted"

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="no uids here")
    def test_build_looks_only_in_the_first_usable_directory(
        self, monkeypatch, tmp_path
    ):
        from repro.kernels import c_backend

        _c_or_skip()
        home_cache, temp = self._isolate_cache(monkeypatch, tmp_path,
                                               home_usable=True)
        in_temp = self._plant(temp)
        # A world-writable library in the first usable directory is not
        # reused either: it is rebuilt in place, private.
        in_home = self._plant(home_cache)
        in_home.chmod(0o666)
        assert c_backend.build() == in_home
        assert in_home.read_bytes() != b"planted"
        assert not in_home.stat().st_mode & 0o022
        assert in_temp.read_bytes() == b"planted"
        c_backend.load()  # the rebuilt library loads

    def _update_args(self, rng, depth=2, n=4, size=32):
        indptr = np.array([0, 3, 3, 6, 9][: n + 1], dtype=np.int64)
        nnz = int(indptr[-1])
        return dict(
            table_flat=rng.standard_normal(size),
            flat_buckets=rng.integers(0, size, (depth, nnz)).astype(np.int64),
            sign_values=rng.standard_normal((depth, nnz)),
            indptr=indptr,
            labels=np.array([1, -1, 1, -1][:n], dtype=np.int64),
            etas=np.full(n, 0.1),
            lam=1e-3, state=np.array([1.0, -1.0]),
            sqrt_s=math.sqrt(depth), loss_id=0, loss_param=0.0,
            margins_out=np.full(n, -7.0),
            gathered_out=np.full((nnz, depth), -7.0),
            scales_out=np.full(n, -7.0),
            touched_out=np.full(1 + depth * nnz, -7, dtype=np.int64),
        )

    def test_wrapper_rejects_bad_arguments_before_calling_c(self, rng):
        c = _c_or_skip()
        base = self._update_args(rng)
        table0 = base["table_flat"].copy()
        # Dtypes, shapes and layouts are checked in Python; the
        # recording buffers' lengths in C, before anything is written.
        bad_cases = [
            (TypeError, {"flat_buckets":
                         base["flat_buckets"].astype(np.int32)}),
            (TypeError, {"labels": base["labels"].astype(np.float64)}),
            (ValueError, {"gathered_out": np.full((5, 2), -7.0)}),
            (ValueError, {"scales_out": np.full(2, -7.0)}),
            (ValueError, {"labels": base["labels"][:2]}),
            (ValueError, {"touched_out": np.full(0, -7, dtype=np.int64)}),
            (ValueError, {"touched_out": np.full(1, -7, dtype=np.int64)}),
            (ValueError, {"touched_out": np.full(2, -7, dtype=np.int64)}),
            (ValueError, {"touched_out":
                          np.full(base["touched_out"].size - 1, -7,
                                  dtype=np.int64)}),
            # Written buffers with the wrong layout raise, never copy.
            (ValueError, {"table_flat": np.repeat(table0, 2)[::2]}),
            (ValueError, {"margins_out":
                          np.full(8, -7.0)[::2]}),
        ]
        for exc_type, override in bad_cases:
            args = {**base, "table_flat": table0.copy(),
                    "margins_out": np.full(4, -7.0), **override}
            before = {k: v.copy() for k, v in args.items()
                      if isinstance(v, np.ndarray)}
            with pytest.raises(exc_type):
                c.fused_update(**args)
            for key, value in before.items():
                assert args[key].tobytes() == value.tobytes(), (
                    override.keys(), key
                )
        readonly = np.full(4, -7.0)
        readonly.flags.writeable = False
        with pytest.raises(ValueError):
            c.fused_update(**dict(base, margins_out=readonly))
        out = np.full(3, -7.0)
        read = (BatchHasher(HashFamily(8, 2), backend=c),
                base["table_flat"], None, None)
        keys, values = np.arange(7, dtype=np.int64), np.ones(7)
        indptr = np.array([0, 2, 5, 7], dtype=np.int64)
        ws = kernels.KernelWorkspace()
        with pytest.raises(TypeError):
            c.fused_predict(read[0], read[1].astype(np.float32), None, None,
                            keys, values, indptr, 1.0, 1.0, ws, out)
        with pytest.raises(ValueError):
            c.fused_predict(*read, keys, values, indptr[:2], 1.0, 1.0, ws,
                            out)
        with pytest.raises(TypeError):
            c.fused_query(*read, keys.astype(np.int32), 1.0, 0.0, ws,
                          np.full(7, -7.0))
        with pytest.raises(ValueError):
            c.fused_query(*read, keys, 1.0, 0.0, ws, out)
        assert np.all(out == -7.0)

    @pytest.mark.parametrize("bucket", [32, -33, 10**12])
    def test_out_of_range_bucket_is_index_error(self, rng, bucket):
        c = _c_or_skip()
        args = self._update_args(rng)
        args["flat_buckets"][1, 4] = bucket  # example 2's slice
        results = [
            _run_update(kb, args) for kb in (kernels.get_backend("numpy"), c)
        ]
        assert results[0][0] == results[1][0] == ("IndexError", None)
        assert results[0] == results[1]

    @pytest.mark.parametrize("row", [2, -3, 10**9])
    def test_chunk_map_outside_the_pool_is_index_error(self, row):
        # The reads translate through a snapshot's chunk map; a map row
        # outside the pool raises numpy take's IndexError on both
        # backends, naming the same translated index.
        c = _c_or_skip()
        family = HashFamily(kernels.CHUNK, 2, seed=3)
        pool = np.arange(2 * kernels.CHUNK, dtype=np.float64)
        chunk_map = np.array([1, row], dtype=np.int64)
        keys = np.arange(20, dtype=np.int64)
        messages = []
        for kb in (kernels.get_backend("numpy"), c):
            read = (BatchHasher(family, backend=kb), pool, chunk_map, None)
            ws = kernels.KernelWorkspace()
            with pytest.raises(IndexError) as query:
                kb.fused_query(*read, keys, 1.0, 0.0, ws, np.empty(20))
            with pytest.raises(IndexError) as predict:
                kb.fused_predict(*read, keys, np.ones(20),
                                 np.array([0, 20], dtype=np.int64), 1.0,
                                 1.0, ws, np.empty(1))
            messages.append((str(query.value), str(predict.value)))
        assert messages[0] == messages[1]
        assert "is out of bounds for axis 0 with size 512" in messages[0][0]

    def test_strided_read_only_inputs_are_accepted(self, rng):
        c = _c_or_skip()
        ref = kernels.get_backend("numpy")
        args = self._update_args(rng)
        wide = np.repeat(args["sign_values"], 2, axis=1)
        args["sign_values"] = wide[:, ::2]
        assert not args["sign_values"].flags.c_contiguous
        assert _run_update(ref, args) == _run_update(c, args)


_WRITTEN = ("table_flat", "state", "margins_out", "gathered_out",
            "scales_out", "touched_out")


def _run_update(kb, args):
    """Run ``fused_update`` on copies of the buffers it writes; returns
    the outcome (``ok`` or the exception name) and every written
    buffer's bytes, the scale and examples completed in ``state``
    included."""
    args = {k: (v.copy() if k in _WRITTEN else v) for k, v in args.items()}
    try:
        kb.fused_update(**args)
        outcome = ("ok", None)
    except Exception as exc:  # noqa: BLE001 - compared across backends
        outcome = (type(exc).__name__, None)
    return outcome, tuple(args[k].tobytes() for k in _WRITTEN)


# ----------------------------------------------------------------------
# The exact sum: CPython's math.fsum, run through the C kernel
# ----------------------------------------------------------------------
def _c_fsum(c, values):
    """The C exact sum of ``values``: the margin of a one-example
    fused_update over a table of ones with scale = sqrt_s = 1 (the
    margin is taken before the step)."""
    values = np.asarray(values, dtype=np.float64).reshape(1, -1)
    out = np.empty(1)
    c.fused_update(
        np.ones(1), np.zeros(values.shape, dtype=np.int64), values,
        np.array([0, values.shape[1]], dtype=np.int64),
        np.ones(1, dtype=np.int64), np.zeros(1), 0.0, np.array([1.0, 0.0]),
        1.0, 0, 0.0, out, kernels.EMPTY_GATHER, kernels.EMPTY_SCALES,
        np.empty(1 + values.shape[1], dtype=np.int64),
    )
    return out[0]


def _fsum_outcome(fn, values):
    try:
        return ("ok", np.float64(fn(values)).tobytes())
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


class TestExactFsum:
    def test_adversarial_cancellation(self):
        c = _c_or_skip()
        cases = [
            [1e16, 1.0, -1e16],
            [1e16, 1.0, -1e16, 1e-8],
            [1e100, 1.0, -1e100, 3.14, -2.718, 1e-300],
            [0.1] * 10,
            [],
            [5.0],
            [1.0, 2.0**-53, 2.0**-53],  # round-half-even boundary
        ]
        for case in cases:
            assert _c_fsum(c, case) == math.fsum(case), case

    def test_matches_math_fsum_fuzzed(self, rng):
        c = _c_or_skip()
        for _ in range(300):
            n = int(rng.integers(0, 60))
            exponents = rng.integers(-12, 12, size=n)
            vals = rng.standard_normal(n) * (10.0 ** exponents)
            assert _c_fsum(c, vals) == math.fsum(vals.tolist())

    def test_special_values_follow_math_fsum(self, rng):
        # Zero partials are dropped (so -0.0 sums to +0.0), +-inf pass
        # through, NaN propagates, inf + -inf raises ValueError and
        # intermediate overflow of finite values raises OverflowError.
        c = _c_or_skip()
        inf, nan = math.inf, math.nan
        cases = [
            [-0.0], [-0.0, -0.0], [0.0, -0.0], [inf], [-inf, 1.0],
            [inf, -inf], [nan], [nan, inf, -inf], [1e308, 1e308],
            [1e308, 1e308, -1e308], [inf, 1e308, 1e308], [1.7e308, -inf],
            [5e-324, -5e-324], [1e308, -1e308, 1e308],
        ]
        pool = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, inf, -inf, nan,
                5e-324, 1e16, 2.0**-53]
        for _ in range(2_000):
            picks = rng.integers(0, len(pool), size=int(rng.integers(0, 7)))
            cases.append([pool[k] for k in picks])
        for case in cases:
            want = _fsum_outcome(math.fsum, case)
            assert _fsum_outcome(lambda v: _c_fsum(c, v), case) == want, case


# ----------------------------------------------------------------------
# Regressions: finite ingest, non-finite margins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
class TestNonFiniteRegressions:
    def test_overflowing_margins_leave_state_finite(self, backend):
        model = WMSketch(64, 3, heap_capacity=4, backend=backend)
        with np.errstate(over="ignore"):
            margins = model.fit_batch(SparseBatch(
                [0, 2, 4, 6], [1, 2, 1, 2, 1, 2], [1e300] * 6, [1, -1, 1]
            ))
        assert margins.tobytes() == np.array([0.0, np.inf, -np.inf]).tobytes()
        assert np.isfinite(model.table).all()
        weights = [w for _, w in model.top_weights(2)]
        assert len(weights) == 2 and np.isfinite(weights).all()

    def test_all_negative_zero_row_predicts_positive_zero(self, backend):
        # Every product is a signed zero; the exact sum is +0.0.
        kb = kernels.get_backend(backend)
        out = np.full(2, -7.0)
        kb.fused_predict(
            BatchHasher(HashFamily(8, 1), backend=kb), np.full(8, -0.0),
            None, None, np.array([1, 2, 3], dtype=np.int64),
            np.array([-1.0, -2.0, -0.5]),
            np.array([0, 3, 3], dtype=np.int64), 1.0, 1.0,
            kernels.KernelWorkspace(), out,
        )
        assert out.tobytes() == np.zeros(2).tobytes()


# ----------------------------------------------------------------------
# Malformed CSR offsets and a short touched stream: both fused kernels,
# on every backend, raise the same ValueError before writing anything
# ----------------------------------------------------------------------
def _two_example_args(indptr, touched=5):
    rng = np.random.default_rng(3)
    return dict(
        table_flat=rng.standard_normal(8),
        flat_buckets=np.array([[1, 2, 3, 4]], dtype=np.int64),
        sign_values=rng.standard_normal((1, 4)),
        indptr=np.array(indptr, dtype=np.int64),
        labels=np.array([1, -1], dtype=np.int64),
        etas=np.full(2, 0.1), lam=1e-3, state=np.array([1.0, -1.0]),
        sqrt_s=1.0, loss_id=0, loss_param=0.0,
        margins_out=np.full(2, -7.0),
        gathered_out=np.full((4, 1), -7.0),
        scales_out=np.full(2, -7.0),
        touched_out=np.full(touched, -7, dtype=np.int64),
    )


def _assert_update_raises_unwritten(kb, args, message):
    before = {k: v.copy() for k, v in args.items()
              if isinstance(v, np.ndarray)}
    with pytest.raises(ValueError, match=re.escape(message)):
        kb.fused_update(**args)
    for key, value in before.items():
        assert args[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
@pytest.mark.parametrize("indptr, entry", [
    ([0, 3, 1], 2),    # decreasing
    ([-1, 2, 3], 0),   # negative start
    ([5, 5, 5], 0),    # start past nnz
    ([0, 2, 5], 2),    # end past nnz
])
class TestMalformedIndptr:
    def test_fused_update_raises_before_writing(self, backend, indptr,
                                                entry):
        _assert_update_raises_unwritten(
            kernels.get_backend(backend), _two_example_args(indptr),
            f"indptr must be non-decreasing within [0, nnz] "
            f"(bad entry {entry} of 3)",
        )

    def test_fused_predict_raises_before_writing(self, backend, indptr,
                                                 entry):
        kb = kernels.get_backend(backend)
        args = _two_example_args(indptr)
        hasher = BatchHasher(HashFamily(8, 1), backend=kb)
        out = np.full(2, -7.0)
        with pytest.raises(ValueError, match=re.escape(
            f"(bad entry {entry} of 3)"
        )):
            kb.fused_predict(hasher, args["table_flat"], None, None,
                             np.array([1, 2, 3, 4], dtype=np.int64),
                             args["sign_values"][0], args["indptr"], 1.0,
                             1.0, kernels.KernelWorkspace(), out)
        assert np.all(out == -7.0)
        # Nothing was hashed: the numpy body checks indptr first.
        assert hasher.hits == hasher.misses == 0


@pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
@pytest.mark.parametrize("override, message", [
    # Two examples over all four columns need 1 + 1 * 4 touched slots,
    # four recorded rows and two scales.
    ({"touched_out": np.full(n, -7, dtype=np.int64)},
     "touched_out must hold at least 1 + depth * nnz slots")
    for n in (0, 1, 4)
] + [
    ({"gathered_out": np.full((3, 1), -7.0)},
     "gathered_out / scales_out are too short for the batch"),
    ({"scales_out": np.full(1, -7.0)},
     "gathered_out / scales_out are too short for the batch"),
], ids=["touched0", "touched1", "touched4", "gathered3", "scales1"])
def test_short_recording_buffer_raises_before_writing(backend, override,
                                                      message):
    _assert_update_raises_unwritten(
        kernels.get_backend(backend),
        {**_two_example_args([0, 2, 4]), **override}, message,
    )


# ----------------------------------------------------------------------
# Hypothesis property: c == numpy bit for bit on the compiled kernels
# ----------------------------------------------------------------------
#: Finite values of both signs up to 1e300, mixed with small exact ones
#: so margins land exactly on the loss-derivative boundaries.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)


@st.composite
def _fused_inputs(draw):
    depth = draw(st.integers(1, 4))
    width = draw(st.integers(1, 16))  # small: buckets repeat
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    indptr = draw(st.integers(0, 3)) + np.concatenate(
        [[0], np.cumsum(counts)]
    ).astype(np.int64)
    ncols = int(indptr[-1]) + draw(st.integers(0, 2))
    cells = depth * ncols
    rows = draw(st.lists(st.integers(0, width - 1), min_size=cells,
                         max_size=cells))
    fb = (np.array(rows, dtype=np.int64).reshape(depth, ncols)
          + width * np.arange(depth, dtype=np.int64)[:, None])
    sv = np.array(draw(st.lists(_VALUES, min_size=cells, max_size=cells)),
                  dtype=np.float64).reshape(depth, ncols)
    table = np.array(draw(st.lists(_VALUES, min_size=depth * width,
                                   max_size=depth * width)))
    return dict(
        table_flat=table, flat_buckets=fb, sign_values=sv, indptr=indptr,
        labels=np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                      max_size=n)), dtype=np.int64),
        etas=np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=n,
                                    max_size=n))),
        lam=draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.9))),
        # Starting scales just above the renorm threshold make the
        # folds land mid-batch.
        scale=draw(st.one_of(
            st.just(1.0),
            st.floats(1e-150, 1.5e-150, exclude_min=True),
        )),
        sqrt_s=math.sqrt(depth),
        loss_id=draw(st.integers(0, 3)),
        loss_param=draw(st.one_of(st.sampled_from([0.5, 1.0]),
                                  st.floats(0.1, 2.0))),
        record=draw(st.booleans()),
    )


def _buffers(inputs):
    args = {k: v for k, v in inputs.items()
            if k not in ("record", "scale")}
    args["state"] = np.array([inputs["scale"], -1.0])
    depth, ncols = args["flat_buckets"].shape
    n = args["labels"].size
    touched = 1 + depth * int(args["indptr"][-1] - args["indptr"][0])
    args.update(
        margins_out=np.full(n, -7.0),
        gathered_out=(np.full((ncols, depth), -7.0) if inputs["record"]
                      else kernels.EMPTY_GATHER),
        scales_out=(np.full(n, -7.0) if inputs["record"]
                    else kernels.EMPTY_SCALES),
        touched_out=np.full(touched, -7, dtype=np.int64),
    )
    return args


#: Read-kernel cells: few magnitudes (median ties), both zeros, both
#: infinities (inf - inf in a sum or a median), 1e300 (fsum overflow)
#: and one NaN bit pattern.
_READ_CELLS = (0.0, -0.0, 0.5, -1.0, 2.0, math.inf, -math.inf, 1e300,
               -1e300, math.nan)
#: Read keys: a small range (repeats, members), negatives and the int64
#: extremes (negative keys hash as their uint64 two's complement).
_READ_KEYS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([-(2**63), 2**63 - 1, -1234567890123, 2**40 + 3]),
)


@st.composite
def _read_inputs(draw):
    """One fused_query / fused_predict call: a hash family (either kind,
    depth 1-4, widths including a non-power of two over several chunks),
    a dense table and its chunk-pooled equivalent, an optional active
    set (live, with a scale, or a snapshot view; up to 130 slots across
    three 64-slot blocks), keys and CSR rows (empty ones included)."""
    depth = draw(st.integers(1, 4))
    width = draw(st.sampled_from([8, 13, 300]))
    family = HashFamily(width, depth, seed=draw(st.integers(0, 3)),
                        kind=draw(st.sampled_from(["tabulation",
                                                   "polynomial"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.lists(st.sampled_from(_READ_CELLS), min_size=1,
                            max_size=4))
    l1 = draw(st.sampled_from([0.0, 0.25]))
    if l1:
        # Signed infinite cells make an even-depth median the default
        # NaN, which the l1 step multiplies by its own abs: two NaN bit
        # patterns, whose pick is unspecified (kernels.api).
        palette = [v for v in palette if not math.isinf(v)] or [2.0]
    palette = np.array(palette)
    size = depth * width
    dense = rng.choice(palette, size=size)
    table, chunk_map = dense, None
    if draw(st.booleans()):
        # A pool with spare rows, the chunks in a shuffled order.
        n_chunks = -(-size // kernels.CHUNK)
        rows = n_chunks + draw(st.integers(0, 3))
        chunk_map = rng.permutation(rows)[:n_chunks].astype(np.int64)
        pool = np.full((rows, kernels.CHUNK), 7.5)
        padded = np.zeros(n_chunks * kernels.CHUNK)
        padded[:size] = dense
        pool[chunk_map] = padded.reshape(n_chunks, kernels.CHUNK)
        table = pool.ravel()
    store = None
    kind = draw(st.sampled_from(["none", "live", "snapshot"]))
    if kind != "none":
        capacity = draw(st.sampled_from([3, 130]))
        store = TopKStore(capacity)
        for key in rng.choice(np.arange(-3, 200), capacity, replace=False):
            store.push(int(key), float(rng.choice(palette)))
        if kind == "live":
            store.decay(0.5)
        else:
            store = store.snapshot_view()
    keys = np.array(draw(st.lists(_READ_KEYS, max_size=14)),
                    dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, keys.size), max_size=4)))
    indptr = np.array([0, *cuts, keys.size], dtype=np.int64)
    values = np.array(draw(st.lists(
        st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0]),
        min_size=keys.size, max_size=keys.size)))
    scale = draw(st.sampled_from([1.0, 0.37, 2.5e-151]))
    return dict(
        family=family, table=table, dense=dense, chunk_map=chunk_map,
        store=store, keys=keys, values=values, indptr=indptr,
        scale=scale, factor=scale if depth == 1 else math.sqrt(depth) * scale,
        sqrt_s=math.sqrt(depth), l1=l1,
    )


def _run_read(kb, op, inputs):
    """One read kernel call: (outcome, out bytes, keys the hasher looked
    up).  The outcome names the exception and its message."""
    hasher = BatchHasher(inputs["family"], backend=kb)
    read = (hasher, inputs["table"], inputs["chunk_map"], inputs["store"])
    ws = kernels.KernelWorkspace()
    if op == "query":
        out = np.full(inputs["keys"].size, -7.0)
    else:
        out = np.full(inputs["indptr"].size - 1, -7.0)
    try:
        with np.errstate(all="ignore"):
            if op == "query":
                kb.fused_query(*read, inputs["keys"], inputs["factor"],
                               inputs["l1"], ws, out)
            else:
                kb.fused_predict(*read, inputs["keys"], inputs["values"],
                                 inputs["indptr"], inputs["scale"],
                                 inputs["sqrt_s"], ws, out)
        outcome = ("ok", None)
    except (ArithmeticError, ValueError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, out.tobytes(), hasher.hits + hasher.misses


class TestCMatchesNumpyProperty:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_fused_inputs())
    def test_fused_update_bit_identical(self, inputs):
        c = _c_or_skip()
        args = _buffers(inputs)
        with np.errstate(all="ignore"):
            want = _run_update(kernels.get_backend("numpy"), args)
        assert _run_update(c, args) == want

    @pytest.mark.parametrize("loss_id", [0, 1, 2, 3])
    def test_loss_derivative_boundaries_bit_identical(self, loss_id):
        # Margins exactly on (and one ulp around) each derivative's
        # branch points: logistic at 0, the hinges at 1 and 1 - gamma.
        c = _c_or_skip()
        for tau in (1.0, 0.5, 0.0, -0.0, -1.0, math.nextafter(1.0, 0.0),
                    math.nextafter(1.0, 2.0), math.nextafter(0.5, 0.0)):
            for label in (1, -1):
                args = dict(
                    table_flat=np.array([tau * label, 3.0]),
                    flat_buckets=np.array([[0, 1]], dtype=np.int64),
                    sign_values=np.array([[1.0, 0.0]]),
                    indptr=np.array([0, 2], dtype=np.int64),
                    labels=np.array([label], dtype=np.int64),
                    etas=np.array([0.5]), lam=0.0,
                    state=np.array([1.0, 0.0]), sqrt_s=1.0,
                    loss_id=loss_id, loss_param=0.5,
                    margins_out=np.full(1, -7.0),
                    gathered_out=kernels.EMPTY_GATHER,
                    scales_out=kernels.EMPTY_SCALES,
                    touched_out=np.full(3, -7, dtype=np.int64),
                )
                want = _run_update(kernels.get_backend("numpy"), args)
                assert _run_update(c, args) == want, (tau, label)

    @settings(max_examples=300, deadline=None)
    @given(inputs=_read_inputs())
    def test_fused_predict_bit_identical(self, inputs):
        c = _c_or_skip()
        want = _run_read(kernels.get_backend("numpy"), "predict", inputs)
        assert _run_read(c, "predict", inputs) == want
        # A chunk-pooled table answers as its dense equivalent.
        dense = dict(inputs, table=inputs["dense"], chunk_map=None)
        assert _run_read(c, "predict", dense)[:2] == want[:2]

    @settings(max_examples=300, deadline=None)
    @given(inputs=_read_inputs())
    def test_fused_query_bit_identical(self, inputs):
        c = _c_or_skip()
        want = _run_read(kernels.get_backend("numpy"), "query", inputs)
        assert _run_read(c, "query", inputs) == want
        dense = dict(inputs, table=inputs["dense"], chunk_map=None)
        assert _run_read(c, "query", dense)[:2] == want[:2]


# ----------------------------------------------------------------------
# heap_maintain: c == numpy == the per-example decision core, from
# stores and recordings with exact ties, +-0 and NaN cells
# ----------------------------------------------------------------------
#: Recorded cells and store values: few magnitudes (so estimates tie the
#: threshold exactly), both zeros, and NaN.  One NaN bit pattern only:
#: which operand's bits an operation on two different NaNs keeps is
#: unspecified (numpy's own pick depends on the array length).
_CELLS = st.sampled_from([0.0, -0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5,
                          math.nan])
#: The NaN x86 arithmetic makes (sign bit set).
_NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]


@st.composite
def _maintain_inputs(draw):
    """A store (capacity 1-4, full or not, built so its cached minimum
    may be warm) and one batch's recording (depths 1-4, keys from at
    most 16 ids, empty examples, repeated keys within an example)."""
    capacity = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 4))
    universe = draw(st.integers(1, 16))
    distinct = draw(st.booleans())
    ids, indptr = [], [0]
    for _ in range(draw(st.integers(1, 8))):
        ids += draw(st.lists(st.integers(0, universe - 1), max_size=4,
                             unique=distinct))
        indptr.append(len(ids))
    nnz, n = len(ids), len(indptr) - 1
    return dict(
        capacity=capacity,
        # (key, value, read the minimum first): pushes into free slots
        # and evictions; a read caches the minimum, which a later free
        # slot push patches instead of rescanning.
        ops=draw(st.lists(
            st.tuples(st.integers(0, universe + 2), _CELLS, st.booleans()),
            max_size=capacity + 3,
        )),
        decay=draw(st.booleans()),
        indices=np.array(ids, dtype=np.int64),
        indptr=np.array(indptr, dtype=np.int64),
        signs=np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                     min_size=depth * nnz,
                                     max_size=depth * nnz)),
                       dtype=np.float64).reshape(depth, nnz),
        gathered=np.array(draw(st.lists(_CELLS, min_size=depth * nnz,
                                        max_size=depth * nnz)),
                          dtype=np.float64).reshape(nnz, depth),
        scales=np.array(draw(st.lists(st.sampled_from([1.0, 0.5, 0.75]),
                                      min_size=n, max_size=n))),
        sqrt_s=math.sqrt(depth),
        l1=draw(st.sampled_from([0.0, 0.01])),
    )


def _maintain_store(inputs):
    store = TopKStore(inputs["capacity"])
    for key, value, read_min in inputs["ops"]:
        if read_min and len(store):
            store.min_priority()
        store.push(key, value)
    if inputs["decay"]:
        store.decay(0.5)
    store.enable_promo_log()
    return store


def _maintain_args(inputs):
    return {k: inputs[k] for k in ("indices", "indptr", "signs", "gathered",
                                   "scales", "sqrt_s", "l1")}


def _store_state(store):
    """Everything a later operation can observe: slot order and raw
    bits, the key -> slot map, version, promotion log, and the entry
    the (possibly cached) minimum names."""
    n = len(store)
    state = (store._keys[:n].tobytes(), store._raw[:n].tobytes(),
             np.float64(store.scale).tobytes(), dict(store._pos),
             store.version, store.drain_promo_log())
    if not n:
        return state
    key, value = store.min_entry()
    return state + (key, np.float64(value).tobytes())


def _spec_heap_maintain(store, inputs):
    """Per-example ``update()``'s maintain: each example's estimates
    through ``median_estimate`` (factor = the recorded scale, times
    ``sqrt_s`` at depth > 1) and the soft threshold, then the decision
    core with live membership."""
    indices, bounds = inputs["indices"], inputs["indptr"].tolist()
    signs, gathered, l1 = inputs["signs"], inputs["gathered"], inputs["l1"]
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if hi == lo:
            continue
        factor = inputs["scales"][i]
        if signs.shape[0] > 1:
            factor = inputs["sqrt_s"] * factor
        est = numpy_backend.median_estimate(
            gathered[lo:hi], signs[:, lo:hi].T, factor
        )
        if l1 > 0.0:
            est = np.sign(est) * np.maximum(np.abs(est) - l1, 0.0)
        numpy_backend.maintain_decide(
            store, indices[lo:hi], store.member_slots(indices[lo:hi]),
            lambda: math.inf, lambda: est, None,
        )


class TestHeapMaintainProperty:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_maintain_inputs())
    def test_c_matches_numpy(self, inputs):
        c = _c_or_skip()
        states = []
        for kb in (kernels.get_backend("numpy"), c):
            store = _maintain_store(inputs)
            with np.errstate(all="ignore"):
                kb.heap_maintain(store, **_maintain_args(inputs),
                                 ws=kernels.KernelWorkspace())
            states.append(_store_state(store))
        assert states[0] == states[1]

    @settings(max_examples=300, deadline=None)
    @given(inputs=_maintain_inputs())
    def test_numpy_matches_the_decision_core(self, inputs):
        # The screen only skips examples that cannot admit, NaN
        # estimates and minimums included.
        replay, spec = _maintain_store(inputs), _maintain_store(inputs)
        with np.errstate(all="ignore"):
            numpy_backend.heap_maintain(replay, **_maintain_args(inputs),
                                        ws=kernels.KernelWorkspace())
            _spec_heap_maintain(spec, inputs)
        assert _store_state(replay) == _store_state(spec)

    @pytest.mark.parametrize("start, refreshed, candidate, admitted", [
        # The only member goes NaN, then back to 1.0; the non-member's
        # 5.0 beats the restored threshold.
        ([(7, 1.0)], 1.0, 5.0, [(9, 5.0)]),
        # The minimum (7 at 1.0) goes NaN, then to 4.0; the non-member's
        # 3.5 beats the untouched 3.0 entry the run started above.
        ([(7, 1.0), (8, 3.0)], 4.0, 3.5, [(7, 4.0), (9, 3.5)]),
    ])
    def test_screen_survives_a_nan_refresh(self, start, refreshed, candidate,
                                           admitted):
        # A NaN refresh used to poison the screen's running minimum (and
        # drop the run's starting minimum), screening the admission out.
        inputs = dict(
            capacity=len(start), ops=[(k, v, False) for k, v in start],
            decay=False,
            indices=np.array([7, 7, 9], dtype=np.int64),
            indptr=np.array([0, 1, 3], dtype=np.int64),
            signs=np.ones((1, 3)),
            gathered=np.array([[math.nan], [refreshed], [candidate]]),
            scales=np.ones(2), sqrt_s=1.0, l1=0.0,
        )
        for name in kernels.available_backends():
            store = _maintain_store(inputs)
            kernels.get_backend(name).heap_maintain(
                store, **_maintain_args(inputs), ws=kernels.KernelWorkspace()
            )
            assert sorted(store.items()) == admitted, name
            assert store.drain_promo_log() == [9]

    def test_repeated_key_updates_in_place_and_patches_the_minimum(self):
        # Key 4 is admitted, then its second position updates it in place
        # below the cached minimum (key 2's 3.0, read by key 5's
        # rejection), so key 6's 2.8 beats it and evicts it.
        inputs = dict(
            capacity=3, ops=[(1, 2.0, False), (2, 3.0, False),
                             (3, 10.0, False)],
            decay=False,
            indices=np.array([4, 5, 4, 6], dtype=np.int64),
            indptr=np.array([0, 4], dtype=np.int64),
            signs=np.ones((1, 4)),
            gathered=np.array([[5.0], [2.5], [2.6], [2.8]]),
            scales=np.ones(1), sqrt_s=1.0, l1=0.0,
        )
        for name in kernels.available_backends():
            store = _maintain_store(inputs)
            kernels.get_backend(name).heap_maintain(
                store, **_maintain_args(inputs), ws=kernels.KernelWorkspace()
            )
            assert store.items() == [(6, 2.8), (2, 3.0), (3, 10.0)], name
            assert store.drain_promo_log() == [4, 6]
            assert store.version == 5

    def test_member_refresh_bits_exhaustive(self):
        # Every depth-1..4 row over {-0, +0, -1, 1, NaN}: a member's
        # refreshed raw bits carry the median's tie order and zero sign.
        c = _c_or_skip()
        pool = [-0.0, 0.0, -1.0, 1.0, math.nan]
        for depth in (1, 2, 3, 4):
            cells = np.array(list(itertools.product(pool, repeat=depth)))
            for l1 in (0.0, 0.01):
                got = []
                for kb in (kernels.get_backend("numpy"), c):
                    raws = []
                    for row in cells:
                        store = TopKStore(1)
                        store.push(7, 3.0)
                        kb.heap_maintain(
                            store, np.array([7], dtype=np.int64),
                            np.array([0, 1], dtype=np.int64),
                            np.ones((depth, 1)), row.reshape(1, depth),
                            np.ones(1), math.sqrt(depth), l1,
                            kernels.KernelWorkspace(),
                        )
                        raws.append(store._raw[0])
                    got.append(np.array(raws).tobytes())
                assert got[0] == got[1], (depth, l1)

    def test_median_row_sort_is_stable(self):
        # +-0 ties keep their row order and NaN keeps its bits, on every
        # host: the compiled median reproduces exactly this.  (The
        # default sort rewrites the NaN below on AVX-512 hosts.)
        rows = np.array([[0.0, -0.0, -0.0, 1.0, 2.0],
                         [_NEG_NAN, _NEG_NAN, 1.0, -0.0, 0.0],
                         [-0.0, -0.0, 0.0, -1.0, -0.0]])
        for depth in (3, 4, 5):
            got = numpy_backend.median_estimate(
                rows[:, :depth], np.ones((3, depth)), 1.0
            )
            want = []
            for row in rows[:, :depth].tolist():
                row = sorted(row, key=lambda v: (v != v, 0.0 if v != v else v))
                mid = depth // 2
                want.append(row[mid] if depth % 2
                            else 1.0 * (0.5 * (row[mid - 1] + row[mid])))
            assert got.tobytes() == np.array(want).tobytes(), depth

    def test_wrapper_rejects_bad_arguments_before_writing(self):
        c = _c_or_skip()
        base = dict(
            capacity=2, ops=[(1, 1.0, False), (2, -2.0, False)],
            decay=False,
            indices=np.array([1, 3, 4], dtype=np.int64),
            indptr=np.array([0, 1, 3], dtype=np.int64),
            signs=np.ones((2, 3)), gathered=np.full((3, 2), 5.0),
            scales=np.ones(2), sqrt_s=math.sqrt(2.0), l1=0.0,
        )
        bad_cases = [
            (TypeError, {"indices": base["indices"].astype(np.int32)}),
            (TypeError, {"scales": np.ones(2, dtype=np.float32)}),
            (ValueError, {"gathered": np.full((3, 3), 5.0)}),
            (ValueError, {"signs": np.ones((2, 2))}),
            (ValueError, {"scales": np.ones(1)}),
            (ValueError, {"indptr": np.array([0, 3, 1], dtype=np.int64)}),
            (ValueError, {"indptr": np.array([0, 1, 4], dtype=np.int64)}),
        ]
        for exc_type, override in bad_cases:
            # A full store (C checks) and one with a free slot (the
            # decision core runs in Python first).
            for capacity in (2, 3):
                inputs = {**base, "capacity": capacity, **override}
                store = _maintain_store(inputs)
                before = _store_state(store)
                with pytest.raises(exc_type):
                    c.heap_maintain(store, **_maintain_args(inputs),
                                    ws=kernels.KernelWorkspace())
                assert _store_state(store) == before, override.keys()
        # A store ordered by anything but abs, or with repeated keys.
        from repro.heap.topk import identity

        store = TopKStore(2, priority=identity)
        store.push(1, 1.0)
        store.push(2, 2.0)
        with pytest.raises(ValueError, match="ordered by abs"):
            c.heap_maintain(store, **_maintain_args(base),
                            ws=kernels.KernelWorkspace())
        store = _maintain_store(base)
        store._keys[1] = 1
        raw = store._raw.copy()
        with pytest.raises(ValueError, match="not distinct"):
            c.heap_maintain(store, **_maintain_args(base),
                            ws=kernels.KernelWorkspace())
        assert store._raw.tobytes() == raw.tobytes()


# ----------------------------------------------------------------------
# awm_update: c == numpy bit for bit at the kernel level (ties at the
# admission threshold, evictees that are members of the same example,
# +-0 / NaN / 1e300 cells, folds of both scales, l1, every depth and
# loss, fsum errors mid-batch), and c == numpy == per-example update()
# over a bounded-exhaustive grid of small models and batches
# ----------------------------------------------------------------------
#: Table cells and store values: few magnitudes (exact ties), both
#: zeros, the NaN x86 arithmetic makes (the one NaN pattern, as above),
#: and 1e300 / 1e308 products that overflow an exact sum.
_AWM_CELLS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0, 2.0, -2.0, 0.5,
                              _NEG_NAN, 1e300, -1e308, 1e308])
_AWM_VALUES = st.sampled_from([1.0, 1.0, -1.0, 0.5, 2.0, 1e300])
_BRINK = 1.5e-150  # a scale that folds within a step or two


@st.composite
def _awm_inputs(draw):
    """One awm_update call: a full store (capacity 1-4, keys from a
    small alphabet, possibly decayed to the renorm brink and with a
    warm cached minimum), a fixed (bucket, sign) row per key shared by
    the batch and the store, and a batch of up to 6 examples (empty
    ones included) whose keys overlap the store's."""
    depth = draw(st.integers(1, 4))
    width = draw(st.sampled_from([2, 5, 16, 100]))
    capacity = draw(st.integers(1, 4))
    universe = capacity + draw(st.integers(0, 5))
    rows = draw(st.lists(
        st.tuples(st.integers(0, width - 1), st.sampled_from([-1.0, 1.0])),
        min_size=universe * depth, max_size=universe * depth,
    ))
    bucket = np.array([r[0] for r in rows], dtype=np.int64).reshape(
        universe, depth) + np.arange(depth) * width
    sign = np.array([r[1] for r in rows]).reshape(universe, depth)
    store_keys = draw(st.permutations(range(universe)))[:capacity]
    examples = []
    for _ in range(draw(st.integers(1, 6))):
        keys = draw(st.lists(st.integers(0, universe - 1), max_size=4,
                             unique=True))
        vals = draw(st.lists(_AWM_VALUES, min_size=len(keys),
                             max_size=len(keys)))
        examples.append(SparseExample(np.array(keys, dtype=np.int64),
                                      np.array(vals, dtype=np.float64),
                                      draw(st.sampled_from([1, -1]))))
    n = len(examples)
    return dict(
        depth=depth, width=width, capacity=capacity,
        store_keys=store_keys, bucket=bucket, sign=sign,
        raw=draw(st.lists(_AWM_CELLS, min_size=capacity,
                          max_size=capacity)),
        read_min=draw(st.booleans()),
        hscale=draw(st.sampled_from([1.0, 0.5, _BRINK])),
        table=np.array(draw(st.lists(_AWM_CELLS, min_size=depth * width,
                                     max_size=depth * width))),
        batch=SparseBatch.from_examples(examples),
        start=draw(st.integers(0, n)),
        etas=np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=n,
                                    max_size=n))),
        lam=draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.9))),
        scale=draw(st.sampled_from([1.0, 0.25, _BRINK])),
        fold_log=draw(st.sampled_from([0.0, -3.5])),
        l1=draw(st.sampled_from([0.0, 0.01])),
        loss_id=draw(st.integers(0, 3)),
        loss_param=draw(st.sampled_from([0.5, 1.0])),
    )


def _awm_store(inputs):
    store = TopKStore(inputs["capacity"])
    for key, value in zip(inputs["store_keys"], inputs["raw"]):
        store.push(key, value)
    if inputs["read_min"]:
        store.min_priority()
    if inputs["hscale"] != 1.0:
        store.decay(inputs["hscale"])
    store.enable_promo_log()
    return store


def _bits(values):
    """The bytes of a float array with every NaN written as one pattern.
    Both signs of NaN arise here (``-step`` negates a NaN step), and
    which NaN an operation on two different ones keeps is unspecified
    (see kernels.api); every other value is compared bit for bit."""
    values = np.array(values, dtype=np.float64)
    values[np.isnan(values)] = math.nan
    return values.tobytes()


def _awm_store_state(store):
    n = len(store)
    state = (store._keys[:n].tobytes(), _bits(store._raw[:n]),
             store.scale, dict(store._pos), store.version,
             store.drain_promo_log())
    key, value = store.min_entry()
    return state + (key, _bits([value]))


def _awm_call(kb, inputs):
    """Run ``awm_update`` on fresh copies of everything it writes;
    returns the outcome and every piece of state it can change."""
    batch, depth = inputs["batch"], inputs["depth"]
    store = _awm_store(inputs)
    idx = batch.indices
    flat = np.ascontiguousarray(inputs["bucket"][idx].T)
    signs = np.ascontiguousarray(inputs["sign"][idx].T)
    sv = signs * batch.values
    keys = np.array(inputs["store_keys"], dtype=np.int64)
    key_flat = np.ascontiguousarray(inputs["bucket"][keys].T)
    key_signs = np.ascontiguousarray(inputs["sign"][keys].T)
    table = inputs["table"].copy()
    state = np.array([inputs["scale"], inputs["fold_log"]])
    progress = np.zeros(2, dtype=np.int64)
    margins = np.full(len(batch), -7.0)
    dirty = np.zeros((table.size + CHUNK - 1) // CHUNK, dtype=bool)
    try:
        with np.errstate(all="ignore"):
            kb.awm_update(
                store, batch, inputs["start"], inputs["etas"], flat, signs,
                sv, key_flat, key_signs, table, inputs["lam"],
                math.sqrt(depth), inputs["l1"], inputs["loss_id"],
                inputs["loss_param"], state, progress, margins, dirty,
                kernels.KernelWorkspace(),
            )
        outcome = "ok"
    except Exception as exc:  # noqa: BLE001 - compared across backends
        outcome = (type(exc).__name__, str(exc))
    return store, (outcome, _bits(table), _bits(state), progress.tolist(),
                   _bits(margins), dirty.tobytes(), key_flat.tobytes(),
                   key_signs.tobytes(), _awm_store_state(store))


class TestAwmUpdateProperty:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_awm_inputs())
    def test_awm_c_matches_numpy(self, inputs):
        c = _c_or_skip()
        _, want = _awm_call(kernels.get_backend("numpy"), inputs)
        store, got = _awm_call(c, inputs)
        assert got == want
        store.check_invariants()

    @pytest.mark.parametrize("error", ["overflow", "inf_minus_inf"])
    def test_awm_fsum_error_mid_batch_leaves_equal_partial_state(
        self, error
    ):
        # Example 0 promotes (key 3 evicts key 1, the minimum); example 1
        # sums two finite 1e308 products (intermediate overflow) or
        # 1e300 * 1e300 with both signs (inf - inf); example 2 never
        # runs.  Both bodies stop at example 1 with example 0 applied.
        if error == "overflow":
            table, vals = [1e308, 1e308, 0.5, 0.25], [1.0, 1.0]
        else:
            table, vals = [1e300, -1e300, 0.5, 0.25], [1e300, 1e300]
        examples = [
            SparseExample(np.array([3], dtype=np.int64), np.array([4.0]), 1),
            SparseExample(np.array([4, 5], dtype=np.int64),
                          np.array(vals), 1),
            SparseExample(np.array([2], dtype=np.int64), np.array([1.0]), -1),
        ]
        inputs = dict(
            depth=1, width=4, capacity=2, store_keys=[1, 2],
            bucket=np.array([[2], [2], [2], [2], [0], [1]], dtype=np.int64),
            sign=np.ones((6, 1)), raw=[0.5, 2.0], read_min=False,
            hscale=1.0, table=np.array(table),
            batch=SparseBatch.from_examples(examples), start=0,
            etas=np.full(3, 0.5), lam=0.01, scale=1.0, fold_log=0.0,
            l1=0.0, loss_id=0, loss_param=0.5,
        )
        results = []
        for name in kernels.available_backends():
            store, result = _awm_call(kernels.get_backend(name), inputs)
            store.check_invariants()
            outcome, _, _, progress, *_ = result
            assert outcome[0] == {"overflow": "OverflowError",
                                  "inf_minus_inf": "ValueError"}[error]
            assert progress == [1, 1], name
            assert dict(store._pos) == {3: 0, 2: 1}, name
            results.append(result)
        assert all(r == results[0] for r in results)

    def test_awm_wrapper_rejects_bad_arguments_before_writing(self):
        c = _c_or_skip()
        base = dict(
            depth=2, width=4, capacity=2, store_keys=[1, 2],
            bucket=np.array([[0, 4], [1, 5], [2, 6], [3, 7]],
                            dtype=np.int64),
            sign=np.ones((4, 2)), raw=[0.5, 2.0], read_min=False,
            hscale=1.0, table=np.ones(8),
            batch=SparseBatch.from_examples([SparseExample(
                np.array([0, 3], dtype=np.int64), np.array([9.0, 1.0]), 1
            )]),
            start=0, etas=np.full(1, 0.5), lam=0.0, scale=1.0,
            fold_log=0.0, l1=0.0, loss_id=0, loss_param=0.5,
        )
        untouched = _awm_call(kernels.get_backend("numpy"),
                              {**base, "start": 1})[1]
        bad_cases = [
            ("IndexError", {"bucket": base["bucket"] + 8}),
            ("ValueError", {"start": 2}),
            ("ValueError", {"loss_id": 4}),
            ("ValueError", {"loss_id": 1, "loss_param": 0.0}),
            ("ValueError", {"capacity": 3}),
        ]
        for name, override in bad_cases:
            inputs = {**base, **override}
            for kb in (c, kernels.get_backend("numpy")):
                _, result = _awm_call(kb, inputs)
                assert result[0][0] == name, (kb.name, override.keys())
                # Table, scales, progress, margins, dirty marks, store.
                assert (result[1:6] + result[8:]
                        == untouched[1:6] + untouched[8:]), override.keys()


def _grid_examples():
    """Every example over keys {0, 1, 2, 3} with nnz <= 4 (values +-1,
    so estimates tie the admission threshold), labelled by parity."""
    out = []
    for nnz in range(5):
        for keys in itertools.combinations(range(4), nnz):
            vals = [(-1.0) ** k for k in keys]
            out.append(SparseExample(np.array(keys, dtype=np.int64),
                                     np.array(vals, dtype=np.float64),
                                     1 if nnz % 2 else -1))
    return out


def _grid_model(width, depth, capacity, backend, regime):
    model = AWMSketch(width, depth, heap_capacity=capacity, seed=5,
                      lambda_=0.0 if regime == "ties" else 0.05,
                      backend=backend)
    # Fill the store with keys outside the alphabet, so the batches
    # meet a full store whose entries they can evict.  |0.05| is the
    # first step's candidate exactly (eta = 0.1, dloss(0) = -0.5): a
    # tie, which rejects.
    for key in range(capacity):
        model.heap.push(100 + key, 0.05 * (-1.0) ** key)
    if regime == "renorm":
        # Both scales fold at the batch's second step.
        brink = 1e-150 * 1.0000001 / model._decay_factor(model.schedule(0))
        model._scale = brink
        model.heap.decay(brink)
    return model


def _grid_copy(template):
    """A fresh copy of ``template``'s state that shares its hash memo
    (a pure cache), so the grid does not allocate one per batch."""
    model = object.__new__(type(template))
    model.__dict__.update(template.__dict__)
    model.table = template.table.copy()
    model._table_flat = model.table.ravel()
    model._dirty = template._dirty.copy()
    model.heap = pickle.loads(pickle.dumps(template.heap))
    return model


def _grid_state(model, margins):
    heap = model.heap
    n = len(heap)
    return (model.table.tobytes(), model._scale, model._fold_log,
            heap._keys[:n].tobytes(), heap._raw[:n].tobytes(), heap.scale,
            heap.version, model.n_promotions, model.t,
            np.asarray(margins, dtype=np.float64).tobytes())


class TestAwmUpdateGrid:
    @pytest.mark.parametrize("regime", ["ties", "renorm"])
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("width", [2, 16])
    def test_awm_grid_c_numpy_and_update_agree(self, width, depth,
                                               capacity, regime):
        # Every batch of one or two grid examples, and every batch of
        # four drawn from three of them, through fit_batch on each
        # backend and through per-example update().
        examples = _grid_examples()
        few = [examples[0], examples[7], examples[15]]
        batches = [[a] for a in examples]
        batches += [[a, b] for a in examples for b in examples]
        batches += [list(q) for q in itertools.product(few, repeat=4)]
        templates = [_grid_model(width, depth, capacity, name, regime)
                     for name in kernels.available_backends()]
        promoted = 0
        for batch in batches:
            states = []
            for template in templates:
                model = _grid_copy(template)
                margins = model.fit_batch(SparseBatch.from_examples(batch))
                model.heap.check_invariants()
                states.append(_grid_state(model, margins))
            spec = _grid_copy(templates[0])
            margins = []
            for ex in batch:
                # update()'s dispatch, keeping the margin it computes.
                if ex.nnz == 1:
                    margins.append(spec._update_one(
                        int(ex.indices[0]), float(ex.values[0]), ex.label
                    ))
                else:
                    margins.append(spec._update_example(
                        ex.indices, ex.values, ex.label
                    ))
            states.append(_grid_state(spec, margins))
            assert all(s == states[0] for s in states), batch
            promoted += states[0][7] > 0
        assert promoted > 0


# ----------------------------------------------------------------------
# Both store kernels on stores that span several 64-slot blocks: the
# compiled bodies rebuild a stale minimum from per-block minima, so the
# minimum, |raw| ties, +-0 and NaN sit in different blocks here
# ----------------------------------------------------------------------
#: Store sizes around and across the compiled kernels' 64-slot blocks.
_BLOCK_CAPACITIES = [63, 64, 65, 130, 200]
_PLACEMENTS = ["minimum", "ties", "zeros", "nan", "nans", "pool"]


def _spots(capacity):
    """Slots on both sides of every block boundary, and the last slot."""
    return sorted({min(s, capacity - 1)
                   for s in (5, 63, 64, 127, 128, capacity - 1)})


def _placed_values(capacity, placement, rng):
    """Store values of magnitude >= 1, except where ``placement`` puts
    its special values, one per spot (see :func:`_spots`): the only
    minimum in the last block, minima tied in |raw| with both signs,
    -0.0 / +0.0, NaN after a smaller value, NaNs after a zero, or a
    small pool where everything ties."""
    values = rng.choice([1.0, -1.5, 2.0, -3.0, 4.0], size=capacity)
    spots = _spots(capacity)
    if placement == "minimum":
        values[spots[-1]] = 0.5
    elif placement == "ties":
        values[spots] = [(-0.5, 0.5)[i % 2] for i in range(len(spots))]
    elif placement == "zeros":
        values[spots] = [(-0.0, 0.0)[i % 2] for i in range(len(spots))]
    elif placement == "nan":
        values[spots[0]] = 0.5
        values[spots[-1]] = math.nan
    elif placement == "nans":
        values[spots[0]] = 0.0
        values[spots[1:]] = math.nan
    else:
        values = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], size=capacity)
    return values.tolist()


def _block_examples(rng, capacity, fresh, n=10):
    """(keys, values, label) per example: members at the spots (whose
    writes stale their blocks' minima) and elsewhere, and keys from a
    pool of ``fresh`` ones past the store's, which recur once
    admitted."""
    spots, out = _spots(capacity), []
    for _ in range(n):
        keys = set(rng.choice(spots, size=rng.integers(0, 3)).tolist())
        keys |= set(rng.integers(0, capacity, size=rng.integers(0, 3))
                    .tolist())
        keys |= set((capacity + rng.integers(0, fresh, size=4)).tolist())
        keys = rng.permutation(sorted(keys)).tolist()
        values = rng.choice([1.0, -1.0, 0.5, 2.0], size=len(keys)).tolist()
        out.append((keys, values, int(rng.choice([1, -1]))))
    return out


def _block_maintain_inputs(capacity, placement, seed):
    """A full heap_maintain store (store key s in slot s; seed 1 with a
    warm cached minimum, seed 2 decayed) and one batch's recording."""
    rng = np.random.default_rng([capacity, seed])
    values = _placed_values(capacity, placement, rng)
    examples = _block_examples(rng, capacity, fresh=12)
    ids = np.array([k for keys, _, _ in examples for k in keys],
                   dtype=np.int64)
    depth = (1, 3, 2)[seed]
    return dict(
        capacity=capacity,
        ops=[(s, v, seed == 1 and s == capacity - 1)
             for s, v in enumerate(values)],
        decay=seed == 2, indices=ids,
        indptr=np.cumsum([0] + [len(e[0]) for e in examples]),
        signs=rng.choice([-1.0, 1.0], size=(depth, ids.size)),
        gathered=rng.choice(
            [0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 3.0, math.nan],
            p=[0.1, 0.1, 0.1, 0.1, 0.15, 0.15, 0.1, 0.15, 0.05],
            size=(ids.size, depth),
        ),
        scales=rng.choice([1.0, 0.5], size=len(examples)),
        sqrt_s=math.sqrt(depth), l1=(0.0, 0.01)[seed % 2],
    )


def _block_awm_inputs(capacity, placement, seed):
    """An awm_update call on a full store (key s in slot s; seed 1 with
    a warm cached minimum).  Seed 2 starts both scales near the renorm
    threshold, so the store's raw values (and the table) are rescaled
    at example 4, after its minima have been rebuilt."""
    rng = np.random.default_rng([capacity, seed, 1])
    depth, width, fresh = (1, 2, 3)[seed], 32, 16
    brink = 1e-150 / 0.9 ** 4 * 1.01 if seed == 2 else 1.0
    examples = _block_examples(rng, capacity, fresh)
    batch = SparseBatch.from_examples([
        SparseExample(np.array(k, dtype=np.int64),
                      np.array(v, dtype=np.float64), y)
        for k, v, y in examples
    ])
    table = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0],
                       size=depth * width)
    return dict(
        depth=depth, width=width, capacity=capacity,
        store_keys=list(range(capacity)),
        bucket=rng.integers(0, width, size=(capacity + fresh, depth))
        + np.arange(depth) * width,
        sign=rng.choice([-1.0, 1.0], size=(capacity + fresh, depth)),
        raw=[v / brink for v in _placed_values(capacity, placement, rng)],
        read_min=seed == 1, hscale=brink, table=table / brink,
        batch=batch, start=0, etas=np.full(len(batch), 0.5),
        lam=(0.0, 0.01, 0.2)[seed], scale=brink, fold_log=0.0,
        l1=(0.0, 0.01)[seed % 2], loss_id=seed, loss_param=0.5,
    )


class TestMultiBlockStoreKernels:
    @pytest.mark.parametrize("placement", _PLACEMENTS)
    @pytest.mark.parametrize("capacity", _BLOCK_CAPACITIES)
    def test_heap_maintain_multi_block_c_matches_numpy(self, capacity,
                                                       placement):
        c = _c_or_skip()
        admitted = 0
        for seed in range(3):
            inputs = _block_maintain_inputs(capacity, placement, seed)
            states = []
            for kb in (kernels.get_backend("numpy"), c):
                store = _maintain_store(inputs)
                with np.errstate(all="ignore"):
                    kb.heap_maintain(store, **_maintain_args(inputs),
                                     ws=kernels.KernelWorkspace())
                store.check_invariants()
                states.append(_store_state(store))
            assert states[0] == states[1], seed
            admitted += len(states[0][5])
        # A NaN minimum admits nothing until a refresh replaces it.
        assert admitted > 0 or placement.startswith("nan")

    @pytest.mark.parametrize("placement", _PLACEMENTS)
    @pytest.mark.parametrize("capacity", _BLOCK_CAPACITIES)
    def test_awm_multi_block_c_matches_numpy(self, capacity, placement):
        c = _c_or_skip()
        promoted = 0
        for seed in range(3):
            inputs = _block_awm_inputs(capacity, placement, seed)
            want_store, want = _awm_call(kernels.get_backend("numpy"),
                                         inputs)
            got_store, got = _awm_call(c, inputs)
            # Outcome, table, scales, promotions, margins, dirty marks,
            # the evictee rows, _keys, _raw, version and promotion log.
            assert got == want, seed
            assert want[0] == "ok", want[0]
            if seed == 2:
                assert want_store.scale > 0.1  # folded, then decayed
            want_store.check_invariants()
            got_store.check_invariants()
            promoted += want[3][1]
        # A NaN minimum admits nothing; every other placement promotes.
        assert (promoted == 0) == placement.startswith("nan")

    def test_short_block_buffer_raises_before_writing(self, monkeypatch):
        # The wrappers size the block-minimum scratch; C checks it.
        c = _c_or_skip()
        from repro.kernels import c_backend

        monkeypatch.setattr(c_backend, "_min_blocks",
                            lambda live: -(-live // 64) - 1)
        inputs = _block_maintain_inputs(65, "minimum", 0)
        store = _maintain_store(inputs)
        before = _store_state(store)
        with pytest.raises(ValueError, match="heap_maintain buffer is too"):
            c.heap_maintain(store, **_maintain_args(inputs),
                            ws=kernels.KernelWorkspace())
        assert _store_state(store) == before
        inputs = _block_awm_inputs(65, "minimum", 0)
        untouched = _awm_call(kernels.get_backend("numpy"),
                              {**inputs, "start": len(inputs["batch"])})[1]
        _, result = _awm_call(c, inputs)
        assert result[0] == ("ValueError",
                             "an awm_update buffer is too short for the "
                             "batch")
        assert result[1:] == untouched[1:]


# ----------------------------------------------------------------------
# The PS codec's chunk kernels: c == numpy bit for bit, and numpy == the
# codec's earlier gather -> arithmetic -> scatter composition
# ----------------------------------------------------------------------
CHUNK = kernels.CHUNK


def _spec_split(size, chunk_ids):
    full = size >> 8
    tail_len = size - (full << 8)
    has_tail = bool(tail_len > 0 and chunk_ids.size > 0
                    and int(chunk_ids[-1]) == (size + 255) // 256 - 1)
    body = chunk_ids[:-1] if has_tail else chunk_ids
    return body, has_tail, full, tail_len


def _spec_gather(source, chunk_ids):
    body, has_tail, full, tail_len = _spec_split(source.size, chunk_ids)
    out = np.zeros((chunk_ids.size, 256), dtype=np.float64)
    nb = body.size
    if nb:
        np.take(source[: full << 8].reshape(full, 256), body, axis=0,
                out=out[:nb], mode="clip")
    if has_tail:
        out[-1, :tail_len] = source[full << 8:]
    return out


def _spec_scatter(dest, chunk_ids, data):
    """The codec's raw-bit scatter before the chunk kernels (the push's
    base advance, the pull's table and base writes)."""
    body, has_tail, full, tail_len = _spec_split(dest.size, chunk_ids)
    nb = body.size
    if nb:
        dest[: full << 8].reshape(full, 256)[body] = data[:nb]
    if has_tail:
        dest[full << 8:] = data[-1, :tail_len]


def _spec_chunk_delta(table_flat, base_flat, chunk_ids, alpha, drift):
    """The delta codec's push encode as it was composed before the
    chunk_delta kernel: two gathers, the arithmetic, one scatter."""
    cur = _spec_gather(table_flat, chunk_ids)
    base = _spec_gather(base_flat, chunk_ids)
    if alpha == 1.0 and drift == 1.0:
        chunks = cur - base
    else:
        chunks = alpha * cur - drift * base
    _spec_scatter(base_flat, chunk_ids, cur)
    return chunks


def _spec_chunk_add(table_flat, chunk_ids, data, scale):
    """The driver's push apply before the chunk_add kernel."""
    body, has_tail, full, tail_len = _spec_split(table_flat.size, chunk_ids)
    contrib = data if scale == 1.0 else data / scale
    nb = body.size
    if nb:
        table_flat[: full << 8].reshape(full, 256)[body] += contrib[:nb]
    if has_tail:
        table_flat[full << 8:] += contrib[-1, :tail_len]


#: NaNs whose payloads a copy must keep: a quiet one with payload bits
#: and a signaling one (arithmetic quiets it; a copy must not).
_PAYLOAD_NANS = [float(np.array(bits, dtype=np.uint64).view(np.float64))
                 for bits in (0x7FF8DEAD0000BEEF, 0xFFF0000000000001)]
#: Cell values: signed zeros, infinities, NaNs of both signs (x86's
#: default NaN is negative) and with payloads, and 1e300 magnitudes
#: among ordinary finite ones.
_CELL_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  *_PAYLOAD_NANS, 1e300, -1e300]
#: Factors alpha, drift and scale: 1.0 and ordinary positive ones (the
#: codec's), plus the values that stress rounding and special cases.
_FACTORS = st.one_of(
    st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e300, 0.0, -1.0, math.inf,
                     math.nan, -math.nan]),
    st.floats(1e-3, 1e3),
)
_VALID_IDS = ("empty", "single", "all", "tail", "random")
_BAD_IDS = {
    "duplicate": lambda n: [0, 0] if n == 1 else [0, n - 1, n - 1],
    "unsorted": lambda n: [n - 1, 0] if n > 1 else [0, -1],
    "negative": lambda n: [-1],
    "out_of_range": lambda n: [0, n],
}


@st.composite
def _chunk_inputs(draw, valid_only=False):
    full = draw(st.integers(0, 4))
    tail = draw(st.one_of(st.just(0), st.integers(1, CHUNK - 1)))
    size = max(1, full * CHUNK + tail)
    n = -(-size // CHUNK)
    modes = _VALID_IDS if valid_only else _VALID_IDS + tuple(_BAD_IDS)
    mode = draw(st.sampled_from(modes))
    if mode in _BAD_IDS:
        ids = _BAD_IDS[mode](n)
    else:
        ids = {
            "empty": [],
            "single": [draw(st.integers(0, n - 1))],
            "all": list(range(n)),
            "tail": [n - 1],
            "random": sorted(draw(st.sets(st.integers(0, n - 1)))),
        }[mode]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.lists(st.sampled_from(_CELL_SPECIALS), max_size=4))

    def cells(count):
        values = rng.standard_normal(count) * 10.0 ** rng.integers(
            -5, 5, count)
        if specials:
            hit = rng.random(count) < 0.3
            values[hit] = rng.choice(specials, int(hit.sum()))
        return values

    exact = draw(st.booleans())
    return dict(
        table=cells(size), base=cells(size),
        ids=np.array(ids, dtype=np.int64),
        alpha=1.0 if exact else draw(_FACTORS),
        drift=1.0 if exact else draw(_FACTORS),
        scale=draw(st.one_of(st.just(1.0), _FACTORS)),
        rows=cells(len(ids) * CHUNK).reshape(len(ids), CHUNK),
    )


def _value_bits(a):
    """``a``'s bytes with every NaN made one NaN.  When both operands of
    an operation are NaN, numpy returns either payload depending on the
    array length (its SIMD body and scalar remainder differ), so only
    NaN-ness is comparable there; every other bit is."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _run_chunk_kernels(kb, inputs):
    """``chunk_delta`` then ``chunk_add`` on copies: the outcome of each
    (exception type and message, or "ok") and every written buffer's
    bytes — the computed rows and table up to NaN payloads, the base
    (a copy of ``cur``) exactly."""
    base = inputs["base"].copy()
    out = np.full((inputs["ids"].size, CHUNK), -7.0)
    table = inputs["table"].copy()
    outcomes = []
    for call in (
        lambda: kb.chunk_delta(inputs["table"], base, inputs["ids"],
                               inputs["alpha"], inputs["drift"], out),
        lambda: kb.chunk_add(table, inputs["ids"], inputs["rows"],
                             inputs["scale"]),
    ):
        try:
            with np.errstate(all="ignore"):
                call()
            outcomes.append("ok")
        except ValueError as exc:
            outcomes.append(("ValueError", str(exc)))
    return outcomes, _value_bits(out), base.tobytes(), _value_bits(table)


class TestChunkKernelsProperty:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_chunk_inputs())
    def test_c_matches_numpy(self, inputs):
        c = _c_or_skip()
        want = _run_chunk_kernels(kernels.get_backend("numpy"), inputs)
        assert _run_chunk_kernels(c, inputs) == want

    @settings(max_examples=300, deadline=None)
    @given(inputs=_chunk_inputs(valid_only=True))
    def test_numpy_matches_the_composed_spec(self, inputs):
        ref = kernels.get_backend("numpy")
        base = inputs["base"].copy()
        out = np.full((inputs["ids"].size, CHUNK), -7.0)
        table = inputs["table"].copy()
        spec_base = inputs["base"].copy()
        spec_table = inputs["table"].copy()
        with np.errstate(all="ignore"):
            ref.chunk_delta(inputs["table"], base, inputs["ids"],
                            inputs["alpha"], inputs["drift"], out)
            want = _spec_chunk_delta(inputs["table"], spec_base,
                                     inputs["ids"], inputs["alpha"],
                                     inputs["drift"])
            ref.chunk_add(table, inputs["ids"], inputs["rows"],
                          inputs["scale"])
            _spec_chunk_add(spec_table, inputs["ids"], inputs["rows"],
                            inputs["scale"])
        assert out.tobytes() == want.tobytes()
        assert base.tobytes() == spec_base.tobytes()
        assert table.tobytes() == spec_table.tobytes()


class TestChunkKernelsExhaustive:
    """Every pairing of special operands in every operand slot (signed
    zeros, infinities, NaNs of both signs, 0 * inf, inf - inf): the
    hypothesis property reaches these combinations only by chance."""

    SPECIALS = [1.0, 2.0, 0.0, -0.0, math.inf, -math.inf, math.nan,
                -math.nan]

    def test_c_matches_numpy(self):
        c = _c_or_skip()
        pairs = np.array([(x, y) for x in self.SPECIALS
                          for y in self.SPECIALS])
        ids = np.array([0], dtype=np.int64)
        for alpha in self.SPECIALS:
            for drift in self.SPECIALS:
                inputs = dict(table=pairs[:, 0], base=pairs[:, 1], ids=ids,
                              alpha=alpha, drift=drift, scale=alpha,
                              rows=np.resize(pairs[:, 1], (1, CHUNK)))
                want = _run_chunk_kernels(kernels.get_backend("numpy"),
                                          inputs)
                assert _run_chunk_kernels(c, inputs) == want, (alpha, drift)


def _run_pull_kernels(kb, inputs):
    """``chunk_gather`` then ``chunk_scatter`` on copies: the outcome of
    each and every written buffer's exact bytes.  These kernels only
    copy, so NaN payloads must survive too."""
    out = np.full((inputs["ids"].size, CHUNK), -7.0)
    table = inputs["table"].copy()
    base = inputs["base"].copy()
    outcomes = []
    for call in (
        lambda: kb.chunk_gather(inputs["table"], inputs["ids"], out),
        lambda: kb.chunk_scatter(table, base, inputs["ids"],
                                 inputs["rows"]),
    ):
        try:
            call()
            outcomes.append("ok")
        except ValueError as exc:
            outcomes.append(("ValueError", str(exc)))
    return outcomes, out.tobytes(), table.tobytes(), base.tobytes()


class TestPullKernelsProperty:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_chunk_inputs())
    @example(inputs=dict(
        table=np.array(_PAYLOAD_NANS * 150), base=np.zeros(300),
        ids=np.array([0, 1], dtype=np.int64),
        rows=np.resize(np.array(_PAYLOAD_NANS[::-1]), (2, CHUNK)),
    ))
    def test_c_matches_numpy(self, inputs):
        c = _c_or_skip()
        want = _run_pull_kernels(kernels.get_backend("numpy"), inputs)
        assert _run_pull_kernels(c, inputs) == want

    @settings(max_examples=300, deadline=None)
    @given(inputs=_chunk_inputs(valid_only=True))
    def test_numpy_matches_the_composed_spec(self, inputs):
        outcomes, out, table, base = _run_pull_kernels(
            kernels.get_backend("numpy"), inputs
        )
        assert outcomes == ["ok", "ok"]
        # The codec's earlier pull: a zero-filled gather, then the same
        # scatter into the table and, separately, into the sync base.
        assert out == _spec_gather(inputs["table"], inputs["ids"]).tobytes()
        for before, after in ((inputs["table"], table),
                              (inputs["base"], base)):
            want = before.copy()
            _spec_scatter(want, inputs["ids"], inputs["rows"])
            assert after == want.tobytes()


@pytest.mark.parametrize("name", ["numpy", c_backend_param()])
class TestChunkKernelAliasing:
    """A buffer a chunk kernel writes must not share memory with another
    argument: both backends raise before writing anything.  Without the
    check, chunk_delta with ``out`` over ``table_flat[:512]`` leaves c's
    sync base holding the deltas and numpy's the old table."""

    @staticmethod
    def _cases():
        """(kernel, arguments, written names) per aliasing pair, over
        a 900-cell table (three full chunks and a partial one)."""
        table = np.arange(900.0)
        base = -np.arange(900.0)
        two = np.array([0, 1], dtype=np.int64)
        rows = np.ones((2, CHUNK))
        over_table = table[:512].reshape(2, CHUNK)
        over_base = base[:512].reshape(2, CHUNK)
        # Chunk ids read from memory the kernel writes.
        ids_over_table = table[:2].view(np.int64)
        ids_over_base = base[:2].view(np.int64)
        mem = np.zeros(2 * CHUNK)
        return [
            ("chunk_delta", dict(table_flat=table, base_flat=base,
                                 chunk_ids=two, alpha=1.0, drift=1.0,
                                 out=over_table)),
            ("chunk_delta", dict(table_flat=table, base_flat=base,
                                 chunk_ids=two, alpha=1.0, drift=1.0,
                                 out=over_base)),
            ("chunk_delta", dict(table_flat=table, base_flat=table,
                                 chunk_ids=two, alpha=1.0, drift=1.0,
                                 out=np.zeros((2, CHUNK)))),
            ("chunk_delta", dict(table_flat=table,
                                 base_flat=base, chunk_ids=ids_over_base,
                                 alpha=1.0, drift=1.0,
                                 out=np.zeros((2, CHUNK)))),
            ("chunk_add", dict(table_flat=table, chunk_ids=two,
                               data=over_table, scale=1.0)),
            ("chunk_add", dict(table_flat=table, chunk_ids=ids_over_table,
                               data=rows, scale=1.0)),
            ("chunk_gather", dict(table_flat=table, chunk_ids=two,
                                  out=over_table)),
            ("chunk_gather", dict(table_flat=table,
                                  chunk_ids=mem[:2].view(np.int64),
                                  out=mem.reshape(2, CHUNK))),
            ("chunk_scatter", dict(table_flat=table, base_flat=base,
                                   chunk_ids=two, data=over_table)),
            ("chunk_scatter", dict(table_flat=table, base_flat=base,
                                   chunk_ids=two, data=over_base)),
            ("chunk_scatter", dict(table_flat=table, base_flat=table,
                                   chunk_ids=two, data=rows)),
            ("chunk_scatter", dict(table_flat=table, base_flat=base,
                                   chunk_ids=ids_over_table, data=rows)),
        ]

    def test_shared_memory_raises_before_any_write(self, name):
        kb = kernels.get_backend(name)
        for kernel, args in self._cases():
            arrays = [a for a in args.values() if isinstance(a, np.ndarray)]
            before = [a.tobytes() for a in arrays]
            with pytest.raises(ValueError, match="must not share memory"):
                getattr(kb, kernel)(**args)
            assert [a.tobytes() for a in arrays] == before, kernel

    def test_every_kernel_is_covered(self, name):
        assert {kernel for kernel, _ in self._cases()} == {
            k for k in kernels.KERNEL_NAMES if k.startswith("chunk_")
        }

    def test_disjoint_views_of_one_buffer_are_accepted(self, name):
        # Views of one allocation that cannot overlap are fine.
        kb = kernels.get_backend(name)
        mem = np.zeros(900 + 2 * CHUNK)
        table, out = mem[:900], mem[900:].reshape(2, CHUNK)
        table[:] = np.arange(900.0)
        kb.chunk_gather(table, np.array([0, 3], dtype=np.int64), out)
        assert np.array_equal(out[0], np.arange(256.0))
        assert np.array_equal(out[1, :132], np.arange(768.0, 900.0))
        assert not out[1, 132:].any()


@pytest.mark.parametrize("name", ["numpy", c_backend_param()])
class TestChunkKernelChecks:
    @pytest.mark.parametrize("bad", sorted(_BAD_IDS))
    def test_bad_ids_raise_before_any_write(self, name, bad):
        kb = kernels.get_backend(name)
        ids = np.array(_BAD_IDS[bad](4), dtype=np.int64)  # 900 cells: 4
        table = np.arange(900.0)
        base = -table
        out = np.full((ids.size, CHUNK), -7.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            kb.chunk_delta(table, base, ids, 1.0, 1.0, out)
        with pytest.raises(ValueError, match="strictly increasing"):
            kb.chunk_add(table, ids, np.ones((ids.size, CHUNK)), 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            kb.chunk_gather(table, ids, out)
        with pytest.raises(ValueError, match="strictly increasing"):
            kb.chunk_scatter(table, base, ids, np.ones((ids.size, CHUNK)))
        assert np.array_equal(table, np.arange(900.0))
        assert np.array_equal(base, -table)
        assert np.all(out == -7.0)

    def test_bad_layouts_raise_and_never_copy(self, name):
        kb = kernels.get_backend(name)
        ids = np.array([0, 3], dtype=np.int64)
        table = np.arange(900.0)
        readonly = np.zeros((2, CHUNK))
        readonly.flags.writeable = False
        delta_cases = [
            {"base_flat": np.zeros(1800)[::2]},  # strided written base
            {"out": np.zeros((2, 2 * CHUNK))[:, ::2]},
            {"out": readonly},
            {"out": np.zeros((1, CHUNK))},  # one row short
            {"out": np.zeros((2, CHUNK), dtype=np.float32)},
            {"base_flat": np.zeros(899)},
            {"chunk_ids": ids.astype(np.int32)},
            {"chunk_ids": ids.reshape(1, 2)},
        ]
        for override in delta_cases:
            args = {**dict(table_flat=table, base_flat=np.zeros(900),
                           chunk_ids=ids, alpha=1.0, drift=1.0,
                           out=np.full((2, CHUNK), -7.0)), **override}
            before = args["base_flat"].copy(), args["out"].copy()
            with pytest.raises(ValueError):
                kb.chunk_delta(**args)
            assert args["base_flat"].tobytes() == before[0].tobytes()
            assert args["out"].tobytes() == before[1].tobytes()
        strided = np.zeros(1800)[::2]
        with pytest.raises(ValueError, match="table_flat"):
            kb.chunk_add(strided, ids, np.ones((2, CHUNK)), 1.0)
        assert not strided.any()
        with pytest.raises(ValueError, match="shape"):
            kb.chunk_add(np.zeros(900), ids, np.ones((3, CHUNK)), 1.0)
        for out in (np.zeros((2, 2 * CHUNK))[:, ::2], readonly,
                    np.zeros((1, CHUNK)),
                    np.zeros((2, CHUNK), dtype=np.float32)):
            before = out.tobytes()
            with pytest.raises(ValueError):
                kb.chunk_gather(table, ids, out)
            assert out.tobytes() == before
        readonly_base = np.zeros(900)
        readonly_base.flags.writeable = False
        scatter_cases = [
            {"table_flat": np.zeros(1800)[::2]},
            {"base_flat": np.zeros(1800)[::2]},
            {"base_flat": readonly_base},
            {"base_flat": np.zeros(899)},
            {"data": np.ones((3, CHUNK))},
            {"chunk_ids": ids.astype(np.int32)},
        ]
        for override in scatter_cases:
            args = {**dict(table_flat=np.zeros(900), base_flat=np.zeros(900),
                           chunk_ids=ids, data=np.ones((2, CHUNK))),
                    **override}
            with pytest.raises(ValueError):
                kb.chunk_scatter(**args)
            assert not args["table_flat"].any()
            assert not args["base_flat"].any()

    def test_pull_copies_keep_nan_payloads(self, name):
        kb = kernels.get_backend(name)
        table = np.array(_PAYLOAD_NANS * 450)  # 900 cells
        ids = np.array([1, 3], dtype=np.int64)
        out = np.empty((2, CHUNK))
        kb.chunk_gather(table, ids, out)
        assert out[0].tobytes() == table[256:512].tobytes()
        assert out[1, :132].tobytes() == table[768:].tobytes()
        assert out[1, 132:].tobytes() == np.zeros(124).tobytes()
        dest, base = np.zeros(900), np.zeros(900)
        kb.chunk_scatter(dest, base, ids, out)
        for got in (dest, base):
            assert got[256:512].tobytes() == table[256:512].tobytes()
            assert got[768:].tobytes() == table[768:].tobytes()
            assert not got[:256].any() and not got[512:768].any()

    def test_strided_read_only_inputs_are_accepted(self, name):
        kb = kernels.get_backend(name)
        ids = np.array([0, 1, 3, 2], dtype=np.int64)[::2]  # [0, 3]
        table = np.repeat(np.arange(900.0), 2)[::2]
        base = np.zeros(900)
        out = np.empty((2, CHUNK))
        kb.chunk_delta(table, base, ids, 1.0, 1.0, out)
        assert np.array_equal(out[1, :132], np.arange(768.0, 900.0))
        assert not out[1, 132:].any()
        rows = np.repeat(out, 2, axis=1)[:, ::2]
        total = np.zeros(900)
        kb.chunk_add(total, ids, rows, 1.0)
        assert np.array_equal(total, base)
        gathered = np.empty((2, CHUNK))
        kb.chunk_gather(table, ids, gathered)
        assert gathered.tobytes() == out.tobytes()
        copy, copy_base = np.zeros(900), np.zeros(900)
        kb.chunk_scatter(copy, copy_base, ids, rows)
        assert copy.tobytes() == copy_base.tobytes() == base.tobytes()


# ----------------------------------------------------------------------
# hash_rows: the family evaluated in C, against the numpy memo and
# HashFamily.all_rows, the one oracle
# ----------------------------------------------------------------------
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Keys at the byte, Mersenne-prime and int64 boundaries, and negatives
#: (read as their uint64 two's complement).
_EDGE_KEYS = [0, 1, -1, -2, 255, 256, 2**32, 2**61 - 2, 2**61 - 1, 2**61,
              2**62, _INT64_MAX, _INT64_MIN, _INT64_MIN + 1, -(2**61) - 1]


@st.composite
def _hash_inputs(draw):
    kind = draw(st.sampled_from(["tabulation", "polynomial"]))
    width = draw(st.one_of(
        st.sampled_from([1, 2, 7, 512, 1000, 2**20]),
        st.integers(1, 2**20),
    ))
    family = HashFamily(
        width, draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)),
        kind=kind, independence=draw(st.integers(2, 6)),
    )
    keys = draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_KEYS),
                  st.integers(_INT64_MIN, _INT64_MAX),
                  st.integers(-300, 300)),
        max_size=40,
    ))
    if keys:  # repeats within one call
        keys += draw(st.lists(st.sampled_from(keys), max_size=12))
    return family, np.array(keys, dtype=np.int64)


def _hash_outputs(family, n):
    return (np.full((family.depth, n), -7, dtype=np.int64),
            np.full((family.depth, n), -7.0))


class TestHashRowsProperty:
    @settings(deadline=None)
    @given(inputs=_hash_inputs())
    @example(inputs=(HashFamily(1, 1, kind="polynomial", independence=2),
                     np.empty(0, dtype=np.int64)))
    @example(inputs=(HashFamily(2**20, 4, seed=9, kind="polynomial",
                                independence=6),
                     np.array(_EDGE_KEYS * 2, dtype=np.int64)))
    def test_hash_rows_c_numpy_and_all_rows_agree(self, inputs):
        c = _c_or_skip()
        family, keys = inputs
        want = family.all_rows(keys)
        n = keys.size
        for kb in (kernels.get_backend("numpy"), c):
            hasher = BatchHasher(family, backend=kb)
            for _ in range(2):  # cold, then (numpy) served by the memo
                buckets, signs = _hash_outputs(family, n)
                kb.hash_rows(hasher, keys, buckets, signs)
                assert np.array_equal(buckets, want[0]), kb.name
                assert np.array_equal(signs.view(np.int64),
                                      want[1].view(np.int64)), kb.name
            if kb is c:
                # No memo: every position is evaluated and counted.
                assert (hasher.hits, hasher.misses) == (0, 2 * n)
                assert len(hasher) == 0 and hasher._tags is None
            else:
                # The memo counts each position once per pass (a crowded
                # set can evict a key within one call, so not every
                # repeat is a hit).
                assert hasher.hits + hasher.misses == 2 * n

    @pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
    @pytest.mark.parametrize("kind", ["tabulation", "polynomial"])
    def test_hash_rows_empty_call_writes_and_builds_nothing(self, backend,
                                                            kind):
        kb = kernels.get_backend(backend)
        family = HashFamily(1000, 3, seed=4, kind=kind)
        hasher = BatchHasher(family, backend=kb)
        buckets, signs = _hash_outputs(family, 0)
        kb.hash_rows(hasher, np.empty(0, dtype=np.int64), buckets, signs)
        assert (hasher.hits, hasher.misses) == (0, 0)
        assert hasher._tags is None

    @pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
    def test_hash_rows_rejects_bad_buffers_before_writing(self, backend):
        kb = kernels.get_backend(backend)
        family = HashFamily(64, 3, seed=1)
        keys = np.array([5, -1, 5, _INT64_MAX], dtype=np.int64)
        readonly = np.full((3, 4), -7.0)
        readonly.flags.writeable = False
        bad_cases = [
            (TypeError, {"keys": keys.astype(np.int32)}),
            (TypeError, {"keys": keys.astype(np.uint64)}),
            (TypeError, {"buckets": np.full((3, 4), -7, dtype=np.int32)}),
            (TypeError, {"signs": np.full((3, 4), -7.0, dtype=np.float32)}),
            (ValueError, {"keys": keys.reshape(2, 2)}),
            (ValueError, {"buckets": np.full((2, 4), -7, dtype=np.int64)}),
            (ValueError, {"signs": np.full((3, 5), -7.0)}),
            (ValueError, {"buckets": np.full((4, 3), -7, dtype=np.int64).T}),
            (ValueError, {"signs": np.full((3, 8), -7.0)[:, ::2]}),
            (ValueError, {"signs": readonly}),
        ]
        for exc_type, override in bad_cases:
            buckets, signs = _hash_outputs(family, keys.size)
            args = {"keys": keys, "buckets": buckets, "signs": signs,
                    **override}
            before = [args["buckets"].copy(), args["signs"].copy()]
            hasher = BatchHasher(family, backend=kb)
            with pytest.raises(exc_type):
                kb.hash_rows(hasher, args["keys"], args["buckets"],
                             args["signs"])
            assert np.array_equal(args["buckets"], before[0]), override
            assert np.array_equal(args["signs"], before[1]), override
            assert (hasher.hits, hasher.misses) == (0, 0)
            assert hasher._tags is None
        # The hasher's own entry runs the same check.
        hasher = BatchHasher(family, backend=kb)
        with pytest.raises(ValueError):
            hasher.rows_into(keys, np.full((3, 8), -7, dtype=np.int64)[:, ::2],
                             np.full((3, 4), -7.0))

    def test_hash_rows_strided_keys_are_read_through_a_copy(self):
        c = _c_or_skip()
        family = HashFamily(1000, 2, seed=6, kind="polynomial")
        keys = np.arange(-20, 20, dtype=np.int64)[::3]
        assert not keys.flags.c_contiguous
        buckets, signs = _hash_outputs(family, keys.size)
        c.hash_rows(BatchHasher(family, backend=c), keys, buckets, signs)
        want = family.all_rows(keys)
        assert np.array_equal(buckets, want[0])
        assert np.array_equal(signs, want[1])


def _hash_rows_models(backend):
    return {
        "wm": WMSketch(256, 3, seed=2, heap_capacity=16, backend=backend),
        "awm": AWMSketch(256, 2, seed=2, heap_capacity=16, backend=backend),
        "hash": FeatureHashing(256, seed=2, backend=backend),
    }


class TestHashRowsModels:
    @pytest.mark.parametrize("name", ["wm", "awm", "hash"])
    @pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
    def test_hash_rows_c_models_never_build_the_memo(self, name, backend):
        """Every hasher a model owns or threads through its snapshots
        runs the model's backend: under c none of them allocates the
        memo after fit_batch, query_many and predict_batch (and every
        position counts as a miss); under numpy the memo serves them."""
        model = _hash_rows_models(backend)[name]
        batches = list(iter_batches(_stream(5, n=200), 50))
        for batch in batches:
            model.fit_batch(batch)
        manager = SnapshotManager(model)
        model.fit_batch(batches[0])
        manager.publish()
        keys = np.arange(-3, 300, dtype=np.int64)
        for reader in (model, manager.current.model,
                       pickle.loads(pickle.dumps(model))):
            reader.predict_batch(batches[1])
            reader.query_many(keys)
        hashers = [model._batch_hasher, manager.reader_hasher,
                   manager.current.model._batch_hasher,
                   pickle.loads(pickle.dumps(model))._batch_hasher]
        for hasher in hashers:
            assert hasher.backend is model.kernels
        assert manager.current.model._batch_hasher is manager.reader_hasher
        for hasher in hashers[:2]:
            assert hasher.misses > 0
            if backend == "c":
                assert hasher.hits == 0 and hasher._tags is None
                assert hasher.hit_rate == 0.0
            else:
                assert hasher.hits > 0 and len(hasher) > 0


# ----------------------------------------------------------------------
# The read kernels through the models: members, snapshots, request pools
# ----------------------------------------------------------------------
def _zipf_batches(d, n, seed, avg_nnz=10.0, batch=256):
    """A Zipf-keyed stream of ``n`` examples (distinct ids per example)
    over ``d`` features, as SparseBatch windows."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        ids = np.unique((rng.zipf(1.3, 1 + rng.poisson(avg_nnz - 1)) - 1)
                        % d)
        rows.append(SparseExample(ids.astype(np.int64), np.ones(ids.size),
                                  1 if rng.random() < 0.5 else -1))
    return rows, list(iter_batches(rows, batch))


def _with_backend(model, backend):
    """A copy of ``model`` resolved to ``backend``: same state bits."""
    state = model.__getstate__()
    state["backend"] = backend
    twin = object.__new__(type(model))
    twin.__setstate__(state)
    return twin


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class TestReadKernelModels:
    @pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
    def test_awm_member_mixes_on_a_multi_block_store(self, backend):
        """Examples whose keys are all members, none, or a mix, on a
        200-slot active set (four 64-slot blocks): predict_batch and
        query_many equal predict_margin / estimate_weights bit for bit
        on the live model and on a chunk-pooled snapshot."""
        _, batches = _zipf_batches(5_000, 3_000, seed=4)
        model = AWMSketch(1024, 2, heap_capacity=200, seed=1,
                          backend=backend)
        manager = SnapshotManager(model)
        for batch in batches:
            model.fit_batch(batch)
        manager.publish()
        model.fit_batch(batches[0])
        manager.publish()
        snap = manager.current.model
        assert snap._chunk_map is not None
        members = model.heap.live_keys[:6].copy()
        absent = np.array([k for k in range(5_000, 5_040)
                           if k not in model.heap][:6], dtype=np.int64)
        keys = np.concatenate([members, absent, members[:2], absent[:3]])
        batch = SparseBatch(
            [0, 6, 12, 12, keys.size], keys,
            np.linspace(-2.0, 3.0, keys.size), [1, 1, 1, 1],
        )
        for reader in (model, snap):
            margins = reader.predict_batch(batch)
            for i, ex in enumerate(batch):
                assert _same(margins[i], reader.predict_margin(ex))
            assert _same(reader.query_many(keys),
                         reader.estimate_weights(keys))

    @pytest.mark.parametrize("workload", ["train_serve", "ps_train"])
    @pytest.mark.parametrize("backend", ["numpy"] + ALT_BACKENDS)
    def test_coalesced_equals_scalar_on_e2ebench_pools(self, workload,
                                                      backend):
        """Every request of an e2ebench-shaped pool (the AWM(4096, 1,
        2048) model on a d = 47,200 stream, or the WM(2^18, 3) model on
        d = 646,000; 4,096 requests in the loadgen mix) gets the
        scalar_answer bits from the coalescer's handlers, alone and in
        batches of 7, on a chunk-pooled snapshot."""
        from repro.serving.coalescer import MicroBatchCoalescer
        from repro.serving.loadgen import build_requests
        from repro.serving.server import scalar_answer

        if workload == "train_serve":
            d, rows, batches = 47_200, *_zipf_batches(47_200, 6_000, 21)
            model = AWMSketch(4096, 1, heap_capacity=2048)
        else:
            d, rows, batches = 646_000, *_zipf_batches(646_000, 6_000, 41)
            model = WMSketch(2**18, 3, heap_capacity=128)
        for batch in batches[:-1]:
            model.fit_batch(batch)
        assert model.heap.is_full
        model = _with_backend(model, backend)
        manager = SnapshotManager(model)
        model.fit_batch(batches[-1])
        manager.publish()
        snap = manager.current.model
        assert snap._chunk_map is not None
        requests = build_requests(4096, key_space=d, examples=rows[:2000],
                                  seed=0)
        handlers = MicroBatchCoalescer._HANDLERS
        by_op: dict = {}
        for op, payload in requests:
            (result,) = handlers[op](snap, [payload])
            assert _same(result, scalar_answer(snap, op, payload)), op
            by_op.setdefault(op, []).append(payload)
        for op, payloads in by_op.items():
            for lo in range(0, len(payloads), 7):
                group = payloads[lo:lo + 7]
                for payload, result in zip(group, handlers[op](snap, group)):
                    assert _same(result, scalar_answer(snap, op, payload))


# ----------------------------------------------------------------------
# The helpers no backend compiles: one implementation, tested directly
# ----------------------------------------------------------------------
class TestNumpyHelpers:
    def test_screen_abs_gt_is_strict(self, rng):
        values = rng.standard_normal(40)
        values[5], values[9] = 0.5, -0.5  # exact ties must be rejected
        got = numpy_backend.screen_abs_gt(values, 0.5)
        assert got.tolist() == [
            i for i, v in enumerate(values.tolist()) if abs(v) > 0.5
        ]
        assert 5 not in got and 9 not in got
        assert numpy_backend.screen_abs_gt(values, -1.0).tolist() == list(
            range(40)
        )
        assert numpy_backend.screen_abs_gt(values, np.inf).size == 0

    def test_median_estimate_odd_even_and_depth_one(self, rng):
        for depth in (1, 2, 3, 4, 7, 8):
            gathered = rng.standard_normal((31, depth))
            signs = np.where(rng.random((31, depth)) < 0.5, -1.0, 1.0)
            before = gathered.copy()
            got = numpy_backend.median_estimate(gathered, signs, 1.7)
            assert gathered.tobytes() == before.tobytes()
            want = []
            for g_row, s_row in zip(gathered.tolist(), signs.tolist()):
                row = sorted(s * g for s, g in zip(s_row, g_row))
                mid = depth // 2
                if depth % 2:
                    want.append(1.7 * row[mid])
                else:
                    want.append(1.7 * (0.5 * (row[mid - 1] + row[mid])))
            assert got.tolist() == want, depth

    def test_scatter_add_folds_duplicates_in_element_order(self, rng):
        base = rng.standard_normal(64)
        # Heavy duplication: eight buckets for 150 deltas.
        fb = rng.integers(0, 8, size=(3, 50)).astype(np.int64)
        deltas = rng.standard_normal((3, 50)) * 10.0 ** rng.integers(
            -8, 8, size=(3, 50)
        )
        got = base.copy()
        numpy_backend.scatter_add(got, fb, deltas)
        want = base.copy()
        for b, d in zip(fb.ravel().tolist(), deltas.ravel().tolist()):
            want[b] += d
        assert got.tobytes() == want.tobytes()

    def test_margin_gathered_on_the_transposed_block_equals_margin(
        self, rng
    ):
        table = rng.standard_normal(128)
        for depth, nnz in ((1, 1), (3, 17), (5, 40)):
            fb = rng.integers(0, 128, size=(depth, nnz)).astype(np.int64)
            sv = rng.standard_normal((depth, nnz))
            scale, sqrt_s = 0.37, math.sqrt(depth)
            gathered = numpy_backend.gather_rows_t(table, fb)
            assert gathered.tobytes() == table[fb.T].tobytes()
            want = numpy_backend.margin(table, fb, sv, scale, sqrt_s)
            assert want == scale * math.fsum(
                (table[fb] * sv).ravel().tolist()
            ) / sqrt_s
            assert numpy_backend.margin_gathered(
                gathered, sv.T, scale, sqrt_s
            ) == want


# ----------------------------------------------------------------------
# Model-level fuzz: WM / AWM / Hash / LR fit + predict
# ----------------------------------------------------------------------
def _stream(seed, n=350, d=3_000, avg_nnz=9.0):
    stream = SyntheticStream(
        d=d, n_signal=40, avg_nnz=avg_nnz, label_noise=0.05, seed=seed
    )
    return stream.materialize(n)


def _train(factory, examples, batch_size):
    model = factory()
    if batch_size is None:
        for ex in examples:
            model.update(ex)
    else:
        for batch in iter_batches(examples, batch_size):
            model.fit_batch(batch)
    return model


def _assert_models_identical(a, b):
    assert np.array_equal(a.table, b.table)
    assert a._scale == b._scale
    assert a.t == b.t
    heap_a = getattr(a, "heap", None)
    heap_b = getattr(b, "heap", None)
    assert (heap_a is None) == (heap_b is None)
    if heap_a is not None:
        assert heap_a.items() == heap_b.items()


class TestModelEquivalence:
    FACTORIES = {
        "wm": lambda be: WMSketch(
            512, 3, seed=0, heap_capacity=32, lambda_=1e-4, backend=be
        ),
        "wm_no_heap_l1": lambda be: WMSketch(
            256, 4, seed=1, heap_capacity=0, l1=1e-3, backend=be
        ),
        "awm": lambda be: AWMSketch(
            256, depth=1, heap_capacity=48, seed=0, lambda_=1e-4, backend=be
        ),
        "awm_deep": lambda be: AWMSketch(
            128, depth=3, heap_capacity=16, seed=2, backend=be
        ),
        "hash": lambda be: FeatureHashing(512, seed=0, backend=be),
    }

    @pytest.mark.parametrize("alt", MODEL_BACKENDS)
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_fit_and_predict_bit_identical(self, alt, name):
        examples = _stream(seed=13)
        factory = self.FACTORIES[name]
        for batch_size in (None, 64):
            ref = _train(lambda: factory(None), examples, batch_size)
            other = _train(lambda: factory(alt), examples, batch_size)
            _assert_models_identical(ref, other)
            for ex in examples[:25]:
                assert ref.predict_margin(ex) == other.predict_margin(ex)
            probe = np.arange(0, 3_000, 7, dtype=np.int64)
            assert np.array_equal(
                ref.estimate_weights(probe), other.estimate_weights(probe)
            )

    @pytest.mark.parametrize("alt", MODEL_BACKENDS)
    def test_awm_one_sparse_scalar_path_unaffected(self, alt):
        # The Section 8 workloads are 1-sparse and take the scalar fast
        # path, which is backend-independent by construction — but the
        # promotion fold-backs touch kernel-backed tables.
        rng = np.random.default_rng(5)
        from repro.data.sparse import SparseExample

        examples = [
            SparseExample(
                np.array([int(rng.integers(0, 2_000))], dtype=np.int64),
                np.array([1.0]),
                1 if rng.random() < 0.5 else -1,
            )
            for _ in range(500)
        ]
        make = lambda be: AWMSketch(
            128, depth=1, heap_capacity=32, seed=3, backend=be
        )
        ref = _train(lambda: make(None), examples, 64)
        other = _train(lambda: make(alt), examples, 64)
        _assert_models_identical(ref, other)
        assert ref.n_promotions == other.n_promotions

    @pytest.mark.parametrize("alt", ALT_BACKENDS)
    def test_lr_baseline_indifferent_to_backend(self, alt, monkeypatch):
        # The dense LR baseline uses no kernels; choosing a backend (via
        # the process default) must not change a single bit of it.
        examples = _stream(seed=21, n=200, d=800)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        ref = UncompressedClassifier(d=800)
        for ex in examples:
            ref.update(ex)
        monkeypatch.setenv(kernels.ENV_VAR, alt)
        other = UncompressedClassifier(d=800)
        for ex in examples:
            other.update(ex)
        assert np.array_equal(ref._raw, other._raw)
        assert ref._scale == other._scale
        assert ref.heap.items() == other.heap.items()

    @pytest.mark.parametrize("alt", ALT_BACKENDS)
    def test_process_default_backend_drives_models(self, alt, monkeypatch):
        # Models without an explicit override follow the environment
        # variable as it stands when they are built.
        examples = _stream(seed=31, n=150)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        ref = _train(
            lambda: WMSketch(256, 2, seed=4, heap_capacity=16), examples, 50
        )
        monkeypatch.setenv(kernels.ENV_VAR, alt)
        other = _train(
            lambda: WMSketch(256, 2, seed=4, heap_capacity=16), examples, 50
        )
        assert ref.kernels.name == "numpy"
        assert other.kernels.name == alt
        _assert_models_identical(ref, other)


# ----------------------------------------------------------------------
# Heap screen decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alt", ["c", "python"])
class TestHeapScreen:
    def test_push_many_decisions_match_reference(self, alt, rng):
        """A store loaded from an older pickle, whose state still names
        a kernel backend (``alt``), screens like the reference heap."""
        from repro.heap.reference import ReferenceTopKHeap

        store = TopKStore.__new__(TopKStore)
        store.__setstate__({**TopKStore(16).__getstate__(), "backend": alt})
        reference = ReferenceTopKHeap(16)
        for round_ in range(30):
            n = int(rng.integers(1, 25))
            keys = rng.choice(10_000, size=n, replace=False).astype(np.int64)
            values = rng.standard_normal(n) * (round_ + 1)
            store.push_many(keys, values)
            for k, v in zip(keys.tolist(), values.tolist()):
                reference.push(k, v)
            assert sorted(store.items()) == sorted(reference.items())
            store.check_invariants()


# ----------------------------------------------------------------------
# Pickle / checkpoint round-trips under a non-default backend
# ----------------------------------------------------------------------
class TestPersistence:
    @pytest.mark.parametrize("alt", MODEL_BACKENDS)
    def test_pickle_roundtrip_preserves_backend_and_state(self, alt):
        examples = _stream(seed=17, n=200)
        model = _train(
            lambda: AWMSketch(
                256, depth=1, heap_capacity=32, seed=0, backend=alt
            ),
            examples,
            64,
        )
        clone = pickle.loads(pickle.dumps(model))
        assert clone.backend == alt
        _assert_models_identical(model, clone)
        # Training must continue identically on both copies.
        more = _stream(seed=18, n=80)
        for batch in iter_batches(more, 40):
            model.fit_batch(batch)
            clone.fit_batch(batch)
        _assert_models_identical(model, clone)

    @pytest.mark.parametrize("alt", ALT_BACKENDS)
    def test_checkpoint_records_backend(self, alt):
        examples = _stream(seed=19, n=150)
        model = _train(
            lambda: WMSketch(
                256, 2, seed=0, heap_capacity=16, backend=alt
            ),
            examples,
            50,
        )
        payload = roundtrip_bytes(model)
        with np.load(io.BytesIO(payload)) as archive:
            assert archive["meta_backend"].item() == alt
            assert "meta_trained_backend" not in archive.files
        restored = from_bytes(payload)
        assert restored.backend == alt
        assert restored.kernels.name == alt
        _assert_models_identical(model, restored)


class TestPersistenceDefaults:
    def test_checkpoint_without_override_records_resolved_backend(
        self, monkeypatch
    ):
        # No override is saved as none: the restored model resolves the
        # loading process's default, not the saving one's.
        monkeypatch.setenv(kernels.ENV_VAR, kernels.available_backends()[-1])
        model = WMSketch(128, 2, seed=0, heap_capacity=8)
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        restored = from_bytes(roundtrip_bytes(model))
        assert restored.backend is None
        assert restored.kernels.name == "numpy"
        assert not hasattr(restored, "trained_backend")


@pytest.mark.parametrize("retired", ["numba", "python"])
class TestRetiredBackendNames:
    """Models saved under the deleted ``numba`` / ``python`` backends
    still load and train: one warning, then the numpy reference."""

    def _twins(self, retired):
        examples = _stream(seed=19, n=150)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kernels.KernelBackendWarning)
            old = _train(
                lambda: WMSketch(256, 2, seed=0, heap_capacity=16,
                                 backend=retired),
                examples, 50,
            )
        ref = _train(
            lambda: WMSketch(256, 2, seed=0, heap_capacity=16,
                             backend="numpy"),
            examples, 50,
        )
        return old, ref

    def _load_and_train(self, load, old, ref, monkeypatch):
        monkeypatch.setattr(kernels, "_warned", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            restored = load(old)
            for batch in iter_batches(_stream(seed=20, n=120), 40):
                restored.fit_batch(batch)
                ref.fit_batch(batch)
        assert [w.category for w in caught] == [kernels.KernelBackendWarning]
        assert restored.kernels.name == "numpy"
        _assert_models_identical(restored, ref)
        return restored

    def test_checkpoint_round_trip(self, retired, monkeypatch):
        old, ref = self._twins(retired)
        restored = self._load_and_train(
            lambda m: from_bytes(roundtrip_bytes(m)), old, ref, monkeypatch
        )
        assert restored.backend == retired
        assert not hasattr(restored, "trained_backend")

    def test_pickle_round_trip(self, retired, monkeypatch):
        old, ref = self._twins(retired)
        restored = self._load_and_train(
            lambda m: pickle.loads(pickle.dumps(m)), old, ref, monkeypatch
        )
        assert restored.backend == retired
