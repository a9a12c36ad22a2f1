"""Cross-backend kernel equivalence: the PR 4 executable contract.

Every kernel backend must be *bit-identical* to the NumPy reference on
identical inputs — tables, heap state and predictions alike.  The ``c``
backend compiles all five kernels, ``fused_update``, ``fused_predict``,
``heap_maintain``, ``chunk_delta`` and ``chunk_add``
(``repro/kernels/ckernels.c``); its cases skip with the recorded reason
on a host where it cannot build.
The NumPy helpers no backend compiles are tested directly here
(``TestNumpyHelpers``).  Beyond the
model-level fuzz, hypothesis properties compare the compiled kernels
with NumPy bit for bit on adversarial inputs (repeated buckets, renorm
folds, 1e300 magnitudes, signed zeros, infinities and NaNs, bad chunk
ids), including the exception raised and the partial state left behind,
pin the NumPy chunk kernels to the delta codec's earlier composition,
and pin the NumPy heap maintain to the per-example decision core.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import c_backend_param, retired_backend_param
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import kernels
from repro.core.awm_sketch import AWMSketch
from repro.core.serialization import from_bytes, roundtrip_bytes
from repro.core.wm_sketch import WMSketch
from repro.data.batch import SparseBatch, iter_batches
from repro.data.synthetic import SyntheticStream
from repro.heap.topk import TopKStore
from repro.kernels import numpy_backend
from repro.learning.feature_hashing import FeatureHashing
from repro.learning.ogd import UncompressedClassifier

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
            "fused_update", "fused_predict", "heap_maintain", "chunk_delta",
            "chunk_add",
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
            "c, ref = kernels.get_backend('c'), kernels.get_backend('numpy')\n"
            "rng = np.random.default_rng(0)\n"
            "table = rng.standard_normal(64)\n"
            "fb = rng.integers(0, 64, (3, 20)).astype(np.int64)\n"
            "sv = rng.standard_normal((3, 20))\n"
            "ip = np.array([0, 7, 7, 20], dtype=np.int64)\n"
            "a, b = np.empty(3), np.empty(3)\n"
            "for kb, out in ((c, a), (ref, b)):\n"
            "    kb.fused_predict(table, fb, sv, ip, 0.5, 1.7, out)\n"
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
            lam=1e-3, scale=1.0, sqrt_s=math.sqrt(depth),
            loss_id=0, loss_param=0.0,
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
        with pytest.raises(TypeError):
            c.fused_predict(base["table_flat"].astype(np.float32),
                            base["flat_buckets"], base["sign_values"],
                            base["indptr"], 1.0, 1.0, out[:3])
        with pytest.raises(ValueError):
            c.fused_predict(base["table_flat"], base["flat_buckets"],
                            base["sign_values"], base["indptr"][:2], 1.0,
                            1.0, out)
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
        out = np.empty(4)
        with pytest.raises(IndexError, match=f"index {bucket} is out"):
            c.fused_predict(args["table_flat"], args["flat_buckets"],
                            args["sign_values"], args["indptr"], 1.0, 1.0,
                            out)

    def test_strided_read_only_inputs_are_accepted(self, rng):
        c = _c_or_skip()
        ref = kernels.get_backend("numpy")
        args = self._update_args(rng)
        wide = np.repeat(args["sign_values"], 2, axis=1)
        args["sign_values"] = wide[:, ::2]
        assert not args["sign_values"].flags.c_contiguous
        assert _run_update(ref, args) == _run_update(c, args)


_WRITTEN = ("table_flat", "margins_out", "gathered_out", "scales_out",
            "touched_out")


def _run_update(kb, args):
    """Run ``fused_update`` on copies of the buffers it writes; returns
    the outcome (exception name or the returned scale's bits) and every
    written buffer's bytes."""
    args = {k: (v.copy() if k in _WRITTEN else v) for k, v in args.items()}
    try:
        scale = kb.fused_update(**args)
        outcome = ("ok", np.float64(scale).tobytes())
    except Exception as exc:  # noqa: BLE001 - compared across backends
        outcome = (type(exc).__name__, None)
    return outcome, tuple(args[k].tobytes() for k in _WRITTEN)


# ----------------------------------------------------------------------
# The exact sum: CPython's math.fsum, run through the C kernel
# ----------------------------------------------------------------------
def _c_fsum(c, values):
    """The C exact sum of ``values``: a one-example fused_predict over a
    table of ones with scale = sqrt_s = 1."""
    values = np.asarray(values, dtype=np.float64).reshape(1, -1)
    out = np.empty(1)
    c.fused_predict(
        np.ones(1), np.zeros(values.shape, dtype=np.int64), values,
        np.array([0, values.shape[1]], dtype=np.int64), 1.0, 1.0, out,
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
        kb = kernels.get_backend(backend)
        out = np.full(2, -7.0)
        kb.fused_predict(
            np.zeros(8), np.array([[1, 2, 3]], dtype=np.int64),
            np.array([[-1.0, -2.0, -0.5]]),
            np.array([0, 3, 3], dtype=np.int64), 1.0, 1.0, out,
        )
        assert out.tobytes() == np.zeros(2).tobytes()


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
        touched=draw(st.sampled_from(["off", "count", "full"])),
    )


def _buffers(inputs):
    args = {k: v for k, v in inputs.items() if k not in ("record", "touched")}
    depth, ncols = args["flat_buckets"].shape
    n = args["labels"].size
    full = 1 + depth * int(args["indptr"][-1] - args["indptr"][0])
    args.update(
        margins_out=np.full(n, -7.0),
        gathered_out=(np.full((ncols, depth), -7.0) if inputs["record"]
                      else kernels.EMPTY_GATHER),
        scales_out=(np.full(n, -7.0) if inputs["record"]
                    else kernels.EMPTY_SCALES),
        touched_out=np.full({"off": 0, "count": 1, "full": full}[
            inputs["touched"]], -7, dtype=np.int64),
    )
    return args


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
                    etas=np.array([0.5]), lam=0.0, scale=1.0, sqrt_s=1.0,
                    loss_id=loss_id, loss_param=0.5,
                    margins_out=np.full(1, -7.0),
                    gathered_out=kernels.EMPTY_GATHER,
                    scales_out=kernels.EMPTY_SCALES,
                    touched_out=kernels.EMPTY_TOUCHED,
                )
                want = _run_update(kernels.get_backend("numpy"), args)
                assert _run_update(c, args) == want, (tau, label)

    @settings(max_examples=300, deadline=None)
    @given(inputs=_fused_inputs())
    def test_fused_predict_bit_identical(self, inputs):
        c = _c_or_skip()
        n = inputs["labels"].size
        results = []
        for kb in (kernels.get_backend("numpy"), c):
            out = np.full(n, -7.0)
            try:
                with np.errstate(all="ignore"):
                    kb.fused_predict(
                        inputs["table_flat"], inputs["flat_buckets"],
                        inputs["sign_values"], inputs["indptr"],
                        inputs["scale"], inputs["sqrt_s"], out,
                    )
                outcome = "ok"
            except Exception as exc:  # noqa: BLE001 - compared below
                outcome = type(exc).__name__
            results.append((outcome, out.tobytes()))
        assert results[0] == results[1]


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
# The push codec's chunk kernels: c == numpy bit for bit, and numpy ==
# the codec's earlier gather -> arithmetic -> scatter composition
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


def _spec_chunk_delta(table_flat, base_flat, chunk_ids, alpha, drift):
    """The delta codec's push encode as it was composed before the
    chunk_delta kernel: two gathers, the arithmetic, one scatter."""
    cur = _spec_gather(table_flat, chunk_ids)
    base = _spec_gather(base_flat, chunk_ids)
    if alpha == 1.0 and drift == 1.0:
        chunks = cur - base
    else:
        chunks = alpha * cur - drift * base
    body, has_tail, full, tail_len = _spec_split(base_flat.size, chunk_ids)
    nb = body.size
    if nb:
        base_flat[: full << 8].reshape(full, 256)[body] = cur[:nb]
    if has_tail:
        base_flat[full << 8:] = cur[-1, :tail_len]
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


#: Cell values: signed zeros, infinities, NaNs of both signs (x86's
#: default NaN is negative) and 1e300 magnitudes among ordinary finite
#: ones.
_CELL_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  1e300, -1e300]
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
