"""Cross-backend kernel equivalence: the PR 4 executable contract.

Every kernel backend must be *bit-identical* to the NumPy reference on
identical inputs — hashes, tables, heap state and predictions alike.
The ``c`` backend compiles ``fused_update`` and ``fused_predict``
(``repro/kernels/ckernels.c``) and reuses the NumPy function for every
other kernel; its cases skip with the recorded reason on a host where
it cannot build.  Beyond the model-level fuzz, a hypothesis property
compares the two compiled kernels with NumPy bit for bit on adversarial
inputs (repeated buckets, renorm folds, 1e300 magnitudes, signed zeros),
including the exception raised and the partial state left behind.
"""

from __future__ import annotations

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

    def test_set_backend_pins_and_clears(self, monkeypatch):
        # Without the environment variable, clearing the pin restores
        # "auto" (the numpy-default CI rerun sets the variable).
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        try:
            pinned = kernels.set_backend("numpy")
            assert kernels.get_backend() is pinned
            assert kernels.active_backend_name() == "numpy"
        finally:
            kernels.set_backend(None)
        assert kernels.get_backend() is kernels.get_backend("auto")

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        kernels.set_backend(None)
        assert kernels.active_backend_name() == "numpy"
        monkeypatch.delenv(kernels.ENV_VAR)
        assert kernels.get_backend() is kernels.get_backend("auto")

    def test_unknown_backend_strict_raises(self):
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.get_backend("no-such-backend")
        with pytest.raises(kernels.BackendUnavailableError):
            kernels.set_backend("no-such-backend")

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
                kernels.set_backend(name)
            with pytest.warns(kernels.KernelBackendWarning):
                assert kernels.get_backend(name, strict=False).name == "numpy"

    def test_backend_objects_are_complete(self):
        for name in kernels.available_backends():
            backend = kernels.get_backend(name)
            for kernel_name in kernels.KERNEL_NAMES:
                assert callable(getattr(backend, kernel_name))


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
        monkeypatch.setattr(kernels, "_active", None)
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
            "    kb.fused_predict(table, fb, sv, ip, 0.5, 1.7, out,\n"
            "                     kernels.EMPTY_SCRATCH)\n"
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
            scratch=kernels.EMPTY_SCRATCH,
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
                            base["indptr"], 1.0, 1.0, out[:3],
                            kernels.EMPTY_SCRATCH)
        with pytest.raises(ValueError):
            c.fused_predict(base["table_flat"], base["flat_buckets"],
                            base["sign_values"], base["indptr"][:2], 1.0,
                            1.0, out, kernels.EMPTY_SCRATCH)
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
                            out, kernels.EMPTY_SCRATCH)

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
        kernels.EMPTY_SCRATCH,
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
            kernels.EMPTY_SCRATCH,
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
        scratch=kernels.EMPTY_SCRATCH,
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
                    scratch=kernels.EMPTY_SCRATCH,
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
                        kernels.EMPTY_SCRATCH,
                    )
                outcome = "ok"
            except Exception as exc:  # noqa: BLE001 - compared below
                outcome = type(exc).__name__
            results.append((outcome, out.tobytes()))
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# Kernel-level fuzz vs the NumPy reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestKernelEquivalence:
    def test_tabulation_hash(self, alt, rng):
        from repro.hashing.tabulation import TabulationHash

        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        for key_bits in (32, 64):
            th = TabulationHash(seed=11, key_bits=key_bits)
            hi = 2**32 if key_bits == 32 else 2**63
            keys = rng.integers(0, hi, size=500, dtype=np.uint64)
            keys[:3] = (0, 1, hi - 1)
            a = ref.tabulation_hash(th._flat, th._offsets, keys)
            b = other.tabulation_hash(th._flat, th._offsets, keys)
            assert np.array_equal(a, b)

    def test_polynomial_hash(self, alt, rng):
        from repro.hashing.universal import PolynomialHash

        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        for independence in (2, 4, 7):
            ph = PolynomialHash(independence=independence, seed=3)
            keys = rng.integers(0, 2**63, size=300, dtype=np.uint64)
            keys[:4] = (0, 1, 2**61 - 1, 2**62)
            a = ref.polynomial_hash(ph._coeffs_u64, keys)
            b = other.polynomial_hash(ph._coeffs_u64, keys)
            assert [int(v) for v in a.tolist()] == [
                int(v) for v in b.tolist()
            ]

    def test_bucket_sign(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        h = rng.integers(0, 2**64, size=400, dtype=np.uint64)
        for width, pow2 in ((1, True), (256, True), (37, False)):
            ba, sa = ref.bucket_sign(h, width, pow2, 45)
            bb, sb = other.bucket_sign(h, width, pow2, 45)
            assert np.array_equal(ba, bb)
            assert np.array_equal(sa, sb)

    def test_margin_and_gather(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        table = rng.standard_normal(128)
        for depth, nnz in ((1, 1), (3, 17), (5, 40)):
            fb = rng.integers(0, 128, size=(depth, nnz)).astype(np.int64)
            sv = rng.standard_normal((depth, nnz))
            scale, sqrt_s = 0.37, math.sqrt(depth)
            assert ref.margin(table, fb, sv, scale, sqrt_s) == other.margin(
                table, fb, sv, scale, sqrt_s
            )
            ga = ref.gather_rows_t(table, fb)
            gb = other.gather_rows_t(table, fb)
            assert np.array_equal(ga, gb)
            assert ref.margin_gathered(
                ga, sv.T.copy(), scale, sqrt_s
            ) == other.margin_gathered(ga, sv.T.copy(), scale, sqrt_s)

    def test_scatter_add_with_duplicates(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        base = rng.standard_normal(64)
        # Heavy duplication: accumulation order must match np.add.at.
        fb = rng.integers(0, 8, size=(3, 50)).astype(np.int64)
        deltas = rng.standard_normal((3, 50))
        t1, t2 = base.copy(), base.copy()
        ref.scatter_add(t1, fb, deltas)
        other.scatter_add(t2, fb, deltas)
        assert np.array_equal(t1, t2)

    def test_median_estimate(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        for depth in (1, 2, 3, 4, 7, 8):
            gathered = rng.standard_normal((31, depth))
            signs = np.where(rng.random((31, depth)) < 0.5, -1.0, 1.0)
            a = ref.median_estimate(gathered.copy(), signs, 1.7)
            b = other.median_estimate(gathered.copy(), signs, 1.7)
            assert np.array_equal(a, b)

    def test_estimate_bound_and_screen(self, alt, rng):
        ref = kernels.get_backend("numpy")
        other = kernels.get_backend(alt)
        table = rng.standard_normal(64)
        fb = rng.integers(0, 64, size=(2, 9)).astype(np.int64)
        assert ref.estimate_bound(table, fb) == other.estimate_bound(
            table, fb
        )
        values = rng.standard_normal(40)
        values[5] = 0.5  # exact-tie probe: strict > must reject it
        assert np.array_equal(
            ref.screen_abs_gt(values, 0.5), other.screen_abs_gt(values, 0.5)
        )
        assert other.screen_abs_gt(np.abs(values), -1.0).size == 40
        assert other.screen_abs_gt(values, np.inf).size == 0


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
    def test_lr_baseline_indifferent_to_backend(self, alt):
        # The dense LR baseline uses no kernels; pinning a backend (via
        # the process default) must not change a single bit of it.
        examples = _stream(seed=21, n=200, d=800)
        ref = UncompressedClassifier(d=800)
        for ex in examples:
            ref.update(ex)
        try:
            kernels.set_backend(alt)
            other = UncompressedClassifier(d=800)
            for ex in examples:
                other.update(ex)
        finally:
            kernels.set_backend(None)
        assert np.array_equal(ref._raw, other._raw)
        assert ref._scale == other._scale
        assert ref.heap.items() == other.heap.items()

    @pytest.mark.parametrize("alt", ALT_BACKENDS)
    def test_process_default_backend_drives_models(self, alt):
        # Models without an explicit override follow set_backend().
        examples = _stream(seed=31, n=150)
        ref = _train(
            lambda: WMSketch(256, 2, seed=4, heap_capacity=16), examples, 50
        )
        try:
            kernels.set_backend(alt)
            other = _train(
                lambda: WMSketch(256, 2, seed=4, heap_capacity=16),
                examples,
                50,
            )
            assert other.kernels.name == alt
        finally:
            kernels.set_backend(None)
        _assert_models_identical(ref, other)


# ----------------------------------------------------------------------
# Heap screen decisions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alt", MODEL_BACKENDS)
class TestHeapScreen:
    def test_push_many_decisions_match_reference(self, alt, rng):
        from repro.heap.reference import ReferenceTopKHeap

        store = TopKStore(16, backend=alt)
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

    def test_store_pickle_keeps_backend(self, alt):
        store = TopKStore(8, backend=alt)
        store.push(1, 2.0)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.backend == alt
        assert clone.items() == store.items()


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
        assert clone.family.backend == alt
        assert clone.heap.backend == alt
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
        restored = from_bytes(roundtrip_bytes(model))
        assert restored.backend == alt
        assert restored.trained_backend == alt
        _assert_models_identical(model, restored)


class TestPersistenceDefaults:
    def test_checkpoint_without_override_records_resolved_backend(self):
        model = WMSketch(128, 2, seed=0, heap_capacity=8)
        restored = from_bytes(roundtrip_bytes(model))
        assert restored.backend is None
        assert restored.trained_backend == kernels.active_backend_name()


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
        old.trained_backend = retired  # the provenance old code wrote
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
        assert restored.trained_backend == retired

    def test_pickle_round_trip(self, retired, monkeypatch):
        old, ref = self._twins(retired)
        restored = self._load_and_train(
            lambda m: pickle.loads(pickle.dumps(m)), old, ref, monkeypatch
        )
        assert restored.backend == retired
