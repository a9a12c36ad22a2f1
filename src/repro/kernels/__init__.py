"""Pluggable kernel backends for the compiled inner loops.

The loops this repository compiles — WM's ``fused_update``,
``fused_predict`` and passive-heap ``heap_maintain``, and the
parameter-server push codec's ``chunk_delta`` and ``chunk_add``
(:data:`~repro.kernels.api.KERNEL_NAMES`) — dispatch through a
:class:`~repro.kernels.api.KernelBackend` selected here.  Every other
hot helper (margins, scatters, gathers, median recovery, admission
screens, recovery queries, the WM heap's decision core) has one
implementation, a plain function of
:mod:`repro.kernels.numpy_backend`, and hashing lives in
:mod:`repro.hashing`.

Backends
--------
``numpy``
    The reference.  Always available; the executable specification the
    equivalence suite (``tests/test_kernel_backends.py``) checks the
    compiled backend against.
``c``
    The five kernels compiled from :file:`ckernels.c` with the system
    ``cc`` and loaded through cffi (:mod:`repro.kernels.c_backend`).
    Built once per machine and source hash; when cffi or a compiler is
    missing the backend is recorded unavailable and everything falls
    back to ``numpy`` with zero behavior change.

Selection
---------
A model (``WMSketch``, ``AWMSketch``, ``FeatureHashing``) resolves its
backend once, with ``get_backend(backend, strict=False)`` when it is
built or unpickled, and keeps the result for its lifetime:

1. its ``backend=`` constructor argument, serialized with the model;
2. otherwise the ``REPRO_KERNEL_BACKEND`` environment variable, read
   at that moment (spawned worker processes inherit it);
3. otherwise ``"auto"``: ``c`` when it builds and loads, else
   ``numpy``.

Strictness: ``get_backend(name, strict=True)`` raises
:class:`BackendUnavailableError` for an unavailable or unknown name.
Models and the environment variable resolve like ``strict=False``: an
unavailable name warns once per process and falls back to ``numpy`` —
a checkpoint trained under the compiled backend loads fine on a host
without a compiler, and one saved under a retired backend name
(``numba``, ``python``) loads and trains on ``numpy``.  Backends give
bit-identical results, so the choice affects speed only.
"""

from __future__ import annotations

import os
import warnings

from repro.kernels.api import (
    CHUNK,
    CHUNK_LOG,
    KERNEL_NAMES,
    RENORM_THRESHOLD,
    KernelBackend,
)
from repro.kernels.workspace import (
    EMPTY_GATHER,
    EMPTY_SCALES,
    EMPTY_TOUCHED,
    KernelWorkspace,
)

__all__ = [
    "BACKEND_NAMES",
    "CHUNK",
    "CHUNK_LOG",
    "KERNEL_NAMES",
    "RENORM_THRESHOLD",
    "KernelBackend",
    "KernelWorkspace",
    "EMPTY_GATHER",
    "EMPTY_SCALES",
    "EMPTY_TOUCHED",
    "BackendUnavailableError",
    "KernelBackendWarning",
    "available_backends",
    "get_backend",
    "active_backend_name",
]

#: Environment variable naming the default backend for the process.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Known backend names: the numpy reference, then the compiled backend.
BACKEND_NAMES = ("numpy", "c")


class BackendUnavailableError(ImportError):
    """A requested kernel backend cannot be loaded on this host."""


class KernelBackendWarning(RuntimeWarning):
    """A non-strict backend request fell back to the NumPy reference."""


_loaded: dict[str, KernelBackend] = {}
_unavailable: dict[str, str] = {}
_warned: set[str] = set()


def _load(name: str) -> KernelBackend:
    backend = _loaded.get(name)
    if backend is not None:
        return backend
    if name in _unavailable:
        raise BackendUnavailableError(_unavailable[name])
    if name == "numpy":
        from repro.kernels import numpy_backend

        backend = numpy_backend.BACKEND
    elif name == "c":
        from repro.kernels import c_backend

        try:
            backend = c_backend.load()
        except c_backend.BuildError as exc:
            _unavailable[name] = f"kernel backend 'c' unavailable: {exc}"
            raise BackendUnavailableError(_unavailable[name]) from exc
    else:
        raise BackendUnavailableError(
            f"unknown kernel backend {name!r}; known backends: "
            f"{', '.join(BACKEND_NAMES)} (or 'auto')"
        )
    _loaded[name] = backend
    return backend


def available_backends() -> list[str]:
    """Names of the backends loadable on this host, in BACKEND_NAMES order."""
    out = []
    for name in BACKEND_NAMES:
        try:
            _load(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return out


def get_backend(
    name: str | None = None, strict: bool = True
) -> KernelBackend:
    """Resolve a backend by name (see the module docstring's order).

    Parameters
    ----------
    name:
        ``None`` follows the process default: the
        ``REPRO_KERNEL_BACKEND`` environment variable, else ``"auto"``.
        ``"auto"`` picks ``c`` when available, else ``numpy``.
    strict:
        With ``strict=True`` (default) an unavailable or unknown name
        raises :class:`BackendUnavailableError`.  With ``strict=False``
        it warns once per process (:class:`KernelBackendWarning`) and
        falls back to the NumPy reference — the per-model resolution
        mode, so deserialized models never fail on a leaner host.  A
        name read from the environment variable always resolves this
        way, as it does for the models built in the same process.
    """
    if name is None:
        name = os.environ.get(ENV_VAR, "") or "auto"
        strict = False
    if name == "auto":
        try:
            return _load("c")
        except BackendUnavailableError:
            return _load("numpy")
    try:
        return _load(name)
    except BackendUnavailableError as exc:
        if strict:
            raise
        if name not in _warned:
            _warned.add(name)
            warnings.warn(
                f"{exc}; falling back to the 'numpy' reference backend",
                KernelBackendWarning,
                stacklevel=2,
            )
        return _load("numpy")


def active_backend_name() -> str:
    """Name of the backend the process default currently resolves to."""
    return get_backend().name
