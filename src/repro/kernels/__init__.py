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

Selection order
---------------
1. an explicit per-model override (the ``backend=`` constructor
   argument of ``WMSketch``, ``AWMSketch`` and ``FeatureHashing``,
   serialized with the model);
2. the process-wide backend pinned by :func:`set_backend` (the CLI's
   ``--backend`` flag lands here);
3. the ``REPRO_KERNEL_BACKEND`` environment variable (inherited by
   spawned worker processes, which is how the parallel subsystem
   propagates the choice);
4. ``"auto"``: ``c`` when it builds and loads, else ``numpy``.

Strictness: :func:`set_backend` and ``get_backend(name, strict=True)``
raise :class:`BackendUnavailableError` for an unavailable explicit
name.  Per-model overrides and the environment variable resolve like
``strict=False``: an unavailable name warns once per process and falls
back to ``numpy`` — a checkpoint trained under the compiled backend
loads fine on a host without a compiler, and one saved under a retired
backend name (``numba``, ``python``) loads and trains on ``numpy``.
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
    "BackendHandle",
    "BackendUnavailableError",
    "KernelBackendWarning",
    "available_backends",
    "get_backend",
    "set_backend",
    "active_backend_name",
    "backend_epoch",
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
_active: KernelBackend | None = None
_warned: set[str] = set()
#: Bumped by every :func:`set_backend` call; cached per-object backend
#: bindings (:class:`BackendHandle`) revalidate against it, so pinning a
#: new process backend still takes effect on live models while the
#: steady-state resolution cost drops to one integer comparison.
_epoch: int = 0


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
        ``None`` follows the process default (:func:`set_backend`, then
        the ``REPRO_KERNEL_BACKEND`` environment variable, then
        ``"auto"``).  ``"auto"`` picks ``c`` when available, else
        ``numpy``.
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
        if _active is not None:
            return _active
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


def set_backend(name: str | None) -> KernelBackend:
    """Pin the process-wide backend; returns the resolved backend.

    ``"auto"`` pins whatever auto-resolution picks *now* (availability
    cannot change mid-process); ``None`` clears the pin, restoring the
    environment-variable / auto flow.  Unavailable or unknown names
    raise :class:`BackendUnavailableError` and leave the pin unchanged.
    """
    global _active, _epoch
    if name is None:
        _active = None
        _epoch += 1
        return get_backend()
    backend = get_backend(name, strict=True)
    _active = backend
    _epoch += 1
    return backend


def active_backend_name() -> str:
    """Name of the backend the process default currently resolves to."""
    return get_backend().name


def backend_epoch() -> int:
    """Monotone counter of process-wide backend changes (see
    :class:`BackendHandle`)."""
    return _epoch


class BackendHandle:
    """A per-object cached backend resolution (the dispatch-free path).

    A model (``ScaledSketchTable``, ``FeatureHashing``) resolves its
    backend once through a handle, which revalidates with a single
    integer comparison against :func:`backend_epoch` instead of a full
    :func:`get_backend` resolution (pin lookup, environment read, dict
    probes) per kernel call, so :func:`set_backend` still retargets
    live models while steady-state dispatch is one attribute load.

    Mid-process *environment-variable* changes are the one thing a
    handle does not observe (plain resolution only reads the variable
    while no pin is active anyway); processes configure the environment
    before building models, and tests use :func:`set_backend`.

    Handles hold a loaded backend (whose compiled kernels are closures
    over a ``dlopen``-ed library), so they must never be pickled:
    owners drop them in ``__getstate__`` and rebuild on load — which
    also re-resolves on the destination host, exactly what a checkpoint
    wants.
    """

    __slots__ = ("name", "_backend", "_epoch")

    def __init__(self, name: str | None = None):
        self.name = name
        self._backend: KernelBackend | None = None
        self._epoch = -1

    def get(self) -> KernelBackend:
        """The resolved backend (one int compare when nothing changed)."""
        if self._epoch != _epoch:
            self._backend = get_backend(self.name, strict=False)
            self._epoch = _epoch
        return self._backend

    def __reduce__(self):  # pragma: no cover - guarded by owners
        raise TypeError(
            "BackendHandle is not picklable; owners must drop it in "
            "__getstate__ and rebuild it on load"
        )
