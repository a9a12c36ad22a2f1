"""Per-model preallocated buffers for the fused kernels.

The batched update path used to materialize a fresh chain of
temporaries every mini-batch — hash words, bucket/sign expansions,
sign*value products, flattened bucket offsets, margin product blocks,
gradient scatters, gathered recovery cells.  All of those buffers have
the same lifetime (one ``fit_batch`` / ``predict_batch`` /
``query_many`` call) and a slowly-varying size (the batch's nnz), so a
:class:`KernelWorkspace` keeps one *grow-only* arena per named buffer
and hands out views: steady-state batches perform **zero** new
allocations on the fused path (measured by
``benchmarks/bench_allocations.py`` and gated by
``tests/test_allocations.py``).

Rules of use
------------

* A buffer named ``name`` is a contiguous view of a grow-only backing
  array; requesting a larger size reallocates the backing (geometric
  growth), a smaller size returns a leading view.  Contents are
  **undefined** on acquisition — callers must fully overwrite what they
  read.
* Views are only valid until the next request for the *same name*; hot
  paths acquire everything up front, which also means two overlapping
  uses of one model's workspace (e.g. re-entrant ``fit_batch``) are a
  caller bug, not a supported pattern.  The classifiers are
  single-threaded per model (the parallel subsystem shards *models*,
  not calls), so this never bites in practice.
* Workspaces are pure caches: they are dropped on pickling
  (``__getstate__`` of the owning model) and lazily rebuilt on first
  use after load, exactly like the hash cache — a checkpoint carries
  no workspace bytes.
"""

from __future__ import annotations

import numpy as np

#: Empty singletons handed to ``fused_update`` when gather recording is
#: off (the kernel branches on ``gathered_out.shape[0] > 0``).
EMPTY_GATHER = np.empty((0, 1), dtype=np.float64)
EMPTY_SCALES = np.empty(0, dtype=np.float64)


class KernelWorkspace:
    """Named grow-only buffer arena (see the module docstring)."""

    __slots__ = ("_arenas", "grown")

    def __init__(self):
        self._arenas: dict[str, np.ndarray] = {}
        #: Diagnostics: how many times any arena had to (re)grow; flat
        #: after warmup on a steady stream.
        self.grown = 0

    def array(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
    ) -> np.ndarray:
        """A contiguous ``shape``-sized view of the ``name`` arena.

        The arena grows geometrically (never shrinks); the returned
        view's contents are undefined.
        """
        flat = isinstance(shape, int)
        if flat:
            size = shape
        else:
            size = 1
            for dim in shape:
                size *= dim
        arena = self._arenas.get(name)
        if arena is None or arena.size < size or arena.dtype != dtype:
            capacity = max(size, 2 * (arena.size if arena is not None else 0))
            arena = np.empty(capacity, dtype=dtype)
            self._arenas[name] = arena
            self.grown += 1
        # A 1-d request is the slice itself (reshape would triple the
        # cost of a hot-path call).
        return arena[:size] if flat else arena[:size].reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held by all arenas (diagnostics)."""
        return sum(a.nbytes for a in self._arenas.values())

    def __reduce__(self):  # pragma: no cover - guarded by owners
        raise TypeError(
            "KernelWorkspace is a per-process cache and is not "
            "picklable; owners must drop it in __getstate__ and "
            "rebuild it lazily"
        )
