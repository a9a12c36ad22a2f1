"""The kernel API every backend implements: the compiled loops.

A *kernel backend* is a named table of the loops this repository
compiles: WM's fused training and prediction loops and the
parameter-server push codec's chunk encode and apply
(:data:`KERNEL_NAMES`).  Every backend implements them with the same
*bit-level* semantics.  The NumPy backend is the executable reference,
and the compiled ``c`` backend is checked against it in
``tests/test_kernel_backends.py`` (hypothesis properties over
adversarial inputs).  The contract is the batched engine's
sequential-equivalence discipline: identical streams produce
bit-identical tables, heap state and predictions whichever backend
computed them.

The helpers no backend compiles (the exactly rounded ``margin``, the
``scatter_add`` scatter, the transposed gather, median recovery, the
estimate bound, the admission screen and the ``fused_query`` read) are
plain functions of :mod:`repro.kernels.numpy_backend`, called by name.

Shapes below use ``depth`` = sketch rows and ``nnz`` = number of
key/feature positions in the call.

Fused loops
-----------
Each fused loop runs a whole per-example chain over caller-provided
(workspace-preallocated) buffers.  The contract is *compositional*:
each is bit-identical to the documented sequence of the NumPy helpers,
which ``tests/test_fused_kernels.py`` checks; the NumPy bodies inline
those helpers and the C bodies re-derive the same floats.

Loss derivatives are selected by an integer ``loss_id`` matching
:attr:`repro.learning.losses.Loss.kernel_id` (0 logistic, 1 smoothed
hinge with ``loss_param`` = gamma, 2 hinge, 3 squared); a loss without
a ``kernel_id`` simply keeps the unfused path.

``fused_update(table_flat, flat_buckets, sign_values, indptr, labels,
etas, lam, scale, sqrt_s, loss_id, loss_param, margins_out,
gathered_out, scales_out, touched_out) -> float``
    One mini-batch of sequential OGD updates: per example ``i`` (CSR
    slice ``indptr[i]:indptr[i+1]``) compute the exactly-rounded margin
    (``numpy_backend.margin``), the loss derivative, the lazy L2 decay
    of ``scale`` (with the 1e-150 underflow renormalization folded into
    ``table_flat``), and the eta-scaled ``scatter_add`` — state
    bit-identical to the unfused per-example chain.  Pre-update margins
    land in ``margins_out``.  When ``gathered_out`` is non-empty
    (shape ``(nnz, depth)``), the example's *post-update* table cells
    are recorded into its rows and the post-decay scale into
    ``scales_out[i]`` — exactly what the decoupled WM heap-maintain
    pass needs to replay admission decisions bit-identically.

    ``touched_out`` is the int64 dirty-set recording stream (the
    fourth recorded stream, alongside margins / gathers / scales; same
    bit-equivalence obligations).  Size 0
    (:data:`repro.kernels.workspace.EMPTY_TOUCHED`) disables it.  Size
    >= 1: ``touched_out[0]`` receives the number of underflow
    renormalizations the call performed (a fold rewrites *every*
    bucket, so callers tracking dirtiness must mark the whole table
    when it is nonzero — the scale-comparison shortcut is not exact
    over pathological batch lengths).  Size >= ``1 + depth * nnz``
    (``nnz = indptr[n] - indptr[0]``): additionally records every
    scattered flat bucket index, in the exact element order the
    scatters applied them (duplicates included), into
    ``touched_out[1:1 + depth * nnz]``.  Sizes strictly between 1 and
    the full recording length are a caller error and raise
    ``ValueError`` (the C backend before touching anything).

    Returns the final scale.  Callers must pre-validate ``eta * lam <
    1`` for the whole window (the unfused chain raises mid-batch; the
    fused kernel assumes validity).

``fused_predict(table_flat, flat_buckets, sign_values, indptr, scale,
sqrt_s, out) -> None``
    Read-only batch margins: ``out[i]`` is exactly
    ``numpy_backend.margin`` of example ``i``'s slice — bit-identical
    to per-example ``predict_margin``, so serving responses do not
    depend on how requests were batched.

Parameter-server push codec
---------------------------
The two chunk kernels move whole :data:`CHUNK`-cell chunks of a flat
float64 table (a table of ``size`` cells has ``ceil(size / CHUNK)``
chunks; the last one is partial when ``size`` is not a multiple of
:data:`CHUNK`).  ``chunk_ids`` must be a 1-d int64 array, strictly
increasing within ``[0, n_chunks)``; message rows are a C-contiguous
``(k, CHUNK)`` float64 block, one row per id.  Both backends check all
of this before writing anything and raise ``ValueError`` with the same
message (``numpy_backend.check_chunk_ids`` / ``check_chunk_buffers``);
a written buffer that is not writable and C-contiguous is an error,
never a silent copy.

``chunk_delta(table_flat, base_flat, chunk_ids, alpha, drift, out)
-> None``
    The push encode: for each named chunk, ``out`` row ``i`` receives
    ``alpha * cur - drift * base`` (``cur - base`` when ``alpha ==
    drift == 1.0``), where ``cur`` / ``base`` are the chunk's cells in
    ``table_flat`` / ``base_flat``, and the chunk's ``base_flat`` cells
    then receive ``cur``'s bits.  The padded tail of a partial last
    chunk computes the same formula on zeros (``+0.0`` for the positive
    finite factors the codec passes).  ``base_flat`` has the table's
    shape.

``chunk_add(table_flat, chunk_ids, data, scale) -> None``
    The push apply: each named chunk's cells of ``table_flat`` gain
    row ``i`` of ``data`` (``t + u`` when ``scale == 1.0``, else
    ``t + u / scale``); a partial last chunk's padded tail is ignored.

Exact sums follow ``math.fsum`` on every input, non-finite values
included: zero partials are dropped (so a sum of ``-0.0`` terms is
``+0.0``), ``+-inf`` and NaN pass through, ``inf + -inf`` raises
``ValueError`` and intermediate overflow of finite terms raises
``OverflowError``.  A backend raises what the NumPy reference raises
at the same example (``IndexError`` for a bucket outside the table),
leaving the same partial state behind.
"""

from __future__ import annotations

#: Every kernel a backend must provide, in documentation order.
KERNEL_NAMES = ("fused_update", "fused_predict", "chunk_delta", "chunk_add")

#: Cells per chunk of the dirty bitmap and of the delta codec's wire
#: rows (``repro.core.sketch_table`` tracks dirtiness per chunk).
CHUNK_LOG = 8
CHUNK = 1 << CHUNK_LOG

#: The lazy-scale underflow threshold shared with the classifiers
#: (``repro.core.sketch_table._RENORM_THRESHOLD``); the fused update
#: kernels renormalize at exactly this boundary so fused and unfused
#: replays fold the scale into the table on the same step.
RENORM_THRESHOLD = 1e-150


class KernelBackend:
    """A named, complete bundle of kernel implementations.

    Parameters
    ----------
    name:
        Registry name (``"numpy"`` or ``"c"``).
    functions:
        Mapping from kernel name to callable; must cover
        :data:`KERNEL_NAMES` exactly (extras are rejected so a typo in
        a backend module fails loudly at registration, not at dispatch).
    """

    def __init__(self, name: str, functions: dict):
        missing = set(KERNEL_NAMES) - set(functions)
        if missing:
            raise ValueError(
                f"backend {name!r} is missing kernels: {sorted(missing)}"
            )
        extra = set(functions) - set(KERNEL_NAMES)
        if extra:
            raise ValueError(
                f"backend {name!r} defines unknown kernels: {sorted(extra)}"
            )
        self.name = name
        for kernel_name in KERNEL_NAMES:
            setattr(self, kernel_name, functions[kernel_name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"
