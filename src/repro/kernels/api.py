"""The uniform kernel API every backend must implement.

A *kernel backend* is a named bundle of the hot inner-loop primitives
the sketch classifiers are built from.  Every backend implements the
same function set (:data:`KERNEL_NAMES`) with the same *bit-level*
semantics — the NumPy backend is the executable reference (the code
extracted verbatim from the pre-kernel classifiers), and every other
backend is fuzz-checked against it in ``tests/test_kernel_backends.py``
before it may be selected.  The contract is the same
sequential-equivalence discipline the batched engine already follows:
identical streams must produce bit-identical tables, heap state and
predictions whichever backend computed them.

Kernel signatures (shapes use ``depth`` = sketch rows, ``nnz`` = number
of key/feature positions in the call):

``tabulation_hash(flat_tables, offsets, keys) -> uint64[nnz]``
    XOR of per-byte table lookups.  ``flat_tables`` is the flattened
    ``(n_bytes, 256)`` uint64 table (byte ``b`` of a key indexes
    ``flat_tables[256 * b + byte]``), ``offsets`` the ``(1, n_bytes)``
    array of ``256 * b`` offsets, ``keys`` a contiguous 1-d uint64
    array.

``polynomial_hash(coeffs, keys) -> array[nnz]``
    Horner evaluation of the degree-(k-1) polynomial over the Mersenne
    prime 2**61 - 1, reproducing the exact (single conditional
    subtract) reduction steps of
    :func:`repro.hashing.universal._mod_mersenne61`.  ``coeffs`` is the
    uint64 coefficient array (c0 first), ``keys`` a 1-d uint64 array.
    Values are equal across backends; the dtype may be ``object`` (the
    reference's exact-int path) or ``uint64`` (compiled 128-bit limb
    arithmetic).

``bucket_sign(h, width, pow2, sign_bit) -> (int64[nnz], float64[nnz])``
    Derive (bucket, sign) pairs from raw 64-bit hash values: bucket
    from the low bits (mask when ``pow2`` else modulo), sign from bit
    ``sign_bit`` mapped to {-1.0, +1.0}.

``gather_rows_t(table_flat, flat_buckets) -> float64[nnz, depth]``
    Transposed table gather ``table_flat.take(flat_buckets.T)`` —
    the (nnz, depth) layout whose per-feature rows are contiguous,
    shared by the margin and median-recovery kernels.

``margin(table_flat, flat_buckets, sign_values, scale, sqrt_s) -> float``
    The linear margin ``scale * sum(table[b] * sv) / sqrt_s`` with an
    *exactly rounded* sum (``math.fsum`` semantics), so the result is
    independent of summation order and buffer alignment.

``margin_gathered(gathered, sign_values, scale, sqrt_s) -> float``
    Same margin from an already-gathered cell block (the AWM kernel
    shares one transposed gather between margin and tail queries).

``scatter_add(table_flat, flat_buckets, deltas) -> None``
    ``np.add.at`` semantics: accumulate ``deltas`` into ``table_flat``
    at ``flat_buckets``, duplicates folding in C element order.

``median_estimate(gathered_t, signs_t, factor) -> float64[nnz]``
    Count-Sketch recovery: per-feature median over rows of
    ``signs_t * gathered_t`` (both ``(nnz, depth)``), times ``factor``.
    ``depth == 1`` skips the sort; even depths average the two middle
    values as ``0.5 * (a + b)``.

``estimate_bound(table_flat, flat_buckets) -> float``
    ``max |table_flat[flat_buckets]|`` — the cheap upper bound that
    lets the WM maintain loop skip recovery when no estimate could
    beat the admission threshold.  ``flat_buckets`` must be non-empty.

``screen_abs_gt(values, threshold) -> integer[m]``
    Ascending positions where ``|values| > threshold`` — the admission
    screen of the WM maintain loop, the AWM tail-promotion screen and
    the top-K store's ``push_many`` pre-screen (abs priority).

Fused mega-kernels (PR 5)
-------------------------
The three ``fused_*`` kernels collapse whole per-example chains of the
primitives above into one backend call over caller-provided
(workspace-preallocated) buffers.  Their contract is *compositional*:
each is bit-identical to the documented sequence of primitive kernels,
which is what the fuzz suite (``tests/test_fused_kernels.py``) checks —
the NumPy implementations are literally composed from the reference
primitives, and the C backend re-derives the same floats.  All of
them take a trailing float64 ``scratch`` parameter reserved for
backends that want caller-owned intermediates; **it may be (and in
this repository always is) size 0** — the shipped backends keep their
per-example intermediates internal, and a backend that wants to use
``scratch`` must size-check it and allocate its own buffers when it is
too small.

Loss derivatives are selected by an integer ``loss_id`` matching
:attr:`repro.learning.losses.Loss.kernel_id` (0 logistic, 1 smoothed
hinge with ``loss_param`` = gamma, 2 hinge, 3 squared); a loss without
a ``kernel_id`` simply keeps the unfused path.

``fused_update(table_flat, flat_buckets, sign_values, indptr, labels,
etas, lam, scale, sqrt_s, loss_id, loss_param, margins_out,
gathered_out, scales_out, scratch, touched_out) -> float``
    One mini-batch of sequential OGD updates: per example ``i`` (CSR
    slice ``indptr[i]:indptr[i+1]``) compute the exactly-rounded margin
    (the ``margin`` kernel), the loss derivative, the lazy L2 decay of
    ``scale`` (with the 1e-150 underflow renormalization folded into
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
sqrt_s, out, scratch) -> None``
    Read-only batch margins: ``out[i]`` is exactly the ``margin``
    kernel's result for example ``i``'s slice — bit-identical to
    per-example ``predict_margin``, so serving responses do not depend
    on how requests were batched.

``fused_query(table_flat, flat_buckets, signs_t, factor, gathered_out,
est_out, scratch) -> None``
    Recovery queries: one transposed gather (``gather_rows_t``) written
    to ``gathered_out`` plus the ``median_estimate`` of
    ``signs_t * gathered`` times ``factor`` written to ``est_out``.
    Callers that need both the raw cells and the estimates (the
    serving ``query_many``) get them from a single call.

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
KERNEL_NAMES = (
    "tabulation_hash",
    "polynomial_hash",
    "bucket_sign",
    "gather_rows_t",
    "margin",
    "margin_gathered",
    "scatter_add",
    "median_estimate",
    "estimate_bound",
    "screen_abs_gt",
    "fused_update",
    "fused_predict",
    "fused_query",
)

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
        Registry name (``"numpy"``, ``"c"``, ...).
    compiled:
        Whether the kernels run outside the interpreter (informational;
        surfaced in benchmark metadata and checkpoints).
    functions:
        Mapping from kernel name to callable; must cover
        :data:`KERNEL_NAMES` exactly (extras are rejected so a typo in
        a backend module fails loudly at registration, not at dispatch).
    """

    def __init__(self, name: str, compiled: bool, functions: dict):
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
        self.compiled = compiled
        for kernel_name in KERNEL_NAMES:
            setattr(self, kernel_name, functions[kernel_name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "compiled" if self.compiled else "interpreted"
        return f"<KernelBackend {self.name!r} ({kind})>"
