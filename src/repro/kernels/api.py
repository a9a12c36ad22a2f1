"""The kernel API every backend implements: the compiled loops.

A *kernel backend* is a named table of the ten loops this repository
compiles: WM's fused training loop, the two serving reads (a batch's
margins and a key set's weight estimates, WM and AWM alike), WM's
passive-heap maintain, AWM's Algorithm 2 step against a full active
set, the parameter-server codec's four chunk moves (the push's encode
and apply, the pull's gather and its scatter into a worker's table and
sync base), and the (bucket, sign) hashing every trainer and reader
runs (:data:`KERNEL_NAMES`).  Every backend implements them with the same
*bit-level* semantics.  The NumPy backend is the executable reference,
and the compiled ``c`` backend is checked against it in
``tests/test_kernel_backends.py`` (hypothesis properties over
adversarial inputs).  The contract is the batched engine's
sequential-equivalence discipline: identical streams produce
bit-identical tables, heap state and predictions whichever backend
computed them.

The helpers no backend compiles (the exactly rounded ``margin``, the
``scatter_add`` scatter, the transposed gather, median recovery and its
scalar form, the estimate bound, the admission screen and the chunk-map
translation) are plain functions of :mod:`repro.kernels.numpy_backend`,
called by name.

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
hinge with ``loss_param`` = gamma, 2 hinge, 3 squared); a model whose
loss has no ``kernel_id`` trains through the per-example spec instead.

``fused_update(table_flat, flat_buckets, sign_values, indptr, labels,
etas, lam, state, sqrt_s, loss_id, loss_param, margins_out,
gathered_out, scales_out, touched_out) -> None``
    One mini-batch of sequential OGD updates: per example ``i`` (CSR
    slice ``indptr[i]:indptr[i+1]``) compute the exactly-rounded margin
    (``numpy_backend.margin``), the loss derivative, the lazy L2 decay
    of the scale (with the 1e-150 underflow renormalization folded into
    ``table_flat``), and the eta-scaled ``scatter_add`` — state
    bit-identical to per-example ``update()`` calls.  ``state``
    (float64 ``[scale, examples completed]``) holds the starting scale;
    once the arguments pass the checks it receives the scale reached
    and the number of examples completed, on a raise too (see the
    exceptions below), so the caller can apply exactly the completed
    examples.  Pre-update margins land in ``margins_out``.  When
    ``gathered_out`` is non-empty
    (shape ``(nnz, depth)``), the example's *post-update* table cells
    are recorded into its rows and the post-decay scale into
    ``scales_out[i]`` — exactly what the decoupled WM heap-maintain
    pass needs to replay admission decisions bit-identically.

    ``touched_out`` is the int64 dirty-set recording stream (the
    fourth recorded stream, alongside margins / gathers / scales; same
    bit-equivalence obligations), at least ``1 + depth * nnz`` long
    (``nnz = indptr[n] - indptr[0]``).  ``touched_out[0]`` receives the
    number of underflow renormalizations the call performed (a fold
    rewrites *every* bucket, so callers tracking dirtiness must mark
    the whole table when it is nonzero — the scale-comparison shortcut
    is not exact over pathological batch lengths), and
    ``touched_out[1:1 + depth * nnz]`` every scattered flat bucket
    index, in the exact element order the scatters applied them
    (duplicates included).  A shorter buffer raises ``ValueError``.

    Both bodies raise ``ValueError`` before writing anything for an
    unknown ``loss_id`` (or a smoothed-hinge gamma <= 0), then for an
    ``indptr`` that is not non-decreasing within ``[0,
    flat_buckets.shape[1]]`` (``numpy_backend.check_indptr``, which
    ``fused_predict`` runs on its ``indptr`` too), then for a short
    ``touched_out``,
    then for a recording ``gathered_out`` / ``scales_out`` too short
    for the batch.

    Callers must pre-validate ``eta * lam < 1`` for the whole window
    (the per-example spec raises mid-batch; the fused kernel assumes
    validity).

Serving reads
-------------
Each read answers one coalescer flush in one call: it hashes the
request's keys (``hash_rows``' steps), translates their flat buckets
through a chunk-pooled snapshot's chunk map, gathers the cells and takes
the signed median or the exact margin.  The shared arguments:

* ``hasher``, the model's :class:`~repro.hashing.batch.BatchHasher`
  (for a snapshot, the manager's reader hasher).  Its counters advance
  as the numpy body's lookups do: the numpy body hashes through
  ``hasher.rows_into`` (the memo), the ``c`` body evaluates the family
  itself and counts every hashed position as a miss.
* ``table_flat``, the raw flat table, or a chunk-pooled snapshot's
  raveled pool with ``chunk_map`` its chunk -> pool-row map (``None``
  for a dense table): flat bucket ``f`` reads cell ``(chunk_map[f >>
  CHUNK_LOG] << CHUNK_LOG) | (f & (CHUNK - 1))``
  (``numpy_backend.translate_flat``); a cell outside the table raises
  ``IndexError``, as numpy's ``take`` does.
* ``store``, ``None``, or the :class:`~repro.heap.topk.TopKStore` whose
  members are answered exactly (the AWM active set): a key the store
  holds reads ``raw[slot] * scale`` (``TopKStore.values_at``), found by
  binary search over the store's sorted live keys in C.
* ``ws``, the model's :class:`~repro.kernels.workspace.KernelWorkspace`
  (scratch the ``c`` body length-checks; it allocates nothing else).

``fused_predict(hasher, table_flat, chunk_map, store, indices, values,
indptr, scale, sqrt_s, ws, out) -> None``
    Batch margins of the CSR rows ``indices`` / ``values`` / ``indptr``
    (int64, float64, int64; ``out`` float64 of ``n`` rows).  Without a
    store, ``out[i]`` is ``numpy_backend.margin`` of row ``i``: ``scale
    * fsum(cell * (sign * value)) / sqrt_s`` over the ``(depth,
    nnz_i)`` block in C order — bit-identical to per-example
    ``predict_margin``, so serving responses do not depend on how
    requests were batched.  With one, ``AWMSketch.predict_margin``'s
    order: a running sum from ``0.0`` of ``raw * scale * value`` over
    the members in position order, then ``+=`` that margin over the
    other positions when there are any.  ``indptr`` is checked first
    (``ValueError``, nothing hashed or written); then every position
    is hashed, members included.  An ``fsum`` error raises at its
    example, with the earlier rows written.

``fused_query(hasher, table_flat, chunk_map, store, keys, factor, l1, ws,
out) -> None``
    Weight estimates of ``keys`` (int64, 1-d; ``out`` float64 of the
    same length): a store member's exact value, else the median over
    rows of ``sign * cell`` (``numpy_backend.median_estimate``'s stable
    NaN-last order, ``(a + b) * 0.5`` at even depth), times ``factor``,
    then the soft threshold ``sign(e) * max(|e| - l1, 0)`` when ``l1 >
    0`` — bit-identical to ``estimate_weights`` key by key.  Only the
    keys the store does not hold are hashed.

Both ``c`` wrappers raise ``TypeError`` for wrong dtypes and
``ValueError`` for inconsistent shapes before calling C.

WM passive-heap maintain
------------------------
``heap_maintain(store, indices, indptr, signs, gathered, scales, sqrt_s,
l1, ws) -> None``
    The heap refresh and admissions per-example ``update()`` makes
    after each example of one batch, replayed in stream order from a
    ``fused_update`` recording.  ``store`` is the model's
    :class:`~repro.heap.topk.TopKStore` (default ``abs`` priority);
    ``indices`` (int64, ``nnz``) and ``indptr`` (int64, ``n + 1``,
    non-decreasing within ``[0, nnz]``) are the batch's CSR feature
    ids; ``signs`` (float64, ``(depth, nnz)``) their hash signs;
    ``gathered`` (float64, ``(nnz, depth)``) and ``scales`` (float64,
    at least ``n``) the recorded post-update cells and scales; ``ws``
    the model's :class:`~repro.kernels.workspace.KernelWorkspace`.

    A position's estimate is the ``numpy_backend.median_estimate``
    value of ``signs.T * gathered`` (its stable row sort: ``+-0`` ties
    keep row order, NaN sorts last; ``(a + b) * 0.5`` at even depth),
    times ``scales[i]`` (``scales[i] * sqrt_s`` at depth > 1), then the
    soft threshold ``sign(e) * max(|e| - l1, 0)`` when ``l1 > 0``.
    Each example then runs ``numpy_backend.maintain_decide`` on those
    estimates: members (keys stored at the start of the example) take
    their estimate, the last write to a slot winning; while the store
    has free slots every position is pushed in order; once it is full,
    each non-member whose ``|estimate|`` beats the threshold left by
    the refresh re-checks the live minimum and replaces the first
    minimal slot (ties reject; a NaN minimum admits nothing).  The
    store ends bit-identical on both backends: slot order, raw bits,
    the key -> slot map, ``version``, the promotion log, and the entry
    its cached minimum names (NaN bits as in the module's rule below).

    The numpy body replays that core only where an admission is
    possible (a screen against a lower bound on the threshold).  The
    ``c`` backend runs the same core in Python until the store is
    full, then one C loop from the first example that meets a full
    store: it writes the store's ``_keys`` / ``_raw`` in place and
    returns its admissions in order as ``(key, evicted key, slot)``
    rows, which ``TopKStore.apply_admissions`` applies to the rest of
    the store.  The ``c`` wrapper raises ``TypeError`` for wrong dtypes
    and ``ValueError`` for inconsistent shapes, a store not ordered by
    ``abs``, an ``indptr`` out of range or decreasing, or a store whose
    live keys are not distinct, all before anything is written.

AWM-Sketch step
---------------
``awm_update(store, batch, start, etas, flat, signs, sv, key_flat,
key_signs, table_flat, lam, sqrt_s, l1, loss_id, loss_param, state,
progress, margins_out, dirty, ws) -> None``
    Algorithm 2 for examples ``start .. n-1`` of ``batch`` (a
    :class:`~repro.data.batch.SparseBatch`, so keys are distinct within
    an example), bit-identical to per-example ``AWMSketch.update()``
    calls from the first example that meets a full active set.
    ``store`` is the model's :class:`~repro.heap.topk.TopKStore`, full
    and ordered by ``abs``; ``etas`` (float64, ``n``) the learning rate
    of each example, validated by the caller (``eta * lam < 1``);
    ``flat`` / ``signs`` / ``sv`` (``(depth, nnz)``) the batch's flat
    buckets, hash signs and sign * value products; ``key_flat`` /
    ``key_signs`` (``(depth, capacity)``, int64 / float64, written) the
    same rows for the key in each store slot, which the kernel
    overwrites with an admitted key's rows; ``table_flat`` the raw table
    (written).  ``state`` (float64 ``[scale, fold log]``) and
    ``progress`` (int64 ``[examples completed, promotions]``) are read
    and advanced; ``margins_out[i]`` receives example ``i``'s
    pre-update margin; ``dirty`` (bool, one flag per :data:`CHUNK`
    cells) gains the chunk of every evictee-fold cell, and every chunk
    on a table fold (the caller marks the batch's own buckets).

    Per example: membership at its start (members are keys stored
    then); the margin, a running sum from ``0.0`` of ``(raw * store
    scale) * value`` over members in position order plus ``scale *
    fsum(cell * sv) / sqrt_s`` over the tail, row by row; ``dloss``; the
    store's and the table's lazy decay by ``1 - eta * lam``, each
    folding at :data:`RENORM_THRESHOLD` (the store's live prefix; the
    whole table, adding ``log(scale)`` to the fold log); the member
    step in ``add_many``'s element order; each tail key's estimate
    (``numpy_backend.median_estimate`` of its signed cells, factor
    ``scale`` at depth 1 and ``sqrt_s * scale`` above, then the l1 soft
    threshold) minus ``step * value``; a screen against the threshold
    left by the member step, then for each survivor in position order
    a re-check of the live minimum, replacing the first minimal slot
    (ties reject, a NaN minimum admits nothing) and folding the
    evictee's exact weight minus its estimate (factor ``sqrt_s *
    scale``) into its cells; and the stay-scatter of the tail keys not
    promoted, ``-step / (sqrt_s * scale) * sv`` one row at a time.

    The store ends as the same ``replace_min`` calls leave it: slot
    order, raw bits, scale, the key -> slot map, ``version``, the
    promotion log, and the entry its cached minimum names.  The ``c``
    body builds a probe table over the live keys per call, writes
    ``_keys`` / ``_raw`` in place and hands its admissions to
    ``TopKStore.apply_admissions`` as ``(key, evicted key, slot)`` rows,
    on a raising status too.  An ``fsum`` error stops both bodies
    before the failing example changes anything, with ``state``,
    ``progress``, the margins, the store and the dirty flags covering
    the completed examples.  Both raise ``ValueError`` for a store that
    is not full or not ordered by ``abs`` and a ``start`` outside ``[0,
    n]``, and ``IndexError`` for a bucket outside the table, before
    writing anything; the ``c`` wrapper also raises ``TypeError`` for
    wrong dtypes and ``ValueError`` for inconsistent shapes or a store
    whose live keys are not distinct.

Parameter-server chunk codec
----------------------------
The four chunk kernels move whole :data:`CHUNK`-cell chunks of a flat
float64 table (a table of ``size`` cells has ``ceil(size / CHUNK)``
chunks; the last one is partial when ``size`` is not a multiple of
:data:`CHUNK`).  ``chunk_ids`` must be a 1-d int64 array, strictly
increasing within ``[0, n_chunks)``; message rows are a C-contiguous
``(k, CHUNK)`` float64 block, one row per id.  Both backends check all
of this before writing anything and raise ``ValueError`` with the same
message (``numpy_backend.check_chunk_ids`` / ``check_chunk_buffers``);
a written buffer that is not writable and C-contiguous is an error,
never a silent copy, and so is a written buffer that may share memory
(``np.may_share_memory``) with any other argument.  The compiled
``chunk_delta`` and ``chunk_add`` run full chunks through fixed-length
row loops the compiler vectorizes; the lanes do the same rounded
operation per cell as the scalar loop of a partial last chunk.

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

``chunk_gather(table_flat, chunk_ids, out) -> None``
    The pull encode: ``out`` row ``i`` receives the bits of the named
    chunk's cells of ``table_flat``; the padded tail of a partial last
    chunk receives ``+0.0``, and nothing else of ``out`` is pre-filled.

``chunk_scatter(table_flat, base_flat, chunk_ids, data) -> None``
    The pull apply: each named chunk's cells of ``table_flat`` and of
    ``base_flat`` (the worker's sync base, shaped like the table) both
    receive the bits of row ``i`` of ``data`` (a partial last chunk its
    row's head), in one pass.

Hashing
-------
``hash_rows(hasher, keys, buckets_out, signs_out) -> None``
    ``hasher.family.all_rows(keys)`` written bit for bit into
    ``buckets_out`` / ``signs_out``: writable C-contiguous ``(depth,
    len(keys))`` int64 / float64 arrays; ``keys`` is a 1-d int64 array
    (negative keys hash as their uint64 two's complement, repeats and
    ``n = 0`` allowed).  ``hasher`` is the calling
    :class:`~repro.hashing.batch.BatchHasher`, which every trainer and
    reader hashes through.  Both bodies raise ``TypeError`` for wrong
    dtypes and ``ValueError`` for wrong shapes or a non-contiguous or
    read-only output before writing anything
    (``repro.hashing.batch.check_rows_buffers``).  The numpy body is
    the hasher's set-associative memo, whose misses call
    ``family.all_rows``; it counts hits and misses.  The ``c`` body
    evaluates the family in one C loop over its packed tables
    (``HashFamily.packed``), allocates nothing, never builds the memo,
    and counts every position as a miss.  Tabulation XORs the row's
    byte tables over the key's little-endian bytes; polynomial runs
    Horner's rule with ``_mod_mersenne61``'s exact steps (one fold,
    then at most one subtraction of ``2**61 - 1``, not a canonical
    reduction).  The bucket is ``h & (width - 1)`` at a power-of-two
    width, else ``h % width``; the sign is bit 45 mapped to +-1.0.

When both operands of one operation are NaN with different bits,
which of them the result carries is unspecified (numpy's own pick
depends on the array length).

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
    "fused_update", "fused_predict", "fused_query", "heap_maintain",
    "awm_update", "chunk_delta", "chunk_add", "chunk_gather",
    "chunk_scatter", "hash_rows",
)

#: Cells per chunk of the dirty bitmap and of the delta codec's wire
#: rows (``repro.core.sketch_table`` tracks dirtiness per chunk).
CHUNK_LOG = 8
CHUNK = 1 << CHUNK_LOG

#: The lazy-scale underflow threshold shared with the classifiers
#: (``repro.core.sketch_table._RENORM_THRESHOLD``); the fused update
#: kernels renormalize at exactly this boundary so fused and
#: per-example replays fold the scale into the table on the same step.
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
