"""The NumPy reference backend, and the helpers no backend compiles.

The four kernels of :data:`repro.kernels.api.KERNEL_NAMES`
(``fused_update``, ``fused_predict``, ``chunk_delta``, ``chunk_add``)
are the executable specification the compiled ``c`` backend is checked
against.  The other functions here are plain helpers with one
implementation, which WM, AWM, feature hashing, the sketch table and
the top-K store import and call by name: the exactly rounded margin,
the element-order scatter, the transposed gather, median recovery, the
estimate bound, the admission screen and the ``fused_query`` read.
Their bodies were extracted verbatim from the pre-kernel classifiers,
and the bit-level guarantees of the batched engine (exactly rounded
``fsum`` margins, layout-deterministic ``ufunc.at`` scatters,
transposed-sort medians) are documented where they sit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kernels.api import CHUNK, CHUNK_LOG, KERNEL_NAMES, KernelBackend


def gather_rows_t(
    table_flat: np.ndarray, flat_buckets: np.ndarray
) -> np.ndarray:
    """Transposed table gather ``table_flat.take(flat_buckets.T)``:
    the ``(nnz, depth)`` layout whose per-feature rows are contiguous,
    shared by the margin and median-recovery helpers."""
    # take() materializes (nnz, depth) C-contiguous, so each feature's
    # row values are adjacent — the layout the median kernel sorts.
    return table_flat.take(flat_buckets.T)


def margin(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    sign_values: np.ndarray,
    scale: float,
    sqrt_s: float,
) -> float:
    """The linear margin ``scale * sum(table[b] * sv) / sqrt_s``.

    ``math.fsum`` is *exactly* rounded, so the sum is independent of
    summation order and buffer alignment (NumPy's SIMD ``.sum()`` is
    not) — per-example and batched replays stay bit-identical."""
    products = table_flat.take(flat_buckets) * sign_values
    return scale * math.fsum(products.ravel().tolist()) / sqrt_s


def margin_gathered(
    gathered: np.ndarray,
    sign_values: np.ndarray,
    scale: float,
    sqrt_s: float,
) -> float:
    """:func:`margin` from an already-gathered cell block (the AWM loop
    shares one transposed gather between margin and tail queries)."""
    products = gathered * sign_values
    return scale * math.fsum(products.ravel().tolist()) / sqrt_s


def scatter_add(
    table_flat: np.ndarray, flat_buckets: np.ndarray, deltas: np.ndarray
) -> None:
    """Accumulate ``deltas`` into ``table_flat`` at ``flat_buckets``:
    one buffered ``np.add.at``, so duplicate buckets fold in C element
    order, the order of a per-row loop (layout-deterministic)."""
    np.add.at(table_flat, flat_buckets, deltas)


def median_estimate(
    gathered_t: np.ndarray, signs_t: np.ndarray, factor: float
) -> np.ndarray:
    """Count-Sketch recovery: the per-feature median over rows of
    ``signs_t * gathered_t`` (both ``(nnz, depth)``), times ``factor``.
    Depth 1 skips the sort; even depths average the two middle values
    as ``0.5 * (a + b)``."""
    depth = gathered_t.shape[1]
    if depth == 1:
        return factor * (signs_t[:, 0] * gathered_t[:, 0])
    # In-place row sort plus a middle-column pick selects the exact
    # same values as np.median without its per-call dispatch overhead.
    rows = signs_t * gathered_t
    rows.sort(axis=1)
    mid = depth // 2
    if depth % 2:
        med = rows[:, mid]
    else:
        med = 0.5 * (rows[:, mid - 1] + rows[:, mid])
    return factor * med


def estimate_bound(
    table_flat: np.ndarray, flat_buckets: np.ndarray
) -> float:
    """``max |table_flat[flat_buckets]|``, the cheap bound that lets the
    WM maintain loop skip recovery when no estimate could beat the
    admission threshold.  ``flat_buckets`` must be non-empty."""
    return float(np.abs(table_flat.take(flat_buckets)).max())


def screen_abs_gt(values: np.ndarray, threshold: float) -> np.ndarray:
    """Ascending positions where ``|values| > threshold`` (strictly: a
    tie is rejected) — the admission screen of the WM maintain loop,
    the AWM tail-promotion screen and ``TopKStore.push_many``."""
    return np.flatnonzero(np.abs(values) > threshold)


# ----------------------------------------------------------------------
# Fused loops: the per-example chains composed from the helpers above,
# over the caller's batch-lifetime buffers.  Loss derivatives come from
# the *actual* loss classes, so fused and unfused replays run literally
# the same ``dloss`` code.
# ----------------------------------------------------------------------

def _loss_object(loss_id: int, loss_param: float):
    from repro.learning import losses as _losses

    if loss_id == 0:
        return _LOSS_SINGLETONS.setdefault(0, _losses.LogisticLoss())
    if loss_id == 1:
        key = (1, loss_param)
        obj = _LOSS_SINGLETONS.get(key)
        if obj is None:
            obj = _losses.SmoothedHingeLoss(loss_param)
            _LOSS_SINGLETONS[key] = obj
        return obj
    if loss_id == 2:
        return _LOSS_SINGLETONS.setdefault(2, _losses.HingeLoss())
    if loss_id == 3:
        return _LOSS_SINGLETONS.setdefault(3, _losses.SquaredLoss())
    raise ValueError(f"unknown loss_id {loss_id}")


_LOSS_SINGLETONS: dict = {}

#: Same value as kernels.api.RENORM_THRESHOLD / the classifiers'
#: _RENORM_THRESHOLD (kept literal here to mirror the extraction-site
#: constant; equality is asserted by the fuzz suite).
_RENORM = 1e-150


def fused_update(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    sign_values: np.ndarray,
    indptr: np.ndarray,
    labels: np.ndarray,
    etas: np.ndarray,
    lam: float,
    scale: float,
    sqrt_s: float,
    loss_id: int,
    loss_param: float,
    margins_out: np.ndarray,
    gathered_out: np.ndarray,
    scales_out: np.ndarray,
    touched_out: np.ndarray,
) -> float:
    # The exact per-example chain of the unfused fit_batch loop with
    # the margin / scatter bodies inlined (per-example temporaries are
    # fresh arrays: NumPy's small-block allocator beats
    # ``np.take(out=)``'s checked copy path, measured ~20%; the
    # batch-lifetime arrays are the caller's workspace views).
    dloss = _loss_object(loss_id, loss_param).dloss
    record = gathered_out.shape[0] > 0
    n_touched = touched_out.shape[0]
    record_touched = n_touched > 1
    if n_touched > 0:
        touched_out[0] = 0
    pos = 1
    ip = indptr.tolist()
    ys = labels.tolist()
    es = etas.tolist()
    n = margins_out.shape[0]
    fsum = math.fsum
    add_at = np.add.at
    take = table_flat.take
    ascontiguous = np.ascontiguousarray
    lo = ip[0]
    for i in range(n):
        hi = ip[i + 1]
        # A contiguous copy of the example's bucket block lets both the
        # gather and np.add.at take their 1-d fast paths (the flattened
        # C order is the block's C order, so duplicate accumulation and
        # the exactly-rounded margin see the identical element
        # sequence — bit-for-bit the reference kernels' results).
        fb = ascontiguous(flat_buckets[:, lo:hi])
        sv = sign_values[:, lo:hi]
        # margin kernel body, verbatim.
        products = take(fb) * sv
        tau = scale * fsum(products.ravel().tolist()) / sqrt_s
        margins_out[i] = tau
        y = ys[i]
        g = dloss(y * tau)
        eta = es[i]
        if lam > 0.0:
            scale *= 1.0 - eta * lam
            if scale < _RENORM:
                table_flat *= scale
                scale = 1.0
                if n_touched > 0:
                    touched_out[0] += 1
        # scatter_add kernel body: same values, same element order,
        # through the flat fast path.
        deltas = (-eta * y * g / (sqrt_s * scale)) * sv
        add_at(table_flat, fb.reshape(-1), deltas.reshape(-1))
        if record_touched:
            # The dirty-set stream: the scattered indices in the exact
            # element order the ufunc.at applied them.
            flat_fb = fb.reshape(-1)
            touched_out[pos:pos + flat_fb.shape[0]] = flat_fb
            pos += flat_fb.shape[0]
        if record:
            # gather_rows_t, verbatim, into the recording block.
            gathered_out[lo:hi] = take(fb.T)
            scales_out[i] = scale
        lo = hi
    return scale


def fused_predict(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    sign_values: np.ndarray,
    indptr: np.ndarray,
    scale: float,
    sqrt_s: float,
    out: np.ndarray,
) -> None:
    ip = indptr.tolist()
    n = out.shape[0]
    fsum = math.fsum
    take = table_flat.take
    lo = ip[0]
    for i in range(n):
        hi = ip[i + 1]
        products = take(flat_buckets[:, lo:hi]) * sign_values[:, lo:hi]
        out[i] = scale * fsum(products.ravel().tolist()) / sqrt_s
        lo = hi


def fused_query(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    signs_t: np.ndarray,
    factor: float,
    gathered_out: np.ndarray,
    est_out: np.ndarray,
) -> None:
    """Recovery queries: one transposed gather (:func:`gather_rows_t`)
    written to ``gathered_out`` plus the :func:`median_estimate` of
    ``signs_t * gathered`` times ``factor`` written to ``est_out``, so
    a caller that needs both (the serving ``query_many``) makes one
    call."""
    depth = flat_buckets.shape[0]
    # gather_rows_t verbatim, landing in the caller's block.
    gathered_out[:] = table_flat.take(flat_buckets.T)
    if depth == 1:
        # median_estimate's depth-1 branch: factor * (signs * gathered).
        np.multiply(signs_t[:, 0], gathered_out[:, 0], out=est_out)
        est_out *= factor
        return
    # median_estimate body: rows product, in-place row sort, middle pick.
    rows = signs_t * gathered_out
    rows.sort(axis=1)
    mid = depth // 2
    if depth % 2:
        np.multiply(rows[:, mid], factor, out=est_out)
    else:
        np.add(rows[:, mid - 1], rows[:, mid], out=est_out)
        est_out *= 0.5
        est_out *= factor


# ----------------------------------------------------------------------
# Parameter-server push codec: whole-chunk moves between a flat table and
# (k, CHUNK) message rows.  The two kernels are the delta codec's gather
# -> arithmetic -> scatter and the driver's fancy-index add, moved here
# unchanged; the helpers above them are the one copy of the chunk
# geometry and of the argument checks, shared with ScaledSketchTable and
# the c wrappers (which raise the same errors).
# ----------------------------------------------------------------------

def chunk_ids_error(entry: int, k: int, n_chunks: int) -> ValueError:
    """The error for bad entry ``entry`` of a ``k``-id chunk list."""
    return ValueError(
        f"chunk ids must be strictly increasing within [0, {n_chunks}) "
        f"(bad entry {entry} of {k})"
    )


def _check_ids_layout(chunk_ids) -> None:
    if not (isinstance(chunk_ids, np.ndarray) and chunk_ids.ndim == 1
            and chunk_ids.dtype == np.int64):
        raise ValueError(
            f"chunk ids must be a 1-d int64 array, got "
            f"{getattr(chunk_ids, 'dtype', type(chunk_ids).__name__)} "
            f"with shape {np.shape(chunk_ids)}"
        )


def check_chunk_ids(chunk_ids, n_chunks: int) -> None:
    """Raise ``ValueError`` unless ``chunk_ids`` is a 1-d int64 array,
    strictly increasing within ``[0, n_chunks)`` — so no chunk is
    skipped, clipped, wrapped or applied twice.  Every chunk path runs
    this check (ckernels.c runs the same scan)."""
    _check_ids_layout(chunk_ids)
    k = chunk_ids.shape[0]
    if k == 0:
        return
    bad = chunk_ids >= n_chunks
    bad[0] |= chunk_ids[0] < 0
    bad[1:] |= chunk_ids[1:] <= chunk_ids[:-1]
    if bad.any():
        raise chunk_ids_error(int(bad.argmax()), k, n_chunks)


def check_chunk_rows(rows, k: int) -> None:
    """Raise ``ValueError`` unless ``rows`` is a float64 ``(k, CHUNK)``
    array, one message row per chunk id."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64
            and rows.shape == (k, CHUNK)):
        raise ValueError(
            f"chunk rows must be a float64 array of shape ({k}, {CHUNK}), "
            f"got {getattr(rows, 'dtype', type(rows).__name__)} with "
            f"shape {np.shape(rows)}"
        )


def check_chunk_buffers(table_flat, chunk_ids, rows, written,
                        base_flat=None) -> int:
    """The O(1) argument checks of both chunk kernels, on either
    backend: dtypes and shapes, and that every buffer in ``written``
    (``(name, array)`` pairs) is writable and C-contiguous.  Returns the
    table's chunk count."""
    _check_ids_layout(chunk_ids)
    if table_flat.dtype != np.float64 or table_flat.ndim != 1:
        raise ValueError("table_flat must be a 1-d float64 array")
    if base_flat is not None and (base_flat.dtype != np.float64
                                  or base_flat.shape != table_flat.shape):
        raise ValueError(
            "base_flat must be a float64 array shaped like table_flat"
        )
    check_chunk_rows(rows, chunk_ids.shape[0])
    for name, arr in written:
        if not (arr.flags.c_contiguous and arr.flags.writeable):
            raise ValueError(f"{name} must be a writable C-contiguous array")
    return (table_flat.shape[0] + CHUNK - 1) >> CHUNK_LOG


def chunk_split(
    size: int, chunk_ids: np.ndarray
) -> tuple[np.ndarray, bool, int, int]:
    """(body ids, tail-included?, full-chunk count, tail length) of
    checked ``chunk_ids`` over a ``size``-cell table: the tail chunk,
    when ``size`` is not a chunk multiple, needs a partial copy and is
    split off here."""
    full = size >> CHUNK_LOG
    tail_len = size - (full << CHUNK_LOG)
    has_tail = bool(
        tail_len > 0 and chunk_ids.size > 0 and int(chunk_ids[-1]) == full
    )
    body = chunk_ids[:-1] if has_tail else chunk_ids
    return body, has_tail, full, tail_len


def gather_chunks(source: np.ndarray, chunk_ids: np.ndarray) -> np.ndarray:
    """Checked chunks of a flat array as fresh ``(k, CHUNK)`` rows; the
    padded tail of a partial last chunk reads as zero."""
    body, has_tail, full, tail_len = chunk_split(source.shape[0], chunk_ids)
    out = np.zeros((chunk_ids.size, CHUNK), dtype=np.float64)
    nb = body.size
    if nb:
        # The ids are checked, so "clip" never clips; it only skips
        # take's buffered bounds check.
        np.take(
            source[: full << CHUNK_LOG].reshape(full, CHUNK),
            body, axis=0, out=out[:nb], mode="clip",
        )
    if has_tail:
        out[-1, :tail_len] = source[full << CHUNK_LOG:]
    return out


def scatter_chunks(
    dest: np.ndarray, chunk_ids: np.ndarray, data: np.ndarray
) -> None:
    """Assign ``(k, CHUNK)`` rows to checked chunks of a C-contiguous
    flat array (a partial last chunk takes its row's head)."""
    body, has_tail, full, tail_len = chunk_split(dest.shape[0], chunk_ids)
    nb = body.size
    if nb:
        dest[: full << CHUNK_LOG].reshape(full, CHUNK)[body] = data[:nb]
    if has_tail:
        dest[full << CHUNK_LOG:] = data[-1, :tail_len]


def chunk_delta(
    table_flat: np.ndarray,
    base_flat: np.ndarray,
    chunk_ids: np.ndarray,
    alpha: float,
    drift: float,
    out: np.ndarray,
) -> None:
    n_chunks = check_chunk_buffers(
        table_flat, chunk_ids, out,
        (("base_flat", base_flat), ("out", out)), base_flat,
    )
    check_chunk_ids(chunk_ids, n_chunks)
    cur = gather_chunks(table_flat, chunk_ids)
    base = gather_chunks(base_flat, chunk_ids)
    if alpha == 1.0 and drift == 1.0:
        np.subtract(cur, base, out=out)
    else:
        np.subtract(alpha * cur, drift * base, out=out)
    scatter_chunks(base_flat, chunk_ids, cur)


def chunk_add(
    table_flat: np.ndarray,
    chunk_ids: np.ndarray,
    data: np.ndarray,
    scale: float,
) -> None:
    n_chunks = check_chunk_buffers(
        table_flat, chunk_ids, data, (("table_flat", table_flat),)
    )
    check_chunk_ids(chunk_ids, n_chunks)
    body, has_tail, full, tail_len = chunk_split(
        table_flat.shape[0], chunk_ids
    )
    contrib = data if scale == 1.0 else data / scale
    nb = body.size
    if nb:
        table_flat[: full << CHUNK_LOG].reshape(full, CHUNK)[body] += (
            contrib[:nb]
        )
    if has_tail:
        table_flat[full << CHUNK_LOG:] += contrib[-1, :tail_len]


BACKEND = KernelBackend(
    "numpy", functions={name: globals()[name] for name in KERNEL_NAMES}
)
