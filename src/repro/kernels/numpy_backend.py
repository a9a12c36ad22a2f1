"""The NumPy reference backend, and the helpers no backend compiles.

The ten kernels of :data:`repro.kernels.api.KERNEL_NAMES`
(``fused_update``, ``fused_predict``, ``fused_query``,
``heap_maintain``, ``awm_update``, ``chunk_delta``, ``chunk_add``,
``chunk_gather``, ``chunk_scatter``, ``hash_rows``) are the executable
specification the compiled ``c`` backend is checked against
(``hash_rows`` here is the hasher's memo; both match
``HashFamily.all_rows``, the one oracle; the two reads are the model
read paths they replaced, moved here).  The other
functions here are plain helpers with one implementation, which WM,
AWM, feature hashing, the sketch table and the top-K store import and
call by name: the exactly rounded margin, the element-order scatter,
the transposed gather, median recovery and its scalar form
(:func:`scalar_estimate`), the estimate bound, the admission screen, the
chunk-map translation (:func:`translate_flat`), and the WM heap's
decision core (:func:`maintain_decide`, which the ``c`` backend's
``heap_maintain`` also runs until the store is full).
Their bodies were extracted verbatim from the pre-kernel classifiers,
and the bit-level guarantees of the batched engine (exactly rounded
``fsum`` margins, layout-deterministic ``ufunc.at`` scatters,
transposed-sort medians) are documented where they sit.
"""

from __future__ import annotations

import itertools
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
    as ``0.5 * (a + b)``.

    The row sort is the stable one: ``+-0`` ties keep their row order
    and NaN sorts last with its bits intact, on every host.  The
    default sort's SIMD path reorders ``+-0`` ties at depth >= 4 and
    rewrites NaN payloads on AVX-512 hosts, so a median picked from it
    could not be reproduced bit for bit by a compiled loop."""
    depth = gathered_t.shape[1]
    if depth == 1:
        return factor * (signs_t[:, 0] * gathered_t[:, 0])
    # In-place row sort plus a middle-column pick selects the exact
    # same values as np.median without its per-call dispatch overhead.
    rows = signs_t * gathered_t
    rows.sort(axis=1, kind="stable")
    mid = depth // 2
    if depth % 2:
        med = rows[:, mid]
    else:
        med = 0.5 * (rows[:, mid - 1] + rows[:, mid])
    return factor * med


def _nan_last(v: float) -> tuple[bool, float]:
    return (v != v, 0.0 if v != v else v)


def scalar_estimate(row: list[float], factor: float, l1: float) -> float:
    """One feature's :func:`median_estimate` from its signed cells
    ``row`` (a list, sorted in place), then the l1 soft threshold of
    ``sign(e) * max(|e| - l1, 0)``: the same float, in plain Python.

    The sort is stable with NaN last, the order numpy's stable sort
    gives, so a NaN cell lands where it does in the vectorized median.
    """
    if len(row) > 1:
        row.sort(key=_nan_last)
    mid = len(row) // 2
    med = row[mid] if len(row) % 2 else 0.5 * (row[mid - 1] + row[mid])
    query = factor * med
    if l1 > 0.0:
        shrunk = max(abs(query) - l1, 0.0)
        # np.sign maps a zero of either sign to +0.
        query = math.copysign(shrunk, query) if query else shrunk
    return query


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
# the *actual* loss classes, so fused and per-example replays run
# literally the same ``dloss`` code.
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


def indptr_error(entry: int, n: int) -> ValueError:
    """The error for bad entry ``entry`` of an ``n``-example ``indptr``."""
    return ValueError(
        f"indptr must be non-decreasing within [0, nnz] "
        f"(bad entry {entry} of {n + 1})"
    )


def check_indptr(indptr: np.ndarray, n: int, nnz: int) -> None:
    """Raise :func:`indptr_error` for the first entry of ``indptr[:n +
    1]`` outside ``[0, nnz]`` or below its predecessor — the check the
    ``c`` bodies run before writing anything."""
    ip = indptr[:n + 1]
    bad = np.flatnonzero(
        (ip < 0) | (ip > nnz) | np.r_[False, ip[1:] < ip[:-1]]
    )
    if bad.size:
        raise indptr_error(int(bad[0]), n)


def fused_update(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    sign_values: np.ndarray,
    indptr: np.ndarray,
    labels: np.ndarray,
    etas: np.ndarray,
    lam: float,
    state: np.ndarray,
    sqrt_s: float,
    loss_id: int,
    loss_param: float,
    margins_out: np.ndarray,
    gathered_out: np.ndarray,
    scales_out: np.ndarray,
    touched_out: np.ndarray,
) -> None:
    # The exact chain of per-example ``update()`` with the margin /
    # scatter bodies inlined (per-example temporaries are fresh arrays:
    # NumPy's small-block allocator beats ``np.take(out=)``'s checked
    # copy path, measured ~20%; the batch-lifetime arrays are the
    # caller's workspace views).
    scale = float(state[0])
    dloss = _loss_object(loss_id, loss_param).dloss
    n = margins_out.shape[0]
    depth, ncols = flat_buckets.shape
    check_indptr(indptr, n, ncols)
    if touched_out.shape[0] < 1 + depth * (indptr[n] - indptr[0]):
        raise ValueError("touched_out must hold at least 1 + depth * nnz "
                         "slots")
    record = gathered_out.shape[0] > 0
    if record and (gathered_out.shape[0] < indptr[n]
                   or scales_out.shape[0] < n):
        raise ValueError("gathered_out / scales_out are too short for the "
                         "batch")
    touched_out[0] = 0
    pos = 1
    ip = indptr.tolist()
    ys = labels.tolist()
    es = etas.tolist()
    fsum = math.fsum
    add_at = np.add.at
    take = table_flat.take
    ascontiguous = np.ascontiguousarray
    lo = ip[0]
    done = 0
    try:
        for i in range(n):
            hi = ip[i + 1]
            # A contiguous copy of the example's bucket block lets both
            # the gather and np.add.at take their 1-d fast paths (the
            # flattened C order is the block's C order, so duplicate
            # accumulation and the exactly-rounded margin see the
            # identical element sequence — bit-for-bit the reference
            # kernels' results).
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
                    touched_out[0] += 1
            # scatter_add kernel body: same values, same element order,
            # through the flat fast path.
            deltas = (-eta * y * g / (sqrt_s * scale)) * sv
            flat_fb = fb.reshape(-1)
            add_at(table_flat, flat_fb, deltas.reshape(-1))
            # The dirty-set stream: the scattered indices in the exact
            # element order the ufunc.at applied them.
            touched_out[pos:pos + flat_fb.shape[0]] = flat_fb
            pos += flat_fb.shape[0]
            if record:
                # gather_rows_t, verbatim, into the recording block.
                gathered_out[lo:hi] = take(fb.T)
                scales_out[i] = scale
            lo = hi
            done += 1
    finally:
        # Also on a raise: the caller applies the completed examples.
        state[0] = scale
        state[1] = done


def row_offsets(depth: int, width: int) -> np.ndarray:
    """The ``(depth, 1)`` column ``j * width`` that turns row ``j``'s
    buckets into flat indices of the ``(depth, width)`` table."""
    return np.arange(0, depth * width, width, dtype=np.int64).reshape(-1, 1)


def translate_flat(chunk_map, flat: np.ndarray, ws=None) -> np.ndarray:
    """Flat bucket indices mapped into a chunk-pooled snapshot's pool:
    each ``f`` becomes ``(chunk_map[f >> CHUNK_LOG] << CHUNK_LOG) | (f &
    (CHUNK - 1))``, so the pool's cells read exactly as the dense table's
    (gathers move bits and do no arithmetic).  ``chunk_map`` ``None`` (a
    dense table) returns ``flat``.  With a workspace ``ws`` the result
    lives in its arenas; without one it is a fresh array (the scalar read
    paths, which must not touch a snapshot's shared workspace)."""
    if chunk_map is None:
        return flat
    if ws is None:
        return (chunk_map[flat >> CHUNK_LOG] << CHUNK_LOG) | (
            flat & (CHUNK - 1)
        )
    low = ws.array("t_flat_low", flat.shape, np.int64)
    np.bitwise_and(flat, CHUNK - 1, out=low)
    ids = ws.array("t_flat_ids", flat.shape, np.int64)
    np.right_shift(flat, CHUNK_LOG, out=ids)
    out = ws.array("t_flat_out", flat.shape, np.int64)
    np.take(chunk_map, ids, out=out)
    np.left_shift(out, CHUNK_LOG, out=out)
    np.bitwise_or(out, low, out=out)
    return out


def _hashed_flat(hasher, keys, chunk_map, ws, prefix):
    """Hash ``keys`` through ``hasher`` into workspace rows: their
    (translated flat buckets, signs), each ``(depth, len(keys))``."""
    family = hasher.family
    depth = family.depth
    n = keys.shape[0]
    buckets = ws.array(prefix + "_buckets", (depth, n), np.int64)
    signs = ws.array(prefix + "_signs", (depth, n))
    hasher.rows_into(keys, buckets, signs)
    flat = ws.array(prefix + "_flat", (depth, n), np.int64)
    np.add(buckets, row_offsets(depth, family.width), out=flat)
    return translate_flat(chunk_map, flat, ws), signs


def fused_predict(
    hasher,
    table_flat: np.ndarray,
    chunk_map,
    store,
    indices: np.ndarray,
    values: np.ndarray,
    indptr: np.ndarray,
    scale: float,
    sqrt_s: float,
    ws,
    out: np.ndarray,
) -> None:
    n = out.shape[0]
    check_indptr(indptr, n, indices.shape[0])
    flat, signs = _hashed_flat(hasher, indices, chunk_map, ws, "p")
    sv = ws.array("p_sv", signs.shape)
    np.multiply(signs, values, out=sv)
    ip = indptr.tolist()
    lo = ip[0]
    if store is None:
        fsum = math.fsum
        take = table_flat.take
        for i in range(n):
            hi = ip[i + 1]
            products = take(flat[:, lo:hi]) * sv[:, lo:hi]
            out[i] = scale * fsum(products.ravel().tolist()) / sqrt_s
            lo = hi
        return
    # The active set's members answer exactly: a running sum of their
    # products in position order, then the sketch margin of the rest.
    slots = store.member_slots(indices)
    for i in range(n):
        hi = ip[i + 1]
        sl = slots[lo:hi]
        in_heap = sl >= 0
        total = 0.0
        if in_heap.any():
            products = store.values_at(sl[in_heap]) * values[lo:hi][in_heap]
            for p in products.tolist():
                total += p
            in_sketch = ~in_heap
            fb = flat[:, lo:hi][:, in_sketch]
            svx = sv[:, lo:hi][:, in_sketch]
        else:
            fb = flat[:, lo:hi]
            svx = sv[:, lo:hi]
        if fb.shape[1]:
            total += margin(table_flat, fb, svx, scale, sqrt_s)
        out[i] = total
        lo = hi


def fused_query(
    hasher,
    table_flat: np.ndarray,
    chunk_map,
    store,
    keys: np.ndarray,
    factor: float,
    l1: float,
    ws,
    out: np.ndarray,
) -> None:
    tail = None
    if store is not None:
        # The active set's members answer exactly; only the rest hash.
        slots = store.member_slots(keys)
        member = slots >= 0
        if member.any():
            out[member] = store.values_at(slots[member])
            tail = ~member
            keys = keys[tail]
    n = keys.shape[0]
    if n == 0:
        return
    flat, signs = _hashed_flat(hasher, keys, chunk_map, ws, "q")
    depth = signs.shape[0]
    # gather_rows_t verbatim, landing in a workspace block.
    gathered = ws.array("q_gathered", (n, depth))
    gathered[:] = table_flat.take(flat.T)
    est = np.empty(n, dtype=np.float64)
    if depth == 1:
        # median_estimate's depth-1 branch: factor * (signs * gathered).
        np.multiply(signs[0], gathered[:, 0], out=est)
        est *= factor
    else:
        # median_estimate body: rows product, in-place row sort, middle
        # pick.
        rows = signs.T * gathered
        rows.sort(axis=1, kind="stable")
        mid = depth // 2
        if depth % 2:
            np.multiply(rows[:, mid], factor, out=est)
        else:
            np.add(rows[:, mid - 1], rows[:, mid], out=est)
            est *= 0.5
            est *= factor
    if l1 > 0.0:
        est = np.sign(est) * np.maximum(np.abs(est) - l1, 0.0)
    if tail is None:
        out[:] = est
    else:
        out[tail] = est


# ----------------------------------------------------------------------
# WM passive-heap maintain: per-example update()'s heap refresh and
# admissions, replayed over the fused_update recording.
# ----------------------------------------------------------------------

def recorded_estimates(
    indptr: np.ndarray,
    signs: np.ndarray,
    gathered: np.ndarray,
    scales: np.ndarray,
    sqrt_s: float,
    l1: float,
    ws,
) -> tuple[np.ndarray, np.ndarray]:
    """Every position's heap estimate from a ``fused_update`` recording:
    the :func:`median_estimate` value selection on ``signs.T *
    gathered``, times the example's recorded factor (``scales[i]``, or
    ``scales[i] * sqrt_s`` at depth > 1), then the l1 soft threshold —
    the floats per-example ``update()`` computes mid-replay.  Returns
    ``(est, example)``, ``example`` being each position's example; both
    live in the workspace ``ws``."""
    depth, nnz = signs.shape
    est = ws.array("est", nnz)
    if depth == 1:
        np.multiply(signs[0], gathered[:, 0], out=est)
    else:
        rows = ws.array("med_rows", (nnz, depth))
        np.multiply(signs.T, gathered, out=rows)
        rows.sort(axis=1, kind="stable")
        mid = depth // 2
        if depth % 2:
            np.copyto(est, rows[:, mid])
        else:
            np.add(rows[:, mid - 1], rows[:, mid], out=est)
            est *= 0.5
    # Each position's example (np.repeat without the allocation).
    example = ws.array("pos_example", nnz, np.intp)
    example.fill(0)
    starts = indptr[1:-1]
    np.add.at(example, starts[starts < nnz], 1)
    np.cumsum(example, out=example)
    factors = scales if depth == 1 else scales * sqrt_s
    est *= factors.take(example, out=ws.array("factor", nnz), mode="clip")
    if l1 > 0.0:
        est = np.sign(est) * np.maximum(np.abs(est) - l1, 0.0)
    return est, example


def maintain_decide(
    store,
    indices: np.ndarray,
    slots: np.ndarray,
    bound_for,
    estimates_for,
    promo_log: list | None,
) -> None:
    """The WM passive heap's admission-decision core for one example.

    Shared by per-example ``update()`` (``WMSketch._maintain_heap``)
    and the recorded batch replay (the ``heap_maintain`` kernel's
    numpy body, which the ``c`` backend also runs until the store is
    full), so the decision structure exists exactly once.  ``slots``
    holds each position's store slot at the start of the example (-1
    for non-members).  ``bound_for()`` / ``estimates_for()`` lazily
    provide the estimate bound and the per-feature estimates: from the
    live table per example, or precomputed from the fused kernel's
    recording with an infinite bound (the replay only calls this core
    for examples that can admit).  Each admission is appended to
    ``promo_log`` as ``(key, evicted key or None)``.
    """
    member = slots >= 0
    any_member = bool(member.any())
    if store.is_full:
        if not any_member:
            if bound_for() <= store.min_priority():
                return
            estimates = estimates_for()
            cand = screen_abs_gt(estimates, store.min_priority())
        else:
            estimates = estimates_for()
            store.set_many(slots[member], estimates[member])
            if member.all():
                return
            cand = screen_abs_gt(estimates, store.min_priority())
            cand = cand[~member[cand]]
        for pos in cand.tolist():
            idx = int(indices[pos])
            w = float(estimates[pos])
            # Re-check the live threshold: earlier admissions can
            # only have raised it.  A duplicate feature admitted
            # earlier in this example updates in place via push.
            if idx in store:
                store.push(idx, w)
            elif abs(w) > store.min_priority():
                evicted = store.push(idx, w)
                if promo_log is not None:
                    promo_log.append(
                        (idx, evicted[0] if evicted else None)
                    )
    else:
        estimates = estimates_for()
        # Free slots remain: sequential admits (the store can fill
        # mid-example, after which the threshold rule applies).
        push = store.push
        minp = None
        for idx, w in zip(indices.tolist(), estimates.tolist()):
            if idx in store:
                push(idx, w)
                minp = None
            elif not store.is_full:
                push(idx, w)
                minp = None
                if promo_log is not None:
                    promo_log.append((idx, None))
            else:
                if minp is None:
                    minp = store.min_priority()
                if abs(w) > minp:
                    evicted = push(idx, w)
                    minp = None
                    if promo_log is not None:
                        promo_log.append(
                            (idx, evicted[0] if evicted else None)
                        )


def _decide_example(store, indices, lo, hi, est, slot_cache):
    """The shared decision core on positions ``[lo, hi)``, then its
    admissions patched into ``slot_cache``."""
    e = est[lo:hi]
    admissions: list = []
    maintain_decide(store, indices[lo:hi], slot_cache.slots[lo:hi],
                    lambda: math.inf, lambda: e, admissions)
    for admitted, evicted in admissions:
        slot_cache.apply(admitted, evicted)


def maintain_until_full(store, indices, bounds, est, slot_cache) -> int:
    """Run the decision core on each example, in order, while the store
    has free slots; returns the first example that meets a full store
    (``len(bounds) - 1`` when none does).  ``bounds`` is the batch's
    ``indptr`` as a list."""
    n = len(bounds) - 1
    i = 0
    while i < n and not store.is_full:
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            _decide_example(store, indices, lo, hi, est, slot_cache)
        i += 1
    return i


def heap_maintain(
    store,
    indices: np.ndarray,
    indptr: np.ndarray,
    signs: np.ndarray,
    gathered: np.ndarray,
    scales: np.ndarray,
    sqrt_s: float,
    l1: float,
    ws,
) -> None:
    # The replay runs the decision core only where it can admit.  While
    # the store has free slots, every example runs it.  Once it is
    # full, a run starts at its minimum priority t0.  Until something
    # is admitted, every priority is a start-of-run entry or a member
    # refresh (the WM heap never decays, so a refreshed priority is
    # exactly the |estimate|), so the smallest non-NaN of t0 and every
    # refresh up to the end of example i bounds the threshold example
    # i faces from below whenever that threshold is not NaN (a NaN
    # threshold admits nothing).  Examples whose non-member estimates
    # all stay at or below it only refresh members; their refreshes
    # collapse into one set_many (each slot keeps its last write).  The
    # first example that beats it runs the decision core, and the next
    # run starts after it.  Runs screen windows of examples that double
    # in size, so a rescan costs the distance to the next possible
    # admission, not the rest of the batch.
    from repro.heap.topk import BatchSlotCache

    nnz = indices.size
    n = indptr.shape[0] - 1
    est, example = recorded_estimates(indptr, signs, gathered, scales,
                                      sqrt_s, l1, ws)
    mag = np.abs(est, out=ws.array("est_abs", nnz))
    # Screen scratch: each position's example end, the non-member
    # mask, the running lower bound, and that bound at the end of
    # each position's example (what the example's candidates face).
    end = np.take(indptr[1:] - 1, example, mode="clip",
                  out=ws.array("pos_end", nnz, np.intp))
    cand = ws.array("screen_cand", nnz, bool)
    run = ws.array("screen_run", nnz)
    floor = ws.array("screen_floor", nnz)
    slot_cache = BatchSlotCache(store, indices, ws=ws)
    bounds = indptr.tolist()
    i = maintain_until_full(store, indices, bounds, est, slot_cache)
    while i < n:
        if slot_cache.stale:
            slot_cache = BatchSlotCache(store, indices, slot_cache, ws)
        slots = slot_cache.slots
        t0, k, a, width = store.min_priority(), n, i, 8
        if t0 != t0:
            # A NaN minimum bounds nothing: screen no example out.
            t0 = -math.inf
        while a < n:
            b = min(a + width, n)
            pa, pb = bounds[a], bounds[b]
            a, width = b, 2 * width
            if pa == pb:
                continue
            c, r = cand[pa:pb], run[pa:pb]
            np.less(slots[pa:pb], 0, out=c)
            np.copyto(r, mag[pa:pb])
            np.copyto(r, np.inf, where=c)
            if not r[0] <= t0:
                r[0] = t0
            np.fmin.accumulate(r, out=r)
            np.take(run, end[pa:pb], out=floor[pa:pb], mode="clip")
            c &= mag[pa:pb] > floor[pa:pb]
            first = int(c.argmax())
            if c[first]:
                k = int(example[pa + first])
                break
            t0 = float(r[-1])
        lo, hi = bounds[i], bounds[k]
        member = slots[lo:hi] >= 0
        store.set_many(slots[lo:hi][member], est[lo:hi][member])
        if k == n:
            break
        _decide_example(store, indices, bounds[k], bounds[k + 1], est,
                        slot_cache)
        i = k + 1


# ----------------------------------------------------------------------
# AWM-Sketch (Algorithm 2) against a full active set: per-example
# update()'s whole step, over the batch-lifetime rows.
# ----------------------------------------------------------------------

def check_awm_args(store, start: int, n: int) -> None:
    """Raise ``ValueError`` unless ``store`` is full and ordered by
    ``abs`` and ``0 <= start <= n``; both ``awm_update`` bodies run
    this first."""
    if store._priority is not abs or not store.is_full:
        raise ValueError("awm_update needs a full store ordered by abs")
    if not 0 <= start <= n:
        raise ValueError(f"start must lie within [0, {n}], got {start}")


def check_awm_buckets(size: int, *blocks: np.ndarray) -> None:
    """Raise ``IndexError`` naming the first flat bucket of ``blocks``
    (row-major, in order) outside ``[0, size)``; both ``awm_update``
    bodies run this before writing anything."""
    for block in blocks:
        bad = np.flatnonzero((block < 0) | (block >= size))
        if bad.size:
            bucket = int(block.reshape(-1)[bad[0]])
            raise IndexError(
                f"index {bucket} is out of bounds for axis 0 with size {size}"
            )


def awm_update(
    store,
    batch,
    start: int,
    etas: np.ndarray,
    flat: np.ndarray,
    signs: np.ndarray,
    sv: np.ndarray,
    key_flat: np.ndarray,
    key_signs: np.ndarray,
    table_flat: np.ndarray,
    lam: float,
    sqrt_s: float,
    l1: float,
    loss_id: int,
    loss_param: float,
    state: np.ndarray,
    progress: np.ndarray,
    margins_out: np.ndarray,
    dirty: np.ndarray,
    ws,
) -> None:
    # Per example: membership from the store's live key -> slot map
    # (every admission and eviction updates it in place), the member
    # margin in position order, the tail margin as one fsum over every
    # row's products (row by row: fsum's overflow check depends on the
    # order), both lazy decays, the member step, the tail queries, the
    # promotion screen and re-check with the evictee fold, and the
    # stay-scatter one np.add.at per row, in row order.  Its deltas
    # scale the sign*value products, equal to the spec's (coeff *
    # value) * sign bit for bit because signs are +-1.
    indptr = batch.indptr.tolist()
    n = len(indptr) - 1
    check_awm_args(store, start, n)
    dloss = _loss_object(loss_id, loss_param).dloss
    check_awm_buckets(
        table_flat.shape[0], flat[:, indptr[start]:indptr[n]], key_flat
    )
    labels = batch.labels.tolist()
    es = etas.tolist()
    indices = batch.indices
    values = batch.values
    keys = indices.tolist()
    depth = flat.shape[0]
    scale, fold_log = state.tolist()
    slot_of = store.slot_map().get
    absent = itertools.repeat(-1)
    flat_rows, sign_rows, sv_rows = list(flat), list(signs), list(sv)
    take = table_flat.take
    fsum = math.fsum
    chain = itertools.chain.from_iterable
    for i in range(start, n):
        lo, hi = indptr[i], indptr[i + 1]
        y = labels[i]
        slots = np.fromiter(
            map(slot_of, keys[lo:hi], absent), np.intp, hi - lo
        )
        tail = slots < 0
        k = np.count_nonzero(tail)
        member = k < hi - lo
        vals = values[lo:hi]
        tau = 0.0
        if member:
            held = ~tail
            m_slots = slots[held]
            m_vals = vals[held]
            for p in (store.values_at(m_slots) * m_vals).tolist():
                tau += p
            t_flat = [f[lo:hi][tail] for f in flat_rows]
            t_sign = [s[lo:hi][tail] for s in sign_rows]
            t_sv = [s[lo:hi][tail] for s in sv_rows]
            t_vals = vals[tail]
        else:
            t_flat = [f[lo:hi] for f in flat_rows]
            t_sign = [s[lo:hi] for s in sign_rows]
            t_sv = [s[lo:hi] for s in sv_rows]
            t_vals = vals
        if k:
            cells = [take(f) for f in t_flat]
            tau += scale * fsum(chain(
                [(c * s).tolist() for c, s in zip(cells, t_sv)]
            )) / sqrt_s

        g = dloss(y * tau)
        eta = es[i]
        if lam > 0.0:
            decay = 1.0 - eta * lam
            store.decay(decay)
            scale *= decay
            if scale < _RENORM:
                # ScaledSketchTable._decay_scale's fold; the pre-decay
                # gather is stale.
                fold_log += math.log(scale)
                table_flat *= scale
                scale = 1.0
                dirty[:] = True
                if k:
                    cells = [take(f) for f in t_flat]
        step = eta * y * g
        if member:
            store.add_many(m_slots, -step * m_vals)

        if k:
            if depth == 1:
                queries = scale * (t_sign[0] * cells[0])
            else:
                queries = median_estimate(
                    np.stack(cells, axis=1), np.stack(t_sign, axis=1),
                    sqrt_s * scale,
                )
            if l1 > 0.0:
                queries = np.sign(queries) * np.maximum(
                    np.abs(queries) - l1, 0.0
                )
            candidates = queries - step * t_vals
            # The threshold after the member step, as in the spec.
            over = np.abs(candidates) > store.min_priority()
            if np.count_nonzero(over):
                factor = sqrt_s * scale
                t_pos = np.flatnonzero(tail) + lo if member else None
                promoted = []
                for pos in np.flatnonzero(over).tolist():
                    c = float(candidates[pos])
                    min_key, min_weight = store.min_entry()
                    if not abs(c) > abs(min_weight):
                        continue
                    p = lo + pos if t_pos is None else int(t_pos[pos])
                    ms = store.slot_of(min_key)
                    store.replace_min(keys[p], c)
                    # The evictee fold: credit the sketch with the
                    # evictee's exact weight minus its estimate.
                    e_flat = key_flat[:, ms].tolist()
                    e_sign = key_signs[:, ms].tolist()
                    query = scalar_estimate(
                        [s * v for s, v in zip(e_sign, take(e_flat).tolist())],
                        factor, l1,
                    )
                    coeff = (min_weight - query) / factor
                    for f, s in zip(e_flat, e_sign):
                        table_flat[f] += coeff * s
                        dirty[f >> CHUNK_LOG] = True
                    key_flat[:, ms] = flat[:, p]
                    key_signs[:, ms] = signs[:, p]
                    progress[1] += 1
                    promoted.append(pos)
                if promoted:
                    stay = np.ones(k, dtype=bool)
                    stay[promoted] = False
                    t_flat = [f[stay] for f in t_flat]
                    t_sv = [s[stay] for s in t_sv]
            coeff = -step / (sqrt_s * scale)
            for f, s in zip(t_flat, t_sv):
                np.add.at(table_flat, f, coeff * s)
        margins_out[i] = tau
        state[0] = scale
        state[1] = fold_log
        progress[0] += 1


# ----------------------------------------------------------------------
# Parameter-server chunk codec: whole-chunk moves between a flat table
# and (k, CHUNK) message rows.  The push kernels are the delta codec's
# gather -> arithmetic -> scatter and the driver's fancy-index add, the
# pull kernels its gather (which no longer zero-fills whole rows first)
# and its scatter into the worker's table and sync base; the helpers
# above them are the one copy of the chunk geometry and of the argument
# checks, shared with ScaledSketchTable and the c wrappers (which raise
# the same errors).
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
                        base_flat=None, rows_name="out") -> int:
    """The O(1) argument checks of the four chunk kernels, on either
    backend: dtypes and shapes; that every buffer ``written`` names
    (``"table_flat"``, ``"base_flat"`` or ``rows_name``, the message
    rows) is writable and C-contiguous; and that none of them may share
    memory (``np.may_share_memory``) with another argument — the
    compiled row loops are ``restrict``-qualified, and an overlap would
    make the two backends write different bits.  Returns the table's
    chunk count."""
    _check_ids_layout(chunk_ids)
    if table_flat.dtype != np.float64 or table_flat.ndim != 1:
        raise ValueError("table_flat must be a 1-d float64 array")
    if base_flat is not None and (base_flat.dtype != np.float64
                                  or base_flat.shape != table_flat.shape):
        raise ValueError(
            "base_flat must be a float64 array shaped like table_flat"
        )
    check_chunk_rows(rows, chunk_ids.shape[0])
    buffers = {"table_flat": table_flat, "chunk_ids": chunk_ids,
               rows_name: rows}
    if base_flat is not None:
        buffers["base_flat"] = base_flat
    for name in written:
        arr = buffers[name]
        if not (arr.flags.c_contiguous and arr.flags.writeable):
            raise ValueError(f"{name} must be a writable C-contiguous array")
        for other, arg in buffers.items():
            if other != name and np.may_share_memory(arr, arg):
                raise ValueError(
                    f"{name} must not share memory with {other}"
                )
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


def gather_chunks(
    source: np.ndarray, chunk_ids: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Copy checked chunks of a flat array into ``(k, CHUNK)`` rows
    ``out`` and return it; only the padded tail of a partial last chunk
    is written as zero."""
    body, has_tail, full, tail_len = chunk_split(source.shape[0], chunk_ids)
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
        out[-1, tail_len:] = 0.0
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
        table_flat, chunk_ids, out, ("base_flat", "out"), base_flat
    )
    check_chunk_ids(chunk_ids, n_chunks)
    cur = gather_chunks(table_flat, chunk_ids, np.empty_like(out))
    base = gather_chunks(base_flat, chunk_ids, np.empty_like(out))
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
        table_flat, chunk_ids, data, ("table_flat",), rows_name="data"
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


def chunk_gather(
    table_flat: np.ndarray, chunk_ids: np.ndarray, out: np.ndarray
) -> None:
    n_chunks = check_chunk_buffers(table_flat, chunk_ids, out, ("out",))
    check_chunk_ids(chunk_ids, n_chunks)
    gather_chunks(table_flat, chunk_ids, out)


def chunk_scatter(
    table_flat: np.ndarray,
    base_flat: np.ndarray,
    chunk_ids: np.ndarray,
    data: np.ndarray,
) -> None:
    n_chunks = check_chunk_buffers(
        table_flat, chunk_ids, data, ("table_flat", "base_flat"),
        base_flat, rows_name="data",
    )
    check_chunk_ids(chunk_ids, n_chunks)
    scatter_chunks(table_flat, chunk_ids, data)
    scatter_chunks(base_flat, chunk_ids, data)


# ----------------------------------------------------------------------
# Hashing: the hasher's set-associative memo.
# ----------------------------------------------------------------------

def hash_rows(hasher, keys, buckets_out, signs_out) -> None:
    # The memo lives with the hasher that owns its state
    # (repro.hashing.batch); its misses call family.all_rows.
    hasher.memo_rows(keys, buckets_out, signs_out)


BACKEND = KernelBackend(
    "numpy", functions={name: globals()[name] for name in KERNEL_NAMES}
)
