"""Loop-style kernel implementations (the compiled-backend source).

One set of plain-Python functions written in the restricted style Numba
can compile (``nopython`` mode: typed NumPy scalars, no Python objects,
no cross-function calls): the ``numba`` backend wraps each with
``@njit(cache=True, nogil=True)``, and the ``python`` backend runs the
*same functions* interpreted — which is what lets the cross-backend
equivalence suite exercise the exact code the compiler will see even on
hosts without Numba installed.

Bit-level discipline mirrors the NumPy reference backend:

* margins use a port of CPython's ``math.fsum`` (Shewchuk partials with
  the same final round-half-even correction), so the exactly rounded
  sum equals ``math.fsum`` bit-for-bit for finite inputs whatever the
  summation order;
* the polynomial hash reproduces the reference's single-conditional-
  subtract Mersenne reduction with exact 128-bit products emulated in
  32-bit limbs (Numba has no big ints);
* scatters accumulate duplicates in C element order, matching
  ``np.add.at``;
* medians sort per-feature value copies — sorting selects the same
  multiset, so picked values are identical to the reference's row sort.

The exact-sum core is deliberately *inlined* into both margin kernels
instead of shared through a helper: Numba caching of cross-module /
closure calls is fragile, and a self-contained kernel compiles the same
way everywhere.  :func:`exact_fsum` is the standalone (tested) copy of
that algorithm.

Everything here is deterministic and GIL-releasing under Numba
(``nogil=True``), which is what lets the pipelined ingestion path
overlap hashing with training for real wall-clock gains.
"""

from __future__ import annotations

import math

import numpy as np

#: Maximum number of non-overlapping float64 partials math.fsum can
#: accumulate (exponent range / mantissa width, ~40); sized with slack.
_MAX_PARTIALS = 64

_M61 = np.uint64(0x1FFFFFFFFFFFFFFF)  # 2**61 - 1
_LOW32 = np.uint64(0xFFFFFFFF)


def exact_fsum(values: np.ndarray) -> float:
    """Exactly rounded sum of a 1-d float64 array (math.fsum port).

    Shewchuk's grow-expansion accumulation followed by CPython's final
    summation with the round-half-even correction; bit-identical to
    ``math.fsum`` for finite inputs.
    """
    partials = np.empty(_MAX_PARTIALS, dtype=np.float64)
    n = 0
    for k in range(values.shape[0]):
        x = values[k]
        i = 0
        for j in range(n):
            y = partials[j]
            if abs(x) < abs(y):
                t = x
                x = y
                y = t
            hi = x + y
            lo = y - (hi - x)
            if lo != 0.0:
                partials[i] = lo
                i += 1
            x = hi
        partials[i] = x
        n = i + 1
    # Final rounding: sum from the largest partial down, stopping at
    # the first inexact step, then nudge for round-half-even exactly as
    # CPython's math_fsum does.
    if n == 0:
        return 0.0
    n -= 1
    hi = partials[n]
    lo = 0.0
    while n > 0:
        x = hi
        n -= 1
        y = partials[n]
        hi = x + y
        yr = hi - x
        lo = y - yr
        if lo != 0.0:
            break
    if n > 0 and (
        (lo < 0.0 and partials[n - 1] < 0.0)
        or (lo > 0.0 and partials[n - 1] > 0.0)
    ):
        y = lo * 2.0
        x = hi + y
        yr = x - hi
        if y == yr:
            hi = x
    return hi


def tabulation_hash(
    flat_tables: np.ndarray, offsets: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    n = keys.shape[0]
    n_bytes = offsets.shape[1]
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        k = keys[i]
        h = np.uint64(0)
        for b in range(n_bytes):
            byte = (k >> np.uint64(8 * b)) & np.uint64(0xFF)
            h ^= flat_tables[b * 256 + int(byte)]
        out[i] = h
    return out


def polynomial_hash(coeffs: np.ndarray, keys: np.ndarray) -> np.ndarray:
    n = keys.shape[0]
    k = coeffs.shape[0]
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        key = keys[i]
        # One reference-identical reduction of the key: a single
        # fold plus a single conditional subtract.
        x = (key & _M61) + (key >> np.uint64(61))
        if x >= _M61:
            x -= _M61
        acc = coeffs[k - 1]
        for j in range(k - 2, -1, -1):
            # t = acc * x + c exactly, via 32-bit limbs (acc, x < 2**61
            # keep every intermediate below 2**64 — no wraparound).
            a_lo = acc & _LOW32
            a_hi = acc >> np.uint64(32)
            x_lo = x & _LOW32
            x_hi = x >> np.uint64(32)
            lo = a_lo * x_lo
            mid = a_lo * x_hi + a_hi * x_lo
            hi = a_hi * x_hi
            # Assemble t = hi * 2**64 + mid * 2**32 + lo as (H, L).
            sum_mid = (lo >> np.uint64(32)) + (mid & _LOW32)
            low = ((sum_mid & _LOW32) << np.uint64(32)) + (lo & _LOW32)
            high = hi + (mid >> np.uint64(32)) + (sum_mid >> np.uint64(32))
            # t += c with carry.
            c = coeffs[j]
            s_lo = (low & _LOW32) + (c & _LOW32)
            s_hi = (low >> np.uint64(32)) + (c >> np.uint64(32)) + (
                s_lo >> np.uint64(32)
            )
            low = ((s_hi & _LOW32) << np.uint64(32)) + (s_lo & _LOW32)
            high = high + (s_hi >> np.uint64(32))
            # Reference reduction: r = (t & M) + (t >> 61), one
            # conditional subtract (t >> 61 == (H << 3) + (L >> 61)).
            r = (low & _M61) + (
                (high << np.uint64(3)) + (low >> np.uint64(61))
            )
            if r >= _M61:
                r -= _M61
            acc = r
        out[i] = acc
    return out


def bucket_sign(
    h: np.ndarray, width: int, pow2: bool, sign_bit: int
) -> tuple[np.ndarray, np.ndarray]:
    n = h.shape[0]
    buckets = np.empty(n, dtype=np.int64)
    signs = np.empty(n, dtype=np.float64)
    mask = np.uint64(width - 1)
    w = np.uint64(width)
    sb = np.uint64(sign_bit)
    one = np.uint64(1)
    for i in range(n):
        v = h[i]
        if pow2:
            buckets[i] = np.int64(v & mask)
        else:
            buckets[i] = np.int64(v % w)
        if (v >> sb) & one:
            signs[i] = 1.0
        else:
            signs[i] = -1.0
    return buckets, signs


def gather_rows_t(
    table_flat: np.ndarray, flat_buckets: np.ndarray
) -> np.ndarray:
    depth = flat_buckets.shape[0]
    nnz = flat_buckets.shape[1]
    out = np.empty((nnz, depth), dtype=np.float64)
    for j in range(depth):
        for i in range(nnz):
            out[i, j] = table_flat[flat_buckets[j, i]]
    return out


def margin(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    sign_values: np.ndarray,
    scale: float,
    sqrt_s: float,
) -> float:
    # Fused gather * sign_values with an inlined exact fsum (see the
    # module docstring for why the fsum core is not a shared helper).
    fb = flat_buckets.ravel()
    sv = sign_values.ravel()
    partials = np.empty(_MAX_PARTIALS, dtype=np.float64)
    n = 0
    for k in range(fb.shape[0]):
        x = table_flat[fb[k]] * sv[k]
        i = 0
        for j in range(n):
            y = partials[j]
            if abs(x) < abs(y):
                t = x
                x = y
                y = t
            hi = x + y
            lo = y - (hi - x)
            if lo != 0.0:
                partials[i] = lo
                i += 1
            x = hi
        partials[i] = x
        n = i + 1
    if n == 0:
        return scale * 0.0 / sqrt_s
    n -= 1
    hi = partials[n]
    lo = 0.0
    while n > 0:
        x = hi
        n -= 1
        y = partials[n]
        hi = x + y
        yr = hi - x
        lo = y - yr
        if lo != 0.0:
            break
    if n > 0 and (
        (lo < 0.0 and partials[n - 1] < 0.0)
        or (lo > 0.0 and partials[n - 1] > 0.0)
    ):
        y = lo * 2.0
        x = hi + y
        yr = x - hi
        if y == yr:
            hi = x
    return scale * hi / sqrt_s


def margin_gathered(
    gathered: np.ndarray,
    sign_values: np.ndarray,
    scale: float,
    sqrt_s: float,
) -> float:
    g = gathered.ravel()
    sv = sign_values.ravel()
    partials = np.empty(_MAX_PARTIALS, dtype=np.float64)
    n = 0
    for k in range(g.shape[0]):
        x = g[k] * sv[k]
        i = 0
        for j in range(n):
            y = partials[j]
            if abs(x) < abs(y):
                t = x
                x = y
                y = t
            hi = x + y
            lo = y - (hi - x)
            if lo != 0.0:
                partials[i] = lo
                i += 1
            x = hi
        partials[i] = x
        n = i + 1
    if n == 0:
        return scale * 0.0 / sqrt_s
    n -= 1
    hi = partials[n]
    lo = 0.0
    while n > 0:
        x = hi
        n -= 1
        y = partials[n]
        hi = x + y
        yr = hi - x
        lo = y - yr
        if lo != 0.0:
            break
    if n > 0 and (
        (lo < 0.0 and partials[n - 1] < 0.0)
        or (lo > 0.0 and partials[n - 1] > 0.0)
    ):
        y = lo * 2.0
        x = hi + y
        yr = x - hi
        if y == yr:
            hi = x
    return scale * hi / sqrt_s


def scatter_add(
    table_flat: np.ndarray, flat_buckets: np.ndarray, deltas: np.ndarray
) -> None:
    # C element order, matching np.add.at's buffered accumulation.
    fb = flat_buckets.ravel()
    d = deltas.ravel()
    for k in range(fb.shape[0]):
        table_flat[fb[k]] += d[k]


def median_estimate(
    gathered_t: np.ndarray, signs_t: np.ndarray, factor: float
) -> np.ndarray:
    nnz = gathered_t.shape[0]
    depth = gathered_t.shape[1]
    out = np.empty(nnz, dtype=np.float64)
    if depth == 1:
        for i in range(nnz):
            out[i] = factor * (signs_t[i, 0] * gathered_t[i, 0])
        return out
    buf = np.empty(depth, dtype=np.float64)
    mid = depth // 2
    odd = depth % 2 == 1
    for i in range(nnz):
        for j in range(depth):
            buf[j] = signs_t[i, j] * gathered_t[i, j]
        # Insertion sort: depth is small (<= 32) and sorting selects
        # the same values as the reference's vectorized row sort.
        for a in range(1, depth):
            v = buf[a]
            b = a - 1
            while b >= 0 and buf[b] > v:
                buf[b + 1] = buf[b]
                b -= 1
            buf[b + 1] = v
        if odd:
            out[i] = factor * buf[mid]
        else:
            out[i] = factor * (0.5 * (buf[mid - 1] + buf[mid]))
    return out


def estimate_bound(
    table_flat: np.ndarray, flat_buckets: np.ndarray
) -> float:
    fb = flat_buckets.ravel()
    hi = 0.0
    for k in range(fb.shape[0]):
        v = abs(table_flat[fb[k]])
        if v > hi:
            hi = v
    return hi


def screen_abs_gt(values: np.ndarray, threshold: float) -> np.ndarray:
    n = values.shape[0]
    out = np.empty(n, dtype=np.intp)
    count = 0
    for i in range(n):
        if abs(values[i]) > threshold:
            out[count] = i
            count += 1
    return out[:count]


#: Lazy-scale underflow threshold (== kernels.api.RENORM_THRESHOLD and
#: the classifiers' _RENORM_THRESHOLD; asserted equal by the fuzz suite).
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
    scratch: np.ndarray,
    touched_out: np.ndarray,
) -> float:
    # The whole per-example chain of the batched fit_batch loop — margin
    # (inlined exact fsum, as in :func:`margin`), loss derivative, lazy
    # decay + renorm, eta-scaled scatter — in one call; optionally
    # records each example's post-update gathered cells and scale for
    # the decoupled heap-maintain pass, plus the touched flat indices /
    # renorm-fold count into ``touched_out`` (see kernels.api).
    # ``scratch`` is unused here (partials live on the stack); the
    # signature matches the numpy composition, which needs it.
    n = margins_out.shape[0]
    depth = flat_buckets.shape[0]
    record = gathered_out.shape[0] > 0
    n_touched = touched_out.shape[0]
    record_touched = n_touched > 1
    if n_touched > 0:
        touched_out[0] = 0
    pos = 1
    partials = np.empty(_MAX_PARTIALS, dtype=np.float64)
    for i in range(n):
        lo = indptr[i]
        hi = indptr[i + 1]
        # --- margin: exactly rounded sum of table[fb] * sv ----------
        np_ = 0
        for j in range(depth):
            for p in range(lo, hi):
                x = table_flat[flat_buckets[j, p]] * sign_values[j, p]
                k = 0
                for q in range(np_):
                    y = partials[q]
                    if abs(x) < abs(y):
                        t = x
                        x = y
                        y = t
                    hi_p = x + y
                    lo_p = y - (hi_p - x)
                    if lo_p != 0.0:
                        partials[k] = lo_p
                        k += 1
                    x = hi_p
                partials[k] = x
                np_ = k + 1
        if np_ == 0:
            total = 0.0
        else:
            np_ -= 1
            hi_p = partials[np_]
            lo_p = 0.0
            while np_ > 0:
                x = hi_p
                np_ -= 1
                y = partials[np_]
                hi_p = x + y
                yr = hi_p - x
                lo_p = y - yr
                if lo_p != 0.0:
                    break
            if np_ > 0 and (
                (lo_p < 0.0 and partials[np_ - 1] < 0.0)
                or (lo_p > 0.0 and partials[np_ - 1] > 0.0)
            ):
                y = lo_p * 2.0
                x = hi_p + y
                yr = x - hi_p
                if y == yr:
                    hi_p = x
            total = hi_p
        tau = scale * total / sqrt_s
        margins_out[i] = tau
        # --- gradient step ------------------------------------------
        # The loss derivative is inlined (the same no-cross-call rule as
        # the fsum core): operation for operation the arithmetic of the
        # repro.learning.losses classes, selected by kernel id.
        y_i = labels[i]
        ytau = y_i * tau
        if loss_id == 0:  # logistic
            if ytau >= 0.0:
                e = math.exp(-ytau)
                g = -e / (1.0 + e)
            else:
                g = -1.0 / (1.0 + math.exp(ytau))
        elif loss_id == 1:  # smoothed hinge (loss_param = gamma)
            if ytau >= 1.0:
                g = 0.0
            elif ytau >= 1.0 - loss_param:
                g = (ytau - 1.0) / loss_param
            else:
                g = -1.0
        elif loss_id == 2:  # hinge
            g = -1.0 if ytau <= 1.0 else 0.0
        else:  # squared
            g = ytau - 1.0
        eta = etas[i]
        if lam > 0.0:
            scale *= 1.0 - eta * lam
            if scale < _RENORM:
                for c in range(table_flat.shape[0]):
                    table_flat[c] *= scale
                scale = 1.0
                if n_touched > 0:
                    touched_out[0] += 1
        coeff = -eta * y_i * g / (sqrt_s * scale)
        for j in range(depth):
            for p in range(lo, hi):
                table_flat[flat_buckets[j, p]] += coeff * sign_values[j, p]
                if record_touched:
                    touched_out[pos] = flat_buckets[j, p]
                    pos += 1
        if record:
            for p in range(lo, hi):
                for j in range(depth):
                    gathered_out[p, j] = table_flat[flat_buckets[j, p]]
            scales_out[i] = scale
    return scale


def fused_predict(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    sign_values: np.ndarray,
    indptr: np.ndarray,
    scale: float,
    sqrt_s: float,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    # Read-only batch margins: per example, the exact :func:`margin`
    # reduction (inlined fsum) — bit-identical to scalar predicts.
    n = out.shape[0]
    depth = flat_buckets.shape[0]
    partials = np.empty(_MAX_PARTIALS, dtype=np.float64)
    for i in range(n):
        lo = indptr[i]
        hi = indptr[i + 1]
        np_ = 0
        for j in range(depth):
            for p in range(lo, hi):
                x = table_flat[flat_buckets[j, p]] * sign_values[j, p]
                k = 0
                for q in range(np_):
                    y = partials[q]
                    if abs(x) < abs(y):
                        t = x
                        x = y
                        y = t
                    hi_p = x + y
                    lo_p = y - (hi_p - x)
                    if lo_p != 0.0:
                        partials[k] = lo_p
                        k += 1
                    x = hi_p
                partials[k] = x
                np_ = k + 1
        if np_ == 0:
            total = 0.0
        else:
            np_ -= 1
            hi_p = partials[np_]
            lo_p = 0.0
            while np_ > 0:
                x = hi_p
                np_ -= 1
                y = partials[np_]
                hi_p = x + y
                yr = hi_p - x
                lo_p = y - yr
                if lo_p != 0.0:
                    break
            if np_ > 0 and (
                (lo_p < 0.0 and partials[np_ - 1] < 0.0)
                or (lo_p > 0.0 and partials[np_ - 1] > 0.0)
            ):
                y = lo_p * 2.0
                x = hi_p + y
                yr = x - hi_p
                if y == yr:
                    hi_p = x
            total = hi_p
        out[i] = scale * total / sqrt_s


def fused_query(
    table_flat: np.ndarray,
    flat_buckets: np.ndarray,
    signs_t: np.ndarray,
    factor: float,
    gathered_out: np.ndarray,
    est_out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    # Gather + median recovery in one pass: gathered_out receives the
    # transposed (nnz, depth) gather, est_out the factor-scaled medians
    # of signs_t * gathered (same selection as :func:`median_estimate`).
    depth = flat_buckets.shape[0]
    nnz = flat_buckets.shape[1]
    for j in range(depth):
        for i in range(nnz):
            gathered_out[i, j] = table_flat[flat_buckets[j, i]]
    if depth == 1:
        for i in range(nnz):
            est_out[i] = factor * (signs_t[i, 0] * gathered_out[i, 0])
        return
    buf = np.empty(depth, dtype=np.float64)
    mid = depth // 2
    odd = depth % 2 == 1
    for i in range(nnz):
        for j in range(depth):
            buf[j] = signs_t[i, j] * gathered_out[i, j]
        for a in range(1, depth):
            v = buf[a]
            b = a - 1
            while b >= 0 and buf[b] > v:
                buf[b + 1] = buf[b]
                b -= 1
            buf[b + 1] = v
        if odd:
            est_out[i] = factor * buf[mid]
        else:
            est_out[i] = factor * (0.5 * (buf[mid - 1] + buf[mid]))
