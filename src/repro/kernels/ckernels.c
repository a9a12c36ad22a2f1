/*
 * The compiled bodies of ten kernels whose contract is in api.py:
 * fused_update, whose NumPy reference (numpy_backend.py) is a
 * per-example Python loop; the serving reads fused_predict and
 * fused_query, whose reference hashes through the hasher, translates
 * through a snapshot's chunk map and gathers in NumPy calls before the
 * same exact margin or median; heap_maintain, whose
 * reference replays the WM passive heap's decision core per possible
 * admission; awm_update, whose reference is AWM's Algorithm 2 step per
 * example against a full active set; the parameter-server codec's
 * chunk_delta and chunk_add, whose reference is a gather -> arithmetic
 * -> scatter over whole chunks, and chunk_gather and chunk_scatter,
 * whose reference is numpy's take and fancy-index assignment; and
 * hash_rows, whose reference is the hasher's memo in front of
 * HashFamily.all_rows (the oracle both match bit for bit).
 * Loaded by c_backend.py, which builds this file with exactly
 * "cc -O2 -fPIC -shared -ffp-contract=off": FMA contraction, -ffast-math
 * reassociation or -march=native code would change float bits.
 *
 * Bit-identity with the reference rests on four ports: fsum_add and
 * fsum_result follow CPython's math_fsum operation for operation
 * (special values and its two errors included); dloss is the arithmetic
 * of the repro.learning.losses classes; scatters run in np.add.at's
 * element order over each example's (depth, nnz_i) block; the chunk
 * loops do per cell the rounded operations numpy does per element; the
 * heap loops and fused_query sort each median row the way numpy's stable
 * sort does and the heap loops find the store minimum the way argmin
 * does; hash_rows and the reads run the hash classes' integer steps
 * (uint64 XORs, and 128-bit Horner products with _mod_mersenne61's fold)
 * on the key read as uint64.  When
 * both operands of one operation are NaN, which payload the result
 * carries is unspecified: numpy's own choice depends on the array length
 * (its SIMD body and scalar remainder differ).
 *
 * Four layouts keep the hot loops short without changing a float
 * operation or its order.  The sums gather up to GATHER products into a
 * block before fsum_add sees them (gather-then-sum), so the table loads
 * are not serialized behind fsum's partials loop.  The store kernels
 * keep one cached minimum per MIN_BLOCK slots next to the store's own
 * (block minima): a stale store minimum is rebuilt from the stale blocks
 * and the block minima instead of rescanning every slot, and the cached
 * slot they return stays exactly what a full rescan would leave.
 * awm_update splits each example's positions, without a branch, into a
 * member list and a tail list (position lists), which the member and
 * tail steps walk in position order instead of testing membership per
 * position.  chunk_delta and chunk_add run each full chunk through a
 * restrict-qualified loop of exactly CHUNK cells (row loops), which the
 * compiler vectorizes; a partial last chunk keeps a scalar loop, and
 * the chunk copies are memcpy calls.
 * Scratch comes from the caller's workspace, length-checked here: no
 * kernel allocates or sizes a stack array by its arguments.
 *
 * Entry points return 0 or a status (ST_* in the low four bits, a detail
 * above) and stop exactly where the reference raises, leaving the same
 * partial state.  Every access is bounds-checked against the sizes
 * passed in: indptr must be non-decreasing within [0, ncols], a flat
 * bucket b must satisfy -size <= b < size (negative buckets wrap, as in
 * numpy's take), and chunk ids must be strictly increasing within
 * [0, n_chunks).
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The exception c_backend._raise_status makes of each status. */
enum {
    ST_OK,
    ST_BUCKET,        /* IndexError: flat bucket outside the table */
    ST_OVERFLOW,      /* OverflowError: intermediate overflow in fsum */
    ST_INF_MINUS_INF, /* ValueError: -inf + inf in fsum */
    ST_ZERO_DIV,      /* ZeroDivisionError: float division by zero */
    ST_INDPTR,        /* ValueError: indptr out of range or decreasing */
    ST_LOSS_ID,       /* ValueError: unknown loss_id */
    ST_GAMMA,         /* ValueError: smoothed-hinge gamma <= 0 */
    ST_SHORT,         /* ValueError: a recording buffer is too short */
    ST_PARTIALS,      /* RuntimeError: partials exhausted (unreachable) */
    ST_CHUNK_ID,      /* ValueError: chunk ids not strictly increasing
                         within [0, n_chunks) */
    ST_STORE          /* ValueError: the store's live keys repeat, or its
                         cached minimum slot is out of range */
};

/* Multiplied, not shifted: a read's detail (the index of a cell outside
 * the table) may be negative. */
#define STATUS(code, detail) ((int64_t)(code) | (int64_t)(detail) * 16)

/* Non-overlapping nonzero partials each own at least one bit of the
 * 2098-bit span of doubles, so this bound can never be reached. */
#define MAX_PARTIALS 2112

/* Same value as repro.kernels.api.RENORM_THRESHOLD. */
#define RENORM 1e-150

/* Same values as repro.kernels.api.CHUNK_LOG / CHUNK. */
#define CHUNK_LOG 8
#define CHUNK ((int64_t)1 << CHUNK_LOG)

typedef struct {
    int64_t n;
    double special_sum;
    double inf_sum;
    double p[MAX_PARTIALS];
} fsum_state;

/* One iteration of math_fsum's "for x in iterable" loop. */
static inline int fsum_add(fsum_state *s, double x)
{
    double *p = s->p;
    double xsave = x;
    int64_t i = 0;
    for (int64_t j = 0; j < s->n; j++) {
        double y = p[j];
        if (fabs(x) < fabs(y)) {
            double t = x;
            x = y;
            y = t;
        }
        double hi = x + y;
        double lo = y - (hi - x);
        if (lo != 0.0)
            p[i++] = lo;
        x = hi;
    }
    s->n = i;
    if (x != 0.0) {
        if (!isfinite(x)) {
            /* Either intermediate overflow of finite summands or a
             * nonfinite summand; the latter is summed apart. */
            if (isfinite(xsave))
                return ST_OVERFLOW;
            if (isinf(xsave))
                s->inf_sum += xsave;
            s->special_sum += xsave;
            s->n = 0;
        } else {
            if (i >= MAX_PARTIALS)
                return ST_PARTIALS;
            p[s->n++] = x;
        }
    }
    return ST_OK;
}

/* math_fsum's final summation, writing the exactly rounded sum. */
static inline int fsum_result(fsum_state *s, double *out)
{
    double *p = s->p;
    int64_t n = s->n;
    double hi = 0.0, lo = 0.0, x, y, yr;
    if (s->special_sum != 0.0) {
        if (isnan(s->inf_sum))
            return ST_INF_MINUS_INF;
        *out = s->special_sum;
        return ST_OK;
    }
    if (n > 0) {
        hi = p[--n];
        /* Sum from the top, stopping when the sum becomes inexact. */
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* Make half-even rounding work across multiple partials. */
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0)
                      || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    *out = hi;
    return ST_OK;
}

/* Flat bucket b wrapped into [0, size) the way numpy's take wraps
 * negative indices; -1 when it lies outside [-size, size). */
static inline int64_t wrap_bucket(int64_t b, int64_t size)
{
    if (b < 0)
        b += size;
    return (b >= 0 && b < size) ? b : -1;
}

static int64_t check_indptr(const int64_t *indptr, int64_t n, int64_t ncols)
{
    int64_t lo = indptr[0];
    if (lo < 0 || lo > ncols)
        return STATUS(ST_INDPTR, 0);
    for (int64_t i = 0; i < n; i++) {
        int64_t hi = indptr[i + 1];
        if (hi < lo || hi > ncols)
            return STATUS(ST_INDPTR, i + 1);
        lo = hi;
    }
    return ST_OK;
}

/* Products a sum gathers into a block before fsum_add sees them, so the
 * table loads run ahead of fsum's serial partials loop. */
#define GATHER 64

/* fsum_add over buf[0..m), in order. */
static inline int fsum_add_all(fsum_state *s, const double *buf, int64_t m)
{
    for (int64_t q = 0; q < m; q++) {
        int st = fsum_add(s, buf[q]);
        if (st)
            return st;
    }
    return ST_OK;
}

/* The exactly rounded sum of table[fb] * sv over columns [lo, hi) of
 * every row: numpy's take (which checks every bucket first), then
 * math.fsum over the C-order products, gathered GATHER at a time. */
static int64_t example_sum(const double *table, int64_t size,
                           const int64_t *fb, const double *sv,
                           int64_t depth, int64_t ncols,
                           int64_t lo, int64_t hi,
                           fsum_state *s, double *total)
{
    double buf[GATHER];
    for (int64_t j = 0; j < depth; j++) {
        const int64_t *row = fb + j * ncols;
        for (int64_t p = lo; p < hi; p++) {
            if (wrap_bucket(row[p], size) < 0)
                return STATUS(ST_BUCKET, j * ncols + p);
        }
    }
    s->n = 0;
    s->special_sum = s->inf_sum = 0.0;
    for (int64_t j = 0; j < depth; j++) {
        const int64_t *row = fb + j * ncols;
        const double *svr = sv + j * ncols;
        for (int64_t p = lo; p < hi; p += GATHER) {
            int64_t m = hi - p < GATHER ? hi - p : GATHER;
            for (int64_t q = 0; q < m; q++)
                buf[q] = table[wrap_bucket(row[p + q], size)] * svr[p + q];
            int st = fsum_add_all(s, buf, m);
            if (st)
                return st;
        }
    }
    return fsum_result(s, total);
}

/* The derivative of the loss with kernel id loss_id at y * tau: the
 * dloss arithmetic of repro.learning.losses, operation for operation. */
static inline double dloss(int64_t loss_id, double gamma, double ytau)
{
    switch (loss_id) {
    case 0: /* logistic */
        if (ytau >= 0.0) {
            double e = exp(-ytau);
            return -e / (1.0 + e);
        }
        return -1.0 / (1.0 + exp(ytau));
    case 1: /* smoothed hinge */
        if (ytau >= 1.0)
            return 0.0;
        if (ytau >= 1.0 - gamma)
            return (ytau - 1.0) / gamma;
        return -1.0;
    case 2: /* hinge */
        return ytau <= 1.0 ? -1.0 : 0.0;
    default: /* squared */
        return ytau - 1.0;
    }
}

/*
 * fused_update: one mini-batch of sequential OGD steps over the CSR
 * slices indptr[i]:indptr[i+1] of the (depth, ncols) row-major blocks fb
 * and sv.  state[0] holds the starting scale; once the arguments pass
 * the checks, it receives the scale reached and state[1] the number of
 * examples completed, on every return (a raising one included, which
 * leaves the reference's partial state).  gathered (gathered_rows x
 * depth, row-major) records post-update cells when gathered_rows > 0;
 * touched follows the api.py stream contract.
 */
int64_t repro_fused_update(
    double *table, int64_t size,
    const int64_t *fb, const double *sv, int64_t depth, int64_t ncols,
    const int64_t *indptr, const int64_t *labels, const double *etas,
    int64_t n, double lam, double sqrt_s,
    int64_t loss_id, double loss_param,
    double *margins, double *gathered, int64_t gathered_rows,
    double *scales, int64_t n_scales,
    int64_t *touched, int64_t n_touched, double *state)
{
    fsum_state s;
    double scale = state[0];
    int record = gathered_rows > 0;
    int64_t pos = 1;
    int64_t st;

    /* The reference builds its loss object before touching anything. */
    if (loss_id < 0 || loss_id > 3)
        return STATUS(ST_LOSS_ID, 0);
    if (loss_id == 1 && loss_param <= 0.0)
        return STATUS(ST_GAMMA, 0);
    st = check_indptr(indptr, n, ncols);
    if (st)
        return st;
    if (n_touched < 1 + depth * (indptr[n] - indptr[0]))
        return STATUS(ST_SHORT, 0);
    if (record && (gathered_rows < indptr[n] || n_scales < n))
        return STATUS(ST_SHORT, 1);
    touched[0] = 0;

    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t lo = indptr[i], hi = indptr[i + 1];
        double total, tau;
        st = example_sum(table, size, fb, sv, depth, ncols, lo, hi,
                         &s, &total);
        if (st)
            break;
        if (sqrt_s == 0.0) {
            st = ST_ZERO_DIV;
            break;
        }
        tau = scale * total / sqrt_s;
        margins[i] = tau;

        double y = (double)labels[i];
        double g = dloss(loss_id, loss_param, y * tau);
        double eta = etas[i];
        if (lam > 0.0) {
            scale *= 1.0 - eta * lam;
            if (scale < RENORM) {
                for (int64_t c = 0; c < size; c++)
                    table[c] *= scale;
                scale = 1.0;
                touched[0] += 1;
            }
        }
        double denom = sqrt_s * scale;
        if (denom == 0.0) {
            st = ST_ZERO_DIV;
            break;
        }
        double coeff = -eta * y * g / denom;
        for (int64_t j = 0; j < depth; j++) {
            const int64_t *row = fb + j * ncols;
            const double *svr = sv + j * ncols;
            for (int64_t p = lo; p < hi; p++) {
                table[wrap_bucket(row[p], size)] += coeff * svr[p];
                touched[pos++] = row[p];
            }
        }
        if (record) {
            for (int64_t p = lo; p < hi; p++) {
                for (int64_t j = 0; j < depth; j++)
                    gathered[p * depth + j] =
                        table[wrap_bucket(fb[j * ncols + p], size)];
            }
            scales[i] = scale;
        }
    }
    state[0] = scale;
    state[1] = (double)i;
    return st;
}

/* The detail of a bad chunk id list: the first entry i with
 * ids[i] <= ids[i - 1] (or < 0 at i = 0) or ids[i] >= n_chunks. */
static int64_t check_chunk_ids(const int64_t *ids, int64_t k,
                               int64_t n_chunks)
{
    int64_t prev = -1;
    for (int64_t i = 0; i < k; i++) {
        if (ids[i] <= prev || ids[i] >= n_chunks)
            return STATUS(ST_CHUNK_ID, i);
        prev = ids[i];
    }
    return ST_OK;
}

/*
 * The row loops of the chunk kernels: one full CHUNK-cell chunk each.
 * The restrict-qualified pointers and the fixed trip count let GCC
 * vectorize them at -O2 (CI checks -fopt-info-vec-optimized names every
 * loop tagged "row loop" below); vector lanes do the same rounded
 * operation per cell as the scalar loops that handle a partial last
 * chunk.  The Python wrappers reject buffers that may share memory
 * (numpy_backend.check_chunk_buffers), which is what makes restrict
 * hold.
 */
static inline void row_delta(const double *restrict c,
                             const double *restrict b, double *restrict u)
{
    for (int64_t j = 0; j < CHUNK; j++) /* row loop: row_delta */
        u[j] = c[j] - b[j];
}

static inline void row_delta_scaled(const double *restrict c,
                                    const double *restrict b,
                                    double *restrict u, double alpha,
                                    double drift)
{
    for (int64_t j = 0; j < CHUNK; j++) /* row loop: row_delta_scaled */
        u[j] = alpha * c[j] - drift * b[j];
}

static inline void row_add(double *restrict t, const double *restrict u)
{
    for (int64_t j = 0; j < CHUNK; j++) /* row loop: row_add */
        t[j] += u[j];
}

static inline void row_add_scaled(double *restrict t,
                                  const double *restrict u, double scale)
{
    for (int64_t j = 0; j < CHUNK; j++) /* row loop: row_add_scaled */
        t[j] += u[j] / scale;
}

/* Cells of chunk id in a size-cell table: CHUNK, or fewer for a partial
 * last chunk. */
static inline int64_t chunk_len(int64_t id, int64_t size)
{
    int64_t off = id << CHUNK_LOG;
    return size - off < CHUNK ? size - off : CHUNK;
}

/*
 * chunk_delta: for each of the k chunk ids, out row i = alpha * cur -
 * drift * base (cur - base when alpha == drift == 1.0) over the chunk's
 * cells of table (cur) and base, then base takes cur (copied while the
 * chunk is still in cache).  The padded tail of a partial last chunk
 * gets the formula on zeros, as numpy's zero-filled gather gives.
 * Checks every id and length first.
 */
int64_t repro_chunk_delta(
    const double *table, int64_t size, double *base, int64_t base_len,
    const int64_t *ids, int64_t k, double alpha, double drift,
    double *out, int64_t out_len)
{
    int exact = alpha == 1.0 && drift == 1.0;
    double pad = exact ? 0.0 - 0.0 : alpha * 0.0 - drift * 0.0;
    int64_t st;

    if (base_len < size || out_len < k * CHUNK)
        return STATUS(ST_SHORT, 2);
    st = check_chunk_ids(ids, k, (size + CHUNK - 1) >> CHUNK_LOG);
    if (st)
        return st;
    for (int64_t i = 0; i < k; i++) {
        int64_t off = ids[i] << CHUNK_LOG;
        int64_t len = chunk_len(ids[i], size);
        const double *c = table + off;
        double *b = base + off;
        double *u = out + i * CHUNK;
        if (len == CHUNK) {
            if (exact)
                row_delta(c, b, u);
            else
                row_delta_scaled(c, b, u, alpha, drift);
        } else {
            if (exact) {
                for (int64_t j = 0; j < len; j++)
                    u[j] = c[j] - b[j];
            } else {
                for (int64_t j = 0; j < len; j++)
                    u[j] = alpha * c[j] - drift * b[j];
            }
            for (int64_t j = len; j < CHUNK; j++)
                u[j] = pad;
        }
        memcpy(b, c, (size_t)len * sizeof *b);
    }
    return ST_OK;
}

/*
 * chunk_add: each of the k chunks of table gains data row i (t + u, or
 * t + u / scale when scale != 1.0); a partial last chunk ignores the
 * row's padded tail.  Checks every id and length first.
 */
int64_t repro_chunk_add(
    double *table, int64_t size, const int64_t *ids, int64_t k,
    const double *data, int64_t data_len, double scale)
{
    int64_t st;

    if (data_len < k * CHUNK)
        return STATUS(ST_SHORT, 2);
    st = check_chunk_ids(ids, k, (size + CHUNK - 1) >> CHUNK_LOG);
    if (st)
        return st;
    for (int64_t i = 0; i < k; i++) {
        int64_t len = chunk_len(ids[i], size);
        double *t = table + (ids[i] << CHUNK_LOG);
        const double *u = data + i * CHUNK;
        if (len == CHUNK) {
            if (scale == 1.0)
                row_add(t, u);
            else
                row_add_scaled(t, u, scale);
        } else if (scale == 1.0) {
            for (int64_t j = 0; j < len; j++)
                t[j] += u[j];
        } else {
            for (int64_t j = 0; j < len; j++)
                t[j] += u[j] / scale;
        }
    }
    return ST_OK;
}

/*
 * chunk_gather: out row i takes the cells of chunk ids[i] of table, bit
 * for bit; only the padded tail of a partial last chunk is zeroed.
 * Checks every id and length first.
 */
int64_t repro_chunk_gather(
    const double *table, int64_t size, const int64_t *ids, int64_t k,
    double *out, int64_t out_len)
{
    int64_t st;

    if (out_len < k * CHUNK)
        return STATUS(ST_SHORT, 2);
    st = check_chunk_ids(ids, k, (size + CHUNK - 1) >> CHUNK_LOG);
    if (st)
        return st;
    for (int64_t i = 0; i < k; i++) {
        int64_t len = chunk_len(ids[i], size);
        double *u = out + i * CHUNK;
        memcpy(u, table + (ids[i] << CHUNK_LOG), (size_t)len * sizeof *u);
        if (len < CHUNK)
            memset(u + len, 0, (size_t)(CHUNK - len) * sizeof *u);
    }
    return ST_OK;
}

/*
 * chunk_scatter: the cells of chunk ids[i] of table and of base both
 * take data row i's bits (a partial last chunk its row's head), in one
 * pass over the rows.  base copies the table chunk just written, still
 * in cache, which beat copying the row twice on a 2-vCPU Xeon host
 * (1.1 ms against 1.4-2.2 ms for 3,060 chunks).  Checks every id and
 * length first.
 */
int64_t repro_chunk_scatter(
    double *table, int64_t size, double *base, int64_t base_len,
    const int64_t *ids, int64_t k, const double *data, int64_t data_len)
{
    int64_t st;

    if (base_len < size || data_len < k * CHUNK)
        return STATUS(ST_SHORT, 2);
    st = check_chunk_ids(ids, k, (size + CHUNK - 1) >> CHUNK_LOG);
    if (st)
        return st;
    for (int64_t i = 0; i < k; i++) {
        int64_t off = ids[i] << CHUNK_LOG;
        size_t bytes = (size_t)chunk_len(ids[i], size) * sizeof *data;
        const double *u = data + i * CHUNK;
        memcpy(table + off, u, bytes);
        memcpy(base + off, table + off, bytes);
    }
    return ST_OK;
}

/*
 * heap_maintain: the WM passive heap's refresh and admissions for the
 * examples start..n-1 of one batch, against a full store of `live`
 * entries (keys, raw, scale; min_io[0] its cached minimum slot, -1 =
 * stale).  Per example, in stream order, exactly what
 * numpy_backend.maintain_decide does with the recorded estimates: the
 * members take their estimate (the last write to a slot wins), then
 * each non-member that beats the threshold left by the refresh
 * re-checks the live minimum and replaces the first minimal slot (ties
 * reject).  Membership comes from a probe table over the live keys; a
 * stale minimum is rebuilt from per-block minima (block, one slot per
 * MIN_BLOCK store slots).  Admissions go to log as (key, evicted key,
 * slot) rows, their count to min_io[1]; min_io[0] receives the final
 * cached minimum.  Checks indptr, the store and every buffer length
 * before writing anything.
 */

/* numpy's float sort order: NaN after everything else. */
static inline int sort_lt(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* The estimate of one feature from its depth signed cells row[0..depth)
 * (sorted in place the way numpy's stable row sort orders them): the
 * median, times factor, then the l1 soft threshold of numpy's sign /
 * maximum. */
static double row_estimate(double *row, int64_t depth, double factor,
                           double l1)
{
    double med;
    if (depth == 1) {
        med = row[0];
    } else {
        for (int64_t j = 1; j < depth; j++) {
            double v = row[j];
            int64_t k = j;
            while (k > 0 && sort_lt(v, row[k - 1])) {
                row[k] = row[k - 1];
                k--;
            }
            row[k] = v;
        }
        int64_t mid = depth / 2;
        med = depth % 2 ? row[mid] : (row[mid - 1] + row[mid]) * 0.5;
    }
    double e = med * factor;
    if (l1 > 0.0) {
        double sign = e > 0.0 ? 1.0 : e < 0.0 ? -1.0 : e == 0.0 ? 0.0 : e;
        double shrunk = fabs(e) - l1;
        e = sign * (shrunk < 0.0 ? 0.0 : shrunk);
    }
    return e;
}

/* The estimate of position p from the recorded products
 * signs[j, p] * gathered[p, j]. */
static double position_estimate(const double *signs, const double *gathered,
                                int64_t nnz, int64_t depth, int64_t p,
                                double factor, double l1, double *row)
{
    for (int64_t j = 0; j < depth; j++)
        row[j] = signs[j * nnz + p] * gathered[p * depth + j];
    return row_estimate(row, depth, factor, l1);
}

/* Linear-probing table of key -> slot + 1 (0 = empty cell), one
 * (key, slot + 1) pair per cell.  At most 1/8 full, so a lookup of a
 * non-member (most positions) is usually one probe. */
typedef struct {
    int64_t *cell;
    uint64_t mask;
    int shift;
} probe_table;

static inline uint64_t probe_home(const probe_table *t, int64_t key)
{
    return ((uint64_t)key * 0x9E3779B97F4A7C15ull) >> t->shift;
}

static inline int64_t probe_find(const probe_table *t, int64_t key)
{
    for (uint64_t i = probe_home(t, key);; i = (i + 1) & t->mask) {
        const int64_t *c = t->cell + 2 * i;
        if (c[1] == 0)
            return -1;
        if (c[0] == key)
            return c[1] - 1;
    }
}

/* Insert an absent key; 0, or -1 when the key is already there. */
static int probe_insert(probe_table *t, int64_t key, int64_t slot)
{
    uint64_t i = probe_home(t, key);
    for (; t->cell[2 * i + 1] != 0; i = (i + 1) & t->mask) {
        if (t->cell[2 * i] == key)
            return -1;
    }
    t->cell[2 * i] = key;
    t->cell[2 * i + 1] = slot + 1;
    return 0;
}

/* Remove a present key, shifting later cells of its run back. */
static void probe_remove(probe_table *t, int64_t key)
{
    uint64_t i = probe_home(t, key);
    while (t->cell[2 * i + 1] == 0 || t->cell[2 * i] != key)
        i = (i + 1) & t->mask;
    for (uint64_t j = (i + 1) & t->mask; t->cell[2 * j + 1] != 0;
         j = (j + 1) & t->mask) {
        uint64_t home = probe_home(t, t->cell[2 * j]);
        if (((j - home) & t->mask) >= ((j - i) & t->mask)) {
            t->cell[2 * i] = t->cell[2 * j];
            t->cell[2 * i + 1] = t->cell[2 * j + 1];
            i = j;
        }
    }
    t->cell[2 * i + 1] = 0;
}

/* The store's slots in blocks of MIN_BLOCK, each with a cached minimum
 * slot (-1 = stale) that touch_min maintains like the store's own. */
#define MIN_BLOCK_LOG 6
#define MIN_BLOCK ((int64_t)1 << MIN_BLOCK_LOG)

static inline int64_t min_blocks(int64_t live)
{
    return (live + MIN_BLOCK - 1) >> MIN_BLOCK_LOG;
}

/* numpy's argmin of |raw[lo..hi)|: the first NaN, else the first
 * smallest. */
static inline int64_t scan_min(const double *raw, int64_t lo, int64_t hi)
{
    double best = fabs(raw[lo]);
    int64_t ms = lo;
    for (int64_t i = lo + 1; i < hi && best == best; i++) {
        double v = fabs(raw[i]);
        if (v < best || v != v) {
            best = v;
            ms = i;
        }
    }
    return ms;
}

/* TopKStore._min: the cached minimum slot, else argmin over the block
 * minima (rescanning only the stale blocks), cached.  The first NaN
 * lies in the first block whose minimum is NaN, and the first smallest
 * value in the first block whose minimum is smallest, so this is the
 * slot a scan of every slot picks. */
static inline int64_t store_min(const double *raw, int64_t live,
                                int64_t *block, int64_t *min_slot)
{
    int64_t ms = *min_slot;
    if (ms < 0) {
        double best = 0.0;
        for (int64_t b = 0; b < min_blocks(live) && best == best; b++) {
            int64_t bs = block[b];
            if (bs < 0) {
                int64_t lo = b << MIN_BLOCK_LOG;
                bs = scan_min(raw, lo, live - lo < MIN_BLOCK
                                           ? live : lo + MIN_BLOCK);
                block[b] = bs;
            }
            double v = fabs(raw[bs]);
            if (b == 0 || v < best || v != v) {
                best = v;
                ms = bs;
            }
        }
        *min_slot = ms;
    }
    return ms;
}

/* TopKStore._touch_value: patch the cached minimum after raw[slot]
 * changed, in raw space with ties to the lower slot, so it names the
 * slot a rescan picks; a write to the cached slot itself, or a NaN,
 * drops it.  The same rule keeps a block's minimum. */
static inline void touch_min(const double *raw, int64_t slot,
                             int64_t *min_slot)
{
    int64_t ms = *min_slot;
    if (ms < 0)
        return;
    if (slot == ms) {
        *min_slot = -1;
        return;
    }
    double pn = fabs(raw[slot]), pm = fabs(raw[ms]);
    if (pn != pn)
        *min_slot = -1;
    else if (pn < pm || (pn == pm && slot < ms))
        *min_slot = slot;
}

/* touch_min on the store's cached minimum and on slot's block. */
static inline void touch_both(const double *raw, int64_t slot,
                              int64_t *block, int64_t *min_slot)
{
    touch_min(raw, slot, min_slot);
    touch_min(raw, slot, block + (slot >> MIN_BLOCK_LOG));
}

/* Every block minimum stale: on entry, and after a write to every raw
 * value. */
static inline void stale_blocks(int64_t *block, int64_t live)
{
    for (int64_t b = 0; b < min_blocks(live); b++)
        block[b] = -1;
}

/* Smallest power of two >= 8 * live, and its log2. */
static int64_t probe_cells(int64_t live, int *bits)
{
    int64_t cells = 8;
    *bits = 3;
    while (cells < 8 * live) {
        cells <<= 1;
        (*bits)++;
    }
    return cells;
}

int64_t repro_heap_maintain(
    const int64_t *indices, int64_t nnz,
    const int64_t *indptr, int64_t n, int64_t start,
    const double *signs, const double *gathered, int64_t depth,
    const double *scales, int64_t n_scales, double sqrt_s, double l1,
    int64_t *keys, double *raw, int64_t live, int64_t capacity,
    double scale,
    int64_t *probe, int64_t probe_len,
    double *est, int64_t *slots, int64_t scratch_len,
    double *row, int64_t row_len, int64_t *block, int64_t block_len,
    int64_t *log, int64_t log_len, int64_t *min_io)
{
    probe_table t;
    int bits;
    int64_t cells, st, admitted = 0;
    int64_t min_slot = min_io[0];

    st = check_indptr(indptr, n, nnz);
    if (st)
        return st;
    if (start < 0 || start > n)
        return STATUS(ST_INDPTR, 0);
    if (live < 1 || live != capacity || min_slot < -1 || min_slot >= live)
        return STATUS(ST_STORE, 1);
    cells = probe_cells(live, &bits);
    if (depth < 1 || n_scales < n || scratch_len < nnz || row_len < depth
        || probe_len < 2 * cells || block_len < min_blocks(live)
        || log_len < 3 * (indptr[n] - indptr[start]))
        return STATUS(ST_SHORT, 3);
    t.cell = probe;
    t.mask = (uint64_t)cells - 1;
    t.shift = 64 - bits;
    for (int64_t c = 0; c < cells; c++)
        t.cell[2 * c + 1] = 0;
    for (int64_t s = 0; s < live; s++) {
        if (probe_insert(&t, keys[s], s))
            return STATUS(ST_STORE, 0);
    }
    stale_blocks(block, live);

    for (int64_t i = start; i < n; i++) {
        int64_t lo = indptr[i], hi = indptr[i + 1];
        if (hi == lo)
            continue;
        double factor = depth == 1 ? scales[i] : scales[i] * sqrt_s;
        int any_member = 0, all_member = 1;
        for (int64_t p = lo; p < hi; p++) {
            est[p] = position_estimate(signs, gathered, nnz, depth, p,
                                       factor, l1, row);
            slots[p] = probe_find(&t, indices[p]);
            if (slots[p] >= 0)
                any_member = 1;
            else
                all_member = 0;
        }
        if (any_member) {
            for (int64_t p = lo; p < hi; p++) {
                int64_t sl = slots[p];
                if (sl >= 0) {
                    raw[sl] = scale == 1.0 ? est[p] : est[p] / scale;
                    touch_min(raw, sl, block + (sl >> MIN_BLOCK_LOG));
                }
            }
            min_slot = -1;
            if (all_member)
                continue;
        }
        double threshold =
            fabs(raw[store_min(raw, live, block, &min_slot)] * scale);
        for (int64_t p = lo; p < hi; p++) {
            double w = est[p];
            if (slots[p] >= 0 || !(fabs(w) > threshold))
                continue;
            int64_t s = probe_find(&t, indices[p]);
            if (s >= 0) {
                /* A repeated key admitted earlier in this example:
                 * push updates it in place (TopKStore._touch_value). */
                raw[s] = w / scale;
                touch_both(raw, s, block, &min_slot);
                continue;
            }
            int64_t ms = store_min(raw, live, block, &min_slot);
            if (!(fabs(w) > fabs(raw[ms] * scale)))
                continue;
            log[3 * admitted] = indices[p];
            log[3 * admitted + 1] = keys[ms];
            log[3 * admitted + 2] = ms;
            admitted++;
            probe_remove(&t, keys[ms]);
            probe_insert(&t, indices[p], ms);
            keys[ms] = indices[p];
            raw[ms] = w / scale;
            min_slot = -1;
            touch_min(raw, ms, block + (ms >> MIN_BLOCK_LOG));
        }
    }
    min_io[0] = min_slot;
    min_io[1] = admitted;
    return ST_OK;
}

/* fsum of table[fb] * sv over the positions pos[0..k) of every row, row
 * by row, each row's products gathered GATHER at a time. */
static int gather_sum(const double *table, const int64_t *fb,
                      const double *sv, int64_t depth, int64_t nnz,
                      const int64_t *pos, int64_t k, fsum_state *s,
                      double *total)
{
    double buf[GATHER];
    s->n = 0;
    s->special_sum = s->inf_sum = 0.0;
    for (int64_t j = 0; j < depth; j++) {
        const int64_t *f = fb + j * nnz;
        const double *w = sv + j * nnz;
        for (int64_t q = 0; q < k; q += GATHER) {
            int64_t m = k - q < GATHER ? k - q : GATHER;
            for (int64_t r = 0; r < m; r++) {
                int64_t p = pos[q + r];
                buf[r] = table[f[p]] * w[p];
            }
            int st = fsum_add_all(s, buf, m);
            if (st)
                return st;
        }
    }
    return fsum_result(s, total);
}

/*
 * awm_update: AWM-Sketch Algorithm 2 for the examples start..n-1 of one
 * batch, against a full active set of `live` entries (keys, raw; state
 * holds the table scale, the fold log and the store scale, io[2] the
 * cached minimum slot, -1 = stale).  Per example, in stream order,
 * exactly numpy_backend.awm_update's floats: the member margin (a
 * running sum from 0.0 of (raw * hscale) * value in position order), the
 * tail margin scale * fsum(cell * sv) / sqrt_s (row by row), dloss, both
 * lazy decays with their folds, the member step, the tail estimates, the
 * screen against the threshold left by the member step, a live re-check
 * and replacement of the first minimal slot with the evictee fold, and
 * the stay-scatter.  Membership comes from a probe table over the live
 * keys (slots, per position), split per example into the member and the
 * tail positions (members / tail, in position order), which the member
 * and the tail steps walk; a stale minimum is rebuilt from per-block
 * minima (block, one slot per MIN_BLOCK store slots).  An evictee's rows
 * come from key_fb / key_signs (depth x capacity, per slot), which each
 * admission overwrites with the admitted position's rows.  Admissions go
 * to log as (key, evicted key, slot) rows.  Every evictee-fold cell's
 * chunk, and on a table fold every chunk, is marked in dirty.  io[0]
 * receives the examples completed, io[1] the admissions, io[2] the
 * cached minimum, and state the scales, on every return; an fsum error
 * stops before the failing example changes anything.  Checks indptr, the
 * store, every buffer length and every flat bucket first.
 */
int64_t repro_awm_update(
    double *table, int64_t size,
    const int64_t *indices, const double *values, const int64_t *indptr,
    const int64_t *labels, const double *etas, int64_t n, int64_t start,
    const int64_t *fb, const double *signs, const double *sv,
    int64_t depth, int64_t nnz,
    int64_t *key_fb, double *key_signs,
    int64_t *keys, double *raw, int64_t live, int64_t capacity,
    double lam, double sqrt_s, double l1, int64_t loss_id,
    double loss_param, double *state, int64_t *io,
    double *margins, uint8_t *dirty, int64_t n_dirty,
    int64_t *probe, int64_t probe_len,
    int64_t *slots, int64_t *members, int64_t *tail, double *cand,
    int64_t scratch_len, double *row, int64_t row_len,
    int64_t *block, int64_t block_len,
    int64_t *admits, int64_t admits_len)
{
    probe_table t;
    fsum_state s;
    int bits;
    int64_t cells, st = ST_OK, done = 0, admitted = 0;
    int64_t min_slot = io[2];
    double scale = state[0], fold_log = state[1], hscale = state[2];

    if (loss_id < 0 || loss_id > 3)
        return STATUS(ST_LOSS_ID, 0);
    if (loss_id == 1 && loss_param <= 0.0)
        return STATUS(ST_GAMMA, 0);
    st = check_indptr(indptr, n, nnz);
    if (st)
        return st;
    if (start < 0 || start > n)
        return STATUS(ST_INDPTR, 0);
    if (live < 1 || live != capacity || min_slot < -1 || min_slot >= live)
        return STATUS(ST_STORE, 1);
    cells = probe_cells(live, &bits);
    if (depth < 1 || scratch_len < nnz || row_len < depth
        || probe_len < 2 * cells || block_len < min_blocks(live)
        || admits_len < 3 * (indptr[n] - indptr[start])
        || n_dirty < ((size + CHUNK - 1) >> CHUNK_LOG))
        return STATUS(ST_SHORT, 4);
    for (int64_t j = 0; j < depth; j++) {
        for (int64_t p = indptr[start]; p < indptr[n]; p++) {
            if (fb[j * nnz + p] < 0 || fb[j * nnz + p] >= size)
                return STATUS(ST_BUCKET, 0);
        }
        for (int64_t c = 0; c < live; c++) {
            if (key_fb[j * capacity + c] < 0
                || key_fb[j * capacity + c] >= size)
                return STATUS(ST_BUCKET, 0);
        }
    }
    t.cell = probe;
    t.mask = (uint64_t)cells - 1;
    t.shift = 64 - bits;
    for (int64_t c = 0; c < cells; c++)
        t.cell[2 * c + 1] = 0;
    for (int64_t c = 0; c < live; c++) {
        if (probe_insert(&t, keys[c], c))
            return STATUS(ST_STORE, 0);
    }
    stale_blocks(block, live);

    for (int64_t i = start; i < n; i++) {
        int64_t lo = indptr[i], hi = indptr[i + 1], m = 0, k = 0;
        double tau = 0.0, total;

        /* Membership at the start of the example, split without a
         * branch into the member and the tail positions. */
        for (int64_t p = lo; p < hi; p++)
            slots[p] = probe_find(&t, indices[p]);
        for (int64_t p = lo; p < hi; p++) {
            int64_t in = slots[p] >= 0;
            members[m] = p;
            tail[k] = p;
            m += in;
            k += 1 - in;
        }
        for (int64_t q = 0; q < m; q++) {
            int64_t p = members[q];
            tau += raw[slots[p]] * hscale * values[p];
        }
        if (k) {
            st = gather_sum(table, fb, sv, depth, nnz, tail, k, &s, &total);
            if (st)
                break;
            tau += scale * total / sqrt_s;
        }

        double y = (double)labels[i];
        double g = dloss(loss_id, loss_param, y * tau);
        double eta = etas[i];
        if (lam > 0.0) {
            double decay = 1.0 - eta * lam;
            hscale *= decay;
            if (hscale < RENORM) {
                for (int64_t c = 0; c < live; c++)
                    raw[c] *= hscale;
                hscale = 1.0;
                min_slot = -1;
                stale_blocks(block, live);
            }
            scale *= decay;
            if (scale < RENORM) {
                fold_log += log(scale);
                for (int64_t c = 0; c < size; c++)
                    table[c] *= scale;
                scale = 1.0;
                for (int64_t c = 0; c < n_dirty; c++)
                    dirty[c] = 1;
            }
        }
        double step = eta * y * g;
        for (int64_t q = 0; q < m; q++) {
            int64_t p = members[q], sl = slots[p];
            double d = -step * values[p];
            raw[sl] += hscale == 1.0 ? d : d / hscale;
            touch_both(raw, sl, block, &min_slot);
        }

        if (k) {
            double factor = depth == 1 ? scale : sqrt_s * scale;
            for (int64_t q = 0; q < k; q++) {
                int64_t p = tail[q];
                for (int64_t j = 0; j < depth; j++)
                    row[j] = signs[j * nnz + p] * table[fb[j * nnz + p]];
                cand[q] = row_estimate(row, depth, factor, l1)
                          - step * values[p];
            }
            double threshold =
                fabs(raw[store_min(raw, live, block, &min_slot)] * hscale);
            double fold = sqrt_s * scale;
            int promoted = 0;
            for (int64_t q = 0; q < k; q++) {
                double c = cand[q];
                if (!(fabs(c) > threshold))
                    continue;
                int64_t p = tail[q];
                int64_t ms = store_min(raw, live, block, &min_slot);
                double mw = raw[ms] * hscale;
                if (!(fabs(c) > fabs(mw)))
                    continue;
                if (probe_find(&t, indices[p]) >= 0) {
                    /* A key repeated within the example (a SparseBatch
                     * never holds one): stop before the store holds it
                     * twice. */
                    st = STATUS(ST_STORE, 2);
                    break;
                }
                admits[3 * admitted] = indices[p];
                admits[3 * admitted + 1] = keys[ms];
                admits[3 * admitted + 2] = ms;
                admitted++;
                probe_remove(&t, keys[ms]);
                probe_insert(&t, indices[p], ms);
                keys[ms] = indices[p];
                raw[ms] = c / hscale;
                min_slot = -1;
                touch_min(raw, ms, block + (ms >> MIN_BLOCK_LOG));
                /* The evictee fold, from the evictee's rows. */
                int64_t *ef = key_fb + ms;
                double *es = key_signs + ms;
                for (int64_t j = 0; j < depth; j++)
                    row[j] = es[j * capacity] * table[ef[j * capacity]];
                double coeff = (mw - row_estimate(row, depth, fold, l1))
                               / fold;
                for (int64_t j = 0; j < depth; j++) {
                    int64_t f = ef[j * capacity];
                    table[f] += coeff * es[j * capacity];
                    dirty[f >> CHUNK_LOG] = 1;
                    ef[j * capacity] = fb[j * nnz + p];
                    es[j * capacity] = signs[j * nnz + p];
                }
                tail[q] = -1; /* promoted: no stay-scatter */
                promoted = 1;
            }
            if (st)
                break;
            if (promoted) {
                int64_t kept = 0;
                for (int64_t q = 0; q < k; q++) {
                    int64_t p = tail[q];
                    tail[kept] = p;
                    kept += p >= 0;
                }
                k = kept;
            }
            double coeff = -step / (sqrt_s * scale);
            for (int64_t j = 0; j < depth; j++) {
                const int64_t *f = fb + j * nnz;
                const double *w = sv + j * nnz;
                for (int64_t q = 0; q < k; q++)
                    table[f[tail[q]]] += coeff * w[tail[q]];
            }
        }
        margins[i] = tau;
        done++;
    }
    state[0] = scale;
    state[1] = fold_log;
    state[2] = hscale;
    io[0] = done;
    io[1] = admitted;
    io[2] = min_slot;
    return st;
}

/* Same values as repro.hashing.universal.MERSENNE_61 and
 * repro.hashing.family._SIGN_BIT. */
#define MERSENNE_61 (((uint64_t)1 << 61) - 1)
#define SIGN_BIT 45

/* The hash kinds of repro.hashing.family.KIND_CODES. */
enum { HASH_TABULATION, HASH_POLYNOMIAL };

/* _mod_mersenne61's exact steps: one fold, then at most one subtraction
 * (not a canonical reduction).  Callers keep x below 2^125, so the fold
 * fits 64 bits. */
static inline uint64_t mod_mersenne61(unsigned __int128 x)
{
    uint64_t y = (uint64_t)(x & MERSENNE_61) + (uint64_t)(x >> 61);
    return y >= MERSENNE_61 ? y - MERSENNE_61 : y;
}

/* Row `row`'s hash of key k: tabulation XORs the row's byte tables over
 * k's little-endian bytes, as TabulationHash.hash does. */
static inline uint64_t tab_hash(const uint64_t *row, uint64_t k)
{
    return row[k & 255]
        ^ row[256 + ((k >> 8) & 255)]
        ^ row[512 + ((k >> 16) & 255)]
        ^ row[768 + ((k >> 24) & 255)]
        ^ row[1024 + ((k >> 32) & 255)]
        ^ row[1280 + ((k >> 40) & 255)]
        ^ row[1536 + ((k >> 48) & 255)]
        ^ row[1792 + (k >> 56)];
}

/* Polynomial: Horner's rule from the top coefficient over k folded
 * once, as PolynomialHash.hash does. */
static inline uint64_t poly_hash(const uint64_t *row, int64_t row_len,
                                 uint64_t k)
{
    uint64_t x = mod_mersenne61(k);
    uint64_t h = row[row_len - 1];
    for (int64_t d = row_len - 2; d >= 0; d--)
        h = mod_mersenne61((unsigned __int128)h * x + row[d]);
    return h;
}

/* A hash value's bucket (h & (width - 1) at a power-of-two width, else
 * h % width) and sign (bit 45 mapped to +-1.0). */
static inline int64_t hash_bucket(uint64_t h, uint64_t w, int pow2)
{
    return (int64_t)(pow2 ? h & (w - 1) : h % w);
}

static inline double hash_sign(uint64_t h)
{
    return (h >> SIGN_BIT) & 1 ? 1.0 : -1.0;
}

/*
 * hash_rows: HashFamily.all_rows(keys) into the (depth, n) row-major
 * buckets and signs.  packed holds the family's rows one after another,
 * row_len words each: for tabulation a row's 8 byte tables of 256 words,
 * for polynomial a row's coefficients, lowest degree first, over the key
 * read as uint64.  Reads only packed and keys and writes only the
 * outputs; it cannot fail (c_backend.py checks every buffer first).
 */
void repro_hash_rows(
    const uint64_t *packed, int64_t kind, int64_t row_len,
    int64_t depth, int64_t width,
    const int64_t *keys, int64_t n, int64_t *buckets, double *signs)
{
    uint64_t w = (uint64_t)width;
    int pow2 = (w & (w - 1)) == 0;

    for (int64_t j = 0; j < depth; j++) {
        const uint64_t *row = packed + j * row_len;
        int64_t *b = buckets + j * n;
        double *s = signs + j * n;
        if (kind == HASH_TABULATION) {
            for (int64_t i = 0; i < n; i++) {
                uint64_t h = tab_hash(row, (uint64_t)keys[i]);
                b[i] = hash_bucket(h, w, pow2);
                s[i] = hash_sign(h);
            }
        } else {
            for (int64_t i = 0; i < n; i++) {
                uint64_t h = poly_hash(row, row_len, (uint64_t)keys[i]);
                b[i] = hash_bucket(h, w, pow2);
                s[i] = hash_sign(h);
            }
        }
    }
}

/*
 * The serving reads, fused_query and fused_predict: each hashes the
 * request's keys (hash_rows' steps), translates the flat buckets through
 * a chunk-pooled snapshot's chunk map, gathers the cells and takes the
 * signed median or the exact margin, in one call.  With an active set
 * (AWM), a key the store holds is answered from its exact value instead,
 * found by binary search over the store's sorted live keys.
 */

/* A hash family's packed rows (see repro_hash_rows). */
typedef struct {
    const uint64_t *packed;
    int64_t kind, row_len, depth, width;
    int pow2;
} hash_family;

/* Key k's flat bucket in row j (the bucket plus j * width), and its
 * sign. */
static inline int64_t key_flat(const hash_family *f, int64_t j, int64_t k,
                               double *sign)
{
    const uint64_t *row = f->packed + j * f->row_len;
    uint64_t h = f->kind == HASH_TABULATION
        ? tab_hash(row, (uint64_t)k) : poly_hash(row, f->row_len, (uint64_t)k);
    *sign = hash_sign(h);
    return j * f->width + hash_bucket(h, (uint64_t)f->width, f->pow2);
}

/* The cells a read gathers: a dense raw table, or a snapshot's chunk pool
 * with its chunk -> pool-row map (cmap; NULL for a dense table). */
typedef struct {
    const double *cells;
    int64_t size;
    const int64_t *cmap;
} read_table;

/* The index of flat bucket b's cell: b itself in a dense table, else
 * rewritten through the chunk map as _translate_flat does. */
static inline int64_t read_index(const read_table *t, int64_t b)
{
    if (t->cmap)
        b = (t->cmap[b >> CHUNK_LOG] << CHUNK_LOG) | (b & (CHUNK - 1));
    return b;
}

/* An active set: its live keys sorted (keys), the slot of each (slots),
 * and the raw values and scale a member's exact value is raw * scale
 * of. */
typedef struct {
    const int64_t *keys, *slots;
    int64_t live;
    const double *raw;
    int64_t n_raw;
    double scale;
} member_store;

/* The slot holding key k, by binary search over the sorted keys: -1 for
 * a non-member, -2 for a slot outside raw. */
static inline int64_t member_slot(const member_store *m, int64_t k)
{
    const int64_t *base = m->keys;
    int64_t n = m->live;
    if (n == 0)
        return -1;
    while (n > 1) {
        int64_t half = n >> 1;
        base = base[half - 1] < k ? base + half : base;
        n -= half;
    }
    if (*base != k)
        return -1;
    int64_t s = m->slots[base - m->keys];
    return s >= 0 && s < m->n_raw ? s : -2;
}

/* The checks both reads run before anything is written: a family of at
 * least one row, a chunk map covering every flat bucket, and the row
 * scratch. */
static int64_t check_read(const hash_family *f, int64_t n_map,
                          const read_table *t, int64_t n_row)
{
    if (f->depth < 1 || f->width < 1 || n_row < f->depth
        || (t->cmap && n_map < ((f->depth * f->width + CHUNK - 1)
                                >> CHUNK_LOG)))
        return STATUS(ST_SHORT, 5);
    return ST_OK;
}

/* The exactly rounded sum of cell * (sign * value) over positions
 * [lo, hi) of every row, row by row (skipping the members, slot >= 0,
 * when slots is not NULL): numpy's take then math.fsum over the
 * C-order products of the (depth, positions) block, gathered GATHER at
 * a time. */
static int64_t read_sum(const hash_family *f, const read_table *t,
                        const int64_t *keys, const double *values,
                        const int64_t *slots, int64_t lo, int64_t hi,
                        fsum_state *s, double *total)
{
    double buf[GATHER];
    int64_t m = 0;
    s->n = 0;
    s->special_sum = s->inf_sum = 0.0;
    for (int64_t j = 0; j < f->depth; j++) {
        for (int64_t p = lo; p < hi; p++) {
            if (slots && slots[p] >= 0)
                continue;
            double sign;
            int64_t b = read_index(t, key_flat(f, j, keys[p], &sign));
            int64_t c = wrap_bucket(b, t->size);
            if (c < 0)
                return STATUS(ST_BUCKET, b);
            buf[m++] = t->cells[c] * (sign * values[p]);
            if (m == GATHER) {
                int st = fsum_add_all(s, buf, m);
                if (st)
                    return st;
                m = 0;
            }
        }
    }
    int st = fsum_add_all(s, buf, m);
    if (st)
        return st;
    return fsum_result(s, total);
}

/*
 * fused_query: out[i] = the estimate of keys[i]: for a member of the
 * store (live > 0), its exact value raw[slot] * hscale; otherwise the
 * median over rows of sign * cell, times factor, then the l1 soft
 * threshold (row_estimate, the numpy body's fused_query + l1).  hashed[0]
 * receives the number of keys hashed (the non-members).  row is depth
 * doubles of scratch.
 */
int64_t repro_fused_query(
    const uint64_t *packed, int64_t kind, int64_t row_len, int64_t depth,
    int64_t width, const double *table, int64_t size,
    const int64_t *cmap, int64_t n_map,
    const int64_t *skeys, const int64_t *sslots, int64_t live,
    const double *raw, int64_t n_raw, double hscale,
    const int64_t *keys, int64_t n, double factor, double l1,
    double *row, int64_t n_row, double *out, int64_t *hashed)
{
    hash_family f = {packed, kind, row_len, depth, width,
                     (width & (width - 1)) == 0};
    read_table t = {table, size, cmap};
    member_store m = {skeys, sslots, live, raw, n_raw, hscale};
    int64_t count = 0;
    int64_t st = check_read(&f, n_map, &t, n_row);
    if (st)
        return st;
    for (int64_t i = 0; i < n; i++) {
        int64_t k = keys[i];
        if (live) {
            int64_t s = member_slot(&m, k);
            if (s == -2)
                return STATUS(ST_STORE, 3);
            if (s >= 0) {
                out[i] = raw[s] * hscale;
                continue;
            }
        }
        count++;
        for (int64_t j = 0; j < depth; j++) {
            double sign;
            int64_t b = read_index(&t, key_flat(&f, j, k, &sign));
            int64_t c = wrap_bucket(b, size);
            if (c < 0)
                return STATUS(ST_BUCKET, b);
            row[j] = sign * table[c];
        }
        out[i] = row_estimate(row, depth, factor, l1);
    }
    hashed[0] = count;
    return ST_OK;
}

/*
 * fused_predict: out[i] = the margin of example i (CSR slice
 * indptr[i]:indptr[i+1] of keys / values): without an active set
 * (members == 0), scale * fsum(cell * (sign * value)) / sqrt_s over every
 * row's positions; with one, a running sum from 0.0 of raw[slot] * hscale
 * * value over the members in position order, then += that margin over
 * the other positions when there are any.  slots (nnz) is scratch for
 * the members' slots.  Checks indptr first.
 */
int64_t repro_fused_predict(
    const uint64_t *packed, int64_t kind, int64_t row_len, int64_t depth,
    int64_t width, const double *table, int64_t size,
    const int64_t *cmap, int64_t n_map,
    int64_t members, const int64_t *skeys, const int64_t *sslots,
    int64_t live, const double *raw, int64_t n_raw, double hscale,
    const int64_t *keys, const double *values, const int64_t *indptr,
    int64_t n, int64_t nnz, double scale, double sqrt_s,
    int64_t *slots, int64_t n_slots, double *out)
{
    hash_family f = {packed, kind, row_len, depth, width,
                     (width & (width - 1)) == 0};
    read_table t = {table, size, cmap};
    member_store m = {skeys, sslots, live, raw, n_raw, hscale};
    fsum_state s;
    int64_t st = check_indptr(indptr, n, nnz);
    if (st)
        return st;
    st = check_read(&f, n_map, &t, depth);
    if (st)
        return st;
    if (members && n_slots < nnz)
        return STATUS(ST_SHORT, 5);
    for (int64_t i = 0; i < n; i++) {
        int64_t lo = indptr[i], hi = indptr[i + 1];
        double total;
        if (!members) {
            st = read_sum(&f, &t, keys, values, NULL, lo, hi, &s, &total);
            if (st)
                return st;
            if (sqrt_s == 0.0)
                return ST_ZERO_DIV;
            out[i] = scale * total / sqrt_s;
            continue;
        }
        double tau = 0.0;
        int64_t tail = 0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t sl = member_slot(&m, keys[p]);
            if (sl == -2)
                return STATUS(ST_STORE, 3);
            slots[p] = sl;
            if (sl >= 0)
                tau += raw[sl] * hscale * values[p];
            else
                tail++;
        }
        if (tail) {
            st = read_sum(&f, &t, keys, values, slots, lo, hi, &s, &total);
            if (st)
                return st;
            if (sqrt_s == 0.0)
                return ST_ZERO_DIV;
            tau += scale * total / sqrt_s;
        }
        out[i] = tau;
    }
    return ST_OK;
}
