/*
 * The compiled bodies of fused_update and fused_predict, the two kernels
 * whose NumPy reference (numpy_backend.py) is a per-example Python loop;
 * their contract is in api.py.  Loaded by c_backend.py, which builds
 * this file with exactly "cc -O2 -fPIC -shared -ffp-contract=off": FMA
 * contraction, -ffast-math reassociation or -march=native code would
 * change float bits.
 *
 * Bit-identity with the reference rests on three ports: fsum_add and
 * fsum_result follow CPython's math_fsum operation for operation
 * (special values and its two errors included); dloss is the arithmetic
 * of the repro.learning.losses classes; scatters run in np.add.at's
 * element order over each example's (depth, nnz_i) block.
 *
 * Entry points return 0 or a status (ST_* in the low four bits, a detail
 * above) and stop exactly where the reference raises, leaving the same
 * partial state.  Every access is bounds-checked against the sizes
 * passed in: indptr must be non-decreasing within [0, ncols], and a
 * flat bucket b must satisfy -size <= b < size (negative buckets wrap,
 * as in numpy's take).
 */

#include <math.h>
#include <stdint.h>

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
    ST_PARTIALS       /* RuntimeError: partials exhausted (unreachable) */
};

#define STATUS(code, detail) ((int64_t)(code) | ((int64_t)(detail) << 4))

/* Non-overlapping nonzero partials each own at least one bit of the
 * 2098-bit span of doubles, so this bound can never be reached. */
#define MAX_PARTIALS 2112

/* Same value as repro.kernels.api.RENORM_THRESHOLD. */
#define RENORM 1e-150

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

/* The exactly rounded sum of table[fb] * sv over columns [lo, hi) of
 * every row: numpy's take (which checks every bucket first), then
 * math.fsum over the C-order products. */
static int64_t example_sum(const double *table, int64_t size,
                           const int64_t *fb, const double *sv,
                           int64_t depth, int64_t ncols,
                           int64_t lo, int64_t hi,
                           fsum_state *s, double *total)
{
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
        for (int64_t p = lo; p < hi; p++) {
            int st = fsum_add(s, table[wrap_bucket(row[p], size)] * svr[p]);
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
 * and sv.  scale_io holds the starting scale and receives the final one.
 * gathered (gathered_rows x depth, row-major) records post-update cells
 * when gathered_rows > 0; touched follows the api.py stream contract.
 */
int64_t repro_fused_update(
    double *table, int64_t size,
    const int64_t *fb, const double *sv, int64_t depth, int64_t ncols,
    const int64_t *indptr, const int64_t *labels, const double *etas,
    int64_t n, double lam, double sqrt_s,
    int64_t loss_id, double loss_param,
    double *margins, double *gathered, int64_t gathered_rows,
    double *scales, int64_t n_scales,
    int64_t *touched, int64_t n_touched, double *scale_io)
{
    fsum_state s;
    double scale = *scale_io;
    int record = gathered_rows > 0;
    int record_touched = n_touched > 1;
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
    if (record_touched
        && n_touched < 1 + depth * (indptr[n] - indptr[0]))
        return STATUS(ST_SHORT, 0);
    if (record && (gathered_rows < indptr[n] || n_scales < n))
        return STATUS(ST_SHORT, 1);
    if (n_touched > 0)
        touched[0] = 0;

    for (int64_t i = 0; i < n; i++) {
        int64_t lo = indptr[i], hi = indptr[i + 1];
        double total, tau;
        st = example_sum(table, size, fb, sv, depth, ncols, lo, hi,
                         &s, &total);
        if (st)
            return st;
        if (sqrt_s == 0.0)
            return ST_ZERO_DIV;
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
                if (n_touched > 0)
                    touched[0] += 1;
            }
        }
        double denom = sqrt_s * scale;
        if (denom == 0.0)
            return ST_ZERO_DIV;
        double coeff = -eta * y * g / denom;
        for (int64_t j = 0; j < depth; j++) {
            const int64_t *row = fb + j * ncols;
            const double *svr = sv + j * ncols;
            for (int64_t p = lo; p < hi; p++) {
                table[wrap_bucket(row[p], size)] += coeff * svr[p];
                if (record_touched)
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
    *scale_io = scale;
    return ST_OK;
}

/*
 * fused_predict: out[i] = scale * fsum(table[fb] * sv over example i's
 * slice) / sqrt_s, read-only on the table.
 */
int64_t repro_fused_predict(
    const double *table, int64_t size,
    const int64_t *fb, const double *sv, int64_t depth, int64_t ncols,
    const int64_t *indptr, int64_t n, double scale, double sqrt_s,
    double *out)
{
    fsum_state s;
    int64_t st = check_indptr(indptr, n, ncols);
    if (st)
        return st;
    for (int64_t i = 0; i < n; i++) {
        double total;
        st = example_sum(table, size, fb, sv, depth, ncols,
                         indptr[i], indptr[i + 1], &s, &total);
        if (st)
            return st;
        if (sqrt_s == 0.0)
            return ST_ZERO_DIV;
        out[i] = scale * total / sqrt_s;
    }
    return ST_OK;
}
