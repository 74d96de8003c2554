/*
 * Native whole-program executor for float64 FIGLUT CompiledPrograms.
 *
 * One call runs a whole program: the LUT builds, the plane
 * gather-accumulate, the alpha scale and the offset apply.  It reads the
 * program's own buffers (lut_cols, per-pass keys/rows/scales, offsets) and
 * replays the NumPy executor's float operations in the same order, so the
 * output is bitwise identical:
 *
 *   - a LUT entry is 0.0 + (+-x_0) + ... + (+-x_{mu-1}), sequential over
 *     mu (the sentinel column n reads 0.0 and adds +-0.0);
 *   - a (segment, plane, row) partial is 0.0 + lut[g_0] + ... +
 *     lut[g_{G-1}], g ascending, padded slots included;
 *   - y starts at 0.0 and takes term = alpha * partial; y += term with
 *     segments ascending and planes innermost;
 *   - offsets are applied last, y += offset[r, k] * group_sum[k] with k
 *     ascending.  The group sums are computed by the caller with the NumPy
 *     executor's own reduction call.
 *
 * Built with -O3 -ffp-contract=off: no FMA contraction, no fast-math, so
 * every product is rounded before it is added.  All scratch is allocated
 * per call; nothing is static, so concurrent calls are safe.
 */

#define _POSIX_C_SOURCE 199309L  /* clock_gettime under -std=c99 */

#include <stdint.h>
#include <stdlib.h>
#include <time.h>

typedef struct {
    int64_t m, n, mu;
    int64_t num_segments, slots_per_segment;
    int64_t num_passes, num_offsets;
    const int64_t *lut_cols;       /* (num_slots, mu) */
    const int32_t *const *keys;    /* per pass: (num_slots, rows_p) */
    const int64_t *const *rows;    /* per pass: (rows_p,) or NULL */
    const double *const *scales;   /* per pass: (num_segments, rows_p) */
    const int64_t *pass_rows;      /* rows_p per pass */
    const double *offsets;         /* (m, num_offsets) */
} figlut_program;

/* The loop nest follows the batch.  Batches narrower than BATCH_INNER_MIN
 * run columns-outer, rows-inner: one column at a time, each slot's keys
 * streamed contiguously into a row-vector partial.  Wider batches run
 * batch-inner: tiles of BATCH_TILE columns (one cache line of doubles per
 * LUT entry) share every key read, and each row's partial stays in
 * registers across its slots.  Measured on 512x512, 2048x512 and 512x2048
 * layers (mu=4, 2 planes): columns-outer is ~1.4x faster at batch 2 and
 * about even at 3; batch-inner is ~2x faster at 8. */
#define BATCH_INNER_MIN 4
#define BATCH_TILE 8
/* LUTs are built for a block of consecutive segments at a time, up to this
 * many bytes (at least one segment), before the block's plane passes. */
#define LUT_BLOCK_BYTES 32768

enum { T_LUTS = 0, T_PLANE = 1, T_OFFSET = 2 };

static inline int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Charge the time since *t0 to timings[slot] and restart the clock. */
static inline void lap(int64_t *timings, int slot, int64_t *t0)
{
    if (timings) {
        int64_t t = now_ns();
        timings[slot] += t - *t0;
        *t0 = t;
    }
}

/* Build one segment's G LUTs for a tile of W columns, laid out
 * [slot][entry][column].  Entry bits are built most-significant first, one
 * activation per level, so each entry is 0.0 + (+-x_0) + ... + (+-x_{mu-1})
 * in that order.  The sentinel column n (and anything out of range) reads
 * 0.0, like the NumPy executor's appended zero row. */
static inline __attribute__((always_inline)) void build_luts(
    const int64_t *cols, int64_t G, int64_t mu, int64_t n, const double *x,
    int64_t xs_row, int64_t xs_col, double *lut, const int64_t W)
{
    const int64_t E = (int64_t)1 << mu;
    double v[BATCH_TILE], nv[BATCH_TILE];
    for (int64_t g = 0; g < G; g++) {
        double *T = lut + g * E * W;
        for (int64_t i = 0; i < mu; i++) {
            const int64_t c = cols[g * mu + i];
            for (int64_t w = 0; w < W; w++) {
                v[w] = (c >= 0 && c < n) ? x[c * xs_row + w * xs_col] : 0.0;
                nv[w] = -v[w];
            }
            if (i == 0) {
                for (int64_t w = 0; w < W; w++) {
                    T[w] = 0.0 + nv[w];
                    T[W + w] = 0.0 + v[w];
                }
                continue;
            }
            /* In place, high prefixes first: entry idx is read before
             * 2*idx and 2*idx+1 are written. */
            for (int64_t idx = ((int64_t)1 << i) - 1; idx >= 0; idx--) {
                const double *src = T + idx * W;
                double *hi = T + (2 * idx + 1) * W;
                double *lo = T + 2 * idx * W;
                for (int64_t w = 0; w < W; w++) {
                    const double t = src[w];
                    hi[w] = t + v[w];
                    lo[w] = t + nv[w];
                }
            }
        }
    }
}

/* One (segment, plane) pass over a tile of W columns: each active row's
 * partial sums its G slots' LUT reads in ascending order (in registers),
 * then y[row] += alpha[row] * partial. */
static inline __attribute__((always_inline)) void plane_pass(
    const double *lut, const int32_t *keys, int64_t G, int64_t E, int64_t R,
    const double *alpha, const int64_t *rows, double *y, int64_t y_row,
    const int64_t W)
{
    const int32_t mask = (int32_t)(E - 1);
    double acc[BATCH_TILE];
    for (int64_t r = 0; r < R; r++) {
        for (int64_t w = 0; w < W; w++)
            acc[w] = 0.0;
        for (int64_t g = 0; g < G; g++) {
            const double *src = lut + (g * E + (keys[g * R + r] & mask)) * W;
            for (int64_t w = 0; w < W; w++)
                acc[w] += src[w];
        }
        double *yr = y + (rows ? rows[r] : r) * y_row;
        const double a = alpha[r];
        for (int64_t w = 0; w < W; w++)
            yr[w] += a * acc[w];
    }
}

/* plane_pass for a one-column tile: slots outer, rows inner, the partial
 * kept as a row vector so each slot's keys stream contiguously. */
static void column_pass(const double *lut, const int32_t *keys, int64_t G,
                        int64_t E, int64_t R, const double *alpha,
                        const int64_t *rows, double *y, int64_t y_row,
                        double *part)
{
    const int32_t mask = (int32_t)(E - 1);
    for (int64_t r = 0; r < R; r++)
        part[r] = 0.0;
    for (int64_t g = 0; g < G; g++) {
        const double *T = lut + g * E;
        const int32_t *k = keys + g * R;
        for (int64_t r = 0; r < R; r++)
            part[r] += T[k[r] & mask];
    }
    if (rows) {
        for (int64_t r = 0; r < R; r++)
            y[rows[r] * y_row] += alpha[r] * part[r];
    } else {
        for (int64_t r = 0; r < R; r++)
            y[r * y_row] += alpha[r] * part[r];
    }
}

/* The whole program over the tile of W columns starting at column b0. */
static inline __attribute__((always_inline)) void run_tile(
    const figlut_program *P, int64_t batch, int64_t b0, const double *x,
    int64_t xs_row, int64_t xs_col, const double *group_sums, double *y,
    double *lut, double *part, int64_t *timings, int64_t *t0,
    const int64_t W)
{
    const int64_t G = P->slots_per_segment, mu = P->mu;
    const int64_t E = (int64_t)1 << mu, K = P->num_offsets;
    /* The NumPy instruction list has luts/plane/scale ops only when the
     * program has both slots and passes. */
    const int planes = P->num_segments * G > 0 && P->num_passes > 0;
    const int64_t seg_doubles = G * E * W;
    const int64_t fit = LUT_BLOCK_BYTES / (int64_t)sizeof(double)
                        / (seg_doubles > 0 ? seg_doubles : 1);
    const int64_t block = fit > 1 ? fit : 1;
    for (int64_t s0 = 0; planes && s0 < P->num_segments; s0 += block) {
        const int64_t s1 = s0 + block < P->num_segments ? s0 + block
                                                        : P->num_segments;
        build_luts(P->lut_cols + s0 * G * mu, (s1 - s0) * G, mu, P->n,
                   x + b0 * xs_col, xs_row, xs_col, lut, W);
        lap(timings, T_LUTS, t0);
        for (int64_t s = s0; s < s1; s++) {
            const double *seg_lut = lut + (s - s0) * seg_doubles;
            for (int64_t p = 0; p < P->num_passes; p++) {
                const int64_t R = P->pass_rows[p];
                if (W == 1)
                    column_pass(seg_lut, P->keys[p] + s * G * R, G, E, R,
                                P->scales[p] + s * R, P->rows[p], y + b0,
                                batch, part);
                else
                    plane_pass(seg_lut, P->keys[p] + s * G * R, G, E, R,
                               P->scales[p] + s * R, P->rows[p], y + b0,
                               batch, W);
            }
        }
        lap(timings, T_PLANE, t0);
    }
    for (int64_t r = 0; r < P->m; r++) {
        const double *off = P->offsets + r * K;
        double *yr = y + r * batch + b0;
        for (int64_t k = 0; k < K; k++) {
            const double o = off[k];
            const double *gs = group_sums + k * batch + b0;
            for (int64_t w = 0; w < W; w++)
                yr[w] += o * gs[w];
        }
    }
    lap(timings, T_OFFSET, t0);
}

/* Run the whole program on x ((n, batch), element strides xs_row/xs_col)
 * into y ((m, batch), C order, zero-filled by the caller).  group_sums is
 * (num_offsets, batch), C order.  timings, when not NULL, accumulates the
 * nanoseconds spent in the luts / plane (gather + scale) / offset phases.
 * Returns 0, or nonzero when scratch could not be allocated. */
int figlut_execute(const figlut_program *P, int64_t batch, const double *x,
                   int64_t xs_row, int64_t xs_col, const double *group_sums,
                   double *y, int64_t *timings)
{
    if (P->mu < 1 || P->mu > 16)
        return 2;
    const int64_t tile = batch < BATCH_INNER_MIN ? 1 : BATCH_TILE;
    const size_t seg_bytes = ((size_t)P->slots_per_segment << P->mu) * tile
                             * sizeof(double);
    double *lut = malloc(seg_bytes > LUT_BLOCK_BYTES ? seg_bytes
                                                     : LUT_BLOCK_BYTES);
    int64_t max_rows = 1;
    for (int64_t p = 0; p < P->num_passes; p++)
        if (P->pass_rows[p] > max_rows)
            max_rows = P->pass_rows[p];
    double *part = malloc((size_t)max_rows * sizeof(double));
    if (!lut || !part) {
        free(lut); free(part);
        return 1;
    }
    int64_t t0 = timings ? now_ns() : 0;
    for (int64_t b0 = 0; b0 < batch; b0 += tile) {
        const int64_t W = batch - b0 < tile ? batch - b0 : tile;
        /* Constant widths let the compiler unroll the column loops. */
#define RUN_TILE(w) run_tile(P, batch, b0, x, xs_row, xs_col, group_sums, y, \
                             lut, part, timings, &t0, w)
        switch (W) {
        case 1: RUN_TILE(1); break;
        case 2: RUN_TILE(2); break;
        case 3: RUN_TILE(3); break;
        case 4: RUN_TILE(4); break;
        case 5: RUN_TILE(5); break;
        case 6: RUN_TILE(6); break;
        case 7: RUN_TILE(7); break;
        default: RUN_TILE(BATCH_TILE); break;
        }
#undef RUN_TILE
    }
    free(lut); free(part);
    return 0;
}
