/*
 * Fused ingest kernels for the hashed counter tables of repro.sketches.
 *
 * Every entry point evaluates the same hash as repro.hashing.families:
 * splitmix64, reduction mod p = 2^61 - 1, a Horner polynomial over the
 * row's k coefficients (highest degree first) and a final % range_size,
 * bit-for-bit.  Coefficient matrices are row-major (depth x k) uint64;
 * keys arrive as validated non-negative int64, read as uint64.
 *
 * The table writes reproduce the numpy reference's float operations in the
 * same order, so results are byte-identical to it:
 *   scatter_add - per block of keys, accumulate into a zeroed depth x width
 *                 scratch in key order (np.bincount), then table += scratch;
 *   cu_update   - the scalar conservative-update rule, run by run.
 * No buffer has a fixed size: depth and width are whatever the caller has.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define P61 0x1FFFFFFFFFFFFFFFULL

static inline uint64_t mix64(uint64_t v)
{
    v += 0x9E3779B97F4A7C15ULL;
    v ^= v >> 30;
    v *= 0xBF58476D1CE4E5B9ULL;
    v ^= v >> 27;
    v *= 0x94D049BB133111EBULL;
    v ^= v >> 31;
    return v;
}

/* x mod p for any 64-bit x: 2^61 = 1 (mod p), and the fold is < p + 8 */
static inline uint64_t fold61(uint64_t x)
{
    uint64_t r = (x >> 61) + (x & P61);
    return r >= P61 ? r - P61 : r;
}

/* (a * b) mod p for a, b < p: the product is < 2^122, so hi < 2^61 */
static inline uint64_t mulmod61(uint64_t a, uint64_t b)
{
    unsigned __int128 product = (unsigned __int128)a * b;
    uint64_t lo = (uint64_t)product & P61;
    uint64_t hi = (uint64_t)(product >> 61);
    return fold61(lo + hi);
}

static inline uint64_t polynomial(const uint64_t *c, int64_t k, uint64_t x)
{
    if (k == 2)  /* every sketch table's pairwise family */
        return fold61(mulmod61(c[0], x) + c[1]);
    uint64_t acc = c[0];
    for (int64_t j = 1; j < k; j++)
        acc = fold61(mulmod61(acc, x) + c[j]);
    return acc;
}

static inline uint64_t reduce(uint64_t value, uint64_t range)
{
    return (range & (range - 1)) == 0 ? value & (range - 1) : value % range;
}

/*
 * out[r * n + i] = h_r(keys[i]) for the (depth x n) bucket matrix, written
 * row by row.  Returns 0, or -1 if the mixed-key buffer could not be
 * allocated.
 */
int hash_rows(const uint64_t *keys, int64_t n, const uint64_t *coeffs,
              int64_t depth, int64_t k, uint64_t range, int64_t *out)
{
    uint64_t *mixed = malloc((size_t)(n > 0 ? n : 1) * sizeof(uint64_t));
    if (mixed == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++)
        mixed[i] = fold61(mix64(keys[i]));
    for (int64_t r = 0; r < depth; r++) {
        const uint64_t *c = coeffs + r * k;
        int64_t *row = out + r * n;
        for (int64_t i = 0; i < n; i++)
            row[i] = (int64_t)reduce(polynomial(c, k, mixed[i]), range);
    }
    free(mixed);
    return 0;
}

/*
 * table[r, h_r(key)] += s_r(key) * delta for every update, where s_r is the
 * row's sign (bit 1 -> +1, bit 0 -> -1) when sign_coeffs is non-NULL and +1
 * otherwise.  Each block runs row by row, so one scratch row stays in cache;
 * every cell belongs to one row, so its sum still runs in key order.
 * Returns 0, or -1 if a buffer could not be allocated (the table is then
 * untouched).
 */
int scatter_add(double *table, int64_t depth, int64_t width,
                const uint64_t *keys, const double *deltas, int64_t n,
                const uint64_t *coeffs, int64_t k,
                const uint64_t *sign_coeffs, int64_t sign_k, int64_t block)
{
    int64_t cells = depth * width;
    int64_t span = n < block ? n : block;
    double *scratch = malloc((size_t)cells * sizeof(double));
    uint64_t *mixed = malloc((size_t)(span > 0 ? span : 1) * sizeof(uint64_t));
    if (scratch == NULL || mixed == NULL) {
        free(scratch);
        free(mixed);
        return -1;
    }
    for (int64_t start = 0; start < n; start += block) {
        int64_t count = n - start < block ? n - start : block;
        const double *delta = deltas + start;
        for (int64_t i = 0; i < count; i++)
            mixed[i] = fold61(mix64(keys[start + i]));
        memset(scratch, 0, (size_t)cells * sizeof(double));
        for (int64_t r = 0; r < depth; r++) {
            const uint64_t *c = coeffs + r * k;
            double *row = scratch + r * width;
            if (sign_coeffs == NULL) {
                for (int64_t i = 0; i < count; i++)
                    row[reduce(polynomial(c, k, mixed[i]), (uint64_t)width)] += delta[i];
                continue;
            }
            const uint64_t *s = sign_coeffs + r * sign_k;
            for (int64_t i = 0; i < count; i++) {
                /* delta * +-1.0 is exact, as in the numpy path's delta * sign */
                int64_t bit = (int64_t)(polynomial(s, sign_k, mixed[i]) & 1);
                row[reduce(polynomial(c, k, mixed[i]), (uint64_t)width)]
                    += delta[i] * (double)(2 * bit - 1);
            }
        }
        for (int64_t c = 0; c < cells; c++)
            table[c] += scratch[c];
    }
    free(scratch);
    free(mixed);
    return 0;
}

/*
 * Conservative update of coalesced runs, in order: m = min over rows of the
 * run's counters, then every counter becomes max(counter, m + delta).  As
 * with numpy's min and max, a NaN among a run's counters makes all of them
 * NaN.  Returns 0, or -1 if the per-run cell buffer could not be allocated
 * (the table is then untouched).
 */
int cu_update(double *table, int64_t depth, int64_t width,
              const uint64_t *keys, const double *deltas, int64_t n,
              const uint64_t *coeffs, int64_t k)
{
    int64_t *cells = malloc((size_t)depth * sizeof(int64_t));
    if (cells == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = fold61(mix64(keys[i]));
        double minimum = 0.0;
        int nan = 0;
        for (int64_t r = 0; r < depth; r++) {
            uint64_t bucket = reduce(polynomial(coeffs + r * k, k, x),
                                     (uint64_t)width);
            int64_t cell = r * width + (int64_t)bucket;
            double value = table[cell];
            cells[r] = cell;
            nan |= value != value;
            minimum = (r == 0 || value < minimum) ? value : minimum;
        }
        /* a NaN target fails every >= below, so it is written everywhere */
        double target = nan ? NAN : minimum + deltas[i];
        for (int64_t r = 0; r < depth; r++) {
            double current = table[cells[r]];
            table[cells[r]] = current >= target ? current : target;
        }
    }
    free(cells);
    return 0;
}
