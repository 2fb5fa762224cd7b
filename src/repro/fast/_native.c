/*
 * Word-size (q < 2^62) kernels for the fast engine's chain steps.
 *
 * Portable C99 plus the GCC/Clang `unsigned __int128` extension; no
 * intrinsics. repro.fast.native compiles this file once per host
 * (-O2 -fPIC -shared) and calls it through ctypes.
 *
 * Layout: every operand is a C-contiguous uint64 array of `rows` rows of
 * `len` words. Row r belongs to RNS channel r % k and is reduced by
 * q[r % k]; per-channel tables are (k, len) arrays. A single-modulus
 * plan is k = 1.
 *
 * Arithmetic: each residue is one 64-bit word. Fixed multiplicands
 * (twiddles, twists, 1/n, the axpy scalar) use Shoup's precomputed
 * companion w' = floor(w * 2^64 / q), so w * y mod q costs two
 * multiplies and lands in [0, 2q) for any 64-bit y. NTT butterflies are
 * Harvey's lazy ones: values stay in [0, 4q) between stages, which fits
 * a word because q < 2^62. General products use Barrett reduction with
 * a per-channel constant computed once per call, outside the loops.
 *
 * Every function writes only the output buffers it is passed and keeps
 * no global or static state.
 */

#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

#define REPRO_NATIVE_ABI 1

int repro_native_abi(void) { return REPRO_NATIVE_ABI; }

static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((u128)a * b) >> 64);
}

/* floor(w * 2^64 / q) for w < q (division: table building only). */
static inline uint64_t shoup_of(uint64_t w, uint64_t q)
{
    return (uint64_t)(((u128)w << 64) / q);
}

/* w * y mod q into [0, 2q), for any 64-bit y. */
static inline uint64_t mul_shoup_lazy(uint64_t y, uint64_t w, uint64_t wp,
                                      uint64_t q)
{
    return w * y - mulhi(wp, y) * q;
}

static inline uint64_t reduce_once(uint64_t x, uint64_t bound)
{
    return x >= bound ? x - bound : x;
}

/* (a * b) mod q by slow division (table building only). */
static inline uint64_t mulmod_slow(uint64_t a, uint64_t b, uint64_t q)
{
    return (uint64_t)(((u128)a * b) % q);
}

static inline unsigned bit_length(uint64_t q)
{
    unsigned s = 0;
    while (q) {
        s++;
        q >>= 1;
    }
    return s;
}

static inline size_t bit_reverse(size_t i, unsigned bits)
{
    size_t r = 0;
    for (unsigned b = 0; b < bits; b++) {
        r = (r << 1) | (i & 1);
        i >>= 1;
    }
    return r;
}

/*
 * Barrett state for one channel: s = bit length of q, mu = floor(2^2s / q).
 * For p < q^2 the quotient estimate ((p >> (s-1)) * mu) >> (s+1) is at
 * most 2 below floor(p / q), so two conditional subtractions finish.
 */
typedef struct {
    uint64_t q;
    uint64_t mu;
    unsigned s;
} barrett_t;

static inline barrett_t barrett_of(uint64_t q)
{
    barrett_t b;
    b.q = q;
    b.s = bit_length(q);
    b.mu = (uint64_t)(((u128)1 << (2 * b.s)) / q);
    return b;
}

static inline uint64_t barrett_mul(uint64_t a, uint64_t c, barrett_t b)
{
    u128 p = (u128)a * c;
    uint64_t x1 = (uint64_t)(p >> (b.s - 1));
    uint64_t est = (uint64_t)(((u128)x1 * b.mu) >> (b.s + 1));
    uint64_t r = (uint64_t)p - est * b.q;
    r = reduce_once(r, b.q);
    return reduce_once(r, b.q);
}

/* ------------------------------------------------------------------ */
/* Tables                                                              */
/* ------------------------------------------------------------------ */

/*
 * Shoup companions of a (k, len) table: wp[c][i] = floor(w[c][i] 2^64 / q[c]).
 */
static void shoup_table(size_t len, size_t k, const uint64_t *q,
                        const uint64_t *w, uint64_t *wp)
{
    for (size_t c = 0; c < k; c++)
        for (size_t i = 0; i < len; i++)
            wp[c * len + i] = shoup_of(w[c * len + i], q[c]);
}

/*
 * Powers base[c]^i for 0 <= i < n (a psi twist table) and their Shoup
 * companions.
 */
void repro_power_table(size_t n, size_t k, const uint64_t *q,
                       const uint64_t *base, uint64_t *tw, uint64_t *twp)
{
    for (size_t c = 0; c < k; c++) {
        uint64_t *t = tw + c * n;
        t[0] = 1 % q[c];
        for (size_t i = 1; i < n; i++)
            t[i] = mulmod_slow(t[i - 1], base[c], q[c]);
    }
    shoup_table(n, k, q, tw, twp);
}

/*
 * Butterfly twiddles of the in-place n-point transform, one row per
 * channel: entry m + i (1 <= m < n, 0 <= i < m) is the twiddle of block
 * i at the stage with m blocks, root^((n / 2m) * bitrev(i, log2 m)).
 * Built from the inverse root, the same layout serves the inverse
 * transform. Entry 0 is unused and set to 1.
 */
void repro_ntt_table(size_t n, size_t k, const uint64_t *q,
                     const uint64_t *root, uint64_t *tw, uint64_t *twp)
{
    for (size_t c = 0; c < k; c++) {
        uint64_t *t = tw + c * n;
        uint64_t *pw = twp + c * n; /* scratch: root^e for e < n/2 */
        pw[0] = 1 % q[c];
        for (size_t e = 1; e < n / 2; e++)
            pw[e] = mulmod_slow(pw[e - 1], root[c], q[c]);
        t[0] = 1 % q[c];
        unsigned logm = 0;
        for (size_t m = 1; m < n; m <<= 1, logm++)
            for (size_t i = 0; i < m; i++)
                t[m + i] = pw[(n / (2 * m)) * bit_reverse(i, logm)];
    }
    shoup_table(n, k, q, tw, twp);
}

/*
 * Range check of (rows, len, 2) double-word limbs: the flat element
 * index of the first value not below q (high word set, or low word >= q),
 * or -1 when every element is reduced.
 */
ptrdiff_t repro_first_unreduced(const uint64_t *limbs, size_t rows,
                                size_t len, size_t k, const uint64_t *q)
{
    for (size_t r = 0; r < rows; r++) {
        const uint64_t qc = q[r % k];
        const uint64_t *x = limbs + 2 * r * len;
        uint64_t bad = 0;
        for (size_t i = 0; i < len; i++)
            bad |= (uint64_t)(x[2 * i] >= qc) | x[2 * i + 1];
        if (bad)
            for (size_t i = 0; i < len; i++)
                if (x[2 * i] >= qc || x[2 * i + 1])
                    return (ptrdiff_t)(r * len + i);
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* Transforms                                                          */
/* ------------------------------------------------------------------ */

/*
 * Forward NTT of each row: natural-order input, bit-reversed output,
 * out[j] = sum_i in[i] root^(i * bitrev(j)) mod q. Cooley-Tukey
 * butterflies with lazy [0, 4q) values; the output is fully reduced.
 * `in` must be reduced (it is read, never written); `out` may alias it.
 */
void repro_ntt_forward(uint64_t *out, const uint64_t *in, size_t rows,
                       size_t n, size_t k, const uint64_t *q,
                       const uint64_t *tw, const uint64_t *twp)
{
    for (size_t r = 0; r < rows; r++) {
        const size_t c = r % k;
        const uint64_t qc = q[c], twoq = 2 * qc;
        const uint64_t *w = tw + c * n, *wp = twp + c * n;
        uint64_t *x = out + r * n;
        const uint64_t *src = in + r * n;
        if (x != src)
            for (size_t j = 0; j < n; j++)
                x[j] = src[j];
        size_t t = n >> 1;
        for (size_t m = 1; m < n; m <<= 1, t >>= 1) {
            for (size_t i = 0; i < m; i++) {
                const uint64_t W = w[m + i], Wp = wp[m + i];
                uint64_t *X = x + 2 * i * t, *Y = X + t;
                for (size_t j = 0; j < t; j++) {
                    uint64_t a = reduce_once(X[j], twoq);
                    uint64_t b = mul_shoup_lazy(Y[j], W, Wp, qc);
                    X[j] = a + b;
                    Y[j] = a - b + twoq;
                }
            }
        }
        for (size_t j = 0; j < n; j++)
            x[j] = reduce_once(reduce_once(x[j], twoq), qc);
    }
}

/*
 * Inverse NTT of each row, 1/n included: bit-reversed input, natural
 * output. Gentleman-Sande butterflies with values in [0, 2q); `tw` is
 * the table built from the inverse root and `ninv` holds n^-1 mod q per
 * channel. The output is fully reduced; `out` may alias `in`.
 */
void repro_ntt_inverse(uint64_t *out, const uint64_t *in, size_t rows,
                       size_t n, size_t k, const uint64_t *q,
                       const uint64_t *tw, const uint64_t *twp,
                       const uint64_t *ninv)
{
    for (size_t r = 0; r < rows; r++) {
        const size_t c = r % k;
        const uint64_t qc = q[c], twoq = 2 * qc;
        const uint64_t *w = tw + c * n, *wp = twp + c * n;
        const uint64_t nv = ninv[c], nvp = shoup_of(ninv[c], qc);
        uint64_t *x = out + r * n;
        const uint64_t *src = in + r * n;
        if (x != src)
            for (size_t j = 0; j < n; j++)
                x[j] = src[j];
        size_t t = 1;
        for (size_t m = n >> 1; m >= 1; m >>= 1, t <<= 1) {
            for (size_t i = 0; i < m; i++) {
                const uint64_t W = w[m + i], Wp = wp[m + i];
                uint64_t *X = x + 2 * i * t, *Y = X + t;
                for (size_t j = 0; j < t; j++) {
                    uint64_t a = X[j], b = Y[j];
                    X[j] = reduce_once(a + b, twoq);
                    Y[j] = mul_shoup_lazy(a - b + twoq, W, Wp, qc);
                }
            }
        }
        for (size_t j = 0; j < n; j++)
            x[j] = reduce_once(mul_shoup_lazy(x[j], nv, nvp, qc), qc);
    }
}

/* ------------------------------------------------------------------ */
/* Element-wise steps                                                  */
/* ------------------------------------------------------------------ */

/* out = in * w mod q element-wise against a (k, len) Shoup table (twist). */
void repro_mul_table(uint64_t *out, const uint64_t *in, size_t rows,
                     size_t len, size_t k, const uint64_t *q,
                     const uint64_t *w, const uint64_t *wp)
{
    for (size_t r = 0; r < rows; r++) {
        const size_t c = r % k;
        const uint64_t qc = q[c];
        const uint64_t *wc = w + c * len, *wpc = wp + c * len;
        const uint64_t *x = in + r * len;
        uint64_t *o = out + r * len;
        for (size_t i = 0; i < len; i++)
            o[i] = reduce_once(mul_shoup_lazy(x[i], wc[i], wpc[i], qc), qc);
    }
}

/* out = a * b mod q (pointwise product, BLAS vector_mul). */
void repro_mulmod(uint64_t *out, const uint64_t *a, const uint64_t *b,
                  size_t rows, size_t len, size_t k, const uint64_t *q)
{
    for (size_t r = 0; r < rows; r++) {
        const barrett_t br = barrett_of(q[r % k]);
        const uint64_t *x = a + r * len, *y = b + r * len;
        uint64_t *o = out + r * len;
        for (size_t i = 0; i < len; i++)
            o[i] = barrett_mul(x[i], y[i], br);
    }
}

/* out = a + b mod q. */
void repro_addmod(uint64_t *out, const uint64_t *a, const uint64_t *b,
                  size_t rows, size_t len, size_t k, const uint64_t *q)
{
    for (size_t r = 0; r < rows; r++) {
        const uint64_t qc = q[r % k];
        const uint64_t *x = a + r * len, *y = b + r * len;
        uint64_t *o = out + r * len;
        for (size_t i = 0; i < len; i++)
            o[i] = reduce_once(x[i] + y[i], qc);
    }
}

/* out = a - b mod q. */
void repro_submod(uint64_t *out, const uint64_t *a, const uint64_t *b,
                  size_t rows, size_t len, size_t k, const uint64_t *q)
{
    for (size_t r = 0; r < rows; r++) {
        const uint64_t qc = q[r % k];
        const uint64_t *x = a + r * len, *y = b + r * len;
        uint64_t *o = out + r * len;
        for (size_t i = 0; i < len; i++) {
            uint64_t d = x[i] - y[i];
            o[i] = x[i] < y[i] ? d + qc : d;
        }
    }
}

/* out = s * x + y mod q, one scalar s per channel (BLAS axpy). */
void repro_axpy(uint64_t *out, const uint64_t *s, const uint64_t *x,
                const uint64_t *y, size_t rows, size_t len, size_t k,
                const uint64_t *q)
{
    for (size_t r = 0; r < rows; r++) {
        const size_t c = r % k;
        const uint64_t qc = q[c], sc = s[c], sp = shoup_of(s[c], qc);
        const uint64_t *xr = x + r * len, *yr = y + r * len;
        uint64_t *o = out + r * len;
        for (size_t i = 0; i < len; i++) {
            uint64_t p = reduce_once(mul_shoup_lazy(xr[i], sc, sp, qc), qc);
            o[i] = reduce_once(p + yr[i], qc);
        }
    }
}
