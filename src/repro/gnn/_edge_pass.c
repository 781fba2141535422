/* The fused edge pass of the DSS inference forward (repro/gnn/infer.py).
 *
 *   pre[i, c, :] = sum over edges e -> i, ascending e, of
 *                  relu(stat[e, :] + proj[i, c, :] + proj[n + src[e], c, :])
 *
 * One sweep over the destination-sorted edges replaces the numpy body's
 * prefill, two-ones gather SpMM, ReLU, zero-fill and aggregation SpMM, and
 * the (E, k, w) message buffer between them is never written.  The numpy body
 * stays the reference: this file performs the same additions in the same
 * order per output element —
 *
 *   message  (stat + proj_dst) + proj_src     left to right, as the SpMM
 *                                             accumulates onto the prefill
 *   relu     0 > t ? 0 : t                    np.maximum(t, 0): NaN stays NaN
 *   sum      ((0 + m_e1) + m_e2) + ...        ascending edge id onto zeros
 *
 * — and multiplies nothing, so no FMA contraction can enter: the result is
 * bitwise the numpy body's, in float64 and float32, for every k.
 *
 * Built by repro/gnn/_native.py with `cc -O3 -ffp-contract=off -shared -fPIC`:
 * no -ffast-math, and no -march=native or per-ISA clones — the cached .so may
 * be shared between machines, and neither paid.  Measured on the ledger
 * operator while sizing it (DESIGN.md, "Measured floor of the apply"):
 *
 *   - the ReLU must stay branch-free.  At -O2 gcc 12 leaves the inner loop
 *     scalar with a data-dependent branch, 1.7x (float64) to 4x (float32,
 *     k = 8) *slower* than numpy on mispredictions; at -O3 the loop
 *     vectorises and `0 > t ? 0 : t` is a compare-and-mask (or a max, whose
 *     NaN rule it shares: the second operand is returned).
 *   - wider is not faster: an AVX2 clone measured the same as the baseline
 *     SSE2 build, and AVX-512 (-march=native on the reference host) ran the
 *     float32 k = 8 loop 1.4x slower.
 *   - the static terms are the one stream that does not fit L2 (59 MB per
 *     sweep, out of L3): prefetching them 4 KiB ahead is worth 1.5x on the
 *     float64 sweep (flat between 2 and 8 KiB ahead).
 */
#include <stdint.h>

#if defined(__GNUC__)
#define PREFETCH_STATIC(address) __builtin_prefetch((const char *)(address) + 4096)
#else
#define PREFETCH_STATIC(address) ((void)0)
#endif

/* n nodes, k columns, w = 2d stacked [fwd | bwd] hidden units.
 *   indptr (n + 1)     edges arriving at node i are indptr[i] .. indptr[i+1]
 *   src    (E)         source node of every edge
 *   stat   (E, w)      static edge terms, column-invariant
 *   proj   (2n, k, w)  rows [0, n) destination, [n, 2n) source projections
 *   pre    (n, k, w)   output: raw aggregation sums, overwritten
 */
#define DEFINE_EDGE_PASS(NAME, T)                                             \
    void NAME(                                                                \
        int64_t n, int64_t k, int64_t w, const int64_t *indptr,               \
        const int64_t *src, const T *stat, const T *proj, T *pre)             \
    {                                                                         \
        const int64_t row = k * w;                                            \
        const int64_t lines = (w * (int64_t)sizeof(T) + 63) / 64;             \
        const T *proj_src = proj + n * row;                                   \
        for (int64_t i = 0; i < n; ++i) {                                     \
            T *restrict out = pre + i * row;                                  \
            const T *restrict dst_row = proj + i * row;                       \
            for (int64_t q = 0; q < row; ++q)                                 \
                out[q] = (T)0;                                                \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {             \
                const T *restrict s = stat + e * w;                           \
                const T *restrict src_row = proj_src + src[e] * row;          \
                for (int64_t b = 0; b < lines; ++b)                           \
                    PREFETCH_STATIC((const char *)s + 64 * b);                \
                for (int64_t c = 0; c < k; ++c) {                             \
                    const int64_t at = c * w;                                 \
                    for (int64_t q = 0; q < w; ++q) {                         \
                        const T t = s[q] + dst_row[at + q] + src_row[at + q]; \
                        out[at + q] += (T)0 > t ? (T)0 : t;                   \
                    }                                                         \
                }                                                             \
            }                                                                 \
        }                                                                     \
    }

DEFINE_EDGE_PASS(edge_pass_f64, double)
DEFINE_EDGE_PASS(edge_pass_f32, float)
