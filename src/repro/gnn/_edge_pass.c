/* The fused edge pass of the DSS forward and its vector-Jacobian product
 * (repro/gnn/infer.py, EdgeLayout), and, at the end of this file, the prefill
 * of psi's hidden layer and psi's output bias (InferencePlan._prefill and
 * _add_output_bias).
 *
 *   stat[e, :]   = ((a[e,0] W[0,:] + a[e,1] W[1,:]) + a[e,2] W[2,:] (+ a[e,3] W[3,:])) + b
 *   pre[i, c, :] = sum over edges e -> i, ascending e, of
 *                  relu(stat[e, :] + proj[i, c, :] + proj[n + src[e], c, :])
 *
 * One sweep over the destination-sorted edges.  The static term of an edge —
 * the hidden-layer contribution of its attribute row a[e], the same for every
 * column — is formed here, once per edge, from the layout's one (E, |e|)
 * attribute array and the block's (|e|, w) weights and (w,) bias, and reused
 * over the k columns: no (E, w) operand per block exists anywhere.  The
 * (E, k, w) message buffer of the numpy body is never written either.  That
 * body stays the reference: both perform the same operations in the same
 * order per output element —
 *
 *   term     products rounded one by one, summed left to right, bias last
 *   message  (stat + proj_dst) + proj_src     left to right, as the SpMM
 *                                             accumulates onto the prefill
 *   relu     0 > t ? 0 : t                    np.maximum(t, 0): NaN stays NaN
 *   sum      ((0 + m_e1) + m_e2) + ...        ascending edge id onto zeros
 *
 * — and -ffp-contract=off keeps every product and sum separately rounded (no
 * FMA), so the result is bitwise the numpy body's, in float64 and float32,
 * for every k.
 *
 * Built by repro/utils/native.py (for repro/gnn/_native.py) with
 * `cc -O3 -ffp-contract=off -falign-functions=64 -shared -fPIC`: no
 * -ffast-math, and no -march=native — the cached .so may be shared between
 * machines.  The vector width is picked at load time instead: on x86-64 glibc
 * every exported function is CLONED, an AVX2 clone and a baseline (SSE2) one
 * behind an ifunc, so one .so serves every x86-64 CPU.  -ffp-contract=off holds
 * in both clones: the AVX2 one has no FMA and gives the baseline's bytes
 * (tests/test_fastpath.py, TestBaselineBuild).  Measured on the ledger operator
 * while sizing it (DESIGN.md, "Measured floor of the apply"):
 *
 *   - the AVX2 clone, on an Intel family 6 model 143 (Sapphire Rapids) with
 *     gcc 12.2: the edge sweep over both ledger plans x 20 blocks goes 9.1-9.3
 *     to 5.5-5.6 ms in float64 k = 1 and 18.5-19.0 to 12.5-12.7 ms in float32
 *     k = 8, the whole float64 apply 17.0 to 14.4 ms.  The gain needs the
 *     constant hidden width below: with w a runtime bound the same clone
 *     saves 28% (f64) and 23% (f32, k = 8), not 40% and 33%.  An AVX-512
 *     clone ties in float64 and is 2x slower in float32 k = 8: not built.
 *     The compile doubles, ~1 to ~2 s, once per fresh cache, on the first
 *     edge pass (plan construction never resolves the kernels).
 *   - the ReLU must stay branch-free.  At -O2 gcc 12 leaves the inner loop
 *     scalar with a data-dependent branch, 1.7x (float64) to 4x (float32,
 *     k = 8) *slower* than numpy on mispredictions; at -O3 the loop
 *     vectorises and `0 > t ? 0 : t` is a compare-and-mask (or a max, whose
 *     NaN rule it shares: the second operand is returned).
 *   - the attribute width is an instantiation (3: geometric, 4: kappa-aware
 *     and 3D), not a loop: gcc does not vectorise across a runtime
 *     `for j < |e|`, and that form ran 2.3x slower than reading a stored
 *     term.  Any other width runs the numpy body.
 *   - the term goes through a stack array: folded into the message expression
 *     it is recomputed per column, 1.5x slower at k = 8 for 4% at k = 1.
 *   - every function starts on a 64-byte boundary.  Otherwise its address
 *     depends on what precedes .text: adding the VJP below pulled memcpy into
 *     the PLT, moved the pass by 16 bytes and made the same machine code 4%
 *     slower at f64 k = 1 and 4% faster at f32 k = 8.
 *   - the hidden width w = 2d = 20 (the paper's d = 10, the shipped model's)
 *     is an instantiation; every other width a loop bound.  Each exported
 *     pass and VJP is a dispatcher over one always-inlined body, called with
 *     the constant HIDDEN or with w: with a runtime bound gcc 12 neither
 *     unrolls nor fully vectorises the 20-wide inner loops.  Same operations
 *     in the same order, so the same bytes; the float32 k = 8 pass went from
 *     610-680 to 415-455 us per ledger block, the float64 k = 1 one ~5-10%.
 */
#include <stdint.h>   /* first: on glibc it defines __GLIBC__, which CLONED tests */

#define HIDDEN 20

/* Every exported function is an AVX2 clone and a baseline one, picked once at
 * load time through a glibc ifunc; each clone inlines the same always-inline
 * body.  Elsewhere (no x86-64, no glibc ifunc, no target_clones) the library
 * is the baseline build alone. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

#define TERM_3(a, W, w, q) ((a[0] * W[q] + a[1] * W[w + q]) + a[2] * W[2 * w + q])
#define TERM_4(a, W, w, q) (TERM_3(a, W, w, q) + a[3] * W[3 * w + q])

/* n nodes, k columns, w = 2d stacked [fwd | bwd] hidden units, |e| = WIDTH.
 *   indptr  (n + 1)     edges arriving at node i are indptr[i] .. indptr[i+1]
 *   src     (E)         source node of every edge
 *   attr    (E, |e|)    edge attributes, column-invariant
 *   weights (|e|, w)    their hidden-layer weights, bias (w)
 *   proj    (2n, k, w)  rows [0, n) destination, [n, 2n) source projections
 *   pre     (n, k, w)   output: raw aggregation sums, overwritten
 */
#define DEFINE_EDGE_PASS(NAME, T, WIDTH)                                      \
    static inline __attribute__((always_inline)) void NAME##_body(            \
        int64_t n, int64_t k, int64_t w, const int64_t *indptr,               \
        const int64_t *src, const T *attr, const T *weights, const T *bias,   \
        const T *proj, T *pre)                                                \
    {                                                                         \
        const int64_t row = k * w;                                            \
        const T *proj_src = proj + n * row;                                   \
        T stat[w];                                                            \
        for (int64_t i = 0; i < n; ++i) {                                     \
            T *restrict out = pre + i * row;                                  \
            const T *restrict dst_row = proj + i * row;                       \
            for (int64_t q = 0; q < row; ++q)                                 \
                out[q] = (T)0;                                                \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {             \
                const T *restrict a = attr + e * WIDTH;                       \
                const T *restrict src_row = proj_src + src[e] * row;          \
                for (int64_t q = 0; q < w; ++q)                               \
                    stat[q] = TERM_##WIDTH(a, weights, w, q) + bias[q];       \
                for (int64_t c = 0; c < k; ++c) {                             \
                    const int64_t at = c * w;                                 \
                    for (int64_t q = 0; q < w; ++q) {                         \
                        const T t = stat[q] + dst_row[at + q] + src_row[at + q]; \
                        out[at + q] += (T)0 > t ? (T)0 : t;                   \
                    }                                                         \
                }                                                             \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    CLONED void NAME(                                                         \
        int64_t n, int64_t k, int64_t w, const int64_t *indptr,               \
        const int64_t *src, const T *attr, const T *weights, const T *bias,   \
        const T *proj, T *pre)                                                \
    {                                                                         \
        if (w == HIDDEN)                                                      \
            NAME##_body(n, k, HIDDEN, indptr, src, attr, weights, bias, proj, pre); \
        else                                                                  \
            NAME##_body(n, k, w, indptr, src, attr, weights, bias, proj, pre); \
    }

DEFINE_EDGE_PASS(edge_pass_f64_3, double, 3)
DEFINE_EDGE_PASS(edge_pass_f64_4, double, 4)
DEFINE_EDGE_PASS(edge_pass_f32_3, float, 3)
DEFINE_EDGE_PASS(edge_pass_f32_4, float, 4)

/* The VJP of the k = 1 pass in float64 — the training forward's backward.
 * Given g_pre = dL/dpre (n, w), one sweep over the same edges recomputes every
 * pre-activation t[e] = (stat[e] + proj[dst_e]) + proj[n + src_e] in the
 * pass's exact association (so its sign is the forward's), and writes
 *
 *   g_t[e]          = t[e] > 0 ? g_pre[dst_e] : 0         through the ReLU
 *   g_proj[i]       = sum over edges e -> i of g_t[e]      ascending e, onto zeros
 *   g_proj[n + j]   = sum over edges e with src_e = j      ascending e, onto zeros
 *   g_weights[j, :] = sum over every edge of a[e,j] g_t[e] ascending e, onto zeros
 *
 * (the bias gradient is 1^T g_proj[:n], taken by the caller).  The numpy body
 * of EdgeLayout.edge_vjp does the same operations in the same order, bit for
 * bit.  What keeps the inner loop vectorised (gcc 12, -O3), measured on the
 * ledger's training step (6,647 nodes, 32,005 edges, w = 20) at 1.3 ms per
 * block for |e| = 3 and 1.6 ms for |e| = 4:
 *
 *   - g_pre is loaded unconditionally, then selected: `t > 0 ? g_pre[q] : 0`
 *     is a conditional load, which gcc refuses to vectorise ("control flow in
 *     loop"): 6.6 / 7.8 ms.  `g * (t > 0 ? 1 : 0)` is refused too.
 *   - every accumulator is a local: the destination sums in g_dst, the weight
 *     sums in one stack row per attribute for the whole sweep, the attribute
 *     row copied in.  Through the output pointers gcc cannot prove the rows
 *     apart and leaves the loop scalar; as offsets j * w of one array it gives
 *     up on the alias checks at |e| = 4 (2.6 ms).
 */
#define ACC_3(g, a, q, v) g[0][q] += a[0] * v; g[1][q] += a[1] * v; g[2][q] += a[2] * v
#define ACC_4(g, a, q, v) ACC_3(g, a, q, v); g[3][q] += a[3] * v

#define DEFINE_EDGE_VJP(NAME, WIDTH)                                          \
    static inline __attribute__((always_inline)) void NAME##_body(            \
        int64_t n, int64_t w, const int64_t *indptr, const int64_t *src,      \
        const double *attr, const double *weights, const double *bias,        \
        const double *proj, const double *g_pre, double *g_proj,              \
        double *g_weights)                                                    \
    {                                                                         \
        const double *proj_src = proj + n * w;                                \
        double *g_src = g_proj + n * w;                                       \
        double g_dst[w], g_attr[WIDTH][w];                                    \
        for (int j = 0; j < WIDTH; ++j)                                       \
            for (int64_t q = 0; q < w; ++q)                                   \
                g_attr[j][q] = 0.0;                                           \
        for (int64_t q = 0; q < n * w; ++q)                                   \
            g_src[q] = 0.0;                                                   \
        for (int64_t i = 0; i < n; ++i) {                                     \
            const double *restrict dst_row = proj + i * w;                    \
            const double *restrict g_row = g_pre + i * w;                     \
            for (int64_t q = 0; q < w; ++q)                                   \
                g_dst[q] = 0.0;                                               \
            for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {             \
                double a[WIDTH];                                              \
                for (int j = 0; j < WIDTH; ++j)                               \
                    a[j] = attr[e * WIDTH + j];                               \
                const double *restrict src_row = proj_src + src[e] * w;       \
                double *restrict g_src_row = g_src + src[e] * w;              \
                for (int64_t q = 0; q < w; ++q) {                             \
                    const double s = TERM_##WIDTH(a, weights, w, q) + bias[q]; \
                    const double t = s + dst_row[q] + src_row[q];             \
                    const double g = g_row[q];                                \
                    const double v = t > 0.0 ? g : 0.0;                       \
                    g_dst[q] += v;                                            \
                    g_src_row[q] += v;                                        \
                    ACC_##WIDTH(g_attr, a, q, v);                             \
                }                                                             \
            }                                                                 \
            for (int64_t q = 0; q < w; ++q)                                   \
                g_proj[i * w + q] = g_dst[q];                                 \
        }                                                                     \
        for (int j = 0; j < WIDTH; ++j)                                       \
            for (int64_t q = 0; q < w; ++q)                                   \
                g_weights[j * w + q] = g_attr[j][q];                          \
    }                                                                         \
    CLONED void NAME(                                                         \
        int64_t n, int64_t w, const int64_t *indptr, const int64_t *src,      \
        const double *attr, const double *weights, const double *bias,        \
        const double *proj, const double *g_pre, double *g_proj,              \
        double *g_weights)                                                    \
    {                                                                         \
        if (w == HIDDEN)                                                      \
            NAME##_body(n, HIDDEN, indptr, src, attr, weights, bias, proj,    \
                        g_pre, g_proj, g_weights);                            \
        else                                                                  \
            NAME##_body(n, w, indptr, src, attr, weights, bias, proj,         \
                        g_pre, g_proj, g_weights);                            \
    }

DEFINE_EDGE_VJP(edge_vjp_f64_3, 3)
DEFINE_EDGE_VJP(edge_vjp_f64_4, 4)

/* The prefill of psi's hidden layer, before its two beta = 1 GEMMs:
 *
 *   hidden[i, c, :] = s[i, c] * w0 + table[key[i], :]     product, then sum
 *
 * for n nodes, k columns, d units: sources s (n, k), the residual's weight
 * column w0 (d), the bias table (keys, d), node rows key (n), hidden
 * (n, k, d) overwritten.  numpy's `np.multiply(s[..., None], w0, out=hidden);
 * hidden += table[key][:, None]` rounds the same two operations in the same
 * order, so the bytes agree.  It replaces a bias copy and a K = 1 BLAS GEMM,
 * 4x slower together at float32, k = 8.  Instantiating d = 10 here as well
 * gained 5 us in a 60 ms sweep: not done.
 */
#define DEFINE_NODE_PREFILL(NAME, T)                                          \
    CLONED void NAME(                                                         \
        int64_t n, int64_t k, int64_t d, const T *sources, const T *w0,       \
        const T *table, const int64_t *key, T *hidden)                        \
    {                                                                         \
        for (int64_t i = 0; i < n; ++i) {                                     \
            const T *restrict b = table + key[i] * d;                         \
            for (int64_t c = 0; c < k; ++c) {                                 \
                const T s = sources[i * k + c];                               \
                T *restrict out = hidden + (i * k + c) * d;                   \
                for (int64_t q = 0; q < d; ++q)                               \
                    out[q] = s * w0[q] + b[q];                                \
            }                                                                 \
        }                                                                     \
    }

DEFINE_NODE_PREFILL(node_prefill_f64, double)
DEFINE_NODE_PREFILL(node_prefill_f32, float)

/* psi's output bias, added after the damped ResNet update's GEMM:
 *
 *   x[r, q] = x[r, q] + b[q]         rows r of the latent x (rows, d)
 *
 * numpy's `x += b` rounds the same one sum, so the bytes agree; broadcast over
 * the d = 10 inner loop it cost about as much as a GEMM per block.  d = 10 is
 * an instantiation, every other d a loop bound: the float32 sweep over the
 * ledger's k = 8 rows is 2.2x faster at a constant bound (110 vs 246 us).
 */
#define DEFINE_ROW_BIAS(NAME, T)                                              \
    static inline __attribute__((always_inline)) void NAME##_body(            \
        int64_t rows, int64_t d, const T *restrict bias, T *restrict x)       \
    {                                                                         \
        for (int64_t r = 0; r < rows; ++r) {                                  \
            T *restrict out = x + r * d;                                      \
            for (int64_t q = 0; q < d; ++q)                                   \
                out[q] = out[q] + bias[q];                                    \
        }                                                                     \
    }                                                                         \
    CLONED void NAME(int64_t rows, int64_t d, const T *bias, T *x)            \
    {                                                                         \
        if (d == HIDDEN / 2)                                                  \
            NAME##_body(rows, HIDDEN / 2, bias, x);                           \
        else                                                                  \
            NAME##_body(rows, d, bias, x);                                    \
    }

DEFINE_ROW_BIAS(row_bias_f64, double)
DEFINE_ROW_BIAS(row_bias_f32, float)
