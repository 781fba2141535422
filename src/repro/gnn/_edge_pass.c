/* The fused edge pass of the DSS forward and its vector-Jacobian product
 * (repro/gnn/infer.py, EdgeLayout), and, at the end of this file, the whole
 * block loop of the compiled forward (InferencePlan._forward): the pass
 * inlined between scipy's BLAS GEMMs, every block in one call.
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

/* The whole block loop of the folded forward (InferencePlan._forward, its
 * numpy body _blocks_numpy step for step): per block b of `blocks`,
 *
 *   proj[:n]      = latent W_dst                       GEMM, beta = 0
 *   proj[n:]      = latent W_src                       GEMM, beta = 0
 *   pre           = the edge pass above, inlined
 *   hidden[i, c]  = s[i, c] * w0 + table[b, key[i]]    product, then sum
 *   hidden       += pre W_agg, then += latent W_latent GEMMs, beta = 1
 *   hidden        = hidden <= 0 ? 0 : hidden           np.maximum(h, 0): -0 -> +0, NaN stays
 *   latent       += hidden W_update                    GEMM, beta = 1
 *   latent[r]     = latent[r] + b_update               row by row
 *
 * for k columns on one workspace — sources s (n, k), latent (n*k, d), updated
 * in place from the caller's start (zeros in a forward), proj (2n, k, 2d),
 * pre (n, k, 2d) and hidden (n, k, d), each overwritten before it is read.  A block's weights are one row of the fold's slab
 * (CompiledDSS.slab), in this order: W_dst (d, 2d), W_src (d, 2d), W_attr
 * (|e|, 2d), b_hidden (2d), W_agg (2d, d), W_latent (d, d), w0 (d), W_update
 * (d, d), b_update (d); its bias rows are table[b] (keys, d).
 *
 * Every GEMM is the Fortran dgemm / sgemm of scipy's BLAS, the pointer
 * scipy.linalg.cython_blas exports, which repro/gnn/_native.py hands over as
 * the first argument: the same routine scipy.linalg.blas wraps, called with
 * the arguments `gemm(1.0, b.T, a.T, beta, c.T)` passes for the C-ordered
 * c = a b + beta c (cT = bT aT + beta cT), so the numpy body's GEMMs give the
 * same bytes.  The prefill, the ReLU and the row bias round what numpy
 * rounds, in its order.  Its dimensions are Fortran int: the caller keeps
 * n*k*2d within 32 bits (infer.py, blas_columns).
 *
 * One call replaces the ~10 Python-to-C crossings of each block (two
 * np.matmul, three GEMM wrappers, the ReLU and the ctypes calls of the pass,
 * the prefill and the bias): 48 us per block on the ledger plans (DESIGN.md,
 * "Measured floor of the apply").  The latent width d = 10 is an
 * instantiation, like the pass's 2d = 20: the float32 row bias over the
 * ledger's k = 8 rows ran 2.2x faster at a constant bound (110 vs 246 us);
 * the prefill replaced a bias copy and a K = 1 GEMM, 4x slower together at
 * float32, k = 8.  The four loops, each inlining a pass in both clones and
 * both widths, double the library (62 to 120 kB) and the compile (1.6 to
 * 3.4-4.0 s, once per fresh cache, on the first forward).
 */
typedef void gemm_double(char *, char *, int *, int *, int *, double *, double *, int *, double *,
                         int *, double *, double *, int *);
typedef void gemm_float(char *, char *, int *, int *, int *, float *, float *, int *, float *, int *,
                        float *, float *, int *);

/* c (rows, m) = a (rows, inner) b (inner, m) + beta c, all C-ordered */
#define GEMM(T, gemm, rows, inner, m, a, b, beta, c)                          \
    do {                                                                      \
        char no = 'N';                                                        \
        int m_ = (int)(m), rows_ = (int)(rows), inner_ = (int)(inner);        \
        T one_ = 1, beta_ = (beta);                                           \
        gemm(&no, &no, &m_, &rows_, &inner_, &one_, (T *)(b), &m_, (T *)(a),  \
             &inner_, &beta_, (c), &m_);                                      \
    } while (0)

#define DEFINE_DSS_BLOCKS(NAME, T, WIDTH, PASS)                               \
    static inline __attribute__((always_inline)) void NAME##_body(            \
        gemm_##T *gemm, int64_t k, int64_t n, int64_t d, int64_t blocks,      \
        int64_t keys, const int64_t *indptr, const int64_t *src,              \
        const T *attr, const T *slab, const T *table, const int64_t *key,     \
        const T *sources, T *latent, T *proj, T *pre, T *hidden)              \
    {                                                                         \
        const int64_t w = 2 * d, rows = n * k;                                \
        const int64_t stride = 3 * d * w + WIDTH * w + w + 2 * d * d + 2 * d; \
        for (int64_t b = 0; b < blocks; ++b) {                                \
            const T *w_dst = slab + b * stride, *w_src = w_dst + d * w;       \
            const T *w_attr = w_src + d * w, *b_hidden = w_attr + WIDTH * w;  \
            const T *w_agg = b_hidden + w, *w_latent = w_agg + w * d;         \
            const T *w0 = w_latent + d * d, *w_update = w0 + d;               \
            const T *restrict b_update = w_update + d * d;                    \
            const T *bias = table + b * keys * d;                             \
            GEMM(T, gemm, rows, d, w, latent, w_dst, 0, proj);                \
            GEMM(T, gemm, rows, d, w, latent, w_src, 0, proj + rows * w);     \
            PASS##_body(n, k, w, indptr, src, attr, w_attr, b_hidden, proj, pre); \
            for (int64_t i = 0; i < n; ++i) {                                 \
                const T *restrict row = bias + key[i] * d;                    \
                for (int64_t c = 0; c < k; ++c) {                             \
                    const T s = sources[i * k + c];                           \
                    T *restrict out = hidden + (i * k + c) * d;               \
                    for (int64_t q = 0; q < d; ++q)                           \
                        out[q] = s * w0[q] + row[q];                          \
                }                                                             \
            }                                                                 \
            GEMM(T, gemm, rows, w, d, pre, w_agg, 1, hidden);                 \
            GEMM(T, gemm, rows, d, d, latent, w_latent, 1, hidden);           \
            for (int64_t q = 0; q < rows * d; ++q)                            \
                hidden[q] = hidden[q] <= (T)0 ? (T)0 : hidden[q];             \
            GEMM(T, gemm, rows, d, d, hidden, w_update, 1, latent);           \
            for (int64_t r = 0; r < rows; ++r) {                              \
                T *restrict out = latent + r * d;                             \
                for (int64_t q = 0; q < d; ++q)                               \
                    out[q] = out[q] + b_update[q];                            \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    CLONED void NAME(                                                         \
        gemm_##T *gemm, int64_t k, int64_t n, int64_t d, int64_t blocks,      \
        int64_t keys, const int64_t *indptr, const int64_t *src,              \
        const T *attr, const T *slab, const T *table, const int64_t *key,     \
        const T *sources, T *latent, T *proj, T *pre, T *hidden)              \
    {                                                                         \
        if (d == HIDDEN / 2)                                                  \
            NAME##_body(gemm, k, n, HIDDEN / 2, blocks, keys, indptr, src,    \
                        attr, slab, table, key, sources, latent, proj, pre,   \
                        hidden);                                              \
        else                                                                  \
            NAME##_body(gemm, k, n, d, blocks, keys, indptr, src, attr, slab, \
                        table, key, sources, latent, proj, pre, hidden);      \
    }

DEFINE_DSS_BLOCKS(dss_blocks_f64_3, double, 3, edge_pass_f64_3)
DEFINE_DSS_BLOCKS(dss_blocks_f64_4, double, 4, edge_pass_f64_4)
DEFINE_DSS_BLOCKS(dss_blocks_f32_3, float, 3, edge_pass_f32_3)
DEFINE_DSS_BLOCKS(dss_blocks_f32_4, float, 4, edge_pass_f32_4)
