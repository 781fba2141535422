/* The fused edge pass of the DSS inference forward (repro/gnn/infer.py).
 *
 *   stat[e, :]   = ((a[e,0] W[0,:] + a[e,1] W[1,:]) + a[e,2] W[2,:] (+ a[e,3] W[3,:])) + b
 *   pre[i, c, :] = sum over edges e -> i, ascending e, of
 *                  relu(stat[e, :] + proj[i, c, :] + proj[n + src[e], c, :])
 *
 * One sweep over the destination-sorted edges.  The static term of an edge —
 * the hidden-layer contribution of its attribute row a[e], the same for every
 * column — is formed here, once per edge, from the plan's one (E, |e|)
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
 * Built by repro/gnn/_native.py with `cc -O3 -ffp-contract=off -shared -fPIC`:
 * no -ffast-math, and no -march=native — the cached .so may be shared between
 * machines.  Measured on the ledger operator while sizing it (DESIGN.md,
 * "Measured floor of the apply"):
 *
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
 */
#include <stdint.h>

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
    void NAME(                                                                \
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
    }

DEFINE_EDGE_PASS(edge_pass_f64_3, double, 3)
DEFINE_EDGE_PASS(edge_pass_f64_4, double, 4)
DEFINE_EDGE_PASS(edge_pass_f32_3, float, 3)
DEFINE_EDGE_PASS(edge_pass_f32_4, float, 4)
