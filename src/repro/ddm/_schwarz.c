/* The DDM-LU apply — two-level additive Schwarz with exact local LU solves,
 * AdditiveSchwarzPreconditioner.apply_columns for variant "asm"
 * (repro/ddm/asm.py) — in one call.
 *
 * The block-diagonal SuperLU factor Pr A Pc = L U of the K local matrices is
 * held as this kernel's arrays (repro/ddm/_native.py, TriangularFactor): the
 * strictly lower L (its unit diagonal implied) and the strictly upper U, both
 * CSR with ascending columns and no stored zeros, and U's diagonal apart.  For
 * each column c of an (n, k) residual block r, in this order:
 *
 *   gather   y[j] = r[gather[j]]              R r, straight into SuperLU's row
 *                                             order: gather[j] is the node of
 *                                             the stacked row perm_r sends to j
 *   forward  y[i] = y[i] - dot(L, i, y)       i ascending
 *   back     y[i] = (y[i] - dot(U, i, y)) / u_diag[i]          i descending
 *   coarse   s[q] = ((0 + w r[i1]) + w r[i2]) + ...  row q of R0, stored order
 *            e[q] = dot(inverse, q, s)        the dense K0 x K0 inverse, row q
 *   glue     out[i] = g + h, where g = ((0 + y[p1]) + y[p2]) + ... over node
 *            i's stacked rows in ascending order (R^T's CSR), each read
 *            through perm_c, and h = ((0 + w e[q1]) + w e[q2]) + ... over
 *            R0^T's row i, ascending q.  One level: out[i] = g.
 *
 * dot(M, i, x) runs over row i's stored entries in their order: entry m is
 * added to partial sum s[m % 4], each starting at 0, and the row's value is
 * ((s0 + s1) + (s2 + s3)).  Every product and sum is rounded on its own
 * (-ffp-contract=off), so the bytes are those of a Python loop written from
 * this list (tests/test_fastpath.py, schwarz_loop_reference), and column c of
 * a k-wide call is bitwise the 1-wide call.  The numpy body forms the same
 * gather, glue and coarse sums (scipy's CSR kernels add in this order), but
 * SuperLU's supernodal substitution and BLAS's GEMV add differently: native
 * and numpy agree to ~1e-16 relative per apply, not bitwise.
 *
 * The same function is the local solver's bare substitution once the factor
 * was handed over (LULocalSolver.solve_stacked_columns): gather = the stacked
 * row of every factor row, one glue entry per row (perm_c), no coarse level.
 *
 * Built by repro/utils/native.py (for repro/ddm/_native.py) with the edge
 * pass's flags, `cc -O3 -ffp-contract=off -falign-functions=64 -shared
 * -fPIC`.  DESIGN.md, "The DDM-LU apply", has the measurements behind it.
 */
#include <stdint.h>

/* Sizes, then the arrays the apply reads; mirrored by _Plan in _native.py. */
typedef struct {
    int64_t n;                     /* output rows (global unknowns)           */
    int64_t rows;                  /* factor rows (stacked sub-domain rows)   */
    int64_t coarse;                /* K0, the coarse dimension; 0: one level  */
    const int32_t *gather;         /* (rows) input row of every factor row    */
    const int32_t *l_indptr, *l_indices;
    const double *l_data;
    const int32_t *u_indptr, *u_indices;
    const double *u_data, *u_diag;
    const int32_t *glue_indptr;    /* (n + 1)                                 */
    const int32_t *glue_indices;   /* factor position of each contribution    */
    const int32_t *r0_indptr, *r0_indices;        /* R0, (K0, n) CSR          */
    const double *r0_data, *inverse;              /* inverse: (K0, K0) C order */
    const int32_t *r0t_indptr, *r0t_indices;      /* R0^T, (n, K0) CSR        */
    const double *r0t_data;
    double *work;                  /* (rows + 2 K0) scratch                   */
} schwarz_plan;

static inline double sparse_dot(const int32_t *indices, const double *data, int64_t begin, int64_t end,
                                const double *x)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t e = begin;
    for (; e + 4 <= end; e += 4) {
        s0 += data[e] * x[indices[e]];
        s1 += data[e + 1] * x[indices[e + 1]];
        s2 += data[e + 2] * x[indices[e + 2]];
        s3 += data[e + 3] * x[indices[e + 3]];
    }
    if (e < end)
        s0 += data[e] * x[indices[e]];
    if (e + 1 < end)
        s1 += data[e + 1] * x[indices[e + 1]];
    if (e + 2 < end)
        s2 += data[e + 2] * x[indices[e + 2]];
    return (s0 + s1) + (s2 + s3);
}

static inline double dense_dot(const double *row, const double *x, int64_t length)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= length; j += 4) {
        s0 += row[j] * x[j];
        s1 += row[j + 1] * x[j + 1];
        s2 += row[j + 2] * x[j + 2];
        s3 += row[j + 3] * x[j + 3];
    }
    if (j < length)
        s0 += row[j] * x[j];
    if (j + 1 < length)
        s1 += row[j + 1] * x[j + 1];
    if (j + 2 < length)
        s2 += row[j + 2] * x[j + 2];
    return (s0 + s1) + (s2 + s3);
}

/* k columns of r, element (i, c) at r[i * row_stride + c * col_stride];
 * out is (n, k) in column-major order, overwritten. */
void schwarz_apply(const schwarz_plan *p, int64_t k, const double *r, int64_t row_stride,
                   int64_t col_stride, double *out)
{
    double *y = p->work;
    double *s = y + p->rows, *e = s + p->coarse;
    for (int64_t c = 0; c < k; ++c) {
        const double *rc = r + c * col_stride;
        double *restrict o = out + c * p->n;
        for (int64_t j = 0; j < p->rows; ++j)
            y[j] = rc[p->gather[j] * row_stride];
        for (int64_t i = 0; i < p->rows; ++i)
            y[i] = y[i] - sparse_dot(p->l_indices, p->l_data, p->l_indptr[i], p->l_indptr[i + 1], y);
        for (int64_t i = p->rows - 1; i >= 0; --i)
            y[i] = (y[i] - sparse_dot(p->u_indices, p->u_data, p->u_indptr[i], p->u_indptr[i + 1], y))
                   / p->u_diag[i];
        for (int64_t q = 0; q < p->coarse; ++q) {
            double sum = 0.0;
            for (int64_t m = p->r0_indptr[q]; m < p->r0_indptr[q + 1]; ++m)
                sum += p->r0_data[m] * rc[p->r0_indices[m] * row_stride];
            s[q] = sum;
        }
        for (int64_t q = 0; q < p->coarse; ++q)
            e[q] = dense_dot(p->inverse + q * p->coarse, s, p->coarse);
        for (int64_t i = 0; i < p->n; ++i) {
            double g = 0.0;
            for (int64_t m = p->glue_indptr[i]; m < p->glue_indptr[i + 1]; ++m)
                g += y[p->glue_indices[m]];
            if (p->coarse) {
                double h = 0.0;
                for (int64_t m = p->r0t_indptr[i]; m < p->r0t_indptr[i + 1]; ++m)
                    h += p->r0t_data[m] * e[p->r0t_indices[m]];
                g = g + h;
            }
            o[i] = g;
        }
    }
}
