/* The DDM-LU apply — two-level additive Schwarz with exact local LU solves,
 * AdditiveSchwarzPreconditioner.apply_columns for variant "asm"
 * (repro/ddm/asm.py) — in one call.
 *
 * Both levels are one kind of factor (repro/ddm/_native.py, TriangularFactor):
 * a SuperLU factor Pr A Pc = L U held as the strictly lower L (its unit
 * diagonal implied) and the strictly upper U, both CSR with ascending columns
 * and no stored zeros, and U's diagonal apart.  The local factor is the
 * block-diagonal one of the K local matrices, the coarse factor that of the
 * sparse K0 x K0 A0 = R0 A R0^T.  For each column c of an (n, k) residual
 * block r, in this order:
 *
 *   gather   y[j] = r[gather[j]]              R r, straight into the local
 *                                             factor's row order: gather[j]
 *                                             is the node of the stacked row
 *                                             perm_r sends to j
 *   local    substitute(local, y)
 *   restrict s[q] = ((0 + w r[i1]) + w r[i2]) + ...  row q of R0 in the
 *                                             coarse factor's row order,
 *                                             stored order
 *   coarse   substitute(coarse, s)
 *   glue     out[i] = g + h, where g = ((0 + y[p1]) + y[p2]) + ... over node
 *            i's stacked rows in ascending order (R^T's CSR), each read
 *            through the local perm_c, and h = ((0 + w s[q1]) + w s[q2]) + ...
 *            over R0^T's row i, ascending coarse row, each read through the
 *            coarse perm_c.  One level: out[i] = g.
 *
 * substitute(f, x) is the forward pass x[i] = x[i] - dot(L, i, x), i
 * ascending, then the back pass x[i] = (x[i] - dot(U, i, x)) / u_diag[i],
 * i descending.  dot(M, i, x) runs over row i's stored entries in their
 * order: entry m is added to partial sum s[m % 4], each starting at 0, and
 * the row's value is ((s0 + s1) + (s2 + s3)).  Every product and sum is
 * rounded on its own (-ffp-contract=off), so the bytes are those of a Python
 * loop written from this list (tests/test_fastpath.py,
 * schwarz_loop_reference), and column c of a k-wide call is bitwise the
 * 1-wide call.  The numpy body forms the same gather, glue and restriction
 * sums (scipy's CSR kernels add in this order), but SuperLU's supernodal
 * substitution adds differently: native and numpy agree to ~1e-16 relative
 * per apply, not bitwise.
 *
 * The same function is a local solver's bare substitution once its factor
 * was handed over (LULocalSolver.solve_stacked_columns): gather = the stacked
 * row of every factor row, one glue entry per row (perm_c), no coarse level.
 *
 * Built by repro/utils/native.py (for repro/ddm/_native.py) with the edge
 * pass's flags, `cc -O3 -ffp-contract=off -falign-functions=64 -shared
 * -fPIC`.  DESIGN.md, "The DDM-LU apply", has the measurements behind it.
 */
#include <stdint.h>

/* One LU factor; mirrored by _Factor in _native.py. */
typedef struct {
    int64_t rows;                  /* 0: no factor (the one-level coarse)     */
    const int32_t *l_indptr, *l_indices;
    const double *l_data;
    const int32_t *u_indptr, *u_indices;
    const double *u_data, *u_diag;
} lu_factor;

/* Sizes, then the arrays the apply reads; mirrored by _Plan in _native.py. */
typedef struct {
    int64_t n;                     /* output rows (global unknowns)           */
    lu_factor local;               /* stacked sub-domain rows                 */
    lu_factor coarse;              /* K0 rows, the coarse dimension           */
    const int32_t *gather;         /* (local.rows) input row of factor rows   */
    const int32_t *glue_indptr;    /* (n + 1)                                 */
    const int32_t *glue_indices;   /* local factor position of each term      */
    const int32_t *r0_indptr, *r0_indices;        /* R0, (K0, n) CSR          */
    const double *r0_data;
    const int32_t *r0t_indptr, *r0t_indices;      /* R0^T, (n, K0) CSR        */
    const double *r0t_data;
    double *work;                  /* (local.rows + coarse.rows) scratch      */
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

/* x = U^-1 L^-1 x, in place, in the factor's row order. */
static void substitute(const lu_factor *f, double *x)
{
    for (int64_t i = 0; i < f->rows; ++i)
        x[i] = x[i] - sparse_dot(f->l_indices, f->l_data, f->l_indptr[i], f->l_indptr[i + 1], x);
    for (int64_t i = f->rows - 1; i >= 0; --i)
        x[i] = (x[i] - sparse_dot(f->u_indices, f->u_data, f->u_indptr[i], f->u_indptr[i + 1], x))
               / f->u_diag[i];
}

/* k columns of r, element (i, c) at r[i * row_stride + c * col_stride];
 * out is (n, k) in column-major order, overwritten. */
void schwarz_apply(const schwarz_plan *p, int64_t k, const double *r, int64_t row_stride,
                   int64_t col_stride, double *out)
{
    double *y = p->work, *s = y + p->local.rows;
    for (int64_t c = 0; c < k; ++c) {
        const double *rc = r + c * col_stride;
        double *restrict o = out + c * p->n;
        for (int64_t j = 0; j < p->local.rows; ++j)
            y[j] = rc[p->gather[j] * row_stride];
        substitute(&p->local, y);
        for (int64_t q = 0; q < p->coarse.rows; ++q) {
            double sum = 0.0;
            for (int64_t m = p->r0_indptr[q]; m < p->r0_indptr[q + 1]; ++m)
                sum += p->r0_data[m] * rc[p->r0_indices[m] * row_stride];
            s[q] = sum;
        }
        substitute(&p->coarse, s);
        for (int64_t i = 0; i < p->n; ++i) {
            double g = 0.0;
            for (int64_t m = p->glue_indptr[i]; m < p->glue_indptr[i + 1]; ++m)
                g += y[p->glue_indices[m]];
            if (p->coarse.rows) {
                double h = 0.0;
                for (int64_t m = p->r0t_indptr[i]; m < p->r0t_indptr[i + 1]; ++m)
                    h += p->r0t_data[m] * s[p->r0t_indices[m]];
                g = g + h;
            }
            o[i] = g;
        }
    }
}
