"""The shared SpMV: scipy's CSR kernels bound once, bitwise the public ``@``.

:func:`repro.utils.sparse.csr_operator` replaces ``csr @ v`` in every Krylov
loop, so its products must be the public operator's bytes for every index
width, index order and block layout, through the bound kernels and through
the fallback alike; and each solver must return the same solution, residual
history and iteration count whichever of the two runs its SpMV.  The
structural guard keeps the private kernels in one module.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

import repro
from repro.krylov import gmres, lockstep_pcg, preconditioned_conjugate_gradient
from repro.solvers import SolverConfig, prepare
from repro.utils import sparse
from repro.utils.sparse import csr_operator

SRC = Path(repro.__file__).resolve().parent

bound_kernels = pytest.mark.skipif(
    sparse.csr_matvec is None or sparse.csr_matvecs is None,
    reason="scipy's private CSR kernels failed their check: only the fallback runs",
)


def _matrices():
    """A 7×6 CSR with an empty row, as int32, int64 and unsorted-index copies."""
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((7, 6)) * (rng.random((7, 6)) < 0.5)
    dense[3] = 0.0
    int32 = sp.csr_matrix(dense)
    assert int32.indices.dtype == np.int32
    int64 = int32.copy()
    int64.indptr, int64.indices = int64.indptr.astype(np.int64), int64.indices.astype(np.int64)
    unsorted = int32.copy()
    for row in range(unsorted.shape[0]):
        span = slice(unsorted.indptr[row], unsorted.indptr[row + 1])
        unsorted.indices[span] = unsorted.indices[span][::-1].copy()
        unsorted.data[span] = unsorted.data[span][::-1].copy()
    unsorted.has_sorted_indices = False
    return {"int32": int32, "int64": int64, "unsorted": unsorted}


MATRICES = _matrices()


def _assert_same_bytes(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.flags.c_contiguous == expected.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def _assert_products_match(operator, matrix) -> None:
    rng = np.random.default_rng(7)
    v = rng.standard_normal(matrix.shape[1])
    _assert_same_bytes(operator.matvec(v), matrix @ v)
    for k in (1, 2, 5):
        for order in ("C", "F"):
            block = np.asarray(rng.standard_normal((matrix.shape[1], k)), order=order)
            _assert_same_bytes(operator.matmat(block), matrix @ block)


@bound_kernels
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_bound_products_are_the_public_operators_bytes(name):
    matrix = MATRICES[name]
    operator = csr_operator(matrix)
    assert operator.kernel == "bound"
    _assert_products_match(operator, matrix)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_fallback_products_are_the_public_operators_bytes(monkeypatch, name):
    monkeypatch.setattr(sparse, "csr_matvec", None)
    operator = csr_operator(MATRICES[name])
    assert operator.kernel == "public"
    _assert_products_match(operator, MATRICES[name])


@pytest.mark.parametrize("name", ["csr_matvec", "csr_matvecs"])
def test_validation_rejects_a_kernel_that_changed(monkeypatch, name):
    """A kernel that stopped accumulating (or vanished) fails the import check."""
    def overwrites(*args):
        y = args[-1]
        y[:] = 0.0

    monkeypatch.setattr(_sparsetools, name, overwrites)
    assert sparse.validated_kernel(name) is None
    monkeypatch.delattr(_sparsetools, name)
    assert sparse.validated_kernel(name) is None


@bound_kernels
def test_unusual_arguments_take_the_public_operator():
    """Arguments the bound kernels do not take keep ``@``'s answer (or error)."""
    matrix = MATRICES["int32"]
    operator = csr_operator(matrix)
    as_f32 = np.arange(6, dtype=np.float32)
    _assert_same_bytes(operator.matvec(as_f32), matrix @ as_f32)
    _assert_same_bytes(operator.matvec([1.0] * 6), matrix @ ([1.0] * 6))
    with pytest.raises(ValueError):
        operator.matvec(np.ones(5))
    with pytest.raises(ValueError):
        operator.matmat(np.ones((5, 2)))


def test_dense_and_non_float64_matrices():
    dense = MATRICES["int32"].toarray()
    operator = csr_operator(dense)
    assert operator.kernel == "dense"
    v = np.arange(6.0)
    _assert_same_bytes(operator.matvec(v), dense @ v)
    as_f32 = MATRICES["int32"].astype(np.float32)
    assert csr_operator(as_f32).kernel == "public"
    _assert_same_bytes(csr_operator(as_f32).matvec(v), as_f32 @ v)


# --------------------------------------------------------------------------- #
# every Krylov solver: the same run through the bound kernels and through `@`
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def ddm_lu(random_problem):
    return prepare(random_problem, SolverConfig(preconditioner="ddm-lu")).preconditioner


def _same_result(got, expected) -> None:
    assert np.array_equal(got.solution, expected.solution)
    assert got.iterations == expected.iterations
    assert got.residual_history == expected.residual_history
    assert got.failure_reason == expected.failure_reason


def _runs(monkeypatch, solve):
    """``solve()`` through the bound kernels, then through the public ``@``."""
    bound = solve()
    monkeypatch.setattr(sparse, "csr_matvecs", None)
    return bound, solve()


@bound_kernels
@pytest.mark.parametrize("linear", [True, False], ids=["pcg", "fcg"])
def test_pcg_and_fcg(monkeypatch, random_problem, ddm_lu, declare_linearity, linear):
    b = np.random.default_rng(11).standard_normal(random_problem.num_dofs)
    pre = declare_linearity(ddm_lu, linear)
    bound, public = _runs(monkeypatch, lambda: preconditioned_conjugate_gradient(
        random_problem.matrix, b, preconditioner=pre, tolerance=1e-10))
    assert bound.converged and bound.info["recurrence"] == ("standard" if linear else "flexible")
    _same_result(bound, public)


@bound_kernels
@pytest.mark.parametrize("num_rhs", [1, 4])
def test_lockstep(monkeypatch, random_problem, ddm_lu, num_rhs):
    B = np.random.default_rng(13).standard_normal((num_rhs, random_problem.num_dofs))
    bound, public = _runs(monkeypatch, lambda: lockstep_pcg(
        random_problem.matrix, B, preconditioner=ddm_lu, tolerance=1e-10))
    for got, expected in zip(bound, public):
        assert got.converged
        _same_result(got, expected)


@bound_kernels
def test_gmres(monkeypatch, random_problem, ddm_lu):
    b = np.random.default_rng(17).standard_normal(random_problem.num_dofs)
    bound, public = _runs(monkeypatch, lambda: gmres(
        random_problem.matrix, b, preconditioner=ddm_lu, tolerance=1e-10))
    assert bound.converged
    _same_result(bound, public)


# --------------------------------------------------------------------------- #
# the guard
# --------------------------------------------------------------------------- #
def test_only_utils_sparse_reaches_the_private_kernels():
    offenders = [f"{path.relative_to(SRC)}:{number}"
                 for path in sorted(SRC.rglob("*.py")) if path.relative_to(SRC) != Path("utils/sparse.py")
                 for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "_sparsetools" in line]
    assert not offenders, f"scipy's private CSR kernels reached outside repro.utils.sparse: {offenders}"
