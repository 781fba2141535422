"""The one apply contract, generated over every preconditioner.

``apply(r)`` and ``apply_columns(R)`` are one operation at two widths
(:class:`repro.ddm.asm.Preconditioner`): a class implements one, the interface
derives the other, and column ``j`` of a k-wide call is the 1-wide call.  The
first class checks that behaviour for every registered kind; the second
checks, on the source, that the duplication it replaced cannot come back; the
third pins the scratch memory of the block pipelines.
"""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ddm import AdditiveSchwarzPreconditioner, Preconditioner
from repro.ddm import _native as ddm_native
from repro.solvers import SolverConfig, available_preconditioners, prepare

SRC = Path(repro.__file__).resolve().parent

#: every registered kind, plus the ASM variants no registry entry reaches, and DDM-LU's numpy body
#: (``ddm-lu`` itself runs the native one wherever the C compiles)
CASES = ["ddm-gnn", "ddm-gnn[f32]", "ddm-lu", "ddm-lu[numpy]", "ddm-jacobi", "ic0", "none", "asm-ras",
         "asm-one-level"]


def test_cases_cover_the_registry():
    assert set(available_preconditioners()) <= set(CASES)


def build_case(case, problem, model):
    """The preconditioner of one case; ``ddm-lu[numpy]`` resolves its body with the kernel unavailable,
    and an ASM keeps the body it resolved to."""
    if case == "ddm-lu[numpy]":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ddm_native, "_kernels", None)
            pre = build_case("ddm-lu", problem, model)
            assert pre.kernel == "numpy"
        return pre
    kind, _, precision = case.partition("[")
    config = SolverConfig(preconditioner=kind, subdomain_size=80, precision=precision.rstrip("]") or "f64")
    return prepare(problem, config, model=model).preconditioner


@pytest.fixture(scope="module")
def preconditioners(random_problem, small_decomposition, trained_dss_model):
    def build(case):
        if case == "asm-ras":
            return AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, variant="ras")
        if case == "asm-one-level":
            return AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=1)
        return build_case(case, random_problem, trained_dss_model)

    return {case: build(case) for case in CASES}


def close(case, block_column, single):
    """Bitwise, except the k-wide f32 DSS sweep (its documented 1e-3 contract)."""
    if case != "ddm-gnn[f32]":
        return np.array_equal(block_column, single)
    return np.linalg.norm(block_column - single) <= 1e-3 * np.linalg.norm(single)


@pytest.mark.parametrize("case", CASES)
class TestApplyContract:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_column_j_of_a_block_is_the_single_apply(self, preconditioners, random_problem, case, k):
        pre = preconditioners[case]
        block = np.asfortranarray(np.random.default_rng(k).normal(size=(random_problem.num_dofs, k)))
        pristine = block.copy()
        result = pre.apply_columns(block)
        assert result.shape == block.shape and result.flags.f_contiguous
        assert np.array_equal(block, pristine), "apply_columns mutated its input"
        for j in range(k):
            single = pre.apply(block[:, j])
            assert single.shape == (random_problem.num_dofs,)
            # one column is always the very same sweep, f32 included
            assert np.array_equal(result[:, j], single) if k == 1 else close(case, result[:, j], single)
        assert np.array_equal(block, pristine), "apply mutated its input"

    def test_interleaved_widths_leak_no_state(self, preconditioners, random_problem, case):
        """``apply`` / ``apply_columns(8)`` / ``apply_columns(3)`` / ``apply``
        on ONE object: the scratch of all widths aliases one allocation, so
        every call must restage all the state it reads."""
        pre = preconditioners[case]
        rng = np.random.default_rng(59)
        r, wide, narrow = (rng.normal(size=(random_problem.num_dofs, k)) for k in (1, 8, 3))
        first = pre.apply(r[:, 0]).copy()
        wide_result = pre.apply_columns(wide).copy()
        narrow_result = pre.apply_columns(narrow).copy()
        assert np.array_equal(pre.apply(r[:, 0]), first)
        assert np.array_equal(pre.apply_columns(wide), wide_result)
        assert np.array_equal(pre.apply_columns(narrow), narrow_result)
        assert np.array_equal(pre.apply_columns(r)[:, 0], first)


# --------------------------------------------------------------------------- #
# one apply: the structure that makes the contract hold by construction
# --------------------------------------------------------------------------- #
def _classes(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def _methods(cls):
    return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}


def _bases(cls):
    return {getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases}


class TestOneApply:
    @pytest.fixture(scope="class")
    def trees(self):
        return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}

    def _subclasses(self, trees, root):
        """Every class under src/ deriving (transitively, by name) from ``root``."""
        classes = [cls for tree in trees.values() for cls in _classes(tree)]
        family, grew = {root}, True
        while grew:
            new = {cls.name for cls in classes if _bases(cls) & family} - family
            family, grew = family | new, bool(new)
        return [cls for cls in classes if cls.name in family - {root}]

    def test_every_preconditioner_defines_exactly_one_apply(self, trees):
        subclasses = self._subclasses(trees, "Preconditioner")
        assert {"AdditiveSchwarzPreconditioner", "DDMGNNPreconditioner", "IdentityPreconditioner",
                "IncompleteCholeskyPreconditioner", "_HarvestingPreconditioner",
                "PoisonedPreconditioner"} <= {cls.name for cls in subclasses}
        for cls in subclasses:
            defined = _methods(cls) & {"apply", "apply_columns"}
            if cls.name == "DDMGNNPreconditioner":  # the Schwarz apply with a DSS local solver
                assert not defined and _bases(cls) == {"AdditiveSchwarzPreconditioner"}, \
                    f"{cls.name} defines {sorted(defined)}"
            else:
                assert len(defined) == 1, f"{cls.name} defines {sorted(defined)}"

    def test_a_subclass_defining_neither_fails_at_creation(self):
        with pytest.raises(TypeError, match="must override apply or apply_columns"):
            class Neither(Preconditioner):
                pass

    def test_every_local_solver_defines_one_solve(self, trees):
        subclasses = self._subclasses(trees, "LocalSolver")
        assert {"LULocalSolver", "JacobiLocalSolver", "DSSLocalSolver"} <= {cls.name for cls in subclasses}
        for cls in subclasses:
            solves = {name for name in _methods(cls) if name.startswith("solve")}
            assert solves == {"solve_stacked_columns"}, f"{cls.name} defines {sorted(solves)}"

    def test_the_coarse_space_applies_through_its_block_form(self, trees):
        (coarse,) = [cls for tree in trees.values() for cls in _classes(tree)
                     if cls.name == "NicolaidesCoarseSpace"]
        (apply,) = [node for node in coarse.body
                    if isinstance(node, ast.FunctionDef) and node.name == "apply"]
        body = [node for node in apply.body if not isinstance(node, ast.Expr)]  # drop the docstring
        assert len(body) <= 2 and "apply_columns" in ast.unparse(apply)

    def test_retired_symbols_stay_retired(self, trees):
        retired = {"apply_reference", "_local_correction_batched", "_local_correction_fast",
                   "_local_correction_fast_columns", "extract_columns", "solve_stacked",
                   "_apply_columns", "gnn_batch_size",
                   # PR 23: the edge pass forms the static edge terms; nothing stores or budgets them
                   "STATIC_EDGE_TERM_BUDGET", "_static_scratch", "with_static", "_static_terms",
                   # one Schwarz skeleton: DDM-GNN's own gather/glue/coarse pipeline and the
                   # `predict`-only model path are gone, with the small helpers nothing called
                   "_local_correction", "_solve_batch", "_batch_membership", "fixed_point_iteration",
                   "local_residuals", "solution_from_output",
                   # one clock: spans are the only stopwatch; the parallel timers and leaf helpers are gone
                   "Timer", "timed", "leaf_span", "_LeafSpanCM", "_stamp_span"}
        for path, tree in trees.items():
            names = {node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert not names & retired, f"{path.relative_to(SRC)}: {sorted(names & retired)}"


# --------------------------------------------------------------------------- #
# scratch memory follows the widest block, not the sum of the widths seen
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case", ["ddm-gnn", "ddm-lu", "ddm-lu[numpy]"])
class TestScratchMemory:
    def _blocks(self, n, widths):
        rng = np.random.default_rng(7)
        return [np.asfortranarray(rng.normal(size=(n, k))) for k in widths]

    def test_a_shrinking_block_holds_what_its_widest_width_needs(
            self, random_problem, small_decomposition, tiny_dss_model, case):
        widest, shrinking = (build_case(case, random_problem, tiny_dss_model) for _ in range(2))
        n = random_problem.num_dofs
        widest.apply_columns(self._blocks(n, [16])[0])
        for block in self._blocks(n, range(16, 0, -1)):
            shrinking.apply_columns(block)
        if case == "ddm-lu" and widest.kernel == "native":  # DDM-LU's native body: one column of work, any k
            assert shrinking._scratch.nbytes == widest._scratch.nbytes == 0
            assert shrinking._native.arrays["work"].nbytes == widest._native.arrays["work"].nbytes > 0
        else:
            assert shrinking._scratch.nbytes == widest._scratch.nbytes > 0
        if case == "ddm-gnn":                                 # the DSS local solver's own scratch
            assert shrinking.local_solver._scratch.nbytes == widest.local_solver._scratch.nbytes > 0

    def test_mixed_widths_allocate_nothing_once_warm(self, preconditioners, random_problem, case):
        """Three windows of 50 calls, judged by the quietest: a leak of this preconditioner grows in every
        window, while scipy's process-wide SuperLU allocation registry — a dict keyed by live blocks, so
        sized by every LU factor *other* tests keep alive — rebuilds into a larger table (9–74 kB, charged
        to whichever ``factor.solve`` ran out of slots) once, in at most one of them."""
        pre = preconditioners[case]
        widths = [int(k) for k in np.random.default_rng(3).integers(1, 9, size=50)]
        blocks = self._blocks(random_problem.num_dofs, widths)
        for block in self._blocks(random_problem.num_dofs, range(8, 0, -1)):
            pre.apply_columns(block)                      # every width seen once
        growth = []
        tracemalloc.start()
        try:
            for block in blocks[:5]:
                pre.apply_columns(block)                  # tracemalloc's own warm-up
            for _ in range(3):
                before, _ = tracemalloc.get_traced_memory()
                for block in blocks:
                    pre.apply_columns(block)
                growth.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        one_column = 8 * pre.stacked_restriction.total_rows
        assert min(growth) < one_column, f"grew by {growth} bytes over three windows of 50 calls"
