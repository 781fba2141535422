"""Shared fixtures for the test suite.

Meshes, problems and trained-ish models are expensive to build, so the widely
reused ones are session-scoped.  Sizes are deliberately small: the goal of the
suite is to exercise every code path and invariant, not to reach paper-scale
problem sizes (the benchmark harnesses do that).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.ddm import AdditiveSchwarzPreconditioner, NicolaidesCoarseSpace
from repro.fem import Problem, dirichlet_bc, manufactured_solution
from repro.gnn import DSS, DSSConfig
from repro.mesh import disk_mesh, random_domain_mesh, structured_rectangle_mesh
from repro.partition import OverlappingDecomposition, partition_mesh_target_size
from repro.problems import make_problem


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def unit_square_mesh():
    """Structured 12x12 mesh of the unit square (169 nodes)."""
    return structured_rectangle_mesh(12, 12)


@pytest.fixture(scope="session")
def small_disk_mesh():
    """Unstructured disk mesh with a few hundred nodes."""
    return disk_mesh(radius=1.0, element_size=0.12)


@pytest.fixture(scope="session")
def random_mesh():
    """A random Bezier-domain mesh (the paper's training distribution, small)."""
    return random_domain_mesh(radius=1.0, element_size=0.1, rng=np.random.default_rng(7))


@pytest.fixture(scope="session")
def manufactured_problem(unit_square_mesh):
    """Poisson problem with a known smooth exact solution on the unit square."""
    u_exact, f, g = manufactured_solution()
    problem = Problem.from_fields(unit_square_mesh, f, [dirichlet_bc(g)])
    return problem, u_exact


@pytest.fixture(scope="session")
def random_problem(random_mesh):
    """A random Poisson problem on the random mesh."""
    return make_problem("poisson", mesh=random_mesh, rng=np.random.default_rng(3))


@pytest.fixture(scope="session")
def small_decomposition(random_mesh):
    """Overlapping decomposition of the random mesh into ~6 sub-domains."""
    partition = partition_mesh_target_size(random_mesh, 80, rng=np.random.default_rng(0))
    return OverlappingDecomposition(random_mesh, partition, overlap=2)


@pytest.fixture(scope="session")
def tiny_dss_model():
    """An untrained, tiny DSS model (weights random but deterministic)."""
    return DSS(DSSConfig(num_iterations=3, latent_dim=4, seed=1))


@pytest.fixture(scope="session")
def trained_dss_model():
    """A small DSS model trained just enough to converge as a preconditioner.

    The untrained ``tiny_dss_model`` stalls as a PCG preconditioner (its random
    weights do not approximate the local inverses), so tests that assert
    *convergence* — rather than parity or bounded iterations — train this one
    for a few seconds on a handful of local problems harvested with the
    paper's dataset recipe.  Deterministic: fixed rngs and seeds throughout.
    """
    from repro.core import generate_dataset
    from repro.gnn import DSSTrainer, TrainingConfig

    dataset = generate_dataset(num_global_problems=6, mesh_element_size=0.18,
                               subdomain_size=80, overlap=2,
                               rng=np.random.default_rng(42))
    graphs = dataset.train + dataset.validation + dataset.test
    model = DSS(DSSConfig(num_iterations=10, latent_dim=10, seed=0))
    trainer = DSSTrainer(model, TrainingConfig(epochs=20, batch_size=8,
                                               learning_rate=1e-2,
                                               gradient_clip=1e-2))
    trainer.fit(graphs, verbose=False)
    return model


class DeclaredLinearity:
    """Forward a preconditioner, overriding the ``linear`` flag it declares.

    The Krylov layer picks its recurrence from that flag alone, so this is how
    a test runs the *other* recurrence over the very same applies.
    """

    def __init__(self, inner, linear: bool) -> None:
        self.inner = inner
        self.linear = linear

    def apply(self, residual):
        return self.inner.apply(residual)

    def apply_columns(self, residuals):
        return self.inner.apply_columns(residuals)


@pytest.fixture(scope="session")
def declare_linearity():
    """``declare_linearity(preconditioner, linear)`` -> :class:`DeclaredLinearity`."""
    return DeclaredLinearity


def exact_local_ddm_gnn(matrix, decomposition, residuals):
    """What DDM-GNN computes when its local solves are exact, from DDM-LU's pieces.

    ``z₁ = Σ_i R̃_iᵀ A_i⁻¹ R_i r`` (one-level RAS of the LU class), then the
    coarse solve on the residual it leaves: ``z = z₁ + Q (r − A z₁)``.
    """
    ras = AdditiveSchwarzPreconditioner(matrix, decomposition, levels=1, variant="ras")
    coarse = NicolaidesCoarseSpace(decomposition.subdomain_nodes, matrix.shape[0]).factorize(matrix)
    local = ras.apply_columns(residuals)
    return local + coarse.apply_columns(residuals - matrix @ local)


@pytest.fixture(scope="session")
def exact_local_reference():
    """``exact_local_reference(matrix, decomposition, residuals)`` -> :func:`exact_local_ddm_gnn`."""
    return exact_local_ddm_gnn


def dst_sorted(batch):
    """``batch`` with its edges stable-sorted by destination: the order its edge layout runs them in."""
    order = np.argsort(batch.edge_index[1], kind="stable")
    return dataclasses.replace(batch, edge_index=batch.edge_index[:, order], edge_attr=batch.edge_attr[order])


@pytest.fixture(params=["thread", "process"])
def executor(request):
    """Where solves run: the in-process thread pool or a worker process."""
    return request.param


@pytest.fixture
def serving(executor):
    """Start the same service over the parametrised executor.

    ``serving(serve_config, faults=[(name, kwargs), ...], **service_kwargs)``
    returns a :class:`~repro.serve.SolveService` (``thread``) or a one-shard
    :class:`~repro.serve.ShardedSolveService` (``process``) with the fault
    specs installed where its solves run — in this process, or inside the
    worker at bootstrap, where no test can reach them afterwards (so specs
    bound themselves: ``until_calls``, ``after_calls``, ``max_stall_s``).
    Everything started is torn down with the test.
    """
    from repro.faults import install_from_specs
    from repro.serve import ShardConfig, ShardedSolveService, SolveService

    started = []

    def start(serve_config, faults=(), **service_kwargs):
        if executor == "thread":
            installed = install_from_specs(faults)
            service = SolveService(serve_config, **service_kwargs)
        else:
            installed = []
            service = ShardedSolveService(
                serve_config, shard_config=ShardConfig(workers=1, faults=faults),
                **service_kwargs)
        started.append((service, installed))
        return service

    yield start
    for service, installed in reversed(started):
        # faults first: deactivating a stall releases the wedged worker
        # thread that close() is about to join
        for fault in reversed(installed):
            fault.deactivate()
        service.close()
