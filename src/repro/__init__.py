"""repro — reproduction of "Multi-Level GNN Preconditioner for Solving Large Scale Problems".

The package is organised bottom-up (see DESIGN.md):

* :mod:`repro.nn` — the optimiser on plain arrays: ``Parameter``, Adam, gradient clipping and
  ``ReduceLROnPlateau`` (``torch.optim`` substitute);
* :mod:`repro.mesh` — random-domain generation and unstructured triangulation (GMSH substitute);
* :mod:`repro.fem` — P1 finite elements for Poisson and variable-coefficient
  diffusion with mixed Dirichlet/Neumann/Robin boundary conditions;
* :mod:`repro.problems` — named problem registry
  (``make_problem("diffusion-checkerboard", ...)``), 2D and 3D families;
* :mod:`repro.partition` — k-way mesh partitioning with overlap (METIS substitute);
* :mod:`repro.ddm` — restriction operators, Nicolaides coarse space, Additive Schwarz;
* :mod:`repro.krylov` — CG / PCG / GMRES and the IC(0) baseline;
* :mod:`repro.gnn` — the Deep Statistical Solver (DSS) model, its training
  pipeline and versioned checkpointing (:mod:`repro.gnn.checkpoint`);
* :mod:`repro.core` — the DDM-GNN preconditioner, the (legacy) hybrid solver
  facade and dataset generation (the paper's contribution);
* :mod:`repro.solvers` — the solver surface: registry-driven
  :class:`~repro.solvers.session.SolverSession` objects with amortised setup
  and multi-RHS serving (``prepare(problem, config).solve_many(B)``);
* :mod:`repro.timestepping` — implicit θ-scheme time marching on amortised
  sessions (``prepare(make_problem("heat")).march(steps=100)``), including
  lockstep-batched independent trajectories;
* :mod:`repro.experiments` — the reproducible experiment harness
  (``python -m repro.experiments run --spec spec.json``) driving
  seed→mesh→train→checkpoint→bench→report from a declarative JSON spec;
* :mod:`repro.serve` — the concurrent solve service
  (``python -m repro.serve``): fingerprint-keyed session cache, request
  micro-batching onto lockstep multi-RHS solves, worker pool, latency SLO
  metrics and a stdlib JSON-over-HTTP front end;
* :mod:`repro.faults` — deterministic, seedable fault injection
  (``with faults.inject("gnn-nan-apply"): ...``) backing the chaos tests of
  the failure-hardening layer (breakdown taxonomy, degradation ladder,
  circuit breakers, deadlines).

Typical usage::

    from repro.mesh import random_domain_mesh
    from repro.problems import make_problem
    from repro.gnn import DSS, DSSConfig
    from repro.solvers import SolverConfig, prepare

    mesh = random_domain_mesh(radius=1.0, element_size=0.05)
    problem = make_problem("poisson", mesh=mesh)
    model = DSS(DSSConfig(num_iterations=10, latent_dim=10))  # train it first!
    session = prepare(problem, SolverConfig(preconditioner="ddm-gnn", subdomain_size=200), model=model)
    result = session.solve()          # setup is paid once per session,
    print(result.summary())           # further session.solve(b) calls amortise it
"""

from . import (
    core,
    ddm,
    experiments,
    faults,
    fem,
    gnn,
    krylov,
    mesh,
    nn,
    partition,
    problems,
    serve,
    solvers,
    timestepping,
    utils,
)

__version__ = "1.21.0"

__all__ = [
    "nn",
    "mesh",
    "fem",
    "problems",
    "partition",
    "ddm",
    "krylov",
    "gnn",
    "core",
    "solvers",
    "timestepping",
    "serve",
    "experiments",
    "faults",
    "utils",
    "__version__",
]
