"""P1 (linear Lagrange) finite-element assembly for second-order elliptic PDEs.

Assembles the sparse stiffness matrix (optionally weighted by a variable
diffusion coefficient κ), the convection and mass matrices and the load
vector on a triangular or tetrahedral :class:`~repro.mesh.mesh.SimplexMesh`,
the boundary terms needed for Neumann and Robin conditions on a triangular
one; and applies Dirichlet boundary conditions.  Only three pieces read the
dimension: the gradient kernel (:func:`gradient_operators`), the mesh's
``cell_measures`` formula and the load rule table.

Two Dirichlet elimination strategies are provided:

* ``"symmetric"`` (default): boundary rows *and* columns are eliminated and the
  boundary values are moved to the right-hand side.  The resulting matrix is
  symmetric positive definite, which is what the Conjugate Gradient method and
  the ASM theory require.  Boundary diagonal entries are set to 1 so the
  boundary values are reproduced exactly by the solve.
* ``"row"``: only boundary rows are replaced by identity rows; columns are
  kept.  This mirrors the paper's graph interpretation where "boundary nodes'
  edges point toward the interior of the graph" (Sec. III-B) and is useful for
  constructing the graph consumed by the DSS model.  The linear system has the
  same solution but is no longer symmetric.

The doctests below share one two-triangle mesh of the unit square::

    3 --- 2
    |  /  |
    0 --- 1
"""

from __future__ import annotations

from typing import Callable, Literal, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..mesh.mesh import SimplexMesh

__all__ = [
    "assemble_stiffness",
    "assemble_convection",
    "assemble_mass",
    "assemble_load",
    "assemble_boundary_mass",
    "assemble_boundary_load",
    "apply_dirichlet",
    "gradient_operators",
    "cell_centroids",
    "evaluate_on_cells",
]

ScalarField = Callable[..., np.ndarray]
#: a diffusion coefficient: constant, per-cell array, or callable κ(x, y[, z])
CoefficientLike = Union[float, np.ndarray, ScalarField]

#: the degree-2 load rule of each dimension in barycentric coordinates, weights summing to 1: the
#: three edge midpoints of a triangle, and the four (α, β, β, β) permutations with α + 3β = 1 on a tet
_LOAD_RULES = {
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]), np.full(3, 1.0 / 3.0)),
    3: (np.where(np.eye(4, dtype=bool), 0.5854101966249685, 0.1381966011250105), np.full(4, 0.25)),
}


def gradient_operators(mesh: SimplexMesh) -> Tuple[np.ndarray, np.ndarray]:
    """Return per-cell P1 shape-function gradients and (absolute) cell measures.

    The gradient of the hat function of local vertex ``i`` is constant over a
    cell.  ``grads`` has shape (T, d + 1, d) and ``measures`` shape (T,).
    The one per-dimension kernel of the assembly: a triangle's gradients have
    a closed form over its signed area; a tetrahedron's are the rows of its
    inverse edge matrix, with volumes from that matrix's determinant.

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> grads, areas = gradient_operators(mesh)
    >>> grads.shape, areas.tolist()
    ((2, 3, 2), [0.5, 0.5])
    >>> tet = SimplexMesh(np.vstack([np.zeros(3), np.eye(3)]), np.array([[0, 1, 2, 3]]))
    >>> grads, volumes = gradient_operators(tet)
    >>> grads[0, 1].tolist(), [float(round(v, 12)) for v in volumes]   # ∇λ_1 on the reference tet
    ([1.0, 0.0, 0.0], [0.166666666667])
    """
    p = mesh.nodes[mesh.cells]  # (T, d + 1, d)
    if mesh.dim == 2:
        signed = mesh.cell_measures
    else:
        edges = p[:, 1:] - p[:, :1]  # rows p_i - p_0; λ_1..λ_d gradients are the rows of its inverse transpose
        signed = np.linalg.det(edges) / 6.0
    measures = np.abs(signed)
    if np.any(measures < 1e-15):
        raise ValueError(f"mesh contains degenerate cells ({mesh.dim}D)")
    if mesh.dim == 2:
        x, y = p[..., 0], p[..., 1]
        # edge vectors opposite to each vertex
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        return np.stack([b, c], axis=2) / (2.0 * signed[:, None, None]), measures
    grads = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    return np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1), measures  # λ_0 = 1 - Σ λ_i


def cell_centroids(mesh: SimplexMesh) -> np.ndarray:
    """Centroids of all cells, shape (T, d).

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> np.round(cell_centroids(mesh), 3).tolist()
    [[0.667, 0.333], [0.333, 0.667]]
    """
    return mesh.nodes[mesh.cells].mean(axis=1)


def evaluate_on_cells(mesh: SimplexMesh, coefficient: CoefficientLike) -> np.ndarray:
    """Evaluate a coefficient as one value per cell (at the centroid).

    Accepts a scalar (broadcast), a length-T array (used as-is) or a callable
    ``κ(x, y[, z])`` (evaluated at the centroids — exact for piecewise-constant
    fields aligned with the mesh, O(h²)-accurate for smooth fields, which
    preserves the optimal P1 convergence rate).

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> evaluate_on_cells(mesh, 3.0).tolist()
    [3.0, 3.0]
    >>> evaluate_on_cells(mesh, lambda x, y: x + y).shape
    (2,)
    """
    if callable(coefficient):
        values = np.asarray(coefficient(*cell_centroids(mesh).T), dtype=np.float64)
    else:
        values = np.asarray(coefficient, dtype=np.float64)
    values = np.broadcast_to(values, (mesh.num_cells,)).copy()
    if values.size and float(values.min()) <= 0.0:
        raise ValueError("diffusion coefficient must be strictly positive on every cell")
    return values


def _scatter(mesh: SimplexMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum (T, d + 1, d + 1) element matrices into the global (N, N) CSR matrix."""
    cells = mesh.cells
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()  # i index repeated over j
    cols = np.tile(cells, (1, k)).ravel()       # j index tiled over i
    n = mesh.num_nodes
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def assemble_stiffness(
    mesh: SimplexMesh,
    diffusion: Optional[CoefficientLike] = None,
) -> sp.csr_matrix:
    """Assemble the P1 stiffness matrix ``K[i,j] = ∫ κ ∇φ_i · ∇φ_j``.

    With ``diffusion=None`` (the Poisson case) κ ≡ 1 and this reduces to the
    classic Laplace stiffness matrix.  ``diffusion`` may be a positive scalar,
    a per-cell array of κ values, or a callable ``κ(x, y[, z])`` evaluated at
    cell centroids (see :func:`evaluate_on_cells`).

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> K = assemble_stiffness(mesh)
    >>> K.shape, bool(abs(K.sum()) < 1e-12)   # rows sum to zero: K @ 1 = 0
    ((4, 4), True)
    >>> K2 = assemble_stiffness(mesh, diffusion=2.0)
    >>> bool(np.allclose(K2.toarray(), 2.0 * K.toarray()))
    True
    """
    grads, measures = gradient_operators(mesh)
    if diffusion is not None:
        weights = evaluate_on_cells(mesh, diffusion) * measures
    else:
        weights = measures
    return _scatter(mesh, np.einsum("tid,tjd,t->tij", grads, grads, weights))


def assemble_convection(
    mesh: SimplexMesh,
    velocity: Union[Sequence[float], np.ndarray, Callable[..., np.ndarray]],
) -> sp.csr_matrix:
    """Assemble the P1 convection matrix ``C[i,j] = ∫ φ_i (b · ∇φ_j)``.

    ``velocity`` is the advection field b: a constant d-vector, a per-cell
    (T, d) array, or a callable evaluated at cell centroids returning either
    the d components (each of shape (T,), i.e. a (d, T) stack — this
    convention wins the T == d ambiguity) or a (T, d) array of per-cell
    vectors.  With P1 elements ``b · ∇φ_j`` is constant per cell and
    ``∫_t φ_i = |t|/(d+1)``, so the local element matrix has d + 1 identical
    rows — the assembly is exact for piecewise-constant b.

    The result is **nonsymmetric**; adding it to a stiffness matrix yields
    the convection-diffusion operator ``-∇·(κ∇u) + b·∇u`` served by the
    ``gmres`` Krylov method (CG is not applicable).

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> C = assemble_convection(mesh, (1.0, 0.0))
    >>> C.shape, bool(np.allclose(C.toarray() @ np.ones(4), 0.0))  # C @ 1 = 0
    ((4, 4), True)
    >>> bool(np.allclose(C.toarray(), C.toarray().T))              # nonsymmetric
    False
    """
    grads, measures = gradient_operators(mesh)
    num_cells, d = mesh.num_cells, mesh.dim
    if callable(velocity):
        values = np.asarray(velocity(*cell_centroids(mesh).T), dtype=np.float64)
        if values.ndim == 1:
            b = np.broadcast_to(values, (num_cells, d))  # one constant vector
        elif values.shape == (d, num_cells):
            b = values.T  # documented component convention, wins when T == d
        elif values.shape == (num_cells, d):
            b = values
        else:
            raise ValueError(
                f"velocity callable must return {d} components of shape "
                f"({d}, {num_cells}) or per-cell vectors of shape "
                f"({num_cells}, {d}); got {values.shape}"
            )
    else:
        b = np.broadcast_to(np.asarray(velocity, dtype=np.float64), (num_cells, d))
    # (b · ∇φ_j) per cell and local column, constant over the cell
    directional = np.einsum("td,tjd->tj", b, grads)                      # (T, d + 1)
    local = (measures / (d + 1))[:, None, None] * directional[:, None, :]  # (T, d + 1, d + 1)
    return _scatter(mesh, np.broadcast_to(local, (num_cells, d + 1, d + 1)))


def assemble_mass(mesh: SimplexMesh, lumped: bool = False) -> sp.csr_matrix:
    """Assemble the P1 mass matrix ``M[i,j] = ∫ φ_i φ_j`` (optionally lumped).

    The exact local matrix is ``|t| (1 + δ_ij) / ((d+1)(d+2))``; the lumped
    variant puts ``|t| / (d+1)`` on each vertex.

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> float(round(assemble_mass(mesh).sum(), 12))   # total mass = domain area
    1.0
    >>> float(round(assemble_mass(mesh, lumped=True).sum(), 12))
    1.0
    """
    _, measures = gradient_operators(mesh)
    k = mesh.dim + 1
    if lumped:
        n = mesh.num_nodes
        rows = mesh.cells.ravel()
        return sp.csr_matrix((np.repeat(measures / k, k), (rows, rows)), shape=(n, n))
    local_ref = (np.ones((k, k)) + np.eye(k)) / (k * (k + 1))
    return _scatter(mesh, measures[:, None, None] * local_ref[None, :, :])


def assemble_load(mesh: SimplexMesh, source: ScalarField) -> np.ndarray:
    """Assemble the load vector ``b[i] = ∫ f φ_i`` with the degree-2 rule of the mesh's dimension.

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> b = assemble_load(mesh, lambda x, y: np.ones_like(x))
    >>> float(round(b.sum(), 12))                 # ∫ 1 dx over the unit square
    1.0
    """
    _, measures = gradient_operators(mesh)
    cells = mesh.cells
    vertices = mesh.nodes[cells]  # (T, d + 1, d)
    b = np.zeros(mesh.num_nodes)
    # evaluate the source at one quadrature point of every cell at a time
    for q_bary, q_w in zip(*_LOAD_RULES[mesh.dim]):
        pts = np.einsum("i,tid->td", q_bary, vertices)  # (T, d)
        f_vals = np.asarray(source(*pts.T), dtype=np.float64)
        # phi_i at this quadrature point equals the barycentric coordinate i
        contrib = (q_w * f_vals * measures)[:, None] * q_bary[None, :]  # (T, d + 1)
        np.add.at(b, cells.ravel(), contrib.ravel())
    return b


def require_boundary_edges(mesh: SimplexMesh, what: str) -> None:
    """Refuse a mesh whose boundary facets are not edges: Neumann and Robin data are 2D only."""
    if mesh.dim != 2:
        raise ValueError(f"{what} integrate over boundary edges, which only a 2D mesh has; got a {mesh.dim}D mesh")


def _boundary_edge_geometry(
    mesh: SimplexMesh, edges: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a boundary-edge subset and return (edges, midpoints, lengths)."""
    require_boundary_edges(mesh, "boundary terms")
    edges = mesh.boundary_facets if edges is None else np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2), np.zeros((0, 2)), np.zeros(0)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (E, 2)")
    p0 = mesh.nodes[edges[:, 0]]
    p1 = mesh.nodes[edges[:, 1]]
    lengths = np.linalg.norm(p1 - p0, axis=1)
    midpoints = 0.5 * (p0 + p1)
    return edges, midpoints, lengths


def assemble_boundary_mass(
    mesh: SimplexMesh,
    coefficient: CoefficientLike = 1.0,
    edges: Optional[np.ndarray] = None,
) -> sp.csr_matrix:
    """Assemble the boundary mass matrix ``B[i,j] = ∫_Γ α φ_i φ_j ds``.

    This is the matrix a Robin condition ``κ ∂u/∂n + α u = g`` adds to the
    stiffness.  ``Γ`` is the union of the given boundary ``edges`` (all of
    ``mesh.boundary_facets`` when None); ``coefficient`` is the Robin weight α,
    a scalar or a callable evaluated at edge midpoints.  Each 1-D line element
    of length ``L`` contributes the exact P1 local matrix ``α L/6 [[2,1],[1,2]]``.

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> B = assemble_boundary_mass(mesh)          # α = 1 on the whole boundary
    >>> float(round(B.sum(), 12))                 # ∫ 1 ds = perimeter
    4.0
    """
    edges, midpoints, lengths = _boundary_edge_geometry(mesh, edges)
    n = mesh.num_nodes
    if edges.shape[0] == 0:
        return sp.csr_matrix((n, n))
    if callable(coefficient):
        alpha = np.asarray(coefficient(midpoints[:, 0], midpoints[:, 1]), dtype=np.float64)
        alpha = np.broadcast_to(alpha, (edges.shape[0],))
    else:
        alpha = np.broadcast_to(np.asarray(coefficient, dtype=np.float64), (edges.shape[0],))
    scale = alpha * lengths / 6.0
    local = scale[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])[None, :, :]
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def assemble_boundary_load(
    mesh: SimplexMesh,
    flux: CoefficientLike,
    edges: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble the boundary load ``b[i] = ∫_Γ g φ_i ds`` (Neumann/Robin data).

    ``g`` is interpolated linearly on each edge from its endpoint values
    (exact for P1 data): an edge ``(a, b)`` of length ``L`` contributes
    ``L/6 (2 g_a + g_b)`` to node ``a`` and ``L/6 (g_a + 2 g_b)`` to ``b``.
    Scalar ``flux`` values are broadcast.

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> b = assemble_boundary_load(mesh, 1.0)     # g = 1 on the whole boundary
    >>> float(round(b.sum(), 12))                 # ∫ 1 ds = perimeter
    4.0
    """
    edges, _, lengths = _boundary_edge_geometry(mesh, edges)
    b = np.zeros(mesh.num_nodes)
    if edges.shape[0] == 0:
        return b
    pa, pb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    if callable(flux):
        ga = np.asarray(flux(pa[:, 0], pa[:, 1]), dtype=np.float64)
        gb = np.asarray(flux(pb[:, 0], pb[:, 1]), dtype=np.float64)
        ga = np.broadcast_to(ga, (edges.shape[0],))
        gb = np.broadcast_to(gb, (edges.shape[0],))
    else:
        ga = gb = np.broadcast_to(np.asarray(flux, dtype=np.float64), (edges.shape[0],))
    np.add.at(b, edges[:, 0], lengths / 6.0 * (2.0 * ga + gb))
    np.add.at(b, edges[:, 1], lengths / 6.0 * (ga + 2.0 * gb))
    return b


def apply_dirichlet(
    stiffness: sp.csr_matrix,
    load: np.ndarray,
    boundary_nodes: np.ndarray,
    boundary_values: np.ndarray,
    mode: Literal["symmetric", "row"] = "symmetric",
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Impose Dirichlet conditions ``u[boundary_nodes] = boundary_values``.

    Returns the modified ``(A, b)``; the input matrices are not mutated.

    >>> import numpy as np
    >>> from repro.mesh.mesh import SimplexMesh
    >>> mesh = SimplexMesh(
    ...     np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ...     np.array([[0, 1, 2], [0, 2, 3]]),
    ... )
    >>> K = assemble_stiffness(mesh)
    >>> b = assemble_load(mesh, lambda x, y: np.zeros_like(x))
    >>> nodes = mesh.boundary_nodes               # every node here is on ∂Ω
    >>> A, rhs = apply_dirichlet(K, b, nodes, np.arange(4, dtype=float))
    >>> rhs.tolist()                              # boundary values reproduced
    [0.0, 1.0, 2.0, 3.0]
    """
    boundary_nodes = np.asarray(boundary_nodes, dtype=np.int64)
    boundary_values = np.asarray(boundary_values, dtype=np.float64)
    if boundary_nodes.shape != boundary_values.shape:
        raise ValueError("boundary_nodes and boundary_values must have the same length")
    n = stiffness.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[boundary_nodes] = True

    b = load.astype(np.float64).copy()

    if mode == "symmetric":
        # move known boundary contributions to the RHS before zeroing columns
        g_full = np.zeros(n)
        g_full[boundary_nodes] = boundary_values
        b -= stiffness @ g_full
        # zero boundary rows and columns, unit diagonal, exact boundary values
        csr = stiffness.tocsr(copy=True)
        keep = sp.diags((~mask).astype(np.float64))
        A = keep @ csr @ keep
        A = (A + sp.diags(mask.astype(np.float64))).tocsr()
        b[boundary_nodes] = boundary_values  # interior rows were adjusted above
        return A, b

    if mode == "row":
        csr = stiffness.tocsr(copy=True).tolil()
        for node, value in zip(boundary_nodes, boundary_values):
            csr.rows[node] = [int(node)]
            csr.data[node] = [1.0]
            b[node] = value
        return csr.tocsr(), b

    raise ValueError(f"unknown Dirichlet mode '{mode}'")
