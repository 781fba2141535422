"""Tests of the partitioning substrate (repro.partition)."""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import structured_rectangle_mesh
from repro.partition import (
    OverlappingDecomposition,
    Partition,
    analyse_partition,
    expand_overlap,
    partition_graph,
    partition_mesh,
    partition_mesh_target_size,
)
from repro.problems import available_problems, make_problem
from repro.solvers import SolverConfig
from repro.solvers.preconditioners import build_decomposition


class TestPartition:
    def test_every_node_assigned(self, random_mesh):
        part = partition_mesh(random_mesh, 6, rng=np.random.default_rng(0))
        assert part.assignment.min() >= 0
        assert part.assignment.max() < 6
        assert len(part.assignment) == random_mesh.num_nodes

    def test_sizes_sum_to_total(self, random_mesh):
        part = partition_mesh(random_mesh, 5, rng=np.random.default_rng(1))
        assert part.sizes().sum() == random_mesh.num_nodes

    def test_balance(self, random_mesh):
        part = partition_mesh(random_mesh, 6, rng=np.random.default_rng(2))
        assert part.imbalance() < 1.3

    def test_target_size_partitioning(self, random_mesh):
        part = partition_mesh_target_size(random_mesh, 80, rng=np.random.default_rng(3))
        expected_parts = int(round(random_mesh.num_nodes / 80))
        assert part.num_parts == max(expected_parts, 1)

    def test_single_partition(self, random_mesh):
        part = partition_mesh(random_mesh, 1)
        assert np.all(part.assignment == 0)
        assert part.edge_cut(random_mesh.adjacency) == 0

    def test_too_many_parts_rejected(self):
        mesh = structured_rectangle_mesh(2, 2)
        with pytest.raises(ValueError):
            partition_mesh(mesh, mesh.num_nodes + 1)

    def test_invalid_num_parts(self, random_mesh):
        with pytest.raises(ValueError):
            partition_mesh(random_mesh, 0)

    def test_partition_assignment_validation(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 1, 5]), num_parts=2)

    def test_edge_cut_reported(self, random_mesh):
        part = partition_mesh(random_mesh, 4, rng=np.random.default_rng(4))
        cut = part.edge_cut(random_mesh.adjacency)
        total = int(sp.triu(random_mesh.adjacency, k=1).nnz)
        assert 0 < cut < total

    def test_most_parts_connected(self, random_mesh):
        part = partition_mesh(random_mesh, 6, rng=np.random.default_rng(5))
        report = analyse_partition(random_mesh, part)
        assert report.connected_parts >= report.num_parts - 1

    def test_partition_reproducible_with_seed(self, random_mesh):
        a = partition_mesh(random_mesh, 4, rng=np.random.default_rng(9)).assignment
        b = partition_mesh(random_mesh, 4, rng=np.random.default_rng(9)).assignment
        assert np.array_equal(a, b)

    @given(st.integers(2, 8), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_partition_property_structured_grid(self, k, seed):
        """Any k-way partition of a grid covers all nodes with balanced parts."""
        mesh = structured_rectangle_mesh(8, 8)
        part = partition_mesh(mesh, k, rng=np.random.default_rng(seed))
        sizes = part.sizes()
        assert sizes.sum() == mesh.num_nodes
        assert sizes.min() >= 1
        assert part.imbalance() < 2.0


class TestOverlap:
    def test_expand_overlap_grows_set(self, random_mesh):
        nodes = np.arange(10)
        grown = expand_overlap(random_mesh.adjacency, nodes, overlap=2)
        assert len(grown) > len(nodes)
        assert np.all(np.isin(nodes, grown))

    def test_expand_overlap_zero_is_identity(self, random_mesh):
        nodes = np.array([3, 7, 11])
        assert np.array_equal(expand_overlap(random_mesh.adjacency, nodes, 0), np.sort(nodes))

    def test_expand_overlap_negative_rejected(self, random_mesh):
        with pytest.raises(ValueError):
            expand_overlap(random_mesh.adjacency, np.array([0]), -1)

    def test_larger_overlap_gives_larger_subdomains(self, random_mesh):
        part = partition_mesh_target_size(random_mesh, 80, rng=np.random.default_rng(0))
        d2 = OverlappingDecomposition(random_mesh, part, overlap=2)
        d4 = OverlappingDecomposition(random_mesh, part, overlap=4)
        assert np.all(d4.sizes() >= d2.sizes())
        assert d4.sizes().sum() > d2.sizes().sum()

    def test_decomposition_covers_all_nodes(self, small_decomposition):
        assert small_decomposition.covers_all_nodes()

    def test_multiplicity_at_least_one(self, small_decomposition):
        assert small_decomposition.multiplicity().min() >= 1

    def test_overlap_multiplicity_exceeds_one_somewhere(self, small_decomposition):
        """With overlap >= 1 some nodes must belong to several sub-domains."""
        assert small_decomposition.multiplicity().max() >= 2

    def test_core_nodes_subset_of_subdomain(self, small_decomposition):
        for core, full in zip(small_decomposition.core_nodes, small_decomposition.subdomain_nodes):
            assert np.all(np.isin(core, full))

    def test_one_subdomain_per_part(self, random_mesh):
        part = partition_mesh_target_size(random_mesh, 100, rng=np.random.default_rng(1))
        subs = OverlappingDecomposition(random_mesh, part, overlap=1).subdomain_nodes
        assert len(subs) == part.num_parts


class TestQualityReport:
    def test_report_dict_keys(self, random_mesh):
        part = partition_mesh(random_mesh, 4, rng=np.random.default_rng(2))
        report = analyse_partition(random_mesh, part).as_dict()
        for key in ("num_parts", "imbalance", "edge_cut", "connected_parts"):
            assert key in report

    def test_single_part_report(self, random_mesh):
        part = partition_mesh(random_mesh, 1)
        report = analyse_partition(random_mesh, part)
        assert report.edge_cut == 0
        assert report.num_parts == 1
        assert report.connected_parts == 1


# --------------------------------------------------------------------------- #
# the vectorised partitioner against the per-node loops it replaced
# --------------------------------------------------------------------------- #
def reference_partition(adjacency, num_parts, rng):
    """Seeding, growing and refinement as the per-node Python loops they were before the
    frontier helper (k full BFS sweeps, one neighbour at a time) — the reference the
    production partitioner is pinned against, on connected graphs."""
    indptr, indices, n = adjacency.indptr, adjacency.indices, adjacency.shape[0]

    def neighbours(u):
        return indices[indptr[u]:indptr[u + 1]]

    def bfs(source):
        dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        dist[source], queue, level = 0, [source], 0
        while queue:
            level += 1
            reached = []
            for u in queue:
                for v in neighbours(u):
                    if dist[v] > level:
                        dist[v] = level
                        reached.append(int(v))
            queue = reached
        return dist

    seeds = [int(rng.integers(n))]
    dist = bfs(seeds[0])
    while len(seeds) < num_parts:
        seeds.append(int(np.argmax(dist)))
        dist = np.minimum(dist, bfs(seeds[-1]))
    assignment = np.full(n, -1, dtype=np.int64)
    assignment[seeds] = np.arange(num_parts)  # distinct: the graph is connected and k <= n
    sizes = np.ones(num_parts, dtype=np.int64)
    frontiers = [[s] for s in seeds]
    active = set(range(num_parts))
    while active:  # the smallest part that still grows takes one wave
        p = min(active, key=lambda q: sizes[q])
        grabbed = []
        for u in frontiers[p]:
            for v in neighbours(u):
                if assignment[v] < 0:
                    assignment[v] = p
                    sizes[p] += 1
                    grabbed.append(int(v))
        frontiers[p] = grabbed
        if not grabbed:
            active.discard(p)
    max_size = int(np.ceil(1.10 * n / num_parts))
    for _ in range(3):
        moved = 0
        for u in [u for u in range(n) if np.any(assignment[neighbours(u)] != assignment[u])]:
            current = assignment[u]
            counts = np.bincount(assignment[neighbours(u)], minlength=num_parts)
            best = int(np.argmax(counts))
            if sizes[current] > 1 and best != current and counts[best] > counts[current] and sizes[best] < max_size:
                assignment[u] = best
                sizes[current] -= 1
                sizes[best] += 1
                moved += 1
        if not moved:
            return assignment
    return assignment


def reference_overlap(adjacency, nodes, overlap):
    """Overlap layers as full-length masks and one SpMV per layer."""
    selected = np.zeros(adjacency.shape[0], dtype=bool)
    selected[nodes] = True
    frontier = selected
    for _ in range(overlap):
        frontier = ((adjacency @ frontier.astype(np.float64)) > 0) & ~selected
        selected = selected | frontier
    return np.flatnonzero(selected)


#: every registered family (2D, 3D, transient, nonsymmetric) x how K is chosen
FAMILIES = [
    "convection-diffusion", "convection-diffusion-transient", "diffusion-channel",
    "diffusion-checkerboard", "diffusion-lognormal", "diffusion-mixed-bc", "diffusion-smooth",
    "diffusion3d-ball", "heat", "heat3d", "poisson", "poisson-robin", "poisson3d",
]
SIZING = [{"subdomain_size": 60}, {"num_subdomains": 5}]


def test_families_cover_the_registry():
    assert set(available_problems()) <= set(FAMILIES)


def assert_matches_reference(mesh, decomposition, seed):
    adjacency = mesh.adjacency
    expected = reference_partition(adjacency, decomposition.num_subdomains, np.random.default_rng(seed))
    assert np.array_equal(decomposition.partition.assignment, expected)
    for part, (core, nodes) in enumerate(zip(decomposition.core_nodes, decomposition.subdomain_nodes)):
        assert np.array_equal(core, np.flatnonzero(expected == part))
        assert np.array_equal(nodes, reference_overlap(adjacency, core, decomposition.overlap))


class TestMatchesReference:
    @pytest.mark.parametrize("sizing", SIZING, ids=lambda s: next(iter(s)))
    @pytest.mark.parametrize("draw", range(3))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_registry_decompositions_are_array_equal(self, family, draw, sizing):
        seed = 3 * FAMILIES.index(family) + draw  # a different mesh per family and draw
        size = {"target_nodes": 343} if family.endswith(("3d", "3d-ball")) else {"element_size": 0.1}
        problem = make_problem(family, rng=np.random.default_rng(seed), **size)
        for overlap in (0, 2, 4):
            config = SolverConfig(preconditioner="ddm-lu", overlap=overlap, seed=seed, **sizing)
            assert_matches_reference(problem.mesh, build_decomposition(problem, config), seed)

    def test_structured_grid(self):
        mesh = structured_rectangle_mesh(24, 24)
        partition = partition_mesh_target_size(mesh, 50, rng=np.random.default_rng(4))
        assert_matches_reference(mesh, OverlappingDecomposition(mesh, partition, overlap=2), 4)

    @pytest.mark.parametrize("num_parts", [2, 5])
    def test_disconnected_graph_assigns_every_node(self, num_parts):
        """Three components.  Seeds on a disconnected graph are documented as valid, not as the
        reference's: every component is seeded before any gets a second seed, parts never span
        components, and with fewer parts than components the leftovers join the smallest part."""
        block = structured_rectangle_mesh(5, 5).adjacency
        adjacency = sp.block_diag([block] * 3, format="csr")
        partition = partition_graph(adjacency, num_parts, rng=np.random.default_rng(0))
        assert partition.assignment.min() >= 0 and partition.sizes().min() >= 1
        component = np.repeat(np.arange(3), block.shape[0])
        if num_parts >= 3:
            spans = sp.csr_matrix((np.ones(len(component)), (partition.assignment, component))).toarray() > 0
            assert np.all(spans.sum(axis=1) == 1) and np.all(spans.sum(axis=0) >= 1)


def test_setup_stays_near_linear():
    """Not a stopwatch on a 25 ms op: a 40k-node grid cut into ~370 parts takes ~0.6 s with the
    frontier helper and more than 20 s with one Python BFS per seed, so a budget ten times the
    measured time fails a return to O(K n) interpreted loops and nothing a noisy runner does."""
    mesh = structured_rectangle_mesh(200, 200)
    mesh.adjacency  # not the partitioner's cost
    start = time.perf_counter()
    partition = partition_mesh_target_size(mesh, 110, rng=np.random.default_rng(0))
    decomposition = OverlappingDecomposition(mesh, partition, overlap=2)
    elapsed = time.perf_counter() - start
    assert decomposition.covers_all_nodes() and partition.num_parts == 367
    assert elapsed < 6.0, f"partition + overlap of {mesh.num_nodes} nodes took {elapsed:.1f} s"
