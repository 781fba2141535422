"""Tests of the geometry and meshing substrate (repro.mesh)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import triangulation
from repro.mesh import (
    ClosedCurve,
    TriangularMesh,
    circle_curve,
    disk_mesh,
    formula1_mesh,
    lshape_mesh,
    mesh_for_target_size,
    polygon_contains,
    random_boundary_curve,
    random_domain_mesh,
    resample_polygon,
    structured_rectangle_mesh,
    triangulate,
)


# --------------------------------------------------------------------------- #
# references: the all-pairs bodies polygon_contains and the boundary clearance
# had before the sorted-slice / k-d tree versions; the masks must stay equal
# --------------------------------------------------------------------------- #
def contains_every_pair(polygon, points):
    """Even-odd rule, every segment against every point: O(M * P)."""
    polygon = np.asarray(polygon, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    x1, y1 = polygon[:, 0], polygon[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for xa, ya, xb, yb in zip(x1, y1, x2, y2):
        crosses = ((ya > y) != (yb > y))
        if not np.any(crosses):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_intersect = xa + (y - ya) * (xb - xa) / (yb - ya)
        inside ^= crosses & (x < x_intersect)
    return inside


def clear_every_pair(points, polygon, clearance):
    """Distance to the closest vertex by chunked brute force, O(P * B), against the threshold."""
    out = np.empty(len(points))
    chunk = 4096
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        d = np.linalg.norm(block[:, None, :] - polygon[None, :, :], axis=2)
        out[start:start + chunk] = d.min(axis=1)
    return out > clearance


#: every shape factory, by the calls the suite, the examples and the ledger make
SHAPE_FACTORIES = {
    **{f"random-seed{seed}-r{radius}": (lambda seed=seed, radius=radius: random_domain_mesh(
        radius=radius, element_size=0.07, rng=np.random.default_rng(seed)))
       for seed in (0, 1, 2) for radius in (0.5, 1.4)},
    "ledger-operator": lambda: mesh_for_target_size(2400, element_size=0.07, rng=np.random.default_rng(0)),
    "formula1-holes": lambda: formula1_mesh(length=5.0, element_size=0.15),
    "formula1-no-holes": lambda: formula1_mesh(length=5.0, element_size=0.15, with_holes=False),
    "lshape": lambda: lshape_mesh(size=1.0, element_size=0.04),
    "disk": lambda: disk_mesh(radius=1.0, element_size=0.06),
}


# --------------------------------------------------------------------------- #
# curves
# --------------------------------------------------------------------------- #
class TestCurves:
    def test_closed_curve_sampling_shape(self):
        curve = circle_curve(radius=2.0, n_points=12)
        poly = curve.sample(points_per_segment=10)
        assert poly.shape == (120, 2)

    def test_circle_curve_radius(self):
        poly = circle_curve(radius=3.0).sample()
        radii = np.linalg.norm(poly, axis=1)
        assert np.all(np.abs(radii - 3.0) < 0.15)

    def test_closed_curve_needs_three_points(self):
        with pytest.raises(ValueError):
            ClosedCurve(np.zeros((2, 2))).sample()

    def test_random_boundary_reproducible(self):
        a = random_boundary_curve(rng=np.random.default_rng(5)).control_points
        b = random_boundary_curve(rng=np.random.default_rng(5)).control_points
        assert np.allclose(a, b)

    def test_random_boundary_radius_scaling(self):
        small = random_boundary_curve(radius=1.0, rng=np.random.default_rng(1)).control_points
        large = random_boundary_curve(radius=3.0, rng=np.random.default_rng(1)).control_points
        assert np.allclose(large, 3.0 * small)

    def test_polygon_contains_square(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        inside = polygon_contains(square, np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2]]))
        assert inside.tolist() == [True, False, False]

    @given(st.floats(0.2, 3.0), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_polygon_contains_circle_property(self, radius, seed):
        """Points sampled inside a disk are classified inside its polygonal boundary, and any
        query set — inside, outside, on the rows of the polygon's own vertices — gets the mask
        of the all-pairs reference."""
        rng = np.random.default_rng(seed)
        poly = circle_curve(radius=radius).sample()
        r = radius * 0.8 * np.sqrt(rng.uniform(0, 1, size=20))
        theta = rng.uniform(0, 2 * np.pi, size=20)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        assert polygon_contains(poly, pts).all()
        box = rng.uniform(-1.5 * radius, 1.5 * radius, size=(60, 2))
        vertex_rows = np.column_stack([rng.uniform(-1.5 * radius, 1.5 * radius, size=30), rng.choice(poly[:, 1], 30)])
        queries = rng.permutation(np.vstack([pts, box, vertex_rows, poly]))
        assert np.array_equal(polygon_contains(poly, queries), contains_every_pair(poly, queries))

    @pytest.mark.parametrize("polygon", [
        np.array([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]], dtype=float),  # horizontal segments
        random_boundary_curve(rng=np.random.default_rng(4)).sample(24),
        np.array([[0, 0], [2, 0], [2, 0], [1, 2], [1, 2], [0, 0.5]], dtype=float),  # repeated vertices
    ], ids=["lshape", "bezier", "degenerate"])
    def test_polygon_contains_equals_every_pair_on_edge_cases(self, polygon):
        """Rows through the polygon's own vertices (the half-open end of a segment's slice),
        horizontal segments, duplicate y, NaN coordinates, one query and none."""
        rng = np.random.default_rng(0)
        lo, hi = polygon.min(axis=0) - 0.25, polygon.max(axis=0) + 0.25
        xs = np.linspace(lo[0], hi[0], 23)
        grid = np.array([(x, y) for y in np.concatenate([np.unique(polygon[:, 1]), np.linspace(lo[1], hi[1], 9)])
                         for x in xs])
        nan = np.array([[np.nan, 0.25], [0.25, np.nan], [np.nan, np.nan], [np.inf, 0.25], [0.25, -np.inf]])
        queries = rng.permutation(np.vstack([grid, polygon, nan, rng.uniform(lo, hi, size=(50, 2))]))
        for subset in (queries, queries[:1], queries[:0], grid[7], nan):
            got = polygon_contains(polygon, subset)
            assert got.dtype == bool and np.array_equal(got, contains_every_pair(polygon, subset))
        assert not polygon_contains(polygon, nan).any()

    def test_resample_polygon_spacing(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        pts = resample_polygon(square, spacing=0.1)
        # perimeter 4 -> about 40 points
        assert 35 <= len(pts) <= 45


# --------------------------------------------------------------------------- #
# TriangularMesh data structure
# --------------------------------------------------------------------------- #
class TestTriangularMesh:
    def test_structured_mesh_counts(self):
        mesh = structured_rectangle_mesh(4, 3)
        assert mesh.num_nodes == 5 * 4
        assert mesh.num_triangles == 2 * 4 * 3

    def test_boundary_nodes_of_unit_square(self):
        mesh = structured_rectangle_mesh(4, 4)
        expected = 4 * 4  # perimeter nodes of a 5x5 grid
        assert len(mesh.boundary_nodes) == expected
        assert len(mesh.interior_nodes) == mesh.num_nodes - expected

    def test_boundary_and_interior_partition_nodes(self, random_mesh):
        union = np.union1d(random_mesh.boundary_nodes, random_mesh.interior_nodes)
        assert np.array_equal(union, np.arange(random_mesh.num_nodes))

    def test_adjacency_symmetric(self, random_mesh):
        adj = random_mesh.adjacency
        assert (adj != adj.T).nnz == 0

    def test_directed_edges_are_double_undirected(self, random_mesh):
        assert random_mesh.directed_edge_index.shape[1] == 2 * len(random_mesh.edges)

    def test_total_area_of_unit_square(self):
        mesh = structured_rectangle_mesh(6, 6)
        assert mesh.total_area == pytest.approx(1.0)

    def test_triangle_areas_positive_after_generation(self, random_mesh):
        assert np.all(random_mesh.triangle_areas > 0)

    def test_quality_metrics_range(self, random_mesh):
        q = random_mesh.quality()
        assert 0.0 < q["min_quality"] <= q["mean_quality"] <= 1.0 + 1e-12

    def test_submesh_roundtrip(self, random_mesh):
        nodes = np.arange(0, random_mesh.num_nodes, 2)
        sub, global_ids = random_mesh.submesh(nodes)
        assert np.array_equal(np.sort(global_ids), np.sort(np.asarray(nodes)))
        assert np.allclose(sub.nodes, random_mesh.nodes[global_ids])
        # every sub triangle must exist (as a set of global nodes) in the parent
        parent_sets = {frozenset(t) for t in random_mesh.triangles.tolist()}
        for tri in sub.triangles:
            assert frozenset(global_ids[tri].tolist()) in parent_sets

    def test_scaled_and_translated(self, unit_square_mesh):
        scaled = unit_square_mesh.scaled(2.0)
        assert scaled.total_area == pytest.approx(4.0 * unit_square_mesh.total_area)
        moved = unit_square_mesh.translated([1.0, -2.0])
        assert np.allclose(moved.nodes.mean(axis=0), unit_square_mesh.nodes.mean(axis=0) + [1.0, -2.0])

    def test_invalid_triangle_index_rejected(self):
        with pytest.raises(ValueError):
            TriangularMesh(np.zeros((3, 2)), np.array([[0, 1, 5]]))

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TriangularMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(ValueError):
            TriangularMesh(np.zeros((3, 2)), np.array([[0, 1]]))

    def test_node_neighbours(self):
        mesh = structured_rectangle_mesh(2, 2)
        centre = 4  # middle node of a 3x3 grid
        assert len(mesh.node_neighbours(centre)) >= 4


# --------------------------------------------------------------------------- #
# triangulation of domains
# --------------------------------------------------------------------------- #
class TestTriangulation:
    def test_disk_mesh_properties(self, small_disk_mesh):
        assert small_disk_mesh.num_nodes > 100
        # area close to pi
        assert abs(small_disk_mesh.total_area - np.pi) / np.pi < 0.05
        # boundary nodes approximately at radius 1
        radii = np.linalg.norm(small_disk_mesh.nodes[small_disk_mesh.boundary_nodes], axis=1)
        assert np.all(radii > 0.9)

    def test_random_domain_mesh_node_count_scales_with_radius(self):
        small = random_domain_mesh(radius=0.7, element_size=0.1, rng=np.random.default_rng(3))
        large = random_domain_mesh(radius=1.4, element_size=0.1, rng=np.random.default_rng(3))
        assert large.num_nodes > 2.5 * small.num_nodes

    def test_mesh_quality_reasonable(self, random_mesh):
        assert random_mesh.quality()["mean_quality"] > 0.7

    def test_lshape_mesh(self):
        mesh = lshape_mesh(size=1.0, element_size=0.1)
        assert abs(mesh.total_area - 0.75) < 0.05

    def test_formula1_mesh_with_holes_has_smaller_area(self):
        with_holes = formula1_mesh(length=5.0, element_size=0.15, with_holes=True)
        without = formula1_mesh(length=5.0, element_size=0.15, with_holes=False)
        assert with_holes.total_area < without.total_area
        assert with_holes.num_nodes > 100

    def test_mesh_for_target_size(self):
        mesh = mesh_for_target_size(800, element_size=0.08, rng=np.random.default_rng(2))
        assert 400 <= mesh.num_nodes <= 1400

    def test_element_size_respected(self):
        mesh = disk_mesh(radius=1.0, element_size=0.2)
        assert 0.1 < mesh.element_size < 0.3

    def test_invalid_element_size_raises(self):
        with pytest.raises(ValueError):
            triangulate(circle_curve(radius=1.0), element_size=0.0)

    def test_structured_mesh_validates_arguments(self):
        with pytest.raises(ValueError):
            structured_rectangle_mesh(0, 3)


# --------------------------------------------------------------------------- #
# near-linear generation: same masks, same meshes, no all-pairs temporaries
# --------------------------------------------------------------------------- #
class TestMeshGenerationEquality:
    @pytest.mark.parametrize("shape", sorted(SHAPE_FACTORIES))
    def test_masks_and_meshes_equal_the_every_pair_references(self, shape, monkeypatch):
        """Each inside test (lattice, centroids, once more per hole) and each clearance mask a
        factory asks for equals the reference's, and the mesh built *from* the references is the
        mesh the factory builds: nodes, triangles and dtypes."""
        mesh = SHAPE_FACTORIES[shape]()
        fast_contains, fast_clear = polygon_contains, triangulation._clear_of_polygon
        calls = {"contains": 0, "clear": 0}

        def checked_contains(polygon, points):
            calls["contains"] += 1
            expected = contains_every_pair(polygon, points)
            assert np.array_equal(fast_contains(polygon, points), expected)
            return expected

        def checked_clear(points, polygon, clearance):
            calls["clear"] += 1
            expected = clear_every_pair(points, polygon, clearance)
            assert np.array_equal(fast_clear(points, polygon, clearance), expected)
            return expected

        monkeypatch.setattr(triangulation, "polygon_contains", checked_contains)
        monkeypatch.setattr(triangulation, "_clear_of_polygon", checked_clear)
        reference = SHAPE_FACTORIES[shape]()
        assert calls["contains"] >= 2 and calls["clear"] >= 1
        assert np.array_equal(mesh.nodes, reference.nodes) and mesh.nodes.dtype == reference.nodes.dtype
        assert np.array_equal(mesh.triangles, reference.triangles) and mesh.triangles.dtype == reference.triangles.dtype

    def test_clearance_near_the_threshold_is_decided_by_every_pair(self, monkeypatch):
        """The k-d tree may name, of two near-tied vertices, the one a few ulps farther.  Here it
        always names vertex 0 while vertex 1 is 2**-51 closer and the threshold lies between the
        two distances: only the exact re-evaluation of the 1e-9 band gives the all-pairs mask."""
        polygon = np.array([[0.0, 0.0], [2.0 - 2.0 ** -51, 0.0], [1.0, 40.0]])
        clearance = 1.0 - 2.0 ** -52
        points = np.array([[1.0, 0.0],     # 1.0 from vertex 0, 1 - 2**-51 from vertex 1: in the band, not clear
                           [1.0, 2e-5],    # 1 + 2e-10: in the band, clear
                           [1.0, 1e-3],    # 1 + 5e-7: out of the band, clear
                           [0.5, 0.0]])    # out of the band, not clear
        expected = clear_every_pair(points, polygon, clearance)
        assert expected.tolist() == [False, True, True, False]

        class NamesVertexZero:
            def __init__(self, data):
                pass

            def query(self, x):
                return None, np.zeros(len(x), dtype=np.intp)

        exact, seen = triangulation._min_distance_to_polygon, []
        monkeypatch.setattr(triangulation, "cKDTree", NamesVertexZero)
        monkeypatch.setattr(triangulation, "_min_distance_to_polygon",
                            lambda pts, poly: seen.append(pts.copy()) or exact(pts, poly))
        assert np.array_equal(triangulation._clear_of_polygon(points, polygon, clearance), expected)
        assert len(seen) == 1 and np.array_equal(seen[0], points[:2])  # the band, and only the band
        monkeypatch.undo()
        assert np.array_equal(triangulation._clear_of_polygon(points, polygon, clearance), expected)

    def test_generation_allocates_linearly(self):
        """No stopwatch: the numpy high-water mark of one ``triangulate`` at n ~ 20k is 73 times
        the 8 P bytes of one float per lattice point (P = 25,950; the Delaunay gathers and the
        smoothing matrices, the same multiple at n ~ 5k).  The bound is twice that.  An all-pairs
        clearance — (4096, B, 2) float blocks against B = 466 boundary vertices — peaks at 519
        times, and so would any inside test that forms its (segment, point) pairs at once."""
        curve, h = circle_curve(radius=3.71), 0.05
        boundary = resample_polygon(curve.sample(points_per_segment=24), h)
        lattice_points = len(triangulation._hex_lattice(boundary.min(axis=0), boundary.max(axis=0), h))
        tracemalloc.start()
        try:
            mesh = triangulate(curve, element_size=h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 19_000 < mesh.num_nodes < 21_000
        assert peak < 150 * 8 * lattice_points, f"{peak / (8 * lattice_points):.0f} x 8 P bytes"
