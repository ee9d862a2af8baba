import numpy as np
import pytest

from vielab import (
    DomainGeometry,
    build_boundary_mesh,
    build_volume_grid,
    reflections,
)


def winding_number_inside(vertices, point):
    """Independent oracle: angle-summation winding number."""
    v = np.asarray(vertices, dtype=float) - np.asarray(point, dtype=float)
    angles = np.arctan2(v[:, 1], v[:, 0])
    d = np.diff(np.append(angles, angles[0]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return abs(d.sum()) > np.pi  # 2*pi inside, 0 outside


class TestContains:
    def test_disc_center_inside(self, unit_disc):
        assert unit_disc.contains((0.0, 0.0))[0]

    def test_disc_far_point_outside(self, unit_disc):
        assert not unit_disc.contains((2.0, 0.0))[0]

    def test_boundary_counts_as_inside(self, unit_disc):
        assert unit_disc.contains((1.0, 0.0))[0]

    def test_square_near_corner_against_winding_oracle(self, unit_square):
        pts = [(0.999, 0.999), (1.001, 0.999), (-0.5, 0.2), (0.0, -1.2)]
        want = [winding_number_inside(unit_square.vertices, p) for p in pts]
        assert unit_square.contains(pts).tolist() == want

    def test_random_points_match_winding_oracle(self, rng):
        poly = DomainGeometry.polygon([[0, 0], [2, 0.3], [1.5, 1.8], [0.2, 1.1]])
        pts = rng.uniform(-0.5, 2.5, size=(300, 2))
        got = poly.contains(pts)
        want = np.array([winding_number_inside(poly.vertices, p) for p in pts])
        assert np.array_equal(got, want)

    def test_ellipse_axes(self):
        ell = DomainGeometry.ellipse((2.0, 0.5))
        assert ell.contains([(1.9, 0.0), (0.0, 0.6)]).tolist() == [True, False]


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            DomainGeometry.polygon([[0, 0], [0, 1], [1, 1], [1, 0]])

    def test_collinear_rejected(self):
        with pytest.raises(ValueError, match="collinear"):
            DomainGeometry.polygon([[0, 0], [1, 0], [2, 0], [1, 1]])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            DomainGeometry.polygon([[0, 0], [0, 0], [1, 1], [0, 1]])


class TestVolumeGrid:
    def test_square_margin_zero_all_16_centers_inside(self):
        sq = DomainGeometry.polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]], margin=0.0)
        grid = build_volume_grid(sq, 4)
        assert grid.n == 16

    def test_disc_area_ratio_against_monte_carlo(self, rng):
        # margin-free box: the fill ratio tends to the area ratio pi/4
        disc = DomainGeometry.disc(1.0, margin=0.0)
        grid = build_volume_grid(disc, 64)
        ratio = grid.n / np.prod(grid.shape)
        samples = rng.uniform(-1, 1, size=(200_000, 2))
        mc = np.mean(np.linalg.norm(samples, axis=1) <= 1.0)
        assert ratio == pytest.approx(np.pi / 4, rel=0.05)
        assert ratio == pytest.approx(mc, rel=0.05)

    def test_coarse_disc_has_enumerated_inclusions(self):
        disc = DomainGeometry.disc(1.0, margin=0.0)
        grid = build_volume_grid(disc, 4)
        centers = np.stack(np.meshgrid(*[-0.75 + 0.5 * np.arange(4)] * 2,
                                       indexing="ij"), axis=-1).reshape(-1, 2)
        expected = int(np.sum(np.linalg.norm(centers, axis=1) < 1.0))
        assert grid.n == expected >= 4

    def test_index_maps_are_a_bijection(self, disc_grid_32):
        grid = disc_grid_32
        assert sorted(grid.flat_index[grid.mask]) == list(range(grid.n))
        assert np.array_equal(grid.flat_index[tuple(grid.coords.T)], np.arange(grid.n))

    def test_all_centers_inside(self, disc_grid_32):
        assert disc_grid_32.domain.contains(disc_grid_32.centers).all()

    def test_included_area_converges_under_refinement(self, unit_disc):
        areas = []
        for n in (32, 64, 128):
            grid = build_volume_grid(unit_disc, n)
            areas.append(grid.n * grid.cell_volume)
        errs = [abs(a - np.pi) for a in areas]
        assert errs[2] < errs[0]

    def test_too_coarse_rejected(self, unit_disc):
        with pytest.raises(ValueError):
            build_volume_grid(unit_disc, 3)

    def test_empty_mask_rejected(self):
        tiny = DomainGeometry.disc(1e-6, margin=100.0)
        with pytest.raises(ValueError, match="no cell center"):
            build_volume_grid(tiny, 4)


def assert_valid_mesh(mesh):
    """Unit normals, positive weights and one normal per node."""
    assert mesh.normals.shape == mesh.nodes.shape
    assert np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0).max() <= 1e-12
    assert np.all(mesh.weights > 0)


class TestBoundaryMesh:
    def test_circle_weight_sum_is_perimeter(self, unit_disc):
        mesh = build_boundary_mesh(unit_disc, 16, grading=1.0)
        assert mesh.weights.sum() == pytest.approx(2 * np.pi, abs=1e-12)

    def test_square_weight_sum_is_perimeter(self, unit_square):
        mesh = build_boundary_mesh(unit_square, 64, grading=3.0)
        assert mesh.weights.sum() == pytest.approx(8.0, abs=1e-10)

    def test_circle_normals_are_radial(self, unit_disc):
        mesh = build_boundary_mesh(unit_disc, 32)
        assert np.allclose(mesh.normals, mesh.nodes, atol=1e-14)

    def test_normals_unit_and_outward(self, unit_square, unit_disc):
        for dom in (unit_square, unit_disc):
            mesh = build_boundary_mesh(dom, 64)
            assert_valid_mesh(mesh)
            eps = 1e-6 * dom.diameter
            assert not dom.contains(mesh.nodes + eps * mesh.normals).any()
            assert dom.contains(mesh.nodes - eps * mesh.normals).all()

    def test_polygon_nodes_avoid_vertices(self, unit_square):
        mesh = build_boundary_mesh(unit_square, 64, grading=3.0)
        for v in unit_square.vertices:
            assert np.linalg.norm(mesh.nodes - v, axis=1).min() > 1e-8

    def test_ellipse_perimeter_against_elliptic_integral(self):
        from scipy.special import ellipe
        a, b = 2.0, 1.0
        ell = DomainGeometry.ellipse((a, b))
        mesh = build_boundary_mesh(ell, 256)
        exact = 4 * a * ellipe(1 - (b / a) ** 2)
        assert mesh.weights.sum() == pytest.approx(exact, rel=1e-12)

    def test_ball_has_no_boundary_mesh(self):
        with pytest.raises(ValueError, match="2D shapes only"):
            build_boundary_mesh(DomainGeometry.ball(1.0), 64)

    def test_too_few_nodes_rejected(self, unit_disc):
        with pytest.raises(ValueError):
            build_boundary_mesh(unit_disc, 4)

    def test_graded_weights_cluster_at_corners(self, unit_square):
        mesh = build_boundary_mesh(unit_square, 64, grading=3.0)
        edge0 = mesh.weights[mesh.edge_index == 0]
        assert edge0[0] < edge0[len(edge0) // 2] / 5


class TestReflections:
    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_disc_grid_and_mesh_mirror_both_axes(self, unit_disc, n):
        grid = build_volume_grid(unit_disc, n)
        mesh = build_boundary_mesh(unit_disc, 4 * n)
        perms = reflections(grid, mesh)
        assert len(perms) == 3 and len(reflections(grid)) == 3
        points = np.vstack([grid.centers, mesh.nodes])
        for perm, image in zip(perms, _square_images(points)):
            assert np.array_equal(perm[perm], np.arange(len(points)))
            assert np.abs(points[perm] - image).max() <= 1e-12

    def test_diagonal_needs_a_square_transposable_grid(self, unit_disc):
        # the ellipse's grid shape is not square; a disc mesh with 4n + 2
        # nodes maps onto itself under both axes but not under x <-> y
        ellipse = DomainGeometry.ellipse((1.0, 0.6))
        assert len(reflections(build_volume_grid(ellipse, 24))) == 2
        grid = build_volume_grid(unit_disc, 16)
        mesh = build_boundary_mesh(unit_disc, 66)
        assert len(reflections(grid)) == 3 and len(reflections(mesh=mesh)) == 2
        assert len(reflections(grid, mesh)) == 2

    def test_ball_grid_mirrors_three_axes(self):
        grid = build_volume_grid(DomainGeometry.ball(1.0), 10)
        perms = reflections(grid)
        assert len(perms) == 3
        for axis, perm in enumerate(perms):
            mirrored = grid.centers.copy()
            mirrored[:, axis] *= -1.0
            assert np.abs(grid.centers[perm] - mirrored).max() <= 1e-12

    @pytest.mark.parametrize("n, shape", [(16, (16, 11)), (20, (20, 14)), (32, (32, 22)),
                                          (40, (40, 27)), (56, (56, 38)), (64, (64, 43))])
    def test_ellipse_grid_is_centred_on_both_axes(self, n, shape):
        # the short axis is covered by whole cells overhanging the box equally
        ellipse = DomainGeometry.ellipse((1.0, 0.6))
        grid = build_volume_grid(ellipse, n)
        assert grid.shape == shape
        perms = reflections(grid, build_boundary_mesh(ellipse, 4 * n))
        assert len(perms) == 2
        for axis, perm in enumerate(perms):
            mirrored = grid.centers.copy()
            mirrored[:, axis] *= -1.0
            assert np.abs(grid.centers[perm[:grid.n]] - mirrored).max() <= 1e-12

    def test_mesh_mirror_must_match_a_node(self, unit_disc):
        grid = build_volume_grid(unit_disc, 16)
        # an odd node count puts no node at angle pi: the x mirror misses
        assert len(reflections(grid, build_boundary_mesh(unit_disc, 63))) == 1

    @pytest.mark.parametrize("shape, m, tol", [
        ("unit_square", 64, 0.0), ("unit_square", 128, 0.0), ("unit_square", 256, 0.0),
        ("unit_disc", 64, 1e-12),
    ], ids=["square-64", "square-128", "square-256", "disc-64"])
    def test_mesh_alone_is_mirror_exact(self, request, shape, m, tol):
        # the graded square's nodes are placed so that mirrors are exact
        mesh = build_boundary_mesh(request.getfixturevalue(shape), m, grading=3.0)
        perms = reflections(mesh=mesh)
        assert len(perms) == 3
        for perm, image in zip(perms, _square_images(mesh.nodes)):
            assert np.abs(mesh.nodes[perm] - image).max() <= tol
            assert np.array_equal(mesh.weights[perm], mesh.weights)


def _square_images(points):
    """Points mirrored by x -> -x, by x <-> y and by y -> -y, the order in
    which the reflections of a square-symmetric grid or mesh are listed."""
    return points * [-1.0, 1.0], points[:, ::-1], points * [1.0, -1.0]
