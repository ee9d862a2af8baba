from types import SimpleNamespace

import numpy as np
import pytest

from conftest import traced_peak
from vielab import (
    DenseBudgetError,
    DomainGeometry,
    WaveParameters,
    assemble_K,
    build_boundary_mesh,
    build_volume_grid,
    double_layer_potential,
    jump_relation_check,
    linear_a,
    reflections,
    trace,
)
from vielab import volume
from vielab.boundary import _trig_resample_matrix, double_layer_matrix, trace_matrix
from vielab.special import greens_gradient


@pytest.fixture(scope="module")
def circle_256(unit_disc):
    return build_boundary_mesh(unit_disc, 256)


@pytest.fixture(scope="module")
def theta(circle_256):
    return np.arctan2(circle_256.nodes[:, 1], circle_256.nodes[:, 0])


class TestTrace:
    def test_constants_exact(self, disc_grid_32, circle_256):
        u = np.full(disc_grid_32.n, 2.5 - 1.0j)
        tr = trace(disc_grid_32, circle_256, u)
        assert np.allclose(tr, 2.5 - 1.0j, atol=1e-12)

    def test_linears_exact(self, disc_grid_32, circle_256):
        u = disc_grid_32.centers[:, 0] + 0j
        tr = trace(disc_grid_32, circle_256, u)
        assert np.abs(tr - circle_256.nodes[:, 0]).max() < 1e-10

    def test_smooth_field_accuracy(self, unit_disc):
        grid = build_volume_grid(unit_disc, 64)
        mesh = build_boundary_mesh(unit_disc, 256)
        u = np.sin(grid.centers[:, 0]) * np.cos(grid.centers[:, 1]) + 0j
        exact = np.sin(mesh.nodes[:, 0]) * np.cos(mesh.nodes[:, 1])
        assert np.abs(trace(grid, mesh, u) - exact).max() <= 5e-3

    @pytest.mark.parametrize("n", [16, 24, 32, 40, 48, 56])
    def test_trace_commutes_with_grid_reflections(self, unit_disc, n):
        # equidistant mirror-image cells are kept together in a stencil
        grid = build_volume_grid(unit_disc, n)
        mesh = build_boundary_mesh(unit_disc, 4 * n)
        t_mat = trace_matrix(grid, mesh).toarray()
        perms = reflections(grid, mesh)
        assert len(perms) == 3  # x, the diagonal x <-> y, y
        for perm in perms:
            cells, nodes = perm[:grid.n], perm[grid.n:] - grid.n
            assert np.abs(t_mat[nodes][:, cells] - t_mat).max() <= 1e-12 * np.abs(t_mat).max()

    def test_collinear_stencil_extended_to_full_rank(self):
        # the six cells nearest the node lie on one line, so their fit is rank
        # deficient: the stencil takes the seventh, off the line, and the fit
        # reproduces constants and linear fields at the node
        centers = np.vstack([np.column_stack([np.arange(12) + 0.5, np.zeros(12)]), [[6.0, 2.8]]])
        grid = SimpleNamespace(centers=centers, h=1.0, dimension=2, n=len(centers))
        mesh = SimpleNamespace(nodes=np.array([[6.0, 0.0]]), m=1)
        t_mat = trace_matrix(grid, mesh)
        assert t_mat.nnz == 7 and t_mat[0, 12] != 0
        assert np.allclose(t_mat @ np.ones(len(centers)), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(t_mat @ centers, mesh.nodes, rtol=0, atol=1e-12)

    def test_starved_neighborhood_rejected(self):
        # sliver triangle: nodes near the sharp tip see < 3 included cells
        spike = DomainGeometry.polygon([[0, 0], [4, 0], [0, 0.4]])
        grid = build_volume_grid(spike, 12)
        mesh = build_boundary_mesh(spike, 64)
        with pytest.raises(ValueError, match="fewer than 3"):
            trace(grid, mesh, np.zeros(grid.n, complex))


class TestDoubleLayerPotential:
    def test_zero_density(self, circle_256, params_k1):
        targets = np.array([[0.0, 0.0], [0.3, 0.2]])
        vals = double_layer_potential(circle_256, params_k1, np.zeros(256, complex), targets)
        assert np.all(vals == 0)

    def test_gauss_identity_anchor(self, circle_256, params_k0):
        # harmonic double layer of the unit density is a constant of
        # modulus one inside; its sign agrees with the jump relation
        targets = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, 0.6], [0.0, -0.85]])
        vals = double_layer_potential(circle_256, params_k0, np.ones(256, complex), targets)
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-8
        sign = np.sign(vals.real.mean())
        k_mat = assemble_K(circle_256, params_k0)
        jump_value = (-0.5 * np.ones(256) + k_mat @ np.ones(256))[0].real
        assert sign == np.sign(jump_value) == -1.0

    def test_interior_values_against_oversampled_quadrature(self, unit_disc, params_k1):
        mesh = build_boundary_mesh(unit_disc, 256)
        th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
        phi = np.exp(1j * th)
        targets = np.array([[0.2, 0.1], [0.5, -0.4], [-0.6, 0.2]])
        mine = double_layer_potential(mesh, params_k1, phi, targets)
        # brute-force trapezoid with 10^4 nodes
        tt = 2 * np.pi * np.arange(10_000) / 10_000
        nodes = np.stack([np.cos(tt), np.sin(tt)], axis=1)
        for i, x in enumerate(targets):
            grad = greens_gradient(params_k1, x[None, :] - nodes)
            kern = -np.sum(grad * nodes, axis=1)
            brute = (2 * np.pi / 10_000) * np.sum(kern * np.exp(1j * tt))
            assert abs(mine[i] - brute) < 1e-6

    def test_near_boundary_upgrade_improves(self, unit_disc, params_k0):
        mesh = build_boundary_mesh(unit_disc, 64)
        target = np.array([[0.995, 0.0]])  # much closer than the node spacing
        plain = double_layer_matrix(mesh, params_k0, target) @ np.ones(64)
        upgraded = double_layer_matrix(mesh, params_k0, target,
                                       near_distance=0.1) @ np.ones(64)
        assert abs(upgraded[0] + 1.0) < abs(plain[0] + 1.0)


class TestAssembleK:
    def test_harmonic_circle_constant_eigenvalue(self, circle_256, params_k0):
        k_mat = assemble_K(circle_256, params_k0)
        assert np.abs(k_mat @ np.ones(256) + 0.5).max() < 1e-10

    def test_harmonic_circle_annihilates_modes(self, circle_256, params_k0, theta):
        k_mat = assemble_K(circle_256, params_k0)
        for m in range(1, 9):
            assert np.abs(k_mat @ np.exp(1j * m * theta)).max() < 1e-10

    def test_helmholtz_eigenvalues_accumulate_at_half(self, circle_256, params_k1):
        from vielab import eigenvalues_dense
        vals, _ = eigenvalues_dense(0.5 * np.eye(256) - assemble_K(circle_256, params_k1))
        frac = np.mean(np.abs(vals - 0.5) < 0.05)
        assert frac >= 0.9

    def test_ellipse_gauss_identity(self, params_k0):
        # curvature diagonal validated by K 1 = -1/2 on a non-circular curve
        ell = DomainGeometry.ellipse((1.5, 0.8))
        mesh = build_boundary_mesh(ell, 256)
        k_mat = assemble_K(mesh, params_k0)
        assert np.abs(k_mat @ np.ones(256) + 0.5).max() < 1e-6

    def test_quadrature_convergence_on_trig_densities(self, unit_disc, params_k1):
        fine = build_boundary_mesh(unit_disc, 2048)
        thf = np.arctan2(fine.nodes[:, 1], fine.nodes[:, 0])
        errs = []
        for m in (32, 128):
            mesh = build_boundary_mesh(unit_disc, m)
            th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
            k_mat = assemble_K(mesh, params_k1)
            got = k_mat @ np.exp(2j * th)
            ref = []
            diag_limit = -1.0 / (4 * np.pi)  # continuous kernel limit, curvature 1
            for x, t in zip(mesh.nodes, th):
                sel = np.linalg.norm(fine.nodes - x, axis=1) > 1e-12
                grad = greens_gradient(params_k1, x[None, :] - fine.nodes[sel])
                kern = -np.sum(grad * fine.normals[sel], axis=1)
                val = np.sum(kern * fine.weights[sel] * np.exp(2j * thf[sel]))
                val += diag_limit * (2 * np.pi / fine.m) * np.exp(2j * t)
                ref.append(val)
            errs.append(np.abs(got - np.asarray(ref)).max())
        assert errs[1] < errs[0]

    def test_polygon_diagonal_zero(self, unit_square, params_k0):
        mesh = build_boundary_mesh(unit_square, 64)
        k_mat = assemble_K(mesh, params_k0)
        assert np.all(np.diag(k_mat) == 0)


class TestTrigResample:
    def test_owned_real_matrix(self):
        # the result owns its float64 values, which are the trigonometric
        # interpolants of the unit densities (an even m's Nyquist mode split evenly)
        for m in (24, 25):
            mf = 8 * m
            out = _trig_resample_matrix(m, mf)
            freqs = np.arange(-(m // 2), m // 2 + 1)
            weight = np.where(2 * np.abs(freqs) == m, 0.5, 1.0)
            shift = 2 * np.pi * (np.arange(mf)[:, None] / mf - np.arange(m)[None, :] / m)
            ref = (weight * np.cos(freqs * shift[..., None])).sum(axis=-1) / m
            assert np.abs(out - ref).max() <= 1e-14
            assert out.dtype == np.float64 and out.flags.owndata and out.flags.c_contiguous
            assert out.nbytes == 8 * mf * m

    @pytest.mark.parametrize("m", [64, 160, 400])
    def test_budget_estimate_tracks_peak(self, m, monkeypatch):
        # the estimate bounds the traced peak without overstating it by half
        mf = 8 * m
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 0)
        with pytest.raises(DenseBudgetError) as refused:
            _trig_resample_matrix(m, mf)
        monkeypatch.undo()
        peak, _ = traced_peak(lambda: _trig_resample_matrix(m, mf))
        assert peak <= refused.value.need <= 1.5 * peak


class TestJumpRelation:
    @pytest.mark.parametrize("k,mode,tol", [
        (0.0, 0, 1e-6),
        (0.0, 3, 1e-4),
        (1.0, 1, 1e-3),
    ])
    def test_circle_discrepancy(self, circle_256, theta, k, mode, tol):
        phi = np.exp(1j * mode * theta)
        d = jump_relation_check(circle_256, WaveParameters(k, 2), phi)
        assert d <= tol

    def test_discrepancy_decreases_under_refinement(self, unit_disc, params_k1):
        vals = []
        for m in (64, 256):
            mesh = build_boundary_mesh(unit_disc, m)
            th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
            vals.append(jump_relation_check(mesh, params_k1, np.exp(1j * th)))
        assert vals[1] < vals[0]

    def test_polygon_rejected(self, unit_square, params_k1):
        mesh = build_boundary_mesh(unit_square, 64)
        with pytest.raises(ValueError, match="smooth"):
            jump_relation_check(mesh, params_k1, np.ones(mesh.m, complex))


class TestCommutator:
    def test_compactness_signature_singular_values_decay(self, circle_256, params_k0):
        # alpha(x) = 2 + x1 on the circle: assembled commutator has fast
        # singular-value decay (s_10 / s_1 <= 0.2)
        cf = linear_a(circle_256.domain, 0.0, 3.0, np.array([1.0, 0.0]))
        alpha = cf.alpha(circle_256.nodes)
        k_mat = assemble_K(circle_256, params_k0)
        comm = k_mat @ np.diag(alpha) - np.diag(alpha) @ k_mat
        s = np.linalg.svd(comm, compute_uv=False)
        assert s[9] / s[0] <= 0.2
