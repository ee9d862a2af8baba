import numpy as np
import pytest

from vielab import (
    DomainGeometry,
    WaveParameters,
    build_volume_grid,
    constant_a,
    extend_solution,
    gmres_solve,
    greens_value,
    incident_plane_wave,
    incident_point_source,
    mie_reference_disc,
)
from vielab.scattering import _log_derivative_j, plane_wave_function, point_source_function
from vielab.volume import discrete_laplacian, identity_minus_A, mirror_half


@pytest.fixture(scope="module")
def mie_a2(params_k1):
    return mie_reference_disc(1.0, params_k1, 2.0, 2.0)


class TestIncidentFields:
    def test_plane_wave_static_limit(self, disc_grid_32):
        u = incident_plane_wave(disc_grid_32, WaveParameters(0.0, 2), (1.0, 0.0))
        assert np.all(u == 1.0)

    def test_plane_wave_phase(self, unit_disc):
        # e^{i k x} = -1 at x = pi/k along the direction
        k = 4.0
        grid = build_volume_grid(unit_disc, 64)
        u = incident_plane_wave(grid, WaveParameters(k, 2), (1.0, 0.0))
        j = int(np.argmin(np.abs(grid.centers[:, 0] - np.pi / k)
                          + np.abs(grid.centers[:, 1])))
        expected = np.exp(1j * k * grid.centers[j, 0])
        assert u[j] == pytest.approx(expected, abs=1e-14)
        assert expected.real < -0.99

    def test_plane_wave_discrete_helmholtz_residual_decays(self, unit_disc, params_k1):
        residuals = []
        for n in (32, 64, 128):
            grid = build_volume_grid(unit_disc, n)
            u = incident_plane_wave(grid, params_k1, (1.0, 0.0))
            lap, interior = discrete_laplacian(grid, u)
            res = lap[interior] + params_k1.k**2 * u[interior]
            residuals.append(np.abs(res).max())
        assert residuals[0] > residuals[1] > residuals[2]
        # second-order stencil: halving h shrinks the residual ~4x
        assert residuals[1] / residuals[2] > 3.0

    def test_non_unit_direction_rejected(self, disc_grid_32, params_k1):
        with pytest.raises(ValueError, match="unit"):
            incident_plane_wave(disc_grid_32, params_k1, (1.0, 1.0))

    def test_point_source_matches_kernel(self, disc_grid_32, params_k1):
        x0 = np.array([2.5, 0.3])
        u = incident_point_source(disc_grid_32, params_k1, x0)
        r = np.linalg.norm(disc_grid_32.centers - x0, axis=1)
        assert np.array_equal(u, greens_value(params_k1, r))

    def test_point_source_3d_decay(self):
        ball = DomainGeometry.ball(1.0)
        grid = build_volume_grid(ball, 12)
        p = WaveParameters(0.0, 3)
        x0 = np.array([3.0, 0.0, 0.0])
        u = incident_point_source(grid, p, x0)
        r = np.linalg.norm(grid.centers - x0, axis=1)
        near = int(np.argmin(np.abs(r - 2.0)))
        farther = int(np.argmin(np.abs(r - 4.0)))
        ratio = abs(u[farther]) / abs(u[near])
        assert ratio == pytest.approx((r[near] / r[farther]), rel=1e-10)

    def test_interior_source_rejected(self, disc_grid_32, params_k1):
        with pytest.raises(ValueError, match="outside"):
            incident_point_source(disc_grid_32, params_k1, np.array([0.2, 0.0]))


class TestGmres:
    def test_identity_converges_in_one_iteration(self, rng):
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        x, info = gmres_solve(lambda v: v, b, tol=1e-10)
        assert info.converged and info.iterations == 1
        assert np.allclose(x, b, atol=1e-10)

    def test_zero_contrast_returns_incident(self, disc_grid_32, params_k1):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 1.0)
        u_inc = incident_plane_wave(disc_grid_32, params_k1, (1.0, 0.0))
        u, info = gmres_solve(identity_minus_A(disc_grid_32, params_k1, cf),
                              u_inc, tol=1e-10)
        assert info.iterations == 1
        assert np.allclose(u, u_inc, atol=1e-10)

    def test_matches_dense_direct_solve(self, unit_disc, params_k1):
        from vielab import assemble_A_dense
        grid = build_volume_grid(unit_disc, 24)
        cf = constant_a(unit_disc, params_k1.k, 2.0)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        u_it, info = gmres_solve(identity_minus_A(grid, params_k1, cf),
                                 u_inc, tol=1e-8)
        assert info.converged
        u_direct = np.linalg.solve(np.eye(grid.n) - assemble_A_dense(grid, params_k1, cf), u_inc)
        assert np.linalg.norm(u_it - u_direct) / np.linalg.norm(u_direct) < 1e-6

    def test_history_recorded_and_decreasing_overall(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 32)
        cf = constant_a(unit_disc, params_k1.k, 2.0)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        _, info = gmres_solve(identity_minus_A(grid, params_k1, cf),
                              u_inc, tol=1e-8)
        assert len(info.history) == info.iterations
        assert info.history[-1] <= 1e-8

    def test_stagnation_reported_distinctly(self):
        # a map that zeroes a component: the residual cannot improve
        def stuck(v):
            w = v.copy()
            w[0] = 0.0
            return w
        b = np.zeros(20, dtype=complex)
        b[0] = 1.0
        _, info = gmres_solve(stuck, b, tol=1e-10, restart=10, maxiter=500)
        assert not info.converged and info.reason == "stagnation"

    def test_maxiter_reported(self, rng):
        m = np.diag(np.linspace(1.0, 1e4, 60)).astype(complex)
        m += 0.5 * np.triu(rng.standard_normal((60, 60)), 1)
        b = rng.standard_normal(60) + 0j
        _, info = gmres_solve(lambda v: m @ v, b, tol=1e-14, restart=10, maxiter=12)
        assert not info.converged and info.reason == "maxiter"

    @pytest.mark.parametrize("maxiter", [400, 25])
    def test_one_residual_per_restart(self, unit_disc, maxiter):
        # each cycle's closing residual opens the next: the applier runs once
        # per iteration and once per cycle (the zero initial guess's residual
        # is the right-hand side, taken without a call)
        params = WaveParameters(4.0, 2)
        grid = build_volume_grid(unit_disc, 24)
        applier = identity_minus_A(grid, params, constant_a(unit_disc, params.k, 3.0))
        calls = []

        def counted(v):
            calls.append(np.array(v, copy=True))
            return applier(v)

        u_inc = incident_plane_wave(grid, params, (1.0, 0.0))
        _, info = gmres_solve(counted, u_inc, tol=1e-12, restart=10, maxiter=maxiter)
        assert info.reason == ("converged" if maxiter == 400 else "maxiter")
        cycles = -(-info.iterations // 10)
        assert cycles >= 3
        assert len(calls) == info.iterations + cycles
        assert not any(np.array_equal(x, y) for x, y in zip(calls, calls[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gmres_solve(lambda v: v, np.ones(4, complex), tol=2.0)
        with pytest.raises(ValueError):
            gmres_solve(lambda v: v, np.ones(4, complex), restart=5)

    def test_iteration_growth_toward_breakdown(self, unit_disc, params_k1):
        # iterations grow monotonically as the coefficient approaches -1
        from vielab import (assemble_coupled, build_boundary_mesh, coupled_blocks,
                            quadrature_weighted_matrix)
        from vielab.boundary import trace
        grid = build_volume_grid(unit_disc, 32)
        mesh = build_boundary_mesh(unit_disc, 128)
        blocks = coupled_blocks(grid, mesh, params_k1, "nystrom")
        iters = []
        for a in (-0.5, -0.8, -0.9):
            cf = constant_a(unit_disc, params_k1.k, a)
            mat = quadrature_weighted_matrix(assemble_coupled(blocks, cf), grid, mesh)
            scale = np.sqrt(np.concatenate([np.full(grid.n, grid.cell_volume),
                                            mesh.weights]))
            u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
            rhs = scale * np.concatenate([u_inc, trace(grid, mesh, u_inc)])
            _, info = gmres_solve(lambda v: mat @ v, rhs, tol=1e-8)
            assert info.converged
            iters.append(info.iterations)
        assert iters[0] < iters[1] < iters[2]


class TestMixedPrecision:
    """Arnoldi matvecs in complex64 after the first restart, every residual in
    complex128, on the disc with k = 4, n = 24, a = 3."""

    @pytest.fixture()
    def system(self, unit_disc):
        params = WaveParameters(4.0, 2)
        grid = build_volume_grid(unit_disc, 24)
        cf = constant_a(unit_disc, params.k, 3.0)
        return grid, params, cf, incident_plane_wave(grid, params, (1.0, 0.0))

    @staticmethod
    def recorded_solve(system, restart):
        grid, params, cf, u_inc = system
        applier = identity_minus_A(grid, params, cf)
        dtypes = []

        def recording(v):
            dtypes.append(np.asarray(v).dtype)
            return applier(v)

        x, info = gmres_solve(recording, u_inc, tol=1e-12, restart=restart)
        assert info.converged
        return x, info, dtypes

    def test_one_cycle_solve_stays_double(self, system):
        _, info, dtypes = self.recorded_solve(system, restart=200)
        assert info.iterations < 200  # measured 28
        assert set(dtypes) == {np.dtype(np.complex128)}

    def test_later_cycles_pass_complex64(self, system):
        _, info, dtypes = self.recorded_solve(system, restart=10)
        # cycle 1 and every closing residual in complex128, the rest complex64
        expected, left = [], info.iterations
        while left:
            inner = min(10, left)
            expected += [np.complex64 if expected else np.complex128] * inner + [np.complex128]
            left -= inner
        assert len(expected) > 30  # measured 53 iterations: 16 double, 43 single calls
        assert dtypes == [np.dtype(t) for t in expected]

    def test_double_residual_decides_convergence(self, system):
        grid, params, cf, u_inc = system
        x, info, _ = self.recorded_solve(system, restart=10)
        recomputed = np.linalg.norm(u_inc - identity_minus_A(grid, params, cf)(x))
        assert info.residual == recomputed / np.linalg.norm(u_inc)
        assert info.residual <= 1e-12  # measured 8.7e-13

    def test_agrees_with_lu_and_one_cycle_solves(self, system):
        from vielab import assemble_A_dense
        grid, params, cf, u_inc = system
        x, _, _ = self.recorded_solve(system, restart=10)
        x_lu = np.linalg.solve(np.eye(grid.n) - assemble_A_dense(grid, params, cf), u_inc)
        x_one, _, _ = self.recorded_solve(system, restart=200)
        # measured 1.5e-12 and 1.6e-12
        assert np.linalg.norm(x - x_lu) <= 1e-11 * np.linalg.norm(x_lu)
        assert np.linalg.norm(x - x_one) <= 1e-11 * np.linalg.norm(x_one)


class TestMirroredSolve:
    """GMRES on the kept half of a mirror-symmetric system (k = 4, a = 3)
    takes the full solve's iterates: each kept cell stands for 2^r cells."""

    @pytest.mark.parametrize("domain, n, direction, even", [
        (DomainGeometry.disc(1.0), 32, (1.0, 0.0), (1,)),
        (DomainGeometry.ball(1.0), 12, (0.0, 0.0, 1.0), (0, 1)),
    ], ids=["disc", "ball"])
    def test_same_iterations_and_field_as_full_solve(self, domain, n, direction, even):
        params = WaveParameters(4.0, domain.dimension)
        grid = build_volume_grid(domain, n)
        cf = constant_a(domain, params.k, 3.0, k2_inside=20.0)
        u_inc = incident_plane_wave(grid, params, direction)
        mirror = mirror_half(grid, cf, u_inc)
        assert mirror.even == even
        x_full, full = gmres_solve(identity_minus_A(grid, params, cf), u_inc,
                                   tol=1e-10, restart=10)
        x_half, half = gmres_solve(identity_minus_A(grid, params, cf, mirror),
                                   u_inc[mirror.kept], tol=1e-10, restart=10)
        assert full.converged and full.iterations > 10
        assert (half.iterations, half.reason) == (full.iterations, full.reason)
        # the Arnoldi estimates agree to single precision's rounding after the
        # first restart (measured 1.2e-4 and 9.6e-5 relative), the fields to 5.4e-14
        assert np.allclose(half.history, full.history, rtol=1e-3, atol=0)
        assert np.linalg.norm(x_half[mirror.unfold] - x_full) <= 1e-10 * np.linalg.norm(x_full)


class TestMieSeries:
    def test_no_contrast_total_equals_incident(self, params_k1, rng):
        mie = mie_reference_disc(1.0, params_k1, 1.0, 1.0)
        pts = rng.uniform(-2, 2, size=(100, 2))
        total = mie.total_field(pts)
        incident = np.exp(1j * params_k1.k * pts[:, 0])
        assert np.abs(total - incident).max() < 1e-12

    def test_transmission_conditions(self, mie_a2):
        jump_u, jump_flux = mie_a2.transmission_residual(64)
        assert jump_u <= 1e-10 and jump_flux <= 1e-10

    def test_energy_balance(self, mie_a2):
        assert mie_a2.energy_balance() <= 1e-8

    def test_rotated_direction_consistency(self, params_k1):
        d = np.array([np.cos(0.7), np.sin(0.7)])
        mie_rot = mie_reference_disc(1.0, params_k1, 2.0, 2.0, direction=d)
        mie_ref = mie_reference_disc(1.0, params_k1, 2.0, 2.0)
        c, s = d
        rot = np.array([[c, -s], [s, c]])
        pts = np.array([[0.3, 0.1], [1.5, -0.2], [0.0, 0.9]])
        assert np.allclose(mie_rot.total_field(pts @ rot.T), mie_ref.total_field(pts),
                           atol=1e-12)

    @pytest.mark.parametrize("k, truncated", [(195.0, True), (150.0, False)])
    def test_order_cap_flags_truncation(self, k, truncated, caplog):
        # a = 2, k_in^2 = 2 k^2: interior wavenumber k; 150 converges in 198 orders
        mie = mie_reference_disc(1.0, WaveParameters(k, 2), 2.0, 2.0 * k * k)
        assert mie.truncated is truncated
        assert ("truncated" in caplog.text) is truncated
        points = np.array([[0.5, 0.0], [0.0, -1.5]])
        if truncated:
            with pytest.raises(ValueError, match="truncated"):
                mie.total_field(points)
        else:
            assert np.all(np.isfinite(mie.total_field(points)))

    def test_underflowing_interior_modes_do_not_raise(self):
        # kappa R = 1 with 203 orders: J_m(kappa R) underflows at the top modes
        mie = mie_reference_disc(1.0, WaveParameters(195.0, 2), 2.0, 2.0)
        assert mie.truncated
        assert np.all(np.isfinite(mie.b_coeffs)) and np.all(np.isfinite(mie.c_coeffs))
        assert mie.c_coeffs[0] == mie.c_coeffs[-1] == 0
        with pytest.raises(ValueError, match="not a field oracle"):
            mie.total_field(np.array([[0.5, 0.0]]))

    @pytest.mark.parametrize("m, z", [(5, 1.0), (-60, 1.0), (30, 10 + 2j), (8, 20.0)])
    def test_log_derivative_matches_scipy(self, m, z):
        from scipy import special as sp
        ref = sp.jvp(m, z) / sp.jv(m, z)
        assert abs(_log_derivative_j(m, z) - ref) <= 1e-12 * abs(ref)

    def test_zero_interior_coefficient_rejected(self, params_k1):
        with pytest.raises(ValueError, match="nonzero"):
            mie_reference_disc(1.0, params_k1, 0.0, 1.0)

    def test_vie_agreement(self, unit_disc, params_k1, mie_a2):
        grid = build_volume_grid(unit_disc, 64)
        cf = constant_a(unit_disc, params_k1.k, 2.0, k2_inside=2.0)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        u, info = gmres_solve(identity_minus_A(grid, params_k1, cf),
                              u_inc, tol=1e-8)
        assert info.converged
        ref = mie_a2.total_field(grid.centers)
        assert np.linalg.norm(u - ref) / np.linalg.norm(ref) <= 0.02


class TestExtension:
    def test_zero_contrast_extension_is_incident(self, disc_grid_32, params_k1):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 1.0)
        u = incident_plane_wave(disc_grid_32, params_k1, (1.0, 0.0))
        targets = np.array([[2.0, 0.0], [0.0, -3.0]])
        vals = extend_solution(disc_grid_32, params_k1, cf, u, targets,
                               plane_wave_function(params_k1, (1.0, 0.0)))
        assert np.allclose(vals, np.exp(1j * targets[:, 0]), atol=1e-14)

    def test_interior_targets_rejected(self, disc_grid_32, params_k1):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 2.0)
        with pytest.raises(ValueError, match="outside"):
            extend_solution(disc_grid_32, params_k1, cf,
                            np.zeros(disc_grid_32.n, complex),
                            np.array([[0.0, 0.0]]),
                            plane_wave_function(params_k1, (1.0, 0.0)))

    def test_extension_matches_series_oracle(self, unit_disc, params_k1, mie_a2):
        grid = build_volume_grid(unit_disc, 64)
        cf = constant_a(unit_disc, params_k1.k, 2.0, k2_inside=2.0)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        u, _ = gmres_solve(identity_minus_A(grid, params_k1, cf), u_inc, tol=1e-8)
        th = 2 * np.pi * np.arange(16) / 16
        targets = 2.0 * np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = extend_solution(grid, params_k1, cf, u, targets,
                               plane_wave_function(params_k1, (1.0, 0.0)))
        ref = mie_a2.total_field(targets)
        assert np.abs(vals - ref).max() / np.abs(ref).max() <= 0.02

    def test_far_field_decay_rate(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 64)
        cf = constant_a(unit_disc, params_k1.k, 2.0, k2_inside=2.0)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        u, _ = gmres_solve(identity_minus_A(grid, params_k1, cf), u_inc, tol=1e-8)
        th = 2 * np.pi * np.arange(32) / 32
        rms = {}
        for rho in (4.0, 8.0):
            targets = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
            vals = extend_solution(grid, params_k1, cf, u, targets,
                                   plane_wave_function(params_k1, (1.0, 0.0)))
            rms[rho] = np.sqrt(np.mean(np.abs(vals - np.exp(1j * targets[:, 0]))**2))
        assert rms[4.0] / rms[8.0] == pytest.approx(np.sqrt(2.0), rel=0.2)

    def test_reciprocity(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 48)
        cf = constant_a(unit_disc, params_k1.k, 2.0)
        s1, s2 = np.array([2.5, 0.3]), np.array([-0.4, -2.2])
        responses = []
        for src, rec in ((s1, s2), (s2, s1)):
            u_inc = incident_point_source(grid, params_k1, src)
            u, info = gmres_solve(identity_minus_A(grid, params_k1, cf),
                                  u_inc, tol=1e-10)
            assert info.converged
            responses.append(extend_solution(grid, params_k1, cf, u, rec[None, :],
                                             point_source_function(params_k1, src))[0])
        assert abs(responses[0] - responses[1]) / abs(responses[0]) < 0.01
