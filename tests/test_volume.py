import functools
import gc
import importlib
import pkgutil
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft as sfft

from conftest import random_field, smooth_probe
from vielab import (
    DomainGeometry,
    WaveParameters,
    apply_A,
    apply_A_fft,
    apply_A_smooth_form,
    assemble_A_dense,
    beta_only,
    build_volume_grid,
    constant_a,
    greens_value,
    linear_a,
    newton_potential,
    smooth_bump_a,
)
from vielab import assemble_K, assemble_coupled, build_boundary_mesh, eigenvalues_dense
from vielab.geometry import reflections
from vielab.spectral import condition_estimate, spectral_instrument, spectral_operator_matrix
from vielab import coupled, volume
from vielab.boundary import density_interp_matrix, refine_mesh, trace_matrix
from vielab.special import greens_gradient
from vielab.volume import (
    DenseBudgetError,
    discrete_laplacian,
    fft_kernel_tables,
    gradient_ops,
    identity_minus_A,
    kernel_matrices,
    self_cell_weight,
)


def pairwise_kernel_matrices(grid, params):
    """Reference: the kernels evaluated at every ordered pair of cell centers."""
    n, d = grid.n, grid.dimension
    w = grid.cell_volume
    diff = grid.centers[:, None, :] - grid.centers[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    self_mask = r < 1e-9 * grid.h
    gm = w * greens_value(params, np.where(self_mask, grid.h, r))
    gm[self_mask] = self_cell_weight(params, grid.h)
    diff_safe = np.where(self_mask[..., None], grid.h, diff)
    gvec = w * greens_gradient(params, diff_safe.reshape(-1, d)).reshape(n, n, d)
    gvec[self_mask] = 0.0
    return gm, tuple(gvec[..., c] for c in range(d))


def full_offset_kernel_tables(grid, params):
    """Reference: the kernels sampled at every offset of the zero-padded grid."""
    pshape = tuple(sfft.next_fast_len(2 * nc) for nc in grid.shape)
    offs = [np.where(np.arange(pc) < nc, np.arange(pc), np.arange(pc) - pc) * grid.h
            for nc, pc in zip(grid.shape, pshape)]
    mesh = np.meshgrid(*offs, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    r = np.linalg.norm(pts, axis=1)
    origin = r == 0.0
    w = grid.cell_volume
    g_tab = w * greens_value(params, np.where(origin, grid.h, r))
    g_tab[origin] = self_cell_weight(params, grid.h)
    gvec = w * greens_gradient(params, np.where(origin[:, None], grid.h, pts))
    gvec[origin] = 0.0
    return pshape, (g_tab.reshape(pshape),
                    *(gvec[:, c].reshape(pshape) for c in range(grid.dimension)))


def bump_density(points, rho=0.8):
    r2 = (points ** 2).sum(axis=1) / rho ** 2
    out = np.zeros(len(points), dtype=complex)
    m = r2 < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - r2[m]))
    return out


class TestSelfCellWeight:
    def test_2d_harmonic_equals_closed_form(self):
        h = 0.1
        radius = h / np.sqrt(np.pi)
        expected = radius**2 * (1 - 2 * np.log(radius)) / 4
        assert self_cell_weight(WaveParameters(0.0, 2), h) == pytest.approx(expected)

    @pytest.mark.parametrize("dim,k", [(2, 1.0), (3, 1.0), (3, 0.0), (2, 2.5)])
    def test_matches_polar_quadrature(self, dim, k):
        # independent oracle: radial quadrature of G over the equivalent ball
        from scipy.integrate import quad
        h = 0.07
        p = WaveParameters(k, dim)
        radius = h / np.sqrt(np.pi) if dim == 2 else h * (3 / (4 * np.pi)) ** (1 / 3)
        if dim == 2:
            re = quad(lambda r: 2 * np.pi * r * greens_value(p, r).real, 0, radius,
                      points=[0.0], limit=200)[0]
            im = quad(lambda r: 2 * np.pi * r * greens_value(p, r).imag, 0, radius,
                      points=[0.0], limit=200)[0]
        else:
            re = quad(lambda r: 4 * np.pi * r**2 * greens_value(p, r).real, 0, radius,
                      points=[0.0], limit=200)[0]
            im = quad(lambda r: 4 * np.pi * r**2 * greens_value(p, r).imag, 0, radius,
                      points=[0.0], limit=200)[0]
        assert self_cell_weight(p, h) == pytest.approx(re + 1j * im, abs=1e-10)


class TestNewtonPotential:
    def test_zero_density_gives_zero(self, disc_grid_32, params_k1):
        v = np.zeros(disc_grid_32.n, dtype=complex)
        assert np.all(newton_potential(disc_grid_32, params_k1, v) == 0)

    def test_discrete_helmholtz_residual_decays(self, unit_disc, params_k1):
        # (Delta_h + k^2)(G_k * v) + v -> 0 under refinement (five-point oracle)
        residuals = []
        for n in (32, 64, 128):
            grid = build_volume_grid(unit_disc, n)
            v = bump_density(grid.centers)
            pot = newton_potential(grid, params_k1, v)
            lap, interior = discrete_laplacian(grid, pot)
            res = lap + params_k1.k**2 * pot + v
            residuals.append(np.abs(res[interior]).max() / np.abs(v).max())
        assert residuals[0] > residuals[1] > residuals[2]

    def test_point_source_reproduction(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 64)
        j = int(np.argmin(np.linalg.norm(grid.centers - [0.2, -0.1], axis=1)))
        v = np.zeros(grid.n, dtype=complex)
        v[j] = 1.0 / grid.cell_volume  # discrete delta
        far = np.linalg.norm(grid.centers - grid.centers[j], axis=1) >= 3 * grid.h
        pot = newton_potential(grid, params_k1, v)[far]
        exact = greens_value(params_k1, np.linalg.norm(grid.centers[far] - grid.centers[j], axis=1))
        assert np.abs(pot - exact).max() / np.abs(exact).max() < 0.02

    def test_fft_matches_direct(self, disc_grid_32, params_k1, rng):
        v = random_field(disc_grid_32.n, rng)
        d = kernel_matrices(disc_grid_32, params_k1)[0] @ v
        f = newton_potential(disc_grid_32, params_k1, v)
        assert np.linalg.norm(d - f) / np.linalg.norm(d) < 1e-12

    def test_3d_ball_residual_decays(self):
        ball = DomainGeometry.ball(1.0)
        p = WaveParameters(1.0, 3)
        residuals = []
        for n in (12, 18, 27):
            grid = build_volume_grid(ball, n)
            v = bump_density(grid.centers, rho=0.8)
            pot = newton_potential(grid, p, v)
            lap, interior = discrete_laplacian(grid, pot)
            res = lap + p.k**2 * pot + v
            residuals.append(np.abs(res[interior]).max() / np.abs(v).max())
        assert residuals[0] > residuals[1] > residuals[2]


class TestApplyA:
    def test_zero_contrasts_give_zero(self, disc_grid_32, params_k1, rng):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 1.0)
        u = random_field(disc_grid_32.n, rng)
        assert np.all(apply_A(disc_grid_32, params_k1, cf, u) == 0)

    def test_beta_only_equals_newton_potential_exactly(self, disc_grid_32, params_k1, rng):
        # A u with alpha == 0 is the G-kernel matrix applied to beta*u
        cf = beta_only(disc_grid_32.domain, params_k1.k, 3.0)
        u = random_field(disc_grid_32.n, rng)
        beta = cf.beta(disc_grid_32.centers)
        lhs = apply_A(disc_grid_32, params_k1, cf, u)
        rhs = kernel_matrices(disc_grid_32, params_k1)[0] @ (beta * u)
        assert np.array_equal(lhs, rhs)

    def test_linearity(self, disc_grid_32, params_k1, rng):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 2.0 + 0.5j)
        u1, u2 = random_field(disc_grid_32.n, rng), random_field(disc_grid_32.n, rng)
        c1, c2 = 1.3 - 0.2j, -0.7 + 2.0j
        lhs = apply_A(disc_grid_32, params_k1, cf, c1 * u1 + c2 * u2)
        rhs = c1 * apply_A(disc_grid_32, params_k1, cf, u1) \
            + c2 * apply_A(disc_grid_32, params_k1, cf, u2)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-12

    def test_fft_agrees_with_direct(self, params_k1, rng):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 32)
        cf = constant_a(grid.domain, params_k1.k, 2.0 + 0.5j)
        u = random_field(grid.n, rng)
        direct = apply_A(grid, params_k1, cf, u)
        fast = apply_A_fft(grid, params_k1, cf, u)
        assert np.linalg.norm(direct - fast) / np.linalg.norm(direct) < 1e-10

    @pytest.mark.parametrize("dim, n", [(2, 40), (3, 12)])
    def test_fft_matches_direct_with_both_contrasts(self, dim, n, rng):
        # a non-square grid (ellipse) and a 3D one, alpha and beta both nonzero
        domain = DomainGeometry.ellipse((1.0, 0.6)) if dim == 2 else DomainGeometry.ball(1.0)
        grid = build_volume_grid(domain, n)
        params = WaveParameters(2.0, dim)
        cf = constant_a(domain, params.k, 2.0 + 0.5j, k2_inside=6.0 + 1.0j)
        u = random_field(grid.n, rng)
        direct = apply_A(grid, params, cf, u)
        scale = np.linalg.norm(direct)
        assert np.linalg.norm(apply_A_fft(grid, params, cf, u) - direct) <= 1e-12 * scale
        system = identity_minus_A(grid, params, cf)(u)
        assert np.linalg.norm(system - (u - direct)) <= 1e-12 * np.linalg.norm(u - direct)

    def test_identity_minus_A_samples_contrasts_once(self, params_k1, rng, monkeypatch):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 16)
        cf = constant_a(grid.domain, params_k1.k, 2.0, k2_inside=3.0)
        u = random_field(grid.n, rng)
        calls = []
        contains = DomainGeometry.contains
        monkeypatch.setattr(DomainGeometry, "contains",
                            lambda self, pts: calls.append(len(pts)) or contains(self, pts))
        counts = []
        for applications in (1, 5):
            calls.clear()
            applier = identity_minus_A(grid, params_k1, cf)
            for _ in range(applications):
                applier(u)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        for bad in (np.full(grid.n, np.nan), u[:-1]):
            with pytest.raises(ValueError, match="field"):
                applier(bad)

    def test_fft_zero_field(self, disc_grid_32, params_k1):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 2.0)
        assert np.all(apply_A_fft(disc_grid_32, params_k1, cf,
                                  np.zeros(disc_grid_32.n, complex)) == 0)

    def test_gradient_exact_on_linear_fields(self, disc_grid_32):
        u = disc_grid_32.centers[:, 0] + 2.0 * disc_grid_32.centers[:, 1] + 0j
        gx, gy = (op @ u for op in gradient_ops(disc_grid_32))
        assert np.allclose(gx, 1.0, atol=1e-10)
        assert np.allclose(gy, 2.0, atol=1e-10)


class TestCachedKernels:
    def test_caches_hold_one_discretization(self):
        import vielab
        modules = [importlib.import_module(f"vielab.{m.name}")
                   for m in pkgutil.iter_modules(vielab.__path__)]
        caches = {f"{mod.__name__}.{name}": obj for mod in modules
                  for name, obj in vars(mod).items()
                  if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__}
        assert len(caches) == 5
        assert {name: c.cache_parameters()["maxsize"] for name, c in caches.items()} \
            == dict.fromkeys(caches, 1)

    def test_previous_grid_is_released(self, params_k1):
        first = build_volume_grid(DomainGeometry.disc(1.0), 12)
        fft_kernel_tables(first, params_k1)
        released = weakref.ref(first)
        del first
        fft_kernel_tables(build_volume_grid(DomainGeometry.disc(1.0), 14), params_k1)
        gc.collect()
        assert released() is None

    def test_cached_arrays_are_read_only(self, params_k1):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 12)
        gm, grads = kernel_matrices(grid, params_k1)
        _, g_hat, grad_hats = fft_kernel_tables(grid, params_k1)
        for arr in (gm, *grads, g_hat, *grad_hats):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.0

    @pytest.mark.parametrize("dim, k, n", [(2, 0.0, 24), (2, 10.0, 24), (3, 1.0, 10)])
    def test_gathered_matrices_match_pairwise_reference(self, dim, k, n):
        domain = DomainGeometry.disc(1.0) if dim == 2 else DomainGeometry.ball(1.0)
        grid = build_volume_grid(domain, n)
        params = WaveParameters(k, dim)
        gm, grads = kernel_matrices(grid, params)
        ref_gm, ref_grads = pairwise_kernel_matrices(grid, params)
        assert len(grads) == dim
        for got, ref in zip((gm, *grads), (ref_gm, *ref_grads)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_one_build_samples_each_kernel_once_per_offset(self, params_k1, monkeypatch):
        points = {"value": 0, "gradient": 0}

        def counted(kind, fn, size):
            def wrapper(params, x):
                points[kind] += size(np.asarray(x))
                return fn(params, x)
            return wrapper

        monkeypatch.setattr(volume, "greens_value",
                            counted("value", volume.greens_value, np.size))
        monkeypatch.setattr(volume, "greens_gradient",
                            counted("gradient", volume.greens_gradient, len))
        grid = build_volume_grid(DomainGeometry.disc(1.0), 20)
        kernel_matrices(grid, params_k1)
        built = dict(points)
        pshape, _, _ = fft_kernel_tables(grid, params_k1)
        # one point per offset magnitude: the non-negative orthant of the padded grid
        qshape = [max(nc - 1, pc - nc) + 1 for nc, pc in zip(grid.shape, pshape)]
        assert built["value"] == built["gradient"] == int(np.prod(qshape))
        assert int(np.prod(qshape)) < int(np.prod(pshape)) < grid.n ** 2

    @pytest.mark.parametrize("dim, n", [(2, 47), (3, 10)])
    def test_orthant_tables_equal_full_offset_sampling(self, dim, n):
        # n = 47 pads to 96 > 2n, so the negative offsets reach past the grid extent
        domain = DomainGeometry.disc(1.0) if dim == 2 else DomainGeometry.ball(1.0)
        grid = build_volume_grid(domain, n)
        params = WaveParameters(1.0, dim)
        pshape, tables = volume._kernel_tables(grid, params)
        ref_pshape, ref_tables = full_offset_kernel_tables(grid, params)
        assert pshape == ref_pshape and len(tables) == len(ref_tables) == dim + 1
        for got, ref in zip(tables, ref_tables):
            assert np.array_equal(got, ref)

    def test_size_guard_raises_before_any_kernel_evaluation(self, params_k1, monkeypatch):
        def forbidden(*args):
            raise AssertionError("kernel evaluated above the budget")

        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 4.5 * 16 * 50 ** 2)
        monkeypatch.setattr(volume, "greens_value", forbidden)
        monkeypatch.setattr(volume, "greens_gradient", forbidden)
        grid = build_volume_grid(DomainGeometry.disc(1.0), 12)
        assert grid.n > 50
        with pytest.raises(DenseBudgetError, match="capped.*budget"):
            kernel_matrices(grid, params_k1)


class TestDenseAssembly:
    def test_zero_contrasts_give_identity(self, params_k1):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 12)
        cf = constant_a(grid.domain, params_k1.k, 1.0)
        assert np.array_equal(assemble_A_dense(grid, params_k1, cf), np.eye(grid.n))

    def test_dense_builders_return_square_complex_arrays(self, params_k1):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 12)
        mesh = build_boundary_mesh(grid.domain, 32)
        cf = constant_a(grid.domain, params_k1.k, 2.0)
        for mat, size in ((assemble_A_dense(grid, params_k1, cf), grid.n),
                          (coupled.assemble_A1(grid, params_k1, cf), grid.n),
                          (assemble_coupled(grid, mesh, params_k1, cf), grid.n + mesh.m),
                          (assemble_coupled(grid, mesh, params_k1, cf, "nystrom"),
                           grid.n + mesh.m),
                          (assemble_K(mesh, params_k1), mesh.m)):
            assert type(mat) is np.ndarray
            assert mat.shape == (size, size) and mat.dtype == np.complex128

    def test_matvec_matches_matrix_free(self, params_k1, rng):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 24)
        cf = constant_a(grid.domain, params_k1.k, 2.0)
        u = random_field(grid.n, rng)
        mv = assemble_A_dense(grid, params_k1, cf) @ u
        mf = u - apply_A(grid, params_k1, cf, u)
        assert np.linalg.norm(mv - mf) / np.linalg.norm(mv) < 1e-12

    def test_not_hermitian(self, params_k1):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 16)
        cf = constant_a(grid.domain, params_k1.k, 2.0)
        m = assemble_A_dense(grid, params_k1, cf)
        assert np.abs(m - m.conj().T).max() > 1e-3

    def test_cap_enforced(self, params_k1, monkeypatch):
        def forbidden(*args):
            raise AssertionError("kernel evaluated above the budget")

        grid = build_volume_grid(DomainGeometry.disc(1.0), 40)
        cf = constant_a(grid.domain, params_k1.k, 2.0)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 6.5 * 16 * 100 ** 2)
        monkeypatch.setattr(volume, "greens_value", forbidden)
        monkeypatch.setattr(volume, "greens_gradient", forbidden)
        with pytest.raises(DenseBudgetError, match="capped.*budget"):
            assemble_A_dense(grid, params_k1, cf)


@functools.lru_cache(maxsize=8)
def _symmetric_system(kind, n):
    """A read-only matrix with the reflections of its unknowns: the spectral
    instrument on the disc at n cells per axis with a = 2 ("disc", the five
    blocks of the square's dihedral group) or with a linear in x
    ("disc-linear", two blocks), or the dense volume system on the ball at
    n / 2 ("ball", eight blocks)."""
    disc, ball = DomainGeometry.disc(1.0), DomainGeometry.ball(1.0)
    if kind == "ball":
        grid = build_volume_grid(ball, n // 2)
        system = assemble_A_dense(grid, WaveParameters(1.0, 3), constant_a(ball, 1.0, 2.0))
        symmetries = reflections(grid)
    else:
        grid, mesh, matrix = spectral_instrument(disc, WaveParameters(1.0, 2), n)
        system = matrix(constant_a(disc, 1.0, 2.0) if kind == "disc"
                        else linear_a(disc, 1.0, 2.0, [0.3, 0.0]))
        symmetries = reflections(grid, mesh)
    system.setflags(write=False)
    return system, symmetries


def _cold_dense_builds(n):
    """Budgeted dense builds on a disc (2D) or ball (3D) of n cells per axis,
    as zero-argument calls; the "-coarse" and "-tiny" entries are the small
    sizes where the fixed allowance, not the arrays, dominates. The
    unblocked eigensolve input is real and badly scaled, and the condition
    number's input is its complex counterpart; the "-blocked" entries split
    symmetric systems into the 2, 5 or 8 blocks of their reflections."""
    disc, ball = DomainGeometry.disc(1.0), DomainGeometry.ball(1.0)
    square = DomainGeometry.polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    p2, p3 = WaveParameters(1.0, 2), WaveParameters(1.0, 3)
    grid, grid3 = build_volume_grid(disc, n), build_volume_grid(ball, n // 2)
    mesh, k_mesh = build_boundary_mesh(disc, 4 * n), build_boundary_mesh(square, 10 * n)
    coarse = build_volume_grid(disc, n // 2)
    cf, cf3 = constant_a(disc, 1.0, 2.0), constant_a(ball, 1.0, 2.0)
    stiff = 1e9 * np.random.default_rng(n).standard_normal((8 * n, 8 * n))
    stiff_c = stiff + 1j * stiff.T
    five, two, eight = (_symmetric_system(kind, n) for kind in ("disc", "disc-linear", "ball"))
    five_real = (np.ascontiguousarray(five[0].real), five[1])
    return {
        "kernel_matrices": lambda: kernel_matrices(grid, p2),
        "kernel_matrices-3d": lambda: kernel_matrices(grid3, p3),
        "assemble_A_dense": lambda: assemble_A_dense(grid, p2, cf),
        "assemble_A_dense-3d": lambda: assemble_A_dense(grid3, p3, cf3),
        "assemble_coupled": lambda: assemble_coupled(grid, mesh, p2, cf),
        "assemble_coupled-nystrom": lambda: assemble_coupled(grid, mesh, p2, cf,
                                                             boundary_operator="nystrom"),
        "assemble_coupled-coarse": lambda: assemble_coupled(
            coarse, build_boundary_mesh(disc, 2 * n), p2, cf),
        "assemble_coupled-tiny": lambda: assemble_coupled(
            coarse, build_boundary_mesh(disc, 3 * n), p2, cf),
        "assemble_coupled-nystrom-tiny": lambda: assemble_coupled(
            coarse, build_boundary_mesh(disc, 4 * n), p2, cf, boundary_operator="nystrom"),
        "assemble_K": lambda: assemble_K(k_mesh, p2),
        "assemble_K-coarse": lambda: assemble_K(mesh, p2),
        "spectral_operator_matrix": lambda: spectral_operator_matrix(disc, p2, cf, n),
        "eigenvalues_dense": lambda: eigenvalues_dense(stiff),
        "density_interp_matrix": lambda: density_interp_matrix(mesh, refine_mesh(mesh)),
        "density_interp_matrix-polygon": lambda: density_interp_matrix(k_mesh,
                                                                       refine_mesh(k_mesh)),
        "condition_estimate": lambda: condition_estimate(stiff_c),
        "eigenvalues_dense-blocked": lambda: eigenvalues_dense(*five),
        "eigenvalues_dense-blocked-real": lambda: eigenvalues_dense(*five_real),
        "eigenvalues_dense-blocked-two": lambda: eigenvalues_dense(*two),
        "eigenvalues_dense-blocked-eight": lambda: eigenvalues_dense(*eight),
        "condition_estimate-blocked": lambda: condition_estimate(*five),
        "condition_estimate-blocked-two": lambda: condition_estimate(*two),
        "condition_estimate-blocked-eight": lambda: condition_estimate(*eight),
    }


def _traced_peak(call):
    """Bytes allocated by ``call`` at its peak, from cold caches; the call's
    result or the exception it raised."""
    for cached in (kernel_matrices, volume.gradient_ops, trace_matrix,
                   coupled._coefficient_free_blocks):
        cached.cache_clear()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        outcome = call()
    except DenseBudgetError as exc:
        outcome = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
    return peak, outcome


class TestDenseBudget:
    @pytest.mark.parametrize("builder", sorted(_cold_dense_builds(16)))
    def test_estimate_bounds_peak_and_rejection_allocates_nothing(self, builder, monkeypatch):
        # inputs are set up before any budget is patched
        calls = [(n, _cold_dense_builds(n)[builder]) for n in (16, 24)]
        for n, call in calls:
            monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 0)
            rejected_peak, err = _traced_peak(call)
            assert isinstance(err, DenseBudgetError)
            assert "capped" in str(err) and "budget" in str(err)
            assert rejected_peak < 2**20
            monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", err.need)
            peak, result = _traced_peak(call)
            assert not isinstance(result, DenseBudgetError)
            assert peak <= err.need, f"n={n}: peak {peak} above the estimate {err.need}"

    @pytest.mark.parametrize("solve, live, pad", [(eigenvalues_dense, 4, 40),
                                                  (condition_estimate, 1, 96)])
    def test_five_blocks_fit_where_one_solve_does_not(self, monkeypatch, solve, live, pad):
        # the budget just below the estimate of the one unblocked solve
        matrix, symmetries = _symmetric_system("disc", 24)
        n = len(matrix)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES",
                            live * 16 * n * (n + pad) + 80 * 2**10 - 1)
        with pytest.raises(DenseBudgetError):
            solve(matrix)
        solve(matrix, symmetries)

    def test_coupled_refuses_large_boundary_before_allocating(self, monkeypatch):
        # a boundary mesh large against the grid: the coupled estimate counts the
        # (8M, M) interpolation of the near-field upgrade and its complex copy, so
        # the system is refused before any block allocates
        grid = build_volume_grid(DomainGeometry.disc(1.0), 8)
        mesh = build_boundary_mesh(grid.domain, 400)
        cf = constant_a(grid.domain, 1.0, 2.0)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 18 * 2**20)
        peak, err = _traced_peak(lambda: assemble_coupled(
            grid, mesh, WaveParameters(1.0, 2), cf, boundary_operator="nystrom"))
        assert isinstance(err, DenseBudgetError) and "coupled system" in str(err)
        assert peak < 10**6

    def test_polygon_density_interpolation_refused_before_allocating(self, monkeypatch):
        # the (8M, M) float matrix is 10 MB at M = 400; a refusal allocates none of it
        square = DomainGeometry.polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        mesh = build_boundary_mesh(square, 400)
        fine = refine_mesh(mesh)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 0)
        peak, err = _traced_peak(lambda: density_interp_matrix(mesh, fine))
        assert isinstance(err, DenseBudgetError) and "density interpolation" in str(err)
        assert peak < 10**6


class TestSmoothForm:
    def test_laplace_case_is_identical(self, disc_grid_32, params_k1, rng):
        cf = beta_only(disc_grid_32.domain, params_k1.k, 3.0)
        u = random_field(disc_grid_32.n, rng)
        a1 = apply_A_fft(disc_grid_32, params_k1, cf, u)
        a2 = apply_A_smooth_form(disc_grid_32, params_k1, cf, u)
        assert np.array_equal(a1, a2)

    def test_mismatch_decays_under_refinement(self, unit_disc, params_k1):
        vals = []
        for n in (32, 64, 128):
            grid = build_volume_grid(unit_disc, n)
            cf = smooth_bump_a(unit_disc, params_k1.k, 2.0)
            u = smooth_probe(grid.centers)
            d = apply_A_fft(grid, params_k1, cf, u) - apply_A_smooth_form(grid, params_k1, cf, u)
            vals.append(np.linalg.norm(d) / np.linalg.norm(u))
        assert vals[0] > vals[1] > vals[2]

    def test_constant_field_harmonic_agreement(self, unit_disc):
        p0 = WaveParameters(0.0, 2)
        vals = []
        for n in (32, 64):
            grid = build_volume_grid(unit_disc, n)
            cf = smooth_bump_a(unit_disc, 0.0, 2.0)
            u = np.ones(grid.n, dtype=complex)
            d = apply_A_fft(grid, p0, cf, u) - apply_A_smooth_form(grid, p0, cf, u)
            vals.append(np.linalg.norm(d) / np.linalg.norm(u))
        assert vals[1] < vals[0] < 0.05

    def test_piecewise_tags_rejected(self, disc_grid_32, params_k1):
        cf = constant_a(disc_grid_32.domain, params_k1.k, 2.0)
        with pytest.raises(ValueError, match="alpha = 0 on Gamma"):
            apply_A_smooth_form(disc_grid_32, params_k1, cf,
                                np.zeros(disc_grid_32.n, complex))


class TestDiscreteLaplacian:
    def test_exact_on_quadratics(self, disc_grid_32):
        x, y = disc_grid_32.centers.T
        lap, interior = discrete_laplacian(disc_grid_32, x**2 + y**2 + 0j)
        assert np.allclose(lap[interior], 4.0, atol=1e-9)
