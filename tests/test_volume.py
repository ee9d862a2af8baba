import functools
import gc
import importlib
import pkgutil
import weakref

import numpy as np
import pytest
import scipy.fft as sfft

from conftest import kernel_matrix_operators, random_field, smooth_probe, traced_peak
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
from vielab import (assemble_K, assemble_coupled, build_boundary_mesh, coupled_blocks,
                    eigenvalues_dense)
from vielab.geometry import reflections
from vielab.spectral import condition_estimate, spectral_instrument, spectral_operator_matrix
from vielab import coupled, volume
from vielab.boundary import density_interp_matrix, refine_mesh
from vielab.special import greens_gradient
from vielab.scattering import incident_plane_wave, incident_point_source
from vielab.volume import (
    DenseBudgetError,
    _apply_kernels,
    _contrast_sources,
    discrete_laplacian,
    fft_kernel_tables,
    gradient_ops,
    identity_minus_A,
    kernel_matrices,
    mirror_half,
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
    """Reference: the kernels sampled at every offset of the zero-padded grid,
    offsets 0..pc/2 then 1-pc/2..-1 along each axis."""
    pshape = tuple(2 * sfft.next_fast_len(nc) for nc in grid.shape)
    offs = [np.where(np.arange(pc) <= pc // 2, np.arange(pc), np.arange(pc) - pc) * grid.h
            for pc in pshape]
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

    @pytest.mark.parametrize("domain, n, pshape", [
        (DomainGeometry.disc(1.0), 13, (28, 28)),
        (DomainGeometry.ball(1.0), 13, (28, 28, 28)),
        (DomainGeometry.ellipse((1.0, 0.09), margin=0.0), 10, (20, 2)),
    ], ids=["disc", "ball", "one-cell-thick"])
    def test_fft_matches_direct_on_edge_padding(self, domain, n, pshape, rng):
        # n = 13: next_fast_len(26) = 27 is odd, so the padded length is
        # 2 next_fast_len(13) = 28; one cell thick: no offset inside (0, pc/2)
        grid = build_volume_grid(domain, n)
        params = WaveParameters(2.0, grid.dimension)
        assert fft_kernel_tables(grid, params)[0] == pshape
        cf = constant_a(domain, params.k, 2.0 + 0.5j, k2_inside=6.0 + 1.0j)
        u = random_field(grid.n, rng)
        direct = apply_A(grid, params, cf, u)
        assert np.linalg.norm(apply_A_fft(grid, params, cf, u) - direct) \
            <= 1e-12 * np.linalg.norm(direct)

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


class TestSinglePrecision:
    """The system applier computes a complex64 field in complex64; every other
    field, and every other entry point, computes in complex128."""

    @pytest.fixture()
    def case(self, unit_disc):
        params = WaveParameters(4.0, 2)
        grid = build_volume_grid(unit_disc, 24)
        return grid, params, constant_a(unit_disc, params.k, 3.0)

    def test_applier_keeps_complex64(self, case, rng):
        grid, params, cf = case
        applier = identity_minus_A(grid, params, cf)
        u = random_field(grid.n, rng)
        double, single = applier(u), applier(u.astype(np.complex64))
        assert double.dtype == np.complex128 and single.dtype == np.complex64
        # measured 9.3e-8
        assert np.linalg.norm(single - double) <= 1e-6 * np.linalg.norm(double)

    def test_applier_on_complex128_is_unchanged(self, case, rng):
        grid, params, cf = case
        u = random_field(grid.n, rng)
        assert np.array_equal(identity_minus_A(grid, params, cf)(u),
                              u - apply_A_fft(grid, params, cf, u))

    def test_public_routes_compute_in_complex128(self, case, rng):
        grid, params, cf = case
        u = random_field(grid.n, rng).astype(np.complex64)
        assert apply_A_fft(grid, params, cf, u).dtype == np.complex128
        assert newton_potential(grid, params, u).dtype == np.complex128


SQUARE = DomainGeometry.polygon([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def even_field(grid, axes, rng):
    """A random field on the cells that equals its index flip along ``axes``
    (and, almost surely, along no other axis)."""
    placed = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for ax in axes:
        placed = placed + np.flip(placed, ax)
    return placed[grid.mask]


def mirrored_system(domain, n, even, a, k2):
    """The grid, wave, coefficient and ``mirror_half`` of a constant-a system
    (k = 2) whose incident field is even along exactly the axes ``even``."""
    grid = build_volume_grid(domain, n)
    params = WaveParameters(2.0, grid.dimension)
    cf = constant_a(domain, params.k, a, k2)
    half = mirror_half(grid, cf, even_field(grid, even, np.random.default_rng(0)))
    assert half.even == even
    return grid, params, cf, half


MIRRORED_CASES = [
    (DomainGeometry.disc(1.0), 32, (0,), 2.0, 6.0),
    (DomainGeometry.disc(1.0), 32, (1,), 3.0 + 1.0j, None),
    (DomainGeometry.disc(1.0), 32, (0, 1), 2.0, None),
    (SQUARE, 14, (0, 1), 3.0 + 1.0j, 6.0),
    (SQUARE, 14, (1,), 2.0, None),
    (DomainGeometry.ellipse((1.0, 0.6)), 30, (0, 1), 3.0 + 1.0j, 6.0),
    (DomainGeometry.ball(1.0), 12, (1, 2), 2.0, 6.0),
    (DomainGeometry.ball(1.0), 12, (0, 1, 2), 3.0 + 1.0j, None),
    (DomainGeometry.ball(1.0), 14, (0, 2), 2.0, None),
]
MIRRORED_IDS = ["disc-x", "disc-y", "disc-xy", "square-xy", "square-y", "ellipse-xy",
                "ball-yz", "ball-xyz", "ball-xz-n14"]
#: the n = 16 disc: its outermost lines along either axis (index 1 and 14) hold
#: two cells, so the kept one's only neighbour there is its mirror image
REPEATING_CASE = (DomainGeometry.disc(1.0), 16, (0, 1), 3.0 + 1.0j, 6.0)


class TestMirroredRoute:
    """The system applier on the kept half of fields even along some axes
    (DCT-II/DST-II along those, FFT along the others) against the full FFT
    route restricted to the kept half."""

    @pytest.mark.parametrize("domain, n, even, a, k2", MIRRORED_CASES, ids=MIRRORED_IDS)
    @pytest.mark.parametrize("dtype, tol", [(np.complex128, 1e-13), (np.complex64, 1e-6)],
                             ids=["double", "single"])
    def test_kept_half_matches_full_route(self, domain, n, even, a, k2, dtype, tol):
        # n = 14: next_fast_len(14) = 15, so the padded length is 30 > 2 nc
        grid, params, cf, half = mirrored_system(domain, n, even, a, k2)
        assert len(half.kept) * 2 ** len(even) == grid.n
        rng = np.random.default_rng(5)
        v = random_field(len(half.kept), rng).astype(dtype)
        full = identity_minus_A(grid, params, cf)(v[half.unfold])[half.kept]
        reduced = identity_minus_A(grid, params, cf, half)(v)
        assert reduced.dtype == dtype
        # measured at most 3.4e-16 in double and 1.6e-7 in single
        assert np.linalg.norm(reduced - full) <= tol * np.linalg.norm(full)

    @pytest.mark.parametrize("domain, n, even, a, k2", MIRRORED_CASES + [REPEATING_CASE],
                             ids=MIRRORED_IDS + ["disc-xy-n16"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["double", "single"])
    def test_folded_stencils_equal_unfolded_sources(self, domain, n, even, a, k2, dtype):
        # the folded stencils give the sources of the unfolded field on the
        # kept cells, each row summed in the same order: equal bit for bit
        grid, params, cf, half = mirrored_system(domain, n, even, a, k2)
        v = random_field(len(half.kept), np.random.default_rng(5)).astype(dtype)
        sources = _contrast_sources(grid, cf)(v[half.unfold])
        unfolded = v - _apply_kernels(grid, params, [None if s is None else s[half.kept]
                                                     for s in sources], dtype, even)
        assert np.array_equal(identity_minus_A(grid, params, cf, half)(v), unfolded)

    def test_a_folded_row_repeats_a_column(self):
        grid, _, _, half = mirrored_system(*REPEATING_CASE)
        repeats = 0
        for op in gradient_ops(grid):
            rows = op[half.kept]
            columns = np.split(half.unfold[rows.indices], rows.indptr[1:-1])
            repeats += sum(len(set(c)) < len(c) for c in columns)
        assert repeats == 2

    def test_unfold_mirrors_the_kept_half(self):
        grid = build_volume_grid(DomainGeometry.ball(1.0), 10)
        cf = constant_a(grid.domain, 2.0, 2.0)
        u_inc = even_field(grid, (0, 2), np.random.default_rng(0))
        even, kept, unfold = mirror_half(grid, cf, u_inc)
        assert even == (0, 2)
        assert np.array_equal(unfold[kept], np.arange(len(kept)))
        placed = np.zeros(grid.shape)
        placed[grid.mask] = np.arange(len(kept))[unfold]
        assert np.array_equal(placed, np.flip(placed, (0, 2)))
        assert np.all(grid.coords[kept][:, [0, 2]] >= 5)

    @pytest.mark.parametrize("case, expected", [
        ("plane-x", (1,)),
        ("plane-y", (0,)),
        ("ball-plane-z", (0, 1)),
        ("oblique", ()),
        ("off-axis-point-source", ()),
        ("odd-nc", ()),
        ("linear-a-x, plane-x", (1,)),
        ("linear-a-x, plane-y", ()),
    ])
    def test_detection(self, case, expected):
        disc = DomainGeometry.disc(1.0)
        dim = 3 if case.startswith("ball") else 2
        domain = DomainGeometry.ball(1.0) if dim == 3 else disc
        grid = build_volume_grid(domain, 33 if case == "odd-nc" else 16)
        params = WaveParameters(2.0, dim)
        cf = (linear_a(disc, params.k, 1.5, np.array([0.5, 0.0])) if case.startswith("linear")
              else constant_a(domain, params.k, 2.0, 6.0))
        if case == "off-axis-point-source":
            u_inc = incident_point_source(grid, params, (2.0, 1.5))
        else:
            direction = {"oblique": (0.6, 0.8), "ball-plane-z": (0.0, 0.0, -1.0)}.get(
                case, (0.0, 1.0) if case.endswith("plane-y") else (1.0, 0.0))
            u_inc = incident_plane_wave(grid, params, direction)
        assert mirror_half(grid, cf, u_inc).even == expected


class TestCachedKernels:
    def test_caches_hold_one_discretization(self):
        import vielab
        modules = [importlib.import_module(f"vielab.{m.name}")
                   for m in pkgutil.iter_modules(vielab.__path__)]
        caches = {f"{mod.__name__}.{name}": obj for mod in modules
                  for name, obj in vars(mod).items()
                  if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__}
        assert sorted(caches) == ["vielab.volume.fft_kernel_tables",
                                  "vielab.volume.kernel_matrices"]
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
        _, double, single = fft_kernel_tables(grid, params_k1)
        for arr in (gm, *grads, *double, *single):
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
        # the dense operators gathered row chunk by row chunk agree with their
        # kernel-matrix construction to 1e-14 of the largest entry (measured:
        # bit for bit), with every kernel weighted
        cf = linear_a(domain, k, 2.0, np.linspace(0.5, -0.3, dim))
        a1, a_mat = kernel_matrix_operators(grid, params, cf)
        for got, ref in ((coupled.assemble_A1(grid, params, cf), a1),
                         (assemble_A_dense(grid, params, cf), a_mat)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("domain, n, k", [
        (DomainGeometry.disc(1.0), 24, 1.0),
        (DomainGeometry.polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]]), 20, 2.5 + 0.3j),
        (DomainGeometry.ball(1.0), 10, 2.5 + 0.3j),
    ], ids=["disc", "square", "ball"])
    def test_gradient_matrices_are_exactly_antisymmetric(self, domain, n, k):
        # so assemble_A_dense's row-chunk products grad G_c diag(alpha) D_c equal
        # the transposed products of the kernel-matrix construction bit for bit
        grid = build_volume_grid(domain, n)
        _, grads = kernel_matrices(grid, WaveParameters(k, grid.dimension))
        for grad in grads:
            assert np.array_equal(grad.T, -grad)

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
        pshape = fft_kernel_tables(grid, params_k1)[0]
        # one point per offset magnitude: the non-negative orthant of the padded grid
        qshape = [pc // 2 + 1 for pc in pshape]
        assert built["value"] == built["gradient"] == int(np.prod(qshape))
        assert int(np.prod(qshape)) < int(np.prod(pshape)) < grid.n ** 2

    @pytest.mark.parametrize("dim, n", [(2, 47), (3, 10), (3, 30)])
    def test_orthant_tables_equal_full_offset_sampling(self, dim, n):
        # n = 47 pads to 96 > 2n, so the orthant reaches past the grid extent;
        # the n = 30 ball's 31^3 offsets are sampled in two chunks
        domain = DomainGeometry.disc(1.0) if dim == 2 else DomainGeometry.ball(1.0)
        grid = build_volume_grid(domain, n)
        params = WaveParameters(1.0, dim)
        pshape, g_q, grad_q = volume._kernel_tables(grid, params)
        ref_pshape, ref_tables = full_offset_kernel_tables(grid, params)
        assert pshape == ref_pshape and len(grad_q) == dim
        orthant = tuple(slice(0, pc // 2 + 1) for pc in pshape)
        for got, ref in zip((g_q, *grad_q), ref_tables):
            assert np.array_equal(got, ref[orthant])

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.5 + 0.3j])
    @pytest.mark.parametrize("dim, n", [(2, 20), (3, 10)])
    def test_hats_are_ffts_of_mirrored_tables(self, dim, n, k):
        # on the kept half: frequencies 0..pc/2 on every axis but the last
        domain = DomainGeometry.disc(1.0) if dim == 2 else DomainGeometry.ball(1.0)
        grid = build_volume_grid(domain, n)
        params = WaveParameters(k, dim)
        pshape, double, _ = fft_kernel_tables(grid, params)
        _, tables = full_offset_kernel_tables(grid, params)
        kept = tuple(slice(0, pc // 2 + 1) for pc in pshape[:-1])
        for j, (hat, table) in enumerate(zip(double, tables)):
            if j:  # odd along axis j - 1: zero at pc/2 there
                table = table.copy()
                table[(slice(None),) * (j - 1) + (pshape[j - 1] // 2,)] = 0.0
            ref = np.fft.fftn(table)[kept]
            assert hat.shape == ref.shape and hat.dtype == np.complex128
            assert np.abs(hat - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_single_hats_are_the_cast_double_hats(self):
        grid = build_volume_grid(DomainGeometry.ball(1.0), 10)
        _, double, single = fft_kernel_tables(grid, WaveParameters(2.5 + 0.3j, 3))
        assert len(single) == len(double) == 4
        for hat64, hat in zip(single, double):
            assert hat64.dtype == np.complex64
            assert np.array_equal(hat64, hat.astype(np.complex64))

    def test_kernel_sampling_peaks_under_two_outputs(self):
        # the n = 48 ball's 49^3 offsets, sampled in chunks: no (Q, d) gradient
        # or full stack of points is formed beside the samples
        grid = build_volume_grid(DomainGeometry.ball(1.0), 48)
        peak, (_, g_q, grad_q) = traced_peak(
            lambda: volume._kernel_tables(grid, WaveParameters(4.0, 3)))
        outputs = sum(table.nbytes for table in (g_q, *grad_q))
        assert peak <= 2 * outputs, f"peak {peak / outputs:.2f} outputs"

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


ROUTE_CASES = [(DomainGeometry.disc(1.0), 20, (1,)), (DomainGeometry.disc(1.0), 20, (0,)),
               (DomainGeometry.ball(1.0), 10, (1, 2)), (DomainGeometry.ball(1.0), 10, (0, 2)),
               (DomainGeometry.ball(1.0), 10, (0, 1))]
ROUTE_IDS = ["disc-y", "disc-x", "ball-yz", "ball-xz", "ball-xy"]


class TestRouteSizedHats:
    """The hats of a route that convolves along its ``even`` axes on half the
    padded length keep only the frequencies 0..pc/2-1 it reads there."""

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.5 + 0.3j])
    @pytest.mark.parametrize("domain, n, even", ROUTE_CASES, ids=ROUTE_IDS)
    def test_hats_are_prefixes_of_the_full_route_hats(self, domain, n, even, k):
        grid = build_volume_grid(domain, n)
        params = WaveParameters(k, grid.dimension)
        pshape, *full = fft_kernel_tables(grid, params)
        route_pshape, *route = fft_kernel_tables(grid, params, even)
        d = grid.dimension
        shape = tuple(pc // 2 if ax in even else pc if ax == d - 1 else pc // 2 + 1
                      for ax, pc in enumerate(pshape))
        assert route_pshape == pshape
        for hats, route_hats in zip(full, route):
            for hat, route_hat in zip(hats, route_hats):
                assert route_hat.shape == shape and route_hat.dtype == hat.dtype
                assert np.array_equal(route_hat, hat[tuple(slice(0, size) for size in shape)])
                # only the last axis is halved: every other even axis loses one frequency
                assert (2 * route_hat.nbytes == hat.nbytes) == (even == (d - 1,))

    @pytest.mark.parametrize("domain, n, even, a, k2", MIRRORED_CASES, ids=MIRRORED_IDS)
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["double", "single"])
    def test_mirrored_applier_equals_full_length_hats(self, domain, n, even, a, k2, dtype,
                                                      monkeypatch):
        grid, params, cf, half = mirrored_system(domain, n, even, a, k2)
        v = random_field(len(half.kept), np.random.default_rng(5)).astype(dtype)
        sized = identity_minus_A(grid, params, cf, half)(v)
        tables = volume.fft_kernel_tables
        monkeypatch.setattr(volume, "fft_kernel_tables",
                            lambda grid, params, even=(): tables(grid, params))
        assert np.array_equal(identity_minus_A(grid, params, cf, half)(v), sized)


class TestDenseAssembly:
    def test_zero_contrasts_give_zero(self, params_k1):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 12)
        cf = constant_a(grid.domain, params_k1.k, 1.0)
        assert np.array_equal(assemble_A_dense(grid, params_k1, cf), np.zeros((grid.n, grid.n)))

    def test_dense_builders_return_square_complex_arrays(self, params_k1):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 12)
        mesh = build_boundary_mesh(grid.domain, 32)
        cf = constant_a(grid.domain, params_k1.k, 2.0)
        for mat, size in ((assemble_A_dense(grid, params_k1, cf), grid.n),
                          (coupled.assemble_A1(grid, params_k1, cf), grid.n),
                          (assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf),
                           grid.n + mesh.m),
                          (assemble_coupled(coupled_blocks(grid, mesh, params_k1, "nystrom"), cf),
                           grid.n + mesh.m),
                          (assemble_K(mesh, params_k1), mesh.m)):
            assert type(mat) is np.ndarray
            assert mat.shape == (size, size) and mat.dtype == np.complex128

    def test_matvec_matches_matrix_free(self, params_k1, rng):
        grid = build_volume_grid(DomainGeometry.disc(1.0), 24)
        cf = constant_a(grid.domain, params_k1.k, 2.0)
        u = random_field(grid.n, rng)
        mv = assemble_A_dense(grid, params_k1, cf) @ u
        mf = apply_A(grid, params_k1, cf, u)
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
        system = np.eye(grid.n) - assemble_A_dense(grid, WaveParameters(1.0, 3),
                                                   constant_a(ball, 1.0, 2.0))
        symmetries = reflections(grid)
    else:
        grid, mesh = build_volume_grid(disc, n), build_boundary_mesh(disc, 4 * n)
        system = spectral_instrument(grid, mesh, WaveParameters(1.0, 2),
                                     constant_a(disc, 1.0, 2.0) if kind == "disc"
                                     else linear_a(disc, 1.0, 2.0, [0.3, 0.0]))
        symmetries = reflections(grid, mesh)
    system.setflags(write=False)
    return system, symmetries


@functools.lru_cache(maxsize=2)
def _prebuilt_blocks(n):
    """The blocks the coupled systems of ``_cold_dense_builds`` are assembled
    from, built beforehand: on the disc at n cells per axis with 4n nodes
    (both variants), and at n / 2 with 2n, 3n and (Nystrom) 4n nodes."""
    disc, p2 = DomainGeometry.disc(1.0), WaveParameters(1.0, 2)
    grid, coarse = build_volume_grid(disc, n), build_volume_grid(disc, n // 2)
    mesh = build_boundary_mesh(disc, 4 * n)
    return [coupled_blocks(grid, mesh, p2), coupled_blocks(grid, mesh, p2, "nystrom"),
            coupled_blocks(coarse, build_boundary_mesh(disc, 2 * n), p2),
            coupled_blocks(coarse, build_boundary_mesh(disc, 3 * n), p2),
            coupled_blocks(coarse, mesh, p2, "nystrom")]


def _cold_dense_builds(n):
    """Budgeted dense builds on a disc (2D) or ball (3D) of n cells per axis,
    as zero-argument calls; the "-coarse" and "-tiny" entries are the small
    sizes where the fixed allowance, not the arrays, dominates. The
    unblocked eigensolve input is real and badly scaled, and the condition
    number's input is its complex counterpart; the "-blocked" entries split
    symmetric systems into the 2, 5 or 8 blocks of their reflections. The
    coupled systems are assembled from ``_prebuilt_blocks``, so their calls
    trace the assembly alone; the blocks are built by the "coupled_blocks"
    entries, on the square too (corners; at n = 16, 52 of its 196 cells lie
    within h/2 of the boundary and take the near-field upgrade)."""
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
    square_grid, square_mesh = build_volume_grid(square, n), build_boundary_mesh(square, 4 * n)
    blocks = _prebuilt_blocks(n)
    return {
        "kernel_matrices": lambda: kernel_matrices(grid, p2),
        "kernel_matrices-3d": lambda: kernel_matrices(grid3, p3),
        "assemble_A_dense": lambda: assemble_A_dense(grid, p2, cf),
        "assemble_A_dense-3d": lambda: assemble_A_dense(grid3, p3, cf3),
        "assemble_A_dense-beta": lambda: assemble_A_dense(grid, p2, beta_only(disc, 1.0, 3.0)),
        "assemble_A1": lambda: coupled.assemble_A1(grid, p2, linear_a(disc, 1.0, 2.0, [0.5, -0.3])),
        "assemble_A1-3d": lambda: coupled.assemble_A1(
            grid3, p3, linear_a(ball, 1.0, 2.0, [0.5, -0.3, 0.2])),
        "coupled_blocks": lambda: coupled_blocks(grid, mesh, p2),
        "coupled_blocks-nystrom": lambda: coupled_blocks(grid, mesh, p2, "nystrom"),
        "coupled_blocks-square": lambda: coupled_blocks(square_grid, square_mesh, p2),
        "coupled_blocks-nystrom-tiny": lambda: coupled_blocks(coarse, mesh, p2, "nystrom"),
        "assemble_coupled": lambda: assemble_coupled(blocks[0], cf),
        "assemble_coupled-nystrom": lambda: assemble_coupled(blocks[1], cf),
        "assemble_coupled-coarse": lambda: assemble_coupled(blocks[2], cf),
        "assemble_coupled-tiny": lambda: assemble_coupled(blocks[3], cf),
        "assemble_coupled-nystrom-tiny": lambda: assemble_coupled(blocks[4], cf),
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
    """``traced_peak`` of ``call`` from cold caches."""
    kernel_matrices.cache_clear()
    return traced_peak(call)


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

    @pytest.mark.parametrize("builder", ["assemble_coupled-nystrom", "assemble_A_dense-beta"])
    def test_gathered_builds_peak_under_two_outputs(self, builder):
        # disc n = 40 from cold caches: the kernels are gathered into the output
        # in row chunks, so no (n, n) kernel matrix or separate A1 is ever alive
        disc, p2 = DomainGeometry.disc(1.0), WaveParameters(1.0, 2)
        grid, mesh = build_volume_grid(disc, 40), build_boundary_mesh(disc, 160)
        call = {"assemble_coupled-nystrom": lambda: assemble_coupled(
                    coupled_blocks(grid, mesh, p2, "nystrom"), constant_a(disc, 1.0, 2.0)),
                "assemble_A_dense-beta": lambda: assemble_A_dense(
                    grid, p2, beta_only(disc, 1.0, 3.0))}[builder]
        peak, matrix = _traced_peak(call)
        assert peak < 2 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f} outputs"

    @pytest.mark.parametrize("domain, n, even", [
        (DomainGeometry.disc(1.0), 64, ()), (DomainGeometry.disc(1.0), 192, (1,)),
        (DomainGeometry.disc(1.0), 192, (0,)), (DomainGeometry.ball(1.0), 12, (1, 2)),
        (DomainGeometry.ball(1.0), 24, ()), (DomainGeometry.ball(1.0), 32, (0, 2)),
        (DomainGeometry.ball(1.0), 48, (1, 2)), (DomainGeometry.ball(1.0), 48, (0, 1)),
    ], ids=["disc-64", "disc-192-y", "disc-192-x", "ball-12-yz", "ball-24", "ball-32-xz",
            "ball-48-yz", "ball-48-xy"])
    def test_fft_tables_estimate_tracks_peak(self, domain, n, even, monkeypatch):
        # single-chunk samplings (n <= 24 in 3D, n = 64 in 2D) peak while sampling,
        # larger ones with every hat built; the estimate bounds both within half
        grid = build_volume_grid(domain, n)
        params = WaveParameters(2.5 + 0.3j, grid.dimension)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 0)
        with pytest.raises(DenseBudgetError, match="FFT kernel tables") as refused:
            fft_kernel_tables(grid, params, even)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", refused.value.need)
        fft_kernel_tables.cache_clear()
        peak, tables = traced_peak(lambda: fft_kernel_tables(grid, params, even))
        assert not isinstance(tables, DenseBudgetError)
        assert peak <= refused.value.need <= 1.5 * peak

    def test_fft_tables_refused_before_any_kernel_evaluation(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("kernel evaluated above the budget")

        grid = build_volume_grid(DomainGeometry.ball(1.0), 24)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 2**20)
        monkeypatch.setattr(volume, "greens_value", forbidden)
        monkeypatch.setattr(volume, "greens_gradient", forbidden)
        fft_kernel_tables.cache_clear()
        peak, err = traced_peak(lambda: fft_kernel_tables(grid, WaveParameters(4.0, 3), (1, 2)))
        assert isinstance(err, DenseBudgetError) and "FFT kernel tables" in str(err)
        assert peak < 10**5

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
        # a boundary mesh large against the grid: the block builder's estimate
        # counts the (8M, M) interpolation of the near-field upgrade and its
        # complex copy, so the blocks are refused before any of them allocates
        grid = build_volume_grid(DomainGeometry.disc(1.0), 8)
        mesh = build_boundary_mesh(grid.domain, 400)
        cf = constant_a(grid.domain, 1.0, 2.0)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 18 * 2**20)
        peak, err = _traced_peak(lambda: assemble_coupled(
            coupled_blocks(grid, mesh, WaveParameters(1.0, 2), "nystrom"), cf))
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
