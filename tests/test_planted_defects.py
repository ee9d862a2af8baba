"""Planted defects: each case plants one wrong line into an operator block
and shows that the check designated for that block reports a failure.

Every case runs its check twice on a small instance (n <= 24): on the
code as it is, where the check must pass, and with the defect
monkeypatched in, where it must fail. The caches that hold operator
blocks are cleared around each case, so no planted block outlives it.
(The sign of the Nystrom K is caught by no check yet; see ROADMAP item 11.)
Where the designated check is a tier-1 test, its body is run as it stands.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import test_volume
from conftest import smooth_probe
from vielab import (
    DomainGeometry,
    WaveParameters,
    apply_A_fft,
    apply_A_smooth_form,
    assemble_coupled,
    build_boundary_mesh,
    build_volume_grid,
    constant_a,
    coupled_blocks,
    gmres_solve,
    greens_value,
    incident_plane_wave,
    smooth_bump_a,
    solve_coupled,
    trace,
)
from vielab import coupled, volume
from vielab.volume import identity_minus_A

DISC = DomainGeometry.disc(1.0)
K1 = WaveParameters(1.0, 2)


@pytest.fixture(autouse=True)
def cold_caches():
    """Operator blocks built under a planted defect are dropped afterwards."""
    def clear():
        for cached in (volume.kernel_matrices, volume.fft_kernel_tables):
            cached.cache_clear()
    clear()
    yield
    clear()


def smooth_form_decays() -> bool:
    """Criterion 3 on levels 16/24: the stencil and integrated-by-parts forms
    of A agree better on the finer grid (measured 0.097 -> 0.045)."""
    cf = smooth_bump_a(DISC, K1.k, 2.0)
    vals = []
    for n in (16, 24):
        grid = build_volume_grid(DISC, n)
        u = smooth_probe(grid.centers, seed=7)
        d = apply_A_fft(grid, K1, cf, u) - apply_A_smooth_form(grid, K1, cf, u)
        vals.append(np.linalg.norm(d) / np.linalg.norm(u))
    return vals[1] < vals[0]


def self_cell_matches_polar_quadrature() -> bool:
    """``TestSelfCellWeight``'s oracle, read from the assembled G kernel: its
    diagonal against radial quadrature of G over the cell's equivalent disc."""
    grid = build_volume_grid(DISC, 16)
    diagonal = volume.kernel_matrices(grid, K1)[0][0, 0]
    radius = grid.h / np.sqrt(np.pi)
    parts = [quad(lambda r: 2 * np.pi * r * part(greens_value(K1, r)), 0, radius,
                  points=[0.0], limit=200)[0] for part in (np.real, np.imag)]
    return abs(diagonal - complex(*parts)) <= 1e-10


def coupled_agrees_with_vie_solve() -> bool:
    """``test_coupled_solution_consistent_with_vie_solve`` on levels 12/24: the
    coupled and volume solves of one problem differ less on the finer level,
    and by under 10% (measured 0.011 -> 0.0034)."""
    cf = constant_a(DISC, K1.k, 2.0)
    diffs = []
    for n in (12, 24):
        grid, mesh = build_volume_grid(DISC, n), build_boundary_mesh(DISC, 4 * n)
        u_inc = incident_plane_wave(grid, K1, (1.0, 0.0))
        matrix = assemble_coupled(coupled_blocks(grid, mesh, K1), cf)
        u_coupled, _, _ = solve_coupled(matrix, grid, u_inc, trace(grid, mesh, u_inc))
        u_vie, info = gmres_solve(identity_minus_A(grid, K1, cf), u_inc, tol=1e-10)
        assert info.converged
        diffs.append(np.linalg.norm(u_coupled - u_vie) / np.linalg.norm(u_vie))
    return diffs[1] < diffs[0] < 0.10


def mixed_precision_solve_converges() -> bool:
    """``TestMixedPrecision``'s solve (k = 4, n = 24, a = 3, GMRES(10) to
    1e-12): complex64 Arnoldi cycles after the first restart still converge,
    because every closing residual is double (measured 8.7e-13)."""
    params = WaveParameters(4.0, 2)
    grid = build_volume_grid(DISC, 24)
    applier = volume.identity_minus_A(grid, params, constant_a(DISC, params.k, 3.0))
    u_inc = incident_plane_wave(grid, params, (1.0, 0.0))
    return gmres_solve(applier, u_inc, tol=1e-12, restart=10)[1].converged


def passes(test, *args) -> bool:
    """Whether the body of a tier-1 test passes on the code as patched now."""
    try:
        test(*args)
    except AssertionError:
        return False
    return True


def orthant_tables_pass() -> bool:
    """The 3D case of ``test_orthant_tables_equal_full_offset_sampling``: the
    sampled kernel tables bit-equal an independent sampling of every offset."""
    return passes(test_volume.TestCachedKernels().test_orthant_tables_equal_full_offset_sampling,
                  3, 10)


def fft_matches_direct_pass() -> bool:
    """``test_fft_matches_direct_with_both_contrasts`` in 2D and 3D: the FFT
    route and the system applier against direct summation, to 1e-12."""
    test = test_volume.TestApplyA().test_fft_matches_direct_with_both_contrasts
    return all(passes(test, dim, n, np.random.default_rng(1234)) for dim, n in ((2, 40), (3, 12)))


def laplace_case_pass() -> bool:
    """``test_laplace_case_is_identical`` on level 24: for a beta-only
    coefficient the stencil and integrated-by-parts forms of A bit-agree."""
    return passes(test_volume.TestSmoothForm().test_laplace_case_is_identical,
                  build_volume_grid(DISC, 24), K1, np.random.default_rng(1234))


def mirrored_matches_full_pass() -> bool:
    """``test_kept_half_matches_full_route`` in double precision on the disc
    with both axes even and on the ball with two: the applier on the kept
    half against the full FFT route, to 1e-13 (a = 3 + i, beta nonzero)."""
    test = test_volume.TestMirroredRoute().test_kept_half_matches_full_route
    return all(passes(test, domain, n, even, 3.0 + 1.0j, 6.0, np.complex128, 1e-13)
               for domain, n, even in ((DISC, 24, (0, 1)), (DomainGeometry.ball(1.0), 10, (1, 2))))


def test_negated_a1_gradient_weights_break_smooth_form(monkeypatch):
    assert smooth_form_decays()
    weights = volume.a1_weights

    def negated(*args):
        g_weight, *grad_weights = weights(*args)
        return [g_weight, *(-w for w in grad_weights)]

    for module in (volume, coupled):
        monkeypatch.setattr(module, "a1_weights", negated)
    assert not smooth_form_decays()  # measured 1.53 -> 1.54


def test_flipped_beta_sign_in_a1_weights_breaks_laplace_case(monkeypatch):
    # no coupled-system or spectrum test sees this: the laplace case is the one
    assert laplace_case_pass()
    weights = volume.a1_weights

    def beta_added(grid, params, coeffs):
        _, *grad_weights = weights(grid, params, coeffs)
        centers = grid.centers
        return [params.k ** 2 * coeffs.alpha(centers) + coeffs.beta(centers), *grad_weights]

    for module in (volume, coupled):
        monkeypatch.setattr(module, "a1_weights", beta_added)
    assert not laplace_case_pass()


def test_halved_2d_self_cell_weight_breaks_polar_quadrature(monkeypatch):
    assert self_cell_matches_polar_quadrature()
    weight = volume.self_cell_weight
    monkeypatch.setattr(volume, "self_cell_weight",
                        lambda params, h: weight(params, h) * (0.5 if params.dimension == 2 else 1))
    assert not self_cell_matches_polar_quadrature()


def test_double_layer_without_near_field_upgrade_breaks_coupled_solve(monkeypatch):
    assert coupled_agrees_with_vie_solve()
    layer = coupled.double_layer_matrix

    def far_field_only(*args, **kwargs):
        return layer(*args, **{**kwargs, "near_distance": 0})

    monkeypatch.setattr(coupled, "double_layer_matrix", far_field_only)
    assert not coupled_agrees_with_vie_solve()  # measured 2.45 -> 0.11


def test_single_precision_residuals_break_mixed_precision_solve(monkeypatch):
    assert mixed_precision_solve_converges()
    system = volume.identity_minus_A

    def all_single(*args):
        applier = system(*args)
        return lambda u: applier(np.asarray(u).astype(np.complex64))

    monkeypatch.setattr(volume, "identity_minus_A", all_single)
    assert not mixed_precision_solve_converges()  # stagnated at 1.5e-7


def test_3d_self_cell_weight_left_off_breaks_orthant_tables(monkeypatch):
    # no physics test sees this: the origin keeps the midpoint sample G(h) h^3
    assert orthant_tables_pass()
    weight = volume.self_cell_weight
    monkeypatch.setattr(volume, "self_cell_weight",
                        lambda params, h: weight(params, h) if params.dimension == 2
                        else h ** 3 * greens_value(params, h))
    assert not orthant_tables_pass()


def test_added_negative_half_block_breaks_fft_against_direct(monkeypatch):
    assert fft_matches_direct_pass()
    blocks = volume._half_blocks

    def all_added(*args):
        for index, hat_index, out_index, _ in blocks(*args):
            yield index, hat_index, out_index, False

    monkeypatch.setattr(volume, "_half_blocks", all_added)
    assert not fft_matches_direct_pass()


@pytest.mark.parametrize("defect", ["dct-on-odd-source", "unshifted-odd-product"])
def test_odd_gradient_source_defects_break_mirrored_route(monkeypatch, defect):
    # the gradient source of an even axis is odd along it: -i DST-II, one frequency up
    assert mirrored_matches_full_pass()
    if defect == "dct-on-odd-source":
        transform = volume._padded_transform
        monkeypatch.setattr(volume, "_padded_transform",
                            lambda spec, mask, src, even=(), odd=-1: transform(spec, mask, src, even))
    else:
        blocks = volume._half_blocks

        def unshifted(*args):
            for index, hat_index, _, negated in blocks(*args):
                yield index, hat_index, index, negated

        monkeypatch.setattr(volume, "_half_blocks", unshifted)
    assert not mirrored_matches_full_pass()


def test_kept_block_fold_breaks_mirrored_route(monkeypatch):
    # a fold that keeps only the kept x kept block of each stencil drops the
    # columns of the mirror images, which the rows on the mirror plane read
    assert mirrored_matches_full_pass()
    sources = volume._contrast_sources

    def kept_block(grid, coeffs, half=None):
        if half is None:
            return sources(grid, coeffs)
        alpha, beta = (f(grid.centers)[half.kept] for f in (coeffs.alpha, coeffs.beta))
        ops = [op[half.kept][:, half.kept] for op in volume.gradient_ops(grid)]
        return lambda u: (beta * u, *(alpha * (op @ u) for op in ops))

    monkeypatch.setattr(volume, "_contrast_sources", kept_block)
    assert not mirrored_matches_full_pass()  # measured 0.067 on the disc, 0.077 on the ball
