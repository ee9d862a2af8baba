"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test records a PASS/FAIL line (echoed in the terminal summary) so a
full run doubles as the acceptance report.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, smooth_probe
from vielab import (
    DomainGeometry,
    WaveParameters,
    a_to_sigma,
    apply_A,
    apply_A_fft,
    apply_A_smooth_form,
    assemble_A_dense,
    assemble_K,
    assemble_coupled,
    beta_only,
    build_boundary_mesh,
    build_volume_grid,
    check_equivalence,
    condition_sweep,
    constant_a,
    coupled_blocks,
    detect_clusters,
    eigenvalues_dense,
    essential_set,
    gmres_solve,
    incident_plane_wave,
    jump_relation_check,
    mie_reference_disc,
    newton_potential,
    sigma_to_a,
    smooth_bump_a,
    solve_coupled,
    spectral_operator_matrix,
)
from vielab.boundary import trace_matrix
from vielab.volume import discrete_laplacian, identity_minus_A


def record(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{number:2d}] {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def disc():
    return DomainGeometry.disc(1.0)


@pytest.fixture(scope="module")
def k1():
    return WaveParameters(1.0, 2)


def test_criterion_01_newton_potential_residual_decay(disc, k1):
    # smooth bump v on the unit disc, k=1: the discrete Helmholtz residual
    # of the volume potential decreases monotonically across n = 32, 64, 128
    residuals = []
    for n in (32, 64, 128):
        grid = build_volume_grid(disc, n)
        r2 = (grid.centers ** 2).sum(axis=1) / 0.8 ** 2
        v = np.where(r2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - r2, 1e-12)), 0.0) + 0j
        pot = newton_potential(grid, k1, v)
        lap, interior = discrete_laplacian(grid, pot)
        res = lap + k1.k ** 2 * pot + v
        residuals.append(float(np.abs(res[interior]).max() / np.abs(v).max()))
    ok = residuals[0] > residuals[1] > residuals[2]
    record(1, "volume-potential residual decay", ok,
           "residuals " + " > ".join(f"{r:.3e}" for r in residuals))


def test_criterion_02_compact_operator_count_stability(disc, k1):
    # alpha = 0, beta = 3 * smoothed indicator: the count of eigenvalues of
    # the contrast operator with |lambda| > 0.05 changes by <= 2 while the
    # unknown count grows by >= 2.5x
    counts, sizes = {}, {}
    for n in (24, 40):
        grid = build_volume_grid(disc, n)
        cf = beta_only(disc, k1.k, 3.0, r_plateau=0.7, r_cut=0.95)
        vals, _ = eigenvalues_dense(assemble_A_dense(grid, k1, cf))
        counts[n] = int(np.sum(np.abs(vals) > 0.05))
        sizes[n] = grid.n
    growth = sizes[40] / sizes[24]
    change = abs(counts[40] - counts[24])
    ok = change <= 2 and growth >= 2.5
    record(2, "compact-regime count stability", ok,
           f"counts {counts[24]} -> {counts[40]} (change {change}), N growth {growth:.2f}x")


def test_criterion_03_smooth_form_equivalence(disc, k1):
    # a = 1 + 2(1-|x|^2)^2: stencil and integrated-by-parts forms agree
    # increasingly well under refinement (band-limited random field)
    cf = smooth_bump_a(disc, k1.k, 2.0)
    vals = []
    for n in (32, 64, 128):
        grid = build_volume_grid(disc, n)
        u = smooth_probe(grid.centers, seed=7)
        d = apply_A_fft(grid, k1, cf, u) - apply_A_smooth_form(grid, k1, cf, u)
        vals.append(float(np.linalg.norm(d) / np.linalg.norm(u)))
    ok = vals[0] > vals[1] > vals[2]
    record(3, "smooth-form equivalence decay", ok,
           "mismatch " + " > ".join(f"{v:.3e}" for v in vals))


def test_criterion_04_jump_relation_and_harmonic_identities(disc):
    mesh = build_boundary_mesh(disc, 256)
    th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    worst = 0.0
    for k in (0.0, 1.0):
        p = WaveParameters(k, 2)
        for phi in (np.ones(256, complex), np.exp(1j * th), np.exp(3j * th)):
            worst = max(worst, jump_relation_check(mesh, p, phi))
    k_mat = assemble_K(mesh, WaveParameters(0.0, 2))
    const_ev = np.abs(np.abs(k_mat @ np.ones(256)) - 0.5).max()
    mode_err = max(np.abs(k_mat @ np.exp(1j * m * th)).max() for m in range(1, 9))
    ok = worst <= 1e-3 and const_ev <= 1e-10 and mode_err <= 1e-10
    record(4, "jump relation + harmonic K identities", ok,
           f"jump {worst:.2e} <= 1e-3, |K 1| dev {const_ev:.1e}, modes {mode_err:.1e}")


def test_criterion_05_coupled_equivalence(disc, k1):
    grid = build_volume_grid(disc, 32)
    mesh = build_boundary_mesh(disc, 128)
    cf = constant_a(disc, k1.k, 2.0)
    matrix = assemble_coupled(coupled_blocks(grid, mesh, k1), cf)
    u_inc = incident_plane_wave(grid, k1, (1.0, 0.0))
    traces = trace_matrix(grid, mesh)
    psi = traces @ u_inc
    u, phi, _ = solve_coupled(matrix, grid, u_inc, psi)
    rel = check_equivalence(u, phi, traces) / float(np.abs(phi).max())
    u2, phi2, _ = solve_coupled(matrix, grid, u_inc, psi + 1.0)
    rel2 = check_equivalence(u2, phi2, traces) / float(np.abs(phi2).max())
    ok = rel <= 1e-8 and rel2 > 1e-3
    record(5, "boundary-domain equivalence", ok,
           f"trace defect {rel:.2e} <= 1e-8; perturbed defect {rel2:.2e} > 1e-3")


def test_criterion_06_transmission_series_agreement(disc, k1):
    mie = mie_reference_disc(1.0, k1, 2.0, 2.0)
    errs = {}
    for n in (64, 128):
        grid = build_volume_grid(disc, n)
        cf = constant_a(disc, k1.k, 2.0, k2_inside=2.0)
        u_inc = incident_plane_wave(grid, k1, (1.0, 0.0))
        u, info = gmres_solve(identity_minus_A(grid, k1, cf), u_inc, tol=1e-8)
        assert info.converged
        ref = mie.total_field(grid.centers)
        errs[n] = float(np.linalg.norm(u - ref) / np.linalg.norm(ref))
    ok = errs[64] <= 0.02 and errs[128] <= 0.01
    record(6, "transmission-series field agreement", ok,
           f"rel l2 error {errs[64]:.4f} <= 2% (n=64), {errs[128]:.4f} <= 1% (n=128)")


@pytest.mark.parametrize("a_val,expected", [(2.0, (2.0, 1.5)),
                                            (3 + 1j, (3 + 1j, 2 + 0.5j))])
def test_criterion_07_cluster_prediction(disc, k1, a_val, expected):
    eigs = {}
    for n in (24, 40):
        cf = constant_a(disc, k1.k, a_val)
        matrix = spectral_operator_matrix(disc, k1, cf, n)
        eigs[n], _ = eigenvalues_dense(matrix)
    rep = detect_clusters(eigs[24], eigs[40], 0.1)
    # the set sampled on the fine level's grid and mesh
    pred = np.unique(essential_set(build_volume_grid(disc, 40), build_boundary_mesh(disc, 160),
                                   cf))
    assert np.allclose(sorted(pred, key=lambda z: z.real),
                       sorted(expected, key=lambda z: z.real))
    matched = all(np.min(np.abs(rep.centers - p)) <= 0.1 for p in pred)
    covered = all(np.min(np.abs(pred - c)) <= 0.1 for c in rep.centers)
    stable = abs(rep.outside_fine - rep.outside_coarse) <= 2
    ok = matched and covered and stable
    record(7, f"cluster prediction a={a_val}", ok,
           f"centers {np.round(rep.centers, 3)} vs predicted {np.round(pred, 3)}; "
           f"outside {rep.outside_coarse} -> {rep.outside_fine}")


def test_criterion_08_breakdown_condition_growth(disc, k1):
    records = condition_sweep(build_volume_grid(disc, 24), build_boundary_mesh(disc, 96), k1,
                              [-3.0, -1.4, -1.2, -1.1, -1.05])
    conds = {complex(a): c for a, c in records}
    seq = [conds[complex(a)] for a in (-1.4, -1.2, -1.1, -1.05)]
    monotone = all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))
    ratio = conds[-1.05 + 0j] / conds[-3.0 + 0j]
    ok = monotone and ratio >= 10.0
    record(8, "breakdown conditioning sweep", ok,
           f"monotone {monotone}; cond(-1.05)/cond(-3) = {ratio:.1f} >= 10")


def test_criterion_09_corner_widens_accumulation(disc):
    square = DomainGeometry.polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    p0 = WaveParameters(0.0, 2)
    reports = {}
    for name, dom in (("circle", disc), ("square", square)):
        eigs = {}
        for m in (128, 256):
            mesh = build_boundary_mesh(dom, m, grading=3.0)
            k_mat = assemble_K(mesh, p0)
            eigs[m], _ = eigenvalues_dense(0.5 * np.eye(mesh.m) - k_mat)
        reports[name] = detect_clusters(eigs[128], eigs[256], 0.05)
    d_circle = reports["circle"].diameter
    d_square = reports["square"].diameter
    both_contain = all(len(rep.clustered_fine) and np.min(np.abs(rep.clustered_fine - 0.5))
                       <= rep.delta for rep in reports.values())
    ok = d_square >= 3.0 * max(d_circle, 1e-12) and both_contain
    record(9, "corner widens the essential set", ok,
           f"diameters: square {d_square:.3f} vs circle {d_circle:.2e}; both contain 1/2: "
           f"{both_contain}")


def test_criterion_10_fft_correctness_and_scaling(disc, k1, rng):
    grid = build_volume_grid(disc, 32)
    cf = constant_a(disc, k1.k, 2.0 + 0.5j)
    u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    direct = apply_A(grid, k1, cf, u)
    fast = apply_A_fft(grid, k1, cf, u)
    rel = float(np.linalg.norm(direct - fast) / np.linalg.norm(direct))

    times = {}
    for n in (64, 128):
        g = build_volume_grid(disc, n)
        cfn = constant_a(disc, k1.k, 2.0)
        un = np.ones(g.n, dtype=complex)
        apply_A_fft(g, k1, cfn, un)  # warm the kernel tables
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            apply_A_fft(g, k1, cfn, un)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    factor = times[128] / times[64]
    ok = rel <= 1e-10 and factor < 8.0
    record(10, "FFT correctness and scaling", ok,
           f"agreement {rel:.2e} <= 1e-10; 4x unknowns -> {factor:.2f}x time < 8x")


def test_criterion_11_coefficient_symbol_maps():
    exact = True
    for i in range(1, 21):
        sigma = Fraction(i, 21)
        if a_to_sigma(sigma_to_a(sigma)) != sigma:
            exact = False
    half_ok = sigma_to_a(Fraction(1, 2)) == -1
    ok = exact and half_ok
    record(11, "sigma <-> a involution", ok,
           f"20 exact rational round trips: {exact}; sigma=1/2 -> a=-1: {half_ok}")
