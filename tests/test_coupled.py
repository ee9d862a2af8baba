import numpy as np
import pytest

from conftest import kernel_matrix_operators, random_field, smooth_probe
from vielab import (
    assemble_A1,
    assemble_A_dense,
    assemble_coupled,
    beta_only,
    build_boundary_mesh,
    build_volume_grid,
    check_equivalence,
    constant_a,
    coupled_blocks,
    detect_clusters,
    eigenvalues_dense,
    incident_plane_wave,
    linear_a,
    quadrature_weighted_matrix,
    smooth_bump_a,
    solve_coupled,
)
from vielab import coupled
from vielab.boundary import trace, trace_matrix
from vielab.coupled import NEAR_SINGULAR_RCOND
from vielab.volume import apply_A_smooth_form, identity_minus_A


@pytest.fixture(scope="module")
def setup32(unit_disc, params_k1):
    grid = build_volume_grid(unit_disc, 32)
    mesh = build_boundary_mesh(unit_disc, 128)
    cf = constant_a(unit_disc, params_k1.k, 2.0)
    return grid, mesh, cf


class TestAssembleA1:
    def test_zero_contrasts_give_zero_matrix(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 16)
        cf = constant_a(unit_disc, params_k1.k, 1.0)
        assert np.all(assemble_A1(grid, params_k1, cf) == 0)

    def test_split_reassembly_consistency_decays(self, unit_disc, params_k1):
        # I - A (stencil route) vs a*I + A1 + D gamma(alpha .) on smooth fields
        from vielab.boundary import double_layer_matrix, trace_matrix
        vals = []
        for n in (24, 48):
            grid = build_volume_grid(unit_disc, n)
            mesh = build_boundary_mesh(unit_disc, 4 * n)
            cf = constant_a(unit_disc, params_k1.k, 2.0)
            m1 = np.eye(grid.n) - assemble_A_dense(grid, params_k1, cf)
            t = trace_matrix(grid, mesh).toarray()
            dl = double_layer_matrix(mesh, params_k1, grid.centers,
                                     near_distance=0.5 * grid.h)
            alpha = cf.alpha(mesh.nodes)
            m2 = np.diag(1.0 + cf.alpha(grid.centers)) \
                + assemble_A1(grid, params_k1, cf) \
                + (dl * alpha[None, :]) @ t
            u = smooth_probe(grid.centers)
            vals.append(np.linalg.norm((m1 - m2) @ u) / np.linalg.norm(u))
        assert vals[1] < vals[0]

    def test_smooth_form_is_minus_alpha_minus_A1(self, unit_disc, params_k1, rng):
        # both read the weights of volume.a1_weights: A u = -alpha u - A1 u
        grid = build_volume_grid(unit_disc, 24)
        cf = smooth_bump_a(unit_disc, params_k1.k, 2.0)
        u = random_field(grid.n, rng)
        ref = -cf.alpha(grid.centers) * u - assemble_A1(grid, params_k1, cf) @ u
        got = apply_A_smooth_form(grid, params_k1, cf, u)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-13

    def test_compactness_signature(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 32)
        cf = constant_a(unit_disc, params_k1.k, 2.0)
        s = np.linalg.svd(assemble_A1(grid, params_k1, cf), compute_uv=False)
        assert s[19] / s[0] <= 0.1


def _four_block_reference(grid, mesh, params, coeffs, variant):
    """The system glued from its four blocks with np.block around the A1 of
    the dense kernel matrices, the construction the in-place assembly must
    reproduce bit for bit."""
    blocks = coupled_blocks(grid, mesh, params, variant)
    t_mat, dl, k_mat = blocks.trace, blocks.double_layer, blocks.K
    a1, _ = kernel_matrix_operators(grid, params, coeffs)
    alpha_nodes = coeffs.alpha(mesh.nodes)
    a_nodes = 1.0 + alpha_nodes
    a_cells = 1.0 + coeffs.alpha(grid.centers)
    b11 = a1 + np.diag(a_cells)
    b12 = dl * alpha_nodes[None, :]
    b21 = t_mat @ a1
    b22 = 0.5 * np.diag(1.0 + a_nodes).astype(np.complex128) + k_mat * alpha_nodes[None, :]
    return np.block([[b11, b12], [b21, b22]])


class TestAssembleCoupled:
    def test_no_contrast_gives_identity(self, unit_disc, params_k1):
        grid = build_volume_grid(unit_disc, 16)
        mesh = build_boundary_mesh(unit_disc, 64)
        cf = constant_a(unit_disc, params_k1.k, 1.0)
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        assert np.allclose(matrix, np.eye(grid.n + mesh.m), atol=1e-14)

    def test_boundary_block_form_for_constant_alpha(self, setup32, params_k1):
        grid, mesh, cf = setup32
        blocks = coupled_blocks(grid, mesh, params_k1)
        matrix, k_mat = assemble_coupled(blocks, cf), blocks.K
        alpha = 1.0  # a = 2
        expected = 0.5 * np.diag(np.full(mesh.m, 3.0)) + alpha * k_mat
        assert np.array_equal(matrix[grid.n:, grid.n:], expected)

    @pytest.mark.parametrize("variant", ["trace-consistent", "nystrom"])
    @pytest.mark.parametrize("field", ["a=2", "a=-0.5", "a=3+i", "beta-only", "linear-a",
                                       "smooth-bump"])
    def test_equals_four_block_construction(self, setup32, params_k1, unit_disc,
                                            variant, field):
        # the gathered system and A equal the kernel-matrix construction bit for
        # bit where the coefficient is piecewise constant (one kernel); with
        # gradient weights they are held to 1e-14 of the largest entry
        # (measured: bit for bit too)
        grid, mesh, _ = setup32
        cf = {"a=2": lambda: constant_a(unit_disc, params_k1.k, 2.0),
              "a=-0.5": lambda: constant_a(unit_disc, params_k1.k, -0.5),
              "a=3+i": lambda: constant_a(unit_disc, params_k1.k, 3.0 + 1.0j),
              "beta-only": lambda: beta_only(unit_disc, params_k1.k, 3.0),
              "linear-a": lambda: linear_a(unit_disc, params_k1.k, 2.0,
                                           np.array([0.5, -0.3])),
              "smooth-bump": lambda: smooth_bump_a(unit_disc, params_k1.k, 2.0)}[field]()
        pairs = [(assemble_coupled(coupled_blocks(grid, mesh, params_k1, variant), cf),
                  _four_block_reference(grid, mesh, params_k1, cf, variant)),
                 (assemble_A_dense(grid, params_k1, cf),
                  kernel_matrix_operators(grid, params_k1, cf)[1])]
        for got, ref in pairs:
            if field in ("linear-a", "smooth-bump"):
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            else:
                assert np.array_equal(got, ref)

    def test_sweep_builds_blocks_once_and_read_only(self, setup32, params_k1, monkeypatch):
        # the blocks are built by the caller that reuses them: a three-value
        # sweep builds K, the double layer and the trace once, and every
        # system is assembled from the same read-only blocks
        from vielab import condition_sweep, spectral
        grid, mesh, _ = setup32
        builds, seen = [], []
        for name in ("assemble_K", "double_layer_matrix", "trace_matrix"):
            def counted(*args, _name=name, _build=getattr(coupled, name), **kwargs):
                builds.append(_name)
                return _build(*args, **kwargs)
            monkeypatch.setattr(coupled, name, counted)

        def recorded(blocks, coeffs, _assemble=spectral.assemble_coupled):
            seen.append(blocks)
            return _assemble(blocks, coeffs)

        monkeypatch.setattr(spectral, "assemble_coupled", recorded)
        condition_sweep(grid, mesh, params_k1, [-3.0, -1.5, 2.0])
        assert sorted(builds) == ["assemble_K", "double_layer_matrix", "trace_matrix"]
        assert len(seen) == 3 and all(blocks is seen[0] for blocks in seen)
        assert seen[0].grid is grid and seen[0].mesh is mesh and seen[0].params == params_k1
        for block in (seen[0].trace, seen[0].double_layer, seen[0].K):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0

    def test_solvability_smoke(self, setup32, params_k1):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        psi = trace(grid, mesh, u_inc)
        u, phi, rcond = solve_coupled(matrix, grid, u_inc, psi)
        rhs = np.concatenate([u_inc, psi])
        res = np.linalg.norm(matrix @ np.concatenate([u, phi]) - rhs)
        assert res / np.linalg.norm(rhs) < 1e-10
        assert rcond >= NEAR_SINGULAR_RCOND

    def test_near_singular_solve_warns(self, setup32, params_k1, caplog):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        matrix[0] *= 1e-20
        rhs = np.ones(len(matrix), complex)
        with caplog.at_level("WARNING", logger="vielab.coupled"):
            _, _, rcond = solve_coupled(matrix, grid, rhs[:grid.n], rhs[grid.n:])
        assert rcond < NEAR_SINGULAR_RCOND
        assert "near singular" in caplog.text

    def test_unknown_variant_rejected(self, setup32, params_k1):
        grid, mesh, cf = setup32
        with pytest.raises(ValueError, match="boundary operator"):
            coupled_blocks(grid, mesh, params_k1, boundary_operator="magic")


class TestEquivalence:
    def test_zero_data_zero_solution(self, setup32, params_k1):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        u, phi, _ = solve_coupled(matrix, grid, np.zeros(grid.n, complex),
                                  np.zeros(mesh.m, complex))
        assert np.abs(u).max() == 0 and np.abs(phi).max() == 0

    def test_trace_equivalence_to_solver_precision(self, setup32, params_k1):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        traces = trace_matrix(grid, mesh)
        u, phi, _ = solve_coupled(matrix, grid, u_inc, traces @ u_inc)
        assert check_equivalence(u, phi, traces) / np.abs(phi).max() <= 1e-8

    def test_perturbed_psi_breaks_equivalence(self, setup32, params_k1):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
        traces = trace_matrix(grid, mesh)
        u, phi, _ = solve_coupled(matrix, grid, u_inc, traces @ u_inc + 1.0)
        assert check_equivalence(u, phi, traces) / np.abs(phi).max() > 1e-3

    def test_check_equivalence_vanishes_on_exact_trace(self, setup32, params_k1, rng):
        grid, mesh, cf = setup32
        u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        phi = trace(grid, mesh, u)
        assert check_equivalence(u, phi, trace_matrix(grid, mesh)) == 0.0

    def test_coupled_solution_consistent_with_vie_solve(self, unit_disc, params_k1):
        # two discretizations of one continuum problem: difference decays
        from vielab import gmres_solve
        diffs = []
        for n in (16, 32):
            grid = build_volume_grid(unit_disc, n)
            mesh = build_boundary_mesh(unit_disc, 4 * n)
            cf = constant_a(unit_disc, params_k1.k, 2.0)
            matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
            u_inc = incident_plane_wave(grid, params_k1, (1.0, 0.0))
            psi = trace(grid, mesh, u_inc)
            u_coupled, _, _ = solve_coupled(matrix, grid, u_inc, psi)
            u_vie, info = gmres_solve(identity_minus_A(grid, params_k1, cf),
                                      u_inc, tol=1e-10)
            assert info.converged
            diffs.append(np.linalg.norm(u_coupled - u_vie) / np.linalg.norm(u_vie))
        assert diffs[1] < diffs[0] < 0.10

    def test_rhs_size_validated(self, setup32, params_k1):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1), cf)
        with pytest.raises(ValueError):
            solve_coupled(matrix, grid, np.zeros(3, complex), np.zeros(mesh.m, complex))
        # the right total length, split at the wrong place
        with pytest.raises(ValueError):
            solve_coupled(matrix, grid, np.zeros(grid.n - 1, complex),
                          np.zeros(mesh.m + 1, complex))


def reduced_coupled_matrix(grid, mesh, params, coeffs):
    """The Nystrom system with A1, the trace coupling, and [K, alpha]
    replaced by zero: upper triangular, so its spectrum carries only the
    diagonal symbols."""
    blocks = coupled_blocks(grid, mesh, params, "nystrom")
    dl, k_mat = blocks.double_layer, blocks.K
    n = grid.n
    alpha_nodes = coeffs.alpha(mesh.nodes)
    out = np.zeros((n + mesh.m, n + mesh.m), dtype=np.complex128)
    out[:n, :n] = np.diag(1.0 + coeffs.alpha(grid.centers))
    out[:n, n:] = dl * alpha_nodes[None, :]
    out[n:, n:] = 0.5 * np.diag(1.0 + (1.0 + alpha_nodes)) + alpha_nodes[:, None] * k_mat
    return out


class TestStructure:
    def test_full_vs_reduced_cluster_centers(self, unit_disc, params_k1):
        # dropping A1, the trace coupling, and the commutator moves each
        # cluster center by less than 0.05
        eigs_full, eigs_reduced = {}, {}
        for n in (16, 24):
            grid = build_volume_grid(unit_disc, n)
            mesh = build_boundary_mesh(unit_disc, 4 * n)
            cf = constant_a(unit_disc, params_k1.k, 2.0)
            eigs_full[n], _ = eigenvalues_dense(assemble_coupled(
                coupled_blocks(grid, mesh, params_k1, "nystrom"), cf))
            eigs_reduced[n], _ = eigenvalues_dense(
                reduced_coupled_matrix(grid, mesh, params_k1, cf))
        rep_full = detect_clusters(eigs_full[16], eigs_full[24], 0.1)
        rep_red = detect_clusters(eigs_reduced[16], eigs_reduced[24], 0.1)
        for c in rep_full.centers:
            assert np.min(np.abs(rep_red.centers - c)) < 0.05

    def test_weighted_similarity_preserves_eigenvalues(self, setup32, params_k1):
        grid, mesh, cf = setup32
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params_k1, "nystrom"), cf)
        e1 = np.sort_complex(np.linalg.eigvals(matrix))  # before the in-place weighting
        w = quadrature_weighted_matrix(matrix, grid, mesh)
        e2 = np.sort_complex(np.linalg.eigvals(w))
        assert np.abs(e1 - e2).max() < 1e-8 * np.abs(e1).max()
