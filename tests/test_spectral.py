import logging
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from vielab import (
    DomainGeometry,
    WaveParameters,
    a_to_sigma,
    assemble_A_dense,
    build_boundary_mesh,
    build_volume_grid,
    condition_sweep,
    constant_a,
    detect_clusters,
    eigenvalues_dense,
    essential_set,
    fredholm_verdict,
    linear_a,
    reflections,
    sigma_to_a,
    spectral_operator_matrix,
)
from vielab import spectral
from vielab.cli import Scenario, _spectrum_matrix
from vielab.presets import get_preset, preset_names
from vielab.spectral import (
    RESIDUAL_TOL,
    _reflection_bases,
    commuting_reflections,
    condition_estimate,
    spectral_instrument,
)


class TestEigenvaluesDense:
    def test_diagonal_matrix(self):
        vals, res = eigenvalues_dense(np.diag([1.0, 2.0, 3.0j]))
        assert np.allclose(sorted(vals, key=lambda z: (z.real, z.imag)),
                           [3.0j, 1.0, 2.0])
        assert res.max() < 1e-12

    def test_rotation_matrix(self):
        vals, _ = eigenvalues_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(np.sort(vals.imag), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(vals.real, 0.0, atol=1e-12)

    def test_trace_and_determinant(self, rng):
        m = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        vals, res = eigenvalues_dense(m)
        assert vals.sum() == pytest.approx(np.trace(m), abs=1e-8)
        assert np.prod(vals) == pytest.approx(np.linalg.det(m), rel=1e-6)
        assert res.max() < 1e-8

    def test_residuals_certified(self, rng):
        m = rng.standard_normal((100, 100))
        _, res = eigenvalues_dense(m)
        assert np.all(res <= 1e-8)

    def test_badly_scaled_input_takes_one_eigensolve(self, monkeypatch, caplog):
        def forbidden(*args, **kwargs):
            raise AssertionError("LU factorization in the eigensolve")

        monkeypatch.setattr(sla, "lu_factor", forbidden)
        m = 1e9 * np.random.default_rng(0).standard_normal((200, 200))
        with caplog.at_level(logging.WARNING, logger="vielab.spectral"):
            _, res = eigenvalues_dense(m)
        assert not caplog.records
        assert res.max() <= 1e-13 * np.linalg.norm(m, 1)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="capped"):
            eigenvalues_dense(np.zeros((7001, 7001), dtype=np.complex64))


class TestSigmaMaps:
    def test_half_maps_to_minus_one(self):
        assert sigma_to_a(0.5) == pytest.approx(-1.0)
        assert a_to_sigma(-1.0) == pytest.approx(0.5)

    def test_exact_rational_involution(self):
        for i in range(1, 21):
            sigma = Fraction(i, 21)
            assert a_to_sigma(sigma_to_a(sigma)) == sigma

    def test_complex_values(self):
        a = 3 + 1j
        assert sigma_to_a(a_to_sigma(a)) == pytest.approx(a)

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            sigma_to_a(1.0)
        with pytest.raises(ValueError):
            a_to_sigma(1.0)


def _disc_set(a, n=16):
    """The distinct points of the essential set of a on the unit disc's grid of
    n cells per axis and mesh of 4 n nodes."""
    grid, mesh = _disc_discretization(n)
    return np.unique(essential_set(grid, mesh, constant_a(grid.domain, 1.0, a)))


class TestEssentialSet:
    def test_constant_two(self):
        pred = _disc_set(2.0)
        assert np.allclose(sorted(pred, key=lambda z: z.real), [1.5, 2.0])

    def test_no_contrast(self):
        pred = _disc_set(1.0)
        assert np.allclose(pred, [1.0])

    def test_breakdown_value_predicts_zero(self):
        pred = _disc_set(-1.0)
        assert np.any(np.abs(pred) < 1e-14)
        assert np.any(np.abs(pred + 1.0) < 1e-14)

    def test_linear_coefficient_samples_both_segments(self):
        # a = 3 + 0.5 x1: a at the centres lies on I = [2.5, 3.5], (1 + a)/2 at
        # the nodes on J = (1 + I)/2 and reaches both ends (nodes at x1 = -1, 1)
        grid, mesh = _disc_discretization(16)
        pts = essential_set(grid, mesh, linear_a(grid.domain, 1.0, 3.0, np.array([0.5, 0.0])))
        cells, nodes = pts[:grid.n], pts[grid.n:]
        assert len(pts) == grid.n + mesh.m
        assert np.allclose(cells, 3.0 + 0.5 * grid.centers[:, 0], rtol=0, atol=1e-14)
        assert np.all((cells.real > 2.5) & (cells.real < 3.5))
        assert np.allclose(nodes, 2.0 + 0.25 * mesh.nodes[:, 0], rtol=0, atol=1e-14)
        assert nodes.real.min() == pytest.approx(1.75, abs=1e-14)
        assert nodes.real.max() == pytest.approx(2.25, abs=1e-14)


class TestDetectClusters:
    def test_constructed_accumulation(self):
        j = np.arange(1, 201)
        coarse = np.concatenate([2 + 1 / j[:100], 1.5 - 1j / j[:100]])
        fine = np.concatenate([2 + 1 / j, 1.5 - 1j / j])
        rep = detect_clusters(coarse, fine, 0.1)
        centers = sorted(rep.centers, key=lambda z: z.real)
        assert len(centers) == 2
        assert abs(centers[0] - 1.5) < 0.05
        assert abs(centers[1] - 2.0) < 0.05

    def test_stable_outlier_not_clustered(self):
        rng = np.random.default_rng(0)
        coarse = np.concatenate([1e-3 * rng.standard_normal(50), [5.0]])
        fine = np.concatenate([1e-3 * rng.standard_normal(150), [5.0]])
        rep = detect_clusters(coarse, fine, 0.1)
        assert len(rep.centers) == 1
        assert abs(rep.centers[0]) < 0.01
        assert rep.outside_coarse == rep.outside_fine == 1

    def test_empty_input(self):
        rep = detect_clusters(np.array([]), np.array([]), 0.1)
        assert len(rep.centers) == 0 and rep.diameter == 0.0


class TestFredholmVerdict:
    """The verdict on the unit disc's grid of 16 cells per axis and mesh of 64 nodes."""

    def test_constant_two_passes_iff(self):
        grid, mesh = _disc_discretization(16)
        v = fredholm_verdict(grid, mesh, constant_a(grid.domain, 1.0, 2.0), [0.5])
        assert v.condition_i and v.condition_ii and v.fredholm
        assert v.strength == "iff"

    def test_minus_one_fails_boundary_condition(self):
        grid, mesh = _disc_discretization(16)
        v = fredholm_verdict(grid, mesh, constant_a(grid.domain, 1.0, -1.0), [0.5])
        assert v.condition_i and not v.condition_ii

    def test_vanishing_coefficient_fails_interior_condition(self):
        grid, mesh = _disc_discretization(16)
        cf = linear_a(grid.domain, 1.0, 0.0, np.array([1.0, 0.0]))  # a = x1
        v = fredholm_verdict(grid, mesh, cf, [0.5])
        assert not v.condition_i
        assert v.strength == "sufficient-only"

    def test_near_breakdown_with_numeric_sigma_is_inconclusive(self):
        grid, mesh = _disc_discretization(16)
        sigma_interval = np.linspace(0.45, 0.55, 11)
        v = fredholm_verdict(grid, mesh, constant_a(grid.domain, 1.0, -1.01), sigma_interval)
        assert v.condition_ii and v.inconclusive


#: The breakdown sweep's coefficient values on both sides of a = -1.
SWEEP_VALUES = [-3.0, -2.0, -1.6, -1.4, -1.3, -1.2, -1.15, -1.1, -1.07, -1.05, -1.03, -1.02,
                -0.98, -0.97, -0.95, -0.9, -0.85, -0.8, -0.7, -0.6]


class TestConditionSweep:
    def test_identity_for_unit_coefficient(self, params_k1):
        records = condition_sweep(*_disc_discretization(16), params_k1, [1.0])
        assert records[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_growth_toward_breakdown(self, params_k1):
        values = [-1.4, -1.2, -1.1, -1.05]
        records = condition_sweep(*_disc_discretization(24), params_k1, values)
        conds = [c for _, c in records]
        assert all(np.isfinite(conds))
        assert conds[0] < conds[1] < conds[2] < conds[3]

    def test_sweep_equals_per_value_loop_bit_for_bit(self, unit_disc, params_k1):
        values = [-3.0, -1.3, -1.05, -0.9, 2.0]
        records = condition_sweep(*_disc_discretization(12), params_k1, values)
        assert [a for a, _ in records] == values
        symmetries = reflections(*_disc_discretization(12))
        for a_val, (_, cond) in zip(values, records):
            cf = constant_a(unit_disc, params_k1.k, a_val)
            matrix = spectral_operator_matrix(unit_disc, params_k1, cf, 12)
            assert cond == condition_estimate(matrix, symmetries)
            assert cond == pytest.approx(np.linalg.cond(matrix), rel=1e-12)

    def test_sweep_builds_coefficient_free_blocks_once(self, params_k1, monkeypatch):
        import vielab.coupled
        from vielab.volume import kernel_matrices
        built = []
        double_layer_matrix = vielab.coupled.double_layer_matrix

        def counted(*args, **kwargs):
            built.append(args)
            return double_layer_matrix(*args, **kwargs)

        monkeypatch.setattr(vielab.coupled, "double_layer_matrix", counted)
        misses = kernel_matrices.cache_info().misses
        condition_sweep(*_disc_discretization(12), params_k1, [-3.0, -2.0, -1.5, -1.2, -0.5])
        # A1 is gathered into each system: no kernel matrix is built
        assert kernel_matrices.cache_info().misses == misses + 0
        assert len(built) == 1

    def test_estimator_matches_dense_condition(self, rng):
        m = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        assert condition_estimate(m) == pytest.approx(np.linalg.cond(m), rel=1e-12)

    def test_singular_matrix_reports_inf(self):
        m = np.zeros((5, 5), dtype=complex)
        assert condition_estimate(m) == float("inf")

    def test_numerically_singular_and_nonfinite_report_inf(self):
        # s_min at numpy's matrix_rank tolerance n eps s_max counts as singular
        eps = np.finfo(float).eps
        assert condition_estimate(np.diag([1.0, 1.0, 3 * eps])) == float("inf")
        assert condition_estimate(np.diag([1.0, 1.0, 4 * eps])) == pytest.approx(1 / (4 * eps))
        m = np.eye(4, dtype=complex)
        m[1, 2] = np.nan
        assert condition_estimate(m) == float("inf")
        m[1, 2] = np.inf
        assert condition_estimate(m) == float("inf")

    @pytest.mark.parametrize("n", [12, 16])
    def test_sweep_bounded_by_eigenvalue_oracle(self, unit_disc, params_k1, n):
        # for constant a the instrument is M(a) = I + (a - 1) B, B = M(2) - M(1):
        # cond M(a) >= max|1 + alpha mu| / min|1 + alpha mu| over mu in sigma(B),
        # and M(a) is singular exactly on the discrete breakdown set a = 1 - 1/mu
        def instrument(a):
            cf = constant_a(unit_disc, params_k1.k, a)
            return spectral_operator_matrix(unit_disc, params_k1, cf, n)

        mu = np.linalg.eigvals(instrument(2.0) - instrument(1.0))
        for a_val, cond in condition_sweep(*_disc_discretization(n), params_k1, SWEEP_VALUES):
            z = np.abs(1.0 + (a_val - 1.0) * mu)
            assert cond >= z.max() / z.min()
        assert np.min(np.abs(1.0 - 1.0 / mu - (-1.0))) < 1e-3


class TestSpectralInstrument:
    def test_thm1_outside_counts_stable_center_zero(self, unit_disc, params_k1):
        # alpha == 0: the operator is compact, eigenvalues accumulate at 0
        from vielab import assemble_A_dense, beta_only
        eigs = {}
        for n in (24, 40):
            grid = build_volume_grid(unit_disc, n)
            cf = beta_only(unit_disc, params_k1.k, 3.0)
            eigs[n], _ = eigenvalues_dense(assemble_A_dense(grid, params_k1, cf))
        rep = detect_clusters(eigs[24], eigs[40], 0.05)
        assert len(rep.centers) == 1
        assert abs(rep.centers[0]) < 0.05
        assert abs(rep.outside_fine - rep.outside_coarse) <= 2

    def test_clusters_match_prediction_for_half_contrast(self, unit_disc, params_k1):
        # a = -0.5: predicted accumulation at {-0.5, 0.25}
        eigs = {}
        for n in (16, 24):
            cf = constant_a(unit_disc, params_k1.k, -0.5)
            eigs[n], _ = eigenvalues_dense(
                spectral_operator_matrix(unit_disc, params_k1, cf, n))
        rep = detect_clusters(eigs[16], eigs[24], 0.1)
        pred = _disc_set(-0.5, 24)
        for p in pred:
            assert np.min(np.abs(rep.centers - p)) < 0.1

    def test_failed_verdict_implies_elevated_condition(self, unit_disc, params_k1):
        # whenever the Fredholm verdict fails, the condition number at the
        # same discretization dwarfs the passing cases' by >= 10x
        conds, verdicts = {}, {}
        for a in (2.0, -0.5, -1.0):
            cf = constant_a(unit_disc, params_k1.k, a)
            verdicts[a] = fredholm_verdict(*_disc_discretization(16), cf, [0.5]).fredholm
            matrix = spectral_operator_matrix(unit_disc, params_k1, cf, 16, 64)
            conds[a] = condition_estimate(matrix)
        assert verdicts[2.0] and verdicts[-0.5] and not verdicts[-1.0]
        passing = max(conds[2.0], conds[-0.5])
        assert conds[-1.0] >= 10 * passing


def _disc_discretization(n):
    """The unit disc's grid of n cells per axis and mesh of 4 n nodes."""
    disc = DomainGeometry.disc(1.0)
    return build_volume_grid(disc, n), build_boundary_mesh(disc, 4 * n)


def _disc_system(n, a=2.0):
    """The spectral instrument on the unit disc (k = 1) and its reflections."""
    grid, mesh = _disc_discretization(n)
    matrix = spectral_instrument(grid, mesh, WaveParameters(1.0, 2),
                                 constant_a(grid.domain, 1.0, a))
    return matrix, reflections(grid, mesh)


def _symmetric_system(case):
    """(matrix, reflections, commuting count, block count) on the disc and
    the square (the dihedral group of the square: five blocks), the
    ellipse (two axis reflections: four blocks) and the ball (three axis
    reflections: eight blocks)."""
    if case == "ball-volume-10":
        ball = DomainGeometry.ball(1.0)
        grid = build_volume_grid(ball, 10)
        dense = assemble_A_dense(grid, WaveParameters(1.0, 3), constant_a(ball, 1.0, 2.0))
        return np.eye(grid.n) - dense, reflections(grid), 3, 8
    if case == "disc-coupled-24":
        return _disc_system(24) + (3, 5)
    domain = {"square-coupled-24": DomainGeometry.polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]]),
              "ellipse-coupled-24": DomainGeometry.ellipse((1.0, 0.6))}[case]
    grid, mesh = build_volume_grid(domain, 24), build_boundary_mesh(domain, 96)
    counts = (3, 5) if case == "square-coupled-24" else (2, 4)
    matrix = spectral_instrument(grid, mesh, WaveParameters(1.0, 2), constant_a(domain, 1.0, 2.0))
    return (matrix, reflections(grid, mesh)) + counts


def _matched_distance(a, b):
    """Largest distance of the best one-to-one matching of two eigenvalue sets."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _columns(basis, n):
    """A basis (cols, vals) as a dense (n, n_chi) matrix."""
    cols, vals = basis
    q = np.zeros((n, len(cols)))
    for s in range(cols.shape[1]):
        np.add.at(q, (cols[:, s], np.arange(len(cols))), vals[:, s])
    return q


class TestReflectionBlocks:
    @pytest.mark.parametrize("case", ["disc-coupled-24", "square-coupled-24",
                                      "ellipse-coupled-24", "ball-volume-10"])
    def test_blocked_eigenvalues_match_unblocked(self, case):
        matrix, symmetries, count, blocks = _symmetric_system(case)
        assert len(commuting_reflections(matrix, symmetries)) == count
        assert len(_reflection_bases(matrix, symmetries)) == blocks
        plain, _ = eigenvalues_dense(matrix)
        vals, res = eigenvalues_dense(matrix, symmetries)
        assert len(vals) == len(matrix)
        assert _matched_distance(vals, plain) <= 1e-12 * np.abs(plain).max()
        assert res.max() <= RESIDUAL_TOL * np.linalg.norm(matrix, 1)
        cond = condition_estimate(matrix, symmetries)
        assert cond == pytest.approx(np.linalg.cond(matrix), rel=1e-12)

    def test_residuals_are_against_the_full_matrix(self, monkeypatch):
        # a defect the tolerance lets through keeps the reflections and shows
        # in the residuals: the blocks drop it, the residuals do not
        matrix, symmetries = _disc_system(16)
        _, clean = eigenvalues_dense(matrix, symmetries)
        monkeypatch.setattr(spectral, "SYMMETRY_TOL", 1e-3)
        matrix[0, 5] += 1e-4
        assert len(commuting_reflections(matrix, symmetries)) == 3
        _, res = eigenvalues_dense(matrix, symmetries)
        assert clean.max() < 1e-13 and res.max() > 1e-6

    def test_partner_residuals_are_computed_not_copied(self, monkeypatch):
        # E = e_0 v^T with v in the partner class vanishes on every other class:
        # no block sees it, and only the partner's own residuals do
        matrix, symmetries = _disc_system(16)
        n = len(matrix)
        monkeypatch.setattr(spectral, "SYMMETRY_TOL", 1e-3)
        (basis, partner), = [pair for pair in _reflection_bases(matrix, symmetries)
                             if pair[1] is not None]
        matrix[0] += 1e-4 * np.abs(matrix).max() * _columns(partner, n)[:, 0]
        assert len(commuting_reflections(matrix, symmetries)) == 3
        bound = 1e-13 * np.linalg.norm(matrix, 1)
        for pair in _reflection_bases(matrix, symmetries):
            vals, res = spectral._certified_eigenpairs(matrix, *pair)
            if pair[1] is None:
                assert res.max() < bound
            else:
                w = len(pair[0][0])
                assert np.array_equal(vals[:w], vals[w:])
                assert res[:w].max() < bound and res[w:].max() > 1e-6
        assert eigenvalues_dense(matrix, symmetries)[1].max() > 1e-6

    def test_paired_eigenvalues_appear_exactly_twice(self):
        matrix, symmetries = _disc_system(16)
        (basis, _), = [pair for pair in _reflection_bases(matrix, symmetries)
                       if pair[1] is not None]
        vals, _ = eigenvalues_dense(matrix, symmetries)
        _, counts = np.unique(vals, return_counts=True)
        assert counts.max() == 2 and np.sum(counts == 2) == len(basis[0])
        assert len(vals) == len(matrix) and np.sum(counts) == len(matrix)

    def test_perturbed_entry_drops_reflections_bit_for_bit(self):
        matrix, symmetries = _disc_system(16)
        matrix[0, 5] += 1e-6
        assert commuting_reflections(matrix, symmetries) == []
        vals, res = eigenvalues_dense(matrix, symmetries)
        plain_vals, plain_res = eigenvalues_dense(matrix)
        assert np.array_equal(vals, plain_vals) and np.array_equal(res, plain_res)
        # one LAPACK eigensolve of the whole matrix, residuals from its eigenvectors
        ref_vals, vecs = sla.eig(matrix)
        ref_res = np.linalg.norm(matrix @ vecs - vecs * ref_vals[None, :], axis=0)
        ref_res /= np.linalg.norm(vecs, axis=0)
        order = np.lexsort((ref_vals.imag, ref_vals.real))
        assert np.array_equal(vals, ref_vals[order]) and np.array_equal(res, ref_res[order])
        assert condition_estimate(matrix, symmetries) == condition_estimate(matrix)

    def test_bases_are_orthonormal_and_complete(self):
        matrix, symmetries = _disc_system(12)
        n = len(matrix)
        pairs = _reflection_bases(matrix, symmetries)
        assert [partner is not None for _, partner in pairs] == [False] * 4 + [True]
        columns = [_columns(basis, n) for pair in pairs for basis in pair if basis is not None]
        q = np.hstack(columns)
        assert q.shape == (n, n)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14
        # the blocks of Q^T M Q outside the diagonal vanish, and the paired
        # classes have the same block
        blocked = q.T @ matrix @ q
        diagonal, start = [], 0
        for block in columns:
            stop = start + block.shape[1]
            diagonal.append(blocked[start:stop, start:stop].copy())
            blocked[start:stop, start:stop] = 0.0
            start = stop
        assert np.abs(blocked).max() <= 1e-12 * np.abs(matrix).max()
        assert np.abs(diagonal[4] - diagonal[5]).max() <= 1e-12 * np.abs(matrix).max()

    def test_invalid_permutations_rejected(self):
        matrix, symmetries = _disc_system(12)
        with pytest.raises(ValueError, match="involution"):
            eigenvalues_dense(matrix, [symmetries[0][:-1]])
        with pytest.raises(ValueError, match="involution"):
            condition_estimate(matrix, [np.roll(np.arange(len(matrix)), 1)])

    @pytest.mark.parametrize("perms", [
        [[1, 0, 2], [0, 2, 1]],                        # the triangle's group, order 6
        [[0, 4, 3, 2, 1], [1, 0, 4, 3, 2]],            # the pentagon's, order 10
        [[1, 0, 3, 2, 4, 5, 6, 7], [0, 1, 2, 3, 5, 4, 7, 6],
         [0, 2, 1, 3, 4, 5, 6, 7]],                    # the square's times a reflection, 16
    ])
    def test_unsupported_group_rejected(self, perms):
        # a matrix every permutation commutes with
        n = len(perms[0])
        matrix = np.ones((n, n)) + np.eye(n)
        with pytest.raises(ValueError, match="dihedral group of the square"):
            eigenvalues_dense(matrix, [np.array(p) for p in perms])


class TestRouteGuard:
    """Every shipped spectrum preset level and the breakdown sweep keep the
    three reflections of the square's dihedral group and split into five
    blocks, so a silent fall back to fewer blocks fails here."""

    @pytest.mark.parametrize("preset", [name for name in preset_names()
                                        if get_preset(name)["task"] == "spectrum"])
    def test_spectrum_preset_levels_split_into_five_blocks(self, preset):
        cfg = get_preset(preset)
        scenario = Scenario(cfg, "spectrum")
        for level in cfg["spectrum"]["levels"]:
            matrix, symmetries, _, _ = _spectrum_matrix(scenario, level)
            assert len(commuting_reflections(matrix, symmetries)) == 3, (preset, level)
            assert len(_reflection_bases(matrix, symmetries)) == 5, (preset, level)

    def test_breakdown_sweep_splits_into_five_blocks(self):
        scenario = Scenario(get_preset("breakdown-sweep"), "sweep")
        grid, mesh = scenario.grid(), scenario.mesh()
        for a_val in (-3.0, -1.05, -0.6):
            system = spectral_instrument(grid, mesh, scenario.params,
                                         constant_a(scenario.domain, scenario.params.k, a_val))
            assert len(commuting_reflections(system, reflections(grid, mesh))) == 3
            assert len(_reflection_bases(system, reflections(grid, mesh))) == 5
