import numpy as np
import pytest

from vielab import WaveParameters, bessel_j, bessel_y, greens_gradient, greens_value

# Frozen from a 40-digit ascending-series / mpmath oracle:
#   J0(1), Y0(1) summed independently of scipy's implementation.
J0_AT_1 = 0.76519768655796655145
Y0_AT_1 = 0.08825696421567695798
INV_4PI = 0.07957747154594766788


class TestBessel:
    def test_j0_at_zero_limit(self):
        assert bessel_j(0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_j0_at_one_against_series_oracle(self):
        assert bessel_j(0, 1.0) == pytest.approx(J0_AT_1, abs=1e-9)

    def test_2d_kernel_is_quarter_i_j_plus_iy(self):
        # G_k = (i/4) H_0(k r) and its radial derivative -(i/4) k H_1(k r)
        xs = np.logspace(-1, 2, 13)
        p = WaveParameters(1.0, 2)
        h0 = bessel_j(0, xs) + 1j * bessel_y(0, xs)
        h1 = bessel_j(1, xs) + 1j * bessel_y(1, xs)
        assert np.allclose(greens_value(p, xs), 0.25j * h0, rtol=1e-14)
        radial = greens_gradient(p, np.stack([xs, np.zeros_like(xs)], axis=1))[:, 0]
        assert np.allclose(radial, -0.25j * h1, rtol=1e-14)

    def test_h0_at_one_against_oracle(self):
        h0 = bessel_j(0, 1.0) + 1j * bessel_y(0, 1.0)
        assert h0 == pytest.approx(J0_AT_1 + 1j * Y0_AT_1, abs=1e-9)
        assert greens_value(WaveParameters(1.0, 2), 1.0) == pytest.approx(
            0.25j * (J0_AT_1 + 1j * Y0_AT_1), abs=1e-9)

    def test_wronskian_identity_on_log_grid(self):
        # J_n(x) Y_n'(x) - J_n'(x) Y_n(x) = 2 / (pi x)
        xs = np.logspace(-1, 2, 40)
        for n in range(0, 9):
            jp = -bessel_j(1, xs) if n == 0 else 0.5 * (bessel_j(n - 1, xs) - bessel_j(n + 1, xs))
            yp = -bessel_y(1, xs) if n == 0 else 0.5 * (bessel_y(n - 1, xs) - bessel_y(n + 1, xs))
            w = bessel_j(n, xs) * yp - jp * bessel_y(n, xs)
            assert np.max(np.abs(w - 2 / (np.pi * xs))) < 1e-10

    def test_relative_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng_orders = (0, 1, 3, 10, 30, 60)
        xs = (0.05, 0.7, 3.0, 25.0, 180.0, 650.0)
        for order in rng_orders:
            for x in xs:
                ref_j = float(mp.besselj(order, x))
                assert bessel_j(order, x) == pytest.approx(ref_j, rel=1e-10, abs=1e-280)
                ref_y = float(mp.bessely(order, x))
                assert bessel_y(order, x) == pytest.approx(ref_y, rel=1e-10, abs=1e-280)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_y(0, 0.0)
        with pytest.raises(ValueError):
            bessel_y(0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(61, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, 701.0)


class TestWaveParameters:
    def test_decaying_k_rejected(self):
        with pytest.raises(ValueError):
            WaveParameters(1.0 - 0.5j, 2)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            WaveParameters(1.0, 4)


class TestGreensValue:
    def test_3d_static_point(self):
        p = WaveParameters(0.0, 3)
        assert greens_value(p, 1.0) == pytest.approx(INV_4PI, abs=1e-12)

    def test_3d_unit_wavenumber(self):
        p = WaveParameters(1.0, 3)
        expected = (np.cos(1.0) + 1j * np.sin(1.0)) / (4 * np.pi)
        assert greens_value(p, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_2d_is_quarter_i_hankel(self):
        p = WaveParameters(1.0, 2)
        h0 = bessel_j(0, 1.0) + 1j * bessel_y(0, 1.0)
        assert greens_value(p, 1.0) == pytest.approx(0.25j * h0, abs=1e-14)

    def test_2d_harmonic_limit(self):
        p = WaveParameters(0.0, 2)
        assert greens_value(p, np.e) == pytest.approx(-1 / (2 * np.pi), abs=1e-14)

    def test_singular_argument_rejected(self):
        with pytest.raises(ValueError):
            greens_value(WaveParameters(1.0, 2), 0.0)


class TestGreensGradient:
    def test_3d_static_gradient(self):
        p = WaveParameters(0.0, 3)
        g = greens_gradient(p, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(g, [-INV_4PI, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("k,dim,x", [
        (1.0, 3, (0.7, 0.3, 0.1)),
        (2.0, 2, (0.5, 0.5)),
        (0.0, 2, (0.4, -0.9)),
    ])
    def test_matches_finite_differences(self, k, dim, x):
        p = WaveParameters(k, dim)
        x = np.asarray(x, dtype=float)
        step = 1e-5
        grad = greens_gradient(p, x)
        for c in range(dim):
            e = np.zeros(dim)
            e[c] = step
            fd = (greens_value(p, np.linalg.norm(x + e))
                  - greens_value(p, np.linalg.norm(x - e))) / (2 * step)
            assert abs(grad[c] - fd) <= 1e-7 * max(abs(fd), 1.0)

    def test_stacked_points(self):
        p = WaveParameters(1.0, 2)
        pts = np.array([[0.3, 0.4], [1.0, 0.0]])
        g = greens_gradient(p, pts)
        assert g.shape == (2, 2)
        assert np.allclose(g[1], greens_gradient(p, pts[1]))

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            greens_gradient(WaveParameters(1.0, 2), np.zeros(2))
