import numpy as np
import pytest
from scipy.special import jv, yv

from vielab import WaveParameters, greens_gradient, greens_value
from vielab.scattering import _dh, _dj

# Frozen from a 40-digit ascending-series / mpmath oracle:
#   J0(1), Y0(1) summed independently of scipy's implementation.
J0_AT_1 = 0.76519768655796655145
Y0_AT_1 = 0.08825696421567695798
INV_4PI = 0.07957747154594766788


def _hankel_pair(k, xs):
    # H_0(k r) and H_1(k r) read back from the 2D kernels at r = xs / k
    r = np.asarray(xs, dtype=float) / k
    p = WaveParameters(k, 2)
    h0 = -4j * greens_value(p, r)
    radial = greens_gradient(p, np.stack([r, np.zeros_like(r)], axis=-1))[..., 0]
    return h0, 4j * radial / k


class TestBessel:
    def test_j0_at_zero_limit(self):
        h0, _ = _hankel_pair(1.0, 1e-12)
        assert h0.real == pytest.approx(1.0, abs=1e-12)

    def test_j0_at_one_against_series_oracle(self):
        # k r = 1 reached through k = 2, r = 1/2
        h0, _ = _hankel_pair(2.0, 1.0)
        assert h0.real == pytest.approx(J0_AT_1, abs=1e-9)

    def test_wronskian_identity_on_log_grid(self):
        # J_0(x) Y_0'(x) - J_0'(x) Y_0(x) = J_1(x) Y_0(x) - J_0(x) Y_1(x) = 2 / (pi x)
        xs = np.logspace(-1, 2, 40)
        h0, h1 = _hankel_pair(1.0, xs)
        w = h1.real * h0.imag - h0.real * h1.imag
        assert np.max(np.abs(w - 2 / (np.pi * xs))) < 1e-10

    def test_relative_accuracy_against_mpmath(self):
        # J_m' and H_m' of the transmission series, at orders up to 60
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng_orders = (0, 1, 3, 10, 30, 60)
        xs = (0.05, 0.7, 3.0, 25.0, 180.0, 650.0)
        for order in rng_orders:
            for x in xs:
                ref_j = float(mp.besselj(order, x, derivative=1))
                assert _dj(order, x) == pytest.approx(ref_j, rel=1e-10, abs=1e-280)
                ref_h = ref_j + 1j * float(mp.bessely(order, x, derivative=1))
                assert _dh(order, x) == pytest.approx(ref_h, rel=1e-10)

    def test_domain_errors(self):
        p = WaveParameters(1.0, 2)
        with pytest.raises(ValueError):
            greens_value(p, -1.0)
        with pytest.raises(ValueError):
            greens_value(p, np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            greens_gradient(p, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            WaveParameters(np.inf, 2)

    def test_2d_kernel_is_quarter_i_j_plus_iy(self):
        # G_k = (i/4) H_0(k r) and its radial derivative -(i/4) k H_1(k r)
        xs = np.logspace(-1, 2, 13)
        p = WaveParameters(1.0, 2)
        # the Cephes kernels differ from jv/yv by up to 3.1e-14 relative on [1e-8, 700]
        h0 = jv(0, xs) + 1j * yv(0, xs)
        h1 = jv(1, xs) + 1j * yv(1, xs)
        assert np.allclose(greens_value(p, xs), 0.25j * h0, rtol=1e-13, atol=0)
        radial = greens_gradient(p, np.stack([xs, np.zeros_like(xs)], axis=1))[:, 0]
        assert np.allclose(radial, -0.25j * h1, rtol=1e-13, atol=0)

    def test_h0_at_one_against_oracle(self):
        assert greens_value(WaveParameters(1.0, 2), 1.0) == pytest.approx(
            0.25j * (J0_AT_1 + 1j * Y0_AT_1), abs=1e-9)

    @pytest.mark.parametrize("k", [1.0, 7.5])
    def test_2d_kernels_against_mpmath_at_real_k(self, k):
        # k r spans [1e-8, 700], the supported argument range
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        r = np.logspace(-8, np.log10(700.0), 60) / k
        p = WaveParameters(k, 2)
        h0 = np.array([complex(mp.hankel1(0, k * mp.mpf(x))) for x in r])
        h1 = np.array([complex(mp.hankel1(1, k * mp.mpf(x))) for x in r])
        assert np.abs(greens_value(p, r) / (0.25j * h0) - 1).max() <= 1e-12
        radial = greens_gradient(p, np.stack([r, np.zeros_like(r)], axis=1))[:, 0]
        assert np.abs(radial / (-0.25j * k * h1) - 1).max() <= 1e-12

    def test_2d_kernels_against_mpmath_at_complex_k(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        k = 2.0 + 0.5j
        r = np.array([1e-6, 0.03, 0.8, 4.0, 30.0])
        p = WaveParameters(k, 2)
        h0 = np.array([complex(mp.hankel1(0, mp.mpc(k) * mp.mpf(x))) for x in r])
        h1 = np.array([complex(mp.hankel1(1, mp.mpc(k) * mp.mpf(x))) for x in r])
        assert np.abs(greens_value(p, r) / (0.25j * h0) - 1).max() <= 1e-12
        radial = greens_gradient(p, np.stack([r, np.zeros_like(r)], axis=1))[:, 0]
        assert np.abs(radial / (-0.25j * k * h1) - 1).max() <= 1e-12


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
        h0 = jv(0, 1.0) + 1j * yv(0, 1.0)
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
