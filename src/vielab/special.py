"""Bessel/Hankel evaluation and the outgoing Helmholtz fundamental solution.

The whole-space kernel used throughout is the outgoing fundamental
solution G_k of the Helmholtz operator, normalized so that
``(Laplacian + k^2) G_k = -delta``:

    d = 3:  G_k(r) = exp(i k r) / (4 pi r)
    d = 2:  G_k(r) = (i/4) H_0^(1)(k r),   k != 0
    d = 2:  G_0(r) = -ln(r) / (2 pi)       (harmonic limit)

Bessel evaluation is delegated to scipy.special; the accuracy contract
(relative error <= 1e-10 on the supported argument range) is enforced by
tests against an independent high-precision series oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

MAX_ORDER = 60
MAX_ARGUMENT = 700.0


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


def _check_order(order: int) -> int:
    if int(order) != order or order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_ORDER}]")
    return int(order)


def _check_argument(x, positive: bool):
    x = np.asarray(x, dtype=float)
    if positive and np.any(x <= 0):
        raise ValueError("argument must be positive")
    if np.any(x < 0):
        raise ValueError("argument must be nonnegative")
    if np.any(x > MAX_ARGUMENT):
        raise ValueError(f"argument exceeds supported range (0, {MAX_ARGUMENT})")
    return x


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x), x in [0, 700]."""
    order = _check_order(order)
    x = _check_argument(x, positive=False)
    return _sp.jv(order, x)


def bessel_y(order: int, x):
    """Bessel function of the second kind Y_order(x), x in (0, 700]."""
    order = _check_order(order)
    x = _check_argument(x, positive=True)
    return _sp.yv(order, x)


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
    return 0.25j * _sp.hankel1(0, k * r)


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
        radial = -0.25j * k * _sp.hankel1(1, k * r)
    out = radial[..., None] * pts / r[..., None]
    return out[0] if single else out
