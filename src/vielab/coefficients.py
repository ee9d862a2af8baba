"""Material coefficient fields and their contrasts.

The scattering medium is described by a(x) (diffusion coefficient) and
k(x)^2 (squared local wavenumber), both equal to the exterior constants
(1 and k^2) outside the scatterer. The solver works with the contrasts

    alpha(x) = a(x) - 1,   beta(x) = k(x)^2 - k^2,

which vanish outside the domain, together with the closed-form gradient
of alpha inside.

Smoothness tags drive which operator forms apply:
  "laplace-case"       alpha == 0 everywhere (only the beta term acts)
  "globally-smooth"    alpha smooth across Gamma (alpha = 0 on Gamma)
  "piecewise-smooth"   alpha C^1 up to Gamma, jumping across it
  "piecewise-constant" alpha constant inside, jumping across Gamma
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import DomainGeometry

TAGS = ("laplace-case", "globally-smooth", "piecewise-smooth", "piecewise-constant")


@dataclass(eq=False)
class CoefficientField:
    """Closed-form coefficient contrasts bound to a domain.

    ``alpha``, ``beta`` map point stacks (P, d) to complex arrays (P,)
    that vanish outside the domain; ``grad_alpha`` maps (P, d) to (P, d).
    """

    domain: DomainGeometry
    k: complex
    tag: str
    alpha: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    grad_alpha: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown smoothness tag {self.tag!r}")

    def a(self, points: np.ndarray) -> np.ndarray:
        """Coefficient a(x) = 1 + alpha(x)."""
        return 1.0 + self.alpha(np.atleast_2d(points))


def _masked(domain: DomainGeometry, fn: Callable[[np.ndarray], np.ndarray]):
    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(fn(pts), dtype=complex)
        out[~domain.contains(pts)] = 0.0
        return out
    return evaluate


def constant_a(domain: DomainGeometry, k: complex, a: complex,
               k2_inside: Optional[complex] = None) -> CoefficientField:
    """Piecewise-constant medium: a(x) = a, k(x)^2 = k2_inside in the domain.

    With ``k2_inside`` omitted the wavenumber is unperturbed (beta = 0).
    """
    alpha_val = complex(a) - 1.0
    beta_val = 0.0 if k2_inside is None else complex(k2_inside) - complex(k) ** 2
    tag = "laplace-case" if alpha_val == 0 else "piecewise-constant"
    return CoefficientField(
        domain=domain, k=complex(k), tag=tag,
        alpha=_masked(domain, lambda p: np.full(len(p), alpha_val, dtype=complex)),
        beta=_masked(domain, lambda p: np.full(len(p), beta_val, dtype=complex)),
        grad_alpha=_masked(domain, lambda p: np.zeros((len(p), p.shape[1]), dtype=complex)),
    )


def smooth_bump_a(domain: DomainGeometry, k: complex, amplitude: complex,
                  rho: Optional[float] = None) -> CoefficientField:
    """Globally smooth a(x) = 1 + amplitude * (1 - |x|^2/rho^2)^2 for |x| < rho.

    With ``rho`` equal to the disc radius (the default) alpha vanishes on
    Gamma together with its first derivative, so the medium is C^1 across
    the boundary and the boundary term of the split operator vanishes.
    """
    if domain.kind not in ("disc", "ball"):
        raise ValueError("smooth_bump_a is defined for discs and balls")
    rho = domain.radius if rho is None else float(rho)
    amp = complex(amplitude)

    def alpha(p):
        r2 = (p * p).sum(axis=1) / rho ** 2
        out = amp * np.square(1.0 - r2)
        out[r2 >= 1.0] = 0.0
        return out

    def grad(p):
        r2 = (p * p).sum(axis=1) / rho ** 2
        fac = -4.0 * amp * (1.0 - r2) / rho ** 2
        fac[r2 >= 1.0] = 0.0
        return fac[:, None] * p

    return CoefficientField(
        domain=domain, k=complex(k), tag="globally-smooth",
        alpha=_masked(domain, alpha),
        beta=_masked(domain, lambda p: np.zeros(len(p), dtype=complex)),
        grad_alpha=_masked(domain, grad),
    )


def beta_only(domain: DomainGeometry, k: complex, amplitude: complex,
              r_plateau: float = 0.7, r_cut: float = 0.95) -> CoefficientField:
    """Pure wavenumber contrast (alpha == 0): beta = amplitude * s(|x|).

    ``s`` is a quintic smoothstep equal to 1 for |x| <= r_plateau and 0
    for |x| >= r_cut (a smoothed indicator of the inner region).
    """
    if domain.kind not in ("disc", "ball"):
        raise ValueError("beta_only is defined for discs and balls")
    if not 0 < r_plateau < r_cut:
        raise ValueError("need 0 < r_plateau < r_cut")
    amp = complex(amplitude)

    def beta(p):
        r = np.linalg.norm(p, axis=1)
        t = np.clip((r_cut - r) / (r_cut - r_plateau), 0.0, 1.0)
        s = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
        return amp * s

    return CoefficientField(
        domain=domain, k=complex(k), tag="laplace-case",
        alpha=_masked(domain, lambda p: np.zeros(len(p), dtype=complex)),
        beta=_masked(domain, beta),
        grad_alpha=_masked(domain, lambda p: np.zeros((len(p), p.shape[1]), dtype=complex)),
    )


def linear_a(domain: DomainGeometry, k: complex, a0: complex,
             gradient: np.ndarray) -> CoefficientField:
    """Affine coefficient a(x) = a0 + gradient . x inside the domain.

    Piecewise smooth: alpha is C^1 up to Gamma but jumps across it, and
    is generally non-constant on Gamma (the sufficient-only regime of
    the Fredholm dichotomy).
    """
    g = np.asarray(gradient, dtype=complex)
    if g.shape != (domain.dimension,):
        raise ValueError("gradient must match the domain dimension")
    a0 = complex(a0)
    return CoefficientField(
        domain=domain, k=complex(k), tag="piecewise-smooth",
        alpha=_masked(domain, lambda p: a0 - 1.0 + p @ g),
        beta=_masked(domain, lambda p: np.zeros(len(p), dtype=complex)),
        grad_alpha=_masked(domain, lambda p: np.tile(g, (len(p), 1))),
    )
