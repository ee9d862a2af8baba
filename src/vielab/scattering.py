"""Scattering solves: incident fields, restarted GMRES, extension, and
the analytic transmission-series reference for the penetrable disc.

The volume system (I - A) u = u_inc is solved matrix-free with the
FFT-accelerated operator. Solutions extend outside the scatterer through
the defining volume potentials (no singular correction is needed at
exterior targets). For a disc with piecewise-constant coefficients the
independent oracle is separation of variables: interior Bessel modes
matched to exterior Hankel modes through continuity of u and of the
flux a du/dr across the interface, one 2x2 system per angular mode.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .coefficients import CoefficientField
from .geometry import VolumeGrid
from .special import WaveParameters, greens_value
from .volume import _check_field, _contrast_sources, _sum_at_targets

logger = logging.getLogger(__name__)

#: Truncation target of the transmission series: the last mode's contribution.
SERIES_TAIL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Incident fields
# ---------------------------------------------------------------------------
def incident_plane_wave(grid: VolumeGrid, params: WaveParameters,
                        direction: Sequence[float]) -> np.ndarray:
    """Plane wave exp(i k d . x) sampled at the included cell centers."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (grid.dimension,):
        raise ValueError("direction must match the grid dimension")
    if not abs(np.linalg.norm(d) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("direction must be a finite unit vector")
    return np.exp(1j * params.k * (grid.centers @ d))


def plane_wave_function(params: WaveParameters, direction: Sequence[float]) -> Callable:
    """Plane wave as a point-set evaluator (for extension and oracles)."""
    d = np.asarray(direction, dtype=float)
    return lambda pts: np.exp(1j * params.k * (np.atleast_2d(pts) @ d))


def incident_point_source(grid: VolumeGrid, params: WaveParameters,
                          x0: Sequence[float]) -> np.ndarray:
    """Field of a point source at an exterior location x0: G_k(x - x0)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (grid.dimension,):
        raise ValueError("source location must match the grid dimension")
    if not np.all(np.isfinite(x0)):
        raise ValueError("source location must be finite")
    domain = grid.domain
    if domain.contains(x0[None, :])[0]:
        raise ValueError("point source must lie outside the scatterer")
    if float(domain.boundary_distance(x0[None, :])[0]) < grid.h:
        raise ValueError("point source must keep at least one mesh width from Gamma")
    r = np.linalg.norm(grid.centers - x0, axis=1)
    return greens_value(params, r)


def point_source_function(params: WaveParameters, x0: Sequence[float]) -> Callable:
    """Point-source field as a point-set evaluator."""
    x0 = np.asarray(x0, dtype=float)
    return lambda pts: greens_value(
        params, np.linalg.norm(np.atleast_2d(pts) - x0, axis=1))


# ---------------------------------------------------------------------------
# Restarted GMRES
# ---------------------------------------------------------------------------
@dataclass
class GmresResult:
    """Convergence record of a restarted GMRES run.

    ``reason`` is "converged", "stagnation" (no progress over a full
    restart cycle), or "maxiter". ``residual`` is the relative residual
    recomputed in double at the last restart; ``history`` holds the Arnoldi
    estimate of the relative residual after every inner iteration, which in
    a single-precision cycle may undershoot the double one.
    """

    converged: bool
    reason: str
    iterations: int
    residual: float
    history: np.ndarray


def gmres_solve(applier: Callable, rhs: np.ndarray, tol: float = 1e-8,
                restart: int = 30, maxiter: int = 400) -> Tuple[np.ndarray, GmresResult]:
    """Restarted GMRES with modified Gram-Schmidt and Givens rotations.

    Solves ``applier(x) = rhs`` for a general complex linear map.
    Stagnation over a full restart cycle is reported distinctly from
    iteration-budget exhaustion; the true residual is recomputed once
    per restart and carried into the next cycle. ``maxiter`` counts
    Arnoldi iterations.

    Mixed precision: the first cycle passes the applier complex128 vectors;
    from the first restart on, its Arnoldi vectors are passed as complex64
    (an applier may then compute in single precision), which makes the
    restarts an iterative refinement. Orthogonalization, rotations, the
    update of x and every closing residual b - applier(x) stay complex128,
    and only that double residual decides convergence and stagnation. A
    solve that converges within one cycle never sees a complex64 vector.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if restart < 10:
        raise ValueError("restart length must be at least 10")
    b = np.asarray(rhs, dtype=np.complex128)
    n = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=np.complex128), GmresResult(True, "converged", 0, 0.0, np.zeros(0))
    x = np.zeros(n, dtype=np.complex128)
    history: list = []
    total_iters = 0
    r, rel_end = b, 1.0  # the residual of x = 0, without a matvec
    single = False
    # the residual closing one cycle opens the next; a NaN one is not converged
    while not rel_end <= tol and total_iters < maxiter:
        cycle_start = rel_end
        v = np.zeros((restart + 1, n), dtype=np.complex128)  # basis vectors as rows
        h = np.zeros((restart + 1, restart), dtype=np.complex128)
        cs = np.zeros(restart)
        sn = np.zeros(restart, dtype=np.complex128)
        g = np.zeros(restart + 1, dtype=np.complex128)
        v[0] = r / (cycle_start * bnorm)
        g[0] = cycle_start * bnorm
        j_last = -1
        for j in range(restart):
            if total_iters >= maxiter:
                break
            # copy defensively: the applier may return (a view of) its input
            w = np.array(applier(v[j].astype(np.complex64) if single else v[j]),
                         dtype=np.complex128, copy=True)
            total_iters += 1
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], w)
                w -= h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(w)
            if abs(h[j + 1, j]) > 1e-300:
                v[j + 1] = w / h[j + 1, j]
            for i in range(j):
                tmp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -np.conj(sn[i]) * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = tmp
            a_el, b_el = h[j, j], h[j + 1, j]
            if abs(a_el) == 0 and abs(b_el) == 0:
                # the operator annihilated this Krylov direction: the new
                # column cannot reduce the residual, so drop it and stop
                break
            if b_el == 0:
                cs[j], sn[j] = 1.0, 0.0
            elif a_el == 0:
                cs[j], sn[j] = 0.0, 1.0
            else:
                t = np.sqrt(abs(a_el) ** 2 + abs(b_el) ** 2)
                cs[j] = abs(a_el) / t
                sn[j] = (a_el / abs(a_el)) * np.conj(b_el) / t
            h[j, j] = cs[j] * a_el + sn[j] * b_el
            h[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            j_last = j
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            if rel <= tol:
                break
        if j_last >= 0:
            y = np.linalg.solve(h[: j_last + 1, : j_last + 1], g[: j_last + 1])
            x = x + y @ v[: j_last + 1]
        r = b - applier(x)
        rel_end = float(np.linalg.norm(r)) / bnorm
        single = True
        if rel_end > tol and rel_end >= 0.999 * cycle_start:
            logger.warning("GMRES stagnated at relative residual %.3e", rel_end)
            return x, GmresResult(False, "stagnation", total_iters, rel_end,
                                  np.asarray(history))
    converged = rel_end <= tol
    return x, GmresResult(converged, "converged" if converged else "maxiter",
                          total_iters, rel_end, np.asarray(history))


# ---------------------------------------------------------------------------
# Transmission-series oracle for the penetrable disc
# ---------------------------------------------------------------------------
@dataclass
class MieSeries:
    """Separation-of-variables solution for a plane wave on a coated disc.

    Interior field sum c_m J_m(kappa r) e^{i m theta}; exterior field is
    the incident plane wave plus sum b_m H_m(kr) e^{i m theta}, theta
    measured from the propagation direction. Coefficients solve the
    per-mode transmission conditions u_ext = u_int and
    d/dr u_ext = a_in kappa/k * ... (flux continuity a du/dr).
    """

    radius: float
    k: complex
    a_in: complex
    kappa: complex
    direction: np.ndarray
    orders: int
    b_coeffs: np.ndarray  # index m + orders, m = -orders..orders
    c_coeffs: np.ndarray
    truncated: bool = False  # order cap reached before the tail met SERIES_TAIL_TOL

    def _polar(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.direction
        # angle relative to the propagation direction
        ca, sa = d[0], d[1]
        xr = pts[:, 0] * ca + pts[:, 1] * sa
        yr = -pts[:, 0] * sa + pts[:, 1] * ca
        return np.hypot(xr, yr), np.arctan2(yr, xr)

    def total_field(self, points: np.ndarray) -> np.ndarray:
        """Total field u at arbitrary points (interior series or
        incident plus scattered series outside); refused if ``truncated``."""
        if self.truncated:
            raise ValueError("a truncated transmission series is not a field oracle")
        import scipy.special as _sp
        r, th = self._polar(points)
        out = np.zeros(len(r), dtype=np.complex128)
        inside = r < self.radius
        ms = np.arange(-self.orders, self.orders + 1)
        if inside.any():
            ri = r[inside]
            acc = np.zeros(len(ri), dtype=np.complex128)
            for m, c in zip(ms, self.c_coeffs):
                acc += c * _sp.jv(m, self.kappa * ri) * np.exp(1j * m * th[inside])
            out[inside] = acc
        if (~inside).any():
            ro = r[~inside]
            acc = np.exp(1j * self.k * ro * np.cos(th[~inside]))
            for m, bm in zip(ms, self.b_coeffs):
                acc += bm * _sp.hankel1(m, self.k * ro) * np.exp(1j * m * th[~inside])
            out[~inside] = acc
        return out

    def transmission_residual(self, n_angles: int = 64) -> Tuple[float, float]:
        """Self-check: (max |[u]|, max |[a du/dr]|) across the interface."""
        import scipy.special as _sp
        th = 2 * np.pi * np.arange(n_angles) / n_angles
        ms = np.arange(-self.orders, self.orders + 1)
        u_out = np.exp(1j * self.k * self.radius * np.cos(th))
        du_out = 1j * self.k * np.cos(th) * u_out
        u_in = np.zeros(n_angles, dtype=np.complex128)
        du_in = np.zeros(n_angles, dtype=np.complex128)
        for m, bm, cm in zip(ms, self.b_coeffs, self.c_coeffs):
            phase = np.exp(1j * m * th)
            u_out += bm * _sp.hankel1(m, self.k * self.radius) * phase
            du_out += bm * self.k * _dh(m, self.k * self.radius) * phase
            u_in += cm * _sp.jv(m, self.kappa * self.radius) * phase
            du_in += cm * self.kappa * _dj(m, self.kappa * self.radius) * phase
        jump_u = float(np.max(np.abs(u_out - u_in)))
        jump_flux = float(np.max(np.abs(du_out - self.a_in * du_in)))
        return jump_u, jump_flux

    def energy_balance(self, rho: Optional[float] = None, n_angles: int = 512) -> float:
        """Optical-theorem style defect: scattered flux plus the
        incident/scattered cross term through a circle of radius rho
        (zero for lossless real coefficients)."""
        import scipy.special as _sp
        rho = 2.0 * self.radius if rho is None else float(rho)
        th = 2 * np.pi * np.arange(n_angles) / n_angles
        ms = np.arange(-self.orders, self.orders + 1)
        u_sc = np.zeros(n_angles, dtype=np.complex128)
        du_sc = np.zeros(n_angles, dtype=np.complex128)
        for m, bm in zip(ms, self.b_coeffs):
            phase = np.exp(1j * m * th)
            u_sc += bm * _sp.hankel1(m, self.k * rho) * phase
            du_sc += bm * self.k * _dh(m, self.k * rho) * phase
        u_inc = np.exp(1j * self.k * rho * np.cos(th))
        du_inc = 1j * self.k * np.cos(th) * u_inc
        ds = 2 * np.pi * rho / n_angles
        flux_sc = float(np.imag(np.sum(np.conj(u_sc) * du_sc)) * ds)
        cross = float(np.imag(np.sum(np.conj(u_inc) * du_sc + np.conj(u_sc) * du_inc)) * ds)
        return abs(flux_sc + cross)


def _dj(m: int, z) -> np.ndarray:
    import scipy.special as _sp
    return 0.5 * (_sp.jv(m - 1, z) - _sp.jv(m + 1, z))


def _dh(m: int, z) -> np.ndarray:
    import scipy.special as _sp
    return 0.5 * (_sp.hankel1(m - 1, z) - _sp.hankel1(m + 1, z))


def _log_derivative_j(m: int, z) -> complex:
    """J'_m(z) / J_m(z) = m/z - J_{m+1}(z)/J_m(z), the ratio by its continued
    fraction, so it stays finite where J_m(z) underflows (same for -m)."""
    m = abs(m)
    ratio = 0j
    for j in range(m + 64 + int(abs(z)), m, -1):
        ratio = 1.0 / (2.0 * j / z - ratio)
    return m / z - ratio


def mie_reference_disc(radius: float, params: WaveParameters, a_in: complex,
                       k2_in: complex, direction: Sequence[float] = (1.0, 0.0)) -> MieSeries:
    """Transmission series for a plane wave hitting a penetrable disc.

    Interior medium: coefficient ``a_in`` and squared wavenumber
    ``k2_in`` (effective interior wavenumber sqrt(k2_in / a_in)).
    Truncation grows until the last mode's contribution drops below
    ``SERIES_TAIL_TOL`` relative to the leading one, or until the order passes
    200; the latter logs a warning and sets ``truncated``.
    """
    import scipy.special as _sp
    if params.dimension != 2:
        raise ValueError("the transmission series is two-dimensional")
    a_in = complex(a_in)
    if a_in == 0:
        raise ValueError("interior coefficient must be nonzero")
    d = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    k = params.k
    kappa = np.sqrt(complex(k2_in) / a_in)
    kr, qr = k * radius, kappa * radius

    def solve_mode(m: int) -> Tuple[complex, complex]:
        jm, hm = _sp.jv(m, kr), _sp.hankel1(m, kr)
        jq = _sp.jv(m, qr)
        djm, dhm = _dj(m, kr), _dh(m, kr)
        djq = _dj(m, qr)
        mat = np.array([[hm, -jq], [k * dhm, -a_in * kappa * djq]], dtype=complex)
        rhs = -(1j ** m) * np.array([jm, k * djm], dtype=complex)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(det) < 1e-300 and abs(jq) < np.finfo(float).tiny:
            # J_m(kappa R) underflows: solve for b_m and c_m J_m(kappa R); drop c_m
            mat[:, 1] = -1.0, -a_in * kappa * _log_derivative_j(m, qr)
            return complex(np.linalg.solve(mat, rhs)[0]), 0j
        if abs(det) < 1e-300:
            raise ArithmeticError(f"singular transmission system at mode {m}")
        sol = np.linalg.solve(mat, rhs)
        return complex(sol[0]), complex(sol[1])

    orders = max(8, int(abs(kr)) + 8)
    while True:
        bq, cq = solve_mode(orders)
        tail = max(abs(bq * _sp.hankel1(orders, kr)), abs(cq * _sp.jv(orders, qr)))
        if tail < SERIES_TAIL_TOL or orders > 200:
            break
        orders += 4
    truncated = not tail < SERIES_TAIL_TOL
    if truncated:
        logger.warning("transmission series truncated at %d orders (kR=%.3g): "
                       "last-mode tail %.2e above %.1e", orders, abs(kr), tail, SERIES_TAIL_TOL)
    ms = np.arange(-orders, orders + 1)
    b = np.empty(len(ms), dtype=complex)
    c = np.empty(len(ms), dtype=complex)
    for i, m in enumerate(ms):
        b[i], c[i] = solve_mode(int(m))
    logger.debug("transmission series: %d modes, kR=%.3g", orders, abs(kr))
    return MieSeries(radius=float(radius), k=k, a_in=a_in, kappa=kappa,
                     direction=d, orders=orders, b_coeffs=b, c_coeffs=c,
                     truncated=truncated)


# ---------------------------------------------------------------------------
# Exterior extension of a volume solution
# ---------------------------------------------------------------------------
def extend_solution(grid: VolumeGrid, params: WaveParameters,
                    coeffs: CoefficientField, u: np.ndarray,
                    targets: np.ndarray, incident: Callable) -> np.ndarray:
    """Evaluate the solved field outside the scatterer.

    Applies the defining representation u = u_inc + A u at exterior
    targets; the kernels are regular there, so plain summation suffices.
    ``incident`` evaluates the incident field at arbitrary points.
    """
    u = _check_field(grid, u)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if np.any(grid.domain.contains(targets)):
        raise ValueError("extension targets must lie outside the scatterer")
    out = np.asarray(incident(targets), dtype=np.complex128).reshape(len(targets)).copy()
    return _sum_at_targets(grid, params, targets, out, _contrast_sources(grid, coeffs)(u))
