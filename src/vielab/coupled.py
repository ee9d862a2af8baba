"""The coupled boundary-domain system equivalent to the volume equation.

For coefficients that are C^1 up to the boundary but jump across it, the
volume operator splits as

    (I - A) u = a u + A1 u + D gamma(alpha u),

    A1 u = k^2 int G alpha u + div int G (grad alpha) u - int G beta u,

where D is the double layer potential. Treating the trace gamma(u) as an
independent unknown phi and using the jump relation gamma(D psi) =
-psi/2 + K psi yields the block system

    [ a I + A1          D (gamma(alpha) .) ] [ u   ]   [ u_inc ]
    [ gamma A1   (1+a)/2 I + alpha K + [K, alpha] ] [ phi ] = [ psi  ],

solvable directly at desk scale. Whenever a does not vanish on the
boundary and psi is the trace of u_inc, the solution satisfies
phi = gamma(u) and u solves the volume equation. ``assemble_coupled``
returns this system as a plain (N + M, N + M) complex matrix, volume
unknowns first.

Two discrete realizations of the boundary operator are provided:

* ``"trace-consistent"`` (the solve instrument): K = I/2 + gamma_h D_h,
  the interior trace of the assembled double layer block. This makes
  the equivalence phi = gamma_h(u) an exact algebraic identity for
  coefficients constant on the boundary, so it holds to solver
  precision rather than discretization accuracy.
* ``"nystrom"`` (the spectral instrument): the independently assembled
  Nystrom K, which is uniformly accurate across boundary modes. The
  interior trace cannot resolve the O(1/m) boundary layers of high
  modes, so the trace-consistent K smears the essential boundary
  cluster; the Nystrom variant keeps it sharp and is the right vehicle
  for eigenvalue accumulation and conditioning studies.

For conditioning, the raw nodal matrix mixes unknowns with different
quadrature measures; ``quadrature_weighted_matrix`` applies the
similarity that makes the Euclidean norm approximate the
L2(volume) x L2(boundary) norms (eigenvalues are unchanged).

Reuse: the trace, double layer and K blocks do not depend on the
coefficient. ``coupled_blocks`` builds them read-only, and the caller
keeps them while it assembles systems on their grid, mesh and k. Each
system is written into one preallocated matrix: A1 gathered straight
into its volume block (``volume.gather_kernels``, no kernel matrix), the
trace times that block below it, column scalings of the double layer
and K, and the two diagonals.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Tuple

import numpy as np

from .boundary import assemble_K, double_layer_matrix, trace_matrix
from .coefficients import CoefficientField
from .geometry import BoundaryMesh, VolumeGrid
from .special import WaveParameters
from .volume import a1_weights, check_dense_budget, chunk_rows, gather_kernels, gathered_live

logger = logging.getLogger(__name__)

#: Reciprocal-condition threshold below which a solve is flagged singular.
NEAR_SINGULAR_RCOND = 1e-13


def assemble_A1(grid: VolumeGrid, params: WaveParameters,
                coeffs: CoefficientField) -> np.ndarray:
    """Dense matrix of the compact volume part A1 of the split operator.

    Uses the same kernels, weights, and self-cell correction as the
    volume operator assembly, with the weights of ``a1_weights``.
    """
    n = grid.n
    # A1, then per row chunk the int64 index and the 1 + d gathered blocks
    check_dense_budget("dense A1", gathered_live(grid, 1, grid.dimension + 1.5), n, n)
    return gather_kernels(grid, params, a1_weights(grid, params, coeffs),
                          np.empty((n, n), dtype=np.complex128))


class CoupledBlocks(NamedTuple):
    """The read-only coefficient-free blocks on one grid, mesh and k: the trace
    (M, N), complex so that no product copies it, the double layer and K."""
    grid: VolumeGrid
    mesh: BoundaryMesh
    params: WaveParameters
    trace: np.ndarray
    double_layer: np.ndarray
    K: np.ndarray


def coupled_blocks(grid: VolumeGrid, mesh: BoundaryMesh, params: WaveParameters,
                   boundary_operator: str = "trace-consistent") -> CoupledBlocks:
    """The blocks every coupled system on this grid and mesh shares, with K
    realized as ``boundary_operator``: ``"trace-consistent"`` (the solve
    instrument) or ``"nystrom"`` (the spectral instrument)."""
    if boundary_operator not in ("trace-consistent", "nystrom"):
        raise ValueError(f"unknown boundary operator {boundary_operator!r}")
    n, m, near_distance = grid.n, mesh.m, 0.5 * grid.h
    near = np.count_nonzero(mesh.domain.boundary_distance(grid.centers) < near_distance)
    # the trace and K, the double layer and its temporaries (measured at most
    # 7 N M), and its near rows: the (8M, M) float interpolation with its complex
    # copy (12 M^2) and the (near, 8M) refined block's temporaries (< 60 near M)
    check_dense_budget("coupled system blocks", 8 + (13 * m + 60 * near) / n, n, m)
    k_mat = assemble_K(mesh, params) if boundary_operator == "nystrom" else None
    t_mat = trace_matrix(grid, mesh).astype(np.complex128).toarray()
    dl = double_layer_matrix(mesh, params, grid.centers, near_distance=near_distance)
    if k_mat is None:
        k_mat = 0.5 * np.eye(m, dtype=np.complex128) + t_mat @ dl
    for block in (t_mat, dl, k_mat):
        block.setflags(write=False)
    return CoupledBlocks(grid, mesh, params, t_mat, dl, k_mat)


def assemble_coupled(blocks: CoupledBlocks, coeffs: CoefficientField) -> np.ndarray:
    """The boundary-domain system on the blocks' discretization, volume unknowns first."""
    grid, mesh, params = blocks.grid, blocks.mesh, blocks.params
    n, m, size = grid.n, mesh.m, grid.n + mesh.m
    # the system; the blocks beside it; and the gather's row chunk temporaries
    # (its index and the 1 + d gathered blocks)
    live = 2 * m * n + m * m + (grid.dimension + 1.5) * chunk_rows(n) * n
    check_dense_budget("coupled system", 1 + live / size**2, size, size)
    alpha_nodes = coeffs.alpha(mesh.nodes)
    matrix = np.empty((size, size), dtype=np.complex128)
    a1 = gather_kernels(grid, params, a1_weights(grid, params, coeffs), matrix[:n, :n])
    np.multiply(blocks.double_layer, alpha_nodes[None, :], out=matrix[:n, n:])
    np.matmul(blocks.trace, a1, out=matrix[n:, :n])
    np.multiply(blocks.K, alpha_nodes[None, :], out=matrix[n:, n:])
    diagonal = matrix.reshape(-1)[::size + 1]
    diagonal[:n] += 1.0 + coeffs.alpha(grid.centers)
    diagonal[n:] += 0.5 * (1.0 + (1.0 + alpha_nodes))  # (1 + a)/2, rounded as a = 1 + alpha
    logger.debug("coupled system: N=%d volume + M=%d boundary unknowns", n, m)
    return matrix


def quadrature_weighted_matrix(matrix: np.ndarray, grid: VolumeGrid,
                               mesh: BoundaryMesh) -> np.ndarray:
    """Similarity-transform the system so Euclidean norms approximate the
    L2 function norms of both unknowns (cell volumes on the grid,
    arclength weights on the boundary). Eigenvalues are unchanged;
    singular values and condition numbers become norm-meaningful.
    ``matrix`` is scaled in place and returned; no full-size temporary."""
    scale = np.sqrt(np.concatenate([np.full(grid.n, grid.cell_volume), mesh.weights]))
    matrix *= scale[:, None]
    # numpy divides x by s + 0j as (x.re + 0 x.im, x.im - 0 x.re) * (1 / s), so
    # multiplying by 1 / s gives the same bits (only a -0 component may flip sign)
    matrix *= (1.0 / scale)[None, :]
    return matrix


def solve_coupled(matrix: np.ndarray, grid: VolumeGrid, u_inc: np.ndarray,
                  psi: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Direct dense solve of the coupled system for (u, phi).

    ``psi`` is an independent right-hand side; passing the trace of
    ``u_inc`` activates the equivalence with the volume equation. Also
    returns the reciprocal-condition estimate, and logs a warning below
    ``NEAR_SINGULAR_RCOND``.
    """
    import scipy.linalg as sla
    from scipy.linalg.lapack import zgecon
    n = grid.n
    u_inc = np.asarray(u_inc, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    if u_inc.shape != (n,) or psi.shape != (len(matrix) - n,):
        raise ValueError("right-hand side sizes do not match the system blocks")
    rhs = np.concatenate([u_inc, psi])
    anorm = np.linalg.norm(matrix, 1)
    lu, piv = sla.lu_factor(matrix)
    rcond = float(zgecon(lu, anorm)[0])
    sol = sla.lu_solve((lu, piv), rhs)
    if rcond < NEAR_SINGULAR_RCOND:
        logger.warning("coupled solve near singular: rcond=%.3e", rcond)
    return sol[:n], sol[n:], rcond


def check_equivalence(u: np.ndarray, phi: np.ndarray, traces) -> float:
    """Max-norm mismatch between phi and the trace of u, taken by the (M, N)
    ``trace_matrix`` ``traces``."""
    return float(np.max(np.abs(phi - traces @ u)))
