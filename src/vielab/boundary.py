"""Trace, double layer potential, and the boundary operator K on Gamma.

Mathematical formulation (2D)
-----------------------------
With the double layer kernel m(x, y) = d/dn(y) G_k(x - y) we use

    D phi(x) = int_Gamma m(x, y) phi(y) ds(y)      (x in the volume)
    K phi(x) = p.v. int_Gamma m(x, y) phi(y) ds(y) (x on Gamma)

and the interior trace satisfies the jump relation

    gamma(D phi) = -phi/2 + K phi.

On smooth curves the kernel extends continuously to the diagonal with
limit -kappa(x)/(4 pi) (signed curvature, positive for convex
boundaries); the Helmholtz kernel shares the harmonic kernel's diagonal
limit since their difference vanishes at coincident points. On polygon
edges the kernel vanishes identically for same-edge pairs, and the
graded mesh handles the corner singularity; the Nystrom diagonal is
zero there.

The trace operator maps volume fields to boundary nodes by a local
least-squares linear fit over the nearest included cell centers, which
reproduces constants and linear fields exactly.

Boundary operators are implemented for 2D shapes; the 3D double layer
kernel is weakly singular on the sphere and is outside this module's
Nystrom rule.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .geometry import BoundaryMesh, VolumeGrid, build_boundary_mesh
from .special import WaveParameters, greens_gradient
from .volume import check_dense_budget

logger = logging.getLogger(__name__)

TRACE_SEARCH_RADIUS = 3.0   # in units of the grid spacing
TRACE_MAX_NEIGHBORS = 6
NEAR_OVERSAMPLE = 8


def _check_density(mesh: BoundaryMesh, phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi)
    if phi.shape != (mesh.m,):
        raise ValueError(f"density must have length {mesh.m}, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("density contains non-finite values")
    return phi.astype(np.complex128, copy=False)


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------
def trace_matrix(grid: VolumeGrid, mesh: BoundaryMesh):
    """Sparse CSR (M, N) interpolation matrix realizing the one-sided trace.

    Each boundary node gets a least-squares linear fit over the nearest
    included cell centers within three grid spacings (six, extended if the
    fit is rank deficient), evaluated at the node. Cells as far from the
    node as the last one kept (within 1e-9 h) are kept too, so a stencil
    never picks one of two mirror-image cells by rounding and the matrix
    inherits the grid's reflection symmetries.
    """
    import scipy.sparse as sparse
    from scipy.spatial import cKDTree
    tree = cKDTree(grid.centers)
    radius = TRACE_SEARCH_RADIUS * grid.h
    d = grid.dimension
    rows, cols, vals = [], [], []
    for i, node in enumerate(mesh.nodes):
        cand = tree.query_ball_point(node, radius)
        if len(cand) < 3:
            raise ValueError(
                f"trace: fewer than 3 included cells within {TRACE_SEARCH_RADIUS}h "
                f"of boundary node {i}")
        dist = np.linalg.norm(grid.centers[cand] - node, axis=1)
        order = np.argsort(dist, kind="stable")
        cand, dist = np.asarray(cand)[order], dist[order]
        k = _with_ties(dist, min(TRACE_MAX_NEIGHBORS, len(cand)), grid.h)
        while True:
            pts = grid.centers[cand[:k]]
            design = np.hstack([np.ones((k, 1)), (pts - node) / grid.h])
            if np.linalg.matrix_rank(design) >= d + 1 or k >= len(cand):
                break
            k = _with_ties(dist, min(k + 2, len(cand)), grid.h)
        weights = np.linalg.pinv(design)[0]  # fit value at the node
        rows.extend([i] * k)
        cols.extend(cand[:k])
        vals.extend(weights)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(mesh.m, grid.n))


def _with_ties(dist: np.ndarray, k: int, h: float) -> int:
    """How many of the sorted distances lie within 1e-9 h of the k-th."""
    return int(np.searchsorted(dist, dist[k - 1] + 1e-9 * h, side="right"))


def trace(grid: VolumeGrid, mesh: BoundaryMesh, u: np.ndarray) -> np.ndarray:
    """Boundary values of a volume field by local linear fits."""
    u = np.asarray(u)
    if u.shape != (grid.n,):
        raise ValueError(f"field must have length {grid.n}")
    return trace_matrix(grid, mesh) @ u.astype(np.complex128, copy=False)


# ---------------------------------------------------------------------------
# Density resampling (for near-boundary quadrature upgrades)
# ---------------------------------------------------------------------------
def refine_mesh(mesh: BoundaryMesh) -> BoundaryMesh:
    """Rebuild the mesh with ``NEAR_OVERSAMPLE`` times as many nodes."""
    return build_boundary_mesh(mesh.domain, mesh.m * NEAR_OVERSAMPLE, mesh.grading)


def _trig_resample_matrix(m: int, mf: int) -> np.ndarray:
    """Trigonometric interpolation from m to mf equispaced periodic nodes,
    mf a multiple of m.

    Column j interpolates the unit density at coarse node j, which is the
    column of node 0 shifted by j * mf / m fine nodes; only that column is
    transformed.
    """
    # the float result plus about eight complex columns: the FFT's and the
    # caller's refined mesh (measured peak 0.52-0.61 (mf, m) arrays at m = 64-400)
    check_dense_budget("density interpolation", 0.5 + 8.0 / m, mf, m)
    # spectrum of the unit density at node 0 (all ones), zero-padded; an even
    # m splits its Nyquist mode evenly between +m/2 and -m/2
    half = m // 2
    pad = np.zeros(mf, dtype=complex)
    pad[:half + 1] = 1.0              # frequencies 0 .. m // 2
    pad[mf - (m - 1) // 2:] = 1.0     # frequencies -(m - 1) // 2 .. -1
    if m % 2 == 0:
        pad[half] = 0.5
        pad[mf - half] += 0.5
    col = np.fft.ifft(pad).real * (mf / m)
    out = np.empty((mf, m))
    for j in range(m):
        out[:, j] = np.roll(col, j * (mf // m))
    return out


def density_interp_matrix(mesh: BoundaryMesh, fine: BoundaryMesh) -> np.ndarray:
    """(Mf, M) matrix mapping nodal densities to the refined mesh's nodes.

    Smooth closed curves use trigonometric interpolation in the curve
    parameter (spectrally exact for trigonometric densities); polygons
    use per-edge linear interpolation in arclength.
    """
    if mesh.is_smooth:
        if fine.m % mesh.m != 0:
            raise ValueError("refined smooth mesh must be an integer multiple")
        return _trig_resample_matrix(mesh.m, fine.m)
    # one float (Mf, M) matrix, half a complex one (measured peak 0.50-0.55)
    check_dense_budget("density interpolation", 0.625, fine.m, mesh.m)
    out = np.zeros((fine.m, mesh.m))
    verts = mesh.domain.vertices
    for e in range(len(verts)):
        coarse_sel = np.flatnonzero(mesh.edge_index == e)
        fine_sel = np.flatnonzero(fine.edge_index == e)
        origin = verts[e]
        s_coarse = np.linalg.norm(mesh.nodes[coarse_sel] - origin, axis=1)
        s_fine = np.linalg.norm(fine.nodes[fine_sel] - origin, axis=1)
        for basis, j in enumerate(coarse_sel):
            unit = np.zeros(len(coarse_sel))
            unit[basis] = 1.0
            out[fine_sel, j] = np.interp(s_fine, s_coarse, unit)
    return out


# ---------------------------------------------------------------------------
# Double layer potential into the volume
# ---------------------------------------------------------------------------
def _kernel_block(params: WaveParameters, diff: np.ndarray,
                  mesh: BoundaryMesh) -> np.ndarray:
    """Quadrature matrix (P, M) of the weight-scaled double layer kernel,
    from the target-minus-node offsets ``diff`` (P, M, 2)."""
    grad = greens_gradient(params, diff.reshape(-1, 2)).reshape(diff.shape)
    kern = -np.sum(grad * mesh.normals[None, :, :], axis=-1)  # (P, M)
    return kern * mesh.weights[None, :]


def double_layer_matrix(mesh: BoundaryMesh, params: WaveParameters,
                        targets: np.ndarray,
                        near_distance: Optional[float] = None) -> np.ndarray:
    """Matrix evaluating D phi at volume targets from nodal densities.

    Targets closer to Gamma than ``near_distance`` get their quadrature
    upgraded by a ``NEAR_OVERSAMPLE``-times finer mesh with the density
    interpolated onto it.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    near = np.zeros(len(targets), dtype=bool)
    if near_distance is not None and near_distance > 0:
        near = mesh.domain.boundary_distance(targets) < near_distance
    # the upgraded rows first: the interpolation's budget check then precedes
    # every kernel block, and its temporaries are gone before the full block
    rows = _refined_rows(mesh, params, targets[near]) if np.any(near) else None
    mat = _kernel_block(params, targets[:, None, :] - mesh.nodes, mesh)
    if rows is not None:
        mat[near] = rows
    return mat


def _refined_rows(mesh: BoundaryMesh, params: WaveParameters,
                  targets: np.ndarray) -> np.ndarray:
    """Double layer rows at ``targets`` by the refined mesh with the density
    interpolated onto it."""
    fine = refine_mesh(mesh)
    interp = density_interp_matrix(mesh, fine)
    return _kernel_block(params, targets[:, None, :] - fine.nodes, fine) @ interp


def double_layer_potential(mesh: BoundaryMesh, params: WaveParameters,
                           phi: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """D phi evaluated at interior points (linear in phi)."""
    phi = _check_density(mesh, phi)
    return double_layer_matrix(mesh, params, targets) @ phi


# ---------------------------------------------------------------------------
# Boundary operator K
# ---------------------------------------------------------------------------
def assemble_K(mesh: BoundaryMesh, params: WaveParameters) -> np.ndarray:
    """Nystrom matrix of the on-boundary double layer operator K.

    Smooth curves: continuous-kernel quadrature with the curvature
    diagonal -kappa/(4 pi) per node weight. Polygons: graded-mesh
    Nystrom with zero self-node diagonal (same-edge kernel entries
    vanish identically since (x - y) is tangential there).
    """
    m = mesh.m
    check_dense_budget("boundary operator K", 8, m, m)  # (M, M, 2) arrays and temporaries
    diff = mesh.nodes[:, None, :] - mesh.nodes
    diag = np.arange(m)
    diff[diag, diag] = 1.0  # keeps the kernel away from r = 0; the diagonal is set below
    mat = _kernel_block(params, diff, mesh)
    mat[diag, diag] = (-mesh.curvatures / (4.0 * np.pi) if mesh.is_smooth else 0.0) \
        * mesh.weights
    return mat


def jump_relation_check(mesh: BoundaryMesh, params: WaveParameters,
                        phi: np.ndarray) -> float:
    """Max-norm discrepancy of the interior trace of D phi vs -phi/2 + K phi.

    D phi is evaluated at interior points receding from each node along
    -n at offsets eps, eps/2, eps/4 (eps a tenth of the smallest radius or
    semi-axis; oversampled quadrature) and Richardson-extrapolated to the
    boundary with three levels.
    """
    if not mesh.is_smooth:
        raise ValueError("quantitative jump relation check requires a smooth curve")
    phi = _check_density(mesh, phi)
    if mesh.domain.kind == "disc":
        offset_scale = 0.1 * mesh.domain.radius
    else:
        offset_scale = 0.1 * float(np.min(mesh.domain.semi_axes))
    fine = refine_mesh(mesh)
    phi_fine = density_interp_matrix(mesh, fine) @ phi
    values = []
    for j in range(3):
        eps = offset_scale * 0.5 ** j
        targets = mesh.nodes - eps * mesh.normals
        values.append(_kernel_block(params, targets[:, None, :] - fine.nodes, fine) @ phi_fine)
    f0, f1, f2 = values
    gamma_d = (8.0 * f2 - 6.0 * f1 + f0) / 3.0
    rhs = -0.5 * phi + assemble_K(mesh, params) @ phi
    return float(np.max(np.abs(gamma_d - rhs)))

