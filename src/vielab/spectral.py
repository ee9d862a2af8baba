"""Dense spectra, eigenvalue clustering, and Fredholm verdicts.

The continuum essential spectrum has no finite-dimensional counterpart;
its discrete signature is accumulation under refinement: eigenvalue
counts near an essential point grow with the resolution while counts
elsewhere stay bounded. Cluster detection implements exactly this
two-level test.

For piecewise-constant coefficients the boundary block of the coupled
operator is a multiple of sigma I - (I/2 - K), which ties coefficient
values to the essential spectrum Sigma of I/2 - K through the involution

    sigma = a / (a - 1)   <=>   a = sigma / (sigma - 1).

The predicted essential set, a(closure of Omega) together with
{(1 + a(x))/2 : x on Gamma} (Kirsch & Lechleiter 2009 for variable a),
is sampled on the discretization the spectrum itself uses: a at the
grid's cell centres and (1 + a)/2 at the mesh nodes (``essential_set``).
The Fredholm verdict reads a at the same centres and nodes: it checks
(i) that the coefficient never vanishes on the closed domain and (ii)
that no boundary coefficient value maps into Sigma; for coefficients
constant on the boundary the two conditions are necessary and
sufficient, otherwise sufficient only.

Condition sweeps toward the breakdown locus take exact 2-norm condition
numbers from the singular values, so they depend on no seed.

Reflection blocks: a disc, square or ball grid with its mesh is mapped
onto itself by the coordinate reflections, and a 2D one also by the
diagonal x <-> y (``geometry.reflections``), and so is every matrix
assembled on it from symmetric coefficients. Each reflection that
commutes with the matrix (max|M[p][:, p] - M| <= 1e-12 max|M|) is kept;
r commuting ones split the unknowns into 2^r symmetry classes with
orthonormal bases Q of signed orbit sums, and M into the diagonal blocks
B = Q^T M Q. With the diagonal S, the axis reflections generate the
square's dihedral group (S Rx S = Ry): four classes of about n / 8
unknowns, and two of about n / 4 that S maps onto each other, whose
equal blocks are solved once. Eigenvalues and singular values are the
union of the blocks'. Residuals stay certified against the full matrix:
each is ||M Q y - lambda Q y|| / ||Q y|| for an eigenvector y of its
block (with Q = S Q' for the image of a class Q'), so a reflection that
only nearly commutes shows in them. Without a commuting reflection Q is
the identity and the routines reduce to one LAPACK call on M.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import CoefficientField, constant_a
from .coupled import assemble_coupled, coupled_blocks, quadrature_weighted_matrix
from .geometry import (BoundaryMesh, DomainGeometry, VolumeGrid, build_boundary_mesh,
                       build_volume_grid, reflections)
from .special import WaveParameters
from .volume import check_dense_budget

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-8
#: A reflection is a symmetry of a matrix when it moves no entry by more
#: than this share of the largest one.
SYMMETRY_TOL = 1e-12
#: A candidate cluster must hold this many fine-level eigenvalues ...
CLUSTER_MIN_COUNT = 4
#: ... and grow by this factor from the coarse to the fine level.
CLUSTER_GROWTH = 1.3


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------
@dataclass
class ClusterReport:
    """Result of a two-level accumulation test.

    ``centers`` are detected accumulation points; ``clustered_fine``
    lists the fine-level eigenvalues lying within ``delta`` of a center.
    ``outside_*`` count eigenvalues further than ``delta`` from every
    center at each level (bounded outside counts are the essential-
    spectrum signature).
    """

    delta: float
    centers: np.ndarray
    counts_coarse: np.ndarray
    counts_fine: np.ndarray
    outside_coarse: int
    outside_fine: int
    clustered_fine: np.ndarray

    @property
    def diameter(self) -> float:
        """Spread of the detected accumulation set (fine level)."""
        if len(self.clustered_fine) < 2:
            return 0.0
        z = self.clustered_fine
        return float(np.max(np.abs(z[:, None] - z[None, :])))


@dataclass
class FredholmVerdict:
    """Outcome of the two Fredholm conditions on a coefficient field.

    ``strength`` is "iff" when the coefficient is constant on the
    boundary (the conditions are then necessary and sufficient) and
    "sufficient-only" otherwise. ``inconclusive`` flags boundary values
    close to (but not within tolerance of) the breakdown set when Sigma
    is a numerically estimated interval.
    """

    condition_i: bool
    condition_ii: bool
    strength: str
    inconclusive: bool

    @property
    def fredholm(self) -> bool:
        return self.condition_i and self.condition_ii


# ---------------------------------------------------------------------------
# Reflection blocks
# ---------------------------------------------------------------------------
def commuting_reflections(matrix: np.ndarray,
                          reflections: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The permutations p of ``reflections`` that commute with the matrix:
    max|M[p][:, p] - M| <= ``SYMMETRY_TOL`` max|M|, checked in row chunks
    (no full-size temporary). Each must be an involution, and together
    they must generate a group ``_group`` supports. One already in the
    group of those kept is kept unchecked: its defect is at most twice the
    tolerance, and the residuals against the full matrix still see it."""
    n = len(matrix)
    chunks = [slice(start, start + max(1, n // 16)) for start in range(0, n, max(1, n // 16))]
    scale = max((float(np.max(np.abs(matrix[rows]))) for rows in chunks), default=0.0)
    kept, group = [], np.arange(n)[None]
    for perm in reflections:
        perm = np.asarray(perm)
        if perm.shape != (n,) or not np.array_equal(perm[perm], np.arange(n)):
            raise ValueError(f"not an involution of {n} unknowns")
        if (group == perm).all(axis=1).any():
            kept.append(perm)
            continue
        grown = _group(kept + [perm])[0]
        defect = max((float(np.max(np.abs(np.take(np.take(matrix, perm[rows], axis=0), perm,
                                                          axis=1) - matrix[rows])))
                      for rows in chunks), default=0.0)
        if defect <= SYMMETRY_TOL * scale:
            kept.append(perm)
            group = grown
    return kept


def _group(perms: Sequence[np.ndarray]) -> Tuple[np.ndarray, Sequence[int]]:
    """The group the involutions ``perms`` generate, as rows of index maps
    (row s applies the i-th generator used when bit i of s is set), and the
    indices chi of its one-dimensional characters, chi(row s) =
    (-1)^popcount(s & chi). Commuting generators are used as given, except
    those already in the group: 2^r characters for r used. Non-commuting Rx, S must generate the square's
    dihedral group, from Rx, Ry = S Rx S and S: the four characters with
    chi(Rx) = chi(Ry). Any other group raises ValueError."""
    pairs = [(p, q) for p in perms for q in perms if not np.array_equal(p[q], q[p])]
    rx, s = pairs[0] if pairs else (None, None)
    gens = [rx, s[rx[s]], s] if pairs else perms
    images = np.arange(len(perms[0]))[None]
    for perm in gens:
        if not (images == perm).all(axis=1).any():
            images = np.vstack([images, perm[images]])
    if pairs and (len(images) != 8 or not np.array_equal(rx[gens[1]], gens[1][rx])
                  or not all((images == p).all(axis=1).any() for p in perms)):
        raise ValueError("reflections must commute or generate the dihedral group of the square")
    return images, ((0, 3, 4, 7) if pairs else range(len(images)))


def _orbit_bases(images: np.ndarray, characters: Sequence[int]) -> list:
    """Per character chi (see ``_group``) of the group of rows of ``images``,
    a basis (cols, vals) of (n_chi, |G|) arrays: column c is sum_s vals[c, s]
    e_{cols[c, s]}, an orbit summed with the signs chi(s) (repeated indices
    add up). Vanishing orbit sums and empty classes are dropped."""
    n = images.shape[1]
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    orbits = images[:, reps]                               # (|G|, orbits)
    stabilizer = orbits == reps
    bases = []
    for chi in characters:
        signs = np.array([(-1.0) ** bin(s & chi).count("1") for s in range(len(images))])
        keep = np.all((signs[:, None] > 0) | ~stabilizer, axis=0)
        if keep.any():
            norm = np.sqrt(len(images) * stabilizer[:, keep].sum(axis=0))
            bases.append((orbits[:, keep].T, signs[None, :] / norm[:, None]))
    return bases


def _reflection_bases(matrix: np.ndarray, reflections: Sequence[np.ndarray]) -> list:
    """Orthonormal bases of the symmetry classes of the reflections that
    commute with the matrix, as pairs (Q, P): P is None or, for the square's
    dihedral group, P = S Q is the class Rx = +1, Ry = -1 paired with Q's
    Rx = -1, Ry = +1, whose block P^T M P equals Q^T M Q. Without a
    commuting reflection the one pair is (None, None), the identity."""
    kept = commuting_reflections(matrix, reflections)
    if not kept:
        return [(None, None)]
    images, characters = _group(kept)
    bases = [(basis, None) for basis in _orbit_bases(images, characters)]
    if len(characters) < len(images):  # the dihedral group, whose row 4 is S
        bases += [((cols, vals), (images[4][cols], vals))
                  for cols, vals in _orbit_bases(images[:4], [1])]
    return bases


def _times_basis(matrix: np.ndarray, basis) -> np.ndarray:
    """M Q, by column gathers."""
    cols, vals = basis
    out = np.zeros((len(matrix), len(cols)), dtype=matrix.dtype)
    taken = np.empty_like(out)
    for s in range(cols.shape[1]):
        np.take(matrix, cols[:, s], axis=1, out=taken, mode="clip")  # unbuffered
        taken *= vals[:, s]
        out += taken
    return out


def _restrict(basis, x: np.ndarray) -> np.ndarray:
    """Q^T x, by row gathers."""
    cols, vals = basis
    out = np.zeros((len(cols),) + x.shape[1:], dtype=x.dtype)
    for s in range(cols.shape[1]):
        out += vals[:, s, None] * x[cols[:, s]]
    return out


def _expand(basis, y: np.ndarray, n: int) -> np.ndarray:
    """Q y: block coefficients back to the n unknowns."""
    if basis is None:
        return y
    cols, vals = basis
    out = np.zeros((n,) + y.shape[1:], dtype=y.dtype)
    for s in range(cols.shape[1]):  # distinct indices for each s
        out[cols[:, s]] += vals[:, s, None] * y
    return out


# ---------------------------------------------------------------------------
# Dense eigensolve with residual certification
# ---------------------------------------------------------------------------
def _certified_eigenpairs(matrix: np.ndarray, basis, partner) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of one block, with residuals ||M Q y - lambda Q y|| / ||Q y||;
    with a partner basis P, the same eigenvalues again, with residuals
    ||M P y - lambda P y|| / ||P y|| for the same eigenvectors y."""
    import scipy.linalg as sla
    mq = matrix if basis is None else _times_basis(matrix, basis)
    vals, vecs = sla.eig(mq if basis is None else _restrict(basis, mq))
    res = [_residuals(mq, basis, vals, vecs)]
    if partner is not None:
        del mq  # before M P is formed
        res.append(_residuals(_times_basis(matrix, partner), partner, vals, vecs))
    return np.tile(vals, len(res)), np.concatenate(res)


def _residuals(mq: np.ndarray, basis, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """||M Q y - lambda Q y|| / ||Q y|| for each eigenpair (lambda, y), given M Q."""
    qy = _expand(basis, vecs, len(mq))
    return np.linalg.norm(mq @ vecs - qy * vals[None, :], axis=0) / np.linalg.norm(qy, axis=0)


def eigenvalues_dense(matrix, reflections: Sequence[np.ndarray] = ()
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a complex matrix, each with a certified residual.

    ``reflections`` are candidate symmetries (``geometry.reflections``);
    those that commute with the matrix split it into diagonal blocks
    B = Q^T M Q, each solved by one LAPACK eigensolve (once for a pair of
    equal blocks). Residuals are ||M Q y - lambda Q y|| / ||Q y|| for the
    computed eigenvectors y of B, i.e. against the full matrix. Without a
    commuting reflection Q is the identity and this is one eigensolve of M.
    Eigenvalues are returned sorted by (real, imaginary) part. LAPACK
    guarantees residuals of the order of eps ||M||, so a warning is logged
    (and nothing aborts) when some residual exceeds ``RESIDUAL_TOL * ||M||_1``.
    """
    n = np.shape(matrix)[0]
    if np.shape(matrix) != (n, n):
        raise ValueError("eigenvalue computation needs a square matrix")
    matrix = np.asarray(matrix)
    bases = _reflection_bases(matrix, reflections)
    if bases[0][0] is None:
        # complex input and eigenvectors, then LAPACK's copy and workspace (133
        # columns) or two residual temporaries (peak 3.0-3.5 complex, 4.0-4.6 real
        # at n = 128-1032)
        check_dense_budget("dense eigensolve", 4, n, n + 40)
    else:
        # per block of w columns: M Q, Q y and three residual temporaries (peak
        # 4.0-5.1 (n, w + 8) for 2, 4 and 8 blocks at n = 78-3184 and 4.2-4.7 for
        # the square's 5 at n = 64-1920), plus the complex copy of a real input
        w = max(len(basis[0]) for basis, _ in bases)
        copy = 0 if matrix.dtype == np.complex128 else n / (w + 8)
        check_dense_budget("dense eigensolve", 5 + copy, n, w + 8)
    matrix = np.asarray(matrix, dtype=np.complex128)
    pairs = [_certified_eigenpairs(matrix, basis, partner) for basis, partner in bases]
    vals, res = (np.concatenate(part) for part in zip(*pairs))
    high = res > RESIDUAL_TOL * np.linalg.norm(matrix, 1)
    if high.any():
        logger.warning("eigensolve: %d residuals above %.1e ||M||_1 (worst %.2e)",
                       int(high.sum()), RESIDUAL_TOL, float(res.max()))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], res[order]


# ---------------------------------------------------------------------------
# Coefficient <-> essential-spectrum parameter maps
# ---------------------------------------------------------------------------
def sigma_to_a(sigma):
    """Boundary coefficient value a whose symbol parameter is sigma.

    The map t -> t / (t - 1) is an involution, so it inverts a_to_sigma;
    exact inputs (fractions) are mapped exactly. sigma = 1/2 gives the
    smooth-boundary breakdown value a = -1.
    """
    if sigma == 1:
        raise ValueError("sigma = 1 is the pole of the coefficient map")
    return sigma / (sigma - 1)


def a_to_sigma(a):
    """Symbol parameter sigma = a / (a - 1) of a boundary coefficient value."""
    if a == 1:
        raise ValueError("a = 1 is the pole of the symbol map (no contrast)")
    return a / (a - 1)


def essential_set(grid: VolumeGrid, mesh: BoundaryMesh, coeffs: CoefficientField) -> np.ndarray:
    """Samples of the predicted essential spectrum a(closure of Omega) and
    {(1 + a(x))/2 : x on Gamma}: a at the grid's cell centres, followed by
    (1 + a)/2 at the mesh nodes.

    The boundary part is the smooth-boundary symbol, sigma = 1/2, on every
    shape; corners widen it (ROADMAP items 6 and 16).
    """
    return np.concatenate([coeffs.a(grid.centers), 0.5 * (1.0 + coeffs.a(mesh.nodes))])


def farthest_distance(points: np.ndarray, targets: np.ndarray) -> float:
    """Largest distance from a complex point to its nearest target (inf
    when there is no target), by a k-d tree on the (re, im) pairs."""
    from scipy.spatial import cKDTree

    def plane(z):
        return np.column_stack([np.real(z), np.imag(z)])
    return float(np.max(cKDTree(plane(targets)).query(plane(points))[0], initial=0.0))


# ---------------------------------------------------------------------------
# Cluster detection (two-level accumulation test)
# ---------------------------------------------------------------------------
def detect_clusters(eigs_coarse: np.ndarray, eigs_fine: np.ndarray,
                    delta: float) -> ClusterReport:
    """Greedy density clustering of eigenvalues across two resolutions.

    Candidate centers are taken at the densest fine-level eigenvalues;
    a candidate becomes a cluster when it holds at least
    ``CLUSTER_MIN_COUNT`` fine-level eigenvalues within ``delta`` and that
    count grows by at least ``CLUSTER_GROWTH`` from the coarse level.
    Dense but non-growing spots (stable outliers, e.g. isolated
    eigenvalues of fixed multiplicity) are rejected and counted outside.
    """
    eigs_coarse = np.asarray(eigs_coarse, dtype=complex)
    eigs_fine = np.asarray(eigs_fine, dtype=complex)
    remaining = eigs_fine.copy()
    centers: List[complex] = []
    counts_c: List[int] = []
    counts_f: List[int] = []
    while len(remaining) >= CLUSTER_MIN_COUNT:
        dist = np.abs(remaining[:, None] - remaining[None, :])
        counts = (dist <= delta).sum(axis=1)
        best = int(np.argmax(counts))
        if counts[best] < CLUSTER_MIN_COUNT:
            break
        local = remaining[dist[best] <= delta]
        center = complex(np.mean(local))
        c_fine = int(np.sum(np.abs(eigs_fine - center) <= delta))
        c_coarse = int(np.sum(np.abs(eigs_coarse - center) <= delta))
        grows = (c_fine >= CLUSTER_GROWTH * c_coarse) if c_coarse > 0 \
            else (c_fine >= 3 * CLUSTER_MIN_COUNT)
        if grows and c_fine >= CLUSTER_MIN_COUNT:
            centers.append(center)
            counts_c.append(c_coarse)
            counts_f.append(c_fine)
        keep = np.abs(remaining - center) > delta
        if keep.all():
            break
        remaining = remaining[keep]
    centers_arr = np.array(centers, dtype=complex)
    if len(centers_arr):
        d_fine = np.min(np.abs(eigs_fine[:, None] - centers_arr[None, :]), axis=1)
        d_coarse = np.min(np.abs(eigs_coarse[:, None] - centers_arr[None, :]), axis=1)
        clustered = eigs_fine[d_fine <= delta]
        outside_f = int(np.sum(d_fine > delta))
        outside_c = int(np.sum(d_coarse > delta))
    else:
        clustered = np.array([], dtype=complex)
        outside_f, outside_c = len(eigs_fine), len(eigs_coarse)
    return ClusterReport(delta, centers_arr, np.array(counts_c), np.array(counts_f),
                         outside_c, outside_f, clustered)


# ---------------------------------------------------------------------------
# Fredholm verdicts
# ---------------------------------------------------------------------------
def fredholm_verdict(grid: VolumeGrid, mesh: BoundaryMesh, coeffs: CoefficientField,
                     sigma_estimate: Sequence[complex]) -> FredholmVerdict:
    """Evaluate the two Fredholm conditions on the samples of ``essential_set``:
    a at the grid's cell centres and at the mesh nodes.

    (i) min |a| over the centres and nodes exceeds 1e-9; (ii) every node
    value stays farther than 1e-6 from every breakdown coefficient
    sigma/(sigma-1), sigma in the supplied essential-set estimate. The
    verdict is "iff" when the node values agree within 1e-10. Verdicts whose
    boundary values approach the breakdown set within 0.02 (without
    violating it) are flagged inconclusive when Sigma itself is a numeric
    estimate (more than one sigma).
    """
    a_in, a_bd = coeffs.a(grid.centers), coeffs.a(mesh.nodes)
    cond_i = float(min(np.min(np.abs(a_in)), np.min(np.abs(a_bd)))) > 1e-9

    sigma_arr = np.array([complex(s) for s in sigma_estimate])
    breakdown = sigma_arr / (sigma_arr - 1.0)
    min_dist = float(np.min(np.abs(a_bd[:, None] - breakdown[None, :])))
    cond_ii = min_dist > 1e-6

    const_dev = float(np.max(np.abs(a_bd - a_bd.mean())))
    strength = "iff" if const_dev <= 1e-10 else "sufficient-only"
    inconclusive = bool(len(sigma_arr) > 1 and cond_ii and min_dist <= 0.02)
    return FredholmVerdict(cond_i, cond_ii, strength, inconclusive)


# ---------------------------------------------------------------------------
# Condition sweeps toward the breakdown locus
# ---------------------------------------------------------------------------
def condition_estimate(matrix: np.ndarray, reflections: Sequence[np.ndarray] = ()) -> float:
    """Exact l2 condition number s_max / s_min of a square matrix.

    Computed from all singular values, so it is deterministic; the
    reflections that commute with the matrix (see ``eigenvalues_dense``)
    split it into orthogonally equivalent blocks whose singular values
    together are the matrix's (a pair of equal blocks is solved once).
    Returns inf for non-finite input and for numerically singular matrices,
    s_min <= n eps s_max (numpy's ``matrix_rank`` tolerance).
    """
    import scipy.linalg as sla
    matrix = np.asarray(matrix)
    n = max(matrix.shape)
    bases = _reflection_bases(matrix, reflections)
    if bases[0][0] is None:
        # LAPACK's copy of the input and its workspace (measured: under 86 columns)
        check_dense_budget("condition number", 1.0, n, n + 96)
    else:
        # per block of w columns: M Q and its gathers, then the block and LAPACK's
        # copy (peak 2.0-2.8 (n, w + 8) for 2, 4, 8 and 5 blocks at n = 64-3184)
        w = max(len(basis[0]) for basis, _ in bases)
        check_dense_budget("condition number", 3, n, w + 8)
    if not np.all(np.isfinite(matrix)):
        return float("inf")
    s = np.concatenate([sla.svdvals(matrix if basis is None else
                                    _restrict(basis, _times_basis(matrix, basis)),
                                    check_finite=False) for basis, _ in bases])
    s_max, s_min = s.max(), s.min()
    if s_min <= n * np.finfo(s.dtype).eps * s_max:
        return float("inf")
    return float(s_max / s_min)


def spectral_instrument(grid: VolumeGrid, mesh: BoundaryMesh, params: WaveParameters,
                        coeffs: CoefficientField) -> np.ndarray:
    """The spectral instrument on a built grid and mesh: the quadrature-weighted
    coupled matrix with the Nystrom boundary operator."""
    return quadrature_weighted_matrix(
        assemble_coupled(coupled_blocks(grid, mesh, params, "nystrom"), coeffs), grid, mesh)


def spectral_operator_matrix(domain: DomainGeometry, params: WaveParameters,
                             coeffs: CoefficientField, n_per_axis: int,
                             boundary_nodes: Optional[int] = None) -> np.ndarray:
    """The spectral instrument on a grid of ``n_per_axis`` cells per axis and a
    mesh of ``boundary_nodes`` nodes (``4 n_per_axis`` by default).

    This is the clean discrete representation of the volume system for
    eigenvalue-accumulation and conditioning experiments: the Nystrom K
    keeps the boundary essential cluster sharp, while the stencil-based
    volume assembly pollutes the band between 1 and the coefficient
    value (the mask-restricted difference symbol detunes at high grid
    frequencies), which is why no spectrum runs on the assembled I - A.
    """
    grid = build_volume_grid(domain, n_per_axis)
    mesh = build_boundary_mesh(domain, boundary_nodes or 4 * n_per_axis)
    return spectral_instrument(grid, mesh, params, coeffs)


def condition_sweep(grid: VolumeGrid, mesh: BoundaryMesh, params: WaveParameters,
                    a_values: Sequence[complex]) -> List[Tuple[complex, float]]:
    """Condition of the discretized volume system for each coefficient value.

    Uses the spectral instrument on the one given grid and mesh, so the
    comparison isolates the coefficient's effect; the breakdown
    signature is monotone growth as the boundary value approaches the
    image of the essential set. Singular assemblies report inf.

    The Nystrom blocks are built once and every value's system is assembled
    from them, so each value costs only their scalings, its volume block and
    the singular values of the blocks of the reflections of the grid and
    mesh. The condition numbers are exact and depend on no seed.
    """
    symmetries = reflections(grid, mesh)
    blocks = coupled_blocks(grid, mesh, params, "nystrom")
    out = []
    for a_val in a_values:
        coeffs = constant_a(grid.domain, params.k, a_val)
        cond = condition_estimate(quadrature_weighted_matrix(
            assemble_coupled(blocks, coeffs), grid, mesh), symmetries)
        logger.debug("condition sweep: a=%s cond=%.3e", a_val, cond)
        out.append((complex(a_val), cond))
    return out
