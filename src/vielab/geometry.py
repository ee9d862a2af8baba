"""Scatterer shapes, the uniform volume grid, and boundary quadrature meshes.

The scatterer occupies a bounded domain with boundary Gamma. Volume
unknowns live at the centers of uniform grid cells whose center falls
inside the domain; boundary unknowns live at quadrature nodes on a 2D
Gamma carrying outward unit normals and arclength weights.

Shapes: disc, ellipse, counterclockwise polygon (2D), ball (3D). Smooth
closed curves use nodes equispaced in parameter with trapezoidal weights
(spectrally accurate); polygon edges use meshes graded toward both
endpoints, the standard cure for corner singularities of the double
layer operator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: Default bounding-box margin as a fraction of the largest shape extent.
DEFAULT_BBOX_MARGIN = 0.1

#: Points whose level-set value is within this (scaled) tolerance of the
#: boundary count as inside; the tie-break must be fixed for reproducibility.
ON_BOUNDARY_TOL = 1e-14


# ---------------------------------------------------------------------------
# Domain geometry
# ---------------------------------------------------------------------------
@dataclass(eq=False)
class DomainGeometry:
    """A scatterer shape with its axis-aligned bounding box.

    Attributes
    ----------
    kind : str
        One of ``"disc"``, ``"ellipse"``, ``"polygon"``, ``"ball"``.
    dimension : int
        2 or 3 (3 is permitted only for the ball).
    radius : float, optional
        Radius for disc/ball.
    semi_axes : np.ndarray, optional
        Semi-axes ``(a, b)`` for the ellipse.
    vertices : np.ndarray, optional
        Polygon vertices, shape (V, 2), counterclockwise.
    bounding_box : np.ndarray
        Shape (d, 2): per-axis ``[lo, hi]`` extents including the margin.
    """

    kind: str
    dimension: int
    radius: Optional[float] = None
    semi_axes: Optional[np.ndarray] = None
    vertices: Optional[np.ndarray] = None
    bounding_box: np.ndarray = field(default=None)  # type: ignore[assignment]

    # -- constructors -------------------------------------------------------
    @classmethod
    def disc(cls, radius: float, margin: float = DEFAULT_BBOX_MARGIN) -> "DomainGeometry":
        """Disc of given radius centered at the origin (2D)."""
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        box = _margin_box(np.array([[-radius, radius], [-radius, radius]]), margin)
        return cls(kind="disc", dimension=2, radius=float(radius), bounding_box=box)

    @classmethod
    def ellipse(cls, semi_axes: Sequence[float], margin: float = DEFAULT_BBOX_MARGIN) -> "DomainGeometry":
        """Axis-aligned ellipse with semi-axes ``(a, b)`` (2D)."""
        ax = np.asarray(semi_axes, dtype=float)
        if ax.shape != (2,) or np.any(ax <= 0):
            raise ValueError("ellipse needs two positive semi-axes")
        box = _margin_box(np.stack([-ax, ax], axis=1), margin)
        return cls(kind="ellipse", dimension=2, semi_axes=ax, bounding_box=box)

    @classmethod
    def polygon(cls, vertices: Sequence[Sequence[float]], margin: float = DEFAULT_BBOX_MARGIN) -> "DomainGeometry":
        """Simple polygon with counterclockwise vertices (2D)."""
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        _validate_polygon(verts)
        box = _margin_box(np.stack([verts.min(axis=0), verts.max(axis=0)], axis=1), margin)
        return cls(kind="polygon", dimension=2, vertices=verts, bounding_box=box)

    @classmethod
    def ball(cls, radius: float, margin: float = DEFAULT_BBOX_MARGIN) -> "DomainGeometry":
        """Ball of given radius centered at the origin (3D)."""
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        box = _margin_box(np.array([[-radius, radius]] * 3, dtype=float), margin)
        return cls(kind="ball", dimension=3, radius=float(radius), bounding_box=box)

    # -- queries ------------------------------------------------------------
    @property
    def diameter(self) -> float:
        """Diameter of the bounding box (an upper bound for the shape's)."""
        ext = self.bounding_box[:, 1] - self.bounding_box[:, 0]
        return float(np.linalg.norm(ext))

    def cell_width(self, n_per_axis: int) -> float:
        """Side of the cells of a grid of ``n_per_axis`` cells along the box's
        longest axis."""
        return float(np.max(self.bounding_box[:, 1] - self.bounding_box[:, 0])) / n_per_axis

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized inside test; points on the boundary count as inside.

        Parameters
        ----------
        points : np.ndarray, shape (P, d)

        Returns
        -------
        np.ndarray of bool, shape (P,)
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValueError(f"expected points of dimension {self.dimension}")
        if self.kind in ("disc", "ball"):
            r = np.linalg.norm(pts, axis=1)
            tol = ON_BOUNDARY_TOL * max(1.0, self.radius)
            return r <= self.radius + tol
        if self.kind == "ellipse":
            a, b = self.semi_axes
            level = (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2 - 1.0
            return level <= 4.0 * ON_BOUNDARY_TOL
        if self.kind == "polygon":
            return _polygon_contains(self.vertices, pts)
        raise ValueError(f"unknown shape kind {self.kind!r}")

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Unsigned distance from each point to the boundary Gamma.

        Exact for disc/ball/polygon; for the ellipse a dense parameter
        sampling is used (sufficient for near-boundary detection).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind in ("disc", "ball"):
            return np.abs(np.linalg.norm(pts, axis=1) - self.radius)
        if self.kind == "polygon":
            return _polyline_distance(self.vertices, pts)
        if self.kind == "ellipse":
            a, b = self.semi_axes
            t = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
            curve = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
            return _polyline_distance(curve, pts)
        raise ValueError(f"unknown shape kind {self.kind!r}")


def _margin_box(box: np.ndarray, margin: float) -> np.ndarray:
    if margin < 0:
        raise ValueError("bounding-box margin must be >= 0")
    ext = float(np.max(box[:, 1] - box[:, 0]))
    pad = margin * ext
    out = box.astype(float).copy()
    out[:, 0] -= pad
    out[:, 1] += pad
    return out


def _validate_polygon(verts: np.ndarray) -> None:
    V = len(verts)
    scale = float(np.max(np.abs(verts))) or 1.0
    nxt = np.roll(verts, -1, axis=0)
    if np.any(np.linalg.norm(nxt - verts, axis=1) < 1e-12 * scale):
        raise ValueError("polygon has coincident consecutive vertices")
    # signed area (shoelace); must be positive for CCW orientation
    area2 = float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
    if area2 <= 0:
        raise ValueError("polygon vertices must be counterclockwise (signed area > 0)")
    for i in range(V):
        e1 = verts[(i + 1) % V] - verts[i]
        e2 = verts[(i + 2) % V] - verts[(i + 1) % V]
        cross = e1[0] * e2[1] - e1[1] * e2[0]
        if abs(cross) < 1e-12 * scale * scale:
            raise ValueError(f"consecutive collinear vertices at index {(i + 1) % V}")


def _polygon_contains(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting with an explicit on-boundary inclusion test."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    V = len(verts)
    for i in range(V):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % V]
        crosses = (y1 <= y) != (y2 <= y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_hit = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < x_hit)
    scale = float(np.max(np.abs(verts))) or 1.0
    on_edge = _polyline_distance(verts, pts) <= ON_BOUNDARY_TOL * scale
    return inside | on_edge


def _polyline_distance(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from points (P, 2) to the closed polyline through vertices (V, 2)."""
    ab = np.roll(verts, -1, axis=0) - verts  # (E, 2)
    ab2 = np.maximum((ab * ab).sum(axis=1), 1e-300)
    best = np.full(len(pts), np.inf)
    for e in range(len(verts)):
        ap = pts - verts[e]
        t = np.clip((ap @ ab[e]) / ab2[e], 0.0, 1.0)
        proj = verts[e] + t[:, None] * ab[e]
        best = np.minimum(best, np.linalg.norm(pts - proj, axis=1))
    return best


# ---------------------------------------------------------------------------
# Volume grid
# ---------------------------------------------------------------------------
@dataclass(eq=False)
class VolumeGrid:
    """Uniform grid over the bounding box with an inclusion mask.

    Cells are squares/cubes of side ``h``; a cell belongs to the unknown
    set exactly when its center lies inside the shape. ``centers`` lists
    the included cell centers; ``flat_index`` maps grid coordinates to
    the linear unknown index (or -1), and ``coords`` is its inverse.
    All fields are immutable after construction.
    """

    domain: DomainGeometry
    h: float
    shape: tuple                # per-axis cell counts
    mask: np.ndarray            # bool, grid shape
    centers: np.ndarray         # (N, d) included cell centers
    coords: np.ndarray          # (N, d) integer grid coordinates
    flat_index: np.ndarray      # int, grid shape; -1 for excluded cells

    @property
    def n(self) -> int:
        """Number of included cells (volume unknowns)."""
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension


def build_volume_grid(domain: DomainGeometry, n_per_axis: int) -> VolumeGrid:
    """Build the uniform volume grid with inclusion-by-center masking.

    ``h`` is the largest bounding-box extent divided by ``n_per_axis``;
    other axes are covered with as many cells of the same side length as
    needed, centred on the box (they overhang it equally on both sides).
    Fails if no cell center lies inside the shape.
    """
    if n_per_axis < 4:
        raise ValueError("n_per_axis must be at least 4")
    box = domain.bounding_box
    ext = box[:, 1] - box[:, 0]
    h = domain.cell_width(n_per_axis)
    counts = tuple(int(math.ceil(e / h - 1e-12)) for e in ext)
    # offsets from the box centre by half-integers of h: mirror pairs are exact negatives
    mid = box.mean(axis=1)
    axes = [mid[c] + h * (np.arange(nc) - (nc - 1) / 2) for c, nc in enumerate(counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    all_centers = np.stack([m.ravel() for m in mesh], axis=1)  # (total, d)
    mask_flat = domain.contains(all_centers)
    if not mask_flat.any():
        raise ValueError("no cell center lies inside the domain; refine the grid")
    mask = mask_flat.reshape(counts)
    centers = all_centers[mask_flat]
    flat_index = np.full(counts, -1, dtype=np.int64)
    flat_index[mask] = np.arange(int(mask_flat.sum()))
    coords = np.argwhere(mask)
    grid = VolumeGrid(
        domain=domain,
        h=h,
        shape=counts,
        mask=mask,
        centers=centers,
        coords=coords,
        flat_index=flat_index,
    )
    logger.debug("volume grid: h=%.4g, shape=%s, N=%d", h, counts, grid.n)
    return grid


# ---------------------------------------------------------------------------
# Boundary mesh
# ---------------------------------------------------------------------------
@dataclass(eq=False)
class BoundaryMesh:
    """Quadrature nodes on Gamma with outward unit normals and weights.

    ``curvatures`` holds the signed curvature at each node for smooth 2D
    curves (positive for convex boundaries) and zeros for polygon edges;
    it feeds the Nystrom diagonal of the double layer operator.
    ``edge_index`` is -1 for smooth shapes and the edge number for
    polygon nodes.
    """

    domain: DomainGeometry
    nodes: np.ndarray        # (M, d)
    normals: np.ndarray      # (M, d) outward unit normals
    weights: np.ndarray      # (M,) positive quadrature weights
    curvatures: np.ndarray   # (M,)
    edge_index: np.ndarray   # (M,) int
    grading: float

    @property
    def m(self) -> int:
        """Number of boundary quadrature nodes."""
        return len(self.nodes)

    @property
    def is_smooth(self) -> bool:
        return self.domain.kind in ("disc", "ellipse")


def build_boundary_mesh(domain: DomainGeometry, n_nodes: int, grading: float = 3.0) -> BoundaryMesh:
    """Build the Nystrom quadrature mesh on Gamma.

    Smooth shapes get nodes equispaced in parameter with trapezoidal
    weights; polygons get per-edge meshes graded toward both endpoints
    with the given exponent (1 = uniform), nodes at panel midpoints so
    no node ever coincides with a vertex.
    """
    if n_nodes < 8:
        raise ValueError("n_nodes must be at least 8")
    if grading < 1:
        raise ValueError("grading exponent must be >= 1")
    if domain.kind == "disc":
        return _circle_mesh(domain, n_nodes, grading)
    if domain.kind == "ellipse":
        return _ellipse_mesh(domain, n_nodes, grading)
    if domain.kind == "polygon":
        return _polygon_mesh(domain, n_nodes, grading)
    raise ValueError(f"boundary meshes are built for 2D shapes only, not a {domain.kind}")


def _circle_mesh(domain: DomainGeometry, n: int, grading: float) -> BoundaryMesh:
    r = domain.radius
    t = 2 * np.pi * np.arange(n) / n
    nodes = r * np.stack([np.cos(t), np.sin(t)], axis=1)
    normals = np.stack([np.cos(t), np.sin(t)], axis=1)
    weights = np.full(n, 2 * np.pi * r / n)
    curv = np.full(n, 1.0 / r)
    return BoundaryMesh(domain, nodes, normals, weights, curv,
                        np.full(n, -1, dtype=int), grading)


def _ellipse_mesh(domain: DomainGeometry, n: int, grading: float) -> BoundaryMesh:
    a, b = domain.semi_axes
    t = 2 * np.pi * np.arange(n) / n
    ct, st = np.cos(t), np.sin(t)
    nodes = np.stack([a * ct, b * st], axis=1)
    speed = np.sqrt((a * st) ** 2 + (b * ct) ** 2)
    weights = speed * (2 * np.pi / n)
    normals = np.stack([b * ct, a * st], axis=1) / np.sqrt((b * ct) ** 2 + (a * st) ** 2)[:, None]
    curv = a * b / speed ** 3
    return BoundaryMesh(domain, nodes, normals, weights, curv,
                        np.full(n, -1, dtype=int), grading)


def _graded_fractions(m: int, p: float) -> np.ndarray:
    """Partition points of [0, 1] graded toward both endpoints, exponent p."""
    s = np.linspace(0.0, 1.0, m + 1)
    return s ** p / (s ** p + (1.0 - s) ** p)


def _polygon_mesh(domain: DomainGeometry, n: int, grading: float) -> BoundaryMesh:
    verts = domain.vertices
    V = len(verts)
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.linalg.norm(edges, axis=1)
    # distribute nodes proportionally to edge length, at least 4 per edge
    counts = np.maximum(4, np.round(n * lengths / lengths.sum()).astype(int))
    nodes, normals, weights, edge_idx = [], [], [], []
    for e in range(V):
        tang = edges[e] / lengths[e]
        nrm = np.array([tang[1], -tang[0]])  # outward for CCW vertices
        # the grading is symmetric, so the far half mirrors the near half: its
        # nodes are placed from the far vertex, which keeps their offsets from
        # it exact to rounding and the mesh mirror-symmetric
        frac = _graded_fractions(counts[e], grading) * lengths[e]
        near = (counts[e] + 1) // 2
        offsets = 0.5 * (frac[:near] + frac[1:near + 1])
        gaps = frac[1:near + 1] - frac[:near]
        far = counts[e] - near
        nodes.append(np.vstack([verts[e] + offsets[:, None] * tang,
                                verts[(e + 1) % V] - offsets[far - 1::-1, None] * tang]))
        weights.append(np.concatenate([gaps, gaps[far - 1::-1]]))
        normals.append(np.tile(nrm, (counts[e], 1)))
        edge_idx.append(np.full(counts[e], e, dtype=int))
    nodes = np.vstack(nodes)
    m = len(nodes)
    return BoundaryMesh(domain, nodes, np.vstack(normals), np.concatenate(weights),
                        np.zeros(m), np.concatenate(edge_idx), grading)


# ---------------------------------------------------------------------------
# Reflection symmetries of the unknowns
# ---------------------------------------------------------------------------
def reflections(grid: Optional[VolumeGrid] = None,
                mesh: Optional[BoundaryMesh] = None) -> List[np.ndarray]:
    """Permutations of the unknowns by the reflections through the centre of
    the bounding box.

    The unknowns are the grid's cell centres followed by the mesh's nodes
    (either may be left out). One index array per reflection that maps each
    point set onto itself within 1e-12 of the domain's diameter: entry j is
    the unknown that unknown j is mirrored onto. The candidates are the
    coordinate reflections and, in 2D, the diagonal x <-> y, listed between
    the axes (with the first it generates the second). The permutations
    only propose symmetries; the spectral routines keep those that commute
    with the matrix at hand.
    """
    point_sets = ([] if grid is None else [grid.centers]) + ([] if mesh is None else [mesh.nodes])
    domain = (mesh if grid is None else grid).domain
    centre = domain.bounding_box.mean(axis=1)
    offsets = np.cumsum([0] + [len(s) for s in point_sets])
    out = []
    for axis in ([0, None, 1] if domain.dimension == 2 else range(domain.dimension)):
        perms = [_mirror(s, axis, centre, 1e-12 * domain.diameter) for s in point_sets]
        if all(p is not None for p in perms):
            out.append(np.concatenate([p + o for p, o in zip(perms, offsets)]))
    return out


def _mirror(nodes: np.ndarray, axis: Optional[int], centre: np.ndarray,
            tol: float) -> Optional[np.ndarray]:
    """Index of the node each node is mirrored onto through the plane
    x_axis = centre_axis (the diagonal x - centre_x = y - centre_y when
    ``axis`` is None), or None unless this is a bijection within ``tol``."""
    from scipy.spatial import cKDTree
    if axis is None:
        image = centre + (nodes - centre)[:, ::-1]
    else:
        image = nodes.copy()
        image[:, axis] = 2.0 * centre[axis] - image[:, axis]
    dist, match = cKDTree(nodes).query(image)
    if np.max(dist) > tol or len(np.unique(match)) != len(nodes):
        return None
    return match
