"""Triangulated flat model domains with boundary bookkeeping.

Three structured meshes are provided:

* ``cylinder``: the rectangle ``[0, 2*pi] x [0, L]`` with the vertical
  sides identified (periodic in the first coordinate).  Both boundary
  circles are geodesics of the flat metric.
* ``annulus``: ``{r <= |x| <= 1}`` with polygonal circles.  The flat
  geodesic curvature of the boundary is ``+1`` at ``|x| = 1`` and
  ``-1/r`` at ``|x| = r``.
* ``halfdisk``: ``{|x| <= R, y >= 0}``, the truncation domain for
  half-plane limit profiles.  The boundary splits into the flat segment
  (component 0, where the curvature condition lives) and the artificial
  outer arc (component 1).  An optional power grading concentrates the
  radial grid at the origin, where limit profiles peak.

Seam handling: periodic identification duplicates the seam vertices
geometrically and maps them onto shared degrees of freedom through
``vertex_dof``, so element geometry stays exact while nodal fields live
on the quotient.  Boundary components are stored as ordered vertex
paths carrying the analytic arc-length parameter and analytic outward
normals/tangents of the model curve.

Levels nest: :func:`build_mesh` at level + 1 doubles both counts of
the logical grid ``Mesh.grid``, so coarse vertex (i, j) is fine vertex
(2i, 2j).  :func:`coarsen` builds the level below and :func:`prolong`
the P1 prolongation from a mesh to the one a level finer, which carries
nested solves up a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

_KINDS = ("cylinder", "annulus", "halfdisk")
CIRCUMFERENCE = 2.0 * math.pi  # cylinder cross-section length is fixed


@dataclass(frozen=True)
class DomainSpec:
    """One of the flat model domains plus a refinement level."""

    kind: str
    L: float = 1.0
    r: float = 0.5
    R: float = 1.0
    level: int = 0
    grade: float = 1.0  # halfdisk radial grading exponent (1 = uniform)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.L, self.r, self.R, self.grade)):
            raise ValueError("domain sizes must be finite")
        if self.kind == "cylinder" and not self.L > 0:
            raise ValueError("cylinder length L must be positive")
        if self.kind == "annulus" and not 0 < self.r < 1:
            raise ValueError("annulus inner radius must lie in (0, 1)")
        if self.kind == "halfdisk" and not self.R > 0:
            raise ValueError("halfdisk radius R must be positive")
        if self.level < 0:
            raise ValueError("refinement level must be >= 0")
        if self.grade < 1:
            raise ValueError("grading exponent must be >= 1")


@dataclass
class BoundaryComponent:
    """Ordered vertex path along one boundary curve.

    ``verts`` lists geometric vertex ids; closed curves repeat the start
    vertex (or its periodic twin) at the end, so edges are always the
    consecutive pairs.  ``s`` is the analytic arc-length parameter.
    """

    verts: np.ndarray
    s: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    closed: bool

    @property
    def n_edges(self) -> int:
        return len(self.verts) - 1

    @property
    def edge_lengths(self) -> np.ndarray:
        return np.diff(self.s)


@dataclass
class BoundaryPoint:
    component: int
    index: int
    s: float
    coords: np.ndarray
    normal: np.ndarray


@dataclass
class Mesh:
    spec: DomainSpec
    vertices: np.ndarray  # (N, 2) geometric coordinates
    triangles: np.ndarray  # (M, 3) CCW vertex triples
    vertex_dof: np.ndarray  # (N,) geometric vertex -> degree of freedom
    n_dof: int
    components: list[BoundaryComponent]
    # logical (i, j) -> geometric vertex: i along the periodic or angular
    # direction with its seam column, j across (half-disk centre: j = 0)
    grid: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def tri_areas(self) -> np.ndarray:
        if "tri_areas" not in self._cache:
            p = self.vertices[self.triangles]
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            self._cache["tri_areas"] = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        return self._cache["tri_areas"]

    @property
    def dof_coords(self) -> np.ndarray:
        """Coordinates of one representative geometric vertex per dof."""
        if "dof_coords" not in self._cache:
            coords = np.zeros((self.n_dof, 2))
            # reversed so the first occurrence wins
            coords[self.vertex_dof[::-1]] = self.vertices[::-1]
            self._cache["dof_coords"] = coords
        return self._cache["dof_coords"]

    def boundary_point(self, component: int, index: int) -> BoundaryPoint:
        comp = self.components[component]
        return BoundaryPoint(
            component=component,
            index=index,
            s=float(comp.s[index]),
            coords=self.vertices[comp.verts[index]].copy(),
            normal=comp.normals[index].copy(),
        )

    def boundary_point_at(self, component: int, s: float) -> BoundaryPoint:
        """Vertex of ``component`` nearest to arclength ``s``."""
        return self.boundary_point(
            component, int(np.argmin(np.abs(self.components[component].s - s))))


def build_mesh(spec: DomainSpec) -> Mesh:
    if spec.kind == "cylinder":
        mesh = _build_cylinder(spec)
    elif spec.kind == "annulus":
        mesh = _build_annulus(spec)
    else:
        mesh = _build_halfdisk(spec)
    if mesh.tri_areas.min() <= 0:
        raise ValueError("mesh construction produced a non-positive triangle")
    return mesh


def coarsen(mesh: Mesh) -> Mesh:
    """The same domain one level coarser."""
    return build_mesh(replace(mesh.spec, level=mesh.spec.level - 1))


def prolong(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 prolongation from ``coarse`` to ``fine``, the same domain one
    level finer, as the sparse ``n_fine_dof x n_coarse_dof`` matrix,
    cached on ``fine``.

    Coarse vertex (i, j) is fine vertex (2i, 2j).  A fine vertex between
    two coarse ones takes their mean, along a grid line or along the
    (i, j)-(i+1, j+1) diagonal that :func:`_grid_triangles` cuts each
    cell by, so fields linear in the logical grid prolong exactly.  On
    the half-disk fan, where the centre is grid row 0, it is a start for
    Newton rather than the exact interpolant.
    """
    if fine.spec != replace(coarse.spec, level=coarse.spec.level + 1):
        raise ValueError("fine mesh is not the refinement of the coarse mesh")
    if "prolong" not in fine._cache:
        I, J = np.indices(fine.grid.shape)
        ends = (coarse.grid[I // 2, J // 2], coarse.grid[(I + 1) // 2, (J + 1) // 2])
        rows = fine.vertex_dof[fine.grid].ravel()
        # seam twins repeat a dof; keep one row each
        dofs, first = np.unique(rows, return_index=True)
        cols = np.concatenate([coarse.vertex_dof[e].ravel()[first] for e in ends])
        fine._cache["prolong"] = sp.csr_matrix(
            (np.full(len(cols), 0.5), (np.tile(dofs, 2), cols)),
            shape=(fine.n_dof, coarse.n_dof))
    return fine._cache["prolong"]


def _grid_triangles(cell_a, cell_b, cell_c, cell_d):
    """Split quad cells (a, b, c, d) in CCW order into two CCW triangles
    along a-c, which every builder takes from grid (i, j)-(i+1, j+1)."""
    a, b, c, d = (x.ravel() for x in (cell_a, cell_b, cell_c, cell_d))
    return np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])


def _build_cylinder(spec: DomainSpec) -> Mesh:
    n_s = 16 * 2**spec.level
    # base axial count fixed at level 0 so refinement scales both counts by 2
    n_t = max(1, round(16 * spec.L / CIRCUMFERENCE)) * 2**spec.level
    s = np.linspace(0.0, CIRCUMFERENCE, n_s + 1)
    t = np.linspace(0.0, spec.L, n_t + 1)
    ss, tt = np.meshgrid(s, t)
    vertices = np.column_stack([ss.ravel(), tt.ravel()])

    def vid(i, j):
        return j * (n_s + 1) + i

    grid = vid(*np.meshgrid(np.arange(n_s + 1), np.arange(n_t + 1), indexing="ij"))
    g = grid.T  # cells in row-major (j, i) order
    triangles = _grid_triangles(g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1])

    # seam vertices i = n_s share dofs with i = 0
    row = np.arange(n_s + 1) % n_s
    vertex_dof = (row[None, :] + np.arange(n_t + 1)[:, None] * n_s).ravel()
    n_dof = n_s * (n_t + 1)

    i_path = np.arange(n_s + 1)
    bottom = BoundaryComponent(
        verts=vid(i_path, 0),
        s=s.copy(),
        normals=np.tile([0.0, -1.0], (n_s + 1, 1)),
        tangents=np.tile([1.0, 0.0], (n_s + 1, 1)),
        closed=True,
    )
    # top traversed in -x so the domain stays on the left
    top = BoundaryComponent(
        verts=vid(i_path[::-1], n_t),
        s=s.copy(),
        normals=np.tile([0.0, 1.0], (n_s + 1, 1)),
        tangents=np.tile([-1.0, 0.0], (n_s + 1, 1)),
        closed=True,
    )
    return Mesh(spec, vertices, triangles, vertex_dof, n_dof, [bottom, top], grid)


def _build_annulus(spec: DomainSpec) -> Mesh:
    n_th = 16 * 2**spec.level
    # base radial count fixed at level 0 so refinement scales both counts by 2
    n_r = max(1, round(16 * (1 - spec.r) / (2 * math.pi))) * 2**spec.level
    theta = 2 * math.pi * np.arange(n_th) / n_th
    rho = np.linspace(spec.r, 1.0, n_r + 1)
    tt, rr = np.meshgrid(theta, rho)
    vertices = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])

    def vid(i, j):
        return j * n_th + np.asarray(i) % n_th

    grid = vid(*np.meshgrid(np.arange(n_th + 1), np.arange(n_r + 1), indexing="ij"))
    g = grid.T
    # counterclockwise quad order: radially out first, then along the circle
    triangles = _grid_triangles(g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:])
    n_vert = n_th * (n_r + 1)
    vertex_dof = np.arange(n_vert)

    def circle_component(j, radius, outward):
        idx = np.arange(n_th + 1)
        verts = vid(idx, j)
        ang = 2 * math.pi * idx / n_th
        sgn = 1.0 if outward else -1.0
        return BoundaryComponent(
            verts=verts,
            s=radius * ang,
            normals=sgn * np.column_stack([np.cos(ang), np.sin(ang)]),
            tangents=np.column_stack([-np.sin(ang), np.cos(ang)]),
            closed=True,
        )

    outer = circle_component(n_r, 1.0, outward=True)
    inner = circle_component(0, spec.r, outward=False)
    return Mesh(spec, vertices, triangles, vertex_dof, n_vert, [outer, inner], grid)


def _build_halfdisk(spec: DomainSpec) -> Mesh:
    n_th = 8 * 2**spec.level  # angular intervals over [0, pi]
    n_r = max(2, n_th // 2)
    theta = math.pi * np.arange(n_th + 1) / n_th
    k = np.arange(1, n_r + 1)
    rho = spec.R * (k / n_r) ** spec.grade

    # vertex 0 is the origin; ring k >= 1 holds n_th + 1 vertices
    def vid(k, i):
        return 1 + (np.asarray(k) - 1) * (n_th + 1) + np.asarray(i)

    tt, kk = np.meshgrid(theta, k)
    rr = rho[kk - 1]
    ring_coords = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    vertices = np.vstack([[0.0, 0.0], ring_coords])

    kk, ii = np.meshgrid(np.arange(n_r + 1), np.arange(n_th + 1))
    grid = np.where(kk == 0, 0, vid(kk, ii))
    g = grid.T  # row k = 0 is the centre
    fan = np.column_stack([g[0, :-1], g[1, :-1], g[1, 1:]])
    # counterclockwise quad order: radially out first, then along the arc
    triangles = np.concatenate([fan, _grid_triangles(g[1:-1, :-1], g[2:, :-1],
                                                     g[2:, 1:], g[1:-1, 1:])])
    n_vert = len(vertices)
    vertex_dof = np.arange(n_vert)

    # flat segment from (-R, 0) to (R, 0); s = x + R
    left = vid(np.arange(n_r, 0, -1), n_th)
    right = vid(np.arange(1, n_r + 1), 0)
    flat_verts = np.concatenate([left, [0], right])
    flat_x = np.concatenate([-rho[::-1], [0.0], rho])
    flat = BoundaryComponent(
        verts=flat_verts,
        s=flat_x + spec.R,
        normals=np.tile([0.0, -1.0], (2 * n_r + 1, 1)),
        tangents=np.tile([1.0, 0.0], (2 * n_r + 1, 1)),
        closed=False,
    )
    arc_idx = np.arange(n_th + 1)
    arc = BoundaryComponent(
        verts=vid(n_r, arc_idx),
        s=spec.R * theta,
        normals=np.column_stack([np.cos(theta), np.sin(theta)]),
        tangents=np.column_stack([-np.sin(theta), np.cos(theta)]),
        closed=False,
    )
    return Mesh(spec, vertices, triangles, vertex_dof, n_vert, [flat, arc], grid)


def tangential_derivative(mesh: Mesh, component: int, f: np.ndarray,
                          seam_tol: float = 1e-8) -> np.ndarray:
    """Second-order finite-difference derivative of f along arc length.

    ``f`` holds nodal values along the component path (one per path
    vertex; for closed components the repeated end value may be
    omitted).  Closed components use periodic centered differences; a
    mismatch between the two seam values beyond ``seam_tol`` (relative)
    is rejected, since the input then has no periodic derivative.
    """
    comp = mesh.components[component]
    n_path = len(comp.verts)
    f = np.asarray(f, dtype=float)
    if comp.closed and len(f) == n_path - 1:
        f = np.concatenate([f, f[:1]])
    if len(f) != n_path:
        raise ValueError(f"expected {n_path} boundary values, got {len(f)}")
    if n_path < 3:
        raise ValueError("component has too few vertices for differentiation")

    s = comp.s
    if comp.closed:
        scale = max(np.abs(f).max(), 1.0)
        if abs(f[-1] - f[0]) > seam_tol * scale:
            raise ValueError("boundary field jumps across the periodic seam")
        fu = f[:-1]
        n = len(fu)
        d_prev = np.roll(np.diff(s), 1)[: n]  # spacing to previous node
        d_next = np.diff(s)[:n]
        f_prev = np.roll(fu, 1)
        f_next = np.roll(fu, -1)
        deriv = (f_next * d_prev / (d_next * (d_prev + d_next))
                 - f_prev * d_next / (d_prev * (d_prev + d_next))
                 + fu * (d_next - d_prev) / (d_prev * d_next))
        return np.concatenate([deriv, deriv[:1]])

    deriv = np.empty(n_path)
    d_prev = np.diff(s)[:-1]
    d_next = np.diff(s)[1:]
    deriv[1:-1] = (f[2:] * d_prev / (d_next * (d_prev + d_next))
                   - f[:-2] * d_next / (d_prev * (d_prev + d_next))
                   + f[1:-1] * (d_next - d_prev) / (d_prev * d_next))
    # one-sided second-order ends
    for pos, sgn in ((0, 1), (-1, -1)):
        h1 = abs(s[pos + sgn] - s[pos])
        h2 = abs(s[pos + 2 * sgn] - s[pos + sgn])
        a = -(2 * h1 + h2) / (h1 * (h1 + h2))
        b = (h1 + h2) / (h1 * h2)
        c = -h1 / (h2 * (h1 + h2))
        deriv[pos] = sgn * (a * f[pos] + b * f[pos + sgn] + c * f[pos + 2 * sgn])
    return deriv


def distance2(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Squared distance from each dof to the point q, measured across
    the seam on the cylinder."""
    xy = mesh.dof_coords
    dx = xy[:, 0] - q[0]
    if mesh.spec.kind == "cylinder":
        dx = (dx + math.pi) % CIRCUMFERENCE - math.pi
    dy = xy[:, 1] - q[1]
    return dx**2 + dy**2
