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

This module alone decides that x wraps with period 2 pi on the
cylinder: :func:`wrapped` turns an x offset into the one the surface
measures, :func:`distance2` measures from the dofs to a point, and
:func:`point_tree` gives k-d trees whose queries measure distance on
the surface.  Every distance the package takes comes from these, and no
other module imports ``scipy.spatial``.

Levels nest: :func:`build_mesh` at level + 1 doubles both counts of
the logical grid ``Mesh.grid``, so coarse vertex (i, j) is fine vertex
(2i, 2j).  :func:`coarsen` builds the level below, :func:`inject` takes
a field down a level and :func:`prolong` is the P1 prolongation up a
level; nested solves move between levels by these alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

_KINDS = ("cylinder", "annulus", "halfdisk")
CIRCUMFERENCE = 2.0 * math.pi  # cylinder cross-section length is fixed
# relative mismatch of a closed path's two seam values that still counts
# as periodic in tangential_derivative
SEAM_TOL = 1e-8
# Most vertices a mesh may have.  The mesh holds about 100 bytes a vertex,
# and its assembly, solves and band factors take many times that, so a
# larger mesh would exhaust a workstation's memory long before a result.
# The largest mesh of the tests, the fuzz and the benchmark (annulus
# r = 0.5 at level 6) has 66,560 vertices, 63 times fewer.
MAX_VERTICES = 2**22


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
        # every kind has more than 4**level = 2**(2 level) vertices; refused
        # by that bound first, so that no absurd level forms 2**level
        if 2 * self.level >= MAX_VERTICES.bit_length():
            raise ValueError(f"a level-{self.level} mesh has more than 4**{self.level} "
                             f"vertices, above the limit of {MAX_VERTICES:,}")
        try:
            n_i, n_j = grid_counts(self)
        except OverflowError:  # 16 L / 2 pi is beyond a double
            raise ValueError(f"a cylinder of length {self.L:g} has more vertices than a "
                             f"double holds, above the limit of {MAX_VERTICES:,}") from None
        n_vert = {"cylinder": (n_i + 1) * (n_j + 1), "annulus": n_i * (n_j + 1),
                  "halfdisk": 1 + n_j * (n_i + 1)}[self.kind]
        if n_vert > MAX_VERTICES:
            raise ValueError(f"the {self.kind} mesh has {n_vert:,} vertices, above the "
                             f"limit of {MAX_VERTICES:,}")


def grid_counts(spec: DomainSpec) -> tuple[int, int]:
    """Intervals (n_i, n_j) of the logical grid of ``spec``'s mesh: n_i
    around the cylinder or along the circle or arc, n_j across.  The
    level-0 counts are fixed, so each level doubles both."""
    scale = 2**spec.level
    if spec.kind == "cylinder":
        return 16 * scale, max(1, round(16 * spec.L / CIRCUMFERENCE)) * scale
    if spec.kind == "annulus":
        return 16 * scale, max(1, round(16 * (1 - spec.r) / (2 * math.pi))) * scale
    n_th = 8 * scale  # angular intervals over [0, pi]
    return n_th, max(2, n_th // 2)


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

    @cached_property
    def tri_areas(self) -> np.ndarray:
        """Signed areas in triangle order, by the triangle formula
        0.5 ((x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0)) of corners (p0, p1,
        p2).  The corners are read as slices of the two coordinate grids,
        one gather each, in the blocks of :func:`_triangle_corners`."""
        g = self.grid.T
        areas = np.empty(len(self.triangles))
        start = 0
        for (x0, x1, x2), (y0, y1, y2) in zip(_triangle_corners(self.spec.kind, self.vertices[:, 0][g]),
                                              _triangle_corners(self.spec.kind, self.vertices[:, 1][g])):
            block = areas[start:start + x0.size].reshape(x0.shape)
            block[...] = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
            start += x0.size
        return areas

    @cached_property
    def dof_coords(self) -> np.ndarray:
        """Coordinates of one representative geometric vertex per dof."""
        coords = np.zeros((self.n_dof, 2))
        # reversed so the first occurrence wins
        coords[self.vertex_dof[::-1]] = self.vertices[::-1]
        return coords

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
    # the geometry of a domain far from unit size need not fit in a double
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.tri_areas
    if not 0 < areas.min() <= areas.max() < math.inf:
        raise ValueError("mesh construction produced a triangle whose area is not "
                         "finite and positive")
    # tangential_derivative divides by products of adjacent edge lengths
    for comp in mesh.components:
        ds = comp.edge_lengths
        if not (ds * np.roll(ds, 1) if comp.closed else ds[1:] * ds[:-1]).min() > 0:
            raise ValueError("boundary edges are too short to differentiate along")
    return mesh


def coarsen(mesh: Mesh) -> Mesh:
    """The same domain one level coarser."""
    return build_mesh(replace(mesh.spec, level=mesh.spec.level - 1))


def _check_refines(coarse: Mesh, fine: Mesh) -> None:
    if fine.spec != replace(coarse.spec, level=coarse.spec.level + 1):
        raise ValueError("fine mesh is not the refinement of the coarse mesh")


def inject(coarse: Mesh, fine: Mesh, u: np.ndarray) -> np.ndarray:
    """The field ``u`` on ``fine``, the same domain one level finer than
    ``coarse``, at the dofs of ``coarse``: coarse vertex (i, j) takes the
    value of fine vertex (2i, 2j)."""
    _check_refines(coarse, fine)
    out = np.empty(coarse.n_dof)
    out[coarse.vertex_dof[coarse.grid]] = u[fine.vertex_dof[fine.grid[::2, ::2]]]
    return out


def prolong(coarse: Mesh, fine: Mesh, u: np.ndarray) -> np.ndarray:
    """The field ``u`` on ``coarse`` prolonged to ``fine``, the same
    domain one level finer, by P1 interpolation.

    Coarse vertex (i, j) is fine vertex (2i, 2j).  A fine vertex between
    two coarse ones takes their mean, along a grid line or along the
    (i, j)-(i+1, j+1) diagonal that :func:`_triangle_corners` cuts each
    cell by, so fields linear in the logical grid prolong exactly.  On
    the half-disk fan, where the centre is grid row 0, it is a start for
    Newton rather than the exact interpolant.
    """
    _check_refines(coarse, fine)
    I, J = np.indices(fine.grid.shape)
    v = 0.5 * u[coarse.vertex_dof[coarse.grid]]
    out = np.empty(fine.n_dof)
    out[fine.vertex_dof[fine.grid]] = v[I // 2, J // 2] + v[(I + 1) // 2, (J + 1) // 2]
    return out


def _triangle_corners(kind: str, g: np.ndarray):
    """The corners of a mesh's triangles as views of the (j, i) grid array
    ``g`` (vertex ids or coordinates): two blocks of (p0, p1, p2), each
    corner a (rows, cols) array over the cells.

    Cell (i, j) has corners (a, b, c, d) in counterclockwise order, a at
    (i, j) and c at (i+1, j+1).  On the cylinder b is (i+1, j); on the
    annulus and the half-disk, where i runs along the circle and j
    outwards, b is (i, j+1).  Each cell is cut along a-c, which is the
    grid (i, j)-(i+1, j+1) diagonal on every kind.  The first block holds
    the triangles (a, b, c) of every cell and the second the triangles
    (a, c, d).  The half-disk's row j = 0 is its centre, where a = d, so
    its triangles (a, b, c) are the fan and its (a, c, d) are left out.
    """
    a, c = g[:-1, :-1], g[1:, 1:]
    if kind == "cylinder":
        b, d = g[:-1, 1:], g[1:, :-1]
    else:
        b, d = g[1:, :-1], g[:-1, 1:]
    lo = int(kind == "halfdisk")
    return (a, b, c), (a[lo:], c[lo:], d[lo:])


def _grid_triangles(kind: str, grid: np.ndarray) -> np.ndarray:
    """The (M, 3) counterclockwise triangles of a mesh of ``kind`` with
    logical grid ``grid``, in the order of :func:`_triangle_corners`: the
    first triangle of every cell in row-major (j, i) order, then the
    second.  Each corner view is written once into one array."""
    blocks = _triangle_corners(kind, grid.T)
    tri = np.empty((sum(p0.size for p0, _, _ in blocks), 3), dtype=grid.dtype)
    start = 0
    for corners in blocks:
        block = tri[start:start + corners[0].size].reshape(*corners[0].shape, 3)
        for k, corner in enumerate(corners):
            block[..., k] = corner
        start += corners[0].size
    return tri


def _build_cylinder(spec: DomainSpec) -> Mesh:
    n_s, n_t = grid_counts(spec)
    s = np.linspace(0.0, CIRCUMFERENCE, n_s + 1)
    t = np.linspace(0.0, spec.L, n_t + 1)
    ss, tt = np.meshgrid(s, t)
    vertices = np.column_stack([ss.ravel(), tt.ravel()])

    def vid(i, j):
        return j * (n_s + 1) + i

    grid = vid(*np.meshgrid(np.arange(n_s + 1), np.arange(n_t + 1), indexing="ij"))
    triangles = _grid_triangles(spec.kind, grid)

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
    n_th, n_r = grid_counts(spec)
    theta = 2 * math.pi * np.arange(n_th) / n_th
    rho = np.linspace(spec.r, 1.0, n_r + 1)
    tt, rr = np.meshgrid(theta, rho)
    vertices = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])

    def vid(i, j):
        return j * n_th + np.asarray(i) % n_th

    grid = vid(*np.meshgrid(np.arange(n_th + 1), np.arange(n_r + 1), indexing="ij"))
    triangles = _grid_triangles(spec.kind, grid)
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
    n_th, n_r = grid_counts(spec)
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
    grid = np.where(kk == 0, 0, vid(kk, ii))  # row k = 0 is the centre
    triangles = _grid_triangles(spec.kind, grid)
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


def tangential_derivative(mesh: Mesh, component: int, f: np.ndarray) -> np.ndarray:
    """Second-order finite-difference derivative of f along arc length.

    ``f`` holds nodal values along the component path (one per path
    vertex; for closed components the repeated end value may be
    omitted).  Closed components use periodic centered differences; a
    mismatch between the two seam values beyond ``SEAM_TOL`` (relative)
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

    ds = np.diff(comp.s)
    if comp.closed:
        scale = max(np.abs(f).max(), 1.0)
        if abs(f[-1] - f[0]) > SEAM_TOL * scale:
            raise ValueError("boundary field jumps across the periodic seam")
        # each end's neighbour across the seam, and the edge to it
        f, ds = np.concatenate([f[-2:-1], f[:-1], f[:1]]), np.concatenate([ds[-1:], ds])
    d_prev, d_next = ds[:-1], ds[1:]
    inner = (f[2:] * d_prev / (d_next * (d_prev + d_next))
             - f[:-2] * d_next / (d_prev * (d_prev + d_next))
             + f[1:-1] * (d_next - d_prev) / (d_prev * d_next))
    if comp.closed:
        return np.append(inner, inner[:1])
    s = comp.s
    deriv = np.empty(n_path)
    deriv[1:-1] = inner
    # one-sided second-order ends
    for pos, sgn in ((0, 1), (-1, -1)):
        h1 = abs(s[pos + sgn] - s[pos])
        h2 = abs(s[pos + 2 * sgn] - s[pos + sgn])
        a = -(2 * h1 + h2) / (h1 * (h1 + h2))
        b = (h1 + h2) / (h1 * h2)
        c = -h1 / (h2 * (h1 + h2))
        deriv[pos] = sgn * (a * f[pos] + b * f[pos + sgn] + c * f[pos + 2 * sgn])
    return deriv


def wrapped(mesh: Mesh, dx):
    """The x offset ``dx`` as the surface measures it: on the cylinder
    its representative in [-pi, pi), elsewhere ``dx`` itself."""
    if mesh.spec.kind == "cylinder":
        return (dx + math.pi) % CIRCUMFERENCE - math.pi
    return dx


def distance2(mesh: Mesh, q: np.ndarray) -> np.ndarray:
    """Squared distance from each dof to the point q, measured across
    the seam on the cylinder."""
    xy = mesh.dof_coords
    dx = wrapped(mesh, xy[:, 0] - q[0])
    dy = xy[:, 1] - q[1]
    return dx**2 + dy**2


def point_tree(mesh: Mesh, pts: np.ndarray) -> cKDTree:
    """A k-d tree on the points ``pts`` (shape (n, 2)) whose queries
    measure distance on the surface.  On the cylinder the tree holds x
    mod 2 pi in a box periodic in x alone (a zero box size leaves y
    open), and query points wrap by themselves."""
    if mesh.spec.kind == "cylinder":
        pts = np.column_stack([pts[:, 0] % CIRCUMFERENCE, pts[:, 1]])
        return cKDTree(pts, boxsize=(CIRCUMFERENCE, 0.0))
    return cKDTree(pts)
