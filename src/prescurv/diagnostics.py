"""Blow-up diagnostics: curvature balances, mass measures, and verdicts.

Four instruments, all pure functions of a state and its problem data:

  * ``pohozaev_report`` audits the interior equation through the
    vector-field balance

      oint [4K e^u (F.nu) + 2(du/dnu)(grad u.F) - |grad u|^2 (F.nu)]
        = int [4 K_bg grad u.F + 4 e^u (grad K.F + K div F)
               + 2 DF(grad u, grad u) - div F |grad u|^2],

    which holds for any smooth field F when u solves the interior
    equation.  Boundary gradients are reconstructed by quadratic
    least-squares fits on two-ring vertex patches (the raw one-sided
    P1 gradient would cap the convergence order at one), applied as one
    sparse recovery operator cached per mesh and dof set; tangential
    derivatives come from centered differences along the arc.
  * ``holomorphic_field`` builds fields F(z) = i z G(z) from a real
    trigonometric polynomial f on the unit circle, with G its Laurent
    extension to the annulus.  Holomorphy makes the Dirichlet terms of
    the balance cancel pointwise, 2 DF(w,w) = div F |w|^2, so the
    identity survives without any control on the Dirichlet energy.
  * ``mass_measures`` and ``blowup_monitor`` discretize the measure
    statements: normalized per-triangle interior masses |K|e^u and
    per-edge boundary masses h e^{u/2}, singular candidates clustered
    along the boundary, the ratio D = h/sqrt(|K|) and its tangential
    derivative at each candidate, concentration fractions, and the
    local boundary-minus-interior gap that equals 2 pi per bubble for
    mass-bounded families.
  * ``testfunction_energy_curve`` tabulates the energy of the bubble
    test functions phi_mu anchored at a boundary point against the
    small parameter 1/sqrt(mu^2 q2^2 - 1); the slope columns reproduce
    the sharp constants 8 pi (Dirichlet), 2 pi mu q2 (area) and
    2 pi min D (boundary) that force the energy below any level when
    D(p) > 1.

Candidate detection is gated on sup growth across the family rather
than an absolute level: the explicit families concentrate long before
their suprema reach any fixed magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .domain import BoundaryPoint, Mesh, tangential_derivative
from .energy import Problem, exp_lumped
from .exact import boundary_bubble_state

TWO_PI = 2.0 * math.pi

# mu q2 values of the default test-function schedule, decreasing to 1
TEST_RATIOS = (1.5, 1.3, 1.2, 1.1, 1.05, 1.02, 1.01, 1.005, 1.002)


# -- vector fields -----------------------------------------------------------


class VectorField:
    """Plane field with an exact Jacobian, evaluable on coordinate arrays.

    ``func(x, y)`` returns values of shape ``(..., 2)``; ``jac(x, y)``
    returns Jacobians of shape ``(..., 2, 2)`` with ``jac[..., i, j]``
    holding dF_i/dx_j.
    """

    def __init__(self, func: Callable, jac: Callable):
        self._func = func
        self._jac = jac

    def __call__(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return self._func(x, y)

    def jacobian(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return self._jac(x, y)


def position_field() -> VectorField:
    """F(x) = x, the dilation field."""

    def func(x, y):
        return np.stack([x, y], axis=-1)

    def jac(x, y):
        J = np.zeros(x.shape + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        return J

    return VectorField(func, jac)


class HolomorphicField:
    """F(z) = i z G(z) with G(z) = c0 + sum_k (c_k z^k + conj(c_k) z^-k).

    On |z| = 1 the function G is real and equals the trigonometric
    polynomial encoded by the coefficients, so F = f tau there.  Off the
    circle F stays holomorphic, hence its Jacobian is a conformal
    rotation-scaling and 2 DF(w, w) = div F |w|^2 for every vector w.
    """

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if abs(coeffs[0].imag) > 1e-14:
            raise ValueError("constant coefficient must be real")
        self.coeffs = coeffs

    def _G(self, z: np.ndarray) -> np.ndarray:
        G = np.full(z.shape, self.coeffs[0])
        for k in range(1, len(self.coeffs)):
            c = self.coeffs[k]
            G += c * z**k + np.conj(c) * z ** (-k)
        return G

    def _Gp(self, z: np.ndarray) -> np.ndarray:
        Gp = np.zeros(z.shape, dtype=complex)
        for k in range(1, len(self.coeffs)):
            c = self.coeffs[k]
            Gp += k * c * z ** (k - 1) - k * np.conj(c) * z ** (-k - 1)
        return Gp

    def __call__(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        Phi = 1j * (x + 1j * y) * self._G(x + 1j * y)
        return np.stack([Phi.real, Phi.imag], axis=-1)

    def jacobian(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        z = x + 1j * y
        dPhi = 1j * (self._G(z) + z * self._Gp(z))
        J = np.empty(x.shape + (2, 2))
        J[..., 0, 0] = dPhi.real
        J[..., 0, 1] = -dPhi.imag
        J[..., 1, 0] = dPhi.imag
        J[..., 1, 1] = dPhi.real
        return J


def holomorphic_field(mesh: Mesh, cos_coeffs: Sequence[float],
                      sin_coeffs: Sequence[float] = ()) -> HolomorphicField:
    """Laurent extension of f(theta) = a0 + sum a_k cos + b_k sin.

    ``cos_coeffs`` is (a0, a1, ..., ad) and ``sin_coeffs`` (b1, ..., bd');
    the mesh fixes an aliasing guard: the degree must stay below a
    quarter of the outer circle resolution.
    """
    if mesh.spec.kind != "annulus":
        raise ValueError("holomorphic extension lives on the annulus")
    cos_coeffs = np.asarray(cos_coeffs, dtype=float)
    sin_coeffs = np.asarray(sin_coeffs, dtype=float)
    d = max(len(cos_coeffs) - 1, len(sin_coeffs))
    if d >= mesh.components[0].n_edges / 4:
        raise ValueError("trig degree too high for the mesh resolution")
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[0] = cos_coeffs[0] if len(cos_coeffs) else 0.0
    for k in range(1, d + 1):
        a = cos_coeffs[k] if k < len(cos_coeffs) else 0.0
        b = sin_coeffs[k - 1] if k - 1 < len(sin_coeffs) else 0.0
        coeffs[k] = 0.5 * (a - 1j * b)
    return HolomorphicField(coeffs)


# -- gradient recovery -------------------------------------------------------


def _recovery_matrix(mesh: Mesh, dofs: np.ndarray) -> sp.csr_matrix:
    """Sparse R of shape (2 len(dofs), n_dof) whose row pair 2i, 2i + 1
    holds the linear part of the least-squares quadratic fit at dofs[i].

    The patch of dofs[i] is its two-ring in the triangle connectivity,
    center excluded.  The fit of u[patch] - u[center] on the scaled
    monomials [1, x, y, x^2, xy, y^2] is pinv(V) (u[patch] - u[center]),
    so rows 1-2 of pinv(V) over the scale are the patch weights and
    minus their sum the center weight.  Patches of equal size share one
    batched ``pinv``.
    """
    n = mesh.n_dof
    tris = mesh.vertex_dof[mesh.triangles]
    # only triangles touching the one-ring reach into the two-ring
    near = np.zeros(n, dtype=bool)
    near[dofs] = True
    near[tris[near[tris].any(axis=1)]] = True
    tris = tris[near[tris].any(axis=1)]
    A = sp.csr_matrix((np.ones(6 * len(tris)),
                       (tris[:, [0, 0, 1, 1, 2, 2]].ravel(),
                        tris[:, [1, 2, 0, 2, 0, 1]].ravel())), shape=(n, n))
    ring = A[dofs]
    # nonnegative entries (edge multiplicities): no entry of the product
    # cancels, so its pattern is the structural two-ring
    patch = (ring @ A + ring).tocsr()
    patch.sort_indices()
    row = np.repeat(np.arange(len(dofs)), np.diff(patch.indptr))
    keep = patch.indices != dofs[row]
    row, col = row[keep], patch.indices[keep]
    sizes = np.bincount(row, minlength=len(dofs))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    coords = mesh.dof_coords
    rows, cols, vals = [], [], []
    for m in np.unique(sizes):
        sel = np.nonzero(sizes == m)[0]
        idx = col[starts[sel, None] + np.arange(m)]
        rel = coords[idx] - coords[dofs[sel]][:, None, :]
        if mesh.spec.kind == "cylinder":
            rel[..., 0] = (rel[..., 0] + math.pi) % TWO_PI - math.pi
        scale = np.abs(rel).max(axis=(1, 2))
        x, y = np.moveaxis(rel / scale[:, None, None], -1, 0)
        V = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)
        W = np.linalg.pinv(V)[:, 1:3, :] / scale[:, None, None]
        W = np.concatenate([W, -W.sum(axis=2, keepdims=True)], axis=2)
        idx = np.column_stack([idx, dofs[sel]])
        rows.append(np.broadcast_to(2 * sel[:, None, None] + np.arange(2)[:, None],
                                    W.shape).ravel())
        cols.append(np.broadcast_to(idx[:, None, :], W.shape).ravel())
        vals.append(W.ravel())
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 * len(dofs), n))


def recovered_gradient(mesh: Mesh, u: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Gradient of the P1 field at vertices by local quadratic fits.

    Each requested vertex gets a least-squares quadratic over its
    two-ring dof patch; the fit's linear part at the center is second
    order accurate even on one-sided boundary patches, where averaging
    the adjacent triangle gradients is not.  The fits are linear in u,
    so they form one sparse recovery operator (patch recovery,
    Zienkiewicz & Zhu 1992), built once per mesh and dof set and kept
    in the mesh cache; each call is a single sparse product.
    """
    dofs = np.asarray(dofs, dtype=np.intp)
    key = ("recovery", dofs.tobytes())
    if key not in mesh._cache:
        mesh._cache[key] = _recovery_matrix(mesh, dofs)
    return (mesh._cache[key] @ u).reshape(-1, 2)


# -- Pohozaev balance --------------------------------------------------------


@dataclass
class PohozaevReport:
    """Two sides of the vector-field balance and their mismatch."""

    residual: float
    boundary_terms: list[float]
    interior_term: float


def pohozaev_report(prob: Problem, u: np.ndarray, field) -> PohozaevReport:
    """Both sides of the balance for ``field``; the residual tends to zero
    under refinement when u solves the interior equation."""
    mesh = prob.mesh
    u = np.asarray(u, dtype=float)

    # interior side, 3-point edge-midpoint quadrature per triangle; slot s
    # is the midpoint of the edge from vertex s to vertex s + 1
    tris = mesh.vertex_dof[mesh.triangles]
    px, py = mesh.vertices[mesh.triangles].transpose(2, 0, 1)
    grads = prob.ops.grads
    ut, Kt = u[tris], prob.K_dof[tris]
    wx, wy = np.einsum("ti,tik->kt", ut, grads)
    gKx, gKy = np.einsum("ti,tik->kt", Kt, grads)
    w2 = wx * wx + wy * wy
    vals = np.zeros(len(tris))
    for s in range(3):
        a, b = s, (s + 1) % 3
        mx, my = 0.5 * (px[:, a] + px[:, b]), 0.5 * (py[:, a] + py[:, b])
        F, J = field(mx, my), field.jacobian(mx, my)
        Fx, Fy = F[:, 0], F[:, 1]
        div = J[:, 0, 0] + J[:, 1, 1]
        DFww = (wx * J[:, 0, 0] * wx + wx * J[:, 0, 1] * wy
                + wy * J[:, 1, 0] * wx + wy * J[:, 1, 1] * wy)
        e_mid = exp_lumped(0.5 * (ut[:, a] + ut[:, b]))[0]
        K_mid = 0.5 * (Kt[:, a] + Kt[:, b])
        vals += (4.0 * prob.spec.K_bg * (wx * Fx + wy * Fy)
                 + 4.0 * e_mid * (gKx * Fx + gKy * Fy + K_mid * div)
                 + 2.0 * DFww - div * w2)
    interior = float((mesh.tri_areas / 3.0) @ vals)

    # boundary side, trapezoid over each component with recovered normals
    boundary_terms = []
    for c, comp in enumerate(mesh.components):
        dofs = mesh.vertex_dof[comp.verts]
        upath = u[dofs]
        dtau = tangential_derivative(mesh, c, upath)
        uniq = dofs[:-1] if comp.closed else dofs
        g = recovered_gradient(mesh, u, uniq)
        if comp.closed:
            g = np.vstack([g, g[:1]])
        dnu = np.einsum("ik,ik->i", g, comp.normals)
        grad = dtau[:, None] * comp.tangents + dnu[:, None] * comp.normals
        pts = mesh.vertices[comp.verts]
        F = field(pts[:, 0], pts[:, 1])
        Fnu = np.einsum("ik,ik->i", F, comp.normals)
        gradF = np.einsum("ik,ik->i", grad, F)
        grad2 = np.einsum("ik,ik->i", grad, grad)
        f = 4.0 * prob.K_dof[dofs] * exp_lumped(upath)[0] * Fnu + 2.0 * dnu * gradF - grad2 * Fnu
        lens = comp.edge_lengths
        boundary_terms.append(float(0.5 * lens @ (f[:-1] + f[1:])))

    residual = abs(sum(boundary_terms) - interior)
    return PohozaevReport(residual=residual, boundary_terms=boundary_terms,
                          interior_term=interior)


# -- mass measures -----------------------------------------------------------


@dataclass
class MassMeasures:
    """Discretized interior and boundary masses of a state.

    ``interior_density`` holds per-triangle masses of |K| e^u normalized
    to one; ``boundary_density`` per-edge positive parts of h e^{u/2},
    normalized to one across all components.  The raw masses and
    ``interior_total`` keep their signs.
    """

    interior_density: np.ndarray
    boundary_density: list[np.ndarray]
    interior_total: float
    interior_masses: np.ndarray
    boundary_masses: list[np.ndarray]


def mass_measures(prob: Problem, u: np.ndarray) -> MassMeasures:
    mesh = prob.mesh
    u = np.asarray(u, dtype=float)
    tris = mesh.vertex_dof[mesh.triangles]
    tri_masses = (mesh.tri_areas / 3.0) * ((-prob.K_dof[tris]) * exp_lumped(u[tris])[0]).sum(axis=1)
    interior_total = float(tri_masses.sum())

    edge_masses = []
    for c, comp in enumerate(mesh.components):
        dofs = mesh.vertex_dof[comp.verts]
        f = prob.h_dof[c][dofs] * exp_lumped(u[dofs])[1]
        edge_masses.append(0.5 * comp.edge_lengths * (f[:-1] + f[1:]))
    pos = [np.clip(e, 0.0, None) for e in edge_masses]
    total_pos = float(sum(p.sum() for p in pos))
    if interior_total <= 0.0 or total_pos <= 0.0:
        raise ValueError("cannot normalize measures with zero mass totals")
    return MassMeasures(
        interior_density=tri_masses / interior_total,
        boundary_density=[p / total_pos for p in pos],
        interior_total=interior_total,
        interior_masses=tri_masses,
        boundary_masses=edge_masses,
    )


def _edge_midpoints(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edge midpoints and their flat edge indices; cylinder
    midpoints get periodic images so plain trees measure wrapped
    distances correctly."""
    pts, idx = [], []
    offset = 0
    for comp in mesh.components:
        q = mesh.vertices[comp.verts]
        mid = 0.5 * (q[:-1] + q[1:])
        pts.append(mid)
        idx.append(np.arange(offset, offset + len(mid)))
        offset += len(mid)
    P = np.vstack(pts)
    I = np.concatenate(idx)
    if mesh.spec.kind == "cylinder":
        left = P + np.array([-TWO_PI, 0.0])
        right = P + np.array([TWO_PI, 0.0])
        P = np.vstack([P, left, right])
        I = np.concatenate([I, I, I])
    return P, I


def _centroids(mesh: Mesh) -> np.ndarray:
    return mesh.vertices[mesh.triangles].mean(axis=1)


def boundary_projection_tv(prob: Problem, u: np.ndarray,
                           measures: Optional[MassMeasures] = None) -> float:
    """Total-variation distance between the interior density pushed to
    its nearest boundary edge and the boundary density itself."""
    mm = measures if measures is not None else mass_measures(prob, u)
    pts, idx = _edge_midpoints(prob.mesh)
    tree = cKDTree(pts)
    _, nearest = tree.query(_centroids(prob.mesh))
    n_edges = sum(len(e) for e in mm.boundary_density)
    proj = np.zeros(n_edges)
    np.add.at(proj, idx[nearest], mm.interior_density)
    bnd = np.concatenate(mm.boundary_density)
    return float(0.5 * np.abs(proj - bnd).sum())


# -- blow-up monitor ---------------------------------------------------------


@dataclass
class BlowupCandidate:
    """One clustered singular-point candidate on the boundary."""

    component: int
    coords: np.ndarray
    arc_s: float
    D: float
    D_tau: float
    cluster_size: int
    whole_component: bool
    local_interior_mass: float
    local_boundary_mass: float

    @property
    def mass_gap(self) -> float:
        return self.local_boundary_mass - self.local_interior_mass

    def as_dict(self) -> dict:
        return {
            "component": self.component,
            "x": float(self.coords[0]),
            "y": float(self.coords[1]),
            "arc_s": self.arc_s,
            "D": self.D,
            "D_tau": self.D_tau,
            "cluster_size": self.cluster_size,
            "whole_component": self.whole_component,
            "local_interior_mass": self.local_interior_mass,
            "local_boundary_mass": self.local_boundary_mass,
            "mass_gap": self.mass_gap,
        }


@dataclass
class BlowupDiagnostics:
    """Family-level verdict block extracted from an ordered state sweep."""

    sup_u: float
    inf_u: float
    interior_max: float
    diverging: bool
    bounded_mass: bool
    candidates: list[BlowupCandidate]
    concentration: np.ndarray
    far_fractions: np.ndarray
    tv_projection: float
    d_geq_one: bool
    d_tau_zero: bool
    interior_vanishing: bool
    interior_breach: bool
    window: float

    def as_dict(self) -> dict:
        return {
            "sup_u": self.sup_u,
            "inf_u": self.inf_u,
            "interior_max": self.interior_max,
            "diverging": self.diverging,
            "bounded_mass": self.bounded_mass,
            "candidates": [c.as_dict() for c in self.candidates],
            "concentration": [float(v) for v in self.concentration],
            "far_fractions": [float(v) for v in self.far_fractions],
            "tv_projection": self.tv_projection,
            "d_geq_one": self.d_geq_one,
            "d_tau_zero": self.d_tau_zero,
            "interior_vanishing": self.interior_vanishing,
            "interior_breach": self.interior_breach,
            "window": self.window,
        }


def _clusters(mask: np.ndarray, closed: bool) -> list[np.ndarray]:
    """Indices of maximal runs of True, with wraparound when closed."""
    n = len(mask)
    if not mask.any():
        return []
    if mask.all():
        return [np.arange(n)]
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, breaks + 1)
    if closed and len(runs) > 1 and idx[0] == 0 and idx[-1] == n - 1:
        runs[0] = np.concatenate([runs.pop(), runs[0]])
    return runs


def blowup_monitor(states: Sequence[tuple[Problem, np.ndarray]],
                   window: Optional[float] = None,
                   sup_window: float = 2.0,
                   growth_min: float = 1.0,
                   bounded_ratio: float = 2.0,
                   far_distance: float = 0.1,
                   far_tol: float = 0.05,
                   d_tol: float = 1e-6) -> BlowupDiagnostics:
    """Classify an ordered family of states by its concentration pattern.

    Candidates are boundary vertices of the last state within
    ``sup_window`` of its supremum, clustered along each component,
    and reported only when the family supremum grew by ``growth_min``.
    The default neighborhood is five local boundary edges.
    """
    if not states:
        raise ValueError("empty state list")
    probs = [p for p, _ in states]
    us = [np.asarray(u, dtype=float) for _, u in states]
    prob, u = probs[-1], us[-1]
    mesh = prob.mesh

    sup_u = float(u.max())
    inf_u = float(u.min())

    diverging = bool(sup_u - float(us[0].max()) > growth_min)
    measures = [mass_measures(p, v) for p, v in states]
    bounded_mass = bool(
        measures[-1].interior_total <= bounded_ratio * measures[0].interior_total)

    if window is None:
        window = float(max(5.0 * np.median(c.edge_lengths) for c in mesh.components))

    threshold = sup_u - sup_window
    mid_pts, mid_idx = _edge_midpoints(mesh)
    boundary_tree = cKDTree(mid_pts)
    # a breach means large values away from the boundary; dofs inside the
    # boundary layer legitimately track the boundary supremum
    dof_dist, _ = boundary_tree.query(mesh.dof_coords)
    far_dofs = dof_dist > far_distance
    interior_max = float(u[far_dofs].max()) if far_dofs.any() else -math.inf
    interior_breach = diverging and interior_max > threshold

    candidates: list[BlowupCandidate] = []
    member_coords: list[np.ndarray] = []
    if diverging:
        for c, comp in enumerate(mesh.components):
            path = comp.verts[:-1] if comp.closed else comp.verts
            dofs = mesh.vertex_dof[path]
            uvals = u[dofs]
            Dvals = prob.h_dof[c][dofs] / np.sqrt(-prob.K_dof[dofs])
            Dtau = tangential_derivative(mesh, c, Dvals)
            mask = uvals > threshold
            for run in _clusters(mask, comp.closed):
                rep = run[np.argmax(uvals[run])]
                member_coords.append(mesh.vertices[path[run]])
                candidates.append(BlowupCandidate(
                    component=c,
                    coords=mesh.vertices[path[rep]].copy(),
                    arc_s=float(comp.s[rep]),
                    D=float(Dvals[rep]),
                    D_tau=float(Dtau[rep]),
                    cluster_size=len(run),
                    whole_component=len(run) == len(path),
                    local_interior_mass=0.0,
                    local_boundary_mass=0.0,
                ))

    cents = _centroids(mesh)
    dist_boundary, _ = boundary_tree.query(cents)

    concentration = np.zeros(len(states))
    far_fractions = np.zeros(len(states))
    if candidates:
        allpts = np.vstack(member_coords)
        if mesh.spec.kind == "cylinder":
            allpts = np.vstack([allpts, allpts + np.array([-TWO_PI, 0.0]),
                                allpts + np.array([TWO_PI, 0.0])])
        dist_cand, _ = cKDTree(allpts).query(cents)
        near = dist_cand <= window
        for k, mm in enumerate(measures):
            concentration[k] = float(mm.interior_density[near].sum())
    for k, mm in enumerate(measures):
        far_fractions[k] = float(mm.interior_density[dist_boundary > far_distance].sum())

    # local signed masses around each candidate cluster, last state
    mm = measures[-1]
    flat_edges = np.concatenate(mm.boundary_masses)
    for cand, pts in zip(candidates, member_coords):
        tree = cKDTree(pts)
        d_tri, _ = tree.query(cents)
        cand.local_interior_mass = float(mm.interior_masses[d_tri <= window].sum())
        d_edge, _ = tree.query(mid_pts)
        near_edges = np.zeros(len(flat_edges), dtype=bool)
        near_edges[mid_idx[d_edge <= window]] = True
        cand.local_boundary_mass = float(flat_edges[near_edges].sum())

    edge_scale = float(max(np.median(c.edge_lengths) for c in mesh.components))
    d_geq_one = all(c.D >= 1.0 - d_tol for c in candidates)
    d_tau_zero = all(abs(c.D_tau) < 10.0 * edge_scale for c in candidates)
    # far mass vanishes only in the limit; accept a clear downward trend
    # across the sweep when the last state has not yet crossed far_tol
    trending = bool(len(states) > 1 and np.all(np.diff(far_fractions) < 0)
                    and far_fractions[-1] < 0.5 * far_fractions[0])
    interior_vanishing = ((not diverging) or bool(far_fractions[-1] < far_tol)
                          or trending)

    return BlowupDiagnostics(
        sup_u=sup_u,
        inf_u=inf_u,
        interior_max=interior_max,
        diverging=diverging,
        bounded_mass=bounded_mass,
        candidates=candidates,
        concentration=concentration,
        far_fractions=far_fractions,
        tv_projection=boundary_projection_tv(prob, u, mm),
        d_geq_one=d_geq_one,
        d_tau_zero=d_tau_zero,
        interior_vanishing=interior_vanishing,
        interior_breach=interior_breach,
        window=window,
    )


# -- test-function energy curve ----------------------------------------------


@dataclass
class TestFunctionCurve:
    """Energy-term table of bubble test functions over a mu schedule.

    Slope columns multiply each term by delta = sqrt(mu^2 q2^2 - 1), the
    reciprocal of the leading blow-up rate, so they converge to the
    sharp constants as the schedule approaches mu q2 = 1.
    """

    mu: np.ndarray
    delta: np.ndarray
    dirichlet: np.ndarray
    area: np.ndarray
    boundary: np.ndarray
    background: np.ndarray
    energy: np.ndarray
    d_at_point: float
    min_d_component: float
    q2: float

    @property
    def dirichlet_slope(self) -> np.ndarray:
        return self.dirichlet * self.delta

    @property
    def area_slope(self) -> np.ndarray:
        return self.area * self.delta

    @property
    def boundary_slope(self) -> np.ndarray:
        return self.boundary * self.delta

    def extracted_slopes(self, tail: int = 4) -> dict[str, float]:
        """Fit the 1/delta coefficient of each term over the last rows.

        The raw terms carry lower-order corrections (constant and
        logarithmic in 1/delta) that the per-row slope columns shed only
        like delta*log(1/delta), far too slowly to read the leading
        constant off the final row.  A linear fit against 1/delta strips
        them.  Requires at least two tail rows.
        """
        if len(self.mu) < 2:
            raise ValueError("need at least two schedule rows to fit slopes")
        if tail < 2:
            raise ValueError(f"need at least two tail rows to fit slopes, not {tail}")
        tail = min(tail, len(self.mu))
        x = 1.0 / self.delta[-tail:]
        out = {}
        for name in ("dirichlet", "area", "boundary"):
            y = getattr(self, name)[-tail:]
            out[name] = float(np.polyfit(x, y, 1)[0])
        return out

    def rows(self) -> list[dict]:
        out = []
        for i in range(len(self.mu)):
            out.append({
                "mu": float(self.mu[i]),
                "delta": float(self.delta[i]),
                "dirichlet": float(self.dirichlet[i]),
                "area": float(self.area[i]),
                "boundary": float(self.boundary[i]),
                "background": float(self.background[i]),
                "energy": float(self.energy[i]),
                "dirichlet_slope": float(self.dirichlet_slope[i]),
                "area_slope": float(self.area_slope[i]),
                "boundary_slope": float(self.boundary_slope[i]),
            })
        return out


def testfunction_energy_curve(prob: Problem, point: BoundaryPoint,
                              q2: float = 0.1,
                              mu_schedule: Optional[Sequence[float]] = None
                              ) -> TestFunctionCurve:
    """Evaluate the bubble test functions anchored at ``point``.

    The bubble center sits at distance ``q2`` outside the boundary; each
    mu in the schedule must satisfy mu q2 > 1 so the wall term stays
    positive on the closure of the surface.
    """
    if q2 <= 0:
        raise ValueError("anchor offset q2 must be positive")
    if mu_schedule is None:
        mu_schedule = [r / q2 for r in TEST_RATIOS]
    mu_schedule = np.asarray(mu_schedule, dtype=float)
    if (mu_schedule * q2 <= 1.0).any():
        raise ValueError("schedule violates mu q2 > 1")

    logK = np.log(-prob.K_dof)
    Dvals = [prob.h_dof[c] / np.sqrt(-prob.K_dof) for c in range(len(prob.mesh.components))]

    cols = {k: np.zeros(len(mu_schedule)) for k in
            ("delta", "dirichlet", "area", "boundary", "background", "energy")}
    for i, mu in enumerate(mu_schedule):
        phi = boundary_bubble_state(prob.mesh, point, q2, mu)
        if phi is None:
            raise ValueError("mu d(x, q) > 1 fails on the mesh at mu = %g" % mu)
        phit = phi - logK
        cols["delta"][i] = math.sqrt(mu**2 * q2**2 - 1.0)
        cols["dirichlet"][i] = float(phi @ (prob.ops.S @ phi))
        e_phi, half, _ = exp_lumped(phi)
        cols["area"][i] = float(prob.ops.w_int @ e_phi)
        cols["boundary"][i] = float(sum(
            prob.ops.wb[c] @ (Dvals[c] * half) for c in range(len(Dvals))))
        cols["background"][i] = float(prob.spec.K_bg * (prob.ops.w_int @ phit))
        cols["energy"][i] = prob.energy(phit).total

    comp = prob.mesh.components[point.component]
    dofs = prob.mesh.vertex_dof[comp.verts]
    comp_D = Dvals[point.component][dofs]
    return TestFunctionCurve(
        mu=mu_schedule,
        d_at_point=float(Dvals[point.component][prob.mesh.vertex_dof[comp.verts[point.index]]]),
        min_d_component=float(comp_D.min()),
        q2=q2,
        **cols,
    )
