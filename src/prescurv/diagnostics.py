"""Blow-up diagnostics: curvature balances, mass measures, and verdicts.

Four instruments, all pure functions of a state and its problem data:

  * ``pohozaev_report`` audits the interior equation through the
    balance of a holomorphic domain variation F,

      oint [4K e^u (F.nu) + 2(du/dnu)(grad u.F) - |grad u|^2 (F.nu)]
        = int [4 K_bg grad u.F + 4 e^u (grad K.F + 2 K Re F')],

    which holds when u solves the interior equation.  For a general
    plane field the right side also carries 2 DF(grad u, grad u)
    - div F |grad u|^2; a conformal F cancels it pointwise, so the
    identity needs no control on the Dirichlet energy, and div F is
    2 Re F'.  Boundary gradients are reconstructed by quadratic
    least-squares fits on two-ring vertex patches (the raw one-sided
    P1 gradient would cap the convergence order at one), applied as one
    sparse recovery operator over every component's path; the patches
    of one size are fitted together by Gram-Schmidt, with no LAPACK call
    per patch.  Tangential derivatives come from centered differences.
    Both sides are complex dot products: the state fixes one coefficient
    c per boundary vertex or quadrature point, and a field adds
    Re(conj(c) F) and, inside, a real multiple of Re F'.  The state's
    coefficients are summed once into moments against the powers of z,
    per boundary component and over the interior, and each field reads
    both sides off them with its Laurent coefficients: no field is
    evaluated at any point, and the terms in grad u (when K_bg = 0) and
    grad K (when K is constant) are not formed.  The balance is for plane
    domains: on the cylinder no field of this form is periodic in x.
  * ``HolomorphicField`` holds F as one Laurent polynomial, which
    ``laurent`` gives as its lowest power and coefficients; the
    balance reads fields through it alone.  ``position_field`` is
    the dilation F = z, and ``holomorphic_field`` builds
    F(z) = i z G(z) from a real trigonometric polynomial f on the unit
    circle, with G its Laurent extension to the annulus, so F = f tau on
    |z| = 1.
  * ``mass_measures`` and ``blowup_monitor`` discretize the measure
    statements: normalized per-triangle interior masses |K|e^u and
    per-edge boundary masses h e^{u/2}, singular candidates clustered
    along the boundary, the ratio D = h/sqrt(|K|) and its tangential
    derivative at each candidate, concentration fractions, and the
    local boundary-minus-interior gap that equals 2 pi per bubble for
    mass-bounded families.  Every window and nearest edge is a query of
    a ``domain.point_tree`` of triangle centroids or boundary edge
    midpoints, so distances cross the cylinder's seam as the surface
    does; this module makes no case of the seam.
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
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .domain import BoundaryPoint, Mesh, point_tree, tangential_derivative, wrapped
from .energy import Problem, exp_lumped
from .exact import BUBBLE_RATIOS, boundary_bubble_state


# slack of the D >= 1 verdict at blow-up candidates
D_TOL = 1e-6


# -- domain-variation fields -------------------------------------------------


class HolomorphicField:
    """F(z) = i z G(z) with G(z) = c0 + sum_k (c_k z^k + conj(c_k) z^-k).

    For real c0, G is real on |z| = 1 and equals the trigonometric
    polynomial the coefficients encode, so F = f tau there.  A complex
    c0 adds i c0 z: c0 = -i is the dilation F = z.  As a plane field,
    F = (Re F, Im F) has the conformal Jacobian of the complex
    derivative F', so its divergence is 2 Re F'.
    """

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def laurent(self) -> tuple[int, np.ndarray]:
        """Lowest power lo and coefficients a with F = sum_j a_j z^(lo + j):
        F = i z G runs over the powers 1 - d .. d + 1."""
        c = self.coeffs
        return 2 - len(c), 1j * np.concatenate([np.conj(c[:0:-1]), c])


def position_field() -> HolomorphicField:
    """F(z) = z, the dilation field; F' = 1 exactly."""
    return HolomorphicField([-1j])


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


def _linear_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows 1-2 of pinv(V), V = [1, x, y, x^2, xy, y^2], for patches of
    equal size along axis 0, with V of full column rank.

    Modified Gram-Schmidt runs over the columns in the order 1, x^2, xy,
    y^2, x, y, one patch per row of each array.  With x and y last, the
    rows of R^-1 Q^T they take are q4 / r44 - r45 q5 / (r44 r55) and
    q5 / r55, so no other column of R^-1 is formed.
    """
    def dot(a, b):
        return np.einsum("...gm,gm->...g", a, b)

    q = np.stack([np.ones_like(x), x * x, x * y, y * y, x, y])
    for j in range(4):
        q[j] /= np.sqrt(dot(q[j], q[j]))[:, None]
        q[j + 1:] -= dot(q[j + 1:], q[j])[..., None] * q[j]
    qx, qy = q[4], q[5]
    r44 = np.sqrt(dot(qx, qx))
    qx /= r44[:, None]
    r45 = dot(qy, qx)
    qy -= r45[:, None] * qx
    wy = qy / dot(qy, qy)[:, None]
    wx = (qx - r45[:, None] * wy) / r44[:, None]
    return np.stack([wx, wy], axis=1)


def _recovery_matrix(mesh: Mesh, dofs: np.ndarray) -> sp.csr_matrix:
    """Sparse R of shape (2 len(dofs), n_dof) whose row pair 2i, 2i + 1
    holds the linear part of the least-squares quadratic fit at dofs[i].

    The patch of dofs[i] is its two-ring in the triangle connectivity,
    center excluded.  The fit of u[patch] - u[center] on the scaled
    monomials [1, x, y, x^2, xy, y^2] is pinv(V) (u[patch] - u[center]),
    so rows 1-2 of pinv(V) over the scale are the patch weights and
    minus their sum the center weight.  Patches of equal size share one
    batched fit: with at least six points ``_linear_rows`` orthogonalizes
    the columns of every patch of the group at once, with no LAPACK call
    per patch.  A smaller patch (the half-disk's five-point corner)
    leaves the fit underdetermined and keeps ``pinv``'s minimum-norm
    solution.
    """
    n = mesh.n_dof
    tris = mesh.vertex_dof[mesh.triangles]
    # only triangles touching the one-ring reach into the two-ring
    near = np.zeros(n, dtype=bool)
    near[dofs] = True

    def touching(t):  # an OR of columns: any(axis=1) is six times slower
        return near[t[:, 0]] | near[t[:, 1]] | near[t[:, 2]]

    near[tris[touching(tris)]] = True
    tris = tris[touching(tris)]
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
        rel[..., 0] = wrapped(mesh, rel[..., 0])
        scale = np.abs(rel).max(axis=(1, 2))
        x, y = np.moveaxis(rel / scale[:, None, None], -1, 0)
        if m >= 6:
            W = _linear_rows(x, y)
        else:  # underdetermined: the minimum-norm fit
            V = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)
            W = np.linalg.pinv(V)[:, 1:3]
        W /= scale[:, None, None]
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
    Zienkiewicz & Zhu 1992), built per call and applied as a single
    sparse product.
    """
    return (_recovery_matrix(mesh, np.asarray(dofs, dtype=np.intp)) @ u).reshape(-1, 2)


# -- Pohozaev balance --------------------------------------------------------


def _p1_gradients(mesh: Mesh, *nodal: np.ndarray) -> list[np.ndarray]:
    """Per-triangle gradients gx + i gy of the P1 fields ``nodal``: vertex r
    weighs its opposite edge, turned by -90 degrees (times -i), over 2|T|."""
    tri, z = mesh.triangles, mesh.vertices.view(complex).ravel()
    dofs = [mesh.vertex_dof[tri[:, r]] for r in range(3)]
    edges = [z[tri[:, (r + 1) % 3]] - z[tri[:, (r + 2) % 3]] for r in range(3)]
    scale = -0.5j / mesh.tri_areas
    return [scale * sum(f[d] * e for d, e in zip(dofs, edges)) for f in nodal]


def _powers(z: Optional[np.ndarray], powers: set[int]):
    """Yield (q, z^q) for each q of ``powers``, with None for z^0.
    Positive powers are running products of z, negative ones of one
    reciprocal."""
    if 0 in powers:
        yield 0, None
    for sign in (1, -1):
        base = zq = None
        for n in range(1, max((sign * q for q in powers), default=0) + 1):
            if base is None:
                base = zq = z if sign > 0 else 1.0 / z
            else:
                zq = zq * base
            if sign * n in powers:
                yield sign * n, zq


@dataclass
class PohozaevReport:
    """Two sides of the domain-variation balance and their mismatch."""

    residual: float
    boundary_terms: list[float]
    interior_term: float


def pohozaev_report(prob: Problem, u: np.ndarray,
                    fields: dict[str, HolomorphicField]) -> dict[str, PohozaevReport]:
    """Both sides of the balance for each of ``fields``, keyed as given;
    the residual tends to zero under refinement when u solves the
    interior equation.  Everything that depends on the state alone is
    computed once: the boundary recovery, the boundary moments
    B_(c,p) = sum conj(coef) z^p over the vertices of each component c,
    and the interior moments M_p = sum conj(lin) z^p and N_q = sum kk z^q
    over the quadrature points, for every power the fields' F and F'
    use.  A field F = sum_p a_p z^p then costs sum_p Re a_p B_(c,p) per
    component and sum_p Re a_p (M_p + p N_(p-1)) inside.  The P1 gradient
    of u is formed only when K_bg != 0, that of K only when K varies."""
    mesh = prob.mesh
    u = np.asarray(u, dtype=float)
    laurent = {name: field.laurent() for name, field in fields.items()}
    lo = min((p for p, _ in laurent.values()), default=1)
    hi = max((p + len(a) - 1 for p, a in laurent.values()), default=1)

    # boundary side, trapezoid over each component with normals from one
    # recovery along every component's path.  In complex form F.nu and
    # grad u.F are Re(conj(nu) F) and Re(conj(grad u) F), so the integrand
    # is Re(conj(c) F) with one state coefficient c per path vertex, and
    # a field's term is Re sum_p a_p B_(c,p).
    paths = [mesh.vertex_dof[comp.verts] for comp in mesh.components]
    grads = np.split(recovered_gradient(mesh, u, np.concatenate(paths)),
                     np.cumsum([len(d) for d in paths])[:-1])
    bound = []
    for c, (comp, dofs, g) in enumerate(zip(mesh.components, paths, grads)):
        upath = u[dofs]
        nu, tau = (v[:, 0] + 1j * v[:, 1] for v in (comp.normals, comp.tangents))
        dnu = np.einsum("ik,ik->i", g, comp.normals)
        grad = tangential_derivative(mesh, c, upath) * tau + dnu * nu
        coef = ((4.0 * prob.K_dof[dofs] * exp_lumped(upath)[0] - np.abs(grad) ** 2) * nu
                + 2.0 * dnu * grad)
        half = 0.5 * comp.edge_lengths
        coef *= np.append(half, 0.0) + np.insert(half, 0, 0.0)
        B = np.zeros(hi - lo + 1, dtype=complex)
        for q, zq in _powers(mesh.vertices[comp.verts].view(complex).ravel(),
                             set(range(lo, hi + 1))):
            B[q - lo] = np.conj(coef.sum()) if zq is None else np.vdot(coef, zq)
        bound.append(B)

    # interior side, 3-point edge-midpoint quadrature per triangle; slot s
    # is the midpoint of the edge from vertex s to vertex s + 1, where e^u
    # is e^{u_a/2} e^{u_b/2}.  Per slot the state gives one complex weight
    # lin of F (the K_bg and grad K terms) and one real weight kk of Re F'.
    # With F = sum_p a_p z^p a field's term is Re sum_p a_p (M_p + p N_(p-1))
    # over the moments M_p = sum conj(lin) z^p and N_q = sum kk z^q.  A term
    # whose factor vanishes identically is skipped: grad u when K_bg = 0,
    # grad K when K is constant.
    K_bg, varying = prob.data.K_bg, not prob.data.K.is_constant
    tri, K = mesh.triangles, prob.K_dof
    tris = mesh.vertex_dof[tri]
    z = mesh.vertices.view(complex).ravel()
    live = [f for f, term in ((u, K_bg != 0.0), (K, varying)) if term]
    p1 = _p1_gradients(mesh, *live) if live else []
    eh = exp_lumped(u)[1]
    weight = (4.0 / 3.0) * mesh.tri_areas
    lin_u = K_bg * weight * p1[0] if K_bg else 0.0
    # powers of z the moments need; N_-1 meets p a_p = 0
    powers = set(range(lo, hi + 1)) if live else set()
    powers |= {p - 1 for p in range(lo, hi + 1) if p}
    M = np.zeros(hi - lo + 1, dtype=complex)
    N = np.zeros(hi - lo + 1, dtype=complex)  # N[p - lo] is N_(p-1)
    for s, t in ((0, 1), (1, 2), (2, 0)):
        a, b = tris[:, s], tris[:, t]
        e = weight * eh[a] * eh[b]
        lin = lin_u + e * p1[-1] if varying else lin_u
        kk = e * (K[a] + K[b])
        mid = 0.5 * (z[tri[:, s]] + z[tri[:, t]]) if powers - {0} else None
        for q, zq in _powers(mid, powers):
            if live and lo <= q <= hi:
                M[q - lo] += np.conj(lin.sum()) if zq is None else np.vdot(lin, zq)
            if lo <= q + 1 <= hi:
                N[q + 1 - lo] += kk.sum() if zq is None else complex(
                    *(kk @ zq.view(float).reshape(-1, 2)))

    reports = {}
    for name, (p, a) in laurent.items():
        k = np.arange(p, p + len(a))
        boundary_terms = [float((a @ B[k - lo]).real) for B in bound]
        inner = float((a @ (M[k - lo] + k * N[k - lo])).real)
        reports[name] = PohozaevReport(residual=abs(sum(boundary_terms) - inner),
                                       boundary_terms=boundary_terms, interior_term=inner)
    return reports


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
    tri_masses = (mesh.tri_areas / 3.0) * ((-prob.K_dof[tris]) * exp_lumped(u)[0][tris]).sum(axis=1)
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


def _edge_midpoints(mesh: Mesh) -> np.ndarray:
    """Boundary edge midpoints, component by component: the order of the
    flat boundary masses."""
    paths = [mesh.vertices[comp.verts] for comp in mesh.components]
    return np.vstack([0.5 * (q[:-1] + q[1:]) for q in paths])


def _centroids(mesh: Mesh) -> np.ndarray:
    t0, t1, t2 = mesh.triangles.T
    return np.column_stack([(x[t0] + x[t1] + x[t2]) / 3 for x in mesh.vertices.T])


def boundary_projection_tv(prob: Problem, u: np.ndarray,
                           measures: Optional[MassMeasures] = None) -> float:
    """Total-variation distance between the interior density pushed to
    its nearest boundary edge and the boundary density itself."""
    mm = measures if measures is not None else mass_measures(prob, u)
    mids = _edge_midpoints(prob.mesh)
    _, nearest = point_tree(prob.mesh, mids).query(_centroids(prob.mesh))
    proj = np.zeros(len(mids))
    np.add.at(proj, nearest, mm.interior_density)
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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "coords"}
        return {**out, "x": float(self.coords[0]), "y": float(self.coords[1]),
                "mass_gap": self.mass_gap}


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
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "candidates": [c.as_dict() for c in self.candidates],
                "concentration": [float(v) for v in self.concentration],
                "far_fractions": [float(v) for v in self.far_fractions]}


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
                   far_tol: float = 0.05) -> BlowupDiagnostics:
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

    edge_scale = float(max(np.median(c.edge_lengths) for c in mesh.components))
    if window is None:
        window = 5.0 * edge_scale

    def within(tree, pts) -> np.ndarray:
        """Mask of the tree's points within ``window`` of any of ``pts``;
        a negative window holds none (SciPy's ball would hold all)."""
        mask = np.zeros(tree.n, dtype=bool)
        for hits in tree.query_ball_point(pts, max(window, 0.0)):
            mask[hits] = True
        return mask

    threshold = sup_u - sup_window
    edge_tree = point_tree(mesh, _edge_midpoints(mesh))
    cents = _centroids(mesh)
    tri_tree = point_tree(mesh, cents)
    # a breach means large values away from the boundary; dofs inside the
    # boundary layer legitimately track the boundary supremum
    dof_dist, _ = edge_tree.query(mesh.dof_coords)
    far_dofs = dof_dist > far_distance
    interior_max = float(u[far_dofs].max()) if far_dofs.any() else -math.inf
    interior_breach = diverging and interior_max > threshold

    # local signed masses of the last state around each candidate cluster;
    # the union of their triangles is the concentration mask
    mm = measures[-1]
    edge_masses = np.concatenate(mm.boundary_masses)
    near = np.zeros(len(cents), dtype=bool)
    candidates: list[BlowupCandidate] = []
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
                members = mesh.vertices[path[run]]
                tris = within(tri_tree, members)
                near |= tris
                candidates.append(BlowupCandidate(
                    component=c,
                    coords=mesh.vertices[path[rep]].copy(),
                    arc_s=float(comp.s[rep]),
                    D=float(Dvals[rep]),
                    D_tau=float(Dtau[rep]),
                    cluster_size=len(run),
                    whole_component=len(run) == len(path),
                    local_interior_mass=float(mm.interior_masses[tris].sum()),
                    local_boundary_mass=float(edge_masses[within(edge_tree, members)].sum()),
                ))

    dist_boundary, _ = edge_tree.query(cents)
    far_tris = dist_boundary > far_distance
    concentration = np.array([m.interior_density[near].sum() for m in measures])
    far_fractions = np.array([m.interior_density[far_tris].sum() for m in measures])

    d_geq_one = all(c.D >= 1.0 - D_TOL for c in candidates)
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
            row = {name: float(getattr(self, name)[i]) for name in
                   ("mu", "delta", "dirichlet", "area", "boundary", "background", "energy")}
            out.append({**row, **{f"{name}_slope": row[name] * row["delta"]
                                  for name in ("dirichlet", "area", "boundary")}})
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
        mu_schedule = [r / q2 for r in BUBBLE_RATIOS]
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
