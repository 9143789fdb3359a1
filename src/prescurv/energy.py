"""Discrete energy, gradient, and Hessian of the curvature functional.

The unknown is a nodal field ``u`` (one value per degree of freedom,
periodic seams share a dof).  The functional is

    I(u) = 1/2 int |grad u|^2 + 2 int K_bg u + 2 bd h_bg u
           + 2 int |K| e^u - 4 bd h e^{u/2}

with piecewise-linear elements, vertex-rule quadrature on triangles and
trapezoid quadrature (analytic arc lengths) on boundary edges.  Both
exponential terms are lumped at the nodes, so the second derivative is
the stiffness matrix plus a diagonal; that makes Newton steps and
eigenvalue problems cheap and keeps every identity below exact in
floating point rather than up to quadrature error.

The relaxed functional adds ``eps * J`` with the coercive penalty
``J(u) = int |grad u|^2 + int e^u - int u``.  Its derivatives satisfy,
discretely and exactly,

    I_eps'(u)  = (1 + 2 eps) * I'(u; perturbed data)
    I_eps''(u) = (1 + 2 eps) * Q(u; perturbed data)

with the data map of :func:`prescurv.fields.perturb`, which is what
transfers Morse-index bounds from the relaxed problems to the original
one along a continuation run.

The H1 Gram matrix ``B = S + diag(w_int)`` is inverted without a
factorization where the grid is periodic (cylinder, annulus): B is then
block-circulant with tridiagonal blocks, and an rfft along the periodic
index splits it into one Hermitian tridiagonal system per Fourier mode
(Hockney 1965; Buzbee, Golub & Nielson 1970).  The half-disk, or a B
that departs from its circulant symbol, is factored by SuperLU.  The
same symbol reader, :func:`circulant_symbol`, gives the Morse counts of
:mod:`prescurv.spectral` on rotation-invariant states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import Mesh
from .fields import CurvatureSpec, eval_K

EXP_CLAMP = 700.0  # exp argument cap; beyond this the state is a blow-up
B_ORDERING = "MMD_AT_PLUS_A"  # fill-reducing order of the SuperLU factorizations of B
CIRCULANT_RTOL = 1e-12  # B's largest departure from its circulant symbol, relative


def exp_lumped(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Nodal e^u and e^{u/2} with overflow clamped and flagged."""
    blown = bool(u.size) and float(u.max()) > EXP_CLAMP
    cu = np.minimum(u, EXP_CLAMP)
    return np.exp(cu), np.exp(0.5 * cu), blown


@dataclass
class Operators:
    """Mesh-dependent quadrature forms shared by every problem on the mesh.

    ``S`` is the stiffness form, ``w_int`` the lumped interior weights
    (vertex rule, summing to the mesh area), ``wb[c]`` the lumped
    boundary weights of component ``c`` (trapezoid with analytic edge
    lengths, summing to the component length).  ``B = S + diag(w_int)``
    is the H1 Gram matrix of dual norms and, through the cached solver of
    :meth:`solve_B`, the preconditioner of MINRES Newton steps and
    mountain-pass descent.
    ``grads[t, i]`` is the constant gradient of the i-th barycentric
    function on triangle t.
    """

    mesh: Mesh
    S: sp.csr_matrix
    w_int: np.ndarray
    wb: list[np.ndarray]
    grads: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_dof(self) -> int:
        return self.mesh.n_dof

    @property
    def B(self) -> sp.csr_matrix:
        if "B" not in self._cache:
            self._cache["B"] = (self.S + sp.diags(self.w_int)).tocsc()
        return self._cache["B"]

    def solve_B(self, r: np.ndarray) -> np.ndarray:
        """B^{-1} r: Fourier-diagonal on periodic grids, else by SuperLU."""
        if "B_solve" not in self._cache:
            self._cache["B_solve"] = (_fourier_solver(self.B, self.mesh)
                                      or spla.splu(self.B, permc_spec=B_ORDERING).solve)
        return self._cache["B_solve"](r)

    def dual_norm(self, r: np.ndarray) -> float:
        """H1-dual norm sqrt(r^T B^{-1} r) of a residual covector."""
        return float(np.sqrt(max(r @ self.solve_B(r), 0.0)))

    def integral(self, vals: np.ndarray) -> float:
        return float(self.w_int @ vals)

    def boundary_integral(self, vals: np.ndarray, component: Optional[int] = None) -> float:
        if component is not None:
            return float(self.wb[component] @ vals)
        return float(sum(w @ vals for w in self.wb))


@dataclass
class CirculantSymbol:
    """A matrix on a periodic grid split by an rfft along the periodic
    index i into one tridiagonal block in j per Fourier mode.

    ``grid[j, i]`` is the dof at grid point (i, j), each dof once.
    ``blocks[j, dj, k]`` is the (j, j + dj - 1) entry of the mode-k block,
    k = 0 .. n // 2, of the block-circulant matrix C whose symbol is the
    matrix's entries averaged over i.  ``departure`` is the largest
    absolute row sum of the matrix minus C and ``norm`` that of C.
    """

    grid: np.ndarray
    blocks: np.ndarray
    departure: float
    norm: float


def circulant_symbol(A: sp.spmatrix, mesh: Mesh) -> Optional[CirculantSymbol]:
    """The Fourier mode blocks of A on ``mesh.grid``, or None where the
    grid is not periodic, A couples dofs more than one grid step apart,
    or A's diagonal varies along i by more than ``CIRCULANT_RTOL``
    relative; that last test is O(n) and runs before the symbol is built."""
    D = mesh.vertex_dof[mesh.grid].T  # (j, i) -> dof
    periodic, D = np.array_equal(D[:, -1], D[:, 0]), D[:, :-1]
    if not periodic or not np.all(np.bincount(D.ravel(), minlength=A.shape[0]) == 1):
        return None
    diag = A.diagonal()[D]
    if np.abs(diag - diag[:, :1]).max() > CIRCULANT_RTOL * np.abs(diag).max():
        return None
    (m, n), pos = D.shape, np.empty(A.shape[0], dtype=int)
    pos[D.ravel()] = np.arange(D.size)
    coo = A.tocoo()
    (j, i), (jc, ic) = np.divmod(pos[coo.row], n), np.divmod(pos[coo.col], n)
    di, dj = (ic - i + 1) % n - 1, jc - j
    if np.abs(di).max() > 1 or np.abs(dj).max() > 1:
        return None
    # band[di, j, dj, i] = A[(i, j), (i + di, j + dj)]; the symbol is its mean over i
    band = np.zeros((3, m, 3, n))
    band[di + 1, j, dj + 1, i] = coo.data
    c = band.mean(axis=3)
    departure = float(np.abs(band - c[..., None]).sum(axis=(0, 2)).max())
    w = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    # blocks[j, dj, k]: sum over di of c[di, j, dj] w_k^di
    blocks = c[1][..., None] + c[2][..., None] * w + c[0][..., None] * w.conj()
    return CirculantSymbol(D, blocks, departure, float(np.abs(c).sum(axis=(0, 2)).max()))


def _fourier_solver(B: sp.csc_matrix, mesh: Mesh):
    """B^{-1} as rfft along the periodic grid index i, one tridiagonal
    solve in j per Fourier mode and irfft, or None where B departs from
    a block-circulant matrix with tridiagonal blocks on ``mesh.grid`` by
    more than ``CIRCULANT_RTOL`` relative."""
    sym = circulant_symbol(B, mesh)
    if sym is None or sym.departure > CIRCULANT_RTOL * sym.norm:
        return None
    D, M = sym.grid, sym.blocks
    m, n = D.shape
    piv = M[:, 1].copy()
    for jj in range(1, m):
        piv[jj] -= M[jj, 0] * M[jj - 1, 2] / piv[jj - 1]
    if not np.all(piv.real > 0):
        return None
    lower, upper = M[1:, 0] / piv[:-1], M[:-1, 2]

    def solve(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(r[D], axis=1)
        for jj in range(1, m):
            y[jj] -= lower[jj - 1] * y[jj - 1]
        y[-1] /= piv[-1]
        for jj in range(m - 2, -1, -1):
            y[jj] = (y[jj] - upper[jj] * y[jj + 1]) / piv[jj]
        x = np.empty(B.shape[0])
        x[D] = np.fft.irfft(y, n, axis=1)
        return x

    return solve


def assemble(mesh: Mesh) -> Operators:
    """Stiffness, interior and boundary quadrature weights in dof indexing."""
    dof = mesh.vertex_dof
    tris = dof[mesh.triangles]
    p = mesh.vertices[mesh.triangles]
    areas = mesh.tri_areas
    if areas.min() <= 0:
        raise ValueError("degenerate triangle in mesh")

    # P1 stiffness: grad of barycentric i is perp(opposite edge)/(2|T|)
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    grads = np.stack([e0, e1, e2], axis=1)[:, :, ::-1] * np.array([-1.0, 1.0])
    grads /= (2 * areas)[:, None, None]
    gx, gy = grads[..., 0], grads[..., 1]
    local = ((gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
             * areas[:, None, None])
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    S = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_dof, mesh.n_dof))
    S = S.tocsr()

    w_int = np.bincount(tris.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=mesh.n_dof)

    wb = []
    for comp in mesh.components:
        half = 0.5 * comp.edge_lengths
        wb.append(np.bincount(np.concatenate([dof[comp.verts[:-1]], dof[comp.verts[1:]]]),
                              weights=np.concatenate([half, half]), minlength=mesh.n_dof))
    return Operators(mesh=mesh, S=S, w_int=w_int, wb=wb, grads=grads)


@dataclass
class EnergyBreakdown:
    """Energy value split into its terms, plus the penalty when eps > 0.

    ``linear`` collects both background couplings 2 int K_bg u and
    2 bd h_bg u; ``boundary`` is the positive quantity 4 bd h e^{u/2}
    entering the total with a minus sign.  ``total_eps`` is the relaxed
    value total + eps * j_total.
    """

    dirichlet: float
    linear: float
    area: float
    boundary: float
    total: float
    chi_gen: float
    blowup_flag: bool
    eps: float = 0.0
    j_total: float = 0.0
    total_eps: float = 0.0

    def as_dict(self) -> dict:
        return {
            "dirichlet": self.dirichlet,
            "linear": self.linear,
            "area": self.area,
            "boundary": self.boundary,
            "total": self.total,
            "chi_gen": self.chi_gen,
            "blowup_flag": self.blowup_flag,
            "eps": self.eps,
            "j_total": self.j_total,
            "total_eps": self.total_eps,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


class Problem:
    """Curvature data bound to a mesh: evaluates I, its derivatives, and
    the identities used to audit solves."""

    def __init__(self, mesh: Mesh, spec: CurvatureSpec, ops: Optional[Operators] = None):
        if len(spec.h) != len(mesh.components):
            raise ValueError("spec lists a different number of boundary components")
        self.mesh = mesh
        self.spec = spec
        self.ops = ops if ops is not None else assemble(mesh)
        xy = mesh.dof_coords
        self.K_dof = eval_K(spec, xy[:, 0], xy[:, 1])
        # nodal h per component, zero off the component; a corner dof can
        # carry different values for the two components meeting there
        self.h_dof = []
        dof = mesh.vertex_dof
        for c, comp in enumerate(mesh.components):
            vals = np.zeros(mesh.n_dof)
            pts = mesh.vertices[comp.verts]
            vals[dof[comp.verts]] = spec.h[c](pts[:, 0], pts[:, 1], comp.s)
            self.h_dof.append(vals)
        self.chi_gen = float(
            spec.K_bg * self.ops.w_int.sum()
            + sum(hb * w.sum() for hb, w in zip(spec.h_bg, self.ops.wb))
        )
        # constant dual vectors of the linear terms
        self._lin = spec.K_bg * self.ops.w_int + sum(
            hb * w for hb, w in zip(spec.h_bg, self.ops.wb)
        )
        self._bh = [w * h for w, h in zip(self.ops.wb, self.h_dof)]

    @property
    def n_dof(self) -> int:
        return self.mesh.n_dof

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.n_dof)

    # -- energy and derivatives -------------------------------------------

    def _pieces(self, u: np.ndarray):
        eu, ehalf, blown = exp_lumped(u)
        area_t = 2.0 * float(self.ops.w_int @ (-self.K_dof * eu))
        bnd_t = 4.0 * float(sum(bh @ ehalf for bh in self._bh))
        return eu, ehalf, blown, area_t, bnd_t

    def energy(self, u: np.ndarray, eps: float = 0.0) -> EnergyBreakdown:
        u = np.asarray(u, dtype=float)
        eu, _, blown, area_t, bnd_t = self._pieces(u)
        dir_t = 0.5 * float(u @ (self.ops.S @ u))
        lin_t = 2.0 * float(self._lin @ u)
        total = dir_t + lin_t + area_t - bnd_t
        j_total = 0.0
        if eps:
            j_total = float(u @ (self.ops.S @ u) + self.ops.w_int @ (eu - u))
        return EnergyBreakdown(
            dirichlet=dir_t,
            linear=lin_t,
            area=area_t,
            boundary=bnd_t,
            total=total,
            chi_gen=self.chi_gen,
            blowup_flag=blown,
            eps=eps,
            j_total=j_total,
            total_eps=total + eps * j_total,
        )

    def gradient(self, u: np.ndarray, eps: float = 0.0) -> np.ndarray:
        """Residual covector; pairing with psi=1 recovers the total
        curvature identity, so it vanishes exactly at critical points."""
        u = np.asarray(u, dtype=float)
        eu, ehalf, _, _, _ = self._pieces(u)
        g = self.ops.S @ u + 2.0 * self._lin
        g += 2.0 * self.ops.w_int * (-self.K_dof) * eu
        g -= 2.0 * sum(bh * ehalf for bh in self._bh)
        if eps:
            g += eps * (2.0 * (self.ops.S @ u) + self.ops.w_int * (eu - 1.0))
        return g

    def hessian(self, u: np.ndarray, eps: float = 0.0) -> sp.csr_matrix:
        """Second derivative of the (relaxed) energy: stiffness plus a
        diagonal, equal to (1+2 eps) times the curvature form of the
        perturbed data."""
        u = np.asarray(u, dtype=float)
        eu, ehalf, _, _, _ = self._pieces(u)
        diag = 2.0 * self.ops.w_int * (-self.K_dof) * eu
        diag -= sum(bh * ehalf for bh in self._bh)
        if eps:
            diag += eps * self.ops.w_int * eu
            return ((1.0 + 2.0 * eps) * self.ops.S + sp.diags(diag)).tocsr()
        return (self.ops.S + sp.diags(diag)).tocsr()

    # -- diagnostics -------------------------------------------------------

    def gauss_bonnet_residual(self, u: np.ndarray, eps: float = 0.0) -> float:
        """Total-curvature defect int K e^u + bd h e^{u/2} - chi_gen of
        the data actually solved at relaxation weight ``eps``.

        For eps = 0 this equals -1/2 times the gradient paired with
        psi=1, hence zero at discrete critical points up to solver
        tolerance.  For eps > 0 it is the defect of the perturbed data of
        :func:`prescurv.fields.perturb`, (GB_0 - eps/2 int (e^u - 1)) /
        (1 + 2 eps), which vanishes at critical points of the relaxed
        energy.
        """
        u = np.asarray(u, dtype=float)
        eu, ehalf, _, _, _ = self._pieces(u)
        interior = float(self.ops.w_int @ (self.K_dof * eu))
        boundary = float(sum(bh @ ehalf for bh in self._bh))
        defect = interior + boundary - self.chi_gen
        if eps:
            defect = ((defect - 0.5 * eps * float(self.ops.w_int @ (eu - 1.0)))
                      / (1.0 + 2.0 * eps))
        return defect

    def interior_mass(self, u: np.ndarray) -> float:
        """Quadrature of |K| e^u over the surface."""
        eu, _, _ = exp_lumped(np.asarray(u, dtype=float))
        return float(self.ops.w_int @ (-self.K_dof * eu))

    def boundary_masses(self, u: np.ndarray) -> list[float]:
        """Quadrature of h e^{u/2} along each boundary component."""
        _, ehalf, _ = exp_lumped(np.asarray(u, dtype=float))
        return [float(bh @ ehalf) for bh in self._bh]

    def dual_norm(self, r: np.ndarray) -> float:
        return self.ops.dual_norm(r)

    def residual_norm(self, u: np.ndarray, eps: float = 0.0,
                      fixed: Optional[np.ndarray] = None) -> float:
        """H1-dual norm of the gradient; ``fixed`` masks Dirichlet dofs
        whose residual rows are constrained away rather than solved."""
        r = self.gradient(u, eps)
        if fixed is None:
            return self.dual_norm(r)
        free = np.nonzero(~fixed)[0]
        B_ff = restrict_matrix(self.ops.B, free).tocsc()
        rf = r[free]
        return float(np.sqrt(max(rf @ spla.splu(B_ff).solve(rf), 0.0)))


def restrict_matrix(A: sp.spmatrix, free: np.ndarray) -> sp.csr_matrix:
    """Principal submatrix on the ``free`` index set."""
    return A.tocsr()[free][:, free]
