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

S is assembled from one weight grad phi_a . grad phi_b |T| per triangle
edge (a, b), its diagonal from its zero row sums; weights that vanish
exactly (the cylinder's right angles) are not stored.  Every other
matrix is ``scale * S + diag(d)``, the H1 Gram matrix ``B = S +
diag(w_int)`` and each Hessian, written into a copy of S's values at
the cached positions of its diagonal (:meth:`Operators.plus_diagonal`).

On the periodic grids of the cylinder and the annulus (dofs ``j * n +
i``, i periodic), :func:`circulant_symbol` reads S's Fourier mode blocks
once per mesh; the symbol of ``scale * S + diag(d)`` is ``scale`` times
it plus the mean of d over i (:meth:`Operators.symbol`).  An rfft along
i then splits B into Hermitian positive definite tridiagonal mode
blocks (Hockney 1965; Buzbee, Golub & Nielson 1970), stacked into one
tridiagonal matrix that LAPACK's ``zpttrf`` factors once (L D L^H) and
``zpttrs`` solves.  The half-disk, a B off its symbol or a mode block
that is not positive definite goes to SuperLU.  The same symbols give
the Morse counts of :mod:`prescurv.spectral` on rotation-invariant
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import zpttrf, zpttrs

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
class CirculantSymbol:
    """Fourier mode blocks of a matrix on a periodic grid of period ``n``
    in i, dofs ``j * n + i``: ``blocks[j, dj, k]`` is the (j, j + dj - 1)
    entry of the Hermitian tridiagonal mode-k block, k = 0 .. n // 2, of
    the block-circulant C whose entries are the matrix's averaged over i.
    ``departure`` bounds the largest absolute row sum of the matrix minus
    C, ``norm`` that of C."""

    n: int
    blocks: np.ndarray
    departure: float
    norm: float


def circulant_symbol(A: sp.spmatrix, mesh: Mesh) -> Optional[CirculantSymbol]:
    """The Fourier mode blocks of A on ``mesh.grid``, or None where the
    grid is not periodic, its dofs are not exactly ``arange(m * n)``
    reshaped to (m, n), or A couples dofs more than one grid step apart."""
    D = mesh.vertex_dof[mesh.grid].T  # (j, i) -> dof
    m, n = D.shape[0], D.shape[1] - 1
    if not (np.array_equal(D[:, -1], D[:, 0])
            and np.array_equal(D[:, :-1], np.arange(m * n).reshape(m, n))):
        return None
    coo = A.tocoo()
    (j, i), (jc, ic) = np.divmod(coo.row, n), np.divmod(coo.col, n)
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
    return CirculantSymbol(n, blocks, departure, float(np.abs(c).sum(axis=(0, 2)).max()))


def _fourier_solver(sym: Optional[CirculantSymbol]):
    """B^{-1} from B's symbol: rfft along i, one ``zpttrs`` over the mode
    blocks stacked into one tridiagonal matrix, irfft.  None without a
    symbol, off it by more than ``CIRCULANT_RTOL`` relative, or where
    ``zpttrf`` finds a mode block that is not positive definite."""
    if sym is None or sym.departure > CIRCULANT_RTOL * sym.norm:
        return None
    m, n, modes = sym.blocks.shape[0], sym.n, sym.blocks.shape[2]
    # mode-major; the zero superdiagonal of row j = m - 1 separates modes
    diag, upper, info = zpttrf(sym.blocks[:, 1].real.T.ravel(),
                               sym.blocks[:, 2].T.ravel()[:-1])
    if info != 0:
        return None

    def solve(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(r.reshape(m, n), axis=1)
        x, _ = zpttrs(diag, upper, y.T.reshape(-1, 1))
        return np.fft.irfft(x.reshape(modes, m).T, n, axis=1).ravel()

    return solve


@dataclass
class Operators:
    """Mesh-dependent quadrature forms shared by every problem on the mesh.

    ``S`` is the stiffness form (CSR, every diagonal entry stored),
    ``w_int`` the lumped interior weights (vertex rule, summing to the
    mesh area), ``wb[c]`` the lumped boundary weights of component ``c``
    (trapezoid with analytic edge lengths, summing to the component
    length).  ``B = S + diag(w_int)`` is the H1 Gram matrix of dual norms
    and, through the cached solver of :meth:`solve_B`, the
    preconditioner of MINRES Newton steps.  ``grads[t, i]`` is the
    constant gradient of the i-th barycentric function on triangle t.
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
    def _diag_pos(self) -> np.ndarray:
        """Positions of S's diagonal entries in ``S.data``, row by row."""
        if "diag_pos" not in self._cache:
            rows = np.repeat(np.arange(self.n_dof), np.diff(self.S.indptr))
            self._cache["diag_pos"] = np.flatnonzero(self.S.indices == rows)
        return self._cache["diag_pos"]

    def plus_diagonal(self, scale: float, d: np.ndarray) -> sp.csr_matrix:
        """``scale * S + diag(d)``, sharing S's index arrays."""
        data = scale * self.S.data
        data[self._diag_pos] += d
        return sp.csr_matrix((data, self.S.indices, self.S.indptr), shape=self.S.shape)

    def symbol(self, scale: float, d: np.ndarray) -> Optional[CirculantSymbol]:
        """Symbol of ``scale * S + diag(d)``: S's, read once per mesh, times
        ``scale`` plus the mean d_bar of d over i, with departure at most
        ``scale * eta_S + max |d - d_bar|`` (triangle inequality).  None off
        periodic grids, or where d varies along i by more than
        ``CIRCULANT_RTOL`` relative (states that are not rotation invariant)."""
        if "symbol" not in self._cache:
            self._cache["symbol"] = circulant_symbol(self.S, self.mesh)
        sym = self._cache["symbol"]
        if sym is None:
            return None
        dd = d.reshape(len(sym.blocks), sym.n)
        mean = dd.mean(axis=1)
        spread = float(np.abs(dd - mean[:, None]).max())
        if spread > CIRCULANT_RTOL * float(np.abs(scale * self.S.data[self._diag_pos] + d).max()):
            return None
        blocks = scale * sym.blocks
        blocks[:, 1] += mean[:, None]
        return CirculantSymbol(sym.n, blocks, scale * sym.departure + spread,
                               scale * sym.norm + float(np.abs(mean).max()))

    @property
    def B(self) -> sp.csr_matrix:
        if "B" not in self._cache:
            self._cache["B"] = self.plus_diagonal(1.0, self.w_int)
        return self._cache["B"]

    def solve_B(self, r: np.ndarray) -> np.ndarray:
        """B^{-1} r: Fourier-diagonal on periodic grids, else by SuperLU."""
        if "B_solve" not in self._cache:
            self._cache["B_solve"] = (_fourier_solver(self.symbol(1.0, self.w_int))
                                      or spla.splu(self.B.tocsc(), permc_spec=B_ORDERING).solve)
        return self._cache["B_solve"](r)

    def dual_norm(self, r: np.ndarray) -> float:
        """H1-dual norm sqrt(r^T B^{-1} r) of a residual covector."""
        return float(np.sqrt(max(r @ self.solve_B(r), 0.0)))

    def boundary_integral(self, vals: np.ndarray, component: Optional[int] = None) -> float:
        if component is not None:
            return float(self.wb[component] @ vals)
        return float(sum(w @ vals for w in self.wb))


def assemble(mesh: Mesh) -> Operators:
    """Stiffness, interior and boundary quadrature weights in dof indexing."""
    dof = mesh.vertex_dof
    tris = dof[mesh.triangles]
    areas = mesh.tri_areas
    if areas.min() <= 0:
        raise ValueError("degenerate triangle in mesh")
    n = mesh.n_dof

    # P1 stiffness: the gradient of barycentric k is the edge (a, b) = (k + 1,
    # k + 2) opposite vertex k turned by +90 degrees, over 2|T|, and the
    # weight of that edge is grad phi_a . grad phi_b |T|
    a, b = [1, 2, 0], [2, 0, 1]
    x, y = mesh.vertices[:, 0][mesh.triangles], mesh.vertices[:, 1][mesh.triangles]
    two_area = (2 * areas)[:, None]
    gx, gy = (y[:, a] - y[:, b]) / two_area, (x[:, b] - x[:, a]) / two_area
    grads = np.empty(gx.shape + (2,))
    grads[..., 0], grads[..., 1] = gx, gy
    w = ((gx[:, a] * gx[:, b] + gy[:, a] * gy[:, b]) * areas[:, None]).ravel()
    ta, tb = tris[:, a].ravel(), tris[:, b].ravel()
    keep = w != 0.0  # right angles couple nothing
    upper = sp.coo_matrix((w[keep], (np.minimum(ta, tb)[keep], np.maximum(ta, tb)[keep])),
                          shape=(n, n)).tocsr().tocoo()
    diag = -(np.bincount(upper.row, upper.data, n) + np.bincount(upper.col, upper.data, n))
    idx = np.arange(n)  # S = upper + upper^T + diag: exactly symmetric, zero row sums
    S = sp.csr_matrix((np.concatenate([upper.data, upper.data, diag]),
                       (np.concatenate([upper.row, upper.col, idx]),
                        np.concatenate([upper.col, upper.row, idx]))), shape=(n, n))

    w_int = np.bincount(tris.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=n)

    wb = []
    for comp in mesh.components:
        half = 0.5 * comp.edge_lengths
        wb.append(np.bincount(np.concatenate([dof[comp.verts[:-1]], dof[comp.verts[1:]]]),
                              weights=np.concatenate([half, half]), minlength=n))
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

    def energy(self, u: np.ndarray, eps: float = 0.0) -> EnergyBreakdown:
        u = np.asarray(u, dtype=float)
        eu, ehalf, blown = exp_lumped(u)
        area_t = 2.0 * float(self.ops.w_int @ (-self.K_dof * eu))
        bnd_t = 4.0 * float(sum(bh @ ehalf for bh in self._bh))
        uSu = float(u @ (self.ops.S @ u))
        dir_t = 0.5 * uSu
        lin_t = 2.0 * float(self._lin @ u)
        total = dir_t + lin_t + area_t - bnd_t
        j_total = 0.0
        if eps:
            j_total = float(uSu + self.ops.w_int @ (eu - u))
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
        eu, ehalf, _ = exp_lumped(u)
        Su = self.ops.S @ u
        g = Su + 2.0 * self._lin
        g += 2.0 * self.ops.w_int * (-self.K_dof) * eu
        g -= 2.0 * sum(bh * ehalf for bh in self._bh)
        if eps:
            g += eps * (2.0 * Su + self.ops.w_int * (eu - 1.0))
        return g

    def hessian_parts(self, u: np.ndarray, eps: float = 0.0) -> tuple[float, np.ndarray]:
        """(scale, d) with :meth:`hessian` equal to ``scale * S + diag(d)``."""
        eu, ehalf, _ = exp_lumped(np.asarray(u, dtype=float))
        d = 2.0 * self.ops.w_int * (-self.K_dof) * eu
        d -= sum(bh * ehalf for bh in self._bh)
        if eps:
            d += eps * self.ops.w_int * eu
        return 1.0 + 2.0 * eps, d

    def hessian(self, u: np.ndarray, eps: float = 0.0) -> sp.csr_matrix:
        """Second derivative of the (relaxed) energy: stiffness plus a
        diagonal, equal to (1+2 eps) times the curvature form of the
        perturbed data."""
        return self.ops.plus_diagonal(*self.hessian_parts(u, eps))

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
        eu, ehalf, _ = exp_lumped(np.asarray(u, dtype=float))
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
