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
``J(u) = int |grad u|^2 + int e^u - int u``.  It is (1 + 2 eps) times I
of the data of :func:`prescurv.fields.perturb`, exactly, so a
:class:`Problem` at weight ``eps`` is that: the perturbed data, with
energy, gradient and Hessian scaled by 1 + 2 eps.  Its critical points,
Morse indices and Gauss-Bonnet identity are those of the data it
solves, which is what transfers Morse-index bounds from the relaxed
problems to the original one along a continuation run.

S is written straight as CSR from the cells of the logical grid: the
edge weights -cot/2 of each cell's two triangles fill a fixed 7-point
stencil (5 points on the cylinder), the diagonal is minus the row sum.
Every other matrix is ``scale * S + diag(d)``, the H1 Gram matrix ``B =
S + diag(w_int)`` and each Hessian, written into a copy of S's values at
the cached positions of its diagonal (:meth:`Operators.plus_diagonal`).
A :class:`Problem` assembles its :class:`Operators` on first read of
``ops``, unless they are shared with it, so that nodal data alone costs
no assembly.

On the periodic grids of the cylinder and the annulus (dofs ``j * n +
i``, i periodic), S's Fourier symbol is read off the stencil: the ring
means over i of each slot, whose departure bounds a row sum; the symbol
of ``scale * S + diag(d)`` is ``scale`` times it plus the mean of d over
i, its departure grown by the spread of d (:meth:`Operators.symbol`).
An rfft along i then splits the matrix into Hermitian tridiagonal mode
blocks (Hockney 1965; Buzbee, Golub & Nielson 1970).  The band L D L^T
of ``scale * S + diag(d)`` in an order read from the grid
(:meth:`Operators.factor`, LAPACK's ``dpbtrf`` and BLAS ``dtbsv``) is
the other representation, and :class:`Operators` alone chooses between
them, for three uses:

* :meth:`Operators.negatives`, the Morse counts of
  :mod:`prescurv.spectral`: Sturm counts of the mode blocks where
  Weyl's bracket of the departure certifies them, else the pivots of
  the band factor;
* :meth:`Operators.preconditioner`, that of Newton's Krylov solves in
  :mod:`prescurv.solve`: the inverse of the mode blocks, stacked into
  one tridiagonal matrix that LAPACK's ``zpttrf`` factors (L D L^H) and
  ``zpttrs`` solves, where the departure is at rounding level and every
  block is positive definite (rotation-invariant states), else B^{-1};
* :meth:`Operators.solve_B`, B^{-1} the same way, else by the band factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf, zpttrf, zpttrs

from .domain import Mesh
from .fields import CurvatureSpec, eval_h, eval_K, perturb

EXP_CLAMP = 700.0  # exp argument cap; beyond this the state is a blow-up
CIRCULANT_RTOL = 1e-12  # largest departure from its symbol, relative, of a matrix inverted by it


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


# stencil slots (di, dj): row (i, j) couples to (i + di, j + dj).  Each
# grid cell is cut along (i, j)-(i+1, j+1), so no other pair shares a
# triangle; for dofs j * n + i this is ascending column order
SLOTS = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))
CENTRE = SLOTS.index((0, 0))


def _stencil_symbol(W: np.ndarray) -> CirculantSymbol:
    """Symbol of the stencil ``W[slot, j, i]`` of a grid periodic in i:
    the ring means of each slot, with their departure bounding a row sum."""
    c, n = W.mean(axis=2), W.shape[2]
    w = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    blocks = np.zeros((W.shape[1], 3, len(w)), dtype=complex)
    departure = np.zeros(W.shape[1:])
    for s, (di, dj) in enumerate(SLOTS):  # blocks[j, dj + 1, k] sums c[s, j] w_k^di
        blocks[:, dj + 1] += c[s][:, None] * {-1: w.conj(), 0: 1.0, 1: w}[di]
        departure += np.abs(W[s] - c[s][:, None])
    return CirculantSymbol(n, blocks, float(departure.max()), float(np.abs(c).sum(axis=0).max()))


def _fourier_solver(sym: Optional[CirculantSymbol]):
    """Inverse of the block-circulant matrix of ``sym`` (B^{-1} from B's
    symbol, a Newton preconditioner from a Hessian's): rfft along i, one
    ``zpttrs`` over the mode blocks stacked into one tridiagonal matrix,
    irfft.  None without a symbol, off it by more than ``CIRCULANT_RTOL``
    relative, or where ``zpttrf`` finds a mode block that is not positive
    definite, so every solver it returns is symmetric positive definite."""
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


def _sturm_count(sym: Optional[CirculantSymbol]) -> Optional[int]:
    """Eigenvalues below 0 of a matrix Q = C + E whose symbol ``sym`` is
    that of C, |E| <= eta its departure; None without a symbol or where
    the count is not certain.

    C's eigenvalues are those of its Hermitian tridiagonal Fourier mode
    blocks, counted below a shift by the signs of the pivots of the
    block's L D L^T, a Sturm sequence (Demmel 1997, section 5.3).  By
    Weyl's bound every eigenvalue of Q lies within eta of one of C, so
    when the counts at -delta and delta agree, with delta = 2 eta plus
    rounding, no eigenvalue of Q is near 0 and the count is exactly Q's.
    Modes 0 < k < n/2 stand for the pair k, n - k and count twice.
    """
    if sym is None:
        return None
    M = sym.blocks
    # rounding of the mean over i (pairwise, log2 n ulps), of the mode
    # sums and of the recurrence (a few ulps per entry): 32 ulps of |C|
    # cover grids up to 2^20 points around
    delta = 2.0 * sym.departure + 32.0 * np.finfo(float).eps * sym.norm
    shifts = np.array([[-delta], [delta]])
    diag, offdiag2 = M[:, 1].real, np.abs(M[:-1, 2]) ** 2
    piv = np.empty((len(M), 2, M.shape[2]))
    piv[0] = diag[0] - shifts
    for jj in range(1, len(M)):
        piv[jj] = diag[jj] - shifts - offdiag2[jj - 1] / piv[jj - 1]
    if not np.all(np.isfinite(piv) & (piv != 0.0)):
        return None
    k = np.arange(M.shape[2])
    below, above = (piv < 0).sum(axis=0) @ np.where((k == 0) | (2 * k == sym.n), 1, 2)
    return int(below) if below == above else None


def _band_order(mesh: Mesh) -> tuple[np.ndarray, bool]:
    """Dofs in the order of the band L D L^T factors, read from
    ``mesh.grid``, and whether the last of them is a border.

    The lines of fixed i follow one another: the half-disk's spokes, and
    on a periodic grid, where that order would couple i = 0 to i = n - 1
    across the seam, the lines in the zig-zag order 0, n - 1, 1, n - 2,
    ..., so that neighbouring lines are at most two lines apart.  The
    half-bandwidth is about one line's dofs on the half-disk and two on
    a periodic grid.  The half-disk's centre meets every spoke, so it
    goes last, as a border that :meth:`Operators.factor` keeps out of
    the band.
    """
    G = mesh.vertex_dof[mesh.grid]  # (i, j) -> dof
    if (G[-1] == G[0]).all():
        n = len(G) - 1
        G = G[np.stack([np.arange(n), np.arange(n)[::-1]], axis=1).ravel()[:n]]
    fan = bool((G[:, 0] == G[0, 0]).all())
    lines = G[:, int(fan):].ravel()
    return (np.append(lines, G[0, 0]) if fan else lines), fan


def _band_entries(A: sp.csr_matrix, order: np.ndarray):
    """Where the lower triangle of the symmetric matrix A goes in LAPACK
    lower band storage, rows and columns taken in ``order``: ``A.data[k]``
    is band entry ``(r, c)``, the matrix entry (c + r, c), column by
    column, so that a range of columns is one slice."""
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    rows = pos[np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))]
    cols = pos[A.indices]
    k = np.flatnonzero(rows >= cols)
    k = k[np.lexsort((rows[k], cols[k]))]
    return rows[k] - cols[k], cols[k], k


@dataclass(frozen=True)
class Factor:
    """An L D L^T factorization: ``negatives`` is the number of negative
    entries of D, by Sylvester's law of inertia the number of negative
    eigenvalues of the matrix, and ``solve(r)`` applies its inverse."""

    negatives: int
    solve: Callable[[np.ndarray], np.ndarray]


def _dense(ab: np.ndarray, t: int, size: int) -> np.ndarray:
    """Rows and columns t .. t + size - 1 of the band matrix ``ab`` as a
    strided view of its storage with leading dimension kd, as LAPACK's
    ``dpbtf2`` reads a trailing block: the entries on and below the
    diagonal, up to kd below it, are the matrix's; the others alias
    other entries.  Needs t + size <= n."""
    kd, step = ab.shape[0] - 1, ab.itemsize
    return np.ndarray((size, size), float, ab, t * (kd + 1) * step, (step, kd * step))


def _ldlt(ab: np.ndarray, at: np.ndarray, values: np.ndarray, dofs: np.ndarray) -> Factor:
    """Unpivoted L D L^T of the symmetric band matrix ``ab`` (LAPACK lower
    band storage, Fortran order), which is overwritten by L: its entries
    are ``values`` at the sorted flat positions ``at``, 0 elsewhere, and
    ``dofs[c]`` names column c in errors.

    LAPACK's band Cholesky ``dpbtrf`` runs from the last restart until a
    pivot c is not positive.  What the failed call left is not read:
    columns restart .. c - 1 are written again and factored again, and
    their last kd columns give, by one triangular solve, their block L21
    of L in rows c .. c + kd and column c of the Schur block.  Its (c, c)
    entry p is eliminated as a 1 x 1 pivot: L21 and the column times
    sign(p) / sqrt|p| go into the band, with D = sign(p) at c and 1
    elsewhere.  The rest of the block updates the input's columns after
    c in a strip of 2 kd + 2 columns, which later restarts update again
    and which moves on, with its updates, once a restart passes its end.
    Columns are written again from the strip, else from ``values``; the
    factorization restarts after c in place, so each column is factored
    at most twice whatever the count, and no second band is made.  The
    inertia is exact by Sylvester's law and the Haynsworth additivity of
    Schur complements; a pivot that is zero or not finite raises.
    ``solve`` is the band triangular solve ``dtbsv`` with L, a multiply by
    D and ``dtbsv`` with L^T.
    """
    kd, n = ab.shape[0] - 1, ab.shape[1]
    strip, s0 = ab[:, :0], 0  # the input's columns s0, ... as restarts updated them

    def fill(dst: np.ndarray, a: int) -> np.ndarray:
        # the input's columns a, ... (a >= s0) into dst; rows past the matrix stay 0
        b, r = a + dst.shape[1], min(kd + 1, n - a)
        k = min(max(s0 + strip.shape[1], a), b)
        dst[:r, :k - a] = strip[:r, a - s0:k - s0]
        if k < b:
            dst[:r, k - a:] = 0.0
            lo, hi = at.searchsorted((k * (kd + 1), b * (kd + 1)))
            dst.reshape(-1, order="F")[at[lo:hi] - a * (kd + 1)] = values[lo:hi]
        return dst

    negative = []  # the columns whose pivot is negative
    start, stop, reach = 0, n, 0
    while True:
        info = dpbtrf(ab[:, start:stop], lower=1, overwrite_ab=1)[1] if stop > start else 0
        if info:
            # a band Cholesky stopped at column c has written only rows and
            # columns before c + kd + 1: each factored column updates the kd
            # after it, and LAPACK blocks columns only when kd exceeds its block
            stop = start + info - 1
            reach = max(reach, min(n, stop + kd + 1))
            fill(ab[:, start:stop], start)
            # A21: rows c .. c + w - 1 of the p columns before c, read before they are factored
            c, p, w = stop, min(kd, stop - start), min(kd + 1, n - stop)
            band = np.triu(np.ones((w, p), dtype=bool), p - kd)  # A21's entries within kd
            A21 = np.where(band, _dense(ab, c - p, p + w)[p:, :p], 0.0)
            continue
        if not np.isfinite(ab[0, start:stop]).all():
            raise RuntimeError("inertia count unavailable: a pivot is not finite")
        if stop == n:
            break
        # column c of the Schur block: L21 = A21 L11^-T, S = A22 - L21 L21^T
        X = solve_triangular(np.tril(_dense(ab, c - p, p)), A21.T, lower=True,
                             check_finite=False)
        if c + w > s0 + strip.shape[1]:  # the strip moves on to start at c
            strip, s0 = fill(np.zeros((kd + 1, min(2 * kd + 2, n - c)), order="F"), c), c
        col = strip[:w, c - s0] - X.T @ X[:, 0]
        pivot = col[0]
        if not np.isfinite(pivot):
            raise RuntimeError("inertia count unavailable: a pivot is not finite")
        if pivot == 0.0:
            raise RuntimeError(f"inertia count unavailable: pivot {dofs[c]} is 0, the"
                               " factorization is exactly singular")
        if pivot < 0:
            negative.append(c)
        rows, cols = np.nonzero(band)  # L21[b, a] is band entry (p + b - a, c - p + a)
        ab[p + rows - cols, c - p + cols] = X[cols, rows]
        ab[:w, c] = col * (np.sign(pivot) / np.sqrt(abs(pivot)))
        # eliminating c leaves A22 - U below it, U = L21 L21^T + col col^T /
        # pivot; zero padded, row b of U from its diagonal on is the update
        # of band column c + 1 + b
        m = w - 1
        Z = np.zeros((p + 1, 2 * m))
        Z[:p, :m], Z[p, :m] = X[:, 1:], col[1:]
        U = (Z[:, :m] * np.append(np.ones(p), 1.0 / pivot)[:, None]).T @ Z
        skew = (U.strides[1], U.strides[0] + U.strides[1])
        strip[:m, c + 1 - s0:c + w - s0] -= np.ndarray((m, m), float, U, 0, skew)
        fill(ab[:, c + 1:reach], c + 1)
        start, stop, reach = c + 1, n, 0

    def solve(r: np.ndarray) -> np.ndarray:
        y = dtbsv(kd, ab, r, lower=1)
        y[negative] *= -1.0
        return dtbsv(kd, ab, y, lower=1, trans=1, overwrite_x=1)

    return Factor(len(negative), solve)


@dataclass
class Operators:
    """Mesh-dependent quadrature forms shared by every problem on the mesh.

    ``S`` is the stiffness form (CSR, every diagonal entry stored),
    ``w_int`` the lumped interior weights (vertex rule, summing to the
    mesh area), ``wb[c]`` the lumped boundary weights of component ``c``
    (trapezoid with analytic edge lengths, summing to the component
    length).  ``B = S + diag(w_int)`` is the H1 Gram matrix of dual norms.
    ``S_symbol``, read from S's stencil on periodic grids, is its Fourier
    symbol, None on the half-disk.  Every matrix ``scale * S + diag(d)``
    is counted (:meth:`negatives`) from its :meth:`symbol` where that is
    exact enough, else from :meth:`factor`, the band L D L^T.  It is
    preconditioned (:meth:`preconditioner`) by the symbol's inverse where
    that is exact enough and positive definite, else by B^{-1}, which
    :meth:`solve_B` applies from B's symbol or from its band factor.
    """

    mesh: Mesh
    S: sp.csr_matrix
    w_int: np.ndarray
    wb: list[np.ndarray]
    S_symbol: Optional[CirculantSymbol] = None

    @property
    def n_dof(self) -> int:
        return self.mesh.n_dof

    @cached_property
    def _rows(self) -> np.ndarray:
        """The row of each entry of ``S.data``."""
        return np.repeat(np.arange(self.n_dof), np.diff(self.S.indptr))

    @cached_property
    def _diag_pos(self) -> np.ndarray:
        """Positions of S's diagonal entries in ``S.data``, row by row."""
        return np.flatnonzero(self.S.indices == self._rows)

    def plus_diagonal(self, scale: float, d: np.ndarray) -> sp.csr_matrix:
        """``scale * S + diag(d)``, sharing S's index arrays."""
        data = scale * self.S.data
        data[self._diag_pos] += d
        return sp.csr_matrix((data, self.S.indices, self.S.indptr), shape=self.S.shape)

    def symbol(self, scale: float, d: np.ndarray) -> Optional[CirculantSymbol]:
        """Symbol of ``scale * S + diag(d)``: ``S_symbol`` times ``scale``
        plus the mean d_bar of d over i, with departure at most ``scale *
        eta_S + max |d - d_bar|`` (triangle inequality); None without
        ``S_symbol``.  Its departure gates both consumers, the inverse of
        :func:`_fourier_solver` and the Weyl bracket of :func:`_sturm_count`."""
        sym = self.S_symbol
        if sym is None:
            return None
        dd = d.reshape(len(sym.blocks), sym.n)
        mean = dd.mean(axis=1)
        blocks = scale * sym.blocks
        blocks[:, 1] += mean[:, None]
        return CirculantSymbol(sym.n, blocks,
                               scale * sym.departure + float(np.abs(dd - mean[:, None]).max()),
                               scale * sym.norm + float(np.abs(mean).max()))

    @cached_property
    def _band_map(self):
        """The band order and whether its last dof is a border
        (:func:`_band_order`), the number n of dofs in the band, the
        half-bandwidth kd of S there, and the flat positions ``at`` in band
        storage of ``S.data[k]`` (:func:`_band_entries`), column by column;
        built at the first factorization, not by :func:`assemble`."""
        order, bordered = _band_order(self.mesh)
        n = len(order) - bordered
        r, c, k = _band_entries(self.S, order)
        inside = r + c < n  # the border's row and column stay out
        r, c, k = r[inside], c[inside], k[inside]
        kd = int(r.max())
        return order, n, kd, r + (kd + 1) * c, k

    def factor(self, scale: float, d: np.ndarray,
               fixed: Optional[np.ndarray] = None) -> Factor:
        """L D L^T of ``scale * S + diag(d)`` in the grid order, the rows
        and columns of ``fixed`` dofs replaced by identity rows, which add
        only the eigenvalue 1; its solver works in dof order.

        The dofs of the band go to :func:`_ldlt`, with the entries that it
        writes again after a failed pivot.  A border dof (the
        half-disk's centre) stays out: the matrix is [[A', a], [a^T,
        alpha]], and by Haynsworth's inertia additivity its count is A''s
        plus one where s = alpha - a^T A'^-1 a, from one solve with A''s
        factor, is negative.  A solve adds one dot product and one axpy.
        An s that is zero or not finite raises, as a pivot does.
        """
        order, n, kd, at, k = self._band_map
        A = self.plus_diagonal(scale, d)
        if fixed is not None:
            A.data[fixed[self._rows] | fixed[A.indices]] = 0.0
            A.data[self._diag_pos[fixed]] = 1.0
        inside, border = order[:n], order[n:]
        values, row = A.data[k], A[border].toarray()[:, order]
        del A  # the band holds the matrix from here on
        ab = np.zeros((kd + 1, n), order="F")
        ab.T.reshape(-1)[at] = values
        inner = _ldlt(ab, at, values, order)
        negatives = inner.negatives
        if len(border):
            a, z = row[0, :n], inner.solve(row[0, :n])
            s = row[0, n] - a @ z
            if not np.isfinite(s):
                raise RuntimeError("inertia count unavailable: a pivot is not finite")
            if s == 0.0:
                raise RuntimeError(f"inertia count unavailable: pivot {border[0]} is 0, the"
                                   " factorization is exactly singular")
            negatives += int(s < 0)

        def solve(r: np.ndarray) -> np.ndarray:
            x = np.empty_like(r)
            x[inside] = inner.solve(r[inside])
            if len(border):
                x[border] = (r[border] - a @ x[inside]) / s
                x[inside] -= x[border] * z
            return x

        return Factor(negatives, solve)

    def negatives(self, scale: float, d: np.ndarray,
                  fixed: Optional[np.ndarray] = None) -> int:
        """Number of eigenvalues of ``scale * S + diag(d)`` below 0, the
        rows and columns of ``fixed`` dofs replaced by identity rows: the
        Sturm count of its symbol where Weyl's bracket certifies it
        (:func:`_sturm_count`), else the pivots of :meth:`factor`."""
        count = _sturm_count(None if fixed is not None else self.symbol(scale, d))
        return self.factor(scale, d, fixed).negatives if count is None else count

    def preconditioner(self, scale: float, d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """An SPD approximation of the inverse of ``scale * S + diag(d)``:
        its symbol's inverse (:func:`_fourier_solver`), exact up to the
        departure, where there is one, else :meth:`solve_B`."""
        return _fourier_solver(self.symbol(scale, d)) or self.solve_B

    @cached_property
    def _B_inverse(self) -> Callable[[np.ndarray], np.ndarray]:
        """B^{-1}: Fourier-diagonal on periodic grids, else by the band
        L D L^T of :meth:`factor`."""
        return _fourier_solver(self.symbol(1.0, self.w_int)) or self.factor(1.0, self.w_int).solve

    def solve_B(self, r: np.ndarray) -> np.ndarray:
        """B^{-1} r, from :attr:`_B_inverse`."""
        return self._B_inverse(r)

    def dual_norm(self, r: np.ndarray) -> float:
        """H1-dual norm sqrt(r^T B^{-1} r) of a residual covector; inf or
        nan, without a warning, where the pairing overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sqrt(max(r @ self.solve_B(r), 0.0)))

    def boundary_integral(self, vals: np.ndarray) -> float:
        return float(sum(w @ vals for w in self.wb))


def _cot_weights(p, q, r):
    """Weights grad phi_a . grad phi_b |T| = -cot(opposite angle) / 2 of the
    edges qr, rp, pq of triangles (p, q, r) of complex points; twice the areas."""
    ep, eq, er = r - q, p - r, q - p  # the edge opposite each vertex
    two_area = np.abs((er.conj() * eq).imag)
    if two_area.min() <= 0:
        raise ValueError("degenerate triangle in mesh")
    return (*((e * f.conj()).real / (2.0 * two_area) for e, f in ((eq, er), (er, ep), (ep, eq))),
            two_area)


def assemble(mesh: Mesh) -> Operators:
    """Stiffness, interior and boundary quadrature weights in dof indexing,
    written from the cells of the logical grid ``mesh.grid``."""
    g = mesh.grid.T  # (j, i) -> vertex
    G = mesh.vertex_dof[g]
    fan = bool((G[0] == G[0, 0]).all())  # the half-disk's grid row 0 is its centre
    seam = bool((G[:, -1] == G[:, 0]).all())  # column n twins column 0
    (m, ni), lo = (G.shape[0], G.shape[1] - 1), int(fan)
    n = ni if seam else ni + 1  # dof columns
    D = G[:, :n].astype(np.int32)
    if not np.array_equal(np.concatenate([D[0, :1], D[1:].ravel()]) if fan else D.ravel(),
                          np.arange(mesh.n_dof)):
        raise ValueError("dofs are not numbered j * n + i along the grid")

    # cell (i, j) holds the lower triangle (a, b, c) = (i, j), (i+1, j),
    # (i+1, j+1) and the upper one (a, c, d), d = (i, j+1); the fan's lower
    # triangles are points
    z = mesh.vertices.view(complex).ravel()[g]
    a, b, c, d = z[:-1, :-1], z[:-1, 1:], z[1:, 1:], z[1:, :-1]
    bc, ca, ab, two_lower = _cot_weights(a[lo:], b[lo:], c[lo:])
    cd, da, ac, two_upper = _cot_weights(a, c, d)

    # edge weights at their lower-left point, along i, along j and along
    # the cut; 0 where there is no edge
    H, V, X = np.zeros((3, m, n))
    H[1:, :ni], V[:-1, :ni], X[:-1, :ni] = cd, da, ac
    H[lo:-1, :ni] += ab
    V[lo:-1, (np.arange(ni) + 1) % n] += bc  # the seam folds column n onto 0
    X[lo:-1, :ni] += ca
    edges = {(1, 0): H, (0, 1): V, (1, 1): X}
    # W[slot, j, i]: the stencil of row (i, j), C its columns; a slot is kept
    # where the neighbour exists (ok padded by points that are none), unless
    # every weight of its direction is exactly 0 (the cylinder's cut)
    W, C = np.zeros((len(SLOTS), m, n)), np.empty((len(SLOTS), m, n), dtype=D.dtype)
    keep = np.empty(W.shape, dtype=bool)
    ok = np.pad(np.ones((m, n), dtype=bool), ((0, 1), (0, 1 - seam)))
    for s, (di, dj) in enumerate(SLOTS):
        C[s] = np.roll(D, (-dj, -di), axis=(0, 1))
        if s != CENTRE:
            E = edges[abs(di), abs(dj)]
            W[s] = E if di + dj > 0 else np.roll(E, (-dj, -di), axis=(0, 1))
        keep[s] = np.roll(ok, (-dj, -di), axis=(0, 1))[:m, :n] & (s == CENTRE or W[s].any())
    if fan:  # ring 1 meets the centre through slots (-1, -1) and (0, -1): one spoke
        W[1, 1] += W[0, 1]
        W[0, 1], keep[0, 1] = 0.0, False
    W[CENTRE] = -W.sum(axis=0)
    symbol = _stencil_symbol(W) if seam else None

    if seam:  # a wrapped neighbour sorts last (column 0) or first (column n - 1) in its j
        for i in (0, n - 1):
            order = sorted(range(len(SLOTS)), key=lambda s: (SLOTS[s][1], (i + SLOTS[s][0]) % n))
            for Y in (W, C, keep):
                Y[:, :, i] = Y[order, :, i]
    # rows in dof order, the fan's centre first (its diagonal, then the spokes)
    Wr, Cr, kr = (np.moveaxis(Y[:, lo:], 0, -1) for Y in (W, C, keep))  # [j, i, slot]
    data, indices, counts = Wr[kr], Cr[kr], keep[:, lo:].sum(axis=0).ravel()
    if fan:
        data = np.concatenate([[-W[1, 1].sum()], W[1, 1], data])
        indices = np.concatenate([D[0, :1], D[1], indices])
        counts = np.concatenate([[n + 1], counts])
    S = sp.csr_matrix((data, indices, np.concatenate([[0], np.cumsum(counts)]).astype(D.dtype)),
                      shape=(mesh.n_dof, mesh.n_dof))

    # vertex rule: a third of each triangle's area at each of its corners
    third = np.zeros(g.shape)
    for two_area, first, corners in ((two_lower, lo, ((0, 0), (0, 1), (1, 1))),
                                     (two_upper, 0, ((0, 0), (1, 1), (1, 0)))):
        for dj, di in corners:
            third[first + dj:first + dj + len(two_area), di:di + ni] += two_area / 6.0
    w_int = np.bincount(G.ravel(), third.ravel(), mesh.n_dof)

    wb = [np.bincount(mesh.vertex_dof[np.concatenate([comp.verts[:-1], comp.verts[1:]])],
                      np.tile(0.5 * comp.edge_lengths, 2), mesh.n_dof)
          for comp in mesh.components]
    return Operators(mesh=mesh, S=S, w_int=w_int, wb=wb, S_symbol=symbol)


@dataclass
class EnergyBreakdown:
    """Energy value split into the terms of its problem's functional,
    plus the penalty when eps > 0.

    ``linear`` collects both background couplings 2 int K_bg u and
    2 bd h_bg u; ``boundary`` is the positive quantity 4 bd h e^{u/2}
    entering the total with a minus sign.  The four terms, those of the
    data solved times 1 + 2 eps, sum to ``total_eps``; ``chi_gen`` is that
    data's; ``total`` is the original value total_eps - eps * j_total.
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
    """Curvature data bound to a mesh at relaxation weight ``eps``:
    evaluates the energy, its derivatives, and the identities used to
    audit solves.

    ``spec`` is the prescribed data and ``data`` the data solved,
    ``perturb(spec, eps)`` or ``spec`` itself at eps = 0; the nodal
    values ``K_dof``, ``h_dof`` and ``chi_gen`` are those of ``data``.
    Energy, gradient and Hessian are ``scale`` = 1 + 2 eps times those
    of ``data``, which is the relaxed functional I + eps J exactly.

    ``ops`` are the operators passed in, shared with other problems on
    the same mesh, or else assembled when something first reads them;
    ``chi_gen`` and the constant vectors derived from ``ops`` follow on
    first read too.  A caller that needs only the nodal data, such as the
    Pohozaev balance of a closed-form state, assembles nothing.
    """

    def __init__(self, mesh: Mesh, spec: CurvatureSpec, ops: Optional[Operators] = None,
                 eps: float = 0.0):
        if len(spec.h) != len(mesh.components):
            raise ValueError("spec lists a different number of boundary components")
        self.mesh, self.spec, self.eps, self.scale = mesh, spec, eps, 1.0 + 2.0 * eps
        self.data = data = perturb(spec, eps) if eps else spec
        if ops is not None:
            self.ops = ops
        xy = mesh.dof_coords
        self.K_dof = eval_K(data, xy[:, 0], xy[:, 1])
        # nodal h per component, zero off the component; a corner dof can
        # carry different values for the two components meeting there
        self.h_dof = []
        for c, comp in enumerate(mesh.components):
            vals = np.zeros(mesh.n_dof)
            vals[mesh.vertex_dof[comp.verts]] = eval_h(data, mesh, c)
            self.h_dof.append(vals)

    @cached_property
    def ops(self) -> Operators:
        return assemble(self.mesh)

    @cached_property
    def chi_gen(self) -> float:
        return float(
            self.data.K_bg * self.ops.w_int.sum()
            + sum(hb * w.sum() for hb, w in zip(self.data.h_bg, self.ops.wb))
        )

    @cached_property
    def _lin(self) -> np.ndarray:
        """Constant dual vector of the linear terms."""
        return self.data.K_bg * self.ops.w_int + sum(
            hb * w for hb, w in zip(self.data.h_bg, self.ops.wb)
        )

    @cached_property
    def _bh(self) -> list[np.ndarray]:
        return [w * h for w, h in zip(self.ops.wb, self.h_dof)]

    @property
    def n_dof(self) -> int:
        return self.mesh.n_dof

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.n_dof)

    # -- energy and derivatives -------------------------------------------

    def energy(self, u: np.ndarray) -> EnergyBreakdown:
        u = np.asarray(u, dtype=float)
        eu, ehalf, blown = exp_lumped(u)
        s = self.scale
        # a state too large to sum gives a total that is not finite, which
        # fails every test on it, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            area_t = 2.0 * s * float(self.ops.w_int @ (-self.K_dof * eu))
            bnd_t = 4.0 * s * float(sum(bh @ ehalf for bh in self._bh))
            uSu = float(u @ (self.ops.S @ u))
            dir_t = 0.5 * s * uSu
            lin_t = 2.0 * s * float(self._lin @ u)
            total_eps = dir_t + lin_t + area_t - bnd_t
            j_total = float(uSu + self.ops.w_int @ (eu - u)) if self.eps else 0.0
        return EnergyBreakdown(
            dirichlet=dir_t,
            linear=lin_t,
            area=area_t,
            boundary=bnd_t,
            total=total_eps - self.eps * j_total,
            chi_gen=self.chi_gen,
            blowup_flag=blown,
            eps=self.eps,
            j_total=j_total,
            total_eps=total_eps,
        )

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Residual covector; pairing with psi=1 recovers the total
        curvature identity, so it vanishes exactly at critical points."""
        u = np.asarray(u, dtype=float)
        eu, ehalf, _ = exp_lumped(u)
        g = self.ops.S @ u + 2.0 * self._lin
        g += 2.0 * self.ops.w_int * (-self.K_dof) * eu
        g -= 2.0 * sum(bh * ehalf for bh in self._bh)
        g *= self.scale
        return g

    def hessian_parts(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """(scale, d) with :meth:`hessian` equal to ``scale * S + diag(d)``."""
        eu, ehalf, _ = exp_lumped(np.asarray(u, dtype=float))
        d = 2.0 * self.ops.w_int * (-self.K_dof) * eu
        d -= sum(bh * ehalf for bh in self._bh)
        return self.scale, self.scale * d

    def hessian(self, u: np.ndarray) -> sp.csr_matrix:
        """Second derivative of the energy: stiffness plus a diagonal,
        (1 + 2 eps) times the curvature form of the data solved."""
        return self.ops.plus_diagonal(*self.hessian_parts(u))

    # -- diagnostics -------------------------------------------------------

    def gauss_bonnet_residual(self, u: np.ndarray) -> float:
        """Total-curvature defect int K e^u + bd h e^{u/2} - chi_gen of
        the data solved.

        It equals -1 / (2 (1 + 2 eps)) times the gradient paired with
        psi=1, hence zero at discrete critical points up to solver
        tolerance.
        """
        return sum(self.boundary_masses(u)) - self.interior_mass(u) - self.chi_gen

    def interior_mass(self, u: np.ndarray) -> float:
        """Quadrature of |K| e^u over the surface."""
        eu, _, _ = exp_lumped(np.asarray(u, dtype=float))
        return float(self.ops.w_int @ (-self.K_dof * eu))

    def boundary_masses(self, u: np.ndarray) -> list[float]:
        """Quadrature of h e^{u/2} along each boundary component."""
        _, ehalf, _ = exp_lumped(np.asarray(u, dtype=float))
        return [float(bh @ ehalf) for bh in self._bh]
