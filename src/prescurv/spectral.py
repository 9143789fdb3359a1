"""Morse index counts for solutions and profiles.

The stability form of a state u is

    Q(psi) = int |grad psi|^2 + 2 int |K| e^u psi^2 - bd h e^{u/2} psi^2,

discretized by :meth:`prescurv.energy.Problem.hessian` at eps = 0 as
stiffness plus diagonal.  The Morse index is the number of negative eigenvalues of
Q against any positive inner product; by Sylvester's law of inertia that
equals the number of negative eigenvalues of the plain symmetric matrix.
:func:`negative_count` reads it exactly from the pivots of one
symmetric LDL^T factorization of the shifted matrix: the congruence
Q + tau I = P^T L D L^T P preserves inertia, so the eigenvalues below
-tau are as many as the negative entries of D.

On the periodic grids of cylinders and annuli, a rotation-invariant
state makes Q = scale * S + diag(d) block-circulant up to rounding, and
an rfft along the periodic index splits it into one Hermitian
tridiagonal block per Fourier mode (Hockney 1965), so the count is a
sum of Sturm counts of the blocks (Demmel 1997, section 5.3) and needs
no factorization.  The symbol is S's, read once per mesh
(:meth:`prescurv.energy.Operators.symbol`), times scale plus the mean
d_bar of d.  By the triangle inequality Q departs from it by at most
eta = scale * eta_S + max |d - d_bar|, and eta enters a Weyl bracket:
the count is returned only when it is the same at -tau - 2 eta and
-tau + 2 eta (widened by rounding), which makes it exact for Q.
Non-radial states, the half-disk, restricted forms and any count the
bracket does not settle go to the factorization.

Truncated half-plane profiles restrict Q to fields vanishing on the
artificial arc (Dirichlet truncation), the ``fixed`` mask of
:func:`morse_index`; ``prescurv spectrum`` counts them for the
``bubble``, ``oned`` and ``strip`` families of ``[sweep]``.  Restriction
only shrinks the admissible space, so the computed counts are lower
bounds for the index of the profile on the full half plane, which is
the monotonicity the truncation-family checks rely on.

The disk-model stability form

    Q_R(psi) = int_{D_R} |grad psi|^2 + 2 int psi^2 rho(|x|)
               - D0 sqrt(rho(R)) bd psi^2,   rho(s) = 4/(1-s^2)^2,

at the special radius R = D0 - sqrt(D0^2 - 1) separates in polar
coordinates, so :func:`disk_form_report` reduces it to one-dimensional
radial pencils per angular frequency m, all tridiagonal.  The m^2/r^2
potential makes the per-mode ground states increase with m, so scanning
stops at the first nonnegative mode; each mode is counted by LAPACK's
``stebz`` bisection (``eigvalsh_tridiagonal``).  The radial ground pair
comes from bisection on ``dpttrf``'s positive-definiteness test and one
inverse iteration with ``dpttrs``.  The m=1 ground state is an exact
zero mode (the fields x_i/(1-|x|^2)); a conforming discretization
approximates its eigenvalue from above, hence never reports it as
spuriously negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .energy import B_ORDERING, CirculantSymbol, Problem
from .exact import disk_eigenfunction

NEG_TOL = 1e-10
DENSE_CUTOFF = 600
# fill-reducing orderings tried in turn for the symmetric factorization
ORDERINGS = (B_ORDERING, "MMD_ATA")


@dataclass
class SpectrumReport:
    """Inertia of a stability form.

    ``negative_count`` is the exact number of eigenvalues below
    ``-neg_tol``.  ``k_used`` names the path that produced it: 0 when
    the count was read from pivots (SuperLU's, or the Sturm sequences
    of the Fourier mode blocks), n when it came from the dense
    eigenvalue fallback.
    """

    negative_count: int
    k_used: int
    neg_tol: float = NEG_TOL


def negative_count(Q: sp.spmatrix, neg_tol: float = NEG_TOL) -> SpectrumReport:
    """Count eigenvalues of the symmetric matrix Q below ``-neg_tol``.

    Q + neg_tol I is factored with SuperLU restricted to symmetric,
    diagonal-pivot elimination, which makes U = D L^T and the diagonal
    of U the pivots D.  That count is trusted only when no row pivoting
    happened and every pivot is finite and nonzero.  A factorization
    that fails this guard is retried once under the ``MMD_ATA``
    ordering, at the same shift; if that fails too, matrices up to
    ``DENSE_CUTOFF`` fall back to dense eigenvalues and larger ones
    raise a :class:`RuntimeError` naming the reasons.
    """
    n = Q.shape[0]
    A = (Q + neg_tol * sp.identity(n)).tocsc()
    reasons = []
    for ordering in ORDERINGS:
        try:
            lu = spla.splu(A, permc_spec=ordering, diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            reasons.append(f"{ordering}: factorization failed ({exc})")
            continue
        pivots = lu.U.diagonal()
        if not np.array_equal(lu.perm_r, lu.perm_c):
            reasons.append(f"{ordering}: the factorization pivoted off the diagonal")
        elif not np.all(np.isfinite(pivots) & (pivots != 0.0)):
            reasons.append(f"{ordering}: a pivot is zero or not finite")
        else:
            return SpectrumReport(int((pivots < 0).sum()), 0, neg_tol)
    if n > DENSE_CUTOFF:
        raise RuntimeError(f"inertia count unavailable: {'; '.join(reasons)};"
                           f" n={n} exceeds the dense cutoff {DENSE_CUTOFF}")
    vals = np.linalg.eigvalsh(Q.toarray())
    return SpectrumReport(int((vals < -neg_tol).sum()), n, neg_tol)


def _fourier_count(sym: Optional[CirculantSymbol], neg_tol: float) -> Optional[int]:
    """Eigenvalues below ``-neg_tol`` of Q = scale S + diag(d) from its
    symbol ``sym``, or None where there is none or the count is not certain.

    Q = C + E with C block-circulant and |E| <= eta = scale eta_S +
    max |d - d_bar|, the symbol's departure (triangle inequality).  C's
    eigenvalues are those of its Hermitian tridiagonal Fourier mode
    blocks, counted below a shift by the signs of the pivots of the
    block's LDL^T, a Sturm sequence.  By Weyl's bound every eigenvalue
    of Q lies within eta of one of C, so when the counts at -neg_tol -
    delta and -neg_tol + delta agree, with delta = 2 eta plus rounding,
    no eigenvalue of Q is near the cut and the count is exactly Q's.
    Modes 0 < k < n/2 stand for the pair k, n - k and count twice.
    """
    if sym is None:
        return None
    M = sym.blocks
    # rounding of the mean over i (pairwise, log2 n ulps), of the mode
    # sums and of the recurrence (a few ulps per entry, Demmel 1997,
    # section 5.3): 32 ulps of |C| cover grids up to 2^20 points around
    delta = 2.0 * sym.departure + 32.0 * np.finfo(float).eps * sym.norm
    shifts = np.array([[-neg_tol - delta], [-neg_tol + delta]])
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


def morse_index(prob: Problem, u: np.ndarray, eps: float = 0.0,
                fixed: Optional[np.ndarray] = None,
                neg_tol: float = NEG_TOL) -> SpectrumReport:
    """Index of a state: eigenvalues of the Hessian of ``prob`` at ``u``
    and ``eps`` below ``-neg_tol``, optionally restricted away from
    Dirichlet-fixed dofs.  Unrestricted rotation-invariant states on
    periodic grids are counted from the Fourier mode blocks
    (:func:`_fourier_count`); everything else by :func:`negative_count`.
    """
    if fixed is not None:
        free = np.nonzero(~fixed)[0]
        return negative_count(prob.hessian(u, eps)[free][:, free], neg_tol=neg_tol)
    scale, d = prob.hessian_parts(u, eps)
    count = _fourier_count(prob.ops.symbol(scale, d), neg_tol)
    if count is not None:
        return SpectrumReport(count, 0, neg_tol)
    return negative_count(prob.ops.plus_diagonal(scale, d), neg_tol=neg_tol)


# -- separable disk model ----------------------------------------------------


def disk_truncation_radius(D0: float) -> float:
    """Radius at which the disk form first acquires a zero mode."""
    if D0 <= 1:
        raise ValueError("disk model needs boundary ratio above one")
    return D0 - math.sqrt(D0**2 - 1.0)


@dataclass
class DiskFormReport:
    """Spectral summary of the disk-model form at its critical radius.

    ``mode_counts`` lists (m, negatives, smallest eigenvalue) per angular
    frequency up to the first nonnegative mode; counts for m >= 1 enter
    ``negative_count`` with multiplicity two (cos and sin).
    ``radial_eigenvalue`` is the smallest eigenvalue of the m = 0 form
    against the H1 inner product, ``correlation_with_gamma`` the
    correlation of its eigenvector with the gamma direction
    (1 + r^2)/(1 - r^2), and ``kernel_rayleigh`` the Rayleigh quotient
    of the conformal field r/(1 - r^2) in the m = 1 form, zero in the
    continuum.
    """

    D0: float
    R: float
    negative_count: int
    mode_counts: list
    radial_eigenvalue: float
    correlation_with_gamma: float
    kernel_rayleigh: float


def _radial_pieces(D0: float, n_r: int):
    """Per-element tridiagonal pieces of the radial forms on [0, R]."""
    R = disk_truncation_radius(D0)
    r = np.linspace(0.0, R, n_r + 1)
    h = r[1] - r[0]
    # 4-point Gauss on each element
    gx, gw = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (r[:-1] + r[1:])
    pts = mid[:, None] + 0.5 * h * gx[None, :]
    wts = 0.5 * h * gw[None, :]
    lam0 = (r[1:][:, None] - pts) / h  # hat of the left node
    lam1 = (pts - r[:-1][:, None]) / h

    def elem(weight):
        w = wts * weight
        return (
            (w * lam0 * lam0).sum(axis=1),
            (w * lam0 * lam1).sum(axis=1),
            (w * lam1 * lam1).sum(axis=1),
        )

    rho = 4.0 / (1.0 - pts**2) ** 2
    stiff_d = (r[1:] ** 2 - r[:-1] ** 2) / (2 * h**2)  # f'g' r dr, exact
    stiff = (stiff_d, -stiff_d, stiff_d)
    pot = elem(2.0 * rho * pts)  # 2 rho f g r dr
    invr = elem(1.0 / pts)  # f g / r dr (times m^2 later)
    mass = elem(pts)  # f g r dr
    bcoef = D0 * 2.0 / (1.0 - R**2)  # D0 sqrt(rho(R))
    return r, stiff, pot, invr, mass, bcoef * R


def _tridiag(n, pieces_list, boundary=0.0):
    d = np.zeros(n + 1)
    e = np.zeros(n)
    for d00, d01, d11 in pieces_list:
        d[:-1] += d00
        d[1:] += d11
        e += d01
    d[-1] -= boundary
    return d, e


def _mode_matrix(m, r, stiff, pot, invr, bnd):
    pieces = [stiff, pot]
    if m:
        pieces.append(tuple(m**2 * a for a in invr))
    d, e = _tridiag(len(r) - 1, pieces, boundary=bnd)
    if m:
        return d[1:], e[1:]  # clamp r=0 for nonradial modes
    return d, e


def _count_below(d, e, cut):
    lo = min((d - np.concatenate([[0.0], np.abs(e)])
              - np.concatenate([np.abs(e), [0.0]])).min(), cut) - 1.0
    vals = la.eigvalsh_tridiagonal(d, e, select="v", select_range=(lo, cut))
    return len(vals), vals


def _quad(d, e, x) -> float:
    """x^T T x for the symmetric tridiagonal T = (d, e)."""
    return float(d @ (x * x) + 2.0 * e @ (x[:-1] * x[1:]))


def _ground_pair(dA, eA, dB, eB) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the tridiagonal pencil A - lam B (B positive
    definite) and its eigenvector.

    A - sigma B is positive definite exactly when sigma lies below that
    eigenvalue, which ``dpttrf`` reports through ``info``, so bisection
    on it brackets the eigenvalue to adjacent doubles; the Rayleigh
    quotient of ones bounds it from above.  One inverse iteration
    (``dpttrs``) at the definite end of the bracket gives the vector.
    """
    def definite(sigma):
        return dpttrf(dA - sigma * dB, eA - sigma * eB)[2] == 0

    ones = np.ones(len(dA))
    hi = _quad(dA, eA, ones) / _quad(dB, eB, ones)
    step = max(1.0, abs(hi))
    while not definite(hi - step):
        step *= 2.0
    lo = hi - step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if definite(mid):
            lo = mid
        else:
            hi = mid
    d, e, _ = dpttrf(dA - lo * dB, eA - lo * eB)
    Bx = dB.copy()  # B ones
    Bx[:-1] += eB
    Bx[1:] += eB
    return hi, dpttrs(d, e, Bx)[0]


def disk_form_report(D0: float, n_r: int = 3000, m_cap: int = 128) -> DiskFormReport:
    """Full inertia of the disk form via its angular decomposition, and
    the radial ground pair and conformal kernel, all from tridiagonal
    radial pencils in O(n_r) work per mode."""
    r, stiff, pot, invr, mass, bnd = _radial_pieces(D0, n_r)
    mode_counts = []
    total = 0
    for m in range(m_cap + 1):
        d, e = _mode_matrix(m, r, stiff, pot, invr, bnd)
        cnt, vals = _count_below(d, e, -NEG_TOL)
        smallest = vals[0] if len(vals) else None
        mode_counts.append((m, cnt, smallest))
        total += cnt * (2 if m else 1)
        if cnt == 0:
            break  # per-mode minimum increases with m
    else:
        raise RuntimeError("angular mode cap exhausted")

    lam, vec = _ground_pair(*_mode_matrix(0, r, stiff, pot, invr, bnd),
                            *_tridiag(len(r) - 1, [stiff, mass]))
    corr = abs(float(np.corrcoef(vec, disk_eigenfunction(r, np.zeros_like(r)))[0, 1]))

    # the m = 1 zero mode x_i/(1 - |x|^2), interpolated; r = 0 is clamped
    f = (r / (1.0 - r**2))[1:]
    dB1, eB1 = _tridiag(len(r) - 1, [stiff, mass, invr])
    kern = abs(_quad(*_mode_matrix(1, r, stiff, pot, invr, bnd), f)) / _quad(dB1[1:], eB1[1:], f)

    return DiskFormReport(
        D0=D0,
        R=r[-1],
        negative_count=total,
        mode_counts=mode_counts,
        radial_eigenvalue=lam,
        correlation_with_gamma=corr,
        kernel_rayleigh=kern,
    )
