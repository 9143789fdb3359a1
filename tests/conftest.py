import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, settings

import prescurv.energy as energy
import prescurv.solve as solve
from prescurv.domain import CIRCUMFERENCE
from prescurv.energy import CirculantSymbol, _band_entries
from prescurv.spectral import NEG_TOL, SpectrumReport

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def forge_saddle_index(monkeypatch, eps=None):
    """Make ``solve.morse_index`` read 2 wherever it counts 1, on every
    problem or on those at weight ``eps``; certificates of 0 stay."""
    real = solve.morse_index

    def forged(prob, u, **kwargs):
        rep = real(prob, u, **kwargs)
        if rep.negative_count == 1 and eps in (None, prob.eps):
            rep.negative_count = 2
        return rep

    monkeypatch.setattr(solve, "morse_index", forged)


def assert_gauss_bonnet(rep, mesh):
    """A report's Gauss-Bonnet defect within what its residual allows.

    The defect is -g.1 / (2 (1 + 2 eps)) for the gradient g, and
    |g.1| <= ||g||_{B^-1} ||1||_B with ||1||_B = sqrt|Omega|; rounding
    adds n_dof ulps of the three terms the defect sums."""
    e, scale = rep["energy"], 1.0 + 2.0 * rep["eps"]
    terms = abs(e["area"]) / (2 * scale) + abs(e["boundary"]) / (4 * scale) + abs(e["chi_gen"])
    bound = (0.5 * rep["residual_norm"] * np.sqrt(mesh.tri_areas.sum())
             + mesh.n_dof * 2.0**-52 * terms)
    assert abs(rep["gauss_bonnet"]) <= bound, (rep["gauss_bonnet"], bound)


def analytic_geometry(spec):
    """Exact area and boundary lengths (in ``Mesh.components`` order) of
    the domain a ``DomainSpec`` describes."""
    if spec.kind == "cylinder":
        return CIRCUMFERENCE * spec.L, (CIRCUMFERENCE, CIRCUMFERENCE)
    if spec.kind == "annulus":
        return math.pi * (1.0 - spec.r**2), (2 * math.pi, 2 * math.pi * spec.r)
    return 0.5 * math.pi * spec.R**2, (2 * spec.R, math.pi * spec.R)


@pytest.fixture
def analytic():
    """:func:`analytic_geometry`, for tests that compare meshes with it."""
    return analytic_geometry


def reference_stiffness(mesh):
    """Per-triangle 9-entry P1 stiffness assembly and the barycentric
    gradients ``grads[t, k]``, as a check on the grid assembly."""
    tris = mesh.vertex_dof[mesh.triangles]
    p = mesh.vertices[mesh.triangles]
    areas = mesh.tri_areas
    e0, e1, e2 = p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]
    grads = np.stack([e0, e1, e2], axis=1)[:, :, ::-1] * np.array([-1.0, 1.0])
    grads /= (2 * areas)[:, None, None]
    gx, gy = grads[..., 0], grads[..., 1]
    local = ((gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
             * areas[:, None, None])
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    on = local.ravel() != 0.0  # a right angle couples nothing
    S = sp.coo_matrix((local.ravel()[on], (rows[on], cols[on])), shape=(mesh.n_dof, mesh.n_dof))
    return S.tocsr(), grads


def reference_symbol(A, mesh):
    """The Fourier mode blocks of any sparse A on ``mesh.grid``, from its
    COO entries, or None where the grid is not periodic, its dofs are not
    ``j * n + i`` or A couples dofs more than one grid step apart."""
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
    blocks = c[1][..., None] + c[2][..., None] * w + c[0][..., None] * w.conj()
    return CirculantSymbol(n, blocks, departure, float(np.abs(c).sum(axis=(0, 2)).max()))


def band_ldlt(Q, shift=0.0, order=None):
    """``energy._ldlt`` of the symmetric matrix Q + shift I, rows and
    columns taken in ``order`` (None: as given), in LAPACK band storage
    with the half-bandwidth that order gives it; its solver works in that
    order."""
    Q = sp.csr_matrix(Q, copy=True)
    Q.sum_duplicates()
    order = np.arange(Q.shape[0]) if order is None else order
    r, c, k = _band_entries(Q, order)
    ab = np.zeros((int(r.max(initial=0)) + 1, Q.shape[0]), order="F")
    ab[r, c] = Q.data[k]
    ab[0] += shift
    at = np.flatnonzero(ab.T)  # the entries that _ldlt writes again after a failed pivot
    return energy._ldlt(ab, at, ab.T.ravel()[at], order)


def negative_count(Q, neg_tol=NEG_TOL, order=None):
    """Eigenvalues of any symmetric matrix Q below ``-neg_tol``, counted by
    the band kernel in the order given: the reference that the grid
    factorization of ``Operators.factor`` and the Fourier counts are
    checked against."""
    return SpectrumReport(band_ldlt(Q, neg_tol, order).negatives, 0, neg_tol)
