"""Closed-form solutions: half-plane profiles and annulus families.

These formulas solve the curvature equations exactly and serve three
purposes: oracles for residual-convergence tests, initial data for
solvers, and generators of blow-up families whose masses and Morse
indices are known.

Half-plane profiles (flat metric on {t >= 0}, constant K0 < 0, constant
boundary curvature h0 on {t = 0}):

  * one-dimensional:  v(s,t) = 2 log(lam/(1 + lam t)) - log|K0|,
    which matches the boundary condition exactly when h0 = sqrt(|K0|)
    (boundary ratio D0 = 1); it has infinite area mass.
  * bubble:  v(s,t) = 2 log(2 lam/((s-s0)^2 + (t+t0)^2 - lam^2)) - log|K0|
    with t0 = D0 lam, requiring D0 = h0/sqrt(|K0|) > 1; its interior and
    boundary masses are finite, lam-independent, and differ by exactly
    2 pi.
  * strip:  v(s,t) = 2 log(e^{-t}/(h0 + e^{-t} cos s)) with K0 = -1 and
    h0 > 1, the limit the power family below rescales to; it is 2 pi
    periodic in s, so its area mass diverges with the truncation radius,
    and so does its Morse index.

Annulus families on A(r,1) with K = -1 (flat background, outer
background curvature +1, inner -1/r):

  * log family  u = log(4/(|x|^2 (lam + 2 log|x|)^2)), lam outside
    [0, -2 log r], solving (h1, h2) = (1, -1) for lam < 0 and (-1, 1)
    for lam > -2 log r; as lam -> 0^- it blows up on the whole outer
    circle.
  * power family  u = 2 log(gamma |z|^{gamma-1} / (h1 + Re z^gamma)),
    h1 > 1, h2 = -h1 r^{-gamma}; as gamma grows it concentrates on the
    outer circle and rescales to the strip profile
    v = 2 log(e^{-t}/(h1 + e^{-t} cos s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import BoundaryPoint, Mesh, distance2
from .energy import Problem
from .fields import CurvatureSpec, background_for


# -- half-plane profiles ----------------------------------------------------


def eval_oneD(lam: float, K0: float, s, t) -> np.ndarray:
    """One-dimensional half-plane profile; requires t >= 0."""
    if lam <= 0:
        raise ValueError("profile scale lam must be positive")
    if K0 >= 0:
        raise ValueError("interior curvature K0 must be negative")
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    if t.size and t.min() < 0:
        raise ValueError("profile is defined on the upper half plane t >= 0")
    return 2.0 * np.log(lam / (1.0 + lam * t)) - math.log(-K0)


def eval_bubble(lam: float, s0: float, K0: float, h0: float, s, t) -> np.ndarray:
    """Bubble profile with boundary ratio D0 = h0/sqrt(|K0|) > 1."""
    if lam <= 0:
        raise ValueError("profile scale lam must be positive")
    if K0 >= 0:
        raise ValueError("interior curvature K0 must be negative")
    D0 = h0 / math.sqrt(-K0)
    if D0 <= 1:
        raise ValueError("bubble profile needs boundary ratio above one")
    t0 = D0 * lam
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    denom = (s - s0) ** 2 + (t + t0) ** 2 - lam**2
    return 2.0 * np.log(2.0 * lam / denom) - math.log(-K0)


@dataclass(frozen=True)
class HalfPlaneProfile:
    """A concrete half-plane solution, evaluable at (s, t) points."""

    kind: str  # "oned", "bubble" or "strip"
    K0: float
    h0: float
    lam: float
    s0: float = 0.0

    def __call__(self, s, t) -> np.ndarray:
        if self.kind == "oned":
            return eval_oneD(self.lam, self.K0, s, t)
        if self.kind == "strip":
            return eval_rescaled_limit(self.h0, s, t)
        return eval_bubble(self.lam, self.s0, self.K0, self.h0, s, t)


def oneD_profile(lam: float, K0: float = -1.0) -> HalfPlaneProfile:
    """Unit-ratio profile; the matching h0 = sqrt(|K0|) is set exactly."""
    if K0 >= 0:
        raise ValueError("interior curvature K0 must be negative")
    return HalfPlaneProfile(kind="oned", K0=K0, h0=math.sqrt(-K0), lam=lam)


def bubble_profile(lam: float, K0: float = -1.0, h0: float = math.sqrt(2.0),
                   s0: float = 0.0) -> HalfPlaneProfile:
    """Bubble profile; :func:`eval_bubble` checks K0 < 0 and h0 > sqrt(|K0|)."""
    return HalfPlaneProfile(kind="bubble", K0=K0, h0=h0, lam=lam, s0=s0)


def strip_profile(h1: float) -> HalfPlaneProfile:
    """Strip limit of the power family with boundary curvature h1 > 1;
    its period fixes the scale, so ``lam`` is one."""
    return HalfPlaneProfile(kind="strip", K0=-1.0, h0=h1, lam=1.0)


# -- annulus families -------------------------------------------------------


def log_family_curvatures(lam: float, r: float) -> tuple[float, float]:
    """(h1, h2) on (outer, inner) circles solved by the log family."""
    hi = -2.0 * math.log(r)
    if 0.0 <= lam <= hi:
        raise ValueError(f"lam must lie outside [0, {hi:g}]")
    return (1.0, -1.0) if lam < 0 else (-1.0, 1.0)


def eval_annulus_log(lam: float, r: float, x, y) -> np.ndarray:
    log_family_curvatures(lam, r)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rho2 = x**2 + y**2
    if rho2.size and (rho2.min() < r**2 * (1 - 1e-12) or rho2.max() > 1 + 1e-12):
        raise ValueError("points must lie in the annulus r <= |x| <= 1")
    return np.log(4.0 / (rho2 * (lam + np.log(rho2)) ** 2))


def gamma_family_curvatures(gamma: int, h1: float, r: float) -> tuple[float, float]:
    """(h1, h2) on (outer, inner) circles solved by the power family."""
    if h1 <= 1:
        raise ValueError("power family needs h1 > 1")
    if gamma < 1 or int(gamma) != gamma:
        raise ValueError("gamma must be a positive integer")
    return float(h1), -h1 * r ** (-float(gamma))


def eval_annulus_gamma(gamma: int, h1: float, r: float, x, y) -> np.ndarray:
    gamma_family_curvatures(gamma, h1, r)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rho = np.hypot(x, y)
    if rho.size and (rho.min() < r * (1 - 1e-12) or rho.max() > 1 + 1e-12):
        raise ValueError("points must lie in the annulus r <= |z| <= 1")
    z = x + 1j * y
    denom = h1 + (z**int(gamma)).real
    return 2.0 * np.log(gamma * rho ** (gamma - 1) / denom)


def eval_rescaled_limit(h1: float, s, t) -> np.ndarray:
    """Limit profile of the power family near the outer circle: a strip
    solution, 2 pi periodic in s, with K = -1 and boundary curvature h1."""
    if h1 <= 1:
        raise ValueError("rescaled limit needs h1 > 1")
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    et = np.exp(-t)
    return 2.0 * np.log(et / (h1 + et * np.cos(s)))


def disk_eigenfunction(x, y) -> np.ndarray:
    """First eigenfunction shape (1+|x|^2)/(1-|x|^2) of the disk-model
    stability operator; defined for |x| < 1."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rho2 = x**2 + y**2
    if rho2.size and rho2.max() >= 1.0:
        raise ValueError("eigenfunction defined inside the unit disk only")
    return (1.0 + rho2) / (1.0 - rho2)


# -- nodal states and problems ---------------------------------------------


def profile_state(mesh: Mesh, profile: HalfPlaneProfile) -> np.ndarray:
    """Interpolate a half-plane profile on a half-disk mesh (s, t) = (x, y)."""
    xy = mesh.dof_coords
    return profile(xy[:, 0], xy[:, 1])


# mu q2 of the bubble schedule, decreasing to 1: the concentrated pass
# endpoints of solve.build_u1 and the test-function curves of diagnostics
BUBBLE_RATIOS = (1.5, 1.3, 1.2, 1.1, 1.05, 1.02, 1.01, 1.005, 1.002)


def boundary_bubble_state(mesh: Mesh, point: BoundaryPoint, q2: float,
                          mu: float) -> Optional[np.ndarray]:
    """phi_mu = log 4 mu^2 - 2 log(mu^2 |x - q|^2 - 1) at the dofs, the
    hyperbolic metric (K = -1) outside the disk of radius 1/mu about
    q = point + q2 * normal; None where that disk reaches a dof, or where
    the wall is not finite (an overflowing offset)."""
    with np.errstate(over="ignore", invalid="ignore"):
        wall = mu**2 * distance2(mesh, point.coords + q2 * point.normal) - 1.0
    if not wall.min() > 0:
        return None
    return math.log(4.0 * mu**2) - 2.0 * np.log(wall)


def halfplane_problem(mesh: Mesh, profile: HalfPlaneProfile) -> tuple[Problem, np.ndarray]:
    """Truncated half-plane problem and its Dirichlet mask.

    The flat edge keeps the profile's boundary condition; the artificial
    arc is constrained to the formula values, so its dofs are flagged as
    fixed and excluded from residual and stability computations.
    """
    if mesh.spec.kind != "halfdisk":
        raise ValueError("half-plane profiles truncate onto half-disk meshes")
    spec = CurvatureSpec(K=profile.K0, h=[profile.h0, 0.0], K_bg=0.0, h_bg=(0.0, 0.0))
    fixed = np.zeros(mesh.n_dof, dtype=bool)
    fixed[mesh.vertex_dof[mesh.components[1].verts]] = True
    return Problem(mesh, spec), fixed


def annulus_log_state(mesh: Mesh, lam: float) -> np.ndarray:
    xy = mesh.dof_coords
    return eval_annulus_log(lam, mesh.spec.r, xy[:, 0], xy[:, 1])


def annulus_gamma_state(mesh: Mesh, gamma: int, h1: float) -> np.ndarray:
    xy = mesh.dof_coords
    return eval_annulus_gamma(gamma, h1, mesh.spec.r, xy[:, 0], xy[:, 1])


def _annulus_problem(mesh: Mesh, h1: float, h2: float, ops=None) -> Problem:
    if mesh.spec.kind != "annulus":
        raise ValueError("family lives on an annulus mesh")
    K_bg, h_bg = background_for(mesh)
    spec = CurvatureSpec(K=-1.0, h=[h1, h2], K_bg=K_bg, h_bg=h_bg)
    return Problem(mesh, spec, ops=ops)


def annulus_log_problem(mesh: Mesh, lam: float, ops=None) -> Problem:
    h1, h2 = log_family_curvatures(lam, mesh.spec.r)
    return _annulus_problem(mesh, h1, h2, ops)


def annulus_gamma_problem(mesh: Mesh, gamma: int, h1: float, ops=None) -> Problem:
    h1, h2 = gamma_family_curvatures(gamma, h1, mesh.spec.r)
    return _annulus_problem(mesh, h1, h2, ops)
