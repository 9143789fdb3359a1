import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from prescurv import cli
from prescurv.domain import DomainSpec, build_mesh
from prescurv.exact import (
    annulus_gamma_problem,
    annulus_gamma_state,
    annulus_log_problem,
    annulus_log_state,
    bubble_profile,
    disk_eigenfunction,
    eval_annulus_gamma,
    eval_annulus_log,
    eval_bubble,
    eval_oneD,
    eval_rescaled_limit,
    gamma_family_curvatures,
    halfplane_problem,
    log_family_curvatures,
    oneD_profile,
    profile_state,
)

SQRT2 = math.sqrt(2.0)


def test_oneD_values_and_errors():
    assert eval_oneD(1.0, -1.0, 0.0, 0.0) == pytest.approx(0.0)
    assert eval_oneD(1.0, -1.0, 5.0, 0.0) == pytest.approx(0.0)
    t = np.linspace(0, 3, 7)
    assert np.allclose(eval_oneD(2.0, -1.0, 0.0, t), eval_oneD(2.0, -1.0, 9.0, t))
    with pytest.raises(ValueError, match="half plane"):
        eval_oneD(1.0, -1.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        eval_oneD(-1.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        eval_oneD(1.0, 1.0, 0.0, 0.0)


def test_bubble_values_and_symmetry():
    assert eval_bubble(1.0, 0.0, -1.0, SQRT2, 0.0, 0.0) == pytest.approx(2 * math.log(2))
    a = np.linspace(0, 2, 5)
    left = eval_bubble(1.0, 0.3, -1.0, SQRT2, 0.3 - a, 1.0)
    right = eval_bubble(1.0, 0.3, -1.0, SQRT2, 0.3 + a, 1.0)
    assert np.allclose(left, right, rtol=1e-14)
    with pytest.raises(ValueError, match="above one"):
        eval_bubble(1.0, 0.0, -1.0, 0.9, 0.0, 0.0)


def test_annulus_log_values():
    assert eval_annulus_log(-2.0, 0.5, 1.0, 0.0) == pytest.approx(0.0)
    assert log_family_curvatures(-2.0, 0.5) == (1.0, -1.0)
    assert log_family_curvatures(2.0, 0.5) == (-1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        log_family_curvatures(0.5, 0.5)
    with pytest.raises(ValueError, match="annulus"):
        eval_annulus_log(-2.0, 0.5, 0.2, 0.0)


def test_annulus_log_blows_up_on_outer_circle():
    sups = [eval_annulus_log(lam, 0.5, 1.0, 0.0) for lam in (-0.5, -0.1, -0.02)]
    assert sups[0] < sups[1] < sups[2]
    assert sups[2] > 7.0


def test_annulus_gamma_values():
    assert eval_annulus_gamma(1, 2.0, 0.5, 1.0, 0.0) == pytest.approx(2 * math.log(1 / 3))
    assert gamma_family_curvatures(2, 2.0, 0.5) == (2.0, -8.0)
    with pytest.raises(ValueError, match="h1 > 1"):
        eval_annulus_gamma(2, 1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="positive integer"):
        gamma_family_curvatures(0, 2.0, 0.5)


def test_annulus_gamma_concentrates_with_gamma():
    theta = np.linspace(0, 2 * math.pi, 257)
    sups, infs = [], []
    for gamma in (4, 8, 16):
        outer = eval_annulus_gamma(gamma, 2.0, 0.5, np.cos(theta), np.sin(theta))
        inner = eval_annulus_gamma(gamma, 2.0, 0.5, 0.5 * np.cos(theta), 0.5 * np.sin(theta))
        sups.append(outer.max())
        infs.append(inner.min())
    assert sups[0] < sups[1] < sups[2]
    assert infs[0] > infs[1] > infs[2]


def test_rescaled_limit_values_and_periodicity():
    assert eval_rescaled_limit(2.0, 0.0, 0.0) == pytest.approx(2 * math.log(1 / 3))
    s = np.linspace(0, 2 * math.pi, 9)
    assert np.allclose(
        eval_rescaled_limit(2.0, s, 1.0),
        eval_rescaled_limit(2.0, s + 2 * math.pi, 1.0),
        rtol=1e-14,
    )


def test_rescaled_limit_is_gamma_limit():
    # v_gamma(z) = u_gamma(1 - z/gamma) - 2 log gamma converges to the strip
    # profile uniformly on compact sets
    s = np.linspace(-1.5, 1.5, 21)
    t = np.linspace(0.0, 2.0, 15)
    S, T = np.meshgrid(s, t)
    v = eval_rescaled_limit(2.0, S, T)
    sup_errs = []
    for gamma in (64, 256):
        # evaluate the family formula directly: the rescaled points spill
        # slightly past |z| = 1, where the closed form still makes sense
        w = 1.0 - (T + 1j * S) / gamma
        vg = (2 * np.log(gamma * np.abs(w) ** (gamma - 1) / (2.0 + (w**gamma).real))
              - 2 * math.log(gamma))
        sup_errs.append(np.abs(vg - v).max())
    assert sup_errs[1] < sup_errs[0] / 3
    assert sup_errs[1] < 0.02


def test_disk_eigenfunction_values():
    assert disk_eigenfunction(0.0, 0.0) == pytest.approx(1.0)
    assert disk_eigenfunction(0.5, 0.0) == pytest.approx(5.0 / 3.0)
    assert disk_eigenfunction(0.3, 0.4) == pytest.approx(1.25 / 0.75)
    with pytest.raises(ValueError):
        disk_eigenfunction(1.0, 0.0)


def test_disk_eigenfunction_solves_radial_equation():
    # psi'' + psi'/r = 2 rho psi with rho = 4/(1-r^2)^2, via central differences
    d = 1e-5
    for r in (0.2, 0.5, 0.8):
        f = lambda rr: disk_eigenfunction(rr, 0.0)
        lap = (f(r + d) - 2 * f(r) + f(r - d)) / d**2 + (f(r + d) - f(r - d)) / (2 * d * r)
        rhs = 2 * 4 / (1 - r**2) ** 2 * f(r)
        assert lap == pytest.approx(rhs, rel=1e-5)


def residual_orders(norms):
    return [math.log2(a / b) for a, b in zip(norms, norms[1:])]


def restricted_dual_norm(prob, r, fixed):
    """H1-dual norm of the residual r on the dofs left free by ``fixed``,
    whose rows are constrained away rather than solved."""
    free = np.nonzero(~fixed)[0]
    B_ff = prob.ops.plus_diagonal(1.0, prob.ops.w_int)[free][:, free].tocsc()
    return math.sqrt(max(r[free] @ spla.splu(B_ff).solve(r[free]), 0.0))


def test_gamma_family_residual_convergence():
    norms = []
    for level in (1, 2, 3):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        prob = annulus_gamma_problem(mesh, 2, 2.0)
        norms.append(prob.ops.dual_norm(prob.gradient(annulus_gamma_state(mesh, 2, 2.0))))
    orders = residual_orders(norms)
    assert min(orders) >= 1.5
    assert norms[-1] < 2.5e-2


def test_log_family_residual_convergence():
    norms = []
    for level in (1, 2, 3):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        prob = annulus_log_problem(mesh, -2.0)
        norms.append(prob.ops.dual_norm(prob.gradient(annulus_log_state(mesh, -2.0))))
    orders = residual_orders(norms)
    assert min(orders) >= 1.5
    assert norms[-1] < 1e-2


def test_halfplane_profile_residual_convergence():
    for prof in (oneD_profile(1.0), bubble_profile(1.0)):
        norms = []
        for level in (1, 2, 3):
            mesh = build_mesh(DomainSpec("halfdisk", R=8.0, level=level))
            prob, fixed = halfplane_problem(mesh, prof)
            u = profile_state(mesh, prof)
            norms.append(restricted_dual_norm(prob, prob.gradient(u), fixed))
        orders = residual_orders(norms)
        assert min(orders) >= 1.5, (prof.kind, norms)


def test_halfplane_problem_mask_is_arc(cylmesh=None):
    mesh = build_mesh(DomainSpec("halfdisk", R=4.0, level=1))
    prob, fixed = halfplane_problem(mesh, bubble_profile(1.0))
    arc_dofs = mesh.vertex_dof[mesh.components[1].verts]
    assert fixed[arc_dofs].all()
    assert fixed.sum() == len(set(arc_dofs.tolist()))
    assert prob.spec.h[0].constant_value() == pytest.approx(SQRT2)
    assert prob.spec.h[1].constant_value() == 0.0


def test_bubble_mass_quadrature_coarse():
    # truncation at R=20 loses ~3% of the boundary mass; 5% headroom
    mesh = build_mesh(DomainSpec("halfdisk", R=20.0, level=4, grade=2.0))
    prof = bubble_profile(1.0)
    prob, _ = halfplane_problem(mesh, prof)
    u = profile_state(mesh, prof)
    # the closed form: interior mass beta = 2 pi (h0 / sqrt(h0^2 + K0) - 1)
    # for any lam, boundary mass beta + 2 pi
    beta = 2 * math.pi * (SQRT2 / math.sqrt(SQRT2**2 - 1.0) - 1.0)
    bnd = beta + 2 * math.pi
    assert prob.interior_mass(u) == pytest.approx(beta, rel=0.05)
    flat_mass = prob.boundary_masses(u)[0]
    assert flat_mass == pytest.approx(bnd, rel=0.05)


def test_gamma_family_gauss_bonnet_refines_to_zero():
    defects = []
    for level in (1, 2, 3):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        prob = annulus_gamma_problem(mesh, 2, 2.0)
        defects.append(abs(prob.gauss_bonnet_residual(annulus_gamma_state(mesh, 2, 2.0))))
    assert defects[2] < defects[0]
    assert defects[2] < 1e-2


def test_sweep_outputs():
    mesh = build_mesh(DomainSpec("annulus", r=0.5, level=2))
    rows = cli._sweep_rows(
        [(annulus_gamma_problem(mesh, g, 2.0), annulus_gamma_state(mesh, g, 2.0))
         for g in (4, 8)], [4, 8])
    keys = {"parameter", "sup_u", "inf_u", "area_mass",
            "boundary_mass_0", "boundary_mass_1", "gb_residual"}
    assert keys <= set(rows[0])
    assert rows[1]["sup_u"] > rows[0]["sup_u"]
    assert rows[1]["inf_u"] < rows[0]["inf_u"]

    lams = [-0.5, -0.1]
    logs = cli._sweep_rows(
        [(annulus_log_problem(mesh, lam), annulus_log_state(mesh, lam)) for lam in lams],
        lams)
    assert logs[1]["sup_u"] > logs[0]["sup_u"]
    assert all(r["area_mass"] > 0 for r in logs)
