import math

import numpy as np
import pytest

from prescurv.diagnostics import (
    TEST_RATIOS,
    VectorField,
    blowup_monitor,
    boundary_projection_tv,
    holomorphic_field,
    mass_measures,
    pohozaev_report,
    position_field,
    recovered_gradient,
)
from prescurv.diagnostics import testfunction_energy_curve as energy_curve
from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import Problem
from prescurv.exact import (
    annulus_gamma_problem,
    annulus_gamma_state,
    annulus_log_problem,
    annulus_log_state,
    bubble_profile,
    halfplane_problem,
    profile_state,
)
from prescurv.fields import CurvatureSpec

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def annulus3():
    return build_mesh(DomainSpec("annulus", r=0.5, level=3))


@pytest.fixture(scope="module")
def halfdisk4():
    return build_mesh(DomainSpec("halfdisk", R=10.0, level=4, grade=2.0))


def origin_anchor(mesh):
    comp = mesh.components[0]
    verts = comp.verts[:-1] if comp.closed else comp.verts
    i = int(np.argmin(np.linalg.norm(mesh.vertices[verts], axis=1)))
    return mesh.boundary_point(0, i)


class TestVectorFields:
    def test_position_field(self):
        F = position_field()
        x = np.array([0.3, -1.2])
        y = np.array([0.7, 2.0])
        assert np.allclose(F(x, y), np.stack([x, y], axis=-1))
        J = F.jacobian(x, y)
        assert np.allclose(J, np.broadcast_to(np.eye(2), (2, 2, 2)))


class TestHolomorphicField:
    def test_unit_trace_is_rotation(self, annulus3):
        F = holomorphic_field(annulus3, (1.0,))
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        vals = F(np.cos(th), np.sin(th))
        tau = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        assert np.allclose(vals, tau, atol=1e-13)

    def test_trig_trace_on_unit_circle(self, annulus3):
        # f = 0.3 + cos th + 0.5 cos 2th + 0.2 sin th + 0.7 sin 2th
        F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        f = (0.3 + np.cos(th) + 0.5 * np.cos(2 * th)
             + 0.2 * np.sin(th) + 0.7 * np.sin(2 * th))
        tau = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        vals = F(np.cos(th), np.sin(th))
        assert np.allclose(vals, f[:, None] * tau, atol=1e-12)

    def test_jacobian_against_finite_differences(self, annulus3):
        F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.55, 0.95, size=100)
        th = rng.uniform(0.0, TWO_PI, size=100)
        x, y = rho * np.cos(th), rho * np.sin(th)
        J = F.jacobian(x, y)
        eps = 1e-6
        fd_x = (F(x + eps, y) - F(x - eps, y)) / (2 * eps)
        fd_y = (F(x, y + eps) - F(x, y - eps)) / (2 * eps)
        assert np.allclose(J[..., 0], fd_x, atol=1e-8)
        assert np.allclose(J[..., 1], fd_y, atol=1e-8)

    def test_conformal_cancellation(self, annulus3):
        # 2 DF(w, w) = div F |w|^2 pointwise for holomorphic F
        F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.55, 0.95, size=100)
        th = rng.uniform(0.0, TWO_PI, size=100)
        x, y = rho * np.cos(th), rho * np.sin(th)
        w = rng.normal(size=(100, 2))
        J = F.jacobian(x, y)
        quad = 2.0 * np.einsum("ni,nij,nj->n", w, J, w)
        div = J[..., 0, 0] + J[..., 1, 1]
        assert np.max(np.abs(quad - div * np.einsum("ni,ni->n", w, w))) < 1e-12

    def test_aliasing_guard(self, annulus3):
        d_bad = annulus3.components[0].n_edges // 4
        with pytest.raises(ValueError, match="degree too high"):
            holomorphic_field(annulus3, np.zeros(d_bad + 1))

    def test_requires_annulus(self):
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
        with pytest.raises(ValueError, match="annulus"):
            holomorphic_field(mesh, (1.0,))

    def test_constant_coefficient_must_be_real(self):
        from prescurv.diagnostics import HolomorphicField
        with pytest.raises(ValueError, match="real"):
            HolomorphicField(np.array([1j, 0.0]))


class TestRecoveredGradient:
    def test_exact_on_quadratics(self, annulus3):
        x, y = annulus3.dof_coords.T
        u = x**2 + 2.0 * y**2 - x * y
        dofs = np.concatenate([
            annulus3.vertex_dof[c.verts[:-1]] for c in annulus3.components])
        g = recovered_gradient(annulus3, u, dofs)
        expected = np.stack([2 * x - y, 4 * y - x], axis=-1)[dofs]
        assert np.max(np.abs(g - expected)) < 1e-9

    def test_cylinder_seam_wrap(self):
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=4))
        s, t = mesh.dof_coords.T
        u = np.sin(s) * (t + 0.3) ** 2
        dofs = np.concatenate([
            mesh.vertex_dof[c.verts[:-1]] for c in mesh.components])
        g = recovered_gradient(mesh, u, dofs)
        expected = np.stack([np.cos(s) * (t + 0.3) ** 2,
                             2 * np.sin(s) * (t + 0.3)], axis=-1)[dofs]
        assert np.max(np.abs(g - expected)) < 0.02

    def test_operator_built_once_per_mesh_and_dofs(self, monkeypatch):
        import prescurv.diagnostics as diagnostics
        calls = []
        build = diagnostics._recovery_matrix
        monkeypatch.setattr(diagnostics, "_recovery_matrix",
                            lambda mesh, dofs: calls.append(1) or build(mesh, dofs))
        spec = DomainSpec("annulus", r=0.5, level=2)
        mesh = build_mesh(spec)
        u = mesh.dof_coords[:, 0]
        first = recovered_gradient(mesh, u, np.arange(5))
        second = recovered_gradient(mesh, 2.0 * u, np.arange(5))
        assert len(calls) == 1
        assert np.array_equal(2.0 * first, second)
        recovered_gradient(mesh, u, np.arange(6))
        assert len(calls) == 2
        fresh = recovered_gradient(build_mesh(spec), u, np.arange(5))
        assert len(calls) == 3
        assert np.array_equal(first, fresh)

    @pytest.mark.parametrize("spec", [
        DomainSpec("annulus", r=0.5, level=4),
        DomainSpec("cylinder", L=1.0, level=4),
        DomainSpec("halfdisk", R=2.0, grade=2.0, level=3),
    ], ids=["annulus", "cylinder", "graded-halfdisk"])
    def test_matches_per_vertex_fits(self, spec):
        mesh = build_mesh(spec)
        x, y = mesh.dof_coords.T
        u = 30.0 * np.sin(3.0 * x) * np.cos(2.0 * y) + 5.0 * np.cos(x) * y
        for comp in mesh.components:
            dofs = mesh.vertex_dof[comp.verts[:-1] if comp.closed else comp.verts]
            expected = _per_vertex_fits(mesh, u, dofs)
            g = recovered_gradient(mesh, u, dofs)
            assert np.max(np.abs(g - expected)) < 1e-12 * np.abs(expected).max()


def _per_vertex_fits(mesh, u, dofs):
    """One least-squares quadratic per vertex over its two-ring patch,
    the reference the sparse recovery operator must reproduce."""
    adj = [set() for _ in range(mesh.n_dof)]
    for a, b, c in mesh.vertex_dof[mesh.triangles]:
        adj[a].update((b, c))
        adj[b].update((a, c))
        adj[c].update((a, b))
    coords = mesh.dof_coords
    out = np.empty((len(dofs), 2))
    for row, d in enumerate(dofs):
        patch = set(adj[d])
        for n in adj[d]:
            patch |= adj[n]
        patch.discard(d)
        idx = np.fromiter(patch, dtype=int)
        rel = coords[idx] - coords[d]
        if mesh.spec.kind == "cylinder":
            rel[:, 0] = (rel[:, 0] + math.pi) % TWO_PI - math.pi
        scale = np.abs(rel).max()
        rel /= scale
        A = np.column_stack([
            np.ones(len(idx)), rel[:, 0], rel[:, 1],
            rel[:, 0] ** 2, rel[:, 0] * rel[:, 1], rel[:, 1] ** 2,
        ])
        coef, *_ = np.linalg.lstsq(A, u[idx] - u[d], rcond=None)
        out[row] = coef[1:3] / scale
    return out


class TestPohozaev:
    def test_zero_field_zero_residual(self, annulus3):
        prob = annulus_gamma_problem(annulus3, 2, 2.0)
        u = annulus_gamma_state(annulus3, 2, 2.0)
        zero = VectorField(lambda x, y: np.zeros(x.shape + (2,)),
                           lambda x, y: np.zeros(x.shape + (2, 2)))
        assert pohozaev_report(prob, u, zero).residual == 0.0

    def test_flat_state_divergence_identity(self):
        # u = 0, K constant: the residual is pure quadrature mismatch
        # between arc-length boundary weights and polygonal areas, O(h^2)
        res = []
        for level in (3, 4):
            mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
            prob = annulus_gamma_problem(mesh, 2, 2.0)
            res.append(pohozaev_report(prob, np.zeros(mesh.n_dof), position_field()).residual)
        assert res[0] < 0.01
        assert res[0] / res[1] > 3.5

    def test_report_structure(self, annulus3):
        prob = annulus_gamma_problem(annulus3, 2, 2.0)
        u = annulus_gamma_state(annulus3, 2, 2.0)
        rep = pohozaev_report(prob, u, position_field())
        assert len(rep.boundary_terms) == 2
        assert np.isclose(rep.residual, abs(sum(rep.boundary_terms) - rep.interior_term))

    @pytest.mark.parametrize("family,levels", [("gamma", (2, 3, 4)),
                                               ("log", (3, 4, 5))])
    def test_position_field_second_order(self, family, levels):
        res = []
        for level in levels:
            mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
            if family == "gamma":
                prob = annulus_gamma_problem(mesh, 2, 2.0)
                u = annulus_gamma_state(mesh, 2, 2.0)
            else:
                prob = annulus_log_problem(mesh, -0.5)
                u = annulus_log_state(mesh, -0.5)
            res.append(abs(pohozaev_report(prob, u, position_field()).residual))
        orders = np.log2(np.array(res[:-1]) / res[1:])
        assert np.all(orders > 1.5)

    def test_holomorphic_zero_by_symmetry(self, annulus3):
        # cos th pairs with a rotation-symmetric state: both sides vanish
        prob = annulus_gamma_problem(annulus3, 2, 2.0)
        u = annulus_gamma_state(annulus3, 2, 2.0)
        F = holomorphic_field(annulus3, (0.0, 1.0))
        rep = pohozaev_report(prob, u, F)
        assert abs(sum(rep.boundary_terms)) < 1e-9
        assert abs(rep.interior_term) < 1e-9


class TestMassMeasures:
    def test_flat_state_uniform(self, annulus3):
        prob = Problem(annulus3, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=0.0))
        mm = mass_measures(prob, np.zeros(annulus3.n_dof))
        assert np.isclose(mm.interior_density.sum(), 1.0, atol=1e-12)
        assert np.isclose(mm.interior_total, prob.ops.w_int.sum())
        # negative inner boundary drops out of the normalized density
        assert mm.boundary_density[1].max() == 0.0
        per_len = mm.boundary_density[0] / annulus3.components[0].edge_lengths
        assert np.ptp(per_len) < 1e-13 * per_len.max()

    def test_densities_sum_to_one(self, annulus3):
        prob = Problem(annulus3, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=0.0))
        x, y = annulus3.dof_coords.T
        mm = mass_measures(prob, 0.3 * np.sin(3 * x) + 0.1 * y)
        assert np.isclose(mm.interior_density.sum(), 1.0, atol=1e-12)
        assert np.isclose(sum(d.sum() for d in mm.boundary_density), 1.0, atol=1e-12)

    def test_bubble_concentrates_at_anchor(self, halfdisk4):
        prob, _ = halfplane_problem(halfdisk4, bubble_profile(0.1))
        u = profile_state(halfdisk4, bubble_profile(0.1))
        mm = mass_measures(prob, u)
        cents = np.vstack([
            halfdisk4.vertices[tri].mean(axis=0) for tri in halfdisk4.triangles])
        near = np.linalg.norm(cents, axis=1) <= 1.0
        assert mm.interior_density[near].sum() > 0.95

    def test_zero_mass_rejected(self, annulus3):
        prob = Problem(annulus3, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=0.0))
        with pytest.raises(ValueError, match="zero mass"):
            mass_measures(prob, np.full(annulus3.n_dof, -1600.0))


class TestBoundaryProjectionTV:
    def test_log_family_boundary_match(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=4))
        prob = annulus_log_problem(mesh, -0.05)
        u = annulus_log_state(mesh, -0.05)
        assert boundary_projection_tv(prob, u) < 0.05

    def test_interior_peak_mismatch(self, annulus3):
        # interior mass hiding at one angle projects onto a short arc and
        # clashes with the uniform boundary density
        prob = Problem(annulus3, CurvatureSpec(K=-1.0, h=[2.0, 2.0], K_bg=0.0))
        x, y = annulus3.dof_coords.T
        u = 30.0 * np.exp(-60.0 * ((x - 0.75) ** 2 + y**2))
        assert boundary_projection_tv(prob, u) > 0.5


class TestBlowupMonitor:
    def test_empty_states_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            blowup_monitor([])

    def test_gamma_sweep(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=4))
        states, ops = [], None
        for g in (4, 8, 16):
            prob = annulus_gamma_problem(mesh, g, 2.0, ops=ops)
            ops = prob.ops
            states.append((prob, annulus_gamma_state(mesh, g, 2.0)))
        diag = blowup_monitor(states)
        assert diag.diverging and not diag.bounded_mass
        assert not diag.interior_breach
        assert len(diag.candidates) == 16
        assert all(c.component == 0 for c in diag.candidates)
        assert all(abs(c.D - 2.0) < 1e-9 for c in diag.candidates)
        assert not any(c.whole_component for c in diag.candidates)
        assert diag.d_geq_one and diag.d_tau_zero
        assert np.all(np.diff(diag.concentration) > 0)
        assert diag.concentration[-1] > 0.9
        assert diag.interior_vanishing

    def test_log_sweep_whole_component(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=4))
        states, ops = [], None
        for lam in (-0.5, -0.2, -0.05):
            prob = annulus_log_problem(mesh, lam, ops=ops)
            ops = prob.ops
            states.append((prob, annulus_log_state(mesh, lam)))
        diag = blowup_monitor(states)
        assert diag.diverging
        cand, = diag.candidates
        assert cand.component == 0 and cand.whole_component
        assert abs(cand.D - 1.0) < 1e-9
        assert diag.tv_projection < 0.05
        assert diag.d_geq_one and diag.interior_vanishing

    def test_bubble_mass_gap(self, halfdisk4):
        prob, _ = halfplane_problem(halfdisk4, bubble_profile(1.0))
        states = [(prob, profile_state(halfdisk4, bubble_profile(lam)))
                  for lam in (1.0, 0.3, 0.03)]
        diag = blowup_monitor(states, window=2.0)
        assert diag.diverging and diag.bounded_mass
        cand, = diag.candidates
        assert cand.component == 0
        assert abs(cand.D - math.sqrt(2.0)) < 1e-9
        assert abs(cand.mass_gap - TWO_PI) < 0.05 * TWO_PI
        assert diag.interior_vanishing and not diag.interior_breach

    def test_bounded_family_vacuous_flags(self, annulus3):
        prob = Problem(annulus3, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=0.0))
        x, _ = annulus3.dof_coords.T
        state = (prob, 0.1 * np.sin(x))
        diag = blowup_monitor([state, state, state])
        assert not diag.diverging
        assert diag.candidates == []
        assert diag.bounded_mass
        assert diag.d_geq_one and diag.d_tau_zero and diag.interior_vanishing

    def test_roundtrip_serialization(self, halfdisk4):
        import json
        prob, _ = halfplane_problem(halfdisk4, bubble_profile(1.0))
        states = [(prob, profile_state(halfdisk4, bubble_profile(lam)))
                  for lam in (1.0, 0.3)]
        diag = blowup_monitor(states, window=2.0)
        loaded = json.loads(json.dumps(diag.as_dict()))
        assert loaded["diverging"] is True
        assert len(loaded["candidates"]) == len(diag.candidates)
        assert loaded["candidates"][0]["mass_gap"] == diag.candidates[0].mass_gap


class TestTestFunctionCurve:
    def test_schedule_must_exceed_one(self, halfdisk4):
        prob = Problem(halfdisk4, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
        with pytest.raises(ValueError, match="mu q2 > 1"):
            energy_curve(prob, origin_anchor(halfdisk4),
                                      q2=0.1, mu_schedule=[9.0])

    def test_offset_must_be_positive(self, halfdisk4):
        prob = Problem(halfdisk4, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
        with pytest.raises(ValueError, match="positive"):
            energy_curve(prob, origin_anchor(halfdisk4), q2=0.0)

    def test_wall_guard_when_center_lands_inside(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.2, level=2))
        prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[1.0, 1.0], K_bg=0.0))
        pt = mesh.boundary_point(1, 0)
        with pytest.raises(ValueError, match="mu d"):
            energy_curve(prob, pt, q2=0.5, mu_schedule=[3.0])

    def test_halfdisk_curve(self, halfdisk4):
        prob = Problem(halfdisk4, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
        curve = energy_curve(prob, origin_anchor(halfdisk4), q2=0.1)
        assert curve.d_at_point == 2.0
        assert curve.min_d_component == 2.0
        assert np.all(np.diff(curve.delta) < 0)
        assert np.all(curve.dirichlet > 0)
        fitted = curve.extracted_slopes()
        assert fitted["dirichlet"] <= 8 * math.pi * 1.1
        assert fitted["boundary"] >= TWO_PI * curve.min_d_component * 0.9
        # deep rows drive the energy to large negative values
        assert np.all(np.diff(curve.energy[-4:]) < 0)
        assert curve.energy[-1] < 0
        rows = curve.rows()
        assert len(rows) == len(TEST_RATIOS)
        assert set(rows[0]) >= {"mu", "delta", "dirichlet_slope", "area_slope",
                                "boundary_slope", "energy"}

    def test_fit_needs_two_rows(self, halfdisk4):
        prob = Problem(halfdisk4, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
        curve = energy_curve(prob, origin_anchor(halfdisk4),
                                          q2=0.1, mu_schedule=[15.0])
        with pytest.raises(ValueError, match="two schedule rows"):
            curve.extracted_slopes()
