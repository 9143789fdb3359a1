import math

import numpy as np
import pytest

from conftest import reference_stiffness
from prescurv.diagnostics import (
    HolomorphicField,
    _centroids,
    blowup_monitor,
    boundary_projection_tv,
    holomorphic_field,
    mass_measures,
    pohozaev_report,
    position_field,
    recovered_gradient,
)
from prescurv.diagnostics import testfunction_energy_curve as energy_curve
from prescurv.domain import DomainSpec, build_mesh, distance2, tangential_derivative
from prescurv.energy import Problem, exp_lumped
from prescurv.exact import (
    BUBBLE_RATIOS,
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


def annulus_points(seed, n=100):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.55, 0.95, size=n)
    th = rng.uniform(0.0, TWO_PI, size=n)
    return rho * np.exp(1j * th), rng


def laurent_sum(field, z):
    """F and F' at the points z, summed term by term from the field's
    Laurent coefficients."""
    lo, a = field.laurent()
    p = np.arange(lo, lo + len(a))
    z = np.asarray(z, dtype=complex)[..., None]
    return z**p @ a, z ** (p - 1) @ (p * a)


def explicit_field(coeffs, z):
    """F = i z G and F' = i (G + z G') with G = c0 + sum_k (c_k z^k +
    conj(c_k) z^-k), summed term by term."""
    G = np.full(z.shape, coeffs[0], dtype=complex)
    Gp = np.zeros(z.shape, dtype=complex)
    for k, c in enumerate(coeffs[1:], start=1):
        G += c * z**k + np.conj(c) * z ** (-k)
        Gp += k * (c * z ** (k - 1) - np.conj(c) * z ** (-k - 1))
    return 1j * z * G, 1j * (G + z * Gp)


def plane(field, z):
    """The field at z as a plane vector field (Re F, Im F)."""
    F = laurent_sum(field, z)[0]
    return np.stack([F.real, F.imag], axis=-1)


class TestVectorFields:
    def test_position_field(self):
        # the dilation is exact: its one Laurent term is z, so F = z and
        # F' = 1 with no rounding
        lo, a = position_field().laurent()
        assert lo == 1 and np.array_equal(a, [1.0])
        x = np.array([0.3, -1.2, 1e-300, -0.0])
        y = np.array([0.7, 2.0, -3.5, 1e300])
        F, dF = laurent_sum(position_field(), x + 1j * y)
        assert np.array_equal(F.real, x) and np.array_equal(F.imag, y)
        assert np.array_equal(dF, np.ones(4))


class TestHolomorphicField:
    def test_unit_trace_is_rotation(self, annulus3):
        F = holomorphic_field(annulus3, (1.0,))
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        vals = plane(F, np.exp(1j * th))
        tau = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        assert np.allclose(vals, tau, atol=1e-13)

    def test_trig_trace_on_unit_circle(self, annulus3):
        # f = 0.3 + cos th + 0.5 cos 2th + 0.2 sin th + 0.7 sin 2th
        F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        f = (0.3 + np.cos(th) + 0.5 * np.cos(2 * th)
             + 0.2 * np.sin(th) + 0.7 * np.sin(2 * th))
        tau = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        vals = plane(F, np.exp(1j * th))
        assert np.allclose(vals, f[:, None] * tau, atol=1e-12)

    def test_derivative_against_centred_differences(self, annulus3):
        # holomorphy: dF/dx = F' and dF/dy = i F'
        F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        z, _ = annulus_points(7)
        dF = laurent_sum(F, z)[1]
        eps = 1e-6
        fd_x = (laurent_sum(F, z + eps)[0] - laurent_sum(F, z - eps)[0]) / (2 * eps)
        fd_y = (laurent_sum(F, z + 1j * eps)[0] - laurent_sum(F, z - 1j * eps)[0]) / (2 * eps)
        assert np.allclose(dF, fd_x, atol=1e-8)
        assert np.allclose(1j * dF, fd_y, atol=1e-8)

    def test_conformal_cancellation(self, annulus3):
        # 2 DF(w, w) = div F |w|^2 pointwise for holomorphic F, with DF
        # taken by centred differences of the plane field itself
        F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        z, rng = annulus_points(11)
        w = rng.normal(size=(100, 2))
        eps = 1e-6
        J = np.stack([(plane(F, z + eps) - plane(F, z - eps)) / (2 * eps),
                      (plane(F, z + 1j * eps) - plane(F, z - 1j * eps)) / (2 * eps)], axis=-1)
        quad = 2.0 * np.einsum("ni,nij,nj->n", w, J, w)
        div = J[..., 0, 0] + J[..., 1, 1]
        assert np.max(np.abs(quad - div * np.einsum("ni,ni->n", w, w))) < 1e-7
        assert np.allclose(div, 2.0 * laurent_sum(F, z)[1].real, atol=1e-8)

    def test_complex_constant_coefficient(self):
        # c0 is complex in general: the term i c0 z rotates and dilates,
        # and c0 = -i is the position field
        c0 = 0.5 - 2.0j
        lo, a = HolomorphicField([c0]).laurent()
        assert lo == 1 and np.array_equal(a, [1j * c0])
        z, _ = annulus_points(3)
        F, dF = laurent_sum(HolomorphicField([c0]), z)
        assert np.allclose(F, 1j * c0 * z, rtol=1e-15, atol=0)
        assert np.array_equal(dF, np.full(len(z), 1j * c0))
        P = HolomorphicField([-1j]).laurent()
        assert all(np.array_equal(a, b) for a, b in zip(P, position_field().laurent()))

    @pytest.mark.parametrize("d", range(5))
    def test_values_match_explicit_laurent_sum(self, d):
        # the Laurent form's F and F' against i z G and i (G + z G'), with
        # complex coefficients throughout, c0 included
        rng = np.random.default_rng(d)
        c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        z, _ = annulus_points(13 + d)
        for got, want in zip(laurent_sum(HolomorphicField(c), z), explicit_field(c, z)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_aliasing_guard(self, annulus3):
        d_bad = annulus3.components[0].n_edges // 4
        with pytest.raises(ValueError, match="degree too high"):
            holomorphic_field(annulus3, np.zeros(d_bad + 1))

    def test_requires_annulus(self):
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
        with pytest.raises(ValueError, match="annulus"):
            holomorphic_field(mesh, (1.0,))


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


def one_report(prob, u, field):
    return pohozaev_report(prob, u, {"field": field})["field"]


class TestPohozaev:
    def test_zero_field_zero_residual(self, annulus3):
        prob = annulus_gamma_problem(annulus3, 2, 2.0)
        u = annulus_gamma_state(annulus3, 2, 2.0)
        assert one_report(prob, u, HolomorphicField([0])).residual == 0.0

    @pytest.mark.parametrize("field,K,K_bg", [
        (field, *data) for data in (("-1 - 0.1*x + 0.05*y", -0.5), (-1.0, 0.0))
        for field in ("position", "holomorphic", "degree-4")],
        ids=[f"{field}{tag}" for tag in ("", "-constant-K")
             for field in ("position", "holomorphic", "degree-4")])
    def test_interior_matches_general_field_integrand(self, annulus3, field, K, K_bg):
        # the integrand of a general plane field, with its Jacobian, the
        # Dirichlet terms 2 DF(w, w) - div F |w|^2 and e^u of the midpoint
        # mean; grad K != 0 and K_bg != 0 exercise every term, constant K
        # with K_bg = 0 the terms the report skips
        prob = Problem(annulus3, CurvatureSpec(K=K, h=[2.0, -3.0], K_bg=K_bg))
        x, y = annulus3.dof_coords.T
        u = 0.3 * np.sin(3 * x) + 0.1 * y + 0.2 * x * y
        if field == "position":
            F = position_field()
        elif field == "holomorphic":
            F = holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2, 0.7))
        else:  # sin coefficients and a complex c0; F' runs down to z^-4
            F = holomorphic_field(annulus3, (0.3, 1.0, 0.5, -0.4, 0.2), (0.2, 0.7, 0.1, -0.3))
            F.coeffs[0] = 0.3 + 0.4j
        tris = annulus3.vertex_dof[annulus3.triangles]
        pts = annulus3.vertices[annulus3.triangles]
        grads = reference_stiffness(annulus3)[1]
        w = np.einsum("ti,tik->tk", u[tris], grads)
        gK = np.einsum("ti,tik->tk", prob.K_dof[tris], grads)
        terms = np.zeros(len(tris))
        for a in range(3):
            b = (a + 1) % 3
            z = 0.5 * (pts[:, a] + pts[:, b]) @ np.array([1.0, 1j])
            Fz, dPhi = explicit_field(F.coeffs, z)
            Fv = np.stack([Fz.real, Fz.imag], axis=-1)
            J = np.stack([np.stack([dPhi.real, -dPhi.imag], axis=-1),
                          np.stack([dPhi.imag, dPhi.real], axis=-1)], axis=-2)
            div = J[:, 0, 0] + J[:, 1, 1]
            e_mid = exp_lumped(0.5 * (u[tris[:, a]] + u[tris[:, b]]))[0]
            K_mid = 0.5 * (prob.K_dof[tris[:, a]] + prob.K_dof[tris[:, b]])
            terms += (annulus3.tri_areas / 3.0) * (
                4.0 * prob.spec.K_bg * np.einsum("tk,tk->t", w, Fv)
                + 4.0 * e_mid * (np.einsum("tk,tk->t", gK, Fv) + K_mid * div)
                + 2.0 * np.einsum("ti,tij,tj->t", w, J, w)
                - div * np.einsum("tk,tk->t", w, w))
        interior = one_report(prob, u, F).interior_term
        assert abs(interior - terms.sum()) <= 1e-12 * np.abs(terms).sum()

    @pytest.mark.parametrize("kind,d", [*(("annulus", d) for d in range(5)), ("halfdisk", None)],
                             ids=[*(f"annulus-degree-{d}" for d in range(5)), "halfdisk-position"])
    def test_boundary_terms_match_per_vertex_sum(self, annulus3, kind, d):
        # each component's term is the trapezoid sum over its path of
        # 4K e^u (F.nu) + 2 (du/dnu)(grad u.F) - |grad u|^2 (F.nu), with F
        # summed term by term at every vertex: complex coefficients of
        # degree 0-4 on the annulus, c0 included, and the position field
        # on the half-disk's open paths
        if kind == "annulus":
            mesh = annulus3
            rng = np.random.default_rng(20 + d)
            field = HolomorphicField(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
        else:
            mesh = build_mesh(DomainSpec("halfdisk", R=2.0, level=3, grade=2.0))
            field = position_field()
        prob = Problem(mesh, CurvatureSpec(K="-1 - 0.1*x + 0.05*y", h=[2.0, -3.0], K_bg=-0.5))
        x, y = mesh.dof_coords.T
        u = 0.3 * np.sin(3 * x) + 0.1 * y + 0.2 * x * y
        got = one_report(prob, u, field).boundary_terms
        assert len(got) == len(mesh.components)
        for c, comp in enumerate(mesh.components):
            assert comp.closed == (kind == "annulus")
            dofs = mesh.vertex_dof[comp.verts]
            F = explicit_field(field.coeffs, mesh.vertices[comp.verts] @ np.array([1.0, 1j]))[0]
            Fv = np.stack([F.real, F.imag], axis=-1)
            dnu = np.einsum("ik,ik->i", recovered_gradient(mesh, u, dofs), comp.normals)
            grad = (tangential_derivative(mesh, c, u[dofs])[:, None] * comp.tangents
                    + dnu[:, None] * comp.normals)
            F_nu = np.einsum("ik,ik->i", Fv, comp.normals)
            f = ((4.0 * prob.K_dof[dofs] * np.exp(u[dofs]) - np.einsum("ik,ik->i", grad, grad))
                 * F_nu + 2.0 * dnu * np.einsum("ik,ik->i", grad, Fv))
            pieces = 0.5 * comp.edge_lengths * np.stack([f[:-1], f[1:]])
            assert abs(got[c] - pieces.sum()) <= 1e-12 * np.abs(pieces).sum()

    def test_flat_state_divergence_identity(self):
        # u = 0, K constant: the residual is pure quadrature mismatch
        # between arc-length boundary weights and polygonal areas, O(h^2)
        res = []
        for level in (3, 4):
            mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
            prob = annulus_gamma_problem(mesh, 2, 2.0)
            res.append(one_report(prob, np.zeros(mesh.n_dof), position_field()).residual)
        assert res[0] < 0.01
        assert res[0] / res[1] > 3.5

    def test_report_structure(self, annulus3):
        prob = annulus_gamma_problem(annulus3, 2, 2.0)
        u = annulus_gamma_state(annulus3, 2, 2.0)
        rep = one_report(prob, u, position_field())
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
            res.append(abs(one_report(prob, u, position_field()).residual))
        orders = np.log2(np.array(res[:-1]) / res[1:])
        assert np.all(orders > 1.5)

    # residuals of the gamma family at r = 0.5, h1 = 2, level 4: the
    # position field and the holomorphic field of cos theta
    GAMMA_L4 = {1: (0.0025696910300876397, 0.00045414819323105423),
                2: (0.09428759820017163, None),
                3: (0.949826957441747, None),
                4: (3.9001250423783524, None)}

    @pytest.mark.parametrize("gamma", [1, 2, 3, 4])
    def test_gamma_family_residuals_pinned(self, gamma):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=4))
        prob = annulus_gamma_problem(mesh, gamma, 2.0)
        u = annulus_gamma_state(mesh, gamma, 2.0)
        position, holomorphic = self.GAMMA_L4[gamma]
        assert one_report(prob, u, position_field()).residual == pytest.approx(
            position, rel=1e-12)
        res = one_report(prob, u, holomorphic_field(mesh, (0.0, 1.0))).residual
        if holomorphic is None:  # both sides vanish by symmetry
            assert res < 1e-12
        else:
            assert res == pytest.approx(holomorphic, rel=1e-12)

    @pytest.mark.parametrize("spec", [DomainSpec("annulus", r=0.5, level=3),
                                      DomainSpec("halfdisk", R=10.0, level=3, grade=2.0)],
                             ids=["annulus", "halfdisk"])
    def test_one_recovery_over_all_components(self, spec, monkeypatch):
        # one recovery operator serves every component's path, and each row
        # is the one a recovery along that path alone gives, bit for bit
        import prescurv.diagnostics as diagnostics
        built, build = [], diagnostics._recovery_matrix
        monkeypatch.setattr(diagnostics, "_recovery_matrix",
                            lambda mesh, dofs: built.append(build(mesh, dofs)) or built[-1])
        mesh = build_mesh(spec)
        prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[1.0, 0.5], K_bg=0.0))
        x, y = mesh.dof_coords.T
        u = 0.3 * np.sin(3 * x) + 0.1 * y
        one_report(prob, u, position_field())
        assert len(built) == 1
        fresh = build_mesh(spec)
        alone = [recovered_gradient(fresh, u, fresh.vertex_dof[c.verts]) for c in fresh.components]
        assert np.array_equal((built[0] @ u).reshape(-1, 2), np.vstack(alone))
        if spec.kind == "annulus":  # a closed path ends where it starts
            assert all(np.array_equal(g[-1], g[0]) for g in alone)

    def test_holomorphic_zero_by_symmetry(self, annulus3):
        # cos th pairs with a rotation-symmetric state: both sides vanish
        prob = annulus_gamma_problem(annulus3, 2, 2.0)
        u = annulus_gamma_state(annulus3, 2, 2.0)
        F = holomorphic_field(annulus3, (0.0, 1.0))
        rep = one_report(prob, u, F)
        assert abs(sum(rep.boundary_terms)) < 1e-9
        assert abs(rep.interior_term) < 1e-9

    def test_fields_share_one_state_pass(self, annulus3, monkeypatch):
        # the state's gradients and boundary recovery are computed once for
        # all fields, and each field's report is the one it gets alone; the
        # gamma family (K_bg = 0, constant K) forms no P1 gradient at all
        import prescurv.diagnostics as diagnostics
        fields = {"position": position_field(),
                  "holomorphic": holomorphic_field(annulus3, (0.3, 1.0, 0.5), (0.2,))}
        cases = [(annulus_gamma_problem(annulus3, 3, 2.0),
                  annulus_gamma_state(annulus3, 3, 2.0), []),
                 (Problem(annulus3, CurvatureSpec(K="-1 - 0.1*x", h=[2.0, -3.0], K_bg=-0.5)),
                  0.3 * np.sin(3 * annulus3.dof_coords[:, 0]), ["_p1_gradients"])]
        calls = []
        for name in ("_p1_gradients", "recovered_gradient", "tangential_derivative"):
            real = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name, lambda *a, _f=real, _n=name: (
                calls.append(_n), _f(*a))[1])
        for prob, u, gradients in cases:
            alone = {name: one_report(prob, u, F) for name, F in fields.items()}
            calls.clear()
            together = pohozaev_report(prob, u, fields)
            assert sorted(calls) == [*gradients, "recovered_gradient",
                                     "tangential_derivative", "tangential_derivative"]
            assert together == alone

    def test_gamma_report_work(self, annulus3, monkeypatch):
        # powers of z are taken once per boundary path and once per
        # quadrature slot, for every field at once, and no field is
        # evaluated at any point; no P1 gradient is formed (K_bg = 0, K
        # constant), and every boundary patch has six or more points, so
        # the recovery makes no QR call
        import prescurv.diagnostics as diagnostics
        prob = annulus_gamma_problem(annulus3, 3, 2.0)
        u = annulus_gamma_state(annulus3, 3, 2.0)
        points, powers = [], diagnostics._powers
        monkeypatch.setattr(diagnostics, "_powers",
                            lambda z, q: (points.append(z), powers(z, q))[1])

        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(diagnostics, "_p1_gradients", forbidden)
        monkeypatch.setattr(np.linalg, "qr", forbidden)
        pohozaev_report(prob, u, {"position": position_field(),
                                  "holomorphic": holomorphic_field(annulus3, (0.0, 1.0))})
        paths = [annulus3.vertices[c.verts].view(complex).ravel() for c in annulus3.components]
        z, tri = annulus3.vertices.view(complex).ravel(), annulus3.triangles
        mids = [0.5 * (z[tri[:, s]] + z[tri[:, t]]) for s, t in ((0, 1), (1, 2), (2, 0))]
        assert len(points) == len(paths) + len(mids)
        assert all(np.array_equal(a, b) for a, b in zip(points, paths + mids))


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

    def test_gathers_match_row_gathers(self, annulus3):
        # per-coordinate and nodal gathers replace the (T, 3, ...) row
        # gathers bit for bit; u reaches past the exp clamp at one dof
        prob = Problem(annulus3, CurvatureSpec(K="-1.0 - 0.1*x", h=[2.0, -3.0], K_bg=0.0))
        x, y = annulus3.dof_coords.T
        u = 0.3 * np.sin(3 * x) + 0.1 * y
        u[5] = 800.0
        tris = annulus3.vertex_dof[annulus3.triangles]
        old = (annulus3.tri_areas / 3.0) * (
            (-prob.K_dof[tris]) * exp_lumped(u[tris])[0]).sum(axis=1)
        assert np.array_equal(mass_measures(prob, u).interior_masses, old)
        assert np.array_equal(_centroids(annulus3),
                              annulus3.vertices[annulus3.triangles].mean(axis=1))

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

    @pytest.fixture(scope="class")
    def seam_bumps(self):
        """The same boundary bump family on the cylinder, centred at whole
        grid steps k of the bottom circle: k = 0 is the seam vertex."""
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=3))
        prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[1.5, 0.5], K_bg=-1.0))
        comp = mesh.components[0]

        def diag(k):
            bump = np.exp(-distance2(mesh, mesh.vertices[comp.verts[k]]) / 0.005)
            return blowup_monitor([(prob, a * bump) for a in (0.5, 3.0, 8.0)])
        return comp.n_edges, diag

    @pytest.mark.parametrize("step", [0, 1, 2, 3, -2])
    def test_masses_do_not_see_the_seam(self, seam_bumps, step):
        # a shift by whole grid steps maps the mesh onto itself; the
        # interior mass near a seam-centred bump read 2.596 for 4.176
        n, diag = seam_bumps
        far, got = diag(n // 2), diag(step % n)
        (want, ), (cand, ) = far.candidates, got.candidates
        for field in ("local_interior_mass", "local_boundary_mass"):
            assert getattr(cand, field) == pytest.approx(getattr(want, field), rel=1e-12)
        assert got.concentration == pytest.approx(far.concentration, rel=1e-12)
        assert got.tv_projection == pytest.approx(far.tv_projection, rel=1e-12)

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
        assert len(rows) == len(BUBBLE_RATIOS)
        assert set(rows[0]) >= {"mu", "delta", "dirichlet_slope", "area_slope",
                                "boundary_slope", "energy"}

    def test_fit_needs_two_rows(self, halfdisk4):
        prob = Problem(halfdisk4, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
        curve = energy_curve(prob, origin_anchor(halfdisk4),
                                          q2=0.1, mu_schedule=[15.0])
        with pytest.raises(ValueError, match="two schedule rows"):
            curve.extracted_slopes()
