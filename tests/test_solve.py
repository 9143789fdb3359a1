import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import Problem
from prescurv.exact import annulus_gamma_problem, annulus_gamma_state
from prescurv.fields import CurvatureSpec, background_for, perturb
import prescurv.solve as solve
from prescurv.solve import (
    PathCollapseError,
    _constant_start,
    build_u1,
    continuation,
    minimize,
    mountain_pass,
    nested,
    newton_polish,
    relaxed_endpoints,
)
from prescurv.spectral import morse_index


def cylinder_problem(h, K_bg, level=3, L=1.0):
    mesh = build_mesh(DomainSpec("cylinder", L=L, level=level))
    return Problem(mesh, CurvatureSpec(K=-1.0, h=[h, h], K_bg=K_bg))


def saddle_problem(level=3, r=0.8):
    mesh = build_mesh(DomainSpec("annulus", r=r, level=level))
    K_bg, h_bg = background_for(mesh)
    spec = CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=K_bg, h_bg=h_bg)
    return Problem(mesh, spec)


def shooting_profile(K_bg, K0, h0, L):
    """Independent 1-d oracle: symmetric two-point Robin problem solved by
    midpoint shooting, u'' = 2 K_bg - 2 K0 e^u with u'(L) = 2 h0 e^{u(L)/2}."""

    def shoot(m):
        return solve_ivp(lambda t, y: [y[1], 2 * K_bg - 2 * K0 * np.exp(y[0])],
                         (L / 2, L), [m, 0.0], method="DOP853",
                         rtol=1e-12, atol=1e-14, dense_output=True)

    def defect(m):
        s = shoot(m)
        return s.y[1][-1] - 2 * h0 * np.exp(s.y[0][-1] / 2)

    sol = shoot(brentq(defect, -10.0, 4.0, xtol=1e-13))

    def u(t):
        t = np.asarray(t, dtype=float)
        return sol.sol(np.where(t < L / 2, L - t, t))[0]

    return u


class TestMinimize:
    def test_negative_background_regime_from_zero(self):
        prob = cylinder_problem(h=0.5, K_bg=-1.0)
        rep = minimize(prob, tol=1e-10)
        assert rep.converged
        assert rep.residual_norm < 1e-10
        assert abs(rep.gauss_bonnet) < 1e-9
        assert rep.morse_index == 0
        assert rep.method == "minimize"
        # Armijo phase decreases the energy monotonically
        es = [t["energy"] for t in rep.line_search_trace if t["mode"] == "armijo"]
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_matches_shooting_oracle(self):
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=3)
        rep = minimize(prob, tol=1e-10)
        oracle = shooting_profile(-1.0, -1.0, 0.5, 1.0)
        err = np.max(np.abs(rep.state - oracle(prob.mesh.dof_coords[:, 1])))
        assert err < 5e-3  # level-3 discretization error
        assert morse_index(prob, rep.state).negative_count == 0

    def test_zero_background_regime_negative_level(self):
        prob = cylinder_problem(h=0.5, K_bg=0.0)
        rep = minimize(prob, tol=1e-10)
        assert rep.converged
        assert rep.energy.total < 0
        assert morse_index(prob, rep.state).negative_count == 0

    def test_quadratic_convergence_from_exact_interpolant(self):
        # the power-family state is a saddle, so the residual-driven
        # polish finishes it
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=3))
        prob = annulus_gamma_problem(mesh, gamma=2, h1=2.0)
        init = annulus_gamma_state(mesh, gamma=2, h1=2.0)
        rep = newton_polish(prob, init, tol=1e-10)
        assert rep.converged
        assert rep.iterations <= 5
        assert rep.residual_norm < 1e-10

    def test_certificate_rejects_saddle_family(self):
        # the power-family state with outer ratio 2 is a critical point of
        # positive index, so the minimum certificate must refuse it
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=3))
        prob = annulus_gamma_problem(mesh, gamma=2, h1=2.0)
        init = annulus_gamma_state(mesh, gamma=2, h1=2.0)
        rep = minimize(prob, init=init, tol=1e-10)
        assert not rep.converged
        assert rep.residual_norm < 1e-10
        assert rep.morse_index >= 1
        assert "not a local minimum" in rep.message

    def test_floor_does_not_stall_relaxed_low_state(self):
        # the energy terms cancel to a small total, so a floor scaled by
        # the total alone rejected every full Newton step near the minimum
        prob = saddle_problem(level=4)
        c0 = _constant_start(prob, 0.05)
        rep = minimize(prob, eps=0.05, init=np.full(prob.n_dof, c0))
        assert rep.converged, rep.message
        assert rep.iterations <= 12
        assert rep.morse_index == 0

    def test_regularization_path(self):
        # at u = -10 the boundary term dominates, 1^T H 1 < 0, so the
        # plain Newton system is indefinite and the shift must engage
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=2)
        init = np.full(prob.n_dof, -10.0)
        one = np.ones(prob.n_dof)
        assert one @ (prob.hessian(init) @ one) < 0
        rep = minimize(prob, init=init, tol=1e-10)
        assert rep.converged, rep.message
        assert rep.morse_index == 0
        assert any(entry["sigma"] > 0 for entry in rep.line_search_trace)
        assert rep.line_search_trace[-1]["sigma"] == 0
        assert rep.iterations <= 6

    def test_iteration_limit_sets_message(self):
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=2)
        rep = minimize(prob, tol=1e-10, max_iter=1)
        assert not rep.converged
        assert "max_iter=1" in rep.message

    def test_uniqueness_for_nonpositive_boundary_data(self):
        prob = cylinder_problem(h=-0.5, K_bg=-1.0, level=2)
        rng = np.random.default_rng(7)
        states = []
        for _ in range(3):
            rep = minimize(prob, init=rng.uniform(-2, 2, prob.n_dof), tol=1e-12)
            assert rep.converged
            states.append(rep.state)
        for s in states[1:]:
            assert np.max(np.abs(s - states[0])) < 1e-8

    def test_blowup_flag_on_escape(self):
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=2)
        rep = minimize(prob, tol=1e-10, blowup_threshold=1.0)
        assert rep.blowup_flag
        assert not rep.converged

    def test_report_serialization(self):
        prob = cylinder_problem(h=-0.5, K_bg=-1.0, level=1)
        rep = minimize(prob, tol=1e-10)
        d = rep.as_dict()
        assert d["converged"] is True
        assert d["method"] == "minimize"
        assert "state" not in d


class TestNewtonPolish:
    def test_polish_recovers_saddle_from_nearby(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p, eps=0.05)
        rep = mountain_pass(prob, 0.05, low.state, u1, tol=1e-10)
        assert rep.converged
        rng = np.random.default_rng(1)
        jiggled = rep.state + 0.01 * rng.standard_normal(prob.n_dof)
        back = newton_polish(prob, jiggled, eps=0.05, tol=1e-10)
        assert back.converged
        assert back.residual_norm < 1e-10
        # constant boundary data makes the saddle a rotational orbit, so the
        # polished state may land on a rotated copy; compare orbit invariants
        assert abs(back.energy.total_eps - rep.energy.total_eps) < 1e-8
        assert abs(back.sup - rep.sup) < 1e-3
        assert morse_index(prob, back.state, eps=0.05).negative_count == 1

    def test_trace_keys_match_minimize(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=2))
        prob = annulus_gamma_problem(mesh, gamma=2, h1=2.0)
        init = annulus_gamma_state(mesh, gamma=2, h1=2.0) + 0.1
        polish = newton_polish(prob, init)
        descent = minimize(cylinder_problem(h=0.5, K_bg=-1.0, level=2))
        keys = {"iter", "residual", "energy", "step", "sigma", "backtracks", "mode",
                "linear", "krylov_its"}
        assert polish.line_search_trace and descent.line_search_trace
        for entry in polish.line_search_trace + descent.line_search_trace:
            assert set(entry) == keys
            assert entry["linear"] in ("minres", "lu")
        assert all(e["mode"] == "residual" and e["energy"] is None
                   for e in polish.line_search_trace)

    def test_reports_its_own_method(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=2))
        prob = annulus_gamma_problem(mesh, gamma=2, h1=2.0)
        rep = newton_polish(prob, annulus_gamma_state(mesh, gamma=2, h1=2.0))
        assert rep.method == "newton-polish"


class TestKrylovNewton:
    def test_nested_finish_factors_only_the_certificate(self, monkeypatch):
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=4)
        sizes = []
        real = solve.spla.splu

        def counted(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return real(A, *args, **kwargs)

        monkeypatch.setattr(solve.spla, "splu", counted)
        rep = nested(prob, prob.zero_state(), _descend, _descend)
        assert rep.converged and rep.levels[-1]["method"] == "finish"
        # the radial minimum's certificate is a Fourier-mode Sturm count
        assert sizes.count(prob.n_dof) == 0
        assert all(e["linear"] == "minres" for e in rep.line_search_trace)

    def test_iterations_do_not_grow_with_level(self):
        for level in (2, 3, 4):
            rep = minimize(cylinder_problem(h=0.5, K_bg=-1.0, level=level), tol=1e-10)
            assert rep.converged, rep.message
            its = [e["krylov_its"] for e in rep.line_search_trace]
            assert all(e["linear"] == "minres" for e in rep.line_search_trace)
            assert 0 < max(its) <= 10, (level, its)

    @staticmethod
    def _stalled(A, b, **kwargs):
        return np.zeros_like(b), solve.KRYLOV_MAXITER

    @staticmethod
    def _raising(A, b, **kwargs):
        raise ValueError("non-symmetric matrix")

    @staticmethod
    def _inaccurate(A, b, **kwargs):
        # a descent direction that SciPy reports as converged, but whose
        # linear residual is far above KRYLOV_ACCEPT
        return 1e-3 * b, 0

    @pytest.mark.parametrize("fake", ["_stalled", "_raising", "_inaccurate"])
    def test_failed_minres_falls_back_to_lu(self, monkeypatch, fake):
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=3)
        krylov = minimize(prob, tol=1e-10)
        monkeypatch.setattr(solve.spla, "minres", getattr(self, fake))
        lu = minimize(prob, tol=1e-10)
        assert krylov.converged and lu.converged
        assert all(e["linear"] == "lu" for e in lu.line_search_trace)
        assert lu.iterations == krylov.iterations
        assert np.max(np.abs(lu.state - krylov.state)) < 1e-10


class TestRelaxedEndpoints:
    def test_uncertified_low_state_raises(self, monkeypatch):
        prob = saddle_problem(level=2)
        real = solve.minimize

        def uncertified(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.converged = False
            rep.message = "stationary point is not a local minimum"
            return rep

        monkeypatch.setattr(solve, "minimize", uncertified)
        with pytest.raises(RuntimeError, match="not a local minimum"):
            relaxed_endpoints(prob, prob.mesh.boundary_point(0, 0), eps=0.05)

    @pytest.mark.parametrize("level", [2, 4])
    @pytest.mark.parametrize("kind,eps", [("annulus", 0.005), ("annulus", 0.05),
                                          ("annulus", 0.5), ("cylinder", 0.0)])
    def test_constant_start_minimizes_over_constants(self, kind, eps, level):
        prob = (saddle_problem(level=level) if kind == "annulus"
                else cylinder_problem(h=0.5, K_bg=-1.0, level=level))
        c = _constant_start(prob, eps)
        ones = np.ones(prob.n_dof)
        e = prob.energy(c * ones, eps).total_eps
        for dc in (-1e-4, 1e-4):
            assert prob.energy((c + dc) * ones, eps).total_eps > e

    def test_constant_start_needs_a_positive_root(self):
        # flat background: chi_gen = 0, and the boundary datum is negative,
        # so at eps = 0 the energy of constants decreases all the way down
        with pytest.raises(RuntimeError, match="no constant minimizes"):
            _constant_start(saddle_problem(level=2), 0.0)


class TestBuildU1:
    def test_negative_energy_on_saddle_data(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        u1 = build_u1(prob, p)
        e = prob.energy(u1)
        assert e.total < 0
        u0 = prob.zero_state() - 16.0
        delta = 0.5 * prob.ops.boundary_integral(np.exp(0.5 * u0))
        assert prob.ops.boundary_integral(np.exp(0.5 * u1)) > delta

    def test_exhausts_when_ratio_below_one(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.8, level=2))
        K_bg, h_bg = background_for(mesh)
        spec = CurvatureSpec(K=-1.0, h=[0.5, 0.5], K_bg=K_bg, h_bg=h_bg)
        prob = Problem(mesh, spec)
        with pytest.raises(RuntimeError, match="schedule exhausted"):
            build_u1(prob, mesh.boundary_point(0, 0))

    def test_exhausted_schedule_names_the_resolution(self):
        prob = saddle_problem(level=2)
        edge = prob.mesh.components[0].edge_lengths[0]
        with pytest.raises(RuntimeError, match="schedule exhausted") as exc:
            build_u1(prob, prob.mesh.boundary_point(0, 0))
        assert f"boundary edge {edge:.3g}" in str(exc.value)
        assert "q2=0.1" in str(exc.value)

    def test_concentrates_at_the_anchor(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        u1 = build_u1(prob, p)
        xy = prob.mesh.dof_coords
        d2 = np.sum((xy - p.coords) ** 2, axis=1)
        assert d2[np.argmax(u1)] < 0.05


class TestMountainPass:
    def test_finds_index_one_saddle(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p, eps=0.05)
        rep = mountain_pass(prob, 0.05, low.state, u1, tol=1e-8)
        assert rep.converged
        assert rep.residual_norm < 1e-6
        assert rep.method == "mountain-pass"
        assert morse_index(prob, rep.state, eps=0.05).negative_count == 1
        # the saddle level separates the endpoints
        assert rep.energy.total_eps > low.energy.total_eps
        assert rep.energy.total_eps > prob.energy(u1, 0.05).total_eps

    def test_path_state_consistency(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p, eps=0.05)
        rep = mountain_pass(prob, 0.05, low.state, u1, n_points=9, tol=1e-8)
        # the path is the energy along the sampled segment, endpoints included
        ts = np.linspace(0.0, 1.0, 9)[:, None]
        segment = (1.0 - ts) * low.state + ts * u1
        assert np.array_equal(rep.path, [prob.energy(v, 0.05).total_eps for v in segment])
        assert rep.path[0] == low.energy.total_eps

    def test_polishes_the_sampled_maximum(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p, eps=0.05)
        rep = mountain_pass(prob, 0.05, low.state, u1, tol=1e-8)
        ts = np.linspace(0.0, 1.0, 17)[:, None]
        segment = (1.0 - ts) * low.state + ts * u1
        maxima = [e for e in rep.line_search_trace if "sweep" in e]
        assert len(maxima) == 1
        k = maxima[0]["max_index"]
        assert k == 1 + int(np.argmax(rep.path[1:-1]))
        assert maxima[0]["level"] == rep.path[k]
        polish = newton_polish(prob, segment[k], eps=0.05, tol=1e-8)
        assert np.array_equal(rep.state, polish.state)
        assert rep.iterations == 1 + polish.iterations
        assert rep.line_search_trace[1:] == polish.line_search_trace

    def test_collapse_on_convex_landscape(self):
        # nonpositive boundary data: the energy is convex, every segment
        # has its maximum at an endpoint, so no pass exists
        prob = cylinder_problem(h=-0.5, K_bg=-1.0, level=2)
        rep = minimize(prob, tol=1e-10)
        bump = rep.state + 1.0
        with pytest.raises(PathCollapseError):
            mountain_pass(prob, 0.0, rep.state, bump, tol=1e-8)


def _descend(prob, u):
    return minimize(prob, init=u, tol=1e-10)


class TestNested:
    def test_minimizer_matches_direct_solve(self):
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=3)
        rep = nested(prob, prob.zero_state(), _descend, _descend)
        assert [(e["level"], e["method"]) for e in rep.levels] == [
            (0, "direct"), (1, "finish"), (2, "finish"), (3, "finish")]
        assert rep.converged and rep.morse_index == 0
        direct = minimize(prob, tol=1e-10)
        assert np.max(np.abs(rep.state - direct.state)) < 1e-8

    def test_saddle_matches_direct_solve(self):
        # q2 = 0.2 resolves the bubble from level 2, so level 3 is a finish
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        rep = continuation(prob, p, eps_schedule=(0.05,), q2=0.2)[0]
        assert [(e["level"], e["method"]) for e in rep.levels][-2:] == [
            (2, "direct"), (3, "finish")]
        low, u1 = relaxed_endpoints(prob, p, 0.05, q2=0.2)
        direct = mountain_pass(prob, 0.05, low.state, u1)
        # states are not compared: the saddle Hessian has an exact zero
        # mode along which the two Newton solves may end apart
        assert abs(rep.energy.total_eps - direct.energy.total_eps) < 1e-10
        assert abs(rep.sup - direct.sup) < 1e-5
        assert rep.morse_index == morse_index(prob, direct.state, eps=0.05).negative_count == 1

    def test_failed_coarse_levels_fall_back_to_direct(self):
        prob = saddle_problem(level=3)
        reports = continuation(prob, prob.mesh.boundary_point(0, 0),
                               eps_schedule=(0.05, 0.02))
        levels = reports[0].levels
        assert [(e["level"], e["method"]) for e in levels] == [
            (0, "direct"), (1, "direct"), (2, "direct"), (3, "direct")]
        assert all("schedule exhausted" in e["message"] for e in levels[:3])
        assert "message" not in levels[3] and levels[3]["morse_index"] == 1
        assert all(r.converged and r.morse_index == 1 for r in reports)
        assert [(e["level"], e["method"]) for e in reports[1].levels] == [(3, "finish")]

    def test_finish_with_another_index_falls_back(self):
        def finish(prob, u):
            rep = _descend(prob, u)
            rep.morse_index = 1
            return rep

        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=2)
        rep = nested(prob, prob.zero_state(), _descend, finish)
        assert [(e["level"], e["method"]) for e in rep.levels] == [
            (0, "direct"), (1, "finish"), (1, "direct"), (2, "finish"), (2, "direct")]
        assert "Morse index 1 differs from 0" in rep.levels[1]["message"]
        assert rep.converged and rep.morse_index == 0

    def test_mesh_scale_bubble_is_not_converged(self):
        # D = 2 cos(x) peaks at 2, where the energy is unbounded below:
        # the discrete minima are bubbles one element wide
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=3))
        prob = Problem(mesh, CurvatureSpec(K=-1.0, h=["2*cos(x)", 1.0], K_bg=-1.0))
        rep = nested(prob, prob.zero_state(), _descend, _descend)
        assert [(e["level"], e["method"]) for e in rep.levels] == [
            (0, "direct"), (1, "finish"), (2, "finish"), (3, "finish")]
        sups = [e["sup"] for e in rep.levels]
        assert min(np.diff(sups)) > 1.3
        assert not rep.converged
        assert "sup grows by 1.38 per level from level 2 to 3" in rep.message
        assert "D_max = 2" in rep.message
        assert rep.levels[-1]["message"] == rep.message

    def test_smooth_minimum_is_verified(self):
        rep = nested(cylinder_problem(h=0.5, K_bg=-1.0, level=2), None,
                     _descend, _descend)
        assert rep.converged and rep.message == ""
        single = nested(cylinder_problem(h=0.5, K_bg=-1.0, level=0), None,
                        _descend, _descend)
        assert single.converged
        assert single.message.startswith("unverified")

    def test_injects_the_initial_state(self):
        seen = []

        def record(prob, u):
            seen.append(u)
            return _descend(prob, u)

        prob = cylinder_problem(h=-0.5, K_bg=-1.0, level=2)
        init = np.random.default_rng(2).standard_normal(prob.n_dof)
        nested(prob, init, record, _descend)
        mesh = prob.mesh
        coarse = build_mesh(DomainSpec("cylinder", L=1.0, level=0))
        assert np.array_equal(seen[0][coarse.vertex_dof[coarse.grid]],
                              init[mesh.vertex_dof[mesh.grid[::4, ::4]]])


class TestContinuation:
    def test_tracks_saddle_branch(self):
        prob = saddle_problem(level=3)
        p = prob.mesh.boundary_point(0, 0)
        reports = continuation(prob, p, eps_schedule=(0.05, 0.02), tol=1e-8)
        assert len(reports) == 2
        assert all(r.converged for r in reports)
        assert [r.eps for r in reports] == [0.05, 0.02]
        assert reports[0].method == "mountain-pass"
        assert reports[1].method == "continuation"
        assert all(r.morse_index == 1 for r in reports)
        assert abs(reports[1].sup - reports[0].sup) < 1.0
        # each report carries the identity of the relaxed data it solved
        for rep in reports:
            relaxed = Problem(prob.mesh, perturb(prob.spec, rep.eps), ops=prob.ops)
            assert abs(rep.gauss_bonnet - relaxed.gauss_bonnet_residual(rep.state)) < 1e-12
            assert abs(rep.gauss_bonnet) < 1e-8
