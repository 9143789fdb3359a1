import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conftest import forge_saddle_index

import prescurv.energy as energy
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


def saddle_problem(level=3, r=0.8, eps=0.0):
    mesh = build_mesh(DomainSpec("annulus", r=r, level=level))
    K_bg, h_bg = background_for(mesh)
    spec = CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=K_bg, h_bg=h_bg)
    return Problem(mesh, spec, eps=eps)


def first_vertex(prob):
    """Anchor at boundary vertex 0 of the outer circle, s = 0 on every level."""
    return prob.mesh.boundary_point(0, 0)


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
        saddle = newton_polish(prob, init, tol=1e-10)
        assert saddle.converged
        # at the polished saddle the residual is below tol, so no step is taken
        rep = minimize(prob, init=saddle.state, tol=1e-10)
        assert rep.iterations == 0 and not rep.line_search_trace
        assert not rep.converged
        assert rep.residual_norm < 1e-10
        assert rep.morse_index >= 1
        assert "not a local minimum" in rep.message
        # from the interpolant, off the saddle by the discretization error,
        # Newton-CG descends away from it to a downward escape
        away = minimize(prob, init=init, tol=1e-10)
        assert not away.converged and away.message == "state escaped downward"
        assert away.energy.total < saddle.energy.total

    def test_floor_does_not_stall_relaxed_low_state(self):
        # the energy terms cancel to a small total, so a floor scaled by
        # the total alone rejected every full Newton step near the minimum
        prob = saddle_problem(level=4, eps=0.05)
        c0 = _constant_start(prob)
        rep = minimize(prob, init=np.full(prob.n_dof, c0))
        assert rep.converged, rep.message
        assert rep.iterations <= 12
        assert rep.morse_index == 0

    def test_regularization_path(self):
        # at u = -10 the boundary term dominates, 1^T H 1 < 0, so the
        # Newton system is indefinite: CG meets nonpositive curvature at its
        # first direction and steps along -B^{-1} g until the Hessian is
        # positive definite on the Krylov space, then solves; the path is
        # pinned step by step
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=2)
        init = np.full(prob.n_dof, -10.0)
        one = np.ones(prob.n_dof)
        assert one @ (prob.hessian(init) @ one) < 0
        rep = minimize(prob, init=init, tol=1e-10)
        assert rep.converged, rep.message
        assert rep.morse_index == 0
        assert rep.iterations == 9
        trace = rep.line_search_trace
        assert [e["linear"] for e in trace] == ["curvature"] * 5 + ["cg"] * 4
        assert all(e["krylov_its"] == 1 and e["step"] == 1.0 for e in trace)
        es = [e["energy"] for e in trace]
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_minres_serves_a_near_singular_hessian(self):
        # near sup -40, e^u vanishes and H is close to the singular S;
        # B-preconditioned CG and MINRES, stopped on their true dual
        # residuals, still reach FORCING_MIN there
        probs = []
        for level in (0, 1):
            mesh = build_mesh(DomainSpec("annulus", r=0.305, level=level))
            K_bg, h_bg = background_for(mesh)
            probs.append(Problem(mesh, CurvatureSpec(
                K=-0.501, h=["0.254 + -0.957*cos(x)", "1.603*sin(y)"],
                K_bg=K_bg, h_bg=h_bg)))
        coarse = minimize(probs[0], tol=1e-8)
        assert coarse.converged and coarse.morse_index == 0
        assert coarse.iterations == 21
        assert all(e["linear"] == "cg" for e in coarse.line_search_trace)
        polish = newton_polish(probs[0], probs[0].zero_state(), tol=1e-8)
        assert polish.converged and polish.iterations == 21
        assert all(e["linear"] == "minres" for e in polish.line_search_trace)
        # they agree up to the near-null constant mode
        assert np.ptp(polish.state - coarse.state) < 1e-6

        def descend(prob, u):
            return minimize(prob, init=u, tol=1e-8)

        rep = nested(probs[1], None, descend, descend)
        assert rep.converged and rep.morse_index == 0
        # the Hessian barely sees a constant shift there (eigenvalue ~e^-40),
        # so the sup where the residual meets tol follows the steps taken
        assert rep.sup == pytest.approx(-40.39, abs=0.01)

    def test_curvature_cut_serves_an_indefinite_start(self):
        # the annulus minimize of CLI fuzz config 71 at its level 0: the
        # Hessian at u = 0 has a negative eigenvalue, and CG meets
        # nonpositive curvature at its first direction, so the first step
        # is -B^{-1} g; CG solves every later one
        mesh = build_mesh(DomainSpec("annulus", r=0.8, level=0))
        prob = Problem(mesh, CurvatureSpec(
            K="-(0.674) + 0.008*cos(x)", h=["-0.49 + 0.38*sin(y)", "0.79 + -0.05*cos(x)"],
            K_bg=-1.0))
        assert np.linalg.eigvalsh(prob.hessian(prob.zero_state()).toarray())[0] < 0
        rep = minimize(prob, tol=1e-8)
        assert rep.converged and rep.morse_index == 0
        first, *rest = rep.line_search_trace
        assert first["linear"] == "curvature" and first["krylov_its"] == 1
        assert rest and all(e["linear"] == "cg" for e in rest)

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
    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_polish_target_floor(self, level):
        # at L5 the gamma = 4 polish reaches 1.1e-10, just above tol, where
        # the forcing term's eta * res ~ 1e-16 lies below what rounding lets
        # MINRES reach; the target's floor at tol / 10 lets it finish
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        prob = annulus_gamma_problem(mesh, gamma=4, h1=2.0)
        rep = newton_polish(prob, annulus_gamma_state(mesh, gamma=4, h1=2.0), tol=1e-10)
        assert rep.converged, rep.message
        assert rep.residual_norm < 1e-10
        assert rep.iterations <= 6

    def test_polish_converges_to_the_gamma_2_closed_form(self):
        # sup |u_h - I u| falls by 3.8-4.0 per level, second order, and
        # the polished state keeps the index of the closed form
        errors = []
        for level in (2, 3, 4, 5):
            mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
            prob = annulus_gamma_problem(mesh, gamma=2, h1=2.0)
            exact = annulus_gamma_state(mesh, gamma=2, h1=2.0)
            rep = newton_polish(prob, exact, tol=1e-10)
            assert rep.converged, rep.message
            assert morse_index(prob, rep.state).negative_count == 3
            errors.append(np.abs(rep.state - exact).max())
        assert all(3.5 <= a / b <= 4.5 for a, b in zip(errors, errors[1:])), errors

    def test_polish_recovers_saddle_from_nearby(self):
        prob = saddle_problem(level=3, eps=0.05)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p)
        rep = mountain_pass(prob, low.state, u1, tol=1e-10)
        assert rep.converged
        rng = np.random.default_rng(1)
        jiggled = rep.state + 0.01 * rng.standard_normal(prob.n_dof)
        back = newton_polish(prob, jiggled, tol=1e-10)
        assert back.converged
        assert back.residual_norm < 1e-10
        # constant boundary data makes the saddle a rotational orbit, so the
        # polished state may land on a rotated copy; compare orbit invariants
        assert abs(back.energy.total_eps - rep.energy.total_eps) < 1e-8
        assert abs(back.sup - rep.sup) < 1e-3
        assert morse_index(prob, back.state).negative_count == 1

    def test_trace_keys_match_minimize(self):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=2))
        prob = annulus_gamma_problem(mesh, gamma=2, h1=2.0)
        init = annulus_gamma_state(mesh, gamma=2, h1=2.0) + 0.1
        polish = newton_polish(prob, init)
        descent = minimize(cylinder_problem(h=0.5, K_bg=-1.0, level=2))
        keys = {"iter", "residual", "energy", "step", "backtracks", "mode",
                "linear", "krylov_its"}
        assert polish.line_search_trace and descent.line_search_trace
        for entry in polish.line_search_trace + descent.line_search_trace:
            assert set(entry) == keys
        assert all(e["linear"] == "minres" for e in polish.line_search_trace)
        assert all(e["linear"] in ("cg", "curvature") for e in descent.line_search_trace)
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
        real = energy._ldlt

        def counted(ab, *args):
            sizes.append(ab.shape[1])
            return real(ab, *args)

        monkeypatch.setattr(energy, "_ldlt", counted)
        rep = nested(prob, prob.zero_state(), _descend, _descend)
        assert rep.converged and rep.levels[-1]["method"] == "finish"
        # the radial minimum's certificate is a Fourier-mode Sturm count
        assert sizes.count(prob.n_dof) == 0
        assert all(e["linear"] == "cg" for e in rep.line_search_trace)

    def test_iterations_do_not_grow_with_level(self, monkeypatch):
        for level in (2, 3, 4):
            prob = cylinder_problem(h=0.5, K_bg=-1.0, level=level)
            # on radial states the Hessian's own symbol is its exact inverse
            radial = minimize(prob, tol=1e-10)
            assert radial.converged, radial.message
            assert all(e["linear"] == "cg" and e["krylov_its"] == 1
                       for e in radial.line_search_trace), (level, radial.line_search_trace)
            # with that path off B preconditions every step, to the same iterates
            with monkeypatch.context() as m:
                m.setattr(energy.Operators, "preconditioner", lambda ops, scale, d: ops.solve_B)
                rep = minimize(prob, tol=1e-10)
            assert rep.converged, rep.message
            its = [e["krylov_its"] for e in rep.line_search_trace]
            assert all(e["linear"] == "cg" for e in rep.line_search_trace)
            assert 1 < max(its) <= 10, (level, its)
            assert rep.iterations == radial.iterations
            assert np.max(np.abs(rep.state - radial.state)) < 1e-12

    def test_preconditioner_follows_rotation_invariance(self):
        prob = saddle_problem(level=3, eps=0.05)
        low, u1 = relaxed_endpoints(prob, prob.mesh.boundary_point(0, 0))
        # the low endpoint descends from a constant: radial throughout
        assert all(e["krylov_its"] == 1 for e in low.line_search_trace)
        rep = mountain_pass(prob, low.state, u1, tol=1e-8)
        assert rep.converged
        # the saddle concentrates at a boundary point, so B preconditions it
        steps = [e for e in rep.line_search_trace if "linear" in e]
        assert steps and all(e["linear"] == "minres" and e["krylov_its"] > 1 for e in steps)

    # failures of MINRES, each given to the real kernel
    # (solve._minres before the fakes patch it)
    _minres = staticmethod(solve._minres)

    @staticmethod
    def _stalled(A, b, M, norm, target, maxiter=solve.KRYLOV_MAXITER):
        # a target of 0 is never met: the iteration cap ends it
        return TestKrylovNewton._minres(A, b, M, norm, 0.0, maxiter=2)

    @staticmethod
    def _raising(A, b, M, norm, target, maxiter=solve.KRYLOV_MAXITER):
        # an indefinite preconditioner: a negative inner product at the start
        return TestKrylovNewton._minres(A, b, lambda r: -M(r), norm, target, maxiter)

    @staticmethod
    def _inaccurate(A, b, M, norm, target, maxiter=solve.KRYLOV_MAXITER):
        # the recurrence estimate meets the target, the true residual never
        return TestKrylovNewton._minres(A, b, M, lambda r: math.inf, target, maxiter=5)

    @pytest.mark.parametrize("fake", ["_stalled", "_raising", "_inaccurate"])
    def test_failed_minres_falls_back_to_lu(self, monkeypatch, fake):
        # a polish whose MINRES gives up fails its step, and nested falls
        # back to its direct solve, here a descent, which runs CG alone
        prob = cylinder_problem(h=0.5, K_bg=-1.0, level=3)
        ref = minimize(prob, tol=1e-10)
        monkeypatch.setattr(solve, "_minres", getattr(self, fake))
        rep = nested(prob, None, _descend,
                     lambda p, u: newton_polish(p, u, tol=1e-10))
        assert ref.converged and rep.converged, rep.message
        assert [e["method"] for e in rep.levels] == ["direct"] + ["finish", "direct"] * 3
        finishes = [e for e in rep.levels if e["method"] == "finish"]
        assert all(e["message"].startswith("MINRES gave up") for e in finishes)
        assert rep.iterations == ref.iterations
        assert np.max(np.abs(rep.state - ref.state)) < 1e-10


class TestMinres:
    """solve._minres against SciPy's minres, kept here as a reference."""

    @staticmethod
    def system(seed, n=400):
        """A sparse symmetric indefinite matrix, an SPD (Jacobi-like)
        preconditioner, the norm sqrt(r^T M r) and a right-hand side."""
        rng = np.random.default_rng(seed)
        R = sp.random(n, n, density=6.0 / n, random_state=rng)
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 4.0, n)
        A = (0.3 * (R + R.T) + sp.diags(diag)).tocsr()
        scale = rng.uniform(0.5, 2.0, n) / np.abs(diag)

        def M(r):
            return scale * r

        def norm(r):
            return math.sqrt(r @ M(r))

        return A, M, norm, rng.standard_normal(n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rel", [1e-2, 1e-6])
    def test_stops_at_the_first_iterate_meeting_the_target(self, seed, rel):
        A, M, norm, b = self.system(seed)
        assert np.linalg.eigvalsh(A.toarray())[0] < 0
        target = rel * norm(b)
        met = []
        spla.minres(A, b, rtol=1e-15, maxiter=2000,
                    M=spla.LinearOperator(A.shape, matvec=M, dtype=float),
                    callback=lambda x: met.append(norm(b - A @ x) <= target))
        assert any(met)
        first = met.index(True) + 1
        x, its = solve._minres(A, b, M, norm, target, maxiter=2000)
        assert x is not None
        assert norm(b - A @ x) <= target
        assert abs(its - first) <= 1, (its, first)

    def test_zero_right_hand_side(self):
        A, M, norm, b = self.system(0)
        x, its = solve._minres(A, 0.0 * b, M, norm, 0.0)
        assert its == 0 and not x.any()

    def test_failures_report_no_direction(self):
        A, M, norm, b = self.system(0)
        target = 1e-6 * norm(b)
        # the iteration cap
        assert solve._minres(A, b, M, norm, target, maxiter=3) == (None, 3)
        # a negative preconditioner inner product, at the first or a later step
        assert solve._minres(A, b, lambda r: -M(r), norm, target) == (None, 0)
        sign = np.where(np.arange(len(b)) < len(b) // 2, 1.0, -1.0)
        b[len(b) // 2:] *= 0.1  # positive at the first step, b^T M b > 0
        x, its = solve._minres(A, b, lambda r: sign * M(r), norm, target)
        assert x is None and 0 < its < 20
        # values that are not finite
        assert solve._minres(A, b, lambda r: np.full_like(r, np.nan), norm, target) == (None, 0)
        A_nan = A.copy()
        A_nan.data[0] = np.nan
        assert solve._minres(A_nan, b, M, norm, target) == (None, 1)


class TestCG:
    """solve._cg against SciPy's cg, kept here as a reference."""

    @staticmethod
    def spd_system(seed, n=400):
        """TestMinres.system with its diagonal made positive and dominant."""
        A, M, norm, b = TestMinres.system(seed, n)
        A = A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0)
        return A.tocsr(), M, norm, b

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rel", [1e-2, 1e-6])
    def test_matches_scipy_on_spd_systems(self, seed, rel):
        A, M, norm, b = self.spd_system(seed)
        target = rel * norm(b)
        iterates = []
        spla.cg(A, b, rtol=1e-15, maxiter=2000,
                M=spla.LinearOperator(A.shape, matvec=M, dtype=float),
                callback=lambda x: iterates.append(x.copy()))
        met = [norm(b - A @ x) <= target for x in iterates]
        assert any(met)
        first = met.index(True)
        x, its, solved = solve._cg(A, b, M, norm, target, maxiter=2000)
        assert solved and norm(b - A @ x) <= target
        # the recurrence estimate stops it within an iteration of SciPy's
        # first iterate that meets the target, along the same iterates
        assert abs(its - (first + 1)) <= 1, (its, first)
        ref = iterates[its - 1]
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stops_at_nonpositive_curvature(self, seed):
        A, M, norm, b = TestMinres.system(seed)
        x, its, solved = solve._cg(A, b, M, norm, 1e-6 * norm(b))
        assert not solved and its < solve.KRYLOV_MAXITER
        # with b = -g, every iterate before the cut descends: g^T x < 0
        assert b @ x > 0
        # the iterate before the cut is the unmodified CG iterate
        ref = []
        spla.cg(A, b, rtol=1e-15, maxiter=its - 1,
                M=spla.LinearOperator(A.shape, matvec=M, dtype=float),
                callback=lambda xk: ref.append(xk.copy()))
        if its > 1:
            assert np.linalg.norm(x - ref[-1]) <= 1e-10 * np.linalg.norm(x)

    def test_first_iteration_cut_returns_M_b(self):
        A, M, norm, b = TestMinres.system(0)
        neg = -(A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0)).tocsr()
        x, its, solved = solve._cg(neg, b, M, norm, 1e-6 * norm(b))
        assert (its, solved) == (1, False)
        assert np.array_equal(x, M(b))

    def test_solved_only_on_the_true_residual(self):
        # the recurrence estimate meets the target, the true residual never
        A, M, norm, b = self.spd_system(0)
        x, its, solved = solve._cg(A, b, M, lambda r: math.inf, 1e-2 * norm(b), maxiter=20)
        assert (its, solved) == (20, False)
        assert norm(b - A @ x) <= 1e-2 * norm(b)

    def test_iteration_cap_returns_the_last_iterate(self):
        A, M, norm, b = self.spd_system(0)
        x, its, solved = solve._cg(A, b, M, norm, 0.0, maxiter=3)
        assert (its, solved) == (3, False)
        ref = []
        spla.cg(A, b, rtol=1e-15, maxiter=3,
                M=spla.LinearOperator(A.shape, matvec=M, dtype=float),
                callback=lambda xk: ref.append(xk.copy()))
        assert np.linalg.norm(x - ref[-1]) <= 1e-12 * np.linalg.norm(x)


class TestRelaxedEndpoints:
    def test_uncertified_low_state_raises(self, monkeypatch):
        prob = saddle_problem(level=2, eps=0.05)
        real = solve.minimize

        def uncertified(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.converged = False
            rep.message = "stationary point is not a local minimum"
            return rep

        monkeypatch.setattr(solve, "minimize", uncertified)
        with pytest.raises(RuntimeError, match="not a local minimum"):
            relaxed_endpoints(prob, prob.mesh.boundary_point(0, 0))

    @pytest.mark.parametrize("level", [2, 4])
    @pytest.mark.parametrize("kind,eps", [("annulus", 0.005), ("annulus", 0.05),
                                          ("annulus", 0.5), ("cylinder", 0.0)])
    def test_constant_start_minimizes_over_constants(self, kind, eps, level):
        prob = (saddle_problem(level=level, eps=eps) if kind == "annulus"
                else cylinder_problem(h=0.5, K_bg=-1.0, level=level))
        c = _constant_start(prob)
        ones = np.ones(prob.n_dof)
        e = prob.energy(c * ones).total_eps
        for dc in (-1e-4, 1e-4):
            assert prob.energy((c + dc) * ones).total_eps > e

    def test_constant_start_needs_a_positive_root(self):
        # flat background: chi_gen = 0, and the boundary datum is negative,
        # so at eps = 0 the energy of constants decreases all the way down
        with pytest.raises(RuntimeError, match="no constant minimizes"):
            _constant_start(saddle_problem(level=2))

    def test_constant_start_message_signs_each_coefficient(self):
        # K_bg = 1 and h < 0: every coefficient of E'(c) is positive; each
        # is printed once, with its own sign
        prob = cylinder_problem(h=-0.5, K_bg=1.0, level=1)
        with pytest.raises(RuntimeError) as exc:
            _constant_start(prob)
        assert "E'(c) = 12.5664 x^2 +12.5664 x +12.5664, x = e^(c/2)" in str(exc.value)
        with pytest.raises(RuntimeError) as exc:
            _constant_start(saddle_problem(level=2))
        assert "- -" not in str(exc.value) and "+-" not in str(exc.value)


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
        prob = saddle_problem(level=3, eps=0.05)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p)
        rep = mountain_pass(prob, low.state, u1, tol=1e-8)
        assert rep.converged
        assert rep.residual_norm < 1e-6
        assert rep.method == "mountain-pass" and rep.eps == 0.05
        assert morse_index(prob, rep.state).negative_count == 1
        # the saddle level separates the endpoints
        assert rep.energy.total_eps > low.energy.total_eps
        assert rep.energy.total_eps > prob.energy(u1).total_eps

    def test_path_state_consistency(self):
        prob = saddle_problem(level=3, eps=0.05)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p)
        rep = mountain_pass(prob, low.state, u1, n_points=9, tol=1e-8)
        # the path is the energy along the sampled segment, endpoints included
        ts = np.linspace(0.0, 1.0, 9)[:, None]
        segment = (1.0 - ts) * low.state + ts * u1
        assert np.array_equal(rep.path, [prob.energy(v).total_eps for v in segment])
        assert rep.path[0] == low.energy.total_eps

    def test_polishes_the_sampled_maximum(self):
        prob = saddle_problem(level=3, eps=0.05)
        p = prob.mesh.boundary_point(0, 0)
        low, u1 = relaxed_endpoints(prob, p)
        rep = mountain_pass(prob, low.state, u1, tol=1e-8)
        ts = np.linspace(0.0, 1.0, 17)[:, None]
        segment = (1.0 - ts) * low.state + ts * u1
        maxima = [e for e in rep.line_search_trace if "sweep" in e]
        assert len(maxima) == 1
        k = maxima[0]["max_index"]
        assert k == 1 + int(np.argmax(rep.path[1:-1]))
        assert maxima[0]["level"] == rep.path[k]
        polish = newton_polish(prob, segment[k], tol=1e-8)
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
            mountain_pass(prob, rep.state, bump, tol=1e-8)


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
        rep = continuation(prob, first_vertex, eps_schedule=(0.05,), q2=0.2)[0]
        assert [(e["level"], e["method"]) for e in rep.levels][-2:] == [
            (2, "direct"), (3, "finish")]
        relaxed = saddle_problem(level=3, eps=0.05)
        low, u1 = relaxed_endpoints(relaxed, first_vertex(relaxed), q2=0.2)
        direct = mountain_pass(relaxed, low.state, u1)
        # states are not compared: the saddle Hessian has an exact zero
        # mode along which the two Newton solves may end apart
        assert abs(rep.energy.total_eps - direct.energy.total_eps) < 1e-10
        assert abs(rep.sup - direct.sup) < 1e-5
        assert rep.morse_index == morse_index(relaxed, direct.state).negative_count == 1

    def test_failed_coarse_levels_fall_back_to_direct(self):
        prob = saddle_problem(level=3)
        reports = continuation(prob, first_vertex, eps_schedule=(0.05, 0.02))
        levels = reports[0].levels
        assert [(e["level"], e["method"]) for e in levels] == [
            (0, "direct"), (1, "direct"), (2, "direct"), (3, "direct")]
        assert all("schedule exhausted" in e["message"] for e in levels[:3])
        assert "message" not in levels[3] and levels[3]["morse_index"] == 1
        assert all(r.converged and r.morse_index == 1 for r in reports)
        assert [(e["level"], e["method"]) for e in reports[1].levels] == [(3, "finish")]

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
    def test_saddle_of_another_index_is_not_converged(self, monkeypatch):
        forge_saddle_index(monkeypatch)
        rep, = continuation(saddle_problem(level=3), first_vertex, eps_schedule=(0.05,))
        assert not rep.converged and rep.morse_index == 2
        assert rep.message == "Morse index 2, not 1"
        assert [(e["level"], e["method"]) for e in rep.levels][-1] == (3, "direct")
        assert rep.levels[-1]["message"] == rep.message

    def test_later_weight_is_index_checked(self, monkeypatch):
        # the warm started polish at 0.02 converges with index 2: it fails,
        # the nested re-solve runs and fails the same way
        forge_saddle_index(monkeypatch, eps=0.02)
        first, later = continuation(saddle_problem(level=3), first_vertex,
                                    eps_schedule=(0.05, 0.02))
        assert first.converged and first.morse_index == 1
        assert not later.converged and later.message == "Morse index 2, not 1"
        assert [(e["level"], e["method"]) for e in later.levels] == [
            (3, "finish"), (0, "direct"), (1, "direct"), (2, "direct"), (3, "direct")]
        assert later.levels[0]["message"] == later.message == later.levels[-1]["message"]

    def test_weights_share_one_assembly_per_level(self, monkeypatch):
        # every weight's problem at prob's level reads prob's operators;
        # the coarse levels of the first weight's nested solve assemble
        # once each, and the later weight's polish adds none
        levels, made, real = [], [], energy.assemble
        monkeypatch.setattr(energy, "assemble",
                            lambda mesh: levels.append(mesh.spec.level) or real(mesh))

        class Recorded(Problem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(solve, "Problem", Recorded)
        prob = saddle_problem(level=3)
        reports = continuation(prob, first_vertex, eps_schedule=(0.05, 0.02))
        assert [(r.eps, r.converged) for r in reports] == [(0.05, True), (0.02, True)]
        relaxed = [p for p in made if p.mesh is prob.mesh]
        assert [p.eps for p in relaxed] == [0.05, 0.02]
        assert all(p.ops is prob.ops for p in relaxed)
        assert sorted(levels) == [0, 1, 2, 3]

    def test_tracks_saddle_branch(self):
        prob = saddle_problem(level=3)
        reports = continuation(prob, first_vertex, eps_schedule=(0.05, 0.02), tol=1e-8)
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
