import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import reference_stiffness, reference_symbol
import prescurv.energy as energy
from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import (
    CIRCULANT_RTOL,
    EnergyBreakdown,
    Operators,
    Problem,
    assemble,
)
from prescurv.fields import CurvatureSpec

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def cyl():
    return build_mesh(DomainSpec("cylinder", L=1.0, level=1))


@pytest.fixture(scope="module")
def cyl_small():
    return build_mesh(DomainSpec("cylinder", L=1.0, level=0))


@pytest.fixture(scope="module")
def ann():
    return build_mesh(DomainSpec("annulus", r=0.5, level=1))


def fd_order(f, t0=2e-2, n=4):
    """Least-squares slope of log(err) vs log(t) for halving steps."""
    ts = t0 * 0.5 ** np.arange(n)
    errs = np.array([f(t) for t in ts])
    assert errs.min() > 0
    return np.polyfit(np.log(ts), np.log(errs), 1)[0]


def test_assemble_basics(cyl, ann):
    for mesh in (cyl, ann):
        ops = assemble(mesh)
        const = np.ones(mesh.n_dof)
        assert np.abs(ops.S @ const).max() < 1e-12
        assert ops.w_int.sum() == pytest.approx(mesh.tri_areas.sum(), rel=1e-12)
        sym = ops.S - ops.S.T
        assert abs(sym).max() < 1e-13
    ops = assemble(ann)
    # unit outer circle and r=0.5 inner circle, analytic lengths
    assert ops.wb[0].sum() == pytest.approx(2 * math.pi, rel=1e-12)
    assert ops.wb[1].sum() == pytest.approx(math.pi, rel=1e-12)


def test_stiffness_exact_on_linear_fields(cyl_small):
    # int |grad u|^2 of u = a x + b y is (a^2 + b^2) * area, exactly
    ops = assemble(cyl_small)
    xy = cyl_small.dof_coords
    # x is the periodic coordinate: use y only for the global linear field
    u = 0.75 * xy[:, 1]
    val = u @ (ops.S @ u)
    assert val == pytest.approx(0.75**2 * cyl_small.tri_areas.sum(), rel=1e-12)


def test_energy_constant_states(cyl):
    spec0 = CurvatureSpec(K=-1.0, h=[0.0, 0.0])
    prob = Problem(cyl, spec0)
    bd = prob.energy(prob.zero_state())
    assert bd.total == pytest.approx(2 * cyl.tri_areas.sum(), rel=1e-12)
    assert bd.total == pytest.approx(4 * math.pi, rel=1e-12)

    spec1 = CurvatureSpec(K=-1.0, h=[1.0, 1.0])
    prob1 = Problem(cyl, spec1)
    bd1 = prob1.energy(prob1.zero_state())
    assert bd1.total == pytest.approx(-12 * math.pi, rel=1e-12)
    assert bd1.total == pytest.approx(
        bd1.dirichlet + bd1.linear + bd1.area - bd1.boundary, rel=1e-12
    )
    assert bd1.area > 0


def test_energy_constant_subspace_minimum(cyl):
    # I(c) = 4 pi e^c - 16 pi e^{c/2} has its minimum -16 pi at e^{c/2} = 2
    prob = Problem(cyl, CurvatureSpec(K=-1.0, h=[1.0, 1.0]))

    def I(c):
        return prob.energy(np.full(prob.n_dof, c)).total

    res = minimize_scalar(I, bounds=(-5, 5), method="bounded")
    assert res.x == pytest.approx(2 * math.log(2), abs=1e-6)
    assert I(res.x) == pytest.approx(-16 * math.pi, rel=1e-9)


def random_problem(mesh, k):
    specs = [
        CurvatureSpec(K="-1 - 0.3*sin(x)", h=["0.4 + 0.2*cos(x)", "-0.7"],
                      K_bg=-0.5, h_bg=(0.1, -0.2)),
        CurvatureSpec(K=-2.0, h=[1.5, 0.5], K_bg=0.0),
        CurvatureSpec(K="-exp(0.1*y)", h=[0.0, "0.5*sin(x)"], K_bg=1.0, h_bg=(0.3, 0.0)),
    ]
    return Problem(mesh, specs[k % len(specs)])


@pytest.mark.parametrize("k", range(3))
def test_gradient_fd_order(cyl_small, k):
    prob = random_problem(cyl_small, k)
    u = RNG.normal(0, 0.5, prob.n_dof)
    psi = RNG.normal(0, 1.0, prob.n_dof)
    g = prob.gradient(u)
    pairing = g @ psi

    def err(t):
        d = (prob.energy(u + t * psi).total - prob.energy(u - t * psi).total) / (2 * t)
        return abs(d - pairing)

    assert fd_order(err) >= 1.9


@pytest.mark.parametrize("k", range(3))
def test_hessian_fd_order(cyl_small, k):
    prob = random_problem(cyl_small, k)
    u = RNG.normal(0, 0.5, prob.n_dof)
    psi = RNG.normal(0, 1.0, prob.n_dof)
    quad = psi @ (prob.hessian(u) @ psi)

    def err(t):
        Ip = prob.energy(u + t * psi).total
        Im = prob.energy(u - t * psi).total
        I0 = prob.energy(u).total
        return abs((Ip - 2 * I0 + Im) / t**2 - quad)

    assert fd_order(err) >= 1.9


def test_gradient_epsilon_fd(cyl_small):
    base = random_problem(cyl_small, 0)
    prob = Problem(cyl_small, base.spec, base.ops, eps=0.3)
    u = RNG.normal(0, 0.5, prob.n_dof)
    psi = RNG.normal(0, 1.0, prob.n_dof)
    pairing = prob.gradient(u) @ psi

    def err(t):
        d = (prob.energy(u + t * psi).total_eps
             - prob.energy(u - t * psi).total_eps) / (2 * t)
        return abs(d - pairing)

    assert fd_order(err) >= 1.9


def test_pairing_with_one_is_total_curvature(cyl, ann):
    for mesh in (cyl, ann):
        prob = random_problem(mesh, 0)
        u = RNG.normal(0, 0.8, prob.n_dof)
        g1 = prob.gradient(u) @ np.ones(prob.n_dof)
        assert g1 == pytest.approx(-2 * prob.gauss_bonnet_residual(u), rel=1e-12)


def test_gauss_bonnet_noncritical_value(cyl):
    prob = Problem(cyl, CurvatureSpec(K=-1.0, h=[0.0, 0.0]))
    assert prob.gauss_bonnet_residual(prob.zero_state()) == pytest.approx(
        -2 * math.pi, rel=1e-12
    )


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_translation_identity_exact(c):
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=0))
    prob = random_problem(mesh, 0)
    u = np.sin(mesh.dof_coords[:, 0]) * mesh.dof_coords[:, 1]
    bd = prob.energy(u)
    lhs = prob.energy(u + c).total - bd.total
    rhs = (2 * c * prob.chi_gen
           + (math.exp(c) - 1) * bd.area
           - (math.exp(c / 2) - 1) * bd.boundary)
    scale = max(abs(bd.total), 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-12 * scale, rel=1e-12)


def test_convexity_when_h_nonpositive(ann):
    spec = CurvatureSpec(K="-1 - 0.5*x*x", h=[-1.0, "-0.2 - 0.1*cos(s)"], K_bg=0.0)
    prob = Problem(ann, spec)
    for _ in range(5):
        u = RNG.normal(0, 1.0, prob.n_dof)
        Q = prob.hessian(u).toarray()
        lam = np.linalg.eigvalsh(Q)[0]
        assert lam >= -1e-10


def test_hessian_form_constant_vector_value(cyl):
    prob = random_problem(cyl, 1)
    u = RNG.normal(0, 0.5, prob.n_dof)
    one = np.ones(prob.n_dof)
    val = one @ (prob.hessian(u) @ one)
    bd = prob.energy(u)
    # Q(1) = 2 int |K| e^u - bd h e^{u/2} = area - boundary/4 in breakdown terms
    assert val == pytest.approx(bd.area - bd.boundary / 4, rel=1e-12)


def test_relaxed_problem_is_I_plus_eps_J(ann):
    # the penalty J(u) = int |grad u|^2 + int e^u - int u, its gradient
    # 2 S u + w (e^u - 1) and Hessian 2 S + diag(w e^u), written out here
    spec = CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=0.0, h_bg=(1.0, -2.0))
    prob = Problem(ann, spec)
    S, w = prob.ops.S, prob.ops.w_int
    u = RNG.normal(0, 0.6, prob.n_dof)
    eu = np.exp(u)
    for eps in (0.05, 0.5):
        relaxed = Problem(ann, spec, prob.ops, eps=eps)
        assert relaxed.spec is spec and relaxed.eps == eps
        e, e0 = relaxed.energy(u), prob.energy(u)
        J = u @ (S @ u) + w @ (eu - u)
        assert e.j_total == pytest.approx(J, rel=1e-13)
        assert e.total_eps == pytest.approx(e0.total + eps * J, rel=1e-12)
        assert e.total == pytest.approx(e0.total, rel=1e-12)
        g_ref = prob.gradient(u) + eps * (2.0 * (S @ u) + w * (eu - 1.0))
        g_eps = relaxed.gradient(u)
        assert np.abs(g_eps - g_ref).max() < 1e-12 * max(np.abs(g_ref).max(), 1.0)
        H_ref = prob.hessian(u) + eps * (2.0 * S + sp.diags(w * eu))
        H_eps = relaxed.hessian(u)
        diff = (H_eps - H_ref).tocoo()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-12 * abs(H_ref).max()


def test_relaxed_gauss_bonnet_closed_form(ann):
    # the defect of the relaxed data, (GB_0 - eps/2 int (e^u - 1)) / (1 + 2 eps),
    # written from the unrelaxed defect GB_0
    spec = CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=0.0, h_bg=(1.0, -2.0))
    prob = Problem(ann, spec)
    u = np.random.default_rng(11).normal(0, 0.6, prob.n_dof)
    gb0 = prob.gauss_bonnet_residual(u)
    assert Problem(ann, spec, prob.ops, eps=0.0).gauss_bonnet_residual(u) == gb0
    for eps in (0.02, 0.05, 0.5):
        relaxed = Problem(ann, spec, prob.ops, eps=eps)
        closed = (gb0 - 0.5 * eps * float(prob.ops.w_int @ (np.exp(u) - 1.0))) / (1 + 2 * eps)
        assert abs(relaxed.gauss_bonnet_residual(u) - closed) < 1e-12
        # and the defect is the gradient paired with psi = 1
        g1 = relaxed.gradient(u) @ np.ones(prob.n_dof)
        assert g1 == pytest.approx(-2 * (1 + 2 * eps) * closed, rel=1e-11)


def test_blowup_flag_and_clamp(cyl):
    prob = Problem(cyl, CurvatureSpec(K=-1.0, h=[1.0, 1.0]))
    u = prob.zero_state()
    u[0] = 900.0
    bd = prob.energy(u)
    assert bd.blowup_flag
    assert np.isfinite(bd.total)
    assert np.isfinite(prob.gradient(u)).all()
    assert not prob.energy(prob.zero_state()).blowup_flag


def test_breakdown_json_keys(cyl):
    prob = Problem(cyl, CurvatureSpec(K=-1.0, h=[0.5, 0.5]), eps=0.1)
    d = json.loads(json.dumps(dataclasses.asdict(prob.energy(prob.zero_state() + 0.3))))
    for key in ("dirichlet", "linear", "area", "boundary", "total",
                "chi_gen", "blowup_flag", "eps", "j_total", "total_eps"):
        assert key in d
    assert d["eps"] == 0.1
    assert d["total_eps"] == pytest.approx(d["total"] + 0.1 * d["j_total"])
    # the terms are the relaxed problem's
    assert d["total_eps"] == pytest.approx(
        d["dirichlet"] + d["linear"] + d["area"] - d["boundary"], rel=1e-14)


def test_chi_gen_matches_geometry(ann):
    spec = CurvatureSpec(K=-1.0, h=[0.0, 0.0], K_bg=0.0, h_bg=(1.0, -2.0))
    prob = Problem(ann, spec)
    # outer +1 * 2 pi plus inner -2 * pi: zero, the flat annulus background
    assert prob.chi_gen == pytest.approx(0.0, abs=1e-12)
    spec2 = CurvatureSpec(K=-1.0, h=[0.0, 0.0], K_bg=-1.0)
    cylm = build_mesh(DomainSpec("cylinder", L=1.0, level=1))
    assert Problem(cylm, spec2).chi_gen == pytest.approx(-2 * math.pi, rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_operators_assembled_on_first_read_match_shared_ones(ann, eps):
    # a Problem without shared operators assembles them when first read,
    # and every value it derives from them is that of an eager build
    spec = CurvatureSpec(K="-1 - 0.3*sin(x)", h=["0.4 + 0.2*cos(x)", "-0.7"],
                         K_bg=-0.5, h_bg=(0.1, -0.2))
    lazy, eager = Problem(ann, spec, eps=eps), Problem(ann, spec, assemble(ann), eps=eps)
    assert "ops" not in vars(lazy)
    u = np.random.default_rng(5).normal(0, 0.6, ann.n_dof)
    assert lazy.chi_gen == eager.chi_gen
    assert np.array_equal(lazy.gradient(u), eager.gradient(u))
    assert lazy.energy(u) == eager.energy(u)
    assert lazy.interior_mass(u) == eager.interior_mass(u)
    assert lazy.ops is lazy.ops


def test_dual_norm_is_Binv_quadratic(cyl_small):
    ops = assemble(cyl_small)
    r = RNG.normal(0, 1, ops.n_dof)
    direct = math.sqrt(r @ spla.spsolve(ops.plus_diagonal(1.0, ops.w_int).tocsc(), r))
    assert ops.dual_norm(r) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("kind", ["cylinder", "halfdisk"])
def test_dual_norm_overflow_is_silent(kind):
    # a residual of a trial state far outside the basin: its pairing
    # r^T B^{-1} r overflows, which is inf, not a warning on stderr
    ops = assemble(build_mesh(DomainSpec(kind, L=1.0, R=2.0, level=1)))
    r = np.full(ops.n_dof, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ops.dual_norm(r) == math.inf
        r[0] = math.inf
        assert not math.isfinite(ops.dual_norm(r))


class TestSolveB:
    """B^{-1} by rfft and one LAPACK solve over the stacked Fourier mode
    blocks on periodic grids, by the band L D L^T of ``Operators.factor``
    elsewhere; SuperLU stays as a reference."""

    @staticmethod
    def counted_band(monkeypatch):
        """Sizes of the band factorizations made."""
        sizes, real = [], energy._ldlt

        def counted(ab, *args):
            sizes.append(ab.shape[1])
            return real(ab, *args)

        monkeypatch.setattr(energy, "_ldlt", counted)
        return sizes

    @staticmethod
    def residual(ops, seed):
        r = np.random.default_rng(seed).standard_normal(ops.n_dof)
        B = ops.plus_diagonal(1.0, ops.w_int)
        return np.linalg.norm(B @ ops.solve_B(r) - r) / np.linalg.norm(r)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["cylinder", "annulus"])
    def test_fourier_solve_matches_superlu(self, monkeypatch, kind, level):
        ops = assemble(build_mesh(DomainSpec(kind, L=1.0, r=0.8, level=level)))
        B = ops.plus_diagonal(1.0, ops.w_int)
        lu = spla.splu(B.tocsc())
        sizes = self.counted_band(monkeypatch)
        rng = np.random.default_rng(level)
        for _ in range(3):
            r = rng.standard_normal(ops.n_dof)
            x = ops.solve_B(r)
            assert np.linalg.norm(B @ x - r) <= 1e-12 * np.linalg.norm(r)
            assert ops.dual_norm(r) == pytest.approx(math.sqrt(r @ lu.solve(r)), rel=1e-9)
        assert sizes == []

    def test_halfdisk_factors_B_once(self, monkeypatch):
        # the centre is the border, outside the band
        ops = assemble(build_mesh(DomainSpec("halfdisk", level=2)))
        sizes = self.counted_band(monkeypatch)
        for seed in (1, 2):
            assert self.residual(ops, seed) <= 1e-11
        assert sizes == [ops.n_dof - 1]

    @pytest.mark.parametrize("far", [False, True])
    def test_non_circulant_B_factors(self, monkeypatch, far):
        # S with one diagonal entry off its circulant symbol by 1e-9, or
        # a symmetric coupling of dofs more than one grid step apart
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
        ops, n = assemble(mesh), mesh.n_dof
        rows, cols = ([0, n // 2], [n // 2, 0]) if far else ([5], [5])
        bump = sp.csr_matrix((np.full(len(rows), 1e-9), (rows, cols)), shape=(n, n))
        S = (ops.S + bump).tocsr()
        sym = reference_symbol(S, mesh)
        assert (sym is None) == far
        ops = Operators(mesh, S, ops.w_int, ops.wb, S_symbol=sym)
        sizes = self.counted_band(monkeypatch)
        assert self.residual(ops, 3) <= 1e-11
        assert sizes == [n]

    def test_indefinite_mode_block_factors(self, monkeypatch):
        # S - diag(w_int) is circulant, but the constants make its mode-0
        # block indefinite, so zpttrf stops on a nonpositive pivot and the
        # band L D L^T restarts past it
        mesh = build_mesh(DomainSpec("annulus", r=0.8, level=2))
        ops = assemble(mesh)
        ops = Operators(mesh, ops.S, -ops.w_int, ops.wb, S_symbol=ops.S_symbol)
        assert ops.symbol(1.0, ops.w_int) is not None
        sizes = self.counted_band(monkeypatch)
        assert self.residual(ops, 4) <= 1e-10
        assert sizes == [mesh.n_dof]

    @pytest.mark.parametrize("kind,c", [("halfdisk", None), ("annulus", 0.5)])
    def test_factor_holds_one_band(self, monkeypatch, kind, c):
        # the traced peak of a factorization stays within a quarter band
        # above what was in use: B on the half-disk (definite), and on the
        # annulus S - c diag(w_int), whose constants make one pivot
        # negative, so that the band L D L^T restarts past it
        ops = assemble(build_mesh(DomainSpec(kind, r=0.8, level=4)))
        d = ops.w_int if c is None else -c * ops.w_int
        ops.factor(1.0, d)  # builds the band map, which stays cached
        bands, real = [], energy._ldlt

        def counted(ab, *args):
            bands.append(ab.nbytes)
            return real(ab, *args)

        monkeypatch.setattr(energy, "_ldlt", counted)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            negatives = ops.factor(1.0, d).negatives
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert negatives == (0 if c is None else 1)
        assert peak < 1.25 * bands[0]

    @pytest.mark.parametrize("numbering", ["rolled", "random"])
    def test_other_numbering_is_rejected(self, numbering):
        # the same cylinder with dof j * n + i renumbered j * n + (i + 1) % n,
        # which keeps every coupling one grid step long, or permuted at
        # random: the grid assembly reads dof j * n + i off the grid
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
        j, i = np.divmod(np.arange(mesh.n_dof), 64)
        perm = (j * 64 + (i + 1) % 64 if numbering == "rolled"
                else np.random.default_rng(5).permutation(mesh.n_dof))
        mesh = dataclasses.replace(mesh, vertex_dof=perm[mesh.vertex_dof])
        with pytest.raises(ValueError, match="numbered"):
            assemble(mesh)

    def test_off_symbol_geometry_factors(self, monkeypatch):
        # one interior vertex of the cylinder moved by 1e-6: S leaves its
        # ring means by far more than CIRCULANT_RTOL, so B is factored
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
        vertices = mesh.vertices.copy()
        vertices[mesh.grid[5, 3]] += 1e-6
        mesh = dataclasses.replace(mesh, vertices=vertices)
        ops = assemble(mesh)
        assert ops.S_symbol.departure > 1e-9 * ops.S_symbol.norm
        sizes = self.counted_band(monkeypatch)
        assert self.residual(ops, 7) <= 1e-11
        assert sizes == [mesh.n_dof]


class TestAssembly:
    """Grid stiffness against the per-triangle reference."""

    @staticmethod
    def check_reference(mesh):
        ops = assemble(mesh)
        S_ref = reference_stiffness(mesh)[0]
        assert abs(ops.S - S_ref).max() <= 1e-14 * abs(S_ref).max()
        assert ops.S.nnz == S_ref.nnz
        assert (ops.S != ops.S.T).nnz == 0
        assert ops.S.has_canonical_format
        w_ref = np.bincount(mesh.vertex_dof[mesh.triangles].ravel(),
                            np.repeat(mesh.tri_areas / 3.0, 3), mesh.n_dof)
        assert np.abs(ops.w_int - w_ref).max() <= 1e-14 * w_ref.max()

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("spec", [
        DomainSpec("cylinder", L=1.0), DomainSpec("annulus", r=0.8),
        DomainSpec("halfdisk", R=8.0, grade=2.0)], ids=["cylinder", "annulus", "halfdisk"])
    def test_matches_reference(self, spec, level):
        self.check_reference(build_mesh(dataclasses.replace(spec, level=level)))

    def test_gamma_pohozaev_mesh_matches_reference(self):
        self.check_reference(build_mesh(DomainSpec("annulus", r=0.5, level=6)))

    @pytest.mark.parametrize("spec", [
        DomainSpec("cylinder", L=1.0, level=1), DomainSpec("cylinder", L=1.0, level=5),
        DomainSpec("annulus", r=0.8, level=0), DomainSpec("annulus", r=0.5, level=6)],
        ids=["cylinder-L1", "cylinder-L5", "annulus-L0", "annulus-L6"])
    def test_symbol_matches_reference(self, spec):
        mesh = build_mesh(spec)
        ops = assemble(mesh)
        sym, ref = ops.S_symbol, reference_symbol(ops.S, mesh)
        assert sym.n == ref.n and sym.blocks.shape == ref.blocks.shape
        assert np.abs(sym.blocks - ref.blocks).max() <= 1e-14 * ref.norm
        assert sym.norm == pytest.approx(ref.norm, rel=1e-14)
        assert sym.departure == pytest.approx(ref.departure, rel=1e-12, abs=1e-15 * ref.norm)
        assert sym.departure <= CIRCULANT_RTOL * sym.norm

    def test_halfdisk_has_no_symbol(self):
        ops = assemble(build_mesh(DomainSpec("halfdisk", level=2)))
        assert ops.S_symbol is None and reference_symbol(ops.S, ops.mesh) is None

    def test_cylinder_stores_no_diagonal_coupling(self):
        # the quads are rectangles, split along (i, j)-(i+1, j+1): the
        # right angle opposite that diagonal makes its weight exactly 0
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=3))
        S = assemble(mesh).S.tocoo()
        dof = mesh.vertex_dof[mesh.grid]
        a, c = dof[:-1, :-1].ravel(), dof[1:, 1:].ravel()
        stored = set(zip(S.row.tolist(), S.col.tolist()))
        assert not any((x, y) in stored or (y, x) in stored for x, y in zip(a, c))
        n_s = mesh.grid.shape[0] - 1
        assert S.nnz == 5 * mesh.n_dof - 2 * n_s

    def test_hessian_is_S_plus_diagonal(self, ann):
        prob = random_problem(ann, 1)
        u = RNG.normal(0, 0.5, prob.n_dof)
        for eps in (0.0, 0.3):
            relaxed = Problem(ann, prob.spec, prob.ops, eps=eps)
            scale, d = relaxed.hessian_parts(u)
            H = relaxed.hessian(u)
            assert abs(H - (scale * prob.ops.S + sp.diags(d))).max() == 0.0
            assert np.shares_memory(H.indices, prob.ops.S.indices)
