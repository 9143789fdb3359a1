import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import Operators, Problem, assemble
from prescurv.exact import (
    annulus_gamma_problem,
    annulus_gamma_state,
    bubble_profile,
    disk_eigenfunction,
    halfplane_problem,
    oneD_profile,
    profile_state,
    strip_profile,
)
from prescurv.fields import CurvatureSpec, background_for
from prescurv.solve import minimize, mountain_pass, nested, relaxed_endpoints
import prescurv.spectral as spectral
from prescurv.spectral import (
    NEG_TOL,
    disk_form_report,
    disk_truncation_radius,
    morse_index,
    negative_count,
)


def random_inertia_matrix(rng, n, n_neg):
    """Sparse-ish symmetric matrix with exactly n_neg negative eigenvalues."""
    vals = np.concatenate([
        -rng.uniform(0.5, 3.0, size=n_neg),
        rng.uniform(0.1, 5.0, size=n - n_neg),
    ])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sp.csr_matrix(q @ np.diag(vals) @ q.T), n_neg


def test_negative_count_dense_path():
    rng = np.random.default_rng(0)
    Q, k = random_inertia_matrix(rng, 40, 7)
    rep = negative_count(Q)
    assert rep.negative_count == k


def test_negative_count_iterative_path_and_escalation():
    # above the dense cutoff the count comes from the factorization pivots
    rng = np.random.default_rng(1)
    n = 700
    diag = rng.uniform(0.5, 2.0, size=n)
    diag[:23] = -rng.uniform(0.5, 2.0, size=23)
    Q = sp.diags(diag).tocsr()
    rep = negative_count(Q)
    assert rep.negative_count == 23


def dense_count(Q, neg_tol=1e-10):
    return int((np.linalg.eigvalsh(Q.toarray()) < -neg_tol).sum())


@pytest.mark.parametrize("n,seed", [(700, 10), (850, 11), (1000, 12)])
def test_factorization_count_matches_dense_on_sparse_indefinite(n, seed):
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=5.0 / n, random_state=rng)
    Q = (R + R.T + sp.diags(rng.uniform(-1.0, 1.0, size=n))).tocsr()
    rep = negative_count(Q)
    assert rep.k_used == 0
    assert 0 < rep.negative_count < n
    assert rep.negative_count == dense_count(Q)


def _cylinder_minimum():
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=3))
    prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[0.5, 0.5], K_bg=-1.0))
    return prob.hessian(minimize(prob, tol=1e-10).state), 0


@functools.cache
def _saddle():
    """The relaxed L3 annulus saddle at eps = 0.05: (problem, state)."""
    mesh = build_mesh(DomainSpec("annulus", r=0.8, level=3))
    K_bg, h_bg = background_for(mesh)
    prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=K_bg, h_bg=h_bg))
    low, u1 = relaxed_endpoints(prob, mesh.boundary_point(0, 0), eps=0.05)
    rep = mountain_pass(prob, 0.05, low.state, u1, tol=1e-10)
    assert rep.converged
    return prob, rep.state


def _annulus_saddle():
    prob, u = _saddle()
    return prob.hessian(u, 0.05), 1


def _gamma_state():
    mesh = build_mesh(DomainSpec("annulus", r=0.5, level=3))
    prob = annulus_gamma_problem(mesh, 2, 2.0)
    return prob.hessian(annulus_gamma_state(mesh, 2, 2.0)), None


@pytest.mark.parametrize("make", [_cylinder_minimum, _annulus_saddle, _gamma_state])
def test_factorization_count_matches_dense_on_hessians(make):
    H, index = make()
    rep = negative_count(H)
    assert rep.k_used == 0
    assert rep.negative_count == dense_count(H)
    if index is not None:
        assert rep.negative_count == index


def _swap_pairs(n):
    # zero diagonal, eigenvalues +1 and -1: with no shift the
    # factorization cannot take the diagonal pivots and must pivot
    return sp.kron(sp.identity(n // 2), sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])).tocsr()


def _singular_diagonal(n):
    return sp.diags(np.concatenate([[0.0], np.ones(n - 1)])).tocsr()


@pytest.mark.parametrize("make,count", [(_swap_pairs, 300), (_singular_diagonal, 0)])
def test_guard_falls_back_to_dense_below_cutoff(make, count):
    rep = negative_count(make(600), neg_tol=0.0)
    assert rep.negative_count == count
    assert rep.k_used == 600


@pytest.mark.parametrize("make,reason", [(_swap_pairs, "pivoted"),
                                         (_singular_diagonal, "singular")])
def test_guard_raises_above_cutoff(make, reason):
    with pytest.raises(RuntimeError, match=reason):
        negative_count(make(700), neg_tol=0.0)


def _failing_splu(monkeypatch, failing):
    import prescurv.spectral as spectral
    real = spectral.spla.splu

    def splu(A, permc_spec=None, **kwargs):
        if permc_spec in failing:
            raise RuntimeError("Factor is exactly singular")
        return real(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", splu)


@pytest.mark.parametrize("n,seed", [(700, 20), (900, 21)])
def test_failed_factorization_retries_with_second_ordering(monkeypatch, n, seed):
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=5.0 / n, random_state=rng)
    Q = (R + R.T + sp.diags(rng.uniform(-1.0, 1.0, size=n))).tocsr()
    _failing_splu(monkeypatch, {"MMD_AT_PLUS_A"})
    rep = negative_count(Q)
    assert rep.k_used == 0
    assert 0 < rep.negative_count == dense_count(Q)


def test_retry_keeps_hessian_index(monkeypatch):
    H, index = _cylinder_minimum()
    assert H.shape[0] > 600
    _failing_splu(monkeypatch, {"MMD_AT_PLUS_A"})
    rep = negative_count(H)
    assert rep.k_used == 0
    assert rep.negative_count == index == dense_count(H)


def test_raises_when_both_orderings_fail(monkeypatch):
    _failing_splu(monkeypatch, {"MMD_AT_PLUS_A", "MMD_ATA"})
    with pytest.raises(RuntimeError, match="MMD_AT_PLUS_A.*MMD_ATA.*dense cutoff"):
        negative_count(sp.identity(700, format="csr"))


def test_negative_count_psd():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((30, 30))
    rep = negative_count(sp.csr_matrix(A @ A.T))
    assert rep.negative_count == 0


def test_convex_problem_has_index_zero():
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
    spec = CurvatureSpec(K=-1.0, h=[-0.5, -0.25], K_bg=-1.0)
    prob = Problem(mesh, spec)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, size=mesh.n_dof)
    assert morse_index(prob, u).negative_count == 0


def test_boundary_layer_instability_grows_with_state():
    # for h/sqrt(|K|) > sqrt(2) a constant state has a boundary layer of
    # negative directions, one per tangential mode m < c e^{u/2}, so the
    # count climbs with u
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
    spec = CurvatureSpec(K=-1.0, h=[3.0, 3.0], K_bg=0.0)
    prob = Problem(mesh, spec)
    counts = [morse_index(prob, np.full(mesh.n_dof, c)).negative_count
              for c in (-4.0, 0.0, 2.0)]
    assert counts[0] >= 1
    assert counts[0] < counts[1] < counts[2]


def profile_index(mesh, profile):
    """Index of a half-plane profile on a half-disk truncation, the way
    ``prescurv spectrum`` counts a ``[sweep]`` family state."""
    prob, fixed = halfplane_problem(mesh, profile)
    return morse_index(prob, profile_state(mesh, profile), fixed=fixed)


def test_oneD_truncation_index_zero():
    mesh = build_mesh(DomainSpec("halfdisk", R=8.0, level=3, grade=2.0))
    rep = profile_index(mesh, oneD_profile(lam=1.0))
    assert rep.k_used == 0  # read from the factorization pivots
    assert rep.negative_count == 0


def test_bubble_truncation_index_one():
    mesh = build_mesh(DomainSpec("halfdisk", R=8.0, level=3, grade=2.0))
    rep = profile_index(mesh, bubble_profile(lam=1.0, h0=np.sqrt(2.0)))
    assert rep.k_used == 0  # read from the factorization pivots
    assert rep.negative_count == 1


def test_bubble_index_stable_under_refinement():
    mesh = build_mesh(DomainSpec("halfdisk", R=8.0, level=4, grade=2.0))
    rep = profile_index(mesh, bubble_profile(lam=1.0, h0=np.sqrt(2.0)))
    assert rep.negative_count == 1


def test_rescaled_limit_index_grows_with_truncation():
    # the strip is 2 pi periodic along the edge: a longer truncation
    # admits more periods, so the count grows without bound
    counts = []
    for R in (5.0, 10.0):
        mesh = build_mesh(DomainSpec("halfdisk", R=R, level=3))
        counts.append(profile_index(mesh, strip_profile(2.0)).negative_count)
    assert counts[0] >= 1
    assert counts[1] > counts[0]


def test_rescaled_limit_rejects_other_domains():
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=1))
    with pytest.raises(ValueError):
        halfplane_problem(mesh, strip_profile(2.0))


def test_disk_truncation_radius():
    assert disk_truncation_radius(1.0 + 1e-9) == pytest.approx(1.0, abs=1e-4)
    assert disk_truncation_radius(2.0) == pytest.approx(2.0 - np.sqrt(3.0))
    with pytest.raises(ValueError):
        disk_truncation_radius(0.9)


@pytest.mark.parametrize("D0", [1.2, 2.0])
def test_disk_form_single_negative_direction(D0):
    rep = disk_form_report(D0, n_r=1500)
    assert rep.negative_count == 1
    assert rep.radial_eigenvalue < 0
    # the one negative direction is radial; higher modes are stable
    assert rep.mode_counts[0][1] == 1
    assert rep.mode_counts[1][1] == 0


def test_disk_form_radial_vector_matches_eigenfunction():
    rep = disk_form_report(1.5, n_r=1500)
    assert rep.correlation_with_gamma > 0.999


def dense_ground_pair(D0, n_r):
    """Radial ground pair from a dense generalized eigensolve."""
    r, stiff, pot, invr, mass, bnd = spectral._radial_pieces(D0, n_r)
    d0, e0 = spectral._mode_matrix(0, r, stiff, pot, invr, bnd)
    dB, eB = spectral._tridiag(n_r, [stiff, mass])
    A = np.diag(d0) + np.diag(e0, 1) + np.diag(e0, -1)
    B = np.diag(dB) + np.diag(eB, 1) + np.diag(eB, -1)
    w, v = scipy.linalg.eigh(A, B, subset_by_index=[0, 0])
    gam = disk_eigenfunction(r, np.zeros_like(r))
    return w[0], abs(np.corrcoef(v[:, 0], gam)[0, 1])


@pytest.mark.parametrize("D0", [1.2, 1.5, 2.0])
def test_disk_form_ground_pair_matches_dense(D0, monkeypatch):
    lam, corr = dense_ground_pair(D0, 600)

    def no_dense(*args, **kwargs):
        raise AssertionError("the disk form needs no dense eigensolve")

    monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
    rep = disk_form_report(D0, n_r=600)
    assert rep.radial_eigenvalue == pytest.approx(lam, rel=1e-8)
    assert abs(rep.correlation_with_gamma - corr) < 1e-12


def test_disk_form_kernel_fields_are_flat():
    for D0 in (1.2, 2.0):
        rep = disk_form_report(D0, n_r=1500)
        assert rep.kernel_rayleigh < 1e-5


def test_disk_form_kernel_rayleigh_refines():
    coarse = disk_form_report(1.5, n_r=400).kernel_rayleigh
    fine = disk_form_report(1.5, n_r=1600).kernel_rayleigh
    assert fine < coarse / 4


class TestFourierInertia:
    """Counts of morse_index on periodic grids from Sturm sequences of the
    Fourier mode blocks, with SuperLU only where the Hessian is not
    circulant."""

    @staticmethod
    def counted_splu(monkeypatch):
        import prescurv.spectral as spectral
        sizes, real = [], spectral.spla.splu

        def counted(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return real(A, *args, **kwargs)

        monkeypatch.setattr(spectral.spla, "splu", counted)
        return sizes

    @staticmethod
    def problem(kind, level, ops=None):
        mesh = build_mesh(DomainSpec(kind, L=1.0, r=0.8, level=level))
        if kind == "cylinder":
            return Problem(mesh, CurvatureSpec(K=-1.0, h=[3.0, 3.0], K_bg=0.0), ops=ops)
        K_bg, h_bg = background_for(mesh)
        return Problem(mesh, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=K_bg, h_bg=h_bg),
                       ops=ops)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["cylinder", "annulus"])
    def test_matches_superlu_on_rotation_invariant_states(self, monkeypatch, kind, level):
        # the count below s of the Hessian at a constant state: from a
        # handful to thousands, odd counts included (modes 0 and n/2
        # count once); SuperLU counts Q - s I below -NEG_TOL
        prob = self.problem(kind, level)
        cases = []
        for c in (0.0, 1.0):
            u = np.full(prob.n_dof, c)
            Q = prob.hessian(u)
            for s in (0.0, 0.05, 0.3, 1.0, 3.0):
                Qs = (Q - s * sp.identity(prob.n_dof)).tocsr()
                cases.append((u, s, negative_count(Qs).negative_count))
        sizes = self.counted_splu(monkeypatch)
        for u, s, count in cases:
            rep = morse_index(prob, u, neg_tol=NEG_TOL - s)
            assert (rep.negative_count, rep.k_used) == (count, 0)
        assert sizes == []
        assert any(count % 2 for _, _, count in cases)

    def test_departure_brackets_the_cut(self, monkeypatch):
        # S bumps one off-diagonal pair by 1e-3, leaving its diagonal
        # circulant; its symbol C spreads the bump over the grid index i.
        # Away from the spectrum the Fourier count is the Hessian's; at a
        # cut between an eigenvalue of Q and the matching one of C, Weyl's
        # bracket of twice the departure leaves the count to SuperLU
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=1))
        ops = assemble(mesh)
        D = np.arange(mesh.n_dof).reshape(-1, 16 * 2)

        def bumped(pairs, size):
            rows, cols = np.concatenate([pairs, pairs[::-1]], axis=1)
            return (ops.S + sp.csr_matrix((np.full(len(rows), size), (rows, cols)),
                                          shape=ops.S.shape)).tocsr()

        S = bumped(np.array([[D[0, 5]], [D[1, 5]]]), 1e-3)
        prob = self.problem("cylinder", 1, ops=Operators(mesh, S, ops.w_int, ops.wb, ops.grads))
        u = np.full(prob.n_dof, 1.0)
        Q = prob.hessian(u)
        C = Q + bumped(D[:2], 1e-3 / D.shape[1]) - S
        lq, lc = np.linalg.eigvalsh(Q.toarray()), np.linalg.eigvalsh(C.toarray())
        k = int(np.argmax(np.abs(lq - lc)))
        cut = 0.5 * (lq[k] + lc[k])
        assert (lq < cut).sum() != (lc < cut).sum()
        sizes = self.counted_splu(monkeypatch)
        assert morse_index(prob, u).negative_count == dense_count(Q)
        assert sizes == []
        assert morse_index(prob, u, neg_tol=-cut).negative_count == (lq < cut).sum()
        assert sizes == [prob.n_dof]

    def test_diagonal_spread_brackets_the_cut(self, monkeypatch):
        # one interior diagonal entry off its ring mean by 5e-13 of the
        # largest, inside CIRCULANT_RTOL: the symbol takes the state, and a
        # cut a quarter of that spread above an eigenvalue of the
        # unperturbed Hessian must leave the count to SuperLU
        prob = self.problem("cylinder", 1)
        u = np.full(prob.n_dof, 1.0)
        lam = np.linalg.eigvalsh(prob.hessian(u).toarray())[prob.n_dof // 2]
        _, d = prob.hessian_parts(u)
        i = 32 + 5  # grid point (5, 1)
        delta = 5e-13 * np.abs(prob.hessian(u).diagonal()).max()
        u[i] += delta / d[i]
        assert prob.ops.symbol(*prob.hessian_parts(u)) is not None
        sizes = self.counted_splu(monkeypatch)
        morse_index(prob, u, neg_tol=-(lam + delta / 4))
        assert sizes == [prob.n_dof]

    def test_eigenvalue_at_the_cut_reaches_splu(self, monkeypatch):
        # with h = 0 and e^u = 0 the Hessian is the stiffness matrix,
        # whose constant null vector sits on the cut at neg_tol = 0, so
        # the two Sturm counts differ
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=1))
        prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[0.0, 0.0], K_bg=0.0))
        u = np.full(prob.n_dof, -800.0)
        assert (prob.hessian(u) != prob.ops.S).nnz == 0
        sizes = self.counted_splu(monkeypatch)
        morse_index(prob, u, neg_tol=0.0)
        assert sizes and sizes[0] == prob.n_dof

    @pytest.mark.parametrize("case", ["bumped", "saddle", "halfdisk", "fixed"])
    def test_fallbacks_reach_splu(self, monkeypatch, case):
        # a diagonal off its symbol (a state that is constant but at one
        # dof), a non-radial state, a grid that is not periodic, and a
        # restriction that drops the mesh
        eps, fixed, index = 0.0, None, None
        if case == "saddle":
            (prob, u), eps, index = _saddle(), 0.05, 1
        elif case == "halfdisk":
            mesh = build_mesh(DomainSpec("halfdisk", R=8.0, level=2, grade=2.0))
            prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
            u = prob.zero_state()
        else:
            prob = self.problem("cylinder", 2)
            u = np.full(prob.n_dof, 1.0)
            if case == "bumped":
                u[5] += 1e-6
        Q = prob.hessian(u, eps)
        if case == "fixed":
            fixed = np.zeros(prob.n_dof, dtype=bool)
            fixed[prob.mesh.vertex_dof[prob.mesh.components[0].verts]] = True
            free = np.nonzero(~fixed)[0]
            Q = Q.tocsr()[free][:, free]
        sizes = self.counted_splu(monkeypatch)
        rep = morse_index(prob, u, eps, fixed=fixed)
        assert sizes[0] == Q.shape[0]
        assert rep.negative_count == (dense_count(Q) if index is None else index)

    def test_nested_cylinder_minimize_factors_nothing(self, monkeypatch):
        # one symbol read per level: the stiffness matrix's, shared by B
        # and the certificate's Hessian
        import prescurv.energy as energy
        prob = Problem(build_mesh(DomainSpec("cylinder", L=1.0, level=4)),
                       CurvatureSpec(K=-1.0, h=[0.5, 0.5], K_bg=-1.0))
        sizes, reads, real = self.counted_splu(monkeypatch), [], energy.circulant_symbol

        def counted(A, mesh):
            reads.append(mesh.spec.level)
            return real(A, mesh)

        monkeypatch.setattr(energy, "circulant_symbol", counted)

        def descend(p, u):
            return minimize(p, init=u, tol=1e-10)

        rep = nested(prob, prob.zero_state(), descend, descend)
        assert rep.converged and rep.morse_index == 0
        assert [e["morse_index"] for e in rep.levels] == [0] * 5
        assert sorted(reads) == [0, 1, 2, 3, 4]
        assert sizes == []
