import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import band_ldlt, negative_count, reference_symbol
import prescurv.energy as energy
from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import Operators, Problem, _band_order, assemble
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
)


def count_below(prob, u, cut):
    """Eigenvalues of the Hessian of ``prob`` at ``u`` below ``cut``,
    counted as :func:`morse_index` counts those below ``-NEG_TOL``."""
    scale, d = prob.hessian_parts(u)
    return prob.ops.negatives(scale, d - cut)


def random_inertia_matrix(rng, n, n_neg):
    """Sparse-ish symmetric matrix with exactly n_neg negative eigenvalues."""
    vals = np.concatenate([
        -rng.uniform(0.5, 3.0, size=n_neg),
        rng.uniform(0.1, 5.0, size=n - n_neg),
    ])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return sp.csr_matrix(q @ np.diag(vals) @ q.T), n_neg


def test_negative_count_dense_path():
    # a small, fully dense matrix: counted by the one factorization too
    rng = np.random.default_rng(0)
    Q, k = random_inertia_matrix(rng, 40, 7)
    rep = negative_count(Q)
    assert rep.negative_count == k


def test_negative_count_iterative_path_and_escalation():
    rng = np.random.default_rng(1)
    n = 700
    diag = rng.uniform(0.5, 2.0, size=n)
    diag[:23] = -rng.uniform(0.5, 2.0, size=23)
    Q = sp.diags(diag).tocsr()
    rep = negative_count(Q)
    assert rep.negative_count == 23


def ldl_count(A, neg_tol=0.0):
    """Eigenvalues of the dense symmetric A below -neg_tol: by Sylvester's
    law, the negative eigenvalues of D in the Bunch-Kaufman factorization
    A + neg_tol I = L D L^T, whose D has 1x1 and 2x2 blocks."""
    _, D, _ = scipy.linalg.ldl(A + neg_tol * np.eye(len(A)), overwrite_a=True)
    return int((scipy.linalg.eigvalsh_tridiagonal(np.diag(D), np.diag(D, 1)) < 0).sum())


def dense_count(Q, neg_tol=1e-10):
    return ldl_count(Q.toarray(), neg_tol)


@pytest.mark.parametrize("n_neg,pairs", [(37, False), (0, False), (150, True)])
def test_ldl_count_matches_eigvalsh(n_neg, pairs):
    # the dense reference itself, against eigenvalues: zero-diagonal swap
    # pairs force 2x2 pivots, and the shift moves eigenvalues across the cut
    n = 300
    Q, _ = random_inertia_matrix(np.random.default_rng(n_neg), n, n_neg)
    A = Q.toarray()
    if pairs:
        A = _swap_pairs(n).toarray() + 1e-3 * A
    lam = np.linalg.eigvalsh(A)
    for tol in (0.0, 1e-10, *(-0.5 * (lam[k] + lam[k + 1]) for k in (n // 3, n // 2))):
        assert ldl_count(A, tol) == (lam < -tol).sum()


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
    prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[2.0, -3.0], K_bg=K_bg, h_bg=h_bg), eps=0.05)
    low, u1 = relaxed_endpoints(prob, mesh.boundary_point(0, 0))
    rep = mountain_pass(prob, low.state, u1, tol=1e-10)
    assert rep.converged
    return prob, rep.state


def _annulus_saddle():
    prob, u = _saddle()
    return prob.hessian(u), 1


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
    # zero diagonal, eigenvalues +1 and -1: with no shift the unpivoted
    # LDL^T meets a zero pivot at column 0, though the matrix is regular
    return sp.kron(sp.identity(n // 2), sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])).tocsr()


def _singular_diagonal(n):
    return sp.diags(np.concatenate([[0.0], np.ones(n - 1)])).tocsr()


@pytest.mark.parametrize("n", [8, 600])
@pytest.mark.parametrize("make,reason", [(_swap_pairs, "exactly singular"),
                                         (_singular_diagonal, "exactly singular")])
def test_guard_failure_raises_at_any_size(make, reason, n):
    # no dense eigenvalue path takes over below some size
    with pytest.raises(RuntimeError, match="inertia count unavailable: .*" + reason):
        negative_count(make(n), neg_tol=0.0)


@pytest.mark.parametrize("make,reason", [(_swap_pairs, "singular"),
                                         (_singular_diagonal, "singular")])
def test_guard_raises_above_cutoff(make, reason):
    with pytest.raises(RuntimeError, match=reason):
        negative_count(make(700), neg_tol=0.0)


def watch_counts(monkeypatch):
    """Sizes of the band LDL^T factorizations made, and the columns each
    one's ``dpbtrf`` calls factored: a failed call's ``info``, else its
    order."""
    sizes, work = [], []
    count, dpbtrf = energy._ldlt, energy.dpbtrf

    def counted(ab, *args):
        sizes.append(ab.shape[1])
        work.append(0)
        return count(ab, *args)

    def factored(ab, **kwargs):
        c, info = dpbtrf(ab, **kwargs)
        work[-1] += info or ab.shape[1]
        return c, info

    monkeypatch.setattr(energy, "_ldlt", counted)
    monkeypatch.setattr(energy, "dpbtrf", factored)
    return sizes, work


def random_band_matrix(rng, n, kd, n_neg):
    """Random symmetric band matrix of half-bandwidth kd, shifted between
    two eigenvalues so that exactly n_neg are negative."""
    A = np.zeros((n, n))
    for r in range(kd + 1):
        v = rng.standard_normal(n - r)
        A += np.diag(v, -r) + (np.diag(v, r) if r else 0.0)
    lam = np.linalg.eigvalsh(A)
    shift = lam[0] - 1.0 if n_neg == 0 else 0.5 * (lam[n_neg - 1] + lam[n_neg])
    return sp.csr_matrix(A - shift * np.eye(n))


def test_one_factorization_per_call(monkeypatch):
    # a failed guard is not retried on another path, and a count's
    # restarts factor each column at most twice, whatever the count
    sizes, work = watch_counts(monkeypatch)
    for make in (_swap_pairs, _singular_diagonal):
        with pytest.raises(RuntimeError, match="inertia count unavailable"):
            negative_count(make(700), neg_tol=0.0)
    H, index = _cylinder_minimum()
    assert negative_count(H).negative_count == index
    Q = random_band_matrix(np.random.default_rng(5), 400, 9, 25)
    assert negative_count(Q).negative_count == 25
    assert sizes == [700, 700, H.shape[0], 400]
    assert work[2] == H.shape[0] and work[3] <= 2 * 400


@pytest.mark.parametrize("n_neg", [0, 1, 7, 25])
@pytest.mark.parametrize("n,kd", [(60, 3), (300, 12), (150, 149)])
def test_band_count_matches_dense(n, kd, n_neg):
    # the kept factor solves too: dtbsv with L, D, dtbsv with L^T.  The
    # backward error is rounding times the element growth of an unpivoted
    # L D L^T, which indefinite matrices have: at most 1e-13 on these cases
    rng = np.random.default_rng(10 * kd + n_neg)
    Q = random_band_matrix(rng, n, kd, n_neg)
    assert negative_count(Q).negative_count == dense_count(Q) == n_neg
    factor, r = band_ldlt(Q), rng.standard_normal(n)
    x = factor.solve(r)
    assert factor.negatives == n_neg
    assert np.linalg.norm(Q @ x - r) <= 1e-12 * abs(Q).sum(axis=1).max() * np.linalg.norm(x)


@pytest.mark.parametrize("kd", [6, 13])
@pytest.mark.parametrize("gap", ["consecutive", "kd - 1", "kd", "last kd"])
def test_restart_windows_overlap(monkeypatch, kd, gap):
    # a positive definite band matrix with diagonal entries pushed far
    # negative, each one negative pivot at its column: restarts whose
    # updates overlap those of the restart before, a run of them longer
    # than the columns that the kernel keeps updates for, and restarts in
    # the last kd columns.  Each column is still factored at most twice
    n = 240
    columns = {"consecutive": range(40, 40 + 3 * kd), "kd - 1": range(40, n - kd, kd - 1),
               "kd": range(40, n - kd, kd), "last kd": [n - kd, n - kd + 1, n - 3, n - 1]}[gap]
    rng = np.random.default_rng(kd)
    A = random_band_matrix(rng, n, kd, 0).toarray()
    A[columns, columns] = -10.0 * np.abs(A).max()
    Q = sp.csr_matrix(A)
    sizes, work = watch_counts(monkeypatch)
    factor, r = band_ldlt(Q), rng.standard_normal(n)
    assert factor.negatives == dense_count(Q) == len(columns)
    assert sizes == [n] and work[0] <= 2 * n
    x = factor.solve(r)
    assert np.linalg.norm(Q @ x - r) <= 1e-12 * abs(Q).sum(axis=1).max() * np.linalg.norm(x)


@pytest.mark.parametrize("at", ["first", "last"])
def test_failing_pivot_at_either_end(monkeypatch, at):
    # a positive definite band matrix with one diagonal entry pushed
    # negative: the first call of dpbtrf stops at that column
    n, kd = 200, 5
    Q = random_band_matrix(np.random.default_rng(7), n, kd, 0).tolil()
    j = 0 if at == "first" else n - 1
    Q[j, j] = -10.0 * abs(Q).max()
    Q = Q.tocsr()
    infos, real = [], energy.dpbtrf

    def recorded(ab, **kwargs):
        c, info = real(ab, **kwargs)
        infos.append(info)
        return c, info

    monkeypatch.setattr(energy, "dpbtrf", recorded)
    assert negative_count(Q).negative_count == dense_count(Q) == 1
    assert infos[0] == j + 1


@pytest.mark.parametrize("A,column", [([[0.0, 1.0], [1.0, 2.0]], 0),
                                      ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]], 1)])
def test_zero_pivot_raises(A, column):
    # a zero (0, 0) entry, and a (1, 1) entry that the Schur update
    # cancels exactly
    with pytest.raises(RuntimeError, match=f"inertia count unavailable: pivot {column} is 0"):
        negative_count(sp.csr_matrix(A), neg_tol=0.0)


@pytest.mark.parametrize("A", [[[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, -np.inf]]])
def test_non_finite_pivot_raises(A):
    # a NaN passes dpbtrf's positivity test and spreads; an infinite
    # entry ends as an infinite pivot either side of zero
    with pytest.raises(RuntimeError, match="inertia count unavailable: a pivot is not finite"):
        negative_count(sp.csr_matrix(np.array(A)), neg_tol=0.0)


@pytest.mark.parametrize("kind,bandwidths", [("annulus", (19, 35, 67)),
                                             ("cylinder", (50, 98, 194)),
                                             ("halfdisk", (33, 65, 129))])
def test_grid_order_bandwidth(kind, bandwidths):
    # periodic grids, lines of fixed i in zig-zag order: 2 m + 1 for
    # the m = 2^l + 1 dofs of an annulus line (r = 0.8), 2 m for the
    # m = 3 * 2^l + 1 of a cylinder line (L = 1), whose right triangles
    # couple no diagonal; the half-disk's spokes of m = 4 * 2^l dofs,
    # m + 1, with the centre last as a border outside the band
    for level, kd in zip((3, 4, 5), bandwidths):
        ops = assemble(build_mesh(DomainSpec(kind, L=1.0, r=0.8, R=5.0, level=level)))
        order, bordered = _band_order(ops.mesh)
        n = ops.n_dof - bordered
        pos, S = np.argsort(order), ops.S.tocoo()
        inside = (pos[S.row] < n) & (pos[S.col] < n)
        assert np.abs(pos[S.row] - pos[S.col])[inside].max() == kd
        assert bordered == (kind == "halfdisk")
        if level == 3:
            assert ops._band_map[1:3] == (n, kd)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_bordered_halfdisk_count_matches_dense(level):
    # S - diag(8 w_int) is indefinite without the centre too; the
    # centre's diagonal entry then sets the Schur complement s of the
    # border to either sign (the dense count at s > 0 is that of the rest,
    # by Haynsworth's additivity), and a centre row that is all zero makes
    # s exactly 0
    mesh = build_mesh(DomainSpec("halfdisk", R=5.0, level=level))
    ops = assemble(mesh)
    (order, bordered), centre = _band_order(mesh), 0
    assert bordered and order[-1] == centre
    rest = order[:-1]
    r = np.random.default_rng(level).standard_normal(ops.n_dof)
    A = ops.plus_diagonal(1.0, -8.0 * ops.w_int).toarray()
    a = A[rest, centre]
    s0 = A[centre, centre] - a @ np.linalg.solve(A[np.ix_(rest, rest)], a)
    counts = []
    for s in (0.5, -0.5):
        d = -8.0 * ops.w_int
        d[centre] += s - s0
        A = ops.plus_diagonal(1.0, d).toarray()
        factor = ops.factor(1.0, d)
        counts.append(ldl_count(A))
        assert factor.negatives == counts[-1]
        x = factor.solve(r)
        assert np.linalg.norm(A @ x - r) <= 1e-12 * np.abs(A).sum(axis=1).max() * np.linalg.norm(x)
    assert 0 < counts[0] == counts[1] - 1
    S = ops.S.copy()
    rows = np.repeat(np.arange(ops.n_dof), np.diff(S.indptr))
    S.data[(rows == centre) | (S.indices == centre)] = 0.0
    ops = Operators(mesh, S, ops.w_int, ops.wb)
    with pytest.raises(RuntimeError, match="inertia count unavailable: pivot 0 is 0, the"
                                           " factorization is exactly singular"):
        ops.factor(1.0, np.where(np.arange(ops.n_dof) == centre, 0.0, ops.w_int))


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
    """Counts of ``Operators.negatives``, which morse_index reads, on
    periodic grids from Sturm sequences of the Fourier mode blocks, with
    the band LDL^T only where the Hessian is not circulant.  Three test
    names still say SuperLU (``splu``), kept so that the test ids stay
    stable."""

    @staticmethod
    def counted_band(monkeypatch):
        return watch_counts(monkeypatch)[0]

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
        # count once); the band LDL^T counts Q - s I below -NEG_TOL in the
        # grid order
        prob = self.problem(kind, level)
        cases = []
        for c in (0.0, 1.0):
            u = np.full(prob.n_dof, c)
            Q = prob.hessian(u)
            for s in (0.0, 0.05, 0.3, 1.0, 3.0):
                Qs = (Q - s * sp.identity(prob.n_dof)).tocsr()
                cases.append((u, s, negative_count(Qs, order=_band_order(prob.mesh)[0])
                              .negative_count))
        sizes = self.counted_band(monkeypatch)
        for u, s, count in cases:
            assert count_below(prob, u, s - NEG_TOL) == count
        assert sizes == []
        assert any(count % 2 for _, _, count in cases)

    def test_departure_brackets_the_cut(self, monkeypatch):
        # S bumps one off-diagonal pair by 1e-3, leaving its diagonal
        # circulant; its symbol C spreads the bump over the grid index i.
        # Away from the spectrum the Fourier count is the Hessian's; at a
        # cut between an eigenvalue of Q and the matching one of C, Weyl's
        # bracket of twice the departure leaves the count to the band LDL^T
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=1))
        ops = assemble(mesh)
        D = np.arange(mesh.n_dof).reshape(-1, 16 * 2)

        def bumped(pairs, size):
            rows, cols = np.concatenate([pairs, pairs[::-1]], axis=1)
            return (ops.S + sp.csr_matrix((np.full(len(rows), size), (rows, cols)),
                                          shape=ops.S.shape)).tocsr()

        S = bumped(np.array([[D[0, 5]], [D[1, 5]]]), 1e-3)
        prob = self.problem("cylinder", 1, ops=Operators(mesh, S, ops.w_int, ops.wb,
                                                         S_symbol=reference_symbol(S, mesh)))
        u = np.full(prob.n_dof, 1.0)
        Q = prob.hessian(u)
        C = Q + bumped(D[:2], 1e-3 / D.shape[1]) - S
        lq, lc = np.linalg.eigvalsh(Q.toarray()), np.linalg.eigvalsh(C.toarray())
        k = int(np.argmax(np.abs(lq - lc)))
        cut = 0.5 * (lq[k] + lc[k])
        assert (lq < cut).sum() != (lc < cut).sum()
        sizes = self.counted_band(monkeypatch)
        assert morse_index(prob, u).negative_count == dense_count(Q)
        assert sizes == []
        assert count_below(prob, u, cut) == (lq < cut).sum()
        assert sizes == [prob.n_dof]

    def test_diagonal_spread_brackets_the_cut(self, monkeypatch):
        # one interior diagonal entry off its ring mean by 5e-13 of the
        # largest: the symbol's departure carries that spread, and a cut a
        # quarter of it above an eigenvalue of the unperturbed Hessian
        # must leave the count to the band LDL^T
        prob = self.problem("cylinder", 1)
        u = np.full(prob.n_dof, 1.0)
        lam = np.linalg.eigvalsh(prob.hessian(u).toarray())[prob.n_dof // 2]
        _, d = prob.hessian_parts(u)
        i = 32 + 5  # grid point (5, 1)
        delta = 5e-13 * np.abs(prob.hessian(u).diagonal()).max()
        u[i] += delta / d[i]
        assert prob.ops.symbol(*prob.hessian_parts(u)) is not None
        sizes = self.counted_band(monkeypatch)
        count_below(prob, u, lam + delta / 4)
        assert sizes == [prob.n_dof]

    def test_eigenvalue_at_the_cut_reaches_splu(self, monkeypatch):
        # with h = 0 and e^u = 0 the Hessian is the stiffness matrix,
        # whose constant null vector sits on the cut at 0, so
        # the two Sturm counts differ
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=1))
        prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[0.0, 0.0], K_bg=0.0))
        u = np.full(prob.n_dof, -800.0)
        assert (prob.hessian(u) != prob.ops.S).nnz == 0
        sizes = self.counted_band(monkeypatch)
        count_below(prob, u, 0.0)
        assert sizes and sizes[0] == prob.n_dof

    @pytest.mark.parametrize("case", ["bumped", "saddle", "halfdisk", "fixed"])
    def test_fallbacks_reach_splu(self, monkeypatch, case):
        # a diagonal off its symbol (a state that is constant but at one
        # dof), which the Weyl bracket still settles; then what reaches
        # the band: a non-radial state, a grid that is not periodic, and a
        # restriction that drops the mesh
        fixed, index = None, None
        if case == "saddle":
            (prob, u), index = _saddle(), 1
        elif case == "halfdisk":
            mesh = build_mesh(DomainSpec("halfdisk", R=8.0, level=2, grade=2.0))
            prob = Problem(mesh, CurvatureSpec(K=-1.0, h=[2.0, 0.0], K_bg=0.0))
            u = prob.zero_state()
        else:
            prob = self.problem("cylinder", 2)
            u = np.full(prob.n_dof, 1.0)
            if case == "bumped":
                u[5] += 1e-6
        Q = prob.hessian(u)
        if case == "fixed":
            fixed = np.zeros(prob.n_dof, dtype=bool)
            fixed[prob.mesh.vertex_dof[prob.mesh.components[0].verts]] = True
            free = np.nonzero(~fixed)[0]
            Q = Q.tocsr()[free][:, free]
        sizes = self.counted_band(monkeypatch)
        rep = morse_index(prob, u, fixed=fixed)
        assert rep.negative_count == (dense_count(Q) if index is None else index)
        if case == "bumped":
            # the departure of one dof bounds the symbol's error, and no
            # eigenvalue lies within twice it of the cut
            assert sizes == []
        else:
            # the fixed dofs stay in the band as identity rows, the
            # half-disk's centre is its border
            assert sizes[0] == prob.n_dof - (case == "halfdisk")

    def test_nested_cylinder_minimize_factors_nothing(self, monkeypatch):
        # one symbol read per level: the stiffness stencil's, shared by B
        # and the certificate's Hessian
        import prescurv.energy as energy
        sizes, reads, real = self.counted_band(monkeypatch), [], energy._stencil_symbol

        def counted(W):
            reads.append(W.shape[2])
            return real(W)

        monkeypatch.setattr(energy, "_stencil_symbol", counted)
        prob = Problem(build_mesh(DomainSpec("cylinder", L=1.0, level=4)),
                       CurvatureSpec(K=-1.0, h=[0.5, 0.5], K_bg=-1.0))

        def descend(p, u):
            return minimize(p, init=u, tol=1e-10)

        rep = nested(prob, prob.zero_state(), descend, descend)
        assert rep.converged and rep.morse_index == 0
        assert [e["morse_index"] for e in rep.levels] == [0] * 5
        assert sorted(reads) == [16 * 2**level for level in range(5)]
        assert sizes == []
