"""Critical-point search for the curvature energy.

One Newton engine, a diagonally regularized Newton iteration with
backtracking, serves two acceptance tests:

* :func:`minimize` - energy Armijo acceptance along descent directions,
  certified as a local minimum by an exact Morse index of zero at the
  accepted state (:func:`prescurv.spectral.morse_index`).
* :func:`newton_polish` - residual-decrease acceptance, which converges
  to critical points of any index.

Its directions come from MINRES (Paige & Saunders 1975) preconditioned
by the H1 Gram matrix B, to which the Hessian is spectrally equivalent
uniformly in the mesh size (Mardal & Winther 2011), so the iteration
count does not grow under refinement; a sparse LU factorization of the
shifted Hessian is the fallback.  The preconditioner applies B^{-1}
through ``Operators.solve_B``.

Three drivers build on them:

* :func:`mountain_pass` - samples the segment between a low state and
  a concentrated one, raises :class:`PathCollapseError` when its
  maximum lies at the endpoint level (no pass along it), and otherwise
  polishes the interior maximum with Newton.
* :func:`nested` - nested iteration over the refinement levels of one
  domain (full multigrid; Brandt 1977, Bank & Rose 1982): solve one
  level coarser, prolong, finish with Newton.  Where that fails the
  level is solved directly, which is also the base case at level 0.
* :func:`continuation` - a nested saddle solve (mountain pass at the
  coarsest level where it succeeds) at the first relaxation weight eps,
  then warm started polishes down the schedule; reports a blow-up
  verdict when the states escape upward.

The relaxed functional I_eps = I + eps J with J = int |grad u|^2 +
e^u - u is handled inside :class:`prescurv.energy.Problem`; its critical
points solve the problem with rescaled data, exactly at the discrete
level, so index and mass readings along the continuation transfer
without extra bookkeeping.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import BoundaryPoint, coarsen, prolong
from .energy import B_ORDERING, EnergyBreakdown, Problem, exp_lumped
from .exact import boundary_bubble_state
from .fields import eval_D_field
from .spectral import morse_index

ARMIJO_C = 1e-4
BLOWUP_SUP = 50.0
# Newton regularization sigma * diag(w): first nonzero shift, number of
# factorization tries (sigma grows 4x per try) and line-search halvings
SIGMA_FLOOR = 1e-10
SIGMA_TRIES = 60
MAX_BACKTRACKS = 50
# MINRES Newton directions: SciPy's rtol, iteration cap, largest accepted
# linear residual (dual norm, relative to the gradient's)
KRYLOV_RTOL = 1e-10
KRYLOV_MAXITER = 200
KRYLOV_ACCEPT = 1e-6
# largest sup growth per refinement level of a converged nested solve; a
# bubble one element wide grows by 2 log 2, smooth states by O(h^2)
SUP_GROWTH = math.log(2.0)


class PathCollapseError(RuntimeError):
    """The sampled path's maximum lies at the endpoint level."""


@dataclass
class SolveReport:
    state: np.ndarray
    energy: EnergyBreakdown
    residual_norm: float
    iterations: int
    line_search_trace: list
    converged: bool
    blowup_flag: bool
    method: str
    eps: float = 0.0
    gauss_bonnet: float = math.nan
    morse_index: Optional[int] = None
    message: str = ""
    # relaxed energies along the sampled segment of a mountain pass
    path: Optional[np.ndarray] = None
    # one entry per level tried, coarsest first (see nested)
    levels: list = field(default_factory=list)

    @property
    def sup(self) -> float:
        return float(self.state.max())

    def as_dict(self) -> dict:
        """Everything but the state, which goes to its own file."""
        return {
            "method": self.method,
            "eps": self.eps,
            "converged": self.converged,
            "blowup_flag": self.blowup_flag,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "gauss_bonnet": self.gauss_bonnet,
            "sup": self.sup,
            "energy": asdict(self.energy),
            "morse_index": self.morse_index,
            "message": self.message,
            "line_search_trace": self.line_search_trace,
            # wall seconds stay out so that reruns write identical reports
            "levels": [{k: v for k, v in entry.items() if k != "seconds"}
                       for entry in self.levels],
        }


def _newton_direction(prob: Problem, H: sp.spmatrix, g: np.ndarray, res: float,
                      sigma: float, descent: bool) -> tuple[np.ndarray, float, dict]:
    """Direction from the Newton system (H + sigma diag(w)) d = -g, its shift,
    and trace keys ``linear`` (the solver used) and ``krylov_its`` (MINRES iterations).

    MINRES preconditioned by B runs first, at the current shift, and its
    direction is taken when the linear residual is below ``KRYLOV_ACCEPT``
    times ``res``, the dual norm of g.  Otherwise sigma is grown from
    ``SIGMA_FLOOR`` until a sparse LU factorization succeeds; w carries
    the quadrature weights so sigma is comparable to the potential
    coefficient.  Either direction must be finite and, when ``descent``
    is set, point downhill.
    """
    w, gn, its = prob.ops.w_int, float(np.linalg.norm(g)), []

    def acceptable(d: Optional[np.ndarray]) -> bool:
        return d is not None and bool(np.all(np.isfinite(d))) and (
            not descent or float(g @ d) < -1e-14 * gn * float(np.linalg.norm(d)))

    Hs = H if sigma == 0.0 else H + sp.diags(sigma * w)
    B_inv = spla.LinearOperator(H.shape, matvec=prob.ops.solve_B, dtype=float)
    try:
        d, info = spla.minres(Hs, -g, rtol=KRYLOV_RTOL, maxiter=KRYLOV_MAXITER,
                              M=B_inv, callback=lambda _x: its.append(1))
    except ValueError:  # a B-inner product fell below zero in rounding
        d, info = None, -1
    if info == 0 and acceptable(d) and prob.dual_norm(Hs @ d + g) <= KRYLOV_ACCEPT * res:
        return d, sigma, {"linear": "minres", "krylov_its": len(its)}
    for _ in range(SIGMA_TRIES):
        Hs = H if sigma == 0.0 else H + sp.diags(sigma * w)
        try:
            d = spla.splu(Hs.tocsc(), permc_spec=B_ORDERING).solve(-g)
        except RuntimeError:
            d = None
        if acceptable(d):
            return d, sigma, {"linear": "lu", "krylov_its": len(its)}
        sigma = max(4.0 * sigma, SIGMA_FLOOR)
    raise RuntimeError("could not regularize the Newton system"
                       + (" into a descent direction" if descent else ""))


def _newton(prob: Problem, u: np.ndarray, eps: float, tol: float,
            max_iter: int, blowup_threshold: float, armijo: bool) -> SolveReport:
    """Regularized Newton iteration behind :func:`minimize` and
    :func:`newton_polish`; ``armijo`` selects the acceptance test.

    With ``armijo`` set, directions must descend and steps must satisfy
    the Armijo condition on the energy, except at the floating point
    floor, where energy decrements drown in rounding and steps are
    accepted by residual decrease instead.  Without it every step is
    accepted by residual decrease, so the iteration converges to
    critical points of any index.  Both tests backtrack by halving.
    """
    sigma = 0.0
    trace: list[dict] = []
    blow = False
    message = ""
    g = prob.gradient(u, eps)
    res = prob.dual_norm(g)
    it = 0
    for it in range(max_iter):
        if res < tol:
            break
        e = prob.energy(u, eps) if armijo else None
        try:
            d, sigma, linear = _newton_direction(prob, prob.hessian(u, eps), g, res, sigma, armijo)
        except RuntimeError as exc:
            message = str(exc)
            break
        t, ok, bt, mode = 1.0, False, 0, "residual"
        gd = float(g @ d)
        # the floor of the energy difference scales with the terms that
        # cancel in the total, not with the total itself
        if e is not None and -gd >= 1e-13 * (
                1.0 + abs(e.dirichlet) + abs(e.linear) + abs(e.area)
                + abs(e.boundary) + eps * abs(e.j_total)):
            mode = "armijo"
            for bt in range(MAX_BACKTRACKS):
                trial = prob.energy(u + t * d, eps)
                if (math.isfinite(trial.total_eps)
                        and trial.total_eps <= e.total_eps + ARMIJO_C * t * gd):
                    ok = True
                    break
                t *= 0.5
        else:
            # under armijo this is the quadratic basin, where energy
            # decrements fall below the floating point floor
            for bt in range(MAX_BACKTRACKS):
                g_trial = prob.gradient(u + t * d, eps)
                res_trial = prob.dual_norm(g_trial)
                if res_trial < (1.0 - ARMIJO_C * t) * res:
                    ok = True
                    break
                t *= 0.5
        trace.append({"iter": it, "residual": res,
                      "energy": None if e is None else e.total_eps,
                      "step": t, "sigma": sigma, "backtracks": bt, "mode": mode, **linear})
        if not ok:
            message = ("line search failed to reduce the "
                       + ("energy" if mode == "armijo" else "residual"))
            break
        u = u + t * d
        # a full step means the shift is no longer needed, so the last
        # steps of the basin converge quadratically
        sigma = 0.0 if t == 1.0 or sigma < 1e-14 else 0.5 * sigma
        if mode == "armijo":
            g = prob.gradient(u, eps)
            res = prob.dual_norm(g)
        else:
            g, res = g_trial, res_trial
        if u.max() > blowup_threshold:
            blow = True
            message = "state escaped upward"
            break
    if not message and res >= tol:
        message = f"no convergence within max_iter={max_iter} iterations"
    final = prob.energy(u, eps)
    return SolveReport(
        state=u, energy=final, residual_norm=res, iterations=it,
        line_search_trace=trace, converged=not message,
        blowup_flag=blow or final.blowup_flag,
        method="minimize" if armijo else "newton-polish", eps=eps,
        gauss_bonnet=prob.gauss_bonnet_residual(u, eps), message=message,
    )


def minimize(prob: Problem, eps: float = 0.0,
             init: Optional[np.ndarray] = None, tol: float = 1e-8,
             max_iter: int = 100,
             blowup_threshold: float = BLOWUP_SUP) -> SolveReport:
    """Damped Newton descent on the (relaxed) energy.

    ``converged`` demands a residual below ``tol`` in the dual norm and a
    Morse index of zero: the Hessian at the accepted state has no
    eigenvalue below ``-NEG_TOL``, counted exactly by
    :func:`prescurv.spectral.morse_index`, from Fourier-mode Sturm
    counts where the state is rotation invariant on a periodic grid and
    from an LDL^T factorization otherwise.  The index is stored in
    ``morse_index``, so the report certifies a local minimum rather than
    any critical point.
    """
    u = prob.zero_state() if init is None else np.array(init, dtype=float)
    rep = _newton(prob, u, eps, tol, max_iter, blowup_threshold, armijo=True)
    if rep.converged:
        rep.morse_index = morse_index(prob, rep.state, eps).negative_count
        if rep.morse_index:
            rep.converged = False
            rep.message = "stationary point is not a local minimum"
    return rep


def newton_polish(prob: Problem, init: np.ndarray, eps: float = 0.0,
                  tol: float = 1e-10, max_iter: int = 60,
                  blowup_threshold: float = BLOWUP_SUP) -> SolveReport:
    """Residual-driven Newton iteration; converges to critical points of
    any index, so it finishes saddle searches."""
    return _newton(prob, np.array(init, dtype=float), eps, tol, max_iter,
                   blowup_threshold, armijo=False)


# -- concentrated test functions ---------------------------------------------


MU_RATIOS = (1.5, 1.3, 1.2, 1.1, 1.05, 1.02, 1.01, 1.005, 1.002, 1.001)


def build_u1(prob: Problem, point: BoundaryPoint, q2: float = 0.1,
             u0: Optional[np.ndarray] = None, eps: float = 0.0,
             below: Optional[float] = None) -> np.ndarray:
    """Concentrated state of negative energy near a boundary point.

    Walks the ``MU_RATIOS`` schedule of bubbles centered at
    q = point + q2 * n (outside the surface) and returns the first whose
    energy falls below ``below`` (zero by default) and whose boundary
    mass exceeds half that of the flat end u0, the separation level
    below which states are indistinguishable from it.  Fails when the schedule
    exhausts, which is the expected outcome wherever the boundary ratio
    h/sqrt(|K|) stays at or below one.
    """
    if u0 is None:
        u0 = prob.zero_state() - 16.0
    delta = 0.5 * prob.ops.boundary_integral(exp_lumped(u0)[1])
    if below is None:
        below = 0.0
    logK = np.log(-prob.K_dof)
    for ratio in MU_RATIOS:
        phi = boundary_bubble_state(prob.mesh, point, q2, ratio / q2)
        if phi is None:
            continue
        phi = phi - logK
        e = prob.energy(phi, eps)
        if e.total_eps < below and prob.ops.boundary_integral(exp_lumped(phi)[1]) > delta:
            return phi
    comp = prob.mesh.components[point.component]
    edge = comp.edge_lengths[min(point.index, comp.n_edges - 1)]
    raise RuntimeError(
        "test function schedule exhausted without reaching a negative level;"
        " the boundary ratio may not exceed one near the anchor point, or the"
        f" mesh (boundary edge {edge:.3g} at the anchor) may be too coarse for"
        f" the bubble width q2={q2:g}")


# -- mountain pass ------------------------------------------------------------


def mountain_pass(prob: Problem, eps: float, u0: np.ndarray, u1: np.ndarray,
                  n_points: int = 17, tol: float = 1e-8,
                  blowup_threshold: float = BLOWUP_SUP) -> SolveReport:
    """Sample the segment [u0, u1] at ``n_points`` states and polish its
    interior maximum with Newton.

    When no interior state rises above the endpoint level the landscape
    carries no pass between the endpoints along the segment and
    :class:`PathCollapseError` is raised.  The report's first trace
    entry records the maximum the polish starts from (its index, level
    and residual), and ``path`` holds the energies along the segment.
    """
    ts = np.linspace(0.0, 1.0, n_points)[:, None]
    pts = (1.0 - ts) * np.asarray(u0, float)[None, :] + ts * np.asarray(u1, float)[None, :]
    energies = np.array([prob.energy(v, eps).total_eps for v in pts])
    e_end = max(energies[0], energies[-1])
    if energies.max() <= e_end + 1e-9 * (1.0 + abs(e_end)):
        raise PathCollapseError(
            "path maximum lies at the endpoint level: no pass between the endpoints")
    k = 1 + int(np.argmax(energies[1:-1]))
    trace = [{"sweep": 0, "max_index": k, "level": energies[k],
              "residual": prob.dual_norm(prob.gradient(pts[k], eps))}]
    polished = newton_polish(prob, pts[k], eps=eps, tol=tol,
                             blowup_threshold=blowup_threshold)
    return SolveReport(
        state=polished.state, energy=polished.energy,
        residual_norm=polished.residual_norm,
        iterations=1 + polished.iterations,
        line_search_trace=trace + polished.line_search_trace,
        converged=polished.converged, blowup_flag=polished.blowup_flag,
        method="mountain-pass", eps=eps,
        gauss_bonnet=polished.gauss_bonnet, message=polished.message,
        path=energies,
    )


def _constant_start(prob: Problem, eps: float) -> float:
    """Constant c minimizing the relaxed energy E over constant states.

    S annihilates constants, so E'(c) = q(e^{c/2}) with q(x) = a x^2 -
    2 H x + c0, a = 2 int |K| + eps |Omega|, H = sum bd h and c0 =
    2 chi_gen - eps |Omega|; E' turns positive at the larger root x+ of
    q, so c = 2 log x+.  Raises :class:`RuntimeError` when x+ is not
    real and positive.
    """
    zero = prob.zero_state()
    area = float(prob.ops.w_int.sum())
    a = 2.0 * prob.interior_mass(zero) + eps * area
    H = sum(prob.boundary_masses(zero))
    c0 = 2.0 * prob.chi_gen - eps * area
    disc = H * H - a * c0
    if disc >= 0:
        # the form that does not cancel H against the root
        x = (H + math.sqrt(disc)) / a if H >= 0 else c0 / (H - math.sqrt(disc))
        if x > 0:
            return 2.0 * math.log(x)
    raise RuntimeError(
        f"no constant minimizes the relaxed energy at eps={eps:g}: E'(c) ="
        f" {a:.6g} x^2 - {2 * H:.6g} x + {c0:.6g}, x = e^(c/2), has no positive root")


def relaxed_endpoints(prob: Problem, point: BoundaryPoint, eps: float,
                      q2: float = 0.1, tol: float = 1e-8) -> tuple[SolveReport, np.ndarray]:
    """Pass endpoints adapted to the relaxation weight: the stable low
    state (a certified local minimum of the relaxed energy, found from
    the best constant) and a concentrated state strictly below it.

    Raises :class:`RuntimeError` when the low state is not certified, so
    no pass starts from an uncertified endpoint.
    """
    c0 = _constant_start(prob, eps)
    low = minimize(prob, eps=eps, init=np.full(prob.n_dof, c0), tol=tol)
    if not low.converged:
        raise RuntimeError(f"low endpoint at eps={eps} not certified: {low.message}")
    level = low.energy.total_eps
    u1 = build_u1(prob, point, q2=q2, eps=eps,
                  below=level - 0.01 * (1.0 + abs(level)),
                  u0=low.state)
    return low, u1


# -- nested iteration ---------------------------------------------------------


def _attempt(levels: list, prob: Problem, method: str, solve: Callable,
             u: Optional[np.ndarray], index: Optional[int] = None) -> SolveReport:
    """``solve(prob, u)``, timed and recorded as one entry of ``levels``,
    which becomes the report's table; a converged result whose Morse
    index is not ``index`` counts as failed."""
    entry = {"level": prob.mesh.spec.level, "n_dof": prob.n_dof, "method": method}
    levels.append(entry)
    start = time.perf_counter()
    try:
        rep = solve(prob, u)
    except RuntimeError as exc:
        entry["message"] = str(exc)
        raise
    finally:
        entry["seconds"] = time.perf_counter() - start
    if index is not None and rep.converged and rep.morse_index != index:
        rep.converged = False
        rep.message = f"Morse index {rep.morse_index} differs from {index} one level coarser"
    entry.update(iterations=rep.iterations, residual_norm=rep.residual_norm,
                 energy=rep.energy.total_eps, sup=rep.sup, morse_index=rep.morse_index)
    if not rep.converged:
        entry["message"] = rep.message
    rep.levels = levels
    return rep


def nested(prob: Problem, init: Optional[np.ndarray], direct: Callable,
           finish: Callable, levels: Optional[list] = None) -> SolveReport:
    """Coarse-to-fine nested solve of ``prob``.

    Solves the same data one level coarser (recursively, down to level
    0), prolongs that state and returns ``finish(prob, state)``.  Returns
    ``direct(prob, init)`` instead when the coarse solve fails or raises,
    or the finish fails or changes the Morse index.  Coarser levels get
    ``init`` (a state on ``prob``'s mesh, or None) at their own dofs.  A
    ``RuntimeError`` of ``direct`` at ``prob``'s level propagates.  The
    report's ``levels`` (appended to ``levels`` when given) lists each
    level tried, coarsest first: level, n_dof, method (``direct`` or
    ``finish``), iterations, residual_norm, energy (relaxed total), sup,
    morse_index, seconds, and the message of a failed attempt.

    A converged result is then checked against the coarser level that
    converged last: a sup that grows by more than ``SUP_GROWTH`` per
    level is a bubble at the mesh scale, which the discrete energy
    admits wherever the boundary ratio D exceeds one, so the report is
    marked not converged.  Without a coarser converged level the report
    stays converged and its message says it is unverified.
    """
    rep = _nested(prob, init, direct, finish, [] if levels is None else levels)
    if rep.converged:
        done = [e for e in rep.levels if "message" not in e]
        if len(done) < 2:
            rep.message = "unverified: no coarser level converged to compare sup with"
        else:
            a, b = done[-2:]
            growth = (b["sup"] - a["sup"]) / (b["level"] - a["level"])
            if growth > SUP_GROWTH:
                D_max = max(float(eval_D_field(prob.spec, prob.mesh, c).max())
                            for c in range(len(prob.mesh.components)))
                rep.converged = False
                rep.message = b["message"] = (
                    f"sup grows by {growth:.3g} per level from level {a['level']}"
                    f" to {b['level']}, above log 2: a bubble at the mesh scale"
                    f" that refinement does not resolve (D_max = {D_max:.3g})")
    return rep


def _nested(prob: Problem, init: Optional[np.ndarray], direct: Callable,
            finish: Callable, levels: list) -> SolveReport:
    mesh, coarse = prob.mesh, None
    if mesh.spec.level > 0:
        coarse_mesh = coarsen(mesh)
        coarse_init = init
        if init is not None:  # injection: coarse vertex (i, j) is fine (2i, 2j)
            coarse_init = np.empty(coarse_mesh.n_dof)
            coarse_init[coarse_mesh.vertex_dof[coarse_mesh.grid]] = (
                init[mesh.vertex_dof[mesh.grid[::2, ::2]]])
        with contextlib.suppress(RuntimeError):
            coarse = _nested(Problem(coarse_mesh, prob.spec), coarse_init,
                             direct, finish, levels)
    if coarse is not None and coarse.converged:
        with contextlib.suppress(RuntimeError):
            rep = _attempt(levels, prob, "finish", finish,
                           prolong(coarse_mesh, mesh) @ coarse.state, coarse.morse_index)
            if rep.converged:
                if rep.path is None:
                    rep.path = coarse.path
                return rep
    return _attempt(levels, prob, "direct", direct, init)


def _saddle_steps(anchor: Callable, eps: float, tol: float, n_points: int,
                  q2: float, blowup_threshold: float) -> tuple[Callable, Callable]:
    """(direct, finish) of :func:`nested` for a saddle at ``eps``: a
    mountain pass from the relaxed endpoints at ``anchor(prob)``, or a
    Newton polish; both index the state unless it blew up."""

    def indexed(prob, rep):
        if not rep.blowup_flag:
            rep.morse_index = morse_index(prob, rep.state, eps=eps).negative_count
        return rep

    def direct(prob, _init):
        low, u1 = relaxed_endpoints(prob, anchor(prob), eps, q2=q2, tol=tol)
        return indexed(prob, mountain_pass(prob, eps, low.state, u1, n_points=n_points,
                                           tol=tol, blowup_threshold=blowup_threshold))

    def finish(prob, u):
        return indexed(prob, newton_polish(prob, u, eps=eps, tol=tol,
                                           blowup_threshold=blowup_threshold))

    return direct, finish


def continuation(prob: Problem,
                 point: Union[BoundaryPoint, Callable[[Problem], BoundaryPoint]],
                 eps_schedule: Sequence[float] = (0.05, 0.02, 0.01, 0.005),
                 tol: float = 1e-8, n_points: int = 17, q2: float = 0.1,
                 blowup_threshold: float = BLOWUP_SUP) -> list[SolveReport]:
    """Nested mountain-pass solve at the first relaxation weight, then
    warm started Newton polishes at ``prob``'s level down the schedule;
    a polish that fails without blowing up falls back to the nested solve.

    ``point`` anchors the concentrated endpoint: a function giving it on
    each level's problem, or a boundary point of ``prob``'s mesh, which
    coarser levels replace by their vertex nearest in arclength.  Stops
    early with the blow-up flag set when a state escapes above the
    threshold, which is the verdict the relaxation family is designed to
    expose.  Each report carries the Morse index of the relaxed form at
    its state and its ``levels`` table (see :func:`nested`).
    """
    anchor = point if callable(point) else (
        lambda p: p.mesh.boundary_point_at(point.component, point.s))
    reports: list[SolveReport] = []
    u = None
    for eps in eps_schedule:
        direct, finish = _saddle_steps(anchor, eps, tol, n_points, q2, blowup_threshold)
        levels: list[dict] = []
        if u is not None:
            rep = _attempt(levels, prob, "finish", finish, u)
        if u is None or not (rep.converged or rep.blowup_flag):
            rep = nested(prob, None, direct, finish, levels)
        if u is not None:
            rep.method = "continuation"
        rep.eps = eps
        reports.append(rep)
        if rep.blowup_flag:
            break
        u = rep.state
    return reports
