"""Critical-point search for the curvature energy.

One Newton engine, an inexact Newton iteration with backtracking,
serves two acceptance tests:

* :func:`minimize` - energy Armijo acceptance along descent directions,
  certified as a local minimum by an exact Morse index of zero at the
  accepted state (:func:`prescurv.spectral.morse_index`).
* :func:`newton_polish` - residual-decrease acceptance, which converges
  to critical points of any index.

Its directions come from a short preconditioned Krylov solve that stops
once the true dual norm of its residual is within a forcing term of the
gradient's: conjugate gradients cut short at nonpositive curvature for
descent steps (:func:`_cg`, a line-search Newton-CG; Steihaug 1983,
Nocedal & Wright 2006, Algorithm 7.1), MINRES for saddle polishes
(Paige & Saunders 1975, :func:`_minres`).  ``Operators.preconditioner``
preconditions both.  Where the Hessian is block-circulant on a periodic
grid (rotation-invariant states on the cylinder and the annulus) and
every Fourier mode block of its symbol is positive definite, that is the
inverse of the symbol, T. Chan's optimal circulant (Chan 1988), exact up
to the Hessian's departure from the symbol, so the solve takes one
iteration.  Everywhere else it is B^{-1}, the inverse of the H1 Gram
matrix, to which the Hessian is spectrally equivalent uniformly in the
mesh size (Mardal & Winther 2011), so the iteration count does not grow
under refinement, and the norm the recurrences track is the dual norm.

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

The relaxation weight eps belongs to the :class:`prescurv.energy.Problem`
(the relaxed functional I + eps J with J = int |grad u|^2 + e^u - u is
(1 + 2 eps) times I of perturbed data, exactly), so every solver,
certificate and identity here reads the data its state solves and takes
no eps of its own; :func:`continuation` builds one problem per weight.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .domain import BoundaryPoint, coarsen, inject, prolong
from .energy import EnergyBreakdown, Problem, exp_lumped
from .exact import BUBBLE_RATIOS, boundary_bubble_state
from .fields import eval_D_field
from .spectral import morse_index

ARMIJO_C = 1e-4
BLOWUP_SUP = 50.0
MAX_BACKTRACKS = 50  # line-search halvings
# Krylov Newton directions: iteration cap, and the range of the forcing
# term eta, the largest accepted linear residual (dual norm) relative to
# the gradient's
KRYLOV_MAXITER = 200
FORCING_MIN = 1e-6
FORCING_MAX = 0.1
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
        """Everything but the state, which goes to its own file, and the path."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("state", "path")}
        return {**out, "sup": self.sup, "energy": asdict(self.energy),
                # wall seconds stay out so that reruns write identical reports
                "levels": [{k: v for k, v in entry.items() if k != "seconds"}
                           for entry in self.levels]}


def _minres(A, b: np.ndarray, M: Callable, norm: Callable, target: float,
            maxiter: int = KRYLOV_MAXITER) -> tuple[Optional[np.ndarray], int]:
    """Preconditioned MINRES (Paige & Saunders 1975) for A x = b from
    x = 0, with A symmetric and M applying an SPD approximation of A^{-1};
    returns (x, iterations), or (None, iterations) where it gives up.

    Its recurrence tracks the M-norm sqrt(r^T M r) of the residual
    r = b - A x, which is the dual norm where M is B^{-1}.  Once that
    estimate is at most ``target``, the true ``norm(b - A x)`` is checked,
    and the iteration goes on while it exceeds ``target``.  It gives up at
    ``maxiter``, at a negative preconditioner inner product, on a value
    that is not finite, or where the Krylov space is exhausted unsolved.
    """
    x, y = np.zeros_like(b), M(b)
    beta2 = float(b @ y)
    if not 0.0 <= beta2 < math.inf:
        return None, 0
    if beta2 == 0.0:  # b = 0, M being SPD
        return x, 0
    w, w_old, r_old, r = np.zeros_like(b), np.zeros_like(b), b, b
    oldb, dbar, epsln, cs, sn = 0.0, 0.0, 0.0, -1.0, 0.0
    beta = phibar = math.sqrt(beta2)
    for its in range(1, maxiter + 1):
        # Lanczos: the next vector v = M r / beta, orthonormal in the
        # M^{-1} inner product, and its coefficients alfa and beta
        v = y / beta
        y = A @ v
        if oldb:
            y -= (beta / oldb) * r_old
        alfa = float(v @ y)
        y -= (alfa / beta) * r
        r_old, r = r, y
        y = M(r)
        beta2 = float(r @ y)
        # a negative preconditioner inner product or a value not finite
        if not 0.0 <= beta2 < math.inf:
            return None, its
        oldb, beta = beta, math.sqrt(beta2)
        # the previous rotation, then one that annihilates beta
        delta, gbar = cs * dbar + sn * alfa, sn * dbar - cs * alfa
        oldeps, epsln, dbar = epsln, sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).tiny)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w_old *= -oldeps
        w_old -= delta * w
        w_old += v
        w_old /= gamma
        w, w_old = w_old, w
        x += phi * w
        if phibar <= target and norm(b - A @ x) <= target:
            return x, its
        if beta == 0.0:  # the Krylov space is exhausted
            return None, its
    return None, maxiter


def _cg(A, b: np.ndarray, M: Callable, norm: Callable, target: float,
        maxiter: int = KRYLOV_MAXITER) -> tuple[np.ndarray, int, bool]:
    """Preconditioned conjugate gradients for A x = b from x = 0, with A
    symmetric and M an SPD approximation of A^{-1}; returns (x, iterations,
    whether x meets ``target``), checked as in :func:`_minres`.

    At the first direction p with p^T A p <= 0 it returns the last
    iterate, or M b if p is the first direction; at ``maxiter`` or an M
    inner product that is negative or not finite, the last iterate.  Each
    such iterate has b^T x > 0 (Steihaug 1983): with b = -g, it descends.
    """
    x, r = np.zeros_like(b), b.copy()
    p = M(r)
    rz = float(r @ p)
    for its in range(1, maxiter + 1):
        q = A @ p
        curv = float(p @ q)
        if curv <= 0.0:
            return (x if its > 1 else p), its, False
        alpha = rz / curv
        x += alpha * p
        r -= alpha * q
        z = M(r)
        rz, rz_old = float(r @ z), rz
        if not 0.0 <= rz < math.inf:
            return x, its, False
        if rz <= target * target and norm(b - A @ x) <= target:
            return x, its, True
        p = z + (rz / rz_old) * p
    return x, maxiter, False


def _newton_direction(prob: Problem, scale: float, diag: np.ndarray, g: np.ndarray,
                      target: float, descent: bool) -> tuple[np.ndarray, dict]:
    """Direction from the Newton system H d = -g, H = ``scale * S +
    diag(diag)`` the Hessian, to a dual-norm residual of ``target``, and
    trace keys ``linear`` and ``krylov_its``.  With ``descent`` set,
    :func:`_cg` solves it (``linear`` "cg") or is cut short ("curvature");
    else :func:`_minres` does ("minres").  A MINRES that gives up, a
    direction that is not finite and, under ``descent``, one that does
    not point downhill raise.
    """
    A, M = prob.ops.plus_diagonal(scale, diag), prob.ops.preconditioner(scale, diag)
    if descent:
        d, its, solved = _cg(A, -g, M, prob.ops.dual_norm, target)
        linear = "cg" if solved else "curvature"
    else:
        d, its = _minres(A, -g, M, prob.ops.dual_norm, target)
        linear = "minres"
        if d is None:
            raise RuntimeError(f"MINRES gave up on the Newton system after {its} iterations")
    if not np.all(np.isfinite(d)):
        raise RuntimeError("the Newton direction is not finite")
    if descent:
        # a blown-up gradient overflows the norms to inf, which fails the
        # test as it should, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            downhill = float(g @ d) < -1e-14 * float(np.linalg.norm(g) * np.linalg.norm(d))
        if not downhill:
            raise RuntimeError("the Newton direction does not descend")
    return d, {"linear": linear, "krylov_its": its}


def _newton(prob: Problem, u: np.ndarray, tol: float,
            max_iter: int, blowup_threshold: float, armijo: bool) -> SolveReport:
    """Inexact Newton iteration behind :func:`minimize` and
    :func:`newton_polish`; ``armijo`` selects the acceptance test.

    With ``armijo`` set, directions must descend and steps must satisfy
    the Armijo condition on the energy, except at the floating point
    floor, where energy decrements drown in rounding and steps are
    accepted by residual decrease instead.  Without it every step is
    accepted by residual decrease, so the iteration converges to
    critical points of any index.  Both tests backtrack by halving.  A
    sup above ``blowup_threshold`` stops it as a blow-up; a sup below
    ``-blowup_threshold``, where e^u vanishes and the energy can fall
    without bound, stops it as a downward escape.

    Each direction solves its linear system only to the forcing term
    eta (Dembo, Eisenstat & Steihaug 1982) relative to ``res``
    (:func:`_newton_direction`).  Without ``armijo`` eta follows
    Eisenstat & Walker's (1996) second rule: eta = 0.9 (res /
    res_prev)^2, clipped to [``FORCING_MIN``, ``FORCING_MAX``], which
    gives 0.1 at the first step.  Loose while the residual falls
    slowly and tight as it falls fast, it keeps the local convergence
    superlinear without solving further than the step needs.  Their
    safeguard, max(eta, 0.9 eta_prev^2) where that term exceeds 0.1,
    cannot engage under the cap of 0.1.  Descent directions keep eta at
    ``FORCING_MIN``: an early Krylov iterate leans toward preconditioned
    steepest descent, which can follow an energy that is unbounded below
    to a downward escape where the Newton direction reaches the local
    minimum.  A MINRES target is floored at ``tol`` / 10: near tol,
    eta * res can lie below the dual norm that rounding lets b - A x
    reach, and a direction solved to tol / 10 already takes the residual
    below tol.
    """
    trace: list[dict] = []
    blow = False
    g = prob.gradient(u)
    res = res_prev = prob.ops.dual_norm(g)
    # no direction solves to a target that is not finite
    message = "" if math.isfinite(res) else "the residual of the start is not finite"
    it = 0
    for it in range(0 if message else max_iter):
        if res < tol:
            break
        eta = FORCING_MIN if armijo else min(
            max(0.9 * (res / res_prev) ** 2, FORCING_MIN), FORCING_MAX)
        res_prev = res
        e = prob.energy(u) if armijo else None
        try:
            d, linear = _newton_direction(prob, *prob.hessian_parts(u), g,
                                          eta * res if armijo else max(eta * res, 0.1 * tol),
                                          armijo)
        except RuntimeError as exc:
            message = str(exc)
            break
        t, ok, bt, mode = 1.0, False, 0, "residual"
        gd = float(g @ d)
        # the floor of the energy difference scales with the terms that
        # cancel in the total, not with the total itself
        if e is not None and -gd >= 1e-13 * (
                1.0 + abs(e.dirichlet) + abs(e.linear) + abs(e.area) + abs(e.boundary)):
            mode = "armijo"
            for bt in range(MAX_BACKTRACKS):
                trial = prob.energy(u + t * d)
                if (math.isfinite(trial.total_eps)
                        and trial.total_eps <= e.total_eps + ARMIJO_C * t * gd):
                    ok = True
                    break
                t *= 0.5
        else:
            # under armijo this is the quadratic basin, where energy
            # decrements fall below the floating point floor
            for bt in range(MAX_BACKTRACKS):
                g_trial = prob.gradient(u + t * d)
                res_trial = prob.ops.dual_norm(g_trial)
                if res_trial < (1.0 - ARMIJO_C * t) * res:
                    ok = True
                    break
                t *= 0.5
        trace.append({"iter": it, "residual": res,
                      "energy": None if e is None else e.total_eps,
                      "step": t, "backtracks": bt, "mode": mode, **linear})
        if not ok:
            message = ("line search failed to reduce the "
                       + ("energy" if mode == "armijo" else "residual"))
            break
        u = u + t * d
        if mode == "armijo":
            g = prob.gradient(u)
            res = prob.ops.dual_norm(g)
        else:
            g, res = g_trial, res_trial
        sup = float(u.max())
        if abs(sup) > blowup_threshold:
            blow = sup > 0.0
            message = "state escaped " + ("upward" if blow else "downward")
            break
    if not message and res >= tol:
        message = f"no convergence within max_iter={max_iter} iterations"
    final = prob.energy(u)
    return SolveReport(
        state=u, energy=final, residual_norm=res, iterations=it,
        line_search_trace=trace, converged=not message,
        blowup_flag=blow or final.blowup_flag,
        method="minimize" if armijo else "newton-polish", eps=prob.eps,
        gauss_bonnet=prob.gauss_bonnet_residual(u), message=message,
    )


def minimize(prob: Problem, init: Optional[np.ndarray] = None, tol: float = 1e-8,
             max_iter: int = 100,
             blowup_threshold: float = BLOWUP_SUP) -> SolveReport:
    """Damped Newton descent on the energy of ``prob``.

    ``converged`` demands a residual below ``tol`` in the dual norm and a
    Morse index of zero: the Hessian at the accepted state has no
    eigenvalue below ``-NEG_TOL``, counted exactly by
    :func:`prescurv.spectral.morse_index`.  The index is stored in
    ``morse_index``, so the report certifies a local minimum rather than
    any critical point.
    """
    u = prob.zero_state() if init is None else np.array(init, dtype=float)
    rep = _newton(prob, u, tol, max_iter, blowup_threshold, armijo=True)
    if rep.converged:
        rep.morse_index = morse_index(prob, rep.state).negative_count
        if rep.morse_index:
            rep.converged = False
            rep.message = "stationary point is not a local minimum"
    return rep


def newton_polish(prob: Problem, init: np.ndarray, tol: float = 1e-10,
                  blowup_threshold: float = BLOWUP_SUP) -> SolveReport:
    """Residual-driven Newton iteration of at most 60 steps; converges to
    critical points of any index, so it finishes saddle searches."""
    return _newton(prob, np.array(init, dtype=float), tol, 60,
                   blowup_threshold, armijo=False)


# -- concentrated test functions ---------------------------------------------


def build_u1(prob: Problem, point: BoundaryPoint, q2: float = 0.1,
             u0: Optional[np.ndarray] = None,
             below: Optional[float] = None) -> np.ndarray:
    """Concentrated state of negative energy near a boundary point.

    Walks the ``BUBBLE_RATIOS`` schedule of bubbles centered at
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
    for ratio in BUBBLE_RATIOS:
        phi = boundary_bubble_state(prob.mesh, point, q2, ratio / q2)
        if phi is None:
            continue
        phi = phi - logK
        e = prob.energy(phi)
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


def mountain_pass(prob: Problem, u0: np.ndarray, u1: np.ndarray,
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
    energies = np.array([prob.energy(v).total_eps for v in pts])
    e_end = max(energies[0], energies[-1])
    if energies.max() <= e_end + 1e-9 * (1.0 + abs(e_end)):
        raise PathCollapseError(
            "path maximum lies at the endpoint level: no pass between the endpoints")
    k = 1 + int(np.argmax(energies[1:-1]))
    trace = [{"sweep": 0, "max_index": k, "level": energies[k],
              "residual": prob.ops.dual_norm(prob.gradient(pts[k]))}]
    rep = newton_polish(prob, pts[k], tol=tol, blowup_threshold=blowup_threshold)
    rep.method, rep.iterations, rep.path = "mountain-pass", 1 + rep.iterations, energies
    rep.line_search_trace = trace + rep.line_search_trace
    return rep


def _constant_start(prob: Problem) -> float:
    """Constant c minimizing the energy E of ``prob`` over constant states.

    S annihilates constants, so E'(c) = q(e^{c/2}) with q(x) = a x^2 -
    2 H x + c0, where a = 2 int |K|, H = sum bd h and c0 = 2 chi_gen of
    the data solved, each times ``prob.scale``; E' turns positive at the
    larger root x+ of q, so c = 2 log x+.  Raises :class:`RuntimeError`
    when x+ is not real and positive.
    """
    zero, s = prob.zero_state(), prob.scale
    a = 2.0 * s * prob.interior_mass(zero)
    H = s * sum(prob.boundary_masses(zero))
    c0 = 2.0 * s * prob.chi_gen
    disc = H * H - a * c0
    if disc >= 0:
        # the form that does not cancel H against the root
        x = (H + math.sqrt(disc)) / a if H >= 0 else c0 / (H - math.sqrt(disc))
        if x > 0:
            return 2.0 * math.log(x)
    raise RuntimeError(
        f"no constant minimizes the relaxed energy at eps={prob.eps:g}: E'(c) ="
        f" {a:.6g} x^2 {-2 * H:+.6g} x {c0:+.6g}, x = e^(c/2), has no positive root")


def relaxed_endpoints(prob: Problem, point: BoundaryPoint,
                      q2: float = 0.1, tol: float = 1e-8) -> tuple[SolveReport, np.ndarray]:
    """Pass endpoints adapted to the relaxation weight: the stable low
    state (a certified local minimum of the relaxed energy, found from
    the best constant) and a concentrated state strictly below it.

    Raises :class:`RuntimeError` when the low state is not certified, so
    no pass starts from an uncertified endpoint.
    """
    c0 = _constant_start(prob)
    low = minimize(prob, init=np.full(prob.n_dof, c0), tol=tol)
    if not low.converged:
        raise RuntimeError(f"low endpoint at eps={prob.eps} not certified: {low.message}")
    level = low.energy.total_eps
    u1 = build_u1(prob, point, q2=q2,
                  below=level - 0.01 * (1.0 + abs(level)),
                  u0=low.state)
    return low, u1


# -- nested iteration ---------------------------------------------------------


def _attempt(levels: list, prob: Problem, method: str, solve: Callable,
             u: Optional[np.ndarray]) -> SolveReport:
    """``solve(prob, u)``, timed and recorded as one entry of ``levels``,
    which becomes the report's table."""
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
    ``direct(prob, init)`` instead when the coarse solve or the finish
    fails or raises; ``direct`` and ``finish`` certify the Morse index
    they require (0 for :func:`minimize`, 1 for a saddle), so a finish
    that reaches another index fails.  Coarser levels get
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
                D_max = max(float(eval_D_field(prob.data, prob.mesh, c).max())
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
        coarse_init = None if init is None else inject(coarse_mesh, mesh, init)
        with contextlib.suppress(RuntimeError):
            coarse = _nested(Problem(coarse_mesh, prob.spec, eps=prob.eps), coarse_init,
                             direct, finish, levels)
    if coarse is not None and coarse.converged:
        with contextlib.suppress(RuntimeError):
            rep = _attempt(levels, prob, "finish", finish,
                           prolong(coarse_mesh, mesh, coarse.state))
            if rep.converged:
                if rep.path is None:
                    rep.path = coarse.path
                return rep
    return _attempt(levels, prob, "direct", direct, init)


def _saddle_steps(anchor: Callable, tol: float, n_points: int,
                  q2: float, blowup_threshold: float) -> tuple[Callable, Callable]:
    """(direct, finish) of :func:`nested` for a saddle: a mountain pass
    from the relaxed endpoints at ``anchor(prob)``, or a Newton polish.
    Both index the state unless it blew up, and a converged state whose
    Morse index is not 1 is marked not converged."""

    def indexed(prob, rep):
        if not rep.blowup_flag:
            rep.morse_index = morse_index(prob, rep.state).negative_count
            if rep.converged and rep.morse_index != 1:
                rep.converged = False
                rep.message = f"Morse index {rep.morse_index}, not 1"
        return rep

    def direct(prob, _init):
        low, u1 = relaxed_endpoints(prob, anchor(prob), q2=q2, tol=tol)
        return indexed(prob, mountain_pass(prob, low.state, u1, n_points=n_points,
                                           tol=tol, blowup_threshold=blowup_threshold))

    def finish(prob, u):
        return indexed(prob, newton_polish(prob, u, tol=tol,
                                           blowup_threshold=blowup_threshold))

    return direct, finish


def continuation(prob: Problem, anchor: Callable[[Problem], BoundaryPoint],
                 eps_schedule: Sequence[float] = (0.05, 0.02, 0.01, 0.005),
                 tol: float = 1e-8, n_points: int = 17, q2: float = 0.1,
                 blowup_threshold: float = BLOWUP_SUP) -> list[SolveReport]:
    """Nested mountain-pass solve at the first relaxation weight, then
    warm started Newton polishes at ``prob``'s level down the schedule;
    a polish that fails without blowing up falls back to the nested solve.

    Each weight gets its own problem, ``prob``'s prescribed data relaxed
    at that weight on ``prob``'s operators.  ``anchor`` gives the
    concentrated endpoint's boundary point on each level's problem.
    Stops early with the blow-up flag set when a state escapes above the
    threshold, which is the verdict the relaxation family is designed to
    expose.  Each report carries the Morse index of its problem at its
    state, which must be 1 for it to converge, and its ``levels`` table
    (see :func:`nested`).
    """
    direct, finish = _saddle_steps(anchor, tol, n_points, q2, blowup_threshold)
    reports: list[SolveReport] = []
    u = None
    for eps in eps_schedule:
        relaxed = Problem(prob.mesh, prob.spec, prob.ops, eps=eps)
        levels: list[dict] = []
        if u is not None:
            rep = _attempt(levels, relaxed, "finish", finish, u)
        if u is None or not (rep.converged or rep.blowup_flag):
            rep = nested(relaxed, None, direct, finish, levels)
        if u is not None:
            rep.method = "continuation"
        reports.append(rep)
        if rep.blowup_flag:
            break
        u = rep.state
    return reports
