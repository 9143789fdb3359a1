"""Problem data: target curvatures, backgrounds, and solvability regimes.

A :class:`CurvatureSpec` bundles the prescribed interior curvature ``K``
(strictly negative), the prescribed boundary curvature ``h`` per boundary
component, and the background pair ``(K_bg, h_bg)`` that fixes the linear
part of the energy.  The scale-invariant ratio

    D = h / sqrt(|K|)

decides which solution mechanism applies: with ``D < 1`` everywhere the
energy is bounded below and a direct minimizer exists (for zero
background this additionally needs a positive total boundary datum),
while ``max D > 1`` together with a negative total boundary datum puts
the problem in the saddle-point regime.  :func:`regime_classify` samples
these hypotheses on a mesh and reports the matching regime with witness
data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .domain import BoundaryPoint, Mesh, tangential_derivative
from .expressions import Expr

FieldLike = Union[float, int, str, Expr, Callable, "Field"]


class Field:
    """Scalar field over ``(x, y, s)``, normalized from several input forms.

    Accepts a number (constant field), an expression string, a compiled
    :class:`Expr`, a callable ``f(x, y, s)``, or another ``Field``.
    Affine reparametrizations ``a*f + b`` stay inside the class so the
    perturbed problems of the continuation scheme keep exact closed
    forms under mesh refinement.
    """

    def __init__(self, obj: FieldLike, scale: float = 1.0, shift: float = 0.0):
        if isinstance(obj, Field):
            # collapse nested affine wraps
            scale, shift = scale * obj._scale, scale * obj._shift + shift
            obj = obj._base
        if isinstance(obj, str):
            obj = Expr(obj)
        if not (isinstance(obj, (int, float, Expr)) or callable(obj)):
            raise TypeError(f"cannot interpret {obj!r} as a scalar field")
        self._base = float(obj) if isinstance(obj, (int, float)) else obj
        self._scale = float(scale)
        self._shift = float(shift)

    @property
    def is_constant(self) -> bool:
        if isinstance(self._base, float):
            return True
        if isinstance(self._base, Expr):
            return not self._base.used_names
        return False

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("field is not constant")
        base = self._base if isinstance(self._base, float) else float(self._base())
        return self._scale * base + self._shift

    def affine(self, scale: float, shift: float = 0.0) -> "Field":
        return Field(self, scale=scale, shift=shift)

    def __call__(self, x, y, s=0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if isinstance(self._base, float):
            vals = np.full(x.shape, self._base)
        elif isinstance(self._base, Expr):
            vals = self._base(x=x, y=y, s=s)
        else:
            vals = np.asarray(self._base(x, y, s), dtype=float)
        return self._scale * vals + self._shift

    def describe(self) -> str:
        if isinstance(self._base, float):
            return repr(self.constant_value())
        if isinstance(self._base, Expr):
            text = self._base.text
        else:
            text = getattr(self._base, "__name__", "<callable>")
        if (self._scale, self._shift) == (1.0, 0.0):
            return text
        return f"{self._scale!r}*({text}) + {self._shift!r}"

    def __repr__(self) -> str:
        return f"Field({self.describe()})"


@dataclass(frozen=True)
class CurvatureSpec:
    """Prescribed curvature data for one problem.

    ``h`` carries one entry per boundary component, in mesh component
    order.  ``K_bg`` is the constant background interior curvature and
    ``h_bg`` the per-component background boundary curvature; together
    they determine ``chi_gen = K_bg*|area| + sum h_bg*length``.
    """

    K: Field
    h: tuple[Field, ...]
    K_bg: float = 0.0
    h_bg: tuple[float, ...] = ()

    def __init__(self, K: FieldLike, h, K_bg: float = 0.0, h_bg=None):
        if isinstance(h, (list, tuple)):
            h_fields = tuple(Field(item) for item in h)
        else:
            h_fields = (Field(h),)
        if h_bg is None:
            h_bg = (0.0,) * len(h_fields)
        elif isinstance(h_bg, (int, float)):
            h_bg = (float(h_bg),) * len(h_fields)
        else:
            h_bg = tuple(float(v) for v in h_bg)
        if len(h_bg) != len(h_fields):
            raise ValueError("h_bg must list one constant per boundary component")
        object.__setattr__(self, "K", Field(K))
        object.__setattr__(self, "h", h_fields)
        object.__setattr__(self, "K_bg", float(K_bg))
        object.__setattr__(self, "h_bg", h_bg)


def background_for(mesh: Mesh) -> tuple[float, tuple[float, ...]]:
    """Geodesic-curvature background of the flat model carrying ``mesh``.

    The flat metric has zero interior curvature everywhere; the boundary
    components contribute their plane-curve curvatures (outer circles
    +1/radius, inner circles -1/radius, straight segments 0).
    """
    spec = mesh.spec
    if spec.kind == "cylinder":
        return 0.0, (0.0, 0.0)
    if spec.kind == "annulus":
        return 0.0, (1.0, -1.0 / spec.r)
    if spec.kind == "halfdisk":
        return 0.0, (0.0, 1.0 / spec.R)
    raise ValueError(f"unknown domain kind {spec.kind!r}")


def eval_K(spec: CurvatureSpec, x, y) -> np.ndarray:
    """Interior curvature values; rejects any non-negative sample."""
    vals = spec.K(x, y)
    if vals.size and vals.max() >= 0:
        raise ValueError(
            f"prescribed interior curvature must be negative (max {vals.max():g})"
        )
    return vals


def eval_h(spec: CurvatureSpec, mesh: Mesh, component: int) -> np.ndarray:
    """Boundary curvature along one component's vertex path."""
    comp = mesh.components[component]
    xy = mesh.vertices[comp.verts]
    return spec.h[component](xy[:, 0], xy[:, 1], comp.s)


def eval_D_field(spec: CurvatureSpec, mesh: Mesh, component: int) -> np.ndarray:
    """Ratio h/sqrt(|K|) along one component's vertex path."""
    xy = mesh.vertices[mesh.components[component].verts]
    return eval_h(spec, mesh, component) / np.sqrt(-eval_K(spec, xy[:, 0], xy[:, 1]))


def eval_D_tau(spec: CurvatureSpec, mesh: Mesh) -> list[np.ndarray]:
    """Tangential derivative of the boundary ratio, one array per component."""
    return [
        tangential_derivative(mesh, c, eval_D_field(spec, mesh, c))
        for c in range(len(mesh.components))
    ]


def boundary_integral_h(spec: CurvatureSpec, mesh: Mesh) -> float:
    """Total boundary datum: trapezoid integral of h over all components."""
    total = 0.0
    for c, comp in enumerate(mesh.components):
        total += float(np.trapezoid(eval_h(spec, mesh, c), comp.s))
    return total


def perturb(spec: CurvatureSpec, eps: float) -> CurvatureSpec:
    """Curvature data of the relaxed problem at regularization ``eps``.

    The relaxed energy adds ``eps`` times a coercive penalty; its
    critical points solve the same equations with data

        K_bg -> (K_bg - eps/2) / (1 + 2 eps)
        K    -> (K - eps/2) / (1 + 2 eps)
        h    ->  h / (1 + 2 eps)
        h_bg ->  h_bg / (1 + 2 eps)

    so ``eps = 0`` returns the problem unchanged and decreasing ``eps``
    continues the relaxed solutions toward the original data.
    """
    if eps < 0:
        raise ValueError("regularization weight must be non-negative")
    a = 1.0 / (1.0 + 2.0 * eps)
    b = -0.5 * eps * a
    return CurvatureSpec(
        K=spec.K.affine(a, b),
        h=tuple(hc.affine(a) for hc in spec.h),
        K_bg=a * spec.K_bg + b,
        h_bg=tuple(a * v for v in spec.h_bg),
    )


class RegimeKind(enum.Enum):
    """Which existence mechanism the sampled hypotheses support."""

    MIN_NEGATIVE_BG = "min-negative-bg"  # K_bg<0, D<1 everywhere: coercive minimization
    MIN_ZERO_BG = "min-zero-bg"  # K_bg=0, D<1, total h>0: minimization on zero background
    SADDLE = "saddle"  # K_bg=0, max D>1, total h<0: saddle-point search
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Regime:
    """Classification verdict with the witnesses that decided it.

    ``level_set_transverse`` reports whether the tangential derivative
    of D is nonzero wherever D crosses 1 (None when it never does);
    the saddle regime requires it.  For constant data on an annulus
    ``annulus_case`` distinguishes the three solvable families:
    "i" (D1+D2 > 0, both below 1), "ii" (D1+D2 < 0, one above 1) and
    "iii" (the opposite unit pair {+1, -1}).
    """

    kind: RegimeKind
    D_max: float
    D_argmax: BoundaryPoint
    h_integral: float
    level_set_transverse: bool | None
    annulus_case: str | None = None


_MARGIN = 1e-9


def _level_set_transverse(D_vals, D_tau, tol: float = 1e-9):
    """True iff D-1 only vanishes or changes sign where D_tau is nonzero."""
    crossing = False
    ok = True
    for vals, taus in zip(D_vals, D_tau):
        g = vals - 1.0
        on = np.abs(g) <= _MARGIN
        flips = g[:-1] * g[1:] < 0
        if on.any():
            crossing = True
            ok &= bool(np.all(np.abs(taus[on]) > tol))
        if flips.any():
            crossing = True
            idx = np.nonzero(flips)[0]
            near = np.maximum(np.abs(taus[idx]), np.abs(taus[idx + 1]))
            ok &= bool(np.all(near > tol))
    return ok if crossing else None


def _annulus_case(spec: CurvatureSpec, mesh: Mesh) -> str | None:
    if mesh.spec.kind != "annulus" or spec.K_bg != 0.0:
        return None
    if not (spec.K.is_constant and all(hc.is_constant for hc in spec.h)):
        return None
    rootk = math.sqrt(-spec.K.constant_value())
    d1, d2 = (hc.constant_value() / rootk for hc in spec.h)
    if d1 + d2 > 0 and max(d1, d2) < 1:
        return "i"
    if d1 + d2 < 0 and max(d1, d2) > 1:
        return "ii"
    if abs(abs(d1) - 1) < 1e-12 and abs(abs(d2) - 1) < 1e-12 and d1 * d2 < 0:
        return "iii"
    return None


def regime_classify(spec: CurvatureSpec, mesh: Mesh) -> Regime:
    """Sample the solvability hypotheses on the mesh boundary.

    Advisory only: solvers accept any data, this records which existence
    mechanism the data satisfies at the mesh sample points.
    """
    if len(spec.h) != len(mesh.components):
        raise ValueError("spec lists a different number of boundary components")
    D_vals = [eval_D_field(spec, mesh, c) for c in range(len(mesh.components))]
    D_tau = eval_D_tau(spec, mesh)
    flat = np.concatenate(D_vals)
    offsets = np.cumsum([0] + [len(v) for v in D_vals])
    k = int(np.argmax(flat))
    comp_idx = int(np.searchsorted(offsets, k, side="right") - 1)
    argmax = mesh.boundary_point(comp_idx, k - offsets[comp_idx])
    D_max = float(flat[k])
    h_int = boundary_integral_h(spec, mesh)
    transverse = _level_set_transverse(D_vals, D_tau)

    kind = RegimeKind.UNCLASSIFIED
    if spec.K_bg < 0 and D_max < 1 - _MARGIN:
        kind = RegimeKind.MIN_NEGATIVE_BG
    elif spec.K_bg == 0 and D_max < 1 - _MARGIN and h_int > 0:
        kind = RegimeKind.MIN_ZERO_BG
    elif (spec.K_bg == 0 and D_max > 1 + _MARGIN and h_int < 0
          and transverse is not False):
        kind = RegimeKind.SADDLE
    return Regime(
        kind=kind,
        D_max=D_max,
        D_argmax=argmax,
        h_integral=h_int,
        level_set_transverse=transverse,
        annulus_case=_annulus_case(spec, mesh),
    )
