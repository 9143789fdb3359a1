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

``K`` and each ``h`` are :class:`Field` objects: arithmetic expressions
such as ``-1 - 0.5*cos(s)``.  An expression reads the ambient coordinates ``x``
and ``y`` and the boundary arc-length parameter ``s`` (0 in the
interior); numbers; the constants ``pi`` and ``e``; the elementwise
functions sin, cos, tan, exp, log, sqrt, abs, arctan (or atan), sinh,
cosh, tanh, min and max; and the operators ``+ - * / **`` and unary
sign.  Anything else, attributes, keywords and other names included, is
rejected at parse time with an :class:`ExpressionError` naming it.
"""

from __future__ import annotations

import ast
import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryPoint, Mesh, tangential_derivative

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "arctan": np.arctan,
    "atan": np.arctan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "min": np.minimum,
    "max": np.maximum,
}

_CONSTS = {"pi": math.pi, "e": math.e}
_NAMES = ("x", "y", "s")  # the variables
_GLOBALS = {"__builtins__": {}, **_FUNCS, **_CONSTS}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Constant,
    ast.Load,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
)


class ExpressionError(ValueError):
    """Raised when an expression fails to parse or uses a forbidden name."""


def _parse(text: str):
    """The variables that ``text`` reads, and its compiled code; rejects
    anything outside the expression language."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(f"forbidden syntax {type(node).__name__!r} in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError(f"unknown function call in {text!r}")
            if node.keywords:
                raise ExpressionError("keyword arguments are not allowed")
        if isinstance(node, ast.Name):
            if node.id not in _NAMES and node.id not in _FUNCS and node.id not in _CONSTS:
                raise ExpressionError(f"unknown name {node.id!r} in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric constant in {text!r}")
    names = frozenset(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id in _NAMES)
    return names, compile(tree, "<expr>", "eval")


class Field:
    """Scalar field ``scale * f + shift`` over ``(x, y, s)``, with ``f``
    an expression of the language above.

    Accepts a finite number, held as the expression of its ``repr``, an
    expression string, or another ``Field``.  Affine reparametrizations
    stay inside the class so the perturbed problems of the continuation
    scheme keep exact closed forms under mesh refinement.
    """

    def __init__(self, obj, scale: float = 1.0, shift: float = 0.0):
        if isinstance(obj, Field):
            # collapse nested affine wraps, sharing the parsed expression
            scale, shift = scale * obj._scale, scale * obj._shift + shift
            self.text, self.used_names, self._code = obj.text, obj.used_names, obj._code
        else:
            if isinstance(obj, (int, float)):
                obj = repr(float(obj))
            if not isinstance(obj, str):
                raise TypeError(f"cannot interpret {obj!r} as a scalar field")
            self.text = obj
            self.used_names, self._code = _parse(obj)
        self._scale = float(scale)
        self._shift = float(shift)

    @property
    def is_constant(self) -> bool:
        return not self.used_names

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("field is not constant")
        return float(self(0.0, 0.0))

    def affine(self, scale: float, shift: float = 0.0) -> "Field":
        return Field(self, scale=scale, shift=shift)

    def __call__(self, x, y, s=0.0) -> np.ndarray:
        """Values at the broadcast shape of ``x``, ``y`` and ``s``.  They
        may be infinite or NaN, without a warning: callers check."""
        env = {"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float),
               "s": np.asarray(s, dtype=float)}
        shape = np.broadcast_shapes(*(v.shape for v in env.values()))
        with np.errstate(all="ignore"):
            vals = np.asarray(self._scale * eval(self._code, _GLOBALS, env) + self._shift,
                              dtype=float)
        return vals if vals.shape == shape else np.broadcast_to(vals, shape).copy()

    def describe(self) -> str:
        if (self._scale, self._shift) == (1.0, 0.0):
            return self.text
        return f"{self._scale!r}*({self.text}) + {self._shift!r}"

    def __repr__(self) -> str:
        return f"Field({self.describe()})"


@dataclass(frozen=True)
class CurvatureSpec:
    """Prescribed curvature data for one problem.

    ``h`` lists one entry per boundary component, in mesh component
    order.  ``K_bg`` is the constant background interior curvature and
    ``h_bg`` lists the per-component background boundary curvatures
    (zeros when omitted); together
    they determine ``chi_gen = K_bg*|area| + sum h_bg*length``.
    """

    K: Field
    h: tuple[Field, ...]
    K_bg: float = 0.0
    h_bg: tuple[float, ...] = ()

    def __init__(self, K, h, K_bg: float = 0.0, h_bg=None):
        h_fields = tuple(Field(item) for item in h)
        h_bg = (0.0,) * len(h_fields) if h_bg is None else tuple(float(v) for v in h_bg)
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
    continues the relaxed solutions toward the original data.  Its one
    caller is :class:`prescurv.energy.Problem` at ``eps`` > 0.
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


def _level_set_transverse(D_vals, D_tau):
    """True iff D-1 only vanishes or changes sign where |D_tau| exceeds 1e-9."""
    crossing = False
    ok = True
    for vals, taus in zip(D_vals, D_tau):
        g = vals - 1.0
        on = np.abs(g) <= _MARGIN
        flips = g[:-1] * g[1:] < 0
        if on.any():
            crossing = True
            ok &= bool(np.all(np.abs(taus[on]) > 1e-9))
        if flips.any():
            crossing = True
            idx = np.nonzero(flips)[0]
            near = np.maximum(np.abs(taus[idx]), np.abs(taus[idx + 1]))
            ok &= bool(np.all(near > 1e-9))
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
