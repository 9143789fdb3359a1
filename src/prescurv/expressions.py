"""Safe evaluation of closed-form field expressions from config files.

Curvature data is written as arithmetic expressions in the ambient
coordinates ``x, y`` and the boundary arc-length parameter ``s``
(e.g. ``-1 - 0.5*cos(s)``).  Only a whitelist of names and operators is
accepted; anything else is rejected at parse time with a message naming
the offending token.  Compiled expressions evaluate vectorized over
numpy arrays and always broadcast to the input shape.
"""

from __future__ import annotations

import ast
import math

import numpy as np

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


class Expr:
    """A compiled scalar expression over the variables in ``names``."""

    def __init__(self, text: str, names: tuple[str, ...] = ("x", "y", "s")):
        self.text = text
        self.names = names
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from exc
        self._validate(tree)
        self.used_names = frozenset(
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
        )
        self._code = compile(tree, "<expr>", "eval")

    def _validate(self, tree: ast.Expression) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ExpressionError(
                    f"forbidden syntax {type(node).__name__!r} in {self.text!r}"
                )
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                    raise ExpressionError(f"unknown function call in {self.text!r}")
                if node.keywords:
                    raise ExpressionError("keyword arguments are not allowed")
            if isinstance(node, ast.Name):
                if node.id not in self.names and node.id not in _FUNCS and node.id not in _CONSTS:
                    raise ExpressionError(f"unknown name {node.id!r} in {self.text!r}")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant in {self.text!r}")

    def __call__(self, **kwargs) -> np.ndarray:
        env = dict(_FUNCS)
        env.update(_CONSTS)
        shape = None
        for name in self.names:
            val = np.asarray(kwargs.get(name, 0.0), dtype=float)
            env[name] = val
            if val.shape:
                shape = np.broadcast_shapes(shape, val.shape) if shape else val.shape
        out = eval(self._code, {"__builtins__": {}}, env)
        out = np.asarray(out, dtype=float)
        if shape is not None and out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    def __repr__(self) -> str:
        return f"Expr({self.text!r})"
