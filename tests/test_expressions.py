import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prescurv.expressions import Expr, ExpressionError


def test_scalar_arithmetic():
    f = Expr("2*x + y**2 - 1")
    assert f(x=3.0, y=2.0) == pytest.approx(9.0)


def test_functions_and_constants():
    f = Expr("sin(pi*x) + exp(0) + sqrt(4)")
    assert f(x=0.5) == pytest.approx(4.0)
    g = Expr("log(e)")
    assert g() == pytest.approx(1.0)


def test_vectorized_broadcast():
    f = Expr("x*y")
    x = np.linspace(0, 1, 5)
    out = f(x=x, y=2.0)
    assert out.shape == (5,)
    assert np.allclose(out, 2 * x)


def test_constant_expression_broadcasts_to_input_shape():
    f = Expr("-1")
    out = f(x=np.zeros(7))
    assert out.shape == (7,)
    assert np.all(out == -1.0)


def test_min_max_are_elementwise():
    f = Expr("max(x, y)")
    assert np.allclose(f(x=np.array([0.0, 2.0]), y=1.0), [1.0, 2.0])


def test_missing_variable_defaults_to_zero():
    f = Expr("x + s")
    assert f(x=1.5) == pytest.approx(1.5)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x.real",
        "lambda: 1",
        "[1, 2]",
        "x if y else s",
        "open('f')",
        "unknown_var + 1",
        "x; y",
        "'str'",
        "f(x=1)",
    ],
)
def test_rejects_forbidden_syntax(bad):
    with pytest.raises(ExpressionError):
        Expr(bad)


def test_rejects_unknown_function_even_if_builtin():
    with pytest.raises(ExpressionError):
        Expr("eval('1')")


def test_repr_shows_source():
    assert "x + 1" in repr(Expr("x + 1"))


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
def test_matches_python_eval_on_polynomial(x, y):
    f = Expr("0.5*x**2 - 3*y + x*y")
    assert f(x=x, y=y) == pytest.approx(0.5 * x**2 - 3 * y + x * y, abs=1e-12)


@given(st.floats(min_value=-4 * math.pi, max_value=4 * math.pi))
def test_trig_matches_numpy(s):
    f = Expr("sin(s)*cos(s)")
    assert f(s=s) == pytest.approx(math.sin(s) * math.cos(s), abs=1e-14)
