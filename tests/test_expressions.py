import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prescurv.fields import ExpressionError, Field


def test_scalar_arithmetic():
    f = Field("2*x + y**2 - 1")
    assert f(3.0, 2.0) == pytest.approx(9.0)


def test_functions_and_constants():
    f = Field("sin(pi*x) + exp(0) + sqrt(4)")
    assert f(0.5, 0.0) == pytest.approx(4.0)
    g = Field("log(e)")
    assert g.constant_value() == pytest.approx(1.0)


def test_vectorized_broadcast():
    f = Field("x*y")
    x = np.linspace(0, 1, 5)
    out = f(x, 2.0)
    assert out.shape == (5,)
    assert np.allclose(out, 2 * x)


def test_constant_expression_broadcasts_to_input_shape():
    for f in (Field("-1"), Field(-1)):
        out = f(np.zeros(7), 0.0)
        assert out.shape == (7,)
        assert np.all(out == -1.0)


def test_min_max_are_elementwise():
    f = Field("max(x, y)")
    assert np.allclose(f(np.array([0.0, 2.0]), 1.0), [1.0, 2.0])


def test_missing_variable_defaults_to_zero():
    f = Field("x + s")
    assert f(1.5, 0.0) == pytest.approx(1.5)


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
        Field(bad)


def test_rejects_unknown_function_even_if_builtin():
    with pytest.raises(ExpressionError):
        Field("eval('1')")


def test_repr_shows_source():
    assert "x + 1" in repr(Field("x + 1"))


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
def test_matches_python_eval_on_polynomial(x, y):
    f = Field("0.5*x**2 - 3*y + x*y")
    assert f(x, y) == pytest.approx(0.5 * x**2 - 3 * y + x * y, abs=1e-12)


@given(st.floats(min_value=-4 * math.pi, max_value=4 * math.pi))
def test_trig_matches_numpy(s):
    f = Field("sin(s)*cos(s)")
    assert f(0.0, 0.0, s) == pytest.approx(math.sin(s) * math.cos(s), abs=1e-14)
