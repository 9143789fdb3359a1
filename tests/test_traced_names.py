"""The benchmark tracer's named layers still exist in ``prescurv``.

``benchmarks/tracing.py`` wraps functions and methods by name; a renamed
one is silently skipped and every metric built on it reads absent.  This
is the fast local form of the CI step that runs a traced benchmark and
looks for absent names.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("prescurv_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    with tracing.Tracer() as tracer:
        wrapped = set(tracer.wrapped)
    spans = set(tracing.TIMED)
    for qualname, methods in tracing.METHODS.items():
        layer = qualname.split(".")[0]
        spans.update(qualname if m == "__init__" else f"{layer}.{m}" for m in methods)
    assert sorted(spans - wrapped) == []

