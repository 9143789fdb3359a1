import math

import pytest
from hypothesis import HealthCheck, settings

from prescurv.domain import CIRCUMFERENCE

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def analytic_geometry(spec):
    """Exact area and boundary lengths (in ``Mesh.components`` order) of
    the domain a ``DomainSpec`` describes."""
    if spec.kind == "cylinder":
        return CIRCUMFERENCE * spec.L, (CIRCUMFERENCE, CIRCUMFERENCE)
    if spec.kind == "annulus":
        return math.pi * (1.0 - spec.r**2), (2 * math.pi, 2 * math.pi * spec.r)
    return 0.5 * math.pi * spec.R**2, (2 * spec.R, math.pi * spec.R)


@pytest.fixture
def analytic():
    """:func:`analytic_geometry`, for tests that compare meshes with it."""
    return analytic_geometry
