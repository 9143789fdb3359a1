import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prescurv.domain import DomainSpec, build_mesh
from prescurv.fields import (
    CurvatureSpec,
    ExpressionError,
    Field,
    RegimeKind,
    background_for,
    boundary_integral_h,
    eval_D_field,
    eval_D_tau,
    eval_h,
    eval_K,
    perturb,
    regime_classify,
)


@pytest.fixture(scope="module")
def cyl():
    return build_mesh(DomainSpec("cylinder", L=1.0, level=2))


@pytest.fixture(scope="module")
def ann():
    return build_mesh(DomainSpec("annulus", r=0.5, level=2))


def test_field_forms_agree():
    const = Field(-2.0)
    text = Field("-2")
    varying = Field("-2 + 0*x")
    x = np.linspace(0, 1, 4)
    for f in (const, text, varying):
        assert np.allclose(f(x, x), -2.0)
    assert const.is_constant and text.is_constant and not varying.is_constant
    assert const.constant_value() == -2.0
    with pytest.raises(TypeError):
        Field(lambda x, y, s: -2.0 * np.ones_like(x))


def test_field_values_may_be_non_finite_without_a_warning():
    # callers reject the values that are not finite; a number must be finite
    with np.errstate(all="raise"):
        vals = Field("log(x) + exp(exp(10*x))")(np.array([0.0, 1.0]), 0.0)
    assert vals.tolist() == [-np.inf, np.inf]
    for number in (math.inf, math.nan):
        with pytest.raises(ExpressionError):
            Field(number)


def test_field_affine_collapses():
    f = Field("x").affine(2.0, 1.0).affine(3.0, -1.0)
    # 3*(2*x + 1) - 1 = 6x + 2
    assert f(np.array([0.0, 1.0]), 0.0) == pytest.approx([2.0, 8.0])
    assert not f.is_constant


def test_eval_K_rejects_nonnegative(cyl):
    spec = CurvatureSpec(K="x - 10", h=[0.0, 0.0])
    with pytest.raises(ValueError, match="negative"):
        eval_K(spec, np.array([11.0]), np.array([0.0]))


def test_eval_D_direct_values(cyl):
    assert eval_D_field(CurvatureSpec(K=-4.0, h=[2.0, 2.0]), cyl, 0)[3] == pytest.approx(1.0)
    assert eval_D_field(CurvatureSpec(K=-1.0, h=[0.0, 0.0]), cyl, 0)[3] == pytest.approx(0.0)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_eval_D_scale_invariant(c):
    mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=0))
    base = CurvatureSpec(K=-2.0, h=[0.7, -0.3])
    scaled = CurvatureSpec(K=-2.0 * c**2, h=[0.7 * c, -0.3 * c])
    for comp in (0, 1):
        assert eval_D_field(scaled, mesh, comp)[1] == pytest.approx(
            eval_D_field(base, mesh, comp)[1], rel=1e-12)


def test_eval_D_tau_constant_is_zero(cyl):
    spec = CurvatureSpec(K=-3.0, h=[0.5, 0.5])
    for arr in eval_D_tau(spec, cyl):
        assert np.allclose(arr, 0.0, atol=1e-13)


def test_eval_D_tau_matches_analytic_derivative():
    # h(s) = 2 + cos s, K = -1 on the unit outer circle: D_tau = -sin s
    errs = []
    for level in (2, 3):
        mesh = build_mesh(DomainSpec("annulus", r=0.5, level=level))
        spec = CurvatureSpec(K=-1.0, h=["2 + cos(s)", 0.0])
        tau = eval_D_tau(spec, mesh)[0]
        s = mesh.components[0].s
        errs.append(np.abs(tau - (-np.sin(s))).max())
    assert errs[1] <= errs[0] / 3.2
    assert errs[1] < 1e-3


def test_D_identically_one_has_zero_tau(ann):
    # h = sqrt(|K|) forces D = 1 along the whole boundary
    spec = CurvatureSpec(K="-(2 + x*x)", h=["sqrt(2 + x*x)", "sqrt(2 + x*x)"])
    for comp in range(2):
        assert np.allclose(eval_D_field(spec, ann, comp), 1.0, atol=1e-14)
    for arr in eval_D_tau(spec, ann):
        assert np.abs(arr).max() < 1e-10


def test_perturb_identity_and_formulas():
    spec = CurvatureSpec(K=-1.0, h=[2.0, 0.5], K_bg=0.0, h_bg=(1.0, -2.0))
    same = perturb(spec, 0.0)
    assert same.K.constant_value() == pytest.approx(-1.0)
    assert same.h[0].constant_value() == pytest.approx(2.0)
    assert same.K_bg == 0.0 and same.h_bg == (1.0, -2.0)

    pert = perturb(spec, 0.5)
    assert pert.K.constant_value() == pytest.approx(-0.625)
    assert pert.K_bg == pytest.approx(-0.125)
    assert pert.h[0].constant_value() == pytest.approx(1.0)
    assert pert.h_bg[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        perturb(spec, -0.1)


@given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2.0))
def test_perturb_lipschitz_in_eps(e1, e2):
    spec = CurvatureSpec(K=-2.0, h=[1.0], K_bg=-1.0, h_bg=(0.5,))
    a, b = perturb(spec, e1), perturb(spec, e2)
    # the maps eps -> data are smooth with derivative bounded by the data size
    lip = 2 * max(abs(spec.K.constant_value()), abs(spec.K_bg), 1.0)
    assert abs(a.K.constant_value() - b.K.constant_value()) <= lip * abs(e1 - e2) + 1e-12
    assert abs(a.K_bg - b.K_bg) <= lip * abs(e1 - e2) + 1e-12


def test_perturb_keeps_K_negative(cyl):
    spec = CurvatureSpec(K="-1 - 0.5*sin(x)", h=[0.0, 0.0])
    for eps in (0.0, 0.05, 1.0, 10.0):
        vals = eval_K(perturb(spec, eps), cyl.dof_coords[:, 0], cyl.dof_coords[:, 1])
        assert vals.max() < 0


def test_background_for_closes_gauss_bonnet(analytic):
    # flat models: K_bg*area + sum h_bg*length equals 2*pi*Euler characteristic
    # (up to corner angles, which only the half disk has: two right angles)
    for spec, chi, corners in [
        (DomainSpec("cylinder", L=1.0, level=1), 0.0, 0.0),
        (DomainSpec("annulus", r=0.5, level=1), 0.0, 0.0),
        (DomainSpec("halfdisk", R=2.0, level=1), 1.0, math.pi),
    ]:
        mesh = build_mesh(spec)
        K_bg, h_bg = background_for(mesh)
        area, lengths = analytic(spec)
        total = K_bg * area + sum(hb * lg for hb, lg in zip(h_bg, lengths))
        assert total + corners == pytest.approx(2 * math.pi * chi, abs=1e-12)


def test_boundary_integral_h(ann):
    spec = CurvatureSpec(K=-1.0, h=[2.0, -3.0])
    # outer circle length 2*pi, inner 2*pi*0.5
    expected = 2.0 * 2 * math.pi - 3.0 * math.pi
    assert boundary_integral_h(spec, ann) == pytest.approx(expected, rel=1e-12)


def test_regime_min_negative_bg(cyl):
    spec = CurvatureSpec(K=-1.0, h=[0.5, 0.5], K_bg=-1.0)
    reg = regime_classify(spec, cyl)
    assert reg.kind is RegimeKind.MIN_NEGATIVE_BG
    assert reg.D_max == pytest.approx(0.5)
    p = reg.D_argmax
    assert eval_D_field(spec, cyl, p.component)[p.index] == pytest.approx(reg.D_max)


def test_regime_min_zero_bg_and_annulus_case_i(ann):
    spec = CurvatureSpec(K=-1.0, h=[0.5, 0.3], K_bg=0.0, h_bg=(1.0, -2.0))
    reg = regime_classify(spec, ann)
    assert reg.kind is RegimeKind.MIN_ZERO_BG
    assert reg.annulus_case == "i"
    assert reg.h_integral > 0


def test_regime_saddle_and_annulus_case_ii(ann):
    # outer h=-3 (length 2*pi), inner h=2 (length pi): total datum -4*pi
    spec = CurvatureSpec(K=-1.0, h=[-3.0, 2.0], K_bg=0.0, h_bg=(1.0, -2.0))
    reg = regime_classify(spec, ann)
    assert reg.kind is RegimeKind.SADDLE
    assert reg.annulus_case == "ii"
    assert reg.D_max == pytest.approx(2.0)
    assert reg.h_integral == pytest.approx(-4 * math.pi)
    # D never equals 1 on the sampled boundary, so transversality is vacuous
    assert reg.level_set_transverse is None


def test_regime_annulus_case_iii(ann):
    spec = CurvatureSpec(K=-1.0, h=[1.0, -1.0], K_bg=0.0)
    assert regime_classify(spec, ann).annulus_case == "iii"


def test_regime_unclassified_cases(cyl, ann):
    # positive background curvature is outside every mechanism
    spec = CurvatureSpec(K=-1.0, h=[0.5, 0.5], K_bg=1.0)
    assert regime_classify(spec, cyl).kind is RegimeKind.UNCLASSIFIED
    # supercritical ratio with positive total datum
    spec = CurvatureSpec(K=-1.0, h=[3.0, -0.5], K_bg=0.0)
    assert regime_classify(spec, ann).kind is RegimeKind.UNCLASSIFIED


def test_regime_saddle_needs_transverse_crossing(cyl):
    # D crosses 1 with nonzero slope: saddle hypotheses hold
    good = CurvatureSpec(K=-1.0, h=["1 + 0.5*cos(x)", "-2"], K_bg=0.0)
    reg = regime_classify(good, cyl)
    assert reg.level_set_transverse is True
    assert reg.kind is RegimeKind.SADDLE
    # D touches 1 tangentially (flat quadratic maximum on the level set)
    bad = CurvatureSpec(K=-1.0, h=["1 + 0.1*cos(x)**2", "-4"], K_bg=0.0)
    reg = regime_classify(bad, cyl)
    assert reg.kind is RegimeKind.UNCLASSIFIED


def test_regime_mutually_exclusive(cyl):
    # negative-background data can never report the zero-background kinds
    for h in ([0.5, 0.5], [0.9, -0.2]):
        reg = regime_classify(CurvatureSpec(K=-1.0, h=h, K_bg=-1.0), cyl)
        assert reg.kind in (RegimeKind.MIN_NEGATIVE_BG, RegimeKind.UNCLASSIFIED)


def test_spec_component_count_checked(cyl):
    with pytest.raises(ValueError, match="components"):
        regime_classify(CurvatureSpec(K=-1.0, h=[1.0]), cyl)
