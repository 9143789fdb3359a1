"""The CLI contract over randomly drawn configs.

Every run of ``cli.main`` ends one of three ways: exit 0 with a
certified result, exit 2 with the solver's reason on stderr, or exit 3
with ``config error:``; it never prints a traceback.  The draws cover
all three domains at levels 0-2, random K and h expressions, the three
methods, the solve and spectrum modes and four closed-form families.
A certified report also satisfies the Gauss-Bonnet identity of the data
it solved, to within what its residual allows.  Besides, every benchmark
config is accepted by ``cli.load_config``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import assert_gauss_bonnet
from prescurv import cli

CONFIGS = Path(__file__).resolve().parent.parent / "benchmarks" / "configs"

# Morse index that exit 0 certifies, per method
INDEX = {"minimize": 0, "mountain-pass": 1, "continuation": 1}
TOL = 1e-8

coef = st.floats(-3.0, 3.0).map(lambda v: round(v, 2))


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(["cylinder", "annulus", "halfdisk"]))
    shape = {"cylinder": f"L = {draw(st.sampled_from([0.5, 1.0, 2.0]))}",
             "annulus": f"r = {draw(st.sampled_from([0.3, 0.5, 0.8]))}",
             "halfdisk": f"R = {draw(st.sampled_from([2, 5]))}\ngrade = 2"}[kind]
    return f"[domain]\nkind = {kind}\n{shape}\nlevel = {draw(st.integers(0, 2))}\n"


@st.composite
def curvatures(draw):
    # x is periodic on the cylinder, so its data vary by cos(x) and sin(x)
    a = draw(st.floats(0.2, 2.0).map(lambda v: round(v, 3)))
    wave = draw(st.sampled_from(["cos(x)", "sin(x)", "sin(y)"]))
    K = f"-({a}) + {round(0.9 * a * draw(st.floats(-1.0, 1.0)), 3)}*{wave}"
    hs = [f"{draw(coef)} + {round(0.3 * draw(coef), 2)}*{draw(st.sampled_from(['cos(x)', 'sin(y)']))}"
          for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):  # D above one on the outer circle, below on the inner
        hs = [f"{round(a ** 0.5 * draw(st.floats(1.5, 2.5)), 2)}",
              f"{round(-a ** 0.5 * draw(st.floats(2.5, 3.5)), 2)}"]
    background = draw(st.sampled_from(["background = flat", "K_bg = -1", "K_bg = 0"]))
    return f"[curvature]\nK = {K}\nh = {' ; '.join(hs)}\n{background}\n"


@st.composite
def experiments(draw):
    domain = draw(domains())
    mode = draw(st.sampled_from(["solve", "spectrum"]))
    if mode == "spectrum" and draw(st.booleans()):
        family = draw(st.sampled_from(["bubble", "oned", "strip", "gamma"]))
        param = draw(st.sampled_from([1, 2, 3])) if family == "gamma" else draw(
            st.sampled_from([0.5, 2.0]))
        return mode, None, (domain + f"[sweep]\nfamily = {family}\nparameters = {param}\n"
                            "[spectrum]\nstate = family\n")
    method = draw(st.sampled_from(sorted(INDEX)))
    solver = f"[solver]\nmethod = {method}\neps = 0.05\neps_schedule = 0.05 0.02\n"
    return mode, method, domain + draw(curvatures()) + solver


@given(experiments())
def test_every_exit_keeps_the_contract(experiment):
    mode, method, text = experiment
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "exp.ini").write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([mode, "--config", str(Path(tmp) / "exp.ini"),
                             "--out", str(Path(tmp) / "out")])
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("config error: ")
        elif code == 2:
            assert err.startswith("solver failure: ") and len(err.strip()) > 16
        else:
            assert code == 0, (code, err)
            _assert_certified(Path(tmp) / "out", mode, method)


def _assert_certified(out, mode, method):
    if method is None:  # a closed-form family state: nothing was solved
        assert json.loads((out / "spectrum.json").read_text())["negative_count"] >= 0
        return
    if mode == "spectrum":
        spectrum = json.loads((out / "spectrum.json").read_text())
        assert spectrum["source"]["converged"] is True
        assert spectrum["source"]["residual_norm"] < TOL
        assert spectrum["negative_count"] == INDEX[method]
        return
    for path in sorted(out.glob("report*.json")):
        rep = json.loads(path.read_text())
        assert rep["converged"] is True, path.name
        assert rep["residual_norm"] < TOL
        assert rep["morse_index"] == INDEX[method]
        assert_gauss_bonnet(rep, cli.load_config(str(out.parent / "exp.ini"), mode,
                                                  str(out), False).mesh)


# the draws above exit 2 on every solve (a saddle needs level 3), so these
# two certified solves are what the Gauss-Bonnet bound is checked on
CERTIFIED = {
    "minimize": "[domain]\nkind = cylinder\nL = 1.0\nlevel = 2\n[curvature]\nK = -1\n"
                "h = 0.5\nK_bg = -1\n[solver]\nmethod = minimize\neps = 0.05\n",
    "continuation": "[domain]\nkind = annulus\nr = 0.8\nlevel = 3\n[curvature]\nK = -1\n"
                    "h = 2 ; -3\nbackground = flat\n[solver]\nmethod = continuation\n"
                    "eps_schedule = 0.05 0.02\n",
}


@pytest.mark.parametrize("method", sorted(CERTIFIED))
def test_certified_solve_keeps_the_contract(method, tmp_path):
    (tmp_path / "exp.ini").write_text(CERTIFIED[method])
    code = cli.main(["solve", "--config", str(tmp_path / "exp.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    _assert_certified(tmp_path / "out", "solve", method)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_benchmark_configs_are_accepted(path, tmp_path):
    config = tmp_path / path.name
    config.write_text(path.read_text().replace("{seed}", "3"))
    mode = "pohozaev" if "[pohozaev]" in config.read_text() else "solve"
    cfg = cli.load_config(str(config), mode, str(tmp_path / "out"), False)
    assert cfg.sections["solver"]["seed"] == 3
