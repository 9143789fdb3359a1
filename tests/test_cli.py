"""End-to-end checks of the command line driver.

Every test goes through ``cli.main`` with a config written to a temp
directory, so argument parsing, config validation, artifact writing and
exit codes are all exercised on the real code path.
"""

import json
import math
import textwrap
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import forge_saddle_index
import prescurv.energy as energy
from prescurv import cli, spectral
from prescurv.diagnostics import pohozaev_report, position_field
from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import Problem
from prescurv.fields import perturb

MINIMIZE_CFG = """
    [domain]
    kind = cylinder
    L = 1.0
    level = 2

    [curvature]
    K = -1
    h = 0.5
    K_bg = -1

    [solver]
    tol = 1e-10
"""

SADDLE_CFG = """
    [domain]
    kind = annulus
    r = 0.8
    level = 3

    [curvature]
    K = -1
    h = 2 ; -3
    background = flat

    [solver]
    method = {method}
    eps = 0.05
    anchor = argmax-d
"""

GAMMA_SWEEP_CFG = """
    [domain]
    kind = annulus
    r = 0.5
    level = 3

    [sweep]
    family = gamma
    parameters = {parameters}
    h1 = 2.0
"""

BUBBLE_FAMILY_CFG = """
    [domain]
    kind = halfdisk
    R = 2
    level = 3

    [sweep]
    family = bubble
    parameters = 1.0 0.3 0.03
"""

RANDOM_INIT_CFG = MINIMIZE_CFG + """
    init = random
    seed = 7
"""

STALLED_CFG = MINIMIZE_CFG + """
    max_iter = 1
"""

BAD_METHOD_CFG = MINIMIZE_CFG + """
    method = bisection
"""

CONTINUATION_CFG = SADDLE_CFG.format(method="continuation") + """
    eps_schedule = 0.05, 0.02, 0.01
"""

SPECTRUM_FAMILY_CFG = GAMMA_SWEEP_CFG.format(parameters="2") + """
    [spectrum]
    state = family
"""

POHOZAEV_FAMILY_CFG = GAMMA_SWEEP_CFG.format(parameters="2") + """
    [pohozaev]
    state = family
    fields = position, holomorphic
    cos_coeffs = 0 1
"""

POHOZAEV_BAD_FIELD_CFG = GAMMA_SWEEP_CFG.format(parameters="2") + """
    [pohozaev]
    state = family
    fields = radial
"""


TESTFN_CFG = """
    [domain]
    kind = halfdisk
    R = 10
    level = 4
    grade = 2

    [curvature]
    K = -1
    h = 2 ; 0

    [solver]
    anchor = origin

    [testfn]
    q2 = 0.1
"""

STRIP_CFG = """
    [domain]
    kind = {kind}
    R = {R}
    level = 3

    [sweep]
    family = strip
    parameters = 2

    [spectrum]
    state = family
"""


# a field linear in x differs between the seam's copies at x = 0 and 2 pi
SEAM_JUMP_CFG = """
    [domain]
    kind = cylinder
    L = 1.0
    level = 3

    [curvature]
    K = {K}
    h = {h}
    K_bg = -1

    [solver]
    method = continuation
"""


# max D = 2 > 1: minimize finds bubbles one element wide on every level
BUBBLE_CFG = """
    [domain]
    kind = cylinder
    L = 1.0
    level = 3

    [curvature]
    K = -1
    h = 2*cos(x) ; 1
    K_bg = -1

    [solver]
    method = minimize
"""

# eps |Omega| = 1.96 is below the 2 pi of the arc's background coupling, so
# even the relaxed energy falls without bound as u -> -infinity
DOWNWARD_CFG = """
    [domain]
    kind = halfdisk
    R = 5
    level = 1

    [curvature]
    K = -(0.2) + -0.18*sin(x)
    h = -1.47 + -0.3*cos(x)
    background = flat

    [solver]
    method = minimize
    eps = 0.05
"""

# a constant start at 750: the gradient's norm overflows, so Newton's
# first direction cannot be shown to descend and the residual is inf
OVERFLOW_CFG = """
    [domain]
    kind = cylinder
    L = 1.0
    level = 1

    [curvature]
    K = -1
    h = 0.5
    K_bg = -1

    [solver]
    method = minimize
    init = constant
    init_value = 750
"""


def reads_floats(cast) -> bool:
    """Whether a SCHEMA cast reads a number, or a list of numbers, as floats."""
    try:
        value = cast("2")
    except (ValueError, cli.ConfigError):
        return False
    return all(isinstance(v, float) for v in (value if isinstance(value, list) else [value]))


def number_keys():
    """(section, switch, key) of every key of cli.SCHEMA whose cast reads
    floats, where switch is the section key that selects the key's
    variant, as {"kind": "annulus"}, and empty for a key of every variant."""
    for section, keys in cli.SCHEMA.items():
        for key, spec in keys.items():
            variants = spec.items() if isinstance(spec, dict) else [(None, {key: spec})]
            for choice, variant in variants:
                for name, (cast, _) in variant.items():
                    if reads_floats(cast):
                        yield section, {key: choice} if choice else {}, name


NUMBER_KEYS = list(number_keys())
# the keys a section needs, all valid
VALID_KEYS = {"curvature": {"K": "-1", "h": "0.5"},
              "sweep": {"family": "log", "parameters": "2"}}


def run_cli(tmp_path, mode, text, out="out", name="exp.ini"):
    cfg = tmp_path / name
    cfg.write_text(textwrap.dedent(text))
    out_dir = tmp_path / out
    code = cli.main([mode, "--config", str(cfg), "--out", str(out_dir)])
    return code, out_dir


def read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


class TestConfigErrors:
    def test_unknown_mode(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "frobnicate", MINIMIZE_CFG)
        assert code == 3
        assert "unknown mode" in capsys.readouterr().err

    def test_verify_is_an_unknown_mode(self, capsys):
        assert cli.main(["verify"]) == 3
        err = capsys.readouterr().err
        assert "unknown mode" in err
        assert "Traceback" not in err

    def test_missing_config_flag(self, capsys):
        assert cli.main(["solve"]) == 3
        assert "requires --config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["solve", "--config", str(tmp_path / "nope.ini")])
        assert code == 3
        assert "nope.ini" in capsys.readouterr().err

    def test_missing_domain_section(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", """
            [curvature]
            K = -1
            h = 0.5
        """)
        assert code == 3
        assert "[domain]" in capsys.readouterr().err

    def test_missing_curvature_section(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", """
            [domain]
            kind = cylinder
            level = 2
        """)
        assert code == 3
        assert "[curvature]" in capsys.readouterr().err

    def test_malformed_curvature_expression(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", """
            [domain]
            kind = cylinder
            level = 2

            [curvature]
            K = exp(
            h = 0.5
        """)
        assert code == 3
        err = capsys.readouterr().err
        assert "[curvature] K" in err

    def test_disallowed_expression_name(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", """
            [domain]
            kind = cylinder
            level = 2

            [curvature]
            K = -1
            h = __import__("os")
        """)
        assert code == 3
        assert "[curvature] h" in capsys.readouterr().err

    def test_bad_solver_method(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", BAD_METHOD_CFG)
        assert code == 3
        assert "method" in capsys.readouterr().err

    def test_bad_sweep_family(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "blowup", """
            [domain]
            kind = annulus
            r = 0.5
            level = 2

            [sweep]
            family = quux
            parameters = 1, 2
        """)
        assert code == 3
        assert "family" in capsys.readouterr().err

    def test_component_count_mismatch(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", """
            [domain]
            kind = cylinder
            level = 2

            [curvature]
            K = -1
            h = 0.5 ; 0.5 ; 0.5
        """)
        assert code == 3
        assert "components" in capsys.readouterr().err


    @pytest.mark.parametrize("mode,K,h,name", [
        ("classify", "-1", "2*x ; 1", "h"),
        ("solve", "-1", "2*x ; 1", "h"),
        ("classify", "-1 - 0.1*x", "1", "K"),
    ], ids=["h-classify", "h-solve", "K-classify"])
    def test_seam_jump_is_a_config_error(self, tmp_path, capsys, mode, K, h, name):
        code, _ = run_cli(tmp_path, mode, SEAM_JUMP_CFG.format(K=K, h=h))
        assert code == 3
        err = capsys.readouterr().err
        assert f"[curvature] {name} on boundary component 0" in err
        assert "periodic seam" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode,text", [
        ("classify", MINIMIZE_CFG.replace("K = -1", "K = 1")),
        ("solve", MINIMIZE_CFG.replace("K_bg = -1", "K_bg = -1\n    h_bg = a;b")),
        ("classify", MINIMIZE_CFG.replace("L = 1.0", "L = inf")),
        ("solve", TESTFN_CFG.replace("R = 10", "R = inf")),
        ("classify", TESTFN_CFG.replace("grade = 2", "grade = inf")),
        ("classify", TESTFN_CFG.replace("grade = 2", "grade = 1e6")),
        ("solve", CONTINUATION_CFG.replace("eps_schedule = 0.05, 0.02, 0.01",
                                           "eps_schedule = ,")),
        ("solve", CONTINUATION_CFG.replace("eps_schedule = 0.05, 0.02, 0.01",
                                           "eps_schedule = 0.05, -0.01")),
        ("solve", SADDLE_CFG.format(method="mountain-pass").replace("eps = 0.05", "eps = -0.05")),
        ("solve", SADDLE_CFG.format(method="mountain-pass") + "    path_points = 0\n"),
        ("solve", SADDLE_CFG.format(method="mountain-pass") + "    path_points = 2\n"),
        ("solve", SADDLE_CFG.format(method="mountain-pass") + "    q2 = 0\n"),
        # every state would escape, upward or downward
        ("solve", MINIMIZE_CFG + "    blowup_threshold = 0\n"),
        ("spectrum", "[domain]\nkind = cylinder\n[spectrum]\ndisk_form = 0.5\n"),
        ("spectrum", "[domain]\nkind = cylinder\n[spectrum]\ndisk_form = 1.2\nn_r = 0\n"),
        ("spectrum", STRIP_CFG.format(kind="cylinder", R=5)),
        ("exact-sweep", GAMMA_SWEEP_CFG.format(parameters="2").replace("h1 = 2.0", "h1 = x")),
        ("testfn", TESTFN_CFG + "    tail = 1\n"),
        ("testfn", TESTFN_CFG + "    tail = 0\n"),
        ("spectrum", "[domain]\nkind = cylinder\n[spectrum]\ndisk_form = 1.2\nm_cap = -1\n"),
        ("spectrum", "[domain]\nkind = cylinder\n[spectrum]\ndisk_form = 1.2\nm_cap = 0\n"),
        ("pohozaev", POHOZAEV_FAMILY_CFG.replace("parameters = 2", "parameters = x 2")),
        # int(p) used to truncate gamma = 2.5 to the gamma = 2 state
        ("pohozaev", POHOZAEV_FAMILY_CFG.replace("parameters = 2", "parameters = 2.5")),
        ("exact-sweep", GAMMA_SWEEP_CFG.format(parameters="4, 2.5, 8")),
        ("blowup", GAMMA_SWEEP_CFG.format(parameters="4, 8.000001")),
        # tol = inf certified the zero state after no Newton step; nan and
        # -1 ran a whole solve to "line search failed to reduce the residual"
        ("solve", MINIMIZE_CFG.replace("tol = 1e-10", "tol = inf")),
        ("solve", MINIMIZE_CFG.replace("tol = 1e-10", "tol = nan")),
        ("solve", MINIMIZE_CFG.replace("tol = 1e-10", "tol = -1")),
        # window = -1 with far_tol = nan printed diverging=True candidates=1
        ("blowup", BUBBLE_FAMILY_CFG + "    [monitor]\n    window = -1\n"),
        ("blowup", BUBBLE_FAMILY_CFG + "    [monitor]\n    window = nan\n"),
        ("blowup", BUBBLE_FAMILY_CFG + "    [monitor]\n    far_tol = nan\n"),
        ("blowup", BUBBLE_FAMILY_CFG + "    [monitor]\n    sup_window = inf\n"),
        # ran a whole nested solve to "no convergence within max_iter=-3"
        ("solve", MINIMIZE_CFG + "    max_iter = -3\n"),
        # the expressions overflow to inf: "the Newton direction is not finite"
        ("solve", MINIMIZE_CFG.replace("h = 0.5", "h = 1e400")),
        ("solve", MINIMIZE_CFG.replace("K = -1", "K = -1e400")),
        # the values overflow or are log(0), which warned before the
        # nodal values were rejected
        ("solve", MINIMIZE_CFG.replace("K = -1", "K = -exp(exp(10*x))")),
        ("solve", MINIMIZE_CFG.replace("K = -1", "K = -1 - 0*log(x)")),
        ("solve", MINIMIZE_CFG.replace("h = 0.5", "h = 0.5 + log(x)")),
        # Python arithmetic on the numbers raised a traceback
        ("solve", MINIMIZE_CFG.replace("K = -1", "K = -1/0")),
        ("solve", MINIMIZE_CFG.replace("h = 0.5", "h = 10**400")),
        # the mesh geometry does not fit in a double: adjacent inner-circle
        # edges multiply to 0, or the triangle areas overflow
        ("classify", SADDLE_CFG.format(method="minimize").replace("r = 0.8", "r = 1e-200")),
        ("classify", SADDLE_CFG.format(method="minimize").replace("r = 0.8", "r = 1e-300")),
        ("solve", TESTFN_CFG.replace("R = 10", "R = 1e160")),
        ("solve", TESTFN_CFG.replace("R = 10", "R = 1e300")),
        # default_rng raised a traceback
        ("solve", RANDOM_INIT_CFG.replace("seed = 7", "seed = -1")),
        # index -1 wrapped to the last component's last vertex
        ("testfn", TESTFN_CFG.replace("anchor = origin", "anchor = -1,-1")),
        ("testfn", TESTFN_CFG.replace("anchor = origin", "anchor = 0,-1")),
    ], ids=["K-positive", "h_bg-text", "L-inf", "R-inf", "grade-inf", "grade-1e6",
            "schedule-empty", "schedule-negative", "eps-negative", "path_points-0", "path_points-2",
            "q2-0", "blowup_threshold-0", "disk_form-0.5", "n_r-0", "strip-on-cylinder", "h1-text",
            "tail-1", "tail-0", "m_cap-negative", "m_cap-exhausted", "early-parameter-text",
            "gamma-2.5", "gamma-sweep-2.5", "gamma-8.000001", "tol-inf", "tol-nan", "tol-negative",
            "window-negative", "window-nan", "far_tol-nan", "sup_window-inf", "max_iter-negative",
            "h-overflow", "K-overflow", "K-exp-overflow", "K-log-0", "h-log-0", "K-division-by-0",
            "h-int-overflow", "r-1e-200", "r-1e-300", "R-1e160", "R-1e300", "seed-negative",
            "anchor-negative", "anchor-index-negative"])
    def test_bad_values_exit_3_without_traceback(self, tmp_path, capsys, mode, text):
        code, _ = run_cli(tmp_path, mode, text)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("config error")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section,switch,key", NUMBER_KEYS,
                             ids=[f"{s}-{''.join(w.values())}-{k}" for s, w, k in NUMBER_KEYS])
    def test_non_finite_numbers_exit_3(self, tmp_path, capsys, section, switch, key, value):
        # each key of SCHEMA that reads floats, in an otherwise valid config
        config = {"domain": {"kind": "cylinder"}}
        config.setdefault(section, {}).update({**VALID_KEYS.get(section, {}), **switch,
                                               key: value})
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for name, keys in config.items())
        code, _ = run_cli(tmp_path, "solve", text)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("config error") and f"[{section}]" in err and value in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("mode,text,keys", [
        ("spectrum", STRIP_CFG.format(kind="halfdisk", R=5).replace(
            "parameters = 2", "parameters = 2\n    k0 = -4\n    h0 = 9"), "h0, k0"),
        ("blowup", GAMMA_SWEEP_CFG.format(parameters="2, 4") + "    k0 = -2\n", "k0"),
        ("exact-sweep", STRIP_CFG.format(kind="halfdisk", R=5).replace(
            "family = strip", "family = bubble\n    h1 = 3"), "h1"),
    ], ids=["strip-k0-h0", "gamma-k0", "bubble-h1"])
    def test_sweep_key_the_family_ignores(self, tmp_path, capsys, mode, text, keys):
        code, _ = run_cli(tmp_path, mode, text)
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"[sweep] {keys} not used by family" in err

    def test_misspelled_names_exit_3(self, tmp_path, capsys):
        # the first unknown name is reported, and nothing runs
        code, out = run_cli(tmp_path, "solve", MINIMIZE_CFG.replace(
            "tol = 1e-10", "tolerance = 1e-3\n    eps_shedule = 0.1") + """
            [solvr]
            tol = 1e-3

            [spectrum]
            n_rr = 5
        """)
        assert code == 3
        assert capsys.readouterr().err == "config error: unknown key [solver] tolerance\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode,text,message", [
        ("solve", MINIMIZE_CFG + "\n[solvr]\ntol = 1e-3\n", "unknown section [solvr]"),
        ("classify", MINIMIZE_CFG + "    eps_shedule = 0.1\n", "unknown key [solver] eps_shedule"),
        ("spectrum", SPECTRUM_FAMILY_CFG + "    n_rr = 5\n", "unknown key [spectrum] n_rr"),
        ("classify", "[DEFAULT]\ntol = 1e-3\n" + textwrap.dedent(MINIMIZE_CFG),
         "unknown key [DEFAULT] tol"),
        ("classify", MINIMIZE_CFG.replace("L = 1.0", "L = 1.0\n    r = 0.5"),
         "[domain] r not used by kind 'cylinder'"),
        ("classify", TESTFN_CFG.replace("R = 10", "R = 10\n    L = 2"),
         "[domain] l not used by kind 'halfdisk'"),
        ("classify", SADDLE_CFG.format(method="minimize").replace("argmax-d", "0;6"),
         "bad value for [solver] anchor"),
        ("spectrum", SPECTRUM_FAMILY_CFG.replace("state = family", "state = famliy"),
         "bad value for [spectrum] state"),
        ("classify", SADDLE_CFG.format(method="minimize").replace("flat", "flta"),
         "bad value for [curvature] background"),
    ], ids=["section", "solver-key", "spectrum-key", "default-key", "cylinder-r",
            "halfdisk-L", "anchor", "state", "background"])
    def test_undeclared_names_and_values_exit_3(self, tmp_path, capsys, mode, text, message):
        code, _ = run_cli(tmp_path, mode, text)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("config error: " + message)

    def test_non_integer_gamma_names_the_value(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "blowup", GAMMA_SWEEP_CFG.format(parameters="4, 8.000001"))
        assert code == 3
        assert "[sweep] gamma must be an integer, got 8.000001\n" in capsys.readouterr().err


class TestSolveMode:
    def test_minimize_artifacts(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "solve", MINIMIZE_CFG)
        assert code == 0
        rep = read_json(out, "report.json")
        assert rep["converged"] is True
        assert rep["method"] == "minimize"
        assert rep["morse_index"] == 0
        assert "state" not in rep
        man = read_json(out, "manifest.json")
        assert man["mode"] == "solve"
        assert man["settings"]["tol"] == 1e-10
        lines = (out / "state.csv").read_text().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) > 100
        assert "converged=True" in capsys.readouterr().out

    def test_reruns_are_bit_identical(self, tmp_path):
        _, out_a = run_cli(tmp_path, "solve", RANDOM_INIT_CFG, out="out_a")
        _, out_b = run_cli(tmp_path, "solve", RANDOM_INIT_CFG, out="out_b")
        for name in ("manifest.json", "report.json", "state.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_state_csv_matches_savetxt_and_round_trips(self, tmp_path):
        mesh = build_mesh(DomainSpec("cylinder", L=1.0, level=2))
        u = np.random.default_rng(7).standard_normal(mesh.n_dof) * np.logspace(
            -300, 300, mesh.n_dof)
        u[:3] = (-0.0, -1.0 / 3.0, -np.finfo(float).max)
        assert (u < 0).sum() > mesh.n_dof // 4
        cli._write_state_csv(str(tmp_path / "state.csv"), mesh, u)
        table = np.column_stack([mesh.dof_coords, u])
        np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",",
                   header="x,y,u", comments="")
        assert (tmp_path / "state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = np.loadtxt(tmp_path / "state.csv", delimiter=",", skiprows=1)
        assert np.array_equal(back, table)
        assert np.signbit(back[0, 2])

    @pytest.mark.parametrize("coords", [
        # repeated coordinates (formatted once and gathered), -0.0 and 0.0 in each column
        [[0.0, -0.0], [-0.0, 0.0], [1.0 / 3.0, -0.0], [0.0, 0.0],
         [-1.0 / 3.0, 1e-300], [-0.0, -1e-300], [1.0 / 3.0, 1e-300]],
        # more distinct values than rows (one formatting pass)
        [[0.0, -0.0], [-0.0, 0.0], [1.0 / 3.0, -2.0], [0.5, 0.25],
         [-1.0 / 3.0, 1e-300], [-0.5, -1e-300], [0.75, 3.0]],
    ], ids=["gathered", "one-pass"])
    def test_state_csv_keeps_signed_zero_coordinates(self, tmp_path, coords):
        coords = np.array(coords)
        u = np.array([-0.0, 0.0, 1.5, -2.0 / 3.0, 1e300, -0.0, 7.0])
        cli._write_state_csv(str(tmp_path / "state.csv"), SimpleNamespace(dof_coords=coords), u)
        np.savetxt(tmp_path / "ref.csv", np.column_stack([coords, u]), fmt="%.17g",
                   delimiter=",", header="x,y,u", comments="")
        assert (tmp_path / "state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "state.csv").read_text().splitlines()[1:3] == ["0,-0,-0", "-0,0,0"]

    def test_manifest_records_versions_and_threads(self, tmp_path, monkeypatch):
        import platform

        import scipy
        monkeypatch.setenv("PRESCURV_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        _, out_a = run_cli(tmp_path, "classify", MINIMIZE_CFG, out="out_a")
        _, out_b = run_cli(tmp_path, "classify", MINIMIZE_CFG, out="out_b")
        env = read_json(out_a, "manifest.json")["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert env["lapack"] == f"{lapack['name']} {lapack['version']}"
        assert set(env["threads"]) == {"PRESCURV_THREADS", "OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["threads"]["PRESCURV_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert ((out_a / "manifest.json").read_bytes()
                == (out_b / "manifest.json").read_bytes())

    def test_non_convergence_exits_2(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", STALLED_CFG)
        assert code == 2
        assert read_json(out, "report.json")["converged"] is False

    def test_overflowing_descent_test_exits_2_without_a_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = run_cli(tmp_path, "solve", OVERFLOW_CFG)
        assert code == 2
        assert (capsys.readouterr().err
                == "solver failure: the residual of the start is not finite\n")

    def test_report_json_is_strict_json(self, tmp_path):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out = run_cli(tmp_path, "solve", OVERFLOW_CFG)
        assert code == 2
        rep = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert rep["residual_norm"] is None
        assert [e["residual_norm"] for e in rep["levels"]] == [None, None]

    def test_non_finite_floats_are_null(self):
        assert cli._jsonable({"a": np.float64("nan"), "b": -math.inf,
                              "c": [np.inf, 1.5], "d": np.array([np.nan])}) == {
            "a": None, "b": None, "c": [None, 1.5], "d": [None]}

    def test_minimize_assembles_once_per_level(self, tmp_path, monkeypatch):
        levels, real = [], energy.assemble
        monkeypatch.setattr(energy, "assemble",
                            lambda mesh: levels.append(mesh.spec.level) or real(mesh))
        code, _ = run_cli(tmp_path, "solve", MINIMIZE_CFG)
        assert code == 0
        assert sorted(levels) == [0, 1, 2]

    @pytest.mark.parametrize("mode", ["solve", "spectrum"])
    def test_downward_escape_exits_2(self, tmp_path, capsys, mode):
        # Newton stops once the sup passes -blowup_threshold, instead of
        # running to max_iter with the state at sup -1e11
        code, out = run_cli(tmp_path, mode, DOWNWARD_CFG)
        assert code == 2
        assert capsys.readouterr().err == "solver failure: state escaped downward\n"
        if mode == "solve":
            rep = read_json(out, "report.json")
            assert rep["converged"] is False and rep["blowup_flag"] is False
            assert rep["sup"] < -50.0
            assert [e["level"] for e in rep["levels"]] == [0, 1]
            assert all(e["message"] == "state escaped downward" and e["iterations"] <= 10
                       for e in rep["levels"])

    def test_mesh_scale_bubble_exits_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "solve", BUBBLE_CFG)
        assert code == 2
        rep = read_json(out, "report.json")
        assert rep["converged"] is False
        assert "sup grows by" in rep["message"] and "D_max = 2" in rep["message"]
        captured = capsys.readouterr()
        assert "converged=False" in captured.out
        assert captured.err == f"solver failure: {rep['message']}\n"

    def test_mountain_pass(self, tmp_path):
        code, out = run_cli(tmp_path, "solve",
                            SADDLE_CFG.format(method="mountain-pass"))
        assert code == 0
        rep = read_json(out, "report.json")
        assert rep["method"] == "mountain-pass"
        assert rep["converged"] is True
        assert rep["morse_index"] <= 1
        assert (out / "path.dat").exists()
        assert (out / "plot.gp").exists()

    def test_mountain_pass_without_barrier_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "solve", """
            [domain]
            kind = annulus
            r = 0.8
            level = 2

            [curvature]
            K = -1
            h = 0.5
            background = flat

            [solver]
            method = mountain-pass
        """)
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_overflowing_bubble_offset_exits_2(self, tmp_path, capsys):
        # q2 = 1e200 puts every bubble's wall at 0 * inf: no endpoint is built
        code, _ = run_cli(tmp_path, "solve",
                          SADDLE_CFG.format(method="mountain-pass") + "    q2 = 1e200\n")
        err = capsys.readouterr().err
        assert code == 2, err
        assert "test function schedule exhausted" in err and "q2=1e+200" in err

    def test_mountain_pass_at_eps_0_has_no_constant_start(self, tmp_path, capsys):
        # flat background and a negative boundary datum: at eps = 0 no
        # constant state minimizes the energy, so no pass can start
        code, _ = run_cli(tmp_path, "solve", SADDLE_CFG.format(method="mountain-pass")
                          .replace("eps = 0.05", "eps = 0"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: no constant minimizes")

    def test_saddle_of_another_index_exits_2(self, tmp_path, capsys, monkeypatch):
        forge_saddle_index(monkeypatch)
        code, out = run_cli(tmp_path, "solve", SADDLE_CFG.format(method="mountain-pass"))
        assert code == 2
        assert capsys.readouterr().err == "solver failure: Morse index 2, not 1\n"
        rep = read_json(out, "report.json")
        assert rep["converged"] is False and rep["morse_index"] == 2

    @pytest.mark.parametrize("mode", ["spectrum", "pohozaev", "solve"])
    def test_failed_solve_states_its_reason(self, tmp_path, capsys, mode):
        # a bubble at the mesh scale stops the nested minimize: the modes
        # that report on the solved state exit 2 and say why on stderr
        code, _ = run_cli(tmp_path, mode, """
            [domain]
            kind = annulus
            r = 0.55
            level = 1

            [curvature]
            K = -(2)
            h = 0.2 + -0.079*sin(y) ; 2
            background = flat

            [solver]
            method = minimize
        """)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: sup grows by")
        assert "a bubble at the mesh scale" in err

    def test_continuation_writes_stage_reports(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", CONTINUATION_CFG)
        assert code == 0
        for i in range(3):
            rep = read_json(out, f"report_{i}.json")
            assert rep["converged"] is True
            # the identity of the relaxed data solved at the stage's eps
            assert abs(rep["gauss_bonnet"]) < 1e-8
        assert not (out / "report.json").exists()


class TestLevelsTable:
    def test_minimize_lists_every_level(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "solve", MINIMIZE_CFG)
        assert code == 0
        levels = read_json(out, "report.json")["levels"]
        assert [(e["level"], e["method"]) for e in levels] == [
            (0, "direct"), (1, "finish"), (2, "finish")]
        for e in levels:
            assert e["morse_index"] == 0 and "message" not in e
            assert "seconds" not in e  # reruns stay bit-identical
        assert {"n_dof", "iterations", "residual_norm", "energy", "sup"} <= set(levels[0])
        assert "level=2 n_dof=832 finish seconds=" in capsys.readouterr().out

    def test_continuation_records_failed_coarse_levels(self, tmp_path):
        code, out = run_cli(tmp_path, "solve", CONTINUATION_CFG)
        assert code == 0
        levels = read_json(out, "report_0.json")["levels"]
        assert [(e["level"], e["method"]) for e in levels] == [
            (0, "direct"), (1, "direct"), (2, "direct"), (3, "direct")]
        for e in levels[:3]:
            assert "schedule exhausted" in e["message"]
            assert "boundary edge" in e["message"]
        assert levels[3]["morse_index"] == 1
        later = read_json(out, "report_1.json")["levels"]
        assert [(e["level"], e["method"]) for e in later] == [(3, "finish")]

    def test_explicit_anchor_maps_by_arclength(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(textwrap.dedent(SADDLE_CFG.format(method="continuation")
                                            ).replace("argmax-d", "0,6"))
        cfg = cli.load_config(str(cfg_path), "solve", str(tmp_path), False)
        coarse = Problem(build_mesh(DomainSpec("annulus", r=0.8, level=2)), cfg.curvature)
        point = cli._resolve_anchor(cfg, coarse)
        assert point.index == 3
        assert point.s == cfg.mesh.boundary_point(0, 6).s


class TestClassifyMode:
    def test_regime_json_and_stdout(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "classify", MINIMIZE_CFG)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "min-negative-bg"
        assert payload["D_max"] == pytest.approx(0.5)
        assert read_json(out, "regime.json") == payload


class TestSpectrumMode:
    def test_disk_form(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "spectrum", """
            [domain]
            kind = cylinder
            level = 0

            [spectrum]
            disk_form = 1.2
            n_r = 600
            m_cap = 8
        """)
        assert code == 0
        payload = read_json(out, "spectrum.json")
        assert payload["negative_count"] == 1
        assert payload["D0"] == pytest.approx(1.2)
        # the one negative direction is the gamma direction, and the
        # conformal fields span the m = 1 kernel
        assert payload["radial_eigenvalue"] < 0
        assert payload["correlation_with_gamma"] > 0.999
        assert 0 <= payload["kernel_rayleigh"] < 1e-5
        assert "negative_count=1" in capsys.readouterr().out

    def test_solved_minimizer_has_empty_negative_spectrum(self, tmp_path):
        code, out = run_cli(tmp_path, "spectrum", MINIMIZE_CFG)
        assert code == 0
        payload = read_json(out, "spectrum.json")
        assert payload["negative_count"] == 0
        assert payload["source"]["state"] == "solve"

    def test_solved_state_index_at_its_own_eps(self, tmp_path):
        # the continuation ends at eps = 0.02 while [solver] eps keeps its
        # default 0; at eps = 0 the same state has index 2
        code, out = run_cli(tmp_path, "spectrum", """
            [domain]
            kind = annulus
            r = 0.8
            level = 3

            [curvature]
            K = -1
            h = 2 ; -3
            background = flat

            [solver]
            method = continuation
            eps_schedule = 0.05, 0.02
            anchor = argmax-d
        """)
        assert code == 0
        payload = read_json(out, "spectrum.json")
        assert payload["negative_count"] == 1 and payload["source"]["eps"] == 0.02

    def test_family_state(self, tmp_path):
        code, out = run_cli(tmp_path, "spectrum", SPECTRUM_FAMILY_CFG)
        assert code == 0
        payload = read_json(out, "spectrum.json")
        assert payload["source"] == {"state": "family", "parameter": 2.0}
        assert payload["negative_count"] >= 1

    @pytest.mark.parametrize("solver", ["", "[solver]\n    eps = 0.5\n"], ids=["default", "eps"])
    def test_family_state_is_unrelaxed(self, tmp_path, solver):
        # a closed-form family state solves the eps = 0 problem, whatever
        # [solver] eps says
        code, out = run_cli(tmp_path, "spectrum", GAMMA_SWEEP_CFG.format(parameters="4")
                            + "\n    [spectrum]\n    state = family\n    " + solver)
        assert code == 0
        assert read_json(out, "spectrum.json")["negative_count"] == 7

    def test_failed_inertia_count_exits_2(self, tmp_path, capsys, monkeypatch):
        # the truncated strip's restricted form is counted by factorization;
        # with the centre's row and column zero but for an entry that
        # cancels the shift, the pivot of the centre (the border) is exactly 0
        real = Problem.hessian_parts

        def singular(self, u):
            scale, d = real(self, u)
            S = self.ops.S
            rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
            S.data[(rows == 0) | (S.indices == 0)] = 0.0
            d[0] = -spectral.NEG_TOL
            return scale, d

        monkeypatch.setattr(Problem, "hessian_parts", singular)
        code, out = run_cli(tmp_path, "spectrum", STRIP_CFG.format(kind="halfdisk", R=5))
        assert code == 2
        assert capsys.readouterr().err == ("solver failure: inertia count unavailable:"
                                           " pivot 0 is 0, the factorization is exactly"
                                           " singular\n")
        assert not (out / "spectrum.json").exists()

    @pytest.mark.parametrize("R,count", [(5, 3), (10, 6)])
    def test_strip_index_grows_with_truncation(self, tmp_path, R, count):
        code, out = run_cli(tmp_path, "spectrum", STRIP_CFG.format(kind="halfdisk", R=R))
        assert code == 0
        payload = read_json(out, "spectrum.json")
        assert payload["source"] == {"state": "family", "parameter": 2.0}
        assert payload["negative_count"] == count


class TestExactSweepMode:
    def test_gamma_sweep_csv(self, tmp_path):
        code, out = run_cli(tmp_path, "exact-sweep",
                            GAMMA_SWEEP_CFG.format(parameters="4, 8, 16"))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["parameter", "sup_u", "inf_u", "area_mass"]
        sup = [float(row.split(",")[1]) for row in lines[1:]]
        assert len(sup) == 3
        assert np.all(np.diff(sup) > 0)

    def test_plot_script_not_an_image(self, tmp_path):
        _, out = run_cli(tmp_path, "exact-sweep",
                         GAMMA_SWEEP_CFG.format(parameters="4, 8"))
        names = {p.name for p in out.iterdir()}
        assert names == {"manifest.json", "sweep.csv", "sweep.dat", "plot.gp"}
        script = (out / "plot.gp").read_text()
        assert "sweep.dat" in script


class TestBlowupMode:
    def test_gamma_family_diagnostics(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "blowup",
                            GAMMA_SWEEP_CFG.format(parameters="4, 8, 16"))
        assert code == 0
        diag = read_json(out, "blowup.json")
        assert diag["diverging"] is True
        assert diag["bounded_mass"] is False
        assert len(diag["candidates"]) == 16
        assert all(c["component"] == 0 for c in diag["candidates"])
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        assert "diverging=True" in capsys.readouterr().out


class TestPohozaevMode:
    def test_family_state_two_fields(self, tmp_path):
        code, out = run_cli(tmp_path, "pohozaev", POHOZAEV_FAMILY_CFG)
        assert code == 0
        payload = read_json(out, "pohozaev.json")
        assert payload["source"] == {"state": "family", "parameter": 2.0}
        assert len(payload["position"]["boundary_terms"]) == 2
        assert payload["position"]["residual"] < 0.5
        # f = cos(theta) is orthogonal to the gamma = 2 profile
        assert payload["holomorphic"]["residual"] < 1e-9

    def test_builds_only_the_reported_state(self, tmp_path, monkeypatch):
        built = []
        build = cli.annulus_gamma_problem
        monkeypatch.setattr(cli, "annulus_gamma_problem",
                            lambda mesh, p, h1, ops=None: built.append(p) or build(mesh, p, h1, ops))
        code, out = run_cli(tmp_path, "pohozaev", POHOZAEV_FAMILY_CFG.replace(
            "parameters = 2", "parameters = 4 3 2"))
        assert code == 0
        assert built == [2]
        assert read_json(out, "pohozaev.json")["source"] == {"state": "family", "parameter": 2.0}

    def test_family_state_assembles_nothing(self, tmp_path, monkeypatch):
        # the balance reads the mesh and the nodal data, never the operators
        assembled, real, build = [], energy.assemble, cli.annulus_gamma_problem
        monkeypatch.setattr(energy, "assemble", lambda mesh: assembled.append(mesh) or real(mesh))
        code, lazy = run_cli(tmp_path, "pohozaev", POHOZAEV_FAMILY_CFG, out="lazy")
        assert code == 0 and assembled == []
        monkeypatch.setattr(cli, "annulus_gamma_problem",
                            lambda mesh, p, h1, ops=None: build(mesh, p, h1, real(mesh)))
        code, eager = run_cli(tmp_path, "pohozaev", POHOZAEV_FAMILY_CFG, out="eager")
        assert code == 0
        assert (lazy / "pohozaev.json").read_bytes() == (eager / "pohozaev.json").read_bytes()

    def test_solved_state_against_the_data_it_solves(self, tmp_path):
        # the continuation ends at eps = 0.05, so the balance reads the
        # relaxed data; against the prescribed data it read 1.07 at level 3
        text = SADDLE_CFG.format(method="continuation") + """
    eps_schedule = 0.05

    [pohozaev]
    state = solve
    fields = position
"""
        code, solved = run_cli(tmp_path, "solve", text, out="solved")
        assert code == 0
        code, out = run_cli(tmp_path, "pohozaev", text)
        assert code == 0
        payload = read_json(out, "pohozaev.json")
        assert payload["source"] == {"state": "solve", "converged": True, "eps": 0.05}
        cfg = cli.load_config(str(tmp_path / "exp.ini"), "pohozaev", str(out), False)
        u = np.loadtxt(solved / "state.csv", delimiter=",", skiprows=1)[:, 2]
        relaxed = Problem(cfg.mesh, perturb(cfg.curvature, 0.05))
        ref = pohozaev_report(relaxed, u, {"position": position_field()})["position"]
        assert payload["position"]["residual"] == ref.residual
        assert ref.residual < 0.25

    def test_unknown_field_name(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "pohozaev", POHOZAEV_BAD_FIELD_CFG)
        assert code == 3
        assert "radial" in capsys.readouterr().err

    def test_cylinder_exits_3_before_solving(self, tmp_path, capsys, monkeypatch):
        # F = i z G is not periodic in x, so on the cylinder the balance
        # misses the seam flux, 2 pi int (4 e^u + u_y^2) dy on the
        # x-independent minimum of MINIMIZE_CFG: its residual read 81.6,
        # 82.4 and 82.7 at levels 2-4
        solves = []
        monkeypatch.setattr(cli, "_solve_problem", lambda cfg: solves.append(cfg))
        code, out = run_cli(tmp_path, "pohozaev", MINIMIZE_CFG + """
    [pohozaev]
    state = solve
    fields = position
""")
        assert code == 3
        assert "periodic on the cylinder" in capsys.readouterr().err
        assert solves == [] and not (out / "pohozaev.json").exists()

    def test_bad_coefficients_exit_3_before_solving(self, tmp_path, capsys, monkeypatch):
        # degree 4 on the 16 outer edges of level 0 trips the aliasing
        # guard, which needs only the mesh: no solve is paid for it
        solves = []
        monkeypatch.setattr(cli, "_solve_problem", lambda cfg: solves.append(cfg))
        code, out = run_cli(tmp_path, "pohozaev", SADDLE_CFG.format(method="minimize").replace(
            "level = 3", "level = 0") + """
    [pohozaev]
    state = solve
    fields = holomorphic
    cos_coeffs = 0 0 0 0 1
""")
        assert code == 3
        assert "trig degree too high" in capsys.readouterr().err
        assert solves == [] and not (out / "pohozaev.json").exists()


class TestTestfnMode:
    def test_overflowing_offset_exits_3(self, tmp_path, capsys):
        # mu^2 |x - q|^2 at q2 = 1e200 is 0 * inf: no wall, and no traceback
        code, _ = run_cli(tmp_path, "testfn", TESTFN_CFG.replace("q2 = 0.1", "q2 = 1e200"))
        err = capsys.readouterr().err
        assert code == 3, err
        assert "mu d(x, q) > 1 fails on the mesh" in err

    def test_graded_halfdisk_slopes(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "testfn", TESTFN_CFG)
        assert code == 0
        payload = read_json(out, "testfn.json")
        assert payload["d_at_point"] == pytest.approx(2.0)
        assert payload["anchor"]["component"] == 0
        slopes = payload["fitted_slopes"]
        assert slopes["dirichlet"] <= 8 * math.pi * 1.1
        assert slopes["boundary"] >= 2 * math.pi * 2.0 * 0.9
        assert payload["energy_end"] < 0
        assert (out / "testfn.csv").exists()
        assert (out / "testfn.dat").exists()
        assert "fitted slopes" in capsys.readouterr().out

    def test_rejects_schedule_crossing_wall(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "testfn", """
            [domain]
            kind = annulus
            r = 0.2
            level = 3

            [curvature]
            K = -1
            h = 2
            background = flat

            [solver]
            anchor = 1,0

            [testfn]
            q2 = 0.5
            ratios = 1.5, 1.4
        """)
        assert code == 3
        assert "mu" in capsys.readouterr().err


class TestDomainKeys:
    # configparser folds key case; each kind must read only its own key
    def test_annulus_r_leaves_R(self, tmp_path):
        code, out = run_cli(tmp_path, "classify", SADDLE_CFG.format(method="minimize"))
        assert code == 0
        dom = read_json(out, "manifest.json")["domain"]
        assert dom["r"] == 0.8
        assert dom["R"] == 1.0

    def test_halfdisk_R_leaves_r(self, tmp_path):
        code, out = run_cli(tmp_path, "classify", """
            [domain]
            kind = halfdisk
            R = 8
            level = 1

            [curvature]
            K = -1
            h = 2 ; 0
        """)
        assert code == 0
        dom = read_json(out, "manifest.json")["domain"]
        assert dom["R"] == 8.0
        assert dom["r"] == 0.5


class TestQuickFlag:
    def test_quick_clamps_level(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(textwrap.dedent("""
            [domain]
            kind = cylinder
            level = 6

            [curvature]
            K = -1
            h = 0.5
            K_bg = -1
        """))
        out = tmp_path / "out"
        code = cli.main(["classify", "--config", str(cfg),
                         "--out", str(out), "--quick"])
        assert code == 0
        man = read_json(out, "manifest.json")
        assert man["quick"] is True
        assert man["domain"]["level"] <= 3
