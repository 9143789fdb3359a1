"""End-to-end checks of the command line driver.

Every test goes through ``cli.main`` with a config written to a temp
directory, so argument parsing, config validation, artifact writing and
exit codes are all exercised on the real code path.
"""

import json
import math
import textwrap

import numpy as np
import pytest

from prescurv import cli
from prescurv.domain import DomainSpec, build_mesh
from prescurv.energy import Problem

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
        ("spectrum", "[domain]\nkind = cylinder\n[spectrum]\ndisk_form = 0.5\n"),
        ("spectrum", "[domain]\nkind = cylinder\n[spectrum]\ndisk_form = 1.2\nn_r = 0\n"),
        ("spectrum", STRIP_CFG.format(kind="cylinder", R=5)),
        ("exact-sweep", GAMMA_SWEEP_CFG.format(parameters="2").replace("h1 = 2.0", "h1 = x")),
        ("testfn", TESTFN_CFG + "    tail = 1\n"),
        ("testfn", TESTFN_CFG + "    tail = 0\n"),
    ], ids=["K-positive", "h_bg-text", "L-inf", "R-inf", "grade-inf", "grade-1e6",
            "schedule-empty", "schedule-negative", "eps-negative", "path_points-0", "path_points-2",
            "q2-0", "disk_form-0.5", "n_r-0", "strip-on-cylinder", "h1-text",
            "tail-1", "tail-0"])
    def test_bad_values_exit_3_without_traceback(self, tmp_path, capsys, mode, text):
        code, _ = run_cli(tmp_path, mode, text)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("config error")
        assert "Traceback" not in err


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

    def test_mesh_scale_bubble_exits_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "solve", BUBBLE_CFG)
        assert code == 2
        rep = read_json(out, "report.json")
        assert rep["converged"] is False
        assert "sup grows by" in rep["message"] and "D_max = 2" in rep["message"]
        assert "converged=False" in capsys.readouterr().out

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

    def test_mountain_pass_at_eps_0_has_no_constant_start(self, tmp_path, capsys):
        # flat background and a negative boundary datum: at eps = 0 no
        # constant state minimizes the energy, so no pass can start
        code, _ = run_cli(tmp_path, "solve", SADDLE_CFG.format(method="mountain-pass")
                          .replace("eps = 0.05", "eps = 0"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: no constant minimizes")

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
        assert read_json(out, "spectrum.json")["negative_count"] == 1

    def test_family_state(self, tmp_path):
        code, out = run_cli(tmp_path, "spectrum", SPECTRUM_FAMILY_CFG)
        assert code == 0
        payload = read_json(out, "spectrum.json")
        assert payload["source"] == {"state": "family", "parameter": 2.0}
        assert payload["negative_count"] >= 1

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

    def test_unknown_field_name(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "pohozaev", POHOZAEV_BAD_FIELD_CFG)
        assert code == 3
        assert "radial" in capsys.readouterr().err


class TestTestfnMode:
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
