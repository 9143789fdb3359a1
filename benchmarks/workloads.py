"""The benchmark's workloads: CLI configs, set-up, invocations and checks.

Each workload is one or more ``prescurv`` CLI invocations whose configs
live in ``configs/``.  The benchmark writes a copy of each config with
the run's seed into the run's output directory and passes that copy to
``prescurv.cli.main``.  The seed lands in ``[solver] seed``, which only
random starts read; these workloads start from zero or from closed-form
states, so every seed measures the same work.

``setup`` repeats the CLI's own set-up through public functions
(``cli.load_config`` and the ``Problem`` builds), so work moved into
set-up shows in ``setup_s``.  ``check`` validates one invocation's exit
code and artifacts against independent references and returns the list
of failed checks (empty when the invocation is correct).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from prescurv import cli, exact, fields
from prescurv.energy import Problem

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Level-5 bound on the cylinder state against the shooting oracle: the
# tier-1 level-3 bound 5e-3 scaled by the O(h^2) P1 rate over two
# refinements (5e-3 / 16).  Measured error at this commit: 1.6e-4.
CYLINDER_ORACLE_TOL = 3e-4
# Relaxed Gauss-Bonnet identity of the data actually solved.
GAUSS_BONNET_TOL = 1e-8
# Annulus saddle, level 4 against level 5, per eps: sup and relaxed
# energy.  Measured differences at this commit: 6.2e-4 and 6.3e-4.
SADDLE_LEVEL_TOL = 5e-3
HOLOMORPHIC_TOL = 1e-10
# Position-field Pohozaev residual of the gamma=4 state at level 6, as
# recorded at the commit that introduced the benchmark.  It is a pure
# function of the closed-form state, so any change is a defect.
POSITION_RESIDUAL = 0.2974557268224771
POSITION_REL_TOL = 1e-9


@dataclass
class Invocation:
    """One ``prescurv <mode> --config <config> --out <out>`` call."""

    label: str
    mode: str
    config: Path
    out: Path

    def argv(self) -> list[str]:
        return [self.mode, "--config", str(self.config), "--out", str(self.out)]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_state(path: Path, mesh) -> np.ndarray:
    """Nodal state from ``state.csv``, checked to be in dof order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "y", "u"]:
        raise ValueError(f"unexpected state.csv header {rows[0]}")
    data = np.array(rows[1:], dtype=float)
    if data.shape != (mesh.n_dof, 3) or not np.array_equal(data[:, :2], mesh.dof_coords):
        raise ValueError("state.csv rows do not match the mesh dofs")
    return data[:, 2]


def shooting_profile(K_bg: float, K0: float, h0: float, L: float):
    """Independent 1-D oracle for the symmetric cylinder minimizer.

    Solves u'' = 2 K_bg - 2 K0 e^u on [L/2, L] with u'(L/2) = 0 and
    u'(L) = 2 h0 e^{u(L)/2} by midpoint shooting, and reflects it.
    """

    def shoot(m):
        return solve_ivp(lambda t, y: [y[1], 2 * K_bg - 2 * K0 * np.exp(y[0])],
                         (L / 2, L), [m, 0.0], method="DOP853",
                         rtol=1e-12, atol=1e-14, dense_output=True)

    def defect(m):
        s = shoot(m)
        return s.y[1][-1] - 2 * h0 * np.exp(s.y[0][-1] / 2)

    sol = shoot(brentq(defect, -10.0, 4.0, xtol=1e-13))

    def u(t):
        t = np.asarray(t, dtype=float)
        return sol.sol(np.where(t < L / 2, L - t, t))[0]

    return u


def _expect(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


class Workload:
    """Base: configs named ``configs/<config_stem>.ini`` run in ``mode``."""

    name = ""
    mode = ""
    labels: tuple[tuple[str, str], ...] = ()  # (label, config stem)

    def invocations(self, out_dir: Path, seed: int) -> list[Invocation]:
        out_dir.mkdir(parents=True, exist_ok=True)
        invs = []
        for label, stem in self.labels:
            text = (CONFIG_DIR / f"{stem}.ini").read_text()
            config = out_dir / f"{stem}.ini"
            config.write_text(text.replace("{seed}", str(seed)))
            invs.append(Invocation(label, self.mode, config, out_dir / label))
        return invs

    def setup(self, invocations: list[Invocation]) -> dict:
        """Load each config and build its Problem(s); returns the
        configs keyed by label for the checks."""
        configs = {}
        for inv in invocations:
            cfg = cli.load_config(str(inv.config), inv.mode, str(inv.out), False)
            self.build_problems(cfg)
            configs[inv.label] = cfg
        return configs

    def build_problems(self, cfg) -> None:
        Problem(cfg.mesh, cfg.curvature)

    def prepare(self, configs: dict) -> None:
        """Untimed work the checks need once per run."""

    def check(self, inv: Invocation, rc, configs: dict) -> list[str]:
        failures: list[str] = []
        _expect(failures, rc == 0, f"exit code {rc}")
        if rc == 0:
            try:
                self.check_artifacts(inv, configs, failures)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                failures.append(f"unreadable artifacts: {exc!r}")
        return failures

    def check_artifacts(self, inv: Invocation, configs: dict, failures: list[str]) -> None:
        raise NotImplementedError


class CylinderSolve(Workload):
    name = "cylinder_solve"
    mode = "solve"
    labels = (("L5", "cylinder_solve"),)

    def prepare(self, configs: dict) -> None:
        cfg = configs["L5"]
        spec = cfg.curvature
        self.oracle = shooting_profile(spec.K_bg, spec.K.constant_value(),
                                       spec.h[0].constant_value(), cfg.domain.L)

    def check_artifacts(self, inv, configs, failures):
        cfg = configs[inv.label]
        rep = _read_json(inv.out / "report.json")
        _expect(failures, rep["converged"] is True, "not converged")
        _expect(failures, rep["residual_norm"] < cfg.settings["tol"],
                f"residual {rep['residual_norm']:.3e} >= tol")
        _expect(failures, rep["morse_index"] == 0,
                f"Morse index {rep['morse_index']} != 0")
        u = _read_state(inv.out / "state.csv", cfg.mesh)
        err = float(np.max(np.abs(u - self.oracle(cfg.mesh.dof_coords[:, 1]))))
        _expect(failures, err < CYLINDER_ORACLE_TOL,
                f"state differs from the shooting oracle by {err:.3e}")


class AnnulusSaddle(Workload):
    name = "annulus_saddle"
    mode = "solve"
    labels = (("L4", "annulus_saddle_L4"), ("L5", "annulus_saddle_L5"))

    def check_artifacts(self, inv, configs, failures):
        cfg = configs[inv.label]
        schedule = cfg.settings["eps_schedule"]
        reports = [_read_json(inv.out / f"report_{i}.json") for i in range(len(schedule))]
        for eps, rep in zip(schedule, reports):
            _expect(failures, rep["eps"] == eps, f"report eps {rep['eps']} != {eps}")
            _expect(failures, rep["converged"] is True, f"eps={eps}: not converged")
            _expect(failures, rep["morse_index"] == 1,
                    f"eps={eps}: Morse index {rep['morse_index']} != 1")
        # The CLI writes the state of the last eps only.  Recompute the
        # identity for the relaxed data it solves instead of trusting the
        # report's gauss_bonnet field.
        u = _read_state(inv.out / "state.csv", cfg.mesh)
        relaxed = Problem(cfg.mesh, fields.perturb(cfg.curvature, schedule[-1]))
        gb = abs(relaxed.gauss_bonnet_residual(u))
        _expect(failures, gb <= GAUSS_BONNET_TOL,
                f"relaxed Gauss-Bonnet defect {gb:.3e}")
        if inv.label == "L5":
            coarse = [_read_json(inv.out.parent / "L4" / f"report_{i}.json")
                      for i in range(len(schedule))]
            for eps, lo, hi in zip(schedule, coarse, reports):
                for key, a, b in (("sup", lo["sup"], hi["sup"]),
                                  ("energy", lo["energy"]["total_eps"],
                                   hi["energy"]["total_eps"])):
                    _expect(failures, abs(a - b) <= SADDLE_LEVEL_TOL,
                            f"eps={eps}: L4/L5 {key} differ by {abs(a - b):.3e}")


class GammaPohozaev(Workload):
    name = "gamma_pohozaev"
    mode = "pohozaev"
    labels = (("L6", "gamma_pohozaev"),)

    def build_problems(self, cfg) -> None:
        # Mirrors the CLI's family sweep: one assembly shared by all gammas.
        sweep = cfg.settings["sweep"]
        h1 = float(sweep["h1"])
        ops = None
        for p in sweep["parameters"].split():
            ops = exact.annulus_gamma_problem(cfg.mesh, int(float(p)), h1, ops=ops).ops

    def check_artifacts(self, inv, configs, failures):
        rep = _read_json(inv.out / "pohozaev.json")
        holo = rep["holomorphic"]["residual"]
        _expect(failures, holo <= HOLOMORPHIC_TOL,
                f"holomorphic residual {holo:.3e}")
        pos = rep["position"]["residual"]
        rel = abs(pos - POSITION_RESIDUAL) / POSITION_RESIDUAL
        _expect(failures, rel <= POSITION_REL_TOL,
                f"position residual {pos!r} differs from {POSITION_RESIDUAL!r} by {rel:.2e} relative")


WORKLOADS = {w.name: w for w in (CylinderSolve(), AnnulusSaddle(), GammaPohozaev())}
