"""Tests of the benchmark's own checks and tracer.

Run from the root of a checkout::

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scipy.sparse.linalg as spla  # noqa: E402

from prescurv import cli, diagnostics, energy, solve  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_SADDLE = """\
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
eps_schedule = 0.05 0.02
seed = {seed}
"""


@pytest.fixture
def saddle_run(tmp_path):
    """A level-3 annulus saddle run through the CLI, as the benchmark does."""
    config = tmp_path / "saddle.ini"
    config.write_text(SMALL_SADDLE.replace("{seed}", "0"))
    inv = workloads.Invocation("L3", "solve", config, tmp_path / "L3")
    workload = workloads.WORKLOADS["annulus_saddle"]
    configs = workload.setup([inv])
    rc, wall, err = run.invoke(cli, inv)
    assert rc == 0, err
    return workload, inv, configs


def _bindings():
    """Every attribute of the package modules, SciPy's sparse solvers and
    the traced classes, by identity."""
    owners = [m for n, m in sys.modules.items()
              if n.split(".")[0] == "prescurv" and m is not None]
    owners += [spla, energy.Problem, energy.Operators]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_correct_run_passes_checks(saddle_run):
    workload, inv, configs = saddle_run
    assert workload.check(inv, 0, configs) == []


def test_wrong_morse_index_fails(saddle_run):
    workload, inv, configs = saddle_run
    path = inv.out / "report_1.json"
    rep = json.loads(path.read_text())
    rep["morse_index"] = 0
    path.write_text(json.dumps(rep))
    failures = workload.check(inv, 0, configs)
    assert any("Morse index 0 != 1" in f for f in failures)


@pytest.mark.parametrize("rc", [2, 3, None])
def test_nonzero_exit_code_fails(saddle_run, rc):
    workload, inv, configs = saddle_run
    assert workload.check(inv, rc, configs) == [f"exit code {rc}"]


@pytest.mark.parametrize("outcome", [2, RuntimeError("boom")])
def test_runner_counts_failed_invocations(saddle_run, outcome):
    workload, inv, configs = saddle_run

    class FailingCli:
        @staticmethod
        def main(argv):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

    runner = run.Runner(FailingCli, workload, [inv], configs)
    runner.repetition()
    assert runner.attempted == 1
    assert list(runner.failures) == ["0:L3"]


def test_missing_artifact_fails(saddle_run):
    workload, inv, configs = saddle_run
    (inv.out / "state.csv").unlink()
    failures = workload.check(inv, 0, configs)
    assert failures and "unreadable artifacts" in failures[0]


def test_wrappers_restore_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert cli.minimize is not before[(id(cli), "minimize")]
        assert cli.minimize is solve.minimize
        assert spla.splu is not before[(id(spla), "splu")]
        assert energy.Problem.energy is not before[(id(energy.Problem), "energy")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_metrics(saddle_run):
    workload, inv, configs = saddle_run
    tracer = tracing.Tracer()
    tracer.invocation = "0:L3"
    with tracer:
        rc, wall, _ = run.invoke(cli, inv)
    assert rc == 0
    assert tracer.check_self_times({"0:L3": wall}) == {}
    metrics, absent = tracer.layer_metrics()
    assert absent == []
    assert metrics["cli.main.s"][0] <= wall
    assert metrics["solve.mountain_pass.sweeps"][0] > 0
    assert metrics["spectral.morse_index.calls"][0] == 2
    assert metrics["solve.factorizations_per_step"][0] >= 1.0
    assert 0.0 < metrics["solve.step_accept_ratio"][0] <= 1.0
    assert metrics["energy.energy.calls"][0] > 0


def test_missing_names_are_absent(monkeypatch):
    monkeypatch.delattr(diagnostics, "recovered_gradient")
    monkeypatch.delattr(energy.Operators, "solve_B")
    tracer = tracing.Tracer()
    with tracer:
        pass
    metrics, absent = tracer.layer_metrics()
    for name in ("diagnostics.recovered_gradient.calls",
                 "diagnostics.recovered_gradient.s",
                 "energy.solve_B.calls", "energy.solve_B.self_s"):
        assert name in absent
        assert name not in metrics
    assert "energy.energy.calls" in metrics


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, None, "0"], ["b", 1.0, 4.0, 0, "0"],
                    ["c", 2.0, 3.0, 1, "0"], ["b", 5.0, 6.0, 0, "0"]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.table() == {"a": (1, 10.0, 6.0), "b": (2, 4.0, 3.0), "c": (1, 1.0, 1.0)}
    assert tracer.check_self_times({"0": 10.0}) == {}
    assert "0" in tracer.check_self_times({"0": 9.0})
