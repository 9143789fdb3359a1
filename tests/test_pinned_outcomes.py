"""Pinned outcomes: "results unchanged" as a test.

The four benchmark configs (seed 1), a half-disk L4 ``minimize``, the
strip spectra at R = 5 and R = 10, and the blow-up verdicts of the
annulus gamma family and the half-disk bubble family run in-process
through ``cli.main``, and what each run certifies is compared with the
committed table ``pinned_outcomes.json``: exit code, ``converged``,
``morse_index``, Newton iterations per level, ``total`` and
``total_eps`` to 1e-10 relative, ``sup``, the Gauss-Bonnet defect within
the contract's bound, negative counts, the gamma = 4 Pohozaev residuals
to 1e-9 relative, both sides of its position balance to 1e-10 relative,
and the blow-up candidates (cluster sizes, D, local masses),
concentration, far fractions and projection distance to 1e-12 relative
with the verdict flags.

The tolerances are solver-level: the same discretization is solved, so
only rounding may move a value.  Saddle states are pinned by energies
and ``sup``, not node by node, because they may move along their
rotation circle.  A change that moves an outcome rewrites the table with
``python tests/test_pinned_outcomes.py --write`` and explains each moved
entry in ``CHANGES.md``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from conftest import assert_gauss_bonnet
from prescurv import cli

HERE = Path(__file__).resolve().parent
TABLE = HERE / "pinned_outcomes.json"
CONFIGS = HERE.parent / "benchmarks" / "configs"

HALFDISK = """[domain]
kind = halfdisk
R = 2
grade = 1
level = 4
[curvature]
K = -1
h = 0.5 ; 0.5
K_bg = -1
[solver]
method = minimize
"""
STRIP = """[domain]
kind = halfdisk
R = {R}
level = 3
[sweep]
family = strip
parameters = 2
[spectrum]
state = family
"""
GAMMA_BLOWUP = """[domain]
kind = annulus
r = 0.5
level = 4
[sweep]
family = gamma
parameters = 4 8 16
h1 = 2
"""
BUBBLE_BLOWUP = """[domain]
kind = halfdisk
R = 2
level = 4
[sweep]
family = bubble
parameters = 1.0 0.3 0.03
"""
FLAGS = ("diverging", "bounded_mass", "d_geq_one", "d_tau_zero", "interior_vanishing",
         "interior_breach")
CANDIDATE = ("cluster_size", "whole_component", "D", "local_interior_mass",
             "local_boundary_mass")


def cases() -> dict:
    """Name -> (mode, config text)."""
    out = {p.stem: ("pohozaev" if "[pohozaev]" in p.read_text() else "solve",
                    p.read_text().replace("{seed}", "1")) for p in sorted(CONFIGS.glob("*.ini"))}
    out["halfdisk_minimize_L4"] = ("solve", HALFDISK)
    for R in (5, 10):
        out[f"strip_R{R}"] = ("spectrum", STRIP.format(R=R))
    out["gamma_blowup_L4"] = ("blowup", GAMMA_BLOWUP)
    out["bubble_blowup_L4"] = ("blowup", BUBBLE_BLOWUP)
    return out


def run(mode: str, text: str, tmp: Path) -> tuple[dict, list]:
    """The outcome of one CLI run, and its solve reports with their meshes."""
    (tmp / "exp.ini").write_text(text)
    argv = [mode, "--config", str(tmp / "exp.ini"), "--out", str(tmp / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        outcome = {"exit": cli.main(argv)}
    reports = []
    for path in sorted((tmp / "out").glob("*.json")):
        data = json.loads(path.read_text())
        if path.stem.startswith("report"):
            reports.append(data)
            outcome[path.stem] = {
                "converged": data["converged"], "morse_index": data["morse_index"],
                "iterations": [e.get("iterations") for e in data["levels"]],
                "total": data["energy"]["total"], "total_eps": data["energy"]["total_eps"],
                "sup": data["sup"]}
        elif path.stem == "pohozaev":
            outcome["pohozaev"] = {"gamma": data["source"]["parameter"],
                                   **{f: data[f]["residual"] for f in ("position", "holomorphic")},
                                   "position_interior": data["position"]["interior_term"],
                                   "position_boundary": data["position"]["boundary_terms"]}
        elif path.stem == "spectrum":
            outcome["negative_count"] = data["negative_count"]
        elif path.stem == "blowup":
            outcome["blowup"] = {
                "candidates": [{f: c[f] for f in CANDIDATE} for c in data["candidates"]],
                **{f: data[f] for f in ("concentration", "far_fractions", "tv_projection")},
                "flags": {f: data[f] for f in FLAGS}}
    return outcome, reports


@pytest.mark.parametrize("name", sorted(cases()))
def test_outcome_is_pinned(name, tmp_path):
    mode, text = cases()[name]
    got, reports = run(mode, text, tmp_path)
    want = json.loads(TABLE.read_text())[name]
    assert got.keys() == want.keys()
    for key, pinned in want.items():
        if not isinstance(pinned, dict):
            assert got[key] == pinned, key
        elif key == "pohozaev":
            assert got[key]["gamma"] == pinned["gamma"]
            # the holomorphic residual is rounding-level: an absolute floor
            for field in ("position", "holomorphic"):
                assert got[key][field] == pytest.approx(pinned[field], rel=1e-9, abs=1e-12)
            # the holomorphic residual's floor hides its sides, so the
            # position balance is pinned side by side, not only by difference
            for field in ("position_interior", "position_boundary"):
                assert got[key][field] == pytest.approx(pinned[field], rel=1e-10), field
        elif key == "blowup":
            diag = got[key]
            assert diag["flags"] == pinned["flags"]
            assert len(diag["candidates"]) == len(pinned["candidates"])
            for cand, want_cand in zip(diag["candidates"], pinned["candidates"]):
                for field in CANDIDATE:
                    assert cand[field] == pytest.approx(want_cand[field], rel=1e-12), field
            for field in ("concentration", "far_fractions", "tv_projection"):
                assert diag[field] == pytest.approx(pinned[field], rel=1e-12), field
        else:
            rep = got[key]
            for field in ("converged", "morse_index", "iterations"):
                assert rep[field] == pinned[field], (key, field)
            for field in ("total", "total_eps"):
                assert rep[field] == pytest.approx(pinned[field], rel=1e-10), (key, field)
            assert rep["sup"] == pytest.approx(pinned["sup"], abs=1e-8), key
    mesh = cli.load_config(str(tmp_path / "exp.ini"), mode, str(tmp_path / "out"), False).mesh
    for rep in reports:
        assert_gauss_bonnet(rep, mesh)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pinned_outcomes.py --write")
    table = {}
    for name, (mode, text) in sorted(cases().items()):
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = run(mode, text, Path(tmp))[0]
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
