"""Seeded CLI fuzz: 150 random configs through ``cli.main``, with their
outcomes checked against the committed table ``fuzz_cli_outcomes.json``.

Each row of the table is one config: its exit code, its method, and how
many Newton directions met their forcing term (``solved``: conjugate
gradients or MINRES) and how many conjugate gradients cut short at
nonpositive curvature or its iteration cap (``curvature``), counted over
every level and every solve of the run.  The summary line adds work
counts that the table does not pin: the total Krylov iterations, and the
band L D L^T factorizations (``energy._ldlt`` calls), the columns their
``dpbtrf`` calls factored (a failed call's ``info``, else its order) and
their restarts (the failed calls), and the calls of the mesh-level
functions in :data:`CALLED`.
Config i is drawn from ``random.Random(i)`` alone, so editing one draw
moves no other.  The draws cover the three domains at levels 1-3,
random K and h, both signs of the boundary ratio, the three methods and
the ``solve`` and ``spectrum`` modes.

It takes about ten seconds, so pytest does not collect it; CI runs it
as its own step, with numerical warnings as errors.  Run from the
repository root, to compare with the table or to rewrite it::

    PYTHONPATH=src python -W error::RuntimeWarning tests/fuzz_cli.py
    PYTHONPATH=src python tests/fuzz_cli.py --write

A change that moves a row rewrites the table and explains the row in
``CHANGES.md``.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import prescurv.domain as domain
import prescurv.energy as energy
import prescurv.solve as solve
from prescurv import cli

TABLE = Path(__file__).resolve().parent / "fuzz_cli_outcomes.json"
N_CONFIGS = 150
# functions whose calls are counted wherever a prescurv module binds them
CALLED = (domain.build_mesh, energy.assemble, domain.prolong)
MODULES = [module for name, module in sys.modules.items() if name.startswith("prescurv.")]
WORK = ("krylov_its", "band_factors", "band_columns", "band_restarts",
        *(f.__name__ for f in CALLED))


def draw(i: int) -> tuple[str, str, str]:
    """(mode, method, config text) of config i."""
    rng = random.Random(i)
    kind = rng.choice(["cylinder", "annulus", "halfdisk"])
    shape = {"cylinder": f"L = {rng.choice([0.5, 1.0, 2.0])}",
             "annulus": f"r = {rng.choice([0.3, 0.5, 0.8])}",
             "halfdisk": f"R = {rng.choice([2, 5])}\ngrade = {rng.choice([1, 2])}"}[kind]
    method = rng.choice(["minimize", "minimize", "mountain-pass", "continuation"])
    mode = rng.choice(["solve", "solve", "spectrum"])
    # a saddle needs the boundary ratio above one on the first component,
    # a flat background and level 3 for its bubble
    saddle = method != "minimize"
    a = round(rng.uniform(0.2, 2.0), 3)
    wave = rng.choice(["cos(x)", "sin(x)", "sin(y)"])
    K = f"-({a}) + {round(0.5 * a * rng.uniform(-1.0, 1.0), 3)}*{wave}"
    if saddle or rng.random() < 0.3:
        hs = [f"{round(a ** 0.5 * rng.uniform(1.5, 3.0), 2)}",
              f"{round(-a ** 0.5 * rng.uniform(2.5, 3.5), 2)}"]
    else:
        hs = [f"{round(rng.uniform(-2.0, 1.0), 2)} + {round(rng.uniform(-0.6, 0.6), 2)}*"
              f"{rng.choice(['cos(x)', 'sin(y)'])}" for _ in range(2)]
    background = "background = flat" if saddle else rng.choice(
        ["background = flat", "K_bg = -1", "K_bg = 0"])
    level = 3 if saddle else rng.choice([1, 2, 3])
    text = (f"[domain]\nkind = {kind}\n{shape}\nlevel = {level}\n"
            f"[curvature]\nK = {K}\nh = {' ; '.join(hs)}\n{background}\n"
            f"[solver]\nmethod = {method}\neps = 0.05\neps_schedule = 0.05 0.02\n")
    return mode, method, text


def outcome(i: int) -> dict:
    """Exit code, method and direction counts of config i, and the work
    counts of :data:`WORK`, which the table leaves out."""
    mode, method, text = draw(i)
    counts, real = Counter(), solve._newton_direction
    ldlt, dpbtrf = energy._ldlt, energy.dpbtrf

    def counted(*args, **kwargs):
        d, linear = real(*args, **kwargs)
        counts["curvature" if linear["linear"] == "curvature" else "solved"] += 1
        counts["krylov_its"] += linear["krylov_its"]
        return d, linear

    def factored(ab, *args):
        counts["band_factors"] += 1
        return ldlt(ab, *args)

    def band(ab, **kwargs):
        c, info = dpbtrf(ab, **kwargs)
        counts["band_columns"] += info or ab.shape[1]
        counts["band_restarts"] += info > 0
        return c, info

    def tallied(f):
        def call(*args, **kwargs):
            counts[f.__name__] += 1
            return f(*args, **kwargs)
        return call

    bound = [(module, f) for module in MODULES for f in CALLED
             if getattr(module, f.__name__, None) is f]
    solve._newton_direction = counted
    energy._ldlt, energy.dpbtrf = factored, band
    for module, f in bound:
        setattr(module, f.__name__, tallied(f))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "exp.ini").write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([mode, "--config", str(Path(tmp) / "exp.ini"),
                                 "--out", str(Path(tmp) / "out")])
    finally:
        solve._newton_direction = real
        energy._ldlt, energy.dpbtrf = ldlt, dpbtrf
        for module, f in bound:
            setattr(module, f.__name__, f)
    return {"exit": code, "method": method, "solved": counts["solved"],
            "curvature": counts["curvature"], **{k: counts[k] for k in WORK}}


def main(argv: list[str]) -> int:
    rows = {str(i): outcome(i) for i in range(N_CONFIGS)}
    work = {k: sum(row.pop(k) for row in rows.values()) for k in WORK}
    if argv == ["--write"]:
        TABLE.write_text(json.dumps(rows, indent=1) + "\n")
        return 0
    if argv:
        print("usage: python tests/fuzz_cli.py [--write]", file=sys.stderr)
        return 2
    pinned = json.loads(TABLE.read_text())
    moved = [i for i in rows if rows[i] != pinned.get(i)]
    for i in moved:
        print(f"config {i}: {pinned.get(i)} -> {rows[i]}")
    total = Counter()
    for row in rows.values():
        total.update({"solved": row["solved"], "curvature": row["curvature"],
                      f"exit {row['exit']}": 1})
    print(f"{len(rows) - len(moved)} of {len(rows)} outcomes as pinned;",
          dict(sorted(total.items())), f"krylov iterations {work['krylov_its']};",
          f"band factorizations {work['band_factors']}, columns {work['band_columns']},",
          f"restarts {work['band_restarts']};",
          "calls", ", ".join(f"{f.__name__} {work[f.__name__]}" for f in CALLED))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
