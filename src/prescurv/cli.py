"""Command-line front end: config parsing, orchestration, artifact emission.

One experiment per invocation::

    prescurv <mode> --config <path> [--out <dir>] [--quick]

Modes: solve, classify, spectrum, exact-sweep, blowup, pohozaev, testfn.
The solve mode runs every method through the nested driver of
:mod:`prescurv.solve`: coarser levels first, a Newton finish at the
configured level, a direct solve wherever that fails.  Reports list the
levels tried; their wall seconds go to standard output.

Configs are plain INI files (key = value sections, ``#`` comments),
checked whole against one table, :data:`SCHEMA`, which declares every
section and key once with its cast, bound and default; an empty value
takes the default, and every number given must be finite.  An unknown
section or key, [DEFAULT] keys included, is a config error that names
it, and so is a shape key of another domain kind or a key of another
[sweep] family; keys that the mode does not read are accepted.
configparser folds key case, so the annulus r and the half-disk R are
one key, read by each kind as its own.  [curvature] K and h are
expressions, in the language that :mod:`prescurv.fields` describes.
Runners read only typed values.
Every run writes a ``manifest.json`` echoing the resolved settings, the
Python, NumPy and SciPy versions, SciPy's LAPACK library and the thread
variables next to the mode's own JSON/CSV/.dat artifacts, so repeated
runs with the same config and seed produce bit-identical files.  Curve
artifacts come with a generated gnuplot script instead of rendered
images.

Exit codes: 0 success, 2 solver failure (its reason on stderr), 3 config
error.  The environment variable ``PRESCURV_THREADS`` caps the
BLAS/OpenMP thread count; it is applied here before the numeric stack
loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("PRESCURV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
_threads = os.environ.get("PRESCURV_THREADS")
if _threads:
    for _var in THREAD_VARS[1:]:
        os.environ.setdefault(_var, _threads)

import argparse
import configparser
import csv
import dataclasses
import json
import math
import platform
import sys
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__
from .diagnostics import (
    blowup_monitor,
    holomorphic_field,
    pohozaev_report,
    position_field,
    testfunction_energy_curve,
)
from .domain import BoundaryPoint, DomainSpec, build_mesh, tangential_derivative
from .energy import Problem
from .exact import (
    annulus_gamma_problem,
    annulus_gamma_state,
    annulus_log_problem,
    annulus_log_state,
    bubble_profile,
    halfplane_problem,
    oneD_profile,
    profile_state,
    strip_profile,
)
from .fields import CurvatureSpec, Field, background_for, eval_h, eval_K, regime_classify
from .solve import PathCollapseError, continuation, minimize, nested
from .spectral import disk_form_report, morse_index

_REQUIRED = object()


class ConfigError(Exception):
    """Unusable experiment config; maps to exit code 3."""


# -- config schema ------------------------------------------------------------


def _floats(raw: str) -> list[float]:
    return [float(t) for t in raw.replace(",", " ").replace(";", " ").split()]


def _checked(cast: Callable, ok: Callable, need: str) -> Callable:
    """``cast``, then the bound ``ok``; ``need`` states the bound."""
    def parse(raw: str):
        value = cast(raw)
        if not ok(value):
            raise ValueError(f"{need}, not {value!r}")
        return value
    return parse


def _one_of(*choices: str) -> Callable:
    return _checked(str, lambda v: v in choices, f"expected one of {', '.join(choices)}")


def _field(raw: str) -> Field:
    try:
        return Field(raw)
    except Exception as exc:  # whatever the expression parser raises
        raise ValueError(f"cannot parse expression: {exc}") from exc


def _anchor(raw: str):
    """'argmax-d', 'origin' or a boundary vertex (component, index)."""
    if raw in ("argmax-d", "origin"):
        return raw
    try:
        component, index = (int(t) for t in raw.split(","))
    except ValueError:
        raise ValueError("expected argmax-d, origin or component,index") from None
    if component < 0 or index < 0:
        raise ValueError(f"component and index must be at least 0, not {raw!r}")
    return component, index


_PARAMETERS = _checked(_floats, bool, "needs at least one value")


def _gammas(raw: str) -> list[float]:
    params = _PARAMETERS(raw)
    bad = [p for p in params if not p.is_integer()]
    if bad:
        raise ConfigError(f"[sweep] gamma must be an integer, got {bad[0]!r}")
    return params


_STATE = (_one_of("solve", "family"), "solve")
_K0 = (float, -1.0)

# Every section and key a config may hold: (cast, default), where the cast
# also checks the value's bound and the default may be _REQUIRED.  A key
# declared by a dict is a required switch: its value names the further keys
# the section reads, and the keys of its other values are errors.
SCHEMA = {
    "domain": {
        "kind": {"cylinder": {"L": (float, DomainSpec.L)},
                 "annulus": {"r": (float, DomainSpec.r)},
                 "halfdisk": {"R": (float, DomainSpec.R),
                              "grade": (float, DomainSpec.grade)}},
        "level": (int, 0),
    },
    "curvature": {
        "K": (_field, _REQUIRED),
        "h": (lambda raw: [_field(t.strip()) for t in raw.split(";")], _REQUIRED),
        "background": (_one_of("flat"), None),
        "K_bg": (float, 0.0),
        "h_bg": (_floats, None),
    },
    "solver": {
        "method": (_one_of("minimize", "mountain-pass", "continuation"), "minimize"),
        "tol": (_checked(float, lambda v: v > 0,
                         "the dual-norm residual to reach, must be positive"), 1e-8),
        "max_iter": (_checked(int, lambda v: v >= 0, "must be at least 0"), 100),
        "eps": (_checked(float, lambda v: v >= 0, "needs a weight >= 0"), 0.0),
        "eps_schedule": (_checked(_floats, lambda v: v and min(v) >= 0,
                                  "needs at least one weight, all >= 0"),
                         [0.05, 0.02, 0.01, 0.005]),
        "path_points": (_checked(int, lambda v: v >= 3, "must be at least 3,"
                                 " so that the path has an interior sample"), 17),
        "q2": (_checked(float, lambda v: v > 0, "the bubble's offset, must be positive"), 0.1),
        "anchor": (_anchor, "argmax-d"),
        "init": (_one_of("zero", "constant", "random"), "zero"),
        "init_value": (float, 0.0),
        "blowup_threshold": (_checked(float, lambda v: v > 0, "the |sup| at which a state"
                                      " has escaped, must be positive"), 50.0),
        "seed": (int, 0),
    },
    "output": {"dir": (str, "out")},
    "sweep": {
        "family": {"gamma": {"parameters": (_gammas, _REQUIRED), "h1": (float, 2.0)},
                   "log": {},
                   "bubble": {"k0": _K0, "h0": (float, math.sqrt(2.0))},
                   "oned": {"k0": _K0},
                   "strip": {}},
        "parameters": (_PARAMETERS, _REQUIRED),
    },
    "pohozaev": {
        "state": _STATE,
        "fields": (_checked(lambda raw: [t.strip() for t in raw.split(",")],
                            lambda v: set(v) <= {"position", "holomorphic"},
                            "expected fields among position, holomorphic"), ["position"]),
        "cos_coeffs": (_floats, [0.0, 1.0]),
        "sin_coeffs": (_floats, []),
    },
    "spectrum": {
        "state": _STATE,
        "disk_form": (float, None),
        "n_r": (_checked(int, lambda v: v >= 2, "must be at least 2"), 3000),
        "m_cap": (_checked(int, lambda v: v >= 0, "must be at least 0"), 128),
    },
    "testfn": {"q2": (float, None), "tail": (int, 4), "ratios": (_floats, None)},
    # None leaves the monitor's own default
    "monitor": {"window": (_checked(float, lambda v: v > 0, "must be positive"), None),
                **{key: (float, None) for key in ("sup_window", "growth_min", "bounded_ratio",
                                                  "far_distance", "far_tol")}},
}


def _declared(name: str) -> set[str]:
    """Every key of section ``name``, in configparser's lower case."""
    keys = set()
    for key, spec in SCHEMA[name].items():
        keys.add(key.lower())
        if isinstance(spec, dict):
            keys.update(k.lower() for variant in spec.values() for k in variant)
    return keys


def _value(section: str, key: str, raw: str, cast: Callable, default):
    if raw == "":
        if default is _REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    try:
        value = cast(raw)
        # every number a config gives is finite, whatever its key's bound
        bad = [v for v in (value if isinstance(value, list) else [value])
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"must be finite, not {bad[0]!r}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return value


def _section(name: str, raw: dict[str, str]) -> dict:
    """Typed values of section ``name`` from its text, defaults filled in."""
    declared = _declared(name)
    for key in raw:
        if key not in declared:
            raise ConfigError(f"unknown key [{name}] {key}")
    keys, typed = dict(SCHEMA[name]), {}
    for key, variants in SCHEMA[name].items():
        if isinstance(variants, dict):
            choice = typed[key] = _value(name, key, raw.get(key, ""),
                                         _one_of(*variants), _REQUIRED)
            keys.update(variants[choice])
            unused = sorted((declared - {k.lower() for k in keys}) & raw.keys())
            if unused:
                raise ConfigError(f"[{name}] {', '.join(unused)} not used by {key} {choice!r}")
            del keys[key]
    for key, (cast, default) in keys.items():
        typed[key] = _value(name, key, raw.get(key.lower(), ""), cast, default)
    return typed


@dataclasses.dataclass
class ExperimentConfig:
    """Parsed experiment: domain, curvature data, settings, mode, output.

    ``sections`` holds the typed values of each section given;
    ``settings`` is what the manifest echoes: the [solver] values and
    the text of every other optional section.
    """

    mode: str
    domain: DomainSpec
    curvature: Optional[CurvatureSpec]
    settings: dict
    out_dir: str
    quick: bool
    mesh: object = dataclasses.field(default=None, repr=False)
    sections: dict = dataclasses.field(default_factory=dict, repr=False)

    def section(self, name: str) -> dict:
        """Typed values of [name]; an absent section has its defaults."""
        return self.sections[name] if name in self.sections else _section(name, {})

    def manifest(self) -> dict:
        man = {"mode": self.mode, "version": __version__, "quick": self.quick,
               "environment": {
                   "python": platform.python_version(), "numpy": np.__version__,
                   "scipy": scipy.__version__, "lapack": _lapack(),
                   # thread variables as set; None where unset
                   "threads": {var: os.environ.get(var) for var in THREAD_VARS}},
               "domain": dataclasses.asdict(self.domain), "settings": self.settings}
        if self.curvature is not None:
            c = self.curvature
            man["curvature"] = {"K": c.K.describe(), "h": [f.describe() for f in c.h],
                                "K_bg": c.K_bg, "h_bg": list(c.h_bg)}
        return man


def _lapack() -> str:
    """Name and version of the LAPACK that SciPy was built against; Morse
    counts and B on the half-disk run on its ``dpbtrf`` and ``dtbsv``."""
    lapack = scipy.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    return f"{lapack.get('name', 'unknown')} {lapack.get('version', 'unknown')}"


def _load_curvature(c: dict, mesh) -> CurvatureSpec:
    n_comp = len(mesh.components)
    h = c["h"] * n_comp if len(c["h"]) == 1 else c["h"]
    if len(h) != n_comp:
        raise ConfigError(
            f"[curvature] h lists {len(h)} components, domain has {n_comp}")
    try:
        if c["background"] == "flat":
            K_bg, h_bg = background_for(mesh)
        else:
            K_bg, h_bg = c["K_bg"], tuple(c["h_bg"] or (0.0,) * n_comp)
        spec = CurvatureSpec(K=c["K"], h=h, K_bg=K_bg, h_bg=h_bg)
        K = eval_K(spec, *mesh.dof_coords.T)
        h_paths = [eval_h(spec, mesh, i) for i in range(n_comp)]
    # Python arithmetic on the numbers of an expression raises, as 1/0 does
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad [curvature] section: {exc}") from exc
    # a finite number can still give an expression that overflows
    for name, vals in [("K", K), *((f"h on boundary component {i}", v)
                                   for i, v in enumerate(h_paths))]:
        if not np.isfinite(vals).all():
            raise ConfigError(f"[curvature] {name} is not finite at every node")
    _check_seams(spec, mesh, h_paths)
    return spec


def _check_seams(spec: CurvatureSpec, mesh, h_paths: list[np.ndarray]) -> None:
    """Reject data that jump across the seam of a closed boundary
    component: the ratio D = h/sqrt(|K|) then has no tangential
    derivative there, which the regime classifier and the anchors need.
    ``h_paths`` holds h along each component's vertex path."""
    for c, comp in enumerate(mesh.components):
        if not comp.closed:
            continue
        x, y = mesh.vertices[comp.verts].T
        for name, vals in (("h", h_paths[c]), ("K", spec.K(x, y))):
            try:
                tangential_derivative(mesh, c, vals)
            except ValueError as exc:
                raise ConfigError(
                    f"[curvature] {name} on boundary component {c}: {exc}") from exc


def load_config(path: str, mode: str, out: Optional[str], quick: bool
                ) -> ExperimentConfig:
    """Read ``path`` and validate all of it against :data:`SCHEMA`."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    # configparser copies [DEFAULT] keys into every section
    for key in cp.defaults():
        raise ConfigError(f"unknown key [DEFAULT] {key}")
    sections = {}
    for name in cp.sections():
        if name not in SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        sections[name] = _section(name, dict(cp[name]))
    if "domain" not in sections:
        raise ConfigError("missing required section [domain]")
    if quick:
        sections["domain"]["level"] = min(sections["domain"]["level"], 3)
    try:
        domain = DomainSpec(**sections["domain"])
        mesh = build_mesh(domain)
    except ValueError as exc:
        raise ConfigError(f"bad [domain] section: {exc}") from exc
    curvature = (_load_curvature(sections["curvature"], mesh)
                 if "curvature" in sections else None)
    cfg = ExperimentConfig(mode=mode, domain=domain, curvature=curvature, settings={},
                           out_dir=out, quick=quick, mesh=mesh, sections=sections)
    cfg.out_dir = out or cfg.section("output")["dir"]
    cfg.settings = {**cfg.section("solver"), **{
        name: dict(cp[name]) for name in cp.sections()
        if name not in ("domain", "curvature", "solver", "output")}}
    return cfg


# -- artifact writers ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # JSON has no NaN or infinity
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, rows: list[dict]) -> None:
    fields = list(rows[0]) if rows else []
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _num(v) for k, v in row.items()})


def _num(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _write_dat(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Gnuplot-ready whitespace columns with a commented header line."""
    with open(path, "w") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in zip(*columns):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _write_table(out_dir: str, stem: str, rows: list[dict], x: str,
                 ys: list[tuple[str, str]], xlabel: str) -> None:
    """``rows`` as ``<stem>.csv`` and ``<stem>.dat``, and a plot of the
    columns ``ys`` (name, label) against ``x``."""
    _write_csv(os.path.join(out_dir, f"{stem}.csv"), rows)
    cols = list(rows[0])
    _write_dat(os.path.join(out_dir, f"{stem}.dat"), cols,
               [np.array([r[c] for r in rows]) for c in cols])
    _write_plot_script(out_dir, f"{stem}.dat", cols.index(x) + 1,
                       [(cols.index(c) + 1, label) for c, label in ys], xlabel, stem)


def _write_plot_script(out_dir: str, dat_name: str, x: int, ys: list[tuple[int, str]],
                       xlabel: str, title: str) -> None:
    lines = [
        "set terminal pngcairo size 900,600",
        f'set output "{title}.png"',
        f'set xlabel "{xlabel}"',
        "set key left top",
        "plot " + ", \\\n     ".join(
            f'"{dat_name}" using {x}:{col} with linespoints title "{label}"'
            for col, label in ys),
        "",
    ]
    with open(os.path.join(out_dir, "plot.gp"), "w") as fh:
        fh.write("\n".join(lines))


def _write_state_csv(path: str, mesh, u: np.ndarray) -> None:
    # 17 significant digits round-trip every double exactly.  Where the
    # coordinates take fewer distinct values than there are rows, as on
    # tensor grids (cylinder L5: 608 for 49,664 rows, x = 0 and y = 0 sharing
    # the bit pattern of 0.0), each is formatted once
    # and gathered, in 0.6x the time.  The annulus's polar grid has 1.4 per
    # row, where gathering took 1.1x the time.  Values are told apart by bit
    # pattern, which keeps -0.0 apart from 0.0
    bits, inv = np.unique(mesh.dof_coords.view(np.int64), return_inverse=True)
    if len(bits) < len(u):
        vals = bits.view(np.float64)
        strs = np.array((("%.17g," * len(vals)) % tuple(vals.tolist())).split(",")[:-1],
                        dtype=object)
        table = np.empty((len(u), 3), dtype=object)
        table[:, :2] = strs[inv.reshape(-1, 2)]
        table[:, 2] = u.tolist()
        fmt = "%s,%s,%.17g\n"
    else:
        table = np.column_stack([mesh.dof_coords, u])
        fmt = "%.17g,%.17g,%.17g\n"
    text = (fmt * len(table)) % tuple(table.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("x,y,u\n" + text)


# -- shared pieces ------------------------------------------------------------


def _need_curvature(cfg: ExperimentConfig) -> CurvatureSpec:
    if cfg.curvature is None:
        raise ConfigError("missing required section [curvature]")
    return cfg.curvature


def _initial_state(cfg: ExperimentConfig, prob: Problem) -> np.ndarray:
    s = cfg.section("solver")
    if s["init"] == "zero":
        return np.zeros(prob.n_dof)
    if s["init"] == "constant":
        return np.full(prob.n_dof, s["init_value"])
    if s["seed"] < 0:
        raise ConfigError(f"bad value for [solver] seed: init = random needs a seed"
                          f" of at least 0, not {s['seed']}")
    rng = np.random.default_rng(s["seed"])
    return 0.1 * rng.standard_normal(prob.n_dof)


def _resolve_anchor(cfg: ExperimentConfig, prob: Problem) -> BoundaryPoint:
    """Anchor on ``prob``'s mesh, which may be coarser than the config's:
    named anchors are resolved on it, an explicit (component, index)
    (indexing the config's mesh) maps to its vertex nearest in arclength."""
    anchor = cfg.section("solver")["anchor"]
    mesh = prob.mesh
    if anchor == "argmax-d":
        return regime_classify(prob.spec, mesh).D_argmax
    if anchor == "origin":
        comp = mesh.components[0]
        verts = comp.verts[:-1] if comp.closed else comp.verts
        i = int(np.argmin(np.linalg.norm(mesh.vertices[verts], axis=1)))
        return mesh.boundary_point(0, i)
    try:
        s = cfg.mesh.boundary_point(*anchor).s
    except IndexError as exc:
        raise ConfigError(f"bad [solver] anchor {anchor!r}: {exc}") from exc
    return mesh.boundary_point_at(anchor[0], s)


def _boundary_point_dict(pt: BoundaryPoint) -> dict:
    return {"component": pt.component, "index": pt.index, "s": pt.s,
            "coords": list(pt.coords)}


def _family_state(mesh, sweep: dict, p: float, ops=None
                  ) -> tuple[Problem, np.ndarray, Optional[np.ndarray]]:
    """Problem and state of the [sweep] family member ``p``; the third
    value is the Dirichlet mask of half-disk truncations (None on the
    annulus)."""
    family = sweep["family"]
    try:
        if family == "gamma":
            return (annulus_gamma_problem(mesh, int(p), sweep["h1"], ops=ops),
                    annulus_gamma_state(mesh, int(p), sweep["h1"]), None)
        if family == "log":
            return annulus_log_problem(mesh, p, ops=ops), annulus_log_state(mesh, p), None
        if family == "bubble":
            prof = bubble_profile(p, sweep["k0"], sweep["h0"])
        elif family == "oned":
            prof = oneD_profile(p, sweep["k0"])
        else:
            prof = strip_profile(p)
        prob, fixed = halfplane_problem(mesh, prof)
        return prob, profile_state(mesh, prof), fixed
    except ValueError as exc:
        raise ConfigError(f"bad [sweep] section: {exc}") from exc


def _family_states(cfg: ExperimentConfig) -> tuple[list, list[float]]:
    """States of the [sweep] family over its parameter list, sharing
    one assembly."""
    sweep = cfg.section("sweep")
    states, ops = [], None
    for p in sweep["parameters"]:
        prob, u, _ = _family_state(cfg.mesh, sweep, p, ops)
        ops = prob.ops
        states.append((prob, u))
    return states, sweep["parameters"]


def _last_family_state(cfg: ExperimentConfig) -> tuple:
    """The last member of the [sweep] family and its ``source`` record."""
    sweep = cfg.section("sweep")
    p = sweep["parameters"][-1]
    return (*_family_state(cfg.mesh, sweep, p), {"state": "family", "parameter": p})


def _sweep_rows(states: list, params: list[float]) -> list[dict]:
    return [{"parameter": float(p), "sup_u": float(u.max()), "inf_u": float(u.min()),
             "area_mass": prob.interior_mass(u), "gb_residual": prob.gauss_bonnet_residual(u),
             **{f"boundary_mass_{c}": m for c, m in enumerate(prob.boundary_masses(u))}}
            for (prob, u), p in zip(states, params)]


def _solve_problem(cfg: ExperimentConfig) -> tuple[Problem, list, int]:
    """The configured solve: the problem of its final report (the data
    relaxed at that report's eps), one report per eps of a continuation
    and otherwise one, and its exit code; a failure states why on stderr."""
    s = cfg.section("solver")
    if s["method"] == "minimize":
        prob = Problem(cfg.mesh, _need_curvature(cfg), eps=s["eps"])

        def descend(p, u):
            return minimize(p, init=u, tol=s["tol"], max_iter=s["max_iter"],
                            blowup_threshold=s["blowup_threshold"])
        reports = [nested(prob, _initial_state(cfg, prob), descend, descend)]
    else:
        # a mountain-pass solve is a continuation over the single weight eps
        schedule = [s["eps"]] if s["method"] == "mountain-pass" else s["eps_schedule"]
        prob = Problem(cfg.mesh, _need_curvature(cfg))
        reports = continuation(prob, lambda p: _resolve_anchor(cfg, p),
                               eps_schedule=schedule, tol=s["tol"],
                               n_points=s["path_points"], q2=s["q2"],
                               blowup_threshold=s["blowup_threshold"])
        prob = Problem(prob.mesh, prob.spec, prob.ops, eps=reports[-1].eps)
    final = reports[-1]
    if final.converged and not final.blowup_flag:
        return prob, reports, 0
    reason = final.message or f"the state blew up, sup {final.sup:.6g}"
    print(f"solver failure: {reason}", file=sys.stderr)
    return prob, reports, 2


# -- mode runners -------------------------------------------------------------


def _run_solve(cfg: ExperimentConfig) -> int:
    prob, reports, code = _solve_problem(cfg)
    final = reports[-1]
    for i, rep in enumerate(reports):
        name = "report.json" if len(reports) == 1 else f"report_{i}.json"
        _write_json(os.path.join(cfg.out_dir, name), rep.as_dict())
        for e in rep.levels:
            print(f"eps={rep.eps:g} level={e['level']} n_dof={e['n_dof']} "
                  f"{e['method']} seconds={e['seconds']:.3f} {e.get('message', 'ok')}")
    _write_state_csv(os.path.join(cfg.out_dir, "state.csv"), prob.mesh, final.state)
    if final.path is not None:
        _write_dat(os.path.join(cfg.out_dir, "path.dat"), ["index", "energy"],
                   [np.arange(len(final.path), dtype=float), final.path])
        _write_plot_script(cfg.out_dir, "path.dat", 1, [(2, "path energy")],
                           "path index", "path")
    print(f"method={final.method} converged={final.converged} "
          f"residual={final.residual_norm:.3e} sup={final.sup:.6g}")
    if final.message:
        print(final.message)
    return code


def _run_classify(cfg: ExperimentConfig) -> int:
    regime = regime_classify(_need_curvature(cfg), cfg.mesh)
    payload = {"regime": regime.kind.value, "D_max": regime.D_max,
               "D_argmax": _boundary_point_dict(regime.D_argmax),
               "h_integral": regime.h_integral, "annulus_case": regime.annulus_case,
               "level_set_transverse": regime.level_set_transverse}
    _write_json(os.path.join(cfg.out_dir, "regime.json"), payload)
    print(json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False))
    return 0


def _run_spectrum(cfg: ExperimentConfig) -> int:
    spec = cfg.section("spectrum")
    if spec["disk_form"] is not None:
        try:
            rep = disk_form_report(spec["disk_form"], n_r=spec["n_r"], m_cap=spec["m_cap"])
        except ValueError as exc:
            raise ConfigError(f"bad [spectrum] section: {exc}") from exc
        _write_json(os.path.join(cfg.out_dir, "spectrum.json"), dataclasses.asdict(rep))
        print(f"disk form D0={rep.D0} negative_count={rep.negative_count}")
        return 0
    if spec["state"] == "family":
        prob, u, fixed, source = _last_family_state(cfg)
        code = 0
    else:
        prob, reports, code = _solve_problem(cfg)
        rep, fixed = reports[-1], None
        u = rep.state
        source = {"state": "solve", "converged": rep.converged,
                  "residual_norm": rep.residual_norm, "eps": prob.eps}
    spec_rep = morse_index(prob, u, fixed=fixed)
    _write_json(os.path.join(cfg.out_dir, "spectrum.json"),
                {**dataclasses.asdict(spec_rep), "source": source})
    print(f"negative_count={spec_rep.negative_count}")
    return code


def _run_exact_sweep(cfg: ExperimentConfig) -> int:
    states, params = _family_states(cfg)
    rows = _sweep_rows(states, params)
    _write_table(cfg.out_dir, "sweep", rows, "parameter",
                 [("sup_u", "sup u"), ("area_mass", "area mass")], "family parameter")
    print(f"{len(rows)} states, sup_u {rows[0]['sup_u']:.4g} .. {rows[-1]['sup_u']:.4g}")
    return 0


def _run_blowup(cfg: ExperimentConfig) -> int:
    states, params = _family_states(cfg)
    diag = blowup_monitor(states, **{k: v for k, v in cfg.section("monitor").items()
                                     if v is not None})
    _write_json(os.path.join(cfg.out_dir, "blowup.json"), diag.as_dict())
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), _sweep_rows(states, params))
    print(f"diverging={diag.diverging} candidates={len(diag.candidates)} "
          f"bounded_mass={diag.bounded_mass}")
    return 0


def _run_pohozaev(cfg: ExperimentConfig) -> int:
    if cfg.domain.kind == "cylinder":
        # F = i z G is not 2 pi-periodic in x, so the balance would miss
        # the flux through the seam and its residual would never vanish
        raise ConfigError("the Pohozaev balance needs a field on the surface, and no "
                          "holomorphic field F = i z G is periodic on the cylinder")
    poh = cfg.section("pohozaev")
    # the fields need only the mesh, so a bad field fails before any solve
    try:
        fields = {name: position_field() if name == "position" else
                  holomorphic_field(cfg.mesh, poh["cos_coeffs"], poh["sin_coeffs"])
                  for name in poh["fields"]}
    except ValueError as exc:
        raise ConfigError(f"bad [pohozaev] coefficients: {exc}") from exc
    if poh["state"] == "family":
        prob, u, _, source = _last_family_state(cfg)
        code = 0
    else:
        prob, reports, code = _solve_problem(cfg)
        u = reports[-1].state
        source = {"state": "solve", "converged": reports[-1].converged, "eps": prob.eps}
    payload = {"source": source}
    for name, rep in pohozaev_report(prob, u, fields).items():
        payload[name] = dataclasses.asdict(rep)
        print(f"{name}: residual={rep.residual:.6e}")
    _write_json(os.path.join(cfg.out_dir, "pohozaev.json"), payload)
    return code


def _run_testfn(cfg: ExperimentConfig) -> int:
    t = cfg.section("testfn")
    prob = Problem(cfg.mesh, _need_curvature(cfg))
    point = _resolve_anchor(cfg, prob)
    q2 = cfg.section("solver")["q2"] if t["q2"] is None else t["q2"]
    schedule = [r / q2 for r in t["ratios"]] if t["ratios"] else None
    try:
        curve = testfunction_energy_curve(prob, point, q2=q2, mu_schedule=schedule)
        fitted = curve.extracted_slopes(tail=t["tail"])
    except ValueError as exc:
        raise ConfigError(f"bad [testfn] section: {exc}") from exc
    _write_table(cfg.out_dir, "testfn", curve.rows(), "delta",
                 [("dirichlet_slope", "dirichlet slope"), ("boundary_slope", "boundary slope"),
                  ("energy", "energy")], "delta")
    payload = {"anchor": _boundary_point_dict(point), "q2": curve.q2,
               "d_at_point": curve.d_at_point, "min_d_component": curve.min_d_component,
               "fitted_slopes": fitted, "energy_end": float(curve.energy[-1])}
    _write_json(os.path.join(cfg.out_dir, "testfn.json"), payload)
    print("fitted slopes: " + json.dumps(_jsonable(payload["fitted_slopes"]),
                                         sort_keys=True, allow_nan=False))
    return 0


MODES = {"solve": _run_solve, "classify": _run_classify, "spectrum": _run_spectrum,
         "exact-sweep": _run_exact_sweep, "blowup": _run_blowup,
         "pohozaev": _run_pohozaev, "testfn": _run_testfn}


# -- entry point --------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prescurv",
        description="Prescribed-curvature experiments on flat model surfaces.")
    parser.add_argument("mode", help="one of: " + ", ".join(MODES))
    parser.add_argument("--config", help="experiment config (INI)")
    parser.add_argument("--out", help="output directory (default: [output] dir or ./out)")
    parser.add_argument("--quick", action="store_true",
                        help="clamp refinement to coarse levels")
    args = parser.parse_args(argv)

    try:
        if args.mode not in MODES:
            raise ConfigError(
                f"unknown mode {args.mode!r}; expected one of {', '.join(MODES)}")
        if not args.config:
            raise ConfigError(f"mode {args.mode!r} requires --config")
        cfg = load_config(args.config, args.mode, args.out, args.quick)
        os.makedirs(cfg.out_dir, exist_ok=True)
        _write_json(os.path.join(cfg.out_dir, "manifest.json"), cfg.manifest())
        return MODES[cfg.mode](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (PathCollapseError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
