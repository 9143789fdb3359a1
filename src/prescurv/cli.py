"""Command-line front end: config parsing, orchestration, artifact emission.

One experiment per invocation::

    prescurv <mode> --config <path> [--out <dir>] [--quick]

Modes: solve, classify, spectrum, exact-sweep, blowup, pohozaev, testfn.
The solve mode runs every method through the nested driver of
:mod:`prescurv.solve`: coarser levels first, a Newton finish at the
configured level, a direct solve wherever that fails.  Reports list the
levels tried; their wall seconds go to standard output.
Configs are plain INI files (key = value sections, ``#`` comments);
every run writes a ``manifest.json`` echoing the resolved settings, the
Python, NumPy and SciPy versions and the thread variables next to the
mode's own JSON/CSV/.dat artifacts, so repeated runs with the
same config and seed produce bit-identical files.  Curve artifacts come
with a generated gnuplot script instead of rendered images.

Exit codes: 0 success, 2 solver non-convergence, 3 config error.  The
environment variable ``PRESCURV_THREADS`` caps the BLAS/OpenMP thread
count; it is applied here before the numeric stack loads.
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
from .solve import PathCollapseError, SolveReport, continuation, minimize, nested
from .spectral import disk_form_report, morse_index

MODES = ("solve", "classify", "spectrum", "exact-sweep", "blowup",
         "pohozaev", "testfn")

_REQUIRED = object()


class ConfigError(Exception):
    """Unusable experiment config; maps to exit code 3."""


# -- config loading -----------------------------------------------------------


def _get(cp: configparser.ConfigParser, section: str, key: str,
         cast: Callable = str, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key).strip()
    if raw == "" and default is not _REQUIRED:
        return default
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc


def _floats(raw: str) -> list[float]:
    return [float(t) for t in raw.replace(",", " ").split()]


@dataclasses.dataclass
class ExperimentConfig:
    """Parsed experiment: domain, curvature data, settings, mode, output."""

    mode: str
    domain: DomainSpec
    curvature: Optional[CurvatureSpec]
    settings: dict
    out_dir: str
    quick: bool
    mesh: object = dataclasses.field(default=None, repr=False)

    def manifest(self) -> dict:
        man = {
            "mode": self.mode,
            "version": __version__,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                # thread variables as set; None where unset
                "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            },
            "quick": self.quick,
            "domain": dataclasses.asdict(self.domain),
            "settings": self.settings,
        }
        if self.curvature is not None:
            man["curvature"] = {
                "K": self.curvature.K.describe(),
                "h": [f.describe() for f in self.curvature.h],
                "K_bg": self.curvature.K_bg,
                "h_bg": list(self.curvature.h_bg),
            }
        return man


# Shape keys read per domain kind.  configparser folds key case, so the
# annulus r and the half-disk R are one key and each kind reads only its own.
_SHAPE_KEYS = {"cylinder": ("L",), "annulus": ("r",), "halfdisk": ("R", "grade")}


def _load_domain(cp: configparser.ConfigParser, quick: bool) -> DomainSpec:
    kind = _get(cp, "domain", "kind")
    level = _get(cp, "domain", "level", int, 0)
    if quick:
        level = min(level, 3)
    shape = {key: _get(cp, "domain", key, float, getattr(DomainSpec, key))
             for key in _SHAPE_KEYS.get(kind, ())}
    try:
        return DomainSpec(kind=kind, level=level, **shape)
    except ValueError as exc:
        raise ConfigError(f"bad [domain] section: {exc}") from exc


def _load_curvature(cp: configparser.ConfigParser, mesh) -> CurvatureSpec:
    n_comp = len(mesh.components)
    K_text = _get(cp, "curvature", "K")
    h_text = _get(cp, "curvature", "h")
    h_parts = [t.strip() for t in h_text.split(";")]
    if len(h_parts) == 1:
        h_parts = h_parts * n_comp
    if len(h_parts) != n_comp:
        raise ConfigError(
            f"[curvature] h lists {len(h_parts)} components, domain has {n_comp}")
    try:
        if _get(cp, "curvature", "background", str, "") == "flat":
            K_bg, h_bg = background_for(mesh)
        else:
            K_bg = _get(cp, "curvature", "K_bg", float, 0.0)
            h_bg_text = _get(cp, "curvature", "h_bg", str, "")
            if h_bg_text:
                h_bg = tuple(float(t) for t in h_bg_text.split(";"))
            else:
                h_bg = (0.0,) * n_comp
        K = _compile_field(K_text, "[curvature] K")
        h = [_compile_field(t, "[curvature] h") for t in h_parts]
        spec = CurvatureSpec(K=K, h=h, K_bg=K_bg, h_bg=h_bg)
        eval_K(spec, *mesh.dof_coords.T)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad [curvature] section: {exc}") from exc
    _check_seams(spec, mesh)
    return spec


def _check_seams(spec: CurvatureSpec, mesh) -> None:
    """Reject data that jump across the seam of a closed boundary
    component: the ratio D = h/sqrt(|K|) then has no tangential
    derivative there, which the regime classifier and the anchors need."""
    for c, comp in enumerate(mesh.components):
        if not comp.closed:
            continue
        x, y = mesh.vertices[comp.verts].T
        for name, vals in (("h", eval_h(spec, mesh, c)), ("K", spec.K(x, y))):
            try:
                tangential_derivative(mesh, c, vals)
            except ValueError as exc:
                raise ConfigError(
                    f"[curvature] {name} on boundary component {c}: {exc}") from exc


def _compile_field(text: str, where: str) -> Field:
    try:
        return Field(text)
    except Exception as exc:
        raise ConfigError(f"cannot parse expression for {where}: {exc}") from exc


def _load_settings(cp: configparser.ConfigParser) -> dict:
    s = {
        "method": _get(cp, "solver", "method", str, "minimize"),
        "tol": _get(cp, "solver", "tol", float, 1e-8),
        "max_iter": _get(cp, "solver", "max_iter", int, 100),
        "eps": _get(cp, "solver", "eps", float, 0.0),
        "eps_schedule": _get(cp, "solver", "eps_schedule", _floats,
                             [0.05, 0.02, 0.01, 0.005]),
        "path_points": _get(cp, "solver", "path_points", int, 17),
        "q2": _get(cp, "solver", "q2", float, 0.1),
        "anchor": _get(cp, "solver", "anchor", str, "argmax-d"),
        "init": _get(cp, "solver", "init", str, "zero"),
        "init_value": _get(cp, "solver", "init_value", float, 0.0),
        "blowup_threshold": _get(cp, "solver", "blowup_threshold", float, 50.0),
        "seed": _get(cp, "solver", "seed", int, 0),
    }
    if s["method"] not in ("minimize", "mountain-pass", "continuation"):
        raise ConfigError(f"unknown [solver] method {s['method']!r}")
    if s["init"] not in ("zero", "constant", "random"):
        raise ConfigError(f"unknown [solver] init {s['init']!r}")
    if s["eps"] < 0 or not s["eps_schedule"] or min(s["eps_schedule"]) < 0:
        raise ConfigError("[solver] eps and eps_schedule need weights >= 0,"
                          " and the schedule at least one")
    if s["path_points"] < 3:
        raise ConfigError("[solver] path_points must be at least 3,"
                          " so that the path has an interior sample")
    if not s["q2"] > 0:
        raise ConfigError("[solver] q2, the bubble's offset, must be positive")
    return s


def load_config(path: str, mode: str, out: Optional[str], quick: bool
                ) -> ExperimentConfig:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    if not cp.has_section("domain"):
        raise ConfigError("missing required section [domain]")
    domain = _load_domain(cp, quick)
    try:
        mesh = build_mesh(domain)
    except ValueError as exc:
        raise ConfigError(f"bad [domain] section: {exc}") from exc

    curvature = _load_curvature(cp, mesh) if cp.has_section("curvature") else None

    settings = _load_settings(cp)
    for extra in ("sweep", "pohozaev", "spectrum", "testfn", "monitor"):
        if cp.has_section(extra):
            settings[extra] = dict(cp.items(extra))

    out_dir = out or _get(cp, "output", "dir", str, "out")
    return ExperimentConfig(mode=mode, domain=domain, curvature=curvature,
                            settings=settings, out_dir=out_dir, quick=quick, mesh=mesh)


# -- artifact writers ---------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
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
    # tensor grids (cylinder L5: 609 for 49,664 rows), each is formatted once
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
    s = cfg.settings
    if s["init"] == "zero":
        return np.zeros(prob.n_dof)
    if s["init"] == "constant":
        return np.full(prob.n_dof, s["init_value"])
    rng = np.random.default_rng(s["seed"])
    return 0.1 * rng.standard_normal(prob.n_dof)


def _resolve_anchor(cfg: ExperimentConfig, prob: Problem) -> BoundaryPoint:
    """Anchor on ``prob``'s mesh, which may be coarser than the config's:
    named anchors are resolved on it, an explicit ``c,i`` (indexing the
    config's mesh) maps to its vertex nearest in arclength."""
    text = cfg.settings["anchor"]
    mesh = prob.mesh
    if text == "argmax-d":
        return regime_classify(prob.spec, mesh).D_argmax
    if text == "origin":
        comp = mesh.components[0]
        verts = comp.verts[:-1] if comp.closed else comp.verts
        i = int(np.argmin(np.linalg.norm(mesh.vertices[verts], axis=1)))
        return mesh.boundary_point(0, i)
    try:
        comp_idx, vert_idx = (int(t) for t in text.split(","))
        s = cfg.mesh.boundary_point(comp_idx, vert_idx).s
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad [solver] anchor {text!r}: {exc}") from exc
    return mesh.boundary_point_at(comp_idx, s)


def _boundary_point_dict(pt: BoundaryPoint) -> dict:
    return {
        "component": pt.component,
        "index": pt.index,
        "s": pt.s,
        "coords": list(pt.coords),
    }


# [sweep] keys each closed-form family reads besides family and parameters
_FAMILY_KEYS = {"gamma": ("h1",), "log": (), "bubble": ("k0", "h0"),
                "oned": ("k0",), "strip": ()}


def _sweep_section(cfg: ExperimentConfig) -> tuple[str, list[float], dict]:
    """The [sweep] family, its whole parameter list and its own keys."""
    sweep = cfg.settings.get("sweep")
    if not sweep:
        raise ConfigError("missing required section [sweep]")
    family = sweep.get("family", "")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown [sweep] family {family!r}")
    unused = sorted(set(sweep) - {"family", "parameters", *_FAMILY_KEYS[family]})
    if unused:
        raise ConfigError(f"[sweep] {', '.join(unused)} not used by family {family!r}")
    try:
        params = _floats(sweep.get("parameters", ""))
        keys = {k: float(sweep[k]) for k in _FAMILY_KEYS[family] if k in sweep}
    except ValueError as exc:
        raise ConfigError(f"bad [sweep] section: {exc}") from exc
    if not params:
        raise ConfigError("missing required key [sweep] parameters")
    if family == "gamma":
        bad = [p for p in params if not p.is_integer()]
        if bad:
            raise ConfigError(f"[sweep] gamma must be an integer, got {bad[0]!r}")
    return family, params, keys


def _family_state(mesh, family: str, keys: dict, p: float, ops=None
                  ) -> tuple[Problem, np.ndarray, Optional[np.ndarray]]:
    """Problem and state of one family member; the third value is the
    Dirichlet mask of half-disk truncations (None on the annulus)."""
    try:
        if family == "gamma":
            h1 = keys.get("h1", 2.0)
            return (annulus_gamma_problem(mesh, int(p), h1, ops=ops),
                    annulus_gamma_state(mesh, int(p), h1), None)
        if family == "log":
            return annulus_log_problem(mesh, p, ops=ops), annulus_log_state(mesh, p), None
        K0 = keys.get("k0", -1.0)
        if family == "bubble":
            prof = bubble_profile(p, K0, keys.get("h0", math.sqrt(2.0)))
        elif family == "oned":
            prof = oneD_profile(p, K0)
        else:
            prof = strip_profile(p)
        prob, fixed = halfplane_problem(mesh, prof)
        return prob, profile_state(mesh, prof), fixed
    except ValueError as exc:
        raise ConfigError(f"bad [sweep] section: {exc}") from exc


def _family_states(cfg: ExperimentConfig) -> tuple[list, list[float]]:
    """States of the [sweep] family over its parameter list, sharing
    one assembly."""
    family, params, keys = _sweep_section(cfg)
    states, ops = [], None
    for p in params:
        prob, u, _ = _family_state(cfg.mesh, family, keys, p, ops)
        ops = prob.ops
        states.append((prob, u))
    return states, params


def _sweep_rows(states: list, params: list[float]) -> list[dict]:
    rows = []
    for (prob, u), p in zip(states, params):
        row = {
            "parameter": float(p),
            "sup_u": float(u.max()),
            "inf_u": float(u.min()),
            "area_mass": prob.interior_mass(u),
            "gb_residual": prob.gauss_bonnet_residual(u),
        }
        for c, val in enumerate(prob.boundary_masses(u)):
            row[f"boundary_mass_{c}"] = val
        rows.append(row)
    return rows


def _solve_problem(cfg: ExperimentConfig) -> tuple[Problem, list]:
    """The configured solve; one report per eps of a continuation,
    otherwise a single report."""
    prob = Problem(cfg.mesh, _need_curvature(cfg))
    s = cfg.settings
    if s["method"] == "minimize":
        def descend(p, u):
            return minimize(p, eps=s["eps"], init=u, tol=s["tol"],
                            max_iter=s["max_iter"],
                            blowup_threshold=s["blowup_threshold"])
        return prob, [nested(prob, _initial_state(cfg, prob), descend, descend)]
    # a mountain-pass solve is a continuation over the single weight eps
    schedule = [s["eps"]] if s["method"] == "mountain-pass" else s["eps_schedule"]
    return prob, continuation(prob, lambda p: _resolve_anchor(cfg, p),
                              eps_schedule=schedule, tol=s["tol"],
                              n_points=s["path_points"], q2=s["q2"],
                              blowup_threshold=s["blowup_threshold"])


def _final_solve(cfg: ExperimentConfig) -> tuple[Problem, SolveReport]:
    """The configured solve's last report, stating on stderr why it failed."""
    prob, reports = _solve_problem(cfg)
    if not reports[-1].converged:
        print(f"solver failure: {reports[-1].message}", file=sys.stderr)
    return prob, reports[-1]


# -- mode runners -------------------------------------------------------------


def _run_solve(cfg: ExperimentConfig) -> int:
    prob, reports = _solve_problem(cfg)
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
    return 0 if final.converged and not final.blowup_flag else 2


def _run_classify(cfg: ExperimentConfig) -> int:
    regime = regime_classify(_need_curvature(cfg), cfg.mesh)
    payload = {
        "regime": regime.kind.value,
        "D_max": regime.D_max,
        "D_argmax": _boundary_point_dict(regime.D_argmax),
        "h_integral": regime.h_integral,
        "level_set_transverse": regime.level_set_transverse,
        "annulus_case": regime.annulus_case,
    }
    _write_json(os.path.join(cfg.out_dir, "regime.json"), payload)
    print(json.dumps(_jsonable(payload), sort_keys=True))
    return 0


def _run_spectrum(cfg: ExperimentConfig) -> int:
    extra = cfg.settings.get("spectrum", {})
    if extra.get("disk_form"):
        try:
            n_r = int(extra.get("n_r", 3000))
            m_cap = int(extra.get("m_cap", 128))
            if n_r < 2:
                raise ValueError("n_r must be at least 2")
            if m_cap < 0:
                raise ValueError("m_cap must be at least 0")
            rep = disk_form_report(float(extra["disk_form"]), n_r=n_r, m_cap=m_cap)
        except ValueError as exc:
            raise ConfigError(f"bad [spectrum] section: {exc}") from exc
        _write_json(os.path.join(cfg.out_dir, "spectrum.json"), dataclasses.asdict(rep))
        print(f"disk form D0={rep.D0} negative_count={rep.negative_count}")
        return 0
    fixed = None
    eps = cfg.settings["eps"]
    if extra.get("state", "solve") == "family":
        family, params, keys = _sweep_section(cfg)
        prob, u, fixed = _family_state(cfg.mesh, family, keys, params[-1])
        solve_summary = {"state": "family", "parameter": params[-1]}
        code = 0
    else:
        prob, rep = _final_solve(cfg)
        u, eps = rep.state, rep.eps
        solve_summary = {"state": "solve", "converged": rep.converged,
                         "residual_norm": rep.residual_norm}
        code = 0 if rep.converged else 2
    spec_rep = morse_index(prob, u, eps=eps, fixed=fixed)
    _write_json(os.path.join(cfg.out_dir, "spectrum.json"),
                {**dataclasses.asdict(spec_rep), "source": solve_summary})
    print(f"negative_count={spec_rep.negative_count}")
    return code


def _run_exact_sweep(cfg: ExperimentConfig) -> int:
    states, params = _family_states(cfg)
    rows = _sweep_rows(states, params)
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), rows)
    cols = list(rows[0])
    _write_dat(os.path.join(cfg.out_dir, "sweep.dat"), cols,
               [np.array([r[c] for r in rows]) for c in cols])
    _write_plot_script(cfg.out_dir, "sweep.dat", 1,
                       [(cols.index("sup_u") + 1, "sup u"),
                        (cols.index("area_mass") + 1, "area mass")],
                       "family parameter", "sweep")
    print(f"{len(rows)} states, sup_u {rows[0]['sup_u']:.4g} .. {rows[-1]['sup_u']:.4g}")
    return 0


def _run_blowup(cfg: ExperimentConfig) -> int:
    states, params = _family_states(cfg)
    mon = cfg.settings.get("monitor", {})
    try:
        kwargs = {k: float(mon[k]) for k in
                  ("window", "sup_window", "growth_min", "bounded_ratio",
                   "far_distance", "far_tol") if mon.get(k)}
    except ValueError as exc:
        raise ConfigError(f"bad [monitor] section: {exc}") from exc
    diag = blowup_monitor(states, **kwargs)
    _write_json(os.path.join(cfg.out_dir, "blowup.json"), diag.as_dict())
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), _sweep_rows(states, params))
    print(f"diverging={diag.diverging} candidates={len(diag.candidates)} "
          f"bounded_mass={diag.bounded_mass}")
    return 0


def _run_pohozaev(cfg: ExperimentConfig) -> int:
    extra = cfg.settings.get("pohozaev", {})
    code = 0
    if extra.get("state", "solve") == "family":
        family, params, keys = _sweep_section(cfg)
        prob, u, _ = _family_state(cfg.mesh, family, keys, params[-1])
        source = {"state": "family", "parameter": params[-1]}
    else:
        prob, rep = _final_solve(cfg)
        u = rep.state
        source = {"state": "solve", "converged": rep.converged}
        code = 0 if rep.converged else 2
    fields = {}
    names = [t.strip() for t in extra.get("fields", "position").split(",")]
    for name in names:
        if name == "position":
            fields["position"] = position_field()
        elif name == "holomorphic":
            try:
                cos_c = _floats(extra.get("cos_coeffs", "0 1"))
                sin_c = _floats(extra.get("sin_coeffs", ""))
                fields["holomorphic"] = holomorphic_field(prob.mesh, cos_c, sin_c)
            except ValueError as exc:
                raise ConfigError(f"bad [pohozaev] coefficients: {exc}") from exc
        else:
            raise ConfigError(f"unknown [pohozaev] field {name!r}")
    payload = {"source": source}
    for name, field in fields.items():
        rep = pohozaev_report(prob, u, field)
        payload[name] = dataclasses.asdict(rep)
        print(f"{name}: residual={rep.residual:.6e}")
    _write_json(os.path.join(cfg.out_dir, "pohozaev.json"), payload)
    return code


def _run_testfn(cfg: ExperimentConfig) -> int:
    extra = cfg.settings.get("testfn", {})
    prob = Problem(cfg.mesh, _need_curvature(cfg))
    point = _resolve_anchor(cfg, prob)
    try:
        q2 = float(extra.get("q2", cfg.settings["q2"]))
        tail = int(extra.get("tail", 4))
        ratios = _floats(extra["ratios"]) if extra.get("ratios") else None
    except ValueError as exc:
        raise ConfigError(f"bad [testfn] section: {exc}") from exc
    schedule = [r / q2 for r in ratios] if ratios else None
    try:
        curve = testfunction_energy_curve(prob, point, q2=q2,
                                          mu_schedule=schedule)
        fitted = curve.extracted_slopes(tail=tail)
    except ValueError as exc:
        raise ConfigError(f"bad [testfn] section: {exc}") from exc
    rows = curve.rows()
    _write_csv(os.path.join(cfg.out_dir, "testfn.csv"), rows)
    cols = list(rows[0])
    _write_dat(os.path.join(cfg.out_dir, "testfn.dat"), cols,
               [np.array([r[c] for r in rows]) for c in cols])
    _write_plot_script(cfg.out_dir, "testfn.dat", cols.index("delta") + 1,
                       [(cols.index("dirichlet_slope") + 1, "dirichlet slope"),
                        (cols.index("boundary_slope") + 1, "boundary slope"),
                        (cols.index("energy") + 1, "energy")],
                       "delta", "testfn")
    payload = {
        "anchor": _boundary_point_dict(point),
        "q2": curve.q2,
        "d_at_point": curve.d_at_point,
        "min_d_component": curve.min_d_component,
        "fitted_slopes": fitted,
        "energy_end": float(curve.energy[-1]),
    }
    _write_json(os.path.join(cfg.out_dir, "testfn.json"), payload)
    print("fitted slopes: " + json.dumps(_jsonable(payload["fitted_slopes"]),
                                         sort_keys=True))
    return 0


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
        runner = {
            "solve": _run_solve,
            "classify": _run_classify,
            "spectrum": _run_spectrum,
            "exact-sweep": _run_exact_sweep,
            "blowup": _run_blowup,
            "pohozaev": _run_pohozaev,
            "testfn": _run_testfn,
        }[cfg.mode]
        return runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (PathCollapseError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
