"""Span tracing of ``prescurv`` from outside the package.

:meth:`Tracer.install` wraps every public function of each loaded
``prescurv`` module, the ``Problem``/``Operators`` methods named in
``METHODS`` and the SciPy calls named in ``LINALG``.  A function's
wrapper replaces it wherever it is bound: in its defining module and in
every module that imported it by ``from ... import`` (``cli`` binds
``minimize``, ``morse_index`` and others that way).  Module names are
the layers, so a span is called ``<module>.<function>``, ``linalg.<name>``
or ``energy.Problem`` for the constructor.  :meth:`Tracer.uninstall`
puts every original back.

Private helpers are never wrapped.  Their cost is read from span
parentage instead: ``solve.certify.s`` is the ``eigsh`` self time under
a ``minimize`` span.  A named target that no longer exists is not
wrapped, and every metric built on it is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "prescurv"
METHODS = {
    "energy.Problem": ("__init__", "energy", "gradient", "hessian"),
    "energy.Operators": ("solve_B",),
}
LINALG = ("splu", "eigsh")

# Spans reported per layer: "calls" adds <span>.calls, "s" adds both
# <span>.s (outermost total) and <span>.self_s.
TIMED = {
    "domain.build_mesh": ("s",),
    "energy.assemble": ("s",),
    "energy.Problem": ("s",),
    "energy.energy": ("calls", "s"),
    "energy.gradient": ("calls", "s"),
    "energy.hessian": ("calls", "s"),
    "energy.solve_B": ("calls", "s"),
    "linalg.splu": ("calls", "s"),
    "linalg.eigsh": ("calls", "s"),
    "solve.minimize": ("s",),
    "solve.newton_polish": ("s",),
    "solve.mountain_pass": ("s",),
    "solve.relaxed_endpoints": ("s",),
    "solve.build_u1": ("s",),
    "spectral.morse_index": ("calls", "s"),
    "fields.regime_classify": ("s",),
    "diagnostics.pohozaev_report": ("calls", "s"),
    "diagnostics.recovered_gradient": ("calls", "s"),
    "cli.load_config": ("s",),
    "cli.main": ("s",),
}
NEWTON = ("solve.minimize", "solve.newton_polish")
OBSERVED = (*NEWTON, "solve.mountain_pass", "spectral.morse_index")


def _line_search_counts(report) -> tuple[int, int]:
    """(Newton steps, line-search trial evaluations) of a solve report."""
    trace = report.line_search_trace
    return len(trace), sum(entry.get("backtracks", 0) + 1 for entry in trace)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    A span is ``[name, start, end, parent, invocation]``; ``parent`` is
    the index of the enclosing span or None, ``invocation`` the value of
    :attr:`invocation` when the span opened.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = None
        self.wrapped: set[str] = set()
        self.unreadable: set[str] = set()  # spans whose result lacked a field
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _observe(self, name: str, result) -> None:
        """Counts read from returned reports."""
        try:
            if name in NEWTON:
                steps, trials = _line_search_counts(result)
                self.counts[name + ".steps"] += steps
                self.counts["newton.trials"] += trials
            elif name == "solve.mountain_pass":
                self.counts[name + ".sweeps"] += sum(
                    1 for entry in result.line_search_trace if "sweep" in entry)
            elif name == "spectral.morse_index":
                self.counts["spectral.k_used"] += result.k_used
        except (AttributeError, KeyError, TypeError):
            self.unreadable.add(name)

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self._stack
        observed = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.invocation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observed:
                tracer._observe(name, result)
            return result

        self.wrapped.add(name)
        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever the package binds them."""
        importlib.import_module(PACKAGE + ".cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.split(".")[0] == PACKAGE and m is not None]
        spla = importlib.import_module("scipy.sparse.linalg")
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for name in LINALG:
            fn = getattr(spla, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(f"linalg.{name}", fn))
        for mod in modules + [spla]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for qualname, methods in METHODS.items():
            layer, cls_name = qualname.split(".")
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            for meth in methods:
                span = qualname if meth == "__init__" else f"{layer}.{meth}"
                original = vars(cls).get(meth) if inspect.isclass(cls) else None
                if inspect.isfunction(original):
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span, original))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def _has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def table(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, outermost total seconds, self seconds)."""
        selfs = self.self_times()
        rows: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = rows[name]
            row[0] += 1
            row[2] += selfs[i]
            if not self._has_ancestor(i, (name,)):
                row[1] += end - start
        return {name: tuple(row) for name, row in rows.items()}

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics as ``{name: (value, unit)}`` and the names of
        metrics reported absent."""
        table = self.table()
        metrics: dict[str, tuple[float, str]] = {}
        absent: list[str] = []

        def put(name, value, unit, spans=(), results=()):
            if (all(n in self.wrapped for n in spans)
                    and not any(n in self.unreadable for n in results)):
                metrics[name] = (value, unit)
            else:
                absent.append(name)

        for span, kinds in TIMED.items():
            calls, total, self_s = table.get(span, (0, 0.0, 0.0))
            if "calls" in kinds:
                put(f"{span}.calls", calls, "count", [span])
            put(f"{span}.s", total, "s", [span])
            put(f"{span}.self_s", self_s, "s", [span])

        steps = {name: int(self.counts[name + ".steps"]) for name in NEWTON}
        for name in NEWTON:
            put(f"{name}.steps", steps[name], "count", [name], [name])
        put("solve.mountain_pass.sweeps", int(self.counts["solve.mountain_pass.sweeps"]),
            "count", ["solve.mountain_pass"], ["solve.mountain_pass"])
        put("spectral.k_used", int(self.counts["spectral.k_used"]), "count",
            ["spectral.morse_index"], ["spectral.morse_index"])

        exact_rows = {n: r for n, r in table.items() if n.startswith("exact.")}
        exact_total = sum(end - start for i, (name, start, end, _, _) in enumerate(self.spans)
                          if name in exact_rows and not self._has_ancestor(i, exact_rows))
        put("exact.s", exact_total, "s")
        put("exact.self_s", sum(r[2] for r in exact_rows.values()), "s")

        selfs = self.self_times()
        certify = sum((selfs[i] for i, span in enumerate(self.spans)
                       if span[0] == "linalg.eigsh"
                       and self._has_ancestor(i, ("solve.minimize",))), 0.0)
        put("solve.certify.s", certify, "s", ["linalg.eigsh", "solve.minimize"])

        # Newton factorizations: splu calls inside a Newton solve that are
        # not the cached H1 Gram factorization of solve_B.
        newton_lu = sum(1 for i, span in enumerate(self.spans)
                        if span[0] == "linalg.splu" and self._has_ancestor(i, NEWTON)
                        and self.spans[span[3]][0] != "energy.solve_B")
        n_steps = sum(steps.values())
        trials = self.counts["newton.trials"]
        put("solve.factorizations_per_step", newton_lu / n_steps if n_steps else 0.0,
            "ratio", ["linalg.splu", *NEWTON], NEWTON)
        put("solve.step_accept_ratio", n_steps / trials if trials else 0.0,
            "ratio", NEWTON, NEWTON)
        return metrics, absent

    def check_self_times(self, walls: dict) -> dict[str, str]:
        """Invocations whose span self times sum past their wall time."""
        sums: dict = defaultdict(float)
        for span, s in zip(self.spans, self.self_times()):
            sums[span[4]] += s
        return {inv: f"span self times sum to {sums[inv]:.6f} s, more than "
                     f"the wall time {wall:.6f} s"
                for inv, wall in walls.items() if sums[inv] > wall + 1e-6}

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "invocation": inv}
                for n, s, e, p, inv in self.spans]
