"""Spans around bellbench's public names, recorded from outside the package.

Tracing replaces module attributes with timing wrappers, so only calls made
through those names are seen: a function calling a name it imported into its
own module is caught by patching that module's attribute.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

# (module, attribute, span name).  The same function patched in two
# modules gets one span name, so callers from either side are counted.
TARGETS = (
    ("bellbench.polytope", "facet_check", "polytope.facet_check"),
    ("bellbench.polytope", "classical_maximum", "polytope.classical_maximum"),
    ("bellbench.cli", "classical_maximum", "polytope.classical_maximum"),
    ("bellbench.optimize", "bell_operator", "quantum.bell_operator"),
    ("bellbench.optimize", "max_eigenpair", "quantum.max_eigenpair"),
    ("bellbench.optimize", "minimize", "optimize.local_search"),
    ("bellbench.optimize", "optimize_phases", "optimize.optimize_phases"),
    ("bellbench.optimize", "seesaw", "optimize.seesaw"),
    ("bellbench.cli", "quantum_bell_value", "quantum.quantum_bell_value"),
    ("bellbench.scenario", "bell_value", "scenario.bell_value"),
    ("bellbench.cli", "mermin3_max", "reference.mermin3_max"),
    ("bellbench.cli", "parse_runspec", "cli.parse_runspec"),
    ("bellbench.cli", "run", "cli.run"),
    ("bellbench.cli", "render_report", "cli.render_report"),
)


# position of the OptimizerConfig argument of the multistart entry points
_CONFIG_ARG = {"optimize.optimize_phases": 2, "optimize.seesaw": 1, "reference.mermin3_max": 1}


def _attributes(name, args, kwargs, result) -> dict:
    """Counts a layer metric needs from one call's arguments or result."""
    if name == "optimize.local_search":
        return {"nfev": int(result.nfev), "success": bool(result.success)}
    if name in _CONFIG_ARG:
        i = _CONFIG_ARG[name]
        config = args[i] if len(args) > i else kwargs["config"]
        return {"starts": config.starts}
    if name == "polytope.classical_maximum":
        sc = args[0].scenario
        return {"strategies": sc.outcomes ** (2 * sc.parties)}
    if name == "polytope.facet_check":
        sc = args[0].scenario
        return {"case": f"n{sc.parties}d{sc.outcomes}"}
    return {}


class Tracer:
    """Span recorder.  A span opened on a pool thread with nothing open on
    that thread takes as parent the innermost span of the main thread, which
    holds the single closed-loop caller."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
            span.update(_attributes(name, args, kwargs, result))
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}) + "\n")


LAYER_UNITS = {
    "polytope.facet_check_s": "s",
    "polytope.facet_check_s.n3d4": "s",
    "polytope.facet_check_s.n4d3": "s",
    "polytope.facet_check_s.n3d5": "s",
    "polytope.facet_rank_s": "s",
    "polytope.classical_maximum_s": "s",
    "polytope.strategies_per_s": "1/s",
    "quantum.bell_operator_us": "us",
    "quantum.max_eigenpair_us": "us",
    "quantum.bell_operator_calls": "count",
    "scenario.bell_value_us": "us",
    "quantum.quantum_bell_value_us": "us",
    "optimize.local_search_s": "s",
    "optimize.evaluations": "count",
    "optimize.evals_per_start": "count",
    "optimize.us_per_eval": "us",
    "optimize.converged_share": "ratio",
    "optimize.seesaw_sweeps_per_start": "count",
    "reference.mermin3_max_s": "s",
    "reference.evals_per_start": "count",
    "reference.converged_share": "ratio",
    "cli.parse_runspec_ms": "ms",
    "cli.run_s": "s",
    "cli.render_report_ms": "ms",
    "trace.overhead_s": "s",
}


def _ancestor(span: dict, by_id: dict, prefix: str):
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"].startswith(prefix):
            return parent
        parent = by_id.get(parent["parent"])
    return None


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer figures, per traced pass where they are totals."""
    by_id = {s["id"]: s for s in spans}
    dur = lambda s: s["end"] - s["start"]
    named = lambda n: [s for s in spans if s["name"] == n]
    total = lambda ss: sum(dur(s) for s in ss)
    mean_us = lambda ss: 1e6 * total(ss) / len(ss) if ss else 0.0
    ratio = lambda a, b: a / b if b else 0.0

    facets = named("polytope.facet_check")
    scans = named("polytope.classical_maximum")
    scans_in_facets = [s for s in scans if _ancestor(s, by_id, "polytope.facet_check")]
    operators = named("quantum.bell_operator")
    searches = named("optimize.local_search")
    mermin = named("reference.mermin3_max")
    ref_searches, opt_searches = [], []
    for s in searches:
        (ref_searches if _ancestor(s, by_id, "reference.") else opt_searches).append(s)
    opt_starts = sum(s["starts"] for s in named("optimize.optimize_phases") + named("optimize.seesaw"))
    seesaw_starts = sum(s["starts"] for s in named("optimize.seesaw"))
    seesaw_ops = [s for s in operators if _ancestor(s, by_id, "optimize.seesaw")]
    opt_evals = sum(s["nfev"] for s in opt_searches)
    ref_evals = sum(s["nfev"] for s in ref_searches)

    m = {
        "polytope.facet_check_s": total(facets) / passes,
        "polytope.facet_rank_s": (total(facets) - total(scans_in_facets)) / passes,
        "polytope.classical_maximum_s": total(scans) / passes,
        "polytope.strategies_per_s": ratio(sum(s["strategies"] for s in scans), total(scans)),
        "quantum.bell_operator_us": mean_us(operators),
        "quantum.max_eigenpair_us": mean_us(named("quantum.max_eigenpair")),
        "quantum.bell_operator_calls": len(operators) / passes,
        "scenario.bell_value_us": mean_us(named("scenario.bell_value")),
        "quantum.quantum_bell_value_us": mean_us(named("quantum.quantum_bell_value")),
        "optimize.local_search_s": total(opt_searches) / passes,
        "optimize.evaluations": opt_evals / passes,
        "optimize.evals_per_start": ratio(opt_evals, opt_starts),
        "optimize.us_per_eval": 1e6 * ratio(total(opt_searches), opt_evals),
        "optimize.converged_share": ratio(sum(s["success"] for s in opt_searches), len(opt_searches)),
        "optimize.seesaw_sweeps_per_start": ratio(len(seesaw_ops), seesaw_starts),
        "reference.mermin3_max_s": total(mermin) / passes,
        "reference.evals_per_start": ratio(ref_evals, sum(s["starts"] for s in mermin)),
        "reference.converged_share": ratio(sum(s["success"] for s in ref_searches), len(ref_searches)),
        "cli.parse_runspec_ms": 1e3 * total(named("cli.parse_runspec")) / passes,
        "cli.run_s": total(named("cli.run")) / passes,
        "cli.render_report_ms": 1e3 * total(named("cli.render_report")) / passes,
    }
    for case in ("n3d4", "n4d3", "n3d5"):
        m[f"polytope.facet_check_s.{case}"] = total(
            [s for s in facets if s["case"] == case]) / passes
    return m


def overhead(untraced_walls: list[float], traced_walls: list[float]) -> float:
    return statistics.median(traced_walls) - statistics.median(untraced_walls)
