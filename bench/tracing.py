"""Spans around the calls between ``breakcoag``'s modules, and the
per-layer metrics made from them.

Each public function is wrapped where the calling module looks it up
(``breakcoag.cli.integrate``, ``breakcoag.diagnostics.integrate``, ...), so
the program itself is unchanged. A span is (name, start, end, parent);
spans stay in memory until the process writes them out.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

# (calling module, attribute looked up there, span name = defining layer).
# Every call run_scenario makes into another module is wrapped, so its self
# time is the output writing and glue.
WRAPPED = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "check_scenario", "hypotheses.check_scenario"),
    ("cli", "build_tables", "solver.build_tables"),
    ("cli", "integrate", "solver.integrate"),
    ("cli", "sample_initial", "grid.sample_initial"),
    ("cli", "make_grid", "grid.make_grid"),
    ("cli", "moment", "grid.moment"),
    ("cli", "moment_series", "diagnostics.moment_series"),
    ("cli", "check_mass_conservation", "diagnostics.check_mass_conservation"),
    ("cli", "check_apriori_bounds", "diagnostics.check_apriori_bounds"),
    ("cli", "detect_gelation", "diagnostics.detect_gelation"),
    ("cli", "contraction_experiment", "diagnostics.contraction_experiment"),
    ("cli", "e_sweep", "diagnostics.e_sweep"),
    ("cli", "build_phi", "dlvp.build_phi"),
    ("cli", "verify_dlvp", "dlvp.verify_dlvp"),
    ("diagnostics", "build_tables", "solver.build_tables"),
    ("diagnostics", "integrate", "solver.integrate"),
    ("diagnostics", "sample_initial", "grid.sample_initial"),
    # kernel and E evaluations are timed only where build_tables makes them
    ("solver", "eval_kernel", "kernels.eval_kernel"),
    ("solver", "eval_E", "daughter.eval_E"),
)

# Span names whose return values the traced worker reads (trajectories
# for step counts, tables for their size and for timing apply_rhs).
KEPT_RESULTS = ("solver.integrate", "solver.build_tables")

# Per-layer metrics: name -> (unit, better). Those absent from a workload's
# trace (a layer it never calls) read 0.
PER_LAYER = {
    "solver.integrate.steps": ("count", "lower"),
    "solver.integrate.rejected": ("count", "lower"),
    "solver.integrate.calls": ("count", "lower"),
    "solver.integrate.s": ("s", "lower"),
    "solver.integrate.us_per_step": ("us", "lower"),
    "solver.apply_rhs.us": ("us", "lower"),
    "solver.build_tables.s": ("s", "lower"),
    "solver.build_tables.calls": ("count", "lower"),
    "solver.tables_mb": ("MB", "lower"),
    "kernels.eval_kernel.s": ("s", "lower"),
    "daughter.eval_E.s": ("s", "lower"),
    "hypotheses.check_scenario.s": ("s", "lower"),
    "cli.parse_config.s": ("s", "lower"),
    "grid.sample_initial.s": ("s", "lower"),
    "cli.run_scenario.self_s": ("s", "lower"),
    "cli.output_mb": ("MB", "lower"),
    "diagnostics.e_sweep.self_s": ("s", "lower"),
    "diagnostics.contraction_experiment.self_s": ("s", "lower"),
    "dlvp.build_phi.s": ("s", "lower"),
    "dlvp.verify_dlvp.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Per-layer metrics that are counts or computed sizes: they must repeat
# exactly from run to run.
EXACT = ("solver.integrate.steps", "solver.integrate.rejected",
         "solver.integrate.calls", "solver.build_tables.calls",
         "solver.tables_mb", "cli.output_mb")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


class Tracer:
    """Records spans for wrapped calls; ``results`` keeps, by span name, what
    the calls named in ``KEPT_RESULTS`` returned."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        keep = self.results.setdefault(name, []) if name in KEPT_RESULTS \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if keep is not None:
                keep.append(result)
            return result
        return traced

    def install(self, modules: dict):
        """Wrap every entry of ``WRAPPED`` in the given modules by name."""
        for caller, attr, name in WRAPPED:
            module = modules[caller]
            setattr(module, attr, self.wrap(getattr(module, attr), name))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and the values
    the traced worker read off the program's return values."""
    spans = trace["spans"]
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, o in zip(spans, own):
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        self_total[s["name"]] = self_total.get(s["name"], 0.0) + o
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    steps = trace["steps"]
    integrate_s = total.get("solver.integrate", 0.0)
    return {
        "solver.integrate.steps": steps,
        "solver.integrate.rejected": trace["rejected"],
        "solver.integrate.calls": calls.get("solver.integrate", 0),
        "solver.integrate.s": integrate_s,
        "solver.integrate.us_per_step": 1e6 * integrate_s / steps if steps else 0.0,
        "solver.apply_rhs.us": trace["apply_rhs_us"],
        "solver.build_tables.s": total.get("solver.build_tables", 0.0),
        "solver.build_tables.calls": calls.get("solver.build_tables", 0),
        "solver.tables_mb": trace["tables_bytes"] / 1e6,
        "kernels.eval_kernel.s": total.get("kernels.eval_kernel", 0.0),
        "daughter.eval_E.s": total.get("daughter.eval_E", 0.0),
        "hypotheses.check_scenario.s": total.get("hypotheses.check_scenario", 0.0),
        "cli.parse_config.s": total.get("cli.parse_config", 0.0),
        "grid.sample_initial.s": total.get("grid.sample_initial", 0.0),
        "cli.run_scenario.self_s": self_total.get("cli.run_scenario", 0.0),
        "cli.output_mb": trace["output_bytes"] / 1e6,
        "diagnostics.e_sweep.self_s": self_total.get("diagnostics.e_sweep", 0.0),
        "diagnostics.contraction_experiment.self_s":
            self_total.get("diagnostics.contraction_experiment", 0.0),
        "dlvp.build_phi.s": total.get("dlvp.build_phi", 0.0),
        "dlvp.verify_dlvp.s": total.get("dlvp.verify_dlvp", 0.0),
    }
