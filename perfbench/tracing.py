"""Per-layer tracing for the benchmark, built entirely outside the package.

A :class:`Tracer` wraps the public functions of each ``nomapower`` module
and, while installed, rebinds every module attribute that refers to one of
them, including the names other modules imported with ``from .x import f``.
Each call becomes a span (name, start, end, parent span, drop id) kept in
flat arrays, and the wrapper accumulates call counts, total time and self
time (the span minus the time its child spans cover).  Counters come from
return values and arguments only, so nothing inside ``src/`` changes.

A function or module that no longer exists is skipped and reported in
:attr:`Tracer.absent`; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "nomapower"

# module -> wrapped public functions; oracle and fixtures are validation-only
# and cli is load_config + run_scenario + write_outputs, so none is listed
LAYERS = {
    "scenario": ("run_scenario", "generate_channels", "write_outputs"),
    "network": ("effective_interference",),
    "power_min": ("dpc_spm", "interference_map", "assemble_full_solution"),
    "rate_max_cell": ("optimal_single_cell_allocation",),
    "rate_max_network": ("dpc_srm", "solve_convex_subproblem", "power_cap",
                         "random_feasible_start"),
    "barrier": ("solve_barrier",),
}

# counter -> (numerator, denominator); a denominator of None means per drop
COUNTERS = {
    "scenario.write_outputs.bytes": ("write_bytes", None),
    "power_min.dpc_spm.sweeps": ("spm_sweeps", None),
    "power_min.dpc_spm.unconverged_frac": ("spm_unconverged", "spm_reports"),
    "rate_max_network.dpc_srm.outer_iterations": ("srm_outer", None),
    "rate_max_network.dpc_srm.subproblem_solves": ("srm_solves", None),
    "rate_max_network.dpc_srm.newton_steps": ("srm_newton", None),
    "rate_max_network.dpc_srm.moved_frac": ("srm_moved", "srm_reports"),
    "rate_max_network.dpc_srm.max_outer_frac": ("srm_max_outer", "srm_reports"),
    "rate_max_network.solve_convex_subproblem.improved_frac":
        ("sub_improved", "sub_reports"),
    "rate_max_network.caps_binding_frac": ("caps_binding", "caps_seen"),
    "barrier.solve_barrier.newton_steps": ("barrier_newton", None),
    "barrier.solve_barrier.converged_frac": ("barrier_converged",
                                             "barrier_reports"),
}


def _after_write_outputs(tracer, fn, args, kwargs, paths):
    tracer.count["write_bytes"] += sum(Path(p).stat().st_size for p in paths)


def _after_dpc_spm(tracer, fn, args, kwargs, report):
    tracer.count["spm_reports"] += 1
    tracer.count["spm_sweeps"] += report.iterations
    tracer.count["spm_unconverged"] += not report.converged


def _after_dpc_srm(tracer, fn, args, kwargs, report):
    max_outer = tracer.arguments(fn, args, kwargs)["max_outer"]
    c = tracer.count
    c["srm_reports"] += 1
    c["srm_outer"] += report.outer_iterations
    c["srm_solves"] += report.subproblem_solves
    c["srm_newton"] += report.newton_steps
    c["srm_moved"] += bool(np.ptp(report.trace) > 0.0)
    c["srm_max_outer"] += (not report.converged
                           and report.outer_iterations >= max_outer)


def _before_subproblem(tracer, fn, args, kwargs):
    a = tracer.arguments(fn, args, kwargs)
    caps = np.asarray(a["caps"], dtype=float)
    current = np.asarray(a["q"], dtype=float)[a["i"]]
    tracer.count["caps_binding"] += int(np.sum(caps <= current))
    tracer.count["caps_seen"] += caps.size


def _after_subproblem(tracer, fn, args, kwargs, iterate):
    tracer.count["sub_reports"] += 1
    tracer.count["sub_improved"] += bool(iterate.improved)


def _after_barrier(tracer, fn, args, kwargs, result):
    tracer.count["barrier_reports"] += 1
    tracer.count["barrier_newton"] += result.newton_steps
    tracer.count["barrier_converged"] += bool(result.converged)


BEFORE = {"rate_max_network.solve_convex_subproblem": _before_subproblem}
AFTER = {
    "scenario.write_outputs": _after_write_outputs,
    "power_min.dpc_spm": _after_dpc_spm,
    "rate_max_network.dpc_srm": _after_dpc_srm,
    "rate_max_network.solve_convex_subproblem": _after_subproblem,
    "barrier.solve_barrier": _after_barrier,
}


class Tracer:
    """Spans and counters for the calls into each layer's public functions."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        self.stats = {name: [0, 0.0, 0.0] for name in self.names}
        self.count = dict.fromkeys(
            {part for pair in COUNTERS.values() for part in pair if part}, 0)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_drop = array("q")
        self.drop = -1
        self.absent = []
        self._stack = []
        self._bindings = []
        self._signatures = {}
        originals = {}
        for name in self.names:
            module_name, fn_name = name.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                originals[name] = getattr(module, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
        # keyed by id: module namespaces also hold unhashable values
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in originals.items()}
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._bindings.append((module, attr) + pair)

    def _wrap(self, name, fn):
        code = self.names.index(name)
        stats = self.stats[name]
        before = BEFORE.get(name)
        after = AFTER.get(name)
        stack = self._stack
        sp_name, sp_start, sp_end = self.span_name, self.span_start, self.span_end
        sp_parent, sp_drop = self.span_parent, self.span_drop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, fn, args, kwargs)
            index = len(sp_name)
            sp_name.append(code)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_drop.append(self.drop)
            sp_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            sp_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                sp_end[index] = end
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(self, fn, args, kwargs, result)
            return result

        return traced

    def arguments(self, fn, args, kwargs) -> dict:
        """Arguments of one call by parameter name, defaults included."""
        if fn not in self._signatures:
            self._signatures[fn] = inspect.signature(fn)
        bound = self._signatures[fn].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def install(self, drop: int):
        """Route calls through the wrappers; spans carry ``drop`` as id."""
        self.drop = drop
        for module, attr, _, wrapped in self._bindings:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def metrics(self, drops: int) -> dict:
        """Per-layer metrics, normalised per drop; ``_frac`` ones per call."""
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = (calls / drops, "count/drop")
            out[f"{name}.total_ms"] = (total * 1e3 / drops, "ms/drop")
            out[f"{name}.self_ms"] = (self_time * 1e3 / drops, "ms/drop")
        for metric, (num, den) in COUNTERS.items():
            if den is None:
                unit = "bytes/drop" if metric.endswith("bytes") else "count/drop"
                out[metric] = (self.count[num] / drops, unit)
            else:
                base = self.count[den]
                out[metric] = (self.count[num] / base if base else 0.0, "ratio")
        return out

    def write_spans(self, path: Path):
        """Save every span as flat arrays in one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start_s=np.frombuffer(self.span_start, dtype=float),
                 end_s=np.frombuffer(self.span_end, dtype=float),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 drop=np.frombuffer(self.span_drop, dtype=np.int64))
