"""The package names that ``perfbench/`` binds, checked against the package.

The benchmark changes only in its own changes, so an API change that
breaks one of its bindings would otherwise fail only in its smoke run.
Its per-layer tracer (``perfbench/tracing.py``) wraps the functions its
``LAYERS`` name, binds some of their arguments by parameter name and reads
report fields; its correctness gate calls ``power_min.interference_map``.
The tracer is imported read-only, from its file, through ``sys.path``,
and writes no bytecode there.
"""

import dataclasses
import importlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from nomapower import (Problem, ScenarioConfig, build_demands, generate_channels,
                       power_min, rate_max_network, run_scenario)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOLVERS = ("power_min", "rate_max_network")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = write
        sys.path.remove(str(PERFBENCH))


def test_every_solver_layer_resolves(tracing):
    for module_name in SOLVERS:
        module = importlib.import_module(f"nomapower.{module_name}")
        missing = [name for name in tracing.LAYERS[module_name]
                   if not callable(getattr(module, name, None))]
        assert not missing, module_name
    assert not [name for name in tracing.Tracer().absent
                if name.split(".")[0] in SOLVERS]


def test_bound_parameters_and_read_fields_exist():
    # _after_dpc_srm binds max_outer and reads the report's counters;
    # _before_subproblem binds i, caps and q
    assert "max_outer" in inspect.signature(rate_max_network.dpc_srm).parameters
    step = inspect.signature(rate_max_network.solve_convex_subproblem).parameters
    assert {"i", "caps", "q"} <= set(step)
    fields = {field.name for field in dataclasses.fields(rate_max_network.SrmReport)}
    assert {"outer_iterations", "subproblem_solves", "newton_steps", "trace",
            "converged"} <= fields


def test_a_traced_sweep_fills_every_solver_counter(tracing):
    # random starts step, so every hook of the solver layers runs once at
    # least; a renamed parameter or field would raise inside the hook
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        run_scenario(ScenarioConfig(seed=0, algorithm="rate-max", multistart=3))
        run_scenario(ScenarioConfig(seed=0, algorithm="power-min"))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(drops=2)
    for name in ("rate_max_network.dpc_srm.calls",
                 "rate_max_network.solve_convex_subproblem.calls",
                 "rate_max_network.power_cap.calls",
                 "rate_max_network.random_feasible_start.calls",
                 "rate_max_network.dpc_srm.outer_iterations",
                 "rate_max_network.dpc_srm.subproblem_solves"):
        assert metrics[name][0] > 0, name
    assert tracer.count["caps_seen"] > 0 and tracer.count["sub_reports"] > 0


def test_the_gate_map_is_the_problem_map():
    # the gate evaluates interference_map at a power-min run's totals; it
    # must be the problem's own map f, whose residual at the fixed point
    # the solve reports to the last bit
    config = ScenarioConfig(seed=3, algorithm="power-min")
    (allocation,) = run_scenario(config).allocations.values()
    topology = generate_channels(config, config.seed)
    demands = build_demands(config, topology)
    problem = Problem(topology, demands)
    report, _ = problem.fixed_point
    for q in (allocation.cell_powers(), report.q_star):
        f = power_min._reduced_map(topology, problem.constants.weights, q)
        assert np.array_equal(power_min.interference_map(topology, demands, q), f)
        gate = float(abs(q - f).max())
        assert math.isfinite(gate) and gate <= power_min.RESIDUAL_TOL * q.sum()
    assert gate == report.residual
