"""Acceptance suite: the package's exit criteria.

Each test enforces one criterion at its stated tolerance and runtime
budget and prints a single PASS line (run with ``pytest -s`` to see them
as they go).
"""

import time

import numpy as np
import pytest

from conftest import budgets_for, sample_demands, sample_topology
from nomapower import (ScenarioConfig, build_demands, dpc_spm, dpc_srm,
                       generate_channels, random_feasible_start,
                       run_scenario, write_outputs)
from nomapower.fixtures import (RATE_MAX_SINGLE_CELL_SUM_RATE,
                                rate_max_single_cell, symmetric_two_cell)
from nomapower.network import group_rates
from nomapower.oracle import (fd_hessian_psd, grid_power_min,
                              grid_rate_max_group, interference_over_gain,
                              minimal_group_powers, optimal_single_cell_rate,
                              rate_constraint_slack, standard_function_probe)
from nomapower.power_min import interference_map, min_power_user_allocation


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, \
            f"{label} took {elapsed:.1f} s (budget {self.limit} s)"
        print(f"PASS {label} ({elapsed:.2f} s)")


def test_criterion_1_closed_form_sum_power():
    budget = Budget(1.0)
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        demands = rng.uniform(0.1, 1.5, size=n)
        h = np.sort(rng.uniform(0.05, 4.0, size=n))[::-1]
        bw = float(rng.uniform(0.5, 2.0))
        p = min_power_user_allocation(demands, h, bw)
        slack = rate_constraint_slack(p, h, demands, bw)
        assert np.all(np.abs(slack) <= 1e-9 * np.maximum(p, 1e-12))
        independent = minimal_group_powers(demands, h, bw)[0]
        assert p == pytest.approx(independent, rel=1e-9)
    worked = min_power_user_allocation(np.array([1.0, 1.0, 1.0]),
                                       np.array([7.0, 3.0, 1.0]), 1.0)
    assert list(worked) == [12.0, 4.0, 1.0]
    budget.done("criterion 1: closed-form sum-power correctness")


def test_criterion_2_standard_function_properties():
    budget = Budget(10.0)
    rng = np.random.default_rng(102)
    trials = 0
    for _ in range(50):
        cells = int(rng.integers(2, 4))
        top = sample_topology(rng, num_cells=cells,
                              num_subchannels=int(rng.integers(1, 3)),
                              users=(2, 4))
        dem = sample_demands(rng, top)
        report = standard_function_probe(
            lambda q: interference_map(top, dem, q),
            (top.num_cells, top.num_subchannels),
            trials=20, seed=int(rng.integers(1 << 31)), magnitude=2.0)
        assert report.passed, report.counterexamples[:1]
        trials += report.trials
    assert trials == 1000
    budget.done("criterion 2: standard interference function properties")


def test_criterion_3_fixed_point_optimality():
    budget = Budget(60.0)
    rng = np.random.default_rng(103)
    delta = 0.01
    for _ in range(50):
        top = sample_topology(rng, num_cells=2, num_subchannels=1, users=2)
        dem = sample_demands(rng, top, rate=(0.3, 1.0))
        budgets = budgets_for(top, 3.0)
        report = dpc_spm(top, dem, budgets)
        assert report.fits(budgets)
        best = grid_power_min(top, dem, budgets, resolution=delta)
        assert report.q_star.sum() <= best.total_power + 2 * delta * 2
    top, dem, budgets = symmetric_two_cell()
    report = dpc_spm(top, dem, budgets)
    assert report.q_star == pytest.approx(np.ones((2, 1)), abs=1e-6)
    budget.done("criterion 3: fixed-point optimality against the grid oracle")


def test_criterion_4_weak_user_power_ordering():
    budget = Budget(5.0)
    rng = np.random.default_rng(104)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        h = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
        rate = float(rng.uniform(0.1, 1.5))
        p = min_power_user_allocation(np.full(n, rate), h, 1.0)
        assert np.all(np.diff(p) < 0)
    budget.done("criterion 4: equal demands give strictly decreasing powers")


def test_criterion_5_rate_closed_form_vs_grid_oracle():
    budget = Budget(120.0)
    rng = np.random.default_rng(105)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        demands = rng.uniform(0.2, 1.0, size=n)
        h = np.sort(rng.uniform(0.3, 3.0, size=n))[::-1]
        q = minimal_group_powers(demands, h, 1.0).sum() * float(rng.uniform(1.1, 3.0))
        resolution = q / (1000 if n == 2 else 140)
        best = grid_rate_max_group(demands, h, q, resolution=resolution)
        closed = optimal_single_cell_rate(demands, h, q, 1.0)
        assert closed >= best.sum_rate - 2e-3
        assert best.sum_rate <= closed + 1e-9
    two = optimal_single_cell_rate(np.array([1.0, 1.0]), np.array([2.0, 1.0]),
                                   10.0, 1.0)
    assert two == pytest.approx(1.0 + np.log2(5.0), rel=1e-9)
    three = optimal_single_cell_rate(np.array([1.0, 1.0, 0.5]),
                                     np.array([7.0, 3.0, 1.0]), 20.0, 1.0)
    assert three == pytest.approx(2.0 + np.log2(2.75), rel=1e-9)
    budget.done("criterion 5: rate-optimal closed form beats the grid oracle")


def test_criterion_6_convexity_certificate():
    budget = Budget(30.0)
    rng = np.random.default_rng(106)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        h = np.sort(rng.uniform(0.2, 3.0, size=n))[::-1]

        def objective(p):
            return -float(group_rates(p, h, 1.0).sum())

        point = rng.uniform(0.3, 3.0, size=n)
        report = fd_hessian_psd(objective, point)
        assert np.all(report.minors >= -1e-6)
        assert report.psd
    budget.done("criterion 6: negative sum rate has a PSD Hessian")


def test_criterion_7_dc_monotonicity_and_equivalence():
    budget = Budget(300.0)
    rng = np.random.default_rng(107)
    for trial in range(50):
        cells = int(rng.integers(2, 4))
        top = sample_topology(rng, num_cells=cells,
                              num_subchannels=int(rng.integers(1, 3)),
                              users=2)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        budgets = budgets_for(top, 4.0)
        if trial % 2 == 0:
            report = dpc_srm(top, dem, budgets)
        else:
            q0, x0 = random_feasible_start(top, dem, budgets, rng)
            report = dpc_srm(top, dem, budgets, q0=q0, x0=x0)
        assert np.all(np.diff(report.trace) <= 1e-9)
        for i, m in top.groups():
            h = np.maximum.accumulate(
                interference_over_gain(top, report.q, i, m)[::-1])[::-1]
            assert np.asarray(report.x[i][m]) == pytest.approx(h, rel=1e-6)
    single = dpc_srm(*rate_max_single_cell())
    assert single.sum_rate == pytest.approx(RATE_MAX_SINGLE_CELL_SUM_RATE,
                                            rel=1e-6)
    budget.done("criterion 7: DC loop is monotone and matches the closed form")


def _pairing_config(pairing, algorithm, seed):
    return ScenarioConfig(seed=seed, algorithm=algorithm, num_cells=3,
                          users_per_cell=4, users_per_subchannel=2,
                          num_subchannels=2, pairing=pairing,
                          budget_dbm_sweep=[30.0], rate_demand_bps=3.0e5)


def test_criterion_8_pairing_trend():
    budget = Budget(600.0)
    power = {"SW": [], "SS": []}
    rate = {"SW": [], "SS": []}
    feasible = {"SW": 0, "SS": 0}
    for seed in range(100):
        per_seed = {}
        for pairing in ("SW", "SS"):
            config = _pairing_config(pairing, "power-min", seed)
            top = generate_channels(config, seed)
            dem = build_demands(config, top)
            budgets = budgets_for(top, 1.0)      # the config's 30 dBm
            report = dpc_spm(top, dem, budgets)
            if not report.fits(budgets):
                continue
            feasible[pairing] += 1
            srm = dpc_srm(top, dem, budgets)
            per_seed[pairing] = (float(report.q_star.sum()), srm.sum_rate)
        if len(per_seed) < 2:
            continue                   # compare pairings on the same drop
        for pairing in ("SW", "SS"):
            power[pairing].append(per_seed[pairing][0])
            rate[pairing].append(per_seed[pairing][1])
    assert len(power["SW"]) >= 60
    assert np.mean(power["SW"]) <= np.mean(power["SS"])
    assert np.mean(rate["SW"]) >= np.mean(rate["SS"])
    # pairing distinct gains also rescues drops that strong-strong cannot serve
    assert feasible["SW"] >= feasible["SS"]
    budget.done("criterion 8: strong-weak pairing beats strong-strong on average")


def test_criterion_9_reproducibility(tmp_path):
    budget = Budget(60.0)
    config = ScenarioConfig(seed=5, algorithm="power-min", num_cells=2,
                            users_per_cell=4, users_per_subchannel=2,
                            num_subchannels=2, pairing="SW",
                            budget_dbm_sweep=[25.0, 30.0],
                            rate_demand_bps=3.0e5)
    first = write_outputs(run_scenario(config), tmp_path / "a")
    second = write_outputs(run_scenario(config), tmp_path / "b")
    assert len(first) == len(second)
    for one, two in zip(first, second):
        assert one.read_bytes() == two.read_bytes()
    budget.done("criterion 9: identical config and seed give identical bytes")
