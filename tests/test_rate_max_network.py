import dataclasses
import sys

import numpy as np
import pytest

from conftest import budgets_for, sample_demands, sample_topology
from nomapower import (NetworkTopology, RateDemands, ScenarioConfig, build_demands,
                       dpc_srm, generate_channels, random_feasible_start, solve_spm)
from nomapower import network, oracle, power_min, rate_max_network
from nomapower.fixtures import (RATE_MAX_SINGLE_CELL_SUM_RATE,
                                rate_max_single_cell, symmetric_two_cell)
from nomapower.network import dense_interference, normalized_interference, unpad
from nomapower.oracle import (demand_weights, interference_over_gain,
                              optimal_single_cell_rate, rate_via_decoding_chain)
from nomapower.scenario import dbm_to_watts
from nomapower.power_min import _GroupConstants
from nomapower.rate_max_network import (InfeasibleInitialPointError,
                                        InfeasibleSubproblemError, _assemble,
                                        cell_objective, power_cap,
                                        solve_convex_subproblem)


def constants(top, dem):
    return _GroupConstants.build(dem.rates, top.bandwidth)


def two_cell_single_user():
    # cell-2 user: own gain 1.0, cross gain from BS 1 is 0.2, noise 0.1
    g0 = np.array([[1.0], [0.3]])
    g1 = np.array([[0.2], [1.0]])
    return NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))


class TestPowerCap:
    def test_worked_example(self):
        top = two_cell_single_user()
        q = np.zeros((2, 1))
        x = np.array([[[1.0]], [[0.5]]])
        cap = power_cap(top, q, x, normalized_interference(top, q))[0, 0]
        assert cap == pytest.approx((1.0 * 0.5 - 0.1) / 0.2)

    def test_tight_proxies_cap_at_current_power(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            top = sample_topology(rng, num_cells=3, num_subchannels=2,
                                  users=(1, 4))
            q = rng.uniform(0.1, 2.0, size=(3, 2))
            x = np.where(top.occupied, dense_interference(top, q), 0.0)
            for i in range(3):
                caps = power_cap(top, q, x, normalized_interference(top, q))[i]
                for m in range(2):
                    assert caps[m] == q[i, m]

    def test_matches_per_group_loop(self):
        # reference: the cap of one subchannel from explicit per-group loops
        def loop_cap(top, q, x, i, m):
            cap = np.inf
            for n in range(top.num_cells):
                if n == i:
                    continue
                g = unpad(top.gains, top.occupied)[n][m]
                xs = x[n, m, top.occupied[n, m]]
                for j in range(g.shape[1]):
                    for l in range(j, g.shape[1]):
                        third = q[:, m] @ g[:, l] - q[i, m] * g[i, l] - q[n, m] * g[n, l]
                        if g[i, l] > 0.0:
                            cap = min(cap, (g[n, l] * xs[j] - third
                                            - top.noise_power) / g[i, l])
            return cap

        rng = np.random.default_rng(30)
        for _ in range(20):
            cells = int(rng.integers(2, 6))
            top = sample_topology(rng, num_cells=cells, num_subchannels=2,
                                  users=(1, 4))
            q = rng.uniform(0.1, 2.0, size=(cells, 2))
            slack = np.where(top.occupied, rng.uniform(1.0, 3.0, top.occupied.shape), 0.0)
            x = dense_interference(top, q) * slack
            for i in range(cells):
                caps = power_cap(top, q, x, normalized_interference(top, q))[i]
                for m in range(2):
                    assert caps[m] == pytest.approx(loop_cap(top, q, x, i, m),
                                                    rel=1e-12)

    def test_min_over_candidates(self):
        top = two_cell_single_user()
        q = np.zeros((2, 1))
        for x2, expected in ((0.5, 2.0), (0.9, 4.0)):
            x = np.array([[[1.0]], [[x2]]])
            assert power_cap(top, q, x, normalized_interference(top, q))[0, 0] == \
                pytest.approx(expected)
        # larger proxy loosens the cap; the min picks the tighter user
        g0 = np.array([[1.0, 1.0], [0.3, 0.3]])
        g1 = np.array([[0.2, 0.25], [1.0, 1.0]])
        top2 = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))
        x = np.array([[[1.0, 1.0]], [[0.5, 0.5]]])
        caps = [(1.0 * 0.5 - 0.1) / 0.2, (1.0 * 0.5 - 0.1) / 0.25]
        q = np.zeros((2, 1))
        assert power_cap(top2, q, x, normalized_interference(top2, q))[0, 0] == \
            pytest.approx(min(caps))

    def test_single_cell_has_no_cap(self):
        top, _, _ = rate_max_single_cell()
        x = np.array([[[2.0, 1.0]]])
        q = np.zeros((1, 1))
        assert power_cap(top, q, x, normalized_interference(top, q))[0, 0] == np.inf

    def test_zero_cross_gain_has_no_cap(self):
        g0 = np.array([[1.0], [0.0]])
        g1 = np.array([[0.0], [1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))
        x = np.array([[[1.0]], [[0.5]]])
        q = np.zeros((2, 1))
        assert power_cap(top, q, x, normalized_interference(top, q))[0, 0] == np.inf


class TestDcObjective:
    def test_single_subchannel_worked_example(self):
        top, dem, _ = rate_max_single_cell()
        q_i = np.array([10.0])
        x_i = np.array([[2.0, 1.0]])
        assert cell_objective(top, constants(top, dem), q_i, x_i, 0) == \
            pytest.approx(-np.log2(5.0) - 1.0)

    def test_domain_error_on_bad_iterate(self):
        top, dem, _ = rate_max_single_cell()
        with pytest.raises(ValueError, match="log argument"):
            cell_objective(top, constants(top, dem), np.array([0.0]),
                           np.array([[100.0, 0.5]]), 0)


class TestSubproblem:
    def test_symmetric_subchannels_split_evenly(self):
        g = np.array([[1.0, 2.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=2.0, gains=((g, g),))
        dem = RateDemands.uniform(top, 1.0)
        q = np.array([[4.2, 5.3]])      # feasible but lopsided start
        x = dense_interference(top, q)
        caps = np.array([np.inf, np.inf])
        consts = constants(top, dem)
        out = solve_convex_subproblem(top, consts[0], 0, x[0], caps, 10.0, q,
                                      dense_interference(top, q)[0],
                                      cell_objective(top, consts, q[0], x[0], 0))
        assert out.improved
        assert out.q_i == pytest.approx([5.0, 5.0], rel=1e-12)

    def test_pinned_subchannel_hands_budget_to_the_other(self):
        # subchannel 0 is pinned at q = 4 by its cap and the coupling, so
        # the region has no interior; the spare 2 W go to subchannel 1
        g = np.array([[1.0, 2.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=2.0, gains=((g, g),))
        dem = RateDemands.uniform(top, 1.0)
        q = np.array([[4.0, 4.0]])
        x = dense_interference(top, np.zeros((1, 2)))
        consts = constants(top, dem)
        out = solve_convex_subproblem(top, consts[0], 0, x[0],
                                      np.array([4.0, np.inf]), 10.0, q,
                                      dense_interference(top, q)[0],
                                      cell_objective(top, consts, q[0], x[0], 0))
        assert out.improved
        assert out.q_i == pytest.approx([4.0, 6.0], rel=1e-12)
        assert out.objective_value == pytest.approx(-3.0 - np.log2(3.0),
                                                    rel=1e-12)

    def test_single_subchannel_recovers_closed_form(self):
        top, dem, _ = rate_max_single_cell()
        q = np.array([[4.0]])       # start at the feasibility boundary
        x = dense_interference(top, q)
        consts = constants(top, dem)
        out = solve_convex_subproblem(top, consts[0], 0, x[0],
                                      np.array([np.inf]), 10.0, q,
                                      dense_interference(top, q)[0],
                                      cell_objective(top, consts, q[0], x[0], 0))
        assert out.q_i == pytest.approx([10.0], rel=1e-6)
        p = _assemble(constants(top, dem), out.q_i[None], x).powers[0, 0]
        assert p == pytest.approx([6.0, 4.0], rel=1e-6)

    def test_warm_start_surrogate_never_increases(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=2)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            q0, x0 = random_feasible_start(top, dem, budgets_for(top, 4.0), rng)
            for i in range(2):
                caps = power_cap(top, q0, x0, normalized_interference(top, q0))[i]
                consts = constants(top, dem)
                warm = cell_objective(top, consts, q0[i], x0[i], i)
                out = solve_convex_subproblem(top, consts[i], i, x0[i], caps,
                                              4.0, q0,
                                              dense_interference(top, q0)[i], warm)
                assert out.objective_value <= warm + 1e-9

    def test_infeasible_inputs_raise_with_family(self):
        top, dem, _ = rate_max_single_cell()
        q = np.array([[2.0]])       # below the required 4 W
        x = dense_interference(top, q)
        consts = constants(top, dem)
        with pytest.raises(InfeasibleSubproblemError, match="demand coupling"):
            solve_convex_subproblem(top, consts[0], 0, x[0],
                                    np.array([np.inf]), 10.0, q, x[0],
                                    cell_objective(top, consts, q[0], x[0], 0))
        q = np.array([[8.0]])       # feasible, but over a 6 W budget
        x = dense_interference(top, q)
        with pytest.raises(InfeasibleSubproblemError, match="power budget"):
            solve_convex_subproblem(top, consts[0], 0, x[0],
                                    np.array([np.inf]), 6.0, q, x[0],
                                    cell_objective(top, consts, q[0], x[0], 0))


class TestDpcSrm:
    def test_single_cell_single_subchannel_matches_closed_form(self):
        report = dpc_srm(*rate_max_single_cell())
        assert report.converged
        assert report.sum_rate == pytest.approx(RATE_MAX_SINGLE_CELL_SUM_RATE,
                                                rel=1e-9)
        assert report.q[0, 0] == pytest.approx(10.0, rel=1e-9)
        assert report.allocation.powers[0][0] == pytest.approx([6.0, 4.0],
                                                               rel=1e-7)

    def test_decoupled_cells_reach_per_cell_optimum(self):
        g0 = np.array([[1.0, 2.0], [0.0, 0.0]])
        g1 = np.array([[0.0, 0.0], [1.0, 2.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=2.0, gains=((g0,), (g1,)))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_srm(top, dem, np.array([10.0, 10.0]))
        assert report.sum_rate == pytest.approx(
            2.0 * RATE_MAX_SINGLE_CELL_SUM_RATE, rel=1e-9)

    def test_trace_is_non_increasing(self):
        rng = np.random.default_rng(35)
        for _ in range(8):
            top = sample_topology(rng, num_cells=2, num_subchannels=1, users=2)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            budgets = budgets_for(top, 4.0)
            q0, x0 = random_feasible_start(top, dem, budgets, rng)
            report = dpc_srm(top, dem, budgets, q0=q0, x0=x0)
            assert np.all(np.diff(report.trace) <= 1e-9)

    def test_proxies_settle_on_effective_interference(self):
        rng = np.random.default_rng(36)
        top = sample_topology(rng, num_cells=2, users=2)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        report = dpc_srm(top, dem, budgets_for(top, 4.0))
        for i, m in top.groups():
            h = np.maximum.accumulate(
                interference_over_gain(top, report.q, i, m)[::-1])[::-1]
            assert np.asarray(report.x[i][m]) == pytest.approx(h, rel=1e-6)

    def test_objective_equals_negative_closed_form_rate_at_tight_proxies(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=2)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            from nomapower import dpc_spm
            fp = dpc_spm(top, dem, budgets_for(top))
            q = fp.q_star * rng.uniform(1.0, 1.5)
            profile = dense_interference(top, q)
            consts = constants(top, dem)
            total = sum(cell_objective(top, consts, q[i], profile[i], i)
                        for i in range(2))
            direct = -sum(
                optimal_single_cell_rate(dem.rates[i][m],
                                         np.array(profile[i][m]),
                                         float(q[i, m]), top.bandwidth)
                for i, m in top.groups())
            assert total == pytest.approx(direct, rel=1e-10)

    def test_sum_rate_matches_per_user_rates(self):
        top, dem, budgets = symmetric_two_cell()
        report = dpc_srm(top, dem, budgets)
        direct = sum(float(np.sum(rate_via_decoding_chain(top, report.allocation,
                                                          report.q, i, m)))
                     for i, m in top.groups())
        assert report.sum_rate == pytest.approx(direct, rel=1e-9)

    def test_infeasible_start_raises(self):
        top, dem, budgets = rate_max_single_cell()
        with pytest.raises(InfeasibleInitialPointError):
            dpc_srm(top, dem, budgets, q0=np.array([[20.0]]))       # over budget
        with pytest.raises(InfeasibleInitialPointError):
            dpc_srm(top, dem, budgets, q0=np.array([[8.0]]),
                    x0=np.array([[[0.1, 0.05]]]))          # below interference

    def test_start_a_tenth_of_a_billionth_over_budget_raises(self):
        top, dem, budgets = rate_max_single_cell()
        dpc_srm(top, dem, budgets, q0=budgets[:, None])     # at the budget: accepted
        with pytest.raises(InfeasibleInitialPointError, match="per-cell budget"):
            dpc_srm(top, dem, budgets, q0=budgets[:, None] * (1.0 + 1e-10))

    def test_misshapen_or_uncovered_start_raises(self):
        # subchannel 0 serves one user per cell, so slot 0 is padding there
        g_a = np.array([[1.0], [0.05]])
        g_b = np.array([[0.4, 0.9], [0.02, 0.03]])
        g_c = np.array([[0.06], [1.2]])
        g_d = np.array([[0.02, 0.04], [0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.2,
                              gains=((g_a, g_b), (g_c, g_d)))
        dem = RateDemands.uniform(top, 0.4)
        q = solve_spm(top, dem).q_star          # every demand coupling tight
        x = np.where(top.occupied, dense_interference(top, q), 0.0)
        padded = x.copy()
        padded[0, 0, 0] = 1.0
        for q0, x0, match in ((-q, None, "non-negative"),
                              (q[:1], None, "non-negative"),
                              (q, x[:1], "padded like the topology"),
                              (q, padded, "padded like the topology"),
                              (q, 2.0 * x, "cannot cover the demands")):
            with pytest.raises(InfeasibleInitialPointError, match=match):
                dpc_srm(top, dem, np.array([8.0, 8.0]), q0=q0, x0=x0)

    def test_assemble_refuses_totals_below_the_required_power(self):
        top, dem, budgets = symmetric_two_cell()
        q = dpc_srm(top, dem, budgets).q
        h = dense_interference(top, q)
        required = (constants(top, dem).weights * h).sum(axis=-1)
        with pytest.raises(InfeasibleInitialPointError,
                           match=r"group \(0,0\) ended below its required power"):
            _assemble(constants(top, dem), 0.5 * required, h)

    def test_infeasible_subproblem_ends_the_run_with_its_diagnostic(self, monkeypatch):
        # proxies drawn above their floor keep the first sweep from
        # stalling, so the step runs; the same totals at tight proxies
        # stall at once and report the sum rate at q0
        top, dem, budgets = symmetric_two_cell()
        q0, x0 = random_feasible_start(top, dem, budgets, np.random.default_rng(2))
        start = dpc_srm(top, dem, budgets, q0=q0, max_outer=1)
        assert np.array_equal(start.q, q0)

        def refuse(*args):
            raise InfeasibleSubproblemError("power budget", "(cell 0)")

        monkeypatch.setattr(rate_max_network, "solve_convex_subproblem", refuse)
        report = dpc_srm(top, dem, budgets, q0=q0, x0=x0)
        assert not report.converged
        assert report.diagnostic == \
            "infeasible subproblem: constraint family 'power budget' (cell 0)"
        assert (report.outer_iterations, report.subproblem_solves) == (1, 0)
        assert report.trace.size == 2           # the start and the settled point
        assert report.sum_rate == start.sum_rate

    def test_infeasible_demands_raise(self):
        top, _, budgets = rate_max_single_cell()
        dem = RateDemands.uniform(top, 10.0)       # needs far more than 10 W
        with pytest.raises(InfeasibleInitialPointError):
            dpc_srm(top, dem, budgets)

    def test_group_constants_are_built_once_per_call(self, monkeypatch):
        rng = np.random.default_rng(56)
        top = sample_topology(rng, num_cells=3, num_subchannels=2, users=2)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        budgets = budgets_for(top, 4.0)
        q0, x0 = random_feasible_start(top, dem, budgets, rng)
        calls = []
        build, weights = _GroupConstants.build, oracle.demand_weights

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(_GroupConstants, "build",
                            staticmethod(counted("build", build)))
        # every module that bound the oracle's reference weights by name
        # counts as well; no solver module binds them, they read the bundle
        bound = [module for name, module in sys.modules.items()
                 if name.split(".")[0] == "nomapower"
                 and getattr(module, "demand_weights", None) is weights]
        assert bound == [oracle]
        monkeypatch.setattr(oracle, "demand_weights", counted("weights", weights))
        report = dpc_srm(top, dem, budgets, q0=q0, x0=x0)
        assert report.subproblem_solves >= 2 * top.num_cells    # 2 sweeps or more
        assert calls == ["build"]
        # a call handed the drop of the same topology and demands builds none
        drop = power_min._Drop(top, dem)
        assert calls == ["build", "build"]
        got = dpc_srm(top, dem, budgets, q0=q0, x0=x0, drop=drop)
        assert got.sum_rate == report.sum_rate
        assert calls == ["build", "build"]

    def test_kept_constants_follow_the_bandwidth_and_check_the_topology(self):
        # a drop builds its constants at its topology's bandwidth and checks
        # the demands against that topology once; a solver refuses the drop
        # of other objects, and the demands keep nothing
        rng = np.random.default_rng(57)
        top = sample_topology(rng, num_cells=2, num_subchannels=2, users=2)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        drop = power_min._Drop(top, dem)
        for name in ("weights", "growth", "alpha", "weak"):
            assert np.array_equal(getattr(drop.constants, name),
                                  getattr(constants(top, dem), name))
        assert drop.fixed_point is drop.fixed_point     # solved once
        wide = dataclasses.replace(top, bandwidth=2.0 * top.bandwidth)
        assert np.array_equal(power_min._Drop(wide, dem).constants.growth,
                              np.exp2(dem.rates / wide.bandwidth))
        assert not hasattr(dem, "_constants") and "_constants" not in repr(dem)
        other = sample_topology(rng, num_cells=2, num_subchannels=2, users=3)
        with pytest.raises(ValueError, match="one per user"):
            power_min._Drop(other, dem)
        budgets = budgets_for(top, 4.0)
        for foreign in (power_min._Drop(wide, dem),
                        power_min._Drop(top, RateDemands(dem.rates))):
            with pytest.raises(ValueError, match="another topology or demands"):
                dpc_srm(top, dem, budgets, drop=foreign)
            with pytest.raises(ValueError, match="another topology or demands"):
                random_feasible_start(top, dem, budgets, rng, drop=foreign)

    def test_one_interference_evaluation_per_accepted_step(self, monkeypatch):
        # on a paper-size drop the default start evaluates the normalized
        # interference once, for its start, every cell's caps, the stall
        # test and the settle; a random start once more per step that moves.  The
        # fixed-point solve's own evaluations, in power_min, are not counted
        config = ScenarioConfig(seed=0, algorithm="rate-max")
        top = generate_channels(config, config.seed)
        dem = build_demands(config, top)
        budgets = budgets_for(top, 1.0)              # the config's 30 dBm
        q0, x0 = random_feasible_start(top, dem, budgets, np.random.default_rng(0))
        calls, moved = [], []
        evaluate = network.normalized_interference
        step = rate_max_network.solve_convex_subproblem

        def counted_evaluate(*args):
            calls.append(1)
            return evaluate(*args)

        def counted_step(*args):
            iterate = step(*args)
            moved.append(iterate.improved)
            return iterate

        for module in (network, rate_max_network):
            monkeypatch.setattr(module, "normalized_interference", counted_evaluate)
        monkeypatch.setattr(rate_max_network, "solve_convex_subproblem", counted_step)
        report = dpc_srm(top, dem, budgets)
        assert len(calls) == 1 and moved == []      # a stalled sweep runs no step
        assert report.subproblem_solves == top.num_cells
        calls.clear()
        moved.clear()
        report = dpc_srm(top, dem, budgets, q0=q0, x0=x0)
        assert report.converged and any(moved)
        assert len(calls) == 1 + sum(moved)

    def test_caps_rounded_below_the_start_do_not_stop_the_loop(self):
        # on this paper-size drop a power_cap that cancels received powers
        # left cell 1's caps up to 2e-7 (relative) below its q at 20 and
        # 40 dBm and stopped the loop; it must converge at every budget
        config = ScenarioConfig(seed=700090, algorithm="rate-max")
        topology = generate_channels(config, config.seed)
        demands = build_demands(config, topology)
        for budget_dbm in (20.0, 30.0, 40.0):
            budgets = np.full(topology.num_cells, dbm_to_watts(budget_dbm))
            report = dpc_srm(topology, demands, budgets, tol=config.rate_tol,
                             max_outer=config.max_outer)
            assert report.converged, budget_dbm
            assert report.diagnostic == "", budget_dbm

    def test_explicit_default_start_gives_the_default_report(self):
        # the default start handed over explicitly, checked, and the default
        # start read from a handed drop must give the report of a call that
        # builds its own drop, bit for bit
        config = ScenarioConfig(algorithm="rate-max")
        solved = 0
        for seed in range(4):
            topology = generate_channels(config, seed)
            demands = build_demands(config, topology)
            for budget_dbm in (20.0, 30.0, 40.0):
                budgets = np.full(topology.num_cells, dbm_to_watts(budget_dbm))
                weights = oracle.demand_weights(demands.padded_for(topology),
                                                topology.bandwidth)
                fp, _ = power_min._least_fixed_point(topology, weights)
                try:
                    headroom = rate_max_network._headroom(fp, budgets)
                except InfeasibleInitialPointError:
                    continue
                want = dpc_srm(topology, demands, budgets)
                drop = power_min._Drop(topology, demands)
                for got in (dpc_srm(topology, demands, budgets,
                                    q0=fp.q_star * float(np.min(headroom))),
                            dpc_srm(topology, demands, budgets, drop=drop)):
                    for name in ("q", "x", "trace"):
                        assert np.array_equal(getattr(got, name), getattr(want, name)), name
                    assert np.array_equal(got.allocation.powers, want.allocation.powers)
                    assert got.sum_rate == want.sum_rate
                    assert (got.outer_iterations, got.converged, got.diagnostic) == \
                        (want.outer_iterations, want.converged, want.diagnostic)
                solved += 1
        assert solved == 12

    def test_random_starts_stay_feasible_and_never_beat_caps(self):
        rng = np.random.default_rng(38)
        top = sample_topology(rng, num_cells=2, users=2)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        budgets = budgets_for(top, 4.0)
        for _ in range(5):
            q0, x0 = random_feasible_start(top, dem, budgets, rng)
            report = dpc_srm(top, dem, budgets, q0=q0, x0=x0)    # must not raise
            assert np.all(report.q.sum(axis=1) <= budgets * (1 + 1e-9))

    def test_single_user_and_mixed_groups_degenerate_cleanly(self):
        # subchannel 0 serves one user, subchannel 1 serves three
        g_a = np.array([[1.0], [0.05]])
        g_b = np.array([[0.4, 0.9, 1.6], [0.02, 0.03, 0.05]])
        g_c = np.array([[0.06], [1.2]])
        g_d = np.array([[0.02, 0.04, 0.06], [0.5, 1.0, 1.5]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.2,
                              gains=((g_a, g_b), (g_c, g_d)))
        dem = RateDemands.uniform(top, 0.4)
        report = dpc_srm(top, dem, np.array([8.0, 8.0]))
        assert np.all(np.diff(report.trace) <= 1e-9)
        np.testing.assert_allclose(report.allocation.cell_powers(), report.q,
                                   rtol=1e-6, atol=0)
        for i, m in top.groups():
            rates = rate_via_decoding_chain(top, report.allocation, report.q, i, m)
            # weak users exactly at their demand, the strongest at or above it
            assert rates[:-1] == pytest.approx(np.full(rates.size - 1, 0.4), rel=1e-9)
            assert rates[-1] >= 0.4 * (1 - 1e-9)

    def test_final_point_satisfies_every_constraint(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=2)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            budgets = budgets_for(top, 4.0)
            report = dpc_srm(top, dem, budgets)
            scale = float(budgets.max())
            assert np.all(report.q.sum(axis=1) <= budgets + 1e-7 * scale)
            for i, m in top.groups():
                h = np.maximum.accumulate(
                    interference_over_gain(top, report.q, i, m)[::-1])[::-1]
                x = np.asarray(report.x[i][m])
                assert np.all(x >= h * (1 - 1e-7))
                w = demand_weights(dem.rates[i][m], top.bandwidth)
                assert w @ x <= report.q[i, m] * (1 + 1e-7)
                cap = power_cap(top, report.q, report.x,
                                normalized_interference(top, report.q))[i, m]
                assert report.q[i, m] <= cap * (1 + 1e-7) + 1e-12


def paper_drops(seeds, budgets_dbm=(20.0, 30.0, 40.0)):
    """(topology, demands, budgets) of the default rate-max config's drops
    that have a fixed point within the budget, one per seed and budget."""
    config = ScenarioConfig(algorithm="rate-max")
    for seed in seeds:
        topology = generate_channels(config, seed)
        demands = build_demands(config, topology)
        for budget_dbm in budgets_dbm:
            budgets = np.full(topology.num_cells, dbm_to_watts(budget_dbm))
            if solve_spm(topology, demands).fits(budgets):
                yield topology, demands, budgets


class TestPinnedStep:
    """A step whose caps all bind at tight proxies returns its start; from
    the default start every step is one, and dpc_srm runs none of them."""

    def test_default_start_evaluates_the_objective_once(self, monkeypatch):
        # once for the start; the stalled sweep and the settle evaluate
        # nothing
        config = ScenarioConfig(seed=0, algorithm="rate-max")
        top = generate_channels(config, config.seed)
        dem = build_demands(config, top)
        calls = []
        evaluate = rate_max_network.cell_objective

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(rate_max_network, "cell_objective", counted)
        report = dpc_srm(top, dem, budgets_for(top, 1.0))
        assert report.subproblem_solves == top.num_cells
        assert len(calls) == 1

    def test_default_start_runs_no_step(self, monkeypatch):
        # the first sweep is stalled: its I solves are counted, none is run
        calls = []
        step = rate_max_network.solve_convex_subproblem

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(rate_max_network, "solve_convex_subproblem", counted)
        drops = 0
        for top, dem, budgets in paper_drops(range(10)):
            report = dpc_srm(top, dem, budgets)
            assert report.converged and report.outer_iterations == 1
            assert report.subproblem_solves == top.num_cells
            assert np.ptp(report.trace) == 0.0
            drops += 1
        assert drops >= 20 and calls == []

    def test_default_start_steps_return_their_start(self):
        # each cell's step at the default start's state, run through the
        # water-fill, returns that start and its objective bit for bit
        steps = 0
        for top, dem, budgets in paper_drops(range(10)):
            report = dpc_srm(top, dem, budgets)
            q, x = report.q, report.x
            consts = constants(top, dem)
            z = normalized_interference(top, q)
            h = network.suffix_max(z)
            caps = power_cap(top, q, x, z)
            warm = cell_objective(top, consts, q, x)
            for i in range(top.num_cells):
                out = solve_convex_subproblem(top, consts[i], i, x[i], caps[i],
                                              float(budgets[i]), q, h[i], warm[i])
                assert not out.improved
                assert np.array_equal(out.q_i, q[i]) and np.array_equal(out.x_i, x[i])
                assert out.objective_value == warm[i]
                steps += 1
        assert steps >= 60

    def test_the_stall_test_changes_no_report(self, monkeypatch):
        # with the stall test off, every sweep runs its steps; the reports
        # must be the same, from the default start and from random ones.
        # A single cell has no caps, so its default start steps as well
        runs = []
        for seed, (top, dem, budgets) in enumerate(paper_drops(range(10))):
            q0, x0 = random_feasible_start(top, dem, budgets, np.random.default_rng(seed))
            runs += [(top, dem, budgets, {}), (top, dem, budgets, {"q0": q0, "x0": x0})]
        config = ScenarioConfig(algorithm="rate-max", num_cells=1)
        for seed in range(3):
            top = generate_channels(config, seed)
            runs.append((top, build_demands(config, top), budgets_for(top, 1.0), {}))
        fields = ("q", "x", "trace", "converged", "outer_iterations",
                  "subproblem_solves", "diagnostic")
        reports = [dpc_srm(top, dem, budgets, **start)
                   for top, dem, budgets, start in runs]
        monkeypatch.setattr(rate_max_network, "_stalled", lambda *args: False)
        moved = 0
        for (top, dem, budgets, start), want in zip(runs, reports):
            got = dpc_srm(top, dem, budgets, **start)
            for name in fields:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert np.array_equal(got.allocation.powers, want.allocation.powers)
            moved += bool(np.ptp(want.trace) > 0.0)
        assert moved >= 10

    def test_stall_test_needs_every_condition(self):
        # the default start is stalled; breaking any one condition, with
        # the others kept, makes its sweep run the steps
        config = ScenarioConfig(seed=0, algorithm="rate-max")
        top = generate_channels(config, config.seed)
        dem = build_demands(config, top)
        consts = constants(top, dem)
        budgets = budgets_for(top, 1.0)              # the config's 30 dBm
        start = dpc_srm(top, dem, budgets)
        q, x = start.q, start.x
        z = normalized_interference(top, q)
        h = network.suffix_max(z)
        caps = power_cap(top, q, x, z)
        stalled = rate_max_network._stalled
        assert stalled(top, consts, budgets, q, x, h, caps)
        loose_cap = caps.copy()
        loose_cap[1, 0] = q[1, 0] * 1.001
        assert not stalled(top, consts, budgets, q, x, h, loose_cap)
        loose_proxy = x.copy()
        loose_proxy[0, 0, 0] *= 1.001          # a weak user's proxy above its floor
        assert not stalled(top, consts, budgets, q, loose_proxy, h, caps)
        short = q.copy()
        short[2, 1] = (consts.weights[2, 1] * x[2, 1]).sum() * (1.0 - 1e-6)
        assert not stalled(top, consts, budgets, short, x, h, np.minimum(caps, short))
        over = q.sum(axis=1) * (1.0 - 1e-6)
        assert not stalled(top, consts, over, q, x, h, caps)
        # at a start, which passed the coupling and budget checks, the
        # test reads only the caps and the proxies
        assert stalled(top, consts, over, short, x, h, np.minimum(caps, short), True)

    def test_loose_proxies_still_step(self):
        # caps at the start's totals, but proxies drawn above their floor:
        # the proxies can fall, so the step must run and improve
        config = ScenarioConfig(seed=0, algorithm="rate-max")
        top = generate_channels(config, config.seed)
        dem = build_demands(config, top)
        q0, x0 = random_feasible_start(top, dem, budgets_for(top, 1.0),
                                       np.random.default_rng(0))
        consts = constants(top, dem)
        h = dense_interference(top, q0)
        for i in range(top.num_cells):
            warm = cell_objective(top, consts, q0[i], x0[i], i)
            out = solve_convex_subproblem(top, consts[i], i, x0[i], q0[i].copy(),
                                          1.0, q0, h[i], warm)
            assert out.improved, i
            assert out.objective_value < warm
