import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import budgets_for, sample_demands, sample_topology
from nomapower import (NetworkTopology, RateDemands, ScenarioConfig,
                       assemble_full_solution, build_demands, dpc_spm,
                       generate_channels, network, power_min, solve_spm)
from nomapower.fixtures import symmetric_two_cell
from nomapower.network import unpad
from nomapower.oracle import (demand_weights, interference_over_gain,
                              rate_constraint_slack, rate_via_decoding_chain,
                              reference_interference_map)
from nomapower.power_min import (REL_TOL, RUNAWAY_FACTOR, interference_map,
                                 min_power_user_allocation, within_budgets)


class TestClosedForm:
    def test_two_user_worked_example(self):
        p = min_power_user_allocation(np.array([1.0, 1.0]), np.array([3.0, 1.0]), 1.0)
        assert p == pytest.approx([4.0, 1.0])
        assert p.sum() == pytest.approx(5.0)

    def test_three_user_worked_example_exact(self):
        p = min_power_user_allocation(np.array([1.0, 1.0, 1.0]),
                                      np.array([7.0, 3.0, 1.0]), 1.0)
        assert list(p) == [12.0, 4.0, 1.0]

    def test_single_user(self):
        p = min_power_user_allocation(np.array([1.0]), np.array([2.0]), 1.0)
        assert p == pytest.approx([2.0])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_all_constraints_tight_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        demands = rng.uniform(0.1, 2.0, size=n)
        h = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
        bw = float(rng.uniform(0.5, 2.0))
        p = min_power_user_allocation(demands, h, bw)
        assert np.all(p > 0)
        slack = rate_constraint_slack(p, h, demands, bw)
        assert np.all(np.abs(slack) <= 1e-9 * np.maximum(p, 1e-12))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equal_demands_give_strictly_decreasing_powers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        h = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
        # distinct interference values make the ordering strict
        h += np.arange(n)[::-1] * 1e-3
        p = min_power_user_allocation(np.full(n, 0.7), h, 1.0)
        assert np.all(np.diff(p) < 0)

    def test_weights_match_group_total(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            demands = rng.uniform(0.1, 2.0, size=n)
            h = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
            w = demand_weights(demands, 1.0)
            p = min_power_user_allocation(demands, h, 1.0)
            assert w @ h == pytest.approx(p.sum(), rel=1e-12)


class TestInterferenceMap:
    def test_symmetric_example(self):
        top, dem, _ = symmetric_two_cell()
        f = interference_map(top, dem, np.array([[1.0], [1.0]]))
        assert f.ravel() == pytest.approx([1.0, 1.0])

    def test_noise_only(self):
        top, dem, _ = symmetric_two_cell()
        f = interference_map(top, dem, np.zeros((2, 1)))
        assert f.ravel() == pytest.approx([0.4, 0.4])

    def test_agrees_with_closed_form_totals(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=(2, 4))
            dem = sample_demands(rng, top)
            q = rng.uniform(0.0, 2.0, size=(2, 2))
            f = interference_map(top, dem, q)
            rates = unpad(dem.rates, top.occupied)
            for i, m in top.groups():
                h = np.maximum.accumulate(
                    interference_over_gain(top, q, i, m)[::-1])[::-1]
                p = min_power_user_allocation(rates[i][m], h, top.bandwidth)
                assert f[i, m] == pytest.approx(p.sum(), rel=1e-12)

    def test_standard_function_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            top = sample_topology(rng, num_cells=3, num_subchannels=1, users=2)
            dem = sample_demands(rng, top)
            q1 = rng.uniform(0.0, 2.0, size=(3, 1))
            q2 = q1 * rng.uniform(0.0, 1.0, size=(3, 1))
            lam = rng.uniform(1.0 + 1e-9, 10.0)
            f1 = interference_map(top, dem, q1)
            assert np.all(f1 > 0)
            assert np.all(f1 >= interference_map(top, dem, q2))
            assert np.all(lam * f1 > interference_map(top, dem, lam * q1))


class TestFixedPoint:
    def test_symmetric_instance_converges_to_one(self):
        top, dem, budgets = symmetric_two_cell()
        report = dpc_spm(top, dem, budgets)
        assert report.converged
        assert report.q_star == pytest.approx(np.ones((2, 1)), abs=1e-8)
        assert np.all(within_budgets(budgets, report.q_star))
        assert report.residual <= 1e-8
        assert len(report.trace) == report.iterations

    def test_single_cell_converges_in_one_sweep(self):
        g = np.array([[0.5, 1.0]])
        from nomapower import NetworkTopology
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,),))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_spm(top, dem, np.array([5.0]))
        assert report.converged and report.iterations == 1

    def test_starting_points_agree(self):
        top, dem, budgets = symmetric_two_cell()
        from_zero = dpc_spm(top, dem, budgets, q0=np.zeros((2, 1)))
        from_budget = dpc_spm(top, dem, budgets)
        # each run stops at sum |q - f(q)| <= REL_TOL * sum q, so it is off
        # q* by at most ||(I - A)^-1||_1 = 2.5 times that (A = [[0, .6], [.6, 0]])
        gap = np.abs(from_zero.q_star - from_budget.q_star).sum()
        assert gap <= 5 * REL_TOL * from_budget.q_star.sum()

    def test_trace_from_zero_is_non_decreasing(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            top = sample_topology(rng, num_cells=2, users=2)
            dem = sample_demands(rng, top)
            report = dpc_spm(top, dem, budgets_for(top), q0=np.zeros((2, 1)))
            assert report.converged
            assert np.all(np.diff(report.trace) >= -1e-12)

    def test_budget_infeasibility_is_flagged_not_raised(self):
        top, dem, _ = symmetric_two_cell()
        small = np.array([0.5, 0.5])
        report = dpc_spm(top, dem, small)
        assert report.converged            # the fixed point still exists
        assert not np.any(within_budgets(small, report.q_star))
        assert not report.fits(small)

    def test_non_convergence_reported(self):
        # cross gains above own make the map expansive: no fixed point
        g0 = np.array([[1.0, 1.0], [3.0, 3.0]])
        g1 = np.array([[3.0, 3.0], [1.0, 1.0]])
        from nomapower import NetworkTopology
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_spm(top, dem, np.array([10.0, 10.0]), max_iter=200)
        assert not report.converged

    def test_component_wise_minimality(self):
        rng = np.random.default_rng(15)
        top = sample_topology(rng, num_cells=2, users=2)
        dem = sample_demands(rng, top)
        report = dpc_spm(top, dem, budgets_for(top))
        assert report.converged
        q_star = report.q_star
        found = 0
        for _ in range(500):
            q_c = rng.uniform(0.0, 2.0 * float(q_star.max()), size=q_star.shape)
            f_c = interference_map(top, dem, q_c)
            if np.all(q_c >= f_c) and np.all(q_c.sum(axis=1) <= budgets_for(top)):
                found += 1
                assert np.all(q_c >= q_star - 1e-9)
        assert found > 0

    def test_validates_arguments(self):
        top, dem, budgets = symmetric_two_cell()
        with pytest.raises(ValueError):
            dpc_spm(top, dem, budgets, max_iter=0)
        with pytest.raises(ValueError):
            dpc_spm(top, dem, budgets, q0=np.full((2, 1), -1.0))
        with pytest.raises(ValueError, match="wrong shape"):
            dpc_spm(top, dem, budgets, q0=np.ones((1, 1)))


def per_group_dpc_spm(top, dem, budgets, max_iter=10_000):
    """dpc_spm's Gauss-Seidel iteration and stopping rule, one (i, m) group
    at a time."""
    rates = unpad(dem.rates, top.occupied)

    def f(q, i, m):
        ratio = interference_over_gain(top, q, i, m)
        h = np.maximum.accumulate(ratio[::-1])[::-1]
        return demand_weights(rates[i][m], top.bandwidth) @ h

    q = np.repeat(budgets[:, None] / top.num_subchannels,
                  top.num_subchannels, axis=1)
    converged = False
    for iterations in range(1, max_iter + 1):
        for i, m in top.groups():
            q[i, m] = f(q, i, m)
        if not np.all(np.isfinite(q)) or q.max() > RUNAWAY_FACTOR * budgets.max():
            break
        mapped = reference_interference_map(top, dem, q)
        if np.abs(q - mapped).sum() <= REL_TOL * q.sum():
            converged = True
            break
    return q, iterations, converged


class TestSweepOrder:
    def test_by_cell_sweep_matches_per_group_order(self):
        rng = np.random.default_rng(71)
        outcomes = set()
        for _ in range(15):
            top = sample_topology(rng, num_cells=3, num_subchannels=3,
                                  users=(1, 4), cross_ratio=(0.05, 0.4))
            dem = sample_demands(rng, top)
            report = dpc_spm(top, dem, budgets_for(top))
            q, iterations, converged = per_group_dpc_spm(top, dem, budgets_for(top))
            assert report.converged == converged
            assert report.iterations == iterations
            np.testing.assert_allclose(report.q_star, q, rtol=1e-12, atol=0.0)
            outcomes.add(converged)
        assert outcomes == {True, False}     # both exits are exercised


class TestSolveSpm:
    """The exact least fixed point against the distributed sweep."""

    def test_agrees_with_dpc_spm_on_random_instances(self):
        rng = np.random.default_rng(81)
        outcomes = set()
        sizes = set()
        for _ in range(40):
            cells, subchannels = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            budget = float(rng.uniform(0.5, 5.0))
            top = sample_topology(rng, num_cells=cells, num_subchannels=subchannels,
                                  users=(1, 5), cross_ratio=(0.02, 0.2))
            budgets = budgets_for(top, budget)
            sizes.update(top.occupied[i, m].sum() for i, m in top.groups())
            dem = sample_demands(rng, top)
            reference = dpc_spm(top, dem, budgets)
            exact = solve_spm(top, dem)
            outcomes.add((reference.converged, reference.fits(budgets)))
            if not reference.converged:
                # dpc_spm ran away; there is no fixed point to find
                assert not exact.converged
                continue
            assert exact.converged
            assert exact.fits(budgets) == reference.fits(budgets)
            np.testing.assert_array_equal(within_budgets(budgets, exact.q_star),
                                          within_budgets(budgets, reference.q_star))
            # dpc_spm stops at sum |q - f(q)| <= REL_TOL * sum q, up to
            # (I - A)^-1 times that from q*
            np.testing.assert_allclose(exact.q_star, reference.q_star,
                                       rtol=1e-7, atol=0.0)
        assert outcomes == {(True, True), (True, False), (False, False)}
        assert sizes == {1, 2, 3, 4}

    def test_residual_is_at_rounding_level(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            top = sample_topology(rng, num_cells=3, num_subchannels=2,
                                  users=(1, 5))
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            report = solve_spm(top, dem)
            assert report.converged
            q = report.q_star
            assert report.residual <= 1e-12 * q.max()
            np.testing.assert_allclose(reference_interference_map(top, dem, q), q,
                                       rtol=1e-12, atol=0.0)

    def test_one_solve_evaluates_the_interference_once(self, monkeypatch):
        # z at q = 0 is the noise ratio, and the residual reads the z that
        # confirmed the last choice, so a drop settled by one solve
        # evaluates the interference once
        config = ScenarioConfig(seed=0)
        top = generate_channels(config, 0)
        dem = build_demands(config, top)
        calls = []
        evaluate = network.normalized_interference
        # every module that bound it by name counts, dense_interference's too
        bound = [module for name, module in sys.modules.items()
                 if name.split(".")[0] == "nomapower"
                 and getattr(module, "normalized_interference", None) is evaluate]
        assert network in bound and power_min in bound
        for module in bound:
            monkeypatch.setattr(module, "normalized_interference",
                                lambda *args: calls.append(args) or evaluate(*args))
        report = solve_spm(top, dem)
        assert len(calls) == 1
        assert report.converged and report.iterations == 1
        q = report.q_star
        assert report.trace.tolist() == [q.sum()]
        # the residual a separate evaluation of f gives, to the last bit
        monkeypatch.undo()
        assert report.residual == float(np.abs(q - interference_map(top, dem, q)).max())

    def test_trace_is_non_decreasing(self):
        rng = np.random.default_rng(83)
        solves = set()
        for _ in range(30):
            top = sample_topology(rng, num_cells=3, num_subchannels=2,
                                  users=(1, 5), cross_ratio=(0.02, 0.3))
            report = solve_spm(top, sample_demands(rng, top, rate=(0.2, 0.6)))
            assert report.converged
            assert len(report.trace) == report.iterations
            assert np.all(np.diff(report.trace) >= 0.0)
            solves.add(report.iterations)
        assert max(solves) >= 2

    def test_component_wise_minimality(self):
        rng = np.random.default_rng(15)
        top = sample_topology(rng, num_cells=2, users=2)
        dem = sample_demands(rng, top)
        report = solve_spm(top, dem)
        assert report.converged
        q_star = report.q_star
        found = 0
        for _ in range(500):
            q_c = rng.uniform(0.0, 2.0 * float(q_star.max()), size=q_star.shape)
            f_c = interference_map(top, dem, q_c)
            if np.all(q_c >= f_c) and np.all(q_c.sum(axis=1) <= budgets_for(top)):
                found += 1
                assert np.all(q_c >= q_star - 1e-9)
        assert found > 0

    def test_no_fixed_point_is_certified_after_one_solve(self):
        # cross gains above own make the map expansive: no fixed point
        g0 = np.array([[1.0, 1.0], [3.0, 3.0]])
        g1 = np.array([[3.0, 3.0], [1.0, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))
        report = solve_spm(top, RateDemands.uniform(top, 1.0))
        assert not report.converged
        assert report.iterations == 1
        assert not report.fits(np.array([10.0, 10.0]))

    def test_singular_coupling_is_certified(self):
        # one user per cell, cross gain equal to own and a demand weight of
        # 2 ** (1 / 1) - 1 = 1, so I - A = [[1, -1], [-1, 1]] is exactly
        # singular and the linear solve itself raises
        g = np.array([[1.0], [1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,), (g,)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(2) - top.cross_ratio[:, 0, 0], np.ones(2))
        report = solve_spm(top, RateDemands.uniform(top, 1.0))
        assert not report.converged and report.iterations == 1
        assert np.all(report.q_star == np.inf) and report.residual == np.inf

    def test_over_budget_fixed_point_still_converges(self):
        top, dem, _ = symmetric_two_cell()
        small = np.array([0.5, 0.5])
        report = solve_spm(top, dem)
        assert report.converged
        assert report.q_star == pytest.approx(np.ones((2, 1)), rel=1e-12)
        assert not np.any(within_budgets(small, report.q_star))
        assert not report.fits(small)

    def test_near_singular_coupling(self):
        # the symmetric fixture with cross gains of 0.333 x own: the map is
        # q = 0.999 q' + 0.4, with its fixed point at 400 W per cell
        own = np.array([0.5, 1.0])
        group0 = np.array([own, 0.333 * own])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              gains=((group0,), (group0[::-1],)))
        dem = RateDemands.uniform(top, 1.0)
        budgets = np.array([1000.0, 1000.0])
        assert not dpc_spm(top, dem, budgets, max_iter=200).converged
        report = solve_spm(top, dem)
        assert report.fits(budgets)
        assert report.q_star.ravel() == pytest.approx([400.0, 400.0], rel=1e-9)

    def test_empty_group_carries_no_power(self):
        # an empty group adds a zero row to b; that is no certificate
        g0 = np.array([[0.5, 1.0], [0.1, 0.2]])
        g3 = np.array([[0.1, 0.2], [0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              gains=((g0, np.zeros((2, 0))),
                                     (np.array([[0.1], [0.5]]), g3)))
        dem = RateDemands.uniform(top, 1.0)
        budgets = np.array([5.0, 5.0])
        report = solve_spm(top, dem)
        assert report.fits(budgets)
        assert report.q_star[0, 1] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(report.q_star, dpc_spm(top, dem, budgets).q_star,
                                   rtol=1e-8, atol=0.0)

    def test_max_iter_stops_before_the_choice_repeats(self):
        # the strong user of cell 0 takes 0.2 of BS 1's power against the
        # weak user's 0.001, so once q rises its interference overtakes the
        # weak user's and the decoding choice of the first solve changes
        g0 = np.array([[0.5, 1.0], [0.001, 0.2]])
        g1 = np.array([[0.1, 0.2], [0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))
        dem = RateDemands.uniform(top, 1.0)
        full = solve_spm(top, dem)
        assert full.converged and full.iterations == 2
        assert full.q_star.ravel() == pytest.approx([27 / 32, 29 / 32], rel=1e-12)
        report = solve_spm(top, dem, max_iter=1)
        assert not report.converged and report.iterations == 1
        assert np.all(report.q_star < full.q_star)

    def test_validates_arguments(self):
        top, dem, _ = symmetric_two_cell()
        with pytest.raises(ValueError):
            solve_spm(top, dem, max_iter=0)


class TestAssemble:
    def test_symmetric_fixture_powers(self):
        top, dem, budgets = symmetric_two_cell()
        report = dpc_spm(top, dem, budgets)
        alloc = assemble_full_solution(top, dem, report.q_star)
        for i in range(2):
            assert alloc.powers[i][0] == pytest.approx([0.7, 0.3], abs=1e-7)
        np.testing.assert_allclose(alloc.cell_powers(), report.q_star,
                                   rtol=1e-7, atol=0)

    def test_single_cell_noise_only(self):
        g = np.array([[0.5, 1.0]])
        from nomapower import NetworkTopology
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,),))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_spm(top, dem, np.array([5.0]))
        alloc = assemble_full_solution(top, dem, report.q_star)
        assert alloc.powers[0][0] == pytest.approx([0.3, 0.1])
        assert report.q_star[0, 0] == pytest.approx(0.4)

    def test_vanishing_demand_limit(self):
        top, _, budgets = symmetric_two_cell()
        dem = RateDemands.uniform(top, 1e-9)
        report = dpc_spm(top, dem, budgets)
        alloc = assemble_full_solution(top, dem, report.q_star)
        assert float(alloc.cell_powers().sum()) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_non_fixed_points(self):
        top, dem, _ = symmetric_two_cell()
        with pytest.raises(ValueError, match="not a fixed point"):
            assemble_full_solution(top, dem, np.array([[2.0], [2.0]]))

    def test_rejects_one_group_off_by_a_thousandth_at_paper_scale(self):
        config = ScenarioConfig()
        top = generate_channels(config, 0)
        dem = build_demands(config, top)
        q_star = solve_spm(top, dem).q_star
        assemble_full_solution(top, dem, q_star)
        budgets = np.full(top.num_cells, 1.0)       # the config's 30 dBm
        assemble_full_solution(top, dem, dpc_spm(top, dem, budgets).q_star)
        for group in np.ndindex(q_star.shape):
            off = q_star.copy()
            off[group] *= 1.0 + 1e-3
            with pytest.raises(ValueError, match="not a fixed point"):
                assemble_full_solution(top, dem, off)
        # solve_spm's q_star when it certifies that no fixed point exists
        with pytest.raises(ValueError, match="not a fixed point"):
            assemble_full_solution(top, dem, np.full_like(q_star, np.inf))

    def test_rates_meet_demands_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=(2, 4))
            dem = sample_demands(rng, top)
            report = dpc_spm(top, dem, budgets_for(top))
            assert report.converged
            alloc = assemble_full_solution(top, dem, report.q_star)
            wanted = unpad(dem.rates, top.occupied)
            for i, m in top.groups():
                rates = rate_via_decoding_chain(top, alloc, report.q_star, i, m)
                assert rates == pytest.approx(wanted[i][m], rel=1e-9)
