import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_demands, sample_topology
from nomapower import (NetworkTopology, RateDemands, assemble_full_solution,
                       dpc_spm, solve_spm)
from nomapower.fixtures import symmetric_two_cell
from nomapower.oracle import (achievable_rate, effective_interference,
                              interference_over_gain, rate_constraint_slack,
                              reference_interference_map)
from nomapower.power_min import (demand_weights, interference_map,
                                 min_power_user_allocation)


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
        top, dem = symmetric_two_cell()
        f = interference_map(top, dem, np.array([[1.0], [1.0]]))
        assert f.ravel() == pytest.approx([1.0, 1.0])

    def test_noise_only(self):
        top, dem = symmetric_two_cell()
        f = interference_map(top, dem, np.zeros((2, 1)))
        assert f.ravel() == pytest.approx([0.4, 0.4])

    def test_agrees_with_closed_form_totals(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=(2, 4))
            dem = sample_demands(rng, top)
            q = rng.uniform(0.0, 2.0, size=(2, 2))
            f = interference_map(top, dem, q)
            for i, m in top.groups():
                h = effective_interference(top, q, i, m)
                p = min_power_user_allocation(dem.rates[i][m], h, top.bandwidth)
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
        top, dem = symmetric_two_cell()
        report = dpc_spm(top, dem)
        assert report.converged
        assert report.q_star == pytest.approx(np.ones((2, 1)), abs=1e-8)
        assert np.all(report.budget_feasible)
        assert report.residual <= 1e-8
        assert len(report.trace) == report.iterations

    def test_single_cell_converges_in_one_sweep(self):
        g = np.array([[0.5, 1.0]])
        from nomapower import NetworkTopology
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([5.0]), gains=((g,),))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_spm(top, dem)
        assert report.converged and report.iterations == 1

    def test_starting_points_agree(self):
        top, dem = symmetric_two_cell()
        tol = 1e-8
        from_zero = dpc_spm(top, dem, q0=np.zeros((2, 1)), tol=tol)
        from_budget = dpc_spm(top, dem, tol=tol)
        assert np.max(np.abs(from_zero.q_star - from_budget.q_star)) <= 2 * tol

    def test_trace_from_zero_is_non_decreasing(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            top = sample_topology(rng, num_cells=2, users=2)
            dem = sample_demands(rng, top)
            report = dpc_spm(top, dem, q0=np.zeros((2, 1)))
            assert report.converged
            assert np.all(np.diff(report.trace) >= -1e-12)

    def test_budget_infeasibility_is_flagged_not_raised(self):
        top, dem = symmetric_two_cell()
        small = type(top)(bandwidth=top.bandwidth, noise_power=top.noise_power,
                          budgets=np.array([0.5, 0.5]),
                          gains=tuple(tuple(g for g in row) for row in top.gains))
        report = dpc_spm(small, dem)
        assert report.converged            # the fixed point still exists
        assert not np.any(report.budget_feasible)
        assert not report.feasible

    def test_non_convergence_reported(self):
        # cross gains above own make the map expansive: no fixed point
        g0 = np.array([[1.0, 1.0], [3.0, 3.0]])
        g1 = np.array([[3.0, 3.0], [1.0, 1.0]])
        from nomapower import NetworkTopology
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([10.0, 10.0]),
                              gains=((g0,), (g1,)))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_spm(top, dem, max_iter=200)
        assert not report.converged

    def test_component_wise_minimality(self):
        rng = np.random.default_rng(15)
        top = sample_topology(rng, num_cells=2, users=2)
        dem = sample_demands(rng, top)
        report = dpc_spm(top, dem)
        assert report.converged
        q_star = report.q_star
        found = 0
        for _ in range(500):
            q_c = rng.uniform(0.0, 2.0 * float(q_star.max()), size=q_star.shape)
            f_c = interference_map(top, dem, q_c)
            if np.all(q_c >= f_c) and np.all(q_c.sum(axis=1) <= top.budgets):
                found += 1
                assert np.all(q_c >= q_star - 1e-9)
        assert found > 0

    def test_validates_arguments(self):
        top, dem = symmetric_two_cell()
        with pytest.raises(ValueError):
            dpc_spm(top, dem, tol=0.0)
        with pytest.raises(ValueError):
            dpc_spm(top, dem, q0=np.full((2, 1), -1.0))


def per_group_dpc_spm(top, dem, tol=1e-8, rel_tol=1e-10, max_iter=10_000):
    """dpc_spm's Gauss-Seidel iteration and stopping rule, one (i, m) group
    at a time."""
    def f(q, i, m):
        ratio = interference_over_gain(top, q, i, m)
        h = np.maximum.accumulate(ratio[::-1])[::-1]
        return demand_weights(dem.rates[i][m], top.bandwidth) @ h

    q = np.repeat(top.budgets[:, None] / top.num_subchannels,
                  top.num_subchannels, axis=1)
    converged = False
    for iterations in range(1, max_iter + 1):
        for i, m in top.groups():
            q[i, m] = f(q, i, m)
        if not np.all(np.isfinite(q)) or q.max() > 1e9 * top.budgets.max():
            break
        mapped = reference_interference_map(top, dem, q)
        if (np.max(np.abs(q - mapped)) <= tol
                and abs(q.sum() - mapped.sum()) / q.sum() <= rel_tol):
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
            report = dpc_spm(top, dem)
            q, iterations, converged = per_group_dpc_spm(top, dem)
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
            top = sample_topology(rng, num_cells=int(rng.integers(2, 5)),
                                  num_subchannels=int(rng.integers(1, 4)),
                                  users=(1, 5), cross_ratio=(0.02, 0.2),
                                  budget=float(rng.uniform(0.5, 5.0)))
            sizes.update(top.group_size(i, m) for i, m in top.groups())
            dem = sample_demands(rng, top)
            reference = dpc_spm(top, dem)
            exact = solve_spm(top, dem)
            outcomes.add((reference.converged, reference.feasible))
            if not reference.converged:
                # dpc_spm ran away; there is no fixed point to find
                assert not exact.converged
                continue
            assert exact.converged
            assert exact.feasible == reference.feasible
            np.testing.assert_array_equal(exact.budget_feasible,
                                          reference.budget_feasible)
            # dpc_spm stops at a residual of 1e-8, up to (I - A)^-1 * 1e-8 from q*
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
            if np.all(q_c >= f_c) and np.all(q_c.sum(axis=1) <= top.budgets):
                found += 1
                assert np.all(q_c >= q_star - 1e-9)
        assert found > 0

    def test_no_fixed_point_is_certified_after_one_solve(self):
        # cross gains above own make the map expansive: no fixed point
        g0 = np.array([[1.0, 1.0], [3.0, 3.0]])
        g1 = np.array([[3.0, 3.0], [1.0, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([10.0, 10.0]),
                              gains=((g0,), (g1,)))
        report = solve_spm(top, RateDemands.uniform(top, 1.0))
        assert not report.converged
        assert report.iterations == 1
        assert not report.feasible

    def test_over_budget_fixed_point_still_converges(self):
        top, dem = symmetric_two_cell()
        small = NetworkTopology(bandwidth=top.bandwidth,
                                noise_power=top.noise_power,
                                budgets=np.array([0.5, 0.5]), gains=top.gains)
        report = solve_spm(small, dem)
        assert report.converged
        assert report.q_star == pytest.approx(np.ones((2, 1)), rel=1e-12)
        assert not np.any(report.budget_feasible)
        assert not report.feasible

    def test_near_singular_coupling(self):
        # the symmetric fixture with cross gains of 0.333 x own: the map is
        # q = 0.999 q' + 0.4, with its fixed point at 400 W per cell
        own = np.array([0.5, 1.0])
        group0 = np.array([own, 0.333 * own])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([1000.0, 1000.0]),
                              gains=((group0,), (group0[::-1],)))
        dem = RateDemands.uniform(top, 1.0)
        assert not dpc_spm(top, dem, max_iter=200).converged
        report = solve_spm(top, dem)
        assert report.converged and report.feasible
        assert report.q_star.ravel() == pytest.approx([400.0, 400.0], rel=1e-9)

    def test_empty_group_carries_no_power(self):
        # an empty group adds a zero row to b; that is no certificate
        g0 = np.array([[0.5, 1.0], [0.1, 0.2]])
        g3 = np.array([[0.1, 0.2], [0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([5.0, 5.0]),
                              gains=((g0, np.zeros((2, 0))),
                                     (np.array([[0.1], [0.5]]), g3)))
        dem = RateDemands.uniform(top, 1.0)
        report = solve_spm(top, dem)
        assert report.converged and report.feasible
        assert report.q_star[0, 1] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(report.q_star, dpc_spm(top, dem).q_star,
                                   rtol=1e-8, atol=0.0)

    def test_validates_arguments(self):
        top, dem = symmetric_two_cell()
        with pytest.raises(ValueError):
            solve_spm(top, dem, max_iter=0)


class TestAssemble:
    def test_symmetric_fixture_powers(self):
        top, dem = symmetric_two_cell()
        report = dpc_spm(top, dem)
        alloc = assemble_full_solution(top, dem, report.q_star)
        for i in range(2):
            assert alloc.powers[i][0] == pytest.approx([0.7, 0.3], abs=1e-7)
        np.testing.assert_allclose(alloc.cell_powers(), report.q_star,
                                   rtol=1e-7, atol=0)

    def test_single_cell_noise_only(self):
        g = np.array([[0.5, 1.0]])
        from nomapower import NetworkTopology
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([5.0]), gains=((g,),))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_spm(top, dem)
        alloc = assemble_full_solution(top, dem, report.q_star)
        assert alloc.powers[0][0] == pytest.approx([0.3, 0.1])
        assert report.q_star[0, 0] == pytest.approx(0.4)

    def test_vanishing_demand_limit(self):
        top, _ = symmetric_two_cell()
        dem = RateDemands.uniform(top, 1e-9)
        report = dpc_spm(top, dem)
        alloc = assemble_full_solution(top, dem, report.q_star)
        assert float(alloc.cell_powers().sum()) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_non_fixed_points(self):
        top, dem = symmetric_two_cell()
        with pytest.raises(ValueError, match="not a fixed point"):
            assemble_full_solution(top, dem, np.array([[2.0], [2.0]]))

    def test_rates_meet_demands_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=(2, 4))
            dem = sample_demands(rng, top)
            report = dpc_spm(top, dem)
            assert report.converged
            alloc = assemble_full_solution(top, dem, report.q_star)
            for i, m in top.groups():
                rates = achievable_rate(top, alloc, report.q_star, i, m)
                assert rates == pytest.approx(dem.rates[i][m], rel=1e-9)
