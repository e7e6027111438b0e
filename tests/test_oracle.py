import numpy as np
import pytest

from conftest import budgets_for, sample_demands, sample_topology
from nomapower import NetworkTopology, RateDemands, random_feasible_start
from nomapower.fixtures import symmetric_two_cell
from nomapower.network import (dense_interference, group_rates,
                               normalized_interference, unpad)
from nomapower.oracle import (OracleInfeasibleError, fd_hessian_psd,
                              grid_budget_split, grid_power_min,
                              grid_rate_max_group, minimal_group_powers,
                              optimal_single_cell_rate,
                              reference_interference_map,
                              standard_function_probe)
from nomapower.power_min import (_GroupConstants, interference_map,
                                 min_power_user_allocation)
from nomapower.rate_max_network import (cell_objective, power_cap,
                                        solve_convex_subproblem)


class TestReferenceInterferenceMap:
    """The dense interference map against explicit per-user loops."""

    @staticmethod
    def assert_maps_agree(top, dem, q):
        np.testing.assert_allclose(interference_map(top, dem, q),
                                   reference_interference_map(top, dem, q),
                                   rtol=1e-12, atol=0.0)

    def test_ragged_groups_exercise_the_padding(self):
        rng = np.random.default_rng(61)
        sizes = set()
        for _ in range(40):
            top = sample_topology(rng, num_cells=3, num_subchannels=3,
                                  users=(1, 5))
            sizes.update(top.occupied[i, m].sum() for i, m in top.groups())
            dem = sample_demands(rng, top)
            self.assert_maps_agree(top, dem, rng.uniform(0.0, 2.0, size=(3, 3)))
        assert sizes == {1, 2, 3, 4}

    def test_zero_cross_gains(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            top = sample_topology(rng, num_cells=3, num_subchannels=2,
                                  users=(1, 5), cross_ratio=(0.0, 0.0))
            dem = sample_demands(rng, top)
            q = rng.uniform(0.0, 2.0, size=(3, 2))
            self.assert_maps_agree(top, dem, q)
            # no coupling: the map is the noise-only map
            np.testing.assert_allclose(interference_map(top, dem, q),
                                       interference_map(top, dem, np.zeros((3, 2))),
                                       rtol=1e-15, atol=0.0)
            # some cross gains zero, the others not
            mixed = sample_topology(rng, num_cells=3, num_subchannels=2,
                                    users=(1, 5), cross_ratio=(0.05, 0.3))
            gains = tuple(
                tuple(np.where((np.arange(3)[:, None] != i)
                               & (rng.random(g.shape) < 0.5), 0.0, g)
                      for g in row)
                for i, row in enumerate(unpad(mixed.gains, mixed.occupied)))
            mixed = NetworkTopology(bandwidth=mixed.bandwidth,
                                    noise_power=mixed.noise_power, gains=gains)
            self.assert_maps_agree(mixed, sample_demands(rng, mixed), q)

    def test_single_cell(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            top = sample_topology(rng, num_cells=1, num_subchannels=3,
                                  users=(1, 5))
            dem = sample_demands(rng, top)
            self.assert_maps_agree(top, dem, rng.uniform(0.0, 2.0, size=(1, 3)))


class TestGridPowerMin:
    def test_symmetric_fixture_within_grid_error(self):
        top, dem, budgets = symmetric_two_cell()
        result = grid_power_min(top, dem, budgets, resolution=0.01)
        assert result.total_power <= 2.0 + 2 * 0.01 * 2
        assert result.total_power >= 2.0 - 1e-9      # cannot beat the optimum

    def test_single_cell_matches_closed_form(self):
        g = np.array([[0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,),))
        dem = RateDemands.uniform(top, 1.0)
        result = grid_power_min(top, dem, np.array([2.0]), resolution=0.001)
        assert result.total_power == pytest.approx(0.4, abs=0.001)

    def test_linear_solve_route_matches_recursion(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            demands = rng.uniform(0.1, 1.5, size=n)
            h = np.sort(rng.uniform(0.05, 4.0, size=n))[::-1]
            direct = minimal_group_powers(demands, h, 1.0)[0]
            recursive = min_power_user_allocation(demands, h, 1.0)
            assert direct == pytest.approx(recursive, rel=1e-10)

    def test_infeasible_demands_report_none_found(self):
        top, _, budgets = symmetric_two_cell()
        dem = RateDemands.uniform(top, 30.0)     # needs astronomic power
        with pytest.raises(OracleInfeasibleError, match="none found"):
            grid_power_min(top, dem, budgets, resolution=0.05)

    def test_refuses_large_instances(self):
        rng = np.random.default_rng(42)
        top = sample_topology(rng, num_cells=3, users=2)
        dem = sample_demands(rng, top)
        with pytest.raises(ValueError, match="at most 2 cells"):
            grid_power_min(top, dem, budgets_for(top), resolution=0.1)
        top2 = sample_topology(rng, num_cells=2, users=4)
        dem2 = sample_demands(rng, top2)
        with pytest.raises(ValueError, match="3 users"):
            grid_power_min(top2, dem2, budgets_for(top2), resolution=0.1)
        top3, dem3, budgets3 = symmetric_two_cell()
        with pytest.raises(ValueError, match="cap"):
            grid_power_min(top3, dem3, budgets3, resolution=1e-6)


class TestGridRateMax:
    def test_two_user_worked_example(self):
        best = grid_rate_max_group(np.array([1.0, 1.0]), np.array([2.0, 1.0]),
                                   10.0, resolution=0.01)
        assert best.sum_rate == pytest.approx(1.0 + np.log2(5.0), abs=1e-3)

    def test_three_user_worked_example(self):
        best = grid_rate_max_group(np.array([1.0, 1.0, 0.5]),
                                   np.array([7.0, 3.0, 1.0]), 20.0,
                                   resolution=0.05)
        assert best.sum_rate == pytest.approx(2.0 + np.log2(2.75), abs=2e-3)
        assert best.sum_rate <= 2.0 + np.log2(2.75) + 1e-9

    def test_boundary_has_unique_split(self):
        best = grid_rate_max_group(np.array([1.0, 1.0]), np.array([2.0, 1.0]),
                                   4.0, resolution=0.01)
        assert best.powers == pytest.approx([3.0, 1.0])
        assert best.sum_rate == pytest.approx(2.0, rel=1e-9)

    def test_infeasible_total_power_agrees_with_feasibility_test(self):
        demands = np.array([1.0, 1.0])
        h = np.array([2.0, 1.0])
        assert 3.5 < minimal_group_powers(demands, h, 1.0).sum()
        with pytest.raises(OracleInfeasibleError):
            grid_rate_max_group(demands, h, 3.5, resolution=0.01)

    def test_never_beats_the_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            demands = rng.uniform(0.2, 1.0, size=n)
            h = np.sort(rng.uniform(0.3, 3.0, size=n))[::-1]
            q = minimal_group_powers(demands, h, 1.0).sum() * rng.uniform(1.1, 3.0)
            best = grid_rate_max_group(demands, h, q, resolution=q / 150)
            closed = optimal_single_cell_rate(demands, h, q, 1.0)
            assert best.sum_rate <= closed + 1e-9


class TestGridBudgetSplit:
    def test_exact_step_never_loses_to_the_scan(self):
        rng = np.random.default_rng(47)
        solves = budget_binding = finite_caps = infinite_caps = 0
        while solves < 120:
            cells = int(rng.integers(1, 3))
            M = int(rng.integers(1, 3))
            budget = float(rng.uniform(2.0, 6.0))
            top = sample_topology(rng, num_cells=cells, num_subchannels=M,
                                  users=(1, 4))
            dem = sample_demands(rng, top, rate=(0.2, 0.8))
            q0, x0 = random_feasible_start(top, dem, budgets_for(top, budget), rng)
            for i in range(cells):
                caps = power_cap(top, q0, x0, normalized_interference(top, q0))[i]
                consts = _GroupConstants.build(dem.rates, top.bandwidth)
                step = solve_convex_subproblem(
                    top, consts[i], i, x0[i], caps, budget, q0,
                    dense_interference(top, q0)[i],
                    cell_objective(top, consts, q0[i], x0[i], i))
                grid = grid_budget_split(top, dem, i, caps, budget, q0)
                # the exact bits the step stores as its proxies
                h = dense_interference(top, q0)
                rate = 0.0
                for m in range(M):
                    users = top.occupied[i, m]
                    lb = h[i, m, users]
                    rate += optimal_single_cell_rate(dem.rates[i, m, users], lb,
                                                     step.q_i[m], top.bandwidth)
                    if step.improved:
                        assert np.array_equal(step.x_i[m, users], lb)
                assert grid.sum_rate - rate <= 1e-12 * grid.sum_rate
                assert rate - grid.sum_rate <= grid.bound + 1e-12 * grid.sum_rate
                if step.improved:
                    assert -step.objective_value == pytest.approx(rate, rel=1e-12)
                assert step.q_i.sum() <= budget * (1 + 1e-12)
                assert np.all(step.q_i <= np.maximum(caps, q0[i]) * (1 + 1e-12))
                solves += 1
                budget_binding += np.minimum(np.maximum(caps, q0[i]),
                                             budget).sum() > budget
                finite_caps += int(np.isfinite(caps).sum())
                infinite_caps += int(np.isinf(caps).sum())
        assert 0 < budget_binding < solves
        assert finite_caps > 0 and infinite_caps > 0

    def test_refuses_more_than_two_subchannels(self):
        rng = np.random.default_rng(48)
        top = sample_topology(rng, num_cells=1, num_subchannels=3, users=2)
        dem = sample_demands(rng, top, rate=(0.2, 0.4))
        budget = 3.0
        q = np.full((1, 3), 0.9 * budget / 3)
        with pytest.raises(ValueError, match="at most 2 subchannels"):
            grid_budget_split(top, dem, 0, np.full(3, np.inf), budget, q)


def negative_sum_rate(h, bandwidth=1.0):
    def objective(p):
        return -float(group_rates(p, h, bandwidth).sum())
    return objective


class TestFdHessian:
    def test_two_user_group_is_psd(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            h = np.sort(rng.uniform(0.3, 3.0, size=2))[::-1]
            p = rng.uniform(0.5, 3.0, size=2)
            report = fd_hessian_psd(negative_sum_rate(h), p)
            assert report.psd
            assert np.all(report.minors >= -1e-6)

    def test_single_user_positive_curvature(self):
        report = fd_hessian_psd(negative_sum_rate(np.array([1.5])),
                                np.array([2.0]))
        assert report.hessian[0, 0] > 0
        assert report.psd

    def test_hessian_rows_share_entries_past_the_diagonal(self):
        rng = np.random.default_rng(45)
        h = np.array([3.0, 1.7, 0.6])
        p = rng.uniform(0.8, 2.0, size=3)
        report = fd_hessian_psd(negative_sum_rate(h), p)
        hess = report.hessian
        scale = np.max(np.abs(hess))
        for j in range(3):
            for l in range(j, 3):
                assert abs(hess[j, l] - hess[j, j]) <= 1e-5 * scale

    def test_minor_product_structure(self):
        # leading minors factor as a_1 * prod(a_l - a_{l-1}) with a_l the
        # diagonal entries; a larger step keeps rounding noise below the
        # structural tolerance
        h = np.array([3.0, 1.5, 0.5])
        p = np.array([2.0, 1.0, 0.8])
        report = fd_hessian_psd(negative_sum_rate(h), p, step=2e-3)
        diag = np.diag(report.hessian)
        for t in range(1, 4):
            predicted = diag[0] * np.prod(diag[1:t] - diag[0:t - 1])
            assert report.minors[t - 1] == pytest.approx(
                predicted, rel=1e-6, abs=1e-6 * max(abs(predicted), 1e-12))

    def test_tiny_step_raises_with_advice(self):
        h = np.array([2.0, 1.0])
        with pytest.raises(ValueError, match="increase the step"):
            fd_hessian_psd(negative_sum_rate(h), np.array([1.0, 1.0]),
                           step=2e-13)


class TestStandardFunctionProbe:
    def test_interference_map_has_no_counterexamples(self):
        rng = np.random.default_rng(46)
        top = sample_topology(rng, num_cells=2, users=2)
        dem = sample_demands(rng, top)
        report = standard_function_probe(
            lambda q: interference_map(top, dem, q), (2, 1),
            trials=200, seed=7)
        assert report.passed and report.trials == 200

    def test_identity_map_fails_scalability(self):
        report = standard_function_probe(lambda q: q + 1.0e-3 + q * 0.0,
                                         (2,), trials=50, seed=8)
        assert report.passed  # affine-plus-constant still scales properly
        report = standard_function_probe(lambda q: q, (2,), trials=50, seed=8)
        names = {c.property_name for c in report.counterexamples}
        assert "scalability" in names or "positivity" in names
        assert not report.passed

    def test_zero_noise_breaks_strict_scalability(self):
        # linear map without an additive noise floor scales with equality
        gains = np.array([[0.3], [0.4]])

        def noiseless(q):
            return np.stack([gains[1] * q[1], gains[0] * q[0]])

        report = standard_function_probe(noiseless, (2, 1), trials=50, seed=9)
        assert not report.passed
        assert any(c.property_name in ("scalability", "positivity")
                   for c in report.counterexamples)
        scal = [c for c in report.counterexamples
                if c.property_name == "scalability"]
        assert scal and scal[0].scale_factor > 1.0

    def test_counterexample_reports_inputs(self):
        report = standard_function_probe(lambda q: q, (3,), trials=5, seed=10)
        bad = report.counterexamples[0]
        assert bad.q.shape == (3,)
        assert bad.values

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            standard_function_probe(lambda q: q, (1,), trials=0, seed=1)
