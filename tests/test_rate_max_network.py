import numpy as np
import pytest

from conftest import sample_demands, sample_topology
from nomapower import NetworkTopology, RateDemands, dpc_srm, random_feasible_start
from nomapower.fixtures import (RATE_MAX_SINGLE_CELL_SUM_RATE,
                                rate_max_single_cell, symmetric_two_cell)
from nomapower.network import dense_interference
from nomapower.oracle import (achievable_rate, effective_interference,
                              optimal_single_cell_rate)
from nomapower.rate_max_cell import optimal_single_cell_allocation
from nomapower.rate_max_network import (InfeasibleInitialPointError,
                                        cell_objective, dc_objective_parts,
                                        power_cap, solve_convex_subproblem,
                                        surrogate_objective)


def two_cell_single_user():
    # cell-2 user: own gain 1.0, cross gain from BS 1 is 0.2, noise 0.1
    g0 = np.array([[1.0], [0.3]])
    g1 = np.array([[0.2], [1.0]])
    return NetworkTopology(bandwidth=1.0, noise_power=0.1,
                           budgets=np.array([5.0, 5.0]), gains=((g0,), (g1,)))


class TestPowerCap:
    def test_worked_example(self):
        top = two_cell_single_user()
        q = np.zeros((2, 1))
        x = np.array([[[1.0]], [[0.5]]])
        cap = power_cap(top, q, x, 0)[0]
        assert cap == pytest.approx((1.0 * 0.5 - 0.1) / 0.2)

    def test_tight_proxies_cap_at_current_power(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            top = sample_topology(rng, num_cells=3, num_subchannels=2,
                                  users=(1, 4))
            q = rng.uniform(0.1, 2.0, size=(3, 2))
            x = top.pad(top.unpad(dense_interference(top, q)))   # 0 in padding
            for i in range(3):
                caps = power_cap(top, q, x, i)
                for m in range(2):
                    assert caps[m] == pytest.approx(q[i, m], rel=1e-9)

    def test_matches_per_group_loop(self):
        # reference: the cap of one subchannel from explicit per-group loops
        def loop_cap(top, q, x, i, m):
            cap = np.inf
            for n in range(top.num_cells):
                if n == i:
                    continue
                g = top.gains[n][m]
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
                caps = power_cap(top, q, x, i)
                for m in range(2):
                    assert caps[m] == pytest.approx(loop_cap(top, q, x, i, m),
                                                    rel=1e-12)

    def test_min_over_candidates(self):
        top = two_cell_single_user()
        q = np.zeros((2, 1))
        for x2, expected in ((0.5, 2.0), (0.9, 4.0)):
            x = np.array([[[1.0]], [[x2]]])
            assert power_cap(top, q, x, 0)[0] == pytest.approx(expected)
        # larger proxy loosens the cap; the min picks the tighter user
        g0 = np.array([[1.0, 1.0], [0.3, 0.3]])
        g1 = np.array([[0.2, 0.25], [1.0, 1.0]])
        top2 = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                               budgets=np.array([5.0, 5.0]),
                               gains=((g0,), (g1,)))
        x = np.array([[[1.0, 1.0]], [[0.5, 0.5]]])
        caps = [(1.0 * 0.5 - 0.1) / 0.2, (1.0 * 0.5 - 0.1) / 0.25]
        assert power_cap(top2, np.zeros((2, 1)), x, 0)[0] == pytest.approx(min(caps))

    def test_single_cell_has_no_cap(self):
        top, _ = rate_max_single_cell()
        x = np.array([[[2.0, 1.0]]])
        assert power_cap(top, np.zeros((1, 1)), x, 0)[0] == np.inf

    def test_zero_cross_gain_has_no_cap(self):
        g0 = np.array([[1.0], [0.0]])
        g1 = np.array([[0.0], [1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([5.0, 5.0]), gains=((g0,), (g1,)))
        x = np.array([[[1.0]], [[0.5]]])
        assert power_cap(top, np.zeros((2, 1)), x, 0)[0] == np.inf


class TestDcObjective:
    def test_single_subchannel_worked_example(self):
        top, dem = rate_max_single_cell()
        q_i = np.array([10.0])
        x_i = np.array([[2.0, 1.0]])
        f_val, g_val = dc_objective_parts(top, dem, q_i, x_i, 0)
        assert g_val == pytest.approx(0.0)                       # -log2(1)
        assert f_val - g_val == pytest.approx(-np.log2(5.0))
        assert cell_objective(top, dem, q_i, x_i, 0) == pytest.approx(
            -np.log2(5.0) - 1.0)

    def test_domain_error_on_bad_iterate(self):
        top, dem = rate_max_single_cell()
        with pytest.raises(ValueError, match="log argument"):
            dc_objective_parts(top, dem, np.array([0.0]),
                               np.array([[100.0, 0.5]]), 0)

    def test_parts_are_convex_on_segments(self):
        top, dem = rate_max_single_cell()
        rng = np.random.default_rng(32)
        for _ in range(40):
            za = (rng.uniform(8.0, 20.0), rng.uniform(0.5, 1.5, 2))
            zb = (rng.uniform(8.0, 20.0), rng.uniform(0.5, 1.5, 2))
            mid = (0.5 * (za[0] + zb[0]), 0.5 * (za[1] + zb[1]))

            def value(z):
                return dc_objective_parts(top, dem, np.array([z[0]]), z[1][None], 0)

            fa, ga = value(za)
            fb, gb = value(zb)
            fm, gm = value(mid)
            assert fm <= 0.5 * (fa + fb) + 1e-9
            assert gm <= 0.5 * (ga + gb) + 1e-9

    def test_surrogate_takes_g_from_strong_proxies_only(self):
        # x_lin's weak proxy needs more than q_i = 4 W; G(x_lin) must not care
        top, dem = rate_max_single_cell()
        value = surrogate_objective(top, dem, np.array([4.0]),
                                    np.array([[2.0, 1.0]]),
                                    np.array([[10.0, 1.0]]), 0)
        assert value == pytest.approx(-1.0, rel=1e-12)

    def test_surrogate_majorizes_true_objective(self):
        top, dem = symmetric_two_cell()
        rng = np.random.default_rng(33)
        for _ in range(40):
            q_i = np.array([rng.uniform(2.0, 6.0)])
            x_lin = np.sort(rng.uniform(0.3, 1.5, 2))[None, ::-1]
            x_i = np.sort(rng.uniform(0.3, 1.5, 2))[None, ::-1]
            surrogate = surrogate_objective(top, dem, q_i, x_i, x_lin, 0)
            f_val, g_val = dc_objective_parts(top, dem, q_i, x_i, 0)
            assert surrogate >= f_val - g_val - 1e-9


class TestSubproblem:
    def test_symmetric_subchannels_split_evenly(self):
        g = np.array([[1.0, 2.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=2.0,
                              budgets=np.array([10.0]), gains=((g, g),))
        dem = RateDemands.uniform(top, 1.0)
        q = np.array([[4.2, 5.3]])      # feasible but lopsided start
        x = dense_interference(top, q)
        caps = np.array([np.inf, np.inf])
        out = solve_convex_subproblem(top, dem, 0, x[0], caps, 10.0, q)
        assert out.improved
        assert out.q_i == pytest.approx([5.0, 5.0], rel=1e-12)

    def test_pinned_subchannel_hands_budget_to_the_other(self):
        # subchannel 0 is pinned at q = 4 by its cap and the coupling, so
        # the region has no interior; the spare 2 W go to subchannel 1
        g = np.array([[1.0, 2.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=2.0,
                              budgets=np.array([10.0]), gains=((g, g),))
        dem = RateDemands.uniform(top, 1.0)
        q = np.array([[4.0, 4.0]])
        x = dense_interference(top, np.zeros((1, 2)))
        out = solve_convex_subproblem(top, dem, 0, x[0],
                                      np.array([4.0, np.inf]), 10.0, q)
        assert out.improved
        assert out.q_i == pytest.approx([4.0, 6.0], rel=1e-12)
        assert out.objective_value == pytest.approx(-1.0 - np.log2(3.0),
                                                    rel=1e-12)

    def test_single_subchannel_recovers_closed_form(self):
        top, dem = rate_max_single_cell()
        q = np.array([[4.0]])       # start at the feasibility boundary
        x = dense_interference(top, q)
        out = solve_convex_subproblem(top, dem, 0, x[0], np.array([np.inf]),
                                      10.0, q)
        assert out.q_i == pytest.approx([10.0], rel=1e-6)
        p = optimal_single_cell_allocation(dem.rates[0][0],
                                           np.array(x[0][0]), float(out.q_i[0]), 1.0)
        assert p == pytest.approx([6.0, 4.0], rel=1e-6)

    def test_warm_start_surrogate_never_increases(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            top = sample_topology(rng, num_cells=2, num_subchannels=2,
                                  users=2, budget=4.0)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            q0, x0 = random_feasible_start(top, dem, rng)
            for i in range(2):
                caps = power_cap(top, q0, x0, i)
                warm = surrogate_objective(top, dem, q0[i], x0[i], x0[i], i)
                out = solve_convex_subproblem(top, dem, i, x0[i], caps,
                                              float(top.budgets[i]), q0)
                assert out.objective_value <= warm + 1e-9

    def test_infeasible_inputs_raise_with_family(self):
        top, dem = rate_max_single_cell()
        q = np.array([[2.0]])       # below the required 4 W
        x = dense_interference(top, q)
        from nomapower.rate_max_network import InfeasibleSubproblemError
        with pytest.raises(InfeasibleSubproblemError, match="demand coupling"):
            solve_convex_subproblem(top, dem, 0, x[0], np.array([np.inf]),
                                    10.0, q)


class TestDpcSrm:
    def test_single_cell_single_subchannel_matches_closed_form(self):
        top, dem = rate_max_single_cell()
        report = dpc_srm(top, dem)
        assert report.converged
        assert report.sum_rate == pytest.approx(RATE_MAX_SINGLE_CELL_SUM_RATE,
                                                rel=1e-9)
        assert report.q[0, 0] == pytest.approx(10.0, rel=1e-9)
        assert report.allocation.powers[0][0] == pytest.approx([6.0, 4.0],
                                                               rel=1e-7)

    def test_decoupled_cells_reach_per_cell_optimum(self):
        g0 = np.array([[1.0, 2.0], [0.0, 0.0]])
        g1 = np.array([[0.0, 0.0], [1.0, 2.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=2.0,
                              budgets=np.array([10.0, 10.0]),
                              gains=((g0,), (g1,)))
        dem = RateDemands.uniform(top, 1.0)
        report = dpc_srm(top, dem)
        assert report.sum_rate == pytest.approx(
            2.0 * RATE_MAX_SINGLE_CELL_SUM_RATE, rel=1e-9)

    def test_trace_is_non_increasing(self):
        rng = np.random.default_rng(35)
        for _ in range(8):
            top = sample_topology(rng, num_cells=2, num_subchannels=1,
                                  users=2, budget=4.0)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            q0, x0 = random_feasible_start(top, dem, rng)
            report = dpc_srm(top, dem, q0=q0, x0=x0)
            assert np.all(np.diff(report.trace) <= 1e-9)

    def test_proxies_settle_on_effective_interference(self):
        rng = np.random.default_rng(36)
        top = sample_topology(rng, num_cells=2, users=2, budget=4.0)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        report = dpc_srm(top, dem)
        for i, m in top.groups():
            h = effective_interference(top, report.q, i, m)
            assert np.asarray(report.x[i][m]) == pytest.approx(h, rel=1e-6)

    def test_objective_equals_negative_closed_form_rate_at_tight_proxies(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            top = sample_topology(rng, num_cells=2, num_subchannels=2, users=2)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            from nomapower import dpc_spm
            fp = dpc_spm(top, dem)
            q = fp.q_star * rng.uniform(1.0, 1.5)
            profile = dense_interference(top, q)
            total = sum(cell_objective(top, dem, q[i], profile[i], i)
                        for i in range(2))
            direct = -sum(
                optimal_single_cell_rate(dem.rates[i][m],
                                         np.array(profile[i][m]),
                                         float(q[i, m]), top.bandwidth)
                for i, m in top.groups())
            assert total == pytest.approx(direct, rel=1e-10)

    def test_sum_rate_matches_per_user_rates(self):
        top, dem = symmetric_two_cell()
        report = dpc_srm(top, dem)
        direct = sum(float(np.sum(achievable_rate(top, report.allocation,
                                                  report.q, i, m)))
                     for i, m in top.groups())
        assert report.sum_rate == pytest.approx(direct, rel=1e-9)

    def test_infeasible_start_raises(self):
        top, dem = rate_max_single_cell()
        with pytest.raises(InfeasibleInitialPointError):
            dpc_srm(top, dem, q0=np.array([[20.0]]))       # over budget
        with pytest.raises(InfeasibleInitialPointError):
            dpc_srm(top, dem, q0=np.array([[8.0]]),
                    x0=np.array([[[0.1, 0.05]]]))          # below interference

    def test_infeasible_demands_raise(self):
        top, _ = rate_max_single_cell()
        dem = RateDemands.uniform(top, 10.0)       # needs far more than 10 W
        with pytest.raises(InfeasibleInitialPointError):
            dpc_srm(top, dem)

    def test_random_starts_stay_feasible_and_never_beat_caps(self):
        rng = np.random.default_rng(38)
        top = sample_topology(rng, num_cells=2, users=2, budget=4.0)
        dem = sample_demands(rng, top, rate=(0.2, 0.6))
        for _ in range(5):
            q0, x0 = random_feasible_start(top, dem, rng)
            report = dpc_srm(top, dem, q0=q0, x0=x0)    # must not raise
            assert np.all(report.q.sum(axis=1) <= top.budgets * (1 + 1e-9))

    def test_single_user_and_mixed_groups_degenerate_cleanly(self):
        # subchannel 0 serves one user, subchannel 1 serves three
        g_a = np.array([[1.0], [0.05]])
        g_b = np.array([[0.4, 0.9, 1.6], [0.02, 0.03, 0.05]])
        g_c = np.array([[0.06], [1.2]])
        g_d = np.array([[0.02, 0.04, 0.06], [0.5, 1.0, 1.5]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.2,
                              budgets=np.array([8.0, 8.0]),
                              gains=((g_a, g_b), (g_c, g_d)))
        dem = RateDemands.uniform(top, 0.4)
        report = dpc_srm(top, dem)
        assert np.all(np.diff(report.trace) <= 1e-9)
        np.testing.assert_allclose(report.allocation.cell_powers(), report.q,
                                   rtol=1e-6, atol=0)
        for i, m in top.groups():
            rates = achievable_rate(top, report.allocation, report.q, i, m)
            assert np.all(rates >= 0.4 * (1 - 1e-9))

    def test_final_point_satisfies_every_constraint(self):
        rng = np.random.default_rng(39)
        from nomapower.power_min import demand_weights
        for _ in range(5):
            top = sample_topology(rng, num_cells=2, num_subchannels=2,
                                  users=2, budget=4.0)
            dem = sample_demands(rng, top, rate=(0.2, 0.6))
            report = dpc_srm(top, dem)
            scale = float(top.budgets.max())
            assert np.all(report.q.sum(axis=1) <= top.budgets + 1e-7 * scale)
            for i, m in top.groups():
                h = effective_interference(top, report.q, i, m)
                x = np.asarray(report.x[i][m])
                assert np.all(x >= h * (1 - 1e-7))
                w = demand_weights(dem.rates[i][m], top.bandwidth)
                assert w @ x <= report.q[i, m] * (1 + 1e-7)
                cap = power_cap(top, report.q, report.x, i)[m]
                assert report.q[i, m] <= cap * (1 + 1e-7) + 1e-12
