import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_group
from nomapower.network import front_pad, group_rates
from nomapower.oracle import (boundary_allocation_matches_minimum, group_sum_rate,
                              optimal_single_cell_rate)
from nomapower.power_min import min_power_user_allocation
from nomapower.rate_max_cell import (InfeasiblePowerError,
                                     optimal_single_cell_allocation,
                                     required_group_power, single_cell_feasible)

R2 = np.array([1.0, 1.0])
H2 = np.array([2.0, 1.0])
R3 = np.array([1.0, 1.0, 0.5])
H3 = np.array([7.0, 3.0, 1.0])


class TestFeasibility:
    def test_worked_example(self):
        ok, required = single_cell_feasible(R2, H2, 10.0, 1.0)
        assert ok and required == pytest.approx(4.0)

    def test_boundary_is_feasible(self):
        ok, required = single_cell_feasible(R2, H2, 4.0, 1.0)
        assert ok and required == pytest.approx(4.0)

    def test_below_boundary_is_infeasible(self):
        ok, _ = single_cell_feasible(R2, H2, 3.9, 1.0)
        assert not ok

    def test_required_matches_min_power_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            demands, h = sample_group(rng)
            required = required_group_power(demands, h, 1.0)
            p = min_power_user_allocation(demands, h, 1.0)
            assert required == pytest.approx(p.sum(), rel=1e-12)


class TestAllocation:
    def test_two_user_worked_example(self):
        p = optimal_single_cell_allocation(R2, H2, 10.0, 1.0)
        assert p == pytest.approx([6.0, 4.0])
        rates = group_rates(p, H2, 1.0)
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(np.log2(5.0))

    def test_three_user_worked_example(self):
        p = optimal_single_cell_allocation(R3, H3, 20.0, 1.0)
        assert p == pytest.approx([13.5, 4.75, 1.75])
        rates = group_rates(p, H3, 1.0)
        assert rates[:2] == pytest.approx([1.0, 1.0])
        assert rates[2] == pytest.approx(np.log2(2.75))

    def test_boundary_equals_min_power_split(self):
        p = optimal_single_cell_allocation(R2, H2, 4.0, 1.0)
        assert p == pytest.approx([3.0, 1.0])
        assert p == pytest.approx(min_power_user_allocation(R2, H2, 1.0))

    def test_powers_sum_to_total_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            demands, h = sample_group(rng)
            q = required_group_power(demands, h, 1.0) * rng.uniform(1.0, 4.0)
            p = optimal_single_cell_allocation(demands, h, q, 1.0)
            assert np.all(p > 0)
            assert p.sum() == pytest.approx(q, rel=1e-12)

    def test_weak_users_pinned_at_their_demands(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            demands, h = sample_group(rng)
            q = required_group_power(demands, h, 1.0) * rng.uniform(1.05, 4.0)
            p = optimal_single_cell_allocation(demands, h, q, 1.0)
            rates = group_rates(p, h, 1.0)
            assert rates[:-1] == pytest.approx(demands[:-1], rel=1e-9)
            assert rates[-1] >= demands[-1]

    def test_infeasible_raises_with_required_power(self):
        with pytest.raises(InfeasiblePowerError) as err:
            optimal_single_cell_allocation(R2, H2, 3.0, 1.0)
        assert err.value.required == pytest.approx(4.0)
        assert err.value.available == 3.0

    def test_no_warning_at_the_boundary(self, recwarn):
        optimal_single_cell_allocation(R2, H2, 4.0, 1.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_boundary_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        demands, h = sample_group(rng)
        assert boundary_allocation_matches_minimum(demands, h, 1.0)


class TestPaddedGroups:
    """The closed forms over front-padded (I, M, n_max) arrays."""

    SIZES = ((1, 4, 2), (3, 2, 4), (4, 1, 3))      # users per (cell, subchannel)

    def padded_instance(self, rng):
        groups = [[sample_group(rng, users=(n, n)) for n in row] for row in self.SIZES]
        demands, occupied = front_pad([[r for r, _ in row] for row in groups])
        h = front_pad([[h for _, h in row] for row in groups])[0]
        # padded slots repeat the weakest user's interference, as in
        # dense_interference
        h = np.where(occupied, h, np.take_along_axis(
            h, np.argmax(occupied, axis=-1)[..., None], axis=-1))
        return groups, demands, h

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_to_the_per_group_calls(self, seed):
        rng = np.random.default_rng(seed)
        groups, demands, h = self.padded_instance(rng)
        required = required_group_power(demands, h, 1.0)
        q = required * rng.uniform(1.0, 3.0, size=required.shape)
        p = optimal_single_cell_allocation(demands, h, q, 1.0)
        assert required.shape == q.shape == (3, 3)
        for i, row in enumerate(groups):
            for m, (r, hg) in enumerate(row):
                n = r.size
                assert np.array_equal(required[i, m],
                                      required_group_power(r, hg, 1.0))
                assert np.array_equal(p[i, m, 4 - n:],
                                      optimal_single_cell_allocation(r, hg, q[i, m], 1.0))
                assert not p[i, m, :4 - n].any()

    def test_infeasible_names_the_first_short_group(self):
        rng = np.random.default_rng(31)
        _, demands, h = self.padded_instance(rng)
        required = required_group_power(demands, h, 1.0)
        q = 2.0 * required
        q[2, 0] = 0.5 * required[2, 0]
        q[1, 2] = 0.9 * required[1, 2]
        with pytest.raises(InfeasiblePowerError) as err:
            optimal_single_cell_allocation(demands, h, q, 1.0)
        assert err.value.required == required[1, 2]
        assert err.value.available == q[1, 2]


class TestOptimalRate:
    def test_two_user_value(self):
        rate = optimal_single_cell_rate(R2, H2, 10.0, 1.0)
        assert rate == pytest.approx(1.0 + np.log2(5.0), rel=1e-12)

    def test_three_user_value(self):
        rate = optimal_single_cell_rate(R3, H3, 20.0, 1.0)
        assert rate == pytest.approx(2.0 + np.log2(2.75), rel=1e-12)

    def test_boundary_gives_demand_sum(self):
        rate = optimal_single_cell_rate(R2, H2, 4.0, 1.0)
        assert rate == pytest.approx(2.0, rel=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasiblePowerError):
            optimal_single_cell_rate(R2, H2, 3.9, 1.0)

    def test_matches_direct_rate_sum(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            demands, h = sample_group(rng)
            bw = float(rng.uniform(0.5, 2.0))
            q = required_group_power(demands, h, bw) * rng.uniform(1.0, 5.0)
            closed = optimal_single_cell_rate(demands, h, q, bw)
            p = optimal_single_cell_allocation(demands, h, q, bw)
            assert closed == pytest.approx(group_sum_rate(p, h, bw), rel=1e-12)

    def test_increasing_and_concave_in_power(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            demands, h = sample_group(rng)
            q0 = required_group_power(demands, h, 1.0)
            grid = q0 * np.linspace(1.0, 5.0, 41)
            values = np.array([optimal_single_cell_rate(demands, h, q, 1.0)
                               for q in grid])
            first = np.diff(values)
            assert np.all(first > 0)
            assert np.all(np.diff(first) <= 1e-9)

    def test_single_user_group(self):
        rate = optimal_single_cell_rate(np.array([0.5]), np.array([2.0]), 6.0, 1.0)
        assert rate == pytest.approx(np.log2(4.0), rel=1e-12)
