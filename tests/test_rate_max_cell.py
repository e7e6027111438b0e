"""The shared group split, power_min.group_split, on the single-cell
sum-rate problem: one group's rate-optimal split of a fixed total q, as
dpc_srm assembles it (weak users at their demands, the strongest user at
its minimum power plus alpha times the surplus q - w . H over the
required power), the constants it reads (power_min._GroupConstants), and
the oracle's closed-form optimal rate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_group
from nomapower.network import front_pad, group_rates
from nomapower.oracle import (OracleInfeasibleError,
                              boundary_allocation_matches_minimum,
                              demand_weights, min_power_user_allocation,
                              minimal_group_powers, optimal_single_cell_rate)
from nomapower.power_min import _GroupConstants
from nomapower.rate_max_network import InfeasibleInitialPointError, _assemble

R2 = np.array([1.0, 1.0])
H2 = np.array([2.0, 1.0])
R3 = np.array([1.0, 1.0, 0.5])
H3 = np.array([7.0, 3.0, 1.0])


def rate_max_split(demands, h, q, bandwidth=1.0):
    """dpc_srm's split of total ``q`` for padded (I, M, n_max) arrays with
    (I, M) totals, or for one group's (n,) arrays and a scalar total."""
    demands, h = np.asarray(demands, dtype=float), np.asarray(h, dtype=float)
    if demands.ndim == 1:
        return rate_max_split(demands[None, None], h[None, None],
                              np.reshape(q, (1, 1)), bandwidth)[0, 0]
    constants = _GroupConstants.build(demands, bandwidth)
    return _assemble(constants, np.asarray(q, dtype=float), h).powers


def required(demands, h, bandwidth=1.0):
    """The required power w . H of one group, as _assemble checks it."""
    return (demand_weights(demands, bandwidth) * h).sum(axis=-1)


class TestFeasibility:
    def test_worked_example(self):
        assert required(R2, H2) == pytest.approx(4.0)
        assert rate_max_split(R2, H2, 10.0).sum() == pytest.approx(10.0)

    def test_boundary_is_feasible(self):
        assert rate_max_split(R2, H2, 4.0) == pytest.approx([3.0, 1.0])

    def test_below_boundary_is_infeasible(self):
        with pytest.raises(InfeasibleInitialPointError,
                           match=r"group \(0,0\) ended below its required power"):
            rate_max_split(R2, H2, 3.9)

    def test_required_matches_min_power_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            demands, h = sample_group(rng)
            need = required(demands, h)
            assert need == pytest.approx(
                min_power_user_allocation(demands, h, 1.0).sum(), rel=1e-12)
            assert need == pytest.approx(
                minimal_group_powers(demands, h, 1.0).sum(), rel=1e-12)


class TestAllocation:
    def test_two_user_worked_example(self):
        p = rate_max_split(R2, H2, 10.0)
        assert p == pytest.approx([6.0, 4.0])
        rates = group_rates(p, H2, 1.0)
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(np.log2(5.0))

    def test_three_user_worked_example(self):
        p = rate_max_split(R3, H3, 20.0)
        assert p == pytest.approx([13.5, 4.75, 1.75])
        rates = group_rates(p, H3, 1.0)
        assert rates[:2] == pytest.approx([1.0, 1.0])
        assert rates[2] == pytest.approx(np.log2(2.75))

    def test_boundary_equals_min_power_split(self):
        p = rate_max_split(R2, H2, 4.0)
        assert p == pytest.approx([3.0, 1.0])
        assert p == pytest.approx(min_power_user_allocation(R2, H2, 1.0))

    def test_powers_sum_to_total_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            demands, h = sample_group(rng)
            q = required(demands, h) * rng.uniform(1.0, 4.0)
            p = rate_max_split(demands, h, q)
            assert np.all(p > 0)
            assert p.sum() == pytest.approx(q, rel=1e-12)

    def test_weak_users_pinned_at_their_demands(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            demands, h = sample_group(rng)
            q = required(demands, h) * rng.uniform(1.05, 4.0)
            p = rate_max_split(demands, h, q)
            rates = group_rates(p, h, 1.0)
            assert rates[:-1] == pytest.approx(demands[:-1], rel=1e-9)
            assert rates[-1] >= demands[-1]

    def test_strongest_user_meets_its_demand_at_the_boundary(self):
        rng = np.random.default_rng(24)
        for demands, h in [(R2, H2), (R3, H3)] + [sample_group(rng) for _ in range(30)]:
            p = rate_max_split(demands, h, required(demands, h))
            assert group_rates(p, h, 1.0)[-1] == pytest.approx(demands[-1], rel=1e-9)
            assert p == pytest.approx(min_power_user_allocation(demands, h, 1.0),
                                      rel=1e-9)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_boundary_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        demands, h = sample_group(rng)
        assert boundary_allocation_matches_minimum(demands, h, 1.0)


class TestPaddedGroups:
    """The split over front-padded (I, M, n_max) arrays."""

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
        need = required(demands, h)
        q = need * rng.uniform(1.0, 3.0, size=need.shape)
        p = rate_max_split(demands, h, q)
        assert need.shape == q.shape == (3, 3)
        for i, row in enumerate(groups):
            for m, (r, hg) in enumerate(row):
                n = r.size
                assert np.array_equal(need[i, m], required(r, hg))
                assert np.array_equal(p[i, m, 4 - n:], rate_max_split(r, hg, q[i, m]))
                assert not p[i, m, :4 - n].any()


class TestGroupConstants:
    """The one place the constants are derived: its demand weights and
    2^(R/B) are power_min's own, bit for bit."""

    def test_weights_and_growth_equal_the_direct_formulas(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            bandwidth = float(rng.uniform(0.5, 2.0))
            sizes = rng.integers(1, 5, size=(3, 2))       # ragged, 1-4 users
            rates = front_pad([[rng.uniform(0.2, 1.2, size=n) for n in row]
                               for row in sizes])[0]
            constants = _GroupConstants.build(rates, bandwidth)
            assert np.array_equal(constants.weights, demand_weights(rates, bandwidth))
            assert np.array_equal(constants.growth, np.exp2(rates / bandwidth))


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
        with pytest.raises(OracleInfeasibleError):
            optimal_single_cell_rate(R2, H2, 3.9, 1.0)

    def test_matches_direct_rate_sum(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            demands, h = sample_group(rng)
            bw = float(rng.uniform(0.5, 2.0))
            q = minimal_group_powers(demands, h, bw).sum() * rng.uniform(1.0, 5.0)
            closed = optimal_single_cell_rate(demands, h, q, bw)
            p = rate_max_split(demands, h, q, bw)
            assert closed == pytest.approx(group_rates(p, h, bw).sum(), rel=1e-12)

    def test_increasing_and_concave_in_power(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            demands, h = sample_group(rng)
            q0 = minimal_group_powers(demands, h, 1.0).sum()
            grid = q0 * np.linspace(1.0, 5.0, 41)
            values = np.array([optimal_single_cell_rate(demands, h, q, 1.0)
                               for q in grid])
            first = np.diff(values)
            assert np.all(first > 0)
            assert np.all(np.diff(first) <= 1e-9)

    def test_single_user_group(self):
        rate = optimal_single_cell_rate(np.array([0.5]), np.array([2.0]), 6.0, 1.0)
        assert rate == pytest.approx(np.log2(4.0), rel=1e-12)
