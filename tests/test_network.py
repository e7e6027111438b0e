import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_topology
from nomapower import NetworkTopology, PowerAllocation, RateDemands
from nomapower.network import (check_rate_constraints, effective_interference,
                               group_rates, rate_constraint_slack,
                               suffix_sums)
from nomapower.oracle import rate_via_decoding_chain


def two_cell_example():
    g0 = np.array([[0.5, 1.0], [0.1, 0.2]])
    g1 = np.array([[0.1, 0.2], [0.5, 1.0]])
    return NetworkTopology(bandwidth=1.0, noise_power=0.1,
                           budgets=np.array([5.0, 5.0]),
                           gains=((g0,), (g1,)))


class TestEffectiveInterference:
    def test_two_cell_worked_values(self):
        top = two_cell_example()
        q = np.array([[0.0], [1.0]])
        h = effective_interference(top, q, 0, 0)
        assert h == pytest.approx([0.4, 0.3], abs=1e-15)
        assert effective_interference(top, q, 0, 0, j=0) == pytest.approx(0.4)

    def test_zero_other_power_leaves_noise_only(self):
        top = two_cell_example()
        q = np.zeros((2, 1))
        assert effective_interference(top, q, 0, 0) == pytest.approx([0.2, 0.1])

    def test_single_cell_is_independent_of_q(self):
        g = np.array([[0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([5.0]), gains=((g,),))
        for qv in (0.0, 1.0, 7.5):
            h = effective_interference(top, np.array([[qv]]), 0, 0)
            assert h == pytest.approx([0.2, 0.1])

    def test_unknown_group_raises(self):
        top = two_cell_example()
        with pytest.raises(IndexError):
            effective_interference(top, np.zeros((2, 1)), 2, 0)

    def test_non_increasing_along_sorted_users(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            top = sample_topology(rng, num_cells=2, users=(2, 5))
            q = rng.uniform(0.0, 2.0, size=(2, 1))
            h = effective_interference(top, q, 0, 0)
            assert np.all(np.diff(h) <= 1e-15)

    def test_monotone_and_scalable_in_q(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            top = sample_topology(rng, num_cells=3, num_subchannels=2, users=3)
            q1 = rng.uniform(0.0, 2.0, size=(3, 2))
            q2 = q1 * rng.uniform(0.0, 1.0, size=(3, 2))
            lam = rng.uniform(1.0 + 1e-9, 10.0)
            for i, m in top.groups():
                h1 = effective_interference(top, q1, i, m)
                h2 = effective_interference(top, q2, i, m)
                assert np.all(h1 >= h2)
                assert np.all(lam * h1 > effective_interference(top, lam * q1, i, m))


class TestAchievableRate:
    def test_single_user_unit_snr(self):
        g = np.array([[1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=1.0,
                              budgets=np.array([5.0]), gains=((g,),))
        alloc = PowerAllocation(((np.array([1.0]),),))
        q = np.array([[1.0]])
        from nomapower import achievable_rate
        assert achievable_rate(top, alloc, q, 0, 0) == pytest.approx([1.0])

    def test_two_user_worked_values(self):
        # H = (3, 1) via own gains (1, 3) at noise 3
        g = np.array([[1.0, 3.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=3.0,
                              budgets=np.array([10.0]), gains=((g,),))
        alloc = PowerAllocation(((np.array([4.0, 1.0]),),))
        from nomapower import achievable_rate
        rates = achievable_rate(top, alloc, np.array([[5.0]]), 0, 0)
        assert rates == pytest.approx([1.0, 1.0])

    def test_zero_power_means_zero_rate(self):
        assert group_rates(np.array([0.0, 1.0]), np.array([2.0, 1.0]), 1.0)[0] == 0.0

    def test_strictly_increasing_in_own_power(self):
        h = np.array([3.0, 1.0])
        r1 = group_rates(np.array([4.0, 1.0]), h, 1.0)
        r2 = group_rates(np.array([4.5, 1.0]), h, 1.0)
        assert r2[0] > r1[0]

    def test_equals_min_over_decoding_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            top = sample_topology(rng, num_cells=2, users=(2, 4))
            q = rng.uniform(0.0, 2.0, size=(2, 1))
            p = [[rng.uniform(0.05, 2.0, size=top.group_size(i, 0))
                  for _ in range(1)] for i in range(2)]
            alloc = PowerAllocation(tuple(tuple(row) for row in p))
            from nomapower import achievable_rate
            for i in range(2):
                direct = achievable_rate(top, alloc, q, i, 0)
                chained = rate_via_decoding_chain(top, alloc, q, i, 0)
                assert direct == pytest.approx(chained, rel=1e-12)


class TestRateConstraint:
    def test_tight_case_has_zero_slack(self):
        slack = rate_constraint_slack(np.array([4.0, 1.0]), np.array([3.0, 1.0]),
                                      np.array([1.0, 1.0]), 1.0)
        assert slack == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_violation_is_signed(self):
        slack = rate_constraint_slack(np.array([4.0, 0.9]), np.array([3.0, 1.0]),
                                      np.array([1.0, 1.0]), 1.0)
        assert slack[1] == pytest.approx(-0.1)

    def test_vanishing_demand_always_satisfied(self):
        slack = rate_constraint_slack(np.array([0.5, 0.5]), np.array([3.0, 1.0]),
                                      np.array([1e-12, 1e-12]), 1.0)
        assert np.all(slack > 0)

    def test_network_level_check(self):
        top = two_cell_example()
        demands = RateDemands.uniform(top, 1.0)
        q = np.array([[1.0], [1.0]])
        alloc = PowerAllocation(((np.array([0.7, 0.3]),),
                                 (np.array([0.7, 0.3]),)))
        ok, slack = check_rate_constraints(top, alloc, q, demands)
        assert all(bool(v.all()) for row in ok for v in row)
        assert abs(slack[0][0][0]) < 1e-12


class TestTopologyConstruction:
    def test_sorts_users_by_own_gain(self):
        g = np.array([[2.0, 0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([1.0]), gains=((g,),))
        assert list(top.own_gains(0, 0)) == [0.5, 1.0, 2.0]
        assert list(top.user_ids[0][0]) == [1, 2, 0]

    def test_ties_keep_original_order(self):
        g = np.array([[1.0, 1.0, 0.5]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                              budgets=np.array([1.0]), gains=((g,),))
        assert list(top.user_ids[0][0]) == [2, 0, 1]

    def test_rejects_bad_inputs(self):
        g = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=0.0, noise_power=0.1,
                            budgets=np.array([1.0]), gains=((g,),))
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=1.0, noise_power=0.0,
                            budgets=np.array([1.0]), gains=((g,),))
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=1.0, noise_power=0.1,
                            budgets=np.array([1.0]),
                            gains=((np.array([[0.0, 1.0]]),),))
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=1.0, noise_power=0.1,
                            budgets=np.array([-1.0]), gains=((g,),))

    def test_duplicate_user_ids_rejected(self):
        g = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="two groups"):
            NetworkTopology(bandwidth=1.0, noise_power=0.1,
                            budgets=np.array([1.0]),
                            gains=((g, g),),
                            user_ids=(((0, 1), (1, 2)),))

    def test_arrays_are_immutable(self):
        top = two_cell_example()
        with pytest.raises(ValueError):
            top.gains[0][0][0, 0] = 2.0
        with pytest.raises(ValueError):
            top.budgets[0] = 1.0
        with pytest.raises(ValueError):
            top.cross_ratio[0, 0, 0, 1] = 2.0
        with pytest.raises(ValueError):
            top.noise_ratio[0, 0, 0] = 2.0

    def test_single_user_groups_allowed(self):
        g = np.array([[1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.5,
                              budgets=np.array([1.0]), gains=((g,),))
        assert top.group_size(0, 0) == 1


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_suffix_sums_property(values):
    p = np.array(values)
    out = suffix_sums(p)
    for j in range(p.size):
        assert out[j] == pytest.approx(p[j + 1:].sum(), rel=1e-12, abs=1e-12)


def test_allocation_consistency_check():
    alloc = PowerAllocation(((np.array([0.7, 0.3]),),))
    assert alloc.consistent_with(np.array([[1.0]]))
    assert not alloc.consistent_with(np.array([[1.1]]))


def test_demands_must_be_positive():
    top = two_cell_example()
    with pytest.raises(ValueError):
        RateDemands(((np.array([1.0, 0.0]),), (np.array([1.0, 1.0]),)))
    demands = RateDemands.uniform(top, 2.0)
    assert demands.rates[1][0] == pytest.approx([2.0, 2.0])
