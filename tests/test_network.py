import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_topology
from nomapower import (NetworkTopology, PowerAllocation, RateDemands,
                       assemble_full_solution, dpc_srm, solve_spm)
from nomapower.network import dense_interference, group_rates, suffix_sums
from nomapower.oracle import (achievable_rate, effective_interference,
                              rate_constraint_slack, rate_via_decoding_chain)
from nomapower.power_min import interference_map


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
        assert achievable_rate(top, alloc, q, 0, 0) == pytest.approx([1.0])

    def test_two_user_worked_values(self):
        # H = (3, 1) via own gains (1, 3) at noise 3
        g = np.array([[1.0, 3.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=3.0,
                              budgets=np.array([10.0]), gains=((g,),))
        alloc = PowerAllocation(((np.array([4.0, 1.0]),),))
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
        slack = rate_constraint_slack(alloc.padded, dense_interference(top, q),
                                      demands.padded, top.bandwidth)
        assert slack.shape == (2, 1, 2)
        assert np.all(slack >= -1e-12 * np.maximum(alloc.padded, 1.0))
        assert abs(slack[0, 0, 0]) < 1e-12


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
        demands = RateDemands.uniform(top, 1.0)
        nested = ((np.array([0.7, 0.3]),), (np.array([0.7, 0.3]),))
        for alloc in (PowerAllocation(nested), PowerAllocation(np.array(nested))):
            for array in (demands.padded, demands.rates[1][0],
                          alloc.padded, alloc.powers[1][0]):
                with pytest.raises(ValueError):
                    array[...] = 1.0
        assert nested[0][0].flags.writeable     # the input is copied, not frozen

    def test_single_user_groups_allowed(self):
        g = np.array([[1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.5,
                              budgets=np.array([1.0]), gains=((g,),))
        assert top.group_size(0, 0) == 1


class TestRaggedTopology:
    SIZES = ((1, 4), (3, 2), (2, 1))        # users per (cell, subchannel)

    def ragged_gains(self, rng):
        """Unsorted positive gains for 3 cells x 2 subchannels of 1-4 users."""
        return tuple(
            tuple(rng.uniform(0.1, 2.0, size=(3, n)) for n in row)
            for row in self.SIZES)

    def build(self, gains, user_ids=None):
        return NetworkTopology(bandwidth=1.0, noise_power=0.1,
                               budgets=np.ones(3), gains=gains,
                               user_ids=user_ids)

    def test_padding_never_trips_a_check(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gains = self.ragged_gains(rng)
            top = self.build(gains)
            assert top.max_group_size == 4
            next_id = 0
            for i, m in top.groups():
                g = gains[i][m]
                n = g.shape[1]
                order = np.argsort(g[i], kind="stable")
                assert top.group_size(i, m) == n
                assert np.array_equal(top.gains[i][m], g[:, order])
                assert np.array_equal(top.user_ids[i][m], next_id + order)
                next_id += n
                assert top.occupied[i, m].tolist() == [False] * (4 - n) + [True] * n
                # the padding holds 0 in every dense array
                assert not top.dense_gains[i, m, :, :4 - n].any()
                assert not top.cross_ratio[i, m, :4 - n].any()
                assert not top.noise_ratio[i, m, :4 - n].any()
                assert np.array_equal(top.cross_ratio[i, m, 4 - n:],
                                      (g[:, order] / g[i, order]).T
                                      * (np.arange(3) != i))
                assert np.array_equal(top.noise_ratio[i, m, 4 - n:], 0.1 / g[i, order])
            values = tuple(tuple(rng.uniform(size=n) for n in row) for row in self.SIZES)
            back = top.unpad(top.pad(values))
            for i, m in top.groups():
                assert np.array_equal(back[i][m], values[i][m])

    def test_groups_may_all_be_empty(self):
        empty = tuple((np.zeros((3, 0)), np.zeros((3, 0))) for _ in range(3))
        top = self.build(empty)
        assert top.max_group_size == 0
        assert top.cross_ratio.shape == (3, 2, 0, 3)
        values = tuple((np.zeros(0), np.zeros(0)) for _ in range(3))
        assert top.pad(values).shape == (3, 2, 0)
        assert top.unpad(top.pad(values))[2][1].size == 0

    def test_pad_rejects_mis_nested_values(self):
        top = self.build(self.ragged_gains(np.random.default_rng(12)))
        a, b, c, d, e, f = (np.ones(n) for row in self.SIZES for n in row)
        # the flat sizes (1, 4, 3, 2, 2, 1) line up, the nesting does not
        with pytest.raises(ValueError, match="cell 0: values must hold one group"):
            top.pad(((a, b, c), (d, e), (f,)))
        with pytest.raises(ValueError, match="one row of groups per cell"):
            top.pad(((a, b), (c, d)))
        with pytest.raises(ValueError, match=r"group \(1,1\): values do not match"):
            top.pad(((a, b), (c, np.ones(3)), (e, f)))

    def test_bad_gains_name_the_first_group_in_order(self):
        rng = np.random.default_rng(9)
        gains = [list(row) for row in self.ragged_gains(rng)]
        gains[2][0] = gains[2][0].copy()
        gains[2][0][0, 1] = -0.5                  # negative cross gain in (2,0)
        gains[1][1] = gains[1][1].copy()
        gains[1][1][1, 0] = 0.0                   # zero own gain in (1,1)
        with pytest.raises(ValueError, match=r"group \(1,1\): own gains must be > 0"):
            self.build(tuple(map(tuple, gains)))
        gains[0][1] = gains[0][1].copy()
        gains[0][1][2, 3] = -1e-9                 # negative cross gain in (0,1)
        with pytest.raises(ValueError, match=r"group \(0,1\): gains must be >= 0"):
            self.build(tuple(map(tuple, gains)))
        gains[0][0] = np.array([[0.0], [0.3], [0.2]])   # single-user group (0,0)
        with pytest.raises(ValueError, match=r"group \(0,0\): own gains must be > 0"):
            self.build(tuple(map(tuple, gains)))
        gains[0][0] = np.array([[0.0], [-0.3], [0.2]])  # both faults: own first
        with pytest.raises(ValueError, match=r"group \(0,0\): own gains must be > 0"):
            self.build(tuple(map(tuple, gains)))

    def test_duplicate_id_across_groups_of_different_sizes(self):
        gains = self.ragged_gains(np.random.default_rng(10))
        ids = (((0,), (1, 2, 3, 4)), ((5, 6, 7), (8, 9)), ((10, 4), (11,)))
        with pytest.raises(ValueError, match="user 4 appears in two groups"):
            self.build(gains, ids)
        ids = (((0,), (1, 2, 3, 4)), ((5, 6, 7), (8, 9)), ((10, 12), (11,)))
        assert self.build(gains, ids).dense_ids[2, 0, 2:].tolist() in ([10, 12], [12, 10])

    def test_id_count_must_match_the_group(self):
        gains = self.ragged_gains(np.random.default_rng(11))
        ids = (((0,), (1, 2, 3, 4)), ((5, 6, 7), (8, 9)), ((10, 12, 13), (11,)))
        with pytest.raises(ValueError, match=r"group \(2,0\): user id count mismatch"):
            self.build(gains, ids)

    def test_ties_keep_the_input_order(self):
        def group(i, own):
            g = np.full((3, len(own)), 0.1)
            g[i] = own
            return g

        gains = ((group(0, [1.0]), group(0, [1.0, 0.5, 1.0, 0.5])),
                 (group(1, [0.7, 0.7, 0.2]), group(1, [0.3, 0.3])),
                 (group(2, [0.9, 0.4]), group(2, [0.6])))
        top = self.build(gains)
        assert [[ids.tolist() for ids in row] for row in top.user_ids] == [
            [[0], [2, 4, 1, 3]], [[7, 5, 6], [8, 9]], [[11, 10], [12]]]
        assert top.own_gains(0, 1).tolist() == [0.5, 0.5, 1.0, 1.0]


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_suffix_sums_property(values):
    p = np.array(values)
    out = suffix_sums(p)
    for j in range(p.size):
        assert out[j] == pytest.approx(p[j + 1:].sum(), rel=1e-12, abs=1e-12)


def test_demands_for_other_groups_are_rejected():
    # same users in total (4 per cell, 8 overall) and the same largest group,
    # split (1, 3) / (3, 1) in one topology and (3, 1) / (1, 3) in the other
    rng = np.random.default_rng(13)

    def build(sizes):
        gains = tuple(tuple(rng.uniform(0.5, 1.0, size=(2, n)) * np.where(
            np.arange(2)[:, None] == i, 1.0, 0.1) for n in row)
            for i, row in enumerate(sizes))
        return NetworkTopology(bandwidth=1.0, noise_power=0.1,
                               budgets=np.full(2, 100.0), gains=gains)

    top, other = build(((1, 3), (3, 1))), build(((3, 1), (1, 3)))
    q_star = solve_spm(top, RateDemands.uniform(top, 0.5)).q_star
    demands = RateDemands.uniform(other, 0.5)
    assert demands.padded.shape == top.occupied.shape
    for call in (lambda: solve_spm(top, demands),
                 lambda: interference_map(top, demands, q_star),
                 lambda: assemble_full_solution(top, demands, q_star),
                 lambda: dpc_srm(top, demands)):
        with pytest.raises(ValueError, match="one per user of the topology"):
            call()


def test_padded_input_is_positive_with_padding_first():
    demands = RateDemands(np.array([[[0.0, 1.0, 2.0]], [[0.0, 0.0, 3.0]]]))
    assert [r.tolist() for row in demands.rates for r in row] == [[1.0, 2.0], [3.0]]
    for bad in ([[[1.0, 0.0, 2.0]]], [[[0.0, -1.0, 2.0]]], [[[np.nan, 1.0, 2.0]]]):
        with pytest.raises(ValueError, match="powers must be positive"):
            PowerAllocation(np.array(bad))
    with pytest.raises(ValueError, match="powers must be positive"):
        PowerAllocation(((np.array([0.0, 1.0]),),))


def test_demands_must_be_positive():
    top = two_cell_example()
    with pytest.raises(ValueError):
        RateDemands(((np.array([1.0, 0.0]),), (np.array([1.0, 1.0]),)))
    demands = RateDemands.uniform(top, 2.0)
    assert demands.rates[1][0] == pytest.approx([2.0, 2.0])
