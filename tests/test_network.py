import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_topology
from nomapower import (NetworkTopology, PowerAllocation, Problem, RateDemands,
                       dpc_spm, dpc_srm, random_feasible_start, scenario)
from nomapower.network import (dense_interference, dense_rates, front_pad,
                               group_rates, suffix_sums, unpad)
from nomapower.oracle import (grid_power_min, rate_constraint_slack,
                              rate_via_decoding_chain)
from nomapower.power_min import assemble_full_solution, interference_map


def two_cell_example():
    g0 = np.array([[0.5, 1.0], [0.1, 0.2]])
    g1 = np.array([[0.1, 0.2], [0.5, 1.0]])
    return NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g0,), (g1,)))


class TestEffectiveInterference:
    def test_two_cell_worked_values(self):
        top = two_cell_example()
        q = np.array([[0.0], [1.0]])
        h = dense_interference(top, q)[0, 0]
        assert h == pytest.approx([0.4, 0.3], abs=1e-15)

    def test_zero_other_power_leaves_noise_only(self):
        top = two_cell_example()
        q = np.zeros((2, 1))
        assert dense_interference(top, q)[0, 0] == pytest.approx([0.2, 0.1])

    def test_single_cell_is_independent_of_q(self):
        g = np.array([[0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,),))
        for qv in (0.0, 1.0, 7.5):
            h = dense_interference(top, np.array([[qv]]))[0, 0]
            assert h == pytest.approx([0.2, 0.1])

    def test_non_increasing_along_sorted_users(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            top = sample_topology(rng, num_cells=2, users=(2, 5))
            q = rng.uniform(0.0, 2.0, size=(2, 1))
            h = unpad(dense_interference(top, q), top.occupied)[0][0]
            assert np.all(np.diff(h) <= 1e-15)

    def test_monotone_and_scalable_in_q(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            top = sample_topology(rng, num_cells=3, num_subchannels=2, users=3)
            q1 = rng.uniform(0.0, 2.0, size=(3, 2))
            q2 = q1 * rng.uniform(0.0, 1.0, size=(3, 2))
            lam = rng.uniform(1.0 + 1e-9, 10.0)
            h1 = dense_interference(top, q1)
            assert np.all(h1 >= dense_interference(top, q2))
            assert np.all(lam * h1 > dense_interference(top, lam * q1))


class TestAchievableRate:
    def test_single_user_unit_snr(self):
        g = np.array([[1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=1.0, gains=((g,),))
        alloc = PowerAllocation(((np.array([1.0]),),))
        q = np.array([[1.0]])
        assert dense_rates(top, alloc, q)[0, 0] == pytest.approx([1.0])

    def test_two_user_worked_values(self):
        # H = (3, 1) via own gains (1, 3) at noise 3
        g = np.array([[1.0, 3.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=3.0, gains=((g,),))
        alloc = PowerAllocation(((np.array([4.0, 1.0]),),))
        rates = dense_rates(top, alloc, np.array([[5.0]]))[0, 0]
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
            p = [[rng.uniform(0.05, 2.0, size=top.occupied[i, 0].sum())
                  for _ in range(1)] for i in range(2)]
            alloc = PowerAllocation(tuple(tuple(row) for row in p))
            direct = unpad(dense_rates(top, alloc, q), top.occupied)
            for i in range(2):
                chained = rate_via_decoding_chain(top, alloc, q, i, 0)
                assert direct[i][0] == pytest.approx(chained, rel=1e-12)


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
        slack = rate_constraint_slack(alloc.powers, dense_interference(top, q),
                                      demands.rates, top.bandwidth)
        assert slack.shape == (2, 1, 2)
        assert np.all(slack >= -1e-12 * np.maximum(alloc.powers, 1.0))
        assert abs(slack[0, 0, 0]) < 1e-12


class TestTopologyConstruction:
    def test_sorts_users_by_own_gain(self):
        g = np.array([[2.0, 0.5, 1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,),))
        assert list(top.gains[0][0][0]) == [0.5, 1.0, 2.0]
        assert list(top.user_ids[0][0]) == [1, 2, 0]

    def test_ties_keep_original_order(self):
        g = np.array([[1.0, 1.0, 0.5]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=((g,),))
        assert list(top.user_ids[0][0]) == [2, 0, 1]

    def test_rejects_bad_inputs(self):
        g = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=0.0, noise_power=0.1, gains=((g,),))
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=1.0, noise_power=0.0, gains=((g,),))
        with pytest.raises(ValueError):
            NetworkTopology(bandwidth=1.0, noise_power=0.1,
                            gains=((np.array([[0.0, 1.0]]),),))

    def test_nested_gains_need_one_row_per_cell(self):
        with pytest.raises(ValueError, match="one row of groups per cell"):
            NetworkTopology(bandwidth=1.0, noise_power=0.1,
                            gains=((np.array([[0.5, 1.0], [0.1, 0.2]]),),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scalars(self, bad):
        gains = two_cell_example().gains
        for field, value in (("bandwidth", bad), ("noise_power", bad)):
            kwargs = dict(bandwidth=1.0, noise_power=0.1, gains=gains)
            kwargs[field] = value
            with pytest.raises(ValueError, match="finite"):
                NetworkTopology(**kwargs)

    def test_infinite_gains_are_refused(self):
        # +inf passes a test for gains >= 0: an own gain of inf set its
        # user's ratios to 0 (after an inf / inf warning) and the fixed
        # point converged, and a cross gain of inf certified no fixed
        # point.  Each is refused, nested, padded and with no padding
        g0, g1 = np.array([[1.0, 2.0], [0.1, 0.2]]), np.array([[0.1, 0.2], [1.0, 2.0]])
        padded = np.zeros((2, 1, 2, 3))
        padded[0, 0, :, 1:], padded[1, 0, :, 1:] = g0, g1    # slot 0 is padding
        full = padded[..., 1:]
        for index in ((0, 0, 0, 1), (0, 0, 1, 1), (1, 0, 0, 0)):   # own, cross, cross
            nested = [g0.copy(), g1.copy()]
            nested[index[0]][index[2:]] = np.inf
            for gains in (((nested[0],), (nested[1],)), full.copy(), padded.copy()):
                if isinstance(gains, np.ndarray):
                    gains[index[:3] + (index[3] + gains.shape[-1] - 2,)] = np.inf
                with pytest.raises(ValueError, match=rf"group \({index[0]},0\): "
                                                     "gains must be finite"):
                    NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=gains)

    @pytest.mark.parametrize("budgets", [[5.0, np.nan], [5.0, np.inf], [-1.0, 5.0],
                                         [5.0, 0.0], [5.0], [[5.0, 5.0]], 5.0],
                             ids=["nan", "inf", "negative", "zero", "one-short",
                                  "2-d", "scalar"])
    def test_budgets_are_checked_by_every_entry_that_takes_them(self, budgets):
        # budgets are no part of the topology; each public entry that reads
        # them checks them with the rule the constructor once applied
        top = two_cell_example()
        demands = RateDemands.uniform(top, 1.0)
        for call in (lambda: dpc_spm(Problem(top, demands), budgets),
                     lambda: dpc_srm(Problem(top, demands), budgets),
                     lambda: random_feasible_start(Problem(top, demands), budgets,
                                                   np.random.default_rng(0)),
                     lambda: grid_power_min(top, demands, budgets, resolution=0.5)):
            with pytest.raises(ValueError, match="budgets must be a 1-D positive"
                                                 " finite array"):
                call()

    def test_duplicate_user_ids_rejected(self):
        g = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="two groups"):
            NetworkTopology(bandwidth=1.0, noise_power=0.1,
                            gains=((g, g),),
                            user_ids=(((0, 1), (1, 2)),))

    def test_arrays_are_immutable(self):
        top = two_cell_example()
        with pytest.raises(ValueError):
            top.gains[0][0][0, 0] = 2.0
        with pytest.raises(ValueError):
            top.cross_ratio[0, 0, 0, 1] = 2.0
        with pytest.raises(ValueError):
            top.noise_ratio[0, 0, 0] = 2.0
        demands = RateDemands.uniform(top, 1.0)
        nested = ((np.array([0.7, 0.3]),), (np.array([0.7, 0.3]),))
        for alloc in (PowerAllocation(nested), PowerAllocation(np.array(nested))):
            for array in (demands.rates, demands.rates[1][0],
                          alloc.powers, alloc.powers[1][0]):
                with pytest.raises(ValueError):
                    array[...] = 1.0
        assert nested[0][0].flags.writeable     # the input is copied, not frozen
        for array in (top.user_ids[1][0], top.gains, top.user_ids, top.occupied):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_single_user_groups_allowed(self):
        g = np.array([[1.0]])
        top = NetworkTopology(bandwidth=1.0, noise_power=0.5, gains=((g,),))
        assert top.occupied[0, 0].sum() == 1


class TestRaggedTopology:
    SIZES = ((1, 4), (3, 2), (2, 1))        # users per (cell, subchannel)

    def ragged_gains(self, rng):
        """Unsorted positive gains for 3 cells x 2 subchannels of 1-4 users."""
        return tuple(
            tuple(rng.uniform(0.1, 2.0, size=(3, n)) for n in row)
            for row in self.SIZES)

    def build(self, gains, user_ids=None):
        return NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=gains,
                               user_ids=user_ids)

    def test_padding_never_trips_a_check(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gains = self.ragged_gains(rng)
            top = self.build(gains)
            assert top.max_group_size == 4
            next_id = 0
            sorted_gains = unpad(top.gains, top.occupied)
            sorted_ids = unpad(top.user_ids, top.occupied)
            for i, m in top.groups():
                g = gains[i][m]
                n = g.shape[1]
                order = np.argsort(g[i], kind="stable")
                assert top.occupied[i, m].sum() == n
                assert np.array_equal(sorted_gains[i][m], g[:, order])
                assert np.array_equal(sorted_ids[i][m], next_id + order)
                next_id += n
                assert top.occupied[i, m].tolist() == [False] * (4 - n) + [True] * n
                # the padding holds 0 in every array
                assert not top.gains[i, m, :, :4 - n].any()
                assert not top.cross_ratio[i, m, :4 - n].any()
                assert not top.noise_ratio[i, m, :4 - n].any()
                assert np.array_equal(top.cross_ratio[i, m, 4 - n:],
                                      (g[:, order] / g[i, order]).T
                                      * (np.arange(3) != i))
                assert np.array_equal(top.noise_ratio[i, m, 4 - n:], 0.1 / g[i, order])
            values = tuple(tuple(rng.uniform(size=n) for n in row) for row in self.SIZES)
            padded, occupied = front_pad(values)
            assert np.array_equal(occupied, top.occupied)
            back = unpad(padded, top.occupied)
            for i, m in top.groups():
                assert np.array_equal(back[i][m], values[i][m])

    def test_groups_may_all_be_empty(self):
        empty = tuple((np.zeros((3, 0)), np.zeros((3, 0))) for _ in range(3))
        top = self.build(empty)
        assert top.max_group_size == 0
        assert top.cross_ratio.shape == (3, 2, 0, 3)
        values = tuple((np.zeros(0), np.zeros(0)) for _ in range(3))
        padded, occupied = front_pad(values)
        assert padded.shape == occupied.shape == (3, 2, 0)
        assert unpad(padded, top.occupied)[2][1].size == 0

    def test_mis_nested_demands_are_rejected(self):
        top = self.build(self.ragged_gains(np.random.default_rng(12)))
        a, b, c, d, e, f = (np.ones(n) for row in self.SIZES for n in row)
        # the flat sizes (1, 4, 3, 2, 2, 1) line up, the nesting does not
        with pytest.raises(ValueError, match="every cell must cover the same subchannels"):
            RateDemands(((a, b, c), (d, e), (f,)))
        for wrong in (((a, b), (c, d)), ((a, b), (c, np.ones(3)), (e, f))):
            with pytest.raises(ValueError, match="one per user of the topology"):
                RateDemands(wrong).padded_for(top)

    @pytest.mark.parametrize("group", [np.array([[3.0, 4.0]]), np.array(3.0)],
                             ids=["1-by-n", "0-d"])
    @pytest.mark.parametrize("container", ["rates", "powers", "user_ids"])
    def test_mis_shaped_group_is_named(self, container, group):
        # a (1, n) group once broadcast into its (n,) slot, a 0-d one hit IndexError
        nested = ((np.array([1.0, 2.0]),), (group,))
        build = {"rates": RateDemands, "powers": PowerAllocation,
                 "user_ids": lambda ids: NetworkTopology(
                     bandwidth=1.0, noise_power=0.1,
                     gains=((np.ones((2, 2)),), (np.ones((2, 2)),)), user_ids=ids)}
        with pytest.raises(ValueError, match=r"group \(1,0\): values of shape"):
            build[container](nested)

    def test_gain_group_must_cover_every_cell(self):
        gains = [list(row) for row in self.ragged_gains(np.random.default_rng(14))]
        gains[1][0] = gains[1][0][:2]
        with pytest.raises(ValueError, match=r"group \(1,0\): values of shape \(2, 3\),"
                                             r" want \(3, n\)"):
            self.build(tuple(map(tuple, gains)))

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
        assert self.build(gains, ids).user_ids[2, 0, 2:].tolist() in ([10, 12], [12, 10])

    def test_id_nesting_must_match_the_gains(self):
        gains = self.ragged_gains(np.random.default_rng(15))
        ids = (((0,), (1, 2, 3, 4), (20,)), ((5, 6, 7), (8, 9), (21,)),
               ((10, 12), (11,), (22,)))
        with pytest.raises(ValueError, match=r"user ids nested over 3 x 3 \(cell,"
                                             r" subchannel\) groups, gains over 3 x 2"):
            self.build(gains, ids)

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
        assert [[ids.tolist() for ids in row]
                for row in unpad(top.user_ids, top.occupied)] == [
            [[0], [2, 4, 1, 3]], [[7, 5, 6], [8, 9]], [[11, 10], [12]]]
        assert top.gains[0][1][0].tolist() == [0.5, 0.5, 1.0, 1.0]


def assert_same_topology(a, b):
    for name in ("gains", "user_ids", "occupied", "cross_ratio", "noise_ratio"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestDenseInput:
    """The constructor takes front-padded gains and ids as well as nested
    groups, and both build the same topology."""

    @staticmethod
    def ragged_instance(rng):
        """Nested gains and ids: 2-5 cells, up to 3 subchannels, groups of
        1-4 users in random order, own gains drawn from three values so
        that ties are common."""
        num_cells, num_sub = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        sizes = rng.integers(1, 5, size=(num_cells, num_sub))
        ids = iter(rng.permutation(int(sizes.sum())) * 3 + 7)
        gains, user_ids = [], []
        for i, row in enumerate(sizes):
            gains.append([])
            user_ids.append([])
            for n in row:
                g = rng.uniform(0.0, 0.3, size=(num_cells, n))
                g[i] = rng.choice([0.5, 1.0, 1.5], size=n)
                gains[-1].append(g)
                user_ids[-1].append(np.array([next(ids) for _ in range(n)]))
        return tuple(map(tuple, gains)), tuple(map(tuple, user_ids))

    @staticmethod
    def front_padded(nested, fill=0):
        """The groups as one array, front-padded with ``fill``, slot by slot."""
        n_max = max(np.shape(v)[-1] for row in nested for v in row)
        lead = np.shape(nested[0][0])[:-1]
        out = np.full((len(nested), len(nested[0])) + lead + (n_max,), fill,
                      dtype=np.asarray(nested[0][0]).dtype)
        for i, row in enumerate(nested):
            for m, v in enumerate(row):
                out[i, m, ..., n_max - np.shape(v)[-1]:] = v
        return out

    @staticmethod
    def build(gains, user_ids=None):
        return NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=gains,
                               user_ids=user_ids)

    def test_ragged_instances_match_nested_input(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            gains, ids = self.ragged_instance(rng)
            # padded ids are ignored, so any value may sit there
            padded_gains = self.front_padded(gains)
            padded_ids = self.front_padded(ids, -1)
            nested = self.build(gains, ids)
            assert_same_topology(nested, self.build(padded_gains, padded_ids))
            assert_same_topology(self.build(gains), self.build(padded_gains))
            # a built topology's sorted arrays build it again, and sorted
            # input, which keeps its order, is copied, not frozen in place
            assert_same_topology(nested, self.build(nested.gains, nested.user_ids))
            given = np.array(nested.gains)
            again = self.build(given, nested.user_ids)
            assert given.flags.writeable and not np.shares_memory(again.gains, given)
            assert not nested.user_ids[~nested.occupied].any()

    def test_channel_drops_match_nested_input(self, monkeypatch):
        calls = []

        def record(**kwargs):
            calls.append(kwargs)
            return NetworkTopology(**kwargs)

        monkeypatch.setattr(scenario, "NetworkTopology", record)
        for cells, subchannels, pairing in ((3, 2, "SW"), (7, 4, "SS"), (2, 1, "SM")):
            config = scenario.ScenarioConfig(num_cells=cells,
                                             users_per_cell=2 * subchannels,
                                             num_subchannels=subchannels,
                                             pairing=pairing)
            for seed in range(4):
                top = scenario.generate_channels(config, seed)
                kwargs = calls.pop()
                assert isinstance(kwargs["gains"], np.ndarray)
                nested = dict(kwargs, gains=tuple(map(tuple, kwargs["gains"])),
                              user_ids=tuple(map(tuple, kwargs["user_ids"])))
                assert_same_topology(top, NetworkTopology(**nested))

    def test_malformed_dense_input_raises(self):
        rng = np.random.default_rng(22)
        own = np.array([[0.0, 1.0, 2.0]])               # slot 0 is padding
        gains = rng.uniform(0.1, 0.3, size=(2, 1, 2, 3)) * (own > 0)
        gains[[0, 1], :, [0, 1]] = own
        ids = np.array([[[0, 1, 2]], [[0, 3, 4]]])
        assert self.build(gains, ids).user_ids.tolist() == [[[0, 1, 2]], [[0, 3, 4]]]

        def changed(index, value):
            bad = gains.copy()
            bad[index] = value
            return bad

        cases = {
            "ndim": (gains[..., 0], ids),
            "cells": (gains[:1], ids),
            "base stations": (gains[:, :, :1], ids),
            "padding not in front": (gains[..., [1, 0, 2]], ids),
            "gain in a padded slot": (changed((0, 0, 1, 0), 0.3), ids),
            "zero own gain": (changed((1, 0, 1, 1), 0.0), ids),
            "negative own gain": (changed((0, 0, 0, 2), -1.0), ids),
            "negative cross gain": (changed((0, 0, 1, 2), -0.1), ids),
            "nan gain": (changed((1, 0, 0, 1), np.nan), ids),
            "id shape": (gains, ids[..., 1:]),
            "id ndim": (gains, ids[..., None]),
            "duplicate ids": (gains, np.array([[[0, 1, 2]], [[0, 3, 1]]])),
        }
        # every slot holds a user: no padding, so no padding rule applies,
        # and the sign and id checks must still catch each of these
        full = rng.uniform(0.1, 0.3, size=(2, 1, 2, 3))
        full[[0, 1], :, [0, 1]] = [[0.5, 1.0, 2.0]]
        full_ids = np.array([[[0, 1, 2]], [[3, 4, 5]]])
        assert self.build(full, full_ids).occupied.all()
        gains, ids = full, full_ids             # changed() now edits these gains
        cases.update({
            "no padding, nan cross gain": (changed((0, 0, 1, 1), np.nan), ids),
            "no padding, negative cross gain": (changed((1, 0, 0, 0), -0.1), ids),
            "no padding, -inf cross gain": (changed((1, 0, 0, 2), -np.inf), ids),
            "no padding, nan own gain": (changed((0, 0, 0, 1), np.nan), ids),
            "no padding, duplicate ids": (gains, np.array([[[0, 1, 2]], [[3, 2, 5]]])),
        })
        for case, (bad_gains, bad_ids) in cases.items():
            with pytest.raises(ValueError):
                self.build(bad_gains, bad_ids)
                pytest.fail(case)


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
        return NetworkTopology(bandwidth=1.0, noise_power=0.1, gains=gains)

    top, other = build(((1, 3), (3, 1))), build(((3, 1), (1, 3)))
    q_star = Problem(top, RateDemands.uniform(top, 0.5)).fixed_point[0].q_star
    demands = RateDemands.uniform(other, 0.5)
    assert demands.rates.shape == top.occupied.shape
    for call in (lambda: Problem(top, demands),
                 lambda: interference_map(top, demands, q_star),
                 lambda: assemble_full_solution(top, demands, q_star),
                 lambda: dpc_srm(Problem(top, demands), np.full(2, 100.0))):
        with pytest.raises(ValueError, match="one per user of the topology"):
            call()


def test_padded_input_is_positive_with_padding_first():
    demands = RateDemands(np.array([[[0.0, 1.0, 2.0]], [[0.0, 0.0, 3.0]]]))
    groups = unpad(demands.rates, demands.rates > 0)
    assert [r.tolist() for row in groups for r in row] == [[1.0, 2.0], [3.0]]
    for bad in ([[[1.0, 0.0, 2.0]]], [[[0.0, -1.0, 2.0]]], [[[np.nan, 1.0, 2.0]]]):
        with pytest.raises(ValueError, match="powers must be positive"):
            PowerAllocation(np.array(bad))
    with pytest.raises(ValueError, match="powers must be positive"):
        PowerAllocation(((np.array([0.0, 1.0]),),))
    # every slot holds a user: a NaN, zero or negative value among
    # positive ones is refused, and a positive array is kept as it is
    full = np.array([[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]])
    assert np.array_equal(RateDemands(full).rates, full)
    assert np.array_equal(PowerAllocation(full).powers, full)
    for index, value in (((1, 0, 1), np.nan), ((0, 0, 2), 0.0), ((1, 0, 2), -1.0),
                         ((0, 0, 0), -np.inf), ((1, 0, 0), np.nan)):
        bad = full.copy()
        bad[index] = value
        with pytest.raises(ValueError, match="rate demands must be positive"):
            RateDemands(bad)
        with pytest.raises(ValueError, match="powers must be positive"):
            PowerAllocation(bad)


@pytest.mark.parametrize("shape", [(), (2,), (1, 2), (1, 1, 1, 2)])
def test_container_arrays_must_be_three_dimensional(shape):
    # a 1-D demands array used to build and fail only against a topology,
    # and a 0-d powers array raised an IndexError
    for container, what in ((RateDemands, "rate demands"), (PowerAllocation, "powers")):
        with pytest.raises(ValueError, match=rf"{what} must be an \(I, M, n_max\) array"):
            container(np.ones(shape))


def test_demands_must_be_positive():
    top = two_cell_example()
    with pytest.raises(ValueError):
        RateDemands(((np.array([1.0, 0.0]),), (np.array([1.0, 1.0]),)))
    demands = RateDemands.uniform(top, 2.0)
    assert demands.rates[1][0] == pytest.approx([2.0, 2.0])


def test_containers_compare_by_identity():
    # a dataclass __eq__ would compare the arrays inside a tuple and raise
    # numpy's ambiguous-truth ValueError; == and != must return bools
    top = two_cell_example()
    rates = RateDemands.uniform(top, 2.0).rates
    powers = rates * 0.5
    pairs = ((RateDemands(rates), RateDemands(rates.copy())),
             (PowerAllocation(powers), PowerAllocation(powers.copy())),
             (top, dataclasses.replace(top)))
    for a, b in pairs:
        assert (a == a) is True and (a != a) is False
        assert (a == b) is False and (a != b) is True
        assert len({a, b}) == 2
