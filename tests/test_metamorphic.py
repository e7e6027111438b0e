"""Metamorphic checks: the solvers' answers under relabelling and change of
units.

Each transform builds a new drop through ``NetworkTopology`` and
``RateDemands`` from a paper-size drop (the default config at 30 dBm), and
maps the transformed answer back before comparing it with the original:
the problem's least fixed point ``q*`` and ``dpc_srm``'s sum rate from
its default start.  A relabelling or a change of units changes neither,
so every check holds up to rounding.

Rounding differs because a roll or a reversal reorders the sums and the
pivoting of the linear solves, and a scale by 1e3 or 1e-3 is inexact in
binary.  Over the 34 feasible drops of seeds 0-39 the worst difference
seen was 4.4e-16 (two ulps) of the sum rate, and of the largest entry of
``q*``; a linear solve's rounding is at the scale of its largest entry,
so a small entry of ``q*`` can differ by 4e-15 of itself, and ``q*`` is
compared entry by entry against its largest entry.  ``RTOL`` allows
about 45 ulps, room for another numpy's reduction order, and is still
far below a real fault: scaling the default start by cell 0's budget
headroom in place of the least one moves the rolled sum rate by up to
3e-3 of itself.

Monotone properties of the model follow: the rate-max sum rate
``run_scenario`` reports does not fall as the budget rises, and the
problem's ``q*``, the least fixed point of a monotone standard
function, does not fall as one user's demand or one cross gain rises.
They are checked up to the same ``RTOL``, as is the noise-and-budgets
transform through ``run_scenario``: 30 dB more noise and budget leave
every summary row's verdict and sum rate and multiply its sum power by
1e3.  No entry of ``q*`` fell under a rising cross gain, not even by one
bit.  A drop feasible at some demand scale stays feasible at every
smaller one, a verdict with no tolerance to choose.
"""

import dataclasses
import math

import numpy as np
import pytest

from nomapower import (NetworkTopology, Problem, RateDemands, ScenarioConfig,
                       build_demands, dpc_srm, generate_channels, run_scenario)
from nomapower.scenario import dbm_to_watts

RTOL = 1e-14
SEEDS = range(40)


def roll_cells(top, dem, budgets):
    # cell i becomes cell i + 1, as a server and as an interferer
    return (NetworkTopology(top.bandwidth, top.noise_power,
                            np.roll(top.gains, 1, axis=(0, 2)),
                            np.roll(top.user_ids, 1, axis=0)),
            RateDemands(np.roll(dem.rates, 1, axis=0)), np.roll(budgets, 1),
            lambda q: np.roll(q, -1, axis=0), 1.0)


def reverse_subchannels(top, dem, budgets):
    return (NetworkTopology(top.bandwidth, top.noise_power,
                            top.gains[:, ::-1], top.user_ids[:, ::-1]),
            RateDemands(dem.rates[:, ::-1]), budgets,
            lambda q: q[:, ::-1], 1.0)


def scale_noise_and_budgets(top, dem, budgets):
    # every power scales with the noise, so q* scales and no rate moves
    return (NetworkTopology(top.bandwidth, top.noise_power * 1e3,
                            top.gains, top.user_ids),
            dem, budgets * 1e3, lambda q: q / 1e3, 1.0)


def scale_gains_and_noise(top, dem, budgets):
    # every ratio to an own gain holds, so nothing moves
    return (NetworkTopology(top.bandwidth, top.noise_power * 1e-3,
                            top.gains * 1e-3, top.user_ids),
            dem, budgets, lambda q: q, 1.0)


def scale_bandwidth_and_demands(top, dem, budgets):
    # the same spectral efficiencies: the same powers at twice the rates
    return (NetworkTopology(top.bandwidth * 2.0, top.noise_power,
                            top.gains, top.user_ids),
            RateDemands(dem.rates * 2.0), budgets, lambda q: q, 2.0)


TRANSFORMS = (roll_cells, reverse_subchannels, scale_noise_and_budgets,
              scale_gains_and_noise, scale_bandwidth_and_demands)


@pytest.fixture(scope="module")
def drops():
    """Each seed's (topology, demands, budgets, fixed-point report, dpc_srm
    sum rate or None where the drop has no fixed point within its budget)."""
    config = ScenarioConfig(algorithm="rate-max")
    out = []
    for seed in SEEDS:
        top = generate_channels(config, seed)
        dem = build_demands(config, top)
        budgets = np.full(top.num_cells, dbm_to_watts(config.budget_dbm_sweep[0]))
        problem = Problem(top, dem)
        spm = problem.fixed_point[0]
        out.append((top, dem, budgets, spm,
                    dpc_srm(problem, budgets).sum_rate if spm.fits(budgets) else None))
    assert sum(rate is not None for *_, rate in out) >= 30
    return out


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.__name__)
def test_answers_survive_the_transform(drops, transform):
    for seed, (top, dem, budgets, spm, sum_rate) in zip(SEEDS, drops):
        top_t, dem_t, budgets_t, undo, rate_scale = transform(top, dem, budgets)
        problem_t = Problem(top_t, dem_t)
        spm_t = problem_t.fixed_point[0]
        assert spm_t.fits(budgets_t) == spm.fits(budgets), seed
        if sum_rate is None:
            continue
        np.testing.assert_allclose(undo(spm_t.q_star), spm.q_star, rtol=0,
                                   atol=RTOL * spm.q_star.max(), err_msg=f"seed {seed}")
        rate_t = dpc_srm(problem_t, budgets_t).sum_rate / rate_scale
        assert rate_t == pytest.approx(sum_rate, rel=RTOL, abs=0), seed


def test_sum_rate_does_not_fall_along_a_budget_sweep():
    # a point feasible at one budget stays feasible at every larger one
    config = ScenarioConfig(algorithm="rate-max", seed=SEEDS.start,
                            num_seeds=len(SEEDS),
                            budget_dbm_sweep=[20.0, 23.0, 26.0, 30.0, 34.0, 40.0])
    rows = {}
    for row in run_scenario(config).summary:
        rows.setdefault(row.seed, []).append(row.sum_rate_bps)
    feasible = 0
    for seed, rates in rows.items():
        solved = [not math.isnan(rate) for rate in rates]
        assert solved == sorted(solved), seed
        rates = np.array(rates)[solved]
        assert np.all(rates[1:] >= rates[:-1] * (1.0 - RTOL)), seed
        feasible += rates.size
    assert feasible >= 200


def test_fixed_point_does_not_fall_as_one_demand_rises(drops):
    # each drop raises another user's demand by 10 %: that user's group
    # needs strictly more, and no other group needs less
    raised = 0
    for seed, (top, dem, budgets, spm, sum_rate) in zip(SEEDS, drops):
        if sum_rate is None:
            continue
        user = tuple(np.argwhere(top.occupied)[seed % top.occupied.sum()])
        rates = np.array(dem.rates, dtype=float)
        rates[user] *= 1.1
        spm_up = Problem(top, RateDemands(rates)).fixed_point[0]
        if not spm_up.fits(budgets):
            continue
        assert np.all(spm_up.q_star >= spm.q_star - RTOL * spm.q_star.max()), seed
        assert spm_up.q_star[user[:2]] > spm.q_star[user[:2]], seed
        raised += 1
    assert raised >= 30


@pytest.mark.parametrize("algorithm", ["power-min", "rate-max"])
def test_run_rows_survive_raising_noise_and_budgets_by_30_db(algorithm):
    # every power scales with the noise: 30 dB more noise and 30 dB more
    # budget multiply each row's sum power by 1e3 and leave its verdict
    # and its sum rate where they were
    config = ScenarioConfig(algorithm=algorithm, seed=SEEDS.start,
                            num_seeds=len(SEEDS), budget_dbm_sweep=[20.0, 30.0])
    raised = dataclasses.replace(config, noise_power_dbm=config.noise_power_dbm + 30.0,
                                 budget_dbm_sweep=[50.0, 60.0])
    rows, rows_up = run_scenario(config).summary, run_scenario(raised).summary
    assert len(rows) == len(rows_up) == 2 * len(SEEDS)
    solved = 0
    for row, up in zip(rows, rows_up):
        point = (row.seed, row.budget_dbm)
        assert (up.seed, up.budget_dbm) == (row.seed, row.budget_dbm + 30.0)
        assert (up.converged, up.iterations) == (row.converged, row.iterations), point
        assert math.isnan(up.sum_power_w) == math.isnan(row.sum_power_w), point
        if math.isnan(row.sum_power_w):
            continue
        assert up.sum_power_w == pytest.approx(1e3 * row.sum_power_w, rel=RTOL, abs=0), \
            point
        assert up.sum_rate_bps == pytest.approx(row.sum_rate_bps, rel=RTOL, abs=0), point
        solved += 1
    assert solved >= 60


def test_fixed_point_does_not_fall_as_one_cross_gain_rises(drops):
    # each feasible drop raises five of its cross gains by 10 %, one at a
    # time: a user hears more of another BS, and no group needs less
    raised = 0
    for seed, (top, dem, budgets, spm, sum_rate) in zip(SEEDS, drops):
        if sum_rate is None:
            continue
        cells = np.arange(top.num_cells)
        cross = top.occupied[:, :, None, :] & (cells[:, None] != cells)[:, None, :, None]
        links = np.argwhere(cross)
        rng = np.random.default_rng(seed)
        for link in links[rng.choice(len(links), size=5, replace=False)]:
            gains = np.array(top.gains)
            gains[tuple(link)] *= 1.1
            spm_up = Problem(NetworkTopology(top.bandwidth, top.noise_power,
                                             gains, top.user_ids), dem).fixed_point[0]
            assert np.all(spm_up.q_star >= spm.q_star - RTOL * spm.q_star.max()), \
                (seed, tuple(link))
            raised += 1
    assert raised >= 150


def test_feasibility_survives_a_falling_demand_scale(drops):
    # a drop whose demands, scaled by t, fit the budgets still fits them
    # with the demands scaled by 0.5 t, 0.9 t and 0.99 t
    checked = 0
    for seed, (top, dem, budgets, *_) in zip(SEEDS, drops):
        for scale in (1.0, 1.5, 2.0, 3.0):
            scaled = Problem(top, RateDemands(dem.rates * scale)).fixed_point[0]
            if not scaled.fits(budgets):
                continue
            for fall in (0.5, 0.9, 0.99):
                lower = RateDemands(dem.rates * (scale * fall))
                assert Problem(top, lower).fixed_point[0].fits(budgets), \
                    (seed, scale, fall)
                checked += 1
    assert checked >= 300
