import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from nomapower import (NetworkTopology, PowerAllocation, assemble_full_solution,
                       dpc_spm, load_config, run_scenario, scenario,
                       write_outputs)
from nomapower.cli import main
from nomapower.scenario import (ALGORITHMS, ConfigError, ScenarioConfig,
                                _drop_users, _site_layout, _validate,
                                build_demands, dbm_to_watts, generate_channels,
                                link_gain_db, pair_users, run_fixture_checks)

GOOD_CONFIG = """\
scenario:
  seed: 3
  algorithm: power-min
cells:
  num_cells: 2
  users_per_cell: 4
  users_per_subchannel: 2
  num_subchannels: 2
  pairing: SW
radio:
  budget_dbm_sweep: [30.0]
  rate_demand_bps: 3.0e5
"""


def small_config(**overrides):
    base = dict(seed=3, algorithm="power-min", num_cells=2, users_per_cell=4,
                users_per_subchannel=2, num_subchannels=2, pairing="SW",
                budget_dbm_sweep=[30.0], rate_demand_bps=3.0e5)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG)
        config = load_config(path)
        assert config.seed == 3
        assert config.num_cells == 2
        assert config.budget_dbm_sweep == [30.0]

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG + "  turbo: true\n")
        with pytest.raises(ConfigError, match="unknown key 'turbo'"):
            load_config(path)

    def test_unknown_section_is_an_error(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG + "extras:\n  x: 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_power_tol_w_is_deprecated(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG + "solver:\n  power_tol_w: 1.0e-8\n")
        with pytest.warns(DeprecationWarning, match="power_tol_w"):
            assert load_config(path).power_tol_w == 1e-8
        # the shipped example no longer carries the key
        example = Path(__file__).resolve().parents[1] / "scripts" / "three_cell.yaml"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load_config(example)

    def test_validation_rules(self):
        with pytest.raises(ConfigError):
            small_config(algorithm="magic")
        with pytest.raises(ConfigError):
            small_config(pairing="WW")
        with pytest.raises(ConfigError):
            small_config(users_per_cell=5)
        with pytest.raises(ConfigError):
            small_config(num_subchannels=3)      # 4 != 2 * 3
        with pytest.raises(ConfigError):
            small_config(rate_demand_bps=-1.0)
        with pytest.raises(ConfigError):
            small_config(budget_dbm_sweep=[])
        with pytest.raises(ConfigError):
            small_config(layout="custom")        # missing positions

    @pytest.mark.parametrize("radius", [-5.0, 0.0])
    def test_cell_radius_must_be_positive(self, radius, tmp_path):
        with pytest.raises(ConfigError, match="cell_radius_m"):
            small_config(cell_radius_m=radius)
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG.replace(
            "  pairing: SW\n", f"  pairing: SW\n  cell_radius_m: {radius}\n"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_per_user_rate_list_length_checked(self):
        with pytest.raises(ConfigError):
            small_config(rate_demand_bps=[1e5, 2e5])
        cfg = small_config(rate_demand_bps=[1e5, 2e5, 3e5, 4e5])
        assert cfg.rate_demand_bps[3] == 4e5


class TestPairUsers:
    def test_eight_user_patterns(self):
        idx = range(8)
        assert pair_users(idx, "SW") == [(0, 7), (1, 6), (2, 5), (3, 4)]
        assert pair_users(idx, "SM") == [(0, 4), (1, 5), (2, 6), (3, 7)]
        assert pair_users(idx, "SS") == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_two_users_single_pair(self):
        for method in ("SS", "SW", "SM"):
            assert pair_users(range(2), method) == [(0, 1)]

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="cannot pair"):
            pair_users(range(5), "SW")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            pair_users(range(4), "XX")


class TestChannels:
    def test_path_loss_reference_values(self):
        config = small_config(antenna_gain_dbi=0.0, shadowing_std_db=1e-12)
        assert link_gain_db(config, 1000.0) == pytest.approx(-128.1)
        expected = -(128.1 + 37.6 * np.log10(0.8))
        assert link_gain_db(config, 800.0) == pytest.approx(expected)
        gain_linear = 10.0 ** (link_gain_db(config, 800.0) / 10.0)
        assert gain_linear == pytest.approx(10.0 ** (-12.44564), rel=1e-4)

    def test_same_seed_is_bit_identical(self):
        config = small_config()
        a = generate_channels(config, 11)
        b = generate_channels(config, 11)
        for i, m in a.groups():
            assert np.array_equal(a.gains[i][m], b.gains[i][m])
            assert np.array_equal(a.user_ids[i][m], b.user_ids[i][m])

    # sha256 prefixes of the topology bytes (gains and user ids per group,
    # cross_ratio, noise_ratio), recorded with the one-user-at-a-time,
    # one-group-at-a-time implementation; they pin the random stream and
    # every floating-point step of the channel model (numpy's PCG64 and the
    # platform's libm)
    CHANNEL_DIGESTS = {
        "3x2-SS-0": "c06574e00249c3a4", "3x2-SS-1": "95fa7e5eb7808763",
        "3x2-SS-7": "14c982dcb96faf0d", "3x2-SS-300000": "f0735f35a81bccfd",
        "3x2-SW-0": "3ecf55d6a47aafa5", "3x2-SW-1": "90b1550a0d8b827d",
        "3x2-SW-7": "4b874b56324ba54b", "3x2-SW-300000": "a855b09a290fa394",
        "3x2-SM-0": "fdaab5a437b77427", "3x2-SM-1": "b09cd176bcf4b420",
        "3x2-SM-7": "7f5168bf4e84e768", "3x2-SM-300000": "53b5cc3045db64e6",
        "7x4-SS-0": "e109a78ef777b736", "7x4-SS-1": "ca612aeb6ecd2c56",
        "7x4-SS-7": "bf1f2a811dd2ff43", "7x4-SS-300000": "09dcb3959f1d01a9",
        "7x4-SW-0": "96f7d43545ad2e29", "7x4-SW-1": "79e9940d77b7cca2",
        "7x4-SW-7": "113228fb6df17eb3", "7x4-SW-300000": "d89e419077caa7ec",
        "7x4-SM-0": "a48eb5ee592b2587", "7x4-SM-1": "79890ddf365f2dc2",
        "7x4-SM-7": "421162b1279e43f4", "7x4-SM-300000": "85e81a5b576d8ef8",
    }

    def test_channel_stream_is_pinned(self):
        for key, want in self.CHANNEL_DIGESTS.items():
            size, pairing, seed = key.split("-")
            cells, subchannels = map(int, size.split("x"))
            config = ScenarioConfig(num_cells=cells, num_subchannels=subchannels,
                                    users_per_cell=2 * subchannels,
                                    pairing=pairing)
            top = generate_channels(config, int(seed))
            digest = hashlib.sha256()
            for i, m in top.groups():
                digest.update(np.ascontiguousarray(top.gains[i][m]).tobytes())
                digest.update(np.asarray(top.user_ids[i][m], np.int64).tobytes())
            digest.update(top.cross_ratio.tobytes())
            digest.update(top.noise_ratio.tobytes())
            assert digest.hexdigest()[:16] == want, key

    @staticmethod
    def one_user_at_a_time(config, seed):
        """The users a plain per-user rejection loop places, same stream."""
        rng = np.random.default_rng(seed)
        users = []
        for site in _site_layout(config)[0]:
            for _ in range(config.users_per_cell):
                for _ in range(1000):
                    pos = site + rng.uniform(-config.radius, config.radius, size=2)
                    if config.min_distance_m <= np.linalg.norm(pos - site) <= config.radius:
                        users.append(pos)
                        break
                else:
                    raise RuntimeError("could not place a user after 1000 draws")
        return np.array(users)

    def test_batched_placement_matches_one_user_at_a_time(self):
        # thin rings: users need ~50 (395 m) or ~500 (399.5 m) draws, so
        # runs of rejections span many rounds and some reach the limit
        outcomes = set()
        for min_distance in (395.0, 399.5):
            config = small_config(min_distance_m=min_distance)
            for seed in range(6):
                try:
                    want = self.one_user_at_a_time(config, seed)
                except RuntimeError:
                    with pytest.raises(RuntimeError, match="after 1000 draws"):
                        _drop_users(np.random.default_rng(seed),
                                    _site_layout(config)[0],
                                    config.users_per_cell, config)
                    outcomes.add("raised")
                    continue
                got = _drop_users(np.random.default_rng(seed),
                                  _site_layout(config)[0],
                                  config.users_per_cell, config)
                assert np.array_equal(got, want)
                outcomes.add("placed")
        assert outcomes == {"placed", "raised"}

    def test_unplaceable_user_raises_after_1000_draws(self, monkeypatch):
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.trials = rng, 0

            def uniform(self, low, high, size):
                self.trials += size[0]
                assert self.trials <= 2000, "rejection sampling did not stop"
                return self.rng.uniform(low, high, size)

        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: made.append(CountingRng(real(seed))) or made[-1])
        with pytest.raises(RuntimeError,
                           match="could not place a user after 1000 draws"):
            generate_channels(ScenarioConfig(min_distance_m=500.0), 3)
        # the first user of the first cell fails, after as many draws as a
        # one-user-at-a-time loop makes
        assert made[0].trials == 1000

    def test_different_seeds_differ(self):
        config = small_config()
        a = generate_channels(config, 11)
        b = generate_channels(config, 12)
        assert not np.array_equal(a.gains[0][0], b.gains[0][0])

    def test_shapes_and_budget(self):
        config = small_config()
        top = generate_channels(config, 1)
        assert top.num_cells == 2 and top.num_subchannels == 2
        assert top.budgets[0] == pytest.approx(dbm_to_watts(30.0))
        for i, m in top.groups():
            assert top.gains[i][m].shape == (2, 2)

    def test_pairing_controls_group_membership(self):
        config = small_config()
        sw = generate_channels(config, 5)
        ss = generate_channels(small_config(pairing="SS"), 5)
        # same user drop, different grouping: SW puts the strongest with the
        # weakest on one subchannel
        sw_ids = {tuple(sorted(sw.user_ids[0][m])) for m in range(2)}
        ss_ids = {tuple(sorted(ss.user_ids[0][m])) for m in range(2)}
        assert sw_ids != ss_ids

    def test_demands_per_user_by_rank(self):
        config = small_config(rate_demand_bps=[1e5, 2e5, 3e5, 4e5])
        top = generate_channels(config, 2)
        demands = build_demands(config, top)
        # SW pairing: subchannel 0 gets ranks (0, 3), subchannel 1 ranks (1, 2)
        assert sorted(np.concatenate([demands.rates[0][0],
                                      demands.rates[0][1]]).tolist()) == \
            [1e5, 2e5, 3e5, 4e5]
        assert demands.rates[0][0].tolist() == [1e5, 4e5]
        assert demands.rates[0][1].tolist() == [2e5, 3e5]

    def test_demand_list_follows_own_gain_rank(self):
        rates = [1e5, 2e5, 3e5, 4e5]
        for pairing in ("SS", "SW", "SM"):
            config = small_config(rate_demand_bps=rates, pairing=pairing)
            for seed in range(10):
                top = generate_channels(config, seed)
                demands = build_demands(config, top)
                for i in range(top.num_cells):
                    own = np.concatenate([top.own_gains(i, m) for m in range(2)])
                    wanted = np.concatenate(demands.rates[i])
                    # entry 0 of the list belongs to the cell's weakest user
                    assert wanted[np.argsort(own)].tolist() == rates

    def test_custom_layout(self):
        config = small_config(layout="custom",
                              site_positions_m=[[0.0, 0.0], [1000.0, 0.0]],
                              cell_radius_m=300.0)
        top = generate_channels(config, 3)
        assert top.num_cells == 2
        # own gains should dominate cross gains at these distances
        for i, m in top.groups():
            assert np.median(top.gains[i][m][i]) > np.median(
                top.gains[i][m][1 - i])


class TestRunScenario:
    def test_sweep_produces_one_row_per_budget(self):
        config = small_config(budget_dbm_sweep=[20.0, 25.0, 30.0])
        artifacts = run_scenario(config)
        assert len(artifacts.summary) == 3
        assert artifacts.ok
        budgets = [row.budget_dbm for row in artifacts.summary]
        assert budgets == [20.0, 25.0, 30.0]
        for row in artifacts.summary:
            assert row.converged
            assert row.trace_file in artifacts.traces

    def test_multiple_seeds(self):
        config = small_config(num_seeds=2)
        artifacts = run_scenario(config)
        assert [r.seed for r in artifacts.summary] == [3, 4]

    def test_rate_max_row(self):
        config = small_config(algorithm="rate-max", rate_demand_bps=1.0e5)
        artifacts = run_scenario(config)
        row = artifacts.summary[0]
        assert row.converged and artifacts.ok
        assert row.sum_rate_bps > 4 * 1.0e5      # well above the demand floor

    def test_multistart_never_hurts(self):
        base = small_config(algorithm="rate-max", rate_demand_bps=1.0e5)
        multi = small_config(algorithm="rate-max", rate_demand_bps=1.0e5,
                             multistart=4)
        one = run_scenario(base).summary[0].sum_rate_bps
        best = run_scenario(multi).summary[0].sum_rate_bps
        assert best >= one - 1e-6 * abs(one)

    def test_csv_reproducibility(self, tmp_path):
        config = small_config(budget_dbm_sweep=[25.0, 30.0])
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        write_outputs(run_scenario(config), out1)
        write_outputs(run_scenario(config), out2)
        assert (out1 / "summary.csv").read_bytes() == \
            (out2 / "summary.csv").read_bytes()
        for trace in sorted((out1 / "traces").iterdir()):
            twin = out2 / "traces" / trace.name
            assert trace.read_bytes() == twin.read_bytes()

    def test_csv_headers_carry_units(self, tmp_path):
        config = small_config()
        paths = write_outputs(run_scenario(config), tmp_path / "out")
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("seed,budget (dBm),algorithm,pairing,"
                                     "sum_power (W),sum_rate (bit/s)")
        trace_files = [p for p in paths if "traces" in str(p)]
        assert trace_files
        assert trace_files[0].read_text().startswith("iteration,objective (W)")

    def test_json_output(self, tmp_path):
        import json
        config = small_config()
        paths = write_outputs(run_scenario(config), tmp_path / "out",
                              fmt="json")
        payload = json.loads(paths[0].read_text())
        assert payload["summary"][0]["seed"] == 3
        assert payload["summary"][0]["converged"] is True
        assert payload["traces"]

    def test_channels_are_drawn_once_per_seed(self, monkeypatch):
        calls = []
        draw = scenario.generate_channels
        monkeypatch.setattr(scenario, "generate_channels",
                            lambda config, seed: calls.append(seed) or draw(config, seed))
        config = small_config(num_seeds=2, budget_dbm_sweep=[20.0, 30.0, 40.0])
        artifacts = run_scenario(config)
        assert calls == [3, 4]
        assert [(r.seed, r.budget_dbm) for r in artifacts.summary] == [
            (3, 20.0), (3, 30.0), (3, 40.0), (4, 20.0), (4, 30.0), (4, 40.0)]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_budget_sweep_equals_one_budget_at_a_time(self, algorithm):
        # at 2 Mbit/s per user: over-budget rows, rows without a fixed
        # point and feasible rows; a feasible budget comes before an
        # infeasible one
        config = small_config(algorithm=algorithm, num_seeds=4,
                              rate_demand_bps=2.0e6,
                              budget_dbm_sweep=[40.0, 0.0, 20.0])
        swept = run_scenario(config)
        for budget in config.budget_dbm_sweep:
            single = run_scenario(dataclasses.replace(config,
                                                      budget_dbm_sweep=[budget]))
            rows = [r for r in swept.summary if r.budget_dbm == budget]
            assert [json.dumps(dataclasses.asdict(r)) for r in rows] == \
                [json.dumps(dataclasses.asdict(r)) for r in single.summary]
            for name, trace in single.traces.items():
                assert json.dumps(swept.traces[name]) == json.dumps(trace)
            for name, allocation in single.allocations.items():
                for a, b in zip(swept.allocations[name].powers, allocation.powers):
                    assert all(np.array_equal(x, y) for x, y in zip(a, b))
            assert swept.validation_failures == single.validation_failures == []
        if algorithm == "power-min":
            assert {r.converged for r in swept.summary} == {True, False}

    def test_json_output_is_strict(self, tmp_path):
        config = small_config(num_seeds=4, rate_demand_bps=2.0e6,
                              budget_dbm_sweep=[0.0, 20.0])
        artifacts = run_scenario(config)
        assert any(math.isnan(r.sum_power_w) for r in artifacts.summary)
        assert any(math.isinf(v) for rows in artifacts.traces.values()
                   for _, v in rows)
        (path,) = write_outputs(artifacts, tmp_path, fmt="json")

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(path.read_text(), parse_constant=refuse)
        for row, written in zip(artifacts.summary, payload["summary"]):
            if math.isnan(row.sum_power_w):
                assert written["sum_power_w"] is None
                assert written["sum_rate_bps"] is None
            else:
                assert written["sum_power_w"] == row.sum_power_w
        for name, rows in artifacts.traces.items():
            assert payload["traces"][name] == [
                [k, v if math.isfinite(v) else None] for k, v in rows]

    # sha256 prefixes of the CSV artifacts of 4 rate-max seeds x 3 budgets
    # at paper size, recorded with the per-group topology construction;
    # they pin the whole rate-max path down to the last bit, which also
    # depends on the memory layout of the per-group gain arrays
    RATE_MAX_DIGESTS = {(0, "SW"): "e86d440fa0cb104a", (7, "SS"): "6a5ae3c21659b1e5"}

    def test_rate_max_artifacts_are_pinned(self, tmp_path):
        for (seed, pairing), want in self.RATE_MAX_DIGESTS.items():
            config = ScenarioConfig(seed=seed, num_seeds=4, algorithm="rate-max",
                                    num_cells=3, users_per_cell=4,
                                    users_per_subchannel=2, num_subchannels=2,
                                    pairing=pairing,
                                    budget_dbm_sweep=[20.0, 30.0, 40.0],
                                    rate_demand_bps=3.0e5)
            paths = write_outputs(run_scenario(config), tmp_path / str(seed))
            digest = hashlib.sha256()
            for path in sorted(paths):
                digest.update(path.read_bytes())
            assert digest.hexdigest()[:16] == want, (seed, pairing)

    # the same runs with two random starts per point besides the default
    # one; the DC loop leaves those starts, so these pin its moving steps
    RATE_MAX_MULTISTART_DIGESTS = {(0, "SW"): "da93c7930dbffa12",
                                   (7, "SS"): "3b264d9be6d45a54"}

    def test_rate_max_multistart_artifacts_are_pinned(self, tmp_path):
        for (seed, pairing), want in self.RATE_MAX_MULTISTART_DIGESTS.items():
            config = ScenarioConfig(seed=seed, num_seeds=4, algorithm="rate-max",
                                    num_cells=3, users_per_cell=4,
                                    users_per_subchannel=2, num_subchannels=2,
                                    pairing=pairing,
                                    budget_dbm_sweep=[20.0, 30.0, 40.0],
                                    rate_demand_bps=3.0e5, multistart=3)
            paths = write_outputs(run_scenario(config), tmp_path / str(seed))
            digest = hashlib.sha256()
            for path in sorted(paths):
                digest.update(path.read_bytes())
            assert digest.hexdigest()[:16] == want, (seed, pairing)

    @pytest.mark.parametrize("algorithm, cells, subchannels",
                             [("power-min", 7, 4), ("rate-max", 3, 2)])
    def test_run_path_never_pads(self, monkeypatch, tmp_path, algorithm,
                                 cells, subchannels):
        # demands and allocations are stored padded, so no solve, check or
        # output of a run converts nested per-group values again
        def refuse(self, nested):
            raise AssertionError("NetworkTopology.pad called on the run path")

        monkeypatch.setattr(NetworkTopology, "pad", refuse)
        config = small_config(algorithm=algorithm, num_cells=cells,
                              users_per_cell=2 * subchannels,
                              num_subchannels=subchannels, rate_demand_bps=1.0e5,
                              budget_dbm_sweep=[20.0, 30.0, 40.0])
        artifacts = run_scenario(config)
        assert artifacts.ok and len(artifacts.allocations) == 3
        for fmt in ("csv", "json"):
            write_outputs(artifacts, tmp_path / fmt, fmt=fmt)

    def test_infeasible_demand_recorded_not_raised(self):
        config = small_config(rate_demand_bps=5.0e7, budget_dbm_sweep=[0.0])
        artifacts = run_scenario(config)
        assert not artifacts.summary[0].converged
        assert artifacts.ok      # a recorded failure is not a validation error

    def test_validation_names_the_first_missed_group(self):
        config = small_config()
        top = generate_channels(config, 3)
        demands = build_demands(config, top)
        allocation = assemble_full_solution(top, demands,
                                            dpc_spm(top, demands).q_star)
        assert _validate(top, demands, allocation) is None
        # halving a weak user's power lowers only that user's rate; the
        # other cell sees less interference
        powers = [list(row) for row in allocation.powers]
        powers[1][1] = powers[1][1] * np.array([0.5, 1.0])
        starved = PowerAllocation(tuple(tuple(row) for row in powers))
        assert _validate(top, demands, starved) == \
            "rate demand missed in group (1,1)"


class TestFixturesAndCli:
    def test_fixture_checks_pass(self, capsys):
        assert run_fixture_checks()
        out = capsys.readouterr().out
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_cli_fixtures_flag(self, capsys):
        assert main(["--fixtures"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_run_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG)
        out = tmp_path / "results"
        code = main(["run", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_cli_overrides(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG)
        out = tmp_path / "results"
        code = main(["run", str(path), "--seed", "9", "--algo", "rate-max",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        import json
        payload = json.loads((out / "run.json").read_text())
        assert payload["summary"][0]["seed"] == 9
        assert payload["summary"][0]["algorithm"] == "rate-max"

    def test_cli_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG + "  turbo: true\n")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_cli_missing_file_exits_2(self):
        assert main(["run", "/nonexistent/path.yaml"]) == 2

    def test_cli_no_command_exits_2(self, capsys):
        assert main([]) == 2
