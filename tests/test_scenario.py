import numpy as np
import pytest

from nomapower import (PowerAllocation, assemble_full_solution, dpc_spm,
                       load_config, pair_users, run_scenario, write_outputs)
from nomapower.cli import main
from nomapower.scenario import (ConfigError, ScenarioConfig, _validate,
                                build_demands, dbm_to_watts, generate_channels,
                                link_gain_db, run_fixture_checks)

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
