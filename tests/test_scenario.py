import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from nomapower import (PowerAllocation, Problem, dpc_spm, load_config, network,
                       power_min, rate_max_network, run_scenario, scenario,
                       write_outputs)
from nomapower.cli import build_parser, main
from nomapower.scenario import (ALGORITHMS, OUTPUT_FORMATS, ConfigError,
                                ScenarioConfig, _drop_users, _site_layout, _validate,
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


def traces_by_name(out):
    """The rows of ``out/traces.csv`` per trace name, as (iteration,
    objective) string pairs, and the header's objective column."""
    header, *lines = (out / "traces.csv").read_text().splitlines()
    traces = {}
    for line in lines:
        name, k, v = line.split(",")
        traces.setdefault(name, []).append((k, v))
    return header.split(",")[2], traces


def csv_digest(out):
    """sha256 prefix of a CSV run's output in the layout that wrote one
    file per trace: summary.csv, then each trace's file body (the header
    ``iteration,objective (<unit>)``, then its rows) in name order."""
    digest = hashlib.sha256((out / "summary.csv").read_bytes())
    objective, traces = traces_by_name(out)
    for name in sorted(traces):
        body = [f"iteration,{objective}\n"]
        body.extend(f"{k},{v}\n" for k, v in traces[name])
        digest.update("".join(body).encode())
    return digest.hexdigest()[:16]


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
        with pytest.raises(ConfigError, match="min_distance_m .* must be below"):
            small_config(min_distance_m=400.0)   # no distance left to draw
        assert small_config(min_distance_m=399.5).min_distance_m == 399.5

    @pytest.mark.parametrize("radius", [-5.0, 0.0])
    def test_cell_radius_must_be_positive(self, radius, tmp_path):
        with pytest.raises(ConfigError, match="cell_radius_m"):
            small_config(cell_radius_m=radius)
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG.replace(
            "  pairing: SW\n", f"  pairing: SW\n  cell_radius_m: {radius}\n"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, radius", [
        ("radio", "min_distance_m: 400.0", "inter_site_distance_m / 2 (400 m)"),
        ("radio", "min_distance_m: 500.0", "inter_site_distance_m / 2 (400 m)"),
        ("cells", "cell_radius_m: 8.0", "cell_radius_m (8 m)"),
    ], ids=["ring-edge", "ring-beyond", "radius-inside-default-min"])
    def test_empty_user_ring_exits_2(self, section, key, radius, tmp_path, capsys):
        # users are drawn at distance [min_distance_m, radius]: with no
        # such distance the config is refused, naming both keys
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG.replace(f"{section}:\n", f"{section}:\n  {key}\n"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "min_distance_m" in err and f"the cell radius {radius}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [
        ("budget_dbm_sweep: [30.0]", "budget_dbm_sweep: [.nan]"),
        ("budget_dbm_sweep: [30.0]", "budget_dbm_sweep: [-.inf]"),
        ("rate_demand_bps: 3.0e5", "rate_demand_bps: .inf"),
        ("rate_demand_bps: 3.0e5", "rate_demand_bps: 3.0e5\n  bandwidth_hz: .nan"),
        ("rate_demand_bps: 3.0e5", "rate_demand_bps: 3.0e5\n  noise_power_dbm: .nan"),
        ("rate_demand_bps: 3.0e5", "rate_demand_bps: 1" + "0" * 400),
    ], ids=["budget-nan", "budget-minus-inf", "rate-inf", "bandwidth-nan", "noise-nan",
            "rate-int-beyond-float"])
    def test_non_finite_values_exit_2(self, old, new, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_number_must_be_finite(self):
        floats = [f.name for f in dataclasses.fields(ScenarioConfig)
                  if f.metadata["kind"] is scenario._float]
        assert "cell_radius_m" in floats and "rate_tol" in floats
        for name in floats:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=f"{name} must be finite"):
                    small_config(**{name: value})
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="budget_dbm_sweep must be finite"):
                small_config(budget_dbm_sweep=[30.0, value])
            with pytest.raises(ConfigError, match="rate_demand_bps must be finite"):
                small_config(rate_demand_bps=[1e5, 2e5, value, 4e5])
            with pytest.raises(ConfigError, match="rate_demand_bps must be finite"):
                small_config(rate_demand_bps=value)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            small_config(seed=-1)
        assert small_config(seed=0).seed == 0
        example = Path(__file__).resolve().parents[1] / "scripts" / "three_cell.yaml"
        out = tmp_path / "out"
        assert main(["run", str(example), "--seed", "-3", "--out", str(out)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    CUSTOM = "  pairing: SW\n  layout: custom\n  site_positions_m: "

    @pytest.mark.parametrize("old, new, message", [
        ("  pairing: SW\n", CUSTOM + "[[0.0, .nan], [800.0, 0.0]]\n",
         "finite [x, y] pairs"),
        ("  pairing: SW\n", CUSTOM + "[[0.0, 0.0, 0.0], [800.0, 0.0, 0.0]]\n",
         "finite [x, y] pairs"),
        ("  pairing: SW\n", CUSTOM + "[[0.0, north], [800.0, 0.0]]\n",
         "finite [x, y] pairs"),
        ("  pairing: SW\n", CUSTOM + "5\n", "finite [x, y] pairs"),
        ("  pairing: SW\n", "  pairing: SW\n  layout: paper-default\n"
         "  site_positions_m: [[0.0, 0.0], [800.0, 0.0]]\n",
         "site_positions_m needs layout: custom"),
        ("num_cells: 2", "num_cells: two", "non-numeric value"),
        ("  pairing: SW\n", "  pairing: SW\n  layout: hex\n",
         "layout must be 'paper-default' or 'custom'"),
        ("users_per_cell: 4\n  users_per_subchannel: 2",
         "users_per_cell: 6\n  users_per_subchannel: 3",
         "defined for 2 users per subchannel"),
        ("rate_demand_bps: 3.0e5", "rate_demand_bps: [1.0e+5, 0.0, 2.0e+5, 3.0e+5]",
         "rate demands must be positive"),
        ("  seed: 3\n", "  seed: [3\n", "malformed config"),
        (GOOD_CONFIG, "- scenario\n- cells\n", "config must be a mapping of sections"),
        ("radio:\n", "solver: [1, 2]\nradio:\n", "section 'solver' must be a mapping"),
        ("radio:\n", "solver:\n  max_outer: .inf\nradio:\n",
         "max_outer must be a whole number, got inf"),
        ("radio:\n", "solver:\n  max_outer: 2.5\nradio:\n",
         "max_outer must be a whole number, got 2.5"),
        ("num_cells: 2", "num_cells: 2.5", "num_cells must be a whole number, got 2.5"),
        ("  seed: 3\n", "  seed: 3\n  num_seeds: yes\n", "non-numeric value for num_seeds"),
        ("  seed: 3\n", "  seed: no\n", "non-numeric value for seed"),
        ("radio:\n", "solver:\n  rate_tol: true\nradio:\n",
         "non-numeric value for rate_tol"),
        ("[30.0]", '"30"', "budget_dbm_sweep must be a list of numbers, got '30'"),
        ("[30.0]", "[20.0, true]", "non-numeric value for budget_dbm_sweep"),
        ("[30.0]", "[30.0, 30.0]", "budget_dbm_sweep entries must give distinct trace names"),
        ("[30.0]", "[30.0, 30.0000001]",
         "budget_dbm_sweep entries must give distinct trace names"),
        # finite in dBm, but 0 W or beyond the float range in watts
        ("[30.0]", "[4000.0]", "budget_dbm_sweep must give a positive finite power"),
        ("[30.0]", "[-4000.0]", "budget_dbm_sweep must give a positive finite power"),
        ("[30.0]", "[30.0]\n  noise_power_dbm: 4000.0",
         "noise_power_dbm must give a positive finite power"),
        ("[30.0]", "[30.0]\n  noise_power_dbm: -4000.0",
         "noise_power_dbm must give a positive finite power"),
    ], ids=["site-nan", "site-three-columns", "site-non-numeric", "site-scalar",
            "site-without-custom-layout", "non-numeric", "layout-hex",
            "three-users-per-subchannel", "rate-list-zero", "malformed-yaml",
            "top-level-list", "section-not-mapping", "int-infinite", "int-fraction",
            "cells-fraction", "num-seeds-bool", "seed-bool", "rate-tol-bool",
            "budget-string", "budget-bool-entry", "budget-repeat",
            "budget-same-trace-name", "budget-watts-overflow", "budget-zero-watts",
            "noise-watts-overflow", "noise-zero-watts"])
    def test_bad_config_exits_2(self, old, new, message, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        assert old in GOOD_CONFIG
        path.write_text(GOOD_CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_strings_and_whole_floats_load(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG.replace("3.0e5", '"3.0e5"')
                        + "solver:\n  max_outer: 2.0\n")
        config = load_config(path)
        assert config.rate_demand_bps == 3.0e5 and type(config.rate_demand_bps) is float
        assert config.max_outer == 2 and type(config.max_outer) is int
        config = small_config(num_cells=np.int64(3), bandwidth_hz=np.float32(2e6))
        assert type(config.num_cells) is int and type(config.bandwidth_hz) is float
        with pytest.raises(ConfigError, match="num_cells must be a whole number"):
            small_config(num_cells=np.float32(2.5))

    def test_example_lists_every_key(self):
        example = Path(__file__).resolve().parents[1] / "scripts" / "three_cell.yaml"
        listed, section = set(), None
        for line in example.read_text().splitlines():
            top = re.match(r"(\w+):\s*$", line)
            key = re.match(r"\s+(?:# )?(\w+):", line)    # commented keys count
            if top:
                section = top.group(1)
            elif key:
                listed.add((section, key.group(1)))
        declared = {(f.metadata["section"], f.name)
                    for f in dataclasses.fields(ScenarioConfig) if f.name != "power_tol_w"}
        assert listed == declared

    def test_empty_section_is_accepted(self, tmp_path):
        path, plain = tmp_path / "scenario.yaml", tmp_path / "plain.yaml"
        path.write_text(GOOD_CONFIG + "solver:\n")
        plain.write_text(GOOD_CONFIG)
        assert load_config(path) == load_config(plain)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

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

    def test_paper_ring_is_shared_read_only(self):
        # every drop of a run gets the same cached sites, so none may write them
        sites, wrap = _site_layout(small_config())
        assert _site_layout(small_config(seed=5))[0] is sites
        assert not (sites.flags.writeable or wrap.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            sites[0, 0] = 1.0

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
        """The users a plain per-user rejection loop places, same stream,
        and the generator state it leaves."""
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
        return np.array(users), rng.bit_generator.state

    def test_batched_placement_matches_one_user_at_a_time(self):
        # thin rings: users need ~50 (395 m) or ~500 (399.5 m) draws, so
        # the lookahead block grows many times and some users reach the limit;
        # the reference measures each user from its own site, so 19 paper-
        # default sites and custom sites ~1e5 m out check that the ring test
        # does not depend on the site
        outcomes = set()
        configs = [small_config(min_distance_m=min_distance)
                   for min_distance in (395.0, 399.5)]
        configs.append(ScenarioConfig(num_cells=19, num_subchannels=8,
                                      users_per_cell=16))
        configs.append(small_config(layout="custom", site_positions_m=[
            [123456.7, -98765.4], [-1.0e5, 3.0e4], [99999.9, 99999.9]]))
        for config in configs:
            for seed in range(6):
                rng = np.random.default_rng(seed)
                try:
                    want, state = self.one_user_at_a_time(config, seed)
                except RuntimeError:
                    with pytest.raises(RuntimeError, match="after 1000 draws"):
                        _drop_users(rng, _site_layout(config)[0],
                                    config.users_per_cell, config)
                    outcomes.add("raised")
                    continue
                got = _drop_users(rng, _site_layout(config)[0],
                                  config.users_per_cell, config)
                assert np.array_equal(got, want)
                # the shadowing draw that follows sees the same stream
                assert rng.bit_generator.state == state
                outcomes.add("placed")
        assert outcomes == {"placed", "raised"}

    def test_unplaceable_user_raises_after_1000_draws(self):
        class ScriptedRng:
            """Offsets read in order from ``rows``; the state is the read
            position, and ``advance`` moves it by two draws a row, so
            rewinding works as on a real generator."""

            def __init__(self, rows):
                self.rows, self.state, self.bit_generator = rows, 0, self

            def uniform(self, low, high, size):
                end = self.state + size[0]
                assert end <= 2000, "rejection sampling did not stop"
                out, self.state = self.rows[self.state:end], end
                return out

            def advance(self, delta):
                assert delta % 2 == 0, "a row is two draws"
                self.state += delta // 2

        config = small_config(num_cells=3)
        sites = _site_layout(config)[0]
        count = config.users_per_cell
        # the first user of the first cell misses (offset 0 is inside
        # min_distance_m) ``misses`` times, then every draw lands 100 m out
        for misses in (999, 1000):
            rows = np.tile([100.0, 0.0], (2000, 1))
            rows[:misses] = 0.0
            rng = ScriptedRng(rows)
            if misses == 1000:
                with pytest.raises(RuntimeError,
                                   match="could not place a user after 1000 draws"):
                    _drop_users(rng, sites, count, config)
                continue
            users = _drop_users(rng, sites, count, config)
            assert np.array_equal(users, np.repeat(sites + [100.0, 0.0], count, axis=0))
            # the generator ends just past the last row used
            assert rng.state == misses + len(sites) * count
        # a ring 1 cm wide is valid, but no user lands in it within the limit
        with pytest.raises(RuntimeError,
                           match="could not place a user after 1000 draws"):
            generate_channels(ScenarioConfig(min_distance_m=399.99), 3)

    def test_different_seeds_differ(self):
        config = small_config()
        a = generate_channels(config, 11)
        b = generate_channels(config, 12)
        assert not np.array_equal(a.gains[0][0], b.gains[0][0])

    def test_shapes_and_budget(self):
        config = small_config()
        top = generate_channels(config, 1)
        assert top.num_cells == 2 and top.num_subchannels == 2
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
                    own = np.concatenate([top.gains[i][m][i] for m in range(2)])
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

    def test_one_fixed_point_solve_per_rate_max_drop(self, monkeypatch):
        # every start at every budget of a seed shares one sum-power fixed
        # point, and no budget point rebuilds the topology (dataclasses.replace)
        solve, replace = power_min._least_fixed_point, dataclasses.replace
        calls, rebuilds = [], []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        bound = [module for name, module in sys.modules.items()
                 if name.split(".")[0] == "nomapower"
                 and getattr(module, "_least_fixed_point", None) is solve]
        assert power_min in bound
        for multistart, sweep in ((4, [30.0]), (1, [20.0, 30.0, 40.0]),
                                  (2, [20.0, 30.0, 40.0])):
            config = ScenarioConfig(seed=0, num_seeds=3, algorithm="rate-max",
                                    multistart=multistart, budget_dbm_sweep=sweep)
            with monkeypatch.context() as patch:
                patch.setattr(scenario, "_last_drop", None)     # an empty memo
                for module in bound:
                    patch.setattr(module, "_least_fixed_point", counted)
                patch.setattr(dataclasses, "replace",
                              lambda *args, **kwargs: rebuilds.append(1)
                              or replace(*args, **kwargs))
                artifacts = run_scenario(config)
            assert artifacts.ok and all(row.converged for row in artifacts.summary)
            assert len(artifacts.summary) == 3 * len(sweep)
            assert (len(calls), rebuilds) == (3, []), (multistart, sweep)
            calls.clear()

    def test_one_constants_bundle_per_multistart_drop(self, monkeypatch):
        # the fixed point, the random starts and all four dpc_srm calls of
        # a drop read one bundle, where each dpc_srm call built its own;
        # the three seeds' uniform demands are one demand vector, so they
        # share it, counted from an empty cache
        build = power_min._GroupConstants.build
        calls = []
        monkeypatch.setattr(power_min._GroupConstants, "build", staticmethod(
            lambda *args: calls.append(1) or build(*args)))
        power_min._shared_constants.cache_clear()
        monkeypatch.setattr(scenario, "_last_drop", None)
        config = ScenarioConfig(seed=0, num_seeds=3, algorithm="rate-max",
                                multistart=4)
        artifacts = run_scenario(config)
        assert artifacts.ok and all(row.converged for row in artifacts.summary)
        assert len(artifacts.summary) == 3 and len(calls) == 1

    @pytest.mark.parametrize("multistart", [1, 2])
    def test_the_traced_run_contract(self, monkeypatch, multistart):
        # the benchmark's tracer rebinds every nomapower module attribute
        # that names a wrapped function.  Rebound here, a 3-budget rate-max
        # sweep must call dpc_srm once per start it runs and reach
        # power_cap, check each seed's demands against its topology once,
        # and take each point's default start unchecked: no q0 or x0, and
        # no budget test of rate_max_network's inside that call
        log = []            # (name, keyword arguments) of each wrapped call

        def logged(name, fn):
            def call(*args, **kwargs):
                log.append((name, kwargs))
                return fn(*args, **kwargs)
            return call

        for name in ("dpc_srm", "power_cap", "random_feasible_start"):
            fn = getattr(rate_max_network, name)
            for module in [module for key, module in sys.modules.items()
                           if key.split(".")[0] == "nomapower"]:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, logged(name, fn))
        monkeypatch.setattr(rate_max_network, "within_budgets", logged(
            "within_budgets", rate_max_network.within_budgets))
        check, checks = network.RateDemands.padded_for, []
        monkeypatch.setattr(network.RateDemands, "padded_for",
                            lambda *args: checks.append(1) or check(*args))
        monkeypatch.setattr(scenario, "_last_drop", None)   # counted from an empty memo
        config = ScenarioConfig(seed=0, num_seeds=3, algorithm="rate-max",
                                multistart=multistart,
                                budget_dbm_sweep=[20.0, 30.0, 40.0])
        artifacts = run_scenario(config)
        monkeypatch.undo()
        assert artifacts.ok and len(checks) == config.num_seeds
        calls = []          # (a default start, the names logged inside it)
        for name, kwargs in log:
            if name in ("dpc_srm", "random_feasible_start"):
                default = name == "dpc_srm" and not {"q0", "x0"} & set(kwargs)
                calls.append((default, []))
            else:
                calls[-1][1].append(name)
        # one dpc_srm call per start: a point that has no feasible start
        # stops at its default one
        feasible = [not math.isnan(row.sum_power_w) for row in artifacts.summary]
        assert sum(feasible) >= 6
        starts = []
        for solved in feasible:
            starts += ["dpc_srm"] + (multistart - 1 if solved else 0) * [
                "random_feasible_start", "dpc_srm"]
        assert [name for name, _ in log
                if name not in ("power_cap", "within_budgets")] == starts
        defaults = [names for default, names in calls if default]
        assert len(defaults) == len(feasible)
        for solved, names in zip(feasible, defaults):
            assert ("power_cap" in names) == solved and "within_budgets" not in names

    def test_power_min_drop_derives_its_constants_and_interference_once(
            self, monkeypatch):
        # one normalized-interference evaluation per linear solve gives the
        # split and the summary's rates too; only _validate evaluates it
        # again.  The demand weights are derived once, and a drop that
        # passes its validation looks for no failing group
        evaluate = network.normalized_interference
        weights = power_min._weights
        argwhere = np.argwhere
        counts = {"interference": 0, "weights": 0, "argwhere": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        bound = [module for module in (network, power_min, rate_max_network, scenario)
                 if getattr(module, "normalized_interference", None) is evaluate]
        assert network in bound and power_min in bound
        for module in bound:
            monkeypatch.setattr(module, "normalized_interference",
                                counted("interference", evaluate))
        monkeypatch.setattr(power_min, "_weights", counted("weights", weights))
        monkeypatch.setattr(np, "argwhere", counted("argwhere", argwhere))
        power_min._shared_constants.cache_clear()   # counted from an empty cache
        monkeypatch.setattr(scenario, "_last_drop", None)   # and an empty memo
        artifacts = run_scenario(ScenarioConfig(seed=0))
        monkeypatch.undo()
        (row,) = artifacts.summary
        assert artifacts.ok and row.converged and row.iterations >= 1
        assert counts == {"interference": row.iterations + 1, "weights": 1,
                          "argwhere": 0}

    @pytest.mark.parametrize("algorithm", ["power-min", "rate-max"])
    def test_sweep_matches_its_points_run_one_at_a_time(self, monkeypatch, algorithm):
        # the benchmark runs one (seed, budget) point per call, so the
        # seeds' shared demand constants come from the cache and a seed's
        # drop from the memo; each point here is solved from empty ones
        config = ScenarioConfig(seed=0, num_seeds=4, algorithm=algorithm,
                                budget_dbm_sweep=[20.0, 30.0, 40.0])
        sweep = run_scenario(config)
        rows, traces, allocations = [], {}, {}
        for seed in range(4):
            for budget in config.budget_dbm_sweep:
                power_min._shared_constants.cache_clear()
                monkeypatch.setattr(scenario, "_last_drop", None)
                point = run_scenario(dataclasses.replace(
                    config, seed=seed, num_seeds=1, budget_dbm_sweep=[budget]))
                assert point.ok
                rows += point.summary
                traces.update(point.traces)
                allocations.update(point.allocations)
        assert sweep.ok and len(rows) == 12
        assert repr(sweep.summary) == repr(rows)
        assert repr(sweep.traces) == repr(traces)
        assert list(sweep.allocations) == list(allocations)
        for name, allocation in sweep.allocations.items():
            assert np.array_equal(allocation.powers, allocations[name].powers), name

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_warm_points_write_the_sweep_s_bytes(self, tmp_path, monkeypatch,
                                                 algorithm):
        # points run one at a time after the sweep: each seed's first point
        # builds its drop and the others take it from the memo; merged,
        # they write the sweep's bytes, as CSV and as JSON
        draw, draws = scenario.generate_channels, []
        monkeypatch.setattr(scenario, "generate_channels",
                            lambda config, seed: draws.append(seed) or draw(config, seed))
        config = ScenarioConfig(seed=0, num_seeds=4, algorithm=algorithm,
                                budget_dbm_sweep=[20.0, 30.0, 40.0])
        sweep = run_scenario(config)
        points = scenario.RunArtifacts([], {}, {}, [])
        for seed in range(4):
            for budget in config.budget_dbm_sweep:
                point = run_scenario(dataclasses.replace(
                    config, seed=seed, num_seeds=1, budget_dbm_sweep=[budget]))
                points.summary += point.summary
                points.traces.update(point.traces)
                points.allocations.update(point.allocations)
                points.validation_failures += point.validation_failures
        assert draws == [0, 1, 2, 3] * 2
        assert sweep.ok and points.ok and len(points.summary) == 12
        for fmt in OUTPUT_FORMATS:
            written = [write_outputs(artifacts, tmp_path / fmt / label, fmt)
                       for label, artifacts in (("sweep", sweep), ("points", points))]
            for path, twin in zip(*written):
                assert path.name == twin.name
                assert path.read_bytes() == twin.read_bytes(), path.name

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_points_of_one_seed_share_its_drop(self, monkeypatch, algorithm):
        # one call per budget, as the benchmark makes them: the seed's
        # channels are drawn and its fixed point solved once for all three
        draw, draws = scenario.generate_channels, []
        solve, solves = power_min._least_fixed_point, []
        monkeypatch.setattr(scenario, "generate_channels",
                            lambda config, seed: draws.append(seed) or draw(config, seed))
        monkeypatch.setattr(power_min, "_least_fixed_point",
                            lambda *args: solves.append(1) or solve(*args))
        monkeypatch.setattr(scenario, "_last_drop", None)
        for budget in (20.0, 30.0, 40.0):
            artifacts = run_scenario(ScenarioConfig(
                seed=0, algorithm=algorithm, budget_dbm_sweep=[budget]))
            assert artifacts.ok and len(artifacts.summary) == 1
        assert (draws, len(solves)) == ([0], 1)

    def test_the_drop_memo_keys_every_field_a_drop_reads(self, monkeypatch):
        # each field changed to another valid value, from the default config
        # or the one given: a field no drop reads hands out the same drop,
        # any other a new one, equal to the drop built from scratch.  A
        # field added to ScenarioConfig must be added here
        custom = {"layout": "custom",
                  "site_positions_m": [[0.0, 0.0], [800.0, 0.0], [400.0, 700.0]]}
        moved = {**custom, "site_positions_m": [[0.0, 0.0], [900.0, 0.0], [400.0, 700.0]]}
        changes = {
            "seed": ({}, {"seed": 5}),
            "num_seeds": ({}, {"num_seeds": 3}),
            "algorithm": ({}, {"algorithm": "rate-max"}),
            "multistart": ({}, {"multistart": 4}),
            "layout": ({}, custom),
            "site_positions_m": (custom, moved),
            "inter_site_distance_m": ({}, {"inter_site_distance_m": 900.0}),
            "cell_radius_m": ({}, {"cell_radius_m": 300.0}),
            "num_cells": ({}, {"num_cells": 4}),
            "users_per_cell": ({}, {"users_per_cell": 6, "num_subchannels": 3}),
            "users_per_subchannel": None,       # pairing allows 2 only
            "num_subchannels": ({}, {"num_subchannels": 3, "users_per_cell": 6}),
            "pairing": ({}, {"pairing": "SS"}),
            "bandwidth_hz": ({}, {"bandwidth_hz": 2.0e6}),
            "noise_power_dbm": ({}, {"noise_power_dbm": -110.0}),
            "budget_dbm_sweep": ({}, {"budget_dbm_sweep": [20.0, 40.0]}),
            "rate_demand_bps": ({}, {"rate_demand_bps": 0.2e6}),
            "pathloss_intercept_db": ({}, {"pathloss_intercept_db": 130.0}),
            "pathloss_slope_db": ({}, {"pathloss_slope_db": 35.0}),
            "shadowing_std_db": ({}, {"shadowing_std_db": 6.0}),
            "antenna_gain_dbi": ({}, {"antenna_gain_dbi": 12.0}),
            "min_distance_m": ({}, {"min_distance_m": 200.0}),
            "power_tol_w": ({}, {"power_tol_w": 1.0e-6}),
            "max_iterations": ({}, {"max_iterations": 50}),
            "rate_tol": ({}, {"rate_tol": 1.0e-2}),
            "max_outer": ({}, {"max_outer": 5}),
        }
        assert list(changes) == [f.name for f in dataclasses.fields(ScenarioConfig)]
        with pytest.raises(ConfigError, match="2 users per subchannel"):
            ScenarioConfig(users_per_subchannel=3, users_per_cell=6)

        def fresh(config, seed=0, max_iter=100):
            topology = generate_channels(config, seed)
            return Problem(topology, build_demands(config, topology), max_iter)

        def same_drop(a, b):
            return (np.array_equal(a.topology.gains, b.topology.gains)
                    and np.array_equal(a.topology.user_ids, b.topology.user_ids)
                    and np.array_equal(a.demands.rates, b.demands.rates)
                    and np.array_equal(a.fixed_point[0].q_star, b.fixed_point[0].q_star))

        for name, change in changes.items():
            if change is None:
                continue
            before, after = (ScenarioConfig(**overrides) for overrides in change)
            monkeypatch.setattr(scenario, "_last_drop", None)
            first = scenario._problem(before, 0, 100)
            again = scenario._problem(after, 0, 100)
            if name in scenario._UNREAD_BY_A_DROP:
                assert again is first and same_drop(fresh(after), first), name
            else:
                assert again is not first and not same_drop(again, first), name
                assert same_drop(again, fresh(after)), name
        # the seed and the cap are keys too, and so is the content of a list
        config = ScenarioConfig(rate_demand_bps=[0.1e6, 0.2e6, 0.3e6, 0.4e6])
        first = scenario._problem(config, 0, 100)
        assert scenario._problem(config, 0, 100) is first
        for seed, max_iter in ((1, 100), (0, 50)):
            assert scenario._problem(config, seed, max_iter) is not first
        first = scenario._problem(config, 0, 100)
        config.rate_demand_bps[0] = 0.2e6
        again = scenario._problem(config, 0, 100)
        assert again is not first and same_drop(again, fresh(config))

    def test_threads_sharing_the_drop_memo_get_their_own_drops(self, monkeypatch):
        # threads that run points of different seeds swap the memo under
        # each other; every point must still match its cold solve
        config = ScenarioConfig(algorithm="rate-max", budget_dbm_sweep=[20.0, 30.0, 40.0])
        points = [dataclasses.replace(config, seed=seed, num_seeds=1,
                                      budget_dbm_sweep=[budget])
                  for seed in range(6) for budget in config.budget_dbm_sweep]
        expected = {}
        for point in points:
            monkeypatch.setattr(scenario, "_last_drop", None)
            expected[point.seed, point.budget_dbm_sweep[0]] = repr(
                run_scenario(point).summary)
        wrong = []

        def work(offset):
            for point in points[offset:] + points[:offset]:
                got = repr(run_scenario(point).summary)
                if got != expected[point.seed, point.budget_dbm_sweep[0]]:
                    wrong.append(point.seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(3 * k + k % 2,))
                       for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []

    def test_csv_reproducibility(self, tmp_path):
        config = small_config(budget_dbm_sweep=[25.0, 30.0])
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        write_outputs(run_scenario(config), out1)
        write_outputs(run_scenario(config), out2)
        for name in ("summary.csv", "traces.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_headers_carry_units(self, tmp_path):
        config = small_config()
        paths = write_outputs(run_scenario(config), tmp_path / "out")
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("seed,budget (dBm),algorithm,pairing,"
                                     "sum_power (W),sum_rate (bit/s)")
        assert [p.name for p in paths] == ["summary.csv", "traces.csv"]
        assert paths[1].read_text().startswith("trace_file,iteration,objective (W)\n")
        paths = write_outputs(run_scenario(small_config(algorithm="rate-max")),
                              tmp_path / "rate")
        assert paths[1].read_text().startswith(
            "trace_file,iteration,objective (bit/s)\n")
        mixed = run_scenario(small_config())
        mixed.traces.update(run_scenario(small_config(algorithm="rate-max")).traces)
        with pytest.raises(ValueError, match="one traces.csv"):
            write_outputs(mixed, tmp_path / "mixed")
        assert not (tmp_path / "mixed").exists()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_traces_csv_holds_the_json_traces(self, tmp_path, algorithm):
        # at 2 Mbit/s per user and 0 dBm some points are infeasible: power-min
        # traces end in inf, rate-max's hold one nan point
        config = small_config(algorithm=algorithm, num_seeds=4,
                              rate_demand_bps=2.0e6, budget_dbm_sweep=[0.0, 20.0])
        artifacts = run_scenario(config)
        assert any(math.isnan(r.sum_power_w) for r in artifacts.summary)
        write_outputs(artifacts, tmp_path, fmt="csv")
        (path,) = write_outputs(artifacts, tmp_path, fmt="json")
        objective, traces = traces_by_name(tmp_path)
        unit = "W" if algorithm == "power-min" else "bit/s"
        assert objective == f"objective ({unit})"
        written = {name: [[int(k), float(v) if math.isfinite(float(v)) else None]
                          for k, v in rows] for name, rows in traces.items()}
        assert written == json.loads(path.read_text())["traces"]
        with open(tmp_path / "summary.csv") as fh:
            named = [line.rstrip("\n").split(",")[-1] for line in fh][1:]
        assert len(named) == len(artifacts.summary)
        assert set(named) == set(traces)

    def test_unknown_format_writes_nothing(self, tmp_path):
        artifacts = run_scenario(small_config())
        with pytest.raises(ValueError, match="output format"):
            write_outputs(artifacts, tmp_path / "out", fmt="xml")
        assert not (tmp_path / "out").exists()

    def test_json_output(self, tmp_path):
        import json
        config = small_config()
        paths = write_outputs(run_scenario(config), tmp_path / "out",
                              fmt="json")
        payload = json.loads(paths[0].read_text())
        assert payload["summary"][0]["seed"] == 3
        assert payload["summary"][0]["converged"] is True
        assert payload["traces"]

    def test_json_lists_only_real_users(self, tmp_path):
        groups = [[[0.5], [0.25, 0.75, 1.0]], [[2.0, 3.0], [4.0]]]
        ragged = PowerAllocation(tuple(tuple(map(np.array, row)) for row in groups))
        assert ragged.powers.shape == (2, 2, 3)
        artifacts = scenario.RunArtifacts(summary=[], traces={},
                                          allocations={"drop": ragged},
                                          validation_failures=[])
        (path,) = write_outputs(artifacts, tmp_path, fmt="json")
        assert json.loads(path.read_text())["allocations"] == {"drop": groups}

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_rerun_into_a_used_directory_rewrites_each_file(self, tmp_path, fmt):
        larger = run_scenario(small_config(num_seeds=2, budget_dbm_sweep=[25.0, 30.0]))
        # the smaller run rewrites every trace file with fewer rows
        larger.traces = {name: rows * 3 for name, rows in larger.traces.items()}
        smaller = run_scenario(small_config(budget_dbm_sweep=[30.0]))
        before = {p: p.read_bytes()
                  for p in write_outputs(larger, tmp_path / "used", fmt=fmt)}
        paths = write_outputs(smaller, tmp_path / "used", fmt=fmt)
        fresh = write_outputs(smaller, tmp_path / "fresh", fmt=fmt)
        assert [p.relative_to(tmp_path / "used") for p in paths] == \
            [p.relative_to(tmp_path / "fresh") for p in fresh]
        for path, twin in zip(paths, fresh):
            # each file is written over a longer one and must be cut
            assert len(before[path]) > len(twin.read_bytes())
            assert path.read_bytes() == twin.read_bytes()

    def test_channels_are_drawn_once_per_seed(self, monkeypatch):
        calls = []
        draw = scenario.generate_channels
        monkeypatch.setattr(scenario, "generate_channels",
                            lambda config, seed: calls.append(seed) or draw(config, seed))
        monkeypatch.setattr(scenario, "_last_drop", None)   # counted from an empty memo
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
    # at paper size, recorded with the per-group topology construction and
    # one file per trace (csv_digest rebuilds that layout from traces.csv);
    # they pin the whole rate-max path down to the last bit, which also
    # depends on the memory layout of the per-group gain arrays
    RATE_MAX_DIGESTS = {(0, "SW"): "c804df9db6733691", (7, "SS"): "ba8a08ebb1da37dc"}

    def test_rate_max_artifacts_are_pinned(self, tmp_path):
        for (seed, pairing), want in self.RATE_MAX_DIGESTS.items():
            config = ScenarioConfig(seed=seed, num_seeds=4, algorithm="rate-max",
                                    num_cells=3, users_per_cell=4,
                                    users_per_subchannel=2, num_subchannels=2,
                                    pairing=pairing,
                                    budget_dbm_sweep=[20.0, 30.0, 40.0],
                                    rate_demand_bps=3.0e5)
            write_outputs(run_scenario(config), tmp_path / str(seed))
            assert csv_digest(tmp_path / str(seed)) == want, (seed, pairing)

    # the same runs with two random starts per point besides the default
    # one; the loop leaves those starts, so these pin its moving steps
    RATE_MAX_MULTISTART_DIGESTS = {(0, "SW"): "241641d01a556b2d",
                                   (7, "SS"): "677d945217e5d653"}

    def test_rate_max_multistart_artifacts_are_pinned(self, tmp_path):
        for (seed, pairing), want in self.RATE_MAX_MULTISTART_DIGESTS.items():
            config = ScenarioConfig(seed=seed, num_seeds=4, algorithm="rate-max",
                                    num_cells=3, users_per_cell=4,
                                    users_per_subchannel=2, num_subchannels=2,
                                    pairing=pairing,
                                    budget_dbm_sweep=[20.0, 30.0, 40.0],
                                    rate_demand_bps=3.0e5, multistart=3)
            write_outputs(run_scenario(config), tmp_path / str(seed))
            assert csv_digest(tmp_path / str(seed)) == want, (seed, pairing)

    @pytest.mark.parametrize("algorithm, cells, subchannels",
                             [("power-min", 7, 4), ("rate-max", 3, 2)])
    def test_run_path_never_pads(self, monkeypatch, tmp_path, algorithm,
                                 cells, subchannels):
        # channels, demands and allocations are built padded, so no drop,
        # solve, check or output of a run converts nested per-group values
        def refuse(nested, lead=(), dtype=float):
            raise AssertionError("nested values padded on the run path")

        monkeypatch.setattr(network, "front_pad", refuse)
        config = small_config(algorithm=algorithm, num_cells=cells,
                              users_per_cell=2 * subchannels,
                              num_subchannels=subchannels, rate_demand_bps=1.0e5,
                              budget_dbm_sweep=[20.0, 30.0, 40.0])
        artifacts = run_scenario(config)
        assert artifacts.ok and len(artifacts.allocations) == 3
        for fmt in ("csv", "json"):
            write_outputs(artifacts, tmp_path / fmt, fmt=fmt)

    RUN_PATH_JSON_DIGESTS = {"power-min": "720f6005560f2f89",
                             "rate-max": "fab6c0283f6a59e4"}

    @pytest.mark.parametrize("algorithm, cells, subchannels",
                             [("power-min", 7, 4), ("rate-max", 3, 2)])
    def test_run_path_builds_no_nested_view(self, monkeypatch, tmp_path, algorithm,
                                            cells, subchannels):
        # no solve, budget check or CSV output slices the padded arrays into per-group values; the JSON output
        # does, through network.unpad, with the same bytes.
        config = small_config(algorithm=algorithm, num_cells=cells,
                              users_per_cell=2 * subchannels,
                              num_subchannels=subchannels, rate_demand_bps=1.0e5,
                              budget_dbm_sweep=[20.0, 30.0, 40.0])
        with monkeypatch.context() as patch:
            def refuse(padded, occupied):
                raise AssertionError("nested views built on the run path")

            patch.setattr(network, "unpad", refuse)
            patch.setattr(scenario, "unpad", refuse)
            artifacts = run_scenario(config)
            assert artifacts.ok and len(artifacts.allocations) == 3
            write_outputs(artifacts, tmp_path / "csv", fmt="csv")
        (path,) = write_outputs(artifacts, tmp_path / "json", fmt="json")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        assert digest == self.RUN_PATH_JSON_DIGESTS[algorithm]

    def test_infeasible_demand_recorded_not_raised(self):
        config = small_config(rate_demand_bps=5.0e7, budget_dbm_sweep=[0.0])
        artifacts = run_scenario(config)
        assert not artifacts.summary[0].converged
        assert artifacts.ok      # a recorded failure is not a validation error

    def test_validation_names_the_first_missed_group(self):
        config = small_config()
        top = generate_channels(config, 3)
        demands = build_demands(config, top)
        budgets = np.full(top.num_cells, dbm_to_watts(30.0))
        problem = Problem(top, demands)
        allocation = problem.split(dpc_spm(problem, budgets).q_star)
        assert _validate(top, demands, budgets, allocation) is None
        # halving a weak user's power lowers only that user's rate; the
        # other cell sees less interference
        powers = [list(row) for row in allocation.powers]
        powers[1][1] = powers[1][1] * np.array([0.5, 1.0])
        starved = PowerAllocation(tuple(tuple(row) for row in powers))
        assert _validate(top, demands, budgets, starved) == \
            "rate demand missed in group (1,1)"

    def test_a_rate_missed_by_a_ten_millionth_fails_the_run(self, monkeypatch,
                                                            tmp_path, capsys):
        # 1e-7 less power for cell 1's weak user on subchannel 1 costs it
        # about 1e-7 of its rate and touches no other user's; the run path
        # splits q* with the problem's split
        def starve(problem, *args):
            powers = split(problem, *args).powers.copy()
            powers[1, 1, 0] *= 1.0 - 1e-7
            return PowerAllocation(powers)

        split = Problem.split
        monkeypatch.setattr(Problem, "split", starve)
        message = "seed 3, budget 30.0 dBm: rate demand missed in group (1,1)"
        artifacts = run_scenario(small_config())
        assert not artifacts.ok
        assert artifacts.validation_failures == [message]
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"validation failure: {message}" in capsys.readouterr().err


    def test_validation_flags_a_budget_overrun(self):
        config = small_config()
        top = generate_channels(config, 3)
        demands = build_demands(config, top)
        budgets = np.full(top.num_cells, dbm_to_watts(30.0))
        problem = Problem(top, demands)
        allocation = problem.split(dpc_spm(problem, budgets).q_star)
        totals = allocation.cell_powers().sum(axis=1)
        tight = totals * np.array([1.0, 0.5])
        assert _validate(top, demands, tight, allocation) == "budget exceeded"


class TestFixturesAndCli:
    def test_fixture_checks_pass(self, capsys):
        assert run_fixture_checks()
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out
        assert "PASS: single-cell rate-optimal split (got [6.0, 4.0]" in out

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

    def test_cli_choices_are_the_declared_names(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices["run"]._actions}
        # the very tuples the config keys use, so a new name needs no CLI edit
        assert choices["algo"] is ALGORITHMS
        assert choices["format"] is OUTPUT_FORMATS

    def test_cli_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG + "  turbo: true\n")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_cli_missing_file_exits_2(self):
        assert main(["run", "/nonexistent/path.yaml"]) == 2

    def test_cli_no_command_exits_2(self, capsys):
        assert main([]) == 2
