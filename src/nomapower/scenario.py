"""Scenario harness: channel generation, user pairing, batch runs, output.

Channels follow the usual macro-cell recipe: log-distance path loss
(128.1 + 37.6 log10(d_km) by default), i.i.d. log-normal shadowing and a
constant antenna gain, over a small ring of sites with wrap-around
distances.  The harness drives the two solvers over a budget sweep and
emits per-iteration traces plus one summary row per (seed, budget) in
CSV or JSON form.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import fixtures
from .network import NetworkTopology, RateDemands, dense_rates
from .power_min import assemble_full_solution, solve_spm, within_budgets
from .rate_max_network import (InfeasibleInitialPointError, dpc_srm,
                               random_feasible_start)

PAIRING_METHODS = ("SS", "SW", "SM")
ALGORITHMS = ("power-min", "rate-max")


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class ScenarioConfig:
    # scenario
    seed: int = 1
    num_seeds: int = 1
    algorithm: str = "power-min"
    multistart: int = 1
    # cells
    layout: str = "paper-default"
    site_positions_m: list | None = None
    inter_site_distance_m: float = 800.0
    cell_radius_m: float | None = None
    num_cells: int = 3
    users_per_cell: int = 4
    users_per_subchannel: int = 2
    num_subchannels: int = 2
    pairing: str = "SW"
    # radio
    bandwidth_hz: float = 1.0e6
    noise_power_dbm: float = -114.0
    budget_dbm_sweep: list = field(default_factory=lambda: [30.0])
    rate_demand_bps: object = 0.3e6        # scalar, or per-user list by gain rank
    pathloss_intercept_db: float = 128.1
    pathloss_slope_db: float = 37.6
    shadowing_std_db: float = 8.0
    antenna_gain_dbi: float = 14.0
    min_distance_m: float = 10.0
    # solver
    power_tol_w: float = 1.0e-8     # deprecated and unread: the power-min solve is exact
    max_iterations: int = 10_000    # caps solve_spm's linear solves
    rate_tol: float = 1.0e-3
    max_outer: int = 100

    _FLOAT_FIELDS = ("inter_site_distance_m", "bandwidth_hz",
                     "noise_power_dbm", "pathloss_intercept_db",
                     "pathloss_slope_db", "shadowing_std_db",
                     "antenna_gain_dbi", "min_distance_m", "power_tol_w",
                     "rate_tol")
    _INT_FIELDS = ("seed", "num_seeds", "multistart", "num_cells",
                   "users_per_cell", "users_per_subchannel",
                   "num_subchannels", "max_iterations", "max_outer")

    def __post_init__(self):
        # YAML 1.1 reads unsigned scientific notation (3.0e5) as a string;
        # coerce every numeric field up front
        try:
            for name in self._FLOAT_FIELDS:
                setattr(self, name, float(getattr(self, name)))
            for name in self._INT_FIELDS:
                setattr(self, name, int(getattr(self, name)))
            if self.cell_radius_m is not None:
                self.cell_radius_m = float(self.cell_radius_m)
            self.budget_dbm_sweep = [float(v) for v in self.budget_dbm_sweep]
            if isinstance(self.rate_demand_bps, (list, tuple)):
                self.rate_demand_bps = [float(v) for v in self.rate_demand_bps]
            else:
                self.rate_demand_bps = float(self.rate_demand_bps)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-numeric value: {exc}") from exc
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if self.pairing not in PAIRING_METHODS:
            raise ConfigError(f"pairing must be one of {PAIRING_METHODS}")
        if self.layout not in ("paper-default", "custom"):
            raise ConfigError("layout must be 'paper-default' or 'custom'")
        if self.layout == "custom":
            if not self.site_positions_m:
                raise ConfigError("custom layout needs site_positions_m")
            self.num_cells = len(self.site_positions_m)
        positives = ["inter_site_distance_m", "cell_radius_m", "users_per_cell",
                     "users_per_subchannel", "num_subchannels", "num_cells",
                     "bandwidth_hz", "shadowing_std_db", "min_distance_m",
                     "power_tol_w", "max_iterations", "rate_tol", "max_outer",
                     "multistart", "num_seeds"]
        for name in positives:
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                if name == "shadowing_std_db" and self.shadowing_std_db == 0:
                    continue
                raise ConfigError(f"{name} must be positive")
        if self.users_per_cell % self.users_per_subchannel != 0:
            raise ConfigError("users_per_subchannel must divide users_per_cell")
        if self.users_per_cell != self.users_per_subchannel * self.num_subchannels:
            raise ConfigError(
                "users_per_cell must equal users_per_subchannel * num_subchannels")
        if self.users_per_subchannel != 2:
            raise ConfigError("pairing methods are defined for 2 users per subchannel")
        if not self.budget_dbm_sweep:
            raise ConfigError("budget_dbm_sweep must not be empty")
        if isinstance(self.rate_demand_bps, (list, tuple)):
            if len(self.rate_demand_bps) != self.users_per_cell:
                raise ConfigError("per-user rate list must have users_per_cell entries")
            if any(r <= 0 for r in self.rate_demand_bps):
                raise ConfigError("rate demands must be positive")
        elif self.rate_demand_bps <= 0:
            raise ConfigError("rate_demand_bps must be positive")

    @property
    def radius(self) -> float:
        if self.cell_radius_m is not None:
            return self.cell_radius_m
        return self.inter_site_distance_m / 2.0


_SECTIONS = {
    "scenario": ["seed", "num_seeds", "algorithm", "multistart"],
    "cells": ["layout", "site_positions_m", "inter_site_distance_m",
              "cell_radius_m", "num_cells", "users_per_cell",
              "users_per_subchannel", "num_subchannels", "pairing"],
    "radio": ["bandwidth_hz", "noise_power_dbm", "budget_dbm_sweep",
              "rate_demand_bps", "pathloss_intercept_db", "pathloss_slope_db",
              "shadowing_std_db", "antenna_gain_dbi", "min_distance_m"],
    "solver": ["power_tol_w", "max_iterations", "rate_tol", "max_outer"],
}


def load_config(path) -> ScenarioConfig:
    """Parse a YAML scenario file; unknown sections or keys are errors."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")
    values = {}
    for section, content in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in content.items():
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            values[key] = value
    if "power_tol_w" in values:
        warnings.warn("solver.power_tol_w is deprecated and unread: the power-min"
                      " solve is exact", DeprecationWarning, stacklevel=2)
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def pair_users(indices, method: str):
    """Group users two by two, given their indices sorted ascending by gain.

    SS pairs neighbors from the top down, SW pairs the strongest with the
    weakest, SM pairs the strongest with the upper-middle user.  Groups
    come back sorted internally (weak first) and ordered by their weakest
    member.
    """
    if method not in PAIRING_METHODS:
        raise ValueError(f"pairing must be one of {PAIRING_METHODS}")
    idx = list(indices)
    n = len(idx)
    if n % 2 != 0:
        raise ValueError(f"cannot pair {n} users")
    half = n // 2
    if method == "SS":
        pairs = [(idx[k], idx[k + 1]) for k in range(0, n, 2)]
    elif method == "SW":
        pairs = [(idx[k], idx[n - 1 - k]) for k in range(half)]
    else:   # SM
        pairs = [(idx[k], idx[k + half]) for k in range(half)]
    return pairs


def link_gain_db(config: ScenarioConfig, distance_m, shadow_db=0.0):
    """Antenna gain minus log-distance path loss minus shadowing, in dB."""
    d_km = np.asarray(distance_m, dtype=float) / 1000.0
    loss = config.pathloss_intercept_db \
        + config.pathloss_slope_db * np.log10(d_km)
    return config.antenna_gain_dbi - loss - shadow_db


def generate_channels(config: ScenarioConfig, seed: int) -> NetworkTopology:
    """Topology for one random drop; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    sites, wrap = _site_layout(config)
    num_cells = sites.shape[0]
    per_cell = config.users_per_cell
    users = _drop_users(rng, sites, per_cell, config)
    shadow = rng.normal(0.0, config.shadowing_std_db,
                        size=(len(users), num_cells))
    gain_db = link_gain_db(config, _distances(users, sites, wrap), shadow)
    gain = 10.0 ** (gain_db / 10.0)                 # (users, sites)

    # rank each cell's users by own gain (ties by user index), then group
    # the ranks by the pairing's fixed pattern
    cells = np.arange(num_cells)
    own = gain.reshape(num_cells, per_cell, num_cells)[cells, :, cells]
    ranked = np.argsort(own, axis=1, kind="stable") + per_cell * cells[:, None]
    members = ranked[:, pair_users(range(per_cell), config.pairing)]   # (I, M, 2)
    budget = dbm_to_watts(config.budget_dbm_sweep[0])
    return NetworkTopology(bandwidth=config.bandwidth_hz,
                           noise_power=dbm_to_watts(config.noise_power_dbm),
                           budgets=np.full(num_cells, budget),
                           gains=tuple(map(tuple, gain[members].transpose(0, 1, 3, 2))),
                           user_ids=tuple(map(tuple, members)))


def _site_layout(config):
    if config.layout == "custom":
        return np.asarray(config.site_positions_m, dtype=float), None
    d0 = config.inter_site_distance_m
    sites = np.stack([np.arange(config.num_cells) * d0,
                      np.zeros(config.num_cells)], axis=1)
    wrap = np.array([config.num_cells * d0, math.sqrt(3.0) * d0])
    return sites, wrap


_MAX_DRAWS = 1000       # per user


def _drop_users(rng, sites, count, config):
    """``count`` positions per site, at distance [min_distance_m, radius].

    Rejection sampling over a square, site by site, with the draws in the
    order a one-user-at-a-time loop makes them: each round draws exactly
    as many trials as the site still misses users, so no draw is wasted.
    A user that needs more than ``_MAX_DRAWS`` draws raises RuntimeError.
    """
    radius = config.radius
    placed = []
    for site in sites:
        need = count
        missed = 0          # rejected draws since the last accepted one
        while need:
            pos = site + rng.uniform(-radius, radius, size=(need, 2))
            delta = pos - site
            # one dot product per row, rounding as np.linalg.norm(delta[k]) does
            d = np.sqrt((delta[:, None, :] @ delta[:, :, None]).ravel())
            hits = ((config.min_distance_m <= d) & (d <= radius)).nonzero()[0]
            if missed + need >= _MAX_DRAWS:
                runs = np.diff(hits, prepend=-1 - missed, append=need) - 1
                if runs.max() >= _MAX_DRAWS:
                    raise RuntimeError(
                        f"could not place a user after {_MAX_DRAWS} draws")
            missed = need - 1 - hits[-1] if hits.size else missed + need
            placed.append(pos[hits])
            need -= hits.size
    return np.concatenate(placed)


def _distances(points, sites, wrap):
    """(points, sites) distances, on the wrap-around torus when ``wrap`` is set."""
    delta = np.abs(points[:, None, :] - sites[None, :, :])
    if wrap is not None:
        delta = np.minimum(delta, wrap - delta)
    return np.sqrt((delta ** 2).sum(axis=-1))


def build_demands(config: ScenarioConfig, topology: NetworkTopology) -> RateDemands:
    """Demands from the config.

    A per-user list is indexed by own-gain rank within the cell: entry 0
    goes to the cell's weakest user, the last entry to its strongest.
    Ties rank by user id, as in :func:`generate_channels`.
    """
    if not isinstance(config.rate_demand_bps, (list, tuple)):
        return RateDemands.uniform(topology, float(config.rate_demand_bps))
    real = topology.occupied
    cells = np.arange(topology.num_cells)
    cell = np.nonzero(real)[0]                  # of every user, ascending
    own = topology.dense_gains[cells, :, cells][real]
    order = np.lexsort((topology.dense_ids[real], own, cell))
    # position in the (cell, own gain, id) order minus the cell's first one
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(cell, cell)
    rates = np.zeros(real.shape)
    rates[real] = np.asarray(config.rate_demand_bps)[rank]
    return RateDemands(rates)


@dataclass
class SummaryRow:
    seed: int
    budget_dbm: float
    algorithm: str
    pairing: str
    sum_power_w: float
    sum_rate_bps: float
    iterations: int
    converged: bool
    trace_file: str


@dataclass
class RunArtifacts:
    summary: list
    traces: dict
    allocations: dict
    validation_failures: list

    @property
    def ok(self) -> bool:
        return not self.validation_failures


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Solve every (seed, budget) point of the sweep and collect artifacts.

    Each seed's channels and demands are drawn and built once; each
    further budget point rebuilds the topology with its own budgets
    (``dataclasses.replace``, which re-runs its construction and checks).
    Power-min solves once per seed, since q* does not depend on the
    budget, and each budget point re-checks only the per-BS totals.
    """
    summary = []
    traces = {}
    allocations = {}
    failures = []
    for seed in range(config.seed, config.seed + config.num_seeds):
        topology = generate_channels(config, seed)
        demands = build_demands(config, topology)
        if config.algorithm == "power-min":
            report = solve_spm(topology, demands, max_iter=config.max_iterations)
            trace = [(k + 1, float(v)) for k, v in enumerate(report.trace)]
            solved = None       # (allocation, sum power, sum rate) of q*
        for budget_dbm in config.budget_dbm_sweep:
            budgets = np.full(topology.num_cells, dbm_to_watts(budget_dbm))
            if not np.array_equal(budgets, topology.budgets):
                topology = dataclasses.replace(topology, budgets=budgets)
            name = f"trace_{seed}_{budget_dbm:g}_{config.algorithm}.csv"
            if config.algorithm == "power-min":
                feasible = report.converged and bool(
                    within_budgets(topology, report.q_star).all())
                if feasible and solved is None:
                    allocation = assemble_full_solution(topology, demands,
                                                        report.q_star)
                    solved = (allocation, float(report.q_star.sum()), float(
                        dense_rates(topology, allocation, report.q_star).sum()))
                allocation, power, rate = (solved if feasible else
                                           (None, float("nan"), float("nan")))
                row = SummaryRow(seed, budget_dbm, config.algorithm,
                                 config.pairing, power, rate,
                                 report.iterations, feasible, name)
            else:
                row, trace, allocation = _rate_max_point(
                    config, topology, demands, seed, budget_dbm, name)
            summary.append(row)
            traces[name] = trace
            if allocation is not None:
                allocations[name] = allocation
                problem = _validate(topology, demands, allocation)
                if problem:
                    failures.append(f"seed {seed}, budget {budget_dbm} dBm: {problem}")
    return RunArtifacts(summary=summary, traces=traces, allocations=allocations,
                        validation_failures=failures)


def _rate_max_point(config, topology, demands, seed, budget_dbm, name):
    best = None
    try:
        best = dpc_srm(topology, demands, tol=config.rate_tol,
                       max_outer=config.max_outer)
        rng = np.random.default_rng(seed + 0x5EED)
        for _ in range(config.multistart - 1):
            q0, x0 = random_feasible_start(topology, demands, rng)
            candidate = dpc_srm(topology, demands, q0=q0, x0=x0,
                                tol=config.rate_tol, max_outer=config.max_outer)
            if candidate.sum_rate > best.sum_rate:
                best = candidate
    except InfeasibleInitialPointError:
        row = SummaryRow(seed, budget_dbm, config.algorithm, config.pairing,
                         float("nan"), float("nan"), 0, False, name)
        return row, [(0, float("nan"))], None
    trace = [(k, float(v)) for k, v in enumerate(best.trace)]
    row = SummaryRow(seed, budget_dbm, config.algorithm, config.pairing,
                     float(best.q.sum()), best.sum_rate,
                     best.outer_iterations, best.converged, name)
    return row, trace, best.allocation


def _validate(topology, demands, allocation):
    q = allocation.cell_powers()
    if np.any(q.sum(axis=1) > topology.budgets * (1.0 + 1e-9)):
        return "budget exceeded"
    achieved = dense_rates(topology, allocation, q)
    missed = np.argwhere(np.any(achieved < demands.padded * (1.0 - 1e-6), axis=-1))
    if missed.size:
        i, m = missed[0]
        return f"rate demand missed in group ({i},{m})"
    return None


def write_outputs(artifacts: RunArtifacts, out_dir, fmt: str = "csv"):
    """Emit the artifacts under ``out_dir``; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "json":
        payload = {
            "summary": [dataclasses.asdict(r) for r in artifacts.summary],
            "traces": {k: v for k, v in sorted(artifacts.traces.items())},
            "allocations": {
                k: [[list(map(float, p)) for p in row] for row in a.powers]
                for k, a in sorted(artifacts.allocations.items())},
        }
        path = out / "run.json"
        path.write_text(json.dumps(_finite_or_null(payload), indent=2,
                                   sort_keys=True, allow_nan=False) + "\n")
        return [path]
    header = ("seed,budget (dBm),algorithm,pairing,sum_power (W),"
              "sum_rate (bit/s),iterations,converged,trace_file\n")
    lines = [header]
    for r in artifacts.summary:
        lines.append(f"{r.seed},{r.budget_dbm},{r.algorithm},{r.pairing},"
                     f"{r.sum_power_w},{r.sum_rate_bps},{r.iterations},"
                     f"{r.converged},{r.trace_file}\n")
    path = out / "summary.csv"
    path.write_text("".join(lines))
    written.append(path)
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for name, rows in sorted(artifacts.traces.items()):
        unit = "W" if "power-min" in name else "bit/s"
        body = [f"iteration,objective ({unit})\n"]
        body.extend(f"{k},{v}\n" for k, v in rows)
        tpath = trace_dir / name
        tpath.write_text("".join(body))
        written.append(tpath)
    return written


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def run_fixture_checks() -> bool:
    """Run the built-in analytic fixtures through the real solvers."""
    ok = True

    topology, demands = fixtures.symmetric_two_cell()
    report = solve_spm(topology, demands)
    total = float(report.q_star.sum())
    good = report.feasible and abs(total - fixtures.SYMMETRIC_TWO_CELL_SUM_POWER) <= 1e-6
    allocation = assemble_full_solution(topology, demands, report.q_star)
    good &= bool(np.allclose(allocation.powers[0][0],
                             fixtures.SYMMETRIC_TWO_CELL_USER_POWERS, atol=1e-6))
    print(f"{'PASS' if good else 'FAIL'}: symmetric two-cell minimum sum power "
         f"(got {total!r}, want {fixtures.SYMMETRIC_TWO_CELL_SUM_POWER})")
    ok &= good

    topology, demands = fixtures.rate_max_single_cell()
    srm = dpc_srm(topology, demands)
    want = fixtures.RATE_MAX_SINGLE_CELL_SUM_RATE
    good = abs(srm.sum_rate - want) <= 1e-6
    print(f"{'PASS' if good else 'FAIL'}: single-cell maximum sum rate "
         f"(got {srm.sum_rate!r}, want {want!r})")
    ok &= good
    return bool(ok)
