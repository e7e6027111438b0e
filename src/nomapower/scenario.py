"""Scenario harness: channel generation, user pairing, batch runs, output.

Channels follow the usual macro-cell recipe: log-distance path loss
(128.1 + 37.6 log10(d_km) by default), i.i.d. log-normal shadowing and a
constant antenna gain, over a small ring of sites with wrap-around
distances.  The harness drives the two solvers over a budget sweep and
emits per-iteration traces plus one summary row per (seed, budget) in
CSV or JSON form.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import numbers
import operator
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import yaml

from . import fixtures
from .network import (NetworkTopology, RateDemands, dense_rates, group_rates,
                      unpad)
from .power_min import COVER_RTOL, Problem, within_budgets
from .rate_max_network import (InfeasibleInitialPointError, dpc_srm,
                               random_feasible_start)

PAIRING_METHODS = ("SS", "SW", "SM")
ALGORITHMS = ("power-min", "rate-max")
OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _number(whole, name, value):
    """Any real number but a boolean, numpy scalars and YAML 1.1 numeric
    strings such as '3.0e5' included: an int when ``whole``, else a finite
    float.  This and the kinds below raise ConfigError naming the key."""
    if whole and type(value) is int:    # plain ints and floats skip the slow ABC checks
        return value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
            raise ConfigError(f"non-numeric value for {name}: {value!r}")
        if whole and isinstance(value, numbers.Integral):
            return int(value)
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"non-numeric value for {name}: {value!r}") from None
        except OverflowError:       # an int beyond the float range
            raise ConfigError(f"{name} must be finite") from None
    if whole:
        if not value.is_integer():
            raise ConfigError(f"{name} must be a whole number, got {value!r}")
        return int(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


_int = partial(_number, True)
_float = partial(_number, False)


def _floats(name, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_float(name, v) for v in value]


def _float_or_floats(name, value):
    return (_floats if isinstance(value, (list, tuple)) else _float)(name, value)


def _one_of(*choices):
    def check(name, value):
        if not (isinstance(value, str) and value in choices):
            raise ConfigError(f"{name} must be {' or '.join(map(repr, choices))}")
        return value
    return check


def _key(section, default, kind, rule=None):
    """Declare a config key: its YAML section, default, kind (one of the
    coercions above, or None for a key the cross-key checks read) and range
    rule ("positive", "non-negative" or None)."""
    metadata = {"section": section, "kind": kind, "rule": rule}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ScenarioConfig:
    """Scenario settings; each field is a config key declared with :func:`_key`."""
    seed: int = _key("scenario", 1, _int, "non-negative")
    num_seeds: int = _key("scenario", 1, _int, "positive")
    algorithm: str = _key("scenario", "power-min", _one_of(*ALGORITHMS))
    multistart: int = _key("scenario", 1, _int, "positive")
    layout: str = _key("cells", "paper-default", _one_of("paper-default", "custom"))
    site_positions_m: list | None = _key("cells", None, None)   # layout: custom only
    inter_site_distance_m: float = _key("cells", 800.0, _float, "positive")
    cell_radius_m: float | None = _key("cells", None, _float, "positive")
    num_cells: int = _key("cells", 3, _int, "positive")
    users_per_cell: int = _key("cells", 4, _int, "positive")
    users_per_subchannel: int = _key("cells", 2, _int, "positive")
    num_subchannels: int = _key("cells", 2, _int, "positive")
    pairing: str = _key("cells", "SW", _one_of(*PAIRING_METHODS))
    bandwidth_hz: float = _key("radio", 1.0e6, _float, "positive")
    noise_power_dbm: float = _key("radio", -114.0, _float)
    budget_dbm_sweep: list = _key("radio", [30.0], _floats)
    # scalar, or per-user list by gain rank; checked positive with the list length
    rate_demand_bps: object = _key("radio", 0.3e6, _float_or_floats)
    pathloss_intercept_db: float = _key("radio", 128.1, _float)
    pathloss_slope_db: float = _key("radio", 37.6, _float)
    shadowing_std_db: float = _key("radio", 8.0, _float, "non-negative")
    antenna_gain_dbi: float = _key("radio", 14.0, _float)
    min_distance_m: float = _key("radio", 10.0, _float, "positive")
    power_tol_w: float = _key("solver", 1.0e-8, _float, "positive")  # deprecated, unread
    # caps power-min's fixed-point solve only; rate-max's stops after 100
    max_iterations: int = _key("solver", 10_000, _int, "positive")
    rate_tol: float = _key("solver", 1.0e-3, _float, "positive")
    max_outer: int = _key("solver", 100, _int, "positive")

    def __post_init__(self):
        for name, kind, rule, optional in _KEYS:
            value = getattr(self, name)
            if kind is None or value is None and optional:
                continue
            value = kind(name, value)
            if rule == "positive" and value <= 0 or rule == "non-negative" and value < 0:
                raise ConfigError(f"{name} must be {rule}")
            setattr(self, name, value)
        if self.layout == "custom":
            if self.site_positions_m is None:
                raise ConfigError("custom layout needs site_positions_m")
            try:
                sites = np.array(self.site_positions_m, dtype=float)
                pairs = sites.ndim == 2 and sites.shape[1] == 2 and sites.size > 0
            except (TypeError, ValueError):
                pairs = False
            if not (pairs and np.isfinite(sites).all()):
                raise ConfigError("site_positions_m must be a non-empty list of"
                                  " finite [x, y] pairs")
            self.site_positions_m = sites.tolist()
            self.num_cells = len(sites)
        elif self.site_positions_m is not None:
            raise ConfigError("site_positions_m needs layout: custom")
        if self.min_distance_m >= self.radius:
            # the ring [min_distance_m, radius] that users are drawn from is empty
            radius = ("cell_radius_m" if self.cell_radius_m is not None
                      else "inter_site_distance_m / 2")
            raise ConfigError(f"min_distance_m ({self.min_distance_m:g} m) must be below "
                              f"the cell radius {radius} ({self.radius:g} m)")
        if self.users_per_cell != self.users_per_subchannel * self.num_subchannels:
            raise ConfigError(
                "users_per_cell must equal users_per_subchannel * num_subchannels")
        if self.users_per_subchannel != 2:
            raise ConfigError("pairing methods are defined for 2 users per subchannel")
        names = [f"{b:g}" for b in self.budget_dbm_sweep]
        if not names:
            raise ConfigError("budget_dbm_sweep must not be empty")
        if len(set(names)) < len(names):
            raise ConfigError(
                f"budget_dbm_sweep entries must give distinct trace names, got {names}")
        # a run's only check of its budgets and noise, in the solvers' watts
        for name, dbm in [("noise_power_dbm", self.noise_power_dbm)] + [
                ("budget_dbm_sweep", level) for level in self.budget_dbm_sweep]:
            try:
                watts = dbm_to_watts(dbm)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:
                raise ConfigError(f"{name} must give a positive finite power in"
                                  f" watts, got {dbm:g} dBm")
        if isinstance(self.rate_demand_bps, list):
            if len(self.rate_demand_bps) != self.users_per_cell:
                raise ConfigError("per-user rate list must have users_per_cell entries")
            if min(self.rate_demand_bps) <= 0:
                raise ConfigError("rate demands must be positive")
        elif self.rate_demand_bps <= 0:
            raise ConfigError("rate_demand_bps must be positive")

    @property
    def radius(self) -> float:
        if self.cell_radius_m is not None:
            return self.cell_radius_m
        return self.inter_site_distance_m / 2.0


# (name, kind, rule, optional) per key, read once for every __post_init__
_KEYS = [(f.name, f.metadata["kind"], f.metadata["rule"], f.default is None)
         for f in dataclasses.fields(ScenarioConfig)]


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
    section_of = {f.name: f.metadata["section"] for f in dataclasses.fields(ScenarioConfig)}
    values = {}
    for section, content in raw.items():
        if section not in section_of.values():
            raise ConfigError(f"unknown section {section!r}")
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in content.items():
            if section_of.get(key) != section:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            values[key] = value
    if "power_tol_w" in values:
        warnings.warn("solver.power_tol_w is deprecated and unread: the power-min"
                      " solve is exact", DeprecationWarning, stacklevel=2)
    return ScenarioConfig(**values)


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


@lru_cache(maxsize=16)
def _pairing(count, method):
    """:func:`pair_users`' groups of the ranks 0..count-1, as one
    read-only (count // 2, 2) array, built once per (count, method)."""
    pattern = np.array(pair_users(range(count), method))
    pattern.flags.writeable = False
    return pattern


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
    members = ranked[:, _pairing(per_cell, config.pairing)]    # (I, M, 2)
    return NetworkTopology(bandwidth=config.bandwidth_hz,
                           noise_power=dbm_to_watts(config.noise_power_dbm),
                           gains=gain[members].transpose(0, 1, 3, 2),
                           user_ids=members)


def _site_layout(config):
    if config.layout == "custom":
        return np.asarray(config.site_positions_m, dtype=float), None
    return _ring(config.num_cells, config.inter_site_distance_m)


@lru_cache(maxsize=16)
def _ring(num_cells, d0):
    """The paper-default sites and wrap-around extent, built once per
    (num_cells, inter-site distance) as read-only arrays."""
    sites = np.stack([np.arange(num_cells) * d0, np.zeros(num_cells)], axis=1)
    wrap = np.array([num_cells * d0, math.sqrt(3.0) * d0])
    sites.flags.writeable = wrap.flags.writeable = False
    return sites, wrap


_MAX_DRAWS = 1000       # per user


def _drop_users(rng, sites, count, config):
    """``count`` positions per site, at distance [min_distance_m, radius].

    Rejection sampling over a square, with the users and the generator
    state a one-user-at-a-time loop gives.  Whether an offset lands in
    the ring does not depend on the site, so one distance per row of a
    lookahead block of offsets decides it for all sites; the sites take
    the first ``count`` hits each, site after site, and the generator is
    then moved back to just past the rows used.  The block grows while it
    holds too few hits.  A user that needs more than ``_MAX_DRAWS`` draws
    raises RuntimeError.  The rewind counts two 64-bit draws per row: on
    PCG64, numpy's default generator, ``uniform`` takes one 64-bit draw
    per double.
    """
    radius = config.radius
    need = count * len(sites)
    # 1.5 rows per user: the default ring takes about 1.27, so the block
    # seldom has to grow
    offsets = rng.uniform(-radius, radius, size=(math.ceil(1.5 * need), 2))
    while True:
        # one dot product per row, rounding as np.linalg.norm does
        d = np.sqrt((offsets[:, None, :] @ offsets[:, :, None]).ravel())
        taken = np.flatnonzero((config.min_distance_m <= d) & (d <= radius))[:need]
        if len(offsets) >= _MAX_DRAWS:
            # misses before each hit taken, then after the last one
            runs = np.diff(taken, prepend=-1, append=len(offsets)) - 1
            if runs[:need].max() >= _MAX_DRAWS:
                raise RuntimeError(f"could not place a user after {_MAX_DRAWS} draws")
        if len(taken) == need:
            break
        more = rng.uniform(-radius, radius, size=offsets.shape)
        offsets = np.concatenate([offsets, more])
    rng.bit_generator.advance(2 * (int(taken[-1]) + 1 - len(offsets)))
    return np.repeat(sites, count, axis=0) + offsets[taken]


def _distances(points, sites, wrap):
    """(points, sites) distances, on the wrap-around torus when ``wrap`` is set."""
    dx = np.abs(points[:, 0, None] - sites[:, 0])
    dy = np.abs(points[:, 1, None] - sites[:, 1])
    if wrap is not None:
        dx = np.minimum(dx, wrap[0] - dx)
        dy = np.minimum(dy, wrap[1] - dy)
    return np.sqrt(dx * dx + dy * dy)


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
    own = topology.gains[cells, :, cells][real]
    order = np.lexsort((topology.user_ids[real], own, cell))
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

    Each seed is one :class:`~nomapower.power_min.Problem`: its channels and
    demands, checked once, their constants, and the least sum-power fixed
    point q* with the effective interference there, solved once.  q*
    does not depend on the budgets, so a budget point only tests q*
    against them.  Power-min splits q* once per seed; that split gives
    every feasible point's allocation and sums, and only :func:`_validate`
    evaluates the interference again.  Rate-max hands the problem to
    every ``dpc_srm`` and ``random_feasible_start`` call of the seed
    (:func:`_rate_max_point`).

    The process keeps the last seed's problem across calls
    (:func:`_problem`).  Callers that solve one (seed, budget) point per
    call, such as the benchmark, so draw a seed's channels and solve its
    fixed point once for all its budgets.  ``nomapower run`` gains
    nothing from it, since one call already shares each seed's problem
    over its sweep, and neither does ``scripts/pairing_sweep.py``, whose
    power-min and rate-max calls cap the fixed point differently.
    """
    summary = []
    traces = {}
    allocations = {}
    failures = []
    power_min = config.algorithm == "power-min"
    # rate-max's start solve keeps Problem's default cap of 100 linear solves
    max_iter = config.max_iterations if power_min else 100
    for seed in range(config.seed, config.seed + config.num_seeds):
        problem = _problem(config, seed, max_iter)
        topology = problem.topology
        report, h = problem.fixed_point
        trace = [(k + 1, float(v)) for k, v in enumerate(report.trace)]
        solved = None       # power-min's (allocation, sum power, sum rate) of q*
        for budget_dbm in config.budget_dbm_sweep:
            budgets = np.full(topology.num_cells, dbm_to_watts(budget_dbm))
            name = f"trace_{seed}_{budget_dbm:g}_{config.algorithm}.csv"
            if power_min:
                feasible = report.fits(budgets)
                if feasible and solved is None:
                    allocation = problem.split()
                    solved = (allocation, float(report.q_star.sum()), float(
                        group_rates(allocation.powers, h, topology.bandwidth).sum()))
                allocation, power, rate = (solved if feasible else
                                           (None, float("nan"), float("nan")))
                row = SummaryRow(seed, budget_dbm, config.algorithm,
                                 config.pairing, power, rate,
                                 report.iterations, feasible, name)
                traces[name] = trace
            else:
                row, traces[name], allocation = _rate_max_point(
                    config, problem, budgets, seed, budget_dbm, name)
            summary.append(row)
            if allocation is not None:
                allocations[name] = allocation
                fault = _validate(topology, problem.demands, budgets, allocation)
                if fault:
                    failures.append(f"seed {seed}, budget {budget_dbm} dBm: {fault}")
    return RunArtifacts(summary=summary, traces=traces, allocations=allocations,
                        validation_failures=failures)


# ScenarioConfig fields that no drop reads: the seed and the fixed point's
# cap enter _problem as arguments, and the rest steer the sweep and the
# solvers.  Every other field keys the drop, a field added later included
_UNREAD_BY_A_DROP = ("seed", "num_seeds", "algorithm", "multistart",
                     "budget_dbm_sweep", "rate_tol", "max_outer", "power_tol_w",
                     "max_iterations")
_drop_fields = operator.attrgetter(*(
    f.name for f in dataclasses.fields(ScenarioConfig)
    if f.name not in _UNREAD_BY_A_DROP))

_last_drop = None       # (key, problem) of the drop _problem built last


def _problem(config, seed, max_iter):
    """The :class:`~nomapower.power_min.Problem` of ``seed``'s drop under
    ``config``, whose fixed point takes at most ``max_iter`` linear solves.

    The process remembers the last drop built, keyed by the seed,
    ``max_iter`` and every config field a drop reads, and hands it out
    again while the key holds: the problem is read-only and its fixed
    point, solved on first use, is shared.  The key keeps copies of the
    config's lists, so a list changed in place gives a new drop.
    """
    global _last_drop
    key = (seed, max_iter, *_drop_fields(config))
    last = _last_drop       # read once: another thread may replace it
    if last is not None and last[0] == key:
        return last[1]
    topology = generate_channels(config, seed)
    problem = Problem(topology, build_demands(config, topology), max_iter)
    if list in map(type, key):
        key = copy.deepcopy(key)
    _last_drop = key, problem
    return problem


def _rate_max_point(config, problem, budgets, seed, budget_dbm, name):
    """Best of ``config.multistart`` dpc_srm runs on the seed's ``problem``
    at its ``budgets``: the default start, then random starts from a
    generator seeded by the seed alone; every call takes the problem."""
    solve = partial(dpc_srm, problem, budgets, tol=config.rate_tol,
                    max_outer=config.max_outer)
    row = partial(SummaryRow, seed, budget_dbm, config.algorithm, config.pairing)
    try:
        best = solve()
        if config.multistart > 1:
            rng = np.random.default_rng(seed + 0x5EED)
            for _ in range(config.multistart - 1):
                q0, x0 = random_feasible_start(problem, budgets, rng)
                candidate = solve(q0=q0, x0=x0)
                if candidate.sum_rate > best.sum_rate:
                    best = candidate
    except InfeasibleInitialPointError:
        return row(float("nan"), float("nan"), 0, False, name), [(0, float("nan"))], None
    trace = [(k, float(v)) for k, v in enumerate(best.trace)]
    return (row(float(best.q.sum()), best.sum_rate, best.outer_iterations,
                best.converged, name), trace, best.allocation)


def _validate(topology, demands, budgets, allocation):
    q = allocation.cell_powers()
    if not within_budgets(budgets, q).all():
        return "budget exceeded"
    achieved = dense_rates(topology, allocation, q)
    missed = (achieved < demands.rates * (1.0 - COVER_RTOL)).any(axis=-1)
    if missed.any():
        i, m = np.argwhere(missed)[0]
        return f"rate demand missed in group ({i},{m})"
    return None


def write_outputs(artifacts: RunArtifacts, out_dir, fmt: str = "csv"):
    """Emit the artifacts under ``out_dir`` as ``fmt``, one of
    :data:`OUTPUT_FORMATS`; returns the paths written.

    CSV writes two files: ``summary.csv``, one row per (seed, budget),
    and ``traces.csv``, one ``trace_file,iteration,objective`` row per
    trace point, ``trace_file`` being the trace's name as the summary
    row gives it.  The objective's unit, W for power-min and bit/s for
    rate-max, is in the header, so the traces of one run share it.  JSON
    writes everything to ``run.json``.

    A file that exists already is rewritten in place and cut when it was
    longer, so a rerun into the same directory leaves the bytes a fresh
    directory gets; files of an earlier run that this one does not write
    stay as they are.
    """
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"output format must be one of {OUTPUT_FORMATS}")
    out = Path(out_dir)
    if fmt == "json":
        payload = {
            "summary": [dataclasses.asdict(r) for r in artifacts.summary],
            "traces": {k: v for k, v in sorted(artifacts.traces.items())},
            "allocations": {
                k: [[p.tolist() for p in row] for row in unpad(a.powers, a.powers > 0)]
                for k, a in sorted(artifacts.allocations.items())},
        }
        path = out / "run.json"
        _write(path, json.dumps(_finite_or_null(payload), indent=2,
                                sort_keys=True, allow_nan=False) + "\n")
        return [path]
    units = {"W" if "power-min" in name else "bit/s" for name in artifacts.traces}
    if len(units) > 1:
        raise ValueError("traces of both algorithms cannot share one traces.csv")
    unit = units.pop() if units else "W"
    header = ("seed,budget (dBm),algorithm,pairing,sum_power (W),"
              "sum_rate (bit/s),iterations,converged,trace_file\n")
    lines = [header]
    for r in artifacts.summary:
        lines.append(f"{r.seed},{r.budget_dbm},{r.algorithm},{r.pairing},"
                     f"{r.sum_power_w},{r.sum_rate_bps},{r.iterations},"
                     f"{r.converged},{r.trace_file}\n")
    summary = out / "summary.csv"
    _write(summary, "".join(lines))
    lines = [f"trace_file,iteration,objective ({unit})\n"]
    for name, rows in sorted(artifacts.traces.items()):
        lines.extend(f"{name},{k},{v}\n" for k, v in rows)
    traces = out / "traces.csv"
    _write(traces, "".join(lines))
    return [summary, traces]


def _write(path, text):
    """Write ``text`` over ``path``, then cut the file to its length if it
    was longer; the directory is made on the first write into it.

    Writing over the old bytes instead of truncating the file to zero
    first avoids the flush some filesystems (ext4) make when a truncated
    file is closed; like ``Path.write_text`` it is not atomic.
    """
    data = text.encode()
    flags = os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        longer = os.fstat(fd).st_size > len(data)
        left = memoryview(data)
        while left:
            left = left[os.write(fd, left):]
        if longer:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
    def check(label, good, got, want):
        print(f"{'PASS' if good else 'FAIL'}: {label} (got {got!r}, want {want!r})")
        return bool(good)

    topology, demands, budgets = fixtures.symmetric_two_cell()
    problem = Problem(topology, demands)
    report = problem.fixed_point[0]
    total, want = float(report.q_star.sum()), fixtures.SYMMETRIC_TWO_CELL_SUM_POWER
    powers = problem.split().powers[0, 0]
    ok = check("symmetric two-cell minimum sum power",
               report.fits(budgets) and math.isclose(total, want, rel_tol=COVER_RTOL)
               and np.allclose(powers, fixtures.SYMMETRIC_TWO_CELL_USER_POWERS,
                               rtol=COVER_RTOL, atol=0.0),
               total, want)

    topology, demands, budgets = fixtures.rate_max_single_cell()
    srm = dpc_srm(Problem(topology, demands), budgets)
    want = float(fixtures.RATE_MAX_SINGLE_CELL_SUM_RATE)
    ok &= check("single-cell maximum sum rate",
                math.isclose(srm.sum_rate, want, rel_tol=COVER_RTOL), srm.sum_rate, want)
    powers = srm.allocation.powers[0, 0].tolist()
    want = list(fixtures.RATE_MAX_SINGLE_CELL_POWERS)
    ok &= check("single-cell rate-optimal split",
                np.allclose(powers, want, rtol=COVER_RTOL, atol=0.0), powers, want)
    return ok
