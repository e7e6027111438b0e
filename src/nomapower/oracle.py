"""Independent brute-force and numerical validators.

Everything here deliberately avoids the closed forms and fixed-point
machinery of the solver modules: group feasibility is decided by solving
the tight rate constraints as a plain linear system, optima are located
by exhaustive grid search, and curvature is probed with finite
differences.  Instances are bounded at entry because the searches are
combinatorial.  Per-group companions of the closed forms and the dense
views live here too, for validation only: one group's interference,
rates and optimal sum rate, a check of one closed form against another,
a direct sum of per-user rates and the slack of the rate constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (NetworkTopology, PowerAllocation, RateDemands,
                      dense_interference, group_rates, suffix_sums)
from .power_min import min_power_user_allocation
from .rate_max_cell import (InfeasiblePowerError, optimal_single_cell_allocation,
                            required_group_power, single_cell_feasible)


class OracleInfeasibleError(RuntimeError):
    """No feasible grid point exists at the requested resolution."""


@dataclass(frozen=True)
class GridPowerResult:
    q: np.ndarray
    total_power: float
    allocations: tuple
    points_searched: int
    points_feasible: int


@dataclass(frozen=True)
class GridRateResult:
    powers: np.ndarray
    sum_rate: float
    points_searched: int
    points_feasible: int


@dataclass(frozen=True)
class GridDcResult:
    value: float
    bound: float        # a-priori bound on value minus the continuous optimum


def tight_constraint_matrix(demands: np.ndarray, bandwidth: float) -> np.ndarray:
    """Coefficient matrix of the rate constraints set to equality.

    Row j encodes  p_j - (2^(R_j/B)-1) * sum_{n>j} p_n  =  (2^(R_j/B)-1) H_j.
    """
    coef = np.exp2(np.asarray(demands, dtype=float) / bandwidth) - 1.0
    n = coef.size
    t = np.eye(n)
    for j in range(n):
        t[j, j + 1:] = -coef[j]
    return t


def minimal_group_powers(demands: np.ndarray, h_points: np.ndarray,
                         bandwidth: float) -> np.ndarray:
    """Minimum-power splits for a batch of interference vectors.

    Solves the tight linear system directly; row k of ``h_points`` gives
    one (n,) interference vector and row k of the result the matching
    per-user powers.
    """
    coef = np.exp2(np.asarray(demands, dtype=float) / bandwidth) - 1.0
    t_inv = np.linalg.inv(tight_constraint_matrix(demands, bandwidth))
    return (coef * np.atleast_2d(h_points)) @ t_inv.T


def effective_interference(topology: NetworkTopology, q: np.ndarray,
                           i: int, m: int, j: int | None = None):
    """Effective interference of user ``j`` of group (i, m), or of the
    whole group when ``j`` is None: one group of
    :func:`~nomapower.network.dense_interference`.
    """
    h = topology.unpad(dense_interference(topology, q))[i][m]
    return h if j is None else h[j]


def achievable_rate(topology: NetworkTopology, allocation: PowerAllocation,
                    q: np.ndarray, i: int, m: int, j: int | None = None):
    """Achievable rate (bit/s) of group (i, m) users under SIC decoding."""
    rates = group_rates(allocation.powers[i][m],
                        effective_interference(topology, q, i, m), topology.bandwidth)
    return rates if j is None else rates[j]


def optimal_single_cell_rate(demands: np.ndarray, h: np.ndarray, q_im: float,
                             bandwidth: float) -> float:
    """Closed-form optimal sum rate (bit/s) of one group.

    Equal to the weak users' demands plus the strongest user's rate at the
    optimal split:

        B log2(1 + q / (2^S H_n) - sum_j (2^(R_j/B)-1) H_j / (2^T_j H_n))
          + sum_weak R_j

    with S the cumulative weak demand and T_j the cumulative demand from
    user j through the last weak user.
    """
    feasible, required = single_cell_feasible(demands, h, q_im, bandwidth)
    if not feasible:
        raise InfeasiblePowerError(required, q_im)
    r = np.asarray(demands, dtype=float) / bandwidth
    h = np.asarray(h, dtype=float)
    weak = r[:-1]
    h_strong = h[-1]
    # T_j = sum_{l=j}^{n-2} r_l, cumulative from each weak user to the last weak one
    tail = np.cumsum(weak[::-1])[::-1]
    argument = 1.0 + q_im / (np.exp2(weak.sum()) * h_strong) \
        - np.sum((np.exp2(weak) - 1.0) * h[:-1] / (np.exp2(tail) * h_strong))
    return float(bandwidth * np.log2(argument) + bandwidth * weak.sum())


def boundary_allocation_matches_minimum(demands: np.ndarray, h: np.ndarray,
                                        bandwidth: float, rtol: float = 1e-9) -> bool:
    """At the feasibility boundary both closed forms coincide."""
    required = required_group_power(demands, h, bandwidth)
    p_rate = optimal_single_cell_allocation(demands, h, required, bandwidth)
    p_min = min_power_user_allocation(demands, h, bandwidth)
    return bool(np.allclose(p_rate, p_min, rtol=rtol, atol=0.0))


def group_sum_rate(p: np.ndarray, h: np.ndarray, bandwidth: float) -> float:
    """Direct sum of per-user rates; validation companion to the closed form."""
    return float(group_rates(p, h, bandwidth).sum())


def rate_constraint_slack(p: np.ndarray, h: np.ndarray, demands: np.ndarray,
                          bandwidth: float) -> np.ndarray:
    """Signed slack (W) of the linearized rate constraint for one group.

    Positive where p_j >= (2^(R_j/B) - 1) * (sum of later powers + H_j);
    users run along the last axis, so padded arrays give every group's.
    """
    p = np.asarray(p, dtype=float)
    growth = np.exp2(np.asarray(demands, dtype=float) / bandwidth) - 1.0
    return p - growth * (suffix_sums(p) + h)


def interference_over_gain(topology: NetworkTopology, q: np.ndarray,
                           i: int, m: int) -> np.ndarray:
    """(inter-cell interference + noise) / own gain, per user of group (i, m).

    Explicit loops over the users and the other cells, reading the nested
    gains only, never the topology's dense view.
    """
    g = topology.gains[i][m]
    out = np.empty(g.shape[1])
    for l in range(g.shape[1]):
        z = topology.noise_power
        for k in range(topology.num_cells):
            if k != i:
                z += float(q[k, m]) * float(g[k, l])
        out[l] = z / g[i, l]
    return out


def reference_interference_map(topology: NetworkTopology, demands: RateDemands,
                               q: np.ndarray) -> np.ndarray:
    """f(q) by explicit loops, independent of the dense map.

    Each user's effective interference is the largest value of
    :func:`interference_over_gain` over the users that decode it (itself
    and every stronger user); the group's minimum power then comes from
    the tight rate constraints solved as a linear system.
    """
    q = np.asarray(q, dtype=float)
    out = np.zeros((topology.num_cells, topology.num_subchannels))
    for i, m in topology.groups():
        ratio = interference_over_gain(topology, q, i, m)
        n = ratio.size
        if n == 0:
            continue
        h = np.array([max(ratio[l] for l in range(j, n)) for j in range(n)])
        out[i, m] = float(minimal_group_powers(demands.rates[i][m], h,
                                               topology.bandwidth).sum())
    return out


def rate_via_decoding_chain(topology: NetworkTopology, allocation: PowerAllocation,
                            q: np.ndarray, i: int, m: int) -> np.ndarray:
    """Rates of group (i, m) as the explicit minimum over decoding users l >= j.

    Algebraically identical to :func:`achievable_rate`.
    """
    p = np.asarray(allocation.powers[i][m], dtype=float)
    ratio = interference_over_gain(topology, np.asarray(q, dtype=float), i, m)
    b = topology.bandwidth
    n = p.size
    rates = np.empty(n)
    for j in range(n):
        tail = float(p[j + 1:].sum())
        rates[j] = min(b * np.log1p(p[j] / (tail + ratio[l])) / np.log(2.0)
                       for l in range(j, n))
    return rates


def grid_power_min(topology: NetworkTopology, demands: RateDemands,
                   resolution: float, max_points: int = 20_000_000) -> GridPowerResult:
    """Exhaustive search for the cheapest feasible per-BS power vector.

    Enumerates q on a ``resolution``-spaced grid up to the budgets; a
    point is feasible when, at the interference it creates, every group's
    demands can be met within its q entry (checked by the linear-system
    route).  Only small instances are accepted.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if topology.num_cells > 2 or topology.num_subchannels > 2:
        raise ValueError("grid oracle accepts at most 2 cells x 2 subchannels")
    for i, m in topology.groups():
        if topology.group_size(i, m) > 3:
            raise ValueError("grid oracle accepts at most 3 users per group")

    axes = []
    for i in range(topology.num_cells):
        steps = int(np.floor(topology.budgets[i] / resolution))
        axes.extend([np.arange(steps + 1) * resolution] * topology.num_subchannels)
    total = int(np.prod([a.size for a in axes]))
    if total > max_points:
        raise ValueError(f"grid of {total} points exceeds the {max_points} cap")

    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1).reshape(
        -1, topology.num_cells, topology.num_subchannels)
    keep = np.all(grid.sum(axis=2) <= topology.budgets[None, :] + 1e-12, axis=1)
    grid = grid[keep]

    feasible = np.ones(grid.shape[0], dtype=bool)
    minimal = {}
    for i, m in topology.groups():
        g = topology.gains[i][m]
        others = np.delete(np.arange(topology.num_cells), i)
        z = grid[:, others, m] @ g[others] + topology.noise_power
        ratio = z / g[i]
        h = np.maximum.accumulate(ratio[:, ::-1], axis=1)[:, ::-1]
        p = minimal_group_powers(demands.rates[i][m], h, topology.bandwidth)
        minimal[(i, m)] = p
        feasible &= p.sum(axis=1) <= grid[:, i, m] + 1e-12

    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        raise OracleInfeasibleError(
            f"none found at resolution {resolution!r}")
    totals = grid.reshape(grid.shape[0], -1).sum(axis=1)
    totals = np.where(feasible, totals, np.inf)
    best = int(np.argmin(totals))   # argmin takes the first, lexicographic order
    best_alloc = tuple(
        tuple(minimal[(i, m)][best] for m in range(topology.num_subchannels))
        for i in range(topology.num_cells))
    return GridPowerResult(q=grid[best], total_power=float(totals[best]),
                           allocations=best_alloc, points_searched=grid.shape[0],
                           points_feasible=n_feasible)


def grid_rate_max_group(demands: np.ndarray, h: np.ndarray, q: float,
                        resolution: float, bandwidth: float = 1.0,
                        max_points: int = 20_000_000) -> GridRateResult:
    """Best rate-feasible split of total power ``q`` on a simplex grid."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    demands = np.asarray(demands, dtype=float)
    h = np.asarray(h, dtype=float)
    n = demands.size
    if n > 3:
        raise ValueError("grid oracle accepts at most 3 users per group")

    steps = int(np.floor(q / resolution))
    levels = np.arange(steps + 1) * resolution
    if n == 1:
        points = np.array([[q]])
    elif n == 2:
        points = np.stack([levels, q - levels], axis=1)
    else:
        if (steps + 1) ** 2 > max_points:
            raise ValueError("simplex grid exceeds the point cap")
        p1, p2 = np.meshgrid(levels, levels, indexing="ij")
        p1, p2 = p1.ravel(), p2.ravel()
        keep = p1 + p2 <= q + 1e-12
        points = np.stack([p1[keep], p2[keep], q - p1[keep] - p2[keep]], axis=1)
    points = np.maximum(points, 0.0)
    return _best_feasible_split(points, demands, h, q, bandwidth)


def _best_feasible_split(points, demands, h, q, bandwidth):
    growth = np.exp2(demands / bandwidth) - 1.0
    tails = np.zeros_like(points)
    if points.shape[1] > 1:
        tails[:, :-1] = np.cumsum(points[:, ::-1], axis=1)[:, ::-1][:, 1:]
    slack = points - growth[None, :] * (tails + h[None, :])
    feasible = np.all(slack >= -1e-12 * max(q, 1.0), axis=1)
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        raise OracleInfeasibleError("none found at this resolution")
    rates = np.where(points > 0,
                     bandwidth * np.log1p(points / (tails + h[None, :])) / np.log(2.0),
                     0.0).sum(axis=1)
    rates = np.where(feasible, rates, -np.inf)
    best = int(np.argmax(rates))    # argmax takes the first, lexicographic order
    return GridRateResult(powers=points[best], sum_rate=float(rates[best]),
                          points_searched=points.shape[0],
                          points_feasible=n_feasible)


def grid_dc_subproblem(topology: NetworkTopology, demands: RateDemands, i: int,
                       x_lin, caps: np.ndarray, budget: float,
                       q: np.ndarray) -> GridDcResult:
    """Exhaustive search of one BS's linearized DC subproblem.

    Minimizes over BS ``i``'s q_m and x_m the sum of  -B log2(x_strong +
    p_strong) + B (x_strong - L)/(ln2 L) + B log2 L,  with p_strong the
    strong user's power when the weak users get exactly their demands at
    x_m and total q_m (a linear solve) and L the strong proxy of ``x_lin``,
    subject to x_m >= the effective interference, p_strong >= (2^(R/B)-1)
    x_strong, q_m <= max(cap_m, current q_m) and the budget.  Each q_m
    takes 200 levels, each with about 3600 proxy points spaced evenly per
    user; the best per level is combined under the budget.  ``bound``
    limits the excess over the continuous optimum, whose weak proxies sit
    on the grid at their lower bounds: rounding its q_m and strong proxy
    down to feasible grid points lowers a log argument of at least
    (1 + rho) lb_strong by at most one x step plus (1 + 1/rho) times the
    rise of p_strong over one q step.
    """
    if topology.num_subchannels > 2:
        raise ValueError("grid oracle accepts at most 2 subchannels")
    bw = topology.bandwidth
    others = np.delete(np.arange(topology.num_cells), i)
    levels, values = [], []
    bound = 0.0
    for m in range(topology.num_subchannels):
        dem = np.asarray(demands.rates[i][m], dtype=float)
        n = dem.size
        if n > 3:
            raise ValueError("grid oracle accepts at most 3 users per group")
        g = topology.gains[i][m]
        ratio = (q[others, m] @ g[others] + topology.noise_power) / g[i]
        lb = np.maximum.accumulate(ratio[::-1])[::-1]
        growth = np.exp2(dem / bw) - 1.0
        system = tight_constraint_matrix(dem, bw)
        system[-1] = 1.0                        # total-power row
        last = np.linalg.inv(system)[-1]        # p_strong = last . (growth*x_weak, q)
        weights = minimal_group_powers(dem, np.eye(n), bw).sum(axis=1)
        lo = float(minimal_group_powers(dem, lb, bw).sum())
        hi = min(max(float(caps[m]), float(q[i, m])), budget)
        q_axis = np.linspace(lo, hi, 200)
        per_user = round(3600 ** (1.0 / n))
        axes = [np.linspace(lb[j], lb[j] + (hi - lo) / weights[j], per_user)
                for j in range(n)]
        x = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        p_strong = ((x[:, :-1] * growth[:-1]) @ last[:-1])[None, :] \
            + last[-1] * q_axis[:, None]
        x_strong = x[None, :, -1]
        L = float(x_lin[m][-1])
        with np.errstate(invalid="ignore"):
            value = -bw * np.log2(x_strong + p_strong) \
                + bw * ((x_strong - L) / (np.log(2.0) * L) + np.log2(L))
        feasible = p_strong >= growth[-1] * x_strong * (1.0 - 1e-12)
        levels.append(q_axis)
        values.append(np.where(feasible, value, np.inf).min(axis=1))
        rise = axes[-1][1] - axes[-1][0] \
            + last[-1] * (q_axis[1] - q_axis[0]) * (1.0 + 1.0 / growth[-1])
        bound += bw * np.log2(1.0 + rise / ((1.0 + growth[-1]) * lb[-1]))

    totals, spent = np.zeros(()), np.zeros(())
    for q_axis, value in zip(levels, values):
        totals = np.add.outer(totals, value)
        spent = np.add.outer(spent, q_axis)
    value = float(np.min(np.where(spent <= budget * (1.0 + 1e-12), totals, np.inf)))
    if not np.isfinite(value):
        raise OracleInfeasibleError("none found at this resolution")
    return GridDcResult(value=value, bound=float(bound))


@dataclass(frozen=True)
class FdHessianReport:
    hessian: np.ndarray
    minors: np.ndarray
    psd: bool
    step: float
    asymmetry: float


def fd_hessian_psd(objective, point: np.ndarray, step: float | None = None,
                   minor_tol: float = -1e-6,
                   asymmetry_tol: float = 1e-4) -> FdHessianReport:
    """Finite-difference Hessian with a positive-semidefiniteness verdict.

    Diagonal entries come from three-point second differences.  Every
    off-diagonal entry is estimated twice, by the four-point cross
    stencil and through the second difference along the diagonal
    direction e_k + e_l; the two routes agree for a healthy step, so a
    large disagreement flags cancellation and raises instead of
    returning garbage.
    """
    point = np.asarray(point, dtype=float)
    n = point.size
    if step is None:
        step = 1e-5 * max(float(np.max(np.abs(point))), 1e-12)
    h = step
    center = objective(point)

    def at(*shifts):
        x = point.copy()
        for index, amount in shifts:
            x[index] += amount
        return objective(x)

    diag = np.empty(n)
    for k in range(n):
        diag[k] = (at((k, h)) - 2.0 * center + at((k, -h))) / h ** 2

    cross = np.zeros((n, n))
    paired = np.zeros((n, n))
    for k in range(n):
        for l in range(k + 1, n):
            cross[k, l] = (at((k, h), (l, h)) - at((k, h), (l, -h))
                           - at((k, -h), (l, h)) + at((k, -h), (l, -h))) \
                / (4.0 * h ** 2)
            along = (at((k, h), (l, h)) - 2.0 * center
                     + at((k, -h), (l, -h))) / h ** 2
            paired[k, l] = 0.5 * (along - diag[k] - diag[l])

    hessian = np.diag(diag)
    upper = np.triu_indices(n, k=1)
    hessian[upper] = 0.5 * (cross[upper] + paired[upper])
    hessian = hessian + np.triu(hessian, k=1).T

    scale = max(float(np.max(np.abs(hessian))), 1e-300)
    asymmetry = float(np.max(np.abs(cross[upper] - paired[upper]))) / scale \
        if n > 1 else 0.0
    if asymmetry > asymmetry_tol:
        raise ValueError(
            f"finite-difference estimates disagree by {asymmetry:.2e} "
            f"(> {asymmetry_tol:.0e}); increase the step (currently {step!r})")
    minors = np.array([np.linalg.det(hessian[:k, :k]) for k in range(1, n + 1)])
    return FdHessianReport(hessian=hessian, minors=minors,
                           psd=bool(np.all(minors >= minor_tol)),
                           step=step, asymmetry=asymmetry)


@dataclass(frozen=True)
class ProbeCounterexample:
    property_name: str
    q: np.ndarray
    scale_factor: float | None
    values: tuple


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    counterexamples: tuple
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", len(self.counterexamples) == 0)


def standard_function_probe(interference_map, shape, trials: int,
                            seed: int, magnitude: float = 1.0) -> ProbeReport:
    """Randomized check of the standard-interference-function properties.

    For each trial draws q >= 0 of the given shape and tests positivity
    (f(q) > 0), monotonicity (q1 >= q2 implies f(q1) >= f(q2)) and
    scalability (lam * f(q) > f(lam * q) for lam > 1).  Counterexamples
    are reported with their inputs verbatim.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(trials):
        q1 = rng.uniform(0.0, magnitude, size=shape)
        f1 = np.asarray(interference_map(q1))
        if not np.all(f1 > 0.0):
            bad.append(ProbeCounterexample("positivity", q1, None, (f1,)))
        q2 = q1 * rng.uniform(0.0, 1.0, size=shape)
        f2 = np.asarray(interference_map(q2))
        if not np.all(f1 >= f2):
            bad.append(ProbeCounterexample("monotonicity", q1, None, (f1, f2, q2)))
        lam = rng.uniform(1.0, 10.0)
        if lam <= 1.0:
            lam = 1.0 + 1e-9
        f_scaled = np.asarray(interference_map(lam * q1))
        if not np.all(lam * f1 > f_scaled):
            bad.append(ProbeCounterexample("scalability", q1, lam, (f1, f_scaled)))
    return ProbeReport(trials=trials, counterexamples=tuple(bad))
