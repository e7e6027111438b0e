"""Independent brute-force and numerical validators.

Everything here deliberately avoids the closed forms, the interference
map and the fixed-point machinery of the solver modules: group
feasibility and the required power are decided by solving the tight rate
constraints as a plain linear system, the effective interference and the
rates come from explicit loops over the gains (:func:`interference_over_gain`,
:func:`rate_via_decoding_chain`), optima are located by exhaustive grid
search, and curvature is probed with finite differences.  Instances are
bounded at entry because the searches are combinatorial.  Per-group
companions of the closed forms live here too, for validation only: one
group's demand weights, its optimal sum rate and the slack of its rate
constraints.  The beta form of the strongest user's power lives only in
:func:`_strong_power`; one solver closed form is shared on purpose:
:func:`boundary_allocation_matches_minimum` checks that
:func:`~nomapower.power_min.group_split` given that power reproduces the
minimum-power split at the required power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import (NetworkTopology, PowerAllocation, RateDemands,
                      suffix_sums, unpad)
from .power_min import ROUND_RTOL, _checked_budgets, group_split


class OracleInfeasibleError(RuntimeError):
    """No feasible grid point exists at the requested resolution, or a
    total power lies below a group's required power."""


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
class GridSplitResult:
    sum_rate: float
    bound: float        # the continuous optimum exceeds sum_rate by at most this


def demand_weights(demands: np.ndarray, bandwidth: float) -> np.ndarray:
    """Reference demand weights w_j = (2^(R_j/B) - 1) * 2^(sum_{s<j} R_s/B)
    of a group's users along the last axis, 0 in padding: the group's
    minimum total power is w . H at its effective interference H."""
    r = np.asarray(demands, dtype=float) / bandwidth
    before = np.zeros_like(r)
    before[..., 1:] = np.cumsum(r, axis=-1)[..., :-1]
    return (np.exp2(r) - 1.0) * np.exp2(before)


def min_power_user_allocation(demands: np.ndarray, h: np.ndarray,
                              bandwidth: float) -> np.ndarray:
    """Closed-form minimum-power split: :func:`group_split` with every
    user, the strongest too, exactly at its demand, so all powers are
    strictly positive; padded arrays split as there."""
    return group_split(np.exp2(np.asarray(demands, dtype=float) / bandwidth), h)


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


def optimal_single_cell_rate(demands: np.ndarray, h: np.ndarray, q_im,
                             bandwidth: float):
    """Closed-form optimal sum rate (bit/s) of one group, or an array of
    them for an array of totals ``q_im``: the weak users' demands plus
    B log2(1 + p_n / H_n), the strongest user's rate on the surplus p_n
    (:func:`_strong_power`).  Raises :class:`OracleInfeasibleError` for a
    total below the required power, the sum of :func:`minimal_group_powers`.
    """
    q_im = np.asarray(q_im, dtype=float)
    required = minimal_group_powers(demands, h, bandwidth).sum()
    if np.any(q_im < required):
        raise OracleInfeasibleError(f"group needs at least {required!r} W")
    weak = np.asarray(demands, dtype=float)[:-1] / bandwidth
    argument = 1.0 + _strong_power(demands, h, q_im, bandwidth) / h[-1]
    rate = bandwidth * np.log2(argument) + bandwidth * weak.sum()
    return float(rate) if rate.ndim == 0 else rate


def _strong_power(demands, h, q_im, bandwidth):
    """p_n = q / 2^S - sum_j (2^(R_j/B)-1) H_j / 2^T_j, the strongest
    user's power with the weak users at their demands: S is the weak
    demand and T_j its tail from user j on (divided by B)."""
    weak = np.asarray(demands, dtype=float)[:-1] / bandwidth
    tail = np.cumsum(weak[::-1])[::-1]
    return q_im / np.exp2(weak.sum()) \
        - np.sum((np.exp2(weak) - 1.0) * np.asarray(h, dtype=float)[:-1] / np.exp2(tail))


def boundary_allocation_matches_minimum(demands: np.ndarray, h: np.ndarray,
                                        bandwidth: float, rtol: float = 1e-9) -> bool:
    """At the required power the rate-max split, the strong user on the
    surplus, equals the minimum-power split."""
    required = minimal_group_powers(demands, h, bandwidth).sum()
    strong = _strong_power(demands, h, required, bandwidth)
    growth = np.exp2(np.asarray(demands, dtype=float) / bandwidth)
    p_rate = group_split(growth, h, strong - (growth[-1] - 1.0) * h[-1])
    p_min = min_power_user_allocation(demands, h, bandwidth)
    return bool(np.allclose(p_rate, p_min, rtol=rtol, atol=0.0))


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

    Explicit loops over the users and the other cells, reading the group's
    gains only, never the topology's ratios.
    """
    g = unpad(topology.gains, topology.occupied)[i][m]
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
    rates = unpad(demands.rates, topology.occupied)
    out = np.zeros((topology.num_cells, topology.num_subchannels))
    for i, m in topology.groups():
        ratio = interference_over_gain(topology, q, i, m)
        n = ratio.size
        if n == 0:
            continue
        h = np.array([max(ratio[l] for l in range(j, n)) for j in range(n)])
        out[i, m] = float(minimal_group_powers(rates[i][m], h,
                                               topology.bandwidth).sum())
    return out


def rate_via_decoding_chain(topology: NetworkTopology, allocation: PowerAllocation,
                            q: np.ndarray, i: int, m: int) -> np.ndarray:
    """Rates of group (i, m) as the explicit minimum over decoding users l >= j.

    Algebraically identical to :func:`~nomapower.network.dense_rates`,
    which takes the same minimum through the padded effective interference.
    """
    p = unpad(allocation.powers, topology.occupied)[i][m]
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
                   budgets: np.ndarray, resolution: float,
                   max_points: int = 20_000_000) -> GridPowerResult:
    """Exhaustive search for the cheapest feasible per-BS power vector.

    Enumerates q on a ``resolution``-spaced grid up to the (I,) per-BS
    ``budgets``; a point is feasible when, at the interference it creates,
    every group's demands can be met within its q entry (checked by the
    linear-system route).  Only small instances are accepted.
    """
    budgets = _checked_budgets(topology, budgets)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if topology.num_cells > 2 or topology.num_subchannels > 2:
        raise ValueError("grid oracle accepts at most 2 cells x 2 subchannels")
    for i, m in topology.groups():
        if topology.occupied[i, m].sum() > 3:
            raise ValueError("grid oracle accepts at most 3 users per group")

    axes = []
    for i in range(topology.num_cells):
        steps = int(np.floor(budgets[i] / resolution))
        axes.extend([np.arange(steps + 1) * resolution] * topology.num_subchannels)
    total = int(np.prod([a.size for a in axes]))
    if total > max_points:
        raise ValueError(f"grid of {total} points exceeds the {max_points} cap")

    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1).reshape(
        -1, topology.num_cells, topology.num_subchannels)
    keep = np.all(grid.sum(axis=2) <= budgets * (1.0 + ROUND_RTOL), axis=1)
    grid = grid[keep]

    feasible = np.ones(grid.shape[0], dtype=bool)
    minimal = {}
    gains = unpad(topology.gains, topology.occupied)
    rates = unpad(demands.rates, topology.occupied)
    for i, m in topology.groups():
        g = gains[i][m]
        others = np.delete(np.arange(topology.num_cells), i)
        z = grid[:, others, m] @ g[others] + topology.noise_power
        ratio = z / g[i]
        h = np.maximum.accumulate(ratio[:, ::-1], axis=1)[:, ::-1]
        p = minimal_group_powers(rates[i][m], h, topology.bandwidth)
        minimal[(i, m)] = p
        feasible &= p.sum(axis=1) <= grid[:, i, m] * (1.0 + ROUND_RTOL)

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
        keep = p1 + p2 <= q * (1.0 + ROUND_RTOL)
        points = np.stack([p1[keep], p2[keep], q - p1[keep] - p2[keep]], axis=1)
    points = np.maximum(points, 0.0)
    growth = np.exp2(demands / bandwidth) - 1.0
    tails = np.zeros_like(points)
    if points.shape[1] > 1:
        tails[:, :-1] = np.cumsum(points[:, ::-1], axis=1)[:, ::-1][:, 1:]
    need = growth[None, :] * (tails + h[None, :])
    feasible = np.all(points >= need * (1.0 - ROUND_RTOL), axis=1)
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


def grid_budget_split(topology: NetworkTopology, demands: RateDemands, i: int,
                      caps: np.ndarray, budget: float,
                      q: np.ndarray) -> GridSplitResult:
    """Scan of BS ``i``'s split of its budget, every other cell frozen.

    Subchannel m keeps the effective interference that the other cells'
    totals in ``q`` cause (by :func:`interference_over_gain`) and earns
    :func:`optimal_single_cell_rate` for a total between its required
    power and min(max(cap_m, q_im), budget).  Rates rise with the total,
    so the best split spends T = the budget or the sum of the upper ends,
    whichever is less; with two subchannels the first one's share of T
    takes 20,001 evenly spaced values.  The sum rate is concave along
    the scan, so the optimum exceeds the best scanned value by at most the
    largest change between neighbouring values, returned as ``bound``.
    """
    if topology.num_subchannels > 2:
        raise ValueError("grid oracle accepts at most 2 subchannels")
    bw = topology.bandwidth
    rates = unpad(demands.rates, topology.occupied)[i]
    lb = [np.maximum.accumulate(interference_over_gain(topology, q, i, m)[::-1])[::-1]
          for m in range(topology.num_subchannels)]
    lo = np.array([minimal_group_powers(r, h, bw).sum() for r, h in zip(rates, lb)])
    hi = np.minimum(np.maximum(caps, q[i]), budget)
    total = min(budget, float(hi.sum()))
    if lo.size == 1:
        splits = np.array([[total]])
    else:
        first = np.linspace(max(lo[0], total - hi[1]),
                            min(hi[0], total - lo[1]), 20_001)
        splits = np.stack([first, np.clip(total - first, lo[1], hi[1])], axis=1)
    values = sum(optimal_single_cell_rate(r, h, splits[:, m], bw)
                 for m, (r, h) in enumerate(zip(rates, lb)))
    return GridSplitResult(sum_rate=float(np.max(values)),
                           bound=float(np.abs(np.diff(values)).max(initial=0.0)))


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
