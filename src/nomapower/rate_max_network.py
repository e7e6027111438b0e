"""Sum-rate maximization across cells.

The network problem is rewritten in terms of per-BS totals ``q`` and
auxiliary per-user interference proxies ``x`` (``x`` plays the role of
the effective interference and equals it at any sensible point).  Each
BS alternately solves a difference-of-convex subproblem in its own
(q_i, x_i) with every other cell frozen: the concave part is linearized
at the current point and the resulting convex program, separable across
subchannels except for the power budget, is solved in closed form by
box-constrained water-filling.  Caps on q_im derived from the other
cells' proxy slack keep every update globally feasible, which makes the
objective trace non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (LN2, NetworkTopology, PowerAllocation, RateDemands,
                      dense_interference, dense_rates)
from .power_min import demand_weights, interference_map, solve_spm
from .rate_max_cell import optimal_single_cell_allocation, required_group_power


class InfeasibleInitialPointError(ValueError):
    """The starting point violates the transformed problem's constraints."""


class InfeasibleSubproblemError(ValueError):
    """A per-BS subproblem has no feasible point; names the violated family."""

    def __init__(self, family: str, detail: str = ""):
        super().__init__(f"infeasible subproblem: constraint family {family!r} {detail}")
        self.family = family


@dataclass(frozen=True)
class DcIterate:
    """Accepted per-BS iterate of the DC inner loop."""

    q_i: np.ndarray
    x_i: tuple
    objective_value: float      # surrogate value at the returned point
    improved: bool


@dataclass(frozen=True)
class SrmReport:
    """Outcome of the distributed sum-rate maximization."""

    q: np.ndarray
    x: tuple
    allocation: PowerAllocation
    sum_rate: float
    outer_iterations: int
    trace: np.ndarray
    converged: bool
    subproblem_solves: int
    newton_steps: int = 0       # always 0: subproblems are solved in closed form
    diagnostic: str = ""


def interference_profile(topology: NetworkTopology, q: np.ndarray) -> list:
    """Effective interference for every group, nested like an allocation."""
    return [list(row) for row in topology.unpad(dense_interference(topology, q))]


def power_cap(topology: NetworkTopology, q: np.ndarray, x, i: int, m: int) -> float:
    """Largest q_im the other cells' interference proxies tolerate.

    Minimum over every other cell's user j and every decoding position
    l >= j of (own_gain_l * x_j - interference from third cells - noise)
    divided by the gain from BS i to user l.  Positions BS i cannot reach
    (zero cross gain) impose no cap; with a single cell the cap is +inf.
    Can come out at or below the current q_im when the proxies are tight.
    """
    cap = np.inf
    q = np.asarray(q, dtype=float)
    for n in range(topology.num_cells):
        if n == i:
            continue
        g = topology.gains[n][m]
        third = q[:, m] @ g - q[i, m] * g[i] - q[n, m] * g[n]
        numer = g[n][None, :] * np.asarray(x[n][m])[:, None] - third[None, :] \
            - topology.noise_power
        ratio = np.full_like(numer, np.inf)
        np.divide(numer, g[i][None, :], out=ratio,
                  where=np.broadcast_to(g[i][None, :] > 0.0, numer.shape))
        nu = g.shape[1]
        mask = np.arange(nu)[None, :] >= np.arange(nu)[:, None]   # l >= j
        cap = min(cap, float(np.min(np.where(mask, ratio, np.inf))))
    return cap


def _group_coefficients(demands_im: np.ndarray, bandwidth: float):
    """(alpha, beta) of the transformed group objective.

    The log argument for a group is  x_strong + alpha * q - beta . x_weak
    with  alpha = 2^(-S),  beta_j = (2^(R_j/B)-1) * 2^(-T_j),  S the total
    weak demand and T_j its tail from user j on (all divided by B).
    """
    r = np.asarray(demands_im, dtype=float) / bandwidth
    weak = r[:-1]
    alpha = float(np.exp2(-weak.sum()))
    tail = np.cumsum(weak[::-1])[::-1] if weak.size else np.empty(0)
    beta = (np.exp2(weak) - 1.0) * np.exp2(-tail)
    return alpha, beta


def dc_objective_parts(topology: NetworkTopology, demands: RateDemands,
                       q_i: np.ndarray, x_i, i: int):
    """Convex components (F, G) of one BS's transformed objective.

    F collects the negative logs of the affine group arguments, G the
    negative logs of the strong users' proxies; both are convex and the
    BS objective is their difference (up to the fixed weak-demand sum).
    Raises on non-positive log arguments.
    """
    bw = topology.bandwidth
    f_val = 0.0
    g_val = 0.0
    for m in range(topology.num_subchannels):
        alpha, beta = _group_coefficients(demands.rates[i][m], bw)
        xm = np.asarray(x_i[m], dtype=float)
        argument = xm[-1] + alpha * q_i[m] - beta @ xm[:-1]
        if argument <= 0.0 or xm[-1] <= 0.0:
            raise ValueError(
                f"group ({i},{m}): non-positive log argument, iterate infeasible")
        f_val -= bw * np.log2(argument)
        g_val -= bw * np.log2(xm[-1])
    return f_val, g_val


def g_gradient(topology: NetworkTopology, x_i, i: int) -> list:
    """Gradient of the subtracted concave part w.r.t. x_i.

    Zero for weak users; -B / (ln2 * x_strong) at each group's strongest
    user.
    """
    bw = topology.bandwidth
    out = []
    for m in range(topology.num_subchannels):
        g = np.zeros(len(x_i[m]))
        g[-1] = -bw / (LN2 * float(x_i[m][-1]))
        out.append(g)
    return out


def cell_objective(topology: NetworkTopology, demands: RateDemands,
                   q_i: np.ndarray, x_i, i: int) -> float:
    """Negative closed-form sum rate of BS i at (q_i, x_i), bit/s.

    Equals F - G minus the (constant) weak users' demand sum, i.e. the
    negative of the per-group optimal rate with the proxies in place of
    the effective interference.
    """
    f_val, g_val = dc_objective_parts(topology, demands, q_i, x_i, i)
    weak = sum(float(np.sum(demands.rates[i][m][:-1]))
               for m in range(topology.num_subchannels))
    return f_val - g_val - weak


def surrogate_objective(topology: NetworkTopology, demands: RateDemands,
                        q_i: np.ndarray, x_i, x_lin, i: int) -> float:
    """Convex majorant of F - G at linearization point ``x_lin``.

    G(x_lin) depends on the strong users' proxies alone, so ``x_lin``
    need not satisfy the demand coupling at ``q_i``.
    """
    f_val, _ = dc_objective_parts(topology, demands, q_i, x_i, i)
    g_lin = -topology.bandwidth * sum(float(np.log2(x_lin[m][-1]))
                                      for m in range(topology.num_subchannels))
    grad = g_gradient(topology, x_lin, i)
    inner = sum(float(grad[m] @ (np.asarray(x_i[m]) - np.asarray(x_lin[m])))
                for m in range(topology.num_subchannels))
    return f_val - g_lin - inner


def solve_convex_subproblem(topology: NetworkTopology, demands: RateDemands,
                            i: int, x_lin, caps: np.ndarray, budget: float,
                            q: np.ndarray) -> DcIterate:
    """One BS's convex program at a linearization point, in closed form.

    Minimizes the surrogate objective over (q_i, x_i) subject to the
    demand coupling, the proxy lower bounds ``lb`` (the effective
    interference at the frozen other-cell powers), the per-subchannel
    caps and the power budget.  Weak proxies sit at ``lb``; the strong
    proxy is ``clip(L - a, lb_strong, a / rho)`` with ``L`` that of
    ``x_lin``, ``a = alpha q_m - beta . lb_weak`` and ``rho =
    2^(R_strong/B) - 1``; q_i water-fills the budget over ``[w . lb,
    min(max(cap, q_warm), budget)]``.  The warm start (row i of ``q``,
    proxies ``x_lin``) is returned unless the surrogate value drops.
    """
    bw = topology.bandwidth
    M = topology.num_subchannels
    lb = interference_profile(topology, q)[i]
    q_warm = np.asarray(q[i], dtype=float).copy()
    x_warm = [np.asarray(x_lin[m], dtype=float).copy() for m in range(M)]
    weights = [demand_weights(demands.rates[i][m], bw) for m in range(M)]

    # reject genuinely infeasible inputs before any numeric work
    rel = 1e-7
    for m in range(M):
        if np.any(x_warm[m] < lb[m] * (1.0 - rel) - 1e-300):
            raise InfeasibleSubproblemError(
                "interference lower bounds", f"(cell {i}, subchannel {m})")
        if weights[m] @ x_warm[m] > q_warm[m] * (1.0 + rel) + 1e-300:
            raise InfeasibleSubproblemError(
                "demand coupling", f"(cell {i}, subchannel {m})")
        if q_warm[m] > max(caps[m], 0.0) * (1.0 + rel) + 1e-300:
            raise InfeasibleSubproblemError(
                "power caps", f"(cell {i}, subchannel {m})")
    if q_warm.sum() > budget * (1.0 + rel):
        raise InfeasibleSubproblemError("power budget", f"(cell {i})")

    coefficients = [_group_coefficients(demands.rates[i][m], bw) for m in range(M)]
    alpha = np.array([c[0] for c in coefficients])
    weak = np.array([c[1] @ lb[m][:-1] for m, c in enumerate(coefficients)])
    rho = np.array([np.exp2(demands.rates[i][m][-1] / bw) - 1.0 for m in range(M)])
    lb_strong = np.array([lb[m][-1] for m in range(M)])
    L = np.array([x_warm[m][-1] for m in range(M)])
    hi = np.minimum(np.maximum(caps, q_warm), budget)
    lo = np.minimum([weights[m] @ lb[m] for m in range(M)], hi)

    def totals(lam):
        # the marginal value of q_m (per B/ln2) is alpha/a - alpha/(rho L)
        # while the coupling binds, then the constant alpha/L, then
        # alpha/(lb_strong + a); invert it at lam and clip to the box
        a = np.where(lam > alpha / L, alpha / (lam + alpha / (rho * L)),
                     alpha / lam - lb_strong)
        return np.clip((a + weak) / alpha, lo, hi)

    q_new = hi
    if hi.sum() > budget:
        # marginal values lie strictly between alpha/(L + lb_strong + a) and alpha/a
        lam_lo = float(np.min(alpha / (alpha * hi - weak + L + lb_strong)))
        lam_hi = float(np.max(alpha / (alpha * lo - weak)))
        while lam_lo < (mid := np.sqrt(lam_lo * lam_hi)) < lam_hi:
            if totals(mid).sum() > budget:
                lam_lo = mid
            else:
                lam_hi = mid
        # totals() jumps across the constant piece, so the budget left
        # between the last two brackets is split along the jump
        q_lo, q_hi = totals(lam_lo), totals(lam_hi)
        spread = q_lo.sum() - q_hi.sum()
        t = (budget - q_hi.sum()) / spread if spread > 0.0 else 0.0
        q_new = q_hi + min(max(t, 0.0), 1.0) * (q_lo - q_hi)
    a = alpha * q_new - weak
    strong = np.minimum(np.maximum(L - a, lb_strong), a / rho)
    x_new = [np.append(lb[m][:-1], strong[m]) for m in range(M)]

    warm_value = surrogate_objective(topology, demands, q_warm, x_warm, x_lin, i)
    new_value = surrogate_objective(topology, demands, q_new, x_new, x_lin, i)
    if not new_value < warm_value:
        return DcIterate(q_i=q_warm, x_i=tuple(x_warm),
                         objective_value=warm_value, improved=False)
    return DcIterate(q_i=q_new, x_i=tuple(x_new), objective_value=new_value,
                     improved=True)


def dpc_srm(topology: NetworkTopology, demands: RateDemands,
            q0: np.ndarray | None = None, x0=None, tol: float = 1e-3,
            max_outer: int = 100, inner_tol: float | None = None,
            max_inner: int = 50) -> SrmReport:
    """Distributed power control for sum-rate maximization.

    Sweeps cells in ascending order; each BS runs the DC inner loop
    (re-linearize, solve the convex subproblem) on its own variables with
    the rest frozen, under caps that keep every other cell's constraints
    intact.  Stops once the total objective changes by at most ``tol``
    between sweeps.

    Without an explicit start the sum-power fixed point is computed
    exactly (:func:`~nomapower.power_min.solve_spm`),
    scaled uniformly by the tightest cell's budget headroom, and the
    proxies are set to the effective interference at that point; this is
    feasible by construction.  An explicit infeasible start raises
    :class:`InfeasibleInitialPointError`.
    """
    if inner_tol is None:
        inner_tol = tol / 10.0
    if q0 is None:
        fp = solve_spm(topology, demands)
        if not fp.feasible:
            raise InfeasibleInitialPointError(
                "rate demands admit no feasible power allocation within budgets")
        factors = topology.budgets / fp.q_star.sum(axis=1)
        q = fp.q_star * float(np.min(factors))
    else:
        q = np.array(q0, dtype=float)
    if x0 is None:
        x = [[np.array(v) for v in row] for row in interference_profile(topology, q)]
    else:
        x = [[np.array(v, dtype=float) for v in row] for row in x0]
    _validate_start(topology, demands, q, x)

    k_cells = [cell_objective(topology, demands, q[i], x[i], i)
               for i in range(topology.num_cells)]
    trace = [float(np.sum(k_cells))]
    converged = False
    diagnostic = ""
    solves = 0
    outer = 0
    for outer in range(1, max_outer + 1):
        for i in range(topology.num_cells):
            caps = np.array([power_cap(topology, q, x, i, m)
                             for m in range(topology.num_subchannels)])
            for _ in range(max_inner):
                try:
                    iterate = solve_convex_subproblem(
                        topology, demands, i, [v.copy() for v in x[i]], caps,
                        float(topology.budgets[i]), q)
                except InfeasibleSubproblemError as exc:
                    diagnostic = str(exc)
                    break
                solves += 1
                if not iterate.improved:
                    break
                k_new = cell_objective(topology, demands, iterate.q_i,
                                       iterate.x_i, i)
                if k_new > k_cells[i]:
                    break
                delta = k_cells[i] - k_new
                q[i] = iterate.q_i
                x[i] = [np.array(v) for v in iterate.x_i]
                k_cells[i] = k_new
                if delta <= inner_tol:
                    break
        if diagnostic:
            break
        total = float(np.sum(k_cells))
        trace.append(total)
        if abs(trace[-2] - trace[-1]) <= tol:
            converged = True
            break

    # settle the proxies exactly on the effective interference; this can
    # only decrease the objective and restores tightness
    profile = interference_profile(topology, q)
    for i in range(topology.num_cells):
        x[i] = [np.array(v) for v in profile[i]]
        k_cells[i] = cell_objective(topology, demands, q[i], x[i], i)
    trace.append(float(np.sum(k_cells)))

    allocation = _assemble(topology, demands, q)
    sum_rate = float(dense_rates(topology, allocation, q).sum())
    return SrmReport(q=q, x=tuple(tuple(v for v in row) for row in x),
                     allocation=allocation, sum_rate=sum_rate,
                     outer_iterations=outer, trace=np.array(trace),
                     converged=converged and not diagnostic,
                     subproblem_solves=solves,
                     diagnostic=diagnostic)


def _validate_start(topology, demands, q, x):
    if q.shape != (topology.num_cells, topology.num_subchannels) or np.any(q < 0):
        raise InfeasibleInitialPointError("q0 must be a non-negative (I, M) array")
    if np.any(q.sum(axis=1) > topology.budgets * (1.0 + 1e-9)):
        raise InfeasibleInitialPointError("q0 exceeds a per-cell budget")
    profile = interference_profile(topology, q)
    for i, m in topology.groups():
        xm = np.asarray(x[i][m], dtype=float)
        if xm.size != topology.group_size(i, m):
            raise InfeasibleInitialPointError("x0 shape mismatch")
        if np.any(xm < np.asarray(profile[i][m]) * (1.0 - 1e-9)):
            raise InfeasibleInitialPointError(
                f"x0 below the effective interference at group ({i},{m})")
        w = demand_weights(demands.rates[i][m], topology.bandwidth)
        if w @ xm > q[i, m] * (1.0 + 1e-9):
            raise InfeasibleInitialPointError(
                f"q0 cannot cover the demands implied by x0 at group ({i},{m})")


def _assemble(topology, demands, q) -> PowerAllocation:
    """Rate-optimal split of the totals ``q`` in every group at once."""
    rates = demands.padded_for(topology)
    h = dense_interference(topology, q)
    required = required_group_power(rates, h, topology.bandwidth)
    below = np.argwhere(q < required * (1.0 - 1e-9))
    if below.size:
        i, m = below[0]
        raise InfeasibleInitialPointError(
            f"group ({i},{m}) ended below its required power")
    return PowerAllocation(optimal_single_cell_allocation(
        rates, h, np.maximum(q, required), topology.bandwidth))


def random_feasible_start(topology: NetworkTopology, demands: RateDemands,
                          rng: np.random.Generator,
                          fixed_point: np.ndarray | None = None):
    """Random feasible (q0, x0) for multi-start exploration.

    Scales the sum-power fixed point by random per-cell factors within
    the budget headroom and repairs the demand coupling by a monotone
    sweep (q <- max(q, f(q)) converges from below the scaled envelope);
    falls back to a uniform factor when the repair leaves a budget
    violated.  Each group's spare power is then handed to the proxies as
    random slack above the effective interference.
    """
    if fixed_point is None:
        fp = solve_spm(topology, demands)
        if not fp.feasible:
            raise InfeasibleInitialPointError(
                "rate demands admit no feasible power allocation within budgets")
        fixed_point = fp.q_star
    headroom = topology.budgets / fixed_point.sum(axis=1)
    factors = np.array([rng.uniform(1.0, max(h, 1.0)) for h in headroom])
    q = fixed_point * factors[:, None]
    for _ in range(100):
        mapped = interference_map(topology, demands, q)
        if np.all(q >= mapped * (1.0 - 1e-12)):
            break
        q = np.maximum(q, mapped)
    budgets_ok = np.all(q.sum(axis=1) <= topology.budgets)
    if not (budgets_ok and np.all(q >= interference_map(topology, demands, q)
                                  * (1.0 - 1e-9))):
        q = fixed_point * float(np.min(headroom))
    profile = interference_profile(topology, q)
    x = []
    for i in range(topology.num_cells):
        row = []
        for m in range(topology.num_subchannels):
            h = profile[i][m]
            w = demand_weights(demands.rates[i][m], topology.bandwidth)
            margin = q[i, m] - w @ h
            share = rng.uniform(0.0, 1.0, size=h.size)
            total = share.sum()
            if margin > 0.0 and total > 0.0:
                share *= rng.uniform(0.0, 1.0) * margin / total
            else:
                share[:] = 0.0
            row.append(h + share / w)
        x.append(row)
    return q, x
