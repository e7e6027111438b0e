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

The proxies are stored like the demands: one (I, M, n_max) array,
front-padded like the topology with 0 in padding, so the strong user's
proxy of every group sits at ``x[..., -1]`` and one cell's proxies are
the (M, n_max) row ``x[i]``.  Every helper works on all subchannels (and
cells) at once along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (LN2, NetworkTopology, PowerAllocation, RateDemands,
                      dense_interference, group_rates)
from .power_min import demand_weights, interference_map, solve_spm
from .rate_max_cell import optimal_single_cell_allocation, required_group_power

# each BS's inner DC loop stops after MAX_INNER steps, or once a step
# lowers its objective by at most tol / INNER_TOL_DIVISOR
MAX_INNER = 50
INNER_TOL_DIVISOR = 10.0


class InfeasibleInitialPointError(ValueError):
    """The starting point violates the transformed problem's constraints."""


class InfeasibleSubproblemError(ValueError):
    """A per-BS subproblem has no feasible point; names the violated family."""

    def __init__(self, family: str, detail: str = ""):
        super().__init__(f"infeasible subproblem: constraint family {family!r} {detail}")
        self.family = family


@dataclass(frozen=True)
class DcIterate:
    """Accepted per-BS iterate of the DC inner loop; ``x_i`` is (M, n_max)."""

    q_i: np.ndarray
    x_i: np.ndarray
    objective_value: float      # surrogate value at the returned point
    improved: bool


@dataclass(frozen=True)
class SrmReport:
    """Outcome of the distributed sum-rate maximization; ``x`` is the
    padded (I, M, n_max) proxy array at the final point."""

    q: np.ndarray
    x: np.ndarray
    allocation: PowerAllocation
    sum_rate: float
    outer_iterations: int
    trace: np.ndarray
    converged: bool
    subproblem_solves: int
    newton_steps: int = 0       # always 0: subproblems are solved in closed form
    diagnostic: str = ""


def power_cap(topology: NetworkTopology, q: np.ndarray, x: np.ndarray,
              i: int) -> np.ndarray:
    """Largest q_im the other cells' interference proxies tolerate, (M,).

    Minimum over every other cell's user j and every decoding position
    l >= j of (own_gain_l * x_j - interference from third cells - noise)
    divided by the gain from BS i to user l.  Positions BS i cannot reach
    (zero cross gain) impose no cap, nor do padded slots; with a single
    cell every cap is +inf.  Can come out at or below the current q_im
    when the proxies are tight.
    """
    gains = topology.dense_gains                    # (I, M, I, n_max)
    q = np.asarray(q, dtype=float)
    cells = np.arange(topology.num_cells)
    own = gains[cells, :, cells]                    # BS n to its own users
    from_i = gains[:, :, i]                         # BS i to cell n's users
    received = (q.T[None, :, None, :] @ gains)[:, :, 0]
    third = received - q[i][:, None] * from_i - q[:, :, None] * own
    numer = own[:, :, None, :] * np.asarray(x)[..., None] \
        - third[:, :, None, :] - topology.noise_power
    ratio = np.full_like(numer, np.inf)
    np.divide(numer, from_i[:, :, None, :], out=ratio,
              where=from_i[:, :, None, :] > 0.0)
    n_max = topology.max_group_size
    valid = topology.occupied[..., None] \
        & (np.arange(n_max)[None, :] >= np.arange(n_max)[:, None])   # l >= j
    valid[i] = False
    return np.where(valid, ratio, np.inf).min(axis=(0, 2, 3), initial=np.inf)


def _group_coefficients(rates: np.ndarray, bandwidth: float):
    """(alpha, beta) of the transformed objective of padded groups.

    The log argument for a group is  x_strong + alpha * q - beta . x_weak
    with  alpha = 2^(-S),  beta_j = (2^(R_j/B)-1) * 2^(-T_j),  S the total
    weak demand and T_j its tail from user j on (all divided by B).
    ``beta`` covers the n_max - 1 weak slots and is 0 in padding.
    """
    weak = rates[..., :-1] / bandwidth
    alpha = np.exp2(-weak.sum(axis=-1))
    tail = np.cumsum(weak[..., ::-1], axis=-1)[..., ::-1]
    return alpha, (np.exp2(weak) - 1.0) * np.exp2(-tail)


def _cell_rates(demands: RateDemands, i: int | None) -> np.ndarray:
    return demands.padded if i is None else demands.padded[i]


def dc_objective_parts(topology: NetworkTopology, demands: RateDemands,
                       q: np.ndarray, x: np.ndarray, i: int | None = None):
    """Convex components (F, G) of the transformed objective of BS ``i``,
    at its (M,) totals ``q`` and (M, n_max) proxies ``x``; with ``i`` None,
    of every BS at (I, M) and (I, M, n_max) arrays, as (I,) arrays.

    F collects the negative logs of the affine group arguments, G the
    negative logs of the strong users' proxies; both are convex and the
    BS objective is their difference (up to the fixed weak-demand sum).
    Raises on non-positive log arguments.
    """
    bw = topology.bandwidth
    alpha, beta = _group_coefficients(_cell_rates(demands, i), bw)
    strong = x[..., -1]
    argument = strong + alpha * q - (beta * x[..., :-1]).sum(axis=-1)
    bad = (argument <= 0.0) | (strong <= 0.0)
    if bad.any():
        group = ((i,) if i is not None else ()) + tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"group ({','.join(map(str, group))}): non-positive log "
                         "argument, iterate infeasible")
    return (-(bw * np.log2(argument)).sum(axis=-1),
            -(bw * np.log2(strong)).sum(axis=-1))


def cell_objective(topology: NetworkTopology, demands: RateDemands,
                   q: np.ndarray, x: np.ndarray, i: int | None = None):
    """Negative closed-form sum rate of BS ``i``, bit/s; of every BS, as
    an (I,) array, when ``i`` is None (arguments as :func:`dc_objective_parts`).

    Equals F - G minus the (constant) weak users' demand sum, i.e. the
    negative of the per-group optimal rate with the proxies in place of
    the effective interference.
    """
    f_val, g_val = dc_objective_parts(topology, demands, q, x, i)
    weak = _cell_rates(demands, i)[..., :-1].sum(axis=-1).sum(axis=-1)
    return f_val - g_val - weak


def surrogate_objective(topology: NetworkTopology, demands: RateDemands,
                        q_i: np.ndarray, x_i: np.ndarray, x_lin: np.ndarray,
                        i: int) -> float:
    """Convex majorant of F - G at linearization point ``x_lin``.

    G is linearized in the strong proxies, its only arguments: the
    gradient is -B / (ln2 * L) at each strong proxy L of ``x_lin``.  So
    ``x_lin`` need not satisfy the demand coupling at ``q_i``.
    """
    bw = topology.bandwidth
    f_val, _ = dc_objective_parts(topology, demands, q_i, x_i, i)
    L = x_lin[..., -1]
    g_lin = -bw * np.log2(L).sum(axis=-1)
    inner = (-bw / (LN2 * L) * (x_i[..., -1] - L)).sum(axis=-1)
    return f_val - g_lin - inner


def solve_convex_subproblem(topology: NetworkTopology, demands: RateDemands,
                            i: int, x_lin: np.ndarray, caps: np.ndarray,
                            budget: float, q: np.ndarray) -> DcIterate:
    """One BS's convex program at a linearization point, in closed form.

    Minimizes the surrogate objective over (q_i, x_i) subject to the
    demand coupling, the proxy lower bounds ``lb`` (the effective
    interference at the frozen other-cell powers), the per-subchannel
    caps and the power budget.  Weak proxies sit at ``lb``; the strong
    proxy is ``clip(L - a, lb_strong, a / rho)`` with ``L`` that of
    ``x_lin``, ``a = alpha q_m - beta . lb_weak`` and ``rho =
    2^(R_strong/B) - 1``; q_i water-fills the budget over ``[w . lb,
    min(max(cap, q_warm), budget)]``.  The warm start (row i of ``q``,
    (M, n_max) proxies ``x_lin``) is returned unless the surrogate value
    drops.
    """
    bw = topology.bandwidth
    rates = demands.padded[i]
    lb = np.where(topology.occupied[i], dense_interference(topology, q, i), 0.0)
    q_warm = np.array(q[i], dtype=float)
    x_warm = np.array(x_lin, dtype=float)
    weights = demand_weights(rates, bw)

    # reject genuinely infeasible inputs before any numeric work; the
    # first violated subchannel is named, with its first violated family
    rel = 1e-7
    failed = np.stack([
        (x_warm < lb * (1.0 - rel) - 1e-300).any(axis=-1),
        (weights * x_warm).sum(axis=-1) > q_warm * (1.0 + rel) + 1e-300,
        q_warm > np.maximum(caps, 0.0) * (1.0 + rel) + 1e-300])
    if failed.any():
        m = int(np.argmax(failed.any(axis=0)))
        family = ("interference lower bounds", "demand coupling",
                  "power caps")[int(np.argmax(failed[:, m]))]
        raise InfeasibleSubproblemError(family, f"(cell {i}, subchannel {m})")
    if q_warm.sum() > budget * (1.0 + rel):
        raise InfeasibleSubproblemError("power budget", f"(cell {i})")

    alpha, beta = _group_coefficients(rates, bw)
    weak = (beta * lb[:, :-1]).sum(axis=-1)
    rho = np.exp2(rates[:, -1] / bw) - 1.0
    lb_strong = lb[:, -1]
    L = x_warm[:, -1]
    hi = np.minimum(np.maximum(caps, q_warm), budget)
    lo = np.minimum((weights * lb).sum(axis=-1), hi)

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
    x_new = lb.copy()
    x_new[:, -1] = np.minimum(np.maximum(L - a, lb_strong), a / rho)

    warm_value = surrogate_objective(topology, demands, q_warm, x_warm, x_lin, i)
    new_value = surrogate_objective(topology, demands, q_new, x_new, x_lin, i)
    if not new_value < warm_value:
        return DcIterate(q_i=q_warm, x_i=x_warm, objective_value=warm_value,
                         improved=False)
    return DcIterate(q_i=q_new, x_i=x_new, objective_value=new_value,
                     improved=True)


def dpc_srm(topology: NetworkTopology, demands: RateDemands,
            q0: np.ndarray | None = None, x0: np.ndarray | None = None,
            tol: float = 1e-3, max_outer: int = 100) -> SrmReport:
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
    feasible by construction.  An explicit ``x0`` is an (I, M, n_max)
    array front-padded like the topology with 0 in padding.  An explicit
    infeasible start raises :class:`InfeasibleInitialPointError`.
    """
    rates = demands.padded_for(topology)
    if q0 is None:
        q_star, headroom = _fixed_point_headroom(topology, demands)
        q = q_star * float(np.min(headroom))
    else:
        q = np.array(q0, dtype=float)
    if x0 is None:
        x = np.where(topology.occupied, dense_interference(topology, q), 0.0)
    else:
        x = np.array(x0, dtype=float)
    _validate_start(topology, demands, q, x)

    inner_tol = tol / INNER_TOL_DIVISOR
    k_cells = cell_objective(topology, demands, q, x)
    trace = [float(np.sum(k_cells))]
    converged = False
    diagnostic = ""
    solves = 0
    outer = 0
    for outer in range(1, max_outer + 1):
        for i in range(topology.num_cells):
            caps = power_cap(topology, q, x, i)
            for _ in range(MAX_INNER):
                try:
                    iterate = solve_convex_subproblem(
                        topology, demands, i, x[i], caps,
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
                x[i] = iterate.x_i
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
    h = dense_interference(topology, q)
    x = np.where(topology.occupied, h, 0.0)
    trace.append(float(np.sum(cell_objective(topology, demands, q, x))))

    allocation = _assemble(topology, rates, q, h)
    sum_rate = float(group_rates(allocation.padded, h, topology.bandwidth).sum())
    return SrmReport(q=q, x=x, allocation=allocation, sum_rate=sum_rate,
                     outer_iterations=outer, trace=np.array(trace),
                     converged=converged and not diagnostic,
                     subproblem_solves=solves,
                     diagnostic=diagnostic)


def _validate_start(topology, demands, q, x):
    if q.shape != (topology.num_cells, topology.num_subchannels) or np.any(q < 0):
        raise InfeasibleInitialPointError("q0 must be a non-negative (I, M) array")
    if np.any(q.sum(axis=1) > topology.budgets * (1.0 + 1e-9)):
        raise InfeasibleInitialPointError("q0 exceeds a per-cell budget")
    occupied = topology.occupied
    if x.shape != occupied.shape or np.any(x[~occupied] != 0.0):
        raise InfeasibleInitialPointError(
            "x0 must be an (I, M, n_max) array padded like the topology, 0 in padding")
    h = dense_interference(topology, q)
    below = (occupied & (x < h * (1.0 - 1e-9))).any(axis=-1)
    w = demand_weights(demands.padded, topology.bandwidth)
    short = (w * x).sum(axis=-1) > q * (1.0 + 1e-9)
    if (below | short).any():
        i, m = np.argwhere(below | short)[0]
        if below[i, m]:
            raise InfeasibleInitialPointError(
                f"x0 below the effective interference at group ({i},{m})")
        raise InfeasibleInitialPointError(
            f"q0 cannot cover the demands implied by x0 at group ({i},{m})")


def _assemble(topology, rates, q, h) -> PowerAllocation:
    """Rate-optimal split of the totals ``q`` in every group at once, at
    the effective interference ``h``."""
    required = required_group_power(rates, h, topology.bandwidth)
    below = np.argwhere(q < required * (1.0 - 1e-9))
    if below.size:
        i, m = below[0]
        raise InfeasibleInitialPointError(
            f"group ({i},{m}) ended below its required power")
    return PowerAllocation(optimal_single_cell_allocation(
        rates, h, np.maximum(q, required), topology.bandwidth))


def _fixed_point_headroom(topology, demands):
    """The sum-power fixed point and each cell's budget over its total."""
    fp = solve_spm(topology, demands)
    if not fp.feasible:
        raise InfeasibleInitialPointError(
            "rate demands admit no feasible power allocation within budgets")
    return fp.q_star, topology.budgets / fp.q_star.sum(axis=1)


def random_feasible_start(topology: NetworkTopology, demands: RateDemands,
                          rng: np.random.Generator):
    """Random feasible (q0, x0) for multi-start exploration.

    Scales the sum-power fixed point by random per-cell factors within
    the budget headroom and repairs the demand coupling by a monotone
    sweep (q <- max(q, f(q)) converges from below the scaled envelope);
    falls back to a uniform factor when the repair leaves a budget
    violated.  Each group's spare power is then handed to the proxies as
    random slack above the effective interference.  ``x0`` is padded like
    the topology, 0 in padding.  Raises :class:`InfeasibleInitialPointError`
    when the demands admit no allocation within the budgets.
    """
    fixed_point, headroom = _fixed_point_headroom(topology, demands)
    factors = rng.uniform(1.0, np.maximum(headroom, 1.0))
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
    occupied = topology.occupied
    h = np.where(occupied, dense_interference(topology, q), 0.0)
    w = demand_weights(demands.padded, topology.bandwidth)
    margin = q - (w * h).sum(axis=-1)
    # the draws run group by group in (i, m) order: one share per user,
    # then a scale for a group with a margin and a positive share
    share = np.zeros_like(h)
    scale = np.zeros_like(q)
    n_max = topology.max_group_size
    for (i, m), n in np.ndenumerate(occupied.sum(axis=-1)):
        share[i, m, n_max - n:] = rng.uniform(0.0, 1.0, size=n)
        if margin[i, m] > 0.0 and share[i, m].sum() > 0.0:
            scale[i, m] = rng.uniform(0.0, 1.0)
    total = share.sum(axis=-1)
    grant = np.divide(scale * margin, total, out=np.zeros_like(q), where=total > 0.0)
    return q, h + share * grant[..., None] / np.where(occupied, w, 1.0)
