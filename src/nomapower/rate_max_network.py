"""Sum-rate maximization across cells.

The network problem is rewritten in terms of per-BS totals ``q`` and
auxiliary per-user interference proxies ``x`` (``x`` plays the role of
the effective interference and equals it at any sensible point).  BS i's
sum rate depends only on its own (q_i, x_i) and falls whenever one of its
proxies rises.  So with every other cell frozen its best step puts each
proxy at its lower bound, the effective interference at the frozen
powers, and what is left is the paper's single-cell problem: the
closed-form group rates, water-filled over the subchannels under the
power budget.  Caps on q_im derived from the other cells' proxy slack
keep every step globally feasible, which makes the objective trace
non-increasing.  At tight proxies every cap equals the current total, so
a step there cannot move.  :func:`dpc_srm` tests this once per sweep, for
every cell at once, and a sweep in which every step is pinned runs no
step; from its default start the first sweep is of this kind.

The proxies are stored like the demands: one (I, M, n_max) array,
front-padded like the topology with 0 in padding, so the strong user's
proxy of every group sits at ``x[..., -1]`` and one cell's proxies are
the (M, n_max) row ``x[i]``.  Every helper works on all subchannels (and
cells) at once along the last axis.

The closed forms read power-min's demand weights w: a group needs w . x,
and at a total q its weak users sit at their demands while the strongest
user gets its minimum power plus alpha times the surplus q - w . x.
:func:`dpc_srm` reads these per-group constants, and the fixed point
its default start scales, from power-min's
:class:`~nomapower.power_min._Drop`, and hands the bundle, or a step its
cell's row of it, to every helper in place of the demands.  No constant
is derived here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (NetworkTopology, PowerAllocation, RateDemands,
                      dense_interference, group_rates, normalized_interference,
                      suffix_max)
from .power_min import (COVER_RTOL, ROUND_RTOL, _checked_budgets, _Drop,
                        _GroupConstants, _reduced_map, group_split,
                        within_budgets)


class InfeasibleInitialPointError(ValueError):
    """The starting point violates the transformed problem's constraints."""


class InfeasibleSubproblemError(ValueError):
    """A per-BS subproblem has no feasible point; names the violated family."""

    def __init__(self, family: str, detail: str = ""):
        super().__init__(f"infeasible subproblem: constraint family {family!r} {detail}")


@dataclass(frozen=True)
class DcIterate:
    """One BS's step; ``x_i`` is (M, n_max)."""

    q_i: np.ndarray
    x_i: np.ndarray
    objective_value: float      # cell_objective at the returned point
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
              z: np.ndarray) -> np.ndarray:
    """Largest q_im the other cells' interference proxies tolerate, for
    every BS i at once, (I, M).

    ``z`` is :func:`~nomapower.network.normalized_interference` at ``q``.
    Raising q_im by d lifts z_l of another cell's user l by d times its
    ``cross_ratio`` to BS i, and every user j <= l that l decodes needs
    its proxy x_j >= z_l.  So the cap is q_im plus the least
    (min_{j <= l} x_j - z_l) / ratio over the users with a positive
    ratio: padded slots, BS i's own users and zero cross gains impose
    none, and with a single cell every cap is +inf.  At tight proxies it
    is q_im exactly.
    """
    floor = np.minimum.accumulate(np.where(topology.occupied, x, np.inf), axis=-1)
    ratio = topology.cross_ratio
    slack = np.full(ratio.shape, np.inf)
    np.divide((floor - z)[..., None], ratio, out=slack, where=ratio > 0.0)
    return q + slack.min(axis=(0, 2)).T


def cell_objective(topology: NetworkTopology, constants: _GroupConstants,
                   q: np.ndarray, x: np.ndarray, i: int | None = None):
    """Negative closed-form sum rate of BS ``i``, bit/s, at its (M,) totals
    ``q`` and (M, n_max) proxies ``x``, with row ``i`` of ``constants``.
    With ``i`` None, ``constants`` matches the arrays: all of it at (I, M)
    and (I, M, n_max) arrays gives every BS's as an (I,) array, and one
    cell's row at (M,) and (M, n_max) arrays that cell's.

    Each group contributes -B log2(2^(R_n/B) + alpha (q - w . x) / x_n),
    the negative of its strong user's rate on the surplus with the proxies
    in place of the effective interference, less the weak users' demand
    sum ``constants.weak``.  Raises on non-positive log arguments.
    """
    bw = topology.bandwidth
    c = constants if i is None else constants[i]
    strong = x[..., -1]
    bad = strong <= 0.0
    surplus = q - (c.weights * x).sum(axis=-1)
    argument = c.growth[..., -1] + c.alpha * surplus / np.where(bad, 1.0, strong)
    bad |= argument <= 0.0
    if bad.any():
        group = ((i,) if i is not None else ()) + tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"group ({','.join(map(str, group))}): non-positive log "
                         "argument, iterate infeasible")
    return -(bw * np.log2(argument)).sum(axis=-1) - c.weak


def solve_convex_subproblem(topology: NetworkTopology, constants: _GroupConstants,
                            i: int, x_i: np.ndarray, caps: np.ndarray,
                            budget: float, q: np.ndarray, h_i: np.ndarray,
                            warm_value: float) -> DcIterate:
    """BS ``i``'s exact best step with every other cell frozen.

    ``constants`` is row ``i`` of the group constants, ``caps`` row ``i``
    of :func:`power_cap`, ``h_i`` the (M, n_max) effective interference of
    BS i's users at ``q`` and ``warm_value`` the :func:`cell_objective` of
    the warm start, row i of ``q`` with the proxies ``x_i``.

    The BS objective and the demand coupling's need w . x both fall
    whenever a proxy falls, so every proxy goes to its lower bound ``lb``,
    ``h_i`` at the users' slots.  What is left is the paper's single-cell
    problem: maximize sum_m log(offset_m + q_m), with offset =
    2^(R_n/B) lb_n / alpha - w . lb, over q_m in [w . lb, min(max(cap_m,
    q_warm), budget)] with the total within the budget.  Its water-filling
    solution q_m = clip(level - offset_m) to that box spends a total
    piecewise linear in the level, with knots at the 2M box ends, so one
    interpolation between the sorted knots finds the level that spends
    the budget.  The warm start is returned unless the cell objective
    drops.  A cap below ``q_warm`` pins its subchannel at ``q_warm``.

    A pinned step, every cap at or below ``q_warm`` with the proxies
    already at ``lb``, returns the warm start: no point of its box can
    beat it, since the box's top is min(q_warm, budget) <= q_warm, the
    proxies cannot go below ``lb``, and the cell objective does not fall
    as any q_m falls.  :func:`dpc_srm` detects a sweep of such steps
    before it runs and calls no step then.
    """
    c = constants
    lb = np.where(topology.occupied[i], h_i, 0.0)
    q_warm = np.array(q[i], dtype=float)
    x_warm = np.array(x_i, dtype=float)

    # reject genuinely infeasible inputs before any numeric work; the
    # first violated subchannel is named, with its first violated family
    below = (x_warm < lb * (1.0 - COVER_RTOL)).any(axis=-1)
    short = (c.weights * x_warm).sum(axis=-1) > q_warm * (1.0 + COVER_RTOL)
    if below.any() or short.any():
        m = int(np.argmax(below | short))
        family = "interference lower bounds" if below[m] else "demand coupling"
        raise InfeasibleSubproblemError(family, f"(cell {i}, subchannel {m})")
    if q_warm.sum() > budget * (1.0 + ROUND_RTOL):
        raise InfeasibleSubproblemError("power budget", f"(cell {i})")

    hi = np.minimum(np.maximum(caps, q_warm), budget)
    required = (c.weights * lb).sum(axis=-1)
    lo = np.minimum(required, hi)
    q_new = hi
    if hi.sum() > budget:
        offset = c.growth[:, -1] * lb[:, -1] / c.alpha - required
        knots = np.sort(np.concatenate([offset + lo, offset + hi]))
        totals = np.clip(knots[:, None] - offset, lo, hi).sum(axis=-1)
        q_new = np.clip(np.interp(budget, totals, knots) - offset, lo, hi)

    new_value = cell_objective(topology, c, q_new, lb)
    if not new_value < warm_value:
        return DcIterate(q_i=q_warm, x_i=x_warm, objective_value=warm_value,
                         improved=False)
    return DcIterate(q_i=q_new, x_i=lb, objective_value=new_value, improved=True)


def dpc_srm(topology: NetworkTopology, demands: RateDemands, budgets: np.ndarray,
            q0: np.ndarray | None = None, x0: np.ndarray | None = None,
            tol: float = 1e-3, max_outer: int = 100, *,
            drop: _Drop | None = None) -> SrmReport:
    """Distributed sum-rate power control under the (I,) per-BS ``budgets``.

    Sweeps cells in ascending order; each BS takes one exact step on its
    own variables with the rest frozen (:func:`solve_convex_subproblem`:
    proxies at the effective interference, then the paper's single-cell
    closed form, water-filled under the budget), under caps that keep
    every other cell's constraints intact.  Stops once the total
    objective changes by at most ``tol`` between sweeps.

    The sweep keeps the normalized interference at the current ``q``, the
    effective interference (its suffix maximum) and every BS's caps
    (:func:`power_cap`), and refreshes all three from one interference
    evaluation after each step that moves.  The group constants' per-cell
    rows are cut once per call, before the first sweep that steps, and a
    step is handed its cell's objective at the current point instead of
    evaluating it.  The final settle puts the proxies on the effective
    interference and evaluates the objective only when that moves a
    proxy; otherwise the kept per-cell objectives are already its value.

    Before each sweep one test over all cells asks whether every step of
    it is pinned (:func:`_stalled`).  Such a sweep cannot move, so it
    runs no step: it counts its I solves and appends the unchanged
    objective, and the loop stops converged, as it does on a change of
    0; the proxies are already settled.  At the start, which passed the
    coupling and budget checks, the test skips them.  From the default
    start of cells that all interfere every cap binds at tight proxies,
    so the first sweep is stalled, and a call evaluates the objective
    once, at its start, and runs no step.  A single cell has no caps and
    steps.

    Without an explicit start the sum-power fixed point
    (:func:`~nomapower.power_min.solve_spm`) is scaled uniformly by the
    tightest cell's budget headroom, with the proxies at the effective
    interference there: feasible by construction, so not checked.  An
    explicit ``x0`` is an (I, M, n_max) array front-padded like the
    topology with 0 in padding.  An explicit infeasible start raises
    :class:`InfeasibleInitialPointError`.  ``drop``, the private
    :class:`~nomapower.power_min._Drop` of these very ``topology`` and
    ``demands`` objects (another raises ValueError), hands over their
    checked constants and fixed point; None builds one.  ``nomapower
    run`` hands one drop per seed to every call of the seed.
    """
    budgets = _checked_budgets(topology, budgets)
    drop = _Drop.of(topology, demands, drop)
    constants = drop.constants
    q, x, z, h = _start(drop, budgets, q0, x0)
    k_cells = cell_objective(topology, constants, q, x)
    caps = power_cap(topology, q, x, z)
    rows = None
    trace = [float(np.sum(k_cells))]
    converged = stalled = False
    diagnostic = ""
    solves = 0
    outer = 0
    for outer in range(1, max_outer + 1):
        # a stalled sweep leaves the point as it is, and so every later one
        stalled = stalled or _stalled(topology, constants, budgets, q, x, h, caps,
                                      outer == 1)
        if stalled:
            solves += topology.num_cells
        else:
            if rows is None:
                rows = [constants[i] for i in range(topology.num_cells)]
            for i in range(topology.num_cells):
                try:
                    step = solve_convex_subproblem(topology, rows[i], i, x[i], caps[i],
                                                   budgets[i], q, h[i], k_cells[i])
                except InfeasibleSubproblemError as exc:
                    diagnostic = str(exc)
                    break
                solves += 1
                if step.improved:
                    q[i], x[i], k_cells[i] = step.q_i, step.x_i, step.objective_value
                    z = normalized_interference(topology, q)
                    h = suffix_max(z)
                    caps = power_cap(topology, q, x, z)
            if diagnostic:
                break
        trace.append(float(np.sum(k_cells)))
        if abs(trace[-2] - trace[-1]) <= tol:
            converged = True
            break

    # settle the proxies exactly on the effective interference; this can
    # only decrease the objective and restores tightness.  Proxies already
    # there, as at a stalled sweep, leave every cell's objective at its
    # kept k_cells entry
    if not stalled:
        settled = np.where(topology.occupied, h, 0.0)
        if not np.array_equal(settled, x):
            x = settled
            k_cells = cell_objective(topology, constants, q, x)
    trace.append(float(np.sum(k_cells)))

    allocation = _assemble(constants, q, h)
    sum_rate = float(group_rates(allocation.powers, h, topology.bandwidth).sum())
    return SrmReport(q=q, x=x, allocation=allocation, sum_rate=sum_rate,
                     outer_iterations=outer, trace=np.array(trace),
                     converged=converged and not diagnostic,
                     subproblem_solves=solves,
                     diagnostic=diagnostic)


def _stalled(topology, constants, budgets, q, x, h, caps, checked=False):
    """Whether every BS's step at this point is pinned, for all cells at
    once: every cap at or below its total, the proxies on the effective
    interference ``h`` (0 in padding), and every cell passing the step's
    own feasibility checks, the demand coupling within ``COVER_RTOL`` and
    the budget within ``ROUND_RTOL``; proxies on ``h`` pass its lower
    bounds.  Where any of this fails the sweep runs its steps, and a step
    that fails its own checks raises.  ``checked`` skips the coupling and
    budget tests at a start, which passed them (:func:`_start`)."""
    return bool((caps <= q).all()
                and np.array_equal(x, np.where(topology.occupied, h, 0.0))
                and (checked or (
                    ((constants.weights * x).sum(axis=-1) <= q * (1.0 + COVER_RTOL)).all()
                    and within_budgets(budgets, q).all())))


def _start(drop, budgets, q0, x0):
    """The starting totals ``q`` and proxies ``x``, with the normalized
    interference ``z`` and effective interference ``h`` at ``q``.

    ``q0`` None gives the default totals, the drop's fixed point scaled
    by the least :func:`_headroom`, and ``x0`` None proxies at ``h``.
    Unless both are None the start is checked: ``q0`` must be a
    non-negative (I, M) array within the ``budgets``, ``x0`` padded like
    the topology and at or above ``h``, and ``q`` must cover the need
    w . x; otherwise it raises :class:`InfeasibleInitialPointError`.
    """
    topology, constants = drop.topology, drop.constants
    if q0 is None:
        fp, _ = drop.fixed_point
        q = fp.q_star * float(np.min(_headroom(fp, budgets)))
    else:
        q = np.array(q0, dtype=float)
        if q.shape != (topology.num_cells, topology.num_subchannels) or np.any(q < 0):
            raise InfeasibleInitialPointError("q0 must be a non-negative (I, M) array")
        if not within_budgets(budgets, q).all():
            raise InfeasibleInitialPointError("q0 exceeds a per-cell budget")
    z = normalized_interference(topology, q)
    h = suffix_max(z)
    occupied = topology.occupied
    if x0 is None:
        x = np.where(occupied, h, 0.0)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != occupied.shape or np.any(x[~occupied] != 0.0):
            raise InfeasibleInitialPointError(
                "x0 must be an (I, M, n_max) array padded like the topology, 0 in padding")
        below = (occupied & (x < h * (1.0 - COVER_RTOL))).any(axis=-1)
        if below.any():
            i, m = np.argwhere(below)[0]
            raise InfeasibleInitialPointError(
                f"x0 below the effective interference at group ({i},{m})")
    if q0 is not None or x0 is not None:
        short = (constants.weights * x).sum(axis=-1) > q * (1.0 + COVER_RTOL)
        if short.any():
            i, m = np.argwhere(short)[0]
            raise InfeasibleInitialPointError(
                f"q0 cannot cover the demands implied by x0 at group ({i},{m})")
    return q, x, z, h


def _assemble(constants, q, h) -> PowerAllocation:
    """Rate-optimal split of the totals ``q`` in every group at once, at
    the effective interference ``h``: :func:`~nomapower.power_min.group_split`
    with the extra alpha (q - w . h).  Refuses totals below the required
    power w . h; one within ``COVER_RTOL`` of it is raised to it."""
    required = (constants.weights * h).sum(axis=-1)
    below = q < required * (1.0 - COVER_RTOL)
    if below.any():
        i, m = np.argwhere(below)[0]
        raise InfeasibleInitialPointError(
            f"group ({i},{m}) ended below its required power")
    surplus = np.maximum(q, required) - required
    return PowerAllocation(group_split(constants.growth, h, constants.alpha * surplus))


def _headroom(fp, budgets):
    """Each cell's budget over its total at the sum-power fixed point of
    the report ``fp``; raises :class:`InfeasibleInitialPointError` when
    there is none within the ``budgets``."""
    if not fp.fits(budgets):
        raise InfeasibleInitialPointError(
            "rate demands admit no feasible power allocation within budgets")
    return budgets / fp.q_star.sum(axis=1)


def random_feasible_start(topology: NetworkTopology, demands: RateDemands,
                          budgets: np.ndarray, rng: np.random.Generator, *,
                          drop: _Drop | None = None):
    """Random feasible (q0, x0) under the (I,) ``budgets``, for multi-start runs.

    Scales the sum-power fixed point by random per-cell factors within
    the budget headroom and repairs the demand coupling by a monotone
    sweep (q <- max(q, f(q)) converges from below the scaled envelope);
    falls back to a uniform factor when the repair leaves a budget
    violated.  Each group's spare power is then handed to the proxies as
    random slack above the effective interference.  ``x0`` is padded like
    the topology, 0 in padding.  Raises :class:`InfeasibleInitialPointError`
    when the demands admit no allocation within the budgets.  ``drop``
    hands over the constants and the fixed point as in :func:`dpc_srm`.
    """
    budgets = _checked_budgets(topology, budgets)
    drop = _Drop.of(topology, demands, drop)
    w = drop.constants.weights
    fp, _ = drop.fixed_point
    headroom = _headroom(fp, budgets)
    factors = rng.uniform(1.0, np.maximum(headroom, 1.0))
    q = fp.q_star * factors[:, None]
    for _ in range(100):
        mapped = _reduced_map(topology, w, q)
        if np.all(q >= mapped * (1.0 - ROUND_RTOL)):
            break
        q = np.maximum(q, mapped)
    if not (within_budgets(budgets, q).all()
            and np.all(q >= _reduced_map(topology, w, q) * (1.0 - COVER_RTOL))):
        q = fp.q_star * float(np.min(headroom))
    occupied = topology.occupied
    h = np.where(occupied, dense_interference(topology, q), 0.0)
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
