"""Sum-power minimization.

The per-group optimum has a closed form: every rate constraint is tight,
so a backward recursion over the cumulative tail powers yields the user
powers directly.  Substituting the closed form into the network problem
leaves only the per-BS totals ``q``, coupled through the interference map
``f``; ``f`` is a standard interference function, so the distributed
fixed-point sweep (:func:`dpc_spm`) converges to the component-wise
minimal solution whenever one exists.  :func:`solve_spm` reaches the same
point exactly in a few small linear solves and certifies when there is
none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (NetworkTopology, PowerAllocation, RateDemands,
                      dense_interference, normalized_interference)

# dpc_spm also needs the relative sum-power change to fall to REL_TOL;
# assemble_full_solution rejects a q_star off the fixed point by more
# than RESIDUAL_TOL (W)
REL_TOL = 1e-10
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of a sum-power fixed-point solve (dpc_spm or solve_spm)."""

    q_star: np.ndarray
    iterations: int
    residual: float
    budget_feasible: np.ndarray
    converged: bool
    trace: np.ndarray

    @property
    def feasible(self) -> bool:
        return self.converged and bool(np.all(self.budget_feasible))


def within_budgets(topology: NetworkTopology, q: np.ndarray) -> np.ndarray:
    """Per-BS check of the totals of an (I, M) power array against the budgets."""
    return q.sum(axis=1) <= topology.budgets * (1.0 + 1e-12)


def demand_weights(demands: np.ndarray, bandwidth: float) -> np.ndarray:
    """Weights w_j = (2^(R_j/B) - 1) * 2^(sum_{s<j} R_s/B) for one group.

    The minimum total power of a group is the dot product of these weights
    with the per-user effective interference.  Users run along the last
    axis; a front-padded slot with zero demand gets weight 0.
    """
    r = np.asarray(demands, dtype=float) / bandwidth
    before = np.zeros_like(r)
    before[..., 1:] = np.cumsum(r, axis=-1)[..., :-1]
    return (np.exp2(r) - 1.0) * np.exp2(before)


def min_power_user_allocation(demands: np.ndarray, h: np.ndarray,
                              bandwidth: float) -> np.ndarray:
    """Closed-form minimum-power split for one group.

    Solves the tight rate equations by backward recursion on the tail
    sums b_j = sum_{n>=j} p_n:

        b_j = 2^(R_j/B) * b_{j+1} + (2^(R_j/B) - 1) * H_j

    Every user ends up exactly at its rate demand and all powers are
    strictly positive.  Users run along the last axis, so front-padded
    (I, M, n_max) arrays split every group at once; a padded slot with
    zero demand gets power 0.
    """
    r = np.asarray(demands, dtype=float) / bandwidth
    h = np.asarray(h, dtype=float)
    growth = np.exp2(r)
    n = r.shape[-1]
    b = np.zeros(r.shape[:-1] + (n + 1,))
    for j in range(n - 1, -1, -1):
        b[..., j] = growth[..., j] * b[..., j + 1] + (growth[..., j] - 1.0) * h[..., j]
    return b[..., :-1] - b[..., 1:]


def interference_map(topology: NetworkTopology, demands: RateDemands,
                     q: np.ndarray) -> np.ndarray:
    """Reduced interference map f(q), an (I, M) array.

    f_im(q) is the minimum total power BS i needs on subchannel m to meet
    its users' demands against the interference produced by ``q``; it
    equals the group total of :func:`min_power_user_allocation`.
    """
    weights = demand_weights(demands.padded_for(topology), topology.bandwidth)
    return _reduced_map(topology, weights, q)


def _reduced_map(topology, weights, q, cell=None):
    """f(q) from front-padded demand weights; only row ``cell`` if given."""
    w = weights if cell is None else weights[cell]
    return (w * dense_interference(topology, q, cell)).sum(axis=-1)


def dpc_spm(topology: NetworkTopology, demands: RateDemands,
            q0: np.ndarray | None = None, tol: float = 1e-8,
            max_iter: int = 10_000) -> FixedPointReport:
    """Distributed power control for sum-power minimization.

    Iterates q_im <- f_im(q) as a Gauss-Seidel sweep: q is refreshed in
    place, cell by cell in ascending order, each cell updating its whole
    row q[i, :] at once.  That is exactly the ascending (cell,
    subchannel) order: f_im reads only q[k, m] for k != i, so no entry of
    row i feeds another entry of row i.  Stops once the largest element
    change is <= ``tol`` and the relative sum-power change is <=
    ``REL_TOL``, or after ``max_iter`` sweeps.

    Non-convergence is reported, not raised: it indicates the demands are
    likely infeasible at any power level.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be > 0 and max_iter >= 1")
    if q0 is None:
        q = np.repeat(topology.budgets[:, None] / topology.num_subchannels,
                      topology.num_subchannels, axis=1)
    else:
        q = np.array(q0, dtype=float)
        if q.shape != (topology.num_cells, topology.num_subchannels):
            raise ValueError("q0 has the wrong shape")
        if np.any(q < 0):
            raise ValueError("q0 must be non-negative")

    weights = demand_weights(demands.padded_for(topology), topology.bandwidth)
    trace = []
    converged = False
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        for i in range(topology.num_cells):
            q[i] = _reduced_map(topology, weights, q, i)
        trace.append(q.sum())
        if not np.all(np.isfinite(q)) or q.max() > 1e9 * topology.budgets.max():
            # expansive coupling: the iteration runs away, no fixed point
            residual = np.inf
            break
        # the stopping rule reads the residual |q - f(q)|, so a fixed point
        # is confirmed without a further sweep
        mapped = _reduced_map(topology, weights, q)
        residual = float(np.max(np.abs(q - mapped)))
        rel_change = abs(q.sum() - mapped.sum()) / max(q.sum(), 1e-300)
        if residual <= tol and rel_change <= REL_TOL:
            converged = True
            break

    budget_ok = within_budgets(topology, q)
    return FixedPointReport(q_star=q, iterations=iterations, residual=residual,
                            budget_feasible=budget_ok, converged=converged,
                            trace=np.array(trace))


def solve_spm(topology: NetworkTopology, demands: RateDemands,
              max_iter: int = 100) -> FixedPointReport:
    """Least fixed point of the interference map, by policy iteration.

    Fixing, for every user j, the decoding user l >= j that sets its
    effective interference (the choice sigma) makes f affine on each
    subchannel: f(q)[:, m] = A q[:, m] + b with a non-negative A and a
    positive b, and f is the maximum of these maps over all choices.
    Starting at q = 0, each step records the choice that attains f at
    the current q and solves the M systems (I - A) q = b at once; once
    the choice repeats, f(q) = q.  The iterates rise monotonically and
    never pass the least fixed point, so that is where they stop
    (Howard's policy iteration on Yates' standard function).

    Since f >= A q + b with b > 0, a solve that is not finite and
    positive certifies that A has spectral radius >= 1 and f has no
    fixed point: ``converged`` is False and ``q_star`` is +inf.  As with
    :func:`dpc_spm`, a fixed point beyond a budget reports ``converged``
    True and ``budget_feasible`` False.  ``iterations`` counts linear
    solves, ``trace`` holds the sum power after each, and ``max_iter``
    caps the solves against floating-point ties.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    weights = demand_weights(demands.padded_for(topology), topology.bandwidth)
    ratio, noise = topology.cross_ratio, topology.noise_ratio
    num_cells, _, n_max = noise.shape
    later = np.triu(np.ones((n_max, n_max), dtype=bool))    # [j, l]: l >= j
    identity = np.eye(num_cells)
    q = np.zeros((num_cells, topology.num_subchannels))
    choice = None
    trace = []
    converged = False
    while True:
        z = normalized_interference(topology, q)
        decoder = np.argmax(np.where(later, z[..., None, :], -np.inf), axis=-1)
        if choice is not None and np.array_equal(decoder, choice):
            converged = True
            break
        if len(trace) == max_iter:
            break
        choice = decoder
        # the demand weight each decoding user carries under this choice
        load = np.einsum("imj,imjl->iml", weights,
                         choice[..., None] == np.arange(n_max))
        a = np.einsum("iml,imlk->mik", load, ratio)
        b = np.einsum("iml,iml->mi", load, noise)
        try:
            q = np.linalg.solve(identity - a, b[..., None])[..., 0].T
        except np.linalg.LinAlgError:      # I - A singular: radius >= 1 too
            q = np.full_like(q, np.inf)
        if not np.all(np.isfinite(q) & ((q > 0.0) | (b.T == 0.0))):
            q = np.full_like(q, np.inf)
        trace.append(q.sum())
        if np.isinf(trace[-1]):
            break

    residual = np.inf
    if np.all(np.isfinite(q)):
        residual = float(np.max(np.abs(q - _reduced_map(topology, weights, q))))
    budget_ok = within_budgets(topology, q)
    return FixedPointReport(q_star=q, iterations=len(trace), residual=residual,
                            budget_feasible=budget_ok, converged=converged,
                            trace=np.array(trace))


def assemble_full_solution(topology: NetworkTopology, demands: RateDemands,
                           q_star: np.ndarray) -> PowerAllocation:
    """Per-user powers at a converged fixed point.

    Evaluates the effective interference at ``q_star`` and applies the
    closed-form split to every group at once; group totals reproduce
    ``q_star``.  Raises ValueError when ``q_star`` is off the fixed point
    by more than ``RESIDUAL_TOL``.
    """
    rates = demands.padded_for(topology)
    h = dense_interference(topology, q_star)
    f = (demand_weights(rates, topology.bandwidth) * h).sum(axis=-1)
    residual = float(np.max(np.abs(q_star - f)))
    if residual > RESIDUAL_TOL:
        raise ValueError(
            f"q_star is not a fixed point (residual {residual:.3e} > {RESIDUAL_TOL:.1e})")
    return PowerAllocation(min_power_user_allocation(rates, h, topology.bandwidth))
