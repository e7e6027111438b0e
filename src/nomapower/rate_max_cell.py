"""Sum-rate maximization for one (cell, subchannel) group.

With the group's total power and effective interference fixed, the
problem is convex and its optimum has a closed form: every user except
the strongest is held exactly at its rate demand, and all surplus power
goes to the user with the best channel.
"""

from __future__ import annotations

import numpy as np

from .power_min import demand_weights


class InfeasiblePowerError(ValueError):
    """Total power below the minimum needed to meet all rate demands."""

    def __init__(self, required: float, available: float):
        self.required, self.available = float(required), float(available)
        super().__init__(f"group needs at least {self.required!r} W to meet "
                         f"demands, got {self.available!r} W")


def required_group_power(demands: np.ndarray, h: np.ndarray,
                         bandwidth: float):
    """Minimum group total power that can meet every rate demand; users
    run along the last axis, so padded arrays give every group's at once."""
    return (demand_weights(demands, bandwidth) * np.asarray(h, dtype=float)).sum(axis=-1)


def single_cell_feasible(demands: np.ndarray, h: np.ndarray, q_im,
                         bandwidth: float):
    """Whether total power ``q_im`` suffices; returns (feasible, required)."""
    required = required_group_power(demands, h, bandwidth)
    return q_im >= required, required


def optimal_single_cell_allocation(demands: np.ndarray, h: np.ndarray,
                                   q_im, bandwidth: float) -> np.ndarray:
    """Rate-optimal split of total power ``q_im`` for one group.

    Weak users receive exactly the power for their demand; the remainder
    accumulates at the strongest user.  Computed by the forward recursion
    on tail sums b_j (b at the weakest user equals q_im):

        b_{j+1} = b_j / 2^(R_j/B) - (2^(R_j/B) - 1) H_j / 2^(R_j/B)

    Users run along the last axis, so padded (I, M, n_max) arrays with
    (I, M) totals split every group at once; a padded slot's zero demand
    passes b on and gets power 0.  Raises :class:`InfeasiblePowerError`
    for the first group, in (i, m) order, below its feasibility threshold.
    """
    feasible, required = single_cell_feasible(demands, h, q_im, bandwidth)
    short = np.flatnonzero(~np.asarray(feasible))
    if short.size:
        raise InfeasiblePowerError(np.ravel(required)[short[0]],
                                   np.ravel(q_im)[short[0]])
    demands = np.asarray(demands, dtype=float)
    h = np.asarray(h, dtype=float)
    growth = np.exp2(demands / bandwidth)
    b = np.empty(demands.shape)
    b[..., 0] = q_im
    for j in range(demands.shape[-1] - 1):
        b[..., j + 1] = (b[..., j] - (growth[..., j] - 1.0) * h[..., j]) / growth[..., j]
    p = b.copy()
    p[..., :-1] -= b[..., 1:]
    return p
