"""Sum-rate maximization for one (cell, subchannel) group.

With the group's total power and effective interference fixed, the
problem is convex and its optimum has a closed form: every user except
the strongest is held exactly at its rate demand, and all surplus power
goes to the user with the best channel.
"""

from __future__ import annotations

import warnings

import numpy as np

from .network import LN2
from .power_min import demand_weights


class InfeasiblePowerError(ValueError):
    """Total power below the minimum needed to meet all rate demands."""

    def __init__(self, required: float, available: float):
        super().__init__(
            f"group needs at least {required!r} W to meet demands, "
            f"got {available!r} W")
        self.required = required
        self.available = available


def required_group_power(demands: np.ndarray, h: np.ndarray,
                         bandwidth: float) -> float:
    """Minimum group total power that can meet every rate demand."""
    return float(demand_weights(demands, bandwidth) @ np.asarray(h, dtype=float))


def single_cell_feasible(demands: np.ndarray, h: np.ndarray, q_im: float,
                         bandwidth: float):
    """Whether total power ``q_im`` suffices; returns (feasible, required)."""
    required = required_group_power(demands, h, bandwidth)
    return q_im >= required, required


def optimal_single_cell_allocation(demands: np.ndarray, h: np.ndarray,
                                   q_im: float, bandwidth: float) -> np.ndarray:
    """Rate-optimal split of total power ``q_im`` for one group.

    Weak users receive exactly the power for their demand; the remainder
    accumulates at the strongest user.  Computed by the forward recursion
    on tail sums b_j (b at the weakest user equals q_im):

        b_{j+1} = b_j / 2^(R_j/B) - (2^(R_j/B) - 1) H_j / 2^(R_j/B)

    Raises :class:`InfeasiblePowerError` when ``q_im`` is below the
    feasibility threshold.
    """
    feasible, required = single_cell_feasible(demands, h, q_im, bandwidth)
    if not feasible:
        raise InfeasiblePowerError(required, q_im)
    r = np.asarray(demands, dtype=float) / bandwidth
    h = np.asarray(h, dtype=float)
    growth = np.exp2(r)
    n = r.size
    b = np.empty(n)
    b[0] = q_im
    for j in range(n - 1):
        b[j + 1] = (b[j] - (growth[j] - 1.0) * h[j]) / growth[j]
    p = np.empty(n)
    p[:-1] = b[:-1] - b[1:]
    p[-1] = b[-1]

    strong_rate = bandwidth * np.log1p(p[-1] / h[-1]) / LN2
    if strong_rate < demands[-1] * (1.0 - 1e-9):
        # feasible by the aggregate condition yet the strongest user falls
        # short; mathematically excluded, kept as a guard
        warnings.warn(
            "strongest user below its rate demand at the rate-optimal split",
            RuntimeWarning, stacklevel=2)
    return p


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
    tail = np.cumsum(weak[::-1])[::-1] if weak.size else np.empty(0)
    argument = 1.0 + q_im / (np.exp2(weak.sum()) * h_strong)
    if weak.size:
        argument -= np.sum((np.exp2(weak) - 1.0) * h[:-1] / (np.exp2(tail) * h_strong))
    return float(bandwidth * np.log2(argument) + bandwidth * weak.sum())
