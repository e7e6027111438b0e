"""Built-in analytic fixtures with hand-solvable optima.

Each returns ``(topology, demands, budgets)``; used by the CLI's
--fixtures self-check and by the test suite.
"""

from __future__ import annotations

import numpy as np

from .network import NetworkTopology, RateDemands

# symmetric two-cell instance: both cells see own gains (0.5, 1.0), cross
# gains (0.1, 0.2) and noise 0.1, demands 1 bit/s at B = 1 Hz.  The
# interference map reduces to the scalar equation q = 0.6 q + 0.4, so the
# fixed point is q = 1 per cell (sum power 2) with per-user powers (0.7, 0.3).
SYMMETRIC_TWO_CELL_SUM_POWER = 2.0
SYMMETRIC_TWO_CELL_USER_POWERS = (0.7, 0.3)


def symmetric_two_cell():
    group0 = np.array([[0.5, 1.0],
                       [0.1, 0.2]])
    group1 = np.array([[0.1, 0.2],
                       [0.5, 1.0]])
    topology = NetworkTopology(bandwidth=1.0, noise_power=0.1,
                               gains=((group0,), (group1,)))
    return topology, RateDemands.uniform(topology, 1.0), np.array([5.0, 5.0])


# single-cell group with effective interference (2, 1): own gains (1, 2)
# under noise power 2.  With demands (1, 1) and a budget of 10 the optimal
# sum rate is 1 + log2(5): the weak user is pinned at rate 1 via p = 6 and
# the strong user takes the remaining 4 W at interference 1.
RATE_MAX_SINGLE_CELL_SUM_RATE = 1.0 + np.log2(5.0)
RATE_MAX_SINGLE_CELL_POWERS = (6.0, 4.0)


def rate_max_single_cell():
    group = np.array([[1.0, 2.0]])
    topology = NetworkTopology(bandwidth=1.0, noise_power=2.0, gains=((group,),))
    return topology, RateDemands.uniform(topology, 1.0), np.array([10.0])
