"""Shared random-instance samplers for the test suite.

Instances are drawn with bounded cross-to-own gain ratios so that the
interference fixed point exists well inside the budgets of
:func:`budgets_for`.
"""

import numpy as np

from nomapower import NetworkTopology, RateDemands


def sample_topology(rng, num_cells=2, num_subchannels=1, users=2,
                    noise=(0.05, 0.15), own=(0.5, 2.0),
                    cross_ratio=(0.02, 0.15), bandwidth=1.0):
    """Random multi-cell topology with mild inter-cell coupling."""
    groups = []
    for i in range(num_cells):
        row = []
        for _ in range(num_subchannels):
            n = users if isinstance(users, int) else int(rng.integers(*users))
            g = np.empty((num_cells, n))
            g[i] = np.sort(rng.uniform(*own, size=n))
            for k in range(num_cells):
                if k != i:
                    g[k] = g[i] * rng.uniform(*cross_ratio, size=n)
            row.append(g)
        groups.append(tuple(row))
    return NetworkTopology(bandwidth=bandwidth,
                           noise_power=float(rng.uniform(*noise)),
                           gains=tuple(groups))


def budgets_for(topology, budget=3.0):
    """The same per-BS budget ``budget`` for every cell of ``topology``."""
    return np.full(topology.num_cells, float(budget))


def sample_demands(rng, topology, rate=(0.3, 1.2)):
    """Random per-user demands within the given range."""
    rates = tuple(
        tuple(rng.uniform(*rate, size=topology.occupied[i, m].sum())
              for m in range(topology.num_subchannels))
        for i in range(topology.num_cells))
    return RateDemands(rates)


def sample_group(rng, users=(2, 4), h_range=(0.3, 3.0), rate=(0.2, 1.2)):
    """Random (demands, interference) pair for one group, H sorted."""
    n = int(rng.integers(users[0], users[1] + 1))
    h = np.sort(rng.uniform(*h_range, size=n))[::-1]
    demands = rng.uniform(*rate, size=n)
    return demands, h
