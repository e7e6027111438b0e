"""Downlink multi-cell NOMA system model.

Topology, channel data, effective interference, achievable rates and
rate-demand checks.  Conventions used throughout the package:

* channel gains are linear power gains (|h|^2); dB quantities are
  converted before construction,
* users inside a (cell, subchannel) group are sorted by own-cell gain,
  ascending, so index 0 is the weakest user and index -1 the strongest,
* ``q`` is always an (I, M) array of per-BS per-subchannel total powers
  in watts.

All containers are immutable after construction; every operation here is
a pure function, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LN2 = np.log(2.0)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NetworkTopology:
    """Static description of the network.

    ``gains[i][m]`` is an (I, n) array for the group served by BS ``i`` on
    subchannel ``m`` with ``n`` users: entry ``[k, j]`` is the linear power
    gain from BS ``k`` to user ``j`` of that group.  Row ``i`` holds the
    own-cell gains and is non-decreasing (users sorted at construction).

    ``user_ids[i][m]`` carries the caller's user identifiers in the sorted
    order, for traceability.

    A dense view of the same gains is built once at construction, with
    every group front-padded to ``n_max`` users (padding first, real users
    in sorted order last):

    * ``cross_ratio`` is (I, M, n_max, I): entry ``[i, m, s, k]`` is the
      gain from BS ``k`` over the own gain at slot ``s`` of group (i, m),
      with the own-cell entry ``k == i`` set to 0;
    * ``noise_ratio`` is (I, M, n_max): noise power over own gain.

    Padded slots hold 0 in both, and padded users carry zero demand
    weight and zero power, so they change no sum.  :meth:`pad` and
    :meth:`unpad` convert between nested per-group arrays and this layout.
    """

    bandwidth: float
    noise_power: float
    budgets: np.ndarray
    gains: tuple
    user_ids: tuple = field(default=None)
    cross_ratio: np.ndarray = field(init=False, repr=False, compare=False)
    noise_ratio: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        budgets = _freeze(self.budgets)
        if budgets.ndim != 1 or np.any(budgets <= 0):
            raise ValueError("budgets must be a 1-D positive array")
        num_cells = budgets.size

        sorted_gains = []
        sorted_ids = []
        next_id = 0
        seen = set()
        for i, per_cell in enumerate(self.gains):
            if len(per_cell) != len(self.gains[0]):
                raise ValueError("every cell must cover the same subchannels")
            row_gains = []
            row_ids = []
            for m, g in enumerate(per_cell):
                g = np.asarray(g, dtype=float)
                if g.ndim != 2 or g.shape[0] != num_cells:
                    raise ValueError(
                        f"group ({i},{m}): gains must be (num_cells, n_users)")
                if np.any(g[i] <= 0):
                    raise ValueError(f"group ({i},{m}): own gains must be > 0")
                if np.any(g < 0):
                    raise ValueError(f"group ({i},{m}): gains must be >= 0")
                if self.user_ids is not None:
                    ids = np.asarray(self.user_ids[i][m])
                else:
                    ids = np.arange(next_id, next_id + g.shape[1])
                    next_id += g.shape[1]
                if ids.size != g.shape[1]:
                    raise ValueError(f"group ({i},{m}): user id count mismatch")
                for u in ids.tolist():
                    if u in seen:
                        raise ValueError(f"user {u} appears in two groups")
                    seen.add(u)
                # ascending own gain; ties keep the original user order
                order = np.argsort(g[i], kind="stable")
                row_gains.append(_freeze(g[:, order]))
                row_ids.append(_freeze(ids[order]).astype(int))
            sorted_gains.append(tuple(row_gains))
            sorted_ids.append(tuple(row_ids))

        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "gains", tuple(sorted_gains))
        object.__setattr__(self, "user_ids", tuple(sorted_ids))

        n_max = max((g.shape[1] for row in sorted_gains for g in row), default=0)
        shape = (num_cells, len(sorted_gains[0]), n_max)
        cross = np.zeros(shape + (num_cells,))
        noise = np.zeros(shape)
        for i, row in enumerate(sorted_gains):
            for m, g in enumerate(row):
                start = n_max - g.shape[1]
                cross[i, m, start:] = (g / g[i]).T
                cross[i, m, start:, i] = 0.0
                noise[i, m, start:] = self.noise_power / g[i]
        object.__setattr__(self, "cross_ratio", _freeze(cross))
        object.__setattr__(self, "noise_ratio", _freeze(noise))

    @property
    def num_cells(self) -> int:
        return self.budgets.size

    @property
    def num_subchannels(self) -> int:
        return len(self.gains[0])

    def group_size(self, i: int, m: int) -> int:
        return self.gains[i][m].shape[1]

    def own_gains(self, i: int, m: int) -> np.ndarray:
        return self.gains[i][m][i]

    @property
    def max_group_size(self) -> int:
        return self.noise_ratio.shape[-1]

    def groups(self):
        """Iterate over all (cell, subchannel) pairs."""
        for i in range(self.num_cells):
            for m in range(self.num_subchannels):
                yield i, m

    def pad(self, nested) -> np.ndarray:
        """Front-padded (I, M, n_max) array of per-group values, 0 in padding."""
        out = np.zeros(self.noise_ratio.shape)
        n_max = self.max_group_size
        for i, m in self.groups():
            v = np.asarray(nested[i][m], dtype=float)
            if v.shape != (self.group_size(i, m),):
                raise ValueError(f"group ({i},{m}): values do not match the group size")
            out[i, m, n_max - v.size:] = v
        return out

    def unpad(self, dense: np.ndarray) -> tuple:
        """Per-group views into a front-padded (I, M, n_max) array."""
        n_max = self.max_group_size
        return tuple(
            tuple(dense[i, m, n_max - self.group_size(i, m):]
                  for m in range(self.num_subchannels))
            for i in range(self.num_cells))


@dataclass(frozen=True)
class RateDemands:
    """Minimum rate demand (bit/s) per user, aligned with topology order."""

    rates: tuple

    def __post_init__(self):
        frozen = tuple(
            tuple(_freeze(r) for r in per_cell) for per_cell in self.rates)
        for per_cell in frozen:
            for r in per_cell:
                if np.any(r <= 0):
                    raise ValueError("rate demands must be positive")
        object.__setattr__(self, "rates", frozen)

    @classmethod
    def uniform(cls, topology: NetworkTopology, rate: float) -> "RateDemands":
        return cls(tuple(
            tuple(np.full(topology.group_size(i, m), float(rate))
                  for m in range(topology.num_subchannels))
            for i in range(topology.num_cells)))

    @classmethod
    def by_user(cls, topology: NetworkTopology, table: dict) -> "RateDemands":
        """Build from a {user_id: rate} mapping covering every user."""
        return cls(tuple(
            tuple(np.array([table[u] for u in topology.user_ids[i][m]], dtype=float)
                  for m in range(topology.num_subchannels))
            for i in range(topology.num_cells)))


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers (W), aligned with topology order."""

    powers: tuple

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(
            tuple(_freeze(p) for p in per_cell) for per_cell in self.powers))

    def cell_powers(self) -> np.ndarray:
        """Group totals as an (I, M) array."""
        return np.array([[p.sum() for p in per_cell] for per_cell in self.powers])

    def consistent_with(self, q: np.ndarray, rtol: float = 1e-9) -> bool:
        totals = self.cell_powers()
        return bool(np.all(np.abs(totals - q) <= rtol * np.maximum(np.abs(q), 1e-300)))


def normalized_interference(topology: NetworkTopology, q: np.ndarray,
                            cell: int | None = None) -> np.ndarray:
    """Inter-cell interference plus noise at every user over its own gain.

    Front-padded like the topology: (I, M, n_max) for the whole network,
    or (M, n_max) for one ``cell``; padded slots hold 0.
    """
    ratio, noise = topology.cross_ratio, topology.noise_ratio
    if cell is not None:
        ratio, noise = ratio[cell], noise[cell]
    return np.einsum("...msk,km->...ms", ratio, np.asarray(q, dtype=float)) + noise


def dense_interference(topology: NetworkTopology, q: np.ndarray,
                       cell: int | None = None) -> np.ndarray:
    """Effective interference of every user, front-padded like the topology.

    (I, M, n_max) for the whole network, or (M, n_max) for one ``cell``.
    Entry ``[i, m, j]`` is the worst case, over the users that must decode
    user j (j itself and every stronger user), of
    :func:`normalized_interference`.  Padded slots repeat the weakest real
    user's value.
    """
    z = normalized_interference(topology, q, cell)
    return np.maximum.accumulate(z[..., ::-1], axis=-1)[..., ::-1]


def dense_rates(topology: NetworkTopology, allocation: PowerAllocation,
                q: np.ndarray) -> np.ndarray:
    """Achievable rate of every user, front-padded (I, M, n_max); 0 in padding."""
    return group_rates(topology.pad(allocation.powers),
                       dense_interference(topology, q), topology.bandwidth)


def effective_interference(topology: NetworkTopology, q: np.ndarray,
                           i: int, m: int, j: int | None = None):
    """Worst-case normalized interference-plus-noise for SIC decoding.

    For user ``j`` this is the maximum, over users ``l >= j`` that must
    decode ``j``'s message, of (inter-cell interference at ``l`` + noise)
    divided by ``l``'s own gain.  Returns the whole group as an array when
    ``j`` is None.  One group of :func:`dense_interference`.
    """
    n = topology.group_size(i, m)
    h = dense_interference(topology, q, i)[m, topology.max_group_size - n:]
    return h if j is None else h[j]


def achievable_rate(topology: NetworkTopology, allocation: PowerAllocation,
                    q: np.ndarray, i: int, m: int, j: int | None = None):
    """Achievable rate (bit/s) of group (i, m) users under SIC decoding."""
    p = allocation.powers[i][m]
    h = effective_interference(topology, q, i, m)
    rates = group_rates(p, h, topology.bandwidth)
    return rates if j is None else rates[j]


def group_rates(p: np.ndarray, h: np.ndarray, bandwidth: float) -> np.ndarray:
    """Rates for one group given its powers and effective interference.

    Users run along the last axis, so front-padded (I, M, n_max) arrays
    give every group at once; a padded slot with zero power has rate 0.
    """
    p = np.asarray(p, dtype=float)
    tail = suffix_sums(p)
    return bandwidth * np.log1p(p / (tail + h)) / LN2


def suffix_sums(p: np.ndarray) -> np.ndarray:
    """suffix_sums(p)[..., j] = sum of p[..., j+1:], along the last axis."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    out[..., :-1] = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return out


def rate_constraint_slack(p: np.ndarray, h: np.ndarray, demands: np.ndarray,
                          bandwidth: float) -> np.ndarray:
    """Signed slack (W) of the linearized rate constraint for one group.

    Positive where p_j >= (2^(R_j/B) - 1) * (sum of later powers + H_j).
    """
    growth = np.exp2(np.asarray(demands, dtype=float) / bandwidth) - 1.0
    return np.asarray(p, dtype=float) - growth * (suffix_sums(np.asarray(p, dtype=float)) + h)


def check_rate_constraints(topology: NetworkTopology, allocation: PowerAllocation,
                           q: np.ndarray, demands: RateDemands):
    """Per-user demand check across the network.

    Returns (satisfied, slack) with the same nested (cell, subchannel)
    layout as the allocation; slack is in watts.
    """
    profile = topology.unpad(dense_interference(topology, q))
    satisfied = []
    slack = []
    for i in range(topology.num_cells):
        ok_row, sl_row = [], []
        for m in range(topology.num_subchannels):
            h = profile[i][m]
            s = rate_constraint_slack(allocation.powers[i][m], h,
                                      demands.rates[i][m], topology.bandwidth)
            sl_row.append(s)
            ok_row.append(s >= -1e-12 * np.maximum(np.abs(allocation.powers[i][m]), 1.0))
        satisfied.append(tuple(ok_row))
        slack.append(tuple(sl_row))
    return tuple(satisfied), tuple(slack)
