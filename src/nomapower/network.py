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
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NetworkTopology:
    """Static description of the network.

    The gains live in front-padded arrays, built and validated once at
    construction: every (cell, subchannel) group is padded to ``n_max``
    users, padding first, then the real users in ascending own-cell gain
    (ties keep the input order).

    * ``dense_gains`` is (I, M, I, n_max): entry ``[i, m, k, s]`` is the
      linear power gain from BS ``k`` to the user at slot ``s`` of the
      group served by BS ``i`` on subchannel ``m``;
    * ``dense_ids`` is (I, M, n_max): the caller's user identifiers in the
      same order (consecutive integers in input order when none are given);
    * ``occupied`` is (I, M, n_max) and True at the real users' slots;
    * ``cross_ratio`` is (I, M, n_max, I): entry ``[i, m, s, k]`` is the
      gain from BS ``k`` over the own gain at slot ``s``, with the
      own-cell entry ``k == i`` set to 0;
    * ``noise_ratio`` is (I, M, n_max): noise power over own gain.

    Padded slots hold 0 in all of them, and padded users carry zero demand
    weight and zero power, so they change no sum.

    The constructor takes the groups nested: ``gains[i][m]`` is an (I, n)
    array for a group of ``n`` users, entry ``[k, j]`` the gain from BS
    ``k`` to user ``j``, and ``user_ids[i][m]`` holds the group's
    identifiers.  After construction both are read-only views of the
    sorted dense arrays, so row ``i`` of ``gains[i][m]`` is
    non-decreasing.  :meth:`pad` and :meth:`unpad` convert between nested
    per-group arrays and the padded layout.
    """

    bandwidth: float
    noise_power: float
    budgets: np.ndarray
    gains: tuple
    user_ids: tuple = field(default=None)
    dense_gains: np.ndarray = field(init=False, repr=False, compare=False)
    dense_ids: np.ndarray = field(init=False, repr=False, compare=False)
    occupied: np.ndarray = field(init=False, repr=False, compare=False)
    cross_ratio: np.ndarray = field(init=False, repr=False, compare=False)
    noise_ratio: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        budgets = _freeze(self.budgets)
        if budgets.ndim != 1 or (budgets <= 0).any():
            raise ValueError("budgets must be a 1-D positive array")
        num_cells = budgets.size
        if len(self.gains) != num_cells:
            raise ValueError("gains must hold one row of groups per cell")

        groups = []
        for i, per_cell in enumerate(self.gains):
            if len(per_cell) != len(self.gains[0]):
                raise ValueError("every cell must cover the same subchannels")
            for m, g in enumerate(per_cell):
                g = np.asarray(g, dtype=float)
                if g.ndim != 2 or g.shape[0] != num_cells:
                    raise ValueError(
                        f"group ({i},{m}): gains must be (num_cells, n_users)")
                groups.append(g)
        sizes = np.array([g.shape[1] for g in groups], dtype=int)
        n_max = int(sizes.max(initial=0))
        shape = (num_cells, len(self.gains[0]), n_max)
        occupied = np.arange(n_max) >= n_max - sizes.reshape(shape[:2] + (1,))
        per_slot = np.zeros(shape + (num_cells,))      # gains, BS last
        for row, g in zip(per_slot.reshape(len(groups), n_max, num_cells), groups):
            row[n_max - g.shape[1]:] = g.T
        ids = np.zeros(shape, dtype=int)
        if self.user_ids is None:
            ids[occupied] = np.arange(sizes.sum())
        else:
            for (i, m), row, n in zip(np.ndindex(shape[:2]),
                                      ids.reshape(len(groups), n_max), sizes):
                given = np.asarray(self.user_ids[i][m])
                if given.size != n:
                    raise ValueError(f"group ({i},{m}): user id count mismatch")
                row[n_max - n:] = given

        cells = np.arange(num_cells)
        own = per_slot[cells, :, :, cells]                  # (I, M, n_max)
        own_bad = (occupied & (own <= 0)).any(axis=-1)
        bad = own_bad | (per_slot < 0).any(axis=(2, 3))
        if bad.any():
            i, m = np.argwhere(bad)[0]
            rule = "own gains must be > 0" if own_bad[i, m] else "gains must be >= 0"
            raise ValueError(f"group ({i},{m}): {rule}")
        real = ids[occupied]
        ranked = np.sort(real)
        if (ranked[1:] == ranked[:-1]).any():
            repeated = np.ones(real.size, dtype=bool)
            repeated[np.unique(real, return_index=True)[1]] = False
            raise ValueError(f"user {real[repeated][0]} appears in two groups")

        # ascending own gain; ties keep the input order and the padding
        # (own gain 0) stays in front.  ``slot`` numbers the slots of all
        # groups in a row, so one fancy index sorts each array.
        order = np.argsort(own, axis=-1, kind="stable")
        slot = order + n_max * np.arange(len(groups)).reshape(shape[:2] + (1,))
        per_slot = per_slot.reshape(-1, num_cells)[slot]
        gains = np.ascontiguousarray(per_slot.swapaxes(2, 3))
        ids = ids.ravel()[slot]
        own = np.where(occupied, own.ravel()[slot], np.inf)
        cross = per_slot / own[..., None]
        cross[cells, :, :, cells] = 0.0
        for name, value in (("budgets", budgets), ("dense_gains", gains),
                            ("dense_ids", ids), ("occupied", occupied),
                            ("cross_ratio", cross),
                            ("noise_ratio", self.noise_power / own)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gains", self.unpad(gains))
        object.__setattr__(self, "user_ids", self.unpad(ids))

    @property
    def num_cells(self) -> int:
        return self.budgets.size

    @property
    def num_subchannels(self) -> int:
        return self.occupied.shape[1]

    def group_size(self, i: int, m: int) -> int:
        return self.gains[i][m].shape[1]

    def own_gains(self, i: int, m: int) -> np.ndarray:
        return self.gains[i][m][i]

    @property
    def max_group_size(self) -> int:
        return self.occupied.shape[-1]

    def groups(self):
        """Iterate over all (cell, subchannel) pairs."""
        for i in range(self.num_cells):
            for m in range(self.num_subchannels):
                yield i, m

    def pad(self, nested) -> np.ndarray:
        """Front-padded (I, M, n_max) array of per-group values, 0 in padding."""
        if len(nested) != self.num_cells:
            raise ValueError("values must hold one row of groups per cell")
        sizes = self.occupied.sum(axis=-1).tolist()
        n_max = self.max_group_size
        out = np.zeros(self.occupied.shape)
        for i, row in enumerate(nested):
            if len(row) != self.num_subchannels:
                raise ValueError(f"cell {i}: values must hold one group per subchannel")
            for m, v in enumerate(row):
                v = np.asarray(v, dtype=float)
                if v.shape != (sizes[i][m],):
                    raise ValueError(
                        f"group ({i},{m}): values do not match the group size")
                out[i, m, n_max - v.size:] = v
        return out

    def unpad(self, dense: np.ndarray) -> tuple:
        """Per-group views into a front-padded array, padded along its last axis."""
        n_max = self.max_group_size
        return tuple(
            tuple(dense[i, m, ..., n_max - n:] for m, n in enumerate(row))
            for i, row in enumerate(self.occupied.sum(axis=-1).tolist()))


@dataclass(frozen=True)
class RateDemands:
    """Minimum rate demand (bit/s) per user, aligned with topology order."""

    rates: tuple

    def __post_init__(self):
        frozen = tuple(
            tuple(_freeze(r) for r in per_cell) for per_cell in self.rates)
        values = [r for per_cell in frozen for r in per_cell]
        if values and np.any(np.concatenate(values, axis=None) <= 0):
            raise ValueError("rate demands must be positive")
        object.__setattr__(self, "rates", frozen)

    @classmethod
    def uniform(cls, topology: NetworkTopology, rate: float) -> "RateDemands":
        return cls(topology.unpad(np.full(topology.occupied.shape, float(rate))))

    @classmethod
    def by_user(cls, topology: NetworkTopology, table: dict) -> "RateDemands":
        """Build from a {user_id: rate} mapping covering every user."""
        rates = np.zeros(topology.occupied.shape)
        rates[topology.occupied] = [
            table[u] for u in topology.dense_ids[topology.occupied].tolist()]
        return cls(topology.unpad(rates))


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
