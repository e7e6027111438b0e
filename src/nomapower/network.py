"""Downlink multi-cell NOMA system model.

Topology, channel data, effective interference and achievable rates.
Conventions used throughout the package:

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


def front_pad(nested, dtype=float):
    """Per-group arrays ``nested[i][m]``, users along their last axis, as
    one (I, M, ..., n_max) array front-padded with zeros to the largest
    group; returns it and the (I, M, n_max) mask of the users' slots."""
    shape = (len(nested), len(nested[0]) if len(nested) else 0)
    if any(len(row) != shape[1] for row in nested):
        raise ValueError("every cell must cover the same subchannels")
    groups = [np.asarray(v, dtype=dtype) for row in nested for v in row]
    sizes = np.array([g.shape[-1] for g in groups], dtype=int).reshape(shape)
    n_max = int(sizes.max(initial=0))
    lead = groups[0].shape[:-1] if groups else ()
    out = np.zeros((len(groups),) + lead + (n_max,), dtype=dtype)
    for row, g in zip(out, groups):
        row[..., n_max - g.shape[-1]:] = g
    return out.reshape(shape + out.shape[1:]), np.arange(n_max) >= n_max - sizes[..., None]


def unpad(padded: np.ndarray, occupied: np.ndarray) -> tuple:
    """Per-group views ``[i][m]`` of an array front-padded along its last axis."""
    n_max = occupied.shape[-1]
    return tuple(
        tuple(padded[i, m, ..., n_max - n:] for m, n in enumerate(row))
        for i, row in enumerate(occupied.sum(axis=-1).tolist()))


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
        budgets = np.array(self.budgets, dtype=float)
        if budgets.ndim != 1 or (budgets <= 0).any():
            raise ValueError("budgets must be a 1-D positive array")
        num_cells = budgets.size
        if len(self.gains) != num_cells:
            raise ValueError("gains must hold one row of groups per cell")
        for i, per_cell in enumerate(self.gains):
            for m, g in enumerate(per_cell):
                if np.ndim(g) != 2 or np.shape(g)[0] != num_cells:
                    raise ValueError(
                        f"group ({i},{m}): gains must be (num_cells, n_users)")

        gains, occupied = front_pad(self.gains)
        per_slot = gains.swapaxes(2, 3)                 # gains, BS last
        shape = occupied.shape
        n_max = shape[-1]
        if self.user_ids is None:
            ids = np.zeros(shape, dtype=int)
            ids[occupied] = np.arange(occupied.sum())
        else:
            ids, given = front_pad(self.user_ids, dtype=int)
            short = given.sum(axis=-1) != occupied.sum(axis=-1)
            if short.any():
                i, m = np.argwhere(short)[0]
                raise ValueError(f"group ({i},{m}): user id count mismatch")

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
        slot = order + n_max * np.arange(shape[0] * shape[1]).reshape(shape[:2] + (1,))
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
        for i, row in enumerate(nested):
            if len(row) != self.num_subchannels:
                raise ValueError(f"cell {i}: values must hold one group per subchannel")
            for m, v in enumerate(row):
                if np.shape(v) != (sizes[i][m],):
                    raise ValueError(
                        f"group ({i},{m}): values do not match the group size")
        return front_pad(nested)[0]

    def unpad(self, dense: np.ndarray) -> tuple:
        """Per-group views into a front-padded array, padded along its last axis."""
        return unpad(dense, self.occupied)


def _store(container, name: str, what: str):
    """Keep a container's input, the padded array or nested groups, as one
    read-only array ``padded`` with per-group views ``name``.  Every user's
    value must be positive, so the users' slots are the positive ones."""
    values = getattr(container, name)
    if isinstance(values, np.ndarray):
        padded = np.array(values, dtype=float)
        n_max = padded.shape[-1]
        occupied = np.arange(n_max) >= n_max - (padded > 0).sum(axis=-1, keepdims=True)
    else:
        padded, occupied = front_pad(values)
    if not np.array_equal(np.sign(padded), occupied):
        raise ValueError(f"{what} must be positive")
    padded.flags.writeable = False
    object.__setattr__(container, "padded", padded)
    object.__setattr__(container, name, unpad(padded, occupied))


@dataclass(frozen=True)
class RateDemands:
    """Minimum rate demand (bit/s) per user, aligned with topology order.

    Stored as one read-only (I, M, n_max) array ``padded``, front-padded
    like the topology with 0 in padding, that the constructor takes as is
    or from nested per-group arrays; ``rates[i][m]`` are views of it.
    """

    rates: tuple
    padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _store(self, "rates", "rate demands")

    @classmethod
    def uniform(cls, topology: NetworkTopology, rate: float) -> "RateDemands":
        return cls(np.where(topology.occupied, float(rate), 0.0))

    def padded_for(self, topology: NetworkTopology) -> np.ndarray:
        """``padded``, once checked to hold one demand per user of ``topology``."""
        if not np.array_equal(self.padded > 0, topology.occupied):
            raise ValueError("rate demands must be positive, one per user of the topology")
        return self.padded


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers (W), aligned with topology order and stored
    like :class:`RateDemands`: ``padded`` with views ``powers[i][m]``."""

    powers: tuple
    padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _store(self, "powers", "powers")

    def cell_powers(self) -> np.ndarray:
        """Group totals as an (I, M) array."""
        return self.padded.sum(axis=-1)


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
    return group_rates(allocation.padded, dense_interference(topology, q),
                       topology.bandwidth)


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
