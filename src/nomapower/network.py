"""Downlink multi-cell NOMA system model.

Topology, channel data, effective interference and achievable rates.
Conventions used throughout the package:

* channel gains are linear power gains (|h|^2); dB quantities are
  converted before construction,
* users inside a (cell, subchannel) group are sorted by own-cell gain,
  ascending, so index 0 is the weakest user and index -1 the strongest,
* ``q`` is always an (I, M) array of per-BS per-subchannel total powers
  in watts.

Each container holds every quantity as one read-only array, front-padded
along the users' axis (:func:`front_pad`); :func:`unpad` gives its
per-group slices.  All containers are immutable after construction; every
operation here is a pure function, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LN2 = np.log(2.0)


def front_pad(nested, lead=(), dtype=float):
    """Per-group arrays ``nested[i][m]`` of shape ``lead + (n,)``, users
    along the last axis, as one (I, M) + lead + (n_max,) array front-padded
    with zeros to the largest group; returns it and the (I, M, n_max) mask
    of the users' slots.  A group of any other shape raises ValueError
    naming it."""
    shape = (len(nested), len(nested[0]) if len(nested) else 0)
    if any(len(row) != shape[1] for row in nested):
        raise ValueError("every cell must cover the same subchannels")
    groups = [np.asarray(v, dtype=dtype) for row in nested for v in row]
    for k, g in enumerate(groups):
        if g.shape[:-1] != lead or g.ndim != len(lead) + 1:
            i, m = divmod(k, shape[1])
            want = ", ".join(map(str, lead + ("n",)))
            raise ValueError(f"group ({i},{m}): values of shape {g.shape}, want ({want})")
    sizes = np.array([g.shape[-1] for g in groups], dtype=int).reshape(shape)
    n_max = int(sizes.max(initial=0))
    out = np.zeros((len(groups),) + lead + (n_max,), dtype=dtype)
    for row, g in zip(out, groups):
        row[..., n_max - g.shape[-1]:] = g
    return out.reshape(shape + out.shape[1:]), np.arange(n_max) >= n_max - sizes[..., None]


def unpad(padded: np.ndarray, occupied: np.ndarray) -> tuple:
    """Per-group views ``[i][m]`` of an array front-padded along its last
    axis, each holding only the real users that the mask ``occupied``
    marks."""
    n_max = occupied.shape[-1]
    return tuple(
        tuple(padded[i, m, ..., n_max - n:] for m, n in enumerate(row))
        for i, row in enumerate(occupied.sum(axis=-1).tolist()))


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Static description of the network.

    Every quantity is one read-only front-padded array, built and
    validated once at construction: every (cell, subchannel) group is
    padded to ``n_max`` users, padding first, then the real users in
    ascending own-cell gain (ties keep the input order).

    * ``gains`` is (I, M, I, n_max): entry ``[i, m, k, s]`` is the linear
      power gain from BS ``k`` to the user at slot ``s`` of the group
      served by BS ``i`` on subchannel ``m``, so row ``i`` of
      ``gains[i, m]`` is non-decreasing;
    * ``user_ids`` is (I, M, n_max): the caller's user identifiers in the
      same order (consecutive integers in input order when none are given);
    * ``occupied`` is (I, M, n_max) and True at the real users' slots;
    * ``cross_ratio`` is (I, M, n_max, I): entry ``[i, m, s, k]`` is the
      gain from BS ``k`` over the own gain at slot ``s``, with the
      own-cell entry ``k == i`` set to 0;
    * ``noise_ratio`` is (I, M, n_max): noise power over own gain.

    Padded slots hold 0 in all of them, and padded users carry zero demand
    weight and zero power, so they change no sum.

    The constructor takes the gains in either layout.  Padded, ``gains``
    is an (I, M, I, n_max) array laid out as above but in any order within
    a group: the real users are the slots with a positive own gain,
    padding comes first and holds zero gains; ``user_ids`` is then an
    (I, M, n_max) array whose padded slots are ignored.  Nested,
    ``gains[i][m]`` is an (I, n) array for a group of ``n`` users, entry
    ``[k, j]`` the gain from BS ``k`` to user ``j``, and ``user_ids[i][m]``
    holds the group's identifiers; :func:`front_pad` checks each group's
    shape and pads them once, and the same checks and sort follow.  Input
    whose own gains are all positive holds no padding, as every drop
    built from a config: it skips the padding rules, which have nothing
    to check there, and keeps the checks on signs, ids and order.  Every
    gain must be finite.  The sorted arrays passed back to the
    constructor build the same topology.  The gains' BS axis counts the
    cells; the per-BS budgets are no part of the network, and every
    function that reads them takes them.

    ``==`` compares identity, as for the other containers here: two
    topologies are equal only when they are one object, and their arrays
    compare with ``np.array_equal``.
    """

    bandwidth: float
    noise_power: float
    gains: np.ndarray
    user_ids: np.ndarray | None = None
    occupied: np.ndarray = field(init=False, repr=False)
    cross_ratio: np.ndarray = field(init=False, repr=False)
    noise_ratio: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not 0 < self.noise_power < np.inf:
            raise ValueError("noise power must be positive and finite")
        gains, occupied = self.gains, None
        if isinstance(gains, np.ndarray):
            gains = np.asarray(gains, dtype=float)
            if gains.ndim != 4 or gains.shape[0] != gains.shape[2]:
                raise ValueError("padded gains must be (num_cells, num_subchannels,"
                                 " num_cells, n_max)")
        else:
            num_cells = len(gains)          # one row of groups per cell, each (I, n)
            if num_cells and len(gains[0]) and np.shape(gains[0][0])[:1] != (num_cells,):
                raise ValueError("gains must hold one row of groups per cell")
            gains, occupied = front_pad(gains, lead=(num_cells,))
        num_cells, n_max = gains.shape[0], gains.shape[-1]
        cells = np.arange(num_cells)
        own = gains[cells, :, cells]                        # (I, M, n_max)
        # padding holds a zero own gain, so input with every own gain
        # positive has none: every slot holds a user
        positive = own > 0
        full = bool(positive.all())
        if full:
            occupied = np.ones(own.shape, dtype=bool)
        elif occupied is None:
            occupied = np.arange(n_max) >= n_max - positive.sum(axis=-1, keepdims=True)

        per_slot = gains.swapaxes(2, 3)                 # gains, BS last
        shape = occupied.shape
        ids = self.user_ids
        if ids is None:
            ids = np.zeros(shape, dtype=int)
            ids[occupied] = np.arange(occupied.sum())
        elif not isinstance(ids, np.ndarray):
            ids, given = front_pad(ids, dtype=int)
            if given.shape[:2] != shape[:2]:
                raise ValueError("user ids nested over {} x {} (cell, subchannel)"
                                 " groups, gains over {} x {}".format(
                                     *given.shape[:2], *shape[:2]))
            short = given.sum(axis=-1) != occupied.sum(axis=-1)
            if short.any():
                i, m = np.argwhere(short)[0]
                raise ValueError(f"group ({i},{m}): user id count mismatch")
        if np.shape(ids) != shape:
            raise ValueError("user ids must be (num_cells, num_subchannels, n_max)"
                             " like the gains")
        ids = np.array(ids, dtype=int) if full else \
            np.where(occupied, np.asarray(ids, dtype=int), 0)

        # one masked pass: a user's gains are finite and >= 0, a padded
        # slot's are 0, and the users are the slots with a positive own
        # gain; NaN fails (the least and the largest gain propagate it).
        # Without padding only the first rule has anything to check
        checked = per_slot if full else \
            np.where(occupied[..., None], per_slot, -np.abs(per_slot))
        valid = np.minimum.reduce(checked, axis=None, initial=0.0) >= 0 \
            and np.maximum.reduce(checked, axis=None, initial=0.0) < np.inf \
            and (full or (positive == occupied).all())
        if not valid:
            own_bad = (occupied & ~positive).any(axis=-1)
            pad_bad = (~occupied[..., None] & (per_slot != 0)).any(axis=(2, 3))
            infinite = (per_slot == np.inf).any(axis=(2, 3))
            bad = own_bad | pad_bad | infinite | ~(per_slot >= 0).all(axis=(2, 3))
            i, m = np.argwhere(bad)[0]
            rule = ("own gains must be > 0" if own_bad[i, m] else
                    "padding must come first and hold zero gains" if pad_bad[i, m]
                    else "gains must be finite" if infinite[i, m]
                    else "gains must be >= 0")
            raise ValueError(f"group ({i},{m}): {rule}")
        real = ids.ravel() if full else ids[occupied]
        ranked = np.sort(real)
        if (ranked[1:] == ranked[:-1]).any():
            repeated = np.ones(real.size, dtype=bool)
            repeated[np.unique(real, return_index=True)[1]] = False
            raise ValueError(f"user {real[repeated][0]} appears in two groups")

        # ascending own gain; ties keep the input order and the padding
        # (own gain 0) stays in front.  Groups that come sorted, as
        # generate_channels gives them, keep their order; otherwise
        # ``slot`` numbers the slots of all groups in a row, so one fancy
        # index sorts each array.
        if (own[..., :-1] <= own[..., 1:]).all():
            per_slot = np.ascontiguousarray(per_slot)
        else:
            order = np.argsort(own, axis=-1, kind="stable")
            slot = order + n_max * np.arange(shape[0] * shape[1]).reshape(
                shape[:2] + (1,))
            per_slot = per_slot.reshape(-1, num_cells)[slot]
            ids = ids.ravel()[slot]
            own = own.ravel()[slot]
        gains = np.array(per_slot.swapaxes(2, 3), order="C")
        if not full:
            own = np.where(occupied, own, np.inf)
        cross = per_slot / own[..., None]
        cross[cells, :, :, cells] = 0.0
        for name, value in (("gains", gains), ("user_ids", ids), ("occupied", occupied),
                            ("cross_ratio", cross),
                            ("noise_ratio", self.noise_power / own)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def num_cells(self) -> int:
        return self.occupied.shape[0]

    @property
    def num_subchannels(self) -> int:
        return self.occupied.shape[1]

    @property
    def max_group_size(self) -> int:
        return self.occupied.shape[-1]

    def groups(self):
        """Iterate over all (cell, subchannel) pairs."""
        for i in range(self.num_cells):
            for m in range(self.num_subchannels):
                yield i, m


def _store(container, name: str, what: str):
    """Keep a container's input, a front-padded (I, M, n_max) array or
    nested groups, as one read-only front-padded array ``name``; an array
    of another rank raises ValueError.  Every user's value must be
    positive, so the users' slots are the positive ones.  An array whose
    values are all positive holds no padding and is checked by that one
    test; the signs are compared with the users' slots only where there
    is padding."""
    values = getattr(container, name)
    if isinstance(values, np.ndarray):
        if values.ndim != 3:
            raise ValueError(f"{what} must be an (I, M, n_max) array,"
                             f" got shape {values.shape}")
        padded = np.array(values, dtype=float)
        n_max = padded.shape[-1]
        positive = padded > 0
        occupied = None if positive.all() else \
            np.arange(n_max) >= n_max - positive.sum(axis=-1, keepdims=True)
    else:
        padded, occupied = front_pad(values)
    if occupied is not None and not np.array_equal(np.sign(padded), occupied):
        raise ValueError(f"{what} must be positive")
    padded.flags.writeable = False
    object.__setattr__(container, name, padded)


@dataclass(frozen=True, eq=False)
class RateDemands:
    """Minimum rate demand (bit/s) per user, aligned with topology order.

    ``rates`` is one read-only (I, M, n_max) array, front-padded like the
    topology with 0 in padding, that the constructor takes as is or from
    nested per-group arrays.  ``==`` compares identity; compare
    ``rates`` with ``np.array_equal``.
    """

    rates: np.ndarray

    def __post_init__(self):
        _store(self, "rates", "rate demands")

    @classmethod
    def uniform(cls, topology: NetworkTopology, rate: float) -> "RateDemands":
        return cls(np.where(topology.occupied, float(rate), 0.0))

    def padded_for(self, topology: NetworkTopology) -> np.ndarray:
        """``rates``, once checked to hold one demand per user of ``topology``."""
        if not np.array_equal(self.rates > 0, topology.occupied):
            raise ValueError("rate demands must be positive, one per user of the topology")
        return self.rates


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user transmit powers (W), aligned with topology order: ``powers``
    is one read-only (I, M, n_max) array stored like
    :class:`RateDemands`' ``rates``.  ``==`` compares identity; compare
    ``powers`` with ``np.array_equal``."""

    powers: np.ndarray

    def __post_init__(self):
        _store(self, "powers", "powers")

    def cell_powers(self) -> np.ndarray:
        """Group totals as an (I, M) array."""
        return self.powers.sum(axis=-1)


def normalized_interference(topology: NetworkTopology, q: np.ndarray) -> np.ndarray:
    """Inter-cell interference plus noise at every user over its own gain.

    Front-padded (I, M, n_max) like the topology; padded slots hold 0.
    """
    return np.einsum("...msk,km->...ms", topology.cross_ratio,
                     np.asarray(q, dtype=float)) + topology.noise_ratio


def dense_interference(topology: NetworkTopology, q: np.ndarray) -> np.ndarray:
    """Effective interference of every user, front-padded (I, M, n_max)
    like the topology.

    Entry ``[i, m, j]`` is the worst case, over the users that must decode
    user j (j itself and every stronger user), of
    :func:`normalized_interference`.  Padded slots repeat the weakest real
    user's value.
    """
    return suffix_max(normalized_interference(topology, q))


def suffix_max(z: np.ndarray) -> np.ndarray:
    """suffix_max(z)[..., j] = max of z[..., j:], along the last axis:
    the effective interference from the normalized interference ``z``."""
    return np.maximum.accumulate(z[..., ::-1], axis=-1)[..., ::-1]


def dense_rates(topology: NetworkTopology, allocation: PowerAllocation,
                q: np.ndarray) -> np.ndarray:
    """Achievable rate of every user, front-padded (I, M, n_max); 0 in padding."""
    return group_rates(allocation.powers, dense_interference(topology, q),
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
