"""Sum-power minimization.

The per-group optimum has a closed form: every rate constraint is tight,
so a backward recursion over the cumulative tail powers yields the user
powers directly (:func:`group_split`, shared with rate maximization).
Substituting the closed form into the network problem leaves only the
per-BS totals ``q``, coupled through the interference map ``f``; ``f``
is a standard interference function, so the distributed
fixed-point sweep (:func:`dpc_spm`) converges to the component-wise
minimal solution whenever one exists.  :attr:`Problem.fixed_point`
reaches the same point exactly in a few small linear solves
(:func:`_least_fixed_point`) and certifies when there is none.

Both problems derive a group's 2^(R/B) and its demand weights here, with
one formula (:func:`_weights`); :class:`_GroupConstants` bundles them
with rate maximization's alpha and weak-demand sums.  A :class:`Problem`
holds one drop: the demands, checked against the topology once, their
bundle, and the least fixed point with the effective interference it
ends on.  Every solver takes one; ``nomapower run`` builds one per seed,
and every budget point and start of the seed reads it.  The bundle
depends on the demands and the bandwidth alone, so a process builds it
once per distinct pair (:func:`_shared_constants`) and every problem
with the same demands reads the same read-only arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .network import (NetworkTopology, PowerAllocation, RateDemands,
                      dense_interference, normalized_interference, suffix_max)

# dpc_spm stops once sum |q - f(q)| is at most REL_TOL times the sum power.
# Problem.split rejects a q_star with max |q - f(q)| above RESIDUAL_TOL
# times its sum power: the fixed point's is below 1e-15, dpc_spm's at
# most 1.6e-10, and 1e-3 off in a drop's smallest group at least 4e-8 (7 x 4)
REL_TOL = 1e-10
RESIDUAL_TOL = 1e-9

# The slack of every feasibility check, relative to the bound it checks.
# ROUND_RTOL: a total built to equal its bound (a budget, a required power)
# may pass it by rounding alone; the worst budget overrun seen is 5.3e-16.
# COVER_RTOL: a rate-max group may fall short of its required power w . x,
# its proxies short of the effective interference, and its rates short of
# the demands.  random_feasible_start's repair stops up to ROUND_RTOL short
# of f(q), and rounding adds to that, so this must exceed ROUND_RTOL; the
# worst shortfall seen is 9.7e-13 of a required power, 5.2e-13 of a demand.
ROUND_RTOL = 1e-12
COVER_RTOL = 1e-9
# dpc_spm gives up once an entry of q passes RUNAWAY_FACTOR times the largest
# budget: a fixed point that far out is over every budget anyway, and an
# expansive coupling would otherwise sweep on toward overflow or max_iter
RUNAWAY_FACTOR = 1e9


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """Outcome of a sum-power fixed-point solve (dpc_spm or
    :attr:`Problem.fixed_point`).
    ``==`` compares identity, as for the containers."""

    q_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    trace: np.ndarray

    def fits(self, budgets: np.ndarray) -> bool:
        """Whether the solve converged to a point within the (I,) ``budgets``."""
        return self.converged and bool(within_budgets(budgets, self.q_star).all())


def within_budgets(budgets: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-BS check of an (I, M) power array's totals against ``budgets``."""
    return q.sum(axis=1) <= budgets * (1.0 + ROUND_RTOL)


def _checked_budgets(topology: NetworkTopology, budgets) -> np.ndarray:
    """``budgets`` as floats, one positive finite budget per cell."""
    checked = np.asarray(budgets, dtype=float)
    if checked.shape != (topology.num_cells,) or not (0 < checked).all() \
            or not (checked < np.inf).all():
        raise ValueError("budgets must be a 1-D positive finite array, one per cell")
    return checked


def _checked_max_iter(max_iter) -> int:
    """``max_iter`` as an int: an integer (not a bool) of at least 1."""
    if type(max_iter) is not int and (    # plain ints skip the slow ABC checks
            isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    return int(max_iter)


def _weights(r, growth):
    """Demand weights from the demands over B, ``r``, and 2^r, ``growth``."""
    before = np.zeros_like(r)
    before[..., 1:] = np.cumsum(r, axis=-1)[..., :-1]
    return (growth - 1.0) * np.exp2(before)


@dataclass(frozen=True)
class _GroupConstants:
    """The per-group constants of one set of padded (I, M, n_max) demands.

    ``growth`` is 2^(R_j/B) and ``weights`` the demand weights w, both
    (I, M, n_max): a group needs w . x at the effective interference x,
    and its split of that total is :func:`group_split` on ``growth``.  At
    a total q above it the strongest user gets alpha (q - w . x) more,
    alpha = 2^(-S) with S the weak demand over B, (I, M); ``weak`` is each
    cell's weak-demand sum, (I,).  ``constants[i]`` is cell i's row.
    """

    weights: np.ndarray
    growth: np.ndarray
    alpha: np.ndarray
    weak: np.ndarray

    @classmethod
    def build(cls, rates: np.ndarray, bandwidth: float) -> _GroupConstants:
        r = rates / bandwidth
        growth = np.exp2(r)
        return cls(weights=_weights(r, growth), growth=growth,
                   alpha=np.exp2(-r[..., :-1].sum(axis=-1)),
                   weak=rates[..., :-1].sum(axis=-1).sum(axis=-1))

    def __getitem__(self, i: int) -> _GroupConstants:
        return _GroupConstants(self.weights[i], self.growth[i], self.alpha[i],
                               self.weak[i])


@lru_cache(maxsize=16)
def _shared_constants(shape, data, bandwidth) -> _GroupConstants:
    """:meth:`_GroupConstants.build` of the padded demands of ``shape``
    whose float64 bytes are ``data``, built once per distinct demands and
    bandwidth and shared as read-only arrays."""
    constants = _GroupConstants.build(np.frombuffer(data).reshape(shape), bandwidth)
    for value in vars(constants).values():
        value.flags.writeable = False
    return constants


class Problem:
    """One drop: the ``topology``, the ``demands``, checked once to hold
    one demand per user of it, their :class:`_GroupConstants`
    (``constants``, read-only and shared by every problem of the process
    with the same demands and bandwidth) and the least fixed point
    (:attr:`fixed_point`), solved on first use with at most ``max_iter``
    linear solves, an integer >= 1.  Every solver takes one.  The
    constants and the fixed point derive from the inputs, so no attribute
    can be rebound and their arrays are read-only."""

    def __init__(self, topology: NetworkTopology, demands: RateDemands,
                 max_iter: int = 100):
        max_iter = _checked_max_iter(max_iter)
        rates = demands.padded_for(topology)
        # written through __dict__, since __setattr__ refuses every name
        fields = self.__dict__
        fields["topology"], fields["demands"] = topology, demands
        fields["max_iter"] = max_iter
        fields["constants"] = _shared_constants(rates.shape, rates.tobytes(),
                                                topology.bandwidth)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Problem is read-only: cannot set {name!r}")

    @cached_property
    def fixed_point(self):
        """The least fixed point of the interference map: the
        :class:`FixedPointReport` of :func:`_least_fixed_point` and the
        effective interference at its ``q_star``."""
        return _least_fixed_point(self.topology, self.constants.weights, self.max_iter)

    def split(self, q_star=None) -> PowerAllocation:
        """Per-user powers at the fixed point ``q_star``, every group split
        at once at the effective interference there; None splits
        :attr:`fixed_point` at the interference and residual its solve
        ended on.  Raises ValueError when ``q_star`` is not (I, M) or is off
        the fixed point by more than ``RESIDUAL_TOL`` times its sum power."""
        if q_star is None:
            report, h = self.fixed_point
            q_star, residual = report.q_star, report.residual
        else:
            if np.shape(q_star) != self.topology.occupied.shape[:2]:
                raise ValueError("q_star must be an (I, M) array")
            h = dense_interference(self.topology, q_star)
            residual = _residual(self.constants.weights, q_star, h)
        bound = RESIDUAL_TOL * float(np.sum(q_star))
        if not residual <= bound:
            raise ValueError(
                f"q_star is not a fixed point (residual {residual:.3e} W > {bound:.1e} W)")
        return PowerAllocation(group_split(self.constants.growth, h))


def group_split(growth: np.ndarray, h: np.ndarray, extra=0.0) -> np.ndarray:
    """Per-user powers of a group whose weak users sit exactly at their
    demands and whose strongest user gets its minimum power
    (2^(R_n/B) - 1) * H_n plus ``extra``: power-min passes none, rate-max
    the surplus.  ``growth`` is 2^(R_j/B).  Backward recursion on the tail
    sums b_j = sum_{n>=j} p_n, from the strongest user's power:

        b_j = 2^(R_j/B) * b_{j+1} + (2^(R_j/B) - 1) * H_j

    Users run along the last axis, so front-padded (I, M, n_max) arrays
    with (I, M) ``extra`` split every group at once; a padded slot
    (growth 1) passes b on and gets power 0.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    b = np.zeros(h.shape[:-1] + (n + 1,))
    b[..., n - 1] = (growth[..., -1] - 1.0) * h[..., -1] + extra
    for j in range(n - 2, -1, -1):
        b[..., j] = growth[..., j] * b[..., j + 1] + (growth[..., j] - 1.0) * h[..., j]
    return b[..., :-1] - b[..., 1:]


def interference_map(topology: NetworkTopology, demands: RateDemands,
                     q: np.ndarray) -> np.ndarray:
    """Reduced interference map f(q), an (I, M) array.

    f_im(q) is the minimum total power BS i needs on subchannel m to meet
    its users' demands against the interference produced by ``q``; it
    equals the group total of :func:`group_split` with every user at its
    demand.
    """
    return _reduced_map(topology, Problem(topology, demands).constants.weights, q)


def _reduced_map(topology, weights, q):
    """f(q) from front-padded demand weights."""
    return (weights * dense_interference(topology, q)).sum(axis=-1)


def dpc_spm(problem: Problem, budgets: np.ndarray, q0: np.ndarray | None = None,
            max_iter: int = 10_000) -> FixedPointReport:
    """Distributed power control for sum-power minimization of ``problem``.

    Iterates q_im <- f_im(q) as a Gauss-Seidel sweep: q is refreshed in
    place, cell by cell in ascending order, each cell updating its whole
    row q[i, :] at once.  That is exactly the ascending (cell,
    subchannel) order: f_im reads only q[k, m] for k != i, so no entry of
    row i feeds another entry of row i.  Stops once sum |q - f(q)| is at
    most ``REL_TOL`` times the sum power, or after ``max_iter`` sweeps.

    Non-convergence is reported, not raised: it indicates the demands are
    likely infeasible at any power level.  The per-BS ``budgets`` only
    set the default start, split evenly over the subchannels, and the
    runaway scale (``RUNAWAY_FACTOR`` times the largest).  An explicit
    ``q0`` must be a finite non-negative (I, M) array, and ``max_iter`` an
    integer >= 1.
    """
    topology = problem.topology
    budgets = _checked_budgets(topology, budgets)
    max_iter = _checked_max_iter(max_iter)
    if q0 is None:
        q = np.repeat(budgets[:, None] / topology.num_subchannels,
                      topology.num_subchannels, axis=1)
    else:
        q = np.array(q0, dtype=float)
        if q.shape != (topology.num_cells, topology.num_subchannels):
            raise ValueError("q0 has the wrong shape")
        if np.any(q < 0):
            raise ValueError("q0 must be non-negative")
        if not np.isfinite(q).all():
            raise ValueError("q0 must be finite")

    weights = problem.constants.weights
    ratio, noise = topology.cross_ratio, topology.noise_ratio
    trace = []
    converged = False
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        for i in range(topology.num_cells):
            # row i of f(q) alone: dense_interference restricted to cell i
            z = np.einsum("msk,km->ms", ratio[i], q) + noise[i]
            q[i] = (weights[i] * suffix_max(z)).sum(axis=-1)
        trace.append(q.sum())
        if not np.all(np.isfinite(q)) or \
                q.max() > RUNAWAY_FACTOR * budgets.max():
            # expansive coupling: the iteration runs away, no fixed point
            residual = np.inf
            break
        # the stopping rule reads the residual |q - f(q)|, so a fixed point
        # is confirmed without a further sweep
        gap = np.abs(q - _reduced_map(topology, weights, q))
        residual = float(np.max(gap))
        if gap.sum() <= REL_TOL * q.sum():
            converged = True
            break

    return FixedPointReport(q_star=q, iterations=iterations, residual=residual,
                            converged=converged, trace=np.array(trace))


@lru_cache(maxsize=16)
def _policy_layout(shape):
    """Constant arrays of the policy iteration on (I, M, n_max) groups,
    built once per shape, read-only: ``later[j, l]`` is True where slot
    l can decode slot j (l >= j), ``first`` the (I, M, 1) index of each
    group's first slot in the flattened groups, and ``identity`` the
    I x I identity."""
    num_cells, num_subchannels, n_max = shape
    slots = np.arange(n_max)
    later = slots[:, None] <= slots
    first = n_max * np.arange(num_cells * num_subchannels).reshape(
        num_cells, num_subchannels, 1)
    identity = np.eye(num_cells)
    for value in (later, first, identity):
        value.flags.writeable = False
    return later, first, identity


def _least_fixed_point(topology, weights, max_iter=100):
    """Least fixed point of the interference map of the front-padded
    demand ``weights``, by policy iteration.

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
    fixed point: ``converged`` is False and ``q_star`` is +inf.  The
    solve reads no budget.  ``iterations`` counts linear solves,
    ``trace`` holds the sum power after each, and ``max_iter`` (>= 1)
    caps the solves against floating-point ties.  The solve evaluates
    the interference once per linear solve; the last evaluation gives
    the residual.

    Returns the report and the effective interference at ``q_star``,
    (I, M, n_max), from that last evaluation; it is None when ``q_star``
    is not finite.  The report's ``q_star`` and ``trace`` and the
    interference are read-only.
    """
    ratio, noise = topology.cross_ratio, topology.noise_ratio
    later, first, identity = _policy_layout(noise.shape)
    q = np.zeros(noise.shape[:2])
    z = noise                                   # normalized_interference at q = 0
    choice = None
    trace = []
    converged = False
    while True:
        decoder = np.where(later, z[..., None, :], -np.inf).argmax(axis=-1)
        if choice is not None and (decoder == choice).all():
            converged = True
            break
        if len(trace) == max_iter:
            break
        choice = decoder
        # the demand weight each decoding user carries under this choice:
        # every user's weight, summed into its decoding user's slot
        load = np.bincount((choice + first).ravel(), weights.ravel(),
                           minlength=weights.size).reshape(weights.shape)
        a = np.einsum("iml,imlk->mik", load, ratio)
        b = np.einsum("iml,iml->mi", load, noise)
        try:
            q = np.linalg.solve(identity - a, b[..., None])[..., 0].T
        except np.linalg.LinAlgError:      # I - A singular: radius >= 1 too
            q = np.full_like(q, np.inf)
        if not (np.isfinite(q) & ((q > 0.0) | (b.T == 0.0))).all():
            q = np.full_like(q, np.inf)
        trace.append(q.sum())
        if np.isinf(trace[-1]):
            break
        z = normalized_interference(topology, q)

    residual, h = np.inf, None
    if np.isfinite(q).all():
        # f(q) at the z that tested the last choice: each user's effective
        # interference is z at its decoding user, the largest z from its
        # slot on
        h = suffix_max(z)
        h.flags.writeable = False
        residual = _residual(weights, q, h)
    trace = np.array(trace)
    # a problem shares its fixed point with every reader, so it is read-only
    q.flags.writeable = trace.flags.writeable = False
    return FixedPointReport(q_star=q, iterations=len(trace), residual=residual,
                            converged=converged, trace=trace), h


def _residual(weights, q, h):
    """max |q - f(q)|, from the effective interference ``h`` at ``q``."""
    return float(np.abs(q - (weights * h).sum(axis=-1)).max())


def assemble_full_solution(topology: NetworkTopology, demands: RateDemands,
                           q_star: np.ndarray) -> PowerAllocation:
    """:meth:`Problem.split` of a new problem at ``q_star``; no solver
    calls it, and it stays because the benchmark's tracer wraps it by
    name."""
    return Problem(topology, demands).split(q_star)
