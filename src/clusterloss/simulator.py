"""Monte Carlo engine for common-shock cluster defaults.

Each amplitude's shocks arrive as an inhomogeneous Poisson process whose
cumulated intensity is the schedule's piecewise-linear curve, and each shock
hits a uniformly random set of names of its size (under size-homogeneous
intensities all same-size clusters are exchangeable). Four ways of turning
the shocks into a default count:

* ``repeated`` — every event adds its full size; the count is unbounded.
* ``s0``       — running total capped at the pool size.
* ``s1``       — names default at most once; an event defaults the not-yet-
                 defaulted names it contains.
* ``s2``       — an event fires only if *none* of its names has defaulted;
                 otherwise it is discarded entirely.

``empirical_distributions`` histograms the count alone, for a whole block of
paths at once, and never draws a name or an event time. The repeated and s0
counts are ``sum_j a_j N_j(t)``, the latter capped at the pool size M, and
need only each path's events per observation interval and mode. By the
splitting property of Poisson shocks (Lindskog and McNeil, "Common Poisson
shock models", 2003) each path draws one Poisson total over all (interval,
mode) pairs and marks each event with a pair in proportion to its rise, one
uniform per event through Walker's alias table. A schedule that expects more
than half an event per pair draws one Poisson count per path and pair
instead, whose cost does not grow with the intensity. For s1 and s2,
exchangeability makes the count a Markov chain: with y names defaulted, the
defaulted set is a uniformly random y-subset, so an s2 event of size a fires
with probability C(M - y, a) / C(M, a) and an s1 event defaults
Hypergeometric(M - y, y, a) fresh names. The chain needs the events in time
order, but not their times: [0, last time] is cut into cells at the
observation times and the knots, inside which every mode's rate is constant,
so each path draws one Poisson total per cell and marks each event with a
mode in proportion to the modes' rises over the cell (superposition and
marking of Poisson processes). Inside a cell the modes of successive events
are independent and identically distributed, so events taken in the order
they are drawn need no times and no sort. A cluster larger than the pool
never fires under s1 and s2 and takes s0 to the cap, as in the exact
engines. Each block of 2^13 paths draws from its own generator, spawned from
the seed by block index, so histograms are reproducible given the seed and
the path count. Memory stays bounded: a draw holds its events, about 41
bytes each under s1 and s2, so a block whose schedule expects more than 2^20
events is drawn in sub-batches of paths, in turn from the block's generator.
Name identity, which names default and when, is tracked only by the tests'
name-level reference simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss_engine import (
    GPCL,
    STRATEGIES,
    STRATEGY_CLUSTER,
    STRATEGY_REPEATED,
    STRATEGY_SINGLE_NAME,
    IntensitySchedule,
    LossDistribution,
    PoolSpec,
    _is_integer,
    _jump_moves,
)


class SimulationError(ValueError):
    pass


# paths per generator stream in empirical_distributions; histograms for a
# given seed depend on it, and it bounds the memory one block takes
_BLOCK_PATHS = 2 ** 13
# expected events one draw holds at most (an s1 or s2 event takes about 41
# bytes): a block of a schedule that expects more is drawn in sub-batches of
# paths, in turn from the block's generator. The shipped schedules expect at
# most 75k events a block, so they never split. A smaller budget costs time:
# s1 and s2 sub-batches of fewer paths take as many rounds of events each. At
# 2^20 the iTraxx gpcl schedule x100 runs s1 and s2 as fast as in one batch,
# in 43 MB, not 194; at 2^19, in 22 MB, s1 took half as long again
_EVENT_BUDGET = 2 ** 20
# s0 and repeated mark each event with its (interval, mode) pair while a path
# expects at most this many events per pair, zero rises included; beyond it
# one Poisson draw per pair is cheaper. Measured on the iTraxx and CDX gpl
# schedules scaled x1-x4, blocks of 2^13 paths: the two cost the same at
# 0.63 events per pair
_MARKED_EVENTS_PER_PAIR = 0.5


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Histogram of path counts at one time with binomial standard errors.

    ``overflow`` marks the repeated strategy's top bin, which then holds all
    mass at or above the pool size (the repeated count is unbounded).
    """

    distribution: LossDistribution
    std_err: np.ndarray
    strategy: str
    n_paths: int
    seed: int
    overflow: bool


def empirical_distributions(pool: PoolSpec, schedule: IntensitySchedule, strategy: str,
                            times, n_paths: int, seed: int = 0) -> list[EmpiricalDistribution]:
    """Simulate once, histogram the counting process at each requested time.

    Paths are drawn in blocks of 2^13, each from its own generator spawned
    from ``seed``, a non-negative integer, by block index, so the result
    depends on ``(seed, n_paths)`` alone. A block whose schedule expects
    more than 2^20 events is drawn in sub-batches of paths, in turn from the
    block's generator, so memory stays bounded in events too. Only the
    default count is tracked (see the module docstring); one pass serves
    every time point, and the per-bin standard error is the binomial
    estimate sqrt(p(1-p)/n).
    """
    if strategy not in STRATEGIES:
        raise SimulationError(f"unknown strategy {strategy!r}")
    if not (_is_integer(n_paths) and n_paths >= 1):
        raise SimulationError(f"n_paths must be an integer of at least 1, got {n_paths!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise SimulationError(f"seed must be a non-negative integer, got {seed!r}")
    n_paths, seed = int(n_paths), int(seed)
    times = sorted(float(t) for t in np.atleast_1d(times))
    if not times or not all(map(math.isfinite, times)) or times[0] < 0:
        raise SimulationError("need at least one time, all finite and non-negative")
    times = np.asarray(times)
    m = pool.names
    amplitudes = np.asarray(schedule.amplitudes, dtype=np.int64)
    name_aware = strategy in (STRATEGY_SINGLE_NAME, STRATEGY_CLUSTER)
    # cells: s0 and repeated draw per observation interval; s1 and s2 cut at
    # the knots as well, so that every mode's rate is constant inside a cell
    cuts = np.union1d(times, schedule.knots[schedule.knots < times[-1]]) if name_aware else times
    rises = np.maximum(np.diff(schedule.aggregate_cumulated(cuts), axis=0, prepend=0.0), 0.0)
    if name_aware:
        # a cluster larger than the pool has no survivors to hit: it never fires
        active = (amplitudes <= m) & rises.any(axis=0)
        rises, amplitudes = rises[:, active], amplitudes[active]
        ends = np.searchsorted(cuts, times)  # the cell that ends at each time
    events = rises.sum() * _BLOCK_PATHS  # expected in a block
    batch = _BLOCK_PATHS if events <= _EVENT_BUDGET else max(1, int(_EVENT_BUDGET // rises.sum()))
    offsets = np.arange(len(times)) * (m + 1)
    histogram = np.zeros(len(times) * (m + 1), dtype=np.int64)
    for block, first in enumerate(range(0, n_paths, _BLOCK_PATHS)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        n = min(_BLOCK_PATHS, n_paths - first)
        for start in range(0, n, batch):
            size = min(batch, n - start)
            if not name_aware:
                counts = _capped_counts(rng, size, rises, amplitudes, m)
            elif len(amplitudes) == 0:
                counts = np.zeros((size, len(times)), dtype=np.int64)
            else:
                counts = _name_aware_counts(rng, size, strategy, m, rises, amplitudes)[:, ends]
            histogram += np.bincount((counts + offsets).ravel(), minlength=len(histogram))
    histogram = histogram.reshape(len(times), m + 1)
    out = []
    for row, t in enumerate(times):
        freq = histogram[row] / n_paths
        std_err = np.sqrt(freq * (1.0 - freq) / n_paths)
        out.append(EmpiricalDistribution(
            distribution=LossDistribution(time=float(t), probs=freq),
            std_err=std_err,
            strategy=strategy,
            n_paths=n_paths,
            seed=seed,
            overflow=(strategy == STRATEGY_REPEATED),
        ))
    return out


def _capped_counts(rng: np.random.Generator, n: int, increments: np.ndarray,
                   amplitudes: np.ndarray, names: int) -> np.ndarray:
    """``min(sum_j a_j N_j(t), names)`` at each observation time, shape (n, times).

    ``increments[k, j]`` is mode j's cumulated intensity over the k-th
    observation interval; the Poisson counts of disjoint intervals are
    independent. The cap is the s0 count and the repeated strategy's
    overflow bin alike. Where a path expects few events for the pairs
    (k, j), each path draws one Poisson total over all pairs and marks each
    event with a pair in proportion to its increment (splitting of Poisson
    shocks); a pair without rise is never drawn. Otherwise each path draws
    one count per pair, which costs the same at any intensity.
    """
    intervals, modes = increments.shape
    pairs = np.flatnonzero(increments)
    if not pairs.size:
        return np.zeros((n, intervals), dtype=np.int64)
    if increments.sum() > _MARKED_EVENTS_PER_PAIR * increments.size:
        jumps = rng.poisson(increments, size=(n,) + increments.shape)
        return np.minimum(np.cumsum(jumps @ amplitudes, axis=1), names)
    keep, alias = _alias_table(increments.ravel()[pairs])
    # column i of the table holds pair i with chance keep[i], else pair alias[i]
    table = np.stack([pairs, pairs[alias]], axis=1).ravel()
    per_path = rng.poisson(increments.sum(), n)
    u = rng.random(per_path.sum()) * len(pairs)
    column = u.astype(np.intp)
    pair = table[2 * column + (u - column >= keep[column])]
    cell = np.repeat(np.arange(0, n * intervals, intervals), per_path) + pair // modes
    loss = np.bincount(cell, weights=amplitudes[pair % modes], minlength=n * intervals)
    return np.minimum(np.cumsum(loss.reshape(n, intervals).astype(np.int64), axis=1), names)


def _alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table for the categorical law in proportion to
    ``weights`` (Vose's construction, IEEE TSE 17(9), 1991): a column i drawn
    uniformly keeps i with chance ``keep[i]`` and gives ``alias[i]``
    otherwise, so a mark costs one uniform and no search."""
    scaled = weights * (len(weights) / weights.sum())
    keep, alias = np.ones(len(weights)), np.arange(len(weights))
    small = [i for i, w in enumerate(scaled) if w < 1.0]
    large = [i for i, w in enumerate(scaled) if w >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        keep[s], alias[s] = scaled[s], big
        scaled[big] -= 1.0 - scaled[s]
        if scaled[big] < 1.0:
            small.append(large.pop())
    # columns left over hold (up to rounding) all their own mass
    return keep, alias


def _name_aware_counts(rng: np.random.Generator, n: int, strategy: str, names: int,
                       rises: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """s1 or s2 default counts at the end of each cell, shape (n, cells).

    ``rises[c, j]`` is mode j's cumulated intensity over cell c, inside which
    every rate is constant. So a path's events in a cell number
    Poisson(sum_j rises[c, j]), each of mode j with probability proportional
    to rises[c, j], and their order inside the cell is exchangeable: emitted
    by path, then by cell, they need no times and no sort. Then the k-th
    events of all paths that have one are applied together, k = 0, 1, ...
    With y names defaulted, an s2 event of size a fires with the chance that
    its uniformly random names miss all y, and an s1 event defaults
    Hypergeometric(M - y, y, a) fresh names.
    """
    cells = len(rises)
    bounds = np.cumsum(rises, axis=1)
    totals = bounds[:, -1]
    per_cell = rng.poisson(totals, size=(n, cells)).ravel()
    cell = np.repeat(np.tile(np.arange(cells), n), per_cell)
    # the mark: how many of the cell's cumulated shares below the last (which
    # is 1) a uniform u < 1 reaches; a mode without rise there is never drawn
    shares = bounds[:, :-1] / np.where(totals > 0.0, totals, 1.0)[:, None]
    u = rng.random(len(cell))
    mode = np.zeros(len(cell), dtype=np.min_scalar_type(len(amplitudes)))
    for share in shares.T:
        mode += u >= share[cell]
    per_path = per_cell.reshape(n, cells).sum(axis=1)
    first = np.cumsum(per_path) - per_path
    defaulted = np.zeros(n, dtype=np.int64)
    increments = np.zeros(len(cell), dtype=np.int64)
    # C(M - y, a) / C(M, a), the gpcl jump chance: the chance that a
    # uniformly random a-subset misses all y defaulted names
    avoidance = _jump_moves(names, GPCL, amplitudes)[0][:, 0]
    live = np.flatnonzero(per_path)
    rank = 0
    while live.size:
        event = first[live] + rank
        size = amplitudes[mode[event]]
        y = defaulted[live]
        if strategy == STRATEGY_CLUSTER:
            fires = rng.random(live.size) < avoidance[mode[event], y]
            step = np.where(fires, size, 0)
        else:
            step = rng.hypergeometric(names - y, y, size)
        defaulted[live] += step
        increments[event] = step
        rank += 1
        live = live[per_path[live] > rank]
    # a path's count at a cell's end: the running total of all increments at
    # the path's last event up to that cell, less the total before the path
    running = np.concatenate(([0], np.cumsum(increments)))
    return running[np.cumsum(per_cell)].reshape(n, cells) - running[first][:, None]
