"""Monte Carlo engine for common-shock cluster defaults.

Shock streams are sampled per amplitude as inhomogeneous Poisson processes by
inverse transform of the piecewise-linear aggregate cumulated intensity; each
event carries a uniformly random subset of names of that size (under
size-homogeneous intensities all same-size clusters are exchangeable, so the
merged-stream-plus-uniform-mark construction is distributionally exact).
``sample_shock_stream`` and ``apply_strategy`` build such streams name by
name; they are the reference for name identity.

Four ways of turning the same stream into a default count:

* ``repeated`` — every event adds its full size; the count is unbounded.
* ``s0``       — running total capped at the pool size.
* ``s1``       — names default at most once; an event defaults the not-yet-
                 defaulted names it contains.
* ``s2``       — an event fires only if *none* of its names has defaulted;
                 otherwise it is discarded entirely.

``empirical_distributions`` histograms the count alone, for a whole block of
paths at once. The repeated and s0 counts are ``sum_j a_j N_j(t)``, the
latter capped at the pool size M, so one Poisson draw per path, observation
interval and mode gives them. For s1 and s2, exchangeability makes the count
a Markov chain: with y names defaulted, the defaulted set is a uniformly
random y-subset, so an s2 event of size a fires with probability
C(M - y, a) / C(M, a) and an s1 event defaults Hypergeometric(M - y, y, a)
fresh names. A cluster larger than the pool never fires under s1 and s2 and
takes s0 to the cap, as in the exact engines. Each block of 2^15 paths draws
from its own generator, spawned from the seed by block index, so histograms
are reproducible given the seed and the path count, and memory stays bounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss_engine import (
    GPCL,
    GPL,
    STRATEGIES,
    STRATEGY_CAPPED,
    STRATEGY_CLUSTER,
    STRATEGY_REPEATED,
    STRATEGY_SINGLE_NAME,
    IntensitySchedule,
    LossDistribution,
    LossEngineError,
    PoolSpec,
)


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class ShockEvent:
    """One cluster shock: arrival time and the set of names it hits."""

    time: float
    cluster: tuple[int, ...]

    def __post_init__(self):
        if self.time <= 0:
            raise SimulationError("shock times must be positive")
        if len(self.cluster) < 1:
            raise SimulationError("clusters hold at least one name")


@dataclass
class Trajectory:
    """Counting path produced by applying one strategy to an event stream.

    ``increments[i]`` is the count increase accepted at event i (zero for a
    discarded event), ``counts[i]`` the running count just after it. For the
    name-aware strategies (s1, s2), ``name_default_times`` holds each name's
    default time (nan while alive); the other strategies do not preserve name
    identity.
    """

    strategy: str
    pool: PoolSpec
    times: np.ndarray
    increments: np.ndarray
    counts: np.ndarray
    name_default_times: np.ndarray | None

    def count_at(self, t: float) -> int:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 0 if idx < 0 else int(self.counts[idx])


# paths per generator stream in empirical_distributions; histograms for a
# given seed depend on it, and it bounds the memory one block takes
_BLOCK_PATHS = 2 ** 15


def _inverse_grid(schedule: IntensitySchedule, horizon: float):
    """Breakpoints (times, cumulated rows) covering [0, horizon] for inversion."""
    times = np.concatenate([[0.0], schedule.knots[schedule.knots < horizon], [horizon]])
    return times, schedule.aggregate_cumulated(times)  # (n_pts, n_modes)


def sample_shock_stream(pool: PoolSpec, schedule: IntensitySchedule, horizon: float,
                        seed: int | np.random.Generator = 0) -> list[ShockEvent]:
    """Sample one merged, time-sorted stream of cluster shocks up to ``horizon``.

    For each amplitude the event count is Poisson with mean equal to the
    aggregate cumulated intensity at the horizon, and event times are the
    inverse image of uniforms under the piecewise-linear cumulated curve
    (exact, no thinning). Ties after merging are broken by amplitude index.
    """
    if horizon <= 0:
        raise SimulationError("horizon must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    grid_times, grid_values = _inverse_grid(schedule, horizon)
    for amplitude, total in zip(schedule.amplitudes, grid_values[-1]):
        if amplitude > pool.names and total > 0.0:
            raise SimulationError(f"amplitude {amplitude} exceeds the pool of "
                                  f"{pool.names} names")
    events: list[tuple[float, int, ShockEvent]] = []
    for j, amplitude in enumerate(schedule.amplitudes):
        total = float(grid_values[-1, j])
        if total <= 0.0:
            continue
        count = rng.poisson(total)
        if count == 0:
            continue
        u = rng.uniform(0.0, total, size=count)
        t = np.interp(u, grid_values[:, j], grid_times)
        for ti in np.sort(t):
            cluster = np.sort(rng.choice(pool.names, size=amplitude, replace=False))
            events.append((float(ti), j, ShockEvent(float(ti), tuple(int(c) for c in cluster))))
    events.sort(key=lambda e: (e[0], e[1]))
    return [e[2] for e in events]


def apply_strategy(events: list[ShockEvent], strategy: str, pool: PoolSpec) -> Trajectory:
    """Turn a time-sorted event stream into a counting trajectory."""
    if strategy not in STRATEGIES:
        raise SimulationError(f"unknown strategy {strategy!r}")
    times = np.array([e.time for e in events])
    if np.any(np.diff(times) < 0):
        raise SimulationError("events must be sorted by time")
    name_aware = strategy in (STRATEGY_SINGLE_NAME, STRATEGY_CLUSTER)
    defaulted = np.zeros(pool.names, dtype=bool) if name_aware else None
    name_times = np.full(pool.names, np.nan) if name_aware else None
    increments = np.zeros(len(events), dtype=np.int64)
    count = 0
    for i, event in enumerate(events):
        members = np.asarray(event.cluster, dtype=np.intp)
        if name_aware and members.max(initial=-1) >= pool.names:
            raise SimulationError("cluster references a name outside the pool")
        if strategy == STRATEGY_REPEATED:
            inc = len(members)
        elif strategy == STRATEGY_CAPPED:
            inc = min(len(members), pool.names - count)
        elif strategy == STRATEGY_SINGLE_NAME:
            fresh = members[~defaulted[members]]
            defaulted[fresh] = True
            name_times[fresh] = event.time
            inc = len(fresh)
        else:  # s2: all-or-nothing
            if defaulted[members].any():
                inc = 0
            else:
                defaulted[members] = True
                name_times[members] = event.time
                inc = len(members)
        count += inc
        increments[i] = inc
    return Trajectory(
        strategy=strategy,
        pool=pool,
        times=times,
        increments=increments,
        counts=np.cumsum(increments),
        name_default_times=name_times,
    )


def single_name_default_times(trajectory: Trajectory) -> np.ndarray:
    """Per-name default times (nan = never defaulted).

    Only the name-aware strategies preserve identity; the capped and repeated
    counts cannot be attributed to names.
    """
    if trajectory.name_default_times is None:
        raise SimulationError(
            f"strategy {trajectory.strategy!r} does not preserve name identity")
    return trajectory.name_default_times.copy()


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

    Paths are drawn in blocks of 2^15, each from its own generator spawned
    from ``seed`` by block index, so the result depends on ``(seed,
    n_paths)`` alone and memory stays bounded. Only the default count is
    tracked (see the module docstring); one pass serves every time point, and
    the per-bin standard error is the binomial estimate sqrt(p(1-p)/n).
    """
    if strategy not in STRATEGIES:
        raise SimulationError(f"unknown strategy {strategy!r}")
    if n_paths < 1:
        raise SimulationError("n_paths must be at least 1")
    times = sorted(float(t) for t in np.atleast_1d(times))
    if not times or not all(map(math.isfinite, times)) or times[0] < 0:
        raise SimulationError("need at least one time, all finite and non-negative")
    times = np.asarray(times)
    m = pool.names
    amplitudes = np.asarray(schedule.amplitudes, dtype=np.int64)
    name_aware = strategy in (STRATEGY_SINGLE_NAME, STRATEGY_CLUSTER)
    if name_aware:
        grid_times, grid_values = _inverse_grid(schedule, float(times[-1]))
        # a cluster larger than the pool has no survivors to hit: it never fires
        active = (amplitudes <= m) & (grid_values[-1] > 0.0)
        grid_values = grid_values[:, active]
        amplitudes = amplitudes[active]
    else:
        increments = np.maximum(np.diff(schedule.aggregate_cumulated(times), axis=0,
                                        prepend=0.0), 0.0)
    offsets = np.arange(len(times)) * (m + 1)
    histogram = np.zeros(len(times) * (m + 1), dtype=np.int64)
    for block, first in enumerate(range(0, n_paths, _BLOCK_PATHS)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        n = min(_BLOCK_PATHS, n_paths - first)
        if not name_aware:
            counts = _capped_counts(rng, n, increments, amplitudes, m)
        elif len(amplitudes) == 0:
            counts = np.zeros((n, len(times)), dtype=np.int64)
        else:
            counts = _name_aware_counts(rng, n, strategy, m, times, grid_times, grid_values,
                                        amplitudes)
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
    overflow bin alike.
    """
    jumps = rng.poisson(increments, size=(n,) + increments.shape)
    return np.minimum(np.cumsum(jumps @ amplitudes, axis=1), names)


def _name_aware_counts(rng: np.random.Generator, n: int, strategy: str, names: int,
                       times: np.ndarray, grid_times: np.ndarray, grid_values: np.ndarray,
                       amplitudes: np.ndarray) -> np.ndarray:
    """s1 or s2 default counts at each observation time, shape (n, times).

    Every path's events are drawn at once and sorted by path, then time; then
    the k-th events of all paths that have one are applied together,
    k = 0, 1, ... With y names defaulted, an s2 event of size a fires with the
    chance that its uniformly random names miss all y, and an s1 event
    defaults Hypergeometric(M - y, y, a) fresh names.
    """
    per_mode = rng.poisson(grid_values[-1], size=(n, len(amplitudes)))
    path, when, mode = [], [], []
    for j, total in enumerate(grid_values[-1]):
        count = int(per_mode[:, j].sum())
        path.append(np.repeat(np.arange(n), per_mode[:, j]))
        when.append(np.interp(rng.uniform(0.0, total, count), grid_values[:, j], grid_times))
        mode.append(np.full(count, j))
    path, when, mode = np.concatenate(path), np.concatenate(when), np.concatenate(mode)
    # by path, then time: a quicksort on the times (exact ties have probability
    # zero), then a stable sort on the path, which numpy does by radix sort
    # when the indices fit 16 bits; several times faster than lexsort
    order = np.argsort(when)
    order = order[np.argsort(path[order].astype(np.min_scalar_type(n - 1)), kind="stable")]
    path, when, mode = path[order], when[order], mode[order]
    per_path = per_mode.sum(axis=1)
    first = np.cumsum(per_path) - per_path
    defaulted = np.zeros(n, dtype=np.int64)
    increments = np.zeros(len(path), dtype=np.int64)
    avoidance = _avoidance_table(names, amplitudes)
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
    # an event counts at every observation time at or after it
    slot = path * len(times) + np.searchsorted(times, when, side="left")
    gained = np.bincount(slot, weights=increments, minlength=n * len(times))
    return np.cumsum(gained.reshape(n, len(times)), axis=1).astype(np.int64)


def _avoidance_table(names: int, amplitudes: np.ndarray) -> np.ndarray:
    """C(M - y, a) / C(M, a) for each amplitude a <= M (rows) and y = 0..M.

    The chance that a uniformly random a-subset misses all y defaulted names
    equals the chance that y names drawn without replacement all miss a fixed
    a-subset: the product over l < y of (M - a - l) / (M - l), zero once
    y > M - a.
    """
    a = np.asarray(amplitudes, dtype=float)[:, None]
    drawn = np.arange(names, dtype=float)
    factors = np.clip((names - a - drawn) / (names - drawn), 0.0, None)
    return np.concatenate([np.ones((len(a), 1)), np.cumprod(factors, axis=1)], axis=1)


def empirical_distribution(pool: PoolSpec, schedule: IntensitySchedule, strategy: str,
                           t: float, n_paths: int, seed: int = 0) -> EmpiricalDistribution:
    """Histogram of the counting process at a single time."""
    return empirical_distributions(pool, schedule, strategy, [t], n_paths, seed)[0]
