"""Exact loss distributions of the pool default-counting process.

Two model kinds share one piecewise-linear cumulated-intensity schedule:

* ``gpl``  — independent Poisson jump modes, total count capped at the pool
  size. Single-time distributions come from Panjer's compound-Poisson
  recursion with the residual tail lumped into the cap state.
* ``gpcl`` — cluster-adjusted dynamics where a cluster of names can fire only
  while all its names survive. The counting process is then a Markov chain on
  {0..M}; single-time distributions solve the forward Kolmogorov equation via
  matrix exponentials of the integrated transition-rate matrix.

The capped ``gpl`` count is a pure-birth Markov chain on {0..M} as well, so
term structures (``distribution_term_structure``) of both models come from
one uniformised forward-equation kernel; the single-time engines above are
its references.

Schedules store, for each jump amplitude, the *aggregate* cumulated jump
intensity: for ``gpl`` the mode's Poisson cumulated intensity, for ``gpcl``
the per-cluster cumulated intensity times the number of same-size clusters of
the undefaulted pool, C(M, amplitude). Values are knotted at quoted
maturities, linear in between, with constant-slope extrapolation beyond the
last knot.
"""
from __future__ import annotations

import json
import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

log = logging.getLogger(__name__)

GPL = "gpl"
GPCL = "gpcl"
MODEL_KINDS = (GPL, GPCL)

STRATEGY_REPEATED = "repeated"
STRATEGY_CAPPED = "s0"
STRATEGY_SINGLE_NAME = "s1"
STRATEGY_CLUSTER = "s2"
STRATEGIES = (STRATEGY_REPEATED, STRATEGY_CAPPED, STRATEGY_SINGLE_NAME, STRATEGY_CLUSTER)

_NEGATIVE_CLAMP_TOL = 1e-12
_COLUMN_SUM_TOL = 1e-9


class LossEngineError(ValueError):
    """Raised for invalid schedules, pools or evaluation requests."""


@dataclass(frozen=True)
class PoolSpec:
    """Homogeneous pool: ``names`` credits of notional 1/names each,
    constant recovery on default."""

    names: int = 125
    recovery: float = 0.40

    def __post_init__(self):
        if self.names < 1:
            raise LossEngineError("pool must contain at least one name")
        if not 0.0 <= self.recovery <= 1.0:
            raise LossEngineError("recovery must lie in [0, 1]")

    @property
    def loss_per_default(self) -> float:
        return (1.0 - self.recovery) / self.names


def log_binomial(n: int, k: int) -> float:
    """log C(n, k); -inf outside 0 <= k <= n."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _check_time(t: float) -> None:
    if not math.isfinite(t) or t < 0:
        raise LossEngineError(f"time must be finite and non-negative, got {t!r}")


@lru_cache(maxsize=None)
def _binomial_ratio_column(names: int, amplitude: int) -> np.ndarray:
    """C(names - y, amplitude) / C(names, amplitude) for y = 0..names.

    Computed in log space: C(125, 62) ~ 1e36 overflows nothing here because
    only the ratio is ever exponentiated.
    """
    denom = log_binomial(names, amplitude)
    out = np.zeros(names + 1)
    for y in range(names + 1):
        num = log_binomial(names - y, amplitude)
        out[y] = 0.0 if num == -math.inf else math.exp(num - denom)
    return out


@dataclass(frozen=True)
class IntensitySchedule:
    """Piecewise-linear cumulated jump intensities per amplitude.

    ``cumulated[j][k]`` is the aggregate cumulated intensity of amplitude
    ``amplitudes[j]`` at ``knots[k]`` (zero at time zero, linear between
    knots, constant slope after the last knot).
    """

    model: str
    amplitudes: tuple[int, ...]
    knots: tuple[float, ...]
    cumulated: tuple[tuple[float, ...], ...]
    _knot_grid: np.ndarray = field(init=False, repr=False, compare=False)
    _value_grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise LossEngineError(f"unknown model kind {self.model!r}")
        amps = self.amplitudes
        if len(amps) == 0:
            raise LossEngineError("schedule needs at least one amplitude")
        if any(int(a) != a or a < 1 for a in amps):
            raise LossEngineError("amplitudes must be integers >= 1")
        if any(b <= a for a, b in zip(amps, amps[1:])):
            raise LossEngineError("amplitudes must be strictly increasing")
        if len(self.knots) == 0 or self.knots[0] <= 0.0:
            raise LossEngineError("knots must be positive year fractions")
        if not all(math.isfinite(t) for t in self.knots):
            raise LossEngineError("knots must be finite")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise LossEngineError("knots must be strictly increasing")
        if len(self.cumulated) != len(amps):
            raise LossEngineError("one cumulated row per amplitude required")
        for row in self.cumulated:
            if len(row) != len(self.knots):
                raise LossEngineError("one cumulated value per knot required")
            if not all(math.isfinite(v) for v in row):
                raise LossEngineError("cumulated intensities must be finite")
            if row[0] < 0 or any(b < a - 1e-15 for a, b in zip(row, row[1:])):
                raise LossEngineError(
                    "cumulated intensities must be non-negative and non-decreasing")
        grid = np.concatenate([[0.0], np.asarray(self.knots, dtype=float)])
        values = np.column_stack([np.zeros(len(amps)),
                                  np.asarray(self.cumulated, dtype=float)])
        object.__setattr__(self, "_knot_grid", grid)
        object.__setattr__(self, "_value_grid", values)

    @property
    def n_modes(self) -> int:
        return len(self.amplitudes)

    @property
    def horizon(self) -> float:
        return self.knots[-1]

    def aggregate_cumulated(self, t: float) -> np.ndarray:
        """Aggregate cumulated intensity of every amplitude at time t."""
        _check_time(t)
        grid = self._knot_grid
        values = self._value_grid
        if t <= grid[-1]:
            k = np.searchsorted(grid, t, side="right") - 1
            if grid[k] == t:
                return values[:, k].copy()
            w = (t - grid[k]) / (grid[k + 1] - grid[k])
            return values[:, k] + w * (values[:, k + 1] - values[:, k])
        # constant-slope extrapolation using the final interval
        slope = (values[:, -1] - values[:, -2]) / (grid[-1] - grid[-2])
        return values[:, -1] + slope * (t - grid[-1])

    def total_cumulated(self, amplitude: int) -> float:
        """Aggregate cumulated intensity of one amplitude at the last knot."""
        j = self.amplitudes.index(amplitude)
        return self.cumulated[j][-1]

    def with_cumulated(self, cumulated) -> "IntensitySchedule":
        rows = tuple(tuple(float(v) for v in row) for row in cumulated)
        return replace(self, cumulated=rows)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "amplitudes": list(self.amplitudes),
            "knots_years": list(self.knots),
            "cumulated": [list(row) for row in self.cumulated],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, doc: dict) -> "IntensitySchedule":
        try:
            return cls(
                model=doc["model"],
                amplitudes=tuple(int(a) for a in doc["amplitudes"]),
                knots=tuple(float(t) for t in doc["knots_years"]),
                cumulated=tuple(tuple(float(v) for v in row) for row in doc["cumulated"]),
            )
        except KeyError as exc:
            raise LossEngineError(f"schedule document missing key {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "IntensitySchedule":
        return cls.from_dict(json.loads(text))


def cluster_cumulated_intensity(schedule: IntensitySchedule, pool: PoolSpec,
                                amplitude: int, t: float) -> float:
    """Per-cluster cumulated intensity of one amplitude at time t.

    Schedules store the aggregate value — the per-cluster intensity times the
    number of size-``amplitude`` clusters of the whole pool — so this divides
    by C(names, amplitude) (in log space, the binomial is astronomically
    large mid-range).
    """
    if schedule.model != GPCL:
        raise LossEngineError("per-cluster intensities are defined for gpcl schedules")
    if amplitude not in schedule.amplitudes:
        raise LossEngineError(f"unknown amplitude {amplitude}")
    j = schedule.amplitudes.index(amplitude)
    aggregate = float(schedule.aggregate_cumulated(t)[j])
    return aggregate * math.exp(-log_binomial(pool.names, amplitude))


@dataclass(frozen=True)
class LossDistribution:
    """Distribution of the default count over {0..names} at one time."""

    time: float
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise LossEngineError("probability vector must be one-dimensional")
        total = float(probs.sum())
        if not math.isfinite(total):  # a nan or an infinity reaches the sum
            raise LossEngineError("probabilities must be finite")
        if probs.min() < -_NEGATIVE_CLAMP_TOL:
            raise LossEngineError(
                f"negative probability {probs.min():.3e} beyond clamp tolerance")
        if abs(total - 1.0) > 1e-10:
            raise LossEngineError(f"probabilities sum to {total!r}, not 1")
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        object.__setattr__(self, "probs", probs)

    @property
    def max_count(self) -> int:
        return len(self.probs) - 1

    def expected_count(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)

    def survival_function(self) -> np.ndarray:
        """P(count >= k) for k = 0..max_count."""
        return np.concatenate([[1.0], 1.0 - np.cumsum(self.probs)[:-1]])


# ---------------------------------------------------------------------------
# gpcl: forward Kolmogorov equation
# ---------------------------------------------------------------------------

def cumulated_generator(pool: PoolSpec, schedule: IntensitySchedule,
                        t0: float, t1: float) -> np.ndarray:
    """Integral over [t0, t1] of the transition-rate matrix of the
    cluster-adjusted counting chain.

    Entry (x, y) for x > y with x - y in the amplitude set is
    C(names - y, x - y) times the per-cluster cumulated-intensity increment;
    the diagonal balances each column to zero; nothing below the diagonal
    (defaults cannot be undone). Indexing is (to-state, from-state).
    """
    if schedule.model != GPCL:
        raise LossEngineError("cumulated generator is defined for gpcl schedules")
    if not (0.0 <= t0 < t1):
        raise LossEngineError(f"invalid interval [{t0}, {t1}], need 0 <= t0 < t1")
    m = pool.names
    increments = schedule.aggregate_cumulated(t1) - schedule.aggregate_cumulated(t0)
    gen = np.zeros((m + 1, m + 1))
    diag = np.zeros(m + 1)
    for amplitude, dv in zip(schedule.amplitudes, increments):
        if dv <= 0.0 or amplitude > m:
            continue
        ratio = _binomial_ratio_column(m, amplitude)  # zero where amplitude > m - y
        weights = dv * ratio[: m + 1 - amplitude]
        rows = np.arange(amplitude, m + 1)
        gen[rows, rows - amplitude] += weights
        diag[: m + 1 - amplitude] -= weights
    gen[np.diag_indices(m + 1)] += diag
    return gen


def matrix_exponential(generator: np.ndarray) -> np.ndarray:
    """exp of a cumulated generator via Padé scaling-and-squaring.

    Verifies the probability-conservation contract on the way out: columns
    sum to one within 1e-9 and any negative entries (roundoff) are clamped,
    with the clamp magnitude logged.
    """
    gen = np.asarray(generator, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise LossEngineError("generator must be a square matrix")
    if not np.all(np.isfinite(gen)):
        raise LossEngineError("generator has non-finite entries")
    # imported here, not at module level, so that a process which only prices
    # or builds term structures never loads scipy
    import scipy.linalg

    result = scipy.linalg.expm(gen)
    most_negative = float(result.min())
    if most_negative < 0.0:
        if most_negative < -_NEGATIVE_CLAMP_TOL:
            log.warning("matrix exponential clamped entries as low as %.3e", most_negative)
        else:
            log.debug("matrix exponential clamped entries as low as %.3e", most_negative)
        result = np.clip(result, 0.0, None)
    column_sums = result.sum(axis=0)
    if np.max(np.abs(column_sums - 1.0)) > _COLUMN_SUM_TOL:
        raise LossEngineError(
            f"matrix exponential lost probability mass: worst column sum "
            f"{column_sums[np.argmax(np.abs(column_sums - 1.0))]!r}")
    return result


def _knot_pieces(schedule: IntensitySchedule, t: float) -> list[tuple[float, float]]:
    """[0, t] split at schedule knots (intensities are constant inside each piece)."""
    cuts = [k for k in schedule.knots if k < t]
    edges = [0.0] + cuts + [t]
    return list(zip(edges[:-1], edges[1:]))


def gpcl_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float) -> LossDistribution:
    """Counting distribution of the cluster-adjusted model at time t.

    Ordered product of one matrix exponential per knot-to-knot piece of
    [0, t]; generators of different pieces need not commute, so the product
    runs oldest-first. With a single piece this is the plain one-exponential
    solution of the forward equation.
    """
    _check_time(t)
    state = np.zeros(pool.names + 1)
    state[0] = 1.0
    if t > 0:
        for a, b in _knot_pieces(schedule, t):
            gen = cumulated_generator(pool, schedule, a, b)
            state = matrix_exponential(gen) @ state
    return LossDistribution(time=t, probs=state)


# ---------------------------------------------------------------------------
# gpl: Panjer recursion with cap
# ---------------------------------------------------------------------------

def compound_poisson_panjer(amplitudes, cumulated, n_states: int) -> np.ndarray:
    """P(Z = n) for n = 0..n_states-1 where Z sums independent Poisson modes
    ``Z = sum_j amplitude_j * N_j`` with ``N_j ~ Poisson(cumulated_j)``.

    This is the Panjer recursion for a compound Poisson sum with discrete
    severities: p(0) = exp(-Lambda), p(n) = (1/n) sum_j a_j L_j p(n - a_j).
    """
    amplitudes = [int(a) for a in amplitudes]
    cumulated = np.asarray(cumulated, dtype=float)
    if np.any(cumulated < 0):
        raise LossEngineError("cumulated intensities must be non-negative")
    probs = np.zeros(n_states)
    probs[0] = math.exp(-float(cumulated.sum()))
    weights = [(a, a * lam) for a, lam in zip(amplitudes, cumulated) if lam > 0]
    for n in range(1, n_states):
        acc = 0.0
        for a, w in weights:
            if a <= n:
                acc += w * probs[n - a]
        probs[n] = acc / n
    return probs


def gpl_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float) -> LossDistribution:
    """Counting distribution of the capped model at time t: exact Panjer
    probabilities on {0..names-1}, all remaining mass lumped at the cap."""
    if schedule.model != GPL:
        raise LossEngineError("gpl_distribution requires a gpl schedule")
    _check_time(t)
    lams = schedule.aggregate_cumulated(t)
    body = compound_poisson_panjer(schedule.amplitudes, lams, pool.names)
    probs = np.append(body, max(0.0, 1.0 - body.sum()))
    return LossDistribution(time=t, probs=probs)


# ---------------------------------------------------------------------------
# term structures: one uniformised forward equation for both models
# ---------------------------------------------------------------------------

_POISSON_TAIL = 1e-16
_MEMO_ENTRIES = 32  # knot intervals a KnotMemo holds


class KnotMemo:
    """Least-recently-used store of the kernel's per-knot-interval results.

    ``distribution_term_structure`` keys each knot interval on everything its
    rows and end state depend on, so one memo may serve any sequence of
    calls; it pays off when calls share leading knot intervals, as the
    calibrator's do. It holds at most ``_MEMO_ENTRIES`` intervals, few
    enough that it costs little memory and does not outlive one run of
    related calls. The lock is held only for a lookup or an insert, so
    threads may share a memo.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > _MEMO_ENTRIES:
                self._entries.popitem(last=False)


def distribution_term_structure(pool: PoolSpec, schedule: IntensitySchedule,
                                times, memo: KnotMemo | None = None) -> np.ndarray:
    """Counting distributions at several times, stacked as rows.

    ``times`` must be finite, non-negative and non-decreasing. Both models
    are pure-birth Markov chains on {0..names} whose rates are constant
    inside each knot interval (gpl: the compound Poisson count, with the cap
    state absorbing), so one uniformised forward equation serves both. In an
    interval with transition-rate matrix G and total intensity density q,
    the state s years into the interval is sum_k Poisson(k; q s) P^k v,
    where v is the state at its start and P = I + G/q. The series runs until
    its Poisson tail over the interval is below 1e-16, and every term is
    non-negative, so nothing cancels. The final interval's slope also covers
    extrapolation beyond the last knot. ``gpl_distribution`` (Panjer) and
    ``gpcl_distribution`` (matrix exponentials) remain the single-time
    references.

    The state at a knot depends only on the intervals before it. With a
    ``memo``, each interval's rows and end state are stored under a key of
    the model, the pool size, the interval's requested times and end, and
    the (amplitude, density) pairs of its modes with non-zero density, for
    it and every interval before it; a call whose leading intervals match an
    earlier one's copies their results instead of solving them again, and
    gets the same bits.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise LossEngineError("times must be a one-dimensional sequence")
    # written so that a nan fails every comparison; non-decreasing times
    # are finite when the last one is
    if len(times) and not (times[0] >= 0 and math.isfinite(times[-1])
                           and np.all(np.diff(times) >= 0)):
        raise LossEngineError("times must be finite, non-negative and non-decreasing")
    n_states = pool.names + 1
    out = np.empty((len(times), n_states))
    state = np.zeros(n_states)
    state[0] = 1.0
    state.flags.writeable = False
    lo = int(np.searchsorted(times, 0.0, side="right"))
    out[:lo] = state
    if lo == len(times):
        return out
    grid = schedule._knot_grid
    # schedules may dip by roundoff between knots; a rate is never negative
    densities = (np.maximum(np.diff(schedule._value_grid, axis=1), 0.0)
                 / np.diff(grid)).T.tolist()
    # the final interval's slope carries on beyond the last knot
    his = np.searchsorted(times, grid[1:-1], side="right").tolist() + [len(times)]
    ends = np.minimum(grid[1:-1], times[-1]).tolist() + [float(times[-1])]
    key = (schedule.model, pool.names)
    for start, hi, end, slopes in zip(grid.tolist(), his, ends, densities):
        active = tuple((a, s) for a, s in zip(schedule.amplitudes, slopes) if s > 0.0)
        key = (key, times[lo:hi].tobytes(), end, active)
        found = memo.get(key) if memo is not None else None
        if found is None:
            found = _interval_rows(pool, schedule.model, active, state,
                                   times[lo:hi] - start, end - start)
            if memo is not None:
                memo.put(key, found)
        rows, state = found
        out[lo:hi] = rows
        lo = hi
        if lo == len(times):
            break
    out /= out.sum(axis=1, keepdims=True)
    return out


def _interval_rows(pool: PoolSpec, model: str, active, state: np.ndarray,
                   offsets: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """States at ``offsets`` years into one knot interval, and at its end
    ``length`` years in, from ``state`` at its start; ``active`` holds the
    (amplitude, intensity density) pairs of the interval's modes with
    non-zero density. Both arrays are read-only, so a memo may hand them
    out."""
    if not active:
        return np.broadcast_to(state, (len(offsets), len(state))), state
    q = sum(s for _, s in active)
    transition = _unit_transition_matrix(pool, model, [(a, s / q) for a, s in active])
    weights = _poisson_weights(q * np.append(offsets, length))
    krylov = np.empty((weights.shape[1], len(state)))
    krylov[0] = state
    for j in range(1, len(krylov)):
        np.dot(transition, krylov[j - 1], out=krylov[j])
    rows = weights @ krylov
    rows.flags.writeable = False
    return rows[:-1], rows[-1]


def _unit_transition_matrix(pool: PoolSpec, model: str, shares) -> np.ndarray:
    """P = I + G/q for one knot interval, indexed (to-state, from-state).

    ``shares`` are (amplitude, share) pairs, the shares being the modes'
    intensity densities over their sum q. A state leaves at rate at most q
    in both models (gpcl: the binomial ratio is at most one; gpl: exactly q
    below the cap, zero at it), so every entry is non-negative and each
    column sums to one. Sub-diagonal a is the strided view starting at flat
    index a * n.
    """
    m = pool.names
    n = m + 1
    p = np.zeros((n, n))
    flat = p.reshape(-1)
    for amplitude, share in shares:
        if model == GPCL:
            ratio = _binomial_ratio_column(m, amplitude)  # zero beyond the survivors
            if amplitude <= m:
                flat[amplitude * n::n + 1] += share * ratio[:n - amplitude]
            flat[::n + 1] += share * (1.0 - ratio)
        else:
            jump = min(amplitude, m)
            flat[jump * n::n + 1][:m - jump] += share
            p[m, m - jump:m] += share  # jumps reaching the cap
    if model == GPL:
        p[m, m] = 1.0
    return p


def _poisson_weights(means: np.ndarray) -> np.ndarray:
    """Poisson(mean) probabilities of 0..K jumps, one row per mean, where K is
    the smallest count with P(Poisson(means[-1]) > K) below 1e-16; the last
    mean must be the largest.

    Computed in log space, so that large means neither overflow nor
    underflow, over a support reaching about ten standard deviations past the
    largest mean, beyond which the Chernoff bound puts the mass below 1e-22.
    The tail is summed smallest term first.
    """
    top = means[-1]
    k = np.arange(int(top + 10.0 * math.sqrt(top)) + 41)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = k * np.log(means)[:, None] - means[:, None] - _log_factorials(len(k))
    log_w[:, 0] = -means  # also right for mean 0, where 0 * log 0 is nan
    weights = np.exp(log_w)
    tails = np.cumsum(weights[-1, ::-1])[::-1]  # tails[k] = P(N >= k)
    return weights[:, :int(np.argmax(tails[1:] < _POISSON_TAIL)) + 1]


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(size)])


def _log_factorials(count: int) -> np.ndarray:
    """log k! for k = 0..count-1, from a table built on first use and sized
    to a power of two so that few tables are ever built."""
    return _log_factorial_table(1 << max(6, (count - 1).bit_length()))[:count]


# ---------------------------------------------------------------------------
# counting-process intensities of the four constructions
# ---------------------------------------------------------------------------

def counting_intensity(strategy: str, pool: PoolSpec, cluster_rates: dict[int, float],
                       count: int) -> float:
    """Intensity of the pool counting process given ``count`` defaults so far.

    ``cluster_rates`` maps amplitude -> per-cluster rate (size-homogeneous).
    The four constructions:

    * ``repeated``: sum_j j C(M, j) rate_j (state-independent),
    * ``s0``: sum_j min(j, M - count) C(M, j) rate_j (count capped at M),
    * ``s1``: (1 - count/M) sum_j j C(M, j) rate_j (names default once),
    * ``s2``: sum_j j C(M - count, j) rate_j (clusters of survivors only).
    """
    if strategy not in STRATEGIES:
        raise LossEngineError(f"unknown strategy {strategy!r}")
    m = pool.names
    if not 0 <= count <= m:
        raise LossEngineError(f"count must lie in [0, {m}]")
    total = 0.0
    for amplitude, rate in cluster_rates.items():
        amplitude = int(amplitude)
        if rate < 0:
            raise LossEngineError("cluster rates must be non-negative")
        if rate == 0.0 or amplitude < 1 or amplitude > m:
            continue
        log_rate = math.log(rate)
        if strategy == STRATEGY_REPEATED:
            total += amplitude * math.exp(log_binomial(m, amplitude) + log_rate)
        elif strategy == STRATEGY_CAPPED:
            room = max(m - count, 0)
            total += min(amplitude, room) * math.exp(log_binomial(m, amplitude) + log_rate)
        elif strategy == STRATEGY_SINGLE_NAME:
            total += (1.0 - count / m) * amplitude * math.exp(
                log_binomial(m, amplitude) + log_rate)
        else:  # s2
            lb = log_binomial(m - count, amplitude)
            if lb != -math.inf:
                total += amplitude * math.exp(lb + log_rate)
    return total
