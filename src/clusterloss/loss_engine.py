"""Exact loss distributions of the pool default-counting process.

Two model kinds share one piecewise-linear cumulated-intensity schedule:

* ``gpl``  — independent Poisson jump modes, total count capped at the pool
  size.
* ``gpcl`` — cluster-adjusted dynamics where a cluster of names can fire only
  while all its names survive.

Both counting processes are pure-birth Markov chains on {0..M} whose rates
are constant between schedule knots, so the distributions of both models,
at one time (``gpl_distribution``, ``gpcl_distribution``) or at many
(``distribution_term_structure``), come from one uniformised forward-equation
kernel.

Schedules store, for each jump amplitude, the *aggregate* cumulated jump
intensity: for ``gpl`` the mode's Poisson cumulated intensity, for ``gpcl``
the per-cluster cumulated intensity times the number of same-size clusters of
the undefaulted pool, C(M, amplitude). Values are knotted at quoted
maturities, linear in between, with constant-slope extrapolation beyond the
last knot.
"""
from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

GPL = "gpl"
GPCL = "gpcl"
MODEL_KINDS = (GPL, GPCL)

STRATEGY_REPEATED = "repeated"
STRATEGY_CAPPED = "s0"
STRATEGY_SINGLE_NAME = "s1"
STRATEGY_CLUSTER = "s2"
STRATEGIES = (STRATEGY_REPEATED, STRATEGY_CAPPED, STRATEGY_SINGLE_NAME, STRATEGY_CLUSTER)

_NEGATIVE_CLAMP_TOL = 1e-12
_MASS_TOL = 1e-9  # largest |row sum - 1| the kernel renormalises
_BINOMIAL_CACHE_ENTRIES = 1024  # one 1000-name gpcl scan's (names, amplitude) keys


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


@lru_cache(maxsize=_BINOMIAL_CACHE_ENTRIES)
def _binomial_ratio_column(names: int, amplitude: int) -> np.ndarray:
    """C(names - y, amplitude) / C(names, amplitude) for y = 0..names,
    read-only because the cache hands out the same array to every caller.

    Computed in log space: C(125, 62) ~ 1e36 overflows nothing here because
    only the ratio is ever exponentiated.
    """
    denom = log_binomial(names, amplitude)
    out = np.zeros(names + 1)
    for y in range(names + 1):
        num = log_binomial(names - y, amplitude)
        out[y] = 0.0 if num == -math.inf else math.exp(num - denom)
    out.flags.writeable = False
    return out


def _array_of(value, kinds: str, ndim: int, message: str) -> np.ndarray:
    """A copy of ``value`` as an ``ndim``-dimensional array of dtype kind in ``kinds``."""
    try:
        array = np.array(value)  # a copy: the caller keeps its input
    except ValueError as exc:  # numpy refuses ragged nesting
        raise LossEngineError(message) from exc
    if array.dtype.kind not in kinds or array.ndim != ndim:
        raise LossEngineError(message)
    return array


@dataclass(frozen=True, eq=False)
class IntensitySchedule:
    """Piecewise-linear cumulated jump intensities per amplitude.

    ``cumulated[j, k]`` is the aggregate cumulated intensity of amplitude
    ``amplitudes[j]`` at ``knots[k]`` (zero at time zero, linear between
    knots, constant slope after the last knot). ``knots`` and ``cumulated``
    are read-only float64 copies of the caller's sequences or arrays, so a
    schedule never changes and threads may share it; equality is by value.
    """

    model: str
    amplitudes: tuple[int, ...]
    knots: np.ndarray
    cumulated: np.ndarray

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise LossEngineError(f"unknown model kind {self.model!r}")
        amps = _array_of(self.amplitudes, "iu", 1,
                         "amplitudes must be strictly increasing integers >= 1")
        if amps.size == 0:
            raise LossEngineError("schedule needs at least one amplitude")
        if amps[0] < 1 or not (amps[1:] > amps[:-1]).all():
            raise LossEngineError("amplitudes must be strictly increasing integers >= 1")
        knots = _array_of(self.knots, "iuf", 1, "knots must be positive year fractions"
                          ).astype(np.float64, copy=False)
        if knots.size == 0 or knots[0] <= 0.0:
            raise LossEngineError("knots must be positive year fractions")
        # written so that a nan fails: increasing knots are finite when the last is
        if not (knots[-1] < math.inf and (knots[1:] > knots[:-1]).all()):
            raise LossEngineError("knots must be finite" if not np.isfinite(knots).all()
                                  else "knots must be strictly increasing")
        cumulated = _array_of(self.cumulated, "iuf", 2, "cumulated must be a table of numbers"
                              ).astype(np.float64, copy=False)
        if len(cumulated) != len(amps):
            raise LossEngineError("one cumulated row per amplitude required")
        if cumulated.shape[1] != len(knots):
            raise LossEngineError("one cumulated value per knot required")
        # likewise, rows rising from zero or more to below infinity are finite
        if not (cumulated[:, 0].min() >= 0 and cumulated[:, -1].max() < math.inf
                and (cumulated[:, 1:] >= cumulated[:, :-1] - 1e-15).all()):
            raise LossEngineError(
                "cumulated intensities must be finite" if not np.isfinite(cumulated).all()
                else "cumulated intensities must be non-negative and non-decreasing")
        knots.flags.writeable = False
        cumulated.flags.writeable = False
        object.__setattr__(self, "amplitudes", tuple(amps.tolist()))
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "cumulated", cumulated)

    def __eq__(self, other):
        return (isinstance(other, IntensitySchedule) and self.model == other.model
                and self.amplitudes == other.amplitudes
                and np.array_equal(self.knots, other.knots)
                and np.array_equal(self.cumulated, other.cumulated))

    def __hash__(self):
        # knots are positive and finite, so equal knots have equal bytes
        return hash((self.model, self.amplitudes, self.knots.tobytes()))

    def __reduce__(self):  # copies and unpickled schedules are read-only too
        return IntensitySchedule, (self.model, self.amplitudes, self.knots, self.cumulated)

    @property
    def n_modes(self) -> int:
        return len(self.amplitudes)

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    def aggregate_cumulated(self, t) -> np.ndarray:
        """Aggregate cumulated intensity of every amplitude at time t, shape
        (modes,), or at each of a one-dimensional array of times, (times, modes)."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1 or not (np.isfinite(times) & (times >= 0)).all():
            raise LossEngineError(f"time must be a finite, non-negative scalar or "
                                  f"one-dimensional array, got {t!r}")
        grid = np.concatenate(([0.0], self.knots))
        values = np.concatenate((np.zeros((1, self.n_modes)), self.cumulated.T))  # (grid, modes)
        k = np.searchsorted(grid, times, side="right") - 1  # grid[k] <= t
        lo = np.minimum(k, len(grid) - 2)
        a, b, start, end = values[lo], values[lo + 1], grid[lo], grid[lo + 1]
        out = a + ((times - start) / (end - start))[..., None] * (b - a)
        # constant-slope extrapolation using the final interval
        slope = (values[-1] - values[-2]) / (grid[-1] - grid[-2])
        out = np.where((times > grid[-1])[..., None],
                       values[-1] + slope * (times - grid[-1])[..., None], out)
        # at a knot, its own value: a + 1.0 * (b - a) need not equal b
        return np.where((grid[k] == times)[..., None], values[k], out)

    def with_cumulated(self, cumulated) -> "IntensitySchedule":
        return replace(self, cumulated=cumulated)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "amplitudes": list(self.amplitudes),
            "knots_years": self.knots.tolist(),
            "cumulated": self.cumulated.tolist(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, doc: dict) -> "IntensitySchedule":
        if not isinstance(doc, dict):
            raise LossEngineError("schedule document must be a JSON object")
        try:
            fields = doc["model"], doc["amplitudes"], doc["knots_years"], doc["cumulated"]
        except KeyError as exc:
            raise LossEngineError(f"schedule document missing key {exc}") from exc
        return cls(*fields)

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
    if amplitude > pool.names:
        raise LossEngineError(f"a pool of {pool.names} names holds no cluster of "
                              f"amplitude {amplitude}")
    j = schedule.amplitudes.index(amplitude)
    aggregate = float(schedule.aggregate_cumulated(t)[j])
    return aggregate * math.exp(-log_binomial(pool.names, amplitude))


@dataclass(frozen=True)
class LossDistribution:
    """Distribution of the default count over {0..names} at one time.

    The probabilities are kept as given, bit for bit, unless roundoff left
    negatives (down to -1e-12): those are clamped to zero and the rest
    renormalised. ``probs`` is a read-only copy, so a distribution can be
    shared.
    """

    time: float
    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)  # a copy: the caller keeps its array
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
        if probs.min() < 0.0:
            probs = np.clip(probs, 0.0, None)
            probs = probs / probs.sum()
        probs.flags.writeable = False
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
    extrapolation beyond the last knot. Each row is renormalised to sum to
    one; a row whose sum strays from one by more than 1e-9 is an error.

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
    knots, rises, widths = schedule.knots, schedule.cumulated.copy(), schedule.knots.copy()
    rises[:, 1:] -= schedule.cumulated[:, :-1]  # in place: np.diff's prepend= is slower
    widths[1:] -= knots[:-1]
    # schedules may dip by roundoff between knots; a rate is never negative
    densities = (np.maximum(rises, 0.0) / widths).T.tolist()
    # the final interval's slope carries on beyond the last knot
    his = np.searchsorted(times, knots[:-1], side="right").tolist() + [len(times)]
    ends = np.minimum(knots[:-1], times[-1]).tolist() + [float(times[-1])]
    key = (schedule.model, pool.names)
    for start, hi, end, slopes in zip([0.0] + knots.tolist(), his, ends, densities):
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
    sums = out.sum(axis=1)
    deficits = np.abs(sums - 1.0)
    if not np.all(deficits <= _MASS_TOL):  # a nan fails this too
        raise LossEngineError(f"forward equation lost probability mass: worst row sum "
                              f"{float(sums[np.argmax(deficits)])!r}")
    out /= sums[:, None]
    return out


def gpl_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float) -> LossDistribution:
    """Counting distribution of the capped model at time t: the kernel's row,
    with all mass beyond the pool size at the cap."""
    if schedule.model != GPL:
        raise LossEngineError("gpl_distribution requires a gpl schedule")
    return LossDistribution(time=t, probs=distribution_term_structure(pool, schedule, [t])[0])


def gpcl_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float) -> LossDistribution:
    """Counting distribution of the cluster-adjusted model at time t: the
    kernel's row."""
    if schedule.model != GPCL:
        raise LossEngineError("gpcl_distribution requires a gpcl schedule")
    return LossDistribution(time=t, probs=distribution_term_structure(pool, schedule, [t])[0])


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
        if not (0 <= rate < math.inf):  # a nan fails this too
            raise LossEngineError(f"cluster rate of amplitude {amplitude} must be "
                                  f"non-negative and finite, got {rate!r}")
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
