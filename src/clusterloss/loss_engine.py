"""Exact loss distributions of the pool default-counting process.

Two model kinds share one piecewise-linear cumulated-intensity schedule:

* ``gpl``  — independent Poisson jump modes, total count capped at the pool
  size.
* ``gpcl`` — cluster-adjusted dynamics where a cluster of names can fire only
  while all its names survive.

Both counting processes are pure-birth Markov chains on {0..M} whose rates
are constant between schedule knots, so the distributions of both models,
at one time (``loss_distribution``) or at many (``distribution_term_structure``),
come from one uniformised forward-equation kernel.

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
import numbers
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
# the tables _jump_table keeps, one per pool size: at 1000 names the gpcl
# chances of three take 24 MB, and 32 MB while a fourth is built
_JUMP_TABLE_ENTRIES = 3
_JUMP_AND_STAY = np.array([1, 0])  # a mode's jump and, as amplitude zero, its stay


class LossEngineError(ValueError):
    """Raised for invalid schedules, pools or evaluation requests."""


@dataclass(frozen=True)
class PoolSpec:
    """Homogeneous pool: ``names`` credits of notional 1/names each,
    constant recovery on default."""

    names: int = 125
    recovery: float = 0.40

    def __post_init__(self):
        if not _is_integer(self.names):
            raise LossEngineError(f"pool size must be an integer, got {self.names!r}")
        if self.names < 1:
            raise LossEngineError("pool must contain at least one name")
        # a Python int: numpy integers wrap around (uint8(255) + 1 == 0)
        object.__setattr__(self, "names", int(self.names))
        if not 0.0 <= self.recovery <= 1.0:
            raise LossEngineError("recovery must lie in [0, 1]")

    @property
    def loss_per_default(self) -> float:
        return (1.0 - self.recovery) / self.names


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def log_binomial(n: int, k: int) -> float:
    """log C(n, k); -inf outside 0 <= k <= n."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@lru_cache(maxsize=_JUMP_TABLE_ENTRIES)
def _jump_table(names: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the moves out of states y = 0..names (columns),
    row a for amplitude a = 0..names + 1, where the last row stands for
    every amplitude above the pool size and amplitude zero for the stay:
    the gpcl jump chances C(names - y, a) / C(names, a), made in log space
    from the log-factorials in ``log_binomial``'s order; the cells
    min(y + a, names) * (names + 1) + y of the jumps in P, plus a, a view of
    one vector, as they depend on y + a alone; and the gpl chances of a jump
    and a stay, one below the cap and zero at it for every amplitude alike.
    """
    n = names + 1
    chances = np.zeros((n + 1, n))
    body = chances[:-1]  # amplitudes 0..names
    factorials = _log_factorials(n)
    # log (names - i)! at i = 0..names, and +inf past names, where no subset fits
    falling = np.concatenate((factorials[::-1], np.full(names, np.inf)))
    np.subtract(falling[:n], factorials[:, None], out=body)
    body -= np.lib.stride_tricks.sliding_window_view(falling, n)  # [a, y]: log (M - y - a)!
    body -= ((factorials[names] - factorials) - falling[:n])[:, None]
    np.exp(body, out=body)
    reach = np.arange(2 * n)
    shifted = np.lib.stride_tricks.sliding_window_view(np.minimum(reach, names) * n + reach, n)
    capped = np.array([reach[:n] < names, reach[:n] == names], dtype=float)
    chances.flags.writeable = capped.flags.writeable = False
    return chances, shifted, capped


def _jump_moves(names: int, model: str, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """The moves of each of ``amplitudes`` at unit density out of states
    y = 0..names, row 0 the jump, to min(y + a, names), and row 1 the stay:
    their chances and their flat cells to-state * (names + 1) + y in P, both
    (amplitudes, 2, names + 1) and made afresh from ``_jump_table``. This is
    the one description of the generator, which ``_unit_transition_matrix``,
    ``_stacked_generators``, the closed form's ``_commuting_tangents`` and
    ``_commuting_adjoints`` and the simulator's s2 firing chances read. The
    gpcl jump's chance is the binomial ratio, the gpl one's one below the
    cap, and the stay's one minus the jump's.
    """
    chances, shifted, capped = _jump_table(names)
    rows = np.minimum(amplitudes, names + 1)[:, None] * _JUMP_AND_STAY
    cells = shifted[rows]
    cells -= rows[..., None]
    moves = np.empty(cells.shape)
    if model == GPCL:
        jumps = chances[rows[:, 0]]
        moves[:, 0] = jumps
        moves[:, 1] = 1.0 - jumps
    else:
        moves[:] = capped
    return moves, cells


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

    Schedules of both kinds store the aggregate value — the per-cluster
    intensity times the number of size-``amplitude`` clusters of the whole
    pool — so this divides by C(names, amplitude) (in log space, the
    binomial is astronomically large mid-range).
    """
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
        if not probs.size:
            raise LossEngineError("probability vector is empty: it needs one entry per count")
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
_MEMO_ENTRIES = 32  # knot intervals _interval_rows keeps
_SERIES_CHUNK = 64  # series terms held at once


def distribution_term_structure(pool: PoolSpec, schedule: IntensitySchedule,
                                times, columns=None) -> np.ndarray:
    """Counting distributions at several times, stacked as rows, or with
    ``columns`` (one row per count) their products with those columns,
    shaped (times, columns).

    ``times`` must be finite, non-negative and non-decreasing. Both models
    are pure-birth Markov chains on {0..names} whose rates are constant
    inside each knot interval (gpl: the compound Poisson count, with the cap
    state absorbing), so one uniformised forward equation serves both. In an
    interval with transition-rate matrix G and total intensity density q,
    the state s years into the interval is sum_k Poisson(k; q s) P^k v,
    where v is the state at its start and P = I + G/q. The series runs until
    its Poisson tail over the interval is below 1e-16, and every term is
    non-negative, so nothing cancels; its terms are made 64 at a time in one
    buffer. The final interval's slope also covers extrapolation beyond the
    last knot. Each row is renormalised to sum to one; a row whose sum
    strays from one by more than 1e-9 is an error. With ``columns``, each
    interval's rows are multiplied by the columns and a column of ones,
    which gives the sums, so no full table of rows is made.

    The state at a knot depends only on the intervals before it, so each
    interval is solved by ``_interval_rows``, whose arguments name the
    interval and, through the arguments of the interval before it, every
    earlier one. Its bounded cache serves every caller in the process: a
    call whose leading intervals match an earlier call's reads their
    results instead of solving them again, and gets the same bits.
    """
    times = _checked_times(times)
    project = None
    if columns is not None:  # and a column of ones, whose products are the row sums
        columns = _checked_columns(pool, columns)
        project = np.ones((len(columns), columns.shape[1] + 1))
        project[:, :-1] = columns
    out = np.empty((len(times), pool.names + 1 if project is None else project.shape[1]))
    for lo, hi, _, interval in _interval_walk(pool, schedule, times):
        rows = _interval_rows(*interval)[0]
        if project is None:
            out[lo:hi] = rows
        else:
            np.dot(rows, project, out=out[lo:hi])
    if project is None:
        sums = out.sum(axis=1)
    else:
        out, sums = out[:, :-1], out[:, -1]
    deficits = np.abs(sums - 1.0)
    if not (deficits <= _MASS_TOL).all():  # a nan fails this too
        raise LossEngineError(f"forward equation lost probability mass: worst row sum "
                              f"{float(sums[np.argmax(deficits)])!r}")
    return out / sums[:, None]


def _checked_columns(pool: PoolSpec, columns) -> np.ndarray:
    """``columns`` as a float array of one row per count, or an error that
    names what is wrong with it. A read-only float64 array, such as a
    pricer's payout matrix, is taken as it is; anything else is copied."""
    message = (f"columns must be a two-dimensional table of numbers with {pool.names + 1} "
               f"rows, one per count")
    if not (isinstance(columns, np.ndarray) and columns.dtype == np.float64
            and not columns.flags.writeable):
        columns = _array_of(columns, "biuf", 2, message)
    elif columns.ndim != 2:
        raise LossEngineError(message)
    if len(columns) != pool.names + 1:
        raise LossEngineError(f"columns must have {pool.names + 1} rows, one per count, "
                              f"got {len(columns)}")
    if not np.isfinite(columns).all():
        raise LossEngineError("columns must be finite")
    return columns.astype(float, copy=False)


def _checked_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise LossEngineError("times must be a one-dimensional sequence")
    # written so that a nan fails every comparison; non-decreasing times
    # are finite when the last one is
    if len(times) and not (times[0] >= 0 and math.isfinite(times[-1])
                           and (times[1:] >= times[:-1]).all()):
        raise LossEngineError("times must be finite, non-negative and non-decreasing")
    return times


def _interval_walk(pool: PoolSpec, schedule: IntensitySchedule, times: np.ndarray):
    """The knot intervals, first to the one holding the last of ``times``,
    if any: (lo, hi, width, interval) each, where times[lo:hi] fall in the
    interval, ``width`` is its length between knots and ``interval`` is the
    argument tuple of ``_interval_rows`` that names it. A time at zero lies
    in the first interval at offset zero, where the Poisson weights are one
    on the first term, so its row is the start state e_0 bit for bit. The
    final interval's slope carries on beyond the last knot."""
    if not len(times):
        return
    knots, rises, widths = schedule.knots, schedule.cumulated.copy(), schedule.knots.copy()
    rises[:, 1:] -= schedule.cumulated[:, :-1]  # in place: np.diff's prepend= is slower
    widths[1:] -= knots[:-1]
    # schedules may dip by roundoff between knots; a rate is never negative
    densities = (np.maximum(rises, 0.0) / widths).T.tolist()
    his = np.searchsorted(times, knots[:-1], side="right").tolist() + [len(times)]
    ends = np.minimum(knots[:-1], times[-1]).tolist() + [float(times[-1])]
    lo, interval = 0, None
    for hi, end, width, slopes in zip(his, ends, widths.tolist(), densities):
        active = tuple((a, s) for a, s in zip(schedule.amplitudes, slopes) if s > 0.0)
        interval = (schedule.model, pool.names, interval, times[lo:hi].tobytes(), end, active)
        yield lo, hi, width, interval
        lo = hi
        if lo == len(times):
            return


def loss_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float) -> LossDistribution:
    """Counting distribution of the schedule's model at time t: the kernel's
    row (for gpl, with all mass beyond the pool size at the cap)."""
    return LossDistribution(time=t, probs=distribution_term_structure(pool, schedule, [t])[0])


@lru_cache(maxsize=_MEMO_ENTRIES)
def _interval_rows(model: str, names: int, previous: tuple | None, times: bytes,
                   end: float, active: tuple) -> tuple[np.ndarray, np.ndarray]:
    """States at the requested ``times`` (float64 bytes) of one knot
    interval and at its ``end``, summed over the series chunk by chunk;
    ``active`` holds the (amplitude, intensity density) pairs of the
    interval's modes with non-zero density.

    ``previous`` is the argument tuple of the interval before, whose end is
    this interval's start and whose end state is this one's start state, or
    None for the interval starting at time zero with no defaults. The
    arguments thus name everything the result depends on, and the cache
    keeps the ``_MEMO_ENTRIES`` intervals used last, for every caller and
    thread in the process. Its ``cache_info()`` misses count the intervals
    solved; its hits include each solve's lookup of the interval before it.
    Both arrays are read-only, so the cache may hand them out.
    """
    state, offsets, series = _interval_series(model, names, previous, times, end, active)
    if series is None:
        return np.broadcast_to(state, (len(offsets) - 1, len(state))), state
    _, transition, weights = series
    rows = None  # the first chunk's sum is taken as it is, with no pass over zeros
    for k, terms in _series_terms(transition, state, weights.shape[1]):
        part = weights[:, k:k + len(terms)] @ terms
        rows = part if rows is None else rows + part
    rows.flags.writeable = False
    return rows[:-1], rows[-1]


def _interval_series(model: str, names: int, previous: tuple | None, times: bytes,
                     end: float, active: tuple):
    """The knot interval named by ``_interval_rows``' arguments: its start
    state v, the offsets into it of ``times`` and, last, of its ``end``, and
    (q, P, weights) if a mode is active, else None: the total density q,
    P = I + G/q and the Poisson weights of q times each offset, one row each."""
    if previous is None:  # no defaults at time zero
        start, state = 0.0, np.eye(1, names + 1)[0]
        state.flags.writeable = False
    else:
        start, state = previous[4], _interval_rows(*previous)[1]  # [4]: its end
    offsets = np.append(np.frombuffer(times), end) - start
    if not active:
        return state, offsets, None
    q = sum(s for _, s in active)
    transition = _unit_transition_matrix(names, model, [(a, s / q) for a, s in active])
    return state, offsets, (q, transition, _poisson_weights(q * offsets))


def _series_terms(transition: np.ndarray, state: np.ndarray, n_terms: int):
    """The series terms x_k = P^k v, k < ``n_terms``, as (k, block) pairs
    whose block's rows are x_k, x_{k+1}, ..., at most ``_SERIES_CHUNK`` of
    them: views of one buffer, so memory does not grow with the series."""
    terms = np.empty((min(n_terms, _SERIES_CHUNK), len(state)))
    for k in range(0, n_terms, _SERIES_CHUNK):
        block = terms[:n_terms - k]
        block[0] = transition @ terms[-1] if k else state  # [-1]: the last block's end
        for j in range(1, len(block)):
            np.dot(transition, block[j - 1], out=block[j])
        yield k, block


def distribution_tangents(pool: PoolSpec, schedule: IntensitySchedule, times,
                          amplitudes, columns) -> np.ndarray:
    """Exact derivatives of ``distribution_term_structure(pool, schedule,
    times) @ columns`` with respect to the rise of each of ``amplitudes``'
    cumulated intensity over each knot interval, shaped (times, columns,
    amplitudes, knots). An amplitude need not be in the schedule: its
    derivative is taken at density zero. ``columns`` has one row per count.

    Where every requested amplitude's generator commutes with every knot
    interval's, the tangents are in closed form (``_commuting_tangents``): a
    rise of amplitude b over interval i moves the state x(t) by phi_i(t)
    G_b x(t). That is every gpl request, as capped shifts commute, and a
    gpcl request in which no interval has an active mode other than the one
    requested amplitude, or none at all; the active modes are those of the
    intervals' memo keys. Every other gpcl request takes the uniformised
    series (``_series_tangents``).

    The rows' renormalisation is left out: their total mass has zero
    derivative. The rows and start states come from ``_interval_rows``, so
    a call after the values costs no solve; tangents are not cached.
    """
    return _tangent_pass(pool, schedule, times, amplitudes, columns)


# a request whose tangent columns (amplitudes x knots) outnumber the live
# functionals by more than this factor is wide, and contracts the weights
# first, with either method: on the shipped schedules and panels the orders
# cost the same at 10-12 amplitudes, 40-48 columns against 48-50 functionals,
# for the series (CHANGES.md) and for the closed form (ROADMAP item 8)
_ADJOINT_CROSSOVER = 1


def _tangent_pass(pool: PoolSpec, schedule: IntensitySchedule, times, amplitudes,
                  columns, weights=None, reads=None) -> np.ndarray:
    """``distribution_tangents``, or, given functionals F_f = sum_t
    weights[t, f] T[t, reads[f]] of its result T, one payout column each,
    their derivatives, shaped (functionals, amplitudes, knots).

    Both methods order their work by one rule: a request whose tangent
    columns outnumber ``_ADJOINT_CROSSOVER`` times the functionals that read
    any weight is wide, and contracts the weights into the states first
    (``_commuting_adjoints``, ``_series_adjoints``), so its cost grows with
    the functionals; a narrow one makes the tangents
    (``_commuting_tangents``, ``_series_tangents``) and contracts them, one
    product per payout column."""
    times = _checked_times(times)
    amplitudes = tuple(amplitudes)
    for a in amplitudes:
        if not _is_integer(a):
            raise LossEngineError(f"tangent amplitudes must be integers, got {a!r}")
    amplitudes = tuple(int(a) for a in amplitudes)
    if not amplitudes or min(amplitudes) < 1:
        raise LossEngineError("tangents need one or more amplitudes, each at least 1")
    columns = _checked_columns(pool, columns)
    if not len(times):
        shape = (0, columns.shape[1]) if weights is None else (weights.shape[1],)
        return np.zeros(shape + (len(amplitudes), len(schedule.knots)))
    walk = list(_interval_walk(pool, schedule, times))
    modes = {a for *_, interval in walk for a, _ in interval[-1]}  # active anywhere
    commuting = schedule.model == GPL or all(modes <= {b} for b in amplitudes)
    if weights is not None and len(amplitudes) * len(schedule.knots) > (
            _ADJOINT_CROSSOVER * np.count_nonzero(weights.any(axis=0))):
        adjoints = _commuting_adjoints if commuting else _series_adjoints
        return adjoints(pool, schedule, times, walk, amplitudes, columns, weights, reads)
    tangents = (_commuting_tangents if commuting else _series_tangents)(
        pool, schedule, times, walk, amplitudes, columns)
    return tangents if weights is None else _contracted(tangents, weights, reads)


def _contracted(tangents: np.ndarray, weights: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """sum_t weights[t, f] tangents[t, reads[f]] for every functional f,
    (functionals, amplitudes, knots): one product per payout column."""
    out = np.empty((weights.shape[1],) + tangents.shape[2:])
    for column in np.unique(reads):
        read = reads == column
        out[read] = (weights[:, read].T @ tangents[:, column].reshape(len(tangents), -1)
                     ).reshape(-1, *tangents.shape[2:])
    return out


def _commuting_tangents(pool: PoolSpec, schedule: IntensitySchedule, times: np.ndarray,
                        walk: list, amplitudes: tuple, columns: np.ndarray) -> np.ndarray:
    """``distribution_tangents`` where the generator of every one of
    ``amplitudes`` commutes with that of every interval of ``walk``, the
    ``_interval_walk`` of ``times``.

    The generator G_b of amplitude b at unit density moves each state y to
    to_b(y) at rate chance_b(y), the jump of ``_jump_moves``. Where G_b
    commutes with every interval's generator, a rise of b over interval i,
    from T_{i-1} to T_i, moves the state x(t) by phi_i(t) G_b x(t) per unit,
    with phi_i(t) = clip((t - T_{i-1}) / (T_i - T_{i-1}), 0, 1) and no upper
    clip for the last interval, whose slope carries on past the last knot;
    at t = 0 every phi is zero.
    That holds for every gpl amplitude, as capped shifts commute, and for a
    gpcl amplitude whose intervals have no other active mode. Projected
    onto ``columns``, G_b x(t) is x(t) times the differences
    chance_b(y) (columns[to_b(y)] - columns[y]), so the tangents are one
    product of the memo's value rows with those differences, scaled by phi;
    nothing is summed over a series. The differences are built in blocks of
    amplitudes, each holding no more doubles than the result.
    """
    names = pool.names
    rows = np.concatenate([_interval_rows(*interval)[0] for *_, interval in walk])
    chances, cells = _jump_moves(names, schedule.model, amplitudes)
    starts = np.concatenate(([0.0], schedule.knots[:-1]))
    shares = np.maximum((times[:, None] - starts) / (schedule.knots - starts), 0.0)
    shares[:, :-1] = np.minimum(shares[:, :-1], 1.0)
    result = np.empty((len(times), columns.shape[1], len(amplitudes), len(schedule.knots)))
    # a block's differences, (names + 1) x block x columns doubles, are at
    # most the result's times x columns x amplitudes x knots
    block = max(1, len(times) * len(amplitudes) * len(schedule.knots) // (names + 1))
    for first in range(0, len(amplitudes), block):
        part = slice(first, first + block)
        differences = columns[cells[part, 0].T // (names + 1)]  # (counts, block, columns)
        differences -= columns[:, None, :]
        differences *= chances[part, 0].T[..., None]
        moves = (rows @ differences.reshape(names + 1, -1)).reshape(
            len(rows), -1, columns.shape[1])
        del differences  # before the next block's are made
        np.multiply(moves.transpose(0, 2, 1)[..., None], shares[:, None, None, :],
                    out=result[:, :, part])
    return result


def _commuting_adjoints(pool: PoolSpec, schedule: IntensitySchedule, times: np.ndarray,
                        walk: list, amplitudes: tuple, columns: np.ndarray,
                        weights: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """The derivatives of the functionals F_f = sum_t weights[t, f]
    T[t, reads[f]], where T is ``_commuting_tangents``' result over
    ``walk``, shaped (functionals, amplitudes, knots), with the weights
    contracted first, so that no tangent is made.

    With the closed form's phi and differences, F_f moves along b over
    interval i by D_c(b) . S_i(f), where c = reads[f], D_c(b) is column b of
    D_c[y, b] = chance_b(y) (columns[to_b(y), c] - columns[y, c]) and
    S_i = sum_t weights[t] phi_i(t) x(t). Over the times of interval k,
    phi_i is one for i < k, the interval's share ramp for i = k and zero
    for i > k, so with Z_k = rows_k^T [W_k, W_k phi_k] = [V_k, U_k], S_i is
    U_i plus the V_k of every later interval. The times of an interval lie
    between its knots, so its ramp needs no clip; past the last knot it
    carries on above one. The cost grows with the functionals, not with
    the tangent columns: one product of each interval's rows with its
    weights, and one of each payout column's differences with the S of the
    functionals that read it.
    """
    n, n_funcs, n_knots = pool.names + 1, weights.shape[1], len(schedule.knots)
    seeds, later = np.zeros((n, n_knots, n_funcs)), np.zeros((n, n_funcs))
    for k in reversed(range(len(walk))):
        lo, hi, width, interval = walk[k]
        ramp = (times[lo:hi] - (schedule.knots[k - 1] if k else 0.0)) / width
        held = weights[lo:hi]
        both = _interval_rows(*interval)[0].T @ np.hstack([held, held * ramp[:, None]])
        np.add(both[:, n_funcs:], later, out=seeds[:, k])
        later += both[:, :n_funcs]
    chances, cells = _jump_moves(pool.names, schedule.model, amplitudes)
    to, rates = cells[:, 0] // n, chances[:, 0]  # (amplitudes, counts)
    result = np.empty((n_funcs, len(amplitudes), n_knots))
    for column in np.unique(reads):
        read = reads == column
        differences = rates * (columns[to, column] - columns[:, column])  # D_c^T
        moved = differences @ seeds[:, :, read].reshape(n, -1)  # (amplitudes, knots x read)
        result[read] = moved.reshape(len(amplitudes), n_knots, -1).transpose(2, 0, 1)
    return result


def _series_tangents(pool: PoolSpec, schedule: IntensitySchedule, times: np.ndarray,
                     walk: list, amplitudes: tuple, columns: np.ndarray) -> np.ndarray:
    """``distribution_tangents`` from the uniformised series over ``walk``,
    the ``_interval_walk`` of ``times``; the pass of gpcl requests whose
    generators do not commute with the schedule's.

    A rise of r over an interval of width w adds the density r/w, so the
    generator G of the interval moves along G_b / w for amplitude b, where
    G_b is the generator of b at unit density. In an interval with active
    modes, P = I + G/q and x_k = P^k v as in the value kernel, the tangents
    follow the series with q held fixed: Y_{k+1} = P Y_k + (G_b / (q w)) x_k
    for the interval's own columns, and Y_{k+1} = P Y_k for the columns of
    earlier intervals, which start from their values at the interval's start
    (the block-triangular form of Van Loan, IEEE TAC 23(3), 1978). The x_k
    come from the value kernel's chunks, and the tangents' Poisson-weighted
    sums, projected onto ``columns``, are taken chunk by chunk too. In an
    interval with no active mode, the state v stands still and its tangent
    s years in is s G_b v / w. A time at zero has offset zero in the first
    interval, where Y_0 = 0, so its tangents are zero.
    """
    n_amps, n_cols = len(amplitudes), columns.shape[1]
    result = np.zeros((len(times), n_cols, len(schedule.knots), n_amps))
    # a view with (interval, amplitude) flattened, interval-major
    out = result.reshape(len(times), n_cols, len(schedule.knots) * n_amps)
    project = np.ascontiguousarray(columns.T)
    generators = _stacked_generators(pool.names, schedule.model, amplitudes)
    # tangents of the state at an interval's start, one column per
    # (interval, amplitude), interval-major; later intervals' columns are zero
    tangents = np.zeros((pool.names + 1, out.shape[2]))
    for k, (lo, hi, width, interval) in enumerate(walk):
        state, offsets, series = _interval_series(*interval)
        own, used = slice(k * n_amps, (k + 1) * n_amps), (k + 1) * n_amps
        if series is None:
            source = generators(state) / width
            out[lo:hi, :, :used] = project @ tangents[:, :used]
            out[lo:hi, :, own] += offsets[:-1, None, None] * (project @ source)
            tangents[:, own] = offsets[-1] * source
            continue
        q, transition, weights = series
        y, end = tangents[:, :used].copy(), np.zeros((pool.names + 1, used))
        projected = np.empty((min(weights.shape[1], _SERIES_CHUNK), n_cols, used))
        flat, sums = projected.reshape(len(projected), -1), np.zeros((hi - lo, n_cols * used))
        for first, terms in _series_terms(transition, state, weights.shape[1]):
            for j, x in enumerate(terms):
                np.dot(project, y, out=projected[j])
                end += weights[-1, first + j] * y
                if first + j < weights.shape[1] - 1:  # no step past the last term
                    y = transition @ y
                    y[:, own] += generators(x) / (q * width)
            sums += weights[:-1, first:first + len(terms)] @ flat[:len(terms)]
        out[lo:hi, :, :used] = sums.reshape(hi - lo, n_cols, used)
        tangents[:, :used] = end
    return result.transpose(0, 1, 3, 2)


def _series_adjoints(pool: PoolSpec, schedule: IntensitySchedule, times: np.ndarray,
                     walk: list, amplitudes: tuple, columns: np.ndarray,
                     weights: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """The derivatives of the functionals F_f = sum_t weights[t, f]
    T[t, reads[f]], where T is ``_series_tangents``' result over ``walk``, the
    ``_interval_walk`` of ``times``, shaped (functionals, amplitudes,
    knots): the reverse (adjoint) form of that pass, whose cost grows with
    the functionals, not with the tangent columns (Giles and Glasserman,
    "Smoking adjoints", Risk, 2006).

    The intervals are taken last first. In one with active modes, the
    functionals read sum_n S_n . Y_n of the series of tangents Y_n, where
    the seed S_n is the weights at the interval's times, summed with the
    Poisson weights of term n and lifted onto the states by the column each
    functional reads, plus the adjoint mu' handed back from the later
    intervals, weighted as the interval's end. The backward recurrence
    mu_n = S_n + P^T mu_{n+1}, from mu = 0 past the last term, then gives
    the derivative along amplitude b as sum_n mu_{n+1} . G_b x_n / (q w),
    and mu_0 is the adjoint of the interval's start state, handed to the
    interval before. The terms x_n are made again from the memo's start
    state, chunk by chunk, last chunk first, from each chunk's first term,
    kept on a first pass. In an interval with no active mode, whose
    tangents are T + s G_b v / w, the seed is the weights times each offset
    s, plus mu' times the end's offset. A functional reads nothing after the
    last time it weighs, so its adjoint is zero over the intervals past
    that time, which leave it out.
    """
    names, n_funcs = pool.names, weights.shape[1]
    result = np.zeros((n_funcs, len(amplitudes), len(schedule.knots)))
    generators = _stacked_generators(names, schedule.model, amplitudes)
    weighed = weights != 0.0  # (times, functionals)
    last = np.where(weighed.any(axis=0), len(times) - 1 - np.argmax(weighed[::-1], axis=0), -1)
    live, adjoint = np.zeros(0, dtype=int), np.zeros((names + 1, 0))
    for k in reversed(range(len(walk))):
        lo, hi, width, interval = walk[k]
        reading = np.flatnonzero(last >= lo)
        if not len(reading):
            continue
        handed = np.zeros((names + 1, len(reading)))
        handed[:, np.searchsorted(reading, live)] = adjoint
        live, adjoint = reading, handed
        legs = weights[lo:hi, live]  # (times in the interval, live)
        lift = columns[:, reads[live]]  # (counts, live)
        state, offsets, series = _interval_series(*interval)
        if series is None:
            seed = lift * (offsets[:-1] @ legs) + offsets[-1] * adjoint
            result[live, :, k] = (generators(state).T @ seed).T / width
            adjoint = adjoint + lift * legs.sum(axis=0)
            continue
        q, transition, poisson = series
        n_terms = poisson.shape[1]
        firsts = [terms[0].copy() for _, terms in _series_terms(transition, state, n_terms)]
        mu, moved = np.zeros_like(adjoint), np.zeros((len(amplitudes), len(live)))
        for first in reversed(range(0, n_terms, _SERIES_CHUNK)):
            _, terms = next(_series_terms(transition, firsts[first // _SERIES_CHUNK],
                                          min(_SERIES_CHUNK, n_terms - first)))
            summed = poisson[:-1, first:first + len(terms)].T @ legs  # (terms, live)
            for j in reversed(range(len(terms))):
                if first + j < n_terms - 1:  # mu_{n+1} is zero past the last term
                    moved += generators(terms[j]).T @ mu
                mu = transition.T @ mu
                mu += lift * summed[j]
                mu += poisson[-1, first + j] * adjoint
        result[live, :, k] = moved.T / (q * width)
        adjoint = mu
    return result


def _stacked_generators(names: int, model: str, amplitudes):
    """A function of a state x giving the columns G_b x, (names + 1,
    amplitudes), where G_b = P - I is the generator of amplitude b at unit
    density, P being ``_unit_transition_matrix`` of b alone: its non-zero
    entries, read from ``_jump_moves``. Each row's entries are summed in
    the order of their from-states. The series tangent pass applies it to
    every series term; it serves the gpcl requests whose generators do not
    commute with the schedule's, while the others take the closed form of
    ``_commuting_tangents``."""
    n, n_amps = names + 1, len(amplitudes)
    chances, cells = _jump_moves(names, model, amplitudes)
    rates, stays = chances[:, 0], chances[:, 1] - 1.0  # as (I + G) - I leaves the diagonal
    jumps, held = rates != 0.0, stays != 0.0
    mode, states = np.arange(n_amps)[:, None], np.broadcast_to(np.arange(n), rates.shape)
    # a jump lands above the state it leaves, so the diagonal comes last
    rows = np.concatenate([(cells[:, 0] // n * n_amps + mode)[jumps],
                           (states * n_amps + mode)[held]])
    cols = np.concatenate([states[jumps], states[held]])
    rates = np.concatenate([rates[jumps], stays[held]])
    return lambda x: np.bincount(rows, rates * x[cols], n * n_amps).reshape(n, n_amps)


def _unit_transition_matrix(names: int, model: str, shares) -> np.ndarray:
    """P = I + G/q for one knot interval, indexed (to-state, from-state).

    ``shares`` are (amplitude, share) pairs, the shares being the modes'
    intensity densities over their sum q. A state leaves at rate at most q
    in both models (gpcl: the binomial ratio is at most one; gpl: exactly q
    below the cap, zero at it), so every entry is non-negative and each
    column sums to one. Each mode adds its share of the chances of its
    ``_jump_moves`` to their cells, mode after mode in the order given: a
    mode's moves reach distinct cells, apart from the gpcl stand-in cell at
    the pool size, whose jump chance is zero. The gpl cap absorbs.
    """
    n = names + 1
    amplitudes, weights = zip(*shares)
    moves, cells = _jump_moves(names, model, amplitudes)
    moves *= np.array(weights)[:, None, None]  # fresh arrays: weighted in place
    p = np.bincount(cells.ravel(), moves.ravel(), n * n).reshape(n, n)  # adds in order
    if model == GPL:
        p[names, names] = 1.0
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

    ``cluster_rates`` maps amplitude -> per-cluster rate (size-homogeneous);
    an amplitude is an integer of at least 1, and one above the pool size
    adds nothing. The four constructions:

    * ``repeated``: sum_j j C(M, j) rate_j (state-independent),
    * ``s0``: sum_j min(j, M - count) C(M, j) rate_j (count capped at M),
    * ``s1``: (1 - count/M) sum_j j C(M, j) rate_j (names default once),
    * ``s2``: sum_j j C(M - count, j) rate_j (clusters of survivors only).
    """
    if strategy not in STRATEGIES:
        raise LossEngineError(f"unknown strategy {strategy!r}")
    m = pool.names
    if not (_is_integer(count) and 0 <= count <= m):
        raise LossEngineError(f"count must be an integer in [0, {m}], got {count!r}")
    total = 0.0
    for amplitude, rate in cluster_rates.items():
        # int() would read 2.5 as 2, True as 1 and '3' as 3
        if not (_is_integer(amplitude) and amplitude >= 1):
            raise LossEngineError(f"cluster rate amplitudes must be integers of at least 1, "
                                  f"got {amplitude!r}")
        amplitude = int(amplitude)
        if not (0 <= rate < math.inf):  # a nan fails this too
            raise LossEngineError(f"cluster rate of amplitude {amplitude} must be "
                                  f"non-negative and finite, got {rate!r}")
        if rate == 0.0 or amplitude > m:
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
