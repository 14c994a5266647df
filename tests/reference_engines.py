"""Reference engines the tests check the package against.

Each computes what the package computes by a different route:

* single-instrument legs and breakeven quotes, one function per leg, on a
  grid of distributions (``ReferenceGrid``), against ``PanelPricer``'s
  vectorised legs on the same distributions. Their payment dates come as a
  ``PaymentSchedule`` of year fractions, and ``pricing_times`` builds a
  grid from one schedule in year fractions, where the pricer builds its
  grid for the whole panel in whole days;
* ``panjer_distribution``: the capped-model distribution from Panjer's
  compound-Poisson recursion, with the residual tail lumped into the cap;
* ``expm_distribution``: the cluster-model distribution from an ordered
  product of matrix exponentials of the integrated transition-rate matrix,
  one per knot-to-knot piece, with binomial ratios in exact integer
  arithmetic; given ``single_name_generator``, the same product gives the
  s1 count law, whose chain defaults Hypergeometric(M, M - y, a) fresh
  names per shock of amplitude a from a scipy pmf table;
* ``expm_tangent``: the derivative of a distribution with respect to one
  amplitude's rise over one knot interval, from the matrix exponential of
  the block-triangular generator [[G, G_b], [0, G]] (Van Loan, IEEE TAC
  23(3), 1978), for both models;
* ``dense_transition_matrix`` and ``dense_generator_columns``: the
  kernel's transition matrix and generator columns built on dense
  matrices, one strided sub-diagonal per mode, against the kernel's jump
  moves, which must give the same bits;
* ``sample_shock_stream`` and ``apply_strategy``: the name-level simulation,
  one path at a time. Each mode's events get times by inverting uniforms
  under its piecewise-linear cumulated intensity, and each event hits a
  uniformly random set of names of its size. The four treatments of repeated
  defaults then run event by event on the merged, time-sorted stream, so s1
  and s2 keep every name's default time. This is the only place that tracks
  name identity. The package's ``empirical_distributions`` tracks counts
  alone: it cuts time into cells at the observation times and the knots,
  draws one Poisson total per path and cell and marks each event with a
  mode, and is checked against this simulation. Its s1 and s2 histograms
  depend on the seed and the path count alone, but not with the bits of
  the versions that drew event times.

* ``free_stepping`` and ``free_damped_step``: one fit's projected
  Levenberg-Marquardt trial step, solved on the sub-system of the
  increments not held or stopped on a bound, one ``np.linalg.solve`` per
  round, against the calibrator's stacked step, which keeps every
  increment in its system and gives a fixed one a unit row and column.

The distribution and tangent engines solve one time at a time and share
no code with the uniformised forward-equation kernel (the dense layouts
share its binomial ratios only); the name-level
simulation draws the names and event times that the count-only one never
draws.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.stats

from clusterloss.calibrator import _GRADIENT_TOL, _MAX_INCREMENT, _SCALE_FLOOR
from clusterloss.loss_engine import (
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
    _jump_table,
)
from clusterloss.market_data import (
    DAYS_PER_YEAR,
    MarketDataError,
    quarterly_payment_dates,
    year_fraction,
)
from clusterloss.pricer import PricingError, TrancheDef, tranche_payout_by_count
from clusterloss.simulator import SimulationError

_COLUMN_SUM_TOL = 1e-9

# ---------------------------------------------------------------------------
# payment schedules and grids in year fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaymentSchedule:
    """Premium payment times T_1 < ... < T_b (year fractions from valuation)
    with accrual fractions delta_i = T_i - T_{i-1}, T_0 = 0."""

    times: tuple[float, ...]
    dates: tuple[dt.date, ...] | None = None

    def __post_init__(self):
        if len(self.times) == 0:
            raise MarketDataError("empty payment schedule")
        prev = 0.0
        for t in self.times:
            if not (prev < t < math.inf):
                raise MarketDataError("payment times must be positive, finite and increasing")
            prev = t

    @property
    def maturity_time(self) -> float:
        return self.times[-1]

    @property
    def year_fractions(self) -> np.ndarray:
        return np.diff(np.concatenate([[0.0], np.asarray(self.times)]))

    @classmethod
    def quarterly(cls, valuation_date: dt.date, maturity: dt.date) -> "PaymentSchedule":
        dates = quarterly_payment_dates(valuation_date, maturity)
        times = tuple(year_fraction(valuation_date, d) for d in dates)
        return cls(times=times, dates=tuple(dates))

    @classmethod
    def from_times(cls, times) -> "PaymentSchedule":
        return cls(times=tuple(float(t) for t in times))


def pricing_times(payment_schedule: PaymentSchedule, grid_step_days: float = 30.0) -> np.ndarray:
    """Time grid for leg integrals: zero, every payment date, and a refinement
    grid of the given step, up to maturity, all in year fractions."""
    maturity = payment_schedule.maturity_time
    step = grid_step_days / DAYS_PER_YEAR
    refinement = np.arange(step, maturity, step)
    return np.unique(np.concatenate([[0.0], refinement, payment_schedule.times]))


# ---------------------------------------------------------------------------
# legs on a grid of distributions
# ---------------------------------------------------------------------------


class ReferenceGrid:
    """Counting distributions (rows over {0..names}) at a fixed time grid."""

    def __init__(self, pool: PoolSpec, times, probs):
        times = np.asarray(times, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(times), pool.names + 1):
            raise PricingError("probability matrix shape does not match grid")
        self.pool = pool
        self.times = times
        self.probs = probs

    def expected_tranched_losses(self, tranche: TrancheDef) -> np.ndarray:
        return self.probs @ tranche_payout_by_count(tranche, self.pool)

    def expected_default_fraction(self) -> np.ndarray:
        counts = np.arange(self.pool.names + 1)
        return self.probs @ (counts / self.pool.names)

    def expected_pool_loss(self) -> np.ndarray:
        return (1.0 - self.pool.recovery) * self.expected_default_fraction()

    def index_of(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t))
        if idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise PricingError(f"time {t} is not on the pricing grid")
        return idx


@dataclass(frozen=True)
class LegValues:
    """Present values per unit tranche (or pool) notional."""

    default_leg_pv: float
    premium_leg_pv_per_unit_spread: float
    upfront_pv: float = 0.0

    def __post_init__(self):
        if self.default_leg_pv < 0 or self.premium_leg_pv_per_unit_spread < 0:
            raise PricingError("leg values must be non-negative")


def _discounted_increments(times: np.ndarray, expected_losses: np.ndarray, curve,
                           maturity_time: float) -> float:
    """sum over grid cells of D(midpoint) * increment of the expected loss."""
    mask = times <= maturity_time + 1e-12
    t = times[mask]
    v = expected_losses[mask]
    if len(t) < 2:
        return 0.0
    midpoints = 0.5 * (t[1:] + t[:-1])
    return float(np.sum(curve.discount_factor(midpoints) * np.diff(v)))


def default_leg(grid: ReferenceGrid, tranche: TrancheDef, curve, maturity_time: float) -> float:
    """PV of tranche protection payments up to ``maturity_time``."""
    return _discounted_increments(grid.times, grid.expected_tranched_losses(tranche),
                                  curve, maturity_time)


def tranche_premium_leg(grid: ReferenceGrid, tranche: TrancheDef, curve,
                        schedule: PaymentSchedule) -> float:
    """PV of a unit running spread on the surviving tranche notional:
    sum_i delta_i D(T_i) (1 - expected tranched loss at T_i)."""
    etl = grid.expected_tranched_losses(tranche)
    pay_idx = [grid.index_of(t) for t in schedule.times]
    pay_times = np.asarray(schedule.times)
    return float(np.sum(schedule.year_fractions * curve.discount_factor(pay_times)
                        * (1.0 - etl[pay_idx])))


def tranche_legs(grid: ReferenceGrid, tranche: TrancheDef, curve,
                 schedule: PaymentSchedule) -> LegValues:
    return LegValues(
        default_leg_pv=default_leg(grid, tranche, curve, schedule.maturity_time),
        premium_leg_pv_per_unit_spread=tranche_premium_leg(grid, tranche, curve, schedule),
    )


def tranche_spread_or_upfront(legs: LegValues, is_upfront: bool = False,
                              running_premium: float = 0.05) -> float:
    """Breakeven quote for the tranche legs.

    Running convention: spread = default leg / annuity (natural units; multiply
    by 1e4 for bp). Upfront convention: upfront = default leg - running
    premium * annuity, as a fraction of tranche notional.
    """
    if is_upfront:
        return legs.default_leg_pv - running_premium * legs.premium_leg_pv_per_unit_spread
    if legs.premium_leg_pv_per_unit_spread <= 0.0:
        raise PricingError("tranche annuity is zero; tranche certainly wiped out")
    return (legs.default_leg_pv - legs.upfront_pv) / legs.premium_leg_pv_per_unit_spread


def index_spread(grid: ReferenceGrid, curve, schedule: PaymentSchedule) -> float:
    """Breakeven index spread (natural units).

    Numerator: discounted increments of the expected pool loss. Denominator:
    sum_i delta_i D(T_i) (1 - expected default fraction at T_i) — the premium
    notional ignores recovery, eroding one full name-share per default.
    """
    numerator = _discounted_increments(grid.times, grid.expected_pool_loss(),
                                       curve, schedule.maturity_time)
    idx = [grid.index_of(t) for t in schedule.times]
    fractions = grid.expected_default_fraction()[idx]
    pay_times = np.asarray(schedule.times)
    annuity = float(np.sum(schedule.year_fractions * curve.discount_factor(pay_times)
                           * (1.0 - fractions)))
    if annuity <= 0.0:
        raise PricingError("index annuity is zero")
    return numerator / annuity


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


def panjer_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float) -> LossDistribution:
    """Counting distribution of the capped model at time t: exact Panjer
    probabilities on {0..names-1}, all remaining mass lumped at the cap."""
    if schedule.model != GPL:
        raise LossEngineError("the Panjer reference requires a gpl schedule")
    lams = schedule.aggregate_cumulated(t)
    body = compound_poisson_panjer(schedule.amplitudes, lams, pool.names)
    probs = np.append(body, max(0.0, 1.0 - body.sum()))
    return LossDistribution(time=t, probs=probs)


# ---------------------------------------------------------------------------
# gpcl: forward Kolmogorov equation by matrix exponentials
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
    for amplitude, dv in zip(schedule.amplitudes, increments):
        if dv <= 0.0 or amplitude > m:
            continue
        clusters = math.comb(m, amplitude)
        for y in range(m + 1 - amplitude):
            rate = dv * (math.comb(m - y, amplitude) / clusters)
            gen[y + amplitude, y] += rate
            gen[y, y] -= rate
    return gen


def matrix_exponential(generator: np.ndarray) -> np.ndarray:
    """exp of a cumulated generator via Padé scaling-and-squaring.

    Verifies the probability-conservation contract on the way out: columns
    sum to one within 1e-9 and any negative entries (roundoff) are clamped.
    """
    gen = np.asarray(generator, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise LossEngineError("generator must be a square matrix")
    if not np.all(np.isfinite(gen)):
        raise LossEngineError("generator has non-finite entries")
    result = np.clip(scipy.linalg.expm(gen), 0.0, None)
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


def single_name_generator(pool: PoolSpec, schedule: IntensitySchedule,
                          t0: float, t1: float) -> np.ndarray:
    """Integral over [t0, t1] of the transition-rate matrix of the s1 count
    chain, indexed (to-state, from-state), for either schedule kind.

    With y names defaulted the defaulted set is a uniformly random y-subset,
    so a shock of amplitude a defaults Hypergeometric(M, M - y, a) fresh
    names: entry (y + k, y), k >= 1, is the sum over amplitudes of the
    aggregate cumulated-intensity increment times the chance of k fresh
    names, and the diagonal balances each column. Amplitudes above the pool
    size never fire. The chances come from one scipy call over every
    (amplitude, k, y).
    """
    m = pool.names
    amplitudes = np.array(schedule.amplitudes)
    increments = schedule.aggregate_cumulated(t1) - schedule.aggregate_cumulated(t0)
    fire = amplitudes <= m
    states = np.arange(m + 1)
    pmf = scipy.stats.hypergeom.pmf(states[:, None], m, m - states,
                                    amplitudes[fire, None, None])  # (amplitude, k, y)
    rates = np.tensordot(increments[fire], pmf, axes=1)  # (k, y)
    gen = np.zeros((m + 1, m + 1))
    to, frm = np.tril_indices(m + 1, -1)
    gen[to, frm] = rates[to - frm, frm]
    gen[states, states] = -gen.sum(axis=0)
    return gen


def expm_distribution(pool: PoolSpec, schedule: IntensitySchedule, t: float,
                      generator=cumulated_generator) -> LossDistribution:
    """Counting distribution of the cluster-adjusted model at time t, or of
    the chain whose cumulated generator over a piece is ``generator``.

    Ordered product of one matrix exponential per knot-to-knot piece of
    [0, t]; generators of different pieces need not commute, so the product
    runs oldest-first.
    """
    if not (0.0 <= t < math.inf):
        raise LossEngineError(f"time must be finite and non-negative, got {t!r}")
    state = np.zeros(pool.names + 1)
    state[0] = 1.0
    if t > 0:
        for a, b in _knot_pieces(schedule, t):
            state = matrix_exponential(generator(pool, schedule, a, b)) @ state
    return LossDistribution(time=t, probs=state)


# ---------------------------------------------------------------------------
# tangents: block-triangular matrix exponentials
# ---------------------------------------------------------------------------

def unit_generator(model: str, names: int, amplitude: int) -> np.ndarray:
    """Transition-rate matrix (to-state, from-state) of one amplitude at unit
    aggregate density. gpcl: state y jumps to y + amplitude at rate
    C(names - y, amplitude) / C(names, amplitude), in exact integers; gpl:
    every state below the cap jumps to min(y + amplitude, names) at rate one."""
    gen = np.zeros((names + 1, names + 1))
    for y in range(names):
        if model == GPCL:
            if y + amplitude > names:
                continue
            to, rate = y + amplitude, math.comb(names - y, amplitude) / math.comb(names, amplitude)
        else:
            to, rate = min(y + amplitude, names), 1.0
        gen[to, y] += rate
        gen[y, y] -= rate
    return gen


def dense_transition_matrix(names: int, model: str, shares) -> np.ndarray:
    """P = I + G/q of one knot interval, built mode by mode on a zero matrix:
    each (amplitude, share) adds its share of the binomial ratios (gpcl) or
    of one (gpl, with every jump reaching the cap landing on it) along its
    sub-diagonal, through strided views, and of one minus them along the
    diagonal; the gpl cap absorbs. The gpcl ratios are the rows of the
    kernel's chance table, whose last row stands for every amplitude above
    the pool size; the kernel's moves must give these entries to the last
    bit."""
    n = names + 1
    p = np.zeros((n, n))
    flat = p.reshape(-1)
    for amplitude, share in shares:
        if model == GPCL:
            ratio = _jump_table(names)[0][min(amplitude, n)]
            if amplitude <= names:
                flat[amplitude * n::n + 1] += share * ratio[:n - amplitude]
            flat[::n + 1] += share * (1.0 - ratio)
        else:
            jump = min(amplitude, names)
            flat[jump * n::n + 1][:names - jump] += share
            p[names, names - jump:names] += share
    if model == GPL:
        p[names, names] = 1.0
    return p


def dense_generator_columns(names: int, model: str, amplitudes, x) -> np.ndarray:
    """G_b x for each of ``amplitudes``, (names + 1, amplitudes), where
    G_b = ``dense_transition_matrix`` of b alone minus I: each row's
    non-zero entries summed in the order of their from-states, from zero."""
    out = np.zeros((names + 1, len(amplitudes)))
    for j, amplitude in enumerate(amplitudes):
        generator = dense_transition_matrix(names, model, [(amplitude, 1.0)])
        generator.flat[::names + 2] -= 1.0
        for to, row in enumerate(generator):
            for frm in np.flatnonzero(row):
                out[to, j] += row[frm] * x[frm]
    return out


def expm_tangent(pool: PoolSpec, schedule: IntensitySchedule, t: float, amplitude: int,
                 knot: int) -> np.ndarray:
    """Derivative of the counting distribution at time t with respect to the
    rise of ``amplitude``'s cumulated intensity over knot interval ``knot``
    (the amplitude need not be in the schedule).

    Piece by piece of [0, t], the state moves by exp(G s). On the pieces of
    the bumped interval, of width w, the upper right block of
    exp([[G s, G_b s / w], [0, G s]]) is the derivative of exp(G s) along
    G_b / w, and carries the state into the tangent.
    """
    n = pool.names + 1
    widths = np.diff(schedule.knots, prepend=0.0)
    densities = np.maximum(np.diff(schedule.cumulated, axis=1, prepend=0.0), 0.0) / widths
    bump = unit_generator(schedule.model, pool.names, amplitude) / widths[knot]
    state, tangent = np.eye(1, n)[0], np.zeros(n)
    for a, b in (_knot_pieces(schedule, t) if t > 0 else []):
        k = min(int(np.searchsorted(schedule.knots, b)), len(schedule.knots) - 1)
        gen = sum(d * unit_generator(schedule.model, pool.names, amp)
                  for amp, d in zip(schedule.amplitudes, densities[:, k]))
        if k == knot:
            block = np.block([[gen, bump], [np.zeros((n, n)), gen]])
            exp = scipy.linalg.expm(block * (b - a))
            state, tangent = exp[:n, :n] @ state, exp[:n, :n] @ tangent + exp[:n, n:] @ state
        else:
            exp = scipy.linalg.expm(gen * (b - a))
            state, tangent = exp @ state, exp @ tangent
    return tangent


# ---------------------------------------------------------------------------
# name-level simulation: one stream of named clusters per path
# ---------------------------------------------------------------------------

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


@lru_cache(maxsize=64)
def _inverse_grid(schedule: IntensitySchedule, horizon: float):
    """Breakpoints (times, cumulated rows) covering [0, horizon] for inversion,
    read-only: computed once per schedule and horizon, not once per seed."""
    times = np.concatenate([[0.0], schedule.knots[schedule.knots < horizon], [horizon]])
    values = schedule.aggregate_cumulated(times)  # (n_pts, n_modes)
    times.flags.writeable = values.flags.writeable = False
    return times, values


def sample_shock_stream(pool: PoolSpec, schedule: IntensitySchedule, horizon: float,
                        seed: int | np.random.Generator = 0) -> list[ShockEvent]:
    """Sample one merged, time-sorted stream of cluster shocks up to ``horizon``.

    For each amplitude the event count is Poisson with mean equal to the
    aggregate cumulated intensity at the horizon, and event times are the
    inverse image of uniforms under the piecewise-linear cumulated curve
    (exact, no thinning). The names of all of an amplitude's events come from
    one draw: the indices of the ``amplitude`` smallest of ``names`` iid
    uniforms form a uniformly random subset. Ties after merging are broken by
    amplitude index.
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
        t = np.sort(np.interp(u, grid_values[:, j], grid_times))
        keys = rng.random((count, pool.names))
        clusters = np.sort(np.argsort(keys, axis=1)[:, :amplitude], axis=1)
        for ti, cluster in zip(t.tolist(), clusters.tolist()):
            events.append((ti, j, ShockEvent(ti, tuple(cluster))))
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


# ---------------------------------------------------------------------------
# one fit's damped step on the free increments' sub-system
# ---------------------------------------------------------------------------


def free_stepping(x: np.ndarray, e: np.ndarray, jac: np.ndarray):
    """The increments held on a bound and the Marquardt scale of the damping
    at ``x``, or None where the first-order test ``_GRADIENT_TOL`` holds."""
    gradient, norms = 2.0 * jac.T @ e, np.linalg.norm(jac, axis=0)
    held = (x <= 0.0) & (gradient >= 0.0) | (x >= _MAX_INCREMENT) & (gradient <= 0.0)
    if np.all((np.abs(gradient) <= _GRADIENT_TOL * 2.0 * max(math.sqrt(e @ e), 1.0) * norms)
              | held):
        return None
    return held, np.maximum(norms ** 2, _SCALE_FLOOR * (norms ** 2).max())


def free_damped_step(x: np.ndarray, e: np.ndarray, jac: np.ndarray, held: np.ndarray,
                     damping: np.ndarray) -> np.ndarray:
    """The point in [0, 1e4] that minimises |e + J d|^2 + sum(damping d^2)
    over steps d of the increments not ``held``, found by stopping each
    increment that would leave the box on its bound and solving again for
    the rest."""
    step, fixed = np.zeros_like(x), held.copy()
    while True:
        j = jac[:, ~fixed]
        step[~fixed] = np.linalg.solve(j.T @ j + np.diag(damping[~fixed]),
                                       -j.T @ (e + jac[:, fixed] @ step[fixed]))
        out = ~fixed & ((x + step < 0.0) | (x + step > _MAX_INCREMENT))
        if not out.any():
            return np.clip(x + step, 0.0, _MAX_INCREMENT)
        step[out] = np.clip(x[out] + step[out], 0.0, _MAX_INCREMENT) - x[out]
        fixed |= out
