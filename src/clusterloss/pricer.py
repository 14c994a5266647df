"""Credit index and CDO tranche pricing from counting-distribution term
structures.

``PanelPricer`` prices every instrument of a quote panel, index spreads,
tranche spreads and equity upfronts, off one call of the loss engine's
term-structure kernel. Conventions: deterministic discounting; premium paid
in arrears on the notional remaining at each payment date; the default-leg
time integral is discretised on a grid of whole days after the trade date,
the payment dates plus refinement points (every 30 days by default, rounded
to the day), with midpoint discounting of each loss increment; index
premium notional erodes with the default count (no recovery credit), while
the index default leg pays loss increments net of recovery.

A pricer holds only data fixed at construction, so threads may share one
and a pickled copy is an ordinary one. Evaluations that share leading knot
intervals, as the calibrator's do, are served by the kernel's process-wide
cache of solved intervals. ``PanelPricer.jacobian`` differentiates the
quote errors exactly, from one tangent pass of the kernel.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .loss_engine import (
    IntensitySchedule,
    LossDistribution,
    PoolSpec,
    distribution_tangents,
    distribution_term_structure,
)
from .market_data import (
    DAYS_PER_YEAR,
    DiscountCurve,
    MarketDataError,
    QuotePanel,
    format_date,
    quarterly_payment_dates,
    year_fraction,
)


class PricingError(ValueError):
    pass


@dataclass(frozen=True)
class TrancheDef:
    """Loss slice [attachment, detachment] of the pool, unit thickness."""

    attachment: float
    detachment: float

    def __post_init__(self):
        if not (0.0 <= self.attachment < self.detachment <= 1.0):
            raise PricingError(
                f"need 0 <= attachment < detachment <= 1, got "
                f"[{self.attachment}, {self.detachment}]")

    @property
    def thickness(self) -> float:
        return self.detachment - self.attachment

    def label(self) -> str:
        return f"{100 * self.attachment:g}-{100 * self.detachment:g}"


def tranched_loss(loss, tranche: TrancheDef):
    """Fraction of the tranche wiped out at pool loss ``loss``: zero below the
    attachment, linear in between, one above the detachment."""
    arr = np.asarray(loss, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # a nan fails this too
        raise PricingError("pool loss must lie in [0, 1]")
    out = np.clip((arr - tranche.attachment) / tranche.thickness, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def tranche_payout_by_count(tranche: TrancheDef, pool: PoolSpec) -> np.ndarray:
    """Tranched loss per default count, using the constant-recovery loss map
    (pool loss = (1 - recovery) * count / names)."""
    losses = pool.loss_per_default * np.arange(pool.names + 1)
    return tranched_loss(losses, tranche)


def expected_tranched_loss(dist: LossDistribution, tranche: TrancheDef, pool: PoolSpec) -> float:
    if len(dist.probs) != pool.names + 1:
        raise PricingError("distribution support does not match the pool size")
    return float(dist.probs @ tranche_payout_by_count(tranche, pool))


@dataclass(frozen=True)
class Instrument:
    """One quoted instrument in its quoting units (bp, or fraction if upfront)."""

    label: str
    kind: str  # "index" | "tranche"
    attachment: float | None
    detachment: float | None
    maturity: dt.date
    maturity_time: float
    mid: float
    width: float
    is_upfront: bool = False
    running: float = 0.05


class PanelPricer:
    """Prices every instrument of a panel off one distribution term structure.

    Set-up fixes the panel's part first: the grid, the instruments (index
    quotes by maturity, then tranches by attachment, detachment, maturity)
    and their discount and annuity weights. The grid is built in whole days
    after the trade date (day zero, every payment date, and multiples of
    ``grid_step_days``, at least one day, rounded to the day) and divided by
    365 once, so every payment date is a grid point by construction. The
    pool enters last, only through ``payout_matrix``: per default count, the
    defaulted fraction, the pool loss and the loss of each distinct tranche
    slice, in sorted order. Evaluations then only pay for the
    distributions."""

    def __init__(self, panel: QuotePanel, curve: DiscountCurve, pool: PoolSpec,
                 grid_step_days: float = 30.0):
        if len(panel) == 0:
            raise PricingError("empty quote panel")
        if not (1.0 <= grid_step_days < np.inf):  # a nan fails this too
            raise PricingError(f"grid step must be finite and at least one day, "
                               f"got {grid_step_days}")
        # days after the trade date; the maturity is each schedule's last day
        pay_days = {m: np.array([(d - panel.valuation_date).days
                                 for d in quarterly_payment_dates(panel.valuation_date, m)])
                    for m in panel.maturities}
        last_day = pay_days[panel.maturities[-1]][-1]
        refinement = np.rint(np.arange(grid_step_days, last_day, grid_step_days))
        grid_days = np.unique(np.concatenate([[0.0], refinement, *pay_days.values()]))
        self.grid_times = grid_days / DAYS_PER_YEAR
        self.knots = tuple(year_fraction(panel.valuation_date, m)
                           for m in panel.maturities)

        indices = sorted(panel.index_quotes, key=lambda q: q.maturity)
        tranches = sorted(panel.tranche_quotes,
                          key=lambda q: (q.attachment, q.detachment, q.maturity))
        self.instruments: list[Instrument] = [Instrument(
            label=f"index {format_date(q.maturity)}", kind="index",
            attachment=None, detachment=None, maturity=q.maturity,
            maturity_time=year_fraction(panel.valuation_date, q.maturity),
            mid=q.spread_bp, width=q.bid_ask_width_bp) for q in indices]
        self.instruments += [Instrument(
            label=f"{TrancheDef(q.attachment, q.detachment).label()} {format_date(q.maturity)}",
            kind="tranche", attachment=q.attachment, detachment=q.detachment,
            maturity=q.maturity, maturity_time=year_fraction(panel.valuation_date, q.maturity),
            mid=q.quote, width=q.bid_ask_width, is_upfront=q.is_upfront,
            running=q.running_premium_if_upfront) for q in tranches]
        self.mids = np.array([ins.mid for ins in self.instruments])
        self.widths = np.array([ins.width for ins in self.instruments])
        self._upfront = np.array([ins.is_upfront for ins in self.instruments])
        self._running = np.array([ins.running if ins.is_upfront else 0.0
                                  for ins in self.instruments])
        # every leg is a weighted sum over the grid: the default leg weighs the
        # loss increment of each grid cell up to maturity by the discount
        # factor at the cell's midpoint, the annuity weighs the surviving
        # notional at each payment date by its discounted year fraction; the
        # weights depend on the maturity alone
        with np.errstate(over="ignore"):  # an infinite factor is an error below
            disc_mid = curve.discount_factor(0.5 * (self.grid_times[1:] + self.grid_times[:-1]))
        self._increment_weights = np.zeros((len(self.grid_times) - 1, len(self.instruments)))
        self._payment_weights = np.zeros((len(self.grid_times), len(self.instruments)))
        for maturity in panel.maturities:
            pay_idx = np.searchsorted(grid_days, pay_days[maturity])
            pay_times = self.grid_times[pay_idx]
            n_rows = pay_idx[-1] + 1  # the maturity is the last payment
            # a zero rate of 1e300 drives the factors to zero, and a spread to 0/0
            with np.errstate(over="ignore"):
                pay_discount = curve.discount_factor(pay_times)
            factors = np.concatenate([disc_mid[:n_rows - 1], pay_discount])
            if not (np.isfinite(factors).all() and factors.min() > 0.0):
                raise MarketDataError(f"discount factors up to the maturity "
                                      f"{format_date(maturity)} must be finite and positive")
            pay_weights = np.diff(pay_times, prepend=0.0) * pay_discount
            if not pay_weights.sum() > 0.0:
                raise MarketDataError(f"payment weights of the maturity "
                                      f"{format_date(maturity)} sum to zero")
            cols = np.flatnonzero([ins.maturity == maturity for ins in self.instruments])
            self._increment_weights[:n_rows - 1, cols] = disc_mid[:n_rows - 1, None]
            self._payment_weights[np.ix_(pay_idx, cols)] = pay_weights[:, None]

        # the pool enters only here: the defaulted fraction and pool loss of the
        # index legs, then one column per tranche slice, shared by its maturities
        self.pool = pool
        slices = sorted({(q.attachment, q.detachment) for q in tranches})
        counts = np.arange(pool.names + 1)
        self.payout_matrix = np.column_stack(
            [counts / pool.names, (1.0 - pool.recovery) * counts / pool.names]
            + [tranche_payout_by_count(TrancheDef(*s), pool) for s in slices])
        tranche_cols = [2 + slices.index((q.attachment, q.detachment)) for q in tranches]
        self._loss_cols = np.array([1] * len(indices) + tranche_cols)
        self._notional_cols = np.array([0] * len(indices) + tranche_cols)

    def _legs(self, schedule: IntensitySchedule) -> tuple[np.ndarray, np.ndarray]:
        """Default-leg and annuity values of every instrument."""
        probs = distribution_term_structure(self.pool, schedule, self.grid_times)
        stats = probs @ self.payout_matrix  # (grid, n_cols)
        default_pv = np.einsum("ti,ti->i", self._increment_weights,
                               np.diff(stats[:, self._loss_cols], axis=0))
        annuity = np.einsum("ti,ti->i", self._payment_weights,
                            1.0 - stats[:, self._notional_cols])
        return default_pv, annuity

    def model_values(self, schedule: IntensitySchedule) -> np.ndarray:
        """Model quotes of every instrument, in ``instruments`` order."""
        default_pv, annuity = self._legs(schedule)
        values = default_pv - self._running * annuity  # upfront quotes
        spreads = ~self._upfront
        values[spreads] = 1e4 * default_pv[spreads] / annuity[spreads]
        return values

    def errors(self, schedule: IntensitySchedule) -> np.ndarray:
        """Weighted quote errors (model - mid) / width of every instrument."""
        return (self.model_values(schedule) - self.mids) / self.widths

    def jacobian(self, schedule: IntensitySchedule, amplitudes) -> np.ndarray:
        """Exact derivatives of ``errors`` with respect to the rise of each of
        ``amplitudes``' cumulated intensity over each knot interval, shaped
        (instruments, amplitudes, knots); an amplitude outside the schedule
        is taken at zero. One tangent pass of the loss engine, chained
        through the legs, with the quotient rule for spreads; the legs at
        the point come from the kernel's cached rows."""
        default_pv, annuity = self._legs(schedule)
        tangents = distribution_tangents(self.pool, schedule, self.grid_times, amplitudes,
                                         self.payout_matrix)
        tangents = tangents.reshape(*tangents.shape[:2], -1)  # (grid, n_cols, parameters)
        d_default_pv = _leg_tangents(self._increment_weights, np.diff(tangents, axis=0),
                                     self._loss_cols)
        d_annuity = -_leg_tangents(self._payment_weights, tangents, self._notional_cols)
        d_values = d_default_pv - self._running[:, None] * d_annuity
        spreads = ~self._upfront
        d_values[spreads] = 1e4 * (d_default_pv[spreads] * annuity[spreads, None]
                                   - default_pv[spreads, None] * d_annuity[spreads]
                                   ) / annuity[spreads, None] ** 2
        return (d_values / self.widths[:, None]).reshape(len(self.instruments),
                                                         len(amplitudes), -1)

    def objective(self, schedule: IntensitySchedule) -> tuple[float, np.ndarray]:
        eps = self.errors(schedule)
        return float(eps @ eps), eps


def _leg_tangents(weights: np.ndarray, tangents: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_t weights[t, i] * tangents[t, cols[i]] for every instrument i:
    one product per payout column."""
    out = np.empty((weights.shape[1], tangents.shape[2]))
    for col in np.unique(cols):
        rows = cols == col
        out[rows] = weights[:, rows].T @ tangents[:, col]
    return out
